//! The findings ratchet: `detlint.lock`.
//!
//! New flow rules landing against an old tree would either block every PR
//! or get allowlisted wholesale. The lock does neither: it snapshots the
//! *accepted* findings by stable fingerprint and CI enforces two things —
//!
//! 1. **no new findings**: a finding whose fingerprint is not in the lock
//!    fails the build (fix it, or waive it inline with a reason);
//! 2. **no stale lock**: a lock entry with no surviving finding fails the
//!    build too, with instructions to run `detlint --update-lock` — so
//!    fixed debt is *burned* out of the lock and can never silently come
//!    back.
//!
//! `detlint --update-lock` only ever shrinks the lock (monotone ratchet):
//! there is no way to add an entry with the tool — new debt is fixed or
//! waived inline with a reason, where a reviewer sees it.
//!
//! Fingerprints are `rule + path + symbol` — never line numbers, so
//! unrelated edits to a file don't churn the lock.

use std::collections::BTreeSet;

use crate::{Finding, RULE_NAMES};

/// A finding's stable fingerprint: `rule<TAB>path<TAB>symbol`.
pub fn fingerprint(f: &Finding) -> String {
    format!(
        "{}\t{}\t{}",
        f.rule,
        f.file,
        f.symbol.as_deref().unwrap_or("-")
    )
}

/// Parsed lock: the set of accepted fingerprints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lock {
    /// Accepted fingerprints, sorted (BTreeSet iteration order).
    pub entries: BTreeSet<String>,
}

/// Outcome of diffing current findings against the lock.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Findings whose fingerprint is NOT in the lock — these fail CI.
    pub new: Vec<Finding>,
    /// Lock entries with no surviving finding — a stale lock fails CI
    /// until `--update-lock` burns them down.
    pub stale: Vec<String>,
    /// Number of findings covered by the lock (accepted debt).
    pub baselined: usize,
}

impl RatchetReport {
    /// Clean means: nothing new, nothing stale.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Parse a lock file. Format: `# comment` lines and one
/// `rule<TAB>path<TAB>symbol` fingerprint per line.
pub fn parse_lock(text: &str) -> Result<Lock, String> {
    let mut entries = BTreeSet::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 3 {
            return Err(format!(
                "detlint.lock:{}: expected `rule<TAB>path<TAB>symbol`, got `{line}`",
                n + 1
            ));
        }
        if !RULE_NAMES.contains(&fields[0]) {
            return Err(format!(
                "detlint.lock:{}: `{}` is not a detlint rule",
                n + 1,
                fields[0]
            ));
        }
        entries.insert(line.to_owned());
    }
    Ok(Lock { entries })
}

/// Render a lock from the given fingerprints (sorted, commented header).
pub fn render_lock(entries: &BTreeSet<String>) -> String {
    let mut s = String::from(
        "# detlint.lock — ratcheted findings baseline (DESIGN.md \u{a7}12).\n\
         #\n\
         # One accepted finding per line: rule<TAB>path<TAB>symbol. CI fails on\n\
         # any finding NOT in this file (fix it or waive it inline with a\n\
         # reason) and on any entry here with no surviving finding (run\n\
         # `detlint --update-lock` to burn fixed debt down). `--update-lock`\n\
         # never ADDS an entry — the ratchet only tightens.\n",
    );
    for e in entries {
        s.push_str(e);
        s.push('\n');
    }
    s
}

/// Diff `findings` against the lock.
pub fn ratchet(findings: &[Finding], lock: &Lock) -> RatchetReport {
    let mut report = RatchetReport::default();
    let mut live: BTreeSet<String> = BTreeSet::new();
    for f in findings {
        let fp = fingerprint(f);
        if lock.entries.contains(&fp) {
            report.baselined += 1;
            live.insert(fp);
        } else {
            report.new.push(f.clone());
        }
    }
    for e in &lock.entries {
        if !live.contains(e) {
            report.stale.push(e.clone());
        }
    }
    report
}

/// Compute the updated lock for `--update-lock`: the current findings'
/// fingerprints. Errors when the update would *grow* the lock (new
/// fingerprints not already accepted).
pub fn updated_lock(findings: &[Finding], old: &Lock) -> Result<BTreeSet<String>, String> {
    let current: BTreeSet<String> = findings.iter().map(fingerprint).collect();
    let added: Vec<&String> = current.difference(&old.entries).collect();
    if !added.is_empty() {
        return Err(format!(
            "--update-lock would ADD {} finding(s) to the baseline; the ratchet \
             only tightens. Fix them or waive them inline with a reason:\n{}",
            added.len(),
            added
                .iter()
                .map(|s| format!("  {}", s.replace('\t', " ")))
                .collect::<Vec<_>>()
                .join("\n")
        ));
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str, symbol: &str) -> Finding {
        Finding {
            file: file.to_owned(),
            line: 1,
            rule,
            symbol: Some(symbol.to_owned()),
            message: "m".to_owned(),
        }
    }

    #[test]
    fn lock_roundtrips() {
        let mut entries = BTreeSet::new();
        entries.insert(fingerprint(&f(
            "panic_reachable",
            "crates/a/src/x.rs",
            "X::m",
        )));
        let text = render_lock(&entries);
        let lock = parse_lock(&text).expect("parses");
        assert_eq!(lock.entries, entries);
    }

    #[test]
    fn baselined_findings_do_not_fail() {
        let finding = f("panic_reachable", "crates/a/src/x.rs", "X::m");
        let lock = Lock {
            entries: [fingerprint(&finding)].into(),
        };
        let r = ratchet(&[finding], &lock);
        assert!(r.is_clean());
        assert_eq!(r.baselined, 1);
    }

    #[test]
    fn new_findings_fail() {
        let r = ratchet(
            &[f("sim_purity", "crates/a/src/x.rs", "X::m")],
            &Lock::default(),
        );
        assert_eq!(r.new.len(), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn line_moves_do_not_churn_the_fingerprint() {
        let mut a = f("panic_reachable", "crates/a/src/x.rs", "X::m");
        let mut b = a.clone();
        a.line = 10;
        b.line = 999;
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn stale_entries_fail_until_burned() {
        let gone = fingerprint(&f("panic_reachable", "crates/a/src/x.rs", "X::m"));
        let lock = Lock {
            entries: [gone.clone()].into(),
        };
        let r = ratchet(&[], &lock);
        assert_eq!(r.stale, [gone]);
        assert!(!r.is_clean());
        // --update-lock burns it down.
        let updated = updated_lock(&[], &lock).expect("shrinking is fine");
        assert!(updated.is_empty());
    }

    #[test]
    fn update_lock_refuses_to_grow_without_flag() {
        // ... and there is no flag: `--grow` is gone.
        let finding = f("panic_reachable", "crates/a/src/x.rs", "X::m");
        assert!(updated_lock(std::slice::from_ref(&finding), &Lock::default()).is_err());
        // An entry that is already accepted stays while its finding does.
        let lock = Lock {
            entries: [fingerprint(&finding)].into(),
        };
        assert_eq!(updated_lock(&[finding], &lock).expect("no growth").len(), 1);
    }

    #[test]
    fn malformed_locks_are_rejected() {
        assert!(parse_lock("panic_reachable only-two-fields\n").is_err());
        assert!(parse_lock("made_up\ta\tb\n").is_err());
        // Only detlint's own rules have lock entries.
        assert!(parse_lock("wall_clock\ta\tb\n").is_err());
        assert!(parse_lock("# just comments\n\n")
            .expect("ok")
            .entries
            .is_empty());
    }
}
