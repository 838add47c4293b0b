//! Integration tests: every rule has a flagged, a waived, and a clean
//! fixture under `tests/fixtures/<rule>/`; the workspace walk flags an
//! injected violation; and the real repo itself analyzes ratchet-clean
//! under the shipped `detlint.toml` + `detlint.lock`.
//!
//! Fixtures are read from disk (they intentionally violate the rules and
//! are never compiled) and materialized into a throwaway workspace at a
//! path that puts them in the rule's scope, so the call-graph analyzer
//! runs for real. The other fixture directories there belong to the path
//! rules clippy checks (`clippy_control.sh`).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use detlint::lock::{parse_lock, ratchet};
use detlint::{analyze_workspace, parse_config, Config, Finding};

fn fixture(rule: &str, kind: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(format!("{kind}.rs"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Each fixture's place in a throwaway workspace.
const FLOW_RULES: [(&str, &str); 3] = [
    // `engine.rs` file-stem makes its free fns match `engine::persist`.
    ("panic_reachable", "crates/demo/src/engine.rs"),
    // Any src path works: entry points are `*::dispatch` patterns.
    ("sim_purity", "crates/demo/src/event.rs"),
    // Must live in a deterministic crate's src/.
    ("float_ordering", "crates/demo/src/state.rs"),
];

/// `Config::default_repo()` with the throwaway `demo` crate in scope.
fn demo_config() -> Config {
    let mut cfg = Config::default_repo();
    cfg.deterministic_crates.push("demo".to_owned());
    cfg
}

fn flow_analyze(rule: &str, kind: &str, rel: &str) -> Vec<Finding> {
    let root =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("detlint_flow_{rule}_{kind}"));
    let dst = root.join(rel);
    std::fs::create_dir_all(dst.parent().expect("fixture path has a parent")).expect("mkdir");
    std::fs::write(&dst, fixture(rule, kind)).expect("write fixture");
    analyze_workspace(&root, &demo_config())
        .expect("analyze")
        .findings
}

#[test]
fn every_flow_rule_flags_its_flagged_fixture() {
    for (rule, rel) in FLOW_RULES {
        let findings = flow_analyze(rule, "flagged", rel);
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "{rule}/flagged.rs produced no {rule} finding: {findings:?}"
        );
        // Flow findings carry the enclosing symbol (the lock fingerprint
        // needs it to be stable under line edits).
        assert!(
            findings
                .iter()
                .filter(|f| f.rule == rule)
                .all(|f| f.symbol.is_some()),
            "{rule} findings missing symbols: {findings:?}"
        );
    }
}

#[test]
fn every_flow_rule_accepts_its_waived_fixture() {
    for (rule, rel) in FLOW_RULES {
        let findings = flow_analyze(rule, "waived", rel);
        assert!(
            findings.is_empty(),
            "{rule}/waived.rs still has findings: {findings:?}"
        );
    }
}

#[test]
fn every_flow_rule_accepts_its_clean_fixture() {
    for (rule, rel) in FLOW_RULES {
        let findings = flow_analyze(rule, "clean", rel);
        assert!(
            findings.is_empty(),
            "{rule}/clean.rs has findings: {findings:?}"
        );
    }
}

#[test]
fn diagnostics_carry_file_line_and_rule() {
    let (rule, rel) = FLOW_RULES[0];
    let findings = flow_analyze(rule, "flagged", rel);
    let f = findings.first().expect("flagged fixture has findings");
    assert_eq!(f.file, rel);
    assert!(f.line > 0);
    let rendered = f.to_string();
    assert!(
        rendered.starts_with(&format!("{}:{}: {rule} — ", f.file, f.line)),
        "unexpected diagnostic format: {rendered}"
    );
}

/// Build a minimal fake workspace in the cargo tmpdir and confirm the walk
/// finds an injected violation, then goes green once it is fixed.
#[test]
fn workspace_walk_catches_injected_violation() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("detlint_inject");
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fake workspace");
    let lib = src_dir.join("lib.rs");

    // Injected violation: a float-keyed ordered map in a deterministic crate.
    std::fs::write(
        &lib,
        "use std::collections::BTreeMap;\npub type M = BTreeMap<f64, u64>;\n",
    )
    .expect("write violation");
    let findings = analyze_workspace(&root, &demo_config())
        .expect("walk")
        .findings;
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "float_ordering" && f.file == "crates/demo/src/lib.rs"),
        "injected violation not caught: {findings:?}"
    );

    // Fixed: integer keys, no findings.
    std::fs::write(
        &lib,
        "use std::collections::BTreeMap;\npub type M = BTreeMap<u64, f64>;\n",
    )
    .expect("write fix");
    let findings = analyze_workspace(&root, &demo_config())
        .expect("walk")
        .findings;
    assert!(
        findings.is_empty(),
        "fixed tree still flagged: {findings:?}"
    );
}

#[test]
fn fixtures_directories_are_skipped_by_the_walk() {
    // Rule-violating material under a crate's tests/ (where detlint keeps
    // its own fixtures) never reaches the analysis.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("detlint_skip");
    let fix_dir = root.join("crates/demo/tests/fixtures");
    std::fs::create_dir_all(&fix_dir).expect("mkdir");
    std::fs::write(
        fix_dir.join("bad.rs"),
        "pub type M = std::collections::BTreeMap<f64, u64>;\n",
    )
    .expect("write");
    let findings = analyze_workspace(&root, &demo_config())
        .expect("walk")
        .findings;
    assert!(
        findings.is_empty(),
        "fixtures dir was not skipped: {findings:?}"
    );
}

/// The repo's own acceptance gate: the tree this test ships in must
/// analyze ratchet-clean under the shipped `detlint.toml` +
/// `detlint.lock` — no new findings and no stale lock entries. This is
/// what `cargo run -p detlint` asserts in CI, pinned here so `cargo test`
/// alone catches a regression.
#[test]
fn repo_analyzes_clean_under_shipped_config_and_lock() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let toml_path = root.join("detlint.toml");
    let cfg = match std::fs::read_to_string(&toml_path) {
        Ok(text) => parse_config(&text).expect("detlint.toml parses"),
        // Source not laid out as the full repo (e.g. crate published alone):
        // nothing to assert.
        Err(_) => return,
    };
    let lock_text = std::fs::read_to_string(root.join("detlint.lock")).unwrap_or_default();
    let lock = parse_lock(&lock_text).expect("detlint.lock parses");
    let analysis = analyze_workspace(&root, &cfg).expect("analyze repo");
    let report = ratchet(&analysis.findings, &lock);
    assert!(
        report.is_clean(),
        "repo is not ratchet-clean.\nnew findings:\n{}\nstale lock entries:\n{}",
        report
            .new
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
        report.stale.join("\n")
    );
}
