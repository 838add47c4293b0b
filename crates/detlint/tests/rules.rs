//! Integration tests: every rule has a flagged, a waived, and a clean
//! fixture under `tests/fixtures/<rule>/`; the workspace walk flags an
//! injected violation; and the real repo itself analyzes ratchet-clean
//! under the shipped `detlint.toml` + `detlint.lock`.
//!
//! Fixtures are read from disk (they intentionally violate the rules, so
//! the walker skips `fixtures` directories, and they are never compiled).
//! Token-rule fixtures are checked under a *virtual* workspace path chosen
//! to put them in the rule's scope; flow-rule fixtures are materialized
//! into a throwaway workspace so the call-graph analyzer runs for real.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use detlint::lock::{parse_lock, ratchet};
use detlint::{analyze_workspace, check_file, check_workspace, parse_config, Config, Finding};

fn fixture(rule: &str, kind: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(format!("{kind}.rs"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// A virtual path that puts the fixture inside the rule's scope.
fn scoped_path(rule: &str) -> &'static str {
    match rule {
        // Any deterministic-crate src file is in scope for these.
        "wall_clock" | "ambient_rng" | "hash_collections" | "thread_spawn"
        | "unsafe_safety" => "crates/storage/src/fixture_under_test.rs",
        other => panic!("unknown rule {other}"),
    }
}

const ALL_RULES: [&str; 5] = [
    "wall_clock",
    "ambient_rng",
    "hash_collections",
    "thread_spawn",
    "unsafe_safety",
];

/// The flow rules need the full analyzer, not `check_file`: the fixture is
/// placed into a throwaway workspace at a path that puts it in scope.
const FLOW_RULES: [(&str, &str); 3] = [
    // `engine.rs` file-stem makes its free fns match `engine::persist`.
    ("panic_reachable", "crates/demo/src/engine.rs"),
    // Any src path works: entry points are `*::dispatch` patterns.
    ("sim_purity", "crates/demo/src/event.rs"),
    // Must live in a deterministic crate's src/.
    ("float_ordering", "crates/demo/src/state.rs"),
];

fn flow_analyze(rule: &str, kind: &str, rel: &str) -> Vec<Finding> {
    let root =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("detlint_flow_{rule}_{kind}"));
    let dst = root.join(rel);
    std::fs::create_dir_all(dst.parent().expect("fixture path has a parent")).expect("mkdir");
    std::fs::write(&dst, fixture(rule, kind)).expect("write fixture");
    let mut cfg = Config::default_repo();
    cfg.deterministic_crates.push("demo".to_owned());
    analyze_workspace(&root, &cfg).expect("analyze").findings
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
fn every_rule_flags_its_flagged_fixture() {
    let cfg = Config::default_repo();
    for rule in ALL_RULES {
        let findings = check_file(scoped_path(rule), &fixture(rule, "flagged"), &cfg);
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "{rule}/flagged.rs produced no {rule} finding: {findings:?}"
        );
    }
}

#[test]
fn every_rule_accepts_its_waived_fixture() {
    let cfg = Config::default_repo();
    for rule in ALL_RULES {
        let findings = check_file(scoped_path(rule), &fixture(rule, "waived"), &cfg);
        assert!(
            findings.is_empty(),
            "{rule}/waived.rs still has findings: {findings:?}"
        );
    }
}

#[test]
fn every_rule_accepts_its_clean_fixture() {
    let cfg = Config::default_repo();
    for rule in ALL_RULES {
        let findings = check_file(scoped_path(rule), &fixture(rule, "clean"), &cfg);
        assert!(
            findings.is_empty(),
            "{rule}/clean.rs has findings: {findings:?}"
        );
    }
}

#[test]
fn diagnostics_carry_file_line_and_rule() {
    let cfg = Config::default_repo();
    let findings = check_file(scoped_path("wall_clock"), &fixture("wall_clock", "flagged"), &cfg);
    let f = findings.first().expect("flagged fixture has findings");
    assert_eq!(f.file, scoped_path("wall_clock"));
    assert!(f.line > 0);
    let rendered = f.to_string();
    assert!(
        rendered.starts_with(&format!("{}:{}: wall_clock — ", f.file, f.line)),
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

    let cfg = {
        let mut c = Config::default_repo();
        c.deterministic_crates.push("demo".to_owned());
        c
    };

    // Injected violation: a hash map in a deterministic crate.
    std::fs::write(&lib, "use std::collections::HashMap;\npub type M = HashMap<u64, u64>;\n")
        .expect("write violation");
    let findings = check_workspace(&root, &cfg).expect("walk");
    assert!(
        findings.iter().any(|f| f.rule == "hash_collections"
            && f.file == "crates/demo/src/lib.rs"),
        "injected violation not caught: {findings:?}"
    );

    // Fixed: deterministic collection, no findings.
    std::fs::write(&lib, "use std::collections::BTreeMap;\npub type M = BTreeMap<u64, u64>;\n")
        .expect("write fix");
    let findings = check_workspace(&root, &cfg).expect("walk");
    assert!(findings.is_empty(), "fixed tree still flagged: {findings:?}");
}

#[test]
fn fixtures_directories_are_skipped_by_the_walk() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("detlint_skip");
    let fix_dir = root.join("crates/demo/tests/fixtures");
    std::fs::create_dir_all(&fix_dir).expect("mkdir");
    std::fs::write(
        fix_dir.join("bad.rs"),
        "pub fn f() { let _ = std::time::Instant::now(); }\n",
    )
    .expect("write");
    let findings = check_workspace(&root, &Config::default_repo()).expect("walk");
    assert!(findings.is_empty(), "fixtures dir was not skipped: {findings:?}");
}

/// The repo's own acceptance gate: the tree this test ships in must
/// analyze ratchet-clean under the shipped `detlint.toml` +
/// `detlint.lock` — no new flow findings, no stale lock entries, and the
/// token rules spotless. This is what `cargo run -p detlint` asserts in
/// CI, pinned here so `cargo test` alone catches a regression.
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
    let lock_text =
        std::fs::read_to_string(root.join("detlint.lock")).unwrap_or_default();
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
