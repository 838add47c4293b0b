//! `repro` at its command line: it says no to what it does not know, and
//! `--help` lists everything it does.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the built repro binary runs");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8");
    (status.code(), text(stdout), text(stderr))
}

#[test]
fn a_bogus_argument_is_usage_on_stderr_exit_2_and_nothing_on_stdout() {
    for args in [
        &["--bogus"][..],
        &["e13"],
        &["e2", "--thread", "8"],
        &["e12", "--tenants", "0"],
    ] {
        let (code, stdout, stderr) = repro(args);
        assert_eq!((code, stdout.as_str()), (Some(2), ""), "{args:?}");
        assert!(
            stderr.starts_with("repro: ") && stderr.contains("usage: repro"),
            "{stderr}"
        );
    }
}

#[test]
fn help_exits_0_lists_every_experiment_and_runs_none() {
    let (code, help, stderr) = repro(&["e2", "--help"]);
    assert_eq!((code, stderr.as_str()), (Some(0), ""));
    assert!(!help.contains("== E2"), "--help selects no behaviour");
    for name in [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "chaos", "trace", "history", "e10", "e11", "e12",
        "a1", "a2",
    ] {
        assert!(
            help.contains(&format!("\n  {name:<8} ")),
            "{name} missing:\n{help}"
        );
    }
    for option in [
        "--threads",
        "--csv",
        "--trace",
        "--history",
        "--alerts",
        "--tenants",
    ] {
        assert!(help.contains(option), "{option} missing:\n{help}");
    }
}

/// The smallest real run: one experiment by name — the banner and its one
/// table on stdout, exit 0.
#[test]
fn a_named_experiment_runs_alone() {
    let (code, stdout, _) = repro(&["e5", "--threads=1"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("Tsuru experiment reproduction"));
    assert_eq!(stdout.matches("\n== ").count(), 1, "{stdout}");
    assert!(stdout.contains("== E5: namespace-operator automation"));
}
