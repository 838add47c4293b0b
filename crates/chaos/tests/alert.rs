//! Alerting acceptance for the chaos engine:
//!
//! - alert-armed trials export byte-identical incident JSONL (and
//!   render identical reports) at any harness thread count;
//! - the default rule profile detects every injected fault kind of the
//!   core quartet (recall = 1.0) and each matched incident's root-cause
//!   bundle names the injected fault span;
//! - on the PR-3 stale-retry regression scenario (journal squeeze under
//!   the naive per-volume mode), an incident opens *before* the auditor
//!   records its first write-order violation — the live alert beats the
//!   post-hoc oracle.

use tsuru_chaos::{alert_sweep, run_chaos_trial, ChaosConfig, FaultPlan};
use tsuru_core::{BackupMode, TrialHarness};
use tsuru_storage::{AlertProfile, SupervisorPolicy};

const SEED: u64 = 0xC0FFEE;

#[test]
fn incident_exports_identical_at_any_thread_count() {
    let cfg = ChaosConfig::default();
    let render = |threads: usize| {
        let set = alert_sweep(&TrialHarness::new(threads), SEED, 1, &cfg);
        set.rows
            .into_iter()
            .flat_map(|t| t.rows)
            .flat_map(|row| [row.report.render(), row.export])
            .collect::<String>()
    };
    let baseline = render(1);
    assert!(
        baseline.contains("\"incident\":"),
        "incident export should be present"
    );
    assert!(
        baseline.contains("alerts profile="),
        "report should fold the summary"
    );
    for threads in [2, 4, 8] {
        assert_eq!(
            render(threads),
            baseline,
            "thread count {threads} changed incident export bytes"
        );
    }
}

#[test]
fn default_profile_detects_every_core_quartet_kind() {
    let cfg = ChaosConfig {
        supervisor: Some(SupervisorPolicy::default()),
        alerts: Some(AlertProfile::default_profile()),
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::core_quartet(SEED, cfg.horizon);
    let trial = run_chaos_trial(SEED, BackupMode::AdcConsistencyGroup, &plan, &cfg);
    let (report, export) = (trial.report, trial.incidents.expect("alert trial exports"));
    assert!(report.is_clean(), "{}", report.render());

    let summary = report
        .alerts
        .as_ref()
        .expect("alert trial carries a summary");
    assert!(
        summary.full_recall(),
        "default profile must detect every injected kind:\n{}",
        report.render()
    );
    for kind in &summary.kinds {
        assert!(
            export.contains(&format!("\"kind\":\"{}\"", kind.kind)),
            "no incident root-cause bundle names the injected {} fault:\n{export}",
            kind.kind
        );
    }
    // True positives carry the injected fault's span id in their bundle.
    assert!(
        export.contains("\"span\":"),
        "matched incidents must reference fault span ids:\n{export}"
    );
}

#[test]
fn incident_opens_before_the_auditor_convicts() {
    // The PR-3 stale-retry regression, watched live: the core plan's
    // journal squeeze makes the naive per-volume mode stall writes and
    // apply them in retry order, which the auditor convicts post-hoc as
    // write-order violations (see `tests/trace.rs`). The squeeze also
    // breaches the journal/RPO rules while it is still open — and the
    // auditor only convicts on its 5ms audit cadence, so the tight
    // profile's 500µs evaluation ticks must open an incident strictly
    // before the first violation edge.
    let cfg = ChaosConfig {
        alerts: Some(AlertProfile::tight()),
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::random(SEED, cfg.horizon);
    let trial = run_chaos_trial(SEED, BackupMode::AdcPerVolume, &plan, &cfg);
    let (report, export) = (trial.report, trial.incidents.expect("alert trial exports"));
    assert!(
        !report.is_clean(),
        "naive mode must violate under this plan"
    );

    let first_violation_ns = report
        .violations
        .iter()
        .map(|v| v.at.as_nanos())
        .min()
        .expect("unclean report carries violations");
    let first_incident_ns = export
        .lines()
        .map(|l| parse_field(l, "\"opened_ns\":"))
        .min()
        .expect("the squeeze must open at least one incident");
    assert!(
        first_incident_ns < first_violation_ns,
        "the live alert ({first_incident_ns}ns) must fire before the auditor's \
         first violation ({first_violation_ns}ns):\n{}",
        report.render()
    );
}

/// Extract the integer following `key` in a JSONL line.
fn parse_field(line: &str, key: &str) -> u64 {
    let at = line.find(key).expect("key present") + key.len();
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer field")
}
