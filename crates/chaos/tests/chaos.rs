//! Acceptance tests for the chaos engine (ISSUE 3):
//!
//! - a seeded random plan with ≥4 overlapping fault kinds runs clean under
//!   the consistency-group mode and *detects* violations under the naive
//!   per-volume mode (the paper's C2/C3 under fault);
//! - identical seeds reproduce byte-identical reports, at any harness
//!   thread count;
//! - a failing plan shrinks to a smaller plan that still fails.

use tsuru_chaos::{
    chaos_sweep, run_chaos_trial, shrink_plan, ChaosConfig, FaultEvent, FaultKind, FaultPlan,
};
use tsuru_core::{BackupMode, TrialHarness};
use tsuru_sim::{SimDuration, SimTime};

const ACCEPTANCE_SEED: u64 = 0xC0FFEE;

#[test]
fn cg_survives_where_naive_collapses() {
    let cfg = ChaosConfig::default();
    let plan = FaultPlan::random(ACCEPTANCE_SEED, cfg.horizon);
    assert!(
        plan.max_overlapping_kinds() >= 4,
        "plan must overlap ≥4 fault kinds:\n{}",
        plan.render()
    );

    let cg = run_chaos_trial(
        ACCEPTANCE_SEED,
        BackupMode::AdcConsistencyGroup,
        &plan,
        &cfg,
    )
    .report;
    assert!(
        cg.is_clean(),
        "consistency-group mode must hold every invariant:\n{}",
        cg.render()
    );

    let naive = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg).report;
    assert!(
        !naive.is_clean(),
        "naive per-volume mode must be caught violating under fault:\n{}",
        naive.render()
    );
    assert!(
        naive
            .violations
            .iter()
            .any(|v| v.invariant == "prefix-cut" || v.invariant == "snapshot-cross-db"),
        "naive detection should include a write-order violation:\n{}",
        naive.render()
    );
    // Both ran the same audit grid over the same plan.
    assert_eq!(cg.audits, naive.audits);
    assert!(cg.committed_orders > 0);
}

#[test]
fn identical_seed_reproduces_identical_report() {
    let cfg = ChaosConfig::default();
    let plan = FaultPlan::random(ACCEPTANCE_SEED, cfg.horizon);
    let a = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg).report;
    let b = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg).report;
    assert_eq!(
        a.render(),
        b.render(),
        "same seed+plan must replay byte-for-byte"
    );
    assert_eq!(a, b);
}

#[test]
fn sweep_reports_identical_at_any_thread_count() {
    let cfg = ChaosConfig::default();
    let render = |threads: usize| {
        let set = chaos_sweep(&TrialHarness::new(threads), 4242, 3, &cfg);
        set.rows
            .iter()
            .flat_map(|p| [p.cg.render(), p.naive.render()])
            .collect::<String>()
    };
    let baseline = render(1);
    assert!(!baseline.is_empty());
    for threads in [2, 4, 8] {
        assert_eq!(
            render(threads),
            baseline,
            "thread count {threads} changed the chaos report bytes"
        );
    }
}

#[test]
fn failing_plan_shrinks_and_still_fails() {
    let cfg = ChaosConfig::default();
    let plan = FaultPlan::random(ACCEPTANCE_SEED, cfg.horizon);
    let shrunk = shrink_plan(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg);
    assert!(
        shrunk.events.len() <= plan.events.len(),
        "shrinking must never grow the plan"
    );
    let rerun = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &shrunk, &cfg).report;
    assert!(
        !rerun.is_clean(),
        "shrunk plan must still fail:\n{}",
        shrunk.render()
    );
    // Shrinking is deterministic.
    let again = shrink_plan(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg);
    assert_eq!(shrunk, again);
}

/// A hand-built plan whose last heal lies past its own horizon used to trip
/// `run_until`'s "horizon is before current time" assertion at quiesce; the
/// trial now simply runs to that heal.
#[test]
fn a_plan_that_heals_after_its_horizon_runs_to_the_heal() {
    let cfg = ChaosConfig::default();
    let plan = FaultPlan {
        horizon: SimTime::from_millis(20),
        events: vec![FaultEvent {
            kind: FaultKind::LinkPartition,
            at: SimTime::from_millis(10),
            duration: SimDuration::from_millis(25),
        }],
    };
    let report = run_chaos_trial(7, BackupMode::AdcConsistencyGroup, &plan, &cfg).report;
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.committed_orders > 0);
}
