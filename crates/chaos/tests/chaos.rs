//! Acceptance tests for the chaos engine (ISSUE 3):
//!
//! - a seeded random plan with ≥4 overlapping fault kinds runs clean under
//!   the consistency-group mode and *detects* violations under the naive
//!   per-volume mode (the paper's C2/C3 under fault);
//! - identical seeds reproduce byte-identical reports, at any harness
//!   thread count;
//! - a failing plan shrinks to a smaller plan that still fails.

use tsuru_chaos::{
    chaos_sweep, run_chaos_trial, run_chaos_trial_history, shrink_plan, ChaosConfig, FaultEvent,
    FaultKind, FaultPlan,
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

    let cg = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcConsistencyGroup, &plan, &cfg);
    assert!(
        cg.is_clean(),
        "consistency-group mode must hold every invariant:\n{}",
        cg.render()
    );

    let naive = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg);
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
    let a = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg);
    let b = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg);
    assert_eq!(a.render(), b.render(), "same seed+plan must replay byte-for-byte");
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
    let rerun = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &shrunk, &cfg);
    assert!(
        !rerun.is_clean(),
        "shrunk plan must still fail:\n{}",
        shrunk.render()
    );
    // Shrinking is deterministic.
    let again = shrink_plan(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg);
    assert_eq!(shrunk, again);
}

/// Hostile cadences: a zero interval used to build its grid with
/// `t = t + every` and never got anywhere — it allocated until the process
/// died. Zero now means "no grid": the trial audits at fault edges only,
/// scans nothing mid-run, and still ends with the full quiesce verdict.
#[test]
fn a_zero_cadence_means_no_grid_not_a_hang() {
    let base = ChaosConfig::default();
    let plan = FaultPlan::random(ACCEPTANCE_SEED, base.horizon);
    let gridless = ChaosConfig {
        sample_every: SimDuration::ZERO,
        scan_every: SimDuration::ZERO,
        ..base.clone()
    };
    let mode = BackupMode::AdcConsistencyGroup;
    let (report, _) = run_chaos_trial_history(ACCEPTANCE_SEED, mode, &plan, &gridless);
    assert!(report.is_clean(), "{}", report.render());
    // One audit per fault start and heal (a snapshot has no heal), one at
    // quiesce; the default grid adds its 29 samples on top.
    let heals = plan
        .events
        .iter()
        .filter(|e| e.kind != FaultKind::SnapshotDuringFault)
        .count();
    assert_eq!(report.audits, (plan.events.len() + heals + 1) as u64);
    let (gridded, _) = run_chaos_trial_history(ACCEPTANCE_SEED, mode, &plan, &base);
    assert_eq!(gridded.audits, report.audits + 29);
    // No mid-run scans: only the two final reads were recorded as images.
    let h = report.history.expect("history trial");
    assert!(h.records < gridded.history.expect("history trial").records);
    // A cadence too large to add to the clock is no grid either.
    let huge = ChaosConfig {
        sample_every: SimDuration::from_nanos(u64::MAX),
        ..base
    };
    assert_eq!(run_chaos_trial(ACCEPTANCE_SEED, mode, &plan, &huge).audits, report.audits);
    // And clients that think "forever" are scheduled at the end of time, not
    // in the past: each places the order it starts with, the trial ends
    // clean (this overflowed `now + think` — a panic in debug builds, a
    // wrap in release).
    let idle = ChaosConfig {
        think_time: SimDuration::from_nanos(u64::MAX),
        ..huge
    };
    let thinking = run_chaos_trial(ACCEPTANCE_SEED, mode, &plan, &idle);
    assert!(thinking.is_clean(), "{}", thinking.render());
    assert!(thinking.committed_orders > 0 && thinking.committed_orders < report.committed_orders);
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
    let report = run_chaos_trial(7, BackupMode::AdcConsistencyGroup, &plan, &cfg);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.committed_orders > 0);
}
