//! The crash sweep: random fault plans *with the main-array crash left in*,
//! every workload, consistency-group mode, history on — and nothing
//! filtered: every report must be clean.
//!
//! The main-array crash is the one fault kind that makes the application
//! restart from its own volumes mid-run (`Injector::restart_app`), so it is
//! the kind that convicts a database that acknowledges commits — or answers
//! reads — its volumes do not hold yet (DESIGN.md §20). `repro history`'s
//! three fixed plans contain none, and the ledger's `chaos_history`
//! workload filters the kind out, so this sweep is where it is gated.
//! About 40 % of random plans draw the crash.
//!
//! The default run sweeps 40 plans (the debug profile needs ~0.36 s per
//! plan; the parent commit's first dirty trial is plan 18); CI runs the full
//! 5 × 240 in release with `cargo test --release -- --ignored`, where the
//! parent left 4 / 4 / 2 / 3 / 3 trials dirty, every one an append-list
//! `client-history` anomaly.

use tsuru_chaos::{run_chaos_trial_history, ChaosConfig, FaultKind, FaultPlan};
use tsuru_core::BackupMode;
use tsuru_ecom::WorkloadKind;
use tsuru_sim::DetRng;

/// Sweep `plans` random plans drawn from `base_seed` over the three
/// workloads; returns how many plans held the crash and the rendered
/// report of every dirty trial.
fn sweep(base_seed: u64, plans: u64) -> (u64, Vec<String>) {
    let mut with_crash = 0;
    let mut dirty = Vec::new();
    for trial in 0..plans {
        let seed = DetRng::trial_seed(base_seed, trial);
        let horizon = ChaosConfig::default().horizon;
        let plan = FaultPlan::random(seed, horizon);
        with_crash += plan
            .events
            .iter()
            .any(|e| e.kind == FaultKind::MainArrayCrash) as u64;
        for workload in WorkloadKind::ALL {
            let cfg = ChaosConfig {
                workload,
                ..ChaosConfig::default()
            };
            let (report, _) =
                run_chaos_trial_history(seed, BackupMode::AdcConsistencyGroup, &plan, &cfg);
            if !report.is_clean() {
                dirty.push(format!(
                    "base seed {base_seed}, trial {trial}, {}:\n{}",
                    workload.label(),
                    report.render()
                ));
            }
        }
    }
    (with_crash, dirty)
}

fn assert_clean(base_seed: u64, plans: u64) {
    let (with_crash, dirty) = sweep(base_seed, plans);
    println!(
        "base seed {base_seed}: {plans} plans x 3 workloads, {with_crash} with a main-array crash, {} dirty",
        dirty.len()
    );
    assert!(
        with_crash * 4 >= plans,
        "the sweep must exercise the main-array crash: {with_crash} of {plans} plans"
    );
    assert!(
        dirty.is_empty(),
        "{} dirty adc-cg trial(s):\n{}",
        dirty.len(),
        dirty.join("\n")
    );
}

#[test]
fn cg_is_clean_on_forty_random_plans_with_the_main_array_crash_left_in() {
    assert_clean(1, 40);
}

#[test]
#[ignore = "a minute unoptimized; CI runs it in release"]
fn cg_is_clean_on_240_random_plans_for_each_of_five_base_seeds() {
    for base_seed in [1, 7, 42, 99, 1234] {
        assert_clean(base_seed, 240);
    }
}
