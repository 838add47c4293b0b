//! Acceptance tests for client-visible history checking (ISSUE 6):
//!
//! - every workload under the acceptance fault plan produces a clean
//!   client-visible history in consistency-group mode — zero anomalies
//!   from the serializability, bank, append and shop checkers;
//! - the naive per-volume mode is caught with *client-visible*
//!   anomalies (not just internal storage invariants) on the same plan;
//! - history-sweep renders and JSONL exports are byte-identical at
//!   harness thread counts 1/2/4/8 (the `tests/determinism.rs` idiom).

use tsuru_chaos::{history_sweep, render_history_table, run_chaos_trial, ChaosConfig, FaultPlan};
use tsuru_core::{BackupMode, TrialHarness};
use tsuru_ecom::WorkloadKind;

const ACCEPTANCE_SEED: u64 = 0xC0FFEE;

fn cfg_for(kind: WorkloadKind) -> ChaosConfig {
    ChaosConfig {
        workload: kind,
        history: true,
        ..ChaosConfig::default()
    }
}

#[test]
fn cg_histories_are_clean_for_every_workload() {
    for kind in WorkloadKind::ALL {
        let cfg = cfg_for(kind);
        let plan = FaultPlan::random(ACCEPTANCE_SEED, cfg.horizon);
        let trial = run_chaos_trial(
            ACCEPTANCE_SEED,
            BackupMode::AdcConsistencyGroup,
            &plan,
            &cfg,
        );
        let (report, jsonl) = (trial.report, trial.history.expect("history trial exports"));
        let h = report.history.expect("history trial carries a summary");
        assert!(
            h.records > 0 && h.ops_checked > 0,
            "{}: judge must have ops to check (records={} ops={})",
            kind.label(),
            h.records,
            h.ops_checked
        );
        assert_eq!(
            h.anomalies,
            0,
            "{}: consistency-group history must be clean:\n{}",
            kind.label(),
            report.render()
        );
        assert!(
            report.is_clean(),
            "{}: cg trial must hold every invariant:\n{}",
            kind.label(),
            report.render()
        );
        assert!(
            !jsonl.is_empty(),
            "{}: export must be non-empty",
            kind.label()
        );
    }
}

#[test]
fn naive_mode_shows_client_visible_anomalies() {
    let mut caught = 0;
    for kind in WorkloadKind::ALL {
        let cfg = cfg_for(kind);
        let plan = FaultPlan::random(ACCEPTANCE_SEED, cfg.horizon);
        let report = run_chaos_trial(ACCEPTANCE_SEED, BackupMode::AdcPerVolume, &plan, &cfg).report;
        if report
            .violations
            .iter()
            .any(|v| v.invariant == "client-history")
        {
            caught += 1;
        }
    }
    assert!(
        caught > 0,
        "at least one workload must surface the naive collapse as a \
         client-visible anomaly, not just an internal invariant"
    );
}

#[test]
fn history_sweep_is_thread_count_invariant() {
    let cfg = ChaosConfig::default();
    let serial = history_sweep(&TrialHarness::new(1), 0xB15, 2, &cfg);
    let reference = render_history_table(&serial.rows);
    for threads in [2, 4, 8] {
        let par = history_sweep(&TrialHarness::new(threads), 0xB15, 2, &cfg);
        assert_eq!(
            reference,
            render_history_table(&par.rows),
            "history table must be byte-identical at {threads} threads"
        );
        for (s, p) in serial.rows.iter().zip(&par.rows) {
            for (sr, pr) in s.rows.iter().zip(&p.rows) {
                assert_eq!(
                    sr.cg_export,
                    pr.cg_export,
                    "cg JSONL for {} must be byte-identical at {threads} threads",
                    sr.workload.label()
                );
                assert_eq!(sr.naive_export, pr.naive_export);
                assert_eq!(sr.cg.render(), pr.cg.render());
                assert_eq!(sr.naive.render(), pr.naive.render());
            }
        }
    }
}

#[test]
fn history_export_is_deterministic() {
    let cfg = cfg_for(WorkloadKind::AppendList);
    let plan = FaultPlan::random(ACCEPTANCE_SEED, cfg.horizon);
    let run = || {
        run_chaos_trial(
            ACCEPTANCE_SEED,
            BackupMode::AdcConsistencyGroup,
            &plan,
            &cfg,
        )
    };
    let (a, b) = (run(), run());
    assert!(a.history.is_some());
    assert_eq!(
        a.history, b.history,
        "same seed+plan must export byte-identical JSONL"
    );
    assert_eq!(a.report.render(), b.report.render());
}
