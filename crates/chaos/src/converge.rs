//! E10 — chaos-verified convergence: fault plans × recovery policies.
//!
//! Every trial replays one seeded core-quartet plan (link partition,
//! jitter spike, backup-array crash, journal squeeze — fixed kind set so
//! only the recovery strategy varies) against the consistency-group rig
//! with the replication supervisor armed under each recovery policy. The
//! auditor demands convergence: after the last heal plus the grace
//! window, every paired group must be back to PAIR or explicitly parked
//! by the circuit breaker, with zero violations otherwise.
//!
//! Rows are byte-stable across harness thread counts, like every other
//! sweep in this crate.

use tsuru_core::{render_table, BackupMode, TrialHarness, TrialSet};
use tsuru_sim::SimDuration;
use tsuru_storage::SupervisorPolicy;

use crate::audit::ChaosReport;
use crate::plan::FaultPlan;
use crate::run::{run_chaos_trial, ChaosConfig};

/// The recovery-policy axis of the E10 sweep.
///
/// - `default` — the shipped [`SupervisorPolicy`] defaults;
/// - `eager` — short backoffs, tiny degradation threshold: converges fast
///   but degrades to full copies early and burns attempts;
/// - `patient` — long backoffs, huge degradation threshold: almost always
///   delta-resyncs, at the cost of time-to-heal;
/// - `fragile` — a single attempt before the circuit breaker parks, to
///   exercise the parked-with-alarm escape hatch.
pub fn recovery_policies() -> Vec<(&'static str, SupervisorPolicy)> {
    let default = SupervisorPolicy::default();
    let eager = SupervisorPolicy {
        backoff_base: SimDuration::from_micros(500),
        backoff_max: SimDuration::from_millis(2),
        stage_timeout: SimDuration::from_millis(3),
        full_resync_debt_bytes: 64 * 1024,
        max_attempts: 6,
        ..SupervisorPolicy::default()
    };
    let patient = SupervisorPolicy {
        backoff_base: SimDuration::from_millis(2),
        backoff_max: SimDuration::from_millis(16),
        full_resync_debt_bytes: 16 << 20,
        max_attempts: 6,
        ..SupervisorPolicy::default()
    };
    let fragile = SupervisorPolicy {
        max_attempts: 1,
        ..SupervisorPolicy::default()
    };
    vec![
        ("default", default),
        ("eager", eager),
        ("patient", patient),
        ("fragile", fragile),
    ]
}

/// One (plan, policy) verdict within a convergence trial.
#[derive(Debug, Clone)]
pub struct ConvergeRow {
    /// Which recovery policy supervised the trial.
    pub policy: &'static str,
    /// The supervised consistency-group report (carries the
    /// [`SupervisorSummary`](crate::SupervisorSummary)).
    pub report: ChaosReport,
}

/// One convergence trial: the same seeded core-quartet plan replayed
/// under every recovery policy.
#[derive(Debug, Clone)]
pub struct ConvergeTrial {
    /// The replayed plan (for rendering/repro).
    pub plan: FaultPlan,
    /// One row per policy, in [`recovery_policies`] order.
    pub rows: Vec<ConvergeRow>,
}

/// The E10 sweep: `trials` seeded core-quartet plans, each replayed under
/// every recovery policy with the supervisor armed. Rows are byte-stable
/// across harness thread counts.
pub fn convergence_sweep(
    harness: &TrialHarness,
    base_seed: u64,
    trials: usize,
    cfg: &ChaosConfig,
) -> TrialSet<ConvergeTrial> {
    harness.run(base_seed, trials, |ctx| {
        let plan = FaultPlan::core_quartet(ctx.seed, cfg.horizon);
        let rows = recovery_policies()
            .into_iter()
            .map(|(policy, sp)| {
                let c = ChaosConfig {
                    supervisor: Some(sp),
                    ..cfg.clone()
                };
                ConvergeRow {
                    policy,
                    report: run_chaos_trial(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, &c)
                        .report,
                }
            })
            .collect();
        ConvergeTrial { plan, rows }
    })
}

/// Render the convergence sweep (one row per trial × policy) for
/// `repro e10`.
pub fn render_convergence_table(trials: &[ConvergeTrial]) -> String {
    render_table(
        &[
            "trial",
            "seed",
            "policy",
            "pair",
            "parked",
            "attempts",
            "delta",
            "full",
            "kicks",
            "heals",
            "tth_max_us",
            "violations",
        ],
        &trials
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.rows.iter().map(move |row| {
                    let s = row
                        .report
                        .supervisor
                        .expect("supervised trial carries a summary");
                    vec![
                        i.to_string(),
                        format!("{:#x}", row.report.seed),
                        row.policy.to_string(),
                        format!("{}/{}", s.groups_pair, s.groups_total),
                        s.groups_parked.to_string(),
                        s.attempts.to_string(),
                        s.delta_resyncs.to_string(),
                        s.full_resyncs.to_string(),
                        s.pump_kicks.to_string(),
                        s.heals.to_string(),
                        s.tth_max_us.to_string(),
                        row.report.violations.len().to_string(),
                    ]
                })
            })
            .collect::<Vec<_>>(),
    )
}
