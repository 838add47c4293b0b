//! E11 — SLO alerting scored against injected ground truth: fault plans
//! × rule profiles.
//!
//! Every trial replays one seeded core-quartet plan (link partition,
//! jitter spike, backup-array crash, journal squeeze — the same fixed
//! kind set E10 uses, so only the rule profile varies) against the
//! consistency-group rig with the replication supervisor armed under the
//! default policy and the SLO alert engine armed under each rule
//! profile. The injected plan is the ground truth: the matcher scores
//! every incident for true/false positives and every fault kind for
//! detection and latency (see [`match_incidents`](crate::alert::match_incidents)).
//!
//! Rows — and each trial's incident-log JSONL export — are byte-stable
//! across harness thread counts, like every other sweep in this crate.

use tsuru_core::{render_table, BackupMode, TrialHarness, TrialSet};
use tsuru_storage::{AlertProfile, SupervisorPolicy};

use crate::audit::ChaosReport;
use crate::plan::FaultPlan;
use crate::run::{run_chaos_trial, ChaosConfig};

/// One (plan, rule profile) verdict within an alert trial.
#[derive(Debug, Clone)]
pub struct AlertRow {
    /// Which rule profile the engine ran (tight / default / lenient).
    pub profile: &'static str,
    /// The alert-armed consistency-group report (carries the
    /// [`AlertSummary`](crate::AlertSummary)).
    pub report: ChaosReport,
    /// The trial's incident log as JSONL.
    pub export: String,
}

/// One alert trial: the same seeded core-quartet plan replayed under
/// every rule profile.
#[derive(Debug, Clone)]
pub struct AlertTrial {
    /// The replayed plan (for rendering/repro).
    pub plan: FaultPlan,
    /// One row per profile, in [`AlertProfile::all`] order.
    pub rows: Vec<AlertRow>,
}

/// The E11 sweep: `trials` seeded core-quartet plans, each replayed with
/// the supervisor armed (default policy) and the alert engine armed
/// under every rule profile. Rows are byte-stable across harness thread
/// counts.
pub fn alert_sweep(
    harness: &TrialHarness,
    base_seed: u64,
    trials: usize,
    cfg: &ChaosConfig,
) -> TrialSet<AlertTrial> {
    harness.run(base_seed, trials, |ctx| {
        let plan = FaultPlan::core_quartet(ctx.seed, cfg.horizon);
        let rows = AlertProfile::all()
            .into_iter()
            .map(|profile| {
                let name = profile.name;
                let c = ChaosConfig {
                    supervisor: Some(SupervisorPolicy::default()),
                    alerts: Some(profile),
                    ..cfg.clone()
                };
                let trial = run_chaos_trial(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, &c);
                AlertRow {
                    profile: name,
                    report: trial.report,
                    export: trial
                        .incidents
                        .expect("alert trial carries an incident log"),
                }
            })
            .collect();
        AlertTrial { plan, rows }
    })
}

/// Render the alert sweep (one row per trial × profile) for `repro e11`.
pub fn render_alert_table(trials: &[AlertTrial]) -> String {
    render_table(
        &[
            "trial",
            "seed",
            "profile",
            "evals",
            "incidents",
            "tp",
            "fp",
            "recall",
            "lat_max_us",
            "violations",
        ],
        &trials
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.rows.iter().map(move |row| {
                    let a = row
                        .report
                        .alerts
                        .as_ref()
                        .expect("alert trial carries a summary");
                    vec![
                        i.to_string(),
                        format!("{:#x}", row.report.seed),
                        row.profile.to_string(),
                        a.evals.to_string(),
                        a.incidents.to_string(),
                        a.true_positives.to_string(),
                        a.false_positives.to_string(),
                        format!("{}/{}", a.kinds_detected(), a.kinds.len()),
                        a.latency_max_us().to_string(),
                        row.report.violations.len().to_string(),
                    ]
                })
            })
            .collect::<Vec<_>>(),
    )
}
