//! The chaos harness mode: seeded trials, CG-vs-naive pairing, failing
//! plan shrinking, and the rendering used by `repro chaos`.

use tsuru_core::{render_table, BackupMode, RigConfig, TrialHarness, TrialSet, TwoSiteRig};
use tsuru_ecom::driver::start_workload_clients;
use tsuru_ecom::{AppendState, BankState, WorkloadKind};
use tsuru_history::Site;
use tsuru_sim::{DetRng, SimDuration, SimTime};
use tsuru_storage::{AlertProfile, IncidentLog, SupervisorPolicy};

use crate::alert::match_incidents;
use crate::audit::{Auditor, ChaosReport, HistorySummary};
use crate::inject::Injector;
use crate::judge;
use crate::plan::{FaultKind, FaultPlan};

/// Shape of one chaos trial.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Injection/workload horizon the sweeps generate their plans over. A
    /// trial runs to its *plan's* horizon — or to the plan's last heal,
    /// should a hand-built plan heal later than it claims to end.
    pub horizon: SimTime,
    /// Enable the causal tracer on the trial rig. Off by default so the
    /// standard sweep stays byte-identical to untraced runs; traced
    /// violations carry their trailing trace window.
    pub trace: bool,
    /// Which closed-loop workload drives the trial.
    pub workload: WorkloadKind,
    /// Record a client-visible op history and judge it with the
    /// [`tsuru_history`] checker suite at quiesce. Off by default for
    /// the same byte-identity reason as `trace`.
    pub history: bool,
    /// Arm the replication supervisor on the trial rig with this recovery
    /// policy. Off by default so the standard sweep stays byte-identical
    /// to unsupervised runs. When armed, injector heals repair only the
    /// physical fault and the supervisor owns logical recovery; the
    /// auditor additionally demands convergence (every paired group back
    /// to PAIR, or parked by the circuit breaker) at quiesce.
    pub supervisor: Option<SupervisorPolicy>,
    /// Arm the SLO alert engine on the trial rig with this rule profile.
    /// Off by default for the same byte-identity reason as `trace` (and
    /// arming implies tracing, so incidents can carry the fault windows
    /// the ground-truth matcher scores them against). The engine stays
    /// armed through the convergence grace window, like the supervisor.
    pub alerts: Option<AlertProfile>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            horizon: SimTime::from_millis(150),
            trace: false,
            workload: WorkloadKind::Ecom,
            history: false,
            supervisor: None,
            alerts: None,
        }
    }
}

/// Extra sim-time past the horizon during which supervisor probes and
/// alert evaluation stay armed, bounding time-to-convergence after the
/// last heal.
const CONVERGE_GRACE: SimDuration = SimDuration::from_millis(100);

/// Client think time of every chaos trial: denser than the workload's
/// default so fault windows see real write pressure.
const THINK_TIME: SimDuration = SimDuration::from_millis(2);

/// Cadence of the mid-run audit samples and, on history trials, of the
/// judge's backup-image scans (what a client reading the followed backup
/// image would see). Scans share the audit grid so they land inside fault
/// windows, where the naive configuration's torn images are observable.
const AUDIT_GRID: SimDuration = SimDuration::from_millis(5);

/// The instants `AUDIT_GRID`, `2 × AUDIT_GRID`, … before `horizon`.
fn grid(horizon: SimTime) -> impl Iterator<Item = SimTime> {
    let mut t = SimTime::ZERO;
    std::iter::from_fn(move || {
        t = t.checked_add(AUDIT_GRID)?;
        (t < horizon).then_some(t)
    })
}

/// Exported trace artifacts for one traced chaos trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceExport {
    /// One JSON object per trace record.
    pub jsonl: String,
    /// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto).
    pub chrome: String,
}

/// One chaos trial's verdict and the exports its [`ChaosConfig`] asked for.
/// Exports are strings (the tracer and recorder are single-threaded
/// handles), so a trial is a harness row; all of it is byte-identical for
/// identical inputs at any harness thread count.
#[derive(Debug, Clone)]
pub struct ChaosTrial {
    /// The auditor's report.
    pub report: ChaosReport,
    /// The full trace exports, exactly when `cfg.trace` is set (violations
    /// then carry their trailing trace window).
    pub trace: Option<TraceExport>,
    /// The client-visible history as JSONL, exactly when `cfg.history` is
    /// set (the judge's anomalies appear as `client-history` violations).
    pub history: Option<String>,
    /// The alert engine's incident log as JSONL, exactly when `cfg.alerts`
    /// is set (the report then carries the ground-truth-scored
    /// [`AlertSummary`](crate::AlertSummary)).
    pub incidents: Option<String>,
}

/// Run one seeded chaos trial: replay `plan` against a fresh rig in
/// `mode`, auditing at every fault start, every heal, and on the sample
/// grid — and the backup image after every step it takes — then quiesce
/// (stop the workload, run to empty) and apply the final invariant set.
pub fn run_chaos_trial(
    seed: u64,
    mode: BackupMode,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
) -> ChaosTrial {
    let (report, tracer, history, incidents) = run_trial_inner(seed, mode, plan, cfg, None);
    ChaosTrial {
        report,
        trace: cfg.trace.then(|| TraceExport {
            jsonl: tracer.export_jsonl(),
            chrome: tracer.export_chrome(),
        }),
        history: cfg.history.then(|| history.export_jsonl()),
        incidents: incidents.map(|log| log.export_jsonl()),
    }
}

/// [`run_chaos_trial`] with history recording forced on, returning the
/// report and the history export only (no trace export, even on a traced
/// trial). Nothing in the workspace calls it: it survives solely for the
/// performance ledger's chaos workload, which still does; it goes when
/// that workload moves to [`run_chaos_trial`].
pub fn run_chaos_trial_history(
    seed: u64,
    mode: BackupMode,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
) -> (ChaosReport, String) {
    let mut cfg = cfg.clone();
    cfg.history = true;
    let (report, _, history, _) = run_trial_inner(seed, mode, plan, &cfg, None);
    let jsonl = history.export_jsonl();
    (report, jsonl)
}

/// What an every-point oracle is shown by [`run_chaos_trial_stepped`].
pub type EachStep<'a> = dyn FnMut(&mut TwoSiteRig, &mut Auditor) + 'a;

/// [`run_chaos_trial`]'s report, one kernel event at a time: `each_step`
/// sees the rig and the auditor after every event the kernel dispatches
/// and after every timeline action (fault start, heal, scan). Same
/// timeline, same report — for oracles that must look at *every* point
/// rather than the audit grid (`tests/follower.rs` compares the followed
/// backup image with a from-scratch recovery at each of them).
pub fn run_chaos_trial_stepped(
    seed: u64,
    mode: BackupMode,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    each_step: &mut EachStep<'_>,
) -> ChaosReport {
    run_trial_inner(seed, mode, plan, cfg, Some(each_step)).0
}

/// Run the kernel to `until` (to exhaustion for `None`): in one go, or
/// event by event under an observer.
fn advance(
    rig: &mut TwoSiteRig,
    auditor: &mut Auditor,
    until: Option<SimTime>,
    each_step: &mut Option<&mut EachStep<'_>>,
) {
    if let Some(each_step) = each_step {
        while rig
            .sim
            .next_event_time()
            .is_some_and(|next| until.map_or(true, |t| next <= t))
        {
            rig.sim.step(&mut rig.world);
            each_step(rig, auditor);
        }
    }
    match until {
        Some(t) => rig.sim.run_until(&mut rig.world, t),
        None => rig.sim.run(&mut rig.world),
    }
}

fn run_trial_inner(
    seed: u64,
    mode: BackupMode,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    mut each_step: Option<&mut EachStep<'_>>,
) -> (
    ChaosReport,
    tsuru_storage::Tracer,
    tsuru_history::Recorder,
    Option<IncidentLog>,
) {
    let mut rig_cfg = RigConfig {
        seed,
        mode,
        ..RigConfig::default()
    };
    rig_cfg.workload.think_time_mean = THINK_TIME;
    // Alert trials imply tracing: incidents carry the open fault windows
    // the ground-truth matcher scores them against.
    rig_cfg.trace = cfg.trace || cfg.alerts.is_some();
    rig_cfg.history = cfg.history;
    let mut rig = TwoSiteRig::new(rig_cfg);
    match cfg.workload {
        WorkloadKind::Ecom => {}
        WorkloadKind::Bank => {
            rig.world.app_mut().bank = Some(BankState::new(DetRng::new(seed).derive(0xBA27)));
        }
        WorkloadKind::AppendList => {
            rig.world.app_mut().append = Some(AppendState::new(DetRng::new(seed).derive(0xA99E)));
        }
    }
    if let Some(policy) = &cfg.supervisor {
        rig.enable_supervisor(policy.clone(), plan.horizon + CONVERGE_GRACE);
    }
    if let Some(profile) = &cfg.alerts {
        rig.enable_alerts(profile.clone(), plan.horizon + CONVERGE_GRACE);
    }
    let tracer = rig.world.st.tracer.clone();
    let history = rig.world.st.history.clone();
    let mut auditor = Auditor::new(&mut rig);
    if cfg.supervisor.is_some() {
        auditor.expect_convergence();
    }
    let mut injector = Injector::new(&rig, cfg.supervisor.is_some());

    // Timeline: fault starts, heals, audit samples and judge scans,
    // totally ordered by (time, start-before-heal-before-sample-before-
    // scan, event index) so replays are exact. Actions apply
    // synchronously after the kernel has run every event up to (and
    // including) their instant.
    const START: u8 = 0;
    const HEAL: u8 = 1;
    const SAMPLE: u8 = 2;
    const SCAN: u8 = 3;
    let mut steps: Vec<(SimTime, u8, usize)> = Vec::new();
    for (i, ev) in plan.events.iter().enumerate() {
        steps.push((ev.at, START, i));
        if ev.kind != FaultKind::SnapshotDuringFault {
            steps.push((ev.heal_at(), HEAL, i));
        }
    }
    for t in grid(plan.horizon) {
        steps.push((t, SAMPLE, 0));
        if cfg.history {
            steps.push((t, SCAN, 0));
        }
    }
    steps.sort_unstable();

    start_workload_clients(&mut rig.world, &mut rig.sim);
    for (at, action, idx) in steps {
        advance(&mut rig, &mut auditor, Some(at), &mut each_step);
        match action {
            START => injector.start(&mut rig, &mut auditor, &plan.events[idx]),
            HEAL => injector.heal(&mut rig, &mut auditor, &plan.events[idx]),
            SCAN => {
                auditor.follow(&mut rig);
                judge::scan_backup(
                    &rig,
                    auditor.image().view(),
                    cfg.workload,
                    tsuru_history::process::BACKUP_READER,
                    Site::Backup,
                );
            }
            _ => {}
        }
        // Every step drains the backup array's change feed: a scan into
        // the image it reads, every other step inside its audit.
        if action != SCAN {
            auditor.audit_point(&mut rig);
        }
        if let Some(each_step) = &mut each_step {
            each_step(&mut rig, &mut auditor);
        }
    }

    // Quiesce: run out the horizon (a plan that heals past its own horizon
    // has already run past it), stop the workload, drain everything.
    let end = plan.horizon.max(rig.sim.now());
    advance(&mut rig, &mut auditor, Some(end), &mut each_step);
    rig.world.app_mut().stopped = true;
    advance(&mut rig, &mut auditor, None, &mut each_step);
    // The one from-scratch open of the trial: the drained image, for
    // check 5 and for the judge's final read.
    let drained = rig.recover_from_backup();

    // Judge the client-visible history: final primary and drained-backup
    // observations, then every applicable checker. Anomalies become
    // violations carrying the offending op subsequence (and, on traced
    // trials, the trailing trace window).
    if cfg.history {
        let verdict = judge::judge(&rig, (&drained.sales, &drained.stock), cfg.workload);
        let now = rig.sim.now();
        let mut anomalies = 0u64;
        for report in &verdict.reports {
            for a in &report.anomalies {
                anomalies += 1;
                auditor.violate(
                    now,
                    "client-history",
                    format!("{}: {}", report.checker, a.render()),
                );
            }
        }
        auditor.set_history(HistorySummary {
            records: verdict.records,
            ops_checked: verdict.ops_checked(),
            anomalies,
        });
    }

    // Harvest the alert engine: score its incident log against the plan
    // (the injected faults are the ground truth) and fold the verdict
    // into the report.
    let incident_log = rig.world.st.take_alerts().map(|engine| {
        let profile = engine.profile().name;
        let evals = engine.evals();
        let log = engine.into_log();
        auditor.set_alerts(match_incidents(plan, &log, profile, evals));
        log
    });

    let kinds = plan.kinds().iter().map(|s| s.to_string()).collect();
    (
        auditor.finish(&mut rig, &drained, seed, kinds, plan.events.len()),
        tracer,
        history,
        incident_log,
    )
}

/// One trial's paired verdict: the same plan against the paper's design
/// (consistency group) and the naive per-volume ablation.
#[derive(Debug, Clone)]
pub struct ChaosPair {
    /// Consistency-group report (expected clean).
    pub cg: ChaosReport,
    /// Per-volume report (expected to violate under fault).
    pub naive: ChaosReport,
}

/// The chaos sweep: `trials` seeded random plans, each replayed against
/// both modes. Rows are byte-stable across harness thread counts.
pub fn chaos_sweep(
    harness: &TrialHarness,
    base_seed: u64,
    trials: usize,
    cfg: &ChaosConfig,
) -> TrialSet<ChaosPair> {
    harness.run(base_seed, trials, |ctx| {
        let plan = FaultPlan::random(ctx.seed, cfg.horizon);
        ChaosPair {
            cg: run_chaos_trial(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, cfg).report,
            naive: run_chaos_trial(ctx.seed, BackupMode::AdcPerVolume, &plan, cfg).report,
        }
    })
}

/// One workload's paired verdict within a history-sweep trial.
#[derive(Debug, Clone)]
pub struct HistoryRow {
    /// Which workload drove the trial.
    pub workload: WorkloadKind,
    /// Consistency-group report (expected clean).
    pub cg: ChaosReport,
    /// Per-volume report (expected to show client-visible anomalies
    /// under fault).
    pub naive: ChaosReport,
    /// Full consistency-group history as JSONL (byte-identical at any
    /// harness thread count).
    pub cg_export: String,
    /// Full per-volume history as JSONL.
    pub naive_export: String,
}

/// One history-sweep trial: every workload replayed against the same
/// fault plan in both modes, each judged by the client-visible checker.
#[derive(Debug, Clone)]
pub struct HistoryTrial {
    /// One row per workload, in [`WorkloadKind::ALL`] order.
    pub rows: Vec<HistoryRow>,
}

/// The workload-diversity sweep behind `repro history`: `trials` seeded
/// fault plans, each replayed under every workload in both modes with
/// history recording and judging on. Rows are byte-stable across
/// harness thread counts.
pub fn history_sweep(
    harness: &TrialHarness,
    base_seed: u64,
    trials: usize,
    cfg: &ChaosConfig,
) -> TrialSet<HistoryTrial> {
    harness.run(base_seed, trials, |ctx| {
        let plan = FaultPlan::random(ctx.seed, cfg.horizon);
        let rows = WorkloadKind::ALL
            .iter()
            .map(|&workload| {
                let c = ChaosConfig {
                    workload,
                    history: true,
                    ..cfg.clone()
                };
                let cg = run_chaos_trial(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, &c);
                let naive = run_chaos_trial(ctx.seed, BackupMode::AdcPerVolume, &plan, &c);
                HistoryRow {
                    workload,
                    cg: cg.report,
                    naive: naive.report,
                    cg_export: cg.history.expect("history trial carries an export"),
                    naive_export: naive.history.expect("history trial carries an export"),
                }
            })
            .collect();
        HistoryTrial { rows }
    })
}

/// Render the history sweep (one row per trial × workload) for
/// `repro history`.
pub fn render_history_table(trials: &[HistoryTrial]) -> String {
    let verdict = |r: &ChaosReport| {
        let h = r.history.expect("history trial carries a summary");
        if h.anomalies == 0 {
            "clean".to_string()
        } else {
            format!("{}-anomalies", h.anomalies)
        }
    };
    render_table(
        &[
            "trial",
            "seed",
            "workload",
            "ops_checked",
            "cg_verdict",
            "naive_verdict",
            "cg_violations",
            "naive_violations",
        ],
        &trials
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.rows.iter().map(move |row| {
                    vec![
                        i.to_string(),
                        format!("{:#x}", row.cg.seed),
                        row.workload.label().to_string(),
                        row.cg
                            .history
                            .expect("history trial carries a summary")
                            .ops_checked
                            .to_string(),
                        verdict(&row.cg),
                        verdict(&row.naive),
                        row.cg.violations.len().to_string(),
                        row.naive.violations.len().to_string(),
                    ]
                })
            })
            .collect::<Vec<_>>(),
    )
}

/// Greedy event-removal shrinking: repeatedly drop any event whose
/// removal keeps the plan failing (auditor reports ≥1 violation) until no
/// single removal preserves the failure. Deterministic: same seed + plan
/// ⇒ same shrunk plan. Returns the input unchanged if it never failed.
pub fn shrink_plan(seed: u64, mode: BackupMode, plan: &FaultPlan, cfg: &ChaosConfig) -> FaultPlan {
    let fails = |p: &FaultPlan| !run_chaos_trial(seed, mode, p, cfg).report.is_clean();
    let mut cur = plan.clone();
    if !fails(&cur) {
        return cur;
    }
    loop {
        let mut shrunk = false;
        for i in 0..cur.events.len() {
            let mut cand = cur.clone();
            cand.events.remove(i);
            if fails(&cand) {
                cur = cand;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

/// Render the sweep table (one row per trial) for `repro chaos`.
pub fn render_chaos_table(rows: &[ChaosPair]) -> String {
    render_table(
        &[
            "trial",
            "seed",
            "events",
            "kinds",
            "audits",
            "cg_violations",
            "naive_violations",
            "cg_orders",
        ],
        &rows
            .iter()
            .enumerate()
            .map(|(i, p)| {
                vec![
                    i.to_string(),
                    format!("{:#x}", p.cg.seed),
                    p.cg.events.to_string(),
                    p.cg.kinds.len().to_string(),
                    p.cg.audits.to_string(),
                    p.cg.violations.len().to_string(),
                    p.naive.violations.len().to_string(),
                    p.cg.committed_orders.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}
