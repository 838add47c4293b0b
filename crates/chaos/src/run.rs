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
    /// Mid-run audit sample interval; zero means no sample grid (audits
    /// at fault starts and heals only).
    pub sample_every: SimDuration,
    /// Client think time (denser than the default so fault windows see
    /// real write pressure).
    pub think_time: SimDuration,
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
    /// Mid-run backup-image scan interval (history trials only): how
    /// often the judge reads the followed backup image and records what
    /// a client reading it would see. Defaults to the audit sample
    /// cadence so scans land inside fault windows, where the naive
    /// configuration's torn images are actually observable. Zero means
    /// no mid-run scans.
    pub scan_every: SimDuration,
    /// Arm the replication supervisor on the trial rig. Off by default
    /// so the standard sweep stays byte-identical to unsupervised runs.
    /// When on, injector heals repair only the physical fault and the
    /// supervisor owns logical recovery; the auditor additionally
    /// demands convergence (every paired group back to PAIR, or parked
    /// by the circuit breaker) at quiesce.
    pub supervisor: bool,
    /// Recovery policy for the armed supervisor (ignored unless
    /// `supervisor` is set).
    pub supervisor_policy: SupervisorPolicy,
    /// Extra sim-time past the horizon during which supervisor probes
    /// stay armed, bounding time-to-convergence after the last heal.
    pub converge_grace: SimDuration,
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
            sample_every: SimDuration::from_millis(5),
            think_time: SimDuration::from_millis(2),
            trace: false,
            workload: WorkloadKind::Ecom,
            history: false,
            scan_every: SimDuration::from_millis(5),
            supervisor: false,
            supervisor_policy: SupervisorPolicy::default(),
            converge_grace: SimDuration::from_millis(100),
            alerts: None,
        }
    }
}

/// The instants `every`, `2 × every`, … before `horizon`; none at all for
/// a zero cadence, which would never get there.
fn grid(every: SimDuration, horizon: SimTime) -> impl Iterator<Item = SimTime> {
    let mut t = SimTime::ZERO;
    std::iter::from_fn(move || {
        if every.is_zero() {
            return None;
        }
        t = t.checked_add(every)?;
        (t < horizon).then_some(t)
    })
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
) -> ChaosReport {
    run_trial_inner(seed, mode, plan, cfg, None).0
}

/// Exported trace artifacts for one traced chaos trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceExport {
    /// One JSON object per trace record.
    pub jsonl: String,
    /// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto).
    pub chrome: String,
}

/// [`run_chaos_trial`] with the tracer forced on: returns the report
/// (violations carry trace windows) plus the full trace exports. Output
/// is byte-identical for identical inputs at any harness thread count.
pub fn run_chaos_trial_traced(
    seed: u64,
    mode: BackupMode,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
) -> (ChaosReport, TraceExport) {
    let mut cfg = cfg.clone();
    cfg.trace = true;
    let (report, tracer, _, _) = run_trial_inner(seed, mode, plan, &cfg, None);
    let export = TraceExport {
        jsonl: tracer.export_jsonl(),
        chrome: tracer.export_chrome(),
    };
    (report, export)
}

/// [`run_chaos_trial`] with history recording forced on: returns the
/// report (the judge's anomalies appear as `client-history` violations)
/// plus the full history export as JSONL. Output is byte-identical for
/// identical inputs at any harness thread count.
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

/// [`run_chaos_trial`] with the SLO alert engine armed under `profile`
/// (tracing is implied so incidents observe fault windows): returns the
/// report (carrying the ground-truth-scored
/// [`AlertSummary`](crate::AlertSummary)) plus the incident log as
/// JSONL. Output is byte-identical for identical inputs at any harness
/// thread count.
pub fn run_chaos_trial_alerts(
    seed: u64,
    mode: BackupMode,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    profile: AlertProfile,
) -> (ChaosReport, String) {
    let mut cfg = cfg.clone();
    cfg.alerts = Some(profile);
    let (report, _, _, log) = run_trial_inner(seed, mode, plan, &cfg, None);
    let jsonl = log.expect("alert trial carries an incident log").export_jsonl();
    (report, jsonl)
}

/// What an every-point oracle is shown by [`run_chaos_trial_stepped`].
pub type EachStep<'a> = dyn FnMut(&mut TwoSiteRig, &mut Auditor) + 'a;

/// [`run_chaos_trial`], one kernel event at a time: `each_step` sees the
/// rig and the auditor after every event the kernel dispatches and after
/// every timeline action (fault start, heal, scan). Same timeline, same
/// report — for oracles that must look at *every* point rather than the
/// audit grid (`tests/follower.rs` compares the followed backup image
/// with a from-scratch recovery at each of them).
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
    rig_cfg.workload.think_time_mean = cfg.think_time;
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
    if cfg.supervisor {
        rig.enable_supervisor(
            cfg.supervisor_policy.clone(),
            plan.horizon + cfg.converge_grace,
        );
    }
    if let Some(profile) = &cfg.alerts {
        rig.enable_alerts(profile.clone(), plan.horizon + cfg.converge_grace);
    }
    let tracer = rig.world.st.tracer.clone();
    let history = rig.world.st.history.clone();
    let mut auditor = Auditor::new(&mut rig);
    if cfg.supervisor {
        auditor.expect_convergence();
    }
    let mut injector = Injector::new(&rig, cfg.supervisor);

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
    steps.extend(grid(cfg.sample_every, plan.horizon).map(|t| (t, SAMPLE, 0)));
    if cfg.history {
        steps.extend(grid(cfg.scan_every, plan.horizon).map(|t| (t, SCAN, 0)));
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
            cg: run_chaos_trial(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, cfg),
            naive: run_chaos_trial(ctx.seed, BackupMode::AdcPerVolume, &plan, cfg),
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
                let mut c = cfg.clone();
                c.workload = workload;
                let (cg, cg_export) =
                    run_chaos_trial_history(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, &c);
                let (naive, naive_export) =
                    run_chaos_trial_history(ctx.seed, BackupMode::AdcPerVolume, &plan, &c);
                HistoryRow {
                    workload,
                    cg,
                    naive,
                    cg_export,
                    naive_export,
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
        if h.anomalies == 0 { "clean".to_string() } else { format!("{}-anomalies", h.anomalies) }
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
pub fn shrink_plan(
    seed: u64,
    mode: BackupMode,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
) -> FaultPlan {
    let fails = |p: &FaultPlan| !run_chaos_trial(seed, mode, p, cfg).is_clean();
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
