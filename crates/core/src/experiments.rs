//! The experiment runners behind every table/figure reproduction
//! (DESIGN.md §4). Each returns structured rows; the bench crate's `repro`
//! binary renders them and EXPERIMENTS.md records the results.
//!
//! Every multi-trial experiment (E1, E2, E3, A1, A2) takes the
//! [`TrialHarness`] that fans its independent trials out over a thread
//! pool (`&TrialHarness::serial()` for a plain in-order loop). Rows are
//! identical at any thread count — trials are seeded purely from
//! `(base_seed, trial_index)` and re-sorted by index (see `harness.rs`).

use tsuru_container::{ControllerManager, ObjectMeta};
use tsuru_nso::NsoConfig;
use tsuru_sim::{DetRng, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::{ArrayPerf, EngineConfig};

use crate::harness::{TrialHarness, TrialSet};
use crate::rig::{BackupMode, RigConfig, TwoSiteRig};
use crate::system::{tag_namespace, Platform, MAX_ROUNDS};
use crate::world::Sites;

// =====================================================================
// E1 — no system slowdown (claim C1): latency/throughput vs backup mode
// =====================================================================

/// One (mode, RTT) measurement.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Closed-loop clients.
    pub clients: usize,
    /// Backup mode label.
    pub mode: String,
    /// Inter-site round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Committed transactions per simulated second.
    pub tps: f64,
    /// Mean transaction latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Commits per log flush over both databases (DESIGN.md §20).
    pub commits_per_flush: f64,
    /// Block writes the array acknowledged per committed order.
    pub writes_per_order: f64,
}

/// Sweep backup modes across inter-site distances, each (RTT, mode) cell
/// one harness trial.
///
/// Every cell uses the same workload seed so modes stay directly
/// comparable at a given RTT.
pub fn e1_slowdown(
    harness: &TrialHarness,
    seed: u64,
    clients: usize,
    rtts_ms: &[u64],
    duration: SimDuration,
) -> TrialSet<E1Row> {
    let mut cells = Vec::new();
    for &rtt in rtts_ms {
        for mode in [
            BackupMode::None,
            BackupMode::AdcConsistencyGroup,
            BackupMode::Sdc,
        ] {
            cells.push((rtt, mode));
        }
    }
    harness.run(seed, cells.len(), |ctx| {
        let (rtt, mode) = cells[ctx.index];
        let mut cfg = RigConfig {
            seed,
            mode,
            ..Default::default()
        };
        let one_way = SimDuration::from_micros(rtt * 1000 / 2);
        cfg.link = LinkConfig::with(one_way, 1_000_000_000 / 8);
        cfg.workload.clients = clients;
        let mut rig = TwoSiteRig::new(cfg);
        rig.run_workload_for(duration);
        let s = rig.latency_summary();
        E1Row {
            clients,
            mode: mode.label().into(),
            rtt_ms: rtt as f64,
            tps: rig.throughput_tps(),
            mean_ms: s.mean / 1e6,
            p50_ms: s.p50 as f64 / 1e6,
            p99_ms: s.p99 as f64 / 1e6,
            commits_per_flush: rig.world.app().commits_per_flush(),
            writes_per_order: rig.world.st.ack_log.len() as f64
                / rig.committed_orders().max(1) as f64,
        }
    })
}

// =====================================================================
// E2 — backup collapse (claims C2/C3): CG vs naive under surprise failure
// =====================================================================

/// Aggregate over many disaster trials for one mode.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Backup mode label.
    pub mode: String,
    /// Trials run.
    pub trials: u32,
    /// Trials whose backup violated write-order fidelity (storage check).
    pub storage_collapses: u32,
    /// Trials whose recovered databases violated the cross-DB invariant or
    /// hard-failed recovery (business check).
    pub business_collapses: u32,
    /// Trials where a database failed to recover at all.
    pub hard_recovery_failures: u32,
    /// Mean committed-but-lost orders per trial (expected ADC data loss).
    pub avg_lost_orders: f64,
}

/// Verdict of one surprise-failure drill (one harness trial).
#[derive(Debug, Clone)]
pub struct E2Trial {
    /// Backup mode label.
    pub mode: String,
    /// Did the backup violate write-order fidelity?
    pub storage_collapse: bool,
    /// Did the recovered databases violate the cross-DB invariant or
    /// hard-fail recovery?
    pub business_collapse: bool,
    /// Did a database fail to recover at all?
    pub hard_failure: bool,
    /// Committed-but-lost orders in this drill.
    pub lost_orders: u64,
}

/// Run `trials` surprise-failure drills per mode: one harness trial per
/// (mode, drill).
///
/// Drill `t` uses seed `DetRng::trial_seed(base_seed, t)` under *both*
/// modes, so the comparison stays paired; aggregation runs over the
/// index-sorted rows, making the table identical at any thread count.
pub fn e2_collapse(
    harness: &TrialHarness,
    base_seed: u64,
    trials: u32,
    session_jitter: SimDuration,
) -> TrialSet<E2Row> {
    let modes = [BackupMode::AdcConsistencyGroup, BackupMode::AdcPerVolume];
    let total = modes.len() * trials as usize;
    let set = harness.run(base_seed, total, |ctx| {
        let mode = modes[ctx.index / trials as usize];
        let t = (ctx.index % trials as usize) as u64;
        e2_drill(base_seed, t, mode, session_jitter)
    });
    set.map_rows(|per_trial| {
        modes
            .iter()
            .enumerate()
            .map(|(mi, mode)| {
                let chunk = &per_trial[mi * trials as usize..(mi + 1) * trials as usize];
                E2Row {
                    mode: mode.label().into(),
                    trials,
                    storage_collapses: chunk.iter().filter(|r| r.storage_collapse).count() as u32,
                    business_collapses: chunk.iter().filter(|r| r.business_collapse).count() as u32,
                    hard_recovery_failures: chunk.iter().filter(|r| r.hard_failure).count() as u32,
                    avg_lost_orders: chunk.iter().map(|r| r.lost_orders).sum::<u64>() as f64
                        / trials as f64,
                }
            })
            .collect()
    })
}

/// One E2 drill: build, run to a surprise failure, fail over, recover.
pub fn e2_drill(base_seed: u64, t: u64, mode: BackupMode, session_jitter: SimDuration) -> E2Trial {
    let mut cfg = RigConfig {
        seed: DetRng::trial_seed(base_seed, t),
        mode,
        ..Default::default()
    };
    cfg.engine.pump_jitter = session_jitter;
    cfg.workload.think_time_mean = SimDuration::from_millis(2);
    let mut rig = TwoSiteRig::new(cfg);
    // Failure somewhere in the middle of the run, varied per trial.
    let fail_at = SimTime::from_millis(80 + (t * 13) % 80);
    rig.schedule_main_failure(fail_at);
    rig.world.app_mut().stop_after_orders = None;
    tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
    rig.sim
        .run_until(&mut rig.world, fail_at + SimDuration::from_millis(200));

    let (consistency, _) = rig.failover(fail_at);
    let outcome = rig.recover_from_backup();
    let hard_failure = outcome.hard_failure();
    E2Trial {
        mode: mode.label().into(),
        storage_collapse: !consistency.prefix.consistent,
        business_collapse: hard_failure || !outcome.fully_consistent(),
        hard_failure,
        lost_orders: outcome.orders.as_ref().map(|o| o.lost).unwrap_or(0),
    }
}

// =====================================================================
// E3 — RPO vs link bandwidth and journal capacity (§III-A1)
// =====================================================================

/// One (mode, bandwidth, journal) RPO measurement.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Backup mode label.
    pub mode: String,
    /// Link bandwidth in Mbit/s.
    pub bandwidth_mbps: u64,
    /// Journal capacity in MiB.
    pub journal_mib: u64,
    /// Committed orders at the main site when disaster struck.
    pub committed_orders: u64,
    /// Committed orders lost at the backup.
    pub lost_orders: u64,
    /// Storage-level recovery point (ms behind the failure instant).
    pub rpo_ms: f64,
    /// Host-write stalls caused by a full journal.
    pub journal_stalls: u64,
    /// Transaction p99 latency (ms) — shows the Block-policy backpressure.
    pub p99_ms: f64,
}

/// Sweep ADC over bandwidths and journal sizes, plus one SDC reference
/// row; each (mode, bandwidth, journal) cell is one harness trial and
/// every cell uses the same workload seed.
pub fn e3_rpo(
    harness: &TrialHarness,
    seed: u64,
    bandwidths_mbps: &[u64],
    journal_mib: &[u64],
) -> TrialSet<E3Row> {
    let mut cells: Vec<(BackupMode, u64, u64)> = Vec::new();
    for &mbps in bandwidths_mbps {
        for &jmib in journal_mib {
            cells.push((BackupMode::AdcConsistencyGroup, mbps, jmib));
        }
    }
    // SDC reference: zero loss by construction.
    cells.push((BackupMode::Sdc, *bandwidths_mbps.last().unwrap_or(&1000), 0));
    harness.run(seed, cells.len(), |ctx| {
        let (mode, mbps, jmib) = cells[ctx.index];
        let fail_at = SimTime::from_millis(150);
        let mut cfg = RigConfig {
            seed,
            mode,
            journal_capacity: jmib << 20,
            ..Default::default()
        };
        cfg.link = LinkConfig::with(SimDuration::from_millis(5), mbps * 1_000_000 / 8);
        cfg.workload.think_time_mean = SimDuration::from_millis(2);
        let mut rig = TwoSiteRig::new(cfg);
        rig.schedule_main_failure(fail_at);
        tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
        rig.sim
            .run_until(&mut rig.world, fail_at + SimDuration::from_millis(300));
        let committed = rig.committed_orders();
        let (_, rpo) = rig.failover(fail_at);
        let outcome = rig.recover_from_backup();
        let lost = outcome.orders.map(|o| o.lost).unwrap_or(committed);
        let s = rig.latency_summary();
        E3Row {
            mode: mode.label().into(),
            bandwidth_mbps: mbps,
            journal_mib: jmib,
            committed_orders: committed,
            lost_orders: lost,
            rpo_ms: rpo.rpo.as_nanos() as f64 / 1e6,
            journal_stalls: rig
                .world
                .st
                .metrics
                .counter(tsuru_storage::metric_names::JOURNAL_STALL_RETRIES),
            p99_ms: s.p99 as f64 / 1e6,
        }
    })
}

// =====================================================================
// E4 — snapshot groups for usable backup data (§III-A2, Figs. 5–6)
// =====================================================================

/// One snapshot-scenario measurement.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Scenario label.
    pub scenario: String,
    /// Orders visible to analytics on the snapshot image.
    pub analytics_orders: u64,
    /// Was the snapshot image cross-DB consistent?
    pub image_consistent: bool,
    /// Copy-on-write preservations performed on the backup array.
    pub cow_saves: u64,
    /// Orders committed at the main site by the end of the run (the live
    /// system keeps moving while analytics read the frozen image).
    pub committed_at_end: u64,
}

/// Compare atomic snapshot groups against non-atomic per-volume snapshots,
/// with replication running throughout.
pub fn e4_snapshot(seed: u64) -> Vec<E4Row> {
    let mut rows = Vec::new();
    for (scenario, atomic) in [("group-atomic", true), ("per-volume-nonatomic", false)] {
        let cfg = RigConfig {
            seed,
            mode: BackupMode::AdcConsistencyGroup,
            ..Default::default()
        };
        let mut rig = TwoSiteRig::new(cfg);
        tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
        rig.sim.run_until(&mut rig.world, SimTime::from_millis(150));

        let replicas = rig.replicas.expect("replicated rig");
        let snaps: Vec<tsuru_storage::SnapshotId> = if atomic {
            rig.snapshot_backup_group("pit")
        } else {
            // Non-atomic: snapshot the stock volumes first, let replication
            // advance, then snapshot the sales volumes — the pre-group-
            // snapshot reality the paper's storage solves.
            let now = rig.sim.now();
            let s2 = rig.world.st.snapshot(replicas[2], "stock-wal-pit", now);
            let s3 = rig.world.st.snapshot(replicas[3], "stock-data-pit", now);
            rig.sim
                .run_until(&mut rig.world, now + SimDuration::from_millis(25));
            let now2 = rig.sim.now();
            let s0 = rig.world.st.snapshot(replicas[0], "sales-wal-pit", now2);
            let s1 = rig.world.st.snapshot(replicas[1], "sales-data-pit", now2);
            vec![s0, s1, s2, s3]
        };
        // Keep the workload running while analytics read the image.
        rig.sim.run_until(&mut rig.world, SimTime::from_millis(300));

        let (analytics_orders, image_consistent) = match rig.open_snapshots(&snaps) {
            (Ok((s, _)), Ok((t, _))) => {
                let inv = rig.world.app().check_image(&s, &t);
                let rep = tsuru_analytics::run_analytics(&s, &t, 5);
                (rep.order_count, inv.consistent())
            }
            _ => (0, false),
        };
        rows.push(E4Row {
            scenario: scenario.into(),
            analytics_orders,
            image_consistent,
            cow_saves: rig.world.st.array(rig.backup).cow_saves(),
            committed_at_end: rig.committed_orders(),
        });
    }
    rows
}

// =====================================================================
// E5 — operator automation (§III-B1, Figs. 3–4)
// =====================================================================

/// One namespace-size measurement of configuration effort.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Claims in the namespace.
    pub volumes: usize,
    /// User actions with the operator (always 1: the tag).
    pub user_actions_operator: u32,
    /// Estimated manual console steps without the operator (see
    /// [`manual_steps`]).
    pub user_actions_manual: u64,
    /// Reconcile rounds until convergence.
    pub rounds: u32,
    /// API mutations performed by the controllers.
    pub api_mutations: u64,
    /// Array pairs configured.
    pub pairs: u64,
    /// Claims surfaced on the backup platform.
    pub backup_claims: usize,
    /// Whether reconciliation converged.
    pub converged: bool,
}

/// The manual procedure the operator replaces, per the paper's workflow:
/// identify the PV↔LDEV correspondence (1 per volume), create the
/// secondary volume (1), create the pair with consistency-group attributes
/// (1), plus per namespace: create two journal volumes, define the group,
/// and verify (4).
pub fn manual_steps(volumes: u64) -> u64 {
    4 + 3 * volumes
}

/// Scale the namespace and measure operator effort end to end
/// (tag → pairs on the array → claims visible at the backup site).
pub fn e5_operator(volume_counts: &[usize]) -> Vec<E5Row> {
    let mut rows = Vec::new();
    for &n in volume_counts {
        let mut sites = Sites::new(
            7,
            EngineConfig::default(),
            &ArrayPerf::default(),
            &LinkConfig::metro(),
        );
        let claims = (0..n).map(|i| (ObjectMeta::namespaced("shop", format!("vol-{i:04}")), 64));
        let mut p = Platform::new(&sites, "shop", claims, 64 << 20, NsoConfig::default());
        // Provision first (volumes exist before backup is requested).
        p.provision(&mut sites.st);
        let mutations_before = p.main_api.total_mutations();

        // The single user action: tag the namespace.
        tag_namespace(&mut p.main_api, "shop");
        let report = ControllerManager::run_to_convergence(
            &mut p.main_api,
            &mut sites.st,
            &mut [&mut p.nso, &mut p.provisioner, &mut p.repl_plugin],
            MAX_ROUNDS,
        );
        // Backup site surfaces the claims.
        ControllerManager::run_to_convergence(
            &mut p.backup_api,
            &mut sites.st,
            &mut [&mut p.importer],
            MAX_ROUNDS,
        );
        rows.push(E5Row {
            volumes: n,
            user_actions_operator: 1,
            user_actions_manual: manual_steps(n as u64),
            rounds: report.rounds,
            api_mutations: p.main_api.total_mutations() - mutations_before,
            pairs: p.repl_plugin.pairs_created,
            backup_claims: p.backup_api.pvcs.len(),
            converged: report.converged,
        });
    }
    rows
}

// =====================================================================
// E6 — the full three-step demonstration (§IV) + disaster drill
// =====================================================================

/// Outcome of the end-to-end demo.
#[derive(Debug)]
pub struct E6Outcome {
    /// The console transcript (Figs. 2–6 reproduction).
    pub transcript: Vec<String>,
    /// Committed orders at the main site.
    pub committed_orders: u64,
    /// Orders visible to analytics on the snapshot.
    pub analytics_orders: u64,
    /// Whether the failover backup was consistent.
    pub failover_consistent: bool,
    /// Whether the business process recovered at the backup site.
    pub business_recovered: bool,
    /// Committed orders lost at failover (the ADC recovery point).
    pub lost_orders: u64,
    /// Failover RTO.
    pub rto: SimDuration,
}

/// Run the complete demonstration: configure backup by tagging, run the
/// business, develop snapshots, run analytics, then a disaster drill.
pub fn e6_demo(seed: u64) -> E6Outcome {
    let cfg = crate::system::DemoConfig {
        seed,
        ..Default::default()
    };
    let mut demo = crate::system::DemoSystem::new(cfg);
    demo.step1_configure_backup();
    demo.run_workload_for(SimDuration::from_millis(200));
    let handles = demo.step2_develop_snapshot("pit-1");
    let analytics = demo
        .step3_analytics(&handles, 5)
        .expect("analytics on a consistent snapshot group");
    demo.run_workload_for(SimDuration::from_millis(100));

    let fail_at = demo.sim.now();
    demo.fail_main_site();
    // Let in-flight replication settle.
    let horizon = fail_at + SimDuration::from_millis(100);
    demo.sim.run_until(&mut demo.world, horizon);
    let failover = demo.failover(fail_at);
    let business = demo.recover_business();

    E6Outcome {
        committed_orders: demo.world.app().metrics.committed_orders,
        analytics_orders: analytics.order_count,
        failover_consistent: failover.consistency.is_consistent(),
        business_recovered: business.fully_consistent(),
        lost_orders: business.orders.as_ref().map(|o| o.lost).unwrap_or(0),
        rto: failover.rto,
        transcript: demo.transcript,
    }
}

// =====================================================================
// A1 — ablation: backup lag vs transfer-pump parameters
// =====================================================================

/// One pump-parameter measurement of backup lag.
#[derive(Debug, Clone)]
pub struct A1Row {
    /// Base pump interval in microseconds.
    pub pump_interval_us: u64,
    /// Maximum journal entries per transfer frame.
    pub batch_max_entries: usize,
    /// Mean backup lag in acked-but-unapplied writes (sampled every 5 ms).
    pub mean_lag_writes: f64,
    /// Peak backup lag in writes.
    pub max_lag_writes: u64,
    /// Transfer frames sent (batching efficiency).
    pub frames_sent: u64,
    /// Transaction p99 (ms) — the pump must not affect the host.
    pub p99_ms: f64,
}

/// Sweep the transfer pump's interval and batch size, sampling the
/// acked-minus-applied backlog. The backup-site *lag* is the price of the
/// main site's zero slowdown; this quantifies the knob. Each (interval,
/// batch) cell is one harness trial.
pub fn a1_backup_lag(
    harness: &TrialHarness,
    seed: u64,
    pump_intervals_us: &[u64],
    batches: &[usize],
) -> TrialSet<A1Row> {
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut cells: Vec<(u64, usize)> = Vec::new();
    for &interval in pump_intervals_us {
        for &batch in batches {
            cells.push((interval, batch));
        }
    }
    harness.run(seed, cells.len(), |ctx| {
        let (interval, batch) = cells[ctx.index];
        let mut cfg = RigConfig {
            seed,
            mode: BackupMode::AdcConsistencyGroup,
            ..Default::default()
        };
        cfg.engine.pump_interval = SimDuration::from_micros(interval);
        cfg.engine.pump_jitter = SimDuration::from_micros(interval / 2);
        cfg.engine.batch_max_entries = batch;
        cfg.workload.think_time_mean = SimDuration::from_millis(2);
        let mut rig = TwoSiteRig::new(cfg);
        let groups = rig.groups.clone();

        let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        // Recurring sampler: every 5 ms record the group backlog (typed
        // control-plane event; re-arms itself until `remaining` runs out).
        rig.sim.schedule_event_at(
            SimTime::from_millis(20),
            crate::DemoEvent::Control(crate::ControlOp::SampleLag {
                groups: groups.clone(),
                out: Rc::clone(&samples),
                remaining: 56,
            }),
        );
        rig.run_workload_for(SimDuration::from_millis(300));

        let samples = samples.borrow();
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64
        };
        let frames: u64 = groups
            .iter()
            .map(|&g| rig.world.st.fabric.group(g).stats.frames_sent)
            .sum();
        A1Row {
            pump_interval_us: interval,
            batch_max_entries: batch,
            mean_lag_writes: mean,
            max_lag_writes: samples.iter().copied().max().unwrap_or(0),
            frames_sent: frames,
            p99_ms: rig.latency_summary().p99 as f64 / 1e6,
        }
    })
}

// =====================================================================
// A2 — ablation: journal-full policy (Block vs Suspend)
// =====================================================================

/// One journal-policy measurement.
#[derive(Debug, Clone)]
pub struct A2Row {
    /// `block` or `suspend`.
    pub policy: String,
    /// Journal capacity in KiB.
    pub journal_kib: u64,
    /// Orders committed in the run window.
    pub committed: u64,
    /// Transaction p99 (ms): Block back-pressures the host.
    pub p99_ms: f64,
    /// Host-write stall retries (Block only).
    pub stalls: u64,
    /// Degraded (suspended-replication) acknowledgements (Suspend only).
    pub degraded_acks: u64,
    /// Committed orders missing at the backup after failover.
    pub lost_orders: u64,
}

/// Compare the two journal-overflow behaviours on an undersized journal
/// over a slow link: Block trades primary latency for a bounded recovery
/// point; Suspend keeps the primary fast but abandons the backup. Each
/// (capacity, policy) cell is one harness trial.
pub fn a2_journal_policy(
    harness: &TrialHarness,
    seed: u64,
    journal_kib: &[u64],
) -> TrialSet<A2Row> {
    use tsuru_storage::JournalFullPolicy;
    let mut cells: Vec<(u64, &str, JournalFullPolicy)> = Vec::new();
    for &kib in journal_kib {
        for (label, policy) in [
            ("block", JournalFullPolicy::Block),
            ("suspend", JournalFullPolicy::Suspend),
        ] {
            cells.push((kib, label, policy));
        }
    }
    harness.run(seed, cells.len(), |ctx| {
        let (kib, label, policy) = cells[ctx.index];
        let mut cfg = RigConfig {
            seed,
            mode: BackupMode::AdcConsistencyGroup,
            journal_capacity: kib << 10,
            ..Default::default()
        };
        cfg.engine.journal_full_policy = policy;
        // 20 Mbit/s: slow enough that the journal matters.
        cfg.link = LinkConfig::with(SimDuration::from_millis(5), 20_000_000 / 8);
        cfg.workload.think_time_mean = SimDuration::from_millis(2);
        let mut rig = TwoSiteRig::new(cfg);
        let fail_at = SimTime::from_millis(200);
        rig.schedule_main_failure(fail_at);
        tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
        rig.sim
            .run_until(&mut rig.world, fail_at + SimDuration::from_millis(300));
        let committed = rig.committed_orders();
        rig.failover(fail_at);
        let outcome = rig.recover_from_backup();
        A2Row {
            policy: label.into(),
            journal_kib: kib,
            committed,
            p99_ms: rig.latency_summary().p99 as f64 / 1e6,
            stalls: rig
                .world
                .st
                .metrics
                .counter(tsuru_storage::metric_names::JOURNAL_STALL_RETRIES),
            degraded_acks: rig.world.app().metrics.degraded_acks,
            lost_orders: outcome.orders.map(|o| o.lost).unwrap_or(committed),
        }
    })
}

// =====================================================================
// E7 — extension: three-data-centre topology (metro SDC + WAN ADC)
// =====================================================================

/// One topology measurement after a main-site disaster.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Topology label.
    pub mode: String,
    /// Transaction p50 latency (ms) during normal operation.
    pub p50_ms: f64,
    /// Committed orders when disaster struck.
    pub committed: u64,
    /// Orders recoverable at the WAN (far) site.
    pub far_recovered: u64,
    /// Orders recoverable at the metro site (`—` encoded as None → 0).
    pub metro_recovered: Option<u64>,
    /// Orders lost in the *best* surviving copy.
    pub best_copy_lost: u64,
}

/// Compare two-site ADC, two-site SDC and the 3DC combination: latency
/// near the ADC floor, zero loss at the metro site, bounded loss at the
/// far site.
pub fn e7_three_dc(seed: u64) -> Vec<E7Row> {
    let mut rows = Vec::new();
    for mode in [
        BackupMode::AdcConsistencyGroup,
        BackupMode::Sdc,
        BackupMode::ThreeDc,
    ] {
        let mut cfg = RigConfig {
            seed,
            mode,
            ..Default::default()
        };
        // Far link: a genuine WAN.
        cfg.link = LinkConfig::with(SimDuration::from_millis(25), 1_000_000_000 / 8);
        cfg.workload.think_time_mean = SimDuration::from_millis(2);
        let mut rig = TwoSiteRig::new(cfg);
        let fail_at = SimTime::from_millis(200);
        rig.schedule_main_failure(fail_at);
        tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
        rig.sim
            .run_until(&mut rig.world, fail_at + SimDuration::from_millis(200));
        let committed = rig.committed_orders();
        let p50 = rig.latency_summary().p50 as f64 / 1e6;
        // Promote only ADC groups (SDC targets are already current).
        let groups = rig.groups.clone();
        for &g in &groups {
            if rig.world.st.fabric.group(g).mode == tsuru_storage::GroupMode::Adc {
                rig.world.st.promote_group(g);
            }
        }
        let far = rig.recover_from_backup();
        let far_recovered = far.orders.as_ref().map(|o| o.recovered).unwrap_or(0);
        let metro_recovered = rig.metro.map(|_| {
            let m = rig.recover_from_metro();
            m.orders.as_ref().map(|o| o.recovered).unwrap_or(0)
        });
        let best = far_recovered.max(metro_recovered.unwrap_or(0));
        rows.push(E7Row {
            mode: mode.label().into(),
            p50_ms: p50,
            committed,
            far_recovered,
            metro_recovered,
            best_copy_lost: committed.saturating_sub(best),
        });
    }
    rows
}
