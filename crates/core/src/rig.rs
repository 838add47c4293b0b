//! The two-site experiment rig: storage + application, no container layer.
//!
//! Experiments E1–E4 measure the storage/application behaviour directly;
//! the container platform and operator add nothing to those measurements
//! (they only automate the configuration). [`TwoSiteRig`] builds the
//! paper's main/backup deployment — two arrays, a replication link, four
//! volumes (sales WAL/data, stock WAL/data), two databases, the order
//! workload — under any [`BackupMode`].

use serde::{Deserialize, Serialize};
use tsuru_analytics::AnalyticsReport;
use tsuru_ecom::driver::start_clients;
use tsuru_ecom::{ImageFollower, Recovered, RecoveryOutcome, WorkloadConfig};
use tsuru_minidb::{DbConfig, RecoveryError};
use tsuru_sim::{Sim, SimDuration, SimTime, Summary};
use tsuru_simnet::LinkConfig;
use tsuru_storage::{
    ArrayId, ArrayPerf, ConsistencyReport, EngineConfig, GroupId, RpoReport, SnapshotId,
    SnapshotView, StorageWorld, VolRef, VolumeView,
};

use crate::event::{ControlOp, DemoEvent, DemoSim};
use crate::world::{volume_sizes, DemoWorld, Sites, VOLUME_NAMES};

/// How the business process is protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackupMode {
    /// No replication at all (the latency floor).
    None,
    /// Asynchronous data copy with one consistency group spanning all four
    /// volumes (the paper's demonstrated design).
    AdcConsistencyGroup,
    /// Asynchronous data copy with one independent group per volume (the
    /// naive configuration the paper warns collapses).
    AdcPerVolume,
    /// Synchronous data copy (the no-data-loss, high-latency baseline).
    Sdc,
    /// Three-data-centre: metro SDC (zero loss, metro latency) plus WAN
    /// ADC consistency group (bounded loss at distance) from the same
    /// primary volumes — the combined topology of the paper's related work
    /// (§V, refs. 12–15).
    ThreeDc,
}

impl BackupMode {
    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            BackupMode::None => "none",
            BackupMode::AdcConsistencyGroup => "adc-cg",
            BackupMode::AdcPerVolume => "adc-naive",
            BackupMode::Sdc => "sdc",
            BackupMode::ThreeDc => "3dc",
        }
    }

    /// The replication groups this mode configures over the primary volumes.
    fn legs(self) -> &'static [Leg] {
        // The common case: all four volumes, ADC, to the backup array.
        const BASE: Leg = Leg { group: "", vols: 0..4, sync: false, metro: false };
        match self {
            BackupMode::None => &[],
            BackupMode::AdcConsistencyGroup => &[Leg { group: "cg-shop", ..BASE }],
            BackupMode::AdcPerVolume => &[
                Leg { group: "solo-sales-wal", vols: 0..1, ..BASE },
                Leg { group: "solo-sales-data", vols: 1..2, ..BASE },
                Leg { group: "solo-stock-wal", vols: 2..3, ..BASE },
                Leg { group: "solo-stock-data", vols: 3..4, ..BASE },
            ],
            BackupMode::Sdc => &[Leg { group: "sdc-shop", sync: true, ..BASE }],
            // The `backup` array plays the far site; a third array in the
            // metro area is kept synchronously in step.
            BackupMode::ThreeDc => &[
                Leg { group: "cg-shop-far", ..BASE },
                Leg { group: "sdc-shop-metro", sync: true, metro: true, ..BASE },
            ],
        }
    }
}

/// One replication group of a protection mode.
struct Leg {
    /// Group name on the array.
    group: &'static str,
    /// The primary volumes it pairs, as [`VOLUME_NAMES`] indices.
    vols: std::ops::Range<usize>,
    /// Synchronous copy (SDC) instead of journal-based ADC.
    sync: bool,
    /// Lands on a third array over its own metro links, not on `backup`.
    metro: bool,
}

/// Full configuration of a rig.
#[derive(Debug, Clone)]
pub struct RigConfig {
    /// Master seed (workload, jitter, pump streams all derive from it).
    pub seed: u64,
    /// Storage engine tunables.
    pub engine: EngineConfig,
    /// Array service-time profile (both sites).
    pub perf: ArrayPerf,
    /// Inter-site link (both directions use the same shape).
    pub link: LinkConfig,
    /// Metro link used by the synchronous leg of [`BackupMode::ThreeDc`].
    pub metro_link: LinkConfig,
    /// Protection mode.
    pub mode: BackupMode,
    /// ADC journal capacity in bytes.
    pub journal_capacity: u64,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Database geometry.
    pub db: DbConfig,
    /// Install an enabled [`tsuru_storage::Tracer`] on the world, turning
    /// on span recording and metrics time-series sampling. Off by default:
    /// the disabled tracer keeps the hot path allocation-free and all
    /// experiment outputs byte-identical to untraced runs.
    pub trace: bool,
    /// Install an enabled [`tsuru_history::Recorder`] on the world, so
    /// the workload drivers record a client-visible op history. Off by
    /// default for the same reason as `trace`.
    pub history: bool,
}

impl Default for RigConfig {
    fn default() -> Self {
        RigConfig {
            seed: 42,
            engine: EngineConfig::default(),
            perf: ArrayPerf::default(),
            link: LinkConfig::metro(),
            metro_link: LinkConfig::with(
                SimDuration::from_millis(1),
                10_000_000_000 / 8,
            ),
            mode: BackupMode::AdcConsistencyGroup,
            journal_capacity: 256 << 20,
            workload: WorkloadConfig::default(),
            db: DbConfig {
                data_blocks: 8192,
                wal_blocks: 1024,
                checkpoint_threshold: 0.8,
            },
            trace: false,
            history: false,
        }
    }
}

/// The assembled two-site deployment.
pub struct TwoSiteRig {
    /// Discrete-event state.
    pub world: DemoWorld,
    /// Event kernel (typed [`DemoEvent`] dispatch).
    pub sim: DemoSim,
    /// Main-site array.
    pub main: ArrayId,
    /// Backup-site array.
    pub backup: ArrayId,
    /// Primary volumes, in [`VOLUME_NAMES`] order.
    pub vols: [VolRef; 4],
    /// Secondary volumes (empty refs when mode is `None`).
    pub replicas: Option<[VolRef; 4]>,
    /// Metro site array and its secondaries (only for `ThreeDc`).
    pub metro: Option<(ArrayId, [VolRef; 4])>,
    /// Replication groups configured.
    pub groups: Vec<GroupId>,
    /// Rig configuration (kept for recovery geometry).
    pub config: RigConfig,
}

impl TwoSiteRig {
    /// Build the deployment: arrays, link, volumes, formatted + seeded
    /// databases, replication per `config.mode`, workload clients ready.
    pub fn new(config: RigConfig) -> Self {
        let mut sites = Sites::new(config.seed, config.engine.clone(), &config.perf, &config.link);
        let sizes = volume_sizes(&config.db);
        let volumes = |st: &mut StorageWorld, array: ArrayId, suffix: &str| -> [VolRef; 4] {
            std::array::from_fn(|i| {
                st.create_volume(array, format!("{}{suffix}", VOLUME_NAMES[i]), sizes[i])
            })
        };
        let vols = volumes(&mut sites.st, sites.main, "");
        // The shop goes onto its volumes before any pair exists: the
        // initial copy carries the formatted, seeded images across.
        let mut world = DemoWorld::with_shop(
            sites.st,
            vols,
            config.seed,
            config.db.clone(),
            config.workload.clone(),
        );
        let st = &mut world.st;

        let (mut replicas, mut metro, mut groups) = (None, None, Vec::new());
        for leg in config.mode.legs() {
            let (targets, fwd, rev) = if leg.metro {
                let array = st.add_array("vsp-metro", config.perf.clone());
                let fwd = st.add_link(config.metro_link.clone());
                let rev = st.add_link(config.metro_link.clone());
                let targets = volumes(st, array, "-m");
                metro = Some((array, targets));
                (targets, fwd, rev)
            } else {
                let targets = *replicas.get_or_insert_with(|| volumes(st, sites.backup, "-r"));
                (targets, sites.link, sites.reverse)
            };
            let g = if leg.sync {
                st.create_sdc_group(leg.group, fwd, rev)
            } else {
                st.create_adc_group(leg.group, fwd, rev, config.journal_capacity)
            };
            for i in leg.vols.clone() {
                st.add_pair(g, vols[i], targets[i]);
            }
            groups.push(g);
        }

        // Installed after construction: formatting and seeding above go
        // through write_direct and must not appear in the trace — and the
        // history likewise starts at the workload's first operation.
        if config.trace {
            world.st.set_tracer(tsuru_storage::Tracer::enabled());
        }
        if config.history {
            world.st.set_history(tsuru_history::Recorder::enabled());
        }

        TwoSiteRig {
            world,
            sim: Sim::new(),
            main: sites.main,
            backup: sites.backup,
            vols,
            replicas,
            metro,
            groups,
            config,
        }
    }

    /// Recover the business from the metro site's volumes (`ThreeDc`).
    pub fn recover_from_metro(&self) -> RecoveryOutcome {
        let (metro, vols) = self.metro.expect("rig has no metro site");
        self.recover_from(metro, &vols)
    }

    /// Start the closed-loop clients and run for `duration` of simulated
    /// time (events beyond the horizon stay queued).
    pub fn run_workload_for(&mut self, duration: SimDuration) {
        start_clients(&mut self.world, &mut self.sim);
        self.sim.run_for(&mut self.world, duration);
    }

    /// Run an exact number of orders to completion (plus replication
    /// drain).
    pub fn run_orders(&mut self, orders: u64) {
        self.world.app_mut().stop_after_orders = Some(orders);
        start_clients(&mut self.world, &mut self.sim);
        self.sim.run(&mut self.world);
    }

    /// Arm the self-healing supervisor on the world and schedule its
    /// periodic probe from now until (at least) `until`. The tick budget
    /// is computed up front so the probe chain terminates deterministically
    /// shortly after the horizon instead of keeping the sim alive forever.
    pub fn enable_supervisor(
        &mut self,
        policy: tsuru_storage::SupervisorPolicy,
        until: SimTime,
    ) {
        let interval = policy.probe_interval;
        assert!(!interval.is_zero(), "probe interval must be positive");
        self.world.st.enable_supervisor(policy);
        let span = until.saturating_since(self.sim.now());
        let ticks = (span.as_nanos() / interval.as_nanos()).max(1) as u32;
        self.sim.schedule_event_in(
            interval,
            DemoEvent::Control(ControlOp::SupervisorTick {
                remaining: ticks - 1,
            }),
        );
    }

    /// Arm the SLO/alerting engine on the world and schedule its periodic
    /// evaluation from now until (at least) `until`. The tick budget is
    /// computed up front, like [`TwoSiteRig::enable_supervisor`], so the
    /// evaluation chain terminates deterministically shortly after the
    /// horizon.
    pub fn enable_alerts(&mut self, profile: tsuru_storage::AlertProfile, until: SimTime) {
        let interval = profile.eval_interval;
        assert!(!interval.is_zero(), "eval interval must be positive");
        self.world.st.enable_alerts(profile, self.sim.now());
        let span = until.saturating_since(self.sim.now());
        let ticks = (span.as_nanos() / interval.as_nanos()).max(1) as u32;
        self.sim.schedule_event_in(
            interval,
            DemoEvent::Control(ControlOp::SloTick {
                remaining: ticks - 1,
            }),
        );
    }

    /// Schedule a main-site disaster at `at`.
    pub fn schedule_main_failure(&mut self, at: SimTime) {
        let array = self.main;
        self.sim
            .schedule_event_at(at, DemoEvent::Control(ControlOp::FailArray { array }));
    }

    /// Let in-flight replication settle after a failure (bounded horizon).
    pub fn settle(&mut self, horizon: SimTime) {
        self.sim.run_until(&mut self.world, horizon);
    }

    /// Failover: promote every group and report storage-level consistency
    /// and RPO (`failure_time` is when the disaster struck).
    pub fn failover(&mut self, failure_time: SimTime) -> (ConsistencyReport, RpoReport) {
        for &g in &self.groups {
            self.world.st.promote_group(g);
        }
        let consistency = self.world.st.verify_consistency(&self.groups);
        let rpo = self.world.st.rpo_report(&self.groups, failure_time);
        (consistency, rpo)
    }

    /// Recover both databases from the given array's volumes and run the
    /// business-level checks.
    pub fn recover_from(&self, array: ArrayId, vols: &[VolRef; 4]) -> RecoveryOutcome {
        let arr = self.world.st.array(array);
        self.world
            .app()
            .recover_image(vols.map(|v| VolumeView::new(arr, v.volume)))
    }

    /// Recover from the backup site's replica volumes.
    pub fn recover_from_backup(&self) -> RecoveryOutcome {
        let replicas = self.replicas.expect("rig has no replicas (mode=None)");
        self.recover_from(self.backup, &replicas)
    }

    /// Start following the backup image: the replicas are watched from now
    /// on, and the returned follower is kept current by handing it what
    /// `world.st.array_mut(backup).drain_feed()` yields.
    pub fn follow_backup(&mut self) -> ImageFollower {
        let replicas = self.replicas.expect("rig has no replicas (mode=None)");
        self.world
            .follow_image(self.backup, replicas.map(|r| r.volume))
    }

    /// Take an atomic snapshot group of the backup-site replicas at the
    /// current instant (the demo's step D2, via the direct array path).
    pub fn snapshot_backup_group(&mut self, name: &str) -> Vec<SnapshotId> {
        let replicas = self.replicas.expect("rig has no replicas (mode=None)");
        let now = self.sim.now();
        self.world
            .st
            .snapshot_group(self.backup, &replicas.map(|r| r.volume), name, now)
    }

    /// Open both databases from a snapshot group of the backup array (in
    /// [`Self::snapshot_backup_group`] order), judging nothing.
    pub fn open_snapshots(&self, snaps: &[SnapshotId]) -> (Recovered, Recovered) {
        let snaps: [SnapshotId; 4] = snaps.try_into().expect("a 4-volume snapshot group");
        let arr = self.world.st.array(self.backup);
        self.world
            .app()
            .open_image(snaps.map(|s| SnapshotView::new(arr, s)))
    }

    /// Recover both databases from a snapshot group (in
    /// [`Self::snapshot_backup_group`] order) and run analytics on them —
    /// the demo's step D3.
    pub fn analytics_on_snapshots(
        &self,
        snaps: &[SnapshotId],
        top_k: usize,
    ) -> Result<AnalyticsReport, RecoveryError> {
        let (sales, stock) = self.open_snapshots(snaps);
        let ((sales, _), (stock, _)) = (sales?, stock?);
        Ok(tsuru_analytics::run_analytics(&sales, &stock, top_k))
    }

    /// Transaction latency summary.
    pub fn latency_summary(&self) -> Summary {
        self.world.app().metrics.txn_latency.summary()
    }

    /// Committed orders so far.
    pub fn committed_orders(&self) -> u64 {
        self.world.app().metrics.committed_orders
    }

    /// Throughput in transactions per simulated second over `[0, now]`.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.sim.now().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.committed_orders() as f64 / secs
        }
    }
}
