//! The demonstration system: two container platforms, two arrays, the
//! namespace operator, and the paper's three-step demo flow.
//!
//! This is the full §IV deployment: storage classes and claims on the main
//! platform, dynamic provisioning through the CSI driver, backup
//! configuration by *tagging the namespace* (step D1, Figs. 3–4), snapshot
//! development at the backup site (step D2, Fig. 5), and analytics on the
//! snapshot volumes (step D3, Fig. 6). Every console interaction is
//! recorded in a transcript that reproduces the demo's screen content.

use tsuru_analytics::AnalyticsReport;
use tsuru_container::{
    ApiServer, ClaimPhase, ControllerManager, ConvergenceReport, Namespace, ObjectMeta,
    PersistentVolumeClaim, Pod, Provisioner, StorageClass, VolumeGroupSnapshot, BACKUP_TAG_KEY,
    BACKUP_TAG_VALUE,
};
use tsuru_ecom::driver::start_clients;
use tsuru_ecom::scan::record_shop_scan;
use tsuru_ecom::{RecoveryOutcome, WorkloadConfig};
use tsuru_history::{check_history, process, CheckConfig, OpData, Site, Verdict};
use tsuru_minidb::{DbConfig, RecoveryError};
use tsuru_nso::{NamespaceOperator, NsoConfig};
use tsuru_plugin::{
    BackupSiteImporter, ReplicationPlugin, ReplicationPluginConfig, SnapshotPlugin,
    SnapshotScheduler, TsuruBlockDriver,
};
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::{
    ArrayId, ArrayPerf, ConsistencyReport, EngineConfig, GroupId, RpoReport, SnapshotId,
    SnapshotView, StorageWorld, VolRef, VolumeId, VolumeView,
};

use crate::event::DemoSim;
use crate::world::{volume_sizes, DemoWorld, Sites, VOLUME_NAMES};

/// The CSI driver name used by the demo storage class.
pub const DRIVER_NAME: &str = "block.csi.tsuru.io";
/// The storage class name.
pub const STORAGE_CLASS: &str = "tsuru-block";

/// Configuration of the full demonstration system.
#[derive(Debug, Clone)]
pub struct DemoConfig {
    /// Master seed.
    pub seed: u64,
    /// Storage engine tunables.
    pub engine: EngineConfig,
    /// Array performance profile.
    pub perf: ArrayPerf,
    /// Inter-site link shape.
    pub link: LinkConfig,
    /// ADC journal capacity.
    pub journal_capacity: u64,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Database geometry.
    pub db: DbConfig,
    /// Namespace operator policy.
    pub nso: NsoConfig,
    /// The business namespace.
    pub namespace: String,
    /// Simulated control-plane cost charged per reconcile round (operator
    /// actions are not free; contributes to measured RTO).
    pub reconcile_round_cost: SimDuration,
}

impl Default for DemoConfig {
    fn default() -> Self {
        DemoConfig {
            seed: 42,
            engine: EngineConfig::default(),
            perf: ArrayPerf::default(),
            link: LinkConfig::metro(),
            journal_capacity: 256 << 20,
            workload: WorkloadConfig::default(),
            db: DbConfig {
                data_blocks: 8192,
                wal_blocks: 1024,
                checkpoint_threshold: 0.8,
            },
            nso: NsoConfig::default(),
            namespace: "shop".into(),
            reconcile_round_cost: SimDuration::from_millis(20),
        }
    }
}

/// Reconcile rounds allowed before a controller set is declared
/// non-convergent (every shipped scenario converges in two or three).
pub(crate) const MAX_ROUNDS: u32 = 256;

/// The container platforms over a pair of sites and the controllers that
/// turn a namespace tag into array pairs: what [`DemoSystem`] runs and
/// what E5 measures.
pub(crate) struct Platform {
    pub main_api: ApiServer,
    pub backup_api: ApiServer,
    pub provisioner: Provisioner<TsuruBlockDriver>,
    pub repl_plugin: ReplicationPlugin,
    pub nso: NamespaceOperator,
    pub importer: BackupSiteImporter,
}

impl Platform {
    /// Both platforms with the storage class, namespace `ns` holding
    /// `claims` (metadata, size in blocks) on the main one, and the
    /// controllers over `sites`. Nothing is reconciled yet.
    pub(crate) fn new(
        sites: &Sites,
        ns: &str,
        claims: impl IntoIterator<Item = (ObjectMeta, u64)>,
        journal_capacity_bytes: u64,
        nso: NsoConfig,
    ) -> Self {
        let api_server = || {
            let mut api = ApiServer::new();
            api.storage_classes.create(StorageClass {
                meta: ObjectMeta::cluster(STORAGE_CLASS),
                provisioner: DRIVER_NAME.into(),
                parameters: Default::default(),
            });
            api
        };
        let mut main_api = api_server();
        main_api.namespaces.create(Namespace {
            meta: ObjectMeta::cluster(ns),
        });
        for (meta, size_blocks) in claims {
            main_api.pvcs.create(PersistentVolumeClaim {
                meta,
                storage_class: STORAGE_CLASS.into(),
                size_blocks,
                phase: ClaimPhase::Pending,
                volume_name: None,
            });
        }
        Platform {
            main_api,
            backup_api: api_server(),
            provisioner: Provisioner::new(TsuruBlockDriver::new(sites.main, DRIVER_NAME)),
            repl_plugin: ReplicationPlugin::new(ReplicationPluginConfig {
                main_array: sites.main,
                backup_array: sites.backup,
                link: sites.link,
                reverse: sites.reverse,
                journal_capacity_bytes,
            }),
            nso: NamespaceOperator::new(nso),
            importer: BackupSiteImporter::new(sites.backup),
        }
    }

    /// Dynamically provision every pending claim on the main array (no
    /// backup tag yet, so no replication).
    pub(crate) fn provision(&mut self, st: &mut StorageWorld) {
        ControllerManager::run_to_convergence(
            &mut self.main_api,
            st,
            &mut [&mut self.provisioner],
            MAX_ROUNDS,
        );
    }
}

/// The paper's single user action: tag namespace `ns` for backup.
pub(crate) fn tag_namespace(main_api: &mut ApiServer, ns: &str) {
    main_api.namespaces.update(ns, |n| {
        n.meta
            .labels
            .insert(BACKUP_TAG_KEY.into(), BACKUP_TAG_VALUE.into());
        true
    });
}

/// The assembled demonstration system.
pub struct DemoSystem {
    /// Discrete-event state (storage + application).
    pub world: DemoWorld,
    /// Event kernel (typed [`crate::DemoEvent`] dispatch).
    pub sim: DemoSim,
    /// Main-site platform.
    pub main_api: ApiServer,
    /// Backup-site platform.
    pub backup_api: ApiServer,
    /// Main-site array.
    pub main_array: ArrayId,
    /// Backup-site array.
    pub backup_array: ArrayId,
    provisioner: Provisioner<TsuruBlockDriver>,
    repl_plugin: ReplicationPlugin,
    nso: NamespaceOperator,
    importer: BackupSiteImporter,
    snap_plugin: SnapshotPlugin,
    schedulers: Vec<SnapshotScheduler>,
    /// The business namespace.
    pub namespace: String,
    /// Primary volumes in [`VOLUME_NAMES`] order (resolved at build time).
    pub vols: [VolRef; 4],
    /// Console transcript (the demo's screen content).
    pub transcript: Vec<String>,
    config: DemoConfig,
}

impl DemoSystem {
    /// Build the whole system: platforms, storage classes, namespace,
    /// claims, pods; provision volumes; install and seed the databases.
    pub fn new(config: DemoConfig) -> Self {
        let mut sites = Sites::new(config.seed, config.engine.clone(), &config.perf, &config.link);
        let ns = config.namespace.clone();
        let claims = VOLUME_NAMES.iter().zip(volume_sizes(&config.db)).map(|(name, size)| {
            let meta = ObjectMeta::namespaced(&ns, *name).with_label("app", "shop");
            (meta, size)
        });
        let mut platform = Platform::new(
            &sites,
            &ns,
            claims,
            config.journal_capacity,
            config.nso.clone(),
        );
        for (pod, claims) in [
            ("sales-db", vec!["sales-wal", "sales-data"]),
            ("stock-db", vec!["stock-wal", "stock-data"]),
            ("shop-app", vec![]),
        ] {
            platform.main_api.pods.create(Pod {
                meta: ObjectMeta::namespaced(&ns, pod),
                pvc_names: claims.into_iter().map(String::from).collect(),
                running: true,
            });
        }
        platform.provision(&mut sites.st);

        // Resolve the claims to array volumes.
        let vols = VOLUME_NAMES.map(|name| {
            let api = &platform.main_api;
            let pvc = api
                .pvcs
                .get(&format!("{ns}/{name}"))
                .unwrap_or_else(|| panic!("claim {name} missing"));
            assert_eq!(pvc.phase, ClaimPhase::Bound, "claim {name} not bound");
            let pv = api
                .pvs
                .get(pvc.volume_name.as_deref().expect("bound claim has pv"))
                .expect("pv exists");
            VolRef::new(ArrayId(pv.handle.array), VolumeId(pv.handle.volume))
        });

        let mut system = DemoSystem {
            world: DemoWorld::with_shop(
                sites.st,
                vols,
                config.seed,
                config.db.clone(),
                config.workload.clone(),
            ),
            sim: Sim::new(),
            main_api: platform.main_api,
            backup_api: platform.backup_api,
            main_array: sites.main,
            backup_array: sites.backup,
            provisioner: platform.provisioner,
            repl_plugin: platform.repl_plugin,
            nso: platform.nso,
            importer: platform.importer,
            snap_plugin: SnapshotPlugin::new(sites.backup),
            schedulers: Vec::new(),
            namespace: ns,
            vols,
            transcript: Vec::new(),
            config,
        };
        system.log("=== demonstration system ready (two sites, two arrays) ===");
        system
    }

    fn log(&mut self, line: impl Into<String>) {
        self.transcript.push(line.into());
    }

    fn charge_reconcile(&mut self, rounds: u32) {
        let cost = self.config.reconcile_round_cost.saturating_mul(rounds as u64);
        let horizon = self.sim.now() + cost;
        self.sim.run_until(&mut self.world, horizon);
    }

    /// Run the main site's controllers (operator + provisioner + replication
    /// plugin) to convergence, charging control-plane time.
    pub fn reconcile_main(&mut self) -> ConvergenceReport {
        self.world.st.set_control_time(self.sim.now());
        let report = ControllerManager::run_to_convergence(
            &mut self.main_api,
            &mut self.world.st,
            &mut [
                &mut self.nso,
                &mut self.provisioner,
                &mut self.repl_plugin,
            ],
            MAX_ROUNDS,
        );
        self.charge_reconcile(report.rounds);
        report
    }

    /// Run the backup site's controllers (importer + snapshot plugin +
    /// any snapshot schedulers).
    pub fn reconcile_backup(&mut self) -> ConvergenceReport {
        self.world.st.set_control_time(self.sim.now());
        let mut controllers: Vec<&mut dyn tsuru_container::Reconciler<StorageWorld>> =
            vec![&mut self.importer, &mut self.snap_plugin];
        for s in &mut self.schedulers {
            controllers.push(s);
        }
        let report = ControllerManager::run_to_convergence(
            &mut self.backup_api,
            &mut self.world.st,
            &mut controllers,
            MAX_ROUNDS,
        );
        self.charge_reconcile(report.rounds);
        report
    }

    /// Attach a periodic snapshot schedule with retention to the backup
    /// site (the backup catalogue). Generations are taken/pruned whenever
    /// the backup site reconciles.
    pub fn enable_snapshot_schedule(&mut self, interval: SimDuration, retention: usize) {
        let ns = self.namespace.clone();
        self.schedulers.push(SnapshotScheduler::new(
            ns,
            self.backup_array,
            interval,
            retention,
        ));
        self.log(format!(
            "--- snapshot schedule enabled: every {interval}, keep {retention}"
        ));
    }

    /// Snapshot generations currently in the catalogue (ready ones).
    pub fn snapshot_catalogue(&self) -> Vec<String> {
        self.backup_api
            .group_snapshots
            .list_namespace(&self.namespace)
            .filter(|g| g.ready)
            .map(|g| g.meta.name.clone())
            .collect()
    }

    /// Array groups currently configured by the replication plugin.
    pub fn groups(&self) -> Vec<GroupId> {
        self.repl_plugin.all_groups()
    }

    // ----- the three demo steps --------------------------------------------

    /// Step D1 (Figs. 3–4): the user tags the namespace; the operator and
    /// plugins configure ADC with a consistency group; claims appear at the
    /// backup site.
    pub fn step1_configure_backup(&mut self) -> (ConvergenceReport, ConvergenceReport) {
        let ns = self.namespace.clone();
        self.log(format!(
            "--- step 1: user tags namespace '{ns}' with {BACKUP_TAG_KEY}={BACKUP_TAG_VALUE}"
        ));
        let before = self.backup_api.pvcs.len();
        self.log(format!("    backup-site claims before tagging: {before}"));
        tag_namespace(&mut self.main_api, &ns);
        let main = self.reconcile_main();
        let backup = self.reconcile_backup();
        let after = self.backup_api.pvcs.len();
        self.log(format!(
            "    operator converged in {} round(s), {} API mutation(s)",
            main.rounds, main.mutations
        ));
        self.log(format!("    backup-site claims after tagging:  {after}"));
        for line in self.main_api.event_tail(8) {
            self.log(format!("    main    | {line}"));
        }
        for line in self.backup_api.event_tail(8) {
            self.log(format!("    backup  | {line}"));
        }
        self.log_storage_status();
        (main, backup)
    }

    /// Start the transactional application (the left-half "transaction
    /// window" of Fig. 2) and run for `duration`.
    pub fn run_workload_for(&mut self, duration: SimDuration) {
        self.log(format!(
            "--- transactions running for {duration} (clients={})",
            self.world.app().gen.config.clients
        ));
        start_clients(&mut self.world, &mut self.sim);
        self.sim.run_for(&mut self.world, duration);
        let app = self.world.app();
        let summary = app.metrics.txn_latency.summary();
        let committed = app.metrics.committed_orders;
        let per_flush = app.commits_per_flush();
        self.log(format!(
            "    committed={committed} c/flush={per_flush:.2} latency: {}",
            summary.display_nanos()
        ));
    }

    /// Step D2 (Fig. 5): create a `VolumeGroupSnapshot` on the backup
    /// platform and reconcile it into an atomic array snapshot group.
    /// Returns `(claim name, snapshot handle)` pairs.
    pub fn step2_develop_snapshot(&mut self, name: &str) -> Vec<(String, u64)> {
        let ns = self.namespace.clone();
        self.log(format!(
            "--- step 2: snapshot development on the backup site ('{name}')"
        ));
        self.backup_api.group_snapshots.create(VolumeGroupSnapshot {
            meta: ObjectMeta::namespaced(&ns, name),
            selector: Default::default(), // every claim in the namespace
            ready: false,
            snapshot_handles: Vec::new(),
        });
        self.reconcile_backup();
        let handles = self
            .backup_api
            .group_snapshots
            .get(&format!("{ns}/{name}"))
            .map(|g| g.snapshot_handles.clone())
            .unwrap_or_default();
        self.log(format!(
            "    group snapshot ready: {} member volume(s)",
            handles.len()
        ));
        handles
    }

    /// Step D3 (Fig. 6): open the snapshot volumes read-only and run the
    /// analytics application.
    pub fn step3_analytics(
        &mut self,
        handles: &[(String, u64)],
        top_k: usize,
    ) -> Result<AnalyticsReport, RecoveryError> {
        self.log("--- step 3: data analytics on the snapshot volumes");
        let find = |name: &str| -> SnapshotId {
            handles
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, h)| SnapshotId(h))
                .unwrap_or_else(|| panic!("snapshot for {name} missing"))
        };
        let arr = self.world.st.array(self.backup_array);
        let app = self.world.app();
        let (sales, stock) =
            app.open_image(VOLUME_NAMES.map(|name| SnapshotView::new(arr, find(name))));
        let ((sales, _), (stock, _)) = (sales?, stock?);
        // The analytics scan is a real client of the backup image: when
        // history recording is on, it enters the op history as a
        // mid-run backup observation.
        record_shop_scan(
            &self.world.st.history,
            process::BACKUP_READER,
            self.sim.now(),
            Site::Backup,
            &sales,
            &stock,
            app.gen.config.initial_stock,
        );
        let report = tsuru_analytics::run_analytics(&sales, &stock, top_k);
        for line in report.render() {
            self.log(format!("    {line}"));
        }
        Ok(report)
    }

    // ----- disaster & recovery ----------------------------------------------

    /// Inject a main-site disaster now.
    pub fn fail_main_site(&mut self) {
        let now = self.sim.now();
        self.log(format!("!!! main-site disaster at {now}"));
        self.world.st.fail_array(self.main_array, now);
    }

    /// Failover to the backup site: promote groups, verify consistency,
    /// compute RPO against `failure_time`, and measure RTO as the simulated
    /// time the failover procedure consumed.
    pub fn failover(&mut self, failure_time: SimTime) -> FailoverReport {
        let start = self.sim.now();
        let groups = self.groups();
        let mut applied = 0;
        for &g in &groups {
            applied += self.world.st.promote_group(g);
        }
        // Promotion is an operator procedure: charge one reconcile round
        // per group.
        self.charge_reconcile(groups.len() as u32);
        let consistency = self.world.st.verify_consistency(&groups);
        let rpo = self.world.st.rpo_report(&groups, failure_time);
        let rto = self.sim.now() - start;
        self.log(format!(
            "    failover: {} group(s) promoted, {applied} journal entries applied, \
             consistent={}, lost_writes={}, rpo={}, rto={rto}",
            groups.len(),
            consistency.is_consistent(),
            rpo.lost_writes,
            rpo.rpo
        ));
        FailoverReport {
            consistency,
            rpo,
            rto,
            entries_applied_at_promote: applied,
        }
    }

    /// Recover the business process from the backup site's live replica
    /// volumes (after failover) and run the business-level checks.
    pub fn recover_business(&mut self) -> RecoveryOutcome {
        let ns = self.namespace.clone();
        let arr = self.world.st.array(self.backup_array);
        let replica = |name: &str| {
            let claim_key = format!("{ns}/{name}");
            let vol = arr
                .volume_ids()
                .into_iter()
                .find(|&v| arr.volume(v).name() == claim_key)
                .unwrap_or_else(|| panic!("replica volume for {claim_key} missing"));
            VolumeView::new(arr, vol)
        };
        let app = self.world.app();
        let outcome = app.recover_image(VOLUME_NAMES.map(replica));
        // What a client of the promoted replica actually observes,
        // recorded into the op history (if enabled). A replica that
        // will not crash-recover is recorded as a failed observation —
        // the strongest client-visible collapse.
        let hist = &self.world.st.history;
        let now = self.sim.now();
        if let (Ok((s, _)), Ok((t, _))) = (&outcome.sales, &outcome.stock) {
            let initial_stock = app.gen.config.initial_stock;
            record_shop_scan(hist, process::JUDGE, now, Site::Backup, s, t, initial_stock);
        } else if hist.is_enabled() {
            let op = hist.invoke(process::JUDGE, now, OpData::ReadShop { site: Site::Backup });
            hist.fail(process::JUDGE, op, now, OpData::None);
        }
        self.log(format!(
            "    business recovery: sales={}, stock={}, cross-db consistent={}",
            outcome.sales.is_ok(),
            outcome.stock.is_ok(),
            outcome.fully_consistent()
        ));
        outcome
    }

    /// Judge the recorded op history with the full checker suite.
    ///
    /// Meaningful after the workload ran with history recording on
    /// (`self.world.st.set_history(Recorder::enabled())` before
    /// [`Self::run_workload_for`]): every order the clients placed and
    /// every image observation ([`Self::step3_analytics`],
    /// [`Self::recover_business`]) is in the history, so the verdict is
    /// the client's answer to "did the backup lie to anyone?".
    pub fn history_verdict(&self) -> Verdict {
        check_history(&self.world.st.history.history(), &CheckConfig::default())
    }

    /// The storage administrator's view: replication and pool status
    /// tables (the array's `pairdisplay`, rendered into the transcript).
    pub fn log_storage_status(&mut self) {
        for line in tsuru_storage::render_replication_status(&self.world.st) {
            self.transcript.push(format!("    {line}"));
        }
        for line in tsuru_storage::render_pool_status(&self.world.st) {
            self.transcript.push(format!("    {line}"));
        }
    }

    /// The demo console screen (Fig. 2): claims on both sites plus the
    /// recent event feeds.
    pub fn console_screen(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push("┌─ main site ───────────────────────┬─ backup site ─────────────────────".into());
        let left: Vec<String> = self
            .main_api
            .pvcs
            .list()
            .map(|p| format!("{} [{:?}]", p.meta.key(), p.phase))
            .collect();
        let right: Vec<String> = self
            .backup_api
            .pvcs
            .list()
            .map(|p| format!("{} [{:?}]", p.meta.key(), p.phase))
            .collect();
        let n = left.len().max(right.len()).max(1);
        for i in 0..n {
            out.push(format!(
                "│ {:<34}│ {:<34}",
                left.get(i).map(String::as_str).unwrap_or(""),
                right.get(i).map(String::as_str).unwrap_or("")
            ));
        }
        out.push("└───────────────────────────────────┴───────────────────────────────────".into());
        out
    }
}

/// Outcome of a failover.
#[derive(Debug)]
pub struct FailoverReport {
    /// Storage-level write-order-fidelity verdict.
    pub consistency: ConsistencyReport,
    /// Storage-level recovery point.
    pub rpo: RpoReport,
    /// Simulated time the failover procedure took.
    pub rto: SimDuration,
    /// Journal entries drained during promotion.
    pub entries_applied_at_promote: u64,
}
