//! Cross-crate integration: the full stack from container-platform tag to
//! recovered business process, exercising every crate in one flow.

use tsuru_container::{ClaimPhase, ReplicationState, BACKUP_TAG_KEY};
use tsuru_core::experiments::{e3_rpo, e4_snapshot};
use tsuru_core::{BackupMode, DemoConfig, DemoSystem, RigConfig, TrialHarness, TwoSiteRig};
use tsuru_history::Recorder;
use tsuru_nso::NsoConfig;
use tsuru_sim::{SimDuration, SimTime};

#[test]
fn tag_to_recovery_full_journey() {
    let mut demo = DemoSystem::new(DemoConfig {
        seed: 99,
        ..Default::default()
    });
    // Record every client-visible op (orders, image observations) so
    // the history checker can judge the whole journey at the end.
    demo.world.st.set_history(Recorder::enabled());

    // Claims were dynamically provisioned through the CSI driver.
    for name in tsuru_core::VOLUME_NAMES {
        let pvc = demo
            .main_api
            .pvcs
            .get(&format!("shop/{name}"))
            .expect("claim exists");
        assert_eq!(pvc.phase, ClaimPhase::Bound, "{name} bound");
    }

    // Tag → operator → plugin → array pairs → backup-site claims.
    demo.step1_configure_backup();
    assert_eq!(demo.groups().len(), 1);
    for vr in demo.main_api.replications.list() {
        assert_eq!(vr.state, ReplicationState::Replicating);
        assert!(vr.pair_handle.is_some());
    }

    // Business runs; snapshots; analytics; disaster; recovery.
    demo.run_workload_for(SimDuration::from_millis(150));
    let handles = demo.step2_develop_snapshot("pit");
    assert_eq!(handles.len(), 4);
    let analytics = demo.step3_analytics(&handles, 3).expect("consistent image");
    assert!(analytics.order_count > 0);

    let fail_at = demo.sim.now();
    demo.fail_main_site();
    demo.sim
        .run_until(&mut demo.world, fail_at + SimDuration::from_millis(80));
    let failover = demo.failover(fail_at);
    assert!(failover.consistency.is_consistent());
    let business = demo.recover_business();
    assert!(business.fully_consistent());
    let orders = business.orders.expect("orders counted");
    assert!(orders.recovered > 0);
    assert!(orders.recovered + orders.lost == orders.committed);

    // The engine counters say the recovery worked; the client-visible
    // oracle must agree. The history holds every placed order plus two
    // image observations (the analytics scan and the DR recovery), and
    // no checker may find an anomaly in a consistency-group journey.
    let verdict = demo.history_verdict();
    assert!(verdict.records > 0, "history must have been recorded");
    assert!(verdict.ops_checked() > 0, "checkers must have had work");
    assert!(verdict.is_clean(), "{}", verdict.render());
}

#[test]
fn untagging_tears_everything_down() {
    let mut demo = DemoSystem::new(DemoConfig::default());
    demo.step1_configure_backup();
    assert_eq!(demo.backup_api.pvcs.len(), 4);
    let pairs_before: usize = demo
        .groups()
        .iter()
        .map(|&g| demo.world.st.fabric.group(g).pairs.len())
        .sum();
    assert_eq!(pairs_before, 4);

    // Untag: the operator deletes the CRs; the plugin detaches the pairs;
    // the importer withdraws the backup-site claims.
    demo.main_api.namespaces.update("shop", |ns| {
        ns.meta.labels.remove(BACKUP_TAG_KEY);
        true
    });
    demo.reconcile_main();
    demo.reconcile_backup();

    assert_eq!(demo.main_api.replication_groups.len(), 0);
    assert_eq!(demo.main_api.replications.len(), 0);
    let pairs_after: usize = demo
        .groups()
        .iter()
        .map(|&g| demo.world.st.fabric.group(g).pairs.len())
        .sum();
    assert_eq!(pairs_after, 0, "pairs detached on the array");
    assert_eq!(demo.backup_api.pvcs.len(), 0, "backup claims withdrawn");
}

#[test]
fn retagging_reconfigures_cleanly() {
    let mut demo = DemoSystem::new(DemoConfig::default());
    demo.step1_configure_backup();
    demo.main_api.namespaces.update("shop", |ns| {
        ns.meta.labels.remove(BACKUP_TAG_KEY);
        true
    });
    demo.reconcile_main();
    demo.reconcile_backup();
    // Tag again: a fresh configuration must converge.
    let (main, backup) = demo.step1_configure_backup();
    assert!(main.converged && backup.converged);
    assert_eq!(demo.backup_api.pvcs.len(), 4);
    // Workload still runs and replicates.
    demo.run_workload_for(SimDuration::from_millis(80));
    assert!(demo.world.app().metrics.committed_orders > 0);
}

#[test]
fn naive_demo_system_collapses_under_the_right_conditions() {
    // The same DemoSystem but with the operator in naive (per-volume) mode
    // and skewed replication sessions: across a handful of seeds, several
    // drills must show write-order infidelity — and the CG mode none. (A
    // drill collapses when the failure catches the sessions apart: 22 of
    // the 32 seeds 20..52 do, 26 did before commits shared log flushes,
    // DESIGN.md §20. The bars are the counts measured on these seeds, as
    // the old ones were — seeds 31..35 collapsed twice and the bar was 2;
    // they collapse once now, so the test takes eight: 5 byte-level and 4
    // client-visible collapses, 6 and 4 before.)
    // The history checker must reach the same verdict as the engine-level
    // invariant on every drill: a collapse is real when a *client* of the
    // recovered replica can observe it, not just when internal counters say
    // so.
    let mut naive_bad = 0;
    let mut client_visible = 0;
    for seed in 31u64..39 {
        let mut cfg = DemoConfig {
            seed,
            nso: NsoConfig {
                consistency_group: false,
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.engine.pump_jitter = SimDuration::from_millis(2);
        // Dense writes make the skew windows observable.
        cfg.workload.think_time_mean = SimDuration::from_millis(1);
        let mut demo = DemoSystem::new(cfg);
        demo.world.st.set_history(Recorder::enabled());
        demo.step1_configure_backup();
        demo.run_workload_for(SimDuration::from_millis(120));
        let fail_at = demo.sim.now();
        demo.fail_main_site();
        demo.sim
            .run_until(&mut demo.world, fail_at + SimDuration::from_millis(100));
        let failover = demo.failover(fail_at);
        if !failover.consistency.prefix.consistent {
            naive_bad += 1;
        }
        let business = demo.recover_business();
        let verdict = demo.history_verdict();
        assert_eq!(
            verdict.is_clean(),
            business.fully_consistent(),
            "seed {seed}: history checker and cross-db invariant disagree:\n{}",
            verdict.render()
        );
        if !verdict.is_clean() {
            client_visible += 1;
        }
    }
    assert!(
        naive_bad >= 5,
        "naive mode should usually collapse: {naive_bad}/8"
    );
    assert!(
        client_visible >= 3,
        "several drills must collapse in a way a client can see: \
         {client_visible}/8 (byte-level: {naive_bad}/8)"
    );
}

#[test]
fn e3_rpo_shrinks_with_bandwidth() {
    let rows = e3_rpo(&TrialHarness::serial(), 5, &[50, 1000], &[64]).rows;
    let slow = rows
        .iter()
        .find(|r| r.mode == "adc-cg" && r.bandwidth_mbps == 50)
        .unwrap();
    let fast = rows
        .iter()
        .find(|r| r.mode == "adc-cg" && r.bandwidth_mbps == 1000)
        .unwrap();
    assert!(
        slow.lost_orders > fast.lost_orders,
        "slow {slow:?} vs fast {fast:?}"
    );
    let sdc = rows.iter().find(|r| r.mode == "sdc").unwrap();
    assert_eq!(sdc.lost_orders, 0, "SDC is the zero-loss reference");
}

#[test]
fn e4_atomicity_matters() {
    let rows = e4_snapshot(17);
    let atomic = rows.iter().find(|r| r.scenario == "group-atomic").unwrap();
    assert!(atomic.image_consistent, "{atomic:?}");
    assert!(atomic.analytics_orders > 0);
    assert!(atomic.analytics_orders < atomic.committed_at_end);
    // The non-atomic scenario is allowed to be consistent by luck on some
    // seeds, but the atomic one must always be consistent.
}

#[test]
fn sdc_mode_through_the_demo_system() {
    let mut cfg = DemoConfig::default();
    cfg.nso.mode = tsuru_container::ReplicationMode::Sync;
    let mut demo = DemoSystem::new(cfg);
    demo.step1_configure_backup();
    demo.run_workload_for(SimDuration::from_millis(100));
    let committed = demo.world.app().metrics.committed_orders;
    assert!(committed > 0);
    // SDC latency is visibly higher than the ADC default (metro 2 ms one
    // way → ≥ 4 ms per database commit).
    let p50 = demo.world.app().metrics.txn_latency.summary().p50;
    assert!(
        p50 > 8_000_000,
        "two SDC commits per order must cost ≥ 2 RTTs, got {p50}ns"
    );
    // And nothing is lost at failover.
    let fail_at = demo.sim.now();
    demo.fail_main_site();
    demo.sim
        .run_until(&mut demo.world, fail_at + SimDuration::from_millis(50));
    demo.failover(fail_at);
    let business = demo.recover_business();
    assert!(business.fully_consistent());
    assert_eq!(business.orders.unwrap().lost, 0);
}

#[test]
fn rig_modes_have_distinct_latency_signatures() {
    let mut results = Vec::new();
    for mode in [
        BackupMode::None,
        BackupMode::AdcConsistencyGroup,
        BackupMode::AdcPerVolume,
        BackupMode::Sdc,
    ] {
        let mut rig = TwoSiteRig::new(RigConfig {
            seed: 8,
            mode,
            ..Default::default()
        });
        rig.world.app_mut().stop_after_orders = Some(200);
        tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
        rig.sim.run_until(&mut rig.world, SimTime::from_secs(30));
        results.push((mode.label(), rig.latency_summary().p50));
    }
    let p50 = |label: &str| results.iter().find(|(l, _)| *l == label).unwrap().1;
    // Both ADC flavours match the unprotected baseline; SDC does not.
    assert_eq!(p50("none"), p50("adc-cg"));
    assert_eq!(p50("none"), p50("adc-naive"));
    assert!(p50("sdc") > p50("none") * 10);
}

/// The ledger's Finding 1, as a test: 64 clients and a WAL that checkpoints
/// under load with a tree big enough that the checkpoint's page phase
/// (hundreds of 100 µs writes) outlasts the filling of the new epoch's
/// first log block. At an arbitrary instant the main site's *own* volumes
/// must hold every order the business acknowledged. Before each database
/// had one log flusher (DESIGN.md §20) the checkpointing commit's image of
/// WAL block 0 — one record — was written after the page phase, over the
/// full block later commits had written meanwhile, and the log ended there:
/// the parent commit recovers 13 751 of the 14 748 orders it acknowledged
/// here, `redo_records = 1`.
#[test]
fn acknowledged_orders_survive_in_load_checkpoints_at_the_main_site() {
    let mut cfg = RigConfig {
        seed: 17,
        mode: BackupMode::AdcConsistencyGroup,
        ..Default::default()
    };
    cfg.workload.clients = 64;
    cfg.db.wal_blocks = 128;
    let mut rig = TwoSiteRig::new(cfg);
    rig.run_workload_for(SimDuration::from_millis(1_500));
    let sales = rig.world.app().sales.db.stats();
    assert!(sales.checkpoints >= 3, "checkpoints under load: {sales:?}");
    assert!(sales.max_group >= 2, "commits share flushes: {sales:?}");
    let committed = rig.committed_orders();

    let at_main = rig.recover_from(rig.main, &rig.vols);
    assert!(at_main.fully_consistent());
    let (_, report) = at_main.sales.as_ref().expect("sales recovers");
    assert!(
        report.redo_records > 1,
        "the log reaches past the checkpoint: {report:?}"
    );
    let orders = at_main.orders.expect("sales recovers");
    assert_eq!(
        (orders.committed, orders.lost),
        (committed, 0),
        "every acknowledged order is on the main site's volumes"
    );
}

/// Clients that think "forever" are scheduled at the end of time, not in
/// the past: each places the order it starts with, the run ends, and those
/// orders commit. (Scheduling the next think used to compute `now + think`
/// unchecked — a panic in debug builds, a wrap in release.)
#[test]
fn clients_that_think_forever_place_their_first_order_and_the_run_ends() {
    let mut cfg = RigConfig::default();
    cfg.workload.think_time_mean = SimDuration::MAX;
    let clients = cfg.workload.clients as u64;
    let mut rig = TwoSiteRig::new(cfg);
    rig.run_workload_for(SimDuration::from_millis(50));
    let orders = rig.committed_orders();
    assert!(
        orders > 0 && orders <= clients,
        "{orders} orders from {clients} clients"
    );
    // Quiesce as a chaos trial does: the thinks parked at the end of time
    // dispatch, see the workload stopped, and the kernel runs dry.
    rig.world.app_mut().stopped = true;
    rig.sim.run(&mut rig.world);
    assert_eq!(rig.sim.next_event_time(), None);
    assert_eq!(rig.committed_orders(), orders);
}

#[test]
fn operator_handles_many_namespaces_independently() {
    // The paper's motivation: "hundreds of volumes ... used in hundreds of
    // applications". Several namespaces share the platform; only tagged
    // ones are protected, each in its own consistency group.
    use tsuru_container::{Namespace, ObjectMeta, PersistentVolumeClaim};
    let mut demo = DemoSystem::new(DemoConfig::default());
    for i in 0..6 {
        let ns = format!("tenant-{i}");
        demo.main_api.namespaces.create(Namespace {
            meta: ObjectMeta::cluster(&ns),
        });
        for v in 0..3 {
            demo.main_api.pvcs.create(PersistentVolumeClaim {
                meta: ObjectMeta::namespaced(&ns, format!("vol-{v}")),
                storage_class: "tsuru-block".into(),
                size_blocks: 32,
                phase: ClaimPhase::Pending,
                volume_name: None,
            });
        }
        // Tag the even tenants only.
        if i % 2 == 0 {
            demo.main_api.namespaces.update(&ns, |n| {
                n.meta.labels.insert(
                    BACKUP_TAG_KEY.into(),
                    tsuru_container::BACKUP_TAG_VALUE.into(),
                );
                true
            });
        }
    }
    let report = demo.reconcile_main();
    assert!(report.converged);
    demo.reconcile_backup();

    // Three tagged tenants → three ReplicationGroups → three array CGs
    // (the 'shop' namespace itself is still untagged here).
    assert_eq!(demo.main_api.replication_groups.len(), 3);
    assert_eq!(demo.groups().len(), 3);
    for i in [0, 2, 4] {
        let rg = demo
            .main_api
            .replication_groups
            .get(&format!("tenant-{i}/tenant-{i}-backup"))
            .expect("tagged tenant configured");
        assert_eq!(rg.member_pvcs.len(), 3);
    }
    assert!(!demo
        .main_api
        .replication_groups
        .contains("tenant-1/tenant-1-backup"));
    // Backup site shows exactly the tagged tenants' claims.
    assert_eq!(demo.backup_api.pvcs.len(), 9);
    // Each CG is independent on the array.
    for &g in &demo.groups() {
        assert_eq!(demo.world.st.fabric.group(g).pairs.len(), 3);
    }
}
