//! Unit-level tests of the replication plugin, backup importer and
//! snapshot plugin against a live storage world.

use std::collections::BTreeMap;

use tsuru_container::{
    ApiServer, ClaimPhase, ControllerManager, ObjectMeta, PersistentVolumeClaim, Provisioner,
    ReplicationGroup, ReplicationMode, ReplicationState, StorageClass, VolumeGroupSnapshot,
    VolumeReplication, VolumeSnapshot,
};
use tsuru_plugin::{
    BackupSiteImporter, ReplicationPlugin, ReplicationPluginConfig, SnapshotPlugin,
    TsuruBlockDriver,
};
use tsuru_sim::SimTime;
use tsuru_simnet::LinkConfig;
use tsuru_storage::{ArrayId, ArrayPerf, EngineConfig, GroupMode, StorageWorld};

struct Fixture {
    st: StorageWorld,
    api: ApiServer,
    backup: ArrayId,
    prov: Provisioner<TsuruBlockDriver>,
    repl: ReplicationPlugin,
}

fn fixture() -> Fixture {
    let mut st = StorageWorld::new(3, EngineConfig::default());
    let main = st.add_array("m", ArrayPerf::default());
    let backup = st.add_array("b", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let reverse = st.add_link(LinkConfig::metro());
    let mut api = ApiServer::new();
    api.storage_classes.create(StorageClass {
        meta: ObjectMeta::cluster("tsuru-block"),
        provisioner: "csi.test".into(),
        parameters: BTreeMap::new(),
    });
    let prov = Provisioner::new(TsuruBlockDriver::new(main, "csi.test"));
    let repl = ReplicationPlugin::new(ReplicationPluginConfig {
        main_array: main,
        backup_array: backup,
        link,
        reverse,
        journal_capacity_bytes: 1 << 20,
    });
    Fixture {
        st,
        api,
        backup,
        prov,
        repl,
    }
}

fn add_pvc(api: &mut ApiServer, ns: &str, name: &str) {
    api.pvcs.create(PersistentVolumeClaim {
        meta: ObjectMeta::namespaced(ns, name),
        storage_class: "tsuru-block".into(),
        size_blocks: 32,
        phase: ClaimPhase::Pending,
        volume_name: None,
    });
}

fn add_rg(api: &mut ApiServer, ns: &str, members: &[&str], cg: bool, mode: ReplicationMode) {
    api.replication_groups.create(ReplicationGroup {
        meta: ObjectMeta::namespaced(ns, "grp"),
        mode,
        consistency_group: cg,
        member_pvcs: members.iter().map(|s| s.to_string()).collect(),
        state: ReplicationState::Unknown,
        group_handles: Vec::new(),
    });
    for m in members {
        api.replications.create(VolumeReplication {
            meta: ObjectMeta::namespaced(ns, format!("{m}-repl")),
            source_pvc: m.to_string(),
            group_name: "grp".into(),
            state: ReplicationState::Unknown,
            pair_handle: None,
        });
    }
}

#[test]
fn replication_plugin_builds_cg_pairs_and_status() {
    let mut f = fixture();
    add_pvc(&mut f.api, "ns", "a");
    add_pvc(&mut f.api, "ns", "b");
    add_rg(&mut f.api, "ns", &["a", "b"], true, ReplicationMode::Async);
    let report = ControllerManager::run_to_convergence(
        &mut f.api,
        &mut f.st,
        &mut [&mut f.prov, &mut f.repl],
        32,
    );
    assert!(report.converged);
    assert_eq!(f.repl.pairs_created, 2);
    // One CG shared by both pairs, in Async mode.
    let groups = f.repl.all_groups();
    assert_eq!(groups.len(), 1);
    let g = f.st.fabric.group(groups[0]);
    assert_eq!(g.mode, GroupMode::Adc);
    assert_eq!(g.pairs.len(), 2);
    // Status rolled up.
    let rg = f.api.replication_groups.get("ns/grp").unwrap();
    assert_eq!(rg.state, ReplicationState::Replicating);
    assert_eq!(rg.group_handles.len(), 1);
    let vr = f.api.replications.get("ns/a-repl").unwrap();
    assert_eq!(vr.state, ReplicationState::Replicating);
    assert!(vr.pair_handle.is_some());
}

#[test]
fn replication_plugin_naive_mode_one_group_per_member() {
    let mut f = fixture();
    for name in ["a", "b", "c"] {
        add_pvc(&mut f.api, "ns", name);
    }
    add_rg(
        &mut f.api,
        "ns",
        &["a", "b", "c"],
        false,
        ReplicationMode::Async,
    );
    ControllerManager::run_to_convergence(
        &mut f.api,
        &mut f.st,
        &mut [&mut f.prov, &mut f.repl],
        32,
    );
    assert_eq!(f.repl.all_groups().len(), 3, "one group per member");
    for &g in &f.repl.all_groups() {
        assert_eq!(f.st.fabric.group(g).pairs.len(), 1);
    }
}

#[test]
fn replication_plugin_sync_mode_builds_sdc_groups() {
    let mut f = fixture();
    add_pvc(&mut f.api, "ns", "a");
    add_rg(&mut f.api, "ns", &["a"], true, ReplicationMode::Sync);
    ControllerManager::run_to_convergence(
        &mut f.api,
        &mut f.st,
        &mut [&mut f.prov, &mut f.repl],
        32,
    );
    let groups = f.repl.all_groups();
    assert_eq!(groups.len(), 1);
    assert_eq!(f.st.fabric.group(groups[0]).mode, GroupMode::Sdc);
}

#[test]
fn replication_plugin_waits_for_binding() {
    let mut f = fixture();
    add_pvc(&mut f.api, "ns", "a");
    add_rg(&mut f.api, "ns", &["a"], true, ReplicationMode::Async);
    // Run the replication plugin alone: the claim is still Pending, so no
    // pair can be created — and the controller must not wedge.
    let report =
        ControllerManager::run_to_convergence(&mut f.api, &mut f.st, &mut [&mut f.repl], 8);
    assert!(report.converged);
    assert_eq!(f.repl.pairs_created, 0);
    // Once the provisioner binds, the pair appears.
    ControllerManager::run_to_convergence(
        &mut f.api,
        &mut f.st,
        &mut [&mut f.prov, &mut f.repl],
        8,
    );
    assert_eq!(f.repl.pairs_created, 1);
}

#[test]
fn teardown_detaches_pairs_when_crs_vanish() {
    let mut f = fixture();
    add_pvc(&mut f.api, "ns", "a");
    add_rg(&mut f.api, "ns", &["a"], true, ReplicationMode::Async);
    ControllerManager::run_to_convergence(
        &mut f.api,
        &mut f.st,
        &mut [&mut f.prov, &mut f.repl],
        16,
    );
    assert_eq!(f.repl.pairs_created, 1);
    let g = f.repl.all_groups()[0];
    assert_eq!(f.st.fabric.group(g).pairs.len(), 1);

    f.api.replications.delete("ns/a-repl");
    f.api.replication_groups.delete("ns/grp");
    ControllerManager::run_to_convergence(&mut f.api, &mut f.st, &mut [&mut f.repl], 16);
    assert_eq!(f.repl.pairs_removed, 1);
    assert_eq!(f.st.fabric.group(g).pairs.len(), 0);
    assert!(f.repl.all_groups().is_empty(), "group tracking forgotten");
}

#[test]
fn restarted_plugin_adopts_existing_pairs_instead_of_recreating() {
    let mut f = fixture();
    add_pvc(&mut f.api, "ns", "a");
    add_pvc(&mut f.api, "ns", "b");
    add_rg(&mut f.api, "ns", &["a", "b"], true, ReplicationMode::Async);
    ControllerManager::run_to_convergence(
        &mut f.api,
        &mut f.st,
        &mut [&mut f.prov, &mut f.repl],
        32,
    );
    assert_eq!(f.repl.pairs_created, 2);
    let groups_before = f.repl.all_groups();

    // Controller restart: in-memory maps are gone; CR status (pair_handle,
    // group_handles) is the durable record. Without adoption the next
    // reconcile would panic trying to re-pair already-replicating volumes.
    f.repl.restart();
    assert!(f.repl.all_groups().is_empty());
    let report =
        ControllerManager::run_to_convergence(&mut f.api, &mut f.st, &mut [&mut f.repl], 16);
    assert!(report.converged);
    assert_eq!(f.repl.pairs_created, 2, "no pair may be re-created");
    assert_eq!(f.repl.all_groups(), groups_before, "groups re-adopted");
    assert_eq!(f.st.fabric.group(groups_before[0]).pairs.len(), 2);
    // Status stays rolled up and teardown still works after adoption.
    let rg = f.api.replication_groups.get("ns/grp").unwrap();
    assert_eq!(rg.state, ReplicationState::Replicating);
    f.api.replications.delete("ns/a-repl");
    ControllerManager::run_to_convergence(&mut f.api, &mut f.st, &mut [&mut f.repl], 16);
    assert_eq!(f.repl.pairs_removed, 1);
    assert_eq!(f.st.fabric.group(groups_before[0]).pairs.len(), 1);
}

#[test]
fn importer_surfaces_and_withdraws_claims() {
    let mut f = fixture();
    add_pvc(&mut f.api, "shop", "db-vol");
    add_rg(
        &mut f.api,
        "shop",
        &["db-vol"],
        true,
        ReplicationMode::Async,
    );
    ControllerManager::run_to_convergence(
        &mut f.api,
        &mut f.st,
        &mut [&mut f.prov, &mut f.repl],
        16,
    );

    let mut backup_api = ApiServer::new();
    let mut importer = BackupSiteImporter::new(f.backup);
    ControllerManager::run_to_convergence(&mut backup_api, &mut f.st, &mut [&mut importer], 16);
    assert!(backup_api.pvcs.contains("shop/db-vol"));
    assert!(backup_api.namespaces.contains("shop"));
    let pvc = backup_api.pvcs.get("shop/db-vol").unwrap();
    assert_eq!(pvc.phase, ClaimPhase::Bound);
    let pv = backup_api
        .pvs
        .get(pvc.volume_name.as_deref().unwrap())
        .unwrap();
    assert_eq!(pv.handle.array, f.backup.0);

    // Tear replication down: the imported claim disappears.
    f.api.replications.delete("shop/db-vol-repl");
    f.api.replication_groups.delete("shop/grp");
    ControllerManager::run_to_convergence(&mut f.api, &mut f.st, &mut [&mut f.repl], 16);
    ControllerManager::run_to_convergence(&mut backup_api, &mut f.st, &mut [&mut importer], 16);
    assert!(!backup_api.pvcs.contains("shop/db-vol"));
}

#[test]
fn snapshot_plugin_handles_single_and_group_snapshots() {
    let mut st = StorageWorld::new(4, EngineConfig::default());
    let backup = st.add_array("b", ArrayPerf::default());
    st.set_control_time(SimTime::from_secs(3));
    let mut api = ApiServer::new();
    api.storage_classes.create(StorageClass {
        meta: ObjectMeta::cluster("tsuru-block"),
        provisioner: "csi.test".into(),
        parameters: BTreeMap::new(),
    });
    // Two bound claims on the backup array.
    let mut prov = Provisioner::new(TsuruBlockDriver::new(backup, "csi.test"));
    add_pvc(&mut api, "shop", "v1");
    add_pvc(&mut api, "shop", "v2");
    ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut prov], 8);

    let mut snap = SnapshotPlugin::new(backup);
    api.snapshots.create(VolumeSnapshot {
        meta: ObjectMeta::namespaced("shop", "one"),
        source_pvc: "v1".into(),
        ready: false,
        snapshot_handle: None,
    });
    api.group_snapshots.create(VolumeGroupSnapshot {
        meta: ObjectMeta::namespaced("shop", "all"),
        selector: BTreeMap::new(),
        ready: false,
        snapshot_handles: Vec::new(),
    });
    let report = ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut snap], 8);
    assert!(report.converged);
    let s = api.snapshots.get("shop/one").unwrap();
    assert!(s.ready);
    assert!(s.snapshot_handle.is_some());
    let g = api.group_snapshots.get("shop/all").unwrap();
    assert!(g.ready);
    assert_eq!(g.snapshot_handles.len(), 2);
    assert_eq!(snap.snapshots_taken, 3);
    // Group members share one array snapshot-group id and the control time.
    let h0 = tsuru_storage::SnapshotId(g.snapshot_handles[0].1);
    let h1 = tsuru_storage::SnapshotId(g.snapshot_handles[1].1);
    let arr = st.array(backup);
    assert_eq!(arr.snapshot(h0).group(), arr.snapshot(h1).group());
    assert!(arr.snapshot(h0).group().is_some());
    assert_eq!(arr.snapshot(h0).created_at(), SimTime::from_secs(3));
}

#[test]
fn snapshot_plugin_with_selector_filters_members() {
    let mut st = StorageWorld::new(4, EngineConfig::default());
    let backup = st.add_array("b", ArrayPerf::default());
    let mut api = ApiServer::new();
    api.storage_classes.create(StorageClass {
        meta: ObjectMeta::cluster("tsuru-block"),
        provisioner: "csi.test".into(),
        parameters: BTreeMap::new(),
    });
    let mut prov = Provisioner::new(TsuruBlockDriver::new(backup, "csi.test"));
    // One labelled claim, one not.
    api.pvcs.create(PersistentVolumeClaim {
        meta: ObjectMeta::namespaced("shop", "tagged").with_label("tier", "db"),
        storage_class: "tsuru-block".into(),
        size_blocks: 16,
        phase: ClaimPhase::Pending,
        volume_name: None,
    });
    add_pvc(&mut api, "shop", "untagged");
    ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut prov], 8);

    let mut snap = SnapshotPlugin::new(backup);
    let mut selector = BTreeMap::new();
    selector.insert("tier".to_string(), "db".to_string());
    api.group_snapshots.create(VolumeGroupSnapshot {
        meta: ObjectMeta::namespaced("shop", "dbs-only"),
        selector,
        ready: false,
        snapshot_handles: Vec::new(),
    });
    ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut snap], 8);
    let g = api.group_snapshots.get("shop/dbs-only").unwrap();
    assert!(g.ready);
    assert_eq!(g.snapshot_handles.len(), 1);
    assert_eq!(g.snapshot_handles[0].0, "tagged");
}
