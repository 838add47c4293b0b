//! Point-in-time restore from the backup catalogue: materialize snapshot
//! generations as fresh volumes and bring the business process back to an
//! earlier consistent instant — the restore path every backup system needs
//! on top of the paper's failover story.

use tsuru_core::{BackupMode, RigConfig, TwoSiteRig};
use tsuru_ecom::ORDERS_TABLE;
use tsuru_sim::{SimDuration, SimTime};
use tsuru_storage::VolumeView;

#[test]
fn restore_rewinds_to_the_snapshot_instant_and_can_continue() {
    let mut rig = TwoSiteRig::new(RigConfig {
        seed: 77,
        mode: BackupMode::AdcConsistencyGroup,
        ..Default::default()
    });
    tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);

    // T1: freeze a generation at the backup site.
    rig.sim.run_until(&mut rig.world, SimTime::from_millis(150));
    let committed_at_t1 = rig.committed_orders();
    let snaps = rig.snapshot_backup_group("gen-1");

    // Business continues well past T1 (say, until a bad deployment that
    // corrupts the application data is noticed).
    rig.world.app_mut().stopped = true; // stop issuing at the horizon below
    rig.sim.run_until(&mut rig.world, SimTime::from_millis(400));
    let committed_at_end = {
        // drain the remaining in-flight work
        rig.sim.run(&mut rig.world);
        rig.committed_orders()
    };
    assert!(committed_at_end >= committed_at_t1);

    // Restore: materialize the generation as fresh, writable volumes.
    let backup = rig.backup;
    let restored: Vec<_> = snaps
        .iter()
        .enumerate()
        .map(|(i, &snap)| {
            rig.world
                .st
                .array_mut(backup)
                .create_volume_from_snapshot(snap, format!("restore-{i}"))
        })
        .collect();

    // Open the databases on the restored volumes.
    let arr = rig.world.st.array(backup);
    let app = rig.world.app();
    let views: [VolumeView; 4] = std::array::from_fn(|i| VolumeView::new(arr, restored[i]));
    let (sales, stock) = app.open_image(views);
    let (sales, sales_rep) = sales.expect("restored sales recovers");
    let (stock, _) = stock.expect("restored stock recovers");

    // The restored state is the T1 image: consistent, and strictly older
    // than the end state.
    let inv = app.check_image(&sales, &stock);
    assert!(inv.consistent(), "{:?}", inv.violations);
    let restored_orders = sales.scan_table(ORDERS_TABLE).len() as u64;
    assert!(restored_orders <= committed_at_t1);
    assert!(
        restored_orders < committed_at_end,
        "restore rewound past later business ({restored_orders} vs {committed_at_end})"
    );
    assert!(sales_rep.wal_end > 0 || restored_orders == 0);

    // The restored instance is fully writable: continue service on it.
    let mut sales = sales;
    let tx = sales.begin();
    sales.put(
        tx,
        ORDERS_TABLE,
        999_999,
        &tsuru_ecom::OrderRow {
            item: 1,
            quantity: 1,
            client: 0,
        }
        .encode(),
    );
    let plan = sales.commit(tx);
    assert!(!plan.is_empty());
    assert_eq!(
        sales.scan_table(ORDERS_TABLE).len() as u64,
        restored_orders + 1
    );
}

#[test]
fn restored_volume_is_independent_of_its_source() {
    let mut rig = TwoSiteRig::new(RigConfig {
        seed: 78,
        mode: BackupMode::AdcConsistencyGroup,
        ..Default::default()
    });
    tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
    rig.sim.run_until(&mut rig.world, SimTime::from_millis(100));
    let snaps = rig.snapshot_backup_group("gen");
    let backup = rig.backup;
    let restored = rig
        .world
        .st
        .array_mut(backup)
        .create_volume_from_snapshot(snaps[1], "sales-data-clone");
    let image_before = rig.world.st.array(backup).volume(restored).content_hashes();
    // Replication keeps mutating the source volume; the clone must not move.
    rig.sim
        .run_for(&mut rig.world, SimDuration::from_millis(150));
    let image_after = rig.world.st.array(backup).volume(restored).content_hashes();
    assert_eq!(image_before, image_after);
}
