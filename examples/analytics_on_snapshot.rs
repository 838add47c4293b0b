//! Analytics on snapshot volumes while replication keeps running (§III-A2,
//! §IV-D): the backup data is *usable*, not just stored.
//!
//! Takes a snapshot group of the backup-site volumes mid-run, keeps the
//! business running, and shows that (a) the analytics image is frozen and
//! crash-consistent, and (b) the live secondary volumes keep advancing
//! underneath it (copy-on-write).
//!
//! ```text
//! cargo run --example analytics_on_snapshot
//! ```

use tsuru_core::{BackupMode, RigConfig, TwoSiteRig};
use tsuru_sim::{SimDuration, SimTime};

fn main() {
    let mut rig = TwoSiteRig::new(RigConfig {
        seed: 13,
        mode: BackupMode::AdcConsistencyGroup,
        ..Default::default()
    });
    tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);

    // Let the business run, then freeze a point-in-time image at the
    // backup site.
    rig.sim.run_until(&mut rig.world, SimTime::from_millis(150));
    let committed_at_snapshot = rig.committed_orders();
    let snaps = rig.snapshot_backup_group("pit-analytics");
    println!(
        "snapshot group taken at t={} ({} orders committed so far)",
        rig.sim.now(),
        committed_at_snapshot
    );

    // Business keeps running for another stretch.
    rig.sim
        .run_for(&mut rig.world, SimDuration::from_millis(200));
    println!(
        "business kept running: {} orders committed by t={}",
        rig.committed_orders(),
        rig.sim.now()
    );

    // Analytics read the frozen image.
    let report = rig
        .analytics_on_snapshots(&snaps, 5)
        .expect("group snapshot image is crash-consistent");
    println!("\nanalytics on the frozen image:");
    for line in report.render() {
        println!("  {line}");
    }
    assert!(
        report.order_count <= committed_at_snapshot,
        "the snapshot must not see post-snapshot orders"
    );

    // A second, later snapshot sees strictly more history.
    let snaps2 = rig.snapshot_backup_group("pit-analytics-2");
    // (Drain replication so the second image includes the tail.)
    rig.world.app_mut().stopped = true;
    rig.sim.run(&mut rig.world);
    let report2 = rig
        .analytics_on_snapshots(&snaps2, 5)
        .expect("second snapshot is consistent too");
    println!(
        "\nsecond snapshot (taken later): {} orders vs {} in the first image",
        report2.order_count, report.order_count
    );
    assert!(report2.order_count >= report.order_count);

    let cow = rig.world.st.array(rig.backup).cow_saves();
    println!(
        "\ncopy-on-write preservations on the backup array: {cow} \
         (replication advanced under {} live snapshots)",
        snaps.len() + snaps2.len()
    );
}
