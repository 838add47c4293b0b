//! Quickstart: protect a two-database business process with asynchronous
//! data copy in a consistency group, survive a site disaster, recover.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use tsuru_core::{BackupMode, RigConfig, TwoSiteRig};
use tsuru_sim::{SimDuration, SimTime};

fn main() {
    // 1. Build the paper's deployment: two arrays, a metro link, four
    //    volumes (sales WAL/data, stock WAL/data), two databases, eight
    //    closed-loop order clients — protected by ADC in one consistency
    //    group.
    let mut rig = TwoSiteRig::new(RigConfig {
        seed: 7,
        mode: BackupMode::AdcConsistencyGroup,
        ..Default::default()
    });
    println!("deployment up: {} replication group(s)", rig.groups.len());

    // 2. Run the business and break the main site mid-flight.
    let fail_at = SimTime::from_millis(250);
    rig.schedule_main_failure(fail_at);
    tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
    rig.sim
        .run_until(&mut rig.world, fail_at + SimDuration::from_millis(200));

    let committed = rig.committed_orders();
    let latency = rig.latency_summary();
    println!("orders committed before the disaster: {committed}");
    println!("transaction latency: {}", latency.display_nanos());

    // 3. Fail over to the backup site.
    let (consistency, rpo) = rig.failover(fail_at);
    println!(
        "failover: write-order-faithful = {}, lost writes = {}, rpo = {}",
        consistency.is_consistent(),
        rpo.lost_writes,
        rpo.rpo
    );

    // 4. Recover the databases from the replicated volumes and verify the
    //    business-level invariant.
    let outcome = rig.recover_from_backup();
    let invariant = outcome.invariant.as_ref().expect("both DBs recover");
    let orders = outcome.orders.as_ref().expect("sales DB recovered");
    println!(
        "recovery: sales ok = {}, stock ok = {}, cross-db consistent = {}",
        outcome.sales.is_ok(),
        outcome.stock.is_ok(),
        invariant.consistent()
    );
    println!(
        "business RPO: {} of {} committed orders survived ({} lost)",
        orders.recovered, orders.committed, orders.lost
    );
    assert!(
        invariant.consistent(),
        "a consistency group never collapses"
    );
}
