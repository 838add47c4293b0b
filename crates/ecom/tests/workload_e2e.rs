//! End-to-end: the e-commerce workload over replicated storage, site
//! failure, failover, recovery, and the collapse/no-collapse dichotomy.

#![allow(clippy::field_reassign_with_default)]

use tsuru_ecom::driver::start_clients;
use tsuru_ecom::{EcomState, HasEcom, RecoveryOutcome, WorkloadConfig};
use tsuru_minidb::DbConfig;
use tsuru_sim::{DetRng, Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::{
    ArrayId, ArrayPerf, EngineConfig, GroupId, HasStorage, SnapshotId, SnapshotView, StorageWorld,
    VolRef, VolumeView,
};

struct World {
    st: StorageWorld,
    ecom: EcomState,
}

impl HasStorage for World {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

impl HasEcom for World {
    fn ecom(&self) -> &EcomState {
        &self.ecom
    }
    fn ecom_mut(&mut self) -> &mut EcomState {
        &mut self.ecom
    }
}

struct Rig {
    world: World,
    sim: Sim<World>,
    main: ArrayId,
    backup: ArrayId,
    /// (sales wal, sales data, stock wal, stock data) on the main array.
    vols: [VolRef; 4],
    /// Matching secondaries on the backup array.
    replicas: [VolRef; 4],
    groups: Vec<GroupId>,
}

const DB_CFG: DbConfig = DbConfig {
    data_blocks: 4096,
    wal_blocks: 512,
    checkpoint_threshold: 0.8,
};

/// Build a two-site rig. `consistency_group` selects one shared CG (the
/// paper's design) vs one group per volume (the naive ablation). The pump
/// jitter models how far independent replication sessions drift apart;
/// consistency-group correctness must not depend on it.
fn rig(seed: u64, consistency_group: bool, replicate: bool) -> Rig {
    let mut cfg = EngineConfig::default();
    cfg.pump_jitter = SimDuration::from_millis(2);
    let mut st = StorageWorld::new(seed, cfg);
    let main = st.add_array("vsp-main", ArrayPerf::default());
    let backup = st.add_array("vsp-backup", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let reverse = st.add_link(LinkConfig::metro());

    let volumes = [
        ("sales-wal", 512u64),
        ("sales-data", 4096),
        ("stock-wal", 512),
        ("stock-data", 4096),
    ];
    let vols = volumes.map(|(n, s)| st.create_volume(main, n, s));

    // The shop is installed and seeded before replication starts; the
    // initial copy then carries the images to the backup site.
    let wl = WorkloadConfig {
        clients: 8,
        think_time_mean: SimDuration::from_millis(2),
        items: 50,
        zipf_theta: 0.9,
        initial_stock: 1_000_000,
    };
    let ecom = EcomState::install(&mut st, vols, DB_CFG, wl, DetRng::new(seed).derive(99));

    let replicas = volumes.map(|(n, s)| st.create_volume(backup, format!("{n}-r"), s));

    let mut groups = Vec::new();
    if replicate {
        if consistency_group {
            let g = st.create_adc_group("cg-shop", link, reverse, 64 << 20);
            for i in 0..4 {
                st.add_pair(g, vols[i], replicas[i]);
            }
            groups.push(g);
        } else {
            for i in 0..4 {
                let g = st.create_adc_group(format!("solo-{i}"), link, reverse, 64 << 20);
                st.add_pair(g, vols[i], replicas[i]);
                groups.push(g);
            }
        }
    }

    Rig {
        world: World { st, ecom },
        sim: Sim::new(),
        main,
        backup,
        vols,
        replicas,
        groups,
    }
}

/// Open the shop from four volumes of one array and judge the image.
fn recover(world: &World, array: ArrayId, vols: [VolRef; 4]) -> RecoveryOutcome {
    let arr = world.st.array(array);
    world
        .ecom
        .recover_image(vols.map(|v| VolumeView::new(arr, v.volume)))
}

#[test]
fn workload_commits_and_live_volumes_recover_exactly() {
    let mut r = rig(11, true, false);
    r.world.ecom.stop_after_orders = Some(300);
    start_clients(&mut r.world, &mut r.sim);
    r.sim.run(&mut r.world);

    let m = &r.world.ecom.metrics;
    assert_eq!(m.committed_orders, 300);
    assert_eq!(m.failed_writes, 0);
    assert!(m.txn_latency.summary().p50 > 0);

    let image = recover(&r.world, r.main, r.vols);
    let rep = image.invariant.expect("sales and stock recover");
    assert!(rep.consistent(), "{:?}", rep.violations);
    assert_eq!(rep.orders_found, 300);
    let rpo = image.orders.expect("sales recovers");
    assert_eq!(rpo.lost, 0, "live volumes lose nothing after drain");
}

#[test]
fn consistency_group_failover_never_collapses() {
    for seed in [1u64, 2, 3] {
        let mut r = rig(seed, true, true);
        start_clients(&mut r.world, &mut r.sim);
        let main = r.main;
        // Surprise failure mid-run.
        r.sim
            .schedule_at(SimTime::from_millis(120), move |w: &mut World, sim| {
                w.st.fail_array(main, sim.now());
            });
        r.sim.run_until(&mut r.world, SimTime::from_millis(400));
        assert!(r.world.ecom.stopped, "clients observe the disaster");
        let committed = r.world.ecom.metrics.committed_orders;
        assert!(committed > 50, "workload ran before the failure");

        for &g in &r.groups {
            r.world.st.promote_group(g);
        }
        // Storage-level verdict: prefix-consistent.
        let rep = r.world.st.verify_consistency(&r.groups);
        assert!(rep.is_consistent(), "seed {seed}: {rep:?}");

        // Behavioural verdict: both DBs recover, invariant holds.
        let image = recover(&r.world, r.backup, r.replicas);
        let inv = image.invariant.expect("both recover from CG backup");
        assert!(inv.consistent(), "seed {seed}: {:?}", inv.violations);

        // RPO is bounded: we lose only the un-replicated tail.
        let rpo = image.orders.expect("sales recovers from CG backup");
        assert_eq!(rpo.committed, committed);
        assert!(rpo.recovered > 0, "seed {seed}: backup has data");
    }
}

#[test]
fn naive_groups_produce_skewed_cuts() {
    let mut storage_collapses = 0;
    let mut business_collapses = 0;
    for seed in [1u64, 2, 3, 4, 5] {
        let mut r = rig(seed, false, true);
        start_clients(&mut r.world, &mut r.sim);
        let main = r.main;
        r.sim
            .schedule_at(SimTime::from_millis(120), move |w: &mut World, sim| {
                w.st.fail_array(main, sim.now());
            });
        r.sim.run_until(&mut r.world, SimTime::from_millis(400));
        for &g in &r.groups {
            r.world.st.promote_group(g);
        }
        let rep = r.world.st.verify_consistency(&r.groups);
        if !rep.prefix.consistent {
            storage_collapses += 1;
        }
        // A hard recovery failure is also a collapse.
        if !recover(&r.world, r.backup, r.replicas).fully_consistent() {
            business_collapses += 1;
        }
    }
    assert!(
        storage_collapses >= 3,
        "naive per-volume ADC should usually violate write-order fidelity \
         (got {storage_collapses}/5)"
    );
    // Business-level damage is probabilistic per seed; E2 quantifies it
    // over many trials. Here we only require the mechanism to exist.
    println!("business collapses: {business_collapses}/5");
}

/// What an opened image reports, without the engines themselves.
fn verdict(image: &RecoveryOutcome) -> String {
    let (sales, stock) = (image.sales.as_ref(), image.stock.as_ref());
    let reports = (sales.map(|(_, rep)| rep), stock.map(|(_, rep)| rep));
    format!("{reports:?} {:?} {:?}", image.invariant, image.orders)
}

/// One opener for every kind of image: the live replica volumes and an
/// atomic snapshot group of them taken at the same instant open to the
/// same outcome.
#[test]
fn live_replicas_and_their_snapshot_group_open_to_the_same_outcome() {
    let mut r = rig(7, true, true);
    start_clients(&mut r.world, &mut r.sim);
    r.sim.run_until(&mut r.world, SimTime::from_millis(150));
    let (now, members) = (r.sim.now(), r.replicas.map(|v| v.volume));
    let snaps = r.world.st.snapshot_group(r.backup, &members, "pit", now);
    let snaps: [SnapshotId; 4] = snaps.try_into().expect("four members");

    let live = recover(&r.world, r.backup, r.replicas);
    assert!(live.fully_consistent());
    let orders = live.orders.as_ref().expect("sales recovers");
    assert!(orders.recovered > 50 && orders.lost > 0, "mid-run: {orders:?}");
    let arr = r.world.st.array(r.backup);
    let views = snaps.map(|s| SnapshotView::new(arr, s));
    assert_eq!(verdict(&r.world.ecom.recover_image(views)), verdict(&live));
}

/// `recover_from`'s semantics, kept by the one opener: a database that
/// will not open is a hard failure with no invariant, and the order RPO is
/// still read off the sales database that did open.
#[test]
fn an_unopenable_stock_database_is_a_hard_failure_that_still_counts_orders() {
    let mut r = rig(11, true, false);
    r.world.ecom.stop_after_orders = Some(100);
    start_clients(&mut r.world, &mut r.sim);
    r.sim.run(&mut r.world);
    let [_, _, stock_wal, stock_data] = r.vols;

    // A wiped stock log is *not* that: the database opens at its last
    // checkpoint (the seeded catalogue), every decrement is gone, and the
    // image is a business collapse the invariant names.
    for lba in 0..DB_CFG.wal_blocks {
        r.world.st.write_direct(stock_wal, lba, &[]);
    }
    let image = recover(&r.world, r.main, r.vols);
    assert!(!image.hard_failure() && !image.fully_consistent());
    let inv = image.invariant.expect("both databases open");
    assert_eq!(inv.orders_found, 100);
    assert!(inv.violations.iter().all(|v| v.decremented == 0), "{inv:?}");

    // A wiped stock superblock is.
    r.world.st.write_direct(stock_data, 0, &[]);
    let image = recover(&r.world, r.main, r.vols);
    assert!(image.sales.is_ok() && image.stock.is_err());
    assert!(image.hard_failure() && !image.fully_consistent());
    assert!(image.invariant.is_none());
    let rpo = image.orders.expect("sales recovered");
    assert_eq!((rpo.committed, rpo.recovered, rpo.lost), (100, 100, 0));
}

#[test]
fn runs_are_bit_reproducible() {
    let run = |seed: u64| {
        let mut r = rig(seed, true, true);
        r.world.ecom.stop_after_orders = Some(150);
        start_clients(&mut r.world, &mut r.sim);
        r.sim.run(&mut r.world);
        (
            r.world.ecom.metrics.committed_log.clone(),
            r.world.ecom.metrics.txn_latency.summary(),
            r.world.st.ack_log.len(),
        )
    };
    assert_eq!(run(9), run(9));
}

/// Long run with a deliberately small WAL: automatic checkpoints (shadow-
/// paging flush + superblock + WAL epoch reset) interleave with journal
/// replication and a surprise failure. The CG guarantee must hold across
/// epoch boundaries too.
#[test]
fn checkpoints_under_replication_survive_disaster() {
    for seed in [41u64, 42] {
        let mut cfg = EngineConfig::default();
        cfg.pump_jitter = SimDuration::from_millis(1);
        let mut st = StorageWorld::new(seed, cfg);
        let main = st.add_array("m", ArrayPerf::default());
        let backup = st.add_array("b", ArrayPerf::default());
        let link = st.add_link(LinkConfig::metro());
        let reverse = st.add_link(LinkConfig::metro());

        let small_db = DbConfig {
            data_blocks: 8192,
            wal_blocks: 48, // ~150 KiB: checkpoints every few hundred txns
            checkpoint_threshold: 0.7,
        };
        let volumes = [
            ("sales-wal", 48u64),
            ("sales-data", 8192),
            ("stock-wal", 48),
            ("stock-data", 8192),
        ];
        let vols = volumes.map(|(n, s)| st.create_volume(main, n, s));
        let wl = WorkloadConfig {
            clients: 8,
            think_time_mean: SimDuration::from_millis(1),
            items: 40,
            zipf_theta: 0.9,
            initial_stock: 1_000_000,
        };
        let ecom = EcomState::install(&mut st, vols, small_db, wl, DetRng::new(seed).derive(99));
        let replicas = volumes.map(|(n, s)| st.create_volume(backup, format!("{n}-r"), s));
        let g = st.create_adc_group("cg", link, reverse, 64 << 20);
        for i in 0..4 {
            st.add_pair(g, vols[i], replicas[i]);
        }
        let mut world = World { st, ecom };
        let mut sim: Sim<World> = Sim::new();
        start_clients(&mut world, &mut sim);
        sim.schedule_at(SimTime::from_millis(900), move |w: &mut World, sim| {
            w.st.fail_array(main, sim.now());
        });
        sim.run_until(&mut world, SimTime::from_millis(1200));

        // Plenty of transactions, and the engines definitely checkpointed.
        let committed = world.ecom.metrics.committed_orders;
        assert!(committed > 2000, "seed {seed}: committed {committed}");
        assert!(
            world.ecom.sales.db.stats().checkpoints > 2,
            "seed {seed}: sales checkpoints {}",
            world.ecom.sales.db.stats().checkpoints
        );

        world.st.promote_group(g);
        assert!(world.st.verify_consistency(&[g]).is_consistent());
        let image = recover(&world, backup, replicas);
        let (_, srep) = image.sales.as_ref().expect("sales recovers across WAL epochs");
        assert!(srep.epoch > 1, "recovered into a later WAL epoch");
        let inv = image.invariant.expect("stock recovers across WAL epochs");
        assert!(inv.consistent(), "seed {seed}: {:?}", inv.violations);
        let rpo = image.orders.expect("sales recovered");
        assert!(rpo.recovered > 1000, "seed {seed}: {rpo:?}");
    }
}
