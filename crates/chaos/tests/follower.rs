//! The followed backup image is exact, not approximately right.
//!
//! Differential oracle for auditor check 10: while a chaos trial runs, one
//! kernel event at a time, the auditor's [`ImageFollower`] view of the
//! backup — kept current from the backup array's change feed — must equal
//! what `EcomState::recover_image` finds by opening the live replica
//! volumes from scratch at that very instant: which databases open and
//! with which `RecoveryError`, the `RecoveryReport`s, every row of every
//! table, the oversold items, the order count. Over E8's and E9's plans
//! with the main-array crash left in, and supervised plans that resync,
//! fail over (promote) and fail back, all three workloads, both modes.
//!
//! Tier-1 compares at every `STRIDE`-th step that changed the image; the
//! every-step sweep is `#[ignore]`d and run by CI in release.
//!
//! And the negative controls: adc-naive is convicted by check 10 no later
//! than the 5 ms grid ever convicted it, adc-cg never — unless the stream
//! it is fed is reordered per volume, which is what naive replication
//! does to it.

use tsuru_chaos::{
    run_chaos_trial, run_chaos_trial_history, run_chaos_trial_stepped, ChaosConfig, FaultEvent,
    FaultKind, FaultPlan,
};
use tsuru_core::{BackupMode, RigConfig, TwoSiteRig};
use tsuru_ecom::driver::start_workload_clients;
use tsuru_ecom::{
    ImageFollower, Recovered, RecoveryOutcome, WorkloadKind, LISTS_TABLE, ORDERS_TABLE, STOCK_TABLE,
};
use tsuru_minidb::TableId;
use tsuru_sim::{DetRng, SimDuration, SimTime};
use tsuru_storage::{FeedEntry, SupervisorPolicy};

const BASE_SEED: u64 = 0xC0FFEE;
const MODES: [BackupMode; 2] = [BackupMode::AdcConsistencyGroup, BackupMode::AdcPerVolume];

/// Everything observable about one opened database.
fn observe(db: &Recovered, tables: &[TableId]) -> String {
    match db {
        Err(e) => format!("{e:?}"),
        Ok((db, report)) => {
            let rows: Vec<_> = tables.iter().map(|&t| db.scan_table(t)).collect();
            format!("{report:?} last_lsn={} {rows:?}", db.last_lsn())
        }
    }
}

fn assert_same(followed: &ImageFollower, opened: &RecoveryOutcome, what: &str) {
    let (sales, stock) = followed.view();
    let sales_tables = [ORDERS_TABLE, LISTS_TABLE];
    assert_eq!(
        observe(sales, &sales_tables),
        observe(&opened.sales, &sales_tables),
        "{what}: sales"
    );
    assert_eq!(
        observe(stock, &[STOCK_TABLE]),
        observe(&opened.stock, &[STOCK_TABLE]),
        "{what}: stock"
    );
    assert_eq!(
        followed.oversold(),
        opened.invariant.as_ref().map(|i| i.violations.clone()),
        "{what}: oversold"
    );
    if let Some(inv) = &opened.invariant {
        assert_eq!(followed.orders(), inv.orders_found, "{what}: orders");
    }
}

/// Run one trial event by event; after every `stride`-th step that folded
/// new feed entries, compare the followed image with a from-scratch open.
/// Returns (steps that changed the image, comparisons made).
fn differential(
    seed: u64,
    mode: BackupMode,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    stride: u64,
) -> (u64, u64) {
    let (mut changed, mut compared, mut folded) = (0u64, 0u64, 0u64);
    run_chaos_trial_stepped(seed, mode, plan, cfg, &mut |rig, auditor| {
        auditor.follow(rig);
        let (entries, _) = auditor.image().watermark();
        if entries == folded {
            return;
        }
        folded = entries;
        changed += 1;
        if changed % stride == 0 {
            compared += 1;
            let what = format!(
                "seed {seed:#x} {} {} t={}",
                mode.label(),
                cfg.workload.label(),
                rig.sim.now()
            );
            assert_same(auditor.image(), &rig.recover_from_backup(), &what);
        }
    });
    (changed, compared)
}

/// A policy that fails over when the main array stays dead and fails back
/// once it returns.
fn failover_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        auto_failover: true,
        failover_grace: SimDuration::from_millis(4),
        auto_failback: true,
        ..SupervisorPolicy::default()
    }
}

/// The core quartet plus a main-array crash long enough to fail over.
fn failover_plan(seed: u64, horizon: SimTime) -> FaultPlan {
    let mut plan = FaultPlan::core_quartet(seed, horizon);
    plan.events.push(FaultEvent {
        kind: FaultKind::MainArrayCrash,
        at: SimTime::from_millis(85),
        duration: SimDuration::from_millis(20),
    });
    plan
}

fn sweep(trials: u64, stride: u64) {
    let (mut changed, mut compared) = (0, 0);
    let mut tally = |(c, k): (u64, u64)| {
        changed += c;
        compared += k;
    };
    for i in 0..trials {
        let seed = DetRng::trial_seed(BASE_SEED, i);
        for workload in WorkloadKind::ALL {
            for mode in MODES {
                // E8 / E9: random plans, main-array crash left in, history
                // on (E9) so the scans read the followed image too.
                let cfg = ChaosConfig {
                    workload,
                    history: true,
                    ..ChaosConfig::default()
                };
                let plan = FaultPlan::random(seed, cfg.horizon);
                tally(differential(seed, mode, &plan, &cfg, stride));
                // Supervised: the supervisor resyncs (delta and full),
                // promotes and fails back on its own.
                let cfg = ChaosConfig {
                    supervisor: true,
                    supervisor_policy: failover_policy(),
                    ..cfg
                };
                let plan = failover_plan(seed, cfg.horizon);
                tally(differential(seed, mode, &plan, &cfg, stride));
            }
        }
    }
    assert!(compared > 0 && changed >= compared, "{changed} steps, {compared} compared");
}

#[test]
fn followed_image_equals_from_scratch_recovery_strided() {
    sweep(2, 13);
}

#[test]
#[ignore = "every step of every trial: minutes in debug, run in release by CI"]
fn followed_image_equals_from_scratch_recovery_at_every_step() {
    sweep(5, 1);
}

#[test]
fn the_supervised_plan_resyncs_promotes_and_fails_back() {
    // What the differential sweep claims to cover is really exercised.
    let cfg = ChaosConfig {
        supervisor: true,
        supervisor_policy: failover_policy(),
        ..ChaosConfig::default()
    };
    let seed = DetRng::trial_seed(BASE_SEED, 0);
    let plan = failover_plan(seed, cfg.horizon);
    let report = run_chaos_trial(seed, BackupMode::AdcConsistencyGroup, &plan, &cfg);
    let sv = report.supervisor.expect("supervised");
    assert!(sv.attempts > 0, "no resync: {}", report.render());
    assert!(sv.failovers > 0, "no promote: {}", report.render());
    assert!(sv.failbacks > 0, "no failback: {}", report.render());
}

/// The exactness rule under checkpoints: a WAL of two blocks makes both
/// databases checkpoint every few commits (tree pages, superblock flip,
/// the log restarting at block zero in a new epoch), and the per-volume
/// mode tears those across volumes — a new epoch's log under an old
/// superblock, a flipped superblock over the old epoch's log, orders ahead
/// of their stock decrement. Every step, both modes, against a
/// from-scratch open; and the run must really have seen epoch flips and
/// (per-volume only) torn images, or it proves nothing. Images that do not
/// open at all are `minidb/tests/catch_up.rs`'s: every volume here is a
/// prefix of its own write order, and minidb never overwrites a live page.
#[test]
fn followed_image_is_exact_across_checkpoints_and_torn_images() {
    for mode in MODES {
        let mut cfg = RigConfig {
            seed: 23,
            mode,
            ..RigConfig::default()
        };
        cfg.db.wal_blocks = 2;
        cfg.workload.clients = 32;
        cfg.workload.think_time_mean = SimDuration::from_millis(1);
        let mut rig = TwoSiteRig::new(cfg);
        let mut image = rig.follow_backup();
        start_workload_clients(&mut rig.world, &mut rig.sim);
        let (mut epochs, mut torn, mut steps) = (std::collections::BTreeSet::new(), 0u32, 0u32);
        while rig.sim.now() < SimTime::from_millis(60) && rig.sim.step(&mut rig.world) {
            let now = rig.sim.now();
            let before = image.watermark().0;
            image.follow(rig.world.st.array_mut(rig.backup).drain_feed(), now, None);
            if image.watermark().0 == before {
                continue;
            }
            steps += 1;
            assert_same(&image, &rig.recover_from_backup(), &format!("{} t={now}", mode.label()));
            if let Ok((_, report)) = image.view().0 {
                epochs.insert(report.epoch);
            }
            torn += u32::from(image.oversold() != Some(Vec::new()));
        }
        assert!(steps > 200 && epochs.len() > 3, "{steps} steps, epochs {epochs:?}");
        assert_eq!(
            torn > 0,
            mode == BackupMode::AdcPerVolume,
            "{}: {torn} torn steps",
            mode.label()
        );
    }
}

/// The earliest violation of one kind in a report.
fn first_conviction(report: &tsuru_chaos::ChaosReport, invariant: &str) -> Option<SimTime> {
    report
        .violations
        .iter()
        .filter(|v| v.invariant == invariant)
        .map(|v| v.at)
        .min()
}

#[test]
fn naive_is_convicted_at_a_boundary_no_later_than_the_grid_and_cg_never() {
    let cfg = ChaosConfig::default();
    for i in 0..6 {
        let seed = DetRng::trial_seed(BASE_SEED, i);
        let plan = FaultPlan::random(seed, cfg.horizon);
        let (naive, _) = run_chaos_trial_history(seed, BackupMode::AdcPerVolume, &plan, &cfg);
        let (cg, _) = run_chaos_trial_history(seed, BackupMode::AdcConsistencyGroup, &plan, &cfg);
        assert!(
            first_conviction(&cg, "backup-image").is_none() && cg.is_clean(),
            "{}",
            cg.render()
        );
        // Everything the parent commit convicted naive with is still there
        // (grid audits and client-history anomalies are unchanged); check
        // 10 must come first.
        let others = naive
            .violations
            .iter()
            .filter(|v| v.invariant != "backup-image")
            .map(|v| v.at)
            .min();
        if let Some(grid) = others {
            let at = first_conviction(&naive, "backup-image")
                .unwrap_or_else(|| panic!("naive not convicted by check 10:\n{}", naive.render()));
            assert!(at <= grid, "check 10 at {at}, grid at {grid}");
            assert!(
                at.as_nanos() % 5_000_000 != 0,
                "an apply boundary, not a grid point: {at}"
            );
        }
        assert_eq!(
            naive.violations.iter().filter(|v| v.invariant == "backup-image").count(),
            1,
            "one conviction, then the follower only follows"
        );
    }
}

/// Negative control: the follower has teeth. A clean consistency-group
/// run's applied-block stream, replayed in per-volume order with the
/// stock volumes lagging — exactly what four independent journals do —
/// convicts; replayed as it was applied, it does not.
#[test]
fn a_per_volume_reordered_stream_of_a_clean_cg_run_convicts() {
    let mut rig = TwoSiteRig::new(RigConfig {
        seed: 11,
        mode: BackupMode::AdcConsistencyGroup,
        ..RigConfig::default()
    });
    // Two followers of one image: `faithful` takes the feed as applied,
    // `torn` takes it sorted by volume (sales volumes first).
    let mut faithful = rig.follow_backup();
    let mut torn = rig.follow_backup();
    start_workload_clients(&mut rig.world, &mut rig.sim);
    rig.sim.run_until(&mut rig.world, SimTime::from_millis(40));
    let now = rig.sim.now();
    let feed: Vec<FeedEntry> = rig.world.st.array_mut(rig.backup).drain_feed().collect();
    assert!(feed.len() > 100, "the run applied something: {}", feed.len());

    let mut bad = 0;
    let mut count_bad = |image: &ImageFollower, _| {
        bad += u32::from(image.oversold() != Some(Vec::new()));
    };
    faithful.follow(feed.clone(), now, Some(&mut count_bad));
    assert_eq!(bad, 0, "write-order-faithful stream stays consistent at every step");
    assert!(faithful.orders() > 10);

    let replicas = rig.replicas.expect("adc-cg has replicas").map(|r| r.volume);
    let mut by_volume: Vec<FeedEntry> = Vec::new();
    // Sales volumes run ahead: all of their writes land, one step each,
    // before any stock write does.
    for vol in replicas {
        for e in &feed {
            if matches!(e, FeedEntry::Write { vol: v, .. } if *v == vol) {
                by_volume.push(e.clone());
                by_volume.push(FeedEntry::Boundary { at: None });
            }
        }
    }
    let mut first_bad = None;
    let mut note_first_bad = |image: &ImageFollower, _| {
        if first_bad.is_none() && image.oversold() != Some(Vec::new()) {
            first_bad = Some(image.watermark().0);
        }
    };
    torn.follow(by_volume, now, Some(&mut note_first_bad));
    assert!(first_bad.is_some(), "orders without their stock decrement must convict");
    // Same blocks, so once everything has landed the two images agree.
    assert_eq!(
        observe(torn.view().0, &[ORDERS_TABLE]),
        observe(faithful.view().0, &[ORDERS_TABLE])
    );
    assert_eq!(torn.oversold(), Some(Vec::new()));
}
