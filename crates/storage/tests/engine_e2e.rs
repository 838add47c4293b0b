//! End-to-end tests of the replication engine: ADC, SDC, consistency
//! groups, journal overflow, snapshots under replication, failover, RPO.

#![allow(clippy::field_reassign_with_default)]

mod common;

use common::{after, at, Ev};
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::{host_read, host_read_snapshot, host_write_tagged, kick_all_pumps};
use tsuru_storage::{
    block_from, ArrayId, ArrayPerf, BlockBuf, EngineConfig, GroupId, GroupState, HasStorage,
    JournalFullPolicy, StorageWorld, SuspendReason, VolRef, WriteAck, WriteError, BLOCK_SIZE,
    JOURNAL_ENTRY_OVERHEAD,
};

/// Test world: the storage world plus collected acknowledgements.
struct World {
    st: StorageWorld,
    acks: Vec<(u64, WriteAck, SimTime)>,
    /// Completed reads: whether each found data, and when.
    reads: Vec<(bool, SimTime)>,
}

impl HasStorage for World {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

struct Rig {
    world: World,
    sim: Sim<World, Ev<World>>,
    main: ArrayId,
    backup: ArrayId,
    link: tsuru_simnet::LinkId,
    reverse: tsuru_simnet::LinkId,
}

fn rig_with(config: EngineConfig, link_cfg: LinkConfig) -> Rig {
    let mut st = StorageWorld::new(42, config);
    let main = st.add_array("vsp-main", ArrayPerf::default());
    let backup = st.add_array("vsp-backup", ArrayPerf::default());
    let link = st.add_link(link_cfg.clone());
    let reverse = st.add_link(link_cfg);
    Rig {
        world: World {
            st,
            acks: Vec::new(),
            reads: Vec::new(),
        },
        sim: Sim::new(),
        main,
        backup,
        link,
        reverse,
    }
}

fn rig() -> Rig {
    rig_with(EngineConfig::default(), LinkConfig::metro())
}

/// Make a block whose content encodes `tag`.
fn blk(tag: u64) -> tsuru_storage::BlockBuf {
    block_from(&tag.to_le_bytes())
}

/// Issue a tagged write whose ack is recorded in `world.acks`.
fn write_tagged(
    world: &mut World,
    sim: &mut Sim<World, Ev<World>>,
    vol: VolRef,
    lba: u64,
    tag: u64,
) {
    host_write_tagged(world, sim, vol, lba, blk(tag), tag, |w, sim, tag, ack| {
        w.acks.push((tag, ack, sim.now()));
    });
}

/// Schedule a tagged write at an absolute time.
fn write_at(sim: &mut Sim<World, Ev<World>>, t: SimTime, vol: VolRef, lba: u64, tag: u64) {
    at(sim, t, move |w: &mut World, sim| {
        write_tagged(w, sim, vol, lba, tag);
    });
}

#[test]
fn unpaired_write_acks_at_local_service_time() {
    let mut r = rig();
    let vol = r.world.st.create_volume(r.main, "solo", 64);
    write_at(&mut r.sim, SimTime::ZERO, vol, 0, 1);
    r.sim.run(&mut r.world);
    assert_eq!(r.world.acks.len(), 1);
    let (_, ack, at) = r.world.acks[0];
    assert_eq!(
        ack,
        WriteAck::Ok {
            latency: SimDuration::from_micros(100),
            global: 0
        }
    );
    assert_eq!(at, SimTime::from_micros(100));
    assert_eq!(&r.world.st.read_direct(vol, 0).unwrap()[..8], &1u64.to_le_bytes());
}

/// Every data-plane step the kernel dispatches is counted under its kind:
/// the counts add up to the kernel's own event count (less the test's
/// submit closures) and the per-write kinds fire once per write.
#[test]
fn op_counts_cover_every_dispatched_step() {
    let mut r = rig();
    let p = r.world.st.create_volume(r.main, "p", 64);
    let s = r.world.st.create_volume(r.backup, "s", 64);
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p, s);
    for i in 0..20u64 {
        write_at(&mut r.sim, SimTime::from_micros(i * 300), p, i, i);
    }
    r.sim.run(&mut r.world);
    let counts: std::collections::BTreeMap<_, _> = r.world.st.op_counts().collect();
    assert_eq!(counts.len(), tsuru_storage::OP_KINDS.len(), "kind names are distinct");
    assert_eq!(counts.values().sum::<u64>(), r.sim.events_executed() - 20);
    assert_eq!(counts["persist"], 20);
    assert_eq!(counts["finish_apply"], 20);
    assert_eq!(counts["receive_batch"], r.world.st.fabric.group(g).stats.frames_sent);
    assert_eq!(counts["link_wake"], 0, "an idle lane parks nobody");
}

#[test]
fn adc_ack_is_local_even_on_a_slow_wan() {
    // 50 ms one-way: SDC would pay 100 ms; ADC must still ack in ~100 us.
    let mut r = rig_with(
        EngineConfig::default(),
        LinkConfig::with(SimDuration::from_millis(50), 1_000_000_000 / 8),
    );
    let p = r.world.st.create_volume(r.main, "p", 64);
    let s = r.world.st.create_volume(r.backup, "s", 64);
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p, s);

    write_at(&mut r.sim, SimTime::ZERO, p, 0, 7);
    r.sim.run(&mut r.world);

    let (_, ack, _) = r.world.acks[0];
    match ack {
        WriteAck::Ok { latency, .. } => {
            assert!(
                latency < SimDuration::from_millis(1),
                "ADC ack latency should be local, got {latency}"
            );
        }
        other => panic!("unexpected ack {other:?}"),
    }
    // After the run drains, the secondary holds the data.
    assert_eq!(&r.world.st.read_direct(s, 0).unwrap()[..8], &7u64.to_le_bytes());
    let rep = r.world.st.verify_consistency(&[GroupId(0)]);
    assert!(rep.is_consistent(), "{rep:?}");
}

#[test]
fn sdc_ack_pays_the_round_trip() {
    let one_way = SimDuration::from_millis(10);
    let mut r = rig_with(
        EngineConfig::default(),
        LinkConfig::with(one_way, 1_000_000_000 / 8),
    );
    let p = r.world.st.create_volume(r.main, "p", 64);
    let s = r.world.st.create_volume(r.backup, "s", 64);
    let g = r.world.st.create_sdc_group("g", r.link, r.reverse);
    r.world.st.add_pair(g, p, s);

    write_at(&mut r.sim, SimTime::ZERO, p, 0, 9);
    r.sim.run(&mut r.world);

    let (_, ack, _) = r.world.acks[0];
    match ack {
        WriteAck::Ok { latency, .. } => {
            assert!(
                latency >= one_way * 2,
                "SDC must include the round trip, got {latency}"
            );
            assert!(latency < one_way * 2 + SimDuration::from_millis(1));
        }
        other => panic!("unexpected ack {other:?}"),
    }
    assert_eq!(&r.world.st.read_direct(s, 0).unwrap()[..8], &9u64.to_le_bytes());
}

/// One write, issued at 1 ms, to a volume with a synchronous leg to a
/// near backup array (1 ms one-way) and/or a far one (3 ms one-way); the
/// far leg's link is down from t = 0 when `far_down`.
fn sdc_legs_write(near: bool, far: bool, far_down: bool) -> World {
    let mut r = rig();
    let st = &mut r.world.st;
    let p = st.create_volume(r.main, "p", 64);
    let far_array = st.add_array("vsp-far", ArrayPerf::default());
    for (on, array, one_way_ms) in [(near, r.backup, 1), (far, far_array, 3)] {
        if !on {
            continue;
        }
        let cfg = LinkConfig::with(SimDuration::from_millis(one_way_ms), 1_000_000_000 / 8);
        let (link, reverse) = (st.add_link(cfg.clone()), st.add_link(cfg));
        let s = st.create_volume(array, "s", 64);
        let g = st.create_sdc_group(format!("sdc-{one_way_ms}ms"), link, reverse);
        st.add_pair(g, p, s);
        if one_way_ms == 3 && far_down {
            st.net.link_mut(link).set_down(SimTime::ZERO, None);
        }
    }
    write_at(&mut r.sim, SimTime::from_millis(1), p, 0, 7);
    r.sim.run(&mut r.world);
    r.world
}

/// The instant a lone synchronous leg's write is acknowledged.
fn lone_leg_ack_at(near: bool) -> SimTime {
    let w = sdc_legs_write(near, !near, false);
    assert_eq!(w.acks.len(), 1);
    assert!(matches!(w.acks[0].1, WriteAck::Ok { .. }));
    w.acks[0].2
}

#[test]
fn a_write_with_two_synchronous_legs_is_acknowledged_once_by_the_later_leg() {
    let (fast, slow) = (lone_leg_ack_at(true), lone_leg_ack_at(false));
    assert!(fast < slow);
    let w = sdc_legs_write(true, true, false);
    assert_eq!(w.acks.len(), 1, "acknowledged once");
    let (tag, ack, acked_at) = w.acks[0];
    assert_eq!((tag, acked_at), (7, slow), "at the slow leg's return");
    assert_eq!(
        ack,
        WriteAck::Ok {
            latency: slow - SimTime::from_millis(1),
            global: 0
        }
    );
    let counts: std::collections::BTreeMap<_, _> = w.st.op_counts().collect();
    assert_eq!(counts["sdc_ack"], 2, "both legs' acks came back");
    assert_eq!(w.st.ack_log.len(), 1, "the write is in the ack log once");
    assert_eq!(w.st.ack_log.entries()[0].time, slow);
}

#[test]
fn with_the_slow_legs_link_down_the_write_is_acknowledged_degraded_at_the_fast_legs_return() {
    let fast = lone_leg_ack_at(true);
    let w = sdc_legs_write(true, true, true);
    assert_eq!(w.acks.len(), 1, "acknowledged once");
    let (_, ack, acked_at) = w.acks[0];
    assert_eq!(acked_at, fast, "at the fast leg's return");
    assert_eq!(
        ack,
        WriteAck::Degraded {
            latency: fast - SimTime::from_millis(1),
            global: 0
        }
    );
    let counts: std::collections::BTreeMap<_, _> = w.st.op_counts().collect();
    assert_eq!(counts["sdc_ack"], 1, "only the fast leg's ack came back");
    assert_eq!(w.st.ack_log.len(), 1);
}

#[test]
fn adc_applies_in_ack_order_across_the_group() {
    let mut r = rig();
    let p1 = r.world.st.create_volume(r.main, "wal", 256);
    let p2 = r.world.st.create_volume(r.main, "data", 256);
    let s1 = r.world.st.create_volume(r.backup, "wal-r", 256);
    let s2 = r.world.st.create_volume(r.backup, "data-r", 256);
    let g = r.world.st.create_adc_group("cg", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p1, s1);
    r.world.st.add_pair(g, p2, s2);

    // Alternate writes across the two volumes every 300 us.
    for i in 0..200u64 {
        let vol = if i % 2 == 0 { p1 } else { p2 };
        write_at(
            &mut r.sim,
            SimTime::from_nanos(i * 300_000),
            vol,
            i / 2,
            i,
        );
    }
    r.sim.run(&mut r.world);

    assert_eq!(r.world.acks.len(), 200);
    assert!(r.world.acks.iter().all(|(_, a, _)| a.is_persisted()));
    let rep = r.world.st.verify_consistency(&[g]);
    assert!(rep.is_consistent(), "{rep:?}");
    // Fully drained: secondary content equals primary content.
    for (pv, sv) in [(p1, s1), (p2, s2)] {
        let pc = r.world.st.array(r.main).volume(pv.volume).content_hashes();
        let sc = r
            .world
            .st
            .array(r.backup)
            .volume(sv.volume)
            .content_hashes();
        assert_eq!(pc, sc);
    }
}

/// The paper's §I collapse scenario, reproduced at block level: with a
/// consistency group, any surprise failure leaves a prefix-consistent
/// backup; with naive per-volume groups, lag between the volumes leaves a
/// non-prefix cut.
#[test]
fn consistency_group_survives_surprise_failure() {
    for fail_ms in [5u64, 17, 31, 49, 73] {
        let mut r = rig();
        let p1 = r.world.st.create_volume(r.main, "v1", 1024);
        let p2 = r.world.st.create_volume(r.main, "v2", 1024);
        let s1 = r.world.st.create_volume(r.backup, "v1r", 1024);
        let s2 = r.world.st.create_volume(r.backup, "v2r", 1024);
        let g = r.world.st.create_adc_group("cg", r.link, r.reverse, 1 << 24);
        r.world.st.add_pair(g, p1, s1);
        r.world.st.add_pair(g, p2, s2);

        for i in 0..1000u64 {
            let vol = if i % 2 == 0 { p1 } else { p2 };
            write_at(&mut r.sim, SimTime::from_nanos(i * 100_000), vol, i / 2, i);
        }
        let main = r.main;
        at(&mut r.sim, SimTime::from_millis(fail_ms), move |w: &mut World, sim| {
            w.st.fail_array(main, sim.now());
        });
        r.sim.run(&mut r.world);
        r.world.st.promote_group(g);
        let rep = r.world.st.verify_consistency(&[g]);
        assert!(
            rep.is_consistent(),
            "CG backup must be prefix-consistent at fail_ms={fail_ms}: {rep:?}"
        );
    }
}

#[test]
fn naive_per_volume_groups_collapse_under_lag() {
    let mut r = rig();
    let p1 = r.world.st.create_volume(r.main, "v1", 1024);
    let p2 = r.world.st.create_volume(r.main, "v2", 1024);
    let s1 = r.world.st.create_volume(r.backup, "v1r", 1024);
    let s2 = r.world.st.create_volume(r.backup, "v2r", 1024);
    // Two links so one volume's replication can lag independently —
    // equivalent to two independent replication sessions.
    let link2 = r.world.st.add_link(LinkConfig::metro());
    let rev2 = r.world.st.add_link(LinkConfig::metro());
    let g1 = r.world.st.create_adc_group("solo1", r.link, r.reverse, 1 << 24);
    let g2 = r.world.st.create_adc_group("solo2", link2, rev2, 1 << 24);
    r.world.st.add_pair(g1, p1, s1);
    r.world.st.add_pair(g2, p2, s2);

    // v2's link stalls from 2 ms on: v2's backup freezes while v1 advances.
    at(&mut r.sim, SimTime::from_millis(2), move |w: &mut World, _| {
        w.st.net.link_mut(link2).set_down(SimTime::from_millis(2), None);
    });
    // Strictly alternating dependent writes: v2's write i+1 "depends on"
    // v1's write i (like WAL before data).
    for i in 0..600u64 {
        let vol = if i % 2 == 0 { p2 } else { p1 };
        write_at(&mut r.sim, SimTime::from_nanos(i * 100_000), vol, i / 2, i);
    }
    let main = r.main;
    at(&mut r.sim, SimTime::from_millis(40), move |w: &mut World, sim| {
        w.st.fail_array(main, sim.now());
    });
    r.sim.run(&mut r.world);
    r.world.st.promote_group(g1);
    r.world.st.promote_group(g2);

    let rep = r.world.st.verify_consistency(&[g1, g2]);
    assert!(
        !rep.prefix.consistent,
        "independent groups with skew must produce a non-prefix cut"
    );
    // But each group in isolation is fine — the damage is cross-volume.
    assert!(r.world.st.verify_consistency(&[g1]).is_consistent());
    assert!(r.world.st.verify_consistency(&[g2]).is_consistent());
}

#[test]
fn journal_full_block_policy_stalls_but_loses_nothing() {
    // A journal that fits ~4 entries and a very slow link.
    let mut cfg = EngineConfig::default();
    cfg.journal_full_policy = JournalFullPolicy::Block;
    let mut r = rig_with(
        cfg,
        LinkConfig::with(SimDuration::from_millis(5), 200_000), // 200 KB/s
    );
    let p = r.world.st.create_volume(r.main, "p", 256);
    let s = r.world.st.create_volume(r.backup, "s", 256);
    let g = r
        .world
        .st
        .create_adc_group("g", r.link, r.reverse, 4 * (4096 + 64));
    r.world.st.add_pair(g, p, s);

    for i in 0..64u64 {
        write_at(&mut r.sim, SimTime::from_nanos(i * 50_000), p, i, i);
    }
    r.sim.run(&mut r.world);

    assert_eq!(r.world.acks.len(), 64, "every write eventually acks");
    assert!(r.world.acks.iter().all(|(_, a, _)| a.is_persisted()));
    assert!(
        r.world.st.metrics.counter(tsuru_storage::metric_names::JOURNAL_STALL_RETRIES) > 0,
        "the tiny journal must have caused stalls"
    );
    // Nothing lost: fully applied and consistent.
    let rep = r.world.st.verify_consistency(&[g]);
    assert!(rep.is_consistent(), "{rep:?}");
    assert_eq!(
        r.world.st.array(r.backup).volume(s.volume).content_hashes(),
        r.world.st.array(r.main).volume(p.volume).content_hashes()
    );
}

#[test]
fn journal_smaller_than_one_entry_suspends_under_block_instead_of_stalling_forever() {
    // Under the Block policy a write waits for journal space, but a
    // journal one byte short of a single entry has none however far it
    // drains. The write must not poll forever: its group suspends with
    // `JournalFull` and the host gets a degraded acknowledgement.
    let mut r = rig();
    let p = r.world.st.create_volume(r.main, "p", 16);
    let s = r.world.st.create_volume(r.backup, "s", 16);
    let tiny = BLOCK_SIZE as u64 + JOURNAL_ENTRY_OVERHEAD - 1;
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, tiny);
    r.world.st.add_pair(g, p, s);

    write_at(&mut r.sim, SimTime::ZERO, p, 0, 1);
    r.sim.run_until(&mut r.world, SimTime::from_secs(1));

    assert_eq!(r.sim.pending(), 0, "nothing is left polling");
    assert_eq!(r.world.acks.len(), 1);
    assert!(
        matches!(r.world.acks[0].1, WriteAck::Degraded { .. }),
        "{:?}",
        r.world.acks[0]
    );
    assert!(matches!(
        r.world.st.fabric.group(g).state,
        GroupState::Suspended {
            reason: SuspendReason::JournalFull,
            ..
        }
    ));
}

#[test]
fn journal_full_suspend_policy_degrades_and_resync_recovers() {
    let mut cfg = EngineConfig::default();
    cfg.journal_full_policy = JournalFullPolicy::Suspend;
    let mut r = rig_with(
        cfg,
        LinkConfig::with(SimDuration::from_millis(5), 100_000),
    );
    let p = r.world.st.create_volume(r.main, "p", 256);
    let s = r.world.st.create_volume(r.backup, "s", 256);
    let g = r
        .world
        .st
        .create_adc_group("g", r.link, r.reverse, 2 * (4096 + 64));
    r.world.st.add_pair(g, p, s);

    for i in 0..32u64 {
        write_at(&mut r.sim, SimTime::from_nanos(i * 50_000), p, i, i);
    }
    r.sim.run(&mut r.world);

    let degraded = r
        .world
        .acks
        .iter()
        .filter(|(_, a, _)| matches!(a, WriteAck::Degraded { .. }))
        .count();
    assert!(degraded > 0, "suspend policy must degrade under overflow");
    assert!(matches!(
        r.world.st.fabric.group(g).state,
        GroupState::Suspended { .. }
    ));
    // Operator resync brings the backup to a faithful copy again.
    r.world.st.resync_group(g);
    assert!(r.world.st.fabric.group(g).is_active());
    assert_eq!(
        r.world.st.array(r.backup).volume(s.volume).content_hashes(),
        r.world.st.array(r.main).volume(p.volume).content_hashes()
    );
}

#[test]
fn rpo_counts_unreplicated_writes_on_failure() {
    // Slow link so a backlog accumulates, then a site failure. 2 MB/s moves
    // one 4 KiB entry in ~2 ms; with 4-entry frames the earliest frames
    // finish serializing (and survive) before the 15 ms failure, while the
    // backlog behind them is lost with the site.
    let mut cfg = EngineConfig::default();
    cfg.batch_max_entries = 4;
    let mut r = rig_with(
        cfg,
        LinkConfig::with(SimDuration::from_millis(20), 2_000_000),
    );
    let p = r.world.st.create_volume(r.main, "p", 512);
    let s = r.world.st.create_volume(r.backup, "s", 512);
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p, s);

    for i in 0..100u64 {
        write_at(&mut r.sim, SimTime::from_nanos(i * 100_000), p, i, i);
    }
    let fail_at = SimTime::from_millis(15);
    let main = r.main;
    at(&mut r.sim, fail_at, move |w: &mut World, sim| {
        w.st.fail_array(main, sim.now());
    });
    r.sim.run(&mut r.world);
    r.world.st.promote_group(g);

    let rpo = r.world.st.rpo_report(&[g], fail_at);
    assert!(rpo.acked_writes > 0);
    assert!(
        rpo.lost_writes > 0,
        "a slow link with early failure must lose the backlog"
    );
    assert!(rpo.lost_writes < rpo.acked_writes, "but not everything");
    assert!(rpo.rpo > SimDuration::ZERO);
    // The surviving image is still prefix-consistent (single volume).
    let rep = r.world.st.verify_consistency(&[g]);
    assert!(rep.is_consistent(), "{rep:?}");
}

#[test]
fn snapshot_group_stays_frozen_while_replication_continues() {
    let mut r = rig();
    let p1 = r.world.st.create_volume(r.main, "v1", 512);
    let p2 = r.world.st.create_volume(r.main, "v2", 512);
    let s1 = r.world.st.create_volume(r.backup, "v1r", 512);
    let s2 = r.world.st.create_volume(r.backup, "v2r", 512);
    let g = r.world.st.create_adc_group("cg", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p1, s1);
    r.world.st.add_pair(g, p2, s2);

    // Phase 1: writes with tag < 100.
    for i in 0..100u64 {
        let vol = if i % 2 == 0 { p1 } else { p2 };
        write_at(&mut r.sim, SimTime::from_nanos(i * 200_000), vol, i / 2, i);
    }
    // Snapshot the backup volumes mid-run, then keep writing (tags >= 1000).
    let backup = r.backup;
    let (sv1, sv2) = (s1.volume, s2.volume);
    at(&mut r.sim, SimTime::from_millis(60), move |w: &mut World, sim| {
        let snaps =
            w.st.snapshot_group(backup, &[sv1, sv2], "pit", sim.now());
        assert_eq!(snaps.len(), 2);
    });
    for i in 0..100u64 {
        let vol = if i % 2 == 0 { p1 } else { p2 };
        write_at(
            &mut r.sim,
            SimTime::from_millis(70) + SimDuration::from_nanos(i * 200_000),
            vol,
            i / 2,
            1000 + i,
        );
    }
    r.sim.run(&mut r.world);

    // Live secondary content caught up with phase 2...
    assert_eq!(
        r.world.st.array(r.backup).volume(sv1).content_hashes(),
        r.world.st.array(r.main).volume(p1.volume).content_hashes()
    );
    // ...while the snapshot still shows phase-1 data everywhere.
    let snaps = r.world.st.array(r.backup).snapshot_ids();
    assert_eq!(snaps.len(), 2);
    for sid in snaps {
        let snap = r.world.st.array(r.backup).snapshot(sid);
        let base = snap.base_volume();
        let nblocks = 50;
        for lba in 0..nblocks {
            let img = r.world.st.array(r.backup).read_snapshot_block(sid, lba);
            if let Some(b) = img {
                let tag = u64::from_le_bytes(b[..8].try_into().unwrap());
                assert!(tag < 100, "snapshot leaked post-snapshot tag {tag}");
            }
        }
        // COW happened: phase-2 overwrites forced preservation.
        assert!(snap.cow_blocks() > 0, "base {base:?} never overwritten?");
    }
    assert!(r.world.st.array(r.backup).cow_saves() > 0);
}

#[test]
fn writes_to_fenced_secondary_and_failed_array_are_rejected() {
    let mut r = rig();
    let p = r.world.st.create_volume(r.main, "p", 64);
    let s = r.world.st.create_volume(r.backup, "s", 64);
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p, s);

    write_at(&mut r.sim, SimTime::ZERO, s, 0, 1); // fenced secondary
    let main = r.main;
    at(&mut r.sim, SimTime::from_millis(1), move |w: &mut World, sim| {
        w.st.fail_array(main, sim.now());
    });
    write_at(&mut r.sim, SimTime::from_millis(2), p, 0, 2); // failed array
    r.sim.run(&mut r.world);

    assert_eq!(r.world.acks.len(), 2);
    assert_eq!(
        r.world.acks[0].1,
        WriteAck::Failed(WriteError::VolumeFenced)
    );
    assert_eq!(r.world.acks[1].1, WriteAck::Failed(WriteError::ArrayFailed));
    assert_eq!(r.world.st.metrics.counter(tsuru_storage::metric_names::WRITES_FAILED), 2);
}

/// A host write past the end of a volume is refused at admission — typed,
/// counted, and without taking a write-order ticket — whatever protects
/// the volume; it used to pass admission and trip `Volume::write`'s range
/// assert inside the kernel.
#[test]
fn writes_past_the_end_of_a_volume_are_rejected_at_admission() {
    let mut r = rig();
    let solo = r.world.st.create_volume(r.main, "solo", 64);
    let adc_p = r.world.st.create_volume(r.main, "adc-p", 64);
    let adc_s = r.world.st.create_volume(r.backup, "adc-s", 64);
    let sdc_p = r.world.st.create_volume(r.main, "sdc-p", 64);
    let sdc_s = r.world.st.create_volume(r.backup, "sdc-s", 64);
    let adc = r.world.st.create_adc_group("adc", r.link, r.reverse, 1 << 24);
    let sdc = r.world.st.create_sdc_group("sdc", r.link, r.reverse);
    r.world.st.add_pair(adc, adc_p, adc_s);
    r.world.st.add_pair(sdc, sdc_p, sdc_s);

    let vols = [solo, adc_p, sdc_p];
    for (i, &vol) in vols.iter().enumerate() {
        let tag = i as u64 * 10;
        write_at(&mut r.sim, SimTime::ZERO, vol, 64, tag); // first block past the end
        write_at(&mut r.sim, SimTime::ZERO, vol, u64::MAX, tag + 1);
        // Same instant, same volume, in range: it must not queue behind a
        // ticket the rejected writes never took.
        write_at(&mut r.sim, SimTime::ZERO, vol, 63, tag + 2);
    }
    r.sim.run(&mut r.world);

    assert_eq!(r.world.acks.len(), 9);
    for (tag, ack, at) in &r.world.acks {
        if tag % 10 == 2 {
            assert!(matches!(ack, WriteAck::Ok { .. }), "in-range write {tag}: {ack:?}");
        } else {
            assert_eq!(*ack, WriteAck::Failed(WriteError::OutOfRange), "write {tag}");
            assert_eq!(*at, SimTime::ZERO, "rejected at admission, not after service");
        }
    }
    assert_eq!(r.world.st.metrics.counter(tsuru_storage::metric_names::WRITES_FAILED), 6);
    for vol in vols {
        assert_eq!(r.world.st.ack_log.count_for(vol), 1);
        assert_eq!(r.world.st.array(vol.array).volume(vol.volume).allocated_blocks(), 1);
    }
    assert!(r.world.st.verify_consistency(&[adc, sdc]).is_consistent());
    assert_eq!(r.world.st.read_direct(adc_s, 63), r.world.st.read_direct(adc_p, 63));
    assert_eq!(r.world.st.read_direct(sdc_s, 63), r.world.st.read_direct(sdc_p, 63));
}

#[test]
fn reads_complete_with_service_latency() {
    let mut r = rig();
    let v = r.world.st.create_volume(r.main, "v", 64);
    r.world.st.write_direct(v, 5, b"readable");
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, sim| {
        host_read(w, sim, v, 5, |w: &mut World, sim, data| {
            assert_eq!(&data.expect("block exists")[..8], b"readable");
            assert_eq!(sim.now(), SimTime::from_micros(200));
            w.acks.push((0, WriteAck::Ok { latency: SimDuration::ZERO, global: 0 }, sim.now()));
        });
        host_read(w, sim, v, 9, |w: &mut World, sim, data| {
            assert!(data.is_none(), "unwritten block reads as None");
            w.acks.push((1, WriteAck::Ok { latency: SimDuration::ZERO, global: 0 }, sim.now()));
        });
    });
    r.sim.run(&mut r.world);
    assert_eq!(r.world.acks.len(), 2);
}

/// A host read past the end of a volume — directly or through a snapshot
/// — is refused at admission: `None` at the submit instant, counted, no
/// service time charged. It used to pass admission and trip
/// `Volume::read`'s range assert inside `StorageOp::ReadDone`.
#[test]
fn reads_past_the_end_of_a_volume_are_rejected_at_admission() {
    let mut r = rig();
    let v = r.world.st.create_volume(r.main, "v", 64);
    r.world.st.write_direct(v, 63, b"last");
    let snap = r.world.st.snapshot(v, "snap", SimTime::ZERO);
    let main = r.main;
    fn found(w: &mut World, sim: &mut Sim<World, Ev<World>>, data: Option<BlockBuf>) {
        w.reads.push((data.is_some(), sim.now()));
    }
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, sim| {
        host_read(w, sim, v, 64, found); // first block past the end
        host_read(w, sim, v, u64::MAX, found);
        // In range: served, not queued behind the rejects.
        host_read(w, sim, v, 63, found);
        host_read_snapshot(w, sim, main, snap, 64, found);
        host_read_snapshot(w, sim, main, snap, u64::MAX, found);
        host_read_snapshot(w, sim, main, snap, 63, found);
    });
    r.sim.run(&mut r.world);
    // The four rejects complete on the next tick in submit order, empty;
    // the two in-range reads are served one read service apart.
    let (rejected, served) = ((false, SimTime::ZERO), (true, SimTime::from_micros(200)));
    let want = [
        rejected,
        rejected,
        rejected,
        rejected,
        served,
        (true, SimTime::from_micros(400)),
    ];
    assert_eq!(r.world.reads, want);
    assert_eq!(r.world.st.metrics.counter(tsuru_storage::metric_names::READS_FAILED), 4);
}

/// Host I/O naming an array the world does not hold (an `ArrayId` is a
/// number any caller can build) or a snapshot that has been deleted is
/// refused at admission, typed and counted, like an unknown volume.
#[test]
fn a_write_to_an_array_the_world_does_not_hold_fails_with_no_such_volume() {
    let mut r = rig();
    let v = r.world.st.create_volume(r.main, "v", 64);
    let ghost = VolRef::new(ArrayId(7), v.volume);
    write_at(&mut r.sim, SimTime::ZERO, ghost, 0, 1);
    write_at(&mut r.sim, SimTime::ZERO, v, 0, 2);
    r.sim.run(&mut r.world);
    assert_eq!(r.world.acks.len(), 2);
    let (tag, ack, acked_at) = r.world.acks[0];
    assert_eq!((tag, acked_at), (1, SimTime::ZERO), "refused on the next tick");
    assert_eq!(ack, WriteAck::Failed(WriteError::NoSuchVolume));
    assert!(matches!(r.world.acks[1].1, WriteAck::Ok { .. }));
    assert_eq!(r.world.st.metrics.counter(tsuru_storage::metric_names::WRITES_FAILED), 1);
    assert_eq!(r.world.st.ack_log.len(), 1);
}

#[test]
fn a_read_from_an_array_the_world_does_not_hold_returns_none() {
    let mut r = rig();
    let v = r.world.st.create_volume(r.main, "v", 64);
    r.world.st.write_direct(v, 0, b"held");
    let ghost = VolRef::new(ArrayId(7), v.volume);
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, sim| {
        host_read(w, sim, ghost, 0, |w: &mut World, sim, data| {
            assert!(data.is_none());
            w.acks.push((0, WriteAck::Ok { latency: SimDuration::ZERO, global: 0 }, sim.now()));
        });
    });
    r.sim.run(&mut r.world);
    assert_eq!(r.world.acks.len(), 1);
    assert_eq!(r.world.acks[0].2, SimTime::ZERO, "refused on the next tick");
    assert_eq!(r.world.st.metrics.counter(tsuru_storage::metric_names::READS_FAILED), 1);
}

#[test]
fn a_read_of_a_deleted_snapshot_returns_none() {
    let mut r = rig();
    let v = r.world.st.create_volume(r.main, "v", 64);
    r.world.st.write_direct(v, 0, b"original");
    let snap = r.world.st.snapshot(v, "pit", SimTime::ZERO);
    r.world.st.array_mut(r.main).delete_snapshot(snap);
    let (main, ghost) = (r.main, ArrayId(7));
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, sim| {
        for array in [main, ghost] {
            host_read_snapshot(w, sim, array, snap, 0, |w: &mut World, sim, data| {
                assert!(data.is_none());
                let ack = WriteAck::Ok { latency: SimDuration::ZERO, global: 0 };
                w.acks.push((0, ack, sim.now()));
            });
        }
    });
    r.sim.run(&mut r.world);
    assert_eq!(r.world.acks.len(), 2);
    assert!(r.world.acks.iter().all(|a| a.2 == SimTime::ZERO), "refused on the next tick");
    assert_eq!(r.world.st.metrics.counter(tsuru_storage::metric_names::READS_FAILED), 2);

    // Deleted while the read is in service: admitted, then finds nothing.
    let snap = r.world.st.snapshot(v, "pit-2", r.sim.now());
    let start = r.sim.now();
    at(&mut r.sim, start, move |w: &mut World, sim| {
        host_read_snapshot(w, sim, main, snap, 0, |w: &mut World, sim, data| {
            assert!(data.is_none(), "the snapshot is gone");
            w.acks.push((2, WriteAck::Ok { latency: SimDuration::ZERO, global: 0 }, sim.now()));
        });
    });
    at(&mut r.sim, start + SimDuration::from_micros(100), move |w: &mut World, _| {
        w.st.array_mut(main).delete_snapshot(snap);
    });
    r.sim.run(&mut r.world);
    assert_eq!(r.world.acks.len(), 3);
    assert_eq!(r.world.acks[2].2, start + SimDuration::from_micros(200), "served, not refused");
}

#[test]
fn link_outage_with_auto_heal_catches_up() {
    let mut r = rig();
    let p = r.world.st.create_volume(r.main, "p", 512);
    let s = r.world.st.create_volume(r.backup, "s", 512);
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p, s);

    // Outage window 5..30 ms.
    let link = r.link;
    at(&mut r.sim, SimTime::from_millis(5), move |w: &mut World, _| {
        w.st.net
            .link_mut(link)
            .set_down(SimTime::from_millis(5), Some(SimTime::from_millis(30)));
    });
    for i in 0..200u64 {
        write_at(&mut r.sim, SimTime::from_nanos(i * 100_000), p, i % 256, i);
    }
    r.sim.run(&mut r.world);

    assert_eq!(
        r.world.st.array(r.backup).volume(s.volume).content_hashes(),
        r.world.st.array(r.main).volume(p.volume).content_hashes(),
        "backup must fully catch up after the outage heals"
    );
    let rep = r.world.st.verify_consistency(&[g]);
    assert!(rep.is_consistent(), "{rep:?}");
}

#[test]
fn indefinite_outage_requires_manual_heal_and_pump_kick() {
    let mut r = rig();
    let p = r.world.st.create_volume(r.main, "p", 512);
    let s = r.world.st.create_volume(r.backup, "s", 512);
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p, s);

    let link = r.link;
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, _| {
        w.st.net.link_mut(link).set_down(SimTime::ZERO, None);
    });
    for i in 0..50u64 {
        write_at(&mut r.sim, SimTime::from_nanos(1 + i * 100_000), p, i, i);
    }
    // Run a while: nothing must reach the backup.
    r.sim.run_until(&mut r.world, SimTime::from_millis(100));
    assert_eq!(
        r.world
            .st
            .array(r.backup)
            .volume(s.volume)
            .allocated_blocks(),
        0
    );
    // Heal + kick: replication drains.
    at(&mut r.sim, SimTime::from_millis(101), move |w: &mut World, sim| {
        w.st.net.link_mut(link).set_up();
        kick_all_pumps(w, sim);
    });
    r.sim.run(&mut r.world);
    assert_eq!(
        r.world.st.array(r.backup).volume(s.volume).content_hashes(),
        r.world.st.array(r.main).volume(p.volume).content_hashes()
    );
}

#[test]
fn sdc_link_down_suspends_and_acks_degraded() {
    let mut r = rig();
    let p = r.world.st.create_volume(r.main, "p", 64);
    let s = r.world.st.create_volume(r.backup, "s", 64);
    let g = r.world.st.create_sdc_group("g", r.link, r.reverse);
    r.world.st.add_pair(g, p, s);

    let link = r.link;
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, _| {
        w.st.net.link_mut(link).set_down(SimTime::ZERO, None);
    });
    write_at(&mut r.sim, SimTime::from_millis(1), p, 0, 1);
    write_at(&mut r.sim, SimTime::from_millis(2), p, 1, 2);
    r.sim.run(&mut r.world);

    assert!(r
        .world
        .acks
        .iter()
        .all(|(_, a, _)| matches!(a, WriteAck::Degraded { .. })));
    assert!(matches!(
        r.world.st.fabric.group(g).state,
        GroupState::Suspended { .. }
    ));
    // Data persisted locally despite the suspension.
    assert!(r.world.st.read_direct(p, 0).is_some());
    assert!(r.world.st.read_direct(s, 0).is_none());
}

#[test]
fn lossy_link_retransmits_until_complete() {
    let mut cfg = LinkConfig::with(SimDuration::from_millis(1), 100_000_000);
    cfg.loss_probability = 0.3;
    let mut r = rig_with(EngineConfig::default(), cfg);
    let p = r.world.st.create_volume(r.main, "p", 512);
    let s = r.world.st.create_volume(r.backup, "s", 512);
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p, s);

    for i in 0..100u64 {
        write_at(&mut r.sim, SimTime::from_nanos(i * 100_000), p, i, i);
    }
    r.sim.run(&mut r.world);
    assert_eq!(
        r.world.st.array(r.backup).volume(s.volume).content_hashes(),
        r.world.st.array(r.main).volume(p.volume).content_hashes()
    );
    assert!(r.world.st.net.link(r.link).frames_lost() > 0);
}

#[test]
fn runs_are_deterministic() {
    fn run_once() -> Vec<(u64, SimTime)> {
        let mut r = rig();
        let p1 = r.world.st.create_volume(r.main, "v1", 512);
        let p2 = r.world.st.create_volume(r.main, "v2", 512);
        let s1 = r.world.st.create_volume(r.backup, "v1r", 512);
        let s2 = r.world.st.create_volume(r.backup, "v2r", 512);
        let g = r.world.st.create_adc_group("cg", r.link, r.reverse, 1 << 24);
        r.world.st.add_pair(g, p1, s1);
        r.world.st.add_pair(g, p2, s2);
        for i in 0..300u64 {
            let vol = if i % 2 == 0 { p1 } else { p2 };
            write_at(&mut r.sim, SimTime::from_nanos(i * 137_000), vol, i / 2, i);
        }
        r.sim.run(&mut r.world);
        r.world.acks.iter().map(|&(tag, _, at)| (tag, at)).collect()
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn promote_drains_remote_journal() {
    // Slow apply so entries sit in the remote journal when we promote.
    let mut perf = ArrayPerf::default();
    perf.apply_service = SimDuration::from_millis(5);
    let mut st = StorageWorld::new(1, EngineConfig::default());
    let main = st.add_array("m", ArrayPerf::default());
    let backup = st.add_array("b", perf);
    let link = st.add_link(LinkConfig::metro());
    let rev = st.add_link(LinkConfig::metro());
    let g = st.create_adc_group("g", link, rev, 1 << 24);
    let p = st.create_volume(main, "p", 256);
    let s = st.create_volume(backup, "s", 256);
    st.add_pair(g, p, s);

    let mut world = World {
        st,
        acks: Vec::new(),
        reads: Vec::new(),
    };
    let mut sim: Sim<World, Ev<World>> = Sim::new();
    for i in 0..50u64 {
        write_at(&mut sim, SimTime::from_nanos(i * 100_000), p, i, i);
    }
    // Stop mid-apply: fail main at 10 ms, then let arrivals land.
    at(&mut sim, SimTime::from_millis(10), move |w: &mut World, sim| {
        w.st.fail_array(main, sim.now());
    });
    sim.run_until(&mut world, SimTime::from_millis(50));
    let applied_during_promote = world.st.promote_group(g);
    // The run stopped with the remote journal non-empty (slow apply), so
    // promotion had work to do.
    assert!(applied_during_promote > 0, "promote should drain the journal");
    let rep = world.st.verify_consistency(&[g]);
    assert!(rep.is_consistent(), "{rep:?}");
    assert_eq!(
        world
            .st
            .array(backup)
            .volume(s.volume)
            .role(),
        tsuru_storage::VolumeRole::Primary
    );
}

#[test]
fn backup_array_brownout_grows_lag_but_never_breaks_order() {
    // Mid-run the backup array degrades (apply service 100x slower). The
    // backup falls behind, yet every reachable state remains a consistent
    // prefix, and the lag drains once the array recovers.
    let mut r = rig();
    let p = r.world.st.create_volume(r.main, "p", 512);
    let s = r.world.st.create_volume(r.backup, "s", 512);
    let g = r.world.st.create_adc_group("g", r.link, r.reverse, 1 << 24);
    r.world.st.add_pair(g, p, s);

    let backup = r.backup;
    at(&mut r.sim, SimTime::from_millis(5), move |w: &mut World, _| {
        let mut slow = ArrayPerf::default();
        slow.apply_service = SimDuration::from_millis(5);
        w.st.array_mut(backup).set_perf(slow);
    });
    for i in 0..300u64 {
        write_at(&mut r.sim, SimTime::from_nanos(i * 100_000), p, i % 256, i);
    }
    // Mid-brownout check: lag accumulated, consistency intact.
    r.sim.run_until(&mut r.world, SimTime::from_millis(40));
    let st = tsuru_storage::group_status(&r.world.st);
    assert!(st[0].lag_writes > 10, "brownout must grow lag: {st:?}");
    assert!(r.world.st.verify_consistency(&[g]).is_consistent());
    // Recovery: back to normal speed; everything drains.
    at(&mut r.sim, SimTime::from_millis(41), move |w: &mut World, _| {
        w.st.array_mut(backup).set_perf(ArrayPerf::default());
    });
    r.sim.run(&mut r.world);
    assert_eq!(
        r.world.st.array(r.backup).volume(s.volume).content_hashes(),
        r.world.st.array(r.main).volume(p.volume).content_hashes()
    );
    assert_eq!(tsuru_storage::group_status(&r.world.st)[0].lag_writes, 0);
}

#[test]
fn snapshot_reads_are_timed_and_point_in_time() {
    let mut r = rig();
    let v = r.world.st.create_volume(r.main, "v", 64);
    r.world.st.write_direct(v, 3, b"original");
    let snap = r.world.st.snapshot(v, "pit", SimTime::ZERO);
    r.world.st.write_direct(v, 3, b"modified");
    let main = r.main;
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, sim| {
        tsuru_storage::host_read_snapshot(w, sim, main, snap, 3, |w, sim, data| {
            assert_eq!(&data.expect("preserved")[..8], b"original");
            assert_eq!(sim.now(), SimTime::from_micros(200), "read service time");
            w.acks.push((0, WriteAck::Ok { latency: SimDuration::ZERO, global: 0 }, sim.now()));
        });
        tsuru_storage::host_read_snapshot(w, sim, main, snap, 9, |w, sim, data| {
            assert!(data.is_none(), "unwritten at snapshot time");
            w.acks.push((1, WriteAck::Ok { latency: SimDuration::ZERO, global: 0 }, sim.now()));
        });
    });
    r.sim.run(&mut r.world);
    assert_eq!(r.world.acks.len(), 2);
    // Reads on a failed array return None.
    r.world.st.fail_array(main, r.sim.now());
    after(&mut r.sim, SimDuration::from_millis(1), move |w: &mut World, sim| {
        tsuru_storage::host_read_snapshot(w, sim, main, snap, 3, |w, sim, data| {
            assert!(data.is_none());
            w.acks.push((2, WriteAck::Ok { latency: SimDuration::ZERO, global: 0 }, sim.now()));
        });
    });
    r.sim.run(&mut r.world);
    assert_eq!(r.world.acks.len(), 3);
}
