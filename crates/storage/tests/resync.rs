//! Suspension and resynchronisation: operator suspend, link-down suspend,
//! delta vs full resync, and epoch safety against in-flight frames.

mod common;

use common::{at, Ev};
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::{host_write, kick_all_pumps};
use tsuru_storage::{
    block_from, ArrayId, ArrayPerf, EngineConfig, GroupId, HasStorage, StorageWorld, VolRef,
};

struct World {
    st: StorageWorld,
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
    p: [VolRef; 2],
    s: [VolRef; 2],
    g: GroupId,
}

fn rig(seed: u64) -> Rig {
    let mut st = StorageWorld::new(seed, EngineConfig::default());
    let main = st.add_array("m", ArrayPerf::default());
    let backup = st.add_array("b", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let rev = st.add_link(LinkConfig::metro());
    let g = st.create_adc_group("cg", link, rev, 1 << 24);
    let p0 = st.create_volume(main, "p0", 512);
    let p1 = st.create_volume(main, "p1", 512);
    let s0 = st.create_volume(backup, "s0", 512);
    let s1 = st.create_volume(backup, "s1", 512);
    // Pre-populate so a full resync would copy many blocks.
    for lba in 0..200 {
        st.write_direct(p0, lba, &lba.to_le_bytes());
        st.write_direct(p1, lba, &lba.to_le_bytes());
    }
    st.add_pair(g, p0, s0);
    st.add_pair(g, p1, s1);
    Rig {
        world: World { st },
        sim: Sim::new(),
        main,
        backup,
        p: [p0, p1],
        s: [s0, s1],
        g,
    }
}

fn write_at(sim: &mut Sim<World, Ev<World>>, t: SimTime, vol: VolRef, lba: u64, tag: u64) {
    at(sim, t, move |w: &mut World, sim| {
        host_write(
            w,
            sim,
            vol,
            lba,
            block_from(&tag.to_le_bytes()),
            |_, _, _| {},
        );
    });
}

#[test]
fn delta_resync_copies_only_the_dirty_set() {
    let mut r = rig(1);
    // Normal replication for a while.
    for i in 0..50u64 {
        write_at(
            &mut r.sim,
            SimTime::from_nanos(i * 100_000),
            r.p[i as usize % 2],
            i,
            i,
        );
    }
    r.sim.run(&mut r.world);

    // Operator suspends; a handful of writes land while split.
    r.world.st.suspend_group(r.g, r.sim.now());
    let base = r.sim.now();
    for i in 0..12u64 {
        write_at(
            &mut r.sim,
            base + SimDuration::from_nanos((i + 1) * 100_000),
            r.p[i as usize % 2],
            300 + i,
            1000 + i,
        );
    }
    r.sim.run(&mut r.world);
    // The backup did not advance while suspended.
    assert!(r.world.st.read_direct(r.s[0], 300).is_none());

    let report = r.world.st.resync_group(r.g);
    assert!(report.delta, "suspended group gets a delta resync");
    assert!(
        report.blocks_copied >= 12 && report.blocks_copied < 50,
        "only the dirty set is copied, not all ~250 blocks: {report:?}"
    );
    // Content converged.
    for i in 0..2 {
        assert_eq!(
            r.world
                .st
                .array(r.main)
                .volume(r.p[i].volume)
                .content_hashes(),
            r.world
                .st
                .array(r.backup)
                .volume(r.s[i].volume)
                .content_hashes()
        );
    }
    // And replication works again in the new epoch.
    let now = r.sim.now();
    for i in 0..20u64 {
        write_at(
            &mut r.sim,
            now + SimDuration::from_nanos((i + 1) * 100_000),
            r.p[0],
            i,
            2000 + i,
        );
    }
    r.sim.run(&mut r.world);
    assert_eq!(
        r.world
            .st
            .array(r.main)
            .volume(r.p[0].volume)
            .content_hashes(),
        r.world
            .st
            .array(r.backup)
            .volume(r.s[0].volume)
            .content_hashes()
    );
    let rep = r.world.st.verify_consistency(&[r.g]);
    assert!(rep.is_consistent(), "{rep:?}");
}

#[test]
fn resync_of_active_group_is_a_full_copy() {
    let mut r = rig(2);
    let report = r.world.st.resync_group(r.g);
    assert!(!report.delta);
    assert_eq!(report.blocks_copied, 400, "two volumes × 200 blocks");
}

#[test]
fn stale_in_flight_frames_are_discarded_after_resync() {
    // Slow link so frames are in flight when we suspend + resync.
    let mut st = StorageWorld::new(3, EngineConfig::default());
    let main = st.add_array("m", ArrayPerf::default());
    let backup = st.add_array("b", ArrayPerf::default());
    let link = st.add_link(LinkConfig::with(SimDuration::from_millis(50), 10_000_000));
    let rev = st.add_link(LinkConfig::with(SimDuration::from_millis(50), 10_000_000));
    let g = st.create_adc_group("cg", link, rev, 1 << 24);
    let p = st.create_volume(main, "p", 512);
    let s = st.create_volume(backup, "s", 512);
    st.add_pair(g, p, s);
    let mut world = World { st };
    let mut sim: Sim<World, Ev<World>> = Sim::new();
    for i in 0..40u64 {
        at(
            &mut sim,
            SimTime::from_nanos(i * 100_000),
            move |w: &mut World, sim| {
                host_write(w, sim, p, i, block_from(&i.to_le_bytes()), |_, _, _| {});
            },
        );
    }
    // Suspend + resync at 10 ms: frames offered before that are still on
    // the 50 ms wire and must be dropped on arrival (old generation).
    at(
        &mut sim,
        SimTime::from_millis(10),
        move |w: &mut World, sim| {
            w.st.suspend_group(g, sim.now());
            let report = w.st.resync_group(g);
            assert!(report.delta);
            kick_all_pumps(w, sim);
        },
    );
    sim.run(&mut world);
    // No out-of-order panic, and the end state is exact + consistent.
    assert_eq!(
        world.st.array(main).volume(p.volume).content_hashes(),
        world.st.array(backup).volume(s.volume).content_hashes()
    );
    let rep = world.st.verify_consistency(&[g]);
    assert!(rep.is_consistent(), "{rep:?}");
}

#[test]
fn generation_bumps_on_resync_and_promote() {
    let mut r = rig(4);
    assert_eq!(r.world.st.fabric.group(r.g).generation, 0);
    r.world.st.suspend_group(r.g, SimTime::from_secs(1));
    r.world.st.resync_group(r.g);
    assert_eq!(r.world.st.fabric.group(r.g).generation, 1);
    r.world.st.fail_array(r.main, SimTime::from_secs(2));
    r.world.st.promote_group(r.g);
    assert_eq!(r.world.st.fabric.group(r.g).generation, 2);
}

#[test]
fn dirty_tracking_starts_at_suspension_only() {
    let mut r = rig(5);
    for i in 0..10u64 {
        write_at(&mut r.sim, SimTime::from_nanos(i * 100_000), r.p[0], i, i);
    }
    r.sim.run(&mut r.world);
    // Active writes do not populate the dirty set.
    let pid = r.world.st.fabric.group(r.g).pairs[0];
    assert!(r.world.st.fabric.pair(pid).dirty_since_suspend.is_empty());
    r.world.st.suspend_group(r.g, r.sim.now());
    let now = r.sim.now();
    write_at(
        &mut r.sim,
        now + SimDuration::from_millis(1),
        r.p[0],
        77,
        77,
    );
    r.sim.run(&mut r.world);
    assert!(r
        .world
        .st
        .fabric
        .pair(pid)
        .dirty_since_suspend
        .contains(&77));
}
