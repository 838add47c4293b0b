//! Failover → repair → failback: the full disaster-recovery round trip.
//!
//! The paper demonstrates failover readiness; real deployments also need
//! the way back. This exercises the extension: after promoting the backup
//! site, the repaired original site becomes the replication *target* of a
//! reversed consistency group, catches up, and can itself survive a
//! failure of the (formerly backup) site.

mod common;

use common::{at, Ev};
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::{
    block_from, ArrayPerf, EngineConfig, GroupState, HasStorage, StorageWorld, VolumeRole, WriteAck,
};

struct World {
    st: StorageWorld,
    acks: u64,
    rejected: u64,
}

impl HasStorage for World {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

#[test]
fn full_disaster_recovery_round_trip() {
    let mut st = StorageWorld::new(11, EngineConfig::default());
    let main = st.add_array("vsp-main", ArrayPerf::default());
    let backup = st.add_array("vsp-backup", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let rev = st.add_link(LinkConfig::metro());

    let g = st.create_adc_group("cg", link, rev, 1 << 24);
    let p1 = st.create_volume(main, "v1", 256);
    let p2 = st.create_volume(main, "v2", 256);
    let s1 = st.create_volume(backup, "v1r", 256);
    let s2 = st.create_volume(backup, "v2r", 256);
    st.add_pair(g, p1, s1);
    st.add_pair(g, p2, s2);

    let mut world = World {
        st,
        acks: 0,
        rejected: 0,
    };
    let mut sim: Sim<World, Ev<World>> = Sim::new();

    // Phase 1: normal operation, then disaster.
    for i in 0..100u64 {
        let vol = if i % 2 == 0 { p1 } else { p2 };
        at(
            &mut sim,
            SimTime::from_nanos(i * 100_000),
            move |w: &mut World, sim| {
                host_write(
                    w,
                    sim,
                    vol,
                    i / 2,
                    block_from(&i.to_le_bytes()),
                    |w, _, ack| {
                        if ack.is_persisted() {
                            w.acks += 1;
                        }
                    },
                );
            },
        );
    }
    at(
        &mut sim,
        SimTime::from_millis(6),
        move |w: &mut World, sim| {
            w.st.fail_array(main, sim.now());
        },
    );
    sim.run_until(&mut world, SimTime::from_millis(100));
    world.st.promote_group(g);
    assert!(world.st.verify_consistency(&[g]).is_consistent());
    assert_eq!(world.st.fabric.group(g).state, GroupState::Promoted);

    // Phase 2: business continues at the backup site (promoted volumes are
    // writable now).
    for i in 100..160u64 {
        let vol = if i % 2 == 0 { s1 } else { s2 };
        at(
            &mut sim,
            SimTime::from_millis(100) + tsuru_sim::SimDuration::from_nanos((i - 100) * 100_000),
            move |w: &mut World, sim| {
                host_write(
                    w,
                    sim,
                    vol,
                    i / 2,
                    block_from(&i.to_le_bytes()),
                    |w, _, ack| match ack {
                        WriteAck::Failed(_) => w.rejected += 1,
                        _ => w.acks += 1,
                    },
                );
            },
        );
    }
    sim.run_until(&mut world, SimTime::from_millis(150));
    assert_eq!(world.rejected, 0, "promoted volumes accept writes");

    // Phase 3: the original site is repaired; reverse protection.
    world.st.array_mut(main).recover();
    let back_link = world.st.add_link(LinkConfig::metro());
    let back_rev = world.st.add_link(LinkConfig::metro());
    let rg = world
        .st
        .establish_reverse_group(g, back_link, back_rev, 1 << 24);
    // The original volumes are now fenced replication targets.
    assert_eq!(
        world.st.array(main).volume(p1.volume).role(),
        VolumeRole::Secondary
    );

    // Phase 4: more business at the (new) primary site; replication flows
    // backwards.
    for i in 160..220u64 {
        let vol = if i % 2 == 0 { s1 } else { s2 };
        at(
            &mut sim,
            SimTime::from_millis(150) + tsuru_sim::SimDuration::from_nanos((i - 160) * 100_000),
            move |w: &mut World, sim| {
                host_write(
                    w,
                    sim,
                    vol,
                    i / 2,
                    block_from(&i.to_le_bytes()),
                    |w, _, ack| {
                        if ack.is_persisted() {
                            w.acks += 1;
                        }
                    },
                );
            },
        );
    }
    sim.run(&mut world);

    // The original site caught up: content matches the promoted site.
    for (promoted, original) in [(s1, p1), (s2, p2)] {
        assert_eq!(
            world
                .st
                .array(backup)
                .volume(promoted.volume)
                .content_hashes(),
            world
                .st
                .array(main)
                .volume(original.volume)
                .content_hashes(),
            "failback target must converge to the promoted content"
        );
    }
    let rep = world.st.verify_consistency(&[rg]);
    assert!(rep.is_consistent(), "{rep:?}");

    // Phase 5: the reversed protection actually protects — fail the
    // (formerly backup) site and promote the original one again.
    let fail2 = sim.now();
    world.st.fail_array(backup, fail2);
    sim.run_until(&mut world, fail2 + SimDuration::from_millis(100));
    world.st.promote_group(rg);
    assert!(world.st.verify_consistency(&[rg]).is_consistent());
    assert_eq!(
        world.st.array(main).volume(p1.volume).role(),
        VolumeRole::Primary,
        "original volumes writable again after the second failover"
    );
}

#[test]
#[should_panic(expected = "must be recovered")]
fn failback_requires_a_repaired_array() {
    let mut st = StorageWorld::new(1, EngineConfig::default());
    let main = st.add_array("m", ArrayPerf::default());
    let backup = st.add_array("b", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let rev = st.add_link(LinkConfig::metro());
    let g = st.create_adc_group("g", link, rev, 1 << 20);
    let p = st.create_volume(main, "p", 16);
    let s = st.create_volume(backup, "s", 16);
    st.add_pair(g, p, s);
    st.fail_array(main, SimTime::from_secs(1));
    st.promote_group(g);
    // Array still failed: failback must refuse.
    let _ = st.establish_reverse_group(g, link, rev, 1 << 20);
}

#[test]
#[should_panic(expected = "requires a promoted group")]
fn failback_requires_a_promoted_group() {
    let mut st = StorageWorld::new(1, EngineConfig::default());
    let main = st.add_array("m", ArrayPerf::default());
    let backup = st.add_array("b", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let rev = st.add_link(LinkConfig::metro());
    let g = st.create_adc_group("g", link, rev, 1 << 20);
    let p = st.create_volume(main, "p", 16);
    let s = st.create_volume(backup, "s", 16);
    st.add_pair(g, p, s);
    let _ = st.establish_reverse_group(g, link, rev, 1 << 20);
}
