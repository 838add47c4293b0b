//! Supervisor-specific regression tests: the stale-epoch pump guard and
//! the automatic failover → failback round trip.
//!
//! The chaos suite exercises the supervisor statistically; these tests pin
//! the two trickiest transitions deterministically — a pump event from a
//! superseded replication epoch must be discarded, and an array crash
//! followed by repair must walk PrimaryDown → FailedOver → FailingBack →
//! Healthy with exactly one failover and one failback.

mod common;

use common::{after, at, Ev};
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::supervisor::tick;
use tsuru_storage::{
    block_from, ArrayPerf, EngineConfig, GroupState, HasStorage, RecoveryStage, StorageWorld,
    SupervisorPolicy, SuspendReason, VolumeRole,
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

/// A kicked transfer pump carries the group generation it was scheduled
/// under; a resync bumps the generation, so the pump event arriving later
/// must be a silent no-op — it must not ship from (or clear) the fresh
/// journals of the new epoch, and it must not wedge the new epoch's pumps.
#[test]
fn stale_epoch_pump_is_discarded_after_resync() {
    // A long, jitter-free pump interval opens a window where the pump
    // event is pending but has not yet fired.
    let cfg = EngineConfig {
        pump_interval: SimDuration::from_millis(5),
        pump_jitter: SimDuration::ZERO,
        ..EngineConfig::default()
    };
    let mut st = StorageWorld::new(7, cfg);
    let main = st.add_array("m", ArrayPerf::default());
    let backup = st.add_array("b", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let rev = st.add_link(LinkConfig::metro());
    let g = st.create_adc_group("g", link, rev, 1 << 20);
    let p = st.create_volume(main, "p", 64);
    let s = st.create_volume(backup, "s", 64);
    st.add_pair(g, p, s);
    let gen0 = st.fabric.group(g).generation;

    let mut world = World {
        st,
        acks: 0,
        rejected: 0,
    };
    let mut sim: Sim<World, Ev<World>> = Sim::new();

    // t=0: one write journals an entry and schedules RunTransfer{gen0}
    // for t≈5ms.
    at(&mut sim, SimTime::ZERO, move |w: &mut World, sim| {
        host_write(w, sim, p, 0, block_from(b"stale-epoch"), |w, _, ack| {
            if ack.is_persisted() {
                w.acks += 1;
            }
        });
    });
    // t=2ms: with that pump still pending, open a new replication epoch.
    at(
        &mut sim,
        SimTime::from_millis(2),
        move |w: &mut World, sim| {
            assert!(
                w.st.fabric.group(g).pump_scheduled,
                "test premise: the gen-{gen0} pump must still be in flight"
            );
            w.st.fabric
                .group_mut(g)
                .suspend(sim.now(), SuspendReason::Operator);
            let report = w.st.resync_group(g);
            assert!(report.delta, "a suspended group gets a delta resync");
            assert_eq!(w.st.fabric.group(g).generation, gen0 + 1);
            assert!(!w.st.fabric.group(g).pump_scheduled);
        },
    );
    // The stale RunTransfer fires at ~5ms and must hit the epoch guard.
    sim.run(&mut world);

    assert_eq!(world.acks, 1);
    let grp = world.st.fabric.group(g);
    assert_eq!(grp.state, GroupState::Active);
    assert!(
        !grp.pump_scheduled,
        "the stale pump must not leave the new epoch marked as scheduled"
    );
    let fresh_jnl = grp.primary_jnl.expect("adc group keeps a primary journal");
    assert!(
        world.st.fabric.journal(fresh_jnl).is_empty(),
        "the stale pump must not touch the new epoch's journal"
    );
    assert!(world.st.verify_consistency(&[g]).is_consistent());

    // The new epoch still replicates: a post-resync write flows end to end.
    let now = sim.now();
    at(&mut sim, now, move |w: &mut World, sim| {
        host_write(w, sim, p, 1, block_from(b"new-epoch"), |w, _, ack| {
            if ack.is_persisted() {
                w.acks += 1;
            }
        });
    });
    sim.run(&mut world);
    assert_eq!(world.acks, 2);
    assert_eq!(
        world.st.array(main).volume(p.volume).content_hashes(),
        world.st.array(backup).volume(s.volume).content_hashes(),
        "replication must keep working under the new generation"
    );
    assert!(world.st.verify_consistency(&[g]).is_consistent());
}

/// Crash the primary array, let the supervisor promote the backup site
/// (failover, step 1), repair the array and let the supervisor establish
/// reverse protection and return home (failback, step 2) — all without an
/// operator.
#[test]
fn supervisor_drives_failover_then_failback() {
    let mut st = StorageWorld::new(13, EngineConfig::default());
    let main = st.add_array("vsp-main", ArrayPerf::default());
    let backup = st.add_array("vsp-backup", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let rev = st.add_link(LinkConfig::metro());
    let g = st.create_adc_group("cg", link, rev, 1 << 22);
    let p = st.create_volume(main, "v", 128);
    let s = st.create_volume(backup, "vr", 128);
    st.add_pair(g, p, s);
    st.enable_supervisor(SupervisorPolicy {
        auto_failover: true,
        failover_grace: SimDuration::from_millis(3),
        auto_failback: true,
        ..SupervisorPolicy::default()
    });

    let mut world = World {
        st,
        acks: 0,
        rejected: 0,
    };
    let mut sim: Sim<World, Ev<World>> = Sim::new();

    // Probe every millisecond until well past the round trip.
    fn probe(w: &mut World, sim: &mut Sim<World, Ev<World>>) {
        tick(w, sim);
        if sim.now() < SimTime::from_millis(80) {
            after(sim, SimDuration::from_millis(1), probe);
        }
    }
    at(&mut sim, SimTime::ZERO, probe);

    // Business at the main site, then disaster at t=10ms.
    for i in 0..16u64 {
        at(
            &mut sim,
            SimTime::from_nanos(i * 500_000),
            move |w: &mut World, sim| {
                host_write(
                    w,
                    sim,
                    p,
                    i % 8,
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
        SimTime::from_millis(10),
        move |w: &mut World, sim| {
            w.st.fail_array(main, sim.now());
        },
    );

    // Step 1: after the grace period the supervisor promotes on its own.
    sim.run_until(&mut world, SimTime::from_millis(20));
    {
        let sv = world.st.supervisor().expect("armed");
        assert_eq!(sv.stats().failovers, 1, "grace elapsed → one auto-failover");
        assert_eq!(sv.stats().failbacks, 0);
        assert!(matches!(sv.stage(g), RecoveryStage::FailedOver { .. }));
    }
    assert_eq!(world.st.fabric.group(g).state, GroupState::Promoted);

    // Business continues against the promoted backup volumes.
    for i in 16..24u64 {
        at(
            &mut sim,
            SimTime::from_millis(20) + SimDuration::from_nanos((i - 16) * 500_000),
            move |w: &mut World, sim| {
                host_write(
                    w,
                    sim,
                    s,
                    i % 16,
                    block_from(&i.to_le_bytes()),
                    |w, _, ack| match ack {
                        tsuru_storage::WriteAck::Failed(_) => w.rejected += 1,
                        _ => w.acks += 1,
                    },
                );
            },
        );
    }
    // Step 2: repair the main site at t=40ms; the supervisor establishes
    // reverse protection, waits for catch-up and completes the failback.
    at(
        &mut sim,
        SimTime::from_millis(40),
        move |w: &mut World, _sim| {
            w.st.array_mut(main).recover();
        },
    );
    sim.run(&mut world);

    assert_eq!(world.rejected, 0, "promoted volumes accept writes");
    let sv = world.st.supervisor().expect("armed");
    assert_eq!(sv.stats().failovers, 1);
    assert_eq!(
        sv.stats().failbacks,
        1,
        "repair → reverse sync → one failback"
    );
    assert!(
        world.st.fabric.group_ids().all(|gid| !sv.is_parked(gid)),
        "no group is parked"
    );
    assert!(matches!(sv.stage(g), RecoveryStage::Healthy));

    // The original group is a detached husk; the re-established forward
    // group replicates main → backup again.
    assert!(world.st.fabric.group(g).pairs.is_empty());
    let fwd = world
        .st
        .fabric
        .group_ids()
        .last()
        .expect("failback created a forward group");
    assert_ne!(fwd, g);
    let fwd_grp = world.st.fabric.group(fwd);
    assert_eq!(fwd_grp.state, GroupState::Active);
    assert!(!fwd_grp.pairs.is_empty());
    assert_eq!(
        world.st.array(main).volume(p.volume).role(),
        VolumeRole::Primary,
        "after failback the business runs at the main site again"
    );
    assert_eq!(
        world.st.array(main).volume(p.volume).content_hashes(),
        world.st.array(backup).volume(s.volume).content_hashes(),
        "writes taken at the backup site during the outage made it home"
    );
    assert!(world.st.verify_consistency(&[fwd]).is_consistent());
}
