//! Multi-target (3DC) protection: one primary volume replicating
//! simultaneously over metro SDC and WAN ADC — the combined
//! synchronous/asynchronous topology the paper's related work (§V,
//! [12]–[15]) discusses. The host acknowledgement waits only for the
//! synchronous leg; the asynchronous leg journals and lags.

mod common;

use common::{at, Ev};
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::{
    block_from, ArrayId, ArrayPerf, EngineConfig, GroupId, HasStorage, StorageWorld, VolRef,
    WriteAck,
};

struct World {
    st: StorageWorld,
    latencies: Vec<SimDuration>,
    degraded: u64,
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
    metro: ArrayId,
    far: ArrayId,
    p: [VolRef; 2],
    metro_s: [VolRef; 2],
    far_s: [VolRef; 2],
    sdc_group: GroupId,
    adc_group: GroupId,
}

/// Main site + metro site (1 ms one way, SDC) + far site (25 ms, ADC CG).
fn rig(seed: u64) -> Rig {
    let mut st = StorageWorld::new(seed, EngineConfig::default());
    let main = st.add_array("vsp-main", ArrayPerf::default());
    let metro = st.add_array("vsp-metro", ArrayPerf::default());
    let far = st.add_array("vsp-far", ArrayPerf::default());
    let metro_link = st.add_link(LinkConfig::with(
        SimDuration::from_millis(1),
        10_000_000_000 / 8,
    ));
    let metro_rev = st.add_link(LinkConfig::with(
        SimDuration::from_millis(1),
        10_000_000_000 / 8,
    ));
    let far_link = st.add_link(LinkConfig::with(
        SimDuration::from_millis(25),
        1_000_000_000 / 8,
    ));
    let far_rev = st.add_link(LinkConfig::with(
        SimDuration::from_millis(25),
        1_000_000_000 / 8,
    ));

    let sdc_group = st.create_sdc_group("metro-sdc", metro_link, metro_rev);
    let adc_group = st.create_adc_group("far-adc", far_link, far_rev, 1 << 24);

    let mut p = Vec::new();
    let mut ms = Vec::new();
    let mut fs = Vec::new();
    for i in 0..2 {
        let pv = st.create_volume(main, format!("v{i}"), 256);
        let mv = st.create_volume(metro, format!("v{i}-metro"), 256);
        let fv = st.create_volume(far, format!("v{i}-far"), 256);
        st.add_pair(sdc_group, pv, mv);
        st.add_pair(adc_group, pv, fv);
        p.push(pv);
        ms.push(mv);
        fs.push(fv);
    }
    Rig {
        world: World {
            st,
            latencies: Vec::new(),
            degraded: 0,
        },
        sim: Sim::new(),
        main,
        metro,
        far,
        p: [p[0], p[1]],
        metro_s: [ms[0], ms[1]],
        far_s: [fs[0], fs[1]],
        sdc_group,
        adc_group,
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
            |w, _, ack| match ack {
                WriteAck::Ok { latency, .. } => w.latencies.push(latency),
                WriteAck::Degraded { latency, .. } => {
                    w.degraded += 1;
                    w.latencies.push(latency);
                }
                WriteAck::Failed(_) => {}
            },
        );
    });
}

#[test]
fn ack_latency_is_metro_rtt_and_both_targets_converge() {
    let mut r = rig(1);
    for i in 0..120u64 {
        write_at(
            &mut r.sim,
            SimTime::from_nanos(i * 400_000),
            r.p[(i % 2) as usize],
            i / 2,
            i,
        );
    }
    r.sim.run(&mut r.world);

    assert_eq!(r.world.latencies.len(), 120);
    assert_eq!(r.world.degraded, 0);
    // Ack waits for the metro round trip (≈2 ms) but NOT the far one
    // (≈50 ms): the async leg is free.
    for &lat in &r.world.latencies {
        assert!(lat >= SimDuration::from_millis(2), "got {lat}");
        assert!(lat < SimDuration::from_millis(5), "got {lat}");
    }
    // Both targets hold the exact primary content.
    for i in 0..2 {
        let expect = r
            .world
            .st
            .array(r.main)
            .volume(r.p[i].volume)
            .content_hashes();
        assert_eq!(
            r.world
                .st
                .array(r.metro)
                .volume(r.metro_s[i].volume)
                .content_hashes(),
            expect,
            "metro leg diverged"
        );
        assert_eq!(
            r.world
                .st
                .array(r.far)
                .volume(r.far_s[i].volume)
                .content_hashes(),
            expect,
            "far leg diverged"
        );
    }
    // The far CG is a consistent prefix at all times.
    let rep = r.world.st.verify_consistency(&[r.adc_group]);
    assert!(rep.is_consistent(), "{rep:?}");
}

#[test]
fn disaster_metro_has_everything_far_has_a_prefix() {
    let mut r = rig(2);
    for i in 0..200u64 {
        write_at(
            &mut r.sim,
            SimTime::from_nanos(i * 400_000),
            r.p[(i % 2) as usize],
            i / 2,
            i,
        );
    }
    let fail_at = SimTime::from_millis(40);
    let main = r.main;
    at(&mut r.sim, fail_at, move |w: &mut World, sim| {
        w.st.fail_array(main, sim.now());
    });
    r.sim.run_until(&mut r.world, SimTime::from_millis(400));

    let acked = r.world.latencies.len() as u64;
    assert!(acked > 50, "workload ran before the disaster");

    // Metro (synchronous): every acknowledged write is present.
    let metro_pairs = r.world.st.fabric.group(r.sdc_group).pairs.clone();
    let metro_applied: u64 = metro_pairs
        .iter()
        .map(|&pid| r.world.st.fabric.pair(pid).applied_writes)
        .sum();
    assert!(
        metro_applied >= acked,
        "SDC target must hold every acked write ({metro_applied} < {acked})"
    );

    // Far (asynchronous): a consistent prefix, possibly behind.
    r.world.st.promote_group(r.adc_group);
    let rep = r.world.st.verify_consistency(&[r.adc_group]);
    assert!(rep.is_consistent(), "{rep:?}");
    let far_applied: u64 = r
        .world
        .st
        .fabric
        .group(r.adc_group)
        .pairs
        .iter()
        .map(|&pid| r.world.st.fabric.pair(pid).applied_writes)
        .sum();
    assert!(far_applied <= acked + 2, "far cannot exceed acked writes");
}

#[test]
fn far_link_outage_degrades_only_the_async_leg() {
    let mut r = rig(3);
    // Take the far link down permanently; metro SDC keeps the business
    // protected and acknowledged as Ok — wait: the ADC leg's group will
    // stall silently (journal grows), not degrade the ack. Writes stay Ok.
    let far_link = r.world.st.fabric.group(r.adc_group).link;
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, _| {
        w.st.net.link_mut(far_link).set_down(SimTime::ZERO, None);
    });
    for i in 0..40u64 {
        write_at(
            &mut r.sim,
            SimTime::from_nanos(1 + i * 400_000),
            r.p[0],
            i,
            i,
        );
    }
    r.sim.run_until(&mut r.world, SimTime::from_millis(100));
    assert_eq!(r.world.latencies.len(), 40);
    assert_eq!(r.world.degraded, 0, "SDC leg keeps acks green");
    // Metro is current; far is empty.
    assert_eq!(
        r.world
            .st
            .array(r.metro)
            .volume(r.metro_s[0].volume)
            .allocated_blocks(),
        40
    );
    assert_eq!(
        r.world
            .st
            .array(r.far)
            .volume(r.far_s[0].volume)
            .allocated_blocks(),
        0
    );
    // The far journal is holding the backlog for later catch-up.
    let jid = r.world.st.fabric.group(r.adc_group).primary_jnl.unwrap();
    assert_eq!(r.world.st.fabric.journal(jid).len(), 40);
}

#[test]
fn metro_outage_degrades_acks_but_far_leg_continues() {
    let mut r = rig(4);
    let metro_link = r.world.st.fabric.group(r.sdc_group).link;
    at(&mut r.sim, SimTime::ZERO, move |w: &mut World, _| {
        w.st.net.link_mut(metro_link).set_down(SimTime::ZERO, None);
    });
    for i in 0..40u64 {
        write_at(
            &mut r.sim,
            SimTime::from_nanos(1 + i * 400_000),
            r.p[0],
            i,
            i,
        );
    }
    r.sim.run(&mut r.world);
    // First write degrades (link down → SDC group suspends); the rest are
    // suspended-group degraded acks too... but the ADC leg still protects.
    assert!(r.world.degraded > 0);
    assert_eq!(
        r.world
            .st
            .array(r.far)
            .volume(r.far_s[0].volume)
            .allocated_blocks(),
        40,
        "ADC leg unaffected by the metro outage"
    );
    let rep = r.world.st.verify_consistency(&[r.adc_group]);
    assert!(rep.is_consistent(), "{rep:?}");
}

#[test]
fn three_dc_runs_are_deterministic() {
    let run = |seed| {
        let mut r = rig(seed);
        for i in 0..100u64 {
            write_at(
                &mut r.sim,
                SimTime::from_nanos(i * 300_000),
                r.p[(i % 2) as usize],
                i / 2,
                i,
            );
        }
        r.sim.run(&mut r.world);
        (
            r.world.latencies.clone(),
            r.world.st.ack_log.len(),
            r.world.st.fabric.group(r.adc_group).stats.entries_applied,
        )
    };
    assert_eq!(run(9), run(9));
}
