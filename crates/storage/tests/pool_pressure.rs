//! Thin-provisioning pool pressure: allocation accounting through the data
//! path, host-write rejection at exhaustion, and space release.

mod common;

use common::{at, Ev};
use tsuru_sim::{Sim, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::{
    block_from, ArrayPerf, EngineConfig, HasStorage, PoolId, StorageWorld, WriteAck, WriteError,
    DEFAULT_POOL_CAPACITY,
};

struct World {
    st: StorageWorld,
    acks: Vec<WriteAck>,
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
fn default_pool_is_effectively_unbounded() {
    let mut st = StorageWorld::new(1, EngineConfig::default());
    let a = st.add_array("m", ArrayPerf::default());
    let v = st.create_volume(a, "v", 64);
    for lba in 0..64 {
        st.write_direct(v, lba, b"x");
    }
    let pool = st.array(a).pool(PoolId(0));
    assert_eq!(pool.allocated_blocks(), 64);
    assert_eq!(pool.capacity_blocks(), DEFAULT_POOL_CAPACITY);
    assert!(!pool.is_exhausted());
}

#[test]
fn exhausted_pool_rejects_new_allocations_but_allows_overwrites() {
    let mut st = StorageWorld::new(2, EngineConfig::default());
    let a = st.add_array("m", ArrayPerf::default());
    let tiny = st.array_mut(a).create_pool("tiny", 4);
    let vid = st.array_mut(a).create_volume_in_pool("thin", 64, tiny);
    let v = tsuru_storage::VolRef::new(a, vid);
    let mut world = World {
        st,
        acks: Vec::new(),
    };
    let mut sim: Sim<World, Ev<World>> = Sim::new();
    // Five writes to distinct blocks: the fifth must be refused.
    for lba in 0..5u64 {
        at(
            &mut sim,
            SimTime::from_millis(lba),
            move |w: &mut World, sim| {
                host_write(w, sim, v, lba, block_from(&[lba as u8]), |w, _, ack| {
                    w.acks.push(ack)
                });
            },
        );
    }
    // An overwrite of an existing block still succeeds afterwards.
    at(
        &mut sim,
        SimTime::from_millis(10),
        move |w: &mut World, sim| {
            host_write(w, sim, v, 0, block_from(b"rewrite"), |w, _, ack| {
                w.acks.push(ack)
            });
        },
    );
    sim.run(&mut world);

    let ok = world.acks.iter().filter(|a| a.is_persisted()).count();
    assert_eq!(ok, 5, "4 allocations + 1 overwrite");
    assert_eq!(
        world.acks[4],
        WriteAck::Failed(WriteError::PoolExhausted),
        "{:?}",
        world.acks
    );
    let pool = world.st.array(a).pool(tiny);
    assert!(pool.is_exhausted());
    assert_eq!(pool.rejections(), 1);
    assert_eq!(pool.peak_blocks(), 4);
}

#[test]
fn snapshot_cow_charges_and_deletion_releases() {
    let mut st = StorageWorld::new(3, EngineConfig::default());
    let a = st.add_array("m", ArrayPerf::default());
    let pool = st.array_mut(a).create_pool("snap-pool", 100);
    let vid = st.array_mut(a).create_volume_in_pool("v", 64, pool);
    for lba in 0..10 {
        st.array_mut(a).write_block(vid, lba, block_from(&[1]));
    }
    assert_eq!(st.array(a).pool(pool).allocated_blocks(), 10);
    let snap = st.array_mut(a).create_snapshot(vid, "s", SimTime::ZERO);
    // Overwrites preserve old data: each costs one pool block.
    for lba in 0..6 {
        st.array_mut(a).write_block(vid, lba, block_from(&[2]));
    }
    assert_eq!(st.array(a).pool(pool).allocated_blocks(), 16);
    // A write to a block that was empty at snapshot time costs only the
    // new allocation (the snapshot marker holds no data).
    st.array_mut(a).write_block(vid, 20, block_from(&[3]));
    assert_eq!(st.array(a).pool(pool).allocated_blocks(), 17);
    // Deleting the snapshot releases the preserved blocks.
    st.array_mut(a).delete_snapshot(snap);
    assert_eq!(st.array(a).pool(pool).allocated_blocks(), 11);
    // Deleting the volume releases the rest.
    st.array_mut(a).delete_volume(vid);
    assert_eq!(st.array(a).pool(pool).allocated_blocks(), 0);
}

#[test]
fn replication_apply_overcommits_rather_than_corrupting() {
    // The secondary's pool is too small for the replicated working set:
    // the apply path must not fail mid-stream (that would break write-order
    // fidelity); it overcommits and the exhaustion is observable.
    let mut st = StorageWorld::new(4, EngineConfig::default());
    let main = st.add_array("m", ArrayPerf::default());
    let backup = st.add_array("b", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let rev = st.add_link(LinkConfig::metro());
    let g = st.create_adc_group("g", link, rev, 1 << 24);
    let p = st.create_volume(main, "p", 64);
    let spool = st.array_mut(backup).create_pool("small", 8);
    let sid = st.array_mut(backup).create_volume_in_pool("s", 64, spool);
    let s = tsuru_storage::VolRef::new(backup, sid);
    st.add_pair(g, p, s);

    let mut world = World {
        st,
        acks: Vec::new(),
    };
    let mut sim: Sim<World, Ev<World>> = Sim::new();
    for lba in 0..20u64 {
        at(
            &mut sim,
            SimTime::from_micros(lba * 200),
            move |w: &mut World, sim| {
                host_write(w, sim, p, lba, block_from(&[lba as u8]), |w, _, ack| {
                    w.acks.push(ack)
                });
            },
        );
    }
    sim.run(&mut world);
    assert!(world.acks.iter().all(|a| a.is_persisted()));
    // Fully replicated despite the undersized pool...
    assert_eq!(world.st.array(backup).volume(sid).allocated_blocks(), 20);
    // ...with the overcommit visible to the operator.
    let pool = world.st.array(backup).pool(spool);
    assert!(pool.allocated_blocks() > pool.capacity_blocks());
    assert!(pool.is_exhausted());
    // And the image is still write-order faithful.
    assert!(world.st.verify_consistency(&[g]).is_consistent());
}
