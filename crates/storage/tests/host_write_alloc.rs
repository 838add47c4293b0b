//! What an unreplicated or asynchronously replicated host write costs the
//! host heap: nothing. Its completion is a function pointer and a tag,
//! carried by value through every hop, so a warmed-up world takes 1 000
//! tagged writes within the ack log's amortised growth, with or without
//! a replication leg: a journal-batch frame carries its entries in a
//! vector the world hands back when the frame arrives, so a warm world's
//! frames reuse the first round's vectors.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide.

mod write_alloc;

use tsuru_allocs::CountingAlloc;
use tsuru_simnet::LinkConfig;
use tsuru_storage::{ArrayPerf, EngineConfig, StorageWorld};
use write_alloc::{count_round, GROWTH, WRITES};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn an_unreplicated_write_allocates_nothing() {
    let mut st = StorageWorld::new(3, EngineConfig::default());
    let main = st.add_array("main", ArrayPerf::default());
    let vol = st.create_volume(main, "p", 64);

    let allocs = count_round(st, vol).allocs;
    assert!(
        allocs <= GROWTH,
        "{allocs} allocations for {WRITES} unreplicated writes (+ {GROWTH} growth allowed)"
    );
}

#[test]
fn an_asynchronously_replicated_write_allocates_nothing_of_its_own() {
    let mut st = StorageWorld::new(3, EngineConfig::default());
    let main = st.add_array("main", ArrayPerf::default());
    let backup = st.add_array("backup", ArrayPerf::default());
    let (link, reverse) = (
        st.add_link(LinkConfig::metro()),
        st.add_link(LinkConfig::metro()),
    );
    let vol = st.create_volume(main, "p", 64);
    let rep = st.create_volume(backup, "s", 64);
    let g = st.create_adc_group("adc", link, reverse, 1 << 24);
    st.add_pair(g, vol, rep);

    let round = count_round(st, vol);
    let (allocs, frames) = (round.allocs, round.frames);
    assert!(
        frames > 0 && frames < u64::from(WRITES) / 4,
        "{frames} frames for {WRITES} writes: the link must batch"
    );
    assert!(
        allocs <= GROWTH,
        "{allocs} allocations for {WRITES} ADC writes in {frames} frames ({GROWTH} growth allowed)"
    );
}
