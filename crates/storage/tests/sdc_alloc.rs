//! What a synchronously replicated write costs the host heap: its legs'
//! join, one allocation. A warmed-up single-leg SDC world takes 1 000
//! writes; the host's completion is a function pointer and a tag carried
//! by value (`host_write_alloc.rs` pins it at zero), so every allocation
//! left is the engine's own.
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
fn a_synchronously_replicated_write_allocates_only_its_join() {
    let mut st = StorageWorld::new(3, EngineConfig::default());
    let main = st.add_array("main", ArrayPerf::default());
    let backup = st.add_array("backup", ArrayPerf::default());
    let (link, reverse) = (
        st.add_link(LinkConfig::metro()),
        st.add_link(LinkConfig::metro()),
    );
    let vol = st.create_volume(main, "p", 64);
    let rep = st.create_volume(backup, "s", 64);
    let g = st.create_sdc_group("sdc", link, reverse);
    st.add_pair(g, vol, rep);

    let allocs = count_round(st, vol).allocs;
    assert!(
        allocs <= u64::from(WRITES) + GROWTH,
        "{allocs} allocations for {WRITES} SDC writes: more than one each (+ {GROWTH})"
    );
}
