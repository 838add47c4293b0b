//! What a synchronously replicated write costs the host heap: its legs'
//! join, one allocation. A counting global allocator wraps the system
//! allocator; a warmed-up single-leg SDC world then takes 1 000 writes
//! whose completion captures nothing (a zero-sized box allocates nothing),
//! so every allocation left is the engine's own.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide: no other test may share the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use tsuru_sim::{Event, Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::{
    block_from, ArrayPerf, BlockBuf, EngineConfig, HasStorage, StorageEvents, StorageOp,
    StorageWorld, VolRef,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Counting is gated per-thread: libtest's monitor thread allocates on
    // its own schedule and must not pollute the measurement.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: pure pass-through to the system allocator; the count is the only
// added behaviour and does not affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: sound iff the system allocator is — we only count and forward.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: TLS may be mid-teardown; missing a count there is fine.
        let _ = TRACK.try_with(|t| {
            if t.get() {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        });
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: sound iff the system allocator is — pure forwarding.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, which returned
        // system-allocator memory for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

struct World {
    st: StorageWorld,
    vol: VolRef,
    payload: BlockBuf,
    submitted: u64,
    acked: u64,
}

impl HasStorage for World {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

/// The data plane plus an open-loop submitter: one write every 50 µs,
/// cycling over 64 blocks, while `left > 0`.
enum Ev {
    Storage(StorageOp<World, Ev>),
    Submit { left: u32 },
}

impl Event<World> for Ev {
    fn dispatch(self, w: &mut World, sim: &mut Sim<World, Self>) {
        match self {
            Ev::Storage(op) => op.dispatch(w, sim),
            Ev::Submit { left } => {
                let lba = w.submitted % 64;
                w.submitted += 1;
                let (vol, data) = (w.vol, w.payload.clone());
                host_write(w, sim, vol, lba, data, |w, _, ack| {
                    w.acked += u64::from(ack.is_persisted());
                });
                if left > 1 {
                    sim.schedule_event_in(
                        SimDuration::from_micros(50),
                        Ev::Submit { left: left - 1 },
                    );
                }
            }
        }
    }
}

impl StorageEvents<World> for Ev {
    fn storage(op: StorageOp<World, Self>) -> Self {
        Ev::Storage(op)
    }
}

/// Writes measured, and what the ack log's amortised growth may add to
/// them: its entry vector and the volume's write list each double at most
/// once between 1 000 and 2 000 entries.
const WRITES: u32 = 1_000;
const GROWTH: u64 = 2;

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
    let mut w = World {
        st,
        vol,
        payload: block_from(b"sdc"),
        submitted: 0,
        acked: 0,
    };
    let mut sim: Sim<World, Ev> = Sim::new();

    // Warm-up: every block written once on both arrays, the wheel's slots
    // and the metrics at their steady size.
    sim.schedule_event_at(SimTime::ZERO, Ev::Submit { left: WRITES });
    sim.run(&mut w);
    assert_eq!(w.acked, u64::from(WRITES));

    // The wheel counts its own capacity growths: slots that a new stretch
    // of simulated time fills for the first time. They are the kernel's,
    // not the write's, and are taken out of the count.
    let (start, wheel_before) = (sim.now(), sim.alloc_events());
    sim.schedule_event_at(start, Ev::Submit { left: WRITES });
    TRACK.with(|t| t.set(true));
    sim.run(&mut w);
    TRACK.with(|t| t.set(false));

    assert_eq!(
        w.acked,
        2 * u64::from(WRITES),
        "every write was acknowledged"
    );
    let allocs = ALLOCS.load(Ordering::Relaxed) - (sim.alloc_events() - wheel_before);
    assert!(
        allocs <= u64::from(WRITES) + GROWTH,
        "{allocs} allocations for {WRITES} SDC writes: more than one each (+ {GROWTH})"
    );
}
