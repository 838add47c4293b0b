//! The allocation tests' rig: an open-loop writer over one volume, whose
//! rounds are counted by `tsuru_allocs`. Each test binary that uses it
//! installs `tsuru_allocs::CountingAlloc` as its global allocator.

#![allow(
    dead_code,
    reason = "each test binary compiles this module and uses a subset of it"
)]

use tsuru_allocs::allocations;
use tsuru_sim::{Event, Sim, SimDuration, SimTime};
use tsuru_storage::engine::host_write_tagged;
use tsuru_storage::{
    block_from, BlockBuf, HasStorage, StorageEvents, StorageOp, StorageWorld, VolRef, WriteAck,
};

struct World {
    st: StorageWorld,
    vol: VolRef,
    payload: BlockBuf,
    submitted: u64,
    acked: u64,
    /// The sum of the tags delivered to the completions.
    tags: u64,
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
/// cycling over 64 blocks, while `left > 0`, each tagged with its submit
/// index.
enum Ev {
    Storage(StorageOp<World, Ev>),
    Submit { left: u32 },
}

impl Event<World> for Ev {
    fn dispatch(self, w: &mut World, sim: &mut Sim<World, Self>) {
        match self {
            Ev::Storage(op) => op.dispatch(w, sim),
            Ev::Submit { left } => {
                let (i, vol, data) = (w.submitted, w.vol, w.payload.clone());
                w.submitted += 1;
                host_write_tagged(w, sim, vol, i % 64, data, i, acked);
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

fn acked(w: &mut World, _: &mut Sim<World, Ev>, tag: u64, ack: WriteAck) {
    w.acked += u64::from(ack.is_persisted());
    w.tags += tag;
}

impl StorageEvents<World> for Ev {
    fn storage(op: StorageOp<World, Self>) -> Self {
        Ev::Storage(op)
    }
}

/// Writes measured, and what the ack log's amortised growth may add to
/// them: its entry vector and the volume's write list each double at most
/// once between 1 000 and 2 000 entries.
pub const WRITES: u32 = 1_000;
pub const GROWTH: u64 = 2;

/// One counted round of [`WRITES`] host writes.
pub struct Round {
    /// Heap allocations, less the kernel's own.
    pub allocs: u64,
    /// Journal-batch frames the round's asynchronous replication sent.
    pub frames: u64,
}

/// What [`WRITES`] host writes to `vol` cost once `st` is warm: a first
/// round of as many writes sets every block on every array, the wheel's
/// chunks and the metrics at their steady size, then the second round is
/// counted. The kernel counts its own allocations — chunks for more
/// pending events than it has held before, run and heap growths — and
/// they are the kernel's, not the writes', so they are taken out.
pub fn count_round(st: StorageWorld, vol: VolRef) -> Round {
    let mut w = World {
        st,
        vol,
        payload: block_from(b"counted"),
        submitted: 0,
        acked: 0,
        tags: 0,
    };
    let mut sim: Sim<World, Ev> = Sim::new();
    sim.schedule_event_at(SimTime::ZERO, Ev::Submit { left: WRITES });
    sim.run(&mut w);
    assert_eq!(w.acked, u64::from(WRITES));

    let (start, wheel_before, frames_before) = (sim.now(), sim.alloc_events(), frames(&w.st));
    sim.schedule_event_at(start, Ev::Submit { left: WRITES });
    let (counted, ()) = allocations(|| sim.run(&mut w));
    let allocs = counted - (sim.alloc_events() - wheel_before);

    let n = 2 * u64::from(WRITES);
    assert_eq!(w.acked, n, "every write was acknowledged");
    assert_eq!(w.tags, n * (n - 1) / 2, "every completion got its own tag");
    Round {
        allocs,
        frames: frames(&w.st) - frames_before,
    }
}

fn frames(st: &StorageWorld) -> u64 {
    st.op_counts()
        .find_map(|(kind, n)| (kind == "receive_batch").then_some(n))
        .expect("invariant: receive_batch is a storage op kind")
}
