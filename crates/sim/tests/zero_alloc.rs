//! Proof of the typed-event kernel's headline property: scheduling and
//! dispatching a typed event costs **zero heap allocations** in steady
//! state. A counting global allocator (`tsuru_allocs`) wraps the system
//! allocator; after a
//! warm-up phase (which makes the wheel's chunks and grows its run to the
//! chain's busiest moment), a long self-rescheduling event chain must not
//! allocate at all. A new kernel allocates nothing, and the kernel's own
//! allocation count, [`Sim::alloc_events`], is what the allocator counts.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide: no other test may share the process.

use tsuru_allocs::{allocations, CountingAlloc};
use tsuru_sim::{Event, Sim, SimDuration, SimTime};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// A typed event chain: each dispatch bumps the state counter and
/// reschedules itself until `left` runs out. No variant holds heap data.
enum Tick {
    Step { left: u32 },
}

impl Event<u64> for Tick {
    fn dispatch(self, state: &mut u64, sim: &mut Sim<u64, Self>) {
        let Tick::Step { left } = self;
        *state += 1;
        if left > 0 {
            // A spread of delays exercises multiple wheel levels
            // (and therefore cascades), not just slot 0.
            let delay = 1 + (*state % 7) * 97 + (*state % 3) * 4096;
            sim.schedule_event_in(
                SimDuration::from_nanos(delay),
                Tick::Step { left: left - 1 },
            );
        }
    }
}

#[test]
fn typed_event_chain_allocates_nothing_in_steady_state() {
    let mut count = 0u64;
    let mut sim: Sim<u64, Tick> = Sim::new();
    sim.schedule_event_in(SimDuration::from_nanos(1), Tick::Step { left: 50_000 });

    // Warm-up: let the wheel make its chunks and size its run.
    for _ in 0..1_000 {
        assert!(sim.step(&mut count));
    }

    let (allocs, ()) = allocations(|| while sim.step(&mut count) {});

    assert_eq!(count, 50_001, "every event fired exactly once");
    assert_eq!(
        allocs, 0,
        "typed event schedule+dispatch must not allocate in steady state"
    );
}

#[test]
fn a_new_kernel_allocates_nothing() {
    let (allocs, sim) = allocations(Sim::<u64, Tick>::new);
    assert_eq!(allocs, 0, "Sim::new must not allocate");
    assert_eq!(sim.alloc_events(), 0);
}

/// A burst: each dispatch fans out into `fan` events spread over fine and
/// coarse slots, zero-delay ones included (they take the ready heap), and
/// each of those fans out again until `depth` runs out.
enum Burst {
    Fan { depth: u32, fan: u64 },
}

impl Event<u64> for Burst {
    fn dispatch(self, state: &mut u64, sim: &mut Sim<u64, Self>) {
        let Burst::Fan { depth, fan } = self;
        *state += 1;
        if depth == 0 {
            return;
        }
        for i in 0..fan {
            // 0 ns, a few hundred ns, tens of µs and a few ms: the heap,
            // fine slots and the coarse slots that cascade.
            let delay = match (*state + i) % 4 {
                0 => 0,
                1 => 1 + (*state * 131 + i) % 4_000,
                2 => 10_000 + (*state * 7_919 + i * 977) % 200_000,
                _ => 1_000_000 + (*state * 104_729 + i * 7_717) % 5_000_000,
            };
            sim.schedule_event_in(
                SimDuration::from_nanos(delay),
                Burst::Fan {
                    depth: depth - 1,
                    fan,
                },
            );
        }
    }
}

#[test]
fn the_kernel_counts_every_allocation_its_queue_makes() {
    // Chunks made, the chunk table, the run and the heap all grow here;
    // the kernel's count must match the allocator's, because the
    // storage allocation tests subtract it from theirs.
    let mut count = 0u64;
    let (allocs, sim) = allocations(|| {
        let mut sim: Sim<u64, Burst> = Sim::new();
        for k in 0..200u64 {
            sim.schedule_event_at(
                SimTime::from_nanos(k * 50_000),
                Burst::Fan { depth: 3, fan: 6 },
            );
        }
        sim.run(&mut count);
        sim
    });
    assert_eq!(count, 200 * (1 + 6 + 36 + 216), "every event fired once");
    assert!(
        sim.alloc_events() > 5,
        "the schedule grows the queue's storage"
    );
    assert_eq!(allocs, sim.alloc_events());
}
