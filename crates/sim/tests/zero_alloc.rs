//! Proof of the typed-event kernel's headline property: scheduling and
//! dispatching a typed event costs **zero heap allocations** in steady
//! state. A counting global allocator (`tsuru_allocs`) wraps the system
//! allocator; after a
//! warm-up phase (which lets every touched wheel slot reach its reserved
//! capacity), a long self-rescheduling event chain must not allocate at
//! all.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide: no other test may share the process.

use tsuru_allocs::{allocations, CountingAlloc};
use tsuru_sim::{Event, Sim, SimDuration};

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

    // Warm-up: let the wheel's slot vectors reach steady capacity.
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
