//! The kernel's one contract under a same-instant burst: events fire in
//! `(time, seq)` order even when every handler of a large tied run
//! schedules a zero-delay successor — the shape of `AckNow` or a
//! `kick_transfer(.., Some(ZERO))` fired from inside a heal's
//! `kick_all_pumps` at metro scale.
//!
//! The pre-cascade wheel failed this from 513 tied events up: while its
//! live batch held more than 512 entries, in-range pushes went to the
//! wheel; once the batch had shrunk below that cap, later in-range pushes
//! were sorted-inserted into the batch and won the timestamp tie against
//! the earlier, lower-`seq` wheel entries (N = 600 fired successors
//! 87…599 before 0…86). N = 200 000 is the size at which any design that
//! inserts into a sorted run by memmove stops terminating in test time.

use tsuru_sim::{Event, EventFn, Sim, SimDuration, SimTime};

/// Firing log: parents record `i`, successors `n + i`.
type Log = Vec<u32>;

enum Ev {
    Parent {
        i: u32,
        n: u32,
    },
    Successor {
        id: u32,
    },
    #[allow(dead_code)]
    Dyn(EventFn<Log, Ev>),
}

impl Event<Log> for Ev {
    fn from_fn(f: EventFn<Log, Self>) -> Self {
        Ev::Dyn(f)
    }
    fn dispatch(self, log: &mut Log, sim: &mut Sim<Log, Self>) {
        match self {
            Ev::Parent { i, n } => {
                log.push(i);
                sim.schedule_event_in(SimDuration::ZERO, Ev::Successor { id: n + i });
            }
            Ev::Successor { id } => log.push(id),
            Ev::Dyn(f) => f(log, sim),
        }
    }
}

fn storm(n: u32) {
    let mut sim: Sim<Log, Ev> = Sim::new();
    let mut log = Log::with_capacity(2 * n as usize);
    let at = SimTime::from_millis(3);
    for i in 0..n {
        sim.schedule_event_at(at, Ev::Parent { i, n });
    }
    sim.run(&mut log);
    assert_eq!(sim.now(), at);
    assert_eq!(sim.events_executed(), 2 * n as u64);
    // 0…n−1 (the parents), then n…2n−1 (their successors, in the order
    // their parents scheduled them).
    if let Some(bad) = log.iter().zip(0u32..).position(|(&got, want)| got != want) {
        panic!(
            "firing order diverged at position {bad}: fired {} instead of {bad} \
             (successor ids start at {n})",
            log[bad]
        );
    }
    assert_eq!(log.len(), 2 * n as usize);
}

#[test]
fn six_hundred_tied_events_fire_their_zero_delay_successors_in_order() {
    storm(600);
}

#[test]
fn two_hundred_thousand_tied_events_fire_their_zero_delay_successors_in_order() {
    storm(200_000);
}
