//! Property-based tests of the timer-wheel kernel against a reference
//! ordered-set model.
//!
//! The wheel replaced a `BinaryHeap<(time, seq)>`; the determinism contract
//! requires the two to pop in *exactly* the same `(time, seq)` order under
//! any interleaving of schedules, cancellations, and time advances. These
//! tests drive both side by side over operation scripts shaped like the
//! workloads: more than a thousand pending events, delays on every wheel
//! level the data plane uses (so coarse slots are cascaded and fine ones
//! drained), handlers that schedule inside the live run — zero delay,
//! sub-4 µs, exactly on its last deadline — and cancels that find their
//! entry in the wheel, in the run and in the heap. The earliest pending
//! instant (`next_event_time`, what `run_until` trusts) is compared with
//! the model before every operation and every single step.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsuru_sim::{Event, EventFn, Sim, SimDuration, SimTime, TimerToken};

/// Firing log: `(fire_time_nanos, id)` per dispatched event.
type Log = Vec<(u64, u64)>;

/// Kernel-side state: the log, the id counter handlers draw from, and
/// every token issued so far (by the script or by a handler).
#[derive(Default)]
struct World {
    log: Log,
    next_id: u64,
    tokens: Vec<(TimerToken, u64)>,
}

/// Minimal typed event for the harness (the closure arm is unused but
/// keeps the enum honest about the kernel's escape hatch).
enum Ev {
    /// Record the firing, then schedule one child per delay.
    Rec { id: u64, children: Vec<u64> },
    #[allow(dead_code)]
    Dyn(EventFn<World, Ev>),
}

impl Event<World> for Ev {
    fn from_fn(f: EventFn<World, Self>) -> Self {
        Ev::Dyn(f)
    }
    fn dispatch(self, w: &mut World, sim: &mut Sim<World, Self>) {
        match self {
            Ev::Rec { id, children } => {
                w.log.push((sim.now().as_nanos(), id));
                for delay in children {
                    let id = w.next_id;
                    w.next_id += 1;
                    let ev = Ev::Rec {
                        id,
                        children: Vec::new(),
                    };
                    let tok = sim.schedule_event_in(SimDuration::from_nanos(delay), ev);
                    w.tokens.push((tok, id));
                }
            }
            Ev::Dyn(f) => f(w, sim),
        }
    }
}

/// One step of an operation script.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `offset` nanoseconds after the current instant;
    /// its handler schedules one child per entry of `children`, that many
    /// nanoseconds after *its* firing instant.
    Schedule { offset: u64, children: Vec<u64> },
    /// Two events `gap` apart, the first scheduling a child `gap` later:
    /// the child lands exactly on the second's deadline — the live run's
    /// last, whenever the two share a drained slot.
    Twins { offset: u64, gap: u64 },
    /// Cancel the `back`-th most recently issued token (mod the number
    /// issued so far): recent ones sit in the run or the heap, old ones
    /// in the wheel or in the past.
    Cancel { back: usize },
    /// Cancel the `nth`-earliest pending event: with a run half served
    /// that is an entry of the run or of the heap.
    CancelSoon { nth: usize },
    /// Advance simulated time by `dt` nanoseconds, firing due events.
    Advance { dt: u64 },
    /// Fire up to `n` events one by one, leaving a run half served — so
    /// the next cancel or schedule meets a live run and heap.
    Step { n: usize },
}

/// Offsets that reach wheel levels 0–5 under a moving cursor.
fn offset_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        2 => 0u64..64,
        3 => 0u64..4_096,
        3 => 0u64..262_144,
        2 => 0u64..16_777_216,
        1 => 0u64..1_000_000_000,
    ]
}

/// Handler delays: zero, inside a level-0 slot, inside a drained slot.
fn child_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..64, 0u64..4_096]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (offset_strategy(), prop::collection::vec(child_strategy(), 0..3))
            .prop_map(|(offset, children)| Op::Schedule { offset, children }),
        2 => (offset_strategy(), 1u64..4_096).prop_map(|(offset, gap)| Op::Twins { offset, gap }),
        1 => (0usize..24).prop_map(|back| Op::Cancel { back }),
        1 => (0usize..4_096).prop_map(|back| Op::Cancel { back }),
        2 => (0usize..12).prop_map(|nth| Op::CancelSoon { nth }),
        1 => (0u64..8_000).prop_map(|dt| Op::Advance { dt }),
        1 => (0u64..2_000_000).prop_map(|dt| Op::Advance { dt }),
        3 => (1usize..40).prop_map(|n| Op::Step { n }),
    ]
}

/// One backlog event: which 4 µs cluster of the first 17 ms, where in it,
/// and the delays of the children its handler schedules.
type Backlog = (u64, u64, Vec<u64>);

/// A script: a backlog deeper than a thousand events in clusters the size
/// of the data plane's drained slots (≈ 10 per 4 µs, so runs are served
/// with handlers scheduling into them), then the interleaved operations.
fn script_strategy() -> impl Strategy<Value = (Vec<Backlog>, Vec<Op>)> {
    let event = (
        0u64..128,
        0u64..4_096,
        prop::collection::vec(child_strategy(), 0..2),
    );
    (
        prop::collection::vec(event, 1_001..1_400),
        prop::collection::vec(op_strategy(), 1..300),
    )
}

/// Reference model of the kernel queue: an ordered pending set.
#[derive(Default)]
struct Model {
    /// `(time, id) → child delays` still pending; `id` doubles as the
    /// model's seq because both counters advance by one per schedule.
    pending: BTreeMap<(u64, u64), Vec<u64>>,
    /// Every id issued so far, in issue order (mirrors `World::tokens`).
    issued: Vec<(u64, u64)>,
    /// Everything the model has fired, in order: `(fire_time, id)`.
    log: Log,
    now: u64,
    next_id: u64,
    peak_pending: usize,
}

impl Model {
    fn schedule(&mut self, at: u64, children: Vec<u64>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert((at, id), children);
        self.issued.push((at, id));
        self.peak_pending = self.peak_pending.max(self.pending.len());
        id
    }

    /// Cancel the `k`-th issued id; true if it was still pending (mirrors
    /// `Sim::cancel`).
    fn cancel(&mut self, k: usize) -> bool {
        self.pending.remove(&self.issued[k]).is_some()
    }

    fn next_time(&self) -> Option<u64> {
        self.pending.keys().next().map(|&(t, _)| t)
    }

    /// Fire the earliest pending event — the reference heap's pop — and
    /// schedule its children.
    fn step(&mut self) -> bool {
        let Some(((t, id), children)) = self.pending.pop_first() else {
            return false;
        };
        self.now = t;
        self.log.push((t, id));
        for delay in children {
            self.schedule(t + delay, Vec::new());
        }
        true
    }

    /// Fire everything due at or before `horizon`.
    fn advance(&mut self, horizon: u64) {
        while self.next_time().is_some_and(|t| t <= horizon) {
            self.step();
        }
        self.now = self.now.max(horizon);
    }
}

/// Kernel and model side by side.
struct Pair {
    sim: Sim<World, Ev>,
    world: World,
    model: Model,
}

impl Pair {
    fn schedule(&mut self, at: u64, children: Vec<u64>) {
        let id = self.world.next_id;
        self.world.next_id += 1;
        let ev = Ev::Rec {
            id,
            children: children.clone(),
        };
        let tok = self.sim.schedule_event_at(SimTime::from_nanos(at), ev);
        self.world.tokens.push((tok, id));
        assert_eq!(self.model.schedule(at, children), id);
    }

    /// Cancel the `k`-th issued token on both sides.
    fn cancel(&mut self, k: usize) {
        let (tok, id) = self.world.tokens[k];
        assert_eq!(self.model.issued[k].1, id);
        assert_eq!(
            self.sim.cancel(tok),
            self.model.cancel(k),
            "cancel of id {id} disagreed with the model"
        );
    }

    fn check_next_time(&self) {
        assert_eq!(
            self.sim.next_event_time().map(|t| t.as_nanos()),
            self.model.next_time(),
            "next_event_time diverged from the model after {} events",
            self.model.log.len()
        );
    }

    /// One event on both sides; false when both queues are empty.
    fn step(&mut self) -> bool {
        self.check_next_time();
        let fired = self.sim.step(&mut self.world);
        assert_eq!(fired, self.model.step());
        assert_eq!(
            self.world.log.last(),
            self.model.log.last(),
            "pop order diverged"
        );
        fired
    }
}

/// Run one script through both implementations.
fn run_script(backlog: &[Backlog], ops: &[Op]) -> Pair {
    let mut p = Pair {
        sim: Sim::new(),
        world: World::default(),
        model: Model::default(),
    };
    for (cluster, jitter, children) in backlog {
        p.schedule(cluster * 131_072 + jitter, children.clone());
    }
    for op in ops {
        p.check_next_time();
        match *op {
            Op::Schedule {
                offset,
                ref children,
            } => {
                p.schedule(p.model.now + offset, children.clone());
            }
            Op::Twins { offset, gap } => {
                let at = p.model.now + offset;
                p.schedule(at, vec![gap]);
                p.schedule(at + gap, Vec::new());
            }
            Op::Cancel { back } => {
                p.cancel(p.world.tokens.len() - 1 - back % p.world.tokens.len());
            }
            Op::CancelSoon { nth } => {
                // Ids are issued densely, so an id is its token's index.
                if let Some(&(_, id)) = p.model.pending.keys().nth(nth) {
                    p.cancel(id as usize);
                }
            }
            Op::Advance { dt } => {
                let horizon = p.model.now + dt;
                p.sim.run_until(&mut p.world, SimTime::from_nanos(horizon));
                p.model.advance(horizon);
                assert_eq!(p.sim.now().as_nanos(), p.model.now);
            }
            Op::Step { n } => {
                for _ in 0..n {
                    if !p.step() {
                        break;
                    }
                }
            }
        }
        assert_eq!(p.sim.pending(), p.model.pending.len());
    }
    // Drain whatever is left so every surviving event fires.
    while p.step() {}
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The wheel pops in exactly the reference model's `(time, seq)` order
    /// under arbitrary interleaved schedule/cancel/advance/step scripts,
    /// and agrees with it on the earliest pending instant throughout.
    #[test]
    fn wheel_matches_binary_heap_model(script in script_strategy()) {
        let p = run_script(&script.0, &script.1);
        prop_assert_eq!(&p.world.log, &p.model.log, "pop order diverged from the reference model");
        prop_assert_eq!(p.sim.pending(), 0);
        prop_assert!(p.model.pending.is_empty());
        prop_assert!(p.model.peak_pending > 1_000);
        prop_assert_eq!(p.sim.peak_pending(), p.model.peak_pending);
    }

    /// Cancelled events never fire, every non-cancelled event fires exactly
    /// once, and the wheel's slots are reclaimed (len returns to zero).
    #[test]
    fn cancelled_events_never_fire(script in script_strategy()) {
        let p = run_script(&script.0, &script.1);
        // Every id the model fired must appear exactly once; every other
        // issued id was cancelled and must not appear at all.
        let mut fired = vec![0u32; p.model.next_id as usize];
        for &(_, id) in &p.world.log {
            fired[id as usize] += 1;
        }
        let mut expected = vec![0u32; p.model.next_id as usize];
        for &(_, id) in &p.model.log {
            expected[id as usize] = 1;
        }
        prop_assert_eq!(fired, expected);
        // Slot reclamation: the queue is empty and reusable afterwards.
        prop_assert_eq!(p.sim.pending(), 0);
        let (mut sim, mut world) = (p.sim, World::default());
        let t = sim.now() + SimDuration::from_nanos(7);
        sim.schedule_event_at(t, Ev::Rec { id: u64::MAX, children: Vec::new() });
        sim.run(&mut world);
        prop_assert_eq!(world.log.len(), 1);
        prop_assert_eq!(sim.pending(), 0);
    }
}
