//! The discrete-event simulation kernel.
//!
//! A [`Sim<S, E>`] owns a time-ordered queue of events over an arbitrary
//! user state `S`. The event type `E` implements [`Event`]: a domain crate
//! defines a plain enum of values dispatched by `match`, so scheduling and
//! firing an event moves a value into and out of the wheel — **zero heap
//! allocations**, and a pending event is data, not code. There is one way
//! to schedule anything: [`Sim::schedule_event_at`] /
//! [`Sim::schedule_event_in`] with a typed event.
//!
//! Pending events live in a hierarchical timer wheel (see [`crate::wheel`])
//! rather than a binary heap: O(1) amortized insert and pop. A scheduled
//! event always fires; there is no cancellation. Ties on the timestamp are
//! broken by insertion order (`seq`), which makes every run fully
//! deterministic — the wheel pops in exactly the `(time, seq)` order the
//! old heap did.

use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;

/// A one-shot boxed handler over state `S` in a kernel of event type `E`
/// — the argument type of [`Event::from_fn`], and nothing else.
pub type EventFn<S, E> = Box<dyn FnOnce(&mut S, &mut Sim<S, E>)>;

/// A schedulable event for kernels over state `S`.
///
/// Implementations are enums whose [`Event::dispatch`] is a `match`
/// calling straight into domain code — no allocation, no virtual call.
pub trait Event<S>: Sized + 'static {
    /// Wrap a boxed closure as an event. Nothing in the workspace calls
    /// it: the kernel schedules typed events only. It survives, with
    /// [`EventFn`], solely for the performance ledger's two event types,
    /// which still override it; it goes when they stop.
    ///
    /// # Panics
    /// The provided body panics, naming the event type: an event enum has
    /// no closure arm.
    fn from_fn(_: EventFn<S, Self>) -> Self {
        panic!(
            "{} has no closure arm: schedule it with Sim::schedule_event_at / schedule_event_in",
            std::any::type_name::<Self>()
        )
    }
    /// Fire the event. Consumes it; handlers may mutate the world and
    /// schedule further events.
    fn dispatch(self, state: &mut S, sim: &mut Sim<S, Self>);
}

/// A deterministic discrete-event simulator over user state `S` with
/// event type `E`.
pub struct Sim<S, E> {
    now: SimTime,
    wheel: TimerWheel<E>,
    next_seq: u64,
    executed: u64,
    peak_pending: usize,
    _state: std::marker::PhantomData<fn(&mut S)>,
}

impl<S, E: Event<S>> Default for Sim<S, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S, E: Event<S>> Sim<S, E> {
    /// A simulator at time zero with an empty event queue.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            wheel: TimerWheel::new(),
            next_seq: 0,
            executed: 0,
            peak_pending: 0,
            _state: std::marker::PhantomData,
        }
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// The instant of the earliest pending event, if any — what
    /// [`Sim::run_until`] compares with its horizon before every step.
    #[inline]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.wheel.next_time().map(SimTime::from_nanos)
    }

    /// High-water mark of the pending-event queue over the sim's lifetime.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Deterministic count of the heap allocations the pending-event
    /// store has made since construction (wheel chunks made; chunk-table,
    /// run and ready-heap growths): exactly what a counting allocator
    /// sees it make. Depends only on the schedule — never on
    /// wall-clock or addresses — the ledger's `sim.allocs_per_event`.
    #[inline]
    pub fn alloc_events(&self) -> u64 {
        self.wheel.grow_events()
    }

    /// Schedule event `ev` at absolute time `t`; the event moves into the
    /// wheel, nothing is allocated in steady state.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current time — scheduling into the
    /// past would silently corrupt causality.
    pub fn schedule_event_at(&mut self, t: SimTime, ev: E) {
        assert!(
            t >= self.now,
            "cannot schedule event at {t} before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(t.as_nanos(), seq, ev);
        if self.wheel.len() > self.peak_pending {
            self.peak_pending = self.wheel.len();
        }
    }

    /// Schedule event `ev` to fire `delay` after the current time — at
    /// [`SimTime::MAX`], the end of time, if that is too far to represent.
    pub fn schedule_event_in(&mut self, delay: SimDuration, ev: E) {
        self.schedule_event_at(self.now + delay, ev)
    }

    /// Run the single earliest pending event, advancing the clock to its
    /// timestamp. Returns `false` if the queue was empty.
    pub fn step(&mut self, state: &mut S) -> bool {
        match self.wheel.pop() {
            Some((when, _seq, ev)) => {
                let t = SimTime::from_nanos(when);
                debug_assert!(t >= self.now);
                self.now = t;
                self.executed += 1;
                ev.dispatch(state, self);
                true
            }
            None => false,
        }
    }

    /// Run events until the queue is empty.
    pub fn run(&mut self, state: &mut S) {
        while self.step(state) {}
    }

    /// Run all events with timestamps `<= horizon`, then advance the clock to
    /// exactly `horizon` (even if no event fired there). Events scheduled at
    /// or before the horizon *by handlers running inside this call* are also
    /// executed.
    pub fn run_until(&mut self, state: &mut S, horizon: SimTime) {
        assert!(
            horizon >= self.now,
            "run_until horizon {horizon} is before current time {}",
            self.now
        );
        while self.next_event_time().is_some_and(|next| next <= horizon) {
            self.step(state);
        }
        self.now = horizon;
    }

    /// Run for `d` of simulated time from the current instant (to the end
    /// of time, [`SimTime::MAX`], if `d` reaches past it).
    pub fn run_for(&mut self, state: &mut S, d: SimDuration) {
        self.run_until(state, self.now + d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests' event vocabulary over a firing log.
    enum Ev {
        /// Log the value.
        Push(u64),
        /// Log the value, then schedule `Count(v + 1)` 1 ms later while
        /// `v < 3`.
        Count(u64),
        /// Log the firing instant; re-armed 100 ns later until five
        /// instants are logged.
        Chain,
    }

    type Log = Vec<u64>;

    impl Event<Log> for Ev {
        fn dispatch(self, log: &mut Log, sim: &mut Sim<Log, Self>) {
            match self {
                Ev::Push(v) => log.push(v),
                Ev::Count(v) => {
                    log.push(v);
                    if v < 3 {
                        sim.schedule_event_in(SimDuration::from_millis(1), Ev::Count(v + 1));
                    }
                }
                Ev::Chain => {
                    log.push(sim.now().as_nanos());
                    if log.len() < 5 {
                        sim.schedule_event_in(SimDuration::from_nanos(100), Ev::Chain);
                    }
                }
            }
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<Log, Ev> = Sim::new();
        let mut log = Vec::new();
        sim.schedule_event_at(SimTime::from_millis(30), Ev::Push(3));
        sim.schedule_event_at(SimTime::from_millis(10), Ev::Push(1));
        sim.schedule_event_at(SimTime::from_millis(20), Ev::Push(2));
        sim.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim: Sim<Log, Ev> = Sim::new();
        let mut log = Vec::new();
        let t = SimTime::from_secs(1);
        for i in 0..16 {
            sim.schedule_event_at(t, Ev::Push(i));
        }
        sim.run(&mut log);
        assert_eq!(log, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim: Sim<Log, Ev> = Sim::new();
        let mut log = Vec::new();
        sim.schedule_event_at(SimTime::ZERO, Ev::Chain);
        sim.run(&mut log);
        assert_eq!(log, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn run_until_stops_at_horizon_and_advances_clock() {
        let mut sim: Sim<Log, Ev> = Sim::new();
        let mut log = Vec::new();
        sim.schedule_event_at(SimTime::from_secs(1), Ev::Push(1));
        sim.schedule_event_at(SimTime::from_secs(3), Ev::Push(3));
        sim.run_until(&mut log, SimTime::from_secs(2));
        assert_eq!(log, vec![1]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.pending(), 1);
        // The remaining event still fires later.
        sim.run(&mut log);
        assert_eq!(log, vec![1, 3]);
    }

    #[test]
    fn run_until_includes_events_scheduled_inside_the_window() {
        let mut sim: Sim<Log, Ev> = Sim::new();
        let mut log = Vec::new();
        sim.schedule_event_at(SimTime::from_millis(10), Ev::Count(1));
        sim.run_until(&mut log, SimTime::from_millis(20));
        assert_eq!(log, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Sim<Log, Ev> = Sim::new();
        sim.schedule_event_at(SimTime::from_secs(5), Ev::Push(5));
        sim.run(&mut Vec::new());
        sim.schedule_event_at(SimTime::from_secs(1), Ev::Push(1));
    }

    /// A typed-only event that leaves `from_fn`'s provided body in place.
    struct Bump;

    impl Event<u32> for Bump {
        fn dispatch(self, state: &mut u32, _: &mut Sim<u32, Self>) {
            *state += 1;
        }
    }

    #[test]
    #[should_panic(expected = "Bump has no closure arm")]
    fn a_typed_only_event_runs_typed_and_refuses_closures_by_name() {
        let mut sim: Sim<u32, Bump> = Sim::new();
        sim.schedule_event_at(SimTime::from_millis(1), Bump);
        let mut n = 0;
        sim.run(&mut n);
        assert_eq!(n, 1);
        let _ = Bump::from_fn(Box::new(|s: &mut u32, _| *s += 1));
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut sim: Sim<Log, Ev> = Sim::new();
        for i in 0..5 {
            sim.schedule_event_at(SimTime::from_secs(i + 1), Ev::Push(i));
        }
        sim.run(&mut Vec::new());
        assert_eq!(sim.peak_pending(), 5);
        assert_eq!(sim.pending(), 0);
    }
}
