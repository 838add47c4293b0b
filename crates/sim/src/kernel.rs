//! The discrete-event simulation kernel.
//!
//! A [`Sim<S, E>`] owns a time-ordered queue of events over an arbitrary
//! user state `S`. The event type `E` implements [`Event`]: domain crates
//! define plain enums dispatched by `match`, so the hot path schedules and
//! fires events with **zero heap allocations**. The default event type,
//! [`DynEvent`], is the classic boxed-closure escape hatch — `Sim<S>`
//! (no second parameter) behaves exactly like the original closure kernel,
//! and [`Sim::schedule_at`] / [`Sim::schedule_in`] accept closures for any
//! event type via [`Event::from_fn`].
//!
//! Pending events live in a hierarchical timer wheel (see [`crate::wheel`])
//! rather than a binary heap: O(1) amortized insert and pop, and cheap
//! cancellation through [`TimerToken`]s. Ties on the timestamp are broken
//! by insertion order (`seq`), which makes every run fully deterministic —
//! the wheel pops in exactly the `(time, seq)` order the old heap did.

use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;

/// A one-shot boxed event handler for kernels of event type `E`.
pub type EventFn<S, E = DynEvent<S>> = Box<dyn FnOnce(&mut S, &mut Sim<S, E>)>;

/// A schedulable event for kernels over state `S`.
///
/// Implementations are typically enums whose [`Event::dispatch`] is a
/// `match` calling straight into domain code — no allocation, no virtual
/// call. An implementation that also absorbs a boxed closure
/// ([`Event::from_fn`], the `Dyn` escape-hatch variant) lets generic
/// helpers and tests keep scheduling ad-hoc handlers; one that schedules
/// typed events only leaves the provided body in place.
pub trait Event<S>: Sized + 'static {
    /// Wrap a boxed closure as an event (the escape hatch used by
    /// [`Sim::schedule_at`] and [`Sim::schedule_in`]).
    ///
    /// # Panics
    /// The provided body panics, naming the event type: an enum without a
    /// closure arm was handed a closure.
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

/// The default event type: a boxed one-shot closure. `Sim<S>` with this
/// event type is API- and behavior-compatible with the original
/// closure-only kernel (one allocation per scheduled event).
pub struct DynEvent<S: 'static>(EventFn<S>);

impl<S: 'static> Event<S> for DynEvent<S> {
    #[inline]
    fn from_fn(f: EventFn<S, Self>) -> Self {
        DynEvent(f)
    }
    #[inline]
    fn dispatch(self, state: &mut S, sim: &mut Sim<S, Self>) {
        (self.0)(state, sim)
    }
}

/// Handle to one scheduled event, returned by [`Sim::schedule_event_at`]
/// and [`Sim::schedule_event_in`]. Pass to [`Sim::cancel`] to de-schedule.
/// Tokens are cheap copies; a token for an event that already fired (or
/// was already cancelled) is simply stale and cancels nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken {
    time: SimTime,
    seq: u64,
}

impl TimerToken {
    /// The instant the event is scheduled to fire.
    #[inline]
    pub fn time(&self) -> SimTime {
        self.time
    }
}

/// A deterministic discrete-event simulator over user state `S` with
/// event type `E` (default: boxed closures).
pub struct Sim<S, E = DynEvent<S>> {
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

    /// High-water mark of the wheel's ready run: the largest number of
    /// events drained from one wheel slot, sorted once and served
    /// contiguously.
    #[inline]
    pub fn peak_slab(&self) -> usize {
        self.wheel.slab_peak()
    }

    /// Deterministic count of heap reallocations performed by the
    /// pending-event store (wheel bucket / ready-heap capacity growths)
    /// since construction. Depends only on the schedule — never on
    /// wall-clock or addresses — the ledger's `sim.allocs_per_event`.
    #[inline]
    pub fn alloc_events(&self) -> u64 {
        self.wheel.grow_events()
    }

    /// Deterministic count of pending entries the wheel has re-homed by
    /// cascading a coarse slot one level down (one per entry per
    /// cascaded level) since construction — the wheel's only per-event
    /// cost that is not O(1) by construction.
    #[inline]
    pub fn rehomed_events(&self) -> u64 {
        self.wheel.rehomed()
    }

    /// Schedule event `ev` at absolute time `t`. Zero-allocation for
    /// typed (non-`Dyn`) events. The returned token can cancel it.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current time — scheduling into the
    /// past would silently corrupt causality.
    pub fn schedule_event_at(&mut self, t: SimTime, ev: E) -> TimerToken {
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
        TimerToken { time: t, seq }
    }

    /// Schedule event `ev` to fire `delay` after the current time — at
    /// [`SimTime::MAX`], the end of time, if that is too far to represent.
    pub fn schedule_event_in(&mut self, delay: SimDuration, ev: E) -> TimerToken {
        self.schedule_event_at(self.now + delay, ev)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (it will now never fire and its wheel slot is
    /// reclaimed immediately); `false` if it already fired or was already
    /// cancelled.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        self.wheel.cancel(token.time.as_nanos(), token.seq).is_some()
    }

    /// Schedule closure `f` to run at absolute time `t` (boxed escape
    /// hatch; one allocation).
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current time — scheduling into the
    /// past would silently corrupt causality.
    pub fn schedule_at(&mut self, t: SimTime, f: impl FnOnce(&mut S, &mut Sim<S, E>) + 'static) {
        self.schedule_event_at(t, E::from_fn(Box::new(f)));
    }

    /// Schedule closure `f` to run `delay` after the current time (boxed
    /// escape hatch; one allocation).
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut S, &mut Sim<S, E>) + 'static,
    ) {
        self.schedule_at(self.now + delay, f);
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

    /// Run until `pred(state)` holds, checking after every event, or until
    /// the queue drains. Returns `true` if the predicate was satisfied.
    pub fn run_until_cond(&mut self, state: &mut S, mut pred: impl FnMut(&S) -> bool) -> bool {
        if pred(state) {
            return true;
        }
        while self.step(state) {
            if pred(state) {
                return true;
            }
        }
        false
    }

    /// Drop all pending events (used when tearing a scenario down early).
    pub fn clear_pending(&mut self) {
        self.wheel.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_millis(30), |s: &mut Vec<u32>, _| s.push(3));
        sim.schedule_at(SimTime::from_millis(10), |s: &mut Vec<u32>, _| s.push(1));
        sim.schedule_at(SimTime::from_millis(20), |s: &mut Vec<u32>, _| s.push(2));
        sim.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut log = Vec::new();
        let t = SimTime::from_secs(1);
        for i in 0..16 {
            sim.schedule_at(t, move |s: &mut Vec<u32>, _| s.push(i));
        }
        sim.run(&mut log);
        assert_eq!(log, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut log = Vec::new();
        fn chain(s: &mut Vec<u64>, sim: &mut Sim<Vec<u64>>) {
            s.push(sim.now().as_nanos());
            if s.len() < 5 {
                sim.schedule_in(SimDuration::from_nanos(100), chain);
            }
        }
        sim.schedule_at(SimTime::ZERO, chain);
        sim.run(&mut log);
        assert_eq!(log, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn run_until_stops_at_horizon_and_advances_clock() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        sim.schedule_at(SimTime::from_secs(3), |s: &mut Vec<u32>, _| s.push(3));
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
        let mut sim: Sim<Vec<&'static str>> = Sim::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_millis(10), |s: &mut Vec<&str>, sim| {
            s.push("a");
            sim.schedule_in(SimDuration::from_millis(5), |s: &mut Vec<&str>, _| {
                s.push("b")
            });
        });
        sim.run_until(&mut log, SimTime::from_millis(20));
        assert_eq!(log, vec!["a", "b"]);
    }

    #[test]
    fn run_until_cond_stops_early() {
        let mut sim: Sim<u32> = Sim::new();
        let mut n = 0u32;
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(i), |s: &mut u32, _| *s += 1);
        }
        let hit = sim.run_until_cond(&mut n, |s| *s == 4);
        assert!(hit);
        assert_eq!(n, 4);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_cond_reports_failure_when_queue_drains() {
        let mut sim: Sim<u32> = Sim::new();
        let mut n = 0u32;
        sim.schedule_at(SimTime::from_secs(1), |s: &mut u32, _| *s += 1);
        assert!(!sim.run_until_cond(&mut n, |s| *s == 100));
        assert_eq!(n, 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Sim<()> = Sim::new();
        sim.schedule_at(SimTime::from_secs(5), |_, _| {});
        sim.run(&mut ());
        sim.schedule_at(SimTime::from_secs(1), |_, _| {});
    }

    #[test]
    fn clear_pending_discards_events() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule_at(SimTime::from_secs(1), |s: &mut u32, _| *s += 1);
        sim.clear_pending();
        let mut n = 0;
        sim.run(&mut n);
        assert_eq!(n, 0);
    }

    /// A minimal typed event: proves match-dispatched enums work end to
    /// end, including the `Dyn` escape hatch alongside typed variants.
    enum TickEvent {
        Add(u32),
        Dyn(EventFn<Vec<u32>, TickEvent>),
    }

    impl Event<Vec<u32>> for TickEvent {
        fn from_fn(f: EventFn<Vec<u32>, Self>) -> Self {
            TickEvent::Dyn(f)
        }
        fn dispatch(self, state: &mut Vec<u32>, sim: &mut Sim<Vec<u32>, Self>) {
            match self {
                TickEvent::Add(n) => {
                    state.push(n);
                    if n < 3 {
                        sim.schedule_event_in(SimDuration::from_millis(1), TickEvent::Add(n + 1));
                    }
                }
                TickEvent::Dyn(f) => f(state, sim),
            }
        }
    }

    #[test]
    fn typed_events_interleave_with_dyn_closures() {
        let mut sim: Sim<Vec<u32>, TickEvent> = Sim::new();
        let mut log = Vec::new();
        sim.schedule_event_at(SimTime::from_millis(1), TickEvent::Add(1));
        sim.schedule_at(SimTime::from_millis(2), |s: &mut Vec<u32>, _| s.push(99));
        sim.run(&mut log);
        // t=1: Add(1); t=2: the closure (scheduled first, lower seq) then
        // Add(2); t=3: Add(3).
        assert_eq!(log, vec![1, 99, 2, 3]);
    }

    /// A typed-only enum: no `Dyn` arm, no `from_fn`.
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
        sim.schedule_in(SimDuration::from_millis(1), |s: &mut u32, _| *s += 1);
    }

    #[test]
    fn cancelled_events_never_fire_and_cancel_is_one_shot() {
        let mut sim: Sim<Vec<u32>, TickEvent> = Sim::new();
        let mut log = Vec::new();
        let keep = sim.schedule_event_at(SimTime::from_millis(1), TickEvent::Add(10));
        let kill = sim.schedule_event_at(SimTime::from_millis(2), TickEvent::Add(20));
        assert_eq!(keep.time(), SimTime::from_millis(1));
        assert!(sim.cancel(kill));
        assert!(!sim.cancel(kill), "double-cancel must report stale");
        assert_eq!(sim.pending(), 1);
        sim.run(&mut log);
        assert_eq!(log, vec![10]);
        assert!(!sim.cancel(keep), "cancel after firing must report stale");
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut sim: Sim<u32> = Sim::new();
        for i in 0..5 {
            sim.schedule_at(SimTime::from_secs(i + 1), |s: &mut u32, _| *s += 1);
        }
        let mut n = 0;
        sim.run(&mut n);
        assert_eq!(sim.peak_pending(), 5);
        assert_eq!(sim.pending(), 0);
    }
}
