//! The storage tests' kernel event. The data plane runs as typed
//! [`StorageOp`]s — the path every production world takes — and the test
//! script's own steps (a fault at an instant, a write issued mid-run, a
//! probe) ride in one boxed variant.

#![allow(
    dead_code,
    reason = "each test binary compiles this module and uses a subset of it"
)]

use tsuru_sim::{Event, Sim, SimDuration, SimTime};
use tsuru_storage::{HasStorage, StorageEvents, StorageOp};

/// A test world's kernel event.
pub enum Ev<W: 'static> {
    /// A storage data-plane hop.
    Storage(StorageOp<W, Ev<W>>),
    /// A step of the test script.
    Step(Step<W>),
}

/// A step of a test script: any closure over the world and its kernel.
pub type Step<W> = Box<dyn FnOnce(&mut W, &mut Sim<W, Ev<W>>)>;

impl<W: HasStorage + 'static> Event<W> for Ev<W> {
    fn dispatch(self, w: &mut W, sim: &mut Sim<W, Self>) {
        match self {
            Ev::Storage(op) => op.dispatch(w, sim),
            Ev::Step(f) => f(w, sim),
        }
    }
}

impl<W: HasStorage + 'static> StorageEvents<W> for Ev<W> {
    fn storage(op: StorageOp<W, Self>) -> Self {
        Ev::Storage(op)
    }
}

/// Run script step `f` at instant `t`.
pub fn at<W: HasStorage + 'static>(
    sim: &mut Sim<W, Ev<W>>,
    t: SimTime,
    f: impl FnOnce(&mut W, &mut Sim<W, Ev<W>>) + 'static,
) {
    sim.schedule_event_at(t, Ev::Step(Box::new(f)));
}

/// Run script step `f` `d` after the current instant.
pub fn after<W: HasStorage + 'static>(
    sim: &mut Sim<W, Ev<W>>,
    d: SimDuration,
    f: impl FnOnce(&mut W, &mut Sim<W, Ev<W>>) + 'static,
) {
    sim.schedule_event_in(d, Ev::Step(Box::new(f)));
}
