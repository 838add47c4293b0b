//! # tsuru-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the Tsuru backup-system reproduction: a single-threaded,
//! fully deterministic discrete-event simulator plus the measurement and
//! randomness primitives every other crate builds on.
//!
//! - [`Sim`] — the event kernel: a time-ordered queue of typed events
//!   (plain enum values, dispatched by `match`) over a user-supplied world
//!   state. A scheduled event always fires; there is no cancellation.
//! - [`SimTime`] / [`SimDuration`] — integer-nanosecond time.
//! - [`DetRng`] / [`Zipf`] — seeded, splittable randomness.
//! - [`Histogram`], [`TimeSeries`] — measurement.
//! - [`ServiceStation`], [`RatePipe`] — analytic queueing/bandwidth models.
//!
//! Determinism contract: given the same seed and the same sequence of API
//! calls, every run produces bit-identical results on every platform. Event
//! ties are broken by insertion order and no wall-clock or OS entropy is
//! consulted anywhere in the workspace's simulation path.
//!
//! ```
//! use tsuru_sim::{Event, Sim, SimDuration, SimTime};
//!
//! /// A counter's events: add one and arm `AddTen` a millisecond later.
//! enum Tick {
//!     AddOne,
//!     AddTen,
//! }
//!
//! impl Event<u32> for Tick {
//!     fn dispatch(self, c: &mut u32, sim: &mut Sim<u32, Tick>) {
//!         match self {
//!             Tick::AddOne => {
//!                 *c += 1;
//!                 sim.schedule_event_in(SimDuration::from_millis(1), Tick::AddTen);
//!             }
//!             Tick::AddTen => *c += 10,
//!         }
//!     }
//! }
//!
//! let mut sim: Sim<u32, Tick> = Sim::new();
//! let mut counter = 0u32;
//! sim.schedule_event_at(SimTime::from_millis(1), Tick::AddOne);
//! sim.run(&mut counter);
//! assert_eq!(counter, 11);
//! assert_eq!(sim.now(), SimTime::from_millis(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod metrics;
mod queue;
mod rng;
mod time;
mod wheel;

pub use kernel::{Event, EventFn, Sim};
pub use metrics::{Histogram, Summary, ThroughputReport, TimeSeries};
pub use queue::{RatePipe, ServiceStation};
pub use rng::{DetRng, Zipf};
pub use time::{SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
