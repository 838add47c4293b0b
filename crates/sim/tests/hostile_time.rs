//! Hostile time configuration: think times, cadences and horizons up to
//! `u64::MAX` nanoseconds propagate to "never" (`SimTime::MAX`, the end of
//! time), not to the past.
//!
//! Release builds carry no overflow checks, so `SimTime + SimDuration` as a
//! bare `+` wrapped there (and panicked in debug): a client configured to
//! think for `u64::MAX` ns would have been scheduled *before* now. The
//! operators saturate; this test drives them and the kernel entry points
//! built on them (`schedule_event_in`, `run_for`) with the values a
//! careless or hostile configuration holds, against a model in `u128`.

use proptest::prelude::*;
use tsuru_sim::{Event, Sim, SimDuration, SimTime};

/// Durations a configuration file can hold: zero, tiny, ordinary, and the
/// neighbourhoods of `u64::MAX / 2` and `u64::MAX` where sums wrap.
fn hostile_nanos() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => Just(0u64),
        2 => 1u64..1_000,
        3 => 1_000u64..10_000_000_000,
        2 => (0u64..1_000).prop_map(|d| u64::MAX / 2 - d),
        2 => (0u64..1_000).prop_map(|d| u64::MAX / 2 + d),
        3 => (0u64..1_000).prop_map(|d| u64::MAX - d),
        2 => any::<u64>(),
    ]
}

fn saturated(sum: u128) -> u64 {
    u64::try_from(sum).unwrap_or(u64::MAX)
}

/// A client that thinks between orders and a sampler on a cadence, each a
/// chain of at most [`CHAIN`] typed events (a zero think time must not spin
/// the test forever).
const CHAIN: u32 = 4;

#[derive(Default)]
struct World {
    think: SimDuration,
    cadence: SimDuration,
    orders: Vec<SimTime>,
    samples: Vec<SimTime>,
}

enum Ev {
    Order(u32),
    Sample(u32),
}

impl Event<World> for Ev {
    fn dispatch(self, w: &mut World, sim: &mut Sim<World, Self>) {
        match self {
            Ev::Order(n) => {
                w.orders.push(sim.now());
                if n < CHAIN {
                    sim.schedule_event_in(w.think, Ev::Order(n + 1));
                }
            }
            Ev::Sample(n) => {
                w.samples.push(sim.now());
                if n < CHAIN {
                    sim.schedule_event_in(w.cadence, Ev::Sample(n + 1));
                }
            }
        }
    }
}

/// When a chain started at `start` with period `every` fires, up to `end`.
fn expected(start: u64, every: u64, end: u64) -> Vec<SimTime> {
    let mut at = start;
    let mut out = Vec::new();
    for _ in 0..CHAIN {
        at = saturated(at as u128 + every as u128);
        if at > end {
            break;
        }
        out.push(SimTime::from_nanos(at));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn sums_saturate_at_never_and_never_go_backwards(
        t in hostile_nanos(),
        d in hostile_nanos(),
        e in hostile_nanos(),
    ) {
        let (at, dur, more) = (SimTime::from_nanos(t), SimDuration::from_nanos(d), SimDuration::from_nanos(e));
        prop_assert_eq!((at + dur).as_nanos(), saturated(t as u128 + d as u128));
        prop_assert!(at + dur >= at);
        prop_assert_eq!(at + dur, at.checked_add(dur).unwrap_or(SimTime::MAX));
        prop_assert_eq!((dur + more).as_nanos(), saturated(d as u128 + e as u128));
        prop_assert_eq!((at + dur) + more, at + (dur + more));
        let (mut at2, mut dur2) = (at, dur);
        at2 += dur;
        dur2 += more;
        prop_assert_eq!((at2, dur2), (at + dur, dur + more));
        // "Never" absorbs.
        prop_assert_eq!(SimTime::MAX + dur, SimTime::MAX);
        prop_assert_eq!(at + SimDuration::MAX, SimTime::MAX);
    }

    #[test]
    fn hostile_think_times_cadences_and_horizons_fire_on_time_or_never(
        start in 0u64..1_000_000_000_000,
        think in hostile_nanos(),
        cadence in hostile_nanos(),
        horizon in hostile_nanos(),
    ) {
        let mut world = World {
            think: SimDuration::from_nanos(think),
            cadence: SimDuration::from_nanos(cadence),
            ..World::default()
        };
        let mut sim: Sim<World, Ev> = Sim::new();
        sim.run_until(&mut world, SimTime::from_nanos(start));
        sim.schedule_event_in(world.think, Ev::Order(1));
        sim.schedule_event_in(world.cadence, Ev::Sample(1));
        sim.run_for(&mut world, SimDuration::from_nanos(horizon));

        let end = saturated(start as u128 + horizon as u128);
        prop_assert_eq!(sim.now().as_nanos(), end);
        prop_assert_eq!(&world.orders, &expected(start, think, end));
        prop_assert_eq!(&world.samples, &expected(start, cadence, end));
        // Whatever is still pending lies in the future, not the past.
        prop_assert!(sim.next_event_time().map_or(true, |next| next > sim.now()));
    }
}
