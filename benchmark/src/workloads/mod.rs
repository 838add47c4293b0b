//! The five end-to-end workloads and the types one iteration reports in.
//!
//! Every workload is a closed batch run on the host: a fixed amount of
//! work on a freshly built world, timed from outside through the public
//! entry points listed in `surface.rs`. Sizes are constants here, not
//! options — two commits are only comparable at one stated input size.

use std::time::Instant;

use crate::alloc::allocations;
use crate::spans::Spans;
use crate::surface::{metric_names, GroupId, StorageWorld};

pub mod chaos;
pub mod demo;
pub mod metro;
pub mod oltp;

/// Input size of a run: the measured size, or the tiny one the smoke test
/// uses (`--quick`; its timings mean nothing, its simulated outputs are
/// still exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes every reported number is measured at.
    Full,
    /// A few hundred units of work per workload.
    Quick,
}

impl Size {
    /// `full` at the measured size, `quick` in the smoke test.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Size::Full => full,
            Size::Quick => quick,
        }
    }
}

/// Host seconds of the four phases of one iteration. `build` is the
/// iteration's set-up; the other three add up to its `wall_s`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Input generation plus world/rig construction.
    pub build_s: f64,
    /// Driving the load.
    pub run_s: f64,
    /// Failure reading, settling, draining replication.
    pub drain_s: f64,
    /// Verifying, recovering, judging.
    pub verify_s: f64,
}

impl Phases {
    /// Run + drain + verify.
    pub fn wall_s(&self) -> f64 {
        self.run_s + self.drain_s + self.verify_s
    }
}

/// Time `f` into `slot` (accumulating: a workload may visit a phase once
/// per rig or demo).
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// Host seconds `build` takes; what it built is dropped after the clock
/// stops (tearing a world down is no part of setting one up).
pub fn time_build<T>(build: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    let built = build();
    let s = t0.elapsed().as_secs_f64();
    drop(built);
    s
}

/// One simulated-clock (or deterministic-count) reading of an iteration.
#[derive(Debug, Clone)]
pub struct SimReading {
    /// Metric name (declared in `metrics.rs`).
    pub name: &'static str,
    /// The reading.
    pub value: f64,
    /// Samples behind it (latency samples, demos averaged over, …).
    pub samples: u64,
}

/// One output check of an iteration.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub ok: bool,
}

/// Deterministic per-layer counts read off the worlds an iteration built.
/// Zero where the public surface does not reach (the chaos crate builds
/// its rigs inside the trial call and returns only the report).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Kernel events executed.
    pub events: u64,
    /// Largest pending-queue high-water mark over the iteration's kernels.
    pub peak_pending: u64,
    /// Frames offered on every link, both directions.
    pub frames: u64,
    /// Journal-batch frames the transfer pumps sent.
    pub data_frames: u64,
    /// Journal entries shipped.
    pub entries: u64,
    /// Host writes stalled by a full journal.
    pub stall_retries: u64,
    /// Host writes parked by the per-volume ordering gate.
    pub order_waits: u64,
}

impl Counters {
    /// Add the counts of one finished world: its kernel's `events` and
    /// `peak_pending`, every link's frames, and the stats of `groups`.
    pub fn absorb(
        &mut self,
        st: &StorageWorld,
        groups: &[GroupId],
        events: u64,
        peak_pending: usize,
    ) {
        self.events += events;
        self.peak_pending = self.peak_pending.max(peak_pending as u64);
        self.frames += st.net.iter().map(|(_, l)| l.frames_sent()).sum::<u64>();
        for &g in groups {
            let s = &st.fabric.group(g).stats;
            self.entries += s.entries_transferred;
            self.data_frames += s.frames_sent;
        }
        self.stall_retries += st.metrics.counter(metric_names::JOURNAL_STALL_RETRIES);
        self.order_waits += st.metrics.counter(metric_names::WRITE_ORDER_WAITS);
    }

    /// Fold the exact counts into a digest.
    pub fn digest(&self, d: &mut Digest) {
        for v in [
            self.events,
            self.peak_pending,
            self.frames,
            self.data_frames,
            self.entries,
            self.stall_retries,
            self.order_waits,
        ] {
            d.u64(v);
        }
    }
}

/// Everything one iteration produced besides host time.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Units of work completed (the workload's stated unit).
    pub units: u64,
    /// Operations attempted, for the failure share.
    pub ops_attempted: u64,
    /// Of those, operations that failed.
    pub ops_failed: u64,
    /// Simulated work completed (acked writes / committed orders).
    pub sim_work: u64,
    /// Simulated seconds that work took.
    pub sim_seconds: f64,
    /// Simulated-clock readings.
    pub sim: Vec<SimReading>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// FNV-1a digest of every simulated output.
    pub digest: u64,
    /// Deterministic layer counts.
    pub counters: Counters,
}

impl Outcome {
    /// Record a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            name: name.into(),
            ok,
        });
    }
    /// Record a simulated reading (and fold it into the digest).
    pub fn reading(&mut self, d: &mut Digest, name: &'static str, value: f64, samples: u64) {
        d.f64(value);
        self.sim.push(SimReading {
            name,
            value,
            samples,
        });
    }
}

/// One iteration: host time, host allocations, and the outcome.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Host seconds per phase.
    pub phases: Phases,
    /// Heap allocations made during the iteration (all four phases).
    pub allocs: u64,
    /// Simulated outputs, checks and counts.
    pub outcome: Outcome,
}

/// FNV-1a over the simulated outputs: identical across the iterations of
/// a run or the simulator is not deterministic.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    /// Fold an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// Fold a float in, bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Fold a flag in.
    pub fn bool(&mut self, v: bool) {
        self.u64(v as u64);
    }
    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A workload: its name, its unit of work, and how to run one iteration.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The unit `units` counts.
    pub unit: &'static str,
    /// Why the workload is in the ledger (one line; the long form is the
    /// module doc of its file).
    pub why: &'static str,
    /// Generate the inputs and build the worlds of one iteration, exactly
    /// as `iterate` does, drop them, and return the host seconds the
    /// construction alone took ([`time_build`]).
    pub setup: fn(seed: u64, size: Size) -> f64,
    /// Run one iteration on a freshly built world. `traced` installs the
    /// program's own sim-time tracer on the worlds it builds.
    pub iterate: fn(seed: u64, size: Size, traced: bool, spans: &mut Spans) -> (Phases, Outcome),
}

/// The five workloads, in ledger order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "metro_burst",
        unit: "acked host write",
        why: "5000 tenants x 8 orders saturate the 8 lanes: transfer pump, journal, link queue and shard sampler do the work; home of the superlinear term",
        setup: metro::burst_setup,
        iterate: metro::burst,
    },
    Workload {
        name: "metro_steady",
        unit: "acked host write",
        why: "1000 tenants x 128 orders, same engine code but the lanes keep up: a fix for an O(backlog) scan must leave this flat",
        setup: metro::steady_setup,
        iterate: metro::steady,
    },
    Workload {
        name: "oltp_rig",
        unit: "committed order",
        why: "64 closed-loop ecom clients for 10 s under none, adc-cg and sdc, then failure and recovery: minidb and ecom dominate; carries claim C1",
        setup: oltp::setup,
        iterate: oltp::iterate,
    },
    Workload {
        name: "chaos_history",
        unit: "judged trial",
        why: "12 seeded random fault plans (no main-array crash) x 3 workloads x cg/naive with history on: injector, auditor, checkers, minidb recover/scan: the read side",
        setup: chaos::setup,
        iterate: chaos::iterate,
    },
    Workload {
        name: "demo_dr",
        unit: "completed demo",
        why: "16 seeds of the paper's D1-D2-D3 demo plus disaster drill: operator reconcile, snapshot groups, analytics, business recovery",
        setup: demo::setup,
        iterate: demo::iterate,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run one iteration of `w`, counting its allocations.
pub fn run_iteration(
    w: &Workload,
    seed: u64,
    size: Size,
    traced: bool,
    spans: &mut Spans,
) -> Iteration {
    let a0 = allocations();
    let (phases, outcome) = (w.iterate)(seed, size, traced, spans);
    Iteration {
        phases,
        allocs: allocations() - a0,
        outcome,
    }
}
