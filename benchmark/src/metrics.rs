//! Every metric the ledger reports, declared once: name, unit, clock,
//! direction, bound, the workloads it applies to and — for layer metrics —
//! which end-to-end metric it should move on which workload. The README
//! tables are this file in prose; the smoke test checks that the two and
//! `BENCHMARK.json` agree.
//!
//! Two clocks, and every name says which: **host** time is what the
//! simulator costs to run (noisy, gated within a bound); names starting
//! `sim_` or containing `.sim.` are **simulated** time or counts from the
//! deterministic model (exact: two runs of one commit and one seed agree
//! to the last digit, and a change meant only to speed the simulator up
//! must leave them identical).

/// Which clock a metric is read off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock / process memory of the simulator itself.
    Host,
    /// The deterministic model: simulated time and simulated outcomes.
    Sim,
    /// A deterministic count made by the program or the benchmark (events,
    /// frames, allocations): repeats exactly, but is no clock reading.
    Count,
}

impl Clock {
    /// `host` / `sim`.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse a metric may read before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Two runs of one commit and one seed must agree to the last digit.
    Exact,
    /// Relative share of the reference reading.
    Rel(f64),
    /// The larger of a relative share and an absolute amount (in the
    /// metric's unit): for readings so small that timer noise exceeds any
    /// sensible share.
    RelOrAbs(f64, f64),
}

impl Bound {
    /// Does `b` stay within the bound of `a` (in the worse direction)?
    pub fn holds(self, better: Better, a: f64, b: f64) -> bool {
        let worse_by = match better {
            Better::Lower => b - a,
            Better::Higher => a - b,
        };
        match self {
            Bound::Exact => a.to_bits() == b.to_bits(),
            Bound::Rel(r) => worse_by <= r * a.abs(),
            Bound::RelOrAbs(r, abs) => worse_by <= (r * a.abs()).max(abs),
        }
    }

    /// For tables.
    pub fn label(self) -> String {
        match self {
            Bound::Exact => "exact".into(),
            Bound::Rel(r) => format!("{:.0}%", r * 100.0),
            Bound::RelOrAbs(r, abs) => format!("max({:.0}%, {abs})", r * 100.0),
        }
    }
}

/// All five workloads.
pub const ALL: &[&str] = &[
    "metro_burst",
    "metro_steady",
    "oltp_rig",
    "chaos_history",
    "demo_dr",
];
const METRO: &[&str] = &["metro_burst", "metro_steady"];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
    /// Workloads it is emitted on.
    pub workloads: &'static [&'static str],
    /// One-line definition.
    pub what: &'static str,
}

impl EndToEnd {
    /// Emitted on every workload, so it can be listed in `BENCHMARK.json`
    /// (whose contract wants every end-to-end metric on every run).
    pub fn on_every_workload(&self) -> bool {
        self.workloads.len() == ALL.len()
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: Bound,
    workloads: &'static [&'static str],
    what: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        better,
        bound,
        workloads,
        what,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// The end-to-end metrics, in report order.
#[rustfmt::skip] // a table: one metric per entry reads better than rustfmt's one argument per line
pub const END_TO_END: &[EndToEnd] = &[
    e2e("wall_s", "s", Host, Lower, Bound::Rel(0.25), ALL,
        "run + drain + verify/recover/judge of one iteration, after construction; median of the timed iterations"),
    e2e("setup_s", "s", Host, Lower, Bound::RelOrAbs(0.25, 0.020), ALL,
        "input generation plus world/rig construction of one iteration; median of 31 constructions made before the timed iterations"),
    e2e("peak_rss_mb", "MiB", Host, Lower, Bound::Rel(0.20), ALL,
        "VmHWM of the workload's process"),
    e2e("allocs_per_unit", "count", Host, Lower, Bound::Rel(0.15), ALL,
        "heap allocations per unit of work over a whole iteration (counting allocator; repeats exactly)"),
    e2e("sim_work_per_s", "1/s", Sim, Higher, Bound::Exact, ALL,
        "simulated work per simulated second: acked writes / drain time, at least one sample interval (metro_*), committed orders / load time (others)"),
    e2e("sim_ack_p50_us", "us", Sim, Lower, Bound::Exact, &["oltp_rig", "demo_dr"],
        "median transaction latency under adc-cg (latency_summary)"),
    e2e("sim_ack_p99_us", "us", Sim, Lower, Bound::Exact, &["oltp_rig", "demo_dr"],
        "p99 transaction latency under adc-cg"),
    e2e("sim_slowdown_adc", "ratio", Sim, Lower, Bound::Exact, &["oltp_rig"],
        "adc-cg p50 / none p50 (paper C1)"),
    e2e("sim_rpo_ms", "ms", Sim, Lower, Bound::Exact, &["metro_burst", "metro_steady", "oltp_rig", "demo_dr"],
        "rpo_report at the probe instant / at the end-of-load failure; mean over demos"),
    e2e("sim_lost_orders", "orders", Sim, Lower, Bound::Exact, &["oltp_rig", "demo_dr"],
        "committed at main, absent after recovery at backup; mean over demos"),
    e2e("sim_drain_ms", "ms", Sim, Lower, Bound::Exact, METRO,
        "last sampled instant with non-zero apply lag"),
    e2e("sim_apply_lag_peak", "writes", Sim, Lower, Bound::Exact, METRO,
        "max over lanes and time of shard.apply_lag_writes"),
    e2e("sim_rto_ms", "ms", Sim, Lower, Bound::Exact, &["demo_dr"],
        "FailoverReport::rto, mean over demos"),
    e2e("naive_caught_ratio", "ratio", Sim, Higher, Bound::Exact, &["chaos_history"],
        "share of adc-naive ecom trials convicted by auditor or history checker (oracle power)"),
];

/// Look an end-to-end metric up.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `(end-to-end metric, workloads)` a layer metric should move.
pub type Moves = &'static [(&'static str, &'static [&'static str])];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Repeats exactly for one commit and one seed.
    pub exact: bool,
    /// Read off the workload the traced run belongs to (otherwise off a
    /// layer driver, the same in every traced run).
    pub per_workload: bool,
    /// What it should move, and where.
    pub moves: Moves,
}

impl PerLayer {
    /// Host time, simulated time (`.sim.` names) or an exact count.
    pub fn clock(&self) -> Clock {
        if self.name.contains(".sim.") {
            Clock::Sim
        } else if self.exact {
            Clock::Count
        } else {
            Clock::Host
        }
    }

    /// The layer (= crate) prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const fn drv(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: Moves,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        per_workload: false,
        moves,
    }
}
const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: Moves,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        per_workload: true,
        moves,
    }
}

const WALL_ALL: Moves = &[("wall_s", ALL)];
const WALL_METRO: Moves = &[("wall_s", METRO)];
const WALL_BURST: Moves = &[("wall_s", &["metro_burst"])];
const WALL_OLTP: Moves = &[("wall_s", &["oltp_rig"])];
const WALL_CHAOS: Moves = &[("wall_s", &["chaos_history"])];
const WALL_DEMO: Moves = &[("wall_s", &["demo_dr"])];
const WALL_STORAGE: Moves = &[("wall_s", &["metro_steady", "metro_burst", "oltp_rig"])];
const WALL_COMMIT: Moves = &[("wall_s", &["oltp_rig", "demo_dr", "chaos_history"])];
const WALL_RECOVER: Moves = &[("wall_s", &["chaos_history", "demo_dr"])];
const SIM_BACKLOG: Moves = &[
    ("sim_drain_ms", &["metro_burst"]),
    ("sim_apply_lag_peak", &["metro_burst"]),
    ("sim_rpo_ms", &["metro_burst"]),
];
const SIM_ACK: Moves = &[
    ("sim_ack_p50_us", &["oltp_rig"]),
    ("sim_ack_p99_us", &["oltp_rig"]),
];
const NONE: Moves = &[];

/// The per-layer metrics, grouped by layer. Measured only in the traced
/// run; none has a bound.
#[rustfmt::skip] // a table, as above
pub const PER_LAYER: &[PerLayer] = &[
    // sim — expect < 2 % end to end: the kernel does tens of M events/s
    // while the workloads retire 0.1–0.5 M events/s.
    drv("sim.events_per_s", "1/s", Higher, false, WALL_ALL),
    drv("sim.allocs_per_event", "count", Lower, true, WALL_ALL),
    row("sim.events_per_unit", "count", Lower, true, WALL_ALL),
    row("sim.host_ns_per_event", "ns", Lower, false, WALL_ALL),
    row("sim.peak_pending", "count", Lower, true, NONE),
    // simnet
    drv("simnet.offers_per_s", "1/s", Higher, false, WALL_METRO),
    row("simnet.frames_per_unit", "count", Lower, true, WALL_METRO),
    // storage
    drv("storage.writes_per_s.adc_cg", "1/s", Higher, false, WALL_STORAGE),
    drv("storage.writes_per_s.sdc", "1/s", Higher, false, WALL_OLTP),
    drv("storage.writes_per_s.adc_naive", "1/s", Higher, false, WALL_CHAOS),
    drv("storage.events_per_write.adc_cg", "count", Lower, true, WALL_STORAGE),
    drv("storage.events_per_write.sdc", "count", Lower, true, WALL_OLTP),
    drv("storage.events_per_write.adc_naive", "count", Lower, true, WALL_CHAOS),
    drv("storage.journal_ops_per_s", "1/s", Higher, false, WALL_METRO),
    drv("storage.journal_ops_per_s_deep", "1/s", Higher, false, WALL_BURST),
    drv("storage.verify_writes_per_s", "1/s", Higher, false, WALL_METRO),
    drv("storage.rpo_report_per_s", "1/s", Higher, false, WALL_BURST),
    drv("storage.sample_shard_series_per_s", "1/s", Higher, false, WALL_BURST),
    drv("storage.snapshot_group_per_s", "1/s", Higher, false, WALL_DEMO),
    drv("storage.cow_saves_per_write", "count", Lower, true, WALL_DEMO),
    row("storage.entries_per_frame", "count", Higher, true, WALL_METRO),
    row("storage.journal_stall_retries", "count", Lower, true, NONE),
    row("storage.write_order_waits", "count", Lower, true, NONE),
    drv("storage.sim.host_write_p50_us", "us", Lower, true, SIM_ACK),
    drv("storage.sim.host_write_p99_us", "us", Lower, true, SIM_ACK),
    drv("storage.sim.ticket_wait_p99_us", "us", Lower, true, SIM_ACK),
    drv("storage.sim.journal_append_p50_us", "us", Lower, true, SIM_ACK),
    drv("storage.sim.wan_transfer_p50_us", "us", Lower, true, SIM_BACKLOG),
    drv("storage.sim.wan_transfer_p99_us", "us", Lower, true, SIM_BACKLOG),
    drv("storage.sim.backup_apply_p50_us", "us", Lower, true, SIM_BACKLOG),
    drv("storage.sim.backup_apply_p99_us", "us", Lower, true, SIM_BACKLOG),
    // minidb — nothing on metro_*
    drv("minidb.commits_per_s", "1/s", Higher, false, WALL_COMMIT),
    drv("minidb.gets_per_s", "1/s", Higher, false, WALL_COMMIT),
    drv("minidb.scan_rows_per_s", "1/s", Higher, false, WALL_RECOVER),
    drv("minidb.recover_per_s", "1/s", Higher, false, WALL_RECOVER),
    drv("minidb.block_writes_per_commit", "count", Lower, true, SIM_ACK),
    drv("minidb.bytes_written_per_user_byte", "ratio", Lower, true, SIM_ACK),
    drv("minidb.checkpoints", "count", Lower, true, NONE),
    drv("minidb.tree_nodes", "count", Lower, true, NONE),
    // ecom
    drv("ecom.orders_per_s.none", "1/s", Higher, false, WALL_OLTP),
    drv("ecom.check_images_per_s", "1/s", Higher, false, WALL_RECOVER),
    // history
    drv("history.records_per_s", "1/s", Higher, false, WALL_CHAOS),
    drv("history.check_ops_per_s", "1/s", Higher, false, WALL_CHAOS),
    drv("history.export_mb_per_s", "MB/s", Higher, false, WALL_CHAOS),
    // chaos
    drv("chaos.trials_per_s", "1/s", Higher, false, WALL_CHAOS),
    drv("chaos.supervised_trials_per_s", "1/s", Higher, false, NONE),
    drv("chaos.alert_trials_per_s", "1/s", Higher, false, NONE),
    drv("chaos.audits_per_trial", "count", Lower, true, WALL_CHAOS),
    drv("chaos.plan_gen_per_s", "1/s", Higher, false, &[("setup_s", &["chaos_history"])]),
    // telemetry — tracing is off end to end; only registry sampling is on
    // the metro path. This is ROADMAP item 5's on/off delta.
    row("telemetry.tracer_wall_ratio", "ratio", Lower, false, NONE),
    drv("telemetry.records_per_write", "count", Lower, true, NONE),
    drv("telemetry.export_jsonl_mb_per_s", "MB/s", Higher, false, NONE),
    drv("telemetry.registry_samples_per_s", "1/s", Higher, false, WALL_METRO),
    // core — the phases sum to setup_s + wall_s of their workload
    row("core.build_s", "s", Lower, false, &[("setup_s", ALL)]),
    row("core.run_s", "s", Lower, false, WALL_ALL),
    row("core.drain_s", "s", Lower, false, WALL_ALL),
    row("core.verify_s", "s", Lower, false, WALL_ALL),
    row("core.host_us_per_unit", "us", Lower, false, WALL_ALL),
    row("core.allocs_per_unit", "count", Lower, true, &[("allocs_per_unit", ALL)]),
    drv("core.harness_speedup_2t", "ratio", Higher, false, NONE),
    // operator
    drv("operator.reconcile_volumes_per_s.200", "1/s", Higher, false, &[("wall_s", &["demo_dr"]), ("setup_s", &["demo_dr"])]),
    drv("operator.reconcile_volumes_per_s.2000", "1/s", Higher, false, NONE),
    drv("operator.api_mutations_per_volume", "count", Lower, true, WALL_DEMO),
    drv("operator.rounds", "count", Lower, true, WALL_DEMO),
    // analytics
    drv("analytics.rows_per_s", "1/s", Higher, false, WALL_DEMO),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_judge_the_worse_direction_only() {
        assert!(Bound::Rel(0.10).holds(Lower, 1.0, 1.09));
        assert!(!Bound::Rel(0.10).holds(Lower, 1.0, 1.11));
        assert!(Bound::Rel(0.10).holds(Lower, 1.0, 0.5));
        assert!(Bound::Rel(0.10).holds(Higher, 100.0, 95.0));
        assert!(!Bound::Rel(0.10).holds(Higher, 100.0, 85.0));
        assert!(Bound::RelOrAbs(0.10, 0.020).holds(Lower, 0.00001, 0.0001));
        assert!(Bound::Exact.holds(Lower, 7.5, 7.5));
        assert!(!Bound::Exact.holds(Lower, 7.5, 7.500000001));
    }
}
