//! Running one workload in this process: warm-up, timed iterations, the
//! verdict over their outputs, and the report.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::layers;
use crate::metrics;
use crate::report::{median, Reading, Report};
use crate::spans::Spans;
use crate::workloads::{run_iteration, Iteration, Size, Workload};

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Keep timing iterations until this many host seconds were measured.
    pub seconds: u64,
    /// Measured size or smoke-test size.
    pub size: Size,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// Self-test: add a deliberately failing check, so that the non-zero
    /// exit can be seen from outside.
    pub inject_failure: bool,
}

/// At least this many timed iterations per untraced run (medians of fewer
/// than three samples are single readings).
const MIN_ITERATIONS: usize = 3;
/// Never more than this many, however short an iteration is.
const MAX_ITERATIONS: usize = 64;
/// Set-up is milliseconds beside seconds of run (microseconds on
/// `chaos_history`), and the one build per iteration gives three samples of
/// it. So it is sampled on its own, this many times, and the median kept.
const SETUP_SAMPLES: usize = 31;

/// The verdict over a run's iterations: every check of every iteration,
/// plus the cross-iteration digest check. Every iteration runs the same
/// generated inputs on a freshly built world, so a digest that moves means
/// the simulator is not deterministic — or tracing perturbed it.
pub fn verdict(iterations: &[Iteration]) -> Vec<(String, bool)> {
    let mut checks: Vec<(String, bool)> = Vec::new();
    for it in iterations {
        for c in &it.outcome.checks {
            match checks.iter_mut().find(|(name, _)| *name == c.name) {
                Some((_, ok)) => *ok &= c.ok,
                None => checks.push((c.name.clone(), c.ok)),
            }
        }
    }
    let same = iterations
        .windows(2)
        .all(|w| w[0].outcome.digest == w[1].outcome.digest);
    checks.push((
        format!(
            "sim digest identical across {} iterations",
            iterations.len()
        ),
        same,
    ));
    checks
}

/// Run `w` untraced: one untimed warm-up, the set-up samples, then timed
/// iterations until `seconds` of host time were measured (at least three),
/// each on a freshly built world.
pub fn end_to_end(w: &Workload, o: &RunOpts) -> Report {
    let mut spans = Spans::new(w.name, false);
    let (min, max) = o.size.pick((MIN_ITERATIONS, MAX_ITERATIONS), (1, 1));
    // Caches fill and lazy set-up finishes before timing starts.
    let mut all = vec![run_iteration(w, o.seed, o.size, false, &mut spans)];
    let setup: Vec<f64> = (0..o.size.pick(SETUP_SAMPLES, 3))
        .map(|_| (w.setup)(o.seed, o.size))
        .collect();
    let t0 = Instant::now();
    // `all` counts the warm-up: `all.len() <= n` is "fewer than n timed".
    while all.len() <= min || (all.len() <= max && t0.elapsed().as_secs() < o.seconds) {
        all.push(run_iteration(w, o.seed, o.size, false, &mut spans));
    }
    let timed = &all[1..];
    let last = &timed[timed.len() - 1].outcome;
    let wall: Vec<f64> = timed.iter().map(|i| i.phases.wall_s()).collect();
    let allocs: Vec<f64> = timed.iter().map(|i| i.allocs as f64).collect();
    let units = last.units.max(1) as f64;
    let n = timed.len() as u64;

    // Unit and clock come from the declaration, not from here.
    let declared = |name: &str| {
        metrics::end_to_end(name).expect("invariant: only declared metrics are reported")
    };
    let single = |name: &str, value: f64, n: u64| {
        let m = declared(name);
        Reading::single(m.name, value, m.unit, m.clock, n)
    };
    let median_of = |name: &str, samples: &[f64]| {
        let m = declared(name);
        Reading::median_of(m.name, samples, m.unit, m.clock)
    };
    let mut readings = vec![
        median_of("wall_s", &wall),
        median_of("setup_s", &setup),
        single("peak_rss_mb", peak_rss_mb(), 1),
        single("allocs_per_unit", median(&allocs) / units, n),
        single(
            "sim_work_per_s",
            last.sim_work as f64 / last.sim_seconds,
            last.sim_work,
        ),
    ];
    readings.extend(last.sim.iter().map(|r| single(r.name, r.value, r.samples)));
    finish(w, o, &all, timed.len(), readings)
}

/// Run `w` traced: an untimed warm-up, one iteration with host spans only
/// (the reference and the source of the per-workload rows), one more with
/// the program's own sim-time tracer installed (the tracing overhead), then
/// every layer driver. Writes the span file. Returns the report and the
/// notes printed under it (span file, tracing overhead, self time by call).
pub fn traced(w: &Workload, o: &RunOpts) -> (Report, String) {
    let mut spans = Spans::new(w.name, true);
    if o.size == Size::Full {
        // Without it the reference iteration runs cold and the traced one
        // warm, and the overhead ratio reads below 1.
        spans.scope("core", "iteration (warm-up)", |s| {
            run_iteration(w, o.seed, o.size, false, s)
        });
    }
    let plain = spans.scope("core", "iteration (host spans only)", |s| {
        run_iteration(w, o.seed, o.size, false, s)
    });
    let with_tracer = spans.scope("core", "iteration (sim tracer on)", |s| {
        run_iteration(w, o.seed, o.size, true, s)
    });
    let driver_rows = layers::run_all(o.seed, o.size, &mut spans);

    let out = &plain.outcome;
    let c = &out.counters;
    let units = out.units.max(1) as f64;
    let wall = plain.phases.wall_s();
    let total = wall + plain.phases.build_s;
    let per_workload: [(&str, f64); 14] = [
        ("sim.events_per_unit", c.events as f64 / units),
        (
            "sim.host_ns_per_event",
            if c.events == 0 {
                0.0
            } else {
                total * 1e9 / c.events as f64
            },
        ),
        ("sim.peak_pending", c.peak_pending as f64),
        ("simnet.frames_per_unit", c.frames as f64 / units),
        (
            "storage.entries_per_frame",
            c.entries as f64 / c.data_frames.max(1) as f64,
        ),
        ("storage.journal_stall_retries", c.stall_retries as f64),
        ("storage.write_order_waits", c.order_waits as f64),
        (
            "telemetry.tracer_wall_ratio",
            with_tracer.phases.wall_s() / wall,
        ),
        ("core.build_s", plain.phases.build_s),
        ("core.run_s", plain.phases.run_s),
        ("core.drain_s", plain.phases.drain_s),
        ("core.verify_s", plain.phases.verify_s),
        ("core.host_us_per_unit", wall * 1e6 / units),
        ("core.allocs_per_unit", plain.allocs as f64 / units),
    ];
    let readings = metrics::PER_LAYER
        .iter()
        .map(|m| {
            let source = if m.per_workload {
                &per_workload[..]
            } else {
                &driver_rows[..]
            };
            let value = source
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("invariant: no source for declared metric {}", m.name));
            Reading::single(m.name, value, m.unit, m.clock(), 1)
        })
        .collect();

    let mut report = finish(w, o, &[plain, with_tracer], 2, readings);
    let mut notes = String::new();
    match write_spans(w.name, &spans) {
        Ok(path) => notes.push_str(&format!("  span file: {}\n", path.display())),
        Err(e) => report
            .checks
            .push((format!("span file written ({e})"), false)),
    }
    notes.push_str(&format!(
        "  tracing overhead on {}: traced / untraced wall_s = {:.3}\n  host self time by call (s):\n",
        w.name,
        report.reading("telemetry.tracer_wall_ratio").map_or(0.0, |r| r.value)
    ));
    for (layer, name, s, n) in spans.self_time_by_call() {
        notes.push_str(&format!("    {layer:<10} {name:<32} {s:>10.4}  x{n}\n"));
    }
    (report, notes)
}

fn finish(
    w: &Workload,
    o: &RunOpts,
    all: &[Iteration],
    timed: usize,
    readings: Vec<Reading>,
) -> Report {
    let last = &all[all.len() - 1].outcome;
    let mut checks = verdict(all);
    // A ratio whose divisor vanished is an error to look at, not a zero.
    checks.push((
        "every reading is finite".into(),
        readings.iter().all(|r| r.value.is_finite()),
    ));
    if o.inject_failure {
        checks.push(("self-test: deliberately failing check".into(), false));
    }
    Report {
        workload: w.name.into(),
        seed: o.seed,
        traced: o.traced,
        iterations: timed as u64,
        units: last.units,
        attempted: last.ops_attempted,
        failed: last.ops_failed,
        checks,
        digest: last.digest,
        readings,
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `<target dir>/out`, next to the directory the executable was built
/// into — inside the checkout whether or not `CARGO_TARGET_DIR` is set.
pub fn out_dir() -> PathBuf {
    out_dir_of(&std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/ledger")))
}

/// The `out` directory beside the profile directory `exe` sits in.
pub fn out_dir_of(exe: &Path) -> PathBuf {
    exe.parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("out")
}

fn write_spans(workload: &str, spans: &Spans) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, spans.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{ArrayPerf, EngineConfig, LinkConfig, StorageWorld};
    use crate::workloads::{Outcome, Phases};

    fn iteration(digest: u64, consistent: bool) -> Iteration {
        let mut outcome = Outcome {
            digest,
            ..Outcome::default()
        };
        outcome.check("every group prefix-consistent", consistent);
        Iteration {
            phases: Phases::default(),
            allocs: 0,
            outcome,
        }
    }

    /// A backup image that really is inconsistent: the secondary volume
    /// holds a block the primary's ack log never produced.
    fn inconsistent_report_is_consistent() -> bool {
        let mut w = StorageWorld::new(7, EngineConfig::default());
        let main = w.add_array("m", ArrayPerf::default());
        let backup = w.add_array("b", ArrayPerf::default());
        let (l, r) = (
            w.add_link(LinkConfig::metro()),
            w.add_link(LinkConfig::metro()),
        );
        let g = w.create_adc_group("g", l, r, 1 << 20);
        let p = w.create_volume(main, "p", 16);
        let s = w.create_volume(backup, "s", 16);
        w.add_pair(g, p, s);
        w.write_direct(s, 3, b"never acknowledged at the main site");
        w.verify_consistency(&[g]).is_consistent()
    }

    #[test]
    fn a_failing_verdict_fails_the_run() {
        assert!(!inconsistent_report_is_consistent());
        let its = [
            iteration(1, true),
            iteration(1, inconsistent_report_is_consistent()),
        ];
        let checks = verdict(&its);
        assert!(checks
            .iter()
            .any(|(name, ok)| name.contains("prefix-consistent") && !ok));
        let report = Report {
            workload: "metro_burst".into(),
            seed: 1,
            traced: false,
            iterations: 1,
            units: 1,
            attempted: 1,
            failed: 0,
            checks,
            digest: 1,
            readings: Vec::new(),
        };
        assert!(!report.correct());
        assert_ne!(crate::report::exit_code(&[report]), 0);
    }

    #[test]
    fn a_moving_digest_fails_the_run_and_a_steady_one_does_not() {
        assert!(verdict(&[iteration(1, true), iteration(2, true)])
            .iter()
            .any(|(_, ok)| !ok));
        assert!(verdict(&[iteration(1, true), iteration(1, true)])
            .iter()
            .all(|(_, ok)| *ok));
    }
}
