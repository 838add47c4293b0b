//! What one run of one workload reports, how it is printed, and how it
//! travels from a child process to the parent as one JSON line.

use crate::json::{self, Value};
use crate::metrics::{self, Clock};
use crate::workloads;

/// Prefix of the line that carries a child's whole [`Report`] to the parent.
pub const LEDGER_LINE: &str = "#ledger ";

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name.
    pub name: String,
    /// The value (a median for host timings).
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// `host` or `sim`.
    pub clock: String,
    /// Samples behind the value.
    pub n: u64,
    /// Smallest sample (= value when n is 1 or the reading is exact).
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Reading {
    /// A reading with one sample.
    pub fn single(name: &str, value: f64, unit: &str, clock: Clock, n: u64) -> Self {
        Reading {
            name: name.into(),
            value,
            unit: unit.into(),
            clock: clock.label().into(),
            n,
            min: value,
            max: value,
        }
    }

    /// The median of `samples` with their range.
    pub fn median_of(name: &str, samples: &[f64], unit: &str, clock: Clock) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Reading {
            name: name.into(),
            value: median_sorted(&s),
            unit: unit.into(),
            clock: clock.label().into(),
            n: s.len() as u64,
            min: s.first().copied().unwrap_or(0.0),
            max: s.last().copied().unwrap_or(0.0),
        }
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

/// The report of one workload's run (untraced: end-to-end metrics;
/// traced: per-layer metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Traced run?
    pub traced: bool,
    /// Timed iterations.
    pub iterations: u64,
    /// Units of work one iteration completes (the workload's stated unit).
    pub units: u64,
    /// `ops_attempted` of one iteration.
    pub attempted: u64,
    /// `ops_failed` of one iteration.
    pub failed: u64,
    /// Output checks: `(what, held)`.
    pub checks: Vec<(String, bool)>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// The metrics.
    pub readings: Vec<Reading>,
}

impl Report {
    /// Every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Look a reading up.
    pub fn reading(&self, name: &str) -> Option<&Reading> {
        self.readings.iter().find(|r| r.name == name)
    }

    /// The human-readable block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} · seed {} · {} · {} timed iteration(s)\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced run (per-layer metrics)"
            } else {
                "untraced run (end-to-end metrics)"
            },
            self.iterations
        );
        for r in &self.readings {
            let range = if r.n > 1 && r.clock == "host" {
                format!("  min {} max {}", fmt(r.min), fmt(r.max))
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<40} {:>16} {:<7} {:<4} n={}{}\n",
                r.name,
                fmt(r.value),
                r.unit,
                r.clock,
                r.n,
                range
            ));
        }
        out.push_str(&format!(
            "  units={} ({}) ops_attempted={} ops_failed={}\n",
            self.units,
            workloads::find(&self.workload).map_or("unit of work", |w| w.unit),
            self.attempted,
            self.failed
        ));
        for (what, ok) in &self.checks {
            out.push_str(&format!(
                "  check {:<4} {what}\n",
                if *ok { "ok" } else { "FAIL" }
            ));
        }
        out.push_str(&format!("  sim digest {:016x}\n", self.digest));
        out
    }

    /// One JSON line carrying the whole report (child → parent).
    pub fn to_json(&self) -> String {
        let readings: Vec<String> = self
            .readings
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"clock\": {}, \"n\": {}, \"min\": {}, \"max\": {}}}",
                    json::quote(&r.name),
                    num(r.value),
                    json::quote(&r.unit),
                    json::quote(&r.clock),
                    r.n,
                    num(r.min),
                    num(r.max)
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(w, ok)| format!("[{}, {ok}]", json::quote(w)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"iterations\": {}, \"units\": {}, \
             \"attempted\": {}, \"failed\": {}, \"digest\": {}, \"checks\": [{}], \"readings\": [{}]}}",
            json::quote(&self.workload),
            json::quote(&self.seed.to_string()),
            self.traced,
            self.iterations,
            self.units,
            self.attempted,
            self.failed,
            json::quote(&format!("{:016x}", self.digest)),
            checks.join(", "),
            readings.join(", ")
        )
    }

    /// Parse a line written by [`Report::to_json`].
    pub fn from_json(line: &str) -> Result<Report, String> {
        let v = json::parse(line)?;
        let str_of = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("missing {k}"))
        };
        let u64_of = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .map(|n| n as u64)
                .ok_or(format!("missing {k}"))
        };
        let mut readings = Vec::new();
        for r in v
            .get("readings")
            .and_then(Value::as_arr)
            .ok_or("missing readings")?
        {
            let s = |k: &str| {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("reading without {k}"))
            };
            // `null` is how a non-finite reading travels (see `num`).
            let n = |k: &str| match r.get(k) {
                Some(Value::Null) => Ok(f64::NAN),
                v => v
                    .and_then(Value::as_f64)
                    .ok_or(format!("reading without {k}")),
            };
            readings.push(Reading {
                name: s("name")?,
                value: n("value")?,
                unit: s("unit")?,
                clock: s("clock")?,
                n: n("n")? as u64,
                min: n("min")?,
                max: n("max")?,
            });
        }
        let mut checks = Vec::new();
        for c in v
            .get("checks")
            .and_then(Value::as_arr)
            .ok_or("missing checks")?
        {
            let pair = c.as_arr().ok_or("check is not a pair")?;
            checks.push((
                pair.first()
                    .and_then(Value::as_str)
                    .ok_or("check without name")?
                    .to_string(),
                pair.get(1)
                    .and_then(Value::as_bool)
                    .ok_or("check without verdict")?,
            ));
        }
        Ok(Report {
            workload: str_of("workload")?,
            // 64-bit values travel as strings: a JSON number is an f64.
            seed: str_of("seed")?.parse().map_err(|e| format!("seed: {e}"))?,
            traced: v
                .get("traced")
                .and_then(Value::as_bool)
                .ok_or("missing traced")?,
            iterations: u64_of("iterations")?,
            units: u64_of("units")?,
            attempted: u64_of("attempted")?,
            failed: u64_of("failed")?,
            digest: u64::from_str_radix(&str_of("digest")?, 16)
                .map_err(|e| format!("digest: {e}"))?,
            checks,
            readings,
        })
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; the metrics are the `BENCHMARK.json` set for
    /// this kind of run (end-to-end metrics that exist on every workload
    /// when untraced, every per-layer metric when traced).
    pub fn contract_line(&self) -> String {
        let wanted: Vec<&str> = if self.traced {
            metrics::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            metrics::END_TO_END
                .iter()
                .filter(|m| m.on_every_workload())
                .map(|m| m.name)
                .collect()
        };
        let body: Vec<String> = wanted
            .iter()
            .filter_map(|name| self.reading(name))
            .map(|r| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&r.name),
                    num(r.value),
                    json::quote(&r.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Non-zero when any report carries a failed check.
pub fn exit_code(reports: &[Report]) -> u8 {
    u8::from(reports.iter().any(|r| !r.correct()))
}

/// A float as JSON: every digit. JSON has no `NaN`/`inf`; such a reading
/// travels as `null` and no reader takes it for a number (the run that
/// produced it has already failed its "every reading is finite" check).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A float for people: enough digits to compare, no noise.
pub fn fmt(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ok: bool) -> Report {
        Report {
            workload: "metro_burst".into(),
            seed: u64::MAX - 3,
            traced: false,
            iterations: 3,
            units: 80_000,
            attempted: 80_000,
            failed: 0,
            checks: vec![("every group prefix-consistent".into(), ok)],
            digest: 0xdead_beef_0123_4567,
            readings: vec![
                Reading::median_of("wall_s", &[4.5, 4.25, 4.75], "s", Clock::Host),
                Reading::single("setup_s", 0.0049, "s", Clock::Host, 3),
                Reading::single("sim_drain_ms", 85.000002, "ms", Clock::Sim, 1),
            ],
        }
    }

    #[test]
    fn report_survives_the_child_to_parent_line() {
        let r = sample(true);
        assert_eq!(Report::from_json(&r.to_json()).unwrap(), r);
        assert_eq!(r.reading("wall_s").unwrap().value, 4.5);
        assert_eq!(r.reading("wall_s").unwrap().min, 4.25);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_only_universal_metrics() {
        let line = sample(false).contract_line();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        let m = v.get("metrics").unwrap();
        assert!(m.get("wall_s").is_some() && m.get("setup_s").is_some());
        assert!(
            m.get("sim_drain_ms").is_none(),
            "metro-only metric stays out of the contract line"
        );
    }
}
