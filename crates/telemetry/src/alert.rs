//! The deterministic SLO/alerting engine: declarative rules evaluated in
//! sim-time over the metrics registry.
//!
//! A rule ([`AlertRule`]) names a signal — a time series, counter or
//! gauge in the [`MetricsRegistry`] — and a
//! breach condition ([`RuleKind`]): instantaneous threshold, sustained
//! threshold, rate-of-change over a trailing window, or
//! absence-of-samples. Rules are grouped into an [`AlertProfile`] with
//! an evaluation interval; the kernel drives
//! [`AlertEngine::evaluate`] from a `ControlOp::SloTick` event (exactly
//! like the recovery supervisor's tick), so every evaluation happens at
//! a deterministic sim-time and the set of fired incidents is
//! byte-identical at any harness thread count.
//!
//! A rule that crosses into breach opens an [`Incident`](crate::Incident)
//! carrying its root-cause bundle (breaching window, trace tail, open
//! fault windows, supervisor stage); the incident stays open — and keeps
//! accumulating fault windows it observes — until the rule stops
//! breaching. Rules hold no wall-clock or random state, so the engine is
//! a pure function of the simulated history.

use std::collections::VecDeque;

use tsuru_sim::{SimDuration, SimTime};

use crate::incident::IncidentLog;
use crate::registry::MetricsRegistry;
use crate::tracer::Tracer;

/// How many trailing observations an incident's breaching window keeps.
const WINDOW_LEN: usize = 16;

/// How many trailing trace records an incident captures (the same width
/// the chaos auditor attaches to invariant violations).
const TRACE_WINDOW: usize = 8;

/// What an [`AlertRule`] watches in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// A time series (last observed value; sample times drive
    /// [`RuleKind::Absence`]).
    Series(&'static str),
    /// A monotonic counter (read as `f64`).
    Counter(&'static str),
    /// A gauge.
    Gauge(&'static str),
}

impl Signal {
    /// The metric name this signal reads.
    pub fn name(&self) -> &'static str {
        match self {
            Signal::Series(n) | Signal::Counter(n) | Signal::Gauge(n) => n,
        }
    }
}

/// Breach condition of one [`AlertRule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleKind {
    /// Fires while the signal's current value exceeds `above`.
    Threshold {
        /// Breach bound (exclusive).
        above: f64,
    },
    /// Fires once the signal has exceeded `above` at every evaluation
    /// tick for at least `for_duration`.
    Sustained {
        /// Breach bound (exclusive).
        above: f64,
        /// How long the breach must persist before firing.
        for_duration: SimDuration,
    },
    /// Fires while the signal's growth rate over the trailing `window`
    /// of observations exceeds `per_sec` units per second.
    RateOfChange {
        /// Breach rate (exclusive), in signal units per second.
        per_sec: f64,
        /// Trailing window the rate is computed over.
        window: SimDuration,
    },
    /// Fires once the series has received no new sample for at least
    /// `for_duration` (measured from the later of the last sample and
    /// the engine arming time). Only meaningful for
    /// [`Signal::Series`].
    Absence {
        /// Maximum tolerated silence.
        for_duration: SimDuration,
    },
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (appears in incidents and reports).
    pub name: &'static str,
    /// What the rule watches.
    pub signal: Signal,
    /// When the rule breaches.
    pub kind: RuleKind,
}

/// A named set of rules plus the evaluation cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertProfile {
    /// Profile name (tight / default / lenient).
    pub name: &'static str,
    /// How often the kernel evaluates the rules.
    pub eval_interval: SimDuration,
    /// The rules, evaluated in order every tick.
    pub rules: Vec<AlertRule>,
}

/// Build the shared rule set with profile-specific knobs.
fn rules(
    lag_above: f64,
    lag_hold: SimDuration,
    silence: SimDuration,
    stall_per_sec: f64,
    rate_window: SimDuration,
    degraded_hold: SimDuration,
) -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "rpo-lag-sustained",
            signal: Signal::Series(crate::names::HEALTH_RPO_LAG),
            kind: RuleKind::Sustained {
                above: lag_above,
                for_duration: lag_hold,
            },
        },
        AlertRule {
            name: "replication-silence",
            signal: Signal::Series(crate::names::RPO_LAG),
            kind: RuleKind::Absence {
                for_duration: silence,
            },
        },
        AlertRule {
            name: "journal-stall-rate",
            signal: Signal::Counter(crate::names::JOURNAL_STALL_RETRIES),
            kind: RuleKind::RateOfChange {
                per_sec: stall_per_sec,
                window: rate_window,
            },
        },
        AlertRule {
            name: "journal-overflow-rate",
            signal: Signal::Counter(crate::names::JOURNAL_OVERFLOW),
            kind: RuleKind::RateOfChange {
                per_sec: stall_per_sec,
                window: rate_window,
            },
        },
        AlertRule {
            name: "link-down",
            signal: Signal::Series(crate::names::HEALTH_LINKS_DOWN),
            kind: RuleKind::Threshold { above: 0.0 },
        },
        AlertRule {
            name: "array-failed",
            signal: Signal::Series(crate::names::HEALTH_ARRAYS_FAILED),
            kind: RuleKind::Threshold { above: 0.0 },
        },
        AlertRule {
            name: "group-degraded",
            signal: Signal::Series(crate::names::HEALTH_GROUPS_DEGRADED),
            kind: RuleKind::Sustained {
                above: 0.0,
                for_duration: degraded_hold,
            },
        },
    ]
}

impl AlertProfile {
    /// Aggressive knobs: fastest time-to-detect, most false positives.
    pub fn tight() -> Self {
        AlertProfile {
            name: "tight",
            eval_interval: SimDuration::from_micros(500),
            rules: rules(
                4.0,
                SimDuration::from_millis(2),
                SimDuration::from_millis(4),
                200.0,
                SimDuration::from_millis(4),
                SimDuration::from_millis(1),
            ),
        }
    }

    /// The balanced production profile E11 scores for recall.
    pub fn default_profile() -> Self {
        AlertProfile {
            name: "default",
            eval_interval: SimDuration::from_millis(1),
            rules: rules(
                8.0,
                SimDuration::from_millis(4),
                SimDuration::from_millis(8),
                500.0,
                SimDuration::from_millis(6),
                SimDuration::from_millis(3),
            ),
        }
    }

    /// Conservative knobs: slowest time-to-detect, fewest spurious
    /// incidents.
    pub fn lenient() -> Self {
        AlertProfile {
            name: "lenient",
            eval_interval: SimDuration::from_millis(2),
            rules: rules(
                16.0,
                SimDuration::from_millis(8),
                SimDuration::from_millis(16),
                1500.0,
                SimDuration::from_millis(10),
                SimDuration::from_millis(8),
            ),
        }
    }

    /// The three profiles E11 sweeps, tightest first.
    pub fn all() -> Vec<AlertProfile> {
        vec![
            AlertProfile::tight(),
            AlertProfile::default_profile(),
            AlertProfile::lenient(),
        ]
    }
}

/// Per-rule evaluation state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    /// First tick of the current uninterrupted breach (Sustained).
    breach_since: Option<SimTime>,
    /// Index of the open incident in the log, if firing.
    open: Option<usize>,
    /// Trailing (tick, value) observations (RateOfChange and the
    /// breaching window for counter/gauge signals).
    recent: VecDeque<(SimTime, f64)>,
}

/// The rule evaluator. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct AlertEngine {
    profile: AlertProfile,
    states: Vec<RuleState>,
    log: IncidentLog,
    armed_at: SimTime,
    evals: u64,
}

impl AlertEngine {
    /// An engine armed at `now` with `profile`.
    pub fn new(profile: AlertProfile, now: SimTime) -> Self {
        let states = vec![RuleState::default(); profile.rules.len()];
        AlertEngine {
            profile,
            states,
            log: IncidentLog::new(),
            armed_at: now,
            evals: 0,
        }
    }

    /// The armed profile.
    pub fn profile(&self) -> &AlertProfile {
        &self.profile
    }

    /// Number of evaluation ticks run so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The incident log (read-only).
    pub fn log(&self) -> &IncidentLog {
        &self.log
    }

    /// Consume the engine, yielding the incident log.
    pub fn into_log(self) -> IncidentLog {
        self.log
    }

    /// Names of the rules currently firing, in rule order.
    pub fn firing_rules(&self) -> Vec<&'static str> {
        self.profile
            .rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.open.is_some())
            .map(|(r, _)| r.name)
            .collect()
    }

    /// True while at least one rule is firing.
    pub fn any_firing(&self) -> bool {
        self.states.iter().any(|s| s.open.is_some())
    }

    /// Evaluate every rule at sim-time `now`. `supervisor` is the
    /// caller's one-line supervisor stage summary, captured into any
    /// incident opened this tick.
    pub fn evaluate(
        &mut self,
        now: SimTime,
        metrics: &MetricsRegistry,
        tracer: &Tracer,
        supervisor: &str,
    ) {
        self.evals += 1;
        let armed_at = self.armed_at;
        for (idx, rule) in self.profile.rules.iter().enumerate() {
            let state = self
                .states
                .get_mut(idx)
                .expect("invariant: states is sized one per rule at construction");

            // Observe the signal's current value at this tick.
            let value = match rule.signal {
                Signal::Series(name) => metrics
                    .series(name)
                    .and_then(|s| s.points().last().map(|&(_, v)| v))
                    .unwrap_or(0.0),
                Signal::Counter(name) => metrics.counter(name) as f64,
                Signal::Gauge(name) => metrics.gauge(name).unwrap_or(0.0),
            };
            state.recent.push_back((now, value));

            // Trim the observation window: RateOfChange needs its full
            // time window, everything else only the incident evidence.
            match rule.kind {
                RuleKind::RateOfChange { window, .. } => {
                    let cutoff = now.as_nanos().saturating_sub(window.as_nanos());
                    while state.recent.len() > 2
                        && state
                            .recent
                            .front()
                            .is_some_and(|&(t, _)| t.as_nanos() < cutoff)
                    {
                        state.recent.pop_front();
                    }
                }
                _ => {
                    while state.recent.len() > WINDOW_LEN {
                        state.recent.pop_front();
                    }
                }
            }

            // Decide breach and the value that evidences it.
            let (breaching, evidence) = match rule.kind {
                RuleKind::Threshold { above } => (value > above, value),
                RuleKind::Sustained {
                    above,
                    for_duration,
                } => {
                    if value > above {
                        let since = *state.breach_since.get_or_insert(now);
                        (now.saturating_since(since) >= for_duration, value)
                    } else {
                        state.breach_since = None;
                        (false, value)
                    }
                }
                RuleKind::RateOfChange { per_sec, .. } => {
                    let rate = match (state.recent.front(), state.recent.back()) {
                        (Some(&(t0, v0)), Some(&(t1, v1))) if t1 > t0 => {
                            (v1 - v0) / t1.saturating_since(t0).as_secs_f64()
                        }
                        _ => 0.0,
                    };
                    (rate > per_sec, rate)
                }
                RuleKind::Absence { for_duration } => {
                    let last_sample = metrics
                        .series(rule.signal.name())
                        .and_then(|s| s.points().last().map(|&(t, _)| t))
                        .unwrap_or(armed_at)
                        .max(armed_at);
                    let silence = now.saturating_since(last_sample);
                    (silence >= for_duration, silence.as_secs_f64() * 1e3)
                }
            };

            match (breaching, state.open) {
                (true, None) => {
                    // Crossing into breach: open the incident with its
                    // evidence bundle.
                    let window = match rule.signal {
                        Signal::Series(name) => metrics
                            .series(name)
                            .map(|s| {
                                let pts = s.points();
                                let skip = pts.len().saturating_sub(WINDOW_LEN);
                                pts.iter().skip(skip).copied().collect()
                            })
                            .unwrap_or_default(),
                        _ => state.recent.iter().copied().collect(),
                    };
                    let idx = self.log.open(
                        rule.name,
                        rule.signal.name(),
                        now,
                        evidence,
                        window,
                        tracer.tail(TRACE_WINDOW),
                        supervisor.to_string(),
                    );
                    let inc = self.log.incident_mut(idx);
                    inc.observe_faults(now, &tracer.open_faults());
                    state.open = Some(idx);
                }
                (true, Some(idx)) => {
                    // Still breaching: keep accumulating fault windows.
                    self.log
                        .incident_mut(idx)
                        .observe_faults(now, &tracer.open_faults());
                }
                (false, Some(idx)) => {
                    self.log.incident_mut(idx).resolved_at = Some(now);
                    state.open = None;
                }
                (false, None) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::SpanId;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Drive `engine` over `samples` applied to a fresh registry series,
    /// evaluating after each sample.
    fn run_series(engine: &mut AlertEngine, name: &'static str, samples: &[(u64, f64)]) -> usize {
        let mut m = MetricsRegistry::new();
        m.enable_sampling();
        let tracer = Tracer::disabled();
        for &(us, v) in samples {
            m.sample(name, at(us), v);
            engine.evaluate(at(us), &m, &tracer, "off");
        }
        engine.log().len()
    }

    fn one_rule(rule: AlertRule) -> AlertEngine {
        AlertEngine::new(
            AlertProfile {
                name: "test",
                eval_interval: SimDuration::from_micros(100),
                rules: vec![rule],
            },
            SimTime::ZERO,
        )
    }

    #[test]
    fn threshold_fires_and_resolves() {
        let mut e = one_rule(AlertRule {
            name: "t",
            signal: Signal::Series("s"),
            kind: RuleKind::Threshold { above: 5.0 },
        });
        let n = run_series(
            &mut e,
            "s",
            &[(100, 1.0), (200, 6.0), (300, 6.5), (400, 2.0)],
        );
        assert_eq!(n, 1);
        let inc = &e.log().incidents()[0];
        assert_eq!(inc.opened_at, at(200));
        assert_eq!(inc.resolved_at, Some(at(400)));
        assert_eq!(inc.value_at_open, 6.0);
        assert_eq!(inc.window, vec![(at(100), 1.0), (at(200), 6.0)]);
    }

    #[test]
    fn threshold_does_not_reopen_while_breaching() {
        let mut e = one_rule(AlertRule {
            name: "t",
            signal: Signal::Series("s"),
            kind: RuleKind::Threshold { above: 5.0 },
        });
        let n = run_series(&mut e, "s", &[(100, 9.0), (200, 9.0), (300, 9.0)]);
        assert_eq!(n, 1);
        assert!(e.log().incidents()[0].is_open());
        assert_eq!(e.firing_rules(), vec!["t"]);
        assert!(e.any_firing());
    }

    #[test]
    fn sustained_holds_until_duration() {
        let mut e = one_rule(AlertRule {
            name: "s",
            signal: Signal::Series("s"),
            kind: RuleKind::Sustained {
                above: 5.0,
                for_duration: SimDuration::from_micros(300),
            },
        });
        // Breach at 100..200 is interrupted at 300 — no incident.
        // Breach from 400 fires once it has held 300µs (at 700).
        let n = run_series(
            &mut e,
            "s",
            &[
                (100, 6.0),
                (200, 6.0),
                (300, 1.0),
                (400, 7.0),
                (500, 7.0),
                (600, 7.0),
                (700, 7.0),
            ],
        );
        assert_eq!(n, 1);
        assert_eq!(e.log().incidents()[0].opened_at, at(700));
    }

    #[test]
    fn rate_of_change_fires_on_counter_slope() {
        let mut e = one_rule(AlertRule {
            name: "r",
            signal: Signal::Counter("c"),
            kind: RuleKind::RateOfChange {
                per_sec: 1000.0,
                window: SimDuration::from_millis(1),
            },
        });
        let mut m = MetricsRegistry::new();
        let tracer = Tracer::disabled();
        // +1 per 100µs = 10_000/s ≫ 1000/s once two samples exist.
        for i in 0..5u64 {
            m.add("c", 1);
            e.evaluate(at(100 + i * 100), &m, &tracer, "off");
        }
        assert_eq!(e.log().len(), 1);
        assert_eq!(e.log().incidents()[0].opened_at, at(200));
        // Counter flattens out: rate decays below the bound and the
        // incident resolves.
        for i in 5..30u64 {
            e.evaluate(at(100 + i * 100), &m, &tracer, "off");
        }
        assert!(!e.log().incidents()[0].is_open());
    }

    #[test]
    fn absence_fires_on_silence_and_resolves_on_sample() {
        let mut e = one_rule(AlertRule {
            name: "a",
            signal: Signal::Series("s"),
            kind: RuleKind::Absence {
                for_duration: SimDuration::from_micros(250),
            },
        });
        let mut m = MetricsRegistry::new();
        m.enable_sampling();
        let tracer = Tracer::disabled();
        m.sample("s", at(100), 1.0);
        for us in [150u64, 250, 350, 400] {
            e.evaluate(at(us), &m, &tracer, "off");
        }
        // Silence since 100 reaches 250µs at t=350.
        assert_eq!(e.log().len(), 1);
        assert_eq!(e.log().incidents()[0].opened_at, at(350));
        m.sample("s", at(450), 2.0);
        e.evaluate(at(500), &m, &tracer, "off");
        assert_eq!(e.log().incidents()[0].resolved_at, Some(at(500)));
    }

    #[test]
    fn absence_measures_from_arming_when_series_is_empty() {
        let mut e = AlertEngine::new(
            AlertProfile {
                name: "test",
                eval_interval: SimDuration::from_micros(100),
                rules: vec![AlertRule {
                    name: "a",
                    signal: Signal::Series("never"),
                    kind: RuleKind::Absence {
                        for_duration: SimDuration::from_micros(300),
                    },
                }],
            },
            at(1_000),
        );
        let m = MetricsRegistry::new();
        let tracer = Tracer::disabled();
        e.evaluate(at(1_100), &m, &tracer, "off");
        assert!(e.log().is_empty());
        e.evaluate(at(1_300), &m, &tracer, "off");
        assert_eq!(e.log().len(), 1);
    }

    #[test]
    fn incidents_accumulate_open_faults() {
        let mut e = one_rule(AlertRule {
            name: "t",
            signal: Signal::Gauge("g"),
            kind: RuleKind::Threshold { above: 0.0 },
        });
        let mut m = MetricsRegistry::new();
        let tracer = Tracer::enabled();
        let f1 = tracer.span_start("fault", at(50), SpanId::NONE, || {
            vec![("kind", "link-partition".into())]
        });
        tracer.push_fault(f1);
        m.set_gauge("g", 1.0);
        e.evaluate(at(100), &m, &tracer, "g0=down");
        let f2 = tracer.span_start("fault", at(150), SpanId::NONE, || {
            vec![("kind", "journal-squeeze".into())]
        });
        tracer.push_fault(f2);
        e.evaluate(at(200), &m, &tracer, "g0=down");
        let inc = &e.log().incidents()[0];
        assert_eq!(inc.supervisor, "g0=down");
        let kinds: Vec<&str> = inc.faults.iter().map(|f| f.kind.as_str()).collect();
        assert_eq!(kinds, vec!["link-partition", "journal-squeeze"]);
        assert_eq!(inc.faults[0].first_seen, at(100));
        assert_eq!(inc.faults[1].first_seen, at(200));
    }

    #[test]
    fn profiles_are_well_formed() {
        for p in AlertProfile::all() {
            assert!(!p.rules.is_empty());
            assert!(!p.eval_interval.is_zero());
        }
        assert_eq!(AlertProfile::default_profile().name, "default");
    }
}
