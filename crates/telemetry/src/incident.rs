//! Incident objects: the root-cause bundle an alert rule opens when it
//! fires.
//!
//! An [`Incident`] is the operator-facing artifact of the SLO engine
//! (see [`crate::alert`]): besides *which* rule fired *when*, it carries
//! its own evidence — the breaching sample window, the trailing trace
//! window (the same machinery the chaos auditor attaches to invariant
//! violations), every fault window that was open while the incident was,
//! and the supervisor stage at open. The [`IncidentLog`] collects a
//! run's incidents in open order and exports them via the hand-built
//! JSONL path, so the bytes are a pure function of the simulated
//! history.

use tsuru_sim::SimTime;

use crate::tracer::SpanId;

/// One fault window observed while an incident was open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRef {
    /// The `fault` span id (the injector's window).
    pub span: SpanId,
    /// The `kind` attribute the fault span was opened with.
    pub kind: String,
    /// First evaluation tick at which this incident saw the fault open.
    pub first_seen: SimTime,
}

/// One fired alert and its root-cause evidence bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Incident id, dense in open order starting at 1.
    pub id: u64,
    /// Name of the rule that fired.
    pub rule: &'static str,
    /// Name of the signal the rule watches.
    pub signal: &'static str,
    /// When the rule fired.
    pub opened_at: SimTime,
    /// When the rule stopped breaching, if it did before the run ended.
    pub resolved_at: Option<SimTime>,
    /// The signal value that tripped the rule.
    pub value_at_open: f64,
    /// Breaching sample window: the trailing observations of the signal
    /// at open time.
    pub window: Vec<(SimTime, f64)>,
    /// Trailing trace window at open time (rendered records).
    pub trace: Vec<String>,
    /// Every fault window open at any evaluation tick while this
    /// incident was open, in first-seen order.
    pub faults: Vec<FaultRef>,
    /// Supervisor stage summary at open time.
    pub supervisor: String,
}

impl Incident {
    /// Merge the currently-open fault windows into this incident's fault
    /// list; windows not seen before are stamped `first_seen = now`.
    pub fn observe_faults(&mut self, now: SimTime, open: &[(SpanId, String)]) {
        for (span, kind) in open {
            if !self.faults.iter().any(|f| f.span == *span) {
                self.faults.push(FaultRef {
                    span: *span,
                    kind: kind.clone(),
                    first_seen: now,
                });
            }
        }
    }

    /// True while the rule is still breaching.
    pub fn is_open(&self) -> bool {
        self.resolved_at.is_none()
    }
}

/// A run's incidents, in open order. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct IncidentLog {
    incidents: Vec<Incident>,
}

impl IncidentLog {
    /// An empty log.
    pub fn new() -> Self {
        IncidentLog::default()
    }

    /// Open a new incident and return its index into
    /// [`IncidentLog::incidents`]. The id is allocated densely.
    #[allow(
        clippy::too_many_arguments,
        reason = "an incident is opened with every field it reports; a struct for one call site would only rename them"
    )]
    pub fn open(
        &mut self,
        rule: &'static str,
        signal: &'static str,
        opened_at: SimTime,
        value_at_open: f64,
        window: Vec<(SimTime, f64)>,
        trace: Vec<String>,
        supervisor: String,
    ) -> usize {
        self.incidents.push(Incident {
            id: self.incidents.len() as u64 + 1,
            rule,
            signal,
            opened_at,
            resolved_at: None,
            value_at_open,
            window,
            trace,
            faults: Vec::new(),
            supervisor,
        });
        self.incidents.len() - 1
    }

    /// All incidents, open order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Mutable access to incident `idx` (for fault observation and
    /// resolution by the engine).
    pub fn incident_mut(&mut self, idx: usize) -> &mut Incident {
        self.incidents
            .get_mut(idx)
            .expect("invariant: incident indices come from open() and are never removed")
    }

    /// Number of incidents opened so far.
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// True when no incident was ever opened.
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Number of incidents still open.
    pub fn open_count(&self) -> usize {
        self.incidents.iter().filter(|i| i.is_open()).count()
    }

    /// Export the log as JSON Lines, one incident per line, open order.
    /// Values render through integer fixed-point math (3 decimals) so
    /// the bytes never depend on float formatting.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for inc in &self.incidents {
            out.push_str(&format!(
                "{{\"incident\":{},\"rule\":\"{}\",\"signal\":\"{}\",\"opened_ns\":{}",
                inc.id,
                inc.rule,
                inc.signal,
                inc.opened_at.as_nanos()
            ));
            match inc.resolved_at {
                Some(t) => out.push_str(&format!(",\"resolved_ns\":{}", t.as_nanos())),
                None => out.push_str(",\"resolved_ns\":null"),
            }
            out.push_str(&format!(",\"value\":{}", fmt_fixed(inc.value_at_open)));
            out.push_str(",\"window\":[");
            for (i, (t, v)) in inc.window.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", t.as_nanos(), fmt_fixed(*v)));
            }
            out.push_str("],\"faults\":[");
            for (i, f) in inc.faults.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"span\":{},\"kind\":\"", f.span.0));
                crate::export::escape_json(&f.kind, &mut out);
                out.push_str(&format!("\",\"seen_ns\":{}}}", f.first_seen.as_nanos()));
            }
            out.push_str("],\"supervisor\":\"");
            crate::export::escape_json(&inc.supervisor, &mut out);
            out.push_str("\",\"trace\":[");
            for (i, line) in inc.trace.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                crate::export::escape_json(line, &mut out);
                out.push('"');
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// Render `v` with exactly three decimals via integer math, so export
/// bytes never depend on float formatting.
pub(crate) fn fmt_fixed(v: f64) -> String {
    let neg = v < 0.0;
    let milli = (v.abs() * 1000.0).round() as u64;
    format!(
        "{}{}.{:03}",
        if neg && milli > 0 { "-" } else { "" },
        milli / 1000,
        milli % 1000
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn fixed_point_rendering() {
        assert_eq!(fmt_fixed(0.0), "0.000");
        assert_eq!(fmt_fixed(7.0), "7.000");
        assert_eq!(fmt_fixed(1.2345), "1.235");
        assert_eq!(fmt_fixed(1.2341), "1.234");
        assert_eq!(fmt_fixed(-2.5), "-2.500");
        assert_eq!(fmt_fixed(-0.0001), "0.000");
    }

    #[test]
    fn observe_faults_dedups_by_span() {
        let mut log = IncidentLog::new();
        let idx = log.open("r", "s", at(10), 5.0, Vec::new(), Vec::new(), "off".into());
        let inc = log.incident_mut(idx);
        inc.observe_faults(at(10), &[(SpanId(3), "link-partition".into())]);
        inc.observe_faults(
            at(12),
            &[
                (SpanId(3), "link-partition".into()),
                (SpanId(9), "journal-squeeze".into()),
            ],
        );
        assert_eq!(inc.faults.len(), 2);
        assert_eq!(inc.faults[0].first_seen, at(10));
        assert_eq!(inc.faults[1].first_seen, at(12));
        assert_eq!(inc.faults[1].kind, "journal-squeeze");
    }

    #[test]
    fn jsonl_is_stable() {
        let mut log = IncidentLog::new();
        let idx = log.open(
            "rpo-lag-sustained",
            "health.rpo_lag",
            at(40),
            12.0,
            vec![(at(30), 9.0), (at(35), 11.5)],
            vec!["#1 start fault t=0.000030s kind=link-partition".into()],
            "g0=recovering".into(),
        );
        {
            let inc = log.incident_mut(idx);
            inc.observe_faults(at(40), &[(SpanId(1), "link-partition".into())]);
            inc.resolved_at = Some(at(90));
        }
        let expect = concat!(
            "{\"incident\":1,\"rule\":\"rpo-lag-sustained\",\"signal\":\"health.rpo_lag\",",
            "\"opened_ns\":40000,\"resolved_ns\":90000,\"value\":12.000,",
            "\"window\":[[30000,9.000],[35000,11.500]],",
            "\"faults\":[{\"span\":1,\"kind\":\"link-partition\",\"seen_ns\":40000}],",
            "\"supervisor\":\"g0=recovering\",",
            "\"trace\":[\"#1 start fault t=0.000030s kind=link-partition\"]}\n",
        );
        assert_eq!(log.export_jsonl(), expect);
        assert_eq!(log.open_count(), 0);
        assert_eq!(log.len(), 1);
    }
}
