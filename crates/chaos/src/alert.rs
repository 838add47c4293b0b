//! Ground-truth scoring of SLO incidents against the injected fault plan.
//!
//! An alert trial arms the telemetry [`AlertEngine`](tsuru_storage::AlertEngine)
//! on the rig, so every incident it opens carries the fault windows the
//! tracer had in flight (the injector stamps each injected fault with a
//! `kind` attribute). The plan *is* the ground truth — the generator
//! schedules at most one event per kind — so matching is exact:
//!
//! - an incident that observed at least one injected fault window is a
//!   **true positive**; one that observed none fired with no fault in
//!   flight and is a **false positive**;
//! - a fault kind is **detected** when any incident observed its window;
//!   its **detection latency** is the earliest observation minus the
//!   injection instant;
//! - **recall** is detected kinds over injected kinds — the acceptance
//!   bar for the default profile on the core quartet is full recall.

use tsuru_storage::IncidentLog;

use crate::plan::FaultPlan;

/// One injected fault kind's detection verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindDetection {
    /// The fault kind's stable label (`link-partition`, …).
    pub kind: String,
    /// Did any incident observe this fault's window?
    pub detected: bool,
    /// Earliest observation minus the injection instant, in microseconds
    /// of sim-time. Zero when undetected.
    pub latency_us: u64,
}

/// Ground-truth verdict of one alert trial: the incident log scored
/// against the injected plan. Present only on trials that ran with an
/// alert profile armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertSummary {
    /// The armed rule profile's name (tight / default / lenient).
    pub profile: String,
    /// Rule-evaluation ticks the engine ran.
    pub evals: u64,
    /// Incidents opened over the trial.
    pub incidents: u64,
    /// Of those, still open at quiesce (breach never cleared).
    pub open_at_quiesce: u64,
    /// Incidents that observed at least one injected fault window.
    pub true_positives: u64,
    /// Incidents that observed no injected fault window.
    pub false_positives: u64,
    /// Per injected fault kind, in plan order: detected + latency.
    pub kinds: Vec<KindDetection>,
}

impl AlertSummary {
    /// Injected kinds observed by at least one incident.
    pub fn kinds_detected(&self) -> u64 {
        self.kinds.iter().filter(|k| k.detected).count() as u64
    }

    /// Every injected kind detected?
    pub fn full_recall(&self) -> bool {
        self.kinds.iter().all(|k| k.detected)
    }

    /// Slowest per-kind detection latency, µs (zero when nothing was
    /// detected).
    pub fn latency_max_us(&self) -> u64 {
        self.kinds.iter().map(|k| k.latency_us).max().unwrap_or(0)
    }
}

/// Score `log` against the injected `plan` (the scoring rules are the
/// module docs of `chaos/src/alert.rs`).
pub fn match_incidents(
    plan: &FaultPlan,
    log: &IncidentLog,
    profile: &str,
    evals: u64,
) -> AlertSummary {
    let mut true_positives = 0u64;
    let mut false_positives = 0u64;
    let mut open_at_quiesce = 0u64;
    for inc in log.incidents() {
        if inc.is_open() {
            open_at_quiesce += 1;
        }
        if inc.faults.is_empty() {
            false_positives += 1;
        } else {
            true_positives += 1;
        }
    }
    let kinds = plan
        .events
        .iter()
        .map(|ev| {
            let label = ev.kind.label();
            let first_seen = log
                .incidents()
                .iter()
                .flat_map(|inc| inc.faults.iter())
                .filter(|f| f.kind == label)
                .map(|f| f.first_seen)
                .min();
            match first_seen {
                Some(seen) => KindDetection {
                    kind: label.to_string(),
                    detected: true,
                    latency_us: seen.saturating_since(ev.at).as_micros(),
                },
                None => KindDetection {
                    kind: label.to_string(),
                    detected: false,
                    latency_us: 0,
                },
            }
        })
        .collect();
    AlertSummary {
        profile: profile.to_string(),
        evals,
        incidents: log.len() as u64,
        open_at_quiesce,
        true_positives,
        false_positives,
        kinds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_sim::{SimDuration, SimTime};
    use tsuru_storage::{FaultRef, SpanId};

    use crate::plan::{FaultEvent, FaultKind};

    fn quartetish_plan() -> FaultPlan {
        FaultPlan {
            horizon: SimTime::from_millis(150),
            events: vec![
                FaultEvent {
                    kind: FaultKind::LinkPartition,
                    at: SimTime::from_millis(30),
                    duration: SimDuration::from_millis(40),
                },
                FaultEvent {
                    kind: FaultKind::BackupArrayCrash,
                    at: SimTime::from_millis(40),
                    duration: SimDuration::from_millis(30),
                },
            ],
        }
    }

    #[test]
    fn matcher_scores_detection_latency_and_recall() {
        let plan = quartetish_plan();
        let mut log = IncidentLog::new();
        let i = log.open(
            "link-down",
            "health.links_down",
            SimTime::from_millis(31),
            1.0,
            vec![],
            vec![],
            "off".to_string(),
        );
        log.incident_mut(i).faults.push(FaultRef {
            span: SpanId(7),
            kind: "link-partition".to_string(),
            first_seen: SimTime::from_millis(31),
        });
        log.incident_mut(i).resolved_at = Some(SimTime::from_millis(75));
        let summary = match_incidents(&plan, &log, "default", 100);
        assert_eq!(summary.incidents, 1);
        assert_eq!(summary.true_positives, 1);
        assert_eq!(summary.false_positives, 0);
        assert_eq!(summary.open_at_quiesce, 0);
        assert_eq!(summary.kinds_detected(), 1);
        assert!(!summary.full_recall());
        let k = &summary.kinds[0];
        assert_eq!(k.kind, "link-partition");
        assert!(k.detected);
        assert_eq!(k.latency_us, 1_000);
        assert_eq!(summary.latency_max_us(), 1_000);
        assert!(!summary.kinds[1].detected);
    }

    #[test]
    fn faultless_incident_counts_as_false_positive() {
        let plan = quartetish_plan();
        let mut log = IncidentLog::new();
        log.open(
            "rpo-lag-sustained",
            "health.rpo_lag",
            SimTime::from_millis(5),
            9.0,
            vec![],
            vec![],
            "off".to_string(),
        );
        let summary = match_incidents(&plan, &log, "tight", 10);
        assert_eq!(summary.false_positives, 1);
        assert_eq!(summary.true_positives, 0);
        assert_eq!(summary.open_at_quiesce, 1);
        assert_eq!(summary.kinds_detected(), 0);
    }
}
