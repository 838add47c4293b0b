//! The FaultPlan DSL: typed fault events, composable and seed-generatable.

use tsuru_sim::{DetRng, SimDuration, SimTime};

/// The `DetRng::derive` stream id for fault-plan generation.
pub(crate) const PLAN_STREAM: u64 = 0xCA05;

/// What a [`FaultEvent`] injects. Every kind has a well-defined heal
/// action applied `duration` after its start (see the injector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Data-link outage with a scheduled end; senders observe
    /// `Down(Some(up))` and retry at the advertised instant (auto-heal).
    LinkFlap,
    /// Indefinite data-link partition; only the heal (`heal_link`: link up
    /// + pump kick) restores transfer — this is the parked-pump path.
    LinkPartition,
    /// Heavy jitter plus random frame loss on the data link; the heal
    /// restores the original link shape.
    JitterSpike,
    /// Data-link bandwidth brownout (÷50); transfer pumps back off via
    /// flow control until the heal restores bandwidth.
    PumpStall,
    /// Backup-site array crash. In-flight batches are dropped by the
    /// receive path, so the heal must recover the array and delta-resync
    /// every group (link up + `set_up` alone would leave sequence gaps).
    BackupArrayCrash,
    /// Main-site array crash: the business stops against a dead array.
    /// The heal recovers the array, restarts the application from the
    /// primary images (crash recovery of both databases), resyncs every
    /// group and resumes the client workload.
    MainArrayCrash,
    /// Primary journal capacity squeezed down to its current fill; with
    /// the `Block` journal-full policy, appends stall until drain. The
    /// heal restores the configured capacity.
    JournalSqueeze,
    /// The storage operator restarts: every group is suspended at the
    /// start (primary writes continue locally, dirty-tracked) and the
    /// heal resyncs each group back to `Active`.
    OperatorRestart,
    /// An atomic snapshot group of the backup replicas is taken in the
    /// middle of the fault window (no heal; the snapshots are audited for
    /// crash consistency at final quiesce). Skipped deterministically if
    /// the backup array is failed at that instant.
    SnapshotDuringFault,
}

impl FaultKind {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LinkFlap => "link-flap",
            FaultKind::LinkPartition => "link-partition",
            FaultKind::JitterSpike => "jitter-spike",
            FaultKind::PumpStall => "pump-stall",
            FaultKind::BackupArrayCrash => "backup-array-crash",
            FaultKind::MainArrayCrash => "main-array-crash",
            FaultKind::JournalSqueeze => "journal-squeeze",
            FaultKind::OperatorRestart => "operator-restart",
            FaultKind::SnapshotDuringFault => "snapshot-during-fault",
        }
    }
}

/// One scheduled fault: a kind, a start instant and a window length.
/// The heal runs at `at + duration` (instantaneous kinds use a zero
/// duration and have no heal action).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What to inject.
    pub kind: FaultKind,
    /// Fault start (simulated time).
    pub at: SimTime,
    /// Fault window; the heal runs at `at + duration`.
    pub duration: SimDuration,
}

impl FaultEvent {
    /// The heal instant.
    pub fn heal_at(&self) -> SimTime {
        self.at + self.duration
    }
}

/// A complete chaos schedule for one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Workload/injection horizon; after the last heal the workload is
    /// stopped and the system runs to full quiescence.
    pub horizon: SimTime,
    /// Fault events, sorted by `(at, kind, duration)`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The common instant the generator forces the core fault quartet to
    /// overlap at (see [`FaultPlan::random`]).
    pub const OVERLAP_AT: SimTime = SimTime::from_millis(60);

    /// Generate a seeded random plan over `horizon` (use the trial seed;
    /// the generator derives stream `0xCA05`).
    ///
    /// Construction guarantees the acceptance shape: the core quartet —
    /// link partition, jitter spike, backup-array crash, journal squeeze —
    /// is always present with windows that all span [`Self::OVERLAP_AT`],
    /// so at least four distinct fault kinds are concurrently in flight.
    /// One to three extra faults (flap, pump stall, operator restart,
    /// snapshot-during-fault, main-array crash) land anywhere in the
    /// horizon.
    pub fn random(seed: u64, horizon: SimTime) -> FaultPlan {
        assert!(
            horizon >= SimTime::from_millis(120),
            "horizon too short for the core overlap window"
        );
        let mut rng = DetRng::new(seed).derive(PLAN_STREAM);
        let mut events = Vec::new();
        let core = [
            FaultKind::LinkPartition,
            FaultKind::JitterSpike,
            FaultKind::BackupArrayCrash,
            FaultKind::JournalSqueeze,
        ];
        let overlap_us = Self::OVERLAP_AT.as_nanos() / 1_000;
        for kind in core {
            // Start 30–60 ms, end at least 5–20 ms past the overlap point.
            let at_us = 30_000 + rng.gen_range(30_000);
            let end_us = overlap_us + 5_000 + rng.gen_range(15_000);
            events.push(FaultEvent {
                kind,
                at: SimTime::from_micros(at_us),
                duration: SimDuration::from_micros(end_us - at_us),
            });
        }
        let mut extras = [
            FaultKind::LinkFlap,
            FaultKind::PumpStall,
            FaultKind::OperatorRestart,
            FaultKind::SnapshotDuringFault,
            FaultKind::MainArrayCrash,
        ];
        rng.shuffle(&mut extras);
        let n_extra = 1 + rng.gen_range(3) as usize;
        for &kind in extras.iter().take(n_extra) {
            let span_us = (horizon.as_nanos() / 1_000).saturating_sub(60_000);
            let at = SimTime::from_micros(10_000 + rng.gen_range(span_us));
            let duration = if kind == FaultKind::SnapshotDuringFault {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(5_000 + rng.gen_range(20_000))
            };
            events.push(FaultEvent { kind, at, duration });
        }
        let mut plan = FaultPlan { horizon, events };
        plan.normalize();
        plan
    }

    /// Generate a seeded plan containing exactly the core fault quartet —
    /// link partition, jitter spike, backup-array crash, journal squeeze —
    /// with windows spanning [`Self::OVERLAP_AT`], and no extras. The
    /// fixed kind set makes convergence sweeps comparable across policies
    /// (same fault pressure, only the recovery strategy varies) while the
    /// seeded windows still vary per trial.
    pub fn core_quartet(seed: u64, horizon: SimTime) -> FaultPlan {
        assert!(
            horizon >= SimTime::from_millis(120),
            "horizon too short for the core overlap window"
        );
        let mut rng = DetRng::new(seed).derive(PLAN_STREAM);
        let mut events = Vec::new();
        let core = [
            FaultKind::LinkPartition,
            FaultKind::JitterSpike,
            FaultKind::BackupArrayCrash,
            FaultKind::JournalSqueeze,
        ];
        let overlap_us = Self::OVERLAP_AT.as_nanos() / 1_000;
        for kind in core {
            // Same window law as `random`: start 30–60 ms, end at least
            // 5–20 ms past the overlap point.
            let at_us = 30_000 + rng.gen_range(30_000);
            let end_us = overlap_us + 5_000 + rng.gen_range(15_000);
            events.push(FaultEvent {
                kind,
                at: SimTime::from_micros(at_us),
                duration: SimDuration::from_micros(end_us - at_us),
            });
        }
        let mut plan = FaultPlan { horizon, events };
        plan.normalize();
        plan
    }

    /// Sort events into canonical `(at, kind, duration)` order.
    pub fn normalize(&mut self) {
        self.events.sort_by_key(|e| (e.at, e.kind, e.duration));
    }

    /// Distinct fault kinds in the plan, sorted, as labels.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.events.iter().map(|e| e.kind.label()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct fault kinds whose windows all span one common instant
    /// (the maximum cardinality over instants, counting kinds once).
    pub fn max_overlapping_kinds(&self) -> usize {
        let mut best = 0;
        for probe in self.events.iter().map(|e| e.at) {
            let mut kinds: Vec<FaultKind> = self
                .events
                .iter()
                .filter(|e| e.at <= probe && probe <= e.heal_at())
                .map(|e| e.kind)
                .collect();
            kinds.sort_unstable();
            kinds.dedup();
            best = best.max(kinds.len());
        }
        best
    }

    /// Deterministic single-line-per-event rendering (used in reports and
    /// byte-identity tests).
    pub fn render(&self) -> String {
        let mut out = format!("plan horizon={}\n", self.horizon);
        for e in &self.events {
            out.push_str(&format!(
                "  {:>10} +{:<10} {}\n",
                e.at.to_string(),
                e.duration.to_string(),
                e.kind.label()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plan_is_seed_deterministic_and_overlapping() {
        let a = FaultPlan::random(7, SimTime::from_millis(150));
        let b = FaultPlan::random(7, SimTime::from_millis(150));
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(a.events.len() >= 5);
        assert!(a.kinds().len() >= 4);
        assert!(
            a.max_overlapping_kinds() >= 4,
            "core quartet must overlap: {}",
            a.render()
        );
        let c = FaultPlan::random(8, SimTime::from_millis(150));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn events_stay_inside_the_horizon() {
        for seed in 0..50u64 {
            let plan = FaultPlan::random(seed, SimTime::from_millis(150));
            for e in &plan.events {
                assert!(e.heal_at() < plan.horizon, "{e:?} outlives horizon");
            }
        }
    }
}
