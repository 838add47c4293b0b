//! Engine-wide configuration knobs.

use tsuru_sim::SimDuration;

/// What the primary array does when an ADC journal is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalFullPolicy {
    /// Host writes stall (retried on a short timer) until the backup site
    /// frees journal space — no data loss, but primary latency spikes.
    Block,
    /// The group suspends: subsequent writes are local-only and the backup
    /// image stops advancing (resynchronised out of band).
    Suspend,
}

/// Tunables of the replication engine and array data path. The engine's
/// fixed costs and retry intervals are constants next to their readers
/// (`engine::FRAME_OVERHEAD`, `engine::MAX_LINK_BACKLOG`,
/// `JOURNAL_ENTRY_OVERHEAD`, …); these are the values experiments vary.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Base interval between transfer-pump cycles of a group.
    pub pump_interval: SimDuration,
    /// Maximum extra random delay added to each pump cycle (models
    /// independent replication sessions drifting apart; key source of
    /// cross-group skew in the naive per-volume configuration).
    pub pump_jitter: SimDuration,
    /// Maximum journal entries shipped per transfer frame.
    pub batch_max_entries: usize,
    /// Behaviour when the primary journal fills.
    pub journal_full_policy: JournalFullPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pump_interval: SimDuration::from_micros(500),
            pump_jitter: SimDuration::from_micros(400),
            batch_max_entries: 64,
            journal_full_policy: JournalFullPolicy::Block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.batch_max_entries > 0);
        assert_eq!(c.journal_full_policy, JournalFullPolicy::Block);
        assert!(!c.pump_interval.is_zero());
    }

    #[test]
    fn policies_compare() {
        assert_ne!(JournalFullPolicy::Block, JournalFullPolicy::Suspend);
    }
}
