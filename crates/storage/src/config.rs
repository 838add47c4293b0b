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

/// Tunables of the replication engine and array data path.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-entry journal metadata overhead in bytes.
    pub journal_entry_overhead: u64,
    /// Per-frame link protocol overhead in bytes.
    pub frame_overhead: u64,
    /// Size of an applied-acknowledgement frame (backup → main).
    pub ack_frame_bytes: u64,
    /// Base interval between transfer-pump cycles of a group.
    pub pump_interval: SimDuration,
    /// Maximum extra random delay added to each pump cycle (models
    /// independent replication sessions drifting apart; key source of
    /// cross-group skew in the naive per-volume configuration).
    pub pump_jitter: SimDuration,
    /// Maximum journal entries shipped per transfer frame.
    pub batch_max_entries: usize,
    /// Maximum payload bytes shipped per transfer frame.
    pub batch_max_bytes: u64,
    /// Send an applied-ack to the main site every N applied entries (an ack
    /// is always sent when the remote journal drains).
    pub applied_ack_every: u64,
    /// Behaviour when the primary journal fills.
    pub journal_full_policy: JournalFullPolicy,
    /// Retry interval for host writes stalled on a full journal.
    pub journal_stall_retry: SimDuration,
    /// Retry interval after a lost frame.
    pub loss_retry: SimDuration,
    /// Transfer-pump flow control: no new frame is offered while the link's
    /// sender-side serialization backlog exceeds this (bounds the data that
    /// can be "in flight" — and hence survive — when the main site dies).
    pub max_link_backlog: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            journal_entry_overhead: 64,
            frame_overhead: 64,
            ack_frame_bytes: 64,
            pump_interval: SimDuration::from_micros(500),
            pump_jitter: SimDuration::from_micros(400),
            batch_max_entries: 64,
            batch_max_bytes: 1 << 20,
            applied_ack_every: 16,
            journal_full_policy: JournalFullPolicy::Block,
            journal_stall_retry: SimDuration::from_micros(200),
            loss_retry: SimDuration::from_millis(1),
            max_link_backlog: SimDuration::from_millis(5),
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
        assert!(c.batch_max_bytes >= 4096);
        assert!(c.applied_ack_every > 0);
        assert_eq!(c.journal_full_policy, JournalFullPolicy::Block);
        assert!(!c.pump_interval.is_zero());
    }

    #[test]
    fn policies_compare() {
        assert_ne!(JournalFullPolicy::Block, JournalFullPolicy::Suspend);
    }
}
