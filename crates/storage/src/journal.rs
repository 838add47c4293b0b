//! Journal volumes for asynchronous data copy.
//!
//! The ADC engine stores every primary update in a journal volume at the
//! main site, transfers journal entries to a journal volume at the backup
//! site, and applies them to the secondary volumes in sequence order
//! (§III-A1 of the paper). One journal may be shared by many volumes —
//! that sharing *is* the consistency-group mechanism: a single sequence
//! number space across all member volumes.

use std::collections::VecDeque;

use tsuru_telemetry::SpanId;

use crate::block::{BlockBuf, JournalId, PairId};

/// Per-entry metadata overhead, in bytes, of every journal a replication
/// group creates.
pub const JOURNAL_ENTRY_OVERHEAD: u64 = 64;

/// One logged update: a block write destined for a secondary volume.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Sequence number within the journal, starting at 1. Apply order at
    /// the backup site is strictly increasing in `seq`.
    pub seq: u64,
    /// Which replication pair (hence which secondary volume) this is for.
    pub pair: PairId,
    /// Target block address.
    pub lba: u64,
    /// Block payload.
    pub data: BlockBuf,
    /// Content fingerprint (for the write-order-fidelity checker).
    pub hash: u64,
    /// Latest trace span of this entry's write lifecycle
    /// (`journal_append` on the primary side, `wan_transfer` once
    /// shipped); [`SpanId::NONE`] when tracing is off.
    pub span: SpanId,
}

/// A journal volume: bounded FIFO of [`JournalEntry`] with sequence
/// watermarks.
///
/// On the primary side entries are retained until the backup site confirms
/// apply (`release_upto`); `sent` tracks how far the transfer engine has
/// handed entries to the link. On the secondary side the same structure
/// holds arrived-but-unapplied entries.
#[derive(Debug)]
pub struct Journal {
    id: JournalId,
    capacity_bytes: u64,
    used_bytes: u64,
    entry_overhead: u64,
    entries: VecDeque<JournalEntry>,
    /// Sequence number of the front entry (0 when empty and nothing ever
    /// released; in general `front().seq` when non-empty).
    first_seq: u64,
    next_seq: u64,
    sent: u64,
    highest_released: u64,
    overflow_hits: u64,
    total_appended: u64,
}

impl Journal {
    /// An empty journal of the given byte capacity. `entry_overhead` is the
    /// per-entry metadata cost added to each payload.
    pub fn new(id: JournalId, capacity_bytes: u64, entry_overhead: u64) -> Self {
        Journal {
            id,
            capacity_bytes,
            used_bytes: 0,
            entry_overhead,
            entries: VecDeque::new(),
            first_seq: 1,
            next_seq: 1,
            sent: 0,
            highest_released: 0,
            overflow_hits: 0,
            total_appended: 0,
        }
    }

    /// Journal id.
    pub fn id(&self) -> JournalId {
        self.id
    }

    /// Byte size charged for one entry with the given payload length.
    pub fn entry_size(&self, payload_len: usize) -> u64 {
        self.entry_overhead + payload_len as u64
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Configured capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Change the capacity mid-run (fault injection: journal-pressure
    /// squeeze). Entries already held are never discarded, even if they
    /// exceed the new capacity; only new appends observe the squeeze.
    pub fn set_capacity_bytes(&mut self, capacity_bytes: u64) {
        self.capacity_bytes = capacity_bytes;
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Times an append was refused for lack of space.
    pub fn overflow_hits(&self) -> u64 {
        self.overflow_hits
    }

    /// Entries ever appended.
    pub fn total_appended(&self) -> u64 {
        self.total_appended
    }

    /// Would an entry with `payload_len` bytes fit right now?
    pub fn has_space(&self, payload_len: usize) -> bool {
        self.used_bytes + self.entry_size(payload_len) <= self.capacity_bytes
    }

    /// Append a new update, assigning the next sequence number (primary
    /// side). Returns `None` — and counts an overflow — if the journal is
    /// full.
    pub fn append(&mut self, pair: PairId, lba: u64, data: BlockBuf, hash: u64) -> Option<u64> {
        if !self.has_space(data.len()) {
            self.overflow_hits += 1;
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.used_bytes += self.entry_size(data.len());
        self.total_appended += 1;
        self.entries.push_back(JournalEntry {
            seq,
            pair,
            lba,
            data,
            hash,
            span: SpanId::NONE,
        });
        Some(seq)
    }

    /// Tag the most recently appended entry with its `journal_append`
    /// trace span (the tracer allocates the id only after [`Journal::append`]
    /// has assigned the sequence number it is attributed with).
    pub fn set_last_span(&mut self, span: SpanId) {
        if let Some(e) = self.entries.back_mut() {
            e.span = span;
        }
    }

    /// Accept an entry arriving from the main site (secondary side).
    /// Sequence numbers must arrive contiguously — the transfer path is
    /// FIFO, so a gap is a bug, not a runtime condition.
    pub fn push_arrived(&mut self, entry: JournalEntry) {
        let expected = self
            .entries
            .back()
            .map(|e| e.seq + 1)
            .unwrap_or(self.first_seq);
        assert_eq!(
            entry.seq, expected,
            "journal j{} received out-of-order seq {} (expected {expected})",
            self.id.0, entry.seq
        );
        self.used_bytes += self.entry_size(entry.data.len());
        self.total_appended += 1;
        self.entries.push_back(entry);
    }

    /// Entries not yet handed to the link, up to `max_entries`/`max_bytes`
    /// (at least one entry if any is unsent, so a single oversized entry
    /// cannot wedge the pump). Does not advance the `sent` watermark.
    pub fn peek_unsent(&self, max_entries: usize, max_bytes: u64) -> Vec<JournalEntry> {
        // Sequence numbers are contiguous within the deque, so the first
        // unsent entry sits at a computable offset — no scan over the
        // already-sent prefix.
        let start = match self.entries.front() {
            Some(front) => (self.sent + 1).saturating_sub(front.seq) as usize,
            None => return Vec::new(),
        };
        // Pass 1: find the batch boundary without cloning anything.
        let mut take = 0usize;
        let mut bytes = 0u64;
        for e in self.entries.iter().skip(start) {
            let sz = self.entry_size(e.data.len());
            if take > 0 && (take >= max_entries || bytes + sz > max_bytes) {
                break;
            }
            bytes += sz;
            take += 1;
            if take >= max_entries || bytes >= max_bytes {
                break;
            }
        }
        // Pass 2: one exact allocation; the entry clones themselves are
        // cheap (`Bytes` payloads clone by refcount).
        let mut out = Vec::with_capacity(take);
        out.extend(self.entries.iter().skip(start).take(take).cloned());
        out
    }

    /// Record that all entries up to `seq` have been handed to the link.
    pub fn mark_sent(&mut self, seq: u64) {
        assert!(seq >= self.sent, "sent watermark may not move backwards");
        assert!(seq < self.next_seq, "cannot mark unappended entries sent");
        self.sent = seq;
    }

    /// Highest sequence handed to the link.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Free all entries with `seq <= upto` (primary side, after the backup
    /// site confirmed apply). Tolerates duplicate/stale acknowledgements.
    pub fn release_upto(&mut self, upto: u64) {
        while let Some(front) = self.entries.front() {
            if front.seq > upto {
                break;
            }
            let sz = self.entry_size(front.data.len());
            self.used_bytes -= sz;
            self.first_seq = front.seq + 1;
            self.entries.pop_front();
        }
        self.highest_released = self.highest_released.max(upto.min(self.next_seq - 1));
        // `sent` can never be behind what is released.
        self.sent = self.sent.max(self.highest_released);
    }

    /// Next entry to apply (secondary side); `None` when drained.
    pub fn peek_front(&self) -> Option<&JournalEntry> {
        self.entries.front()
    }

    /// Remove and return the front entry (secondary side, after apply).
    pub fn pop_front(&mut self) -> Option<JournalEntry> {
        let e = self.entries.pop_front();
        if let Some(ref entry) = e {
            self.used_bytes -= self.entry_size(entry.data.len());
            self.first_seq = entry.seq + 1;
        }
        e
    }

    /// LBAs of retained entries belonging to one pair (delta-resync
    /// working set).
    pub fn entries_for(&self, pair: PairId) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|e| e.pair == pair)
            .map(|e| e.lba)
            .collect()
    }

    /// Drain every held entry in order (failover apply).
    pub fn drain_all(&mut self) -> Vec<JournalEntry> {
        let mut out = Vec::with_capacity(self.entries.len());
        while let Some(e) = self.pop_front() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::block_from;

    fn jnl(capacity: u64) -> Journal {
        Journal::new(JournalId(0), capacity, 64)
    }

    fn blk(tag: &str) -> BlockBuf {
        block_from(tag.as_bytes())
    }

    #[test]
    fn append_assigns_contiguous_seqs() {
        let mut j = jnl(1 << 20);
        let a = j
            .append(PairId(0), 1, blk("a"), 1)
            .expect("invariant: journal has capacity");
        let b = j
            .append(PairId(1), 2, blk("b"), 2)
            .expect("invariant: journal has capacity");
        assert_eq!((a, b), (1, 2));
        assert_eq!(j.len(), 2);
        assert_eq!(j.total_appended(), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        // Two entries of (64 + 4096) fit in 9000 bytes; the third does not.
        let mut j = jnl(9000);
        assert!(j.append(PairId(0), 0, blk("x"), 0).is_some());
        assert!(j.append(PairId(0), 1, blk("y"), 0).is_some());
        assert!(!j.has_space(4096));
        assert!(j.append(PairId(0), 2, blk("z"), 0).is_none());
        assert_eq!(j.overflow_hits(), 1);
        // Releasing the first entry makes room again.
        j.release_upto(1);
        assert!(j.append(PairId(0), 2, blk("z"), 0).is_some());
    }

    #[test]
    fn peek_unsent_respects_limits_and_watermark() {
        let mut j = jnl(1 << 20);
        for i in 0..10 {
            j.append(PairId(0), i, blk("d"), 0)
                .expect("invariant: journal has capacity");
        }
        let batch = j.peek_unsent(3, u64::MAX);
        assert_eq!(
            batch.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        j.mark_sent(3);
        let batch = j.peek_unsent(100, 2 * (64 + 4096));
        assert_eq!(batch.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);
        j.mark_sent(10);
        assert!(j.peek_unsent(100, u64::MAX).is_empty());
    }

    #[test]
    fn oversized_single_entry_still_batches() {
        let mut j = jnl(1 << 20);
        j.append(PairId(0), 0, blk("big"), 0)
            .expect("invariant: journal has capacity");
        // max_bytes smaller than one entry: we still get that entry.
        let batch = j.peek_unsent(10, 16);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn release_frees_space_and_tolerates_stale_acks() {
        let mut j = jnl(1 << 20);
        for i in 0..5 {
            j.append(PairId(0), i, blk("d"), 0)
                .expect("invariant: journal has capacity");
        }
        j.mark_sent(5);
        j.release_upto(3);
        assert_eq!(j.len(), 2);
        assert_eq!(
            j.peek_front().expect("invariant: two entries remain").seq,
            4
        );
        // Stale ack is a no-op.
        j.release_upto(2);
        assert_eq!(j.len(), 2);
        j.release_upto(100);
        assert!(j.is_empty());
        assert_eq!(j.used_bytes(), 0);
    }

    #[test]
    fn remote_side_arrival_and_apply() {
        let mut main = jnl(1 << 20);
        let mut remote = jnl(1 << 20);
        for i in 0..4 {
            main.append(PairId(0), i, blk("d"), i)
                .expect("invariant: journal has capacity");
        }
        for e in main.peek_unsent(10, u64::MAX) {
            remote.push_arrived(e);
        }
        main.mark_sent(4);
        assert_eq!(remote.len(), 4);
        let first = remote
            .pop_front()
            .expect("invariant: remote holds arrived entries");
        assert_eq!(first.seq, 1);
        let rest = remote.drain_all();
        assert_eq!(
            rest.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(remote.is_empty());
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_arrival_panics() {
        let mut remote = jnl(1 << 20);
        remote.push_arrived(JournalEntry {
            seq: 5,
            pair: PairId(0),
            lba: 0,
            data: blk("x"),
            hash: 0,
            span: SpanId::NONE,
        });
        remote.push_arrived(JournalEntry {
            seq: 7,
            pair: PairId(0),
            lba: 0,
            data: blk("y"),
            hash: 0,
            span: SpanId::NONE,
        });
    }

    #[test]
    fn first_arrival_sets_base_seq() {
        let mut remote = jnl(1 << 20);
        remote.first_seq = 5; // simulates entries 1..4 already applied+freed
        remote.push_arrived(JournalEntry {
            seq: 5,
            pair: PairId(0),
            lba: 0,
            data: blk("x"),
            hash: 0,
            span: SpanId::NONE,
        });
        assert_eq!(
            remote
                .peek_front()
                .expect("invariant: entry 5 just arrived")
                .seq,
            5
        );
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn sent_watermark_cannot_regress_via_mark() {
        let mut j = jnl(1 << 20);
        j.append(PairId(0), 0, blk("a"), 0)
            .expect("invariant: journal has capacity");
        j.append(PairId(0), 1, blk("b"), 0)
            .expect("invariant: journal has capacity");
        j.mark_sent(2);
        j.mark_sent(1);
    }
}
