//! A hierarchical timer wheel: the kernel's pending-event store.
//!
//! Eleven levels of 64 slots each cover the full `u64` nanosecond range
//! (64^11 = 2^66). Level 0 resolves single nanoseconds; each level above
//! is 64× coarser. Insert is O(1): an event is hashed to a slot by the
//! bits of its deadline that differ from the wheel's `elapsed` cursor.
//!
//! A pending entry lives in exactly one of three residences, split by
//! `horizon` (the last deadline of the most recently drained slot):
//!
//! - the **wheel** holds every entry *later* than `horizon`;
//! - the **run** is one drained slot — a *fine* one (level ≤
//!   [`DRAIN_MAX_LEVEL`], at most 4 096 ns wide) or a coarser one that
//!   held a single entry — taken out of the wheel by a buffer swap, sorted
//!   once by `(when, seq)` and served by `Vec::pop`;
//! - the **heap** takes every push at or below `horizon` — a handler
//!   scheduling inside the span the run covers, zero-delay hops included.
//!
//! [`TimerWheel::pop`] is the two-way merge of the run's tail and the
//! heap's top. When both are empty the wheel's front slot comes forward
//! ([`TimerWheel::refill`]): a coarse slot with more than one entry is
//! *cascaded* — the cursor moves to its block start and each entry is
//! re-homed once, to a lower level, with no sort — until the front slot
//! can be drained, and that slot becomes the new run. One drain rule, one
//! pop: nothing is ever inserted into the run, and nothing at or below
//! `horizon` ever enters the wheel, so the run and the heap together are
//! always the global minimum span and serving them never consults the
//! wheel. (Draining *any* front slot whole, with sorted inserts into the
//! live batch and a running wheel-minimum to catch what did not fit, lost
//! to this in situ: DESIGN.md §15 has the counts.)
//!
//! Determinism contract: [`TimerWheel::pop`] yields entries in exactly
//! ascending `(when, seq)` order — the same order a binary heap with a
//! `(time, seq)` key would produce — which is what keeps simulation runs
//! bit-identical to the old `BinaryHeap` kernel. The proof obligations:
//!
//! 1. *Drain soundness.* The front slot (lowest occupied slot of the
//!    lowest occupied level) holds the wheel's minimum, and every wheel
//!    entry outside it is strictly later than every entry inside it —
//!    lower levels are empty, same-level slots with higher indices and all
//!    higher levels differ from `elapsed` in a more significant digit. So
//!    after a drain every wheel entry is later than the new `horizon`.
//! 2. *Interleave soundness.* A push goes to the heap iff its deadline is
//!    at or below `horizon` ([`TimerWheel::place`] asserts the converse),
//!    so by (1) every wheel entry stays later than every run and heap
//!    entry, whether or not the run has been exhausted since. Keys are
//!    unique (`seq` is), both the run and the heap yield their own
//!    entries in key order, and the merge takes the smaller head — the
//!    global minimum.
//! 3. *Home stability.* `elapsed` moves only inside `refill`, only to the
//!    block start of the front slot — a value ≤ every pending deadline
//!    that keeps every digit above the slot's level — so every other wheel
//!    entry keeps its `level_and_slot` residence, and
//!    [`TimerWheel::cancel`] and [`TimerWheel::next_time`] stay pure
//!    recomputations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels; 64^11 ≥ 2^64 so any `u64` deadline fits.
const LEVELS: usize = 11;
/// Eagerly reserved capacity per slot, so pushing into a never-touched
/// slot does not allocate. Steady-state workloads with fewer than this
/// many co-resident entries per slot run allocation-free.
const SLOT_PREALLOC: usize = 4;
/// The coarsest level whose slots are drained into the run whatever they
/// hold; a coarser front slot is cascaded unless it holds a single entry
/// (nothing to sort, and a sparse timeline — one timer per millisecond —
/// would otherwise pay a cascade per level per event). A drained slot's
/// width bounds how many handler pushes land inside the live run's span
/// (and pay the heap instead of the wheel); a cascade costs one move per
/// entry per level. Measured on the ledger's two metro workloads
/// (EXPERIMENTS.md "Kernel wall-clock"): level 2 beats 1 and 3.
const DRAIN_MAX_LEVEL: usize = 2;

/// One pending event.
struct Entry<T> {
    when: u64,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    /// `(when, seq)` as one integer: one branch-light compare instead of
    /// a lexicographic tuple compare inside sort and heap loops.
    #[inline]
    fn key(&self) -> u128 {
        ((self.when as u128) << 64) | self.seq as u128
    }
}

/// Entries order *earliest-greatest*: `BinaryHeap` is a max-heap and the
/// run is served from its tail, so both want the earliest key last.
impl<T> Ord for Entry<T> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

/// A popped event: `(deadline, seq, value)`.
pub(crate) type Popped<T> = (u64, u64, T);

/// The wheel. `T` is the event payload type.
pub(crate) struct TimerWheel<T> {
    /// Cursor: the block start of the most recently drained or cascaded
    /// slot. Never exceeds any pending deadline.
    elapsed: u64,
    /// Total pending entries (run and heap included).
    len: usize,
    /// Level summary bitmap: bit `l` set ⇔ `occupied[l] != 0`. Finding
    /// the lowest occupied level is one `trailing_zeros`, not a scan.
    levels: u32,
    /// Per-level occupancy bitmaps: bit `s` set ⇔ `slot(level, s)` is
    /// non-empty.
    occupied: [u64; LEVELS],
    /// `LEVELS * SLOTS` buckets, flattened; index `level * SLOTS + slot`.
    slots: Vec<Vec<Entry<T>>>,
    /// The ready run: one drained slot, sorted earliest-last so service
    /// is `Vec::pop` from the tail.
    run: Vec<Entry<T>>,
    /// Pushes at or below `horizon`, earliest on top.
    heap: BinaryHeap<Entry<T>>,
    /// The last deadline of the most recently drained slot. Every wheel
    /// entry is later; every run and heap entry is at or below it.
    horizon: u64,
    /// High-water mark of the run over the wheel's lifetime.
    slab_peak: usize,
    /// Deterministic allocation counter: how many times a bucket grew
    /// past its capacity (each growth is one heap reallocation). Zero in
    /// steady state — the ledger reports it per event.
    grow_events: u64,
    /// Deterministic count of entries re-homed by cascades.
    rehomed: u64,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            elapsed: 0,
            len: 0,
            levels: 0,
            occupied: [0; LEVELS],
            slots: (0..LEVELS * SLOTS)
                .map(|_| Vec::with_capacity(SLOT_PREALLOC))
                .collect(),
            run: Vec::with_capacity(SLOT_PREALLOC),
            heap: BinaryHeap::with_capacity(SLOT_PREALLOC),
            horizon: 0,
            slab_peak: 0,
            grow_events: 0,
            rehomed: 0,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// High-water mark of the ready run (peak entries drained from one
    /// slot and served contiguously).
    #[inline]
    pub(crate) fn slab_peak(&self) -> usize {
        self.slab_peak
    }

    /// How many bucket capacity growths (heap reallocations) the wheel
    /// has performed since construction. Deterministic: depends only on
    /// the schedule, never on wall-clock or addresses.
    #[inline]
    pub(crate) fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// How many entries cascades have re-homed since construction (one
    /// per entry per cascaded level). Deterministic like `grow_events`.
    #[inline]
    pub(crate) fn rehomed(&self) -> u64 {
        self.rehomed
    }

    /// The slot for a deadline, measured against the current cursor: the
    /// level is the highest 6-bit digit in which `when` and `elapsed`
    /// differ, the slot is `when`'s digit at that level.
    #[inline]
    fn level_and_slot(&self, when: u64) -> (usize, usize) {
        // `| 1` folds the `when == elapsed` case into level 0 without a
        // branch (bit 0 never changes the level).
        let masked = (when ^ self.elapsed) | 1;
        let level = ((63 - masked.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((when >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Insert into the wheel without touching `len` (shared by push and
    /// cascade).
    #[inline]
    fn place(&mut self, e: Entry<T>) {
        debug_assert!(
            e.when > self.horizon,
            "entry at {} would enter the wheel at or below the ready horizon {}",
            e.when,
            self.horizon
        );
        let (level, slot) = self.level_and_slot(e.when);
        *self
            .occupied
            .get_mut(level)
            .expect("invariant: level_and_slot returns level < LEVELS") |= 1 << slot;
        self.levels |= 1 << level;
        let bucket = self
            .slots
            .get_mut(level * SLOTS + slot)
            .expect("invariant: level < LEVELS and slot < SLOTS, so the flat index is in range");
        if bucket.len() == bucket.capacity() {
            // `push` below reallocates; count it so the ledger can report
            // allocations-per-event without an allocator shim.
            self.grow_events += 1;
        }
        bucket.push(e);
    }

    /// Mark `(level, slot)` empty in both bitmaps.
    #[inline]
    fn vacate(&mut self, level: usize, slot: usize) {
        let occ = self
            .occupied
            .get_mut(level)
            .expect("invariant: callers pass a level < LEVELS");
        *occ &= !(1u64 << slot);
        if *occ == 0 {
            self.levels &= !(1u32 << level);
        }
    }

    /// Schedule `value` at `when`. `seq` must be the caller's unique,
    /// monotonically assigned tie-breaker. `when` must be ≥ every deadline
    /// popped so far (the kernel's schedule-into-the-past check enforces a
    /// stronger condition: `when ≥ now ≥ elapsed`).
    #[inline]
    pub(crate) fn push(&mut self, when: u64, seq: u64, value: T) {
        debug_assert!(
            when >= self.elapsed,
            "push({when}) behind cursor {}",
            self.elapsed
        );
        self.len += 1;
        let e = Entry { when, seq, value };
        if when > self.horizon {
            return self.place(e);
        }
        if self.heap.len() == self.heap.capacity() {
            self.grow_events += 1;
        }
        self.heap.push(e);
    }

    /// The block start of `(level, slot)` under the current cursor: the
    /// cursor's digits above `level`, `slot` at `level`, zeros below.
    #[inline]
    fn block_start(&self, level: usize, slot: usize) -> u64 {
        let shift = level as u32 * LEVEL_BITS;
        let upper = shift + LEVEL_BITS;
        let high = if upper >= 64 {
            0
        } else {
            (self.elapsed >> upper) << upper
        };
        high | ((slot as u64) << shift)
    }

    /// The wheel's front slot: the lowest occupied slot of the lowest
    /// occupied level. It holds the wheel's minimum: entries at level L
    /// differ from `elapsed` first at digit L (all higher digits equal),
    /// so a lower level always means an earlier deadline, and within a
    /// level a lower slot index does too.
    #[inline]
    fn front(&self) -> Option<(usize, usize)> {
        if self.levels == 0 {
            return None;
        }
        let level = self.levels.trailing_zeros() as usize;
        let slot = self
            .occupied
            .get(level)
            .expect("invariant: levels bit set only for level < LEVELS")
            .trailing_zeros() as usize;
        Some((level, slot))
    }

    /// The earliest pending deadline, without mutating anything.
    pub(crate) fn next_time(&self) -> Option<u64> {
        match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(h)) => Some(r.when.min(h.when)),
            (Some(e), None) | (None, Some(e)) => Some(e.when),
            (None, None) => {
                // A slot mixes deadlines; scan the bucket. Once per run:
                // the next pop drains or cascades this slot.
                let (level, slot) = self.front()?;
                self.slots
                    .get(level * SLOTS + slot)
                    .expect(
                        "invariant: level < LEVELS and slot < SLOTS, so the flat index is in range",
                    )
                    .iter()
                    .map(|e| e.when)
                    .min()
            }
        }
    }

    /// Remove and return the earliest entry; ties broken by lowest `seq`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Popped<T>> {
        let heads = (
            self.run.last().map(Entry::key),
            self.heap.peek().map(Entry::key),
        );
        let from_heap = match heads {
            (Some(run), Some(heap)) => heap < run,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) if self.refill() => false,
            (None, None) => return None,
        };
        let e = if from_heap {
            self.heap.pop()
        } else {
            self.run.pop()
        }
        .expect("invariant: the residence chosen above is non-empty");
        self.len -= 1;
        Some((e.when, e.seq, e.value))
    }

    /// Run and heap are both empty: cascade the wheel's front slot down
    /// until it is fine or holds one entry, then drain it into the run.
    /// Returns `false` when the wheel is empty too. Out-of-line: it runs
    /// once per run, not once per pop.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        while let Some((level, slot)) = self.front() {
            self.vacate(level, slot);
            // All lower levels are empty and every other entry keeps its
            // digits above `level`, so moving the cursor here preserves
            // every other residence.
            self.elapsed = self.block_start(level, slot);
            let idx = level * SLOTS + slot;
            let bucket = self.slots.get_mut(idx).expect(
                "invariant: level < LEVELS and slot < SLOTS, so the flat index is in range",
            );
            if level <= DRAIN_MAX_LEVEL || bucket.len() == 1 {
                std::mem::swap(&mut self.run, bucket);
                self.run.sort_unstable();
                self.horizon = self
                    .run
                    .first()
                    .expect("invariant: an occupied slot is never empty")
                    .when;
                self.slab_peak = self.slab_peak.max(self.run.len());
                return true;
            }
            // Every entry re-homes strictly below `level` (it now agrees
            // with `elapsed` on digit `level` and above), so this ends.
            let mut moved = std::mem::take(bucket);
            self.rehomed += moved.len() as u64;
            for e in moved.drain(..) {
                self.place(e);
            }
            // Give the (now empty) bucket its allocation back so the
            // cascade path stays allocation-free in steady state.
            *self.slots.get_mut(idx).expect(
                "invariant: level < LEVELS and slot < SLOTS, so the flat index is in range",
            ) = moved;
        }
        false
    }

    /// Cancel the pending entry `(when, seq)`. Returns its payload, or
    /// `None` if no such entry is pending (already fired or cancelled).
    ///
    /// `horizon` says where to look: at or below it a live entry is in the
    /// run or the heap, above it exactly at `level_and_slot(when)` under
    /// the current cursor (home stability, module docs). Cancels are rare;
    /// the run keeps its order through `Vec::remove` and the heap is
    /// rebuilt around the hole, in place.
    pub(crate) fn cancel(&mut self, when: u64, seq: u64) -> Option<T> {
        let hit = |e: &Entry<T>| e.seq == seq && e.when == when;
        let e = if when > self.horizon {
            let (level, slot) = self.level_and_slot(when);
            let bucket = self
                .slots
                .get_mut(level * SLOTS + slot)
                .expect("invariant: level_and_slot returns level < LEVELS and slot < SLOTS");
            let e = bucket.swap_remove(bucket.iter().position(hit)?);
            if bucket.is_empty() {
                self.vacate(level, slot);
            }
            e
        } else if let Some(pos) = self.run.iter().position(hit) {
            self.run.remove(pos)
        } else {
            let mut rest = std::mem::take(&mut self.heap).into_vec();
            let found = rest.iter().position(hit).map(|pos| rest.swap_remove(pos));
            self.heap = BinaryHeap::from(rest);
            found?
        };
        self.len -= 1;
        Some(e.value)
    }

    /// Drop every pending entry, retaining bucket, run and heap capacity.
    /// The cursor and the horizon are kept: deadlines already popped stay
    /// in the past.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.slots {
            b.clear();
        }
        self.run.clear();
        self.heap.clear();
        self.occupied = [0; LEVELS];
        self.levels = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((when, seq, _)) = w.pop() {
            out.push((when, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(300, 0, 0);
        w.push(100, 1, 0);
        w.push(100, 2, 0);
        w.push(200, 3, 0);
        assert_eq!(w.next_time(), Some(100));
        assert_eq!(drain(&mut w), vec![(100, 1), (100, 2), (200, 3), (300, 0)]);
    }

    #[test]
    fn same_time_entries_pop_in_seq_order_across_cascades() {
        let mut w = TimerWheel::new();
        // Far enough out to land on a high level, forcing cascades.
        let t = 1 << 30;
        for seq in 0..10 {
            w.push(t, seq, seq as u32);
        }
        // Interleave: pop an early event so the cursor moves, then add
        // more same-time entries that initially land on lower levels.
        w.push(5, 100, 0);
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((5, 100)));
        for seq in 10..20 {
            w.push(t, seq, seq as u32);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn next_time_is_stable_and_non_mutating() {
        let mut w = TimerWheel::new();
        w.push(1 << 40, 0, 7);
        for _ in 0..3 {
            assert_eq!(w.next_time(), Some(1 << 40));
        }
        // A later, nearer push must still land correctly after the peeks.
        w.push(3, 1, 8);
        assert_eq!(w.next_time(), Some(3));
        assert_eq!(drain(&mut w), vec![(3, 1), (1 << 40, 0)]);
    }

    #[test]
    fn cancel_removes_entry_and_reclaims_slot() {
        let mut w = TimerWheel::new();
        w.push(50, 0, 10);
        w.push(50, 1, 11);
        w.push(9_000_000, 2, 12);
        assert_eq!(w.cancel(50, 0), Some(10));
        assert_eq!(w.len(), 2);
        // Cancelling again (or with a wrong key) is a no-op.
        assert_eq!(w.cancel(50, 0), None);
        assert_eq!(w.cancel(51, 1), None);
        assert_eq!(drain(&mut w), vec![(50, 1), (9_000_000, 2)]);
        // Cancelled slot fully reclaimed: empty wheel pops nothing.
        assert_eq!(w.len(), 0);
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), None);
    }

    #[test]
    fn cancel_after_cascade_still_finds_entry() {
        let mut w = TimerWheel::new();
        let far = (1 << 24) + 17;
        w.push(far, 0, 1);
        w.push(1 << 24, 1, 2);
        // Popping the earlier entry drains the shared slot into the slab.
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((1 << 24, 1)));
        assert_eq!(w.cancel(far, 0), Some(1));
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn cancel_reaches_into_the_batch_slab() {
        let mut w = TimerWheel::new();
        // Three same-deadline entries: the first pop drains the slot into
        // the slab and serves seq 0, leaving seqs 1 and 2 in the slab.
        w.push(70, 0, 10);
        w.push(70, 1, 11);
        w.push(70, 2, 12);
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((70, 0)));
        assert_eq!(w.cancel(70, 1), Some(11));
        assert_eq!(w.len(), 1);
        // A same-deadline push after the drain goes to the heap; cancel
        // must find it there too.
        w.push(70, 3, 13);
        assert_eq!(w.cancel(70, 3), Some(13));
        assert_eq!(drain(&mut w), vec![(70, 2)]);
    }

    #[test]
    fn same_deadline_push_during_batch_service_keeps_seq_order() {
        let mut w = TimerWheel::new();
        for seq in 0..4 {
            w.push(40, seq, seq as u32);
        }
        // First pop drains the slot into the slab.
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((40, 0)));
        // A handler pushes two more entries at the same deadline: they
        // land in the heap with higher seqs and must fire *after* the
        // remaining run entries.
        w.push(40, 4, 4);
        w.push(40, 5, 5);
        assert_eq!(w.next_time(), Some(40));
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn earlier_push_during_batch_service_preempts_the_batch() {
        let mut w = TimerWheel::new();
        // Two entries share a coarse slot (level 2 under cursor 0):
        // draining it makes a multi-entry batch spanning [1 << 12, max].
        let base = 1 << 12;
        w.push(base + 3000, 0, 30);
        w.push(base + 10, 1, 10);
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((base + 10, 1)));
        // Handler schedules *inside* the live batch's range, earlier
        // than the remaining run head: it must fire first (from the
        // heap).
        w.push(base + 100, 2, 1);
        w.push(base + 5000, 3, 50); // beyond nothing — also in range, later
        assert_eq!(w.next_time(), Some(base + 100));
        assert_eq!(
            drain(&mut w),
            vec![(base + 100, 2), (base + 3000, 0), (base + 5000, 3)]
        );
    }

    #[test]
    fn handler_pushes_inside_a_large_live_run_keep_exact_order() {
        // A run far larger than anything a sorted insert could afford:
        // pushes landing inside its span — before the head, on a tie, on
        // its last deadline — go to the heap, never into the run or the
        // wheel, and the merge serves them at their exact position.
        let mut w = TimerWheel::new();
        let base = 1 << 12; // one level-2 block under cursor 0
        let n = 514u64;
        for seq in 0..n {
            w.push(base + 2 * seq + 10, seq, seq as u32);
        }
        let last = base + 2 * (n - 1) + 10;
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((base + 10, 0)));
        assert_eq!(w.slab_peak(), n as usize);
        w.push(base + 11, n, 1111); // ahead of the run's head
        w.push(base + 14, n + 1, 2222); // ties with seq 2, fires after it
        w.push(last, n + 2, 3333); // exactly on the run's last deadline
        w.push(last + 1, n + 3, 4444); // past it: the wheel's
        assert_eq!(
            w.slab_peak(),
            n as usize,
            "nothing was inserted into the run"
        );
        assert_eq!(w.next_time(), Some(base + 11));
        let order = drain(&mut w);
        assert_eq!(order.len(), (n + 3) as usize);
        assert_eq!(order[0], (base + 11, n));
        assert_eq!(order[1], (base + 12, 1));
        assert_eq!(order[2], (base + 14, 2));
        assert_eq!(order[3], (base + 14, n + 1));
        assert_eq!(
            order[order.len() - 3..],
            [(last, n - 1), (last, n + 2), (last + 1, n + 3)]
        );
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn coarse_slots_cascade_unless_they_hold_one_entry() {
        let mut w = TimerWheel::new();
        // A sparse timeline — one timer a millisecond ahead at a time —
        // is served straight from its coarse slot.
        let mut t = 0;
        for seq in 0..100 {
            t += 1_000_000;
            w.push(t, seq, 0u32);
            assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((t, seq)));
        }
        assert_eq!(w.rehomed(), 0);
        // Three entries sharing one level-3 slot (262 µs wide, under
        // cursor 0) are re-homed once each, into three fine slots.
        let mut w = TimerWheel::new();
        for seq in 0..3 {
            w.push(2_000_000 + 5_000 * seq, seq, 0u32);
        }
        assert_eq!(drain(&mut w).len(), 3);
        assert_eq!(w.rehomed(), 3);
    }

    #[test]
    fn slab_and_allocation_counters_track_batches() {
        let mut w = TimerWheel::new();
        assert_eq!(w.slab_peak(), 0);
        assert_eq!(w.grow_events(), 0);
        // SLOT_PREALLOC entries fit without growing; one more grows the
        // bucket exactly once.
        for seq in 0..=SLOT_PREALLOC as u64 {
            w.push(90, seq, 0u32);
        }
        assert_eq!(w.grow_events(), 1);
        assert_eq!(w.pop().map(|(_, s, _)| s), Some(0));
        // The whole slot (all 5 entries) was drained into the slab.
        assert_eq!(w.slab_peak(), SLOT_PREALLOC + 1);
        drain(&mut w);
        assert_eq!(w.slab_peak(), SLOT_PREALLOC + 1);
    }

    #[test]
    fn clear_retains_cursor() {
        let mut w = TimerWheel::new();
        w.push(100, 0, 1);
        assert!(w.pop().is_some());
        w.push(200, 1, 2);
        w.clear();
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_time(), None);
        // Cursor survives: a fresh push behind it would be a bug the
        // debug_assert catches; at or ahead of it is fine.
        w.push(100, 2, 3);
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((100, 2)));
    }

    #[test]
    fn clear_drops_batch_slab_entries_too() {
        let mut w = TimerWheel::new();
        w.push(10, 0, 1);
        w.push(10, 1, 2);
        assert!(w.pop().is_some()); // second entry now lives in the slab
        w.clear();
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_time(), None);
        assert!(w.pop().is_none());
    }

    #[test]
    fn zero_time_and_max_range() {
        let mut w = TimerWheel::new();
        w.push(0, 0, 1);
        w.push(u64::MAX, 1, 2);
        assert_eq!(w.next_time(), Some(0));
        assert_eq!(drain(&mut w), vec![(0, 0), (u64::MAX, 1)]);
    }
}
