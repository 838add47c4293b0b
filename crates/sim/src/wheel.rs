//! A hierarchical timer wheel: the kernel's pending-event store.
//!
//! Eleven levels of 64 slots each cover the full `u64` nanosecond range
//! (64^11 = 2^66). Level 0 resolves single nanoseconds; each level above
//! is 64× coarser. Insert is O(1): an event is hashed to a slot by the
//! bits of its deadline that differ from the wheel's `elapsed` cursor.
//!
//! A slot holds its entries in a list of fixed-size chunks ([`CHUNK`]
//! entries each, values inline) drawn from one arena; a slot that empties
//! gives its chunks back to the arena's free list, so the wheel holds
//! storage for what is pending, not for the largest fill each of its 704
//! slots ever had. A new wheel holds no chunk and allocates nothing.
//!
//! A pending entry lives in exactly one of three residences, split by
//! `horizon` (the last deadline of the most recently drained slot):
//!
//! - the **wheel** holds every entry *later* than `horizon`;
//! - the **run** is one drained slot — a *fine* one (level ≤
//!   [`DRAIN_MAX_LEVEL`], at most 4 096 ns wide) or a coarser one that
//!   held a single entry — whose entries are moved out of its chunks into
//!   one reused vector, sorted once by `(when, seq)` and served by
//!   `Vec::pop`;
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
//! bit-identical to the old `BinaryHeap` kernel. The order of entries
//! inside a slot's chunks is never observed: a drained slot is sorted by
//! its unique keys, a cascaded one re-homed entry by entry. The proof
//! obligations:
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
//!    entry keeps its `level_and_slot` residence: the occupancy bitmaps
//!    stay exact, [`TimerWheel::front`] stays the wheel's minimum after
//!    every cursor move, and [`TimerWheel::next_time`] stays a pure
//!    recomputation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels; 64^11 ≥ 2^64 so any `u64` deadline fits.
const LEVELS: usize = 11;
/// Entries per chunk. A slot's storage is whole chunks, so it holds at
/// most `CHUNK - 1` unused places, and the wheel's slot storage stays
/// within its peak pending count plus `CHUNK` per occupied slot. A chunk
/// is made once and recycled through the free list, so a steady schedule
/// runs allocation-free once its busiest moment has been seen.
const CHUNK: usize = 64;
/// The end of a chunk list (a slot's or the free list).
const NIL: u32 = u32::MAX;
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

/// Up to [`CHUNK`] entries of one slot, linked to the slot's older chunks
/// — or, while free, to the next free chunk.
struct Chunk<T> {
    /// Reserved to exactly `CHUNK` when the chunk is made and never
    /// pushed past it, so it never reallocates.
    entries: Vec<Entry<T>>,
    /// The next chunk of the same list, or [`NIL`].
    next: u32,
}

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
    /// Per slot, the first chunk of its list, or [`NIL`] while the slot is
    /// empty; index `level * SLOTS + slot`. Pushes fill the first chunk,
    /// and a full one gets a fresh chunk linked in front of it.
    heads: [u32; LEVELS * SLOTS],
    /// Every chunk made so far, indexed by the ids in `heads` and `next`.
    /// Each is on exactly one list: one occupied slot's, or the free one.
    chunks: Vec<Chunk<T>>,
    /// The first free chunk, or [`NIL`].
    free: u32,
    /// The ready run: one drained slot, sorted earliest-last so service
    /// is `Vec::pop` from the tail.
    run: Vec<Entry<T>>,
    /// Pushes at or below `horizon`, earliest on top.
    heap: BinaryHeap<Entry<T>>,
    /// The last deadline of the most recently drained slot. Every wheel
    /// entry is later; every run and heap entry is at or below it.
    horizon: u64,
    /// Deterministic allocation counter: one per chunk made, and one per
    /// growth of the chunk table, the run or the heap (each growth is
    /// one heap reallocation). Zero in steady state — the ledger reports
    /// it per event.
    grow_events: u64,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            elapsed: 0,
            len: 0,
            levels: 0,
            occupied: [0; LEVELS],
            heads: [NIL; LEVELS * SLOTS],
            chunks: Vec::new(),
            free: NIL,
            run: Vec::new(),
            heap: BinaryHeap::new(),
            horizon: 0,
            grow_events: 0,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// How many heap allocations the wheel has made since construction:
    /// chunks made plus chunk-table, run and heap growths. Deterministic:
    /// depends only on the schedule, never on wall-clock or addresses.
    #[inline]
    pub(crate) fn grow_events(&self) -> u64 {
        self.grow_events
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

    #[inline]
    fn chunk(&self, c: u32) -> &Chunk<T> {
        self.chunks
            .get(c as usize)
            .expect("invariant: every chunk id on a list indexes `chunks`")
    }

    #[inline]
    fn chunk_mut(&mut self, c: u32) -> &mut Chunk<T> {
        self.chunks
            .get_mut(c as usize)
            .expect("invariant: every chunk id on a list indexes `chunks`")
    }

    /// The chunks of the list that starts at `head`, in list order.
    fn list(&self, head: u32) -> impl Iterator<Item = &Chunk<T>> {
        std::iter::successors((head != NIL).then(|| self.chunk(head)), |c| {
            (c.next != NIL).then(|| self.chunk(c.next))
        })
    }

    /// How many entries the list that starts at `head` holds.
    fn list_len(&self, head: u32) -> usize {
        self.list(head).map(|c| c.entries.len()).sum()
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
        let idx = level * SLOTS + slot;
        let head = *self
            .heads
            .get(idx)
            .expect("invariant: level < LEVELS and slot < SLOTS, so the flat index is in range");
        let c = if head != NIL && self.chunk(head).entries.len() < CHUNK {
            head
        } else {
            self.link_chunk(idx, head)
        };
        self.chunk_mut(c).entries.push(e);
    }

    /// Put a free chunk — made now if the free list is empty — in front
    /// of slot `idx`'s list, whose first chunk is `head`, and return it.
    fn link_chunk(&mut self, idx: usize, head: u32) -> u32 {
        let c = if self.free != NIL {
            let c = self.free;
            self.free = self.chunk(c).next;
            c
        } else {
            // The chunk's buffer is one allocation; a full table grows
            // by one more.
            self.grow_events += 1 + u64::from(self.chunks.len() == self.chunks.capacity());
            let c = u32::try_from(self.chunks.len())
                .ok()
                .filter(|&c| c != NIL)
                .expect("invariant: fewer than 2^32 - 1 chunks, each holding a pending entry");
            self.chunks.push(Chunk {
                entries: Vec::with_capacity(CHUNK),
                next: NIL,
            });
            c
        };
        self.chunk_mut(c).next = head;
        *self
            .heads
            .get_mut(idx)
            .expect("invariant: level < LEVELS and slot < SLOTS, so the flat index is in range") =
            c;
        c
    }

    /// Give emptied chunk `c` to the free list; returns the chunk that
    /// followed it on its slot's list.
    #[inline]
    fn free_chunk(&mut self, c: u32) -> u32 {
        let free = self.free;
        self.free = c;
        std::mem::replace(&mut self.chunk_mut(c).next, free)
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
                // A slot mixes deadlines; scan its chunks. Once per run:
                // the next pop drains or cascades this slot.
                let (level, slot) = self.front()?;
                let head = *self.heads.get(level * SLOTS + slot).expect(
                    "invariant: level < LEVELS and slot < SLOTS, so the flat index is in range",
                );
                self.list(head)
                    .flat_map(|c| &c.entries)
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
    /// Either way the slot's chunks go to the free list as they empty.
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
            let mut c = std::mem::replace(
                self.heads.get_mut(level * SLOTS + slot).expect(
                    "invariant: level < LEVELS and slot < SLOTS, so the flat index is in range",
                ),
                NIL,
            );
            let first = self.chunk(c);
            if level <= DRAIN_MAX_LEVEL || (first.next == NIL && first.entries.len() == 1) {
                // The run is empty here; make room for the whole slot at
                // once, so the appends below never reallocate.
                let n = self.list_len(c);
                if self.run.capacity() < n {
                    self.grow_events += 1;
                    self.run.reserve(n);
                }
                while c != NIL {
                    let chunk = self
                        .chunks
                        .get_mut(c as usize)
                        .expect("invariant: every chunk id on a list indexes `chunks`");
                    self.run.append(&mut chunk.entries);
                    c = self.free_chunk(c);
                }
                self.run.sort_unstable();
                self.horizon = self
                    .run
                    .first()
                    .expect("invariant: an occupied slot is never empty")
                    .when;
                return true;
            }
            // Every entry re-homes strictly below `level` (it now agrees
            // with `elapsed` on digit `level` and above), so this ends.
            // A chunk is off every list while its entries move, and free
            // for the next chunk's once they have.
            while c != NIL {
                let mut moved = std::mem::take(&mut self.chunk_mut(c).entries);
                for e in moved.drain(..) {
                    self.place(e);
                }
                self.chunk_mut(c).entries = moved;
                c = self.free_chunk(c);
            }
        }
        false
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
    fn same_deadline_push_during_batch_service_keeps_seq_order() {
        let mut w = TimerWheel::new();
        for seq in 0..4 {
            w.push(40, seq, seq as u32);
        }
        // First pop drains the slot into the run.
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
        assert_eq!(w.run.len(), n as usize - 1);
        w.push(base + 11, n, 1111); // ahead of the run's head
        w.push(base + 14, n + 1, 2222); // ties with seq 2, fires after it
        w.push(last, n + 2, 3333); // exactly on the run's last deadline
        w.push(last + 1, n + 3, 4444); // past it: the wheel's
        assert_eq!(
            w.run.len(),
            n as usize - 1,
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
        // is served straight from its coarse slot: the cursor stops on
        // that slot's block start and never steps down to a fine one.
        let coarse = 1u64 << ((DRAIN_MAX_LEVEL as u32 + 1) * LEVEL_BITS);
        let mut t = 0;
        for seq in 0..100 {
            t += 1_000_000;
            w.push(t, seq, 0u32);
            assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((t, seq)));
            assert_eq!(w.elapsed % coarse, 0, "cascaded below level 3 at {t}");
        }
        // Three entries sharing one level-3 slot (262 µs wide, under
        // cursor 0) are re-homed into three fine slots, and the first
        // pop drains only the first of those: the run does not hold the
        // other two.
        let mut w = TimerWheel::new();
        for seq in 0..3 {
            w.push(2_000_000 + 5_000 * seq, seq, 0u32);
        }
        assert_eq!(w.pop().map(|(a, b, _)| (a, b)), Some((2_000_000, 0)));
        assert!(w.run.is_empty());
        assert_eq!(w.len(), 2);
        assert_eq!(drain(&mut w), vec![(2_005_000, 1), (2_010_000, 2)]);
    }

    #[test]
    fn slab_and_allocation_counters_track_batches() {
        let mut w = TimerWheel::new();
        assert_eq!(w.grow_events(), 0, "a new wheel allocates nothing");
        // The first entry makes a chunk (its buffer) and grows the empty
        // chunk table: two allocations. The chunk takes CHUNK entries;
        // one more makes a second chunk, which the table has room for.
        for seq in 0..CHUNK as u64 {
            w.push(90, seq, 0u32);
        }
        assert_eq!((w.chunks.len(), w.grow_events()), (1, 2));
        w.push(90, CHUNK as u64, 0u32);
        assert_eq!((w.chunks.len(), w.grow_events()), (2, 3));
        // The first pop moves the whole slot into the empty run, which
        // grows once, and frees both chunks.
        assert_eq!(w.pop().map(|(_, s, _)| s), Some(0));
        assert_eq!(w.run.len(), CHUNK);
        assert_eq!(w.grow_events(), 4);
        assert_eq!(w.list(w.free).count(), 2, "both chunks are free");
        assert_eq!(drain(&mut w).len(), CHUNK);
        // A later burst of the same size, in another fine slot, reuses
        // both chunks and the run's capacity: nothing allocates.
        for seq in 0..=CHUNK as u64 {
            w.push(2_000, 1_000 + seq, 0u32);
        }
        assert_eq!(drain(&mut w).len(), CHUNK + 1);
        assert_eq!((w.chunks.len(), w.grow_events()), (2, 4));
    }

    /// Entry places the wheel holds: its chunks, the run and the heap.
    fn retained(w: &TimerWheel<u32>) -> usize {
        w.chunks.len() * CHUNK + w.run.capacity() + w.heap.capacity()
    }

    fn occupied_slots(w: &TimerWheel<u32>) -> usize {
        w.occupied.iter().map(|o| o.count_ones() as usize).sum()
    }

    #[test]
    fn retained_storage_is_bounded_by_what_is_pending() {
        // Lap after lap, a burst of 1 024 entries spread over eight
        // coarse (level-3, 262 µs) slots, drained before the next lap
        // schedules its burst a few slots further on: the laps walk every
        // level-3 slot, and a level-4 slot whenever a burst lies past the
        // cursor's 16.8 ms block. Storage kept per slot at its largest
        // fill would grow with every lap; chunks come back to the free
        // list as slots empty.
        let mut w = TimerWheel::new();
        let coarse = 1u64 << ((DRAIN_MAX_LEVEL as u32 + 1) * LEVEL_BITS);
        let (mut seq, mut peak_pending, mut peak_occupied) = (0u64, 0, 0);
        for lap in 0..40u64 {
            let now = w.elapsed.max(w.horizon);
            let first = (now / coarse + 1 + lap % 3) * coarse;
            for i in 0..1_024u64 {
                let slot = i % 8;
                let at = first + slot * coarse + (i / 8) * (coarse / 128) + 1;
                w.push(at, seq, 0);
                seq += 1;
                peak_pending = peak_pending.max(w.len());
                peak_occupied = peak_occupied.max(occupied_slots(&w));
            }
            while w.pop().is_some() {
                peak_occupied = peak_occupied.max(occupied_slots(&w));
            }
        }
        let bound = peak_pending + CHUNK * peak_occupied;
        assert!(
            retained(&w) <= bound,
            "{} entry places retained for a peak of {peak_pending} pending \
             over at most {peak_occupied} occupied slots (bound {bound})",
            retained(&w)
        );
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
