//! Dense-handle arenas: `Vec`-backed slabs behind `u32` handles.
//!
//! The metro-scale world keeps hot per-entity state out of pointer-chasing
//! maps: entities get dense `u32` handles into contiguous slabs, so the
//! engine's persist/apply loops walk arrays instead of `BTreeMap` nodes.
//! Two deliberate properties keep the arenas deterministic and panic-lean:
//!
//! - **LIFO handle reuse.** Freed handles go on a free list and the most
//!   recently freed handle is handed out first. Allocation order is a pure
//!   function of the insert/remove sequence — no hashing, no randomness —
//!   so replays are byte-identical.
//! - **Vacancy is explicit.** `get` on a vacant or out-of-range handle
//!   returns `None` rather than panicking; the indexed accessors used on
//!   hot paths (`slot`) document their invariant instead of `unwrap`ing.
//!
//! [`LbaIndex`] is the other half of a sparse block store: the map from a
//! block address to the arena handle holding its payload.

use std::collections::BTreeMap;

/// A slab of `T` addressed by dense `u32` handles with LIFO reuse.
///
/// Handles are *not* generation-tagged: a handle freed and reallocated
/// refers to the new occupant. Callers that retire handles must drop every
/// copy (the storage layer only frees handles at teardown points where no
/// references survive, e.g. volume wipe).
#[derive(Debug, Clone, Default)]
pub struct DenseArena<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> DenseArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        DenseArena { slots: Vec::new(), free: Vec::new(), len: 0 }
    }

    /// An empty arena with room for `cap` occupants before regrowth.
    pub fn with_capacity(cap: usize) -> Self {
        DenseArena { slots: Vec::with_capacity(cap), free: Vec::new(), len: 0 }
    }

    /// Number of live occupants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no occupant is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated (live + vacant); the high-water mark
    /// of the arena's footprint.
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Store `value`, returning its handle. Reuses the most recently freed
    /// slot if one exists, else appends.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if let Some(h) = self.free.pop() {
            let slot = self
                .slots
                .get_mut(h as usize)
                .expect("invariant: free list only holds handles minted by insert");
            debug_assert!(slot.is_none(), "free list pointed at a live slot");
            *slot = Some(value);
            return h;
        }
        let h = u32::try_from(self.slots.len())
            .expect("invariant: arena slot counts stay within u32 handle space");
        self.slots.push(Some(value));
        h
    }

    /// Remove and return the occupant of `h`, if live.
    pub fn remove(&mut self, h: u32) -> Option<T> {
        let v = self.slots.get_mut(h as usize)?.take()?;
        self.len -= 1;
        self.free.push(h);
        Some(v)
    }

    /// Borrow the occupant of `h`, if live.
    pub fn get(&self, h: u32) -> Option<&T> {
        self.slots.get(h as usize)?.as_ref()
    }

    /// Mutably borrow the occupant of `h`, if live.
    pub fn get_mut(&mut self, h: u32) -> Option<&mut T> {
        self.slots.get_mut(h as usize)?.as_mut()
    }

    /// Borrow the occupant of a handle the caller knows is live (hot-path
    /// accessor; the handle came out of an index the arena backs).
    pub fn slot(&self, h: u32) -> &T {
        self.get(h).expect("invariant: indexed handle refers to a live arena slot")
    }

    /// Mutable twin of [`DenseArena::slot`].
    pub fn slot_mut(&mut self, h: u32) -> &mut T {
        self.get_mut(h).expect("invariant: indexed handle refers to a live arena slot")
    }

    /// True when `h` refers to a live occupant.
    pub fn contains(&self, h: u32) -> bool {
        self.get(h).is_some()
    }

    /// Drop every occupant and forget all handles.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Iterate live `(handle, &value)` pairs in ascending handle order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }
}

/// Block addresses covered by one [`LbaIndex`] page.
pub const LBAS_PER_PAGE: u64 = 512;

/// Slot value of an address nothing was stored at.
const VACANT: u32 = u32::MAX;

/// A sparse `lba → u32` table: fixed-size pages of slots, reached through
/// an ordered map of page numbers.
///
/// A lookup is one search among the pages that exist (a 4 096-block volume
/// has at most eight, so the map is a single node) and one array read.
/// Pages are created by the first store into them, so memory follows the
/// addresses *written*, never `size_blocks` — which is operator input and
/// may be 2^40. The last page of the address space is cut to fit, so a
/// 64-block volume pays for 64 slots, not 512. Iteration is ascending by
/// address, the order the consistency checkers and initial copies rely on.
#[derive(Debug, Clone)]
pub struct LbaIndex {
    pages: BTreeMap<u64, Box<[u32]>>,
    size_blocks: u64,
    len: usize,
}

impl LbaIndex {
    /// An empty index over the addresses `0..size_blocks`.
    pub fn new(size_blocks: u64) -> Self {
        LbaIndex {
            pages: BTreeMap::new(),
            size_blocks,
            len: 0,
        }
    }

    /// Addresses holding a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no address holds a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages allocated so far (the index's footprint, 2 KiB each at most).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The value stored at `lba`, if any. Addresses past the end of the
    /// space hold nothing.
    pub fn get(&self, lba: u64) -> Option<u32> {
        let page = self.pages.get(&(lba / LBAS_PER_PAGE))?;
        let v = *page.get((lba % LBAS_PER_PAGE) as usize)?;
        (v != VACANT).then_some(v)
    }

    /// Store `value` at `lba`, returning the value it replaces.
    ///
    /// # Panics
    /// Panics if `lba` lies outside the address space or `value` is
    /// `u32::MAX`, which the table reserves for "vacant".
    pub fn insert(&mut self, lba: u64, value: u32) -> Option<u32> {
        assert!(
            lba < self.size_blocks,
            "lba {lba} outside the indexed address space"
        );
        assert_ne!(value, VACANT, "u32::MAX is reserved for vacant slots");
        let page_no = lba / LBAS_PER_PAGE;
        let span = (self.size_blocks - page_no * LBAS_PER_PAGE).min(LBAS_PER_PAGE);
        let page = self
            .pages
            .entry(page_no)
            .or_insert_with(|| vec![VACANT; span as usize].into_boxed_slice());
        let slot = page
            .get_mut((lba % LBAS_PER_PAGE) as usize)
            .expect("invariant: a page spans every in-range address that maps to it");
        let old = std::mem::replace(slot, value);
        if old == VACANT {
            self.len += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Forget every address and free every page.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.len = 0;
    }

    /// Iterate `(lba, value)` pairs in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.pages.iter().flat_map(|(&page_no, page)| {
            page.iter()
                .enumerate()
                .filter(|(_, &v)| v != VACANT)
                .map(move |(i, &v)| (page_no * LBAS_PER_PAGE + i as u64, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = DenseArena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_ne!(h1, h2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.remove(h1), Some("one"));
        assert_eq!(a.get(h1), None);
        assert_eq!(a.remove(h1), None);
        assert_eq!(a.len(), 1);
        assert_eq!(a.slot(h2), &"two");
    }

    #[test]
    fn freed_handles_are_reused_lifo() {
        let mut a = DenseArena::new();
        let h0 = a.insert(0);
        let h1 = a.insert(1);
        let h2 = a.insert(2);
        a.remove(h0);
        a.remove(h2);
        // Most recently freed first, then older frees, then fresh slots.
        assert_eq!(a.insert(20), h2);
        assert_eq!(a.insert(10), h0);
        let h3 = a.insert(3);
        assert_eq!(h3, 3);
        assert_eq!(a.capacity_slots(), 4);
        assert_eq!(a.get(h1), Some(&1));
    }

    #[test]
    fn iter_walks_live_slots_in_handle_order() {
        let mut a = DenseArena::new();
        let hs: Vec<u32> = (0..5).map(|i| a.insert(i * 10)).collect();
        a.remove(hs[1]);
        a.remove(hs[3]);
        let got: Vec<(u32, i32)> = a.iter().map(|(h, &v)| (h, v)).collect();
        assert_eq!(got, vec![(0, 0), (2, 20), (4, 40)]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut a = DenseArena::new();
        let h = a.insert(7);
        a.clear();
        assert!(a.is_empty());
        assert!(!a.contains(h));
        assert_eq!(a.capacity_slots(), 0);
        // Handles restart from zero after a clear.
        assert_eq!(a.insert(8), 0);
    }

    #[test]
    fn lba_index_pages_follow_the_addresses_written() {
        // Two full pages and a 76-slot tail.
        let size = 2 * LBAS_PER_PAGE + 76;
        let mut ix = LbaIndex::new(size);
        assert!(ix.is_empty());
        assert_eq!(ix.get(0), None);
        assert_eq!(ix.insert(LBAS_PER_PAGE, 7), None);
        assert_eq!(ix.page_count(), 1, "only the page written into exists");
        assert_eq!(ix.insert(LBAS_PER_PAGE, 8), Some(7));
        assert_eq!(ix.insert(size - 1, 9), None);
        assert_eq!(ix.insert(3, 0), None);
        assert_eq!((ix.len(), ix.page_count()), (3, 3));
        assert_eq!(ix.get(LBAS_PER_PAGE), Some(8));
        assert_eq!(ix.get(LBAS_PER_PAGE + 1), None);
        // Past the end — inside the tail page's number, outside its span.
        assert_eq!(ix.get(size), None);
        assert_eq!(ix.get(u64::MAX), None);
        let all: Vec<(u64, u32)> = ix.iter().collect();
        assert_eq!(all, vec![(3, 0), (LBAS_PER_PAGE, 8), (size - 1, 9)]);
        ix.clear();
        assert_eq!((ix.len(), ix.page_count()), (0, 0));
        assert_eq!(ix.get(3), None);
    }

    #[test]
    #[should_panic(expected = "outside the indexed address space")]
    fn lba_index_rejects_stores_past_the_end() {
        LbaIndex::new(10).insert(10, 1);
    }

    /// Deterministic pseudo-random op sequence: the arena must agree with a
    /// `BTreeMap<u32, u64>` model keyed by the handles the arena mints.
    #[test]
    fn arena_matches_map_model_over_mixed_ops() {
        let mut arena = DenseArena::new();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..4096u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let op = x % 100;
            if op < 55 || model.is_empty() {
                let v = x ^ step;
                let h = arena.insert(v);
                assert!(model.insert(h, v).is_none(), "arena minted a live handle");
            } else {
                let pick = (x / 100) as usize % model.len();
                let &h = model.keys().nth(pick).expect("model non-empty");
                let v = model.remove(&h);
                assert_eq!(arena.remove(h), v);
            }
            assert_eq!(arena.len(), model.len());
        }
        let from_arena: BTreeMap<u32, u64> = arena.iter().map(|(h, &v)| (h, v)).collect();
        assert_eq!(from_arena, model);
    }
}
