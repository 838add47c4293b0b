//! The sparse block store's index: block address → `u32` handle.
//!
//! A volume and a snapshot each keep their block payloads in a plain
//! `Vec`, appended to and cleared whole, never freed one by one, so a
//! block's index in that `Vec` is its handle for as long as the store
//! lives. [`LbaIndex`] maps a block address to that handle, and
//! `push_handle` mints it. Both are pure functions of the writes made, so
//! replays are byte-identical.

use std::collections::BTreeMap;

/// The first handle [`push_handle`] never mints: `u32::MAX` marks a vacant
/// [`LbaIndex`] slot, and the value below it is left to the index's users
/// (a snapshot's "unwritten when taken").
pub(crate) const FIRST_RESERVED: u32 = u32::MAX - 1;

/// Append `value` to `store` and return its index as a handle for an
/// [`LbaIndex`].
///
/// # Panics
/// Panics if the store already holds [`FIRST_RESERVED`] values, so no
/// index can mint a reserved slot value.
pub(crate) fn push_handle<T>(store: &mut Vec<T>, value: T) -> u32 {
    let h = u32::try_from(store.len())
        .ok()
        .filter(|&h| h < FIRST_RESERVED)
        .expect("invariant: a block store holds fewer than u32::MAX - 1 blocks");
    store.push(value);
    h
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
}
