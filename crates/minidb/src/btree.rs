//! An in-memory B+tree with shadow-paging checkpoints.
//!
//! Between checkpoints the tree mutates nodes in place (in memory) and
//! tracks which are dirty. A checkpoint performs a *path copy*: every dirty
//! node that has an on-disk incarnation is written to a **fresh** page id,
//! parents are rewritten to point at the new ids, and the old pages are
//! queued for reuse only after the next superblock is durable. Live on-disk
//! pages are therefore never overwritten, which is what makes any
//! prefix-consistent storage cut recoverable (DESIGN.md §5).

use std::collections::VecDeque;

use tsuru_storage::BlockDevice;

use crate::io::{DbVol, IoRequest};
use crate::node::{Node, PageError, MAX_VALUE, PAGE_SIZE};

/// Allocates page ids; recycles pages freed by earlier checkpoints.
#[derive(Debug, Clone, Default)]
pub struct PageAllocator {
    next: u64,
    free: Vec<u64>,
    pending_free: Vec<u64>,
}

impl PageAllocator {
    /// An allocator whose first fresh page is `first_page`.
    pub fn new(first_page: u64) -> Self {
        PageAllocator {
            next: first_page,
            free: Vec::new(),
            pending_free: Vec::new(),
        }
    }

    /// Rebuild from superblock state.
    pub fn restore(next: u64, free: Vec<u64>) -> Self {
        PageAllocator {
            next,
            free,
            pending_free: Vec::new(),
        }
    }

    /// Allocate a page id.
    pub fn alloc(&mut self) -> u64 {
        self.free.pop().unwrap_or_else(|| {
            let id = self.next;
            self.next += 1;
            id
        })
    }

    /// Queue a page for reuse after the *next* checkpoint becomes durable
    /// (it may still be referenced by the current on-disk tree).
    pub fn free_later(&mut self, id: u64) {
        self.pending_free.push(id);
    }

    /// Called once the checkpoint superblock has been emitted: pages freed
    /// by that checkpoint become allocatable.
    pub fn promote_pending(&mut self) {
        self.free.append(&mut self.pending_free);
    }

    /// Highest page id ever allocated plus one.
    pub fn next_page(&self) -> u64 {
        self.next
    }

    /// Currently reusable page ids (persisted in the superblock).
    pub fn free_list(&self) -> &[u64] {
        &self.free
    }
}

/// One resident node and its checkpoint state.
#[derive(Debug)]
struct Slot {
    node: Node,
    /// Changed since the last checkpoint.
    dirty: bool,
    /// The last checkpoint wrote this node under this page id, so the next
    /// one must move it to a fresh page instead of overwriting it.
    on_disk: bool,
}

/// The child at `idx` of an internal node's child list.
fn child_at(children: &[u64], idx: usize) -> u64 {
    *children
        .get(idx)
        .expect("invariant: an internal node has one more child than keys")
}

/// The B+tree.
///
/// Nodes live in a table indexed by page id — the allocator mints ids
/// densely from a counter and the database asserts them below
/// `data_blocks` at every checkpoint — so following a child pointer is an
/// array read. A page id that names no resident node is a vacant slot.
#[derive(Debug)]
pub struct BTree {
    slots: Vec<Option<Slot>>,
    root: u64,
}

impl BTree {
    /// A new tree with a single empty leaf as root.
    pub fn new(alloc: &mut PageAllocator) -> Self {
        let root = alloc.alloc();
        let mut tree = BTree {
            slots: Vec::new(),
            root,
        };
        tree.place(root, Node::empty_leaf(), false);
        tree
    }

    /// Root page id.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Number of nodes currently cached (== all nodes; the tree is fully
    /// memory-resident).
    pub fn node_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Ids of the pages holding a node, ascending.
    pub fn page_ids(&self) -> Vec<u64> {
        (0u64..)
            .zip(&self.slots)
            .filter_map(|(id, s)| s.as_ref().map(|_| id))
            .collect()
    }

    /// Are there unflushed changes?
    pub fn is_dirty(&self) -> bool {
        self.slots.iter().flatten().any(|s| s.dirty)
    }

    /// The slot of page `id`, if a node is resident under that id.
    fn resident(&self, id: u64) -> Option<&Slot> {
        self.slots.get(id as usize)?.as_ref()
    }

    fn slot(&self, id: u64) -> &Slot {
        self.resident(id)
            .expect("invariant: every page id the tree holds names a resident node")
    }

    fn slot_mut(&mut self, id: u64) -> &mut Slot {
        self.slots
            .get_mut(id as usize)
            .and_then(Option::as_mut)
            .expect("invariant: every page id the tree holds names a resident node")
    }

    fn node(&self, id: u64) -> &Node {
        &self.slot(id).node
    }

    /// Make `node` resident under the vacant page id `id`; a node is born
    /// dirty unless it was just read from disk.
    fn place(&mut self, id: u64, node: Node, on_disk: bool) {
        let at = id as usize;
        if self.slots.len() <= at {
            self.slots.resize_with(at + 1, || None);
        }
        let slot = self
            .slots
            .get_mut(at)
            .expect("invariant: the table was just grown past this id");
        debug_assert!(slot.is_none(), "page {id} placed over a resident node");
        *slot = Some(Slot {
            node,
            dirty: !on_disk,
            on_disk,
        });
    }

    // ----- reads -------------------------------------------------------------

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Leaf(leaf) => return leaf.get(key),
                Node::Internal { keys, children } => {
                    id = child_at(children, keys.partition_point(|&k| k <= key));
                }
            }
        }
    }

    /// All `(key, value)` pairs with `lo <= key <= hi`, in key order, the
    /// values borrowed from the leaves.
    pub fn scan_range(&self, lo: u64, hi: u64) -> Vec<(u64, &[u8])> {
        let mut out = Vec::new();
        self.scan_into(self.root, lo, hi, &mut out);
        out
    }

    fn scan_into<'t>(&'t self, id: u64, lo: u64, hi: u64, out: &mut Vec<(u64, &'t [u8])>) {
        match self.node(id) {
            Node::Leaf(leaf) => out.extend(leaf.range(lo, hi)),
            Node::Internal { keys, children } => {
                let first = keys.partition_point(|&k| k <= lo);
                let last = keys.partition_point(|&k| k <= hi);
                let covered = children
                    .get(first..=last)
                    .expect("invariant: an internal node has one more child than keys");
                for &child in covered {
                    self.scan_into(child, lo, hi, out);
                }
            }
        }
    }

    /// Total number of entries (walks the tree; for tests and stats).
    pub fn len(&self) -> usize {
        fn count(t: &BTree, id: u64) -> usize {
            match t.node(id) {
                Node::Leaf(leaf) => leaf.len(),
                Node::Internal { children, .. } => {
                    children.iter().map(|&c| count(t, c)).sum()
                }
            }
        }
        count(self, self.root)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----- writes ------------------------------------------------------------

    /// Insert or overwrite a key; the leaf keeps a copy of `value`.
    ///
    /// # Panics
    /// Panics if `value` exceeds [`MAX_VALUE`] bytes.
    pub fn put(&mut self, alloc: &mut PageAllocator, key: u64, value: &[u8]) {
        assert!(
            value.len() <= MAX_VALUE,
            "value of {} bytes exceeds MAX_VALUE ({MAX_VALUE})",
            value.len()
        );
        if let Some((sep, right)) = self.insert_rec(self.root, key, value, alloc) {
            // Root split: grow the tree by one level.
            let new_root = alloc.alloc();
            let node = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.place(new_root, node, false);
            self.root = new_root;
        }
    }

    /// Returns `Some((separator, new_right_id))` if the child split.
    fn insert_rec(
        &mut self,
        id: u64,
        key: u64,
        value: &[u8],
        alloc: &mut PageAllocator,
    ) -> Option<(u64, u64)> {
        let slot = self.slot_mut(id);
        slot.dirty = true;
        let (idx, child) = match &mut slot.node {
            Node::Leaf(leaf) => {
                leaf.put(key, value);
                return self.maybe_split(id, alloc);
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= key);
                (idx, child_at(children, idx))
            }
        };
        if let Some((sep, right)) = self.insert_rec(child, key, value, alloc) {
            let slot = self.slot_mut(id);
            if let Node::Internal { keys, children } = &mut slot.node {
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
            }
        }
        self.maybe_split(id, alloc)
    }

    /// Split `id` if it overflows a page; returns the promotion.
    fn maybe_split(&mut self, id: u64, alloc: &mut PageAllocator) -> Option<(u64, u64)> {
        let slot = self.slot_mut(id);
        if slot.node.serialized_size() <= PAGE_SIZE {
            return None;
        }
        slot.dirty = true;
        let (sep, right) = match &mut slot.node {
            Node::Leaf(leaf) => {
                let (sep, right) = leaf.split();
                (sep, Node::Leaf(right))
            }
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                // `sep` moves up, not right.
                let sep = keys
                    .pop()
                    .expect("invariant: an overflowing internal node has keys on both sides");
                let right_children = children.split_off(mid + 1);
                (
                    sep,
                    Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    },
                )
            }
        };
        let right_id = alloc.alloc();
        self.place(right_id, right, false);
        Some((sep, right_id))
    }

    /// Remove a key; returns whether it existed. Leaves are not rebalanced
    /// on underflow (acceptable for the simulated working-set sizes; space
    /// is reclaimed when a checkpoint rewrites the page).
    pub fn delete(&mut self, key: u64) -> bool {
        let mut id = self.root;
        loop {
            let slot = self.slot_mut(id);
            match &mut slot.node {
                Node::Leaf(leaf) => {
                    let found = leaf.remove(key);
                    slot.dirty |= found;
                    return found;
                }
                Node::Internal { keys, children } => {
                    id = child_at(children, keys.partition_point(|&k| k <= key));
                }
            }
        }
    }

    /// Rebuild the tree densely from its own entries, queueing every old
    /// page for reuse. Deletions leave underfilled leaves behind (the tree
    /// does not merge); a rebuild followed by a checkpoint reclaims that
    /// space — the engine's `VACUUM`.
    pub fn rebuild(&mut self, alloc: &mut PageAllocator) {
        let old = std::mem::replace(self, BTree::new(alloc));
        for (id, slot) in (0u64..).zip(&old.slots) {
            if slot.as_ref().is_some_and(|s| s.on_disk) {
                alloc.free_later(id);
            }
        }
        // The old tree's entries in key order, copied into the new leaves.
        for (k, v) in old.scan_range(0, u64::MAX) {
            self.put(alloc, k, v);
        }
    }

    // ----- checkpoint / load ---------------------------------------------------

    /// Shadow-paging flush: serialize every dirty node (and every ancestor
    /// of a remapped node) to fresh page ids, stamping them with `lsn`.
    /// Returns the page writes and updates the root id.
    pub fn checkpoint_flush(&mut self, alloc: &mut PageAllocator, lsn: u64) -> Vec<IoRequest> {
        let mut ios = Vec::new();
        let root = self.root;
        // One scratch page serves every node flushed this checkpoint.
        let mut scratch = vec![0u8; crate::node::PAGE_SIZE];
        let (new_root, _) = self.flush_rec(root, alloc, lsn, &mut ios, &mut scratch);
        self.root = new_root;
        for slot in self.slots.iter_mut().flatten() {
            slot.dirty = false;
            slot.on_disk = true;
        }
        ios
    }

    /// Returns `(new_id, changed)`.
    fn flush_rec(
        &mut self,
        id: u64,
        alloc: &mut PageAllocator,
        lsn: u64,
        ios: &mut Vec<IoRequest>,
        scratch: &mut [u8],
    ) -> (u64, bool) {
        // Recurse into children first (post-order) so parents can pick up
        // remapped ids.
        let mut self_dirty = self.slot(id).dirty;
        let fanout = match self.node(id) {
            Node::Internal { children, .. } => children.len(),
            Node::Leaf { .. } => 0,
        };
        for i in 0..fanout {
            let Node::Internal { children, .. } = self.node(id) else {
                break;
            };
            let child = child_at(children, i);
            let (new_child, changed) = self.flush_rec(child, alloc, lsn, ios, scratch);
            if changed {
                if let Node::Internal { children, .. } = &mut self.slot_mut(id).node {
                    if let Some(c) = children.get_mut(i) {
                        *c = new_child;
                    }
                }
                self_dirty = true;
            }
        }
        if !self_dirty {
            return (id, false);
        }
        // Path copy: a node with an on-disk incarnation moves to a fresh
        // page; a node born since the last checkpoint keeps its id.
        let new_id = if self.slot(id).on_disk {
            let fresh = alloc.alloc();
            alloc.free_later(id);
            let moved = self
                .slots
                .get_mut(id as usize)
                .and_then(Option::take)
                .expect("invariant: every page id the tree holds names a resident node");
            self.place(fresh, moved.node, false);
            fresh
        } else {
            id
        };
        let used = self.node(new_id).serialize_into(new_id, lsn, scratch);
        // The page is the node's bytes and zeros after them: say so, and
        // its fingerprint is not searched for in the padding.
        let image = scratch
            .get(..used)
            .expect("invariant: a serialized node fits the page");
        ios.push(IoRequest {
            vol: DbVol::Data,
            lba: new_id,
            data: tsuru_storage::block_from(image),
        });
        // A rewritten node always reports "changed" so ancestors re-serialize
        // their (possibly updated) child lists.
        (new_id, true)
    }

    /// Load a tree from a device, starting at `root`. Every reachable page
    /// must be present and intact.
    pub fn load(dev: &dyn BlockDevice, root: u64) -> Result<(BTree, u64), PageError> {
        let mut tree = BTree {
            slots: Vec::new(),
            root,
        };
        let mut max_lsn = 0u64;
        let mut queue = VecDeque::from([root]);
        while let Some(id) = queue.pop_front() {
            if tree.resident(id).is_some() {
                return Err(PageError::BadStructure(id, "page referenced twice"));
            }
            // Page ids come off the disk: one past the end of the device
            // names no page, and must not size the node table.
            if id >= dev.size_blocks() {
                return Err(PageError::Missing(id));
            }
            let buf = dev.read_block(id).ok_or(PageError::Missing(id))?;
            let (node, lsn) = Node::deserialize(&buf, id)?;
            max_lsn = max_lsn.max(lsn);
            if let Node::Internal { children, .. } = &node {
                queue.extend(children.iter().copied());
            }
            tree.place(id, node, true);
        }
        Ok((tree, max_lsn))
    }

    /// Check structural invariants (tests and recovery verification):
    /// sorted keys, correct fan-out, separator ordering, key ranges.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_rec(self.root, None, None)?;
        Ok(())
    }

    fn validate_rec(&self, id: u64, lo: Option<u64>, hi: Option<u64>) -> Result<(), String> {
        let Some(slot) = self.resident(id) else {
            return Err(format!("node {id} missing"));
        };
        match &slot.node {
            Node::Leaf(leaf) => {
                leaf.check().map_err(|why| format!("leaf {id}: {why}"))?;
                for &k in leaf.keys() {
                    if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h) {
                        return Err(format!("leaf {id} key {k} outside range"));
                    }
                }
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(format!("internal {id} fan-out mismatch"));
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!("internal {id} keys not strictly sorted"));
                    }
                }
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                    self.validate_rec(child, clo, chi)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tsuru_storage::{BlockDeviceMut, MemDevice};

    fn tree() -> (BTree, PageAllocator) {
        let mut alloc = PageAllocator::new(1);
        let t = BTree::new(&mut alloc);
        (t, alloc)
    }

    #[test]
    fn put_get_overwrite_delete() {
        let (mut t, mut a) = tree();
        assert!(t.get(1).is_none());
        t.put(&mut a, 1, b"one");
        t.put(&mut a, 2, b"two");
        assert_eq!(t.get(1), Some(b"one".as_slice()));
        t.put(&mut a, 1, b"uno");
        assert_eq!(t.get(1), Some(b"uno".as_slice()));
        assert!(t.delete(1));
        assert!(!t.delete(1));
        assert!(t.get(1).is_none());
        assert_eq!(t.get(2), Some(b"two".as_slice()));
        t.validate().unwrap();
    }

    #[test]
    fn thousands_of_keys_split_correctly() {
        let (mut t, mut a) = tree();
        let n = 5000u64;
        for i in 0..n {
            // Insert in a scrambled order to exercise splits everywhere.
            let k = (i * 2_654_435_761) % n;
            t.put(&mut a, k, &k.to_le_bytes());
        }
        t.validate().unwrap();
        assert!(t.node_count() > 10, "tree must actually have split");
        for i in 0..n {
            assert_eq!(
                t.get(i),
                Some(i.to_le_bytes().as_slice()),
                "key {i} lost"
            );
        }
        assert_eq!(t.len(), n as usize);
    }

    #[test]
    fn large_values_split_by_bytes() {
        let (mut t, mut a) = tree();
        for i in 0..64u64 {
            t.put(&mut a, i, &[i as u8; 1000]);
        }
        t.validate().unwrap();
        for i in 0..64u64 {
            assert_eq!(t.get(i).unwrap().len(), 1000);
        }
    }

    #[test]
    #[should_panic(expected = "MAX_VALUE")]
    fn oversized_value_rejected() {
        let (mut t, mut a) = tree();
        t.put(&mut a, 1, &[0; MAX_VALUE + 1]);
    }

    #[test]
    fn range_scan_is_ordered_and_bounded() {
        let (mut t, mut a) = tree();
        for i in (0..1000u64).rev() {
            t.put(&mut a, i * 2, &[i as u8]);
        }
        let hits = t.scan_range(100, 200);
        let keys: Vec<u64> = hits.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (50..=100).map(|i| i * 2).collect::<Vec<_>>());
        // Full scan.
        assert_eq!(t.scan_range(0, u64::MAX).len(), 1000);
        // Empty scan.
        assert!(t.scan_range(1, 1).is_empty());
    }

    #[test]
    fn checkpoint_roundtrips_through_device() {
        let (mut t, mut a) = tree();
        for i in 0..2000u64 {
            t.put(&mut a, i, &(i * 7).to_le_bytes());
        }
        let ios = t.checkpoint_flush(&mut a, 99);
        assert!(!t.is_dirty());
        let mut dev = MemDevice::new(a.next_page());
        for io in &ios {
            assert_eq!(io.vol, DbVol::Data);
            dev.write_block(io.lba, &io.data);
        }
        let (loaded, max_lsn) = BTree::load(&dev, t.root()).unwrap();
        assert_eq!(max_lsn, 99);
        loaded.validate().unwrap();
        assert_eq!(loaded.len(), 2000);
        for i in 0..2000u64 {
            assert_eq!(loaded.get(i), Some((i * 7).to_le_bytes().as_slice()));
        }
    }

    #[test]
    fn shadow_paging_never_overwrites_live_pages() {
        let (mut t, mut a) = tree();
        for i in 0..500u64 {
            t.put(&mut a, i, &[1]);
        }
        let ios1 = t.checkpoint_flush(&mut a, 1);
        let gen1_pages: BTreeSet<u64> = ios1.iter().map(|io| io.lba).collect();
        a.promote_pending(); // superblock 1 is durable

        // Modify a fraction of the keys and checkpoint again.
        for i in 0..50u64 {
            t.put(&mut a, i, &[2]);
        }
        let ios2 = t.checkpoint_flush(&mut a, 2);
        let gen2_pages: BTreeSet<u64> = ios2.iter().map(|io| io.lba).collect();
        // No page of checkpoint 2 overwrites a live page of checkpoint 1.
        assert!(
            gen1_pages.is_disjoint(&gen2_pages),
            "checkpoint 2 overwrote live checkpoint-1 pages: {:?}",
            gen1_pages.intersection(&gen2_pages).collect::<Vec<_>>()
        );
        // And checkpoint 1's image alone is still fully loadable.
        let mut dev = MemDevice::new(a.next_page());
        for io in ios1.iter() {
            dev.write_block(io.lba, &io.data);
        }
        let root1 = ios1.last().expect("non-empty").lba; // root is written last (post-order)
        let (loaded, _) = BTree::load(&dev, root1).unwrap();
        loaded.validate().unwrap();
        assert_eq!(loaded.len(), 500);
    }

    #[test]
    fn incremental_checkpoint_only_rewrites_dirty_paths() {
        let (mut t, mut a) = tree();
        for i in 0..3000u64 {
            t.put(&mut a, i, &[0u8; 32]);
        }
        let full = t.checkpoint_flush(&mut a, 1).len();
        a.promote_pending();
        // One point update: only the leaf path should be rewritten.
        t.put(&mut a, 1500, &[9u8; 32]);
        let incremental = t.checkpoint_flush(&mut a, 2).len();
        assert!(
            incremental <= 4,
            "point update rewrote {incremental} pages (expected a root-to-leaf path)"
        );
        assert!(incremental < full / 10);
    }

    /// Page ids of the resident nodes and of those flagged on-disk.
    fn table(t: &BTree) -> (BTreeSet<u64>, BTreeSet<u64>) {
        let ids = |keep: fn(&Slot) -> bool| {
            t.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.as_ref().is_some_and(keep))
                .map(|(i, _)| i as u64)
                .collect()
        };
        (ids(|_| true), ids(|s| s.on_disk))
    }

    /// Page ids reachable from the root.
    fn reachable(t: &BTree) -> BTreeSet<u64> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![t.root()];
        while let Some(id) = stack.pop() {
            assert!(seen.insert(id), "page {id} reachable twice");
            if let Node::Internal { children, .. } = t.node(id) {
                stack.extend(children);
            }
        }
        seen
    }

    /// The node table through a tree's whole life: splits fill it, a
    /// checkpoint's path copy vacates every moved id, and a rebuild frees
    /// exactly the on-disk pages. At every step the resident ids are the
    /// ids reachable from the root — no orphan slots, no dangling children.
    #[test]
    fn node_table_tracks_split_path_copy_and_rebuild() {
        let (mut t, mut a) = tree();
        for i in 0..2000u64 {
            t.put(&mut a, i, &[7u8; 40]);
        }
        let (live, on_disk) = table(&t);
        assert!(live.len() > 10, "tree must have split");
        assert_eq!(live, reachable(&t));
        assert_eq!(t.node_count(), live.len());
        assert!(on_disk.is_empty(), "nothing is on disk before a checkpoint");
        assert!(t.is_dirty());

        // First checkpoint: every node is new, so none moves.
        let ios = t.checkpoint_flush(&mut a, 1);
        a.promote_pending();
        let (live1, on_disk1) = table(&t);
        assert_eq!(live1, live);
        assert_eq!(
            on_disk1, live1,
            "a checkpoint leaves exactly the live ids on disk"
        );
        assert_eq!(ios.iter().map(|io| io.lba).collect::<BTreeSet<_>>(), live1);
        assert!(!t.is_dirty());

        // Point updates, then a checkpoint: each rewritten node moves to a
        // fresh id and its old slot is vacated.
        let root1 = t.root();
        for i in (0..2000u64).step_by(400) {
            t.put(&mut a, i, &[9u8; 40]);
        }
        let ios = t.checkpoint_flush(&mut a, 2);
        let moved_to: BTreeSet<u64> = ios.iter().map(|io| io.lba).collect();
        let (live2, on_disk2) = table(&t);
        assert_eq!(live2, reachable(&t));
        assert_eq!(on_disk2, live2);
        assert_eq!(
            live2.len(),
            live1.len(),
            "a path copy moves nodes, it adds none"
        );
        let vacated: BTreeSet<u64> = live1.difference(&live2).copied().collect();
        assert_eq!(vacated.len(), moved_to.len());
        assert!(vacated.contains(&root1) && t.resident(root1).is_none());
        assert!(
            moved_to.is_disjoint(&live1),
            "live pages are never overwritten"
        );
        assert!(moved_to.is_subset(&live2));
        a.promote_pending();
        assert_eq!(
            a.free_list().iter().copied().collect::<BTreeSet<_>>(),
            vacated,
            "the vacated ids are what the allocator may hand out next"
        );

        // Rebuild: every on-disk page is queued for reuse, the new tree
        // holds the same entries in fresh slots.
        let before: Vec<(u64, Vec<u8>)> = t
            .scan_range(0, u64::MAX)
            .into_iter()
            .map(|(k, v)| (k, v.to_vec()))
            .collect();
        t.rebuild(&mut a);
        let (live3, on_disk3) = table(&t);
        assert_eq!(live3, reachable(&t));
        assert!(on_disk3.is_empty());
        let before: Vec<(u64, &[u8])> = before.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        assert_eq!(t.scan_range(0, u64::MAX), before);
        t.validate().unwrap();
        let _ = t.checkpoint_flush(&mut a, 3);
        a.promote_pending();
        let free: BTreeSet<u64> = a.free_list().iter().copied().collect();
        assert!(
            live2.is_subset(&free),
            "the old generation is reusable after the rebuild"
        );
    }

    /// A node's byte size is read off its packing (three lengths for a
    /// leaf), which follows inserts, overwrites that grow and shrink a
    /// value, deletes, leaf and internal splits, a checkpoint's path copy, a
    /// load and a rebuild — `validate` checks every leaf's packing, and each
    /// checkpointed page ends where the size says. Negative control: a
    /// value end knocked off by one is reported.
    #[test]
    fn tracked_node_sizes_follow_every_change() {
        let (mut t, mut a) = tree();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..6_000u64 {
            let key = next() % 900;
            match next() % 4 {
                0 => drop(t.delete(key)),
                _ => t.put(&mut a, key, &vec![round as u8; (next() % 700) as usize]),
            }
            if round % 500 == 0 {
                t.validate().unwrap();
            }
        }
        t.validate().unwrap();
        assert!(t.node_count() > 20, "leaves and internal nodes have split");
        let ios = t.checkpoint_flush(&mut a, 1);
        a.promote_pending();
        t.validate().unwrap();
        for io in &ios {
            // The image is the node's bytes, then zeros.
            let used = t.node(io.lba).serialized_size();
            assert!(io.data[used..].iter().all(|&b| b == 0));
        }
        let mut dev = MemDevice::new(a.next_page());
        for io in &ios {
            dev.write_block(io.lba, &io.data);
        }
        let (loaded, _) = BTree::load(&dev, t.root()).unwrap();
        loaded.validate().unwrap();
        t.put(&mut a, 5, &[1; 10]);
        let _ = t.checkpoint_flush(&mut a, 2);
        t.rebuild(&mut a);
        t.validate().unwrap();

        let leaf = t
            .slots
            .iter_mut()
            .flatten()
            .find_map(|s| match &mut s.node {
                Node::Leaf(leaf) if !leaf.is_empty() => Some(leaf),
                _ => None,
            })
            .expect("the tree holds entries");
        leaf.knock_last_end();
        let err = t.validate().unwrap_err();
        assert!(err.contains("value ends"), "{err}");
    }

    /// A child pointer read off the disk that names no block of the device
    /// is a missing page; it must not size the node table.
    #[test]
    fn load_rejects_page_ids_past_the_device() {
        let mut dev = MemDevice::new(4);
        let node = Node::Internal {
            keys: vec![10],
            children: vec![2, u64::MAX / 2],
        };
        dev.write_block(1, &node.serialize(1, 0));
        dev.write_block(2, &Node::empty_leaf().serialize(2, 0));
        assert!(matches!(
            BTree::load(&dev, 1),
            Err(PageError::Missing(p)) if p == u64::MAX / 2
        ));
        assert!(matches!(BTree::load(&dev, 4), Err(PageError::Missing(4))));
    }

    #[test]
    fn allocator_recycles_after_promote() {
        let mut a = PageAllocator::new(10);
        let p1 = a.alloc();
        assert_eq!(p1, 10);
        a.free_later(p1);
        // Not yet reusable.
        assert_eq!(a.alloc(), 11);
        a.promote_pending();
        assert_eq!(a.alloc(), 10);
        assert_eq!(a.next_page(), 12);
    }

    #[test]
    fn load_detects_missing_and_corrupt_pages() {
        let (mut t, mut a) = tree();
        for i in 0..300u64 {
            t.put(&mut a, i, &[0u8; 64]);
        }
        let ios = t.checkpoint_flush(&mut a, 5);
        let mut dev = MemDevice::new(a.next_page());
        for io in &ios {
            dev.write_block(io.lba, &io.data);
        }
        // Corrupt one page.
        let victim = ios[0].lba;
        dev.corrupt(victim, 100);
        assert!(matches!(
            BTree::load(&dev, t.root()),
            Err(PageError::BadChecksum(p)) if p == victim
        ));
        // Drop it entirely.
        dev.drop_block(victim);
        assert!(matches!(
            BTree::load(&dev, t.root()),
            Err(PageError::Missing(p)) if p == victim
        ));
    }

    #[test]
    fn empty_tree_checkpoint_and_reload() {
        let (mut t, mut a) = tree();
        let ios = t.checkpoint_flush(&mut a, 0);
        assert_eq!(ios.len(), 1); // just the empty root leaf
        let mut dev = MemDevice::new(a.next_page());
        for io in &ios {
            dev.write_block(io.lba, &io.data);
        }
        let (loaded, _) = BTree::load(&dev, t.root()).unwrap();
        assert!(loaded.is_empty());
    }
}
