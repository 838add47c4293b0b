//! The packed leaf against the layout it replaced.
//!
//! A leaf used to be a `Vec<(u64, Vec<u8>)>` — one heap object per row —
//! with its serialized size tracked beside it. It is now three vectors
//! (keys, value ends, value bytes; DESIGN.md §26), and nothing observable
//! may have moved: the entries, the split points, the serialized pages and
//! the node sizes the tree splits by. [`model`] is the old leaf code,
//! verbatim from `node.rs` and `btree.rs` (the leaf arms of insert, split,
//! delete, size, serialize and deserialize), and two properties drive the
//! new code beside it:
//!
//! - one leaf through random inserts, overwrites that grow and shrink a
//!   value, deletes, splits (forced, and whenever it overflows a page,
//!   keeping either half) and serialize/deserialize round trips — after
//!   every step the same entries, the same size, and the same page bytes;
//! - a tree through random puts and deletes, then `rebuild`: the same
//!   checkpoint images as a fresh tree fed the entries in key order, which
//!   is what the old `rebuild` did.
//!
//! Mutation check (done by hand when this test was written): with the
//! split's rebase of the right half's value ends off by one byte, the leaf
//! property fails within its first cases.

use proptest::prelude::*;
use tsuru_minidb::{BTree, Node, PageAllocator, MAX_VALUE, PAGE_SIZE};

/// The leaf before it was packed, verbatim but for the wrapper type.
mod model {
    use tsuru_minidb::{crc32, crc32_update, PAGE_SIZE};

    const NODE_HEADER: usize = 28;
    const LEAF_ENTRY_HEADER: usize = 12;
    const NODE_MAGIC: u32 = 0x5442_5452; // "TBTR"
    const KIND_LEAF: u8 = 1;
    const CRC_OFFSET: usize = 24;

    /// Sorted `(key, value)` entries and their tracked serialized size.
    #[derive(Debug, Clone)]
    pub struct Leaf {
        pub entries: Vec<(u64, Vec<u8>)>,
        pub bytes: usize,
    }

    impl Leaf {
        pub fn new() -> Self {
            Leaf {
                entries: Vec::new(),
                bytes: NODE_HEADER,
            }
        }

        pub fn serialized_size(&self) -> usize {
            NODE_HEADER
                + self
                    .entries
                    .iter()
                    .map(|(_, v)| LEAF_ENTRY_HEADER + v.len())
                    .sum::<usize>()
        }

        /// `BTree::insert_rec`, leaf arm.
        pub fn put(&mut self, key: u64, value: Vec<u8>) {
            let entries = &mut self.entries;
            match entries.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(i) => {
                    let held = &mut entries
                        .get_mut(i)
                        .expect("invariant: binary_search found the key at i")
                        .1;
                    self.bytes = self.bytes - held.len() + value.len();
                    *held = value;
                }
                Err(i) => {
                    self.bytes += LEAF_ENTRY_HEADER + value.len();
                    entries.insert(i, (key, value));
                }
            }
        }

        /// `BTree::maybe_split`, leaf arm (without the overflow check).
        pub fn split(&mut self) -> (u64, Leaf) {
            let entries = &mut self.entries;
            // Split at the byte midpoint so variably-sized values
            // balance reasonably.
            let total = self.bytes - NODE_HEADER;
            let mut acc = 0usize;
            let mut cut = entries.len() / 2;
            for (i, (_, v)) in entries.iter().enumerate() {
                acc += LEAF_ENTRY_HEADER + v.len();
                if acc * 2 >= total {
                    cut = (i + 1).min(entries.len() - 1).max(1);
                    break;
                }
            }
            let right_entries = entries.split_off(cut);
            let sep = right_entries
                .first()
                .expect("invariant: an overflowing leaf splits into two non-empty halves")
                .0;
            // A split walks the node anyway: measure what stayed.
            self.bytes = self.serialized_size();
            let mut right = Leaf {
                entries: right_entries,
                bytes: 0,
            };
            right.bytes = right.serialized_size();
            (sep, right)
        }

        /// `BTree::delete`, leaf arm.
        pub fn delete(&mut self, key: u64) -> bool {
            let entries = &mut self.entries;
            let Ok(i) = entries.binary_search_by_key(&key, |(k, _)| *k) else {
                return false;
            };
            let (_, value) = entries.remove(i);
            self.bytes -= LEAF_ENTRY_HEADER + value.len();
            true
        }

        /// `Node::serialize_into`, leaf arm.
        pub fn serialize(&self, page_id: u64, lsn: u64) -> Vec<u8> {
            let mut buf = vec![0u8; PAGE_SIZE];
            assert!(
                self.serialized_size() <= PAGE_SIZE,
                "node for page {page_id} overflows the page"
            );
            put(&mut buf, 0, &NODE_MAGIC.to_le_bytes());
            let (kind, count) = (KIND_LEAF, self.entries.len() as u16);
            put(&mut buf, 4, &[kind]);
            put(&mut buf, 6, &count.to_le_bytes());
            put(&mut buf, 8, &page_id.to_le_bytes());
            put(&mut buf, 16, &lsn.to_le_bytes());
            let mut pos = NODE_HEADER;
            for (k, v) in &self.entries {
                put(&mut buf, pos, &k.to_le_bytes());
                put(&mut buf, pos + 8, &(v.len() as u32).to_le_bytes());
                put(&mut buf, pos + LEAF_ENTRY_HEADER, v);
                pos += LEAF_ENTRY_HEADER + v.len();
            }
            let crc = crc32(&buf);
            put(&mut buf, CRC_OFFSET, &crc.to_le_bytes());
            buf
        }

        /// `Node::deserialize`, leaf arm (the page is known good).
        pub fn deserialize(buf: &[u8]) -> Leaf {
            let st = crc32_update(0xFFFF_FFFF, &buf[..CRC_OFFSET]);
            let st = crc32_update(st, &[0u8; 4]);
            let st = crc32_update(st, &buf[CRC_OFFSET + 4..]);
            let stored = u32::from_le_bytes(buf[CRC_OFFSET..CRC_OFFSET + 4].try_into().unwrap());
            assert_eq!(st ^ 0xFFFF_FFFF, stored);
            let count = u16::from_le_bytes(buf[6..8].try_into().expect("sized")) as usize;
            let mut pos = NODE_HEADER;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let k = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("sized"));
                let vlen =
                    u32::from_le_bytes(buf[pos + 8..pos + 12].try_into().expect("sized")) as usize;
                entries.push((k, buf[pos + 12..pos + 12 + vlen].to_vec()));
                pos += 12 + vlen;
            }
            let mut leaf = Leaf { entries, bytes: 0 };
            leaf.bytes = leaf.serialized_size();
            leaf
        }
    }

    fn put(buf: &mut [u8], at: usize, src: &[u8]) {
        buf.get_mut(at..at + src.len())
            .expect("invariant: serialized node fits the page (asserted by caller)")
            .copy_from_slice(src);
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Insert or overwrite `key` with `len` bytes of `fill`.
    Put(u64, usize, u8),
    Delete(u64),
    /// Split now (if the leaf has two entries), keeping the right half if
    /// `true`.
    Split(bool),
    /// Serialize both, compare the pages, carry on from what each
    /// deserializes to.
    RoundTrip,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        8 => (0u64..48, prop_oneof![0usize..40, 0..MAX_VALUE + 1], any::<u8>())
            .prop_map(|(k, len, fill)| Step::Put(k, len, fill)),
        3 => (0u64..48).prop_map(Step::Delete),
        1 => any::<bool>().prop_map(Step::Split),
        1 => Just(Step::RoundTrip),
    ];
    prop::collection::vec(step, 1..200)
}

/// The new leaf inside its node.
fn leaf(node: &mut Node) -> &mut tsuru_minidb::Leaf {
    match node {
        Node::Leaf(leaf) => leaf,
        Node::Internal { .. } => unreachable!("only leaves here"),
    }
}

/// Entries, size and (when it fits) page bytes agree.
fn same(node: &Node, model: &model::Leaf, what: &str) -> Result<(), String> {
    let Node::Leaf(packed) = node else {
        unreachable!("only leaves here")
    };
    let entries: Vec<(u64, &[u8])> = model
        .entries
        .iter()
        .map(|(k, v)| (*k, v.as_slice()))
        .collect();
    prop_assert_eq!(
        packed.iter().collect::<Vec<_>>(),
        entries,
        "entries after {}",
        what
    );
    prop_assert_eq!(packed.len(), model.entries.len());
    prop_assert_eq!(node.serialized_size(), model.bytes, "size after {}", what);
    prop_assert_eq!(
        model.bytes,
        model.serialized_size(),
        "the model tracks its size"
    );
    prop_assert!(packed.check().is_ok(), "packing after {}", what);
    if model.bytes <= PAGE_SIZE {
        prop_assert_eq!(
            node.serialize(7, 42),
            model.serialize(7, 42),
            "page after {}",
            what
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_leaf_matches_the_vec_of_vecs_leaf(steps in steps()) {
        let mut node = Node::empty_leaf();
        let mut model = model::Leaf::new();
        for (i, step) in steps.into_iter().enumerate() {
            let what = format!("step {i} {step:?}");
            let split_to = match step {
                Step::Put(key, len, fill) => {
                    let value = vec![fill; len];
                    leaf(&mut node).put(key, &value);
                    model.put(key, value);
                    // The tree splits whatever overflows a page.
                    (model.bytes > PAGE_SIZE).then_some(i % 2 == 0)
                }
                Step::Delete(key) => {
                    prop_assert_eq!(leaf(&mut node).remove(key), model.delete(key), "{}", what);
                    None
                }
                Step::Split(keep_right) => (model.entries.len() >= 2).then_some(keep_right),
                Step::RoundTrip => {
                    let page = node.serialize(3, 9);
                    prop_assert_eq!(&page, &model.serialize(3, 9));
                    let (back, lsn) = Node::deserialize(&page, 3).expect("a good page");
                    prop_assert_eq!(lsn, 9);
                    prop_assert_eq!(&back, &node);
                    node = back;
                    model = model::Leaf::deserialize(&page);
                    None
                }
            };
            same(&node, &model, &what)?;
            if let Some(keep_right) = split_to {
                let (sep, right) = leaf(&mut node).split();
                let (model_sep, model_right) = model.split();
                prop_assert_eq!(sep, model_sep, "separator at {}", what);
                let right = Node::Leaf(right);
                same(&node, &model, &format!("{what}, left half"))?;
                same(&right, &model_right, &format!("{what}, right half"))?;
                if keep_right {
                    node = right;
                    model = model_right;
                }
            }
        }
    }

    /// `rebuild` is the old one: a fresh tree fed every entry in key order.
    #[test]
    fn rebuild_equals_a_fresh_tree_fed_in_key_order(
        ops in prop::collection::vec((0u64..600, prop::option::of(0usize..300)), 1..800),
    ) {
        let mut alloc = PageAllocator::new(1);
        let mut tree = BTree::new(&mut alloc);
        for (key, len) in ops {
            match len {
                Some(len) => tree.put(&mut alloc, key, &vec![key as u8; len]),
                None => drop(tree.delete(key)),
            }
        }
        let entries: Vec<(u64, Vec<u8>)> =
            tree.scan_range(0, u64::MAX).into_iter().map(|(k, v)| (k, v.to_vec())).collect();
        let mut fresh_alloc = alloc.clone();
        let mut fresh = BTree::new(&mut fresh_alloc);
        for (k, v) in &entries {
            fresh.put(&mut fresh_alloc, *k, v);
        }
        tree.rebuild(&mut alloc);
        tree.validate()?;
        let images = |t: &mut BTree, a: &mut PageAllocator| -> Vec<(u64, Vec<u8>)> {
            t.checkpoint_flush(a, 5).into_iter().map(|io| (io.lba, io.data.to_vec())).collect()
        };
        prop_assert_eq!(images(&mut tree, &mut alloc), images(&mut fresh, &mut fresh_alloc));
        prop_assert_eq!(tree.node_count(), fresh.node_count());
    }
}
