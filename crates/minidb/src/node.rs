//! On-disk node format for the B+tree: one node per 4 KiB page.
//!
//! Layout (little-endian):
//! ```text
//! magic u32 | kind u8 | pad u8 | count u16 | page_id u64 | lsn u64 | crc u32
//! leaf body:     count × (key u64 | vlen u32 | value bytes)
//! internal body: count × key u64, then (count + 1) × child page-id u64
//! ```
//! The CRC covers the whole page with the CRC field zeroed, so any torn or
//! misdirected write is detected at load time.

use crate::checksum::{crc32, crc32_update};
use tsuru_storage::BLOCK_SIZE;

/// Page size (equals the storage block size: one page = one block write).
pub const PAGE_SIZE: usize = BLOCK_SIZE;
/// Node header size in bytes.
pub const NODE_HEADER: usize = 28;
/// Bytes a leaf entry takes before its value: key u64 | vlen u32.
pub const LEAF_ENTRY_HEADER: usize = 12;
/// Maximum value size accepted by the tree; keeps every leaf ≥ 3 entries.
pub const MAX_VALUE: usize = 1024;

const NODE_MAGIC: u32 = 0x5442_5452; // "TBTR"
const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;
const CRC_OFFSET: usize = 24;

/// A B+tree node, in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Sorted `(key, value)` entries.
    Leaf {
        /// Entries in strictly increasing key order.
        entries: Vec<(u64, Vec<u8>)>,
    },
    /// `keys.len() + 1` children; subtree `children[i]` holds keys
    /// `< keys[i]`, subtree `children[i+1]` holds keys `>= keys[i]`.
    Internal {
        /// Separator keys, strictly increasing.
        keys: Vec<u64>,
        /// Child page ids.
        children: Vec<u64>,
    },
}

/// Why a page failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// The block was never written.
    Missing(u64),
    /// CRC mismatch — torn or corrupted write.
    BadChecksum(u64),
    /// Magic/kind/self-id mismatch — the block is not the expected node.
    BadStructure(u64, &'static str),
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Missing(p) => write!(f, "page {p} missing"),
            PageError::BadChecksum(p) => write!(f, "page {p} failed checksum"),
            PageError::BadStructure(p, why) => write!(f, "page {p} malformed: {why}"),
        }
    }
}

impl std::error::Error for PageError {}

impl Node {
    /// An empty leaf.
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
        }
    }

    /// Serialized byte size (must stay ≤ [`PAGE_SIZE`]; the tree splits
    /// before that bound is exceeded).
    pub fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries } => {
                NODE_HEADER
                    + entries
                        .iter()
                        .map(|(_, v)| LEAF_ENTRY_HEADER + v.len())
                        .sum::<usize>()
            }
            Node::Internal { keys, children } => NODE_HEADER + keys.len() * 8 + children.len() * 8,
        }
    }

    /// Serialize into a full page image.
    ///
    /// # Panics
    /// Panics if the node exceeds the page (a tree-logic bug, not a runtime
    /// condition).
    pub fn serialize(&self, page_id: u64, lsn: u64) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.serialize_into(page_id, lsn, &mut buf);
        buf
    }

    /// Serialize into a caller-provided page buffer, overwriting it fully —
    /// a checkpoint reuses one scratch page for every flushed node instead
    /// of allocating per page. Returns [`Node::serialized_size`]: the image
    /// is that many bytes, then zeros.
    ///
    /// # Panics
    /// Panics if the node exceeds the page or `buf` is not page-sized.
    pub fn serialize_into(&self, page_id: u64, lsn: u64, buf: &mut [u8]) -> usize {
        assert!(
            self.serialized_size() <= PAGE_SIZE,
            "node for page {page_id} overflows the page"
        );
        assert_eq!(buf.len(), PAGE_SIZE, "page buffer must be page-sized");
        buf.fill(0);
        put(buf, 0, &NODE_MAGIC.to_le_bytes());
        let (kind, count) = match self {
            Node::Leaf { entries } => (KIND_LEAF, entries.len() as u16),
            Node::Internal { keys, .. } => (KIND_INTERNAL, keys.len() as u16),
        };
        put(buf, 4, &[kind]);
        put(buf, 6, &count.to_le_bytes());
        put(buf, 8, &page_id.to_le_bytes());
        put(buf, 16, &lsn.to_le_bytes());
        let mut pos = NODE_HEADER;
        match self {
            Node::Leaf { entries } => {
                for (k, v) in entries {
                    put(buf, pos, &k.to_le_bytes());
                    put(buf, pos + 8, &(v.len() as u32).to_le_bytes());
                    put(buf, pos + LEAF_ENTRY_HEADER, v);
                    pos += LEAF_ENTRY_HEADER + v.len();
                }
            }
            Node::Internal { keys, children } => {
                for k in keys {
                    put(buf, pos, &k.to_le_bytes());
                    pos += 8;
                }
                for c in children {
                    put(buf, pos, &c.to_le_bytes());
                    pos += 8;
                }
            }
        }
        let crc = crc32(buf);
        put(buf, CRC_OFFSET, &crc.to_le_bytes());
        pos
    }

    /// Deserialize a page image, verifying checksum and identity.
    /// Returns the node and its on-disk LSN.
    pub fn deserialize(buf: &[u8], expect_page: u64) -> Result<(Node, u64), PageError> {
        if buf.len() != PAGE_SIZE {
            return Err(PageError::BadStructure(expect_page, "short page"));
        }
        let stored_crc =
            u32::from_le_bytes(buf[CRC_OFFSET..CRC_OFFSET + 4].try_into().expect("sized"));
        // The CRC covers the page with its own field zeroed; stream over
        // the surrounding spans instead of building a zeroed copy.
        let st = crc32_update(0xFFFF_FFFF, &buf[..CRC_OFFSET]);
        let st = crc32_update(st, &[0u8; 4]);
        let st = crc32_update(st, &buf[CRC_OFFSET + 4..]);
        if st ^ 0xFFFF_FFFF != stored_crc {
            return Err(PageError::BadChecksum(expect_page));
        }
        if u32::from_le_bytes(buf[0..4].try_into().expect("sized")) != NODE_MAGIC {
            return Err(PageError::BadStructure(expect_page, "bad magic"));
        }
        let kind = buf[4];
        let count = u16::from_le_bytes(buf[6..8].try_into().expect("sized")) as usize;
        let page_id = u64::from_le_bytes(buf[8..16].try_into().expect("sized"));
        if page_id != expect_page {
            return Err(PageError::BadStructure(expect_page, "page id mismatch"));
        }
        let lsn = u64::from_le_bytes(buf[16..24].try_into().expect("sized"));
        let mut pos = NODE_HEADER;
        let node = match kind {
            KIND_LEAF => {
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    if pos + 12 > PAGE_SIZE {
                        return Err(PageError::BadStructure(expect_page, "leaf truncated"));
                    }
                    let k = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("sized"));
                    let vlen = u32::from_le_bytes(
                        buf[pos + 8..pos + 12].try_into().expect("sized"),
                    ) as usize;
                    if pos + 12 + vlen > PAGE_SIZE {
                        return Err(PageError::BadStructure(expect_page, "value truncated"));
                    }
                    entries.push((k, buf[pos + 12..pos + 12 + vlen].to_vec()));
                    pos += 12 + vlen;
                }
                Node::Leaf { entries }
            }
            KIND_INTERNAL => {
                if NODE_HEADER + count * 8 + (count + 1) * 8 > PAGE_SIZE {
                    return Err(PageError::BadStructure(expect_page, "internal truncated"));
                }
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(u64::from_le_bytes(
                        buf[pos..pos + 8].try_into().expect("sized"),
                    ));
                    pos += 8;
                }
                let mut children = Vec::with_capacity(count + 1);
                for _ in 0..=count {
                    children.push(u64::from_le_bytes(
                        buf[pos..pos + 8].try_into().expect("sized"),
                    ));
                    pos += 8;
                }
                Node::Internal { keys, children }
            }
            _ => return Err(PageError::BadStructure(expect_page, "unknown kind")),
        };
        Ok((node, lsn))
    }
}

/// Copy `src` into the page at `at`. The caller has already asserted the
/// serialized node fits the page, so an out-of-range span is a tree-logic bug.
fn put(buf: &mut [u8], at: usize, src: &[u8]) {
    buf.get_mut(at..at + src.len())
        .expect("invariant: serialized node fits the page (asserted by caller)")
        .copy_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf {
            entries: vec![(1, b"one".to_vec()), (5, b"five".to_vec()), (9, vec![])],
        };
        let buf = node.serialize(7, 42);
        assert_eq!(buf.len(), PAGE_SIZE);
        let (back, lsn) = Node::deserialize(&buf, 7).unwrap();
        assert_eq!(back, node);
        assert_eq!(lsn, 42);
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            keys: vec![10, 20, 30],
            children: vec![100, 200, 300, 400],
        };
        let buf = node.serialize(3, 9);
        let (back, lsn) = Node::deserialize(&buf, 3).unwrap();
        assert_eq!(back, node);
        assert_eq!(lsn, 9);
    }

    #[test]
    fn checksum_catches_corruption() {
        let node = Node::Leaf {
            entries: vec![(1, vec![1, 2, 3])],
        };
        let mut buf = node.serialize(1, 1);
        buf[NODE_HEADER + 2] ^= 0xFF;
        assert_eq!(Node::deserialize(&buf, 1), Err(PageError::BadChecksum(1)));
    }

    #[test]
    fn wrong_page_id_is_a_misdirected_write() {
        let node = Node::empty_leaf();
        let buf = node.serialize(5, 0);
        match Node::deserialize(&buf, 6) {
            Err(PageError::BadStructure(6, why)) => assert!(why.contains("mismatch")),
            other => panic!("expected structure error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_rejected() {
        let buf = vec![0xABu8; PAGE_SIZE];
        assert!(Node::deserialize(&buf, 0).is_err());
        let short = vec![0u8; 100];
        assert!(matches!(
            Node::deserialize(&short, 0),
            Err(PageError::BadStructure(0, _))
        ));
    }

    #[test]
    fn serialized_size_is_exact_for_leaves() {
        let mut entries = Vec::new();
        for i in 0..10u64 {
            entries.push((i, vec![0u8; i as usize * 10]));
        }
        let node = Node::Leaf { entries };
        // Size formula matches reality: serialize succeeds iff it fits.
        assert!(node.serialized_size() < PAGE_SIZE);
        let _ = node.serialize(0, 0);
        // ... and `serialize_into` says how much of the page it used.
        let internal = Node::Internal {
            keys: vec![10, 20],
            children: vec![1, 2, 3],
        };
        for node in [node, internal, Node::empty_leaf()] {
            let mut page = vec![0xFFu8; PAGE_SIZE];
            let used = node.serialize_into(4, 2, &mut page);
            assert_eq!(used, node.serialized_size());
            assert!(page[used..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_node_panics_on_serialize() {
        let node = Node::Leaf {
            entries: (0..10u64).map(|i| (i, vec![0u8; 500])).collect(),
        };
        assert!(node.serialized_size() > PAGE_SIZE);
        let _ = node.serialize(0, 0);
    }

    #[test]
    fn display_of_errors() {
        assert_eq!(PageError::Missing(3).to_string(), "page 3 missing");
        assert!(PageError::BadChecksum(4).to_string().contains("checksum"));
    }
}
