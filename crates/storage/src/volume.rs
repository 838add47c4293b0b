//! The volume: a sparse array of blocks with write-generation tracking.

use std::collections::BTreeMap;

use crate::arena::{DenseArena, LbaIndex};
use crate::block::{BlockBuf, VolumeId, BLOCK_SIZE};

/// Role a volume plays in replication, mirroring array semantics: secondary
/// volumes reject host writes until promoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeRole {
    /// Accepts host I/O (default).
    Primary,
    /// Target of replication; host writes are fenced.
    Secondary,
}

/// A logical volume: sparse block store plus bookkeeping.
///
/// Block payloads live in a dense-handle slab ([`DenseArena`]); a paged
/// direct table ([`LbaIndex`]) holds only `lba → handle`. Reads and
/// overwrites — the hot path once a working set is allocated — are one
/// page lookup and one slab access, iteration is ascending by LBA as the
/// consistency checkers rely on, and memory follows the blocks written,
/// not `size_blocks`.
#[derive(Debug, Clone)]
pub struct Volume {
    id: VolumeId,
    name: String,
    size_blocks: u64,
    index: LbaIndex,
    bufs: DenseArena<BlockBuf>,
    role: VolumeRole,
    writes: u64,
}

impl Volume {
    /// A new, entirely unwritten volume.
    pub fn new(id: VolumeId, name: impl Into<String>, size_blocks: u64) -> Self {
        assert!(size_blocks > 0, "volume must have at least one block");
        Volume {
            id,
            name: name.into(),
            size_blocks,
            index: LbaIndex::new(size_blocks),
            bufs: DenseArena::new(),
            role: VolumeRole::Primary,
            writes: 0,
        }
    }

    /// The volume id.
    pub fn id(&self) -> VolumeId {
        self.id
    }

    /// Human-readable name (e.g. `sales-data`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in blocks.
    pub fn size_blocks(&self) -> u64 {
        self.size_blocks
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_blocks * BLOCK_SIZE as u64
    }

    /// Current replication role.
    pub fn role(&self) -> VolumeRole {
        self.role
    }

    /// Change the replication role (array control plane only).
    pub fn set_role(&mut self, role: VolumeRole) {
        self.role = role;
    }

    /// Number of blocks that have ever been written.
    pub fn allocated_blocks(&self) -> usize {
        self.index.len()
    }

    /// Total write operations applied.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Pages of the `lba → handle` table allocated so far: the footprint
    /// of the index, which grows with the blocks written and not with the
    /// volume's size.
    pub fn index_pages(&self) -> usize {
        self.index.page_count()
    }

    /// Read a block; `None` if it was never written.
    pub fn read(&self, lba: u64) -> Option<&BlockBuf> {
        assert!(lba < self.size_blocks, "lba {lba} out of range on {}", self.name);
        self.index.get(lba).map(|h| self.bufs.slot(h))
    }

    /// Overwrite a block, returning the previous content (for copy-on-write
    /// snapshot bookkeeping by the owning array).
    pub fn write(&mut self, lba: u64, data: BlockBuf) -> Option<BlockBuf> {
        assert!(lba < self.size_blocks, "lba {lba} out of range on {}", self.name);
        self.writes += 1;
        if let Some(h) = self.index.get(lba) {
            return Some(std::mem::replace(self.bufs.slot_mut(h), data));
        }
        let h = self.bufs.insert(data);
        self.index.insert(lba, h);
        None
    }

    /// Remove all content (volume format).
    pub fn wipe(&mut self) {
        self.index.clear();
        self.bufs.clear();
    }

    /// Iterate over `(lba, block)` in ascending LBA order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (u64, &BlockBuf)> {
        self.index.iter().map(|(lba, h)| (lba, self.bufs.slot(h)))
    }

    /// Content fingerprint of every allocated block, keyed by LBA.
    /// Used by the write-order-fidelity checker to compare a secondary
    /// volume against the expected prefix state.
    pub fn content_hashes(&self) -> BTreeMap<u64, u64> {
        self.iter_blocks()
            .map(|(lba, b)| (lba, b.fingerprint()))
            .collect()
    }

    /// Copy every allocated block from `src` (replication initial copy).
    pub fn clone_content_from(&mut self, src: &Volume) {
        assert!(
            src.size_blocks <= self.size_blocks,
            "initial copy source larger than target"
        );
        // The copy keeps this volume's own address space; the handles are
        // re-minted densely (ascending LBA), not carried over.
        self.wipe();
        for (lba, b) in src.iter_blocks() {
            let h = self.bufs.insert(b.clone());
            self.index.insert(lba, h);
        }
        self.writes += src.index.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::block_from;

    fn vol() -> Volume {
        Volume::new(VolumeId(1), "test", 100)
    }

    #[test]
    fn read_your_writes() {
        let mut v = vol();
        assert!(v.read(5).is_none());
        v.write(5, block_from(b"data"));
        assert_eq!(&v.read(5).unwrap()[..4], b"data");
        assert_eq!(v.allocated_blocks(), 1);
        assert_eq!(v.write_count(), 1);
    }

    #[test]
    fn overwrite_returns_old_content() {
        let mut v = vol();
        v.write(5, block_from(b"old"));
        let prev = v.write(5, block_from(b"new")).unwrap();
        assert_eq!(&prev[..3], b"old");
        assert_eq!(&v.read(5).unwrap()[..3], b"new");
        assert_eq!(v.allocated_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        let v = vol();
        let _ = v.read(100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_out_of_range_panics() {
        let mut v = vol();
        v.write(100, block_from(b"x"));
    }

    #[test]
    fn clone_content_copies_everything() {
        let mut a = vol();
        a.write(1, block_from(b"one"));
        a.write(2, block_from(b"two"));
        let mut b = Volume::new(VolumeId(2), "copy", 100);
        b.clone_content_from(&a);
        assert_eq!(&b.read(1).unwrap()[..3], b"one");
        assert_eq!(&b.read(2).unwrap()[..3], b"two");
        assert_eq!(b.allocated_blocks(), 2);
    }

    #[test]
    fn content_hashes_match_equal_content() {
        let mut a = vol();
        let mut b = vol();
        a.write(3, block_from(b"same"));
        b.write(3, block_from(b"same"));
        assert_eq!(a.content_hashes(), b.content_hashes());
        b.write(4, block_from(b"more"));
        assert_ne!(a.content_hashes(), b.content_hashes());
    }

    /// `size_blocks` is operator input: the index must cost what was
    /// written, not what was provisioned.
    #[test]
    fn sparse_volume_pays_for_written_blocks_only() {
        let size = 1u64 << 40;
        let mut v = Volume::new(VolumeId(7), "sparse", size);
        assert_eq!(v.index_pages(), 0);
        v.write(0, block_from(b"first"));
        v.write(size - 1, block_from(b"last"));
        assert_eq!(v.index_pages(), 2);
        assert_eq!(v.allocated_blocks(), 2);
        assert!(v.read(1).is_none());
        assert!(v.read(size / 2).is_none());
        assert_eq!(&v.read(size - 1).unwrap()[..4], b"last");
        let lbas: Vec<u64> = v.iter_blocks().map(|(lba, _)| lba).collect();
        assert_eq!(lbas, vec![0, size - 1]);
        // A copy into an equally sparse target stays sparse.
        let mut copy = Volume::new(VolumeId(8), "copy", size);
        copy.clone_content_from(&v);
        assert_eq!(copy.index_pages(), 2);
        assert_eq!(copy.content_hashes(), v.content_hashes());
    }

    #[test]
    fn wipe_clears_blocks() {
        let mut v = vol();
        v.write(0, block_from(b"x"));
        v.wipe();
        assert_eq!(v.allocated_blocks(), 0);
        assert!(v.read(0).is_none());
    }
}
