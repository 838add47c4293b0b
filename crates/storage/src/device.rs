//! Synchronous block-device views, for database recovery and analytics.
//!
//! During normal operation the database layer issues *timed* writes through
//! [`crate::engine::host_write`]. At recovery or analytics time, however, a
//! database is opened directly on a volume or snapshot image and reads it
//! synchronously — these adapters provide that access, plus an in-memory
//! device for unit tests of the database engine itself.

use std::collections::BTreeMap;

use crate::array::StorageArray;
use crate::block::{block_from, BlockBuf, SnapshotId, VolumeId, BLOCK_SIZE};
use crate::volume::Volume;

/// Read-only random access to fixed-size blocks.
pub trait BlockDevice {
    /// Device capacity in blocks.
    fn size_blocks(&self) -> u64;
    /// Read a block; `None` if it was never written.
    fn read_block(&self, lba: u64) -> Option<BlockBuf>;
}

/// A writable block device (used by tests and by database formatting).
pub trait BlockDeviceMut: BlockDevice {
    /// Write a block (short payloads are zero-padded to the block size).
    fn write_block(&mut self, lba: u64, data: &[u8]);
}

/// A heap-backed block device for unit tests.
#[derive(Debug, Clone, Default)]
pub struct MemDevice {
    size_blocks: u64,
    blocks: BTreeMap<u64, BlockBuf>,
}

impl MemDevice {
    /// A device of the given capacity.
    pub fn new(size_blocks: u64) -> Self {
        MemDevice {
            size_blocks,
            blocks: BTreeMap::new(),
        }
    }

    /// Number of blocks ever written.
    pub fn allocated(&self) -> usize {
        self.blocks.len()
    }

    /// Corrupt a block in place (failure-injection for recovery tests).
    pub fn corrupt(&mut self, lba: u64, byte_offset: usize) {
        if let Some(b) = self.blocks.get_mut(&lba) {
            let mut v = b.to_vec();
            v[byte_offset] ^= 0xFF;
            *b = block_from(&v);
        }
    }

    /// Drop a block entirely (models a torn/never-arrived write).
    pub fn drop_block(&mut self, lba: u64) {
        self.blocks.remove(&lba);
    }
}

impl BlockDevice for MemDevice {
    fn size_blocks(&self) -> u64 {
        self.size_blocks
    }
    fn read_block(&self, lba: u64) -> Option<BlockBuf> {
        assert!(lba < self.size_blocks, "lba {lba} out of range");
        self.blocks.get(&lba).cloned()
    }
}

impl BlockDeviceMut for MemDevice {
    fn write_block(&mut self, lba: u64, data: &[u8]) {
        assert!(lba < self.size_blocks, "lba {lba} out of range");
        assert!(data.len() <= BLOCK_SIZE);
        self.blocks.insert(lba, block_from(data));
    }
}

/// A volume that stands alone — a shadow kept beside an array, a copy under
/// test — is read like any other device.
impl BlockDevice for Volume {
    fn size_blocks(&self) -> u64 {
        Volume::size_blocks(self)
    }
    fn read_block(&self, lba: u64) -> Option<BlockBuf> {
        self.read(lba).cloned()
    }
}

/// Read-only view of a live volume on an array.
pub struct VolumeView<'a> {
    array: &'a StorageArray,
    volume: VolumeId,
}

impl<'a> VolumeView<'a> {
    /// View `volume` on `array`.
    pub fn new(array: &'a StorageArray, volume: VolumeId) -> Self {
        VolumeView { array, volume }
    }
}

impl BlockDevice for VolumeView<'_> {
    fn size_blocks(&self) -> u64 {
        self.array.volume(self.volume).size_blocks()
    }
    fn read_block(&self, lba: u64) -> Option<BlockBuf> {
        self.array.read_block(self.volume, lba).cloned()
    }
}

/// Read-only view of a snapshot image on an array.
pub struct SnapshotView<'a> {
    array: &'a StorageArray,
    snapshot: SnapshotId,
}

impl<'a> SnapshotView<'a> {
    /// View `snapshot` on `array`.
    pub fn new(array: &'a StorageArray, snapshot: SnapshotId) -> Self {
        SnapshotView { array, snapshot }
    }
}

impl BlockDevice for SnapshotView<'_> {
    fn size_blocks(&self) -> u64 {
        let base = self.array.snapshot(self.snapshot).base_volume();
        self.array.volume(base).size_blocks()
    }
    fn read_block(&self, lba: u64) -> Option<BlockBuf> {
        self.array.read_snapshot_block(self.snapshot, lba).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayPerf;
    use crate::block::ArrayId;
    use tsuru_sim::SimTime;

    #[test]
    fn mem_device_roundtrip() {
        let mut d = MemDevice::new(8);
        assert!(d.read_block(0).is_none());
        d.write_block(0, b"hello");
        assert_eq!(&d.read_block(0).unwrap()[..5], b"hello");
        assert_eq!(d.size_blocks(), 8);
        assert_eq!(d.allocated(), 1);
    }

    #[test]
    fn mem_device_corrupt_and_drop() {
        let mut d = MemDevice::new(8);
        d.write_block(1, b"abc");
        d.corrupt(1, 0);
        assert_ne!(d.read_block(1).unwrap()[0], b'a');
        d.drop_block(1);
        assert!(d.read_block(1).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mem_device_bounds() {
        let d = MemDevice::new(4);
        let _ = d.read_block(4);
    }

    #[test]
    fn volume_and_snapshot_views() {
        let mut a = StorageArray::new(ArrayId(0), "a", ArrayPerf::default());
        let v = a.create_volume("v", 8);
        a.write_block(v, 2, block_from(b"live"));
        let snap = a.create_snapshot(v, "s", SimTime::ZERO);
        a.write_block(v, 2, block_from(b"newer"));

        let vv = VolumeView::new(&a, v);
        assert_eq!(&vv.read_block(2).unwrap()[..5], b"newer");
        assert_eq!(vv.size_blocks(), 8);

        let sv = SnapshotView::new(&a, snap);
        assert_eq!(&sv.read_block(2).unwrap()[..4], b"live");
        assert_eq!(sv.size_blocks(), 8);
        assert!(sv.read_block(3).is_none());
    }
}
