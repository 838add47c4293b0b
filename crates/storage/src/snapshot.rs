//! Copy-on-write snapshots and snapshot groups.
//!
//! A snapshot preserves the image of a volume at creation time: when the
//! base volume is later overwritten, the *old* block content is saved into
//! the snapshot before the overwrite lands (§III-A2 of the paper, Hitachi
//! Thin Image semantics). A snapshot group is a set of snapshots taken at
//! the same instant across several volumes, giving a crash-consistent
//! multi-volume image.

use tsuru_sim::SimTime;

use crate::arena::{DenseArena, LbaIndex};
use crate::block::{BlockBuf, SnapshotId, VolumeId};

/// Index value of an LBA that was unwritten at snapshot time but has since
/// been written on the base — reads of it must return "unwritten", not base
/// data. Arena handles are minted from zero, so they never reach it.
const WAS_EMPTY: u32 = u32::MAX - 1;

/// One copy-on-write snapshot of a single volume.
#[derive(Debug, Clone)]
pub struct Snapshot {
    id: SnapshotId,
    name: String,
    base: VolumeId,
    created_at: SimTime,
    /// Every LBA preserved since creation: a handle into `saved`, or
    /// [`WAS_EMPTY`]. Same paged table as the base volume's own index.
    preserved: LbaIndex,
    /// Old content saved on first overwrite after creation.
    saved: DenseArena<BlockBuf>,
    group: Option<u64>,
}

impl Snapshot {
    pub(crate) fn new(
        id: SnapshotId,
        name: impl Into<String>,
        base: VolumeId,
        base_size_blocks: u64,
        created_at: SimTime,
        group: Option<u64>,
    ) -> Self {
        Snapshot {
            id,
            name: name.into(),
            base,
            created_at,
            preserved: LbaIndex::new(base_size_blocks),
            saved: DenseArena::new(),
            group,
        }
    }

    /// Snapshot id.
    pub fn id(&self) -> SnapshotId {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The volume this snapshot was taken from.
    pub fn base_volume(&self) -> VolumeId {
        self.base
    }

    /// Creation instant.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// The snapshot-group identifier, if this snapshot was taken as part of
    /// an atomic group.
    pub fn group(&self) -> Option<u64> {
        self.group
    }

    /// Number of blocks that have been preserved by copy-on-write so far.
    pub fn cow_blocks(&self) -> usize {
        self.preserved.len()
    }

    /// Preserved blocks that hold actual data (consume pool capacity).
    pub fn saved_blocks(&self) -> usize {
        self.saved.len()
    }

    /// Would a write to `lba` on the base volume trigger a copy-on-write
    /// preservation into this snapshot?
    pub(crate) fn needs_preserve(&self, lba: u64) -> bool {
        self.preserved.get(lba).is_none()
    }

    /// Called by the array before an overwrite of `lba` on the base volume.
    /// `old` is the pre-overwrite content (`None` if the block was never
    /// written). Returns `true` if a copy-on-write save actually happened
    /// (first overwrite of this LBA since the snapshot), which costs extra
    /// service time on the array.
    pub(crate) fn preserve(&mut self, lba: u64, old: Option<&BlockBuf>) -> bool {
        if self.preserved.get(lba).is_some() {
            return false;
        }
        let state = match old {
            Some(b) => self.saved.insert(b.clone()),
            None => WAS_EMPTY,
        };
        self.preserved.insert(lba, state);
        true
    }

    /// Read a block as of snapshot time, given access to the current base
    /// content. `base_read` supplies the base volume's *current* block.
    pub fn read_with<'a>(
        &'a self,
        lba: u64,
        base_read: impl FnOnce(u64) -> Option<&'a BlockBuf>,
    ) -> Option<&'a BlockBuf> {
        match self.preserved.get(lba) {
            Some(WAS_EMPTY) => None,
            Some(h) => Some(self.saved.slot(h)),
            // Block untouched since snapshot: base content is snapshot content.
            None => base_read(lba),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::block_from;

    #[test]
    fn unchanged_blocks_read_through_to_base() {
        let snap = Snapshot::new(SnapshotId(1), "s", VolumeId(1), 16, SimTime::ZERO, None);
        let base = block_from(b"base");
        let got = snap.read_with(3, |_| Some(&base));
        assert_eq!(&got.unwrap()[..4], b"base");
    }

    #[test]
    fn preserved_blocks_shadow_base() {
        let mut snap = Snapshot::new(SnapshotId(1), "s", VolumeId(1), 16, SimTime::ZERO, None);
        let old = block_from(b"old");
        assert!(snap.preserve(3, Some(&old)));
        // Second overwrite of the same LBA does not re-save.
        assert!(!snap.preserve(3, Some(&block_from(b"mid"))));
        let new = block_from(b"new");
        let got = snap.read_with(3, |_| Some(&new));
        assert_eq!(&got.unwrap()[..3], b"old");
        assert_eq!(snap.cow_blocks(), 1);
    }

    #[test]
    fn blocks_unwritten_at_snapshot_time_stay_unwritten() {
        let mut snap = Snapshot::new(SnapshotId(1), "s", VolumeId(1), 16, SimTime::ZERO, None);
        assert!(snap.preserve(9, None));
        let new = block_from(b"new");
        assert!(snap.read_with(9, |_| Some(&new)).is_none());
    }

    #[test]
    fn group_membership_recorded() {
        let snap = Snapshot::new(
            SnapshotId(2),
            "g",
            VolumeId(1),
            16,
            SimTime::from_secs(5),
            Some(7),
        );
        assert_eq!(snap.group(), Some(7));
        assert_eq!(snap.created_at(), SimTime::from_secs(5));
    }
}
