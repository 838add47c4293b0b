//! The storage array: volumes, snapshots, service-time model, failure state.
//!
//! One [`StorageArray`] stands in for a Hitachi VSP G370 in the paper's
//! testbed. The control plane (volume/snapshot lifecycle) is synchronous;
//! the data plane charges service time through per-volume FIFO stations and
//! is driven by the replication engine and host-port functions in
//! [`crate::engine`].

use serde::{Deserialize, Serialize};
use tsuru_sim::{ServiceStation, SimDuration, SimTime};

use crate::block::{ArrayId, BlockBuf, SnapshotId, VolumeId};
use crate::pool::{Pool, PoolId};
use crate::snapshot::Snapshot;
use crate::volume::{Volume, VolumeRole};

/// Capacity of the default pool: effectively unbounded, so deployments
/// that do not model capacity pressure are unaffected.
pub const DEFAULT_POOL_CAPACITY: u64 = 1 << 40;

/// Service-time profile of an array's data path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrayPerf {
    /// Cache-hit write service time (host write → ack-ready).
    pub write_service: SimDuration,
    /// Read service time.
    pub read_service: SimDuration,
    /// Applying one replicated journal entry at the secondary.
    pub apply_service: SimDuration,
    /// Extra cost of a copy-on-write block preservation.
    pub cow_penalty: SimDuration,
}

impl Default for ArrayPerf {
    fn default() -> Self {
        ArrayPerf {
            write_service: SimDuration::from_micros(100),
            read_service: SimDuration::from_micros(200),
            apply_service: SimDuration::from_micros(50),
            cow_penalty: SimDuration::from_micros(30),
        }
    }
}

/// Why a write was rejected by the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The whole array is failed (site disaster).
    ArrayFailed,
    /// The volume is a replication secondary and fenced against host writes.
    VolumeFenced,
    /// The volume does not exist (deleted under I/O).
    NoSuchVolume,
    /// The volume's thin-provisioning pool has no capacity for a new block.
    PoolExhausted,
    /// The block address lies past the end of the volume.
    OutOfRange,
}

/// One entry of an array's change feed: what happened to a
/// [watched](StorageArray::watch) volume, as plain data in the order it
/// happened. A `Write` holds the block by reference count — the buffer is
/// immutable, nothing is copied. Replaying the entries of one volume onto
/// a copy of what it held when the watch began reproduces it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedEntry {
    /// `lba` of `vol` now holds `data`.
    Write {
        /// The watched volume.
        vol: VolumeId,
        /// Block address.
        lba: u64,
        /// The block's new content.
        data: BlockBuf,
    },
    /// Every block of `vol` was dropped (a full copy starts over).
    Wipe {
        /// The watched volume.
        vol: VolumeId,
    },
    /// The entries since the previous mark are one observable step: a
    /// reader of the array can see the state before it and the state
    /// after it, never one in between. `at` is the instant, where the
    /// caller that closed the step knew it.
    Boundary {
        /// When the step completed, if known.
        at: Option<SimTime>,
    },
}

/// Everything the array keeps per volume, in one slot of the volume table.
#[derive(Debug)]
struct VolumeSlot {
    volume: Volume,
    /// Mutations are appended to the array's change feed.
    watched: bool,
    /// The volume's FIFO service station.
    station: ServiceStation,
    /// The thin-provisioning pool backing the volume.
    pool: PoolId,
    /// Active snapshots based on this volume, in creation order.
    snaps: Vec<SnapshotId>,
}

/// A virtualized block-storage array.
///
/// Volumes and snapshots live in tables indexed by the ids the array mints
/// (`VolumeId(n)` is slot `n`): a data-plane call resolves its volume with
/// one bounds-checked array read. Ids are never reused, so a deleted
/// volume's slot stays vacant and a stale id resolves to nothing.
#[derive(Debug)]
pub struct StorageArray {
    id: ArrayId,
    name: String,
    perf: ArrayPerf,
    volumes: Vec<Option<VolumeSlot>>,
    snapshots: Vec<Option<Snapshot>>,
    pools: Vec<Pool>,
    next_snap_group: u64,
    failed_at: Option<SimTime>,
    cow_saves: u64,
    /// Mutations of watched volumes since the last drain, with the marks
    /// that close each observable step.
    feed: Vec<FeedEntry>,
    /// The feed holds entries that no [`FeedEntry::Boundary`] closes yet.
    feed_open: bool,
}

/// The occupant of slot `id` of an id-indexed table. Free functions over
/// the field, not methods on the array, so a caller can hold a volume slot
/// while it updates the snapshot table and the pools.
fn slot<T>(table: &[Option<T>], id: u64) -> Option<&T> {
    table.get(usize::try_from(id).ok()?)?.as_ref()
}

/// Mutable twin of [`slot`].
fn slot_mut<T>(table: &mut [Option<T>], id: u64) -> Option<&mut T> {
    table.get_mut(usize::try_from(id).ok()?)?.as_mut()
}

/// Vacate slot `id`, returning its occupant.
fn take_slot<T>(table: &mut [Option<T>], id: u64) -> Option<T> {
    table.get_mut(usize::try_from(id).ok()?)?.take()
}

/// Ids of the occupied slots, ascending.
fn live_ids<T>(table: &[Option<T>]) -> impl Iterator<Item = u64> + '_ {
    table
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_some())
        .map(|(i, _)| i as u64)
}

impl StorageArray {
    /// A new, empty array.
    pub fn new(id: ArrayId, name: impl Into<String>, perf: ArrayPerf) -> Self {
        StorageArray {
            id,
            name: name.into(),
            perf,
            volumes: Vec::new(),
            snapshots: Vec::new(),
            pools: vec![Pool::new(PoolId(0), "default", DEFAULT_POOL_CAPACITY)],
            next_snap_group: 0,
            failed_at: None,
            cow_saves: 0,
            feed: Vec::new(),
            feed_open: false,
        }
    }

    /// Array id.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// Array name (e.g. `vsp-main`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The service-time profile.
    pub fn perf(&self) -> &ArrayPerf {
        &self.perf
    }

    /// Change the service-time profile mid-run (models component
    /// degradation — a failing disk shelf, cache pressure).
    pub fn set_perf(&mut self, perf: ArrayPerf) {
        self.perf = perf;
    }

    /// Has this array suffered a site failure?
    pub fn is_failed(&self) -> bool {
        self.failed_at.is_some()
    }

    /// When the array failed, if it did.
    pub fn failed_at(&self) -> Option<SimTime> {
        self.failed_at
    }

    /// Mark the array failed (site disaster) as of `now`: all subsequent
    /// host and replication I/O is rejected, and replication frames that
    /// had not finished leaving the site by `now` are discarded by the
    /// receiving engine.
    pub fn fail(&mut self, now: SimTime) {
        self.failed_at.get_or_insert(now);
    }

    /// Bring a failed array back (used by recovery drills).
    pub fn recover(&mut self) {
        self.failed_at = None;
    }

    /// Total copy-on-write preservations performed (E4 metric).
    pub fn cow_saves(&self) -> u64 {
        self.cow_saves
    }

    // ----- pools -------------------------------------------------------------

    /// Create a thin-provisioning pool.
    pub fn create_pool(&mut self, name: impl Into<String>, capacity_blocks: u64) -> PoolId {
        let id = PoolId(self.pools.len() as u32);
        self.pools.push(Pool::new(id, name, capacity_blocks));
        id
    }

    /// Borrow a pool.
    pub fn pool(&self, id: PoolId) -> &Pool {
        &self.pools[id.0 as usize]
    }

    /// All pools, in id order.
    pub fn pools(&self) -> &[Pool] {
        &self.pools
    }

    /// The pool backing a volume.
    pub fn pool_of(&self, vol: VolumeId) -> PoolId {
        slot(&self.volumes, vol.0).map_or(PoolId(0), |s| s.pool)
    }

    fn pool_mut(&mut self, id: PoolId) -> &mut Pool {
        self.pools
            .get_mut(id.0 as usize)
            .expect("invariant: PoolId is only minted by create_pool")
    }

    // ----- volume lifecycle ------------------------------------------------

    /// Create a volume of `size_blocks` blocks in the default pool.
    pub fn create_volume(&mut self, name: impl Into<String>, size_blocks: u64) -> VolumeId {
        self.create_volume_in_pool(name, size_blocks, PoolId(0))
    }

    /// Create a thin volume backed by a specific pool.
    pub fn create_volume_in_pool(
        &mut self,
        name: impl Into<String>,
        size_blocks: u64,
        pool: PoolId,
    ) -> VolumeId {
        assert!((pool.0 as usize) < self.pools.len(), "unknown pool");
        let id = VolumeId(self.volumes.len() as u64);
        self.volumes.push(Some(VolumeSlot {
            volume: Volume::new(id, name, size_blocks),
            watched: false,
            station: ServiceStation::new(),
            pool,
            snaps: Vec::new(),
        }));
        id
    }

    /// Delete a volume and any snapshots based on it, releasing the pool
    /// capacity both held.
    pub fn delete_volume(&mut self, id: VolumeId) {
        let Some(s) = take_slot(&mut self.volumes, id.0) else {
            return;
        };
        let mut released = s.volume.allocated_blocks() as u64;
        for sid in s.snaps {
            if let Some(snap) = take_slot(&mut self.snapshots, sid.0) {
                released += snap.saved_blocks() as u64;
            }
        }
        self.pool_mut(s.pool).release(released);
    }

    /// Borrow a volume.
    ///
    /// # Panics
    /// Panics on an unknown id; ids come from [`StorageArray::create_volume`].
    pub fn volume(&self, id: VolumeId) -> &Volume {
        &slot(&self.volumes, id.0)
            .expect("invariant: VolumeId is only minted by create_volume")
            .volume
    }

    fn slot_mut(&mut self, id: VolumeId) -> &mut VolumeSlot {
        slot_mut(&mut self.volumes, id.0)
            .expect("invariant: VolumeId is only minted by create_volume")
    }

    /// Change a volume's replication role (control plane). Content changes
    /// only through the array — [`StorageArray::write_block`],
    /// [`StorageArray::wipe_volume`], [`StorageArray::replace_content`] —
    /// which is what lets a [watch](StorageArray::watch) see all of them.
    pub fn set_volume_role(&mut self, id: VolumeId, role: VolumeRole) {
        self.slot_mut(id).volume.set_role(role);
    }

    /// Does the volume exist?
    pub fn has_volume(&self, id: VolumeId) -> bool {
        slot(&self.volumes, id.0).is_some()
    }

    /// Ids of all volumes, sorted.
    pub fn volume_ids(&self) -> Vec<VolumeId> {
        live_ids(&self.volumes).map(VolumeId).collect()
    }

    // ----- data plane ------------------------------------------------------

    /// Admit an operation of `service` duration on `vol`'s FIFO station at
    /// `now`, returning the completion instant.
    pub fn admit(&mut self, vol: VolumeId, now: SimTime, service: SimDuration) -> SimTime {
        slot_mut(&mut self.volumes, vol.0)
            .expect("invariant: VolumeId is only minted by create_volume")
            .station
            .admit(now, service)
    }

    /// Validate that a host write to `vol` at `lba` is currently allowed.
    /// A write that would allocate a new thin block is refused when the
    /// backing pool is exhausted.
    pub fn check_host_write(&mut self, vol: VolumeId, lba: u64) -> Result<(), WriteError> {
        if self.is_failed() {
            return Err(WriteError::ArrayFailed);
        }
        let Some(s) = slot(&self.volumes, vol.0) else {
            return Err(WriteError::NoSuchVolume);
        };
        if s.volume.role() == VolumeRole::Secondary {
            return Err(WriteError::VolumeFenced);
        }
        if lba >= s.volume.size_blocks() {
            return Err(WriteError::OutOfRange);
        }
        if s.volume.read(lba).is_none() {
            let p = self
                .pools
                .get_mut(s.pool.0 as usize)
                .expect("invariant: PoolId is only minted by create_pool");
            if !p.has_room(1) {
                p.count_rejection();
                return Err(WriteError::PoolExhausted);
            }
        }
        Ok(())
    }

    /// May a host read of `lba` on `vol` (or on a snapshot of it) be
    /// admitted: live array, existing volume, address inside it?
    pub fn admits_read(&self, vol: VolumeId, lba: u64) -> bool {
        !self.is_failed()
            && slot(&self.volumes, vol.0).is_some_and(|s| lba < s.volume.size_blocks())
    }

    /// How many active snapshots would need a copy-on-write preservation if
    /// `lba` on `vol` were overwritten now (pre-charge for service time).
    pub fn cow_would_save(&self, vol: VolumeId, lba: u64) -> u32 {
        let Some(s) = slot(&self.volumes, vol.0) else {
            return 0;
        };
        s.snaps
            .iter()
            .filter(|sid| self.snapshot(**sid).needs_preserve(lba))
            .count() as u32
    }

    /// Persist a block write, performing copy-on-write preservation for any
    /// active snapshots of the volume first. Returns how many snapshots
    /// required a COW save (each costs [`ArrayPerf::cow_penalty`]). New
    /// thin-block allocations and data-bearing COW saves charge the pool.
    pub fn write_block(&mut self, vol: VolumeId, lba: u64, data: BlockBuf) -> u32 {
        let s = slot_mut(&mut self.volumes, vol.0)
            .expect("invariant: VolumeId is only minted by create_volume");
        if s.watched {
            self.feed.push(FeedEntry::Write {
                vol,
                lba,
                data: data.clone(),
            });
            self.feed_open = true;
        }
        let mut cow = 0u32;
        let mut cow_with_data = 0u64;
        if !s.snaps.is_empty() {
            // Preserve old content before the overwrite lands.
            let old = s.volume.read(lba);
            for sid in &s.snaps {
                let snap = slot_mut(&mut self.snapshots, sid.0)
                    .expect("invariant: a volume's snapshot list only names live snapshots");
                if snap.preserve(lba, old) {
                    cow += 1;
                    cow_with_data += u64::from(old.is_some());
                }
            }
        }
        self.cow_saves += cow as u64;
        let previous = s.volume.write(lba, data);
        let newly_allocated = u64::from(previous.is_none());
        let pool = s.pool;
        self.pool_mut(pool)
            .force_charge(newly_allocated + cow_with_data);
        cow
    }

    /// Read a block's current content.
    pub fn read_block(&self, vol: VolumeId, lba: u64) -> Option<&BlockBuf> {
        self.volume(vol).read(lba)
    }

    /// Drop every block of a volume (the start of a full recopy). Like the
    /// volume-level wipe it replaces, this touches neither snapshots nor
    /// the pool.
    pub fn wipe_volume(&mut self, vol: VolumeId) {
        let s = slot_mut(&mut self.volumes, vol.0)
            .expect("invariant: VolumeId is only minted by create_volume");
        if s.watched {
            self.feed.push(FeedEntry::Wipe { vol });
            self.feed_open = true;
        }
        s.volume.wipe();
    }

    /// Replace a volume's content with `blocks` — a pair's initial copy,
    /// which lands below the data path: no copy-on-write, no pool charge.
    pub fn replace_content(&mut self, vol: VolumeId, blocks: Vec<(u64, BlockBuf)>) {
        self.wipe_volume(vol);
        let s = slot_mut(&mut self.volumes, vol.0)
            .expect("invariant: VolumeId is only minted by create_volume");
        if s.watched {
            self.feed.extend(blocks.iter().map(|(lba, data)| FeedEntry::Write {
                vol,
                lba: *lba,
                data: data.clone(),
            }));
        }
        for (lba, b) in blocks {
            s.volume.write(lba, b);
        }
    }

    // ----- change feed -------------------------------------------------------

    /// Start appending every content change of `vol` to this array's
    /// change feed. Volumes that are not watched pay one branch per write
    /// and the feed stays empty.
    pub fn watch(&mut self, vol: VolumeId) {
        self.slot_mut(vol).watched = true;
    }

    /// Close the feed's current step: everything a watched volume took
    /// since the last mark became visible together, at `at` if the caller
    /// knows the instant. A no-op when nothing is open, so every site that
    /// ends an observable instant calls it unconditionally.
    pub fn end_boundary(&mut self, at: Option<SimTime>) {
        if self.feed_open {
            self.feed.push(FeedEntry::Boundary { at });
            self.feed_open = false;
        }
    }

    /// Take the feed's entries, oldest first. Entries after the last
    /// [`FeedEntry::Boundary`] belong to a step nobody closed; its state is
    /// observable now, since the caller is looking.
    pub fn drain_feed(&mut self) -> std::vec::Drain<'_, FeedEntry> {
        self.feed_open = false;
        self.feed.drain(..)
    }

    // ----- snapshots -------------------------------------------------------

    /// Take a copy-on-write snapshot of one volume at `now`.
    pub fn create_snapshot(
        &mut self,
        vol: VolumeId,
        name: impl Into<String>,
        now: SimTime,
    ) -> SnapshotId {
        self.snapshot_internal(vol, name.into(), now, None)
    }

    /// Take snapshots of several volumes atomically (a snapshot group): all
    /// images are of the same instant, so the set is crash-consistent.
    pub fn create_snapshot_group(
        &mut self,
        vols: &[VolumeId],
        name_prefix: &str,
        now: SimTime,
    ) -> Vec<SnapshotId> {
        assert!(!vols.is_empty(), "snapshot group needs at least one volume");
        let group = self.next_snap_group;
        self.next_snap_group += 1;
        vols.iter()
            .map(|&v| {
                let vol_name = self.volume(v).name().to_owned();
                self.snapshot_internal(v, format!("{name_prefix}-{vol_name}"), now, Some(group))
            })
            .collect()
    }

    fn snapshot_internal(
        &mut self,
        vol: VolumeId,
        name: String,
        now: SimTime,
        group: Option<u64>,
    ) -> SnapshotId {
        let s = slot_mut(&mut self.volumes, vol.0)
            .expect("invariant: VolumeId is only minted by create_volume");
        let id = SnapshotId(self.snapshots.len() as u64);
        let size = s.volume.size_blocks();
        self.snapshots
            .push(Some(Snapshot::new(id, name, vol, size, now, group)));
        s.snaps.push(id);
        id
    }

    /// Borrow a snapshot.
    pub fn snapshot(&self, id: SnapshotId) -> &Snapshot {
        slot(&self.snapshots, id.0)
            .expect("invariant: SnapshotId is only minted by create_snapshot")
    }

    /// Delete a snapshot, releasing its preserved blocks back to the pool.
    pub fn delete_snapshot(&mut self, id: SnapshotId) {
        let Some(snap) = take_slot(&mut self.snapshots, id.0) else {
            return;
        };
        if let Some(s) = slot_mut(&mut self.volumes, snap.base_volume().0) {
            s.snaps.retain(|&x| x != id);
            let pool = s.pool;
            self.pool_mut(pool).release(snap.saved_blocks() as u64);
        }
    }

    /// All snapshot ids, sorted.
    pub fn snapshot_ids(&self) -> Vec<SnapshotId> {
        live_ids(&self.snapshots).map(SnapshotId).collect()
    }

    /// Materialize a snapshot as a new, writable volume (restore/clone).
    pub fn create_volume_from_snapshot(
        &mut self,
        snap: SnapshotId,
        name: impl Into<String>,
    ) -> VolumeId {
        let base = self.snapshot(snap).base_volume();
        let size = self.volume(base).size_blocks();
        let lbas: Vec<u64> = (0..size).collect();
        let blocks: Vec<(u64, BlockBuf)> = lbas
            .into_iter()
            .filter_map(|lba| self.read_snapshot_block(snap, lba).cloned().map(|b| (lba, b)))
            .collect();
        let id = self.create_volume(name, size);
        let vol = &mut self.slot_mut(id).volume;
        for (lba, b) in blocks {
            vol.write(lba, b);
        }
        id
    }

    /// Read a block as of snapshot time.
    pub fn read_snapshot_block(&self, snap: SnapshotId, lba: u64) -> Option<&BlockBuf> {
        let s = self.snapshot(snap);
        let base = s.base_volume();
        s.read_with(lba, |l| self.volume(base).read(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::block_from;

    fn array() -> StorageArray {
        StorageArray::new(ArrayId(0), "test-array", ArrayPerf::default())
    }

    #[test]
    fn volume_lifecycle() {
        let mut a = array();
        let v1 = a.create_volume("one", 10);
        let v2 = a.create_volume("two", 20);
        assert_ne!(v1, v2);
        assert_eq!(a.volume_ids(), vec![v1, v2]);
        assert_eq!(a.volume(v2).size_blocks(), 20);
        a.delete_volume(v1);
        assert!(!a.has_volume(v1));
        assert_eq!(a.volume_ids(), vec![v2]);
    }

    #[test]
    fn write_gating() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        assert_eq!(a.check_host_write(v, 0), Ok(()));
        a.set_volume_role(v, VolumeRole::Secondary);
        assert_eq!(a.check_host_write(v, 0), Err(WriteError::VolumeFenced));
        a.set_volume_role(v, VolumeRole::Primary);
        a.fail(SimTime::ZERO);
        assert_eq!(a.check_host_write(v, 0), Err(WriteError::ArrayFailed));
        a.recover();
        assert_eq!(
            a.check_host_write(VolumeId(99), 0),
            Err(WriteError::NoSuchVolume)
        );
        assert_eq!(a.check_host_write(v, 9), Ok(()));
        assert_eq!(a.check_host_write(v, 10), Err(WriteError::OutOfRange));
        a.delete_volume(v);
        assert_eq!(a.check_host_write(v, 0), Err(WriteError::NoSuchVolume));
    }

    #[test]
    fn stations_serialize_per_volume() {
        let mut a = array();
        let v1 = a.create_volume("v1", 10);
        let v2 = a.create_volume("v2", 10);
        let t0 = SimTime::ZERO;
        let d = SimDuration::from_micros(100);
        let a1 = a.admit(v1, t0, d);
        let a2 = a.admit(v1, t0, d);
        let b1 = a.admit(v2, t0, d);
        assert_eq!(a1, t0 + d);
        assert_eq!(a2, t0 + d * 2); // queued behind a1
        assert_eq!(b1, t0 + d); // independent volume, no queueing
    }

    #[test]
    fn snapshot_sees_point_in_time_image() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        a.write_block(v, 0, block_from(b"before"));
        let snap = a.create_snapshot(v, "snap", SimTime::from_secs(1));
        let cow = a.write_block(v, 0, block_from(b"after"));
        assert_eq!(cow, 1);
        let cow2 = a.write_block(v, 0, block_from(b"later"));
        assert_eq!(cow2, 0); // already preserved
        assert_eq!(
            &a.read_snapshot_block(snap, 0).expect("invariant: snapshot exists")[..6],
            b"before"
        );
        assert_eq!(&a.read_block(v, 0).expect("invariant: volume exists")[..5], b"later");
        assert_eq!(a.cow_saves(), 1);
    }

    #[test]
    fn snapshot_of_unwritten_block_reads_through_until_written() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        let snap = a.create_snapshot(v, "s", SimTime::ZERO);
        assert!(a.read_snapshot_block(snap, 3).is_none());
        a.write_block(v, 3, block_from(b"new"));
        // Block was unwritten at snapshot time, so the snapshot still reads
        // as unwritten.
        assert!(a.read_snapshot_block(snap, 3).is_none());
    }

    #[test]
    fn snapshot_group_is_atomic_and_tagged() {
        let mut a = array();
        let v1 = a.create_volume("d1", 10);
        let v2 = a.create_volume("d2", 10);
        a.write_block(v1, 0, block_from(b"x1"));
        a.write_block(v2, 0, block_from(b"x2"));
        let snaps = a.create_snapshot_group(&[v1, v2], "grp", SimTime::from_secs(2));
        assert_eq!(snaps.len(), 2);
        let g0 = a.snapshot(snaps[0]).group();
        let g1 = a.snapshot(snaps[1]).group();
        assert!(g0.is_some());
        assert_eq!(g0, g1);
        // Another group gets a fresh group id.
        let snaps2 = a.create_snapshot_group(&[v1], "grp2", SimTime::from_secs(3));
        assert_ne!(a.snapshot(snaps2[0]).group(), g0);
    }

    #[test]
    fn multiple_snapshots_each_preserve_independently() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        a.write_block(v, 0, block_from(b"gen0"));
        let s0 = a.create_snapshot(v, "s0", SimTime::ZERO);
        a.write_block(v, 0, block_from(b"gen1"));
        let s1 = a.create_snapshot(v, "s1", SimTime::from_secs(1));
        let cow = a.write_block(v, 0, block_from(b"gen2"));
        assert_eq!(cow, 1, "only s1 needs preservation; s0 already saved");
        assert_eq!(&a.read_snapshot_block(s0, 0).expect("invariant: snapshot exists")[..4], b"gen0");
        assert_eq!(&a.read_snapshot_block(s1, 0).expect("invariant: snapshot exists")[..4], b"gen1");
        assert_eq!(&a.read_block(v, 0).expect("invariant: volume exists")[..4], b"gen2");
    }

    #[test]
    fn delete_snapshot_stops_cow() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        a.write_block(v, 0, block_from(b"a"));
        let s = a.create_snapshot(v, "s", SimTime::ZERO);
        a.delete_snapshot(s);
        let cow = a.write_block(v, 0, block_from(b"b"));
        assert_eq!(cow, 0);
        assert_eq!(a.snapshot_ids().len(), 0);
    }

    #[test]
    fn deleting_volume_removes_its_snapshots() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        a.create_snapshot(v, "s", SimTime::ZERO);
        a.delete_volume(v);
        assert!(a.snapshot_ids().is_empty());
    }
}
