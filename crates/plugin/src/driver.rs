//! The vendor CSI driver: Storage Plug-in for Containers.
//!
//! Implements the vendor-neutral [`CsiDriver`] surface against one
//! simulated array — the role Hitachi's Storage Plug-in for Containers
//! plays against a VSP in the paper's testbed (§III-B2).

use std::collections::BTreeMap;

use tsuru_container::{CsiDriver, VolumeHandle};
use tsuru_storage::{ArrayId, StorageWorld, VolumeId};

/// The block-storage CSI driver for one site's array.
#[derive(Debug)]
pub struct TsuruBlockDriver {
    array: ArrayId,
    name: String,
}

impl TsuruBlockDriver {
    /// A driver bound to `array`; `name` is what storage classes reference
    /// (e.g. `block.csi.tsuru.io`).
    pub fn new(array: ArrayId, name: impl Into<String>) -> Self {
        TsuruBlockDriver {
            array,
            name: name.into(),
        }
    }

    /// The array this driver manages.
    pub fn array(&self) -> ArrayId {
        self.array
    }
}

impl CsiDriver<StorageWorld> for TsuruBlockDriver {
    fn driver_name(&self) -> &str {
        &self.name
    }

    fn create_volume(
        &mut self,
        st: &mut StorageWorld,
        name: &str,
        size_blocks: u64,
        _parameters: &BTreeMap<String, String>,
    ) -> Result<VolumeHandle, String> {
        if st.array(self.array).is_failed() {
            return Err(format!("array {} is failed", st.array(self.array).name()));
        }
        let vol = st.create_volume(self.array, name, size_blocks);
        Ok(VolumeHandle {
            array: vol.array.0,
            volume: vol.volume.0,
        })
    }

    fn delete_volume(&mut self, st: &mut StorageWorld, handle: VolumeHandle) -> Result<(), String> {
        if handle.array != self.array.0 {
            return Err("handle belongs to a different array".into());
        }
        st.array_mut(self.array)
            .delete_volume(VolumeId(handle.volume));
        Ok(())
    }

    fn create_snapshot(
        &mut self,
        st: &mut StorageWorld,
        source: VolumeHandle,
        name: &str,
    ) -> Result<u64, String> {
        if source.array != self.array.0 {
            return Err("handle belongs to a different array".into());
        }
        if !st.array(self.array).has_volume(VolumeId(source.volume)) {
            return Err(format!("volume {} does not exist", source.volume));
        }
        let now = st.control_time();
        let snap = st
            .array_mut(self.array)
            .create_snapshot(VolumeId(source.volume), name, now);
        Ok(snap.0)
    }

    fn create_volume_from_snapshot(
        &mut self,
        st: &mut StorageWorld,
        snapshot: u64,
        name: &str,
    ) -> Result<VolumeHandle, String> {
        if st.array(self.array).is_failed() {
            return Err(format!("array {} is failed", st.array(self.array).name()));
        }
        if !st
            .array(self.array)
            .snapshot_ids()
            .contains(&tsuru_storage::SnapshotId(snapshot))
        {
            return Err(format!("snapshot {snapshot} does not exist"));
        }
        let vol = st
            .array_mut(self.array)
            .create_volume_from_snapshot(tsuru_storage::SnapshotId(snapshot), name);
        Ok(VolumeHandle {
            array: self.array.0,
            volume: vol.0,
        })
    }

    fn create_group_snapshot(
        &mut self,
        st: &mut StorageWorld,
        sources: &[VolumeHandle],
        name: &str,
    ) -> Result<Vec<u64>, String> {
        if sources.is_empty() {
            return Err("empty snapshot group".into());
        }
        let mut vols = Vec::with_capacity(sources.len());
        for s in sources {
            if s.array != self.array.0 {
                return Err("handle belongs to a different array".into());
            }
            if !st.array(self.array).has_volume(VolumeId(s.volume)) {
                return Err(format!("volume {} does not exist", s.volume));
            }
            vols.push(VolumeId(s.volume));
        }
        let now = st.control_time();
        let snaps = st
            .array_mut(self.array)
            .create_snapshot_group(&vols, name, now);
        Ok(snaps.into_iter().map(|s| s.0).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_storage::{ArrayPerf, EngineConfig};

    fn world() -> (StorageWorld, ArrayId) {
        let mut st = StorageWorld::new(1, EngineConfig::default());
        let a = st.add_array("vsp", ArrayPerf::default());
        (st, a)
    }

    #[test]
    fn volume_lifecycle_through_csi() {
        let (mut st, a) = world();
        let mut d = TsuruBlockDriver::new(a, "block.csi.tsuru.io");
        let h = d
            .create_volume(&mut st, "pv-shop-sales", 64, &BTreeMap::new())
            .unwrap();
        assert!(st.array(a).has_volume(VolumeId(h.volume)));
        assert_eq!(
            st.array(a).volume(VolumeId(h.volume)).name(),
            "pv-shop-sales"
        );
        d.delete_volume(&mut st, h).unwrap();
        assert!(!st.array(a).has_volume(VolumeId(h.volume)));
    }

    #[test]
    fn snapshot_and_group_snapshot() {
        let (mut st, a) = world();
        st.set_control_time(tsuru_sim::SimTime::from_secs(9));
        let mut d = TsuruBlockDriver::new(a, "block.csi.tsuru.io");
        let h1 = d
            .create_volume(&mut st, "v1", 16, &BTreeMap::new())
            .unwrap();
        let h2 = d
            .create_volume(&mut st, "v2", 16, &BTreeMap::new())
            .unwrap();
        let s = d.create_snapshot(&mut st, h1, "snap-1").unwrap();
        assert_eq!(
            st.array(a)
                .snapshot(tsuru_storage::SnapshotId(s))
                .created_at(),
            tsuru_sim::SimTime::from_secs(9)
        );
        let group = d.create_group_snapshot(&mut st, &[h1, h2], "grp").unwrap();
        assert_eq!(group.len(), 2);
        let g0 = st
            .array(a)
            .snapshot(tsuru_storage::SnapshotId(group[0]))
            .group();
        let g1 = st
            .array(a)
            .snapshot(tsuru_storage::SnapshotId(group[1]))
            .group();
        assert!(g0.is_some() && g0 == g1);
    }

    #[test]
    fn errors_for_bad_handles_and_failed_arrays() {
        let (mut st, a) = world();
        let mut d = TsuruBlockDriver::new(a, "x");
        let foreign = VolumeHandle {
            array: 99,
            volume: 0,
        };
        assert!(d.delete_volume(&mut st, foreign).is_err());
        assert!(d.create_snapshot(&mut st, foreign, "s").is_err());
        assert!(d
            .create_snapshot(
                &mut st,
                VolumeHandle {
                    array: 0,
                    volume: 77
                },
                "s"
            )
            .is_err());
        assert!(d.create_group_snapshot(&mut st, &[], "s").is_err());
        st.fail_array(a, tsuru_sim::SimTime::ZERO);
        assert!(d.create_volume(&mut st, "v", 8, &BTreeMap::new()).is_err());
    }
}
