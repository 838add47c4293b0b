//! Snapshot reconciler for the backup site.
//!
//! Turns `VolumeSnapshot` and `VolumeGroupSnapshot` resources into array
//! snapshots. The paper notes the volume-group-snapshot CSI is an alpha
//! feature not yet supported by the vendor plugin — users had to operate
//! the storage directly (§II). This crate implements *both* paths: the
//! direct array call is available through `StorageWorld::snapshot_group`,
//! and this reconciler is the "future work" CSI path, so experiment E4 can
//! compare them.

use tsuru_container::{ApiServer, ClaimPhase, Reconciler, VolumeHandle};
use tsuru_storage::{ArrayId, StorageWorld, VolumeId};

/// Reconciles snapshot resources on one site.
#[derive(Debug)]
pub struct SnapshotPlugin {
    /// The array snapshots are taken on.
    pub array: ArrayId,
    /// Snapshots taken (single + group members).
    pub snapshots_taken: u64,
}

impl SnapshotPlugin {
    /// A plugin bound to `array`.
    pub fn new(array: ArrayId) -> Self {
        SnapshotPlugin {
            array,
            snapshots_taken: 0,
        }
    }

    /// Resolve a claim to its backing array volume handle.
    fn resolve(&self, api: &ApiServer, ns: &str, pvc_name: &str) -> Option<VolumeHandle> {
        let pvc = api.pvcs.get(&format!("{ns}/{pvc_name}"))?;
        if pvc.phase != ClaimPhase::Bound {
            return None;
        }
        let pv = api.pvs.get(pvc.volume_name.as_deref()?)?;
        (pv.handle.array == self.array.0).then_some(pv.handle)
    }
}

impl Reconciler<StorageWorld> for SnapshotPlugin {
    fn name(&self) -> &str {
        "snapshot-plugin"
    }

    fn reconcile(&mut self, api: &mut ApiServer, st: &mut StorageWorld) {
        let now = st.control_time();
        st.tracer.instant(
            tsuru_storage::span_names::RECONCILE,
            now,
            tsuru_storage::SpanId::NONE,
            || vec![("plugin", "snapshot-plugin".into())],
        );

        // Single snapshots.
        let pending: Vec<(String, String, Option<String>)> = api
            .snapshots
            .list()
            .filter(|s| !s.ready)
            .map(|s| (s.meta.key(), s.source_pvc.clone(), s.meta.namespace.clone()))
            .collect();
        for (key, source, ns) in pending {
            let Some(ns) = ns else { continue };
            let Some(handle) = self.resolve(api, &ns, &source) else {
                continue;
            };
            let snap = st.array_mut(self.array).create_snapshot(
                VolumeId(handle.volume),
                format!("snap-{key}"),
                now,
            );
            self.snapshots_taken += 1;
            api.snapshots.update(&key, |s| {
                s.ready = true;
                s.snapshot_handle = Some(snap.0);
                true
            });
            api.record_event(
                format!("VolumeSnapshot/{key}"),
                "SnapshotReady",
                format!("array snapshot {} of {source}", snap.0),
            );
        }

        // Group snapshots (the alpha CSI feature).
        let pending: Vec<(
            String,
            Option<String>,
            std::collections::BTreeMap<String, String>,
        )> = api
            .group_snapshots
            .list()
            .filter(|s| !s.ready)
            .map(|s| (s.meta.key(), s.meta.namespace.clone(), s.selector.clone()))
            .collect();
        for (key, ns, selector) in pending {
            let Some(ns) = ns else { continue };
            // Member claims: those in the namespace matching the selector.
            let members: Vec<String> = api
                .pvcs
                .list_namespace(&ns)
                .filter(|pvc| pvc.meta.matches_labels(&selector))
                .map(|pvc| pvc.meta.name.clone())
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut handles = Vec::with_capacity(members.len());
            let mut complete = true;
            for m in &members {
                match self.resolve(api, &ns, m) {
                    Some(h) => handles.push((m.clone(), h)),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue; // some member not bound yet; retried next round
            }
            let vols: Vec<VolumeId> = handles.iter().map(|(_, h)| VolumeId(h.volume)).collect();
            let snaps =
                st.array_mut(self.array)
                    .create_snapshot_group(&vols, &format!("gsnap-{key}"), now);
            self.snapshots_taken += snaps.len() as u64;
            let pairs: Vec<(String, u64)> = handles
                .iter()
                .zip(&snaps)
                .map(|((name, _), s)| (name.clone(), s.0))
                .collect();
            let n = pairs.len();
            api.group_snapshots.update(&key, |s| {
                s.ready = true;
                s.snapshot_handles = pairs.clone();
                true
            });
            api.record_event(
                format!("VolumeGroupSnapshot/{key}"),
                "GroupSnapshotReady",
                format!("atomic snapshot of {n} volumes"),
            );
        }
    }
}
