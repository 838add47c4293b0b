//! The resource types of the mini container platform.
//!
//! Core Kubernetes kinds (Namespace, PVC, PV, StorageClass, Pod) plus the
//! storage-integration custom resources the demonstration system relies on:
//! `VolumeReplication` / `ReplicationGroup` (the Replication Plug-in for
//! Containers' CRs) and `VolumeSnapshot` / `VolumeGroupSnapshot` (the CSI
//! snapshot API, including the volume-group-snapshot alpha feature the
//! paper cites).

use std::collections::BTreeMap;

use crate::meta::{Object, ObjectMeta};

/// Opaque handle to a volume on an external storage array, as recorded by a
/// CSI driver (array id + LDEV number in this reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VolumeHandle {
    /// Array identifier.
    pub array: u32,
    /// Volume identifier within the array.
    pub volume: u64,
}

macro_rules! object_impl {
    ($ty:ident, $kind:literal) => {
        impl Object for $ty {
            const KIND: &'static str = $kind;
            fn meta(&self) -> &ObjectMeta {
                &self.meta
            }
            fn meta_mut(&mut self) -> &mut ObjectMeta {
                &mut self.meta
            }
        }
    };
}

// ----- namespace -------------------------------------------------------------

/// A namespace partitions the application environment (§II of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Namespace {
    /// Metadata; the backup tag lives in `meta.labels`.
    pub meta: ObjectMeta,
}
object_impl!(Namespace, "Namespace");

/// The label key the namespace operator watches.
pub const BACKUP_TAG_KEY: &str = "tsuru.io/backup";
/// The label value that requests consistent replication to the backup site
/// (Fig. 3 of the paper).
pub const BACKUP_TAG_VALUE: &str = "ConsistentCopyToCloud";

// ----- storage class / PVC / PV ----------------------------------------------

/// A storage class names a provisioner (CSI driver) and its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageClass {
    /// Metadata (cluster-scoped).
    pub meta: ObjectMeta,
    /// CSI driver name, e.g. `block.csi.tsuru.io`.
    pub provisioner: String,
    /// Driver-specific parameters.
    pub parameters: BTreeMap<String, String>,
}
object_impl!(StorageClass, "StorageClass");

/// Lifecycle phase of a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClaimPhase {
    /// Awaiting provisioning.
    #[default]
    Pending,
    /// Bound to a PersistentVolume.
    Bound,
    /// Released (PV deleted underneath).
    Lost,
}

/// A PersistentVolumeClaim: an application's request for storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistentVolumeClaim {
    /// Metadata (namespaced).
    pub meta: ObjectMeta,
    /// Requested storage class.
    pub storage_class: String,
    /// Requested capacity in blocks.
    pub size_blocks: u64,
    /// Current phase.
    pub phase: ClaimPhase,
    /// Name of the bound PV once provisioned.
    pub volume_name: Option<String>,
}
object_impl!(PersistentVolumeClaim, "PersistentVolumeClaim");

/// A PersistentVolume: provisioned storage backed by an array volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistentVolume {
    /// Metadata (cluster-scoped).
    pub meta: ObjectMeta,
    /// Storage class it was provisioned for.
    pub storage_class: String,
    /// Capacity in blocks.
    pub size_blocks: u64,
    /// Backing array volume.
    pub handle: VolumeHandle,
    /// `namespace/name` of the claim this PV is bound to.
    pub claim_key: Option<String>,
}
object_impl!(PersistentVolume, "PersistentVolume");

// ----- pod ---------------------------------------------------------------------

/// A pod (minimal: just enough to tie an application to its claims).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pod {
    /// Metadata (namespaced).
    pub meta: ObjectMeta,
    /// Names of PVCs this pod mounts (same namespace).
    pub pvc_names: Vec<String>,
    /// Is the pod running?
    pub running: bool,
}
object_impl!(Pod, "Pod");

// ----- snapshots -----------------------------------------------------------------

/// A CSI volume snapshot request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeSnapshot {
    /// Metadata (namespaced).
    pub meta: ObjectMeta,
    /// Source claim (same namespace).
    pub source_pvc: String,
    /// Ready once the array snapshot exists.
    pub ready: bool,
    /// Array snapshot handle once taken.
    pub snapshot_handle: Option<u64>,
}
object_impl!(VolumeSnapshot, "VolumeSnapshot");

/// The volume-group-snapshot alpha API (Kubernetes 1.27): one atomic,
/// crash-consistent snapshot across several claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeGroupSnapshot {
    /// Metadata (namespaced).
    pub meta: ObjectMeta,
    /// Label selector choosing the member claims.
    pub selector: BTreeMap<String, String>,
    /// Ready once all array snapshots exist.
    pub ready: bool,
    /// `(pvc name, array snapshot handle)` per member, set when ready.
    pub snapshot_handles: Vec<(String, u64)>,
}
object_impl!(VolumeGroupSnapshot, "VolumeGroupSnapshot");

// ----- replication ----------------------------------------------------------------

/// Replication mode requested for a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// Asynchronous data copy through journals (the paper's ADC).
    #[default]
    Async,
    /// Synchronous copy (the latency-bound baseline).
    Sync,
}

/// State of a replication object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationState {
    /// Not yet configured on the array.
    #[default]
    Unknown,
    /// Pair/group configured and replicating.
    Replicating,
    /// Suspended or failed over.
    Suspended,
    /// Suspended, with the replication supervisor actively driving a
    /// recovery attempt (backoff or resync in flight).
    Recovering,
    /// Parked by the supervisor's circuit breaker after repeated failed
    /// recovery attempts; operator intervention required.
    Parked,
}

/// A ReplicationGroup custom resource: requests a consistency group on the
/// external storage for a set of claims (created by the namespace operator,
/// reconciled by the Replication Plug-in for Containers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationGroup {
    /// Metadata (namespaced).
    pub meta: ObjectMeta,
    /// ADC or SDC.
    pub mode: ReplicationMode,
    /// Whether members must share one consistency group. `false` gives the
    /// paper's "naive" per-volume replication (for the ablation).
    pub consistency_group: bool,
    /// Member claims (same namespace), in creation order.
    pub member_pvcs: Vec<String>,
    /// Reconciled state.
    pub state: ReplicationState,
    /// Array group handles once configured (one when
    /// `consistency_group`, one per member otherwise).
    pub group_handles: Vec<u32>,
}
object_impl!(ReplicationGroup, "ReplicationGroup");

/// A VolumeReplication custom resource: one claim's replication
/// relationship (created per member by the namespace operator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeReplication {
    /// Metadata (namespaced).
    pub meta: ObjectMeta,
    /// Source claim.
    pub source_pvc: String,
    /// Owning ReplicationGroup.
    pub group_name: String,
    /// Reconciled state.
    pub state: ReplicationState,
    /// Array pair handle once configured.
    pub pair_handle: Option<u32>,
}
object_impl!(VolumeReplication, "VolumeReplication");

// ----- events ------------------------------------------------------------------------

/// An operator-visible event (rendered on the web console in the demo).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Metadata.
    pub meta: ObjectMeta,
    /// Machine-readable reason.
    pub reason: String,
    /// Human-readable message.
    pub message: String,
    /// `Kind/namespace/name` of the involved object.
    pub involved: String,
}
object_impl!(Event, "Event");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        assert_eq!(Namespace::KIND, "Namespace");
        assert_eq!(PersistentVolumeClaim::KIND, "PersistentVolumeClaim");
        assert_eq!(VolumeGroupSnapshot::KIND, "VolumeGroupSnapshot");
        assert_eq!(ReplicationGroup::KIND, "ReplicationGroup");
    }

    #[test]
    fn object_trait_provides_meta_access() {
        let mut ns = Namespace {
            meta: ObjectMeta::cluster("shop"),
        };
        assert_eq!(ns.meta().name, "shop");
        ns.meta_mut()
            .labels
            .insert(BACKUP_TAG_KEY.into(), BACKUP_TAG_VALUE.into());
        assert_eq!(
            ns.meta.labels.get(BACKUP_TAG_KEY).map(String::as_str),
            Some(BACKUP_TAG_VALUE)
        );
    }

    #[test]
    fn defaults() {
        assert_eq!(ClaimPhase::default(), ClaimPhase::Pending);
        assert_eq!(ReplicationMode::default(), ReplicationMode::Async);
        assert_eq!(ReplicationState::default(), ReplicationState::Unknown);
    }
}
