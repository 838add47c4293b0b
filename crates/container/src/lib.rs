//! # tsuru-container — a miniature declarative container platform
//!
//! The stand-in for the paper's OpenShift 4.13 clusters: a typed,
//! versioned object store ([`ApiServer`]), the Kubernetes resource kinds
//! the demonstration needs (namespaces, claims, volumes, pods, snapshot and
//! replication custom resources), a level-triggered controller runtime
//! ([`ControllerManager`]), and the CSI abstraction ([`CsiDriver`]) with a
//! generic dynamic provisioner.
//!
//! Vendor plugins (`tsuru-plugin`) and the namespace operator
//! (`tsuru-nso`) are controllers over this platform, exactly as the
//! paper's Storage/Replication Plug-in for Containers and operator-sdk
//! operator are controllers over OpenShift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod csi;
mod meta;
mod reconcile;
mod resources;
mod store;

pub use api::ApiServer;
pub use csi::{CsiDriver, Provisioner};
pub use meta::{Object, ObjectMeta};
pub use reconcile::{ControllerManager, ConvergenceReport, Reconciler};
pub use resources::{
    ClaimPhase, Event, Namespace, PersistentVolume, PersistentVolumeClaim, Pod, ReplicationGroup,
    ReplicationMode, ReplicationState, StorageClass, VolumeGroupSnapshot, VolumeHandle,
    VolumeReplication, VolumeSnapshot, BACKUP_TAG_KEY, BACKUP_TAG_VALUE,
};
pub use store::{Store, WatchEvent};
