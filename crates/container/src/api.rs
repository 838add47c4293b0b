//! The API server: one typed store per resource kind.

use crate::meta::ObjectMeta;
use crate::resources::{
    Event, Namespace, PersistentVolume, PersistentVolumeClaim, Pod, ReplicationGroup, StorageClass,
    VolumeGroupSnapshot, VolumeReplication, VolumeSnapshot,
};
use crate::store::Store;

/// The declarative state of one container platform (one per site).
#[derive(Debug, Default)]
pub struct ApiServer {
    /// Namespaces.
    pub namespaces: Store<Namespace>,
    /// Storage classes.
    pub storage_classes: Store<StorageClass>,
    /// Claims.
    pub pvcs: Store<PersistentVolumeClaim>,
    /// Volumes.
    pub pvs: Store<PersistentVolume>,
    /// Pods.
    pub pods: Store<Pod>,
    /// Per-volume snapshots.
    pub snapshots: Store<VolumeSnapshot>,
    /// Group snapshots.
    pub group_snapshots: Store<VolumeGroupSnapshot>,
    /// Per-volume replication CRs.
    pub replications: Store<VolumeReplication>,
    /// Replication-group CRs.
    pub replication_groups: Store<ReplicationGroup>,
    /// Operator events (console feed).
    pub events: Store<Event>,
    next_event: u64,
}

impl ApiServer {
    /// An empty API server.
    pub fn new() -> Self {
        ApiServer::default()
    }

    /// Sum of mutations across every store — the convergence signal for
    /// the controller manager.
    pub fn total_mutations(&self) -> u64 {
        self.namespaces.mutations()
            + self.storage_classes.mutations()
            + self.pvcs.mutations()
            + self.pvs.mutations()
            + self.pods.mutations()
            + self.snapshots.mutations()
            + self.group_snapshots.mutations()
            + self.replications.mutations()
            + self.replication_groups.mutations()
            + self.events.mutations()
    }

    /// Record an operator event (shown on the demo console).
    pub fn record_event(
        &mut self,
        involved: impl Into<String>,
        reason: impl Into<String>,
        message: impl Into<String>,
    ) {
        let id = self.next_event;
        self.next_event += 1;
        self.events.create(Event {
            meta: ObjectMeta::cluster(format!("event-{id}")),
            reason: reason.into(),
            message: message.into(),
            involved: involved.into(),
        });
    }

    /// Render the most recent events, newest last (console tail).
    pub fn event_tail(&self, n: usize) -> Vec<String> {
        let mut all: Vec<_> = self.events.list().collect();
        all.sort_by_key(|e| e.meta.uid);
        all.iter()
            .rev()
            .take(n)
            .rev()
            .map(|e| format!("[{}] {}: {}", e.reason, e.involved, e.message))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_aggregate_across_stores() {
        let mut api = ApiServer::new();
        assert_eq!(api.total_mutations(), 0);
        api.namespaces.create(Namespace {
            meta: ObjectMeta::cluster("a"),
        });
        api.record_event("Namespace/a", "Created", "namespace created");
        assert_eq!(api.total_mutations(), 2);
    }

    #[test]
    fn event_tail_orders_and_limits() {
        let mut api = ApiServer::new();
        for i in 0..5 {
            api.record_event("X", "R", format!("m{i}"));
        }
        let tail = api.event_tail(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].contains("m3"));
        assert!(tail[1].contains("m4"));
    }
}
