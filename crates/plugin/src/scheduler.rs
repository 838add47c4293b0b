//! Scheduled snapshots with retention — the backup catalogue.
//!
//! The paper's demonstration takes snapshots on demand from the console;
//! production backup systems take them on a schedule and keep a bounded
//! history. [`SnapshotScheduler`] periodically creates a
//! `VolumeGroupSnapshot` for a namespace (fulfilled by the
//! [`SnapshotPlugin`](crate::SnapshotPlugin)) and prunes the oldest
//! generations beyond the retention limit, releasing their array snapshots
//! and copy-on-write space.

use tsuru_container::{ApiServer, ObjectMeta, Reconciler, VolumeGroupSnapshot};
use tsuru_sim::{SimDuration, SimTime};
use tsuru_storage::{ArrayId, SnapshotId, StorageWorld};

/// Periodic group-snapshot policy for one namespace.
#[derive(Debug)]
pub struct SnapshotScheduler {
    /// Namespace whose claims are snapshotted.
    pub namespace: String,
    /// Array holding the snapshots (the backup site).
    pub array: ArrayId,
    /// Time between snapshot generations.
    pub interval: SimDuration,
    /// Generations to keep (older ready generations are pruned).
    pub retention: usize,
    next_due: SimTime,
    counter: u64,
    /// Generations created.
    pub taken: u64,
    /// Generations pruned.
    pub pruned: u64,
}

impl SnapshotScheduler {
    /// A scheduler that becomes due immediately.
    pub fn new(
        namespace: impl Into<String>,
        array: ArrayId,
        interval: SimDuration,
        retention: usize,
    ) -> Self {
        assert!(
            retention >= 1,
            "retention must keep at least one generation"
        );
        SnapshotScheduler {
            namespace: namespace.into(),
            array,
            interval,
            retention,
            next_due: SimTime::ZERO,
            counter: 0,
            taken: 0,
            pruned: 0,
        }
    }

    /// The generation name for index `n`.
    pub fn generation_name(n: u64) -> String {
        format!("auto-{n:06}")
    }
}

impl Reconciler<StorageWorld> for SnapshotScheduler {
    fn name(&self) -> &str {
        "snapshot-scheduler"
    }

    fn reconcile(&mut self, api: &mut ApiServer, st: &mut StorageWorld) {
        let now = st.control_time();
        st.tracer.instant(
            tsuru_storage::span_names::RECONCILE,
            now,
            tsuru_storage::SpanId::NONE,
            || vec![("plugin", "snapshot-scheduler".into())],
        );
        // Take a new generation when due.
        if now >= self.next_due {
            let name = Self::generation_name(self.counter);
            let key = format!("{}/{name}", self.namespace);
            if !api.group_snapshots.contains(&key) {
                api.group_snapshots.create(VolumeGroupSnapshot {
                    meta: ObjectMeta::namespaced(&self.namespace, &name),
                    selector: Default::default(),
                    ready: false,
                    snapshot_handles: Vec::new(),
                });
                self.counter += 1;
                self.taken += 1;
                self.next_due = now + self.interval;
                api.record_event(
                    format!("VolumeGroupSnapshot/{key}"),
                    "Scheduled",
                    format!("generation {} due at {}", self.counter, self.next_due),
                );
            }
        }
        // Prune: keep the newest `retention` *ready* generations.
        type Generation = (u64, String, Vec<(String, u64)>);
        let mut ready: Vec<Generation> = api
            .group_snapshots
            .list_namespace(&self.namespace)
            .filter(|g| g.ready && g.meta.name.starts_with("auto-"))
            .map(|g| (g.meta.uid, g.meta.key(), g.snapshot_handles.clone()))
            .collect();
        ready.sort_by_key(|(uid, _, _)| *uid);
        while ready.len() > self.retention {
            let (_, key, handles) = ready.remove(0);
            for (_, h) in &handles {
                st.array_mut(self.array).delete_snapshot(SnapshotId(*h));
            }
            api.group_snapshots.delete(&key);
            self.pruned += 1;
            api.record_event(
                format!("VolumeGroupSnapshot/{key}"),
                "Pruned",
                "generation beyond retention; array snapshots released",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SnapshotPlugin, TsuruBlockDriver};
    use std::collections::BTreeMap;
    use tsuru_container::{
        ClaimPhase, ControllerManager, PersistentVolumeClaim, Provisioner, StorageClass,
    };
    use tsuru_storage::{ArrayPerf, EngineConfig};

    fn setup() -> (
        StorageWorld,
        ApiServer,
        ArrayId,
        Provisioner<TsuruBlockDriver>,
    ) {
        let mut st = StorageWorld::new(9, EngineConfig::default());
        let a = st.add_array("b", ArrayPerf::default());
        let mut api = ApiServer::new();
        api.storage_classes.create(StorageClass {
            meta: ObjectMeta::cluster("tsuru-block"),
            provisioner: "csi.test".into(),
            parameters: BTreeMap::new(),
        });
        for name in ["wal", "data"] {
            api.pvcs.create(PersistentVolumeClaim {
                meta: ObjectMeta::namespaced("shop", name),
                storage_class: "tsuru-block".into(),
                size_blocks: 16,
                phase: ClaimPhase::Pending,
                volume_name: None,
            });
        }
        let mut prov = Provisioner::new(TsuruBlockDriver::new(a, "csi.test"));
        ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut prov], 8);
        (st, api, a, prov)
    }

    #[test]
    fn scheduler_takes_generations_and_prunes() {
        let (mut st, mut api, a, _prov) = setup();
        let mut sched = SnapshotScheduler::new("shop", a, SimDuration::from_secs(60), 2);
        let mut plugin = SnapshotPlugin::new(a);

        // Five scheduling epochs, 1 minute apart.
        for minute in 0..5u64 {
            st.set_control_time(SimTime::from_secs(minute * 60));
            ControllerManager::run_to_convergence(
                &mut api,
                &mut st,
                &mut [&mut sched, &mut plugin],
                16,
            );
        }
        assert_eq!(sched.taken, 5);
        assert_eq!(sched.pruned, 3, "retention 2 keeps the newest two");
        let names: Vec<String> = api
            .group_snapshots
            .list_namespace("shop")
            .map(|g| g.meta.name.clone())
            .collect();
        assert_eq!(names, vec!["auto-000003", "auto-000004"]);
        // Array snapshots of pruned generations are gone: 2 generations ×
        // 2 volumes remain.
        assert_eq!(st.array(a).snapshot_ids().len(), 4);
    }

    #[test]
    fn scheduler_does_not_retake_before_due() {
        let (mut st, mut api, a, _prov) = setup();
        let mut sched = SnapshotScheduler::new("shop", a, SimDuration::from_secs(60), 3);
        let mut plugin = SnapshotPlugin::new(a);
        st.set_control_time(SimTime::from_secs(1));
        ControllerManager::run_to_convergence(
            &mut api,
            &mut st,
            &mut [&mut sched, &mut plugin],
            16,
        );
        // Thirty seconds later: not due yet.
        st.set_control_time(SimTime::from_secs(31));
        ControllerManager::run_to_convergence(
            &mut api,
            &mut st,
            &mut [&mut sched, &mut plugin],
            16,
        );
        assert_eq!(sched.taken, 1);
    }

    #[test]
    #[should_panic(expected = "retention")]
    fn zero_retention_rejected() {
        let _ = SnapshotScheduler::new("x", ArrayId(0), SimDuration::from_secs(1), 0);
    }
}
