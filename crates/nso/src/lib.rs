//! # tsuru-nso — the namespace operator
//!
//! The paper's own contribution (§III-B1): an operator that watches
//! namespaces for the backup tag (`tsuru.io/backup=ConsistentCopyToCloud`,
//! Fig. 3), extracts every claim in the tagged namespace, and creates the
//! `ReplicationGroup` + `VolumeReplication` custom resources that drive the
//! Replication Plug-in — automating asynchronous-data-copy configuration
//! *including the consistency-group setting* without any knowledge of the
//! external storage system. Untagging tears the configuration down again.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tsuru_container::{
    ApiServer, ObjectMeta, Reconciler, ReplicationGroup, ReplicationMode, ReplicationState,
    VolumeReplication, BACKUP_TAG_KEY, BACKUP_TAG_VALUE,
};
use tsuru_storage::StorageWorld;

/// Operator policy.
#[derive(Debug, Clone)]
pub struct NsoConfig {
    /// Request one consistency group per namespace (the paper's design).
    /// `false` reproduces the naive per-volume replication for the
    /// collapse ablation (experiment E2).
    pub consistency_group: bool,
    /// Replication mode for tagged namespaces.
    pub mode: ReplicationMode,
}

impl Default for NsoConfig {
    fn default() -> Self {
        NsoConfig {
            consistency_group: true,
            mode: ReplicationMode::Async,
        }
    }
}

/// The namespace operator.
#[derive(Debug)]
pub struct NamespaceOperator {
    /// Policy.
    pub config: NsoConfig,
    /// Namespaces configured over this operator's lifetime.
    pub namespaces_configured: u64,
    /// Namespaces torn down.
    pub namespaces_torn_down: u64,
}

impl NamespaceOperator {
    /// An operator with the given policy.
    pub fn new(config: NsoConfig) -> Self {
        NamespaceOperator {
            config,
            namespaces_configured: 0,
            namespaces_torn_down: 0,
        }
    }

    /// The ReplicationGroup CR name used for a namespace.
    pub fn group_name(ns: &str) -> String {
        format!("{ns}-backup")
    }

    /// The VolumeReplication CR name used for a claim.
    pub fn replication_name(pvc: &str) -> String {
        format!("{pvc}-repl")
    }
}

impl Reconciler<StorageWorld> for NamespaceOperator {
    fn name(&self) -> &str {
        "namespace-operator"
    }

    fn reconcile(&mut self, api: &mut ApiServer, _st: &mut StorageWorld) {
        let namespaces: Vec<(String, bool)> = api
            .namespaces
            .list()
            .map(|ns| {
                let tagged = ns.meta.labels.get(BACKUP_TAG_KEY).map(String::as_str)
                    == Some(BACKUP_TAG_VALUE);
                (ns.meta.name.clone(), tagged)
            })
            .collect();

        for (ns, tagged) in namespaces {
            let rg_name = Self::group_name(&ns);
            let rg_key = format!("{ns}/{rg_name}");
            if tagged {
                // Extract every claim in the namespace (§II: "the operator
                // identifies the data volumes related to the business
                // process").
                let mut members: Vec<String> = api
                    .pvcs
                    .list_namespace(&ns)
                    .map(|pvc| pvc.meta.name.clone())
                    .collect();
                members.sort();

                if !api.replication_groups.contains(&rg_key) {
                    api.replication_groups.create(ReplicationGroup {
                        meta: ObjectMeta::namespaced(&ns, &rg_name),
                        mode: self.config.mode,
                        consistency_group: self.config.consistency_group,
                        member_pvcs: members.clone(),
                        state: ReplicationState::Unknown,
                        group_handles: Vec::new(),
                    });
                    self.namespaces_configured += 1;
                    api.record_event(
                        format!("Namespace/{ns}"),
                        "BackupConfigured",
                        format!(
                            "tag {BACKUP_TAG_VALUE} observed; replication group \
                             created for {} volume(s)",
                            members.len()
                        ),
                    );
                } else {
                    // Membership follows the namespace's current claims.
                    api.replication_groups.update(&rg_key, |rg| {
                        if rg.member_pvcs != members {
                            rg.member_pvcs = members.clone();
                            true
                        } else {
                            false
                        }
                    });
                }

                for pvc in &members {
                    let vr_name = Self::replication_name(pvc);
                    let vr_key = format!("{ns}/{vr_name}");
                    if !api.replications.contains(&vr_key) {
                        api.replications.create(VolumeReplication {
                            meta: ObjectMeta::namespaced(&ns, &vr_name),
                            source_pvc: pvc.clone(),
                            group_name: rg_name.clone(),
                            state: ReplicationState::Unknown,
                            pair_handle: None,
                        });
                    }
                }
            } else if api.replication_groups.contains(&rg_key) {
                // Untagged: tear down this namespace's replication CRs.
                let vr_keys: Vec<String> = api
                    .replications
                    .list_namespace(&ns)
                    .filter(|vr| vr.group_name == rg_name)
                    .map(|vr| vr.meta.key())
                    .collect();
                for key in vr_keys {
                    api.replications.delete(&key);
                }
                api.replication_groups.delete(&rg_key);
                self.namespaces_torn_down += 1;
                api.record_event(
                    format!("Namespace/{ns}"),
                    "BackupRemoved",
                    "backup tag removed; replication configuration deleted",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_container::{ClaimPhase, ControllerManager, Namespace, PersistentVolumeClaim};
    use tsuru_storage::EngineConfig;

    fn world() -> StorageWorld {
        StorageWorld::new(1, EngineConfig::default())
    }

    fn api_with_namespace(tagged: bool, pvcs: &[&str]) -> ApiServer {
        let mut api = ApiServer::new();
        let mut meta = ObjectMeta::cluster("shop");
        if tagged {
            meta = meta.with_label(BACKUP_TAG_KEY, BACKUP_TAG_VALUE);
        }
        api.namespaces.create(Namespace { meta });
        for name in pvcs {
            api.pvcs.create(PersistentVolumeClaim {
                meta: ObjectMeta::namespaced("shop", *name),
                storage_class: "tsuru-block".into(),
                size_blocks: 64,
                phase: ClaimPhase::Pending,
                volume_name: None,
            });
        }
        api
    }

    #[test]
    fn tagging_creates_group_and_replications() {
        let mut api = api_with_namespace(true, &["sales-data", "sales-wal", "stock-data"]);
        let mut st = world();
        let mut nso = NamespaceOperator::new(NsoConfig::default());
        let report = ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut nso], 10);
        assert!(report.converged);
        let rg = api.replication_groups.get("shop/shop-backup").unwrap();
        assert!(rg.consistency_group);
        assert_eq!(
            rg.member_pvcs,
            vec!["sales-data", "sales-wal", "stock-data"]
        );
        assert_eq!(api.replications.len(), 3);
        assert!(api.replications.contains("shop/sales-data-repl"));
        assert_eq!(nso.namespaces_configured, 1);
    }

    #[test]
    fn untagged_namespace_is_left_alone() {
        let mut api = api_with_namespace(false, &["sales-data"]);
        let mut st = world();
        let mut nso = NamespaceOperator::new(NsoConfig::default());
        ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut nso], 10);
        assert_eq!(api.replication_groups.len(), 0);
        assert_eq!(api.replications.len(), 0);
    }

    #[test]
    fn wrong_tag_value_is_ignored() {
        let mut api = ApiServer::new();
        api.namespaces.create(Namespace {
            meta: ObjectMeta::cluster("shop").with_label(BACKUP_TAG_KEY, "SomethingElse"),
        });
        let mut st = world();
        let mut nso = NamespaceOperator::new(NsoConfig::default());
        ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut nso], 10);
        assert_eq!(api.replication_groups.len(), 0);
    }

    #[test]
    fn untagging_tears_down() {
        let mut api = api_with_namespace(true, &["a", "b"]);
        let mut st = world();
        let mut nso = NamespaceOperator::new(NsoConfig::default());
        ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut nso], 10);
        assert_eq!(api.replications.len(), 2);
        // Remove the tag.
        api.namespaces.update("shop", |ns| {
            ns.meta.labels.remove(BACKUP_TAG_KEY);
            true
        });
        ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut nso], 10);
        assert_eq!(api.replication_groups.len(), 0);
        assert_eq!(api.replications.len(), 0);
        assert_eq!(nso.namespaces_torn_down, 1);
    }

    #[test]
    fn new_claims_join_the_group() {
        let mut api = api_with_namespace(true, &["a"]);
        let mut st = world();
        let mut nso = NamespaceOperator::new(NsoConfig::default());
        ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut nso], 10);
        api.pvcs.create(PersistentVolumeClaim {
            meta: ObjectMeta::namespaced("shop", "late"),
            storage_class: "tsuru-block".into(),
            size_blocks: 64,
            phase: ClaimPhase::Pending,
            volume_name: None,
        });
        ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut nso], 10);
        let rg = api.replication_groups.get("shop/shop-backup").unwrap();
        assert_eq!(rg.member_pvcs, vec!["a", "late"]);
        assert!(api.replications.contains("shop/late-repl"));
    }

    #[test]
    fn naive_policy_is_recorded_on_the_cr() {
        let mut api = api_with_namespace(true, &["a"]);
        let mut st = world();
        let mut nso = NamespaceOperator::new(NsoConfig {
            consistency_group: false,
            mode: ReplicationMode::Async,
        });
        ControllerManager::run_to_convergence(&mut api, &mut st, &mut [&mut nso], 10);
        assert!(
            !api.replication_groups
                .get("shop/shop-backup")
                .unwrap()
                .consistency_group
        );
    }
}
