//! Replication Plug-in for Containers, and the backup-site importer.
//!
//! [`ReplicationPlugin`] reconciles `ReplicationGroup` / `VolumeReplication`
//! custom resources into array state: secondary volumes, replication pairs
//! and (consistency) groups — the role of Hitachi's Replication Plug-in for
//! Containers (§III-B2). [`BackupSiteImporter`] runs on the backup site's
//! platform and surfaces replicated volumes there as PVs/PVCs, reproducing
//! Fig. 4 of the paper (claims appearing at the backup site after tagging).

use std::collections::BTreeMap;

use tsuru_container::{
    ApiServer, ClaimPhase, ObjectMeta, PersistentVolume, PersistentVolumeClaim, Reconciler,
    ReplicationMode, ReplicationState, VolumeHandle,
};
use tsuru_simnet::LinkId;
use tsuru_storage::{
    ArrayId, GroupId, GroupState, PairId, RecoveryStage, StorageWorld, VolRef, VolumeId,
};

/// Annotation key the replication plugin maintains on namespaces whose
/// groups it manages: the comma-joined names of the SLO alert rules
/// currently firing on the storage world (removed while none fire). The
/// container-platform mirror of an open incident — operators watching
/// the namespace see the breach without reading array telemetry.
pub const SLO_ALERT_ANNOTATION: &str = "tsuru.io/slo-alert";

/// Observed replication health of one array pair, folding the owning
/// group's lifecycle state with the supervisor's recovery stage (when a
/// supervisor is armed on the world).
fn pair_health(st: &StorageWorld, pid: PairId) -> ReplicationState {
    let gid = st.fabric.pair(pid).group;
    if let Some(sv) = st.supervisor() {
        if sv.is_parked(gid) {
            return ReplicationState::Parked;
        }
        if matches!(
            sv.stage(gid),
            RecoveryStage::BackingOff { .. } | RecoveryStage::Recovering { .. }
        ) {
            return ReplicationState::Recovering;
        }
    }
    match st.fabric.group(gid).state {
        GroupState::Active => ReplicationState::Replicating,
        GroupState::Suspended { .. } | GroupState::Promoted => ReplicationState::Suspended,
    }
}

/// Static wiring of the replication plugin.
#[derive(Debug, Clone)]
pub struct ReplicationPluginConfig {
    /// The local (main-site) array.
    pub main_array: ArrayId,
    /// The remote (backup-site) array.
    pub backup_array: ArrayId,
    /// Main → backup data link.
    pub link: LinkId,
    /// Backup → main acknowledgement link.
    pub reverse: LinkId,
    /// Journal capacity for ADC groups.
    pub journal_capacity_bytes: u64,
}

/// The main-site replication reconciler.
#[derive(Debug)]
pub struct ReplicationPlugin {
    cfg: ReplicationPluginConfig,
    /// Array group(s) backing each ReplicationGroup CR (one when the CR
    /// requests a consistency group, one per member otherwise).
    groups_by_cr: BTreeMap<String, Vec<GroupId>>,
    /// Array pair backing each VolumeReplication CR.
    pairs_by_cr: BTreeMap<String, PairId>,
    /// Pairs configured over this plugin's lifetime.
    pub pairs_created: u64,
    /// Pairs torn down.
    pub pairs_removed: u64,
}

impl ReplicationPlugin {
    /// Wire a plugin.
    pub fn new(cfg: ReplicationPluginConfig) -> Self {
        ReplicationPlugin {
            cfg,
            groups_by_cr: BTreeMap::new(),
            pairs_by_cr: BTreeMap::new(),
            pairs_created: 0,
            pairs_removed: 0,
        }
    }

    /// Simulate a reconciler process restart: all in-memory bookkeeping is
    /// lost. The next [`reconcile`](Reconciler::reconcile) re-adopts pairs
    /// and groups from the handles persisted in CR status instead of
    /// re-creating them (re-pairing a volume that already replicates is an
    /// array-side error). Lifetime counters (`pairs_created`,
    /// `pairs_removed`) are deliberately kept — they meter array
    /// operations, which a controller restart does not undo.
    pub fn restart(&mut self) {
        self.groups_by_cr.clear();
        self.pairs_by_cr.clear();
    }

    /// Array group ids configured for a ReplicationGroup CR key.
    pub fn groups_for(&self, cr_key: &str) -> &[GroupId] {
        self.groups_by_cr
            .get(cr_key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Every array group this plugin manages.
    pub fn all_groups(&self) -> Vec<GroupId> {
        let mut v: Vec<GroupId> = self.groups_by_cr.values().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn ensure_group(
        &mut self,
        st: &mut StorageWorld,
        cr_key: &str,
        name: &str,
        mode: ReplicationMode,
    ) -> GroupId {
        if let Some(gs) = self.groups_by_cr.get(cr_key) {
            if let Some(&g) = gs.first() {
                return g;
            }
        }
        let gid = match mode {
            ReplicationMode::Async => st.create_adc_group(
                name,
                self.cfg.link,
                self.cfg.reverse,
                self.cfg.journal_capacity_bytes,
            ),
            ReplicationMode::Sync => st.create_sdc_group(name, self.cfg.link, self.cfg.reverse),
        };
        self.groups_by_cr
            .entry(cr_key.to_owned())
            .or_default()
            .push(gid);
        gid
    }

    fn ensure_solo_group(
        &mut self,
        st: &mut StorageWorld,
        cr_key: &str,
        name: &str,
        mode: ReplicationMode,
    ) -> GroupId {
        let gid = match mode {
            ReplicationMode::Async => st.create_adc_group(
                name,
                self.cfg.link,
                self.cfg.reverse,
                self.cfg.journal_capacity_bytes,
            ),
            ReplicationMode::Sync => st.create_sdc_group(name, self.cfg.link, self.cfg.reverse),
        };
        self.groups_by_cr
            .entry(cr_key.to_owned())
            .or_default()
            .push(gid);
        gid
    }
}

impl Reconciler<StorageWorld> for ReplicationPlugin {
    fn name(&self) -> &str {
        "replication-plugin"
    }

    fn reconcile(&mut self, api: &mut ApiServer, st: &mut StorageWorld) {
        let t = st.control_time();
        st.tracer.instant(
            tsuru_storage::span_names::RECONCILE,
            t,
            tsuru_storage::SpanId::NONE,
            || vec![("plugin", "replication-plugin".into())],
        );
        // --- adopt handles persisted by a previous incarnation ------------
        // After a controller restart the in-memory maps are empty, but the
        // array handles written into CR status survive. Re-adopting them
        // keeps reconciliation idempotent across restarts: without this,
        // the pairing loop below would try to re-pair volumes that already
        // replicate.
        let live_groups: std::collections::BTreeSet<GroupId> = st.fabric.group_ids().collect();
        let rg_handles: Vec<(String, Vec<u32>)> = api
            .replication_groups
            .list()
            .filter(|rg| !rg.group_handles.is_empty())
            .map(|rg| (rg.meta.key(), rg.group_handles.clone()))
            .collect();
        for (rg_key, handles) in rg_handles {
            if self.groups_by_cr.contains_key(&rg_key) {
                continue;
            }
            let gids: Vec<GroupId> = handles
                .into_iter()
                .map(GroupId)
                .filter(|g| live_groups.contains(g))
                .collect();
            if !gids.is_empty() {
                self.groups_by_cr.insert(rg_key, gids);
            }
        }
        let live_pairs: std::collections::BTreeSet<PairId> = st.fabric.pair_ids().collect();
        let vr_handles: Vec<(String, u32)> = api
            .replications
            .list()
            .filter_map(|vr| vr.pair_handle.map(|h| (vr.meta.key(), h)))
            .collect();
        for (vr_key, handle) in vr_handles {
            let pid = PairId(handle);
            if !self.pairs_by_cr.contains_key(&vr_key) && live_pairs.contains(&pid) {
                self.pairs_by_cr.insert(vr_key, pid);
            }
        }

        // --- pair up VolumeReplication CRs -------------------------------
        let vrs: Vec<(String, String, String, Option<String>)> = api
            .replications
            .list()
            .map(|vr| {
                (
                    vr.meta.key(),
                    vr.source_pvc.clone(),
                    vr.group_name.clone(),
                    vr.meta.namespace.clone(),
                )
            })
            .collect();
        for (vr_key, source_pvc, group_name, ns) in vrs {
            if self.pairs_by_cr.contains_key(&vr_key) {
                continue;
            }
            let Some(ns) = ns else { continue };
            let pvc_key = format!("{ns}/{source_pvc}");
            let Some(pvc) = api.pvcs.get(&pvc_key) else {
                continue;
            };
            if pvc.phase != ClaimPhase::Bound {
                continue; // provisioner has not bound it yet; retried next round
            }
            let Some(pv_name) = pvc.volume_name.clone() else {
                continue;
            };
            let Some(pv) = api.pvs.get(&pv_name) else {
                continue;
            };
            let handle = pv.handle;
            if handle.array != self.cfg.main_array.0 {
                continue; // not our array
            }
            let rg_key = format!("{ns}/{group_name}");
            let Some(rg) = api.replication_groups.get(&rg_key) else {
                continue;
            };
            let (mode, cg) = (rg.mode, rg.consistency_group);
            let gid = if cg {
                self.ensure_group(st, &rg_key, &format!("cg-{ns}-{group_name}"), mode)
            } else {
                self.ensure_solo_group(st, &rg_key, &format!("solo-{vr_key}"), mode)
            };
            // Create the secondary volume, named after the claim so the
            // backup site can surface it (see BackupSiteImporter).
            let size = pv.size_blocks;
            let secondary = st.create_volume(self.cfg.backup_array, pvc_key.clone(), size);
            let primary = VolRef::new(ArrayId(handle.array), VolumeId(handle.volume));
            let pair = st.add_pair(gid, primary, secondary);
            self.pairs_by_cr.insert(vr_key.clone(), pair);
            self.pairs_created += 1;
            api.replications.update(&vr_key, |vr| {
                vr.pair_handle = Some(pair.0);
                vr.state = ReplicationState::Replicating;
                true
            });
            api.record_event(
                format!("VolumeReplication/{vr_key}"),
                "Paired",
                format!("{primary} replicating (group g{})", gid.0),
            );
        }

        // --- tear down pairs whose CR vanished ----------------------------
        let dead: Vec<(String, PairId)> = self
            .pairs_by_cr
            .iter()
            .filter(|(key, _)| !api.replications.contains(key))
            .map(|(k, &p)| (k.clone(), p))
            .collect();
        for (key, pair) in dead {
            st.remove_pair(pair);
            self.pairs_by_cr.remove(&key);
            self.pairs_removed += 1;
            api.record_event(
                format!("VolumeReplication/{key}"),
                "Unpaired",
                "replication torn down",
            );
        }
        // Forget groups whose CR vanished (array groups are left in place,
        // inert without pairs — matching how arrays retain group shells).
        self.groups_by_cr
            .retain(|key, _| api.replication_groups.contains(key));

        // --- reflect array + supervisor health into VR status -------------
        // Each VolumeReplication mirrors its pair's group health: a
        // suspension the supervisor is actively healing reads `Recovering`,
        // a circuit-breaker park reads `Parked` (operator action needed).
        let live_pairs: std::collections::BTreeSet<PairId> = st.fabric.pair_ids().collect();
        let vr_states: BTreeMap<String, ReplicationState> = self
            .pairs_by_cr
            .iter()
            .filter(|(_, pid)| live_pairs.contains(pid))
            .map(|(key, &pid)| (key.clone(), pair_health(st, pid)))
            .collect();
        for (vr_key, state) in &vr_states {
            api.replications.update(vr_key, |vr| {
                if vr.state != *state {
                    vr.state = *state;
                    true
                } else {
                    false
                }
            });
        }

        // --- roll up ReplicationGroup status ------------------------------
        let rgs: Vec<String> = api
            .replication_groups
            .list()
            .map(|rg| rg.meta.key())
            .collect();
        for rg_key in rgs {
            // Worst member health wins the rollup: Parked > Recovering >
            // Suspended > Replicating (which additionally requires every
            // member paired) > Unknown.
            let (members_total, members_paired, worst): (usize, usize, Option<ReplicationState>) = {
                let Some(rg) = api.replication_groups.get(&rg_key) else {
                    continue;
                };
                let ns = rg.meta.namespace.clone().unwrap_or_default();
                let member_states: Vec<ReplicationState> = rg
                    .member_pvcs
                    .iter()
                    .filter_map(|pvc| {
                        let vr_key = format!("{ns}/{pvc}-repl");
                        vr_states.get(&vr_key).copied()
                    })
                    .collect();
                let rank = |s: ReplicationState| match s {
                    ReplicationState::Parked => 4,
                    ReplicationState::Recovering => 3,
                    ReplicationState::Suspended => 2,
                    ReplicationState::Replicating => 1,
                    ReplicationState::Unknown => 0,
                };
                let worst = member_states.iter().copied().max_by_key(|&s| rank(s));
                (rg.member_pvcs.len(), member_states.len(), worst)
            };
            let handles: Vec<u32> = self.groups_for(&rg_key).iter().map(|g| g.0).collect();
            api.replication_groups.update(&rg_key, |rg| {
                let new_state = match worst {
                    Some(ReplicationState::Replicating) | None => {
                        if members_total > 0 && members_paired == members_total {
                            ReplicationState::Replicating
                        } else {
                            ReplicationState::Unknown
                        }
                    }
                    Some(s) => s,
                };
                if rg.state != new_state || rg.group_handles != handles {
                    rg.state = new_state;
                    rg.group_handles = handles.clone();
                    true
                } else {
                    false
                }
            });
        }

        // --- surface firing SLO alerts as namespace conditions ------------
        // Only runs when an alert engine is armed on the world; the
        // annotation appears while rules fire and is removed once every
        // incident resolves, so untraced experiments see zero churn.
        let Some(engine) = st.alerts() else { return };
        let firing = engine.firing_rules().join(",");
        let namespaces: std::collections::BTreeSet<String> = api
            .replication_groups
            .list()
            .filter_map(|rg| rg.meta.namespace.clone())
            .collect();
        for ns in namespaces {
            let prev = api
                .namespaces
                .get(&ns)
                .and_then(|n| n.meta.annotations.get(SLO_ALERT_ANNOTATION).cloned());
            if firing.is_empty() {
                if prev.is_some() {
                    api.namespaces.update(&ns, |n| {
                        n.meta.annotations.remove(SLO_ALERT_ANNOTATION);
                        true
                    });
                    api.record_event(
                        format!("Namespace/{ns}"),
                        "SloRecovered",
                        "all alert rules stopped firing",
                    );
                }
            } else if prev.as_deref() != Some(firing.as_str()) {
                api.namespaces.update(&ns, |n| {
                    n.meta
                        .annotations
                        .insert(SLO_ALERT_ANNOTATION.to_string(), firing.clone());
                    true
                });
                api.record_event(
                    format!("Namespace/{ns}"),
                    "SloBreach",
                    format!("alert rules firing: {firing}"),
                );
            }
        }
    }
}

/// Backup-site controller: surfaces replicated volumes as PVs and PVCs on
/// the backup platform (Fig. 4).
#[derive(Debug)]
pub struct BackupSiteImporter {
    /// The backup-site array this importer watches.
    pub backup_array: ArrayId,
    imported: BTreeMap<String, ()>,
}

impl BackupSiteImporter {
    /// A new importer for `backup_array`.
    pub fn new(backup_array: ArrayId) -> Self {
        BackupSiteImporter {
            backup_array,
            imported: BTreeMap::new(),
        }
    }
}

impl Reconciler<StorageWorld> for BackupSiteImporter {
    fn name(&self) -> &str {
        "backup-site-importer"
    }

    fn reconcile(&mut self, api: &mut ApiServer, st: &mut StorageWorld) {
        let t = st.control_time();
        st.tracer.instant(
            tsuru_storage::span_names::RECONCILE,
            t,
            tsuru_storage::SpanId::NONE,
            || vec![("plugin", "backup-site-importer".into())],
        );
        // Active pairs targeting our array, keyed by the claim key embedded
        // in the secondary volume's name.
        let mut live: Vec<(String, VolRef, u64)> = Vec::new();
        for pid in st.fabric.pair_ids() {
            let pair = st.fabric.pair(pid);
            if pair.secondary.array != self.backup_array {
                continue;
            }
            if st.fabric.pair_by_primary(pair.primary) != Some(pid) {
                continue; // detached
            }
            let vol = st.array(self.backup_array).volume(pair.secondary.volume);
            live.push((vol.name().to_owned(), pair.secondary, vol.size_blocks()));
        }

        for (claim_key, secondary, size) in &live {
            if self.imported.contains_key(claim_key) {
                continue;
            }
            let Some((ns, name)) = claim_key.split_once('/') else {
                continue; // not an importer-named volume
            };
            if !api.namespaces.contains(ns) {
                api.namespaces.create(tsuru_container::Namespace {
                    meta: ObjectMeta::cluster(ns),
                });
            }
            let pv_name = format!("pv-{ns}-{name}-replica");
            if !api.pvs.contains(&pv_name) {
                api.pvs.create(PersistentVolume {
                    meta: ObjectMeta::cluster(&pv_name),
                    storage_class: "tsuru-block".into(),
                    size_blocks: *size,
                    handle: VolumeHandle {
                        array: secondary.array.0,
                        volume: secondary.volume.0,
                    },
                    claim_key: Some(claim_key.clone()),
                });
            }
            if !api.pvcs.contains(claim_key) {
                api.pvcs.create(PersistentVolumeClaim {
                    meta: ObjectMeta::namespaced(ns, name),
                    storage_class: "tsuru-block".into(),
                    size_blocks: *size,
                    phase: ClaimPhase::Bound,
                    volume_name: Some(pv_name.clone()),
                });
                api.record_event(
                    format!("PersistentVolumeClaim/{claim_key}"),
                    "Imported",
                    "replicated volume surfaced at the backup site",
                );
            }
            self.imported.insert(claim_key.clone(), ());
        }

        // Remove imports whose pair was torn down.
        let live_keys: std::collections::BTreeSet<&String> =
            live.iter().map(|(k, _, _)| k).collect();
        let dead: Vec<String> = self
            .imported
            .keys()
            .filter(|k| !live_keys.contains(k))
            .cloned()
            .collect();
        for claim_key in dead {
            if let Some((ns, name)) = claim_key.split_once('/') {
                let pv_name = format!("pv-{ns}-{name}-replica");
                api.pvcs.delete(&claim_key);
                api.pvs.delete(&pv_name);
                api.record_event(
                    format!("PersistentVolumeClaim/{claim_key}"),
                    "ImportRemoved",
                    "replication torn down; claim removed from backup site",
                );
            }
            self.imported.remove(&claim_key);
        }
    }
}
