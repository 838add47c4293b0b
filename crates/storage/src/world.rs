//! The storage world: arrays + network + replication fabric + ack log.
//!
//! [`StorageWorld`] is the single mutable state that the discrete-event
//! engine (see [`crate::engine`]) operates on. Control-plane operations
//! (volume/pair/group lifecycle, snapshots, failover) are synchronous
//! methods here; the timed data plane lives in `engine`.

use std::collections::BTreeMap;

use tsuru_history::Recorder;
use tsuru_sim::{DetRng, SimDuration, SimTime};
use tsuru_simnet::{LinkConfig, LinkId, Network, TransferOutcome};
use tsuru_telemetry::{names, spans, AlertEngine, AlertProfile, MetricsRegistry, SpanId, Tracer};

use crate::acklog::{AckLog, PrefixReport};
use crate::array::{ArrayPerf, StorageArray, WriteError};
use crate::block::{block_from, ArrayId, BlockBuf, GroupId, PairId, SnapshotId, VolRef, VolumeId};
use crate::config::{EngineConfig, JournalFullPolicy};
use crate::fabric::{
    Group, GroupMode, GroupState, Pair, ReplicationFabric, ReplicationTotals, SuspendReason,
};
use crate::event::{OpCounts, OP_KINDS};
use crate::hot::TicketLanes;
use crate::lanewait::{LaneWaits, Waiter};
use crate::shard::ShardLayout;
use crate::journal::JournalEntry;
use crate::supervisor::{Supervisor, SupervisorPolicy};
use crate::volume::VolumeRole;

/// Access to the storage world from an arbitrary simulation state type.
///
/// The discrete-event engine functions are generic over the world type `S`,
/// so higher layers (database drivers, the demo system) can embed a
/// [`StorageWorld`] in a larger state struct and still use the engine.
pub trait HasStorage {
    /// Borrow the storage world.
    fn storage(&self) -> &StorageWorld;
    /// Mutably borrow the storage world.
    fn storage_mut(&mut self) -> &mut StorageWorld;
}

impl HasStorage for StorageWorld {
    fn storage(&self) -> &StorageWorld {
        self
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        self
    }
}

/// Result of the write-order-fidelity verification of a backup image.
#[derive(Debug, Clone)]
pub struct ConsistencyReport {
    /// Formal prefix-consistency verdict against the global ack order.
    pub prefix: PrefixReport,
    /// Blocks whose secondary content does not match the expected prefix
    /// image (always empty unless there is an engine bug).
    pub content_mismatches: Vec<String>,
}

impl ConsistencyReport {
    /// True iff both the ordering and the content checks passed.
    pub fn is_consistent(&self) -> bool {
        self.prefix.consistent && self.content_mismatches.is_empty()
    }
}

/// Recovery-point metrics at failover time (experiment E3).
#[derive(Debug, Clone)]
pub struct RpoReport {
    /// Writes acknowledged at the main site but absent from the backup.
    pub lost_writes: u64,
    /// Writes acknowledged at the main site in total (across the groups).
    pub acked_writes: u64,
    /// Age of the backup image: failure time minus the ack time of the
    /// newest write present at the backup site.
    pub rpo: SimDuration,
}

/// What a group resynchronisation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncReport {
    /// Blocks copied from primary to secondary volumes.
    pub blocks_copied: u64,
    /// True if only the suspended-era delta was copied (vs a full copy).
    pub delta: bool,
}

/// The complete storage-layer state of a multi-site deployment.
#[derive(Debug)]
pub struct StorageWorld {
    /// Engine tunables.
    pub config: EngineConfig,
    arrays: Vec<StorageArray>,
    /// Inter-site links.
    pub net: Network,
    /// Pairs, groups, journals.
    pub fabric: ReplicationFabric,
    /// Global ack-order log (the write-order-fidelity oracle).
    pub ack_log: AckLog,
    /// Named counters, gauges and time series (see
    /// [`tsuru_telemetry::names`] for the keys the engine uses).
    pub metrics: MetricsRegistry,
    /// Causal span tracer; disabled (free) unless
    /// [`StorageWorld::set_tracer`] installed a recording handle.
    pub tracer: Tracer,
    /// Client-visible op-history recorder; disabled (free) unless
    /// [`StorageWorld::set_history`] installed a recording handle. The
    /// storage layer never records into it itself — it is the rendezvous
    /// point where application drivers and image readers, which only
    /// share the world, find the same history.
    pub history: Recorder,
    /// Per-volume host-write ordering in SoA lanes. A write takes a ticket
    /// at submission and may only apply when its ticket equals the volume's
    /// turn, so a stalled write can never be overtaken by a later one
    /// (tail-block rewrites would otherwise go back in time).
    write_order: TicketLanes,
    /// Transfer pumps waiting out their link's backlog, per link, plus
    /// each link's pending wake (see [`crate::lanewait`]).
    pub(crate) lane_waits: LaneWaits,
    /// Data-plane steps dispatched so far, per [`crate::StorageOp`] kind.
    op_counts: OpCounts,
    /// Self-healing replication supervisor; absent unless armed via
    /// [`StorageWorld::enable_supervisor`] (experiments that hand-drive
    /// recovery keep it off).
    supervisor: Option<Supervisor>,
    /// SLO/alerting engine; absent unless armed via
    /// [`StorageWorld::enable_alerts`] — a true no-op when off.
    alerts: Option<AlertEngine>,
    rng: DetRng,
    control_time: SimTime,
}

impl StorageWorld {
    /// A new world with the given seed and configuration.
    pub fn new(seed: u64, config: EngineConfig) -> Self {
        StorageWorld {
            config,
            arrays: Vec::new(),
            net: Network::new(),
            fabric: ReplicationFabric::new(),
            ack_log: AckLog::new(),
            metrics: MetricsRegistry::new(),
            tracer: Tracer::disabled(),
            history: Recorder::disabled(),
            write_order: TicketLanes::new(),
            lane_waits: LaneWaits::default(),
            op_counts: [0; OP_KINDS.len()],
            supervisor: None,
            alerts: None,
            rng: DetRng::new(seed),
            control_time: SimTime::ZERO,
        }
    }

    /// Arm the self-healing replication supervisor with the given policy.
    /// The supervisor's backoff-jitter stream derives from the world seed
    /// (stream `0x5AFE`), so recovery schedules are deterministic per
    /// trial. The caller still has to drive [`crate::supervisor::tick`]
    /// from a timer event (see `tsuru-core`'s `SupervisorTick`).
    pub fn enable_supervisor(&mut self, policy: SupervisorPolicy) {
        let rng = self.rng.derive(0x5AFE);
        self.supervisor = Some(Supervisor::new(policy, rng));
    }

    /// The armed supervisor, if any.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// Mutable access to the armed supervisor, if any.
    pub fn supervisor_mut(&mut self) -> Option<&mut Supervisor> {
        self.supervisor.as_mut()
    }

    /// Detach the supervisor for one probe pass (borrow split: the tick
    /// walks groups mutably while consulting supervisor state).
    pub(crate) fn take_supervisor(&mut self) -> Option<Supervisor> {
        self.supervisor.take()
    }

    /// Re-attach the supervisor after a probe pass.
    pub(crate) fn put_supervisor(&mut self, sv: Supervisor) {
        self.supervisor = Some(sv);
    }

    /// Arm the SLO/alerting engine with the given rule profile, with
    /// `now` as the arming instant (the absence-rule reference before a
    /// series' first sample). Turns on time-series sampling so the
    /// rules' signals exist. The caller still has to drive
    /// [`StorageWorld::slo_tick`] from a timer event (see `tsuru-core`'s
    /// `SloTick`).
    pub fn enable_alerts(&mut self, profile: AlertProfile, now: SimTime) {
        self.metrics.enable_sampling();
        self.alerts = Some(AlertEngine::new(profile, now));
    }

    /// The armed alert engine, if any.
    pub fn alerts(&self) -> Option<&AlertEngine> {
        self.alerts.as_ref()
    }

    /// Detach the alert engine (e.g. to harvest its incident log after a
    /// run).
    pub fn take_alerts(&mut self) -> Option<AlertEngine> {
        self.alerts.take()
    }

    /// One SLO evaluation pass at `now`: sample the health series, then
    /// evaluate every rule of the armed profile. No-op without an armed
    /// engine.
    pub fn slo_tick(&mut self, now: SimTime) {
        let Some(mut engine) = self.alerts.take() else {
            return;
        };
        self.sample_health_series(now);
        let supervisor = self.supervisor_stage_summary();
        engine.evaluate(now, &self.metrics, &self.tracer, &supervisor);
        self.alerts = Some(engine);
    }

    /// One-line supervisor stage summary ("off" when unarmed, "idle"
    /// when no groups exist) — captured into incidents at open time.
    pub fn supervisor_stage_summary(&self) -> String {
        let Some(sv) = &self.supervisor else {
            return "off".to_string();
        };
        let parts: Vec<String> = self
            .fabric
            .group_ids()
            .map(|gid| format!("g{}={}", gid.0, sv.stage(gid).label()))
            .collect();
        if parts.is_empty() {
            "idle".to_string()
        } else {
            parts.join(" ")
        }
    }

    /// Sample the SLO health series (observed cluster state, not rule
    /// state): RPO lag, journal occupancy, down links, failed arrays,
    /// degraded groups. Runs only on SLO ticks, so the series exist only
    /// while the alert engine is armed.
    fn sample_health_series(&mut self, now: SimTime) {
        let totals = self.checked_replication_totals();
        let degraded = self
            .fabric
            .group_ids()
            .map(|gid| self.fabric.group(gid))
            .filter(|g| !g.pairs.is_empty() && !g.is_active())
            .count() as u64;
        let links_down = self.net.iter().filter(|(_, l)| !l.is_up(now)).count() as u64;
        let arrays_failed = self.arrays.iter().filter(|a| a.is_failed()).count() as u64;
        self.metrics
            .sample(names::HEALTH_RPO_LAG, now, totals.lag_writes as f64);
        self.metrics.sample(
            names::HEALTH_JOURNAL_OCCUPANCY,
            now,
            totals.journal_bytes as f64,
        );
        self.metrics
            .sample(names::HEALTH_LINKS_DOWN, now, links_down as f64);
        self.metrics
            .sample(names::HEALTH_ARRAYS_FAILED, now, arrays_failed as f64);
        self.metrics
            .sample(names::HEALTH_GROUPS_DEGRADED, now, degraded as f64);
    }

    /// Install a tracing handle on the world, its network and every link,
    /// and turn on time-series sampling (RPO lag, journal occupancy) at
    /// the replication edges. Install before the first engine event so
    /// the trace covers the whole run.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.net.set_tracer(tracer.clone());
        self.tracer = tracer;
        self.metrics.enable_sampling();
    }

    /// Install a client-visible history recorder. Install after setup
    /// (formatting, seeding) so the recorded history starts at the
    /// workload's first operation, like the tracer.
    pub fn set_history(&mut self, history: Recorder) {
        self.history = history;
    }

    /// The control-plane clock: set by the orchestrator before running
    /// reconcilers so that control operations (snapshots, suspensions)
    /// carry the right simulated timestamp.
    pub fn control_time(&self) -> SimTime {
        self.control_time
    }

    /// Advance the control-plane clock (monotonic).
    pub fn set_control_time(&mut self, now: SimTime) {
        self.control_time = self.control_time.max(now);
    }

    // ----- arrays / volumes -------------------------------------------------

    /// Register a new array.
    pub fn add_array(&mut self, name: impl Into<String>, perf: ArrayPerf) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(StorageArray::new(id, name, perf));
        id
    }

    /// Borrow an array.
    pub fn array(&self, id: ArrayId) -> &StorageArray {
        self.arrays.get(id.0 as usize).expect("invariant: ArrayId is only minted by add_array")
    }

    /// Mutably borrow an array.
    pub fn array_mut(&mut self, id: ArrayId) -> &mut StorageArray {
        self.arrays.get_mut(id.0 as usize).expect("invariant: ArrayId is only minted by add_array")
    }

    /// Number of registered arrays.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Create a volume and return a fully qualified reference.
    pub fn create_volume(
        &mut self,
        array: ArrayId,
        name: impl Into<String>,
        size_blocks: u64,
    ) -> VolRef {
        let volume = self.array_mut(array).create_volume(name, size_blocks);
        VolRef { array, volume }
    }

    /// Zero-time block write that bypasses the data path and replication.
    /// For initial formatting before pairs exist (e.g. `mkfs` of the
    /// databases); payload shorter than a block is zero-padded.
    pub fn write_direct(&mut self, vol: VolRef, lba: u64, data: &[u8]) {
        self.array_mut(vol.array)
            .write_block(vol.volume, lba, block_from(data));
    }

    /// Zero-time block read bypassing the data path.
    pub fn read_direct(&self, vol: VolRef, lba: u64) -> Option<&BlockBuf> {
        self.array(vol.array).read_block(vol.volume, lba)
    }

    /// Register an inter-site link with a dedicated jitter/loss stream.
    pub fn add_link(&mut self, config: LinkConfig) -> LinkId {
        let stream = 0x1000 + self.net.len() as u64;
        let rng = self.rng.derive(stream);
        self.net.add_link(config, rng)
    }

    // ----- replication groups / pairs ----------------------------------------

    /// Create an ADC replication group with fresh journals on both sites.
    /// With more than one member pair this *is* a consistency group: all
    /// members share the journal's sequence space.
    pub fn create_adc_group(
        &mut self,
        name: impl Into<String>,
        link: LinkId,
        reverse: LinkId,
        journal_capacity_bytes: u64,
    ) -> GroupId {
        let overhead = self.config.journal_entry_overhead;
        let pj = self.fabric.add_journal(journal_capacity_bytes, overhead);
        let sj = self.fabric.add_journal(journal_capacity_bytes, overhead);
        let id = self.fabric.next_group_id();
        let rng = self.rng.derive(0x2000 + id.0 as u64);
        self.fabric.add_group(Group {
            id,
            name: name.into(),
            mode: GroupMode::Adc,
            primary_jnl: Some(pj),
            secondary_jnl: Some(sj),
            link,
            reverse,
            pairs: Vec::new(),
            state: GroupState::Active,
            pump_scheduled: false,
            pump_parked: false,
            apply_scheduled: false,
            applied_ack_sent: 0,
            generation: 0,
            rng,
            stats: Default::default(),
        })
    }

    /// Create a synchronous (SDC) replication group.
    pub fn create_sdc_group(
        &mut self,
        name: impl Into<String>,
        link: LinkId,
        reverse: LinkId,
    ) -> GroupId {
        let id = self.fabric.next_group_id();
        let rng = self.rng.derive(0x2000 + id.0 as u64);
        self.fabric.add_group(Group {
            id,
            name: name.into(),
            mode: GroupMode::Sdc,
            primary_jnl: None,
            secondary_jnl: None,
            link,
            reverse,
            pairs: Vec::new(),
            state: GroupState::Active,
            pump_scheduled: false,
            pump_parked: false,
            apply_scheduled: false,
            applied_ack_sent: 0,
            generation: 0,
            rng,
            stats: Default::default(),
        })
    }

    /// Add a primary→secondary pair to a group. Performs the initial copy
    /// (all current primary content is cloned to the secondary, §III-A1)
    /// and fences the secondary against host writes.
    pub fn add_pair(&mut self, group: GroupId, primary: VolRef, secondary: VolRef) -> PairId {
        assert_ne!(
            primary, secondary,
            "a volume cannot replicate to itself"
        );
        // Initial copy: snapshot of the primary's current content.
        let (content, initial_hashes, primary_blocks) = {
            let pv = self.array(primary.array).volume(primary.volume);
            let blocks: Vec<(u64, BlockBuf)> =
                pv.iter_blocks().map(|(lba, b)| (lba, b.clone())).collect();
            (blocks, pv.content_hashes(), pv.size_blocks())
        };
        {
            let sa = self.array_mut(secondary.array);
            // Host writes are range-checked against the primary only; every
            // address it admits must exist on the secondary too.
            assert!(
                sa.volume(secondary.volume).size_blocks() >= primary_blocks,
                "secondary smaller than its primary"
            );
            sa.replace_content(secondary.volume, content);
            sa.set_volume_role(secondary.volume, VolumeRole::Secondary);
        }
        let id = self.fabric.next_pair_id();
        let ack_offset = self.ack_log.count_for(primary);
        self.fabric.add_pair(Pair {
            id,
            group,
            primary,
            secondary,
            ack_offset,
            acked_writes: 0,
            applied_writes: 0,
            initial_hashes,
            dirty_since_suspend: std::collections::BTreeSet::new(),
        })
    }

    /// Tear down a pair: stop intercepting writes and unfence the secondary.
    pub fn remove_pair(&mut self, id: PairId) {
        let secondary = self.fabric.pair(id).secondary;
        self.fabric.detach_pair(id);
        self.array_mut(secondary.array)
            .set_volume_role(secondary.volume, VolumeRole::Primary);
    }

    /// Operator suspend of a group.
    pub fn suspend_group(&mut self, id: GroupId, now: SimTime) {
        self.fabric
            .group_mut(id)
            .suspend(now, SuspendReason::Operator);
    }

    /// Resume a suspended group by resynchronising every member pair and
    /// opening a fresh replication epoch.
    ///
    /// A *suspended* group gets a **delta resync**: only the blocks written
    /// while suspended (the dirty bitmap) plus whatever was stranded in the
    /// journal are recopied — mirroring how arrays avoid full re-copies
    /// after short splits. Any other group gets a full initial copy. Both
    /// journals are replaced and the group's generation is bumped so that
    /// in-flight frames and pump events from the old epoch are discarded.
    pub fn resync_group(&mut self, id: GroupId) -> ResyncReport {
        self.resync_group_with(id, false)
    }

    /// [`StorageWorld::resync_group`] with an explicit degradation switch:
    /// `force_full` demands a full initial copy even where a delta resync
    /// would be legal. The supervisor uses this once the accumulated
    /// journal debt plus dirty-bitmap working set makes a delta
    /// uneconomical (graceful degradation instead of an oversized delta).
    pub fn resync_group_with(&mut self, id: GroupId, force_full: bool) -> ResyncReport {
        let suspended = matches!(self.fabric.group(id).state, GroupState::Suspended { .. });
        let pair_ids = self.fabric.group(id).pairs.clone();
        let mut blocks_copied = 0u64;
        let delta = suspended && !force_full;
        for pid in pair_ids {
            let (primary, secondary) = {
                let p = self.fabric.pair(pid);
                (p.primary, p.secondary)
            };
            // The working set: blocks dirtied while suspended, plus
            // whatever still sat in the primary journal (sent or not —
            // recopying an already-applied block is harmless).
            let lbas: Vec<u64> = if delta {
                let mut set = std::mem::take(&mut self.fabric.pair_mut(pid).dirty_since_suspend);
                if let Some(jid) = self.fabric.group(id).primary_jnl {
                    set.extend(self.fabric.journal(jid).entries_for(pid));
                }
                set.into_iter().collect()
            } else {
                self.array(primary.array)
                    .volume(primary.volume)
                    .iter_blocks()
                    .map(|(lba, _)| lba)
                    .collect()
            };
            let blocks: Vec<(u64, BlockBuf)> = {
                let pv = self.array(primary.array).volume(primary.volume);
                lbas.iter()
                    .filter_map(|&lba| pv.read(lba).map(|b| (lba, b.clone())))
                    .collect()
            };
            blocks_copied += blocks.len() as u64;
            if !delta {
                self.array_mut(secondary.array)
                    .wipe_volume(secondary.volume);
            }
            for (lba, b) in blocks {
                self.array_mut(secondary.array)
                    .write_block(secondary.volume, lba, b);
            }
            let hashes = self
                .array(primary.array)
                .volume(primary.volume)
                .content_hashes();
            let offset = self.ack_log.count_for(primary);
            self.fabric.update_pair(pid, |p| {
                p.initial_hashes = hashes;
                p.ack_offset = offset;
                p.acked_writes = 0;
                p.applied_writes = 0;
                p.dirty_since_suspend.clear();
            });
        }
        // The whole group's recopy is one step of the backup image.
        self.end_group_boundary(id);
        // Fresh journals and a new replication epoch: in-flight frames and
        // pump events from the old epoch are discarded by their generation
        // tag.
        let capacity_overhead = {
            let g = self.fabric.group(id);
            g.primary_jnl.map(|j| {
                let jnl = self.fabric.journal(j);
                (jnl.capacity_bytes(), self.config.journal_entry_overhead)
            })
        };
        if let Some((capacity, overhead)) = capacity_overhead {
            let pj = self.fabric.add_journal(capacity, overhead);
            let sj = self.fabric.add_journal(capacity, overhead);
            self.fabric.swap_journals(id, pj, sj);
        }
        let g = self.fabric.group_mut(id);
        g.generation += 1;
        g.pump_scheduled = false;
        g.pump_parked = false;
        g.apply_scheduled = false;
        g.applied_ack_sent = 0;
        g.resume();
        ResyncReport {
            blocks_copied,
            delta,
        }
    }

    /// Close the change-feed step of every array holding a secondary of
    /// `id`: what a resync, a promote drain or a group's initial copy wrote
    /// becomes visible as one step (the instant is the caller's to know).
    fn end_group_boundary(&mut self, id: GroupId) {
        let fabric = &self.fabric;
        let arrays: Vec<ArrayId> = fabric
            .group(id)
            .pairs
            .iter()
            .map(|&pid| fabric.pair(pid).secondary.array)
            .collect();
        for array in arrays {
            self.array_mut(array).end_boundary(None);
        }
    }

    // ----- failure & failover -------------------------------------------------

    /// Site disaster at `now`: the array stops serving I/O and replication
    /// frames that had not fully left the site are lost.
    pub fn fail_array(&mut self, id: ArrayId, now: SimTime) {
        self.array_mut(id).fail(now);
    }

    /// Failover a group to the backup site: apply every journal entry that
    /// reached the backup, promote the secondaries to writable primaries
    /// and freeze replication. Returns the number of entries applied during
    /// promotion. Synchronous: RTO accounting is done by the caller.
    pub fn promote_group(&mut self, id: GroupId) -> u64 {
        let (sjnl, pair_ids) = {
            let g = self.fabric.group(id);
            (g.secondary_jnl, g.pairs.clone())
        };
        let mut applied = 0u64;
        if let Some(jid) = sjnl {
            let entries: Vec<JournalEntry> = self.fabric.journal_mut(jid).drain_all();
            for e in entries {
                let secondary = self.fabric.pair(e.pair).secondary;
                self.array_mut(secondary.array)
                    .write_block(secondary.volume, e.lba, e.data);
                self.fabric.update_pair(e.pair, |p| p.applied_writes += 1);
                applied += 1;
            }
        }
        // The drain is one step: no reader sees a block inside it.
        self.end_group_boundary(id);
        for pid in pair_ids {
            let secondary = self.fabric.pair(pid).secondary;
            self.array_mut(secondary.array)
                .set_volume_role(secondary.volume, VolumeRole::Primary);
        }
        let g = self.fabric.group_mut(id);
        g.state = GroupState::Promoted;
        g.generation += 1;
        g.pump_parked = false; // a wait-list entry of the old epoch is stale
        g.stats.entries_applied += applied;
        applied
    }

    /// Failback step 1 — reverse protection: after a failover (the group is
    /// `Promoted`) and once the original site's array has been repaired
    /// (`StorageArray::recover`), re-protect the business in the opposite
    /// direction: the promoted volumes become primaries of a new ADC group
    /// replicating back to the original volumes. Performs a full initial
    /// copy (the original content is stale). Returns the new group.
    pub fn establish_reverse_group(
        &mut self,
        promoted: GroupId,
        link: LinkId,
        reverse: LinkId,
        journal_capacity_bytes: u64,
    ) -> GroupId {
        assert_eq!(
            self.fabric.group(promoted).state,
            GroupState::Promoted,
            "reverse protection requires a promoted group"
        );
        let old_pairs = self.fabric.group(promoted).pairs.clone();
        // Verify the target site is back before touching anything.
        for &pid in &old_pairs {
            let old_primary = self.fabric.pair(pid).primary;
            assert!(
                !self.array(old_primary.array).is_failed(),
                "original array must be recovered before failback"
            );
        }
        // Detach the old pairs: their primaries are about to become
        // replication targets.
        let endpoints: Vec<(VolRef, VolRef)> = old_pairs
            .iter()
            .map(|&pid| {
                let p = self.fabric.pair(pid);
                (p.primary, p.secondary)
            })
            .collect();
        for &pid in &old_pairs {
            self.fabric.detach_pair(pid);
        }
        let name = format!("{}-reversed", self.fabric.group(promoted).name);
        let new_group = self.create_adc_group(name, link, reverse, journal_capacity_bytes);
        for (old_primary, old_secondary) in endpoints {
            // Direction flips: promoted volume → original volume.
            self.add_pair(new_group, old_secondary, old_primary);
        }
        self.end_group_boundary(new_group);
        new_group
    }

    /// Failback step 2 — return home: once the reverse group has fully
    /// caught up (active, both journals drained, every pair applied what
    /// it acked), promote it — making the original volumes writable
    /// primaries again — and immediately re-protect the business in the
    /// original direction with a fresh forward group (full initial copy).
    /// Returns the new forward group's id.
    pub fn complete_failback(
        &mut self,
        reverse: GroupId,
        journal_capacity_bytes: u64,
    ) -> GroupId {
        {
            let g = self.fabric.group(reverse);
            assert!(
                g.is_active(),
                "failback requires an active, caught-up reverse group"
            );
            for jid in g.primary_jnl.into_iter().chain(g.secondary_jnl) {
                assert!(
                    self.fabric.journal(jid).is_empty(),
                    "reverse journals must be drained before failback"
                );
            }
            for &pid in &g.pairs {
                let p = self.fabric.pair(pid);
                assert_eq!(
                    p.acked_writes, p.applied_writes,
                    "reverse group must be caught up before failback"
                );
            }
        }
        self.promote_group(reverse);
        // The reverse group shipped backup→main over the original ack
        // link; the re-established forward group flips direction again.
        let (link, rev) = {
            let g = self.fabric.group(reverse);
            (g.reverse, g.link)
        };
        self.establish_reverse_group(reverse, link, rev, journal_capacity_bytes)
    }

    // ----- snapshots -----------------------------------------------------------

    /// Snapshot one volume.
    pub fn snapshot(&mut self, vol: VolRef, name: impl Into<String>, now: SimTime) -> SnapshotId {
        let name = name.into();
        self.metrics.inc(names::SNAPSHOTS_TAKEN);
        self.tracer.instant(spans::SNAPSHOT, now, SpanId::NONE, || {
            vec![("vol", vol.to_string().into()), ("name", name.clone().into())]
        });
        self.array_mut(vol.array)
            .create_snapshot(vol.volume, name, now)
    }

    /// Atomically snapshot several volumes on one array (snapshot group).
    pub fn snapshot_group(
        &mut self,
        array: ArrayId,
        vols: &[VolumeId],
        name_prefix: &str,
        now: SimTime,
    ) -> Vec<SnapshotId> {
        self.metrics.add(names::SNAPSHOTS_TAKEN, vols.len() as u64);
        self.tracer.instant(spans::SNAPSHOT, now, SpanId::NONE, || {
            vec![
                ("array", (array.0 as u64).into()),
                ("vols", (vols.len() as u64).into()),
                ("name", name_prefix.into()),
            ]
        });
        self.array_mut(array)
            .create_snapshot_group(vols, name_prefix, now)
    }

    // ----- verification ---------------------------------------------------------

    /// Applied-write counts per *primary* volume for the given groups
    /// (the cut vector the backup image represents).
    pub fn applied_counts(&self, groups: &[GroupId]) -> BTreeMap<VolRef, u64> {
        let mut out = BTreeMap::new();
        for &gid in groups {
            for &pid in &self.fabric.group(gid).pairs {
                let p = self.fabric.pair(pid);
                out.insert(p.primary, p.ack_offset + p.applied_writes);
            }
        }
        out
    }

    /// Verify that the backup image of the given groups is a
    /// prefix-consistent cut of the global ack order, and that the
    /// secondary volumes' bytes match that prefix exactly.
    pub fn verify_consistency(&self, groups: &[GroupId]) -> ConsistencyReport {
        let applied = self.applied_counts(groups);
        let prefix = self.ack_log.check_prefix(&applied);
        let mut content_mismatches = Vec::new();
        for &gid in groups {
            for &pid in &self.fabric.group(gid).pairs {
                let p = self.fabric.pair(pid);
                let expected = self.ack_log.expected_content(
                    p.primary,
                    p.ack_offset,
                    p.applied_writes,
                    &p.initial_hashes,
                );
                let actual = self
                    .array(p.secondary.array)
                    .volume(p.secondary.volume)
                    .content_hashes();
                if expected != actual {
                    let missing = expected
                        .iter()
                        .filter(|(lba, h)| actual.get(lba) != Some(h))
                        .count();
                    let extra = actual
                        .iter()
                        .filter(|(lba, h)| expected.get(lba) != Some(h))
                        .count();
                    content_mismatches.push(format!(
                        "pair {}→{}: {missing} blocks wrong/missing, {extra} unexpected",
                        p.primary, p.secondary
                    ));
                }
            }
        }
        ConsistencyReport {
            prefix,
            content_mismatches,
        }
    }

    /// The per-link wait lists of transfer pumps parked on link backlog.
    pub fn lane_waits(&self) -> &LaneWaits {
        &self.lane_waits
    }

    /// Data-plane steps dispatched so far, as `(kind, count)` in
    /// [`OP_KINDS`] order — a deterministic count, identical at any
    /// `--threads`.
    pub fn op_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        OP_KINDS.iter().copied().zip(self.op_counts.iter().copied())
    }

    /// Liveness of the pumps parked on link backlog — which own no kernel
    /// event, only a wait-list entry: every group that claims to be parked
    /// (`pump_parked`) holds the pump claim and has exactly one entry of
    /// its current generation, on its own link's list; every such entry's
    /// group claims it; and every non-empty list has a wake armed at or
    /// after `now`. One line per violation; empty when the invariant holds.
    pub fn lane_wait_violations(&self, now: SimTime) -> Vec<String> {
        let mut out = Vec::new();
        let mut live: BTreeMap<GroupId, u32> = BTreeMap::new();
        for link in self.lane_waits.links() {
            let mut waiters = 0usize;
            for w in self.lane_waits.waiters(link) {
                waiters += 1;
                let g = self.fabric.group(w.gid);
                if g.generation != w.gen {
                    continue; // stale: dropped when popped
                }
                *live.entry(w.gid).or_default() += 1;
                if g.link != link {
                    out.push(format!("group g{} waits on link {}, sends on {}", w.gid.0, link.0, g.link.0));
                }
            }
            match self.lane_waits.wake_at(link) {
                _ if waiters == 0 => {}
                Some(at) if at >= now => {}
                armed => out.push(format!("link {}: {waiters} waiters, wake {armed:?} at {now}", link.0)),
            }
        }
        for gid in self.fabric.group_ids() {
            let g = self.fabric.group(gid);
            let n = live.get(&gid).copied().unwrap_or(0);
            if n != u32::from(g.pump_parked) || (g.pump_parked && !g.pump_scheduled) {
                out.push(format!(
                    "group g{}: parked={} scheduled={} live wait-list entries={n}",
                    gid.0, g.pump_parked, g.pump_scheduled
                ));
            }
        }
        out
    }

    /// Recovery-point metrics for the given groups after a main-site
    /// failure at `failure_time`.
    pub fn rpo_report(&self, groups: &[GroupId], failure_time: SimTime) -> RpoReport {
        let mut lost = 0u64;
        let mut acked = 0u64;
        for &gid in groups {
            for &pid in &self.fabric.group(gid).pairs {
                let p = self.fabric.pair(pid);
                acked += p.acked_writes;
                lost += p.lag_writes();
            }
        }
        let applied = self.applied_counts(groups);
        let cut_time = self
            .ack_log
            .check_prefix(&applied)
            .cut_time
            .unwrap_or(SimTime::ZERO);
        RpoReport {
            lost_writes: lost,
            acked_writes: acked,
            rpo: failure_time.saturating_since(cut_time),
        }
    }

    // ----- internals shared with the engine -------------------------------------

    /// Persist a block locally and record the host acknowledgement.
    /// Returns the write's global ack index.
    pub(crate) fn commit_local(
        &mut self,
        now: SimTime,
        vol: VolRef,
        lba: u64,
        data: BlockBuf,
        hash: u64,
    ) -> u64 {
        self.array_mut(vol.array).write_block(vol.volume, lba, data);
        self.ack_log.append(vol, lba, hash, now)
    }

    /// Sample the next pump delay for a group (base interval plus jitter).
    pub(crate) fn pump_delay(&mut self, group: GroupId) -> SimDuration {
        let base = self.config.pump_interval;
        let jitter = self.config.pump_jitter;
        if jitter.is_zero() {
            return base;
        }
        let g = self.fabric.group_mut(group);
        base + SimDuration::from_nanos(g.rng.gen_range(jitter.as_nanos() + 1))
    }

    /// Check whether a host write may proceed.
    pub(crate) fn check_host_write(&mut self, vol: VolRef, lba: u64) -> Result<(), WriteError> {
        self.array_mut(vol.array).check_host_write(vol.volume, lba)
    }

    /// Take the next per-volume issue ticket for an admitted host write.
    pub(crate) fn issue_write_ticket(&mut self, vol: VolRef) -> u64 {
        self.write_order.issue(vol)
    }

    /// True iff `ticket` is the oldest host write to `vol` still pending
    /// its apply/reject decision.
    pub(crate) fn is_write_turn(&self, vol: VolRef, ticket: u64) -> bool {
        self.write_order.is_turn(vol, ticket)
    }

    /// Retire the volume's current turn holder once it has applied (or been
    /// rejected), unblocking the next ticket.
    pub(crate) fn retire_write_ticket(&mut self, vol: VolRef) {
        self.write_order.retire(vol)
    }

    /// Offer a frame on a link.
    pub(crate) fn offer_link(
        &mut self,
        link: LinkId,
        now: SimTime,
        bytes: u64,
    ) -> TransferOutcome {
        self.net.link_mut(link).offer(now, bytes)
    }

    /// Count one dispatched step of kind `kind` (an [`OP_KINDS`] index).
    pub(crate) fn count_op(&mut self, kind: usize) {
        if let Some(n) = self.op_counts.get_mut(kind) {
            *n += 1;
        }
    }

    /// Park `gid`'s transfer pump behind `link`'s backlog: the group keeps
    /// its `pump_scheduled` claim and joins the link's wait list. Returns
    /// the instant the caller must schedule the link's wake at, if none is
    /// pending.
    pub(crate) fn park_transfer(
        &mut self,
        gid: GroupId,
        gen: u32,
        link: LinkId,
        now: SimTime,
    ) -> Option<SimTime> {
        let span = if self.tracer.is_enabled() {
            // The write that waits longest: the oldest unsent entry's.
            let jid = self.fabric.group(gid).primary_jnl;
            jid.and_then(|j| self.fabric.journal(j).peek_unsent(1, u64::MAX).pop())
                .map_or(SpanId::NONE, |e| e.span)
        } else {
            SpanId::NONE
        };
        self.tracer.instant(spans::PUMP_STALL, now, span, || {
            vec![("group", (gid.0 as u64).into()), ("reason", "backlog".into())]
        });
        let g = self.fabric.group_mut(gid);
        g.pump_scheduled = true;
        g.pump_parked = true;
        self.lane_waits.park(link, Waiter { gid, gen, since: now, span });
        self.arm_lane_wake(link, now)
    }

    /// Arm `link`'s wake for the instant its backlog will have drained to
    /// the flow-control threshold, unless one is pending or nobody waits.
    /// Returns the instant to schedule `StorageOp::LinkWake` at.
    pub(crate) fn arm_lane_wake(&mut self, link: LinkId, now: SimTime) -> Option<SimTime> {
        let at = self
            .net
            .link(link)
            .backlog_clears_at(now, self.config.max_link_backlog);
        self.lane_waits.arm(link, at).then_some(at)
    }

    /// Journal-full policy accessor (engine convenience).
    pub(crate) fn journal_full_policy(&self) -> JournalFullPolicy {
        self.config.journal_full_policy
    }

    /// The fabric's running totals, checked against the full-walk oracle
    /// in debug builds — every sample edge of every test run audits them.
    fn checked_replication_totals(&self) -> ReplicationTotals {
        let totals = self.fabric.replication_totals();
        debug_assert_eq!(totals, self.fabric.scan_replication_totals());
        totals
    }

    /// Sample the derived replication time series (total primary-journal
    /// occupancy, acked-but-unapplied RPO lag) at a transfer or apply
    /// edge. No-op unless sampling was enabled by
    /// [`StorageWorld::set_tracer`], [`StorageWorld::enable_alerts`] or a
    /// builder that calls `metrics.enable_sampling()` itself (`tsuru-core`'s
    /// `build_tenant_world`).
    pub(crate) fn sample_replication_series(&mut self, now: SimTime) {
        if !self.metrics.sampling_enabled() {
            return;
        }
        let totals = self.checked_replication_totals();
        self.metrics
            .sample(names::JOURNAL_OCCUPANCY, now, totals.journal_bytes as f64);
        self.metrics
            .sample(names::RPO_LAG, now, totals.lag_writes as f64);
    }

    /// Sample per-shard journal occupancy and apply lag into the metrics
    /// registry's shard lanes, plus the aggregate health series the E11
    /// SLO engine watches — one walk over the layout serves both readers.
    /// No-op (cheap) unless sampling is enabled.
    pub fn sample_shard_series(&mut self, layout: &ShardLayout, now: SimTime) {
        if !self.metrics.sampling_enabled() {
            return;
        }
        let mut total = ReplicationTotals::default();
        for (shard, lane) in layout.iter() {
            let t = self.fabric.scan_totals(lane.groups.iter().copied());
            self.metrics.sample_shard(
                names::SHARD_JOURNAL_OCCUPANCY,
                shard,
                now,
                t.journal_bytes as f64,
            );
            self.metrics
                .sample_shard(names::SHARD_APPLY_LAG, shard, now, t.lag_writes as f64);
            total.journal_bytes += t.journal_bytes;
            total.lag_writes += t.lag_writes;
        }
        self.metrics
            .sample(names::HEALTH_RPO_LAG, now, total.lag_writes as f64);
        self.metrics.sample(
            names::HEALTH_JOURNAL_OCCUPANCY,
            now,
            total.journal_bytes as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> StorageWorld {
        StorageWorld::new(7, EngineConfig::default())
    }

    #[test]
    fn two_site_setup() {
        let mut w = world();
        let main = w.add_array("vsp-main", ArrayPerf::default());
        let backup = w.add_array("vsp-backup", ArrayPerf::default());
        assert_eq!(w.array_count(), 2);
        let l = w.add_link(LinkConfig::metro());
        let r = w.add_link(LinkConfig::metro());
        let g = w.create_adc_group("cg-demo", l, r, 1 << 20);
        let p1 = w.create_volume(main, "sales-data", 64);
        let s1 = w.create_volume(backup, "sales-data-r", 64);
        let pid = w.add_pair(g, p1, s1);
        assert_eq!(w.fabric.pair_by_primary(p1), Some(pid));
        assert_eq!(
            w.array(backup).volume(s1.volume).role(),
            VolumeRole::Secondary
        );
    }

    #[test]
    fn initial_copy_clones_content() {
        let mut w = world();
        let main = w.add_array("m", ArrayPerf::default());
        let backup = w.add_array("b", ArrayPerf::default());
        let l = w.add_link(LinkConfig::metro());
        let r = w.add_link(LinkConfig::metro());
        let g = w.create_adc_group("g", l, r, 1 << 20);
        let p = w.create_volume(main, "p", 16);
        w.write_direct(p, 3, b"formatted");
        let s = w.create_volume(backup, "s", 16);
        w.add_pair(g, p, s);
        assert_eq!(&w.read_direct(s, 3).unwrap()[..9], b"formatted");
        let pair = w.fabric.pair(PairId(0));
        assert_eq!(pair.initial_hashes.len(), 1);
    }

    #[test]
    fn remove_pair_unfences_secondary() {
        let mut w = world();
        let main = w.add_array("m", ArrayPerf::default());
        let backup = w.add_array("b", ArrayPerf::default());
        let l = w.add_link(LinkConfig::metro());
        let r = w.add_link(LinkConfig::metro());
        let g = w.create_adc_group("g", l, r, 1 << 20);
        let p = w.create_volume(main, "p", 16);
        let s = w.create_volume(backup, "s", 16);
        let pid = w.add_pair(g, p, s);
        assert!(w.check_host_write(s, 0).is_err());
        w.remove_pair(pid);
        assert!(w.check_host_write(s, 0).is_ok());
        assert_eq!(w.fabric.pair_by_primary(p), None);
    }

    #[test]
    fn verify_consistency_on_fresh_pair_passes() {
        let mut w = world();
        let main = w.add_array("m", ArrayPerf::default());
        let backup = w.add_array("b", ArrayPerf::default());
        let l = w.add_link(LinkConfig::metro());
        let r = w.add_link(LinkConfig::metro());
        let g = w.create_adc_group("g", l, r, 1 << 20);
        let p = w.create_volume(main, "p", 16);
        w.write_direct(p, 0, b"base");
        let s = w.create_volume(backup, "s", 16);
        w.add_pair(g, p, s);
        let rep = w.verify_consistency(&[g]);
        assert!(rep.is_consistent(), "{rep:?}");
    }

    #[test]
    fn promote_empty_group_promotes_volumes() {
        let mut w = world();
        let main = w.add_array("m", ArrayPerf::default());
        let backup = w.add_array("b", ArrayPerf::default());
        let l = w.add_link(LinkConfig::metro());
        let r = w.add_link(LinkConfig::metro());
        let g = w.create_adc_group("g", l, r, 1 << 20);
        let p = w.create_volume(main, "p", 16);
        let s = w.create_volume(backup, "s", 16);
        w.add_pair(g, p, s);
        let applied = w.promote_group(g);
        assert_eq!(applied, 0);
        assert_eq!(
            w.array(backup).volume(s.volume).role(),
            VolumeRole::Primary
        );
        assert_eq!(w.fabric.group(g).state, GroupState::Promoted);
    }

    #[test]
    fn rpo_on_idle_groups_is_zero_loss() {
        let mut w = world();
        let main = w.add_array("m", ArrayPerf::default());
        let backup = w.add_array("b", ArrayPerf::default());
        let l = w.add_link(LinkConfig::metro());
        let r = w.add_link(LinkConfig::metro());
        let g = w.create_adc_group("g", l, r, 1 << 20);
        let p = w.create_volume(main, "p", 16);
        let s = w.create_volume(backup, "s", 16);
        w.add_pair(g, p, s);
        let rpo = w.rpo_report(&[g], SimTime::from_secs(10));
        assert_eq!(rpo.lost_writes, 0);
        assert_eq!(rpo.acked_writes, 0);
    }

    #[test]
    #[should_panic(expected = "replicate to itself")]
    fn self_pair_rejected() {
        let mut w = world();
        let main = w.add_array("m", ArrayPerf::default());
        let l = w.add_link(LinkConfig::metro());
        let r = w.add_link(LinkConfig::metro());
        let g = w.create_adc_group("g", l, r, 1 << 20);
        let p = w.create_volume(main, "p", 16);
        w.add_pair(g, p, p);
    }
}
