//! The replication fabric: pairs, groups and their journals.
//!
//! A *pair* links one primary volume to one secondary volume. A *group*
//! (the consistency-group unit) is a set of pairs that share one journal,
//! one replication link and one sequence-number space — which is exactly
//! what guarantees that the backup site applies updates in primary ack
//! order across all member volumes. The paper's "naive" configuration,
//! where backups of a multi-volume application can collapse, corresponds
//! to putting each volume in its own single-pair group.

use std::collections::BTreeMap;

use tsuru_sim::{DetRng, SimTime};
use tsuru_simnet::LinkId;

use crate::block::{GroupId, JournalId, PairId, VolRef};
use crate::hot::PrimaryIndex;
use crate::journal::{Journal, JOURNAL_ENTRY_OVERHEAD};

/// Replication mode of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupMode {
    /// Asynchronous data copy through journals.
    Adc,
    /// Synchronous data copy: host ack only after the backup site persists.
    Sdc,
}

/// Why a group left the `Active` state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendReason {
    /// The primary journal filled and policy is `Suspend`.
    JournalFull,
    /// A replication leg observed a dead link or a lost acknowledgement.
    /// SDC legs suspend with this reason on any link failure; ADC groups
    /// ride out data-link outages while staying `Active` (the transfer
    /// pump parks and resumes on heal), so for ADC this reason only
    /// appears via reverse-path acknowledgement loss handling.
    LinkDown,
    /// An operator suspended the group.
    Operator,
}

/// Lifecycle state of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupState {
    /// Replicating normally.
    Active,
    /// Replication stopped; primary writes continue locally.
    Suspended {
        /// When the suspension happened.
        since: SimTime,
        /// What caused it.
        reason: SuspendReason,
    },
    /// Failover executed; secondaries are promoted and writable.
    Promoted,
}

impl GroupState {
    /// Is `next` a legal successor of `self` in the group lifecycle?
    ///
    /// Observations are coarse (an auditor samples states, it does not see
    /// every internal step), so staying in the same variant is always
    /// legal. `Promoted` is terminal: once a failover has promoted the
    /// secondaries, a group can never silently return to replication —
    /// re-protection requires tearing the group down and resyncing.
    pub fn can_transition_to(self, next: GroupState) -> bool {
        match (self, next) {
            (GroupState::Promoted, GroupState::Promoted) => true,
            (GroupState::Promoted, _) => false,
            // Active ⇄ Suspended in either direction (suspend / resync),
            // and either may be promoted by a failover.
            _ => true,
        }
    }
}

/// One primary→secondary volume relationship.
#[derive(Debug)]
pub struct Pair {
    /// Pair id.
    pub id: PairId,
    /// Owning group.
    pub group: GroupId,
    /// Source volume at the main site.
    pub primary: VolRef,
    /// Target volume at the backup site.
    pub secondary: VolRef,
    /// Acked writes to the primary volume *before* this pair existed (the
    /// initial copy carries their effects; the write-order checker must
    /// skip them when replaying the pair's history).
    pub ack_offset: u64,
    /// Host writes acknowledged on the primary while the pair was active
    /// (i.e. journal entries created for this pair).
    pub acked_writes: u64,
    /// Journal entries applied to the secondary volume.
    pub applied_writes: u64,
    /// Content fingerprint of the primary volume at pair-creation time
    /// (the initial-copy image), for the write-order-fidelity checker.
    pub initial_hashes: BTreeMap<u64, u64>,
    /// Blocks written on the primary while the group was suspended — the
    /// delta-resync working set (mirrors array dirty bitmaps).
    pub dirty_since_suspend: std::collections::BTreeSet<u64>,
}

impl Pair {
    /// Acked-but-unapplied writes (saturating: an SDC leg applies at the
    /// backup before the ack crosses back).
    pub fn lag_writes(&self) -> u64 {
        self.acked_writes.saturating_sub(self.applied_writes)
    }
}

/// Per-group replication statistics.
#[derive(Debug, Default, Clone)]
pub struct GroupStats {
    /// Journal entries shipped to the backup site.
    pub entries_transferred: u64,
    /// Payload bytes shipped.
    pub bytes_transferred: u64,
    /// Transfer frames sent.
    pub frames_sent: u64,
    /// Entries applied at the backup site.
    pub entries_applied: u64,
    /// Instant of the latest apply by the data plane (promotion's
    /// synchronous drain does not move it).
    pub last_applied_at: SimTime,
    /// Host writes that found the group suspended (local-only).
    pub writes_while_suspended: u64,
    /// Host write stalls due to a full journal (Block policy).
    pub journal_stalls: u64,
    /// Times the group suspended.
    pub suspensions: u64,
}

/// A replication group (consistency group when it has > 1 pair).
#[derive(Debug)]
pub struct Group {
    /// Group id.
    pub id: GroupId,
    /// Operator-visible name.
    pub name: String,
    /// ADC or SDC.
    pub mode: GroupMode,
    /// Main-site journal (ADC only).
    pub primary_jnl: Option<JournalId>,
    /// Backup-site journal (ADC only).
    pub secondary_jnl: Option<JournalId>,
    /// Main → backup data link.
    pub link: LinkId,
    /// Backup → main acknowledgement link.
    pub reverse: LinkId,
    /// Member pairs.
    pub pairs: Vec<PairId>,
    /// Lifecycle state.
    pub state: GroupState,
    /// Transfer pump re-entrancy guard: a pending `RunTransfer` event or
    /// a lane wait-list entry owns the pump's next cycle.
    pub pump_scheduled: bool,
    /// The `pump_scheduled` claim is held by an entry on the link's wait
    /// list (`StorageWorld::lane_waits`) rather than by a kernel event.
    pub pump_parked: bool,
    /// Apply pump re-entrancy guard.
    pub apply_scheduled: bool,
    /// Highest seq for which an applied-ack frame was dispatched.
    pub applied_ack_sent: u64,
    /// Replication epoch: bumped on resync/promote so that in-flight
    /// engine events from the previous epoch are discarded instead of
    /// corrupting the fresh journals.
    pub generation: u32,
    /// Per-group random stream (pump jitter).
    pub rng: DetRng,
    /// Counters.
    pub stats: GroupStats,
}

impl Group {
    /// Is the group replicating?
    pub fn is_active(&self) -> bool {
        self.state == GroupState::Active
    }

    /// Move to `Suspended` (idempotent; keeps the first reason).
    pub fn suspend(&mut self, now: SimTime, reason: SuspendReason) {
        if self.is_active() {
            self.state = GroupState::Suspended { since: now, reason };
            self.stats.suspensions += 1;
        }
    }

    /// Resume replication after an operator resync.
    pub fn resume(&mut self) {
        if matches!(self.state, GroupState::Suspended { .. }) {
            self.state = GroupState::Active;
        }
    }
}

/// Fabric-wide replication aggregates (the `journal.occupancy_bytes` and
/// `rpo.lag_writes` series).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationTotals {
    /// `used_bytes` summed over every group's current primary journal.
    pub journal_bytes: u64,
    /// `acked_writes.saturating_sub(applied_writes)` summed over attached
    /// pairs.
    pub lag_writes: u64,
}

/// Registry of groups, pairs and journals.
///
/// `totals` is kept exact incrementally: pair progress of attached pairs
/// and primary-journal bytes may only change through the crate's
/// `update_pair` / `update_primary_journal`
/// (or the registration calls below), never through `pair_mut` /
/// `journal_mut`. [`ReplicationFabric::scan_replication_totals`] is the
/// oracle.
#[derive(Debug, Default)]
pub struct ReplicationFabric {
    groups: Vec<Group>,
    pairs: Vec<Pair>,
    journals: Vec<Journal>,
    by_primary: PrimaryIndex,
    totals: ReplicationTotals,
}

impl ReplicationFabric {
    /// An empty fabric.
    pub fn new() -> Self {
        ReplicationFabric::default()
    }

    // ----- registration ----------------------------------------------------

    pub(crate) fn add_journal(&mut self, capacity_bytes: u64) -> JournalId {
        let id = JournalId(self.journals.len() as u32);
        self.journals
            .push(Journal::new(id, capacity_bytes, JOURNAL_ENTRY_OVERHEAD));
        id
    }

    pub(crate) fn add_group(&mut self, group: Group) -> GroupId {
        let id = GroupId(self.groups.len() as u32);
        debug_assert_eq!(group.id, id);
        self.groups.push(group);
        id
    }

    pub(crate) fn next_group_id(&self) -> GroupId {
        GroupId(self.groups.len() as u32)
    }

    pub(crate) fn add_pair(&mut self, pair: Pair) -> PairId {
        let id = PairId(self.pairs.len() as u32);
        debug_assert_eq!(pair.id, id);
        assert!(
            self.by_primary
                .legs(pair.primary)
                .iter()
                .all(|&p| self.pair(p).secondary != pair.secondary),
            "volume {} already replicates to {}",
            pair.primary,
            pair.secondary
        );
        self.by_primary.attach(pair.primary, id);
        self.group_mut(pair.group).pairs.push(id);
        self.totals.lag_writes += pair.lag_writes();
        self.pairs.push(pair);
        id
    }

    pub(crate) fn next_pair_id(&self) -> PairId {
        PairId(self.pairs.len() as u32)
    }

    /// Remove a pair from replication (operator teardown). The pair record
    /// is retained for statistics but no longer matches host writes.
    pub fn detach_pair(&mut self, id: PairId) {
        let (primary, gid, lag) = {
            let p = self.pair(id);
            (p.primary, p.group, p.lag_writes())
        };
        if self.is_attached(id) {
            self.totals.lag_writes -= lag;
        }
        self.by_primary.detach(primary, id);
        self.group_mut(gid).pairs.retain(|&p| p != id);
    }

    fn is_attached(&self, id: PairId) -> bool {
        self.by_primary.legs(self.pair(id).primary).contains(&id)
    }

    // ----- running totals ---------------------------------------------------

    /// Change a pair's replication progress, adjusting the lag total by the
    /// difference of the pair's saturating contribution (so the SDC order
    /// "applied before acked" stays exact). A detached pair can still see a
    /// late apply; it no longer counts.
    pub(crate) fn update_pair(&mut self, id: PairId, f: impl FnOnce(&mut Pair)) {
        let attached = self.is_attached(id);
        let p = self.pair_mut(id);
        let before = p.lag_writes();
        f(p);
        let after = p.lag_writes();
        if attached {
            self.totals.lag_writes = self.totals.lag_writes - before + after;
        }
    }

    /// Mutate group `gid`'s current primary journal, adjusting the occupancy
    /// total by the change in `used_bytes`.
    pub(crate) fn update_primary_journal<R>(
        &mut self,
        gid: GroupId,
        f: impl FnOnce(&mut Journal) -> R,
    ) -> R {
        let jid = self
            .group(gid)
            .primary_jnl
            .expect("invariant: only ADC groups append or release, and they carry a journal");
        let j = self.journal_mut(jid);
        let before = j.used_bytes();
        let r = f(j);
        let after = j.used_bytes();
        self.totals.journal_bytes = self.totals.journal_bytes - before + after;
        r
    }

    /// Point a group at fresh, empty journals (resync); the orphaned
    /// primary journal's bytes leave the occupancy total.
    pub(crate) fn swap_journals(&mut self, gid: GroupId, primary: JournalId, secondary: JournalId) {
        if let Some(old) = self.group(gid).primary_jnl {
            self.totals.journal_bytes -= self.journal(old).used_bytes();
        }
        let g = self.group_mut(gid);
        g.primary_jnl = Some(primary);
        g.secondary_jnl = Some(secondary);
    }

    /// The running totals — O(1).
    pub fn replication_totals(&self) -> ReplicationTotals {
        self.totals
    }

    /// The same aggregates recomputed by walking `groups` (one shard lane's
    /// share, or everything).
    pub fn scan_totals(&self, groups: impl IntoIterator<Item = GroupId>) -> ReplicationTotals {
        let mut t = ReplicationTotals::default();
        for gid in groups {
            let g = self.group(gid);
            t.journal_bytes += g.primary_jnl.map_or(0, |j| self.journal(j).used_bytes());
            for &pid in &g.pairs {
                t.lag_writes += self.pair(pid).lag_writes();
            }
        }
        t
    }

    /// The full walk: the oracle the running totals are asserted against
    /// (debug builds at every sample, the model-check proptest, the chaos
    /// auditor). Never on a hot path.
    pub fn scan_replication_totals(&self) -> ReplicationTotals {
        self.scan_totals(self.group_ids())
    }

    // ----- lookups ----------------------------------------------------------

    /// The first pair whose primary volume is `vol`, if any (convenience
    /// for single-target deployments).
    pub fn pair_by_primary(&self, vol: VolRef) -> Option<PairId> {
        self.by_primary.legs(vol).first().copied()
    }

    /// Every replication leg whose primary volume is `vol` (multi-target
    /// topologies: e.g. metro SDC plus WAN ADC from the same volume).
    pub fn pairs_by_primary(&self, vol: VolRef) -> &[PairId] {
        self.by_primary.legs(vol)
    }

    /// Borrow a pair.
    pub fn pair(&self, id: PairId) -> &Pair {
        self.pairs
            .get(id.0 as usize)
            .expect("invariant: PairId is only minted by register_pair")
    }

    /// Mutably borrow a pair.
    pub fn pair_mut(&mut self, id: PairId) -> &mut Pair {
        self.pairs
            .get_mut(id.0 as usize)
            .expect("invariant: PairId is only minted by register_pair")
    }

    /// Borrow a group.
    pub fn group(&self, id: GroupId) -> &Group {
        self.groups
            .get(id.0 as usize)
            .expect("invariant: GroupId is only minted by register_group")
    }

    /// Mutably borrow a group.
    pub fn group_mut(&mut self, id: GroupId) -> &mut Group {
        self.groups
            .get_mut(id.0 as usize)
            .expect("invariant: GroupId is only minted by register_group")
    }

    /// Borrow a journal.
    pub fn journal(&self, id: JournalId) -> &Journal {
        self.journals
            .get(id.0 as usize)
            .expect("invariant: JournalId is only minted by register_journal")
    }

    /// Mutably borrow a journal.
    pub fn journal_mut(&mut self, id: JournalId) -> &mut Journal {
        self.journals
            .get_mut(id.0 as usize)
            .expect("invariant: JournalId is only minted by register_journal")
    }

    /// All group ids, ascending. The iterator does not borrow the fabric.
    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> {
        (0..self.groups.len() as u32).map(GroupId)
    }

    /// All pair ids (attached or not), ascending. The iterator does not
    /// borrow the fabric.
    pub fn pair_ids(&self) -> impl Iterator<Item = PairId> {
        (0..self.pairs.len() as u32).map(PairId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{ArrayId, VolumeId};

    fn volref(a: u32, v: u64) -> VolRef {
        VolRef::new(ArrayId(a), VolumeId(v))
    }

    #[test]
    fn group_state_transition_legality() {
        let susp = GroupState::Suspended {
            since: SimTime::ZERO,
            reason: SuspendReason::Operator,
        };
        assert!(GroupState::Active.can_transition_to(susp));
        assert!(susp.can_transition_to(GroupState::Active));
        assert!(GroupState::Active.can_transition_to(GroupState::Promoted));
        assert!(susp.can_transition_to(GroupState::Promoted));
        assert!(GroupState::Promoted.can_transition_to(GroupState::Promoted));
        assert!(!GroupState::Promoted.can_transition_to(GroupState::Active));
        assert!(!GroupState::Promoted.can_transition_to(susp));
    }

    fn make_group(fabric: &mut ReplicationFabric, mode: GroupMode) -> GroupId {
        let pj = fabric.add_journal(1 << 20);
        let sj = fabric.add_journal(1 << 20);
        let id = fabric.next_group_id();
        fabric.add_group(Group {
            id,
            name: format!("g{}", id.0),
            mode,
            primary_jnl: Some(pj),
            secondary_jnl: Some(sj),
            link: LinkId(0),
            reverse: LinkId(1),
            pairs: Vec::new(),
            state: GroupState::Active,
            pump_scheduled: false,
            pump_parked: false,
            apply_scheduled: false,
            applied_ack_sent: 0,
            generation: 0,
            rng: DetRng::new(1),
            stats: GroupStats::default(),
        })
    }

    fn make_pair(fabric: &mut ReplicationFabric, g: GroupId, p: VolRef, s: VolRef) -> PairId {
        let id = fabric.next_pair_id();
        fabric.add_pair(Pair {
            id,
            group: g,
            primary: p,
            secondary: s,
            ack_offset: 0,
            acked_writes: 0,
            applied_writes: 0,
            initial_hashes: BTreeMap::new(),
            dirty_since_suspend: std::collections::BTreeSet::new(),
        })
    }

    #[test]
    fn pair_lookup_by_primary() {
        let mut f = ReplicationFabric::new();
        let g = make_group(&mut f, GroupMode::Adc);
        let pid = make_pair(&mut f, g, volref(0, 1), volref(1, 1));
        assert_eq!(f.pair_by_primary(volref(0, 1)), Some(pid));
        assert_eq!(f.pair_by_primary(volref(0, 2)), None);
        assert_eq!(f.group(g).pairs, vec![pid]);
    }

    #[test]
    #[should_panic(expected = "already replicates to")]
    fn duplicate_leg_rejected() {
        let mut f = ReplicationFabric::new();
        let g = make_group(&mut f, GroupMode::Adc);
        make_pair(&mut f, g, volref(0, 1), volref(1, 1));
        make_pair(&mut f, g, volref(0, 1), volref(1, 1));
    }

    #[test]
    fn multi_target_legs_share_a_primary() {
        let mut f = ReplicationFabric::new();
        let g = make_group(&mut f, GroupMode::Adc);
        let a = make_pair(&mut f, g, volref(0, 1), volref(1, 1));
        let b = make_pair(&mut f, g, volref(0, 1), volref(2, 1));
        assert_eq!(f.pairs_by_primary(volref(0, 1)), &[a, b]);
        assert_eq!(f.pair_by_primary(volref(0, 1)), Some(a));
        f.detach_pair(a);
        assert_eq!(f.pairs_by_primary(volref(0, 1)), &[b]);
        f.detach_pair(b);
        assert!(f.pairs_by_primary(volref(0, 1)).is_empty());
        assert_eq!(f.pair_by_primary(volref(0, 1)), None);
    }

    #[test]
    fn detach_removes_lookup_but_keeps_record() {
        let mut f = ReplicationFabric::new();
        let g = make_group(&mut f, GroupMode::Adc);
        let pid = make_pair(&mut f, g, volref(0, 1), volref(1, 1));
        f.detach_pair(pid);
        assert_eq!(f.pair_by_primary(volref(0, 1)), None);
        assert!(f.group(g).pairs.is_empty());
        assert_eq!(f.pair(pid).primary, volref(0, 1));
    }

    #[test]
    fn suspend_resume_lifecycle() {
        let mut f = ReplicationFabric::new();
        let g = make_group(&mut f, GroupMode::Adc);
        let grp = f.group_mut(g);
        assert!(grp.is_active());
        grp.suspend(SimTime::from_secs(1), SuspendReason::JournalFull);
        assert!(!grp.is_active());
        // Second suspend keeps the first reason and doesn't double-count.
        grp.suspend(SimTime::from_secs(2), SuspendReason::Operator);
        assert_eq!(grp.stats.suspensions, 1);
        match grp.state {
            GroupState::Suspended { since, reason } => {
                assert_eq!(since, SimTime::from_secs(1));
                assert_eq!(reason, SuspendReason::JournalFull);
            }
            _ => panic!("expected suspended"),
        }
        grp.resume();
        assert!(grp.is_active());
    }

    #[test]
    fn promoted_group_does_not_resume() {
        let mut f = ReplicationFabric::new();
        let g = make_group(&mut f, GroupMode::Sdc);
        let grp = f.group_mut(g);
        grp.state = GroupState::Promoted;
        grp.resume();
        assert_eq!(grp.state, GroupState::Promoted);
    }
}
