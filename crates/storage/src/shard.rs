//! Shard lanes: partitioning a metro-scale world's WAN transfer and
//! journal accounting into independent per-shard lanes.
//!
//! A *shard* owns one WAN data link, one reverse (acknowledgement) link
//! and a set of replication groups. Groups in the same shard contend for
//! the shard's WAN bandwidth (their transfer pumps offer frames on the
//! shared link) but never touch another shard's lane — which is the
//! minimal-coordination design SCAR-style replication argues for: cross-
//! shard ordering is never promised, so no cross-shard coordination is
//! ever paid.
//!
//! The layout is pure bookkeeping over dense ids (`Vec` indexed by
//! [`GroupId`]), so shard lookup on the sampling path is one array read.
//! [`crate::StorageWorld::sample_shard_series`] walks the lanes and feeds
//! the per-shard journal-occupancy and apply-lag series that E12 tables
//! and the E11 SLO engine read.

use tsuru_simnet::LinkId;

use crate::block::GroupId;

/// One shard's lane: its WAN link pair and member groups.
#[derive(Debug, Clone)]
pub struct ShardLane {
    /// Main → backup data link shared by the shard's transfer pumps.
    pub link: LinkId,
    /// Backup → main acknowledgement link.
    pub reverse: LinkId,
    /// Member groups, in assignment order.
    pub groups: Vec<GroupId>,
}

/// The shard partition of a world: lanes plus the group → shard map.
#[derive(Debug, Clone, Default)]
pub struct ShardLayout {
    lanes: Vec<ShardLane>,
    /// `of_group[group.0]` = owning shard; dense, grown at assignment.
    of_group: Vec<u32>,
}

impl ShardLayout {
    /// An empty layout (no lanes).
    pub fn new() -> Self {
        ShardLayout::default()
    }

    /// Register a shard lane over an existing link pair; returns the shard
    /// index (dense, starting at 0).
    pub fn add_lane(&mut self, link: LinkId, reverse: LinkId) -> u32 {
        let id = u32::try_from(self.lanes.len()).expect("shard count exceeds u32");
        self.lanes.push(ShardLane {
            link,
            reverse,
            groups: Vec::new(),
        });
        id
    }

    /// Number of lanes.
    pub fn num_shards(&self) -> u32 {
        self.lanes.len() as u32
    }

    /// Borrow a lane.
    pub fn lane(&self, shard: u32) -> &ShardLane {
        self.lanes
            .get(shard as usize)
            .expect("invariant: shard index is only minted by add_lane")
    }

    /// Assign `group` to `shard` (layout bookkeeping only — the caller
    /// creates the group on the lane's links).
    pub fn assign(&mut self, group: GroupId, shard: u32) {
        assert!(
            (shard as usize) < self.lanes.len(),
            "assign to unknown shard {shard}"
        );
        let idx = group.0 as usize;
        if self.of_group.len() <= idx {
            self.of_group.resize(idx + 1, u32::MAX);
        }
        assert_eq!(
            self.of_group[idx],
            u32::MAX,
            "group {} assigned twice",
            group.0
        );
        self.of_group[idx] = shard;
        self.lanes[shard as usize].groups.push(group);
    }

    /// The shard owning `group`, if assigned.
    pub fn shard_of(&self, group: GroupId) -> Option<u32> {
        match self.of_group.get(group.0 as usize) {
            Some(&s) if s != u32::MAX => Some(s),
            _ => None,
        }
    }

    /// Iterate lanes as `(shard, &lane)` in shard order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &ShardLane)> {
        self.lanes.iter().enumerate().map(|(i, l)| (i as u32, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_assign_and_resolve() {
        let mut s = ShardLayout::new();
        let a = s.add_lane(LinkId(0), LinkId(1));
        let b = s.add_lane(LinkId(2), LinkId(3));
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.num_shards(), 2);
        s.assign(GroupId(0), 1);
        s.assign(GroupId(2), 0);
        assert_eq!(s.shard_of(GroupId(0)), Some(1));
        assert_eq!(s.shard_of(GroupId(1)), None);
        assert_eq!(s.shard_of(GroupId(2)), Some(0));
        assert_eq!(s.lane(1).groups, vec![GroupId(0)]);
        let sizes: Vec<usize> = s.iter().map(|(_, l)| l.groups.len()).collect();
        assert_eq!(sizes, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_assignment_is_rejected() {
        let mut s = ShardLayout::new();
        s.add_lane(LinkId(0), LinkId(1));
        s.assign(GroupId(0), 0);
        s.assign(GroupId(0), 0);
    }
}
