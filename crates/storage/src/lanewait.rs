//! Per-lane wait lists: where a transfer pump waits out a link's backlog.
//!
//! A group whose link's sender-side backlog is over
//! `EngineConfig::max_link_backlog` does not poll: it *parks* on the
//! link's FIFO here and keeps its `pump_scheduled` claim, and the lane
//! owns at most one pending `StorageOp::LinkWake` — armed for the exact
//! instant the backlog will have drained to the threshold
//! (`Link::backlog_clears_at`). The wake admits waiters in arrival order
//! until the backlog is over the threshold again and re-arms itself for
//! the rest (`engine::link_wake`); DESIGN.md §19 has the arithmetic.
//!
//! The table is dense over [`LinkId`] (ids are minted sequentially by the
//! network), grown on first park. An entry names the replication
//! generation it parked in: a resync or promote leaves it behind *stale*,
//! and the wake drops it when popped.

use std::collections::VecDeque;

use tsuru_sim::SimTime;
use tsuru_simnet::LinkId;
use tsuru_telemetry::SpanId;

use crate::block::GroupId;

/// One parked transfer pump.
#[derive(Debug, Clone, Copy)]
pub struct Waiter {
    /// The parked group.
    pub gid: GroupId,
    /// Replication generation the pump parked in.
    pub gen: u32,
    /// Park instant (start of the `lane_wait` span).
    pub since: SimTime,
    /// Span of the oldest write waiting behind the park
    /// ([`SpanId::NONE`] when tracing is off).
    pub span: SpanId,
}

#[derive(Debug, Default)]
struct Lane {
    waiters: VecDeque<Waiter>,
    /// Instant of the lane's pending `LinkWake`, if one is armed.
    wake_at: Option<SimTime>,
}

/// `lanes[link.0]`: every link's wait list and wake.
#[derive(Debug, Default)]
pub struct LaneWaits {
    lanes: Vec<Lane>,
}

impl LaneWaits {
    fn lane_mut(&mut self, link: LinkId) -> &mut Lane {
        let i = link.0 as usize;
        if self.lanes.len() <= i {
            self.lanes.resize_with(i + 1, Lane::default);
        }
        self.lanes
            .get_mut(i)
            .expect("invariant: the table was just grown past this link")
    }

    /// Append a waiter to `link`'s list.
    pub(crate) fn park(&mut self, link: LinkId, waiter: Waiter) {
        self.lane_mut(link).waiters.push_back(waiter);
    }

    /// The head of `link`'s list leaves it.
    pub(crate) fn pop(&mut self, link: LinkId) -> Option<Waiter> {
        self.lane_mut(link).waiters.pop_front()
    }

    /// Record that `link`'s wake is pending at `at`. False — and nothing
    /// recorded — if one is pending already or nobody waits.
    pub(crate) fn arm(&mut self, link: LinkId, at: SimTime) -> bool {
        let lane = self.lane_mut(link);
        if lane.wake_at.is_some() || lane.waiters.is_empty() {
            return false;
        }
        lane.wake_at = Some(at);
        true
    }

    /// `link`'s pending wake fired.
    pub(crate) fn disarm(&mut self, link: LinkId) {
        self.lane_mut(link).wake_at = None;
    }

    /// The waiters on `link`, head first (stale entries included).
    pub fn waiters(&self, link: LinkId) -> impl Iterator<Item = &Waiter> {
        self.lanes
            .get(link.0 as usize)
            .into_iter()
            .flat_map(|l| l.waiters.iter())
    }

    /// Instant of `link`'s pending wake, if one is armed.
    pub fn wake_at(&self, link: LinkId) -> Option<SimTime> {
        self.lanes.get(link.0 as usize).and_then(|l| l.wake_at)
    }

    /// Every link that ever had a waiter, in id order.
    pub fn links(&self) -> impl Iterator<Item = LinkId> {
        (0..self.lanes.len() as u32).map(LinkId)
    }
}
