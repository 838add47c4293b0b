//! Struct-of-arrays hot state, indexed by dense `(array, volume)` handles.
//!
//! Volume ids are minted sequentially per array, so a [`VolRef`] is already
//! a dense two-level handle: `array.0` indexes a lane, `volume.0` indexes a
//! slot inside it. The structures here exploit that to keep the engine's
//! per-write bookkeeping in flat arrays — the paths that run once per host
//! write (ticket issue/turn/retire, replication-leg fan-out lookup) touch
//! contiguous memory instead of walking `BTreeMap` nodes.
//!
//! Lanes grow on first touch and are never shrunk; absent slots carry the
//! same meaning the old map encodings gave a missing key, so swapping the
//! containers changes no observable behaviour (verified by the byte-identity
//! gate over every experiment output).

use crate::block::{PairId, VolRef};

/// Per-volume host-write ordering state in struct-of-arrays layout.
///
/// A write takes a ticket at submission (`issue`) and may only apply when
/// its ticket equals the volume's turn (`is_turn`), retiring the turn once
/// applied (`retire`). The two counters live in *separate* parallel arrays
/// because the hot loops touch them asymmetrically: `is_turn` polls only
/// the turn array, so ticket issuance never drags those cache lines in.
#[derive(Debug, Default)]
pub struct TicketLanes {
    /// `next_ticket[array][volume]`: tickets issued so far (0 = never).
    next_ticket: Vec<Vec<u64>>,
    /// `turn[array][volume]`: the ticket currently allowed to apply.
    turn: Vec<Vec<u64>>,
}

impl TicketLanes {
    /// Empty lanes.
    pub fn new() -> Self {
        TicketLanes::default()
    }

    fn grow_to(&mut self, vol: VolRef) {
        let a = vol.array.0 as usize;
        let v = vol.volume.0 as usize;
        if self.next_ticket.len() <= a {
            self.next_ticket.resize_with(a + 1, Vec::new);
            self.turn.resize_with(a + 1, Vec::new);
        }
        let tickets = self
            .next_ticket
            .get_mut(a)
            .expect("invariant: the lane vector was just resized past a");
        if tickets.len() <= v {
            tickets.resize(v + 1, 0);
            self.turn
                .get_mut(a)
                .expect("invariant: turn is resized in lockstep with next_ticket")
                .resize(v + 1, 0);
        }
    }

    /// Issue the next ticket for `vol` (first issue returns 0).
    pub fn issue(&mut self, vol: VolRef) -> u64 {
        self.grow_to(vol);
        let slot = self
            .next_ticket
            .get_mut(vol.array.0 as usize)
            .and_then(|l| l.get_mut(vol.volume.0 as usize))
            .expect("invariant: grow_to sized the lane for this volume");
        let ticket = *slot;
        *slot += 1;
        ticket
    }

    /// Is `ticket` the one allowed to apply on `vol` right now? False for a
    /// volume that never issued a ticket (matching the old map's missing-key
    /// answer).
    pub fn is_turn(&self, vol: VolRef, ticket: u64) -> bool {
        let a = vol.array.0 as usize;
        let v = vol.volume.0 as usize;
        match (
            self.next_ticket.get(a).and_then(|l| l.get(v)),
            self.turn.get(a).and_then(|l| l.get(v)),
        ) {
            (Some(&next), Some(&turn)) if next > 0 => turn == ticket,
            _ => false,
        }
    }

    /// Advance `vol`'s turn (no-op for a volume that never issued a ticket).
    pub fn retire(&mut self, vol: VolRef) {
        let a = vol.array.0 as usize;
        let v = vol.volume.0 as usize;
        let issued = self
            .next_ticket
            .get(a)
            .and_then(|l| l.get(v))
            .copied()
            .unwrap_or(0);
        if issued > 0 {
            *self.turn.get_mut(a).and_then(|l| l.get_mut(v)).expect(
                "invariant: turn is sized in lockstep with next_ticket, which has this slot",
            ) += 1;
        }
    }
}

/// One list per volume in a two-level table, `lists[array][volume]`.
///
/// Stands in for a `BTreeMap<VolRef, Vec<T>>`: a lookup is two array reads
/// instead of a tree descent, a volume nothing was pushed for reads as the
/// empty list (exactly as a missing key did), and order within a list is
/// push order.
#[derive(Debug)]
pub struct VolLists<T> {
    lists: Vec<Vec<Vec<T>>>,
}

impl<T> Default for VolLists<T> {
    fn default() -> Self {
        VolLists { lists: Vec::new() }
    }
}

impl<T> VolLists<T> {
    /// Append `item` to `vol`'s list, growing the table to reach it.
    pub fn push(&mut self, vol: VolRef, item: T) {
        let a = vol.array.0 as usize;
        let v = vol.volume.0 as usize;
        if self.lists.len() <= a {
            self.lists.resize_with(a + 1, Vec::new);
        }
        let lane = self
            .lists
            .get_mut(a)
            .expect("invariant: the lane vector was just resized past a");
        if lane.len() <= v {
            lane.resize_with(v + 1, Vec::new);
        }
        lane.get_mut(v)
            .expect("invariant: the lane was just resized past v")
            .push(item);
    }

    /// `vol`'s list, in push order; empty for a volume never pushed to.
    pub fn list(&self, vol: VolRef) -> &[T] {
        self.lists
            .get(vol.array.0 as usize)
            .and_then(|l| l.get(vol.volume.0 as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// Keep only the items of `vol`'s list that satisfy `keep`.
    pub fn retain(&mut self, vol: VolRef, keep: impl FnMut(&T) -> bool) {
        if let Some(list) = self
            .lists
            .get_mut(vol.array.0 as usize)
            .and_then(|l| l.get_mut(vol.volume.0 as usize))
        {
            list.retain(keep);
        }
    }
}

/// Dense primary-volume → replication-leg index.
///
/// `check_host_write` resolves the fan-out of every host write through
/// this index. Leg order within a slot is attach order.
#[derive(Debug, Default)]
pub struct PrimaryIndex {
    legs: VolLists<PairId>,
}

impl PrimaryIndex {
    /// Empty index.
    pub fn new() -> Self {
        PrimaryIndex::default()
    }

    /// Register a replication leg whose primary is `vol`.
    pub fn attach(&mut self, vol: VolRef, pair: PairId) {
        self.legs.push(vol, pair);
    }

    /// Remove a leg (operator teardown); no-op if absent.
    pub fn detach(&mut self, vol: VolRef, pair: PairId) {
        self.legs.retain(vol, |&p| p != pair);
    }

    /// Every leg whose primary volume is `vol`, in attach order.
    pub fn legs(&self, vol: VolRef) -> &[PairId] {
        self.legs.list(vol)
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
    fn tickets_issue_in_sequence_and_turns_advance() {
        let mut t = TicketLanes::new();
        let v = volref(0, 3);
        assert!(!t.is_turn(v, 0), "no ticket issued yet");
        assert_eq!(t.issue(v), 0);
        assert_eq!(t.issue(v), 1);
        assert!(t.is_turn(v, 0));
        assert!(!t.is_turn(v, 1));
        t.retire(v);
        assert!(t.is_turn(v, 1));
        // Independent volumes do not interfere.
        assert_eq!(t.issue(volref(1, 0)), 0);
        assert!(t.is_turn(v, 1));
    }

    #[test]
    fn retire_without_issue_is_a_no_op() {
        let mut t = TicketLanes::new();
        t.retire(volref(2, 9));
        assert!(!t.is_turn(volref(2, 9), 0));
    }

    #[test]
    fn primary_index_attach_detach_order() {
        let mut ix = PrimaryIndex::new();
        let v = volref(0, 1);
        assert!(ix.legs(v).is_empty());
        ix.attach(v, PairId(4));
        ix.attach(v, PairId(2));
        assert_eq!(ix.legs(v), &[PairId(4), PairId(2)]);
        ix.detach(v, PairId(4));
        assert_eq!(ix.legs(v), &[PairId(2)]);
        ix.detach(volref(9, 9), PairId(2)); // absent slot: no-op
        ix.detach(v, PairId(2));
        assert!(ix.legs(v).is_empty());
    }
}
