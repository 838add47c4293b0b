//! The global acknowledgement log and write-order-fidelity checker.
//!
//! The paper's central correctness argument (§I) is that a backup is usable
//! iff the backup site's state corresponds to a *prefix* of the order in
//! which the main-site storage acknowledged writes to the hosts. This
//! module records that total ack order and decides, for a given per-volume
//! applied-count vector at the backup site, whether the combined image is
//! such a prefix.

use std::collections::BTreeMap;

use tsuru_sim::SimTime;

use crate::block::VolRef;
use crate::hot::VolLists;

/// One acknowledged write in global ack order.
#[derive(Debug, Clone)]
pub struct AckEntry {
    /// Position in the global ack order (0-based).
    pub global: u64,
    /// Which volume was written.
    pub vol: VolRef,
    /// Block address.
    pub lba: u64,
    /// Content fingerprint of the written block.
    pub hash: u64,
    /// Instant the ack was delivered to the host.
    pub time: SimTime,
}

/// Verdict of the prefix-consistency check.
#[derive(Debug, Clone)]
pub struct PrefixReport {
    /// True iff the applied vector is a prefix-consistent cut.
    pub consistent: bool,
    /// Global index of the latest write included in the cut (`None` when
    /// the cut is empty).
    pub cut_global: Option<u64>,
    /// Ack time of that write (the backup image's logical timestamp).
    pub cut_time: Option<SimTime>,
    /// Human-readable description of each violation found.
    pub violations: Vec<String>,
}

/// The global ack-order log.
#[derive(Debug, Default)]
pub struct AckLog {
    entries: Vec<AckEntry>,
    /// Global indices of each volume's acked writes, in ack order.
    per_vol: VolLists<u64>,
}

impl AckLog {
    /// An empty log.
    pub fn new() -> Self {
        AckLog::default()
    }

    /// Record an acknowledged write; returns its global index.
    pub fn append(&mut self, vol: VolRef, lba: u64, hash: u64, time: SimTime) -> u64 {
        let global = self.entries.len() as u64;
        self.entries.push(AckEntry {
            global,
            vol,
            lba,
            hash,
            time,
        });
        self.per_vol.push(vol, global);
        global
    }

    /// Total acknowledged writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been acknowledged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in ack order.
    pub fn entries(&self) -> &[AckEntry] {
        &self.entries
    }

    /// Acked writes for one volume, in ack order.
    pub fn writes_for(&self, vol: VolRef) -> &[u64] {
        self.per_vol.list(vol)
    }

    /// Number of acked writes for one volume.
    pub fn count_for(&self, vol: VolRef) -> u64 {
        self.writes_for(vol).len() as u64
    }

    /// Check whether applying the first `applied[v]` acked writes of each
    /// volume `v` yields a prefix-consistent cut of the global ack order.
    ///
    /// Per-volume apply is FIFO, so the image of volume `v` is exactly its
    /// first `k_v` acked writes. The cut is a prefix iff no volume is
    /// missing a write that is globally older than some write another
    /// volume already has: with `M = max_v G(v, k_v)` (global index of the
    /// newest included write), every volume's first *excluded* write must
    /// have a global index `> M`.
    pub fn check_prefix(&self, applied: &BTreeMap<VolRef, u64>) -> PrefixReport {
        let mut violations = Vec::new();
        let mut cut_global: Option<u64> = None;

        for (&vol, &k) in applied {
            let writes = self.writes_for(vol);
            if k as usize > writes.len() {
                violations.push(format!(
                    "{vol}: applied {k} writes but only {} were acknowledged",
                    writes.len()
                ));
                continue;
            }
            if k > 0 {
                let last = writes[k as usize - 1];
                cut_global = Some(cut_global.map_or(last, |m| m.max(last)));
            }
        }

        if let Some(m) = cut_global {
            for (&vol, &k) in applied {
                let writes = self.writes_for(vol);
                if (k as usize) < writes.len() {
                    let first_missing = writes[k as usize];
                    if first_missing <= m {
                        violations.push(format!(
                            "{vol}: missing write with global ack index {first_missing} \
                             while the cut already contains index {m}"
                        ));
                    }
                }
            }
        }

        let cut_time = cut_global.map(|g| self.entries[g as usize].time);
        PrefixReport {
            consistent: violations.is_empty(),
            cut_global,
            cut_time,
            violations,
        }
    }

    /// The expected block-content fingerprints of volume `vol` after `k`
    /// acked writes starting at per-volume position `from`, overlaid on
    /// `initial` (the pair-creation image, which already contains the
    /// effects of the first `from` writes). Used to verify that a
    /// secondary volume's bytes match the claimed prefix.
    pub fn expected_content(
        &self,
        vol: VolRef,
        from: u64,
        k: u64,
        initial: &BTreeMap<u64, u64>,
    ) -> BTreeMap<u64, u64> {
        let mut expect = initial.clone();
        for &g in self
            .writes_for(vol)
            .iter()
            .skip(from as usize)
            .take(k as usize)
        {
            let e = &self.entries[g as usize];
            expect.insert(e.lba, e.hash);
        }
        expect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{ArrayId, VolumeId};

    fn v(n: u64) -> VolRef {
        VolRef::new(ArrayId(0), VolumeId(n))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Build the motivating scenario: alternating writes to two volumes.
    /// Global order: v1#0, v2#1, v1#2, v2#3.
    fn log() -> AckLog {
        let mut l = AckLog::new();
        l.append(v(1), 0, 11, t(1));
        l.append(v(2), 0, 21, t(2));
        l.append(v(1), 1, 12, t(3));
        l.append(v(2), 1, 22, t(4));
        l
    }

    #[test]
    fn full_and_empty_cuts_are_consistent() {
        let l = log();
        let all: BTreeMap<_, _> = [(v(1), 2), (v(2), 2)].into();
        let r = l.check_prefix(&all);
        assert!(r.consistent, "{:?}", r.violations);
        assert_eq!(r.cut_global, Some(3));
        assert_eq!(r.cut_time, Some(t(4)));

        let none: BTreeMap<_, _> = [(v(1), 0), (v(2), 0)].into();
        let r = l.check_prefix(&none);
        assert!(r.consistent);
        assert_eq!(r.cut_global, None);
    }

    #[test]
    fn proper_prefix_is_consistent() {
        let l = log();
        // First three global writes: v1 has 2, v2 has 1.
        let cut: BTreeMap<_, _> = [(v(1), 2), (v(2), 1)].into();
        let r = l.check_prefix(&cut);
        assert!(r.consistent, "{:?}", r.violations);
        assert_eq!(r.cut_global, Some(2));
    }

    #[test]
    fn skewed_cut_is_detected() {
        let l = log();
        // v2 applied both writes but v1 applied none: the cut contains
        // global #3 while missing global #0 — the paper's collapse.
        let cut: BTreeMap<_, _> = [(v(1), 0), (v(2), 2)].into();
        let r = l.check_prefix(&cut);
        assert!(!r.consistent);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("missing write"));
    }

    #[test]
    fn over_applied_is_detected() {
        let l = log();
        let cut: BTreeMap<_, _> = [(v(1), 5)].into();
        let r = l.check_prefix(&cut);
        assert!(!r.consistent);
        assert!(r.violations[0].contains("only 2 were acknowledged"));
    }

    #[test]
    fn single_volume_any_prefix_is_consistent() {
        let l = log();
        for k in 0..=2 {
            let cut: BTreeMap<_, _> = [(v(1), k)].into();
            assert!(l.check_prefix(&cut).consistent, "k={k}");
        }
    }

    #[test]
    fn expected_content_overlays_initial_image() {
        let l = log();
        let initial: BTreeMap<u64, u64> = [(0, 99), (7, 77)].into();
        // After 1 write to v1 (lba 0, hash 11): lba0 overwritten, lba7 kept.
        let e = l.expected_content(v(1), 0, 1, &initial);
        assert_eq!(e[&0], 11);
        assert_eq!(e[&7], 77);
        // After 2 writes: lba1 now present.
        let e = l.expected_content(v(1), 0, 2, &initial);
        assert_eq!(e[&1], 12);
        // k = 0 is just the initial image.
        let e = l.expected_content(v(1), 0, 0, &initial);
        assert_eq!(e, initial);
    }

    #[test]
    fn expected_content_with_offset_skips_baked_in_history() {
        let l = log();
        // A pair created after v1's first write: the initial image already
        // holds hash 11 at lba 0; replaying k=1 from offset 1 adds lba 1.
        let initial: BTreeMap<u64, u64> = [(0, 11)].into();
        let e = l.expected_content(v(1), 1, 1, &initial);
        assert_eq!(e[&0], 11);
        assert_eq!(e[&1], 12);
        // Zero replay returns just the image.
        let e = l.expected_content(v(1), 1, 0, &initial);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn unknown_volumes_have_no_acked_writes() {
        let l = log();
        let far = VolRef::new(ArrayId(7), VolumeId(0));
        let beyond = VolRef::new(ArrayId(0), VolumeId(u64::MAX));
        for vol in [v(0), v(3), far, beyond] {
            assert!(l.writes_for(vol).is_empty(), "{vol}");
            assert_eq!(l.count_for(vol), 0);
        }
        // Such a volume in a cut is consistent at 0 and over-applied above.
        let cut: BTreeMap<_, _> = [(v(1), 2), (v(2), 1), (far, 0)].into();
        assert!(l.check_prefix(&cut).consistent);
        let cut: BTreeMap<_, _> = [(beyond, 1)].into();
        assert!(l.check_prefix(&cut).violations[0].contains("only 0 were acknowledged"));
        assert_eq!(
            l.expected_content(far, 0, 5, &BTreeMap::new()),
            BTreeMap::new()
        );
    }

    #[test]
    fn counts_per_volume() {
        let l = log();
        assert_eq!(l.count_for(v(1)), 2);
        assert_eq!(l.count_for(v(2)), 2);
        assert_eq!(l.count_for(v(9)), 0);
        assert_eq!(l.len(), 4);
    }
}
