//! The elle-style append-list checker: per-key ordered appends must
//! read consistently everywhere, forever.
//!
//! The append-list workload is the sharpest consistency probe we have:
//! each client appends unique values to per-key lists, while readers —
//! live clients, a mid-run analytics scan of the recovered backup
//! image, and a final post-drain scan — observe the lists. A correct
//! system guarantees, per key:
//!
//! * every observed list contains only values someone appended, each
//!   at most once (**no phantoms, no duplicates**);
//! * all observed lists are pairwise **prefix-comparable** — a single
//!   append order exists, and every observer saw a prefix of it;
//! * each observer's view is **monotone** — no list ever shrinks or
//!   rewinds for the same process (a stale backup image re-read after
//!   a fresher one is client-visible time travel);
//! * after the journal drains, **no acked append is lost**: the final
//!   backup image equals the final primary state.

use std::collections::{BTreeMap, BTreeSet};

use crate::check::{Anomaly, AnomalyKind, CheckReport, OpTable};
use crate::record::{History, OpData, OpId, Phase, Site};

struct Read {
    op: OpId,
    process: u32,
    site: Option<Site>,
    values: Vec<u64>,
}

/// Check every append-list key observed in `h` (`ops` indexes it).
pub fn check(h: &History, ops: &OpTable<'_>) -> CheckReport {
    // Per key: appended values (value → append op), and reads in
    // record order.
    let mut appends: BTreeMap<u64, BTreeMap<u64, OpId>> = BTreeMap::new();
    let mut reads: BTreeMap<u64, Vec<Read>> = BTreeMap::new();
    let mut ops_checked = 0u64;

    for r in &h.records {
        match (&r.phase, &r.data) {
            (Phase::Invoke, OpData::Append { key, value }) => {
                ops_checked += 1;
                appends.entry(*key).or_default().insert(*value, r.op);
            }
            (Phase::Ok, OpData::List { key, values })
            | (Phase::Info, OpData::List { key, values }) => {
                ops_checked += 1;
                let site = ops.invoke_of(r.op).and_then(|inv| match &inv.data {
                    OpData::ReadList { site, .. } => Some(*site),
                    _ => None,
                });
                reads.entry(*key).or_default().push(Read {
                    op: r.op,
                    process: r.process,
                    site,
                    values: values.clone(),
                });
            }
            _ => {}
        }
    }

    let mut anomalies = Vec::new();
    let empty = BTreeMap::new();

    for (&key, key_reads) in &reads {
        let invoked = appends.get(&key).unwrap_or(&empty);

        // Phantoms and duplicates, one anomaly per offending read.
        for rd in key_reads {
            let mut seen = BTreeMap::new();
            for &v in &rd.values {
                if !invoked.contains_key(&v) {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::PhantomValue,
                        detail: format!("key {key}: read observed value {v} never appended"),
                        ops: vec![rd.op],
                    });
                }
                if *seen.entry(v).or_insert(0u32) == 1 {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::DuplicateValue,
                        detail: format!("key {key}: value {v} appears twice in one read"),
                        ops: vec![rd.op],
                    });
                }
                *seen.get_mut(&v).expect("just inserted") += 1;
            }
        }

        // Prefix comparability: sorted by length, each read must be a
        // prefix of the next longer one (prefix order is transitive,
        // so consecutive checks cover every pair).
        let mut by_len: Vec<&Read> = key_reads.iter().collect();
        by_len.sort_by_key(|r| (r.values.len(), r.op));
        for pair in by_len.windows(2) {
            let (short, long) = (pair[0], pair[1]);
            if long.values[..short.values.len()] != short.values[..] {
                let mut ops = vec![short.op, long.op];
                ops.sort_unstable();
                anomalies.push(Anomaly {
                    kind: AnomalyKind::NonPrefixRead,
                    detail: format!(
                        "key {key}: two observed lists are not prefix-comparable \
                         ({} vs {} values)",
                        short.values.len(),
                        long.values.len()
                    ),
                    ops,
                });
            }
        }

        // Per-process monotonicity: a later read by the same observer
        // must extend the earlier one.
        let mut last_by_process: BTreeMap<u32, &Read> = BTreeMap::new();
        for rd in key_reads {
            if let Some(prev) = last_by_process.get(&rd.process) {
                let rewound = rd.values.len() < prev.values.len()
                    || rd.values[..prev.values.len()] != prev.values[..];
                if rewound {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::StaleRead,
                        detail: format!(
                            "key {key}: process {} saw the list rewind from {} to {} values",
                            rd.process,
                            prev.values.len(),
                            rd.values.len()
                        ),
                        ops: vec![prev.op, rd.op],
                    });
                }
            }
            last_by_process.insert(rd.process, rd);
        }

        // Lost appends: every acked append must survive into the final
        // primary state and the fully drained backup image.
        for (label, site) in [("primary", Site::Primary), ("backup", Site::BackupFinal)] {
            let final_read = key_reads.iter().rev().find(|r| r.site == Some(site));
            let Some(final_read) = final_read else { continue };
            let survived: BTreeSet<u64> = final_read.values.iter().copied().collect();
            let mut missing: Vec<(u64, OpId)> = Vec::new();
            for (&value, &op) in invoked {
                if ops.acked(op) && !survived.contains(&value) {
                    missing.push((value, op));
                }
            }
            if !missing.is_empty() {
                let mut ops: Vec<OpId> = missing.iter().map(|&(_, op)| op).collect();
                ops.push(final_read.op);
                ops.sort_unstable();
                let values: Vec<String> =
                    missing.iter().map(|(v, _)| v.to_string()).collect();
                anomalies.push(Anomaly {
                    kind: AnomalyKind::LostAppend,
                    detail: format!(
                        "key {key}: acked append(s) [{}] missing from final {label} read",
                        values.join(",")
                    ),
                    ops,
                });
            }
        }
    }

    anomalies.sort_by_key(|a| (a.ops.first().copied().unwrap_or(OpId::NONE), a.kind.label()));
    CheckReport {
        checker: "append",
        ops_checked,
        anomalies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Recorder, TxnOps};
    use tsuru_sim::SimTime;

    fn check_all(h: &History) -> CheckReport {
        check(h, &OpTable::new(h))
    }

    fn append(r: &Recorder, process: u32, t_us: u64, key: u64, value: u64, ack: bool) {
        let op = r.invoke(
            process,
            SimTime::from_micros(t_us),
            OpData::Append { key, value },
        );
        if ack {
            r.ok(
                process,
                op,
                SimTime::from_micros(t_us + 1),
                OpData::Txn(TxnOps::default()),
            );
        }
    }

    fn read(r: &Recorder, process: u32, t_us: u64, key: u64, site: Site, values: &[u64]) {
        let op = r.invoke(
            process,
            SimTime::from_micros(t_us),
            OpData::ReadList { key, site },
        );
        r.ok(
            process,
            op,
            SimTime::from_micros(t_us),
            OpData::List {
                key,
                values: values.to_vec(),
            },
        );
    }

    #[test]
    fn faithful_prefixes_pass() {
        let r = Recorder::enabled();
        append(&r, 1, 10, 0, 1, true);
        append(&r, 2, 20, 0, 2, true);
        append(&r, 1, 30, 0, 3, true);
        read(&r, 1_000, 25, 0, Site::Backup, &[1]);
        read(&r, 1_000, 35, 0, Site::Backup, &[1, 2]);
        read(&r, 1_001, 40, 0, Site::Primary, &[1, 2, 3]);
        read(&r, 1_000, 50, 0, Site::BackupFinal, &[1, 2, 3]);
        let report = check_all(&r.history());
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(report.ops_checked, 7);
    }

    #[test]
    fn lost_append_after_drain_is_flagged() {
        let r = Recorder::enabled();
        append(&r, 1, 10, 0, 1, true);
        append(&r, 1, 20, 0, 2, true);
        read(&r, 1_001, 40, 0, Site::Primary, &[1, 2]);
        read(&r, 1_000, 50, 0, Site::BackupFinal, &[1]);
        let report = check_all(&r.history());
        assert_eq!(report.anomalies.len(), 1, "{:?}", report.anomalies);
        let a = &report.anomalies[0];
        assert_eq!(a.kind, AnomalyKind::LostAppend);
        assert!(a.detail.contains("[2]"), "{}", a.detail);
        assert_eq!(a.ops.len(), 2, "append op + final read op");
    }

    #[test]
    fn pending_appends_may_vanish() {
        let r = Recorder::enabled();
        append(&r, 1, 10, 0, 1, true);
        append(&r, 1, 20, 0, 2, false); // invoked, never acked
        read(&r, 1_001, 40, 0, Site::Primary, &[1]);
        read(&r, 1_000, 50, 0, Site::BackupFinal, &[1]);
        assert!(check_all(&r.history()).is_clean());
    }

    #[test]
    fn pending_appends_may_also_appear() {
        let r = Recorder::enabled();
        append(&r, 1, 10, 0, 1, true);
        append(&r, 1, 20, 0, 2, false);
        read(&r, 1_001, 40, 0, Site::Primary, &[1, 2]);
        assert!(check_all(&r.history()).is_clean());
    }

    #[test]
    fn reordered_lists_are_not_prefixes() {
        let r = Recorder::enabled();
        append(&r, 1, 10, 0, 1, true);
        append(&r, 1, 20, 0, 2, true);
        read(&r, 1_000, 30, 0, Site::Backup, &[1, 2]);
        read(&r, 1_001, 40, 0, Site::Primary, &[2, 1]);
        let report = check_all(&r.history());
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind == AnomalyKind::NonPrefixRead));
    }

    #[test]
    fn rewinding_observer_is_stale() {
        let r = Recorder::enabled();
        append(&r, 1, 10, 0, 1, true);
        append(&r, 1, 20, 0, 2, true);
        read(&r, 1_000, 30, 0, Site::Backup, &[1, 2]);
        read(&r, 1_000, 40, 0, Site::Backup, &[1]);
        let report = check_all(&r.history());
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind == AnomalyKind::StaleRead));
    }

    #[test]
    fn phantom_and_duplicate_values_are_flagged() {
        let r = Recorder::enabled();
        append(&r, 1, 10, 0, 1, true);
        read(&r, 1_000, 30, 0, Site::Backup, &[1, 99]);
        read(&r, 1_001, 40, 0, Site::Backup, &[1, 1]);
        let report = check_all(&r.history());
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind == AnomalyKind::PhantomValue));
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind == AnomalyKind::DuplicateValue));
    }
}
