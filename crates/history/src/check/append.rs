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

use std::collections::BTreeMap;

use crate::check::{keep_last, sorted, Anomaly, AnomalyKind, CheckReport, OpTable};
use crate::record::{OpData, OpId, Phase, Record, Site};

/// One list observation, borrowing its values from the record.
struct Read<'h> {
    key: u64,
    /// Record index: a key's reads keep record order.
    at: usize,
    op: OpId,
    process: u32,
    site: Option<Site>,
    values: &'h [u64],
}

/// Check every append-list key observed in `records` (`ops` indexes it).
pub fn check(records: &[Record], ops: &OpTable<'_>) -> CheckReport {
    let (mut n_appends, mut n_reads) = (0, 0);
    for r in records {
        match (&r.phase, &r.data) {
            (Phase::Invoke, OpData::Append { .. }) => n_appends += 1,
            (Phase::Ok | Phase::Info, OpData::List { .. }) => n_reads += 1,
            _ => {}
        }
    }
    // Every append as (key, value, record index, op), and every read, each
    // sorted by key; a value appended twice to one key keeps its last
    // append.
    let mut appends: Vec<(u64, u64, usize, OpId)> = Vec::with_capacity(n_appends);
    let mut reads: Vec<Read<'_>> = Vec::with_capacity(n_reads);
    for (at, r) in records.iter().enumerate() {
        match (&r.phase, &r.data) {
            (Phase::Invoke, OpData::Append { key, value }) => {
                appends.push((*key, *value, at, r.op));
            }
            (Phase::Ok | Phase::Info, OpData::List { key, values }) => {
                let site = ops.invoke_of(r.op).and_then(|inv| match &inv.data {
                    OpData::ReadList { site, .. } => Some(*site),
                    _ => None,
                });
                reads.push(Read {
                    key: *key,
                    at,
                    op: r.op,
                    process: r.process,
                    site,
                    values,
                });
            }
            _ => {}
        }
    }
    let ops_checked = (appends.len() + reads.len()) as u64;
    appends.sort_unstable();
    keep_last(&mut appends, |a| (a.0, a.1));
    reads.sort_unstable_by_key(|r| (r.key, r.at));

    let mut anomalies = Vec::new();
    // Scratch reused across reads and keys.
    let mut values: Vec<u64> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let mut prev: Vec<Option<usize>> = Vec::new();

    let mut rest = &reads[..];
    while let Some(first) = rest.first() {
        let key = first.key;
        let (key_reads, tail) = rest.split_at(rest.partition_point(|r| r.key == key));
        rest = tail;
        let lo = appends.partition_point(|a| a.0 < key);
        let invoked = &appends[lo..lo + appends[lo..].partition_point(|a| a.0 == key)];
        let appended = |v: u64| invoked.binary_search_by_key(&v, |a| a.1).is_ok();

        // Phantoms and duplicates, one anomaly per offending read. The
        // per-value counts are built only for a read that has a duplicate.
        for rd in key_reads {
            let duplicated = sorted(rd.values, &mut values).windows(2).any(|w| w[0] == w[1]);
            let mut seen = duplicated.then(BTreeMap::new);
            for &v in rd.values {
                if !appended(v) {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::PhantomValue,
                        detail: format!("key {key}: read observed value {v} never appended"),
                        ops: vec![rd.op],
                    });
                }
                let Some(seen) = &mut seen else { continue };
                let count = seen.entry(v).or_insert(0u32);
                *count += 1;
                if *count == 2 {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::DuplicateValue,
                        detail: format!("key {key}: value {v} appears twice in one read"),
                        ops: vec![rd.op],
                    });
                }
            }
        }

        // Prefix comparability: sorted by length, each read must be a
        // prefix of the next longer one (prefix order is transitive,
        // so consecutive checks cover every pair).
        order.clear();
        order.extend(0..key_reads.len());
        order.sort_unstable_by_key(|&i| (key_reads[i].values.len(), key_reads[i].op, i));
        for pair in order.windows(2) {
            let (short, long) = (&key_reads[pair[0]], &key_reads[pair[1]]);
            if long.values[..short.values.len()] != *short.values {
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
        order.sort_unstable_by_key(|&i| (key_reads[i].process, i));
        prev.clear();
        prev.resize(key_reads.len(), None);
        for pair in order.windows(2) {
            if key_reads[pair[0]].process == key_reads[pair[1]].process {
                prev[pair[1]] = Some(pair[0]);
            }
        }
        for (rd, before) in key_reads.iter().zip(&prev) {
            let Some(before) = before.map(|i| &key_reads[i]) else { continue };
            let rewound = rd.values.len() < before.values.len()
                || rd.values[..before.values.len()] != *before.values;
            if rewound {
                anomalies.push(Anomaly {
                    kind: AnomalyKind::StaleRead,
                    detail: format!(
                        "key {key}: process {} saw the list rewind from {} to {} values",
                        rd.process,
                        before.values.len(),
                        rd.values.len()
                    ),
                    ops: vec![before.op, rd.op],
                });
            }
        }

        // Lost appends: every acked append must survive into the final
        // primary state and the fully drained backup image.
        for (label, site) in [("primary", Site::Primary), ("backup", Site::BackupFinal)] {
            let final_read = key_reads.iter().rev().find(|r| r.site == Some(site));
            let Some(final_read) = final_read else { continue };
            let survived = sorted(final_read.values, &mut values);
            let mut missing: Vec<(u64, OpId)> = Vec::new();
            for &(_, value, _, op) in invoked {
                if ops.acked(op) && survived.binary_search(&value).is_err() {
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
    use crate::record::{History, Recorder, TxnOps};
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
