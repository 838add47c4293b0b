//! The checker suite: decide whether a recorded history is explainable
//! by a correct system, and name the anomaly when it is not.
//!
//! Every checker consumes the flat record list, counts the operations
//! it actually judged (`ops_checked`), and reports anomalies carrying
//! the **offending op subsequence** — the op ids a human needs to see
//! to understand the violation, in history order.

pub mod append;
pub mod bank;
pub mod image;
pub mod serial;
pub mod shop;

use std::collections::BTreeMap;

use crate::record::{OpData, OpId, Phase, Record};

/// What kind of client-visible anomaly a checker found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// A cycle of ww/wr dependencies between committed transactions
    /// (Adya's G1c: circular information flow).
    WriteCycle,
    /// Two transactions read the same version of a key and both wrote
    /// it: one update swallowed the other.
    LostUpdate,
    /// A dependency cycle involving anti-dependencies (rw) that is not
    /// a lost update: the history is not serializable.
    NonSerializable,
    /// Two committed transactions claim to have installed the same
    /// version of the same key.
    ConflictingWrite,
    /// An acked append is missing from the final state of its list.
    LostAppend,
    /// Two observed lists for one key are not prefix-comparable: the
    /// append order differs between observers.
    NonPrefixRead,
    /// One observer saw a list (or state) go backwards in time.
    StaleRead,
    /// A read observed a value no client ever wrote.
    PhantomValue,
    /// A read observed the same appended value twice in one list.
    DuplicateValue,
    /// An observed account snapshot does not conserve the total
    /// balance.
    BalanceViolation,
    /// An order is visible in an image without its stock decrement:
    /// the cross-database guarantee failed in a client-visible way.
    OrderWithoutStock,
    /// An acked operation is missing from a final (fully drained)
    /// read of the state.
    LostOp,
    /// An image observation failed outright: the reader mounted a
    /// backup image that could not crash-recover. The strongest form
    /// of the paper's collapse — the backup is not merely stale, it is
    /// unusable.
    UnreadableImage,
}

impl AnomalyKind {
    /// Stable label used in reports and violation details.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::WriteCycle => "G1c-write-cycle",
            AnomalyKind::LostUpdate => "lost-update",
            AnomalyKind::NonSerializable => "non-serializable",
            AnomalyKind::ConflictingWrite => "conflicting-write",
            AnomalyKind::LostAppend => "lost-append",
            AnomalyKind::NonPrefixRead => "non-prefix-read",
            AnomalyKind::StaleRead => "stale-read",
            AnomalyKind::PhantomValue => "phantom-value",
            AnomalyKind::DuplicateValue => "duplicate-value",
            AnomalyKind::BalanceViolation => "balance-violation",
            AnomalyKind::OrderWithoutStock => "order-without-stock",
            AnomalyKind::LostOp => "lost-op",
            AnomalyKind::UnreadableImage => "unreadable-image",
        }
    }
}

/// One client-visible violation, with the ops that exhibit it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// What went wrong.
    pub kind: AnomalyKind,
    /// Human-readable specifics (keys, values, totals).
    pub detail: String,
    /// The offending op subsequence: op ids in history order. Enough
    /// to replay the violation by hand from the exported JSONL.
    pub ops: Vec<OpId>,
}

impl Anomaly {
    /// Render as a single line: `kind: detail ops=[op1,op2]`.
    pub fn render(&self) -> String {
        let ids: Vec<String> = self.ops.iter().map(|o| o.0.to_string()).collect();
        format!(
            "{}: {} ops=[{}]",
            self.kind.label(),
            self.detail,
            ids.join(",")
        )
    }
}

/// The verdict of one checker over one history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Which checker produced this report.
    pub checker: &'static str,
    /// How many operations the checker actually judged.
    pub ops_checked: u64,
    /// Violations found; empty means the history passed.
    pub anomalies: Vec<Anomaly>,
}

impl CheckReport {
    /// True when no anomaly was found.
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }
}

/// Parameters the checkers cannot derive from the history alone.
#[derive(Debug, Clone, Default)]
pub struct CheckConfig {
    /// The invariant total for the bank checker. When `None`, the
    /// first observed balance snapshot defines the expected total.
    pub expected_total: Option<u64>,
}

/// The combined verdict of every applicable checker.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Records in the judged history.
    pub records: u64,
    /// One report per checker that had operations to judge.
    pub reports: Vec<CheckReport>,
}

impl Verdict {
    /// True when every checker passed.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|r| r.is_clean())
    }

    /// Total operations judged across all checkers.
    pub fn ops_checked(&self) -> u64 {
        self.reports.iter().map(|r| r.ops_checked).sum()
    }

    /// All anomalies across all checkers, in checker order.
    pub fn anomalies(&self) -> impl Iterator<Item = &Anomaly> {
        self.reports.iter().flat_map(|r| r.anomalies.iter())
    }

    /// Multi-line human-readable report, stable across runs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "history: records={} ops_checked={} verdict={}\n",
            self.records,
            self.ops_checked(),
            if self.is_clean() {
                "clean"
            } else {
                "ANOMALIES"
            }
        );
        for r in &self.reports {
            out.push_str(&format!(
                "  checker={} ops={} anomalies={}\n",
                r.checker,
                r.ops_checked,
                r.anomalies.len()
            ));
            for a in &r.anomalies {
                out.push_str(&format!("    {}\n", a.render()));
            }
        }
        out
    }
}

/// What the checkers ask about an operation by its id — where it was
/// invoked, whether it was acknowledged — answered from one pass over the
/// history. A [`Recorder`](crate::Recorder) mints op ids densely from a
/// counter, at most one per record, so an id up to the record count is an
/// index into a table that size (DESIGN.md §18): a lookup is an array read
/// where a scan of every record used to be, and checking a history costs
/// time linear in its length. An id past the record count (a hand-built or
/// hostile history) is answered from an ordered map, whatever its
/// magnitude.
#[derive(Debug)]
pub struct OpTable<'h> {
    ops: Vec<OpSlot<'h>>,
    far: BTreeMap<u64, OpSlot<'h>>,
    /// Lookups answered so far: the linear-cost test counts them.
    #[cfg(test)]
    probes: std::cell::Cell<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct OpSlot<'h> {
    /// The first [`Phase::Invoke`] record of the op.
    invoke: Option<&'h Record>,
    /// Some record answered the op with [`Phase::Ok`].
    acked: bool,
}

impl<'h> OpTable<'h> {
    /// Index `records` by op id.
    pub fn new(records: &'h [Record]) -> Self {
        let mut ops = vec![OpSlot::default(); records.len() + 1];
        let mut far = BTreeMap::new();
        for r in records {
            let slot = match usize::try_from(r.op.0).ok().and_then(|i| ops.get_mut(i)) {
                Some(slot) => slot,
                None => far.entry(r.op.0).or_default(),
            };
            match r.phase {
                Phase::Invoke if slot.invoke.is_none() => slot.invoke = Some(r),
                Phase::Ok => slot.acked = true,
                _ => {}
            }
        }
        OpTable {
            ops,
            far,
            #[cfg(test)]
            probes: std::cell::Cell::new(0),
        }
    }

    fn slot(&self, op: OpId) -> OpSlot<'h> {
        #[cfg(test)]
        self.probes.set(self.probes.get() + 1);
        let near = usize::try_from(op.0).ok().and_then(|i| self.ops.get(i));
        near.or_else(|| self.far.get(&op.0))
            .copied()
            .unwrap_or_default()
    }

    /// The invoke record of `op`, if any.
    pub fn invoke_of(&self, op: OpId) -> Option<&'h Record> {
        self.slot(op).invoke
    }

    /// True when `op`'s invoke was answered with [`Phase::Ok`].
    pub fn acked(&self, op: OpId) -> bool {
        self.slot(op).acked
    }
}

/// `values` as an ascending slice: itself when it already is strictly
/// ascending (a list read in append order), else a sorted copy made in
/// `scratch`.
pub(crate) fn sorted<'a>(values: &'a [u64], scratch: &'a mut Vec<u64>) -> &'a [u64] {
    if values.windows(2).all(|w| w[0] < w[1]) {
        return values;
    }
    scratch.clear();
    scratch.extend_from_slice(values);
    scratch.sort_unstable();
    scratch
}

/// Drop every element of sorted `v` whose key equals its predecessor's,
/// keeping the *last* of each run in its place: a map's insert, over a
/// vector sorted stably by key.
pub(crate) fn keep_last<T: Copy, K: PartialEq>(v: &mut Vec<T>, key: impl Fn(&T) -> K) {
    v.dedup_by(|next, kept| {
        let same = key(next) == key(kept);
        if same {
            *kept = *next;
        }
        same
    });
}

/// Run every checker that has work in `records`: a [`History`](crate::History) snapshot
/// (it derefs to its records) or a [`Recorder`](crate::Recorder)'s arena
/// in place ([`Recorder::check`](crate::Recorder::check)).
///
/// The serializability checker runs whenever committed transactions
/// are present; the bank / append / shop checkers run when their ops
/// appear. A history with nothing to judge yields an empty verdict
/// (which is clean).
pub fn check_history(records: &[Record], cfg: &CheckConfig) -> Verdict {
    let (mut txns, mut bank, mut lists, mut shop, mut reads) = (false, false, false, false, false);
    for r in records {
        match r.data {
            OpData::Txn(_) => txns = true,
            OpData::Transfer { .. } => bank = true,
            OpData::ReadBalances { .. } => (bank, reads) = (true, true),
            OpData::Append { .. } => lists = true,
            OpData::ReadList { .. } => (lists, reads) = (true, true),
            OpData::Order { .. } => shop = true,
            OpData::ReadShop { .. } => (shop, reads) = (true, true),
            _ => {}
        }
    }

    let ops = OpTable::new(records);
    let mut reports = Vec::new();
    if txns {
        reports.push(serial::check(records));
    }
    if bank {
        reports.push(bank::check(records, &ops, cfg.expected_total));
    }
    if lists {
        reports.push(append::check(records, &ops));
    }
    if shop {
        reports.push(shop::check(records, &ops));
    }
    if reads {
        reports.push(image::check(records));
    }

    Verdict {
        records: records.len() as u64,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{History, Recorder, Site, TxnOps};
    use tsuru_sim::SimTime;

    /// A clean history of `records` records: acked orders and appends in
    /// equal parts, a mid-run backup read of each kind every 500 of them,
    /// the final primary and backup reads at the end.
    fn clean_history(records: usize) -> History {
        let r = Recorder::enabled();
        let t = SimTime::from_micros;
        let ack = OpData::Txn(TxnOps::default());
        let (mut orders, mut list) = (Vec::new(), Vec::new());
        let read = |site, orders: &[u64], list: &[u64], at: u64| {
            let op = r.invoke(1_000, t(at), OpData::ReadShop { site });
            let shop = OpData::Shop {
                orders: orders.to_vec(),
                deltas: vec![(1, orders.len() as u64)],
            };
            r.ok(1_000, op, t(at), shop);
            let op = r.invoke(1_000, t(at), OpData::ReadList { key: 0, site });
            let values = list.to_vec();
            r.ok(1_000, op, t(at), OpData::List { key: 0, values });
        };
        let mut n = 0u64;
        while r.len() as usize + 12 < records {
            n += 1;
            let order = OpData::Order {
                order_id: n,
                item: 1,
                quantity: 1,
            };
            let op = r.invoke(1, t(n), order);
            r.ok(1, op, t(n), ack.clone());
            orders.push(n);
            let op = r.invoke(2, t(n), OpData::Append { key: 0, value: n });
            r.ok(2, op, t(n), ack.clone());
            list.push(n);
            // A mid-run reader sees a short prefix (keeps the history, not
            // the reads, the thing that grows).
            if n % 500 == 0 {
                read(Site::Backup, &orders[..8], &list[..8], n);
            }
        }
        read(Site::Primary, &orders, &list, n + 1);
        read(Site::BackupFinal, &orders, &list, n + 1);
        r.history()
    }

    /// An op id a recorder could not have minted — past the record count,
    /// up to `u64::MAX` — is still an op: the table neither sizes itself by
    /// it (which wrapped to an empty table, or aborted on the allocation)
    /// nor drops it, so the verdict does not depend on its magnitude.
    #[test]
    fn op_ids_past_the_record_count_judge_alike() {
        let verdict = |read_op: u64| {
            let t = SimTime::from_micros(1);
            let record = |op, phase, data| Record {
                seq: 0,
                op: OpId(op),
                process: 1,
                t,
                phase,
                data,
            };
            let order = OpData::Order {
                order_id: 7,
                item: 1,
                quantity: 1,
            };
            let shop = OpData::Shop {
                orders: vec![],
                deltas: vec![],
            };
            let h = History::from_records(vec![
                record(1, Phase::Invoke, order),
                record(1, Phase::Ok, OpData::Txn(TxnOps::default())),
                record(
                    read_op,
                    Phase::Invoke,
                    OpData::ReadShop {
                        site: Site::Primary,
                    },
                ),
                record(read_op, Phase::Ok, shop),
            ]);
            check_history(&h, &CheckConfig::default())
        };
        let near = verdict(2);
        let lost: Vec<_> = near.anomalies().collect();
        assert_eq!(lost.len(), 1, "{}", near.render());
        assert_eq!(lost[0].kind, AnomalyKind::LostOp);
        for far in [1 << 40, u64::MAX] {
            let v = verdict(far);
            let anomalies: Vec<_> = v.anomalies().collect();
            assert_eq!(anomalies.len(), 1, "{}", v.render());
            assert_eq!(anomalies[0].kind, lost[0].kind);
            assert_eq!(anomalies[0].detail, lost[0].detail);
            assert_eq!(anomalies[0].ops, [OpId(1), OpId(far)]);
            assert_eq!(v.ops_checked(), near.ops_checked());
        }
    }

    /// The checkers used to find an op's invoke and its acknowledgement by
    /// scanning every record, once per order × site and per append × site:
    /// quadratic. Now the work per op is a counted number of table lookups,
    /// so doubling the history doubles the lookups.
    #[test]
    fn checking_costs_time_linear_in_the_history() {
        let probes = |records: usize| {
            let h = clean_history(records);
            assert!(h.len() > records - 16 && h.len() <= records);
            let ops = OpTable::new(&h);
            for report in [shop::check(&h, &ops), append::check(&h, &ops)] {
                assert!(report.is_clean(), "{:?}", report.anomalies);
                assert!(report.ops_checked as usize > records / 5);
            }
            assert!(check_history(&h, &CheckConfig::default()).is_clean());
            (ops.probes.get(), h.len() as u64)
        };
        let (small, small_len) = probes(25_000);
        let (large, large_len) = probes(50_000);
        // A bounded number of lookups per record…
        assert!(
            small <= 2 * small_len && large <= 2 * large_len,
            "{small} {large}"
        );
        // …so twice the history is twice the work (± the fixed reads).
        let ratio = large as f64 / small as f64;
        assert!((1.9..=2.1).contains(&ratio), "{small} -> {large}");
    }
}
