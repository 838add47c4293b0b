//! The e-commerce cross-database rule, stated over raw client
//! observations.
//!
//! The shop commits each order as two transactions — stock decrement
//! first, then the order row — in *different databases on different
//! volumes*. An image (mid-run backup read, or the fully drained
//! backup) is client-consistent when every order visible in it is
//! covered by a visible stock decrement: for each item, the units sold
//! by visible orders never exceed the stock decrement observed in the
//! same image. A torn per-volume image shows the order without the
//! decrement — the phantom sale the paper's consistency group exists
//! to prevent.

use std::collections::{BTreeMap, BTreeSet};

use crate::check::{Anomaly, AnomalyKind, CheckReport, OpTable};
use crate::record::{History, OpData, OpId, Phase, Site};

/// One item that breaks the cross-database rule in an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oversold {
    /// Item id.
    pub item: u64,
    /// Units sold by the orders visible in the image.
    pub sold: u64,
    /// Units of stock decrement visible in the same image.
    pub decremented: u64,
}

/// The cross-database rule, stated once: for every item, the units sold
/// by the orders visible in an image never exceed the stock decrement
/// visible in the same image (an item with no visible decrement has
/// decrement 0). Returns the items that break it, ascending.
///
/// Both judges call this — this module on what clients observed, and
/// `tsuru_ecom::check_cross_db` on a recovered pair of databases.
pub fn oversold(sold: &BTreeMap<u64, u64>, decremented: &BTreeMap<u64, u64>) -> Vec<Oversold> {
    sold.iter()
        .filter_map(|(&item, &sold)| {
            let decremented = decremented.get(&item).copied().unwrap_or(0);
            (sold > decremented).then_some(Oversold {
                item,
                sold,
                decremented,
            })
        })
        .collect()
}

/// Check every shop-image observation in `h` (`ops` indexes it).
pub fn check(h: &History, ops: &OpTable<'_>) -> CheckReport {
    // order_id → (item, quantity, invoke op).
    let mut orders: BTreeMap<u64, (u64, u32, OpId)> = BTreeMap::new();
    let mut ops_checked = 0u64;
    for r in &h.records {
        if r.phase == Phase::Invoke {
            if let OpData::Order {
                order_id,
                item,
                quantity,
            } = r.data
            {
                ops_checked += 1;
                orders.insert(order_id, (item, quantity, r.op));
            }
        }
    }

    let mut anomalies = Vec::new();
    let mut final_reads: Vec<(Site, OpId, Vec<u64>)> = Vec::new();

    for r in &h.records {
        if !matches!(r.phase, Phase::Ok | Phase::Info) {
            continue;
        }
        let OpData::Shop { orders: visible, deltas } = &r.data else {
            continue;
        };
        ops_checked += 1;
        let site = ops.invoke_of(r.op).and_then(|inv| match &inv.data {
            OpData::ReadShop { site } => Some(*site),
            _ => None,
        });

        // Units sold per item according to the orders visible in this
        // image; unknown order ids are phantoms.
        let mut sold: BTreeMap<u64, u64> = BTreeMap::new();
        let mut culprits: BTreeMap<u64, Vec<OpId>> = BTreeMap::new();
        for oid in visible {
            match orders.get(oid) {
                None => anomalies.push(Anomaly {
                    kind: AnomalyKind::PhantomValue,
                    detail: format!("image shows order {oid} no client ever placed"),
                    ops: vec![r.op],
                }),
                Some(&(item, quantity, op)) => {
                    *sold.entry(item).or_insert(0) += quantity as u64;
                    culprits.entry(item).or_default().push(op);
                }
            }
        }
        let observed: BTreeMap<u64, u64> = deltas.iter().copied().collect();
        for Oversold {
            item,
            sold: units,
            decremented: delta,
        } in oversold(&sold, &observed)
        {
            let mut ops = culprits.remove(&item).unwrap_or_default();
            ops.push(r.op);
            ops.sort_unstable();
            ops.dedup();
            anomalies.push(Anomaly {
                kind: AnomalyKind::OrderWithoutStock,
                detail: format!(
                    "item {item}: image shows {units} units ordered but only \
                     {delta} units of stock decrement"
                ),
                ops,
            });
        }

        if let Some(site @ (Site::Primary | Site::BackupFinal)) = site {
            final_reads.push((site, r.op, visible.clone()));
        }
    }

    // After the journal drains, no acked order may be missing from the
    // last observation of either the primary or the backup image.
    for (label, site) in [("primary", Site::Primary), ("backup", Site::BackupFinal)] {
        let last = final_reads.iter().rev().find(|(s, _, _)| *s == site);
        let Some((_, read_op, visible)) = last else { continue };
        let visible: BTreeSet<u64> = visible.iter().copied().collect();
        let mut missing: Vec<OpId> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        for (&oid, &(_, _, op)) in &orders {
            if ops.acked(op) && !visible.contains(&oid) {
                missing.push(op);
                ids.push(oid);
            }
        }
        if !missing.is_empty() {
            missing.push(*read_op);
            missing.sort_unstable();
            let ids: Vec<String> = ids.iter().map(|v| v.to_string()).collect();
            anomalies.push(Anomaly {
                kind: AnomalyKind::LostOp,
                detail: format!(
                    "acked order(s) [{}] missing from final {label} read",
                    ids.join(",")
                ),
                ops: missing,
            });
        }
    }

    anomalies.sort_by_key(|a| (a.ops.first().copied().unwrap_or(OpId::NONE), a.kind.label()));
    CheckReport {
        checker: "shop",
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

    fn order(r: &Recorder, t_us: u64, order_id: u64, item: u64, quantity: u32, ack: bool) {
        let op = r.invoke(
            1,
            SimTime::from_micros(t_us),
            OpData::Order {
                order_id,
                item,
                quantity,
            },
        );
        if ack {
            r.ok(
                1,
                op,
                SimTime::from_micros(t_us + 1),
                OpData::Txn(TxnOps::default()),
            );
        }
    }

    fn scan(r: &Recorder, t_us: u64, site: Site, orders: &[u64], deltas: &[(u64, u64)]) {
        let op = r.invoke(1_000, SimTime::from_micros(t_us), OpData::ReadShop { site });
        r.ok(
            1_000,
            op,
            SimTime::from_micros(t_us),
            OpData::Shop {
                orders: orders.to_vec(),
                deltas: deltas.to_vec(),
            },
        );
    }

    #[test]
    fn covered_orders_pass() {
        let r = Recorder::enabled();
        order(&r, 10, 1, 5, 2, true);
        order(&r, 20, 2, 5, 1, true);
        // Mid-run backup image: only order 1 replicated, but its stock
        // decrement (and possibly more) is visible — a faithful prefix.
        scan(&r, 30, Site::Backup, &[1], &[(5, 3)]);
        scan(&r, 40, Site::Primary, &[1, 2], &[(5, 3)]);
        scan(&r, 50, Site::BackupFinal, &[1, 2], &[(5, 3)]);
        let report = check_all(&r.history());
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(report.ops_checked, 5);
    }

    #[test]
    fn order_without_stock_is_the_collapse() {
        let r = Recorder::enabled();
        order(&r, 10, 1, 5, 2, true);
        // Torn image: the order arrived, the stock decrement did not.
        scan(&r, 30, Site::Backup, &[1], &[(5, 0)]);
        let report = check_all(&r.history());
        assert_eq!(report.anomalies.len(), 1, "{:?}", report.anomalies);
        let a = &report.anomalies[0];
        assert_eq!(a.kind, AnomalyKind::OrderWithoutStock);
        assert_eq!(a.ops.len(), 2, "order op + scan op");
    }

    #[test]
    fn lost_acked_order_after_drain() {
        let r = Recorder::enabled();
        order(&r, 10, 1, 5, 1, true);
        order(&r, 20, 2, 6, 1, true);
        scan(&r, 40, Site::Primary, &[1, 2], &[(5, 1), (6, 1)]);
        scan(&r, 50, Site::BackupFinal, &[1], &[(5, 1)]);
        let report = check_all(&r.history());
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind == AnomalyKind::LostOp && a.detail.contains("[2]")));
    }

    #[test]
    fn phantom_orders_are_flagged() {
        let r = Recorder::enabled();
        scan(&r, 30, Site::Backup, &[77], &[]);
        let report = check_all(&r.history());
        assert_eq!(report.anomalies[0].kind, AnomalyKind::PhantomValue);
    }
}
