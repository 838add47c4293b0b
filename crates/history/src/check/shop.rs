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

use crate::check::{keep_last, sorted, Anomaly, AnomalyKind, CheckReport, OpTable};
use crate::record::{OpData, OpId, Phase, Record, Site};

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
/// decrement 0). `sold` yields `(item, units)` ascending by item;
/// `decremented` answers an item's decrement. Returns the items that break
/// the rule, ascending.
///
/// Both judges call this — this module on what clients observed, and
/// `tsuru_ecom::check_cross_db` on a recovered pair of databases.
pub fn oversold(
    sold: impl IntoIterator<Item = (u64, u64)>,
    decremented: impl Fn(u64) -> u64,
) -> Vec<Oversold> {
    sold.into_iter()
        .filter_map(|(item, sold)| {
            let decremented = decremented(item);
            (sold > decremented).then_some(Oversold {
                item,
                sold,
                decremented,
            })
        })
        .collect()
}

/// A placed order: `(order_id, item, quantity, invoke op)`.
type Placed = (u64, u64, u32, OpId);

/// Check every shop-image observation in `records` (`ops` indexes it).
pub fn check(records: &[Record], ops: &OpTable<'_>) -> CheckReport {
    let placed = |r: &Record| match r.data {
        OpData::Order {
            order_id,
            item,
            quantity,
        } if r.phase == Phase::Invoke => Some((order_id, item, quantity, r.op)),
        _ => None,
    };
    // Every placed order, ascending by id; an id placed twice keeps its
    // last placement.
    let mut orders: Vec<Placed> = Vec::with_capacity(records.iter().filter_map(placed).count());
    orders.extend(records.iter().filter_map(placed));
    let mut ops_checked = orders.len() as u64;
    orders.sort_by_key(|o| o.0);
    keep_last(&mut orders, |o| o.0);
    let order = |oid: u64| {
        let i = orders.binary_search_by_key(&oid, |o| o.0).ok()?;
        Some(orders[i])
    };

    let mut anomalies = Vec::new();
    let mut last_read: [Option<(OpId, &[u64])>; 2] = [None, None];
    // Scratch reused across observations: units sold per item, and the
    // observed decrements as `(item, position, units)`.
    let mut sold: Vec<(u64, u64)> = Vec::new();
    let mut observed: Vec<(u64, usize, u64)> = Vec::new();

    for r in records {
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
        sold.clear();
        sold.reserve(visible.len());
        for &oid in visible {
            match order(oid) {
                None => anomalies.push(Anomaly {
                    kind: AnomalyKind::PhantomValue,
                    detail: format!("image shows order {oid} no client ever placed"),
                    ops: vec![r.op],
                }),
                Some((_, item, quantity, _)) => sold.push((item, quantity as u64)),
            }
        }
        sold.sort_unstable();
        sold.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        // An item listed twice in one observation counts as its last entry.
        observed.clear();
        observed.extend(deltas.iter().enumerate().map(|(i, &(item, units))| (item, i, units)));
        observed.sort_unstable();
        keep_last(&mut observed, |d| d.0);
        let decremented = |item| {
            let i = observed.binary_search_by_key(&item, |d| d.0);
            i.map_or(0, |i| observed[i].2)
        };
        for Oversold {
            item,
            sold: units,
            decremented: delta,
        } in oversold(sold.iter().copied(), decremented)
        {
            // The culprits: the visible orders of this item, and the read.
            let mut ops: Vec<OpId> = visible
                .iter()
                .filter_map(|&oid| order(oid))
                .filter(|o| o.1 == item)
                .map(|o| o.3)
                .collect();
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

        match site {
            Some(Site::Primary) => last_read[0] = Some((r.op, visible)),
            Some(Site::BackupFinal) => last_read[1] = Some((r.op, visible)),
            _ => {}
        }
    }

    // After the journal drains, no acked order may be missing from the
    // last observation of either the primary or the backup image.
    let mut scratch: Vec<u64> = Vec::new();
    for (label, last) in ["primary", "backup"].into_iter().zip(last_read) {
        let Some((read_op, visible)) = last else { continue };
        let seen = sorted(visible, &mut scratch);
        let mut missing: Vec<OpId> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        for &(oid, _, _, op) in &orders {
            if ops.acked(op) && seen.binary_search(&oid).is_err() {
                missing.push(op);
                ids.push(oid);
            }
        }
        if !missing.is_empty() {
            missing.push(read_op);
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
    use crate::record::{History, Recorder, TxnOps};
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
    fn oversold_item_names_its_visible_orders_and_the_read() {
        let r = Recorder::enabled();
        order(&r, 10, 1, 5, 1, true);
        order(&r, 20, 2, 6, 1, true);
        order(&r, 30, 3, 5, 1, true);
        order(&r, 40, 4, 5, 1, true);
        // Item 5: orders 3 and 1 visible (order 4 is not), no decrement;
        // item 6 is covered.
        scan(&r, 50, Site::Backup, &[3, 2, 1], &[(6, 1)]);
        let h = r.history();
        let op_of = |order_id| {
            let placed = h.iter().find(|rec| {
                matches!(rec.data, OpData::Order { order_id: id, .. } if id == order_id)
            });
            placed.expect("order placed").op
        };
        let read = h.last().expect("scan recorded").op;
        let report = check_all(&h);
        assert_eq!(report.anomalies.len(), 1, "{:?}", report.anomalies);
        let a = &report.anomalies[0];
        assert_eq!(a.kind, AnomalyKind::OrderWithoutStock);
        assert!(a.detail.starts_with("item 5: image shows 2 units"), "{}", a.detail);
        assert_eq!(a.ops, [op_of(1), op_of(3), read]);
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
