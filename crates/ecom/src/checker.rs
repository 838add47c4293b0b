//! Cross-database consistency checking — the business-level collapse
//! detector.
//!
//! The paper's §I scenario: after recovering a backup, "some transaction
//! data are included in the inventory backup data but not in the payment
//! backup data, and vice versa". With the app-level ordering used here
//! (stock commit strictly before sales commit), any write-order-faithful
//! backup satisfies: *for every item, units decremented from stock ≥ units
//! sold in recorded orders*. An order whose stock decrement is missing is a
//! collapse.

use std::collections::BTreeMap;

use tsuru_history::check::shop::oversold;
pub use tsuru_history::check::shop::Oversold;
use tsuru_minidb::MiniDb;
use tsuru_sim::SimTime;

use crate::model::{OrderRow, StockRow, ORDERS_TABLE, STOCK_TABLE};

/// Outcome of the cross-database check.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Items examined.
    pub items_checked: usize,
    /// Orders found in the sales database.
    pub orders_found: u64,
    /// Items where sales exceed the stock decrement (collapse evidence).
    pub violations: Vec<Oversold>,
}

impl InvariantReport {
    /// True when no violation was found.
    pub fn consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Units sold per item according to the orders table, and how many order
/// rows there are.
pub(crate) fn units_sold(sales: &MiniDb) -> (BTreeMap<u64, u64>, u64) {
    let mut sold: BTreeMap<u64, u64> = BTreeMap::new();
    let orders = sales.scan_table(ORDERS_TABLE);
    for (_, buf) in &orders {
        if let Some(row) = OrderRow::decode(buf) {
            *sold.entry(row.item).or_default() += row.quantity as u64;
        }
    }
    (sold, orders.len() as u64)
}

/// The decrement one stock row shows against the initial level.
pub(crate) fn decrement_of(row: &[u8], initial_stock: u64) -> Option<u64> {
    Some(initial_stock.saturating_sub(StockRow::decode(row)?.quantity))
}

/// Units decremented per item according to the stock table, and how many
/// item rows there are.
pub(crate) fn units_decremented(stock: &MiniDb, initial_stock: u64) -> (BTreeMap<u64, u64>, usize) {
    let items = stock.scan_table(STOCK_TABLE);
    let decremented = items
        .iter()
        .filter_map(|(item, buf)| Some((*item, decrement_of(buf, initial_stock)?)))
        .collect();
    (decremented, items.len())
}

/// Check the recovered pair of databases against the initial stock level.
pub fn check_cross_db(sales: &MiniDb, stock: &MiniDb, initial_stock: u64) -> InvariantReport {
    let (sold, orders_found) = units_sold(sales);
    let (decremented, items_checked) = units_decremented(stock, initial_stock);
    InvariantReport {
        items_checked,
        orders_found,
        violations: oversold(sold, |item| decremented.get(&item).copied().unwrap_or(0)),
    }
}

/// Business-level recovery-point metrics: which committed orders survived
/// in a recovered sales database.
#[derive(Debug, Clone)]
pub struct OrderRpo {
    /// Orders committed at the main site (acknowledged to clients).
    pub committed: u64,
    /// Of those, orders present in the recovered database.
    pub recovered: u64,
    /// Committed orders missing from the backup.
    pub lost: u64,
    /// Commit time of the newest recovered order (`None` if none).
    pub newest_recovered: Option<SimTime>,
}

/// Compare the primary's commit log with a recovered sales database.
pub fn order_rpo(committed_log: &[(u64, SimTime)], recovered_sales: &MiniDb) -> OrderRpo {
    let mut recovered = 0u64;
    let mut newest: Option<SimTime> = None;
    for (order_id, t) in committed_log {
        if recovered_sales
            .get_committed(ORDERS_TABLE, *order_id)
            .is_some()
        {
            recovered += 1;
            newest = Some(newest.map_or(*t, |n: SimTime| n.max(*t)));
        }
    }
    let committed = committed_log.len() as u64;
    OrderRpo {
        committed,
        recovered,
        lost: committed - recovered,
        newest_recovered: newest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_minidb::{DbConfig, MiniDb};

    fn dbs() -> (MiniDb, MiniDb) {
        let cfg = DbConfig {
            data_blocks: 512,
            wal_blocks: 64,
            checkpoint_threshold: 0.8,
        };
        let (sales, _) = MiniDb::create("sales", cfg.clone());
        let (stock, _) = MiniDb::create("stock", cfg);
        (sales, stock)
    }

    fn seed(stock: &mut MiniDb, items: u64, initial: u64) {
        let tx = stock.begin();
        for i in 0..items {
            stock.put(tx, STOCK_TABLE, i, &StockRow { quantity: initial }.encode());
        }
        let _ = stock.commit(tx);
    }

    fn sell(sales: &mut MiniDb, stock: Option<&mut MiniDb>, order: u64, item: u64, qty: u32) {
        if let Some(stock) = stock {
            let cur = StockRow::decode(stock.get_committed(STOCK_TABLE, item).unwrap())
                .unwrap()
                .quantity;
            let tx = stock.begin();
            stock.put(
                tx,
                STOCK_TABLE,
                item,
                &StockRow {
                    quantity: cur - qty as u64,
                }
                .encode(),
            );
            let _ = stock.commit(tx);
        }
        let tx = sales.begin();
        sales.put(
            tx,
            ORDERS_TABLE,
            order,
            &OrderRow {
                item,
                quantity: qty,
                client: 0,
            }
            .encode(),
        );
        let _ = sales.commit(tx);
    }

    #[test]
    fn faithful_pair_is_consistent() {
        let (mut sales, mut stock) = dbs();
        seed(&mut stock, 10, 100);
        sell(&mut sales, Some(&mut stock), 1, 3, 2);
        sell(&mut sales, Some(&mut stock), 2, 3, 1);
        sell(&mut sales, Some(&mut stock), 3, 7, 3);
        let rep = check_cross_db(&sales, &stock, 100);
        assert!(rep.consistent(), "{rep:?}");
        assert_eq!(rep.orders_found, 3);
        assert_eq!(rep.items_checked, 10);
    }

    #[test]
    fn stock_ahead_of_sales_is_allowed() {
        // Stock decremented but order not yet recorded: a legal in-flight
        // prefix.
        let (sales, mut stock) = dbs();
        seed(&mut stock, 5, 100);
        let tx = stock.begin();
        stock.put(tx, STOCK_TABLE, 1, &StockRow { quantity: 95 }.encode());
        let _ = stock.commit(tx);
        let rep = check_cross_db(&sales, &stock, 100);
        assert!(rep.consistent());
        assert_eq!(rep.orders_found, 0);
    }

    #[test]
    fn order_without_decrement_is_a_collapse() {
        let (mut sales, mut stock) = dbs();
        seed(&mut stock, 5, 100);
        // Order recorded, stock untouched — impossible under write-order
        // fidelity.
        sell(&mut sales, None, 1, 2, 3);
        let rep = check_cross_db(&sales, &stock, 100);
        assert!(!rep.consistent());
        assert_eq!(
            rep.violations,
            vec![Oversold {
                item: 2,
                sold: 3,
                decremented: 0
            }]
        );
    }

    #[test]
    fn partial_decrement_is_also_flagged() {
        let (mut sales, mut stock) = dbs();
        seed(&mut stock, 5, 100);
        sell(&mut sales, Some(&mut stock), 1, 2, 2); // consistent
        sell(&mut sales, None, 2, 2, 2); // second order missing decrement
        let rep = check_cross_db(&sales, &stock, 100);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].sold, 4);
        assert_eq!(rep.violations[0].decremented, 2);
    }

    #[test]
    fn order_rpo_counts_survivors() {
        let (mut sales, mut stock) = dbs();
        seed(&mut stock, 5, 100);
        sell(&mut sales, Some(&mut stock), 1, 0, 1);
        sell(&mut sales, Some(&mut stock), 2, 1, 1);
        let log = vec![
            (1, SimTime::from_secs(1)),
            (2, SimTime::from_secs(2)),
            (3, SimTime::from_secs(3)), // committed at primary, not in backup
        ];
        let rpo = order_rpo(&log, &sales);
        assert_eq!(rpo.committed, 3);
        assert_eq!(rpo.recovered, 2);
        assert_eq!(rpo.lost, 1);
        assert_eq!(rpo.newest_recovered, Some(SimTime::from_secs(2)));
    }
}
