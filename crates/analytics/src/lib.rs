//! # tsuru-analytics — data analytics on snapshot volumes
//!
//! The paper's third demonstration step (§IV-D, Fig. 6): read-only
//! analytics running against databases opened from *snapshot* volumes at
//! the backup site, while asynchronous replication keeps updating the live
//! secondary volumes underneath. Because the snapshot group is atomic
//! across the sales and stock volumes, the analytics see one crash-
//! consistent instant of the whole business process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use tsuru_ecom::{OrderRow, StockRow, ORDERS_TABLE, STOCK_TABLE};
use tsuru_minidb::MiniDb;

/// Unit price of an item (deterministic synthetic price book: the paper's
/// demo uses an unspecified retail catalogue, so prices are derived from
/// the item id).
pub fn item_price(item: u64) -> u64 {
    10 + (item * 7919) % 90
}

/// Sales aggregate for one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemSales {
    /// Item id.
    pub item: u64,
    /// Units sold.
    pub units: u64,
    /// Revenue (units × price).
    pub revenue: u64,
    /// Units still in stock.
    pub in_stock: u64,
}

/// The analytics report computed from one consistent image.
#[derive(Debug, Clone)]
pub struct AnalyticsReport {
    /// Orders examined.
    pub order_count: u64,
    /// Total units sold.
    pub units_sold: u64,
    /// Total revenue.
    pub total_revenue: u64,
    /// Distinct items with at least one sale.
    pub items_with_sales: usize,
    /// Top sellers, by revenue (descending).
    pub top_items: Vec<ItemSales>,
    /// Inventory valuation (stock × price summed over the catalogue).
    pub inventory_value: u64,
}

impl AnalyticsReport {
    /// Render as console lines (the demo's Fig. 6 panel).
    pub fn render(&self) -> Vec<String> {
        let mut out = vec![
            format!(
                "orders={} units={} revenue={} inventory_value={}",
                self.order_count, self.units_sold, self.total_revenue, self.inventory_value
            ),
            "top sellers:".to_owned(),
        ];
        for s in &self.top_items {
            out.push(format!(
                "  item {:>4}  units {:>6}  revenue {:>8}  in-stock {:>8}",
                s.item, s.units, s.revenue, s.in_stock
            ));
        }
        out
    }
}

/// Run the full analytics suite over a (recovered) sales + stock pair.
pub fn run_analytics(sales: &MiniDb, stock: &MiniDb, top_k: usize) -> AnalyticsReport {
    let mut units: BTreeMap<u64, u64> = BTreeMap::new();
    let mut order_count = 0u64;
    for (_, buf) in sales.scan_table(ORDERS_TABLE) {
        if let Some(row) = OrderRow::decode(buf) {
            *units.entry(row.item).or_default() += row.quantity as u64;
            order_count += 1;
        }
    }
    let stock_rows: BTreeMap<u64, u64> = stock
        .scan_table(STOCK_TABLE)
        .into_iter()
        .filter_map(|(item, buf)| StockRow::decode(buf).map(|r| (item, r.quantity)))
        .collect();

    let mut per_item: Vec<ItemSales> = units
        .iter()
        .map(|(&item, &u)| ItemSales {
            item,
            units: u,
            revenue: u * item_price(item),
            in_stock: stock_rows.get(&item).copied().unwrap_or(0),
        })
        .collect();
    per_item.sort_by(|a, b| b.revenue.cmp(&a.revenue).then(a.item.cmp(&b.item)));

    let units_sold = per_item.iter().map(|s| s.units).sum();
    let total_revenue = per_item.iter().map(|s| s.revenue).sum();
    let inventory_value = stock_rows
        .iter()
        .map(|(&item, &q)| q * item_price(item))
        .sum();
    AnalyticsReport {
        order_count,
        units_sold,
        total_revenue,
        items_with_sales: per_item.len(),
        top_items: per_item.into_iter().take(top_k).collect(),
        inventory_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_minidb::DbConfig;

    fn dbs() -> (MiniDb, MiniDb) {
        let cfg = DbConfig {
            data_blocks: 512,
            wal_blocks: 64,
            checkpoint_threshold: 0.8,
        };
        (
            MiniDb::create("sales", cfg.clone()).0,
            MiniDb::create("stock", cfg).0,
        )
    }

    fn put_order(sales: &mut MiniDb, order: u64, item: u64, qty: u32) {
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

    fn put_stock(stock: &mut MiniDb, item: u64, qty: u64) {
        let tx = stock.begin();
        stock.put(tx, STOCK_TABLE, item, &StockRow { quantity: qty }.encode());
        let _ = stock.commit(tx);
    }

    #[test]
    fn aggregates_add_up() {
        let (mut sales, mut stock) = dbs();
        put_stock(&mut stock, 1, 10);
        put_stock(&mut stock, 2, 20);
        put_order(&mut sales, 100, 1, 2);
        put_order(&mut sales, 101, 1, 1);
        put_order(&mut sales, 102, 2, 5);
        let rep = run_analytics(&sales, &stock, 10);
        assert_eq!(rep.order_count, 3);
        assert_eq!(rep.units_sold, 8);
        assert_eq!(rep.items_with_sales, 2);
        assert_eq!(rep.total_revenue, 3 * item_price(1) + 5 * item_price(2));
        assert_eq!(rep.inventory_value, 10 * item_price(1) + 20 * item_price(2));
    }

    #[test]
    fn top_k_is_sorted_by_revenue_and_bounded() {
        let (mut sales, mut stock) = dbs();
        for item in 0..20u64 {
            put_stock(&mut stock, item, 100);
            put_order(&mut sales, 1000 + item, item, (item as u32 % 5) + 1);
        }
        let rep = run_analytics(&sales, &stock, 3);
        assert_eq!(rep.top_items.len(), 3);
        assert!(rep.top_items[0].revenue >= rep.top_items[1].revenue);
        assert!(rep.top_items[1].revenue >= rep.top_items[2].revenue);
    }

    #[test]
    fn empty_databases_yield_zero_report() {
        let (sales, stock) = dbs();
        let rep = run_analytics(&sales, &stock, 5);
        assert_eq!(rep.order_count, 0);
        assert_eq!(rep.total_revenue, 0);
        assert!(rep.top_items.is_empty());
        assert!(rep.render()[0].contains("orders=0"));
    }

    #[test]
    fn prices_are_deterministic_and_positive() {
        for item in 0..1000 {
            let p = item_price(item);
            assert!((10..100).contains(&p));
            assert_eq!(p, item_price(item));
        }
    }

    #[test]
    fn render_shows_top_sellers() {
        let (mut sales, mut stock) = dbs();
        put_stock(&mut stock, 7, 3);
        put_order(&mut sales, 1, 7, 2);
        let lines = run_analytics(&sales, &stock, 5).render();
        assert!(lines.iter().any(|l| l.contains("item    7")));
    }
}
