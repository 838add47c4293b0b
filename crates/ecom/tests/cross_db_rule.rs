//! The cross-database rule has one statement (`tsuru_history::check::shop::
//! oversold`) and two judges that call it: `check_cross_db` over a pair of
//! recovered databases, and the history shop checker over what a client
//! scanning the same pair observed. On any image — orders present or not
//! yet arrived, their stock decrements whole, partial or missing — the two
//! must name the same oversold items.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tsuru_ecom::scan::record_shop_scan;
use tsuru_ecom::{check_cross_db, OrderRow, StockRow, ORDERS_TABLE, STOCK_TABLE};
use tsuru_history::check::shop;
use tsuru_history::{process, AnomalyKind, OpData, OpTable, Recorder, Site};
use tsuru_minidb::{DbConfig, MiniDb};
use tsuru_sim::SimTime;

const ITEMS: u64 = 6;
const INITIAL_STOCK: u64 = 1_000;

/// One order a client placed and how much of it the image holds: `(item,
/// quantity, the order row reached the sales image, units of its stock
/// decrement that reached the stock image)`.
fn placed() -> impl Strategy<Value = (u64, u32, bool, u32)> {
    (0..ITEMS, 1u32..=3, any::<bool>(), 0u32..=3)
        .prop_map(|(item, quantity, in_sales, d)| (item, quantity, in_sales, d.min(quantity)))
}

fn db(name: &str) -> MiniDb {
    let cfg = DbConfig {
        data_blocks: 512,
        wal_blocks: 64,
        checkpoint_threshold: 0.8,
    };
    MiniDb::create(name, cfg).0
}

/// The item an `order-without-stock` anomaly names (`"item 3: image …"`).
fn item_of(detail: &str) -> u64 {
    let rest = detail.strip_prefix("item ").expect("names the item first");
    let (item, _) = rest.split_once(':').expect("item id ends at a colon");
    item.parse().expect("item id is a number")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn both_judges_name_the_same_oversold_items(
        orders in prop::collection::vec(placed(), 0..24)
    ) {
        let (mut sales, mut stock) = (db("sales"), db("stock"));
        let hist = Recorder::enabled();
        let mut on_hand = vec![INITIAL_STOCK; ITEMS as usize];

        let tx = sales.begin();
        for (i, &(item, quantity, in_sales, decremented)) in orders.iter().enumerate() {
            let (order_id, t) = (i as u64 + 1, SimTime::from_micros(i as u64));
            hist.invoke(1, t, OpData::Order { order_id, item, quantity });
            on_hand[item as usize] -= decremented as u64;
            if in_sales {
                let row = OrderRow { item, quantity, client: 1 };
                sales.put(tx, ORDERS_TABLE, order_id, &row.encode());
            }
        }
        let _ = sales.commit(tx);
        let tx = stock.begin();
        for (item, &quantity) in on_hand.iter().enumerate() {
            stock.put(tx, STOCK_TABLE, item as u64, &StockRow { quantity }.encode());
        }
        let _ = stock.commit(tx);

        let by_databases: BTreeSet<u64> = check_cross_db(&sales, &stock, INITIAL_STOCK)
            .violations
            .iter()
            .map(|v| v.item)
            .collect();

        let (reader, t) = (process::BACKUP_READER, SimTime::from_millis(1));
        record_shop_scan(&hist, reader, t, Site::Backup, &sales, &stock, INITIAL_STOCK);
        let history = hist.history();
        let report = shop::check(&history, &OpTable::new(&history));
        prop_assert!(
            report.anomalies.iter().all(|a| a.kind == AnomalyKind::OrderWithoutStock),
            "a mid-run backup image can only be oversold: {:?}",
            report.anomalies
        );
        let by_history: BTreeSet<u64> =
            report.anomalies.iter().map(|a| item_of(&a.detail)).collect();

        prop_assert_eq!(&by_databases, &by_history);
        // And both agree with the rule worked out by hand from the script.
        let expected: BTreeSet<u64> = (0..ITEMS)
            .filter(|&item| {
                let (mut sold, mut covered) = (0u64, 0u64);
                for &(of, quantity, in_sales, decremented) in &orders {
                    if of == item {
                        sold += if in_sales { quantity as u64 } else { 0 };
                        covered += decremented as u64;
                    }
                }
                sold > covered
            })
            .collect();
        prop_assert_eq!(&by_databases, &expected);
    }
}
