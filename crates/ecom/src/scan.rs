//! Image-scan observations: read a database (live or recovered from a
//! backup image) and record what a client would see into a history.
//!
//! These helpers work on plain [`MiniDb`] handles so the same code
//! observes the live primary state, a mid-run recovered backup image,
//! and the post-drain backup image — only the [`Site`] tag differs.
//! They are the "long analytics scan" of the paper's use case D3,
//! promoted to a first-class history participant.

use tsuru_history::{OpData, Recorder, Site};
use tsuru_minidb::MiniDb;
use tsuru_sim::SimTime;

use crate::append::{list_at, LIST_KEYS};
use crate::bank::balances;
use crate::checker::decrement_of;
use crate::model::{OrderRow, ORDERS_TABLE, STOCK_TABLE};

/// Record a full shop observation: visible orders plus per-item stock
/// decrements (`initial_stock` − observed quantity). One op.
pub fn record_shop_scan(
    hist: &Recorder,
    process: u32,
    t: SimTime,
    site: Site,
    sales: &MiniDb,
    stock: &MiniDb,
    initial_stock: u64,
) {
    if !hist.is_enabled() {
        return;
    }
    let op = hist.invoke(process, t, OpData::ReadShop { site });
    let orders: Vec<u64> = sales
        .scan_table(ORDERS_TABLE)
        .iter()
        .filter(|(_, b)| OrderRow::decode(b).is_some())
        .map(|(id, _)| *id)
        .collect();
    let deltas: Vec<(u64, u64)> = stock
        .scan_table(STOCK_TABLE)
        .iter()
        .filter_map(|(item, b)| {
            let sold = decrement_of(b, initial_stock)?;
            (sold > 0).then_some((*item, sold))
        })
        .collect();
    hist.ok(process, op, t, OpData::Shop { orders, deltas });
}

/// Record a full balance observation of the accounts table. One op.
pub fn record_bank_scan(hist: &Recorder, process: u32, t: SimTime, site: Site, stock: &MiniDb) {
    if !hist.is_enabled() {
        return;
    }
    let op = hist.invoke(process, t, OpData::ReadBalances { site });
    let (accounts, total) = balances(stock);
    hist.ok(process, op, t, OpData::Balances { accounts, total });
}

/// Record every append list in the image, one op per key (absent rows
/// read as the empty list).
pub fn record_list_scan(hist: &Recorder, process: u32, t: SimTime, site: Site, sales: &MiniDb) {
    if !hist.is_enabled() {
        return;
    }
    for key in 0..LIST_KEYS {
        let op = hist.invoke(process, t, OpData::ReadList { key, site });
        let values = list_at(sales, key);
        hist.ok(process, op, t, OpData::List { key, values });
    }
}
