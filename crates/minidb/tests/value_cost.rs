//! The cost is pinned where it is paid: a value is copied when something
//! keeps it, never when it is looked at (DESIGN.md §24).
//!
//! Counted with the allocator `catch_up.rs` uses (`support/mod.rs`): the one
//! copy a transaction makes of a value it puts is the `Vec` the tree ends up
//! holding; reads borrow; a scan allocates for its result vector's growth,
//! not per row.

use tsuru_minidb::{DbConfig, MiniDb, TableId};

mod support;
use support::allocations;

const T: TableId = TableId(1);

/// A database holding `rows` 8-byte rows, committed in one transaction.
fn seeded(rows: u64) -> MiniDb {
    let (mut db, _) = MiniDb::create("c", DbConfig::default());
    let tx = db.begin();
    for k in 0..rows {
        db.put(tx, T, k, &k.to_le_bytes());
    }
    let _ = db.commit(tx);
    db
}

/// The order's stock decrement: read a row, put one of the same size back,
/// stage. Once the write-set vector and the log's scratch have been through
/// one transaction, the only allocation left is the value the tree keeps.
/// (The handful of records here stay inside one log block; sealing a full
/// block is the flush path's allocation, not the transaction's.)
#[test]
fn an_order_shaped_transaction_allocates_the_value_the_tree_keeps() {
    let mut db = seeded(100);
    let order = |db: &mut MiniDb, item: u64| {
        let tx = db.begin();
        let have = db.get(tx, T, item).expect("seeded");
        let left = u64::from_le_bytes(have.try_into().unwrap()).wrapping_sub(1);
        db.put(tx, T, item, &left.to_le_bytes());
        db.stage(tx)
    };
    order(&mut db, 7); // warm-up
    for item in [7, 8, 7, 99] {
        let (n, lsn) = allocations(|| order(&mut db, item));
        assert!(lsn.is_some());
        assert_eq!(n, 1, "item {item}");
    }
    // A transaction that writes nothing allocates nothing, and hands the
    // write-set vector on all the same.
    let (n, _) = allocations(|| {
        let tx = db.begin();
        let _ = db.get(tx, T, 3);
        db.stage(tx)
    });
    assert_eq!(n, 0);
    assert_eq!(allocations(|| order(&mut db, 3)).0, 1);
}

#[test]
fn point_reads_borrow() {
    let mut db = seeded(1_000);
    let tx = db.begin();
    db.put(tx, T, 5, b"own write");
    db.delete(tx, T, 6);
    let (n, seen) = allocations(|| {
        let mut seen = 0usize;
        for k in 0..1_100 {
            seen += db.get(tx, T, k).map_or(0, <[u8]>::len);
            seen += db.get_committed(T, k).map_or(0, <[u8]>::len);
        }
        seen
    });
    assert_eq!(n, 0);
    assert_eq!(seen, 998 * 8 + 9 + 1_000 * 8);
}

/// 10 000 rows: the result vector doubles its way up (at most ⌈log₂ n⌉ + 1
/// growths), and no row costs an allocation of its own.
#[test]
fn a_table_scan_allocates_for_its_result_vector_only() {
    let db = seeded(10_000);
    let (n, rows) = allocations(|| db.scan_table(T).len());
    assert_eq!(rows, 10_000);
    assert!(
        (1..=15).contains(&n),
        "{n} allocations for a 10 000-row scan"
    );
    assert_eq!(allocations(|| db.scan_table(TableId(9)).len()), (0, 0));
}
