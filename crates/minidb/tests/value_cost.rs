//! The cost is pinned where it is paid: a value is copied when something
//! keeps it, never when it is looked at (DESIGN.md §24), and a row or a
//! redo record costs no allocation of its own (DESIGN.md §26).
//!
//! Counted with `tsuru_allocs` (as in `catch_up.rs`): a
//! transaction's values go into the database's reused write-set buffer and
//! from there into the leaf that holds them; a flush fills the phase list
//! and request vector the driver handed back, and the log's writer mints
//! its tail image into the one the array let go of (DESIGN.md §23);
//! recovery decodes the log into one buffer; reads borrow; a scan
//! allocates for its result vector's growth, not per row.

use tsuru_allocs::{allocations, CountingAlloc};
use tsuru_minidb::{DbConfig, DbVol, IoPlan, IoRequest, LogFlusher, MiniDb, Progress, TableId};
use tsuru_storage::{BlockDeviceMut, MemDevice, BLOCK_SIZE};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

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
/// stage.
fn order(db: &mut MiniDb, item: u64) -> Option<u64> {
    let tx = db.begin();
    let have = db.get(tx, T, item).expect("seeded");
    let left = u64::from_le_bytes(have.try_into().unwrap()).wrapping_sub(1);
    db.put(tx, T, item, &left.to_le_bytes());
    db.stage(tx)
}

/// Once the write-set buffer and the log's scratch have been through one
/// transaction, an order-shaped one allocates nothing: its value is copied
/// into the write-set's bytes, encoded from there, and copied over the old
/// value in its leaf, which has room for it. (The handful of records here
/// stay inside one log block; sealing a full block is the flush path's
/// allocation, not the transaction's.)
#[test]
fn an_order_shaped_transaction_allocates_nothing() {
    let mut db = seeded(100);
    order(&mut db, 7); // warm-up
    for item in [7, 8, 7, 99] {
        let (n, lsn) = allocations(|| order(&mut db, item));
        assert!(lsn.is_some());
        assert_eq!(n, 0, "item {item}");
    }
    // A transaction that writes nothing allocates nothing, and hands the
    // write-set on all the same.
    let (n, _) = allocations(|| {
        let tx = db.begin();
        let _ = db.get(tx, T, 3);
        db.stage(tx)
    });
    assert_eq!(n, 0);
    assert_eq!(allocations(|| order(&mut db, 3)).0, 0);
}

/// One group commit, the way the shop's driver runs it: stage, flush, put
/// the plan in flight, hand the phase list back, issue the phase's writes
/// and hand the vector back, acknowledge every write, release the waiter.
/// Issuing moves the writes into `in_flight`, which stands for the array:
/// it holds the images until the caller lets go of them. Returns how many
/// writes the group made and where the first went.
fn group(
    db: &mut MiniDb,
    flusher: &mut LogFlusher<u64>,
    item: u64,
    in_flight: &mut Vec<IoRequest>,
) -> (usize, Option<(DbVol, u64)>) {
    let lsn = order(db, item).expect("a write");
    flusher.enqueue(lsn, item);
    let mut plan = db.flush();
    let (generation, mut phase) = flusher.begin_flush(db.last_lsn(), &mut plan);
    db.recycle_plan(plan);
    let writes = phase.len();
    let first = phase.first().map(|io| (io.vol, io.lba));
    in_flight.append(&mut phase); // issued
    db.recycle_phase(phase);
    for _ in 0..writes {
        match flusher.write_done(generation, true) {
            Progress::Pending | Progress::Done(true) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(flusher.pop_released(), Some((item, true)));
    (writes, first)
}

/// A database whose vectors have been round once, with its flusher.
fn flushing() -> (MiniDb, LogFlusher<u64>) {
    let db = seeded(100);
    let flusher = LogFlusher::new(db.last_lsn());
    (db, flusher)
}

/// A group commit in steady state allocates nothing. Its one write is the
/// image of the log's tail block, and the log's writer mints it into the
/// previous one, which the array let go of once it was written.
#[test]
fn a_steady_state_group_commit_allocates_nothing() {
    let (mut db, mut flusher) = flushing();
    let mut in_flight = Vec::with_capacity(4);
    for item in [1, 2] {
        // Warm-up: the vectors and the writer's ring go round once.
        group(&mut db, &mut flusher, item, &mut in_flight);
        in_flight.clear();
    }
    for item in [3, 4, 3, 50] {
        let (n, writes) = allocations(|| {
            let writes = group(&mut db, &mut flusher, item, &mut in_flight);
            in_flight.clear(); // written: the array lets go of the image
            writes
        });
        assert_eq!(
            writes,
            (1, Some((DbVol::Wal, 0))),
            "one image of the tail block"
        );
        assert_eq!(n, 0, "item {item}: the tail image is re-minted");
    }
}

/// While K tail images are in flight, nothing can be minted into: each
/// group commit allocates exactly its image. Once they land, the next
/// group re-mints one of them and the writer lets the rest go, so group
/// commits allocate nothing again.
#[test]
fn images_in_flight_cost_one_allocation_each_until_they_land() {
    const K: usize = 12;
    let (mut db, mut flusher) = flushing();
    let mut in_flight = Vec::with_capacity(K + 1);
    let mut round = |db: &mut MiniDb, flusher: &mut LogFlusher<u64>, counted: bool| {
        // One image in flight already, then K more.
        group(db, flusher, 1, &mut in_flight);
        for i in 0..K as u64 {
            let (n, _) = allocations(|| group(db, flusher, 2 + i % 3, &mut in_flight));
            assert!(
                !counted || n == 1,
                "image {i} of {K} in flight: {n} allocations"
            );
        }
        assert_eq!(in_flight.len(), K + 1);
        in_flight.clear(); // they all land
        for item in [5, 6, 7] {
            let (n, _) = allocations(|| {
                let writes = group(db, flusher, item, &mut in_flight);
                in_flight.clear();
                writes
            });
            assert!(
                !counted || n == 0,
                "after landing, item {item}: {n} allocations"
            );
        }
    };
    round(&mut db, &mut flusher, false); // warm-up: the ring grows to K + 1
    round(&mut db, &mut flusher, true);
}

/// The writer's ring holds no idle images: when the only holder is the
/// volume, which keeps the last image of each block until the next one
/// lands there, successive tail images cycle between two allocations —
/// also across the log filling blocks, whose sealed images stay out of it.
#[test]
fn tail_images_cycle_among_at_most_two_allocations() {
    let (mut db, mut flusher) = flushing();
    let mut volume = std::collections::BTreeMap::new();
    let mut tails = std::collections::BTreeSet::new();
    for item in 0..200u64 {
        let mut issued = Vec::new();
        group(&mut db, &mut flusher, item % 100, &mut issued);
        if db.log_end() % BLOCK_SIZE != 0 {
            let tail = issued.last().expect("the tail block's image");
            tails.insert(tail.data.as_ptr() as usize);
        }
        for io in issued {
            volume.insert(io.lba, io.data); // lands over the block's last image
        }
    }
    assert!(db.log_end() > 2 * BLOCK_SIZE, "the log filled blocks");
    assert!(
        tails.len() <= 2,
        "{} allocations for 200 tail images",
        tails.len()
    );
}

/// Recovery decodes the whole log into one buffer — the operations of all
/// records in one vector, their values in one byte vector — and copies each
/// value once, into its leaf. A log twice as long over the same pages costs
/// one more growth of each of the buffer's three vectors, not an allocation
/// per record: at most this many more.
const RECOVER_GROWTH: u64 = 4;

#[test]
fn recovering_a_longer_log_over_the_same_pages_allocates_a_constant_more() {
    let cost = |records: u64| {
        let cfg = DbConfig::default();
        let (mut db, format) = MiniDb::create("r", cfg.clone());
        let mut wal = MemDevice::new(cfg.wal_blocks);
        let mut data = MemDevice::new(cfg.data_blocks);
        let mut apply = |plan: IoPlan| {
            for io in plan.phases.iter().flatten() {
                match io.vol {
                    DbVol::Wal => wal.write_block(io.lba, &io.data),
                    DbVol::Data => data.write_block(io.lba, &io.data),
                }
            }
        };
        apply(format);
        let tx = db.begin();
        for k in 0..100u64 {
            db.put(tx, T, k, &k.to_le_bytes());
        }
        let _ = db.stage(tx);
        apply(db.checkpoint());
        for i in 0..records {
            let tx = db.begin();
            db.put(tx, T, i % 100, &i.to_le_bytes());
            apply(db.commit(tx));
        }
        assert_eq!(db.stats().checkpoints, 2, "one epoch of log over the pages");
        let (n, opened) = allocations(|| MiniDb::recover("r", &wal, &data, cfg.clone()));
        let (rec, report) = opened.expect("recovers");
        assert_eq!(report.redo_records as u64, records);
        assert_eq!(
            rec.get_committed(T, (records - 1) % 100),
            Some(&(records - 1).to_le_bytes()[..])
        );
        n
    };
    let (once, twice) = (cost(200), cost(400));
    assert!(
        twice <= once + RECOVER_GROWTH,
        "recovering 200 records allocated {once} times, 400 records {twice}"
    );
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
