//! Follow ≡ reopen: a database kept current with `MiniDb::catch_up` is, after
//! every block that reaches its volumes, exactly what `MiniDb::recover` of
//! the same two images returns — the same `Ok`, or the same `RecoveryError`.
//!
//! `catch_up` redoes only the log records that landed since the database
//! was opened; its caller vouches for everything else `recover` reads
//! (`MiniDb::opened_from`, `MiniDb::log_end`). [`Follower`] below is that
//! caller, written out as the rule states it, and the oracle is `recover`
//! from scratch after *every* block write of a random workload — commits,
//! group flushes, checkpoints, vacuums — replayed three ways:
//!
//! - in write order, and with each WAL block first landing torn (its first
//!   half new, the rest as it was);
//! - with the WAL and the data volume advanced independently (the naive
//!   per-volume tear: each volume a prefix of its own writes, the pair no
//!   prefix of anything);
//! - with hostile steps mixed in — a stale block written again, a byte
//!   flipped — which is where the `RecoveryError` variants come from: two
//!   honest prefixes of a database that never overwrites a live page
//!   always open.
//!
//! Mutation checks (done by hand when this test was written): with the
//! tail-prefix comparison taken out of `scan_wal_from`, the independent and
//! the hostile replay fail in their first two cases; with `opened_from`
//! forgetting the superblock all three fail in their first; with it
//! forgetting the loaded pages the hostile replay fails in its third and
//! the forged `Page` image in `every_recovery_error_variant_…`.

use proptest::prelude::*;
use tsuru_allocs::{allocations, CountingAlloc};
use tsuru_minidb::{
    encode_record, scan_wal_from, DbConfig, DbVol, IoRequest, MiniDb, RecoveryError,
    RecoveryReport, Superblock, TableId, WalOp, WalRecord,
};
use tsuru_storage::{BlockDevice, BlockDeviceMut, MemDevice, BLOCK_SIZE};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const T: TableId = TableId(3);
const CFG: DbConfig = DbConfig {
    data_blocks: 512,
    wal_blocks: 4,
    checkpoint_threshold: 0.8,
};

/// One transaction: `(key, Some((fill, len)))` puts `len` bytes of `fill`,
/// `(key, None)` deletes.
type Txn = Vec<(u64, Option<(u8, usize)>)>;

#[derive(Debug, Clone)]
enum Step {
    /// Stage these transactions, flush once.
    Group(Vec<Txn>),
    Checkpoint,
    Vacuum,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let op = (0u64..40, prop::option::of((any::<u8>(), 0usize..600)));
    let txn = prop::collection::vec(op, 0..5);
    prop_oneof![
        12 => prop::collection::vec(txn, 1..4).prop_map(Step::Group),
        1 => Just(Step::Checkpoint),
        1 => Just(Step::Vacuum),
    ]
}

/// Run the workload on a live database; the block writes it asks for, in
/// the order a faithful storage performs them (the format image first).
fn block_stream(steps: &[Step]) -> Vec<IoRequest> {
    let (mut db, plan) = MiniDb::create("live", CFG);
    let mut out: Vec<IoRequest> = plan.phases.into_iter().flatten().collect();
    for step in steps {
        let plan = match step {
            Step::Group(txns) => {
                for ops in txns {
                    let tx = db.begin();
                    for (k, v) in ops {
                        match v {
                            Some((fill, len)) => db.put(tx, T, *k, &vec![*fill; *len]),
                            None => db.delete(tx, T, *k),
                        }
                    }
                    db.stage(tx);
                }
                db.flush()
            }
            Step::Checkpoint => db.checkpoint(),
            Step::Vacuum => db.vacuum(),
        };
        out.extend(plan.phases.into_iter().flatten());
    }
    out
}

type Opened = Result<(MiniDb, RecoveryReport), RecoveryError>;

/// Everything observable about an opened database (errors by their text).
fn observe(db: &Opened) -> String {
    match db {
        Err(e) => format!("{e:?}"),
        Ok((db, report)) => format!(
            "{report:?} last_lsn={} log_end={} nodes={} {:?}",
            db.last_lsn(),
            db.log_end(),
            db.tree_nodes(),
            db.scan_table(T)
        ),
    }
}

/// The caller `catch_up`'s contract describes.
struct Follower {
    wal: MemDevice,
    data: MemDevice,
    db: Opened,
    recovers: u32,
    catch_ups: u32,
}

impl Follower {
    fn new() -> Self {
        let (wal, data) = (
            MemDevice::new(CFG.wal_blocks),
            MemDevice::new(CFG.data_blocks),
        );
        let db = MiniDb::recover("f", &wal, &data, CFG);
        Follower {
            wal,
            data,
            db,
            recovers: 0,
            catch_ups: 0,
        }
    }

    /// One block reaches a volume; bring `db` current by the rule.
    fn write(&mut self, vol: DbVol, lba: u64, bytes: &[u8]) {
        let reopen = match (&self.db, vol) {
            (Err(_), _) => true,
            (Ok((db, _)), DbVol::Wal) => lba < (db.log_end() / BLOCK_SIZE) as u64,
            (Ok((db, _)), DbVol::Data) => db.opened_from(lba),
        };
        match vol {
            DbVol::Wal => self.wal.write_block(lba, bytes),
            DbVol::Data => self.data.write_block(lba, bytes),
        }
        let caught_up = match &mut self.db {
            Ok((db, report)) if !reopen && vol == DbVol::Wal => {
                self.catch_ups += 1;
                db.catch_up(&self.wal, &mut |_, _, _, _| {}).map(|redone| {
                    let redone = redone?;
                    report.wal_end = db.last_lsn();
                    report.redo_records += redone;
                    Some(())
                })
            }
            Ok(_) if !reopen => return,
            _ => Ok(None),
        };
        match caught_up {
            Ok(Some(())) => {}
            Ok(None) => {
                self.recovers += 1;
                self.db = MiniDb::recover("f", &self.wal, &self.data, CFG);
            }
            Err(e) => self.db = Err(e),
        }
    }

    fn check(&self, what: &str) -> Result<(), String> {
        let fresh = MiniDb::recover("f", &self.wal, &self.data, CFG);
        prop_assert_eq!(observe(&self.db), observe(&fresh), "{}", what);
        Ok(())
    }

    /// A followed database continues service like a reopened one: the same
    /// commit yields the same block writes.
    fn check_continuation(self) -> Result<(), String> {
        let fresh = MiniDb::recover("f", &self.wal, &self.data, CFG);
        if let (Ok((mut followed, _)), Ok((mut fresh, _))) = (self.db, fresh) {
            for db in [&mut followed, &mut fresh] {
                let tx = db.begin();
                db.put(tx, T, 7, b"next life");
            }
            let plans = [&mut followed, &mut fresh].map(|db| {
                let tx = tsuru_minidb::TxId(db_next_tx(db));
                format!("{:?}", db.commit(tx).phases)
            });
            prop_assert_eq!(&plans[0], &plans[1]);
        }
        Ok(())
    }
}

/// The id `begin` handed out last (ids are minted from a counter).
fn db_next_tx(db: &mut MiniDb) -> u64 {
    let probe = db.begin();
    db.abort(probe);
    probe.0 - 1
}

fn torn(new: &[u8], old: Option<&[u8]>) -> Vec<u8> {
    let mut block = old.map_or_else(|| vec![0; BLOCK_SIZE], <[u8]>::to_vec);
    block[..BLOCK_SIZE / 2].copy_from_slice(&new[..BLOCK_SIZE / 2]);
    block
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn follow_equals_reopen_in_write_order_with_torn_log_blocks(
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        let stream = block_stream(&steps);
        let mut f = Follower::new();
        for (i, io) in stream.iter().enumerate() {
            if io.vol == DbVol::Wal {
                let old = f.wal.read_block(io.lba);
                f.write(io.vol, io.lba, &torn(&io.data, old.as_deref()));
                f.check(&format!("block {i} torn"))?;
            }
            f.write(io.vol, io.lba, &io.data);
            f.check(&format!("block {i}"))?;
        }
        f.check_continuation()?;
    }

    #[test]
    fn follow_equals_reopen_with_volumes_advanced_independently(
        steps in prop::collection::vec(step_strategy(), 1..40),
        schedule in prop::collection::vec(any::<bool>(), 0..400),
    ) {
        let stream = block_stream(&steps);
        let mut lanes = [DbVol::Wal, DbVol::Data]
            .map(|vol| stream.iter().filter(move |io| io.vol == vol).peekable());
        let mut f = Follower::new();
        let mut pick = schedule.into_iter().chain(std::iter::repeat(true));
        let mut n = 0;
        while lanes.iter_mut().any(|l| l.peek().is_some()) {
            let first = usize::from(pick.next().unwrap_or(true));
            let io = match lanes[first].next() {
                Some(io) => io,
                None => lanes[1 - first].next().expect("one lane has blocks left"),
            };
            f.write(io.vol, io.lba, &io.data);
            n += 1;
            f.check(&format!("after {n} blocks ({:?} {})", io.vol, io.lba))?;
        }
        f.check_continuation()?;
    }

    #[test]
    fn follow_equals_reopen_under_stale_and_corrupted_blocks(
        steps in prop::collection::vec(step_strategy(), 4..40),
        hostile in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0usize..BLOCK_SIZE), 1..12),
    ) {
        let stream = block_stream(&steps);
        let mut f = Follower::new();
        for (i, io) in stream.iter().enumerate() {
            f.write(io.vol, io.lba, &io.data);
            f.check(&format!("block {i}"))?;
            for (when, which, byte) in &hostile {
                if when.index(stream.len()) != i {
                    continue;
                }
                // A block of the past lands again…
                let stale = &stream[which.index(i + 1)];
                f.write(stale.vol, stale.lba, &stale.data);
                f.check(&format!("block {i} then stale {:?} {}", stale.vol, stale.lba))?;
                // …and one of the present takes a bit flip.
                let victim = &stream[which.index(i + 1)];
                let dev = if victim.vol == DbVol::Wal { &f.wal } else { &f.data };
                let mut bytes = dev.read_block(victim.lba).expect("written above").to_vec();
                bytes[*byte] ^= 0x40;
                f.write(victim.vol, victim.lba, &bytes);
                f.check(&format!("block {i} then flip in {:?} {}", victim.vol, victim.lba))?;
            }
        }
    }
}

/// Each `RecoveryError` variant, forged on purpose, reaches the follower as
/// it reaches `recover` — the proptests above hit them only by chance.
#[test]
fn every_recovery_error_variant_is_followed_exactly() {
    let steps = vec![
        Step::Group(vec![vec![(1, Some((1, 10)))]]),
        Step::Checkpoint,
        Step::Group(vec![vec![(2, Some((2, 20)))], vec![(3, Some((3, 30)))]]),
    ];
    let stream = block_stream(&steps);
    let followed = || {
        let mut f = Follower::new();
        for io in &stream {
            f.write(io.vol, io.lba, &io.data);
        }
        assert!(f.db.is_ok());
        f
    };
    let expect = |f: &Follower, variant: &str| {
        f.check(variant).expect("follower equals reopen");
        let text = observe(&f.db);
        assert!(text.starts_with(variant), "{variant} expected, got {text}");
    };

    // BadSuperblock: the superblock goes bad under an open database.
    let mut f = followed();
    f.write(DbVol::Data, 0, b"not a superblock");
    expect(&f, "BadSuperblock");

    // Page: a page of the checkpointed tree is overwritten with garbage.
    let mut f = followed();
    let sb = Superblock::deserialize(&f.data.read_block(0).unwrap()).unwrap();
    f.write(DbVol::Data, sb.root, &[0xEE; 64]);
    expect(&f, "Page");

    // BadWal: a record that continues the log with an LSN it already passed.
    let mut f = followed();
    let (db, report) = f.db.as_ref().unwrap();
    let (end, epoch, lsn) = (db.log_end(), report.epoch, db.last_lsn());
    let replayed = encode_record(
        epoch,
        &WalRecord {
            lsn,
            txid: 99,
            ops: vec![WalOp {
                key: 5,
                value: None,
            }],
        },
    );
    let lba = (end / BLOCK_SIZE) as u64;
    let mut block = f
        .wal
        .read_block(lba)
        .map_or_else(|| vec![0; BLOCK_SIZE], |b| b.to_vec());
    block[end % BLOCK_SIZE..end % BLOCK_SIZE + replayed.len()].copy_from_slice(&replayed);
    f.write(DbVol::Wal, lba, &block);
    expect(&f, "BadWal");

    // DataAheadOfWal: a superblock of the first epoch over the tree a later
    // checkpoint wrote, and a log that no longer reaches that tree's LSN.
    let mut f = Follower::new();
    let long: Vec<Step> = std::iter::once(Step::Group(vec![vec![(1, Some((7, 500)))]]))
        .chain([Step::Checkpoint])
        .collect();
    let stream = block_stream(&long);
    for io in &stream {
        f.write(io.vol, io.lba, &io.data);
    }
    f.write(DbVol::Wal, 0, &[0; BLOCK_SIZE]);
    let first_sb = stream
        .iter()
        .find(|io| io.vol == DbVol::Data && io.lba == 0)
        .unwrap();
    let old = Superblock::deserialize(&first_sb.data).unwrap();
    let new = Superblock::deserialize(&f.data.read_block(0).unwrap()).unwrap();
    let forged = Superblock {
        root: new.root,
        next_page: new.next_page,
        free_list: Vec::new(),
        ..old
    };
    f.write(DbVol::Data, 0, &forged.serialize());
    expect(&f, "DataAheadOfWal");
}

/// The auditor calls `catch_up` at every apply boundary, and at most of them
/// the log has not moved. The first such call costs the scan's one-block
/// window and nothing else; the database keeps the window (and the redo
/// buffer) for the next call, which allocates nothing: the log writer is
/// moved in place (`WalWriter::advance`), hashes nothing, and validation
/// allocates nothing — whether the log ends inside a block or, after a
/// checkpoint, before its first byte.
#[test]
fn a_catch_up_that_finds_nothing_allocates_only_the_scan_window() {
    let mid_block = vec![Step::Group(vec![
        vec![(1, Some((1, 100)))],
        vec![(2, Some((2, 300)))],
    ])];
    let after_checkpoint = vec![mid_block[0].clone(), Step::Checkpoint];
    for steps in [mid_block, after_checkpoint] {
        let (mut wal, mut data) = (
            MemDevice::new(CFG.wal_blocks),
            MemDevice::new(CFG.data_blocks),
        );
        for io in block_stream(&steps) {
            match io.vol {
                DbVol::Wal => wal.write_block(io.lba, &io.data),
                DbVol::Data => data.write_block(io.lba, &io.data),
            }
        }
        let (mut db, _) = MiniDb::recover("follower", &wal, &data, CFG).expect("opens");
        let epoch = Superblock::deserialize(&data.read_block(0).unwrap())
            .unwrap()
            .epoch;
        let end = db.log_end();
        let tail = wal
            .read_block((end / BLOCK_SIZE) as u64)
            .map_or_else(Vec::new, |b| b[..end % BLOCK_SIZE].to_vec());
        assert_eq!(
            end % BLOCK_SIZE != 0,
            steps.len() == 1,
            "the two shapes of a log end"
        );

        let (window, scan) = allocations(|| scan_wal_from(&wal, CFG.wal_blocks, epoch, end, &tail));
        assert!(scan.expect("still a prefix").is_empty());
        assert_eq!(window, 1, "one block of window");
        for call in 0..3 {
            let (n, caught) = allocations(|| db.catch_up(&wal, &mut |_, _, _, _| {}));
            assert_eq!(caught.expect("follows"), Some(0));
            let kept = if call == 0 { window } else { 0 };
            assert_eq!(
                n, kept,
                "catch_up {call} allocated beyond the kept scan window"
            );
        }
        assert_eq!(db.log_end(), end);
    }
}

/// Write `bytes` onto the WAL volume at byte `at` (within one block).
fn write_log_bytes(wal: &mut MemDevice, at: usize, bytes: &[u8]) {
    let lba = (at / BLOCK_SIZE) as u64;
    let mut block = wal
        .read_block(lba)
        .map_or_else(|| vec![0; BLOCK_SIZE], |b| b.to_vec());
    block[at % BLOCK_SIZE..at % BLOCK_SIZE + bytes.len()].copy_from_slice(bytes);
    wal.write_block(lba, &block);
}

/// A continued log is checked whole before any of it lands: two new records,
/// the first in order and the second repeating its LSN, leave the redo hook
/// uncalled and return what `recover` of the same volumes returns. (The
/// other check, no loaded page newer than the log, cannot fail here:
/// `recover` opened the database only with its pages at or below the log's
/// end, and a continued log only adds LSNs past that.)
#[test]
fn a_new_log_that_breaks_lsn_order_reaches_no_redo() {
    let stream = block_stream(&[Step::Group(vec![vec![(1, Some((1, 10)))]])]);
    let (mut wal, mut data) = (
        MemDevice::new(CFG.wal_blocks),
        MemDevice::new(CFG.data_blocks),
    );
    for io in &stream {
        match io.vol {
            DbVol::Wal => wal.write_block(io.lba, &io.data),
            DbVol::Data => data.write_block(io.lba, &io.data),
        }
    }
    let (mut db, report) = MiniDb::recover("follower", &wal, &data, CFG).expect("opens");
    let (end, lsn) = (db.log_end(), db.last_lsn());
    let record = |lsn, txid| WalRecord {
        lsn,
        txid,
        ops: vec![WalOp {
            key: (u64::from(T.0) << 48) | 2,
            value: Some(vec![2; 20]),
        }],
    };
    let mut log = encode_record(report.epoch, &record(lsn + 1, 50));
    log.extend(encode_record(report.epoch, &record(lsn + 1, 51)));
    write_log_bytes(&mut wal, end, &log);

    let mut redone = 0;
    let err = db
        .catch_up(&wal, &mut |_, _, _, _| redone += 1)
        .expect_err("LSN order broken");
    assert_eq!(
        redone, 0,
        "no op reaches the tree before the log is checked"
    );
    let fresh = MiniDb::recover("follower", &wal, &data, CFG).expect_err("refused");
    assert_eq!(format!("{err:?}"), format!("{fresh:?}"));
    assert!(matches!(err, RecoveryError::BadWal(ref why) if why.contains("not increasing")));
}

/// A follower keeps its scan buffer: once it has caught up over a batch of
/// records, catching up over as many again — or half as many — allocates
/// nothing at all, whatever the number of records (their values are the
/// size of the rows they overwrite, so the leaves have room).
#[test]
fn catching_up_over_k_records_allocates_nothing_per_record() {
    let cfg = DbConfig {
        data_blocks: 512,
        wal_blocks: 64,
        checkpoint_threshold: 0.8,
    };
    let (mut live, format) = MiniDb::create("live", cfg.clone());
    let mut vols = (
        MemDevice::new(cfg.wal_blocks),
        MemDevice::new(cfg.data_blocks),
    );
    let apply = |plan: tsuru_minidb::IoPlan, (wal, data): &mut (MemDevice, MemDevice)| {
        for io in plan.phases.into_iter().flatten() {
            match io.vol {
                DbVol::Wal => wal.write_block(io.lba, &io.data),
                DbVol::Data => data.write_block(io.lba, &io.data),
            }
        }
    };
    apply(format, &mut vols);
    let tx = live.begin();
    for k in 0..16 {
        live.put(tx, T, k, &[0; 300]);
    }
    live.stage(tx);
    apply(live.checkpoint(), &mut vols);
    let commits = |live: &mut MiniDb, vols: &mut (MemDevice, MemDevice), k: u64| {
        for i in 0..k {
            let tx = live.begin();
            live.put(tx, T, i % 16, &[k as u8 + i as u8; 300]);
            apply(live.commit(tx), vols);
        }
    };
    let (mut db, _) = MiniDb::recover("follower", &vols.0, &vols.1, cfg.clone()).expect("opens");
    commits(&mut live, &mut vols, 16); // warm-up: the buffers grow once
    assert_eq!(
        db.catch_up(&vols.0, &mut |_, _, _, _| {}).expect("follows"),
        Some(16)
    );
    for k in [8, 16, 8] {
        commits(&mut live, &mut vols, k);
        let (n, caught) = allocations(|| db.catch_up(&vols.0, &mut |_, _, _, _| {}));
        assert_eq!(caught.expect("follows"), Some(k as usize));
        assert_eq!(n, 0, "catching up over {k} records");
    }
    assert_eq!(live.stats().checkpoints, 2, "one epoch of log");
    assert_eq!(db.scan_table(T), live.scan_table(T));
}
