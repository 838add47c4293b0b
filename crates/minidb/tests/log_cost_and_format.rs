//! Two pins on the log: what opening an image may cost, and what the
//! images hold.
//!
//! * **Cost.** Recovery reads the WAL volume only as far as the live log
//!   reaches — at most ⌈end / 4096⌉ + 1 `read_block` calls, whatever the
//!   size of the volume. A count, so it cannot flake.
//! * **Format.** A fixed workload must leave byte-identical WAL and data
//!   volumes behind. The expected fingerprints were taken from the commit
//!   *before* the writer kept only its tail and the CRC went word-wise, so
//!   they show those changes moved no stored byte; any later change of
//!   on-disk format has to change them deliberately.

use std::cell::Cell;

use tsuru_minidb::{scan_wal, DbConfig, DbVol, IoPlan, MiniDb, TableId};
use tsuru_storage::{BlockBuf, BlockDevice, BlockDeviceMut, MemDevice, BLOCK_SIZE};

const T: TableId = TableId(1);

fn apply(plan: &IoPlan, wal: &mut MemDevice, data: &mut MemDevice) {
    for io in plan.phases.iter().flatten() {
        match io.vol {
            DbVol::Wal => wal.write_block(io.lba, &io.data),
            DbVol::Data => data.write_block(io.lba, &io.data),
        }
    }
}

/// Counts the reads a device serves.
struct CountingDevice<'a> {
    inner: &'a MemDevice,
    reads: Cell<u64>,
}

impl BlockDevice for CountingDevice<'_> {
    fn size_blocks(&self) -> u64 {
        self.inner.size_blocks()
    }

    fn read_block(&self, lba: u64) -> Option<BlockBuf> {
        self.reads.set(self.reads.get() + 1);
        self.inner.read_block(lba)
    }
}

#[test]
fn recovery_reads_the_wal_only_as_far_as_the_log_reaches() {
    let cfg = DbConfig {
        data_blocks: 4096,
        wal_blocks: 1024,
        checkpoint_threshold: 0.8,
    };
    for log_blocks in [0usize, 1, 3, 200] {
        let (mut db, plan) = MiniDb::create("cost", cfg.clone());
        let mut wal = MemDevice::new(cfg.wal_blocks);
        let mut data = MemDevice::new(cfg.data_blocks);
        apply(&plan, &mut wal, &mut data);
        // Commit until the log occupies `log_blocks` blocks.
        let capacity = (cfg.wal_blocks as usize * BLOCK_SIZE) as f64;
        let mut commits = 0u64;
        while ((db.wal_usage() * capacity).round() as usize).div_ceil(BLOCK_SIZE) < log_blocks {
            let tx = db.begin();
            db.put(tx, T, commits % 512, &[commits as u8; 700]);
            apply(&db.commit(tx), &mut wal, &mut data);
            commits += 1;
        }
        assert_eq!(db.stats().checkpoints, 1, "the log must stay in one epoch");

        let counted = CountingDevice {
            inner: &wal,
            reads: Cell::new(0),
        };
        let (rec, report) = MiniDb::recover("cost", &counted, &data, cfg.clone()).unwrap();
        assert_eq!(report.redo_records as u64, commits);
        assert_eq!(rec.last_lsn(), db.last_lsn());

        let end = scan_wal(&wal, cfg.wal_blocks, report.epoch).end;
        assert_eq!(
            end.div_ceil(BLOCK_SIZE),
            log_blocks,
            "log of the intended size"
        );
        let bound = end.div_ceil(BLOCK_SIZE) as u64 + 1;
        assert!(
            counted.reads.get() <= bound,
            "recovering a {log_blocks}-block log read the WAL volume {} times (bound {bound}, volume {} blocks)",
            counted.reads.get(),
            cfg.wal_blocks
        );
    }
}

/// FNV-1a over every block of a device (absent blocks marked, not skipped):
/// independent of any code in the crate under test.
fn fingerprint(dev: &MemDevice) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for lba in 0..dev.size_blocks() {
        match dev.read_block(lba) {
            Some(block) => {
                eat(1);
                block.iter().copied().for_each(&mut eat);
            }
            None => eat(0),
        }
    }
    h
}

#[test]
fn a_fixed_workload_leaves_the_pinned_images() {
    let cfg = DbConfig {
        data_blocks: 512,
        wal_blocks: 64,
        checkpoint_threshold: 0.8,
    };
    let (mut db, plan) = MiniDb::create("golden", cfg.clone());
    let mut wal = MemDevice::new(cfg.wal_blocks);
    let mut data = MemDevice::new(cfg.data_blocks);
    apply(&plan, &mut wal, &mut data);
    // 200 commits of 1–3 operations with sizes that walk across block
    // boundaries, deletes included, and one explicit checkpoint on the way
    // (so the final WAL holds a live epoch over a dead one).
    for i in 0..200u64 {
        let tx = db.begin();
        db.put(tx, T, i % 37, &vec![(i * 7) as u8; (i * 53 % 900) as usize]);
        if i % 3 == 0 {
            db.put(tx, TableId(2), i, format!("row-{i}").as_bytes());
        }
        if i % 5 == 4 {
            db.delete(tx, T, (i + 11) % 37);
        }
        apply(&db.commit(tx), &mut wal, &mut data);
        if i == 119 {
            apply(&db.checkpoint(), &mut wal, &mut data);
        }
    }
    assert_eq!(db.stats().commits, 200);
    assert_eq!(db.stats().checkpoints, 2, "create + the explicit one");
    assert_eq!(
        (fingerprint(&wal), fingerprint(&data)),
        (0xB51BA1D2AFE2CB8C, 0x6517411F4C9DDFF2),
        "on-disk format changed"
    );
}
