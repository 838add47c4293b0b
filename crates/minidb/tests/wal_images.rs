//! Every block image the log writer hands out is the block a from-scratch
//! build of its bytes would be — in bytes *and* in fingerprint.
//!
//! `WalWriter` keeps the block the log ends in in a `BlockWriter`, which
//! mints each image with the fingerprint already set, from a hash state it
//! carries from one image of the block to the next (DESIGN.md §23). The
//! storage engine trusts that fingerprint for the ack log, the journal and
//! every consistency verdict, so it must be exactly what hashing the image
//! from nothing would give: for tail images (one per flush, many per
//! block), sealed blocks, the first block after a `reset`, and the tail a
//! writer resumed from a scan continues. The reference is the writer
//! recovery used before it kept only a tail: an image of the whole log,
//! re-encoded record by record, blocks cut from it and padded with
//! `block_from`. What the images hold must still scan back to the records
//! that were appended, and those must re-encode to the same bytes.
//!
//! Mutation checks (done by hand, listed in
//! `crates/storage/tests/block_writer.rs`): absorbing stripes past the
//! extent, a `clear` that keeps the hash state or the absorbed count, and
//! the appended length in place of the extent each fail both tests here.

use proptest::prelude::*;
use tsuru_minidb::{encode_record, scan_wal, DbVol, IoRequest, WalOp, WalRecord, WalWriter};
use tsuru_storage::{block_from, content_hash, BlockDeviceMut, MemDevice, BLOCK_SIZE};

const WAL_BLOCKS: u64 = 6;

/// The fingerprint's definition, from the bytes alone: `content_hash` of
/// the block up to and including its last non-zero byte.
fn reference_fingerprint(block: &[u8]) -> u64 {
    let extent = block.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
    content_hash(&block[..extent])
}

#[derive(Debug, Clone)]
enum Step {
    /// Append a record with these operations (dropped if it does not fit).
    Append(Vec<(u64, Option<Vec<u8>>)>),
    Flush,
    /// A checkpoint: next epoch, the log restarts at block zero.
    Reset,
    /// Crash: what was flushed is on the volume; scan it, resume from it.
    Resume,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Values that are mostly zeros make images whose extent stops short of
    // their log end; long ones make records that seal blocks.
    let value = prop_oneof![
        4 => prop::collection::vec(any::<u8>(), 0..60usize),
        3 => (0usize..300).prop_map(|n| vec![0u8; n]),
        1 => prop::collection::vec(any::<u8>(), 700..1024usize),
        1 => (any::<u8>(), 0usize..40).prop_map(|(b, zeros)| {
            let mut v = vec![b];
            v.resize(1 + zeros, 0);
            v
        }),
    ];
    let ops = prop::collection::vec((0u64..50, prop::option::of(value)), 0..6);
    prop_oneof![
        12 => ops.prop_map(Step::Append),
        6 => Just(Step::Flush),
        1 => Just(Step::Reset),
        2 => Just(Step::Resume),
    ]
}

/// The reference and the device the images land on.
struct Model {
    epoch: u32,
    /// Every record appended this epoch, and the log bytes they encode to.
    records: Vec<WalRecord>,
    log: Vec<u8>,
    /// How much of `records` / `log` has been flushed.
    flushed: (usize, usize),
    dev: MemDevice,
}

impl Model {
    /// Epoch 1, an empty log, an empty volume.
    fn new() -> Self {
        Model {
            epoch: 1,
            records: Vec::new(),
            log: Vec::new(),
            flushed: (0, 0),
            dev: MemDevice::new(WAL_BLOCKS),
        }
    }

    /// A checkpoint: the next epoch starts with an empty log.
    fn reset(&mut self) -> u32 {
        self.epoch += 1;
        self.records.clear();
        self.log.clear();
        self.flushed = (0, 0);
        self.epoch
    }

    /// Check the images of one flush against the log image and land them.
    fn flush(&mut self, ios: &[IoRequest]) -> Result<(), String> {
        // Every block touched since the last flush, whole, in log order.
        let first = self.flushed.1 / BLOCK_SIZE;
        let last = self.log.len().div_ceil(BLOCK_SIZE);
        let expect: Vec<u64> = if self.log.len() > self.flushed.1 {
            (first as u64..last as u64).collect()
        } else {
            Vec::new()
        };
        prop_assert_eq!(ios.iter().map(|io| io.lba).collect::<Vec<_>>(), expect);
        for io in ios {
            prop_assert_eq!(io.vol, DbVol::Wal);
            let from = io.lba as usize * BLOCK_SIZE;
            let cut = &self.log[from..self.log.len().min(from + BLOCK_SIZE)];
            let scratch = block_from(cut);
            prop_assert_eq!(&io.data[..], &scratch[..], "lba {}", io.lba);
            prop_assert_eq!(io.data.fingerprint(), reference_fingerprint(&scratch), "lba {}", io.lba);
            prop_assert_eq!(io.data.fingerprint(), scratch.fingerprint());
            self.dev.write_block(io.lba, &io.data);
        }
        self.flushed = (self.records.len(), self.log.len());
        Ok(())
    }

    /// The volume scans back to the flushed records, which re-encode to
    /// the flushed bytes.
    fn check_scan(&self) -> Result<(), String> {
        let scan = scan_wal(&self.dev, WAL_BLOCKS, self.epoch);
        prop_assert_eq!(&scan.records[..], &self.records[..self.flushed.0]);
        prop_assert_eq!(scan.end, self.flushed.1);
        let again: Vec<u8> = scan.records.iter().flat_map(|r| encode_record(self.epoch, r)).collect();
        prop_assert_eq!(&again[..], &self.log[..self.flushed.1]);
        Ok(())
    }
}

/// Run one script: every flush checked against the model, every resume
/// taken from a scan of what the flushes wrote.
fn check_script(steps: &[Step]) -> Result<(), String> {
    let mut writer = WalWriter::new(WAL_BLOCKS, 1);
    let mut model = Model::new();
    let mut lsn = 0u64;
    for step in steps {
        match step {
            Step::Append(ops) => {
                lsn += 1;
                let rec = WalRecord {
                    lsn,
                    txid: lsn * 3,
                    ops: ops.iter().map(|(key, value)| WalOp { key: *key, value: value.clone() }).collect(),
                };
                if writer.fits(&rec) {
                    writer.append(&rec);
                    model.log.extend(encode_record(model.epoch, &rec));
                    model.records.push(rec);
                }
            }
            Step::Flush => {
                model.flush(&writer.flush())?;
                model.check_scan()?;
            }
            Step::Reset => {
                writer.reset(model.reset());
            }
            Step::Resume => {
                model.records.truncate(model.flushed.0);
                model.log.truncate(model.flushed.1);
                let scan = scan_wal(&model.dev, WAL_BLOCKS, model.epoch);
                prop_assert_eq!(scan.end, model.log.len());
                writer = WalWriter::resume(WAL_BLOCKS, model.epoch, scan.end, scan.tail);
            }
        }
        prop_assert_eq!(writer.used_bytes(), model.log.len());
    }
    model.flush(&writer.flush())?;
    model.check_scan()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_image_carries_the_from_scratch_fingerprint(
        steps in prop::collection::vec(step_strategy(), 1..120),
    ) {
        check_script(&steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5_000))]

    /// The same differential at CI's bounds (release, `--include-ignored`).
    #[test]
    #[ignore = "a minute unoptimized; CI runs it in release"]
    fn every_image_carries_the_from_scratch_fingerprint_full_bounds(
        steps in prop::collection::vec(step_strategy(), 1..300),
    ) {
        check_script(&steps)?;
    }
}

/// The shapes the proptest must not miss, pinned: many tail images of one
/// block, a record that seals two blocks at once, the first image after a
/// reset and the first after a resume — each compared with a from-scratch
/// build.
#[test]
fn tail_sealed_reset_and_resumed_images() {
    let rec = |lsn: u64, len: usize| WalRecord {
        lsn,
        txid: lsn,
        ops: vec![WalOp { key: lsn, value: Some(vec![lsn as u8; len]) }],
    };
    let mut model = Model::new();
    let mut writer = WalWriter::new(WAL_BLOCKS, 1);
    fn stage(writer: &mut WalWriter, model: &mut Model, r: WalRecord) {
        writer.append(&r);
        model.log.extend(encode_record(model.epoch, &r));
        model.records.push(r);
    }
    /// Stage, flush, check; how many images the flush emitted.
    fn push(writer: &mut WalWriter, model: &mut Model, r: WalRecord) -> usize {
        stage(writer, model, r);
        let ios = writer.flush();
        model.flush(&ios).unwrap();
        model.check_scan().unwrap();
        ios.len()
    }
    // Forty small records: forty images of block 0, each longer.
    for lsn in 1..=40 {
        assert_eq!(push(&mut writer, &mut model, rec(lsn, 20)), 1);
    }
    // Nine records of 1 KiB values in one group: the flush hands out two
    // sealed blocks and the image of a third.
    for lsn in 41..=48 {
        stage(&mut writer, &mut model, rec(lsn, 1024));
    }
    assert_eq!(push(&mut writer, &mut model, rec(49, 1024)), 3);
    // A crash, a scan, a resumed tail.
    let scan = scan_wal(&model.dev, WAL_BLOCKS, 1);
    assert!(!scan.tail.is_empty());
    writer = WalWriter::resume(WAL_BLOCKS, 1, scan.end, scan.tail);
    assert_eq!(push(&mut writer, &mut model, rec(50, 5)), 1);
    // ... which the next record fills and seals.
    assert_eq!(push(&mut writer, &mut model, rec(51, 0)), 2);
    // A checkpoint: block 0 again, from nothing.
    writer.reset(model.reset());
    assert_eq!(push(&mut writer, &mut model, rec(52, 7)), 1);
    assert_eq!(push(&mut writer, &mut model, rec(53, 7)), 1);
}
