//! Resume ≡ replay: a recovered database continues the log byte for byte
//! where a writer that had appended the surviving records itself would.
//!
//! `MiniDb::recover` does not re-append the records it scans; it resumes the
//! writer from where the scan found the log ending (`WalWriter::resume`).
//! That is only correct if `encode(decode(bytes)) == bytes` for every record
//! a scan accepts and if nothing past the log's end leaks into the writer's
//! tail block. This test owns that invariant. The algorithm recovery used
//! before — re-encode every scanned record into an image of the whole WAL
//! volume, cut blocks from the image — is kept here as the reference
//! ([`ImageWriter`]), and the two must emit identical `IoRequest`s at
//! *every* point the storage could have stopped at: after each block write
//! of the stream, and with the next WAL block torn.
//!
//! Mutation check (done by hand when this test was written): letting
//! `scan_wal` return the whole last block instead of the bytes up to the
//! log's end — i.e. carrying a torn record or stale previous-epoch bytes
//! into the resumed tail — fails `resumed_writer_continues_like_a_replayed_one`
//! on its first case.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsuru_minidb::{
    encode_record, scan_wal, DbConfig, DbVol, IoRequest, MiniDb, TableId, WalOp, WalRecord,
};
use tsuru_storage::{BlockDevice, BlockDeviceMut, MemDevice, BLOCK_SIZE};

const T: TableId = TableId(3);
const CFG: DbConfig = DbConfig {
    data_blocks: 4096,
    wal_blocks: 8,
    checkpoint_threshold: 0.8,
};

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
}

#[derive(Debug, Clone)]
struct Txn {
    ops: Vec<Op>,
    /// Pad the record so that it ends exactly on a block boundary.
    align: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u64..64, prop::collection::vec(any::<u8>(), 0..=tsuru_minidb::MAX_VALUE))
            .prop_map(|(k, v)| Op::Put(k, v)),
        1 => (0u64..64).prop_map(Op::Delete),
    ]
}

/// 0–12 ops of up to `MAX_VALUE` bytes: records of 32 bytes to 12 KiB, so
/// they sit inside one block, straddle two, three and four.
fn txn_strategy() -> impl Strategy<Value = Txn> {
    (prop::collection::vec(op_strategy(), 0..=12), 0u8..6)
        .prop_map(|(ops, a)| Txn { ops, align: a == 0 })
}

fn tree_key(key: u64) -> u64 {
    (u64::from(T.0) << 48) | key
}

fn wal_op(op: &Op) -> WalOp {
    match op {
        Op::Put(k, v) => WalOp {
            key: tree_key(*k),
            value: Some(v.clone()),
        },
        Op::Delete(k) => WalOp {
            key: tree_key(*k),
            value: None,
        },
    }
}

/// Puts on keys outside the random range whose values make the record that
/// already holds `ops` end exactly on a block boundary, given that the log
/// holds `used` bytes (and restarts at zero if the commit checkpoints first).
fn padding(ops: &[Op], used: usize) -> Vec<Op> {
    const PUT_OVERHEAD: usize = 8 + 1 + 4;
    let so_far = WalRecord {
        lsn: 0,
        txid: 0,
        ops: ops.iter().map(wal_op).collect(),
    }
    .encoded_len();
    let room_from = |used: usize| {
        let room = BLOCK_SIZE - (used + so_far) % BLOCK_SIZE;
        room + if room < PUT_OVERHEAD { BLOCK_SIZE } else { 0 }
    };
    let threshold = (CFG.wal_blocks as usize * BLOCK_SIZE) as f64 * CFG.checkpoint_threshold;
    let mut room = room_from(used);
    if (used + so_far + room) as f64 > threshold {
        room = room_from(0);
    }
    let puts = room.div_ceil(PUT_OVERHEAD + tsuru_minidb::MAX_VALUE);
    let mut value_bytes = room - puts * PUT_OVERHEAD;
    (0..puts)
        .map(|i| {
            let len = value_bytes.min(tsuru_minidb::MAX_VALUE);
            value_bytes -= len;
            Op::Put(1000 + i as u64, vec![0xA5; len])
        })
        .collect()
}

fn apply(io: &IoRequest, wal: &mut MemDevice, data: &mut MemDevice) {
    match io.vol {
        DbVol::Wal => wal.write_block(io.lba, &io.data),
        DbVol::Data => data.write_block(io.lba, &io.data),
    }
}

/// Run one transaction; returns the ordered block writes and, if it logged
/// anything, the record it must have logged.
fn run_txn(db: &mut MiniDb, ops: &[Op]) -> (Vec<Vec<IoRequest>>, Option<WalRecord>) {
    let tx = db.begin();
    for op in ops {
        match op {
            Op::Put(k, v) => db.put(tx, T, *k, v),
            Op::Delete(k) => db.delete(tx, T, *k),
        }
    }
    let record = (!ops.is_empty()).then(|| WalRecord {
        lsn: db.last_lsn() + 1,
        txid: tx.0,
        ops: ops.iter().map(wal_op).collect(),
    });
    (db.commit(tx).phases, record)
}

fn model_apply(state: &mut BTreeMap<u64, Vec<u8>>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                state.insert(*k, v.clone());
            }
            Op::Delete(k) => {
                state.remove(k);
            }
        }
    }
}

/// The reference: the WAL writer as it was before it kept only its tail —
/// an image of the whole WAL volume, rebuilt after a crash by re-encoding
/// every scanned record into it, from which whole blocks are cut.
struct ImageWriter {
    epoch: u32,
    image: Vec<u8>,
    offset: usize,
}

impl ImageWriter {
    fn replay(dev: &dyn BlockDevice, wal_blocks: u64, epoch: u32) -> Self {
        let mut w = ImageWriter {
            epoch,
            image: vec![0; wal_blocks as usize * BLOCK_SIZE],
            offset: 0,
        };
        for rec in &scan_wal(dev, wal_blocks, epoch).records {
            w.append(rec);
        }
        w
    }

    fn append(&mut self, rec: &WalRecord) -> Vec<(u64, Vec<u8>)> {
        let bytes = encode_record(self.epoch, rec);
        let start = self.offset;
        self.image[start..start + bytes.len()].copy_from_slice(&bytes);
        self.offset += bytes.len();
        (start / BLOCK_SIZE..=(self.offset - 1) / BLOCK_SIZE)
            .map(|b| {
                (
                    b as u64,
                    self.image[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE].to_vec(),
                )
            })
            .collect()
    }

    fn reset(&mut self) {
        self.epoch += 1;
        self.offset = 0;
        self.image.fill(0);
    }
}

/// Recover from the given images, run `more` on the recovered database and
/// check (a) its WAL writes against the replayed reference writer and (b)
/// that a second recovery returns every committed row.
fn check_cut(
    mut wal: MemDevice,
    mut data: MemDevice,
    history: &[Vec<Op>],
    more: &[Txn],
    what: &str,
) -> Result<(), String> {
    let (mut db, report) = MiniDb::recover("cut", &wal, &data, CFG)
        .map_err(|e| format!("{what}: recovery failed: {e}"))?;
    let mut reference = ImageWriter::replay(&wal, CFG.wal_blocks, report.epoch);

    // Each non-empty transaction is one record and one LSN.
    let survived = db.last_lsn() as usize;
    let mut model = BTreeMap::new();
    for ops in &history[..survived] {
        model_apply(&mut model, ops);
    }

    for (i, txn) in more.iter().enumerate() {
        let checkpoints = db.stats().checkpoints;
        let (phases, record) = run_txn(&mut db, &txn.ops);
        if db.stats().checkpoints != checkpoints {
            reference.reset();
        }
        let wal_ios: Vec<(u64, Vec<u8>)> = phases
            .iter()
            .flatten()
            .filter(|io| io.vol == DbVol::Wal)
            .map(|io| (io.lba, io.data.to_vec()))
            .collect();
        let expected = record.map(|r| reference.append(&r)).unwrap_or_default();
        if wal_ios != expected {
            let lbas = |ios: &[(u64, Vec<u8>)]| ios.iter().map(|io| io.0).collect::<Vec<_>>();
            return Err(format!(
                "{what}: WAL writes of transaction {i} after recovery differ from the \
                 replayed writer's (lbas {:?} vs {:?})",
                lbas(&wal_ios),
                lbas(&expected)
            ));
        }
        for io in phases.iter().flatten() {
            apply(io, &mut wal, &mut data);
        }
        model_apply(&mut model, &txn.ops);
    }

    let (again, _) = MiniDb::recover("again", &wal, &data, CFG)
        .map_err(|e| format!("{what}: second recovery failed: {e}"))?;
    let rows: BTreeMap<u64, Vec<u8>> = again
        .scan_table(T)
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    if rows != model {
        return Err(format!(
            "{what}: second recovery lost or invented rows ({} vs {} expected)",
            rows.len(),
            model.len()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resumed_writer_continues_like_a_replayed_one(
        txns in prop::collection::vec(txn_strategy(), 2..20),
        more in prop::collection::vec(txn_strategy(), 1..4),
        tear_seed in any::<u64>(),
    ) {
        let (mut db, create_plan) = MiniDb::create("resume", CFG);
        let mut wal = MemDevice::new(CFG.wal_blocks);
        let mut data = MemDevice::new(CFG.data_blocks);
        for io in create_plan.phases.iter().flatten() {
            apply(io, &mut wal, &mut data);
        }

        // The first life: the ordered write stream and the non-empty
        // transactions (one per LSN), with a checkpoint forced half-way so
        // the log always crosses an epoch, whatever the sizes drawn.
        let mut stream: Vec<IoRequest> = Vec::new();
        let mut history: Vec<Vec<Op>> = Vec::new();
        let mut used = 0usize;
        for (i, txn) in txns.iter().enumerate() {
            if i == txns.len() / 2 {
                stream.extend(db.checkpoint().phases.into_iter().flatten());
                used = 0;
            }
            let mut ops = txn.ops.clone();
            if txn.align {
                ops.extend(padding(&ops, used));
            }
            let checkpoints = db.stats().checkpoints;
            let (phases, record) = run_txn(&mut db, &ops);
            stream.extend(phases.into_iter().flatten());
            if let Some(record) = record {
                if db.stats().checkpoints != checkpoints {
                    used = 0;
                }
                used += record.encoded_len();
                if txn.align {
                    prop_assert_eq!(used % BLOCK_SIZE, 0, "padding must land on a boundary");
                }
                history.push(ops);
            }
        }
        prop_assert!(db.stats().checkpoints >= 2);

        // Stop the storage after every write of the stream, and once more
        // with the following WAL block torn at a seeded byte: new bytes up
        // to the tear, the block's previous content (zeros, earlier records,
        // or a previous epoch's log) after it.
        let mut rng = tsuru_sim::DetRng::new(tear_seed);
        for k in 0..=stream.len() {
            if let Err(why) = check_cut(wal.clone(), data.clone(), &history, &more, &format!("cut {k}")) {
                prop_assert!(false, "{}", why);
            }
            let Some(io) = stream.get(k) else { break };
            if io.vol == DbVol::Wal {
                let tear = 1 + rng.gen_range(BLOCK_SIZE as u64 - 1) as usize;
                let mut torn = wal
                    .read_block(io.lba)
                    .map_or_else(|| vec![0; BLOCK_SIZE], |b| b.to_vec());
                torn[..tear].copy_from_slice(&io.data[..tear]);
                let mut torn_wal = wal.clone();
                torn_wal.write_block(io.lba, &torn);
                if let Err(why) = check_cut(torn_wal, data.clone(), &history, &more, &format!("cut {k} torn at {tear}")) {
                    prop_assert!(false, "{}", why);
                }
            }
            apply(io, &mut wal, &mut data);
        }
    }
}
