//! The flat write-set answers as the overlay map did.
//!
//! A transaction's write-set is one op list in call order, its values in
//! one byte buffer (DESIGN.md §26); a read of the transaction's own writes
//! scans it from the newest op back. The model
//! here is the structure that scan replaced — a `BTreeMap<key,
//! Option<value>>` per transaction, last write wins — driven beside the
//! database through random `begin` / `put` / `delete` / `get` / `abort` /
//! `stage` calls of up to three interleaved transactions over a handful of
//! keys, so repeated keys, a delete under a put and a read of another
//! transaction's key all come up. After every call: each `get` equals the
//! model's; after each `stage` the committed table equals the committed
//! model, and the bytes the stage appended to the log are `encode_record` of
//! the ops in call order, duplicates kept.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsuru_minidb::{encode_record, DbConfig, DbVol, MiniDb, TableId, TxId, WalOp, WalRecord};
use tsuru_storage::{BlockDevice, BlockDeviceMut, MemDevice, BLOCK_SIZE};

const T: TableId = TableId(2);
const SLOTS: usize = 3;
const KEYS: u64 = 6;
// The format image is checkpoint #1; the log of this test never fills the
// volume, so every record is written in that epoch.
const EPOCH: u32 = 1;

fn tree_key(key: u64) -> u64 {
    ((T.0 as u64) << 48) | key
}

#[derive(Debug, Clone)]
enum Call {
    Put(u64, u8, usize),
    Delete(u64),
    Get(u64),
    Abort,
    Stage,
}

/// `(slot, call)`: a call on a slot with no open transaction begins one
/// first.
fn calls() -> impl Strategy<Value = Vec<(usize, Call)>> {
    let call = prop_oneof![
        6 => (0..KEYS, any::<u8>(), 0usize..40).prop_map(|(k, fill, len)| Call::Put(k, fill, len)),
        2 => (0..KEYS).prop_map(Call::Delete),
        6 => (0..KEYS).prop_map(Call::Get),
        1 => Just(Call::Abort),
        3 => Just(Call::Stage),
    ];
    prop::collection::vec((0..SLOTS, call), 1..120)
}

/// One open transaction beside its model.
struct Open {
    tx: TxId,
    overlay: BTreeMap<u64, Option<Vec<u8>>>,
    ops: Vec<WalOp>,
}

/// Bytes `from..to` of the log on `wal`.
fn log_bytes(wal: &MemDevice, from: usize, to: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for lba in from / BLOCK_SIZE..=to.saturating_sub(1) / BLOCK_SIZE {
        let block = wal
            .read_block(lba as u64)
            .expect("the flush wrote this block");
        let lo = from.max(lba * BLOCK_SIZE) - lba * BLOCK_SIZE;
        let hi = to.min((lba + 1) * BLOCK_SIZE) - lba * BLOCK_SIZE;
        out.extend_from_slice(&block[lo..hi]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn flat_write_set_answers_as_the_overlay_did(calls in calls()) {
        let (mut db, _format) = MiniDb::create("w", DbConfig::default());
        let mut wal = MemDevice::new(db.config().wal_blocks);
        let mut committed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut open: [Option<Open>; SLOTS] = [None, None, None];

        for (slot, call) in calls {
            let t = open[slot].get_or_insert_with(|| Open {
                tx: db.begin(),
                overlay: BTreeMap::new(),
                ops: Vec::new(),
            });
            match call {
                Call::Put(key, fill, len) => {
                    let value = vec![fill; len];
                    db.put(t.tx, T, key, &value);
                    t.ops.push(WalOp { key: tree_key(key), value: Some(value.clone()) });
                    t.overlay.insert(key, Some(value));
                }
                Call::Delete(key) => {
                    db.delete(t.tx, T, key);
                    t.ops.push(WalOp { key: tree_key(key), value: None });
                    t.overlay.insert(key, None);
                }
                Call::Get(key) => {
                    let expect = match t.overlay.get(&key) {
                        Some(own) => own.as_deref(),
                        None => committed.get(&key).map(Vec::as_slice),
                    };
                    prop_assert_eq!(db.get(t.tx, T, key), expect, "get({}) in slot {}", key, slot);
                    prop_assert_eq!(
                        db.get_committed(T, key),
                        committed.get(&key).map(Vec::as_slice)
                    );
                }
                Call::Abort => {
                    let t = open[slot].take().expect("opened above");
                    db.abort(t.tx);
                }
                Call::Stage => {
                    let t = open[slot].take().expect("opened above");
                    let (before, lsn) = (db.log_end(), db.last_lsn() + 1);
                    let staged = db.stage(t.tx);
                    for io in db.flush().phases.into_iter().flatten() {
                        prop_assert_eq!(io.vol, DbVol::Wal, "no checkpoint in this test");
                        wal.write_block(io.lba, &io.data);
                    }
                    if t.ops.is_empty() {
                        prop_assert_eq!(staged, None);
                        prop_assert_eq!(db.log_end(), before);
                    } else {
                        prop_assert_eq!(staged, Some(lsn));
                        let record = WalRecord { lsn, txid: t.tx.0, ops: t.ops };
                        prop_assert_eq!(
                            log_bytes(&wal, before, db.log_end()),
                            encode_record(EPOCH, &record)
                        );
                    }
                    for (key, value) in t.overlay {
                        match value {
                            Some(v) => committed.insert(key, v),
                            None => committed.remove(&key),
                        };
                    }
                    let expect: Vec<(u64, &[u8])> =
                        committed.iter().map(|(k, v)| (*k, v.as_slice())).collect();
                    prop_assert_eq!(db.scan_table(T), expect);
                }
            }
        }
        prop_assert_eq!(db.stats().checkpoints, 1);
    }
}
