//! Property-based crash-recovery testing.
//!
//! The fundamental durability contract of MiniDB (and the property the
//! paper's consistency groups preserve end-to-end): if storage applies any
//! *prefix* of the database's ordered I/O stream — a crash at an arbitrary
//! point — then recovery succeeds and yields exactly the state after some
//! prefix of the committed transactions, including at least every
//! transaction whose I/O plan was fully acknowledged.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsuru_minidb::{DbConfig, DbVol, IoPlan, MiniDb, TableId};
use tsuru_storage::{BlockDevice, BlockDeviceMut, MemDevice};

const T: TableId = TableId(7);

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..48, prop::collection::vec(any::<u8>(), 0..240))
            .prop_map(|(k, v)| Op::Put(k, v)),
        1 => (0u64..48).prop_map(Op::Delete),
    ]
}

fn txn_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op_strategy(), 1..4)
}

/// Flatten a plan into a totally ordered I/O list. Within a phase the order
/// is arbitrary in reality, so we shuffle it with a seeded RNG; across
/// phases the barrier is preserved.
fn flatten(plan: &IoPlan, rng: &mut tsuru_sim::DetRng) -> Vec<tsuru_minidb::IoRequest> {
    let mut out = Vec::new();
    for phase in &plan.phases {
        let mut phase: Vec<_> = phase.clone();
        rng.shuffle(&mut phase);
        out.extend(phase);
    }
    out
}

fn apply(io: &tsuru_minidb::IoRequest, wal: &mut MemDevice, data: &mut MemDevice) {
    match io.vol {
        DbVol::Wal => wal.write_block(io.lba, &io.data),
        DbVol::Data => data.write_block(io.lba, &io.data),
    }
}

/// Model state after the first `m` transactions.
fn model_after(txns: &[Vec<Op>], m: usize) -> BTreeMap<u64, Vec<u8>> {
    let mut state = BTreeMap::new();
    for txn in &txns[..m] {
        for op in txn {
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
    state
}

/// The committed rows of the table, owned (the scan lends them).
fn rows_of(db: &MiniDb) -> BTreeMap<u64, Vec<u8>> {
    db.scan_table(T)
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recovery_from_any_io_prefix_is_a_committed_prefix(
        txns in prop::collection::vec(txn_strategy(), 1..80),
        crash_frac in 0.0f64..1.0,
        shuffle_seed in any::<u64>(),
    ) {
        let cfg = DbConfig { data_blocks: 4096, wal_blocks: 16, checkpoint_threshold: 0.7 };
        let (mut db, create_plan) = MiniDb::create("prop", cfg.clone());
        let mut wal = MemDevice::new(cfg.wal_blocks);
        let mut data = MemDevice::new(cfg.data_blocks);
        // Setup image is fully durable before the workload starts.
        for phase in &create_plan.phases {
            for io in phase {
                apply(io, &mut wal, &mut data);
            }
        }

        let mut rng = tsuru_sim::DetRng::new(shuffle_seed);
        let mut stream = Vec::new();
        let mut commit_end = Vec::new(); // stream index after which txn i is durable
        for txn in &txns {
            let tx = db.begin();
            for op in txn {
                match op {
                    Op::Put(k, v) => db.put(tx, T, *k, v),
                    Op::Delete(k) => db.delete(tx, T, *k),
                }
            }
            let plan = db.commit(tx);
            stream.extend(flatten(&plan, &mut rng));
            commit_end.push(stream.len());
        }

        // Crash: only the first `k` I/Os reach storage.
        let k = ((stream.len() as f64) * crash_frac) as usize;
        for io in &stream[..k] {
            apply(io, &mut wal, &mut data);
        }

        let (rec, report) = MiniDb::recover("rec", &wal, &data, cfg)
            .expect("recovery must succeed on any I/O prefix");

        // Recovered state is the state after the first M transactions,
        // where M = recovered last LSN (each txn is one record, lsn = i+1).
        let m = rec.last_lsn() as usize;
        prop_assert!(m <= txns.len(), "recovered more txns than committed");

        // Durability: every fully-acknowledged transaction must survive.
        let fully_acked = commit_end.iter().filter(|&&e| e <= k).count();
        prop_assert!(
            m >= fully_acked,
            "lost acked transactions: recovered {m}, acked {fully_acked}"
        );

        let expect = model_after(&txns, m);
        let got = rows_of(&rec);
        prop_assert_eq!(got, expect, "state mismatch at prefix {}", m);
        // Report sanity.
        prop_assert_eq!(report.wal_end, rec.last_lsn());
    }

    /// A crash can leave the *last* WAL block half-written — the classic
    /// torn tail. Model it as prefix-of-new-bytes + suffix-of-old-bytes:
    /// the drive wrote the first `cut` bytes of the new block image and
    /// lost power. Recovery must still succeed, keep every transaction
    /// that was fully durable before the torn write, and land on a clean
    /// committed prefix.
    #[test]
    fn recovery_survives_a_torn_wal_tail(
        txns in prop::collection::vec(txn_strategy(), 2..40),
        tear_at in any::<prop::sample::Index>(),
        cut_at in any::<prop::sample::Index>(),
        shuffle_seed in any::<u64>(),
    ) {
        let cfg = DbConfig { data_blocks: 4096, wal_blocks: 16, checkpoint_threshold: 0.7 };
        let (mut db, create_plan) = MiniDb::create("torn", cfg.clone());
        let mut wal = MemDevice::new(cfg.wal_blocks);
        let mut data = MemDevice::new(cfg.data_blocks);
        for phase in &create_plan.phases {
            for io in phase {
                apply(io, &mut wal, &mut data);
            }
        }

        let mut rng = tsuru_sim::DetRng::new(shuffle_seed);
        let mut stream = Vec::new();
        let mut commit_end = Vec::new();
        for txn in &txns {
            let tx = db.begin();
            for op in txn {
                match op {
                    Op::Put(k, v) => db.put(tx, T, *k, v),
                    Op::Delete(k) => db.delete(tx, T, *k),
                }
            }
            let plan = db.commit(tx);
            stream.extend(flatten(&plan, &mut rng));
            commit_end.push(stream.len());
        }

        // Pick a WAL write to tear.
        let wal_ios: Vec<usize> = stream
            .iter()
            .enumerate()
            .filter(|(_, io)| matches!(io.vol, DbVol::Wal))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!wal_ios.is_empty());
        let t = wal_ios[tear_at.index(wal_ios.len())];

        // Everything before the torn write lands intact…
        for io in &stream[..t] {
            apply(io, &mut wal, &mut data);
        }
        // …then the torn write: only the first `cut` bytes of the new
        // block image reach the medium, the rest keeps its old content.
        let io = &stream[t];
        let cut = 1 + cut_at.index(io.data.len().saturating_sub(1).max(1));
        let mut torn = wal
            .read_block(io.lba)
            .map(|b| b.to_vec())
            .unwrap_or_else(|| vec![0u8; io.data.len()]);
        torn.resize(io.data.len(), 0);
        torn[..cut].copy_from_slice(&io.data[..cut]);
        wal.write_block(io.lba, &torn);

        let (rec, report) = MiniDb::recover("torn-rec", &wal, &data, cfg)
            .expect("recovery must survive a torn WAL tail");

        let m = rec.last_lsn() as usize;
        prop_assert!(m <= txns.len(), "recovered more txns than committed");
        // Every transaction fully durable *before* the torn write survives.
        let fully_acked = commit_end.iter().filter(|&&e| e <= t).count();
        prop_assert!(
            m >= fully_acked,
            "torn tail lost durable transactions: recovered {m}, durable {fully_acked}"
        );
        let expect = model_after(&txns, m);
        let got = rows_of(&rec);
        prop_assert_eq!(got, expect, "state mismatch at prefix {}", m);
        prop_assert_eq!(report.wal_end, rec.last_lsn());
    }

    #[test]
    fn btree_matches_model_under_random_ops(
        ops in prop::collection::vec(op_strategy(), 1..600),
    ) {
        let cfg = DbConfig { data_blocks: 8192, wal_blocks: 64, checkpoint_threshold: 0.8 };
        let (mut db, _) = MiniDb::create("model", cfg);
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            let tx = db.begin();
            match op {
                Op::Put(k, v) => {
                    db.put(tx, T, *k, v);
                    model.insert(*k, v.clone());
                }
                Op::Delete(k) => {
                    db.delete(tx, T, *k);
                    model.remove(k);
                }
            }
            let _ = db.commit(tx);
        }
        let got = rows_of(&db);
        prop_assert_eq!(got, model);
    }
}
