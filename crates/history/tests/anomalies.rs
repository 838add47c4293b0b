//! The anomaly fixture corpus: one hand-written history per anomaly
//! class the paper's failure modes can produce, each asserted to be
//! flagged with exactly the right [`AnomalyKind`] by the *top-level*
//! [`check_history`] entry point (not the individual checker), plus
//! property tests that valid histories — serial transaction schedules
//! and faithful append/observe interleavings — are never flagged.
//!
//! The fixtures double as documentation: each one is the minimal
//! client-visible shape of a real storage failure —
//!
//! * **G1c write cycle** — circular information flow between two
//!   committed transactions; no serial order explains both.
//! * **Lost update** — two transactions read the same version and both
//!   wrote it; one increment swallowed the other.
//! * **Lost append** — an acked append missing from the drained backup
//!   image (the paper's backup-consistency claim, falsified).
//! * **Stale backup read** — an observer's view of a list rewinds: a
//!   torn image served state older than one already observed.

use proptest::prelude::*;
use tsuru_history::{
    check_history, AnomalyKind, CheckConfig, KeyVer, OpData, Recorder, Site, TxnOps,
};
use tsuru_sim::SimTime;

fn kv(space: u32, key: u64, version: u64) -> KeyVer {
    KeyVer {
        space,
        key,
        version,
    }
}

/// Record a committed transaction with the given footprint.
fn commit(r: &Recorder, process: u32, t_us: u64, reads: Vec<KeyVer>, writes: Vec<KeyVer>) {
    let op = r.invoke(
        process,
        SimTime::from_micros(t_us),
        OpData::Transfer {
            from: 0,
            to: 1,
            amount: 1,
        },
    );
    r.ok(
        process,
        op,
        SimTime::from_micros(t_us + 1),
        OpData::Txn(TxnOps { reads, writes }),
    );
}

fn append(r: &Recorder, process: u32, t_us: u64, key: u64, value: u64) {
    let op = r.invoke(
        process,
        SimTime::from_micros(t_us),
        OpData::Append { key, value },
    );
    r.ok(
        process,
        op,
        SimTime::from_micros(t_us + 1),
        OpData::Txn(TxnOps::default()),
    );
}

fn read_list(r: &Recorder, process: u32, t_us: u64, key: u64, site: Site, values: &[u64]) {
    let op = r.invoke(
        process,
        SimTime::from_micros(t_us),
        OpData::ReadList { key, site },
    );
    r.ok(
        process,
        op,
        SimTime::from_micros(t_us),
        OpData::List {
            key,
            values: values.to_vec(),
        },
    );
}

/// The kinds flagged by a verdict, deduplicated in report order.
fn kinds(r: &Recorder) -> Vec<AnomalyKind> {
    let verdict = check_history(&r.history(), &CheckConfig::default());
    let mut out: Vec<AnomalyKind> = Vec::new();
    for a in verdict.anomalies() {
        if !out.contains(&a.kind) {
            out.push(a.kind);
        }
    }
    out
}

// ---------------------------------------------------------------- fixtures

#[test]
fn fixture_g1c_write_cycle() {
    let r = Recorder::enabled();
    // T1 installs x=1 and reads y=1; T2 installs y=1 and reads x=1.
    // Each saw the other's write: information flowed in a circle.
    commit(&r, 1, 10, vec![kv(1, 2, 1)], vec![kv(1, 1, 1)]);
    commit(&r, 2, 11, vec![kv(1, 1, 1)], vec![kv(1, 2, 1)]);
    assert_eq!(kinds(&r), vec![AnomalyKind::WriteCycle]);

    let verdict = check_history(&r.history(), &CheckConfig::default());
    let a = verdict.anomalies().next().expect("one anomaly");
    assert_eq!(a.ops.len(), 2, "both cycle members must be named: {a:?}");
    assert!(a.detail.contains("cycle"), "{}", a.detail);
}

#[test]
fn fixture_lost_update() {
    let r = Recorder::enabled();
    // Both transactions read version 0 of key 5 and both installed a
    // successor: whichever landed second erased the other's effect.
    commit(&r, 1, 10, vec![kv(3, 5, 0)], vec![kv(3, 5, 1)]);
    commit(&r, 2, 11, vec![kv(3, 5, 0)], vec![kv(3, 5, 2)]);
    assert_eq!(kinds(&r), vec![AnomalyKind::LostUpdate]);
}

#[test]
fn fixture_lost_append() {
    let r = Recorder::enabled();
    // Two acked appends; the drained backup image only recovered the
    // first — the second ack was a lie.
    append(&r, 1, 10, 7, 1);
    append(&r, 1, 20, 7, 2);
    read_list(&r, 1_001, 40, 7, Site::Primary, &[1, 2]);
    read_list(&r, 1_000, 50, 7, Site::BackupFinal, &[1]);
    assert_eq!(kinds(&r), vec![AnomalyKind::LostAppend]);

    let verdict = check_history(&r.history(), &CheckConfig::default());
    let lost = verdict
        .anomalies()
        .find(|a| a.kind == AnomalyKind::LostAppend)
        .expect("lost-append present");
    assert!(lost.detail.contains("[2]"), "{}", lost.detail);
    assert!(lost.detail.contains("backup"), "{}", lost.detail);
}

#[test]
fn fixture_stale_backup_read() {
    let r = Recorder::enabled();
    // The backup reader observed [1, 2], then a torn image served the
    // older [1]: client-visible time travel.
    append(&r, 1, 10, 0, 1);
    append(&r, 1, 20, 0, 2);
    read_list(&r, 1_000, 30, 0, Site::Backup, &[1, 2]);
    read_list(&r, 1_000, 40, 0, Site::Backup, &[1]);
    assert_eq!(kinds(&r), vec![AnomalyKind::StaleRead]);
}

#[test]
fn fixtures_name_offending_ops_in_history_order() {
    // Every corpus anomaly must carry a non-empty, sorted op
    // subsequence — the contract repro/chaos violations rely on.
    let fixtures: Vec<Recorder> = {
        let g1c = Recorder::enabled();
        commit(&g1c, 1, 10, vec![kv(1, 2, 1)], vec![kv(1, 1, 1)]);
        commit(&g1c, 2, 11, vec![kv(1, 1, 1)], vec![kv(1, 2, 1)]);
        let lost = Recorder::enabled();
        append(&lost, 1, 10, 7, 1);
        append(&lost, 1, 20, 7, 2);
        read_list(&lost, 1_000, 50, 7, Site::BackupFinal, &[1]);
        vec![g1c, lost]
    };
    for r in &fixtures {
        let verdict = check_history(&r.history(), &CheckConfig::default());
        assert!(!verdict.is_clean());
        for a in verdict.anomalies() {
            assert!(!a.ops.is_empty(), "anomaly without ops: {a:?}");
            let mut sorted = a.ops.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, a.ops, "ops out of history order: {a:?}");
        }
    }
}

// ---------------------------------------------- valid-history proptests

/// One transaction of a serial schedule: which keys to read, which to
/// write, drawn from a tiny keyspace so contention is guaranteed.
#[derive(Debug, Clone)]
struct SerialTxn {
    reads: Vec<u64>,
    writes: Vec<u64>,
    acked: bool,
}

fn serial_txn_strategy() -> impl Strategy<Value = SerialTxn> {
    (
        prop::collection::vec(0u64..4, 0..3),
        prop::collection::vec(0u64..4, 0..3),
        // Mostly acked; the occasional pending txn must be ignored.
        0u32..100,
    )
        .prop_map(|(reads, mut writes, ack_roll)| {
            writes.sort_unstable();
            writes.dedup();
            SerialTxn {
                reads,
                writes,
                acked: ack_roll < 85,
            }
        })
}

/// Execute `txns` one at a time against a version-chain model and
/// record the resulting history: reads observe the current version,
/// writes install the successor. By construction the history has a
/// serial explanation — its own execution order.
fn record_serial(txns: &[SerialTxn]) -> Recorder {
    let r = Recorder::enabled();
    let mut versions = [0u64; 4];
    for (i, txn) in txns.iter().enumerate() {
        let t = 10 * (i as u64 + 1);
        let process = (i % 3) as u32 + 1;
        let op = r.invoke(
            process,
            SimTime::from_micros(t),
            OpData::Transfer {
                from: 0,
                to: 1,
                amount: 1,
            },
        );
        if !txn.acked {
            continue; // pending: the model never applies it
        }
        let reads = txn
            .reads
            .iter()
            .map(|&k| kv(0, k, versions[k as usize]))
            .collect();
        let writes = txn
            .writes
            .iter()
            .map(|&k| {
                versions[k as usize] += 1;
                kv(0, k, versions[k as usize])
            })
            .collect();
        r.ok(
            process,
            op,
            SimTime::from_micros(t + 1),
            OpData::Txn(TxnOps { reads, writes }),
        );
    }
    r
}

/// A faithful append/observe script over one list: appends in order,
/// observers that only ever advance through the prefix chain.
#[derive(Debug, Clone)]
struct AppendScript {
    appends: usize,
    /// Per observer: strictly non-decreasing prefix lengths.
    observers: Vec<Vec<usize>>,
}

fn append_script_strategy() -> impl Strategy<Value = AppendScript> {
    (
        1usize..12,
        prop::collection::vec(prop::collection::vec(0usize..13, 1..4), 1..3),
    )
        .prop_map(|(appends, mut observers)| {
            for obs in &mut observers {
                for len in obs.iter_mut() {
                    *len = (*len).min(appends);
                }
                obs.sort_unstable(); // monotone views
            }
            AppendScript { appends, observers }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any serially executed transaction schedule — including pending
    /// txns that never complete — passes the full checker suite.
    #[test]
    fn valid_serial_histories_are_clean(
        txns in prop::collection::vec(serial_txn_strategy(), 1..24)
    ) {
        let r = record_serial(&txns);
        let verdict = check_history(&r.history(), &CheckConfig::default());
        prop_assert!(verdict.is_clean(), "{}", verdict.render());
        let committed = txns.iter().filter(|t| t.acked).count() as u64;
        let serial = verdict
            .reports
            .iter()
            .find(|rep| rep.checker == "serializable");
        if committed > 0 {
            prop_assert_eq!(
                serial.expect("serial checker ran").ops_checked,
                committed
            );
        }
    }

    /// Faithful append-list executions — every observer walking forward
    /// through the same prefix chain, the final images fully drained —
    /// pass the append checker through the top-level entry point.
    #[test]
    fn valid_append_histories_are_clean(script in append_script_strategy()) {
        let r = Recorder::enabled();
        let full: Vec<u64> = (1..=script.appends as u64).collect();
        for (i, &v) in full.iter().enumerate() {
            append(&r, 1, 10 * (i as u64 + 1), 0, v);
        }
        for (o, obs) in script.observers.iter().enumerate() {
            for (j, &len) in obs.iter().enumerate() {
                read_list(
                    &r,
                    1_000 + o as u32,
                    500 + 10 * j as u64,
                    0,
                    Site::Backup,
                    &full[..len],
                );
            }
        }
        read_list(&r, 2_000, 900, 0, Site::Primary, &full);
        read_list(&r, 2_001, 910, 0, Site::BackupFinal, &full);
        let verdict = check_history(&r.history(), &CheckConfig::default());
        prop_assert!(verdict.is_clean(), "{}", verdict.render());
    }
}
