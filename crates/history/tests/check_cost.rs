//! Judging a history costs allocations independent of its length: the
//! checkers read the recorder's arena in place, borrow every footprint and
//! observation, and keep their chains in arrays sized once — so twice the
//! history is the same number of allocations.

use tsuru_allocs::{allocations, CountingAlloc};
use tsuru_history::{space, CheckConfig, KeyVer, OpData, Recorder, Site, TxnOps, Verdict};
use tsuru_sim::SimTime;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// A clean history of about `records` records from all three checkers'
/// workloads: orders and appends committed as serial transactions (each
/// reads the current version of its key and installs the next), a mid-run
/// backup read of the shop and of the list every 100 orders, then the final
/// primary and backup reads.
fn clean_history(records: usize) -> Recorder {
    let r = Recorder::enabled();
    let t = SimTime::from_micros;
    let (mut orders, mut list) = (Vec::new(), Vec::new());
    let commit = |key: KeyVer| {
        OpData::Txn(TxnOps {
            reads: vec![KeyVer {
                version: key.version - 1,
                ..key
            }],
            writes: vec![key],
        })
    };
    let read = |site, orders: &[u64], list: &[u64], at: u64| {
        let op = r.invoke(1_000, t(at), OpData::ReadShop { site });
        let shop = OpData::Shop {
            orders: orders.to_vec(),
            deltas: vec![(1, orders.len() as u64)],
        };
        r.ok(1_000, op, t(at), shop);
        let op = r.invoke(1_000, t(at), OpData::ReadList { key: 0, site });
        let values = list.to_vec();
        r.ok(1_000, op, t(at), OpData::List { key: 0, values });
    };
    let mut n = 0u64;
    while (r.len() as usize) + 16 < records {
        n += 1;
        let order = OpData::Order {
            order_id: n,
            item: 1,
            quantity: 1,
        };
        let op = r.invoke(1, t(n), order);
        let stock = r.install_version(space::STOCK, 1);
        r.ok(
            1,
            op,
            t(n),
            commit(KeyVer {
                space: space::STOCK,
                key: 1,
                version: stock,
            }),
        );
        orders.push(n);
        let op = r.invoke(2, t(n), OpData::Append { key: 0, value: n });
        let version = r.install_version(space::LISTS, 0);
        r.ok(
            2,
            op,
            t(n),
            commit(KeyVer {
                space: space::LISTS,
                key: 0,
                version,
            }),
        );
        list.push(n);
        if n % 100 == 0 {
            read(Site::Backup, &orders[..8], &list[..8], n);
        }
    }
    read(Site::Primary, &orders, &list, n + 1);
    read(Site::BackupFinal, &orders, &list, n + 1);
    r
}

/// Allocations of one in-place judgement of `r`, and its verdict.
fn judge(r: &Recorder) -> (u64, Verdict) {
    allocations(|| r.check(&CheckConfig::default()))
}

#[test]
fn judging_allocates_the_same_at_any_length() {
    let (small, large) = (clean_history(2_000), clean_history(4_000));
    let (small_allocs, verdict) = judge(&small);
    assert!(verdict.is_clean(), "{}", verdict.render());
    assert_eq!(
        verdict
            .reports
            .iter()
            .map(|r| r.checker)
            .collect::<Vec<_>>(),
        ["serializable", "append", "shop", "image"]
    );
    let (large_allocs, verdict) = judge(&large);
    assert!(verdict.is_clean(), "{}", verdict.render());
    assert!(verdict.ops_checked() > 3_000, "{}", verdict.render());
    // No allocation per record, per transaction or per observation: 22
    // allocations at either length (the arrays each checker sizes once, its
    // reports), with room for a reused scratch vector to double once more.
    assert!(
        large_allocs <= small_allocs + 2 && large_allocs <= 32,
        "{small_allocs} allocations at {} records, {large_allocs} at {}",
        small.len(),
        large.len()
    );
    // The snapshot a test may take instead judges alike.
    assert_eq!(large.check(&CheckConfig::default()), verdict);
    assert_eq!(
        tsuru_history::check_history(&large.history(), &CheckConfig::default()),
        verdict
    );
}
