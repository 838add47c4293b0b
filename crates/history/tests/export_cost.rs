//! `export_jsonl` formats every field straight into its output: what it
//! allocates is the growth of that one string, not a temporary per record
//! or per number.

use tsuru_allocs::{allocations, CountingAlloc};
use tsuru_history::{KeyVer, OpData, Recorder, Site, TxnOps};
use tsuru_sim::SimTime;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// 1 000 records of every shape that carries numbers or lists: the output
/// string doubles its way to ≈ 100 KB (17 growths from empty at most).
#[test]
fn export_allocates_for_its_output_string_only() {
    let r = Recorder::enabled();
    for i in 0..250u64 {
        let t = SimTime::from_micros(i);
        let op = r.invoke(
            1,
            t,
            OpData::Order {
                order_id: i,
                item: i % 7,
                quantity: 2,
            },
        );
        let ver = |version| KeyVer {
            space: 1,
            key: i % 7,
            version,
        };
        r.ok(
            1,
            op,
            t,
            OpData::Txn(TxnOps {
                reads: vec![ver(i)],
                writes: vec![ver(i + 1)],
            }),
        );
        let op = r.invoke(2, t, OpData::ReadShop { site: Site::Backup });
        let shop = OpData::Shop {
            orders: (0..20).collect(),
            deltas: (0..7).map(|item| (item, i)).collect(),
        };
        r.ok(2, op, t, shop);
    }
    let (n, out) = allocations(|| r.export_jsonl());
    assert_eq!(out.lines().count(), 1_000);
    assert!(out.len() > 50_000);
    assert!(
        (1..=20).contains(&n),
        "{n} allocations for a 1 000-record export"
    );
}
