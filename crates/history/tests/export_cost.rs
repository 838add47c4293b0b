//! `export_jsonl` formats every field straight into its output: what it
//! allocates is the growth of that one string, not a temporary per record
//! or per number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use tsuru_history::{KeyVer, OpData, Recorder, Site, TxnOps};
use tsuru_sim::SimTime;

/// Counts the allocations of the thread that asks (`TRACK`).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: pure pass-through to the system allocator; the count is the only
// added behaviour and does not affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: sound iff the system allocator is — we only count and forward.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TRACK.try_with(|t| {
            if t.get() {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        });
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: sound iff the system allocator is — pure forwarding.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    let out = f();
    TRACK.with(|t| t.set(false));
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

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
