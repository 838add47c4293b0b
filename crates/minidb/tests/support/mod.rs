//! A counting global allocator for the test binaries that pin allocation
//! costs (`catch_up.rs`, `value_cost.rs`): `mod support;` installs it for
//! the binary, [`allocations`] counts what a closure allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the allocations of the thread that asks (`TRACK`): the other
/// tests of this binary run beside the one that counts.
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
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    let out = f();
    TRACK.with(|t| t.set(false));
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}
