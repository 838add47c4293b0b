//! # tsuru-allocs — the counting allocator behind the allocation bounds
//!
//! Allocation counts are the workspace's deterministic cost number: for a
//! given binary and seed they do not move, so a test can pin one exactly.
//! [`CountingAlloc`] forwards to the system allocator and counts, per
//! thread, the allocations a thread makes while it is inside
//! [`allocations`]. libtest's own threads and the other tests of a binary
//! run beside the one that counts, and none of their allocations land in
//! its count.
//!
//! A global allocator is process-wide, so each test binary that counts
//! installs this one itself:
//!
//! ```text
//! use tsuru_allocs::{allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static A: CountingAlloc = CountingAlloc;
//!
//! let (n, v) = allocations(|| vec![1u8]);
//! assert_eq!(n, 1);
//! ```
//!
//! This crate holds the workspace's only `unsafe`: the `GlobalAlloc`
//! contract is `unsafe` to implement, and forwarding it is all it does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// A pass-through to [`System`] that counts the allocations of every
/// thread inside [`allocations`]. Install it with `#[global_allocator]`.
pub struct CountingAlloc;

/// Set by the first allocation that goes through [`CountingAlloc`]:
/// [`allocations`] refuses to report a count no allocator kept.
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; counting touches two const-initialized
// thread-locals, which neither allocate nor affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Ordering::Relaxed);
        // try_with: a thread's locals may be mid-teardown; an allocation
        // there is outside every count anyway.
        let _ = TRACK.try_with(|t| {
            if t.get() {
                COUNT.with(|c| c.set(c.get() + 1));
            }
        });
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`; it is passed on as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from the system
        // allocator, for this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` and return how many allocations this thread made inside it,
/// with `f`'s result. Nested calls each count their own closure.
///
/// # Panics
/// Panics if [`CountingAlloc`] is not this binary's global allocator: a
/// count of zero would then pass every bound.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    assert!(
        INSTALLED.load(Ordering::Relaxed),
        "tsuru_allocs::CountingAlloc is not this binary's #[global_allocator]"
    );
    let before = COUNT.with(Cell::get);
    let was = TRACK.with(|t| t.replace(true));
    let out = f();
    TRACK.with(|t| t.set(was));
    (COUNT.with(Cell::get) - before, out)
}

#[cfg(test)]
mod tests {
    use std::hint::black_box;

    use super::*;

    #[global_allocator]
    static A: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_each_allocation_inside_the_closure_once() {
        let (n, kept) = allocations(|| (black_box(vec![1u8]), black_box(Box::new(2u64))));
        assert_eq!(n, 2);
        drop(kept);
        let (outer, inner) = allocations(|| {
            let a = black_box(vec![0u8; 8]);
            let (inner, b) = allocations(|| black_box(vec![0u8; 8]));
            drop((a, b));
            inner
        });
        assert_eq!(
            (outer, inner),
            (2, 1),
            "a nested count is part of its caller's"
        );
        assert_eq!(allocations(|| black_box(1u64)).0, 0);
    }
}
