//! Counting global allocator: the deterministic half of host cost.
//!
//! Allocation *counts* of a single-threaded deterministic program repeat
//! exactly, so `allocs_per_unit` can be compared across commits without
//! the noise wall-clock carries. Only the count is kept; sizes and frees
//! would double the bookkeeping for no extra signal.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus one counter bump per allocation.
pub struct Counting;

thread_local! {
    // Per thread, not one shared atomic: the workloads run on one thread,
    // and a shared counter makes the two workers of the harness driver
    // fight over its cache line (measured: 2 threads slower than 1).
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller already upholds; the counter
// bump touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is forwarded as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` describe a live `System` allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Pin glibc's mmap threshold at its default of 128 KiB, which switches
/// its adaptive raising of that threshold off.
///
/// Left adaptive, the threshold rises to the size of the largest mmapped
/// block freed so far, after which minidb's 4 MiB WAL images (`vec![0; n]`,
/// two per recovery) are carved from recycled heap memory that `calloc`
/// must clear, where fresh mmapped pages arrive zeroed and untouched. Which side a run lands on depends on
/// its allocation history: `chaos_history` took 3.8 s or 8.3 s per
/// iteration depending on the seed, and 7.0 s then 3.4 s within one run of
/// one seed (README, "Findings"). Pinned, every large buffer costs what it
/// costs at the start of any process, whatever was freed before.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        // SAFETY: `mallopt(3)` takes two plain integers and may be called at
        // any time; it is called here before `main` starts a second thread.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
    }
}

/// Allocations (alloc + alloc_zeroed + realloc calls) the calling thread
/// has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}
