//! A counting global allocator: the benchmark's exact allocation counts.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`;
//! every allocation made anywhere in the process bumps two relaxed
//! counters, and [`snapshot`] reads them. Counts are exact and
//! deterministic for a deterministic single-threaded region, which is how
//! `kernel.allocs_per_sim` is measured. Without the allocator installed
//! (unit and integration tests) the counters stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, plus a count of allocations and requested bytes.
pub struct CountingAlloc;

fn count(size: usize) {
    // Statistics only: the counters publish no other data, so `Relaxed`
    // is enough.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are exactly the ones callers get;
// the counters touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` since process start. A `realloc`
/// counts as one allocation of its new size.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
