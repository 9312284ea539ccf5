//! Counting global allocator behind the per-layer `host.*` metrics.
//!
//! Heap calls feed `simcore::hostprof`'s thread-local counters only after
//! [`count_allocations`]: the end-to-end run never turns counting on and
//! pays one relaxed atomic load per heap call.

use simcore::hostprof;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether heap calls are counted. It publishes no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Starts counting this process's heap calls.
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

struct CountingAlloc;

// SAFETY: every method delegates to `System`, which upholds the
// `GlobalAlloc` contract. The bookkeeping reads an atomic flag and bumps
// `hostprof`'s const-initialised thread-local cells, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && counting() {
            hostprof::record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && counting() {
            hostprof::record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if counting() {
            hostprof::record_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && counting() {
            hostprof::record_realloc(layout.size(), new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
