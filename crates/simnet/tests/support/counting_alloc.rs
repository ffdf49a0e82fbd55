//! A per-thread counting allocator for the allocation tests
//! (`metrics_alloc.rs` here, `tests/alloc_budget.rs` and
//! `tests/world_drop.rs` at the repository root). The harness runs each
//! test on its own thread, so a test sees exactly its own heap traffic.

// Each test binary that includes this file reads its own subset.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    // `const` initialisers and no destructors: safe to touch from inside
    // the allocator at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let live = LIVE
        .try_with(|c| {
            c.set(c.get() + size as u64);
            c.get()
        })
        .unwrap_or(0);
    let _ = PEAK.try_with(|c| c.set(c.get().max(live)));
}

fn on_free(size: usize) {
    // Saturating: a block may be freed on another thread than allocated it.
    let _ = LIVE.try_with(|c| c.set(c.get().saturating_sub(size as u64)));
}

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) the calling
/// thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.with(Cell::get)
}

/// Restarts peak tracking from the current live heap and returns it.
pub fn reset_peak() -> u64 {
    let live = live_bytes();
    PEAK.with(|c| c.set(live));
    live
}

/// Highest [`live_bytes`] since the last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counting touches only thread-local `Cell`s and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // always forwards to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}
