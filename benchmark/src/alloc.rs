//! Counting global allocator: the host-side cost that repeats exactly.
//!
//! Host seconds on the shared box move by tens of percent between
//! back-to-back identical laps; the number of heap allocations a lap makes
//! does not move at all. The benchmark binary therefore installs this
//! allocator and reports allocations, bytes requested and peak live heap
//! as its host-side end-to-end metrics.
//!
//! Counters are per thread (the simulator is single-threaded and
//! `Rc`-based, so the measuring thread sees all of its own traffic), which
//! also keeps the exact-count unit test independent of whatever the test
//! harness allocates on other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

thread_local! {
    // `const` initialisers and no destructors: safe to touch from inside
    // the allocator at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    let size = size as u64;
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size));
    let live = LIVE
        .try_with(|c| {
            c.set(c.get() + size);
            c.get()
        })
        .unwrap_or(0);
    let _ = PEAK.try_with(|c| {
        if live > c.get() {
            c.set(live);
        }
    });
}

fn on_free(size: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get().saturating_sub(size as u64)));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the bookkeeping around the calls touches only
// thread-local `Cell`s and never allocates.
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

/// Tells the system allocator to serve every block of 64 KiB or more from
/// its own `mmap` and to give it back with `munmap`.
///
/// The comm stacks register hundreds of megabytes of zeroed buffers per
/// group (`alloc_zeroed`). glibc raises its mmap threshold the first time
/// such a block is freed, after which the next lap's buffers are carved
/// from recycled heap and must be zeroed — and page-faulted — by hand:
/// set-up took 0.09 s in a process's first lap and 1.3 s in every later
/// one. Pinning the threshold makes every lap start from the same
/// allocator state, so `setup_s` measures the program, not the lap's
/// position in the run. Counts and bytes are unaffected.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores the tunable; it is called once,
        // before any other thread exists, with a parameter and value glibc
        // documents as valid. A refusal (return 0) changes nothing.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 64 * 1024);
        }
    }
}

/// A reading of the calling thread's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocReading {
    /// Heap allocations so far (`alloc` + `alloc_zeroed` + `realloc`).
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads the calling thread's counters. Does not allocate.
pub fn read() -> AllocReading {
    AllocReading {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        live: LIVE.with(Cell::get),
        peak: PEAK.with(Cell::get),
    }
}

/// Restarts peak tracking from the current live heap (once per lap) and
/// returns that baseline, so a lap can report its own growth whatever
/// earlier laps left behind.
pub fn reset_peak() -> u64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live));
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_pattern_counts_exactly() {
        reset_peak();
        let before = read();
        let a: Vec<u8> = Vec::with_capacity(1000);
        let mut b: Vec<u8> = Vec::with_capacity(10);
        b.extend_from_slice(&[0u8; 10]);
        b.reserve_exact(90); // one realloc to 100 bytes
        let boxed = Box::new([0u64; 4]);
        let mid = read();
        assert_eq!(mid.allocs - before.allocs, 4, "3 allocs + 1 realloc");
        assert_eq!(mid.bytes - before.bytes, 1000 + 10 + 100 + 32);
        assert_eq!(mid.live - before.live, 1000 + 100 + 32);
        drop(a);
        drop(b);
        drop(boxed);
        let after = read();
        assert_eq!(after.live, before.live, "everything freed");
        assert_eq!(after.allocs, mid.allocs, "frees are not allocations");
        assert!(after.peak - before.live >= 1000 + 100 + 32);
    }

    #[test]
    fn reset_peak_forgets_earlier_high_water() {
        let big: Vec<u8> = Vec::with_capacity(1 << 20);
        drop(big);
        reset_peak();
        let r = read();
        assert_eq!(r.peak, r.live);
    }
}
