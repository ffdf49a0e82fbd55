//! A one-sided read leaves a small record in its client's log: once a
//! read-heavy run is warm, more reads grow the peak live heap by a few
//! dozen bytes each, where a full `KvEvent` per read (its struct, a key
//! and a value copy) cost several times that.

#[path = "../../simnet/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{peak_live_bytes, reset_peak, CountingAlloc};
use kvstore::{kv_config, KvHarness, Stack, YcsbSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CLIENTS: usize = 4;
/// Operations per client before and during the measurement. Each
/// client's log holds about 475 reads after the warm-up and 975 after the
/// window, so its record list doubles once inside the window and the
/// bound pays for `Vec` growth.
const WARMUP: u64 = 500;
const MEASURED: u64 = 500;
/// Bytes of peak heap each measured read may add: about 1.5× the 27 B
/// that a 24-byte record per read and one doubling of the record list
/// measure. A `KvEvent` per read measured 120.
const BYTES_PER_READ: u64 = 40;

#[test]
fn more_onesided_reads_grow_the_peak_heap_by_a_small_record_each() {
    let mut h = KvHarness::build(Stack::Rubin, 2833, CLIENTS, kv_config(), 1024);
    // `kv_read_heavy`'s shape, 95 % gets over 64 zipfian keys, writes the
    // keys and values the measured reads find.
    let warmup = YcsbSpec::b(64);
    assert!(h.run_ycsb(&warmup, 1, WARMUP, 40_000_000), "warm-up wedged");
    let reads_before = h.total("kv_read_onesided");

    // Only reads in the window: a write's trip through agreement grows
    // the replicas' and the client's state by about 2 KiB, which is not
    // the read log's to answer for.
    let reads_only = YcsbSpec {
        read_ratio: 1.0,
        ..warmup
    };
    let base = reset_peak();
    assert!(
        h.run_ycsb(&reads_only, 2, MEASURED, 40_000_000),
        "run wedged"
    );
    let grown = peak_live_bytes() - base;
    let reads = h.total("kv_read_onesided") - reads_before;

    assert_eq!(reads, CLIENTS as u64 * MEASURED, "every read one-sided");
    assert!(
        grown <= reads * BYTES_PER_READ,
        "{reads} one-sided reads grew the peak heap by {grown} B ({} B/read)",
        grown / reads
    );
    h.check_history().expect("linearizable");
}
