//! The telemetry hot path allocates nothing: once a handle has found its
//! slot, a bump is an indexed add, and a by-name total reads in place.

mod support {
    pub mod counting_alloc;
}

use simnet::metrics::{Counters, Metrics};
use support::counting_alloc::{allocs, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BUMPS: u64 = 10_000;

simnet::metric_names! {
    enum WidgetCounter {
        Spins => "spins",
        Jams => "jams",
    }
}

#[test]
fn resolved_counter_and_gauge_handles_allocate_nothing() {
    let m = Metrics::new();
    let counter = m.counter_handle("host.h0.syscalls");
    let gauge = m.gauge_handle("sim.events_pending");
    let table: Counters<WidgetCounter> = m.counters("widget.w0.");
    // The first bump of each handle finds (here: creates) its slot.
    counter.incr();
    gauge.set(0);
    table[WidgetCounter::Spins].incr();
    table[WidgetCounter::Jams].add(0);

    let before = allocs();
    for i in 0..BUMPS {
        counter.incr();
        counter.add(i);
        gauge.set(i as i64);
        table[WidgetCounter::Spins].incr();
        table[WidgetCounter::Jams].add(2);
        assert_eq!(m.total("spins"), i + 2);
    }
    assert_eq!(
        allocs() - before,
        0,
        "bumps through resolved handles and totals"
    );

    assert_eq!(
        m.counter("host.h0.syscalls"),
        1 + BUMPS + BUMPS * (BUMPS - 1) / 2
    );
    assert_eq!(m.gauge("sim.events_pending"), BUMPS as i64 - 1);
    assert_eq!(m.counter("widget.w0.spins"), 1 + BUMPS);
    assert_eq!(m.counter("widget.w0.jams"), 2 * BUMPS);
}

#[test]
fn histogram_observations_allocate_only_to_grow_the_value_vectors() {
    let m = Metrics::new();
    // Repeats of values already seen bump a count in place.
    let repeats = m.histo_handle("reptor.r0.phase.commit_ns");
    for v in 0..64 {
        repeats.observe(v);
    }
    let before = allocs();
    for i in 0..BUMPS {
        repeats.observe(i % 64);
    }
    assert_eq!(
        allocs() - before,
        0,
        "{BUMPS} observations of 64 seen values"
    );

    // Each new value is inserted into two doubling vectors (values and
    // counts), each reaching 10 001 entries in at most log2(10 001) < 14
    // steps.
    let distinct = m.histo_handle("reptor.r0.phase.execute_ns");
    distinct.observe(0);
    let before = allocs();
    for i in 1..=BUMPS {
        distinct.observe(i);
    }
    let grown = allocs() - before;
    assert!(
        grown <= 28,
        "{grown} allocations for {BUMPS} distinct values"
    );

    let summary = m.histogram("reptor.r0.phase.commit_ns").unwrap().summary();
    assert_eq!(
        (summary.count, summary.min, summary.max),
        (64 + BUMPS, 0, 63)
    );
    let summary = m.histogram("reptor.r0.phase.execute_ns").unwrap().summary();
    assert_eq!(
        (summary.count, summary.p50, summary.max),
        (BUMPS + 1, BUMPS / 2, BUMPS)
    );
}
