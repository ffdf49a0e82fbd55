//! The telemetry hot path allocates nothing: once a handle has found its
//! slot, a bump is an indexed add.

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
    }
    assert_eq!(allocs() - before, 0, "bumps through resolved handles");

    assert_eq!(
        m.counter("host.h0.syscalls"),
        1 + BUMPS + BUMPS * (BUMPS - 1) / 2
    );
    assert_eq!(m.gauge("sim.events_pending"), BUMPS as i64 - 1);
    assert_eq!(m.counter("widget.w0.spins"), 1 + BUMPS);
    assert_eq!(m.counter("widget.w0.jams"), 2 * BUMPS);
}

#[test]
fn by_name_bumps_of_existing_keys_allocate_nothing() {
    let m = Metrics::new();
    m.incr("a.b.c");
    m.set_gauge("a.b.g", 1);
    let before = allocs();
    for i in 0..BUMPS {
        m.incr("a.b.c");
        m.set_gauge("a.b.g", i as i64);
        assert_eq!(m.total("c"), i + 2);
    }
    assert_eq!(allocs() - before, 0, "lookups of existing keys and totals");
}

#[test]
fn histogram_observations_allocate_only_to_grow_the_sample_vector() {
    let m = Metrics::new();
    let histo = m.histo_handle("reptor.r0.phase.commit_ns");
    histo.observe(0);
    let before = allocs();
    for i in 0..BUMPS {
        histo.observe(i);
    }
    let grown = allocs() - before;
    // A doubling `Vec<u64>` reaches 10 001 samples in at most
    // log2(10 001) < 14 steps.
    assert!(grown <= 14, "{grown} allocations for {BUMPS} observations");
    assert_eq!(
        m.histogram("reptor.r0.phase.commit_ns").unwrap().count(),
        BUMPS + 1
    );
}
