//! What a pending event costs the host: its class's slot and one heap key,
//! so a queue of small timers stays small, and a warmed-up queue allocates
//! nothing for any closure it can store in place.

mod support {
    pub mod counting_alloc;
}

use std::hint::black_box;

use simnet::{Nanos, Simulator};
use support::counting_alloc::{allocs, peak_live_bytes, reset_peak, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn ns(n: u64) -> Nanos {
    Nanos::from_nanos(n)
}

/// Closures pending at once in [`pending_one_word_closures_stay_under_budget`]:
/// the open-loop arrivals `failover` schedules up front.
const PENDING: u64 = 4_000;

/// Peak heap while [`PENDING`] one-word closures are scheduled into an
/// empty queue. It reads 291,840 B: 63 chunks of 64 small slots of 56 B,
/// the chunk list, and a heap of 4,096 16-byte keys. While every event took
/// a 112-byte slot in one doubling `Vec`, it read about 0.5 MiB (524,288 B
/// for 4,096 slots and keys). The budget is about 15 % above the reading.
const PENDING_PEAK_BUDGET: u64 = 336_000;

#[test]
fn pending_one_word_closures_stay_under_budget() {
    let mut sim = Simulator::new(1);
    let base = reset_peak();
    for i in 0..PENDING {
        sim.schedule_in(ns(1_000 + i), move |_| {
            black_box(i);
        });
    }
    let peak = peak_live_bytes() - base;
    println!("{PENDING} pending one-word closures: peak {peak} B");
    assert!(
        peak <= PENDING_PEAK_BUDGET,
        "{PENDING} pending one-word closures peaked at {peak} B, over {PENDING_PEAK_BUDGET}"
    );
    sim.run_until_idle();
    assert_eq!(sim.executed_events(), PENDING);
}

/// `rounds` rounds of a standing window of small timers (16 B, due 20
/// rounds later, every third cancelled the next round) and large frame-like
/// deliveries (96 B, due within the round).
fn churn(sim: &mut Simulator, first: u64, rounds: u64) {
    let mut cancel = None;
    for r in first..first + rounds {
        if let Some(id) = cancel.take() {
            sim.cancel(id);
        }
        let id = sim.schedule_in(ns(200), move |_| {
            black_box((r, r));
        });
        if r % 3 == 0 {
            cancel = Some(id);
        }
        let frame = [r; 12];
        sim.schedule_in(ns(3), move |_| {
            black_box(frame);
        });
        sim.run_for(ns(10));
    }
}

#[test]
fn steady_churn_across_both_classes_allocates_nothing() {
    let mut sim = Simulator::new(1);
    churn(&mut sim, 0, 1_000);
    let before = allocs();
    churn(&mut sim, 1_000, 20_000);
    assert_eq!(allocs() - before, 0, "a warmed-up queue allocated");
    let s = sim.queue_stats();
    assert!(s.cancelled > 6_000 && s.high_water >= 10, "{s:?}");
}

#[test]
fn a_96_byte_closure_is_stored_in_place() {
    let mut sim = Simulator::new(1);
    // Warm both classes and the heap.
    churn(&mut sim, 0, 100);
    sim.run_until_idle();

    let bytes = [1u8; 96];
    let before = allocs();
    sim.schedule_in(ns(1), move |_| {
        black_box(bytes);
    });
    assert_eq!(allocs() - before, 0, "a 96 B closure allocated");
    sim.run_until_idle();
}
