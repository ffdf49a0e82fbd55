use super::*;
use crate::{Cluster, CounterService};

fn cluster(interval: u64, seed: u64) -> Cluster {
    Cluster::sim_transport(
        ReptorConfig {
            checkpoint_interval: interval,
            ..ReptorConfig::small()
        },
        1,
        seed,
        || Box::new(CounterService::default()),
    )
}

#[test]
fn watermark_window_boundaries() {
    let c = cluster(8, 40);
    let r = &c.replicas[1];
    // Window is (low_mark, low_mark + 2L] with L = 8, low_mark = 0.
    assert!(!r.in_watermarks(0), "the low mark itself is outside");
    assert!(r.in_watermarks(1), "first seq past the low mark");
    assert!(r.in_watermarks(16), "the high watermark is inclusive");
    assert!(!r.in_watermarks(17), "one past the high watermark");
}

#[test]
fn slot_not_recycled_while_occupant_in_window() {
    let c = cluster(8, 42);
    let r = &c.replicas[1];
    // L = 8 → 16 slots; seq 3 and seq 19 share slot 3.
    assert!(r.slot_accept_for_test(3), "fresh slot accepts");
    assert!(r.slot_accept_for_test(3), "leader retransmit is idempotent");
    assert!(
        !r.slot_accept_for_test(19),
        "slot must not be recycled while seq 3 is in the window but uncommitted"
    );
    // Checkpoint GC stabilises through seq 8: occupant 3 retires.
    r.gc_slots_for_test(8);
    assert!(
        r.slot_accept_for_test(19),
        "after the occupant is checkpointed the slot is reusable"
    );
}

#[test]
fn pre_prepare_at_high_watermark_accepted_one_past_rejected() {
    let mut c = cluster(8, 41);
    let batch = vec![Request {
        client: 4,
        timestamp: 1,
        payload: b"inc".to_vec(),
    }];
    let digest = batch_digest(&batch);
    c.replicas[1].inject_message(
        &mut c.sim,
        Message::PrePrepare {
            view: 0,
            seq: 16, // exactly low_mark + 2 * checkpoint_interval
            digest,
            batch: batch.clone(),
        },
    );
    c.settle();
    assert_eq!(
        c.replicas[1].stats().prepares_sent,
        1,
        "seq == high watermark must be accepted"
    );
    c.replicas[1].inject_message(
        &mut c.sim,
        Message::PrePrepare {
            view: 0,
            seq: 17,
            digest,
            batch,
        },
    );
    c.settle();
    assert_eq!(
        c.replicas[1].stats().prepares_sent,
        1,
        "seq == high watermark + 1 must be rejected"
    );
}

#[test]
fn rejoin_probe_backoff_matches_reconnect_schedule() {
    let base = Nanos::from_millis(40);
    let delays: Vec<u64> = (0..8).map(|a| backoff(base, a).as_nanos()).collect();
    assert_eq!(delays[0], base.as_nanos(), "first probe fires after base");
    // Doubles per attempt up to the cap...
    for (i, w) in delays.windows(2).take(5).enumerate() {
        assert_eq!(w[1], w[0] * 2, "attempt {i} must double");
    }
    // ...then stays clamped at base << 5, the transport reconnect cap.
    assert_eq!(delays[5], base.as_nanos() << 5);
    assert_eq!(delays[6], delays[5], "cap holds past attempt 5");
    assert_eq!(delays[7], delays[5], "cap holds past attempt 5");
}
