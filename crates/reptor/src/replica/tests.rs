use super::inbound::SUSPICION_FLOOR;
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

/// A cluster whose replicas have each measured a few executed requests.
fn warmed(seed: u64) -> Cluster {
    let mut c = cluster(64, seed);
    c.submit_sequentially((0..8).map(|_| b"inc".to_vec()));
    c
}

fn suspicion_time(r: &Replica) -> Nanos {
    r.inner.borrow().suspicion_time()
}

#[test]
fn suspicion_time_is_the_configured_timeout_before_any_sample() {
    let c = cluster(64, 43);
    for r in &c.replicas {
        assert_eq!(suspicion_time(r), c.cfg.view_change_timeout);
    }
    let ceiling = Nanos::from_millis(40);
    assert_eq!(Suspicion::default().time(ceiling), ceiling);
}

#[test]
fn suspicion_time_stays_between_the_floor_and_the_ceiling() {
    let ceiling = Nanos::from_millis(40);
    let mut fast = Suspicion::default();
    for _ in 0..32 {
        fast.observe(Nanos::from_micros(1));
    }
    assert_eq!(fast.time(ceiling), SUSPICION_FLOOR);
    let mut slow = Suspicion::default();
    for _ in 0..32 {
        slow.observe(Nanos::from_secs(1));
    }
    assert_eq!(slow.time(ceiling), ceiling);
    // A ceiling below the floor wins: the configuration is the bound.
    assert_eq!(fast.time(Nanos::from_millis(2)), Nanos::from_millis(2));
    // A LAN group measures well under the floor.
    let c = warmed(44);
    for r in &c.replicas[1..] {
        assert_eq!(suspicion_time(r), SUSPICION_FLOOR, "replica {}", r.id());
    }
}

#[test]
fn slow_samples_raise_the_suspicion_time() {
    // A uniformly slower group, such as a WAN cluster with 20 ms commits,
    // is timed from its own latency and not suspected at the LAN floor.
    let ceiling = Nanos::from_secs(1);
    let mut s = Suspicion::default();
    for _ in 0..32 {
        s.observe(Nanos::from_micros(200));
    }
    assert_eq!(s.time(ceiling), SUSPICION_FLOOR);
    s.observe(Nanos::from_millis(20));
    assert!(
        s.time(ceiling) > SUSPICION_FLOOR,
        "one slow sample raises it"
    );
    for _ in 0..32 {
        s.observe(Nanos::from_millis(20));
    }
    // Once the deviation has decayed, `T` rests near 4 × the latency.
    let t = s.time(ceiling);
    assert!(
        (Nanos::from_millis(80)..Nanos::from_millis(120)).contains(&t),
        "settled at {t}"
    );
}

#[test]
fn restart_returns_the_suspicion_time_to_the_configured_timeout() {
    let mut c = warmed(45);
    assert!(suspicion_time(&c.replicas[2]) < c.cfg.view_change_timeout);
    c.replicas[2].restart(&mut c.sim, Box::new(CounterService::default()));
    assert_eq!(suspicion_time(&c.replicas[2]), c.cfg.view_change_timeout);
}

#[test]
fn view_change_escalation_doubles_from_the_suspicion_time() {
    let c = warmed(46);
    let r = c.replicas[1].inner.clone();
    let t = r.borrow().suspicion_time();
    assert_eq!(t, SUSPICION_FLOOR);
    for attempts in 1..=3 {
        r.borrow_mut().vc_attempts = attempts;
        assert_eq!(r.borrow().escalation_delay(), t * (1 << attempts));
    }
}

#[test]
fn a_wan_group_is_timed_from_its_own_latency() {
    // On a WAN a request takes 77–209 ms from arrival to execution, so each
    // replica's suspicion time lands between the LAN floor and the ceiling
    // the topology raises (744 ms on three regions, 904 ms on five):
    // 316–750 ms here, shorter near the primary than far from it.
    for topo in [
        simnet::LatencyMatrix::three_region_wan(),
        simnet::LatencyMatrix::five_region_wan(),
    ] {
        let mut c = Cluster::sim_transport_geo(ReptorConfig::small(), 1, 1, 47, &topo, || {
            Box::new(CounterService::default())
        });
        let ceiling = c.cfg.view_change_timeout;
        assert_eq!(ceiling, topo.suggested_timeout());
        c.submit_sequentially((0..16).map(|_| b"inc".to_vec()));
        for r in &c.replicas {
            let t = suspicion_time(r);
            assert!(
                Nanos::from_millis(300) < t && t < ceiling,
                "replica {}: {t} against a ceiling of {ceiling}",
                r.id()
            );
        }
    }
}

#[test]
fn only_the_primarys_own_authenticated_word_counts_as_hearing_it() {
    let mut c = cluster(8, 48);
    c.sim.run_for(Nanos::from_millis(1));
    let backup = c.replicas[1].inner.clone();
    let heard_at = || backup.borrow().primary_heard_at;
    let keys = |id| KeyTable::new(id, crate::cluster::DOMAIN_SECRET.to_vec());
    let (primary, other) = (keys(0), keys(2));
    // Any message works: a catch-up request names its author.
    let from = |replica| Message::CatchUpRequest {
        from_seq: 1,
        replica,
    };
    let receivers = [0, 1, 2, 3];
    let mut forged = from(0).seal(&primary, &receivers);
    corrupt_macs(&mut forged, receivers.len());
    let hearsay = from(0).seal(&other, &receivers);
    let backups_own = from(2).seal(&other, &receivers);
    for (wire, what) in [
        (&forged, "a frame whose MAC fails"),
        (&hearsay, "a backup speaking in the primary's name"),
        (&backups_own, "a backup's own message"),
    ] {
        backup.borrow_mut().on_raw(&mut c.sim, 0, wire);
        assert_eq!(heard_at(), Nanos::ZERO, "{what} is not the primary");
    }
    let dropped = backup.borrow().stats.bad_mac_dropped;
    assert_eq!(dropped, 2, "the forged frame and the hearsay were refused");

    let now = c.sim.now();
    backup
        .borrow_mut()
        .on_raw(&mut c.sim, 0, &from(0).seal(&primary, &receivers));
    assert_eq!(heard_at(), now, "the primary's own message");
    c.sim.run_for(Nanos::from_millis(1));
    backup.borrow_mut().on_raw(&mut c.sim, 0, &backups_own);
    assert_eq!(heard_at(), now, "a later backup message moves nothing");
}
