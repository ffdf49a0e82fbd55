use super::inbound::SUSPICION_FLOOR;
use super::*;
use crate::codec::Codec;
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
    let r = c.replicas[1].inner.borrow();
    // Window is (low_mark, low_mark + 2L] with L = 8, low_mark = 0.
    assert!(!r.in_watermarks(0), "the low mark itself is outside");
    assert!(r.in_watermarks(1), "first seq past the low mark");
    assert!(r.in_watermarks(16), "the high watermark is inclusive");
    assert!(!r.in_watermarks(17), "one past the high watermark");
}

#[test]
fn slot_not_recycled_while_occupant_in_window() {
    let c = cluster(8, 42);
    let mut r = c.replicas[1].inner.borrow_mut();
    // L = 8 → 16 slots; seq 3 and seq 19 share slot 3.
    assert!(r.slot_accept(3), "fresh slot accepts");
    assert!(r.slot_accept(3), "leader retransmit is idempotent");
    assert!(
        !r.slot_accept(19),
        "slot must not be recycled while seq 3 is in the window but uncommitted"
    );
    // Checkpoint GC stabilises through seq 8: the low watermark advances
    // and occupant 3 retires.
    r.low_mark = 8;
    r.slot_seqs.retain(|_, s| *s > 8);
    assert!(
        r.slot_accept(19),
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
    // A body byte flipped in flight: no MAC verifies over what arrives.
    forged[4] ^= 0xFF;
    let hearsay = from(0).seal(&other, &receivers);
    let backups_own = from(2).seal(&other, &receivers);
    for (wire, what) in [
        (&forged, "a frame whose MAC fails"),
        (&hearsay, "a backup speaking in the primary's name"),
        (&backups_own, "a backup's own message"),
    ] {
        backup.borrow_mut().on_raw(&mut c.sim, wire);
        assert_eq!(heard_at(), Nanos::ZERO, "{what} is not the primary");
    }
    let dropped = backup.borrow().stats.bad_mac_dropped;
    assert_eq!(dropped, 2, "the forged frame and the hearsay were refused");

    let now = c.sim.now();
    backup
        .borrow_mut()
        .on_raw(&mut c.sim, &from(0).seal(&primary, &receivers));
    assert_eq!(heard_at(), now, "the primary's own message");
    c.sim.run_for(Nanos::from_millis(1));
    backup.borrow_mut().on_raw(&mut c.sim, &backups_own);
    assert_eq!(heard_at(), now, "a later backup message moves nothing");
}

/// Four 1 KiB requests: a 4 KB batch.
fn four_kib_batch() -> Vec<Request> {
    (1..=4)
        .map(|timestamp| Request {
            client: 4,
            timestamp,
            payload: vec![7; 1024],
        })
        .collect()
}

#[test]
fn a_pre_prepare_macs_its_header_and_its_digest_binds_the_batch() {
    let mut c = cluster(8, 49);
    let backup = c.replicas[1].inner.clone();
    let primary = KeyTable::new(0, crate::cluster::DOMAIN_SECRET.to_vec());
    let batch = four_kib_batch();
    let msg = Message::PrePrepare {
        view: 0,
        seq: 1,
        digest: batch_digest(&batch),
        batch,
    };
    let wire = msg.seal(&primary, &[1, 2, 3]);
    let stats = || {
        let s = backup.borrow().stats;
        (
            s.bad_mac_dropped,
            s.digest_mismatch_dropped,
            s.prepares_sent,
        )
    };
    // The body's last byte is the batch's: the header MAC still verifies,
    // and the digest check refuses the batch.
    let mut batch_flipped = wire.clone();
    batch_flipped[4 + msg.encoded_len() - 1] ^= 0xFF;
    backup.borrow_mut().on_raw(&mut c.sim, &batch_flipped);
    assert_eq!(stats(), (0, 1, 0), "refused by the digest and counted");
    // A header byte (the view's) flipped fails the MAC.
    let mut header_flipped = wire.clone();
    header_flipped[4 + 1] ^= 0xFF;
    backup.borrow_mut().on_raw(&mut c.sim, &header_flipped);
    assert_eq!(stats(), (1, 1, 0), "refused by the MAC");
    backup.borrow_mut().on_raw(&mut c.sim, &wire);
    assert_eq!(stats(), (1, 1, 1), "the untouched proposal is prepared");
}

#[test]
fn a_pre_prepare_charges_its_seq_core_for_its_header_macs_only() {
    let mut c = cluster(8, 50);
    let primary = c.replicas[0].inner.clone();
    let mut r = primary.borrow_mut();
    let (seq, batch) = (1, four_kib_batch());
    let digest = batch_digest(&batch);
    let core = r.affinity.seq_core(seq);
    let busy = |r: &ReplicaInner| r.net.host(r.host).borrow().core_busy_time(core);
    let before = busy(&r);
    let peers = r.peers();
    let back = r.send_pre_prepare(&mut c.sim, 0, seq, digest, batch.clone(), peers);
    assert_eq!(back, batch, "the batch comes back");
    assert_eq!(
        busy(&r) - before,
        r.cfg
            .crypto
            .authenticator_cost(crate::envelope::PRE_PREPARE_HEADER_LEN, r.cfg.n - 1)
    );
}

/// Runs `f` and returns the one core whose busy time grew, and by how much.
fn the_core_that_paid(
    replica: &RefCell<ReplicaInner>,
    sim: &mut Simulator,
    f: impl FnOnce(&mut ReplicaInner, &mut Simulator),
) -> (CoreId, Nanos) {
    let busy = |r: &ReplicaInner| {
        let host = r.net.host(r.host);
        let host = host.borrow();
        r.cores
            .iter()
            .map(|&c| host.core_busy_time(c))
            .collect::<Vec<_>>()
    };
    let before = busy(&replica.borrow());
    f(&mut replica.borrow_mut(), sim);
    let after = busy(&replica.borrow());
    let grew: Vec<_> = (0..after.len())
        .filter(|&i| after[i] != before[i])
        .map(|i| (CoreId(i as u16), after[i] - before[i]))
        .collect();
    assert_eq!(grew.len(), 1, "one core pays: {grew:?}");
    grew[0]
}

#[test]
fn a_reply_is_sealed_on_the_earlier_free_of_the_execution_and_ordering_cores() {
    let mut c = cluster(8, 51);
    let backup = c.replicas[1].inner.clone();
    let seq = 2;
    let cores = backup.borrow().executed_cores(seq);
    let [exec, ordering] = cores;
    {
        let r = backup.borrow();
        assert_eq!(exec, r.affinity.exec_core());
        assert_eq!(ordering, r.affinity.seq_core(seq));
        assert_ne!(exec, ordering);
    }
    let reply = Message::Reply {
        view: 0,
        client: 4,
        timestamp: 1,
        replica: 1,
        result: b"ok".to_vec(),
    };
    let cost = backup
        .borrow()
        .cfg
        .crypto
        .authenticator_cost(reply.encoded_len(), 1);
    let sealed_on = |sim: &mut Simulator| {
        the_core_that_paid(&backup, sim, |r, sim| {
            r.send_reply(sim, 4, 1, b"ok".to_vec(), &cores)
        })
    };
    assert_eq!(sealed_on(&mut c.sim), (exec, cost), "both free: the first");
    backup
        .borrow_mut()
        .charge(&c.sim, exec, Nanos::from_millis(1));
    assert_eq!(
        sealed_on(&mut c.sim),
        (ordering, cost),
        "execution core busy"
    );
    backup
        .borrow_mut()
        .charge(&c.sim, ordering, Nanos::from_millis(2));
    assert_eq!(sealed_on(&mut c.sim), (exec, cost), "ordering core busier");
}

/// What checking the MAC of the sealed message `wire` costs `replica`.
fn check_cost(replica: &RefCell<ReplicaInner>, wire: &[u8]) -> Nanos {
    let envelope = Envelope::parse(wire).unwrap();
    let body = envelope.body().len();
    envelope
        .covered()
        .verify_cost(body, &replica.borrow().cfg.crypto)
}

#[test]
fn a_request_is_verified_on_the_earliest_free_core_of_the_host() {
    let mut c = cluster(8, 52);
    let backup = c.replicas[1].inner.clone();
    let client = KeyTable::new(4, crate::cluster::DOMAIN_SECRET.to_vec());
    let request = |timestamp| {
        Message::Request(Request {
            client: 4,
            timestamp,
            payload: vec![7; 1024],
        })
        .seal(&client, &[0, 1, 2, 3])
    };
    // A body of at least 1 KiB is MACed over its digest: the check hashes
    // the body once, then checks a 32-byte MAC.
    let cost = check_cost(&backup, &request(1));
    let crypto = backup.borrow().cfg.crypto.clone();
    let body = 17 + 1024;
    assert_eq!(cost, crypto.digest_cost(body) + crypto.verify_cost(32));
    let paid = the_core_that_paid(&backup, &mut c.sim, |r, sim| r.on_raw(sim, &request(1)));
    assert_eq!(paid, (CoreId(0), cost), "every core idle: core 0");

    let mut r = backup.borrow_mut();
    assert!(r.cores.len() >= 3, "{:?}", r.cores);
    r.charge(&c.sim, CoreId(0), Nanos::from_millis(1));
    r.charge(&c.sim, CoreId(1), Nanos::from_micros(500));
    drop(r);
    let paid = the_core_that_paid(&backup, &mut c.sim, |r, sim| r.on_raw(sim, &request(2)));
    assert_eq!(
        paid,
        (CoreId(2), cost),
        "core 0 loaded: the earliest-free other"
    );
    assert_eq!(backup.borrow().pending.len(), 2, "both requests dispatched");
    assert!(
        backup
            .borrow()
            .pending
            .iter()
            .all(|b| b.digest == Some(b.req.digest())),
        "each kept with the digest its check computed"
    );
}

fn client_keys() -> KeyTable {
    KeyTable::new(4, crate::cluster::DOMAIN_SECRET.to_vec())
}

/// A client's 4 KB request, as the client seals it for every replica.
fn four_kb_request(timestamp: u64, fill: u8) -> (Request, Vec<u8>) {
    let req = Request {
        client: 4,
        timestamp,
        payload: vec![fill; 4096],
    };
    let wire = Message::Request(req.clone()).seal(&client_keys(), &[0, 1, 2, 3]);
    (req, wire)
}

/// What a backup's seq core pays to send its PREPARE for `seq`.
fn prepare_seal_cost(r: &ReplicaInner, seq: SeqNum, digest: Digest) -> Nanos {
    let prepare = Message::Prepare {
        view: 0,
        seq,
        digest,
        replica: r.id,
    };
    r.cfg
        .crypto
        .authenticator_cost(prepare.encoded_len(), r.cfg.n - 1)
}

#[test]
fn a_backup_holding_a_request_folds_its_digest_into_the_batch_digest() {
    let mut c = cluster(8, 54);
    let backup = c.replicas[1].inner.clone();
    let (req, wire) = four_kb_request(1, 7);
    backup.borrow_mut().on_raw(&mut c.sim, &wire);
    let batch = vec![req];
    let digest = batch_digest(&batch);
    let (seq, core) = (1, backup.borrow().affinity.seq_core(1));
    let paid = the_core_that_paid(&backup, &mut c.sim, |r, sim| {
        r.handle_pre_prepare(sim, 0, seq, digest, batch)
    });
    let r = backup.borrow();
    assert_eq!(r.stats.prepares_sent, 1);
    assert_eq!(
        paid,
        (
            core,
            r.cfg.crypto.digest_cost(40) + prepare_seal_cost(&r, seq, digest)
        ),
        "one held digest folded in, then the PREPARE sealed"
    );
}

#[test]
fn a_held_digest_never_vouches_for_other_bytes() {
    let mut c = cluster(8, 55);
    let backup = c.replicas[1].inner.clone();
    let (held, wire) = four_kb_request(1, 7);
    backup.borrow_mut().on_raw(&mut c.sim, &wire);
    // The same client and timestamp, another payload.
    let other = vec![Request {
        payload: vec![8; 4096],
        ..held.clone()
    }];
    let crypto = backup.borrow().cfg.crypto.clone();
    let full = crypto.digest_cost(4096 + 16);

    // Its header carries the held request's digest: the batch is hashed in
    // full and refused.
    let held_digest = batch_digest(std::slice::from_ref(&held));
    let core = backup.borrow().affinity.seq_core(1);
    let paid = the_core_that_paid(&backup, &mut c.sim, |r, sim| {
        r.handle_pre_prepare(sim, 0, 1, held_digest, other.clone())
    });
    assert_eq!(paid, (core, full));
    let stats = backup.borrow().stats;
    assert_eq!((stats.digest_mismatch_dropped, stats.prepares_sent), (1, 0));

    // Its header carries its own digest: hashed in full and prepared.
    let digest = batch_digest(&other);
    let core = backup.borrow().affinity.seq_core(2);
    let paid = the_core_that_paid(&backup, &mut c.sim, |r, sim| {
        r.handle_pre_prepare(sim, 0, 2, digest, other)
    });
    let r = backup.borrow();
    assert_eq!(paid, (core, full + prepare_seal_cost(&r, 2, digest)));
    assert_eq!(
        (r.stats.digest_mismatch_dropped, r.stats.prepares_sent),
        (1, 1)
    );
}

#[test]
fn a_folded_batch_digest_is_the_batch_digest() {
    let mut c = cluster(8, 56);
    // Requests 1 and 3 arrive sealed; request 2 straight from the harness,
    // so no replica holds its digest.
    let (r1, w1) = four_kb_request(1, 1);
    let (r3, w3) = four_kb_request(3, 3);
    let r2 = Request {
        client: 4,
        timestamp: 2,
        payload: vec![2; 4096],
    };
    let batch = vec![r1, r2.clone(), r3];
    let backup = c.replicas[1].inner.clone();
    {
        let mut b = backup.borrow_mut();
        b.on_raw(&mut c.sim, &w1);
        b.on_raw(&mut c.sim, &w3);
        b.on_request(&mut c.sim, r2.clone(), None);
        let (digest, cost) = b.fold_batch(&batch);
        assert_eq!(digest, batch_digest(&batch));
        assert_eq!(cost, b.cfg.crypto.digest_cost(2 * 40 + 4096 + 16));
    }

    // The primary folds what it holds into the digest it proposes, and
    // every backup agrees with it.
    let primary = c.replicas[0].inner.clone();
    for wire in [&w1, &w3] {
        primary.borrow_mut().on_raw(&mut c.sim, wire);
    }
    c.settle();
    let p = primary.borrow();
    let proposed: Vec<_> = p
        .pipelines
        .iter()
        .flat_map(|pl| pl.log.values())
        .map(|e| (e.digest, e.batch.clone().unwrap()))
        .collect();
    assert!(!proposed.is_empty());
    for (digest, batch) in proposed {
        assert_eq!(digest, Some(batch_digest(&batch)));
    }
    drop(p);
    for r in &c.replicas {
        assert_eq!(r.stats().digest_mismatch_dropped, 0, "replica {}", r.id());
    }
    assert_eq!(c.replicas[0].executed_log(), c.replicas[3].executed_log());
}

#[test]
fn a_lease_query_follows_the_client_rule_and_a_prepare_its_seq_core() {
    let mut c = cluster(8, 53);
    let backup = c.replicas[1].inner.clone();
    let work = Nanos::from_micros(3);
    backup
        .borrow_mut()
        .charge(&c.sim, CoreId(0), Nanos::from_millis(1));
    let query = Message::LeaseQuery { client: 4 };
    let paid = the_core_that_paid(&backup, &mut c.sim, |r, sim| r.verify_on(sim, &query, work));
    assert_eq!(paid, (CoreId(1), work), "core 0 loaded: the next free core");

    // A replica's PREPARE stays on its pipeline's core, the busiest one.
    let seq = 2;
    let owner = backup.borrow().affinity.seq_core(seq);
    backup
        .borrow_mut()
        .charge(&c.sim, owner, Nanos::from_millis(2));
    let prepare = Message::Prepare {
        view: 0,
        seq,
        digest: batch_digest(&four_kib_batch()),
        replica: 2,
    };
    let wire = prepare.seal(
        &KeyTable::new(2, crate::cluster::DOMAIN_SECRET.to_vec()),
        &[0, 1, 3],
    );
    let cost = check_cost(&backup, &wire);
    let paid = the_core_that_paid(&backup, &mut c.sim, |r, sim| r.on_raw(sim, &wire));
    assert_eq!(paid, (owner, cost), "the PREPARE's pipeline core");
}
