//! Property-based tests on the core data structures and invariants,
//! spanning every crate in the workspace.

use bft_crypto::{hmac_sha256, sha256, verify_hmac, Authenticator, Digest, KeyTable, Sha256};
use kvstore::KvStoreService;
use proptest::prelude::*;
use reptor::{
    CheckpointPayload, Cluster, CodecError, CounterService, Envelope, KvOp, KvService, Manifest,
    Message, PreparedProof, ReptorConfig, Request, SignedMessage, StateMachine,
};
use rubin::HybridEventQueue;
use simnet::{Bandwidth, Nanos, Simulator};

// ---------------------------------------------------------------------
// Crypto
// ---------------------------------------------------------------------

proptest! {
    /// Incremental hashing over arbitrary chunk boundaries equals the
    /// one-shot digest.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                 cuts in proptest::collection::vec(0usize..4096, 0..8)) {
        let oneshot = sha256(&data);
        let mut h = Sha256::new();
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        let mut prev = 0;
        for p in points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// HMAC verifies for the exact (key, message) pair and fails for any
    /// modified message.
    #[test]
    fn hmac_roundtrip_and_tamper(key in proptest::collection::vec(any::<u8>(), 0..128),
                                 msg in proptest::collection::vec(any::<u8>(), 0..512),
                                 flip in 0usize..512) {
        let tag = hmac_sha256(&key, &msg);
        prop_assert!(verify_hmac(&key, &msg, &tag));
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 0x01;
            prop_assert!(!verify_hmac(&key, &tampered, &tag));
        }
    }

    /// MAC-vector authenticators verify for every listed receiver and for
    /// no one else.
    #[test]
    fn authenticator_receiver_set(msg in proptest::collection::vec(any::<u8>(), 0..256),
                                  receivers in proptest::collection::btree_set(0u32..16, 1..8),
                                  outsider in 16u32..32) {
        let sender = KeyTable::new(99, b"prop-domain".to_vec());
        let rvec: Vec<u32> = receivers.iter().copied().collect();
        let auth = sender.authenticate(&msg, &rvec);
        for &r in &rvec {
            let table = KeyTable::new(r, b"prop-domain".to_vec());
            prop_assert!(table.verify(&msg, &auth));
        }
        let stranger = KeyTable::new(outsider, b"prop-domain".to_vec());
        prop_assert!(!stranger.verify(&msg, &auth));
    }

    /// A table's MAC towards a peer is HMAC under their pair key, the
    /// first time (key derived) and every later time (key cached), and
    /// its check refuses the tag with any one bit flipped.
    #[test]
    fn key_table_macs_are_hmac_under_the_pair_key(
        msg in proptest::collection::vec(any::<u8>(), 0..300),
        me in 0u32..8,
        peers in proptest::collection::vec(0u32..8, 1..6),
        bit in 0usize..256,
    ) {
        let table = KeyTable::new(me, b"prop-domain".to_vec());
        for _ in 0..2 {
            for &r in &peers {
                let want = hmac_sha256(&table.pair_key(me, r), &msg);
                prop_assert_eq!(table.mac(&msg, r), want);
                prop_assert!(table.verify_mac(&msg, r, &want));
                let mut flipped = want;
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(!table.verify_mac(&msg, r, &flipped));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Codec / messages
// ---------------------------------------------------------------------

fn arb_request() -> impl Strategy<Value = Request> {
    (
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(client, timestamp, payload)| Request {
            client,
            timestamp,
            payload,
        })
}

fn arb_digest() -> impl Strategy<Value = Digest> {
    any::<[u8; 32]>().prop_map(Digest)
}

fn arb_batch() -> impl Strategy<Value = Vec<Request>> {
    proptest::collection::vec(arb_request(), 0..4)
}

fn arb_message() -> impl Strategy<Value = Message> {
    let batch = arb_batch();
    prop_oneof![
        arb_request().prop_map(Message::Request),
        (any::<u64>(), any::<u64>(), arb_digest(), arb_batch()).prop_map(
            |(view, seq, digest, batch)| Message::PrePrepare {
                view,
                seq,
                digest,
                batch
            }
        ),
        (any::<u64>(), any::<u64>(), arb_digest(), any::<u32>()).prop_map(
            |(view, seq, digest, replica)| Message::Prepare {
                view,
                seq,
                digest,
                replica
            }
        ),
        (any::<u64>(), any::<u64>(), arb_digest(), any::<u32>()).prop_map(
            |(view, seq, digest, replica)| Message::Commit {
                view,
                seq,
                digest,
                replica
            }
        ),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(
                |(view, client, timestamp, replica, result)| Message::Reply {
                    view,
                    client,
                    timestamp,
                    replica,
                    result
                }
            ),
        (
            any::<u64>(),
            arb_digest(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(seq, state_digest, replica, store_rkey, store_len, store_epoch)| {
                    Message::Checkpoint {
                        seq,
                        state_digest,
                        replica,
                        store_rkey,
                        store_len,
                        store_epoch,
                    }
                }
            ),
        (any::<u64>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(seq, chunk, replica, epoch)| Message::StateRequest {
                seq,
                chunk,
                replica,
                epoch
            }
        ),
        (
            any::<u64>(),
            any::<u64>(),
            arb_digest(),
            proptest::collection::vec(
                (any::<u64>(), any::<u64>(), arb_digest(), arb_batch()).prop_map(
                    |(seq, view, digest, batch)| PreparedProof {
                        seq,
                        view,
                        digest,
                        batch
                    }
                ),
                0..3
            ),
            any::<u32>()
        )
            .prop_map(
                |(new_view, last_stable, checkpoint_digest, prepared, replica)| {
                    Message::ViewChange {
                        new_view,
                        last_stable,
                        checkpoint_digest,
                        prepared,
                        replica,
                    }
                }
            ),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), arb_digest(), batch), 0..3),
            any::<u32>()
        )
            .prop_map(|(view, pre_prepares, replica)| Message::NewView {
                view,
                pre_prepares,
                replica
            }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(view, replica, rkey, slot_size, slots)| {
                Message::SlotGrant {
                    view,
                    replica,
                    rkey,
                    slot_size,
                    slots,
                }
            }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(from_seq, replica)| Message::CatchUpRequest { from_seq, replica }),
        (
            any::<u64>(),
            any::<u64>(),
            arb_digest(),
            arb_batch(),
            any::<u32>()
        )
            .prop_map(|(seq, view, digest, batch, replica)| {
                Message::CatchUpReply {
                    seq,
                    view,
                    digest,
                    batch,
                    replica,
                }
            }),
        (
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..300),
            any::<u32>()
        )
            .prop_map(|(seq, chunk, data, replica)| Message::StateChunk {
                seq,
                chunk,
                data,
                replica
            }),
        any::<u32>().prop_map(|client| Message::LeaseQuery { client }),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
            |(replica, rkey, len, epoch)| Message::LeaseGrant {
                replica,
                rkey,
                len,
                epoch
            }
        ),
    ]
}

/// `bytes` with the byte at `at` (wrapped into range) XORed by `mask`: a
/// near miss of a valid encoding, which decodes far more often than noise.
fn flipped(mut bytes: Vec<u8>, at: prop::sample::Index, mask: u8) -> Vec<u8> {
    if !bytes.is_empty() {
        let i = at.index(bytes.len());
        bytes[i] ^= mask;
    }
    bytes
}

/// What opening `wire` in place yields for the holder of `keys`: the
/// authenticated sender and the message, `None` for a failed MAC.
fn open_in_place(wire: &[u8], keys: &KeyTable) -> Result<Option<(u32, Message)>, CodecError> {
    let envelope = Envelope::parse(wire)?;
    Ok(envelope.open(keys)?.map(|m| (envelope.sender(), m)))
}

/// The same through the owned envelope.
fn open_owned(wire: &[u8], keys: &KeyTable) -> Result<Option<(u32, Message)>, CodecError> {
    let signed = SignedMessage::decode(wire)?;
    Ok(signed
        .verify_and_decode(keys)?
        .map(|m| (signed.auth.sender, m)))
}

proptest! {
    /// Every protocol message round-trips through the wire codec, and the
    /// lane demultiplexer reads the sequence number out of the signed wire
    /// of exactly the four kinds that carry one on an agreement lane.
    #[test]
    fn message_codec_roundtrip(msg in arb_message()) {
        let enc = msg.encode();
        let dec = Message::decode(&enc).expect("well-formed encoding decodes");
        prop_assert_eq!(&dec, &msg);
        let keys = KeyTable::new(0, b"prop".to_vec());
        let wire = SignedMessage::create(&msg, &keys, &[1]).encode();
        let lane_seq = match msg {
            Message::PrePrepare { seq, .. }
            | Message::Prepare { seq, .. }
            | Message::Commit { seq, .. }
            | Message::CatchUpReply { seq, .. } => Some(seq),
            _ => None,
        };
        prop_assert_eq!(SignedMessage::peek_wire_seq(&wire), lane_seq, "{}", msg.kind());
    }

    /// The one writer and the one reader agree with the owned envelope:
    /// sealing is `SignedMessage::create(..).encode()` byte for byte, and
    /// opening in place returns what `decode` then `verify_and_decode`
    /// return, on valid envelopes and on every kind of damage a peer can
    /// put on the wire.
    #[test]
    fn sealed_envelopes_open_like_the_owned_path(
        msg in arb_message(),
        receivers in proptest::collection::btree_set(0u32..8, 1..5),
        sender in 0u32..8,
        at in any::<prop::sample::Index>(),
        mask in 1u8..=255,
        cut in any::<prop::sample::Index>(),
        trailing in proptest::collection::vec(any::<u8>(), 1..8),
        hostile_count in any::<u32>(),
    ) {
        let keys = KeyTable::new(sender, b"prop".to_vec());
        let rvec: Vec<u32> = receivers.iter().copied().collect();
        let wire = msg.seal(&keys, &rvec);
        prop_assert_eq!(&wire, &SignedMessage::create(&msg, &keys, &rvec).encode());
        let me = KeyTable::new(rvec[0], b"prop".to_vec());
        prop_assert_eq!(open_in_place(&wire, &me), Ok(Some((sender, msg.clone()))));

        let body = msg.encode();
        let mut with_trailing = wire.clone();
        with_trailing.extend_from_slice(&trailing);
        let mut hostile = wire.clone();
        let count_at = 4 + body.len() + 4;
        hostile[count_at..count_at + 4].copy_from_slice(&hostile_count.to_le_bytes());
        // `me` listed twice: the first entry decides, valid or not.
        let listed_twice = |first_valid: bool| {
            let good = SignedMessage::create(&msg, &keys, &[me.me()]).auth.macs[0];
            let bad = (me.me(), [0u8; 32]);
            let macs = if first_valid { vec![good, bad] } else { vec![bad, good] };
            SignedMessage {
                body: body.clone(),
                auth: Authenticator { sender, macs },
            }
            .encode()
        };
        prop_assert_eq!(open_in_place(&listed_twice(true), &me), Ok(Some((sender, msg.clone()))));
        prop_assert_eq!(open_in_place(&listed_twice(false), &me), Ok(None));

        let outsider = KeyTable::new(8, b"prop".to_vec());
        for input in [
            wire.clone(),
            flipped(wire.clone(), at, mask),
            wire[..cut.index(wire.len())].to_vec(),
            with_trailing,
            hostile,
            listed_twice(true),
            listed_twice(false),
        ] {
            for keys in [&me, &outsider] {
                prop_assert_eq!(open_in_place(&input, keys), open_owned(&input, keys));
            }
        }
    }

    /// No decoder a peer or a drive can feed panics on arbitrary bytes
    /// (Byzantine input hardening), and the request-path formats are
    /// canonical: whatever decodes re-encodes to the very same bytes, for
    /// noise and for near misses of a valid encoding alike.
    #[test]
    fn message_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512),
                                   msg in arb_message(),
                                   at in any::<prop::sample::Index>(),
                                   mask in 1u8..=255) {
        let keys = KeyTable::new(0, b"prop".to_vec());
        let signed = SignedMessage::create(&msg, &keys, &[1, 2]);
        for input in [
            bytes.clone(),
            flipped(msg.encode(), at, mask),
            flipped(signed.encode(), at, mask),
        ] {
            if let Ok(m) = Message::decode(&input) {
                prop_assert_eq!(m.encode(), input.clone());
            }
            if let Ok(s) = SignedMessage::decode(&input) {
                prop_assert_eq!(s.encode(), input.clone());
            }
        }
        let _ = CheckpointPayload::decode(&bytes);
        let seq = bytes.get(..8).map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
        let _ = Manifest::verify_and_decode(&bytes, seq, Digest::of(&bytes));
        let _ = KvService::default().restore(&bytes);
        let _ = KvStoreService::default().restore(&bytes);
    }

    /// Signed messages round-trip and verify end to end.
    #[test]
    fn signed_message_roundtrip(msg in arb_message(),
                                receivers in proptest::collection::btree_set(0u32..8, 1..5)) {
        let keys = KeyTable::new(0, b"prop".to_vec());
        let rvec: Vec<u32> = receivers.iter().copied().collect();
        let signed = SignedMessage::create(&msg, &keys, &rvec);
        let wire = signed.encode();
        let back = SignedMessage::decode(&wire).expect("decodes");
        let table = KeyTable::new(rvec[0], b"prop".to_vec());
        prop_assert_eq!(back.verify_and_decode(&table).expect("no codec error"), Some(msg));
    }

    /// KV operations round-trip; arbitrary payloads never panic the
    /// decoder, and whatever decodes re-encodes to the same bytes.
    #[test]
    fn kv_op_roundtrip(k in proptest::collection::vec(any::<u8>(), 0..64),
                       v in proptest::collection::vec(any::<u8>(), 0..64),
                       garbage in proptest::collection::vec(any::<u8>(), 0..128),
                       at in any::<prop::sample::Index>(),
                       mask in 1u8..=255) {
        let put = KvOp::Put(k.clone(), v);
        let near_miss = flipped(put.encode(), at, mask);
        for op in [KvOp::Get(k.clone()), put, KvOp::Del(k)] {
            prop_assert_eq!(KvOp::decode(&op.encode()), Some(op));
        }
        for input in [garbage, near_miss] {
            if let Some(op) = KvOp::decode(&input) {
                prop_assert_eq!(op.encode(), input);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Simulator & fabric
// ---------------------------------------------------------------------

proptest! {
    /// Events always execute in non-decreasing time order, regardless of
    /// scheduling order.
    #[test]
    fn simulator_time_is_monotone(delays in proptest::collection::vec(0u64..1_000_000, 1..64)) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sim = Simulator::new(7);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
        for d in delays {
            let log = log.clone();
            sim.schedule_in(Nanos::from_nanos(d), move |sim| {
                log.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run_until_idle();
        let log = log.borrow();
        prop_assert!(log.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Bandwidth serialization is additive and monotone in message size.
    #[test]
    fn bandwidth_monotone(bytes_a in 1usize..1_000_000, bytes_b in 1usize..1_000_000) {
        let bw = Bandwidth::gbps(10);
        let ta = bw.transmit_time(bytes_a);
        let tb = bw.transmit_time(bytes_b);
        if bytes_a <= bytes_b {
            prop_assert!(ta <= tb);
        }
        // Serializing both takes at least as long as the bigger one.
        let both = bw.transmit_time(bytes_a + bytes_b);
        prop_assert!(both >= ta.max(tb));
    }

    /// Identical seeds produce identical simulations (determinism).
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>(),
                                   payloads in proptest::collection::vec(1usize..4096, 1..8)) {
        use simnet::{Addr, TestBed};
        let run = |seed: u64, payloads: &[usize]| -> Vec<u64> {
            use std::cell::RefCell;
            use std::rc::Rc;
            let mut tb = TestBed::paper_testbed(seed);
            let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
            let t = times.clone();
            tb.net.bind(Addr::new(tb.b, 1), Box::new(move |sim, _f| {
                t.borrow_mut().push(sim.now().as_nanos());
            }));
            for &p in payloads {
                tb.net.send(&mut tb.sim, Addr::new(tb.a, 1), Addr::new(tb.b, 1), p, ());
            }
            tb.sim.run_until_idle();
            let out = times.borrow().clone();
            out
        };
        prop_assert_eq!(run(seed, &payloads), run(seed, &payloads));
    }
}

// ---------------------------------------------------------------------
// Statistics: percentiles and histograms
// ---------------------------------------------------------------------

/// Independent nearest-rank reference: sort, then index
/// `round(p/100 · (n-1))`.
fn nearest_rank_reference(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank]
}

/// Histogram draws: spread values, duplicate-heavy ones (`0..8`), values
/// near `u64::MAX` (whose sum needs more than 64 bits) and a mix of both
/// ends.
fn arb_histogram_samples() -> impl Strategy<Value = Vec<u64>> {
    let near_max = || (u64::MAX - 8)..=u64::MAX;
    prop_oneof![
        proptest::collection::vec(0u64..10_000_000, 1..128),
        proptest::collection::vec(0u64..8, 1..256),
        proptest::collection::vec(near_max(), 1..64),
        proptest::collection::vec(prop_oneof![0u64..8, near_max()], 1..64),
    ]
}

proptest! {
    /// `LatencyRecorder::percentile` matches the naive nearest-rank
    /// reference and is monotone in `p`, with the usual ordering
    /// invariants.
    #[test]
    fn latency_percentiles_match_reference(samples in arb_histogram_samples()) {
        use simnet::LatencyRecorder;
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record(Nanos::from_nanos(s));
        }
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(
                rec.percentile(p).as_nanos(),
                nearest_rank_reference(&samples, p),
                "percentile {} disagrees with the reference", p
            );
        }
        let (min, p50, p99, max) = (
            rec.min().as_nanos(),
            rec.percentile(50.0).as_nanos(),
            rec.percentile(99.0).as_nanos(),
            rec.max().as_nanos(),
        );
        prop_assert!(min <= p50 && p50 <= p99 && p99 <= max);
        prop_assert_eq!(rec.percentile(0.0).as_nanos(), min);
        prop_assert_eq!(rec.percentile(100.0).as_nanos(), max);
        let mean = rec.mean().as_nanos();
        prop_assert!(mean >= min && mean <= max, "mean must lie in [min, max]");
    }

    /// The metrics `Histogram` mirrors the recorder invariants, its
    /// summary is internally consistent, and observation order does not
    /// matter.
    #[test]
    fn metrics_histogram_summary_invariants(samples in arb_histogram_samples()) {
        use simnet::Histogram;
        let mut h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        let sum = h.summary();
        prop_assert_eq!(sum.count, samples.len() as u64);
        prop_assert_eq!(sum.min, *samples.iter().min().unwrap());
        prop_assert_eq!(sum.max, *samples.iter().max().unwrap());
        prop_assert!(sum.min <= sum.p50 && sum.p50 <= sum.p90 && sum.p90 <= sum.p99);
        prop_assert!(sum.p99 <= sum.max);
        prop_assert!(sum.mean >= sum.min && sum.mean <= sum.max);
        prop_assert_eq!(h.percentile(50.0), nearest_rank_reference(&samples, 50.0));

        // Observation order is irrelevant: reversed input, same summary.
        let mut rev = Histogram::new();
        for &s in samples.iter().rev() {
            rev.observe(s);
        }
        prop_assert_eq!(rev.summary(), sum);
    }

    /// `Histogram::summary` equals a summary computed from the sorted
    /// samples, in every field.
    #[test]
    fn histogram_summary_matches_sorted_reference(samples in arb_histogram_samples()) {
        use simnet::{Histogram, HistogramSummary};
        let mut h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&s| u128::from(s)).sum();
        let reference = HistogramSummary {
            count: sorted.len() as u64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: (sum / sorted.len() as u128) as u64,
            p50: nearest_rank_reference(&samples, 50.0),
            p90: nearest_rank_reference(&samples, 90.0),
            p99: nearest_rank_reference(&samples, 99.0),
        };
        prop_assert_eq!(h.summary(), reference);
    }
}

// ---------------------------------------------------------------------
// Proactive recovery: epoch fencing
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The message-path mirror of the RNIC rkey fence: a `StateRequest`
    /// carrying *any* epoch other than the responder's current recovery
    /// epoch is denied and counted (`stale_epoch_rejected`), while the
    /// current epoch is never counted as stale — for arbitrary request
    /// coordinates and arbitrary distances between the epochs.
    #[test]
    fn state_request_with_stale_epoch_is_denied_and_counted(
        epoch in any::<u64>(),
        current in 0u64..16,
        seq in any::<u64>(),
        chunk in any::<u32>(),
    ) {
        let mut c = Cluster::sim_transport(ReptorConfig::small(), 0, 1, || {
            Box::new(CounterService::default())
        });
        let r = c.replicas[0].clone();
        if current > 0 {
            r.roll_recovery_epoch(&mut c.sim, current);
        }
        prop_assert_eq!(r.recovery_epoch(), current);

        // The current epoch passes the fence (the request may then die
        // for lack of a store, but never as a stale epoch).
        r.inject_message(&mut c.sim, Message::StateRequest {
            seq, chunk, replica: 1, epoch: current,
        });
        prop_assert_eq!(r.stats().stale_epoch_rejected, 0);

        r.inject_message(&mut c.sim, Message::StateRequest {
            seq, chunk, replica: 1, epoch,
        });
        let want = u64::from(epoch != current);
        prop_assert_eq!(r.stats().stale_epoch_rejected, want);
    }
}

// ---------------------------------------------------------------------
// One-sided fast path: slot-region revocation fence
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The fast-path revocation fence, under arbitrary interleavings of
    /// view changes (region roll: invalidate + re-register, exactly what
    /// a follower does when it votes) and leader WRITEs picking any
    /// current-or-historical rkey: a WRITE under a revoked view's rkey is
    /// *never* delivered (no doorbell, slot bytes untouched) and *always*
    /// counted (`fast_path_write_denied`), while the current grant is
    /// never denied.
    #[test]
    fn revoked_slot_rkey_never_delivers_and_is_always_counted(
        ops in proptest::collection::vec(
            proptest::option::of(any::<prop::sample::Index>()),
            1..16,
        ),
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;

        use reptor::{SlotRegion, Stack};
        use simnet::{CoreId, HostId, TestBed};

        const LEN: usize = 4096;
        let (mut sim, net, hosts) = TestBed::cluster(1, 2);
        let nodes: Vec<(u32, HostId, CoreId)> = hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| (i as u32, h, CoreId(0)))
            .collect();
        let ts = Stack::Rubin.mesh(&mut sim, &net, &nodes);
        let (leader, follower) = (ts[0].clone(), ts[1].clone());

        // Record every doorbell the follower hears.
        let bells: Rc<RefCell<Vec<(u32, usize)>>> = Rc::new(RefCell::new(vec![]));
        let b = bells.clone();
        follower.set_slot_doorbell(Rc::new(move |_sim, _from, imm, len| {
            b.borrow_mut().push((imm, len));
        }));

        // View 0's grant; `history[i]` is view i's (revoked for i < cur).
        let mut history: Vec<SlotRegion> = vec![follower
            .register_write_region(&mut sim, LEN)
            .expect("rubin has a one-sided write path")];

        for op in ops {
            match op {
                // A view change at the follower: invalidate the granted
                // region (RNIC fence) and register a fresh one for the
                // next leader.
                None => {
                    follower.release_write_region(history.last().unwrap());
                    history.push(
                        follower
                            .register_write_region(&mut sim, LEN)
                            .expect("re-registration after the roll"),
                    );
                }
                // A leader WRITE under the rkey of view `idx` — possibly
                // long revoked, possibly current.
                Some(idx) => {
                    let view = idx.index(history.len());
                    let region = history[view];
                    let stale = view != history.len() - 1;
                    let denied_before = net.metrics().total("fast_path_write_denied");
                    let bells_before = bells.borrow().len();
                    let payload = format!("write-for-view-{view}").into_bytes();
                    let expected = payload.clone();
                    let acked: Rc<RefCell<Option<bool>>> = Rc::new(RefCell::new(None));
                    let a = acked.clone();
                    let posted = leader.write_slot(
                        &mut sim,
                        1,
                        region.rkey,
                        0,
                        &payload,
                        7,
                        Box::new(move |_sim, ok| {
                            *a.borrow_mut() = Some(ok);
                        }),
                    );
                    prop_assert!(posted, "rubin must always take the WRITE");
                    // Drain the WRITE, its completion (or NAK), and any
                    // channel redial the denial provoked.
                    sim.run_until_idle();
                    let denied_after = net.metrics().total("fast_path_write_denied");
                    let bells_after = bells.borrow().len();
                    if stale {
                        prop_assert!(
                            denied_after > denied_before,
                            "a revoked rkey must be counted at the RNIC"
                        );
                        prop_assert_eq!(
                            bells_after, bells_before,
                            "a revoked rkey must never ring the doorbell"
                        );
                        prop_assert_eq!(*acked.borrow(), Some(false));
                        // The *current* region is untouched by the stale
                        // WRITE.
                        let cur = history.last().unwrap();
                        let bytes = follower
                            .read_write_region(cur, 0, expected.len())
                            .expect("current region is readable");
                        prop_assert_ne!(bytes, expected);
                        // The NAK killed the queue pair — exactly what
                        // pushes the real replica onto the message-path
                        // fallback. Message traffic makes both ends
                        // notice and the dialing side re-dial; let the
                        // backoff run so later WRITEs find a live
                        // channel again.
                        leader.send(&mut sim, 1, b"ping".to_vec());
                        follower.send(&mut sim, 0, b"pong".to_vec());
                        sim.run_until(sim.now() + Nanos::from_millis(200));
                    } else {
                        prop_assert_eq!(
                            denied_after, denied_before,
                            "the current leader must never be denied"
                        );
                        prop_assert_eq!(bells_after, bells_before + 1);
                        prop_assert_eq!(*acked.borrow(), Some(true));
                        let bytes = follower
                            .read_write_region(&region, 0, expected.len())
                            .expect("granted region is readable");
                        prop_assert_eq!(bytes, expected);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Durability: WAL clean-prefix scanning
// ---------------------------------------------------------------------

use reptor::{encode_frame, scan_frames, WalFrame};

/// A seq-contiguous WAL frame sequence starting at an arbitrary base, as
/// `append_batch` would have produced it.
fn arb_wal_frames() -> impl Strategy<Value = Vec<WalFrame>> {
    (
        0u64..1_000_000,
        proptest::collection::vec((arb_digest(), arb_batch()), 1..8),
    )
        .prop_map(|(base, bodies)| {
            bodies
                .into_iter()
                .enumerate()
                .map(|(i, (digest, requests))| WalFrame {
                    seq: base + 1 + i as u64,
                    digest,
                    requests,
                })
                .collect()
        })
}

/// Byte extent `[start, end)` of each encoded frame in the concatenation.
fn frame_extents(frames: &[WalFrame]) -> Vec<(usize, usize)> {
    let mut extents = Vec::with_capacity(frames.len());
    let mut pos = 0;
    for f in frames {
        let len = encode_frame(f).len();
        extents.push((pos, pos + len));
        pos += len;
    }
    extents
}

proptest! {
    /// An intact WAL scans back to exactly the frames that were appended.
    #[test]
    fn wal_scan_roundtrip(frames in arb_wal_frames()) {
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let scan = scan_frames(&bytes);
        prop_assert_eq!(&scan.frames, &frames);
        prop_assert_eq!(scan.valid_bytes, bytes.len() as u64);
        prop_assert!(!scan.truncated);
    }

    /// A WAL cut at ANY byte position — the torn-write model: the tail
    /// vanishes mid-frame — scans to exactly the frames wholly inside the
    /// cut, flags truncation iff partial bytes remain, and never panics
    /// or invents a frame.
    #[test]
    fn wal_prefix_truncation_yields_exact_frame_prefix(
        frames in arb_wal_frames(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let cut = cut.index(bytes.len() + 1);
        let extents = frame_extents(&frames);
        let whole = extents.iter().filter(|&&(_, end)| end <= cut).count();
        let scan = scan_frames(&bytes[..cut]);
        prop_assert_eq!(&scan.frames, &frames[..whole]);
        prop_assert_eq!(scan.valid_bytes, extents.get(whole.wrapping_sub(1)).map_or(0, |&(_, e)| e) as u64);
        prop_assert_eq!(scan.truncated, cut > scan.valid_bytes as usize);
    }

    /// A single corrupted byte anywhere in the WAL — header, CRC field or
    /// payload — kills exactly the frame it lands in: every frame before
    /// it survives, nothing at or after it is returned, and nothing
    /// panics. (CRC32 detects every ≤32-bit burst, so a one-byte flip in
    /// a payload can never slip through.)
    #[test]
    fn wal_single_byte_corruption_yields_clean_prefix(
        frames in arb_wal_frames(),
        at in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let mut bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let at = at.index(bytes.len());
        bytes[at] ^= mask;
        let extents = frame_extents(&frames);
        let hit = extents.iter().position(|&(s, e)| s <= at && at < e).expect("flip lands in a frame");
        let scan = scan_frames(&bytes);
        prop_assert_eq!(&scan.frames, &frames[..hit]);
        prop_assert!(scan.truncated, "the damaged tail must be flagged");
    }

    /// Scanning arbitrary garbage never panics and never yields more
    /// bytes of "valid prefix" than it was given.
    #[test]
    fn wal_scan_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let scan = scan_frames(&bytes);
        prop_assert!(scan.valid_bytes as usize <= bytes.len());
    }
}

// ---------------------------------------------------------------------
// RUBIN data structures
// ---------------------------------------------------------------------

proptest! {
    /// The hybrid event queue is strictly FIFO.
    #[test]
    fn hybrid_queue_fifo(keys in proptest::collection::vec(any::<u64>(), 0..64)) {
        let mut q = HybridEventQueue::new();
        for &k in &keys {
            q.push(rubin::RubinEvent::Completion { key: rubin::RubinKey(k) });
        }
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            if let rubin::RubinEvent::Completion { key } = ev {
                out.push(key.0);
            }
        }
        prop_assert_eq!(out, keys);
    }
}

// ---------------------------------------------------------------------
// RUBIN selector: an event marks, the wake-up polls
// ---------------------------------------------------------------------

use rubin::{Interest, RdmaChannel, RdmaSelector, RdmaServerChannel, RecvOutcome, RubinConfig};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone)]
enum SelOp {
    /// Client `chan` sends its next message of `len` bytes.
    Send { chan: usize, len: usize },
    /// The selector thread's core gets `us` of other work.
    Busy { us: u64 },
    /// The server side flips channel `chan`'s `OP_RECEIVE` interest.
    Interest { chan: usize, on: bool },
    /// The server side cancels channel `chan`'s key (the first one counts).
    Cancel { chan: usize },
}

fn arb_sel_op() -> impl Strategy<Value = SelOp> {
    prop_oneof![
        (0usize..4, 1usize..2048).prop_map(|(chan, len)| SelOp::Send { chan, len }),
        (0usize..4, 1usize..2048).prop_map(|(chan, len)| SelOp::Send { chan, len }),
        (0usize..4, 1usize..2048).prop_map(|(chan, len)| SelOp::Send { chan, len }),
        (1u64..300).prop_map(|us| SelOp::Busy { us }),
        (0usize..4, any::<bool>()).prop_map(|(chan, on)| SelOp::Interest { chan, on }),
        (0usize..4).prop_map(|chan| SelOp::Cancel { chan }),
    ]
}

/// The server side of the selector property: one selector thread that
/// accepts, reads every ready channel dry and selects again.
struct SelServer {
    sel: RdmaSelector,
    listener: RdmaServerChannel,
    chans: RefCell<Vec<(rubin::RubinKey, RdmaChannel)>>,
    /// `(channel index, message)` in delivery order.
    got: RefCell<Vec<(usize, Vec<u8>)>>,
}

fn arm_sel_server(sim: &mut Simulator, srv: &Rc<SelServer>) {
    let st = srv.clone();
    srv.sel.select(sim, 0, move |sim, ready| {
        for r in ready {
            if r.ready.contains(Interest::OP_CONNECT) {
                while let Some(ch) = st.listener.accept(sim).expect("accept") {
                    let key = st.sel.register_channel(sim, &ch, Interest::OP_RECEIVE);
                    st.chans.borrow_mut().push((key, ch));
                }
            }
            if r.ready.contains(Interest::OP_RECEIVE) {
                let found = st
                    .chans
                    .borrow()
                    .iter()
                    .enumerate()
                    .find(|(_, (k, _))| *k == r.key)
                    .map(|(i, (_, ch))| (i, ch.clone()));
                let (idx, ch) = found.expect("a ready key is a registered channel");
                while let RecvOutcome::Msg(m) = ch.read(sim).expect("read") {
                    st.got.borrow_mut().push((idx, m));
                }
            }
        }
        arm_sel_server(sim, &st);
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Whatever the interleaving of sends, busy stretches of the selector
    /// thread's core, interest flips and a cancel: every message on a live
    /// channel is delivered exactly once and in order, a cancelled channel
    /// delivers a prefix, and once the simulator is idle nothing is left
    /// behind — the hybrid queue, both completion queues of every live
    /// channel and its received-message queue are empty (no lost wake-up).
    #[test]
    fn selector_delivers_everything_exactly_once_and_leaves_nothing_queued(
        nchan in 1usize..=4,
        ops in proptest::collection::vec((arb_sel_op(), 0u64..40), 1..48),
    ) {
        let mut tb = simnet::TestBed::paper_testbed(22);
        let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
        let cfg = RubinConfig::paper();
        let core = simnet::CoreId(0);
        let listener = RdmaServerChannel::bind(&dev_b, 4000, cfg.clone(), core).unwrap();
        let srv = Rc::new(SelServer {
            sel: RdmaSelector::new(&dev_b, &[core], cfg.select_ns),
            listener,
            chans: RefCell::new(Vec::new()),
            got: RefCell::new(Vec::new()),
        });
        srv.sel.register_server(&mut tb.sim, &srv.listener);
        arm_sel_server(&mut tb.sim, &srv);
        // Clients: a selector nobody parks on handles their completions
        // where they arrive.
        let sel_a = RdmaSelector::new(&dev_a, &[core], cfg.select_ns);
        let mut clients = Vec::new();
        for _ in 0..nchan {
            let c = RdmaChannel::connect(
                &mut tb.sim, &dev_a, simnet::Addr::new(tb.b, 4000), cfg.clone(), core,
            ).unwrap();
            sel_a.register_channel(&mut tb.sim, &c, Interest::OP_ACCEPT | Interest::OP_SEND);
            tb.sim.run_until_idle();
            prop_assert!(c.finish_connect(&mut tb.sim));
            clients.push(c);
        }
        prop_assert_eq!(srv.chans.borrow().len(), nchan);

        let mut sent: Vec<Vec<Vec<u8>>> = vec![Vec::new(); nchan];
        let mut cancelled: Option<usize> = None;
        for (op, gap_us) in ops {
            match op {
                SelOp::Send { chan, len } => {
                    let chan = chan % nchan;
                    let seq = sent[chan].len();
                    let msg: Vec<u8> = (0..len).map(|j| (chan * 64 + seq + j) as u8).collect();
                    if clients[chan].write(&mut tb.sim, &msg).unwrap() {
                        sent[chan].push(msg);
                    }
                }
                SelOp::Busy { us } => {
                    let now = tb.sim.now();
                    tb.net.host(tb.b).borrow_mut().exec(now, core, Nanos::from_micros(us));
                }
                SelOp::Interest { chan, on } => {
                    let chan = chan % nchan;
                    if cancelled != Some(chan) {
                        let key = srv.chans.borrow()[chan].0;
                        let interest = if on { Interest::OP_RECEIVE } else { Interest::NONE };
                        srv.sel.set_interest(&mut tb.sim, key, interest);
                    }
                }
                SelOp::Cancel { chan } => {
                    if cancelled.is_none() {
                        let chan = chan % nchan;
                        srv.sel.cancel(srv.chans.borrow()[chan].0);
                        cancelled = Some(chan);
                    }
                }
            }
            tb.sim.run_for(Nanos::from_micros(gap_us));
        }
        // Every live channel is wanted again; then let the world settle.
        for (i, (key, _)) in srv.chans.borrow().iter().enumerate() {
            if cancelled != Some(i) {
                srv.sel.set_interest(&mut tb.sim, *key, Interest::OP_RECEIVE);
            }
        }
        tb.sim.run_until_idle();

        let mut delivered: Vec<Vec<Vec<u8>>> = vec![Vec::new(); nchan];
        for (idx, msg) in srv.got.borrow().iter() {
            delivered[*idx].push(msg.clone());
        }
        prop_assert_eq!(srv.sel.hybrid_pending(), 0, "hybrid queue drained");
        for (i, (_, ch)) in srv.chans.borrow().iter().enumerate() {
            if cancelled == Some(i) {
                prop_assert!(delivered[i].len() <= sent[i].len());
                prop_assert_eq!(&delivered[i][..], &sent[i][..delivered[i].len()]);
                continue;
            }
            prop_assert_eq!(&delivered[i], &sent[i], "channel {}: exactly once, in order", i);
            prop_assert_eq!(ch.qp().send_cq().pending(), 0);
            prop_assert_eq!(ch.qp().recv_cq().pending(), 0);
            prop_assert_eq!(ch.read(&mut tb.sim).unwrap(), RecvOutcome::WouldBlock);
        }
    }
}

// ---------------------------------------------------------------------
// Geo topology
// ---------------------------------------------------------------------

fn geo_wan_cluster(seed: u64) -> Cluster {
    let topo = simnet::LatencyMatrix::three_region_wan();
    Cluster::sim_transport_geo(ReptorConfig::small(), 1, 1, seed, &topo, || {
        Box::new(CounterService::default())
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Coordinate-derived matrices respect the triangle inequality for
    /// every region triple, for arbitrary coordinates and scales — the
    /// min-plus closure must absorb any rounding artifacts.
    #[test]
    fn coordinate_matrices_respect_triangle(
        raw in proptest::collection::vec((0u64..2_000, 0u64..2_000), 2..7),
        scale in 1u64..50_000,
    ) {
        let named: Vec<(String, f64, f64)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (format!("r{i}"), x as f64 / 10.0, y as f64 / 10.0))
            .collect();
        let regions: Vec<(&str, f64, f64)> =
            named.iter().map(|(n, x, y)| (n.as_str(), *x, *y)).collect();
        let m = simnet::LatencyMatrix::from_coordinates(
            &regions,
            scale as f64,
            Nanos::from_micros(1),
            Bandwidth::gbps(2),
        );
        let n = m.num_regions();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    prop_assert!(
                        m.one_way(i, j) <= m.one_way(i, k) + m.one_way(k, j),
                        "triangle violated: {}->{} via {}", i, j, k
                    );
                }
            }
        }
        // Sanity on the derived protocol floor.
        prop_assert!(m.suggested_timeout() >= Nanos::from_millis(10));
        prop_assert!(
            m.suggested_timeout().as_nanos() >= m.max_one_way().as_nanos() * 8
        );
    }

    /// Chaos faults compose with WAN links: arbitrary loss on a random
    /// inter-region pair never breaks agreement (retransmission absorbs
    /// it), and the whole faulty timeline replays byte-identically from
    /// the same seed.
    #[test]
    fn wan_chaos_replays_byte_identically(
        seed in 1u64..1_000_000,
        src in 0u32..4,
        dst in 0u32..4,
        loss_pct in 1u64..30,
    ) {
        let run = |seed: u64| {
            let mut c = geo_wan_cluster(seed);
            c.net.with_faults(|f| {
                f.set_loss(
                    simnet::HostId(src),
                    simnet::HostId(dst % 4),
                    loss_pct as f64 / 100.0,
                );
            });
            let client = c.clients[0].clone();
            for _ in 0..2 {
                client.submit(&mut c.sim, b"inc".to_vec());
            }
            prop_assert!(
                c.run_until_completed(2, 50_000_000),
                "lossy WAN run must still commit"
            );
            c.assert_safety();
            c.settle();
            Ok(c.metrics_snapshot().to_json())
        };
        prop_assert_eq!(run(seed)?, run(seed)?);
    }
}

// ---------------------------------------------------------------------
// Registered memory: first-touch bytes against a plain-`Vec` oracle
// ---------------------------------------------------------------------

use proptest::strategy::Just;
use rdma_verbs::{
    connect_pair, Access, QpConfig, RdmaDevice, RnicModel, SendWr, Sge, VerbsError, WrId,
};

#[derive(Debug, Clone)]
enum MrOp {
    Write(usize, Vec<u8>),
    Read(usize, usize),
    View(usize, usize),
    Invalidate,
}

/// Offsets and lengths around a region of at most 256 bytes: mostly small
/// (inside, straddling and just past the end), sometimes exactly `len`
/// (resolved against the region when the op runs), sometimes huge.
fn arb_extent() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..300,
        0usize..300,
        Just(usize::MAX - 1),
        Just(usize::MAX)
    ]
}

fn arb_mr_op() -> impl Strategy<Value = MrOp> {
    let bytes = proptest::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        (arb_extent(), bytes.clone()).prop_map(|(o, d)| MrOp::Write(o, d)),
        (arb_extent(), bytes).prop_map(|(o, d)| MrOp::Write(o, d)),
        (arb_extent(), arb_extent()).prop_map(|(o, n)| MrOp::Read(o, n)),
        (arb_extent(), arb_extent()).prop_map(|(o, n)| MrOp::View(o, n)),
        (arb_extent(), arb_extent()).prop_map(|(o, n)| MrOp::View(o, n)),
        Just(MrOp::Invalidate),
    ]
}

proptest! {
    /// A region behaves like `vec![0; len]` behind bounds and validity
    /// checks, whatever part of it has been touched: writes land, reads
    /// and in-place views of written, never-written and straddling ranges
    /// agree with the oracle, zero-length operations at `len` succeed,
    /// overflowing ranges fail without panicking, and after `invalidate`
    /// every access is `Deregistered` and the rkey is never issued again.
    #[test]
    fn memory_region_matches_vec_oracle(
        len in 0usize..256,
        ops in proptest::collection::vec(arb_mr_op(), 1..24),
        at_len in any::<bool>(),
    ) {
        let tb = simnet::TestBed::paper_testbed(1);
        let dev = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let pd = dev.alloc_pd();
        let mr = dev.reg_mr(&pd, len, Access::LOCAL_WRITE);
        let mut oracle = Some(vec![0u8; len]);
        // Zero-length operations exactly at the end of the region.
        let edge = [MrOp::Write(len, Vec::new()), MrOp::Read(len, 0), MrOp::View(len, 0)];
        let ops = ops.into_iter().chain(if at_len { edge.to_vec() } else { Vec::new() });
        for op in ops {
            let in_bounds = |o: usize, n: usize| o.checked_add(n).filter(|&end| end <= len);
            let expect_err = |got: Option<VerbsError>, fits: bool| match (&oracle, got) {
                (None, Some(VerbsError::Deregistered)) => true,
                (Some(_), Some(VerbsError::InvalidRange { capacity, .. })) => {
                    !fits && capacity == len
                }
                (Some(_), None) => fits,
                _ => false,
            };
            match op {
                MrOp::Write(o, data) => {
                    let end = in_bounds(o, data.len());
                    let got = mr.write(o, &data);
                    prop_assert!(expect_err(got.err(), end.is_some()), "write({o}, {})", data.len());
                    if let (Some(oracle), Some(end)) = (oracle.as_mut(), end) {
                        oracle[o..end].copy_from_slice(&data);
                    }
                }
                MrOp::Read(o, n) => {
                    let end = in_bounds(o, n);
                    let got = mr.read(o, n);
                    if let (Some(oracle), Some(end), Ok(bytes)) = (&oracle, end, &got) {
                        prop_assert_eq!(bytes, &oracle[o..end]);
                    }
                    prop_assert!(expect_err(got.err(), end.is_some()), "read({o}, {n})");
                }
                MrOp::View(o, n) => {
                    let end = in_bounds(o, n);
                    let got = mr.with_slice(o, n, <[u8]>::to_vec);
                    if let (Some(oracle), Some(end), Ok(bytes)) = (&oracle, end, &got) {
                        prop_assert_eq!(bytes, &oracle[o..end]);
                    }
                    prop_assert!(expect_err(got.err(), end.is_some()), "view({o}, {n})");
                }
                MrOp::Invalidate => {
                    mr.invalidate();
                    oracle = None;
                    prop_assert!(!mr.is_valid());
                    prop_assert_eq!(mr.len(), len);
                    let next = dev.reg_mr(&pd, 8, Access::NONE);
                    prop_assert!(next.rkey().0 > mr.rkey().0, "rkeys are never reused");
                }
            }
        }
    }

    /// A one-sided READ through a real queue pair sees the same bytes: the
    /// written prefix as written, the never-written rest as zeros.
    #[test]
    fn one_sided_read_of_untouched_range_returns_zeros(
        written in proptest::collection::vec(any::<u8>(), 0..64),
        offset in 0usize..128,
        len in 1usize..128,
    ) {
        let mut tb = simnet::TestBed::paper_testbed(2);
        let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
        let (pd_a, pd_b) = (dev_a.alloc_pd(), dev_b.alloc_pd());
        let qp = |dev: &RdmaDevice, pd| {
            let cq = dev.create_cq(16, None);
            let cfg = QpConfig { pd, send_cq: cq.clone(), recv_cq: cq.clone(), core: simnet::CoreId(0) };
            (dev.create_qp(&cfg), cq)
        };
        let ((qp_a, cq_a), (qp_b, _cq_b)) = (qp(&dev_a, pd_a), qp(&dev_b, pd_b));
        connect_pair(&qp_a, &qp_b).unwrap();

        let remote = dev_b.reg_mr(&pd_b, 256, Access::REMOTE_READ);
        remote.write(0, &written).unwrap();
        let mut oracle = vec![0u8; 256];
        oracle[..written.len()].copy_from_slice(&written);

        let sink = dev_a.reg_mr(&pd_a, len, Access::LOCAL_WRITE);
        let wr = SendWr::read(WrId(1), Sge::whole(sink.clone()), remote.rkey(), offset).signaled();
        qp_a.post_send(&mut tb.sim, wr).unwrap();
        tb.sim.run_until_idle();
        let done = cq_a.poll(4);
        prop_assert_eq!(done.len(), 1);
        prop_assert!(done[0].is_ok());
        prop_assert_eq!(sink.read(0, len).unwrap(), &oracle[offset..offset + len]);
    }
}
