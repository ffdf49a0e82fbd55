//! Security scenarios from the paper's §III-C analysis.
//!
//! The paper argues RUBIN's two-sided design avoids the attacks that
//! plague one-sided RDMA deployments: buffer races, Steering-Tag (STag)
//! theft enabling man-in-the-middle reads/writes, and STag invalidation
//! denial-of-service. These tests exercise the corresponding enforcement
//! in the verbs layer, and the protocol-level containment (a replica with
//! compromised memory "cannot operate reliably ... and will therefore be
//! considered faulty, which can be tolerated by the protocol"), down to
//! messages forged in other nodes' names.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use bft_crypto::Digest;
use rdma_verbs::{
    connect_pair, Access, QpConfig, QueuePair, RdmaDevice, RecvWr, RnicModel, SendWr, Sge,
    WcStatus, WrId,
};
use reptor::{batch_digest, ByzantineMode, Cluster, Message, Request, SignedMessage, Stack};
use scenarios::scenario::{world, Scenario};
use simnet::{CoreId, TestBed};

security_rows!(row_tests);

/// Four counter replicas and one client on the direct transport.
fn direct(seed: u64) -> Cluster {
    world(&Scenario::new(Stack::Direct, seed))
}

struct Host {
    dev: RdmaDevice,
    pd: rdma_verbs::ProtectionDomain,
    cq: rdma_verbs::CompletionQueue,
}

fn host_on(tb: &TestBed, id: simnet::HostId) -> Host {
    let dev = RdmaDevice::open(&tb.net, id, RnicModel::mt27520());
    let pd = dev.alloc_pd();
    let cq = dev.create_cq(64, None);
    Host { dev, pd, cq }
}

fn qp_for(h: &Host) -> QueuePair {
    h.dev.create_qp(&QpConfig {
        pd: h.pd,
        send_cq: h.cq.clone(),
        recv_cq: h.cq.clone(),
        core: CoreId(0),
    })
}

/// A fresh connection from `from` to `to`; returns `from`'s queue pair
/// and `to`'s.
fn connected(from: &Host, to: &Host) -> (QueuePair, QueuePair) {
    let to_qp = qp_for(to);
    let from_qp = qp_for(from);
    connect_pair(&from_qp, &to_qp).unwrap();
    (from_qp, to_qp)
}

/// Posts `wr` signaled on `from`'s queue pair `qp`, runs the fabric idle
/// and returns the status of `from`'s completion.
fn complete(tb: &mut TestBed, from: &Host, qp: &QueuePair, wr: SendWr) -> WcStatus {
    qp.post_send(&mut tb.sim, wr.signaled()).unwrap();
    tb.sim.run_until_idle();
    from.cq.poll(8)[0].status
}

/// §III-C: "An adversary might get access to a buffer with STag enabled
/// access, which allows her to conduct a Man-in-the-Middle attack. She can
/// now read or modify the contents of this buffer." — possible only for
/// regions that *grant* remote access; a two-sided deployment grants none,
/// so the same stolen STag is useless.
#[test]
fn stolen_stag_useless_against_two_sided_buffers() {
    let mut tb = TestBed::paper_testbed(51);
    let victim = host_on(&tb, tb.b);
    let attacker = host_on(&tb, tb.a);

    // The victim's receive buffer, as RUBIN would register it: local write
    // only, no remote rights.
    let secret = victim.dev.reg_mr(&victim.pd, 4096, Access::LOCAL_WRITE);
    secret.write(0, b"replica private state").unwrap();
    let stolen_stag = secret.rkey(); // assume the attacker learned the key

    // Attempted MITM read.
    let (aqp, _vqp) = connected(&attacker, &victim);
    let sink = attacker.dev.reg_mr(&attacker.pd, 4096, Access::LOCAL_WRITE);
    let read = SendWr::read(WrId(1), Sge::whole(sink.clone()), stolen_stag, 0);
    let status = complete(&mut tb, &attacker, &aqp, read);
    assert_eq!(status, WcStatus::RemoteAccessError, "read refused");
    assert_eq!(sink.read(0, 7).unwrap(), vec![0; 7], "no data leaked");

    // Attempted MITM write (fresh connection: the NAK broke the first).
    let (aqp2, _vqp2) = connected(&attacker, &victim);
    let payload = attacker.dev.reg_mr(&attacker.pd, 32, Access::NONE);
    payload.write(0, b"overwritten-by-mallory!").unwrap();
    let write = SendWr::write(WrId(2), Sge::whole(payload), stolen_stag, 0);
    let status = complete(&mut tb, &attacker, &aqp2, write);
    assert_eq!(status, WcStatus::RemoteAccessError, "write refused");
    let untouched = secret.read(0, 21).unwrap();
    assert_eq!(
        untouched, b"replica private state",
        "victim memory untouched"
    );
}

/// §III-C: even when a deployment does expose a region, the access flags
/// bound what a stolen STag can do (read-only stays read-only).
#[test]
fn access_flags_bound_remote_capability() {
    let mut tb = TestBed::paper_testbed(52);
    let victim = host_on(&tb, tb.b);
    let attacker = host_on(&tb, tb.a);
    let flags = Access::LOCAL_WRITE | Access::REMOTE_READ;
    let exposed = victim.dev.reg_mr(&victim.pd, 1024, flags);
    exposed.write(0, b"public-read-only").unwrap();

    // Reads succeed…
    let (aqp, _vqp) = connected(&attacker, &victim);
    let sink = attacker.dev.reg_mr(&attacker.pd, 1024, Access::LOCAL_WRITE);
    let read = SendWr::read(WrId(1), Sge::new(sink.clone(), 0, 16), exposed.rkey(), 0);
    assert!(complete(&mut tb, &attacker, &aqp, read).is_ok());
    assert_eq!(sink.read(0, 16).unwrap(), b"public-read-only");

    // …but writes through the same STag are refused.
    let (aqp2, _vqp2) = connected(&attacker, &victim);
    let payload = attacker.dev.reg_mr(&attacker.pd, 16, Access::NONE);
    let write = SendWr::write(WrId(2), Sge::whole(payload), exposed.rkey(), 0);
    let status = complete(&mut tb, &attacker, &aqp2, write);
    assert_eq!(status, WcStatus::RemoteAccessError);
    assert_eq!(exposed.read(0, 16).unwrap(), b"public-read-only");
}

/// §III-C: "or even invalidate the STag which prevents access of
/// legitimate applications" — invalidation makes every subsequent access
/// fail, which the affected replica must surface as a fault rather than
/// serve corrupt data.
#[test]
fn invalidated_stag_denies_everyone_loudly() {
    let mut tb = TestBed::paper_testbed(53);
    let victim = host_on(&tb, tb.b);
    let peer = host_on(&tb, tb.a);
    let flags = Access::LOCAL_WRITE | Access::REMOTE_WRITE;
    let region = victim.dev.reg_mr(&victim.pd, 1024, flags);
    let (pqp, _vqp) = connected(&peer, &victim);

    // Attacker invalidates the STag (compromised victim process).
    region.invalidate();

    // The legitimate peer's write now fails with an explicit error — the
    // replica is observably faulty, not silently corrupt.
    let payload = peer.dev.reg_mr(&peer.pd, 64, Access::NONE);
    let write = SendWr::write(WrId(1), Sge::whole(payload), region.rkey(), 0);
    let status = complete(&mut tb, &peer, &pqp, write);
    assert_eq!(status, WcStatus::RemoteAccessError);
    // And local application access fails too.
    assert!(region.read(0, 1).is_err());
}

/// §III-C + §III-A: two-sided transfers place data only where the
/// *receiver* decided — a sender cannot steer a SEND into memory of its
/// choosing, and out-of-bounds placement is impossible by construction.
#[test]
fn receiver_chooses_placement_for_two_sided_transfers() {
    let mut tb = TestBed::paper_testbed(54);
    let rx = host_on(&tb, tb.b);
    let tx = host_on(&tb, tb.a);
    let (sqp, rqp) = connected(&tx, &rx);

    // Receiver posts two disjoint slots in one region.
    let buf = rx.dev.reg_mr(&rx.pd, 256, Access::LOCAL_WRITE);
    for (id, offset) in [(10, 0), (11, 128)] {
        let slot = RecvWr::new(WrId(id), Sge::new(buf.clone(), offset, 128));
        rqp.post_recv(&mut tb.sim, slot).unwrap();
    }
    for (i, msg) in [b"first!", b"second"].iter().enumerate() {
        let src = tx.dev.reg_mr(&tx.pd, 6, Access::NONE);
        src.write(0, *msg).unwrap();
        let send = SendWr::send(WrId(i as u64), Sge::whole(src)).signaled();
        sqp.post_send(&mut tb.sim, send).unwrap();
    }
    tb.sim.run_until_idle();
    // Data landed exactly in the receiver-chosen slots, in order.
    assert_eq!(buf.read(0, 6).unwrap(), b"first!");
    assert_eq!(buf.read(128, 6).unwrap(), b"second");
}

/// What a Byzantine replica 3 can put on the wire: anything at all, under
/// valid MACs of its own (a client shares pair keys with every replica and
/// could do the same). Replica 3 itself is silenced; the test speaks for it
/// through its transport endpoint.
fn forge_as_replica_3(c: &mut Cluster, to: u32, msg: &Message) {
    let keys = bft_crypto::KeyTable::new(3, reptor::DOMAIN_SECRET.to_vec());
    let wire = SignedMessage::create(msg, &keys, &[to]).encode();
    c.transports[3].send(&mut c.sim, to, wire);
}

/// A PREPARE and a COMMIT for `digest` at view 0, sequence number 1, in
/// `replica`'s name.
fn votes(digest: Digest, replica: u32) -> [Message; 2] {
    let (view, seq) = (0, 1);
    let prepare = Message::Prepare {
        view,
        seq,
        digest,
        replica,
    };
    let commit = Message::Commit {
        view,
        seq,
        digest,
        replica,
    };
    [prepare, commit]
}

/// `f + 1` matching replies complete a request, so each must count for the
/// replica that authenticated it: one Byzantine replica answering in two
/// correct replicas' names must not hand the client a fabricated result.
#[test]
fn forged_replies_do_not_complete_a_request() {
    let mut c = direct(56);
    c.replicas[3].set_byzantine(ByzantineMode::Crash);
    let client = c.clients[0].clone();
    let timestamp = client.submit(&mut c.sim, b"inc".to_vec());
    // One hop from the client, against the five the honest replies need.
    for replica in [0, 1] {
        let forged = Message::Reply {
            view: 0,
            client: client.id(),
            timestamp,
            replica,
            result: b"fabricated".to_vec(),
        };
        forge_as_replica_3(&mut c, client.id(), &forged);
    }
    assert!(c.run_until_completed(1, 2_000_000));
    c.settle();
    assert_eq!(
        client.completions()[0].result,
        1u64.to_le_bytes().to_vec(),
        "the request completes with what the honest replicas executed"
    );
    assert!(
        client.stats().bad_mac_dropped >= 2,
        "both forgeries counted"
    );
}

/// A full forged certificate — PRE-PREPARE in the primary's name, PREPAREs
/// and COMMITs in every backup's — must not make a correct replica execute
/// a batch the primary never proposed.
#[test]
fn forged_agreement_votes_do_not_commit_a_batch() {
    let mut c = direct(57);
    c.replicas[3].set_byzantine(ByzantineMode::Crash);
    let batch = vec![Request {
        client: c.clients[0].id(),
        timestamp: 1,
        payload: b"never proposed".to_vec(),
    }];
    let digest = batch_digest(&batch);
    let mut forged = vec![Message::PrePrepare {
        view: 0,
        seq: 1,
        digest,
        batch,
    }];
    for replica in [0, 2, 3] {
        forged.extend(votes(digest, replica));
    }
    // All but replica 3's own PREPARE and COMMIT speak in another's name.
    let in_others_names = forged.len() as u64 - 2;
    for msg in &forged {
        forge_as_replica_3(&mut c, 1, msg);
    }
    c.settle();
    assert_eq!(c.replicas[1].last_executed(), 0, "nothing was agreed on");
    // The group then orders a real request at the same sequence number.
    c.submit_sequentially([b"inc".to_vec()]);
    c.settle();
    c.assert_safety();
    assert!(!c.replicas[1]
        .executed_log()
        .iter()
        .any(|&(_, d)| d == digest));
    assert!(c.replicas[1].stats().bad_mac_dropped >= in_others_names);
}

/// A client shares pair keys with every replica, so it can seal a vote in
/// its own name that any replica's MAC check accepts. With replicas 2 and
/// 3 crashed, the client's PREPARE and COMMIT would make the missing
/// quorum members for the primary's first proposal: they must be refused,
/// and counted, because no replica sent them.
#[test]
fn client_votes_never_count() {
    for stack in [Stack::Direct, Stack::Nio, Stack::Rubin] {
        let mut c = world(&Scenario::new(stack, 58));
        for r in [2, 3] {
            c.replicas[r].set_byzantine(ByzantineMode::Crash);
        }
        let client = c.clients[0].clone();
        let me = client.id();
        let timestamp = client.submit(&mut c.sim, b"inc".to_vec());
        let digest = batch_digest(&[Request {
            client: me,
            timestamp,
            payload: b"inc".to_vec(),
        }]);
        let keys = bft_crypto::KeyTable::new(me, reptor::DOMAIN_SECRET.to_vec());
        // The votes go out once the proposal is in place at both replicas.
        while c.replicas[1].stats().prepares_sent == 0 {
            assert!(c.sim.step(), "{stack:?}: the primary never proposed");
        }
        for vote in &votes(digest, me) {
            for to in [0, 1] {
                let wire = SignedMessage::create(vote, &keys, &[to]).encode();
                c.transports[me as usize].send(&mut c.sim, to, wire);
            }
        }
        assert!(
            !c.run_until_completed(1, 100_000),
            "{stack:?}: two replicas and a client completed a request"
        );
        for r in &c.replicas[..2] {
            assert_eq!(
                r.last_executed(),
                0,
                "{stack:?}: replica {} executed",
                r.id()
            );
            assert!(
                r.stats().bad_mac_dropped >= 2,
                "{stack:?}: replica {} did not count the client's votes",
                r.id()
            );
        }
    }
}
