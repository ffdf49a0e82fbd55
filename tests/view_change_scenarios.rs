//! Deep view-change scenarios: cascading faulty primaries, re-proposal of
//! prepared-but-uncommitted batches, rejection of forged NEW-VIEWs, the
//! interaction of view changes with checkpoints, and request timers that
//! follow measured latency.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use reptor::{batch_digest, ByzantineMode, Cluster, Message, Request, Stack};
use scenarios::scenario::{world, Scenario};
use simnet::Nanos;

view_change_rows!(row_tests);

/// Four counter replicas and one client on the direct transport.
fn direct(seed: u64) -> Cluster {
    world(&Scenario::new(Stack::Direct, seed))
}

#[test]
fn forged_new_view_with_bad_digest_is_rejected() {
    // A replica receiving a NEW-VIEW whose digests do not bind the batches
    // must ignore it and stay in its current view.
    let mut c = direct(73);
    let client = c.clients[0].clone();
    client.submit(&mut c.sim, b"inc".to_vec());
    assert!(c.run_until_completed(1, 1_000_000));
    c.settle();

    let forged_batch = vec![Request {
        client: 99,
        timestamp: 1,
        payload: b"forged".to_vec(),
    }];
    let wrong_digest = batch_digest(&[]); // does not match forged_batch
    let view_before = c.replicas[2].view();
    // Inject directly into replica 2's handler, bypassing MACs (the worst
    // case: authentication already passed).
    let msg = Message::NewView {
        view: view_before + 1,
        pre_prepares: vec![(100, wrong_digest, forged_batch)],
        replica: ((view_before + 1) % 4) as u32,
    };
    c.replicas[2].inject_message(&mut c.sim, msg);
    c.settle();
    assert_eq!(
        c.replicas[2].view(),
        view_before,
        "forged NEW-VIEW must not install a view"
    );
    c.assert_safety();
}

#[test]
fn new_view_from_wrong_primary_is_rejected() {
    let mut c = direct(74);
    let view_before = c.replicas[1].view();
    // Replica 3 is not the primary of view 1 (that is replica 1); replica
    // 2 claims otherwise.
    let msg = Message::NewView {
        view: view_before + 1,
        pre_prepares: vec![],
        replica: 3, // not primary(view 1)
    };
    c.replicas[2].inject_message(&mut c.sim, msg);
    c.settle();
    assert_eq!(c.replicas[2].view(), view_before);
}

#[test]
fn stale_view_messages_are_ignored() {
    // After moving to view 1, messages from view 0 must be dropped.
    let mut c = direct(75);
    c.replicas[0].set_byzantine(ByzantineMode::SilentPrimary);
    let client = c.clients[0].clone();
    client.submit(&mut c.sim, b"inc".to_vec());
    assert!(c.run_until_completed(1, 10_000_000));
    c.settle();
    let r2_view = c.replicas[2].view();
    assert!(r2_view >= 1);
    let executed_before = c.replicas[2].last_executed();
    // A stale PRE-PREPARE from the deposed view-0 primary.
    let msg = Message::PrePrepare {
        view: 0,
        seq: 50,
        digest: batch_digest(&[]),
        batch: vec![],
    };
    c.replicas[2].inject_message(&mut c.sim, msg);
    c.settle();
    assert_eq!(c.replicas[2].view(), r2_view, "view unchanged");
    assert_eq!(c.replicas[2].last_executed(), executed_before);
}

#[test]
fn requests_held_at_a_crashing_primary_complete_exactly_once() {
    // The primary has one instance open and the rest of the burst held
    // behind it (self-clocked batching) when it dies: the held requests
    // were never proposed, so only the backups' request timers and the new
    // primary's own buffer can bring them back.
    for seed in 1..=5 {
        let mut c = direct(seed);
        let client = c.clients[0].clone();
        for _ in 0..8 {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
        // The burst left the client in one instant, so by the time a
        // backup answers the first PRE-PREPARE all of it has reached the
        // primary.
        while c.replicas[1..].iter().all(|r| r.stats().prepares_sent == 0) {
            assert!(c.sim.step());
        }
        let primary = &c.replicas[0];
        assert_eq!(primary.stats().pre_prepares_sent, 1, "seed {seed}");
        assert_eq!(primary.last_executed(), 0, "seed {seed}");
        primary.set_byzantine(ByzantineMode::Crash);

        assert!(c.run_until_completed(8, 15_000_000), "seed {seed}");
        c.settle();
        c.assert_safety();
        let mut answered: Vec<u64> = client.completions().iter().map(|d| d.timestamp).collect();
        answered.sort_unstable();
        assert_eq!(answered, (1..=8).collect::<Vec<u64>>(), "seed {seed}");
        for r in &c.replicas[1..] {
            assert!(r.view() >= 1, "seed {seed}: replica {}", r.id());
            assert_eq!(r.stats().executed_requests, 8, "seed {seed}");
        }
    }
}

#[test]
fn a_burst_queued_at_a_correct_primary_deposes_no_one() {
    // A sudden burst queues longer than twice the 8 ms floor the backups'
    // warmed timers start from. Each batch that executes during
    // the burst is a slow sample, and its deviation raises the suspicion
    // time before a request's accusing stage is armed, so a busy but
    // correct primary stays in office.
    for (stack, clients, per_client) in [(Stack::Direct, 8, 1400), (Stack::Rubin, 40, 60)] {
        let mut c = world(&Scenario::new(stack, 79).clients(clients));
        c.submit_sequentially((0..20).map(|_| b"inc".to_vec()));
        let burst_at = c.sim.now();
        for client in c.clients.clone() {
            for _ in 0..per_client {
                client.submit(&mut c.sim, b"inc".to_vec());
            }
        }
        let want = 20 + clients as u64 * per_client;
        while c.clients.iter().map(|cl| cl.stats().completed).sum::<u64>() < want {
            assert!(c.sim.step(), "{stack:?}: went idle mid-burst");
        }
        let drained = c.sim.now() - burst_at;
        assert!(
            drained > Nanos::from_millis(20),
            "{stack:?}: the burst drained in {drained}, too small to test"
        );
        c.settle();
        c.assert_safety();
        for r in &c.replicas {
            assert_eq!(r.stats().view_changes_sent, 0, "{stack:?}: {}", r.id());
        }
    }
}

#[test]
fn crashed_primary_is_replaced_within_milliseconds() {
    // Backups time requests from the latency they measure. Once steady load
    // has shown them what a request costs, a dead primary is suspected
    // after milliseconds, not after the configured 40 ms ceiling. A primary
    // silent for one suspicion time is accused then, without a catch-up
    // round first, so the new view is up well inside two of them.
    for stack in [Stack::Direct, Stack::Nio, Stack::Rubin] {
        let mut c = world(&Scenario::new(stack, 78));
        c.submit_sequentially((0..20).map(|_| b"inc".to_vec()));
        let crashed_at = c.sim.now();
        c.replicas[0].set_byzantine(ByzantineMode::Crash);
        let client = c.clients[0].clone();
        for _ in 0..4 {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
        let deadline = crashed_at + Nanos::from_millis(12);
        while c.replicas[1..].iter().any(|r| r.view() == 0) {
            assert!(c.sim.step(), "{stack:?}: went idle in view 0");
            assert!(
                c.sim.now() <= deadline,
                "{stack:?}: a survivor is still in view 0 12 ms after the crash"
            );
        }
        assert!(c.run_until_completed(24, 5_000_000), "{stack:?}");
        c.settle();
        c.assert_safety();
        for r in &c.replicas[1..] {
            assert_eq!(r.stats().executed_requests, 24, "{stack:?}: {}", r.id());
        }
    }
}
