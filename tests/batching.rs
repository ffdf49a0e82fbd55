//! Self-clocked batching at the PBFT primary (`Replica::try_propose`): a
//! full batch is never held, a partial batch is cut only while no proposal
//! of the primary is still unexecuted.
//!
//! The scenarios drive the rule from outside — closed loops with several
//! requests outstanding, fixed open schedules, a state transfer at the
//! primary — and read it back through `stats()`, `last_executed()` and the
//! metrics registry while stepping the simulator.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use bft_crypto::Digest;
use proptest::prelude::*;
use reptor::{ClientId, Cluster, ReptorConfig, Request, SeqNum, Stack, StateMachine};
use scenarios::scenario::{closed_loop, world, Scenario};
use simnet::{HostId, Nanos};

batching_rows!(row_tests);

/// Client `i`'s `total(i)` requests were each answered once, in timestamp
/// order.
fn assert_replies_in_order(c: &Cluster, total: impl Fn(usize) -> u64) {
    for (i, client) in c.clients.iter().enumerate() {
        let seen: Vec<u64> = client.completions().iter().map(|d| d.timestamp).collect();
        let want: Vec<u64> = (1..=total(i)).collect();
        assert_eq!(seen, want, "client {} replies", client.id());
    }
}

/// Watches the view-0 primary between simulator steps for the rule's
/// visible consequence: of the instances it has in flight, only the oldest
/// may be partial. A proposal `s` with `s - 1` still unexecuted was cut
/// while an earlier one was open, so it must turn out to hold exactly
/// `batch_size` requests when it executes.
#[derive(Default)]
struct PartialWatch {
    must_be_full: BTreeSet<SeqNum>,
    last_executed: SeqNum,
    executed_requests: u64,
    max_in_flight: u64,
}

impl PartialWatch {
    fn observe(&mut self, c: &Cluster) {
        let primary = &c.replicas[0];
        let stats = primary.stats();
        let executed = primary.last_executed();
        // Fault-free view 0: the k-th PRE-PREPARE carries sequence number k.
        let proposed = stats.pre_prepares_sent;
        self.max_in_flight = self.max_in_flight.max(proposed - executed);
        self.must_be_full.extend(executed + 2..=proposed);
        let batches = executed - self.last_executed;
        let marked = (self.last_executed + 1..=executed)
            .filter(|s| self.must_be_full.remove(s))
            .count() as u64;
        let requests = stats.executed_requests - self.executed_requests;
        assert!(
            requests >= marked * c.cfg.batch_size as u64 + (batches - marked),
            "seqs {}..={executed} held {requests} requests, but {marked} of them were \
             proposed behind an open instance and must be full",
            self.last_executed + 1,
        );
        self.last_executed = executed;
        self.executed_requests = stats.executed_requests;
    }
}

/// (a) Eight outstanding against batch size 10: batches fill, nothing is
/// lost or doubled, and no batch is ever full — so the primary never has
/// more than one instance open.
#[test]
fn eight_outstanding_fill_batches_on_every_stack() {
    const TOTAL: u64 = 200;
    for stack in [Stack::Direct, Stack::Rubin, Stack::Nio] {
        let mut c = world(&Scenario::new(stack, 18));
        let mut watch = PartialWatch::default();
        closed_loop(&mut c, 8, TOTAL, |c| watch.observe(c));
        c.settle();
        c.assert_safety();
        assert_replies_in_order(&c, |_| TOTAL);
        assert_eq!(
            watch.max_in_flight, 1,
            "{stack:?}: 8 outstanding never fill a batch of 10, so every batch is partial"
        );
        let snap = c.metrics_snapshot();
        for r in &c.replicas {
            let requests = snap.counter(&format!("reptor.r{}.requests_executed", r.id()));
            let batches = snap.counter(&format!("reptor.r{}.batches_executed", r.id()));
            assert_eq!(
                requests,
                TOTAL,
                "{stack:?}: replica {} exactly once",
                r.id()
            );
            assert!(
                batches < requests,
                "{stack:?}: replica {} ran {batches} batches for {requests} requests",
                r.id()
            );
        }
        assert!(c.replicas[0].stats().pre_prepares_sent < TOTAL);
        let last = c.clients[0].completions().last().unwrap().result.clone();
        assert_eq!(
            last,
            TOTAL.to_le_bytes(),
            "{stack:?}: each inc applied once"
        );
    }
}

/// (a, continued) When the load does fill batches, full ones go out back
/// to back — several instances in flight — and still at most one of them
/// is partial.
#[test]
fn full_batches_are_never_held_behind_an_open_instance() {
    const TOTAL: u64 = 240;
    let cfg = ReptorConfig {
        batch_size: 3,
        ..ReptorConfig::small()
    };
    let mut c = world(&Scenario::new(Stack::Direct, 19).cfg(cfg));
    let mut watch = PartialWatch::default();
    closed_loop(&mut c, 8, TOTAL, |c| watch.observe(c));
    c.settle();
    c.assert_safety();
    assert_replies_in_order(&c, |_| TOTAL);
    assert!(
        watch.max_in_flight > 1,
        "full batches must not wait for the open instance"
    );
    assert!(watch.must_be_full.is_empty(), "every watched seq executed");
    assert_eq!(c.replicas[0].stats().executed_requests, TOTAL);
}

/// (b) An idle group pays nothing: with one request outstanding every
/// batch is cut on arrival, exactly as with batching off.
#[test]
fn single_outstanding_client_sees_no_added_latency() {
    let mean_latency = |batch_size: usize| {
        let cfg = ReptorConfig {
            batch_size,
            ..ReptorConfig::small()
        };
        let mut c = world(&Scenario::new(Stack::Direct, 20).cfg(cfg));
        closed_loop(&mut c, 1, 50, |_| {});
        let done = c.clients[0].completions();
        done.iter().map(|d| d.latency().as_nanos()).sum::<u64>() as f64 / done.len() as f64
    };
    let (batched, unbatched) = (mean_latency(10), mean_latency(1));
    assert!(
        (batched - unbatched).abs() <= 0.02 * unbatched,
        "mean latency {batched:.0} ns at batch size 10 vs {unbatched:.0} ns at 1"
    );
}

/// Applies nothing, remembers everything: the order requests reached the
/// service, chained into the state digest.
struct OrderLog {
    order: Rc<RefCell<Vec<(ClientId, u64)>>>,
    chain: Digest,
}

impl StateMachine for OrderLog {
    fn apply(&mut self, req: &Request) -> Vec<u8> {
        self.order.borrow_mut().push((req.client, req.timestamp));
        self.chain = Digest::of_parts(&[
            self.chain.as_bytes(),
            &req.client.to_le_bytes(),
            &req.timestamp.to_le_bytes(),
        ]);
        Vec::new()
    }

    fn state_digest(&self) -> Digest {
        self.chain
    }
}

/// What one run over an [`OrderLog`] group ended in.
struct Outcome {
    /// Replica 0's flattened request order.
    order: Vec<(ClientId, u64)>,
    state: Digest,
    batches: u64,
}

/// Submits request `k` at `at_us[k]` from client `k % clients` and runs the
/// group to completion; checks safety, reply order and per-client
/// execution order on the way.
fn run_schedule(cfg: ReptorConfig, clients: usize, seed: u64, at_us: &[u64]) -> Outcome {
    // Replica 0's service is built first and shares its log with the test.
    let order = Rc::new(RefCell::new(Vec::new()));
    let mut shared = Some(order.clone());
    let mut c = Cluster::build(Stack::Direct, cfg, clients, seed, || {
        Box::new(OrderLog {
            order: shared.take().unwrap_or_default(),
            chain: Digest::ZERO,
        })
    });
    for (k, &at) in at_us.iter().enumerate() {
        let client = c.clients[k % clients].clone();
        c.sim.schedule_in(Nanos::from_micros(at), move |sim| {
            client.submit(sim, vec![k as u8]);
        });
    }
    let per_client = |i: usize| ((at_us.len() + clients - 1 - i) / clients) as u64;
    while (0..clients).any(|i| c.clients[i].stats().completed < per_client(i)) {
        assert!(c.sim.step(), "simulation went idle before completion");
    }
    c.settle();
    c.assert_safety();
    assert_replies_in_order(&c, per_client);
    let order = order.borrow().clone();
    assert_eq!(order.len(), at_us.len(), "every request executed once");
    for client in &c.clients {
        let mine = order.iter().filter(|(id, _)| *id == client.id());
        assert!(
            mine.map(|(_, ts)| *ts).is_sorted(),
            "client {} executed out of order",
            client.id()
        );
    }
    let states: Vec<Digest> = c
        .replicas
        .iter()
        .map(|r| r.with_service(|s| s.state_digest()))
        .collect();
    assert!(states.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
    Outcome {
        order,
        state: states[0],
        batches: c.replicas[0].stats().executed_batches,
    }
}

/// (c) Batching regroups requests into instances; it must not reorder
/// them. The same arrivals end in the same flattened order and the same
/// service state whether every request is its own instance or not.
#[test]
fn batch_size_does_not_change_the_request_order() {
    // 60 requests from 3 clients, in bursts tight enough to be held.
    let at_us: Vec<u64> = (0..60u64).map(|k| (k / 6) * 900 + (k % 6) * 3).collect();
    let run = |batch_size: usize| {
        let cfg = ReptorConfig {
            batch_size,
            ..ReptorConfig::small()
        };
        run_schedule(cfg, 3, 21, &at_us)
    };
    let (unbatched, batched) = (run(1), run(10));
    assert_eq!(unbatched.batches, 60);
    assert!(batched.batches < 60, "the schedule must exercise the hold");
    assert_eq!(batched.order, unbatched.order);
    assert_eq!(batched.state, unbatched.state);
}

/// (e) A held partial batch waits on local execution progress only. Here
/// the primary's open instance is completed *for* it by a state transfer —
/// no batch pops in `try_execute` — and the requests held behind that
/// instance must be proposed in the very event that installs the
/// checkpoint, not at the next client retransmission. (A durable restart
/// cannot strand a batch this way: `restart` empties `pending` and leaves
/// `next_seq` at `last_executed + 1`.)
#[test]
fn primary_proposes_held_batch_when_state_transfer_completes_its_instance() {
    let cfg = ReptorConfig {
        checkpoint_interval: 2,
        ..ReptorConfig::small()
    };
    let mut c = world(&Scenario::new(Stack::Direct, 22).cfg(cfg));
    let client = c.clients[0].clone();
    let (primary, backups) = (c.replicas[0].clone(), c.replicas[1..].to_vec());
    client.submit(&mut c.sim, b"inc".to_vec());
    assert!(c.run_until_completed(1, 1_000_000));
    c.settle();

    // The primary goes deaf to its backups, then proposes seq 2.
    let deafen = |c: &Cluster, loss: f64| {
        c.net.with_faults(|f| {
            for b in 1..4 {
                f.set_loss(HostId(b), HostId(0), loss);
            }
        });
    };
    deafen(&c, 1.0);
    client.submit(&mut c.sim, b"inc".to_vec());
    while primary.stats().pre_prepares_sent < 2 {
        assert!(c.sim.step());
    }
    // Two more requests arrive behind the open instance and are held.
    client.submit(&mut c.sim, b"inc".to_vec());
    client.submit(&mut c.sim, b"inc".to_vec());
    // Outbound messages leave a replica in order, so once one backup has
    // executed seq 2 on the others' COMMITs, their PREPAREs are lost for
    // good: the primary is left one short of prepared and can never commit
    // seq 2 itself. It hears again in time for the checkpoint votes.
    while backups.iter().all(|b| b.last_executed() < 2) {
        assert!(c.sim.step());
    }
    deafen(&c, 0.0);

    while primary.stats().state_transfers_completed == 0 {
        assert!(c.sim.step(), "the primary never fetched checkpoint 2");
    }
    assert_eq!(primary.last_executed(), 2, "seq 2 came by state transfer");
    assert_eq!(primary.stats().executed_batches, 1, "and not by execution");
    assert_eq!(
        primary.stats().pre_prepares_sent,
        3,
        "the held requests go out with the transfer, not with the next arrival"
    );
    assert!(c.run_until_completed(4, 1_000_000));
    c.settle();
    c.assert_safety();
    assert_eq!(client.stats().retransmissions, 0);
    for r in &c.replicas {
        assert_eq!(r.view(), 0, "replica {} left view 0", r.id());
        assert_eq!(
            r.with_service(|s| s.state_digest()),
            Digest::of(&4u64.to_le_bytes())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// (g) Whatever the arrival pattern, batch size, pillar count and
    /// client count: every request completes, replicas agree, and each
    /// client's requests execute and are answered in timestamp order.
    #[test]
    fn any_arrival_pattern_completes_in_order(
        gaps_us in proptest::collection::vec(0u64..150, 1..48),
        batch_size in 1usize..=10,
        pillars in 1usize..=4,
        clients in 1usize..=4,
        seed in 0u64..1_000,
    ) {
        let at_us: Vec<u64> = gaps_us
            .iter()
            .scan(0u64, |t, gap| {
                *t += gap;
                Some(*t)
            })
            .collect();
        let cfg = ReptorConfig {
            batch_size,
            pillars,
            ..ReptorConfig::small()
        };
        let outcome = run_schedule(cfg, clients, seed, &at_us);
        let requests = at_us.len() as u64;
        prop_assert!(outcome.batches <= requests);
        prop_assert!(batch_size > 1 || outcome.batches == requests);
    }
}
