//! Integration tests spanning the whole workspace: PBFT agreement driven
//! over each of the three comm stacks (direct fabric, NIO-TCP, RUBIN-RDMA)
//! — the paper's end goal of an RDMA-enabled BFT protocol, exercised end
//! to end. Every scenario is one body run on a [`Stack`]; what the client
//! and the service see must not depend on which.

use bft_crypto::Digest;
use reptor::{ByzantineMode, Cluster, CounterService, ReptorConfig, Stack};

const STACKS: [Stack; 3] = [Stack::Direct, Stack::Nio, Stack::Rubin];

/// What a run looks like from outside the comm stack.
#[derive(Debug)]
struct Outcome {
    /// The client's `(timestamp, result)` replies in completion order.
    replies: Vec<(u64, Vec<u8>)>,
    /// The service state every live replica ended in.
    state: Digest,
    /// Mean request latency in nanoseconds (differs per stack by design).
    mean_latency_ns: u128,
}

impl Outcome {
    fn seen_by_client(&self) -> (&[(u64, Vec<u8>)], Digest) {
        (&self.replies, self.state)
    }
}

/// `requests` counter increments in one burst against a four-replica
/// group with `fault` injected at one replica; checks safety and that the
/// other replicas executed everything and agree on the state.
fn counter_run(
    stack: Stack,
    seed: u64,
    requests: u64,
    fault: Option<(usize, ByzantineMode)>,
) -> (Cluster, Outcome) {
    let mut c = Cluster::build(stack, ReptorConfig::small(), 1, seed, || {
        Box::new(CounterService::default())
    });
    if let Some((replica, mode)) = fault {
        c.replicas[replica].set_byzantine(mode);
    }
    let client = c.clients[0].clone();
    for _ in 0..requests {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    c.run_to_completion(requests);
    let done = client.completions();
    let mean_latency_ns = done
        .iter()
        .map(|d| d.latency().as_nanos() as u128)
        .sum::<u128>()
        / done.len() as u128;
    c.settle();
    c.assert_safety();

    let faulty = fault.map(|(replica, _)| replica);
    let states: Vec<Digest> = c
        .replicas
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != faulty)
        .map(|(_, r)| {
            assert_eq!(
                r.stats().executed_requests,
                requests,
                "{stack:?}: replica {}",
                r.id()
            );
            r.with_service(|s| s.state_digest())
        })
        .collect();
    assert!(
        states.windows(2).all(|w| w[0] == w[1]),
        "{stack:?}: replicas diverged"
    );
    let outcome = Outcome {
        replies: done.into_iter().map(|d| (d.timestamp, d.result)).collect(),
        state: states[0],
        mean_latency_ns,
    };
    (c, outcome)
}

/// The fault-free burst: ten increments, answered 1..=10 in order.
fn counter_scenario(stack: Stack, seed: u64) -> Outcome {
    let (_, outcome) = counter_run(stack, seed, 10, None);
    let want: Vec<(u64, Vec<u8>)> = (1..=10u64).map(|k| (k, k.to_le_bytes().to_vec())).collect();
    assert_eq!(outcome.replies, want, "{stack:?}");
    outcome
}

#[test]
fn bft_counter_over_direct_stack() {
    counter_scenario(Stack::Direct, 100);
}

#[test]
fn bft_counter_over_nio_tcp_stack() {
    counter_scenario(Stack::Nio, 101);
}

#[test]
fn bft_counter_over_rubin_rdma_stack() {
    counter_scenario(Stack::Rubin, 102);
}

/// The integration claim itself: the comm stack is invisible to the
/// protocol's observers. Same seed, same workload — the same reply
/// sequence and the same state digest on all three stacks.
#[test]
fn replies_and_state_are_identical_on_all_three_stacks() {
    let runs = STACKS.map(|stack| counter_scenario(stack, 103));
    for (stack, run) in STACKS.iter().zip(&runs) {
        assert_eq!(
            run.seen_by_client(),
            runs[0].seen_by_client(),
            "{stack:?} vs {:?}",
            STACKS[0]
        );
    }
}

#[test]
fn rdma_stack_commits_faster_than_tcp_stack() {
    // The paper's motivation end to end: agreement latency over RUBIN must
    // beat agreement latency over the NIO TCP stack — and the direct fabric,
    // which charges no comm-stack CPU at all, bounds both from below.
    let [direct, tcp, rdma] = STACKS.map(|stack| counter_scenario(stack, 103).mean_latency_ns);
    assert!(
        rdma < tcp,
        "RDMA agreement ({rdma}ns) must beat TCP agreement ({tcp}ns)"
    );
    assert!(
        direct < rdma,
        "the direct fabric ({direct}ns) is the floor under RDMA ({rdma}ns)"
    );
}

/// A silent primary is voted out and the request commits in a later view.
fn byzantine_leader_scenario(stack: Stack, seed: u64) -> Outcome {
    let fault = Some((0, ByzantineMode::SilentPrimary));
    let (c, outcome) = counter_run(stack, seed, 1, fault);
    for r in &c.replicas[1..] {
        assert!(r.view() >= 1, "{stack:?}: view change must have happened");
    }
    outcome
}

#[test]
fn byzantine_leader_tolerated_over_rubin_stack() {
    byzantine_leader_scenario(Stack::Rubin, 104);
}

#[test]
fn byzantine_leader_tolerated_identically_on_all_three_stacks() {
    let runs = STACKS.map(|stack| byzantine_leader_scenario(stack, 104));
    for run in &runs {
        assert_eq!(run.seen_by_client(), runs[0].seen_by_client());
    }
}

/// A crashed backup costs nothing but its vote.
fn crashed_replica_scenario(stack: Stack, seed: u64) -> Outcome {
    let (c, outcome) = counter_run(stack, seed, 5, Some((2, ByzantineMode::Crash)));
    assert_eq!(
        c.replicas[2].last_executed(),
        0,
        "{stack:?}: crashed is dead"
    );
    outcome
}

#[test]
fn crashed_replica_tolerated_over_nio_stack() {
    crashed_replica_scenario(Stack::Nio, 105);
}

#[test]
fn crashed_replica_tolerated_identically_on_all_three_stacks() {
    let runs = STACKS.map(|stack| crashed_replica_scenario(stack, 105));
    for run in &runs {
        assert_eq!(run.seen_by_client(), runs[0].seen_by_client());
    }
}

/// Everything replica `id` has counted or observed so far: its stats, its
/// position, and every `reptor.r<id>.*` counter and histogram count.
fn replica_footprint(c: &Cluster, id: usize) -> impl PartialEq + std::fmt::Debug {
    let prefix = format!("reptor.r{id}.");
    let m = c.metrics_snapshot();
    let counters: Vec<(String, u64)> = m
        .counters
        .into_iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .collect();
    let observations: Vec<(String, u64)> = m
        .histograms
        .into_iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(k, h)| (k, h.count))
        .collect();
    assert!(!counters.is_empty() && !observations.is_empty());
    let r = &c.replicas[id];
    (
        (r.stats(), r.view(), r.last_executed(), r.low_mark()),
        counters,
        observations,
    )
}

/// A crashed replica is inert: from the moment it crashes nothing it counts
/// moves, whatever arrives, completes or times out at it — here a request
/// every 2 ms for four view-change timeouts, with every timer it armed
/// while alive firing inside that span.
fn crash_is_inert(stack: Stack, victim: usize, seed: u64) {
    let cfg = ReptorConfig::small();
    let span = cfg.view_change_timeout * 4;
    let gap = cfg.view_change_timeout / 20;
    let mut c = Cluster::build(stack, cfg, 1, seed, || Box::new(CounterService::default()));
    let inc = || [b"inc".to_vec()];
    for _ in 0..5 {
        c.submit_sequentially(inc());
    }
    c.replicas[victim].set_byzantine(ByzantineMode::Crash);
    let at_crash = replica_footprint(&c, victim);
    let until = c.sim.now() + span;
    while c.sim.now() < until {
        c.submit_sequentially(inc());
        c.sim.run_for(gap);
    }
    c.settle();
    c.assert_safety();
    assert_eq!(
        replica_footprint(&c, victim),
        at_crash,
        "{stack:?}: crashed replica {victim} moved"
    );
    let survivor = &c.replicas[(victim + 1) % c.replicas.len()];
    assert!(survivor.last_executed() > c.replicas[victim].last_executed());
    assert_eq!(survivor.view(), u64::from(victim == 0), "{stack:?}");
}

#[test]
fn crashed_backup_is_inert_on_all_three_stacks() {
    for stack in STACKS {
        crash_is_inert(stack, 2, 106);
    }
}

/// The same across the view change the crash causes.
#[test]
fn crashed_primary_is_inert_across_its_view_change_on_all_three_stacks() {
    for stack in STACKS {
        crash_is_inert(stack, 0, 107);
    }
}
