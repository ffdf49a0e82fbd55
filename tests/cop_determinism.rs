//! COP determinism and fault-isolation scenarios.
//!
//! Consensus-Oriented Parallelization must not cost any of the simulator's
//! reproducibility guarantees:
//!
//! * a fixed-seed run is byte-identical down to the full metrics snapshot
//!   JSON, whatever the pipeline count;
//! * the executor's total order makes the *outcome* — executed `(seq,
//!   digest)` history and service state — independent of how many
//!   pipelines agreement was split across;
//! * losing one pipeline's traffic stalls exactly that slice of
//!   sequence-number space: the other pipelines keep committing, and the
//!   PR 2 catch-up protocol repairs the gap once the loss heals.

use std::cell::Cell;
use std::rc::Rc;

use reptor::{
    Cluster, CounterService, NodeId, Replica, ReptorConfig, SignedMessage, Stack, Transport,
};
use simnet::{CoreId, HostId, Simulator, TestBed};

/// A single-client cluster with `pipelines` COP pipelines and unbatched
/// agreement, so request `k` lands at sequence number `k` regardless of
/// pipeline count and runs are comparable across `p`.
fn cop_cluster(seed: u64, pipelines: usize) -> Cluster {
    let cfg = ReptorConfig {
        pillars: pipelines,
        batch_size: 1,
        window: 64,
        ..ReptorConfig::small()
    };
    Cluster::sim_transport(cfg, 1, seed, || Box::new(CounterService::default()))
}

fn run_workload(cluster: &mut Cluster, requests: u64) {
    let client = cluster.clients[0].clone();
    for _ in 0..requests {
        client.submit(&mut cluster.sim, b"inc".to_vec());
    }
    assert!(
        cluster.run_until_completed(requests, 5_000_000),
        "workload must complete"
    );
    cluster.settle();
}

#[test]
fn fixed_seed_p1_metrics_snapshot_is_byte_identical() {
    let run = || {
        let mut c = cop_cluster(0xD5, 1);
        run_workload(&mut c, 16);
        c.metrics_snapshot().to_json()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "fixed-seed p=1 runs must serialize byte-identical snapshots"
    );
}

#[test]
fn fixed_seed_p4_metrics_snapshot_is_byte_identical() {
    let run = || {
        let mut c = cop_cluster(0xD5, 4);
        run_workload(&mut c, 16);
        c.metrics_snapshot().to_json()
    };
    assert_eq!(
        run(),
        run(),
        "fixed-seed p=4 runs must serialize byte-identical snapshots"
    );
}

#[test]
fn executor_total_order_is_independent_of_pipeline_count() {
    const REQUESTS: u64 = 24;
    let mut histories = Vec::new();
    let mut digests = Vec::new();
    for pipelines in [1usize, 2, 4] {
        let mut c = cop_cluster(0xC0B, pipelines);
        run_workload(&mut c, REQUESTS);
        c.assert_safety();
        let log = c.replicas[0].executed_log();
        assert_eq!(log.len() as u64, REQUESTS, "p={pipelines}: all executed");
        // The executed history is gapless and in sequence order.
        for (i, (seq, _)) in log.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1, "p={pipelines}: total order violated");
        }
        // Every replica converged on the same state.
        let state: Vec<_> = c
            .replicas
            .iter()
            .map(|r| r.with_service(|s| s.state_digest()))
            .collect();
        assert!(state.windows(2).all(|w| w[0] == w[1]));
        if pipelines > 1 {
            // Agreement genuinely spread across pipelines.
            let active = c.replicas[0]
                .pipeline_stats()
                .iter()
                .filter(|p| p.committed > 0)
                .count();
            assert_eq!(active, pipelines, "p={pipelines}: idle pipeline");
        }
        histories.push(log);
        digests.push(state[0]);
    }
    // Same committed sequence, same batch digests, same final state — the
    // pipeline count is invisible in the outcome.
    assert!(histories.windows(2).all(|w| w[0] == w[1]));
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

// ---------------------------------------------------------------------
// Pipeline-targeted loss
// ---------------------------------------------------------------------

/// Transport wrapper that, while `lossy` is set, drops every *inbound*
/// agreement frame owned by pipeline 0 (`seq % lanes == 0`) — a fault that
/// targets one COP pipeline of one replica while leaving the other lanes
/// untouched.
struct LossyLaneZero {
    inner: Rc<dyn Transport>,
    lanes: usize,
    lossy: Rc<Cell<bool>>,
}

impl Transport for LossyLaneZero {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&self, sim: &mut Simulator, to: NodeId, msg: Vec<u8>) {
        self.inner.send(sim, to, msg);
    }

    fn set_delivery(&self, f: reptor::DeliveryFn) {
        let lossy = self.lossy.clone();
        let lanes = self.lanes as u64;
        self.inner.set_delivery(Rc::new(move |sim, from, bytes| {
            if lossy.get() {
                if let Some(seq) = SignedMessage::peek_wire_seq(&bytes) {
                    if seq % lanes == 0 {
                        return; // lane-0 agreement frame lost
                    }
                }
            }
            f(sim, from, bytes);
        }));
    }
}

#[test]
fn lane_loss_stalls_one_pipeline_while_others_commit() {
    const PIPELINES: usize = 4;
    const REQUESTS: u64 = 12;
    let cfg = ReptorConfig {
        pillars: PIPELINES,
        batch_size: 1,
        window: 64,
        ..ReptorConfig::small()
    };
    let (mut sim, net, hosts) = TestBed::cluster(0x10_55, cfg.n + 1);
    let nodes: Vec<(NodeId, HostId, CoreId)> = hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| (i as NodeId, h, CoreId(0)))
        .collect();
    let mut transports = Stack::Direct.mesh(&mut sim, &net, &nodes);
    let lossy = Rc::new(Cell::new(true));

    // Replica 3 (a backup) sees lane-0 loss; everyone else is healthy.
    transports[3] = Rc::new(LossyLaneZero {
        inner: transports[3].clone(),
        lanes: PIPELINES,
        lossy: lossy.clone(),
    });
    let mut c = Cluster::with_transports(cfg, sim, net, hosts, transports, || {
        Box::new(CounterService::default())
    });
    let client = c.clients[0].clone();

    for _ in 0..REQUESTS {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    // The healthy 2f + 1 replicas complete every request without the
    // victim's lane-0 votes.
    c.run_to_completion(REQUESTS);

    // Seqs 1..=12 split as lane `s % 4`: lane 0 owns 4, 8, 12. The victim's
    // lane 0 never commits, but its other pipelines keep making progress,
    // and the executor blocks exactly at the first lane-0 gap (seq 4).
    let victim = &c.replicas[3];
    let stats = victim.pipeline_stats();
    assert_eq!(stats[0].committed, 0, "lane 0 must be starved at victim");
    let others: u64 = stats[1..].iter().map(|p| p.committed).sum();
    assert!(others > 0, "healthy pipelines must keep committing");
    assert!(victim.last_executed() < 4, "executor blocked at lane-0 gap");
    assert_eq!(c.replicas[0].last_executed(), REQUESTS);

    // Heal the lane and let the catch-up protocol repair the gap.
    lossy.set(false);
    c.sim.run_until_idle();
    assert_eq!(
        victim.last_executed(),
        REQUESTS,
        "victim must catch up after the lane heals"
    );
    assert!(victim.stats().catch_ups_applied > 0, "repair used catch-up");
    let logs: Vec<_> = c.replicas.iter().map(Replica::executed_log).collect();
    assert!(logs.windows(2).all(|w| w[0] == w[1]), "identical histories");
}
