//! COP determinism and fault-isolation scenarios.
//!
//! Consensus-Oriented Parallelization must not cost any of the simulator's
//! reproducibility guarantees:
//!
//! * a fixed-seed run matches its golden line, a hash of the full metrics
//!   snapshot JSON, whatever the pipeline count;
//! * the executor's total order makes the *outcome* — executed `(seq,
//!   digest)` history and service state — independent of how many
//!   pipelines agreement was split across;
//! * losing one pipeline's traffic stalls exactly that slice of
//!   sequence-number space: the other pipelines keep committing, and the
//!   PR 2 catch-up protocol repairs the gap once the loss heals.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use std::cell::Cell;
use std::rc::Rc;

use reptor::{
    Cluster, CounterService, NodeId, Replica, ReptorConfig, SignedMessage, Stack, Transport,
};
use simnet::{CoreId, HostId, Simulator, TestBed};

cop_rows!(row_tests);

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
