//! Integration tests spanning the whole workspace: PBFT agreement driven
//! over each of the three comm stacks (direct fabric, NIO-TCP, RUBIN-RDMA)
//! — the paper's end goal of an RDMA-enabled BFT protocol, exercised end
//! to end. Every scenario is one row run on a [`Stack`]; what the client
//! and the service see must not depend on which.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use reptor::{ByzantineMode, Cluster, Stack};
use scenarios::rows::STACKS;
use scenarios::scenario::{world, Scenario};

stacks_rows!(row_tests);

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
    let mut c = world(&Scenario::new(stack, seed));
    let span = c.cfg.view_change_timeout * 4;
    let gap = c.cfg.view_change_timeout / 20;
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
