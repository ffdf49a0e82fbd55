//! The fully replicated system (paper §VII future work): 4-replica PBFT
//! agreement driven over both comm stacks.
//!
//! The paper stops at the comm-stack comparison and explicitly defers
//! "extensively evaluat\[ing\] the fully replicated system" to future work;
//! this module runs that experiment: a client sweeps request payloads
//! against a 4-replica Reptor group whose replica communication runs over
//! the NIO-TCP stack, the RUBIN-RDMA stack, or the direct fabric.

pub use reptor::Stack;
use reptor::{
    Cluster, DurabilityConfig, EchoService, KvOp, KvService, RecoveryConfig, RecoveryScheduler,
    ReptorConfig,
};
use simnet::{throughput_ops_per_sec, Histogram, HostId, MetricsSnapshot, Nanos, Series};

use crate::workload::{Mix, Workload};
use crate::EchoResult;

/// The pipeline counts swept by the COP scaling experiment (Behl et al.'s
/// Consensus-Oriented Parallelization). `p = 4` oversubscribes the three
/// agreement cores of the 4-core Xeon-v2 host model, probing the plateau.
pub const COP_SWEEP: [usize; 3] = [1, 2, 4];

/// Request payload used by the COP scaling experiment.
pub const COP_PAYLOAD: usize = 4096;

/// One measured COP operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopPoint {
    /// Number of consensus pipelines (`p`).
    pub pipelines: usize,
    /// Mean request latency in microseconds.
    pub latency_us: f64,
    /// Sustained agreement throughput in requests per second.
    pub rps: f64,
}

/// The replica-group configuration of one COP scaling point: direct
/// transport and single-request batches so per-instance agreement CPU work
/// (MAC vectors, digests) dominates and lands on the pipeline cores.
pub fn cop_config(pipelines: usize) -> ReptorConfig {
    ReptorConfig {
        pillars: pipelines,
        batch_size: 1,
        window: 64,
        ..ReptorConfig::small()
    }
}

/// Measures one COP scaling point with `p` pipelines.
pub fn cop_point(pipelines: usize, total: u64, depth: usize) -> CopPoint {
    let (r, _) = bft_echo(
        Stack::Direct,
        Mix::Fixed(COP_PAYLOAD),
        total,
        depth,
        0xC0B + pipelines as u64,
        cop_config(pipelines),
    );
    CopPoint {
        pipelines,
        latency_us: r.latency_us,
        rps: r.rps,
    }
}

/// COP scaling: agreement throughput as the number of consensus pipelines
/// grows (the Reptor property §II-C highlights). Whole agreement instances
/// run on dedicated cores, so throughput should scale near-linearly until
/// the agreement cores of the 4-core host model are saturated.
pub fn cop_scaling(total: u64, depth: usize) -> Vec<CopPoint> {
    COP_SWEEP
        .iter()
        .map(|&p| cop_point(p, total, depth))
        .collect()
}

/// Runs `total` requests drawn from `mix` through a 4-replica PBFT echo
/// group configured by `cfg` over the chosen stack, keeping `depth` requests
/// in flight; returns the operating point and the run's full cross-layer
/// [`MetricsSnapshot`] (callers that want only the figure take `.0`).
pub fn bft_echo(
    stack: Stack,
    mix: Mix,
    total: u64,
    depth: usize,
    seed: u64,
    cfg: ReptorConfig,
) -> (EchoResult, MetricsSnapshot) {
    let mut c = Cluster::build(stack, cfg, 1, seed, || Box::new(EchoService::default()));
    let client = c.clients[0].clone();

    let mut gen = Workload::new(mix, seed ^ 0x5EED);
    let t0 = c.sim.now();
    let mut submitted = 0u64;
    let mut guard = 0u64;
    while client.stats().completed < total {
        while submitted < total && client.pending_count() < depth {
            client.submit(&mut c.sim, gen.next_payload());
            submitted += 1;
        }
        if !c.sim.step() {
            break;
        }
        guard += 1;
        assert!(
            guard < 60_000_000,
            "replicated run stalled: {}/{} done over {:?}",
            client.stats().completed,
            total,
            stack
        );
    }
    let completed = client.stats().completed;
    assert_eq!(
        completed, total,
        "not all requests completed over {stack:?}"
    );
    let mut rec = Histogram::new();
    for done in client.completions() {
        rec.observe(done.latency().as_nanos());
    }
    let result = EchoResult {
        latency_us: Nanos::from_nanos(rec.mean()).as_micros_f64(),
        rps: throughput_ops_per_sec(total, c.sim.now() - t0),
    };
    (result, c.metrics().snapshot())
}

/// Partitions `host` from every other host of the cluster, clients
/// included, or heals those partitions.
fn set_isolated(c: &Cluster, host: HostId, isolated: bool) {
    c.net.with_faults(|f| {
        for &other in c.hosts.iter().filter(|&&h| h != host) {
            if isolated {
                f.partition(other, host);
            } else {
                f.heal(other, host);
            }
        }
    });
}

/// `count` 64-byte requests for [`Cluster::submit_sequentially`]: one in
/// flight at a time, so every request lands in its own agreement instance
/// and sequence numbers advance predictably.
fn pings(count: usize) -> impl Iterator<Item = Vec<u8>> {
    std::iter::repeat_n(vec![7u8; 64], count)
}

/// Result of the durable cold-restart drill: the same crash/restart
/// workload measured twice, once without a durable store (the rejoining
/// replica fetches the full checkpoint from peers) and once with the WAL
/// enabled (local replay shrinks the fetch to the changed chunks).
#[derive(Debug, Clone)]
pub struct DurableRestartDrill {
    /// Metrics of the baseline run (no durability: full peer fetch).
    pub baseline: MetricsSnapshot,
    /// Metrics of the durable run (WAL replay + delta fetch).
    pub durable: MetricsSnapshot,
}

impl DurableRestartDrill {
    /// Peer bytes fetched by the cold-restarted replica without a durable
    /// store — the full checkpoint payload.
    pub fn full_fetch_bytes(&self) -> u64 {
        self.baseline.counter("reptor.r1.state_transfer_bytes")
    }

    /// Peer bytes fetched with the durable store — only the chunks the
    /// locally replayed state could not satisfy.
    pub fn delta_fetch_bytes(&self) -> u64 {
        self.durable.counter("reptor.r1.state_transfer_bytes")
    }

    /// Bytes satisfied from the locally recovered payload instead of the
    /// network.
    pub fn local_bytes(&self) -> u64 {
        self.durable.counter("reptor.r1.state_transfer_bytes_local")
    }

    /// The CI gate: the delta fetch must cost less than half the full
    /// fetch, or local recovery is not pulling its weight.
    pub fn gate_passes(&self) -> bool {
        self.delta_fetch_bytes() * 2 < self.full_fetch_bytes()
    }
}

/// One cold-restart measurement: a backup is partitioned while the group
/// overwrites a slice of a seeded KV store past its watermark window, then
/// restarts cold and rebuilds via state transfer. With `durability` set,
/// the restart first replays the local WAL and the transfer degrades to a
/// delta fetch of the changed chunks.
fn durable_restart_run(seed: u64, durability: Option<DurabilityConfig>) -> MetricsSnapshot {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        durability,
        ..ReptorConfig::small()
    };
    let mut c = Cluster::build(
        Stack::Rubin,
        cfg,
        1,
        seed,
        || Box::new(KvService::default()),
    );
    // Requests go out one per agreement instance, with fixed-size values
    // so the checkpoint payload layout is chunk-stable between the
    // victim's replayed position and the target checkpoint.
    let put = |key: String, val: Vec<u8>| KvOp::Put(key.into_bytes(), val).encode();

    // Seed 64 keys: seqs 1..=64, stable checkpoint at 64 everywhere.
    let seeds: Vec<Vec<u8>> = (0..64)
        .map(|i| put(format!("k{i:03}"), vec![i as u8; 32]))
        .collect();
    c.submit_sequentially(seeds);
    c.settle();

    // Cut the victim off, overwrite 8 of the 64 keys (two checkpoint
    // intervals: seqs 65..=72, stable 72), and hold until retry
    // exhaustion breaks the channels — the outage is real.
    let victim = c.hosts[1];
    set_isolated(&c, victim, true);
    let updates: Vec<Vec<u8>> = (0..8)
        .map(|i| put(format!("k{i:03}"), vec![0xBB + i as u8; 32]))
        .collect();
    c.submit_sequentially(updates);
    c.sim.run_for(Nanos::from_millis(100));
    set_isolated(&c, victim, false);
    c.sim.run_for(Nanos::from_millis(150));

    // Cold restart: volatile state gone, the drive (if any) survives.
    c.replicas[1].restart(&mut c.sim, Box::new(KvService::default()));
    c.sim.run_for(Nanos::from_millis(400));
    assert!(
        c.replicas[1].stats().state_transfers_completed >= 1,
        "cold-restarted replica must complete a state transfer"
    );
    c.metrics().snapshot()
}

/// Runs the durable cold-restart drill over the RUBIN stack: the same
/// partition + cold-restart workload with and without the durable
/// checkpoint store, so CI can gate the delta-fetch saving. The
/// `recovery_drill` sidecar embeds both snapshots (`durable_restart_drill`
/// / `durable_restart_drill_baseline` keys).
pub fn durable_restart_drill_instrumented(seed: u64) -> DurableRestartDrill {
    let baseline = durable_restart_run(seed, None);
    let durable = durable_restart_run(
        seed,
        Some(DurabilityConfig {
            wal: true,
            // Pure-WAL recovery: no snapshot compaction inside the drill
            // window, so the replay covers the full seeded prefix.
            snapshot_every: 1_000,
            ..DurabilityConfig::default()
        }),
    );
    DurableRestartDrill { baseline, durable }
}

/// Runs the proactive-recovery epoch drill over the RUBIN stack and
/// returns the run's cross-layer metrics snapshot: a [`RecoveryScheduler`]
/// drives one full epoch rotation — epoch roll, per-replica memory-region
/// re-registration, four staggered restart + state-transfer refreshes —
/// while a closed-loop client keeps the group under load. The
/// `recovery_drill` sidecar embeds this snapshot so the bench artifact records the
/// `proactive_*` counters (epoch_rolls/refreshes/rotations) plus the
/// `mr_rotations`, `epoch_rolls` and `state_transfer_*` replica counters
/// for every CI run.
pub fn recovery_epoch_drill_instrumented(seed: u64) -> MetricsSnapshot {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let mut c = Cluster::build(Stack::Rubin, cfg, 1, seed, || {
        Box::new(EchoService::default())
    });
    let client = c.clients[0].clone();

    // Warm up past the first checkpoint so refreshed replicas have a
    // certified store to rebuild from.
    c.submit_sequentially(pings(6));

    let sched = RecoveryScheduler::new(
        c.replicas.clone(),
        RecoveryConfig {
            period: Nanos::from_millis(30),
            poll: Nanos::from_millis(2),
            refresh_deadline: Nanos::from_millis(400),
        },
        c.metrics(),
        Box::new(|| Box::new(EchoService::default())),
    );
    sched.start(&mut c.sim, 1);

    // Closed-loop load straight through the rotation: the stagger bound
    // keeps the quorum intact, so requests keep completing while each
    // replica in turn is torn down and rebuilt.
    let mut guard = 0u64;
    while sched.stats().rotations_completed < 1 {
        if client.pending_count() == 0 {
            client.submit(&mut c.sim, vec![7u8; 64]);
        }
        assert!(c.sim.step(), "recovery drill went idle mid-rotation");
        guard += 1;
        assert!(guard < 60_000_000, "recovery drill rotation stalled");
    }
    c.sim.run_for(Nanos::from_millis(100));

    let stats = sched.stats();
    assert_eq!(
        stats.refreshes_completed, c.cfg.n as u64,
        "every replica must refresh and rejoin in the drill ({stats:?})"
    );
    for r in &c.replicas {
        assert!(
            r.stats().state_transfers_completed >= 1,
            "drilled replica {} must have rebuilt by state transfer",
            r.id()
        );
    }
    c.metrics().snapshot()
}

/// Request payload used by the one-sided fast-path comparison (BFT
/// requests are mostly small, §V).
pub const FAST_PATH_PAYLOAD: usize = 1024;

/// Fast-path vs. message-path PBFT operating points at the same batch
/// size over the RUBIN stack.
#[derive(Debug, Clone)]
pub struct FastPathComparison {
    /// Message-path PBFT (pre-prepare as a MAC-authenticated message).
    pub message: EchoResult,
    /// One-sided fast path (pre-prepare as an RDMA WRITE into the
    /// follower's leader-granted slot region).
    pub fast: EchoResult,
    /// Cross-layer metrics snapshot of the fast-path run — carries the
    /// `fast_path_*` counters the `fast_path` sidecar and gate read.
    pub snapshot: MetricsSnapshot,
}

/// Measures PBFT commit latency over the RUBIN stack with the one-sided
/// fast path off vs. on, everything else identical (same seed, same
/// batch size, same payload mix). The fast path replaces the leader's
/// pre-prepare send + per-follower MAC verification with a single RDMA
/// WRITE whose RNIC WRITE permission *is* the authentication, so its
/// common-case commit latency must sit strictly below the message path
/// — the gated bench asserts exactly that.
pub fn fast_path_comparison(total: u64, depth: usize, seed: u64) -> FastPathComparison {
    let mix = Mix::Fixed(FAST_PATH_PAYLOAD);
    let (message, _) = bft_echo(Stack::Rubin, mix, total, depth, seed, ReptorConfig::small());
    let fast_cfg = ReptorConfig {
        fast_path: true,
        ..ReptorConfig::small()
    };
    let (fast, snapshot) = bft_echo(Stack::Rubin, mix, total, depth, seed, fast_cfg);
    FastPathComparison {
        message,
        fast,
        snapshot,
    }
}

/// The payload sweep for the replicated experiment (BFT messages are
/// mostly small, §V).
pub const BFT_PAYLOADS: [usize; 4] = [256, 1024, 4 * 1024, 16 * 1024];

/// Runs every named workload mix over all three stacks; returns one
/// `(mix label, stack label, result)` row per combination.
pub fn run_mixes(total: u64, depth: usize) -> Vec<(String, &'static str, EchoResult)> {
    let mut rows = Vec::new();
    for mix in [Mix::KvStore, Mix::WebFrontend, Mix::Ledger] {
        for stack in [Stack::Rubin, Stack::Nio] {
            let (r, _) = bft_echo(stack, mix, total, depth, 0xB5, ReptorConfig::small());
            rows.push((mix.label(), stack.label(), r));
        }
    }
    rows
}

/// Runs the sweep over all three stacks; returns `(latency, throughput)`
/// series.
pub fn run(total: u64, depth: usize) -> (Vec<Series>, Vec<Series>) {
    let stacks = [Stack::Rubin, Stack::Nio, Stack::Direct];
    let mut lat: Vec<Series> = stacks.iter().map(|s| Series::new(s.label())).collect();
    let mut thr = lat.clone();
    for &payload in &BFT_PAYLOADS {
        for (i, &stack) in stacks.iter().enumerate() {
            let (r, _) = bft_echo(
                stack,
                Mix::Fixed(payload),
                total,
                depth,
                0xB4,
                ReptorConfig::small(),
            );
            lat[i].push(payload, r.latency_us);
            thr[i].push(payload, r.rps);
        }
    }
    (lat, thr)
}
