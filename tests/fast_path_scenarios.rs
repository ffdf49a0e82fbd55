//! One-sided fast-path agreement scenarios: the current view's leader
//! proposes by RDMA WRITE into per-view follower slot regions instead of
//! sending PRE-PREPARE messages (the paper's thesis applied to the
//! proposal step: RNIC WRITE *permission* replaces the MAC, so the
//! protocol-critical path sheds its per-proposal crypto and messaging
//! work).
//!
//! What these scenarios pin down:
//! * the fast path engages in the common case and commits in exactly two
//!   further one-way network delays after the WRITE lands (the prepare
//!   round and the commit round — no extra round trips were added);
//! * a fixed seed replays the whole fast-path timeline byte-identically;
//! * with `fast_path: false` the replica leaves *zero* trace of the
//!   feature — no slot grants, no regions, no counters — i.e. the
//!   default path is bit-identical to the pre-fast-path replica;
//! * on a transport without a one-sided write primitive (the NIO socket
//!   stack) and across COP pipeline counts, the message path engages
//!   cleanly as the fallback.

mod common;

use common::chaos_seed;
use reptor::{Cluster, CounterService, ReptorConfig, Stack};
use simnet::{CpuModel, HostId, LinkSpec, Nanos, Network, Simulator};

fn counter() -> Box<dyn reptor::StateMachine> {
    Box::new(CounterService::default())
}

/// Four counter replicas and one client on `stack`.
fn build(stack: Stack, seed: u64, cfg: ReptorConfig) -> Cluster {
    Cluster::build(stack, cfg, 1, seed, counter)
}

/// The same group on a full mesh whose one-way link delay is `propagation`
/// (the 2-delay scenario uses a delay that dwarfs every CPU and
/// serialization cost so hop counts dominate).
fn build_with_propagation(seed: u64, cfg: ReptorConfig, propagation: Nanos) -> Cluster {
    let sim = Simulator::new(seed);
    let net = Network::new();
    let hosts: Vec<HostId> = (0..cfg.n + 1)
        .map(|i| net.add_host(format!("replica-{i}"), 4, CpuModel::xeon_v2()))
        .collect();
    net.connect_full_mesh(LinkSpec {
        propagation,
        ..LinkSpec::ten_gbe()
    });
    Cluster::on_fabric(Stack::Rubin, cfg, sim, net, hosts, counter)
}

fn fast_cfg() -> ReptorConfig {
    ReptorConfig {
        fast_path: true,
        ..ReptorConfig::small()
    }
}

/// The common case: leader deposits proposals one-sided, followers ring
/// the doorbell and run prepare/commit unchanged. Returns the snapshot
/// JSON for the determinism test.
fn fast_path_commit_scenario(seed: u64) -> String {
    let mut w = build(Stack::Rubin, seed, fast_cfg());
    let client = w.clients[0].clone();
    for _ in 0..10 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(10);
    w.sim.run_until_idle();
    w.assert_safety();
    for r in &w.replicas {
        assert_eq!(r.stats().executed_requests, 10, "replica {}", r.id());
    }
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 10u64.to_le_bytes(), "exactly-once execution");

    // The leader proposed by WRITE and the followers heard doorbells.
    // (The very first batch may predate the grants and ride the message
    // path — that is the fallback working, not the fast path failing.)
    let leader = w.replicas[0].stats();
    assert!(leader.fast_path_writes > 0, "leader must WRITE into slots");
    let deliveries: u64 = w
        .replicas
        .iter()
        .map(|r| r.stats().fast_path_deliveries)
        .sum();
    assert!(deliveries > 0, "followers must deliver from slots");
    let snap = w.net.metrics().snapshot();
    assert!(snap.total("fast_path_grants_sent") >= 3, "followers grant");
    assert_eq!(
        snap.total("fast_path_write_denied"),
        0,
        "no revocation happened, so nothing may be denied"
    );
    snap.to_json()
}

#[test]
fn fast_path_engages_and_commits_exactly_once() {
    fast_path_commit_scenario(chaos_seed());
}

/// The whole fast-path timeline — grants, WRITEs, doorbells, agreement —
/// replays byte-identically from a fixed seed.
#[test]
fn fixed_seed_fast_path_timeline_replays_byte_identically() {
    let a = fast_path_commit_scenario(chaos_seed());
    let b = fast_path_commit_scenario(chaos_seed());
    assert_eq!(a, b, "same seed must give a byte-identical snapshot");
}

/// Once the leader's WRITE lands in a follower slot, commit takes exactly
/// two further one-way network delays: one for the prepare round, one for
/// the commit round. Asserted on a mesh whose 300 µs propagation dwarfs
/// every CPU, MAC and serialization cost, so the phase latencies *are*
/// the hop counts.
#[test]
fn fast_path_commits_two_network_delays_after_the_write_lands() {
    let delay = Nanos::from_micros(300);
    // Keep bandwidth costs negligible relative to the propagation delay.
    let mut w = build_with_propagation(chaos_seed(), fast_cfg(), delay);
    // First request arms the grants (and may ride the message path);
    // everything after it is the common case under test.
    w.submit_sequentially((0..6).map(|_| b"inc".to_vec()));
    w.sim.run_until_idle();
    w.assert_safety();
    let deliveries: u64 = w
        .replicas
        .iter()
        .map(|r| r.stats().fast_path_deliveries)
        .sum();
    assert!(deliveries > 0, "the fast path must have engaged");

    let snap = w.net.metrics().snapshot();
    let d = delay.as_nanos();
    let slack = d / 4; // CPU + serialization, generous
    for r in 1..4u32 {
        let prepared = snap
            .histogram(&format!("reptor.r{r}.phase.preprepare_to_prepared"))
            .unwrap_or_else(|| panic!("replica {r} must record prepare-phase latency"));
        assert!(
            prepared.p50 >= d && prepared.p50 <= d + slack,
            "replica {r}: WRITE→prepared must be one network delay \
             (p50 {} vs delay {d})",
            prepared.p50
        );
        let committed = snap
            .histogram(&format!("reptor.r{r}.phase.prepared_to_committed"))
            .unwrap_or_else(|| panic!("replica {r} must record commit-phase latency"));
        assert!(
            committed.p50 >= d && committed.p50 <= d + slack,
            "replica {r}: prepared→committed must be one network delay \
             (p50 {} vs delay {d})",
            committed.p50
        );
    }
}

/// `fast_path: false` must leave zero trace: no slot region registered,
/// no grant sent, no fast-path counter ever created — the snapshot is
/// bit-for-bit what the pre-fast-path replica produced. (CI additionally
/// pins the message-path baseline in the cop-scaling drift gate.)
#[test]
fn disabled_fast_path_leaves_no_trace_in_the_snapshot() {
    let run = |fast: bool| {
        let cfg = ReptorConfig {
            fast_path: fast,
            ..ReptorConfig::small()
        };
        let mut w = build(Stack::Rubin, chaos_seed(), cfg);
        let client = w.clients[0].clone();
        for _ in 0..10 {
            client.submit(&mut w.sim, b"inc".to_vec());
        }
        w.run_to_completion(10);
        w.sim.run_until_idle();
        w.assert_safety();
        w.net.metrics().snapshot().to_json()
    };
    let off = run(false);
    assert!(
        !off.contains("fast_path") && !off.contains("slot"),
        "disabled fast path must not appear anywhere in the snapshot"
    );
    let off_again = run(false);
    assert_eq!(off, off_again, "disabled runs replay byte-identically");
    // Sanity check that the probe is sharp: the same workload with the
    // fast path on *does* leave the trace.
    assert!(run(true).contains("fast_path_writes"));
}

/// On a transport without a one-sided write primitive the fast path must
/// degrade into the ordinary message path per peer — under both a single
/// COP pipeline and four.
fn message_fallback_scenario(pillars: usize, seed: u64) {
    let cfg = ReptorConfig {
        fast_path: true,
        pillars,
        ..ReptorConfig::small()
    };
    let mut w = build(Stack::Nio, seed, cfg);
    let client = w.clients[0].clone();
    for _ in 0..10 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(10);
    w.sim.run_until_idle();
    w.assert_safety();
    for r in &w.replicas {
        assert_eq!(r.stats().executed_requests, 10, "replica {}", r.id());
    }
    let leader = w.replicas[0].stats();
    assert_eq!(
        leader.fast_path_writes, 0,
        "the socket stack has no one-sided write primitive"
    );
    assert!(
        leader.fast_path_fallbacks > 0,
        "every proposal must fall back to the message path"
    );
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 10u64.to_le_bytes());
}

#[test]
fn fallback_engages_cleanly_without_one_sided_writes_single_pipeline() {
    message_fallback_scenario(1, chaos_seed());
}

#[test]
fn fallback_engages_cleanly_without_one_sided_writes_four_pipelines() {
    message_fallback_scenario(4, chaos_seed());
}

/// The fast path composes with COP pipelining: four parallel agreement
/// pipelines, all fed through slot WRITEs, commit the workload in total
/// order.
#[test]
fn fast_path_composes_with_four_cop_pipelines() {
    let cfg = ReptorConfig {
        fast_path: true,
        pillars: 4,
        ..ReptorConfig::small()
    };
    let mut w = build(Stack::Rubin, chaos_seed(), cfg);
    let client = w.clients[0].clone();
    for _ in 0..20 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(20);
    w.sim.run_until_idle();
    w.assert_safety();
    for r in &w.replicas {
        assert_eq!(r.stats().executed_requests, 20, "replica {}", r.id());
    }
    let deliveries: u64 = w
        .replicas
        .iter()
        .map(|r| r.stats().fast_path_deliveries)
        .sum();
    assert!(deliveries > 0, "slot deliveries must feed the pipelines");
}
