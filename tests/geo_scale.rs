//! Scale-out geo scenarios: replica groups spread across WAN latency
//! matrices, clients packed many-per-host, and fault composition on WAN
//! links.
//!
//! The cheap variants run in the regular test suite. The `#[ignore]`d
//! tests are the scale tier — the n = 31 WAN group, the n = 13 RUBIN group
//! and the thousand-client scenario — run in release mode by the CI `scale`
//! job (`cargo test --release --test geo_scale -- --ignored`), where they
//! take seconds instead of the minutes they would need under the debug
//! profile in the fast `build-and-test` job.

#[path = "../crates/simnet/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{live_bytes, CountingAlloc};
use reptor::{Cluster, CounterService, ReptorConfig, Stack};
use simnet::{HostId, LatencyMatrix, Nanos};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn geo(n: usize, clients: usize, client_hosts: usize, seed: u64, topo: &LatencyMatrix) -> Cluster {
    let cfg = ReptorConfig {
        n,
        ..ReptorConfig::small()
    };
    Cluster::sim_transport_geo(cfg, clients, client_hosts, seed, topo, || {
        Box::new(CounterService::default())
    })
}

/// Submits `per_client` requests from every client, runs to completion,
/// and checks agreement plus the safety cross-check.
fn drive(c: &mut Cluster, per_client: u64, max_events: u64) {
    let clients = c.clients.clone();
    for client in &clients {
        for _ in 0..per_client {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
    }
    assert!(
        c.run_until_completed(per_client, max_events),
        "geo cluster must reach agreement"
    );
    for (i, client) in c.clients.iter().enumerate() {
        assert_eq!(
            client.stats().completed,
            per_client,
            "client {i} must see every request commit"
        );
    }
    c.assert_safety();
}

#[test]
fn wan3_group_commits_across_regions() {
    let topo = LatencyMatrix::three_region_wan();
    let mut c = geo(4, 2, 1, 11, &topo);
    // The geo constructor must raise aggressive LAN timeouts to the
    // topology's floor, or WAN RTTs trigger spurious view changes.
    assert!(c.cfg.view_change_timeout >= topo.suggested_timeout());
    let t0 = c.sim.now();
    drive(&mut c, 3, 20_000_000);
    // Commit latency is bounded below by one cross-region round trip.
    let min_hop = topo.one_way(0, 1).min(topo.one_way(1, 0));
    assert!(
        c.sim.now() - t0 >= min_hop,
        "WAN commit cannot beat the speed of light"
    );
}

#[test]
fn clients_share_hosts_without_interfering() {
    // 48 clients on 3 shared hosts: the node directory multiplexes
    // several transport endpoints per host via distinct ports.
    let topo = LatencyMatrix::lan();
    let mut c = geo(4, 48, 3, 13, &topo);
    drive(&mut c, 1, 20_000_000);
}

#[test]
fn wan_partition_composes_with_geo_links() {
    // Cutting one backup's region link must not block agreement (f = 1),
    // and healing lets follow-up traffic complete on the same timeline.
    let topo = LatencyMatrix::three_region_wan();
    let mut c = geo(4, 1, 1, 17, &topo);
    let victim = HostId(3);
    c.net.with_faults(|f| {
        for h in 0..3u32 {
            f.partition(HostId(h), victim);
        }
    });
    drive(&mut c, 2, 40_000_000);
    c.net.with_faults(|f| {
        for h in 0..3u32 {
            f.heal(HostId(h), victim);
        }
    });
    let client = c.clients[0].clone();
    client.submit(&mut c.sim, b"inc".to_vec());
    assert!(
        c.run_until_completed(3, 40_000_000),
        "post-heal request must commit"
    );
    c.assert_safety();
}

#[test]
fn geo_runs_replay_byte_identically() {
    // Reorder jitter on a WAN link makes the timeline genuinely
    // seed-dependent (a fault-free run consumes no randomness at all),
    // so this checks both chaos-on-WAN composition and replay.
    let topo = LatencyMatrix::three_region_wan();
    let snap = |seed| {
        let mut c = geo(4, 2, 1, seed, &topo);
        c.net.with_faults(|f| {
            f.set_reorder_jitter(HostId(0), HostId(1), Nanos::from_micros(200));
            f.set_reorder_jitter(HostId(1), HostId(0), Nanos::from_micros(200));
        });
        drive(&mut c, 2, 20_000_000);
        c.settle();
        c.metrics_snapshot().to_json()
    };
    assert_eq!(snap(23), snap(23), "same seed must replay byte-identically");
    assert_ne!(snap(23), snap(24), "different seeds must not collide");
}

/// Scale tier: the full 31-replica group (f = 10) spread over three
/// regions. Run by the CI `scale` job in release mode.
#[test]
#[ignore = "scale tier: run in release via the CI scale job"]
fn wan3_31_replica_group_commits() {
    let topo = LatencyMatrix::three_region_wan();
    let mut c = geo(31, 2, 1, 31, &topo);
    let t0 = c.sim.now();
    drive(&mut c, 4, 400_000_000);
    assert!(
        c.sim.now() > t0,
        "simulated time must advance across WAN rounds"
    );
    // The event heap should have absorbed the n^2 message load without
    // the tombstone population outgrowing the live one.
    let q = c.sim.queue_stats();
    assert!(q.tombstones <= q.pending.max(64));
}

/// Scale tier: a 13-replica group (f = 4) with two clients over RUBIN —
/// 210 channel ends, each with 128 pre-registered 128 KiB buffers. The
/// group's heap is what those buffers hold, not the ≈ 3 GB they span.
#[test]
#[ignore = "scale tier: run in release via the CI scale job"]
fn rubin_13_replica_group_commits() {
    let before = live_bytes();
    let mut c = Cluster::build(Stack::Rubin, ReptorConfig::for_f(4), 2, 13, || {
        Box::new(CounterService::default())
    });
    drive(&mut c, 8, 400_000_000);
    let live = live_bytes() - before;
    println!("13-replica RUBIN group: {live} bytes live");
    assert!(live < 256 << 20, "the group holds {live} bytes");
}

/// Scale tier: a thousand clients packed onto eight shared hosts drive a
/// seven-replica WAN group. Run by the CI `scale` job in release mode.
#[test]
#[ignore = "scale tier: run in release via the CI scale job"]
fn thousand_clients_share_eight_hosts() {
    let topo = LatencyMatrix::three_region_wan();
    let mut c = geo(7, 1_000, 8, 1_000, &topo);
    drive(&mut c, 1, 2_000_000_000);
    let done: u64 = c.clients.iter().map(|cl| cl.stats().completed).sum();
    assert_eq!(done, 1_000, "all thousand clients commit");
    // Determinism survives the scale-out shape: pending-event high water
    // is a deterministic function of the seed.
    let hw = c.sim.queue_stats().high_water;
    assert!(hw > 100, "a thousand in-flight clients pile up events");
}

#[test]
fn one_way_latency_floor_is_visible_per_region_pair() {
    // The asymmetric matrix is observable end to end: ping across the
    // slower direction takes measurably longer than the faster one.
    let topo = LatencyMatrix::three_region_wan();
    assert_ne!(topo.one_way(0, 2), topo.one_way(2, 0));
    let mut c = geo(7, 1, 1, 29, &topo);
    drive(&mut c, 1, 20_000_000);
    let q = c.sim.queue_stats();
    assert_eq!(
        q.cancelled,
        q.tombstones_purged + q.tombstones as u64,
        "every cancel leaves one tombstone until it is purged"
    );
}
