//! The linearizability battery gating the agreement-free read path.
//!
//! Every scenario runs the replicated KV service under a YCSB-style
//! workload in the deterministic simulation, records each client's full
//! operation history (one-sided reads and message-path operations alike,
//! with exact invoke/response instants), and feeds it to the exhaustive
//! Wing–Gong checker. The point of the battery: one-sided reads bypass
//! agreement entirely, so *only* a linearizability oracle can certify
//! that the lease/version-stamp machinery never serves a stale or torn
//! value — there is no protocol-level acknowledgement to assert on.
//!
//! Seeded from `CHAOS_SEED` (CI sweeps 1–5). The revocation scenarios
//! assert the RNIC actually denied a revoked rkey (`stale_rkey_denied`)
//! and that the client's fallback engaged (`kv_read_fallback`), so the
//! safety path is exercised, not just available.

mod common;

use common::chaos_seed;
use kvstore::{kv_config, KvHarness, KvStoreService, Stack, YcsbSpec};
use reptor::{ByzantineMode, Cluster, KvOp, ReptorConfig};
use simnet::LatencyMatrix;

/// Benign case on the RDMA stack: leases arm, one-sided reads engage and
/// dominate a read-heavy mix, and the recorded history linearizes.
#[test]
fn rubin_ycsb_b_is_linearizable_with_onesided_reads() {
    let seed = chaos_seed();
    let mut h = KvHarness::build(Stack::Rubin, 0xB0 + seed, 4, kv_config(), 128);
    assert!(
        h.run_ycsb(&YcsbSpec::b(24), seed, 40, 40_000_000),
        "run wedged (seed {seed})"
    );
    h.check_history().expect("one-sided reads must linearize");
    assert!(
        h.total("kv_read_onesided") >= 1,
        "the one-sided path never engaged (seed {seed})"
    );
}

/// Write-heavy workload A: frequent region updates maximise the torn
/// window and lease-roll churn the reads race against.
#[test]
fn rubin_ycsb_a_write_heavy_is_linearizable() {
    let seed = chaos_seed();
    let mut h = KvHarness::build(Stack::Rubin, 0xA0 + seed, 3, kv_config(), 64);
    assert!(
        h.run_ycsb(&YcsbSpec::a(12), seed, 30, 40_000_000),
        "run wedged (seed {seed})"
    );
    h.check_history()
        .expect("write-heavy history must linearize");
}

/// Lease revocation racing live reads: a backup restarts cold mid-run,
/// which revokes its read-lease MR (the satellite regression: revocation
/// must precede WAL replay). Clients still holding the dead rkey get
/// denied *by the RNIC* and must rotate + fall back — asserted via the
/// `stale_rkey_denied` and `kv_read_fallback` counters — and the history
/// spanning the whole outage must still linearize.
#[test]
fn lease_revocation_mid_run_denies_stale_rkeys_and_stays_linearizable() {
    let seed = chaos_seed();
    let mut h = KvHarness::build(Stack::Rubin, 0xC0 + seed, 4, kv_config(), 128);

    // Phase 1: healthy traffic, leases cached by every client.
    assert!(
        h.run_ycsb(&YcsbSpec::b(16), seed, 15, 40_000_000),
        "phase 1 wedged (seed {seed})"
    );
    assert!(h.total("kv_read_onesided") >= 1, "leases never engaged");
    assert_eq!(h.total("lease_revocations"), 0);

    // A backup restarts cold. Its lease MR is released before the WAL
    // replays (counter bumps immediately), so the stale rkey clients
    // still cache is dead at the RNIC from this instant on.
    let victim = h.cluster.replicas[1].clone();
    victim.restart(&mut h.cluster.sim, Box::new(KvStoreService::new(128)));
    assert!(
        h.total("lease_revocations") >= 1,
        "restart must revoke the read lease before recovery"
    );

    // Phase 2: clients read with the dead rkey in their lease cache.
    assert!(
        h.run_ycsb(&YcsbSpec::b(16), seed ^ 0x5A5A, 15, 80_000_000),
        "phase 2 wedged (seed {seed})"
    );
    assert!(
        h.total("stale_rkey_denied") >= 1,
        "no RNIC denial recorded: the revoked rkey was never exercised (seed {seed})"
    );
    assert!(
        h.total("kv_read_fallback") >= 1,
        "denied reads must fall back to the message path (seed {seed})"
    );
    h.check_history()
        .expect("history across the revocation must linearize");
}

/// A view change mid-run: the primary goes silent, the group elects a new
/// view, and `enter_view` rolls every live replica's lease to a fresh
/// rkey. Reads spanning the change must linearize.
#[test]
fn view_change_rolls_leases_and_stays_linearizable() {
    let seed = chaos_seed();
    let mut h = KvHarness::build(Stack::Rubin, 0xD0 + seed, 3, kv_config(), 64);
    assert!(
        h.run_ycsb(&YcsbSpec::b(12), seed, 10, 40_000_000),
        "phase 1 wedged (seed {seed})"
    );

    // Crash the view-0 primary; client retransmissions drive the backups
    // through the view-change protocol. The second phase is write-heavy
    // (workload A): one-sided reads would keep completing against the
    // dead primary's still-mapped region, but any write stalls until the
    // election, so the phase cannot finish in view 0.
    h.cluster.replicas[0].set_byzantine(ByzantineMode::Crash);
    assert!(
        h.run_ycsb(&YcsbSpec::a(12), seed ^ 0x77, 10, 120_000_000),
        "view change never completed (seed {seed})"
    );
    assert!(
        h.cluster.replicas[1].view() >= 1,
        "backups must have left view 0 (seed {seed})"
    );
    assert!(
        h.total("lease_revocations") >= 1,
        "entering a view must roll the read lease"
    );
    h.check_history()
        .expect("history across the view change must linearize");
}

/// The socket stack has no one-sided primitive: every read must fall back
/// to agreement, no lease counter may fire on the read path, and the
/// history (trivially, but measurably) linearizes.
#[test]
fn nio_stack_serves_all_reads_through_agreement() {
    let seed = chaos_seed();
    let mut h = KvHarness::build(Stack::Nio, 0xE0 + seed, 3, kv_config(), 64);
    assert!(
        h.run_ycsb(&YcsbSpec::b(12), seed, 20, 40_000_000),
        "run wedged (seed {seed})"
    );
    h.check_history()
        .expect("message-path history must linearize");
    assert_eq!(h.total("kv_read_onesided"), 0);
    assert!(h.total("kv_read_fallback") >= 1);
}

/// The workload generator at geo scale: a WAN-spread group with many
/// clients multiplexed over few hosts, driven through the agreement path.
/// (One-sided reads need the RDMA transport; this scenario sizes the
/// *driver*, and the safety cross-check plus digest agreement gate it.)
fn geo_kv(clients: usize, client_hosts: usize, per_client: u64, seed: u64) {
    let topo = LatencyMatrix::three_region_wan();
    let cfg = ReptorConfig {
        read_leases: true,
        ..ReptorConfig::small()
    };
    let mut c = Cluster::sim_transport_geo(cfg, clients, client_hosts, seed, &topo, || {
        Box::new(KvStoreService::new(256))
    });
    let cl = c.clients.clone();
    for (i, client) in cl.iter().enumerate() {
        for j in 0..per_client {
            let key = format!("user{:06}", (i as u64 * 7 + j) % 64).into_bytes();
            let op = if j % 2 == 0 {
                KvOp::Put(key, format!("g{i}-{j}").into_bytes())
            } else {
                KvOp::Get(key)
            };
            client.submit(&mut c.sim, op.encode());
        }
    }
    assert!(
        c.run_until_completed(per_client, 300_000_000),
        "geo KV workload must complete"
    );
    c.assert_safety();
}

#[test]
fn geo_kv_workload_commits_across_regions() {
    geo_kv(48, 3, 3, 0xF0 + chaos_seed());
}

/// The scale tier: a thousand simulated KV clients across eight WAN
/// hosts. Run by the CI `scale` job in release mode.
#[test]
#[ignore]
fn geo_kv_thousand_clients() {
    geo_kv(1000, 8, 2, 0x1F0 + chaos_seed());
}
