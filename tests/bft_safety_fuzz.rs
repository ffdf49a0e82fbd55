//! Randomized fault-schedule fuzzing of PBFT safety.
//!
//! Each case builds a 4-replica cluster, assigns a random Byzantine
//! behaviour to at most `f = 1` replica, injects random network loss and a
//! possible transient partition, submits a random request load, and then
//! asserts the core safety property: **no two replicas ever execute
//! different batches at the same sequence number**. Liveness is only
//! asserted when the schedule is benign enough to guarantee it.

use kvstore::{kv_config, KvHarness, Stack, YcsbSpec};
use proptest::prelude::*;
use reptor::{ByzantineMode, Cluster, CounterService, ReptorConfig};
use simnet::{HostId, Nanos};

#[derive(Debug, Clone)]
struct FaultSchedule {
    byzantine_replica: Option<(usize, u8)>,
    loss_pairs: Vec<(u8, u8, u8)>,
    partition_replica: Option<usize>,
    requests: u8,
    seed: u64,
}

fn arb_schedule() -> impl Strategy<Value = FaultSchedule> {
    (
        proptest::option::of((0usize..4, 0u8..4)),
        proptest::collection::vec((0u8..4, 0u8..4, 1u8..30), 0..3),
        proptest::option::of(1usize..4),
        1u8..8,
        any::<u64>(),
    )
        .prop_map(
            |(byzantine_replica, loss_pairs, partition_replica, requests, seed)| FaultSchedule {
                byzantine_replica,
                loss_pairs,
                partition_replica,
                requests,
                seed,
            },
        )
}

fn mode_from(tag: u8) -> ByzantineMode {
    match tag {
        0 => ByzantineMode::Crash,
        1 => ByzantineMode::SilentPrimary,
        2 => ByzantineMode::EquivocatingPrimary,
        _ => ByzantineMode::CorruptMacs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        // Each case runs a full cluster; keep debug builds brisk.
        cases: if cfg!(debug_assertions) { 8 } else { 24 },
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn pbft_safety_holds_under_random_faults(schedule in arb_schedule()) {
        let mut c = Cluster::sim_transport(ReptorConfig::small(), 1, schedule.seed, || {
            Box::new(CounterService::default())
        });

        // At most one Byzantine replica (f = 1).
        if let Some((idx, tag)) = schedule.byzantine_replica {
            c.replicas[idx].set_byzantine(mode_from(tag));
        }
        // Random directional loss between replica hosts.
        for &(a, b, pct) in &schedule.loss_pairs {
            if a != b {
                c.net.with_faults(|f| {
                    f.set_loss(HostId(a as u32), HostId(b as u32), pct as f64 / 100.0)
                });
            }
        }
        // Possibly fully partition one backup (never the client's host).
        if let Some(idx) = schedule.partition_replica {
            let isolated = HostId(idx as u32);
            c.net.with_faults(|f| {
                for h in 0..5u32 {
                    if HostId(h) != isolated {
                        f.partition(HostId(h), isolated);
                    }
                }
            });
        }

        let client = c.clients[0].clone();
        for _ in 0..schedule.requests {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
        // Run a bounded amount of work; the schedule may prevent liveness,
        // so no completion requirement here — only safety.
        let _ = c.run_until_completed(schedule.requests as u64, 1_500_000);
        c.assert_safety();

        // Executed counters never disagree with the executed log length.
        for r in &c.replicas {
            prop_assert_eq!(
                r.executed_log().len() as u64,
                r.stats().executed_batches,
                "replica {} log/stat mismatch", r.id()
            );
        }

        // Benign schedules must also be live.
        let benign = schedule.byzantine_replica.is_none()
            && schedule.partition_replica.is_none()
            && schedule.loss_pairs.iter().all(|&(_, _, p)| p == 0);
        if benign {
            prop_assert_eq!(
                client.stats().completed,
                schedule.requests as u64,
                "benign schedule must complete all requests"
            );
        }
    }
}

/// A Byzantine replica that advertises a *revoked* read-lease rkey — its
/// grants carry a once-valid rkey it has already deregistered, while it
/// keeps a fresh region for itself. No message-level check can catch
/// this: the grant is well-formed and MAC-authenticated. The defense is
/// the RNIC permission check itself (the paper's thesis): every READ on
/// the dead rkey is denied at the responder (`stale_rkey_denied`), the
/// client falls back to agreement for that read, rotates the liar out of
/// its quorum, and resumes one-sided reads against the honest `2f + 1`.
/// Swept over seeds 1–5 in one go (the scenario must not be
/// seed-sensitive; it does not read `CHAOS_SEED`, so CI runs it once).
#[test]
fn stale_lease_offer_is_rnic_denied_and_rotated_out() {
    for seed in 1u64..=5 {
        let mut h = KvHarness::build(Stack::Rubin, 0x51E + seed, 3, kv_config(), 64);
        h.cluster.replicas[1].set_byzantine(ByzantineMode::StaleLeaseOffer);
        assert!(
            h.run_ycsb(&YcsbSpec::b(16), seed, 25, 60_000_000),
            "run wedged (seed {seed})"
        );
        assert!(
            h.total("stale_rkey_denied") >= 1,
            "the stale rkey was never denied at the RNIC (seed {seed})"
        );
        assert!(
            h.total("kv_read_fallback") >= 1,
            "denied reads must fall back to agreement (seed {seed})"
        );
        assert!(
            h.total("kv_read_onesided") >= 1,
            "clients must resume one-sided reads on the honest quorum (seed {seed})"
        );
        h.check_history()
            .unwrap_or_else(|e| panic!("history must linearize (seed {seed}): {e}"));
    }
}

/// A Byzantine replica that *forges cell contents* inside its own validly
/// leased region: every published cell carries an inflated (even,
/// perfectly committed-looking) stamp and scribbled value bytes. The RNIC
/// fence is useless here — the rkey is live and every READ succeeds — so
/// this is exactly the attack a max-stamp quorum read would swallow
/// wholesale. The unanimity rule refuses it: a fabricated (stamp, value)
/// can never match the `f + 1`-plus honest cells in the quorum, so every
/// read that meets a forged cell diverges (`kv_read_divergent`), falls
/// back to agreement, and demerits the out-voted forger, after which
/// one-sided reads resume on the honest `2f + 1`. The recorded history
/// must linearize throughout — the fabricated values never surface.
#[test]
fn forged_lease_cells_are_outvoted_and_never_served() {
    for seed in 1u64..=5 {
        let mut h = KvHarness::build(Stack::Rubin, 0xF0C + seed, 3, kv_config(), 64);
        h.cluster.replicas[1].set_byzantine(ByzantineMode::ForgedLeaseCells);
        assert!(
            h.run_ycsb(&YcsbSpec::a(16), seed, 25, 60_000_000),
            "run wedged (seed {seed})"
        );
        assert!(
            h.total("lease_cells_forged") >= 1,
            "the forger never published a forged cell (seed {seed})"
        );
        assert!(
            h.total("kv_read_divergent") >= 1,
            "no read ever met the forged cells (seed {seed})"
        );
        assert!(
            h.total("kv_read_onesided") >= 1,
            "clients must resume one-sided reads on the honest quorum (seed {seed})"
        );
        h.check_history()
            .unwrap_or_else(|e| panic!("forged cells leaked into the history (seed {seed}): {e}"));
    }
}

/// Apply lag plus quorum divergence — the new-then-old inversion hazard.
/// Replica 2 receives all replica-to-replica traffic 400 µs late, so it
/// executes (and publishes cells) long after a write's reply quorum
/// forms, while clients can still READ its leased region promptly. A
/// quorum containing the laggard straddles the write: fresh cells from
/// the prompt replicas, a stale (validly committed, older-stamped) cell
/// from the laggard. Accepting the max stamp here and the older stamp on
/// a later, laggard-free quorum would invert read order; the unanimity
/// rule instead refuses every mixed quorum (`kv_read_divergent`),
/// demerits the laggard out of subsequent quorums (quorums *diverge*
/// between consecutive reads — the scenario the checker must cover), and
/// the history stays linearizable.
#[test]
fn apply_lag_quorum_divergence_never_inverts_reads() {
    for seed in 1u64..=5 {
        let mut h = KvHarness::build(Stack::Rubin, 0xAB1 + seed, 3, kv_config(), 64);
        h.cluster.net.with_faults(|f| {
            for src in [0u32, 1, 3] {
                f.set_extra_delay(HostId(src), HostId(2), Nanos::from_micros(400));
            }
        });
        assert!(
            h.run_ycsb(&YcsbSpec::a(16), seed, 25, 120_000_000),
            "run wedged (seed {seed})"
        );
        assert!(
            h.total("kv_read_divergent") >= 1,
            "apply lag never produced a divergent quorum (seed {seed})"
        );
        assert!(
            h.total("kv_read_onesided") >= 1,
            "one-sided reads must still engage (seed {seed})"
        );
        h.check_history().unwrap_or_else(|e| {
            panic!("divergent quorums inverted the read order (seed {seed}): {e}")
        });
    }
}
