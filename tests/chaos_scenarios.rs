//! End-to-end failure-recovery scenarios: PBFT agreement driven over the
//! full comm stacks while the fault plane injects loss, duplication,
//! reordering, corruption, and host crashes.
//!
//! Each scenario is seeded from the `CHAOS_SEED` environment variable
//! (default 1) so CI can sweep a seed matrix; with a fixed seed every
//! timeline — fault coins included — replays byte-identically, which the
//! determinism test asserts over the whole metrics snapshot.
//!
//! The layered recovery story under test:
//! * lost RDMA packets are retransmitted by the RC queue pair, lost TCP
//!   segments by the kernel stack's go-back-N — agreement never notices
//!   a few percent of loss;
//! * duplicated or reordered frames are suppressed below the protocol
//!   (QP sequence dedup, TCP sequence dedup) and above it (replica
//!   client-request dedup), so nothing executes twice;
//! * corrupted frames fail MAC verification and are dropped;
//! * a crashed primary breaks queue pairs / streams, the live replicas
//!   view-change to a new primary, and the transport layer re-dials the
//!   restarted host with exponential backoff.

mod common;

use common::chaos_seed;
use reptor::{
    ByzantineMode, Cluster, CounterService, RecoveryConfig, RecoveryScheduler, ReptorConfig, Stack,
};
use simnet::{ChaosAction, ChaosSchedule, Nanos};

/// Four counter replicas and one client on `stack`.
fn build(stack: Stack, seed: u64, cfg: ReptorConfig) -> Cluster {
    Cluster::build(stack, cfg, 1, seed, || Box::new(CounterService::default()))
}

fn incs(count: u64) -> impl Iterator<Item = Vec<u8>> {
    (0..count).map(|_| b"inc".to_vec())
}

/// Installs directional loss `p` on every ordered host pair.
fn lossy_mesh(w: &Cluster, p: f64) {
    w.net.with_faults(|f| {
        for &a in &w.hosts {
            for &b in &w.hosts {
                if a != b {
                    f.set_loss(a, b, p);
                }
            }
        }
    });
}

/// Agreement under packet loss: the per-stack reliability layer (RC
/// retransmission / TCP go-back-N) absorbs 1–5% drop rates without the
/// protocol noticing.
fn loss_scenario(kind: Stack, seed: u64) {
    let mut w = build(kind, seed, ReptorConfig::small());
    // 1%..5% depending on the seed, so the CI matrix sweeps the range.
    let p = 0.01 * (1 + seed % 5) as f64;
    lossy_mesh(&w, p);
    let client = w.clients[0].clone();
    for _ in 0..10 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(10);
    w.sim.run_until_idle();
    w.assert_safety();
    for r in &w.replicas {
        assert_eq!(r.stats().executed_requests, 10, "replica {}", r.id());
        // Retransmissions under loss are slow, not faulty: the request
        // timer's floor keeps a correct primary in office.
        assert_eq!(
            r.stats().view_changes_sent,
            0,
            "replica {} voted out a correct primary at {p} loss",
            r.id()
        );
    }
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 10u64.to_le_bytes(), "exactly-once execution");
}

#[test]
fn pbft_reaches_agreement_under_loss_on_rubin_stack() {
    loss_scenario(Stack::Rubin, chaos_seed());
}

#[test]
fn pbft_reaches_agreement_under_loss_on_nio_stack() {
    loss_scenario(Stack::Nio, chaos_seed());
}

/// Duplicated and reordered frames must never double-execute a request:
/// the QP/TCP sequence layer suppresses wire-level duplicates and the
/// replica's client-request dedup absorbs client resends.
fn dup_reorder_scenario(kind: Stack, seed: u64) {
    let mut w = build(kind, seed, ReptorConfig::small());
    w.net.with_faults(|f| {
        for &a in &w.hosts {
            for &b in &w.hosts {
                if a != b {
                    f.set_duplication(a, b, 0.3);
                    f.set_reorder_jitter(a, b, Nanos::from_micros(2));
                }
            }
        }
    });
    let client = w.clients[0].clone();
    for _ in 0..10 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(10);
    w.sim.run_until_idle();
    w.assert_safety();
    for r in &w.replicas {
        assert_eq!(
            r.stats().executed_requests,
            10,
            "duplicates must not re-execute on replica {}",
            r.id()
        );
    }
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 10u64.to_le_bytes(), "counter incremented exactly 10x");
    if matches!(kind, Stack::Rubin) {
        // The RDMA receive path saw and suppressed wire duplicates.
        let snap = w.net.metrics().snapshot();
        assert!(
            snap.total("duplicates_suppressed") > 0,
            "30% duplication must hit the QP dedup window"
        );
    }
}

#[test]
fn duplicated_and_reordered_frames_execute_exactly_once_on_rubin_stack() {
    dup_reorder_scenario(Stack::Rubin, chaos_seed());
}

#[test]
fn duplicated_and_reordered_frames_execute_exactly_once_on_nio_stack() {
    dup_reorder_scenario(Stack::Nio, chaos_seed());
}

/// Client-request idempotence under resend-like pressure: with every
/// client→replica frame duplicated, each replica receives every request
/// at least twice yet executes it once (replica-level dedup, above the
/// wire-level sequence dedup).
#[test]
fn duplicated_client_requests_are_deduplicated_by_replicas() {
    let mut w = build(Stack::Rubin, chaos_seed(), ReptorConfig::small());
    let client_host = *w.hosts.last().unwrap();
    w.net.with_faults(|f| {
        for &h in &w.hosts[..w.hosts.len() - 1] {
            f.set_duplication(client_host, h, 1.0);
            f.set_reorder_jitter(client_host, h, Nanos::from_micros(3));
        }
    });
    let client = w.clients[0].clone();
    for _ in 0..5 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(5);
    w.sim.run_until_idle();
    w.assert_safety();
    for r in &w.replicas {
        assert_eq!(r.stats().executed_requests, 5, "replica {}", r.id());
    }
    assert_eq!(client.stats().completed, 5);
    assert_eq!(client.completions().len(), 5);
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(
        last,
        5u64.to_le_bytes(),
        "each request applied exactly once"
    );
}

/// Corrupted frames must die at the MAC check, and agreement must ride
/// out the induced message loss (Rubin stack: corruption flips payload
/// bytes inside the RDMA data packets).
#[test]
fn corrupted_frames_are_rejected_by_mac_and_agreement_survives() {
    let mut w = build(Stack::Rubin, chaos_seed(), ReptorConfig::small());
    // Corrupt only replica↔replica links; the client's links stay clean so
    // requests and replies flow. MACs turn corruption into plain loss.
    let replica_hosts = &w.hosts[..w.hosts.len() - 1];
    w.net.with_faults(|f| {
        for &a in replica_hosts {
            for &b in replica_hosts {
                if a != b {
                    f.set_corruption(a, b, 0.05);
                }
            }
        }
    });
    // Enough requests for ~10 agreement instances: a burst fills batches,
    // and only a corrupted frame that carries a protocol message (not an
    // ACK) can reach a MAC check.
    let client = w.clients[0].clone();
    for _ in 0..64 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(64);
    w.sim.run_until_idle();
    w.assert_safety();
    let bad_macs: u64 = w.replicas.iter().map(|r| r.stats().bad_mac_dropped).sum();
    assert!(
        bad_macs > 0,
        "5% corruption must surface as MAC rejections somewhere"
    );
    for r in &w.replicas {
        assert_eq!(r.stats().executed_requests, 64, "replica {}", r.id());
    }
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 64u64.to_le_bytes());
}

/// The flagship recovery scenario: the primary's host loses power
/// mid-workload. Live replicas' queue pairs / streams to it break, they
/// view-change to a new primary and keep executing; the transport layer
/// re-dials the dead host with exponential backoff until it restarts,
/// after which the mesh is whole again — and nothing executed twice.
///
/// Returns the run's metrics snapshot JSON for the determinism test.
fn primary_crash_scenario(kind: Stack, seed: u64) -> String {
    let mut w = build(kind, seed, ReptorConfig::small());
    let client = w.clients[0].clone();

    // Phase 1: a healthy prefix under the original primary (replica 0).
    for _ in 0..3 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(3);
    w.sim.run_until_idle();
    assert_eq!(w.replicas[0].stats().executed_requests, 3);

    // Phase 2: the primary's host crashes (scripted, replayable).
    let t_crash = w.sim.now() + Nanos::from_micros(100);
    ChaosSchedule::new()
        .at(t_crash, ChaosAction::CrashHost { host: w.hosts[0] })
        .install(&mut w.sim, &w.net);
    let r0 = w.replicas[0].clone();
    w.sim.schedule_at(t_crash, move |_sim| {
        r0.set_byzantine(ByzantineMode::Crash);
    });
    w.sim.run_until(t_crash + Nanos::from_micros(1));

    // Phase 3: requests submitted into the faulty window. Backups arm
    // view-change timers, depose the dead primary, and commit under the
    // new one while the transports keep re-dialing the dead host.
    for _ in 0..5 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(8);
    for r in &w.replicas[1..] {
        assert!(r.view() >= 1, "replica {} must have view-changed", r.id());
        assert_eq!(r.stats().executed_requests, 8, "replica {}", r.id());
    }
    assert!(
        w.metrics().total("reconnect_attempts") > 0,
        "peers must have re-dialed the crashed host"
    );

    // Phase 4: the host restarts; backoff re-dials now land and the mesh
    // heals. The peers' holding-pen queues carried recent protocol traffic
    // addressed to the dead host across the outage (bounded at PEN_CAP
    // frames), so on reconnect the revived replica replays the backlog and
    // catches up per-instance; a replica that fell below the watermark
    // recovers via checkpoint state transfer instead (see the
    // state-transfer scenarios below).
    let t_heal = w.sim.now() + Nanos::from_millis(1);
    ChaosSchedule::new()
        .at(t_heal, ChaosAction::RestartHost { host: w.hosts[0] })
        .install(&mut w.sim, &w.net);
    let r0 = w.replicas[0].clone();
    w.sim.schedule_at(t_heal, move |_sim| {
        r0.set_byzantine(ByzantineMode::Honest);
    });
    // Backoff caps at 64 ms; give the slowest dialer two full windows.
    w.sim.run_until(t_heal + Nanos::from_millis(150));

    assert!(
        w.metrics().total("reconnects_completed") > 0,
        "re-dials must succeed once the host is back"
    );
    // Exactly-once execution end to end: the live replicas executed the
    // full workload exactly once each; the revived replica holds its
    // pre-crash prefix plus however much of the replayed backlog it could
    // commit — never more than the workload, never a duplicate.
    w.assert_safety();
    for r in &w.replicas[1..] {
        assert_eq!(r.stats().executed_requests, 8, "replica {}", r.id());
    }
    let revived = w.replicas[0].stats().executed_requests;
    assert!(
        (3..=8).contains(&revived),
        "revived replica executed {revived}, outside its possible range"
    );
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 8u64.to_le_bytes(), "no request executed twice");
    w.net.metrics().snapshot().to_json()
}

#[test]
fn primary_crash_view_change_and_reconnect_on_rubin_stack() {
    let json = primary_crash_scenario(Stack::Rubin, chaos_seed());
    // The snapshot records the recovery machinery that ran.
    assert!(json.contains("reconnect_attempts"));
    assert!(json.contains("reconnects_completed"));
    assert!(json.contains("retransmits"));
}

#[test]
fn primary_crash_view_change_and_reconnect_on_nio_stack() {
    let json = primary_crash_scenario(Stack::Nio, chaos_seed());
    assert!(json.contains("reconnect_attempts"));
    assert!(json.contains("reconnects_completed"));
    assert!(json.contains("retransmits"));
}

/// The whole failure timeline — fault coins, retransmissions, view
/// change, reconnect backoff — replays byte-identically from a seed.
#[test]
fn fixed_seed_crash_timeline_replays_byte_identically() {
    let a = primary_crash_scenario(Stack::Rubin, chaos_seed());
    let b = primary_crash_scenario(Stack::Rubin, chaos_seed());
    assert_eq!(a, b, "same seed must give a byte-identical snapshot");
}

/// The tentpole recovery scenario: one backup is partitioned away while
/// the rest of the group executes more than two checkpoint intervals.
/// The live replicas' stable checkpoint moves past the laggard's whole
/// watermark window, their per-instance logs are truncated below it, and
/// the bounded holding pens shed the backlog — so when the partition
/// heals, replayed traffic cannot rebuild the missed instances and the
/// laggard's only way back is a full checkpoint state transfer (one-sided
/// RDMA READs on the RUBIN stack, chunk messages on the socket stack),
/// after which it rejoins live agreement.
///
/// `responder_fault` optionally makes one state-serving backup Byzantine:
/// it still votes for the correct checkpoint roots (so it is counted in
/// the `f + 1` certificate and is the laggard's *first* fetch target),
/// but serves corrupted or stale bytes. The per-chunk digest checks must
/// detect this and route the transfer around it.
///
/// Returns the run's metrics snapshot JSON for the determinism test.
fn state_transfer_scenario(kind: Stack, responder_fault: ByzantineMode, seed: u64) -> String {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let interval = cfg.checkpoint_interval;
    let mut w = build(kind, seed, cfg);
    let laggard = w.replicas[2].clone();

    // Phase 1: a healthy prefix everyone executes and checkpoints.
    w.submit_sequentially(incs(3));
    w.sim.run_until_idle();
    assert_eq!(laggard.last_executed(), 3);

    // Replica 3 may be a Byzantine *state server*; its agreement role
    // stays honest so checkpoint certificates still form.
    w.replicas[3].set_byzantine(responder_fault);

    // Phase 2: cut the laggard off from every other host, client included.
    let laggard_host = w.hosts[2];
    let t_cut = w.sim.now() + Nanos::from_micros(10);
    let mut cut = ChaosSchedule::new();
    for &h in &w.hosts {
        if h != laggard_host {
            cut.push(
                t_cut,
                ChaosAction::Partition {
                    a: laggard_host,
                    b: h,
                },
            );
        }
    }
    cut.install(&mut w.sim, &w.net);
    w.sim.run_until(t_cut + Nanos::from_micros(1));

    // Phase 3: the live trio executes three more checkpoint intervals,
    // then the partition holds long enough for the reliability layer to
    // give up on the unreachable peer — the queue pairs / streams break
    // after retry exhaustion and the holding pens shed the backlog. This
    // is what makes the scenario a true long outage: on heal, replay
    // cannot resurrect the missed instances.
    w.submit_sequentially(incs(3 * interval));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));
    assert_eq!(laggard.last_executed(), 3, "partitioned replica is frozen");
    for r in [&w.replicas[0], &w.replicas[1], &w.replicas[3]] {
        assert!(
            r.low_mark() >= laggard.last_executed() + 2 * interval,
            "stable checkpoint must clear the laggard's watermark window \
             (low_mark {} vs laggard at {})",
            r.low_mark(),
            laggard.last_executed()
        );
    }

    // Phase 4: heal and give the re-dial backoff (64 ms cap) time to
    // rebuild the mesh.
    let t_heal = w.sim.now() + Nanos::from_micros(10);
    let mut heal = ChaosSchedule::new();
    for &h in &w.hosts {
        if h != laggard_host {
            heal.push(
                t_heal,
                ChaosAction::Heal {
                    a: laggard_host,
                    b: h,
                },
            );
        }
    }
    heal.install(&mut w.sim, &w.net);
    w.sim.run_until(t_heal + Nanos::from_millis(150));

    // Phase 5: new workload. The requests reach the laggard too; its
    // stalled-request timers trigger catch-up, whose unservable answers
    // carry checkpoint attestations that steer it into state transfer;
    // the grace timer, the transfer itself and the per-instance tail all
    // run on the 40 ms protocol timeout.
    w.submit_sequentially(incs(3));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(400));

    let stats = laggard.stats();
    assert!(
        stats.state_transfers_started >= 1,
        "laggard must have entered state transfer"
    );
    assert!(
        stats.state_transfers_completed >= 1,
        "laggard must have completed a state transfer"
    );
    if responder_fault != ByzantineMode::Honest {
        assert!(
            stats.state_transfer_retries >= 1,
            "the Byzantine responder is the first fetch target; the digest \
             checks must have rejected it and rotated peers"
        );
    }

    w.assert_safety();
    assert_eq!(
        laggard.last_executed(),
        w.replicas[0].last_executed(),
        "recovered replica must track the head of the log"
    );
    let digests: Vec<_> = w
        .replicas
        .iter()
        .map(|r| r.with_service(|s| s.state_digest()))
        .collect();
    for d in &digests[1..] {
        assert_eq!(
            *d, digests[0],
            "every replica must hold byte-identical application state"
        );
    }
    w.net.metrics().snapshot().to_json()
}

#[test]
fn partitioned_replica_rejoins_via_state_transfer_on_rubin_stack() {
    let json = state_transfer_scenario(Stack::Rubin, ByzantineMode::Honest, chaos_seed());
    // On the RDMA stack the chunks move by one-sided READs.
    assert!(json.contains("state_transfer_reads"));
    assert!(json.contains("\"reptor.r2.state_transfer_completed\":"));
}

#[test]
fn partitioned_replica_rejoins_via_state_transfer_on_nio_stack() {
    let json = state_transfer_scenario(Stack::Nio, ByzantineMode::Honest, chaos_seed());
    assert!(json.contains("\"reptor.r2.state_transfer_completed\":"));
}

#[test]
fn bogus_state_chunks_responder_is_detected_and_routed_around() {
    state_transfer_scenario(Stack::Rubin, ByzantineMode::BogusStateChunks, chaos_seed());
}

#[test]
fn bogus_state_chunks_responder_is_routed_around_on_nio_stack() {
    state_transfer_scenario(Stack::Nio, ByzantineMode::BogusStateChunks, chaos_seed());
}

#[test]
fn stale_checkpoint_responder_is_detected_and_routed_around() {
    state_transfer_scenario(Stack::Rubin, ByzantineMode::StaleCheckpoint, chaos_seed());
}

/// A full state transfer — partition, watermark lag, manifest and chunk
/// fetches, Byzantine route-around machinery armed, rejoin — replays
/// byte-identically from a fixed seed.
#[test]
fn fixed_seed_state_transfer_replays_byte_identically() {
    let a = state_transfer_scenario(Stack::Rubin, ByzantineMode::Honest, chaos_seed());
    let b = state_transfer_scenario(Stack::Rubin, ByzantineMode::Honest, chaos_seed());
    assert_eq!(a, b, "same seed must give a byte-identical snapshot");
}

/// Cold restart: a backup's host loses power, the group executes far past
/// its window, and the host comes back with the replica's volatile state
/// gone. `Replica::restart` rebuilds it from a fresh service instance;
/// rejoin probes steer it through catch-up attestations into a state
/// transfer and back into live agreement.
fn restart_scenario(kind: Stack, seed: u64) {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let interval = cfg.checkpoint_interval;
    let mut w = build(kind, seed, cfg);
    let victim = w.replicas[1].clone();

    // Healthy prefix.
    w.submit_sequentially(incs(3));
    w.sim.run_until_idle();
    assert_eq!(victim.last_executed(), 3);

    // Power off the backup's host (scripted, replayable).
    let victim_host = w.hosts[1];
    let t_crash = w.sim.now() + Nanos::from_micros(100);
    ChaosSchedule::new()
        .at(t_crash, ChaosAction::CrashHost { host: victim_host })
        .install(&mut w.sim, &w.net);
    let v = victim.clone();
    w.sim.schedule_at(t_crash, move |_sim| {
        v.set_byzantine(ByzantineMode::Crash);
    });
    w.sim.run_until(t_crash + Nanos::from_micros(1));

    // The live trio executes three checkpoint intervals, and the outage
    // lasts long enough for retry exhaustion to break the channels to the
    // dead host: the victim's history is truncated everywhere and the
    // holding pens shed the backlog.
    w.submit_sequentially(incs(3 * interval));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));
    for r in [&w.replicas[0], &w.replicas[2], &w.replicas[3]] {
        assert!(r.low_mark() >= 2 * interval);
    }

    // Power back on; the replica restarts cold — fresh service, empty
    // logs — and must rebuild itself from the group's checkpoint.
    let t_back = w.sim.now() + Nanos::from_millis(1);
    ChaosSchedule::new()
        .at(t_back, ChaosAction::RestartHost { host: victim_host })
        .install(&mut w.sim, &w.net);
    let v = victim.clone();
    w.sim.schedule_at(t_back, move |sim| {
        v.restart(sim, Box::new(CounterService::default()));
    });
    w.sim.run_until(t_back + Nanos::from_millis(400));

    assert!(
        victim.stats().state_transfers_completed >= 1,
        "cold-restarted replica must have rebuilt itself by state transfer"
    );

    // The rejoined replica executes new requests with everyone else.
    w.submit_sequentially(incs(3));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));
    w.assert_safety();
    assert_eq!(victim.last_executed(), w.replicas[0].last_executed());
    let digests: Vec<_> = w
        .replicas
        .iter()
        .map(|r| r.with_service(|s| s.state_digest()))
        .collect();
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "restarted replica state must converge");
    }
}

#[test]
fn crashed_backup_restarts_cold_and_rejoins_via_state_transfer_on_rubin_stack() {
    restart_scenario(Stack::Rubin, chaos_seed());
}

#[test]
fn crashed_backup_restarts_cold_and_rejoins_via_state_transfer_on_nio_stack() {
    restart_scenario(Stack::Nio, chaos_seed());
}

/// Proactive recovery colliding with a partition: a full epoch rotation
/// starts while one replica is cut off from the rest of the group. The
/// stagger bound means each live refresh takes exactly one more replica
/// out, so the scheduler must march through the live members one at a
/// time (each rejoins by state transfer from the two remaining peers),
/// burn the refresh deadline on the unreachable victim instead of
/// wedging, and complete the rotation. After the heal the abandoned
/// replica — restarted cold into the partition — recovers through its
/// own rejoin probes and converges.
fn refresh_partition_collision_scenario(kind: Stack, seed: u64) {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let mut w = build(kind, seed, cfg);

    // Healthy prefix past the first checkpoint, so every replica holds a
    // certified store a refreshed member can rebuild from.
    w.submit_sequentially(incs(6));
    w.sim.run_until_idle();

    // Cut replica 2 off from every other host, client included.
    let cut_host = w.hosts[2];
    let t_cut = w.sim.now() + Nanos::from_micros(10);
    let mut cut = ChaosSchedule::new();
    for &h in &w.hosts {
        if h != cut_host {
            cut.push(t_cut, ChaosAction::Partition { a: cut_host, b: h });
        }
    }
    cut.install(&mut w.sim, &w.net);
    w.sim.run_until(t_cut + Nanos::from_micros(1));

    // One full rotation, started into the partition.
    let sched = RecoveryScheduler::new(
        w.replicas.clone(),
        RecoveryConfig {
            period: Nanos::from_millis(10),
            poll: Nanos::from_millis(2),
            refresh_deadline: Nanos::from_millis(250),
        },
        w.net.metrics(),
        Box::new(|| Box::new(CounterService::default())),
    );
    sched.start(&mut w.sim, 1);
    w.sim.run_until(w.sim.now() + Nanos::from_millis(1500));

    let stats = sched.stats();
    assert_eq!(stats.rotations_completed, 1, "rotation must finish");
    assert_eq!(
        stats.refreshes_completed, 3,
        "the live replicas refresh through the outage"
    );
    assert_eq!(
        stats.refresh_timeouts, 1,
        "the partitioned victim cannot rejoin and must be abandoned at \
         the deadline instead of wedging the rotation"
    );
    for r in [&w.replicas[0], &w.replicas[1], &w.replicas[3]] {
        assert_eq!(r.recovery_epoch(), 1, "replica {}", r.id());
        assert!(
            r.stats().state_transfers_completed >= 1,
            "refreshed replica {} must have rebuilt by state transfer",
            r.id()
        );
    }

    // Heal; the abandoned replica was restarted cold into the partition,
    // so its rejoin probes (exponential backoff) now find the group and
    // steer it through catch-up into a state transfer.
    let t_heal = w.sim.now() + Nanos::from_micros(10);
    let mut heal = ChaosSchedule::new();
    for &h in &w.hosts {
        if h != cut_host {
            heal.push(t_heal, ChaosAction::Heal { a: cut_host, b: h });
        }
    }
    heal.install(&mut w.sim, &w.net);
    w.sim.run_until(t_heal + Nanos::from_millis(150));

    w.submit_sequentially(incs(3));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(2000));

    let victim = &w.replicas[2];
    assert!(
        victim.stats().state_transfers_completed >= 1,
        "healed victim must have rebuilt by state transfer"
    );
    w.assert_safety();
    assert_eq!(victim.last_executed(), w.replicas[0].last_executed());
    let digests: Vec<_> = w
        .replicas
        .iter()
        .map(|r| r.with_service(|s| s.state_digest()))
        .collect();
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "refreshed group state must converge");
    }
    let snap = w.net.metrics().snapshot();
    assert_eq!(snap.total("proactive_rotations_completed"), 1);
    assert_eq!(snap.total("proactive_refresh_timeouts"), 1);
}

#[test]
fn proactive_refresh_collides_with_partition_on_rubin_stack() {
    refresh_partition_collision_scenario(Stack::Rubin, chaos_seed());
}

#[test]
fn proactive_refresh_collides_with_partition_on_nio_stack() {
    refresh_partition_collision_scenario(Stack::Nio, chaos_seed());
}

/// A Byzantine responder advertising a stale-epoch rkey, on the RDMA
/// stack. After the recovery-epoch roll re-registers every checkpoint
/// store, replica 3 keeps advertising the *revoked* rkey — re-tagged
/// with the current epoch, so nothing in the message path looks stale:
/// its checkpoint votes certify the correct root, its epoch field passes
/// the responder check, and it serves the manifest honestly. The lie is
/// only caught where the paper puts the trust boundary: the responder's
/// RNIC denies the one-sided READ against the invalidated registration
/// (`stale_rkey_denied`), the fetcher sees the failed READ and rotates
/// to the next attester. RNIC-fenced, not digest-detected.
fn stale_epoch_offer_scenario(seed: u64) -> String {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let interval = cfg.checkpoint_interval;
    let mut w = build(Stack::Rubin, seed, cfg);
    let laggard = w.replicas[2].clone();

    // Healthy prefix; replica 3's agreement role stays honest so
    // checkpoint certificates still form — it lies only as a state
    // server, and only after the epoch roll arms `stale_offer`.
    w.submit_sequentially(incs(3));
    w.sim.run_until_idle();
    w.replicas[3].set_byzantine(ByzantineMode::StaleEpochOffer);

    // Partition the laggard, then let the live trio execute three more
    // checkpoint intervals so its only way back is a state transfer.
    let laggard_host = w.hosts[2];
    let t_cut = w.sim.now() + Nanos::from_micros(10);
    let mut cut = ChaosSchedule::new();
    for &h in &w.hosts {
        if h != laggard_host {
            cut.push(
                t_cut,
                ChaosAction::Partition {
                    a: laggard_host,
                    b: h,
                },
            );
        }
    }
    cut.install(&mut w.sim, &w.net);
    w.sim.run_until(t_cut + Nanos::from_micros(1));
    w.submit_sequentially(incs(3 * interval));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));

    // The scheduler's fence step, applied directly for exact timing:
    // every replica re-registers its stores under epoch 1 and the old
    // memory regions are invalidated. Replica 3 squirrels away its
    // revoked offer and will advertise it from now on.
    for r in &w.replicas {
        r.roll_recovery_epoch(&mut w.sim, 1);
    }
    w.sim.run_until(w.sim.now() + Nanos::from_millis(50));

    // Heal and drive new workload; the laggard's catch-up attestations
    // (all epoch-1, replica 3's carrying the revoked rkey) steer it into
    // a transfer whose first fetch target is replica 3.
    let t_heal = w.sim.now() + Nanos::from_micros(10);
    let mut heal = ChaosSchedule::new();
    for &h in &w.hosts {
        if h != laggard_host {
            heal.push(
                t_heal,
                ChaosAction::Heal {
                    a: laggard_host,
                    b: h,
                },
            );
        }
    }
    heal.install(&mut w.sim, &w.net);
    w.sim.run_until(t_heal + Nanos::from_millis(150));
    w.submit_sequentially(incs(3));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(400));

    let stats = laggard.stats();
    assert!(stats.state_transfers_started >= 1);
    assert!(
        stats.state_transfers_completed >= 1,
        "laggard must complete the transfer from an honest responder"
    );
    assert!(
        stats.state_transfer_retries >= 1,
        "the READ against the revoked rkey must fail and rotate peers"
    );
    let snap = w.net.metrics().snapshot();
    assert!(
        snap.total("stale_rkey_denied") >= 1,
        "the responder RNIC must deny the stale rkey"
    );
    // The fence fired below the protocol: no responder ever saw a
    // stale-looking epoch field and no digest check was involved in
    // catching the lie (a revoked rkey returns no bytes to check).
    for r in &w.replicas {
        assert_eq!(
            r.stats().stale_epoch_rejected,
            0,
            "replica {}: the stale offer must not be detectable in the \
             message path",
            r.id()
        );
    }

    w.assert_safety();
    assert_eq!(laggard.last_executed(), w.replicas[0].last_executed());
    let digests: Vec<_> = w
        .replicas
        .iter()
        .map(|r| r.with_service(|s| s.state_digest()))
        .collect();
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "state must converge despite the lie");
    }
    snap.to_json()
}

#[test]
fn stale_epoch_rkey_responder_is_fenced_by_rnic_on_rubin_stack() {
    let json = stale_epoch_offer_scenario(chaos_seed());
    assert!(json.contains("stale_rkey_denied"));
    assert!(json.contains("mr_rotations"));
}

/// An equivocating leader on the one-sided fast path: it WRITEs one batch
/// into half the followers' slots and a conflicting batch into the other
/// half. The RNIC permission check cannot see this — the leader
/// legitimately holds every grant — so detection must stay exactly where
/// PBFT puts it: the conflicting digests never gather a prepare quorum,
/// the backup timers fire, and the group view-changes to an honest
/// leader who re-proposes and commits everything exactly once.
fn equivocating_slot_writer_scenario(seed: u64) -> String {
    let cfg = ReptorConfig {
        fast_path: true,
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let mut w = build(Stack::Rubin, seed, cfg);
    let client = w.clients[0].clone();

    // Healthy prefix: the followers' slot grants reach the leader, so
    // the equivocation below rides the fast path, not the message path.
    for _ in 0..3 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(3);
    w.sim.run_until_idle();
    assert!(
        w.replicas[0].stats().fast_path_writes > 0,
        "grants must be armed before the equivocation starts"
    );

    w.replicas[0].set_byzantine(ByzantineMode::EquivocatingPrimary);
    for _ in 0..5 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(8);
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));

    for r in &w.replicas[1..] {
        assert!(
            r.view() >= 1,
            "replica {} must have deposed the equivocator",
            r.id()
        );
        assert_eq!(r.stats().executed_requests, 8, "replica {}", r.id());
    }
    w.assert_safety();
    // Liveness: every request completed. Note the equivocator *may* get
    // one of its two versions committed (its tweaked payloads ride the
    // view-change proof merge — a known property of MAC-authenticated
    // PBFT, where replicas cannot verify client intent, fast path or
    // not); what matters is that all replicas execute the same version.
    assert_eq!(client.completions().len(), 8, "every request completes");
    let digests: Vec<_> = w
        .replicas
        .iter()
        .map(|r| r.with_service(|s| s.state_digest()))
        .collect();
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "one of the two versions, everywhere");
    }

    let snap = w.net.metrics().snapshot();
    // The lie travelled one-sided and was caught at the digest/prepare
    // layer, not by the RNIC: the equivocator held valid grants.
    assert!(
        snap.total("fast_path_deliveries") > 0,
        "conflicting batches must have arrived through the slots"
    );
    snap.to_json()
}

#[test]
fn equivocating_slot_writer_is_caught_at_prepare_and_deposed() {
    equivocating_slot_writer_scenario(chaos_seed());
}

/// A deposed leader firing its retained slot grants *after* the view
/// change: the followers invalidated their slot regions the moment they
/// voted, so every late WRITE is denied in the target RNIC
/// (`fast_path_write_denied`) — the revocation fence, not protocol code,
/// stops the stale proposals. Meanwhile the new leader receives fresh
/// grants and the fast path resumes under the new view.
fn deposed_slot_writer_scenario(seed: u64) -> String {
    let cfg = ReptorConfig {
        fast_path: true,
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let mut w = build(Stack::Rubin, seed, cfg);
    let client = w.clients[0].clone();

    // Healthy prefix under replica 0, so it holds live slot grants.
    for _ in 0..3 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(3);
    w.sim.run_until_idle();
    assert!(w.replicas[0].stats().fast_path_writes > 0);

    // The leader goes silent but keeps its grants; once deposed it will
    // fire them into the revoked regions.
    w.replicas[0].set_byzantine(ByzantineMode::LateSlotWriter);
    for _ in 0..5 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(8);
    // Let the deposed leader learn of the new view and fire its stale
    // WRITEs, and the group settle.
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));

    // New workload under the new leader: by now the followers' fresh
    // grants (sent when they installed the view) have landed, so these
    // proposals ride the fast path again.
    for _ in 0..4 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    w.run_to_completion(12);
    w.sim.run_until(w.sim.now() + Nanos::from_millis(50));

    for r in &w.replicas[1..] {
        assert!(r.view() >= 1, "replica {} must have view-changed", r.id());
        assert_eq!(r.stats().executed_requests, 12, "replica {}", r.id());
    }
    w.assert_safety();
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 12u64.to_le_bytes(), "no stale proposal may execute");

    let snap = w.net.metrics().snapshot();
    assert!(
        snap.total("fast_path_write_denied") >= 1,
        "the deposed leader's late WRITEs must be RNIC-denied"
    );
    assert!(
        snap.total("fast_path_revocations") >= 3,
        "every follower must have invalidated its region when it voted"
    );
    // The fast path resumes under the new leader with fresh grants.
    let new_leader = w.replicas[1].stats();
    assert!(
        new_leader.fast_path_writes > 0,
        "the new leader must propose one-sided under the new view"
    );
    snap.to_json()
}

#[test]
fn deposed_slot_writer_late_writes_are_rnic_denied() {
    deposed_slot_writer_scenario(chaos_seed());
}

/// The deposed-leader fence timeline — grants, silence, view change,
/// revocation, denied late WRITEs — replays byte-identically from a
/// fixed seed.
#[test]
fn fixed_seed_deposed_slot_writer_replays_byte_identically() {
    let a = deposed_slot_writer_scenario(chaos_seed());
    let b = deposed_slot_writer_scenario(chaos_seed());
    assert_eq!(a, b, "same seed must give a byte-identical snapshot");
}
