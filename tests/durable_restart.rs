//! Durable-restart chaos scenarios: crash-consistent recovery from the
//! simulated local drive under injected storage faults.
//!
//! Where `chaos_scenarios.rs` exercises *network* adversity, these
//! scenarios treat the storage layer itself as the adversary, following
//! the torn-write fault model: a replica's drive survives its crash, but
//! the bytes on it may be torn mid-frame, bit-flipped, or silently lost
//! after the ack. The durability layer must always recover a clean
//! prefix — never panic, never install wrong state — and fetch only the
//! missing delta from peers.
//!
//! Every scenario is seeded from `CHAOS_SEED` (CI sweeps 1–5) and
//! replays byte-identically, asserted over the full metrics snapshot.

mod common;

use common::chaos_seed;
use reptor::{
    ByzantineMode, Cluster, CounterService, DurabilityConfig, KvOp, KvService, ReptorConfig, Stack,
    StateMachine, SLOT_BYTES,
};
use simnet::{ChaosAction, ChaosSchedule, DiskFault, DiskSpec, Nanos};

fn durable_cfg(snapshot_every: u64) -> ReptorConfig {
    ReptorConfig {
        checkpoint_interval: 4,
        durability: Some(DurabilityConfig {
            wal: true,
            snapshot_every,
            device: DiskSpec::nvme(),
        }),
        ..ReptorConfig::small()
    }
}

fn incs(n: usize) -> Vec<Vec<u8>> {
    vec![b"inc".to_vec(); n]
}

fn assert_converged(w: &Cluster) {
    w.assert_safety();
    let digests: Vec<_> = w
        .replicas
        .iter()
        .map(|r| r.with_service(|s| s.state_digest()))
        .collect();
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "replica application state must converge");
    }
    let le0 = w.replicas[0].last_executed();
    for r in &w.replicas {
        assert_eq!(r.last_executed(), le0, "replica {} position", r.id());
    }
}

/// Schedules a crash of replica `idx` (host power-off + fail-silent mode)
/// at `at`. Does not advance the simulation — the full-cluster scenario
/// installs several crashes at the same instant before running.
fn crash_at(w: &mut Cluster, idx: usize, at: Nanos) {
    ChaosSchedule::new()
        .at(at, ChaosAction::CrashHost { host: w.hosts[idx] })
        .install(&mut w.sim, &w.net);
    let v = w.replicas[idx].clone();
    w.sim.schedule_at(at, move |_sim| {
        v.set_byzantine(ByzantineMode::Crash);
    });
}

/// Powers the host back on and restarts the replica cold at `at`.
fn restart_at(
    w: &mut Cluster,
    idx: usize,
    at: Nanos,
    service: impl Fn() -> Box<dyn StateMachine> + 'static,
) {
    ChaosSchedule::new()
        .at(at, ChaosAction::RestartHost { host: w.hosts[idx] })
        .install(&mut w.sim, &w.net);
    let v = w.replicas[idx].clone();
    w.sim.schedule_at(at, move |sim| {
        v.restart(sim, service());
    });
}

fn put(key: String, val: Vec<u8>) -> Vec<u8> {
    KvOp::Put(key.into_bytes(), val).encode()
}

/// Torn WAL tail: a replica's last log append is torn mid-frame by the
/// crash. Restart must truncate exactly the torn frame, replay the clean
/// prefix locally, and fetch only the missing delta — most checkpoint
/// chunks are satisfied from the locally rebuilt payload, asserted via
/// the `state_transfer_*_local` byte counters.
fn torn_wal_tail_scenario(kind: Stack, seed: u64) -> String {
    // No snapshot compaction (large `snapshot_every`): the WAL carries
    // the full history, so the torn tail is the only storage damage.
    let mut w = Cluster::build(kind, durable_cfg(100), 1, seed, || {
        Box::<KvService>::default()
    });
    let victim = w.replicas[1].clone();

    // Seed 40 fixed-size keys: seqs 1..=40, stable checkpoint at 40.
    let seeds: Vec<Vec<u8>> = (0..40)
        .map(|i| put(format!("k{i:03}"), vec![i as u8; 32]))
        .collect();
    w.submit_sequentially(seeds);
    w.sim.run_until_idle();
    assert_eq!(victim.last_executed(), 40);

    // The next append to the victim's drive tears mid-frame: arm the
    // fault a few bytes past the current end of the log.
    let disk = victim.durable_disk().expect("durability configured");
    disk.arm_fault(DiskFault::TornWrite {
        at_byte: disk.len() + 10,
    });
    w.submit_sequentially([put("k000".into(), vec![0xAA; 32])]);

    // Power loss. The drive survives; the torn frame 41 is on it.
    let t_crash = w.sim.now() + Nanos::from_micros(100);
    crash_at(&mut w, 1, t_crash);
    w.sim.run_until(t_crash + Nanos::from_micros(1));

    // The live trio updates 8 existing keys (same value sizes, so the
    // checkpoint payload layout stays chunk-aligned): seqs 42..=49,
    // stable checkpoint at 48.
    let updates: Vec<Vec<u8>> = (0..8)
        .map(|i| put(format!("k{i:03}"), vec![0xBB + i as u8; 32]))
        .collect();
    w.submit_sequentially(updates);
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));

    // Power on. Recovery: scan truncates frame 41, replay reaches 40,
    // the re-sealed checkpoint attests the position, and the transfer to
    // 48 fetches only chunks the local payload can't satisfy.
    let t_back = w.sim.now() + Nanos::from_millis(1);
    restart_at(&mut w, 1, t_back, || Box::<KvService>::default());
    w.sim.run_until(t_back + Nanos::from_millis(400));

    let m = w.net.metrics();
    assert!(
        m.counter("reptor.r1.wal_frames_truncated") >= 1,
        "the torn tail must be detected and truncated"
    );
    assert_eq!(
        m.counter("reptor.r1.wal_frames_replayed"),
        40,
        "the clean prefix replays in full"
    );
    assert_eq!(
        m.counter("reptor.r1.durable_restores"),
        0,
        "no snapshot yet"
    );
    assert!(
        victim.stats().state_transfers_completed >= 1,
        "the missing delta still needs a transfer"
    );
    let local = m.counter("reptor.r1.state_transfer_bytes_local");
    let remote = m.counter("reptor.r1.state_transfer_bytes");
    assert!(
        local > 0,
        "locally recovered chunks must satisfy part of the fetch"
    );
    assert!(
        remote > 0,
        "the changed chunks (and the moved client table) still come from \
         peers — the root differs, so at least one chunk must"
    );

    // Tail workload: the recovered replica executes with the group.
    let tail: Vec<Vec<u8>> = (0..3)
        .map(|i| put(format!("t{i:03}"), vec![0xEE; 32]))
        .collect();
    w.submit_sequentially(tail);
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));
    assert_converged(&w);
    m.snapshot().to_json()
}

#[test]
fn torn_wal_tail_recovers_clean_prefix_and_delta_fetches_on_rubin_stack() {
    let json = torn_wal_tail_scenario(Stack::Rubin, chaos_seed());
    assert!(json.contains("\"reptor.r1.state_transfer_bytes_local\":"));
    assert!(json.contains("\"disk.r1.torn_writes\":1"));
}

#[test]
fn torn_wal_tail_recovers_clean_prefix_and_delta_fetches_on_nio_stack() {
    torn_wal_tail_scenario(Stack::Nio, chaos_seed());
}

#[test]
fn fixed_seed_torn_tail_timeline_replays_byte_identically() {
    let a = torn_wal_tail_scenario(Stack::Rubin, chaos_seed());
    let b = torn_wal_tail_scenario(Stack::Rubin, chaos_seed());
    assert_eq!(a, b, "same seed must give a byte-identical snapshot");
}

/// Bit-flipped snapshot: both snapshot slots of the victim's drive are
/// corrupted in flight. The CRCs catch the damage at restart, recovery
/// counts the fallback and rebuilds entirely from peers — corrupt local
/// state is never installed.
fn bitflip_snapshot_scenario(kind: Stack, seed: u64) -> String {
    let mut w = Cluster::build(kind, durable_cfg(1), 1, seed, || {
        Box::<CounterService>::default()
    });
    let victim = w.replicas[1].clone();

    // Every snapshot write to either slot lands with one bit flipped.
    let disk = victim.durable_disk().expect("durability configured");
    disk.arm_fault(DiskFault::BitFlip { at_byte: 20 });
    disk.arm_fault(DiskFault::BitFlip {
        at_byte: SLOT_BYTES + 20,
    });

    // Two stable checkpoints (seqs 4 and 8) → two corrupted snapshots,
    // one per slot; the WAL compacts to empty behind them.
    w.submit_sequentially(incs(8));
    w.sim.run_until_idle();
    assert_eq!(victim.last_executed(), 8);

    let t_crash = w.sim.now() + Nanos::from_micros(100);
    crash_at(&mut w, 1, t_crash);
    w.sim.run_until(t_crash + Nanos::from_micros(1));
    w.submit_sequentially(incs(8));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));

    let t_back = w.sim.now() + Nanos::from_millis(1);
    restart_at(&mut w, 1, t_back, || Box::<CounterService>::default());
    w.sim.run_until(t_back + Nanos::from_millis(400));

    let m = w.net.metrics();
    assert!(
        m.counter("reptor.r1.snapshot_corrupt_fallback") >= 1,
        "both slots are corrupt; the fallback must be counted"
    );
    assert_eq!(
        m.counter("reptor.r1.durable_restores"),
        0,
        "no corrupt snapshot may ever be installed"
    );
    assert_eq!(m.counter("disk.r1.bit_flips"), 2);
    assert!(
        victim.stats().state_transfers_completed >= 1,
        "recovery must fall back to peer state transfer"
    );

    w.submit_sequentially(incs(3));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));
    assert_converged(&w);
    m.snapshot().to_json()
}

#[test]
fn bitflipped_snapshot_falls_back_to_peer_state_transfer() {
    let json = bitflip_snapshot_scenario(Stack::Rubin, chaos_seed());
    assert!(json.contains("\"reptor.r1.snapshot_corrupt_fallback\":"));
}

/// Crash during snapshot compaction: the snapshot write itself is torn
/// while the WAL compaction that follows it lands. Recovery then sees no
/// valid snapshot and a WAL whose frames start past the snapshot seq —
/// the contiguity check refuses to replay across the gap, and the
/// replica rebuilds from peers instead of installing a wrong prefix.
fn compaction_crash_scenario(kind: Stack, seed: u64) -> String {
    let mut w = Cluster::build(kind, durable_cfg(1), 1, seed, || {
        Box::<CounterService>::default()
    });
    let victim = w.replicas[1].clone();

    // The first slot-0 write (the seq-4 snapshot) tears almost at once;
    // the compaction rewrite of the WAL behind it is unaffected.
    let disk = victim.durable_disk().expect("durability configured");
    disk.arm_fault(DiskFault::TornWrite { at_byte: 20 });

    // Seqs 1..=6: stable checkpoint at 4 (torn snapshot + compaction to
    // frames 5..6), then two more appends.
    w.submit_sequentially(incs(6));
    w.sim.run_until_idle();
    assert_eq!(victim.last_executed(), 6);

    let t_crash = w.sim.now() + Nanos::from_micros(100);
    crash_at(&mut w, 1, t_crash);
    w.sim.run_until(t_crash + Nanos::from_micros(1));
    w.submit_sequentially(incs(10));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));

    let t_back = w.sim.now() + Nanos::from_millis(1);
    restart_at(&mut w, 1, t_back, || Box::<CounterService>::default());
    w.sim.run_until(t_back + Nanos::from_millis(400));

    let m = w.net.metrics();
    assert!(
        m.counter("reptor.r1.snapshot_corrupt_fallback") >= 1,
        "the torn snapshot slot must be rejected"
    );
    assert_eq!(
        m.counter("reptor.r1.wal_frames_replayed"),
        0,
        "frames past the lost snapshot must not replay across the gap"
    );
    assert_eq!(m.counter("disk.r1.torn_writes"), 1);
    assert!(
        victim.stats().state_transfers_completed >= 1,
        "recovery must fall back to peer state transfer"
    );

    w.submit_sequentially(incs(3));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));
    assert_converged(&w);
    m.snapshot().to_json()
}

#[test]
fn crash_during_compaction_recovers_safely_from_peers() {
    compaction_crash_scenario(Stack::Rubin, chaos_seed());
}

/// Whole-cluster power loss: every replica restarts cold from its own
/// drive. Each one installs its snapshot, re-seals and attests the
/// recovered checkpoint, and the group resumes — with zero state-transfer
/// traffic, because nobody is missing anything a peer would have.
fn full_cluster_restart_scenario(kind: Stack, seed: u64) -> String {
    let mut w = Cluster::build(kind, durable_cfg(1), 1, seed, || {
        Box::<CounterService>::default()
    });

    // Two stable checkpoints; every replica's drive holds a seq-8
    // snapshot and an empty (compacted) WAL.
    w.submit_sequentially(incs(8));
    w.sim.run_until_idle();

    // Correlated power failure: all four replica hosts die at once.
    let t_crash = w.sim.now() + Nanos::from_micros(100);
    let n = w.replicas.len();
    for i in 0..n {
        crash_at(&mut w, i, t_crash);
    }
    w.sim.run_until(t_crash + Nanos::from_millis(5));

    // Power restored everywhere; every replica restarts from disk.
    let t_back = w.sim.now() + Nanos::from_millis(1);
    for i in 0..n {
        restart_at(&mut w, i, t_back, || Box::<CounterService>::default());
    }
    // Let the mesh re-dial and the recovered checkpoint votes certify.
    w.sim.run_until(t_back + Nanos::from_millis(400));

    let m = w.net.metrics();
    for r in &w.replicas {
        assert_eq!(
            r.last_executed(),
            8,
            "replica {} must recover its position from disk",
            r.id()
        );
        assert_eq!(
            m.counter(&format!("reptor.r{}.durable_restores", r.id())),
            1
        );
        assert_eq!(
            r.stats().state_transfers_started,
            0,
            "replica {} must not fetch anything from peers",
            r.id()
        );
        assert_eq!(
            m.counter(&format!("reptor.r{}.state_transfer_bytes", r.id())),
            0,
            "zero peer fetch bytes on replica {}",
            r.id()
        );
    }

    // The recovered group serves new traffic.
    w.submit_sequentially(incs(3));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));
    assert_converged(&w);
    let last = w.clients[0].completions().last().unwrap().result.clone();
    assert_eq!(last, 11u64.to_le_bytes(), "no increment lost or doubled");
    m.snapshot().to_json()
}

#[test]
fn full_cluster_restarts_from_disk_with_zero_peer_fetches_on_rubin_stack() {
    let json = full_cluster_restart_scenario(Stack::Rubin, chaos_seed());
    assert!(json.contains("\"reptor.r0.durable_restores\":1"));
}

#[test]
fn full_cluster_restarts_from_disk_with_zero_peer_fetches_on_nio_stack() {
    full_cluster_restart_scenario(Stack::Nio, chaos_seed());
}

#[test]
fn fixed_seed_full_cluster_restart_replays_byte_identically() {
    let a = full_cluster_restart_scenario(Stack::Rubin, chaos_seed());
    let b = full_cluster_restart_scenario(Stack::Rubin, chaos_seed());
    assert_eq!(a, b, "same seed must give a byte-identical snapshot");
}

/// A replica that crashes twice must not start its second rejoin at the
/// max backoff tier: the backoff counter resets when a state transfer
/// completes (and on every restart), so both outages converge on the
/// same schedule.
#[test]
fn second_crash_rejoins_without_inherited_backoff() {
    // Volatile replicas: every restart takes the full peer-transfer
    // path, which is exactly the backoff machinery under test.
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let mut w = Cluster::build(Stack::Rubin, cfg, 1, chaos_seed(), || {
        Box::<CounterService>::default()
    });
    let victim = w.replicas[1].clone();

    for round in 0..2u64 {
        w.submit_sequentially(incs(3));
        w.sim.run_until_idle();

        let t_crash = w.sim.now() + Nanos::from_micros(100);
        crash_at(&mut w, 1, t_crash);
        w.sim.run_until(t_crash + Nanos::from_micros(1));
        w.submit_sequentially(incs(12));
        w.sim.run_until(w.sim.now() + Nanos::from_millis(100));

        let t_back = w.sim.now() + Nanos::from_millis(1);
        restart_at(&mut w, 1, t_back, || Box::<CounterService>::default());
        w.sim.run_until(t_back + Nanos::from_millis(400));
        assert!(
            victim.stats().state_transfers_completed > round,
            "rejoin {round} must complete a state transfer promptly — an \
             inherited backoff tier would stall it past the drill window"
        );
    }
    w.submit_sequentially(incs(3));
    w.sim.run_until(w.sim.now() + Nanos::from_millis(100));
    assert_converged(&w);
}
