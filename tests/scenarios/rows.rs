//! The table: every test that a timeline of steps can express, as a row.
//! Rows are grouped by the test file that runs them; a file hands
//! its group to `row_tests!`, which makes one `#[test]` per row under the
//! row's name.

use kvstore::kv_config;
pub use kvstore::YcsbSpec;
pub use reptor::{ByzantineMode, Stack};
use reptor::{DurabilityConfig, RecoveryConfig, ReptorConfig, SLOT_BYTES};
pub use simnet::LatencyMatrix;
use simnet::{ChaosAction, DiskFault, DiskSpec, HostId, Nanos};

use super::scenario::{run, Outcome};
// The vocabulary the group macros' rows are written in.
pub use super::scenario::{
    eq, ge, Expect, Expect::*, Fabric, Link::*, Ops, Ops::*, Scenario, Service, Stat::*, Step,
    Step::*, When::*, Who::*,
};

/// A table entry: a row, one row per sweep seed, or rows compared with
/// each other.
pub trait Row: Sized {
    /// The entry's scenarios, named.
    fn scenarios(self, name: &'static str) -> Vec<Scenario>;

    /// The entry's test: runs every scenario and checks it, and returns
    /// the outcomes in [`Row::scenarios`] order.
    #[allow(dead_code)] // `row_tests!` calls it in the group files.
    fn test(self, name: &'static str) -> Vec<Outcome> {
        self.scenarios(name).iter().map(run).collect()
    }
}

impl Row for Scenario {
    fn scenarios(self, name: &'static str) -> Vec<Scenario> {
        vec![Scenario { name, ..self }]
    }
}

impl<R: Row> Row for Vec<R> {
    fn scenarios(self, name: &'static str) -> Vec<Scenario> {
        self.into_iter().flat_map(|r| r.scenarios(name)).collect()
    }

    fn test(self, name: &'static str) -> Vec<Outcome> {
        self.into_iter().flat_map(|r| r.test(name)).collect()
    }
}

impl<A: Row, B: Row> Row for (A, B) {
    fn scenarios(self, name: &'static str) -> Vec<Scenario> {
        [self.0.scenarios(name), self.1.scenarios(name)].concat()
    }

    fn test(self, name: &'static str) -> Vec<Outcome> {
        let mut outcomes = self.0.test(name);
        outcomes.extend(self.1.test(name));
        outcomes
    }
}

/// Rows whose test runs each and compares every outcome with the next.
pub struct Across(pub Compare, pub Vec<Scenario>);

#[derive(Clone, Copy, Debug)]
pub enum Compare {
    /// What the clients see: the same client 0 replies and the same state
    /// on every replica. Batches may form differently.
    Same,
    /// That, and the same batches in the same order: replica 0's executed
    /// `(seq, batch digest)` log.
    SameLog,
    /// A lower mean latency for client 0.
    Faster,
    /// A different published snapshot or history.
    Differ,
}

impl Row for Across {
    fn scenarios(self, name: &'static str) -> Vec<Scenario> {
        self.1.scenarios(name)
    }

    fn test(self, name: &'static str) -> Vec<Outcome> {
        compare(self.0, &self.1.scenarios(name))
    }
}

/// Runs `rows`, requires `how` of every row against the next and returns
/// the outcomes.
///
/// # Panics
///
/// Panics naming both rows of the first pair that fails.
pub fn compare(how: Compare, rows: &[Scenario]) -> Vec<Outcome> {
    let outcomes: Vec<Outcome> = rows.iter().map(run).collect();
    for (i, pair) in outcomes.windows(2).enumerate() {
        let (a, b, s, t) = (&pair[0], &pair[1], &rows[i], &rows[i + 1]);
        let rows = format!(
            "rows `{}` and `{}` ({:?} p={} seed {} vs {:?} p={} seed {})",
            s.name, t.name, s.stack, s.cfg.pillars, a.seed, t.stack, t.cfg.pillars, b.seed
        );
        match how {
            Compare::Same | Compare::SameLog => {
                assert_eq!(a.replies, b.replies, "{rows}: client 0's replies");
                assert_eq!(a.states, b.states, "{rows}: the replicas' states");
                if let Compare::SameLog = how {
                    assert_eq!(a.log, b.log, "{rows}: replica 0's executed log");
                }
            }
            Compare::Faster => {
                let (x, y) = (a.mean_latency, b.mean_latency);
                assert!(x < y, "{rows}: mean latency {x:?} vs {y:?}");
            }
            Compare::Differ => assert!(
                (&a.published, &a.history) != (&b.published, &b.history),
                "{rows}: the same snapshot and history"
            ),
        }
    }
    outcomes
}

/// One `#[test]` per row, named after it: runs the row and checks its
/// outcomes against its golden line.
#[allow(unused_macros)] // The table-wide checks read the table and make no row tests.
macro_rules! row_tests {
    ($($name:ident => $row:expr,)*) => {$(
        #[test]
        fn $name() {
            use crate::scenarios::rows::*;
            let outcomes = Row::test($row, stringify!($name));
            crate::scenarios::golden::check(stringify!($name), &outcomes);
        }
    )*};
}

/// Every row of a group: its name and its scenarios.
macro_rules! named_rows {
    ($($name:ident => $row:expr,)*) => {
        vec![$((stringify!($name), Row::scenarios($row, stringify!($name))),)*]
    };
}

/// `tests/chaos_scenarios.rs`.
macro_rules! chaos_rows {
    ($then:ident) => {
        $then! {
            pbft_reaches_agreement_under_loss_on_rubin_stack => loss(Stack::Rubin),
            pbft_reaches_agreement_under_loss_on_nio_stack => loss(Stack::Nio),
            duplicated_and_reordered_frames_execute_exactly_once_on_rubin_stack => dup_reorder(Stack::Rubin),
            duplicated_and_reordered_frames_execute_exactly_once_on_nio_stack => dup_reorder(Stack::Nio),
            duplicated_client_requests_are_deduplicated_by_replicas => duplicated_client_requests(),
            corrupted_frames_are_rejected_by_mac_and_agreement_survives => corrupted_frames(),
            primary_crash_view_change_and_reconnect_on_rubin_stack => primary_crash(Stack::Rubin),
            primary_crash_view_change_and_reconnect_on_nio_stack => primary_crash(Stack::Nio),
            partitioned_replica_rejoins_via_state_transfer_on_rubin_stack => state_transfer(Stack::Rubin, ByzantineMode::Honest),
            partitioned_replica_rejoins_via_state_transfer_on_nio_stack => state_transfer(Stack::Nio, ByzantineMode::Honest),
            bogus_state_chunks_responder_is_detected_and_routed_around => state_transfer(Stack::Rubin, ByzantineMode::BogusStateChunks),
            bogus_state_chunks_responder_is_routed_around_on_nio_stack => state_transfer(Stack::Nio, ByzantineMode::BogusStateChunks),
            stale_checkpoint_responder_is_detected_and_routed_around => state_transfer(Stack::Rubin, ByzantineMode::StaleCheckpoint),
            // The stale liar over the message path. The golden lines show
            // each stale-checkpoint row identical to its stack's
            // bogus-chunks row at seeds 1–5: both liars are rejected the
            // same way, at the manifest, so the snapshot cannot tell them
            // apart.
            stale_checkpoint_responder_is_routed_around_on_nio_stack => state_transfer(Stack::Nio, ByzantineMode::StaleCheckpoint),
            crashed_backup_restarts_cold_and_rejoins_via_state_transfer_on_rubin_stack => cold_restart(Stack::Rubin),
            crashed_backup_restarts_cold_and_rejoins_via_state_transfer_on_nio_stack => cold_restart(Stack::Nio),
            proactive_refresh_collides_with_partition_on_rubin_stack => refresh_into_partition(Stack::Rubin),
            proactive_refresh_collides_with_partition_on_nio_stack => refresh_into_partition(Stack::Nio),
            stale_epoch_rkey_responder_is_fenced_by_rnic_on_rubin_stack => stale_epoch_offer(),
            equivocating_slot_writer_is_caught_at_prepare_and_deposed => equivocating_slot_writer(),
            deposed_slot_writer_late_writes_are_rnic_denied => deposed_slot_writer(),
            fixed_seed_deposed_slot_writer_replays_byte_identically => deposed_slot_writer(),
        }
    };
}

/// `tests/durable_restart.rs`.
macro_rules! durable_rows {
    ($then:ident) => {
        $then! {
            torn_wal_tail_recovers_clean_prefix_and_delta_fetches_on_rubin_stack => torn_wal_tail(Stack::Rubin),
            torn_wal_tail_recovers_clean_prefix_and_delta_fetches_on_nio_stack => torn_wal_tail(Stack::Nio),
            bitflipped_snapshot_falls_back_to_peer_state_transfer => bitflipped_snapshot(),
            crash_during_compaction_recovers_safely_from_peers => crash_during_compaction(),
            full_cluster_restarts_from_disk_with_zero_peer_fetches_on_rubin_stack => full_cluster_restart(Stack::Rubin),
            full_cluster_restarts_from_disk_with_zero_peer_fetches_on_nio_stack => full_cluster_restart(Stack::Nio),
            fixed_seed_full_cluster_restart_replays_byte_identically => full_cluster_restart(Stack::Rubin),
            second_crash_rejoins_without_inherited_backoff => second_crash(),
        }
    };
}

/// `tests/security_scenarios.rs`.
macro_rules! security_rows {
    ($then:ident) => {
        $then! {
            compromised_replica_is_contained_by_the_protocol => compromised_replica(),
            corrupt_macs_are_dropped_and_tolerated => corrupt_macs(),
        }
    };
}

/// `tests/view_change_scenarios.rs`.
macro_rules! view_change_rows {
    ($then:ident) => {
        $then! {
            cascading_faulty_primaries_are_skipped => cascading_silent_primaries(),
            view_change_replays_prepared_batches_without_duplication => silent_primary_mid_stream(),
            checkpoints_continue_after_view_change => checkpoints_after_view_change(),
            seven_replicas_survive_two_cascading_silent_primaries => seven_replicas(),
            silent_primary_triggers_view_change => silent_primary(),
            equivocating_primary_cannot_violate_safety => equivocating_primary(),
            // The view change collects prepared certificates from every
            // pipeline's log, and the new primary re-proposes the merged set.
            silent_primary_view_change_merges_two_pipelines => faulty_primary_over_pipelines(ByzantineMode::SilentPrimary, 2, 40),
            silent_primary_view_change_merges_four_pipelines => faulty_primary_over_pipelines(ByzantineMode::SilentPrimary, 4, 41),
            equivocating_primary_view_change_merges_two_pipelines => faulty_primary_over_pipelines(ByzantineMode::EquivocatingPrimary, 2, 42),
            equivocating_primary_view_change_merges_four_pipelines => faulty_primary_over_pipelines(ByzantineMode::EquivocatingPrimary, 4, 43),
        }
    };
}

/// `tests/fast_path_scenarios.rs`.
macro_rules! fast_path_rows {
    ($then:ident) => {
        $then! {
            fast_path_engages_and_commits_exactly_once => fast_path_commit(),
            fixed_seed_fast_path_timeline_replays_byte_identically => fast_path_commit(),
            fast_path_commits_two_network_delays_after_the_write_lands => fast_path_two_delays(),
            disabled_fast_path_leaves_no_trace_in_the_snapshot => disabled_fast_path(),
            fallback_engages_cleanly_without_one_sided_writes_single_pipeline => message_fallback(1),
            fallback_engages_cleanly_without_one_sided_writes_four_pipelines => message_fallback(4),
            fast_path_composes_with_four_cop_pipelines => fast_path_four_pipelines(),
        }
    };
}

/// `tests/bft_safety_fuzz.rs`: rows swept over seeds 1–5 in one test,
/// because none of them may be seed-sensitive.
macro_rules! fuzz_rows {
    ($then:ident) => {
        $then! {
            stale_lease_offer_is_rnic_denied_and_rotated_out => (1..=5).map(stale_lease_offer).collect::<Vec<_>>(),
            forged_lease_cells_are_outvoted_and_never_served => (1..=5).map(forged_lease_cells).collect::<Vec<_>>(),
            apply_lag_quorum_divergence_never_inverts_reads => (1..=5).map(apply_lag).collect::<Vec<_>>(),
        }
    };
}

/// `tests/proactive_recovery.rs`.
macro_rules! proactive_rows {
    ($then:ident) => {
        $then! {
            throughput_never_zero_during_rotation_single_pillar => rotation_under_load(1),
            throughput_never_zero_during_rotation_four_pillars => rotation_under_load(4),
            // A whole rotation under load — epoch roll, MR re-registration,
            // four restarts, four state transfers, the client traffic woven
            // between them.
            fixed_seed_rotation_replays_byte_identically => Scenario { seed: 23, expect: Vec::new(), ..rotation_under_load(1) },
        }
    };
}

/// `tests/kv_linearizability.rs`.
macro_rules! kv_rows {
    ($then:ident) => {
        $then! {
            rubin_ycsb_b_is_linearizable_with_onesided_reads => rubin_ycsb_b(),
            rubin_ycsb_a_write_heavy_is_linearizable => rubin_ycsb_a(),
            lease_revocation_mid_run_denies_stale_rkeys_and_stays_linearizable => lease_revocation_mid_run(),
            view_change_rolls_leases_and_stays_linearizable => view_change_rolls_leases(),
            nio_stack_serves_all_reads_through_agreement => nio_kv(),
            geo_kv_workload_commits_across_regions => geo_kv(48, 3, 3, 0xF1),
            // A thousand KV clients multiplexed onto eight WAN hosts.
            geo_kv_thousand_clients => geo_kv(1000, 8, 2, 0x1F1),
        }
    };
}

/// `tests/bft_over_stacks.rs`: one body per stack; what the client and
/// the service see must not depend on which.
macro_rules! stacks_rows {
    ($then:ident) => {
        $then! {
            bft_counter_over_direct_stack => counter(Stack::Direct, 100),
            bft_counter_over_nio_tcp_stack => counter(Stack::Nio, 101),
            bft_counter_over_rubin_rdma_stack => counter(Stack::Rubin, 102),
            // The integration claim itself: the comm stack is invisible to the
            // protocol's observers.
            replies_and_state_are_identical_on_all_three_stacks => Across(Compare::Same, STACKS.map(|stack| counter(stack, 103)).into()),
            // The paper's motivation end to end: agreement over RUBIN beats
            // agreement over the NIO TCP stack, and the direct fabric, which
            // charges no comm-stack CPU at all, bounds both from below.
            rdma_stack_commits_faster_than_tcp_stack => Across(Compare::Faster, [Stack::Direct, Stack::Rubin, Stack::Nio].map(|stack| counter(stack, 103)).into()),
            byzantine_leader_tolerated_over_rubin_stack => silent_leader(Stack::Rubin),
            byzantine_leader_tolerated_identically_on_all_three_stacks => Across(Compare::Same, STACKS.map(silent_leader).into()),
            crashed_replica_tolerated_over_nio_stack => crashed_backup(Stack::Nio),
            crashed_replica_tolerated_identically_on_all_three_stacks => Across(Compare::Same, STACKS.map(crashed_backup).into()),
        }
    };
}

/// `tests/stack_invariants.rs`: the agreement rows.
macro_rules! invariants_rows {
    ($then:ident) => {
        $then! {
            fixed_seed_reproduces_identical_phase_counter_sequences => incs(1234, 5, 2_000_000).expect([Phases, Counter(All, "reptor.r{}.requests_executed", eq(5))]),
            // Reorder jitter draws on the seed, so the two timelines differ;
            // the logical counters are workload-determined.
            different_seeds_still_execute_the_same_workload => Across(Compare::Differ, [1, 2].map(|seed| jittered_incs(seed).expect([Counter(Only(&[0, 3]), "reptor.r{}.requests_executed", eq(5))])).into()),
            simulator_health_gauges_are_published_and_consistent => simulator_health(),
        }
    };
}

/// `tests/cop_determinism.rs`: COP costs none of the simulator's
/// reproducibility, whatever the pipeline count.
macro_rules! cop_rows {
    ($then:ident) => {
        $then! {
            fixed_seed_p1_metrics_snapshot_is_byte_identical => cop(1, 0xD5, 16),
            fixed_seed_p4_metrics_snapshot_is_byte_identical => cop(4, 0xD5, 16),
            // The executor's total order makes the outcome independent of
            // how many pipelines agreement was split across, and agreement
            // genuinely spreads across them.
            executor_total_order_is_independent_of_pipeline_count => Across(Compare::SameLog, [1, 2, 4].map(|p| cop(p, 0xC0B, 24).expect([Gapless(24), Converged(All), Pipelines(p)])).into()),
        }
    };
}

/// `tests/kv_determinism.rs`: the one-sided read path's asynchronous
/// machinery costs no reproducibility, for both workload mixes, across
/// pipeline counts, on both stacks.
macro_rules! kv_replay_rows {
    ($then:ident) => {
        $then! {
            ycsb_a_replays_byte_identically_over_rubin => kv_replay(Stack::Rubin, YcsbSpec::a(12), 1, 0x2A),
            ycsb_b_replays_byte_identically_over_rubin => kv_replay(Stack::Rubin, YcsbSpec::b(12), 1, 0x2B),
            ycsb_a_replays_byte_identically_over_nio => kv_replay(Stack::Nio, YcsbSpec::a(12), 1, 0x3A),
            ycsb_b_replays_byte_identically_over_nio => kv_replay(Stack::Nio, YcsbSpec::b(12), 1, 0x3B),
            cop_p4_ycsb_a_replays_byte_identically_over_rubin => kv_replay(Stack::Rubin, YcsbSpec::a(12), 4, 0x4A),
            cop_p4_ycsb_b_replays_byte_identically_over_nio => kv_replay(Stack::Nio, YcsbSpec::b(12), 4, 0x4B),
            // The golden lines are not vacuously constant.
            different_seeds_diverge => Across(Compare::Differ, [5, 6].map(|seed| kv_replay(Stack::Rubin, YcsbSpec::b(12), 1, seed)).into()),
        }
    };
}

/// `tests/geo_scale.rs`.
macro_rules! geo_rows {
    ($then:ident) => {
        $then! {
            wan3_group_commits_across_regions => wan3_group(),
            // The node directory multiplexes several transport endpoints per
            // host via distinct ports.
            clients_share_hosts_without_interfering => geo(LatencyMatrix::lan, [4, 48, 3], 13).steps(drive(1, 20_000_000)),
            wan_partition_composes_with_geo_links => wan_partition(),
            // Reorder jitter makes the timeline seed-dependent (a fault-free
            // run consumes no randomness at all).
            geo_runs_replay_byte_identically => Across(Compare::Differ, vec![jittered_wan(23), jittered_wan(24)]),
            wan3_31_replica_group_commits => wan3_31_replicas(),
            thousand_clients_share_eight_hosts => thousand_clients(),
            one_way_latency_floor_is_visible_per_region_pair => one_way_floor(),
        }
    };
}

/// `tests/batching.rs`: the hold decision reads nothing but replica
/// state, so same-seed runs stay byte-identical on both real stacks, with
/// and without COP.
macro_rules! batching_rows {
    ($then:ident) => {
        $then! {
            same_seed_snapshots_are_byte_identical_under_batching => [Stack::Rubin, Stack::Nio].into_iter().flat_map(|stack| [1, 3].map(|p| eight_outstanding(stack, p))).collect::<Vec<_>>(),
            // A PRE-PREPARE must fit a RUBIN receive buffer (128 KiB), so
            // the primary cuts a batch once it carries 64 KiB of requests.
            big_requests_are_batched_by_bytes_on_all_three_stacks => STACKS.map(big_puts).to_vec(),
        }
    };
}

/// Every row of the table in order: its name and its scenarios.
pub fn table() -> Vec<(&'static str, Vec<Scenario>)> {
    [
        chaos_rows!(named_rows),
        durable_rows!(named_rows),
        security_rows!(named_rows),
        view_change_rows!(named_rows),
        fast_path_rows!(named_rows),
        fuzz_rows!(named_rows),
        proactive_rows!(named_rows),
        kv_rows!(named_rows),
        stacks_rows!(named_rows),
        invariants_rows!(named_rows),
        cop_rows!(named_rows),
        kv_replay_rows!(named_rows),
        geo_rows!(named_rows),
        batching_rows!(named_rows),
    ]
    .concat()
}

const fn us(n: u64) -> Nanos {
    Nanos::from_micros(n)
}

const fn ms(n: u64) -> Nanos {
    Nanos::from_millis(n)
}

fn with_interval(checkpoint_interval: u64) -> ReptorConfig {
    ReptorConfig {
        checkpoint_interval,
        ..ReptorConfig::small()
    }
}

fn fast() -> ReptorConfig {
    ReptorConfig {
        fast_path: true,
        ..ReptorConfig::small()
    }
}

/// Agreement under packet loss: the per-stack reliability layer (RC
/// retransmission / TCP go-back-N) absorbs 1–5% drop rates without the
/// protocol noticing.
pub fn loss(stack: Stack) -> Scenario {
    Scenario::new(stack, 1)
        .steps([
            Links(0..5, 0..5, SeededLoss),
            Burst(Incs(10)),
            Complete(10),
            Idle,
        ])
        .expect([
            Each(All, Executed, eq(10)),
            // Retransmissions under loss are slow, not faulty: the request
            // timer's floor keeps a correct primary in office.
            Each(All, ViewChangesSent, eq(0)),
            // Exactly-once execution.
            LastResult(10),
        ])
}

/// Duplicated and reordered frames must never double-execute a request:
/// the QP/TCP sequence layer suppresses wire-level duplicates and the
/// replica's client-request dedup absorbs client resends.
pub fn dup_reorder(stack: Stack) -> Scenario {
    let s = Scenario::new(stack, 1)
        .steps([
            Links(0..5, 0..5, Duplicate(0.3)),
            Links(0..5, 0..5, Jitter(us(2))),
        ])
        .steps(burst(10))
        .expect([Each(All, Executed, eq(10)), LastResult(10)]);
    match stack {
        // 30% duplication must hit the RDMA receive path's QP dedup window.
        Stack::Rubin => s.expect([Total("duplicates_suppressed", ge(1))]),
        _ => s,
    }
}

/// Client-request idempotence under resend-like pressure: with every
/// client→replica frame duplicated, each replica receives every request
/// at least twice yet executes it once (replica-level dedup, above the
/// wire-level sequence dedup).
pub fn duplicated_client_requests() -> Scenario {
    Scenario::new(Stack::Rubin, 1)
        .steps([
            Links(4..5, 0..4, Duplicate(1.0)),
            Links(4..5, 0..4, Jitter(us(3))),
        ])
        .steps(burst(5))
        .expect([Each(All, Executed, eq(5)), Completed(5), LastResult(5)])
}

/// Corrupted frames must die at the MAC check, or, for the batch of a
/// PRE-PREPARE, whose MACs cover only its header, at the digest check; and
/// agreement must ride out the induced message loss (Rubin stack:
/// corruption flips payload bytes inside the RDMA data packets). Only
/// replica↔replica links are corrupted, so requests and replies flow. A
/// burst of 96 makes at least ten agreement instances: only a corrupted
/// frame that carries a protocol message (not an ACK) can reach either
/// check, and at every seed 1–5 at least two do.
pub fn corrupted_frames() -> Scenario {
    Scenario::new(Stack::Rubin, 1)
        .steps([Links(0..4, 0..4, Corrupt(0.05))])
        .steps(burst(96))
        .expect([
            Sum(Tampered, ge(1)),
            Each(All, Executed, eq(96)),
            LastResult(96),
        ])
}

/// The flagship recovery scenario: the primary's host loses power
/// mid-workload. Live replicas' queue pairs / streams to it break, they
/// view-change to a new primary and keep executing; the transport layer
/// re-dials the dead host with exponential backoff until it restarts,
/// after which the mesh is whole again — and nothing executed twice.
pub fn primary_crash(stack: Stack) -> Scenario {
    let backups = Only(&[1, 2, 3]);
    Scenario::new(stack, 1)
        .steps(burst(3))
        .steps([
            // A healthy prefix under the original primary (replica 0).
            Check(Each(Only(&[0]), Executed, eq(3))),
            Crash(0, us(100)),
            RunFor(us(101)),
            // Requests into the faulty window: backups depose the dead primary
            // and commit under the new one while the transports keep
            // re-dialing the dead host.
            Burst(Incs(5)),
            Complete(8),
            Check(Each(backups, View, ge(1))),
            Check(Each(backups, Executed, eq(8))),
            // The view change can finish before the first re-dial: give the
            // backoff time to fire while the host is still down.
            RunFor(ms(10)),
            Check(Total("reconnect_attempts", ge(1))),
            // The host restarts and the re-dials land. The peers' holding pens
            // carried recent traffic for the dead host across the outage (at
            // most PEN_CAP frames), so the revived replica replays the backlog
            // and catches up per instance. Backoff caps at 64 ms; the slowest
            // dialer gets two full windows.
            Resume(0, In(ms(1))),
            RunFor(ms(151)),
        ])
        .expect([
            Total("reconnects_completed", ge(1)),
            // Exactly once, end to end: the live replicas executed the workload
            // once each; the revived one holds its pre-crash prefix plus however
            // much of the backlog it could commit.
            Each(backups, Executed, eq(8)),
            Each(Only(&[0]), Executed, 3..=8),
            LastResult(8),
            // The snapshot records the recovery machinery that ran.
            Has("reconnect_attempts"),
            Has("reconnects_completed"),
            Has("retransmits"),
        ])
}

/// Cuts replica 2 off from every other host, client included, after a
/// healthy prefix of three requests, while the live trio executes three
/// more checkpoint intervals. `meanwhile` happens between the prefix and
/// the cut.
fn laggard_cut_off(meanwhile: Step) -> [Step; 9] {
    [
        Sequential(Incs(3)),
        Idle,
        Check(Each(Only(&[2]), LastExecuted, eq(3))),
        meanwhile,
        Isolate(2, In(us(10))),
        RunFor(us(11)),
        // The partition holds long enough for the reliability layer to give
        // up on the unreachable peer: the queue pairs / streams break after
        // retry exhaustion and the holding pens shed the backlog, so on
        // heal, replay cannot resurrect the missed instances.
        Sequential(Incs(12)),
        RunFor(ms(100)),
        Check(Each(Only(&[2]), LastExecuted, eq(3))),
    ]
}

/// Heals replica 2's cut, gives the re-dial backoff (64 ms cap) time to
/// rebuild the mesh, and sends three requests that reach the laggard too:
/// its stalled-request timers trigger catch-up, whose unservable answers
/// carry checkpoint attestations that steer it into state transfer.
fn laggard_heals(run: Nanos) -> [Step; 4] {
    [
        Reconnect(2, In(us(10))),
        RunFor(us(10) + ms(150)),
        Sequential(Incs(3)),
        RunFor(run),
    ]
}

/// The tentpole recovery scenario: one backup is partitioned away while
/// the rest of the group executes more than two checkpoint intervals.
/// The live replicas' stable checkpoint moves past the laggard's whole
/// watermark window, their per-instance logs are truncated below it, and
/// the bounded holding pens shed the backlog — so when the partition
/// heals, replayed traffic cannot rebuild the missed instances and the
/// laggard's only way back is a full checkpoint state transfer (one-sided
/// RDMA READs on the RUBIN stack, chunk messages on the socket stack),
/// after which it rejoins live agreement. The grace timer, the transfer
/// and the per-instance tail all run on the request timers, which follow
/// the latency each replica measures.
///
/// `responder` optionally makes replica 3 a Byzantine *state server*: its
/// agreement role stays honest, so it is counted in the `f + 1`
/// certificate and is the laggard's *first* fetch target, but it serves
/// corrupted or stale bytes. The per-chunk digest checks must detect this
/// and route the transfer around it.
pub fn state_transfer(stack: Stack, responder: ByzantineMode) -> Scenario {
    let laggard = Only(&[2]);
    let s = Scenario::new(stack, 1)
        .cfg(with_interval(4))
        .steps(laggard_cut_off(Byzantine(3, responder)))
        // The stable checkpoint clears the laggard's watermark window.
        .steps([Check(Each(Only(&[0, 1, 3]), LowMark, ge(3 + 2 * 4)))])
        .steps(laggard_heals(ms(400)))
        .expect([
            Each(laggard, TransfersStarted, ge(1)),
            Each(laggard, TransfersCompleted, ge(1)),
            CaughtUp(laggard),
            Converged(All),
        ]);
    let done = Has("\"reptor.r2.state_transfer_completed\":");
    match (responder, stack) {
        // On the RDMA stack the chunks move by one-sided READs.
        (ByzantineMode::Honest, Stack::Rubin) => s.expect([done, Has("state_transfer_reads")]),
        (ByzantineMode::Honest, _) => s.expect([done]),
        // The liar is the first fetch target; the digest checks must have
        // rejected it and rotated peers.
        _ => s.expect([Each(laggard, TransferRetries, ge(1))]),
    }
}

/// Cold restart: a backup's host loses power, the group executes far past
/// its window, and the host comes back with the replica's volatile state
/// gone. `Replica::restart` rebuilds it from a fresh service instance;
/// rejoin probes steer it through catch-up attestations into a state
/// transfer and back into live agreement.
pub fn cold_restart(stack: Stack) -> Scenario {
    let victim = Only(&[1]);
    let (crash, rejoin) = outage(1, Incs(12));
    Scenario::new(stack, 1)
        .cfg(with_interval(4))
        .steps([
            Sequential(Incs(3)),
            Idle,
            Check(Each(victim, LastExecuted, eq(3))),
        ])
        .steps(crash)
        .steps([Check(Each(Only(&[0, 2, 3]), LowMark, ge(2 * 4)))])
        .steps(rejoin)
        .steps([
            Check(Each(victim, TransfersCompleted, ge(1))),
            // The rejoined replica executes new requests with everyone.
            Sequential(Incs(3)),
            RunFor(ms(100)),
        ])
        .expect([CaughtUp(victim), Converged(All)])
}

/// Proactive recovery colliding with a partition: a full epoch rotation
/// starts while one replica is cut off from the rest of the group. The
/// stagger bound means each live refresh takes exactly one more replica
/// out, so the scheduler must march through the live members one at a
/// time (each rejoins by state transfer from the two remaining peers),
/// burn the refresh deadline on the unreachable victim instead of
/// wedging, and complete the rotation. After the heal the abandoned
/// replica — restarted cold into the partition — recovers through its
/// own rejoin probes (exponential backoff) and converges. The healthy
/// prefix runs past the first checkpoint, so every replica holds a
/// certified store a refreshed member can rebuild from.
pub fn refresh_into_partition(stack: Stack) -> Scenario {
    let (live, victim) = (Only(&[0, 1, 3]), Only(&[2]));
    let recovery = RecoveryConfig {
        period: ms(10),
        poll: ms(2),
        refresh_deadline: ms(250),
    };
    Scenario::new(stack, 1)
        .cfg(with_interval(4))
        .steps([
            Sequential(Incs(6)),
            Idle,
            Isolate(2, In(us(10))),
            RunFor(us(11)),
        ])
        .steps([
            Rotation(recovery),
            RunFor(ms(1500)),
            // Three live refreshes and one timeout: the victim is abandoned
            // at the deadline instead of wedging the rotation.
            Check(Rotations(1, 3, 1)),
            Check(Each(live, RecoveryEpoch, eq(1))),
            Check(Each(live, TransfersCompleted, ge(1))),
        ])
        .steps(laggard_heals(ms(2000)))
        .expect([
            Each(victim, TransfersCompleted, ge(1)),
            CaughtUp(victim),
            Converged(All),
            Total("proactive_rotations_completed", eq(1)),
            Total("proactive_refresh_timeouts", eq(1)),
        ])
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
pub fn stale_epoch_offer() -> Scenario {
    let laggard = Only(&[2]);
    Scenario::new(Stack::Rubin, 1)
        .cfg(with_interval(4))
        // Replica 3's agreement role stays honest, so checkpoint
        // certificates still form: it lies only as a state server, and
        // only once the epoch roll arms its stale offer.
        .steps(laggard_cut_off(Byzantine(
            3,
            ByzantineMode::StaleEpochOffer,
        )))
        // The scheduler's fence step, applied directly for exact timing:
        // every replica re-registers its stores under epoch 1 and the old
        // regions are invalidated. Replica 3 advertises its revoked offer
        // from now on, so the laggard's first fetch target is the liar.
        .steps([EpochRoll(1), RunFor(ms(50))])
        .steps(laggard_heals(ms(400)))
        .expect([
            Each(laggard, TransfersStarted, ge(1)),
            // Completed from an honest responder, after the READ against
            // the revoked rkey failed and rotated peers.
            Each(laggard, TransfersCompleted, ge(1)),
            Each(laggard, TransferRetries, ge(1)),
            Total("stale_rkey_denied", ge(1)),
            // The fence fired below the protocol: no responder ever saw a
            // stale-looking epoch field and no digest check was involved
            // (a revoked rkey returns no bytes to check).
            Each(All, StaleEpochRejected, eq(0)),
            CaughtUp(laggard),
            Converged(All),
            Has("stale_rkey_denied"),
            Has("mr_rotations"),
        ])
}

/// The fast path with checkpoints every 4, after a healthy prefix of
/// three requests whose slot grants arm the leader's one-sided WRITEs;
/// then replica 0 turns `mode`.
fn fast_leader_turns(mode: ByzantineMode) -> Scenario {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        ..fast()
    };
    Scenario::new(Stack::Rubin, 1)
        .cfg(cfg)
        .steps(burst(3))
        .steps([
            Check(Each(Only(&[0]), FastPathWrites, ge(1))),
            Byzantine(0, mode),
            Burst(Incs(5)),
            Complete(8),
            RunFor(ms(100)),
        ])
}

/// An equivocating leader on the one-sided fast path: it WRITEs one batch
/// into half the followers' slots and a conflicting batch into the other
/// half. The RNIC permission check cannot see this — the leader
/// legitimately holds every grant — so detection must stay exactly where
/// PBFT puts it: the conflicting digests never gather a prepare quorum,
/// the backup timers fire, and the group view-changes to an honest
/// leader who re-proposes and commits everything exactly once.
pub fn equivocating_slot_writer() -> Scenario {
    let backups = Only(&[1, 2, 3]);
    fast_leader_turns(ByzantineMode::EquivocatingPrimary).expect([
        Each(backups, View, ge(1)),
        Each(backups, Executed, eq(8)),
        // Every request completes. The equivocator *may* get one of its two
        // versions committed (its tweaked payloads ride the view-change
        // proof merge — a known property of MAC-authenticated PBFT, where
        // replicas cannot verify client intent); what matters is that every
        // replica executes the same version.
        Completed(8),
        Converged(All),
        // The lie travelled one-sided and was caught at the digest/prepare
        // layer, not by the RNIC.
        Total("fast_path_deliveries", ge(1)),
    ])
}

/// A deposed leader firing its retained slot grants *after* the view
/// change: the followers invalidated their slot regions the moment they
/// voted, so every late WRITE is denied in the target RNIC
/// (`fast_path_write_denied`) — the revocation fence, not protocol code,
/// stops the stale proposals. Meanwhile the new leader receives fresh
/// grants (sent when the followers installed the view) and the fast path
/// resumes under the new view.
pub fn deposed_slot_writer() -> Scenario {
    let backups = Only(&[1, 2, 3]);
    fast_leader_turns(ByzantineMode::LateSlotWriter)
        .steps([Burst(Incs(4)), Complete(12), RunFor(ms(50))])
        .expect([
            Each(backups, View, ge(1)),
            Each(backups, Executed, eq(12)),
            // No stale proposal executed.
            LastResult(12),
            Total("fast_path_write_denied", ge(1)),
            // Every follower invalidated its region when it voted.
            Total("fast_path_revocations", ge(3)),
            // The new leader proposes one-sided under the new view.
            Each(Only(&[1]), FastPathWrites, ge(1)),
        ])
}

/// Replicas with a WAL, snapshotting every `snapshot_every` stable
/// checkpoints of 4.
fn durable(snapshot_every: u64) -> ReptorConfig {
    ReptorConfig {
        durability: Some(DurabilityConfig {
            wal: true,
            snapshot_every,
            device: DiskSpec::nvme(),
        }),
        ..with_interval(4)
    }
}

/// Replica `i` loses power while the live trio executes `during` for
/// 100 ms — long enough for retry exhaustion to break the channels to the
/// dead host and for the trio's checkpoints to truncate the victim's
/// history — and then restarts cold, with 400 ms to rebuild itself.
fn outage(i: usize, during: Ops) -> ([Step; 4], [Step; 2]) {
    let crash = [
        Crash(i, us(100)),
        RunFor(us(101)),
        Sequential(during),
        RunFor(ms(100)),
    ];
    (crash, [Restart(i, In(ms(1))), RunFor(ms(401))])
}

/// The outage of replica 1, then `checks` and a tail of three requests
/// the whole group executes, converging.
fn outage_of_1(during: Ops, checks: impl IntoIterator<Item = Expect>) -> Vec<Step> {
    let (crash, rejoin) = outage(1, during);
    let mut steps = [crash.to_vec(), rejoin.to_vec()].concat();
    steps.extend(checks.into_iter().map(Check));
    steps
}

/// A fault armed on replica 1's drive.
fn disk(fault: DiskFault, past_end: bool) -> Step {
    let replica = 1;
    Disk {
        replica,
        fault,
        past_end,
    }
}

/// Torn WAL tail: a replica's last log append is torn mid-frame by the
/// crash. Restart must truncate exactly the torn frame, replay the clean
/// prefix locally, and fetch only the missing delta — most checkpoint
/// chunks are satisfied from the locally rebuilt payload, asserted via
/// the `state_transfer_*_local` byte counters. No snapshot compaction:
/// the WAL carries the full history, so the torn tail is the only
/// storage damage.
pub fn torn_wal_tail(stack: Stack) -> Scenario {
    let victim = Only(&[1]);
    let s = Scenario::new(stack, 1)
        .cfg(durable(100))
        .service(Service::Kv);
    let s = s
        .steps([
            // 40 fixed-size keys: seqs 1..=40, stable checkpoint at 40.
            Sequential(Puts('k', 40, 0, 1)),
            Idle,
            Check(Each(victim, LastExecuted, eq(40))),
            // The next append tears a few bytes past the log's end; the
            // drive survives the power loss with torn frame 41 on it.
            disk(DiskFault::TornWrite { at_byte: 10 }, true),
            Sequential(Puts('k', 1, 0xAA, 0)),
        ])
        // The live trio updates 8 existing keys (same value sizes, so the
        // checkpoint payload stays chunk-aligned): seqs 42..=49, stable
        // checkpoint at 48. Recovery truncates frame 41, replays to 40, the
        // re-sealed checkpoint attests the position, and the transfer to 48
        // fetches only chunks the local payload cannot satisfy: local
        // chunks satisfy part of it, and the changed chunks (and the moved
        // client table) still come from peers — the root differs.
        .steps(outage_of_1(
            Puts('k', 8, 0xBB, 1),
            [
                Counter(victim, "reptor.r{}.wal_frames_truncated", ge(1)),
                Counter(victim, "reptor.r{}.wal_frames_replayed", eq(40)),
                // No snapshot yet.
                Counter(victim, "reptor.r{}.durable_restores", eq(0)),
                Each(victim, TransfersCompleted, ge(1)),
                Counter(victim, "reptor.r{}.state_transfer_bytes_local", ge(1)),
                Counter(victim, "reptor.r{}.state_transfer_bytes", ge(1)),
            ],
        ))
        .steps([Sequential(Puts('t', 3, 0xEE, 0)), RunFor(ms(100))])
        .expect([Converged(All), CaughtUp(All)]);
    match stack {
        Stack::Rubin => s.expect([
            Has("\"reptor.r1.state_transfer_bytes_local\":"),
            Has("\"disk.r1.torn_writes\":1"),
        ]),
        _ => s,
    }
}

/// Bit-flipped snapshot: both snapshot slots of the victim's drive are
/// corrupted in flight. The CRCs catch the damage at restart, recovery
/// counts the fallback and rebuilds entirely from peers — corrupt local
/// state is never installed. Two stable checkpoints (seqs 4 and 8) make
/// two corrupted snapshots, one per slot, and compact the WAL empty.
pub fn bitflipped_snapshot() -> Scenario {
    let victim = Only(&[1]);
    let flip = |at_byte| disk(DiskFault::BitFlip { at_byte }, false);
    Scenario::new(Stack::Rubin, 1)
        .cfg(durable(1))
        .steps([flip(20), flip(SLOT_BYTES + 20), Sequential(Incs(8)), Idle])
        .steps([Check(Each(victim, LastExecuted, eq(8)))])
        .steps(outage_of_1(
            Incs(8),
            [
                Counter(victim, "reptor.r{}.snapshot_corrupt_fallback", ge(1)),
                Counter(victim, "reptor.r{}.durable_restores", eq(0)),
                Counter(victim, "disk.r{}.bit_flips", eq(2)),
                Each(victim, TransfersCompleted, ge(1)),
            ],
        ))
        .steps([Sequential(Incs(3)), RunFor(ms(100))])
        .expect([
            Converged(All),
            CaughtUp(All),
            Has("\"reptor.r1.snapshot_corrupt_fallback\":"),
        ])
}

/// Crash during snapshot compaction: the snapshot write itself is torn
/// while the WAL compaction that follows it lands. Recovery then sees no
/// valid snapshot and a WAL whose frames start past the snapshot seq —
/// the contiguity check refuses to replay across the gap, and the
/// replica rebuilds from peers instead of installing a wrong prefix.
/// The first slot-0 write (the seq-4 snapshot) tears almost at once; seqs
/// 1..=6 make a stable checkpoint at 4 (torn snapshot, WAL compacted to
/// frames 5..6), then two more appends.
pub fn crash_during_compaction() -> Scenario {
    let victim = Only(&[1]);
    let torn = disk(DiskFault::TornWrite { at_byte: 20 }, false);
    Scenario::new(Stack::Rubin, 1)
        .cfg(durable(1))
        .steps([
            torn,
            Sequential(Incs(6)),
            Idle,
            Check(Each(victim, LastExecuted, eq(6))),
        ])
        .steps(outage_of_1(
            Incs(10),
            [
                Counter(victim, "reptor.r{}.snapshot_corrupt_fallback", ge(1)),
                Counter(victim, "reptor.r{}.wal_frames_replayed", eq(0)),
                Counter(victim, "disk.r{}.torn_writes", eq(1)),
                Each(victim, TransfersCompleted, ge(1)),
            ],
        ))
        .steps([Sequential(Incs(3)), RunFor(ms(100))])
        .expect([Converged(All), CaughtUp(All)])
}

/// Whole-cluster power loss: every replica restarts cold from its own
/// drive. Each one installs its snapshot, re-seals and attests the
/// recovered checkpoint, and the group resumes — with zero state-transfer
/// traffic, because nobody is missing anything a peer would have. Two
/// stable checkpoints leave a seq-8 snapshot and an empty WAL on every
/// drive before all four replica hosts die at once.
pub fn full_cluster_restart(stack: Stack) -> Scenario {
    let s = Scenario::new(stack, 1)
        .cfg(durable(1))
        .steps([Sequential(Incs(8)), Idle])
        .steps((0..4).map(|i| Crash(i, us(100))))
        .steps([RunFor(us(100) + ms(5))])
        .steps((0..4).map(|i| Restart(i, In(ms(1)))))
        .steps([
            RunFor(ms(401)),
            Check(Each(All, LastExecuted, eq(8))),
            Check(Counter(All, "reptor.r{}.durable_restores", eq(1))),
            Check(Each(All, TransfersStarted, eq(0))),
            Check(Counter(All, "reptor.r{}.state_transfer_bytes", eq(0))),
            Sequential(Incs(3)),
            RunFor(ms(100)),
        ])
        // No increment lost or doubled.
        .expect([Converged(All), CaughtUp(All), LastResult(11)]);
    match stack {
        Stack::Rubin => s.expect([Has("\"reptor.r0.durable_restores\":1")]),
        _ => s,
    }
}

/// A replica that crashes twice must not start its second rejoin at the
/// max backoff tier: the backoff counter resets when a state transfer
/// completes (and on every restart), so both outages converge on the same
/// schedule — each rejoin completes a state transfer promptly. Volatile
/// replicas: every restart takes the full peer-transfer path, which is
/// the backoff machinery under test.
pub fn second_crash() -> Scenario {
    let rejoined = |n| [Each(Only(&[1]), TransfersCompleted, ge(n))];
    Scenario::new(Stack::Rubin, 1)
        .cfg(with_interval(4))
        .steps([Sequential(Incs(3)), Idle])
        .steps(outage_of_1(Incs(12), rejoined(1)))
        .steps([Sequential(Incs(3)), Idle])
        .steps(outage_of_1(Incs(12), rejoined(2)))
        .steps([Sequential(Incs(3)), RunFor(ms(100))])
        .expect([Converged(All), CaughtUp(All)])
}

/// The protocol-level containment claim of the paper's §III-C: a replica
/// whose memory keys were compromised (modelled as corrupted MACs) is
/// simply tolerated as one of the `f` faults. The compromise is detected,
/// not absorbed, and service is unaffected.
pub fn compromised_replica() -> Scenario {
    Scenario::new(Stack::Direct, 55)
        .steps([Byzantine(1, ByzantineMode::CorruptMacs), Burst(Incs(5))])
        .steps([CompleteWithin(5, 3_000_000), Idle])
        .expect([Sum(BadMacs, ge(1)), Each(Only(&[0]), Executed, eq(5))])
}

/// A replica whose MACs never verify: its peers drop its messages and
/// count them, and the other three carry the workload.
pub fn corrupt_macs() -> Scenario {
    Scenario::new(Stack::Direct, 8)
        .steps([Byzantine(2, ByzantineMode::CorruptMacs), Burst(Incs(4))])
        .steps([CompleteWithin(4, 3_000_000), Idle])
        .expect([Sum(BadMacs, ge(1))])
}

/// A primary that never proposes is voted out, and the request commits in
/// a later view.
pub fn silent_primary() -> Scenario {
    Scenario::new(Stack::Direct, 6)
        .steps([Byzantine(0, ByzantineMode::SilentPrimary), Burst(Incs(1))])
        .steps([CompleteWithin(1, 5_000_000), Idle])
        .expect([
            Each(Only(&[1, 2, 3]), View, ge(1)),
            Each(Only(&[1]), ViewChangesSent, ge(1)),
        ])
}

/// A primary that sends half the group one batch and the other half a
/// conflicting one: no digest gathers a prepare quorum, the equivocator is
/// voted out and every request completes.
pub fn equivocating_primary() -> Scenario {
    let s = Scenario::new(Stack::Direct, 7);
    s.steps([
        Byzantine(0, ByzantineMode::EquivocatingPrimary),
        Burst(Incs(3)),
        Attempt(3, 8_000_000),
        Idle,
    ])
    .expect([Completed(3), Each(Only(&[1, 2, 3]), View, ge(1))])
}

/// A faulty primary (`mode`) while unbatched agreement spreads eight
/// requests over `pillars` COP pipelines: once it is voted out, every
/// backup executes all eight, and no lane's progress is lost.
pub fn faulty_primary_over_pipelines(mode: ByzantineMode, pillars: usize, seed: u64) -> Scenario {
    let backups = Only(&[1, 2, 3]);
    let cfg = ReptorConfig {
        pillars,
        batch_size: 1,
        ..ReptorConfig::small()
    };
    Scenario::new(Stack::Direct, seed)
        .cfg(cfg)
        .steps([
            Byzantine(0, mode),
            Burst(Incs(8)),
            Attempt(8, 10_000_000),
            Idle,
        ])
        .expect([
            Completed(8),
            Each(backups, View, ge(1)),
            Each(backups, Executed, eq(8)),
        ])
}

/// Views 0 and 1 both have silent primaries; the group must reach a view
/// whose primary is correct (view >= 2) and then make progress. The
/// registry records the cascade: every correct replica voted for at least
/// the two view changes it sat through, the registry and `ReplicaStats`
/// agree, and the trace carries the view-change events.
pub fn cascading_silent_primaries() -> Scenario {
    let correct = Only(&[2, 3]);
    Scenario::new(Stack::Direct, 71)
        .steps(silent([0, 1], ByzantineMode::SilentPrimary, 15_000_000))
        .expect([
            Each(correct, View, ge(2)),
            Counter(correct, "reptor.r{}.view_changes", ge(2)),
            Mirrors(correct, "reptor.r{}.view_changes", ViewChangesSent),
            Traced("view_change"),
        ])
}

/// `replicas[0]` goes silent and `replicas[1]` turns `second`; then three
/// requests complete within `within` events.
fn silent(replicas: [usize; 2], second: ByzantineMode, within: u64) -> [Step; 5] {
    [
        Byzantine(replicas[0], ByzantineMode::SilentPrimary),
        Byzantine(replicas[1], second),
        Burst(Incs(3)),
        CompleteWithin(3, within),
        Idle,
    ]
}

/// A workload across a forced view change: every request executes exactly
/// once even if its batch was re-proposed, which shows as the final
/// counter value.
pub fn silent_primary_mid_stream() -> Scenario {
    Scenario::new(Stack::Direct, 72)
        .steps([Burst(Incs(4)), CompleteWithin(4, 2_000_000)])
        .steps([Byzantine(0, ByzantineMode::SilentPrimary), Burst(Incs(4))])
        .steps([CompleteWithin(8, 15_000_000), Idle])
        .expect([MaxResult(8), Each(Only(&[1, 2, 3]), Executed, eq(8))])
}

/// Checkpointing continues after a view change, checkpoint garbage
/// collection actually frees log entries, and the registry agrees with
/// the per-replica stats.
pub fn checkpoints_after_view_change() -> Scenario {
    let backups = Only(&[1, 2, 3]);
    let cfg = ReptorConfig {
        batch_size: 1,
        ..with_interval(4)
    };
    Scenario::new(Stack::Direct, 76)
        .cfg(cfg)
        .steps([Byzantine(0, ByzantineMode::SilentPrimary), Burst(Incs(10))])
        .steps([CompleteWithin(10, 20_000_000), Idle])
        .expect([
            Each(backups, LowMark, ge(4)),
            Counter(backups, "reptor.r{}.checkpoints_stable", ge(1)),
            Mirrors(backups, "reptor.r{}.checkpoints_stable", StableCheckpoints),
            Counter(backups, "reptor.r{}.checkpoint_gc_freed", ge(4)),
            Traced("checkpoint_stable"),
        ])
}

pub fn seven_replicas() -> Scenario {
    let correct = Only(&[2, 3, 4, 5, 6]);
    Scenario::new(Stack::Direct, 77)
        .cfg(ReptorConfig::for_f(2))
        .steps(silent([0, 1], ByzantineMode::Crash, 25_000_000))
        .expect([Each(correct, View, ge(2)), Each(correct, Executed, eq(3))])
}

/// `n` increments from every client at once, run to completion and idle.
fn burst(n: u64) -> [Step; 3] {
    [Burst(Incs(n)), Complete(n), Idle]
}

/// The common case: leader deposits proposals one-sided, followers ring
/// the doorbell and run prepare/commit unchanged.
pub fn fast_path_commit() -> Scenario {
    Scenario::new(Stack::Rubin, 1)
        .cfg(fast())
        .steps(burst(10))
        .expect([
            Each(All, Executed, eq(10)),
            LastResult(10),
            // The leader proposed by WRITE and the followers heard doorbells.
            // (The very first batch may predate the grants and ride the message
            // path — that is the fallback working, not the fast path failing.)
            Each(Only(&[0]), FastPathWrites, ge(1)),
            Sum(FastPathDeliveries, ge(1)),
            Total("fast_path_grants_sent", ge(3)),
            // No revocation happened, so nothing may be denied.
            Total("fast_path_write_denied", eq(0)),
            // What the disabled row's probe looks for is here when enabled.
            Has("fast_path_writes"),
        ])
}

/// Once the leader's WRITE lands in a follower slot, commit takes exactly
/// two further one-way network delays: one for the prepare round, one for
/// the commit round. Asserted on a mesh whose 300 µs propagation dwarfs
/// every CPU, MAC and serialization cost, so the phase latencies *are*
/// the hop counts (with a generous quarter delay of slack). The first
/// request arms the grants (and may ride the message path); everything
/// after it is the common case under test.
pub fn fast_path_two_delays() -> Scenario {
    let d = us(300).as_nanos();
    let (followers, one_delay) = (Only(&[1, 2, 3]), d..=d + d / 4);
    Scenario::new(Stack::Rubin, 1)
        .cfg(fast())
        .fabric(Fabric::Propagation(us(300)))
        .steps([Sequential(Incs(6)), Idle])
        .expect([
            Sum(FastPathDeliveries, ge(1)),
            P50(
                followers,
                "reptor.r{}.phase.preprepare_to_prepared",
                one_delay.clone(),
            ),
            P50(
                followers,
                "reptor.r{}.phase.prepared_to_committed",
                one_delay,
            ),
        ])
}

/// `fast_path: false` must leave zero trace: no slot region registered,
/// no grant sent, no fast-path counter ever created — the snapshot is
/// bit-for-bit what the pre-fast-path replica produced.
pub fn disabled_fast_path() -> Scenario {
    Scenario::new(Stack::Rubin, 1)
        .steps(burst(10))
        .expect([Lacks("fast_path"), Lacks("slot")])
}

/// On a transport without a one-sided write primitive (the socket stack)
/// the fast path must degrade into the ordinary message path, every
/// proposal falling back.
pub fn message_fallback(pillars: usize) -> Scenario {
    Scenario::new(Stack::Nio, 1)
        .cfg(ReptorConfig { pillars, ..fast() })
        .steps(burst(10))
        .expect([
            Each(All, Executed, eq(10)),
            Each(Only(&[0]), FastPathWrites, eq(0)),
            Each(Only(&[0]), FastPathFallbacks, ge(1)),
            LastResult(10),
        ])
}

/// The fast path composes with COP pipelining: four parallel agreement
/// pipelines, all fed through slot WRITEs, commit the workload in total
/// order.
pub fn fast_path_four_pipelines() -> Scenario {
    Scenario::new(Stack::Rubin, 1)
        .cfg(ReptorConfig {
            pillars: 4,
            ..fast()
        })
        .steps(burst(20))
        .expect([Each(All, Executed, eq(20)), Sum(FastPathDeliveries, ge(1))])
}

/// A leased KV group with `clients` KV clients.
fn leased_kv(stack: Stack, seed: u64, clients: usize, capacity: usize) -> Scenario {
    let s = Scenario::new(stack, seed).cfg(kv_config()).clients(clients);
    s.service(Service::LeasedKv(capacity))
}

/// A YCSB phase at run seed `seed ^ salt`.
fn ycsb(spec: YcsbSpec, seed: u64, salt: u64, ops: u64, within: u64) -> Step {
    Ycsb {
        spec,
        seed,
        salt,
        ops,
        within,
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
pub fn stale_lease_offer(seed: u64) -> Scenario {
    leased_kv(Stack::Rubin, 0x51E + seed, 3, 64)
        .steps([Byzantine(1, ByzantineMode::StaleLeaseOffer)])
        .steps([ycsb(YcsbSpec::b(16), seed, 0, 25, 60_000_000)])
        .expect([
            Total("stale_rkey_denied", ge(1)),
            Total("kv_read_fallback", ge(1)),
            Total("kv_read_onesided", ge(1)),
        ])
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
pub fn forged_lease_cells(seed: u64) -> Scenario {
    leased_kv(Stack::Rubin, 0xF0C + seed, 3, 64)
        .steps([Byzantine(1, ByzantineMode::ForgedLeaseCells)])
        .steps([ycsb(YcsbSpec::a(16), seed, 0, 25, 60_000_000)])
        .expect([
            Total("lease_cells_forged", ge(1)),
            Total("kv_read_divergent", ge(1)),
            Total("kv_read_onesided", ge(1)),
        ])
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
pub fn apply_lag(seed: u64) -> Scenario {
    let lag = Delay(us(400));
    leased_kv(Stack::Rubin, 0xAB1 + seed, 3, 64)
        .steps([Links(0..2, 2..3, lag), Links(3..4, 2..3, lag)])
        .steps([ycsb(YcsbSpec::a(16), seed, 0, 25, 120_000_000)])
        .expect([
            Total("kv_read_divergent", ge(1)),
            Total("kv_read_onesided", ge(1)),
        ])
}

/// A rotation every 30 ms that gives each refresh 400 ms.
pub fn brisk_rotation() -> RecoveryConfig {
    RecoveryConfig {
        period: ms(30),
        poll: ms(2),
        refresh_deadline: ms(400),
    }
}

/// Client throughput never drops to zero during a full epoch rotation:
/// every closed-loop request completes, and no gap between consecutive
/// completions reaches a bound comfortably under the refresh deadline —
/// even while the primary itself is mid-refresh (the backups view-change
/// around it). The scheduler's stagger bound (at most one replica
/// mid-refresh) is what keeps the quorum `2f + 1 = 3` of `n = 4` intact.
/// The warm-up runs past the first checkpoint, so refreshed replicas have
/// a certified store to rebuild from; a rotation spanning four refreshes
/// overlaps several requests.
pub fn rotation_under_load(pillars: usize) -> Scenario {
    Scenario::new(Stack::Direct, 7)
        .cfg(ReptorConfig {
            pillars,
            ..with_interval(4)
        })
        .steps([Burst(Incs(6)), CompleteWithin(6, 2_000_000), Idle])
        .steps([Rotation(brisk_rotation()), ThroughRotation, Idle])
        .expect([
            Steady(4, ms(500)),
            // Every replica refreshed and rejoined by state transfer, and
            // they converge.
            Rotations(1, 4, 0),
            Each(All, RecoveryEpoch, eq(1)),
            Each(All, TransfersCompleted, ge(1)),
            Converged(All),
        ])
}

/// Benign case on the RDMA stack: leases arm, one-sided reads engage and
/// dominate a read-heavy mix, and the recorded history linearizes.
pub fn rubin_ycsb_b() -> Scenario {
    leased_kv(Stack::Rubin, 0xB1, 4, 128)
        .steps([ycsb(YcsbSpec::b(24), 1, 0, 40, 40_000_000)])
        .expect([Total("kv_read_onesided", ge(1))])
}

/// Write-heavy workload A: frequent region updates maximise the torn
/// window and lease-roll churn the reads race against.
pub fn rubin_ycsb_a() -> Scenario {
    leased_kv(Stack::Rubin, 0xA1, 3, 64).steps([ycsb(YcsbSpec::a(12), 1, 0, 30, 40_000_000)])
}

/// Lease revocation racing live reads: a backup restarts cold mid-run,
/// which revokes its read-lease MR before the WAL replays, so the stale
/// rkey clients cache is dead at the RNIC from that instant on. Clients
/// still holding it get denied *by the RNIC* and must rotate and fall
/// back, and the history spanning the whole outage must still linearize.
pub fn lease_revocation_mid_run() -> Scenario {
    leased_kv(Stack::Rubin, 0xC1, 4, 128)
        .steps([
            ycsb(YcsbSpec::b(16), 1, 0, 15, 40_000_000),
            Check(Total("kv_read_onesided", ge(1))),
            Check(Total("lease_revocations", eq(0))),
            Restart(1, Now),
            Check(Total("lease_revocations", ge(1))),
            ycsb(YcsbSpec::b(16), 1, 0x5A5A, 15, 80_000_000),
        ])
        .expect([
            Total("stale_rkey_denied", ge(1)),
            Total("kv_read_fallback", ge(1)),
        ])
}

/// A view change mid-run: the primary goes silent, the group elects a new
/// view, and `enter_view` rolls every live replica's lease to a fresh
/// rkey. Reads spanning the change must linearize. The second phase is
/// write-heavy: one-sided reads would keep completing against the dead
/// primary's still-mapped region, but any write stalls until the election
/// (which client retransmissions drive), so the phase cannot finish in
/// view 0.
pub fn view_change_rolls_leases() -> Scenario {
    leased_kv(Stack::Rubin, 0xD1, 3, 64)
        .steps([ycsb(YcsbSpec::b(12), 1, 0, 10, 40_000_000)])
        .steps([Byzantine(0, ByzantineMode::Crash)])
        .steps([ycsb(YcsbSpec::a(12), 1, 0x77, 10, 120_000_000)])
        .expect([
            Each(Only(&[1]), View, ge(1)),
            Total("lease_revocations", ge(1)),
        ])
}

/// The socket stack has no one-sided primitive: every read must fall back
/// to agreement, no lease counter may fire on the read path, and the
/// history (trivially, but measurably) linearizes.
pub fn nio_kv() -> Scenario {
    leased_kv(Stack::Nio, 0xE1, 3, 64)
        .steps([ycsb(YcsbSpec::b(12), 1, 0, 20, 40_000_000)])
        .expect([
            Total("kv_read_onesided", eq(0)),
            Total("kv_read_fallback", ge(1)),
        ])
}

/// The workload generator at geo scale: a WAN-spread group with many
/// clients multiplexed over few hosts, driven through the agreement path.
/// (One-sided reads need the RDMA transport; this scenario sizes the
/// *driver*, and the safety cross-check gates it.)
pub fn geo_kv(clients: usize, client_hosts: usize, per_client: u64, seed: u64) -> Scenario {
    leased_kv(Stack::Direct, seed, clients, 256)
        .fabric(Fabric::Geo(LatencyMatrix::three_region_wan, client_hosts))
        .steps([
            Burst(Mixed(per_client)),
            CompleteWithin(per_client, 300_000_000),
        ])
}

pub const STACKS: [Stack; 3] = [Stack::Direct, Stack::Nio, Stack::Rubin];

/// The fault-free burst: ten increments, answered 1..=10 in order.
pub fn counter(stack: Stack, seed: u64) -> Scenario {
    Scenario::new(stack, seed).steps(burst(10)).expect([
        Each(All, Executed, eq(10)),
        Converged(All),
        Answered(10),
    ])
}

/// A silent primary is voted out and the request commits in a later view.
pub fn silent_leader(stack: Stack) -> Scenario {
    let backups = Only(&[1, 2, 3]);
    Scenario::new(stack, 104)
        .steps([Byzantine(0, ByzantineMode::SilentPrimary)])
        .steps(burst(1))
        .expect([
            Each(backups, Executed, eq(1)),
            Converged(backups),
            Each(backups, View, ge(1)),
        ])
}

/// A crashed backup costs nothing but its vote.
pub fn crashed_backup(stack: Stack) -> Scenario {
    let live = Only(&[0, 1, 3]);
    Scenario::new(stack, 105)
        .steps([Byzantine(2, ByzantineMode::Crash)])
        .steps(burst(5))
        .expect([
            Each(live, Executed, eq(5)),
            Converged(live),
            Each(Only(&[2]), LastExecuted, eq(0)),
        ])
}

/// `n` increments at once on the direct transport, complete within
/// `events` events, then idle.
pub fn incs(seed: u64, n: u64, events: u64) -> Scenario {
    Scenario::new(Stack::Direct, seed).steps([Burst(Incs(n)), CompleteWithin(n, events), Idle])
}

/// Five increments on the direct transport with reorder jitter between
/// replicas 0 and 1: a fault-free run draws no randomness, this one does.
pub fn jittered_incs(seed: u64) -> Scenario {
    Scenario::new(Stack::Direct, seed).steps([
        Links(0..2, 0..2, Jitter(us(200))),
        Burst(Incs(5)),
        CompleteWithin(5, 2_000_000),
        Idle,
    ])
}

/// Every snapshot carries the event-core and buffer-pool gauges, and they
/// obey the core's own arithmetic: the runner checks the conservation
/// identities on every row (so no tombstone outlives its cancel, and
/// tombstones never outnumber the scheduled events), and a settled
/// simulator has nothing pending. The pool gauges are zero here, because
/// the direct transport bypasses the RNIC buffer pool.
pub fn simulator_health() -> Scenario {
    incs(99, 5, 2_000_000).expect([
        Gauge("sim.events_scheduled", ge(1)),
        Gauge("sim.events_executed", ge(1)),
        Gauge("sim.events_pending", eq(0)),
        Gauge("sim.events_high_water", ge(1)),
    ])
}

/// `cfg` with `pipelines` COP pipelines and unbatched agreement, so
/// request `k` lands at sequence number `k` whatever the pipeline count
/// and runs compare across it.
fn unbatched(pipelines: usize, cfg: ReptorConfig) -> ReptorConfig {
    ReptorConfig {
        pillars: pipelines,
        batch_size: 1,
        window: 64,
        ..cfg
    }
}

/// `requests` increments at once over `pipelines` unbatched pipelines.
pub fn cop(pipelines: usize, seed: u64, requests: u64) -> Scenario {
    incs(seed, requests, 5_000_000).cfg(unbatched(pipelines, ReptorConfig::small()))
}

/// Three KV clients with read leases run twelve operations of `spec` each
/// over `pipelines` unbatched pipelines.
pub fn kv_replay(stack: Stack, spec: YcsbSpec, pipelines: usize, seed: u64) -> Scenario {
    let s = leased_kv(stack, seed, 3, 64).cfg(unbatched(pipelines, kv_config()));
    s.steps([ycsb(spec, seed, 0, 12, 40_000_000)])
}

/// `n` counter replicas round-robin over the regions of `matrix` and
/// `clients` clients sharing `hosts` hosts.
pub fn geo(matrix: fn() -> LatencyMatrix, [n, clients, hosts]: [usize; 3], seed: u64) -> Scenario {
    let cfg = ReptorConfig {
        n,
        ..ReptorConfig::small()
    };
    let s = Scenario::new(Stack::Direct, seed).cfg(cfg).clients(clients);
    s.fabric(Fabric::Geo(matrix, hosts))
}

/// The same over the three-region WAN.
pub fn wan(shape: [usize; 3], seed: u64) -> Scenario {
    geo(LatencyMatrix::three_region_wan, shape, seed)
}

/// `k` increments from every client, each of which sees them all commit
/// within `events` events.
pub fn drive(k: u64, events: u64) -> [Step; 3] {
    [
        Burst(Incs(k)),
        CompleteWithin(k, events),
        Check(Completed(k)),
    ]
}

/// A four-replica group over the three-region WAN: commit latency is
/// bounded below by one cross-region one-way delay.
pub fn wan3_group() -> Scenario {
    let topo = LatencyMatrix::three_region_wan();
    let hop = topo.one_way(0, 1).min(topo.one_way(1, 0));
    wan([4, 2, 1], 11)
        .steps(drive(3, 20_000_000))
        .expect([Took(hop)])
}

/// Cutting one backup's region links must not block agreement (f = 1),
/// and healing lets follow-up traffic complete on the same timeline.
pub fn wan_partition() -> Scenario {
    let cut = |heal| {
        (0..3).map(move |h| {
            let (a, b) = (HostId(h), HostId(3));
            let action = match heal {
                false => ChaosAction::Partition { a, b },
                true => ChaosAction::Heal { a, b },
            };
            Chaos(Now, action)
        })
    };
    wan([4, 1, 1], 17)
        .steps(cut(false))
        .steps(drive(2, 40_000_000))
        .steps(cut(true))
        .steps([Burst(Incs(1)), CompleteWithin(3, 40_000_000)])
}

/// Two clients over the WAN with reorder jitter between replicas 0 and 1,
/// run idle.
pub fn jittered_wan(seed: u64) -> Scenario {
    let jitter = Links(0..2, 0..2, Jitter(us(200)));
    let s = wan([4, 2, 1], seed)
        .steps([jitter])
        .steps(drive(2, 20_000_000));
    s.steps([Idle])
}

/// The full 31-replica group (f = 10) over three regions: simulated time
/// advances across the WAN rounds, and the event heap absorbs the n²
/// message load without its tombstones outgrowing the live events.
pub fn wan3_31_replicas() -> Scenario {
    let s = wan([31, 2, 1], 31).steps(drive(4, 400_000_000));
    s.expect([Took(Nanos::from_nanos(1)), Compacted])
}

/// A thousand clients packed onto eight shared hosts drive a
/// seven-replica WAN group; the pending-event high water, a deterministic
/// function of the seed, shows them piling up.
pub fn thousand_clients() -> Scenario {
    let s = wan([7, 1_000, 8], 1_000).steps(drive(1, 2_000_000_000));
    s.expect([Gauge("sim.events_high_water", ge(101))])
}

/// The asymmetric matrix is visible end to end. Replicas land round-robin,
/// so replica 0 is in region 0 and replica 2 in region 2, and each
/// direction between them carries its own, different one-way delay.
pub fn one_way_floor() -> Scenario {
    let topo = LatencyMatrix::three_region_wan();
    let (there, back) = (topo.one_way(0, 2), topo.one_way(2, 0));
    assert_ne!(there, back, "the matrix is asymmetric");
    let s = wan([7, 1, 1], 29).steps(drive(1, 20_000_000));
    s.expect([OneWay(0, 2, there), OneWay(2, 0, back)])
}

/// Eight increments outstanding against batch size 10 until 64 complete:
/// batches fill, so the primary executes fewer batches than requests.
pub fn eight_outstanding(stack: Stack, pillars: usize) -> Scenario {
    let cfg = ReptorConfig {
        pillars,
        ..ReptorConfig::small()
    };
    let s = Scenario::new(stack, 23)
        .cfg(cfg)
        .steps([Window(8, 64), Idle]);
    s.expect([Each(Only(&[0]), ExecutedBatches, 0..=63)])
}

/// Eight 64 KiB puts outstanding at once against batch size 10: every
/// batch fits the RUBIN buffers, so all eight complete in view 0 and no
/// replica drops a message as oversize.
pub fn big_puts(stack: Stack) -> Scenario {
    let s =
        Scenario::new(stack, 25)
            .service(Service::Kv)
            .steps([Burst(BigPuts(8)), Complete(8), Idle]);
    s.expect([
        Each(All, Executed, eq(8)),
        Each(All, ViewChangesSent, eq(0)),
        Converged(All),
        Total("oversize_dropped", eq(0)),
    ])
}
