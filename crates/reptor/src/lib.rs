//! # reptor — PBFT state-machine replication with COP parallelization
//!
//! A Rust reproduction of the Reptor BFT framework the paper integrates
//! RUBIN into (Behl et al. \[10\]): Castro–Liskov PBFT \[14\] with MAC-vector
//! authentication, request batching, checkpointing, view changes, and
//! Consensus-Oriented Parallelization (agreement instances spread across
//! pillar cores while execution stays sequential).
//!
//! The communication stack is pluggable through the [`Transport`] trait —
//! exactly the property the paper exploits: the same replica logic runs
//! over the Java-NIO-style TCP stack and over RUBIN's RDMA selector
//! without redesign (§III). Three transports are provided:
//!
//! * [`SimTransport`] — direct fabric delivery (protocol-logic tests).
//! * [`NioTransport`] — length-prefixed framing over the simulated TCP
//!   stack, driven by the NIO-style selector (the paper's baseline).
//! * [`RubinTransport`] — message-oriented RUBIN channels driven by the
//!   RDMA selector (the paper's contribution).
//!
//! [`Cluster::build`] wires a replica group and its clients over any of
//! them, chosen by [`Stack`].
//!
//! # Example: a replicated counter reaching consensus
//!
//! ```
//! use reptor::{Cluster, CounterService, ReptorConfig};
//!
//! let mut cluster = Cluster::sim_transport(
//!     ReptorConfig::small(), 1, 7, || Box::new(CounterService::default()),
//! );
//! let client = cluster.clients[0].clone();
//! client.submit(&mut cluster.sim, b"inc".to_vec());
//! client.submit(&mut cluster.sim, b"inc".to_vec());
//! assert!(cluster.run_until_completed(2, 1_000_000));
//! cluster.assert_safety();
//! let final_count = cluster.clients[0].completions().last().unwrap().result.clone();
//! assert_eq!(final_count, 2u64.to_le_bytes());
//! ```

#![warn(missing_docs)]

mod client;
mod cluster;
pub mod codec;
mod config;
mod durability;
mod envelope;
mod executor;
mod mesh;
mod messages;
mod nio_transport;
mod pipeline;
mod recovery;
mod replica;
mod rubin_transport;
mod state;
mod state_transfer;
mod transport;

pub use client::{AuxHandler, Client, ClientStats, Completion};
pub use cluster::{Cluster, Stack, DOMAIN_SECRET};
pub use codec::{Codec, CodecError};
pub use config::{DurabilityConfig, ReptorConfig};
pub use durability::{
    crc32, encode_frame, scan_frames, DurableStore, Recovered, WalFrame, WalScan, MAX_FRAME,
    SLOT_BYTES, WAL_BASE,
};
pub use envelope::{Envelope, SignedMessage};
pub use mesh::PEN_CAP;
pub use messages::{
    batch_digest, ClientId, Message, PreparedProof, ReplicaId, Request, SeqNum, View,
    MANIFEST_CHUNK,
};
pub use nio_transport::NioTransport;
pub use pipeline::PipelineStats;
pub use recovery::{RecoveryConfig, RecoveryScheduler, RecoveryStats, ServiceFactory};
pub use replica::{ByzantineMode, Replica, ReplicaStats, LEASE_TORN_WINDOW};
pub use rubin_transport::RubinTransport;
pub use state::{CounterService, EchoService, KvOp, KvService, RegionWrite, StateMachine};
pub use state_transfer::{
    CheckpointPayload, CheckpointStore, Manifest, StateOffer, CHUNK_SIZE, MAX_STORE_BYTES,
};
pub use transport::{
    DeliveryFn, LaneDeliveryFn, NodeId, SimTransport, SlotDoorbellFn, SlotRegion, SlotWriteFn,
    StateReadFn, Transport,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_cluster(seed: u64) -> Cluster {
        Cluster::sim_transport(ReptorConfig::small(), 1, seed, || {
            Box::new(CounterService::default())
        })
    }

    #[test]
    fn single_request_commits_everywhere() {
        let mut c = counter_cluster(1);
        let client = c.clients[0].clone();
        client.submit(&mut c.sim, b"inc".to_vec());
        assert!(c.run_until_completed(1, 500_000));
        c.settle();
        for r in &c.replicas {
            assert_eq!(r.last_executed(), 1, "replica {}", r.id());
            assert_eq!(r.stats().executed_requests, 1);
        }
        c.assert_safety();
        let comp = client.completions();
        assert_eq!(comp.len(), 1);
        assert_eq!(comp[0].result, 1u64.to_le_bytes());
        assert!(comp[0].latency() > simnet::Nanos::ZERO);
    }

    #[test]
    fn many_requests_total_order_holds() {
        let mut c = counter_cluster(2);
        let client = c.clients[0].clone();
        for _ in 0..30 {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
        assert!(c.run_until_completed(30, 2_000_000));
        c.settle();
        c.assert_safety();
        // Every replica converges on the same counter value.
        for r in &c.replicas {
            assert_eq!(r.stats().executed_requests, 30);
        }
        // The final completed result is the full count.
        let max = c.clients[0]
            .completions()
            .iter()
            .map(|cm| u64::from_le_bytes(cm.result.clone().try_into().unwrap()))
            .max()
            .unwrap();
        assert_eq!(max, 30);
    }

    #[test]
    fn batching_reduces_agreement_instances() {
        let cfg = ReptorConfig {
            batch_size: 10,
            ..ReptorConfig::small()
        };
        let mut c = Cluster::sim_transport(cfg, 4, 3, || Box::new(EchoService::default()));
        // Four clients each submit 10 requests in a burst.
        for cl in c.clients.clone() {
            for i in 0..10u8 {
                cl.submit(&mut c.sim, vec![i; 32]);
            }
        }
        assert!(c.run_until_completed(10, 2_000_000));
        c.settle();
        c.assert_safety();
        let batches = c.replicas[0].stats().executed_batches;
        let requests = c.replicas[0].stats().executed_requests;
        assert_eq!(requests, 40);
        assert!(
            batches < requests,
            "batching must group requests: {batches} batches for {requests} reqs"
        );
    }

    #[test]
    fn checkpoints_advance_low_watermark() {
        let cfg = ReptorConfig {
            checkpoint_interval: 8,
            batch_size: 1,
            ..ReptorConfig::small()
        };
        let mut c = Cluster::sim_transport(cfg, 1, 4, || Box::new(CounterService::default()));
        let client = c.clients[0].clone();
        for _ in 0..20 {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
        assert!(c.run_until_completed(20, 3_000_000));
        c.settle();
        for r in &c.replicas {
            assert!(
                r.low_mark() >= 16,
                "replica {} low mark {} must have advanced",
                r.id(),
                r.low_mark()
            );
            assert!(r.stats().stable_checkpoints >= 2);
        }
        c.assert_safety();
    }

    #[test]
    fn crashed_backup_does_not_block_progress() {
        let mut c = counter_cluster(5);
        c.replicas[3].set_byzantine(ByzantineMode::Crash);
        let client = c.clients[0].clone();
        for _ in 0..5 {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
        assert!(c.run_until_completed(5, 1_000_000));
        c.settle();
        c.assert_safety();
        assert_eq!(c.replicas[0].stats().executed_requests, 5);
        assert_eq!(c.replicas[3].last_executed(), 0, "crashed replica is dead");
    }

    #[test]
    fn partitioned_replica_stays_behind_but_safety_holds() {
        let mut c = counter_cluster(9);
        // Cut replica 3 off from everyone, including the client (host 4).
        let hosts: Vec<simnet::HostId> = (0..5).map(simnet::HostId).collect();
        let isolated = hosts[3];
        c.net.with_faults(|f| {
            for &h in &hosts {
                if h != isolated {
                    f.partition(h, isolated);
                }
            }
        });
        let client = c.clients[0].clone();
        for _ in 0..5 {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
        assert!(c.run_until_completed(5, 2_000_000));
        c.settle();
        c.assert_safety();
        assert_eq!(c.replicas[0].stats().executed_requests, 5);
        assert_eq!(c.replicas[3].last_executed(), 0);
    }

    #[test]
    fn seven_replica_group_tolerates_two_faults() {
        let cfg = ReptorConfig::for_f(2);
        let mut c = Cluster::sim_transport(cfg, 1, 10, || Box::new(CounterService::default()));
        c.replicas[5].set_byzantine(ByzantineMode::Crash);
        c.replicas[6].set_byzantine(ByzantineMode::CorruptMacs);
        let client = c.clients[0].clone();
        for _ in 0..5 {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
        assert!(c.run_until_completed(5, 3_000_000));
        c.settle();
        c.assert_safety();
        assert_eq!(c.replicas[0].stats().executed_requests, 5);
    }

    #[test]
    fn duplicate_request_returns_cached_reply() {
        let mut c = counter_cluster(11);
        let client = c.clients[0].clone();
        client.submit(&mut c.sim, b"inc".to_vec());
        assert!(c.run_until_completed(1, 1_000_000));
        c.settle();
        // Simulate a lost-reply retransmission by injecting the same
        // request directly at a replica.
        let req = Request {
            client: client.id(),
            timestamp: 1,
            payload: b"inc".to_vec(),
        };
        let before = c.replicas[1].stats().replies_sent;
        c.replicas[1].on_request(&mut c.sim, req);
        c.settle();
        // No double execution.
        for r in &c.replicas {
            assert_eq!(r.stats().executed_requests, 1);
        }
        assert_eq!(
            c.replicas[1].stats().replies_sent,
            before + 1,
            "cached reply must be resent"
        );
    }

    #[test]
    fn kv_service_replicates_state() {
        let cfg = ReptorConfig::small();
        let mut c = Cluster::sim_transport(cfg, 1, 12, || Box::new(KvService::default()));
        let client = c.clients[0].clone();
        client.submit(
            &mut c.sim,
            KvOp::Put(b"k1".to_vec(), b"v1".to_vec()).encode(),
        );
        client.submit(
            &mut c.sim,
            KvOp::Put(b"k2".to_vec(), b"v2".to_vec()).encode(),
        );
        client.submit(&mut c.sim, KvOp::Del(b"k1".to_vec()).encode());
        client.submit(&mut c.sim, KvOp::Get(b"k2".to_vec()).encode());
        assert!(c.run_until_completed(4, 2_000_000));
        c.settle();
        c.assert_safety();
        let comps = client.completions();
        assert_eq!(comps.last().unwrap().result, b"v2");
        // All replicas hold identical state digests.
        let digests: Vec<_> = c
            .replicas
            .iter()
            .map(|r| r.with_service(|s| s.state_digest()))
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cop_pillars_spread_agreement_work_across_cores() {
        let cfg = ReptorConfig {
            pillars: 3,
            batch_size: 1,
            ..ReptorConfig::small()
        };
        let mut c = Cluster::sim_transport(cfg, 1, 13, || Box::new(EchoService::default()));
        let client = c.clients[0].clone();
        for i in 0..12u8 {
            client.submit(&mut c.sim, vec![i; 64]);
        }
        assert!(c.run_until_completed(12, 3_000_000));
        c.settle();
        // Replica 1's host must show busy time on all three pillar cores.
        let host = c.net.host(simnet::HostId(1));
        let host = host.borrow();
        for core in 1..=3u16 {
            assert!(
                host.core_busy_time(simnet::CoreId(core)) > simnet::Nanos::ZERO,
                "pillar core {core} never used"
            );
        }
    }

    #[test]
    fn pre_prepare_beyond_high_watermark_is_ignored() {
        let cfg = ReptorConfig {
            checkpoint_interval: 8, // high mark = low + 16
            ..ReptorConfig::small()
        };
        let mut c = Cluster::sim_transport(cfg, 1, 15, || Box::new(CounterService::default()));
        let msg = Message::PrePrepare {
            view: 0,
            seq: 1_000, // way beyond the window
            digest: batch_digest(&[]),
            batch: vec![],
        };
        c.replicas[1].inject_message(&mut c.sim, msg);
        c.settle();
        assert_eq!(
            c.replicas[1].stats().prepares_sent,
            0,
            "out-of-window proposal must not be prepared"
        );
        assert_eq!(c.replicas[1].last_executed(), 0);
    }

    #[test]
    fn pre_prepare_with_mismatched_digest_is_ignored() {
        let mut c = counter_cluster(16);
        let batch = vec![Request {
            client: 4,
            timestamp: 1,
            payload: b"inc".to_vec(),
        }];
        let msg = Message::PrePrepare {
            view: 0,
            seq: 1,
            digest: batch_digest(&[]), // wrong: doesn't bind the batch
            batch,
        };
        c.replicas[1].inject_message(&mut c.sim, msg);
        c.settle();
        assert_eq!(c.replicas[1].stats().prepares_sent, 0);
    }

    #[test]
    fn duplicate_prepares_do_not_fake_a_quorum() {
        // Inject the same PREPARE from one replica many times; with only
        // one distinct voter (plus the pre-prepare), no commit may form.
        let mut c = counter_cluster(17);
        let batch = vec![Request {
            client: 4,
            timestamp: 1,
            payload: b"inc".to_vec(),
        }];
        let digest = batch_digest(&batch);
        c.replicas[1].inject_message(
            &mut c.sim,
            Message::PrePrepare {
                view: 0,
                seq: 1,
                digest,
                batch,
            },
        );
        for _ in 0..10 {
            c.replicas[1].inject_message(
                &mut c.sim,
                Message::Prepare {
                    view: 0,
                    seq: 1,
                    digest,
                    replica: 2, // the same voter every time
                },
            );
        }
        c.settle();
        assert_eq!(
            c.replicas[1].stats().commits_sent,
            1,
            "replica 1's own prepare + replica 2's = 2f: commit vote is sent"
        );
        assert_eq!(
            c.replicas[1].last_executed(),
            0,
            "but execution needs 2f+1 distinct commit voters"
        );
    }

    #[test]
    fn commits_before_prepared_certificate_do_not_execute() {
        // Commits arriving for an instance with no pre-prepare must be
        // buffered/ignored, never executed.
        let mut c = counter_cluster(18);
        let digest = batch_digest(&[]);
        for replica in [0u32, 2, 3] {
            c.replicas[1].inject_message(
                &mut c.sim,
                Message::Commit {
                    view: 0,
                    seq: 1,
                    digest,
                    replica,
                },
            );
        }
        c.settle();
        assert_eq!(c.replicas[1].last_executed(), 0);
        assert_eq!(c.replicas[1].stats().executed_batches, 0);
    }

    #[test]
    fn checkpoint_votes_with_divergent_digests_do_not_stabilize() {
        let cfg = ReptorConfig {
            checkpoint_interval: 1,
            batch_size: 1,
            ..ReptorConfig::small()
        };
        let mut c = Cluster::sim_transport(cfg, 1, 19, || Box::new(CounterService::default()));
        // Three different digests for the same checkpoint seq: no quorum.
        for (i, b) in [b"a", b"b", b"c"].iter().enumerate() {
            c.replicas[1].inject_message(
                &mut c.sim,
                Message::Checkpoint {
                    seq: 4,
                    state_digest: bft_crypto::Digest::of(*b),
                    replica: i as u32 + 1,
                    store_rkey: 0,
                    store_len: 0,
                    store_epoch: 0,
                },
            );
        }
        c.settle();
        assert_eq!(c.replicas[1].low_mark(), 0, "no matching-digest quorum");
    }

    #[test]
    fn client_latency_is_recorded_and_positive() {
        let mut c = counter_cluster(14);
        let client = c.clients[0].clone();
        client.submit(&mut c.sim, b"inc".to_vec());
        assert!(c.run_until_completed(1, 1_000_000));
        let comp = client.completions();
        // At minimum: request wire + three protocol phases + reply wire.
        assert!(comp[0].latency() > simnet::Nanos::from_micros(10));
    }
}
