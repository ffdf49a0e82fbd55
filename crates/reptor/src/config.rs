//! Replica-group configuration.

use bft_crypto::CryptoCostModel;
use simnet::{DiskSpec, Nanos};

use crate::pipeline::Votes;

/// Configuration of the per-replica persistence layer (durable checkpoint
/// snapshots plus a write-ahead log of executed batches on a simulated
/// local drive). `None` in [`ReptorConfig::durability`] keeps replicas
/// fully volatile — every restart rebuilds from peers, the pre-durability
/// behavior, byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Append every executed batch to the CRC-framed WAL.
    pub wal: bool,
    /// Write a compacting snapshot every this many *stable* checkpoints.
    pub snapshot_every: u64,
    /// Cost model of the simulated local drive.
    pub device: DiskSpec,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            wal: true,
            snapshot_every: 4,
            device: DiskSpec::nvme(),
        }
    }
}

/// Static configuration shared by every replica in the group.
#[derive(Debug, Clone)]
pub struct ReptorConfig {
    /// Number of replicas (`n = 3f + 1`).
    pub n: usize,
    /// Maximum requests per agreement batch (paper §II-B: "requests in BFT
    /// protocols are often batched").
    pub batch_size: usize,
    /// Maximum concurrently active agreement instances (the watermark
    /// window `L`).
    pub window: usize,
    /// A checkpoint is taken every `checkpoint_interval` sequence numbers.
    pub checkpoint_interval: u64,
    /// Number of COP agreement pipelines (parallel whole-protocol
    /// instances, Behl et al. \[10\]). Pipeline `s % pillars` owns sequence
    /// number `s` and runs its pre-prepare/prepare/commit state machine on
    /// its own core (`simnet::CoreAffinity` maps lanes onto cores `1..`,
    /// leaving core 0 for the sequential executor stage).
    pub pillars: usize,
    /// Ceiling of a backup's request timer. Each replica times requests
    /// from its own measured arrival→execute latency (at least 8 ms); this
    /// caps that, and is the timer itself until the first request executes.
    /// Client resends, state-transfer stalls and rejoin probes use it as is.
    pub view_change_timeout: Nanos,
    /// One-sided fast path: the leader proposes by RDMA WRITE into
    /// per-view follower slot regions instead of sending PRE-PREPARE
    /// messages. Requires a transport with a one-sided write primitive;
    /// the message path remains the per-peer fallback. Off by default so
    /// existing deployments and traces are bit-identical.
    pub fast_path: bool,
    /// Agreement-free reads: each replica exposes its applied-state
    /// region under an epoch-rkey read lease so clients can serve reads
    /// with one-sided RDMA READs, bypassing agreement. Requires a
    /// transport with a one-sided read primitive and a service exposing a
    /// read-region image; message-path reads remain the fallback. Off by
    /// default so existing deployments and traces are bit-identical.
    pub read_leases: bool,
    /// Cryptographic CPU cost model.
    pub crypto: CryptoCostModel,
    /// Local persistence layer. `None` (the default) keeps the replica
    /// volatile; `Some` arms the WAL + snapshot store and the
    /// crash-consistent cold path in `Replica::restart`.
    pub durability: Option<DurabilityConfig>,
}

impl ReptorConfig {
    /// A small `f = 1` group (4 replicas), the classic PBFT setup.
    pub fn small() -> ReptorConfig {
        ReptorConfig {
            n: 4,
            batch_size: 10,
            window: 30,
            checkpoint_interval: 64,
            pillars: 3,
            view_change_timeout: Nanos::from_millis(40),
            fast_path: false,
            read_leases: false,
            crypto: CryptoCostModel::xeon_v2_java(),
            durability: None,
        }
    }

    /// A group tolerating `f` faults (`n = 3f + 1`).
    pub fn for_f(f: usize) -> ReptorConfig {
        ReptorConfig {
            n: 3 * f + 1,
            ..ReptorConfig::small()
        }
    }

    /// The number of tolerated faults `f = (n - 1) / 3`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Quorum size for prepared/committed certificates (`2f`).
    pub fn prepare_quorum(&self) -> usize {
        2 * self.f()
    }

    /// Commit quorum (`2f + 1` including the replica itself).
    pub fn commit_quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// The primary of `view`.
    pub fn primary(&self, view: u64) -> u32 {
        (view % self.n as u64) as u32
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 4`, `n = 3f + 1`, and batching/window/pillar
    /// parameters are positive.
    pub fn validate(&self) {
        assert!(self.n >= 4, "BFT needs n >= 4 (got {})", self.n);
        assert_eq!(self.n, 3 * self.f() + 1, "n must be 3f + 1");
        assert!(
            self.n <= Votes::MAX_N,
            "vote sets count at most {} replicas (got n = {})",
            Votes::MAX_N,
            self.n
        );
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(self.window > 0, "window must be positive");
        assert!(self.checkpoint_interval > 0, "checkpoint interval positive");
        assert!(self.pillars > 0, "pillars must be positive");
    }
}

impl Default for ReptorConfig {
    fn default() -> ReptorConfig {
        ReptorConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorums_match_pbft() {
        let c = ReptorConfig::small();
        c.validate();
        assert_eq!(c.f(), 1);
        assert_eq!(c.prepare_quorum(), 2);
        assert_eq!(c.commit_quorum(), 3);
        let c7 = ReptorConfig::for_f(2);
        c7.validate();
        assert_eq!(c7.n, 7);
        assert_eq!(c7.commit_quorum(), 5);
    }

    #[test]
    fn primary_rotates_with_view() {
        let c = ReptorConfig::small();
        assert_eq!(c.primary(0), 0);
        assert_eq!(c.primary(1), 1);
        assert_eq!(c.primary(4), 0);
        assert_eq!(c.primary(7), 3);
    }

    #[test]
    #[should_panic(expected = "n must be 3f + 1")]
    fn non_3f1_rejected() {
        let c = ReptorConfig {
            n: 5,
            ..ReptorConfig::small()
        };
        c.validate();
    }
}
