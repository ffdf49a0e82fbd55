//! Read throughput of the replicated KV service: one-sided
//! agreement-free reads vs. the message (agreement) path.
//!
//! The experiment the lease machinery exists for: at a read-heavy YCSB
//! mix, serving `Get`s by RNIC-checked one-sided READs removes the whole
//! agreement pipeline — batching, MAC vectors, three protocol phases,
//! replica CPU — from the read's critical path. Both operating points run
//! the *same* RDMA stack and the same workload; the only difference is
//! `read_leases`, so the ratio isolates the protocol change rather than
//! the transport. Every measured run's recorded history is
//! linearizability-checked — a throughput number from an unsafe run is
//! worthless.

use kvstore::{KvHarness, KvHistOp, Stack, YcsbSpec};
use reptor::ReptorConfig;
use simnet::throughput_ops_per_sec;

/// One measured KV operating point.
#[derive(Debug, Clone)]
pub struct KvPoint {
    /// Operating-point label.
    pub label: String,
    /// Completed reads.
    pub reads: u64,
    /// Completed read throughput in ops/s of simulated time.
    pub read_rps: f64,
    /// Mean completed-read latency in microseconds.
    pub read_latency_us: f64,
    /// Reads served one-sided.
    pub onesided: u64,
    /// Reads served through agreement (fallbacks included).
    pub fallback: u64,
    /// RNIC denials observed.
    pub denied: u64,
    /// Whether the recorded history linearized.
    pub lin_ok: bool,
}

/// Runs `clients` closed-loop clients for `ops` operations each over the
/// RDMA stack, with the one-sided read path on or off.
pub fn kv_read_point(
    leases: bool,
    spec: &YcsbSpec,
    clients: usize,
    ops: u64,
    seed: u64,
) -> KvPoint {
    let cfg = ReptorConfig {
        read_leases: leases,
        ..ReptorConfig::small()
    };
    let mut h = KvHarness::build(Stack::Rubin, seed, clients, cfg, 256);
    let t0 = h.cluster.sim.now();
    assert!(
        h.run_ycsb(spec, seed, ops, 600_000_000),
        "bench run wedged (leases={leases} seed={seed})"
    );
    let elapsed = h.cluster.sim.now() - t0;
    let hist = h.history();
    let mut reads = 0u64;
    let mut lat_sum_ns = 0u64;
    for e in &hist {
        if let (KvHistOp::Get { .. }, Some(resp)) = (&e.op, e.response) {
            reads += 1;
            lat_sum_ns += resp - e.invoke;
        }
    }
    KvPoint {
        label: if leases {
            "one-sided".into()
        } else {
            "message-path".into()
        },
        reads,
        read_rps: throughput_ops_per_sec(reads, elapsed),
        read_latency_us: if reads == 0 {
            0.0
        } else {
            lat_sum_ns as f64 / reads as f64 / 1_000.0
        },
        onesided: h.total("kv_read_onesided"),
        fallback: h.total("kv_read_fallback"),
        denied: h.total("kv_read_denied"),
        lin_ok: h.check_history().is_ok(),
    }
}

/// The headline comparison: workload B (95/5) with and without the
/// one-sided read path, same stack, same seed.
pub fn read_path_comparison(clients: usize, ops: u64, seed: u64) -> (KvPoint, KvPoint) {
    let spec = YcsbSpec::b(64);
    let onesided = kv_read_point(true, &spec, clients, ops, seed);
    let message = kv_read_point(false, &spec, clients, ops, seed);
    (onesided, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_points_measure_real_reads() {
        let (one, msg) = read_path_comparison(2, 12, 0x1234);
        assert!(one.reads > 0 && msg.reads > 0);
        assert!(one.lin_ok && msg.lin_ok);
        assert!(one.onesided > 0, "lease path must engage when enabled");
        assert_eq!(msg.onesided, 0, "lease path must be inert when disabled");
        assert!(
            one.read_rps > msg.read_rps,
            "one-sided reads must be faster"
        );
    }
}
