//! # bench — the paper's evaluation, regenerated
//!
//! One module per experiment (see `DESIGN.md`'s experiment index):
//!
//! * [`fig3`] — the client–server echo micro-benchmark of Figure 3:
//!   TCP vs. RDMA Send/Recv vs. RDMA Read/Write vs. the RUBIN RDMA
//!   channel, latency (3a) and throughput (3b) over 1–100 KB payloads.
//! * [`fig4`] — the selector comparison of Figure 4: an echo workload
//!   through the Reptor comm stack (window 30, batching 10) over the
//!   Java-NIO-style selector vs. the RUBIN selector.
//! * [`replicated`] — the fully replicated system the paper defers to
//!   future work (§VII): 4-replica PBFT over both comm stacks.
//! * [`ablation`] — each §IV optimization toggled individually.
//! * [`kv`] — the agreement-free read path: one-sided RDMA READs
//!   against the replicated KV store vs. the ordered message path,
//!   both linearizability-checked.
//!
//! [`rows`] is the evaluation table: one row per experiment, each a
//! function from its positional arguments to a [`gate::Report`] (printed
//! tables, checks, sidecar sections). The one binary, `bench <name> [args]`,
//! runs a row and passes its report through [`gate::gate`], which writes
//! `target/bench/<name>.json` and exits non-zero on any failed check;
//! `bench all` is CI's evaluation step and runs each experiment once.
//! EXPERIMENTS.md owns the command of each experiment.

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod gate;
pub mod kv;
pub mod replicated;
pub mod rows;
pub mod workload;

/// The payload sweep of the paper's Figures 3 and 4 (1 KB – 100 KB).
pub const PAYLOAD_SWEEP: [usize; 8] = [
    1024,
    2 * 1024,
    4 * 1024,
    8 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
    100 * 1024,
];

/// Messages per measurement point (the paper exchanges 1000 messages per
/// run and averages five runs; the deterministic simulator needs fewer).
pub const DEFAULT_MSGS: usize = 200;

/// One measured operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EchoResult {
    /// Mean per-message latency in microseconds.
    pub latency_us: f64,
    /// Sustained throughput in requests per second.
    pub rps: f64,
}

/// Deterministic payload bytes for integrity checking.
pub fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_range() {
        assert_eq!(*PAYLOAD_SWEEP.first().unwrap(), 1024);
        assert_eq!(*PAYLOAD_SWEEP.last().unwrap(), 100 * 1024);
        assert!(PAYLOAD_SWEEP.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pattern_is_deterministic() {
        assert_eq!(pattern(16), pattern(16));
        assert_ne!(pattern(16)[1], pattern(16)[2]);
    }
}
