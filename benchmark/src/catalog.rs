//! The catalogue: every metric by name, with unit, direction and (for
//! end-to-end metrics) regression bound; the workloads and the reason each
//! exists live with their code in `workloads::ALL`. `BENCHMARK.json`
//! is generated from these tables (`benchmark manifest`) and a test keeps
//! the committed file equal to them.

use crate::json::Json;
use crate::workloads;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// True if `b` is worse than `a`.
    pub fn worse(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => b > a,
            Better::Higher => b < a,
        }
    }
}

/// An end-to-end metric.
pub struct EndToEndMetric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline by which it may worsen before a change counts
    /// as a regression.
    pub bound: f64,
}

/// A per-layer metric (reported, never gated).
pub struct LayerMetric {
    /// Name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

impl LayerMetric {
    /// The layer the metric belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// True for the workload-independent layer probes.
    pub fn is_probe(&self) -> bool {
        self.name.contains(".probe_")
    }
}

/// One run measures for this many seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 6;

/// The end-to-end metrics the driver gates.
///
/// Bounds are at least three times the widest seed-to-seed spread (quartile
/// distance over median of ten runs) seen on any workload; the README
/// carries the measured spreads. They are wider than a bit-exact simulator
/// suggests because the modelled system is chaotic: a 0.2 % change of one
/// cost constant reorders events and moves a p99 by percents.
///
/// `failed_ops_share` is the ninth end-to-end figure: it is reported in
/// every result file and as the `failed`/`attempted` keys of the run line,
/// but it is 0 on a healthy run and a relative bound on 0 means nothing, so
/// it is not listed here (`benchmark compare` holds it at zero).
pub const END_TO_END: [EndToEndMetric; 8] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "sim_latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.04,
    },
    EndToEndMetric {
        name: "sim_latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEndMetric {
        name: "sim_throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEndMetric {
        name: "sim_max_gap_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "host_allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.04,
    },
    EndToEndMetric {
        name: "host_alloc_bytes_per_op",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEndMetric {
        name: "host_peak_live_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: [LayerMetric; 86] = [
    // simnet
    lower("simnet.events_per_op", "count"),
    lower("simnet.events_cancelled_per_op", "count"),
    lower("simnet.frames_per_op", "count"),
    lower("simnet.user_copy_bytes_per_op", "bytes"),
    lower("simnet.kernel_copy_bytes_per_op", "bytes"),
    lower("simnet.kernel_crossings_per_op", "count"),
    lower("simnet.interrupts_per_op", "count"),
    lower("simnet.dma_bytes_per_op", "bytes"),
    lower("simnet.pool_takes_per_op", "count"),
    lower("simnet.primary_exec_core_busy_share", "ratio"),
    lower("simnet.primary_agreement_core_busy_share_max", "ratio"),
    lower("simnet.backup_core_busy_share_max", "ratio"),
    lower("simnet.probe_event_core_ns_per_event", "ns"),
    // rdma-verbs
    lower("rdma.sends_posted_per_op", "count"),
    lower("rdma.signaled_completion_share", "ratio"),
    higher("rdma.inline_send_share", "ratio"),
    lower("rdma.retransmits_per_op", "count"),
    lower("rdma.stale_rkey_denied", "count"),
    lower("rdma.probe_send_recv_rtt_us", "us"),
    lower("rdma.probe_read_rtt_us", "us"),
    lower("rdma.probe_post_poll_host_ns", "ns"),
    // simnet-socket
    lower("tcp.syscalls_per_op", "count"),
    lower("tcp.copies_per_op", "count"),
    lower("tcp.retransmits_per_op", "count"),
    lower("tcp.probe_echo_rtt_us", "us"),
    lower("tcp.probe_host_ns_per_msg", "ns"),
    // rubin
    lower("rubin.selector_polls_per_op", "count"),
    higher("rubin.events_per_poll", "count"),
    lower("rubin.pool_lends_per_op", "count"),
    lower("rubin.probe_channel_rtt_us", "us"),
    lower("rubin.probe_host_ns_per_msg", "ns"),
    // bft-crypto
    higher("crypto.probe_sha256_mb_s", "MB/s"),
    lower("crypto.probe_hmac_1k_ns", "ns"),
    lower("crypto.probe_authenticate_n4_1k_ns", "ns"),
    lower("crypto.probe_verify_1k_ns", "ns"),
    // reptor codec
    lower("codec.probe_sign_encode_1k_ns", "ns"),
    lower("codec.probe_decode_verify_1k_ns", "ns"),
    // reptor transport (decorator)
    lower("transport.msgs_per_op", "count"),
    lower("transport.bytes_per_op", "bytes"),
    lower("transport.transit_p50_us", "us"),
    lower("transport.transit_p99_us", "us"),
    lower("transport.send_host_ns_per_msg", "ns"),
    higher("transport.onesided_reads_per_op", "count"),
    higher("transport.slot_writes_per_op", "count"),
    lower("transport.lane_skew", "ratio"),
    lower("transport.pen_dropped", "count"),
    // reptor agreement
    lower("agreement.request_to_preprepare_p50_us", "us"),
    lower("agreement.request_to_preprepare_p99_us", "us"),
    lower("agreement.preprepare_to_prepared_p50_us", "us"),
    lower("agreement.prepared_to_committed_p50_us", "us"),
    lower("agreement.committed_to_executed_p50_us", "us"),
    lower("agreement.committed_to_executed_p99_us", "us"),
    higher("agreement.batch_fill_mean", "count"),
    lower("agreement.pipeline_imbalance", "ratio"),
    lower("agreement.view_changes", "count"),
    higher("agreement.checkpoints_stable", "count"),
    lower("agreement.handler_host_ns_per_op", "ns"),
    // reptor client
    lower("client.retransmissions_per_op", "count"),
    lower("client.submit_host_ns_per_op", "ns"),
    lower("client.reply_host_ns_per_op", "ns"),
    // reptor durability / recovery
    higher("durability.probe_scan_frames_mb_s", "MB/s"),
    lower("durability.probe_append_host_ns", "ns"),
    higher("durability.wal_frames_replayed", "count"),
    lower("recovery.view_change_us", "us"),
    lower("recovery.rejoin_us", "us"),
    lower("recovery.state_transfer_bytes", "bytes"),
    higher("recovery.state_transfer_bytes_local", "bytes"),
    lower("recovery.ops_late_share", "ratio"),
    // kvstore
    higher("kv.onesided_share", "ratio"),
    lower("kv.fallback_share", "ratio"),
    lower("kv.torn_share", "ratio"),
    lower("kv.divergent_share", "ratio"),
    lower("kv.read_p50_us", "us"),
    lower("kv.read_p99_us", "us"),
    lower("kv.write_p50_us", "us"),
    lower("kv.write_p99_us", "us"),
    lower("kv.reads_issued_per_get", "count"),
    lower("kv.client_host_ns_per_op", "ns"),
    lower("kv.probe_lin_check_us_per_op", "us"),
    // trace / bench
    lower("trace.unattributed_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.spans_per_op", "count"),
    lower("bench.host_cpu_us_per_op", "us"),
    lower("bench.host_cpu_us_per_op_iqr", "us"),
    higher("bench.host_events_per_s", "1/s"),
    lower("bench.generator_lag_p99_us", "us"),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndMetric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static LayerMetric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    let mut root = Json::obj();
    root.set(
        "command",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
    );
    root.set("paths", strings(&["benchmark"]));
    root.set("run_seconds", Json::Num(RUN_SECONDS as f64));
    root.set(
        "workloads",
        Json::Arr(
            workloads::ALL
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(w.name.into()));
                    o.set("why", Json::Str(w.why.into()));
                    o
                })
                .collect(),
        ),
    );
    root.set(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(m.name.into()));
                    o.set("unit", Json::Str(m.unit.into()));
                    o.set("better", Json::Str(m.better.as_str().into()));
                    o.set("bound", Json::Num(m.bound));
                    o
                })
                .collect(),
        ),
    );
    root.set(
        "per_layer",
        Json::Arr(
            PER_LAYER
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(m.name.into()));
                    o.set("unit", Json::Str(m.unit.into()));
                    o.set("better", Json::Str(m.better.as_str().into()));
                    o
                })
                .collect(),
        ),
    );
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in &workloads::ALL {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_generated_from_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
