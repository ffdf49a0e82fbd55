//! Per-layer metrics: what each layer did for one measured op, derived
//! from the public readers (`MetricsSnapshot`, `Host::core_busy_time`,
//! `Network::stats`, `Simulator::queue_stats`), the outside-in trace and
//! the lap's own bookkeeping.
//!
//! Counts are window growth divided by measured ops. `*_host_ns*` figures
//! are host timings from the traced lap, reported and never gated. Phase
//! percentiles come from the registry's histograms, which cannot be reset
//! and therefore include the warm-up ops (a tenth of the lap at most).

use simnet::HistogramSummary;

use crate::catalog;
use crate::measure::Lap;
use crate::probes::ProbeValue;
use crate::stats;
use crate::trace::TraceSummary;
use crate::workloads::{Shape, Workload};
use crate::world::Stack;

/// One per-layer figure.
#[derive(Debug, Clone)]
pub struct LayerValue {
    /// Metric name (an entry of [`catalog::PER_LAYER`]).
    pub name: &'static str,
    /// The figure; 0 when the layer does not run in the workload.
    pub value: f64,
    /// Whether the metric's layer runs in this workload. Result files omit
    /// the metric where it does not; the driver's run line, which must
    /// carry every metric on every workload, zero-fills it.
    pub applies: bool,
}

/// Host-time readings of the untraced laps a traced lap is compared with.
pub struct HostBaseline {
    /// Window wall time per op, µs, one entry per untraced lap.
    pub us_per_op: Vec<f64>,
    /// Simulator events per host second, one entry per untraced lap.
    pub events_per_s: Vec<f64>,
    /// Window wall time of the untraced lap(s) with the traced lap's seed,
    /// seconds (median).
    pub same_seed_window_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

/// Median of an ascending sample, µs (0 when empty).
fn p50_us(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(sorted, 50.0) as f64 / 1e3
    }
}

/// Tail of an ascending sample, µs (0 when empty).
fn tail_us(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::tail(sorted) as f64 / 1e3
    }
}

/// Derives every per-layer metric for one traced lap, in catalogue order.
pub fn derive(
    workload: &Workload,
    lap: &Lap,
    trace: &TraceSummary,
    baseline: &HostBaseline,
    probes: Option<&[ProbeValue]>,
) -> Vec<LayerValue> {
    let w = &lap.window;
    let ops = lap.samples.len() as f64;
    let per_op = |count: u64| ratio(count as f64, ops);
    let host = |metric: &str| w.total_under("host.", metric);
    let window_ns = w.sim_len_ns() as f64;
    let primary = lap.extras.final_primary;
    let at_primary = |metric: &str| w.counter(&format!("reptor.r{primary}.{metric}"));
    let phase = |name: &str| -> HistogramSummary {
        w.after
            .histogram(&format!("reptor.r{primary}.phase.{name}"))
            .copied()
            .unwrap_or_default()
    };

    let rubin = workload.stack == Stack::Rubin;
    let nio = workload.stack == Stack::Nio;
    let agreement = workload.replicas > 0;
    let kv = workload.shape == Shape::Kv;
    let failover = workload.open_loop;

    // Busy shares: host 0 runs the primary (or the echo server on core 0
    // and the echo client on core 2); hosts 1..n run the backups.
    let share = |ns: u64| ratio(ns as f64, window_ns);
    let primary_busy = &w.busy_ns[0];
    let backups = &w.busy_ns[1.min(w.busy_ns.len())..(workload.replicas as usize).max(1)];

    // The sim-time waterfall and what it leaves unexplained.
    let mean_latency = stats::mean(
        &lap.samples
            .iter()
            .map(|s| s.latency_ns)
            .collect::<Vec<u64>>(),
    );
    let agreement_path = trace.client_to_primary.mean()
        + [
            "request_to_preprepare",
            "preprepare_to_prepared",
            "prepared_to_committed",
            "committed_to_executed",
        ]
        .iter()
        .map(|p| phase(p).mean as f64)
        .sum::<f64>()
        + trace.replica_to_client.mean();
    let gets = lap.extras.read_latency_ns.len() as f64;
    let onesided = w.total("kv_read_onesided") as f64;
    let attributed = match workload.shape {
        Shape::Echo => trace.client_to_primary.mean() + trace.replica_to_client.mean(),
        Shape::Agreement => agreement_path,
        Shape::Kv => {
            let fast = ratio(onesided, ops);
            fast * trace.onesided_reads.mean() + (1.0 - fast) * agreement_path
        }
    };

    // Lane skew: spread of sequenced deliveries over a replica's lanes.
    let lane_skew = (0..workload.replicas)
        .map(|r| {
            let lanes: Vec<f64> = trace
                .lane_deliveries
                .iter()
                .filter(|((node, _), _)| *node == r)
                .map(|(_, &n)| n as f64)
                .collect();
            if lanes.is_empty() {
                return 0.0;
            }
            let mean = lanes.iter().sum::<f64>() / lanes.len() as f64;
            let max = lanes.iter().copied().fold(f64::MIN, f64::max);
            let min = lanes.iter().copied().fold(f64::MAX, f64::min);
            ratio(max - min, mean)
        })
        .fold(0.0, f64::max);
    let pipelines: Vec<f64> = (0..16)
        .map(|l| at_primary(&format!("pipeline.{l}.committed")) as f64)
        .filter(|&c| c > 0.0)
        .collect();
    let pipeline_imbalance = if pipelines.is_empty() {
        0.0
    } else {
        let mean = pipelines.iter().sum::<f64>() / pipelines.len() as f64;
        pipelines.iter().copied().fold(f64::MIN, f64::max) / mean - 1.0
    };

    let driver = |name: &str| trace.driver_self.get(name).map_or(0, |t| t.sum) as f64;
    let submit_host = driver("submit") + driver("kv_op");
    let signaled = w.total_under("rdma.", "signaled_completions") as f64;
    let unsignaled = w.total_under("rdma.", "unsignaled_completions") as f64;
    let traced_window_s = w.host.as_secs_f64();
    let transit = sorted(&trace.transit_ns);
    let reads = sorted(&lap.extras.read_latency_ns);
    let writes = sorted(&lap.extras.write_latency_ns);
    let generator_lag = sorted(&lap.extras.generator_lag_ns);

    let value = |name: &str| -> (f64, bool) {
        match name {
            "simnet.events_per_op" => (per_op(w.events), true),
            "simnet.events_cancelled_per_op" => (per_op(w.events_cancelled), true),
            "simnet.frames_per_op" => (per_op(w.frames), true),
            "simnet.user_copy_bytes_per_op" => (per_op(host("user_copy_bytes")), true),
            "simnet.kernel_copy_bytes_per_op" => (per_op(host("kernel_copy_bytes")), true),
            "simnet.kernel_crossings_per_op" => (per_op(host("kernel_crossings")), true),
            "simnet.interrupts_per_op" => (per_op(host("interrupts")), true),
            "simnet.dma_bytes_per_op" => (per_op(host("dma_bytes")), true),
            "simnet.pool_takes_per_op" => (per_op(w.pool_takes), true),
            "simnet.primary_exec_core_busy_share" => (share(primary_busy[0]), true),
            "simnet.primary_agreement_core_busy_share_max" => (
                share(primary_busy[1..].iter().copied().max().unwrap_or(0)),
                true,
            ),
            "simnet.backup_core_busy_share_max" => (
                share(backups.iter().flatten().copied().max().unwrap_or(0)),
                agreement,
            ),

            "rdma.sends_posted_per_op" => (per_op(w.total_under("rdma.", "sends_posted")), rubin),
            "rdma.signaled_completion_share" => (ratio(signaled, signaled + unsignaled), rubin),
            "rdma.inline_send_share" => (
                ratio(
                    w.total_under("rdma.", "inline_sends") as f64,
                    w.total_under("rdma.", "sends_posted") as f64,
                ),
                rubin,
            ),
            "rdma.retransmits_per_op" => (per_op(w.total_under("rdma.", "retransmits")), rubin),
            "rdma.stale_rkey_denied" => (w.total("stale_rkey_denied") as f64, rubin),

            "tcp.syscalls_per_op" => (per_op(w.total_under("tcp.", "syscalls")), nio),
            "tcp.copies_per_op" => (per_op(w.total_under("tcp.", "copies")), nio),
            "tcp.retransmits_per_op" => (per_op(w.total_under("tcp.", "retransmits")), nio),

            "rubin.selector_polls_per_op" => (per_op(w.total_under("rubin.", "polls")), rubin),
            "rubin.events_per_poll" => (
                ratio(
                    w.total_under("rubin.", "events_dispatched") as f64,
                    w.total_under("rubin.", "polls") as f64,
                ),
                rubin,
            ),
            "rubin.pool_lends_per_op" => (per_op(w.total_under("rubin.", "lends")), rubin),

            "transport.msgs_per_op" => (per_op(trace.send_host.count), true),
            "transport.bytes_per_op" => (per_op(trace.send_bytes), true),
            "transport.transit_p50_us" => (p50_us(&transit), true),
            "transport.transit_p99_us" => (tail_us(&transit), true),
            "transport.send_host_ns_per_msg" => (trace.send_host.mean(), true),
            "transport.onesided_reads_per_op" => (per_op(trace.onesided_reads.count), true),
            "transport.slot_writes_per_op" => (per_op(trace.slot_writes.count), true),
            "transport.lane_skew" => (lane_skew, agreement),
            "transport.pen_dropped" => (w.total("pen_dropped") as f64, true),

            "agreement.request_to_preprepare_p50_us" => {
                (phase("request_to_preprepare").p50 as f64 / 1e3, agreement)
            }
            "agreement.request_to_preprepare_p99_us" => {
                (phase("request_to_preprepare").p99 as f64 / 1e3, agreement)
            }
            "agreement.preprepare_to_prepared_p50_us" => {
                (phase("preprepare_to_prepared").p50 as f64 / 1e3, agreement)
            }
            "agreement.prepared_to_committed_p50_us" => {
                (phase("prepared_to_committed").p50 as f64 / 1e3, agreement)
            }
            "agreement.committed_to_executed_p50_us" => {
                (phase("committed_to_executed").p50 as f64 / 1e3, agreement)
            }
            "agreement.committed_to_executed_p99_us" => {
                (phase("committed_to_executed").p99 as f64 / 1e3, agreement)
            }
            "agreement.batch_fill_mean" => (
                ratio(
                    at_primary("requests_executed") as f64,
                    at_primary("batches_executed") as f64,
                ),
                agreement,
            ),
            "agreement.pipeline_imbalance" => (pipeline_imbalance, agreement),
            "agreement.view_changes" => (at_primary("new_views_entered") as f64, agreement),
            "agreement.checkpoints_stable" => (at_primary("checkpoints_stable") as f64, agreement),
            "agreement.handler_host_ns_per_op" => {
                (ratio(trace.replica_handler_self.sum as f64, ops), agreement)
            }

            "client.retransmissions_per_op" => {
                (per_op(lap.extras.client_retransmissions), agreement)
            }
            "client.submit_host_ns_per_op" => (ratio(submit_host, ops), agreement),
            "client.reply_host_ns_per_op" => {
                (ratio(trace.client_handler_self.sum as f64, ops), agreement)
            }

            "durability.wal_frames_replayed" => {
                (w.total("wal_frames_replayed") as f64, workload.durable)
            }
            "recovery.view_change_us" => (
                lap.extras.view_change_ns.unwrap_or(0) as f64 / 1e3,
                failover,
            ),
            "recovery.rejoin_us" => (lap.extras.rejoin_ns.unwrap_or(0) as f64 / 1e3, failover),
            "recovery.state_transfer_bytes" => (w.total("state_transfer_bytes") as f64, failover),
            "recovery.state_transfer_bytes_local" => {
                (w.total("state_transfer_bytes_local") as f64, failover)
            }
            "recovery.ops_late_share" => (ratio(lap.extras.ops_late as f64, ops), failover),

            "kv.onesided_share" => (ratio(onesided, gets), kv),
            "kv.fallback_share" => (ratio(w.total("kv_read_fallback") as f64, gets), kv),
            "kv.torn_share" => (ratio(w.total("kv_read_torn") as f64, gets), kv),
            "kv.divergent_share" => (ratio(w.total("kv_read_divergent") as f64, gets), kv),
            "kv.read_p50_us" => (p50_us(&reads), kv),
            "kv.read_p99_us" => (tail_us(&reads), kv),
            "kv.write_p50_us" => (p50_us(&writes), kv),
            "kv.write_p99_us" => (tail_us(&writes), kv),
            "kv.reads_issued_per_get" => (ratio(trace.onesided_reads.count as f64, gets), kv),
            "kv.client_host_ns_per_op" => (
                ratio(submit_host + trace.client_handler_self.sum as f64, ops),
                kv,
            ),

            "trace.unattributed_share" => (ratio(mean_latency - attributed, mean_latency), true),
            "trace.overhead_share" => (
                ratio(
                    traced_window_s - baseline.same_seed_window_s,
                    baseline.same_seed_window_s,
                ),
                true,
            ),
            "trace.spans_per_op" => (per_op(trace.spans), true),
            "bench.host_cpu_us_per_op" => (stats::median(&baseline.us_per_op), true),
            "bench.host_cpu_us_per_op_iqr" => (stats::iqr(&baseline.us_per_op), true),
            "bench.host_events_per_s" => (stats::median(&baseline.events_per_s), true),
            "bench.generator_lag_p99_us" => (tail_us(&generator_lag), failover),

            probe => match probes.and_then(|ps| ps.iter().find(|p| p.name == probe)) {
                Some(p) => (p.value, true),
                None => (0.0, false),
            },
        }
    };

    catalog::PER_LAYER
        .iter()
        .map(|m| {
            let (value, applies) = value(m.name);
            LayerValue {
                name: m.name,
                value: if applies { value } else { 0.0 },
                applies,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_non_probe_metric_has_a_derivation() {
        // `derive` falls through to the probe lookup for names it does not
        // know; a misspelt catalogue entry would silently read as "probe
        // not run". Keep the two lists in step.
        let source = include_str!("layers.rs");
        for m in catalog::PER_LAYER.iter().filter(|m| !m.is_probe()) {
            assert!(
                source.contains(&format!("\"{}\" =>", m.name)),
                "{} has no arm in layers::derive",
                m.name
            );
        }
    }
}
