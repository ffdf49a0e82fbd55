//! The measured window of a lap and the nine end-to-end figures derived
//! from a run's laps.
//!
//! An *op* is one client-visible request. The window opens when the
//! warm-up ops have completed (slot grants, lease grants and first
//! connections are done) and closes at the last completion.

use std::time::{Duration, Instant};

use simnet::{CoreId, HostId, MetricsSnapshot, Network, Simulator};

use crate::alloc::{self, AllocReading};
use crate::stats;
use crate::trace::Tracer;

/// Readings taken when the window opens.
pub struct Window {
    sim_ns: u64,
    snapshot: MetricsSnapshot,
    events: u64,
    cancelled: u64,
    frames: u64,
    pool_takes: u64,
    busy_ns: Vec<Vec<u64>>,
    alloc: AllocReading,
    host: Instant,
}

/// What happened between [`Window::open`] and [`Window::close`].
pub struct WindowStats {
    /// Simulated instant the window opened, ns.
    pub open_ns: u64,
    /// Simulated instant the window closed, ns.
    pub close_ns: u64,
    /// Host wall time spent inside the window.
    pub host: Duration,
    /// Heap allocations inside the window.
    pub allocs: u64,
    /// Bytes requested inside the window.
    pub alloc_bytes: u64,
    /// Registry snapshot at open.
    pub before: MetricsSnapshot,
    /// Registry snapshot at close.
    pub after: MetricsSnapshot,
    /// Simulator events executed.
    pub events: u64,
    /// Simulator events cancelled.
    pub events_cancelled: u64,
    /// Frames delivered by the fabric.
    pub frames: u64,
    /// Buffers taken from the fabric's byte pool.
    pub pool_takes: u64,
    /// Busy simulated ns per host, per core.
    pub busy_ns: Vec<Vec<u64>>,
}

fn busy(net: &Network, hosts: &[HostId]) -> Vec<Vec<u64>> {
    hosts
        .iter()
        .map(|&h| {
            let host = net.host(h);
            let host = host.borrow();
            (0..host.num_cores())
                .map(|c| host.core_busy_time(CoreId(c as u16)).as_nanos())
                .collect()
        })
        .collect()
}

impl Window {
    /// Opens the window (and the tracer's, when tracing). The allocator
    /// and the host clock are read last, so the snapshot's own allocations
    /// stay outside.
    pub fn open(
        sim: &Simulator,
        net: &Network,
        hosts: &[HostId],
        tracer: Option<&Tracer>,
    ) -> Window {
        if let Some(t) = tracer {
            t.mark_window();
        }
        net.publish_sim_gauges(sim);
        let snapshot = net.metrics().snapshot();
        let busy_ns = busy(net, hosts);
        Window {
            sim_ns: sim.now().as_nanos(),
            events: sim.executed_events(),
            cancelled: sim.queue_stats().cancelled,
            frames: net.stats().delivered,
            pool_takes: net.buffer_pool().stats().takes,
            snapshot,
            busy_ns,
            alloc: alloc::read(),
            host: Instant::now(),
        }
    }

    /// Closes the window (host clock and allocator are read first).
    pub fn close(self, sim: &Simulator, net: &Network, hosts: &[HostId]) -> WindowStats {
        let host = self.host.elapsed();
        let alloc_now = alloc::read();
        net.publish_sim_gauges(sim);
        let after = net.metrics().snapshot();
        let busy_ns = busy(net, hosts)
            .into_iter()
            .zip(&self.busy_ns)
            .map(|(now, then)| now.iter().zip(then).map(|(n, t)| n - t).collect())
            .collect();
        WindowStats {
            open_ns: self.sim_ns,
            close_ns: sim.now().as_nanos(),
            host,
            allocs: alloc_now.allocs - self.alloc.allocs,
            alloc_bytes: alloc_now.bytes - self.alloc.bytes,
            before: self.snapshot,
            after,
            events: sim.executed_events() - self.events,
            events_cancelled: sim.queue_stats().cancelled - self.cancelled,
            frames: net.stats().delivered - self.frames,
            pool_takes: net.buffer_pool().stats().takes - self.pool_takes,
            busy_ns,
        }
    }
}

impl WindowStats {
    /// Simulated length of the window, ns.
    pub fn sim_len_ns(&self) -> u64 {
        self.close_ns - self.open_ns
    }

    /// Growth of every counter whose key ends in `.{metric}`.
    pub fn total(&self, metric: &str) -> u64 {
        self.after.total(metric) - self.before.total(metric)
    }

    /// Growth of the counter `key`.
    pub fn counter(&self, key: &str) -> u64 {
        self.after.counter(key) - self.before.counter(key)
    }

    /// Growth of every counter whose key starts with `prefix` and ends in
    /// `.{metric}`.
    pub fn total_under(&self, prefix: &str, metric: &str) -> u64 {
        let suffix = format!(".{metric}");
        let sum = |s: &MetricsSnapshot| -> u64 {
            s.counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(&suffix))
                .map(|(_, v)| v)
                .sum()
        };
        sum(&self.after) - sum(&self.before)
    }
}

/// One completed operation inside the window.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Invoke (closed loop) or due (open loop) → reply quorum, sim ns.
    pub latency_ns: u64,
    /// Completion instant, sim ns.
    pub completed_ns: u64,
}

/// Workload-specific extras a lap may report for the per-layer tables.
#[derive(Debug, Clone, Default)]
pub struct LapExtras {
    /// Latencies of reads (KV workloads), sim ns.
    pub read_latency_ns: Vec<u64>,
    /// Latencies of writes (KV workloads), sim ns.
    pub write_latency_ns: Vec<u64>,
    /// How late the open-loop generator issued each request, sim ns.
    pub generator_lag_ns: Vec<u64>,
    /// Crash → first replica in a later view, sim ns.
    pub view_change_ns: Option<u64>,
    /// Restart → restarted replica level with the group, sim ns.
    pub rejoin_ns: Option<u64>,
    /// Ops that completed later than the lateness threshold.
    pub ops_late: u64,
    /// The replica acting as primary when the lap ended.
    pub final_primary: u32,
    /// Client-side retransmissions inside the window.
    pub client_retransmissions: u64,
    /// The recorded KV history (the lin-checker probe replays one).
    pub kv_history: Option<Vec<kvstore::KvEvent>>,
}

/// Everything one lap produced.
pub struct Lap {
    /// Wall time to build the group, connect and run the warm-up ops.
    pub setup: Duration,
    /// The measured window.
    pub window: WindowStats,
    /// Ops attempted inside the window.
    pub attempted: u64,
    /// One sample per op that completed correctly before its deadline.
    pub samples: Vec<OpSample>,
    /// Correctness violations (safety, linearizability, wrong replies).
    /// Any entry fails the run.
    pub violations: Vec<String>,
    /// Peak live heap of the lap, bytes.
    pub peak_live: u64,
    /// Per-layer extras.
    pub extras: LapExtras,
}

/// The end-to-end figures of a run. Every field but `setup_s` is a pure
/// function of the seed and repeats to the last digit.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// `setup_s`
    pub setup_s: f64,
    /// `sim_latency_p50_us`
    pub sim_latency_p50_us: f64,
    /// `sim_latency_p99_us`
    pub sim_latency_p99_us: f64,
    /// `sim_throughput_ops_s`
    pub sim_throughput_ops_s: f64,
    /// `sim_max_gap_us`
    pub sim_max_gap_us: f64,
    /// `failed_ops_share`
    pub failed_ops_share: f64,
    /// `host_allocs_per_op`
    pub host_allocs_per_op: f64,
    /// `host_alloc_bytes_per_op`
    pub host_alloc_bytes_per_op: f64,
    /// `host_peak_live_mb`
    pub host_peak_live_mb: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
}

impl EndToEnd {
    /// `(name, value)` for the deterministic figures (everything but
    /// `setup_s`), in catalogue order.
    pub fn deterministic(&self) -> [(&'static str, f64); 8] {
        [
            ("sim_latency_p50_us", self.sim_latency_p50_us),
            ("sim_latency_p99_us", self.sim_latency_p99_us),
            ("sim_throughput_ops_s", self.sim_throughput_ops_s),
            ("sim_max_gap_us", self.sim_max_gap_us),
            ("failed_ops_share", self.failed_ops_share),
            ("host_allocs_per_op", self.host_allocs_per_op),
            ("host_alloc_bytes_per_op", self.host_alloc_bytes_per_op),
            ("host_peak_live_mb", self.host_peak_live_mb),
        ]
    }
}

impl Lap {
    /// Ops that did not complete correctly before their deadline (every
    /// op, if the lap saw a safety or linearizability violation).
    pub fn failed(&self) -> u64 {
        if self.violations.is_empty() {
            self.attempted - self.samples.len() as u64
        } else {
            self.attempted
        }
    }

    /// Longest simulated interval between consecutive completions, ns.
    fn max_gap_ns(&self) -> u64 {
        let mut done: Vec<u64> = self.samples.iter().map(|s| s.completed_ns).collect();
        done.sort_unstable();
        done.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }
}

/// Derives the end-to-end figures of a run from its laps: percentiles over
/// the pooled latencies, throughput and allocation rates over the summed
/// windows, the median over laps for `setup_s` and the peak heap, and the
/// mean over laps of each lap's longest gap (a lap either contains a rare
/// long gap or does not, so a median over laps flips between the two modes
/// where a mean moves smoothly: 0.16 against 0.25 seed-to-seed spread on
/// `pbft_nio`).
///
/// Fails when the pooled sample cannot back a p99 (fewer than 1 000
/// completed ops) unless `allow_short` (`--quick`), in which case the tail
/// falls back to [`stats::tail`].
pub fn end_to_end(laps: &[&Lap], allow_short: bool) -> Result<EndToEnd, String> {
    let mut lat: Vec<u64> = laps
        .iter()
        .flat_map(|l| l.samples.iter().map(|s| s.latency_ns))
        .collect();
    if lat.is_empty() {
        return Err("no operation completed inside the window".into());
    }
    lat.sort_unstable();
    let p99 = match stats::p99(&lat) {
        Ok(v) => v,
        Err(_) if allow_short => stats::tail(&lat),
        Err(e) => return Err(e),
    };
    let over_laps = |f: &dyn Fn(&Lap) -> f64| -> f64 {
        stats::median(&laps.iter().map(|l| f(l)).collect::<Vec<f64>>())
    };
    let sum = |f: &dyn Fn(&Lap) -> u64| -> f64 { laps.iter().map(|l| f(l)).sum::<u64>() as f64 };
    let ops = lat.len() as f64;
    Ok(EndToEnd {
        setup_s: over_laps(&|l| l.setup.as_secs_f64()),
        sim_latency_p50_us: stats::percentile(&lat, 50.0) as f64 / 1e3,
        sim_latency_p99_us: p99 as f64 / 1e3,
        sim_throughput_ops_s: ops / (sum(&|l| l.window.sim_len_ns()) / 1e9),
        sim_max_gap_us: sum(&Lap::max_gap_ns) / laps.len() as f64 / 1e3,
        failed_ops_share: sum(&Lap::failed) / sum(&|l| l.attempted),
        host_allocs_per_op: sum(&|l| l.window.allocs) / ops,
        host_alloc_bytes_per_op: sum(&|l| l.window.alloc_bytes) / ops,
        host_peak_live_mb: over_laps(&|l| l.peak_live as f64) / (1024.0 * 1024.0),
        samples: lat.len() as u64,
    })
}
