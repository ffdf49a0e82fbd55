//! Criterion wrapper around the Figure 3 echo micro-benchmark.
//!
//! The workload runs in simulated time, so Criterion measures the
//! simulator's wall-clock cost while the printed custom metrics (run the
//! `fig3` binary) carry the paper-comparable simulated microseconds. The
//! bench still guards against performance regressions of the stack itself.
//!
//! Measurement time is capped because each iteration constructs a fresh
//! simulated world (whose `Rc`-linked objects live until process exit);
//! unbounded iteration counts would accumulate working-set.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rubin::RubinConfig;

/// Paper configuration with small buffer pools: identical code paths,
/// bench-friendly per-iteration footprint.
fn bench_cfg() -> RubinConfig {
    RubinConfig {
        recv_buffers: 16,
        send_buffers: 16,
        signal_interval: 8,
        recv_batch: 8,
        ..RubinConfig::paper()
    }
}

fn fig3_points(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_echo");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for payload in [1024usize, 16 * 1024, 100 * 1024] {
        g.bench_with_input(BenchmarkId::new("tcp", payload), &payload, |b, &p| {
            b.iter(|| bench::fig3::tcp_echo(p, 10))
        });
        g.bench_with_input(BenchmarkId::new("send_recv", payload), &payload, |b, &p| {
            b.iter(|| bench::fig3::send_recv_echo(p, 10))
        });
        g.bench_with_input(
            BenchmarkId::new("read_write", payload),
            &payload,
            |b, &p| b.iter(|| bench::fig3::write_oneway(p, 10)),
        );
        g.bench_with_input(
            BenchmarkId::new("rubin_channel", payload),
            &payload,
            |b, &p| b.iter(|| bench::fig3::channel_echo(p, 10, bench_cfg(), 0.0)),
        );
    }
    g.finish();
}

criterion_group!(benches, fig3_points);
criterion_main!(benches);
