//! Criterion wrapper around the replicated-system experiment (paper §VII
//! future work): 4-replica PBFT agreement over each comm stack.
//!
//! Measurement time is capped: each iteration builds a fresh simulated
//! cluster whose `Rc`-linked objects live until process exit.

use std::time::Duration;

use bench::replicated::{bft_echo, Stack};
use bench::workload::Mix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reptor::ReptorConfig;

fn bft_points(c: &mut Criterion) {
    let mut g = c.benchmark_group("bft_agreement");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for stack in [Stack::Direct, Stack::Nio, Stack::Rubin] {
        g.bench_with_input(
            BenchmarkId::new("stack", format!("{stack:?}")),
            &stack,
            |b, &s| b.iter(|| bft_echo(s, Mix::Fixed(1024), 15, 4, 7, ReptorConfig::small())),
        );
    }
    g.finish();
}

criterion_group!(benches, bft_points);
criterion_main!(benches);
