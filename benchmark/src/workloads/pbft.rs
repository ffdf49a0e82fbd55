//! `pbft_rubin`, `pbft_nio`, `pbft_cop_direct`: a closed-loop client
//! against a 4-replica echo group over each comm stack.

use std::time::Instant;

use reptor::{Client, EchoService, Replica, ReptorConfig, DOMAIN_SECRET};
use simnet::Simulator;

use super::{check_executed_logs, step, traced, Scale, MAX_EVENTS};
use crate::alloc;
use crate::measure::{Lap, LapExtras, OpSample, Window};
use crate::trace::Tracer;
use crate::world::{self, Stack};

struct Params {
    stack: Stack,
    cfg: ReptorConfig,
    payload: usize,
    outstanding: usize,
    warmup: u64,
    measured: u64,
}

/// Requests the client keeps in flight on the two comm-stack workloads.
///
/// Twice this depth saturates the replicas' receive path long enough for
/// the TCP model's 500 µs retransmission timer to strike eight times in a
/// row: about every second 1 000-request lap over NIO then lost a
/// connection and recovered the stranded requests only through the
/// client's 60 ms resend timer, so p99 read either 3.4 ms or 59.8 ms and
/// the longest gap 2 ms or 59 ms depending on the seed. A benchmark has to
/// be steady, so both stacks run at the depth that stays clear of that
/// cliff; the cliff itself is recorded in the README as a finding.
const STACK_OUTSTANDING: usize = 8;

/// n = 4, `ReptorConfig::small()` (p = 3, batch 10, window 30), RUBIN,
/// 1 client, 1 KB.
pub fn pbft_rubin(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Lap {
    lap(
        &Params {
            stack: Stack::Rubin,
            cfg: ReptorConfig::small(),
            payload: 1024,
            outstanding: STACK_OUTSTANDING,
            warmup: scale.ops(100),
            measured: scale.ops(1_000),
        },
        seed,
        tracer,
    )
}

/// Identical to [`pbft_rubin`] over the NIO/TCP baseline stack.
pub fn pbft_nio(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Lap {
    lap(
        &Params {
            stack: Stack::Nio,
            cfg: ReptorConfig::small(),
            payload: 1024,
            outstanding: STACK_OUTSTANDING,
            warmup: scale.ops(100),
            measured: scale.ops(1_000),
        },
        seed,
        tracer,
    )
}

/// Direct fabric (no comm-stack CPU model), 4 pillars, batch 1,
/// window 64, 4 KB, 16 outstanding: agreement CPU does all the work.
pub fn pbft_cop_direct(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Lap {
    lap(
        &Params {
            stack: Stack::Direct,
            cfg: ReptorConfig {
                pillars: 4,
                batch_size: 1,
                window: 64,
                ..ReptorConfig::small()
            },
            payload: 4096,
            outstanding: 16,
            warmup: scale.ops(100),
            measured: scale.ops(1_000),
        },
        seed,
        tracer,
    )
}

/// Keeps `outstanding` requests in flight until the client has completed
/// `until` requests in total. Request `ts` carries `payload(seed, ts)`.
fn drive(
    sim: &mut Simulator,
    client: &Client,
    p: &Params,
    seed: u64,
    until: u64,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let start = sim.executed_events();
    let mut submitted = client.stats().submitted;
    while client.stats().completed < until {
        while submitted < until && client.pending_count() < p.outstanding {
            let body = world::payload(seed, submitted + 1, p.payload);
            traced(tracer, "submit", client.id(), sim, |sim| {
                client.submit(sim, body)
            });
            submitted += 1;
        }
        if !step(sim, tracer, client.id()) {
            return Err(format!(
                "simulator idle with {}/{until} requests completed",
                client.stats().completed
            ));
        }
        if sim.executed_events() - start > MAX_EVENTS {
            return Err(format!(
                "stalled at {}/{until} requests",
                client.stats().completed
            ));
        }
    }
    Ok(())
}

fn lap(p: &Params, seed: u64, tracer: Option<&Tracer>) -> Lap {
    let heap_base = alloc::reset_peak();
    let setup_started = Instant::now();
    let n = p.cfg.n;
    let mut w = world::cluster(p.stack, seed, n + 1, tracer);
    let cfg = ReptorConfig {
        crypto: w.machine.crypto.clone(),
        ..p.cfg.clone()
    };
    let replicas: Vec<Replica> = (0..n)
        .map(|i| {
            Replica::new(
                i as u32,
                cfg.clone(),
                DOMAIN_SECRET,
                w.transports[i].clone(),
                &w.net,
                w.hosts[i],
                Box::new(EchoService::default()),
            )
        })
        .collect();
    let client = Client::new(n as u32, cfg, DOMAIN_SECRET, w.transports[n].clone());

    let mut violations = Vec::new();
    if let Err(e) = drive(&mut w.sim, &client, p, seed, p.warmup, tracer) {
        violations.push(format!("warm-up: {e}"));
    }
    let setup = setup_started.elapsed();

    let retransmissions_before = client.stats().retransmissions;
    let window = Window::open(&w.sim, &w.net, &w.hosts, tracer);
    if let Err(e) = drive(&mut w.sim, &client, p, seed, p.warmup + p.measured, tracer) {
        violations.push(e);
    }
    let window = window.close(&w.sim, &w.net, &w.hosts);
    let peak_live = alloc::read().peak - heap_base;

    // Let the backups finish executing, then check every output.
    w.sim.run_until_idle();
    let mut samples = Vec::with_capacity(p.measured as usize);
    for c in client.completions() {
        if c.timestamp <= p.warmup {
            continue;
        }
        if c.result == world::payload(seed, c.timestamp, p.payload) {
            samples.push(OpSample {
                latency_ns: c.latency().as_nanos(),
                completed_ns: c.completed_at.as_nanos(),
            });
        } else {
            violations.push(format!("reply to request {} differs from it", c.timestamp));
        }
    }
    check_executed_logs(&replicas, &mut violations);

    Lap {
        setup,
        window,
        attempted: p.measured,
        samples,
        violations,
        peak_live,
        extras: LapExtras {
            client_retransmissions: client.stats().retransmissions - retransmissions_before,
            final_primary: replicas
                .iter()
                .find(|r| r.is_primary())
                .map_or(0, Replica::id),
            ..LapExtras::default()
        },
    }
}
