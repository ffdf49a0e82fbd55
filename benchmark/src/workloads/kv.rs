//! `kv_read_heavy` and `kv_update_heavy`: the replicated KV service on
//! RUBIN with read leases, four closed-loop clients, every history
//! checked for linearizability.

use std::time::Instant;

use kvstore::{
    check_linearizable, ClientWorkload, KvClient, KvEvent, KvHistOp, KvStoreService, YcsbSpec,
};
use reptor::{Client, DurabilityConfig, Replica, ReptorConfig, DOMAIN_SECRET};
use simnet::{KeyDist, Simulator};

use super::{check_executed_logs, step, traced, Scale, MAX_EVENTS};
use crate::alloc;
use crate::measure::{Lap, LapExtras, OpSample, Window};
use crate::trace::Tracer;
use crate::world::{self, Stack};

const CLIENTS: usize = 4;
/// Region cells per replica. 64 zipfian keys in 1 024 cells keep bucket
/// collisions (poisoned cells, forced fallbacks) rare.
const CELLS: usize = 1024;
const KEYS: u64 = 64;
const VALUE_BYTES: usize = 32;

struct Params {
    cfg: ReptorConfig,
    read_ratio: f64,
    warmup_per_client: u64,
    measured_per_client: u64,
}

/// 95 % get / 5 % put: the one-sided READ path serves almost every op.
pub fn kv_read_heavy(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Lap {
    lap(
        &Params {
            cfg: ReptorConfig {
                read_leases: true,
                ..ReptorConfig::small()
            },
            read_ratio: 0.95,
            warmup_per_client: scale.ops(250),
            measured_per_client: scale.ops(3_000),
        },
        seed,
        tracer,
    )
}

/// 20 % get / 80 % put with the WAL on: p50 sits on the write path, and
/// gets race cell updates.
pub fn kv_update_heavy(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Lap {
    lap(
        &Params {
            cfg: ReptorConfig {
                read_leases: true,
                durability: Some(DurabilityConfig::default()),
                ..ReptorConfig::small()
            },
            read_ratio: 0.20,
            warmup_per_client: scale.ops(50),
            measured_per_client: scale.ops(400),
        },
        seed,
        tracer,
    )
}

/// Drives every client, one op in flight each, until each has issued
/// `until` ops and all have completed.
fn drive(
    sim: &mut Simulator,
    clients: &[KvClient],
    streams: &mut [ClientWorkload],
    until: u64,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let start = sim.executed_events();
    loop {
        let mut all_issued = true;
        for (c, stream) in clients.iter().zip(streams.iter_mut()) {
            if stream.issued() >= until {
                continue;
            }
            all_issued = false;
            if c.busy() {
                continue;
            }
            let op = stream.next_op();
            traced(tracer, "kv_op", c.id(), sim, |sim| match op {
                KvHistOp::Get { key, .. } => c.get(sim, key),
                KvHistOp::Put { key, val } => c.put(sim, key, val),
                KvHistOp::Del { key } => c.del(sim, key),
            });
        }
        if all_issued && clients.iter().all(|c| !c.busy()) {
            return Ok(());
        }
        // Step until a client with work left goes idle (a one-sided read
        // completes in a handful of events; running past it would jump
        // the clock to the next stale timer) or everything is done.
        loop {
            if !step(sim, tracer, clients[0].id()) {
                return Err("simulator idle with KV operations outstanding".into());
            }
            if sim.executed_events() - start > MAX_EVENTS {
                return Err("KV run exceeded its event budget".into());
            }
            let ready = clients
                .iter()
                .zip(streams.iter())
                .any(|(c, s)| s.issued() < until && !c.busy());
            if ready || clients.iter().all(|c| !c.busy()) {
                break;
            }
        }
    }
}

fn lap(p: &Params, seed: u64, tracer: Option<&Tracer>) -> Lap {
    let heap_base = alloc::reset_peak();
    let setup_started = Instant::now();
    let n = p.cfg.n;
    let mut w = world::cluster(Stack::Rubin, seed, n + CLIENTS, tracer);
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
                Box::new(KvStoreService::new(CELLS)),
            )
        })
        .collect();
    let clients: Vec<KvClient> = (0..CLIENTS)
        .map(|i| {
            let transport = w.transports[n + i].clone();
            let client = Client::new(
                (n + i) as u32,
                cfg.clone(),
                DOMAIN_SECRET,
                transport.clone(),
            );
            KvClient::new(client, &cfg, transport, w.net.metrics())
        })
        .collect();
    let spec = YcsbSpec {
        read_ratio: p.read_ratio,
        dist: KeyDist::zipfian(KEYS, 0.99),
        val_size: VALUE_BYTES,
    };
    let mut streams: Vec<ClientWorkload> = clients
        .iter()
        .map(|c| ClientWorkload::new(c.id(), spec.clone(), seed))
        .collect();

    let mut violations = Vec::new();
    for c in &clients {
        c.query_leases(&mut w.sim);
    }
    if let Err(e) = drive(
        &mut w.sim,
        &clients,
        &mut streams,
        p.warmup_per_client,
        tracer,
    ) {
        violations.push(format!("warm-up: {e}"));
    }
    let setup = setup_started.elapsed();

    let retransmissions = |clients: &[KvClient]| -> u64 {
        clients
            .iter()
            .map(|c| c.client().stats().retransmissions)
            .sum()
    };
    let retransmissions_before = retransmissions(&clients);
    let window = Window::open(&w.sim, &w.net, &w.hosts, tracer);
    if let Err(e) = drive(
        &mut w.sim,
        &clients,
        &mut streams,
        p.warmup_per_client + p.measured_per_client,
        tracer,
    ) {
        violations.push(e);
    }
    let window = window.close(&w.sim, &w.net, &w.hosts);
    let peak_live = alloc::read().peak - heap_base;
    let client_retransmissions = retransmissions(&clients) - retransmissions_before;

    // Check the whole history, warm-up included.
    w.sim.run_until_idle();
    let mut history: Vec<KvEvent> = clients.iter().flat_map(KvClient::history).collect();
    history.sort_by_key(|e| (e.invoke, e.response, e.client));
    if let Err(e) = check_linearizable(&history) {
        violations.push(format!("history is not linearizable: {e}"));
    }
    check_executed_logs(&replicas, &mut violations);

    let mut samples = Vec::new();
    let mut extras = LapExtras {
        client_retransmissions,
        ..LapExtras::default()
    };
    for e in history.iter().filter(|e| e.invoke >= window.open_ns) {
        let Some(response) = e.response else { continue };
        let latency_ns = response - e.invoke;
        samples.push(OpSample {
            latency_ns,
            completed_ns: response,
        });
        match e.op {
            KvHistOp::Get { .. } => extras.read_latency_ns.push(latency_ns),
            KvHistOp::Put { .. } | KvHistOp::Del { .. } => {
                extras.write_latency_ns.push(latency_ns);
            }
        }
    }
    extras.kv_history = Some(history);

    Lap {
        setup,
        window,
        attempted: CLIENTS as u64 * p.measured_per_client,
        samples,
        violations,
        peak_live,
        extras,
    }
}
