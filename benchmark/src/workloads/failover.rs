//! `failover`: the fault run. An open-loop client keeps sending on a
//! schedule while the view-0 primary crashes and later restarts cold, so
//! requests due while there is no leader are counted, and the restarted
//! replica has to rejoin under load (WAL replay + delta state transfer).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use reptor::{
    ByzantineMode, Client, DurabilityConfig, KvOp, KvService, Replica, ReptorConfig, DOMAIN_SECRET,
};
use simnet::{Nanos, Simulator, SplitMix64};

use super::{check_executed_logs, step, traced, Scale, MAX_EVENTS};
use crate::alloc;
use crate::measure::{Lap, LapExtras, OpSample, Window};
use crate::trace::Tracer;
use crate::world::{self, Stack};

/// The fault timeline is fixed; `--quick` lowers the rate, not the length.
const SPAN: Nanos = Nanos::from_secs(2);
const CRASH_AFTER: Nanos = Nanos::from_millis(500);
const RESTART_AFTER: Nanos = Nanos::from_millis(1_200);
/// Every request must complete within this long of its due time.
const DEADLINE: Nanos = Nanos::from_secs(1);
/// A request slower than this was held up by the fault (fault-free
/// latency at this load is about a millisecond).
const LATE: Nanos = Nanos::from_millis(5);
const KEYS: u64 = 64;
const VALUE_BYTES: usize = 32;
const WARMUP_OUTSTANDING: usize = 8;

/// The victim: the primary of view 0.
const VICTIM: usize = 0;

fn put(seed: u64, index: u64) -> Vec<u8> {
    let key = SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_bounded(KEYS);
    KvOp::Put(
        format!("k{key:03}").into_bytes(),
        world::payload(seed, index, VALUE_BYTES),
    )
    .encode()
}

/// 4 000 puts at 2 000 req/s (≈ 30 % of what the group sustains closed
/// loop, so the backlog built up during the view change drains) over 2 s
/// simulated; replica 0 crashes at 0.5 s and restarts cold at 1.2 s.
pub fn failover(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Lap {
    let warmup = scale.ops(200);
    let measured = scale.ops(4_000);
    let interval_ns = SPAN.as_nanos() / measured;

    let heap_base = alloc::reset_peak();
    let setup_started = Instant::now();
    let n = ReptorConfig::small().n;
    let mut w = world::cluster(Stack::Rubin, seed, n + 1, tracer);
    let cfg = ReptorConfig {
        durability: Some(DurabilityConfig::default()),
        crypto: w.machine.crypto.clone(),
        ..ReptorConfig::small()
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
                Box::new(KvService::default()),
            )
        })
        .collect();
    let client = Client::new(
        n as u32,
        cfg.clone(),
        DOMAIN_SECRET,
        w.transports[n].clone(),
    );

    // Warm-up: closed loop, so connections and the first checkpoint exist.
    let mut violations = Vec::new();
    let mut submitted = 0;
    while client.stats().completed < warmup {
        while submitted < warmup && client.pending_count() < WARMUP_OUTSTANDING {
            submitted += 1;
            client.submit(&mut w.sim, put(seed, submitted));
        }
        if !step(&mut w.sim, tracer, client.id()) {
            violations.push("warm-up went idle".to_string());
            break;
        }
    }
    let setup = setup_started.elapsed();

    let retransmissions_before = client.stats().retransmissions;
    let window = Window::open(&w.sim, &w.net, &w.hosts, tracer);
    let t0 = w.sim.now();

    // The open-loop schedule: request `i` is due at `t0 + i / rate` and is
    // submitted by a simulator event at exactly that instant.
    let due_of: Rc<RefCell<HashMap<u64, u64>>> = Rc::new(RefCell::new(HashMap::new()));
    let lag: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::with_capacity(measured as usize)));
    for i in 0..measured {
        let due = t0 + Nanos::from_nanos(i * interval_ns);
        let client = client.clone();
        let due_of = due_of.clone();
        let lag = lag.clone();
        let tracer = tracer.cloned();
        w.sim.schedule_at(
            due,
            Box::new(move |sim: &mut Simulator| {
                let body = put(seed, warmup + i + 1);
                let ts = traced(tracer.as_ref(), "submit", client.id(), sim, |sim| {
                    client.submit(sim, body)
                });
                due_of.borrow_mut().insert(ts, due.as_nanos());
                lag.borrow_mut().push((sim.now() - due).as_nanos());
            }),
        );
    }
    let victim = replicas[VICTIM].clone();
    w.sim.schedule_at(
        t0 + CRASH_AFTER,
        Box::new(move |_sim: &mut Simulator| victim.set_byzantine(ByzantineMode::Crash)),
    );
    let victim = replicas[VICTIM].clone();
    w.sim.schedule_at(
        t0 + RESTART_AFTER,
        Box::new(move |sim: &mut Simulator| victim.restart(sim, Box::new(KvService::default()))),
    );

    let crash_ns = (t0 + CRASH_AFTER).as_nanos();
    let restart_ns = (t0 + RESTART_AFTER).as_nanos();
    let give_up = t0 + SPAN + DEADLINE;
    let mut extras = LapExtras::default();
    let survivors = || replicas.iter().filter(|r| r.id() as usize != VICTIM);
    let watch = |sim: &Simulator, extras: &mut LapExtras| {
        let now = sim.now().as_nanos();
        if extras.view_change_ns.is_none() && now >= crash_ns && survivors().any(|r| r.view() > 0) {
            extras.view_change_ns = Some(now - crash_ns);
        }
        if extras.rejoin_ns.is_none() && now >= restart_ns {
            let v = &replicas[VICTIM];
            let behind = survivors().map(Replica::last_executed).min().unwrap_or(0);
            if !v.transfer_in_progress() && v.last_executed() >= behind {
                extras.rejoin_ns = Some(now - restart_ns);
            }
        }
    };
    let start = w.sim.executed_events();
    let total = warmup + measured;
    while client.stats().completed < total && w.sim.now() < give_up {
        if !step(&mut w.sim, tracer, client.id()) {
            break;
        }
        watch(&w.sim, &mut extras);
        if w.sim.executed_events() - start > MAX_EVENTS {
            violations.push("failover run exceeded its event budget".to_string());
            break;
        }
    }
    let window = window.close(&w.sim, &w.net, &w.hosts);
    let peak_live = alloc::read().peak - heap_base;

    // Give the restarted replica a bounded quiet period to finish
    // rejoining, then let everything drain.
    let quiet_until = w.sim.now() + DEADLINE;
    while extras.rejoin_ns.is_none() && w.sim.now() < quiet_until && w.sim.step() {
        watch(&w.sim, &mut extras);
    }
    w.sim.run_until_idle();

    let due_of = due_of.borrow();
    let mut samples = Vec::with_capacity(measured as usize);
    for c in client.completions() {
        let Some(&due) = due_of.get(&c.timestamp) else {
            continue; // warm-up
        };
        let latency_ns = c.completed_at.as_nanos() - due;
        if c.result != b"OK" {
            violations.push(format!("put {} answered {:?}", c.timestamp, c.result));
        } else if latency_ns <= DEADLINE.as_nanos() {
            samples.push(OpSample {
                latency_ns,
                completed_ns: c.completed_at.as_nanos(),
            });
            if latency_ns > LATE.as_nanos() {
                extras.ops_late += 1;
            }
        }
    }
    check_executed_logs(&replicas, &mut violations);
    // A restarted replica stays a passive learner in its old view and
    // catches up in checkpoint-sized strides, so once the load stops it
    // may trail the group by part of an interval; it must have drawn
    // level under load, and stay within one interval afterwards.
    let group = survivors().map(Replica::last_executed).max().unwrap_or(0);
    let victim_at = replicas[VICTIM].last_executed();
    if extras.rejoin_ns.is_none() || victim_at + cfg.checkpoint_interval < group {
        violations.push(format!(
            "restarted replica never rejoined: it is at seq {victim_at}, the group at {group}"
        ));
    }
    let digests: Vec<_> = survivors()
        .map(|r| r.with_service(|s| s.state_digest()))
        .collect();
    if digests.windows(2).any(|d| d[0] != d[1]) {
        violations.push("surviving replicas' states diverged".to_string());
    }

    extras.generator_lag_ns = std::mem::take(&mut *lag.borrow_mut());
    extras.client_retransmissions = client.stats().retransmissions - retransmissions_before;
    extras.final_primary = replicas
        .iter()
        .find(|r| r.is_primary() && r.view() > 0)
        .map_or(1, Replica::id);
    Lap {
        setup,
        window,
        attempted: measured,
        samples,
        violations,
        peak_live,
        extras,
    }
}
