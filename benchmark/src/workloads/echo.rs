//! `echo_rubin`: the paper's Fig. 4 experiment — an echo through the
//! Reptor comm stack on one machine, window 30, bursts of 10.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use reptor::Transport;
use simnet::Simulator;

use super::{step, Scale, MAX_EVENTS};
use crate::alloc;
use crate::measure::{Lap, LapExtras, OpSample, Window};
use crate::trace::Tracer;
use crate::world::{self, Stack};

/// Paper parameters (§V): the client keeps up to 30 echoes outstanding
/// and injects them in bursts of 10; messages are 1 KB.
const WINDOW: usize = 30;
const BURST: usize = 10;
const PAYLOAD: usize = 1024;

const SERVER: u32 = 0;
const CLIENT: u32 = 1;

struct ClientState {
    seed: u64,
    /// Messages to send in total (raised when the measured phase starts).
    total: u64,
    sent: u64,
    completed: u64,
    /// `(index, send instant)` of every echo still outstanding.
    in_flight: VecDeque<(u64, u64)>,
    /// Index of the first measured message.
    measured_from: u64,
    samples: Vec<OpSample>,
    mismatches: u64,
}

fn top_up(sim: &mut Simulator, client: &Rc<dyn Transport>, state: &Rc<RefCell<ClientState>>) {
    loop {
        let burst = {
            let s = state.borrow();
            if s.sent >= s.total || s.in_flight.len() + BURST > WINDOW {
                0
            } else {
                (BURST as u64).min(s.total - s.sent)
            }
        };
        if burst == 0 {
            return;
        }
        for _ in 0..burst {
            let msg = {
                let mut s = state.borrow_mut();
                s.sent += 1;
                let index = s.sent;
                s.in_flight.push_back((index, sim.now().as_nanos()));
                world::payload(s.seed, index, PAYLOAD)
            };
            client.send(sim, SERVER, msg);
        }
    }
}

fn run_until(
    sim: &mut Simulator,
    state: &Rc<RefCell<ClientState>>,
    until: u64,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let start = sim.executed_events();
    while state.borrow().completed < until {
        if !step(sim, tracer, CLIENT) {
            return Err(format!(
                "echo stalled at {}/{until}",
                state.borrow().completed
            ));
        }
        if sim.executed_events() - start > MAX_EVENTS {
            return Err(format!(
                "echo runaway at {}/{until}",
                state.borrow().completed
            ));
        }
    }
    Ok(())
}

/// 5 000 warm-up + 60 000 measured 1 KB echoes over `RubinTransport`.
pub fn echo_rubin(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Lap {
    let warmup = scale.ops(5_000);
    let measured = scale.ops(60_000);

    let heap_base = alloc::reset_peak();
    let setup_started = Instant::now();
    let mut w = world::local_pair(Stack::Rubin, seed, tracer);
    let server = w.transports[SERVER as usize].clone();
    let client = w.transports[CLIENT as usize].clone();

    let echo_via = server.clone();
    server.set_delivery(Rc::new(move |sim, from, bytes| {
        echo_via.send(sim, from, bytes);
    }));

    let state = Rc::new(RefCell::new(ClientState {
        seed,
        total: warmup,
        sent: 0,
        completed: 0,
        in_flight: VecDeque::new(),
        measured_from: warmup + 1,
        samples: Vec::with_capacity(measured as usize),
        mismatches: 0,
    }));
    let st = state.clone();
    let refill = client.clone();
    client.set_delivery(Rc::new(move |sim, _from, bytes| {
        {
            let mut s = st.borrow_mut();
            let (index, sent_ns) = s.in_flight.pop_front().expect("an echo is outstanding");
            let now = sim.now().as_nanos();
            if bytes != world::payload(s.seed, index, PAYLOAD) {
                s.mismatches += 1;
            } else if index >= s.measured_from {
                s.samples.push(OpSample {
                    latency_ns: now - sent_ns,
                    completed_ns: now,
                });
            }
            s.completed += 1;
        }
        top_up(sim, &refill, &st);
    }));

    let mut violations = Vec::new();
    top_up(&mut w.sim, &client, &state);
    if let Err(e) = run_until(&mut w.sim, &state, warmup, tracer) {
        violations.push(format!("warm-up: {e}"));
    }
    let setup = setup_started.elapsed();

    let window = Window::open(&w.sim, &w.net, &w.hosts, tracer);
    state.borrow_mut().total = warmup + measured;
    top_up(&mut w.sim, &client, &state);
    if let Err(e) = run_until(&mut w.sim, &state, warmup + measured, tracer) {
        violations.push(e);
    }
    let window = window.close(&w.sim, &w.net, &w.hosts);
    let peak_live = alloc::read().peak - heap_base;

    let mut s = state.borrow_mut();
    if s.mismatches > 0 {
        violations.push(format!("{} echoes differ from what was sent", s.mismatches));
    }
    Lap {
        setup,
        window,
        attempted: measured,
        samples: std::mem::take(&mut s.samples),
        violations,
        peak_live,
        extras: LapExtras::default(),
    }
}
