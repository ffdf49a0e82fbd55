//! The seven workloads. Each is a function from `(seed, scale, tracer)` to
//! one [`Lap`]; the program under test only ever receives inputs generated
//! from the seed.

use std::collections::BTreeMap;

use reptor::Replica;
use simnet::Simulator;

use crate::measure::Lap;
use crate::trace::Tracer;
use crate::world::Stack;

mod echo;
mod failover;
mod kv;
mod pbft;

/// Which transport-level waterfall a workload's latency decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Transport echo: client → server transit + server → client transit.
    Echo,
    /// PBFT request: client → primary transit, four agreement phases,
    /// reply transit.
    Agreement,
    /// KV: one-sided READ quorum for served gets, the agreement waterfall
    /// for everything else.
    Kv,
}

/// A named workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: what it stresses and what it starves.
    pub why: &'static str,
    /// How its latency decomposes.
    pub shape: Shape,
    /// Replicas in the group (0 for the echo pair).
    pub replicas: u32,
    /// The comm stack under the group.
    pub stack: Stack,
    /// Replicas keep a WAL and snapshots.
    pub durable: bool,
    /// Requests are sent on a schedule (otherwise closed loop).
    pub open_loop: bool,
    /// Host seconds one full-size lap takes on the reference box; a run
    /// asked to measure for `s` seconds runs `s / lap_seconds` laps.
    pub lap_seconds: u64,
    run: fn(u64, Scale, Option<&Tracer>) -> Lap,
}

/// Full-size or `--quick` (one tenth of the ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the bounds were calibrated on.
    Full,
    /// One tenth of the ops, for smoke runs.
    Quick,
}

impl Scale {
    fn ops(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 10).max(1),
        }
    }
}

impl Workload {
    /// Runs one lap.
    pub fn lap(&self, seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Lap {
        (self.run)(seed, scale, tracer)
    }
}

/// All workloads, in `BENCHMARK.json` order.
pub const ALL: [Workload; 7] = [
    Workload {
        name: "echo_rubin",
        why: "Paper Fig. 4: 1 KB echo on one host over RUBIN, window 30, bursts of 10; only the comm stack works, agreement and crypto are idle",
        stack: Stack::Rubin,
        durable: false,
        open_loop: false,
        shape: Shape::Echo,
        replicas: 0,
        lap_seconds: 1,
        run: echo::echo_rubin,
    },
    Workload {
        name: "pbft_rubin",
        why: "4-replica PBFT over RUBIN, 1 KB, 8 outstanding: every layer is on the path, the default place a system-wide change is judged",
        stack: Stack::Rubin,
        durable: false,
        open_loop: false,
        shape: Shape::Agreement,
        replicas: 4,
        lap_seconds: 1,
        run: pbft::pbft_rubin,
    },
    Workload {
        name: "pbft_nio",
        why: "The same PBFT group over the NIO/TCP baseline stack: an RDMA-only change must leave it unmoved, a reptor-core change moves both",
        stack: Stack::Nio,
        durable: false,
        open_loop: false,
        shape: Shape::Agreement,
        replicas: 4,
        lap_seconds: 1,
        run: pbft::pbft_nio,
    },
    Workload {
        name: "pbft_cop_direct",
        why: "Direct fabric, 4 pillars, batch 1, 4 KB: agreement CPU (MACs, digests, executor) does all the work and the comm stack none",
        stack: Stack::Direct,
        durable: false,
        open_loop: false,
        shape: Shape::Agreement,
        replicas: 4,
        lap_seconds: 1,
        run: pbft::pbft_cop_direct,
    },
    Workload {
        name: "kv_read_heavy",
        why: "KV on RUBIN with read leases, 95% get: one-sided READs serve nearly every op with no replica CPU; p50 is the read path, p99 agreement",
        stack: Stack::Rubin,
        durable: false,
        open_loop: false,
        shape: Shape::Kv,
        replicas: 4,
        lap_seconds: 1,
        run: kv::kv_read_heavy,
    },
    Workload {
        name: "kv_update_heavy",
        why: "Same KV group, 80% put, WAL on: two-phase cell stamping, WAL appends and gets racing writes; a read gain paid for by writes shows here",
        stack: Stack::Rubin,
        durable: true,
        open_loop: false,
        shape: Shape::Kv,
        replicas: 4,
        lap_seconds: 1,
        run: kv::kv_update_heavy,
    },
    Workload {
        name: "failover",
        why: "Open loop at 2000 req/s while the primary crashes and restarts cold: time without service, requests due with no leader, rejoin under load",
        stack: Stack::Rubin,
        durable: true,
        open_loop: true,
        shape: Shape::Agreement,
        replicas: 4,
        lap_seconds: 2,
        run: failover::failover,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Runs a driver call, inside a driver span named `name` when tracing.
fn traced<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    node: u32,
    sim: &mut Simulator,
    call: impl FnOnce(&mut Simulator) -> R,
) -> R {
    match tracer {
        Some(t) => t.driver(name, node, sim, call),
        None => call(sim),
    }
}

/// Steps the simulator once.
fn step(sim: &mut Simulator, tracer: Option<&Tracer>, node: u32) -> bool {
    traced(tracer, "step", node, sim, Simulator::step)
}

/// Upper bound on simulator events per lap: a wedged run fails instead of
/// spinning.
const MAX_EVENTS: u64 = 200_000_000;

/// PBFT safety over the replicas' executed logs: no two replicas executed
/// different batches at the same sequence number. Linear in the log
/// lengths (the cluster helper's own check is quadratic).
fn check_executed_logs(replicas: &[Replica], violations: &mut Vec<String>) {
    let mut agreed: BTreeMap<u64, (u32, bft_crypto::Digest)> = BTreeMap::new();
    for r in replicas {
        for (seq, digest) in r.executed_log() {
            match agreed.get(&seq) {
                Some((first, d)) if *d != digest => violations.push(format!(
                    "replicas {first} and {} executed different batches at seq {seq}",
                    r.id()
                )),
                Some(_) => {}
                None => {
                    agreed.insert(seq, (r.id(), digest));
                }
            }
        }
    }
}
