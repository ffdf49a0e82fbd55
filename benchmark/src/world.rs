//! Building the simulated world a lap runs in: the seeded machine, the
//! hosts, and one transport per node over the chosen comm stack.
//!
//! Only public constructors of the layers are used
//! (`{Rubin,Nio,Sim}Transport::build_group`), never `crates/bench` or
//! `kvstore::harness`, so those stay free to change.

use std::rc::Rc;

use bft_crypto::CryptoCostModel;
use rdma_verbs::RnicModel;
use reptor::{NioTransport, RubinTransport, SimTransport, Transport};
use rubin::RubinConfig;
use simnet::{CoreId, CpuModel, HostId, LinkSpec, Network, Simulator, SplitMix64, TestBed};
use simnet_socket::TcpModel;

use crate::trace::Tracer;

/// Which comm stack the group's transports run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// RUBIN over the simulated RNIC (`RnicModel::mt27520`,
    /// `RubinConfig::paper`) — the paper's contribution.
    Rubin,
    /// Java-NIO-style TCP (`TcpModel::linux_xeon`) — the paper's baseline.
    Nio,
    /// Direct fabric delivery: wire timing, no comm-stack CPU model.
    Direct,
}

/// Manufacturing tolerance of the seeded machine: every CPU and NIC cost
/// constant is scaled by a factor within `1 ± MACHINE_TOLERANCE`.
///
/// Without it a seed could only change payload bytes and key choices, and
/// several simulated times are pure sums of model constants — a one-sided
/// READ quorum is 15.000 µs whatever the seed — so they would read the
/// same to the last digit on every run, which a benchmark driver cannot
/// tell from a hard-coded number. Two machines of one model differ by more
/// than this. Protocol timeouts (TCP RTO, RNR timer, view-change timer)
/// are policy, not hardware, and stay exact.
pub const MACHINE_TOLERANCE: f64 = 0.002;

/// The cost models of one seeded machine room.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Host CPU (copies, syscalls, interrupts, runtime overhead).
    pub cpu: CpuModel,
    /// RNIC (posting, DMA, completions).
    pub rnic: RnicModel,
    /// Kernel TCP stack (per-segment costs).
    pub tcp: TcpModel,
    /// RUBIN channel/selector configuration (selector and cache costs).
    pub rubin: RubinConfig,
    /// MAC and digest CPU costs charged by the agreement layer.
    pub crypto: CryptoCostModel,
}

impl Machine {
    /// Draws the machine for `seed`.
    pub fn new(seed: u64) -> Machine {
        let mut rng = SplitMix64::new(seed ^ 0x4D41_4348_494E_4531);
        let mut factor = move || 1.0 + MACHINE_TOLERANCE * (2.0 * rng.next_f64() - 1.0);
        let mut ns = |v: &mut u64| *v = (*v as f64 * factor()).round() as u64;

        let mut cpu = CpuModel::xeon_v2();
        ns(&mut cpu.syscall_ns);
        ns(&mut cpu.interrupt_ns);
        ns(&mut cpu.runtime_io_ns);

        let mut rnic = RnicModel::mt27520();
        ns(&mut rnic.post_wr_ns);
        ns(&mut rnic.post_batch_extra_ns);
        ns(&mut rnic.wqe_fetch_ns);
        ns(&mut rnic.dma_fetch_base_ns);
        ns(&mut rnic.cqe_ns);
        ns(&mut rnic.poll_cq_ns);
        ns(&mut rnic.handle_cqe_ns);

        let mut tcp = TcpModel::linux_xeon();
        ns(&mut tcp.segment_tx_ns);
        ns(&mut tcp.segment_rx_ns);
        ns(&mut tcp.connect_ns);

        let mut rubin = RubinConfig::paper();
        ns(&mut rubin.select_ns);
        ns(&mut rubin.reg_cache_ns);

        let mut crypto = CryptoCostModel::xeon_v2_java();
        ns(&mut crypto.hmac_base_ns);
        ns(&mut crypto.digest_base_ns);

        cpu.copy_ns_per_byte *= factor();
        rnic.dma_ns_per_byte *= factor();
        crypto.hmac_ns_per_byte *= factor();
        crypto.digest_ns_per_byte *= factor();
        Machine {
            cpu,
            rnic,
            tcp,
            rubin,
            crypto,
        }
    }
}

/// The seed of lap `lap` of a run seeded with `seed`: every lap is an
/// independent draw of machine and inputs.
pub fn lap_seed(seed: u64, lap: u64) -> u64 {
    SplitMix64::new(seed ^ lap.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// A simulated world with one transport per node.
pub struct World {
    /// The simulator (seeded with the lap seed).
    pub sim: Simulator,
    /// The fabric.
    pub net: Network,
    /// Hosts, in creation order.
    pub hosts: Vec<HostId>,
    /// `transports[i]` belongs to node `i`.
    pub transports: Vec<Rc<dyn Transport>>,
    /// The machine the world was built from.
    pub machine: Machine,
}

fn build_transports(
    stack: Stack,
    machine: &Machine,
    sim: &mut Simulator,
    net: &Network,
    nodes: &[(u32, HostId, CoreId)],
    tracer: Option<&Tracer>,
) -> Vec<Rc<dyn Transport>> {
    let plain: Vec<Rc<dyn Transport>> = match stack {
        Stack::Direct => {
            let pairs: Vec<(u32, HostId)> = nodes.iter().map(|&(n, h, _)| (n, h)).collect();
            SimTransport::build_group(net, &pairs)
                .into_iter()
                .map(|t| Rc::new(t) as Rc<dyn Transport>)
                .collect()
        }
        Stack::Nio => {
            let ts = NioTransport::build_group(sim, net, nodes, machine.tcp.clone());
            sim.run_until_idle();
            ts.into_iter()
                .map(|t| Rc::new(t) as Rc<dyn Transport>)
                .collect()
        }
        Stack::Rubin => {
            let ts = RubinTransport::build_group(
                sim,
                net,
                nodes,
                machine.rnic.clone(),
                machine.rubin.clone(),
            );
            sim.run_until_idle();
            ts.into_iter()
                .map(|t| Rc::new(t) as Rc<dyn Transport>)
                .collect()
        }
    };
    match tracer {
        Some(tr) => plain.into_iter().map(|t| tr.wrap(t)).collect(),
        None => plain,
    }
}

/// A full-mesh cluster of `nodes` 4-core hosts (10 GbE links), node `i`
/// on host `i`, core 0.
pub fn cluster(stack: Stack, seed: u64, nodes: usize, tracer: Option<&Tracer>) -> World {
    let machine = Machine::new(seed);
    let mut sim = Simulator::new(seed);
    let net = Network::new();
    let hosts: Vec<HostId> = (0..nodes)
        .map(|i| net.add_host(format!("node-{i}"), 4, machine.cpu.clone()))
        .collect();
    net.connect_full_mesh(LinkSpec::ten_gbe());
    let placed: Vec<(u32, HostId, CoreId)> = hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| (i as u32, h, CoreId(0)))
        .collect();
    let transports = build_transports(stack, &machine, &mut sim, &net, &placed, tracer);
    World {
        sim,
        net,
        hosts,
        transports,
        machine,
    }
}

/// The paper's local run (Fig. 4): one 4-core host, node 0 (server) on
/// core 0 and node 1 (client) on core 2.
pub fn local_pair(stack: Stack, seed: u64, tracer: Option<&Tracer>) -> World {
    let machine = Machine::new(seed);
    let mut sim = Simulator::new(seed);
    let net = Network::new();
    let host = net.add_host("local", 4, machine.cpu.clone());
    let placed = [(0u32, host, CoreId(0)), (1u32, host, CoreId(2))];
    let transports = build_transports(stack, &machine, &mut sim, &net, &placed, tracer);
    World {
        sim,
        net,
        hosts: vec![host],
        transports,
        machine,
    }
}

/// The paper's two-machine testbed (two 4-core hosts, one 10 GbE link)
/// built from the seeded machine; the layer probes run on it.
pub fn testbed(seed: u64) -> (TestBed, Machine) {
    let machine = Machine::new(seed);
    let net = Network::new();
    let a = net.add_host("machine-a", 4, machine.cpu.clone());
    let b = net.add_host("machine-b", 4, machine.cpu.clone());
    net.connect(a, b, LinkSpec::ten_gbe());
    let sim = Simulator::new(seed);
    (TestBed { sim, net, a, b }, machine)
}

/// The payload of operation `index` under `seed`: `len` pseudo-random
/// bytes, reproducible from `(seed, index)` alone so replies can be
/// checked without keeping the requests.
pub fn payload(seed: u64, index: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_reproducible_and_seed_dependent() {
        assert_eq!(payload(7, 3, 1024), payload(7, 3, 1024));
        assert_ne!(payload(7, 3, 1024), payload(7, 4, 1024));
        assert_ne!(payload(7, 3, 1024), payload(8, 3, 1024));
        assert_eq!(payload(1, 1, 13).len(), 13);
    }

    #[test]
    fn machines_stay_within_tolerance_and_differ_by_seed() {
        let nominal = RnicModel::mt27520();
        let a = Machine::new(1);
        let b = Machine::new(2);
        assert_ne!(
            (
                a.rnic.post_wr_ns,
                a.cpu.syscall_ns,
                a.crypto.hmac_ns_per_byte
            ),
            (
                b.rnic.post_wr_ns,
                b.cpu.syscall_ns,
                b.crypto.hmac_ns_per_byte
            )
        );
        for m in [&a, &b] {
            let ratio = m.rnic.post_wr_ns as f64 / nominal.post_wr_ns as f64;
            assert!((ratio - 1.0).abs() <= MACHINE_TOLERANCE + 1e-3);
            // Policy timers are not hardware: untouched.
            assert_eq!(m.rnic.timeout, nominal.timeout);
            assert_eq!(m.tcp.rto, TcpModel::linux_xeon().rto);
        }
        assert_eq!(Machine::new(1).rnic, a.rnic);
        assert_ne!(lap_seed(5, 0), lap_seed(5, 1));
    }
}
