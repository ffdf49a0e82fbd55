//! Cluster harness: the one place a replica group plus clients is wired
//! onto the simulated fabric, over any of the three comm stacks. Used by
//! tests, examples and the bench drivers (DESIGN.md "Building a world").

use std::collections::HashMap;
use std::rc::Rc;

use bft_crypto::Digest;
use rdma_verbs::RnicModel;
use rubin::RubinConfig;
use simnet::{CoreId, CpuModel, HostId, LatencyMatrix, Network, Simulator, TestBed};
use simnet_socket::TcpModel;

use crate::client::Client;
use crate::config::ReptorConfig;
use crate::messages::SeqNum;
use crate::nio_transport::NioTransport;
use crate::replica::Replica;
use crate::rubin_transport::RubinTransport;
use crate::state::StateMachine;
use crate::transport::{NodeId, SimTransport, Transport};

/// Shared secret for the MAC key domain (stands in for key distribution).
pub const DOMAIN_SECRET: &[u8] = b"reptor-simulated-domain";

/// Simulator events [`Cluster::run_to_completion`] allows one wait before
/// it calls the run stalled.
const STALL_EVENTS: u64 = 20_000_000;

/// Which comm stack a group's transports run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// Direct fabric delivery ([`SimTransport`]): no comm-stack CPU model
    /// and no one-sided primitives — the protocol-logic upper bound.
    Direct,
    /// Java-NIO-style TCP stack ([`NioTransport`]), message path only.
    Nio,
    /// RUBIN RDMA stack ([`RubinTransport`]), one-sided reads and writes.
    Rubin,
}

impl Stack {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Stack::Direct => "Direct",
            Stack::Nio => "TCP (NIO)",
            Stack::Rubin => "RDMA (Rubin)",
        }
    }

    /// Builds this stack's full mesh over `nodes` under the paper's machine
    /// models (`TcpModel::linux_xeon`, `RnicModel::mt27520`,
    /// `RubinConfig::paper`) and runs the simulator until connections and
    /// hellos have settled. Endpoint `i` belongs to `nodes[i]`.
    pub fn mesh(
        self,
        sim: &mut Simulator,
        net: &Network,
        nodes: &[(NodeId, HostId, CoreId)],
    ) -> Vec<Rc<dyn Transport>> {
        fn dyns<T: Transport + 'static>(group: Vec<T>) -> Vec<Rc<dyn Transport>> {
            group
                .into_iter()
                .map(|t| Rc::new(t) as Rc<dyn Transport>)
                .collect()
        }
        let transports = match self {
            Stack::Direct => {
                let pairs: Vec<(NodeId, HostId)> = nodes.iter().map(|&(n, h, _)| (n, h)).collect();
                dyns(SimTransport::build_group(net, &pairs))
            }
            Stack::Nio => dyns(NioTransport::build_group(
                sim,
                net,
                nodes,
                TcpModel::linux_xeon(),
            )),
            Stack::Rubin => dyns(RubinTransport::build_group(
                sim,
                net,
                nodes,
                RnicModel::mt27520(),
                RubinConfig::paper(),
            )),
        };
        sim.run_until_idle();
        transports
    }
}

/// A fully wired replica group with clients.
pub struct Cluster {
    /// The simulator driving everything.
    pub sim: Simulator,
    /// The fabric.
    pub net: Network,
    /// The host of every node: replicas `0..n`, then the clients (which
    /// may share hosts).
    pub hosts: Vec<HostId>,
    /// Every node's transport endpoint, indexed like `hosts`.
    pub transports: Vec<Rc<dyn Transport>>,
    /// Replicas `0..n`.
    pub replicas: Vec<Replica>,
    /// Clients (node ids `n..n+c`).
    pub clients: Vec<Client>,
    /// The group configuration.
    pub cfg: ReptorConfig,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.replicas.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

impl Cluster {
    /// Builds a cluster on `stack`: each replica and each client gets its
    /// own 4-core host in a 10 GbE full mesh ([`TestBed::cluster`]).
    pub fn build(
        stack: Stack,
        cfg: ReptorConfig,
        num_clients: usize,
        seed: u64,
        service: impl FnMut() -> Box<dyn StateMachine>,
    ) -> Cluster {
        let (sim, net, hosts) = TestBed::cluster(seed, cfg.n + num_clients);
        Cluster::on_fabric(stack, cfg, sim, net, hosts, service)
    }

    /// Builds a cluster on an existing fabric: node `i` runs on `hosts[i]`
    /// (replicas `0..n`, then one entry per client), its comm stack's
    /// first reactor on core 0 and one more on each other core, over a
    /// settled `stack` mesh.
    pub fn on_fabric(
        stack: Stack,
        cfg: ReptorConfig,
        mut sim: Simulator,
        net: Network,
        hosts: Vec<HostId>,
        service: impl FnMut() -> Box<dyn StateMachine>,
    ) -> Cluster {
        let nodes: Vec<(NodeId, HostId, CoreId)> = hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| (i as NodeId, h, CoreId(0)))
            .collect();
        let transports = stack.mesh(&mut sim, &net, &nodes);
        Cluster::with_transports(cfg, sim, net, hosts, transports, service)
    }

    /// Wires replicas `0..n` and clients `n..` onto the given, already
    /// established endpoints (`transports[i]` is node `i` on `hosts[i]`).
    /// This is where a test slips a wrapper around one endpoint.
    pub fn with_transports(
        cfg: ReptorConfig,
        sim: Simulator,
        net: Network,
        hosts: Vec<HostId>,
        transports: Vec<Rc<dyn Transport>>,
        mut service: impl FnMut() -> Box<dyn StateMachine>,
    ) -> Cluster {
        cfg.validate();
        assert_eq!(hosts.len(), transports.len(), "one host per endpoint");
        let replicas = (0..cfg.n)
            .map(|i| {
                Replica::new(
                    i as u32,
                    cfg.clone(),
                    DOMAIN_SECRET,
                    transports[i].clone(),
                    &net,
                    hosts[i],
                    service(),
                )
            })
            .collect();
        let clients = (cfg.n..transports.len())
            .map(|i| Client::new(i as u32, cfg.clone(), DOMAIN_SECRET, transports[i].clone()))
            .collect();
        Cluster {
            sim,
            net,
            hosts,
            transports,
            replicas,
            clients,
            cfg,
        }
    }

    /// [`Cluster::build`] over the direct [`SimTransport`].
    pub fn sim_transport(
        cfg: ReptorConfig,
        num_clients: usize,
        seed: u64,
        service: impl FnMut() -> Box<dyn StateMachine>,
    ) -> Cluster {
        Cluster::build(Stack::Direct, cfg, num_clients, seed, service)
    }

    /// Builds a geo-distributed cluster: replicas are spread round-robin
    /// across the topology's regions (one host each), and `num_clients`
    /// clients share `num_client_hosts` hosts — the shape needed to drive
    /// thousand-client scenarios without a thousand hosts. The view-change
    /// timeout is raised to the topology's [`LatencyMatrix::suggested_timeout`]
    /// if the configured one is too aggressive for the WAN RTTs.
    pub fn sim_transport_geo(
        mut cfg: ReptorConfig,
        num_clients: usize,
        num_client_hosts: usize,
        seed: u64,
        topology: &LatencyMatrix,
        service: impl FnMut() -> Box<dyn StateMachine>,
    ) -> Cluster {
        cfg.view_change_timeout = cfg.view_change_timeout.max(topology.suggested_timeout());
        let num_client_hosts = num_client_hosts.clamp(1, num_clients.max(1));
        let sim = Simulator::new(seed);
        let net = Network::new();
        let assignment = topology.round_robin(cfg.n + num_client_hosts);
        let fabric_hosts: Vec<HostId> = (0..cfg.n + num_client_hosts)
            .map(|i| {
                let region = topology.region_name(assignment[i]);
                let name = match i.checked_sub(cfg.n) {
                    None => format!("replica-{i}-{region}"),
                    Some(c) => format!("clients-{c}-{region}"),
                };
                net.add_host(name, 4, CpuModel::xeon_v2())
            })
            .collect();
        topology.wire(&net, &fabric_hosts, &assignment);

        let (replica_hosts, client_hosts) = fabric_hosts.split_at(cfg.n);
        let hosts = replica_hosts
            .iter()
            .chain(client_hosts.iter().cycle().take(num_clients))
            .copied()
            .collect();
        Cluster::on_fabric(Stack::Direct, cfg, sim, net, hosts, service)
    }

    /// The cluster-wide metrics registry (shared by every layer on the
    /// fabric: hosts, transports, and replicas).
    pub fn metrics(&self) -> simnet::Metrics {
        self.net.metrics()
    }

    /// A deterministic snapshot of every counter, gauge, histogram and
    /// trace event accumulated so far. Refreshes the `sim.events_*` and
    /// `pool.*` gauges from the event core and buffer pool first, so the
    /// snapshot always carries current simulator-health readings.
    pub fn metrics_snapshot(&self) -> simnet::MetricsSnapshot {
        self.net.publish_sim_gauges(&self.sim);
        self.net.metrics().snapshot()
    }

    /// Runs until the simulator is idle.
    pub fn settle(&mut self) {
        self.sim.run_until_idle();
    }

    /// Runs until every client has `want` completions or `max_events`
    /// events elapse. Returns true on success.
    pub fn run_until_completed(&mut self, want: u64, max_events: u64) -> bool {
        let start = self.sim.executed_events();
        loop {
            if self.clients.iter().all(|c| c.stats().completed >= want) {
                return true;
            }
            if !self.sim.step() {
                return false;
            }
            if self.sim.executed_events() - start > max_events {
                return false;
            }
        }
    }

    /// Steps the simulator until `done` holds.
    ///
    /// # Panics
    ///
    /// Panics if the simulator goes idle first ("went idle") or the wait
    /// outlasts [`STALL_EVENTS`] events ("stalled").
    fn step_until(&mut self, done: impl Fn(&Cluster) -> bool) {
        let start = self.sim.executed_events();
        while !done(self) {
            assert!(self.sim.step(), "simulation went idle before completion");
            assert!(
                self.sim.executed_events() - start < STALL_EVENTS,
                "agreement stalled"
            );
        }
    }

    /// Steps until every client has `want` completions, and not one event
    /// further (unlike [`Cluster::settle`], trailing timers stay queued).
    ///
    /// # Panics
    ///
    /// Panics if the simulator goes idle or the run stalls before that.
    pub fn run_to_completion(&mut self, want: u64) {
        self.step_until(|c| c.clients.iter().all(|cl| cl.stats().completed >= want));
    }

    /// Submits `payloads` from client 0 one at a time, stepping until each
    /// completes before the next goes out, so every request lands in its
    /// own agreement instance and sequence numbers advance one per request.
    ///
    /// # Panics
    ///
    /// Panics as [`Cluster::run_to_completion`] does.
    pub fn submit_sequentially(&mut self, payloads: impl IntoIterator<Item = Vec<u8>>) {
        let client = self.clients[0].clone();
        for payload in payloads {
            let want = client.stats().completed + 1;
            client.submit(&mut self.sim, payload);
            self.step_until(|_| client.stats().completed >= want);
        }
    }

    /// Asserts PBFT safety: no two replicas executed different batches at
    /// the same sequence number. Histories are compared only where both
    /// replicas executed — a replica that caught up by state transfer
    /// legitimately has a gap below the installed checkpoint.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violation, if any.
    pub fn assert_safety(&self) {
        assert_logs_agree(self.replicas.iter().map(Replica::executed_log));
    }
}

/// One pass over every replica's executed `(seq, batch digest)` history:
/// the first digest seen at a sequence number is what every later one at
/// that number must equal.
fn assert_logs_agree(logs: impl IntoIterator<Item = Vec<(SeqNum, Digest)>>) {
    let mut executed: HashMap<SeqNum, (usize, Digest)> = HashMap::new();
    for (replica, log) in logs.into_iter().enumerate() {
        for (seq, digest) in log {
            let (first, expected) = *executed.entry(seq).or_insert((replica, digest));
            assert_eq!(
                expected, digest,
                "replicas {first} and {replica} executed different batches at seq {seq}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(digests: &[(SeqNum, &[u8])]) -> Vec<(SeqNum, Digest)> {
        digests.iter().map(|&(s, d)| (s, Digest::of(d))).collect()
    }

    #[test]
    fn logs_with_gaps_agree_where_they_overlap() {
        // Replica 1 state-transferred past seqs 2..=3.
        assert_logs_agree([
            log(&[(1, b"a"), (2, b"b"), (3, b"c"), (4, b"d")]),
            log(&[(1, b"a"), (4, b"d")]),
            log(&[]),
        ]);
    }

    #[test]
    #[should_panic(expected = "replicas 0 and 2 executed different batches at seq 2")]
    fn logs_that_differ_at_one_sequence_number_are_caught() {
        assert_logs_agree([
            log(&[(1, b"a"), (2, b"b")]),
            log(&[(1, b"a")]),
            log(&[(1, b"a"), (2, b"x")]),
        ]);
    }
}
