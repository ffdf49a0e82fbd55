//! # simnet — deterministic discrete-event network & host simulator
//!
//! `simnet` is the substrate for the RUBIN reproduction: it stands in for the
//! paper's physical testbed (two 4-core Xeon v2 machines, Mellanox RoCE NICs,
//! a 10 Gbps full-duplex link) with a fully deterministic simulation.
//!
//! The crate provides *mechanism only*:
//!
//! * [`Simulator`] — a nanosecond-resolution event loop. Events are closures;
//!   ordering is `(time, scheduling order)`, so runs are reproducible.
//! * [`Host`] — a machine with N cores. Protocol layers charge CPU work
//!   (copies, syscalls, MAC computation) to cores via [`Host::exec`]; work on
//!   one core serializes, work on different cores overlaps.
//! * [`Network`] — hosts joined by full-duplex [`LinkSpec`] links with
//!   bandwidth, propagation delay, MTU segmentation overhead, and an
//!   implicit per-host loopback. [`Network::send`] carries any `Clone`
//!   message type by value inside its delivery event; the handler bound to
//!   the destination [`Addr`] takes it out of a borrowed [`Frame`].
//! * [`FaultPlane`] — partitions, probabilistic loss, duplication,
//!   corruption, reordering jitter, host crash/restart, and added delay,
//!   applied deterministically from the simulator's seeded RNG.
//! * [`ChaosSchedule`] — scripted `(time, fault)` timelines applied over
//!   simulated time, so whole failure scenarios replay byte-identically
//!   from a seed.
//! * [`LatencyRecorder`] / [`Series`] — measurement helpers used by the
//!   benchmark harness to regenerate the paper's figures.
//! * [`Selector`] — the selector core both comm stacks share: selection
//!   keys with interest and ready sets, and one blocking `select()` per
//!   core, each charging its select calls to its core.
//!
//! Protocol *policy* — TCP's double copy, verbs queue pairs, RDMA zero-copy —
//! lives in the `simnet-socket` and `rdma-verbs` crates built on top.
//!
//! # Example: two hosts exchanging a frame
//!
//! ```
//! use simnet::{Addr, CpuModel, LinkSpec, Network, Simulator};
//!
//! let mut sim = Simulator::new(42);
//! let net = Network::new();
//! let a = net.add_host("client", 4, CpuModel::xeon_v2());
//! let b = net.add_host("server", 4, CpuModel::xeon_v2());
//! net.connect(a, b, LinkSpec::ten_gbe());
//!
//! net.bind(Addr::new(b, 1), Box::new(|sim, frame| {
//!     let wire_bytes = frame.wire_bytes;
//!     let seq: u64 = frame.into_payload().expect("a u64 payload");
//!     println!("got #{seq}, {wire_bytes} wire bytes, at {}", sim.now());
//! }));
//! net.send(&mut sim, Addr::new(a, 1), Addr::new(b, 1), 1024, 7u64);
//! sim.run_until_idle();
//! assert_eq!(net.stats().delivered, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
mod disk;
mod event;
mod fault;
mod frame;
mod host;
pub mod metrics;
mod net;
mod pool;
mod sched;
mod selector;
mod sim;
mod stats;
mod time;
mod topo;
pub mod zipf;

pub use chaos::{ChaosAction, ChaosSchedule};
pub use disk::{DiskFault, DiskSpec, SimDisk};
pub use event::{Action, EventFn, EventId, QueueStats};
pub use fault::{FaultCoins, FaultPlane, FaultVerdict};
pub use frame::{Addr, Frame};
pub use host::{CoreId, CpuModel, Host, HostId, HostRef};
pub use metrics::{
    Counter, Counters, Gauge, Gauges, Histo, Histogram, HistogramSummary, Histos, MetricKind,
    Metrics, MetricsSnapshot, TraceEvent,
};
pub use net::{FrameHandler, LinkId, LinkSpec, NetStats, Network};
pub use pool::{BytePool, PoolStats};
pub use sched::CoreAffinity;
pub use selector::{KeyId, SelectOps, Selected, Selector};
pub use sim::Simulator;
pub use stats::{
    render_table, throughput_ops_per_sec, LatencyRecorder, LatencySummary, Series, SeriesPoint,
};
pub use time::{Bandwidth, Nanos};
pub use topo::LatencyMatrix;
pub use zipf::{KeyDist, SplitMix64};

/// A ready-made two-host world mirroring the paper's testbed: two 4-core
/// hosts, one 10 Gbps full-duplex link.
///
/// # Examples
///
/// ```
/// use simnet::TestBed;
///
/// let tb = TestBed::paper_testbed(1);
/// assert_eq!(tb.net.num_hosts(), 2);
/// ```
#[derive(Debug)]
pub struct TestBed {
    /// The simulator (time starts at zero).
    pub sim: Simulator,
    /// The network with both hosts connected.
    pub net: Network,
    /// First host ("machine A" — typically the client).
    pub a: HostId,
    /// Second host ("machine B" — typically the server).
    pub b: HostId,
}

impl TestBed {
    /// Builds the paper's two-machine testbed with the given RNG seed.
    pub fn paper_testbed(seed: u64) -> TestBed {
        let sim = Simulator::new(seed);
        let net = Network::new();
        let a = net.add_host("machine-a", 4, CpuModel::xeon_v2());
        let b = net.add_host("machine-b", 4, CpuModel::xeon_v2());
        net.connect(a, b, LinkSpec::ten_gbe());
        TestBed { sim, net, a, b }
    }

    /// Builds an `n`-host full-mesh cluster (for replicated experiments).
    pub fn cluster(seed: u64, n: usize) -> (Simulator, Network, Vec<HostId>) {
        let sim = Simulator::new(seed);
        let net = Network::new();
        let hosts: Vec<HostId> = (0..n)
            .map(|i| net.add_host(format!("replica-{i}"), 4, CpuModel::xeon_v2()))
            .collect();
        net.connect_full_mesh(LinkSpec::ten_gbe());
        (sim, net, hosts)
    }

    /// Builds an `n`-host full-mesh cluster whose links come from a
    /// [`LatencyMatrix`]: hosts are assigned to regions round-robin and
    /// every pair is connected with the (possibly asymmetric) specs of
    /// their regions. Returns the per-host region assignment alongside.
    pub fn geo_cluster(
        seed: u64,
        n: usize,
        topology: &LatencyMatrix,
    ) -> (Simulator, Network, Vec<HostId>, Vec<usize>) {
        let sim = Simulator::new(seed);
        let net = Network::new();
        let assignment = topology.round_robin(n);
        let hosts: Vec<HostId> = (0..n)
            .map(|i| {
                let region = topology.region_name(assignment[i]);
                net.add_host(format!("replica-{i}-{region}"), 4, CpuModel::xeon_v2())
            })
            .collect();
        topology.wire(&net, &hosts, &assignment);
        (sim, net, hosts, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let tb = TestBed::paper_testbed(0);
        assert_eq!(tb.net.num_hosts(), 2);
        assert_eq!(tb.net.host(tb.a).borrow().num_cores(), 4);
        assert_eq!(tb.net.host(tb.b).borrow().name(), "machine-b");
    }

    #[test]
    fn cluster_builds_full_mesh() {
        let (mut sim, net, hosts) = TestBed::cluster(0, 4);
        assert_eq!(hosts.len(), 4);
        // Any pair can exchange frames.
        net.send(
            &mut sim,
            Addr::new(hosts[0], 1),
            Addr::new(hosts[3], 1),
            10,
            (),
        );
        sim.run_until_idle();
        assert_eq!(net.stats().unroutable, 1);
    }
}
