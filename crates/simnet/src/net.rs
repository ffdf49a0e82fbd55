//! The network: hosts, links, frame routing, and fault application.
//!
//! [`Network`] is a cheaply cloneable handle (an `Rc` internally) shared by
//! every protocol layer in a simulation. Protocol endpoints *bind* a handler
//! to an [`Addr`]; [`Network::send`] models serialization on the connecting
//! link (store-and-forward at message granularity, per-segment header
//! overhead, full-duplex but serialized per direction), applies injected
//! faults, and schedules delivery to the destination handler.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rand::Rng;

use crate::fault::{FaultCoins, FaultPlane, FaultVerdict};
use crate::frame::{Addr, Frame, Header};
use crate::host::{CpuModel, Host, HostId, HostRef};
use crate::metrics::{Counters, Gauges, Metrics};
use crate::pool::{BytePool, PoolGauge};
use crate::sim::Simulator;
use crate::time::{Bandwidth, Nanos};

/// A frame-delivery callback registered on an address. It must take the
/// frame's payload within the call: the [`Frame`] only borrows it.
pub type FrameHandler = Box<dyn FnMut(&mut Simulator, Frame<'_>)>;

/// Identifier of a link within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub u32);

/// Static parameters of a point-to-point link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth per direction (links are full-duplex).
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub propagation: Nanos,
    /// Maximum transmission unit (payload bytes per wire segment).
    pub mtu: usize,
    /// Header bytes charged per segment (Ethernet + IP-level framing).
    pub per_segment_overhead: usize,
}

impl LinkSpec {
    /// The paper's testbed link: 10 Gbps full-duplex RoCE-capable Ethernet.
    pub fn ten_gbe() -> LinkSpec {
        LinkSpec {
            bandwidth: Bandwidth::gbps(10),
            propagation: Nanos::from_micros(1),
            mtu: 1500,
            per_segment_overhead: 58,
        }
    }

    /// Bytes actually occupying the wire for a `payload`-byte message.
    pub fn wire_size(&self, payload: usize) -> usize {
        let segments = payload.div_ceil(self.mtu).max(1);
        payload + segments * self.per_segment_overhead
    }

    /// Pure serialization time of a `payload`-byte message on this link.
    pub fn serialize_time(&self, payload: usize) -> Nanos {
        self.bandwidth.transmit_time(self.wire_size(payload))
    }
}

impl Default for LinkSpec {
    fn default() -> LinkSpec {
        LinkSpec::ten_gbe()
    }
}

#[derive(Debug)]
struct Link {
    /// Per-direction specs, keyed by source end (0 = ends.0 → ends.1).
    /// Symmetric links store the same spec twice; geo links built from a
    /// [`crate::LatencyMatrix`] may differ per direction.
    spec: [LinkSpec; 2],
    ends: (HostId, HostId),
    /// Wire-busy horizon for each direction, keyed by source end (0 = ends.0).
    busy_until: [Nanos; 2],
}

/// Aggregate delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames delivered to a bound handler.
    pub delivered: u64,
    /// Frames that arrived at an address with no bound handler.
    pub unroutable: u64,
}

crate::metric_names! {
    /// Fault counters of one directed host pair, under `net.<src>.<dst>.`.
    enum FaultCounter {
        Dropped => "faults_dropped",
        Corrupted => "faults_corrupted",
        Duplicated => "faults_duplicated",
    }
}

crate::metric_names! {
    /// Event-core gauges, under `sim.`; see
    /// [`QueueStats`](crate::QueueStats) for what each one counts.
    enum SimGauge {
        Scheduled => "events_scheduled",
        Executed => "events_executed",
        Cancelled => "events_cancelled",
        TombstonesPurged => "events_tombstones_purged",
        TombstonesLive => "events_tombstones_live",
        Compactions => "events_compactions",
        Pending => "events_pending",
        HighWater => "events_high_water",
    }
}

/// Latency of the host-local loopback path (same-host frames).
const LOOPBACK_DELAY: Nanos = Nanos::from_micros(5);

/// Serialization rate of the loopback path: RoCE loopback passes through
/// the adapter at port speed, kernel loopback is bounded by memory
/// bandwidth.
const LOOPBACK_BANDWIDTH: Bandwidth = Bandwidth::gbps(10);

struct NetInner {
    hosts: Vec<HostRef>,
    links: Vec<Link>,
    adjacency: HashMap<(HostId, HostId), usize>,
    handlers: HashMap<Addr, Rc<RefCell<FrameHandler>>>,
    faults: FaultPlane,
    /// Per-host loopback transmit horizon.
    loopback_busy: std::collections::HashMap<HostId, Nanos>,
    stats: NetStats,
    next_ephemeral_port: u32,
    metrics: Metrics,
    /// Fault counters per directed host pair, made on the pair's first
    /// injected fault.
    fault_counters: BTreeMap<(HostId, HostId), Counters<FaultCounter>>,
    sim_gauges: Gauges<SimGauge>,
    pool: BytePool,
    pool_gauges: Gauges<PoolGauge>,
}

/// Shared handle to the simulated network.
///
/// # Examples
///
/// ```
/// use simnet::{Addr, CpuModel, LinkSpec, Network, Simulator};
///
/// let mut sim = Simulator::new(1);
/// let net = Network::new();
/// let a = net.add_host("alpha", 4, CpuModel::xeon_v2());
/// let b = net.add_host("beta", 4, CpuModel::xeon_v2());
/// net.connect(a, b, LinkSpec::ten_gbe());
///
/// let dst = Addr::new(b, 7);
/// net.bind(dst, Box::new(|_sim, frame| {
///     let msg: String = frame.into_payload().expect("string payload");
///     assert_eq!(msg, "ping");
/// }));
/// net.send(&mut sim, Addr::new(a, 99), dst, 64, String::from("ping"));
/// sim.run_until_idle();
/// assert_eq!(net.stats().delivered, 1);
/// ```
#[derive(Clone)]
pub struct Network {
    inner: Rc<RefCell<NetInner>>,
}

impl Default for Network {
    fn default() -> Network {
        Network::new()
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Network")
            .field("hosts", &inner.hosts.len())
            .field("links", &inner.links.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Network {
        let metrics = Metrics::new();
        let pool = BytePool::new("net");
        Network {
            inner: Rc::new(RefCell::new(NetInner {
                hosts: Vec::new(),
                links: Vec::new(),
                adjacency: HashMap::new(),
                handlers: HashMap::new(),
                faults: FaultPlane::new(),
                loopback_busy: std::collections::HashMap::new(),
                stats: NetStats::default(),
                next_ephemeral_port: 49_152,
                fault_counters: BTreeMap::new(),
                sim_gauges: metrics.gauges("sim."),
                pool_gauges: pool.gauges(&metrics),
                metrics,
                pool,
            })),
        }
    }

    /// Adds a host with `cores` cores and the given CPU model; returns its id.
    pub fn add_host(&self, name: impl Into<String>, cores: usize, cpu: CpuModel) -> HostId {
        let mut inner = self.inner.borrow_mut();
        let id = HostId(inner.hosts.len() as u32);
        let host = Host::new(id, name, cores, cpu, inner.metrics.clone());
        inner.hosts.push(Rc::new(RefCell::new(host)));
        id
    }

    /// Handle to the shared metrics registry every layer of this network
    /// reports into. Clones are cheap and refer to the same registry.
    pub fn metrics(&self) -> Metrics {
        self.inner.borrow().metrics.clone()
    }

    /// Returns the shared handle to a host.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn host(&self, id: HostId) -> HostRef {
        self.inner.borrow().hosts[id.0 as usize].clone()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.inner.borrow().hosts.len()
    }

    /// Connects two hosts with a full-duplex link.
    ///
    /// # Panics
    ///
    /// Panics if the hosts are already connected or if `a == b`.
    pub fn connect(&self, a: HostId, b: HostId, spec: LinkSpec) -> LinkId {
        self.connect_asymmetric(a, b, spec.clone(), spec)
    }

    /// Connects two hosts with a link whose two directions have different
    /// specs (`spec_ab` for `a → b`, `spec_ba` for `b → a`) — the shape of
    /// real inter-region WAN paths, whose routes (and thus latency and
    /// capacity) differ per direction.
    ///
    /// # Panics
    ///
    /// Panics if the hosts are already connected or if `a == b`.
    pub fn connect_asymmetric(
        &self,
        a: HostId,
        b: HostId,
        spec_ab: LinkSpec,
        spec_ba: LinkSpec,
    ) -> LinkId {
        assert_ne!(a, b, "cannot link a host to itself (loopback is implicit)");
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.adjacency.contains_key(&(a, b)),
            "hosts {a} and {b} are already connected"
        );
        let idx = inner.links.len();
        inner.links.push(Link {
            spec: [spec_ab, spec_ba],
            ends: (a, b),
            busy_until: [Nanos::ZERO; 2],
        });
        inner.adjacency.insert((a, b), idx);
        inner.adjacency.insert((b, a), idx);
        LinkId(idx as u32)
    }

    /// The spec governing frames sent from `src` to `dst`, if the pair is
    /// connected.
    pub fn link_spec_between(&self, src: HostId, dst: HostId) -> Option<LinkSpec> {
        let inner = self.inner.borrow();
        let idx = *inner.adjacency.get(&(src, dst))?;
        let link = &inner.links[idx];
        let dir = usize::from(src != link.ends.0);
        Some(link.spec[dir].clone())
    }

    /// Connects every pair of hosts with identically specified links
    /// (full mesh), skipping pairs already connected.
    pub fn connect_full_mesh(&self, spec: LinkSpec) {
        let n = self.num_hosts() as u32;
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (HostId(i), HostId(j));
                if !self.inner.borrow().adjacency.contains_key(&(a, b)) {
                    self.connect(a, b, spec.clone());
                }
            }
        }
    }

    /// Registers `handler` for frames addressed to `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound.
    pub fn bind(&self, addr: Addr, handler: FrameHandler) {
        let mut inner = self.inner.borrow_mut();
        let prev = inner.handlers.insert(addr, Rc::new(RefCell::new(handler)));
        assert!(prev.is_none(), "address {addr} already bound");
    }

    /// Removes the handler bound to `addr` (no-op if unbound).
    pub fn unbind(&self, addr: Addr) {
        self.inner.borrow_mut().handlers.remove(&addr);
    }

    /// True if a handler is bound to `addr`.
    pub fn is_bound(&self, addr: Addr) -> bool {
        self.inner.borrow().handlers.contains_key(&addr)
    }

    /// Allocates a fresh ephemeral port number on `host`.
    pub fn ephemeral_port(&self, host: HostId) -> Addr {
        let mut inner = self.inner.borrow_mut();
        let port = inner.next_ephemeral_port;
        inner.next_ephemeral_port += 1;
        Addr::new(host, port)
    }

    /// Sends `payload` from `src` to `dst` as one frame charged as
    /// `wire_bytes` on the wire, modelling link serialization, propagation,
    /// and faults. Delivery (if any) is scheduled on `sim`, with the payload
    /// held by value in the delivery event until the handler bound to `dst`
    /// takes it ([`Frame::into_payload`]).
    ///
    /// Four fault coins are drawn from the simulator RNG for *every* frame,
    /// whether or not any fault rule is installed, so the random stream is
    /// independent of when chaos rules are toggled and a seeded run replays
    /// byte-identically. A fault-injected duplicate is a `T::clone`; a
    /// dropped frame's payload is simply dropped.
    ///
    /// # Panics
    ///
    /// Panics if the two hosts are distinct and not connected by a link, or
    /// if `wire_bytes` does not fit in a `u32`.
    pub fn send<T: Any + Clone>(
        &self,
        sim: &mut Simulator,
        src: Addr,
        dst: Addr,
        wire_bytes: usize,
        payload: T,
    ) {
        let mut header = Header::new(src, dst, wire_bytes);
        let coins = {
            let rng = sim.rng();
            FaultCoins {
                drop: rng.gen(),
                duplicate: rng.gen(),
                corrupt: rng.gen(),
                jitter: rng.gen(),
            }
        };
        let verdict = self.inner.borrow().faults.judge(src.host, dst.host, &coins);
        match verdict {
            FaultVerdict::Drop => {
                self.count_fault(&header, FaultCounter::Dropped);
            }
            FaultVerdict::Deliver {
                extra_delay,
                duplicate,
                corrupt,
            } => {
                if corrupt {
                    header.corrupted = true;
                    self.count_fault(&header, FaultCounter::Corrupted);
                }
                if duplicate {
                    self.count_fault(&header, FaultCounter::Duplicated);
                    self.transmit(sim, header, payload.clone(), extra_delay);
                }
                self.transmit(sim, header, payload, extra_delay);
            }
        }
    }

    /// Counts one injected fault on `header`'s directed host pair, making
    /// the pair's counters on its first fault.
    fn count_fault(&self, header: &Header, fault: FaultCounter) {
        let (src, dst) = (header.src.host, header.dst.host);
        let mut inner = self.inner.borrow_mut();
        let NetInner {
            metrics,
            fault_counters,
            ..
        } = &mut *inner;
        let counters = fault_counters
            .entry((src, dst))
            .or_insert_with(|| metrics.counters(&format!("net.{src}.{dst}.")));
        counters[fault].incr();
    }

    /// Serializes one frame copy on its link (or the loopback path) and
    /// schedules its delivery, the payload held by value in the event.
    fn transmit<T: Any>(&self, sim: &mut Simulator, header: Header, payload: T, extra: Nanos) {
        let (src, dst) = (header.src.host, header.dst.host);
        let wire_bytes = header.wire_bytes as usize;
        let now = sim.now();
        let deliver_at;
        {
            let mut inner = self.inner.borrow_mut();
            if src == dst {
                let ser = LOOPBACK_BANDWIDTH.transmit_time(wire_bytes);
                let busy = inner.loopback_busy.entry(src).or_insert(Nanos::ZERO);
                let start = now.max(*busy);
                *busy = start + ser;
                deliver_at = *busy + LOOPBACK_DELAY + extra;
            } else {
                let idx = *inner
                    .adjacency
                    .get(&(src, dst))
                    .unwrap_or_else(|| panic!("no link between {src} and {dst}"));
                let link = &mut inner.links[idx];
                let dir = usize::from(src != link.ends.0);
                let spec = &link.spec[dir];
                let wire = spec.wire_size(wire_bytes);
                let ser = spec.bandwidth.transmit_time(wire);
                let start = now.max(link.busy_until[dir]);
                link.busy_until[dir] = start + ser;
                deliver_at = link.busy_until[dir] + spec.propagation + extra;
            }
        }
        let net = self.clone();
        sim.schedule_at(deliver_at, move |sim| net.deliver(sim, header, payload));
    }

    fn deliver<T: Any>(&self, sim: &mut Simulator, header: Header, payload: T) {
        let mut payload = Some(payload);
        let handler = {
            let mut inner = self.inner.borrow_mut();
            let handler = inner.handlers.get(&header.dst).cloned();
            match handler {
                Some(_) => inner.stats.delivered += 1,
                None => inner.stats.unroutable += 1,
            }
            handler
        };
        // The handler takes the payload out of this stack frame's `Option`
        // through the `Frame` view. It may itself send frames or (un)bind
        // addresses, so the network borrow must be released before invoking
        // it.
        if let Some(handler) = handler {
            (handler.borrow_mut())(sim, Frame::view(header, &mut payload));
        }
        // Unroutable, or left by a handler whose endpoint is gone: the
        // payload drops here.
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats
    }

    /// Applies a function to the fault plane (partitions, loss, delay).
    pub fn with_faults<R>(&self, f: impl FnOnce(&mut FaultPlane) -> R) -> R {
        f(&mut self.inner.borrow_mut().faults)
    }

    /// The shared byte-buffer pool transports recycle per-message buffers
    /// through. Clones share one freelist.
    pub fn buffer_pool(&self) -> BytePool {
        self.inner.borrow().pool.clone()
    }

    /// Publishes the simulator's `sim.events_*` queue gauges and this
    /// network's `pool.*` occupancy gauges into the shared metrics
    /// registry, so snapshots capture event-core and allocation health.
    pub fn publish_sim_gauges(&self, sim: &Simulator) {
        let inner = self.inner.borrow();
        let g = &inner.sim_gauges;
        let q = sim.queue_stats();
        g[SimGauge::Scheduled].set(q.scheduled as i64);
        g[SimGauge::Executed].set(sim.executed_events() as i64);
        g[SimGauge::Cancelled].set(q.cancelled as i64);
        g[SimGauge::TombstonesPurged].set(q.tombstones_purged as i64);
        g[SimGauge::TombstonesLive].set(q.tombstones as i64);
        g[SimGauge::Compactions].set(q.compactions as i64);
        g[SimGauge::Pending].set(q.pending as i64);
        g[SimGauge::HighWater].set(q.high_water as i64);
        inner.pool.publish(&inner.pool_gauges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PooledBuf;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn two_host_net() -> (Simulator, Network, HostId, HostId) {
        let sim = Simulator::new(7);
        let net = Network::new();
        let a = net.add_host("a", 2, CpuModel::xeon_v2());
        let b = net.add_host("b", 2, CpuModel::xeon_v2());
        net.connect(a, b, LinkSpec::ten_gbe());
        (sim, net, a, b)
    }

    #[test]
    fn frame_delivery_latency_matches_link_model() {
        let (mut sim, net, a, b) = two_host_net();
        let spec = LinkSpec::ten_gbe();
        let arrived = Rc::new(RefCell::new(None));
        let arr = arrived.clone();
        let dst = Addr::new(b, 1);
        net.bind(
            dst,
            Box::new(move |sim, _f| {
                *arr.borrow_mut() = Some(sim.now());
            }),
        );
        net.send(&mut sim, Addr::new(a, 9), dst, 1500, ());
        sim.run_until_idle();
        let expect = spec.serialize_time(1500) + spec.propagation;
        assert_eq!(arrived.borrow().unwrap(), expect);
    }

    #[test]
    fn back_to_back_frames_serialize_on_the_wire() {
        let (mut sim, net, a, b) = two_host_net();
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        let dst = Addr::new(b, 1);
        net.bind(dst, Box::new(move |sim, _f| t.borrow_mut().push(sim.now())));
        for _ in 0..2 {
            net.send(&mut sim, Addr::new(a, 9), dst, 1500, ());
        }
        sim.run_until_idle();
        let times = times.borrow();
        let spec = LinkSpec::ten_gbe();
        let ser = spec.serialize_time(1500);
        assert_eq!(times[0], ser + spec.propagation);
        // Second frame waits for the first to finish serializing.
        assert_eq!(times[1], ser * 2 + spec.propagation);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let (mut sim, net, a, b) = two_host_net();
        let times = Rc::new(RefCell::new(Vec::new()));
        for (src, dst) in [(a, b), (b, a)] {
            let t = times.clone();
            let addr = Addr::new(dst, 1);
            net.bind(
                addr,
                Box::new(move |sim, _f| t.borrow_mut().push(sim.now())),
            );
            net.send(&mut sim, Addr::new(src, 9), addr, 1500, ());
        }
        sim.run_until_idle();
        let times = times.borrow();
        // Full duplex: both arrive at the same instant.
        assert_eq!(times[0], times[1]);
    }

    #[test]
    fn partition_drops_frames() {
        let (mut sim, net, a, b) = two_host_net();
        net.bind(Addr::new(b, 1), Box::new(|_, _| panic!("must not deliver")));
        net.with_faults(|f| f.partition(a, b));
        net.send(&mut sim, Addr::new(a, 9), Addr::new(b, 1), 100, ());
        sim.run_until_idle();
        assert_eq!(net.metrics().total("faults_dropped"), 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn duplication_delivers_twice_and_charges_link_metrics() {
        let (mut sim, net, a, b) = two_host_net();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        let dst = Addr::new(b, 1);
        net.bind(
            dst,
            Box::new(move |_sim, frame| {
                let bytes: Vec<u8> = frame.into_payload().expect("bytes payload");
                assert_eq!(bytes, vec![9u8; 16]);
                *c.borrow_mut() += 1;
            }),
        );
        net.with_faults(|f| f.set_duplication(a, b, 1.0));
        net.send(&mut sim, Addr::new(a, 9), dst, 16, vec![9u8; 16]);
        sim.run_until_idle();
        assert_eq!(*count.borrow(), 2);
        assert_eq!(net.metrics().total("faults_duplicated"), 1);
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.metrics().counter("net.h0.h1.faults_duplicated"), 1);
    }

    #[test]
    fn corruption_marks_frame_and_charges_link_metrics() {
        let (mut sim, net, a, b) = two_host_net();
        let saw_corrupt = Rc::new(RefCell::new(false));
        let s = saw_corrupt.clone();
        let dst = Addr::new(b, 1);
        net.bind(
            dst,
            Box::new(move |_sim, frame| {
                *s.borrow_mut() = frame.corrupted;
            }),
        );
        net.with_faults(|f| f.set_corruption(a, b, 1.0));
        net.send(&mut sim, Addr::new(a, 9), dst, 16, ());
        sim.run_until_idle();
        assert!(*saw_corrupt.borrow());
        assert_eq!(net.metrics().total("faults_corrupted"), 1);
        assert_eq!(net.metrics().counter("net.h0.h1.faults_corrupted"), 1);
    }

    #[test]
    fn drops_are_charged_per_link() {
        let (mut sim, net, a, b) = two_host_net();
        net.with_faults(|f| f.set_loss(a, b, 1.0));
        net.send(&mut sim, Addr::new(a, 9), Addr::new(b, 1), 100, ());
        sim.run_until_idle();
        assert_eq!(net.metrics().total("faults_dropped"), 1);
        assert_eq!(net.metrics().counter("net.h0.h1.faults_dropped"), 1);
        assert_eq!(net.metrics().counter("net.h1.h0.faults_dropped"), 0);
    }

    #[test]
    fn crashed_host_drops_frames_until_restart() {
        let (mut sim, net, a, b) = two_host_net();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        let dst = Addr::new(b, 1);
        net.bind(dst, Box::new(move |_, _| *c.borrow_mut() += 1));
        net.with_faults(|f| f.crash_host(b));
        net.send(&mut sim, Addr::new(a, 9), dst, 100, ());
        sim.run_until_idle();
        assert_eq!(*count.borrow(), 0);
        net.with_faults(|f| f.restart_host(b));
        net.send(&mut sim, Addr::new(a, 9), dst, 100, ());
        sim.run_until_idle();
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn unbound_address_counts_unroutable() {
        let (mut sim, net, a, b) = two_host_net();
        net.send(&mut sim, Addr::new(a, 9), Addr::new(b, 1), 100, ());
        sim.run_until_idle();
        assert_eq!(net.stats().unroutable, 1);
    }

    /// A pooled payload keeps the pool exact: a duplicate takes its copy
    /// from it, and frames dropped by a fault, sent to an unbound address
    /// or left by their handler give their buffer back.
    #[test]
    fn pooled_payloads_keep_the_pool_exact() {
        let (mut sim, net, a, b) = two_host_net();
        let taken = Rc::new(RefCell::new(0));
        let counter = taken.clone();
        let dst = Addr::new(b, 1);
        net.bind(
            dst,
            Box::new(move |_, frame| {
                if frame.into_payload::<PooledBuf>().is_ok() {
                    *counter.borrow_mut() += 1;
                }
            }),
        );
        net.bind(Addr::new(b, 2), Box::new(|_, _| {}));
        let send = |sim: &mut Simulator, port| {
            let mut bytes = net.buffer_pool().take(100);
            bytes.resize(100, 7);
            net.send(sim, Addr::new(a, 9), Addr::new(b, port), 100, bytes);
        };
        net.with_faults(|f| f.set_duplication(a, b, 1.0));
        send(&mut sim, 1);
        net.with_faults(|f| f.set_duplication(a, b, 0.0));
        net.with_faults(|f| f.partition(a, b));
        send(&mut sim, 1);
        net.with_faults(|f| f.heal(a, b));
        send(&mut sim, 2);
        send(&mut sim, 3);
        sim.run_until_idle();
        assert_eq!(*taken.borrow(), 2, "the original and its duplicate");
        assert_eq!(net.stats().unroutable, 1);
        let stats = net.buffer_pool().stats();
        assert_eq!((stats.takes, stats.outstanding), (5, 0));
    }

    #[test]
    fn loopback_works_without_a_link() {
        let mut sim = Simulator::new(1);
        let net = Network::new();
        let a = net.add_host("solo", 1, CpuModel::xeon_v2());
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        net.bind(
            Addr::new(a, 2),
            Box::new(move |sim, _| g.borrow_mut().push(sim.now())),
        );
        net.send(&mut sim, Addr::new(a, 1), Addr::new(a, 2), 64, ());
        net.send(&mut sim, Addr::new(a, 1), Addr::new(a, 2), 64, ());
        sim.run_until_idle();
        // 64 B at the loopback's 10 Gbps serializes in 52 ns (51.2 rounded
        // up), then takes its 5 us; the second frame waits for the first.
        let at = |ns| Nanos::from_nanos(ns);
        assert_eq!(*got.borrow(), [at(5_052), at(5_104)]);
    }

    #[test]
    fn ephemeral_ports_are_unique() {
        let (_sim, net, a, _b) = two_host_net();
        let p1 = net.ephemeral_port(a);
        let p2 = net.ephemeral_port(a);
        assert_ne!(p1, p2);
    }

    #[test]
    fn handler_can_send_reentrantly() {
        let (mut sim, net, a, b) = two_host_net();
        let done = Rc::new(RefCell::new(false));
        let net2 = net.clone();
        let src_echo = Addr::new(b, 1);
        let back = Addr::new(a, 1);
        net.bind(
            src_echo,
            Box::new(move |sim, f| {
                // Echo the frame back.
                net2.send(sim, f.dst, back, f.wire_bytes, ());
            }),
        );
        let d = done.clone();
        net.bind(
            back,
            Box::new(move |_, _| {
                *d.borrow_mut() = true;
            }),
        );
        net.send(&mut sim, back, src_echo, 500, ());
        sim.run_until_idle();
        assert!(*done.borrow());
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let (_sim, net, a, _b) = two_host_net();
        net.bind(Addr::new(a, 1), Box::new(|_, _| {}));
        net.bind(Addr::new(a, 1), Box::new(|_, _| {}));
    }

    #[test]
    #[should_panic(expected = "no link between")]
    fn send_without_link_panics() {
        let mut sim = Simulator::new(0);
        let net = Network::new();
        let a = net.add_host("a", 1, CpuModel::xeon_v2());
        let b = net.add_host("b", 1, CpuModel::xeon_v2());
        net.send(&mut sim, Addr::new(a, 1), Addr::new(b, 1), 10, ());
    }

    #[test]
    fn full_mesh_connects_all_pairs() {
        let net = Network::new();
        for i in 0..4 {
            net.add_host(format!("h{i}"), 1, CpuModel::xeon_v2());
        }
        net.connect_full_mesh(LinkSpec::ten_gbe());
        // 4 choose 2 = 6 links; sending over each pair must not panic.
        let mut sim = Simulator::new(0);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    net.send(
                        &mut sim,
                        Addr::new(HostId(i), 1),
                        Addr::new(HostId(j), 1),
                        10,
                        (),
                    );
                }
            }
        }
        sim.run_until_idle();
        assert_eq!(net.stats().unroutable, 12);
    }
}
