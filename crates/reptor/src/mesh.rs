//! The connection layer under both comm stacks: one full mesh, two wires.
//!
//! [`Mesh`] owns everything about replica connectivity that does not
//! depend on what carries the bytes: the link table, peer identification
//! (hello), the holding pen, the re-dial state machine and its backoff,
//! the reactors and the lane demux. A [`Wire`] — TCP streams under the NIO
//! selector, or RUBIN channels under the RDMA selector — contributes
//! only dial/accept/close, how a message is put on and taken off a link,
//! and which readiness it wants. DESIGN.md "Transport reconnect" is the
//! full description.
//!
//! An endpoint runs one reactor (selector thread) per core of its host:
//! the first on the core it was given, the others on the host's remaining
//! cores in order ([`reactor_cores`]). Each link lives on one reactor,
//! whose core pays for everything the link costs.

use std::borrow::Cow;
use std::cell::{Ref, RefCell, RefMut};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::{Rc, Weak};

use simnet::{CoreId, Counter, HostId, Metrics, Nanos, Network, Simulator};

use crate::transport::{wire_lane, DeliveryFn, LaneDeliveryFn, NodeId};

/// First re-dial delay after a link failure; doubles per consecutive
/// failed attempt.
const RECONNECT_BASE: Nanos = Nanos::from_millis(2);

/// Cap on the backoff doubling.
const RECONNECT_CAP_SHIFT: u32 = 5;

/// Maximum messages held for a peer whose link is down or still
/// connecting. Large enough to ride over a reconnect round-trip, small
/// enough that a long outage cannot grow unbounded queues at healthy
/// peers — a revived replica recovers truncated history through
/// checkpoint state transfer instead of replay.
pub const PEN_CAP: usize = 16;

/// The one backoff schedule (link re-dials and the replica's rejoin
/// probe): `base << min(attempts, RECONNECT_CAP_SHIFT)`.
pub(crate) fn backoff(base: Nanos, attempts: u32) -> Nanos {
    Nanos::from_nanos(base.as_nanos() << attempts.min(RECONNECT_CAP_SHIFT))
}

/// The cores of an endpoint's reactors on `host`: `first`, then the
/// host's other cores in order, wrapping around.
pub(crate) fn reactor_cores(net: &Network, host: HostId, first: CoreId) -> Vec<CoreId> {
    let cores = net.host(host).borrow().num_cores();
    (0..cores)
        .map(|i| CoreId(((usize::from(first.0) + i) % cores) as u16))
        .collect()
}

/// What a selector event says is ready, in wire-neutral terms.
pub(crate) struct Ready {
    /// The listener has inbound connections (the event names no link).
    pub accept: bool,
    /// An outbound dial completed or failed.
    pub connected: bool,
    pub readable: bool,
    pub writable: bool,
}

/// Outcome of taking the next message off a link.
pub(crate) enum Recv {
    Msg(Vec<u8>),
    /// Nothing complete is buffered.
    Idle,
    /// The link failed, closed, or sent something no correct peer sends.
    Down,
}

/// What a comm stack contributes under [`Mesh`]: its endpoint resources
/// (`Self`), its per-link state (`Link`) and the operations on them.
///
/// Methods taking `&self`/`&mut self` run with the mesh borrowed, so they
/// must not call back into it; none of the simulated socket/channel calls
/// they make completes synchronously.
pub(crate) trait Wire: Sized + 'static {
    /// Per-link wire state (socket/channel, selector key, framing state).
    type Link;
    /// The selector's ready-event type.
    type Event;
    /// Stack name: metric keys are `<NAME>_transport.<node>.<counter>`.
    const NAME: &'static str;
    /// What this stack calls a link, for trace lines.
    const LINK: &'static str;
    /// Counter bumped when a link goes down.
    const DOWN: &'static str;
    /// How long a re-dial may sit unestablished before it is abandoned;
    /// `None` if a dial that cannot reach its peer fails on its own (and
    /// says so with a connect event that did not establish).
    const DIAL_TIMEOUT: Option<Nanos>;

    /// Registers the listener with the first reactor.
    fn listen(&mut self, sim: &mut Simulator);
    /// How many reactors the endpoint runs.
    fn reactors(&self) -> usize;
    /// Parks one blocking select on `reactor`.
    fn select(
        &self,
        sim: &mut Simulator,
        reactor: usize,
        f: impl FnOnce(&mut Simulator, &[Self::Event]) + 'static,
    );
    fn ready(&self, ev: &Self::Event) -> Ready;
    /// Whether `ev` belongs to `link`'s selector key. Keys are unique
    /// across one endpoint's reactors.
    fn owns(link: &Self::Link, ev: &Self::Event) -> bool;
    /// Starts connecting to `peer` and registers the new link on
    /// `reactor`.
    fn dial(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        host: HostId,
        reactor: usize,
    ) -> Option<Self::Link>;
    /// Takes one pending inbound connection and registers it on `reactor`.
    fn accept(&self, sim: &mut Simulator, reactor: usize) -> Option<Self::Link>;
    /// Called once per new link, before the mesh stores it.
    fn link_added(_mesh: &Mesh<Self>, _link: &Self::Link) {}
    /// Consumes a connect event; true once the dialed link is established.
    fn finish_connect(
        &self,
        sim: &mut Simulator,
        link: &mut Self::Link,
        outq: &mut VecDeque<Vec<u8>>,
    ) -> bool;
    fn is_established(link: &Self::Link) -> bool;
    fn recv(&self, sim: &mut Simulator, link: &mut Self::Link) -> Recv;
    /// Writes as much of `outq`, then of `msg`, as the link takes (the
    /// dialer's hello first), queues whatever of `msg` it did not take as
    /// an owned copy, and re-arms the link's selector interest.
    fn flush(
        &self,
        sim: &mut Simulator,
        link: &mut Self::Link,
        outq: &mut VecDeque<Vec<u8>>,
        msg: Option<Cow<'_, [u8]>>,
    );
    /// Retires a link: cancels its key, leaves `outq` holding only whole
    /// unsent messages.
    fn close(&self, sim: &mut Simulator, link: &mut Self::Link, outq: &mut VecDeque<Vec<u8>>);
}

struct Link<L> {
    wire: L,
    /// The reactor serving this link.
    reactor: usize,
    /// Messages waiting for establishment or buffer space. On a dead link
    /// this is the holding pen.
    outq: VecDeque<Vec<u8>>,
    /// Peer id, once known (dialed: immediately; accepted: after hello).
    peer: Option<NodeId>,
    /// Link failed or was superseded; kept in place so `by_node` indices
    /// stay stable and `outq` can carry over to the replacement.
    dead: bool,
    /// This link is a reconnect attempt (not an initial mesh dial).
    redial: bool,
}

struct MeshInner<W: Wire> {
    node: NodeId,
    wire: W,
    metrics: Metrics,
    /// Bumped per shed message while a link is down; the reconnect
    /// milestones next to it are rare enough to go by name.
    pen_dropped: Counter,
    links: Vec<Link<W::Link>>,
    /// Each identified peer's current link.
    by_node: HashMap<NodeId, usize>,
    /// Host of every group member.
    directory: HashMap<NodeId, HostId>,
    /// Consecutive failed re-dial attempts per peer (drives the backoff).
    redial_attempts: HashMap<NodeId, u32>,
    delivery: Option<DeliveryFn>,
}

/// Metric key of `node`'s endpoint: `<NAME>_transport.<node>.<counter>`.
pub(crate) fn key<W: Wire>(node: NodeId, counter: impl fmt::Display) -> String {
    format!("{}_transport.{node}.{counter}", W::NAME)
}

/// One endpoint of a full mesh over wire `W`.
///
/// The mesh owns its wire (selector, channels or streams); a callback it
/// parks in them refers back through a [`WeakMesh`].
pub(crate) struct Mesh<W: Wire> {
    inner: Rc<RefCell<MeshInner<W>>>,
}

/// The mesh as seen from a callback kept by something the mesh owns.
pub(crate) struct WeakMesh<W: Wire>(Weak<RefCell<MeshInner<W>>>);

impl<W: Wire> WeakMesh<W> {
    pub(crate) fn upgrade(&self) -> Option<Mesh<W>> {
        self.0.upgrade().map(|inner| Mesh { inner })
    }
}

impl<W: Wire> Clone for Mesh<W> {
    fn clone(&self) -> Self {
        Mesh {
            inner: self.inner.clone(),
        }
    }
}

impl<W: Wire> fmt::Debug for Mesh<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Mesh")
            .field("wire", &W::NAME)
            .field("node", &inner.node)
            .field("links", &inner.links.len())
            .finish()
    }
}

impl<W: Wire> Mesh<W> {
    /// Builds a fully meshed group: every endpoint listens, each node dials
    /// every node listed before it, and hellos identify the dialers. Run
    /// the simulator (or start sending) to let connections complete.
    pub(crate) fn build_group(
        sim: &mut Simulator,
        net: &Network,
        nodes: &[(NodeId, HostId, CoreId)],
        mut wire: impl FnMut(NodeId, HostId, CoreId) -> W,
    ) -> Vec<Mesh<W>> {
        let meshes: Vec<Mesh<W>> = nodes
            .iter()
            .map(|&(node, host, core)| Mesh {
                inner: Rc::new(RefCell::new(MeshInner {
                    node,
                    wire: wire(node, host, core),
                    metrics: net.metrics(),
                    pen_dropped: net.metrics().counter_handle(&key::<W>(node, "pen_dropped")),
                    links: Vec::new(),
                    by_node: HashMap::new(),
                    directory: nodes.iter().map(|&(n, h, _)| (n, h)).collect(),
                    redial_attempts: HashMap::new(),
                    delivery: None,
                })),
            })
            .collect();
        for m in &meshes {
            m.inner.borrow_mut().wire.listen(sim);
            for reactor in 0..m.inner.borrow().wire.reactors() {
                m.pump(sim, reactor);
            }
        }
        for (idx, m) in meshes.iter().enumerate() {
            for &(peer, host, _) in &nodes[..idx] {
                let reactor = m.place();
                let link = m.inner.borrow().wire.dial(sim, peer, host, reactor);
                let link = link.expect("initial dial initiates");
                m.add_link(link, reactor, Some(peer), VecDeque::new(), false);
            }
        }
        meshes
    }

    pub(crate) fn downgrade(&self) -> WeakMesh<W> {
        WeakMesh(Rc::downgrade(&self.inner))
    }

    pub(crate) fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    pub(crate) fn metrics(&self) -> Metrics {
        self.inner.borrow().metrics.clone()
    }

    pub(crate) fn wire(&self) -> Ref<'_, W> {
        Ref::map(self.inner.borrow(), |i| &i.wire)
    }

    pub(crate) fn wire_mut(&self) -> RefMut<'_, W> {
        RefMut::map(self.inner.borrow_mut(), |i| &mut i.wire)
    }

    /// `f` of `peer`'s current link, if that link is up.
    pub(crate) fn live_link<T>(&self, peer: NodeId, f: impl FnOnce(&W::Link) -> T) -> Option<T> {
        let inner = self.inner.borrow();
        let link = &inner.links[*inner.by_node.get(&peer)?];
        (!link.dead && W::is_established(&link.wire)).then(|| f(&link.wire))
    }

    /// The identified peer behind the link matching `pred`.
    pub(crate) fn peer_where(&self, pred: impl Fn(&W::Link) -> bool) -> Option<NodeId> {
        let inner = self.inner.borrow();
        inner.links.iter().find(|l| pred(&l.wire))?.peer
    }

    pub(crate) fn set_delivery(&self, f: DeliveryFn) {
        self.inner.borrow_mut().delivery = Some(f);
    }

    /// The default demux rule plus per-lane delivery counters, so
    /// benchmarks can see agreement traffic spreading over pipelines.
    pub(crate) fn set_lane_delivery(&self, lanes: usize, f: LaneDeliveryFn) {
        let metrics = self.metrics();
        let node = self.node();
        let delivered: Vec<Counter> = (0..lanes.max(1))
            .map(|lane| {
                metrics.counter_handle(&key::<W>(node, format_args!("lane{lane}_delivered")))
            })
            .collect();
        self.set_delivery(Rc::new(move |sim, from, bytes| {
            let lane = wire_lane(&bytes, lanes);
            delivered[lane].incr();
            f(sim, lane, from, bytes);
        }));
    }

    /// The one send path. A link that can drain gets `msg` in place — the
    /// wire queues it, as an owned copy, only behind output that must
    /// wait — and a link that cannot parks it in the holding pen.
    pub(crate) fn send(&self, sim: &mut Simulator, to: NodeId, msg: Cow<'_, [u8]>) {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let Some(&slot) = inner.by_node.get(&to) else {
            return; // no link to that peer (yet): drop
        };
        let link = &mut inner.links[slot];
        if !link.dead && W::is_established(&link.wire) {
            inner
                .wire
                .flush(sim, &mut link.wire, &mut link.outq, Some(msg));
            return;
        }
        link.outq.push_back(msg.into_owned());
        // A dead or still-connecting link cannot drain; bound the holding
        // pen by shedding the oldest message. The survivors are the newest
        // traffic — recent checkpoints and votes — which is what a peer
        // returning from a long outage can still use; older history is
        // recovered by catch-up/state transfer, not replay.
        if link.outq.len() > PEN_CAP {
            link.outq.pop_front();
            inner.pen_dropped.incr();
        }
        if !link.dead {
            inner.wire.flush(sim, &mut link.wire, &mut link.outq, None);
        }
    }

    /// [`Mesh::send`] of borrowed bytes to every node in `peers` but this
    /// one.
    pub(crate) fn broadcast(&self, sim: &mut Simulator, peers: &[NodeId], msg: &[u8]) {
        let me = self.node();
        for &peer in peers.iter().filter(|&&p| p != me) {
            self.send(sim, peer, Cow::Borrowed(msg));
        }
    }

    /// The reactor a new link goes on: the one with the fewest live
    /// links, the lowest (nearest the first core) among equals. A link is
    /// placed before its peer is known, so placement ignores the peer.
    fn place(&self) -> usize {
        let inner = self.inner.borrow();
        let mut live = vec![0usize; inner.wire.reactors()];
        for link in inner.links.iter().filter(|l| !l.dead) {
            live[link.reactor] += 1;
        }
        (0..live.len()).min_by_key(|&r| live[r]).unwrap_or(0)
    }

    fn add_link(
        &self,
        wire: W::Link,
        reactor: usize,
        peer: Option<NodeId>,
        outq: VecDeque<Vec<u8>>,
        redial: bool,
    ) -> usize {
        W::link_added(self, &wire);
        let mut inner = self.inner.borrow_mut();
        let slot = inner.links.len();
        inner.links.push(Link {
            wire,
            reactor,
            outq,
            peer,
            dead: false,
            redial,
        });
        if let Some(peer) = peer {
            inner.by_node.insert(peer, slot);
        }
        slot
    }

    /// One reactor: parks a select on it and handles whatever becomes
    /// ready there.
    fn pump(&self, sim: &mut Simulator, reactor: usize) {
        let t = self.downgrade();
        let inner = self.inner.borrow();
        inner.wire.select(sim, reactor, move |sim, ready| {
            let Some(t) = t.upgrade() else { return };
            for ev in ready {
                t.on_event(sim, ev);
            }
            t.pump(sim, reactor);
        });
    }

    fn on_event(&self, sim: &mut Simulator, ev: &W::Event) {
        let ready = self.inner.borrow().wire.ready(ev);
        if ready.accept {
            loop {
                let reactor = self.place();
                let Some(link) = self.inner.borrow().wire.accept(sim, reactor) else {
                    return;
                };
                self.add_link(link, reactor, None, VecDeque::new(), false);
            }
        }
        let slot = {
            let inner = self.inner.borrow();
            inner.links.iter().position(|l| W::owns(&l.wire, ev))
        };
        let Some(slot) = slot else { return };
        if ready.connected {
            self.on_connected(sim, slot);
        }
        if ready.readable {
            self.on_readable(sim, slot);
        }
        if ready.writable {
            self.flush(sim, slot);
        }
    }

    fn on_connected(&self, sim: &mut Simulator, slot: usize) {
        let (up, redial) = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let link = &mut inner.links[slot];
            let up = inner
                .wire
                .finish_connect(sim, &mut link.wire, &mut link.outq);
            (up, link.redial)
        };
        if !up {
            // Initial mesh dials in a healthy fabric never fail; a failed
            // re-dial backs off and tries again.
            if redial && W::DIAL_TIMEOUT.is_none() {
                self.link_down(sim, slot);
            }
            return;
        }
        if redial {
            // A completed re-dial resets the peer's backoff.
            let mut inner = self.inner.borrow_mut();
            let peer = inner.links[slot].peer.expect("re-dials know their peer");
            inner.redial_attempts.remove(&peer);
            inner
                .metrics
                .incr(&key::<W>(inner.node, "reconnects_completed"));
            inner.metrics.trace(
                sim.now(),
                "transport",
                format!("{} reconnect up slot={slot}", W::NAME),
            );
        }
        self.flush(sim, slot);
    }

    fn on_readable(&self, sim: &mut Simulator, slot: usize) {
        loop {
            let got = {
                let mut guard = self.inner.borrow_mut();
                let inner = &mut *guard;
                inner.wire.recv(sim, &mut inner.links[slot].wire)
            };
            match got {
                Recv::Msg(body) => {
                    if !self.on_message(sim, slot, body) {
                        break;
                    }
                }
                Recv::Idle => break,
                Recv::Down => {
                    self.link_down(sim, slot);
                    break;
                }
            }
        }
    }

    /// Delivers `body`, or takes it as the hello of a not yet identified
    /// link. False if the link was shut for it.
    fn on_message(&self, sim: &mut Simulator, slot: usize, body: Vec<u8>) -> bool {
        let (peer, delivery) = {
            let inner = self.inner.borrow();
            (inner.links[slot].peer, inner.delivery.clone())
        };
        let Some(peer) = peer else {
            return self.on_hello(sim, slot, &body);
        };
        if let Some(cb) = delivery {
            cb(sim, peer, body);
        }
        true
    }

    /// The first message on an accepted link names the dialer. A hello
    /// from a peer that already has a link means it reconnected: the stale
    /// link is retired and its whole unsent queue carries over. An id that
    /// is not a group member, or is this endpoint's own, is refused — it
    /// would otherwise take over a correct peer's `by_node` entry.
    fn on_hello(&self, sim: &mut Simulator, slot: usize, body: &[u8]) -> bool {
        let Ok(id) = <[u8; 4]>::try_from(body) else {
            return true; // not a hello: keep waiting for one
        };
        let peer = NodeId::from_le_bytes(id);
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        if peer == inner.node || !inner.directory.contains_key(&peer) {
            inner.metrics.incr(&key::<W>(inner.node, "hello_rejected"));
            drop(guard);
            self.link_down(sim, slot);
            return false;
        }
        inner.links[slot].peer = Some(peer);
        if let Some(old) = inner.by_node.insert(peer, slot).filter(|&old| old != slot) {
            let stale = &mut inner.links[old];
            stale.dead = true;
            inner.wire.close(sim, &mut stale.wire, &mut stale.outq);
            inner.links[slot].outq = std::mem::take(&mut inner.links[old].outq);
        }
        drop(guard);
        self.flush(sim, slot);
        true
    }

    /// Retires a failed link and, if this endpoint is the dialing side for
    /// that peer (the higher node id), schedules a re-dial. The lower-id
    /// side keeps the dead link as a holding pen until the peer's
    /// replacement connection says hello.
    fn link_down(&self, sim: &mut Simulator, slot: usize) {
        let peer = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let link = &mut inner.links[slot];
            if link.dead {
                return;
            }
            link.dead = true;
            inner.wire.close(sim, &mut link.wire, &mut link.outq);
            // Shed everything but the newest PEN_CAP messages now, so a
            // long outage hands the replacement link recent traffic rather
            // than stale history.
            let shed = link.outq.len().saturating_sub(PEN_CAP);
            link.outq.drain(..shed);
            if shed > 0 {
                inner.pen_dropped.add(shed as u64);
            }
            inner.metrics.incr(&key::<W>(inner.node, W::DOWN));
            inner.metrics.trace(
                sim.now(),
                "transport",
                format!(
                    "{} {} down slot={slot} peer={:?}",
                    W::NAME,
                    W::LINK,
                    link.peer
                ),
            );
            match link.peer {
                // Anonymous links and links already replaced need no
                // re-dial; neither does the accepting side.
                Some(p) if inner.by_node.get(&p) == Some(&slot) && inner.node > p => p,
                _ => return,
            }
        };
        self.schedule_redial(sim, peer);
    }

    fn schedule_redial(&self, sim: &mut Simulator, peer: NodeId) {
        let attempts = self.inner.borrow().redial_attempts.get(&peer).copied();
        let t = self.clone();
        sim.schedule_in(backoff(RECONNECT_BASE, attempts.unwrap_or(0)), move |sim| {
            t.redial_fire(sim, peer)
        });
    }

    /// Opens a replacement link towards `peer`, carrying over the dead
    /// link's queue.
    fn redial_fire(&self, sim: &mut Simulator, peer: NodeId) {
        let (host, outq) = {
            let mut inner = self.inner.borrow_mut();
            let current = inner.by_node.get(&peer).copied();
            if current.is_some_and(|slot| !inner.links[slot].dead) {
                return; // already reconnected
            }
            let Some(&host) = inner.directory.get(&peer) else {
                return;
            };
            *inner.redial_attempts.entry(peer).or_insert(0) += 1;
            inner
                .metrics
                .incr(&key::<W>(inner.node, "reconnect_attempts"));
            let outq = current.map(|slot| std::mem::take(&mut inner.links[slot].outq));
            (host, outq.unwrap_or_default())
        };
        let reactor = self.place();
        let link = self.inner.borrow().wire.dial(sim, peer, host, reactor);
        let Some(link) = link else {
            // Could not even initiate (e.g. resource exhaustion): put the
            // queue back and back off again.
            let mut inner = self.inner.borrow_mut();
            if let Some(&slot) = inner.by_node.get(&peer) {
                inner.links[slot].outq = outq;
            }
            drop(inner);
            self.schedule_redial(sim, peer);
            return;
        };
        let slot = self.add_link(link, reactor, Some(peer), outq, true);
        if let Some(timeout) = W::DIAL_TIMEOUT {
            let t = self.clone();
            sim.schedule_in(timeout, move |sim| {
                let stuck = {
                    let inner = t.inner.borrow();
                    let link = &inner.links[slot];
                    inner.by_node.get(&peer) == Some(&slot)
                        && !link.dead
                        && !W::is_established(&link.wire)
                };
                if stuck {
                    t.link_down(sim, slot);
                }
            });
        }
    }

    fn flush(&self, sim: &mut Simulator, slot: usize) {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let link = &mut inner.links[slot];
        if !link.dead {
            inner.wire.flush(sim, &mut link.wire, &mut link.outq, None);
        }
    }
}
