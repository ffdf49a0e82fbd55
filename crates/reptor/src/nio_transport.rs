//! The NIO-style TCP transport: Reptor's baseline comm stack.
//!
//! One selector thread per core of a node's host multiplexes its share of
//! a full mesh of non-blocking TCP streams (how Reptor uses the Java NIO
//! selector for replica communication, paper §I/§III, with one selector
//! per pillar as in its COP design). Messages are framed with a 4-byte
//! little-endian length prefix; the first frame a dialer writes is its
//! hello.
//!
//! Connection management (peer table, hello, holding pen, re-dial) is
//! [`crate::mesh`]; this file is the TCP [`Wire`] under it. What is
//! particular to a byte stream: a frame already partially written when its
//! stream died is dropped rather than carried over (re-sending its tail
//! would desync the length-prefix framing), which the BFT layer above
//! tolerates.

use std::borrow::Cow;
use std::collections::VecDeque;

use simnet::{Addr, CoreId, Counter, HostId, Nanos, Network, Simulator};
use simnet_socket::{
    KeyId, Ops, ReadOutcome, Selected, Selector, TcpListener, TcpModel, TcpStream, NIO_SELECT_NS,
};

use crate::mesh::{key, Mesh, Ready, Recv, Spares, Wire};
use crate::state_transfer::MAX_STORE_BYTES;
use crate::transport::{DeliveryFn, LaneDeliveryFn, NodeId, Transport};

/// Base port for NIO transport listeners.
const NIO_PORT_BASE: u32 = 900;

/// Most bytes one write hands the socket: queued frames are coalesced up
/// to this.
const WRITE_CHUNK: usize = 64 * 1024;

/// Longest frame body a peer may announce. A whole checkpoint store is the
/// largest object the protocol ships, and it travels in chunks, so no
/// correct peer's frame reaches this; a longer prefix is an attack (or
/// corruption) that would otherwise make `inbuf` buffer up to 4 GiB.
const MAX_FRAME: usize = MAX_STORE_BYTES as usize;

struct NioLink {
    stream: TcpStream,
    key: KeyId,
    /// Bytes of the front message's frame (length prefix and body)
    /// already written to the socket.
    front_written: usize,
    /// One write's worth of frames, coalesced; kept between flushes.
    out: Vec<u8>,
    /// Partial inbound frame bytes.
    inbuf: Vec<u8>,
}

struct NioWire {
    node: NodeId,
    host: HostId,
    net: Network,
    model: TcpModel,
    /// One select thread per reactor, each on its own core.
    selector: Selector,
    listener: TcpListener,
    listener_key: KeyId,
    oversize_frame: Counter,
}

/// Appends `body`'s frame — its 4-byte length prefix, then `body` — from
/// byte `skip` of the frame on, to `out`, up to [`WRITE_CHUNK`] bytes in
/// all. True if `out` is full.
fn put_frame(out: &mut Vec<u8>, body: &[u8], mut skip: usize) -> bool {
    for part in [&(body.len() as u32).to_le_bytes()[..], body] {
        let from = skip.min(part.len());
        skip -= from;
        let take = (WRITE_CHUNK - out.len()).min(part.len() - from);
        out.extend_from_slice(&part[from..from + take]);
    }
    out.len() == WRITE_CHUNK
}

impl NioWire {
    /// Registers `stream` with the select thread on its core.
    fn link(&self, sim: &mut Simulator, stream: TcpStream, interest: Ops) -> NioLink {
        let key = stream.register(sim, &self.selector, interest);
        NioLink {
            stream,
            key,
            front_written: 0,
            out: Vec::new(),
            inbuf: Vec::new(),
        }
    }
}

impl Wire for NioWire {
    type Link = NioLink;
    type Event = Selected;
    const NAME: &'static str = "nio";
    const LINK: &'static str = "stream";
    const DOWN: &'static str = "conns_down";
    /// TCP's SYN retransmission budget fails an unreachable dial itself.
    const DIAL_TIMEOUT: Option<Nanos> = None;

    fn listen(&mut self, sim: &mut Simulator) {
        self.listener_key = self.listener.register(sim, &self.selector);
    }

    fn select(
        &self,
        sim: &mut Simulator,
        reactor: usize,
        f: impl FnOnce(&mut Simulator, &[Selected]) + 'static,
    ) {
        self.selector.select(sim, reactor, f);
    }

    fn ready(&self, ev: &Selected) -> Ready {
        Ready {
            accept: ev.key == self.listener_key,
            connected: ev.ready.contains(Ops::CONNECT),
            readable: ev.ready.contains(Ops::READ),
            writable: ev.ready.contains(Ops::WRITE),
        }
    }

    fn owns(link: &NioLink, ev: &Selected) -> bool {
        link.key == ev.key
    }

    fn dial(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        host: HostId,
        reactor: usize,
    ) -> Option<NioLink> {
        let remote = Addr::new(host, NIO_PORT_BASE + peer);
        let model = self.model.clone();
        let core = self.selector.core(reactor);
        let stream = TcpStream::connect(sim, &self.net, self.host, core, model, remote);
        Some(self.link(sim, stream, Ops::CONNECT | Ops::READ))
    }

    fn accept(&self, sim: &mut Simulator, reactor: usize) -> Option<NioLink> {
        let stream = self.listener.accept_on(sim, self.selector.core(reactor))?;
        Some(self.link(sim, stream, Ops::READ))
    }

    fn finish_connect(
        &self,
        sim: &mut Simulator,
        link: &mut NioLink,
        outq: &mut VecDeque<Vec<u8>>,
    ) -> bool {
        // A consumed connect-ready without establishment means the dial
        // failed (SYN retransmission budget exhausted — e.g. the peer's
        // host is down).
        if !link.stream.finish_connect(sim) {
            return false;
        }
        self.selector.set_interest(sim, link.key, Ops::READ);
        // The hello must be the first frame on the stream, ahead of any
        // carried-over output.
        debug_assert_eq!(link.front_written, 0);
        outq.push_front(self.node.to_le_bytes().to_vec());
        true
    }

    fn is_established(link: &NioLink) -> bool {
        link.stream.is_established()
    }

    fn recv(&self, sim: &mut Simulator, link: &mut NioLink) -> Recv {
        loop {
            if let Some(prefix) = link.inbuf.first_chunk::<4>() {
                let len = u32::from_le_bytes(*prefix) as usize;
                if len > MAX_FRAME {
                    self.oversize_frame.incr();
                    return Recv::Down;
                }
                if link.inbuf.len() >= 4 + len {
                    let body = link.inbuf[4..4 + len].to_vec();
                    link.inbuf.drain(..4 + len);
                    return Recv::Msg(body);
                }
            }
            match link.stream.read_into(sim, 1 << 20, &mut link.inbuf) {
                Ok(ReadOutcome::Data(_)) => {}
                Ok(ReadOutcome::WouldBlock) => return Recv::Idle,
                Ok(ReadOutcome::Eof) | Err(_) => return Recv::Down,
            }
        }
    }

    fn flush(
        &self,
        sim: &mut Simulator,
        link: &mut NioLink,
        outq: &mut VecDeque<Vec<u8>>,
        mut msg: Option<Cow<'_, [u8]>>,
        spares: &mut Spares,
    ) {
        while (!outq.is_empty() || msg.is_some()) && link.stream.is_established() {
            // Coalesce the queued frames, then `msg`'s, into one write,
            // resuming mid-frame where the last write left off.
            link.out.clear();
            let mut skip = link.front_written;
            for body in outq.iter().map(Vec::as_slice).chain(msg.as_deref()) {
                if put_frame(&mut link.out, body, skip) {
                    break;
                }
                skip = 0;
            }
            let Ok(mut n @ 1..) = link.stream.write(sim, &link.out) else {
                break;
            };
            while n > 0 {
                let Some(front) = outq.front() else { break };
                let remaining = 4 + front.len() - link.front_written;
                if n < remaining {
                    link.front_written += n;
                    n = 0;
                } else {
                    n -= remaining;
                    spares.give(outq.pop_front().expect("front exists"));
                    link.front_written = 0;
                }
            }
            // Whatever the queue did not account for was `msg`'s; a frame
            // cut short waits at the front of the queue.
            if n > 0 {
                let rest = msg.take().expect("written bytes past the queue are msg's");
                if n < 4 + rest.len() {
                    link.front_written = n;
                    outq.push_back(spares.own(rest));
                }
            }
        }
        if let Some(msg) = msg {
            outq.push_back(spares.own(msg));
        }
        // WRITE interest only while there is something to flush.
        let interest = if !link.stream.is_established() {
            Ops::READ | Ops::CONNECT
        } else if outq.is_empty() {
            Ops::READ
        } else {
            Ops::READ | Ops::WRITE
        };
        self.selector.set_interest(sim, link.key, interest);
    }

    fn close(&self, sim: &mut Simulator, link: &mut NioLink, outq: &mut VecDeque<Vec<u8>>) {
        if link.front_written > 0 {
            // A partially-written frame cannot be resumed on a new stream;
            // drop it so the carried queue stays frame-aligned.
            outq.pop_front();
            link.front_written = 0;
        }
        self.selector.cancel(link.key);
        // Close the socket so its port unbinds: a peer that still thinks
        // this stream is alive must see its segments go unanswered (RTO
        // exhaustion -> EOF) instead of having them silently buffered and
        // acked by a retired socket nobody reads.
        link.stream.close(sim);
    }
}

/// A full-mesh, selector-driven TCP transport endpoint.
#[derive(Clone, Debug)]
pub struct NioTransport {
    mesh: Mesh<NioWire>,
}

impl NioTransport {
    /// Builds a fully meshed group: every endpoint listens, lower-id nodes
    /// are dialled by higher-id nodes, and hello frames identify peers.
    /// Run the simulator (or start sending) to let connections complete.
    pub fn build_group(
        sim: &mut Simulator,
        net: &Network,
        nodes: &[(NodeId, HostId, CoreId)],
        model: TcpModel,
    ) -> Vec<NioTransport> {
        let wire = |node, host, cores: &[CoreId]| NioWire {
            node,
            host,
            net: net.clone(),
            model: model.clone(),
            selector: Selector::new(net, host, cores, NIO_SELECT_NS),
            listener: TcpListener::bind(net, host, NIO_PORT_BASE + node, cores[0], model.clone())
                .expect("transport port free"),
            listener_key: KeyId(u64::MAX),
            oversize_frame: net
                .metrics()
                .counter_handle(&key::<NioWire>(node, "oversize_frame")),
        };
        let meshes = Mesh::build_group(sim, net, nodes, wire);
        meshes
            .into_iter()
            .map(|mesh| NioTransport { mesh })
            .collect()
    }

    /// The shared metrics registry of the fabric this endpoint runs on.
    pub fn metrics(&self) -> simnet::Metrics {
        self.mesh.metrics()
    }
}

impl Transport for NioTransport {
    fn node(&self) -> NodeId {
        self.mesh.node()
    }

    fn send(&self, sim: &mut Simulator, to: NodeId, msg: Vec<u8>) {
        self.mesh.send(sim, to, Cow::Owned(msg));
    }

    fn broadcast(&self, sim: &mut Simulator, peers: &[NodeId], msg: &[u8]) {
        self.mesh.broadcast(sim, peers, msg);
    }

    fn set_delivery(&self, f: DeliveryFn) {
        self.mesh.set_delivery(f);
    }

    fn set_lane_delivery(&self, lanes: usize, f: LaneDeliveryFn) {
        self.mesh.set_lane_delivery(lanes, f);
    }
}
