//! The RUBIN transport: Reptor's comm stack over the RDMA selector.
//!
//! Replaces the Java-NIO selector and socket channels with RUBIN's RDMA
//! selector and channels (paper §IV: "We integrated RUBIN into Reptor,
//! where it replaces the Java NIO selector and socket channel"). Because
//! RUBIN channels are message-oriented, no length framing is needed; the
//! first message a dialer writes is its hello.
//!
//! Connection management (peer table, hello, holding pen, re-dial) is
//! [`crate::mesh`]; this file is the RUBIN [`Wire`] under it plus the
//! one-sided READ/WRITE primitives only RDMA has. Messages that were in
//! flight on a dead queue pair are lost, which the BFT layer above already
//! tolerates (it re-sends during view changes and client retries).

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use rdma_verbs::{Access, MemoryRegion, ProtectionDomain, RdmaDevice, RnicModel};
use rubin::{
    Interest, RdmaChannel, RdmaSelector, RdmaServerChannel, RubinConfig, RubinKey, SelectedKey,
};
use simnet::{Addr, CoreId, Counter, HostId, Nanos, Network, Simulator};

use crate::mesh::{key, Mesh, Ready, Recv, Spares, Wire};
use crate::state_transfer::StateOffer;
use crate::transport::{
    DeliveryFn, LaneDeliveryFn, NodeId, SlotDoorbellFn, SlotRegion, SlotWriteFn, StateReadFn,
    Transport,
};

/// Base port for RUBIN transport server channels.
const RUBIN_PORT_BASE: u32 = 1100;

struct RubinLink {
    channel: RdmaChannel,
    key: RubinKey,
    /// Accepted channels send no hello, so they start out true.
    hello_sent: bool,
    /// Messages one `read_all` took off the channel and the mesh has not
    /// yet taken; kept between drains.
    inbox: VecDeque<Vec<u8>>,
}

struct RubinWire {
    node: NodeId,
    device: RdmaDevice,
    cfg: RubinConfig,
    /// One select thread per reactor, each on its own core.
    selector: RdmaSelector,
    server: RdmaServerChannel,
    /// Protection domain holding checkpoint-store regions. Allocated on
    /// first registration; MRs are validated per-rkey, not per-domain, so
    /// any peer queue pair can READ them.
    state_pd: Option<ProtectionDomain>,
    /// Live checkpoint-store regions by rkey, held so `release` can
    /// invalidate them.
    state_regions: HashMap<u32, MemoryRegion>,
    /// Live fast-path slot regions by rkey (remotely WRITE-able), held so
    /// revocation can invalidate them and doorbell handlers can read the
    /// deposited bytes back out.
    slot_regions: HashMap<u32, MemoryRegion>,
    /// Installed fast-path doorbell, rung when a peer WRITEs into one of
    /// our slot regions.
    slot_doorbell: Option<SlotDoorbellFn>,
    oversize_dropped: Counter,
}

impl RubinWire {
    /// Drops every message of `outq` and `msg` longer than the channel's
    /// buffers, counting each (`oversize_dropped`): such a message can
    /// never go, and left in place it would block the messages behind it.
    fn drop_oversize(&self, outq: &mut VecDeque<Vec<u8>>, msg: &mut Option<Cow<'_, [u8]>>) {
        let max = self.cfg.buffer_size;
        let queued = outq.len();
        outq.retain(|m| m.len() <= max);
        let mut dropped = queued - outq.len();
        if msg.as_deref().is_some_and(|m| m.len() > max) {
            *msg = None;
            dropped += 1;
        }
        if dropped > 0 {
            self.oversize_dropped.add(dropped as u64);
        }
    }

    fn link(&self, sim: &mut Simulator, channel: RdmaChannel, dialed: bool) -> RubinLink {
        let interest = if dialed {
            Interest::OP_ACCEPT | Interest::OP_RECEIVE
        } else {
            Interest::OP_RECEIVE
        };
        let key = self.selector.register_channel(sim, &channel, interest);
        RubinLink {
            channel,
            key,
            hello_sent: !dialed,
            inbox: VecDeque::new(),
        }
    }
}

impl Wire for RubinWire {
    type Link = RubinLink;
    type Event = SelectedKey;
    const NAME: &'static str = "rubin";
    const LINK: &'static str = "channel";
    const DOWN: &'static str = "channels_down";
    /// RDMA connection management has no timeout of its own — a
    /// ConnRequest (or its reply) lost to a crashed host would otherwise
    /// hang the dialer forever.
    const DIAL_TIMEOUT: Option<Nanos> = Some(Nanos::from_millis(20));

    fn listen(&mut self, sim: &mut Simulator) {
        self.selector.register_server(sim, &self.server);
    }

    fn select(
        &self,
        sim: &mut Simulator,
        reactor: usize,
        f: impl FnOnce(&mut Simulator, &[SelectedKey]) + 'static,
    ) {
        self.selector.select(sim, reactor, f);
    }

    fn ready(&self, ev: &SelectedKey) -> Ready {
        Ready {
            accept: ev.ready.contains(Interest::OP_CONNECT),
            connected: ev.ready.contains(Interest::OP_ACCEPT),
            readable: ev.ready.contains(Interest::OP_RECEIVE),
            writable: ev.ready.contains(Interest::OP_SEND),
        }
    }

    fn owns(link: &RubinLink, ev: &SelectedKey) -> bool {
        link.key == ev.key
    }

    /// A channel charged to a reactor's core registers with that core's
    /// select thread.
    fn dial(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        host: HostId,
        reactor: usize,
    ) -> Option<RubinLink> {
        let remote = Addr::new(host, RUBIN_PORT_BASE + peer);
        let core = self.selector.core(reactor);
        let channel =
            RdmaChannel::connect(sim, &self.device, remote, self.cfg.clone(), core).ok()?;
        Some(self.link(sim, channel, true))
    }

    fn accept(&self, sim: &mut Simulator, reactor: usize) -> Option<RubinLink> {
        let core = self.selector.core(reactor);
        let channel = self.server.accept_on(sim, core).ok()??;
        Some(self.link(sim, channel, false))
    }

    /// Installs the fast-path doorbell on a freshly created channel. The
    /// closure resolves this endpoint's installed handler and the
    /// channel's peer id at ring time, so it is safe to install before
    /// either is known (accept-side channels learn their peer only after
    /// the hello; the handler arrives with `set_slot_doorbell`).
    fn link_added(mesh: &Mesh<RubinWire>, link: &RubinLink) {
        let mesh = mesh.downgrade();
        let qp_num = link.channel.qp().num();
        link.channel
            .set_write_doorbell(Rc::new(move |sim, imm, len| {
                let Some(mesh) = mesh.upgrade() else { return };
                let peer = mesh.peer_where(|l| l.channel.qp().num() == qp_num);
                let db = mesh.wire().slot_doorbell.clone();
                if let (Some(peer), Some(db)) = (peer, db) {
                    db(sim, peer, imm, len);
                }
            }));
    }

    fn finish_connect(
        &self,
        sim: &mut Simulator,
        link: &mut RubinLink,
        _outq: &mut VecDeque<Vec<u8>>,
    ) -> bool {
        link.channel.finish_connect(sim)
    }

    fn is_established(link: &RubinLink) -> bool {
        link.channel.is_established()
    }

    /// Hands out the inbox, refilling it, once empty, with one `read_all`
    /// of everything the channel has received.
    fn recv(&self, sim: &mut Simulator, link: &mut RubinLink) -> Recv {
        if link.inbox.is_empty() {
            match link.channel.read_all(sim, &mut link.inbox) {
                Ok(0) if link.channel.is_eof() => return Recv::Down,
                Ok(_) => {}
                Err(_) => return Recv::Down,
            }
        }
        link.inbox.pop_front().map_or(Recv::Idle, Recv::Msg)
    }

    fn flush(
        &self,
        sim: &mut Simulator,
        link: &mut RubinLink,
        outq: &mut VecDeque<Vec<u8>>,
        mut msg: Option<Cow<'_, [u8]>>,
        spares: &mut Spares,
    ) {
        let established = link.channel.is_established();
        if established {
            self.drop_oversize(outq, &mut msg);
        }
        let hello = self.node.to_le_bytes();
        let hello = (!link.hello_sent).then_some(&hello[..]);
        if established && (hello.is_some() || !outq.is_empty() || msg.is_some()) {
            // The hello, the queue, then `msg`, in one channel call. What
            // it does not take waits for OP_SEND, which fires when send
            // buffers free up.
            let msgs = hello
                .into_iter()
                .chain(outq.iter().map(Vec::as_slice))
                .chain(msg.as_deref());
            let mut taken = link.channel.write_all(sim, msgs).unwrap_or(0);
            if hello.is_some() && taken > 0 {
                link.hello_sent = true;
                taken -= 1;
            }
            let queued = taken.min(outq.len());
            for buf in outq.drain(..queued) {
                spares.give(buf);
            }
            if taken > queued {
                msg = None;
            }
        }
        if let Some(msg) = msg {
            outq.push_back(spares.own(msg));
        }
        // OP_SEND readiness is level-triggered (send buffers are almost
        // always available), so subscribe to it only while output is
        // actually pending.
        let mut want = Interest::OP_RECEIVE;
        if !established {
            want |= Interest::OP_ACCEPT;
        } else if !link.hello_sent || !outq.is_empty() {
            want |= Interest::OP_SEND;
        }
        self.selector.set_interest(sim, link.key, want);
    }

    fn close(&self, _sim: &mut Simulator, link: &mut RubinLink, _outq: &mut VecDeque<Vec<u8>>) {
        self.selector.cancel(link.key);
    }
}

/// A full-mesh, RDMA-selector-driven transport endpoint.
#[derive(Clone, Debug)]
pub struct RubinTransport {
    mesh: Mesh<RubinWire>,
}

impl RubinTransport {
    /// The shared metrics registry of the fabric this endpoint runs on.
    pub fn metrics(&self) -> simnet::Metrics {
        self.mesh.metrics()
    }

    /// Builds a fully meshed group over RUBIN channels. Run the simulator
    /// (or start sending) to let connections complete.
    pub fn build_group(
        sim: &mut Simulator,
        net: &Network,
        nodes: &[(NodeId, HostId, CoreId)],
        rnic: RnicModel,
        cfg: RubinConfig,
    ) -> Vec<RubinTransport> {
        let wire = |node, host, cores: &[CoreId]| {
            let device = RdmaDevice::open(net, host, rnic.clone());
            let selector = RdmaSelector::new(&device, cores, cfg.select_ns);
            let server =
                RdmaServerChannel::bind(&device, RUBIN_PORT_BASE + node, cfg.clone(), cores[0])
                    .expect("transport port free");
            RubinWire {
                node,
                device,
                cfg: cfg.clone(),
                selector,
                server,
                state_pd: None,
                state_regions: HashMap::new(),
                slot_regions: HashMap::new(),
                slot_doorbell: None,
                oversize_dropped: net
                    .metrics()
                    .counter_handle(&key::<RubinWire>(node, "oversize_dropped")),
            }
        };
        let meshes = Mesh::build_group(sim, net, nodes, wire);
        meshes
            .into_iter()
            .map(|mesh| RubinTransport { mesh })
            .collect()
    }
}

impl Transport for RubinTransport {
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

    fn register_state_region(&self, sim: &mut Simulator, bytes: &[u8]) -> Option<StateOffer> {
        let _ = sim;
        let mut inner = self.mesh.wire_mut();
        if inner.state_pd.is_none() {
            let pd = inner.device.alloc_pd();
            inner.state_pd = Some(pd);
        }
        let pd = inner.state_pd.expect("just ensured");
        // Zero-length registrations are meaningless; a 1-byte region keeps
        // the rkey live so empty stores still advertise a valid offer.
        let mr = inner
            .device
            .reg_mr(&pd, bytes.len().max(1), Access::REMOTE_READ);
        if !bytes.is_empty() {
            mr.write(0, bytes).expect("store fits its region");
        }
        let rkey = mr.rkey().0;
        inner.state_regions.insert(rkey, mr);
        Some(StateOffer {
            rkey,
            len: bytes.len() as u64,
            // The replica stamps its recovery epoch onto the offer; the
            // transport only mints the region.
            epoch: 0,
        })
    }

    fn release_state_region(&self, offer: &StateOffer) {
        if let Some(mr) = self.mesh.wire_mut().state_regions.remove(&offer.rkey) {
            mr.invalidate();
        }
    }

    fn write_state_region(&self, offer: &StateOffer, offset: u64, bytes: &[u8]) -> bool {
        let inner = self.mesh.wire();
        match inner.state_regions.get(&offer.rkey) {
            Some(mr) => mr.write(offset as usize, bytes).is_ok(),
            None => false,
        }
    }

    fn read_state(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        rkey: u32,
        offset: u64,
        len: usize,
        done: StateReadFn,
    ) -> bool {
        let Some(channel) = self.mesh.flushed_link(sim, peer, |l| l.channel.clone()) else {
            return false;
        };
        channel.post_read(sim, rkey, offset, len, done).is_ok()
    }

    fn register_write_region(&self, sim: &mut Simulator, len: usize) -> Option<SlotRegion> {
        let _ = sim;
        let mut inner = self.mesh.wire_mut();
        if inner.state_pd.is_none() {
            let pd = inner.device.alloc_pd();
            inner.state_pd = Some(pd);
        }
        let pd = inner.state_pd.expect("just ensured");
        let mr = inner.device.reg_mr(&pd, len.max(1), Access::REMOTE_WRITE);
        let rkey = mr.rkey().0;
        inner.slot_regions.insert(rkey, mr);
        Some(SlotRegion {
            rkey,
            len: len as u64,
        })
    }

    fn release_write_region(&self, region: &SlotRegion) {
        // Invalidation is the PR 5 revocation fence: any in-flight WRITE
        // against the rkey is denied as deregistered.
        if let Some(mr) = self.mesh.wire_mut().slot_regions.remove(&region.rkey) {
            mr.invalidate();
        }
    }

    fn read_write_region(&self, region: &SlotRegion, offset: u64, len: usize) -> Option<Vec<u8>> {
        let inner = self.mesh.wire();
        let mr = inner.slot_regions.get(&region.rkey)?;
        mr.read(offset as usize, len).ok()
    }

    fn write_slot(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        rkey: u32,
        offset: u64,
        data: &[u8],
        imm: u32,
        done: SlotWriteFn,
    ) -> bool {
        let Some(channel) = self.mesh.flushed_link(sim, peer, |l| l.channel.clone()) else {
            return false;
        };
        channel
            .post_write(sim, rkey, offset, data, imm, done)
            .is_ok()
    }

    fn set_slot_doorbell(&self, f: SlotDoorbellFn) {
        self.mesh.wire_mut().slot_doorbell = Some(f);
    }

    fn set_lane_delivery(&self, lanes: usize, f: LaneDeliveryFn) {
        self.mesh.set_lane_delivery(lanes, f);
    }
}
