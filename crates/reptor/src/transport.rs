//! The transport abstraction and the direct simulated-fabric transport.
//!
//! Reptor's comm stack is pluggable: the same replica logic runs over the
//! Java-NIO-style TCP stack ([`crate::nio_transport`]) and over RUBIN
//! ([`crate::rubin_transport`]), which is exactly the property the paper's
//! framework integration relies on (§III: RUBIN replaces the NIO selector
//! and socket channel without redesigning the stack).
//!
//! [`SimTransport`] bypasses both comm stacks and delivers message frames
//! straight through the fabric — protocol-logic tests use it so failures
//! point at the protocol, not the stack.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use simnet::{Addr, HostId, Network, Simulator};

use crate::state_transfer::StateOffer;

/// A node in the replica/client group.
pub type NodeId = u32;

/// Delivery callback: `(sim, from, bytes)`.
pub type DeliveryFn = Rc<dyn Fn(&mut Simulator, NodeId, Vec<u8>)>;

/// Completion callback for a one-sided state read: `Some(bytes)` on
/// success, `None` if the read failed (bad rkey, flushed QP, dead link).
pub type StateReadFn = Box<dyn FnOnce(&mut Simulator, Option<Vec<u8>>)>;

/// Completion callback for a one-sided slot write: `true` once the WRITE
/// was acknowledged by the peer's RNIC, `false` if it was denied (revoked
/// permission) or the QP failed first.
pub type SlotWriteFn = Box<dyn FnOnce(&mut Simulator, bool)>;

/// Doorbell callback for inbound slot writes: `(sim, from, imm, len)`. The
/// immediate identifies the slot that was written; the payload is read out
/// of the registered slot region, not passed here.
pub type SlotDoorbellFn = Rc<dyn Fn(&mut Simulator, NodeId, u32, usize)>;

/// A WRITE-permission grant for a fast-path slot region: the rkey a remote
/// leader needs to deposit pre-prepares one-sidedly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRegion {
    /// Remote WRITE key of the region (0 = not writable).
    pub rkey: u32,
    /// Region length in bytes.
    pub len: u64,
}

/// Lane-demultiplexed delivery callback: `(sim, lane, from, bytes)`. The
/// lane is the COP pipeline owning the frame's sequence number (lane 0 for
/// traffic without one).
pub type LaneDeliveryFn = Rc<dyn Fn(&mut Simulator, usize, NodeId, Vec<u8>)>;

/// The COP demultiplexing rule applied to an encoded wire frame: agreement
/// traffic routes to pipeline `seq mod lanes`, everything else (requests,
/// replies, checkpoints, view-change traffic) to lane 0.
pub fn wire_lane(bytes: &[u8], lanes: usize) -> usize {
    crate::envelope::SignedMessage::peek_wire_seq(bytes)
        .map_or(0, |seq| (seq % lanes.max(1) as u64) as usize)
}

/// A message-oriented, non-blocking transport between group members.
///
/// Its user calls every method with its own state borrowed (the replica
/// holds one `RefCell` borrow for a whole entry point), so no callback may
/// run from inside the call that registers or posts it: delivery and
/// doorbell callbacks fire only from simulator events, and a
/// [`StateReadFn`] or [`SlotWriteFn`] fires from the completion event of
/// the operation it was posted with — never from `read_state`/`write_slot`
/// themselves, which drop it unrun when they return `false`.
pub trait Transport {
    /// This endpoint's node id.
    fn node(&self) -> NodeId;

    /// Sends `msg` to `to`. Transports buffer internally; delivery is
    /// asynchronous.
    fn send(&self, sim: &mut Simulator, to: NodeId, msg: Vec<u8>);

    /// Installs the delivery callback (replacing any previous one).
    fn set_delivery(&self, f: DeliveryFn);

    /// Installs a lane-demultiplexed delivery callback: each inbound frame
    /// is routed to one of `lanes` COP pipelines by peeking the sequence
    /// number out of the wire header (`wire_lane`). The default adapts
    /// [`Transport::set_delivery`]; transports with per-lane accounting
    /// override it.
    fn set_lane_delivery(&self, lanes: usize, f: LaneDeliveryFn) {
        self.set_delivery(Rc::new(move |sim, from, bytes| {
            let lane = wire_lane(&bytes, lanes);
            f(sim, lane, from, bytes);
        }));
    }

    /// Sends `msg` to every node in `peers` (excluding self), in list
    /// order. The default hands each a copy through [`Transport::send`];
    /// the mesh transports write the borrowed bytes straight to every link
    /// that can take them now and copy them only for a link that must
    /// queue them.
    fn broadcast(&self, sim: &mut Simulator, peers: &[NodeId], msg: &[u8]) {
        for &p in peers {
            if p != self.node() {
                self.send(sim, p, msg.to_vec());
            }
        }
    }

    /// Registers `bytes` as a remotely readable state region (the
    /// checkpoint store) and returns its read offer. Transports without a
    /// one-sided read primitive return `None`; peers then fall back to
    /// chunked `StateRequest`/`StateChunk` messages.
    fn register_state_region(&self, sim: &mut Simulator, bytes: &[u8]) -> Option<StateOffer> {
        let _ = (sim, bytes);
        None
    }

    /// Releases a region previously returned by
    /// [`Transport::register_state_region`]; pending remote reads of it
    /// will fail with a protection error.
    fn release_state_region(&self, offer: &StateOffer) {
        let _ = offer;
    }

    /// Updates `[offset, offset+bytes.len())` of a locally registered
    /// state region in place. Used by the read-lease execution path to
    /// publish applied cells without a re-registration. Returns false if
    /// the region is unknown (already released) or the write is out of
    /// bounds; transports without one-sided support always return false.
    fn write_state_region(&self, offer: &StateOffer, offset: u64, bytes: &[u8]) -> bool {
        let _ = (offer, offset, bytes);
        false
    }

    /// Issues a one-sided read of `[offset, offset+len)` from `peer`'s
    /// region `rkey`, invoking `done` with the bytes (or `None` on
    /// failure). Returns false if this transport (or the link to `peer`)
    /// has no one-sided read path — the caller falls back to messages.
    fn read_state(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        rkey: u32,
        offset: u64,
        len: usize,
        done: StateReadFn,
    ) -> bool {
        let _ = (sim, peer, rkey, offset, len, done);
        false
    }

    /// Registers a remotely WRITE-able slot region of `len` bytes (the
    /// fast-path pre-prepare slots) and returns its grant. Transports
    /// without a one-sided write primitive return `None`; the leader then
    /// falls back to message-path pre-prepares.
    fn register_write_region(&self, sim: &mut Simulator, len: usize) -> Option<SlotRegion> {
        let _ = (sim, len);
        None
    }

    /// Releases (revokes) a region previously returned by
    /// [`Transport::register_write_region`]; in-flight remote writes to it
    /// are denied by the RNIC from this point on.
    fn release_write_region(&self, region: &SlotRegion) {
        let _ = region;
    }

    /// Reads `[offset, offset+len)` of the local slot region `region` (the
    /// doorbell handler pulling a deposited pre-prepare out of its slot).
    fn read_write_region(&self, region: &SlotRegion, offset: u64, len: usize) -> Option<Vec<u8>> {
        let _ = (region, offset, len);
        None
    }

    /// One-sided WRITE of `data` into `peer`'s slot region `rkey` at
    /// `offset`, ringing the peer's doorbell with `imm`. Returns false if
    /// this transport (or the link to `peer`) has no one-sided write path —
    /// the caller falls back to a message-path pre-prepare.
    #[allow(clippy::too_many_arguments)]
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
        let _ = (sim, peer, rkey, offset, data, imm, done);
        false
    }

    /// Installs the handler invoked when a peer WRITEs into one of this
    /// endpoint's registered slot regions.
    fn set_slot_doorbell(&self, f: SlotDoorbellFn) {
        let _ = f;
    }
}

/// Port base used by the direct transport.
const SIM_TRANSPORT_PORT: u32 = 700;

struct SimTransportInner {
    node: NodeId,
    host: HostId,
    net: Network,
    directory: Rc<RefCell<Vec<(NodeId, HostId)>>>,
    delivery: Option<DeliveryFn>,
    sent: u64,
}

/// Direct fabric transport: frames travel over the simulated links with
/// realistic wire timing but no protocol-stack CPU model.
#[derive(Clone)]
pub struct SimTransport {
    inner: Rc<RefCell<SimTransportInner>>,
}

impl fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("SimTransport")
            .field("node", &inner.node)
            .field("sent", &inner.sent)
            .finish()
    }
}

#[derive(Clone)]
struct SimMsg {
    from: NodeId,
    bytes: Vec<u8>,
}

impl SimTransport {
    /// Builds one transport per `(node, host)` pair, all able to reach each
    /// other.
    pub fn build_group(net: &Network, nodes: &[(NodeId, HostId)]) -> Vec<SimTransport> {
        let directory = Rc::new(RefCell::new(nodes.to_vec()));
        nodes
            .iter()
            .map(|&(node, host)| {
                let t = SimTransport {
                    inner: Rc::new(RefCell::new(SimTransportInner {
                        node,
                        host,
                        net: net.clone(),
                        directory: directory.clone(),
                        delivery: None,
                        sent: 0,
                    })),
                };
                let addr = Addr::new(host, SIM_TRANSPORT_PORT + node);
                // The network outlives the endpoint and must not keep it
                // alive.
                let t2 = Rc::downgrade(&t.inner);
                net.bind(
                    addr,
                    Box::new(move |sim, frame| {
                        let Some(t2) = t2.upgrade().map(|inner| SimTransport { inner }) else {
                            return;
                        };
                        let corrupted = frame.corrupted;
                        if let Ok(mut m) = frame.into_payload::<SimMsg>() {
                            // Materialize fault-injected corruption so the
                            // MAC check above this transport rejects it.
                            if corrupted {
                                if let Some(byte) = m.bytes.last_mut() {
                                    *byte ^= 0xff;
                                }
                            }
                            t2.deliver(sim, m.from, m.bytes);
                        }
                    }),
                );
                t
            })
            .collect()
    }

    fn deliver(&self, sim: &mut Simulator, from: NodeId, bytes: Vec<u8>) {
        let cb = self.inner.borrow().delivery.clone();
        if let Some(cb) = cb {
            cb(sim, from, bytes);
        }
    }

    /// Messages sent by this endpoint.
    pub fn sent_count(&self) -> u64 {
        self.inner.borrow().sent
    }
}

impl Transport for SimTransport {
    fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    fn send(&self, sim: &mut Simulator, to: NodeId, msg: Vec<u8>) {
        let (net, src, dst, len) = {
            let mut inner = self.inner.borrow_mut();
            inner.sent += 1;
            let dst_host = inner
                .directory
                .borrow()
                .iter()
                .find(|(n, _)| *n == to)
                .map(|&(_, h)| h);
            let Some(dst_host) = dst_host else {
                return; // unknown peer: drop (tests use this for absent nodes)
            };
            let src = Addr::new(inner.host, SIM_TRANSPORT_PORT + inner.node);
            let dst = Addr::new(dst_host, SIM_TRANSPORT_PORT + to);
            (inner.net.clone(), src, dst, msg.len())
        };
        let from = self.node();
        net.send(sim, src, dst, len + 16, SimMsg { from, bytes: msg });
    }

    fn set_delivery(&self, f: DeliveryFn) {
        self.inner.borrow_mut().delivery = Some(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::TestBed;
    use std::cell::RefCell;

    #[test]
    fn group_members_can_exchange_messages() {
        let (mut sim, net, hosts) = TestBed::cluster(0, 3);
        let nodes: Vec<(NodeId, HostId)> = hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| (i as u32, h))
            .collect();
        let group = SimTransport::build_group(&net, &nodes);

        type Inbox = Rc<RefCell<Vec<(NodeId, Vec<u8>)>>>;
        let got: Inbox = Rc::new(RefCell::new(vec![]));
        for t in &group {
            let g = got.clone();
            let me = t.node();
            t.set_delivery(Rc::new(move |_sim, from, bytes| {
                g.borrow_mut().push((from, bytes));
                let _ = me;
            }));
        }
        group[0].send(&mut sim, 1, b"to-1".to_vec());
        group[2].broadcast(&mut sim, &[0, 1, 2], b"bc");
        sim.run_until_idle();
        let got = got.borrow();
        assert!(got.contains(&(0, b"to-1".to_vec())));
        // Broadcast reaches 0 and 1 but not the sender itself.
        assert_eq!(got.iter().filter(|(f, _)| *f == 2).count(), 2);
        assert_eq!(group[2].sent_count(), 2);
    }

    #[test]
    fn unknown_peer_is_dropped_silently() {
        let (mut sim, net, hosts) = TestBed::cluster(0, 2);
        let nodes: Vec<(NodeId, HostId)> = hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| (i as u32, h))
            .collect();
        let group = SimTransport::build_group(&net, &nodes);
        group[0].send(&mut sim, 99, b"nowhere".to_vec());
        sim.run_until_idle();
    }

    #[test]
    fn partition_blocks_delivery() {
        let (mut sim, net, hosts) = TestBed::cluster(0, 2);
        let nodes: Vec<(NodeId, HostId)> = hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| (i as u32, h))
            .collect();
        let group = SimTransport::build_group(&net, &nodes);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        group[1].set_delivery(Rc::new(move |_s, _f, _b| {
            *h.borrow_mut() = true;
        }));
        net.with_faults(|f| f.partition(hosts[0], hosts[1]));
        group[0].send(&mut sim, 1, b"lost".to_vec());
        sim.run_until_idle();
        assert!(!*hit.borrow());
        net.with_faults(|f| f.heal(hosts[0], hosts[1]));
        group[0].send(&mut sim, 1, b"found".to_vec());
        sim.run_until_idle();
        assert!(*hit.borrow());
    }
}
