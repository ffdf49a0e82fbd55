//! Connection management (the `rdma_cm` analogue).
//!
//! Establishing an RC connection exchanges small CM packets: the active side
//! sends a `ConnReq`, the passive side's listener surfaces a
//! [`CmEvent::ConnectRequest`], and the application accepts or rejects it.
//! Both sides end with fully connected [`QueuePair`]s.
//!
//! All CM events are delivered to the *device-wide* event queue
//! ([`RdmaDevice::poll_cm_event`]), mirroring `rdma_event_channel`; the
//! RUBIN selector drains this queue to implement `OP_CONNECT` / `OP_ACCEPT`
//! readiness.

use std::fmt;

use simnet::{Addr, Simulator};

use crate::device::{QpConfig, RdmaDevice};
use crate::error::{VerbsError, VerbsResult};
use crate::packet::RdmaPacket;
use crate::qp::QueuePair;
use crate::types::QpNum;

/// A connection-management event, polled from
/// [`RdmaDevice::poll_cm_event`].
#[derive(Debug)]
pub enum CmEvent {
    /// A remote peer wants to connect to one of this device's listeners.
    ConnectRequest(ConnRequest),
    /// An outgoing or accepted connection is fully established.
    Established {
        /// The now-connected local queue pair.
        qp: QueuePair,
        /// Connection identifier (matches the `connect` call's QP).
        conn_id: u64,
    },
    /// An outgoing connection attempt failed.
    ConnectFailed {
        /// Connection identifier of the failed attempt.
        conn_id: u64,
        /// Human-readable reason from the peer.
        reason: String,
    },
    /// The peer disconnected; the local QP has entered the error state.
    Disconnected {
        /// The affected local queue pair number.
        qp: QpNum,
    },
}

/// An inbound connection request awaiting accept/reject.
pub struct ConnRequest {
    device: RdmaDevice,
    /// Port of the local listener that received the request.
    pub listen_port: u32,
    peer_reply: Addr,
    peer_data_addr: Addr,
    peer_qp: QpNum,
    conn_id: u64,
}

impl fmt::Debug for ConnRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnRequest")
            .field("listen_port", &self.listen_port)
            .field("peer", &self.peer_data_addr)
            .field("conn_id", &self.conn_id)
            .finish()
    }
}

impl ConnRequest {
    /// Accepts the connection: creates a local QP wired to the peer and
    /// notifies the peer. Returns the connected QP (already `ReadyToSend`).
    ///
    /// # Errors
    ///
    /// Propagates QP state errors (which cannot occur for a fresh QP).
    pub fn accept(self, sim: &mut Simulator, cfg: &QpConfig) -> VerbsResult<QueuePair> {
        let qp = self.device.create_qp(cfg);
        qp.modify_to_init()?;
        qp.modify_to_rtr(self.peer_data_addr, self.peer_qp)?;
        qp.modify_to_rts()?;
        let pkt = RdmaPacket::ConnAccept {
            conn_id: self.conn_id,
            src_data_addr: qp.local_addr(),
            src_qp: qp.num(),
        };
        let wire = pkt.wire_bytes(self.device.model().ack_bytes);
        self.device
            .net()
            .send(sim, qp.local_addr(), self.peer_reply, wire, pkt);
        Ok(qp)
    }

    /// Rejects the connection with a reason delivered to the peer.
    pub fn reject(self, sim: &mut Simulator, reason: impl Into<String>) {
        let reason = reason.into();
        let pkt = RdmaPacket::ConnReject {
            conn_id: self.conn_id,
            reason,
        };
        let wire = pkt.wire_bytes(self.device.model().ack_bytes);
        let from = Addr::new(self.device.host(), self.listen_port);
        self.device
            .net()
            .send(sim, from, self.peer_reply, wire, pkt);
    }
}

/// A listening endpoint. Dropping it does not unbind; call
/// [`CmListener::close`].
#[derive(Debug)]
pub struct CmListener {
    device: RdmaDevice,
    addr: Addr,
}

impl CmListener {
    /// The address the listener is bound to.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Stops listening and releases the port.
    pub fn close(self) {
        self.device.net().unbind(self.addr);
    }
}

pub(crate) fn listen(device: &RdmaDevice, port: u32) -> VerbsResult<CmListener> {
    let addr = Addr::new(device.host(), port);
    if device.net().is_bound(addr) {
        return Err(VerbsError::AddrInUse);
    }
    let dev = device.downgrade();
    device.net().bind(
        addr,
        Box::new(move |sim, frame| {
            let (Some(dev), Ok(pkt)) = (dev.upgrade(), frame.into_payload::<RdmaPacket>()) else {
                return;
            };
            if let RdmaPacket::ConnReq {
                src_data_addr,
                reply_to,
                src_qp,
                conn_id,
            } = pkt
            {
                dev.push_cm_event(
                    sim,
                    CmEvent::ConnectRequest(ConnRequest {
                        device: dev.clone(),
                        listen_port: port,
                        peer_reply: reply_to,
                        peer_data_addr: src_data_addr,
                        peer_qp: src_qp,
                        conn_id,
                    }),
                );
            }
        }),
    );
    Ok(CmListener {
        device: device.clone(),
        addr,
    })
}

pub(crate) fn connect(
    device: &RdmaDevice,
    sim: &mut Simulator,
    remote: Addr,
    cfg: &QpConfig,
) -> VerbsResult<(QueuePair, u64)> {
    let qp = device.create_qp(cfg);
    qp.modify_to_init()?;
    let conn_id = device.next_conn_id();
    let reply_addr = device.net().ephemeral_port(device.host());

    // Bind a one-shot reply port for the accept/reject.
    let qp_for_reply = qp.downgrade();
    device.net().bind(
        reply_addr,
        Box::new(move |sim, frame| {
            let (Some(qp_for_reply), Ok(pkt)) =
                (qp_for_reply.upgrade(), frame.into_payload::<RdmaPacket>())
            else {
                return;
            };
            let dev = &qp_for_reply.device;
            match pkt {
                RdmaPacket::ConnAccept {
                    conn_id,
                    src_data_addr,
                    src_qp,
                } => {
                    let established = qp_for_reply
                        .modify_to_rtr(src_data_addr, src_qp)
                        .and_then(|()| qp_for_reply.modify_to_rts());
                    match established {
                        Ok(()) => dev.push_cm_event(
                            sim,
                            CmEvent::Established {
                                qp: qp_for_reply.clone(),
                                conn_id,
                            },
                        ),
                        Err(e) => dev.push_cm_event(
                            sim,
                            CmEvent::ConnectFailed {
                                conn_id,
                                reason: e.to_string(),
                            },
                        ),
                    }
                    dev.net().unbind(reply_addr);
                }
                RdmaPacket::ConnReject { conn_id, reason } => {
                    qp_for_reply.enter_error();
                    dev.push_cm_event(sim, CmEvent::ConnectFailed { conn_id, reason });
                    dev.net().unbind(reply_addr);
                }
                _ => {}
            }
        }),
    );

    let pkt = RdmaPacket::ConnReq {
        src_data_addr: qp.local_addr(),
        reply_to: reply_addr,
        src_qp: qp.num(),
        conn_id,
    };
    let wire = pkt.wire_bytes(device.model().ack_bytes);
    device.net().send(sim, reply_addr, remote, wire, pkt);
    Ok((qp, conn_id))
}
