//! Wire packets exchanged between simulated RNICs.
//!
//! These are internal to the crate: applications never see packets, only
//! work completions and CM events, exactly as with real verbs.

use simnet::{Addr, BytePool};

use crate::types::{QpNum, WcStatus};

/// Header bytes charged for a RoCE data packet (Ethernet + IP + UDP + BTH
/// are modelled by the link's per-segment overhead; this is the transport
/// extension overhead per message).
pub(crate) const ROCE_MSG_OVERHEAD: usize = 14;

/// RDMA transport packets (RC service).
///
/// `Clone` serves two masters: the sender keeps a copy of every
/// unacknowledged data packet for retransmission, and the simulated network
/// needs cloneable payloads to model fault-injected duplication.
#[derive(Debug, Clone)]
pub(crate) enum RdmaPacket {
    /// Two-sided SEND payload.
    Send {
        /// Sender's QP number (for completion bookkeeping on acks).
        src_qp: QpNum,
        /// Message payload (the DMA'd bytes).
        data: Vec<u8>,
        /// Optional immediate data.
        imm: Option<u32>,
        /// Sender-side sequence number for ack matching.
        seq: u64,
    },
    /// One-sided RDMA WRITE request.
    WriteReq {
        src_qp: QpNum,
        /// Remote key presented for validation.
        rkey: u32,
        /// Destination offset within the remote region.
        offset: usize,
        data: Vec<u8>,
        /// Present for WRITE_WITH_IMM: consumes a remote receive WR.
        imm: Option<u32>,
        seq: u64,
    },
    /// One-sided RDMA READ request.
    ReadReq {
        #[allow(dead_code)]
        src_qp: QpNum,
        rkey: u32,
        offset: usize,
        len: usize,
        seq: u64,
    },
    /// Response to a READ request carrying the remote data.
    ReadResp { seq: u64, data: Vec<u8> },
    /// Positive acknowledgement completing a SEND or WRITE at the requester.
    Ack { seq: u64 },
    /// Receiver-not-ready: no receive WR was posted within the RNR window.
    RnrNak { seq: u64 },
    /// Negative acknowledgement (access violation, responder error, …).
    Nak { seq: u64, status: WcStatus },
    /// Connection management: request to establish an RC connection.
    ConnReq {
        /// Address (QP port) the active side receives data on.
        src_data_addr: Addr,
        /// Address the active side receives CM replies on.
        reply_to: Addr,
        src_qp: QpNum,
        /// Application-provided private data (rdma_cm style).
        private: Vec<u8>,
        conn_id: u64,
    },
    /// Connection management: accept, carrying the passive side's QP info.
    ConnAccept {
        conn_id: u64,
        src_data_addr: Addr,
        src_qp: QpNum,
        private: Vec<u8>,
    },
    /// Connection management: rejection.
    ConnReject { conn_id: u64, reason: String },
    /// Orderly teardown notification.
    Disconnect {
        #[allow(dead_code)]
        src_qp: QpNum,
    },
}

// A frame in flight is an event closure holding the network handle (8 B),
// the frame header (24 B) and this packet by value, stored in place in a
// 96-byte event slot. A packet over 64 B would box every RDMA frame's event.
const _: () = assert!(std::mem::size_of::<RdmaPacket>() <= 64);

impl RdmaPacket {
    /// Bytes this packet occupies on the wire (before per-segment framing).
    pub(crate) fn wire_bytes(&self, ack_bytes: usize) -> usize {
        match self {
            RdmaPacket::Send { data, .. } => data.len() + ROCE_MSG_OVERHEAD,
            RdmaPacket::WriteReq { data, .. } => data.len() + ROCE_MSG_OVERHEAD + 16,
            RdmaPacket::ReadReq { .. } => ROCE_MSG_OVERHEAD + 16,
            RdmaPacket::ReadResp { data, .. } => data.len() + ROCE_MSG_OVERHEAD,
            RdmaPacket::Ack { .. } | RdmaPacket::RnrNak { .. } | RdmaPacket::Nak { .. } => {
                ack_bytes
            }
            RdmaPacket::ConnReq { private, .. } => 64 + private.len(),
            RdmaPacket::ConnAccept { private, .. } => 64 + private.len(),
            RdmaPacket::ConnReject { reason, .. } => 64 + reason.len(),
            RdmaPacket::Disconnect { .. } => 32,
        }
    }

    /// Clones the packet with its payload buffer drawn from `pool` — the
    /// retransmission copy the sender parks per unacked data packet.
    pub(crate) fn clone_with_pool(&self, pool: &BytePool) -> RdmaPacket {
        let pooled = |data: &[u8]| {
            let mut c = pool.take(data.len());
            c.extend_from_slice(data);
            c
        };
        match self {
            RdmaPacket::Send {
                src_qp,
                data,
                imm,
                seq,
            } => RdmaPacket::Send {
                src_qp: *src_qp,
                data: pooled(data),
                imm: *imm,
                seq: *seq,
            },
            RdmaPacket::WriteReq {
                src_qp,
                rkey,
                offset,
                data,
                imm,
                seq,
            } => RdmaPacket::WriteReq {
                src_qp: *src_qp,
                rkey: *rkey,
                offset: *offset,
                data: pooled(data),
                imm: *imm,
                seq: *seq,
            },
            other => other.clone(),
        }
    }

    /// Takes the payload buffer out of a data packet so the caller can
    /// recycle it (`None` for control packets).
    pub(crate) fn into_data(self) -> Option<Vec<u8>> {
        match self {
            RdmaPacket::Send { data, .. }
            | RdmaPacket::WriteReq { data, .. }
            | RdmaPacket::ReadResp { data, .. } => Some(data),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_reflect_payload() {
        let send = RdmaPacket::Send {
            src_qp: QpNum(0),
            data: vec![0; 1000],
            imm: None,
            seq: 1,
        };
        assert_eq!(send.wire_bytes(16), 1000 + ROCE_MSG_OVERHEAD);
        let ack = RdmaPacket::Ack { seq: 1 };
        assert_eq!(ack.wire_bytes(16), 16);
        let rr = RdmaPacket::ReadReq {
            src_qp: QpNum(0),
            rkey: 1,
            offset: 0,
            len: 4096,
            seq: 2,
        };
        // Read requests are small regardless of requested length.
        assert!(rr.wire_bytes(16) < 64);
    }
}
