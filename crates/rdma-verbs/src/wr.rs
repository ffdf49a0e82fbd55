//! Work requests: the unit of data transfer posted to a queue pair.

use crate::mr::MemoryRegion;
use crate::types::{RKey, WrId};

/// A scatter/gather element: one contiguous slice of a registered region.
///
/// The simulator supports a single SGE per work request, which is all the
/// RUBIN framework and the Reptor stack require.
#[derive(Debug, Clone)]
pub struct Sge {
    /// The registered region.
    pub mr: MemoryRegion,
    /// Start offset within the region.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

impl Sge {
    /// References `[offset, offset+len)` of `mr`.
    pub fn new(mr: MemoryRegion, offset: usize, len: usize) -> Sge {
        Sge { mr, offset, len }
    }

    /// References the whole region.
    pub fn whole(mr: MemoryRegion) -> Sge {
        let len = mr.len();
        Sge { mr, offset: 0, len }
    }
}

/// The operation kind of a send-queue work request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendOp {
    /// Two-sided SEND: consumes a receive WR at the remote QP.
    Send {
        /// Optional immediate data delivered with the message.
        imm: Option<u32>,
    },
    /// One-sided RDMA WRITE into remote memory identified by rkey+offset.
    Write {
        /// Remote region key (Steering Tag).
        rkey: RKey,
        /// Offset within the remote region.
        remote_offset: usize,
        /// If set, also consumes a remote receive WR and generates a
        /// remote completion carrying this immediate (WRITE_WITH_IMM).
        imm: Option<u32>,
    },
    /// One-sided RDMA READ from remote memory into the local SGE.
    Read {
        /// Remote region key (Steering Tag).
        rkey: RKey,
        /// Offset within the remote region.
        remote_offset: usize,
    },
}

/// A send-queue work request.
///
/// Construct with the focused constructors and refine with the builder
/// methods:
///
/// ```no_run
/// # use rdma_verbs::{SendWr, Sge, WrId};
/// # fn demo(sge: Sge) {
/// let wr = SendWr::send(WrId(7), sge).signaled().with_inline();
/// # let _ = wr;
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SendWr {
    /// Caller-chosen id echoed in the completion.
    pub wr_id: WrId,
    /// The local buffer (source for SEND/WRITE, destination for READ).
    pub sge: Sge,
    /// Operation kind.
    pub op: SendOp,
    /// Whether a successful completion generates a CQE. Errors always do.
    /// Posting unsignaled WRs is the *selective signaling* optimization of
    /// paper §IV.
    pub signaled: bool,
    /// Whether the payload is placed inline in the WQE, skipping the DMA
    /// read (paper §IV; only valid up to the device inline limit).
    pub inline: bool,
}

impl SendWr {
    /// A two-sided SEND of the SGE contents.
    pub fn send(wr_id: WrId, sge: Sge) -> SendWr {
        SendWr {
            wr_id,
            sge,
            op: SendOp::Send { imm: None },
            signaled: false,
            inline: false,
        }
    }

    /// A one-sided RDMA WRITE of the SGE contents into remote memory.
    pub fn write(wr_id: WrId, sge: Sge, rkey: RKey, remote_offset: usize) -> SendWr {
        SendWr {
            wr_id,
            sge,
            op: SendOp::Write {
                rkey,
                remote_offset,
                imm: None,
            },
            signaled: false,
            inline: false,
        }
    }

    /// A one-sided RDMA WRITE that also raises a remote completion with
    /// immediate data.
    pub fn write_with_imm(
        wr_id: WrId,
        sge: Sge,
        rkey: RKey,
        remote_offset: usize,
        imm: u32,
    ) -> SendWr {
        SendWr {
            wr_id,
            sge,
            op: SendOp::Write {
                rkey,
                remote_offset,
                imm: Some(imm),
            },
            signaled: false,
            inline: false,
        }
    }

    /// A one-sided RDMA READ from remote memory into the SGE.
    pub fn read(wr_id: WrId, sge: Sge, rkey: RKey, remote_offset: usize) -> SendWr {
        SendWr {
            wr_id,
            sge,
            op: SendOp::Read {
                rkey,
                remote_offset,
            },
            signaled: false,
            inline: false,
        }
    }

    /// Requests a completion entry on success.
    pub fn signaled(mut self) -> SendWr {
        self.signaled = true;
        self
    }

    /// Requests inline transmission (small payloads only).
    pub fn with_inline(mut self) -> SendWr {
        self.inline = true;
        self
    }
}

/// A receive-queue work request: a buffer the NIC may place one inbound
/// SEND into.
#[derive(Debug, Clone)]
pub struct RecvWr {
    /// Caller-chosen id echoed in the completion.
    pub wr_id: WrId,
    /// Destination buffer; must grant [`Access::LOCAL_WRITE`](crate::Access::LOCAL_WRITE).
    pub sge: Sge,
}

impl RecvWr {
    /// Creates a receive work request for the given buffer.
    pub fn new(wr_id: WrId, sge: Sge) -> RecvWr {
        RecvWr { wr_id, sge }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{MemoryRegion, MrTable};
    use crate::types::{Access, PdId};

    fn mr() -> MemoryRegion {
        MrTable::register(&MrTable::new(), PdId(0), 64, Access::LOCAL_WRITE)
    }

    #[test]
    fn constructors_set_ops() {
        let wr = SendWr::send(WrId(1), Sge::whole(mr()));
        assert_eq!(wr.op, SendOp::Send { imm: None });
        assert!(!wr.signaled);
        assert!(!wr.inline);

        let wr = SendWr::write(WrId(2), Sge::whole(mr()), RKey(5), 8).signaled();
        assert!(matches!(
            wr.op,
            SendOp::Write {
                rkey: RKey(5),
                remote_offset: 8,
                imm: None
            }
        ));
        assert!(wr.signaled);

        let wr = SendWr::write_with_imm(WrId(2), Sge::whole(mr()), RKey(5), 0, 3);
        assert!(matches!(wr.op, SendOp::Write { imm: Some(3), .. }));

        let wr = SendWr::read(WrId(3), Sge::whole(mr()), RKey(5), 16).with_inline();
        assert!(matches!(wr.op, SendOp::Read { .. }));
        assert!(wr.inline);
    }

    #[test]
    fn sge_whole_covers_region() {
        let sge = Sge::whole(mr());
        assert_eq!(sge.offset, 0);
        assert_eq!(sge.len, 64);
        let sge = Sge::new(mr(), 8, 16);
        assert_eq!((sge.offset, sge.len), (8, 16));
    }
}
