//! Identifier and enum types shared across the verbs API.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Queue pair number, unique per device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpNum(pub u32);

impl fmt::Display for QpNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// Completion queue identifier, unique per device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CqId(pub u32);

/// Protection domain identifier, unique per device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PdId(pub u32);

/// Local memory key: proves the posting process registered the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LKey(pub u32);

/// Remote memory key (the iWARP "Steering Tag" / IB rkey): grants remote
/// peers access to a registered region, subject to its access flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RKey(pub u32);

/// Caller-chosen identifier echoed back in the work completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WrId(pub u64);

/// Memory-region access permissions.
///
/// Mirrors `IBV_ACCESS_*`. Combine with `|`:
///
/// ```
/// use rdma_verbs::Access;
///
/// let acc = Access::LOCAL_WRITE | Access::REMOTE_READ;
/// assert!(acc.allows(Access::REMOTE_READ));
/// assert!(!acc.allows(Access::REMOTE_WRITE));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Access(u8);

impl Access {
    /// No permissions (local read is always implied).
    pub const NONE: Access = Access(0);
    /// The local NIC may write into the region (needed for receive buffers
    /// and as the target of RDMA READ responses).
    pub const LOCAL_WRITE: Access = Access(1);
    /// Remote peers may issue RDMA READ against the region.
    pub const REMOTE_READ: Access = Access(2);
    /// Remote peers may issue RDMA WRITE against the region.
    pub const REMOTE_WRITE: Access = Access(4);

    /// True if `self` includes every permission in `other`.
    pub fn allows(self, other: Access) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for Access {
    type Output = Access;
    fn bitor(self, rhs: Access) -> Access {
        Access(self.0 | rhs.0)
    }
}

impl BitOrAssign for Access {
    fn bitor_assign(&mut self, rhs: Access) {
        self.0 |= rhs.0;
    }
}

/// Queue pair state machine, mirroring `ibv_qp_state`.
///
/// Transitions: `Reset → Init → ReadyToReceive → ReadyToSend`, with any
/// state able to fall into `Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QpState {
    /// Freshly created; no posting allowed.
    Reset,
    /// Initialized; receive WRs may be posted.
    Init,
    /// Connected to the remote QP; inbound packets are processed.
    ReadyToReceive,
    /// Fully operational; send WRs may be posted.
    ReadyToSend,
    /// Fatal error; all posted work completes with flush errors.
    Error,
}

impl QpState {
    /// True if receive work requests may be posted in this state.
    pub fn can_post_recv(self) -> bool {
        matches!(
            self,
            QpState::Init | QpState::ReadyToReceive | QpState::ReadyToSend
        )
    }

    /// True if send work requests may be posted in this state.
    pub fn can_post_send(self) -> bool {
        self == QpState::ReadyToSend
    }

    /// True if inbound packets are processed in this state.
    pub fn can_receive(self) -> bool {
        matches!(self, QpState::ReadyToReceive | QpState::ReadyToSend)
    }
}

/// Status of a completed work request, mirroring `ibv_wc_status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WcStatus {
    /// Operation completed successfully.
    Success,
    /// Local length error (e.g. receive buffer smaller than the message).
    LocalLengthError,
    /// Local protection error (buffer not covered by a valid, permitted MR).
    LocalProtectionError,
    /// Remote access error (bad rkey, out-of-bounds, or permission denied).
    RemoteAccessError,
    /// Remote operation error (responder failure).
    RemoteOperationError,
    /// Receiver-not-ready retries exhausted (no receive WR posted remotely).
    RnrRetryExceeded,
    /// Transport retries exhausted: the operation was retransmitted
    /// `retry_cnt` times without an acknowledgement (remote NIC dead,
    /// link blackholed, or every copy lost). Mirrors
    /// `IBV_WC_RETRY_EXC_ERR`.
    RetryExceeded,
    /// Work request flushed because the QP entered the error state.
    WorkRequestFlushed,
}

impl WcStatus {
    /// True for `Success`.
    pub fn is_ok(self) -> bool {
        self == WcStatus::Success
    }
}

/// Which operation a work completion refers to, mirroring `ibv_wc_opcode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WcOpcode {
    /// A send work request completed.
    Send,
    /// An RDMA WRITE work request completed.
    RdmaWrite,
    /// An RDMA READ work request completed.
    RdmaRead,
    /// A receive work request completed (two-sided SEND arrived).
    Recv,
    /// A receive completed due to RDMA WRITE-with-immediate.
    RecvRdmaWithImm,
}

/// A work completion: one entry polled from a completion queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wc {
    /// The caller-chosen id of the completed work request.
    pub wr_id: WrId,
    /// Completion status.
    pub status: WcStatus,
    /// Completed operation kind.
    pub opcode: WcOpcode,
    /// Bytes transferred (payload length).
    pub byte_len: usize,
    /// The QP the work request was posted on.
    pub qp: QpNum,
    /// Immediate data, present for `RecvRdmaWithImm` (and SENDs with
    /// immediate).
    pub imm: Option<u32>,
}

impl Wc {
    /// Convenience: true if the completion is successful.
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_flags_compose() {
        let a = Access::LOCAL_WRITE | Access::REMOTE_WRITE;
        assert!(a.allows(Access::LOCAL_WRITE));
        assert!(a.allows(Access::REMOTE_WRITE));
        assert!(!a.allows(Access::REMOTE_READ));
        assert!(Access::NONE.allows(Access::NONE));
        let mut b = Access::NONE;
        b |= Access::REMOTE_READ;
        assert!(b.allows(Access::REMOTE_READ));
    }

    #[test]
    fn qp_state_permissions() {
        assert!(!QpState::Reset.can_post_recv());
        assert!(QpState::Init.can_post_recv());
        assert!(!QpState::Init.can_post_send());
        assert!(QpState::ReadyToReceive.can_receive());
        assert!(!QpState::ReadyToReceive.can_post_send());
        assert!(QpState::ReadyToSend.can_post_send());
        assert!(QpState::ReadyToSend.can_receive());
        assert!(!QpState::Error.can_post_send());
        assert!(!QpState::Error.can_receive());
    }

    #[test]
    fn wc_status_ok() {
        assert!(WcStatus::Success.is_ok());
        assert!(!WcStatus::RemoteAccessError.is_ok());
        let wc = Wc {
            wr_id: WrId(1),
            status: WcStatus::Success,
            opcode: WcOpcode::Send,
            byte_len: 10,
            qp: QpNum(0),
            imm: None,
        };
        assert!(wc.is_ok());
    }

    #[test]
    fn display_impls() {
        assert_eq!(QpNum(3).to_string(), "qp3");
    }
}
