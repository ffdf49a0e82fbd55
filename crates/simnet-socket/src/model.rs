//! TCP stack cost model.

use simnet::Nanos;

/// Timing and capacity model of the simulated kernel TCP stack.
///
/// The constants capture why TCP loses to RDMA in the paper: every message
/// crosses the kernel twice ([`syscall`](simnet::CpuModel::syscall_ns)),
/// is copied twice (user→socket buffer on the sender, socket buffer→user on
/// the receiver, charged via [`CpuModel::copy_cost`](simnet::CpuModel)),
/// and pays per-segment protocol processing plus an interrupt on receive
/// (Frey & Alonso's "hidden costs" \[6\], Binkert et al. \[13\]).
#[derive(Debug, Clone, PartialEq)]
pub struct TcpModel {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Send socket-buffer capacity in bytes.
    pub send_buf: usize,
    /// Receive socket-buffer capacity in bytes.
    pub recv_buf: usize,
    /// Kernel transmit-path processing per segment (header build, checksum,
    /// qdisc, driver).
    pub segment_tx_ns: u64,
    /// Kernel receive-path processing per segment (after the interrupt).
    pub segment_rx_ns: u64,
    /// Wire size of a bare ACK.
    pub ack_bytes: usize,
    /// Extra wire bytes per data segment (TCP header; IP/Ethernet framing is
    /// charged by the link model).
    pub header_bytes: usize,
    /// One-shot connection establishment cost per side.
    pub connect_ns: u64,
    /// Retransmission timeout: how long the oldest unacknowledged segment
    /// (or an unanswered SYN) may stay outstanding before it is re-sent.
    /// Real kernels adapt this from RTT estimates; the simulated link RTT
    /// is fixed, so a constant well above it models the same behaviour.
    pub rto: Nanos,
    /// Consecutive RTO expiries without any acknowledged progress before
    /// the stream is declared broken (surfaces as EOF to the application,
    /// like a kernel `ETIMEDOUT`).
    pub max_retransmits: u32,
}

impl TcpModel {
    /// Linux-on-Xeon-v2 defaults matching the paper's testbed software.
    pub fn linux_xeon() -> TcpModel {
        TcpModel {
            mss: 1448,
            send_buf: 64 * 1024,
            recv_buf: 64 * 1024,
            segment_tx_ns: 1_600,
            segment_rx_ns: 1_400,
            ack_bytes: 40,
            header_bytes: 20,
            connect_ns: 30_000,
            // Linux's RTO floor is 200 ms; that dwarfs every simulated
            // scenario, so model a datacenter-tuned stack instead: an RTO
            // a few times the ~10 µs link RTT plus kernel processing.
            rto: Nanos::from_micros(500),
            max_retransmits: 8,
        }
    }

    /// Number of segments needed for `bytes` of payload.
    pub fn segments(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.mss).max(1)
    }

    /// Kernel transmit CPU cost for a burst of `bytes`.
    pub fn tx_cost(&self, bytes: usize) -> Nanos {
        Nanos::from_nanos(self.segments(bytes) as u64 * self.segment_tx_ns)
    }
}

impl Default for TcpModel {
    fn default() -> TcpModel {
        TcpModel::linux_xeon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_math() {
        let m = TcpModel::linux_xeon();
        assert_eq!(m.segments(0), 1);
        assert_eq!(m.segments(1), 1);
        assert_eq!(m.segments(1448), 1);
        assert_eq!(m.segments(1449), 2);
        assert_eq!(m.segments(100 * 1024), 71);
    }

    #[test]
    fn tx_cost_scales_with_segments() {
        let m = TcpModel::linux_xeon();
        assert_eq!(m.tx_cost(3000).as_nanos(), 3 * m.segment_tx_ns);
    }
}
