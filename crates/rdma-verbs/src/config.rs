//! RNIC capability and cost model.

use simnet::Nanos;

/// Timing model and capabilities of the simulated RDMA NIC.
///
/// Defaults model the paper's Mellanox ConnectX-3 Pro (MT27520) accessed
/// through a managed-runtime verbs binding (jVerbs/DiSNI): the *hardware*
/// constants are physically plausible for PCIe gen3, while the *software*
/// constants (posting, polling) include the binding's marshalling overhead,
/// which is what makes ill-advised configurations fall back to TCP-level
/// performance (paper §I).
#[derive(Debug, Clone, PartialEq)]
pub struct RnicModel {
    /// CPU cost of posting one work request (WQE build + doorbell).
    pub post_wr_ns: u64,
    /// CPU cost of each *additional* WR in a batched post; batching posts
    /// amortizes the doorbell (paper §IV optimization).
    pub post_batch_extra_ns: u64,
    /// NIC-side latency to fetch a WQE and start processing.
    pub wqe_fetch_ns: u64,
    /// PCIe DMA cost per byte (NIC reads payload from host memory, or
    /// writes it on the receive side). Not charged for inline sends.
    pub dma_ns_per_byte: f64,
    /// Fixed PCIe round-trip to start a DMA fetch of the payload — the
    /// latency an *inline* send avoids entirely (paper §IV: "the RDMA
    /// device does not need to perform additional read operations to get
    /// the payload").
    pub dma_fetch_base_ns: u64,
    /// NIC-side latency to generate a completion entry.
    pub cqe_ns: u64,
    /// CPU cost of one `poll_cq` call (JNI boundary + queue scan).
    pub poll_cq_ns: u64,
    /// CPU cost of handling one drained completion entry.
    pub handle_cqe_ns: u64,
    /// Maximum payload that can be sent inline in the WQE (no DMA read).
    pub max_inline: usize,
    /// Maximum outstanding send work requests per QP.
    pub max_send_wr: usize,
    /// Maximum outstanding receive work requests per QP.
    pub max_recv_wr: usize,
    /// Maximum WRs accepted by a single post call (device batch limit).
    pub max_post_batch: usize,
    /// Receiver-not-ready retry count before failing a send.
    pub rnr_retry: u32,
    /// Delay between RNR retries.
    pub rnr_timer: Nanos,
    /// Transport retry count: how many times an unacknowledged operation is
    /// retransmitted before the send fails with
    /// [`WcStatus::RetryExceeded`](crate::WcStatus::RetryExceeded) and the
    /// QP enters the error state. Mirrors ibverbs `retry_cnt` (7 is the
    /// common maximum).
    pub retry_cnt: u32,
    /// ACK timeout: how long the connection may go without cumulative ACK
    /// progress before the oldest unacknowledged operation is
    /// retransmitted. Mirrors ibverbs `timeout` (which encodes
    /// `4.096 µs × 2^timeout`); here the duration is given directly. The
    /// clock measures *silence*, not per-packet age — operations queued
    /// behind a deep send window are not retransmitted while ACKs keep
    /// advancing — so the value must exceed the worst-case single-message
    /// ACK round trip, including the receiver's RNR hold window
    /// (`rnr_timer × (rnr_retry + 1)`), not the whole queue's drain time.
    pub timeout: Nanos,
    /// Wire size of a NIC-level acknowledgement.
    pub ack_bytes: usize,
    /// Memory-registration cost: fixed part (ioctl, key allocation).
    pub reg_mr_base_ns: u64,
    /// Memory-registration cost per page pinned (4 KiB pages).
    pub reg_mr_per_page_ns: u64,
}

impl RnicModel {
    /// The paper's testbed NIC (ConnectX-3 Pro over RoCE, DiSNI binding).
    pub fn mt27520() -> RnicModel {
        RnicModel {
            post_wr_ns: 2_500,
            post_batch_extra_ns: 300,
            wqe_fetch_ns: 400,
            dma_ns_per_byte: 0.15,
            dma_fetch_base_ns: 700,
            cqe_ns: 1_500,
            poll_cq_ns: 1_500,
            handle_cqe_ns: 1_000,
            max_inline: 256,
            max_send_wr: 128,
            max_recv_wr: 512,
            max_post_batch: 32,
            rnr_retry: 6,
            rnr_timer: Nanos::from_micros(80),
            retry_cnt: 7,
            // > rnr_timer × (rnr_retry + 1) = 560 µs, so a message held at
            // the receiver is not also retransmitted from the sender.
            timeout: Nanos::from_millis(1),
            ack_bytes: 16,
            reg_mr_base_ns: 15_000,
            reg_mr_per_page_ns: 250,
        }
    }

    /// DMA cost for `bytes` of payload.
    pub fn dma_cost(&self, bytes: usize) -> Nanos {
        Nanos::from_nanos((self.dma_ns_per_byte * bytes as f64) as u64)
    }

    /// Cost of registering a memory region of `len` bytes.
    pub fn reg_mr_cost(&self, len: usize) -> Nanos {
        let pages = len.div_ceil(4096).max(1) as u64;
        Nanos::from_nanos(self.reg_mr_base_ns + pages * self.reg_mr_per_page_ns)
    }

    /// CPU cost of posting a batch of `n` work requests in one call.
    pub fn post_batch_cost(&self, n: usize) -> Nanos {
        if n == 0 {
            return Nanos::ZERO;
        }
        Nanos::from_nanos(self.post_wr_ns + (n as u64 - 1) * self.post_batch_extra_ns)
    }
}

impl Default for RnicModel {
    fn default() -> RnicModel {
        RnicModel::mt27520()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_cost_scales() {
        let m = RnicModel::mt27520();
        assert_eq!(m.dma_cost(0), Nanos::ZERO);
        let one_kb = m.dma_cost(1024).as_nanos();
        let hundred_kb = m.dma_cost(102_400).as_nanos();
        assert!(hundred_kb >= 99 * one_kb);
    }

    #[test]
    fn reg_mr_cost_counts_pages() {
        let m = RnicModel::mt27520();
        let one_page = m.reg_mr_cost(100);
        let two_pages = m.reg_mr_cost(5_000);
        assert_eq!(
            two_pages.as_nanos() - one_page.as_nanos(),
            m.reg_mr_per_page_ns
        );
    }

    #[test]
    fn batched_posting_amortizes() {
        let m = RnicModel::mt27520();
        let ten_single = m.post_batch_cost(1).as_nanos() * 10;
        let one_batch = m.post_batch_cost(10).as_nanos();
        assert!(one_batch < ten_single);
        assert_eq!(m.post_batch_cost(0), Nanos::ZERO);
    }
}
