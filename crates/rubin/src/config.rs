//! RUBIN framework configuration.

/// Tunables of a RUBIN channel and selector.
///
/// The paper (§III-B) stresses that "the number of WRs as well as the size
/// of buffers can be independently specified, thereby allowing for the
/// versatility needed by BFT protocols"; every §IV optimization is a knob
/// here so the ablation benchmarks can toggle them individually:
///
/// * `signal_interval` — *selective signaling*: only every n-th send is
///   signaled; completions of the unsignaled majority are inferred from RC
///   ordering when the next signaled completion arrives.
/// * `recv_batch` — *batched posting*: consumed receive buffers are
///   re-posted in batches to amortize the doorbell.
/// * `inline_threshold` — *inline sends*: payloads at or below this size
///   ride in the WQE, skipping the NIC's DMA fetch.
/// * `zero_copy_send` — *send-side zero copy*: payloads above
///   `small_copy_threshold` are sent from a directly registered application
///   buffer instead of being copied into a pooled slab. The receive side
///   always copies (the cost the paper observes for >16 KB payloads).
#[derive(Debug, Clone, PartialEq)]
pub struct RubinConfig {
    /// Receive buffers pre-registered and pre-posted per channel.
    pub recv_buffers: usize,
    /// Send buffer slabs (and the cap on outstanding sends) per channel.
    pub send_buffers: usize,
    /// Size of each pooled buffer; one message must fit in one buffer.
    pub buffer_size: usize,
    /// A completion is requested every `signal_interval` sends (1 = every
    /// send, i.e. selective signaling off).
    pub signal_interval: usize,
    /// Consumed receive buffers are re-posted once this many accumulate
    /// (1 = immediate re-posting, i.e. batching off).
    pub recv_batch: usize,
    /// Payloads at or below this size are sent inline.
    pub inline_threshold: usize,
    /// Enables send-side zero copy for payloads above
    /// `small_copy_threshold`.
    pub zero_copy_send: bool,
    /// With zero copy enabled, payloads at or below this size are still
    /// copied into a pooled slab (registration would cost more than the
    /// copy; paper §IV recommends 256 B).
    pub small_copy_threshold: usize,
    /// CPU cost of one RUBIN `select()` call. Higher than the epoll-backed
    /// Java NIO selector (paper §IV plans a native reimplementation).
    pub select_ns: u64,
    /// CPU cost of a send-registration cache hit for a zero-copy send.
    pub reg_cache_ns: u64,
}

impl RubinConfig {
    /// The configuration evaluated in the paper's Figures 3 and 4.
    ///
    /// Send-side zero copy is *off*: §IV lists registering the application
    /// buffer directly as a planned optimization ("We plan to adopt several
    /// optimizations in future versions"), and the measured §V curves show
    /// the receive- and send-side copies. [`RubinConfig::future`] enables
    /// it.
    pub fn paper() -> RubinConfig {
        RubinConfig {
            recv_buffers: 64,
            send_buffers: 64,
            buffer_size: 128 * 1024,
            signal_interval: 8,
            recv_batch: 8,
            inline_threshold: 256,
            zero_copy_send: false,
            small_copy_threshold: 256,
            select_ns: 2_400,
            reg_cache_ns: 350,
        }
    }

    /// The paper's planned future version (§IV/§VII): send-side zero copy
    /// for payloads above `small_copy_threshold`. Its receive-side half
    /// ("remove any additional buffer copy steps") is not a setting: the
    /// application calls
    /// [`RdmaChannel::read_borrowed`](crate::RdmaChannel::read_borrowed),
    /// which lends a message's bytes to a closure in the registered buffer
    /// and re-posts the buffer when the closure returns, instead of
    /// [`RdmaChannel::read`](crate::RdmaChannel::read), which copies them
    /// out.
    pub fn future() -> RubinConfig {
        RubinConfig {
            zero_copy_send: true,
            ..RubinConfig::paper()
        }
    }

    /// All §IV optimizations disabled — the naive RDMA Send/Receive
    /// configuration (used as the "RDMA Send/Recv" series in Figure 3 and
    /// by the ablation benchmarks).
    pub fn unoptimized() -> RubinConfig {
        RubinConfig {
            signal_interval: 1,
            recv_batch: 1,
            inline_threshold: 0,
            zero_copy_send: false,
            ..RubinConfig::paper()
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics if any pool is empty, the buffer size is zero, or
    /// `signal_interval`/`recv_batch` are zero or exceed the pool sizes.
    pub fn validate(&self) {
        assert!(self.recv_buffers > 0, "recv_buffers must be positive");
        assert!(self.send_buffers > 0, "send_buffers must be positive");
        assert!(self.buffer_size > 0, "buffer_size must be positive");
        assert!(
            self.signal_interval > 0 && self.signal_interval <= self.send_buffers,
            "signal_interval must be in 1..=send_buffers"
        );
        assert!(
            self.recv_batch > 0 && self.recv_batch <= self.recv_buffers,
            "recv_batch must be in 1..=recv_buffers"
        );
    }
}

impl Default for RubinConfig {
    fn default() -> RubinConfig {
        RubinConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        RubinConfig::paper().validate();
        RubinConfig::unoptimized().validate();
    }

    #[test]
    fn unoptimized_disables_all_knobs() {
        let c = RubinConfig::unoptimized();
        assert_eq!(c.signal_interval, 1);
        assert_eq!(c.recv_batch, 1);
        assert_eq!(c.inline_threshold, 0);
        assert!(!c.zero_copy_send);
    }

    #[test]
    #[should_panic(expected = "signal_interval")]
    fn oversized_signal_interval_rejected() {
        let c = RubinConfig {
            signal_interval: 1000,
            ..RubinConfig::paper()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "recv_batch")]
    fn zero_recv_batch_rejected() {
        let c = RubinConfig {
            recv_batch: 0,
            ..RubinConfig::paper()
        };
        c.validate();
    }
}
