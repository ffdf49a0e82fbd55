//! Queue pairs: the RC (reliable connection) transport endpoint.
//!
//! A [`QueuePair`] owns a send queue and a receive queue. Posted send work
//! requests are charged to the owning core (WQE build + doorbell), then the
//! simulated NIC fetches the WQE, DMAs the payload (unless inline) and emits
//! a packet; the remote NIC validates, places data and acknowledges. All
//! latencies come from the [`RnicModel`](crate::RnicModel).
//!
//! ## Divergences from hardware, by design
//!
//! * Receiver-not-ready is modelled as a bounded *hold window*: an inbound
//!   SEND that finds no receive WR waits up to `rnr_timer × (rnr_retry+1)`
//!   for one to be posted, then fails the sender with `RnrRetryExceeded`.
//!   This preserves RC's in-order delivery without simulating per-packet
//!   RNR polling, while still failing loudly when an application
//!   under-posts receives (the pitfall paper §II-A warns about).
//! * Loss recovery is retransmission at *message* granularity: every
//!   unacknowledged operation keeps a copy of its packet and an ACK-timeout
//!   timer ([`RnicModel::timeout`](crate::RnicModel)); on expiry the packet
//!   is re-sent up to [`RnicModel::retry_cnt`](crate::RnicModel) times, then
//!   the WR fails with [`WcStatus::RetryExceeded`] and the QP enters the
//!   error state. The receiver accepts request packets only at its in-order
//!   sequence watermark, exactly like RC hardware's go-back-N responder: a
//!   packet ahead of the watermark (an earlier one was lost in flight) is
//!   dropped without an ACK and recovered by the sender's timeout, and a
//!   packet behind it (a retransmitted or fault-duplicated copy) is
//!   suppressed and re-ACKed. Delivery is therefore exactly-once *and
//!   in-order* even on lossy links — protocol layers above may rely on RC
//!   FIFO semantics.
//! * A NAK moves the QP to the error state and flushes outstanding work,
//!   as on real hardware.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::{Rc, Weak};

use simnet::{Addr, CoreId, Counters, EventId, Nanos, Simulator};

use crate::device::{EventHook, RdmaDevice, WeakDevice};
use crate::error::{VerbsError, VerbsResult};
use crate::packet::RdmaPacket;
use crate::types::{Access, QpNum, QpState, Wc, WcOpcode, WcStatus, WrId};
use crate::wr::{RecvWr, SendOp, SendWr};
use crate::CompletionQueue;

simnet::metric_names! {
    /// Counters of one queue pair, under `rdma.<host>.<qp>.`.
    enum QpCounter {
        RecvsPosted => "recvs_posted",
        SendsPosted => "sends_posted",
        InlineSends => "inline_sends",
        DmaSends => "dma_sends",
        RetryExceeded => "retry_exceeded",
        Retransmits => "retransmits",
        OooDropped => "ooo_dropped",
        DuplicatesSuppressed => "duplicates_suppressed",
        RnrRetries => "rnr_retries",
        RecvsCompleted => "recvs_completed",
        StaleRkeyDenied => "stale_rkey_denied",
        FastPathWriteDenied => "fast_path_write_denied",
        SendsCompleted => "sends_completed",
        SignaledCompletions => "signaled_completions",
        UnsignaledCompletions => "unsignaled_completions",
    }
}

/// Counters exposed for tests, ablations and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpStats {
    /// Send-queue WRs posted.
    pub sends_posted: u64,
    /// Receive-queue WRs posted.
    pub recvs_posted: u64,
    /// Payload bytes carried by completed outbound operations.
    pub bytes_sent: u64,
    /// Payload bytes placed by inbound operations.
    pub bytes_received: u64,
    /// Inbound messages that had to wait for a receive WR (RNR holds).
    pub rnr_stalls: u64,
    /// Successful completions suppressed by selective signaling.
    pub completions_suppressed: u64,
    /// Packets dropped because the QP could not receive.
    pub dropped_packets: u64,
    /// Operations retransmitted after an ACK timeout.
    pub retransmits: u64,
    /// Inbound duplicates (retransmitted or fault-duplicated copies)
    /// suppressed by receiver-side sequence tracking.
    pub duplicates_suppressed: u64,
    /// Inbound request packets dropped for arriving ahead of the in-order
    /// sequence watermark (go-back-N: an earlier packet was lost and the
    /// sender will retransmit the whole tail in order).
    pub ooo_dropped: u64,
}

struct PendingSend {
    wr_id: WrId,
    signaled: bool,
    opcode: WcOpcode,
    byte_len: usize,
    /// Local destination for READ responses.
    read_sink: Option<crate::wr::Sge>,
    /// Copy of the emitted packet, kept for retransmission.
    packet: RdmaPacket,
    /// Transport retries remaining before `RetryExceeded`.
    retries_left: u32,
    /// The armed ACK-timeout event, cancelled when the operation completes.
    retry_timer: Option<EventId>,
}

struct HeldInbound {
    seq: u64,
    packet: RdmaPacket,
}

pub(crate) struct QpInner {
    num: QpNum,
    state: QpState,
    pd: crate::types::PdId,
    core: CoreId,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    local_addr: Addr,
    remote: Option<(Addr, QpNum)>,
    recv_queue: VecDeque<RecvWr>,
    held: VecDeque<HeldInbound>,
    pending: HashMap<u64, PendingSend>,
    /// Send WRs accepted but not yet completed (capacity accounting).
    outstanding_sends: usize,
    /// The NIC's WQE-processing horizon: send work requests are fetched
    /// and executed in posting order.
    nic_busy_until: Nanos,
    /// The receive side's placement horizon: inbound SENDs are DMAed into
    /// their receive buffers one after another, so each completion comes
    /// no earlier than the one before it (RC delivers in order).
    rx_dma_until: Nanos,
    next_seq: u64,
    /// Receiver-side sequence watermark: the next in-order sequence number
    /// expected from the remote QP. Request packets are accepted only at
    /// exactly this value (RC go-back-N ordering); anything below it is a
    /// duplicate, anything above it is dropped for the sender to retransmit.
    rx_expected: u64,
    /// When the last ACK advanced the pending window. The retransmission
    /// timeout clocks *silence*, not per-packet age: as long as cumulative
    /// ACK progress is being made, queued-behind operations are not
    /// retransmitted (RC hardware times the oldest unacknowledged PSN and
    /// restarts the clock on every ACK).
    last_ack_progress: Nanos,
    stats: QpStats,
    /// Shared cross-layer registry (the owning network's), this QP's key
    /// prefix `rdma.{host}.{qpnum}.` (for trace milestones) and its
    /// counters under that prefix.
    metrics: simnet::Metrics,
    metrics_prefix: String,
    counters: Counters<QpCounter>,
    /// Invoked after packet processing that may have produced completions
    /// or state changes — the completion-interrupt analogue RUBIN's event
    /// manager hooks into.
    event_hook: Option<EventHook>,
}

impl QpInner {
    /// Advances the in-order watermark after accepting the expected
    /// sequence number. No-op for re-served duplicates (idempotent READs).
    fn rx_mark_seen(&mut self, seq: u64) {
        debug_assert!(seq <= self.rx_expected, "packet past the ordering gate");
        if seq == self.rx_expected {
            self.rx_expected += 1;
        }
    }
}

/// A reliable-connection queue pair.
///
/// Create with [`RdmaDevice::create_qp`](crate::RdmaDevice::create_qp);
/// connect either through the connection manager
/// ([`RdmaDevice::listen`](crate::RdmaDevice::listen) /
/// [`RdmaDevice::connect`](crate::RdmaDevice::connect)) or manually with
/// [`connect_pair`] in tests.
#[derive(Clone)]
pub struct QueuePair {
    pub(crate) inner: Rc<RefCell<QpInner>>,
    pub(crate) device: RdmaDevice,
}

/// What a frame handler bound in the network holds of its queue pair.
pub(crate) struct WeakQp {
    inner: Weak<RefCell<QpInner>>,
    device: WeakDevice,
}

impl WeakQp {
    pub(crate) fn upgrade(&self) -> Option<QueuePair> {
        Some(QueuePair {
            inner: self.inner.upgrade()?,
            device: self.device.upgrade()?,
        })
    }
}

impl fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("QueuePair")
            .field("num", &inner.num)
            .field("state", &inner.state)
            .field("local_addr", &inner.local_addr)
            .field("remote", &inner.remote)
            .field("recv_posted", &inner.recv_queue.len())
            .field("pending_sends", &inner.pending.len())
            .finish()
    }
}

impl QueuePair {
    pub(crate) fn new(
        device: RdmaDevice,
        num: QpNum,
        pd: crate::types::PdId,
        core: CoreId,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        local_addr: Addr,
    ) -> QueuePair {
        let metrics = device.net().metrics();
        let metrics_prefix = format!("rdma.{}.{num}.", local_addr.host);
        QueuePair {
            inner: Rc::new(RefCell::new(QpInner {
                num,
                state: QpState::Reset,
                pd,
                core,
                send_cq,
                recv_cq,
                local_addr,
                remote: None,
                recv_queue: VecDeque::new(),
                held: VecDeque::new(),
                pending: HashMap::new(),
                outstanding_sends: 0,
                nic_busy_until: Nanos::ZERO,
                rx_dma_until: Nanos::ZERO,
                next_seq: 0,
                rx_expected: 0,
                last_ack_progress: Nanos::ZERO,
                stats: QpStats::default(),
                counters: metrics.counters(&metrics_prefix),
                metrics,
                metrics_prefix,
                event_hook: None,
            })),
            device,
        }
    }

    pub(crate) fn downgrade(&self) -> WeakQp {
        WeakQp {
            inner: Rc::downgrade(&self.inner),
            device: self.device.downgrade(),
        }
    }

    /// The queue pair number.
    pub fn num(&self) -> QpNum {
        self.inner.borrow().num
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        self.inner.borrow().state
    }

    /// The address inbound packets for this QP arrive on.
    pub fn local_addr(&self) -> Addr {
        self.inner.borrow().local_addr
    }

    /// Remote endpoint, once connected.
    pub fn remote(&self) -> Option<(Addr, QpNum)> {
        self.inner.borrow().remote
    }

    /// The core this QP's posting/polling work is charged to.
    pub fn core(&self) -> CoreId {
        self.inner.borrow().core
    }

    /// The send completion queue.
    pub fn send_cq(&self) -> CompletionQueue {
        self.inner.borrow().send_cq.clone()
    }

    /// The receive completion queue.
    pub fn recv_cq(&self) -> CompletionQueue {
        self.inner.borrow().recv_cq.clone()
    }

    /// Operation counters.
    pub fn stats(&self) -> QpStats {
        self.inner.borrow().stats
    }

    /// Number of receive WRs currently posted.
    pub fn recv_posted(&self) -> usize {
        self.inner.borrow().recv_queue.len()
    }

    /// Installs a hook invoked after any NIC activity that may have pushed
    /// a completion or changed connection state (the completion-event
    /// interrupt). Replaces any previous hook.
    pub fn set_event_hook(&self, hook: EventHook) {
        self.inner.borrow_mut().event_hook = Some(hook);
    }

    fn fire_hook(&self, sim: &mut Simulator) {
        let hook = self.inner.borrow().event_hook.clone();
        if let Some(h) = hook {
            h(sim);
        }
    }

    /// Transitions `Reset → Init`.
    ///
    /// # Errors
    ///
    /// [`VerbsError::InvalidQpState`] unless currently `Reset`.
    pub fn modify_to_init(&self) -> VerbsResult<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.state != QpState::Reset {
            return Err(VerbsError::InvalidQpState {
                qp: inner.num,
                state: inner.state,
            });
        }
        inner.state = QpState::Init;
        Ok(())
    }

    /// Transitions `Init → ReadyToReceive`, recording the remote endpoint.
    ///
    /// # Errors
    ///
    /// [`VerbsError::InvalidQpState`] unless currently `Init`.
    pub fn modify_to_rtr(&self, remote_addr: Addr, remote_qp: QpNum) -> VerbsResult<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.state != QpState::Init {
            return Err(VerbsError::InvalidQpState {
                qp: inner.num,
                state: inner.state,
            });
        }
        inner.remote = Some((remote_addr, remote_qp));
        inner.state = QpState::ReadyToReceive;
        Ok(())
    }

    /// Transitions `ReadyToReceive → ReadyToSend`.
    ///
    /// # Errors
    ///
    /// [`VerbsError::InvalidQpState`] unless currently `ReadyToReceive`.
    pub fn modify_to_rts(&self) -> VerbsResult<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.state != QpState::ReadyToReceive {
            return Err(VerbsError::InvalidQpState {
                qp: inner.num,
                state: inner.state,
            });
        }
        inner.state = QpState::ReadyToSend;
        Ok(())
    }

    /// Posts one receive work request. See [`post_recv_batch`](Self::post_recv_batch).
    ///
    /// # Errors
    ///
    /// As for [`post_recv_batch`](Self::post_recv_batch).
    pub fn post_recv(&self, sim: &mut Simulator, wr: RecvWr) -> VerbsResult<()> {
        self.post_recv_batch(sim, [wr])
    }

    /// Posts a batch of receive work requests in one doorbell, the
    /// batched-posting optimization of paper §IV. The batch is anything
    /// that lends a slice and yields its requests: a `Vec`, an array, or a
    /// `drain` of a buffer the caller keeps.
    ///
    /// # Errors
    ///
    /// * [`VerbsError::InvalidQpState`] before `Init`.
    /// * [`VerbsError::BatchTooLarge`] beyond the device batch limit.
    /// * [`VerbsError::QueueFull`] beyond `max_recv_wr` outstanding.
    /// * [`VerbsError::PdMismatch`] / [`VerbsError::InvalidRange`] /
    ///   [`VerbsError::LocalAccess`] for bad buffers.
    pub fn post_recv_batch<W>(&self, sim: &mut Simulator, wrs: W) -> VerbsResult<()>
    where
        W: AsRef<[RecvWr]> + IntoIterator<Item = RecvWr>,
    {
        let model = self.device.model().clone();
        let cpu_done;
        {
            let batch = wrs.as_ref();
            let mut inner = self.inner.borrow_mut();
            if !inner.state.can_post_recv() {
                return Err(VerbsError::InvalidQpState {
                    qp: inner.num,
                    state: inner.state,
                });
            }
            if batch.len() > model.max_post_batch {
                return Err(VerbsError::BatchTooLarge {
                    len: batch.len(),
                    max: model.max_post_batch,
                });
            }
            if inner.recv_queue.len() + batch.len() > model.max_recv_wr {
                return Err(VerbsError::QueueFull {
                    qp: inner.num,
                    capacity: model.max_recv_wr,
                });
            }
            for wr in batch {
                if wr.sge.mr.pd() != inner.pd {
                    return Err(VerbsError::PdMismatch);
                }
                wr.sge.mr.check_range(wr.sge.offset, wr.sge.len)?;
                if !wr.sge.mr.access().allows(Access::LOCAL_WRITE) {
                    return Err(VerbsError::LocalAccess);
                }
            }
            let len = batch.len();
            let cost = model.post_batch_cost(len);
            let core = inner.core;
            cpu_done = self.device.host_exec(sim, core, cost);
            inner.stats.recvs_posted += len as u64;
            inner.counters[QpCounter::RecvsPosted].add(len as u64);
            inner.recv_queue.extend(wrs);
        }
        // Any held inbound messages can now be delivered (after the posting
        // CPU work completes).
        let qp = self.clone();
        sim.schedule_at(cpu_done, move |sim| qp.drain_held(sim));
        Ok(())
    }

    /// Posts one send work request. See [`post_send_batch`](Self::post_send_batch).
    ///
    /// # Errors
    ///
    /// As for [`post_send_batch`](Self::post_send_batch).
    pub fn post_send(&self, sim: &mut Simulator, wr: SendWr) -> VerbsResult<()> {
        self.post_sends(sim, [wr])
    }

    /// Posts a batch of send work requests in one doorbell.
    ///
    /// Successful completions are only generated for WRs with
    /// [`signaled`](SendWr::signaled) set (selective signaling); failed
    /// operations always complete with an error status.
    ///
    /// # Errors
    ///
    /// * [`VerbsError::InvalidQpState`] unless in `ReadyToSend`.
    /// * [`VerbsError::BatchTooLarge`] beyond the device batch limit.
    /// * [`VerbsError::QueueFull`] beyond `max_send_wr` outstanding.
    /// * [`VerbsError::InlineTooLarge`] for oversized inline payloads.
    /// * [`VerbsError::PdMismatch`] / [`VerbsError::InvalidRange`] /
    ///   [`VerbsError::LocalAccess`] for bad buffers.
    pub fn post_send_batch(&self, sim: &mut Simulator, wrs: Vec<SendWr>) -> VerbsResult<()> {
        self.post_sends(sim, wrs)
    }

    /// Validates and posts `wrs` in one doorbell: the body of
    /// [`post_send`](Self::post_send) (over `[wr]`, no `Vec`) and
    /// [`post_send_batch`](Self::post_send_batch).
    fn post_sends<W>(&self, sim: &mut Simulator, wrs: W) -> VerbsResult<()>
    where
        W: AsRef<[SendWr]> + IntoIterator<Item = SendWr>,
    {
        let model = self.device.model().clone();
        let cpu_done;
        {
            let batch = wrs.as_ref();
            let mut inner = self.inner.borrow_mut();
            if !inner.state.can_post_send() {
                return Err(VerbsError::InvalidQpState {
                    qp: inner.num,
                    state: inner.state,
                });
            }
            if batch.len() > model.max_post_batch {
                return Err(VerbsError::BatchTooLarge {
                    len: batch.len(),
                    max: model.max_post_batch,
                });
            }
            if inner.outstanding_sends + batch.len() > model.max_send_wr {
                return Err(VerbsError::QueueFull {
                    qp: inner.num,
                    capacity: model.max_send_wr,
                });
            }
            for wr in batch {
                if wr.sge.mr.pd() != inner.pd {
                    return Err(VerbsError::PdMismatch);
                }
                wr.sge.mr.check_range(wr.sge.offset, wr.sge.len)?;
                if wr.inline && wr.sge.len > model.max_inline {
                    return Err(VerbsError::InlineTooLarge {
                        len: wr.sge.len,
                        max: model.max_inline,
                    });
                }
                if matches!(wr.op, SendOp::Read { .. })
                    && !wr.sge.mr.access().allows(Access::LOCAL_WRITE)
                {
                    return Err(VerbsError::LocalAccess);
                }
            }
            let cost = model.post_batch_cost(batch.len());
            let core = inner.core;
            cpu_done = self.device.host_exec(sim, core, cost);
            inner.stats.sends_posted += batch.len() as u64;
            inner.counters[QpCounter::SendsPosted].add(batch.len() as u64);
            for wr in batch {
                if wr.inline {
                    inner.counters[QpCounter::InlineSends].incr();
                } else {
                    inner.counters[QpCounter::DmaSends].incr();
                }
            }
            inner.outstanding_sends += batch.len();
        }
        // NIC processing: WQE fetch plus payload DMA (skipped inline).
        // The NIC consumes WQEs strictly in posting order (RC ordering).
        for wr in wrs {
            let nic_ready = {
                let mut inner = self.inner.borrow_mut();
                let start = cpu_done.max(inner.nic_busy_until);
                let mut ready = start + Nanos::from_nanos(model.wqe_fetch_ns);
                let needs_dma = !wr.inline && !matches!(wr.op, SendOp::Read { .. });
                if needs_dma {
                    ready +=
                        Nanos::from_nanos(model.dma_fetch_base_ns) + model.dma_cost(wr.sge.len);
                    self.device
                        .net()
                        .host(inner.local_addr.host)
                        .borrow()
                        .count_dma(wr.sge.len);
                }
                inner.nic_busy_until = ready;
                ready
            };
            let qp = self.clone();
            sim.schedule_at(nic_ready, move |sim| qp.nic_transmit(sim, wr));
        }
        Ok(())
    }

    /// NIC-side: fetch payload and emit the packet for one WR.
    fn nic_transmit(&self, sim: &mut Simulator, wr: SendWr) {
        let model = self.device.model().clone();
        let pool = self.device.net().buffer_pool();
        let (remote, seq, packet) = {
            let mut inner = self.inner.borrow_mut();
            if inner.state == QpState::Error {
                // Queue pair failed between posting and fetch: flush.
                inner.outstanding_sends = inner.outstanding_sends.saturating_sub(1);
                let wc = Wc {
                    wr_id: wr.wr_id,
                    status: WcStatus::WorkRequestFlushed,
                    opcode: opcode_of(&wr.op),
                    byte_len: 0,
                    qp: inner.num,
                    imm: None,
                };
                inner.send_cq.push(wc);
                return;
            }
            let remote = inner.remote.expect("QP in RTS must have a remote endpoint");
            let seq = inner.next_seq;
            inner.next_seq += 1;

            let packet = match &wr.op {
                SendOp::Send { imm } => {
                    match wr.sge.mr.dma_read_pooled(wr.sge.offset, wr.sge.len, &pool) {
                        Ok(data) => RdmaPacket::Send {
                            src_qp: inner.num,
                            data,
                            imm: *imm,
                            seq,
                        },
                        Err(_) => {
                            let num = inner.num;
                            drop(inner);
                            self.complete_error(sim, wr.wr_id, opcode_of(&wr.op), num);
                            return;
                        }
                    }
                }
                SendOp::Write {
                    rkey,
                    remote_offset,
                    imm,
                } => match wr.sge.mr.dma_read_pooled(wr.sge.offset, wr.sge.len, &pool) {
                    Ok(data) => RdmaPacket::WriteReq {
                        src_qp: inner.num,
                        rkey: rkey.0,
                        offset: *remote_offset,
                        data,
                        imm: *imm,
                        seq,
                    },
                    Err(_) => {
                        let num = inner.num;
                        drop(inner);
                        self.complete_error(sim, wr.wr_id, opcode_of(&wr.op), num);
                        return;
                    }
                },
                SendOp::Read {
                    rkey,
                    remote_offset,
                } => RdmaPacket::ReadReq {
                    src_qp: inner.num,
                    rkey: rkey.0,
                    offset: *remote_offset,
                    len: wr.sge.len,
                    seq,
                },
            };
            inner.pending.insert(
                seq,
                PendingSend {
                    wr_id: wr.wr_id,
                    signaled: wr.signaled,
                    opcode: opcode_of(&wr.op),
                    byte_len: wr.sge.len,
                    read_sink: matches!(wr.op, SendOp::Read { .. }).then(|| wr.sge.clone()),
                    packet: packet.clone_with_pool(&pool),
                    retries_left: model.retry_cnt,
                    retry_timer: None,
                },
            );
            (remote, seq, packet)
        };
        let wire = packet.wire_bytes(model.ack_bytes);
        let local = self.local_addr();
        self.device.net().send(sim, local, remote.0, wire, packet);
        self.arm_retry(sim, seq);
    }

    /// Arms (or re-arms) the ACK-timeout retransmission timer for `seq`.
    fn arm_retry(&self, sim: &mut Simulator, seq: u64) {
        let timeout = self.device.model().timeout;
        if timeout == Nanos::ZERO {
            return;
        }
        self.arm_retry_in(sim, seq, timeout);
    }

    /// Arms the retransmission timer for `seq` with an explicit delay.
    fn arm_retry_in(&self, sim: &mut Simulator, seq: u64, delay: Nanos) {
        let qp = self.clone();
        let id = sim.schedule_in(delay, move |sim| qp.retry_fire(sim, seq));
        if let Some(p) = self.inner.borrow_mut().pending.get_mut(&seq) {
            p.retry_timer = Some(id);
        }
    }

    /// ACK timeout expired for `seq`: retransmit the stored packet, or fail
    /// the operation with [`WcStatus::RetryExceeded`] once the transport
    /// retry budget is spent.
    fn retry_fire(&self, sim: &mut Simulator, seq: u64) {
        let model = self.device.model().clone();
        let rearm = {
            let inner = self.inner.borrow();
            if inner.state == QpState::Error || !inner.pending.contains_key(&seq) {
                return;
            }
            let oldest = inner.pending.keys().min().copied();
            if oldest != Some(seq) {
                // Go-back-N: only the oldest unacknowledged operation's
                // timer drives retransmission. Entries queued behind it
                // re-arm without consuming their retry budget — on a deep
                // send queue their ACKs are late because of queueing, not
                // loss.
                Some(model.timeout)
            } else {
                // Oldest entry, but the window advanced less than one
                // timeout ago: the link is live, so keep clocking silence
                // rather than age.
                let idle = sim.now() - inner.last_ack_progress;
                (inner.last_ack_progress > Nanos::ZERO && idle < model.timeout)
                    .then(|| Nanos::from_nanos(model.timeout.as_nanos() - idle.as_nanos()))
            }
        };
        if let Some(delay) = rearm {
            self.arm_retry_in(sim, seq, delay);
            return;
        }
        let resend = {
            let mut inner = self.inner.borrow_mut();
            let Some(p) = inner.pending.get_mut(&seq) else {
                // Completed while the timer event was already popped.
                return;
            };
            if p.retries_left == 0 {
                let p = inner.pending.remove(&seq).expect("checked present");
                inner.outstanding_sends = inner.outstanding_sends.saturating_sub(1);
                inner.counters[QpCounter::RetryExceeded].incr();
                inner.metrics.trace(
                    sim.now(),
                    "rdma",
                    format!("{}retry_exceeded seq={seq}", inner.metrics_prefix),
                );
                let wc = Wc {
                    wr_id: p.wr_id,
                    status: WcStatus::RetryExceeded,
                    opcode: p.opcode,
                    byte_len: 0,
                    qp: inner.num,
                    imm: None,
                };
                inner.send_cq.push(wc);
                None
            } else {
                p.retries_left -= 1;
                p.retry_timer = None;
                let pkt = p.packet.clone();
                inner.stats.retransmits += 1;
                inner.counters[QpCounter::Retransmits].incr();
                Some((pkt, inner.local_addr, inner.remote))
            }
        };
        match resend {
            Some((pkt, local, Some((raddr, _)))) => {
                let wire = pkt.wire_bytes(model.ack_bytes);
                self.device.net().send(sim, local, raddr, wire, pkt);
                self.arm_retry(sim, seq);
            }
            Some(_) => {}
            None => {
                // The peer is unreachable: fail the QP so the remaining
                // queue flushes, exactly as RC hardware reports
                // IBV_WC_RETRY_EXC_ERR and transitions to the error state.
                self.enter_error();
                self.fire_hook(sim);
            }
        }
    }

    /// Local-protection failure discovered at WQE fetch time.
    fn complete_error(&self, sim: &mut Simulator, wr_id: WrId, opcode: WcOpcode, num: QpNum) {
        {
            let inner = self.inner.borrow();
            inner.send_cq.push(Wc {
                wr_id,
                status: WcStatus::LocalProtectionError,
                opcode,
                byte_len: 0,
                qp: num,
                imm: None,
            });
        }
        self.enter_error();
        self.fire_hook(sim);
    }

    /// Delivers held inbound messages now that receive WRs are available.
    fn drain_held(&self, sim: &mut Simulator) {
        loop {
            let item = {
                let mut inner = self.inner.borrow_mut();
                if inner.held.is_empty() || inner.recv_queue.is_empty() {
                    break;
                }
                inner.held.pop_front().expect("checked non-empty")
            };
            // Held packets already passed the sequence gate on arrival;
            // deliver directly (redelivery) so they are neither mistaken
            // for duplicates nor blocked behind the remaining held tail.
            match item.packet {
                RdmaPacket::Send {
                    src_qp,
                    data,
                    imm,
                    seq,
                } => self.handle_inbound_send(sim, src_qp, data, imm, seq, true),
                other => self.dispatch(sim, other),
            }
        }
    }

    /// Entry point for inbound packets, called by the device dispatcher.
    ///
    /// Applies the receiver-side sequence gate before dispatching. RC
    /// responders process request packets strictly in sequence order
    /// (go-back-N), so:
    ///
    /// * `seq > rx_expected` — an earlier packet of the stream was lost in
    ///   flight; this one is dropped without an ACK and the sender's ACK
    ///   timeout retransmits the tail in order. Accepting it here would
    ///   reorder delivery, which layers above (replica request dedup, frame
    ///   reassembly) are entitled to assume cannot happen on RC.
    /// * `seq < rx_expected` — a retransmitted or fault-duplicated copy of
    ///   an already-accepted packet: suppressed, and re-ACKed when the
    ///   original ACK may have been the loss. A duplicate READ is instead
    ///   re-served, because the data response itself may have been lost and
    ///   re-execution is idempotent.
    /// * `seq == rx_expected` — accepted; the watermark advances at the
    ///   accept sites once the packet passes validation.
    pub(crate) fn handle_packet(&self, sim: &mut Simulator, pkt: RdmaPacket) {
        let gate = match &pkt {
            RdmaPacket::Send { seq, .. } | RdmaPacket::WriteReq { seq, .. } => Some((*seq, false)),
            RdmaPacket::ReadReq { seq, .. } => Some((*seq, true)),
            _ => None,
        };
        if let Some((seq, is_read)) = gate {
            enum Verdict {
                Accept,
                Drop,
                ReAck,
                Silent,
            }
            let verdict = {
                let mut inner = self.inner.borrow_mut();
                if seq > inner.rx_expected {
                    inner.stats.ooo_dropped += 1;
                    inner.counters[QpCounter::OooDropped].incr();
                    Verdict::Drop
                } else if seq == inner.rx_expected || is_read {
                    Verdict::Accept
                } else {
                    inner.stats.duplicates_suppressed += 1;
                    inner.counters[QpCounter::DuplicatesSuppressed].incr();
                    // If the first copy is still parked in the RNR hold
                    // queue, stay silent: acking now would confirm data
                    // that may yet be rejected. Otherwise re-ack, because
                    // a retransmission means our original ACK was lost.
                    if inner.held.iter().any(|h| h.seq == seq) {
                        Verdict::Silent
                    } else {
                        Verdict::ReAck
                    }
                }
            };
            match verdict {
                Verdict::Drop | Verdict::Silent => return,
                Verdict::ReAck => return self.send_ack(sim, seq),
                Verdict::Accept => {}
            }
        }
        self.dispatch(sim, pkt)
    }

    /// Dispatches a packet that passed (or is exempt from) duplicate
    /// suppression.
    fn dispatch(&self, sim: &mut Simulator, pkt: RdmaPacket) {
        match pkt {
            RdmaPacket::Send {
                src_qp,
                data,
                imm,
                seq,
            } => self.handle_inbound_send(sim, src_qp, data, imm, seq, false),
            RdmaPacket::WriteReq {
                src_qp,
                rkey,
                offset,
                data,
                imm,
                seq,
            } => self.handle_write(sim, src_qp, rkey, offset, data, imm, seq),
            RdmaPacket::ReadReq {
                src_qp: _,
                rkey,
                offset,
                len,
                seq,
            } => self.handle_read(sim, rkey, offset, len, seq),
            RdmaPacket::ReadResp { seq, data } => self.handle_read_resp(sim, seq, data),
            RdmaPacket::Ack { seq } => self.handle_ack(sim, seq),
            RdmaPacket::RnrNak { seq } => self.handle_nak(sim, seq, WcStatus::RnrRetryExceeded),
            RdmaPacket::Nak { seq, status } => self.handle_nak(sim, seq, status),
            RdmaPacket::Disconnect { .. } => {
                let num = self.num();
                self.enter_error();
                self.device
                    .push_cm_event(sim, crate::cm::CmEvent::Disconnected { qp: num });
                self.fire_hook(sim);
            }
            // CM packets are routed to listeners, not QPs.
            other => {
                debug_assert!(false, "unexpected CM packet at QP: {other:?}");
            }
        }
    }

    fn handle_inbound_send(
        &self,
        sim: &mut Simulator,
        src_qp: QpNum,
        data: Vec<u8>,
        imm: Option<u32>,
        seq: u64,
        redelivery: bool,
    ) {
        let model = self.device.model().clone();
        enum Action {
            Place(RecvWr),
            Hold,
            Drop,
            FailLength(RecvWr),
        }
        let action = {
            let mut inner = self.inner.borrow_mut();
            // FIFO: while earlier messages wait in the RNR hold queue, a
            // later arrival must queue behind them rather than grab a
            // fresh receive WR and overtake them.
            let wr = if redelivery || inner.held.is_empty() {
                inner.recv_queue.pop_front()
            } else {
                None
            };
            if !inner.state.can_receive() {
                inner.stats.dropped_packets += 1;
                if let Some(rwr) = wr {
                    inner.recv_queue.push_front(rwr);
                }
                Action::Drop
            } else if let Some(rwr) = wr {
                if rwr.sge.len >= data.len() && rwr.sge.mr.is_valid() {
                    inner.rx_mark_seen(seq);
                    Action::Place(rwr)
                } else {
                    Action::FailLength(rwr)
                }
            } else {
                if !redelivery {
                    inner.stats.rnr_stalls += 1;
                    inner.counters[QpCounter::RnrRetries].incr();
                    inner.metrics.trace(
                        sim.now(),
                        "rdma",
                        format!("{}rnr_hold seq={seq}", inner.metrics_prefix),
                    );
                }
                inner.rx_mark_seen(seq);
                Action::Hold
            }
        };
        match action {
            Action::Drop => {
                self.device.net().buffer_pool().put(data);
            }
            Action::Place(rwr) => {
                let placed = {
                    let mut inner = self.inner.borrow_mut();
                    inner.rx_dma_until =
                        sim.now().max(inner.rx_dma_until) + model.dma_cost(data.len());
                    inner.rx_dma_until
                };
                let cqe_at = placed + Nanos::from_nanos(model.cqe_ns);
                let qp = self.clone();
                let len = data.len();
                sim.schedule_at(cqe_at, move |sim| {
                    let (num, remote, local) = {
                        let mut inner = qp.inner.borrow_mut();
                        let _ = rwr.sge.mr.dma_write(rwr.sge.offset, &data);
                        qp.device.net().buffer_pool().put(data);
                        inner.stats.bytes_received += len as u64;
                        inner.counters[QpCounter::RecvsCompleted].incr();
                        qp.device
                            .net()
                            .host(inner.local_addr.host)
                            .borrow()
                            .count_dma(len);
                        let wc = Wc {
                            wr_id: rwr.wr_id,
                            status: WcStatus::Success,
                            opcode: WcOpcode::Recv,
                            byte_len: len,
                            qp: inner.num,
                            imm,
                        };
                        inner.recv_cq.push(wc);
                        (inner.num, inner.remote, inner.local_addr)
                    };
                    let _ = num;
                    if let Some((raddr, _)) = remote {
                        let ack = RdmaPacket::Ack { seq };
                        let wire = ack.wire_bytes(model.ack_bytes);
                        qp.device.net().send(sim, local, raddr, wire, ack);
                    }
                    qp.fire_hook(sim);
                });
            }
            Action::FailLength(rwr) => {
                let (local, remote) = {
                    let inner = self.inner.borrow_mut();
                    let wc = Wc {
                        wr_id: rwr.wr_id,
                        status: WcStatus::LocalLengthError,
                        opcode: WcOpcode::Recv,
                        byte_len: data.len(),
                        qp: inner.num,
                        imm,
                    };
                    inner.recv_cq.push(wc);
                    (inner.local_addr, inner.remote)
                };
                self.device.net().buffer_pool().put(data);
                if let Some((raddr, _)) = remote {
                    let nak = RdmaPacket::Nak {
                        seq,
                        status: WcStatus::RemoteOperationError,
                    };
                    let wire = nak.wire_bytes(model.ack_bytes);
                    self.device.net().send(sim, local, raddr, wire, nak);
                }
                self.enter_error();
                self.fire_hook(sim);
            }
            Action::Hold => {
                let deadline = sim.now()
                    + Nanos::from_nanos(model.rnr_timer.as_nanos() * (model.rnr_retry as u64 + 1));
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.held.push_back(HeldInbound {
                        seq,
                        packet: RdmaPacket::Send {
                            src_qp,
                            data,
                            imm,
                            seq,
                        },
                    });
                }
                let qp = self.clone();
                sim.schedule_at(deadline, move |sim| qp.expire_held(sim, seq));
            }
        }
    }

    /// RNR window expired for a held message: reject it.
    fn expire_held(&self, sim: &mut Simulator, seq: u64) {
        let model = self.device.model().clone();
        let (expired, local, remote) = {
            let mut inner = self.inner.borrow_mut();
            let before = inner.held.len();
            inner.held.retain(|h| h.seq != seq);
            (inner.held.len() != before, inner.local_addr, inner.remote)
        };
        if expired {
            if let Some((raddr, _)) = remote {
                let nak = RdmaPacket::RnrNak { seq };
                let wire = nak.wire_bytes(model.ack_bytes);
                self.device.net().send(sim, local, raddr, wire, nak);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_write(
        &self,
        sim: &mut Simulator,
        src_qp: QpNum,
        rkey: u32,
        offset: usize,
        data: Vec<u8>,
        imm: Option<u32>,
        seq: u64,
    ) {
        let model = self.device.model().clone();
        {
            let inner = self.inner.borrow();
            if !inner.state.can_receive() {
                drop(inner);
                self.device.net().buffer_pool().put(data);
                return;
            }
        }
        let target = self.device.validate_remote(
            crate::types::RKey(rkey),
            offset,
            data.len(),
            Access::REMOTE_WRITE,
        );
        let target = match target {
            Ok(mr) => mr,
            Err(e) => {
                // A WRITE with a revoked (re-registered) rkey is the fast-path
                // permission fence firing: a deposed or equivocating leader's
                // in-flight proposal is denied in the RNIC, never in software.
                if matches!(e, VerbsError::Deregistered) {
                    self.inner.borrow().counters[QpCounter::StaleRkeyDenied].incr();
                }
                self.inner.borrow().counters[QpCounter::FastPathWriteDenied].incr();
                self.device.net().buffer_pool().put(data);
                self.send_nak(sim, seq, WcStatus::RemoteAccessError);
                return;
            }
        };
        if imm.is_some() {
            // WRITE_WITH_IMM consumes a receive WR; hold if none is posted.
            let has_recv = !self.inner.borrow().recv_queue.is_empty();
            if !has_recv {
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.stats.rnr_stalls += 1;
                    inner.counters[QpCounter::RnrRetries].incr();
                    inner.rx_mark_seen(seq);
                    inner.held.push_back(HeldInbound {
                        seq,
                        packet: RdmaPacket::WriteReq {
                            src_qp,
                            rkey,
                            offset,
                            data,
                            imm,
                            seq,
                        },
                    });
                }
                let deadline = sim.now()
                    + Nanos::from_nanos(model.rnr_timer.as_nanos() * (model.rnr_retry as u64 + 1));
                let qp = self.clone();
                sim.schedule_at(deadline, move |sim| qp.expire_held(sim, seq));
                return;
            }
        }
        self.inner.borrow_mut().rx_mark_seen(seq);
        let dma = model.dma_cost(data.len());
        let done_at = sim.now() + dma;
        let qp = self.clone();
        sim.schedule_at(done_at, move |sim| {
            let len = data.len();
            let write_ok = target.dma_write(offset, &data).is_ok();
            qp.device.net().buffer_pool().put(data);
            if !write_ok {
                qp.send_nak(sim, seq, WcStatus::RemoteAccessError);
                return;
            }
            let (local, remote) = {
                let mut inner = qp.inner.borrow_mut();
                inner.stats.bytes_received += len as u64;
                qp.device
                    .net()
                    .host(inner.local_addr.host)
                    .borrow()
                    .count_dma(len);
                if let Some(iv) = imm {
                    if let Some(rwr) = inner.recv_queue.pop_front() {
                        inner.counters[QpCounter::RecvsCompleted].incr();
                        let wc = Wc {
                            wr_id: rwr.wr_id,
                            status: WcStatus::Success,
                            opcode: WcOpcode::RecvRdmaWithImm,
                            byte_len: len,
                            qp: inner.num,
                            imm: Some(iv),
                        };
                        inner.recv_cq.push(wc);
                    }
                }
                (inner.local_addr, inner.remote)
            };
            if let Some((raddr, _)) = remote {
                let ack = RdmaPacket::Ack { seq };
                let wire = ack.wire_bytes(model.ack_bytes);
                qp.device.net().send(sim, local, raddr, wire, ack);
            }
            qp.fire_hook(sim);
        });
    }

    fn handle_read(&self, sim: &mut Simulator, rkey: u32, offset: usize, len: usize, seq: u64) {
        let model = self.device.model().clone();
        {
            let inner = self.inner.borrow();
            if !inner.state.can_receive() {
                return;
            }
        }
        let target =
            self.device
                .validate_remote(crate::types::RKey(rkey), offset, len, Access::REMOTE_READ);
        let target = match target {
            Ok(mr) => mr,
            Err(e) => {
                // A revoked-but-known rkey is the proactive-recovery fence
                // firing: the region was invalidated on an epoch roll and
                // the requester is reading with a stale offer.
                if matches!(e, VerbsError::Deregistered) {
                    self.inner.borrow().counters[QpCounter::StaleRkeyDenied].incr();
                }
                self.send_nak(sim, seq, WcStatus::RemoteAccessError);
                return;
            }
        };
        // READs share the request sequence space: advance the in-order
        // watermark so later SENDs/WRITEs are not gated behind this seq.
        self.inner.borrow_mut().rx_mark_seen(seq);
        let dma = model.dma_cost(len);
        let qp = self.clone();
        sim.schedule_at(sim.now() + dma, move |sim| {
            let pool = qp.device.net().buffer_pool();
            let data = match target.dma_read_pooled(offset, len, &pool) {
                Ok(d) => d,
                Err(_) => {
                    qp.send_nak(sim, seq, WcStatus::RemoteAccessError);
                    return;
                }
            };
            let (local, remote) = {
                let inner = qp.inner.borrow();
                (inner.local_addr, inner.remote)
            };
            if let Some((raddr, _)) = remote {
                let resp = RdmaPacket::ReadResp { seq, data };
                let wire = resp.wire_bytes(model.ack_bytes);
                qp.device.net().send(sim, local, raddr, wire, resp);
            }
        });
    }

    fn handle_read_resp(&self, sim: &mut Simulator, seq: u64, data: Vec<u8>) {
        let model = self.device.model().clone();
        let pending = {
            let mut inner = self.inner.borrow_mut();
            let p = inner.pending.remove(&seq);
            if p.is_some() {
                inner.outstanding_sends = inner.outstanding_sends.saturating_sub(1);
            }
            p
        };
        let Some(p) = pending else { return };
        if let Some(id) = p.retry_timer {
            sim.cancel(id);
        }
        let sink = p.read_sink.expect("READ pending entries carry a sink");
        let dma = model.dma_cost(data.len());
        let qp = self.clone();
        sim.schedule_at(
            sim.now() + dma + Nanos::from_nanos(model.cqe_ns),
            move |sim| {
                let len = data.len();
                let ok = sink.mr.dma_write(sink.offset, &data).is_ok();
                qp.device.net().buffer_pool().put(data);
                {
                    let mut inner = qp.inner.borrow_mut();
                    inner.stats.bytes_sent += len as u64;
                    inner.counters[QpCounter::SendsCompleted].incr();
                    qp.device
                        .net()
                        .host(inner.local_addr.host)
                        .borrow()
                        .count_dma(len);
                    if p.signaled || !ok {
                        inner.counters[QpCounter::SignaledCompletions].incr();
                        let wc = Wc {
                            wr_id: p.wr_id,
                            status: if ok {
                                WcStatus::Success
                            } else {
                                WcStatus::LocalProtectionError
                            },
                            opcode: WcOpcode::RdmaRead,
                            byte_len: len,
                            qp: inner.num,
                            imm: None,
                        };
                        inner.send_cq.push(wc);
                    } else {
                        inner.stats.completions_suppressed += 1;
                        inner.counters[QpCounter::UnsignaledCompletions].incr();
                    }
                }
                qp.fire_hook(sim);
            },
        );
    }

    fn handle_ack(&self, sim: &mut Simulator, seq: u64) {
        let timer = {
            let mut inner = self.inner.borrow_mut();
            if let Some(p) = inner.pending.remove(&seq) {
                inner.last_ack_progress = sim.now();
                inner.outstanding_sends = inner.outstanding_sends.saturating_sub(1);
                inner.stats.bytes_sent += p.byte_len as u64;
                inner.counters[QpCounter::SendsCompleted].incr();
                if p.signaled {
                    inner.counters[QpCounter::SignaledCompletions].incr();
                    let wc = Wc {
                        wr_id: p.wr_id,
                        status: WcStatus::Success,
                        opcode: p.opcode,
                        byte_len: p.byte_len,
                        qp: inner.num,
                        imm: None,
                    };
                    inner.send_cq.push(wc);
                } else {
                    inner.stats.completions_suppressed += 1;
                    inner.counters[QpCounter::UnsignaledCompletions].incr();
                }
                let timer = p.retry_timer;
                drop(inner);
                // Recycle the parked retransmission copy now that the
                // message is acknowledged.
                if let Some(buf) = p.packet.into_data() {
                    self.device.net().buffer_pool().put(buf);
                }
                timer
            } else {
                None
            }
        };
        if let Some(id) = timer {
            sim.cancel(id);
        }
        self.fire_hook(sim);
    }

    fn handle_nak(&self, sim: &mut Simulator, seq: u64, status: WcStatus) {
        let timer = {
            let mut inner = self.inner.borrow_mut();
            if let Some(p) = inner.pending.remove(&seq) {
                inner.outstanding_sends = inner.outstanding_sends.saturating_sub(1);
                let wc = Wc {
                    wr_id: p.wr_id,
                    status,
                    opcode: p.opcode,
                    byte_len: 0,
                    qp: inner.num,
                    imm: None,
                };
                inner.send_cq.push(wc);
                let timer = p.retry_timer;
                drop(inner);
                if let Some(buf) = p.packet.into_data() {
                    self.device.net().buffer_pool().put(buf);
                }
                timer
            } else {
                None
            }
        };
        if let Some(id) = timer {
            sim.cancel(id);
        }
        self.enter_error();
        self.fire_hook(sim);
    }

    /// Re-acknowledges an already-delivered sequence number (the original
    /// ACK was lost, so the sender retransmitted).
    fn send_ack(&self, sim: &mut Simulator, seq: u64) {
        let model = self.device.model().clone();
        let (local, remote) = {
            let inner = self.inner.borrow();
            (inner.local_addr, inner.remote)
        };
        if let Some((raddr, _)) = remote {
            let ack = RdmaPacket::Ack { seq };
            let wire = ack.wire_bytes(model.ack_bytes);
            self.device.net().send(sim, local, raddr, wire, ack);
        }
    }

    fn send_nak(&self, sim: &mut Simulator, seq: u64, status: WcStatus) {
        let model = self.device.model().clone();
        let (local, remote) = {
            let inner = self.inner.borrow();
            (inner.local_addr, inner.remote)
        };
        if let Some((raddr, _)) = remote {
            let nak = RdmaPacket::Nak { seq, status };
            let wire = nak.wire_bytes(model.ack_bytes);
            self.device.net().send(sim, local, raddr, wire, nak);
        }
    }

    /// Moves the QP to the error state and flushes all outstanding work.
    pub(crate) fn enter_error(&self) {
        let mut inner = self.inner.borrow_mut();
        if inner.state == QpState::Error {
            return;
        }
        inner.state = QpState::Error;
        let num = inner.num;
        inner.outstanding_sends = 0;
        let pending: Vec<PendingSend> = inner.pending.drain().map(|(_, p)| p).collect();
        for p in pending {
            inner.send_cq.push(Wc {
                wr_id: p.wr_id,
                status: WcStatus::WorkRequestFlushed,
                opcode: p.opcode,
                byte_len: 0,
                qp: num,
                imm: None,
            });
        }
        let recvs: Vec<RecvWr> = inner.recv_queue.drain(..).collect();
        for r in recvs {
            inner.recv_cq.push(Wc {
                wr_id: r.wr_id,
                status: WcStatus::WorkRequestFlushed,
                opcode: WcOpcode::Recv,
                byte_len: 0,
                qp: num,
                imm: None,
            });
        }
        inner.held.clear();
    }

    /// Sends a disconnect notification and enters the error state.
    pub fn disconnect(&self, sim: &mut Simulator) {
        let model = self.device.model().clone();
        let (local, remote, num) = {
            let inner = self.inner.borrow();
            (inner.local_addr, inner.remote, inner.num)
        };
        if let Some((raddr, _)) = remote {
            let pkt = RdmaPacket::Disconnect { src_qp: num };
            let wire = pkt.wire_bytes(model.ack_bytes);
            self.device.net().send(sim, local, raddr, wire, pkt);
        }
        self.enter_error();
    }

    /// Unbinds the QP's network port. The QP is unusable afterwards.
    pub fn destroy(&self) {
        let addr = self.local_addr();
        self.device.net().unbind(addr);
        self.enter_error();
    }
}

fn opcode_of(op: &SendOp) -> WcOpcode {
    match op {
        SendOp::Send { .. } => WcOpcode::Send,
        SendOp::Write { .. } => WcOpcode::RdmaWrite,
        SendOp::Read { .. } => WcOpcode::RdmaRead,
    }
}

/// Manually wires two queue pairs into a connected RC pair (for tests and
/// micro-benchmarks that skip the connection manager).
///
/// # Errors
///
/// Propagates state-transition errors if either QP is not in `Reset`.
pub fn connect_pair(a: &QueuePair, b: &QueuePair) -> VerbsResult<()> {
    a.modify_to_init()?;
    b.modify_to_init()?;
    a.modify_to_rtr(b.local_addr(), b.num())?;
    b.modify_to_rtr(a.local_addr(), a.num())?;
    a.modify_to_rts()?;
    b.modify_to_rts()?;
    Ok(())
}
