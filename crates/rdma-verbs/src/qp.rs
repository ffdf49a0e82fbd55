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
//!   SEND or WRITE_WITH_IMM that finds no receive WR waits up to
//!   `rnr_timer × (rnr_retry+1)` for one to be posted, then fails the
//!   sender with `RnrRetryExceeded`.
//!   This preserves RC's in-order delivery without simulating per-packet
//!   RNR polling, while still failing loudly when an application
//!   under-posts receives (the pitfall paper §II-A warns about).
//! * Loss recovery is RC's, at *message* granularity. A queue pair keeps
//!   one transport timer ([`RnicModel::timeout`](crate::RnicModel)) while
//!   any operation is unanswered: armed when an operation is posted with
//!   none outstanding, restarted by every ACK or READ response that
//!   retires one. On expiry the oldest operation is re-sent, its packet
//!   rebuilt from the posted work request's buffer as an RNIC re-reads the
//!   WQE (no packet copy is kept); after
//!   [`RnicModel::retry_cnt`](crate::RnicModel) expiries without progress
//!   it fails with [`WcStatus::RetryExceeded`] and the QP enters the
//!   error state. The receiver accepts request packets only at its in-order
//!   sequence watermark, exactly like RC hardware's go-back-N responder: a
//!   packet ahead of the watermark (an earlier one was lost in flight) is
//!   dropped without an ACK and recovered by the sender's timeout, and a
//!   packet behind it (a retransmitted or fault-duplicated copy) is
//!   suppressed and re-ACKed. Delivery is therefore exactly-once *and
//!   in-order* even on lossy links — protocol layers above may rely on RC
//!   FIFO semantics.
//! * ACKs are cumulative, as on RC: messages land and are ACKed in order,
//!   and an ACK retires every SEND and WRITE up to its sequence number,
//!   so a lost ACK neither reorders completions nor re-reads a buffer its
//!   owner was told is done.
//! * A NAK moves the QP to the error state and flushes outstanding work,
//!   as on real hardware.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::{Rc, Weak};

use simnet::{Addr, BytePool, CoreId, Counters, EventId, Nanos, PooledBuf, Simulator};

use crate::config::RnicModel;
use crate::device::{EventHook, RdmaDevice, WeakDevice};
use crate::error::{VerbsError, VerbsResult};
use crate::mr::MemoryRegion;
use crate::packet::RdmaPacket;
use crate::types::{Access, QpNum, QpState, RKey, Wc, WcOpcode, WcStatus, WrId};
use crate::wr::{RecvWr, SendOp, SendWr, Sge};
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

impl SendWr {
    /// The opcode of the completion this operation reports.
    fn opcode(&self) -> WcOpcode {
        match self.op {
            SendOp::Send { .. } => WcOpcode::Send,
            SendOp::Write { .. } => WcOpcode::RdmaWrite,
            SendOp::Read { .. } => WcOpcode::RdmaRead,
        }
    }

    /// The request packet for sequence number `seq`, its payload read
    /// from the posted buffer into one of `pool`'s buffers.
    fn packet(&self, seq: u64, pool: &BytePool) -> VerbsResult<RdmaPacket> {
        let sge = &self.sge;
        let payload = || sge.mr.dma_read_pooled(sge.offset, sge.len, pool);
        Ok(match self.op {
            SendOp::Send { imm } => RdmaPacket::Send {
                data: payload()?,
                imm,
                seq,
            },
            SendOp::Write {
                rkey,
                remote_offset,
                imm,
            } => RdmaPacket::WriteReq {
                rkey: rkey.0,
                offset: remote_offset,
                data: payload()?,
                imm,
                seq,
            },
            SendOp::Read {
                rkey,
                remote_offset,
            } => RdmaPacket::ReadReq {
                rkey: rkey.0,
                offset: remote_offset,
                len: sge.len,
                seq,
            },
        })
    }
}

/// An operation awaiting its ACK or READ response: the posted work
/// request, all a retransmission needs, and its sequence number.
struct PendingSend {
    seq: u64,
    wr: SendWr,
}

/// An inbound SEND or WRITE past the sequence gate, as it arrived or as it
/// waits in the RNR hold.
struct Inbound {
    seq: u64,
    data: PooledBuf,
    imm: Option<u32>,
    /// A WRITE's `(rkey, offset)`; `None` for a SEND.
    write: Option<(u32, usize)>,
}

/// Where an admitted message's bytes land, and the receive it completes.
struct Landing {
    mr: MemoryRegion,
    offset: usize,
    /// The claimed receive WR and the opcode of its completion; `None` for
    /// a plain WRITE, which completes no receive.
    recv: Option<(WrId, WcOpcode)>,
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
    held: VecDeque<Inbound>,
    /// Operations awaiting their ACK or READ response, in posting order:
    /// seqs are assigned in increasing order, so the front is the oldest
    /// and an error flushes them as they were posted.
    pending: VecDeque<PendingSend>,
    /// Send WRs accepted but not yet completed (capacity accounting).
    outstanding_sends: usize,
    /// The NIC's WQE-processing horizon: send work requests are fetched
    /// and executed in posting order.
    nic_busy_until: Nanos,
    /// The receive side's placement horizon: inbound SENDs and WRITEs are
    /// DMAed into place one after another.
    rx_dma_until: Nanos,
    /// The latest landing: each message lands, completes its receive and
    /// is ACKed no earlier than the one before it (RC delivers in order),
    /// so a plain WRITE's ACK never overtakes an earlier SEND's.
    rx_land_until: Nanos,
    next_seq: u64,
    /// Receiver-side sequence watermark: the next in-order sequence number
    /// expected from the remote QP. Request packets are accepted only at
    /// exactly this value (RC go-back-N ordering); anything below it is a
    /// duplicate, anything above it is dropped for the sender to retransmit.
    rx_expected: u64,
    /// The latest landed WRITE whose ACK waits for an earlier message in
    /// the RNR hold; the ACK of the next message to land covers it.
    rx_unacked: Option<u64>,
    /// The transport timer, pending while `pending` is not empty. It
    /// clocks *silence*, not per-operation age: it fires `timeout` after
    /// the later of the oldest operation's post and the last response
    /// that retired one.
    retry_timer: Option<EventId>,
    /// Expiries since the last progress: the oldest operation is re-sent
    /// on each until there have been `retry_cnt`.
    retry_strikes: u32,
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

    /// Whether a message sequenced before `seq` waits in the RNR hold.
    fn held_before(&self, seq: u64) -> bool {
        self.held.iter().any(|h| h.seq < seq)
    }

    /// Takes `seq`'s operation off the send queue and frees its slot. The
    /// caller completes it.
    fn retire(&mut self, seq: u64) -> Option<SendWr> {
        let at = self.pending.binary_search_by_key(&seq, |p| p.seq).ok()?;
        self.outstanding_sends = self.outstanding_sends.saturating_sub(1);
        Some(self.pending.remove(at).expect("found").wr)
    }

    /// Reports a send-queue completion uncounted: a flush or a failure the
    /// peer did not answer. Every send-queue completion is built here.
    fn push_send_wc(&self, wr_id: WrId, opcode: WcOpcode, status: WcStatus, byte_len: usize) {
        self.send_cq.push(Wc {
            wr_id,
            status,
            opcode,
            byte_len,
            qp: self.num,
            imm: None,
        });
    }

    /// Counts and reports an operation the peer answered: a success only
    /// when signaled, a failure always.
    fn complete_send(&mut self, id: WrId, signaled: bool, op: WcOpcode, st: WcStatus, len: usize) {
        self.counters[QpCounter::SendsCompleted].incr();
        if signaled || st != WcStatus::Success {
            self.counters[QpCounter::SignaledCompletions].incr();
            self.push_send_wc(id, op, st, len);
        } else {
            self.counters[QpCounter::UnsignaledCompletions].incr();
        }
    }
}

/// A work request either queue takes.
trait WorkRequest {
    /// Whether `qp`'s state admits this kind of request, how many the
    /// queue holds and how many it may hold.
    fn queue(qp: &QpInner, model: &RnicModel) -> (bool, usize, usize);
    fn sge(&self) -> &Sge;
    /// The check this kind of request needs beyond PD and range.
    fn check(&self, model: &RnicModel) -> VerbsResult<()>;
}

impl WorkRequest for RecvWr {
    fn queue(qp: &QpInner, model: &RnicModel) -> (bool, usize, usize) {
        let can = qp.state.can_post_recv();
        (can, qp.recv_queue.len(), model.max_recv_wr)
    }

    fn sge(&self) -> &Sge {
        &self.sge
    }

    fn check(&self, _: &RnicModel) -> VerbsResult<()> {
        if !self.sge.mr.access().allows(Access::LOCAL_WRITE) {
            return Err(VerbsError::LocalAccess);
        }
        Ok(())
    }
}

impl WorkRequest for SendWr {
    fn queue(qp: &QpInner, model: &RnicModel) -> (bool, usize, usize) {
        let can = qp.state.can_post_send();
        (can, qp.outstanding_sends, model.max_send_wr)
    }

    fn sge(&self) -> &Sge {
        &self.sge
    }

    fn check(&self, model: &RnicModel) -> VerbsResult<()> {
        if self.inline && self.sge.len > model.max_inline {
            return Err(VerbsError::InlineTooLarge {
                len: self.sge.len,
                max: model.max_inline,
            });
        }
        if matches!(self.op, SendOp::Read { .. })
            && !self.sge.mr.access().allows(Access::LOCAL_WRITE)
        {
            return Err(VerbsError::LocalAccess);
        }
        Ok(())
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
                pending: VecDeque::new(),
                outstanding_sends: 0,
                nic_busy_until: Nanos::ZERO,
                rx_dma_until: Nanos::ZERO,
                rx_land_until: Nanos::ZERO,
                next_seq: 0,
                rx_expected: 0,
                rx_unacked: None,
                retry_timer: None,
                retry_strikes: 0,
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
        let cpu_done = {
            let mut inner = self.inner.borrow_mut();
            let cpu_done = self.doorbell(sim, &inner, wrs.as_ref())?;
            let len = wrs.as_ref().len() as u64;
            inner.counters[QpCounter::RecvsPosted].add(len);
            inner.recv_queue.extend(wrs);
            cpu_done
        };
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
        self.post_send_batch(sim, [wr])
    }

    /// Posts a batch of send work requests in one doorbell. The batch is
    /// anything that lends a slice and yields its requests: a `Vec`, an
    /// array, or a `drain` of a buffer the caller keeps.
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
    pub fn post_send_batch<W>(&self, sim: &mut Simulator, wrs: W) -> VerbsResult<()>
    where
        W: AsRef<[SendWr]> + IntoIterator<Item = SendWr>,
    {
        let model = self.device.model();
        let cpu_done = {
            let batch = wrs.as_ref();
            let mut inner = self.inner.borrow_mut();
            let cpu_done = self.doorbell(sim, &inner, batch)?;
            inner.counters[QpCounter::SendsPosted].add(batch.len() as u64);
            for wr in batch {
                if wr.inline {
                    inner.counters[QpCounter::InlineSends].incr();
                } else {
                    inner.counters[QpCounter::DmaSends].incr();
                }
            }
            inner.outstanding_sends += batch.len();
            cpu_done
        };
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

    /// The checks every post makes, then its CPU work: the QP's state
    /// admits the queue, the batch fits the doorbell and the queue, and
    /// each buffer lies in range in a region of this QP's PD. Returns when
    /// the posting work is done.
    fn doorbell<W: WorkRequest>(
        &self,
        sim: &Simulator,
        inner: &QpInner,
        batch: &[W],
    ) -> VerbsResult<Nanos> {
        let model = self.device.model();
        let (can_post, queued, capacity) = W::queue(inner, model);
        if !can_post {
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
        if queued + batch.len() > capacity {
            return Err(VerbsError::QueueFull {
                qp: inner.num,
                capacity,
            });
        }
        for wr in batch {
            let sge = wr.sge();
            if sge.mr.pd() != inner.pd {
                return Err(VerbsError::PdMismatch);
            }
            sge.mr.check_range(sge.offset, sge.len)?;
            wr.check(model)?;
        }
        let cost = model.post_batch_cost(batch.len());
        Ok(self.device.host_exec(sim, inner.core, cost))
    }

    /// NIC-side: fetch payload and emit the packet for one WR.
    fn nic_transmit(&self, sim: &mut Simulator, wr: SendWr) {
        let pool = self.device.net().buffer_pool();
        let (seq, packet, arm) = {
            let mut inner = self.inner.borrow_mut();
            if inner.state == QpState::Error {
                // Queue pair failed between posting and fetch: flush.
                inner.outstanding_sends = inner.outstanding_sends.saturating_sub(1);
                inner.push_send_wc(wr.wr_id, wr.opcode(), WcStatus::WorkRequestFlushed, 0);
                return;
            }
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let packet = wr.packet(seq, &pool);
            inner.pending.push_back(PendingSend { seq, wr });
            (seq, packet, inner.retry_timer.is_none())
        };
        match packet {
            Ok(packet) => {
                self.emit(sim, packet);
                if arm {
                    self.arm_retry(sim);
                }
            }
            // Local-protection failure discovered at WQE fetch time.
            Err(_) => self.fail(sim, seq, WcStatus::LocalProtectionError),
        }
    }

    /// Puts `pkt` on the wire to the connected peer. Every packet a queue
    /// pair sends leaves here; before it is connected there is no peer.
    fn emit(&self, sim: &mut Simulator, pkt: RdmaPacket) {
        let (local, remote) = {
            let inner = self.inner.borrow();
            (inner.local_addr, inner.remote)
        };
        if let Some((raddr, _)) = remote {
            let wire = pkt.wire_bytes(self.device.model().ack_bytes);
            self.device.net().send(sim, local, raddr, wire, pkt);
        }
    }

    /// Arms the transport timer `timeout` from now.
    fn arm_retry(&self, sim: &mut Simulator) {
        let qp = self.clone();
        let id = sim.schedule_in(self.device.model().timeout, move |sim| qp.retry_fire(sim));
        self.inner.borrow_mut().retry_timer = Some(id);
    }

    /// The transport timer expired: re-send the oldest operation, its
    /// packet rebuilt from its work request, or fail it with
    /// [`WcStatus::RetryExceeded`] once `retry_cnt` re-sends made no
    /// progress. The re-send is charged only on the wire.
    fn retry_fire(&self, sim: &mut Simulator) {
        let pool = self.device.net().buffer_pool();
        let retry_cnt = self.device.model().retry_cnt;
        let (seq, resend) = {
            let mut inner = self.inner.borrow_mut();
            inner.retry_timer = None;
            // An error drained the queue.
            let Some(oldest) = inner.pending.front() else {
                return;
            };
            let seq = oldest.seq;
            let resend = (inner.retry_strikes < retry_cnt).then(|| oldest.wr.packet(seq, &pool));
            if resend.is_some() {
                inner.retry_strikes += 1;
            }
            (seq, resend)
        };
        match resend {
            Some(Ok(pkt)) => {
                self.inner.borrow().counters[QpCounter::Retransmits].incr();
                self.emit(sim, pkt);
                self.arm_retry(sim);
            }
            // The posted buffer was deregistered under the request.
            Some(Err(_)) => self.fail(sim, seq, WcStatus::LocalProtectionError),
            None => {
                {
                    let inner = self.inner.borrow();
                    inner.counters[QpCounter::RetryExceeded].incr();
                    inner.metrics.trace(
                        sim.now(),
                        "rdma",
                        format!("{}retry_exceeded seq={seq}", inner.metrics_prefix),
                    );
                }
                // The peer is unreachable: fail the QP so the remaining
                // queue flushes, exactly as RC hardware reports
                // IBV_WC_RETRY_EXC_ERR and transitions to the error state.
                self.fail(sim, seq, WcStatus::RetryExceeded);
            }
        }
    }

    /// A response retired an operation: the strikes clear and the
    /// transport timer restarts if anything is still outstanding.
    fn progress(&self, sim: &mut Simulator) {
        let rearm = {
            let mut inner = self.inner.borrow_mut();
            inner.retry_strikes = 0;
            if let Some(id) = inner.retry_timer.take() {
                sim.cancel(id);
            }
            !inner.pending.is_empty()
        };
        if rearm {
            self.arm_retry(sim);
        }
    }

    /// Delivers held inbound messages now that receive WRs are available.
    fn drain_held(&self, sim: &mut Simulator) {
        loop {
            let msg = {
                let mut inner = self.inner.borrow_mut();
                if inner.held.is_empty() || inner.recv_queue.is_empty() {
                    break;
                }
                inner.held.pop_front().expect("checked non-empty")
            };
            // Held messages already passed the sequence gate on arrival;
            // each claims its receive now, ahead of any later arrival.
            self.receive(sim, msg, true);
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
    /// * `seq == rx_expected` — accepted if the QP can receive; the
    ///   watermark advances at the accept sites once the packet passes
    ///   validation.
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
            }
            let verdict = {
                let inner = self.inner.borrow();
                if seq > inner.rx_expected {
                    inner.counters[QpCounter::OooDropped].incr();
                    Verdict::Drop
                } else if seq == inner.rx_expected || is_read {
                    if inner.state.can_receive() {
                        Verdict::Accept
                    } else {
                        Verdict::Drop
                    }
                } else {
                    inner.counters[QpCounter::DuplicatesSuppressed].incr();
                    // If the first copy or an earlier message is still
                    // parked in the RNR hold queue, stay silent: a
                    // cumulative ACK now would confirm data that may yet be
                    // rejected. Otherwise re-ack, because a retransmission
                    // means our original ACK was lost.
                    if inner.held_before(seq + 1) {
                        Verdict::Drop
                    } else {
                        Verdict::ReAck
                    }
                }
            };
            if !matches!(verdict, Verdict::Accept) {
                drop(pkt);
                if matches!(verdict, Verdict::ReAck) {
                    self.emit(sim, RdmaPacket::Ack { seq });
                }
                return;
            }
        }
        let (seq, data, imm, write) = match pkt {
            RdmaPacket::Send { data, imm, seq } => (seq, data, imm, None),
            RdmaPacket::WriteReq {
                rkey,
                offset,
                data,
                imm,
                seq,
            } => (seq, data, imm, Some((rkey, offset))),
            RdmaPacket::ReadReq {
                rkey,
                offset,
                len,
                seq,
            } => return self.handle_read(sim, rkey, offset, len, seq),
            RdmaPacket::ReadResp { seq, data } => return self.handle_read_resp(sim, seq, data),
            RdmaPacket::Ack { seq } => return self.handle_ack(sim, seq),
            RdmaPacket::RnrNak { seq } => return self.fail(sim, seq, WcStatus::RnrRetryExceeded),
            RdmaPacket::Nak { seq, status } => return self.fail(sim, seq, status),
            RdmaPacket::Disconnect => {
                let num = self.num();
                self.enter_error();
                self.device
                    .push_cm_event(sim, crate::cm::CmEvent::Disconnected { qp: num });
                return self.fire_hook(sim);
            }
            // CM packets are routed to listeners, not QPs.
            other => {
                debug_assert!(false, "unexpected CM packet at QP: {other:?}");
                return;
            }
        };
        let msg = Inbound {
            seq,
            data,
            imm,
            write,
        };
        self.receive(sim, msg, false);
    }

    /// The one receive path: admits an inbound SEND or WRITE that passed
    /// the sequence gate (or a held one, on `redelivery`).
    ///
    /// A WRITE's rkey is checked first. A SEND or WRITE_WITH_IMM then
    /// claims the next receive WR in arrival order: while earlier messages
    /// wait in the RNR hold, a later arrival is held behind them rather
    /// than overtake them. A plain WRITE claims nothing. Admitted messages
    /// are placed one after another on the receive horizon; a receive's
    /// CQE follows its placement by `cqe_ns`, and the ACK follows that, so
    /// completions keep arrival order.
    fn receive(&self, sim: &mut Simulator, msg: Inbound, redelivery: bool) {
        let len = msg.data.len();
        let target = match msg.write {
            Some((rkey, offset)) => {
                let region =
                    self.remote_region(sim, rkey, offset, len, Access::REMOTE_WRITE, msg.seq);
                let Some(mr) = region else {
                    return;
                };
                Some((mr, offset))
            }
            None => None,
        };
        let claims = msg.write.is_none() || msg.imm.is_some();
        enum Admit {
            Land(Landing),
            Hold,
            FailLength(RecvWr),
        }
        let admit = {
            let mut inner = self.inner.borrow_mut();
            let wr = if claims && (redelivery || inner.held.is_empty()) {
                inner.recv_queue.pop_front()
            } else {
                None
            };
            match wr {
                Some(rwr) if target.is_none() && (rwr.sge.len < len || !rwr.sge.mr.is_valid()) => {
                    Admit::FailLength(rwr)
                }
                None if claims => {
                    inner.counters[QpCounter::RnrRetries].incr();
                    inner.metrics.trace(
                        sim.now(),
                        "rdma",
                        format!("{}rnr_hold seq={}", inner.metrics_prefix, msg.seq),
                    );
                    inner.rx_mark_seen(msg.seq);
                    Admit::Hold
                }
                wr => {
                    inner.rx_mark_seen(msg.seq);
                    Admit::Land(match target {
                        Some((mr, offset)) => Landing {
                            mr,
                            offset,
                            recv: wr.map(|r| (r.wr_id, WcOpcode::RecvRdmaWithImm)),
                        },
                        None => {
                            let r = wr.expect("a SEND lands only in a claimed receive");
                            Landing {
                                mr: r.sge.mr,
                                offset: r.sge.offset,
                                recv: Some((r.wr_id, WcOpcode::Recv)),
                            }
                        }
                    })
                }
            }
        };
        let model = self.device.model();
        match admit {
            Admit::Land(landing) => {
                let cqe = if landing.recv.is_some() {
                    model.cqe_ns
                } else {
                    0
                };
                let land_at = {
                    let mut inner = self.inner.borrow_mut();
                    inner.rx_dma_until = sim.now().max(inner.rx_dma_until) + model.dma_cost(len);
                    let at = inner.rx_dma_until + Nanos::from_nanos(cqe);
                    inner.rx_land_until = at.max(inner.rx_land_until);
                    inner.rx_land_until
                };
                let Inbound { seq, data, imm, .. } = msg;
                let qp = self.clone();
                sim.schedule_at(land_at, move |sim| qp.land(sim, seq, data, imm, landing));
            }
            Admit::Hold => {
                let window = model.rnr_timer.as_nanos() * (model.rnr_retry as u64 + 1);
                let seq = msg.seq;
                self.inner.borrow_mut().held.push_back(msg);
                let qp = self.clone();
                sim.schedule_in(Nanos::from_nanos(window), move |sim| {
                    qp.expire_held(sim, seq)
                });
            }
            Admit::FailLength(rwr) => {
                {
                    let inner = self.inner.borrow();
                    inner.recv_cq.push(Wc {
                        wr_id: rwr.wr_id,
                        status: WcStatus::LocalLengthError,
                        opcode: WcOpcode::Recv,
                        byte_len: len,
                        qp: inner.num,
                        imm: msg.imm,
                    });
                }
                drop(msg.data);
                let status = WcStatus::RemoteOperationError;
                self.emit(
                    sim,
                    RdmaPacket::Nak {
                        seq: msg.seq,
                        status,
                    },
                );
                self.enter_error();
                self.fire_hook(sim);
            }
        }
    }

    /// Writes a placed message into its region, completes its receive and
    /// ACKs it, unless an earlier message still waits in the RNR hold. A
    /// region deregistered since admission NAKs the requester, and the
    /// receive it claimed fails with it.
    fn land(&self, sim: &mut Simulator, seq: u64, data: PooledBuf, imm: Option<u32>, to: Landing) {
        let len = data.len();
        let written = to.mr.dma_write(to.offset, &data).is_ok();
        drop(data);
        {
            let inner = self.inner.borrow();
            if written {
                self.device
                    .net()
                    .host(inner.local_addr.host)
                    .borrow()
                    .count_dma(len);
            }
            if let Some((wr_id, opcode)) = to.recv {
                let (status, byte_len) = if written {
                    inner.counters[QpCounter::RecvsCompleted].incr();
                    (WcStatus::Success, len)
                } else {
                    (WcStatus::LocalProtectionError, 0)
                };
                let qp = inner.num;
                inner.recv_cq.push(Wc {
                    wr_id,
                    status,
                    opcode,
                    byte_len,
                    qp,
                    imm,
                });
            }
        }
        let reply = if !written {
            let status = WcStatus::RemoteAccessError;
            Some(RdmaPacket::Nak { seq, status })
        } else {
            let mut inner = self.inner.borrow_mut();
            let seq = inner.rx_unacked.take().map_or(seq, |w| w.max(seq));
            if inner.held_before(seq) {
                // A WRITE passed a message waiting in the RNR hold: a
                // cumulative ACK now would confirm that message too.
                inner.rx_unacked = Some(seq);
                None
            } else {
                Some(RdmaPacket::Ack { seq })
            }
        };
        if let Some(reply) = reply {
            self.emit(sim, reply);
        }
        self.fire_hook(sim);
    }

    /// RNR window expired for a held message: reject it.
    fn expire_held(&self, sim: &mut Simulator, seq: u64) {
        let expired = {
            let mut inner = self.inner.borrow_mut();
            let at = inner.held.iter().position(|h| h.seq == seq);
            at.and_then(|at| inner.held.remove(at)).is_some()
        };
        if expired {
            self.emit(sim, RdmaPacket::RnrNak { seq });
        }
    }

    /// The region a one-sided request names, if `rkey` grants `access` to
    /// `[offset, offset + len)`. Otherwise the request is NAKed.
    fn remote_region(
        &self,
        sim: &mut Simulator,
        rkey: u32,
        offset: usize,
        len: usize,
        access: Access,
        seq: u64,
    ) -> Option<MemoryRegion> {
        let e = match self.device.validate_remote(RKey(rkey), offset, len, access) {
            Ok(mr) => return Some(mr),
            Err(e) => e,
        };
        {
            let inner = self.inner.borrow();
            // A revoked-but-known rkey is a permission fence firing: a
            // READ with a stale offer after an epoch roll, or a deposed or
            // equivocating leader's in-flight fast-path WRITE, denied in
            // the RNIC, never in software.
            if matches!(e, VerbsError::Deregistered) {
                inner.counters[QpCounter::StaleRkeyDenied].incr();
            }
            if access == Access::REMOTE_WRITE {
                inner.counters[QpCounter::FastPathWriteDenied].incr();
            }
        }
        let status = WcStatus::RemoteAccessError;
        self.emit(sim, RdmaPacket::Nak { seq, status });
        None
    }

    fn handle_read(&self, sim: &mut Simulator, rkey: u32, offset: usize, len: usize, seq: u64) {
        let Some(target) = self.remote_region(sim, rkey, offset, len, Access::REMOTE_READ, seq)
        else {
            return;
        };
        // READs share the request sequence space: advance the in-order
        // watermark so later SENDs/WRITEs are not gated behind this seq.
        self.inner.borrow_mut().rx_mark_seen(seq);
        let dma = self.device.model().dma_cost(len);
        let qp = self.clone();
        sim.schedule_at(sim.now() + dma, move |sim| {
            let pool = qp.device.net().buffer_pool();
            let resp = match target.dma_read_pooled(offset, len, &pool) {
                Ok(data) => RdmaPacket::ReadResp { seq, data },
                Err(_) => RdmaPacket::Nak {
                    seq,
                    status: WcStatus::RemoteAccessError,
                },
            };
            qp.emit(sim, resp);
        });
    }

    fn handle_read_resp(&self, sim: &mut Simulator, seq: u64, data: PooledBuf) {
        let Some(wr) = self.inner.borrow_mut().retire(seq) else {
            return;
        };
        self.progress(sim);
        let model = self.device.model();
        let done_at = sim.now() + model.dma_cost(data.len()) + Nanos::from_nanos(model.cqe_ns);
        // The step keeps only what it needs of the request, so it fits an
        // event slot.
        let (wr_id, signaled, sge) = (wr.wr_id, wr.signaled, wr.sge);
        let qp = self.clone();
        sim.schedule_at(done_at, move |sim| {
            let len = data.len();
            let ok = sge.mr.dma_write(sge.offset, &data).is_ok();
            drop(data);
            {
                let mut inner = qp.inner.borrow_mut();
                qp.device
                    .net()
                    .host(inner.local_addr.host)
                    .borrow()
                    .count_dma(len);
                let status = if ok {
                    WcStatus::Success
                } else {
                    WcStatus::LocalProtectionError
                };
                inner.complete_send(wr_id, signaled, WcOpcode::RdmaRead, status, len);
            }
            qp.fire_hook(sim);
        });
    }

    /// An ACK is cumulative, as on RC hardware: the responder accepts
    /// requests only in sequence order, so an ACK for `seq` answers every
    /// SEND and WRITE up to it, and they complete in posting order even
    /// when an earlier one's own ACK was lost. A READ below `seq` still
    /// waits for its response.
    fn handle_ack(&self, sim: &mut Simulator, seq: u64) {
        let mut signaled = None;
        {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let mut at = 0;
            while let Some(p) = inner.pending.get(at).filter(|p| p.seq <= seq) {
                if matches!(p.wr.op, SendOp::Read { .. }) {
                    at += 1;
                    continue;
                }
                let wr = inner.retire(p.seq).expect("pending");
                let (status, len) = (WcStatus::Success, wr.sge.len);
                inner.complete_send(wr.wr_id, wr.signaled, wr.opcode(), status, len);
                signaled = Some(signaled.unwrap_or(false) || wr.signaled);
            }
        }
        let Some(signaled) = signaled else {
            return;
        };
        self.progress(sim);
        // The ACK of unsignaled sends leaves no completion to report.
        if signaled {
            self.fire_hook(sim);
        }
    }

    /// Fails `seq`'s operation with `status`, and the QP with it: a NAK,
    /// a spent retry budget or a buffer gone at WQE fetch.
    fn fail(&self, sim: &mut Simulator, seq: u64, status: WcStatus) {
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(wr) = inner.retire(seq) {
                inner.push_send_wc(wr.wr_id, wr.opcode(), status, 0);
            }
        }
        self.enter_error();
        self.fire_hook(sim);
    }

    /// Moves the QP to the error state and flushes all outstanding work in
    /// posting order, dropping every held inbound message.
    pub(crate) fn enter_error(&self) {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        if inner.state == QpState::Error {
            return;
        }
        inner.state = QpState::Error;
        let num = inner.num;
        inner.outstanding_sends = 0;
        while let Some(PendingSend { wr, .. }) = inner.pending.pop_front() {
            inner.push_send_wc(wr.wr_id, wr.opcode(), WcStatus::WorkRequestFlushed, 0);
        }
        for r in inner.recv_queue.drain(..) {
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
        self.emit(sim, RdmaPacket::Disconnect);
        self.enter_error();
    }

    /// Unbinds the QP's network port. The QP is unusable afterwards.
    pub fn destroy(&self) {
        let addr = self.local_addr();
        self.device.net().unbind(addr);
        self.enter_error();
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
