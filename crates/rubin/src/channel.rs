//! The RDMA channel: RUBIN's analogue of a non-blocking NIO socket channel.
//!
//! An [`RdmaChannel`] wraps a reliable-connection queue pair together with
//! pre-registered send/receive buffer pools and implements the paper's §IV
//! optimizations (inline sends, selective signaling, batched receive
//! posting, send-side zero copy). Its calls are non-blocking and
//! message-oriented: `write_all` posts a list of messages, one RDMA SEND
//! each, and `read_all` takes every message that has arrived, each in one
//! channel call; `write` and `read` are their one-message case.
//!
//! `read` and `read_all` copy each message from the pre-posted registered
//! buffer into a fresh application buffer — the cost the paper identifies
//! as the source of RUBIN's degradation beyond 16 KB payloads.
//! `read_borrowed` is the §VII zero-copy receive: it lends one message's
//! bytes to a closure in place and re-posts the buffer once it returns.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use rdma_verbs::{
    Access, ConnRequest, MemoryRegion, ProtectionDomain, QpConfig, QueuePair, RKey, RdmaDevice,
    RecvWr, SendWr, Sge, VerbsError, Wc, WcOpcode, WcStatus, WrId,
};
use simnet::{Addr, CoreId, Nanos, Simulator};

use crate::buffer::{BufferPool, SlabIndex};
use crate::config::RubinConfig;
use crate::event::Interest;
use crate::selector::Registration;

/// Errors surfaced by channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// The channel is not (yet) connected.
    NotConnected,
    /// The message exceeds the channel's buffer size.
    MessageTooLarge {
        /// Requested message length.
        len: usize,
        /// Maximum supported by the buffer pools.
        max: usize,
    },
    /// The underlying queue pair failed.
    Broken(String),
    /// A verbs-level error at posting time.
    Verbs(VerbsError),
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::NotConnected => write!(f, "channel is not connected"),
            ChannelError::MessageTooLarge { len, max } => {
                write!(
                    f,
                    "message of {len} bytes exceeds channel buffer size {max}"
                )
            }
            ChannelError::Broken(why) => write!(f, "channel broken: {why}"),
            ChannelError::Verbs(e) => write!(f, "verbs error: {e}"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<VerbsError> for ChannelError {
    fn from(e: VerbsError) -> ChannelError {
        ChannelError::Verbs(e)
    }
}

/// Result of a non-blocking message read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// One complete message.
    Msg(Vec<u8>),
    /// No message available right now.
    WouldBlock,
    /// The peer disconnected and all messages were drained.
    Eof,
}

/// Channel statistics (also used by the ablation benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages accepted by `write_all` (and `write`).
    pub msgs_sent: u64,
    /// Messages handed out by `read_all`, `read` and `read_borrowed`.
    pub msgs_received: u64,
    /// Sends that used the inline path.
    pub inline_sends: u64,
    /// Sends that used the zero-copy registered-application-buffer path.
    pub zero_copy_sends: u64,
    /// Sends that copied into a pooled slab.
    pub copied_sends: u64,
    /// Sends posted with a completion request.
    pub signaled_sends: u64,
    /// `write` calls that returned would-block.
    pub send_stalls: u64,
    /// Receive-buffer re-post batches issued.
    pub repost_batches: u64,
    /// Messages lent in place by `read_borrowed` (no receive copy).
    pub borrowed_reads: u64,
}

/// Completion callback for [`RdmaChannel::post_read`]: `Some(bytes)` on a
/// successful read, `None` if the operation failed or was flushed.
pub type ReadDoneFn = Box<dyn FnOnce(&mut Simulator, Option<Vec<u8>>)>;

/// Completion callback for [`RdmaChannel::post_write`]: `true` once the
/// WRITE is acknowledged, `false` if it was NAK'd (permission revoked) or
/// flushed.
pub type WriteDoneFn = Box<dyn FnOnce(&mut Simulator, bool)>;

/// Local notification that a peer's WRITE_WITH_IMM landed in one of our
/// registered regions: `(imm, byte_len)`. Installed with
/// [`RdmaChannel::set_write_doorbell`].
pub type WriteDoorbellFn = Rc<dyn Fn(&mut Simulator, u32, usize)>;

/// Moves a copied message's bytes out of its receive buffer: the copy is
/// charged, but on the host the slab's bytes are taken, not copied, so a
/// slab holds memory only while a message sits in it.
fn copy_out(slab: &MemoryRegion, len: usize) -> Vec<u8> {
    slab.take(len).expect("received message fits its slab")
}

/// One-sided work-request ids live in their own range, so the in-order
/// send-completion pop can never confuse them with SEND wr_ids.
const ONE_SIDED_WR_BASE: u64 = 1 << 48;

/// An outstanding one-sided operation: the region registered for it (a
/// READ's sink, a WRITE's source) and whom to tell when it completes.
struct OneSided {
    region: MemoryRegion,
    done: OneSidedDone,
}

enum OneSidedDone {
    Read { len: usize, done: ReadDoneFn },
    Write(WriteDoneFn),
}

impl OneSided {
    /// Deregisters the operation's region and reports the outcome: a
    /// READ's bytes, or whether a WRITE was acknowledged.
    fn finish(self, sim: &mut Simulator, ok: bool) {
        let OneSided { region, done } = self;
        match done {
            OneSidedDone::Read { len, done } => {
                let data = ok.then(|| region.take(len).ok()).flatten();
                region.invalidate();
                done(sim, data);
            }
            OneSidedDone::Write(done) => {
                region.invalidate();
                done(sim, ok);
            }
        }
    }
}

/// Where an outstanding send's payload lives until the send completes.
enum SendBuf {
    /// A slab of the send pool, given back on completion.
    Slab(SlabIndex),
    /// The application's own buffer, registered for this one send (zero
    /// copy) and deregistered on completion.
    Registered(MemoryRegion),
}

pub(crate) struct ChanInner {
    device: RdmaDevice,
    qp: QueuePair,
    pd: ProtectionDomain,
    core: CoreId,
    cfg: RubinConfig,
    send_pool: BufferPool,
    pub(crate) recv_pool: BufferPool,
    /// Outstanding sends in posting order.
    inflight: VecDeque<(u64, SendBuf)>,
    /// Outstanding one-sided READs and WRITEs by wr_id.
    one_sided: HashMap<u64, OneSided>,
    one_sided_count: u64,
    send_count: u64,
    since_signal: usize,
    /// Received messages not yet read: `(recv slab, length)`.
    pub(crate) rx_ready: VecDeque<(SlabIndex, usize)>,
    /// Consumed receive slabs awaiting batched re-posting.
    to_repost: Vec<SlabIndex>,
    /// Work requests of one re-post, kept between re-posts.
    repost_wrs: Vec<RecvWr>,
    /// Work requests of one `write_all`, kept between calls.
    send_wrs: Vec<SendWr>,
    /// Poll buffers of the two completion queues, kept between polls.
    send_wcs: Vec<Wc>,
    recv_wcs: Vec<Wc>,
    established: bool,
    accept_ready: bool,
    eof: bool,
    broken: Option<String>,
    conn_id: Option<u64>,
    reg: Option<Registration>,
    /// Invoked for inbound WRITE_WITH_IMM completions instead of queueing
    /// the (payload-free) receive slab as a message.
    write_doorbell: Option<WriteDoorbellFn>,
    stats: ChannelStats,
}

impl ChanInner {
    /// Fails unless the channel is established and unbroken.
    fn check_open(&self) -> Result<(), ChannelError> {
        if let Some(why) = &self.broken {
            return Err(ChannelError::Broken(why.clone()));
        }
        if !self.established {
            return Err(ChannelError::NotConnected);
        }
        Ok(())
    }

    /// Charges one channel call to its core: the managed-runtime overhead
    /// plus `extra_ns`.
    fn charge_call(&self, sim: &Simulator, extra_ns: u64) {
        let host_ref = self.device.net().host(self.device.host());
        let mut h = host_ref.borrow_mut();
        let work = Nanos::from_nanos(h.cpu().runtime_io_ns + extra_ns);
        h.exec(sim.now(), self.core, work);
    }

    /// Charges the copy of `len` bytes between an application buffer and a
    /// registered one to the channel's core.
    fn charge_copy(&self, sim: &Simulator, len: usize) {
        let host_ref = self.device.net().host(self.device.host());
        host_ref
            .borrow_mut()
            .charge_user_copy(sim.now(), self.core, len);
    }

    /// Takes `data` into the send work request of its path (inline, a
    /// copy into a pooled slab, or its own registration for zero copy),
    /// charging the copy; `None` if the send buffers are full.
    fn prepare_send(&mut self, sim: &Simulator, data: &[u8]) -> Option<SendWr> {
        if self.inflight.len() >= self.cfg.send_buffers {
            return None;
        }
        let use_inline = data.len() <= self.cfg.inline_threshold;
        let use_zero_copy =
            !use_inline && self.cfg.zero_copy_send && data.len() > self.cfg.small_copy_threshold;
        let (sge, buf) = if use_zero_copy {
            // Models registering the application's own buffer: the payload
            // is not copied on the send side; the caller charges the
            // registration-cache lookup.
            let mr = self.device.reg_mr(&self.pd, data.len(), Access::NONE);
            mr.write(0, data).expect("fresh region fits payload");
            self.stats.zero_copy_sends += 1;
            (Sge::new(mr.clone(), 0, data.len()), SendBuf::Registered(mr))
        } else {
            let (idx, mr) = self.send_pool.lend()?;
            mr.write(0, data).expect("slab fits message");
            self.charge_copy(sim, data.len());
            if use_inline {
                self.stats.inline_sends += 1;
            } else {
                self.stats.copied_sends += 1;
            }
            (Sge::new(mr, 0, data.len()), SendBuf::Slab(idx))
        };
        self.since_signal += 1;
        let signaled = self.since_signal >= self.cfg.signal_interval;
        if signaled {
            self.since_signal = 0;
            self.stats.signaled_sends += 1;
        }
        let wr_id = self.send_count;
        self.send_count += 1;
        self.inflight.push_back((wr_id, buf));
        self.stats.msgs_sent += 1;
        let mut wr = SendWr::send(WrId(wr_id), sge);
        if signaled {
            wr = wr.signaled();
        }
        if use_inline {
            wr = wr.with_inline();
        }
        Some(wr)
    }
}

/// A non-blocking, message-oriented RDMA channel.
#[derive(Clone)]
pub struct RdmaChannel {
    pub(crate) inner: Rc<RefCell<ChanInner>>,
}

impl fmt::Debug for RdmaChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("RdmaChannel")
            .field("qp", &inner.qp.num())
            .field("established", &inner.established)
            .field("rx_ready", &inner.rx_ready.len())
            .field("outstanding_sends", &inner.inflight.len())
            .field("broken", &inner.broken)
            .finish()
    }
}

impl RdmaChannel {
    fn build(
        sim: &mut Simulator,
        device: &RdmaDevice,
        cfg: RubinConfig,
        core: CoreId,
        make_qp: impl FnOnce(
            &mut Simulator,
            &QpConfig,
        ) -> Result<(QueuePair, Option<u64>, bool), ChannelError>,
    ) -> Result<RdmaChannel, ChannelError> {
        cfg.validate();
        let pd = device.alloc_pd();
        let cq_cap = (cfg.send_buffers + cfg.recv_buffers) * 2;
        let send_cq = device.create_cq(cq_cap, None);
        let recv_cq = device.create_cq(cq_cap, None);
        let qp_cfg = QpConfig {
            pd,
            send_cq,
            recv_cq,
            core,
        };
        let (qp, conn_id, established) = make_qp(sim, &qp_cfg)?;
        let send_pool = BufferPool::register(
            device,
            &pd,
            cfg.send_buffers,
            cfg.buffer_size,
            Access::LOCAL_WRITE,
        );
        let recv_pool = BufferPool::register(
            device,
            &pd,
            cfg.recv_buffers,
            cfg.buffer_size,
            Access::LOCAL_WRITE,
        );
        let channel = RdmaChannel {
            inner: Rc::new(RefCell::new(ChanInner {
                device: device.clone(),
                qp,
                pd,
                core,
                cfg,
                send_pool,
                recv_pool,
                inflight: VecDeque::new(),
                one_sided: HashMap::new(),
                one_sided_count: 0,
                send_count: 0,
                since_signal: 0,
                rx_ready: VecDeque::new(),
                to_repost: Vec::new(),
                repost_wrs: Vec::new(),
                send_wrs: Vec::new(),
                send_wcs: Vec::new(),
                recv_wcs: Vec::new(),
                established,
                accept_ready: false,
                eof: false,
                broken: None,
                conn_id,
                reg: None,
                write_doorbell: None,
                stats: ChannelStats::default(),
            })),
        };
        channel.post_initial_receives(sim)?;
        Ok(channel)
    }

    /// Opens a client channel towards an
    /// [`RdmaServerChannel`](crate::RdmaServerChannel) at `remote`.
    ///
    /// The channel is created immediately with its buffer pools registered
    /// and receives pre-posted; `OP_ACCEPT` readiness (or
    /// [`ChannelError::Broken`]) follows once connection management
    /// completes.
    ///
    /// # Errors
    ///
    /// Propagates verbs errors from queue-pair creation or buffer posting.
    pub fn connect(
        sim: &mut Simulator,
        device: &RdmaDevice,
        remote: Addr,
        cfg: RubinConfig,
        core: CoreId,
    ) -> Result<RdmaChannel, ChannelError> {
        RdmaChannel::build(sim, device, cfg, core, |sim, qp_cfg| {
            let (qp, conn_id) = device.connect(sim, remote, qp_cfg)?;
            Ok((qp, Some(conn_id), false))
        })
    }

    /// Creates the server-side channel for an accepted connection request.
    ///
    /// # Errors
    ///
    /// Propagates verbs errors from accepting or buffer posting.
    pub fn from_accepted(
        sim: &mut Simulator,
        device: &RdmaDevice,
        req: ConnRequest,
        cfg: RubinConfig,
        core: CoreId,
    ) -> Result<RdmaChannel, ChannelError> {
        RdmaChannel::build(sim, device, cfg, core, |sim, qp_cfg| {
            let qp = req.accept(sim, qp_cfg)?;
            Ok((qp, None, true))
        })
    }

    fn post_initial_receives(&self, sim: &mut Simulator) -> Result<(), ChannelError> {
        {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            for _ in 0..inner.cfg.recv_buffers {
                let (idx, _) = inner
                    .recv_pool
                    .lend()
                    .expect("fresh pool has all slabs free");
                inner.to_repost.push(idx);
            }
        }
        self.post_receives(sim)
    }

    /// Posts every slab queued in `to_repost`, in doorbell batches of the
    /// device's limit, through the channel's kept work-request buffer.
    fn post_receives(&self, sim: &mut Simulator) -> Result<(), ChannelError> {
        let (qp, mut wrs, limit) = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let mut wrs = std::mem::take(&mut inner.repost_wrs);
            let pool = &inner.recv_pool;
            wrs.extend(
                inner
                    .to_repost
                    .drain(..)
                    .map(|idx| RecvWr::new(WrId(idx as u64), Sge::whole(pool.slab(idx).clone()))),
            );
            (inner.qp.clone(), wrs, inner.device.model().max_post_batch)
        };
        let mut posted = Ok(());
        while posted.is_ok() && !wrs.is_empty() {
            let n = wrs.len().min(limit);
            posted = qp.post_recv_batch(sim, wrs.drain(..n));
        }
        wrs.clear();
        self.inner.borrow_mut().repost_wrs = wrs;
        posted.map_err(ChannelError::from)
    }

    /// Posts the queued slabs once they fill a re-post batch.
    fn repost_if_full(&self, sim: &mut Simulator) -> Result<(), ChannelError> {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.to_repost.len() < inner.cfg.recv_batch {
                return Ok(());
            }
            inner.stats.repost_batches += 1;
        }
        self.post_receives(sim)
    }

    /// The underlying queue pair (hook installation, tests).
    pub fn qp(&self) -> QueuePair {
        self.inner.borrow().qp.clone()
    }

    /// The core this channel's CPU work is charged to.
    pub fn core(&self) -> CoreId {
        self.inner.borrow().core
    }

    /// The connection id of an outgoing connection.
    pub fn conn_id(&self) -> Option<u64> {
        self.inner.borrow().conn_id
    }

    /// True once connected.
    pub fn is_established(&self) -> bool {
        self.inner.borrow().established
    }

    /// True if the peer disconnected or the QP failed.
    pub fn is_eof(&self) -> bool {
        let inner = self.inner.borrow();
        inner.eof || inner.broken.is_some()
    }

    /// Channel statistics.
    pub fn stats(&self) -> ChannelStats {
        self.inner.borrow().stats
    }

    /// The channel's configuration.
    pub fn config(&self) -> RubinConfig {
        self.inner.borrow().cfg.clone()
    }

    pub(crate) fn set_registration(&self, reg: Registration) {
        self.inner.borrow_mut().reg = Some(reg);
    }

    /// Marks the channel established (selector dispatch of the
    /// `Established` CM event; exposed for driving channels without a
    /// selector).
    pub fn mark_established(&self, sim: &mut Simulator) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.established = true;
            inner.accept_ready = true;
        }
        self.refresh_readiness(sim);
    }

    /// Marks the channel failed.
    pub fn mark_broken(&self, sim: &mut Simulator, reason: impl Into<String>) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.broken = Some(reason.into());
        }
        self.refresh_readiness(sim);
    }

    /// Marks the peer as disconnected (EOF after draining).
    pub fn mark_disconnected(&self, sim: &mut Simulator) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.eof = true;
        }
        self.refresh_readiness(sim);
    }

    /// Consumes the one-shot `OP_ACCEPT` readiness; returns whether the
    /// channel is established.
    pub fn finish_connect(&self, sim: &mut Simulator) -> bool {
        let est = {
            let mut inner = self.inner.borrow_mut();
            inner.accept_ready = false;
            inner.established
        };
        self.refresh_readiness(sim);
        est
    }

    /// Non-blocking message send: [`write_all`](Self::write_all) of one
    /// message. Returns `Ok(true)` if the message was accepted, `Ok(false)`
    /// if the channel is temporarily full (`OP_SEND` readiness will fire
    /// when space frees up).
    ///
    /// # Errors
    ///
    /// As for [`write_all`](Self::write_all).
    pub fn write(&self, sim: &mut Simulator, data: &[u8]) -> Result<bool, ChannelError> {
        Ok(self.write_all(sim, [data])? == 1)
    }

    /// Non-blocking send of `msgs`, in order, in one channel call: as many
    /// as the send buffers take, each one RDMA SEND. Returns how many it
    /// took; the rest wait for `OP_SEND` readiness.
    ///
    /// The call charges the managed-runtime overhead once, plus each
    /// message's copy into a registered buffer (a registration-cache
    /// lookup, `reg_cache_ns`, for a zero-copy one), and posts the sends
    /// with one doorbell per `max_post_batch` work requests.
    ///
    /// # Errors
    ///
    /// * [`ChannelError::NotConnected`] before establishment.
    /// * [`ChannelError::Broken`] after a failure.
    /// * [`ChannelError::MessageTooLarge`] if any message exceeds the
    ///   buffer size; then none is sent.
    /// * [`ChannelError::Verbs`] on posting errors.
    pub fn write_all<'a, I>(&self, sim: &mut Simulator, msgs: I) -> Result<usize, ChannelError>
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: Clone,
    {
        let msgs = msgs.into_iter();
        let (qp, mut wrs, limit) = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            inner.check_open()?;
            let max = inner.cfg.buffer_size;
            if let Some(len) = msgs.clone().map(<[u8]>::len).find(|&len| len > max) {
                return Err(ChannelError::MessageTooLarge { len, max });
            }
            let mut wrs = std::mem::take(&mut inner.send_wrs);
            let zero_copy_before = inner.stats.zero_copy_sends;
            for data in msgs {
                let Some(wr) = inner.prepare_send(sim, data) else {
                    inner.stats.send_stalls += 1;
                    break;
                };
                wrs.push(wr);
            }
            if !wrs.is_empty() {
                let zero_copy = inner.stats.zero_copy_sends - zero_copy_before;
                inner.charge_call(sim, zero_copy * inner.cfg.reg_cache_ns);
            }
            (inner.qp.clone(), wrs, inner.device.model().max_post_batch)
        };
        let taken = wrs.len();
        let mut posted = Ok(());
        while posted.is_ok() && !wrs.is_empty() {
            let n = wrs.len().min(limit);
            posted = qp.post_send_batch(sim, wrs.drain(..n));
        }
        wrs.clear();
        self.inner.borrow_mut().send_wrs = wrs;
        posted?;
        self.refresh_readiness(sim);
        Ok(taken)
    }

    /// Posts a one-sided RDMA READ of `[remote_offset, remote_offset+len)`
    /// from the peer's region `rkey` into a fresh local sink; `done` fires
    /// with the bytes once the read completes (or with `None` if the QP
    /// fails first). The remote CPU does no work serving the read — its
    /// NIC validates the rkey and DMAs the data out directly, which is why
    /// checkpoint state transfer uses this path on RUBIN.
    ///
    /// # Errors
    ///
    /// * [`ChannelError::NotConnected`] before establishment.
    /// * [`ChannelError::Broken`] after a failure.
    /// * [`ChannelError::Verbs`] on posting errors.
    pub fn post_read(
        &self,
        sim: &mut Simulator,
        rkey: u32,
        remote_offset: u64,
        len: usize,
        done: ReadDoneFn,
    ) -> Result<(), ChannelError> {
        let sink = {
            let inner = self.inner.borrow();
            inner.check_open()?;
            inner
                .device
                .reg_mr(&inner.pd, len.max(1), Access::LOCAL_WRITE)
        };
        let sge = Sge::new(sink.clone(), 0, len);
        let done = OneSidedDone::Read { len, done };
        self.post_one_sided(sim, OneSided { region: sink, done }, |wr_id| {
            SendWr::read(wr_id, sge, RKey(rkey), remote_offset as usize)
        })
    }

    /// Posts a one-sided RDMA WRITE_WITH_IMM of `data` into the peer's
    /// region `rkey` at `remote_offset`, raising a doorbell completion
    /// (carrying `imm`) on the peer. The peer's CPU does no protocol work
    /// for the transfer itself — its NIC validates the rkey, DMAs the
    /// payload into place, and consumes one receive WR for the immediate.
    /// `done` fires with `true` once the WRITE is acked, `false` if the
    /// RNIC denied it (permission revoked) or the QP failed.
    ///
    /// # Errors
    ///
    /// * [`ChannelError::NotConnected`] before establishment.
    /// * [`ChannelError::Broken`] after a failure.
    /// * [`ChannelError::Verbs`] on posting errors.
    pub fn post_write(
        &self,
        sim: &mut Simulator,
        rkey: u32,
        remote_offset: u64,
        data: &[u8],
        imm: u32,
        done: WriteDoneFn,
    ) -> Result<(), ChannelError> {
        let src = {
            let inner = self.inner.borrow();
            inner.check_open()?;
            // Source registration models the zero-copy send path: the
            // application buffer is registered (cache lookup), not copied.
            let src = inner
                .device
                .reg_mr(&inner.pd, data.len().max(1), Access::NONE);
            src.write(0, data).expect("fresh region fits payload");
            inner.charge_call(sim, inner.cfg.reg_cache_ns);
            src
        };
        let sge = Sge::new(src.clone(), 0, data.len());
        let done = OneSidedDone::Write(done);
        self.post_one_sided(sim, OneSided { region: src, done }, |wr_id| {
            SendWr::write_with_imm(wr_id, sge, RKey(rkey), remote_offset as usize, imm)
        })
    }

    /// Posts the signaled one-sided request `wr` builds for its wr_id and
    /// tracks `op` until it completes.
    fn post_one_sided(
        &self,
        sim: &mut Simulator,
        op: OneSided,
        wr: impl FnOnce(WrId) -> SendWr,
    ) -> Result<(), ChannelError> {
        let (qp, wr, wr_id) = {
            let mut inner = self.inner.borrow_mut();
            let wr_id = ONE_SIDED_WR_BASE + inner.one_sided_count;
            inner.one_sided_count += 1;
            inner.one_sided.insert(wr_id, op);
            (inner.qp.clone(), wr(WrId(wr_id)).signaled(), wr_id)
        };
        if let Err(e) = qp.post_send(sim, wr) {
            self.inner.borrow_mut().one_sided.remove(&wr_id);
            return Err(e.into());
        }
        Ok(())
    }

    /// Installs the handler invoked when a peer's WRITE_WITH_IMM lands in
    /// one of our registered regions. With a doorbell installed the
    /// consumed receive slab is recycled immediately (the payload lives in
    /// the target region, not the slab) instead of surfacing as a bogus
    /// inbound message.
    pub fn set_write_doorbell(&self, doorbell: WriteDoorbellFn) {
        self.inner.borrow_mut().write_doorbell = Some(doorbell);
    }

    /// Non-blocking message receive: [`read_all`](Self::read_all) of at
    /// most one message.
    ///
    /// # Errors
    ///
    /// As for [`read_all`](Self::read_all).
    pub fn read(&self, sim: &mut Simulator) -> Result<RecvOutcome, ChannelError> {
        let mut msg = None;
        self.take_received(sim, 1, true, |slab, len| msg = Some(copy_out(slab, len)))?;
        Ok(match msg {
            Some(m) => RecvOutcome::Msg(m),
            None if self.inner.borrow().eof => RecvOutcome::Eof,
            None => RecvOutcome::WouldBlock,
        })
    }

    /// Non-blocking receive of every message that has arrived, appended to
    /// `inbox` in arrival order, in one channel call. Returns how many it
    /// moved; `Ok(0)` when none has arrived, and also once the peer has
    /// disconnected and everything was read ([`is_eof`](Self::is_eof)).
    ///
    /// The call charges the managed-runtime overhead once, plus each
    /// message's copy out of the pre-posted registered buffer (the
    /// receive-side copy of paper §IV), and re-posts the freed buffers in
    /// batches of `recv_batch`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Broken`] after a queue-pair failure, once every
    /// message that arrived before it was read, or posting errors while
    /// re-posting receive buffers.
    pub fn read_all(
        &self,
        sim: &mut Simulator,
        inbox: &mut VecDeque<Vec<u8>>,
    ) -> Result<usize, ChannelError> {
        self.take_received(sim, usize::MAX, true, |slab, len| {
            inbox.push_back(copy_out(slab, len));
        })
    }

    /// Zero-copy receive (paper §VII: "remove any additional buffer copy
    /// steps"): lends the next message's bytes to `f` in place, in the
    /// registered buffer it arrived in, and returns what `f` returns, or
    /// `Ok(None)` when no message is waiting (also after EOF, as for
    /// [`read_all`](Self::read_all)). The call charges only the
    /// managed-runtime overhead; the buffer is queued for re-posting after
    /// `f` returns.
    ///
    /// # Errors
    ///
    /// As for [`read_all`](Self::read_all).
    pub fn read_borrowed<R>(
        &self,
        sim: &mut Simulator,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, ChannelError> {
        let mut f = Some(f);
        let mut out = None;
        self.take_received(sim, 1, false, |slab, len| {
            let f = f.take().expect("one message per call");
            out = Some(
                slab.with_slice(0, len, f)
                    .expect("received message fits its slab"),
            );
        })?;
        Ok(out)
    }

    /// Hands up to `max` received messages, in arrival order, to `deliver`
    /// with the registered buffer each arrived in: the one body of
    /// [`read`](Self::read), [`read_all`](Self::read_all) and
    /// [`read_borrowed`](Self::read_borrowed). The call charges the
    /// managed-runtime overhead once and, if `copy`, each message's copy
    /// out of its buffer. A buffer is queued for re-posting only after
    /// `deliver` has returned, and `deliver` runs with the channel
    /// unborrowed.
    fn take_received(
        &self,
        sim: &mut Simulator,
        max: usize,
        copy: bool,
        mut deliver: impl FnMut(&MemoryRegion, usize),
    ) -> Result<usize, ChannelError> {
        {
            let inner = self.inner.borrow();
            if inner.rx_ready.is_empty() {
                return match &inner.broken {
                    Some(why) if !inner.eof => Err(ChannelError::Broken(why.clone())),
                    _ => Ok(0),
                };
            }
            inner.charge_call(sim, 0);
        }
        let mut taken = 0;
        while taken < max {
            let (idx, slab, len) = {
                let mut inner = self.inner.borrow_mut();
                let Some((idx, len)) = inner.rx_ready.pop_front() else {
                    break;
                };
                if copy {
                    inner.charge_copy(sim, len);
                } else {
                    inner.stats.borrowed_reads += 1;
                }
                inner.stats.msgs_received += 1;
                (idx, inner.recv_pool.slab(idx).clone(), len)
            };
            deliver(&slab, len);
            self.inner.borrow_mut().to_repost.push(idx);
            taken += 1;
            self.repost_if_full(sim)?;
        }
        self.refresh_readiness(sim);
        Ok(taken)
    }

    /// Drains this channel's completion queues, recycling send buffers and
    /// queueing received messages. Charges one poll call and returns how
    /// many completions it found. Registered channels have this driven by
    /// the selector's event manager; manual drivers call it directly.
    pub fn process_completions(&self, sim: &mut Simulator) -> usize {
        let mut finished: Vec<(OneSided, bool)> = Vec::new();
        let mut doorbells: Vec<(WriteDoorbellFn, u32, usize)> = Vec::new();
        let total = {
            let mut inner = self.inner.borrow_mut();
            let mut send_wcs = std::mem::take(&mut inner.send_wcs);
            let mut recv_wcs = std::mem::take(&mut inner.recv_wcs);
            inner.qp.send_cq().poll_into(&mut send_wcs);
            inner.qp.recv_cq().poll_into(&mut recv_wcs);
            let total = send_wcs.len() + recv_wcs.len();
            inner.device.charge_poll(sim, inner.core, total);
            for wc in send_wcs.drain(..) {
                // One-sided READ and WRITE completions carry their own id
                // range and resolve their callback; they never take part in
                // the in-order SEND pop below. A failed one is the RNIC
                // denying a revoked permission, or a flush after a failure.
                if matches!(wc.opcode, WcOpcode::RdmaRead | WcOpcode::RdmaWrite) {
                    if let Some(op) = inner.one_sided.remove(&wc.wr_id.0) {
                        finished.push((op, wc.status == WcStatus::Success));
                    }
                    if wc.status == WcStatus::WorkRequestFlushed {
                        inner.eof = true;
                    }
                    continue;
                }
                match wc.status {
                    WcStatus::Success => {
                        // RC completes in order: everything up to and
                        // including this wr_id is done.
                        while inner
                            .inflight
                            .front()
                            .is_some_and(|&(id, _)| id <= wc.wr_id.0)
                        {
                            let (_, buf) = inner.inflight.pop_front().expect("checked");
                            match buf {
                                SendBuf::Slab(idx) => inner.send_pool.give_back(idx),
                                SendBuf::Registered(mr) => mr.invalidate(),
                            }
                        }
                    }
                    WcStatus::WorkRequestFlushed => {
                        inner.eof = true;
                    }
                    other => {
                        inner.broken = Some(format!("send failed: {other:?}"));
                    }
                }
            }
            for wc in recv_wcs.drain(..) {
                match wc.status {
                    WcStatus::Success if wc.opcode == WcOpcode::RecvRdmaWithImm => {
                        // A peer's WRITE_WITH_IMM: the payload was DMA'd
                        // into the registered target region, not this slab.
                        // Recycle the slab and ring the doorbell; without a
                        // doorbell installed, surface it as a message for
                        // raw-channel users.
                        match inner.write_doorbell.clone() {
                            Some(db) => {
                                inner.to_repost.push(wc.wr_id.0 as usize);
                                doorbells.push((db, wc.imm.unwrap_or(0), wc.byte_len));
                            }
                            None => {
                                inner.rx_ready.push_back((wc.wr_id.0 as usize, wc.byte_len));
                            }
                        }
                    }
                    WcStatus::Success if wc.opcode == WcOpcode::Recv => {
                        inner.rx_ready.push_back((wc.wr_id.0 as usize, wc.byte_len));
                    }
                    WcStatus::WorkRequestFlushed => {
                        inner.eof = true;
                    }
                    other => {
                        inner.broken = Some(format!("receive failed: {other:?}"));
                    }
                }
            }
            inner.send_wcs = send_wcs;
            inner.recv_wcs = recv_wcs;
            total
        };
        // Callbacks run with the channel borrow released: a completion
        // handler may immediately post follow-up reads or sends.
        for (op, ok) in finished {
            op.finish(sim, ok);
        }
        let rang = !doorbells.is_empty();
        for (db, imm, len) in doorbells {
            db(sim, imm, len);
        }
        if rang {
            // Doorbell slabs were recycled without a read() call; flush the
            // repost batch if it filled up.
            self.repost_if_full(sim).ok();
        }
        self.refresh_readiness(sim);
        total
    }

    /// Recomputes readiness and reports it to the registered selector.
    pub(crate) fn refresh_readiness(&self, sim: &mut Simulator) {
        let (reg, receive, send, accept) = {
            let inner = self.inner.borrow();
            let receive = !inner.rx_ready.is_empty() || inner.eof || inner.broken.is_some();
            let send = inner.established
                && inner.broken.is_none()
                && inner.inflight.len() < inner.cfg.send_buffers
                && inner.send_pool.available() > 0;
            (inner.reg.clone(), receive, send, inner.accept_ready)
        };
        if let Some(reg) = reg {
            reg.set_ready(sim, Interest::OP_RECEIVE, receive);
            reg.set_ready(sim, Interest::OP_SEND, send);
            reg.set_ready(sim, Interest::OP_ACCEPT, accept);
        }
    }

    /// Disconnects the channel, notifying the peer.
    pub fn close(&self, sim: &mut Simulator) {
        let qp = self.qp();
        qp.disconnect(sim);
        let mut inner = self.inner.borrow_mut();
        inner.eof = true;
    }
}
