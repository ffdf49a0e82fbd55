//! The RDMA channel: RUBIN's analogue of a non-blocking NIO socket channel.
//!
//! An [`RdmaChannel`] wraps a reliable-connection queue pair together with
//! pre-registered send/receive buffer pools and implements the paper's §IV
//! optimizations (inline sends, selective signaling, batched receive
//! posting, send-side zero copy). `write()` and `read()` are non-blocking
//! and message-oriented: one `write` becomes one RDMA SEND, one `read`
//! returns one received message.
//!
//! The receive path always copies from the pre-posted registered buffer
//! into a fresh application buffer — the cost the paper identifies as the
//! source of RUBIN's degradation beyond 16 KB payloads.

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

/// A received message borrowed in place from the registered receive
/// buffer — the zero-copy receive path of the paper's §VII plan.
///
/// The buffer stays lent to the application until
/// [`release`](BorrowedMsg::release) returns it for re-posting. Dropping
/// without releasing parks the buffer; it is reclaimed on the next
/// `read`/`read_borrowed` call.
#[derive(Debug)]
pub struct BorrowedMsg {
    chan: RdmaChannel,
    slab: SlabIndex,
    len: usize,
    released: bool,
}

impl BorrowedMsg {
    /// Message length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for empty messages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs `f` over the message bytes in place (no copy).
    pub fn with_data<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let inner = self.chan.inner.borrow();
        inner
            .recv_pool
            .slab(self.slab)
            .with_slice(0, self.len, f)
            .expect("received message fits its slab")
    }

    /// Returns the buffer to the channel for batched re-posting.
    ///
    /// # Errors
    ///
    /// Propagates re-posting failures.
    pub fn release(mut self, sim: &mut Simulator) -> Result<(), ChannelError> {
        self.released = true;
        let slab = self.slab;
        self.chan.clone().return_slab(sim, Some(slab))
    }
}

impl Drop for BorrowedMsg {
    fn drop(&mut self) {
        if !self.released {
            // No simulator here: park the slab; the channel reclaims it on
            // the next read call.
            self.chan.inner.borrow_mut().parked_slabs.push(self.slab);
        }
    }
}

/// Channel statistics (also used by the ablation benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages accepted by `write`.
    pub msgs_sent: u64,
    /// Messages returned by `read`.
    pub msgs_received: u64,
    /// Payload bytes accepted by `write`.
    pub bytes_sent: u64,
    /// Payload bytes returned by `read`.
    pub bytes_received: u64,
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
    /// Messages delivered through the zero-copy borrowed-receive path.
    pub borrowed_reads: u64,
    /// One-sided RDMA READs posted via [`RdmaChannel::post_read`].
    pub reads_posted: u64,
    /// Bytes pulled by completed one-sided READs.
    pub read_bytes: u64,
    /// One-sided RDMA WRITEs posted via [`RdmaChannel::post_write`].
    pub writes_posted: u64,
    /// Bytes pushed by posted one-sided WRITEs.
    pub write_bytes: u64,
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

/// One-sided READ work-request ids live in their own range so the in-order
/// send-completion pop below can never confuse them with SEND wr_ids.
const READ_WR_BASE: u64 = 1 << 48;

/// One-sided WRITE work-request ids: a third disjoint range.
const WRITE_WR_BASE: u64 = 1 << 49;

struct PendingRead {
    sink: MemoryRegion,
    len: usize,
    done: ReadDoneFn,
}

struct PendingWrite {
    src: MemoryRegion,
    done: WriteDoneFn,
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
    recv_pool: BufferPool,
    /// Outstanding sends in posting order.
    inflight: VecDeque<(u64, SendBuf)>,
    /// Outstanding one-sided READs by wr_id (disjoint id range).
    pending_reads: HashMap<u64, PendingRead>,
    /// Outstanding one-sided WRITEs by wr_id (disjoint id range).
    pending_writes: HashMap<u64, PendingWrite>,
    read_count: u64,
    write_count: u64,
    send_count: u64,
    since_signal: usize,
    outstanding_sends: usize,
    /// Received messages not yet read: `(recv slab, length)`.
    rx_ready: VecDeque<(SlabIndex, usize)>,
    /// Consumed receive slabs awaiting batched re-posting.
    to_repost: Vec<SlabIndex>,
    /// Work requests of one re-post, kept between re-posts.
    repost_wrs: Vec<RecvWr>,
    /// Borrowed slabs dropped without release, reclaimed lazily.
    parked_slabs: Vec<SlabIndex>,
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
            .field("outstanding_sends", &inner.outstanding_sends)
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
                pending_reads: HashMap::new(),
                pending_writes: HashMap::new(),
                read_count: 0,
                write_count: 0,
                send_count: 0,
                since_signal: 0,
                outstanding_sends: 0,
                rx_ready: VecDeque::new(),
                to_repost: Vec::new(),
                repost_wrs: Vec::new(),
                parked_slabs: Vec::new(),
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
            let (qp, conn_id) = device.connect(sim, remote, qp_cfg, Vec::new())?;
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
            let qp = req.accept(sim, qp_cfg, Vec::new())?;
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

    /// Non-blocking message send. Returns `Ok(true)` if the message was
    /// accepted, `Ok(false)` if the channel is temporarily full
    /// (`OP_SEND` readiness will fire when space frees up).
    ///
    /// # Errors
    ///
    /// * [`ChannelError::NotConnected`] before establishment.
    /// * [`ChannelError::Broken`] after a failure.
    /// * [`ChannelError::MessageTooLarge`] if `data` exceeds the buffer
    ///   size.
    /// * [`ChannelError::Verbs`] on posting errors.
    pub fn write(&self, sim: &mut Simulator, data: &[u8]) -> Result<bool, ChannelError> {
        enum Path {
            Inline(SlabIndex, rdma_verbs::MemoryRegion),
            Pooled(SlabIndex, rdma_verbs::MemoryRegion),
            ZeroCopy(rdma_verbs::MemoryRegion),
        }
        let (qp, wr) = {
            let mut inner = self.inner.borrow_mut();
            if let Some(why) = &inner.broken {
                return Err(ChannelError::Broken(why.clone()));
            }
            if !inner.established {
                return Err(ChannelError::NotConnected);
            }
            if data.len() > inner.cfg.buffer_size {
                return Err(ChannelError::MessageTooLarge {
                    len: data.len(),
                    max: inner.cfg.buffer_size,
                });
            }
            if inner.outstanding_sends >= inner.cfg.send_buffers {
                inner.stats.send_stalls += 1;
                drop(inner);
                self.refresh_readiness(sim);
                return Ok(false);
            }
            let use_inline = data.len() <= inner.cfg.inline_threshold;
            let use_zero_copy = !use_inline
                && inner.cfg.zero_copy_send
                && data.len() > inner.cfg.small_copy_threshold;
            let path = if use_zero_copy {
                // Models registering the application's own buffer: the
                // payload is not copied on the send side; only a
                // registration-cache lookup is charged.
                let mr = inner.device.reg_mr(&inner.pd, data.len(), Access::NONE);
                mr.write(0, data).expect("fresh region fits payload");
                Path::ZeroCopy(mr)
            } else {
                let Some((idx, mr)) = inner.send_pool.lend() else {
                    inner.stats.send_stalls += 1;
                    drop(inner);
                    self.refresh_readiness(sim);
                    return Ok(false);
                };
                mr.write(0, data).expect("slab fits message");
                if use_inline {
                    Path::Inline(idx, mr)
                } else {
                    Path::Pooled(idx, mr)
                }
            };

            // CPU cost of the channel write: managed-runtime overhead plus
            // the copy into the registered buffer (skipped for zero copy,
            // where only the registration cache is consulted).
            {
                let host_ref = inner.device.net().host(inner.device.host());
                let mut h = host_ref.borrow_mut();
                let runtime = Nanos::from_nanos(h.cpu().runtime_io_ns);
                match &path {
                    Path::ZeroCopy(_) => {
                        let work = runtime + Nanos::from_nanos(inner.cfg.reg_cache_ns);
                        h.exec(sim.now(), inner.core, work);
                    }
                    _ => {
                        h.charge_user_copy(sim.now(), inner.core, data.len());
                        h.exec(sim.now(), inner.core, runtime);
                    }
                }
            }

            inner.since_signal += 1;
            let signaled = inner.since_signal >= inner.cfg.signal_interval;
            if signaled {
                inner.since_signal = 0;
                inner.stats.signaled_sends += 1;
            }
            let wr_id = inner.send_count;
            inner.send_count += 1;
            inner.outstanding_sends += 1;
            let (sge, buf, inline) = match path {
                Path::Inline(idx, mr) => {
                    inner.stats.inline_sends += 1;
                    (Sge::new(mr, 0, data.len()), SendBuf::Slab(idx), true)
                }
                Path::Pooled(idx, mr) => {
                    inner.stats.copied_sends += 1;
                    (Sge::new(mr, 0, data.len()), SendBuf::Slab(idx), false)
                }
                Path::ZeroCopy(mr) => {
                    inner.stats.zero_copy_sends += 1;
                    let sge = Sge::new(mr.clone(), 0, data.len());
                    (sge, SendBuf::Registered(mr), false)
                }
            };
            inner.inflight.push_back((wr_id, buf));
            inner.stats.msgs_sent += 1;
            inner.stats.bytes_sent += data.len() as u64;
            let mut wr = SendWr::send(WrId(wr_id), sge);
            if signaled {
                wr = wr.signaled();
            }
            if inline {
                wr = wr.with_inline();
            }
            (inner.qp.clone(), wr)
        };
        qp.post_send(sim, wr)?;
        self.refresh_readiness(sim);
        Ok(true)
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
        let (qp, wr, wr_id) = {
            let mut inner = self.inner.borrow_mut();
            if let Some(why) = &inner.broken {
                return Err(ChannelError::Broken(why.clone()));
            }
            if !inner.established {
                return Err(ChannelError::NotConnected);
            }
            let sink = inner
                .device
                .reg_mr(&inner.pd, len.max(1), Access::LOCAL_WRITE);
            let wr_id = READ_WR_BASE + inner.read_count;
            inner.read_count += 1;
            inner.stats.reads_posted += 1;
            let wr = SendWr::read(
                WrId(wr_id),
                Sge::new(sink.clone(), 0, len),
                RKey(rkey),
                remote_offset as usize,
            )
            .signaled();
            inner
                .pending_reads
                .insert(wr_id, PendingRead { sink, len, done });
            (inner.qp.clone(), wr, wr_id)
        };
        if let Err(e) = qp.post_send(sim, wr) {
            self.inner.borrow_mut().pending_reads.remove(&wr_id);
            return Err(e.into());
        }
        Ok(())
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
        let (qp, wr, wr_id) = {
            let mut inner = self.inner.borrow_mut();
            if let Some(why) = &inner.broken {
                return Err(ChannelError::Broken(why.clone()));
            }
            if !inner.established {
                return Err(ChannelError::NotConnected);
            }
            // Source registration models the zero-copy send path: the
            // application buffer is registered (cache lookup), not copied.
            let src = inner
                .device
                .reg_mr(&inner.pd, data.len().max(1), Access::NONE);
            src.write(0, data).expect("fresh region fits payload");
            {
                let host_ref = inner.device.net().host(inner.device.host());
                let mut h = host_ref.borrow_mut();
                let runtime = Nanos::from_nanos(h.cpu().runtime_io_ns);
                let work = runtime + Nanos::from_nanos(inner.cfg.reg_cache_ns);
                h.exec(sim.now(), inner.core, work);
            }
            let wr_id = WRITE_WR_BASE + inner.write_count;
            inner.write_count += 1;
            inner.stats.writes_posted += 1;
            inner.stats.write_bytes += data.len() as u64;
            let wr = SendWr::write_with_imm(
                WrId(wr_id),
                Sge::new(src.clone(), 0, data.len()),
                RKey(rkey),
                remote_offset as usize,
                imm,
            )
            .signaled();
            inner
                .pending_writes
                .insert(wr_id, PendingWrite { src, done });
            (inner.qp.clone(), wr, wr_id)
        };
        if let Err(e) = qp.post_send(sim, wr) {
            self.inner.borrow_mut().pending_writes.remove(&wr_id);
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

    /// Non-blocking message receive.
    ///
    /// Copies the message out of the pre-posted registered buffer (the
    /// receive-side copy of paper §IV) and batches the freed buffer for
    /// re-posting.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Broken`] after a queue-pair failure, or posting
    /// errors while re-posting receive buffers.
    pub fn read(&self, sim: &mut Simulator) -> Result<RecvOutcome, ChannelError> {
        if !self.inner.borrow().parked_slabs.is_empty() {
            self.return_slab(sim, None)?;
        }
        let data = {
            let mut inner = self.inner.borrow_mut();
            let Some((slab, len)) = inner.rx_ready.pop_front() else {
                if inner.eof {
                    return Ok(RecvOutcome::Eof);
                }
                if let Some(why) = &inner.broken {
                    return Err(ChannelError::Broken(why.clone()));
                }
                return Ok(RecvOutcome::WouldBlock);
            };
            {
                let host_ref = inner.device.net().host(inner.device.host());
                let mut h = host_ref.borrow_mut();
                let runtime = Nanos::from_nanos(h.cpu().runtime_io_ns);
                h.charge_user_copy(sim.now(), inner.core, len);
                h.exec(sim.now(), inner.core, runtime);
            }
            let data = inner
                .recv_pool
                .slab(slab)
                .read(0, len)
                .expect("received message fits its slab");
            inner.stats.msgs_received += 1;
            inner.stats.bytes_received += len as u64;
            inner.to_repost.push(slab);
            data
        };
        self.repost_if_full(sim)?;
        self.refresh_readiness(sim);
        Ok(RecvOutcome::Msg(data))
    }

    /// Returns a consumed receive slab (if any) to the batched re-posting
    /// queue, also reclaiming slabs parked by dropped [`BorrowedMsg`]s.
    fn return_slab(
        &self,
        sim: &mut Simulator,
        slab: Option<SlabIndex>,
    ) -> Result<(), ChannelError> {
        {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            if let Some(slab) = slab {
                inner.to_repost.push(slab);
            }
            // Reclaim any slabs parked by dropped `BorrowedMsg`s.
            inner.to_repost.append(&mut inner.parked_slabs);
        }
        self.repost_if_full(sim)?;
        self.refresh_readiness(sim);
        Ok(())
    }

    /// Zero-copy receive: borrows the next message in place instead of
    /// copying it out (paper §VII: "remove any additional buffer copy
    /// steps"). Charges only the runtime dispatch overhead.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Broken`] after a queue-pair failure.
    pub fn read_borrowed(&self, sim: &mut Simulator) -> Result<Option<BorrowedMsg>, ChannelError> {
        // Reclaim buffers parked by earlier dropped borrows.
        if !self.inner.borrow().parked_slabs.is_empty() {
            self.return_slab(sim, None)?;
        }
        let msg = {
            let mut inner = self.inner.borrow_mut();
            let Some((slab, len)) = inner.rx_ready.pop_front() else {
                if let Some(why) = &inner.broken {
                    return Err(ChannelError::Broken(why.clone()));
                }
                return Ok(None);
            };
            {
                let host_ref = inner.device.net().host(inner.device.host());
                let mut h = host_ref.borrow_mut();
                let runtime = Nanos::from_nanos(h.cpu().runtime_io_ns);
                h.exec(sim.now(), inner.core, runtime);
            }
            inner.stats.msgs_received += 1;
            inner.stats.bytes_received += len as u64;
            inner.stats.borrowed_reads += 1;
            BorrowedMsg {
                chan: self.clone(),
                slab,
                len,
                released: false,
            }
        };
        self.refresh_readiness(sim);
        Ok(Some(msg))
    }

    /// Drains this channel's completion queues, recycling send buffers and
    /// queueing received messages. Charges one poll call and returns how
    /// many completions it found. Registered channels have this driven by
    /// the selector's event manager; manual drivers call it directly.
    pub fn process_completions(&self, sim: &mut Simulator) -> usize {
        let mut finished_reads: Vec<(ReadDoneFn, Option<Vec<u8>>)> = Vec::new();
        let mut finished_writes: Vec<(WriteDoneFn, bool)> = Vec::new();
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
                // One-sided WRITE completions also carry their own id range
                // and resolve a pending-write callback outside the in-order
                // SEND pop. A non-success status here is the RNIC denying a
                // revoked permission (or a flush after one did).
                if wc.opcode == WcOpcode::RdmaWrite {
                    if let Some(pw) = inner.pending_writes.remove(&wc.wr_id.0) {
                        pw.src.invalidate();
                        finished_writes.push((pw.done, wc.status == WcStatus::Success));
                    }
                    if wc.status == WcStatus::WorkRequestFlushed {
                        inner.eof = true;
                    }
                    continue;
                }
                // One-sided READ completions carry their own id range and
                // resolve a pending-read callback; they never participate
                // in the in-order SEND pop below.
                if wc.opcode == WcOpcode::RdmaRead {
                    if let Some(pr) = inner.pending_reads.remove(&wc.wr_id.0) {
                        let data = (wc.status == WcStatus::Success)
                            .then(|| pr.sink.read(0, pr.len).ok())
                            .flatten();
                        if let Some(d) = &data {
                            inner.stats.read_bytes += d.len() as u64;
                        }
                        pr.sink.invalidate();
                        finished_reads.push((pr.done, data));
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
                            inner.outstanding_sends -= 1;
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
        for (done, data) in finished_reads {
            done(sim, data);
        }
        for (done, ok) in finished_writes {
            done(sim, ok);
        }
        let rang = !doorbells.is_empty();
        for (db, imm, len) in doorbells {
            db(sim, imm, len);
        }
        if rang {
            // Doorbell slabs were recycled without a read() call; flush the
            // repost batch if it filled up.
            self.return_slab(sim, None).ok();
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
                && inner.outstanding_sends < inner.cfg.send_buffers
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
