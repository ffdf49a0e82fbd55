//! Simulated TCP streams and listeners.
//!
//! The stream models the parts of kernel TCP that matter for the paper's
//! comparison:
//!
//! * **Two copies per message** — `write` copies user→socket buffer,
//!   `read` copies socket buffer→user, both charged to the caller's core
//!   (plus a kernel crossing and the managed-runtime I/O overhead).
//! * **Per-segment processing** — transmit and receive path CPU per MSS
//!   segment, and an interrupt per inbound segment.
//! * **Flow control** — a byte-credit window the size of the peer's receive
//!   buffer; senders stall when it is exhausted, which is what throttles
//!   messages larger than the socket buffers (visible in Figure 4's
//!   mid-range payloads).
//!
//! * **Reliability** — go-back-N retransmission: data segments carry
//!   sequence numbers and are acknowledged cumulatively; the oldest
//!   unacknowledged segment is re-sent after [`TcpModel::rto`], SYNs are
//!   retransmitted during connect, window credit is a cumulative counter
//!   (so a lost credit update is repaired by the next one), and the
//!   receiver suppresses duplicates. After
//!   [`TcpModel::max_retransmits`] consecutive timeouts without progress
//!   the stream is declared broken and surfaces EOF, which transports use
//!   to trigger reconnection.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use simnet::{Addr, CoreId, Counters, CpuModel, EventId, HostId, Nanos, Network, Simulator};

use crate::model::TcpModel;
use crate::{KeyId, Ops, Selector};

/// Errors surfaced by socket operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockError {
    /// Operation requires an established connection.
    NotConnected,
    /// The stream was closed locally.
    Closed,
    /// The port is already in use.
    AddrInUse,
}

impl fmt::Display for SockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SockError::NotConnected => write!(f, "socket is not connected"),
            SockError::Closed => write!(f, "socket is closed"),
            SockError::AddrInUse => write!(f, "address already in use"),
        }
    }
}

impl std::error::Error for SockError {}

/// Result of a non-blocking read: [`TcpStream::read`] hands over the bytes,
/// [`TcpStream::read_into`] how many it appended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome<T = Vec<u8>> {
    /// Bytes were available and copied out.
    Data(T),
    /// No bytes available right now.
    WouldBlock,
    /// The peer closed and the buffer is drained.
    Eof,
}

/// Per-stream statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Payload bytes accepted by `write`.
    pub bytes_written: u64,
    /// Payload bytes returned by `read`.
    pub bytes_read: u64,
    /// Data segments transmitted.
    pub segments_tx: u64,
    /// Data segments received.
    pub segments_rx: u64,
    /// Times `write` could not accept any bytes (send buffer full).
    pub write_stalls: u64,
    /// Segments and SYNs re-sent after a retransmission timeout. SYN
    /// retries are counted only here: the registry's
    /// `tcp.<addr>.retransmits` counts data segments alone.
    pub retransmits: u64,
    /// Duplicate data segments suppressed by receive sequencing.
    pub dup_segments: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamState {
    Connecting,
    Established,
    Closed,
}

#[derive(Clone)]
pub(crate) enum TcpSegment {
    Syn {
        reply_to: Addr,
    },
    SynAck {
        data_port: Addr,
        credit: usize,
    },
    /// Sequenced payload; `seq` counts segments, not bytes.
    Data {
        seq: u64,
        bytes: Vec<u8>,
    },
    /// Cumulative acknowledgement: every segment with `seq < upto` arrived.
    Ack {
        upto: u64,
    },
    /// Cumulative flow-control update: total payload bytes the receiving
    /// application has consumed so far. Monotonic, so losing one update
    /// costs nothing once the next arrives.
    Credit {
        total_read: u64,
    },
    Fin,
}

// A frame in flight is an event closure holding the network handle (8 B),
// the frame header (24 B) and this segment by value, stored in place in a
// 96-byte event slot. A segment is 32 B; one over 64 B would box every TCP
// frame's event.
const _: () = assert!(std::mem::size_of::<TcpSegment>() <= 64);

simnet::metric_names! {
    /// Counters of one socket, under `tcp.<addr>.`. `Retransmits` counts
    /// data segments alone; SYN retries appear only in
    /// [`TcpStats::retransmits`].
    enum TcpCounter {
        Syscalls => "syscalls",
        Copies => "copies",
        Retransmits => "retransmits",
    }
}

struct StreamInner {
    net: Network,
    host: HostId,
    core: CoreId,
    model: TcpModel,
    cpu: CpuModel,
    local: Addr,
    remote: Option<Addr>,
    state: StreamState,
    send_buf: VecDeque<u8>,
    recv_buf: VecDeque<u8>,
    /// Capacity of the peer's receive buffer (window size).
    peer_window: usize,
    /// Highest cumulative read counter the peer has reported.
    peer_total_read: u64,
    /// Cumulative payload bytes moved from `send_buf` onto the wire.
    /// `peer_window + peer_total_read - bytes_pushed` is the open window.
    bytes_pushed: u64,
    /// Next data sequence number to assign.
    snd_next: u64,
    /// Transmitted-but-unacknowledged segments, oldest first.
    unacked: VecDeque<(u64, Vec<u8>)>,
    /// Armed RTO (or SYN-retry) timer.
    rto_timer: Option<EventId>,
    /// Consecutive timeouts without acknowledged progress.
    rto_strikes: u32,
    /// Next in-order data sequence number expected.
    rcv_next: u64,
    /// Out-of-order segments parked until the gap fills.
    rcv_ooo: BTreeMap<u64, Vec<u8>>,
    /// Cumulative payload bytes consumed by the local application
    /// (advertised to the peer in `Credit` updates).
    total_read: u64,
    eof: bool,
    connect_ready: bool,
    reg: Option<(Selector, KeyId)>,
    stats: TcpStats,
    counters: Counters<TcpCounter>,
}

impl StreamInner {
    /// Records one syscall + one user/kernel buffer copy under the
    /// per-socket registry keys (`tcp.{addr}.syscalls` /
    /// `tcp.{addr}.copies`). The host-level counters are bumped by the
    /// `Host::charge_*` helpers at the charge site.
    fn note_crossing(&mut self, copies: u64) {
        self.counters[TcpCounter::Syscalls].incr();
        self.counters[TcpCounter::Copies].add(copies);
    }
}

/// A non-blocking simulated TCP stream.
#[derive(Clone)]
pub struct TcpStream {
    inner: Rc<RefCell<StreamInner>>,
}

impl fmt::Debug for TcpStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TcpStream")
            .field("local", &inner.local)
            .field("remote", &inner.remote)
            .field("state", &inner.state)
            .field("send_buf", &inner.send_buf.len())
            .field("recv_buf", &inner.recv_buf.len())
            .field("unacked", &inner.unacked.len())
            .finish()
    }
}

impl TcpStream {
    #[allow(clippy::too_many_arguments)]
    fn create(
        net: &Network,
        host: HostId,
        core: CoreId,
        model: TcpModel,
        local: Addr,
        remote: Option<Addr>,
        state: StreamState,
        peer_window: usize,
    ) -> TcpStream {
        let cpu = net.host(host).borrow().cpu().clone();
        let stream = TcpStream {
            inner: Rc::new(RefCell::new(StreamInner {
                net: net.clone(),
                host,
                core,
                model,
                cpu,
                local,
                remote,
                state,
                send_buf: VecDeque::new(),
                recv_buf: VecDeque::new(),
                peer_window,
                peer_total_read: 0,
                bytes_pushed: 0,
                snd_next: 0,
                unacked: VecDeque::new(),
                rto_timer: None,
                rto_strikes: 0,
                rcv_next: 0,
                rcv_ooo: BTreeMap::new(),
                total_read: 0,
                eof: false,
                connect_ready: false,
                reg: None,
                stats: TcpStats::default(),
                counters: net.metrics().counters(&format!("tcp.{local}.")),
            })),
        };
        // The network outlives the socket and must not keep it alive: a
        // socket nobody holds any more is a closed port.
        let s = Rc::downgrade(&stream.inner);
        net.bind(
            local,
            Box::new(move |sim, frame| {
                let Some(s) = s.upgrade().map(|inner| TcpStream { inner }) else {
                    return;
                };
                let corrupted = frame.corrupted;
                if let Ok(mut seg) = frame.into_payload::<TcpSegment>() {
                    // A fault-corrupted frame damages the payload it
                    // carries; the bytes still flow upward, where
                    // application-level integrity checks (the BFT MACs)
                    // must catch them.
                    if corrupted {
                        if let TcpSegment::Data { bytes, .. } = &mut seg {
                            if let Some(byte) = bytes.last_mut() {
                                *byte ^= 0xff;
                            }
                        }
                    }
                    s.handle_segment(sim, seg);
                }
            }),
        );
        stream
    }

    /// Initiates a non-blocking connection to a [`TcpListener`] at
    /// `remote`. Readiness `OP_CONNECT` fires when established.
    pub fn connect(
        sim: &mut Simulator,
        net: &Network,
        host: HostId,
        core: CoreId,
        model: TcpModel,
        remote: Addr,
    ) -> TcpStream {
        let local = net.ephemeral_port(host);
        let stream = TcpStream::create(
            net,
            host,
            core,
            model.clone(),
            local,
            Some(remote),
            StreamState::Connecting,
            0,
        );
        // Handshake cost, then SYN on the wire.
        let done = {
            let inner = stream.inner.borrow();
            inner.net.host(host).borrow_mut().exec(
                sim.now(),
                core,
                Nanos::from_nanos(model.connect_ns),
            )
        };
        let s = stream.clone();
        sim.schedule_at(done, move |sim| {
            let (net, local) = {
                let inner = s.inner.borrow();
                (inner.net.clone(), inner.local)
            };
            net.send(sim, local, remote, 40, TcpSegment::Syn { reply_to: local });
            s.arm_syn_retry(sim);
        });
        stream
    }

    /// Arms the SYN retransmission timer while the handshake is in flight.
    fn arm_syn_retry(&self, sim: &mut Simulator) {
        let rto = self.inner.borrow().model.rto;
        let s = self.clone();
        let id = sim.schedule_in(rto, move |sim| s.syn_retry_fire(sim));
        self.inner.borrow_mut().rto_timer = Some(id);
    }

    fn syn_retry_fire(&self, sim: &mut Simulator) {
        let resend = {
            let mut inner = self.inner.borrow_mut();
            inner.rto_timer = None;
            if inner.state != StreamState::Connecting {
                return;
            }
            if inner.rto_strikes >= inner.model.max_retransmits {
                // The listener is unreachable; fail the connect attempt.
                inner.eof = true;
                inner.connect_ready = true;
                None
            } else {
                inner.rto_strikes += 1;
                // A SYN retry: counted in the stats alone (see `TcpCounter`).
                inner.stats.retransmits += 1;
                let listener = inner.remote.expect("connecting stream has a target");
                Some((inner.net.clone(), inner.local, listener))
            }
        };
        match resend {
            Some((net, local, listener)) => {
                net.send(
                    sim,
                    local,
                    listener,
                    40,
                    TcpSegment::Syn { reply_to: local },
                );
                self.arm_syn_retry(sim);
            }
            None => self.refresh_readiness(sim),
        }
    }

    /// The local address.
    pub fn local_addr(&self) -> Addr {
        self.inner.borrow().local
    }

    /// True once the connection is established.
    pub fn is_established(&self) -> bool {
        self.inner.borrow().state == StreamState::Established
    }

    /// Per-stream statistics.
    pub fn stats(&self) -> TcpStats {
        self.inner.borrow().stats
    }

    /// Free space in the send buffer (bytes a `write` would accept now).
    pub fn free_send_space(&self) -> usize {
        let inner = self.inner.borrow();
        inner.model.send_buf - inner.send_buf.len()
    }

    /// Bytes currently readable without blocking.
    pub fn available(&self) -> usize {
        self.inner.borrow().recv_buf.len()
    }

    /// Registers the stream with the selector thread on its core for the
    /// given interest ops. Current readiness is reported immediately.
    pub fn register(&self, sim: &mut Simulator, selector: &Selector, interest: Ops) -> KeyId {
        let key = selector.register(self.inner.borrow().core, interest);
        {
            let mut inner = self.inner.borrow_mut();
            inner.reg = Some((selector.clone(), key));
        }
        self.refresh_readiness(sim);
        key
    }

    fn refresh_readiness(&self, sim: &mut Simulator) {
        let (reg, readable, writable, connectable) = {
            let inner = self.inner.borrow();
            let readable = !inner.recv_buf.is_empty() || inner.eof;
            let writable = inner.state == StreamState::Established
                && inner.send_buf.len() < inner.model.send_buf;
            (inner.reg.clone(), readable, writable, inner.connect_ready)
        };
        if let Some((sel, key)) = reg {
            sel.set_ready(sim, key, Ops::READ, readable);
            sel.set_ready(sim, key, Ops::WRITE, writable);
            sel.set_ready(sim, key, Ops::CONNECT, connectable);
        }
    }

    /// Consumes the one-shot connect-ready flag (Java's `finishConnect`).
    /// Returns true if the connection is established.
    pub fn finish_connect(&self, sim: &mut Simulator) -> bool {
        let established = {
            let mut inner = self.inner.borrow_mut();
            inner.connect_ready = false;
            inner.state == StreamState::Established
        };
        self.refresh_readiness(sim);
        established
    }

    /// Non-blocking write: copies as much of `data` as fits in the send
    /// buffer (possibly zero bytes) and returns the accepted count.
    ///
    /// Charges one kernel crossing, the managed-runtime I/O overhead, and
    /// the user→kernel copy for the accepted bytes.
    ///
    /// # Errors
    ///
    /// [`SockError::NotConnected`] before establishment,
    /// [`SockError::Closed`] after close.
    pub fn write(&self, sim: &mut Simulator, data: &[u8]) -> Result<usize, SockError> {
        let (n, pump_at) = {
            let mut inner = self.inner.borrow_mut();
            match inner.state {
                StreamState::Connecting => return Err(SockError::NotConnected),
                StreamState::Closed => return Err(SockError::Closed),
                StreamState::Established => {}
            }
            let free = inner.model.send_buf - inner.send_buf.len();
            let n = free.min(data.len());
            if n == 0 {
                inner.stats.write_stalls += 1;
                return Ok(0);
            }
            let host = inner.host;
            let core = inner.core;
            let done = {
                let host_ref = inner.net.host(host);
                let mut h = host_ref.borrow_mut();
                h.charge_syscall(sim.now(), core);
                h.charge_kernel_copy(sim.now(), core, n);
                h.exec(sim.now(), core, Nanos::from_nanos(inner.cpu.runtime_io_ns))
            };
            inner.note_crossing(1);
            inner.send_buf.extend(&data[..n]);
            inner.stats.bytes_written += n as u64;
            (n, done)
        };
        let s = self.clone();
        sim.schedule_at(pump_at, move |sim| s.pump(sim));
        self.refresh_readiness(sim);
        Ok(n)
    }

    /// Transmit pump: pushes segments onto the wire within the credit
    /// window, charging per-segment kernel cost. Each segment is kept in
    /// the unacked queue until cumulatively acknowledged.
    fn pump(&self, sim: &mut Simulator) {
        loop {
            let (seq, seg_bytes, send_at) = {
                let mut inner = self.inner.borrow_mut();
                if inner.state != StreamState::Established {
                    break;
                }
                let open = (inner.peer_window as u64 + inner.peer_total_read)
                    .saturating_sub(inner.bytes_pushed) as usize;
                let window = open.min(inner.send_buf.len());
                if window == 0 {
                    break;
                }
                let n = window.min(inner.model.mss);
                // Segment buffers recycle through the network's pool: one
                // for the wire, one for the unacked retransmission copy.
                let pool = inner.net.buffer_pool();
                let mut bytes = pool.take(n);
                bytes.extend(inner.send_buf.drain(..n));
                inner.bytes_pushed += n as u64;
                let seq = inner.snd_next;
                inner.snd_next += 1;
                let mut unacked_copy = pool.take(n);
                unacked_copy.extend_from_slice(&bytes);
                inner.unacked.push_back((seq, unacked_copy));
                inner.stats.segments_tx += 1;
                let work = Nanos::from_nanos(inner.model.segment_tx_ns);
                let host = inner.host;
                let core = inner.core;
                let done = inner
                    .net
                    .host(host)
                    .borrow_mut()
                    .exec(sim.now(), core, work);
                (seq, bytes, done)
            };
            let (net, local, remote, header) = {
                let inner = self.inner.borrow();
                (
                    inner.net.clone(),
                    inner.local,
                    inner.remote.expect("established stream has a peer"),
                    inner.model.header_bytes,
                )
            };
            let wire = seg_bytes.len() + header;
            // Schedule the wire transmission when the kernel work is done.
            sim.schedule_at(send_at, move |sim| {
                net.send(
                    sim,
                    local,
                    remote,
                    wire,
                    TcpSegment::Data {
                        seq,
                        bytes: seg_bytes,
                    },
                );
            });
        }
        let needs_timer = {
            let inner = self.inner.borrow();
            inner.rto_timer.is_none()
                && !inner.unacked.is_empty()
                && inner.state == StreamState::Established
        };
        if needs_timer {
            self.arm_rto(sim);
        }
        // Draining the send buffer may have made the stream writable again.
        self.refresh_readiness(sim);
    }

    /// Arms the retransmission timer for the oldest unacked segment.
    fn arm_rto(&self, sim: &mut Simulator) {
        let rto = self.inner.borrow().model.rto;
        let s = self.clone();
        let id = sim.schedule_in(rto, move |sim| s.rto_fire(sim));
        self.inner.borrow_mut().rto_timer = Some(id);
    }

    /// RTO expired: go-back-N resend of the oldest unacked segment, or
    /// declare the stream broken once the strike budget is spent.
    fn rto_fire(&self, sim: &mut Simulator) {
        enum Act {
            Resend(Network, Addr, Addr, u64, Vec<u8>, usize),
            GiveUp,
            Idle,
        }
        let act = {
            let mut inner = self.inner.borrow_mut();
            inner.rto_timer = None;
            if inner.state != StreamState::Established || inner.unacked.is_empty() {
                Act::Idle
            } else if inner.rto_strikes >= inner.model.max_retransmits {
                // No progress across the whole strike budget: the peer is
                // gone. Surface as EOF (kernel ETIMEDOUT analogue) so the
                // application's disconnect handling runs.
                inner.eof = true;
                Act::GiveUp
            } else {
                inner.rto_strikes += 1;
                inner.stats.retransmits += 1;
                inner.counters[TcpCounter::Retransmits].incr();
                let pool = inner.net.buffer_pool();
                let (seq, bytes) = {
                    let (seq, front) = inner.unacked.front().expect("checked non-empty");
                    let mut copy = pool.take(front.len());
                    copy.extend_from_slice(front);
                    (*seq, copy)
                };
                Act::Resend(
                    inner.net.clone(),
                    inner.local,
                    inner.remote.expect("established stream has a peer"),
                    seq,
                    bytes,
                    inner.model.header_bytes,
                )
            }
        };
        match act {
            Act::Resend(net, local, remote, seq, bytes, header) => {
                let wire = bytes.len() + header;
                net.send(sim, local, remote, wire, TcpSegment::Data { seq, bytes });
                self.arm_rto(sim);
            }
            Act::GiveUp => self.refresh_readiness(sim),
            Act::Idle => {}
        }
    }

    /// Non-blocking read of up to `max` bytes.
    ///
    /// Charges one kernel crossing, the managed-runtime overhead, and the
    /// kernel→user copy; returns freed window credit to the peer.
    ///
    /// # Errors
    ///
    /// [`SockError::Closed`] if the stream was closed locally.
    pub fn read(&self, sim: &mut Simulator, max: usize) -> Result<ReadOutcome, SockError> {
        let mut data = Vec::new();
        Ok(match self.read_into(sim, max, &mut data)? {
            ReadOutcome::Data(_) => ReadOutcome::Data(data),
            ReadOutcome::WouldBlock => ReadOutcome::WouldBlock,
            ReadOutcome::Eof => ReadOutcome::Eof,
        })
    }

    /// [`TcpStream::read`] appending to `buf` instead of into a fresh
    /// buffer, with the same charges; `Data` holds the byte count.
    ///
    /// # Errors
    ///
    /// [`SockError::Closed`] if the stream was closed locally.
    pub fn read_into(
        &self,
        sim: &mut Simulator,
        max: usize,
        buf: &mut Vec<u8>,
    ) -> Result<ReadOutcome<usize>, SockError> {
        let (n, credit_at) = {
            let mut inner = self.inner.borrow_mut();
            if inner.state == StreamState::Closed {
                return Err(SockError::Closed);
            }
            if inner.recv_buf.is_empty() {
                return Ok(if inner.eof {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::WouldBlock
                });
            }
            let n = max.min(inner.recv_buf.len());
            let host = inner.host;
            let core = inner.core;
            let done = {
                let host_ref = inner.net.host(host);
                let mut h = host_ref.borrow_mut();
                h.charge_syscall(sim.now(), core);
                h.charge_kernel_copy(sim.now(), core, n);
                h.exec(sim.now(), core, Nanos::from_nanos(inner.cpu.runtime_io_ns))
            };
            inner.note_crossing(1);
            buf.extend(inner.recv_buf.drain(..n));
            inner.stats.bytes_read += n as u64;
            inner.total_read += n as u64;
            (n, done)
        };
        // Return window credit to the peer (a cumulative counter, so a
        // lost update is repaired by whichever later one gets through).
        let (net, local, remote, ack_bytes, total_read) = {
            let inner = self.inner.borrow();
            (
                inner.net.clone(),
                inner.local,
                inner.remote,
                inner.model.ack_bytes,
                inner.total_read,
            )
        };
        if let Some(remote) = remote {
            sim.schedule_at(credit_at, move |sim| {
                net.send(
                    sim,
                    local,
                    remote,
                    ack_bytes,
                    TcpSegment::Credit { total_read },
                );
            });
        }
        self.refresh_readiness(sim);
        Ok(ReadOutcome::Data(n))
    }

    /// Closes the stream, notifying the peer (FIN).
    pub fn close(&self, sim: &mut Simulator) {
        let (net, local, remote, ack_bytes, already_closed) = {
            let mut inner = self.inner.borrow_mut();
            let already = inner.state == StreamState::Closed;
            inner.state = StreamState::Closed;
            (
                inner.net.clone(),
                inner.local,
                inner.remote,
                inner.model.ack_bytes,
                already,
            )
        };
        if already_closed {
            return;
        }
        if let Some(remote) = remote {
            net.send(sim, local, remote, ack_bytes, TcpSegment::Fin);
        }
        net.unbind(local);
    }

    fn handle_segment(&self, sim: &mut Simulator, seg: TcpSegment) {
        match seg {
            TcpSegment::SynAck { data_port, credit } => {
                let timer = {
                    let mut inner = self.inner.borrow_mut();
                    if inner.state != StreamState::Connecting {
                        // Duplicate SYN-ACK from a retransmitted SYN.
                        return;
                    }
                    inner.remote = Some(data_port);
                    inner.peer_window = credit;
                    inner.state = StreamState::Established;
                    inner.connect_ready = true;
                    inner.rto_strikes = 0;
                    inner.rto_timer.take()
                };
                if let Some(id) = timer {
                    sim.cancel(id);
                }
                self.refresh_readiness(sim);
                // Anything already buffered can flow now.
                self.pump(sim);
            }
            TcpSegment::Data { seq, bytes } => {
                let done = {
                    let mut inner = self.inner.borrow_mut();
                    if inner.state != StreamState::Established {
                        return;
                    }
                    inner.stats.segments_rx += 1;
                    let host = inner.host;
                    let core = inner.core;
                    let host_ref = inner.net.host(host);
                    let mut h = host_ref.borrow_mut();
                    h.charge_interrupt(sim.now(), core);
                    h.exec(
                        sim.now(),
                        core,
                        Nanos::from_nanos(inner.model.segment_rx_ns),
                    )
                };
                let s = self.clone();
                sim.schedule_at(done, move |sim| {
                    let (net, local, remote, ack_bytes, upto) = {
                        let mut inner = s.inner.borrow_mut();
                        let pool = inner.net.buffer_pool();
                        if seq == inner.rcv_next {
                            inner.recv_buf.extend(bytes.iter());
                            pool.put(bytes);
                            inner.rcv_next += 1;
                            while let Some(parked) = {
                                let next = inner.rcv_next;
                                inner.rcv_ooo.remove(&next)
                            } {
                                inner.recv_buf.extend(parked.iter());
                                pool.put(parked);
                                inner.rcv_next += 1;
                            }
                        } else if seq > inner.rcv_next {
                            if let std::collections::btree_map::Entry::Vacant(e) =
                                inner.rcv_ooo.entry(seq)
                            {
                                e.insert(bytes);
                            } else {
                                inner.stats.dup_segments += 1;
                                pool.put(bytes);
                            }
                        } else {
                            // Already delivered: the cumulative ack
                            // below repairs the sender's view.
                            inner.stats.dup_segments += 1;
                            pool.put(bytes);
                        }
                        (
                            inner.net.clone(),
                            inner.local,
                            inner.remote,
                            inner.model.ack_bytes,
                            inner.rcv_next,
                        )
                    };
                    if let Some(remote) = remote {
                        net.send(sim, local, remote, ack_bytes, TcpSegment::Ack { upto });
                    }
                    s.refresh_readiness(sim);
                });
            }
            TcpSegment::Ack { upto } => {
                let (timer, rearm) = {
                    let mut inner = self.inner.borrow_mut();
                    let pool = inner.net.buffer_pool();
                    let before = inner.unacked.len();
                    while inner.unacked.front().is_some_and(|(s, _)| *s < upto) {
                        if let Some((_, buf)) = inner.unacked.pop_front() {
                            pool.put(buf);
                        }
                    }
                    if inner.unacked.len() == before {
                        // No progress (stale or duplicate ack): leave the
                        // running timer alone.
                        (None, false)
                    } else {
                        inner.rto_strikes = 0;
                        (inner.rto_timer.take(), !inner.unacked.is_empty())
                    }
                };
                if let Some(id) = timer {
                    sim.cancel(id);
                }
                if rearm {
                    self.arm_rto(sim);
                }
            }
            TcpSegment::Credit { total_read } => {
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.peer_total_read = inner.peer_total_read.max(total_read);
                }
                self.pump(sim);
                self.refresh_readiness(sim);
            }
            TcpSegment::Fin => {
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.eof = true;
                }
                self.refresh_readiness(sim);
            }
            TcpSegment::Syn { .. } => {
                debug_assert!(false, "SYN delivered to a data port");
            }
        }
    }
}

struct ListenerInner {
    net: Network,
    host: HostId,
    core: CoreId,
    model: TcpModel,
    addr: Addr,
    pending: VecDeque<TcpStream>,
    /// Connections already accepted, keyed by the client's reply address:
    /// a retransmitted SYN re-sends the SYN-ACK instead of spawning a
    /// second server-side stream.
    accepted: HashMap<Addr, Addr>,
    reg: Option<(Selector, KeyId)>,
}

/// A listening TCP socket.
#[derive(Clone)]
pub struct TcpListener {
    inner: Rc<RefCell<ListenerInner>>,
}

impl fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TcpListener")
            .field("addr", &inner.addr)
            .field("pending", &inner.pending.len())
            .finish()
    }
}

impl TcpListener {
    /// Binds a listener on `host:port`. Accepted streams are charged to
    /// `core`.
    ///
    /// # Errors
    ///
    /// [`SockError::AddrInUse`] if the port is taken.
    pub fn bind(
        net: &Network,
        host: HostId,
        port: u32,
        core: CoreId,
        model: TcpModel,
    ) -> Result<TcpListener, SockError> {
        let addr = Addr::new(host, port);
        if net.is_bound(addr) {
            return Err(SockError::AddrInUse);
        }
        let listener = TcpListener {
            inner: Rc::new(RefCell::new(ListenerInner {
                net: net.clone(),
                host,
                core,
                model,
                addr,
                pending: VecDeque::new(),
                accepted: HashMap::new(),
                reg: None,
            })),
        };
        let l = Rc::downgrade(&listener.inner);
        net.bind(
            addr,
            Box::new(move |sim, frame| {
                let Some(l) = l.upgrade().map(|inner| TcpListener { inner }) else {
                    return;
                };
                if let Ok(TcpSegment::Syn { reply_to }) = frame.into_payload::<TcpSegment>() {
                    l.handle_syn(sim, reply_to);
                }
            }),
        );
        Ok(listener)
    }

    /// The bound address.
    pub fn local_addr(&self) -> Addr {
        self.inner.borrow().addr
    }

    /// Registers the listener for `OP_ACCEPT` readiness with the selector
    /// thread on its core.
    pub fn register(&self, sim: &mut Simulator, selector: &Selector) -> KeyId {
        let key = selector.register(self.inner.borrow().core, Ops::ACCEPT);
        {
            let mut inner = self.inner.borrow_mut();
            inner.reg = Some((selector.clone(), key));
        }
        let pending = !self.inner.borrow().pending.is_empty();
        if pending {
            selector.set_ready(sim, key, Ops::ACCEPT, true);
        }
        key
    }

    /// Accepts a pending connection, if any (non-blocking), charged to
    /// the listener's core.
    pub fn accept(&self, sim: &mut Simulator) -> Option<TcpStream> {
        let core = self.inner.borrow().core;
        self.accept_on(sim, core)
    }

    /// [`TcpListener::accept`], moving the stream's CPU work — its reads
    /// and writes and its kernel-side segment and interrupt charges — to
    /// `core` (the core of the selector that will serve it).
    pub fn accept_on(&self, sim: &mut Simulator, core: CoreId) -> Option<TcpStream> {
        let (stream, reg, still_pending) = {
            let mut inner = self.inner.borrow_mut();
            let s = inner.pending.pop_front();
            (s, inner.reg.clone(), !inner.pending.is_empty())
        };
        if let Some((sel, key)) = reg {
            sel.set_ready(sim, key, Ops::ACCEPT, still_pending);
        }
        if let Some(stream) = &stream {
            stream.inner.borrow_mut().core = core;
        }
        stream
    }

    fn handle_syn(&self, sim: &mut Simulator, reply_to: Addr) {
        // A retransmitted SYN for an already-accepted connection means the
        // SYN-ACK was lost: re-send it, do not accept a second stream.
        let known = {
            let inner = self.inner.borrow();
            inner
                .accepted
                .get(&reply_to)
                .map(|port| (inner.net.clone(), *port, inner.model.recv_buf))
        };
        if let Some((net, data_port, credit)) = known {
            net.send(
                sim,
                data_port,
                reply_to,
                40,
                TcpSegment::SynAck { data_port, credit },
            );
            return;
        }
        let (net, host, core, model, local_port) = {
            let inner = self.inner.borrow();
            (
                inner.net.clone(),
                inner.host,
                inner.core,
                inner.model.clone(),
                inner.net.ephemeral_port(inner.host),
            )
        };
        let credit = model.recv_buf;
        let stream = TcpStream::create(
            &net,
            host,
            core,
            model.clone(),
            local_port,
            Some(reply_to),
            StreamState::Established,
            // The client's initial credit towards us is our recv_buf; our
            // credit towards the client is its recv_buf (symmetric model).
            model.recv_buf,
        );
        {
            let mut inner = self.inner.borrow_mut();
            inner.pending.push_back(stream);
            inner.accepted.insert(reply_to, local_port);
        }
        net.send(
            sim,
            local_port,
            reply_to,
            40,
            TcpSegment::SynAck {
                data_port: local_port,
                credit,
            },
        );
        let reg = self.inner.borrow().reg.clone();
        if let Some((sel, key)) = reg {
            sel.set_ready(sim, key, Ops::ACCEPT, true);
        }
    }

    /// Stops listening.
    pub fn close(&self) {
        let inner = self.inner.borrow();
        inner.net.unbind(inner.addr);
    }
}
