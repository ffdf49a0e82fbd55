//! The outside-in trace: spans recorded from the benchmark's own files at
//! the reptor↔transport boundary and around the driver's calls.
//!
//! A traced lap wraps every node's `Rc<dyn Transport>` in a
//! [`TracedTransport`]. The wrapper adds no simulator events, so a traced
//! lap is bit-identical to an untraced one in simulated time (the run
//! fails if it is not); what tracing costs in host time is reported as
//! `trace.overhead_share`.
//!
//! Two clocks per span: host nanoseconds since the tracer was created and
//! simulated nanoseconds. Host-time spans nest (driver `step` → delivery
//! handler → `send`), and a span's *self* time is its duration minus its
//! children's. Transit spans (send → deliver, matched FIFO per directed
//! pair) and one-sided READ/WRITE spans live on the simulated clock only.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use reptor::{
    DeliveryFn, LaneDeliveryFn, NodeId, SignedMessage, SlotDoorbellFn, SlotRegion, SlotWriteFn,
    StateOffer, StateReadFn, Transport,
};
use simnet::Simulator;

/// Spans kept for the trace file. Aggregates cover every span; the file
/// holds the first `SPAN_CAP` so a 200 000-message lap stays loadable.
pub const SPAN_CAP: usize = 200_000;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `Transport::send` (host time inside the comm stack's send path).
    Send,
    /// A delivery callback (host time inside a replica/client handler).
    Deliver,
    /// Send → deliver in simulated time.
    Transit,
    /// One-sided READ, issue → completion in simulated time.
    OneSidedRead,
    /// One-sided slot WRITE, issue → completion in simulated time.
    SlotWrite,
    /// A driver call (`submit`, `get`, `put`, `step`).
    Driver,
}

impl SpanKind {
    fn category(self) -> &'static str {
        match self {
            SpanKind::Send => "transport.send",
            SpanKind::Deliver => "handler",
            SpanKind::Transit => "transit",
            SpanKind::OneSidedRead => "onesided.read",
            SpanKind::SlotWrite => "onesided.write",
            SpanKind::Driver => "driver",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Sequential id (also counts spans beyond the cap).
    pub id: u64,
    /// The span that caused this one, if known.
    pub parent: Option<u64>,
    /// What it measures.
    pub kind: SpanKind,
    /// Display name.
    pub name: &'static str,
    /// Node the span ran on (the receiver for transit spans).
    pub node: u32,
    /// The other end (sender for deliveries/transit, target for sends).
    pub peer: u32,
    /// Host start, ns since the tracer's epoch (0 for sim-only spans).
    pub host_start_ns: u64,
    /// Host duration in ns (0 for sim-only spans).
    pub host_dur_ns: u64,
    /// Simulated start, ns.
    pub sim_start_ns: u64,
    /// Simulated end, ns.
    pub sim_end_ns: u64,
    /// Payload bytes, where the span carries any.
    pub bytes: u64,
    /// Agreement sequence number peeked from the wire header, if any.
    pub seq: Option<u64>,
}

/// A message handed to a transport and not yet seen at its receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Simulated send instant, ns.
    pub sent_ns: u64,
    /// Message length in bytes.
    pub len: usize,
    /// The `send` span, if it was recorded.
    pub send_span: Option<u64>,
}

/// Matches deliveries to sends, FIFO per directed `(from, to)` pair.
///
/// Transports deliver in order per pair, so the head of the queue is the
/// message being delivered. A transport may drop messages (a bounded
/// holding pen during reconnects): on a length mismatch the matcher skips
/// forward to the first queued send of the delivered length and counts
/// what it skipped as lost.
#[derive(Debug, Default)]
pub struct TransitMatcher {
    queues: HashMap<(u32, u32), VecDeque<InFlight>>,
    lost: u64,
    unmatched: u64,
}

impl TransitMatcher {
    /// Records a send.
    pub fn sent(&mut self, from: u32, to: u32, msg: InFlight) {
        self.queues.entry((from, to)).or_default().push_back(msg);
    }

    /// Resolves a delivery of `len` bytes to the send that caused it.
    pub fn delivered(&mut self, from: u32, to: u32, len: usize) -> Option<InFlight> {
        let Some(q) = self.queues.get_mut(&(from, to)) else {
            self.unmatched += 1;
            return None;
        };
        match q.iter().position(|m| m.len == len) {
            Some(at) => {
                self.lost += at as u64;
                q.drain(..at);
                q.pop_front()
            }
            None => {
                self.unmatched += 1;
                None
            }
        }
    }

    /// Sends skipped over because a later one matched first.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Deliveries no queued send accounts for.
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// Sends still awaiting delivery.
    #[cfg(test)]
    pub fn in_flight(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    kind: SpanKind,
    name: &'static str,
    node: u32,
    peer: u32,
    host_start_ns: u64,
    sim_start_ns: u64,
    bytes: u64,
    seq: Option<u64>,
    child_ns: u64,
}

/// Sum and count of one quantity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Number of observations.
    pub count: u64,
    /// Their sum.
    pub sum: u64,
}

impl Tally {
    fn add(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
    }

    fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Everything the per-layer report needs from a traced lap.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Spans recorded (including those beyond [`SPAN_CAP`]).
    pub spans: u64,
    /// `send` calls: count and host ns.
    pub send_host: Tally,
    /// Bytes handed to `send`.
    pub send_bytes: u64,
    /// Delivery-handler *self* host ns on replica nodes.
    pub replica_handler_self: Tally,
    /// Delivery-handler *self* host ns on client nodes.
    pub client_handler_self: Tally,
    /// Driver spans by name: count and *self* host ns.
    pub driver_self: BTreeMap<&'static str, Tally>,
    /// Every matched transit, simulated ns, in delivery order.
    pub transit_ns: Vec<u64>,
    /// Client → primary transit, simulated ns.
    pub client_to_primary: Tally,
    /// Replica → client transit, simulated ns.
    pub replica_to_client: Tally,
    /// One-sided READs: count and simulated issue → completion ns.
    pub onesided_reads: Tally,
    /// One-sided slot WRITEs: count and simulated issue → completion ns.
    pub slot_writes: Tally,
    /// Sequenced deliveries per `(replica, lane)`.
    pub lane_deliveries: BTreeMap<(u32, usize), u64>,
    /// Sends the matcher skipped as lost.
    pub transit_lost: u64,
    /// Deliveries without a matching send.
    pub transit_unmatched: u64,
}

impl TraceSummary {
    /// What was recorded after `earlier` was taken.
    fn since(&self, earlier: &TraceSummary) -> TraceSummary {
        let zero = Tally::default();
        TraceSummary {
            spans: self.spans - earlier.spans,
            send_host: self.send_host.since(&earlier.send_host),
            send_bytes: self.send_bytes - earlier.send_bytes,
            replica_handler_self: self
                .replica_handler_self
                .since(&earlier.replica_handler_self),
            client_handler_self: self.client_handler_self.since(&earlier.client_handler_self),
            driver_self: self
                .driver_self
                .iter()
                .map(|(k, v)| (*k, v.since(earlier.driver_self.get(k).unwrap_or(&zero))))
                .collect(),
            transit_ns: self.transit_ns[earlier.transit_ns.len()..].to_vec(),
            client_to_primary: self.client_to_primary.since(&earlier.client_to_primary),
            replica_to_client: self.replica_to_client.since(&earlier.replica_to_client),
            onesided_reads: self.onesided_reads.since(&earlier.onesided_reads),
            slot_writes: self.slot_writes.since(&earlier.slot_writes),
            lane_deliveries: self
                .lane_deliveries
                .iter()
                .map(|(k, v)| (*k, v - earlier.lane_deliveries.get(k).copied().unwrap_or(0)))
                .collect(),
            transit_lost: self.transit_lost - earlier.transit_lost,
            transit_unmatched: self.transit_unmatched - earlier.transit_unmatched,
        }
    }
}

struct Store {
    epoch: Instant,
    n_replicas: u32,
    primary: u32,
    next_id: u64,
    spans: Vec<Span>,
    stack: Vec<OpenSpan>,
    pending_async: HashMap<u64, OpenSpan>,
    matcher: TransitMatcher,
    summary: TraceSummary,
    /// The aggregates as they stood when the measured window opened.
    at_window_open: TraceSummary,
}

impl Store {
    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn keep(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }

    /// The aggregates so far, the matcher's counters included.
    fn current(&self) -> TraceSummary {
        let mut now = self.summary.clone();
        now.transit_lost = self.matcher.lost();
        now.transit_unmatched = self.matcher.unmatched();
        now
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.summary.spans += 1;
        id
    }
}

/// Handle to one traced lap's span store. Cheap to clone.
#[derive(Clone)]
pub struct Tracer {
    store: Rc<RefCell<Store>>,
}

/// An open host-time span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(());

impl Tracer {
    /// Creates a tracer for a group whose replicas are nodes
    /// `0..n_replicas` (every other node is a client) and whose view-0
    /// primary is `primary`.
    pub fn new(n_replicas: u32, primary: u32) -> Tracer {
        Tracer {
            store: Rc::new(RefCell::new(Store {
                epoch: Instant::now(),
                n_replicas,
                primary,
                next_id: 0,
                spans: Vec::new(),
                stack: Vec::new(),
                pending_async: HashMap::new(),
                matcher: TransitMatcher::default(),
                summary: TraceSummary::default(),
                at_window_open: TraceSummary::default(),
            })),
        }
    }

    /// Wraps `inner` so every call through it is traced.
    pub fn wrap(&self, inner: Rc<dyn Transport>) -> Rc<dyn Transport> {
        Rc::new(TracedTransport {
            inner,
            tracer: self.clone(),
        })
    }

    /// Opens a nested host-time span. Spans close in LIFO order.
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        &self,
        kind: SpanKind,
        name: &'static str,
        node: u32,
        peer: u32,
        sim_ns: u64,
        bytes: u64,
        seq: Option<u64>,
        parent: Option<u64>,
    ) -> Open {
        let mut s = self.store.borrow_mut();
        let id = s.fresh_id();
        let parent = parent.or_else(|| s.stack.last().map(|o| o.id));
        let host_start_ns = s.host_ns();
        s.stack.push(OpenSpan {
            id,
            parent,
            kind,
            name,
            node,
            peer,
            host_start_ns,
            sim_start_ns: sim_ns,
            bytes,
            seq,
            child_ns: 0,
        });
        Open(())
    }

    /// Closes the innermost open span; returns its id.
    pub fn end(&self, _open: Open, sim_ns: u64) -> u64 {
        let mut s = self.store.borrow_mut();
        let o = s.stack.pop().expect("end without begin");
        let dur = s.host_ns().saturating_sub(o.host_start_ns);
        let self_ns = dur.saturating_sub(o.child_ns);
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += dur;
        }
        let n_replicas = s.n_replicas;
        match o.kind {
            SpanKind::Send => {
                s.summary.send_host.add(dur);
                s.summary.send_bytes += o.bytes;
            }
            SpanKind::Deliver if o.node < n_replicas => s.summary.replica_handler_self.add(self_ns),
            SpanKind::Deliver => s.summary.client_handler_self.add(self_ns),
            SpanKind::Driver => s
                .summary
                .driver_self
                .entry(o.name)
                .or_default()
                .add(self_ns),
            SpanKind::Transit | SpanKind::OneSidedRead | SpanKind::SlotWrite => {}
        }
        s.keep(Span {
            id: o.id,
            parent: o.parent,
            kind: o.kind,
            name: o.name,
            node: o.node,
            peer: o.peer,
            host_start_ns: o.host_start_ns,
            host_dur_ns: dur,
            sim_start_ns: o.sim_start_ns,
            sim_end_ns: sim_ns,
            bytes: o.bytes,
            seq: o.seq,
        });
        o.id
    }

    /// Runs `f` inside a driver span named `name` on `node`.
    pub fn driver<R>(
        &self,
        name: &'static str,
        node: u32,
        sim: &mut Simulator,
        f: impl FnOnce(&mut Simulator) -> R,
    ) -> R {
        let open = self.begin(
            SpanKind::Driver,
            name,
            node,
            node,
            sim.now().as_nanos(),
            0,
            None,
            None,
        );
        let r = f(sim);
        self.end(open, sim.now().as_nanos());
        r
    }

    fn note_sent(&self, from: u32, to: u32, sim_ns: u64, len: usize, send_span: u64) {
        self.store.borrow_mut().matcher.sent(
            from,
            to,
            InFlight {
                sent_ns: sim_ns,
                len,
                send_span: Some(send_span),
            },
        );
    }

    /// Matches a delivery to its send and records the transit span;
    /// returns the transit span's id (the delivery's parent).
    fn note_delivered(&self, from: u32, to: u32, sim_ns: u64, len: usize) -> Option<u64> {
        let mut s = self.store.borrow_mut();
        let sent = s.matcher.delivered(from, to, len)?;
        let transit = sim_ns.saturating_sub(sent.sent_ns);
        s.summary.transit_ns.push(transit);
        if from >= s.n_replicas && to == s.primary {
            s.summary.client_to_primary.add(transit);
        } else if from < s.n_replicas && to >= s.n_replicas {
            s.summary.replica_to_client.add(transit);
        }
        let id = s.fresh_id();
        s.keep(Span {
            id,
            parent: sent.send_span,
            kind: SpanKind::Transit,
            name: "transit",
            node: to,
            peer: from,
            host_start_ns: 0,
            host_dur_ns: 0,
            sim_start_ns: sent.sent_ns,
            sim_end_ns: sim_ns,
            bytes: len as u64,
            seq: None,
        });
        Some(id)
    }

    fn note_lane(&self, node: u32, lane: usize) {
        let mut s = self.store.borrow_mut();
        if node < s.n_replicas {
            *s.summary.lane_deliveries.entry((node, lane)).or_insert(0) += 1;
        }
    }

    /// Opens a simulated-time span that completes in a later event.
    fn begin_async(
        &self,
        kind: SpanKind,
        name: &'static str,
        node: u32,
        peer: u32,
        sim_ns: u64,
        bytes: u64,
    ) -> u64 {
        let mut s = self.store.borrow_mut();
        let id = s.fresh_id();
        let parent = s.stack.last().map(|o| o.id);
        s.pending_async.insert(
            id,
            OpenSpan {
                id,
                parent,
                kind,
                name,
                node,
                peer,
                host_start_ns: 0,
                sim_start_ns: sim_ns,
                bytes,
                seq: None,
                child_ns: 0,
            },
        );
        id
    }

    fn end_async(&self, id: u64, sim_ns: u64) {
        let mut s = self.store.borrow_mut();
        let Some(o) = s.pending_async.remove(&id) else {
            return;
        };
        let dur = sim_ns.saturating_sub(o.sim_start_ns);
        match o.kind {
            SpanKind::OneSidedRead => s.summary.onesided_reads.add(dur),
            SpanKind::SlotWrite => s.summary.slot_writes.add(dur),
            _ => {}
        }
        s.keep(Span {
            id: o.id,
            parent: o.parent,
            kind: o.kind,
            name: o.name,
            node: o.node,
            peer: o.peer,
            host_start_ns: 0,
            host_dur_ns: 0,
            sim_start_ns: o.sim_start_ns,
            sim_end_ns: sim_ns,
            bytes: o.bytes,
            seq: None,
        });
    }

    /// Marks the start of the measured window: [`Tracer::summary`] reports
    /// what was recorded from here on (spans of the warm-up stay in the
    /// trace file).
    pub fn mark_window(&self) {
        let mut s = self.store.borrow_mut();
        s.at_window_open = s.current();
    }

    /// The aggregates of everything recorded since [`Tracer::mark_window`]
    /// (or since the start, if the window was never marked).
    pub fn summary(&self) -> TraceSummary {
        let s = self.store.borrow();
        s.current().since(&s.at_window_open)
    }

    /// Writes the kept spans as Chrome-trace JSON (open in Perfetto or
    /// `chrome://tracing`). Process 1 is the host clock, one thread per
    /// node; process 2 is the simulated clock, one thread per receiving
    /// node. Timestamps are microseconds of the respective clock.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let s = self.store.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\
             \"spans_recorded\":{},\"spans_kept\":{}}},\"traceEvents\":[",
            s.summary.spans,
            s.spans.len()
        )?;
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"host clock\"}}}},\n\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{{\"name\":\"simulated clock\"}}}}"
        )?;
        for sp in &s.spans {
            let sim_only = matches!(
                sp.kind,
                SpanKind::Transit | SpanKind::OneSidedRead | SpanKind::SlotWrite
            );
            let (pid, ts_ns, dur_ns) = if sim_only {
                (2, sp.sim_start_ns, sp.sim_end_ns - sp.sim_start_ns)
            } else {
                (1, sp.host_start_ns, sp.host_dur_ns)
            };
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"peer\":{},\"sim_start_ns\":{},\
                 \"sim_end_ns\":{},\"bytes\":{}",
                sp.name,
                sp.kind.category(),
                sp.node,
                ts_ns as f64 / 1000.0,
                dur_ns as f64 / 1000.0,
                sp.id,
                sp.peer,
                sp.sim_start_ns,
                sp.sim_end_ns,
                sp.bytes,
            )?;
            if let Some(p) = sp.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            if let Some(seq) = sp.seq {
                write!(out, ",\"seq\":{seq}")?;
            }
            write!(out, "}}}}")?;
        }
        write!(out, "\n]}}\n")?;
        out.flush()
    }
}

/// A transport decorator that records spans and forwards **every** trait
/// method. The one-sided methods default to `None`/`false` in the trait,
/// so a missed forward would silently disable leases and the fast path —
/// the transparency check (traced lap ≡ untraced lap) exists to catch it.
struct TracedTransport {
    inner: Rc<dyn Transport>,
    tracer: Tracer,
}

fn traced_delivery(
    tracer: &Tracer,
    me: NodeId,
    sim: &mut Simulator,
    from: NodeId,
    bytes: Vec<u8>,
    lane: Option<usize>,
    deliver: impl FnOnce(&mut Simulator, Vec<u8>),
) {
    let now = sim.now().as_nanos();
    let seq = SignedMessage::peek_wire_seq(&bytes);
    if let (Some(lane), Some(_)) = (lane, seq) {
        tracer.note_lane(me, lane);
    }
    let parent = tracer.note_delivered(from, me, now, bytes.len());
    let open = tracer.begin(
        SpanKind::Deliver,
        "deliver",
        me,
        from,
        now,
        bytes.len() as u64,
        seq,
        parent,
    );
    deliver(sim, bytes);
    tracer.end(open, sim.now().as_nanos());
}

impl Transport for TracedTransport {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&self, sim: &mut Simulator, to: NodeId, msg: Vec<u8>) {
        let me = self.inner.node();
        let now = sim.now().as_nanos();
        let len = msg.len();
        let seq = SignedMessage::peek_wire_seq(&msg);
        let open = self
            .tracer
            .begin(SpanKind::Send, "send", me, to, now, len as u64, seq, None);
        self.inner.send(sim, to, msg);
        let span = self.tracer.end(open, sim.now().as_nanos());
        self.tracer.note_sent(me, to, now, len, span);
    }

    fn set_delivery(&self, f: DeliveryFn) {
        let tracer = self.tracer.clone();
        let me = self.inner.node();
        self.inner.set_delivery(Rc::new(move |sim, from, bytes| {
            traced_delivery(&tracer, me, sim, from, bytes, None, |sim, bytes| {
                f(sim, from, bytes)
            });
        }));
    }

    fn set_lane_delivery(&self, lanes: usize, f: LaneDeliveryFn) {
        let tracer = self.tracer.clone();
        let me = self.inner.node();
        self.inner.set_lane_delivery(
            lanes,
            Rc::new(move |sim, lane, from, bytes| {
                traced_delivery(&tracer, me, sim, from, bytes, Some(lane), |sim, bytes| {
                    f(sim, lane, from, bytes)
                });
            }),
        );
    }

    fn broadcast(&self, sim: &mut Simulator, peers: &[NodeId], msg: &[u8]) {
        // The trait's default body, spelled out so each copy goes through
        // the traced `send` (no transport in the tree overrides it).
        for &p in peers {
            if p != self.node() {
                self.send(sim, p, msg.to_vec());
            }
        }
    }

    fn register_state_region(&self, sim: &mut Simulator, bytes: &[u8]) -> Option<StateOffer> {
        self.inner.register_state_region(sim, bytes)
    }

    fn release_state_region(&self, offer: &StateOffer) {
        self.inner.release_state_region(offer);
    }

    fn write_state_region(&self, offer: &StateOffer, offset: u64, bytes: &[u8]) -> bool {
        self.inner.write_state_region(offer, offset, bytes)
    }

    fn read_state(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        rkey: u32,
        offset: u64,
        len: usize,
        done: StateReadFn,
    ) -> bool {
        let tracer = self.tracer.clone();
        let id = self.tracer.begin_async(
            SpanKind::OneSidedRead,
            "read_state",
            self.inner.node(),
            peer,
            sim.now().as_nanos(),
            len as u64,
        );
        let issued = self.inner.read_state(
            sim,
            peer,
            rkey,
            offset,
            len,
            Box::new(move |sim, bytes| {
                tracer.end_async(id, sim.now().as_nanos());
                done(sim, bytes);
            }),
        );
        if !issued {
            // Never issued: the callback was dropped, close the span here.
            self.tracer.end_async(id, sim.now().as_nanos());
        }
        issued
    }

    fn register_write_region(&self, sim: &mut Simulator, len: usize) -> Option<SlotRegion> {
        self.inner.register_write_region(sim, len)
    }

    fn release_write_region(&self, region: &SlotRegion) {
        self.inner.release_write_region(region);
    }

    fn read_write_region(&self, region: &SlotRegion, offset: u64, len: usize) -> Option<Vec<u8>> {
        self.inner.read_write_region(region, offset, len)
    }

    fn write_slot(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        rkey: u32,
        offset: u64,
        data: &[u8],
        imm: u32,
        done: SlotWriteFn,
    ) -> bool {
        let tracer = self.tracer.clone();
        let id = self.tracer.begin_async(
            SpanKind::SlotWrite,
            "write_slot",
            self.inner.node(),
            peer,
            sim.now().as_nanos(),
            data.len() as u64,
        );
        let issued = self.inner.write_slot(
            sim,
            peer,
            rkey,
            offset,
            data,
            imm,
            Box::new(move |sim, ok| {
                tracer.end_async(id, sim.now().as_nanos());
                done(sim, ok);
            }),
        );
        if !issued {
            self.tracer.end_async(id, sim.now().as_nanos());
        }
        issued
    }

    fn set_slot_doorbell(&self, f: SlotDoorbellFn) {
        let tracer = self.tracer.clone();
        let me = self.inner.node();
        self.inner
            .set_slot_doorbell(Rc::new(move |sim, from, imm, len| {
                let open = tracer.begin(
                    SpanKind::Deliver,
                    "slot_doorbell",
                    me,
                    from,
                    sim.now().as_nanos(),
                    len as u64,
                    None,
                    None,
                );
                f(sim, from, imm, len);
                tracer.end(open, sim.now().as_nanos());
            }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(sent_ns: u64, len: usize) -> InFlight {
        InFlight {
            sent_ns,
            len,
            send_span: None,
        }
    }

    #[test]
    fn matcher_is_fifo_per_directed_pair() {
        let mut m = TransitMatcher::default();
        m.sent(0, 1, msg(10, 100));
        m.sent(0, 1, msg(20, 100));
        m.sent(1, 0, msg(30, 100));
        assert_eq!(m.delivered(0, 1, 100).unwrap().sent_ns, 10);
        assert_eq!(m.delivered(1, 0, 100).unwrap().sent_ns, 30);
        assert_eq!(m.delivered(0, 1, 100).unwrap().sent_ns, 20);
        assert_eq!(m.in_flight(), 0);
        assert_eq!((m.lost(), m.unmatched()), (0, 0));
    }

    #[test]
    fn matcher_resyncs_past_dropped_messages() {
        let mut m = TransitMatcher::default();
        m.sent(2, 3, msg(1, 64)); // dropped by the transport
        m.sent(2, 3, msg(2, 64)); // dropped by the transport
        m.sent(2, 3, msg(3, 900));
        m.sent(2, 3, msg(4, 64));
        assert_eq!(m.delivered(2, 3, 900).unwrap().sent_ns, 3);
        assert_eq!(m.lost(), 2);
        assert_eq!(m.delivered(2, 3, 64).unwrap().sent_ns, 4);
        // Nothing of that length (or from that pair) was ever sent.
        assert!(m.delivered(2, 3, 7).is_none());
        assert!(m.delivered(9, 9, 64).is_none());
        assert_eq!(m.unmatched(), 2);
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let t = Tracer::new(4, 0);
        let outer = t.begin(SpanKind::Deliver, "deliver", 1, 0, 0, 10, None, None);
        let inner = t.begin(SpanKind::Send, "send", 1, 2, 0, 10, None, None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_id = t.end(inner, 0);
        let outer_id = t.end(outer, 5);
        let s = t.summary();
        assert_eq!(s.spans, 2);
        assert_eq!(s.send_host.count, 1);
        assert!(s.send_host.sum >= 2_000_000);
        // The handler's self time excludes the nested send.
        assert!(s.replica_handler_self.sum < s.send_host.sum);
        let store = t.store.borrow();
        let inner_span = store.spans.iter().find(|sp| sp.id == inner_id).unwrap();
        assert_eq!(inner_span.parent, Some(outer_id));
    }
}
