//! The RDMA selector and its event manager.
//!
//! The selector is "the key component in RUBIN" (paper §III-B): it lets one
//! simulated thread multiplex many RDMA channels. Registered channels get
//! an [`RubinKey`] selection key with an interest set; the **event
//! manager** — RUBIN's replacement for epoll — copies every completion and
//! connection event into the **hybrid event queue** and notifies the
//! selector, which matches events to channels, updates the keys' ready
//! sets and wakes the parked `select()` (paper Figure 2, steps 1–5).
//!
//! An event marks, the wake-up polls: while a wake-up of the selector
//! thread is pending, completion events wait in the hybrid queue and the
//! wake-up drains it, polling each channel's completion queues once for
//! everything that accumulated. An idle selector (no wake-up pending) polls
//! at arrival, so unloaded latency does not depend on the rule.
//!
//! One selector may run one select thread per core (Reptor's COP design
//! runs one selector thread per pillar). The key table and the device's
//! connection events stay with the selector, the first thread dispatching
//! the latter; each thread has its own hybrid queue, parked call, ready
//! list and wake-up, and serves the channels charged to its core.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::{Rc, Weak};

use rdma_verbs::{CmEvent, QpNum, RdmaDevice};
use simnet::{Action, CoreId, Counters, Histo, Nanos, Simulator};

use crate::channel::RdmaChannel;
use crate::event::{HybridEventQueue, Interest, RubinEvent, RubinKey};
use crate::server::RdmaServerChannel;

/// One ready key returned by a select call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectedKey {
    /// The registration.
    pub key: RubinKey,
    /// Ready ops intersected with the interest set.
    pub ready: Interest,
}

enum Registered {
    Channel(RdmaChannel),
    Server(RdmaServerChannel),
}

struct KeyEntry {
    what: Registered,
    /// The select thread this key reports to.
    thread: usize,
    interest: Interest,
    ready: Interest,
    cancelled: bool,
    /// Hybrid events up to this sequence number need no poll of their own:
    /// a poll of this channel ran after they were queued.
    polled_through: u64,
}

simnet::metric_names! {
    /// Counters of one selector, under `rubin.<host>.selector.`.
    enum SelectorCounter {
        EventsDispatched => "events_dispatched",
        Polls => "polls",
        CqPolls => "cq_polls",
        CqPollsEmpty => "cq_polls_empty",
    }
}

/// One select thread: the core it runs on and what it waits with.
struct SelectThread {
    core: CoreId,
    hybrid: HybridEventQueue,
    /// The parked select call, held in place; it reads `ready` when run.
    parked: Option<Action>,
    /// The ready keys handed to the parked call, kept between wake-ups.
    ready: Vec<SelectedKey>,
    wake_scheduled: bool,
    process_scheduled: bool,
}

struct SelInner {
    device: RdmaDevice,
    select_ns: u64,
    keys: BTreeMap<RubinKey, KeyEntry>,
    next_key: u64,
    threads: Vec<SelectThread>,
    cm_hooked: bool,
    counters: Counters<SelectorCounter>,
    /// `rubin.<host>.selector.events_per_round`.
    events_per_round: Histo,
}

/// The RUBIN selector: multiplexes RDMA channels on one simulated thread.
///
/// The selector owns its registered channels; what they and the verbs
/// objects below them hold of the selector is a weak handle.
#[derive(Clone)]
pub struct RdmaSelector {
    inner: Rc<RefCell<SelInner>>,
}

/// The selector as seen from what it owns: a queue pair's or the device's
/// event hook, a registered channel reporting readiness.
#[derive(Clone)]
struct WeakSelector(Weak<RefCell<SelInner>>);

impl WeakSelector {
    fn upgrade(&self) -> Option<RdmaSelector> {
        self.0.upgrade().map(|inner| RdmaSelector { inner })
    }
}

/// What a registered channel keeps of its registration.
#[derive(Clone)]
pub(crate) struct Registration {
    selector: WeakSelector,
    key: RubinKey,
}

impl Registration {
    /// Channel-side readiness report; a no-op once the selector is gone.
    pub(crate) fn set_ready(&self, sim: &mut Simulator, op: Interest, on: bool) {
        if let Some(sel) = self.selector.upgrade() {
            sel.set_ready(sim, self.key, op, on);
        }
    }
}

impl fmt::Debug for RdmaSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("RdmaSelector")
            .field("keys", &inner.keys.len())
            .field("threads", &inner.threads.len())
            .field("hybrid_pending", &self.hybrid_pending())
            .finish()
    }
}

impl RdmaSelector {
    /// Creates a selector on `device` with one select thread, charging
    /// `select_ns` per select call to `core`.
    pub fn new(device: &RdmaDevice, core: CoreId, select_ns: u64) -> RdmaSelector {
        RdmaSelector::on_cores(device, &[core], select_ns)
    }

    /// Creates a selector on `device` with one select thread per entry of
    /// `cores`, thread `i` charging its select calls to `cores[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn on_cores(device: &RdmaDevice, cores: &[CoreId], select_ns: u64) -> RdmaSelector {
        assert!(!cores.is_empty(), "a selector needs a select thread");
        let metrics = device.net().metrics();
        let prefix = format!("rubin.{}.selector.", device.host());
        let threads = cores
            .iter()
            .map(|&core| SelectThread {
                core,
                hybrid: HybridEventQueue::new(),
                parked: None,
                ready: Vec::new(),
                wake_scheduled: false,
                process_scheduled: false,
            })
            .collect();
        RdmaSelector {
            inner: Rc::new(RefCell::new(SelInner {
                device: device.clone(),
                select_ns,
                keys: BTreeMap::new(),
                next_key: 0,
                threads,
                cm_hooked: false,
                counters: metrics.counters(&prefix),
                events_per_round: metrics.histo_handle(&format!("{prefix}events_per_round")),
            })),
        }
    }

    fn downgrade(&self) -> WeakSelector {
        WeakSelector(Rc::downgrade(&self.inner))
    }

    fn registration(&self, key: RubinKey) -> Registration {
        Registration {
            selector: self.downgrade(),
            key,
        }
    }

    fn alloc_key(&self, what: Registered, thread: usize, interest: Interest) -> RubinKey {
        let mut inner = self.inner.borrow_mut();
        let key = RubinKey(inner.next_key);
        inner.next_key += 1;
        inner.keys.insert(
            key,
            KeyEntry {
                what,
                thread,
                interest,
                ready: Interest::NONE,
                cancelled: false,
                polled_through: 0,
            },
        );
        key
    }

    /// Ensures the device's CM events flow into the hybrid queue.
    fn hook_cm(&self, _sim: &mut Simulator) {
        let already = {
            let mut inner = self.inner.borrow_mut();
            let was = inner.cm_hooked;
            inner.cm_hooked = true;
            was
        };
        if already {
            return;
        }
        let sel = self.downgrade();
        let device = self.inner.borrow().device.clone();
        device.set_cm_hook(Rc::new(move |sim| {
            let Some(sel) = sel.upgrade() else { return };
            // Event manager: copy CM events into the first thread's
            // hybrid queue.
            let dev = sel.inner.borrow().device.clone();
            while let Some(ev) = dev.poll_cm_event() {
                sel.inner.borrow_mut().threads[0]
                    .hybrid
                    .push(RubinEvent::Connection(ev));
            }
            sel.schedule_process(sim, 0);
        }));
    }

    /// Registers an [`RdmaChannel`] with the given interest set and wires
    /// its completion events into the event manager. The channel is served
    /// by the select thread on its core, or by the first thread if none
    /// runs there.
    pub fn register_channel(
        &self,
        sim: &mut Simulator,
        channel: &RdmaChannel,
        interest: Interest,
    ) -> RubinKey {
        let core = channel.core();
        let thread = {
            let inner = self.inner.borrow();
            inner.threads.iter().position(|t| t.core == core)
        };
        let thread = thread.unwrap_or(0);
        let key = self.alloc_key(Registered::Channel(channel.clone()), thread, interest);
        channel.set_registration(self.registration(key));
        let sel = self.downgrade();
        channel.qp().set_event_hook(Rc::new(move |sim| {
            let Some(sel) = sel.upgrade() else { return };
            sel.inner.borrow_mut().threads[thread]
                .hybrid
                .push(RubinEvent::Completion { key });
            sel.schedule_process(sim, thread);
        }));
        self.hook_cm(sim);
        // Report the channel's current readiness under the new key.
        channel.refresh_readiness(sim);
        key
    }

    /// Registers a server channel for `OP_CONNECT` readiness, served by the
    /// first select thread.
    pub fn register_server(&self, sim: &mut Simulator, server: &RdmaServerChannel) -> RubinKey {
        let key = self.alloc_key(Registered::Server(server.clone()), 0, Interest::OP_CONNECT);
        server.set_registration(self.registration(key));
        self.hook_cm(sim);
        if server.pending_count() > 0 {
            self.set_ready(sim, key, Interest::OP_CONNECT, true);
        }
        key
    }

    /// Replaces a key's interest set.
    ///
    /// # Panics
    ///
    /// Panics on an unknown key.
    pub fn set_interest(&self, sim: &mut Simulator, key: RubinKey, interest: Interest) {
        let thread = {
            let mut inner = self.inner.borrow_mut();
            let entry = inner.keys.get_mut(&key).expect("unknown selection key");
            entry.interest = interest;
            entry.thread
        };
        self.maybe_wake(sim, thread);
    }

    /// A key's interest set.
    ///
    /// # Panics
    ///
    /// Panics on an unknown key.
    pub fn interest(&self, key: RubinKey) -> Interest {
        self.inner.borrow().keys[&key].interest
    }

    /// Cancels a registration.
    pub fn cancel(&self, key: RubinKey) {
        if let Some(entry) = self.inner.borrow_mut().keys.get_mut(&key) {
            entry.cancelled = true;
            entry.interest = Interest::NONE;
        }
    }

    fn set_ready(&self, sim: &mut Simulator, key: RubinKey, op: Interest, on: bool) {
        let thread = {
            let mut inner = self.inner.borrow_mut();
            let Some(entry) = inner.keys.get_mut(&key) else {
                return;
            };
            if entry.cancelled {
                return;
            }
            if on {
                entry.ready |= op;
            } else {
                entry.ready = entry.ready.without(op);
            }
            entry.thread
        };
        if on {
            self.maybe_wake(sim, thread);
        }
    }

    /// Schedules `thread`'s hybrid-queue processing (the event-manager
    /// notification).
    fn schedule_process(&self, sim: &mut Simulator, thread: usize) {
        {
            let mut inner = self.inner.borrow_mut();
            let t = &mut inner.threads[thread];
            if t.process_scheduled {
                return;
            }
            t.process_scheduled = true;
        }
        let sel = self.clone();
        sim.schedule_in(Nanos::ZERO, move |sim| {
            sel.inner.borrow_mut().threads[thread].process_scheduled = false;
            sel.process(sim, thread);
        });
    }

    /// The event-manager notification: an idle thread handles the events
    /// where they arrive; one with a wake-up pending leaves them queued for
    /// the wake-up's own drain.
    fn process(&self, sim: &mut Simulator, thread: usize) {
        if self.inner.borrow().threads[thread].wake_scheduled {
            return;
        }
        self.drain(sim, thread);
        self.maybe_wake(sim, thread);
    }

    /// Drains `thread`'s hybrid event queue in arrival order, dispatching
    /// each event to the matching selection key (paper Figure 2, step 5:
    /// compare ids and event type, update the key's ready set). A
    /// channel's completion queues are polled once for all of its events
    /// queued before that poll.
    fn drain(&self, sim: &mut Simulator, thread: usize) {
        let mut dispatched: u64 = 0;
        loop {
            let next = {
                let mut inner = self.inner.borrow_mut();
                let hybrid = &mut inner.threads[thread].hybrid;
                let ev = hybrid.pop();
                // The arrival number of `ev`: the queue is FIFO.
                let seq = hybrid.total_events() - hybrid.len() as u64;
                ev.map(|ev| (ev, seq))
            };
            let Some((ev, seq)) = next else { break };
            dispatched += 1;
            match ev {
                RubinEvent::Completion { key } => {
                    let chan = {
                        let mut inner = self.inner.borrow_mut();
                        let queued = inner.threads[thread].hybrid.total_events();
                        match inner.keys.get_mut(&key) {
                            Some(KeyEntry {
                                what: Registered::Channel(c),
                                cancelled: false,
                                polled_through,
                                ..
                            }) if *polled_through < seq => {
                                *polled_through = queued;
                                Some(c.clone())
                            }
                            _ => None,
                        }
                    };
                    if let Some(c) = chan {
                        let found = c.process_completions(sim);
                        let inner = self.inner.borrow();
                        inner.counters[SelectorCounter::CqPolls].incr();
                        if found == 0 {
                            inner.counters[SelectorCounter::CqPollsEmpty].incr();
                        }
                    }
                }
                RubinEvent::Connection(cm) => self.dispatch_cm(sim, cm),
            }
        }
        if dispatched > 0 {
            let inner = self.inner.borrow();
            inner.counters[SelectorCounter::EventsDispatched].add(dispatched);
            inner.events_per_round.observe(dispatched);
        }
    }

    fn dispatch_cm(&self, sim: &mut Simulator, ev: CmEvent) {
        match ev {
            CmEvent::ConnectRequest(req) => {
                let server = self.find_server(req.listen_port);
                match server {
                    Some(s) => s.push_request(sim, req),
                    None => {
                        // No registered server: refuse politely.
                        req.reject(sim, "no listening server channel");
                    }
                }
            }
            CmEvent::Established { qp, conn_id, .. } => {
                if let Some(c) = self.find_channel_by_conn(conn_id, qp.num()) {
                    c.mark_established(sim);
                }
            }
            CmEvent::ConnectFailed { conn_id, reason } => {
                if let Some(c) = self.find_channel_by_conn_id(conn_id) {
                    c.mark_broken(sim, reason);
                }
            }
            CmEvent::Disconnected { qp } => {
                if let Some(c) = self.find_channel_by_qp(qp) {
                    c.mark_disconnected(sim);
                }
            }
        }
    }

    fn find_server(&self, port: u32) -> Option<RdmaServerChannel> {
        let inner = self.inner.borrow();
        inner.keys.values().find_map(|e| match &e.what {
            Registered::Server(s) if !e.cancelled && s.port() == port => Some(s.clone()),
            _ => None,
        })
    }

    fn find_channel_by_conn_id(&self, conn_id: u64) -> Option<RdmaChannel> {
        let inner = self.inner.borrow();
        inner.keys.values().find_map(|e| match &e.what {
            Registered::Channel(c) if !e.cancelled && c.conn_id() == Some(conn_id) => {
                Some(c.clone())
            }
            _ => None,
        })
    }

    fn find_channel_by_qp(&self, qp: QpNum) -> Option<RdmaChannel> {
        let inner = self.inner.borrow();
        inner.keys.values().find_map(|e| match &e.what {
            Registered::Channel(c) if !e.cancelled && c.qp().num() == qp => Some(c.clone()),
            _ => None,
        })
    }

    fn find_channel_by_conn(&self, conn_id: u64, qp: QpNum) -> Option<RdmaChannel> {
        self.find_channel_by_conn_id(conn_id)
            .or_else(|| self.find_channel_by_qp(qp))
    }

    /// The channel registered under `key`, if it is a (live) channel key.
    pub fn channel_for(&self, key: RubinKey) -> Option<RdmaChannel> {
        let inner = self.inner.borrow();
        match inner.keys.get(&key) {
            Some(KeyEntry {
                what: Registered::Channel(c),
                cancelled: false,
                ..
            }) => Some(c.clone()),
            _ => None,
        }
    }

    /// The server channel registered under `key`, if any.
    pub fn server_for(&self, key: RubinKey) -> Option<RdmaServerChannel> {
        let inner = self.inner.borrow();
        match inner.keys.get(&key) {
            Some(KeyEntry {
                what: Registered::Server(s),
                cancelled: false,
                ..
            }) => Some(s.clone()),
            _ => None,
        }
    }

    /// Non-blocking select on the first thread: charges one select call,
    /// handles the events that have arrived and returns the currently
    /// ready keys.
    pub fn select_now(&self, sim: &mut Simulator) -> Vec<SelectedKey> {
        self.charge_select(sim, 0);
        self.drain(sim, 0);
        ready_keys(&self.inner.borrow().keys, 0).collect()
    }

    /// Blocking select on the first thread: [`RdmaSelector::select_on`]
    /// thread 0.
    ///
    /// # Panics
    ///
    /// Panics if a select is already parked there.
    pub fn select(
        &self,
        sim: &mut Simulator,
        f: impl FnOnce(&mut Simulator, &[SelectedKey]) + 'static,
    ) {
        self.select_on(sim, 0, f);
    }

    /// Blocking select on `thread`: `f` runs (after one select-call cost,
    /// charged to the thread's core) once at least one of the thread's
    /// keys is ready, with those keys. Neither the parked call nor the key
    /// list allocates: the thread keeps both.
    ///
    /// # Panics
    ///
    /// Panics if a select is already parked on `thread` (one call per
    /// thread) or there is no such thread.
    pub fn select_on(
        &self,
        sim: &mut Simulator,
        thread: usize,
        f: impl FnOnce(&mut Simulator, &[SelectedKey]) + 'static,
    ) {
        let sel = self.downgrade();
        let call = Action::new(move |sim| {
            let Some(sel) = sel.upgrade() else { return };
            let mut ready = std::mem::take(&mut sel.inner.borrow_mut().threads[thread].ready);
            f(sim, &ready);
            ready.clear();
            sel.inner.borrow_mut().threads[thread].ready = ready;
        });
        {
            let mut inner = self.inner.borrow_mut();
            let t = &mut inner.threads[thread];
            assert!(
                t.parked.is_none(),
                "selector already has a parked select call"
            );
            t.parked = Some(call);
        }
        self.maybe_wake(sim, thread);
    }

    /// Total events that flowed through the hybrid queues.
    pub fn hybrid_events_total(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.threads.iter().map(|t| t.hybrid.total_events()).sum()
    }

    /// Events waiting in the hybrid queues for the select threads.
    pub fn hybrid_pending(&self) -> usize {
        let inner = self.inner.borrow();
        inner.threads.iter().map(|t| t.hybrid.len()).sum()
    }

    fn charge_select(&self, sim: &mut Simulator, thread: usize) -> Nanos {
        let inner = self.inner.borrow();
        inner.counters[SelectorCounter::Polls].incr();
        let (core, ns) = (inner.threads[thread].core, inner.select_ns);
        let device = inner.device.clone();
        drop(inner);
        device
            .net()
            .host(device.host())
            .borrow_mut()
            .exec(sim.now(), core, Nanos::from_nanos(ns))
    }

    fn maybe_wake(&self, sim: &mut Simulator, thread: usize) {
        {
            let inner = self.inner.borrow();
            let t = &inner.threads[thread];
            if t.parked.is_none() || t.wake_scheduled {
                return;
            }
            let any = inner
                .keys
                .values()
                .any(|e| e.thread == thread && !e.cancelled && e.ready.intersects(e.interest));
            if !any {
                return;
            }
        }
        self.inner.borrow_mut().threads[thread].wake_scheduled = true;
        let fire_at = self.charge_select(sim, thread);
        let sel = self.clone();
        sim.schedule_at(fire_at, move |sim| {
            let cb = {
                let mut inner = sel.inner.borrow_mut();
                let t = &mut inner.threads[thread];
                t.wake_scheduled = false;
                t.parked.take()
            };
            // The selector thread runs: what arrived while it was
            // busy is handled now, before the ready sets are read.
            sel.drain(sim, thread);
            let Some(cb) = cb else { return };
            let any = {
                let mut guard = sel.inner.borrow_mut();
                let inner = &mut *guard;
                let t = &mut inner.threads[thread];
                t.ready.clear();
                t.ready.extend(ready_keys(&inner.keys, thread));
                !t.ready.is_empty()
            };
            if any {
                cb.run(sim);
            } else {
                sel.inner.borrow_mut().threads[thread].parked = Some(cb);
            }
        });
    }
}

/// `thread`'s live keys whose ready set meets their interest, in key
/// order.
fn ready_keys(
    keys: &BTreeMap<RubinKey, KeyEntry>,
    thread: usize,
) -> impl Iterator<Item = SelectedKey> + '_ {
    keys.iter()
        .filter(move |(_, e)| e.thread == thread && !e.cancelled)
        .filter_map(|(k, e)| {
            let ready = e.ready.and(e.interest);
            (!ready.is_empty()).then_some(SelectedKey { key: *k, ready })
        })
}
