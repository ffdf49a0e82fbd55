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
//! The keys, the select threads (one per core, each with its parked call,
//! ready list and wake-up) and the select-call charge are the selector
//! core both stacks share, [`simnet::Selector`]. What RUBIN adds is here:
//! one hybrid queue per thread, the event manager that fills and drains
//! them, and the table of registered channels and servers. A channel
//! registers with the thread on its core; the device's connection events
//! go to the first thread.
//!
//! An event marks, the wake-up polls: while a wake-up of a select thread is
//! pending, completion events wait in its hybrid queue and the wake-up
//! drains it, polling each channel's completion queues once for everything
//! that accumulated. An idle thread (no wake-up pending) polls at arrival,
//! so unloaded latency does not depend on the rule.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::{Rc, Weak};

use rdma_verbs::{CmEvent, RdmaDevice};
use simnet::{CoreId, Counters, Nanos, Selector, Simulator};

use crate::channel::RdmaChannel;
use crate::event::{HybridEventQueue, Interest, RubinEvent, RubinKey};
use crate::server::RdmaServerChannel;

/// One ready key returned by a select call.
pub type SelectedKey = simnet::Selected<Interest>;

enum Registered {
    Channel(RdmaChannel),
    Server(RdmaServerChannel),
}

struct Entry {
    what: Registered,
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

/// The event manager's side of one select thread.
#[derive(Default)]
struct EventThread {
    hybrid: HybridEventQueue,
    process_scheduled: bool,
}

/// What RUBIN adds to the selector core.
struct Manager {
    threads: Vec<EventThread>,
    /// The registered channels and servers, by key; a cancelled key leaves.
    table: BTreeMap<RubinKey, Entry>,
    cm_hooked: bool,
}

struct Inner {
    base: Selector<Interest>,
    device: RdmaDevice,
    counters: Counters<SelectorCounter>,
    manager: RefCell<Manager>,
}

/// The RUBIN selector: multiplexes RDMA channels on one simulated select
/// thread per core.
///
/// The selector owns its registered channels; what they and the verbs
/// objects below them hold of the selector is a weak handle.
#[derive(Clone)]
pub struct RdmaSelector {
    inner: Rc<Inner>,
}

/// The selector as seen from what it owns: a queue pair's or the device's
/// event hook, a registered channel reporting readiness, the core's drain.
#[derive(Clone)]
struct WeakSelector(Weak<Inner>);

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
            sel.inner.base.set_ready(sim, self.key, op, on);
        }
    }
}

impl fmt::Debug for RdmaSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RdmaSelector")
            .field("base", &self.inner.base)
            .finish()
    }
}

impl RdmaSelector {
    /// Creates a selector on `device` with one select thread per entry of
    /// `cores`, thread `i` charging its select calls, `select_ns` each, to
    /// `cores[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn new(device: &RdmaDevice, cores: &[CoreId], select_ns: u64) -> RdmaSelector {
        let metrics = device.net().metrics();
        let prefix = format!("rubin.{}.selector.", device.host());
        let sel = RdmaSelector {
            inner: Rc::new(Inner {
                base: Selector::new(device.net(), device.host(), cores, select_ns),
                device: device.clone(),
                counters: metrics.counters(&prefix),
                manager: RefCell::new(Manager {
                    threads: cores.iter().map(|_| EventThread::default()).collect(),
                    table: BTreeMap::new(),
                    cm_hooked: false,
                }),
            }),
        };
        let weak = sel.downgrade();
        let polls = sel.inner.counters[SelectorCounter::Polls].clone();
        sel.inner.base.set_drain(polls, move |sim, thread| {
            if let Some(sel) = weak.upgrade() {
                sel.drain(sim, thread);
            }
        });
        sel
    }

    fn downgrade(&self) -> WeakSelector {
        WeakSelector(Rc::downgrade(&self.inner))
    }

    /// Enters `key`'s channel or server in the table; returns what the
    /// registrant keeps.
    fn insert(&self, key: RubinKey, what: Registered) -> Registration {
        let entry = Entry {
            what,
            polled_through: 0,
        };
        self.inner.manager.borrow_mut().table.insert(key, entry);
        Registration {
            selector: self.downgrade(),
            key,
        }
    }

    /// Ensures the device's CM events flow into the hybrid queue.
    fn hook_cm(&self) {
        let already = std::mem::replace(&mut self.inner.manager.borrow_mut().cm_hooked, true);
        if already {
            return;
        }
        let sel = self.downgrade();
        self.inner.device.set_cm_hook(Rc::new(move |sim| {
            let Some(sel) = sel.upgrade() else { return };
            // Event manager: copy CM events into the first thread's
            // hybrid queue.
            while let Some(ev) = sel.inner.device.poll_cm_event() {
                sel.inner.manager.borrow_mut().threads[0]
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
        let base = &self.inner.base;
        let thread = base.thread_on(channel.core());
        let key = base.register(channel.core(), interest);
        channel.set_registration(self.insert(key, Registered::Channel(channel.clone())));
        let sel = self.downgrade();
        channel.qp().set_event_hook(Rc::new(move |sim| {
            let Some(sel) = sel.upgrade() else { return };
            sel.inner.manager.borrow_mut().threads[thread]
                .hybrid
                .push(RubinEvent::Completion { key });
            sel.schedule_process(sim, thread);
        }));
        self.hook_cm();
        // Report the channel's current readiness under the new key.
        channel.refresh_readiness(sim);
        key
    }

    /// Registers a server channel for `OP_CONNECT` readiness, served by the
    /// select thread on its core.
    pub fn register_server(&self, sim: &mut Simulator, server: &RdmaServerChannel) -> RubinKey {
        let base = &self.inner.base;
        let key = base.register(server.core(), Interest::OP_CONNECT);
        server.set_registration(self.insert(key, Registered::Server(server.clone())));
        self.hook_cm();
        if server.pending_count() > 0 {
            base.set_ready(sim, key, Interest::OP_CONNECT, true);
        }
        key
    }

    /// Replaces a key's interest set; a cancelled key is left alone.
    pub fn set_interest(&self, sim: &mut Simulator, key: RubinKey, interest: Interest) {
        self.inner.base.set_interest(sim, key, interest);
    }

    /// Cancels a registration: the key never fires again, and its channel
    /// or server leaves the table.
    pub fn cancel(&self, key: RubinKey) {
        self.inner.base.cancel(key);
        self.inner.manager.borrow_mut().table.remove(&key);
    }

    /// How many select threads the selector runs.
    pub fn threads(&self) -> usize {
        self.inner.base.threads()
    }

    /// The core `thread` runs on.
    pub fn core(&self, thread: usize) -> CoreId {
        self.inner.base.core(thread)
    }

    /// Schedules `thread`'s hybrid-queue processing (the event-manager
    /// notification).
    fn schedule_process(&self, sim: &mut Simulator, thread: usize) {
        {
            let mut manager = self.inner.manager.borrow_mut();
            let t = &mut manager.threads[thread];
            if t.process_scheduled {
                return;
            }
            t.process_scheduled = true;
        }
        let sel = self.clone();
        sim.schedule_in(Nanos::ZERO, move |sim| {
            sel.inner.manager.borrow_mut().threads[thread].process_scheduled = false;
            sel.process(sim, thread);
        });
    }

    /// The event-manager notification: an idle thread handles the events
    /// where they arrive; one with a wake-up pending leaves them queued for
    /// the wake-up's own drain.
    fn process(&self, sim: &mut Simulator, thread: usize) {
        if !self.inner.base.wake_pending(thread) {
            self.drain(sim, thread);
        }
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
                let mut manager = self.inner.manager.borrow_mut();
                let hybrid = &mut manager.threads[thread].hybrid;
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
                        let mut guard = self.inner.manager.borrow_mut();
                        let manager = &mut *guard;
                        let queued = manager.threads[thread].hybrid.total_events();
                        match manager.table.get_mut(&key) {
                            Some(Entry {
                                what: Registered::Channel(c),
                                polled_through,
                            }) if *polled_through < seq => {
                                *polled_through = queued;
                                Some(c.clone())
                            }
                            _ => None,
                        }
                    };
                    if let Some(c) = chan {
                        let found = c.process_completions(sim);
                        self.inner.counters[SelectorCounter::CqPolls].incr();
                        if found == 0 {
                            self.inner.counters[SelectorCounter::CqPollsEmpty].incr();
                        }
                    }
                }
                RubinEvent::Connection(cm) => self.dispatch_cm(sim, cm),
            }
        }
        if dispatched > 0 {
            self.inner.counters[SelectorCounter::EventsDispatched].add(dispatched);
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
            CmEvent::Established { conn_id, .. } => {
                if let Some(c) = self.find_channel(|c| c.conn_id() == Some(conn_id)) {
                    c.mark_established(sim);
                }
            }
            CmEvent::ConnectFailed { conn_id, reason } => {
                if let Some(c) = self.find_channel(|c| c.conn_id() == Some(conn_id)) {
                    c.mark_broken(sim, reason);
                }
            }
            CmEvent::Disconnected { qp } => {
                if let Some(c) = self.find_channel(|c| c.qp().num() == qp) {
                    c.mark_disconnected(sim);
                }
            }
        }
    }

    fn find_server(&self, port: u32) -> Option<RdmaServerChannel> {
        let manager = self.inner.manager.borrow();
        manager.table.values().find_map(|e| match &e.what {
            Registered::Server(s) if s.port() == port => Some(s.clone()),
            _ => None,
        })
    }

    /// The first registered channel, in key order, that `pred` holds for.
    fn find_channel(&self, pred: impl Fn(&RdmaChannel) -> bool) -> Option<RdmaChannel> {
        let manager = self.inner.manager.borrow();
        manager.table.values().find_map(|e| match &e.what {
            Registered::Channel(c) if pred(c) => Some(c.clone()),
            _ => None,
        })
    }

    /// The channel registered under `key`, if it is a (live) channel key.
    pub fn channel_for(&self, key: RubinKey) -> Option<RdmaChannel> {
        match &self.inner.manager.borrow().table.get(&key)?.what {
            Registered::Channel(c) => Some(c.clone()),
            _ => None,
        }
    }

    /// The server channel registered under `key`, if any.
    pub fn server_for(&self, key: RubinKey) -> Option<RdmaServerChannel> {
        match &self.inner.manager.borrow().table.get(&key)?.what {
            Registered::Server(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Non-blocking select on `thread`: charges one select call, handles
    /// the events that have arrived there and returns the thread's ready
    /// keys.
    pub fn select_now(&self, sim: &mut Simulator, thread: usize) -> Vec<SelectedKey> {
        self.inner.base.select_now(sim, thread)
    }

    /// Blocking select on `thread`: `f` runs (after one select-call cost,
    /// charged to the thread's core) once at least one of the thread's
    /// keys is ready, with those keys; the thread's hybrid queue is
    /// drained first. See [`simnet::Selector::select`].
    ///
    /// # Panics
    ///
    /// Panics if a select is already parked on `thread` (one call per
    /// thread) or there is no such thread.
    pub fn select(
        &self,
        sim: &mut Simulator,
        thread: usize,
        f: impl FnOnce(&mut Simulator, &[SelectedKey]) + 'static,
    ) {
        self.inner.base.select(sim, thread, f);
    }
}
