//! A Java-NIO-style selector for the simulated TCP stack.
//!
//! This is the baseline RUBIN is measured against in Figure 4: one selector
//! (one thread) multiplexing many non-blocking channels. Channels report
//! readiness transitions to the selector; a parked `select()` continuation
//! is woken when any registered key becomes ready, after charging the
//! select-call cost to the selector's core (the Java NIO selector is backed
//! by epoll and is highly optimized — paper §IV notes RUBIN's select is
//! slower, which the respective cost constants reflect).
//!
//! An endpoint may run one selector per core; [`Selector::sibling`] makes
//! the next one, drawing its keys from the same sequence so that a key
//! names one registration across all of them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{BitOr, BitOrAssign};
use std::rc::{Rc, Weak};

use simnet::{Action, CoreId, HostId, Nanos, Network, Simulator};

/// Interest/readiness operation flags (Java `SelectionKey` ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ops(u8);

impl Ops {
    /// No operations.
    pub const NONE: Ops = Ops(0);
    /// Channel has bytes to read (or EOF).
    pub const READ: Ops = Ops(1);
    /// Channel can accept more outbound bytes.
    pub const WRITE: Ops = Ops(2);
    /// Listener has pending inbound connections.
    pub const ACCEPT: Ops = Ops(4);
    /// Outbound connection completed.
    pub const CONNECT: Ops = Ops(8);

    /// True if every flag in `other` is set in `self`.
    pub fn contains(self, other: Ops) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if any flag is shared with `other`.
    pub fn intersects(self, other: Ops) -> bool {
        self.0 & other.0 != 0
    }

    /// The intersection of the two sets.
    pub fn and(self, other: Ops) -> Ops {
        Ops(self.0 & other.0)
    }

    /// Removes the flags in `other`.
    pub fn without(self, other: Ops) -> Ops {
        Ops(self.0 & !other.0)
    }

    /// True if no flag is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for Ops {
    type Output = Ops;
    fn bitor(self, rhs: Ops) -> Ops {
        Ops(self.0 | rhs.0)
    }
}

impl BitOrAssign for Ops {
    fn bitor_assign(&mut self, rhs: Ops) {
        self.0 |= rhs.0;
    }
}

/// Identifier of a channel registration with a selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

/// One entry returned by a select call: which key, and which of its
/// interest ops are ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selected {
    /// The registration.
    pub key: KeyId,
    /// Ready ops intersected with the key's interest set.
    pub ready: Ops,
}

struct KeyState {
    interest: Ops,
    ready: Ops,
    cancelled: bool,
}

struct SelInner {
    net: Network,
    host: HostId,
    core: CoreId,
    select_ns: u64,
    keys: BTreeMap<KeyId, KeyState>,
    /// The next key id, shared with every sibling.
    next_key: Rc<Cell<u64>>,
    /// The parked select call, held in place; it reads `ready` when run.
    parked: Option<Action>,
    /// The ready keys handed to the parked call, kept between wake-ups.
    ready: Vec<Selected>,
    wake_scheduled: bool,
    selects: u64,
}

/// A readiness selector multiplexing channels on a single simulated thread.
#[derive(Clone)]
pub struct Selector {
    inner: Rc<RefCell<SelInner>>,
}

impl fmt::Debug for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Selector")
            .field("keys", &inner.keys.len())
            .field("parked", &inner.parked.is_some())
            .field("selects", &inner.selects)
            .finish()
    }
}

impl Selector {
    /// Creates a selector whose select calls are charged to `core` of
    /// `host`, costing `select_ns` per call.
    pub fn new(net: &Network, host: HostId, core: CoreId, select_ns: u64) -> Selector {
        Selector::with_keys(net, host, core, select_ns, Rc::default())
    }

    fn with_keys(
        net: &Network,
        host: HostId,
        core: CoreId,
        select_ns: u64,
        next_key: Rc<Cell<u64>>,
    ) -> Selector {
        Selector {
            inner: Rc::new(RefCell::new(SelInner {
                net: net.clone(),
                host,
                core,
                select_ns,
                keys: BTreeMap::new(),
                next_key,
                parked: None,
                ready: Vec::new(),
                wake_scheduled: false,
                selects: 0,
            })),
        }
    }

    /// Another selector (another thread) of the same host and cost, on
    /// `core`. Its keys and this one's never collide.
    pub fn sibling(&self, core: CoreId) -> Selector {
        let inner = self.inner.borrow();
        let next_key = inner.next_key.clone();
        Selector::with_keys(&inner.net, inner.host, core, inner.select_ns, next_key)
    }

    /// The core this selector's thread runs on.
    pub fn core(&self) -> CoreId {
        self.inner.borrow().core
    }

    /// Registers a new key with the given interest set. Channels call this
    /// and then report readiness transitions via [`Selector::set_ready`].
    pub fn register(&self, interest: Ops) -> KeyId {
        let mut inner = self.inner.borrow_mut();
        let key = KeyId(inner.next_key.get());
        inner.next_key.set(key.0 + 1);
        inner.keys.insert(
            key,
            KeyState {
                interest,
                ready: Ops::NONE,
                cancelled: false,
            },
        );
        key
    }

    /// Replaces a key's interest set.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown.
    pub fn set_interest(&self, sim: &mut Simulator, key: KeyId, interest: Ops) {
        {
            let mut inner = self.inner.borrow_mut();
            let ks = inner.keys.get_mut(&key).expect("unknown selection key");
            ks.interest = interest;
        }
        self.maybe_wake(sim);
    }

    /// A key's current interest set.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown.
    pub fn interest(&self, key: KeyId) -> Ops {
        self.inner.borrow().keys[&key].interest
    }

    /// Cancels a registration; the key never fires again.
    pub fn cancel(&self, key: KeyId) {
        if let Some(ks) = self.inner.borrow_mut().keys.get_mut(&key) {
            ks.cancelled = true;
            ks.interest = Ops::NONE;
        }
    }

    /// Channel-side: sets or clears readiness `op` for `key`, waking a
    /// parked select if the key becomes interesting.
    pub fn set_ready(&self, sim: &mut Simulator, key: KeyId, op: Ops, on: bool) {
        {
            let mut inner = self.inner.borrow_mut();
            let Some(ks) = inner.keys.get_mut(&key) else {
                return;
            };
            if ks.cancelled {
                return;
            }
            if on {
                ks.ready |= op;
            } else {
                ks.ready = ks.ready.without(op);
            }
        }
        if on {
            self.maybe_wake(sim);
        }
    }

    /// Non-blocking select: charges one select call and returns the ready
    /// keys (possibly empty).
    pub fn select_now(&self, sim: &mut Simulator) -> Vec<Selected> {
        {
            let mut inner = self.inner.borrow_mut();
            inner.selects += 1;
            let (host, core, ns) = (inner.host, inner.core, inner.select_ns);
            let net = inner.net.clone();
            drop(inner);
            net.host(host)
                .borrow_mut()
                .exec(sim.now(), core, Nanos::from_nanos(ns));
        }
        self.collect_ready()
    }

    /// Blocking select: `f` runs (after one select-call cost) as soon as at
    /// least one registered key is ready — immediately if one already is —
    /// with the ready keys. Neither the parked call nor the key list
    /// allocates: the selector keeps both.
    ///
    /// # Panics
    ///
    /// Panics if a select is already parked (the selector models a single
    /// thread).
    pub fn select(
        &self,
        sim: &mut Simulator,
        f: impl FnOnce(&mut Simulator, &[Selected]) + 'static,
    ) {
        // The call is stored in the selector itself: it holds the selector
        // weakly.
        let sel = Rc::downgrade(&self.inner);
        let call = Action::new(move |sim| {
            let Some(sel) = Weak::upgrade(&sel) else {
                return;
            };
            let mut ready = std::mem::take(&mut sel.borrow_mut().ready);
            f(sim, &ready);
            ready.clear();
            sel.borrow_mut().ready = ready;
        });
        {
            let mut inner = self.inner.borrow_mut();
            assert!(
                inner.parked.is_none(),
                "selector already has a parked select call"
            );
            inner.parked = Some(call);
        }
        self.maybe_wake(sim);
    }

    /// Number of select calls performed (cost accounting checks).
    pub fn selects_performed(&self) -> u64 {
        self.inner.borrow().selects
    }

    fn collect_ready(&self) -> Vec<Selected> {
        ready_keys(&self.inner.borrow().keys).collect()
    }

    fn maybe_wake(&self, sim: &mut Simulator) {
        let fire_at = {
            let mut inner = self.inner.borrow_mut();
            if inner.parked.is_none() || inner.wake_scheduled {
                return;
            }
            let any_ready = inner
                .keys
                .values()
                .any(|ks| !ks.cancelled && ks.ready.intersects(ks.interest));
            if !any_ready {
                return;
            }
            inner.wake_scheduled = true;
            inner.selects += 1;
            let (host, core, ns) = (inner.host, inner.core, inner.select_ns);
            let net = inner.net.clone();
            drop(inner);
            net.host(host)
                .borrow_mut()
                .exec(sim.now(), core, Nanos::from_nanos(ns))
        };
        let sel = self.clone();
        sim.schedule_at(fire_at, move |sim| {
            let cb = {
                let mut inner = sel.inner.borrow_mut();
                inner.wake_scheduled = false;
                inner.parked.take()
            };
            let Some(cb) = cb else { return };
            let any = {
                let mut guard = sel.inner.borrow_mut();
                let inner = &mut *guard;
                inner.ready.clear();
                inner.ready.extend(ready_keys(&inner.keys));
                !inner.ready.is_empty()
            };
            if any {
                cb.run(sim);
            } else {
                // Readiness vanished while waking: re-park.
                sel.inner.borrow_mut().parked = Some(cb);
            }
        });
    }
}

/// The live keys whose ready set meets their interest, in key order.
fn ready_keys(keys: &BTreeMap<KeyId, KeyState>) -> impl Iterator<Item = Selected> + '_ {
    keys.iter()
        .filter(|(_, ks)| !ks.cancelled)
        .filter_map(|(k, ks)| {
            let ready = ks.ready.and(ks.interest);
            (!ready.is_empty()).then_some(Selected { key: *k, ready })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{CpuModel, LinkSpec, TestBed};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup() -> (Simulator, Selector) {
        let tb = TestBed::paper_testbed(0);
        let sel = Selector::new(&tb.net, tb.a, CoreId(0), 1_000);
        (tb.sim, sel)
    }

    #[test]
    fn ops_flag_algebra() {
        let rw = Ops::READ | Ops::WRITE;
        assert!(rw.contains(Ops::READ));
        assert!(rw.intersects(Ops::WRITE));
        assert!(!rw.contains(Ops::ACCEPT));
        assert_eq!(rw.without(Ops::READ), Ops::WRITE);
        assert_eq!(rw.and(Ops::READ), Ops::READ);
        assert!(Ops::NONE.is_empty());
    }

    #[test]
    fn select_now_returns_ready_interest_intersection() {
        let (mut sim, sel) = setup();
        let k1 = sel.register(Ops::READ);
        let _k2 = sel.register(Ops::WRITE);
        sel.set_ready(&mut sim, k1, Ops::READ | Ops::WRITE, true);
        let ready = sel.select_now(&mut sim);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].key, k1);
        assert_eq!(ready[0].ready, Ops::READ);
    }

    #[test]
    fn parked_select_wakes_on_readiness() {
        let (mut sim, sel) = setup();
        let k = sel.register(Ops::READ);
        let fired: Rc<RefCell<Vec<Selected>>> = Rc::new(RefCell::new(vec![]));
        let f = fired.clone();
        sel.select(&mut sim, move |_sim, ready| {
            *f.borrow_mut() = ready.to_vec();
        });
        sim.run_until_idle();
        assert!(fired.borrow().is_empty(), "nothing ready yet");
        sel.set_ready(&mut sim, k, Ops::READ, true);
        sim.run_until_idle();
        assert_eq!(fired.borrow().len(), 1);
        assert_eq!(fired.borrow()[0].ready, Ops::READ);
    }

    #[test]
    fn select_fires_immediately_if_already_ready() {
        let (mut sim, sel) = setup();
        let k = sel.register(Ops::ACCEPT);
        sel.set_ready(&mut sim, k, Ops::ACCEPT, true);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        sel.select(&mut sim, move |_s, ready| {
            assert_eq!(ready[0].ready, Ops::ACCEPT);
            *h.borrow_mut() = true;
        });
        sim.run_until_idle();
        assert!(*hit.borrow());
    }

    #[test]
    fn readiness_cleared_before_wake_reparks() {
        let (mut sim, sel) = setup();
        let k = sel.register(Ops::READ);
        let hit = Rc::new(RefCell::new(0u32));
        let h = hit.clone();
        sel.select(&mut sim, move |_s, _r| {
            *h.borrow_mut() += 1;
        });
        // Set then immediately clear readiness; the wake finds nothing.
        sel.set_ready(&mut sim, k, Ops::READ, true);
        sel.set_ready(&mut sim, k, Ops::READ, false);
        sim.run_until_idle();
        assert_eq!(*hit.borrow(), 0);
        // Later readiness still wakes the re-parked call.
        sel.set_ready(&mut sim, k, Ops::READ, true);
        sim.run_until_idle();
        assert_eq!(*hit.borrow(), 1);
    }

    #[test]
    fn siblings_draw_keys_from_one_sequence() {
        let (mut sim, sel) = setup();
        let other = sel.sibling(CoreId(1));
        let keys = [
            sel.register(Ops::READ),
            other.register(Ops::READ),
            sel.register(Ops::READ),
        ];
        assert_eq!(keys, [KeyId(0), KeyId(1), KeyId(2)]);
        // Each sibling reports only its own registrations, on its own core.
        other.set_ready(&mut sim, keys[1], Ops::READ, true);
        assert!(sel.select_now(&mut sim).is_empty());
        assert_eq!(other.select_now(&mut sim)[0].key, keys[1]);
        assert_eq!(other.core(), CoreId(1));
    }

    #[test]
    fn cancelled_key_never_fires() {
        let (mut sim, sel) = setup();
        let k = sel.register(Ops::READ);
        sel.cancel(k);
        sel.set_ready(&mut sim, k, Ops::READ, true);
        assert!(sel.select_now(&mut sim).is_empty());
    }

    #[test]
    fn interest_change_can_trigger_wake() {
        let (mut sim, sel) = setup();
        let k = sel.register(Ops::NONE);
        sel.set_ready(&mut sim, k, Ops::READ, true);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        sel.select(&mut sim, move |_s, _r| {
            *h.borrow_mut() = true;
        });
        sim.run_until_idle();
        assert!(!*hit.borrow());
        sel.set_interest(&mut sim, k, Ops::READ);
        sim.run_until_idle();
        assert!(*hit.borrow());
    }

    #[test]
    fn select_charges_cpu_time() {
        let tb = TestBed::paper_testbed(0);
        let mut sim = tb.sim;
        let sel = Selector::new(&tb.net, tb.a, CoreId(0), 1_000);
        let busy0 = tb.net.host(tb.a).borrow().total_busy_time();
        sel.select_now(&mut sim);
        let busy1 = tb.net.host(tb.a).borrow().total_busy_time();
        assert_eq!((busy1 - busy0).as_nanos(), 1_000);
    }

    #[test]
    #[should_panic(expected = "already has a parked select")]
    fn double_park_panics() {
        let (mut sim, sel) = setup();
        sel.select(&mut sim, |_s, _r| {});
        sel.select(&mut sim, |_s, _r| {});
    }

    #[test]
    fn multi_host_setup_compiles_with_links() {
        // Smoke test that the selector works with hosts on other networks.
        let net = simnet::Network::new();
        let h = net.add_host("x", 2, CpuModel::xeon_v2());
        let h2 = net.add_host("y", 2, CpuModel::xeon_v2());
        net.connect(h, h2, LinkSpec::ten_gbe());
        let mut sim = Simulator::new(0);
        let sel = Selector::new(&net, h, CoreId(1), 500);
        let k = sel.register(Ops::WRITE);
        sel.set_ready(&mut sim, k, Ops::WRITE, true);
        assert_eq!(sel.select_now(&mut sim).len(), 1);
    }
}
