//! The selector core under both comm stacks.
//!
//! RUBIN's selector is built after the Java NIO selector (paper §III-B):
//! channels register selection keys with an interest set, report
//! readiness transitions into the key's ready set, and a blocking
//! `select()` parks until one of its keys is ready. [`Selector`] is that
//! design, written once. It runs one select thread per core. A key is
//! served by the thread on its registrant's core (the first thread if none
//! runs there), and each thread has its own parked call, ready list and
//! wake-up, and charges its select calls to its own core.
//!
//! What the stacks differ in stays with them. Each names its flags with
//! [`select_ops!`](crate::select_ops): `simnet_socket::Ops` after Java,
//! `rubin::Interest` after the paper. Each sets its own select-call cost
//! (the epoll-backed NIO select is cheaper than RUBIN's, paper §IV). RUBIN
//! replaces epoll with a hybrid event queue and an event manager, and
//! hands the core the drain of that queue ([`Selector::set_drain`]), which
//! runs whenever a select thread runs, before the ready sets are read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::{Action, CoreId, Counter, HostId, Nanos, Network, Simulator};

/// A stack's interest/readiness flags: a set over one byte, declared with
/// [`select_ops!`](crate::select_ops).
pub trait SelectOps: Copy + 'static {
    /// The set's bits.
    fn bits(self) -> u8;
    /// The set with these bits.
    fn from_bits(bits: u8) -> Self;
}

/// Declares a stack's interest/readiness flag set: a `Copy` struct over
/// one byte with a `NONE` constant, one constant per flag, the set algebra
/// and `|`, implementing [`SelectOps`].
///
/// ```
/// simnet::select_ops! {
///     /// Flags of a widget channel.
///     pub struct WidgetOps {
///         /// Spun up.
///         SPUN = 1,
///         /// Jammed.
///         JAMMED = 2,
///     }
/// }
///
/// let both = WidgetOps::SPUN | WidgetOps::JAMMED;
/// assert!(both.contains(WidgetOps::SPUN));
/// assert_eq!(both.without(WidgetOps::SPUN), WidgetOps::JAMMED);
/// ```
#[macro_export]
macro_rules! select_ops {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$flag_meta:meta])* $flag:ident = $bit:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $vis struct $name(u8);

        impl $name {
            /// No operations.
            pub const NONE: $name = $name(0);
            $($(#[$flag_meta])* pub const $flag: $name = $name($bit);)+

            /// True if every flag of `other` is set in `self`.
            pub fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            /// True if any flag is shared with `other`.
            pub fn intersects(self, other: $name) -> bool {
                self.0 & other.0 != 0
            }

            /// The intersection of the two sets.
            pub fn and(self, other: $name) -> $name {
                $name(self.0 & other.0)
            }

            /// Removes the flags in `other`.
            pub fn without(self, other: $name) -> $name {
                $name(self.0 & !other.0)
            }

            /// True if no flag is set.
            pub fn is_empty(self) -> bool {
                self.0 == 0
            }
        }

        impl ::std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name {
                $name(self.0 | rhs.0)
            }
        }

        impl ::std::ops::BitOrAssign for $name {
            fn bitor_assign(&mut self, rhs: $name) {
                self.0 |= rhs.0;
            }
        }

        impl $crate::SelectOps for $name {
            fn bits(self) -> u8 {
                self.0
            }
            fn from_bits(bits: u8) -> $name {
                $name(bits)
            }
        }
    };
}

/// Identifier of a registration with a [`Selector`]; keys are unique
/// across its threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

/// One entry returned by a select call: which key, and which of its
/// interest ops are ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selected<O> {
    /// The registration.
    pub key: KeyId,
    /// Ready ops intersected with the key's interest set.
    pub ready: O,
}

struct Key {
    /// The select thread this key reports to.
    thread: usize,
    interest: u8,
    ready: u8,
}

/// One select thread: the core it runs on and what it waits with.
struct Thread<O> {
    core: CoreId,
    /// The parked select call, held in place; it reads `ready` when run.
    parked: Option<Action>,
    /// The ready keys handed to the parked call, kept between wake-ups.
    ready: Vec<Selected<O>>,
    wake_scheduled: bool,
}

/// A stack's drain, called with the index of the select thread that runs.
type DrainFn = dyn Fn(&mut Simulator, usize);

/// What a stack runs when one of its select threads runs.
struct Drain {
    /// Bumped at every select call the core charges.
    selects: Counter,
    run: Box<DrainFn>,
}

struct Inner<O> {
    net: Network,
    host: HostId,
    select_ns: u64,
    keys: BTreeMap<KeyId, Key>,
    next_key: u64,
    threads: Vec<Thread<O>>,
    drain: Option<Rc<Drain>>,
}

/// A readiness selector multiplexing channels on one simulated select
/// thread per core.
pub struct Selector<O> {
    inner: Rc<RefCell<Inner<O>>>,
}

impl<O> Clone for Selector<O> {
    fn clone(&self) -> Self {
        Selector {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<O> fmt::Debug for Selector<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Selector")
            .field("keys", &inner.keys.len())
            .field("threads", &inner.threads.len())
            .finish()
    }
}

impl<O: SelectOps> Selector<O> {
    /// Creates a selector on `host` with one select thread per entry of
    /// `cores`, thread `i` charging its select calls, `select_ns` each, to
    /// `cores[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn new(net: &Network, host: HostId, cores: &[CoreId], select_ns: u64) -> Selector<O> {
        assert!(!cores.is_empty(), "a selector needs a select thread");
        let threads = cores
            .iter()
            .map(|&core| Thread {
                core,
                parked: None,
                ready: Vec::new(),
                wake_scheduled: false,
            })
            .collect();
        Selector {
            inner: Rc::new(RefCell::new(Inner {
                net: net.clone(),
                host,
                select_ns,
                keys: BTreeMap::new(),
                next_key: 0,
                threads,
                drain: None,
            })),
        }
    }

    /// Installs the stack's drain: `drain(sim, thread)` runs each time
    /// `thread` runs — in a blocking select's wake-up and in
    /// [`Selector::select_now`] — before its ready sets are read, and
    /// `selects` counts every select call. A drain stored here must hold
    /// what it reaches weakly: the selector owns it.
    pub fn set_drain(&self, selects: Counter, drain: impl Fn(&mut Simulator, usize) + 'static) {
        self.inner.borrow_mut().drain = Some(Rc::new(Drain {
            selects,
            run: Box::new(drain),
        }));
    }

    /// How many select threads the selector runs.
    pub fn threads(&self) -> usize {
        self.inner.borrow().threads.len()
    }

    /// The core `thread` runs on.
    pub fn core(&self, thread: usize) -> CoreId {
        self.inner.borrow().threads[thread].core
    }

    /// The thread serving a registrant on `core`: the one running there,
    /// or the first if none does.
    pub fn thread_on(&self, core: CoreId) -> usize {
        let threads = &self.inner.borrow().threads;
        threads.iter().position(|t| t.core == core).unwrap_or(0)
    }

    /// Registers a new key with the given interest set for a registrant
    /// on `core`. The registrant then reports readiness transitions with
    /// [`Selector::set_ready`].
    pub fn register(&self, core: CoreId, interest: O) -> KeyId {
        let thread = self.thread_on(core);
        let mut inner = self.inner.borrow_mut();
        let key = KeyId(inner.next_key);
        inner.next_key += 1;
        let key_state = Key {
            thread,
            interest: interest.bits(),
            ready: 0,
        };
        inner.keys.insert(key, key_state);
        key
    }

    /// Replaces a key's interest set; a cancelled key is left alone.
    pub fn set_interest(&self, sim: &mut Simulator, key: KeyId, interest: O) {
        let thread = {
            let mut inner = self.inner.borrow_mut();
            let Some(k) = inner.keys.get_mut(&key) else {
                return;
            };
            k.interest = interest.bits();
            k.thread
        };
        self.maybe_wake(sim, thread);
    }

    /// Cancels a registration: the key leaves the table and never fires
    /// again.
    pub fn cancel(&self, key: KeyId) {
        self.inner.borrow_mut().keys.remove(&key);
    }

    /// Registrant-side: sets or clears readiness `op` for `key`, waking
    /// its thread's parked select if the key becomes interesting. A
    /// cancelled key is ignored.
    pub fn set_ready(&self, sim: &mut Simulator, key: KeyId, op: O, on: bool) {
        let thread = {
            let mut inner = self.inner.borrow_mut();
            let Some(k) = inner.keys.get_mut(&key) else {
                return;
            };
            if on {
                k.ready |= op.bits();
            } else {
                k.ready &= !op.bits();
            }
            k.thread
        };
        if on {
            self.maybe_wake(sim, thread);
        }
    }

    /// Whether a wake-up of `thread`'s parked select is scheduled.
    pub fn wake_pending(&self, thread: usize) -> bool {
        self.inner.borrow().threads[thread].wake_scheduled
    }

    /// Non-blocking select on `thread`: charges one select call, runs the
    /// drain and returns the thread's ready keys (possibly none).
    pub fn select_now(&self, sim: &mut Simulator, thread: usize) -> Vec<Selected<O>> {
        self.charge(sim, thread);
        self.drain(sim, thread);
        ready_keys(&self.inner.borrow().keys, thread).collect()
    }

    /// Blocking select on `thread`: `f` runs (after one select-call cost,
    /// charged to the thread's core) once at least one of the thread's
    /// keys is ready — at once if one already is — with those keys.
    /// Neither the parked call nor the key list allocates: the thread
    /// keeps both.
    ///
    /// # Panics
    ///
    /// Panics if a select is already parked on `thread` (one call per
    /// thread) or there is no such thread.
    pub fn select(
        &self,
        sim: &mut Simulator,
        thread: usize,
        f: impl FnOnce(&mut Simulator, &[Selected<O>]) + 'static,
    ) {
        // The call is stored in the selector itself: it holds the selector
        // weakly.
        let sel = Rc::downgrade(&self.inner);
        let call = Action::new(move |sim| {
            let Some(sel) = sel.upgrade() else { return };
            let mut ready = std::mem::take(&mut sel.borrow_mut().threads[thread].ready);
            f(sim, &ready);
            ready.clear();
            sel.borrow_mut().threads[thread].ready = ready;
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

    /// Charges one select call to `thread`'s core; returns when it ends.
    fn charge(&self, sim: &mut Simulator, thread: usize) -> Nanos {
        let inner = self.inner.borrow();
        if let Some(drain) = &inner.drain {
            drain.selects.incr();
        }
        let core = inner.threads[thread].core;
        let work = Nanos::from_nanos(inner.select_ns);
        let host = inner.net.host(inner.host);
        drop(inner);
        let mut host = host.borrow_mut();
        host.exec(sim.now(), core, work)
    }

    fn drain(&self, sim: &mut Simulator, thread: usize) {
        let drain = self.inner.borrow().drain.clone();
        if let Some(drain) = drain {
            (drain.run)(sim, thread);
        }
    }

    fn maybe_wake(&self, sim: &mut Simulator, thread: usize) {
        {
            let inner = self.inner.borrow();
            let t = &inner.threads[thread];
            if t.parked.is_none() || t.wake_scheduled {
                return;
            }
            let any_ready = inner
                .keys
                .values()
                .any(|k| k.thread == thread && k.ready & k.interest != 0);
            if !any_ready {
                return;
            }
        }
        self.inner.borrow_mut().threads[thread].wake_scheduled = true;
        let fire_at = self.charge(sim, thread);
        let sel = self.clone();
        sim.schedule_at(fire_at, move |sim| {
            let call = {
                let mut inner = sel.inner.borrow_mut();
                let t = &mut inner.threads[thread];
                t.wake_scheduled = false;
                t.parked.take()
            };
            // The select thread runs: what the stack queued while it was
            // busy is handled now, before the ready sets are read.
            sel.drain(sim, thread);
            let Some(call) = call else { return };
            let any = {
                let mut guard = sel.inner.borrow_mut();
                let inner = &mut *guard;
                let t = &mut inner.threads[thread];
                t.ready.clear();
                t.ready.extend(ready_keys(&inner.keys, thread));
                !t.ready.is_empty()
            };
            if any {
                call.run(sim);
            } else {
                // Readiness vanished while waking: re-park.
                sel.inner.borrow_mut().threads[thread].parked = Some(call);
            }
        });
    }
}

/// `thread`'s keys whose ready set meets their interest, in key order.
fn ready_keys<O: SelectOps>(
    keys: &BTreeMap<KeyId, Key>,
    thread: usize,
) -> impl Iterator<Item = Selected<O>> + '_ {
    keys.iter()
        .filter(move |(_, k)| k.thread == thread)
        .filter_map(|(&key, k)| {
            let ready = k.ready & k.interest;
            (ready != 0).then(|| Selected {
                key,
                ready: O::from_bits(ready),
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuModel, LinkSpec, TestBed};
    use std::cell::{Cell, RefCell};

    crate::select_ops! {
        /// Flags for the tests, after Java's.
        struct Ops {
            READ = 1,
            WRITE = 2,
            ACCEPT = 4,
        }
    }

    fn setup() -> (Simulator, Selector<Ops>) {
        let tb = TestBed::paper_testbed(0);
        let sel = Selector::new(&tb.net, tb.a, &[CoreId(0)], 1_000);
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
        let mut x = Ops::NONE;
        x |= Ops::ACCEPT;
        assert_eq!(Ops::from_bits(x.bits()), Ops::ACCEPT);
    }

    #[test]
    fn select_now_returns_ready_interest_intersection() {
        let (mut sim, sel) = setup();
        let k1 = sel.register(CoreId(0), Ops::READ);
        let _k2 = sel.register(CoreId(0), Ops::WRITE);
        sel.set_ready(&mut sim, k1, Ops::READ | Ops::WRITE, true);
        let ready = sel.select_now(&mut sim, 0);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].key, k1);
        assert_eq!(ready[0].ready, Ops::READ);
    }

    #[test]
    fn parked_select_wakes_on_readiness() {
        let (mut sim, sel) = setup();
        let k = sel.register(CoreId(0), Ops::READ);
        let fired: Rc<RefCell<Vec<Selected<Ops>>>> = Rc::new(RefCell::new(vec![]));
        let f = fired.clone();
        sel.select(&mut sim, 0, move |_sim, ready| {
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
        let k = sel.register(CoreId(0), Ops::ACCEPT);
        sel.set_ready(&mut sim, k, Ops::ACCEPT, true);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        sel.select(&mut sim, 0, move |_s, ready| {
            assert_eq!(ready[0].ready, Ops::ACCEPT);
            *h.borrow_mut() = true;
        });
        sim.run_until_idle();
        assert!(*hit.borrow());
    }

    #[test]
    fn readiness_cleared_before_wake_reparks() {
        let (mut sim, sel) = setup();
        let k = sel.register(CoreId(0), Ops::READ);
        let hit = Rc::new(RefCell::new(0u32));
        let h = hit.clone();
        sel.select(&mut sim, 0, move |_s, _r| {
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
        // Two select threads of one selector, on cores 0 and 1.
        let tb = TestBed::paper_testbed(0);
        let mut sim = tb.sim;
        let sel: Selector<Ops> = Selector::new(&tb.net, tb.a, &[CoreId(0), CoreId(1)], 1_000);
        let busy = |core| tb.net.host(tb.a).borrow().core_busy_time(core).as_nanos();
        // The drain records the threads it ran on and, on thread 1, makes
        // `late` ready: a key it reports is read in the same select.
        let drained = Rc::new(RefCell::new(Vec::new()));
        let late = Rc::new(Cell::new(None));
        let (d, l, s) = (drained.clone(), late.clone(), sel.clone());
        let selects = tb.net.metrics().counter_handle("test.selects");
        sel.set_drain(selects, move |sim, thread| {
            d.borrow_mut().push(thread);
            if let (1, Some(key)) = (thread, l.get()) {
                s.set_ready(sim, key, Ops::READ, true);
            }
        });

        // Keys come from one sequence across the threads; a registrant
        // on a core no thread runs on goes to the first thread.
        let keys = [
            sel.register(CoreId(0), Ops::READ),
            sel.register(CoreId(1), Ops::READ),
            sel.register(CoreId(3), Ops::READ),
            sel.register(CoreId(1), Ops::READ),
        ];
        assert_eq!(keys, [KeyId(0), KeyId(1), KeyId(2), KeyId(3)]);
        assert_eq!((sel.threads(), sel.core(1)), (2, CoreId(1)));
        assert_eq!([sel.thread_on(CoreId(1)), sel.thread_on(CoreId(3))], [1, 0]);

        // A key on thread 1 never wakes thread 0's parked select, and
        // thread 1's select is charged to core 1.
        let fired = Rc::new(RefCell::new(Vec::new()));
        let f = fired.clone();
        sel.select(&mut sim, 0, move |_, ready| {
            f.borrow_mut().push(ready.to_vec())
        });
        sel.set_ready(&mut sim, keys[1], Ops::READ, true);
        sim.run_until_idle();
        assert!(fired.borrow().is_empty() && !sel.wake_pending(0));
        assert_eq!((busy(CoreId(0)), busy(CoreId(1))), (0, 0));
        let ready = sel.select_now(&mut sim, 1);
        assert_eq!(ready.iter().map(|r| r.key).collect::<Vec<_>>(), [keys[1]]);
        assert_eq!((busy(CoreId(0)), busy(CoreId(1))), (0, 1_000));
        assert_eq!(*drained.borrow(), [1]);

        // The non-blocking select reads what its drain reported.
        late.set(Some(keys[3]));
        let ready = sel.select_now(&mut sim, 1);
        assert_eq!(
            ready.iter().map(|r| r.key).collect::<Vec<_>>(),
            [keys[1], keys[3]]
        );
        sel.set_ready(&mut sim, keys[1], Ops::READ, false);
        sel.set_ready(&mut sim, keys[3], Ops::READ, false);

        // So does the blocking one: the key that woke thread 1 is cleared
        // before the wake-up runs, and the callback still gets the key its
        // drain reported instead of re-parking.
        let fired1 = Rc::new(RefCell::new(Vec::new()));
        let f1 = fired1.clone();
        sel.select(&mut sim, 1, move |_, ready| {
            f1.borrow_mut().push(ready.to_vec())
        });
        sel.set_ready(&mut sim, keys[1], Ops::READ, true);
        assert!(sel.wake_pending(1) && !sel.wake_pending(0));
        sel.set_ready(&mut sim, keys[1], Ops::READ, false);
        sim.run_until_idle();
        let got: Vec<Vec<KeyId>> = fired1
            .borrow()
            .iter()
            .map(|r| r.iter().map(|s| s.key).collect())
            .collect();
        assert_eq!(got, [vec![keys[3]]]);
        assert_eq!(*drained.borrow(), [1, 1, 1]);
        assert!(fired.borrow().is_empty());

        // Thread 0's select is charged to core 0; every select counted.
        sel.set_ready(&mut sim, keys[0], Ops::READ, true);
        sim.run_until_idle();
        assert_eq!(fired.borrow()[0][0].key, keys[0]);
        assert_eq!((busy(CoreId(0)), busy(CoreId(1))), (1_000, 3_000));
        assert_eq!(*drained.borrow(), [1, 1, 1, 0]);
        assert_eq!(tb.net.metrics().counter("test.selects"), 4);
    }

    #[test]
    fn cancelled_key_never_fires() {
        let (mut sim, sel) = setup();
        let k = sel.register(CoreId(0), Ops::READ);
        sel.cancel(k);
        sel.set_ready(&mut sim, k, Ops::READ, true);
        sel.set_interest(&mut sim, k, Ops::READ);
        assert!(sel.select_now(&mut sim, 0).is_empty());
    }

    #[test]
    fn interest_change_can_trigger_wake() {
        let (mut sim, sel) = setup();
        let k = sel.register(CoreId(0), Ops::NONE);
        sel.set_ready(&mut sim, k, Ops::READ, true);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        sel.select(&mut sim, 0, move |_s, _r| {
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
        let sel: Selector<Ops> = Selector::new(&tb.net, tb.a, &[CoreId(0)], 1_000);
        let busy0 = tb.net.host(tb.a).borrow().total_busy_time();
        sel.select_now(&mut sim, 0);
        let busy1 = tb.net.host(tb.a).borrow().total_busy_time();
        assert_eq!((busy1 - busy0).as_nanos(), 1_000);
    }

    #[test]
    #[should_panic(expected = "already has a parked select")]
    fn double_park_panics() {
        let (mut sim, sel) = setup();
        sel.select(&mut sim, 0, |_s, _r| {});
        sel.select(&mut sim, 0, |_s, _r| {});
    }

    #[test]
    fn multi_host_setup_compiles_with_links() {
        // Smoke test that the selector works with hosts on other networks.
        let net = Network::new();
        let h = net.add_host("x", 2, CpuModel::xeon_v2());
        let h2 = net.add_host("y", 2, CpuModel::xeon_v2());
        net.connect(h, h2, LinkSpec::ten_gbe());
        let mut sim = Simulator::new(0);
        let sel = Selector::new(&net, h, &[CoreId(1)], 500);
        let k = sel.register(CoreId(1), Ops::WRITE);
        sel.set_ready(&mut sim, k, Ops::WRITE, true);
        assert_eq!(sel.select_now(&mut sim, 0).len(), 1);
    }
}
