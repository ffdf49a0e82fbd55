//! The simulator's event queue.
//!
//! Events are closures scheduled for a future instant. Ordering is total and
//! deterministic: ties on the timestamp are broken by the monotonically
//! increasing sequence number assigned at scheduling time, so two runs of the
//! same program always execute events in the same order.
//!
//! # One heap over a slot arena
//!
//! The queue is the simulator's hottest data structure: every frame delivery,
//! CPU completion and protocol timer passes through it. The benchmark
//! workloads keep at most about five thousand events pending, and the
//! geo-scale tests (`tests/geo_scale.rs`) about a hundred thousand.
//!
//! * **Arena-allocated events.** Actions live in a slab ([`Slot`] arena with
//!   a free list); the heap orders 16-byte plain-old-data [`Entry`] values
//!   (`(time, id)`), so a sift moves two words instead of a closure, and
//!   the slot index is packed into the id's low bits — no side map is
//!   needed to find an event from its handle. A slot stores its closure in
//!   place ([`Action`]), so scheduling an event allocates nothing.
//! * **One 4-ary heap.** Every pending entry sits in one flat 4-ary
//!   min-heap ([`MinHeap4`]); its minimum is the next event.
//! * **O(1) cancellation without tombstone growth.** Cancelling frees the
//!   slot immediately (the action drops, the arena slot recycles); the dead
//!   heap entry is dropped lazily the next time it reaches the top, and a
//!   tombstone counter triggers a compaction sweep when dead entries
//!   outnumber live ones, so cancel-heavy runs (per-segment ACK timers) stay
//!   bounded.
//!
//! Under `cfg(test)` every queue also feeds a plain `BinaryHeap` of
//! `(time, seq)` keys (the `legacy` module), and both [`EventQueue::pop`] and
//! [`EventQueue::peek_time`] assert that the two agree, so every simnet unit
//! test that runs a simulation is also a lock-step check of the total order.

use std::fmt;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::sim::Simulator;
use crate::time::Nanos;

/// A 4-ary min-heap of [`Entry`] values.
///
/// Entries are 16 bytes, so a node's four children share one 64-byte cache
/// line: a sift-down touches half the levels of a binary heap and one line
/// per level.
#[derive(Debug, Default)]
struct MinHeap4 {
    v: Vec<Entry>,
}

impl MinHeap4 {
    #[inline]
    fn peek(&self) -> Option<&Entry> {
        self.v.first()
    }

    #[inline]
    fn push(&mut self, item: Entry) {
        self.v.push(item);
        let mut i = self.v.len() - 1;
        while i > 0 {
            let parent = (i - 1) >> 2;
            if self.v[parent] <= self.v[i] {
                break;
            }
            self.v.swap(i, parent);
            i = parent;
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        let n = self.v.len();
        if n == 0 {
            return None;
        }
        self.v.swap(0, n - 1);
        let out = self.v.pop();
        if self.v.len() > 1 {
            self.sift_down(0);
        }
        out
    }

    /// Keeps only the entries `keep` accepts, then re-heapifies in O(n).
    fn retain(&mut self, keep: impl FnMut(&Entry) -> bool) {
        self.v.retain(keep);
        for i in (0..(self.v.len() + 2) / 4).rev() {
            self.sift_down(i);
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.v.len();
        loop {
            let first = (i << 2) + 1;
            if first >= n {
                break;
            }
            let last = (first + 4).min(n);
            let mut min = first;
            for c in first + 1..last {
                if self.v[c] < self.v[min] {
                    min = c;
                }
            }
            if self.v[i] <= self.v[min] {
                break;
            }
            self.v.swap(i, min);
            i = min;
        }
    }
}

/// An event action: a one-shot closure run at its scheduled time.
///
/// [`Simulator::schedule_at`](crate::Simulator::schedule_at) and its
/// siblings take any `FnOnce(&mut Simulator) + 'static`; a boxed one (this
/// type) is accepted too, and is stored like any other closure.
pub type EventFn = Box<dyn FnOnce(&mut Simulator)>;

/// Closure bytes a slot holds in place. The largest closures the system
/// schedules on the benchmark workloads are 96 B (the RDMA receive-placement
/// step in `QueuePair::handle_inbound_send`, and the delivery of a frame
/// carrying an RDMA packet: network handle, 24-byte header, 64-byte packet);
/// the rest are 8–80 B.
const INLINE_BYTES: usize = 96;

/// In-place storage for one closure: [`INLINE_BYTES`], 8-aligned.
type InlineBuf = MaybeUninit<[u64; INLINE_BYTES / 8]>;

/// A one-shot closure stored in place, without a heap allocation: what an
/// event slot holds, and what anything else that keeps one pending closure
/// at a time (a parked select call) can hold.
///
/// A closure larger than [`INLINE_BYTES`] or aligned above 8 is boxed, and
/// the `Box` (8 bytes) is what the buffer holds, so every closure takes the
/// one path below. [`QueueStats::boxed`] counts the boxed event closures.
///
/// Invariant: `buf` holds a live value of the closure type `F` that `call`
/// was instantiated for, and exactly one of [`run`](Action::run) or `Drop`
/// consumes it. All the event core's `unsafe` code is in this type.
pub struct Action {
    buf: InlineBuf,
    /// Runs the `F` at the pointer (`Some`) or drops it (`None`).
    call: unsafe fn(*mut u8, Option<&mut Simulator>),
    /// The stored closure usually captures `Rc`s: keep `Action` (and so the
    /// `Simulator`) `!Send` and `!Sync`, as the boxed closure was.
    _not_send: PhantomData<EventFn>,
}

impl Action {
    /// Stores `f`, in place unless it does not fit.
    pub fn new<F: FnOnce(&mut Simulator) + 'static>(f: F) -> Action {
        let mut slot = None;
        Action::put(&mut slot, f);
        slot.expect("just stored")
    }

    /// Whether a value of type `T` fits the in-place buffer.
    const fn fits<T>() -> bool {
        size_of::<T>() <= INLINE_BYTES && align_of::<T>() <= align_of::<InlineBuf>()
    }

    /// Stores `f` in the empty `dst`, boxing it if it does not fit.
    /// Returns whether it was boxed.
    #[inline]
    fn put<F: FnOnce(&mut Simulator) + 'static>(dst: &mut Option<Action>, f: F) -> bool {
        if Action::fits::<F>() {
            Action::put_inline(dst, f);
            false
        } else {
            Action::put_inline(dst, Box::new(f));
            true
        }
    }

    /// Writes `f` straight into `dst`'s buffer: one move of the closure.
    #[inline]
    fn put_inline<F: FnOnce(&mut Simulator) + 'static>(dst: &mut Option<Action>, f: F) {
        assert!(Action::fits::<F>());
        debug_assert!(dst.is_none(), "slot already holds an action");
        let action = dst.insert(Action {
            buf: MaybeUninit::uninit(),
            call: Action::call::<F>,
            _not_send: PhantomData,
        });
        // SAFETY: `fits` checked that an `F` fits `buf`'s size and
        // alignment. Nothing between `insert` and this write can panic, so
        // no `Action` with an empty buffer is ever dropped or run; after it,
        // the invariant holds for `call::<F>`.
        unsafe { action.buf.as_mut_ptr().cast::<F>().write(f) };
    }

    /// Runs the closure, consuming it.
    #[inline]
    pub fn run(self, sim: &mut Simulator) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: by the invariant `buf` holds the live `F` that `call` was
        // made for; `ManuallyDrop` keeps `Drop` from consuming it again.
        unsafe { (this.call)(this.buf.as_mut_ptr().cast(), Some(sim)) }
    }

    /// Runs (`sim` is `Some`) or drops (`None`) the `F` at `p`.
    ///
    /// # Safety
    ///
    /// `p` must point to a live, aligned `F` that nothing uses afterwards.
    unsafe fn call<F: FnOnce(&mut Simulator)>(p: *mut u8, sim: Option<&mut Simulator>) {
        let p = p.cast::<F>();
        match sim {
            Some(sim) => {
                // SAFETY: the caller hands over the live `F`; it is read once.
                let f = unsafe { p.read() };
                f(sim);
            }
            // SAFETY: as above; it is dropped once, in place.
            None => unsafe { p.drop_in_place() },
        }
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Action")
    }
}

impl Drop for Action {
    fn drop(&mut self) {
        // SAFETY: `run` never lets `Drop` see its action, so by the
        // invariant `buf` still holds the live `F` for `call`.
        unsafe { (self.call)(self.buf.as_mut_ptr().cast(), None) }
    }
}

/// Bits of an [`EventId`] holding the arena slot index.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Handle identifying a scheduled event, usable with
/// [`Simulator::cancel`](crate::Simulator::cancel).
///
/// The id packs the scheduling sequence number (high bits — the
/// deterministic tie-breaker) with the arena slot (low bits — O(1)
/// cancellation), so ids still compare in scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

/// A heap entry: plain old data, 16 bytes, cheap to sift. The derived order
/// is the queue's: earliest time first, ties broken by scheduling order
/// (lower id first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: Nanos,
    id: u64,
}

/// One arena slot: the stored action plus the id it belongs to, so stale
/// heap entries pointing at a recycled slot are recognised as dead. 112
/// bytes: `None` is `Action::call`'s null niche.
struct Slot {
    id: u64,
    action: Option<Action>,
}

impl Slot {
    /// Whether the event `id` is still pending in this slot.
    fn holds(&self, id: u64) -> bool {
        self.id == id && self.action.is_some()
    }
}

/// The arena slot an event id points at.
fn slot_of(id: u64) -> usize {
    (id & SLOT_MASK) as usize
}

/// Counters describing the queue's lifetime behaviour, surfaced as the
/// `sim.events_*` gauges in metrics snapshots (all but `boxed`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events whose closure was too large or too aligned for its slot and
    /// was boxed: one heap allocation each.
    pub boxed: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// Dead heap entries dropped, lazily on pop/peek or by compaction.
    pub tombstones_purged: u64,
    /// Compaction sweeps rebuilding the heap.
    pub compactions: u64,
    /// Live (pending, non-cancelled) events right now.
    pub pending: usize,
    /// Dead entries currently sitting in the heap.
    pub tombstones: usize,
    /// Maximum simultaneously pending live events.
    pub high_water: usize,
}

/// Deterministic priority queue of scheduled events with O(1) cancellation.
pub(crate) struct EventQueue {
    heap: MinHeap4,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
    /// Everything [`stats`](Self::stats) reports but `pending`, which is
    /// `live`.
    counters: QueueStats,
    #[cfg(test)]
    shadow: legacy::LegacyEventQueue,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue {
            heap: MinHeap4::default(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            counters: QueueStats::default(),
            #[cfg(test)]
            shadow: legacy::LegacyEventQueue::new(),
        }
    }

    /// Schedules `action` at `at`. The closure goes straight into its slot;
    /// everything else is [`enqueue`](Self::enqueue), which is not generic.
    #[inline]
    pub fn push<F>(&mut self, at: Nanos, action: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        let id = self.enqueue(at);
        if Action::put(&mut self.slots[slot_of(id)].action, action) {
            self.counters.boxed += 1;
        }
        EventId(id)
    }

    /// Takes a slot, stamps it with a fresh id and orders `(at, id)`; the
    /// caller fills the slot's action before anything else runs.
    fn enqueue(&mut self, at: Nanos) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len() as u64;
                assert!(s <= SLOT_MASK, "too many pending events ({s})");
                self.slots.push(Slot {
                    id: 0,
                    action: None,
                });
                s as u32
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < (1 << (64 - SLOT_BITS)), "event sequence overflow");
        let id = (seq << SLOT_BITS) | slot as u64;
        self.slots[slot as usize].id = id;
        self.heap.push(Entry { at, id });
        self.live += 1;
        let c = &mut self.counters;
        c.high_water = c.high_water.max(self.live);
        c.scheduled += 1;
        #[cfg(test)]
        self.shadow.push(at);
        id
    }

    pub fn cancel(&mut self, id: EventId) {
        let idx = slot_of(id.0);
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        if !slot.holds(id.0) {
            return; // already ran or already cancelled
        }
        // Dropped on return, once the queue's books are straight.
        let _action = slot.action.take();
        self.free.push(idx as u32);
        self.live -= 1;
        self.counters.tombstones += 1;
        self.counters.cancelled += 1;
        #[cfg(test)]
        self.shadow.cancel(id.0 >> SLOT_BITS);
        self.maybe_compact();
    }

    /// Rebuilds the heap without its dead entries once tombstones
    /// outnumber live events, bounding memory on cancel-heavy runs.
    fn maybe_compact(&mut self) {
        let c = &mut self.counters;
        if c.tombstones <= 64 || c.tombstones <= self.live {
            return;
        }
        let slots = &self.slots;
        self.heap.retain(|e| slots[slot_of(e.id)].holds(e.id));
        c.tombstones_purged += c.tombstones as u64;
        c.tombstones = 0;
        c.compactions += 1;
    }

    /// The heap's top once the dead entries above the first live one are
    /// dropped; `None` when no event is pending.
    fn live_head(&mut self) -> Option<Entry> {
        if self.live == 0 {
            return None;
        }
        loop {
            let head = *self.heap.peek().expect("a live event is in the heap");
            if self.slots[slot_of(head.id)].holds(head.id) {
                return Some(head);
            }
            self.heap.pop();
            self.counters.tombstones -= 1;
            self.counters.tombstones_purged += 1;
        }
    }

    /// Pops the next live (non-cancelled) event. The action moves out of
    /// its slot here, once.
    pub fn pop(&mut self) -> Option<(Nanos, Action)> {
        let head = self.live_head();
        #[cfg(test)]
        assert_eq!(
            self.shadow.pop(),
            head.map(|e| (e.at, e.id >> SLOT_BITS)),
            "event queue diverged from the legacy (time, seq) order"
        );
        let e = head?;
        self.heap.pop();
        let idx = slot_of(e.id);
        let action = self.slots[idx].action.take();
        self.free.push(idx as u32);
        self.live -= 1;
        Some((e.at, action.expect("a live slot holds its action")))
    }

    /// Timestamp of the next live event, if any. Drops the dead entries
    /// above it.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        let at = self.live_head().map(|e| e.at);
        #[cfg(test)]
        assert_eq!(
            self.shadow.peek_time(),
            at,
            "event queue's next time diverged from the legacy queue"
        );
        at
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pending: self.live,
            ..self.counters
        }
    }
}

#[cfg(test)]
mod legacy {
    //! The original event queue: one `BinaryHeap` keyed by `(time, seq)`
    //! plus a cancelled-id `HashSet` checked on every pop. Kept as the
    //! order oracle the event queue is tested against.

    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    use crate::time::Nanos;

    pub(super) struct LegacyEventQueue {
        heap: BinaryHeap<Reverse<(Nanos, u64)>>,
        cancelled: HashSet<u64>,
        next_seq: u64,
    }

    impl LegacyEventQueue {
        pub fn new() -> LegacyEventQueue {
            LegacyEventQueue {
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                next_seq: 0,
            }
        }

        pub fn push(&mut self, at: Nanos) {
            self.heap.push(Reverse((at, self.next_seq)));
            self.next_seq += 1;
        }

        pub fn cancel(&mut self, seq: u64) {
            self.cancelled.insert(seq);
        }

        pub fn pop(&mut self) -> Option<(Nanos, u64)> {
            while let Some(Reverse((at, seq))) = self.heap.pop() {
                if !self.cancelled.remove(&seq) {
                    return Some((at, seq));
                }
            }
            None
        }

        pub fn peek_time(&mut self) -> Option<Nanos> {
            while let Some(&Reverse((at, seq))) = self.heap.peek() {
                if !self.cancelled.remove(&seq) {
                    return Some(at);
                }
                self.heap.pop();
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::mem::{align_of_val, size_of_val};
    use std::rc::Rc;

    fn noop() -> impl FnOnce(&mut Simulator) {
        |_| {}
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(30), noop());
        q.push(Nanos::from_nanos(10), noop());
        q.push(Nanos::from_nanos(20), noop());
        assert_eq!(q.pop().unwrap().0.as_nanos(), 10);
        assert_eq!(q.pop().unwrap().0.as_nanos(), 20);
        assert_eq!(q.pop().unwrap().0.as_nanos(), 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new(0);
        let order = Rc::new(Cell::new(0u32));
        let ids: Vec<EventId> = (1..=3)
            .map(|tag| {
                let order = order.clone();
                sim.schedule_at(ns(5), move |_| order.set(order.get() * 10 + tag))
            })
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        sim.run_until_idle();
        assert_eq!(order.get(), 123);
    }

    #[test]
    fn cancelled_events_are_skipped_and_counted() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::from_nanos(1), noop());
        q.push(Nanos::from_nanos(2), noop());
        q.cancel(a);
        assert_eq!(q.pop().unwrap().0.as_nanos(), 2);
        assert!(q.pop().is_none());
        let s = q.stats();
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.tombstones_purged, 1);
        assert_eq!(s.tombstones, 0);
    }

    #[test]
    fn cancel_after_pop_is_a_noop() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::from_nanos(1), noop());
        let _ = q.pop().unwrap();
        q.cancel(a);
        // The slot was recycled; cancelling the stale handle must not
        // damage a new event reusing it.
        let b = q.push(Nanos::from_nanos(9), noop());
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.cancel(b);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::from_nanos(1), noop());
        q.push(Nanos::from_nanos(7), noop());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(7)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn slots_recycle_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            let id = q.push(Nanos::from_nanos(round), noop());
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                let _ = q.pop().unwrap();
            }
        }
        // The arena never grew past the tiny working set.
        assert!(q.slots.len() <= 4, "arena grew to {}", q.slots.len());
        assert!(q.is_empty() || q.len() <= 1);
    }

    #[test]
    fn compaction_bounds_tombstones() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..1_000)
            .map(|i| q.push(Nanos::from_nanos(1_000 + i), noop()))
            .collect();
        // One survivor; cancel everything else without popping.
        for id in &ids[1..] {
            q.cancel(*id);
        }
        let s = q.stats();
        assert!(s.compactions >= 1, "mass-cancel must trigger compaction");
        assert!(
            s.tombstones <= s.pending.max(64),
            "tombstones must stay bounded by live events: {s:?}"
        );
        assert_eq!(q.pop().unwrap().0.as_nanos(), 1_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn matches_legacy_order_under_random_churn() {
        // The oracle is the queue's own shadow heap: `push` and `cancel`
        // feed it, and every `pop` and `peek_time` asserts both agree.
        let mut q = EventQueue::new();
        let mut state = 0x5EEDu64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut live: Vec<EventId> = Vec::new();
        for _ in 0..5_000 {
            match lcg() % 4 {
                0 | 1 => live.push(q.push(Nanos::from_nanos(lcg() % 512), noop())),
                2 if !live.is_empty() => {
                    let i = (lcg() as usize) % live.len();
                    q.cancel(live.swap_remove(i));
                }
                _ => {
                    q.pop();
                    q.peek_time();
                }
            }
        }
        while q.pop().is_some() {}

        // A standing window of about 200 events with three cancels per pop:
        // dead entries pile up below the top faster than pops drain them,
        // so compaction runs again and again between pops and cancels.
        let mut window: Vec<(u64, EventId)> = Vec::new();
        let mut now = 0;
        for round in 0..4_000 {
            for _ in 0..if round == 0 { 200 } else { 4 } {
                let at = now + 1 + lcg() % 4_096;
                window.push((at, q.push(Nanos::from_nanos(at), noop())));
            }
            for _ in 0..3 {
                let i = (lcg() as usize) % window.len();
                q.cancel(window.swap_remove(i).1);
            }
            if let Some((at, _)) = q.pop() {
                now = at.as_nanos();
                window.retain(|&(t, _)| t >= now);
            }
            q.peek_time();
        }
        let s = q.stats();
        assert!(
            s.compactions >= 10,
            "churn must keep reaching compaction: {s:?}"
        );
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.cancelled, s.tombstones_purged + s.tombstones as u64);
    }

    /// Runs and drops of the closures that captured a [`Witness`].
    #[derive(Default)]
    struct Tally {
        ran: Cell<u32>,
        dropped: Cell<u32>,
    }

    impl Tally {
        fn counts(&self) -> (u32, u32) {
            (self.ran.get(), self.dropped.get())
        }
    }

    /// A captured `Rc` that reports its one drop (a second would show).
    struct Witness(Rc<Tally>);

    impl Witness {
        fn ran(&self) {
            self.0.ran.set(self.0.ran.get() + 1);
        }
    }

    impl Drop for Witness {
        fn drop(&mut self) {
            self.0.dropped.set(self.0.dropped.get() + 1);
        }
    }

    fn ns(n: u64) -> Nanos {
        Nanos::from_nanos(n)
    }

    #[test]
    fn a_run_event_drops_its_capture_once() {
        let tally = Rc::new(Tally::default());
        let mut sim = Simulator::new(0);
        let w = Witness(tally.clone());
        sim.schedule_in(ns(1), move |_| w.ran());
        assert_eq!(tally.counts(), (0, 0));
        sim.run_until_idle();
        assert_eq!(tally.counts(), (1, 1));
        assert_eq!(Rc::strong_count(&tally), 1);
        assert_eq!(sim.queue_stats().boxed, 0);
    }

    #[test]
    fn a_cancelled_event_drops_its_capture_once_at_cancel() {
        let tally = Rc::new(Tally::default());
        let mut sim = Simulator::new(0);
        let w = Witness(tally.clone());
        let id = sim.schedule_in(ns(1), move |_| w.ran());
        sim.cancel(id);
        assert_eq!(tally.counts(), (0, 1));
        sim.cancel(id);
        sim.run_until_idle();
        assert_eq!(tally.counts(), (0, 1));
        assert_eq!(Rc::strong_count(&tally), 1);
    }

    #[test]
    fn dropping_a_simulator_drops_each_pending_capture_once() {
        let tally = Rc::new(Tally::default());
        let mut sim = Simulator::new(0);
        for t in 1..=3 {
            let w = Witness(tally.clone());
            sim.schedule_in(ns(t), move |_| w.ran());
        }
        let w = Witness(tally.clone());
        sim.schedule_in(ns(4), move |_| w.ran());
        sim.run_until(ns(1));
        assert_eq!(tally.counts(), (1, 1));
        drop(sim);
        assert_eq!(tally.counts(), (1, 4));
        assert_eq!(Rc::strong_count(&tally), 1);
    }

    #[test]
    fn a_closure_of_exactly_the_buffer_size_is_stored_in_place() {
        assert_eq!(size_of::<Slot>(), 112);
        let tally = Rc::new(Tally::default());
        let mut sim = Simulator::new(0);
        let (words, w) = ([1u64; 11], Witness(tally.clone()));
        let f = move |_: &mut Simulator| {
            assert_eq!(words.iter().sum::<u64>(), 11);
            w.ran();
        };
        assert_eq!(size_of_val(&f), INLINE_BYTES);
        sim.schedule_in(ns(1), f);
        sim.run_until_idle();
        assert_eq!(tally.counts(), (1, 1));
        assert_eq!(sim.queue_stats().boxed, 0);
    }

    #[test]
    fn oversized_and_overaligned_closures_are_boxed_run_and_drop_once() {
        #[repr(align(16))]
        struct Aligned(u64);

        let tally = Rc::new(Tally::default());
        let mut sim = Simulator::new(0);
        let (bytes, w) = ([7u8; 200], Witness(tally.clone()));
        let big = move |_: &mut Simulator| {
            assert_eq!(bytes.iter().map(|&b| b as u32).sum::<u32>(), 1_400);
            w.ran();
        };
        assert!(size_of_val(&big) > INLINE_BYTES);
        let (a, w) = (Aligned(0xA11), Witness(tally.clone()));
        let aligned = move |_: &mut Simulator| {
            assert_eq!(std::hint::black_box(&a).0, 0xA11);
            w.ran();
        };
        assert_eq!(align_of_val(&aligned), 16);
        sim.schedule_in(ns(1), big);
        sim.schedule_in(ns(2), aligned);
        assert_eq!(sim.queue_stats().boxed, 2);
        sim.run_until_idle();
        assert_eq!(tally.counts(), (2, 2));

        // Boxed, then cancelled or left pending: still dropped once.
        let (bytes, w) = ([0u8; 200], Witness(tally.clone()));
        let id = sim.schedule_in(ns(1), move |_| {
            std::hint::black_box(bytes);
            w.ran();
        });
        sim.cancel(id);
        assert_eq!(tally.counts(), (2, 3));
        let (a, w) = (Aligned(1), Witness(tally.clone()));
        sim.schedule_in(ns(1), move |_| {
            std::hint::black_box(&a);
            w.ran();
        });
        assert_eq!(sim.queue_stats().boxed, 4);
        drop(sim);
        assert_eq!(tally.counts(), (2, 4));
        assert_eq!(Rc::strong_count(&tally), 1);
    }

    thread_local! {
        static ZST_RUNS: Cell<u32> = const { Cell::new(0) };
    }

    fn bump(_: &mut Simulator) {
        ZST_RUNS.with(|c| c.set(c.get() + 1));
    }

    #[test]
    fn a_zero_sized_closure_runs_and_cancels() {
        assert_eq!(size_of_val(&bump), 0);
        let mut sim = Simulator::new(0);
        sim.schedule_in(ns(1), bump);
        let closure = |sim: &mut Simulator| bump(sim);
        assert_eq!(size_of_val(&closure), 0);
        sim.schedule_in(ns(2), closure);
        let id = sim.schedule_in(ns(3), bump);
        sim.cancel(id);
        sim.run_until_idle();
        assert_eq!(ZST_RUNS.with(Cell::get), 2);
        assert_eq!(sim.queue_stats().boxed, 0);
    }
}
