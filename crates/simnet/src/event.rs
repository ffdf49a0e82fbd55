//! The simulator's event queue.
//!
//! Events are closures scheduled for a future instant. Ordering is total and
//! deterministic: ties on the timestamp are broken by the monotonically
//! increasing sequence number assigned at scheduling time, so two runs of the
//! same program always execute events in the same order.
//!
//! # One heap over two slot arenas
//!
//! The queue is the simulator's hottest data structure: every frame delivery,
//! CPU completion and protocol timer passes through it. The benchmark
//! workloads keep at most about five thousand events pending, nearly all of
//! them small timers, and the geo-scale tests (`tests/geo_scale.rs`) about a
//! hundred thousand.
//!
//! * **Arena-allocated events in two size classes.** A closure lives in place
//!   in an arena slot ([`Slot`]), so scheduling an event allocates nothing.
//!   A small slot holds a closure of at most [`SMALL_BYTES`] (40, every
//!   timer): 56 bytes. A large slot holds one of at most [`INLINE_BYTES`]
//!   (96, frame deliveries and RDMA steps): 112 bytes. The class is
//!   picked at compile time ([`Class::of`]), and a closure that fits
//!   neither buffer, or is aligned above 8, fails the build: a caller that
//!   needs one schedules `Box::new(f)`, so the allocation shows where it is
//!   made. Each class's [`Arena`] grows by fixed chunks of [`CHUNK`] slots,
//!   so a slot never moves, and chains its free slots through the slots
//!   themselves.
//! * **One 4-ary heap of integer keys.** Every pending event is one `u128`
//!   key in a flat 4-ary min-heap ([`MinHeap4`]): the time in the high half,
//!   the [`EventId`] in the low. The id packs the sequence number above the
//!   slot's class and index, so one integer comparison is the (time, seq)
//!   order and no side map is needed to find an event from its handle. A
//!   pop walks the hole down to a leaf along the smaller child, chosen
//!   without branches, and lets the last entry climb back from there.
//! * **O(1) cancellation without tombstone growth.** Cancelling frees the
//!   slot immediately (the action drops, the slot recycles); the dead heap
//!   key is dropped lazily the next time it reaches the top, and a tombstone
//!   counter triggers a compaction sweep when dead keys outnumber live ones,
//!   so cancel-heavy runs (per-segment ACK timers) stay bounded.
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

/// A heap key: an event's time in the high 64 bits and its id in the low 64,
/// so the integer order is the queue's order (earliest time first, ties in
/// scheduling order).
type Key = u128;

fn key(at: Nanos, id: u64) -> Key {
    (at.as_nanos() as Key) << 64 | id as Key
}

fn time_of(key: Key) -> Nanos {
    Nanos::from_nanos((key >> 64) as u64)
}

fn id_of(key: Key) -> u64 {
    key as u64
}

/// A 4-ary min-heap of [`Key`]s.
///
/// Keys are 16 bytes, so a node's four children are 64 adjacent bytes: a
/// sift touches half the levels of a binary heap.
#[derive(Debug, Default)]
struct MinHeap4 {
    v: Vec<Key>,
}

impl MinHeap4 {
    #[inline]
    fn peek(&self) -> Option<Key> {
        self.v.first().copied()
    }

    #[inline]
    fn push(&mut self, key: Key) {
        self.v.push(key);
        self.climb(self.v.len() - 1, 0, key);
    }

    #[inline]
    fn pop(&mut self) -> Option<Key> {
        let last = self.v.pop()?;
        let Some(top) = self.v.first_mut() else {
            return Some(last);
        };
        let top = std::mem::replace(top, last);
        self.sift_down(0);
        Some(top)
    }

    /// Keeps only the keys `keep` accepts, then re-heapifies in O(n).
    fn retain(&mut self, keep: impl FnMut(&Key) -> bool) {
        self.v.retain(keep);
        for i in (0..(self.v.len() + 2) / 4).rev() {
            self.sift_down(i);
        }
    }

    /// Restores heap order below `i`, whose key may be too large. Bottom-up:
    /// the hole at `i` walks to a leaf along the smaller child, then the key
    /// climbs back, no higher than `i`. The key came from the bottom, so the
    /// climb is short, and the walk compares only children.
    #[inline]
    fn sift_down(&mut self, i: usize) {
        let v = &mut self.v[..];
        let key = v[i];
        let n = v.len();
        let mut hole = i;
        loop {
            let first = 4 * hole + 1;
            let child = if first + 4 <= n {
                let c = &v[first..first + 4];
                let a = usize::from(c[1] < c[0]);
                let b = 2 + usize::from(c[3] < c[2]);
                first + if c[b] < c[a] { b } else { a }
            } else if first < n {
                (first..n).min_by_key(|&c| v[c]).expect("a child")
            } else {
                break;
            };
            v[hole] = v[child];
            hole = child;
        }
        self.climb(hole, i, key);
    }

    /// Moves `key` from the hole at `hole` up past every larger ancestor,
    /// no higher than `floor`, and stores it.
    #[inline]
    fn climb(&mut self, mut hole: usize, floor: usize, key: Key) {
        while hole > floor {
            let parent = (hole - 1) / 4;
            if self.v[parent] < key {
                break;
            }
            self.v[hole] = self.v[parent];
            hole = parent;
        }
        self.v[hole] = key;
    }
}

/// An event action: a one-shot closure run at its scheduled time.
///
/// [`Simulator::schedule_at`](crate::Simulator::schedule_at) and its
/// siblings take any `FnOnce(&mut Simulator) + 'static` of at most 96
/// bytes, aligned to at most 8; a boxed one (this type, 16 bytes) is
/// accepted too, and is how a caller schedules a larger closure.
pub type EventFn = Box<dyn FnOnce(&mut Simulator)>;

/// Closure bytes a large slot holds in place. The largest closure the
/// system schedules on the benchmark workloads is 96 B (the delivery of a
/// frame carrying an RDMA packet: network handle, 24-byte header, 64-byte
/// packet); the RDMA receive-placement step in `QueuePair::receive` is 88 B.
const INLINE_BYTES: usize = 96;

/// Closure bytes a small slot holds in place. Timers are 8–40 B (a client's
/// resend timer 16 B, a replica's request timer 40 B), and they are nearly
/// all of what is pending at once.
const SMALL_BYTES: usize = 40;

/// A small slot's closure buffer: [`SMALL_BYTES`], 8-aligned.
type SmallBuf = [u64; SMALL_BYTES / 8];

/// A large slot's closure buffer: [`INLINE_BYTES`], 8-aligned.
type LargeBuf = [u64; INLINE_BYTES / 8];

/// Where a closure of type `F` is stored: in place, in the buffer of its
/// class.
enum Class {
    /// In a [`SmallBuf`].
    Small,
    /// In a [`LargeBuf`].
    Large,
}

impl Class {
    /// The class of a closure of type `F`. Called in a `const` block, so a
    /// closure that fits neither buffer is a build error, not an
    /// allocation per event.
    const fn of<F>() -> Class {
        if Stored::<SmallBuf>::fits::<F>() {
            Class::Small
        } else {
            assert!(
                Stored::<LargeBuf>::fits::<F>(),
                "an event closure must be at most 96 bytes and aligned to at most 8: \
                 schedule `Box::new(f)` to store a larger one"
            );
            Class::Large
        }
    }
}

/// One closure stored in place in a buffer `B`, without a heap allocation.
///
/// Invariant: `buf` holds a live value of the closure type `F` that `call`
/// was instantiated for, and exactly one of [`run`](Stored::run) or `Drop`
/// consumes it. All the event core's `unsafe` code is in this type.
struct Stored<B> {
    buf: MaybeUninit<B>,
    /// Runs the `F` at the pointer (`Some`) or drops it (`None`).
    call: unsafe fn(*mut u8, Option<&mut Simulator>),
    /// The stored closure usually captures `Rc`s: keep `Stored` (and so the
    /// `Simulator`) `!Send` and `!Sync`, as the boxed closure was.
    _not_send: PhantomData<EventFn>,
}

impl<B> Stored<B> {
    /// Whether a value of type `T` fits the buffer's size and alignment.
    const fn fits<T>() -> bool {
        size_of::<T>() <= size_of::<B>() && align_of::<T>() <= align_of::<B>()
    }

    /// Writes `f` straight into the empty `dst`: one move of the closure.
    #[inline]
    fn put<F: FnOnce(&mut Simulator) + 'static>(dst: &mut Option<Self>, f: F) {
        // Not a `const` assert: the dead arm of a class match instantiates
        // `put` for the other buffer too. The condition is a constant, so
        // this costs nothing at run time.
        assert!(Self::fits::<F>());
        debug_assert!(dst.is_none(), "slot already holds an action");
        let stored = dst.insert(Stored {
            buf: MaybeUninit::uninit(),
            call: Self::call::<F>,
            _not_send: PhantomData,
        });
        // SAFETY: `fits` checked that an `F` fits `buf`'s size and
        // alignment. Nothing between `insert` and this write can panic, so
        // no `Stored` with an empty buffer is ever dropped or run; after it,
        // the invariant holds for `call::<F>`.
        unsafe { stored.buf.as_mut_ptr().cast::<F>().write(f) };
    }

    /// `f`, stored in place.
    fn new<F: FnOnce(&mut Simulator) + 'static>(f: F) -> Self {
        let mut dst = None;
        Self::put(&mut dst, f);
        dst.expect("just stored")
    }

    /// Runs the closure, consuming it.
    #[inline]
    fn run(self, sim: &mut Simulator) {
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

impl<B> Drop for Stored<B> {
    fn drop(&mut self) {
        // SAFETY: `run` never lets `Drop` see its closure, so by the
        // invariant `buf` still holds the live `F` for `call`.
        unsafe { (self.call)(self.buf.as_mut_ptr().cast(), None) }
    }
}

/// A one-shot closure stored in place, without a heap allocation: what a
/// popped event carries, and what anything else that keeps one pending
/// closure at a time (a parked select call) can hold.
///
/// A closure of at most 40 bytes takes the small buffer, one of at most 96
/// the large one, both 8-aligned. A larger closure, or one aligned above 8,
/// does not compile; `Box::new(f)` (8 bytes, or 16 for a `dyn`) stores one
/// behind an allocation the caller can see:
///
/// ```compile_fail,E0080
/// let bytes = [0u8; 97];
/// simnet::Action::new(move |_| {
///     std::hint::black_box(bytes);
/// });
/// ```
///
/// ```
/// let bytes = [0u8; 97];
/// simnet::Action::new(Box::new(move |_: &mut simnet::Simulator| {
///     std::hint::black_box(bytes);
/// }));
/// ```
pub struct Action(Held);

/// An [`Action`]'s closure, in the buffer of its class.
enum Held {
    Small(Stored<SmallBuf>),
    Large(Stored<LargeBuf>),
}

impl Action {
    /// Stores `f` in place.
    pub fn new<F: FnOnce(&mut Simulator) + 'static>(f: F) -> Action {
        Action(match const { Class::of::<F>() } {
            Class::Small => Held::Small(Stored::new(f)),
            Class::Large => Held::Large(Stored::new(f)),
        })
    }

    /// Runs the closure, consuming it.
    #[inline]
    pub fn run(self, sim: &mut Simulator) {
        match self.0 {
            Held::Small(s) => s.run(sim),
            Held::Large(s) => s.run(sim),
        }
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Action")
    }
}

/// Bits of an [`EventId`] holding the slot: its class (the top bit) and its
/// index in that class's arena.
const SLOT_BITS: u32 = 24;
/// The slot bit set for a large slot.
const LARGE: u64 = 1 << (SLOT_BITS - 1);
/// Slots one class's arena can hold.
const CLASS_SLOTS: usize = LARGE as usize;

/// The index of the event `id`'s slot in its class's arena.
fn index_of(id: u64) -> usize {
    (id & (LARGE - 1)) as usize
}

/// Handle identifying a scheduled event, usable with
/// [`Simulator::cancel`](crate::Simulator::cancel).
///
/// The id packs the scheduling sequence number (high bits — the
/// deterministic tie-breaker) with the slot's class and index (low bits —
/// O(1) cancellation), so ids still compare in scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

/// One arena slot: the stored closure plus the id of the event it belongs
/// to, so stale heap keys pointing at a recycled slot are recognised as
/// dead. While the slot is free, `id` is the index of the next free slot
/// (or [`NO_SLOT`]). `None` is `Stored::call`'s null niche: 56 bytes with a
/// [`SmallBuf`], 112 with a [`LargeBuf`].
struct Slot<B> {
    id: u64,
    action: Option<Stored<B>>,
}

impl<B> Slot<B> {
    /// Whether the event `id` is still pending in this slot.
    fn holds(&self, id: u64) -> bool {
        self.id == id && self.action.is_some()
    }
}

/// Slots per arena chunk.
const CHUNK: usize = 64;
/// The end of an arena's free list.
const NO_SLOT: u64 = u64::MAX;

/// The slots of one size class, in boxed chunks of [`CHUNK`]: growth adds
/// one chunk and moves no slot, so an arena holds at most a chunk more than
/// its class's pending high-water mark. Free slots form a LIFO list linked
/// through their `id`s.
struct Arena<B> {
    chunks: Vec<Box<[Slot<B>; CHUNK]>>,
    /// The first free slot, or [`NO_SLOT`].
    free: u64,
}

impl<B> Arena<B> {
    fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            free: NO_SLOT,
        }
    }

    fn slot_mut(&mut self, index: usize) -> Option<&mut Slot<B>> {
        Some(&mut self.chunks.get_mut(index / CHUNK)?[index % CHUNK])
    }

    /// Whether the event `id` is pending in slot `index`.
    fn holds(&self, index: usize, id: u64) -> bool {
        self.chunks
            .get(index / CHUNK)
            .is_some_and(|c| c[index % CHUNK].holds(id))
    }

    /// Stores `f` in a free slot, stamped with `tag` (the id without the
    /// index) plus the slot's index; returns that id.
    #[inline]
    fn insert<F: FnOnce(&mut Simulator) + 'static>(&mut self, tag: u64, f: F) -> u64 {
        if self.free == NO_SLOT {
            self.grow();
        }
        let index = self.free as usize;
        let slot = &mut self.chunks[index / CHUNK][index % CHUNK];
        self.free = slot.id;
        slot.id = tag | index as u64;
        Stored::put(&mut slot.action, f);
        slot.id
    }

    /// Adds a chunk of free slots; called when none is free.
    fn grow(&mut self) {
        let base = self.chunks.len() * CHUNK;
        assert!(
            base + CHUNK <= CLASS_SLOTS,
            "too many pending events ({base})"
        );
        self.chunks.push(Box::new(std::array::from_fn(|i| Slot {
            id: if i + 1 < CHUNK {
                (base + i + 1) as u64
            } else {
                NO_SLOT
            },
            action: None,
        })));
        self.free = base as u64;
    }

    /// Moves the closure of the pending event `id` out of slot `index` and
    /// frees the slot; `None` if that event is not pending there.
    fn take(&mut self, index: usize, id: u64) -> Option<Stored<B>> {
        let free = self.free;
        let slot = self.slot_mut(index).filter(|s| s.holds(id))?;
        slot.id = free;
        let action = slot.action.take();
        self.free = index as u64;
        action
    }
}

/// Counters describing the queue's lifetime behaviour, surfaced as the
/// `sim.events_*` gauges in metrics snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
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
    small: Arena<SmallBuf>,
    large: Arena<LargeBuf>,
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
            small: Arena::new(),
            large: Arena::new(),
            next_seq: 0,
            live: 0,
            counters: QueueStats::default(),
            #[cfg(test)]
            shadow: legacy::LegacyEventQueue::new(),
        }
    }

    /// Schedules `action` at `at`. The closure goes straight into a slot of
    /// its class; everything else is [`enqueue`](Self::enqueue), which is
    /// not generic.
    #[inline]
    pub fn push<F>(&mut self, at: Nanos, action: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        let seq = self.next_seq;
        debug_assert!(seq < (1 << (64 - SLOT_BITS)), "event sequence overflow");
        let tag = seq << SLOT_BITS;
        let id = match const { Class::of::<F>() } {
            Class::Small => self.small.insert(tag, action),
            Class::Large => self.large.insert(tag | LARGE, action),
        };
        self.enqueue(at, id);
        EventId(id)
    }

    /// Orders the event `id`, whose slot is filled, at `at`.
    fn enqueue(&mut self, at: Nanos, id: u64) {
        self.next_seq += 1;
        self.heap.push(key(at, id));
        self.live += 1;
        let c = &mut self.counters;
        c.high_water = c.high_water.max(self.live);
        c.scheduled += 1;
        #[cfg(test)]
        self.shadow.push(at);
    }

    /// Whether the event `id` is pending.
    fn holds(&self, id: u64) -> bool {
        if id & LARGE == 0 {
            self.small.holds(index_of(id), id)
        } else {
            self.large.holds(index_of(id), id)
        }
    }

    /// Moves the pending event `id`'s closure out of its slot and frees the
    /// slot; `None` if `id` is not pending.
    fn take(&mut self, id: u64) -> Option<Action> {
        Some(Action(if id & LARGE == 0 {
            Held::Small(self.small.take(index_of(id), id)?)
        } else {
            Held::Large(self.large.take(index_of(id), id)?)
        }))
    }

    pub fn cancel(&mut self, id: EventId) {
        // Dropped on return, once the queue's books are straight.
        let Some(_action) = self.take(id.0) else {
            return; // already ran or already cancelled
        };
        self.live -= 1;
        self.counters.tombstones += 1;
        self.counters.cancelled += 1;
        #[cfg(test)]
        self.shadow.cancel(id.0 >> SLOT_BITS);
        self.maybe_compact();
    }

    /// Rebuilds the heap without its dead keys once tombstones outnumber
    /// live events, bounding memory on cancel-heavy runs.
    fn maybe_compact(&mut self) {
        let c = &self.counters;
        if c.tombstones <= 64 || c.tombstones <= self.live {
            return;
        }
        let mut heap = std::mem::take(&mut self.heap);
        heap.retain(|&k| self.holds(id_of(k)));
        self.heap = heap;
        let c = &mut self.counters;
        c.tombstones_purged += c.tombstones as u64;
        c.tombstones = 0;
        c.compactions += 1;
    }

    /// The heap's top once the dead keys above the first live one are
    /// dropped; `None` when no event is pending.
    fn live_head(&mut self) -> Option<Key> {
        if self.live == 0 {
            return None;
        }
        loop {
            let head = self.heap.peek().expect("a live event is in the heap");
            if self.holds(id_of(head)) {
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
            head.map(|k| (time_of(k), id_of(k) >> SLOT_BITS)),
            "event queue diverged from the legacy (time, seq) order"
        );
        let head = head?;
        self.heap.pop();
        self.live -= 1;
        let action = self.take(id_of(head));
        Some((time_of(head), action.expect("a live slot holds its action")))
    }

    /// Timestamp of the next live event, if any. Drops the dead keys above
    /// it.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        let at = self.live_head().map(time_of);
        #[cfg(test)]
        assert_eq!(
            self.shadow.peek_time(),
            at,
            "event queue's next time diverged from the legacy queue"
        );
        at
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
    use std::cell::{Cell, RefCell};
    use std::hint::black_box;
    use std::mem::size_of_val;
    use std::rc::Rc;

    fn noop() -> impl FnOnce(&mut Simulator) {
        |_| {}
    }

    fn ns(n: u64) -> Nanos {
        Nanos::from_nanos(n)
    }

    fn is_large(id: EventId) -> bool {
        id.0 & LARGE != 0
    }

    #[repr(align(16))]
    #[derive(Clone, Copy)]
    struct Aligned(u64);

    /// Schedules a closure of the `kind`-th shape: 0, 8, 40, 48 and 96 B in
    /// place, then 200 B and 16-aligned, both boxed at the call site.
    /// Returns the id and whether the event took a large slot.
    fn push_shaped(q: &mut EventQueue, at: Nanos, kind: u64) -> (EventId, bool) {
        let id = match kind % 7 {
            0 => q.push(at, noop()),
            1 => {
                let w = [kind; 1];
                q.push(at, move |_| {
                    black_box(w);
                })
            }
            2 => {
                let w = [kind; 5];
                q.push(at, move |_| {
                    black_box(w);
                })
            }
            3 => {
                let w = [kind; 6];
                q.push(at, move |_| {
                    black_box(w);
                })
            }
            4 => {
                let w = [kind; 12];
                q.push(at, move |_| {
                    black_box(w);
                })
            }
            5 => {
                let w = [kind as u8; 200];
                q.push(
                    at,
                    Box::new(move |_: &mut Simulator| {
                        black_box(w);
                    }),
                )
            }
            _ => {
                let w = Aligned(kind);
                q.push(
                    at,
                    Box::new(move |_: &mut Simulator| {
                        assert_eq!(black_box(&w).0, kind);
                    }),
                )
            }
        };
        (id, matches!(kind % 7, 3 | 4))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(ns(30), noop());
        q.push(ns(10), noop());
        q.push(ns(20), noop());
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
        let a = q.push(ns(1), noop());
        q.push(ns(2), noop());
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
        let a = q.push(ns(1), noop());
        let _ = q.pop().unwrap();
        q.cancel(a);
        // The slot was recycled; cancelling the stale handle must not
        // damage a new event reusing it.
        let b = q.push(ns(9), noop());
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.cancel(b);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(ns(1), noop());
        q.push(ns(7), noop());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(ns(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn slots_recycle_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            let (id, _) = push_shaped(&mut q, ns(round), round);
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                let _ = q.pop().unwrap();
            }
        }
        // Neither arena grew past its first chunk.
        assert_eq!((q.small.chunks.len(), q.large.chunks.len()), (1, 1));
        assert!(q.len() <= 1);
    }

    #[test]
    fn arenas_grow_by_chunks_and_run_each_closure_at_its_time() {
        let mut q = EventQueue::new();
        let mut sim = Simulator::new(0);
        let ran = Rc::new(RefCell::new(Vec::new()));
        // Every third event is large, the rest small, later ones due
        // earlier: three chunks of small slots and two of large ones.
        let n = 4 * CHUNK as u64 + 2;
        let push_all = |q: &mut EventQueue| -> Vec<EventId> {
            (0..n)
                .map(|t| {
                    let ran = ran.clone();
                    let id = if t % 3 == 2 {
                        let pad = [t; 10];
                        q.push(ns(n - t), move |_| ran.borrow_mut().push(black_box(pad)[9]))
                    } else {
                        q.push(ns(n - t), move |_| ran.borrow_mut().push(t))
                    };
                    assert_eq!(is_large(id), t % 3 == 2);
                    id
                })
                .collect()
        };
        for round in 0..2 {
            let ids = push_all(&mut q);
            assert_eq!((q.small.chunks.len(), q.large.chunks.len()), (3, 2));
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            while let Some((_, action)) = q.pop() {
                action.run(&mut sim);
            }
            let expected: Vec<u64> = (1..n).rev().step_by(2).collect();
            assert_eq!(*ran.borrow(), expected, "round {round}");
            ran.borrow_mut().clear();
        }
    }

    #[test]
    fn compaction_bounds_tombstones() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..1_000).map(|i| q.push(ns(1_000 + i), noop())).collect();
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
        // Closures of every shape share the queue, so a cancel that finds
        // the wrong class's slot diverges from the oracle too.
        let mut q = EventQueue::new();
        let mut state = 0x5EEDu64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let push = |q: &mut EventQueue, at: u64, kind: u64| {
            let (id, large) = push_shaped(q, ns(at), kind);
            assert_eq!(is_large(id), large, "closure shape {}", kind % 7);
            id
        };
        let mut live: Vec<EventId> = Vec::new();
        for _ in 0..5_000 {
            match lcg() % 4 {
                0 | 1 => live.push(push(&mut q, lcg() % 512, lcg())),
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
                window.push((at, push(&mut q, at, lcg())));
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
        assert!(q.small.chunks.len() > 1 && q.large.chunks.len() > 1);
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

    /// Schedules at `at` a closure that captures a [`Witness`] of `tally`
    /// and `W` words: 8 B with none, 96 B (a large slot) with 11.
    fn witness_event<const W: usize>(sim: &mut Simulator, at: u64, tally: &Rc<Tally>) -> EventId {
        let (words, w) = ([7u64; W], Witness(tally.clone()));
        let id = sim.schedule_in(ns(at), move |_| {
            black_box(words);
            w.ran();
        });
        assert_eq!(is_large(id), (5..=11).contains(&W));
        id
    }

    /// Schedules at `at` a 208 B closure capturing a [`Witness`] of
    /// `tally`, boxed at the call site: the `Box` takes a small slot.
    fn boxed_witness_event(sim: &mut Simulator, at: u64, tally: &Rc<Tally>) -> EventId {
        let (bytes, w) = ([7u8; 200], Witness(tally.clone()));
        let f = move |_: &mut Simulator| {
            black_box(bytes);
            w.ran();
        };
        assert!(size_of_val(&f) > INLINE_BYTES);
        let id = sim.schedule_in(ns(at), Box::new(f));
        assert!(!is_large(id));
        id
    }

    type Schedule = fn(&mut Simulator, u64, &Rc<Tally>) -> EventId;

    /// Runs `check` once for a closure of each class, small and large, and
    /// for one boxed by its caller.
    fn for_each_class(check: fn(Schedule)) {
        check(witness_event::<0>);
        check(witness_event::<11>);
        check(boxed_witness_event);
    }

    #[test]
    fn a_run_event_drops_its_capture_once() {
        for_each_class(|schedule| {
            let tally = Rc::new(Tally::default());
            let mut sim = Simulator::new(0);
            schedule(&mut sim, 1, &tally);
            assert_eq!(tally.counts(), (0, 0));
            sim.run_until_idle();
            assert_eq!(tally.counts(), (1, 1));
            assert_eq!(Rc::strong_count(&tally), 1);
        });
    }

    #[test]
    fn a_cancelled_event_drops_its_capture_once_at_cancel() {
        for_each_class(|schedule| {
            let tally = Rc::new(Tally::default());
            let mut sim = Simulator::new(0);
            let id = schedule(&mut sim, 1, &tally);
            sim.cancel(id);
            assert_eq!(tally.counts(), (0, 1));
            sim.cancel(id);
            sim.run_until_idle();
            assert_eq!(tally.counts(), (0, 1));
            assert_eq!(Rc::strong_count(&tally), 1);
        });
    }

    #[test]
    fn dropping_a_simulator_drops_each_pending_capture_once() {
        for_each_class(|schedule| {
            let tally = Rc::new(Tally::default());
            let mut sim = Simulator::new(0);
            for t in 1..=4 {
                schedule(&mut sim, t, &tally);
            }
            sim.run_until(ns(1));
            assert_eq!(tally.counts(), (1, 1));
            drop(sim);
            assert_eq!(tally.counts(), (1, 4));
            assert_eq!(Rc::strong_count(&tally), 1);
        });
    }

    #[test]
    fn a_closure_of_exactly_the_buffer_size_is_stored_in_place() {
        assert_eq!(size_of::<Slot<SmallBuf>>(), 56);
        assert_eq!(size_of::<Slot<LargeBuf>>(), 112);
        let tally = Rc::new(Tally::default());
        let mut sim = Simulator::new(0);
        let (words, w) = ([1u64; 4], Witness(tally.clone()));
        let small = move |_: &mut Simulator| {
            assert_eq!(words.iter().sum::<u64>(), 4);
            w.ran();
        };
        assert_eq!(size_of_val(&small), SMALL_BYTES);
        let (words, w) = ([1u64; 11], Witness(tally.clone()));
        let large = move |_: &mut Simulator| {
            assert_eq!(words.iter().sum::<u64>(), 11);
            w.ran();
        };
        assert_eq!(size_of_val(&large), INLINE_BYTES);
        assert!(!is_large(sim.schedule_in(ns(1), small)));
        assert!(is_large(sim.schedule_in(ns(1), large)));
        sim.run_until_idle();
        assert_eq!(tally.counts(), (2, 2));
    }

    #[test]
    fn an_action_runs_and_drops_its_closure_once_in_each_class() {
        let tally = Rc::new(Tally::default());
        let mut sim = Simulator::new(0);
        let w = Witness(tally.clone());
        Action::new(move |_| w.ran()).run(&mut sim);
        let (words, w) = ([3u64; 11], Witness(tally.clone()));
        let large = Action::new(move |_| {
            black_box(words);
            w.ran();
        });
        assert!(matches!(large.0, Held::Large(_)));
        large.run(&mut sim);
        let (bytes, w) = ([0u8; 200], Witness(tally.clone()));
        drop(Action::new(Box::new(move |_: &mut Simulator| {
            black_box(bytes);
            w.ran();
        })));
        assert_eq!(tally.counts(), (2, 3));
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
    }
}
