//! The simulator's event queue.
//!
//! Events are closures scheduled for a future instant. Ordering is total and
//! deterministic: ties on the timestamp are broken by the monotonically
//! increasing sequence number assigned at scheduling time, so two runs of the
//! same program always execute events in the same order.
//!
//! # Sharded queue with conservative lookahead
//!
//! The queue is the simulator's hottest data structure: every frame delivery,
//! CPU completion and protocol timer passes through it, and big geo-cluster
//! runs keep hundreds of thousands of events pending. The implementation is
//! built for that load:
//!
//! * **Arena-allocated events.** Actions live in a slab ([`Slot`] arena with
//!   a free list); the heaps order 16-byte plain-old-data [`Entry`] values
//!   (`(time, id)`), so a sift moves two words instead of a closure, and
//!   the slot index is packed into the id's low bits — no side map is
//!   needed to find an event from its handle. A slot stores its closure in
//!   place ([`Action`]), so scheduling an event allocates nothing.
//! * **Per-host shards.** Events carry a shard hint (the destination host of
//!   a frame delivery, propagated to everything an event schedules in turn),
//!   and each shard keeps its own small heap — small enough to stay
//!   cache-resident where one global heap of the same events spills. The
//!   shard heads are merged through a tiny *head index* (a lazily
//!   invalidated min-heap holding each shard's current head), so a pop
//!   costs `O(log shards)` on the index plus `O(log n/shards)` on one
//!   shard instead of `O(log n)` on a cache-cold global heap.
//! * **Conservative lookahead fence.** After a merge, the winning shard may
//!   keep popping without re-consulting the index for as long as its head
//!   stays at or below the runner-up key observed at merge time. Events
//!   cluster per host, so bursty stretches take the fenced fast path. The
//!   merge always yields the global `(time, id)` minimum, so the execution
//!   order is bit-identical to a single global queue.
//! * **O(1) cancellation without tombstone growth.** Cancelling frees the
//!   slot immediately (the action drops, the arena slot recycles); the dead
//!   heap entry is drained lazily the next time it surfaces, and a tombstone
//!   counter triggers a compaction sweep when dead entries outnumber live
//!   ones, so cancel-heavy runs (per-segment ACK timers) stay bounded.
//!
//! Under `cfg(test)` every queue carries the pre-sharding global heap (the
//! `legacy` module) and [`EventQueue::pop`] asserts that both agree on each
//! pop's `(time, seq)`, so every simnet unit test that runs a simulation is
//! also a lock-step proof that sharding preserves the total order.

use std::cmp::Ordering;
use std::fmt;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::sim::Simulator;
use crate::time::Nanos;

/// A 4-ary min-heap of small `Copy` items.
///
/// The event core's heaps hold 16-byte plain-old-data entries, so a node's
/// four children share one 64-byte cache line: a sift-down touches half the
/// levels of a binary heap and one line per level, which is most of the
/// sharded core's speed advantage over the `std::collections::BinaryHeap`
/// generation it replaced.
#[derive(Debug)]
struct MinHeap4<T: Copy + Ord> {
    v: Vec<T>,
}

impl<T: Copy + Ord> Default for MinHeap4<T> {
    fn default() -> Self {
        MinHeap4::new()
    }
}

impl<T: Copy + Ord> MinHeap4<T> {
    fn new() -> MinHeap4<T> {
        MinHeap4 { v: Vec::new() }
    }

    /// Heapifies a vec in O(n).
    fn from_vec(v: Vec<T>) -> MinHeap4<T> {
        let mut h = MinHeap4 { v };
        if h.v.len() > 1 {
            for i in (0..=(h.v.len() - 2) / 4).rev() {
                h.sift_down(i);
            }
        }
        h
    }

    fn into_vec(self) -> Vec<T> {
        self.v
    }

    fn clear(&mut self) {
        self.v.clear();
    }

    #[inline]
    fn peek(&self) -> Option<&T> {
        self.v.first()
    }

    #[inline]
    fn push(&mut self, item: T) {
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
    fn pop(&mut self) -> Option<T> {
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

/// Closure bytes a slot holds in place. The largest closure the system
/// schedules on the benchmark workloads is 96 B (the RDMA receive-placement
/// step in `QueuePair::handle_inbound_send`); the rest are 8–80 B.
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

/// A heap entry: plain old data, 16 bytes, cheap to sift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: Nanos,
    id: u64,
}

impl Entry {
    fn key(&self) -> (Nanos, u64) {
        (self.at, self.id)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Natural (min-first) order: earliest time, ties broken by
        // scheduling order (lower id first).
        self.at.cmp(&other.at).then_with(|| self.id.cmp(&other.id))
    }
}

/// One arena slot: the stored action plus the id it belongs to, so stale
/// heap entries pointing at a recycled slot are recognised as dead. 112
/// bytes: `None` is `Action::call`'s null niche.
struct Slot {
    id: u64,
    action: Option<Action>,
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
    /// Dead heap entries drained lazily on pop/peek.
    pub tombstones_purged: u64,
    /// Compaction sweeps rebuilding the shard heaps.
    pub compactions: u64,
    /// Live (pending, non-cancelled) events right now.
    pub pending: usize,
    /// Dead entries currently sitting in the heaps.
    pub tombstones: usize,
    /// Maximum simultaneously pending live events.
    pub high_water: usize,
    /// Pops served by the fenced fast path (no index traffic).
    pub run_hits: u64,
    /// Pops that needed a full head-index merge.
    pub merges: u64,
    /// Stale head-index entries discarded during merges.
    pub index_stale: u64,
}

/// Fenced fast-path state: while `shard`'s head stays at or below `fence`
/// (the runner-up key from the last index merge, `None` = no other entry
/// was indexed), it may pop without consulting the index.
#[derive(Clone, Copy)]
struct RunCache {
    shard: usize,
    fence: Option<(Nanos, u64)>,
}

/// A head-index entry: one shard's head at the time it was indexed. Stale
/// entries (the head has since been popped or displaced) are discarded
/// lazily when they surface at the index top.
#[derive(Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    e: Entry,
    shard: u32,
}

impl PartialOrd for IndexEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Order purely by the entry key; the shard tag is payload.
        self.e.cmp(&other.e)
    }
}

/// Deterministic priority queue of scheduled events with O(1) cancellation.
///
/// Invariant: every non-empty shard's *current* head has an entry in
/// `index` (possibly alongside stale duplicates). Pops keep it by
/// re-indexing a shard's new head immediately after popping the old one.
pub(crate) struct EventQueue {
    shards: Vec<MinHeap4<Entry>>,
    index: MinHeap4<IndexEntry>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
    tombstones: usize,
    scheduled: u64,
    boxed: u64,
    cancelled: u64,
    tombstones_purged: u64,
    compactions: u64,
    high_water: usize,
    run_hits: u64,
    merges: u64,
    index_stale: u64,
    cache: Option<RunCache>,
    #[cfg(test)]
    shadow: legacy::LegacyEventQueue,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::with_shards(DEFAULT_SHARDS)
    }

    pub fn with_shards(shards: usize) -> EventQueue {
        let shards = shards.max(1);
        EventQueue {
            shards: (0..shards).map(|_| MinHeap4::new()).collect(),
            index: MinHeap4::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            tombstones: 0,
            scheduled: 0,
            boxed: 0,
            cancelled: 0,
            tombstones_purged: 0,
            compactions: 0,
            high_water: 0,
            run_hits: 0,
            merges: 0,
            index_stale: 0,
            cache: None,
            #[cfg(test)]
            shadow: legacy::LegacyEventQueue::new(),
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn is_live(&self, entry: Entry) -> bool {
        let slot = &self.slots[(entry.id & SLOT_MASK) as usize];
        slot.id == entry.id && slot.action.is_some()
    }

    /// Schedules `action` at `at`. The closure goes straight into its slot;
    /// everything else is [`enqueue`](Self::enqueue), which is not generic.
    #[inline]
    pub fn push<F>(&mut self, at: Nanos, shard_hint: u32, action: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        let id = self.enqueue(at, shard_hint);
        if Action::put(&mut self.slots[(id & SLOT_MASK) as usize].action, action) {
            self.boxed += 1;
        }
        EventId(id)
    }

    /// Takes a slot, stamps it with a fresh id and orders `(at, id)`; the
    /// caller fills the slot's action before anything else runs.
    fn enqueue(&mut self, at: Nanos, shard_hint: u32) -> u64 {
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
        let shard = (shard_hint as usize) % self.shards.len();
        // A push into another shard below the fence can change the merge
        // winner; retire the fast path and re-merge on the next pop.
        if let Some(c) = self.cache {
            if c.shard != shard && c.fence.is_none_or(|f| (at, id) < f) {
                self.retire_cache();
            }
        }
        let entry = Entry { at, id };
        // Index the entry iff it becomes its shard's head; otherwise the
        // current head's index entry already covers the shard. The cached
        // shard is exempt while its run is active — `retire_cache`
        // re-indexes its head on run exit — so same-shard cascade pushes
        // generate no index traffic at all.
        let new_head = self.shards[shard]
            .peek()
            .is_none_or(|head| entry.key() < head.key());
        self.shards[shard].push(entry);
        if new_head && !matches!(self.cache, Some(c) if c.shard == shard) {
            self.index.push(IndexEntry {
                e: entry,
                shard: shard as u32,
            });
        }
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        self.scheduled += 1;
        #[cfg(test)]
        self.shadow.push(at);
        id
    }

    pub fn cancel(&mut self, id: EventId) {
        let idx = (id.0 & SLOT_MASK) as usize;
        if idx >= self.slots.len() {
            return;
        }
        let slot = &mut self.slots[idx];
        if slot.id != id.0 || slot.action.is_none() {
            return; // already ran or already cancelled
        }
        // Dropped on return, once the queue's books are straight.
        let _action = slot.action.take();
        self.free.push(idx as u32);
        self.live -= 1;
        self.tombstones += 1;
        self.cancelled += 1;
        #[cfg(test)]
        self.shadow.cancel(id.0 >> SLOT_BITS);
        self.maybe_compact();
    }

    /// Rebuilds every shard heap without its dead entries once tombstones
    /// outnumber live events, bounding memory on cancel-heavy runs. The
    /// head index is rebuilt from the surviving shard heads.
    fn maybe_compact(&mut self) {
        if self.tombstones <= 64 || self.tombstones <= self.live {
            return;
        }
        for shard in &mut self.shards {
            let entries: Vec<Entry> = std::mem::take(shard)
                .into_vec()
                .into_iter()
                .filter(|e| {
                    let slot = &self.slots[(e.id & SLOT_MASK) as usize];
                    slot.id == e.id && slot.action.is_some()
                })
                .collect();
            *shard = MinHeap4::from_vec(entries);
        }
        self.index.clear();
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(&head) = shard.peek() {
                self.index.push(IndexEntry {
                    e: head,
                    shard: s as u32,
                });
            }
        }
        self.tombstones_purged += self.tombstones as u64;
        self.tombstones = 0;
        self.compactions += 1;
        self.cache = None;
    }

    /// Ends a fast-path run: re-indexes the cached shard's current head
    /// (the one entry the lazy invariant exempts while the run is active)
    /// and clears the cache.
    #[cold]
    fn retire_cache(&mut self) {
        if let Some(c) = self.cache.take() {
            if let Some(&head) = self.shards[c.shard].peek() {
                self.index.push(IndexEntry {
                    e: head,
                    shard: c.shard as u32,
                });
            }
        }
    }

    /// Frees `entry`'s slot if its event is still live, leaving the action
    /// in it for [`pop`](Self::pop) to move out; purges the tombstone
    /// counter otherwise.
    #[inline]
    fn claim(&mut self, entry: Entry) -> bool {
        if self.is_live(entry) {
            self.free.push((entry.id & SLOT_MASK) as u32);
            self.live -= 1;
            return true;
        }
        self.tombstones -= 1;
        self.tombstones_purged += 1;
        false
    }

    /// Full merge via the head index: pops the globally minimal live event,
    /// discarding dead entries and stale index entries along the way, and
    /// opens a new fenced run for the winning shard.
    fn merge_pop(&mut self) -> Option<(u32, Entry)> {
        self.merges += 1;
        loop {
            let top = *self.index.peek()?;
            let shard = top.shard as usize;
            if self.shards[shard].peek() != Some(&top.e) {
                // Stale: that head was popped or displaced since indexing.
                self.index.pop();
                self.index_stale += 1;
                continue;
            }
            self.index.pop();
            self.shards[shard].pop();
            if self.claim(top.e) {
                // Open a run: the shard's next head stays un-indexed while
                // the fence (runner-up key; possibly a stale entry, which
                // is conservative — a too-low fence only re-merges early)
                // lets the fast path keep popping it.
                let fence = self.index.peek().map(|i| i.e.key());
                self.cache = Some(RunCache { shard, fence });
                return Some((shard as u32, top.e));
            }
            // Dead head: no run opened, so restore the shard's index cover.
            if let Some(&next) = self.shards[shard].peek() {
                self.index.push(IndexEntry {
                    e: next,
                    shard: top.shard,
                });
            }
        }
    }

    /// Pops the next live (non-cancelled) event with its shard. The action
    /// moves out of its slot here, once.
    pub fn pop(&mut self) -> Option<(u32, Nanos, Action)> {
        let popped = self.pop_inner();
        #[cfg(test)]
        assert_eq!(
            self.shadow.pop(),
            popped.map(|(_, e)| (e.at, e.id >> SLOT_BITS)),
            "sharded queue diverged from the legacy (time, seq) order"
        );
        let (shard, e) = popped?;
        let action = self.slots[(e.id & SLOT_MASK) as usize].action.take();
        Some((
            shard,
            e.at,
            action.expect("a claimed slot holds its action"),
        ))
    }

    fn pop_inner(&mut self) -> Option<(u32, Entry)> {
        if self.live == 0 {
            self.retire_cache();
            return None;
        }
        // Fenced fast path: the last winner keeps popping while its head
        // stays at or below the runner-up key from the last merge — no
        // index traffic at all during the run.
        if let Some(c) = self.cache {
            while let Some(&head) = self.shards[c.shard].peek() {
                if c.fence.is_some_and(|f| head.key() > f) {
                    break;
                }
                self.shards[c.shard].pop();
                if self.claim(head) {
                    self.run_hits += 1;
                    return Some((c.shard as u32, head));
                }
            }
            self.retire_cache();
        }
        self.merge_pop()
    }

    /// Timestamp of the next live event, if any. Purges dead heads and
    /// stale index entries encountered on the way.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        if self.live == 0 {
            return None;
        }
        // Fast path mirror of `pop_inner`: the cached shard's head is the
        // global minimum while it stays at or below the fence.
        if let Some(c) = self.cache {
            while let Some(&head) = self.shards[c.shard].peek() {
                if c.fence.is_some_and(|f| head.key() > f) {
                    break;
                }
                if self.is_live(head) {
                    return Some(head.at);
                }
                self.shards[c.shard].pop();
                self.tombstones -= 1;
                self.tombstones_purged += 1;
            }
            self.retire_cache();
        }
        loop {
            let top = *self.index.peek()?;
            let shard = top.shard as usize;
            if self.shards[shard].peek() != Some(&top.e) {
                self.index.pop();
                continue;
            }
            if self.is_live(top.e) {
                // Open a run so the following `pop` takes the fast path.
                self.index.pop();
                let fence = self.index.peek().map(|i| i.e.key());
                self.cache = Some(RunCache { shard, fence });
                return Some(top.e.at);
            }
            self.index.pop();
            self.shards[shard].pop();
            self.tombstones -= 1;
            self.tombstones_purged += 1;
            if let Some(&next) = self.shards[shard].peek() {
                self.index.push(IndexEntry {
                    e: next,
                    shard: top.shard,
                });
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.scheduled,
            boxed: self.boxed,
            cancelled: self.cancelled,
            tombstones_purged: self.tombstones_purged,
            compactions: self.compactions,
            pending: self.live,
            tombstones: self.tombstones,
            high_water: self.high_water,
            run_hits: self.run_hits,
            merges: self.merges,
            index_stale: self.index_stale,
        }
    }
}

/// Default shard count: enough that a 31-replica cluster spreads ~2 hosts
/// per shard while the merge scan stays a cache-line-friendly sweep.
pub(crate) const DEFAULT_SHARDS: usize = 16;

#[cfg(test)]
mod legacy {
    //! The pre-sharding event queue: one global `BinaryHeap` keyed by
    //! `(time, seq)` plus a cancelled-id `HashSet` checked on every pop.
    //! Kept as the order oracle the sharded queue is tested against.

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
        q.push(Nanos::from_nanos(30), 0, noop());
        q.push(Nanos::from_nanos(10), 1, noop());
        q.push(Nanos::from_nanos(20), 2, noop());
        assert_eq!(q.pop().unwrap().1.as_nanos(), 10);
        assert_eq!(q.pop().unwrap().1.as_nanos(), 20);
        assert_eq!(q.pop().unwrap().1.as_nanos(), 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order_across_shards() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::from_nanos(5), 3, noop());
        let b = q.push(Nanos::from_nanos(5), 9, noop());
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        // Entries live in different shards; insertion order still wins.
        assert!(a < b);
        assert_eq!(first.1, Nanos::from_nanos(5));
        assert_eq!(second.1, Nanos::from_nanos(5));
    }

    #[test]
    fn cancelled_events_are_skipped_and_counted() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::from_nanos(1), 0, noop());
        q.push(Nanos::from_nanos(2), 0, noop());
        q.cancel(a);
        assert_eq!(q.pop().unwrap().1.as_nanos(), 2);
        assert!(q.pop().is_none());
        let s = q.stats();
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.tombstones_purged, 1);
        assert_eq!(s.tombstones, 0);
    }

    #[test]
    fn cancel_after_pop_is_a_noop() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::from_nanos(1), 0, noop());
        let _ = q.pop().unwrap();
        q.cancel(a);
        // The slot was recycled; cancelling the stale handle must not
        // damage a new event reusing it.
        let b = q.push(Nanos::from_nanos(9), 0, noop());
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.cancel(b);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::from_nanos(1), 0, noop());
        q.push(Nanos::from_nanos(7), 0, noop());
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
            let id = q.push(Nanos::from_nanos(round), (round % 7) as u32, noop());
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
            .map(|i| q.push(Nanos::from_nanos(1_000 + i), (i % 16) as u32, noop()))
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
        assert_eq!(q.pop().unwrap().1.as_nanos(), 1_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn matches_legacy_order_under_random_churn() {
        // The oracle is the queue's own shadow heap: `push` and `cancel`
        // feed it, and every `pop` asserts both agree on `(time, seq)`.
        let mut q = EventQueue::with_shards(5);
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
                0 | 1 => {
                    let at = Nanos::from_nanos(lcg() % 512);
                    let shard = (lcg() % 5) as u32;
                    live.push(q.push(at, shard, noop()));
                }
                2 if !live.is_empty() => {
                    let i = (lcg() as usize) % live.len();
                    q.cancel(live.swap_remove(i));
                }
                _ => {
                    q.pop();
                    assert_eq!(q.peek_time(), q.shadow.peek_time());
                }
            }
        }
        while q.pop().is_some() {}
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
