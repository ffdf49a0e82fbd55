//! Recycling byte-buffer pool for the simulated transports.
//!
//! The TCP model allocates a `Vec<u8>` per segment (send copy + unacked
//! retransmission copy) and the verbs model re-allocates each receive buffer
//! it re-posts — per-message heap traffic that dominated steady-state
//! simulation profiles. [`BytePool`] keeps freed buffers in power-of-two
//! size-class freelists so the steady state recycles instead of allocating.
//!
//! The pool is pure bookkeeping over deterministic callers — takes and
//! returns happen in event order, so recycling never perturbs a fixed-seed
//! run. Occupancy and hit/miss counts are surfaced as `pool.*` gauges in
//! metrics snapshots by
//! [`Network::publish_sim_gauges`](crate::Network::publish_sim_gauges).

use std::cell::RefCell;
use std::rc::Rc;

use crate::metrics::{Gauges, Metrics};

crate::metric_names! {
    /// Gauges one pool publishes, under `pool.<name>.`.
    pub(crate) enum PoolGauge {
        Takes => "takes",
        Returns => "returns",
        Misses => "misses",
        Dropped => "dropped",
        Outstanding => "outstanding",
        HighWater => "high_water",
        Parked => "parked",
    }
}

/// Smallest size class (everything under 64 bytes shares one class).
const MIN_CLASS: u32 = 6;
/// Largest pooled class: 2^20 = 1 MiB. Bigger buffers are not pooled.
const MAX_CLASS: u32 = 20;
/// Per-class cap on retained buffers; overflow is dropped to the allocator.
const MAX_PER_CLASS: usize = 256;

/// Lifetime counters for one pool, surfaced as `pool.<name>.*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out.
    pub takes: u64,
    /// Buffers returned for reuse.
    pub returns: u64,
    /// Takes that had to fall back to a fresh allocation.
    pub misses: u64,
    /// Returns dropped because the class was full or the buffer oversized.
    pub dropped: u64,
    /// Buffers currently out with callers.
    pub outstanding: i64,
    /// Maximum simultaneously outstanding buffers.
    pub high_water: i64,
    /// Buffers currently parked in the freelists.
    pub parked: usize,
}

struct PoolInner {
    name: String,
    classes: Vec<Vec<Vec<u8>>>,
    stats: PoolStats,
}

/// A shared, size-classed freelist of `Vec<u8>` buffers.
///
/// Cloning is cheap (`Rc`); all clones share one freelist. [`take`]
/// returns an empty vec with at least the requested capacity; [`put`]
/// recycles a spent buffer.
///
/// [`take`]: BytePool::take
/// [`put`]: BytePool::put
#[derive(Clone)]
pub struct BytePool {
    inner: Rc<RefCell<PoolInner>>,
}

impl std::fmt::Debug for BytePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("BytePool")
            .field("name", &inner.name)
            .field("stats", &inner.stats)
            .finish()
    }
}

fn class_for_len(len: usize) -> u32 {
    let bits = usize::BITS - len.max(1).next_power_of_two().leading_zeros() - 1;
    bits.clamp(MIN_CLASS, MAX_CLASS + 1)
}

impl BytePool {
    /// Creates an empty pool. `name` prefixes its metrics keys.
    pub fn new(name: impl Into<String>) -> BytePool {
        BytePool {
            inner: Rc::new(RefCell::new(PoolInner {
                name: name.into(),
                classes: (MIN_CLASS..=MAX_CLASS).map(|_| Vec::new()).collect(),
                stats: PoolStats::default(),
            })),
        }
    }

    /// Hands out an empty buffer with capacity ≥ `len`, recycling a parked
    /// one when the size class has any.
    pub fn take(&self, len: usize) -> Vec<u8> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.takes += 1;
        inner.stats.outstanding += 1;
        inner.stats.high_water = inner.stats.high_water.max(inner.stats.outstanding);
        let class = class_for_len(len);
        if class <= MAX_CLASS {
            let idx = (class - MIN_CLASS) as usize;
            if let Some(mut buf) = inner.classes[idx].pop() {
                inner.stats.parked -= 1;
                buf.clear();
                return buf;
            }
        }
        inner.stats.misses += 1;
        // Allocate the full class size so the buffer files back into the
        // class it was taken from (put classes by capacity, floor-log2).
        let cap = if class <= MAX_CLASS {
            1usize << class
        } else {
            len
        };
        Vec::with_capacity(cap)
    }

    /// Returns a spent buffer to its size class for reuse. Oversized
    /// buffers and full classes fall back to the allocator.
    pub fn put(&self, buf: Vec<u8>) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.returns += 1;
        inner.stats.outstanding -= 1;
        if buf.capacity() == 0 {
            inner.stats.dropped += 1;
            return;
        }
        // File under the largest class the capacity fully covers, so a
        // later take from that class is guaranteed to fit.
        let cap_bits = usize::BITS - buf.capacity().leading_zeros() - 1;
        if !(MIN_CLASS..=MAX_CLASS).contains(&cap_bits) {
            inner.stats.dropped += 1;
            return;
        }
        let idx = (cap_bits - MIN_CLASS) as usize;
        if inner.classes[idx].len() >= MAX_PER_CLASS {
            inner.stats.dropped += 1;
            return;
        }
        inner.classes[idx].push(buf);
        inner.stats.parked += 1;
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.borrow().stats
    }

    /// This pool's `pool.<name>.*` gauge handles in `metrics`, for
    /// [`BytePool::publish`].
    pub(crate) fn gauges(&self, metrics: &Metrics) -> Gauges<PoolGauge> {
        metrics.gauges(&format!("pool.{}.", self.inner.borrow().name))
    }

    /// Publishes the counters through `gauges`.
    pub(crate) fn publish(&self, gauges: &Gauges<PoolGauge>) {
        let s = self.inner.borrow().stats;
        gauges[PoolGauge::Takes].set(s.takes as i64);
        gauges[PoolGauge::Returns].set(s.returns as i64);
        gauges[PoolGauge::Misses].set(s.misses as i64);
        gauges[PoolGauge::Dropped].set(s.dropped as i64);
        gauges[PoolGauge::Outstanding].set(s.outstanding);
        gauges[PoolGauge::HighWater].set(s.high_water);
        gauges[PoolGauge::Parked].set(s.parked as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_within_class() {
        let pool = BytePool::new("t");
        let mut a = pool.take(1000);
        a.extend_from_slice(&[7u8; 1000]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take(900);
        assert!(b.is_empty());
        assert!(b.capacity() >= 900);
        assert_eq!(b.capacity(), cap, "same buffer came back");
        let s = pool.stats();
        assert_eq!(s.takes, 2);
        assert_eq!(s.returns, 1);
        assert_eq!(s.misses, 1, "only the first take allocates");
        assert_eq!(s.outstanding, 1);
    }

    #[test]
    fn take_after_put_of_smaller_class_still_fits() {
        let pool = BytePool::new("t");
        pool.put(Vec::with_capacity(100)); // class 64: guarantees ≥ 64 only
        let b = pool.take(4096); // must not reuse the 100-cap buffer
        assert!(b.capacity() >= 4096);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn oversized_and_overflow_are_dropped() {
        let pool = BytePool::new("t");
        pool.put(Vec::with_capacity(4 << 20));
        assert_eq!(pool.stats().dropped, 1);
        assert_eq!(pool.stats().parked, 0);
    }

    #[test]
    fn steady_state_take_put_cycle_never_misses_again() {
        let pool = BytePool::new("t");
        for round in 0..100 {
            let mut b = pool.take(1460);
            b.extend_from_slice(&[round as u8; 1460]);
            pool.put(b);
        }
        let s = pool.stats();
        assert_eq!(s.takes, 100);
        assert_eq!(s.misses, 1, "steady state allocates nothing per message");
        assert_eq!(s.outstanding, 0);
    }

    #[test]
    fn publishes_gauges() {
        let m = Metrics::new();
        let pool = BytePool::new("net");
        let b = pool.take(100);
        pool.put(b);
        pool.publish(&pool.gauges(&m));
        let snap = m.snapshot();
        assert_eq!(snap.gauge("pool.net.takes"), 1);
        assert_eq!(snap.gauge("pool.net.returns"), 1);
        assert_eq!(snap.gauge("pool.net.outstanding"), 0);
    }
}
