//! Pre-registered buffer pools.
//!
//! Memory registration is expensive (ioctl + page pinning), so RUBIN
//! registers a pool of fixed-size buffers once at channel creation and
//! recycles them (paper §IV: "a pool of buffers for send and receive
//! requests are pre-registered and can be reused as needed").

use rdma_verbs::{Access, MemoryRegion, ProtectionDomain, RdmaDevice};
use simnet::Counters;

/// Index of a slab within its pool.
pub type SlabIndex = usize;

/// Pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful lends.
    pub lends: u64,
    /// Lend attempts that found the pool empty.
    pub exhaustions: u64,
    /// Maximum simultaneously outstanding slabs.
    pub high_water: usize,
}

simnet::metric_names! {
    /// Counters of one host's buffer pools, under `rubin.<host>.pool.`.
    enum PoolCounter {
        Lends => "lends",
        Exhaustions => "exhaustions",
    }
}

/// A fixed pool of equally sized, pre-registered memory regions.
#[derive(Debug)]
pub struct BufferPool {
    slabs: Vec<MemoryRegion>,
    free: Vec<SlabIndex>,
    outstanding: usize,
    stats: PoolStats,
    /// Pools on one host aggregate into the same counters.
    counters: Counters<PoolCounter>,
}

impl BufferPool {
    /// Registers `count` buffers of `size` bytes in `pd` with the given
    /// access flags.
    pub fn register(
        device: &RdmaDevice,
        pd: &ProtectionDomain,
        count: usize,
        size: usize,
        access: Access,
    ) -> BufferPool {
        assert!(count > 0 && size > 0, "pool must have positive dimensions");
        let slabs = (0..count)
            .map(|_| device.reg_mr(pd, size, access))
            .collect();
        BufferPool {
            slabs,
            free: (0..count).rev().collect(),
            outstanding: 0,
            stats: PoolStats::default(),
            counters: device
                .net()
                .metrics()
                .counters(&format!("rubin.{}.pool.", device.host())),
        }
    }

    /// Number of buffers in the pool.
    pub fn capacity(&self) -> usize {
        self.slabs.len()
    }

    /// Number of free buffers.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Borrows a free slab, if any.
    pub fn lend(&mut self) -> Option<(SlabIndex, MemoryRegion)> {
        match self.free.pop() {
            Some(idx) => {
                self.outstanding += 1;
                self.stats.lends += 1;
                self.stats.high_water = self.stats.high_water.max(self.outstanding);
                self.counters[PoolCounter::Lends].incr();
                Some((idx, self.slabs[idx].clone()))
            }
            None => {
                self.stats.exhaustions += 1;
                self.counters[PoolCounter::Exhaustions].incr();
                None
            }
        }
    }

    /// Returns a previously lent slab.
    ///
    /// # Panics
    ///
    /// Panics on double-return or an index that was never lent.
    pub fn give_back(&mut self, idx: SlabIndex) {
        assert!(idx < self.slabs.len(), "slab index {idx} out of range");
        assert!(
            !self.free.contains(&idx),
            "slab {idx} returned twice to the pool"
        );
        self.free.push(idx);
        self.outstanding -= 1;
    }

    /// The region backing slab `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn slab(&self, idx: SlabIndex) -> &MemoryRegion {
        &self.slabs[idx]
    }

    /// Pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::RnicModel;
    use simnet::TestBed;

    fn pool(count: usize) -> BufferPool {
        let tb = TestBed::paper_testbed(0);
        let dev = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let pd = dev.alloc_pd();
        BufferPool::register(&dev, &pd, count, 1024, Access::LOCAL_WRITE)
    }

    #[test]
    fn lend_and_return_cycles() {
        let mut p = pool(2);
        assert_eq!(p.capacity(), 2);
        let (a, _) = p.lend().unwrap();
        let (b, _) = p.lend().unwrap();
        assert_ne!(a, b);
        assert!(p.lend().is_none());
        assert_eq!(p.stats().exhaustions, 1);
        p.give_back(a);
        let (c, _) = p.lend().unwrap();
        assert_eq!(c, a);
        assert_eq!(p.stats().high_water, 2);
        p.give_back(b);
        p.give_back(c);
        assert_eq!(p.available(), 2);
    }

    #[test]
    fn slabs_are_registered_with_requested_access() {
        let p = pool(1);
        assert!(p.slab(0).access().allows(Access::LOCAL_WRITE));
        assert_eq!(p.slab(0).len(), 1024);
    }

    #[test]
    #[should_panic(expected = "returned twice")]
    fn double_return_panics() {
        let mut p = pool(1);
        let (a, _) = p.lend().unwrap();
        p.give_back(a);
        p.give_back(a);
    }
}
