//! Simulated hosts: multi-core CPUs with a cost model.
//!
//! A [`Host`] models a machine with a fixed number of cores. Higher layers
//! charge CPU work (copies, syscalls, MAC computations, …) to a core; the
//! core's timeline serializes that work, so two tasks pinned to the same core
//! genuinely contend in simulated time while tasks on different cores overlap
//! — this is what makes Consensus-Oriented Parallelization observable in the
//! simulation.

use std::cell::RefCell;
use std::rc::Rc;

use crate::metrics::{Counters, Metrics};
use crate::time::Nanos;

crate::metric_names! {
    /// Counters of one host, under `host.<id>.`.
    enum HostCounter {
        Syscalls => "syscalls",
        KernelCrossings => "kernel_crossings",
        Interrupts => "interrupts",
        KernelCopies => "kernel_copies",
        KernelCopyBytes => "kernel_copy_bytes",
        UserCopies => "user_copies",
        UserCopyBytes => "user_copy_bytes",
        DmaTransfers => "dma_transfers",
        DmaBytes => "dma_bytes",
    }
}

/// Identifier of a host within a [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Index of a core within a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub u16);

/// Per-host CPU cost constants, in nanoseconds.
///
/// These are the generic machine primitives; protocol-stack-specific costs
/// (TCP segment processing, verbs posting, …) live in the respective crates'
/// cost models and are expressed in terms of these plus their own constants.
///
/// Defaults approximate the paper's testbed: a 4-core Xeon v2 with a managed
/// (Java) runtime on top, which is why the per-operation overheads are far
/// above bare-metal C numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Cost of copying one byte between user buffers (memcpy through the
    /// managed heap; includes cache misses at BFT message sizes).
    pub copy_ns_per_byte: f64,
    /// Cost of one user/kernel crossing (syscall entry+exit).
    pub syscall_ns: u64,
    /// Cost of taking one interrupt (NIC RX, completion).
    pub interrupt_ns: u64,
    /// Fixed per-operation overhead of the managed runtime I/O layer
    /// (object allocation, JNI-equivalent marshalling, dispatch).
    pub runtime_io_ns: u64,
}

impl CpuModel {
    /// Cost model for the paper's 4-core Xeon v2 + Java stack.
    pub fn xeon_v2() -> CpuModel {
        CpuModel {
            copy_ns_per_byte: 0.8,
            syscall_ns: 7_700,
            interrupt_ns: 2_600,
            runtime_io_ns: 5_300,
        }
    }

    /// Cost of copying `bytes` bytes.
    pub fn copy_cost(&self, bytes: usize) -> Nanos {
        Nanos::from_nanos((self.copy_ns_per_byte * bytes as f64) as u64)
    }
}

impl Default for CpuModel {
    fn default() -> CpuModel {
        CpuModel::xeon_v2()
    }
}

#[derive(Debug, Clone, Default)]
struct Core {
    busy_until: Nanos,
    total_busy: Nanos,
}

/// A simulated machine with `n` cores.
///
/// Work is charged with [`Host::exec`]: it reserves time on a core starting
/// no earlier than `now` and no earlier than the core's previous work, and
/// returns the completion instant. Callers then schedule their continuation
/// at that instant.
#[derive(Debug)]
pub struct Host {
    id: HostId,
    name: String,
    cores: Vec<Core>,
    cpu: CpuModel,
    metrics: Metrics,
    counters: Counters<HostCounter>,
}

/// Shared handle to a [`Host`].
pub type HostRef = Rc<RefCell<Host>>;

impl Host {
    /// A host reporting into `metrics` ([`Network::add_host`](crate::Network::add_host)
    /// passes the network's registry, so every host of one network reports
    /// into the same snapshot).
    pub(crate) fn new(
        id: HostId,
        name: impl Into<String>,
        num_cores: usize,
        cpu: CpuModel,
        metrics: Metrics,
    ) -> Host {
        assert!(num_cores > 0, "a host needs at least one core");
        Host {
            id,
            name: name.into(),
            cores: vec![Core::default(); num_cores],
            cpu,
            counters: metrics.counters(&format!("host.{id}.")),
            metrics,
        }
    }

    /// Handle to the registry this host reports into.
    pub fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }

    /// This host's identifier.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// Human-readable host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The host's CPU cost model.
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// Reserves `work` of CPU time on `core`, starting at or after `now`.
    /// Returns the instant the work completes.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn exec(&mut self, now: Nanos, core: CoreId, work: Nanos) -> Nanos {
        let c = &mut self.cores[core.0 as usize];
        let start = now.max(c.busy_until);
        c.busy_until = start + work;
        c.total_busy += work;
        c.busy_until
    }

    /// Reserves `work` on the least-busy core; returns `(core, completion)`.
    pub fn exec_least_busy(&mut self, now: Nanos, work: Nanos) -> (CoreId, Nanos) {
        let (idx, _) = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.busy_until)
            .expect("host has at least one core");
        let core = CoreId(idx as u16);
        let done = self.exec(now, core, work);
        (core, done)
    }

    /// Charges one user/kernel crossing (syscall entry+exit) to `core` and
    /// counts it. Returns the completion instant.
    pub fn charge_syscall(&mut self, now: Nanos, core: CoreId) -> Nanos {
        self.counters[HostCounter::Syscalls].incr();
        self.counters[HostCounter::KernelCrossings].incr();
        let cost = Nanos::from_nanos(self.cpu.syscall_ns);
        self.exec(now, core, cost)
    }

    /// Charges one interrupt (NIC RX, completion) to `core` and counts it as
    /// a kernel crossing. Returns the completion instant.
    pub fn charge_interrupt(&mut self, now: Nanos, core: CoreId) -> Nanos {
        self.counters[HostCounter::Interrupts].incr();
        self.counters[HostCounter::KernelCrossings].incr();
        let cost = Nanos::from_nanos(self.cpu.interrupt_ns);
        self.exec(now, core, cost)
    }

    /// Charges a copy of `bytes` across the user/kernel boundary (socket
    /// buffer staging) to `core` and counts it. Returns the completion
    /// instant.
    pub fn charge_kernel_copy(&mut self, now: Nanos, core: CoreId, bytes: usize) -> Nanos {
        self.counters[HostCounter::KernelCopies].incr();
        self.counters[HostCounter::KernelCopyBytes].add(bytes as u64);
        let cost = self.cpu.copy_cost(bytes);
        self.exec(now, core, cost)
    }

    /// Charges a userspace copy of `bytes` (framework or application
    /// buffer-to-buffer) to `core` and counts it. Returns the completion
    /// instant.
    pub fn charge_user_copy(&mut self, now: Nanos, core: CoreId, bytes: usize) -> Nanos {
        self.counters[HostCounter::UserCopies].incr();
        self.counters[HostCounter::UserCopyBytes].add(bytes as u64);
        let cost = self.cpu.copy_cost(bytes);
        self.exec(now, core, cost)
    }

    /// Counts one DMA transfer of `bytes` by the NIC. DMA costs no host CPU
    /// time — that asymmetry versus [`Host::charge_kernel_copy`] is the
    /// paper's core argument — so this only bumps counters.
    pub fn count_dma(&self, bytes: usize) {
        self.counters[HostCounter::DmaTransfers].incr();
        self.counters[HostCounter::DmaBytes].add(bytes as u64);
    }

    /// The instant `core` becomes free.
    pub fn core_free_at(&self, core: CoreId) -> Nanos {
        self.cores[core.0 as usize].busy_until
    }

    /// Total CPU time consumed on `core` so far (utilization accounting).
    pub fn core_busy_time(&self, core: CoreId) -> Nanos {
        self.cores[core.0 as usize].total_busy
    }

    /// Total CPU time across all cores.
    pub fn total_busy_time(&self) -> Nanos {
        self.cores.iter().map(|c| c.total_busy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cores: usize) -> Host {
        Host::new(
            HostId(0),
            "test",
            cores,
            CpuModel::xeon_v2(),
            Metrics::new(),
        )
    }

    #[test]
    fn exec_serializes_on_one_core() {
        let mut h = host(1);
        let now = Nanos::from_nanos(100);
        let a = h.exec(now, CoreId(0), Nanos::from_nanos(50));
        assert_eq!(a.as_nanos(), 150);
        // Second task at the same wall time queues behind the first.
        let b = h.exec(now, CoreId(0), Nanos::from_nanos(30));
        assert_eq!(b.as_nanos(), 180);
    }

    #[test]
    fn counters_follow_the_attached_registry() {
        let shared = Metrics::new();
        let mut h = Host::new(HostId(0), "test", 1, CpuModel::xeon_v2(), shared.clone());
        h.count_dma(128);
        h.charge_syscall(Nanos::ZERO, CoreId(0));
        assert_eq!(shared.counter("host.h0.dma_bytes"), 128);
        assert_eq!(shared.counter("host.h0.syscalls"), 1);
        assert_eq!(h.metrics().counter("host.h0.dma_bytes"), 128);
    }

    #[test]
    fn exec_overlaps_across_cores() {
        let mut h = host(2);
        let now = Nanos::from_nanos(0);
        let a = h.exec(now, CoreId(0), Nanos::from_nanos(100));
        let (core, b) = h.exec_least_busy(now, Nanos::from_nanos(100));
        assert_eq!(core, CoreId(1));
        assert_eq!(a.as_nanos(), 100);
        assert_eq!(b.as_nanos(), 100);
    }

    #[test]
    fn idle_gap_does_not_accumulate_busy_time() {
        let mut h = host(1);
        h.exec(Nanos::from_nanos(0), CoreId(0), Nanos::from_nanos(10));
        h.exec(Nanos::from_nanos(1_000), CoreId(0), Nanos::from_nanos(10));
        assert_eq!(h.core_busy_time(CoreId(0)).as_nanos(), 20);
        assert_eq!(h.core_free_at(CoreId(0)).as_nanos(), 1_010);
    }

    #[test]
    fn copy_cost_scales_with_bytes() {
        let cpu = CpuModel::xeon_v2();
        let one_kb = cpu.copy_cost(1024);
        let ten_kb = cpu.copy_cost(10 * 1024);
        assert!(ten_kb.as_nanos() >= 9 * one_kb.as_nanos());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_host_rejected() {
        let _ = host(0);
    }
}
