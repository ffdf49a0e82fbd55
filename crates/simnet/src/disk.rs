//! Simulated block storage: a flat byte device with an NVMe-style cost
//! model and injectable write faults.
//!
//! A [`SimDisk`] models one replica-local drive as a growable byte array
//! plus a serial command queue: every read or write starts no earlier
//! than the previous operation finished (the device horizon, mirroring
//! [`Host::exec`](crate::Host::exec)) and costs a fixed submission
//! latency plus a bandwidth term — so a burst of log appends genuinely
//! queues in simulated time.
//!
//! Storage is *not* fail-stop here. Following the torn-write/corruption
//! fault model of crash-consistency work, the device supports armed
//! one-shot write faults:
//!
//! * [`DiskFault::TornWrite`] — a write spanning the given absolute byte
//!   offset persists only its prefix below that offset (power loss mid
//!   sector train);
//! * [`DiskFault::BitFlip`] — the write lands whole but one bit of the
//!   given byte is flipped (firmware/media corruption);
//! * [`DiskFault::LostAfterAck`] — the write is acknowledged and charged
//!   but nothing persists (volatile write cache lost at power-off).
//!
//! Every fault is applied deterministically (no randomness) and counted
//! in the shared metrics registry, so chaos scenarios can assert exactly
//! how the persistence layer above reacted.

use std::cell::RefCell;
use std::rc::Rc;

use crate::metrics::{Counters, Metrics};
use crate::time::{Bandwidth, Nanos};

/// Cost model of a simulated drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskSpec {
    /// Fixed per-write submission + program latency.
    pub write_latency: Nanos,
    /// Fixed per-read submission + sense latency.
    pub read_latency: Nanos,
    /// Sequential write bandwidth.
    pub write_bw: Bandwidth,
    /// Sequential read bandwidth.
    pub read_bw: Bandwidth,
}

impl DiskSpec {
    /// A datacenter NVMe flash drive: ~20 µs writes into the SLC buffer,
    /// ~80 µs reads, 2 GB/s sequential writes, 3.2 GB/s reads.
    pub fn nvme() -> DiskSpec {
        DiskSpec {
            write_latency: Nanos::from_micros(20),
            read_latency: Nanos::from_micros(80),
            write_bw: Bandwidth::gbps(16),
            read_bw: Bandwidth::gbps(25),
        }
    }
}

impl Default for DiskSpec {
    fn default() -> DiskSpec {
        DiskSpec::nvme()
    }
}

/// An armed one-shot write fault. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The next write spanning `at_byte` (absolute device offset)
    /// persists only the bytes strictly below it.
    TornWrite {
        /// Absolute device offset where persistence stops.
        at_byte: u64,
    },
    /// The next write covering `at_byte` lands with bit 6 of that byte
    /// flipped.
    BitFlip {
        /// Absolute device offset of the corrupted byte.
        at_byte: u64,
    },
    /// The next write (any range) is acknowledged but never persisted.
    LostAfterAck,
}

impl DiskFault {
    /// Whether this armed fault fires for a write of `len` bytes at
    /// `offset`.
    fn applies(&self, offset: u64, len: u64) -> bool {
        match *self {
            DiskFault::TornWrite { at_byte } | DiskFault::BitFlip { at_byte } => {
                at_byte >= offset && at_byte < offset + len
            }
            DiskFault::LostAfterAck => true,
        }
    }
}

crate::metric_names! {
    /// Counters of one drive, under `disk.<name>.`.
    enum DiskCounter {
        Writes => "writes",
        BytesWritten => "bytes_written",
        TornWrites => "torn_writes",
        BitFlips => "bit_flips",
        LostWrites => "lost_writes",
        Reads => "reads",
        BytesRead => "bytes_read",
    }
}

#[derive(Debug)]
struct DiskInner {
    spec: DiskSpec,
    data: Vec<u8>,
    /// Serial command-queue horizon: the instant the device is next free.
    busy_until: Nanos,
    /// Armed one-shot faults, consumed front-first by the first write
    /// they apply to.
    faults: Vec<DiskFault>,
    counters: Counters<DiskCounter>,
}

impl DiskInner {
    /// Reserves device time starting at or after `now`, returning the
    /// completion instant (the [`Host::exec`](crate::Host::exec) idiom).
    fn charge(&mut self, now: Nanos, cost: Nanos) -> Nanos {
        let start = now.max(self.busy_until);
        self.busy_until = start + cost;
        self.busy_until
    }
}

/// A simulated drive. Cloning shares the device (the durable medium
/// outlives any volatile protocol state holding a handle to it).
#[derive(Debug, Clone)]
pub struct SimDisk {
    inner: Rc<RefCell<DiskInner>>,
}

impl SimDisk {
    /// Creates an empty device reporting `disk.{name}.*` counters into
    /// `metrics`.
    pub fn new(name: impl Into<String>, spec: DiskSpec, metrics: Metrics) -> SimDisk {
        SimDisk {
            inner: Rc::new(RefCell::new(DiskInner {
                spec,
                data: Vec::new(),
                busy_until: Nanos::ZERO,
                faults: Vec::new(),
                counters: metrics.counters(&format!("disk.{}.", name.into())),
            })),
        }
    }

    /// Arms a one-shot write fault; the first applicable write consumes
    /// it. Multiple armed faults are consumed front-first.
    pub fn arm_fault(&self, fault: DiskFault) {
        self.inner.borrow_mut().faults.push(fault);
    }

    /// Number of faults armed but not yet consumed.
    pub fn armed_faults(&self) -> usize {
        self.inner.borrow().faults.len()
    }

    /// Current device length in bytes (highest byte ever written + 1).
    pub fn len(&self) -> u64 {
        self.inner.borrow().data.len() as u64
    }

    /// True if nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().data.is_empty()
    }

    /// The instant the device's serial command queue is next free.
    pub fn busy_until(&self) -> Nanos {
        self.inner.borrow().busy_until
    }

    /// Writes `bytes` at `offset`, growing the device as needed, and
    /// returns the acknowledged completion instant. An armed fault may
    /// tear, corrupt, or drop the persisted bytes — the returned ack time
    /// is the same either way (the writer cannot tell).
    pub fn write(&self, now: Nanos, offset: u64, bytes: &[u8]) -> Nanos {
        let mut inner = self.inner.borrow_mut();
        let cost = inner.spec.write_latency + inner.spec.write_bw.transmit_time(bytes.len());
        let done = inner.charge(now, cost);
        inner.counters[DiskCounter::Writes].incr();
        inner.counters[DiskCounter::BytesWritten].add(bytes.len() as u64);

        let fault = inner
            .faults
            .iter()
            .position(|f| f.applies(offset, bytes.len() as u64))
            .map(|i| inner.faults.remove(i));
        let (persist_len, flip_at) = match fault {
            Some(DiskFault::TornWrite { at_byte }) => {
                inner.counters[DiskCounter::TornWrites].incr();
                ((at_byte - offset) as usize, None)
            }
            Some(DiskFault::BitFlip { at_byte }) => {
                inner.counters[DiskCounter::BitFlips].incr();
                (bytes.len(), Some((at_byte - offset) as usize))
            }
            Some(DiskFault::LostAfterAck) => {
                inner.counters[DiskCounter::LostWrites].incr();
                (0, None)
            }
            None => (bytes.len(), None),
        };
        if persist_len > 0 {
            let end = offset as usize + persist_len;
            if inner.data.len() < end {
                inner.data.resize(end, 0);
            }
            inner.data[offset as usize..end].copy_from_slice(&bytes[..persist_len]);
        }
        if let Some(at) = flip_at {
            inner.data[offset as usize + at] ^= 0x40;
        }
        done
    }

    /// Reads `len` bytes at `offset` (zero-filled past the device end)
    /// and returns them with the completion instant.
    pub fn read(&self, now: Nanos, offset: u64, len: usize) -> (Vec<u8>, Nanos) {
        let mut inner = self.inner.borrow_mut();
        let cost = inner.spec.read_latency + inner.spec.read_bw.transmit_time(len);
        let done = inner.charge(now, cost);
        inner.counters[DiskCounter::Reads].incr();
        inner.counters[DiskCounter::BytesRead].add(len as u64);
        let mut out = vec![0u8; len];
        let dev_len = inner.data.len();
        let start = (offset as usize).min(dev_len);
        let end = (offset as usize + len).min(dev_len);
        out[..end - start].copy_from_slice(&inner.data[start..end]);
        (out, done)
    }

    /// Truncates the device to `len` bytes (a metadata-only operation,
    /// charged one write latency). A shorter device stays shorter; a
    /// longer `len` is a no-op.
    pub fn truncate(&self, now: Nanos, len: u64) -> Nanos {
        let mut inner = self.inner.borrow_mut();
        let cost = inner.spec.write_latency;
        let done = inner.charge(now, cost);
        inner.data.truncate(len as usize);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new("t", DiskSpec::nvme(), Metrics::new())
    }

    #[test]
    fn write_read_roundtrip_and_growth() {
        let d = disk();
        d.write(Nanos::ZERO, 4, b"hello");
        assert_eq!(d.len(), 9);
        let (got, _) = d.read(Nanos::ZERO, 4, 5);
        assert_eq!(got, b"hello");
        // The gap below the write reads as zeros, and reads past the end
        // zero-fill.
        let (head, _) = d.read(Nanos::ZERO, 0, 4);
        assert_eq!(head, [0, 0, 0, 0]);
        let (past, _) = d.read(Nanos::ZERO, 7, 4);
        assert_eq!(past, [b'l', b'o', 0, 0]);
    }

    #[test]
    fn operations_serialize_on_the_device_horizon() {
        let d = disk();
        let spec = DiskSpec::nvme();
        let a = d.write(Nanos::ZERO, 0, &[0u8; 1000]);
        assert_eq!(
            a,
            spec.write_latency + spec.write_bw.transmit_time(1000),
            "latency plus bandwidth term"
        );
        // Issued at the same instant, the second op queues behind.
        let (_, b) = d.read(Nanos::ZERO, 0, 8);
        assert!(b > a + spec.read_latency - Nanos::from_nanos(1));
        assert_eq!(d.busy_until(), b);
        // After an idle gap the horizon restarts from `now`.
        let far = b + Nanos::from_millis(1);
        let c = d.write(far, 0, &[1]);
        assert!(c >= far + spec.write_latency);
    }

    #[test]
    fn torn_write_persists_only_the_prefix() {
        let d = disk();
        d.write(Nanos::ZERO, 0, &[0xFFu8; 16]);
        d.arm_fault(DiskFault::TornWrite { at_byte: 10 });
        d.write(Nanos::ZERO, 4, &[0x11u8; 12]);
        assert_eq!(d.armed_faults(), 0);
        let (got, _) = d.read(Nanos::ZERO, 0, 16);
        // Bytes 4..10 took the new value, 10..16 kept the old one.
        assert_eq!(&got[..4], &[0xFF; 4]);
        assert_eq!(&got[4..10], &[0x11; 6]);
        assert_eq!(&got[10..], &[0xFF; 6]);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_byte() {
        let d = disk();
        d.arm_fault(DiskFault::BitFlip { at_byte: 3 });
        d.write(Nanos::ZERO, 0, &[0u8; 8]);
        let (got, _) = d.read(Nanos::ZERO, 0, 8);
        assert_eq!(got, [0, 0, 0, 0x40, 0, 0, 0, 0]);
    }

    #[test]
    fn lost_after_ack_persists_nothing_but_charges_time() {
        let d = disk();
        d.arm_fault(DiskFault::LostAfterAck);
        let done = d.write(Nanos::ZERO, 0, b"gone");
        assert!(done > Nanos::ZERO, "the write is acked as if it landed");
        assert_eq!(d.len(), 0, "nothing persisted");
    }

    #[test]
    fn faults_wait_for_an_applicable_write() {
        let d = disk();
        d.arm_fault(DiskFault::TornWrite { at_byte: 100 });
        d.write(Nanos::ZERO, 0, &[1u8; 8]); // does not span byte 100
        assert_eq!(d.armed_faults(), 1, "fault stays armed");
        d.write(Nanos::ZERO, 96, &[2u8; 8]);
        assert_eq!(d.armed_faults(), 0);
        let (got, _) = d.read(Nanos::ZERO, 96, 8);
        assert_eq!(&got[..4], &[2u8; 4]);
        assert_eq!(&got[4..], &[0u8; 4], "torn past byte 100");
    }

    #[test]
    fn truncate_shrinks_the_device() {
        let d = disk();
        d.write(Nanos::ZERO, 0, &[7u8; 32]);
        d.truncate(Nanos::ZERO, 8);
        assert_eq!(d.len(), 8);
        d.truncate(Nanos::ZERO, 64);
        assert_eq!(d.len(), 8, "growing truncate is a no-op");
    }

    #[test]
    fn counters_track_operations_and_faults() {
        let m = Metrics::new();
        let d = SimDisk::new("r0", DiskSpec::nvme(), m.clone());
        d.write(Nanos::ZERO, 0, &[0u8; 100]);
        d.arm_fault(DiskFault::LostAfterAck);
        d.write(Nanos::ZERO, 0, &[0u8; 50]);
        d.read(Nanos::ZERO, 0, 10);
        let snap = m.snapshot();
        assert_eq!(snap.counter("disk.r0.writes"), 2);
        assert_eq!(snap.counter("disk.r0.bytes_written"), 150);
        assert_eq!(snap.counter("disk.r0.reads"), 1);
        assert_eq!(snap.counter("disk.r0.bytes_read"), 10);
        assert_eq!(snap.counter("disk.r0.lost_writes"), 1);
    }
}
