//! Simulated block storage: a flat byte device with an NVMe-style cost
//! model and injectable write faults.
//!
//! A [`SimDisk`] models one replica-local drive as a byte device of some
//! length, stored as fixed 4 KiB pages of which only those a write touched
//! exist (a hole and everything past the end read as zeros), plus a serial
//! command queue: every read or write starts no earlier
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

/// Bytes per stored page: a write allocates only the pages it touches.
const PAGE_BYTES: usize = 4096;

/// The device's bytes: `len` and the pages holding what was written below
/// it. Every stored byte at or past `len` is zero, so a device that grows
/// again reads zeros there, as a resized `Vec<u8>` would.
#[derive(Debug, Default)]
struct Pages {
    len: u64,
    /// Page `i` holds bytes `[i * PAGE_BYTES, (i + 1) * PAGE_BYTES)`;
    /// `None` is a hole that reads as zeros.
    pages: Vec<Option<Box<[u8]>>>,
    /// Pages a truncate freed, reused before any new allocation (WAL
    /// compaction truncates and refills the same range every few
    /// checkpoints).
    spare: Vec<Box<[u8]>>,
}

impl Pages {
    /// Page `index`, created zeroed if it is a hole.
    fn page_mut(&mut self, index: usize) -> &mut [u8] {
        if self.pages.len() <= index {
            self.pages.resize_with(index + 1, || None);
        }
        let spare = &mut self.spare;
        self.pages[index].get_or_insert_with(|| match spare.pop() {
            Some(mut page) => {
                page.fill(0);
                page
            }
            None => vec![0; PAGE_BYTES].into_boxed_slice(),
        })
    }

    /// Stores `bytes` at `offset`, growing `len` to cover them.
    fn write(&mut self, offset: u64, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let mut from = 0;
        for (index, within, n) in split_at_pages(offset, bytes.len()) {
            self.page_mut(index)[within..within + n].copy_from_slice(&bytes[from..from + n]);
            from += n;
        }
        self.len = self.len.max(offset + bytes.len() as u64);
    }

    /// Flips bit 6 of the stored byte at `at` (which a write just stored).
    fn flip(&mut self, at: u64) {
        let (index, within) = locate(at);
        self.page_mut(index)[within] ^= 0x40;
    }

    /// Copies the bytes at `offset` into `out`, which the caller zeroed;
    /// holes and everything past `len` stay zero.
    fn read(&self, offset: u64, out: &mut [u8]) {
        let stored = self.len.saturating_sub(offset).min(out.len() as u64) as usize;
        let mut from = 0;
        for (index, within, n) in split_at_pages(offset, stored) {
            if let Some(Some(page)) = self.pages.get(index) {
                out[from..from + n].copy_from_slice(&page[within..within + n]);
            }
            from += n;
        }
    }

    /// Shortens the device to `len` bytes (a longer `len` is a no-op):
    /// whole pages past the end go to the spare list, and the tail of the
    /// last partial page is zeroed.
    fn truncate(&mut self, len: u64) {
        if len >= self.len {
            return;
        }
        self.len = len;
        let (last, within) = locate(len);
        let keep = last + usize::from(within != 0);
        if self.pages.len() > keep {
            self.spare.extend(self.pages.drain(keep..).flatten());
        }
        if within != 0 {
            if let Some(Some(page)) = self.pages.get_mut(last) {
                page[within..].fill(0);
            }
        }
    }
}

/// The page holding device byte `at`, and `at`'s offset within it.
fn locate(at: u64) -> (usize, usize) {
    let page = PAGE_BYTES as u64;
    ((at / page) as usize, (at % page) as usize)
}

/// Splits `len` bytes at `offset` into `(page index, offset within the
/// page, bytes)` pieces, one per page they cross.
fn split_at_pages(offset: u64, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let end = offset + len as u64;
    let mut at = offset;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let (index, within) = locate(at);
            let n = ((end - at) as usize).min(PAGE_BYTES - within);
            at += n as u64;
            (index, within, n)
        })
    })
}

#[derive(Debug)]
struct DiskInner {
    spec: DiskSpec,
    data: Pages,
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
                data: Pages::default(),
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
        self.inner.borrow().data.len
    }

    /// True if nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages holding written bytes (holes and spares excluded).
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> usize {
        self.inner.borrow().data.pages.iter().flatten().count()
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
        inner.data.write(offset, &bytes[..persist_len]);
        if let Some(at) = flip_at {
            inner.data.flip(offset + at as u64);
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
        inner.data.read(offset, &mut out);
        (out, done)
    }

    /// Truncates the device to `len` bytes (a metadata-only operation,
    /// charged one write latency). A shorter device stays shorter; a
    /// longer `len` is a no-op.
    pub fn truncate(&self, now: Nanos, len: u64) -> Nanos {
        let mut inner = self.inner.borrow_mut();
        let cost = inner.spec.write_latency;
        let done = inner.charge(now, cost);
        inner.data.truncate(len);
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
    fn a_write_far_past_the_end_holds_one_page() {
        let d = disk();
        d.write(Nanos::ZERO, 512 << 10, &[9u8; 100]);
        assert_eq!(d.len(), (512 << 10) + 100);
        assert_eq!(d.resident_pages(), 1, "the gap below it is a hole");
        let (gap, _) = d.read(Nanos::ZERO, 0, 512 << 10);
        assert!(gap.iter().all(|&b| b == 0));
        d.truncate(Nanos::ZERO, 0);
        assert_eq!(d.resident_pages(), 0);
    }

    /// The flat byte array the paged store replaced: the reference whose
    /// length and contents the device must match after every operation.
    #[derive(Default)]
    struct FlatDisk {
        data: Vec<u8>,
        faults: Vec<DiskFault>,
    }

    impl FlatDisk {
        fn write(&mut self, offset: u64, bytes: &[u8]) {
            let fault = self
                .faults
                .iter()
                .position(|f| f.applies(offset, bytes.len() as u64))
                .map(|i| self.faults.remove(i));
            let (persist_len, flip_at) = match fault {
                Some(DiskFault::TornWrite { at_byte }) => ((at_byte - offset) as usize, None),
                Some(DiskFault::BitFlip { at_byte }) => {
                    (bytes.len(), Some((at_byte - offset) as usize))
                }
                Some(DiskFault::LostAfterAck) => (0, None),
                None => (bytes.len(), None),
            };
            if persist_len > 0 {
                let end = offset as usize + persist_len;
                if self.data.len() < end {
                    self.data.resize(end, 0);
                }
                self.data[offset as usize..end].copy_from_slice(&bytes[..persist_len]);
            }
            if let Some(at) = flip_at {
                self.data[offset as usize + at] ^= 0x40;
            }
        }

        fn read(&self, offset: u64, len: usize) -> Vec<u8> {
            let mut out = vec![0u8; len];
            let start = (offset as usize).min(self.data.len());
            let end = (offset as usize + len).min(self.data.len());
            out[..end - start].copy_from_slice(&self.data[start..end]);
            out
        }
    }

    enum Step {
        Write(u64, Vec<u8>),
        Truncate(u64),
        Arm(DiskFault),
    }

    fn apply(step: &Step, d: &SimDisk, flat: &mut FlatDisk) {
        match step {
            Step::Write(offset, bytes) => {
                d.write(Nanos::ZERO, *offset, bytes);
                flat.write(*offset, bytes);
            }
            Step::Truncate(len) => {
                d.truncate(Nanos::ZERO, *len);
                flat.data.truncate(*len as usize);
            }
            Step::Arm(fault) => {
                d.arm_fault(*fault);
                flat.faults.push(*fault);
            }
        }
        let len = flat.data.len() as u64;
        assert_eq!(d.len(), len);
        assert_eq!(d.armed_faults(), flat.faults.len());
        // The whole device and a page past its end.
        let span = len as usize + PAGE_BYTES;
        let (got, _) = d.read(Nanos::ZERO, 0, span);
        assert!(
            got == flat.read(0, span),
            "contents diverge from the flat array"
        );
    }

    /// A random operation on a device of `len` bytes: writes straddling
    /// page boundaries, far past the end or over what is there; truncates
    /// to anywhere below the end (and no-op ones above it); and every
    /// fault, armed where a write may reach it.
    fn random_step(rng: &mut rand::rngs::StdRng, len: u64) -> Step {
        use rand::Rng;
        let page = PAGE_BYTES as u64;
        let near_end = |rng: &mut rand::rngs::StdRng| rng.gen_range(0..=len + 2 * page);
        match rng.gen_range(0..10u32) {
            0..=4 => {
                let offset = match rng.gen_range(0..4u32) {
                    0 => (rng.gen_range(0..160u64) * page).saturating_sub(rng.gen_range(0..64u64)),
                    1 => 512 << 10,
                    2 => near_end(rng),
                    _ => rng.gen_range(0..640u64 << 10),
                };
                let n = rng.gen_range(0..3 * PAGE_BYTES);
                Step::Write(offset, (0..n).map(|_| rng.gen_range(1..=255u8)).collect())
            }
            5..=6 => Step::Truncate(near_end(rng)),
            7 => Step::Arm(DiskFault::TornWrite {
                at_byte: near_end(rng),
            }),
            8 => Step::Arm(DiskFault::BitFlip {
                at_byte: near_end(rng),
            }),
            _ => Step::Arm(DiskFault::LostAfterAck),
        }
    }

    #[test]
    fn paged_storage_matches_a_flat_byte_array() {
        use rand::SeedableRng;
        let page = PAGE_BYTES as u64;
        for seed in 1..=4 {
            let d = disk();
            let mut flat = FlatDisk::default();
            let scripted = [
                Step::Write(512 << 10, vec![1; 100]),
                Step::Write(page - 10, vec![2; 20]),
                Step::Truncate(page + 5),
                Step::Write(3 * page, vec![3; 10]),
                Step::Arm(DiskFault::TornWrite { at_byte: 2 * page }),
                Step::Write(2 * page - 8, vec![4; 16]),
                Step::Arm(DiskFault::BitFlip { at_byte: page + 1 }),
                Step::Write(page - 2, vec![5; 8]),
                Step::Arm(DiskFault::LostAfterAck),
                Step::Write(0, vec![6; 4]),
                Step::Truncate(10),
                Step::Write(2 * page, vec![7; 1]),
                Step::Write(0, vec![8; 3 * PAGE_BYTES]),
                Step::Truncate(2 * page),
                Step::Write(3 * page - 1, vec![9; 1]),
            ];
            for step in &scripted {
                apply(step, &d, &mut flat);
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for _ in 0..400 {
                let step = random_step(&mut rng, d.len());
                apply(&step, &d, &mut flat);
            }
        }
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
