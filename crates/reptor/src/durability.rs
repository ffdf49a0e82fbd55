//! Durable checkpoint store: a CRC-framed write-ahead log plus a two-slot
//! generational snapshot, laid out on a [`SimDisk`].
//!
//! The volatile protocol state a replica loses on crash is rebuilt from
//! two on-disk structures:
//!
//! * **Snapshot slots.** Two fixed regions (A/B) each hold one encoded
//!   [`CheckpointPayload`](crate::state_transfer::CheckpointPayload)
//!   stamped with a monotonically increasing generation and a CRC.
//!   Writers alternate slots, so a crash mid-snapshot can at worst lose
//!   the *new* snapshot — the previous generation in the other slot stays
//!   intact. Recovery picks the highest-generation slot whose CRC checks.
//! * **Write-ahead log.** Every executed batch past the snapshot is
//!   appended as a length-prefixed, CRC-framed record. A torn tail (power
//!   loss mid-append) fails the length or CRC check of exactly the last
//!   frame, so a scan always yields a clean prefix of the appended
//!   sequence — never garbage frames, never a panic. Frames must also be
//!   seq-contiguous: a gap (e.g. a lost compaction write) ends the usable
//!   prefix the same way.
//!
//! Crash-consistency argument for compaction (snapshot at `s`, then WAL
//! rewritten keeping frames `> s`): the snapshot is written *first*. If
//! the snapshot write is lost but the WAL rewrite lands, recovery sees the
//! older snapshot plus a WAL starting past it — the contiguity check stops
//! replay at the gap and the missing middle is fetched from peers via the
//! ordinary state transfer. If the WAL rewrite tears instead, the CRC scan
//! truncates it and the fresh snapshot already covers everything dropped.
//! Either way the replica restarts from a consistent prefix, merely
//! fetching a larger delta; it never installs wrong state.

use std::borrow::Cow;

use bft_crypto::Digest;
use simnet::{Counters, Metrics, Nanos, SimDisk};

use crate::codec::{self, Codec, Reader};
use crate::messages::{Request, SeqNum};

/// Byte size of one snapshot slot. Payloads that don't fit are not
/// snapshotted (counted, and the WAL simply keeps growing until one fits
/// or peers resupply state).
pub const SLOT_BYTES: u64 = 256 * 1024;

/// Device offset where the WAL region starts (past both snapshot slots).
pub const WAL_BASE: u64 = 2 * SLOT_BYTES;

/// Upper bound on one WAL frame's payload, rejected during scans so a
/// corrupt length prefix can't allocate unbounded memory.
pub const MAX_FRAME: u32 = 1024 * 1024;

/// WAL frame header: payload length (u32) + payload CRC (u32).
const FRAME_HEADER: usize = 8;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

crate::wire_format! {
    /// One durable record: an executed batch with its agreement digest.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WalFrame {
        /// The batch's sequence number.
        pub seq: SeqNum,
        /// The batch digest the agreement layer committed (re-recorded into
        /// the executor's safety witness on replay).
        pub digest: Digest,
        /// The client requests of the batch, in execution order.
        pub requests: Vec<Request>,
    }
}

/// Encodes one frame as it is laid out on disk:
/// `len u32 | crc32(payload) u32 | payload`.
pub fn encode_frame(frame: &WalFrame) -> Vec<u8> {
    let payload = codec::encode(frame);
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    (payload.len() as u32, crc32(&payload)).write(&mut out);
    out.extend_from_slice(&payload);
    out
}

/// Result of scanning a WAL region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// The clean, seq-contiguous frame prefix.
    pub frames: Vec<WalFrame>,
    /// Byte length of that prefix on disk.
    pub valid_bytes: u64,
    /// Whether bytes past the prefix were discarded (torn or corrupt
    /// tail, or a seq gap).
    pub truncated: bool,
}

/// Scans raw WAL bytes into the longest decodable, seq-contiguous frame
/// prefix. Stops — without panicking — at the first frame whose length,
/// CRC, payload decode, or sequence contiguity check fails.
pub fn scan_frames(bytes: &[u8]) -> WalScan {
    let mut frames: Vec<WalFrame> = Vec::new();
    let mut pos = 0usize;
    loop {
        let mut r = Reader::new(&bytes[pos..]);
        let Ok((len, crc)) = <(u32, u32)>::read(&mut r) else {
            break;
        };
        if len == 0 || len > MAX_FRAME {
            break;
        }
        let Ok(payload) = r.take(len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Ok(frame) = codec::decode::<WalFrame>(payload) else {
            break;
        };
        if let Some(last) = frames.last() {
            if frame.seq != last.seq + 1 {
                break;
            }
        }
        pos += FRAME_HEADER + payload.len();
        frames.push(frame);
    }
    WalScan {
        frames,
        valid_bytes: pos as u64,
        truncated: pos < bytes.len(),
    }
}

/// The durable state found on disk at restart.
#[derive(Debug)]
pub struct Recovered {
    /// Highest-generation valid snapshot, as `(seq, payload bytes)`.
    pub snapshot: Option<(SeqNum, Vec<u8>)>,
    /// Clean WAL prefix (all frames, including any at or below the
    /// snapshot seq — the caller skips those during replay).
    pub frames: Vec<WalFrame>,
    /// True if snapshot slot bytes were present but no slot validated
    /// (media corruption — the caller should count a peer-fetch
    /// fallback).
    pub snapshot_corrupt: bool,
}

simnet::metric_names! {
    /// Counters of one durable store, under its owner's prefix
    /// (`reptor.r<id>.`).
    enum StoreCounter {
        WalFramesAppended => "wal_frames_appended",
        WalBytesAppended => "wal_bytes_appended",
        SnapshotSkippedOversize => "snapshot_skipped_oversize",
        SnapshotWrites => "snapshot_writes",
        SnapshotBytesWritten => "snapshot_bytes_written",
        WalCompactions => "wal_compactions",
        SnapshotCorruptFallback => "snapshot_corrupt_fallback",
        WalFramesTruncated => "wal_frames_truncated",
    }
}

/// A replica's persistence layer: two snapshot slots plus a WAL on one
/// [`SimDisk`], with a volatile index rebuilt by [`DurableStore::recover`]
/// after a crash.
#[derive(Debug)]
pub struct DurableStore {
    disk: SimDisk,
    wal_enabled: bool,
    snapshot_every: u64,
    /// Device offset of the next WAL append.
    wal_end: u64,
    /// Seq of the last appended frame (contiguity guard).
    wal_last_seq: Option<SeqNum>,
    /// Volatile copy of the live WAL frames (encoded), kept so compaction
    /// can rewrite the region without a read-modify-write of the device.
    wal_cache: Vec<(SeqNum, Vec<u8>)>,
    /// Generation of the last snapshot written or recovered.
    snap_gen: u64,
    /// Seq of the last snapshot written or recovered.
    snap_seq: Option<SeqNum>,
    /// Which slot holds `snap_gen` (the next write goes to the other).
    active_slot: u64,
    /// Stable checkpoints seen since the last snapshot.
    stable_since_snapshot: u64,
    counters: Counters<StoreCounter>,
}

impl DurableStore {
    /// Wraps `disk` with a fresh (empty) volatile index. `prefix` is the
    /// metrics namespace, normally the owning replica's `reptor.r{id}.`.
    pub fn new(
        disk: SimDisk,
        wal_enabled: bool,
        snapshot_every: u64,
        metrics: Metrics,
        prefix: String,
    ) -> DurableStore {
        DurableStore {
            disk,
            wal_enabled,
            snapshot_every: snapshot_every.max(1),
            wal_end: WAL_BASE,
            wal_last_seq: None,
            wal_cache: Vec::new(),
            snap_gen: 0,
            snap_seq: None,
            // The first snapshot goes to slot 0 (`1 - active_slot`).
            active_slot: 1,
            stable_since_snapshot: 0,
            counters: metrics.counters(&prefix),
        }
    }

    /// The underlying device (for fault arming in tests).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Seq covered by the current snapshot, if any.
    pub fn snapshot_seq(&self) -> Option<SeqNum> {
        self.snap_seq
    }

    /// Appends one executed batch to the WAL, returning the disk ack
    /// time. A non-contiguous seq resets the log to start at `frame.seq`
    /// (the dropped prefix is covered by a snapshot or by peer state).
    pub fn append_batch(&mut self, now: Nanos, frame: &WalFrame) -> Nanos {
        if !self.wal_enabled {
            return now;
        }
        if let Some(last) = self.wal_last_seq {
            if frame.seq != last + 1 {
                self.wal_cache.clear();
                self.wal_end = WAL_BASE;
                self.disk.truncate(now, WAL_BASE);
            }
        }
        let encoded = encode_frame(frame);
        let done = self.disk.write(now, self.wal_end, &encoded);
        self.wal_end += encoded.len() as u64;
        self.wal_last_seq = Some(frame.seq);
        self.counters[StoreCounter::WalFramesAppended].incr();
        self.counters[StoreCounter::WalBytesAppended].add(encoded.len() as u64);
        self.wal_cache.push((frame.seq, encoded));
        done
    }

    /// Records a stable checkpoint; returns true when a snapshot is due
    /// per `snapshot_every`.
    pub fn record_stable(&mut self) -> bool {
        self.stable_since_snapshot += 1;
        self.stable_since_snapshot >= self.snapshot_every
    }

    /// Writes `payload` (an encoded checkpoint at `seq`) into the
    /// inactive slot with the next generation, then compacts the WAL to
    /// frames past `seq`. Returns the disk ack time of the whole
    /// operation. Oversized payloads are skipped (counted).
    pub fn write_snapshot(&mut self, now: Nanos, seq: SeqNum, payload: &[u8]) -> Nanos {
        self.stable_since_snapshot = 0;
        let record = encode_slot(self.snap_gen + 1, seq, payload);
        if record.len() as u64 > SLOT_BYTES {
            self.counters[StoreCounter::SnapshotSkippedOversize].incr();
            return now;
        }
        let slot = 1 - self.active_slot;
        let mut done = self.disk.write(now, slot * SLOT_BYTES, &record);
        self.snap_gen += 1;
        self.snap_seq = Some(seq);
        self.active_slot = slot;
        self.counters[StoreCounter::SnapshotWrites].incr();
        self.counters[StoreCounter::SnapshotBytesWritten].add(record.len() as u64);

        // Compact: rewrite the WAL keeping only frames past the snapshot.
        if self.wal_enabled {
            self.wal_cache.retain(|(s, _)| *s > seq);
            let mut region = Vec::new();
            for (_, encoded) in &self.wal_cache {
                region.extend_from_slice(encoded);
            }
            self.wal_end = WAL_BASE + region.len() as u64;
            if !region.is_empty() {
                done = self.disk.write(done, WAL_BASE, &region);
            }
            self.disk.truncate(done, self.wal_end);
            self.wal_last_seq = self.wal_cache.last().map(|(s, _)| *s);
            if self.wal_last_seq.is_none() {
                self.wal_last_seq = Some(seq);
            }
            self.counters[StoreCounter::WalCompactions].incr();
        }
        done
    }

    /// Rebuilds the volatile index from disk after a crash: picks the
    /// best snapshot slot, scans the WAL to its clean prefix, and
    /// truncates the torn tail off the device so subsequent appends
    /// extend the valid prefix.
    pub fn recover(&mut self, now: Nanos) -> Recovered {
        let (slots, _) = self
            .disk
            .read(now, 0, (2 * SLOT_BYTES).min(self.disk.len()) as usize);
        let mut best: Option<(u64, SeqNum, Vec<u8>, u64)> = None;
        let mut saw_slot_bytes = false;
        for slot in 0..2u64 {
            let lo = (slot * SLOT_BYTES) as usize;
            if slots.len() <= lo {
                continue;
            }
            let hi = slots.len().min(lo + SLOT_BYTES as usize);
            let region = &slots[lo..hi];
            if region.iter().any(|&b| b != 0) {
                saw_slot_bytes = true;
            }
            if let Some((gen, seq, payload)) = decode_slot(region) {
                if best.as_ref().is_none_or(|(g, ..)| gen > *g) {
                    best = Some((gen, seq, payload, slot));
                }
            }
        }
        let snapshot_corrupt = saw_slot_bytes && best.is_none();
        if snapshot_corrupt {
            self.counters[StoreCounter::SnapshotCorruptFallback].incr();
        }
        match &best {
            Some((gen, seq, _, slot)) => {
                self.snap_gen = *gen;
                self.snap_seq = Some(*seq);
                self.active_slot = *slot;
            }
            None => {
                self.snap_gen = 0;
                self.snap_seq = None;
                self.active_slot = 1;
            }
        }

        let wal_len = self.disk.len().saturating_sub(WAL_BASE) as usize;
        let (wal_bytes, _) = self.disk.read(now, WAL_BASE, wal_len);
        let scan = scan_frames(&wal_bytes);
        if scan.truncated {
            self.counters[StoreCounter::WalFramesTruncated].incr();
            self.disk.truncate(now, WAL_BASE + scan.valid_bytes);
        }
        self.wal_end = WAL_BASE + scan.valid_bytes;
        self.wal_last_seq = scan.frames.last().map(|f| f.seq);
        self.wal_cache = scan
            .frames
            .iter()
            .map(|f| (f.seq, encode_frame(f)))
            .collect();
        self.stable_since_snapshot = 0;

        Recovered {
            snapshot: best.map(|(_, seq, payload, _)| (seq, payload)),
            frames: scan.frames,
            snapshot_corrupt,
        }
    }
}

/// Slot record: `gen u64 | seq u64 | payload bytes`, then a `crc u32` over
/// those bytes. A generation of zero never validates, so an unwritten
/// (all-zero) slot is simply invalid.
type SlotRecord<'a> = (u64, SeqNum, Cow<'a, [u8]>);

fn encode_slot(gen: u64, seq: SeqNum, payload: &[u8]) -> Vec<u8> {
    let record: SlotRecord = (gen, seq, Cow::Borrowed(payload));
    let mut out = Vec::with_capacity(record.encoded_len() + 4);
    record.write(&mut out);
    crc32(&out).write(&mut out);
    out
}

fn decode_slot(region: &[u8]) -> Option<(u64, SeqNum, Vec<u8>)> {
    let mut r = Reader::new(region);
    let (gen, seq, payload) = SlotRecord::read(&mut r).ok()?;
    let body = &region[..region.len() - r.remaining()];
    let crc = u32::read(&mut r).ok()?;
    (gen != 0 && crc32(body) == crc).then(|| (gen, seq, payload.into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{DiskFault, DiskSpec};

    fn frame(seq: SeqNum) -> WalFrame {
        WalFrame {
            seq,
            digest: Digest::of(&seq.to_le_bytes()),
            requests: vec![Request {
                client: 9,
                timestamp: seq,
                payload: vec![seq as u8; 5],
            }],
        }
    }

    fn store() -> (DurableStore, Metrics) {
        let m = Metrics::new();
        let disk = SimDisk::new("t", DiskSpec::nvme(), m.clone());
        (
            DurableStore::new(disk, true, 2, m.clone(), "reptor.r0.".into()),
            m,
        )
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_roundtrip_and_clean_scan() {
        let (mut s, _) = store();
        for seq in 1..=5 {
            s.append_batch(Nanos::ZERO, &frame(seq));
        }
        let rec = s.recover(Nanos::ZERO);
        assert_eq!(rec.frames.len(), 5);
        assert_eq!(rec.frames[0], frame(1));
        assert!(rec.snapshot.is_none());
        assert!(!rec.snapshot_corrupt);
    }

    #[test]
    fn torn_tail_truncates_to_clean_prefix() {
        let (mut s, m) = store();
        s.append_batch(Nanos::ZERO, &frame(1));
        s.append_batch(Nanos::ZERO, &frame(2));
        // Tear the third append mid-frame.
        let tear_at = s.wal_end + 6;
        s.disk()
            .arm_fault(DiskFault::TornWrite { at_byte: tear_at });
        s.append_batch(Nanos::ZERO, &frame(3));
        let rec = s.recover(Nanos::ZERO);
        assert_eq!(
            rec.frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(m.counter("reptor.r0.wal_frames_truncated"), 1);
        // The torn tail is gone from the device: appending seq 3 again
        // extends the clean prefix.
        s.append_batch(Nanos::ZERO, &frame(3));
        let rec = s.recover(Nanos::ZERO);
        assert_eq!(rec.frames.len(), 3);
    }

    #[test]
    fn snapshot_compacts_wal_and_survives_restart() {
        let (mut s, _) = store();
        for seq in 1..=6 {
            s.append_batch(Nanos::ZERO, &frame(seq));
        }
        s.write_snapshot(Nanos::ZERO, 4, b"state-at-4");
        let rec = s.recover(Nanos::ZERO);
        assert_eq!(rec.snapshot, Some((4, b"state-at-4".to_vec())));
        assert_eq!(
            rec.frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![5, 6]
        );
    }

    #[test]
    fn newer_generation_wins_and_survives_one_corrupt_slot() {
        let (mut s, m) = store();
        s.write_snapshot(Nanos::ZERO, 4, b"old");
        s.write_snapshot(Nanos::ZERO, 8, b"new");
        let rec = s.recover(Nanos::ZERO);
        assert_eq!(rec.snapshot, Some((8, b"new".to_vec())));
        // Gen 3 lands back in slot 0, corrupted in flight: recovery falls
        // back to the intact gen-2 slot.
        s.disk().arm_fault(DiskFault::BitFlip { at_byte: 20 });
        s.write_snapshot(Nanos::ZERO, 12, b"doomed");
        let rec = s.recover(Nanos::ZERO);
        assert_eq!(rec.snapshot, Some((8, b"new".to_vec())));
        assert!(!rec.snapshot_corrupt, "one valid slot remains");
        assert_eq!(m.counter("reptor.r0.snapshot_corrupt_fallback"), 0);
    }

    #[test]
    fn both_slots_corrupt_counts_fallback() {
        let (mut s, m) = store();
        s.disk().arm_fault(DiskFault::BitFlip { at_byte: 20 });
        s.write_snapshot(Nanos::ZERO, 4, b"only");
        let rec = s.recover(Nanos::ZERO);
        assert!(rec.snapshot.is_none());
        assert!(rec.snapshot_corrupt);
        assert_eq!(m.counter("reptor.r0.snapshot_corrupt_fallback"), 1);
    }

    #[test]
    fn lost_compaction_write_leaves_replayable_gap() {
        let (mut s, _) = store();
        for seq in 1..=6 {
            s.append_batch(Nanos::ZERO, &frame(seq));
        }
        // The snapshot write is lost after ack; the WAL compaction that
        // follows still lands. Recovery then sees no snapshot and a WAL
        // starting at seq 5 — which cannot replay from zero, so the
        // usable prefix is empty state + peer fetch. Crucially: no panic,
        // no wrong state.
        s.disk().arm_fault(DiskFault::LostAfterAck);
        s.write_snapshot(Nanos::ZERO, 4, b"state-at-4");
        let rec = s.recover(Nanos::ZERO);
        assert!(rec.snapshot.is_none());
        assert_eq!(
            rec.frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![5, 6],
            "frames are intact; the caller's replay-from check skips them"
        );
    }

    #[test]
    fn record_stable_fires_every_n() {
        let (mut s, _) = store();
        assert!(!s.record_stable());
        assert!(s.record_stable());
        s.write_snapshot(Nanos::ZERO, 4, b"x");
        assert!(!s.record_stable(), "counter reset by the snapshot");
    }

    /// The slot record, byte for byte (the public formats are pinned in
    /// `tests/wire_format.rs`). A slot is read back with the rest of its
    /// region, so zeros past the CRC are ignored.
    #[test]
    fn slot_record_is_pinned() {
        const SLOT: &str = "03000000000000004000000000000000070000007061796c6f6164b0339d12";
        let record = encode_slot(3, 64, b"payload");
        let hex: String = record.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SLOT);
        let mut region: Vec<u8> = (0..SLOT.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&SLOT[i..i + 2], 16).expect("hex"))
            .collect();
        region.resize(64, 0);
        assert_eq!(decode_slot(&region), Some((3, 64, b"payload".to_vec())));
    }

    #[test]
    fn scan_never_panics_on_arbitrary_corruption() {
        let mut bytes = Vec::new();
        for seq in 1..=4 {
            bytes.extend_from_slice(&encode_frame(&frame(seq)));
        }
        for cut in 0..bytes.len() {
            let scan = scan_frames(&bytes[..cut]);
            assert!(scan.frames.len() <= 4);
            for (i, f) in scan.frames.iter().enumerate() {
                assert_eq!(f.seq, i as u64 + 1, "prefix of the original");
            }
        }
        for flip in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[flip] ^= 0x01;
            let scan = scan_frames(&corrupt);
            for (i, f) in scan.frames.iter().enumerate() {
                assert_eq!(f.seq, i as u64 + 1);
            }
        }
    }
}
