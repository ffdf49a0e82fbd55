//! The replicated KV state machine with a leased read-region image.
//!
//! [`KvStoreService`] is wire-compatible with `reptor::KvService` — same
//! [`KvOp`] payloads, same reply bytes — but additionally maintains the
//! [`crate::region`] image of its applied state and stages the two-phase
//! cell writes the replica publishes into the leased MR after each batch.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

use bft_crypto::Digest;
use reptor::{codec, KvOp, RegionWrite, Request, StateMachine};

use crate::region::{
    bucket_of, cell_offset, encode_cell, encode_header, encode_poisoned, fits, CELL_SIZE,
    DEFAULT_CAPACITY, HEADER_SIZE, MAX_CAPACITY,
};

/// Snapshot record: apply version, region capacity, then the map.
type Snapshot<'a> = (u64, u64, Cow<'a, BTreeMap<Vec<u8>, Vec<u8>>>);

/// A replicated key/value store exposing its applied state as a leased
/// read region.
#[derive(Debug, Clone)]
pub struct KvStoreService {
    capacity: usize,
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    version: u64,
    /// Live keys per bucket (key sets, so collisions are detectable and
    /// reversible on delete).
    buckets: Vec<BTreeSet<Vec<u8>>>,
    /// Materialized region image: what a fresh lease registration exposes.
    image: Vec<u8>,
    /// Two-phase cell writes staged since the last drain.
    pending: Vec<RegionWrite>,
}

impl Default for KvStoreService {
    fn default() -> KvStoreService {
        KvStoreService::new(DEFAULT_CAPACITY)
    }
}

impl KvStoreService {
    /// Creates a store whose read region has `capacity` cells.
    pub fn new(capacity: usize) -> KvStoreService {
        assert!(
            (1..=MAX_CAPACITY).contains(&capacity),
            "region needs 1..={MAX_CAPACITY} cells"
        );
        let mut image = vec![0u8; HEADER_SIZE + capacity * CELL_SIZE];
        image[..HEADER_SIZE].copy_from_slice(&encode_header(capacity));
        KvStoreService {
            capacity,
            map: BTreeMap::new(),
            version: 0,
            buckets: vec![BTreeSet::new(); capacity],
            image,
            pending: Vec::new(),
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no keys are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct read (tests compare replica states).
    pub fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.map.get(key)
    }

    /// Apply version (bumped once per executed request).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Region cell count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Recomputes bucket `b`'s cell after a mutation, updating the
    /// materialized image immediately (the image is the service's
    /// atomically-current view) and staging the two-phase MR write.
    fn refresh_cell(&mut self, b: usize) {
        let stamp = 2 * self.version;
        let cell: [u8; CELL_SIZE] = {
            let live = &self.buckets[b];
            match live.len() {
                0 => encode_cell(stamp, b"", b""),
                1 => {
                    let k = live.iter().next().expect("len 1");
                    let v = self.map.get(k).expect("live keys are mapped");
                    if fits(k, v) {
                        encode_cell(stamp, k, v)
                    } else {
                        encode_poisoned(stamp + 1)
                    }
                }
                _ => encode_poisoned(stamp + 1),
            }
        };
        let off = cell_offset(b);
        self.image[off..off + CELL_SIZE].copy_from_slice(&cell);
        self.pending.push(RegionWrite {
            offset: off as u64,
            begin: (stamp + 1).to_le_bytes().to_vec(),
            commit: cell.to_vec(),
        });
    }

    /// Rebuilds every bucket set and the whole image from the map (after
    /// a snapshot restore). All cells are restamped at the current
    /// version; staged writes are dropped — the next lease registration
    /// exposes this fresh image wholesale.
    fn rebuild_region(&mut self) {
        self.pending.clear();
        for s in &mut self.buckets {
            s.clear();
        }
        for k in self.map.keys() {
            self.buckets[bucket_of(k, self.capacity)].insert(k.clone());
        }
        let stamp = 2 * self.version;
        for b in 0..self.capacity {
            let off = cell_offset(b);
            let cell: [u8; CELL_SIZE] = match self.buckets[b].len() {
                0 => {
                    if stamp == 0 {
                        [0u8; CELL_SIZE]
                    } else {
                        encode_cell(stamp, b"", b"")
                    }
                }
                1 => {
                    let k = self.buckets[b].iter().next().expect("len 1");
                    let v = self.map.get(k).expect("live keys are mapped");
                    if fits(k, v) {
                        encode_cell(stamp, k, v)
                    } else {
                        encode_poisoned(stamp + 1)
                    }
                }
                _ => encode_poisoned(stamp + 1),
            };
            self.image[off..off + CELL_SIZE].copy_from_slice(&cell);
        }
    }
}

impl StateMachine for KvStoreService {
    fn apply(&mut self, req: &Request) -> Vec<u8> {
        self.version += 1;
        match KvOp::decode(&req.payload) {
            Some(KvOp::Get(k)) => self.map.get(&k).cloned().unwrap_or_default(),
            Some(KvOp::Put(k, v)) => {
                let b = bucket_of(&k, self.capacity);
                self.map.insert(k.clone(), v);
                self.buckets[b].insert(k);
                self.refresh_cell(b);
                b"OK".to_vec()
            }
            Some(KvOp::Del(k)) => {
                if self.map.remove(&k).is_some() {
                    let b = bucket_of(&k, self.capacity);
                    self.buckets[b].remove(&k);
                    self.refresh_cell(b);
                    b"OK".to_vec()
                } else {
                    b"MISS".to_vec()
                }
            }
            None => b"ERR".to_vec(),
        }
    }

    fn state_digest(&self) -> Digest {
        let mut parts: Vec<&[u8]> = Vec::with_capacity(self.map.len() * 2 + 1);
        let ver = self.version.to_le_bytes();
        parts.push(&ver);
        for (k, v) in &self.map {
            parts.push(k);
            parts.push(v);
        }
        Digest::of_parts(&parts)
    }

    fn snapshot(&self) -> Vec<u8> {
        let record: Snapshot = (self.version, self.capacity as u64, Cow::Borrowed(&self.map));
        codec::encode(&record)
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let Ok((version, capacity, map)) = codec::decode::<Snapshot>(snapshot) else {
            return false;
        };
        if capacity == 0 || capacity > MAX_CAPACITY as u64 {
            return false;
        }
        let capacity = capacity as usize;
        if capacity != self.capacity {
            self.capacity = capacity;
            self.buckets = vec![BTreeSet::new(); capacity];
            self.image = vec![0u8; HEADER_SIZE + capacity * CELL_SIZE];
            self.image[..HEADER_SIZE].copy_from_slice(&encode_header(capacity));
        }
        self.version = version;
        self.map = map.into_owned();
        self.rebuild_region();
        true
    }

    fn read_region_image(&self) -> Option<Vec<u8>> {
        Some(self.image.clone())
    }

    fn drain_region_writes(&mut self) -> Vec<RegionWrite> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{decode_cell, judge, CellRead, KeyVerdict};

    fn req(payload: Vec<u8>) -> Request {
        Request {
            client: 9,
            timestamp: 1,
            payload,
        }
    }

    fn put(s: &mut KvStoreService, k: &[u8], v: &[u8]) -> Vec<u8> {
        s.apply(&req(KvOp::Put(k.to_vec(), v.to_vec()).encode()))
    }

    fn cell_for(s: &KvStoreService, k: &[u8]) -> Vec<u8> {
        let off = cell_offset(bucket_of(k, s.capacity()));
        s.read_region_image().expect("image")[off..off + CELL_SIZE].to_vec()
    }

    #[test]
    fn puts_land_in_image_cells() {
        let mut s = KvStoreService::default();
        assert_eq!(put(&mut s, b"alpha", b"1"), b"OK");
        match decode_cell(&cell_for(&s, b"alpha")) {
            CellRead::Committed { stamp, key, val } => {
                assert_eq!(stamp, 2);
                assert_eq!(key, b"alpha");
                assert_eq!(val, b"1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deletes_leave_versioned_empty_markers() {
        let mut s = KvStoreService::default();
        put(&mut s, b"k", b"v");
        assert_eq!(s.apply(&req(KvOp::Del(b"k".to_vec()).encode())), b"OK");
        match decode_cell(&cell_for(&s, b"k")) {
            CellRead::Committed { stamp, key, .. } => {
                assert_eq!(stamp, 4, "delete stamps the marker");
                assert!(key.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // A reader must see the delete as *newer* than the old value.
        assert_eq!(
            judge(&decode_cell(&cell_for(&s, b"k")), b"k"),
            KeyVerdict::Absent(4)
        );
    }

    #[test]
    fn collisions_poison_and_recover() {
        // Capacity 1: every key collides.
        let mut s = KvStoreService::new(1);
        put(&mut s, b"a", b"1");
        put(&mut s, b"b", b"2");
        assert_eq!(
            judge(&decode_cell(&cell_for(&s, b"a")), b"a"),
            KeyVerdict::Fallback,
            "two live keys in one bucket must poison it"
        );
        s.apply(&req(KvOp::Del(b"b".to_vec()).encode()));
        match judge(&decode_cell(&cell_for(&s, b"a")), b"a") {
            KeyVerdict::Value(_, v) => assert_eq!(v, b"1"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversize_entries_poison_their_cell() {
        let mut s = KvStoreService::default();
        let big_key = vec![b'k'; 64];
        put(&mut s, &big_key, b"v");
        assert_eq!(
            judge(&decode_cell(&cell_for(&s, &big_key)), &big_key),
            KeyVerdict::Fallback
        );
        let big_val = vec![b'v'; 200];
        put(&mut s, b"smallkey", &big_val);
        assert_eq!(
            judge(&decode_cell(&cell_for(&s, b"smallkey")), b"smallkey"),
            KeyVerdict::Fallback
        );
        // The map itself still serves them on the message path.
        assert_eq!(s.get(&big_key), Some(&b"v".to_vec()));
        assert_eq!(s.get(b"smallkey"), Some(&big_val));
    }

    #[test]
    fn region_writes_are_two_phase() {
        let mut s = KvStoreService::default();
        put(&mut s, b"k", b"v");
        let writes = s.drain_region_writes();
        assert_eq!(writes.len(), 1);
        let w = &writes[0];
        assert_eq!(w.begin.len(), 8);
        let begin_stamp = u64::from_le_bytes(w.begin.clone().try_into().expect("8"));
        assert_eq!(begin_stamp % 2, 1, "begin stamp is torn (odd)");
        assert_eq!(w.commit.len(), CELL_SIZE);
        assert!(matches!(decode_cell(&w.commit), CellRead::Committed { .. }));
        assert!(s.drain_region_writes().is_empty(), "drain is destructive");
    }

    #[test]
    fn snapshot_restore_rebuilds_identical_judgements() {
        let mut s = KvStoreService::new(64);
        for i in 0..40u32 {
            put(&mut s, format!("user{i}").as_bytes(), &i.to_le_bytes());
        }
        s.apply(&req(KvOp::Del(b"user7".to_vec()).encode()));
        let mut fresh = KvStoreService::new(8); // wrong capacity on purpose
        assert!(fresh.restore(&s.snapshot()));
        assert_eq!(fresh.capacity(), 64);
        assert_eq!(fresh.state_digest(), s.state_digest());
        // Every key judges to the same value through the restored image.
        for i in 0..40u32 {
            let k = format!("user{i}");
            let a = judge(&decode_cell(&cell_for(&s, k.as_bytes())), k.as_bytes());
            let b = judge(&decode_cell(&cell_for(&fresh, k.as_bytes())), k.as_bytes());
            match (a, b) {
                (KeyVerdict::Fallback, KeyVerdict::Fallback) => {}
                (KeyVerdict::Absent(_), KeyVerdict::Absent(sb)) => {
                    assert!(sb >= 2, "restored absences carry the restore stamp")
                }
                (KeyVerdict::Value(_, va), KeyVerdict::Value(sb, vb)) => {
                    assert_eq!(va, vb);
                    assert_eq!(sb, 2 * fresh.version());
                }
                (a, b) => panic!("diverged: {a:?} vs {b:?}"),
            }
        }
    }

    /// A snapshot is a region to build; one claiming no cells or more than
    /// [`MAX_CAPACITY`] is refused, not allocated, and leaves the store be.
    #[test]
    fn snapshot_with_impossible_capacity_is_refused() {
        let mut s = KvStoreService::new(8);
        put(&mut s, b"k", b"v");
        let before = s.state_digest();
        for capacity in [0, MAX_CAPACITY as u64 + 1, u64::MAX] {
            let empty = BTreeMap::new();
            let record: Snapshot = (7, capacity, Cow::Borrowed(&empty));
            assert!(!s.restore(&codec::encode(&record)), "capacity {capacity}");
        }
        assert_eq!((s.capacity(), s.state_digest()), (8, before));
    }

    #[test]
    fn replies_match_reference_kv_service() {
        use reptor::KvService;
        let mut a = KvStoreService::default();
        let mut b = KvService::default();
        let script: Vec<Vec<u8>> = vec![
            KvOp::Put(b"x".to_vec(), b"1".to_vec()).encode(),
            KvOp::Get(b"x".to_vec()).encode(),
            KvOp::Del(b"x".to_vec()).encode(),
            KvOp::Del(b"x".to_vec()).encode(),
            KvOp::Get(b"x".to_vec()).encode(),
            b"garbage".to_vec(),
        ];
        for p in script {
            assert_eq!(a.apply(&req(p.clone())), b.apply(&req(p)));
        }
    }
}
