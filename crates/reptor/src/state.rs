//! Replicated service state machines (the execution stage, paper §II-B).

use std::collections::BTreeMap;

use bft_crypto::Digest;
use simnet::Nanos;

use crate::codec;
use crate::messages::Request;

/// A deterministic replicated service.
///
/// The agreement stage feeds committed requests to `apply` in sequence
/// order on every correct replica; determinism of the implementation is
/// what makes the replicas' replies match.
pub trait StateMachine {
    /// Executes one operation and returns its result.
    fn apply(&mut self, req: &Request) -> Vec<u8>;

    /// Digest of the current state (checkpoints, paper §II-B).
    fn state_digest(&self) -> Digest;

    /// Simulated CPU cost of executing `req` (charged to the execution
    /// core).
    fn op_cost(&self, req: &Request) -> Nanos {
        Nanos::from_nanos(1_000 + 2 * req.payload.len() as u64)
    }

    /// Serializes the full service state for checkpoint state transfer.
    ///
    /// The default returns an empty snapshot: agreement-layer metadata
    /// (executor position, client sessions) still transfers, but the
    /// service itself starts empty on the fetcher — acceptable only for
    /// stateless demo services. Replicated services that want rejoin
    /// support must override both this and [`StateMachine::restore`] so
    /// that `restore(&snapshot())` reproduces a state with an identical
    /// [`StateMachine::state_digest`].
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Replaces the service state with a previously snapshotted one.
    /// Returns false on malformed bytes (the state transfer aborts and
    /// retries from another peer).
    fn restore(&mut self, snapshot: &[u8]) -> bool {
        snapshot.is_empty()
    }

    /// Byte image of the service's one-sided read region, if the service
    /// exposes one.
    ///
    /// Services that want agreement-free client reads lay out their
    /// applied state in a fixed-size region of version-stamped cells; the
    /// replica registers this image as an RDMA MR and leases the rkey to
    /// clients. The default (`None`) keeps existing services lease-free.
    fn read_region_image(&self) -> Option<Vec<u8>> {
        None
    }

    /// Drains the region writes produced by `apply` calls since the last
    /// drain.
    ///
    /// Each [`RegionWrite`] is a two-phase update of one cell: the replica
    /// copies `begin` (an odd, torn version stamp) into the registered MR
    /// immediately and `commit` (the full cell, even stamp) a sub-RTT
    /// moment later, so concurrent one-sided READs observe either the old
    /// committed cell, the torn marker, or the new committed cell — never
    /// a silent half-write.
    fn drain_region_writes(&mut self) -> Vec<RegionWrite> {
        Vec::new()
    }
}

/// One two-phase cell update destined for a replica's leased read region.
///
/// Produced by [`StateMachine::drain_region_writes`]; consumed by the
/// replica's execution stage, which stages `begin` into the MR at apply
/// time and `commit` one torn-window later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionWrite {
    /// Byte offset of the cell inside the region.
    pub offset: u64,
    /// First-phase bytes: the cell's version stamp set to an odd (torn)
    /// value.
    pub begin: Vec<u8>,
    /// Second-phase bytes: the complete cell with an even (committed)
    /// version stamp.
    pub commit: Vec<u8>,
}

/// Echoes the request payload (the workload of the paper's echo
/// benchmarks).
#[derive(Debug, Default, Clone)]
pub struct EchoService {
    ops: u64,
}

impl StateMachine for EchoService {
    fn apply(&mut self, req: &Request) -> Vec<u8> {
        self.ops += 1;
        req.payload.clone()
    }

    fn state_digest(&self) -> Digest {
        Digest::of(&self.snapshot())
    }

    fn snapshot(&self) -> Vec<u8> {
        codec::encode(&self.ops)
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        codec::decode(snapshot).map(|ops| self.ops = ops).is_ok()
    }
}

/// A replicated counter: `payload = "inc"` increments and returns the new
/// value; anything else reads.
#[derive(Debug, Default, Clone)]
pub struct CounterService {
    value: u64,
}

impl CounterService {
    /// Current value (tests).
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl StateMachine for CounterService {
    fn apply(&mut self, req: &Request) -> Vec<u8> {
        if req.payload == b"inc" {
            self.value += 1;
        }
        codec::encode(&self.value)
    }

    fn state_digest(&self) -> Digest {
        Digest::of(&self.snapshot())
    }

    fn snapshot(&self) -> Vec<u8> {
        codec::encode(&self.value)
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        codec::decode(snapshot)
            .map(|value| self.value = value)
            .is_ok()
    }
}

crate::wire_format! {
    /// Operations understood by [`KvService`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum KvOp {
        /// Read a key.
        0 => Get(key: Vec<u8>),
        /// Write a key.
        1 => Put(key: Vec<u8>, value: Vec<u8>),
        /// Delete a key.
        2 => Del(key: Vec<u8>),
    }
}

impl KvOp {
    /// Encodes the operation as a request payload.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a request payload. `None` on malformed input (executed as a
    /// no-op so replicas stay deterministic even for garbage requests).
    pub fn decode(buf: &[u8]) -> Option<KvOp> {
        codec::decode(buf).ok()
    }
}

crate::wire_format! {
    /// A replicated key/value store. Its snapshot is its fields.
    #[derive(Debug, Default, Clone)]
    pub struct KvService {
        version: u64,
        map: BTreeMap<Vec<u8>, Vec<u8>>,
    }
}

impl KvService {
    /// Number of keys stored (tests).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct read (tests compare replica states).
    pub fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.map.get(key)
    }
}

impl StateMachine for KvService {
    fn apply(&mut self, req: &Request) -> Vec<u8> {
        self.version += 1;
        match KvOp::decode(&req.payload) {
            Some(KvOp::Get(k)) => self.map.get(&k).cloned().unwrap_or_default(),
            Some(KvOp::Put(k, v)) => {
                self.map.insert(k, v);
                b"OK".to_vec()
            }
            Some(KvOp::Del(k)) => {
                if self.map.remove(&k).is_some() {
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
        let ver = codec::encode(&self.version);
        parts.push(&ver);
        for (k, v) in &self.map {
            parts.push(k);
            parts.push(v);
        }
        Digest::of_parts(&parts)
    }

    fn snapshot(&self) -> Vec<u8> {
        codec::encode(self)
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        codec::decode(snapshot).map(|kv| *self = kv).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(payload: Vec<u8>) -> Request {
        Request {
            client: 1,
            timestamp: 1,
            payload,
        }
    }

    #[test]
    fn counter_applies_in_order() {
        let mut c = CounterService::default();
        assert_eq!(c.apply(&req(b"inc".to_vec())), codec::encode(&1u64));
        assert_eq!(c.apply(&req(b"inc".to_vec())), codec::encode(&2u64));
        assert_eq!(c.apply(&req(b"get".to_vec())), codec::encode(&2u64));
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn kv_ops_roundtrip_and_apply() {
        for op in [
            KvOp::Get(b"k".to_vec()),
            KvOp::Put(b"k".to_vec(), b"v".to_vec()),
            KvOp::Del(b"k".to_vec()),
        ] {
            assert_eq!(KvOp::decode(&op.encode()), Some(op));
        }
        let mut kv = KvService::default();
        assert_eq!(
            kv.apply(&req(KvOp::Put(b"a".to_vec(), b"1".to_vec()).encode())),
            b"OK"
        );
        assert_eq!(kv.apply(&req(KvOp::Get(b"a".to_vec()).encode())), b"1");
        assert_eq!(kv.apply(&req(KvOp::Del(b"a".to_vec()).encode())), b"OK");
        assert_eq!(kv.apply(&req(KvOp::Del(b"a".to_vec()).encode())), b"MISS");
        assert_eq!(kv.apply(&req(b"garbage".to_vec())), b"ERR");
        assert!(kv.is_empty());
    }

    #[test]
    fn kv_malformed_payload_rejected() {
        assert_eq!(KvOp::decode(&[]), None);
        assert_eq!(KvOp::decode(&[9, 0, 0, 0, 0]), None);
        assert_eq!(KvOp::decode(&[0, 255, 255, 255, 255]), None);
        // Trailing bytes rejected.
        let mut enc = KvOp::Get(b"k".to_vec()).encode();
        enc.push(0);
        assert_eq!(KvOp::decode(&enc), None);
    }

    #[test]
    fn state_digest_tracks_content_and_history() {
        let mut a = KvService::default();
        let mut b = KvService::default();
        assert_eq!(a.state_digest(), b.state_digest());
        a.apply(&req(KvOp::Put(b"k".to_vec(), b"v".to_vec()).encode()));
        assert_ne!(a.state_digest(), b.state_digest());
        b.apply(&req(KvOp::Put(b"k".to_vec(), b"v".to_vec()).encode()));
        assert_eq!(a.state_digest(), b.state_digest());
        // Same content reached by different histories differs by version.
        let mut c = KvService::default();
        c.apply(&req(KvOp::Put(b"k".to_vec(), b"x".to_vec()).encode()));
        c.apply(&req(KvOp::Put(b"k".to_vec(), b"v".to_vec()).encode()));
        assert_ne!(a.state_digest(), c.state_digest());
    }

    #[test]
    fn echo_returns_payload() {
        let mut e = EchoService::default();
        assert_eq!(e.apply(&req(b"ping".to_vec())), b"ping");
        let d1 = e.state_digest();
        e.apply(&req(b"ping".to_vec()));
        assert_ne!(d1, e.state_digest());
    }

    #[test]
    fn op_cost_scales_with_payload() {
        let e = EchoService::default();
        assert!(e.op_cost(&req(vec![0; 10_000])) > e.op_cost(&req(vec![0; 10])));
    }

    #[test]
    fn snapshots_roundtrip_with_identical_digests() {
        let mut counter = CounterService::default();
        counter.apply(&req(b"inc".to_vec()));
        counter.apply(&req(b"inc".to_vec()));
        let mut fresh = CounterService::default();
        assert!(fresh.restore(&counter.snapshot()));
        assert_eq!(fresh.value(), 2);
        assert_eq!(fresh.state_digest(), counter.state_digest());

        let mut echo = EchoService::default();
        echo.apply(&req(b"ping".to_vec()));
        let mut fresh = EchoService::default();
        assert!(fresh.restore(&echo.snapshot()));
        assert_eq!(fresh.state_digest(), echo.state_digest());

        let mut kv = KvService::default();
        kv.apply(&req(KvOp::Put(b"a".to_vec(), b"1".to_vec()).encode()));
        kv.apply(&req(KvOp::Put(b"b".to_vec(), b"2".to_vec()).encode()));
        kv.apply(&req(KvOp::Del(b"a".to_vec()).encode()));
        let mut fresh = KvService::default();
        assert!(fresh.restore(&kv.snapshot()));
        assert_eq!(fresh.get(b"b"), Some(&b"2".to_vec()));
        assert_eq!(fresh.state_digest(), kv.state_digest());
    }

    #[test]
    fn malformed_snapshots_rejected_without_mutation() {
        let mut counter = CounterService::default();
        counter.apply(&req(b"inc".to_vec()));
        assert!(!counter.restore(b"short"));
        assert_eq!(counter.value(), 1, "failed restore must not mutate");

        let mut kv = KvService::default();
        kv.apply(&req(KvOp::Put(b"k".to_vec(), b"v".to_vec()).encode()));
        let before = kv.state_digest();
        assert!(!kv.restore(b"garbage-bytes"));
        let mut truncated = kv.snapshot();
        truncated.pop();
        assert!(!kv.restore(&truncated));
        let mut trailing = kv.snapshot();
        trailing.push(0);
        assert!(!kv.restore(&trailing));
        assert_eq!(kv.state_digest(), before);
    }
}
