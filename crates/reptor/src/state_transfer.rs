//! Checkpoint state transfer: versioned, digest-chunked checkpoint stores
//! and the fetch-side transfer state machine.
//!
//! At every checkpoint a replica serializes its application state and
//! executor position into a [`CheckpointStore`]: the payload is cut into
//! fixed-size chunks, each chunk is digested, and the ordered chunk-digest
//! list is sealed into a *manifest* whose own digest is the store's
//! **root**. The root is what replicas attest in their CHECKPOINT votes,
//! so `f + 1` matching votes certify the entire store down to every byte:
//! a fetching replica first verifies the manifest against the certified
//! root, then verifies each chunk against the manifest, and can therefore
//! pull chunks from *any* single (possibly Byzantine) responder — over
//! chunked `StateChunk` messages on socket transports, or with one-sided
//! RDMA READs against the responder's registered store region on RUBIN,
//! where serving a chunk costs the responder zero CPU.
//!
//! Corrupt or stale bytes (a `BogusStateChunks` or `StaleCheckpoint`
//! responder) fail their digest check and the [`Transfer`] routes around
//! the responder by advancing to the next attester; verified chunks are
//! kept, so a Byzantine peer can slow a transfer down but never poison or
//! restart it.

use bft_crypto::Digest;

use crate::codec;
use crate::messages::{ClientId, ReplicaId, SeqNum};

/// Bytes per checkpoint-store chunk. Deliberately small so even modest
/// service states exercise multi-chunk transfers (and multi-READ RDMA
/// fetches) in simulation.
pub const CHUNK_SIZE: usize = 256;

/// Upper bound on a peer-claimed store size; a Byzantine manifest cannot
/// make a fetcher allocate unbounded memory.
pub const MAX_STORE_BYTES: u64 = 16 * 1024 * 1024;

/// A responder's advertisement of where its checkpoint store can be read
/// one-sided: the rkey of the registered memory region and its length.
/// `rkey == 0` means the transport has no one-sided path and chunks must
/// be fetched with `StateRequest` messages.
///
/// The `epoch` tags the offer with the recovery epoch it was registered
/// under. On every proactive-recovery epoch roll the store region is
/// re-registered and the previous epoch's region invalidated, so an offer
/// carrying a past epoch names an rkey the responder's RNIC will refuse —
/// the fence is enforced by the permission check, not by digest
/// comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateOffer {
    /// Remote key of the registered store region (0 = message path only).
    pub rkey: u32,
    /// Length of the registered region in bytes.
    pub len: u64,
    /// Recovery epoch the region was registered under.
    pub epoch: u64,
}

impl StateOffer {
    /// True if the responder offered a one-sided read path.
    pub fn readable(&self) -> bool {
        self.rkey != 0
    }
}

crate::wire_format! {
    /// The serialized content of a checkpoint: executor position, service
    /// snapshot and client session table — everything a rejoining replica
    /// needs to resume agreement above the checkpoint.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct CheckpointPayload {
        /// The sequence number the state reflects (executor position).
        pub seq: SeqNum,
        /// Opaque [`StateMachine::snapshot`](crate::state::StateMachine::snapshot) bytes.
        pub service_snapshot: Vec<u8>,
        /// Per-client last-reply table, sorted by client id (determinism: every
        /// honest replica serializes the identical byte string).
        pub clients: Vec<(ClientId, u64, Vec<u8>)>,
    }
}

impl CheckpointPayload {
    /// Deterministic serialization.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert!(
            self.clients.windows(2).all(|w| w[0].0 < w[1].0),
            "client table must be sorted and deduplicated"
        );
        codec::encode(self)
    }

    /// Decodes a payload. `None` on malformed bytes.
    pub fn decode(bytes: &[u8]) -> Option<CheckpointPayload> {
        codec::decode(bytes).ok()
    }
}

crate::wire_format! {
    /// The decoded store manifest: the certified description of every chunk.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Manifest {
        /// Checkpoint sequence number the store covers.
        pub seq: SeqNum,
        /// Total payload length in bytes.
        pub total_len: u64,
        /// Digest of each `CHUNK_SIZE` slice, in order.
        pub chunks: Vec<Digest>,
    }
}

impl Manifest {
    /// Verifies `bytes` against the certified `root` and the expected
    /// checkpoint `seq`, then decodes. `None` means the responder served a
    /// stale or forged manifest.
    pub fn verify_and_decode(bytes: &[u8], seq: SeqNum, root: Digest) -> Option<Manifest> {
        if Digest::of(bytes) != root {
            return None;
        }
        let m: Manifest = codec::decode(bytes).ok()?;
        let whole = m.seq == seq
            && m.total_len <= MAX_STORE_BYTES
            && m.chunks.len() as u64 == m.total_len.div_ceil(CHUNK_SIZE as u64);
        whole.then_some(m)
    }

    /// Length in bytes of chunk `idx` (the final chunk may be short).
    pub fn chunk_len(&self, idx: u32) -> usize {
        let start = idx as u64 * CHUNK_SIZE as u64;
        (self.total_len.saturating_sub(start) as usize).min(CHUNK_SIZE)
    }
}

/// A sealed checkpoint store held by a (potential) responder: the payload
/// bytes plus the manifest certifying them.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    seq: SeqNum,
    bytes: Vec<u8>,
    manifest: Vec<u8>,
    root: Digest,
}

impl CheckpointStore {
    /// Chunks and seals `payload` as the checkpoint store for `seq`.
    pub fn build(seq: SeqNum, payload: Vec<u8>) -> CheckpointStore {
        let manifest = codec::encode(&Manifest {
            seq,
            total_len: payload.len() as u64,
            chunks: payload.chunks(CHUNK_SIZE).map(Digest::of).collect(),
        });
        let root = Digest::of(&manifest);
        CheckpointStore {
            seq,
            bytes: payload,
            manifest,
            root,
        }
    }

    /// The checkpoint sequence number.
    pub fn seq(&self) -> SeqNum {
        self.seq
    }

    /// The certified root digest (what CHECKPOINT votes attest).
    pub fn root(&self) -> Digest {
        self.root
    }

    /// The full payload (what gets registered as an RDMA-readable region).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The encoded manifest.
    pub fn manifest(&self) -> &[u8] {
        &self.manifest
    }

    /// Number of data chunks.
    pub fn num_chunks(&self) -> u32 {
        self.bytes.len().div_ceil(CHUNK_SIZE) as u32
    }

    /// The bytes of chunk `idx`, or `None` out of range.
    pub fn chunk(&self, idx: u32) -> Option<&[u8]> {
        if idx >= self.num_chunks() {
            return None;
        }
        let start = idx as usize * CHUNK_SIZE;
        let end = (start + CHUNK_SIZE).min(self.bytes.len());
        self.bytes.get(start..end)
    }
}

/// Outcome of offering received bytes to a [`Transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkVerdict {
    /// Digest matched the certified manifest; chunk stored.
    Accepted,
    /// Digest mismatch — the responder is faulty or stale.
    Mismatch,
    /// Out of range, duplicate, or no manifest yet; ignored.
    Ignored,
}

/// Fetch-side state of one in-progress checkpoint state transfer.
///
/// Pure data: the replica drives all I/O (manifest/chunk requests, RDMA
/// reads, retry timers) and feeds results in through
/// [`install_manifest`](Transfer::install_manifest) /
/// [`accept_chunk`](Transfer::accept_chunk).
#[derive(Debug)]
pub(crate) struct Transfer {
    /// The checkpoint sequence number being fetched.
    pub(crate) target: SeqNum,
    /// The `f + 1`-attested root digest.
    pub(crate) root: Digest,
    /// Attesters of `(target, root)` and their read offers, sorted by id.
    pub(crate) peers: Vec<(ReplicaId, StateOffer)>,
    /// Index into `peers` of the responder currently being used.
    pub(crate) current: usize,
    /// Verified manifest, once fetched.
    pub(crate) manifest: Option<Manifest>,
    /// Verified chunk bytes (kept across responder switches: a chunk that
    /// passed its digest check is final no matter who served it).
    pub(crate) chunks: Vec<Option<Vec<u8>>>,
    /// Verified chunks received so far.
    pub(crate) received: usize,
    /// Responder switches + timeout re-requests (metrics).
    pub(crate) retries: u64,
    /// A locally reconstructed payload candidate (durable snapshot + WAL
    /// replay). Once the manifest arrives, chunks whose local bytes match
    /// the certified digests are taken from here instead of the network —
    /// the fetch degrades to a delta of what actually changed.
    pub(crate) local: Option<Vec<u8>>,
}

impl Transfer {
    /// Starts a transfer for `(target, root)` from `peers`. `me` seeds the
    /// deterministic starting responder so a cluster of fetchers spreads
    /// load instead of all hammering the lowest-id attester.
    pub(crate) fn new(
        target: SeqNum,
        root: Digest,
        peers: Vec<(ReplicaId, StateOffer)>,
        me: ReplicaId,
    ) -> Transfer {
        assert!(!peers.is_empty(), "state transfer needs at least one peer");
        let current = me as usize % peers.len();
        Transfer {
            target,
            root,
            peers,
            current,
            manifest: None,
            chunks: Vec::new(),
            received: 0,
            retries: 0,
            local: None,
        }
    }

    /// Installs a local payload candidate for delta fetching (see
    /// [`Transfer::prefill_from_local`]).
    pub(crate) fn set_local_candidate(&mut self, bytes: Vec<u8>) {
        self.local = Some(bytes);
    }

    /// Fills every still-missing chunk whose slice of the local candidate
    /// digest-matches the certified manifest, consuming the candidate.
    /// Returns `(chunks, bytes)` satisfied locally. The digest check makes
    /// this exactly as safe as a network fetch: a stale or corrupt local
    /// byte range simply fails to match and is fetched remotely.
    pub(crate) fn prefill_from_local(&mut self) -> (u64, u64) {
        let Some(m) = &self.manifest else {
            return (0, 0);
        };
        let Some(local) = self.local.take() else {
            return (0, 0);
        };
        let (mut chunks, mut bytes) = (0u64, 0u64);
        for idx in 0..self.chunks.len() {
            if self.chunks[idx].is_some() {
                continue;
            }
            let len = m.chunk_len(idx as u32);
            let start = idx * CHUNK_SIZE;
            let Some(slice) = local.get(start..start + len) else {
                continue;
            };
            if Digest::of(slice) == m.chunks[idx] {
                self.chunks[idx] = Some(slice.to_vec());
                self.received += 1;
                chunks += 1;
                bytes += len as u64;
            }
        }
        (chunks, bytes)
    }

    /// The responder currently being fetched from.
    pub(crate) fn current_peer(&self) -> (ReplicaId, StateOffer) {
        self.peers[self.current]
    }

    /// Routes around the current responder (digest mismatch or timeout).
    pub(crate) fn next_peer(&mut self) {
        self.current = (self.current + 1) % self.peers.len();
        self.retries += 1;
    }

    /// Offers manifest bytes. On success allocates the chunk table.
    pub(crate) fn install_manifest(&mut self, bytes: &[u8]) -> bool {
        if self.manifest.is_some() {
            return true;
        }
        let Some(m) = Manifest::verify_and_decode(bytes, self.target, self.root) else {
            return false;
        };
        self.chunks = vec![None; m.chunks.len()];
        self.manifest = Some(m);
        true
    }

    /// Offers the bytes of chunk `idx`, verifying against the manifest.
    pub(crate) fn accept_chunk(&mut self, idx: u32, data: &[u8]) -> ChunkVerdict {
        let Some(m) = &self.manifest else {
            return ChunkVerdict::Ignored;
        };
        let Some(slot) = self.chunks.get_mut(idx as usize) else {
            return ChunkVerdict::Ignored;
        };
        if slot.is_some() {
            return ChunkVerdict::Ignored;
        }
        if data.len() != m.chunk_len(idx) || Digest::of(data) != m.chunks[idx as usize] {
            return ChunkVerdict::Mismatch;
        }
        *slot = Some(data.to_vec());
        self.received += 1;
        ChunkVerdict::Accepted
    }

    /// Lowest chunk index still missing, `None` when all are verified
    /// (or no manifest yet).
    pub(crate) fn next_missing(&self) -> Option<u32> {
        self.manifest.as_ref()?;
        self.chunks
            .iter()
            .position(|c| c.is_none())
            .map(|i| i as u32)
    }

    /// True once the manifest and every chunk have been verified.
    pub(crate) fn is_complete(&self) -> bool {
        self.manifest.is_some() && self.received == self.chunks.len()
    }

    /// Reassembles the verified payload. `None` while incomplete.
    pub(crate) fn assemble(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut out = Vec::with_capacity(self.manifest.as_ref()?.total_len as usize);
        for c in &self.chunks {
            out.extend_from_slice(c.as_ref()?);
        }
        Some(out)
    }

    /// Monotone progress mark for stall detection: bumps whenever the
    /// manifest or a new chunk lands.
    pub(crate) fn progress(&self) -> u64 {
        self.manifest.is_some() as u64 + self.received as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize) -> Vec<u8> {
        CheckpointPayload {
            seq: 64,
            service_snapshot: (0..len).map(|i| (i % 251) as u8).collect(),
            clients: vec![(100, 7, b"ok".to_vec()), (101, 9, Vec::new())],
        }
        .encode()
    }

    #[test]
    fn payload_roundtrip() {
        let p = CheckpointPayload {
            seq: 128,
            service_snapshot: vec![1, 2, 3],
            clients: vec![(5, 1, b"r".to_vec())],
        };
        assert_eq!(CheckpointPayload::decode(&p.encode()), Some(p));
        assert_eq!(CheckpointPayload::decode(b"junk"), None);
    }

    #[test]
    fn store_chunks_and_manifest_agree() {
        let bytes = payload(3 * CHUNK_SIZE + 17);
        let store = CheckpointStore::build(64, bytes.clone());
        assert!(store.num_chunks() >= 4);
        let m = Manifest::verify_and_decode(store.manifest(), 64, store.root()).expect("verifies");
        assert_eq!(m.total_len, bytes.len() as u64);
        assert_eq!(m.chunks.len() as u32, store.num_chunks());
        let mut reassembled = Vec::new();
        for i in 0..store.num_chunks() {
            let c = store.chunk(i).expect("in range");
            assert_eq!(c.len(), m.chunk_len(i));
            assert_eq!(Digest::of(c), m.chunks[i as usize]);
            reassembled.extend_from_slice(c);
        }
        assert_eq!(reassembled, bytes);
        assert_eq!(store.chunk(store.num_chunks()), None);
    }

    #[test]
    fn manifest_rejects_wrong_root_seq_and_forgery() {
        let store = CheckpointStore::build(64, payload(CHUNK_SIZE));
        // Wrong certified root (a stale store's manifest).
        let stale = CheckpointStore::build(32, payload(CHUNK_SIZE / 2));
        assert!(Manifest::verify_and_decode(stale.manifest(), 64, store.root()).is_none());
        // Right bytes, wrong expected seq.
        assert!(Manifest::verify_and_decode(store.manifest(), 65, store.root()).is_none());
        // Bit-flipped manifest fails the root check.
        let mut forged = store.manifest().to_vec();
        forged[0] ^= 1;
        assert!(Manifest::verify_and_decode(&forged, 64, store.root()).is_none());
    }

    #[test]
    fn transfer_verifies_and_routes_around_bogus_chunks() {
        let bytes = payload(2 * CHUNK_SIZE + 5);
        let store = CheckpointStore::build(64, bytes.clone());
        let peers = vec![
            (0, StateOffer::default()),
            (
                1,
                StateOffer {
                    rkey: 9,
                    len: 99,
                    epoch: 0,
                },
            ),
            (3, StateOffer::default()),
        ];
        let mut t = Transfer::new(64, store.root(), peers, 2);
        assert_eq!(t.current_peer().0, 3, "id 2 starts at peers[2]");
        // Chunks before the manifest are ignored.
        assert_eq!(
            t.accept_chunk(0, store.chunk(0).unwrap()),
            ChunkVerdict::Ignored
        );
        assert!(!t.install_manifest(b"not-the-manifest"));
        assert!(t.install_manifest(store.manifest()));
        assert_eq!(t.next_missing(), Some(0));
        // A corrupted chunk is detected and the transfer routes around.
        let mut bogus = store.chunk(0).unwrap().to_vec();
        bogus[3] ^= 0xFF;
        assert_eq!(t.accept_chunk(0, &bogus), ChunkVerdict::Mismatch);
        t.next_peer();
        assert_eq!(t.current_peer().0, 0);
        assert_eq!(t.retries, 1);
        // Honest chunks complete the transfer regardless of order.
        for idx in (0..store.num_chunks()).rev() {
            assert_eq!(
                t.accept_chunk(idx, store.chunk(idx).unwrap()),
                ChunkVerdict::Accepted
            );
            // Duplicates are ignored.
            assert_eq!(
                t.accept_chunk(idx, store.chunk(idx).unwrap()),
                ChunkVerdict::Ignored
            );
        }
        assert!(t.is_complete());
        assert_eq!(t.assemble(), Some(bytes));
        assert_eq!(t.progress(), 1 + store.num_chunks() as u64);
    }

    #[test]
    fn empty_payload_store_completes_on_manifest_alone() {
        let store = CheckpointStore::build(0, Vec::new());
        assert_eq!(store.num_chunks(), 0);
        let mut t = Transfer::new(0, store.root(), vec![(1, StateOffer::default())], 0);
        assert!(t.install_manifest(store.manifest()));
        assert!(t.is_complete());
        assert_eq!(t.assemble(), Some(Vec::new()));
    }
}
