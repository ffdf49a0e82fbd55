//! PBFT protocol messages and their wire encoding.

use bft_crypto::{Digest, NodeId, Sha256, DIGEST_LEN};

use crate::codec::{self, CodecError};
use crate::config::ReptorConfig;

/// A view number (the current primary is `view % n`).
pub type View = u64;
/// An agreement sequence number.
pub type SeqNum = u64;
/// Replica identifier (`0..n`).
pub type ReplicaId = u32;
/// Client identifier (assigned above the replica id range).
pub type ClientId = u32;

crate::wire_format! {
    /// A client request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Request {
        /// The issuing client.
        pub client: ClientId,
        /// Client-local monotonically increasing timestamp (deduplication and
        /// reply matching).
        pub timestamp: u64,
        /// Opaque operation for the replicated service.
        pub payload: Vec<u8>,
    }
}

impl Request {
    /// The request digest.
    pub fn digest(&self) -> Digest {
        Digest::of_parts(&[
            &self.client.to_le_bytes(),
            &self.timestamp.to_le_bytes(),
            &self.payload,
        ])
    }
}

/// Digest of an ordered batch of requests: [`Digest::of_parts`] over the
/// request digests, each fed as it is computed.
pub fn batch_digest(batch: &[Request]) -> Digest {
    let mut h = Sha256::new();
    for req in batch {
        h.update(&(DIGEST_LEN as u64).to_le_bytes());
        h.update(req.digest().as_ref());
    }
    Digest(h.finalize())
}

crate::wire_format! {
    /// Evidence that a request batch reached the *prepared* state in some view
    /// (carried in VIEW-CHANGE messages).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PreparedProof {
        /// Sequence number of the batch.
        pub seq: SeqNum,
        /// View in which it prepared.
        pub view: View,
        /// The batch digest.
        pub digest: Digest,
        /// The batch itself, so the new primary can re-propose it.
        pub batch: Vec<Request>,
    }
}

crate::wire_format! {
    /// A PBFT protocol message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Message {
        /// Client request submitted for ordering.
        0 => Request(req: Request),
        /// Leader proposal: assignment of a sequence number to a batch.
        1 => PrePrepare {
            /// Current view.
            view: View,
            /// Assigned sequence number.
            seq: SeqNum,
            /// Digest of `batch`.
            digest: Digest,
            /// The proposed request batch.
            batch: Vec<Request>,
        },
        /// Backup agreement on the leader's assignment.
        2 => Prepare {
            /// Current view.
            view: View,
            /// Sequence number.
            seq: SeqNum,
            /// Batch digest.
            digest: Digest,
            /// Sending replica.
            replica: ReplicaId,
        },
        /// Commit vote: the sender has a prepared certificate.
        3 => Commit {
            /// Current view.
            view: View,
            /// Sequence number.
            seq: SeqNum,
            /// Batch digest.
            digest: Digest,
            /// Sending replica.
            replica: ReplicaId,
        },
        /// Execution result returned to a client.
        4 => Reply {
            /// View at execution time.
            view: View,
            /// The client the reply is for.
            client: ClientId,
            /// Echo of the request timestamp.
            timestamp: u64,
            /// Replying replica.
            replica: ReplicaId,
            /// Service result.
            result: Vec<u8>,
        },
        /// Periodic stable-state advertisement for log truncation.
        ///
        /// Doubles as the checkpoint-store certificate for state transfer: the
        /// digest is the chunked store's root, and on RDMA transports the
        /// sender piggybacks the rkey of the registered store region so a
        /// lagging replica can fetch chunks with one-sided READs.
        5 => Checkpoint {
            /// Sequence number the checkpoint covers.
            seq: SeqNum,
            /// Root digest of the checkpoint store at `seq` (covers the
            /// serialized service state and executor position).
            state_digest: Digest,
            /// Sending replica.
            replica: ReplicaId,
            /// Remote key of the sender's registered checkpoint-store region;
            /// zero when the transport has no one-sided read path.
            store_rkey: u32,
            /// Byte length of the registered store region (zero with no offer).
            store_len: u64,
            /// Recovery epoch the store region was registered under. A proactive
            /// epoch roll re-registers the region and invalidates the previous
            /// one, so an rkey tagged with a stale epoch is fenced by the RNIC.
            store_epoch: u64,
        },
        /// Vote to move to a new view after a suspected faulty primary.
        6 => ViewChange {
            /// The proposed new view.
            new_view: View,
            /// The sender's last stable checkpoint.
            last_stable: SeqNum,
            /// Digest of that checkpoint's state.
            checkpoint_digest: Digest,
            /// Prepared certificates above the stable checkpoint.
            prepared: Vec<PreparedProof>,
            /// Sending replica.
            replica: ReplicaId,
        },
        /// The new primary's installation message.
        7 => NewView {
            /// The view being installed.
            view: View,
            /// Re-issued proposals `(seq, digest, batch)` for prepared batches.
            pre_prepares: Vec<(SeqNum, Digest, Vec<Request>)>,
            /// The new primary.
            replica: ReplicaId,
        },
        /// A lagging replica asks its peers to re-send committed instances it
        /// missed. Agreement messages lost above the transport (e.g. corrupted
        /// frames rejected by MAC verification) are never retransmitted by the
        /// fabric, so the protocol provides its own recovery path.
        8 => CatchUpRequest {
            /// First sequence number the sender is missing
            /// (its `last_executed + 1`).
            from_seq: SeqNum,
            /// Sending replica.
            replica: ReplicaId,
        },
        /// Re-delivery of one executed instance to a lagging replica. `f + 1`
        /// matching replies prove at least one honest replica executed the
        /// batch, which requires a commit certificate — the batch is final.
        9 => CatchUpReply {
            /// Sequence number of the instance.
            seq: SeqNum,
            /// View in which the sender holds the instance.
            view: View,
            /// Batch digest.
            digest: Digest,
            /// The executed batch.
            batch: Vec<Request>,
            /// Sending replica.
            replica: ReplicaId,
        },
        /// A replica in state transfer asks a peer for one piece of its
        /// checkpoint store (the message path; RDMA transports read chunks
        /// one-sided instead).
        10 => StateRequest {
            /// Checkpoint sequence number being fetched.
            seq: SeqNum,
            /// Chunk index, or [`MANIFEST_CHUNK`] for the store manifest.
            chunk: u32,
            /// Requesting replica.
            replica: ReplicaId,
            /// Recovery epoch of the offer being fetched; the responder rejects
            /// requests carrying a stale epoch (the message-path mirror of the
            /// RNIC rkey fence).
            epoch: u64,
        },
        /// One piece of a checkpoint store, served to a fetching replica. The
        /// fetcher verifies `data` against the digest recorded in the
        /// certified manifest, so a Byzantine responder cannot plant state.
        11 => StateChunk {
            /// Checkpoint sequence number.
            seq: SeqNum,
            /// Chunk index, or [`MANIFEST_CHUNK`] for the store manifest.
            chunk: u32,
            /// Chunk (or manifest) bytes.
            data: Vec<u8>,
            /// Responding replica.
            replica: ReplicaId,
        },
        /// A follower's fast-path WRITE-permission grant towards the primary of
        /// `view`: the rkey of its pre-prepare slot region for that view. Sent
        /// at view installation; the region is revoked (and the rkey fenced by
        /// the RNIC) when the follower moves past `view`.
        12 => SlotGrant {
            /// View the grant is valid for.
            view: View,
            /// Granting replica (the slot region's owner).
            replica: ReplicaId,
            /// Remote WRITE key of the slot region.
            rkey: u32,
            /// Size of one slot in bytes.
            slot_size: u64,
            /// Number of slots in the region (the agreement window).
            slots: u64,
        },
        /// A client's request for a replica's current read lease (the rkey of
        /// its applied-state region). Sent before the first one-sided read and
        /// again whenever a read is RNIC-denied, which is how clients discover
        /// revocations.
        13 => LeaseQuery {
            /// Querying client.
            client: ClientId,
        },
        /// A replica's answer to [`Message::LeaseQuery`]: the rkey under which
        /// its applied-state region is currently readable. `rkey == 0` means
        /// no lease is available (leases disabled, or transport without
        /// one-sided reads) and the client must use message-path reads.
        14 => LeaseGrant {
            /// Granting replica (the region's owner).
            replica: ReplicaId,
            /// Remote READ key of the applied-state region; 0 if none.
            rkey: u32,
            /// Region length in bytes.
            len: u64,
            /// Recovery epoch the lease was issued under (diagnostics; the
            /// RNIC, not this field, enforces revocation).
            epoch: u64,
        },
    }
}

/// Sentinel chunk index requesting/carrying the checkpoint-store manifest
/// instead of a data chunk.
pub const MANIFEST_CHUNK: u32 = u32::MAX;

impl Message {
    /// Short tag for logs and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Request(_) => "REQUEST",
            Message::PrePrepare { .. } => "PRE-PREPARE",
            Message::Prepare { .. } => "PREPARE",
            Message::Commit { .. } => "COMMIT",
            Message::Reply { .. } => "REPLY",
            Message::Checkpoint { .. } => "CHECKPOINT",
            Message::ViewChange { .. } => "VIEW-CHANGE",
            Message::NewView { .. } => "NEW-VIEW",
            Message::CatchUpRequest { .. } => "CATCH-UP-REQUEST",
            Message::CatchUpReply { .. } => "CATCH-UP-REPLY",
            Message::StateRequest { .. } => "STATE-REQUEST",
            Message::StateChunk { .. } => "STATE-CHUNK",
            Message::SlotGrant { .. } => "SLOT-GRANT",
            Message::LeaseQuery { .. } => "LEASE-QUERY",
            Message::LeaseGrant { .. } => "LEASE-GRANT",
        }
    }

    /// The node this message claims to come from: the id its body names,
    /// or for a PRE-PREPARE, which names none, the primary of its view.
    /// An authenticator proves only which node produced the bytes, so a
    /// receiver must compare the two before it counts the message as that
    /// node's word.
    pub fn author(&self, primary_of: impl Fn(View) -> ReplicaId) -> u32 {
        match self {
            Message::Request(Request { client, .. }) | Message::LeaseQuery { client } => *client,
            Message::PrePrepare { view, .. } => primary_of(*view),
            Message::Prepare { replica, .. }
            | Message::Commit { replica, .. }
            | Message::Reply { replica, .. }
            | Message::Checkpoint { replica, .. }
            | Message::ViewChange { replica, .. }
            | Message::NewView { replica, .. }
            | Message::CatchUpRequest { replica, .. }
            | Message::CatchUpReply { replica, .. }
            | Message::StateRequest { replica, .. }
            | Message::StateChunk { replica, .. }
            | Message::SlotGrant { replica, .. }
            | Message::LeaseGrant { replica, .. } => *replica,
        }
    }

    /// Whether `sender`, whose MAC opened this message, may speak it in
    /// `cfg`'s group: it must be the node the body names
    /// ([`Message::author`]), and that node must be a replica for every
    /// kind but a client's REQUEST and LEASE-QUERY.
    pub(crate) fn spoken_by(&self, sender: NodeId, cfg: &ReptorConfig) -> bool {
        let client_kind = matches!(self, Message::Request(_) | Message::LeaseQuery { .. });
        self.author(|v| cfg.primary(v)) == sender && (client_kind || (sender as usize) < cfg.n)
    }

    /// Encodes the message body (without authentication).
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a message body.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input (treated by replicas as a
    /// Byzantine message and dropped).
    pub fn decode(buf: &[u8]) -> Result<Message, CodecError> {
        codec::decode(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_crypto::KeyTable;

    use crate::envelope::{Envelope, SignedMessage};

    fn req(c: u32, ts: u64) -> Request {
        Request {
            client: c,
            timestamp: ts,
            payload: vec![1, 2, 3],
        }
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        let d = Digest::of(b"x");
        let msgs = vec![
            Message::Request(req(10, 1)),
            Message::PrePrepare {
                view: 1,
                seq: 2,
                digest: d,
                batch: vec![req(10, 1), req(11, 2)],
            },
            Message::Prepare {
                view: 1,
                seq: 2,
                digest: d,
                replica: 3,
            },
            Message::Commit {
                view: 1,
                seq: 2,
                digest: d,
                replica: 3,
            },
            Message::Reply {
                view: 1,
                client: 10,
                timestamp: 5,
                replica: 2,
                result: b"ok".to_vec(),
            },
            Message::Checkpoint {
                seq: 100,
                state_digest: d,
                replica: 1,
                store_rkey: 77,
                store_len: 4096,
                store_epoch: 3,
            },
            Message::ViewChange {
                new_view: 2,
                last_stable: 100,
                checkpoint_digest: d,
                prepared: vec![PreparedProof {
                    seq: 101,
                    view: 1,
                    digest: d,
                    batch: vec![req(10, 9)],
                }],
                replica: 0,
            },
            Message::NewView {
                view: 2,
                pre_prepares: vec![(101, d, vec![req(10, 9)])],
                replica: 2,
            },
            Message::CatchUpRequest {
                from_seq: 7,
                replica: 3,
            },
            Message::CatchUpReply {
                seq: 7,
                view: 1,
                digest: d,
                batch: vec![req(10, 4), req(11, 2)],
                replica: 0,
            },
            Message::StateRequest {
                seq: 64,
                chunk: MANIFEST_CHUNK,
                replica: 2,
                epoch: 1,
            },
            Message::StateChunk {
                seq: 64,
                chunk: 3,
                data: vec![5; 97],
                replica: 1,
            },
            Message::SlotGrant {
                view: 2,
                replica: 3,
                rkey: 91,
                slot_size: 4096,
                slots: 128,
            },
            Message::LeaseQuery { client: 9 },
            Message::LeaseGrant {
                replica: 1,
                rkey: 77,
                len: 163_856,
                epoch: 4,
            },
        ];
        for m in msgs {
            let enc = m.encode();
            let dec = Message::decode(&enc).unwrap_or_else(|e| panic!("{}: {e}", m.kind()));
            assert_eq!(dec, m, "{}", m.kind());
            // The encode buffer was sized once, exactly, never grown.
            assert_eq!(enc.len(), enc.capacity(), "{}", m.kind());
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(matches!(
            Message::decode(&[200]),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn truncated_message_rejected() {
        let enc = Message::Prepare {
            view: 1,
            seq: 2,
            digest: Digest::ZERO,
            replica: 3,
        }
        .encode();
        assert!(Message::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn batch_digest_is_order_sensitive() {
        let a = req(1, 1);
        let b = req(2, 2);
        assert_ne!(
            batch_digest(&[a.clone(), b.clone()]),
            batch_digest(&[b.clone(), a.clone()])
        );
        // The digest a batch has always had: its request digests as parts.
        assert_eq!(
            batch_digest(&[a.clone(), b.clone()]),
            Digest::of_parts(&[a.digest().as_ref(), b.digest().as_ref()])
        );
    }

    #[test]
    fn signed_message_roundtrip_and_verify() {
        let keys0 = KeyTable::new(0, b"secret".to_vec());
        let keys1 = KeyTable::new(1, b"secret".to_vec());
        let msg = Message::Prepare {
            view: 0,
            seq: 1,
            digest: Digest::of(b"batch"),
            replica: 0,
        };
        let signed = SignedMessage::create(&msg, &keys0, &[1, 2, 3]);
        let wire = signed.encode();
        assert_eq!(wire.len(), wire.capacity(), "encode buffer sized exactly");
        let decoded = SignedMessage::decode(&wire).unwrap();
        assert_eq!(decoded, signed);
        assert_eq!(decoded.verify_and_decode(&keys1).unwrap(), Some(msg));

        // Tampered body fails verification (not a codec error).
        let mut tampered = decoded.clone();
        tampered.body[0] ^= 0xFF;
        assert_eq!(tampered.verify_and_decode(&keys1).unwrap(), None);
    }

    #[test]
    fn sealed_envelope_opens_in_place() {
        let keys0 = KeyTable::new(0, b"secret".to_vec());
        let keys2 = KeyTable::new(2, b"secret".to_vec());
        let msg = Message::Request(req(9, 4));
        let wire = msg.seal(&keys0, &[1, 2, 3]);
        assert_eq!(wire.len(), wire.capacity(), "seal buffer sized exactly");
        assert_eq!(
            wire,
            SignedMessage::create(&msg, &keys0, &[1, 2, 3]).encode()
        );
        let envelope = Envelope::parse(&wire).unwrap();
        assert_eq!((envelope.sender(), envelope.macs().len()), (0, 3));
        assert_eq!(envelope.open(&keys2).unwrap(), Some(msg));
        let outsider = KeyTable::new(7, b"secret".to_vec());
        assert_eq!(envelope.open(&outsider).unwrap(), None);
    }

    #[test]
    fn state_transfer_messages_route_to_lane_zero() {
        let keys = KeyTable::new(1, b"secret".to_vec());
        for msg in [
            Message::StateRequest {
                seq: 640,
                chunk: 0,
                replica: 1,
                epoch: 0,
            },
            Message::StateChunk {
                seq: 640,
                chunk: 0,
                data: vec![1; 32],
                replica: 1,
            },
        ] {
            let wire = SignedMessage::create(&msg, &keys, &[0]).encode();
            assert_eq!(
                SignedMessage::peek_wire_seq(&wire),
                None,
                "{} must not demux onto an agreement lane",
                msg.kind()
            );
        }
    }

    #[test]
    fn request_digests_differ_by_field() {
        let base = req(1, 1);
        let mut other = base.clone();
        other.timestamp = 2;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.client = 2;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.payload = vec![9];
        assert_ne!(base.digest(), other.digest());
    }
}
