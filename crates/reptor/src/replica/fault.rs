//! Faulty replicas: how each [`ByzantineMode`] lies. Honest code builds
//! honest outputs; the seams here rewrite them where they leave the
//! replica — messages, proposals, registered regions, lease cells — at
//! the cost of one comparison each on an honest replica.

use std::borrow::Cow;

use super::*;
use crate::envelope::MAC_ENTRY_LEN;

/// Fault-injection modes for a replica (the Byzantine behaviours the
/// protocol must tolerate, up to `f` of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzantineMode {
    /// Correct behaviour.
    #[default]
    Honest,
    /// Crashed: ignores everything and sends nothing.
    Crash,
    /// As primary, never proposes (provokes view changes); otherwise
    /// behaves correctly.
    SilentPrimary,
    /// As primary, sends conflicting proposals for the same sequence
    /// number to different halves of the group.
    EquivocatingPrimary,
    /// Sends messages whose MACs do not verify (receivers must drop them).
    CorruptMacs,
    /// Serves corrupted checkpoint-store bytes to state-transferring peers
    /// (both over `StateChunk` messages and through its registered RDMA
    /// region); otherwise behaves correctly. Fetchers detect the chunks by
    /// digest mismatch against the certified manifest.
    BogusStateChunks,
    /// Answers state-transfer traffic with its *previous* checkpoint's
    /// bytes and attests stale checkpoints during catch-up; fetchers detect
    /// the manifest root mismatch and route around.
    StaleCheckpoint,
    /// After a recovery-epoch roll, keeps advertising the rkey of its
    /// *previous* epoch's (invalidated) store region, re-tagged with the
    /// current epoch so the advisory epoch field looks fresh. The lie is
    /// undetectable by digest checks — the attested root is honest — and
    /// is caught only by the responder RNIC refusing the revoked rkey
    /// (`stale_rkey_denied`); fetchers route around on the failed READ.
    StaleEpochOffer,
    /// Advertises a *revoked* read-lease rkey in its LEASE-GRANT answers:
    /// it registers its applied-state region twice, invalidates the first
    /// at once and hands clients that dead rkey. As with
    /// [`ByzantineMode::StaleEpochOffer`], only its RNIC refusing the rkey
    /// (`stale_rkey_denied`) exposes the lie; clients fall back to the
    /// message path and rotate their read quorum to correct replicas.
    StaleLeaseOffer,
    /// Publishes *forged* cells into its own validly-leased read region:
    /// every committed cell write lands with its (even) version stamp
    /// inflated by `FORGE_STAMP_BOOST` and its value bytes scribbled
    /// over — a fabricated out-of-history state behind a lease the RNIC
    /// will happily serve. No rkey fence can catch this: the region is
    /// live and the READ succeeds. The defense is the client's unanimity
    /// rule — a fabricated (stamp, value) can never gather `f + 1`
    /// honest look-alikes, so forged cells only break quorum agreement
    /// (`kv_read_divergent`), the read falls back to agreement, and the
    /// out-voted forger is demerited out of future read quorums.
    ForgedLeaseCells,
    /// As primary, never proposes (provoking its own deposition); once it
    /// learns of the new view it fires fast-path slot WRITEs with the
    /// grants of its *revoked* leadership. The followers invalidated those
    /// regions the moment they voted, so every late WRITE is denied in
    /// their RNICs (`fast_path_write_denied`) — the stale proposals never
    /// reach a slot.
    LateSlotWriter,
}

/// A forged cell's stamp inflation: large and even, so the cell decodes
/// as committed and far newer than any honest one.
const FORGE_STAMP_BOOST: u64 = 1 << 20;

/// A replica's fault: its mode and the lies it has to remember.
/// [`Replica::restart`] resets it to honest.
#[derive(Debug, Default)]
pub(super) struct Fault {
    pub(super) mode: ByzantineMode,
    /// A `StaleEpochOffer` responder's store region revoked by the last
    /// roll, which it keeps advertising.
    stale_offer: Option<StateOffer>,
    /// A `StaleLeaseOffer` replica's decoy lease, revoked at birth: the
    /// dead rkey it advertises to clients.
    stale_lease: Option<StateOffer>,
}

impl Fault {
    /// A primary in this mode never proposes. Asked rather than dropped at
    /// egress: a dropped PRE-PREPARE would still be counted and charged.
    pub(super) fn holds_proposals(&self) -> bool {
        matches!(
            self.mode,
            ByzantineMode::SilentPrimary | ByzantineMode::Crash | ByzantineMode::LateSlotWriter
        )
    }

    /// An epoch roll revoked `old`, the region behind a store's offer.
    pub(super) fn store_revoked(&mut self, old: StateOffer) {
        if self.mode == ByzantineMode::StaleEpochOffer {
            self.stale_offer = Some(old);
        }
    }
}

impl ReplicaInner {
    /// The egress seam, before sealing: what this replica sends for `msg`
    /// to `to` — `msg` itself, a faulty replica's rewrite of it, or
    /// nothing. A checkpoint vote sent to one replica is an attestation
    /// answering its catch-up request.
    pub(super) fn egress<'a>(&self, msg: &'a Message, to: &Receivers) -> Option<Cow<'a, Message>> {
        let lie = match (self.fault.mode, msg) {
            (ByzantineMode::Honest, _) => None,
            (ByzantineMode::Crash, _) => return None,
            (ByzantineMode::StaleLeaseOffer, Message::LeaseGrant { .. }) => {
                self.fault.stale_lease.map(|o| self.lease_grant(o))
            }
            (
                ByzantineMode::StaleEpochOffer,
                &Message::Checkpoint {
                    seq, state_digest, ..
                },
            ) => {
                let epoch = self.recovery_epoch;
                let stale = self.fault.stale_offer.map(|o| StateOffer { epoch, ..o });
                stale.map(|o| self.checkpoint_vote(seq, state_digest, o))
            }
            (ByzantineMode::StaleCheckpoint, Message::Checkpoint { .. })
                if matches!(to, Receivers::One(_)) =>
            {
                let (&seq, (oldest, offer)) = self.stores.first_key_value()?;
                Some(self.checkpoint_vote(seq, oldest.root(), *offer))
            }
            (
                mode @ (ByzantineMode::BogusStateChunks | ByzantineMode::StaleCheckpoint),
                &Message::StateChunk {
                    seq,
                    chunk,
                    ref data,
                    replica,
                },
            ) => {
                // A stale responder serves its oldest store's bytes under
                // the requested seq; the fetcher's root and digest checks
                // catch either lie.
                let data = match mode {
                    ByzantineMode::BogusStateChunks => corrupt_chunks(data),
                    _ => self.stores.values().next()?.0.part(chunk)?.to_vec(),
                };
                Some(Message::StateChunk {
                    seq,
                    chunk,
                    data,
                    replica,
                })
            }
            _ => None,
        };
        Some(lie.map_or(Cow::Borrowed(msg), Cow::Owned))
    }

    /// The egress seam, after sealing: a `CorruptMacs` replica's MACs do
    /// not verify.
    pub(super) fn tamper_sealed(&self, wire: &mut [u8], receivers: usize) {
        if self.fault.mode == ByzantineMode::CorruptMacs {
            corrupt_macs(wire, receivers);
        }
    }

    /// The proposal seam: an equivocating primary sends half the group
    /// `batch` and the other half the batch reversed (different order,
    /// different digest when it holds more than one request; with one, the
    /// payload is tweaked). With the fast path on, each half's version is
    /// WRITE-en into that half's slots — the RNIC permission check cannot
    /// see the equivocation (the leader legitimately holds every grant), so
    /// detection stays where PBFT puts it: conflicting prepares never reach
    /// a quorum and the view change fires. The equivocator records its own
    /// (first) version, handed back as `batch` is to an honest primary.
    pub(super) fn send_proposal(
        &mut self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<Request>,
    ) -> Vec<Request> {
        if self.fault.mode != ByzantineMode::EquivocatingPrimary {
            return self.send_pre_prepare(sim, view, seq, digest, batch, self.peers());
        }
        let mut alt = batch.clone();
        if alt.len() > 1 {
            alt.reverse();
        } else {
            alt[0].payload.push(0xEE);
        }
        let (n, me) = (self.cfg.n as u32, self.id);
        let half =
            |parity| Receivers::Listed((0..n).filter(|&r| r != me && r % 2 == parity).collect());
        let batch = self.send_pre_prepare(sim, view, seq, digest, batch, half(0));
        self.send_pre_prepare(sim, view, seq, batch_digest(&alt), alt, half(1));
        batch
    }

    /// The bytes registered behind `store`: corrupted chunks for a
    /// `BogusStateChunks` responder, the previous store's bytes (padded to
    /// the honest length, so remote reads stay in bounds) for a
    /// `StaleCheckpoint` one. Either still votes the honest root.
    pub(super) fn store_image<'a>(&'a self, store: &'a CheckpointStore) -> Cow<'a, [u8]> {
        match self.fault.mode {
            ByzantineMode::BogusStateChunks => Cow::Owned(corrupt_chunks(store.bytes())),
            ByzantineMode::StaleCheckpoint => {
                let mut stale = self
                    .stores
                    .last_key_value()
                    .map(|(_, (prev, _))| prev.bytes().to_vec())
                    .unwrap_or_else(|| corrupt_chunks(store.bytes()));
                stale.resize(store.bytes().len(), 0);
                Cow::Owned(stale)
            }
            _ => Cow::Borrowed(store.bytes()),
        }
    }

    /// Before a lease registration: a `StaleLeaseOffer` replica registers
    /// `image` once more and revokes it at once, keeping the dead offer to
    /// advertise.
    pub(super) fn register_lease_decoy(&mut self, sim: &mut Simulator, image: &[u8], epoch: u64) {
        if self.fault.mode != ByzantineMode::StaleLeaseOffer {
            return;
        }
        if let Some(mut decoy) = self.transport.register_state_region(sim, image) {
            decoy.epoch = epoch;
            self.transport.release_state_region(&decoy);
            self.fault.stale_lease = Some(decoy);
        }
    }

    /// The commit half of a lease-cell write. The forger serves (and
    /// therefore knows) the KVLEASE1 cell layout: stamp copies in the first
    /// and last 8 bytes, value bytes from offset 64. Inflating the stamps
    /// keeps the cell decoding as perfectly committed while claiming a
    /// state far in the future; the scribbled value bytes fabricate its
    /// content.
    pub(super) fn forge_cell(&mut self, commit: &mut [u8]) {
        if self.fault.mode != ByzantineMode::ForgedLeaseCells || commit.len() <= 72 {
            return;
        }
        let stamp = u64::from_le_bytes(commit[0..8].try_into().expect("8 bytes"));
        let forged = (stamp + FORGE_STAMP_BOOST).to_le_bytes();
        let end = commit.len() - 8;
        commit[0..8].copy_from_slice(&forged);
        commit[end..].copy_from_slice(&forged);
        for b in &mut commit[64..72] {
            *b ^= 0xA5;
        }
        self.counters[ReplicaCounter::LeaseCellsForged].incr();
    }

    /// A deposed [`ByzantineMode::LateSlotWriter`] fires its retained —
    /// by now revoked — slot grants the moment it learns of `new_view`.
    pub(super) fn maybe_fire_stale_slot_writes(&mut self, sim: &mut Simulator, new_view: View) {
        if self.fault.mode != ByzantineMode::LateSlotWriter || !self.cfg.fast_path {
            return;
        }
        let mut stale: Vec<(u32, SlotGrantInfo)> = self
            .slot_grants
            .iter()
            .filter(|(_, g)| g.view < new_view)
            .map(|(&p, &g)| (p, g))
            .collect();
        if stale.is_empty() {
            return;
        }
        // HashMap order is not deterministic; the simulation is.
        stale.sort_unstable_by_key(|(p, _)| *p);
        let seq = self.low_mark + 1;
        let batch = vec![Request {
            client: u32::MAX,
            timestamp: 1,
            payload: b"late".to_vec(),
        }];
        let digest = batch_digest(&batch);
        for (peer, g) in stale {
            let msg = Message::PrePrepare {
                view: g.view,
                seq,
                digest,
                batch: batch.clone(),
            };
            let slot = seq % g.slots.max(1);
            let Ok(imm) = u32::try_from(slot) else {
                continue;
            };
            self.transport.write_slot(
                sim,
                peer,
                g.rkey,
                slot * g.slot_size,
                &msg.encode(),
                imm,
                Box::new(|_, _| {}),
            );
        }
        self.slot_grants.clear();
    }
}

/// Flips the first byte of each of the `receivers` MACs that end a sealed
/// envelope: the bytes a replica with corrupted session keys sends.
fn corrupt_macs(wire: &mut [u8], receivers: usize) {
    let macs = wire.len() - receivers * MAC_ENTRY_LEN;
    for entry in wire[macs..].chunks_exact_mut(MAC_ENTRY_LEN) {
        entry[4] ^= 0xFF;
    }
}

/// Byzantine store bytes: flips one byte in every chunk-sized slice, so
/// each corrupted chunk fails its digest check at the fetcher while
/// lengths (and therefore read offsets) stay valid.
fn corrupt_chunks(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for chunk in out.chunks_mut(CHUNK_SIZE) {
        if let Some(b) = chunk.first_mut() {
            *b ^= 0xA5;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use bft_crypto::KeyTable;

    use super::corrupt_macs;
    use crate::envelope::SignedMessage;
    use crate::messages::Message;

    #[test]
    fn corrupted_macs_match_the_flipped_authenticator() {
        let keys = KeyTable::new(1, b"secret".to_vec());
        let msg = Message::CatchUpRequest {
            from_seq: 3,
            replica: 1,
        };
        let mut signed = SignedMessage::create(&msg, &keys, &[0, 2, 3]);
        for (_, mac) in &mut signed.auth.macs {
            mac[0] ^= 0xFF;
        }
        let mut wire = msg.seal(&keys, &[0, 2, 3]);
        corrupt_macs(&mut wire, 3);
        assert_eq!(wire, signed.encode());
    }
}
