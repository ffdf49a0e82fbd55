//! One-sided fast path: pre-prepare slots WRITE-en by the granted leader.

use super::*;

/// What a fast-path slot reserves per request of a batch: a 1 KiB payload
/// and its framing.
const SLOT_BYTES_PER_REQUEST: u64 = 1024 + 128;

impl ReplicaInner {
    /// Byte size of one fast-path pre-prepare slot: a full batch of 1 KiB
    /// requests fits (16 KiB at `batch_size` 10), never below 4 KiB. A
    /// batch whose encoded PRE-PREPARE still exceeds this falls back to
    /// the message path for that proposal (the slot region layout is
    /// static per view). Unwritten slot bytes cost nothing (DESIGN.md
    /// "Registered memory").
    fn slot_size(&self) -> u64 {
        (self.cfg.batch_size as u64 * SLOT_BYTES_PER_REQUEST)
            .next_power_of_two()
            .max(4096)
    }

    /// Lazily runs the initial (view-0) slot grant: construction has no
    /// simulator handle, so the grant rides the first event a follower
    /// processes. Idempotent; no-op unless the fast path is configured.
    pub(super) fn maybe_arm_fast_path(&mut self, sim: &mut Simulator) {
        if !self.cfg.fast_path || self.fast_path_armed {
            return;
        }
        self.fast_path_armed = true;
        self.grant_slot_region(sim, self.view);
    }

    /// Registers (if needed) this follower's pre-prepare slot region and
    /// grants its WRITE rkey to the leader of `view`. The region covers
    /// one full agreement window — `2 · checkpoint_interval` slots of
    /// [`slot_size`](Self::slot_size) bytes, indexed by `seq % slots` — so no two
    /// in-window instances ever share a slot.
    pub(super) fn grant_slot_region(&mut self, sim: &mut Simulator, view: View) {
        if !self.cfg.fast_path {
            return;
        }
        let leader = self.cfg.primary(view);
        if leader == self.id {
            return; // the leader proposes into peers, not itself
        }
        let slots = 2 * self.cfg.checkpoint_interval;
        if self.slot_region.is_none() {
            self.slot_region = self
                .transport
                .register_write_region(sim, (slots * self.slot_size()) as usize);
        }
        let Some(region) = self.slot_region else {
            return; // no one-sided write path on this transport
        };
        self.slot_granted_to = Some(view);
        self.counters[ReplicaCounter::FastPathGrantsSent].incr();
        self.send_msg(
            sim,
            &Message::SlotGrant {
                view,
                replica: self.id,
                rkey: region.rkey,
                slot_size: self.slot_size(),
                slots,
            },
            Receivers::One(leader),
        );
    }

    /// Revokes the granted leader's fast-path WRITE permission by
    /// invalidating the slot region — the MR re-registration fence. From
    /// this point any in-flight WRITE from a deposed or equivocating
    /// leader is denied in this follower's RNIC (`fast_path_write_denied`),
    /// never filtered in software. A fresh region is registered and
    /// granted when the next view installs.
    pub(super) fn revoke_slot_region(&mut self) {
        self.slot_granted_to = None;
        if let Some(region) = self.slot_region.take() {
            self.transport.release_write_region(&region);
            self.counters[ReplicaCounter::FastPathRevocations].incr();
        }
    }

    /// A follower's WRITE grant arriving at the leader it names. Grants
    /// for views this replica will lead are retained even slightly ahead
    /// of its own view installation (the follower may install first).
    pub(super) fn handle_slot_grant(
        &mut self,
        view: View,
        replica: ReplicaId,
        rkey: u32,
        slot_size: u64,
        slots: u64,
    ) {
        if !self.cfg.fast_path
            || replica == self.id
            || self.cfg.primary(view) != self.id
            || view < self.view
            || slots == 0
            || slot_size == 0
        {
            return;
        }
        self.slot_grants.insert(
            replica,
            SlotGrantInfo {
                view,
                rkey,
                slot_size,
                slots,
            },
        );
        self.counters[ReplicaCounter::FastPathGrantsReceived].incr();
    }

    /// WRITEs the pre-prepare one-sided into each granted peer slot and
    /// returns the peers still needing a message-path PRE-PREPARE: fast
    /// path off, no current-view grant, batch too large for the slot, or
    /// no one-sided write path to that peer.
    pub(super) fn propose_via_slots(
        &mut self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: &[Request],
        peers: Receivers,
    ) -> Receivers {
        if !self.cfg.fast_path {
            return peers;
        }
        let msg = Message::PrePrepare {
            view,
            seq,
            digest,
            batch: batch.to_vec(),
        };
        // The slot record is the *unsigned* encoded PRE-PREPARE: the RNIC
        // WRITE permission replaces the MAC (only the granted leader can
        // reach the region), and the digest still binds the batch.
        let bytes = msg.encode();
        let mut uncovered = Vec::new();
        let mut written = 0u64;
        for peer in (0..peers.len()).map(|i| peers.get(i)) {
            let covered = self.slot_grants.get(&peer).copied().is_some_and(|g| {
                if g.view != view || g.slots == 0 || bytes.len() as u64 > g.slot_size {
                    return false;
                }
                let slot = seq % g.slots;
                let Ok(imm) = u32::try_from(slot) else {
                    return false;
                };
                let replica = self.weak();
                let fallback = msg.clone();
                self.transport.write_slot(
                    sim,
                    peer,
                    g.rkey,
                    slot * g.slot_size,
                    &bytes,
                    imm,
                    // Not `unless_crashed`: a grant that died is dropped
                    // whatever state the replica is in by then, and
                    // `send_msg` keeps a crashed replica silent.
                    Box::new(move |sim, ok| {
                        if let Some(replica) = replica.upgrade().filter(|_| !ok) {
                            replica.enter(|r| r.fast_path_write_failed(sim, peer, fallback));
                        }
                    }),
                )
            });
            if covered {
                written += 1;
            } else {
                uncovered.push(peer);
            }
        }
        if written > 0 {
            self.stats.fast_path_writes += written;
            self.counters[ReplicaCounter::FastPathWrites].add(written);
        }
        if !uncovered.is_empty() {
            self.stats.fast_path_fallbacks += uncovered.len() as u64;
            self.counters[ReplicaCounter::FastPathFallbacks].add(uncovered.len() as u64);
        }
        Receivers::Listed(uncovered)
    }

    /// A posted slot WRITE completed with an error: the peer's RNIC denied
    /// it (a revocation race — the follower started a view change after
    /// the WRITE was posted) or the channel broke. Drop the stale grant
    /// and, if the proposal is still current, re-send it over the message
    /// path so a revocation race never loses a proposal.
    fn fast_path_write_failed(&mut self, sim: &mut Simulator, peer: u32, msg: Message) {
        self.slot_grants.remove(&peer);
        let current = match &msg {
            Message::PrePrepare { view, .. } => {
                *view == self.view && !self.in_view_change && self.cfg.primary(*view) == self.id
            }
            _ => false,
        };
        if current {
            self.stats.fast_path_fallbacks += 1;
            self.counters[ReplicaCounter::FastPathFallbacks].incr();
            self.send_msg(sim, &msg, Receivers::One(peer));
        }
    }

    /// Claims fast-path slot `seq % slots` for `seq`. The slot count
    /// equals the window size (`2L`), so two *in-window* instances never
    /// collide — but a slot may still hold a previous occupant that is
    /// below the high-water mark yet uncommitted (the window slid before
    /// it stably checkpointed). Such a slot must not be recycled until
    /// checkpoint GC retires the occupant, or a late doorbell for the old
    /// sequence number would read the new record; the depositor falls
    /// back to the message path instead. Re-claiming for the same `seq`
    /// (a leader retransmit) is idempotent.
    pub(super) fn slot_accept(&mut self, seq: SeqNum) -> bool {
        let slot = seq % (2 * self.cfg.checkpoint_interval);
        if let Some(&prev) = self.slot_seqs.get(&slot) {
            if prev != seq && prev > self.low_mark {
                return false;
            }
        }
        self.slot_seqs.insert(slot, seq);
        true
    }

    /// The doorbell handler: a one-sided WRITE landed in this replica's
    /// slot region. Pull the record out of slot `slot`, decode it as a
    /// PRE-PREPARE and funnel it into the ordinary acceptance path. There
    /// is no MAC to verify — the RNIC WRITE permission authenticated the
    /// proposer — but everything else (digest binding the batch, view,
    /// watermarks) is checked exactly as on the message path.
    pub(super) fn on_slot_doorbell(
        &mut self,
        sim: &mut Simulator,
        from: u32,
        slot: u32,
        len: usize,
    ) {
        if !self.cfg.fast_path {
            return;
        }
        let Some(region) = self.slot_region else {
            return;
        };
        let slots = 2 * self.cfg.checkpoint_interval;
        if u64::from(slot) >= slots || len as u64 > self.slot_size() {
            return;
        }
        let Some(bytes) =
            self.transport
                .read_write_region(&region, u64::from(slot) * self.slot_size(), len)
        else {
            return;
        };
        let Ok(Message::PrePrepare {
            view,
            seq,
            digest,
            batch,
        }) = Message::decode(&bytes)
        else {
            self.stats.malformed_dropped += 1;
            return;
        };
        // The depositor must be the leader the slot was granted to,
        // and the record must sit in the slot its sequence number
        // owns (a WRITE cannot relocate an instance).
        if self.cfg.primary(view) != from
            || seq % slots != u64::from(slot)
            || view != self.view
            || self.in_view_change
            || !self.in_watermarks(seq)
        {
            return;
        }
        if !self.slot_accept(seq) {
            self.counters[ReplicaCounter::FastPathSlotConflicts].incr();
            return;
        }
        self.stats.fast_path_deliveries += 1;
        self.counters[ReplicaCounter::FastPathDeliveries].incr();
        self.handle_pre_prepare(sim, view, seq, digest, batch);
    }

    /// A deposed [`ByzantineMode::LateSlotWriter`] fires its retained —
    /// and by now revoked — slot grants the moment it learns of the new
    /// view. The followers invalidated their regions when they *voted*,
    /// strictly before any NewView certificate could form, so every one
    /// of these WRITEs is denied in the target RNIC.
    pub(super) fn maybe_fire_stale_slot_writes(&mut self, sim: &mut Simulator, new_view: View) {
        if self.byzantine != ByzantineMode::LateSlotWriter || !self.cfg.fast_path {
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
