//! Checkpoints and recovery-epoch rolls.

use super::*;

impl ReplicaInner {
    /// Serializes the executed state at checkpoint `seq`: service snapshot
    /// plus the client session table, sorted by client id so every honest
    /// replica produces the identical byte string (and thus root digest).
    pub(super) fn build_checkpoint_payload(&self, seq: SeqNum) -> CheckpointPayload {
        let mut clients: Vec<(ClientId, u64, Vec<u8>)> = self
            .client_state
            .iter()
            .map(|(&c, (ts, reply))| (c, *ts, reply.clone()))
            .collect();
        clients.sort_unstable_by_key(|entry| entry.0);
        CheckpointPayload {
            seq,
            service_snapshot: self.service.snapshot(),
            clients,
        }
    }

    /// This replica's CHECKPOINT vote for its store at `seq` with root
    /// `root`, readable through `offer`.
    pub(super) fn checkpoint_vote(&self, seq: SeqNum, root: Digest, offer: StateOffer) -> Message {
        Message::Checkpoint {
            seq,
            state_digest: root,
            replica: self.id,
            store_rkey: offer.rkey,
            store_len: offer.len,
            store_epoch: offer.epoch,
        }
    }

    /// Seals the executed state at checkpoint `seq` into a
    /// [`CheckpointStore`], registers it for one-sided reads (where the
    /// transport supports it), votes for its root and broadcasts the vote
    /// with the read offer piggybacked.
    pub(super) fn make_checkpoint(&mut self, sim: &mut Simulator, seq: SeqNum) {
        let payload = self.build_checkpoint_payload(seq).encode();
        let cost = self.cfg.crypto.digest_cost(payload.len().max(64));
        self.charge(sim, CoreId(0), cost);
        let store = CheckpointStore::build(seq, payload);
        let root = store.root();
        self.own_checkpoints.insert(seq, root);
        let mut offer = self
            .transport
            .register_state_region(sim, &self.store_image(&store))
            .unwrap_or_default();
        // Tag the freshly registered region with the current recovery
        // epoch; fetchers echo the tag and responders reject mismatches.
        offer.epoch = self.recovery_epoch;
        self.stores.insert(seq, (store, offer));
        self.checkpoint_votes
            .entry(seq)
            .or_default()
            .entry(root)
            .or_default()
            .insert(self.id, offer);
        // Retain the latest two stores; release everything older so the
        // registered regions do not accumulate.
        while self.stores.len() > 2 {
            let (_, (_, old_offer)) = self.stores.pop_first().expect("len > 2");
            if old_offer.readable() {
                self.transport.release_state_region(&old_offer);
            }
        }
        let (vote, peers) = (self.checkpoint_vote(seq, root, offer), self.peers());
        self.send_msg_on(sim, &vote, peers, &self.executed_cores(seq));
        self.maybe_stable_checkpoint(sim, seq, root);
    }

    pub(super) fn handle_checkpoint(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
        offer: StateOffer,
    ) {
        if seq <= self.low_mark {
            return;
        }
        self.checkpoint_votes
            .entry(seq)
            .or_default()
            .entry(digest)
            .or_default()
            .insert(replica, offer);
        // A re-broadcast vote after an epoch roll carries the
        // responder's *fresh* offer; refresh it into any in-flight
        // transfer for the same certificate so the fetcher does not
        // keep probing an rkey the roll just revoked.
        if let Some(t) = self.transfer.as_mut() {
            if t.target == seq && t.root == digest {
                if let Some(p) = t.peers.iter_mut().find(|(id, _)| *id == replica) {
                    p.1 = offer;
                }
            }
        }
        self.maybe_stable_checkpoint(sim, seq, digest);
    }

    pub(super) fn maybe_stable_checkpoint(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        digest: Digest,
    ) {
        if seq <= self.low_mark {
            return;
        }
        let quorum = self.cfg.commit_quorum();
        let votes = self
            .checkpoint_votes
            .get(&seq)
            .and_then(|m| m.get(&digest))
            .map_or(0, HashMap::len);
        if votes < quorum {
            return;
        }
        if self.executor.last_executed < seq {
            // Certified, but this replica has not executed up to it: defer
            // stabilization and give ordinary catch-up one grace period
            // before falling back to full state transfer.
            let arm = self.pending_stable.is_none_or(|(s, _)| s < seq);
            if arm {
                self.pending_stable = Some((seq, digest));
                self.arm_transfer_grace(sim, seq);
            }
            return;
        }
        // Stable: advance the low watermark and truncate every pipeline.
        self.low_mark = seq;
        if self.pending_stable.is_some_and(|(s, _)| s <= seq) {
            self.pending_stable = None;
        }
        self.stats.stable_checkpoints += 1;
        let freed: u64 = self
            .pipelines
            .iter_mut()
            .map(|pl| pl.truncate_through(seq))
            .sum();
        self.checkpoint_votes.retain(|&s, _| s > seq);
        self.catch_up_votes.retain(|&s, _| s > seq);
        self.own_checkpoints.retain(|&s, _| s >= seq);
        // Fast-path slots whose occupants fell below the new low watermark
        // are stably checkpointed and may be recycled; occupants still in
        // the window keep their slot reserved (see `slot_accept`).
        self.slot_seqs.retain(|_, s| *s > seq);
        // Executed requests can no longer feed phase latencies; drop their
        // arrival stamps so the map stays bounded by the window.
        let client_state = &self.client_state;
        self.arrivals
            .retain(|(c, ts), _| client_state.get(c).is_none_or(|(t, _)| *t < *ts));
        self.counters[ReplicaCounter::CheckpointsStable].incr();
        self.counters[ReplicaCounter::CheckpointGcFreed].add(freed);
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!(
                "{}checkpoint_stable seq={seq} freed={freed}",
                self.metrics_prefix
            ),
        );
        // Durability: every `snapshot_every`-th stable checkpoint is
        // persisted from its sealed store (the payload as it was at `seq`,
        // not the service's current — possibly later — state) and the WAL
        // compacts down to frames past it.
        if let Some(durable) = self.durable.as_mut() {
            if durable.record_stable() {
                if let Some((store, _)) = self.stores.get(&seq) {
                    durable.write_snapshot(sim.now(), seq, store.bytes());
                }
            }
        }
    }

    /// See [`Replica::roll_recovery_epoch`].
    pub(super) fn roll_recovery_epoch(&mut self, sim: &mut Simulator, epoch: u64) {
        if epoch <= self.recovery_epoch {
            return;
        }
        self.recovery_epoch = epoch;
        self.stats.epoch_rolls += 1;
        self.counters[ReplicaCounter::EpochRolls].incr();
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!("{}recovery_epoch_roll epoch={epoch}", self.metrics_prefix),
        );
        if self.fault.mode == ByzantineMode::Crash {
            return;
        }
        // Every store's advertised offer is re-stamped with the new
        // epoch; RDMA-readable stores additionally move to a fresh
        // memory region so the old rkey is revoked at the NIC. Stacks
        // without one-sided READs (no registered region) still roll
        // the epoch so stale `StateRequest`s die at the responder.
        let mut rolled = Vec::new();
        let seqs: Vec<SeqNum> = self.stores.keys().copied().collect();
        for seq in seqs {
            let (store, old) = &self.stores[&seq];
            let (root, old) = (store.root(), *old);
            let minted = old
                .readable()
                .then(|| self.transport.register_state_region(sim, store.bytes()))
                .flatten();
            let mut offer = minted.unwrap_or(old);
            offer.epoch = epoch;
            self.stores.get_mut(&seq).expect("listed above").1 = offer;
            if let Some(votes) = self
                .checkpoint_votes
                .get_mut(&seq)
                .and_then(|m| m.get_mut(&root))
            {
                votes.insert(self.id, offer);
            }
            let vote = self.checkpoint_vote(seq, root, offer);
            rolled.push(((offer.rkey != old.rkey).then_some(old), vote));
        }
        let released: Vec<StateOffer> = rolled.iter().filter_map(|(old, _)| *old).collect();
        if !released.is_empty() {
            self.counters[ReplicaCounter::MrRotations].add(released.len() as u64);
        }
        for old in &released {
            self.transport.release_state_region(old);
        }
        for (released, vote) in rolled {
            if let Some(old) = released {
                self.fault.store_revoked(old);
            }
            self.broadcast_to_replicas(sim, vote);
        }
        // The read lease joins the roll: its region moves to a fresh rkey
        // under the new epoch, so clients holding the pre-roll lease are
        // RNIC-denied and re-query.
        self.roll_read_lease(sim);
    }
}
