//! Catch-up (lagging-replica recovery).

use super::*;

impl ReplicaInner {
    /// A peer reports it may have missed committed instances: re-send the
    /// executed `(seq, view, digest, batch)` certificates it asks for, one
    /// bounded page at a time. Instances truncated below the stable
    /// checkpoint cannot be served per-instance — a requester that far
    /// behind is sent this replica's latest checkpoint attestation
    /// instead, steering it into state transfer.
    pub(super) fn handle_catch_up_request(
        &mut self,
        sim: &mut Simulator,
        from_seq: SeqNum,
        requester: ReplicaId,
    ) {
        /// Per-request page cap. A still-lagging replica asks again from
        /// its new horizon, so pagination bounds every reply burst without
        /// stalling convergence.
        const MAX_INSTANCES: usize = 32;
        if requester == self.id {
            return;
        }
        let me = self.id;
        // Below the stable checkpoint: that history is gone. Attest the
        // latest sealed checkpoint.
        if from_seq <= self.low_mark {
            if let Some((&s, (store, offer))) = self.stores.iter().next_back() {
                let attest = self.checkpoint_vote(s, store.root(), *offer);
                self.send_msg(sim, &attest, Receivers::One(requester));
            }
        }
        // Merge the per-pipeline logs back into one seq-ordered view of
        // the executed history (each pipeline holds a disjoint residue
        // class, so a sort by seq is a perfect merge).
        let last = self.executor.last_executed;
        let mut executed: Vec<(SeqNum, &Instance)> = if from_seq <= last {
            self.pipelines
                .iter()
                .flat_map(|pl| pl.log.range(from_seq..=last))
                .filter(|(_, e)| e.executed)
                .map(|(&s, e)| (s, e))
                .collect()
        } else {
            Vec::new()
        };
        executed.sort_unstable_by_key(|&(s, _)| s);
        let truncated = executed.len() > MAX_INSTANCES;
        let replies = executed
            .into_iter()
            .take(MAX_INSTANCES)
            .map(|(seq, entry)| Message::CatchUpReply {
                seq,
                view: entry.view,
                digest: entry.digest.expect("executed instance has digest"),
                batch: entry.batch.clone().expect("executed instance has batch"),
                replica: me,
            })
            .collect::<Vec<_>>();
        if replies.is_empty() {
            return;
        }
        self.stats.catch_up_replies_sent += replies.len() as u64;
        self.counters[ReplicaCounter::CatchUpRepliesSent].add(replies.len() as u64);
        if truncated {
            self.stats.catch_up_replies_truncated += 1;
            self.counters[ReplicaCounter::CatchUpRepliesTruncated].incr();
        }
        for msg in replies {
            self.send_msg(sim, &msg, Receivers::One(requester));
        }
    }

    /// `f + 1` matching CATCH-UP-REPLY certificates prove at least one
    /// honest replica executed `(seq, digest)`, which requires a commit
    /// quorum — the batch is final and safe to commit locally, even while
    /// a view change is in progress.
    pub(super) fn handle_catch_up_reply(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        view: View,
        digest: Digest,
        batch: Vec<Request>,
        replica: ReplicaId,
    ) {
        if seq <= self.executor.last_executed {
            return;
        }
        // The digest must bind the batch, like a pre-prepare.
        let core = self.affinity.seq_core(seq);
        let cost = self.cfg.crypto.digest_cost(batch_bytes(&batch));
        self.charge(sim, core, cost);
        let lane = self.affinity.lane_of(seq);
        if batch_digest(&batch) != digest {
            return;
        }
        if self.pipelines[lane]
            .log
            .get(&seq)
            .is_some_and(|e| e.executed || e.committed)
        {
            // Already certified through the normal path; the gap
            // may sit earlier in the log.
            return self.try_execute(sim);
        }
        let f = self.cfg.f();
        let le = self.executor.last_executed;
        self.catch_up_votes.retain(|&s, _| s > le);
        let (voters, stored) = self
            .catch_up_votes
            .entry(seq)
            .or_default()
            .entry(digest)
            .or_default();
        voters.insert(replica);
        if stored.is_none() {
            *stored = Some((view, batch));
        }
        if voters.len() <= f {
            return;
        }
        let (cview, cbatch) = stored.take().expect("stored with first vote");
        self.catch_up_votes.remove(&seq);
        let now = sim.now();
        self.pipelines[lane].install(
            seq,
            Instance {
                view: cview,
                digest: Some(digest),
                batch: Some(cbatch),
                pre_prepared: true,
                prepared: true,
                committed: true,
                committed_at: Some(now),
                ..Instance::default()
            },
        );
        self.pipelines[lane].committed += 1;
        self.lane_committed[lane].incr();
        self.stats.catch_ups_applied += 1;
        self.counters[ReplicaCounter::CatchUpsApplied].incr();
        self.metrics.trace(
            now,
            "reptor",
            format!("{}catch_up_applied seq={seq}", self.metrics_prefix),
        );
        self.try_execute(sim);
    }
}
