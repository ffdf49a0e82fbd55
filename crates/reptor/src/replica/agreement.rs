//! Agreement: pre-prepare, prepare, commit.

use super::*;

impl ReplicaInner {
    /// The agreement window `(low_mark, low_mark + 2L]`: the low watermark
    /// itself is *excluded* (it is covered by the stable checkpoint), the
    /// high watermark is *included* — matching `try_propose`, which blocks
    /// once `next_seq > low_mark + 2L`.
    pub(super) fn in_watermarks(&self, seq: SeqNum) -> bool {
        seq > self.low_mark && seq <= self.low_mark + 2 * self.cfg.checkpoint_interval
    }

    /// Marks `seq` as pre-prepared at `now`: stamps the instance, settles
    /// the request→pre-prepare latency for every request in the batch whose
    /// arrival this replica witnessed, and keeps the earliest of those
    /// arrivals for the request-timer sample taken at execution.
    pub(super) fn note_pre_prepare(&mut self, now: Nanos, seq: SeqNum) {
        let lane = self.affinity.lane_of(seq);
        let Some(entry) = self.pipelines[lane].log.get_mut(&seq) else {
            return;
        };
        entry.pre_prepared_at = Some(now);
        let mut oldest: Option<Nanos> = None;
        for r in entry.batch.iter().flatten() {
            if let Some(t0) = self.arrivals.remove(&(r.client, r.timestamp)) {
                self.histos[ReplicaHisto::RequestToPreprepare]
                    .observe(now.as_nanos().saturating_sub(t0.as_nanos()));
                oldest = Some(oldest.map_or(t0, |o| o.min(t0)));
            }
        }
        entry.arrived_at = oldest;
    }

    pub(super) fn handle_pre_prepare(
        &mut self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<Request>,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        if self.cfg.primary(view) == self.id {
            return; // primaries do not take pre-prepares
        }
        if !self.in_watermarks(seq) {
            return;
        }
        // Verify the digest binds the batch: the MACs covered only the
        // header, the digest included.
        let core = self.affinity.seq_core(seq);
        let cost = self.cfg.crypto.digest_cost(batch_bytes(&batch));
        self.charge(sim, core, cost);
        if batch_digest(&batch) != digest {
            self.stats.digest_mismatch_dropped += 1;
            return;
        }
        let me = self.id;
        let lane = self.affinity.lane_of(seq);
        if !self.pipelines[lane].accept_pre_prepare(view, seq, digest, batch, me) {
            return;
        }
        self.stats.prepares_sent += 1;
        self.counters[ReplicaCounter::PreparesSent].incr();
        self.note_pre_prepare(sim.now(), seq);
        self.broadcast_to_replicas(
            sim,
            Message::Prepare {
                view,
                seq,
                digest,
                replica: me,
            },
        );
        self.maybe_prepared(sim, seq);
    }

    /// The primary's local acceptance of its own proposal.
    pub(super) fn accept_pre_prepare(
        &mut self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<Request>,
    ) {
        let lane = self.affinity.lane_of(seq);
        self.pipelines[lane].install(
            seq,
            Instance {
                view,
                digest: Some(digest),
                batch: Some(batch),
                pre_prepared: true,
                ..Instance::default()
            },
        );
        self.note_pre_prepare(sim.now(), seq);
        self.maybe_prepared(sim, seq);
    }

    pub(super) fn handle_prepare(
        &mut self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
    ) {
        if view != self.view || self.in_view_change || !self.in_watermarks(seq) {
            return;
        }
        let lane = self.affinity.lane_of(seq);
        if !self.pipelines[lane].add_prepare(view, seq, digest, replica) {
            return; // vote for a different digest
        }
        self.maybe_prepared(sim, seq);
    }

    pub(super) fn maybe_prepared(&mut self, sim: &mut Simulator, seq: SeqNum) {
        // The primary's pre-prepare plus 2f prepares (for the primary
        // itself, 2f prepares from backups).
        let quorum = self.cfg.prepare_quorum();
        let me = self.id;
        let view = self.view;
        let lane = self.affinity.lane_of(seq);
        let now = sim.now();
        let Some((digest, since_pp)) = self.pipelines[lane].try_prepare(seq, quorum, me, now)
        else {
            return;
        };
        self.stats.commits_sent += 1;
        self.counters[ReplicaCounter::CommitsSent].incr();
        if let Some(d) = since_pp {
            self.histos[ReplicaHisto::PreprepareToPrepared].observe(d);
        }
        self.broadcast_to_replicas(
            sim,
            Message::Commit {
                view,
                seq,
                digest,
                replica: me,
            },
        );
        self.maybe_committed(sim, seq);
    }

    pub(super) fn handle_commit(
        &mut self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
    ) {
        if view != self.view || self.in_view_change || !self.in_watermarks(seq) {
            return;
        }
        let lane = self.affinity.lane_of(seq);
        if !self.pipelines[lane].add_commit(seq, digest, replica) {
            return;
        }
        self.maybe_committed(sim, seq);
    }

    fn maybe_committed(&mut self, sim: &mut Simulator, seq: SeqNum) {
        let quorum = self.cfg.commit_quorum();
        let lane = self.affinity.lane_of(seq);
        let Some(since_prep) = self.pipelines[lane].try_commit(seq, quorum, sim.now()) else {
            return;
        };
        if let Some(d) = since_prep {
            self.histos[ReplicaHisto::PreparedToCommitted].observe(d);
        }
        self.lane_committed[lane].incr();
        self.try_execute(sim);
    }
}
