//! View change.

use super::*;

impl ReplicaInner {
    pub(super) fn start_view_change(&mut self, sim: &mut Simulator, new_view: View) {
        if new_view <= self.voted_view || new_view <= self.view {
            return;
        }
        self.in_view_change = true;
        self.voted_view = new_view;
        self.stats.view_changes_sent += 1;
        self.counters[ReplicaCounter::ViewChanges].incr();
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!("{}view_change new_view={new_view}", self.metrics_prefix),
        );
        // Prepared certificates are scattered across the pipelines;
        // merge them back into one seq-ordered proof list (disjoint
        // residue classes, so sorting by seq is a perfect merge).
        let mut prepared: Vec<PreparedProof> = self
            .pipelines
            .iter()
            .flat_map(|pl| pl.log.iter())
            .filter(|(s, e)| **s > self.low_mark && e.prepared && !e.executed)
            .map(|(s, e)| PreparedProof {
                seq: *s,
                view: e.view,
                digest: e.digest.expect("prepared has digest"),
                batch: e.batch.clone().expect("prepared has batch"),
            })
            .collect();
        prepared.sort_unstable_by_key(|p| p.seq);
        let last_stable = self.low_mark;
        let checkpoint_digest = self
            .own_checkpoints
            .get(&last_stable)
            .copied()
            .unwrap_or(Digest::ZERO);
        // Revoke the (now suspect) leader's fast-path WRITE permission the
        // moment the vote is cast — strictly before any NewView quorum can
        // form — so a deposed leader's in-flight deposits are RNIC-denied.
        self.revoke_slot_region();
        // Record the own vote.
        self.vc_votes
            .entry(new_view)
            .or_default()
            .insert(self.id, (last_stable, prepared.clone()));
        self.broadcast_to_replicas(
            sim,
            Message::ViewChange {
                new_view,
                last_stable,
                checkpoint_digest,
                prepared,
                replica: self.id,
            },
        );
        // A vote may itself stem from this replica lagging behind a healthy
        // quorum; keep the recovery path active while the view change runs.
        self.request_catch_up(sim);
        self.maybe_new_view(sim, self.voted_view);
        // Escalation: if the view change does not complete, vote higher,
        // doubling the suspicion time each attempt (PBFT's exponential
        // backoff — this also keeps an isolated replica from flooding
        // itself).
        self.vc_attempts = (self.vc_attempts + 1).min(16);
        let backoff = self.escalation_delay();
        self.later(sim, backoff, |r, sim| {
            if !r.in_view_change {
                return;
            }
            // A view change needs f + 1 voters to gather
            // support. A lone laggard whose catch-up round has
            // since landed (every buffered request executed)
            // stands down instead of escalating forever.
            if !r.pending.iter().all(|req| r.executed(req)) {
                return r.start_view_change(sim, r.voted_view + 1);
            }
            r.in_view_change = false;
            r.vc_attempts = 0;
            // Standing down effectively withdraws the
            // outstanding votes: reset `voted_view` so a
            // later, genuine view change re-votes with
            // fresh prepared proofs instead of leaving a
            // stale certificate snapshot live at peers.
            r.voted_view = r.view;
            r.stats.view_changes_abandoned += 1;
            r.counters[ReplicaCounter::ViewChangesAbandoned].incr();
            r.metrics.trace(
                sim.now(),
                "reptor",
                format!("{}view_change_abandoned", r.metrics_prefix),
            );
            // Standing down keeps the current leader in charge;
            // re-arm its revoked fast-path grant with a fresh
            // region so the one-sided path resumes.
            r.grant_slot_region(sim, r.view);
        });
    }

    /// How long the current view-change attempt runs before this replica
    /// votes one view higher: the suspicion time doubled per attempt.
    pub(super) fn escalation_delay(&self) -> Nanos {
        self.suspicion_time() * (1u64 << self.vc_attempts.min(10))
    }

    pub(super) fn handle_view_change(
        &mut self,
        sim: &mut Simulator,
        new_view: View,
        last_stable: SeqNum,
        prepared: Vec<PreparedProof>,
        replica: ReplicaId,
    ) {
        if new_view <= self.view {
            return;
        }
        let votes = self.vc_votes.entry(new_view).or_default();
        votes.insert(replica, (last_stable, prepared));
        // Liveness rule: join a view change supported by f + 1 others.
        if votes.len() > self.cfg.f() && self.voted_view < new_view {
            self.start_view_change(sim, new_view);
        }
        self.maybe_new_view(sim, new_view);
    }

    fn maybe_new_view(&mut self, sim: &mut Simulator, new_view: View) {
        if self.cfg.primary(new_view) != self.id || self.view >= new_view {
            return;
        }
        let Some(votes) = self
            .vc_votes
            .get(&new_view)
            .filter(|v| v.len() >= self.cfg.commit_quorum())
        else {
            return;
        };
        // Collect, per sequence number, the prepared certificate from
        // the highest view.
        let mut best: BTreeMap<SeqNum, &PreparedProof> = BTreeMap::new();
        for (_, (_, proofs)) in votes.iter() {
            for p in proofs {
                match best.get(&p.seq) {
                    Some(b) if b.view >= p.view => {}
                    _ => {
                        best.insert(p.seq, p);
                    }
                }
            }
        }
        let max_stable = votes.values().map(|(s, _)| *s).max().unwrap_or(0);
        let max_seq = best.keys().max().copied().unwrap_or(max_stable);
        let mut pre_prepares = Vec::new();
        for seq in (max_stable + 1)..=max_seq {
            match best.get(&seq) {
                Some(p) => pre_prepares.push((seq, p.digest, p.batch.clone())),
                // Gap: propose a null batch.
                None => pre_prepares.push((seq, batch_digest(&[]), Vec::new())),
            }
        }
        self.broadcast_to_replicas(
            sim,
            Message::NewView {
                view: new_view,
                pre_prepares: pre_prepares.clone(),
                replica: self.id,
            },
        );
        self.enter_view(sim, new_view, pre_prepares, true);
    }

    pub(super) fn handle_new_view(
        &mut self,
        sim: &mut Simulator,
        view: View,
        pre_prepares: Vec<(SeqNum, Digest, Vec<Request>)>,
        replica: ReplicaId,
    ) {
        if view <= self.view || self.cfg.primary(view) != replica {
            return;
        }
        // Validate digests bind the re-proposed batches.
        for (_, digest, batch) in &pre_prepares {
            if batch_digest(batch) != *digest {
                return; // Byzantine new-view
            }
        }
        self.enter_view(sim, view, pre_prepares, false);
    }

    fn enter_view(
        &mut self,
        sim: &mut Simulator,
        view: View,
        pre_prepares: Vec<(SeqNum, Digest, Vec<Request>)>,
        as_primary: bool,
    ) {
        // A LateSlotWriter learns of the new view here and fires its
        // retained — revoked — grants before adopting the view.
        self.maybe_fire_stale_slot_writes(sim, view);
        self.view = view;
        self.in_view_change = false;
        self.vc_attempts = 0;
        self.counters[ReplicaCounter::NewViewsEntered].incr();
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!("{}enter_view view={view}", self.metrics_prefix),
        );
        self.vc_votes.retain(|&v, _| v > view);
        // A deposed leader's grants died with the old view; followers
        // invalidated those regions when they voted.
        self.slot_grants.retain(|_, g| g.view >= view);
        let me = self.id;
        let mut max_seq = self.next_seq - 1;
        let mut to_send = Vec::new();
        for (seq, digest, batch) in pre_prepares {
            max_seq = max_seq.max(seq);
            if seq <= self.executor.last_executed {
                continue;
            }
            for r in &batch {
                self.proposed.insert((r.client, r.timestamp));
            }
            let lane = self.affinity.lane_of(seq);
            let entry = self.pipelines[lane].install(
                seq,
                Instance {
                    view,
                    digest: Some(digest),
                    batch: Some(batch),
                    pre_prepared: true,
                    ..Instance::default()
                },
            );
            entry.prepares.insert(me);
            self.note_pre_prepare(sim.now(), seq);
            if !as_primary {
                to_send.push((seq, digest));
            }
        }
        self.next_seq = (max_seq + 1).max(self.executor.last_executed + 1);
        for (seq, digest) in to_send {
            self.stats.prepares_sent += 1;
            self.counters[ReplicaCounter::PreparesSent].incr();
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
        // Grant the new leader fast-path WRITE permission into a fresh
        // slot region (the old region was invalidated with the vote).
        self.grant_slot_region(sim, view);
        // Roll the read lease: the view installation may have replayed
        // batches wholesale, so revoke the old region (RNIC fence) and
        // expose a fresh image of the post-installation state.
        self.roll_read_lease(sim);
        // Pending requests at the new primary flow again.
        self.try_propose(sim);
    }
}
