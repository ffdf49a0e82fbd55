//! Primary: proposing.

use super::*;

impl ReplicaInner {
    /// True once `req`, or a later request of its client, has executed.
    pub(super) fn executed(&self, req: &Request) -> bool {
        self.has_executed(req.client, req.timestamp)
    }

    /// True once `client`'s request `timestamp`, or a later one, has
    /// executed.
    pub(super) fn has_executed(&self, client: ClientId, timestamp: u64) -> bool {
        self.client_state
            .get(&client)
            .is_some_and(|(ts, _)| *ts >= timestamp)
    }

    /// True while a buffered request is live: neither executed nor sitting
    /// in an instance already proposed.
    fn awaits_proposal(&self, req: &Request) -> bool {
        !self.executed(req) && !self.proposed.contains(&(req.client, req.timestamp))
    }

    pub(super) fn try_propose(&mut self, sim: &mut Simulator) {
        loop {
            if self.in_view_change
                || self.cfg.primary(self.view) != self.id
                || self.pending.is_empty()
                || matches!(
                    self.byzantine,
                    ByzantineMode::SilentPrimary
                        | ByzantineMode::Crash
                        | ByzantineMode::LateSlotWriter
                )
            {
                return;
            }
            let in_flight = (self.next_seq - 1).saturating_sub(self.executor.last_executed);
            let high_mark = self.low_mark + 2 * self.cfg.checkpoint_interval;
            // Self-clocked batching (Nagle's rule on agreement
            // instances): a full batch is never held; a partial one
            // is cut only while no proposal of this primary is
            // still unexecuted. Otherwise its requests stay at the
            // front of `pending` and the batch is cut when it
            // fills, when the open instance executes or when a view
            // is entered — `try_execute` and `enter_view` both end
            // here. A held request thus waits only on local
            // execution progress, which the backups' request timers
            // already police: a primary that holds forever is
            // deposed like a `SilentPrimary`.
            let batch_size = self.cfg.batch_size;
            let held = in_flight > 0
                && self
                    .pending
                    .iter()
                    .filter(|r| self.awaits_proposal(r))
                    .take(batch_size)
                    .count()
                    < batch_size;
            if in_flight >= self.cfg.window as u64 || self.next_seq > high_mark || held {
                return;
            }
            let mut batch: Vec<Request> = Vec::new();
            while batch.len() < batch_size {
                let Some(r) = self.pending.pop_front() else {
                    break;
                };
                if self.awaits_proposal(&r) {
                    batch.push(r);
                }
            }
            if batch.is_empty() {
                return;
            }
            for r in &batch {
                self.proposed.insert((r.client, r.timestamp));
            }
            if self.next_seq <= self.executor.last_executed {
                self.next_seq = self.executor.last_executed + 1;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let digest = batch_digest(&batch);
            let core = self.affinity.seq_core(seq);
            let cost = self.cfg.crypto.digest_cost(batch_bytes(&batch));
            self.charge(sim, core, cost);
            self.stats.pre_prepares_sent += 1;
            self.counters[ReplicaCounter::PrePreparesSent].incr();
            self.histos[ReplicaHisto::BatchFillPct]
                .observe((batch.len() as u64 * 100) / self.cfg.batch_size as u64);
            let view = self.view;

            if self.byzantine == ByzantineMode::EquivocatingPrimary {
                // Conflicting proposals: half the group sees the real batch,
                // the other half sees it reversed (different order, different
                // digest when len > 1; with len == 1 the payload is tweaked).
                // With the fast path on, each half's version is WRITE-en
                // into that half's slots — the RNIC permission check cannot
                // see the equivocation (the leader legitimately holds every
                // grant), so detection stays where PBFT puts it: conflicting
                // prepares never reach a quorum and the view change fires.
                let mut alt = batch.clone();
                if alt.len() > 1 {
                    alt.reverse();
                } else {
                    alt[0].payload.push(0xEE);
                }
                let alt_digest = batch_digest(&alt);
                let (n, me) = (self.cfg.n as u32, self.id);
                let half = |parity| {
                    Receivers::Listed((0..n).filter(|&r| r != me && r % 2 == parity).collect())
                };
                let even = self.propose_via_slots(sim, view, seq, digest, &batch, half(0));
                self.send_msg(
                    sim,
                    &Message::PrePrepare {
                        view,
                        seq,
                        digest,
                        batch: batch.clone(),
                    },
                    even,
                );
                let odd = self.propose_via_slots(sim, view, seq, alt_digest, &alt, half(1));
                self.send_msg(
                    sim,
                    &Message::PrePrepare {
                        view,
                        seq,
                        digest: alt_digest,
                        batch: alt,
                    },
                    odd,
                );
                // The equivocator records its own (first) version.
                self.accept_pre_prepare(sim, view, seq, digest, batch);
                continue;
            }

            // Fast path: deposit the proposal one-sided into every granted
            // follower slot; any peer without a usable grant gets the
            // message-path PRE-PREPARE instead.
            let uncovered = self.propose_via_slots(sim, view, seq, digest, &batch, self.peers());
            self.send_msg(
                sim,
                &Message::PrePrepare {
                    view,
                    seq,
                    digest,
                    batch: batch.clone(),
                },
                uncovered,
            );
            // The primary's pre-prepare stands in for its prepare.
            self.accept_pre_prepare(sim, view, seq, digest, batch);
        }
    }
}
