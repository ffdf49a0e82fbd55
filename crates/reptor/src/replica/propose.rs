//! Primary: proposing.

use super::*;

/// Most request bytes one batch carries: a PRE-PREPARE must fit the
/// receive buffers of every comm stack (RUBIN's are 128 KiB), so the
/// primary stops adding requests once the next would take a batch past
/// this. A batch of one request is always allowed.
const MAX_BATCH_BYTES: usize = 64 * 1024;

/// Whether `req` may join a batch already carrying `bytes` request bytes.
fn fits(bytes: usize, req: &Request) -> bool {
    bytes == 0 || bytes + req.payload.len() <= MAX_BATCH_BYTES
}

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

    /// Whether the live requests at the front of `pending` fill a batch:
    /// `batch_size` of them, or as many as fit in [`MAX_BATCH_BYTES`] with
    /// one more waiting behind them.
    fn batch_full(&self) -> bool {
        let (mut count, mut bytes) = (0, 0);
        for r in self.pending.iter().filter(|r| self.awaits_proposal(r)) {
            if count == self.cfg.batch_size || !fits(bytes, r) {
                return true;
            }
            count += 1;
            bytes += r.payload.len();
        }
        count == self.cfg.batch_size
    }

    pub(super) fn try_propose(&mut self, sim: &mut Simulator) {
        loop {
            if self.in_view_change
                || self.cfg.primary(self.view) != self.id
                || self.pending.is_empty()
                || self.fault.holds_proposals()
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
            let held = in_flight > 0 && !self.batch_full();
            if in_flight >= self.cfg.window as u64 || self.next_seq > high_mark || held {
                return;
            }
            let mut batch: Vec<Request> = Vec::new();
            let mut bytes = 0;
            while batch.len() < batch_size {
                let Some(r) = self.pending.pop_front() else {
                    break;
                };
                if !self.awaits_proposal(&r) {
                    continue;
                }
                if !fits(bytes, &r) {
                    self.pending.push_front(r);
                    break;
                }
                bytes += r.payload.len();
                batch.push(r);
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
            let batch = self.send_proposal(sim, view, seq, digest, batch);
            // The primary's pre-prepare stands in for its prepare.
            self.accept_pre_prepare(sim, view, seq, digest, batch);
        }
    }
}
