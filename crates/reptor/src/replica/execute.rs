//! Execution.

use super::*;

impl ReplicaInner {
    pub(super) fn try_execute(&mut self, sim: &mut Simulator) {
        // The executor is the only cross-pipeline synchronization
        // point: it releases committed batches strictly in sequence
        // order, whatever the commit order across pipelines was.
        while let Some(exec) = self.executor.pop_ready(&mut self.pipelines) {
            let since_commit = exec
                .committed_at
                .map(|t| sim.now().as_nanos().saturating_sub(t.as_nanos()));
            if let Some(t0) = exec.arrived_at {
                self.suspicion.observe(sim.now().saturating_sub(t0));
            }
            let (seq, batch) = (exec.seq, exec.batch);
            self.stats.executed_batches += 1;
            self.counters[ReplicaCounter::BatchesExecuted].incr();
            if let Some(d) = since_commit {
                self.histos[ReplicaHisto::CommittedToExecuted].observe(d);
            }
            let mut replies = Vec::new();
            for req in &batch {
                // Deduplicate across re-proposals (view changes).
                if self.executed(req) {
                    continue;
                }
                let cost = self.service.op_cost(req);
                self.charge(sim, CoreId(0), cost);
                let result = self.service.apply(req);
                // The result itself is cached once its REPLY is sealed.
                self.client_state
                    .insert(req.client, (req.timestamp, Vec::new()));
                self.proposed.remove(&(req.client, req.timestamp));
                self.stats.executed_requests += 1;
                self.counters[ReplicaCounter::RequestsExecuted].incr();
                replies.push((req.client, req.timestamp, result));
            }
            // Only a primary pops `pending` to propose; everyone else
            // retires requests here, once executed, so the buffer (and
            // `on_request`'s scan of it) stays as short as the
            // unexecuted backlog.
            while self.pending.front().is_some_and(|r| self.executed(r)) {
                self.pending.pop_front();
            }
            for (client, ts, result) in replies {
                self.send_reply(sim, client, ts, result);
            }
            // Agreement-free reads: publish the cells this batch dirtied
            // into the leased region.
            self.publish_region_writes(sim);
            // Durability: log the executed batch before it is reflected in
            // any checkpoint, so a crash between checkpoints replays it.
            let batch = match self.durable.as_mut() {
                Some(durable) => {
                    let digest = self
                        .executor
                        .executed_log
                        .last()
                        .map_or(Digest::ZERO, |&(_, d)| d);
                    let frame = WalFrame {
                        seq,
                        digest,
                        requests: batch,
                    };
                    durable.append_batch(sim.now(), &frame);
                    frame.requests
                }
                None => batch,
            };
            Executor::put_back(&mut self.pipelines, seq, batch);
            // Checkpointing.
            if seq.is_multiple_of(self.cfg.checkpoint_interval) {
                self.make_checkpoint(sim, seq);
            }
            // New window space may allow further proposals.
            self.try_propose(sim);
        }
        // A checkpoint certified while this replica was behind
        // may now be reachable.
        self.maybe_deferred_stable(sim);
        // Every caller that moved `last_executed` without a
        // pop (state transfer, catch-up) leaves through here,
        // so a held partial batch or a full window never
        // waits for the next arrival to be re-examined.
        self.try_propose(sim);
    }

    /// Seals and sends the REPLY to `client`'s request `timestamp`, then
    /// stores `result` as that client's cached reply unless a later request
    /// of the client has executed since. The result moves into the message
    /// and back, uncopied.
    pub(super) fn send_reply(
        &mut self,
        sim: &mut Simulator,
        client: ClientId,
        timestamp: u64,
        result: Vec<u8>,
    ) {
        self.stats.replies_sent += 1;
        let reply = Message::Reply {
            view: self.view,
            client,
            timestamp,
            replica: self.id,
            result,
        };
        self.send_msg(sim, &reply, Receivers::One(client));
        let Message::Reply { result, .. } = reply else {
            unreachable!("built as a REPLY")
        };
        if let Some((ts, cached)) = self.client_state.get_mut(&client) {
            if *ts == timestamp {
                *cached = result;
            }
        }
    }
}
