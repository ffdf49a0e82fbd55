//! Inbound path: wire bytes and client requests in, the request timers.

use super::*;

impl ReplicaInner {
    pub(super) fn on_raw(&mut self, sim: &mut Simulator, lane: usize, bytes: &[u8]) {
        let Ok(envelope) = Envelope::parse(bytes) else {
            self.stats.malformed_dropped += 1;
            return;
        };
        let msg = match envelope.open(&self.keys) {
            Err(_) => {
                self.stats.malformed_dropped += 1;
                return;
            }
            // The MAC proves who produced the bytes, not whom they speak
            // for: a vote in another node's name, or a client's, is no
            // better than none.
            Ok(Some(m)) if m.spoken_by(envelope.sender(), &self.cfg) => m,
            Ok(_) => {
                self.stats.bad_mac_dropped += 1;
                return;
            }
        };
        if envelope.sender() == self.cfg.primary(self.view) {
            self.primary_heard_at = sim.now();
        }
        // Charge MAC verification to the core of the pipeline that owns
        // this message's sequence number — the transport's lane demux
        // already derived it from the wire frame (lane 0 / core 0 for
        // non-agreement messages).
        let core = self.lane_core_for(lane, &msg);
        let cost = self.cfg.crypto.verify_cost(envelope.covered().len());
        self.charge(sim, core, cost);
        self.dispatch(sim, msg);
    }

    pub(super) fn dispatch(&mut self, sim: &mut Simulator, msg: Message) {
        // Construction has no simulator handle, so the initial (view-0)
        // slot grant rides the first event this replica processes.
        self.maybe_arm_fast_path(sim);
        self.maybe_arm_read_lease(sim);
        match msg {
            Message::Request(req) => self.on_request(sim, req),
            Message::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => self.handle_pre_prepare(sim, view, seq, digest, batch),
            Message::Prepare {
                view,
                seq,
                digest,
                replica,
            } => self.handle_prepare(sim, view, seq, digest, replica),
            Message::Commit {
                view,
                seq,
                digest,
                replica,
            } => self.handle_commit(sim, view, seq, digest, replica),
            Message::Checkpoint {
                seq,
                state_digest,
                replica,
                store_rkey,
                store_len,
                store_epoch,
            } => self.handle_checkpoint(
                sim,
                seq,
                state_digest,
                replica,
                StateOffer {
                    rkey: store_rkey,
                    len: store_len,
                    epoch: store_epoch,
                },
            ),
            Message::ViewChange {
                new_view,
                last_stable,
                prepared,
                replica,
                ..
            } => self.handle_view_change(sim, new_view, last_stable, prepared, replica),
            Message::NewView {
                view,
                pre_prepares,
                replica,
            } => self.handle_new_view(sim, view, pre_prepares, replica),
            Message::CatchUpRequest { from_seq, replica } => {
                self.handle_catch_up_request(sim, from_seq, replica)
            }
            Message::CatchUpReply {
                seq,
                view,
                digest,
                batch,
                replica,
            } => self.handle_catch_up_reply(sim, seq, view, digest, batch, replica),
            Message::StateRequest {
                seq,
                chunk,
                replica,
                epoch,
            } => self.handle_state_request(sim, seq, chunk, replica, epoch),
            Message::StateChunk {
                seq,
                chunk,
                data,
                replica,
            } => self.handle_state_chunk(sim, seq, chunk, data, replica),
            Message::SlotGrant {
                view,
                replica,
                rkey,
                slot_size,
                slots,
            } => self.handle_slot_grant(view, replica, rkey, slot_size, slots),
            Message::LeaseQuery { client } => self.handle_lease_query(sim, client),
            Message::LeaseGrant { .. } => { /* replicas ignore lease grants */ }
            Message::Reply { .. } => { /* replicas ignore replies */ }
        }
    }

    /// A client request, from the wire or straight from the harness.
    pub(super) fn on_request(&mut self, sim: &mut Simulator, req: Request) {
        self.maybe_arm_fast_path(sim);
        match self.client_state.get_mut(&req.client) {
            Some((last_ts, _)) if req.timestamp < *last_ts => return, // stale
            Some((last_ts, result)) if req.timestamp == *last_ts => {
                // Duplicate of the last executed request: resend reply.
                let result = std::mem::take(result);
                let core = self.affinity.exec_core();
                self.send_reply(sim, req.client, req.timestamp, result, &[core]);
                return;
            }
            _ => {}
        }

        let key = (req.client, req.timestamp);
        // Every replica buffers the request: backups need it in case
        // they become primary after a view change.
        if !self.proposed.contains(&key)
            && !self.pending.iter().any(|r| (r.client, r.timestamp) == key)
        {
            self.pending.push_back(req);
            self.arrivals.entry(key).or_insert_with(|| sim.now());
        }
        if self.cfg.primary(self.view) == self.id {
            self.try_propose(sim);
        } else {
            // Backup: arm the view-change timer for this request.
            self.arm_request_timer(sim, key);
        }
    }

    /// True while request `key` is unexecuted in the view its timer was
    /// armed in.
    fn stalled(&self, (client, timestamp): (ClientId, u64), view_at_start: View) -> bool {
        !self.has_executed(client, timestamp) && self.view == view_at_start && !self.in_view_change
    }

    /// Arms the view-change timer of request `key`, `(client, timestamp)`:
    /// one stage if the primary stays silent while it runs, two (ask, then
    /// accuse) if it was heard. Each stage waits the suspicion time read
    /// when the stage is armed.
    fn arm_request_timer(&self, sim: &mut Simulator, key: (ClientId, u64)) {
        let view_at_start = self.view;
        let armed_at = sim.now();
        self.later(sim, self.suspicion_time(), move |r, sim| {
            if !r.stalled(key, view_at_start) {
                return;
            }
            // A primary that has sent nothing for a whole suspicion time is
            // accused at once, as in PBFT. `start_view_change` broadcasts a
            // catch-up request too, so a voter that merely lags still
            // recovers.
            if r.primary_heard_at <= armed_at {
                r.start_view_change(sim, view_at_start + 1);
                return;
            }
            // A primary still talking is asked about before it is accused:
            // the stall may be this replica lagging (its commits were lost
            // for good, e.g. MAC rejections), not a faulty primary. A
            // premature VIEW-CHANGE vote is worse than a late one — the
            // vote freezes a snapshot of prepared certificates, while a
            // catch-up round costs one more timeout.
            r.request_catch_up(sim);
            // Second stage, after the catch-up round was given a chance: if
            // the request is still unexecuted in the same view, vote.
            r.later(sim, r.suspicion_time(), move |r, sim| {
                if r.stalled(key, view_at_start) {
                    r.start_view_change(sim, view_at_start + 1);
                }
            });
        });
    }

    /// How long a request may wait here before this replica suspects the
    /// primary: [`Suspicion::time`] under the configured ceiling.
    pub(super) fn suspicion_time(&self) -> Nanos {
        self.suspicion.time(self.cfg.view_change_timeout)
    }

    /// Broadcasts a CATCH-UP-REQUEST for everything past `last_executed`.
    /// Rate-limited to one per half suspicion time: every stalled request
    /// funnels here.
    pub(super) fn request_catch_up(&mut self, sim: &mut Simulator) {
        let gap = self.suspicion_time().as_nanos() / 2;
        let now = sim.now().as_nanos();
        if self.last_catch_up_at != 0 && now < self.last_catch_up_at + gap {
            return;
        }
        self.last_catch_up_at = now;
        self.stats.catch_up_requests_sent += 1;
        self.counters[ReplicaCounter::CatchUpRequestsSent].incr();
        self.broadcast_to_replicas(
            sim,
            Message::CatchUpRequest {
                from_seq: self.executor.last_executed + 1,
                replica: self.id,
            },
        );
    }
}

/// The lower bound of the suspicion time: 8 × the RC ACK timeout
/// (`RnicModel::timeout`), so the retransmissions of a lossy link do not
/// look like a faulty primary.
pub(super) const SUSPICION_FLOOR: Nanos = Nanos::from_millis(8);

/// This replica's estimate of how long a request takes from arrival to
/// execution, smoothed as RFC 6298 smooths a round-trip time (`α = 1/8`,
/// `β = 1/4`). It sets the request timers and the view-change escalation,
/// so a backup suspects the primary after a few multiples of the latency it
/// sees rather than after a fixed timeout.
#[derive(Debug, Default)]
pub(super) struct Suspicion {
    /// Smoothed latency in nanoseconds; 0 before the first sample.
    srtt: u64,
    /// Smoothed mean deviation in nanoseconds.
    rttvar: u64,
}

impl Suspicion {
    /// Folds in one arrival→execute latency.
    pub(super) fn observe(&mut self, sample: Nanos) {
        let r = sample.as_nanos().max(1);
        if self.srtt == 0 {
            self.srtt = r;
            self.rttvar = r / 2;
        } else {
            self.rttvar = (3 * self.rttvar + self.srtt.abs_diff(r)) / 4;
            self.srtt = (7 * self.srtt + r) / 8;
        }
    }

    /// `4 × (SRTT + 4·RTTVAR)`, at least [`SUSPICION_FLOOR`] and at most
    /// `ceiling`; `ceiling` itself before the first sample.
    pub(super) fn time(&self, ceiling: Nanos) -> Nanos {
        if self.srtt == 0 {
            return ceiling;
        }
        let rto = self.srtt.saturating_add(self.rttvar.saturating_mul(4));
        Nanos::from_nanos(rto.saturating_mul(4))
            .max(SUSPICION_FLOOR)
            .min(ceiling)
    }
}
