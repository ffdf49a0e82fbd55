//! State transfer (below-checkpoint recovery and cold rejoin).

use super::*;

impl ReplicaInner {
    /// See [`Replica::restart`].
    pub(super) fn restart(&mut self, sim: &mut Simulator, service: Box<dyn StateMachine>) {
        self.fault = Fault::default();
        self.service = service;
        self.view = 0;
        self.in_view_change = false;
        self.next_seq = 1;
        self.low_mark = 0;
        self.pipelines = (0..self.cfg.pillars)
            .map(|lane| Pipeline::new(lane, self.affinity.lane_core(lane)))
            .collect();
        self.executor = Executor::new();
        self.pending.clear();
        self.proposed.clear();
        self.client_state.clear();
        self.checkpoint_votes.clear();
        self.own_checkpoints.clear();
        self.vc_votes.clear();
        self.catch_up_votes.clear();
        self.last_catch_up_at = 0;
        self.voted_view = 0;
        self.vc_attempts = 0;
        self.suspicion = Suspicion::default();
        self.primary_heard_at = Nanos::ZERO;
        self.transfer = None;
        // The recovery epoch survives a restart: it is local wall-clock
        // bookkeeping, not replicated state, and the scheduler that
        // restarted this replica expects its offers to stay
        // current-epoch-tagged.
        self.pending_stable = None;
        self.arrivals.clear();
        let released: Vec<StateOffer> = self
            .stores
            .values()
            .map(|(_, offer)| *offer)
            .filter(|o| o.readable())
            .collect();
        self.stores.clear();
        self.slot_grants.clear();
        self.slot_seqs.clear();
        self.slot_granted_to = None;
        self.fast_path_armed = false;
        let slot_region = self.slot_region.take();
        // The pre-crash read lease MUST be revoked before the WAL
        // replays below: the restarted service starts empty, and a
        // surviving rkey would let clients one-sided-READ the stale
        // pre-crash region image while recovery is still rebuilding.
        let read_lease = self.read_lease.take();
        self.lease_armed = false;
        self.rejoin_attempts = 0;
        self.rejoin_generation += 1;
        self.counters[ReplicaCounter::Restarts].incr();
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!("{}restart", self.metrics_prefix),
        );
        for offer in &released {
            self.transport.release_state_region(offer);
        }
        if let Some(region) = slot_region {
            self.transport.release_write_region(&region);
        }
        if let Some(lease) = read_lease {
            self.transport.release_state_region(&lease);
            self.counters[ReplicaCounter::LeaseRevocations].incr();
        }
        // Crash-consistent cold path: rebuild as much as the local drive
        // holds before asking peers for the rest.
        self.durable_recover(sim);
        self.request_catch_up(sim);
        self.arm_rejoin_probe(sim);
    }

    /// Replays local durable state after a cold restart: install the best
    /// snapshot slot, replay the clean WAL prefix through the executor,
    /// and re-seal a checkpoint if replay ended exactly on an interval
    /// boundary. Whatever is still missing afterwards — torn tail, lost
    /// snapshot, history past the crash point — is fetched from peers via
    /// the ordinary state-transfer path, now shrunk to a delta.
    fn durable_recover(&mut self, sim: &mut Simulator) {
        let Some(durable) = self.durable.as_mut() else {
            return;
        };
        let rec = durable.recover(sim.now());
        if let Some((seq, payload)) = rec.snapshot {
            match CheckpointPayload::decode(&payload) {
                Some(cp) if self.service.restore(&cp.service_snapshot) => {
                    self.client_state = cp
                        .clients
                        .iter()
                        .map(|(c, ts, reply)| (*c, (*ts, reply.clone())))
                        .collect();
                    self.executor.fast_forward(seq);
                    self.low_mark = seq;
                    self.next_seq = seq + 1;
                    self.counters[ReplicaCounter::DurableRestores].incr();
                }
                // A CRC-valid slot that does not decode or restore
                // means corruption below the CRC's reach; treat it
                // like a corrupt slot and lean on peers.
                _ => {
                    self.counters[ReplicaCounter::SnapshotCorruptFallback].incr();
                    // The snapshot is unusable, so the WAL (which starts past
                    // it) cannot be replayed either.
                    self.trace_recover(sim, 0);
                    return;
                }
            }
        }
        let mut replayed = 0u64;
        for frame in &rec.frames {
            if frame.seq != self.executor.last_executed + 1 {
                continue;
            }
            for req in &frame.requests {
                if self.executed(req) {
                    continue;
                }
                let cost = self.service.op_cost(req);
                self.charge(sim, CoreId(0), cost);
                let result = self.service.apply(req);
                self.client_state
                    .insert(req.client, (req.timestamp, result));
            }
            self.executor.replay_record(frame.seq, frame.digest);
            replayed += 1;
        }
        if replayed > 0 {
            self.next_seq = self.executor.last_executed + 1;
            self.counters[ReplicaCounter::WalFramesReplayed].add(replayed);
        }
        // Re-seal and attest the recovered position when it lands exactly
        // on a checkpoint boundary (a snapshot always does; WAL replay
        // only sometimes). The broadcast vote tells peers this replica is
        // provisioned — on a full-cluster restart those votes re-certify
        // the checkpoint with zero state fetched.
        let le = self.executor.last_executed;
        if le > 0 && le.is_multiple_of(self.cfg.checkpoint_interval) {
            self.make_checkpoint(sim, le);
        }
        self.trace_recover(sim, replayed);
    }

    fn trace_recover(&self, sim: &mut Simulator, replayed: u64) {
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!(
                "{}durable_recover le={} replayed={replayed}",
                self.metrics_prefix, self.executor.last_executed
            ),
        );
    }

    /// Stabilizes a deferred checkpoint once execution has reached it.
    pub(super) fn maybe_deferred_stable(&mut self, sim: &mut Simulator) {
        let ready = self
            .pending_stable
            .filter(|&(s, _)| self.executor.last_executed >= s);
        if let Some((seq, digest)) = ready {
            self.pending_stable = None;
            self.maybe_stable_checkpoint(sim, seq, digest);
        }
    }

    /// One grace period between "certified checkpoint this replica has not
    /// reached" and full state transfer: per-instance catch-up is cheaper
    /// when the gap is small, so it gets the first try. The grace is the
    /// suspicion time: a primary that must fetch a checkpoint does so
    /// before its backups accuse it, because they have heard it while
    /// their timers ran and so ask for catch-up before voting, `2T` in
    /// all. What they heard is its last PRE-PREPARE, for the instance it
    /// could not commit: the requests queued behind that instance reach
    /// the backups first and arm their timers (traced in
    /// `primary_proposes_held_batch_when_state_transfer_completes_its_instance`:
    /// armed at 60.002 ms, PRE-PREPARE at 60.010 ms, grace over at
    /// 68.043 ms, the first stage at 68.002 ms). A primary silent for a
    /// whole `T` is accused at `T`, before its grace ends.
    pub(super) fn arm_transfer_grace(&self, sim: &mut Simulator, seq: SeqNum) {
        self.later(sim, self.suspicion_time(), move |r, sim| {
            if r.transfer.is_none()
                && r.pending_stable.is_some_and(|(s, _)| s == seq)
                && r.executor.last_executed < seq
            {
                r.maybe_start_transfer(sim);
            }
        });
    }

    /// Starts a transfer towards the highest checkpoint attested by
    /// `f + 1` matching votes beyond this replica's execution horizon —
    /// enough to guarantee at least one honest replica vouches for that
    /// exact state (stabilization still demands `2f + 1`).
    fn maybe_start_transfer(&mut self, sim: &mut Simulator) {
        if self.transfer.is_some() {
            return;
        }
        let f = self.cfg.f();
        let me = self.id;
        let le = self.executor.last_executed;
        let plan = self
            .checkpoint_votes
            .iter()
            .rev()
            .filter(|&(&s, _)| s > le)
            .find_map(|(&s, by_digest)| {
                // Deterministic pick: only one digest can gather f+1
                // votes honestly, but sort anyway so a hostile vote set
                // cannot make replicas diverge on iteration order.
                let mut certified: Vec<_> = by_digest
                    .iter()
                    .filter(|(_, voters)| voters.len() > f)
                    .collect();
                certified.sort_unstable_by_key(|(d, _)| *d);
                certified.into_iter().find_map(|(&d, voters)| {
                    let mut peers: Vec<(ReplicaId, StateOffer)> = voters
                        .iter()
                        .filter(|&(&r, _)| r != me)
                        .map(|(&r, &o)| (r, o))
                        .collect();
                    peers.sort_unstable_by_key(|&(r, _)| r);
                    (!peers.is_empty()).then_some((s, d, peers))
                })
            });
        if let Some((seq, root, peers)) = plan {
            self.start_state_transfer(sim, seq, root, peers);
        }
    }

    fn start_state_transfer(
        &mut self,
        sim: &mut Simulator,
        target: SeqNum,
        root: Digest,
        peers: Vec<(ReplicaId, StateOffer)>,
    ) {
        if self.transfer.is_some() || self.executor.last_executed >= target {
            return;
        }
        let mut transfer = Transfer::new(target, root, peers, self.id);
        // Durable delta fetch: offer the locally recovered state as a
        // chunk candidate. Once the manifest arrives, every chunk it
        // digest-certifies that we already hold is satisfied without
        // touching the network.
        if self.durable.is_some() && self.executor.last_executed > 0 {
            let local = self
                .build_checkpoint_payload(self.executor.last_executed)
                .encode();
            transfer.set_local_candidate(local);
        }
        self.transfer = Some(transfer);
        self.stats.state_transfers_started += 1;
        self.counters[ReplicaCounter::StateTransferStarted].incr();
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!(
                "{}state_transfer_start target={target}",
                self.metrics_prefix
            ),
        );
        self.arm_transfer_timer(sim);
        self.drive_transfer(sim);
    }

    /// Issues the next fetch step: the manifest first (always over the
    /// message path — it is what everything else is verified against),
    /// then chunks in order: one-sided RDMA READs where the responder
    /// offered a registered region, `StateRequest` messages otherwise.
    /// One operation is outstanding at a time; the stall timer covers
    /// losses and silent responders.
    fn drive_transfer(&mut self, sim: &mut Simulator) {
        let Some(t) = &self.transfer else { return };
        let (peer, offer) = t.current_peer();
        let seq = t.target;
        let chunk = match &t.manifest {
            None => MANIFEST_CHUNK,
            Some(manifest) => {
                let Some(idx) = t.next_missing() else {
                    return self.finish_transfer(sim);
                };
                if offer.readable() {
                    let replica = self.weak();
                    let issued = self.transport.read_state(
                        sim,
                        peer,
                        offer.rkey,
                        idx as u64 * CHUNK_SIZE as u64,
                        manifest.chunk_len(idx),
                        Box::new(move |sim, data| {
                            if let Some(replica) = replica.upgrade() {
                                replica
                                    .unless_crashed(|r| r.on_state_read_done(sim, seq, idx, data));
                            }
                        }),
                    );
                    if issued {
                        self.counters[ReplicaCounter::StateTransferReads].incr();
                        return;
                    }
                    // No live one-sided path to this responder right now
                    // (channel down or re-dialing): use the message path.
                }
                idx
            }
        };
        self.send_msg(
            sim,
            &Message::StateRequest {
                seq,
                chunk,
                replica: self.id,
                epoch: offer.epoch,
            },
            Receivers::One(peer),
        );
    }

    /// Completion of a one-sided chunk READ.
    fn on_state_read_done(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        idx: u32,
        data: Option<Vec<u8>>,
    ) {
        let Some(t) = self.transfer.as_mut().filter(|t| t.target == seq) else {
            return;
        };
        let verdict = match &data {
            Some(bytes) => t.accept_chunk(idx, bytes),
            // Failed READ (stale rkey, flushed queue pair): rotate.
            None => ChunkVerdict::Mismatch,
        };
        self.note_chunk(verdict, data.map_or(0, |d| d.len()));
        self.drive_transfer(sim);
    }

    /// Books one chunk verdict of the transfer in flight: counts an
    /// accepted chunk, rotates to the next attester after a bad one.
    fn note_chunk(&mut self, verdict: ChunkVerdict, len: usize) {
        match verdict {
            ChunkVerdict::Accepted if len > 0 => {
                self.counters[ReplicaCounter::StateTransferChunks].incr();
                self.counters[ReplicaCounter::StateTransferBytes].add(len as u64);
            }
            ChunkVerdict::Mismatch => {
                if let Some(t) = self.transfer.as_mut() {
                    t.next_peer();
                }
                self.stats.state_transfer_retries += 1;
                self.counters[ReplicaCounter::StateTransferRetries].incr();
            }
            _ => {}
        }
    }

    /// Serves a manifest or chunk of a retained checkpoint store over the
    /// message path (`chunk == MANIFEST_CHUNK` selects the manifest).
    pub(super) fn handle_state_request(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        chunk: u32,
        requester: ReplicaId,
        epoch: u64,
    ) {
        if requester == self.id {
            return;
        }
        // Message-path mirror of the RNIC rkey fence: a request tagged
        // with a stale recovery epoch is refused outright. The fetcher's
        // stall timer rotates it to a peer with a fresh offer.
        if epoch != self.recovery_epoch {
            self.stats.stale_epoch_rejected += 1;
            self.counters[ReplicaCounter::StaleEpochRejected].incr();
            return;
        }
        let Some(data) = self.stores.get(&seq).and_then(|(s, _)| s.part(chunk)) else {
            return;
        };
        let data = data.to_vec();
        self.send_msg(
            sim,
            &Message::StateChunk {
                seq,
                chunk,
                data,
                replica: self.id,
            },
            Receivers::One(requester),
        );
    }

    /// A manifest or chunk arriving over the message path.
    pub(super) fn handle_state_chunk(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        chunk: u32,
        data: Vec<u8>,
        _replica: ReplicaId,
    ) {
        let Some(t) = self.transfer.as_mut().filter(|t| t.target == seq) else {
            return;
        };
        if chunk != MANIFEST_CHUNK {
            let verdict = t.accept_chunk(chunk, &data);
            self.note_chunk(verdict, data.len());
        } else if t.manifest.is_none() && !t.install_manifest(&data) {
            // Stale or forged manifest: route around.
            self.note_chunk(ChunkVerdict::Mismatch, 0);
        } else {
            let (chunks, bytes) = t.prefill_from_local();
            if chunks > 0 {
                self.counters[ReplicaCounter::StateTransferChunksLocal].add(chunks);
                self.counters[ReplicaCounter::StateTransferBytesLocal].add(bytes);
            }
        }
        self.drive_transfer(sim);
    }

    /// Installs a fully verified transfer: restores the service snapshot,
    /// rebuilds the client session table, fast-forwards the executor past
    /// the checkpoint and resumes normal operation above it.
    fn finish_transfer(&mut self, sim: &mut Simulator) {
        if !self.transfer.as_ref().is_some_and(Transfer::is_complete) {
            return;
        }
        let t = self.transfer.take().expect("checked above");
        let target = t.target;
        let bytes = t.assemble().expect("complete transfer assembles");
        let Some(payload) = CheckpointPayload::decode(&bytes) else {
            // Digest-verified bytes that do not decode mean the
            // certifying quorum itself was faulty (> f faults); there
            // is no correct state to install.
            self.counters[ReplicaCounter::StateTransferUndecodable].incr();
            return;
        };
        if !self.service.restore(&payload.service_snapshot) {
            self.counters[ReplicaCounter::StateTransferRestoreFailed].incr();
            return;
        }
        self.client_state = payload
            .clients
            .iter()
            .map(|(c, ts, reply)| (*c, (*ts, reply.clone())))
            .collect();
        self.executor.fast_forward(target);
        self.low_mark = target;
        if self.next_seq <= target {
            self.next_seq = target + 1;
        }
        for pl in &mut self.pipelines {
            pl.truncate_through(target);
        }
        self.checkpoint_votes.retain(|&s, _| s > target);
        self.catch_up_votes.retain(|&s, _| s > target);
        self.own_checkpoints.retain(|&s, _| s >= target);
        self.slot_seqs.retain(|&_, s| *s > target);
        if self.pending_stable.is_some_and(|(s, _)| s <= target) {
            self.pending_stable = None;
        }
        self.stats.state_transfers_completed += 1;
        self.counters[ReplicaCounter::StateTransferCompleted].incr();
        // The replica is provisioned again: the next crash's rejoin
        // probes must start back at the base backoff period.
        self.rejoin_attempts = 0;
        // Persist the installed checkpoint: a later cold restart
        // resumes from here instead of re-fetching everything.
        if let Some(d) = self.durable.as_mut() {
            d.write_snapshot(sim.now(), target, &bytes);
        }
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!("{}state_transfer_done target={target}", self.metrics_prefix),
        );
        // The service state just jumped wholesale; any outstanding read
        // lease exposes a pre-transfer image and must roll.
        self.roll_read_lease(sim);
        // Seal and attest the installed state as this replica's own
        // checkpoint (other laggards may fetch from it in turn), then
        // resume per-instance catch-up for everything past it.
        self.make_checkpoint(sim, target);
        self.last_catch_up_at = 0;
        self.request_catch_up(sim);
        self.try_execute(sim);
    }

    /// Stall detection: while a transfer is active, check every timeout
    /// period that it made progress; if not, rotate to the next attester
    /// and re-drive (covers lost messages, failed READs and silent or
    /// Byzantine responders).
    fn arm_transfer_timer(&self, sim: &mut Simulator) {
        let Some(t) = &self.transfer else { return };
        let mark = t.progress();
        self.later(sim, self.cfg.view_change_timeout, move |r, sim| {
            let Some(t) = r.transfer.as_mut() else {
                return;
            };
            if t.progress() == mark {
                t.next_peer();
                r.stats.state_transfer_retries += 1;
                r.counters[ReplicaCounter::StateTransferRetries].incr();
                r.drive_transfer(sim);
            }
            r.arm_transfer_timer(sim);
        });
    }

    /// Periodic rejoin probe after a cold restart: keep requesting
    /// catch-up (whose unservable answers carry checkpoint attestations)
    /// and checking for an `f + 1`-attested checkpoint to transfer
    /// towards, until the replica has rejoined or the probe budget runs
    /// out (a lone replica in an idle group has nothing to rejoin to).
    ///
    /// The probe period follows the transport's reconnect [`backoff`], so a
    /// restarted replica and its re-dialing links converge on the same
    /// cadence: early probes converge fast when peers are live, late ones
    /// stop flooding an idle or partitioned group.
    fn arm_rejoin_probe(&self, sim: &mut Simulator) {
        const MAX_PROBES: u32 = 32;
        if self.rejoin_attempts >= MAX_PROBES {
            return;
        }
        let generation = self.rejoin_generation;
        let le_at_arm = self.executor.last_executed;
        let timeout = backoff(self.cfg.view_change_timeout, self.rejoin_attempts);
        self.later(sim, timeout, move |r, sim| {
            // A later restart started its own probe chain; this
            // one is stale — die rather than compound the backoff.
            if r.rejoin_generation != generation {
                return;
            }
            // Rejoined: the replica advanced past where it stood
            // when this probe was armed (by transfer or by live
            // execution) with no transfer in flight. A durable
            // recovery restarts *at* `le_at_arm`, so local replay
            // alone never satisfies this — the replica keeps
            // probing until peers confirm it is current or the
            // budget runs out.
            if r.executor.last_executed > le_at_arm && r.transfer.is_none() {
                return;
            }
            r.rejoin_attempts += 1;
            r.request_catch_up(sim);
            r.maybe_start_transfer(sim);
            r.arm_rejoin_probe(sim);
        });
    }
}
