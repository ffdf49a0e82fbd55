//! Agreement-free read leases.

use super::*;

/// Delay between staging a cell's odd (torn) version stamp and publishing
/// the full committed cell in the leased read region. Strictly below any
/// simulated one-way network latency, so by the time a client's write
/// completion (which requires `f + 1` replies to cross the network) is
/// observable, every replica that executed the write has long since
/// published the committed cell. One-sided READs racing the window see
/// the torn stamp and fall back to the message path.
pub const LEASE_TORN_WINDOW: Nanos = Nanos::from_nanos(1_000);

impl ReplicaInner {
    /// Lazily runs the initial lease registration: construction has no
    /// simulator handle, so the lease rides the first event this replica
    /// processes. Idempotent; no-op unless `cfg.read_leases` is set.
    pub(super) fn maybe_arm_read_lease(&mut self, sim: &mut Simulator) {
        if !self.cfg.read_leases || self.lease_armed {
            return;
        }
        self.lease_armed = true;
        self.register_read_lease(sim);
    }

    /// Registers the service's applied-state region image as a one-sided
    /// READ MR and remembers its offer as the current read lease.
    fn register_read_lease(&mut self, sim: &mut Simulator) {
        if !self.cfg.read_leases {
            return;
        }
        // Cell writes staged against a previous lease are already
        // folded into the fresh image; drop them.
        let _ = self.service.drain_region_writes();
        let Some(image) = self.service.read_region_image() else {
            return; // service exposes no read region
        };
        let epoch = self.recovery_epoch;
        self.register_lease_decoy(sim, &image, epoch);
        if let Some(mut offer) = self.transport.register_state_region(sim, &image) {
            offer.epoch = epoch;
            self.read_lease = Some(offer);
            self.counters[ReplicaCounter::LeaseRegistrations].incr();
        }
    }

    /// Revokes the current read lease by invalidating its MR — the same
    /// re-registration fence the checkpoint stores use. From this point
    /// every one-sided READ of the old rkey is denied in this replica's
    /// RNIC (`stale_rkey_denied`); clients fall back to the message path
    /// and re-query for a fresh lease.
    fn revoke_read_lease(&mut self) {
        if let Some(lease) = self.read_lease.take() {
            self.transport.release_state_region(&lease);
            self.counters[ReplicaCounter::LeaseRevocations].incr();
        }
    }

    /// Revocation plus fresh registration, used where the exposed state
    /// jumps wholesale: view installation, recovery-epoch rolls, state
    /// transfer. The fresh image snapshots the service after the jump, so
    /// no staged cell writes are lost.
    pub(super) fn roll_read_lease(&mut self, sim: &mut Simulator) {
        if !self.lease_armed {
            return;
        }
        self.revoke_read_lease();
        self.register_read_lease(sim);
    }

    /// A client's lease query: answer with the current lease's rkey, or
    /// rkey 0 when no lease exists.
    pub(super) fn handle_lease_query(&mut self, sim: &mut Simulator, client: ClientId) {
        self.counters[ReplicaCounter::LeaseQueries].incr();
        let lease = self.read_lease.unwrap_or(StateOffer {
            epoch: self.recovery_epoch,
            ..StateOffer::default()
        });
        if lease.readable() {
            self.counters[ReplicaCounter::LeaseGrants].incr();
        }
        self.send_msg(sim, &self.lease_grant(lease), Receivers::One(client));
    }

    /// This replica's LEASE-GRANT naming `lease`.
    pub(super) fn lease_grant(&self, lease: StateOffer) -> Message {
        Message::LeaseGrant {
            replica: self.id,
            rkey: lease.rkey,
            len: lease.len,
            epoch: lease.epoch,
        }
    }

    /// Publishes the cells the just-executed batch dirtied into the leased
    /// region, two-phase: the torn (odd) stamp lands immediately, the
    /// committed cell one [`LEASE_TORN_WINDOW`] later. The commit event is
    /// guarded on the lease being unchanged — a roll in between registers
    /// a fresh image that already contains the committed cell.
    pub(super) fn publish_region_writes(&mut self, sim: &mut Simulator) {
        if !self.cfg.read_leases {
            return;
        }
        let writes = self.service.drain_region_writes();
        let Some(lease) = self.read_lease else {
            return; // no one-sided path; the image re-registers on the next roll
        };
        for w in writes {
            let RegionWrite {
                offset,
                begin,
                mut commit,
            } = w;
            self.forge_cell(&mut commit);
            if !self.transport.write_state_region(&lease, offset, &begin) {
                return; // lease revoked mid-batch; fresh image comes with the next one
            }
            self.counters[ReplicaCounter::LeaseCellBegins].incr();
            // Deliberately not `later`: the cell was applied before any
            // crash, so its commit half lands even on a replica that
            // crashed inside the window.
            let replica = self.handle();
            let rkey = lease.rkey;
            sim.schedule_in(LEASE_TORN_WINDOW, move |_sim| {
                replica.enter(|r| {
                    let live = r.read_lease.filter(|l| l.rkey == rkey);
                    if live.is_some_and(|l| r.transport.write_state_region(&l, offset, &commit)) {
                        r.counters[ReplicaCounter::LeaseCellCommits].incr();
                    }
                });
            });
        }
    }
}
