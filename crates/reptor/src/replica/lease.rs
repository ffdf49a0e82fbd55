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

/// Stamp inflation a [`ByzantineMode::ForgedLeaseCells`] replica applies
/// to every cell it publishes: large and even, so the forged cell decodes
/// as a perfectly committed state far newer than anything honest replicas
/// have applied. A max-stamp reader would swallow it; a unanimity reader
/// sees it disagree with every honest cell and falls back.
const FORGE_STAMP_BOOST: u64 = 1 << 20;

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
    /// READ MR and remembers its offer as the current read lease. A
    /// [`ByzantineMode::StaleLeaseOffer`] replica additionally registers
    /// and immediately invalidates a decoy region whose dead rkey it will
    /// advertise to clients.
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
        if self.byzantine == ByzantineMode::StaleLeaseOffer {
            if let Some(mut decoy) = self.transport.register_state_region(sim, &image) {
                decoy.epoch = epoch;
                self.transport.release_state_region(&decoy);
                self.stale_lease = Some(decoy);
            }
        }
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

    /// A client's lease query: answer with the current lease's rkey (or
    /// the revoked decoy, for a [`ByzantineMode::StaleLeaseOffer`] liar;
    /// or rkey 0 when no lease exists).
    pub(super) fn handle_lease_query(&mut self, sim: &mut Simulator, client: ClientId) {
        self.counters[ReplicaCounter::LeaseQueries].incr();
        let advertised = match (self.byzantine, self.stale_lease) {
            (ByzantineMode::StaleLeaseOffer, Some(stale)) => Some(stale),
            _ => self.read_lease,
        };
        let (rkey, len, epoch) =
            advertised
                .map(|o| (o.rkey, o.len, o.epoch))
                .unwrap_or((0, 0, self.recovery_epoch));
        if rkey != 0 {
            self.counters[ReplicaCounter::LeaseGrants].incr();
        }
        self.send_msg(
            sim,
            &Message::LeaseGrant {
                replica: self.id,
                rkey,
                len,
                epoch,
            },
            Receivers::One(client),
        );
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
            if self.byzantine == ByzantineMode::ForgedLeaseCells && commit.len() > 72 {
                // The forger serves (and therefore knows) the KVLEASE1
                // cell layout: stamp copies in the first and last 8 bytes,
                // value bytes from offset 64. Inflating the stamps keeps
                // the cell decoding as perfectly committed while claiming
                // a state far in the future; the scribbled value bytes
                // fabricate its content.
                let stamp = u64::from_le_bytes(commit[0..8].try_into().expect("8 bytes"));
                let forged = (stamp + FORGE_STAMP_BOOST).to_le_bytes();
                let end = commit.len() - 8;
                commit[0..8].copy_from_slice(&forged);
                commit[end..].copy_from_slice(&forged);
                for b in &mut commit[64..72] {
                    *b ^= 0xA5;
                }
                self.counters[ReplicaCounter::LeaseCellsForged].incr();
            }
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
