//! The PBFT replica, parallelized with Consensus-Oriented Parallelization
//! (COP).
//!
//! Implements Castro & Liskov's PBFT \[14\] as used by Reptor \[10\]:
//! pre-prepare/prepare/commit agreement with MAC-vector authentication,
//! batching, checkpoint-based log truncation, and view changes. Agreement
//! is partitioned into `p` independent [`crate::pipeline::Pipeline`]s —
//! pipeline `l` owns every sequence number with `seq mod p == l`, runs its
//! own pre-prepare/prepare/commit state machine, and is pinned to a
//! dedicated simulated core via [`simnet::CoreAffinity`], so whole protocol
//! instances (not functional stages) genuinely overlap in simulated time.
//! Committed batches flow into the deterministic
//! [`crate::executor::Executor`], which totally orders them by sequence
//! number before the sequential service applies them on the execution core
//! (core 0). View changes, checkpoints and catch-up span all pipelines and
//! remain coordinated here.
//!
//! The protocol is a single-threaded state machine: plain `&mut self`
//! methods of `ReplicaInner` taking the simulator. [`Replica`] is the shell
//! around it that borrows the state once per entry point and runs the
//! whole reaction inside that borrow (DESIGN.md "Replica structure").

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::{Rc, Weak};

use bft_crypto::{Digest, KeyTable};
use simnet::{
    CoreAffinity, CoreId, Counter, Counters, Histos, HostId, Nanos, Network, SimDisk, Simulator,
};

use crate::config::ReptorConfig;
use crate::durability::{DurableStore, WalFrame};
use crate::envelope::{Envelope, SealBuffers};
use crate::executor::Executor;
use crate::mesh::backoff;
use crate::messages::{
    batch_digest, ClientId, Message, PreparedProof, ReplicaId, Request, SeqNum, View,
    MANIFEST_CHUNK,
};
use crate::pipeline::{Instance, Pipeline, PipelineStats};
use crate::state::{RegionWrite, StateMachine};
use crate::state_transfer::{
    CheckpointPayload, CheckpointStore, ChunkVerdict, StateOffer, Transfer, CHUNK_SIZE,
};
use crate::transport::{SlotRegion, Transport};

mod agreement;
mod catch_up;
mod checkpoint;
mod execute;
mod fast_path;
mod fault;
mod inbound;
mod lease;
mod propose;
mod send;
mod transfer;
mod view_change;

pub use fault::ByzantineMode;
use fault::Fault;
use inbound::Suspicion;
pub use lease::LEASE_TORN_WINDOW;
use send::{Outbox, Receivers};

/// Per-replica counters used by tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Batches executed.
    pub executed_batches: u64,
    /// Individual requests executed.
    pub executed_requests: u64,
    /// PRE-PREPAREs sent (primary).
    pub pre_prepares_sent: u64,
    /// PREPAREs sent.
    pub prepares_sent: u64,
    /// COMMITs sent.
    pub commits_sent: u64,
    /// REPLYs sent to clients.
    pub replies_sent: u64,
    /// Checkpoints that became stable.
    pub stable_checkpoints: u64,
    /// VIEW-CHANGE messages sent.
    pub view_changes_sent: u64,
    /// View changes stood down after the replica caught up instead.
    pub view_changes_abandoned: u64,
    /// CATCH-UP-REQUEST broadcasts sent while suspecting a gap.
    pub catch_up_requests_sent: u64,
    /// CATCH-UP-REPLY instances re-sent to lagging peers.
    pub catch_up_replies_sent: u64,
    /// Instances committed locally from `f + 1` catch-up certificates.
    pub catch_ups_applied: u64,
    /// Catch-up requests answered with a truncated (paginated) reply set.
    pub catch_up_replies_truncated: u64,
    /// Checkpoint state transfers started.
    pub state_transfers_started: u64,
    /// Checkpoint state transfers completed and installed.
    pub state_transfers_completed: u64,
    /// Responder switches and timeout re-drives during state transfer.
    pub state_transfer_retries: u64,
    /// Messages dropped for failing MAC verification, or for speaking in
    /// the name of a node other than the one that authenticated them, or
    /// for a replica's message from a node that is not one.
    pub bad_mac_dropped: u64,
    /// Messages dropped as malformed.
    pub malformed_dropped: u64,
    /// PRE-PREPAREs dropped because their batch does not match the digest
    /// in their header, the bytes their MACs cover.
    pub digest_mismatch_dropped: u64,
    /// State requests rejected for carrying a stale recovery epoch (the
    /// message-path mirror of the RNIC rkey fence).
    pub stale_epoch_rejected: u64,
    /// Recovery-epoch rolls applied (MR rotations).
    pub epoch_rolls: u64,
    /// Fast-path slot WRITEs posted as leader.
    pub fast_path_writes: u64,
    /// Proposals (per peer) that fell back to a message-path PRE-PREPARE
    /// while the fast path was on.
    pub fast_path_fallbacks: u64,
    /// Fast-path slot deliveries accepted from the doorbell (follower).
    pub fast_path_deliveries: u64,
}

/// A follower's WRITE grant as retained by the leader it names: the rkey
/// of the follower's slot region plus the layout to index it with.
#[derive(Debug, Clone, Copy)]
struct SlotGrantInfo {
    view: View,
    rkey: u32,
    slot_size: u64,
    slots: u64,
}

simnet::metric_names! {
    /// Counters of one replica, under `reptor.r<id>.`.
    enum ReplicaCounter {
        EpochRolls => "epoch_rolls",
        MrRotations => "mr_rotations",
        Restarts => "restarts",
        LeaseRevocations => "lease_revocations",
        DurableRestores => "durable_restores",
        SnapshotCorruptFallback => "snapshot_corrupt_fallback",
        WalFramesReplayed => "wal_frames_replayed",
        CatchUpRequestsSent => "catch_up_requests_sent",
        PrePreparesSent => "pre_prepares_sent",
        FastPathGrantsSent => "fast_path_grants_sent",
        FastPathRevocations => "fast_path_revocations",
        LeaseRegistrations => "lease_registrations",
        LeaseQueries => "lease_queries",
        LeaseGrants => "lease_grants",
        LeaseCellsForged => "lease_cells_forged",
        LeaseCellBegins => "lease_cell_begins",
        LeaseCellCommits => "lease_cell_commits",
        FastPathGrantsReceived => "fast_path_grants_received",
        FastPathWrites => "fast_path_writes",
        FastPathFallbacks => "fast_path_fallbacks",
        FastPathSlotConflicts => "fast_path_slot_conflicts",
        FastPathDeliveries => "fast_path_deliveries",
        PreparesSent => "prepares_sent",
        CommitsSent => "commits_sent",
        BatchesExecuted => "batches_executed",
        RequestsExecuted => "requests_executed",
        CheckpointsStable => "checkpoints_stable",
        CheckpointGcFreed => "checkpoint_gc_freed",
        StateTransferStarted => "state_transfer_started",
        StateTransferReads => "state_transfer_reads",
        StateTransferChunks => "state_transfer_chunks",
        StateTransferBytes => "state_transfer_bytes",
        StateTransferRetries => "state_transfer_retries",
        StaleEpochRejected => "stale_epoch_rejected",
        StateTransferChunksLocal => "state_transfer_chunks_local",
        StateTransferBytesLocal => "state_transfer_bytes_local",
        StateTransferUndecodable => "state_transfer_undecodable",
        StateTransferRestoreFailed => "state_transfer_restore_failed",
        StateTransferCompleted => "state_transfer_completed",
        CatchUpRepliesSent => "catch_up_replies_sent",
        CatchUpRepliesTruncated => "catch_up_replies_truncated",
        CatchUpsApplied => "catch_ups_applied",
        ViewChanges => "view_changes",
        ViewChangesAbandoned => "view_changes_abandoned",
        NewViewsEntered => "new_views_entered",
    }
}

simnet::metric_names! {
    /// Histograms of one replica, under `reptor.r<id>.`; the `phase.*`
    /// ones are in simulated nanoseconds.
    enum ReplicaHisto {
        BatchFillPct => "batch_fill_pct",
        RequestToPreprepare => "phase.request_to_preprepare",
        PreprepareToPrepared => "phase.preprepare_to_prepared",
        PreparedToCommitted => "phase.prepared_to_committed",
        CommittedToExecuted => "phase.committed_to_executed",
    }
}

struct ReplicaInner {
    /// This replica's own cell, for [`ReplicaInner::handle`].
    me: Weak<RefCell<ReplicaInner>>,
    id: ReplicaId,
    cfg: ReptorConfig,
    keys: KeyTable,
    transport: Rc<dyn Transport>,
    net: Network,
    host: HostId,
    service: Box<dyn StateMachine>,
    /// How this replica lies, if it does (`fault.rs`).
    fault: Fault,

    view: View,
    in_view_change: bool,
    next_seq: SeqNum,
    low_mark: SeqNum,
    /// The COP agreement pipelines: pipeline `l` owns `seq mod p == l`.
    pipelines: Vec<Pipeline>,
    /// The static pipeline → core map (core 0 reserved for execution).
    affinity: CoreAffinity,
    /// The deterministic total-order execution stage.
    executor: Executor,
    pending: VecDeque<Request>,
    proposed: BTreeSet<(ClientId, u64)>,
    client_state: HashMap<ClientId, (u64, Vec<u8>)>,
    /// `seq → digest → voter → read offer`, for checkpoint certificates.
    /// The offer piggybacked on each vote tells a fetcher where that
    /// attester's store can be READ one-sided.
    checkpoint_votes: BTreeMap<SeqNum, HashMap<Digest, HashMap<ReplicaId, StateOffer>>>,
    own_checkpoints: BTreeMap<SeqNum, Digest>,
    /// Sealed checkpoint stores this replica can serve, newest last. The
    /// latest and the previous are retained (the previous keeps in-flight
    /// remote reads of the old store valid across a checkpoint).
    stores: BTreeMap<SeqNum, (CheckpointStore, StateOffer)>,
    /// In-progress fetch-side state transfer, if any.
    transfer: Option<Transfer>,
    /// Current proactive-recovery epoch. Advanced by
    /// [`Replica::roll_recovery_epoch`]; every store offer advertised and
    /// every `StateRequest` served is tagged/checked against it.
    recovery_epoch: u64,
    /// A checkpoint certified by `2f + 1` votes that this replica has not
    /// executed up to yet: stabilization is deferred until execution (or a
    /// state transfer) reaches it.
    pending_stable: Option<(SeqNum, Digest)>,
    /// `view → voter → (last_stable, prepared proofs)`.
    vc_votes: BTreeMap<View, BTreeMap<ReplicaId, (SeqNum, Vec<PreparedProof>)>>,
    /// `seq → digest → (voters, batch)` for catch-up certificates: `f + 1`
    /// matching CATCH-UP-REPLYs commit the instance locally.
    #[allow(clippy::type_complexity)]
    catch_up_votes:
        BTreeMap<SeqNum, HashMap<Digest, (HashSet<ReplicaId>, Option<(View, Vec<Request>)>)>>,
    /// Instant of the last CATCH-UP-REQUEST broadcast (rate limiting —
    /// every stalled request's timer funnels into the same recovery path).
    last_catch_up_at: u64,
    /// Highest view this replica has voted for.
    voted_view: View,
    /// Consecutive unfinished view-change attempts (exponential backoff).
    vc_attempts: u32,
    /// The measured latency the request timers are set from.
    suspicion: Suspicion,
    /// When an authenticated message from the current view's primary last
    /// arrived: a request timer accuses a primary silent for its whole
    /// first stage without asking for catch-up first.
    primary_heard_at: Nanos,
    /// Outbound serialization horizon: sends leave the replica in
    /// submission order (the comm stack's single sender queue).
    send_horizon: Nanos,
    outbox: Rc<Outbox>,
    stats: ReplicaStats,
    /// Shared registry plus this replica's `reptor.r{id}.` key prefix.
    metrics: simnet::Metrics,
    /// `reptor.r{id}.`: key prefix of everything below and of this
    /// replica's trace lines.
    metrics_prefix: String,
    counters: Counters<ReplicaCounter>,
    histos: Histos<ReplicaHisto>,
    /// `pipeline.<lane>.committed`, one per pipeline.
    lane_committed: Vec<Counter>,
    /// Request arrival instants, consumed when a request first appears in
    /// an accepted pre-prepare (feeds `phase.request_to_preprepare`).
    arrivals: BTreeMap<(ClientId, u64), Nanos>,
    /// One-sided fast path: this replica's registered pre-prepare slot
    /// region (the target of the granted leader's WRITEs), if any.
    slot_region: Option<SlotRegion>,
    /// The view whose leader currently holds the WRITE grant for
    /// `slot_region` (`None` while revoked, e.g. during a view change).
    slot_granted_to: Option<View>,
    /// Leader side: WRITE grants received from followers.
    slot_grants: HashMap<ReplicaId, SlotGrantInfo>,
    /// Slot index → occupying sequence number: the slot-reuse fence. A
    /// slot is recycled only once its occupant left the agreement window
    /// through a stable checkpoint.
    slot_seqs: HashMap<u64, SeqNum>,
    /// Whether the lazy initial (view-0) slot grant has run.
    fast_path_armed: bool,
    /// Agreement-free reads: the currently registered applied-state
    /// region lease, if any (`cfg.read_leases` plus a service exposing a
    /// region image plus a one-sided transport).
    read_lease: Option<StateOffer>,
    /// Whether the lazy initial lease registration has run.
    lease_armed: bool,
    /// Local persistence layer (WAL + snapshot slots on a simulated
    /// drive). Deliberately NOT wiped by [`Replica::restart`] — it models
    /// the durable medium the restart recovers from.
    durable: Option<DurableStore>,
    /// Consecutive rejoin probes fired since the last completed state
    /// transfer — the backoff tier. Reset on restart and on transfer
    /// completion so a second crash starts probing at the base period.
    rejoin_attempts: u32,
    /// Bumped on every restart; a probe chain armed under an older
    /// generation aborts instead of competing with the new chain.
    rejoin_generation: u64,
}

/// A PBFT replica.
#[derive(Clone)]
pub struct Replica {
    inner: Rc<RefCell<ReplicaInner>>,
}

impl fmt::Debug for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Replica")
            .field("id", &inner.id)
            .field("view", &inner.view)
            .field("last_executed", &inner.executor.last_executed)
            .field("pipelines", &inner.pipelines.len())
            .field("in_view_change", &inner.in_view_change)
            .finish()
    }
}

/// The replica as seen from a callback kept by something the replica owns:
/// its transport's delivery and doorbell hooks, a channel's pending
/// one-sided operation. Such a callback must not keep the replica alive.
struct WeakReplica(Weak<RefCell<ReplicaInner>>);

impl WeakReplica {
    fn upgrade(&self) -> Option<Replica> {
        self.0.upgrade().map(|inner| Replica { inner })
    }
}

impl Replica {
    /// Creates a replica and wires it to `transport`'s delivery callback.
    pub fn new(
        id: ReplicaId,
        cfg: ReptorConfig,
        domain_secret: &[u8],
        transport: Rc<dyn Transport>,
        net: &Network,
        host: HostId,
        service: Box<dyn StateMachine>,
    ) -> Replica {
        cfg.validate();
        // Pin each pipeline to a simulated core up front: core 0 stays the
        // execution core, lanes spread over cores 1.. and wrap when there
        // are more pipelines than agreement cores.
        let num_cores = net.host(host).borrow().num_cores();
        let affinity = CoreAffinity::new(num_cores, cfg.pillars);
        let metrics = net.metrics();
        let metrics_prefix = format!("reptor.r{id}.");
        let lane_committed = (0..cfg.pillars)
            .map(|lane| {
                metrics.counter_handle(&format!("{metrics_prefix}pipeline.{lane}.committed"))
            })
            .collect();
        let pipelines: Vec<Pipeline> = (0..cfg.pillars)
            .map(|lane| Pipeline::new(lane, affinity.lane_core(lane)))
            .collect();
        let lanes = pipelines.len();
        let durable = cfg.durability.map(|d| {
            let disk = SimDisk::new(format!("r{id}"), d.device, net.metrics());
            DurableStore::new(
                disk,
                d.wal,
                d.snapshot_every,
                net.metrics(),
                format!("reptor.r{id}."),
            )
        });
        let outbox = Rc::new(Outbox {
            replicas: (0..cfg.n as u32).collect(),
            buffers: RefCell::default(),
        });
        let replica = Replica {
            inner: Rc::new_cyclic(|me| {
                RefCell::new(ReplicaInner {
                    me: me.clone(),
                    id,
                    keys: KeyTable::new(id, domain_secret.to_vec()),
                    cfg,
                    transport: transport.clone(),
                    net: net.clone(),
                    host,
                    service,
                    fault: Fault::default(),
                    view: 0,
                    in_view_change: false,
                    next_seq: 1,
                    low_mark: 0,
                    pipelines,
                    affinity,
                    executor: Executor::new(),
                    pending: VecDeque::new(),
                    proposed: BTreeSet::new(),
                    client_state: HashMap::new(),
                    checkpoint_votes: BTreeMap::new(),
                    own_checkpoints: BTreeMap::new(),
                    stores: BTreeMap::new(),
                    transfer: None,
                    recovery_epoch: 0,
                    pending_stable: None,
                    vc_votes: BTreeMap::new(),
                    catch_up_votes: BTreeMap::new(),
                    last_catch_up_at: 0,
                    voted_view: 0,
                    vc_attempts: 0,
                    suspicion: Suspicion::default(),
                    primary_heard_at: Nanos::ZERO,
                    send_horizon: Nanos::ZERO,
                    outbox,
                    stats: ReplicaStats::default(),
                    counters: metrics.counters(&metrics_prefix),
                    histos: metrics.histos(&metrics_prefix),
                    lane_committed,
                    metrics,
                    metrics_prefix,
                    arrivals: BTreeMap::new(),
                    slot_region: None,
                    slot_granted_to: None,
                    slot_grants: HashMap::new(),
                    slot_seqs: HashMap::new(),
                    fast_path_armed: false,
                    read_lease: None,
                    lease_armed: false,
                    durable,
                    rejoin_attempts: 0,
                    rejoin_generation: 0,
                })
            }),
        };
        // Inbound demultiplexing: the transport peeks the sequence number
        // out of the wire frame and routes agreement traffic to its owning
        // pipeline (lane 0 carries everything without a sequence number).
        let r = replica.inner.borrow().weak();
        transport.set_lane_delivery(
            lanes,
            Rc::new(move |sim, lane, _from, bytes| {
                if let Some(r) = r.upgrade() {
                    r.unless_crashed(|inner| inner.on_raw(sim, lane, &bytes));
                }
            }),
        );
        // Fast-path doorbell: a one-sided WRITE that landed in this
        // replica's slot region surfaces here with the slot index as the
        // immediate (no-op on transports without one-sided writes).
        let r = replica.inner.borrow().weak();
        transport.set_slot_doorbell(Rc::new(move |sim, peer, imm, len| {
            if let Some(r) = r.upgrade() {
                r.unless_crashed(|inner| inner.on_slot_doorbell(sim, peer, imm, len));
            }
        }));
        replica
    }

    /// The one borrow of an entry point: delivery, doorbell, one-sided
    /// completion, timer or public method. Everything the protocol does in
    /// response runs inside it as `&mut self` methods of [`ReplicaInner`],
    /// which is sound because nothing called from there — transport,
    /// service, durable store — calls back into the replica before
    /// returning (see [`Transport`]).
    fn enter<R>(&self, f: impl FnOnce(&mut ReplicaInner) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// [`Replica::enter`] for the entry points a crashed replica ignores —
    /// the one place [`ByzantineMode::Crash`] makes a replica deaf.
    fn unless_crashed(&self, f: impl FnOnce(&mut ReplicaInner)) {
        self.enter(|inner| {
            if inner.fault.mode != ByzantineMode::Crash {
                f(inner);
            }
        });
    }

    /// Sets the fault-injection mode.
    pub fn set_byzantine(&self, mode: ByzantineMode) {
        self.inner.borrow_mut().fault.mode = mode;
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.inner.borrow().id
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.inner.borrow().view
    }

    /// Highest contiguously executed sequence number.
    pub fn last_executed(&self) -> SeqNum {
        self.inner.borrow().executor.last_executed
    }

    /// Per-pipeline progress counters (one entry per COP pipeline).
    pub fn pipeline_stats(&self) -> Vec<PipelineStats> {
        self.inner
            .borrow()
            .pipelines
            .iter()
            .map(Pipeline::stats)
            .collect()
    }

    /// Stable low watermark.
    pub fn low_mark(&self) -> SeqNum {
        self.inner.borrow().low_mark
    }

    /// The simulated drive backing this replica's durability layer, if
    /// configured. Chaos scenarios arm write faults on it; the handle
    /// stays valid across restarts (it models the physical medium).
    pub fn durable_disk(&self) -> Option<SimDisk> {
        self.inner
            .borrow()
            .durable
            .as_ref()
            .map(|d| d.disk().clone())
    }

    /// True if this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        let inner = self.inner.borrow();
        inner.cfg.primary(inner.view) == inner.id
    }

    /// The executed `(seq, digest)` history (safety checks).
    pub fn executed_log(&self) -> Vec<(SeqNum, Digest)> {
        self.inner.borrow().executor.executed_log.clone()
    }

    /// Counters.
    pub fn stats(&self) -> ReplicaStats {
        self.inner.borrow().stats
    }

    /// The recovery epoch this replica currently tags its store offers
    /// with (and checks inbound `StateRequest`s against).
    pub fn recovery_epoch(&self) -> u64 {
        self.inner.borrow().recovery_epoch
    }

    /// True while a checkpoint state transfer is in flight. The recovery
    /// scheduler polls this to decide when a refreshed replica has fully
    /// rejoined and the rotation can move on to the next one.
    pub fn transfer_in_progress(&self) -> bool {
        self.inner.borrow().transfer.is_some()
    }

    /// Advances this replica's recovery epoch to `epoch` (monotone: stale
    /// or duplicate rolls are ignored). Every registered checkpoint-store
    /// region is re-registered under the new epoch and the previous
    /// region released — release invalidates the backing memory region, so
    /// any rkey still circulating from the old epoch is refused by the
    /// responder-side RNIC permission check rather than by a digest
    /// comparison. Fresh votes re-attesting the retained store roots are
    /// broadcast so peers (in particular any in-flight fetcher) learn the
    /// re-registered offers.
    pub fn roll_recovery_epoch(&self, sim: &mut Simulator, epoch: u64) {
        self.enter(|inner| inner.roll_recovery_epoch(sim, epoch));
    }

    /// Runs `f` against the replica's service (state inspection in tests).
    pub fn with_service<R>(&self, f: impl FnOnce(&dyn StateMachine) -> R) -> R {
        f(self.inner.borrow().service.as_ref())
    }

    /// Injects an already-authenticated protocol message directly into the
    /// replica's dispatcher — adversarial-testing hook modelling a
    /// Byzantine peer whose MACs verify (it holds valid session keys) but
    /// whose message content is hostile. The author rule `on_raw` applies
    /// to the wire is skipped here: a message other than a client's must
    /// name a replica.
    pub fn inject_message(&self, sim: &mut Simulator, msg: Message) {
        self.unless_crashed(|inner| inner.dispatch(sim, msg));
    }

    /// Restarts the replica cold: every piece of volatile state —
    /// agreement logs, executor position, client session table, sealed
    /// checkpoint stores — is wiped, and the service is replaced with
    /// `service` (a fresh, empty instance from the same factory). The
    /// replica rejoins by broadcasting a catch-up request; peers answer
    /// the unservable request with checkpoint attestations, and `f + 1`
    /// matching ones trigger a full state transfer back to the group's
    /// latest stable checkpoint.
    pub fn restart(&self, sim: &mut Simulator, service: Box<dyn StateMachine>) {
        self.enter(|inner| inner.restart(sim, service));
    }

    /// Client request entry point (also used directly by the harness).
    pub fn on_request(&self, sim: &mut Simulator, req: Request) {
        self.unless_crashed(|inner| inner.on_request(sim, req));
    }
}

impl ReplicaInner {
    /// A strong handle to this replica, for the callbacks it hands to the
    /// simulator (which the replica does not own).
    fn handle(&self) -> Replica {
        Replica {
            inner: self.me.upgrade().expect("a method is running on it"),
        }
    }

    /// A weak handle to this replica, for the callbacks it hands to its
    /// transport.
    fn weak(&self) -> WeakReplica {
        WeakReplica(self.me.clone())
    }

    /// Runs `f` on this replica `delay` from now — as its own entry point,
    /// so unless the replica has crashed by then.
    fn later(
        &self,
        sim: &mut Simulator,
        delay: Nanos,
        f: impl FnOnce(&mut ReplicaInner, &mut Simulator) + 'static,
    ) {
        let replica = self.handle();
        sim.schedule_in(delay, move |sim| {
            replica.unless_crashed(|inner| f(inner, sim))
        });
    }
}

fn batch_bytes(batch: &[Request]) -> usize {
    batch.iter().map(|r| r.payload.len() + 16).sum::<usize>()
}

#[cfg(test)]
mod tests;
