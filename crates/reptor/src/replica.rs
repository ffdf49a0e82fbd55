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
use crate::executor::Executor;
use crate::mesh::backoff;
use crate::messages::{
    batch_digest, ClientId, Message, PreparedProof, ReplicaId, Request, SeqNum, SignedMessage,
    View, MANIFEST_CHUNK,
};
use crate::pipeline::{Instance, Pipeline, PipelineStats};
use crate::state::{RegionWrite, StateMachine};
use crate::state_transfer::{
    CheckpointPayload, CheckpointStore, ChunkVerdict, StateOffer, Transfer, CHUNK_SIZE,
};
use crate::transport::{SlotRegion, Transport};

/// Fault-injection modes for a replica (the Byzantine behaviours the
/// protocol must tolerate, up to `f` of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzantineMode {
    /// Correct behaviour.
    #[default]
    Honest,
    /// Crashed: ignores everything and sends nothing.
    Crash,
    /// As primary, never proposes (provokes view changes); otherwise
    /// behaves correctly.
    SilentPrimary,
    /// As primary, sends conflicting proposals for the same sequence
    /// number to different halves of the group.
    EquivocatingPrimary,
    /// Sends messages whose MACs do not verify (receivers must drop them).
    CorruptMacs,
    /// Serves corrupted checkpoint-store bytes to state-transferring peers
    /// (both over `StateChunk` messages and through its registered RDMA
    /// region); otherwise behaves correctly. Fetchers detect the chunks by
    /// digest mismatch against the certified manifest.
    BogusStateChunks,
    /// Answers state-transfer traffic with its *previous* checkpoint's
    /// bytes and attests stale checkpoints during catch-up; fetchers detect
    /// the manifest root mismatch and route around.
    StaleCheckpoint,
    /// After a recovery-epoch roll, keeps advertising the rkey of its
    /// *previous* epoch's (invalidated) store region, re-tagged with the
    /// current epoch so the advisory epoch field looks fresh. The lie is
    /// undetectable by digest checks — the attested root is honest — and
    /// is caught only by the responder RNIC refusing the revoked rkey
    /// (`stale_rkey_denied`); fetchers route around on the failed READ.
    StaleEpochOffer,
    /// Advertises a *revoked* read-lease rkey in its LEASE-GRANT answers:
    /// the replica registers its applied-state region, immediately
    /// invalidates it, registers a fresh one for its own use, and hands
    /// clients the dead rkey. As with [`ByzantineMode::StaleEpochOffer`]
    /// the lie is undetectable from the grant itself — only
    /// the replica's RNIC refusing the revoked rkey exposes it
    /// (`stale_rkey_denied`); clients fall back to the message path and
    /// rotate their read quorum to correct replicas.
    StaleLeaseOffer,
    /// Publishes *forged* cells into its own validly-leased read region:
    /// every committed cell write lands with its (even) version stamp
    /// inflated by `FORGE_STAMP_BOOST` and its value bytes scribbled
    /// over — a fabricated out-of-history state behind a lease the RNIC
    /// will happily serve. No rkey fence can catch this: the region is
    /// live and the READ succeeds. The defense is the client's unanimity
    /// rule — a fabricated (stamp, value) can never gather `f + 1`
    /// honest look-alikes, so forged cells only break quorum agreement
    /// (`kv_read_divergent`), the read falls back to agreement, and the
    /// out-voted forger is demerited out of future read quorums.
    ForgedLeaseCells,
    /// As primary, never proposes (provoking its own deposition); once it
    /// learns of the new view it fires fast-path slot WRITEs with the
    /// grants of its *revoked* leadership. The followers invalidated those
    /// regions the moment they voted, so every late WRITE is denied in
    /// their RNICs (`fast_path_write_denied`) — the stale proposals never
    /// reach a slot.
    LateSlotWriter,
}

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
    /// the name of a node other than the one that authenticated them.
    pub bad_mac_dropped: u64,
    /// Messages dropped as malformed.
    pub malformed_dropped: u64,
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
    byzantine: ByzantineMode,

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
    /// A `StaleEpochOffer` responder's recorded previous-epoch offer (the
    /// rkey/len of the region invalidated at the last roll).
    stale_offer: Option<StateOffer>,
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
    /// Outbound serialization horizon: sends leave the replica in
    /// submission order (the comm stack's single sender queue).
    send_horizon: Nanos,
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
    /// A `StaleLeaseOffer` replica's recorded revoked lease — the dead
    /// rkey it advertises to clients instead of `read_lease`.
    stale_lease: Option<StateOffer>,
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
                    byzantine: ByzantineMode::Honest,
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
                    stale_offer: None,
                    pending_stable: None,
                    vc_votes: BTreeMap::new(),
                    catch_up_votes: BTreeMap::new(),
                    last_catch_up_at: 0,
                    voted_view: 0,
                    vc_attempts: 0,
                    send_horizon: Nanos::ZERO,
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
                    stale_lease: None,
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
        let r = replica.clone();
        transport.set_lane_delivery(
            lanes,
            Rc::new(move |sim, lane, _from, bytes| {
                r.unless_crashed(|inner| inner.on_raw(sim, lane, &bytes));
            }),
        );
        // Fast-path doorbell: a one-sided WRITE that landed in this
        // replica's slot region surfaces here with the slot index as the
        // immediate (no-op on transports without one-sided writes).
        let r = replica.clone();
        transport.set_slot_doorbell(Rc::new(move |sim, peer, imm, len| {
            r.unless_crashed(|inner| inner.on_slot_doorbell(sim, peer, imm, len));
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
            if inner.byzantine != ByzantineMode::Crash {
                f(inner);
            }
        });
    }

    /// Sets the fault-injection mode.
    pub fn set_byzantine(&self, mode: ByzantineMode) {
        self.inner.borrow_mut().byzantine = mode;
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

    /// Whether `seq` falls inside the agreement window (test hook).
    #[cfg(test)]
    pub(crate) fn in_watermarks(&self, seq: SeqNum) -> bool {
        self.inner.borrow().in_watermarks(seq)
    }

    /// Claims the fast-path slot for `seq` (test hook for the slot
    /// reuse/GC rules — see [`ReplicaInner::slot_accept`]).
    #[cfg(test)]
    pub(crate) fn slot_accept_for_test(&self, seq: SeqNum) -> bool {
        self.inner.borrow_mut().slot_accept(seq)
    }

    /// Simulates checkpoint GC at stable sequence `seq`: advances the low
    /// watermark and retires fast-path slot occupants at or below it.
    #[cfg(test)]
    pub(crate) fn gc_slots_for_test(&self, seq: SeqNum) {
        let mut inner = self.inner.borrow_mut();
        inner.low_mark = seq;
        inner.slot_seqs.retain(|_, s| *s > seq);
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
    /// whose message content is hostile.
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
    /// simulator and the transport.
    fn handle(&self) -> Replica {
        Replica {
            inner: self.me.upgrade().expect("a method is running on it"),
        }
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
        sim.schedule_in(
            delay,
            Box::new(move |sim| replica.unless_crashed(|inner| f(inner, sim))),
        );
    }
}

// ------------------------------------------------------------------
// Inbound path
// ------------------------------------------------------------------

impl ReplicaInner {
    pub(super) fn on_raw(&mut self, sim: &mut Simulator, lane: usize, bytes: &[u8]) {
        let signed = match SignedMessage::decode(bytes) {
            Ok(s) => s,
            Err(_) => {
                self.stats.malformed_dropped += 1;
                return;
            }
        };
        let msg = match signed.verify_and_decode(&self.keys) {
            Err(_) => {
                self.stats.malformed_dropped += 1;
                return;
            }
            // The MAC proves who produced the bytes, not whom they speak
            // for: a vote in another node's name is no better than none.
            Ok(Some(m)) if m.author(|v| self.cfg.primary(v)) == signed.auth.sender => m,
            Ok(_) => {
                self.stats.bad_mac_dropped += 1;
                return;
            }
        };
        // Charge MAC verification to the core of the pipeline that owns
        // this message's sequence number — the transport's lane demux
        // already derived it from the wire frame (lane 0 / core 0 for
        // non-agreement messages).
        let core = self.lane_core_for(lane, &msg);
        let cost = self.cfg.crypto.verify_cost(signed.body.len());
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
        match self.client_state.get(&req.client) {
            Some((last_ts, _)) if req.timestamp < *last_ts => return, // stale
            Some((last_ts, result)) if req.timestamp == *last_ts => {
                // Duplicate of the last executed request: resend reply.
                let (ts, result) = (*last_ts, result.clone());
                self.send_reply(sim, req.client, ts, result);
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
            self.pending.push_back(req.clone());
            self.arrivals.entry(key).or_insert_with(|| sim.now());
        }
        if self.cfg.primary(self.view) == self.id {
            self.try_propose(sim);
        } else {
            // Backup: arm the view-change timer for this request.
            self.arm_request_timer(sim, req);
        }
    }

    /// True while `req` is unexecuted in the view its timer was armed in.
    fn stalled(&self, req: &Request, view_at_start: View) -> bool {
        !self.executed(req) && self.view == view_at_start && !self.in_view_change
    }

    fn arm_request_timer(&self, sim: &mut Simulator, req: Request) {
        let view_at_start = self.view;
        self.later(sim, self.cfg.view_change_timeout, move |r, sim| {
            if r.stalled(&req, view_at_start) {
                // Ask before accusing: the stall may be this replica
                // lagging (its commits were lost for good, e.g. MAC
                // rejections), not a faulty primary. A premature
                // VIEW-CHANGE vote is worse than a late one — the vote
                // freezes a snapshot of prepared certificates, while a
                // catch-up round costs one more timeout.
                r.request_catch_up(sim);
                // Second stage, after the catch-up round was given a
                // chance: if the request is still unexecuted in the same
                // view, vote.
                r.later(sim, r.cfg.view_change_timeout, move |r, sim| {
                    if r.stalled(&req, view_at_start) {
                        r.start_view_change(sim, view_at_start + 1);
                    }
                });
            }
        });
    }

    /// Broadcasts a CATCH-UP-REQUEST for everything past `last_executed`.
    /// Rate-limited: every stalled request funnels here.
    pub(super) fn request_catch_up(&mut self, sim: &mut Simulator) {
        let gap = self.cfg.view_change_timeout.as_nanos() / 2;
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

// ------------------------------------------------------------------
// Primary: proposing
// ------------------------------------------------------------------

impl ReplicaInner {
    /// True once `req`, or a later request of its client, has executed.
    pub(super) fn executed(&self, req: &Request) -> bool {
        self.client_state
            .get(&req.client)
            .is_some_and(|(ts, _)| *ts >= req.timestamp)
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
            let (n, me) = (self.cfg.n as u32, self.id);

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
                let half: Vec<u32> = (0..n).filter(|&r| r != me && r % 2 == 0).collect();
                let other: Vec<u32> = (0..n).filter(|&r| r != me && r % 2 == 1).collect();
                let half = self.propose_via_slots(sim, view, seq, digest, &batch, &half);
                self.send_msg(
                    sim,
                    Message::PrePrepare {
                        view,
                        seq,
                        digest,
                        batch: batch.clone(),
                    },
                    &half,
                );
                let other = self.propose_via_slots(sim, view, seq, alt_digest, &alt, &other);
                self.send_msg(
                    sim,
                    Message::PrePrepare {
                        view,
                        seq,
                        digest: alt_digest,
                        batch: alt,
                    },
                    &other,
                );
                // The equivocator records its own (first) version.
                self.accept_pre_prepare(sim, view, seq, digest, batch);
                continue;
            }

            let peers: Vec<u32> = (0..n).filter(|&r| r != me).collect();
            // Fast path: deposit the proposal one-sided into every granted
            // follower slot; any peer without a usable grant gets the
            // message-path PRE-PREPARE instead.
            let uncovered = self.propose_via_slots(sim, view, seq, digest, &batch, &peers);
            self.send_msg(
                sim,
                Message::PrePrepare {
                    view,
                    seq,
                    digest,
                    batch: batch.clone(),
                },
                &uncovered,
            );
            // The primary's pre-prepare stands in for its prepare.
            self.accept_pre_prepare(sim, view, seq, digest, batch);
        }
    }
}

// ------------------------------------------------------------------
// One-sided fast path
// ------------------------------------------------------------------

/// Fixed byte size of one fast-path pre-prepare slot. A batch whose
/// encoded PRE-PREPARE exceeds this falls back to the message path for
/// that proposal (the slot region layout is static per view).
const FAST_PATH_SLOT_SIZE: u64 = 4096;

impl ReplicaInner {
    /// Lazily runs the initial (view-0) slot grant: construction has no
    /// simulator handle, so the grant rides the first event a follower
    /// processes. Idempotent; no-op unless the fast path is configured.
    pub(super) fn maybe_arm_fast_path(&mut self, sim: &mut Simulator) {
        if !self.cfg.fast_path || self.fast_path_armed {
            return;
        }
        self.fast_path_armed = true;
        self.grant_slot_region(sim, self.view);
    }

    /// Registers (if needed) this follower's pre-prepare slot region and
    /// grants its WRITE rkey to the leader of `view`. The region covers
    /// one full agreement window — `2 · checkpoint_interval` slots of
    /// [`FAST_PATH_SLOT_SIZE`] bytes, indexed by `seq % slots` — so no two
    /// in-window instances ever share a slot.
    pub(super) fn grant_slot_region(&mut self, sim: &mut Simulator, view: View) {
        if !self.cfg.fast_path {
            return;
        }
        let leader = self.cfg.primary(view);
        if leader == self.id {
            return; // the leader proposes into peers, not itself
        }
        let slots = 2 * self.cfg.checkpoint_interval;
        if self.slot_region.is_none() {
            self.slot_region = self
                .transport
                .register_write_region(sim, (slots * FAST_PATH_SLOT_SIZE) as usize);
        }
        let Some(region) = self.slot_region else {
            return; // no one-sided write path on this transport
        };
        self.slot_granted_to = Some(view);
        self.counters[ReplicaCounter::FastPathGrantsSent].incr();
        self.send_msg(
            sim,
            Message::SlotGrant {
                view,
                replica: self.id,
                rkey: region.rkey,
                slot_size: FAST_PATH_SLOT_SIZE,
                slots,
            },
            &[leader],
        );
    }

    /// Revokes the granted leader's fast-path WRITE permission by
    /// invalidating the slot region — the MR re-registration fence. From
    /// this point any in-flight WRITE from a deposed or equivocating
    /// leader is denied in this follower's RNIC (`fast_path_write_denied`),
    /// never filtered in software. A fresh region is registered and
    /// granted when the next view installs.
    pub(super) fn revoke_slot_region(&mut self) {
        self.slot_granted_to = None;
        if let Some(region) = self.slot_region.take() {
            self.transport.release_write_region(&region);
            self.counters[ReplicaCounter::FastPathRevocations].incr();
        }
    }

    /// A follower's WRITE grant arriving at the leader it names. Grants
    /// for views this replica will lead are retained even slightly ahead
    /// of its own view installation (the follower may install first).
    pub(super) fn handle_slot_grant(
        &mut self,
        view: View,
        replica: ReplicaId,
        rkey: u32,
        slot_size: u64,
        slots: u64,
    ) {
        if !self.cfg.fast_path
            || replica >= self.cfg.n as u32
            || replica == self.id
            || self.cfg.primary(view) != self.id
            || view < self.view
            || slots == 0
            || slot_size == 0
        {
            return;
        }
        self.slot_grants.insert(
            replica,
            SlotGrantInfo {
                view,
                rkey,
                slot_size,
                slots,
            },
        );
        self.counters[ReplicaCounter::FastPathGrantsReceived].incr();
    }

    /// WRITEs the pre-prepare one-sided into each granted peer slot and
    /// returns the peers still needing a message-path PRE-PREPARE: fast
    /// path off, no current-view grant, batch too large for the slot, or
    /// no one-sided write path to that peer.
    pub(super) fn propose_via_slots(
        &mut self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: &[Request],
        peers: &[u32],
    ) -> Vec<u32> {
        if !self.cfg.fast_path {
            return peers.to_vec();
        }
        let msg = Message::PrePrepare {
            view,
            seq,
            digest,
            batch: batch.to_vec(),
        };
        // The slot record is the *unsigned* encoded PRE-PREPARE: the RNIC
        // WRITE permission replaces the MAC (only the granted leader can
        // reach the region), and the digest still binds the batch.
        let bytes = msg.encode();
        let mut uncovered = Vec::new();
        let mut written = 0u64;
        for &peer in peers {
            let covered = self.slot_grants.get(&peer).copied().is_some_and(|g| {
                if g.view != view || g.slots == 0 || bytes.len() as u64 > g.slot_size {
                    return false;
                }
                let slot = seq % g.slots;
                let Ok(imm) = u32::try_from(slot) else {
                    return false;
                };
                let replica = self.handle();
                let fallback = msg.clone();
                self.transport.write_slot(
                    sim,
                    peer,
                    g.rkey,
                    slot * g.slot_size,
                    &bytes,
                    imm,
                    // Not `unless_crashed`: a grant that died is dropped
                    // whatever state the replica is in by then, and
                    // `send_msg` keeps a crashed replica silent.
                    Box::new(move |sim, ok| {
                        if !ok {
                            replica.enter(|r| r.fast_path_write_failed(sim, peer, fallback));
                        }
                    }),
                )
            });
            if covered {
                written += 1;
            } else {
                uncovered.push(peer);
            }
        }
        if written > 0 {
            self.stats.fast_path_writes += written;
            self.counters[ReplicaCounter::FastPathWrites].add(written);
        }
        if !uncovered.is_empty() {
            self.stats.fast_path_fallbacks += uncovered.len() as u64;
            self.counters[ReplicaCounter::FastPathFallbacks].add(uncovered.len() as u64);
        }
        uncovered
    }

    /// A posted slot WRITE completed with an error: the peer's RNIC denied
    /// it (a revocation race — the follower started a view change after
    /// the WRITE was posted) or the channel broke. Drop the stale grant
    /// and, if the proposal is still current, re-send it over the message
    /// path so a revocation race never loses a proposal.
    fn fast_path_write_failed(&mut self, sim: &mut Simulator, peer: u32, msg: Message) {
        self.slot_grants.remove(&peer);
        let current = match &msg {
            Message::PrePrepare { view, .. } => {
                *view == self.view && !self.in_view_change && self.cfg.primary(*view) == self.id
            }
            _ => false,
        };
        if current {
            self.stats.fast_path_fallbacks += 1;
            self.counters[ReplicaCounter::FastPathFallbacks].incr();
            self.send_msg(sim, msg, &[peer]);
        }
    }

    /// Claims fast-path slot `seq % slots` for `seq`. The slot count
    /// equals the window size (`2L`), so two *in-window* instances never
    /// collide — but a slot may still hold a previous occupant that is
    /// below the high-water mark yet uncommitted (the window slid before
    /// it stably checkpointed). Such a slot must not be recycled until
    /// checkpoint GC retires the occupant, or a late doorbell for the old
    /// sequence number would read the new record; the depositor falls
    /// back to the message path instead. Re-claiming for the same `seq`
    /// (a leader retransmit) is idempotent.
    pub(super) fn slot_accept(&mut self, seq: SeqNum) -> bool {
        let slot = seq % (2 * self.cfg.checkpoint_interval);
        if let Some(&prev) = self.slot_seqs.get(&slot) {
            if prev != seq && prev > self.low_mark {
                return false;
            }
        }
        self.slot_seqs.insert(slot, seq);
        true
    }

    /// The doorbell handler: a one-sided WRITE landed in this replica's
    /// slot region. Pull the record out of slot `slot`, decode it as a
    /// PRE-PREPARE and funnel it into the ordinary acceptance path. There
    /// is no MAC to verify — the RNIC WRITE permission authenticated the
    /// proposer — but everything else (digest binding the batch, view,
    /// watermarks) is checked exactly as on the message path.
    pub(super) fn on_slot_doorbell(
        &mut self,
        sim: &mut Simulator,
        from: u32,
        slot: u32,
        len: usize,
    ) {
        if !self.cfg.fast_path {
            return;
        }
        let Some(region) = self.slot_region else {
            return;
        };
        let slots = 2 * self.cfg.checkpoint_interval;
        if u64::from(slot) >= slots || len as u64 > FAST_PATH_SLOT_SIZE {
            return;
        }
        let Some(bytes) =
            self.transport
                .read_write_region(&region, u64::from(slot) * FAST_PATH_SLOT_SIZE, len)
        else {
            return;
        };
        let Ok(Message::PrePrepare {
            view,
            seq,
            digest,
            batch,
        }) = Message::decode(&bytes)
        else {
            self.stats.malformed_dropped += 1;
            return;
        };
        // The depositor must be the leader the slot was granted to,
        // and the record must sit in the slot its sequence number
        // owns (a WRITE cannot relocate an instance).
        if self.cfg.primary(view) != from
            || seq % slots != u64::from(slot)
            || view != self.view
            || self.in_view_change
            || !self.in_watermarks(seq)
        {
            return;
        }
        if !self.slot_accept(seq) {
            self.counters[ReplicaCounter::FastPathSlotConflicts].incr();
            return;
        }
        self.stats.fast_path_deliveries += 1;
        self.counters[ReplicaCounter::FastPathDeliveries].incr();
        self.handle_pre_prepare(sim, view, seq, digest, batch);
    }

    /// A deposed [`ByzantineMode::LateSlotWriter`] fires its retained —
    /// and by now revoked — slot grants the moment it learns of the new
    /// view. The followers invalidated their regions when they *voted*,
    /// strictly before any NewView certificate could form, so every one
    /// of these WRITEs is denied in the target RNIC.
    pub(super) fn maybe_fire_stale_slot_writes(&mut self, sim: &mut Simulator, new_view: View) {
        if self.byzantine != ByzantineMode::LateSlotWriter || !self.cfg.fast_path {
            return;
        }
        let mut stale: Vec<(u32, SlotGrantInfo)> = self
            .slot_grants
            .iter()
            .filter(|(_, g)| g.view < new_view)
            .map(|(&p, &g)| (p, g))
            .collect();
        if stale.is_empty() {
            return;
        }
        // HashMap order is not deterministic; the simulation is.
        stale.sort_unstable_by_key(|(p, _)| *p);
        let seq = self.low_mark + 1;
        let batch = vec![Request {
            client: u32::MAX,
            timestamp: 1,
            payload: b"late".to_vec(),
        }];
        let digest = batch_digest(&batch);
        for (peer, g) in stale {
            let msg = Message::PrePrepare {
                view: g.view,
                seq,
                digest,
                batch: batch.clone(),
            };
            let slot = seq % g.slots.max(1);
            let Ok(imm) = u32::try_from(slot) else {
                continue;
            };
            self.transport.write_slot(
                sim,
                peer,
                g.rkey,
                slot * g.slot_size,
                &msg.encode(),
                imm,
                Box::new(|_, _| {}),
            );
        }
        self.slot_grants.clear();
    }
}

// ------------------------------------------------------------------
// Agreement-free read leases
// ------------------------------------------------------------------

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
            Message::LeaseGrant {
                replica: self.id,
                rkey,
                len,
                epoch,
            },
            &[client],
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
            sim.schedule_in(
                LEASE_TORN_WINDOW,
                Box::new(move |_sim| {
                    replica.enter(|r| {
                        let live = r.read_lease.filter(|l| l.rkey == rkey);
                        if live.is_some_and(|l| r.transport.write_state_region(&l, offset, &commit))
                        {
                            r.counters[ReplicaCounter::LeaseCellCommits].incr();
                        }
                    });
                }),
            );
        }
    }
}

// ------------------------------------------------------------------
// Agreement
// ------------------------------------------------------------------

impl ReplicaInner {
    /// The agreement window `(low_mark, low_mark + 2L]`: the low watermark
    /// itself is *excluded* (it is covered by the stable checkpoint), the
    /// high watermark is *included* — matching `try_propose`, which blocks
    /// once `next_seq > low_mark + 2L`.
    pub(super) fn in_watermarks(&self, seq: SeqNum) -> bool {
        seq > self.low_mark && seq <= self.low_mark + 2 * self.cfg.checkpoint_interval
    }

    /// Marks `seq` as pre-prepared at `now`: stamps the instance and
    /// settles the request→pre-prepare latency for every request in the
    /// batch whose arrival this replica witnessed.
    pub(super) fn note_pre_prepare(&mut self, now: Nanos, seq: SeqNum) {
        let lane = self.affinity.lane_of(seq);
        let keys: Vec<(ClientId, u64)> = {
            let Some(entry) = self.pipelines[lane].log.get_mut(&seq) else {
                return;
            };
            entry.pre_prepared_at = Some(now);
            entry
                .batch
                .as_ref()
                .map(|b| b.iter().map(|r| (r.client, r.timestamp)).collect())
                .unwrap_or_default()
        };
        for key in keys {
            if let Some(t0) = self.arrivals.remove(&key) {
                self.histos[ReplicaHisto::RequestToPreprepare]
                    .observe(now.as_nanos().saturating_sub(t0.as_nanos()));
            }
        }
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
        // Verify the digest binds the batch.
        let core = self.affinity.seq_core(seq);
        let cost = self.cfg.crypto.digest_cost(batch_bytes(&batch));
        self.charge(sim, core, cost);
        if batch_digest(&batch) != digest {
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

// ------------------------------------------------------------------
// Execution
// ------------------------------------------------------------------

impl ReplicaInner {
    pub(super) fn try_execute(&mut self, sim: &mut Simulator) {
        // The executor is the only cross-pipeline synchronization
        // point: it releases committed batches strictly in sequence
        // order, whatever the commit order across pipelines was.
        while let Some(exec) = self.executor.pop_ready(&mut self.pipelines) {
            let since_commit = exec
                .committed_at
                .map(|t| sim.now().as_nanos().saturating_sub(t.as_nanos()));
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
                self.client_state
                    .insert(req.client, (req.timestamp, result.clone()));
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
            if let Some(durable) = self.durable.as_mut() {
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
            }
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

    pub(super) fn send_reply(
        &mut self,
        sim: &mut Simulator,
        client: ClientId,
        timestamp: u64,
        result: Vec<u8>,
    ) {
        self.stats.replies_sent += 1;
        self.send_msg(
            sim,
            Message::Reply {
                view: self.view,
                client,
                timestamp,
                replica: self.id,
                result,
            },
            &[client],
        );
    }
}

// ------------------------------------------------------------------
// Checkpoints
// ------------------------------------------------------------------

impl ReplicaInner {
    /// Serializes the executed state at checkpoint `seq`: service snapshot
    /// plus the client session table, sorted by client id so every honest
    /// replica produces the identical byte string (and thus root digest).
    pub(super) fn build_checkpoint_payload(&self, seq: SeqNum) -> CheckpointPayload {
        let mut clients: Vec<(ClientId, u64, Vec<u8>)> = self
            .client_state
            .iter()
            .map(|(&c, (ts, reply))| (c, *ts, reply.clone()))
            .collect();
        clients.sort_unstable_by_key(|entry| entry.0);
        CheckpointPayload {
            seq,
            service_snapshot: self.service.snapshot(),
            clients,
        }
    }

    /// The store offer this replica actually advertises in checkpoint
    /// attestations. Honest replicas advertise the real (current-epoch)
    /// offer; a [`ByzantineMode::StaleEpochOffer`] replica substitutes the
    /// rkey of its previous, invalidated region re-tagged with the current
    /// epoch — the advisory epoch field is attacker-controlled, so every
    /// message-path check passes and only the responder RNIC refusing the
    /// revoked rkey exposes the lie.
    pub(super) fn advertised_offer(&self, real: StateOffer) -> StateOffer {
        match (self.byzantine, self.stale_offer) {
            (ByzantineMode::StaleEpochOffer, Some(stale)) => StateOffer {
                rkey: stale.rkey,
                len: stale.len,
                epoch: self.recovery_epoch,
            },
            _ => real,
        }
    }

    /// Seals the executed state at checkpoint `seq` into a
    /// [`CheckpointStore`], registers it for one-sided reads (where the
    /// transport supports it), votes for its root and broadcasts the vote
    /// with the read offer piggybacked.
    pub(super) fn make_checkpoint(&mut self, sim: &mut Simulator, seq: SeqNum) {
        let payload = self.build_checkpoint_payload(seq).encode();
        let cost = self.cfg.crypto.digest_cost(payload.len().max(64));
        self.charge(sim, CoreId(0), cost);
        let store = CheckpointStore::build(seq, payload);
        let root = store.root();
        self.own_checkpoints.insert(seq, root);
        // What actually backs the read offer depends on honesty: a
        // Byzantine responder registers corrupted or stale bytes while
        // still voting the honest root.
        let forged: Option<Vec<u8>> = match self.byzantine {
            ByzantineMode::BogusStateChunks => Some(corrupt_chunks(store.bytes())),
            ByzantineMode::StaleCheckpoint => {
                let mut stale = self
                    .stores
                    .last_key_value()
                    .map(|(_, (prev, _))| prev.bytes().to_vec())
                    .unwrap_or_else(|| corrupt_chunks(store.bytes()));
                // Pad to the honest length so remote reads stay within
                // the region (the *content* is what's wrong).
                stale.resize(store.bytes().len(), 0);
                Some(stale)
            }
            _ => None,
        };
        let mut offer = self
            .transport
            .register_state_region(sim, forged.as_deref().unwrap_or(store.bytes()))
            .unwrap_or_default();
        // Tag the freshly registered region with the current recovery
        // epoch; fetchers echo the tag and responders reject mismatches.
        offer.epoch = self.recovery_epoch;
        self.stores.insert(seq, (store, offer));
        let me = self.id;
        let advertised = self.advertised_offer(offer);
        self.checkpoint_votes
            .entry(seq)
            .or_default()
            .entry(root)
            .or_default()
            .insert(me, advertised);
        // Retain the latest two stores; release everything older so the
        // registered regions do not accumulate.
        while self.stores.len() > 2 {
            let (_, (_, old_offer)) = self.stores.pop_first().expect("len > 2");
            if old_offer.readable() {
                self.transport.release_state_region(&old_offer);
            }
        }
        self.broadcast_to_replicas(
            sim,
            Message::Checkpoint {
                seq,
                state_digest: root,
                replica: me,
                store_rkey: advertised.rkey,
                store_len: advertised.len,
                store_epoch: advertised.epoch,
            },
        );
        self.maybe_stable_checkpoint(sim, seq, root);
    }

    pub(super) fn handle_checkpoint(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
        offer: StateOffer,
    ) {
        if seq <= self.low_mark || replica >= self.cfg.n as u32 {
            return;
        }
        self.checkpoint_votes
            .entry(seq)
            .or_default()
            .entry(digest)
            .or_default()
            .insert(replica, offer);
        // A re-broadcast vote after an epoch roll carries the
        // responder's *fresh* offer; refresh it into any in-flight
        // transfer for the same certificate so the fetcher does not
        // keep probing an rkey the roll just revoked.
        if let Some(t) = self.transfer.as_mut() {
            if t.target == seq && t.root == digest {
                if let Some(p) = t.peers.iter_mut().find(|(id, _)| *id == replica) {
                    p.1 = offer;
                }
            }
        }
        self.maybe_stable_checkpoint(sim, seq, digest);
    }

    pub(super) fn maybe_stable_checkpoint(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        digest: Digest,
    ) {
        if seq <= self.low_mark {
            return;
        }
        let quorum = self.cfg.commit_quorum();
        let votes = self
            .checkpoint_votes
            .get(&seq)
            .and_then(|m| m.get(&digest))
            .map_or(0, HashMap::len);
        if votes < quorum {
            return;
        }
        if self.executor.last_executed < seq {
            // Certified, but this replica has not executed up to it: defer
            // stabilization and give ordinary catch-up one grace period
            // before falling back to full state transfer.
            let arm = self.pending_stable.is_none_or(|(s, _)| s < seq);
            if arm {
                self.pending_stable = Some((seq, digest));
                self.arm_transfer_grace(sim, seq);
            }
            return;
        }
        // Stable: advance the low watermark and truncate every pipeline.
        self.low_mark = seq;
        if self.pending_stable.is_some_and(|(s, _)| s <= seq) {
            self.pending_stable = None;
        }
        self.stats.stable_checkpoints += 1;
        let freed: u64 = self
            .pipelines
            .iter_mut()
            .map(|pl| pl.truncate_through(seq))
            .sum();
        self.checkpoint_votes.retain(|&s, _| s > seq);
        self.catch_up_votes.retain(|&s, _| s > seq);
        self.own_checkpoints.retain(|&s, _| s >= seq);
        // Fast-path slots whose occupants fell below the new low watermark
        // are stably checkpointed and may be recycled; occupants still in
        // the window keep their slot reserved (see `slot_accept`).
        self.slot_seqs.retain(|_, s| *s > seq);
        // Executed requests can no longer feed phase latencies; drop their
        // arrival stamps so the map stays bounded by the window.
        let client_state = &self.client_state;
        self.arrivals
            .retain(|(c, ts), _| client_state.get(c).is_none_or(|(t, _)| *t < *ts));
        self.counters[ReplicaCounter::CheckpointsStable].incr();
        self.counters[ReplicaCounter::CheckpointGcFreed].add(freed);
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!(
                "{}checkpoint_stable seq={seq} freed={freed}",
                self.metrics_prefix
            ),
        );
        // Durability: every `snapshot_every`-th stable checkpoint is
        // persisted from its sealed store (the payload as it was at `seq`,
        // not the service's current — possibly later — state) and the WAL
        // compacts down to frames past it.
        if let Some(durable) = self.durable.as_mut() {
            if durable.record_stable() {
                if let Some((store, _)) = self.stores.get(&seq) {
                    durable.write_snapshot(sim.now(), seq, store.bytes());
                }
            }
        }
    }

    /// See [`Replica::roll_recovery_epoch`].
    pub(super) fn roll_recovery_epoch(&mut self, sim: &mut Simulator, epoch: u64) {
        if epoch <= self.recovery_epoch {
            return;
        }
        self.recovery_epoch = epoch;
        self.stats.epoch_rolls += 1;
        self.counters[ReplicaCounter::EpochRolls].incr();
        self.metrics.trace(
            sim.now(),
            "reptor",
            format!("{}recovery_epoch_roll epoch={epoch}", self.metrics_prefix),
        );
        if self.byzantine == ByzantineMode::Crash {
            return;
        }
        // Every store's advertised offer is re-stamped with the new
        // epoch; RDMA-readable stores additionally move to a fresh
        // memory region so the old rkey is revoked at the NIC. Stacks
        // without one-sided READs (no registered region) still roll
        // the epoch so stale `StateRequest`s die at the responder.
        let me = self.id;
        let mut msgs = Vec::new();
        let mut released = Vec::new();
        let seqs: Vec<SeqNum> = self.stores.keys().copied().collect();
        for seq in seqs {
            let (store, old) = &self.stores[&seq];
            let (root, old) = (store.root(), *old);
            let minted = old
                .readable()
                .then(|| self.transport.register_state_region(sim, store.bytes()))
                .flatten();
            let mut offer = minted.unwrap_or(old);
            offer.epoch = epoch;
            self.stores.get_mut(&seq).expect("listed above").1 = offer;
            let rotated = offer.rkey != old.rkey;
            if rotated && self.byzantine == ByzantineMode::StaleEpochOffer {
                // Remember the revoked offer: this is the rkey the
                // Byzantine replica will keep advertising.
                self.stale_offer = Some(old);
            }
            let advertised = self.advertised_offer(offer);
            if let Some(votes) = self
                .checkpoint_votes
                .get_mut(&seq)
                .and_then(|m| m.get_mut(&root))
            {
                votes.insert(me, advertised);
            }
            if rotated {
                released.push(old);
            }
            msgs.push(Message::Checkpoint {
                seq,
                state_digest: root,
                replica: me,
                store_rkey: advertised.rkey,
                store_len: advertised.len,
                store_epoch: advertised.epoch,
            });
        }
        if !released.is_empty() {
            self.counters[ReplicaCounter::MrRotations].add(released.len() as u64);
        }
        for old in &released {
            self.transport.release_state_region(old);
        }
        for msg in msgs {
            self.broadcast_to_replicas(sim, msg);
        }
        // The read lease joins the roll: its region moves to a fresh rkey
        // under the new epoch, so clients holding the pre-roll lease are
        // RNIC-denied and re-query.
        self.roll_read_lease(sim);
    }
}

// ------------------------------------------------------------------
// State transfer (below-checkpoint recovery and cold rejoin)
// ------------------------------------------------------------------

impl ReplicaInner {
    /// See [`Replica::restart`].
    pub(super) fn restart(&mut self, sim: &mut Simulator, service: Box<dyn StateMachine>) {
        self.byzantine = ByzantineMode::Honest;
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
        self.transfer = None;
        // The recovery epoch survives a restart: it is local wall-clock
        // bookkeeping, not replicated state, and the scheduler that
        // restarted this replica expects its offers to stay
        // current-epoch-tagged.
        self.stale_offer = None;
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
        self.stale_lease = None;
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
    /// when the gap is small, so it gets the first try.
    pub(super) fn arm_transfer_grace(&self, sim: &mut Simulator, seq: SeqNum) {
        self.later(sim, self.cfg.view_change_timeout, move |r, sim| {
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
                    let replica = self.handle();
                    let issued = self.transport.read_state(
                        sim,
                        peer,
                        offer.rkey,
                        idx as u64 * CHUNK_SIZE as u64,
                        manifest.chunk_len(idx),
                        Box::new(move |sim, data| {
                            replica.unless_crashed(|r| r.on_state_read_done(sim, seq, idx, data));
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
            Message::StateRequest {
                seq,
                chunk,
                replica: self.id,
                epoch: offer.epoch,
            },
            &[peer],
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
        if requester == self.id || requester >= self.cfg.n as u32 {
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
        // A StaleCheckpoint responder answers with its *oldest*
        // retained store's content under the requested seq; the
        // fetcher's root/digest checks catch the substitution.
        let store = match self.byzantine {
            ByzantineMode::StaleCheckpoint => self.stores.values().next().map(|(s, _)| s),
            _ => self.stores.get(&seq).map(|(s, _)| s),
        };
        let Some(store) = store else { return };
        let data = if chunk == MANIFEST_CHUNK {
            store.manifest().to_vec()
        } else {
            match store.chunk(chunk) {
                Some(c) => c.to_vec(),
                None => return,
            }
        };
        let data = if self.byzantine == ByzantineMode::BogusStateChunks {
            corrupt_chunks(&data)
        } else {
            data
        };
        self.send_msg(
            sim,
            Message::StateChunk {
                seq,
                chunk,
                data,
                replica: self.id,
            },
            &[requester],
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

// ------------------------------------------------------------------
// Catch-up (lagging-replica recovery)
// ------------------------------------------------------------------

impl ReplicaInner {
    /// A peer reports it may have missed committed instances: re-send the
    /// executed `(seq, view, digest, batch)` certificates it asks for, one
    /// bounded page at a time. Instances truncated below the stable
    /// checkpoint cannot be served per-instance — a requester that far
    /// behind is sent this replica's latest checkpoint attestation
    /// instead, steering it into state transfer.
    pub(super) fn handle_catch_up_request(
        &mut self,
        sim: &mut Simulator,
        from_seq: SeqNum,
        requester: ReplicaId,
    ) {
        /// Per-request page cap. A still-lagging replica asks again from
        /// its new horizon, so pagination bounds every reply burst without
        /// stalling convergence.
        const MAX_INSTANCES: usize = 32;
        if requester == self.id || requester >= self.cfg.n as u32 {
            return;
        }
        let me = self.id;
        // Below the stable checkpoint: that history is gone. Attest the
        // latest sealed checkpoint (a StaleCheckpoint responder lies
        // and attests its oldest; `f + 1` matching honest attestations
        // outvote it at the requester).
        if from_seq <= self.low_mark {
            let pick = match self.byzantine {
                ByzantineMode::StaleCheckpoint => self.stores.iter().next(),
                _ => self.stores.iter().next_back(),
            };
            if let Some((&s, (store, offer))) = pick {
                let advertised = self.advertised_offer(*offer);
                let attest = Message::Checkpoint {
                    seq: s,
                    state_digest: store.root(),
                    replica: me,
                    store_rkey: advertised.rkey,
                    store_len: advertised.len,
                    store_epoch: advertised.epoch,
                };
                self.send_msg(sim, attest, &[requester]);
            }
        }
        // Merge the per-pipeline logs back into one seq-ordered view of
        // the executed history (each pipeline holds a disjoint residue
        // class, so a sort by seq is a perfect merge).
        let last = self.executor.last_executed;
        let mut executed: Vec<(SeqNum, &Instance)> = if from_seq <= last {
            self.pipelines
                .iter()
                .flat_map(|pl| pl.log.range(from_seq..=last))
                .filter(|(_, e)| e.executed)
                .map(|(&s, e)| (s, e))
                .collect()
        } else {
            Vec::new()
        };
        executed.sort_unstable_by_key(|&(s, _)| s);
        let truncated = executed.len() > MAX_INSTANCES;
        let replies = executed
            .into_iter()
            .take(MAX_INSTANCES)
            .map(|(seq, entry)| Message::CatchUpReply {
                seq,
                view: entry.view,
                digest: entry.digest.expect("executed instance has digest"),
                batch: entry.batch.clone().expect("executed instance has batch"),
                replica: me,
            })
            .collect::<Vec<_>>();
        if replies.is_empty() {
            return;
        }
        self.stats.catch_up_replies_sent += replies.len() as u64;
        self.counters[ReplicaCounter::CatchUpRepliesSent].add(replies.len() as u64);
        if truncated {
            self.stats.catch_up_replies_truncated += 1;
            self.counters[ReplicaCounter::CatchUpRepliesTruncated].incr();
        }
        for msg in replies {
            self.send_msg(sim, msg, &[requester]);
        }
    }

    /// `f + 1` matching CATCH-UP-REPLY certificates prove at least one
    /// honest replica executed `(seq, digest)`, which requires a commit
    /// quorum — the batch is final and safe to commit locally, even while
    /// a view change is in progress.
    pub(super) fn handle_catch_up_reply(
        &mut self,
        sim: &mut Simulator,
        seq: SeqNum,
        view: View,
        digest: Digest,
        batch: Vec<Request>,
        replica: ReplicaId,
    ) {
        if replica >= self.cfg.n as u32 || seq <= self.executor.last_executed {
            return;
        }
        // The digest must bind the batch, like a pre-prepare.
        let core = self.affinity.seq_core(seq);
        let cost = self.cfg.crypto.digest_cost(batch_bytes(&batch));
        self.charge(sim, core, cost);
        let lane = self.affinity.lane_of(seq);
        if batch_digest(&batch) != digest {
            return;
        }
        if self.pipelines[lane]
            .log
            .get(&seq)
            .is_some_and(|e| e.executed || e.committed)
        {
            // Already certified through the normal path; the gap
            // may sit earlier in the log.
            return self.try_execute(sim);
        }
        let f = self.cfg.f();
        let le = self.executor.last_executed;
        self.catch_up_votes.retain(|&s, _| s > le);
        let (voters, stored) = self
            .catch_up_votes
            .entry(seq)
            .or_default()
            .entry(digest)
            .or_default();
        voters.insert(replica);
        if stored.is_none() {
            *stored = Some((view, batch));
        }
        if voters.len() <= f {
            return;
        }
        let (cview, cbatch) = stored.take().expect("stored with first vote");
        self.catch_up_votes.remove(&seq);
        let now = sim.now();
        self.pipelines[lane].install(
            seq,
            Instance {
                view: cview,
                digest: Some(digest),
                batch: Some(cbatch),
                pre_prepared: true,
                prepared: true,
                committed: true,
                committed_at: Some(now),
                ..Instance::default()
            },
        );
        self.pipelines[lane].committed += 1;
        self.lane_committed[lane].incr();
        self.stats.catch_ups_applied += 1;
        self.counters[ReplicaCounter::CatchUpsApplied].incr();
        self.metrics.trace(
            now,
            "reptor",
            format!("{}catch_up_applied seq={seq}", self.metrics_prefix),
        );
        self.try_execute(sim);
    }
}

// ------------------------------------------------------------------
// View change
// ------------------------------------------------------------------

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
        // doubling the timeout each attempt (PBFT's exponential backoff —
        // this also keeps an isolated replica from flooding itself).
        self.vc_attempts = (self.vc_attempts + 1).min(16);
        let shift = self.vc_attempts.min(10);
        let backoff = self.cfg.view_change_timeout * (1u64 << shift);
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

// ------------------------------------------------------------------
// Outbound path
// ------------------------------------------------------------------

impl ReplicaInner {
    fn broadcast_to_replicas(&mut self, sim: &mut Simulator, msg: Message) {
        let peers: Vec<u32> = (0..self.cfg.n as u32).filter(|&r| r != self.id).collect();
        self.send_msg(sim, msg, &peers);
    }

    fn send_msg(&mut self, sim: &mut Simulator, msg: Message, receivers: &[u32]) {
        if receivers.is_empty() || self.byzantine == ByzantineMode::Crash {
            return;
        }
        let mut signed = SignedMessage::create(&msg, &self.keys, receivers);
        if self.byzantine == ByzantineMode::CorruptMacs {
            for (_, mac) in &mut signed.auth.macs {
                mac[0] ^= 0xFF;
            }
        }
        let core = self.msg_core(&msg);
        let cost = self
            .cfg
            .crypto
            .authenticator_cost(signed.body.len(), receivers.len());
        let done = self.charge(sim, core, cost);
        // Keep the wire order equal to the submission order even when
        // MAC work lands on different pipeline cores: the comm stack
        // still has a single outbound sender queue.
        let send_at = done.max(self.send_horizon);
        self.send_horizon = send_at;
        let bytes = signed.encode();
        let receivers = receivers.to_vec();
        let transport = self.transport.clone();
        sim.schedule_at(
            send_at,
            Box::new(move |sim| {
                for &r in &receivers {
                    transport.send(sim, r, bytes.clone());
                }
            }),
        );
    }

    /// The core an outbound message's MAC work runs on: the owning
    /// pipeline's core for agreement traffic, the execution core otherwise.
    fn msg_core(&self, msg: &Message) -> CoreId {
        match msg {
            Message::PrePrepare { seq, .. }
            | Message::Prepare { seq, .. }
            | Message::Commit { seq, .. }
            | Message::CatchUpReply { seq, .. } => self.affinity.seq_core(*seq),
            _ => self.affinity.exec_core(),
        }
    }

    /// The core inbound MAC verification runs on. The transport's demux
    /// already peeked the lane from the wire; trust it only for agreement
    /// messages (everything else runs on the execution core regardless of
    /// what a hostile frame header claims).
    fn lane_core_for(&self, lane: usize, msg: &Message) -> CoreId {
        match msg {
            Message::PrePrepare { .. }
            | Message::Prepare { .. }
            | Message::Commit { .. }
            | Message::CatchUpReply { .. } => self.pipelines[lane % self.pipelines.len()].core,
            _ => self.affinity.exec_core(),
        }
    }

    fn charge(&mut self, sim: &Simulator, core: CoreId, work: Nanos) -> Nanos {
        self.net
            .host(self.host)
            .borrow_mut()
            .exec(sim.now(), core, work)
    }
}

fn batch_bytes(batch: &[Request]) -> usize {
    batch.iter().map(|r| r.payload.len() + 16).sum::<usize>()
}

/// Byzantine store bytes: flips one byte in every chunk-sized slice, so
/// each corrupted chunk fails its digest check at the fetcher while
/// lengths (and therefore read offsets) stay valid.
fn corrupt_chunks(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for chunk in out.chunks_mut(CHUNK_SIZE) {
        if let Some(b) = chunk.first_mut() {
            *b ^= 0xA5;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, CounterService};

    fn cluster(interval: u64, seed: u64) -> Cluster {
        Cluster::sim_transport(
            ReptorConfig {
                checkpoint_interval: interval,
                ..ReptorConfig::small()
            },
            1,
            seed,
            || Box::new(CounterService::default()),
        )
    }

    #[test]
    fn watermark_window_boundaries() {
        let c = cluster(8, 40);
        let r = &c.replicas[1];
        // Window is (low_mark, low_mark + 2L] with L = 8, low_mark = 0.
        assert!(!r.in_watermarks(0), "the low mark itself is outside");
        assert!(r.in_watermarks(1), "first seq past the low mark");
        assert!(r.in_watermarks(16), "the high watermark is inclusive");
        assert!(!r.in_watermarks(17), "one past the high watermark");
    }

    #[test]
    fn slot_not_recycled_while_occupant_in_window() {
        let c = cluster(8, 42);
        let r = &c.replicas[1];
        // L = 8 → 16 slots; seq 3 and seq 19 share slot 3.
        assert!(r.slot_accept_for_test(3), "fresh slot accepts");
        assert!(r.slot_accept_for_test(3), "leader retransmit is idempotent");
        assert!(
            !r.slot_accept_for_test(19),
            "slot must not be recycled while seq 3 is in the window but uncommitted"
        );
        // Checkpoint GC stabilises through seq 8: occupant 3 retires.
        r.gc_slots_for_test(8);
        assert!(
            r.slot_accept_for_test(19),
            "after the occupant is checkpointed the slot is reusable"
        );
    }

    #[test]
    fn pre_prepare_at_high_watermark_accepted_one_past_rejected() {
        let mut c = cluster(8, 41);
        let batch = vec![Request {
            client: 4,
            timestamp: 1,
            payload: b"inc".to_vec(),
        }];
        let digest = batch_digest(&batch);
        c.replicas[1].inject_message(
            &mut c.sim,
            Message::PrePrepare {
                view: 0,
                seq: 16, // exactly low_mark + 2 * checkpoint_interval
                digest,
                batch: batch.clone(),
            },
        );
        c.settle();
        assert_eq!(
            c.replicas[1].stats().prepares_sent,
            1,
            "seq == high watermark must be accepted"
        );
        c.replicas[1].inject_message(
            &mut c.sim,
            Message::PrePrepare {
                view: 0,
                seq: 17,
                digest,
                batch,
            },
        );
        c.settle();
        assert_eq!(
            c.replicas[1].stats().prepares_sent,
            1,
            "seq == high watermark + 1 must be rejected"
        );
    }

    #[test]
    fn rejoin_probe_backoff_matches_reconnect_schedule() {
        let base = Nanos::from_millis(40);
        let delays: Vec<u64> = (0..8).map(|a| backoff(base, a).as_nanos()).collect();
        assert_eq!(delays[0], base.as_nanos(), "first probe fires after base");
        // Doubles per attempt up to the cap...
        for (i, w) in delays.windows(2).take(5).enumerate() {
            assert_eq!(w[1], w[0] * 2, "attempt {i} must double");
        }
        // ...then stays clamped at base << 5, the transport reconnect cap.
        assert_eq!(delays[5], base.as_nanos() << 5);
        assert_eq!(delays[6], delays[5], "cap holds past attempt 5");
        assert_eq!(delays[7], delays[5], "cap holds past attempt 5");
    }
}
