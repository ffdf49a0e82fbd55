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

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

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
    /// inflated by [`FORGE_STAMP_BOOST`] and its value bytes scribbled
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
    /// Messages dropped for failing MAC verification.
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

/// Fixed byte size of one fast-path pre-prepare slot. A batch whose
/// encoded PRE-PREPARE exceeds this falls back to the message path for
/// that proposal (the slot region layout is static per view).
pub(crate) const FAST_PATH_SLOT_SIZE: u64 = 4096;

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
pub const FORGE_STAMP_BOOST: u64 = 1 << 20;

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
    proposed: HashSet<(ClientId, u64)>,
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
    arrivals: HashMap<(ClientId, u64), Nanos>,
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
            inner: Rc::new(RefCell::new(ReplicaInner {
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
                proposed: HashSet::new(),
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
                arrivals: HashMap::new(),
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
            })),
        };
        // Inbound demultiplexing: the transport peeks the sequence number
        // out of the wire frame and routes agreement traffic to its owning
        // pipeline (lane 0 carries everything without a sequence number).
        let r = replica.clone();
        transport.set_lane_delivery(
            lanes,
            Rc::new(move |sim, lane, from, bytes| {
                r.on_raw(sim, lane, from, bytes);
            }),
        );
        // Fast-path doorbell: a one-sided WRITE that landed in this
        // replica's slot region surfaces here with the slot index as the
        // immediate (no-op on transports without one-sided writes).
        let r = replica.clone();
        transport.set_slot_doorbell(Rc::new(move |sim, peer, imm, len| {
            r.on_slot_doorbell(sim, peer, imm, len);
        }));
        replica
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
        let (to_roll, transport) = {
            let mut inner = self.inner.borrow_mut();
            if epoch <= inner.recovery_epoch {
                return;
            }
            inner.recovery_epoch = epoch;
            inner.stats.epoch_rolls += 1;
            inner.counters[ReplicaCounter::EpochRolls].incr();
            inner.metrics.trace(
                sim.now(),
                "reptor",
                format!("{}recovery_epoch_roll epoch={epoch}", inner.metrics_prefix),
            );
            if inner.byzantine == ByzantineMode::Crash {
                return;
            }
            // Every store's advertised offer is re-stamped with the new
            // epoch; RDMA-readable stores additionally move to a fresh
            // memory region so the old rkey is revoked at the NIC. Stacks
            // without one-sided READs (no registered region) still roll
            // the epoch so stale `StateRequest`s die at the responder.
            let to_roll: Vec<(SeqNum, Option<Vec<u8>>)> = inner
                .stores
                .iter()
                .map(|(&s, (store, offer))| (s, offer.readable().then(|| store.bytes().to_vec())))
                .collect();
            (to_roll, inner.transport.clone())
        };
        let mut msgs = Vec::new();
        let mut released = Vec::new();
        for (seq, bytes) in to_roll {
            let minted = bytes
                .as_ref()
                .and_then(|b| transport.register_state_region(sim, b));
            let msg = {
                let mut inner = self.inner.borrow_mut();
                let me = inner.id;
                let Some(entry) = inner.stores.get_mut(&seq) else {
                    // The store was garbage-collected while re-registering;
                    // drop the fresh region instead of leaking it.
                    if let Some(o) = minted {
                        drop(inner);
                        transport.release_state_region(&o);
                    }
                    continue;
                };
                let old = entry.1;
                let mut offer = minted.unwrap_or(old);
                offer.epoch = epoch;
                entry.1 = offer;
                let rotated = offer.rkey != old.rkey;
                let root = entry.0.root();
                if rotated && inner.byzantine == ByzantineMode::StaleEpochOffer {
                    // Remember the revoked offer: this is the rkey the
                    // Byzantine replica will keep advertising.
                    inner.stale_offer = Some(old);
                }
                let advertised = inner.advertised_offer(offer);
                if let Some(votes) = inner
                    .checkpoint_votes
                    .get_mut(&seq)
                    .and_then(|m| m.get_mut(&root))
                {
                    votes.insert(me, advertised);
                }
                if rotated {
                    released.push(old);
                }
                Message::Checkpoint {
                    seq,
                    state_digest: root,
                    replica: me,
                    store_rkey: advertised.rkey,
                    store_len: advertised.len,
                    store_epoch: advertised.epoch,
                }
            };
            msgs.push(msg);
        }
        if !released.is_empty() {
            self.inner.borrow_mut().counters[ReplicaCounter::MrRotations]
                .add(released.len() as u64);
        }
        for old in &released {
            transport.release_state_region(old);
        }
        for msg in msgs {
            self.broadcast_to_replicas(sim, msg);
        }
        // The read lease joins the roll: its region moves to a fresh rkey
        // under the new epoch, so clients holding the pre-roll lease are
        // RNIC-denied and re-query.
        self.roll_read_lease(sim);
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
        if self.inner.borrow().byzantine == ByzantineMode::Crash {
            return;
        }
        self.dispatch(sim, msg);
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
        let (released, transport) = {
            let mut inner = self.inner.borrow_mut();
            inner.byzantine = ByzantineMode::Honest;
            inner.service = service;
            inner.view = 0;
            inner.in_view_change = false;
            inner.next_seq = 1;
            inner.low_mark = 0;
            let pipelines: Vec<Pipeline> = (0..inner.cfg.pillars)
                .map(|lane| Pipeline::new(lane, inner.affinity.lane_core(lane)))
                .collect();
            inner.pipelines = pipelines;
            inner.executor = Executor::new();
            inner.pending.clear();
            inner.proposed.clear();
            inner.client_state.clear();
            inner.checkpoint_votes.clear();
            inner.own_checkpoints.clear();
            inner.vc_votes.clear();
            inner.catch_up_votes.clear();
            inner.last_catch_up_at = 0;
            inner.voted_view = 0;
            inner.vc_attempts = 0;
            inner.transfer = None;
            // The recovery epoch survives a restart: it is local wall-clock
            // bookkeeping, not replicated state, and the scheduler that
            // restarted this replica expects its offers to stay
            // current-epoch-tagged.
            inner.stale_offer = None;
            inner.pending_stable = None;
            inner.arrivals.clear();
            let released: Vec<StateOffer> = inner
                .stores
                .values()
                .map(|(_, offer)| *offer)
                .filter(|o| o.readable())
                .collect();
            inner.stores.clear();
            inner.slot_grants.clear();
            inner.slot_seqs.clear();
            inner.slot_granted_to = None;
            inner.fast_path_armed = false;
            let slot_region = inner.slot_region.take();
            // The pre-crash read lease MUST be revoked before the WAL
            // replays below: the restarted service starts empty, and a
            // surviving rkey would let clients one-sided-READ the stale
            // pre-crash region image while recovery is still rebuilding.
            let read_lease = inner.read_lease.take();
            inner.stale_lease = None;
            inner.lease_armed = false;
            inner.rejoin_attempts = 0;
            inner.rejoin_generation += 1;
            inner.counters[ReplicaCounter::Restarts].incr();
            inner.metrics.trace(
                sim.now(),
                "reptor",
                format!("{}restart", inner.metrics_prefix),
            );
            ((released, slot_region, read_lease), inner.transport.clone())
        };
        let (released, slot_region, read_lease) = released;
        for offer in &released {
            transport.release_state_region(offer);
        }
        if let Some(region) = slot_region {
            transport.release_write_region(&region);
        }
        if let Some(lease) = read_lease {
            transport.release_state_region(&lease);
            self.inner.borrow_mut().counters[ReplicaCounter::LeaseRevocations].incr();
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
    fn durable_recover(&self, sim: &mut Simulator) {
        if self.inner.borrow().durable.is_none() {
            return;
        }
        let now = sim.now();
        let rec = {
            let mut inner = self.inner.borrow_mut();
            let ReplicaInner { durable, .. } = &mut *inner;
            durable.as_mut().expect("checked above").recover(now)
        };
        if let Some((seq, payload)) = rec.snapshot {
            let installed = {
                let mut inner = self.inner.borrow_mut();
                match CheckpointPayload::decode(&payload) {
                    Some(cp) if inner.service.restore(&cp.service_snapshot) => {
                        inner.client_state = cp
                            .clients
                            .iter()
                            .map(|(c, ts, reply)| (*c, (*ts, reply.clone())))
                            .collect();
                        inner.executor.fast_forward(seq);
                        inner.low_mark = seq;
                        inner.next_seq = seq + 1;
                        inner.counters[ReplicaCounter::DurableRestores].incr();
                        true
                    }
                    // A CRC-valid slot that does not decode or restore
                    // means corruption below the CRC's reach; treat it
                    // like a corrupt slot and lean on peers.
                    _ => {
                        inner.counters[ReplicaCounter::SnapshotCorruptFallback].incr();
                        false
                    }
                }
            };
            if !installed {
                // The snapshot is unusable, so the WAL (which starts past
                // it) cannot be replayed either.
                self.trace_recover(sim, 0);
                return;
            }
        }
        let mut replayed = 0u64;
        {
            let mut inner = self.inner.borrow_mut();
            for frame in &rec.frames {
                if frame.seq != inner.executor.last_executed + 1 {
                    continue;
                }
                for req in &frame.requests {
                    let stale = inner
                        .client_state
                        .get(&req.client)
                        .is_some_and(|(ts, _)| *ts >= req.timestamp);
                    if stale {
                        continue;
                    }
                    let cost = inner.service.op_cost(req);
                    inner.charge(sim, CoreId(0), cost);
                    let result = inner.service.apply(req);
                    inner
                        .client_state
                        .insert(req.client, (req.timestamp, result));
                }
                inner.executor.replay_record(frame.seq, frame.digest);
                replayed += 1;
            }
            if replayed > 0 {
                inner.next_seq = inner.executor.last_executed + 1;
                inner.counters[ReplicaCounter::WalFramesReplayed].add(replayed);
            }
        }
        // Re-seal and attest the recovered position when it lands exactly
        // on a checkpoint boundary (a snapshot always does; WAL replay
        // only sometimes). The broadcast vote tells peers this replica is
        // provisioned — on a full-cluster restart those votes re-certify
        // the checkpoint with zero state fetched.
        let seal = {
            let inner = self.inner.borrow();
            let le = inner.executor.last_executed;
            (le > 0 && le.is_multiple_of(inner.cfg.checkpoint_interval)).then_some(le)
        };
        if let Some(seq) = seal {
            self.make_checkpoint(sim, seq);
        }
        self.trace_recover(sim, replayed);
    }

    fn trace_recover(&self, sim: &mut Simulator, replayed: u64) {
        let inner = self.inner.borrow();
        inner.metrics.trace(
            sim.now(),
            "reptor",
            format!(
                "{}durable_recover le={} replayed={replayed}",
                inner.metrics_prefix, inner.executor.last_executed
            ),
        );
    }

    // ------------------------------------------------------------------
    // Inbound path
    // ------------------------------------------------------------------

    fn on_raw(&self, sim: &mut Simulator, lane: usize, _from: u32, bytes: Vec<u8>) {
        if self.inner.borrow().byzantine == ByzantineMode::Crash {
            return;
        }
        let signed = match SignedMessage::decode(&bytes) {
            Ok(s) => s,
            Err(_) => {
                self.inner.borrow_mut().stats.malformed_dropped += 1;
                return;
            }
        };
        // Charge MAC verification to the core of the pipeline that owns
        // this message's sequence number — the transport's lane demux
        // already derived it from the wire frame (lane 0 / core 0 for
        // non-agreement messages).
        let msg = {
            let mut inner = self.inner.borrow_mut();
            let verified = signed.verify_and_decode(&inner.keys);
            match verified {
                Err(_) => {
                    inner.stats.malformed_dropped += 1;
                    return;
                }
                Ok(None) => {
                    inner.stats.bad_mac_dropped += 1;
                    return;
                }
                Ok(Some(m)) => {
                    let core = inner.lane_core_for(lane, &m);
                    let cost = inner.cfg.crypto.verify_cost(signed.body.len());
                    inner.charge(sim, core, cost);
                    m
                }
            }
        };
        self.dispatch(sim, msg);
    }

    fn dispatch(&self, sim: &mut Simulator, msg: Message) {
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

    /// Client request entry point (also used directly by the harness).
    pub fn on_request(&self, sim: &mut Simulator, req: Request) {
        self.maybe_arm_fast_path(sim);
        let resend = {
            let inner = self.inner.borrow_mut();
            if inner.byzantine == ByzantineMode::Crash {
                return;
            }
            match inner.client_state.get(&req.client) {
                Some((last_ts, _)) if req.timestamp < *last_ts => return, // stale
                Some((last_ts, result)) if req.timestamp == *last_ts => {
                    // Duplicate of the last executed request: resend reply.
                    Some((req.client, *last_ts, result.clone()))
                }
                _ => None,
            }
        };
        if let Some((client, ts, result)) = resend {
            self.send_reply(sim, client, ts, result);
            return;
        }

        let is_primary = {
            let mut inner = self.inner.borrow_mut();
            let key = (req.client, req.timestamp);
            // Every replica buffers the request: backups need it in case
            // they become primary after a view change.
            if !inner.proposed.contains(&key)
                && !inner.pending.iter().any(|r| (r.client, r.timestamp) == key)
            {
                inner.pending.push_back(req.clone());
                inner.arrivals.entry(key).or_insert_with(|| sim.now());
            }
            inner.cfg.primary(inner.view) == inner.id
        };
        if is_primary {
            self.try_propose(sim);
        } else {
            // Backup: arm the view-change timer for this request.
            self.arm_request_timer(sim, req);
        }
    }

    fn arm_request_timer(&self, sim: &mut Simulator, req: Request) {
        let (timeout, view_at_start) = {
            let inner = self.inner.borrow();
            (inner.cfg.view_change_timeout, inner.view)
        };
        let replica = self.clone();
        sim.schedule_in(
            timeout,
            Box::new(move |sim| {
                let expired = {
                    let inner = replica.inner.borrow();
                    if inner.byzantine == ByzantineMode::Crash {
                        return;
                    }
                    let executed = inner
                        .client_state
                        .get(&req.client)
                        .is_some_and(|(ts, _)| *ts >= req.timestamp);
                    !executed && inner.view == view_at_start && !inner.in_view_change
                };
                if expired {
                    // Ask before accusing: the stall may be this replica
                    // lagging (its commits were lost for good, e.g. MAC
                    // rejections), not a faulty primary. A premature
                    // VIEW-CHANGE vote is worse than a late one — the vote
                    // freezes a snapshot of prepared certificates, while a
                    // catch-up round costs one more timeout.
                    replica.request_catch_up(sim);
                    replica.arm_view_change_timer(sim, req.clone(), view_at_start);
                }
            }),
        );
    }

    /// Second-stage timer armed after a catch-up round was given a chance:
    /// if the request is still unexecuted in the same view, vote.
    fn arm_view_change_timer(&self, sim: &mut Simulator, req: Request, view_at_start: View) {
        let timeout = self.inner.borrow().cfg.view_change_timeout;
        let replica = self.clone();
        sim.schedule_in(
            timeout,
            Box::new(move |sim| {
                let expired = {
                    let inner = replica.inner.borrow();
                    if inner.byzantine == ByzantineMode::Crash {
                        return;
                    }
                    let executed = inner
                        .client_state
                        .get(&req.client)
                        .is_some_and(|(ts, _)| *ts >= req.timestamp);
                    !executed && inner.view == view_at_start && !inner.in_view_change
                };
                if expired {
                    replica.start_view_change(sim, view_at_start + 1);
                }
            }),
        );
    }

    /// Broadcasts a CATCH-UP-REQUEST for everything past `last_executed`.
    /// Rate-limited: every stalled request funnels here.
    fn request_catch_up(&self, sim: &mut Simulator) {
        let msg = {
            let mut inner = self.inner.borrow_mut();
            let gap = inner.cfg.view_change_timeout.as_nanos() / 2;
            let now = sim.now().as_nanos();
            if inner.last_catch_up_at != 0 && now < inner.last_catch_up_at + gap {
                return;
            }
            inner.last_catch_up_at = now;
            inner.stats.catch_up_requests_sent += 1;
            inner.counters[ReplicaCounter::CatchUpRequestsSent].incr();
            Message::CatchUpRequest {
                from_seq: inner.executor.last_executed + 1,
                replica: inner.id,
            }
        };
        self.broadcast_to_replicas(sim, msg);
    }

    // ------------------------------------------------------------------
    // Primary: proposing
    // ------------------------------------------------------------------

    fn try_propose(&self, sim: &mut Simulator) {
        loop {
            let proposal = {
                let mut inner = self.inner.borrow_mut();
                if inner.in_view_change
                    || inner.cfg.primary(inner.view) != inner.id
                    || inner.pending.is_empty()
                    || matches!(
                        inner.byzantine,
                        ByzantineMode::SilentPrimary
                            | ByzantineMode::Crash
                            | ByzantineMode::LateSlotWriter
                    )
                {
                    None
                } else {
                    let in_flight =
                        (inner.next_seq - 1).saturating_sub(inner.executor.last_executed);
                    let high_mark = inner.low_mark + 2 * inner.cfg.checkpoint_interval;
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
                    let batch_size = inner.cfg.batch_size;
                    let held = in_flight > 0
                        && inner
                            .pending
                            .iter()
                            .filter(|r| inner.awaits_proposal(r))
                            .take(batch_size)
                            .count()
                            < batch_size;
                    if in_flight >= inner.cfg.window as u64 || inner.next_seq > high_mark || held {
                        None
                    } else {
                        let mut batch: Vec<Request> = Vec::new();
                        while batch.len() < batch_size {
                            let Some(r) = inner.pending.pop_front() else {
                                break;
                            };
                            if inner.awaits_proposal(&r) {
                                batch.push(r);
                            }
                        }
                        if batch.is_empty() {
                            return;
                        }
                        for r in &batch {
                            inner.proposed.insert((r.client, r.timestamp));
                        }
                        if inner.next_seq <= inner.executor.last_executed {
                            inner.next_seq = inner.executor.last_executed + 1;
                        }
                        let seq = inner.next_seq;
                        inner.next_seq += 1;
                        let digest = batch_digest(&batch);
                        let core = inner.affinity.seq_core(seq);
                        let cost = inner.cfg.crypto.digest_cost(batch_bytes(&batch));
                        inner.charge(sim, core, cost);
                        inner.stats.pre_prepares_sent += 1;
                        inner.counters[ReplicaCounter::PrePreparesSent].incr();
                        inner.histos[ReplicaHisto::BatchFillPct]
                            .observe((batch.len() as u64 * 100) / inner.cfg.batch_size as u64);
                        Some((seq, digest, batch, inner.view, inner.byzantine))
                    }
                }
            };
            let Some((seq, digest, batch, view, byz)) = proposal else {
                return;
            };

            if byz == ByzantineMode::EquivocatingPrimary && !batch.is_empty() {
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
                let n = self.inner.borrow().cfg.n as u32;
                let me = self.id();
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

            let peers: Vec<u32> = {
                let inner = self.inner.borrow();
                (0..inner.cfg.n as u32).filter(|&r| r != inner.id).collect()
            };
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

    // ------------------------------------------------------------------
    // One-sided fast path
    // ------------------------------------------------------------------

    /// Lazily runs the initial (view-0) slot grant: construction has no
    /// simulator handle, so the grant rides the first event a follower
    /// processes. Idempotent; no-op unless the fast path is configured.
    fn maybe_arm_fast_path(&self, sim: &mut Simulator) {
        let view = {
            let mut inner = self.inner.borrow_mut();
            if !inner.cfg.fast_path
                || inner.fast_path_armed
                || inner.byzantine == ByzantineMode::Crash
            {
                return;
            }
            inner.fast_path_armed = true;
            inner.view
        };
        self.grant_slot_region(sim, view);
    }

    /// Registers (if needed) this follower's pre-prepare slot region and
    /// grants its WRITE rkey to the leader of `view`. The region covers
    /// one full agreement window — `2 · checkpoint_interval` slots of
    /// [`FAST_PATH_SLOT_SIZE`] bytes, indexed by `seq % slots` — so no two
    /// in-window instances ever share a slot.
    fn grant_slot_region(&self, sim: &mut Simulator, view: View) {
        let (transport, leader, slots) = {
            let inner = self.inner.borrow();
            if !inner.cfg.fast_path || inner.byzantine == ByzantineMode::Crash {
                return;
            }
            let leader = inner.cfg.primary(view);
            if leader == inner.id {
                return; // the leader proposes into peers, not itself
            }
            (
                inner.transport.clone(),
                leader,
                2 * inner.cfg.checkpoint_interval,
            )
        };
        if self.inner.borrow().slot_region.is_none() {
            let region =
                transport.register_write_region(sim, (slots * FAST_PATH_SLOT_SIZE) as usize);
            self.inner.borrow_mut().slot_region = region;
        }
        let msg = {
            let mut inner = self.inner.borrow_mut();
            let Some(region) = inner.slot_region else {
                return; // no one-sided write path on this transport
            };
            inner.slot_granted_to = Some(view);
            inner.counters[ReplicaCounter::FastPathGrantsSent].incr();
            Message::SlotGrant {
                view,
                replica: inner.id,
                rkey: region.rkey,
                slot_size: FAST_PATH_SLOT_SIZE,
                slots,
            }
        };
        self.send_msg(sim, msg, &[leader]);
    }

    /// Revokes the granted leader's fast-path WRITE permission by
    /// invalidating the slot region — the MR re-registration fence. From
    /// this point any in-flight WRITE from a deposed or equivocating
    /// leader is denied in this follower's RNIC (`fast_path_write_denied`),
    /// never filtered in software. A fresh region is registered and
    /// granted when the next view installs.
    fn revoke_slot_region(&self) {
        let (region, transport) = {
            let mut inner = self.inner.borrow_mut();
            inner.slot_granted_to = None;
            (inner.slot_region.take(), inner.transport.clone())
        };
        if let Some(region) = region {
            transport.release_write_region(&region);
            self.inner.borrow_mut().counters[ReplicaCounter::FastPathRevocations].incr();
        }
    }

    // ------------------------------------------------------------------
    // Agreement-free read leases
    // ------------------------------------------------------------------

    /// Lazily runs the initial lease registration: construction has no
    /// simulator handle, so the lease rides the first event this replica
    /// processes. Idempotent; no-op unless `cfg.read_leases` is set.
    fn maybe_arm_read_lease(&self, sim: &mut Simulator) {
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.cfg.read_leases
                || inner.lease_armed
                || inner.byzantine == ByzantineMode::Crash
            {
                return;
            }
            inner.lease_armed = true;
        }
        self.register_read_lease(sim);
    }

    /// Registers the service's applied-state region image as a one-sided
    /// READ MR and remembers its offer as the current read lease. A
    /// [`ByzantineMode::StaleLeaseOffer`] replica additionally registers
    /// and immediately invalidates a decoy region whose dead rkey it will
    /// advertise to clients.
    fn register_read_lease(&self, sim: &mut Simulator) {
        let (transport, image, epoch, stale_mode) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.cfg.read_leases || inner.byzantine == ByzantineMode::Crash {
                return;
            }
            // Cell writes staged against a previous lease are already
            // folded into the fresh image; drop them.
            let _ = inner.service.drain_region_writes();
            let Some(image) = inner.service.read_region_image() else {
                return; // service exposes no read region
            };
            (
                inner.transport.clone(),
                image,
                inner.recovery_epoch,
                inner.byzantine == ByzantineMode::StaleLeaseOffer,
            )
        };
        let stale = if stale_mode {
            transport.register_state_region(sim, &image).map(|mut o| {
                o.epoch = epoch;
                transport.release_state_region(&o);
                o
            })
        } else {
            None
        };
        let offer = transport.register_state_region(sim, &image);
        let mut inner = self.inner.borrow_mut();
        if stale.is_some() {
            inner.stale_lease = stale;
        }
        if let Some(mut offer) = offer {
            offer.epoch = epoch;
            inner.read_lease = Some(offer);
            inner.counters[ReplicaCounter::LeaseRegistrations].incr();
        }
    }

    /// Revokes the current read lease by invalidating its MR — the same
    /// re-registration fence the checkpoint stores use. From this point
    /// every one-sided READ of the old rkey is denied in this replica's
    /// RNIC (`stale_rkey_denied`); clients fall back to the message path
    /// and re-query for a fresh lease.
    fn revoke_read_lease(&self) {
        let (lease, transport) = {
            let mut inner = self.inner.borrow_mut();
            (inner.read_lease.take(), inner.transport.clone())
        };
        if let Some(lease) = lease {
            transport.release_state_region(&lease);
            self.inner.borrow_mut().counters[ReplicaCounter::LeaseRevocations].incr();
        }
    }

    /// Revocation plus fresh registration, used where the exposed state
    /// jumps wholesale: view installation, recovery-epoch rolls, state
    /// transfer. The fresh image snapshots the service after the jump, so
    /// no staged cell writes are lost.
    fn roll_read_lease(&self, sim: &mut Simulator) {
        if !self.inner.borrow().lease_armed {
            return;
        }
        self.revoke_read_lease();
        self.register_read_lease(sim);
    }

    /// A client's lease query: answer with the current lease's rkey (or
    /// the revoked decoy, for a [`ByzantineMode::StaleLeaseOffer`] liar;
    /// or rkey 0 when no lease exists).
    fn handle_lease_query(&self, sim: &mut Simulator, client: ClientId) {
        let msg = {
            let inner = self.inner.borrow_mut();
            if inner.byzantine == ByzantineMode::Crash {
                return;
            }
            inner.counters[ReplicaCounter::LeaseQueries].incr();
            let advertised = match (inner.byzantine, inner.stale_lease) {
                (ByzantineMode::StaleLeaseOffer, Some(stale)) => Some(stale),
                _ => inner.read_lease,
            };
            let (rkey, len, epoch) = advertised.map(|o| (o.rkey, o.len, o.epoch)).unwrap_or((
                0,
                0,
                inner.recovery_epoch,
            ));
            if rkey != 0 {
                inner.counters[ReplicaCounter::LeaseGrants].incr();
            }
            Message::LeaseGrant {
                replica: inner.id,
                rkey,
                len,
                epoch,
            }
        };
        self.send_msg(sim, msg, &[client]);
    }

    /// Publishes the cells the just-executed batch dirtied into the leased
    /// region, two-phase: the torn (odd) stamp lands immediately, the
    /// committed cell one [`LEASE_TORN_WINDOW`] later. The commit event is
    /// guarded on the lease being unchanged — a roll in between registers
    /// a fresh image that already contains the committed cell.
    fn publish_region_writes(&self, sim: &mut Simulator) {
        let (writes, lease, transport, forge) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.cfg.read_leases {
                return;
            }
            let writes = inner.service.drain_region_writes();
            if writes.is_empty() {
                return;
            }
            (
                writes,
                inner.read_lease,
                inner.transport.clone(),
                inner.byzantine == ByzantineMode::ForgedLeaseCells,
            )
        };
        let Some(lease) = lease else {
            return; // no one-sided path; the image re-registers on the next roll
        };
        for w in writes {
            let RegionWrite {
                offset,
                begin,
                mut commit,
            } = w;
            if forge && commit.len() > 72 {
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
                self.inner.borrow_mut().counters[ReplicaCounter::LeaseCellsForged].incr();
            }
            if !transport.write_state_region(&lease, offset, &begin) {
                return; // lease revoked mid-batch; fresh image comes with the next one
            }
            self.inner.borrow_mut().counters[ReplicaCounter::LeaseCellBegins].incr();
            let replica = self.clone();
            let rkey = lease.rkey;
            sim.schedule_in(
                LEASE_TORN_WINDOW,
                Box::new(move |_sim| {
                    let (lease, transport) = {
                        let inner = replica.inner.borrow();
                        (inner.read_lease, inner.transport.clone())
                    };
                    if let Some(l) = lease {
                        if l.rkey == rkey && transport.write_state_region(&l, offset, &commit) {
                            replica.inner.borrow_mut().counters[ReplicaCounter::LeaseCellCommits]
                                .incr();
                        }
                    }
                }),
            );
        }
    }

    /// A follower's WRITE grant arriving at the leader it names. Grants
    /// for views this replica will lead are retained even slightly ahead
    /// of its own view installation (the follower may install first).
    fn handle_slot_grant(
        &self,
        view: View,
        replica: ReplicaId,
        rkey: u32,
        slot_size: u64,
        slots: u64,
    ) {
        let mut inner = self.inner.borrow_mut();
        if !inner.cfg.fast_path
            || replica >= inner.cfg.n as u32
            || replica == inner.id
            || inner.cfg.primary(view) != inner.id
            || view < inner.view
            || slots == 0
            || slot_size == 0
        {
            return;
        }
        inner.slot_grants.insert(
            replica,
            SlotGrantInfo {
                view,
                rkey,
                slot_size,
                slots,
            },
        );
        inner.counters[ReplicaCounter::FastPathGrantsReceived].incr();
    }

    /// WRITEs the pre-prepare one-sided into each granted peer slot and
    /// returns the peers still needing a message-path PRE-PREPARE: fast
    /// path off, no current-view grant, batch too large for the slot, or
    /// no one-sided write path to that peer.
    fn propose_via_slots(
        &self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: &[Request],
        peers: &[u32],
    ) -> Vec<u32> {
        let (transport, grants) = {
            let inner = self.inner.borrow();
            if !inner.cfg.fast_path {
                return peers.to_vec();
            }
            (inner.transport.clone(), inner.slot_grants.clone())
        };
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
            let covered = grants.get(&peer).copied().is_some_and(|g| {
                if g.view != view || g.slots == 0 || bytes.len() as u64 > g.slot_size {
                    return false;
                }
                let slot = seq % g.slots;
                let Ok(imm) = u32::try_from(slot) else {
                    return false;
                };
                let replica = self.clone();
                let fallback = msg.clone();
                transport.write_slot(
                    sim,
                    peer,
                    g.rkey,
                    slot * g.slot_size,
                    &bytes,
                    imm,
                    Box::new(move |sim, ok| {
                        if !ok {
                            replica.fast_path_write_failed(sim, peer, fallback);
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
        let mut inner = self.inner.borrow_mut();
        if written > 0 {
            inner.stats.fast_path_writes += written;
            inner.counters[ReplicaCounter::FastPathWrites].add(written);
        }
        if !uncovered.is_empty() {
            inner.stats.fast_path_fallbacks += uncovered.len() as u64;
            inner.counters[ReplicaCounter::FastPathFallbacks].add(uncovered.len() as u64);
        }
        uncovered
    }

    /// A posted slot WRITE completed with an error: the peer's RNIC denied
    /// it (a revocation race — the follower started a view change after
    /// the WRITE was posted) or the channel broke. Drop the stale grant
    /// and, if the proposal is still current, re-send it over the message
    /// path so a revocation race never loses a proposal.
    fn fast_path_write_failed(&self, sim: &mut Simulator, peer: u32, msg: Message) {
        let resend = {
            let mut inner = self.inner.borrow_mut();
            inner.slot_grants.remove(&peer);
            let current = match &msg {
                Message::PrePrepare { view, .. } => {
                    *view == inner.view
                        && !inner.in_view_change
                        && inner.cfg.primary(*view) == inner.id
                }
                _ => false,
            };
            if current {
                inner.stats.fast_path_fallbacks += 1;
                inner.counters[ReplicaCounter::FastPathFallbacks].incr();
            }
            current
        };
        if resend {
            self.send_msg(sim, msg, &[peer]);
        }
    }

    /// The doorbell handler: a one-sided WRITE landed in this replica's
    /// slot region. Pull the record out of slot `slot`, decode it as a
    /// PRE-PREPARE and funnel it into the ordinary acceptance path. There
    /// is no MAC to verify — the RNIC WRITE permission authenticated the
    /// proposer — but everything else (digest binding the batch, view,
    /// watermarks) is checked exactly as on the message path.
    fn on_slot_doorbell(&self, sim: &mut Simulator, from: u32, slot: u32, len: usize) {
        let read = {
            let inner = self.inner.borrow();
            if !inner.cfg.fast_path || inner.byzantine == ByzantineMode::Crash {
                return;
            }
            let Some(region) = inner.slot_region else {
                return;
            };
            let slots = 2 * inner.cfg.checkpoint_interval;
            if u64::from(slot) >= slots || len as u64 > FAST_PATH_SLOT_SIZE {
                return;
            }
            (inner.transport.clone(), region)
        };
        let (transport, region) = read;
        let Some(bytes) =
            transport.read_write_region(&region, u64::from(slot) * FAST_PATH_SLOT_SIZE, len)
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
            self.inner.borrow_mut().stats.malformed_dropped += 1;
            return;
        };
        let accept = {
            let mut inner = self.inner.borrow_mut();
            let slots = 2 * inner.cfg.checkpoint_interval;
            // The depositor must be the leader the slot was granted to,
            // and the record must sit in the slot its sequence number
            // owns (a WRITE cannot relocate an instance).
            if inner.cfg.primary(view) != from
                || seq % slots != u64::from(slot)
                || view != inner.view
                || inner.in_view_change
                || !inner.in_watermarks(seq)
            {
                false
            } else if !inner.slot_accept(seq) {
                inner.counters[ReplicaCounter::FastPathSlotConflicts].incr();
                false
            } else {
                inner.stats.fast_path_deliveries += 1;
                inner.counters[ReplicaCounter::FastPathDeliveries].incr();
                true
            }
        };
        if accept {
            self.handle_pre_prepare(sim, view, seq, digest, batch);
        }
    }

    /// A deposed [`ByzantineMode::LateSlotWriter`] fires its retained —
    /// and by now revoked — slot grants the moment it learns of the new
    /// view. The followers invalidated their regions when they *voted*,
    /// strictly before any NewView certificate could form, so every one
    /// of these WRITEs is denied in the target RNIC.
    fn maybe_fire_stale_slot_writes(&self, sim: &mut Simulator, new_view: View) {
        let (transport, stale, seq) = {
            let inner = self.inner.borrow();
            if inner.byzantine != ByzantineMode::LateSlotWriter || !inner.cfg.fast_path {
                return;
            }
            let mut stale: Vec<(u32, SlotGrantInfo)> = inner
                .slot_grants
                .iter()
                .filter(|(_, g)| g.view < new_view)
                .map(|(&p, &g)| (p, g))
                .collect();
            // HashMap order is not deterministic; the simulation is.
            stale.sort_unstable_by_key(|(p, _)| *p);
            (inner.transport.clone(), stale, inner.low_mark + 1)
        };
        if stale.is_empty() {
            return;
        }
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
            transport.write_slot(
                sim,
                peer,
                g.rkey,
                slot * g.slot_size,
                &msg.encode(),
                imm,
                Box::new(|_, _| {}),
            );
        }
        self.inner.borrow_mut().slot_grants.clear();
    }

    // ------------------------------------------------------------------
    // Agreement
    // ------------------------------------------------------------------

    fn handle_pre_prepare(
        &self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<Request>,
    ) {
        let accepted = {
            let mut inner = self.inner.borrow_mut();
            if view != inner.view || inner.in_view_change {
                return;
            }
            if inner.cfg.primary(view) == inner.id {
                return; // primaries do not take pre-prepares
            }
            if !inner.in_watermarks(seq) {
                return;
            }
            // Verify the digest binds the batch.
            let core = inner.affinity.seq_core(seq);
            let cost = inner.cfg.crypto.digest_cost(batch_bytes(&batch));
            inner.charge(sim, core, cost);
            if batch_digest(&batch) != digest {
                false
            } else {
                let me = inner.id;
                let lane = inner.affinity.lane_of(seq);
                if inner.pipelines[lane].accept_pre_prepare(view, seq, digest, batch, me) {
                    inner.stats.prepares_sent += 1;
                    inner.counters[ReplicaCounter::PreparesSent].incr();
                    inner.note_pre_prepare(sim.now(), seq);
                    true
                } else {
                    false
                }
            }
        };
        if !accepted {
            return;
        }
        let me = self.id();
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
    fn accept_pre_prepare(
        &self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<Request>,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            let lane = inner.affinity.lane_of(seq);
            inner.pipelines[lane].install(
                seq,
                Instance {
                    view,
                    digest: Some(digest),
                    batch: Some(batch),
                    pre_prepared: true,
                    ..Instance::default()
                },
            );
            inner.note_pre_prepare(sim.now(), seq);
        }
        self.maybe_prepared(sim, seq);
    }

    fn handle_prepare(
        &self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            if view != inner.view || inner.in_view_change || !inner.in_watermarks(seq) {
                return;
            }
            let lane = inner.affinity.lane_of(seq);
            if !inner.pipelines[lane].add_prepare(view, seq, digest, replica) {
                return; // vote for a different digest
            }
        }
        self.maybe_prepared(sim, seq);
    }

    fn maybe_prepared(&self, sim: &mut Simulator, seq: SeqNum) {
        let commit = {
            let mut inner = self.inner.borrow_mut();
            // The primary's pre-prepare plus 2f prepares (for the primary
            // itself, 2f prepares from backups).
            let quorum = inner.cfg.prepare_quorum();
            let me = inner.id;
            let view = inner.view;
            let lane = inner.affinity.lane_of(seq);
            let now = sim.now();
            let Some((digest, since_pp)) = inner.pipelines[lane].try_prepare(seq, quorum, me, now)
            else {
                return;
            };
            inner.stats.commits_sent += 1;
            inner.counters[ReplicaCounter::CommitsSent].incr();
            if let Some(d) = since_pp {
                inner.histos[ReplicaHisto::PreprepareToPrepared].observe(d);
            }
            Some((view, digest))
        };
        let Some((view, digest)) = commit else { return };
        let me = self.id();
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

    fn handle_commit(
        &self,
        sim: &mut Simulator,
        view: View,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            if view != inner.view || inner.in_view_change || !inner.in_watermarks(seq) {
                return;
            }
            let lane = inner.affinity.lane_of(seq);
            if !inner.pipelines[lane].add_commit(seq, digest, replica) {
                return;
            }
        }
        self.maybe_committed(sim, seq);
    }

    fn maybe_committed(&self, sim: &mut Simulator, seq: SeqNum) {
        {
            let mut inner = self.inner.borrow_mut();
            let quorum = inner.cfg.commit_quorum();
            let lane = inner.affinity.lane_of(seq);
            let Some(since_prep) = inner.pipelines[lane].try_commit(seq, quorum, sim.now()) else {
                return;
            };
            if let Some(d) = since_prep {
                inner.histos[ReplicaHisto::PreparedToCommitted].observe(d);
            }
            inner.lane_committed[lane].incr();
        }
        self.try_execute(sim);
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn try_execute(&self, sim: &mut Simulator) {
        loop {
            let (seq, batch) = {
                let mut inner = self.inner.borrow_mut();
                // The executor is the only cross-pipeline synchronization
                // point: it releases committed batches strictly in sequence
                // order, whatever the commit order across pipelines was.
                let popped = {
                    let ReplicaInner {
                        pipelines,
                        executor,
                        ..
                    } = &mut *inner;
                    executor.pop_ready(pipelines)
                };
                let Some(exec) = popped else {
                    drop(inner);
                    // A checkpoint certified while this replica was behind
                    // may now be reachable.
                    self.maybe_deferred_stable(sim);
                    // Every caller that moved `last_executed` without a
                    // pop (state transfer, catch-up) leaves through here,
                    // so a held partial batch or a full window never
                    // waits for the next arrival to be re-examined.
                    self.try_propose(sim);
                    return;
                };
                let since_commit = exec
                    .committed_at
                    .map(|t| sim.now().as_nanos().saturating_sub(t.as_nanos()));
                inner.stats.executed_batches += 1;
                inner.counters[ReplicaCounter::BatchesExecuted].incr();
                if let Some(d) = since_commit {
                    inner.histos[ReplicaHisto::CommittedToExecuted].observe(d);
                }
                (exec.seq, exec.batch)
            };
            let mut replies = Vec::new();
            {
                let mut inner = self.inner.borrow_mut();
                for req in &batch {
                    // Deduplicate across re-proposals (view changes).
                    if inner.executed(req) {
                        continue;
                    }
                    let cost = inner.service.op_cost(req);
                    inner.charge(sim, CoreId(0), cost);
                    let result = inner.service.apply(req);
                    inner
                        .client_state
                        .insert(req.client, (req.timestamp, result.clone()));
                    inner.proposed.remove(&(req.client, req.timestamp));
                    inner.stats.executed_requests += 1;
                    inner.counters[ReplicaCounter::RequestsExecuted].incr();
                    replies.push((req.client, req.timestamp, result));
                }
                // Only a primary pops `pending` to propose; everyone else
                // retires requests here, once executed, so the buffer (and
                // `on_request`'s scan of it) stays as short as the
                // unexecuted backlog.
                while inner.pending.front().is_some_and(|r| inner.executed(r)) {
                    inner.pending.pop_front();
                }
            }
            for (client, ts, result) in replies {
                self.send_reply(sim, client, ts, result);
            }
            // Agreement-free reads: publish the cells this batch dirtied
            // into the leased region.
            self.publish_region_writes(sim);
            // Durability: log the executed batch before it is reflected in
            // any checkpoint, so a crash between checkpoints replays it.
            {
                let mut inner = self.inner.borrow_mut();
                if inner.durable.is_some() {
                    let digest = inner
                        .executor
                        .executed_log
                        .last()
                        .map_or(Digest::ZERO, |&(_, d)| d);
                    let frame = WalFrame {
                        seq,
                        digest,
                        requests: batch.clone(),
                    };
                    let now = sim.now();
                    let ReplicaInner { durable, .. } = &mut *inner;
                    durable
                        .as_mut()
                        .expect("checked above")
                        .append_batch(now, &frame);
                }
            }
            // Checkpointing.
            let is_checkpoint = {
                let inner = self.inner.borrow();
                seq.is_multiple_of(inner.cfg.checkpoint_interval)
            };
            if is_checkpoint {
                self.make_checkpoint(sim, seq);
            }
            // New window space may allow further proposals.
            self.try_propose(sim);
        }
    }

    fn send_reply(&self, sim: &mut Simulator, client: ClientId, timestamp: u64, result: Vec<u8>) {
        let (view, me) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.replies_sent += 1;
            (inner.view, inner.id)
        };
        self.send_msg(
            sim,
            Message::Reply {
                view,
                client,
                timestamp,
                replica: me,
                result,
            },
            &[client],
        );
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    /// Seals the executed state at checkpoint `seq` into a
    /// [`CheckpointStore`], registers it for one-sided reads (where the
    /// transport supports it), votes for its root and broadcasts the vote
    /// with the read offer piggybacked.
    fn make_checkpoint(&self, sim: &mut Simulator, seq: SeqNum) {
        let (reg_bytes, transport) = {
            let mut inner = self.inner.borrow_mut();
            let payload = inner.build_checkpoint_payload(seq).encode();
            let cost = inner.cfg.crypto.digest_cost(payload.len().max(64));
            inner.charge(sim, CoreId(0), cost);
            let store = CheckpointStore::build(seq, payload);
            inner.own_checkpoints.insert(seq, store.root());
            // What actually backs the read offer depends on honesty: a
            // Byzantine responder registers corrupted or stale bytes while
            // still voting the honest root.
            let reg_bytes: Vec<u8> = match inner.byzantine {
                ByzantineMode::BogusStateChunks => corrupt_chunks(store.bytes()),
                ByzantineMode::StaleCheckpoint => {
                    let mut stale = inner
                        .stores
                        .last_key_value()
                        .map(|(_, (prev, _))| prev.bytes().to_vec())
                        .unwrap_or_else(|| corrupt_chunks(store.bytes()));
                    // Pad to the honest length so remote reads stay within
                    // the region (the *content* is what's wrong).
                    stale.resize(store.bytes().len(), 0);
                    stale
                }
                _ => store.bytes().to_vec(),
            };
            inner.stores.insert(seq, (store, StateOffer::default()));
            (reg_bytes, inner.transport.clone())
        };
        let mut offer = transport
            .register_state_region(sim, &reg_bytes)
            .unwrap_or_default();
        let (msg, root, released) = {
            let mut inner = self.inner.borrow_mut();
            // Tag the freshly registered region with the current recovery
            // epoch; fetchers echo the tag and responders reject mismatches.
            offer.epoch = inner.recovery_epoch;
            let root = {
                let entry = inner.stores.get_mut(&seq).expect("just inserted");
                entry.1 = offer;
                entry.0.root()
            };
            let me = inner.id;
            let advertised = inner.advertised_offer(offer);
            inner
                .checkpoint_votes
                .entry(seq)
                .or_default()
                .entry(root)
                .or_default()
                .insert(me, advertised);
            // Retain the latest two stores; release everything older so the
            // registered regions do not accumulate.
            let mut released = Vec::new();
            while inner.stores.len() > 2 {
                let (_, (_, old_offer)) = inner.stores.pop_first().expect("len > 2");
                if old_offer.readable() {
                    released.push(old_offer);
                }
            }
            (
                Message::Checkpoint {
                    seq,
                    state_digest: root,
                    replica: me,
                    store_rkey: advertised.rkey,
                    store_len: advertised.len,
                    store_epoch: advertised.epoch,
                },
                root,
                released,
            )
        };
        for old in released {
            transport.release_state_region(&old);
        }
        self.broadcast_to_replicas(sim, msg);
        self.maybe_stable_checkpoint(sim, seq, root);
    }

    fn handle_checkpoint(
        &self,
        sim: &mut Simulator,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
        offer: StateOffer,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            if seq <= inner.low_mark || replica >= inner.cfg.n as u32 {
                return;
            }
            inner
                .checkpoint_votes
                .entry(seq)
                .or_default()
                .entry(digest)
                .or_default()
                .insert(replica, offer);
            // A re-broadcast vote after an epoch roll carries the
            // responder's *fresh* offer; refresh it into any in-flight
            // transfer for the same certificate so the fetcher does not
            // keep probing an rkey the roll just revoked.
            if let Some(t) = inner.transfer.as_mut() {
                if t.target == seq && t.root == digest {
                    if let Some(p) = t.peers.iter_mut().find(|(id, _)| *id == replica) {
                        p.1 = offer;
                    }
                }
            }
        }
        self.maybe_stable_checkpoint(sim, seq, digest);
    }

    fn maybe_stable_checkpoint(&self, sim: &mut Simulator, seq: SeqNum, digest: Digest) {
        let mut inner = self.inner.borrow_mut();
        if seq <= inner.low_mark {
            return;
        }
        let quorum = inner.cfg.commit_quorum();
        let votes = inner
            .checkpoint_votes
            .get(&seq)
            .and_then(|m| m.get(&digest))
            .map_or(0, HashMap::len);
        if votes < quorum {
            return;
        }
        if inner.executor.last_executed < seq {
            // Certified, but this replica has not executed up to it: defer
            // stabilization and give ordinary catch-up one grace period
            // before falling back to full state transfer.
            let arm = inner.pending_stable.is_none_or(|(s, _)| s < seq);
            if arm {
                inner.pending_stable = Some((seq, digest));
                drop(inner);
                self.arm_transfer_grace(sim, seq);
            }
            return;
        }
        // Stable: advance the low watermark and truncate every pipeline.
        inner.low_mark = seq;
        if inner.pending_stable.is_some_and(|(s, _)| s <= seq) {
            inner.pending_stable = None;
        }
        inner.stats.stable_checkpoints += 1;
        let freed: u64 = inner
            .pipelines
            .iter_mut()
            .map(|pl| pl.truncate_through(seq))
            .sum();
        inner.checkpoint_votes.retain(|&s, _| s > seq);
        inner.catch_up_votes.retain(|&s, _| s > seq);
        inner.own_checkpoints.retain(|&s, _| s >= seq);
        // Fast-path slots whose occupants fell below the new low watermark
        // are stably checkpointed and may be recycled; occupants still in
        // the window keep their slot reserved (see `slot_accept`).
        inner.slot_seqs.retain(|_, s| *s > seq);
        // Executed requests can no longer feed phase latencies; drop their
        // arrival stamps so the map stays bounded by the window.
        {
            let ReplicaInner {
                arrivals,
                client_state,
                ..
            } = &mut *inner;
            arrivals.retain(|(c, ts), _| client_state.get(c).is_none_or(|(t, _)| *t < *ts));
        }
        inner.counters[ReplicaCounter::CheckpointsStable].incr();
        inner.counters[ReplicaCounter::CheckpointGcFreed].add(freed);
        inner.metrics.trace(
            sim.now(),
            "reptor",
            format!(
                "{}checkpoint_stable seq={seq} freed={freed}",
                inner.metrics_prefix
            ),
        );
        // Durability: every `snapshot_every`-th stable checkpoint is
        // persisted from its sealed store (the payload as it was at `seq`,
        // not the service's current — possibly later — state) and the WAL
        // compacts down to frames past it.
        let due = inner
            .durable
            .as_mut()
            .is_some_and(DurableStore::record_stable);
        if due {
            let payload = inner.stores.get(&seq).map(|(s, _)| s.bytes().to_vec());
            if let Some(payload) = payload {
                let now = sim.now();
                let ReplicaInner { durable, .. } = &mut *inner;
                durable
                    .as_mut()
                    .expect("checked above")
                    .write_snapshot(now, seq, &payload);
            }
        }
    }

    // ------------------------------------------------------------------
    // State transfer (below-checkpoint recovery and cold rejoin)
    // ------------------------------------------------------------------

    /// Stabilizes a deferred checkpoint once execution has reached it.
    fn maybe_deferred_stable(&self, sim: &mut Simulator) {
        let ready = {
            let inner = self.inner.borrow();
            inner
                .pending_stable
                .filter(|&(s, _)| inner.executor.last_executed >= s)
        };
        if let Some((seq, digest)) = ready {
            self.inner.borrow_mut().pending_stable = None;
            self.maybe_stable_checkpoint(sim, seq, digest);
        }
    }

    /// One grace period between "certified checkpoint this replica has not
    /// reached" and full state transfer: per-instance catch-up is cheaper
    /// when the gap is small, so it gets the first try.
    fn arm_transfer_grace(&self, sim: &mut Simulator, seq: SeqNum) {
        let timeout = self.inner.borrow().cfg.view_change_timeout;
        let replica = self.clone();
        sim.schedule_in(
            timeout,
            Box::new(move |sim| {
                let go = {
                    let inner = replica.inner.borrow();
                    inner.byzantine != ByzantineMode::Crash
                        && inner.transfer.is_none()
                        && inner.pending_stable.is_some_and(|(s, _)| s == seq)
                        && inner.executor.last_executed < seq
                };
                if go {
                    replica.maybe_start_transfer(sim);
                }
            }),
        );
    }

    /// Starts a transfer towards the highest checkpoint attested by
    /// `f + 1` matching votes beyond this replica's execution horizon —
    /// enough to guarantee at least one honest replica vouches for that
    /// exact state (stabilization still demands `2f + 1`).
    fn maybe_start_transfer(&self, sim: &mut Simulator) {
        let plan = {
            let inner = self.inner.borrow();
            if inner.transfer.is_some() {
                return;
            }
            let f = inner.cfg.f();
            let me = inner.id;
            let le = inner.executor.last_executed;
            inner
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
                })
        };
        if let Some((seq, root, peers)) = plan {
            self.start_state_transfer(sim, seq, root, peers);
        }
    }

    fn start_state_transfer(
        &self,
        sim: &mut Simulator,
        target: SeqNum,
        root: Digest,
        peers: Vec<(ReplicaId, StateOffer)>,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.transfer.is_some() || inner.executor.last_executed >= target {
                return;
            }
            let me = inner.id;
            let mut transfer = Transfer::new(target, root, peers, me);
            // Durable delta fetch: offer the locally recovered state as a
            // chunk candidate. Once the manifest arrives, every chunk it
            // digest-certifies that we already hold is satisfied without
            // touching the network.
            if inner.durable.is_some() && inner.executor.last_executed > 0 {
                let local = inner
                    .build_checkpoint_payload(inner.executor.last_executed)
                    .encode();
                transfer.set_local_candidate(local);
            }
            inner.transfer = Some(transfer);
            inner.stats.state_transfers_started += 1;
            inner.counters[ReplicaCounter::StateTransferStarted].incr();
            inner.metrics.trace(
                sim.now(),
                "reptor",
                format!(
                    "{}state_transfer_start target={target}",
                    inner.metrics_prefix
                ),
            );
        }
        self.arm_transfer_timer(sim);
        self.drive_transfer(sim);
    }

    /// Issues the next fetch step: the manifest first (always over the
    /// message path — it is what everything else is verified against),
    /// then chunks in order: one-sided RDMA READs where the responder
    /// offered a registered region, `StateRequest` messages otherwise.
    /// One operation is outstanding at a time; the stall timer covers
    /// losses and silent responders.
    fn drive_transfer(&self, sim: &mut Simulator) {
        enum Step {
            Manifest(ReplicaId, SeqNum, u64),
            Read(ReplicaId, StateOffer, SeqNum, u32, usize),
            Request(ReplicaId, SeqNum, u32, u64),
            Done,
        }
        let me = self.id();
        let step = {
            let inner = self.inner.borrow();
            let Some(t) = &inner.transfer else { return };
            let (peer, offer) = t.current_peer();
            match &t.manifest {
                None => Step::Manifest(peer, t.target, offer.epoch),
                Some(manifest) => match t.next_missing() {
                    Some(idx) => {
                        let len = manifest.chunk_len(idx);
                        if offer.readable() {
                            Step::Read(peer, offer, t.target, idx, len)
                        } else {
                            Step::Request(peer, t.target, idx, offer.epoch)
                        }
                    }
                    None => Step::Done,
                },
            }
        };
        match step {
            Step::Manifest(peer, seq, epoch) => self.send_msg(
                sim,
                Message::StateRequest {
                    seq,
                    chunk: MANIFEST_CHUNK,
                    replica: me,
                    epoch,
                },
                &[peer],
            ),
            Step::Request(peer, seq, chunk, epoch) => self.send_msg(
                sim,
                Message::StateRequest {
                    seq,
                    chunk,
                    replica: me,
                    epoch,
                },
                &[peer],
            ),
            Step::Read(peer, offer, seq, idx, len) => {
                let transport = self.inner.borrow().transport.clone();
                let replica = self.clone();
                let issued = transport.read_state(
                    sim,
                    peer,
                    offer.rkey,
                    idx as u64 * CHUNK_SIZE as u64,
                    len,
                    Box::new(move |sim, data| replica.on_state_read_done(sim, seq, idx, data)),
                );
                if issued {
                    self.inner.borrow_mut().counters[ReplicaCounter::StateTransferReads].incr();
                } else {
                    // No live one-sided path to this responder right now
                    // (channel down or re-dialing): use the message path.
                    self.send_msg(
                        sim,
                        Message::StateRequest {
                            seq,
                            chunk: idx,
                            replica: me,
                            epoch: offer.epoch,
                        },
                        &[peer],
                    );
                }
            }
            Step::Done => self.finish_transfer(sim),
        }
    }

    /// Completion of a one-sided chunk READ.
    fn on_state_read_done(
        &self,
        sim: &mut Simulator,
        seq: SeqNum,
        idx: u32,
        data: Option<Vec<u8>>,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.byzantine == ByzantineMode::Crash {
                return;
            }
            let mut accepted_bytes = 0u64;
            let mut retried = false;
            {
                let Some(t) = inner.transfer.as_mut() else {
                    return;
                };
                if t.target != seq {
                    return;
                }
                match &data {
                    Some(bytes) => match t.accept_chunk(idx, bytes) {
                        ChunkVerdict::Accepted => accepted_bytes = bytes.len() as u64,
                        ChunkVerdict::Mismatch => {
                            t.next_peer();
                            retried = true;
                        }
                        ChunkVerdict::Ignored => {}
                    },
                    // Failed READ (stale rkey, flushed queue pair): rotate.
                    None => {
                        t.next_peer();
                        retried = true;
                    }
                }
            }
            if accepted_bytes > 0 {
                inner.counters[ReplicaCounter::StateTransferChunks].incr();
                inner.counters[ReplicaCounter::StateTransferBytes].add(accepted_bytes);
            }
            if retried {
                inner.stats.state_transfer_retries += 1;
                inner.counters[ReplicaCounter::StateTransferRetries].incr();
            }
        }
        self.drive_transfer(sim);
    }

    /// Serves a manifest or chunk of a retained checkpoint store over the
    /// message path (`chunk == MANIFEST_CHUNK` selects the manifest).
    fn handle_state_request(
        &self,
        sim: &mut Simulator,
        seq: SeqNum,
        chunk: u32,
        requester: ReplicaId,
        epoch: u64,
    ) {
        let reply = {
            let mut inner = self.inner.borrow_mut();
            if requester == inner.id || requester >= inner.cfg.n as u32 {
                return;
            }
            // Message-path mirror of the RNIC rkey fence: a request tagged
            // with a stale recovery epoch is refused outright. The fetcher's
            // stall timer rotates it to a peer with a fresh offer.
            if epoch != inner.recovery_epoch {
                inner.stats.stale_epoch_rejected += 1;
                inner.counters[ReplicaCounter::StaleEpochRejected].incr();
                return;
            }
            // A StaleCheckpoint responder answers with its *oldest*
            // retained store's content under the requested seq; the
            // fetcher's root/digest checks catch the substitution.
            let store = match inner.byzantine {
                ByzantineMode::StaleCheckpoint => inner.stores.values().next().map(|(s, _)| s),
                _ => inner.stores.get(&seq).map(|(s, _)| s),
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
            let data = if inner.byzantine == ByzantineMode::BogusStateChunks {
                corrupt_chunks(&data)
            } else {
                data
            };
            Message::StateChunk {
                seq,
                chunk,
                data,
                replica: inner.id,
            }
        };
        self.send_msg(sim, reply, &[requester]);
    }

    /// A manifest or chunk arriving over the message path.
    fn handle_state_chunk(
        &self,
        sim: &mut Simulator,
        seq: SeqNum,
        chunk: u32,
        data: Vec<u8>,
        _replica: ReplicaId,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            let mut accepted_bytes = 0u64;
            let mut retried = false;
            let mut local = (0u64, 0u64);
            {
                let Some(t) = inner.transfer.as_mut() else {
                    return;
                };
                if t.target != seq {
                    return;
                }
                if chunk == MANIFEST_CHUNK {
                    if t.manifest.is_none() && !t.install_manifest(&data) {
                        // Stale or forged manifest: route around.
                        t.next_peer();
                        retried = true;
                    } else {
                        local = t.prefill_from_local();
                    }
                } else {
                    match t.accept_chunk(chunk, &data) {
                        ChunkVerdict::Accepted => accepted_bytes = data.len() as u64,
                        ChunkVerdict::Mismatch => {
                            t.next_peer();
                            retried = true;
                        }
                        ChunkVerdict::Ignored => {}
                    }
                }
            }
            if accepted_bytes > 0 {
                inner.counters[ReplicaCounter::StateTransferChunks].incr();
                inner.counters[ReplicaCounter::StateTransferBytes].add(accepted_bytes);
            }
            if local.0 > 0 {
                inner.counters[ReplicaCounter::StateTransferChunksLocal].add(local.0);
                inner.counters[ReplicaCounter::StateTransferBytesLocal].add(local.1);
            }
            if retried {
                inner.stats.state_transfer_retries += 1;
                inner.counters[ReplicaCounter::StateTransferRetries].incr();
            }
        }
        self.drive_transfer(sim);
    }

    /// Installs a fully verified transfer: restores the service snapshot,
    /// rebuilds the client session table, fast-forwards the executor past
    /// the checkpoint and resumes normal operation above it.
    fn finish_transfer(&self, sim: &mut Simulator) {
        let (target, payload, bytes) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.transfer.as_ref().is_some_and(Transfer::is_complete) {
                return;
            }
            let t = inner.transfer.take().expect("checked above");
            let bytes = t.assemble().expect("complete transfer assembles");
            let Some(payload) = CheckpointPayload::decode(&bytes) else {
                // Digest-verified bytes that do not decode mean the
                // certifying quorum itself was faulty (> f faults); there
                // is no correct state to install.
                inner.counters[ReplicaCounter::StateTransferUndecodable].incr();
                return;
            };
            (t.target, payload, bytes)
        };
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.service.restore(&payload.service_snapshot) {
                inner.counters[ReplicaCounter::StateTransferRestoreFailed].incr();
                return;
            }
            inner.client_state = payload
                .clients
                .iter()
                .map(|(c, ts, reply)| (*c, (*ts, reply.clone())))
                .collect();
            inner.executor.fast_forward(target);
            inner.low_mark = target;
            if inner.next_seq <= target {
                inner.next_seq = target + 1;
            }
            for pl in &mut inner.pipelines {
                pl.truncate_through(target);
            }
            inner.checkpoint_votes.retain(|&s, _| s > target);
            inner.catch_up_votes.retain(|&s, _| s > target);
            inner.own_checkpoints.retain(|&s, _| s >= target);
            inner.slot_seqs.retain(|&_, s| *s > target);
            if inner.pending_stable.is_some_and(|(s, _)| s <= target) {
                inner.pending_stable = None;
            }
            inner.stats.state_transfers_completed += 1;
            inner.counters[ReplicaCounter::StateTransferCompleted].incr();
            // The replica is provisioned again: the next crash's rejoin
            // probes must start back at the base backoff period.
            inner.rejoin_attempts = 0;
            // Persist the installed checkpoint: a later cold restart
            // resumes from here instead of re-fetching everything.
            let now = sim.now();
            {
                let ReplicaInner { durable, .. } = &mut *inner;
                if let Some(d) = durable.as_mut() {
                    d.write_snapshot(now, target, &bytes);
                }
            }
            inner.metrics.trace(
                sim.now(),
                "reptor",
                format!(
                    "{}state_transfer_done target={target}",
                    inner.metrics_prefix
                ),
            );
        }
        // The service state just jumped wholesale; any outstanding read
        // lease exposes a pre-transfer image and must roll.
        self.roll_read_lease(sim);
        // Seal and attest the installed state as this replica's own
        // checkpoint (other laggards may fetch from it in turn), then
        // resume per-instance catch-up for everything past it.
        self.make_checkpoint(sim, target);
        self.inner.borrow_mut().last_catch_up_at = 0;
        self.request_catch_up(sim);
        self.try_execute(sim);
    }

    /// Stall detection: while a transfer is active, check every timeout
    /// period that it made progress; if not, rotate to the next attester
    /// and re-drive (covers lost messages, failed READs and silent or
    /// Byzantine responders).
    fn arm_transfer_timer(&self, sim: &mut Simulator) {
        let (timeout, mark) = {
            let inner = self.inner.borrow();
            let Some(t) = &inner.transfer else { return };
            (inner.cfg.view_change_timeout, t.progress())
        };
        let replica = self.clone();
        sim.schedule_in(
            timeout,
            Box::new(move |sim| {
                let stalled = {
                    let mut inner = replica.inner.borrow_mut();
                    if inner.byzantine == ByzantineMode::Crash {
                        return;
                    }
                    let stalled = {
                        let Some(t) = inner.transfer.as_mut() else {
                            return;
                        };
                        if t.progress() == mark {
                            t.next_peer();
                            true
                        } else {
                            false
                        }
                    };
                    if stalled {
                        inner.stats.state_transfer_retries += 1;
                        inner.counters[ReplicaCounter::StateTransferRetries].incr();
                    }
                    stalled
                };
                if stalled {
                    replica.drive_transfer(sim);
                }
                replica.arm_transfer_timer(sim);
            }),
        );
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
        let (attempts, generation, le_at_arm, timeout) = {
            let inner = self.inner.borrow();
            (
                inner.rejoin_attempts,
                inner.rejoin_generation,
                inner.executor.last_executed,
                backoff(inner.cfg.view_change_timeout, inner.rejoin_attempts),
            )
        };
        if attempts >= MAX_PROBES {
            return;
        }
        let replica = self.clone();
        sim.schedule_in(
            timeout,
            Box::new(move |sim| {
                {
                    let inner = replica.inner.borrow();
                    if inner.byzantine == ByzantineMode::Crash {
                        return;
                    }
                    // A later restart started its own probe chain; this
                    // one is stale — die rather than compound the backoff.
                    if inner.rejoin_generation != generation {
                        return;
                    }
                    // Rejoined: the replica advanced past where it stood
                    // when this probe was armed (by transfer or by live
                    // execution) with no transfer in flight. A durable
                    // recovery restarts *at* `le_at_arm`, so local replay
                    // alone never satisfies this — the replica keeps
                    // probing until peers confirm it is current or the
                    // budget runs out.
                    if inner.executor.last_executed > le_at_arm && inner.transfer.is_none() {
                        return;
                    }
                }
                replica.inner.borrow_mut().rejoin_attempts += 1;
                replica.request_catch_up(sim);
                replica.maybe_start_transfer(sim);
                replica.arm_rejoin_probe(sim);
            }),
        );
    }

    // ------------------------------------------------------------------
    // Catch-up (lagging-replica recovery)
    // ------------------------------------------------------------------

    /// A peer reports it may have missed committed instances: re-send the
    /// executed `(seq, view, digest, batch)` certificates it asks for, one
    /// bounded page at a time. Instances truncated below the stable
    /// checkpoint cannot be served per-instance — a requester that far
    /// behind is sent this replica's latest checkpoint attestation
    /// instead, steering it into state transfer.
    fn handle_catch_up_request(&self, sim: &mut Simulator, from_seq: SeqNum, requester: ReplicaId) {
        /// Per-request page cap. A still-lagging replica asks again from
        /// its new horizon, so pagination bounds every reply burst without
        /// stalling convergence.
        const MAX_INSTANCES: usize = 32;
        let (attest, replies, truncated) = {
            let inner = self.inner.borrow();
            if requester == inner.id || requester >= inner.cfg.n as u32 {
                return;
            }
            let me = inner.id;
            // Below the stable checkpoint: that history is gone. Attest the
            // latest sealed checkpoint (a StaleCheckpoint responder lies
            // and attests its oldest; `f + 1` matching honest attestations
            // outvote it at the requester).
            let attest = if from_seq <= inner.low_mark {
                let pick = match inner.byzantine {
                    ByzantineMode::StaleCheckpoint => inner.stores.iter().next(),
                    _ => inner.stores.iter().next_back(),
                };
                pick.map(|(&s, (store, offer))| {
                    let advertised = inner.advertised_offer(*offer);
                    Message::Checkpoint {
                        seq: s,
                        state_digest: store.root(),
                        replica: me,
                        store_rkey: advertised.rkey,
                        store_len: advertised.len,
                        store_epoch: advertised.epoch,
                    }
                })
            } else {
                None
            };
            // Merge the per-pipeline logs back into one seq-ordered view of
            // the executed history (each pipeline holds a disjoint residue
            // class, so a sort by seq is a perfect merge).
            let last = inner.executor.last_executed;
            let mut executed: Vec<(SeqNum, &Instance)> = if from_seq <= last {
                inner
                    .pipelines
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
            (attest, replies, truncated)
        };
        if let Some(msg) = attest {
            self.send_msg(sim, msg, &[requester]);
        }
        if replies.is_empty() {
            return;
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.catch_up_replies_sent += replies.len() as u64;
            inner.counters[ReplicaCounter::CatchUpRepliesSent].add(replies.len() as u64);
            if truncated {
                inner.stats.catch_up_replies_truncated += 1;
                inner.counters[ReplicaCounter::CatchUpRepliesTruncated].incr();
            }
        }
        for msg in replies {
            self.send_msg(sim, msg, &[requester]);
        }
    }

    /// `f + 1` matching CATCH-UP-REPLY certificates prove at least one
    /// honest replica executed `(seq, digest)`, which requires a commit
    /// quorum — the batch is final and safe to commit locally, even while
    /// a view change is in progress.
    fn handle_catch_up_reply(
        &self,
        sim: &mut Simulator,
        seq: SeqNum,
        view: View,
        digest: Digest,
        batch: Vec<Request>,
        replica: ReplicaId,
    ) {
        enum Outcome {
            Ignore,
            TryExec,
            Commit(View, Vec<Request>),
        }
        let outcome = {
            let mut inner = self.inner.borrow_mut();
            if replica >= inner.cfg.n as u32 || seq <= inner.executor.last_executed {
                Outcome::Ignore
            } else {
                // The digest must bind the batch, like a pre-prepare.
                let core = inner.affinity.seq_core(seq);
                let cost = inner.cfg.crypto.digest_cost(batch_bytes(&batch));
                inner.charge(sim, core, cost);
                let lane = inner.affinity.lane_of(seq);
                if batch_digest(&batch) != digest {
                    Outcome::Ignore
                } else if inner.pipelines[lane]
                    .log
                    .get(&seq)
                    .is_some_and(|e| e.executed || e.committed)
                {
                    // Already certified through the normal path; the gap
                    // may sit earlier in the log.
                    Outcome::TryExec
                } else {
                    let f = inner.cfg.f();
                    let le = inner.executor.last_executed;
                    inner.catch_up_votes.retain(|&s, _| s > le);
                    let (voters, stored) = inner
                        .catch_up_votes
                        .entry(seq)
                        .or_default()
                        .entry(digest)
                        .or_default();
                    voters.insert(replica);
                    if stored.is_none() {
                        *stored = Some((view, batch));
                    }
                    if voters.len() > f {
                        let (v, b) = stored.clone().expect("stored with first vote");
                        Outcome::Commit(v, b)
                    } else {
                        Outcome::Ignore
                    }
                }
            }
        };
        match outcome {
            Outcome::Ignore => {}
            Outcome::TryExec => self.try_execute(sim),
            Outcome::Commit(cview, cbatch) => {
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.catch_up_votes.remove(&seq);
                    let now = sim.now();
                    let lane = inner.affinity.lane_of(seq);
                    inner.pipelines[lane].install(
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
                    inner.pipelines[lane].committed += 1;
                    inner.lane_committed[lane].incr();
                    inner.stats.catch_ups_applied += 1;
                    inner.counters[ReplicaCounter::CatchUpsApplied].incr();
                    inner.metrics.trace(
                        now,
                        "reptor",
                        format!("{}catch_up_applied seq={seq}", inner.metrics_prefix),
                    );
                }
                self.try_execute(sim);
            }
        }
    }

    // ------------------------------------------------------------------
    // View change
    // ------------------------------------------------------------------

    fn start_view_change(&self, sim: &mut Simulator, new_view: View) {
        let msg = {
            let mut inner = self.inner.borrow_mut();
            if new_view <= inner.voted_view || new_view <= inner.view {
                return;
            }
            inner.in_view_change = true;
            inner.voted_view = new_view;
            inner.stats.view_changes_sent += 1;
            inner.counters[ReplicaCounter::ViewChanges].incr();
            inner.metrics.trace(
                sim.now(),
                "reptor",
                format!("{}view_change new_view={new_view}", inner.metrics_prefix),
            );
            // Prepared certificates are scattered across the pipelines;
            // merge them back into one seq-ordered proof list (disjoint
            // residue classes, so sorting by seq is a perfect merge).
            let mut prepared: Vec<PreparedProof> = inner
                .pipelines
                .iter()
                .flat_map(|pl| pl.log.iter())
                .filter(|(s, e)| **s > inner.low_mark && e.prepared && !e.executed)
                .map(|(s, e)| PreparedProof {
                    seq: *s,
                    view: e.view,
                    digest: e.digest.expect("prepared has digest"),
                    batch: e.batch.clone().expect("prepared has batch"),
                })
                .collect();
            prepared.sort_unstable_by_key(|p| p.seq);
            let me = inner.id;
            let cp_digest = inner
                .own_checkpoints
                .get(&inner.low_mark)
                .copied()
                .unwrap_or(Digest::ZERO);
            Message::ViewChange {
                new_view,
                last_stable: inner.low_mark,
                checkpoint_digest: cp_digest,
                prepared,
                replica: me,
            }
        };
        // Revoke the (now suspect) leader's fast-path WRITE permission the
        // moment the vote is cast — strictly before any NewView quorum can
        // form — so a deposed leader's in-flight deposits are RNIC-denied.
        self.revoke_slot_region();
        // Record the own vote.
        if let Message::ViewChange {
            new_view,
            last_stable,
            ref prepared,
            replica,
            ..
        } = msg
        {
            self.inner
                .borrow_mut()
                .vc_votes
                .entry(new_view)
                .or_default()
                .insert(replica, (last_stable, prepared.clone()));
        }
        self.broadcast_to_replicas(sim, msg);
        // A vote may itself stem from this replica lagging behind a healthy
        // quorum; keep the recovery path active while the view change runs.
        self.request_catch_up(sim);
        self.maybe_new_view(sim, {
            let inner = self.inner.borrow();
            inner.voted_view
        });
        // Escalation: if the view change does not complete, vote higher,
        // doubling the timeout each attempt (PBFT's exponential backoff —
        // this also keeps an isolated replica from flooding itself).
        let replica = self.clone();
        let backoff = {
            let mut inner = self.inner.borrow_mut();
            inner.vc_attempts = (inner.vc_attempts + 1).min(16);
            let shift = inner.vc_attempts.min(10);
            inner.cfg.view_change_timeout * (1u64 << shift)
        };
        sim.schedule_in(
            backoff,
            Box::new(move |sim| {
                let mut stood_down_in = None;
                let next = {
                    let mut inner = replica.inner.borrow_mut();
                    if !inner.in_view_change || inner.byzantine == ByzantineMode::Crash {
                        None
                    } else {
                        // A view change needs f + 1 voters to gather
                        // support. A lone laggard whose catch-up round has
                        // since landed (every buffered request executed)
                        // stands down instead of escalating forever.
                        let caught_up = inner.pending.iter().all(|r| {
                            inner
                                .client_state
                                .get(&r.client)
                                .is_some_and(|(ts, _)| *ts >= r.timestamp)
                        });
                        if caught_up {
                            inner.in_view_change = false;
                            inner.vc_attempts = 0;
                            // Standing down effectively withdraws the
                            // outstanding votes: reset `voted_view` so a
                            // later, genuine view change re-votes with
                            // fresh prepared proofs instead of leaving a
                            // stale certificate snapshot live at peers.
                            inner.voted_view = inner.view;
                            inner.stats.view_changes_abandoned += 1;
                            inner.counters[ReplicaCounter::ViewChangesAbandoned].incr();
                            inner.metrics.trace(
                                sim.now(),
                                "reptor",
                                format!("{}view_change_abandoned", inner.metrics_prefix),
                            );
                            stood_down_in = Some(inner.view);
                            None
                        } else {
                            Some(inner.voted_view + 1)
                        }
                    }
                };
                if let Some(view) = stood_down_in {
                    // Standing down keeps the current leader in charge;
                    // re-arm its revoked fast-path grant with a fresh
                    // region so the one-sided path resumes.
                    replica.grant_slot_region(sim, view);
                }
                if let Some(v) = next {
                    replica.start_view_change(sim, v);
                }
            }),
        );
    }

    fn handle_view_change(
        &self,
        sim: &mut Simulator,
        new_view: View,
        last_stable: SeqNum,
        prepared: Vec<PreparedProof>,
        replica: ReplicaId,
    ) {
        let join = {
            let mut inner = self.inner.borrow_mut();
            if new_view <= inner.view {
                return;
            }
            inner
                .vc_votes
                .entry(new_view)
                .or_default()
                .insert(replica, (last_stable, prepared));
            // Liveness rule: join a view change supported by f + 1 others.
            let f = inner.cfg.f();
            inner.vc_votes[&new_view].len() > f && inner.voted_view < new_view
        };
        if join {
            self.start_view_change(sim, new_view);
        }
        self.maybe_new_view(sim, new_view);
    }

    fn maybe_new_view(&self, sim: &mut Simulator, new_view: View) {
        let build = {
            let inner = self.inner.borrow();
            let quorum = inner.cfg.commit_quorum();
            inner.cfg.primary(new_view) == inner.id
                && inner.view < new_view
                && inner
                    .vc_votes
                    .get(&new_view)
                    .is_some_and(|v| v.len() >= quorum)
        };
        if !build {
            return;
        }
        let (pre_prepares, me) = {
            let inner = self.inner.borrow();
            let votes = &inner.vc_votes[&new_view];
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
            let mut list = Vec::new();
            for seq in (max_stable + 1)..=max_seq {
                match best.get(&seq) {
                    Some(p) => list.push((seq, p.digest, p.batch.clone())),
                    // Gap: propose a null batch.
                    None => list.push((seq, batch_digest(&[]), Vec::new())),
                }
            }
            (list, inner.id)
        };
        self.broadcast_to_replicas(
            sim,
            Message::NewView {
                view: new_view,
                pre_prepares: pre_prepares.clone(),
                replica: me,
            },
        );
        self.enter_view(sim, new_view, pre_prepares, true);
    }

    fn handle_new_view(
        &self,
        sim: &mut Simulator,
        view: View,
        pre_prepares: Vec<(SeqNum, Digest, Vec<Request>)>,
        replica: ReplicaId,
    ) {
        {
            let inner = self.inner.borrow();
            if view <= inner.view || inner.cfg.primary(view) != replica {
                return;
            }
            // Validate digests bind the re-proposed batches.
            for (_, digest, batch) in &pre_prepares {
                if batch_digest(batch) != *digest {
                    return; // Byzantine new-view
                }
            }
        }
        self.enter_view(sim, view, pre_prepares, false);
    }

    fn enter_view(
        &self,
        sim: &mut Simulator,
        view: View,
        pre_prepares: Vec<(SeqNum, Digest, Vec<Request>)>,
        as_primary: bool,
    ) {
        // A LateSlotWriter learns of the new view here and fires its
        // retained — revoked — grants before adopting the view.
        self.maybe_fire_stale_slot_writes(sim, view);
        let prepares_to_send = {
            let mut inner = self.inner.borrow_mut();
            inner.view = view;
            inner.in_view_change = false;
            inner.vc_attempts = 0;
            inner.counters[ReplicaCounter::NewViewsEntered].incr();
            inner.metrics.trace(
                sim.now(),
                "reptor",
                format!("{}enter_view view={view}", inner.metrics_prefix),
            );
            inner.vc_votes.retain(|&v, _| v > view);
            // A deposed leader's grants died with the old view; followers
            // invalidated those regions when they voted.
            inner.slot_grants.retain(|_, g| g.view >= view);
            let mut max_seq = inner.next_seq - 1;
            let mut to_send = Vec::new();
            for (seq, digest, batch) in pre_prepares {
                max_seq = max_seq.max(seq);
                if seq <= inner.executor.last_executed {
                    continue;
                }
                for r in &batch {
                    inner.proposed.insert((r.client, r.timestamp));
                }
                let me = inner.id;
                let lane = inner.affinity.lane_of(seq);
                let entry = inner.pipelines[lane].install(
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
                inner.note_pre_prepare(sim.now(), seq);
                if !as_primary {
                    to_send.push((seq, digest));
                }
            }
            inner.next_seq = (max_seq + 1).max(inner.executor.last_executed + 1);
            to_send
        };
        let me = self.id();
        for (seq, digest) in prepares_to_send {
            {
                let mut inner = self.inner.borrow_mut();
                inner.stats.prepares_sent += 1;
                inner.counters[ReplicaCounter::PreparesSent].incr();
            }
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

    // ------------------------------------------------------------------
    // Outbound path
    // ------------------------------------------------------------------

    fn broadcast_to_replicas(&self, sim: &mut Simulator, msg: Message) {
        let peers: Vec<u32> = {
            let inner = self.inner.borrow();
            (0..inner.cfg.n as u32).filter(|&r| r != inner.id).collect()
        };
        self.send_msg(sim, msg, &peers);
    }

    fn send_msg(&self, sim: &mut Simulator, msg: Message, receivers: &[u32]) {
        if receivers.is_empty() {
            return;
        }
        let (signed, transport, send_at) = {
            let mut inner = self.inner.borrow_mut();
            if inner.byzantine == ByzantineMode::Crash {
                return;
            }
            let mut signed = SignedMessage::create(&msg, &inner.keys, receivers);
            if inner.byzantine == ByzantineMode::CorruptMacs {
                for (_, mac) in &mut signed.auth.macs {
                    mac[0] ^= 0xFF;
                }
            }
            let core = inner.msg_core(&msg);
            let cost = inner
                .cfg
                .crypto
                .authenticator_cost(signed.body.len(), receivers.len());
            let done = inner.charge(sim, core, cost);
            // Keep the wire order equal to the submission order even when
            // MAC work lands on different pipeline cores: the comm stack
            // still has a single outbound sender queue.
            let at = done.max(inner.send_horizon);
            inner.send_horizon = at;
            (signed, inner.transport.clone(), at)
        };
        let bytes = signed.encode();
        let receivers = receivers.to_vec();
        sim.schedule_at(
            send_at,
            Box::new(move |sim| {
                for &r in &receivers {
                    transport.send(sim, r, bytes.clone());
                }
            }),
        );
    }
}

impl ReplicaInner {
    /// True once `req`, or a later request of its client, has executed.
    fn executed(&self, req: &Request) -> bool {
        self.client_state
            .get(&req.client)
            .is_some_and(|(ts, _)| *ts >= req.timestamp)
    }

    /// True while a buffered request is live: neither executed nor sitting
    /// in an instance already proposed.
    fn awaits_proposal(&self, req: &Request) -> bool {
        !self.executed(req) && !self.proposed.contains(&(req.client, req.timestamp))
    }

    /// Marks `seq` as pre-prepared at `now`: stamps the instance and
    /// settles the request→pre-prepare latency for every request in the
    /// batch whose arrival this replica witnessed.
    fn note_pre_prepare(&mut self, now: Nanos, seq: SeqNum) {
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

    /// The agreement window `(low_mark, low_mark + 2L]`: the low watermark
    /// itself is *excluded* (it is covered by the stable checkpoint), the
    /// high watermark is *included* — matching `try_propose`, which blocks
    /// once `next_seq > low_mark + 2L`.
    fn in_watermarks(&self, seq: SeqNum) -> bool {
        seq > self.low_mark && seq <= self.low_mark + 2 * self.cfg.checkpoint_interval
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
    fn slot_accept(&mut self, seq: SeqNum) -> bool {
        let slot = seq % (2 * self.cfg.checkpoint_interval);
        if let Some(&prev) = self.slot_seqs.get(&slot) {
            if prev != seq && prev > self.low_mark {
                return false;
            }
        }
        self.slot_seqs.insert(slot, seq);
        true
    }

    /// Serializes the executed state at checkpoint `seq`: service snapshot
    /// plus the client session table, sorted by client id so every honest
    /// replica produces the identical byte string (and thus root digest).
    fn build_checkpoint_payload(&self, seq: SeqNum) -> CheckpointPayload {
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

    /// The store offer this replica actually advertises in checkpoint
    /// attestations. Honest replicas advertise the real (current-epoch)
    /// offer; a [`ByzantineMode::StaleEpochOffer`] replica substitutes the
    /// rkey of its previous, invalidated region re-tagged with the current
    /// epoch — the advisory epoch field is attacker-controlled, so every
    /// message-path check passes and only the responder RNIC refusing the
    /// revoked rkey exposes the lie.
    fn advertised_offer(&self, real: StateOffer) -> StateOffer {
        match (self.byzantine, self.stale_offer) {
            (ByzantineMode::StaleEpochOffer, Some(stale)) => StateOffer {
                rkey: stale.rkey,
                len: stale.len,
                epoch: self.recovery_epoch,
            },
            _ => real,
        }
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
