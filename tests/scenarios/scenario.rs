//! The scenario value, the world builder and the runner.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

use bft_crypto::Digest;
use kvstore::{KvHarness, KvStoreService, YcsbSpec};
use reptor::{
    ByzantineMode, Client, Cluster, CounterService, KvOp, KvService, RecoveryConfig,
    RecoveryScheduler, Replica, ReptorConfig, SeqNum, Stack, StateMachine,
};
use simnet::metrics::validate_json;
use simnet::{
    ChaosAction, ChaosSchedule, CpuModel, DiskFault, HostId, LatencyMatrix, LinkSpec, Nanos,
    Network, Simulator,
};

use super::common::chaos_seed;

/// One fault test as a plain value: the world to build, the timeline to
/// drive through it, and what must hold once it has run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The row's name, which is also the name of the `#[test]` that runs it.
    pub name: &'static str,
    pub stack: Stack,
    pub cfg: ReptorConfig,
    /// Agreement clients, node ids `n..`.
    pub clients: usize,
    pub service: Service,
    pub fabric: Fabric,
    /// The seed at `CHAOS_SEED=1`. The row runs at `seed + CHAOS_SEED − 1`.
    pub seed: u64,
    pub steps: Vec<Step>,
    pub expect: Vec<Expect>,
}

const _: fn() = || {
    fn plain_value<T: Clone + std::fmt::Debug>() {}
    plain_value::<Scenario>();
};

/// The replicated state machine.
#[derive(Clone, Copy, Debug)]
pub enum Service {
    /// `inc` requests; the result is the count so far.
    Counter,
    /// `reptor`'s key-value map.
    Kv,
    /// The leased KV store with this many region cells. A row with a YCSB
    /// step drives it through KV clients whose history must linearize.
    LeasedKv(usize),
}

impl Service {
    fn instance(self) -> Box<dyn StateMachine> {
        match self {
            Service::Counter => Box::<CounterService>::default(),
            Service::Kv => Box::<KvService>::default(),
            Service::LeasedKv(capacity) => Box::new(KvStoreService::new(capacity)),
        }
    }
}

/// Where the nodes run.
#[derive(Clone, Copy, Debug)]
pub enum Fabric {
    /// Node `i` on host `i`, each with 4 cores, in a 10 GbE full mesh.
    Lan,
    /// The same mesh with this one-way propagation delay.
    Propagation(Nanos),
    /// `cfg.n` replicas round-robin over the regions of this latency
    /// matrix, one host each, on the direct transport, the clients sharing
    /// this many hosts.
    Geo(fn() -> LatencyMatrix, usize),
}

/// Client requests.
#[derive(Clone, Copy, Debug)]
pub enum Ops {
    /// Counter increments.
    Incs(u64),
    /// `Puts(prefix, n, byte, stride)`: 32-byte values to the keys
    /// `{prefix}000`, `{prefix}001`, …; key `i`'s bytes are `byte + stride·i`.
    Puts(char, u64, u8, u8),
    /// Alternating puts and gets, this many per client, over 64 keys.
    Mixed(u64),
    /// Puts of 64 KiB values to the keys `big000`, `big001`, ….
    BigPuts(u64),
}

impl Ops {
    fn payloads(self, client: u64) -> Vec<Vec<u8>> {
        match self {
            Ops::Incs(n) => vec![b"inc".to_vec(); n as usize],
            Ops::Puts(prefix, n, byte, stride) => (0..n)
                .map(|i| {
                    let val = byte + stride * i as u8;
                    KvOp::Put(format!("{prefix}{i:03}").into_bytes(), vec![val; 32]).encode()
                })
                .collect(),
            Ops::Mixed(n) => (0..n)
                .map(|j| {
                    let key = format!("user{:06}", (client * 7 + j) % 64).into_bytes();
                    match j % 2 {
                        0 => KvOp::Put(key, format!("g{client}-{j}").into_bytes()),
                        _ => KvOp::Get(key),
                    }
                    .encode()
                })
                .collect(),
            Ops::BigPuts(n) => (0..n)
                .map(|i| {
                    KvOp::Put(format!("big{i:03}").into_bytes(), vec![i as u8; 64 << 10]).encode()
                })
                .collect(),
        }
    }
}

/// When a fault step acts.
#[derive(Clone, Copy, Debug)]
pub enum When {
    /// Immediately, on the fault plane, without a simulator event.
    Now,
    /// As a scheduled event this long from now.
    In(Nanos),
}

/// One step of a timeline.
#[derive(Clone, Debug)]
pub enum Step {
    /// Client 0 submits one request at a time, each once the last completed.
    Sequential(Ops),
    /// Every client submits its requests at once.
    Burst(Ops),
    /// `Window(k, n)`: every client keeps `k` increments outstanding until
    /// each has completed `n`.
    Window(u64, u64),
    /// Each KV client runs `ops` operations of `spec` in a closed loop under
    /// run seed `(seed + CHAOS_SEED − 1) ^ salt`, within `within` events.
    Ycsb {
        spec: YcsbSpec,
        seed: u64,
        salt: u64,
        ops: u64,
        within: u64,
    },
    /// Closed loop from client 0 until the recovery rotation completes, each
    /// request within two million events; records each completion instant.
    ThroughRotation,
    /// Run until every client has this many completions, and no further.
    Complete(u64),
    /// `CompleteWithin(n, events)`: the same, within that many events.
    CompleteWithin(u64, u64),
    /// The same, but the schedule may forbid it.
    Attempt(u64, u64),
    Idle,
    RunFor(Nanos),
    /// A fault-plane change.
    Chaos(When, ChaosAction),
    /// A link fault, now, from every host in the first range to every other
    /// host in the second.
    Links(Range<u32>, Range<u32>, Link),
    /// Cut node `i`'s host off from every other host.
    Isolate(usize, When),
    /// Heal that cut.
    Reconnect(usize, When),
    /// Power off replica `i`'s host and make the replica fail-silent.
    Crash(usize, Nanos),
    /// Power the host back on and restart the replica cold, from a fresh
    /// service and its drive.
    Restart(usize, When),
    /// Power the host back on; the replica resumes where it stopped.
    Resume(usize, When),
    Byzantine(usize, ByzantineMode),
    /// Every replica re-registers its stores under this recovery epoch and
    /// invalidates the old registrations.
    EpochRoll(u64),
    /// Arm a one-shot fault on a replica's drive; `past_end` counts its
    /// offset from the drive's current end.
    Disk {
        replica: usize,
        fault: DiskFault,
        past_end: bool,
    },
    /// Start a proactive recovery scheduler for one rotation.
    Rotation(RecoveryConfig),
    /// An expectation checked at this point of the timeline.
    Check(Expect),
}

/// A directional link fault.
#[derive(Clone, Copy, Debug)]
pub enum Link {
    /// Loss of 1 % to 5 % of the frames, by the run's seed.
    SeededLoss,
    Duplicate(f64),
    Corrupt(f64),
    /// Reordering: extra delay up to this bound.
    Jitter(Nanos),
    Delay(Nanos),
}

/// Which replicas an expectation reads.
#[derive(Clone, Copy, Debug)]
pub enum Who {
    All,
    Only(&'static [usize]),
}

/// A per-replica reading.
#[derive(Clone, Copy, Debug)]
pub enum Stat {
    Executed,
    ExecutedBatches,
    ViewChangesSent,
    BadMacs,
    /// Frames refused as tampered: by their MAC, or, for a PRE-PREPARE's
    /// batch, by the digest its MACs cover.
    Tampered,
    FastPathWrites,
    FastPathDeliveries,
    FastPathFallbacks,
    TransfersStarted,
    TransfersCompleted,
    TransferRetries,
    StaleEpochRejected,
    StableCheckpoints,
    View,
    LowMark,
    LastExecuted,
    RecoveryEpoch,
}

impl Stat {
    fn read(self, r: &Replica) -> u64 {
        let s = r.stats();
        match self {
            Stat::Executed => s.executed_requests,
            Stat::ExecutedBatches => s.executed_batches,
            Stat::ViewChangesSent => s.view_changes_sent,
            Stat::BadMacs => s.bad_mac_dropped,
            Stat::Tampered => s.bad_mac_dropped + s.digest_mismatch_dropped,
            Stat::FastPathWrites => s.fast_path_writes,
            Stat::FastPathDeliveries => s.fast_path_deliveries,
            Stat::FastPathFallbacks => s.fast_path_fallbacks,
            Stat::TransfersStarted => s.state_transfers_started,
            Stat::TransfersCompleted => s.state_transfers_completed,
            Stat::TransferRetries => s.state_transfer_retries,
            Stat::StaleEpochRejected => s.stale_epoch_rejected,
            Stat::StableCheckpoints => s.stable_checkpoints,
            Stat::View => r.view(),
            Stat::LowMark => r.low_mark(),
            Stat::LastExecuted => r.last_executed(),
            Stat::RecoveryEpoch => r.recovery_epoch(),
        }
    }
}

/// What must hold. A metric key with `{}` is read once per selected
/// replica, with the replica's id in its place.
#[derive(Clone, Debug)]
pub enum Expect {
    /// The reading lies in the range on every selected replica.
    Each(Who, Stat, RangeInclusive<u64>),
    /// The reading summed over every replica.
    Sum(Stat, RangeInclusive<u64>),
    /// The selected replicas executed as far as replica 0.
    CaughtUp(Who),
    /// The selected replicas' services hold byte-identical state.
    Converged(Who),
    /// The sum of every registry counter whose key ends in `.{name}`.
    Total(&'static str, RangeInclusive<u64>),
    /// A registry counter.
    Counter(Who, &'static str, RangeInclusive<u64>),
    /// A registry counter equals the replica's own reading.
    Mirrors(Who, &'static str, Stat),
    /// The p50 of a registry histogram, in nanoseconds.
    P50(Who, &'static str, RangeInclusive<u64>),
    /// Every replica executed a batch, and each of its three phase
    /// histograms counts every batch it executed.
    Phases,
    /// A simulator gauge (`sim.events_*`, `pool.*`), published now.
    Gauge(&'static str, RangeInclusive<u64>),
    /// Client 0's latest result is this counter value.
    LastResult(u64),
    /// The largest counter value among client 0's results.
    MaxResult(u64),
    /// Client 0's replies are timestamps `1..=n` in order, the `k`-th
    /// answering the count `k`.
    Answered(u64),
    /// Every client completed exactly this many requests, each recorded
    /// once.
    Completed(u64),
    /// Replica 0 executed sequence numbers `1..=n`, in order.
    Gapless(u64),
    /// This many of replica 0's COP pipelines committed.
    Pipelines(usize),
    /// The metrics snapshot JSON contains this text.
    Has(&'static str),
    Lacks(&'static str),
    /// A `reptor` trace event mentions this.
    Traced(&'static str),
    /// `Rotations(rotations, refreshes, timeouts)` completed by the recovery
    /// scheduler.
    Rotations(u64, u64, u64),
    /// `ThroughRotation` completed at least this many requests, no two of
    /// them this far apart or more.
    Steady(usize, Nanos),
    /// The timeline took at least this long.
    Took(Nanos),
    /// Compaction kept up: the event heap holds no more dead entries than
    /// live ones, or 64.
    Compacted,
    /// `OneWay(a, b, d)`: the link from node `a`'s host to node `b`'s has
    /// one-way propagation delay `d`.
    OneWay(usize, usize, Nanos),
    /// Each replica's executed log is as long as its executed-batch count.
    #[allow(dead_code)] // Only `bft_safety_fuzz`'s strategy builds it.
    LogsMatchStats,
}

/// `n` exactly.
pub fn eq(n: u64) -> RangeInclusive<u64> {
    n..=n
}

/// `n` or more.
pub fn ge(n: u64) -> RangeInclusive<u64> {
    n..=u64::MAX
}

impl Scenario {
    /// Four counter replicas under `ReptorConfig::small` and one client on
    /// a LAN, with an empty timeline.
    pub fn new(stack: Stack, seed: u64) -> Scenario {
        Scenario {
            name: "",
            stack,
            cfg: ReptorConfig::small(),
            clients: 1,
            service: Service::Counter,
            fabric: Fabric::Lan,
            seed,
            steps: Vec::new(),
            expect: Vec::new(),
        }
    }

    pub fn cfg(self, cfg: ReptorConfig) -> Scenario {
        Scenario { cfg, ..self }
    }

    pub fn clients(self, clients: usize) -> Scenario {
        Scenario { clients, ..self }
    }

    pub fn service(self, service: Service) -> Scenario {
        Scenario { service, ..self }
    }

    pub fn fabric(self, fabric: Fabric) -> Scenario {
        Scenario { fabric, ..self }
    }

    /// Appends to the timeline.
    pub fn steps(mut self, steps: impl IntoIterator<Item = Step>) -> Scenario {
        self.steps.extend(steps);
        self
    }

    /// Appends to the expectations.
    pub fn expect(mut self, expect: impl IntoIterator<Item = Expect>) -> Scenario {
        self.expect.extend(expect);
        self
    }

    fn records_history(&self) -> bool {
        self.steps.iter().any(|s| matches!(s, Step::Ycsb { .. }))
    }
}

/// What a run leaves behind.
#[derive(Debug)]
pub struct Outcome {
    /// The seed the row ran at.
    pub seed: u64,
    /// The metrics snapshot JSON after every check, the simulator's
    /// `sim.events_*` and `pool.*` gauges included.
    pub published: String,
    /// The KV clients' rendered operation history, empty without them.
    pub history: String,
    /// Client 0's `(timestamp, result)` replies in completion order.
    pub replies: Vec<(u64, Vec<u8>)>,
    /// Client 0's mean request latency.
    pub mean_latency: Nanos,
    /// Every replica's service state.
    pub states: Vec<Digest>,
    /// Replica 0's executed `(seq, batch digest)` history.
    pub log: Vec<(SeqNum, Digest)>,
}

/// The world at `seed`: a KV harness with KV clients only when the row
/// records a history.
fn build(s: &Scenario, seed: u64) -> KvHarness {
    let (cfg, service) = (s.cfg.clone(), || s.service.instance());
    let cluster = match (s.fabric, s.service) {
        (Fabric::Lan, Service::LeasedKv(capacity)) if s.records_history() => {
            return KvHarness::build(s.stack, seed, s.clients, cfg, capacity);
        }
        (Fabric::Lan, _) => Cluster::build(s.stack, cfg, s.clients, seed, service),
        (Fabric::Propagation(propagation), _) => {
            let net = Network::new();
            let name = |i| format!("replica-{i}");
            let hosts =
                (0..cfg.n + s.clients).map(|i| net.add_host(name(i), 4, CpuModel::xeon_v2()));
            let hosts = hosts.collect();
            net.connect_full_mesh(LinkSpec {
                propagation,
                ..LinkSpec::ten_gbe()
            });
            Cluster::on_fabric(s.stack, cfg, Simulator::new(seed), net, hosts, service)
        }
        (Fabric::Geo(matrix, hosts), _) => {
            let topo = matrix();
            let c = Cluster::sim_transport_geo(cfg, s.clients, hosts, seed, &topo, service);
            // WAN round trips under a LAN timeout would depose every primary.
            assert!(c.cfg.view_change_timeout >= topo.suggested_timeout());
            c
        }
    };
    KvHarness {
        cluster,
        clients: Vec::new(),
    }
}

/// Replica `r`'s service state.
fn state(r: &Replica) -> Digest {
    r.with_service(|s| s.state_digest())
}

/// `s`'s world at its run seed, for a test that drives it by hand.
#[allow(dead_code)] // The hand-written tests of the group files use it.
pub fn world(s: &Scenario) -> Cluster {
    build(s, s.seed.wrapping_add(chaos_seed() - 1)).cluster
}

/// A proactive recovery scheduler over `c`'s replicas, started for one
/// rotation.
pub fn start_rotation(
    c: &mut Cluster,
    cfg: &RecoveryConfig,
    service: Service,
) -> RecoveryScheduler {
    let fresh = Box::new(move || service.instance());
    let sched = RecoveryScheduler::new(c.replicas.clone(), cfg.clone(), c.metrics(), fresh);
    sched.start(&mut c.sim, 1);
    sched
}

/// Runs `s` at its run seed. Checks each expectation, then on every row
/// agreement, a linearizable history for a row with KV clients, and the
/// simulator's conservation identities (events, tombstones, pooled
/// buffers).
///
/// # Panics
///
/// Panics on the first failed check, naming the row and its seed.
pub fn run(s: &Scenario) -> Outcome {
    let k = chaos_seed() - 1;
    let seed = s.seed.wrapping_add(k);
    catch_unwind(AssertUnwindSafe(|| Runner::run(s, seed, k))).unwrap_or_else(|e| {
        let why = e.downcast_ref::<String>().map(String::as_str);
        let why = why
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("");
        panic!("row `{}` at seed {seed}: {why}", s.name)
    })
}

/// Keeps `window` requests of every client in flight until each has
/// completed `total`, calling `observe` after every simulator step.
pub fn closed_loop(c: &mut Cluster, window: u64, total: u64, mut observe: impl FnMut(&Cluster)) {
    let clients = c.clients.clone();
    loop {
        let mut done = true;
        for client in &clients {
            let stats = client.stats();
            for _ in stats.submitted..total.min(stats.completed + window) {
                client.submit(&mut c.sim, b"inc".to_vec());
            }
            done &= stats.completed >= total;
        }
        if done {
            return;
        }
        assert!(c.sim.step(), "simulation went idle before completion");
        observe(c);
    }
}

struct Runner {
    h: KvHarness,
    seed: u64,
    start: Nanos,
    sched: Option<RecoveryScheduler>,
    stamps: Vec<Nanos>,
}

impl Runner {
    fn run(s: &Scenario, seed: u64, k: u64) -> Outcome {
        let h = build(s, seed);
        let mut r = Runner {
            start: h.cluster.sim.now(),
            h,
            seed,
            sched: None,
            stamps: Vec::new(),
        };
        s.steps.iter().for_each(|step| r.step(step, s.service, k));
        s.expect.iter().for_each(|e| r.check(e));
        r.h.cluster.assert_safety();
        if s.records_history() {
            let lin = r.h.check_history();
            lin.unwrap_or_else(|e| panic!("the history does not linearize: {e}"));
        }
        let snap = r.h.cluster.metrics_snapshot();
        let g = |key: &str| snap.gauge(&format!("sim.events_{key}"));
        let events = g("executed") + g("cancelled") + g("pending");
        assert_eq!(g("scheduled"), events, "executed + cancelled + pending");
        let tombstones = g("tombstones_purged") + g("tombstones_live");
        assert_eq!(g("cancelled"), tombstones, "one tombstone per cancel");
        let g = |key: &str| snap.gauge(&format!("pool.net.{key}"));
        assert_eq!(
            g("takes") - g("returns"),
            g("outstanding"),
            "pooled buffers"
        );
        let published = snap.to_json();
        validate_json(&published).unwrap_or_else(|e| panic!("the snapshot JSON: {e}"));
        let c = &r.h.cluster;
        let done = c
            .clients
            .first()
            .map(Client::completions)
            .unwrap_or_default();
        let waited = done.iter().map(|d| d.latency().as_nanos()).sum::<u64>();
        Outcome {
            seed,
            published,
            history: match s.records_history() {
                true => format!("{:?}", r.h.history()),
                false => String::new(),
            },
            mean_latency: Nanos::from_nanos(waited / done.len().max(1) as u64),
            replies: done.into_iter().map(|d| (d.timestamp, d.result)).collect(),
            states: c.replicas.iter().map(state).collect(),
            log: c.replicas[0].executed_log(),
        }
    }

    /// Applies fault-plane `actions` now, or schedules them for `at`.
    fn faults(&mut self, at: When, actions: impl IntoIterator<Item = ChaosAction>) {
        let c = &mut self.h.cluster;
        match at {
            When::Now => c
                .net
                .with_faults(|f| actions.into_iter().for_each(|a| a.apply(f))),
            When::In(d) => {
                let t = c.sim.now() + d;
                let mut schedule = ChaosSchedule::new();
                actions.into_iter().for_each(|a| schedule.push(t, a));
                schedule.install(&mut c.sim, &c.net);
            }
        }
    }

    /// Partitions (or heals) node `node`'s host from every other host.
    fn isolate(&mut self, node: usize, at: When, heal: bool) {
        let hosts = self.h.cluster.hosts.clone();
        let a = hosts[node];
        let others = hosts.into_iter().filter(|&b| b != a);
        self.faults(
            at,
            others.map(|b| match heal {
                false => ChaosAction::Partition { a, b },
                true => ChaosAction::Heal { a, b },
            }),
        );
    }

    /// Powers replica `i`'s host on; the replica restarts cold or resumes.
    fn power_on(&mut self, i: usize, at: When, service: Service, cold: bool) {
        let host = self.h.cluster.hosts[i];
        self.faults(at, [ChaosAction::RestartHost { host }]);
        let c = &mut self.h.cluster;
        let r = c.replicas[i].clone();
        let power_on = move |sim: &mut Simulator| match cold {
            true => r.restart(sim, service.instance()),
            false => r.set_byzantine(ByzantineMode::Honest),
        };
        match at {
            When::Now => power_on(&mut c.sim),
            When::In(d) => drop(c.sim.schedule_at(c.sim.now() + d, power_on)),
        }
    }

    fn step(&mut self, step: &Step, service: Service, k: u64) {
        let c = &mut self.h.cluster;
        match *step {
            Step::Sequential(ops) => c.submit_sequentially(ops.payloads(0)),
            Step::Burst(ops) => {
                for (i, client) in c.clients.clone().iter().enumerate() {
                    for payload in ops.payloads(i as u64) {
                        client.submit(&mut c.sim, payload);
                    }
                }
            }
            Step::Window(outstanding, total) => closed_loop(c, outstanding, total, |_| {}),
            Step::Ycsb {
                ref spec,
                seed,
                salt,
                ops,
                within,
            } => {
                let done = self
                    .h
                    .run_ycsb(spec, seed.wrapping_add(k) ^ salt, ops, within);
                assert!(done, "the {} phase wedged", spec.label());
            }
            Step::ThroughRotation => {
                let sched = self.sched.clone().expect("a rotation");
                let client = c.clients[0].clone();
                while sched.stats().rotations_completed < 1 {
                    let done = client.stats().completed;
                    client.submit(&mut c.sim, b"inc".to_vec());
                    let live = c.run_until_completed(done + 1, 2_000_000);
                    assert!(
                        live,
                        "request stalled mid-rotation after {done} completions"
                    );
                    self.stamps.push(c.sim.now());
                    assert!(self.stamps.len() < 10_000, "rotation never completed");
                }
            }
            Step::Complete(n) => c.run_to_completion(n),
            Step::CompleteWithin(n, events) => {
                assert!(
                    c.run_until_completed(n, events),
                    "{n} completions within {events} events"
                );
            }
            Step::Attempt(n, events) => drop(c.run_until_completed(n, events)),
            Step::Idle => c.settle(),
            Step::RunFor(d) => c.sim.run_until(c.sim.now() + d),
            Step::Chaos(at, action) => self.faults(at, [action]),
            Step::Links(ref from, ref to, link) => {
                let p = 0.01 * (1 + self.seed % 5) as f64;
                let pairs = from.clone().flat_map(|a| to.clone().map(move |b| (a, b)));
                let faults = pairs.filter(|(a, b)| a != b).map(|(a, b)| {
                    let (src, dst) = (HostId(a), HostId(b));
                    match link {
                        Link::SeededLoss => ChaosAction::SetLoss { src, dst, p },
                        Link::Duplicate(p) => ChaosAction::SetDuplication { src, dst, p },
                        Link::Corrupt(p) => ChaosAction::SetCorruption { src, dst, p },
                        Link::Jitter(bound) => ChaosAction::SetReorderJitter { src, dst, bound },
                        Link::Delay(d) => ChaosAction::SetExtraDelay { src, dst, d },
                    }
                });
                self.faults(When::Now, faults);
            }
            Step::Isolate(node, at) => self.isolate(node, at, false),
            Step::Reconnect(node, at) => self.isolate(node, at, true),
            Step::Crash(i, after) => {
                let host = c.hosts[i];
                self.faults(When::In(after), [ChaosAction::CrashHost { host }]);
                let c = &mut self.h.cluster;
                let r = c.replicas[i].clone();
                c.sim.schedule_at(c.sim.now() + after, move |_| {
                    r.set_byzantine(ByzantineMode::Crash)
                });
            }
            Step::Restart(i, at) => self.power_on(i, at, service, true),
            Step::Resume(i, at) => self.power_on(i, at, service, false),
            Step::Byzantine(i, mode) => c.replicas[i].set_byzantine(mode),
            Step::EpochRoll(epoch) => c
                .replicas
                .iter()
                .for_each(|r| r.roll_recovery_epoch(&mut c.sim, epoch)),
            Step::Disk {
                replica,
                fault,
                past_end,
            } => {
                let disk = c.replicas[replica]
                    .durable_disk()
                    .expect("a durable replica");
                let base = if past_end { disk.len() } else { 0 };
                disk.arm_fault(match fault {
                    DiskFault::TornWrite { at_byte } => DiskFault::TornWrite {
                        at_byte: base + at_byte,
                    },
                    DiskFault::BitFlip { at_byte } => DiskFault::BitFlip {
                        at_byte: base + at_byte,
                    },
                    other => other,
                });
            }
            Step::Rotation(ref cfg) => self.sched = Some(start_rotation(c, cfg, service)),
            Step::Check(ref e) => self.check(e),
        }
    }

    fn check(&self, e: &Expect) {
        let c = &self.h.cluster;
        let m = c.metrics();
        let chosen = |who| match who {
            Who::All => c.replicas.iter().collect(),
            Who::Only(ids) => ids.iter().map(|&i| &c.replicas[i]).collect::<Vec<_>>(),
        };
        let key = |r: &Replica, template: &str| template.replace("{}", &r.id().to_string());
        let within = |what: &dyn std::fmt::Display, got: u64, want: &RangeInclusive<u64>| {
            assert!(want.contains(&got), "{what}: {got}, want {want:?}");
        };
        let results = || {
            let completions = c.clients[0].completions().into_iter();
            completions.map(|d| u64::from_le_bytes(d.result.try_into().expect("a counter result")))
        };
        match *e {
            Expect::Each(who, stat, ref want) => {
                for r in chosen(who) {
                    within(
                        &format_args!("replica {} {stat:?}", r.id()),
                        stat.read(r),
                        want,
                    );
                }
            }
            Expect::Sum(stat, ref want) => {
                within(
                    &format_args!("{stat:?} summed"),
                    c.replicas.iter().map(|r| stat.read(r)).sum(),
                    want,
                );
            }
            Expect::CaughtUp(who) => {
                let head = c.replicas[0].last_executed();
                for r in chosen(who) {
                    assert_eq!(r.last_executed(), head, "replica {} lags replica 0", r.id());
                }
            }
            Expect::Converged(who) => {
                let chosen = chosen(who);
                for r in &chosen {
                    assert_eq!(state(r), state(chosen[0]), "replica {}'s state", r.id());
                }
            }
            Expect::Total(name, ref want) => {
                within(&format_args!("total {name}"), m.total(name), want)
            }
            Expect::Counter(who, template, ref want) => {
                for r in chosen(who) {
                    within(&key(r, template), m.counter(&key(r, template)), want);
                }
            }
            Expect::Mirrors(who, template, stat) => {
                for r in chosen(who) {
                    assert_eq!(
                        m.counter(&key(r, template)),
                        stat.read(r),
                        "{} vs {stat:?}",
                        key(r, template)
                    );
                }
            }
            Expect::P50(who, template, ref want) => {
                let snap = m.snapshot();
                for r in chosen(who) {
                    let h = snap.histogram(&key(r, template));
                    within(
                        &key(r, template),
                        h.unwrap_or_else(|| panic!("no {}", key(r, template))).p50,
                        want,
                    );
                }
            }
            Expect::Phases => {
                let snap = m.snapshot();
                for r in &c.replicas {
                    let batches = m.counter(&key(r, "reptor.r{}.batches_executed"));
                    assert!(batches > 0, "replica {} executed nothing", r.id());
                    for phase in [
                        "preprepare_to_prepared",
                        "prepared_to_committed",
                        "committed_to_executed",
                    ] {
                        let name = format!("reptor.r{}.phase.{phase}", r.id());
                        let h = snap.histogram(&name).unwrap_or_else(|| panic!("no {name}"));
                        assert_eq!(h.count, batches, "{name} counts every executed batch");
                    }
                }
            }
            Expect::Gauge(name, ref want) => {
                let gauge = u64::try_from(c.metrics_snapshot().gauge(name));
                within(&name, gauge.expect("a gauge that counts"), want)
            }
            Expect::LastResult(n) => {
                assert_eq!(results().next_back(), Some(n), "client 0's last result")
            }
            Expect::MaxResult(n) => {
                assert_eq!(results().max(), Some(n), "client 0's largest result")
            }
            Expect::Answered(n) => {
                let replies = c.clients[0].completions().into_iter();
                let replies = replies.map(|d| (d.timestamp, d.result)).collect::<Vec<_>>();
                let want = (1..=n).map(|k| (k, k.to_le_bytes().to_vec()));
                assert_eq!(replies, want.collect::<Vec<_>>(), "client 0's replies");
            }
            Expect::Completed(n) => {
                for (i, client) in c.clients.iter().enumerate() {
                    let done = (client.stats().completed, client.completions().len() as u64);
                    assert_eq!(done, (n, n), "client {i}'s completed and recorded requests");
                }
            }
            Expect::Gapless(n) => {
                let log = c.replicas[0].executed_log();
                let seqs: Vec<SeqNum> = log.iter().map(|&(seq, _)| seq).collect();
                assert_eq!(
                    seqs,
                    (1..=n).collect::<Vec<_>>(),
                    "replica 0's executed seqs"
                );
            }
            Expect::Pipelines(n) => {
                let stats = c.replicas[0].pipeline_stats();
                let committed = stats.iter().filter(|p| p.committed > 0).count();
                assert_eq!(committed, n, "replica 0's committing pipelines");
            }
            Expect::Has(text) => assert!(m.snapshot().to_json().contains(text), "no {text}"),
            Expect::Lacks(text) => assert!(!m.snapshot().to_json().contains(text), "{text}"),
            Expect::Traced(text) => {
                let trace = m.snapshot().trace;
                let found = trace
                    .iter()
                    .any(|ev| ev.layer == "reptor" && ev.event.contains(text));
                assert!(found, "no reptor trace event mentions {text}");
            }
            Expect::Rotations(rotations, refreshes, timeouts) => {
                let got = self.sched.as_ref().expect("a rotation").stats();
                let counts = (
                    got.rotations_completed,
                    got.refreshes_completed,
                    got.refresh_timeouts,
                );
                assert_eq!(counts, (rotations, refreshes, timeouts), "{got:?}");
            }
            Expect::Steady(min, gap) => {
                assert!(
                    self.stamps.len() >= min,
                    "{} completions",
                    self.stamps.len()
                );
                for w in self.stamps.windows(2) {
                    assert!(w[1] - w[0] < gap, "no completion for {}", w[1] - w[0]);
                }
            }
            Expect::Took(d) => {
                let took = c.sim.now() - self.start;
                assert!(took >= d, "the timeline took {took:?}, want {d:?} or more");
            }
            Expect::Compacted => {
                let q = c.sim.queue_stats();
                assert!(q.tombstones <= q.pending.max(64), "{q:?}");
            }
            Expect::OneWay(a, b, d) => {
                let link = c
                    .net
                    .link_spec_between(c.hosts[a], c.hosts[b])
                    .expect("a link");
                assert_eq!(link.propagation, d, "node {a} to node {b}");
            }
            Expect::LogsMatchStats => {
                for r in &c.replicas {
                    let logged = r.executed_log().len() as u64;
                    assert_eq!(logged, r.stats().executed_batches, "replica {}", r.id());
                }
            }
        }
    }
}
