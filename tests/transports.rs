//! Transport-layer integration tests: the NIO-TCP and RUBIN-RDMA meshes
//! that carry Reptor's replica communication, exercised directly.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rdma_verbs::{RdmaDevice, RnicModel};
use reptor::{Stack, Transport, PEN_CAP};
use rubin::{Interest, RdmaChannel, RdmaSelector, RubinConfig};
use simnet::{Addr, CoreId, HostId, Nanos, Network, Simulator, TestBed};
use simnet_socket::{TcpModel, TcpStream};

type Log = Rc<RefCell<Vec<(u32, u32, Vec<u8>)>>>;
type MeshFn = fn(usize, u64) -> (Simulator, Vec<Rc<dyn Transport>>);

fn wire_log(transports: &[Rc<dyn Transport>]) -> Log {
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    for t in transports {
        let me = t.node();
        let l = log.clone();
        t.set_delivery(Rc::new(move |_sim, from, bytes| {
            l.borrow_mut().push((from, me, bytes));
        }));
    }
    log
}

/// An established `n`-node mesh (node `i` on `hosts[i]`) with one spare
/// host outside the group, plus what the connection-layer battery needs to
/// know about the stack underneath.
struct Rig {
    sim: Simulator,
    net: Network,
    hosts: Vec<HostId>,
    ts: Vec<Rc<dyn Transport>>,
    /// Metric keys are `<stack>_transport.<node>.<counter>`.
    stack: &'static str,
    /// The stack's link-down counter.
    down: &'static str,
    /// Connects from the spare host straight to a node's listener and
    /// sends `msg` as the link's first message — where a dialer's hello
    /// goes.
    intrude: fn(&mut Rig, u32, &[u8]),
}

impl Rig {
    fn counter(&self, node: u32, name: &str) -> u64 {
        let key = format!("{}_transport.{node}.{name}", self.stack);
        self.net.metrics().counter(&key)
    }

    fn spare_host(&self) -> HostId {
        *self.hosts.last().expect("spare host")
    }
}

type RigFn = fn(usize, u64) -> Rig;
type Nodes = Vec<(u32, HostId, CoreId)>;

fn cluster(n: usize, seed: u64) -> (Simulator, Network, Vec<HostId>, Nodes) {
    let (sim, net, hosts) = TestBed::cluster(seed, n + 1);
    let nodes = hosts[..n]
        .iter()
        .enumerate()
        .map(|(i, &h)| (i as u32, h, CoreId(0)))
        .collect();
    (sim, net, hosts, nodes)
}

/// Writes `bytes` unframed onto a fresh TCP connection to `victim`'s
/// listener (port base 900).
fn nio_raw(r: &mut Rig, victim: u32, bytes: &[u8]) {
    let remote = Addr::new(r.hosts[victim as usize], 900 + victim);
    let (spare, model) = (r.spare_host(), TcpModel::linux_xeon());
    let stream = TcpStream::connect(&mut r.sim, &r.net, spare, CoreId(0), model, remote);
    r.sim.run_until_idle();
    assert_eq!(stream.write(&mut r.sim, bytes), Ok(bytes.len()));
    r.sim.run_until_idle();
}

fn nio_rig(n: usize, seed: u64) -> Rig {
    let (mut sim, net, hosts, nodes) = cluster(n, seed);
    let ts = Stack::Nio.mesh(&mut sim, &net, &nodes);
    Rig {
        sim,
        net,
        hosts,
        ts,
        stack: "nio",
        down: "conns_down",
        intrude: |r, victim, msg| {
            let mut framed = (msg.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(msg);
            nio_raw(r, victim, &framed);
        },
    }
}

fn rubin_rig(n: usize, seed: u64) -> Rig {
    let (mut sim, net, hosts, nodes) = cluster(n, seed);
    let ts = Stack::Rubin.mesh(&mut sim, &net, &nodes);
    Rig {
        sim,
        net,
        hosts,
        ts,
        stack: "rubin",
        down: "channels_down",
        // Server channels listen at port base 1100.
        intrude: |r, victim, msg| {
            let cfg = RubinConfig::paper();
            let device = RdmaDevice::open(&r.net, r.spare_host(), RnicModel::mt27520());
            let selector = RdmaSelector::new(&device, &[CoreId(0)], cfg.select_ns);
            let remote = Addr::new(r.hosts[victim as usize], 1100 + victim);
            let chan = RdmaChannel::connect(&mut r.sim, &device, remote, cfg, CoreId(0))
                .expect("connect initiates");
            selector.register_channel(&mut r.sim, &chan, Interest::OP_ACCEPT);
            r.sim.run_until_idle();
            assert!(chan.finish_connect(&mut r.sim));
            assert_eq!(chan.write(&mut r.sim, msg), Ok(true));
            r.sim.run_until_idle();
        },
    }
}

fn nio_mesh(n: usize, seed: u64) -> (Simulator, Vec<Rc<dyn Transport>>) {
    let r = nio_rig(n, seed);
    (r.sim, r.ts)
}

fn rubin_mesh(n: usize, seed: u64) -> (Simulator, Vec<Rc<dyn Transport>>) {
    let r = rubin_rig(n, seed);
    (r.sim, r.ts)
}

fn full_mesh_exchange(sim: &mut Simulator, ts: &[Rc<dyn Transport>]) {
    let log = wire_log(ts);
    let n = ts.len() as u32;
    // Every node sends one distinct message to every other node.
    for t in ts {
        for peer in 0..n {
            if peer != t.node() {
                let msg = format!("from-{}-to-{}", t.node(), peer).into_bytes();
                t.send(sim, peer, msg);
            }
        }
    }
    sim.run_until_idle();
    let log = log.borrow();
    assert_eq!(log.len() as u32, n * (n - 1), "all pairs delivered");
    for (from, to, bytes) in log.iter() {
        assert_eq!(bytes, format!("from-{from}-to-{to}").as_bytes());
    }
}

#[test]
fn nio_mesh_all_pairs_deliver() {
    let (mut sim, ts) = nio_mesh(5, 31);
    full_mesh_exchange(&mut sim, &ts);
}

#[test]
fn rubin_mesh_all_pairs_deliver() {
    let (mut sim, ts) = rubin_mesh(5, 32);
    full_mesh_exchange(&mut sim, &ts);
}

fn ordering_preserved(sim: &mut Simulator, ts: &[Rc<dyn Transport>]) {
    let log = wire_log(ts);
    for i in 0..200u32 {
        ts[0].send(sim, 1, i.to_le_bytes().to_vec());
    }
    sim.run_until_idle();
    let log = log.borrow();
    let seq: Vec<u32> = log
        .iter()
        .filter(|(f, t, _)| *f == 0 && *t == 1)
        .map(|(_, _, b)| u32::from_le_bytes(b.clone().try_into().expect("4 bytes")))
        .collect();
    assert_eq!(seq.len(), 200);
    assert!(
        seq.windows(2).all(|w| w[0] + 1 == w[1]),
        "per-peer FIFO ordering violated"
    );
}

#[test]
fn nio_transport_preserves_order() {
    let (mut sim, ts) = nio_mesh(2, 33);
    ordering_preserved(&mut sim, &ts);
}

#[test]
fn rubin_transport_preserves_order() {
    let (mut sim, ts) = rubin_mesh(2, 34);
    ordering_preserved(&mut sim, &ts);
}

fn large_messages_flow(sim: &mut Simulator, ts: &[Rc<dyn Transport>]) {
    // 100 KB messages exceed socket buffers (NIO) and use big slabs
    // (RUBIN); several in a row exercise backpressure queues.
    let log = wire_log(ts);
    let payload: Vec<u8> = (0..100 * 1024usize).map(|i| (i % 241) as u8).collect();
    for _ in 0..6 {
        ts[0].send(sim, 1, payload.clone());
    }
    sim.run_until_idle();
    let log = log.borrow();
    assert_eq!(log.len(), 6);
    assert!(
        log.iter().all(|(_, _, b)| *b == payload),
        "payload integrity"
    );
}

#[test]
fn nio_transport_moves_large_messages() {
    let (mut sim, ts) = nio_mesh(2, 35);
    large_messages_flow(&mut sim, &ts);
}

#[test]
fn rubin_transport_moves_large_messages() {
    let (mut sim, ts) = rubin_mesh(2, 36);
    large_messages_flow(&mut sim, &ts);
}

#[test]
fn rubin_transport_is_faster_than_nio_for_small_messages() {
    let elapsed = |mk: MeshFn| -> Nanos {
        let (mut sim, ts) = mk(2, 37);
        let log = wire_log(&ts);
        let start = sim.now();
        // Ping-pong 50 one-KB messages.
        for _ in 0..50 {
            ts[0].send(&mut sim, 1, vec![1u8; 1024]);
            sim.run_until_idle();
        }
        assert_eq!(log.borrow().len(), 50);
        sim.now() - start
    };
    let rdma = elapsed(rubin_mesh);
    let tcp = elapsed(nio_mesh);
    assert!(
        rdma < tcp,
        "RDMA transport ({rdma}) must beat TCP transport ({tcp})"
    );
}

#[test]
fn rubin_selector_multiplexes_many_peers_on_one_thread() {
    // Seven nodes on 4-core hosts; node 0 talks to all six peers over its
    // four reactors, so some reactor must interleave several channels on
    // its one thread (paper §III: the selector handles numerous channels
    // in a single thread).
    let (mut sim, ts) = rubin_mesh(7, 38);
    let log = wire_log(&ts);
    for round in 0..10u8 {
        for peer in 1..7u32 {
            ts[0].send(&mut sim, peer, vec![round; 512]);
        }
    }
    sim.run_until_idle();
    let log = log.borrow();
    let mut per_peer: HashMap<u32, usize> = HashMap::new();
    for (from, to, _) in log.iter() {
        assert_eq!(*from, 0);
        *per_peer.entry(*to).or_default() += 1;
    }
    assert_eq!(per_peer.len(), 6);
    assert!(per_peer.values().all(|&c| c == 10));
}

#[test]
fn transports_carry_interleaved_bidirectional_traffic() {
    for mk in [
        nio_mesh as fn(usize, u64) -> (Simulator, Vec<Rc<dyn Transport>>),
        rubin_mesh,
    ] {
        let (mut sim, ts) = mk(3, 39);
        let log = wire_log(&ts);
        for i in 0..30u32 {
            ts[(i % 3) as usize].send(&mut sim, (i + 1) % 3, vec![i as u8; 64]);
        }
        sim.run_until_idle();
        assert_eq!(log.borrow().len(), 30);
    }
}

// ---- The connection layer (reptor's `mesh`), one battery over both wires ----

/// Cuts the 0 <-> 1 link and returns once both ends have retired it. A
/// broken link only shows to an end with traffic outstanding, so each end
/// sends one probe (lost with the link).
fn sever(r: &mut Rig) {
    let (a, b) = (r.hosts[0], r.hosts[1]);
    r.net.with_faults(|f| f.partition(a, b));
    r.ts[0].send(&mut r.sim, 1, b"probe".to_vec());
    r.ts[1].send(&mut r.sim, 0, b"probe".to_vec());
    while r.counter(0, r.down) == 0 || r.counter(1, r.down) == 0 {
        assert!(r.sim.step(), "both ends must notice the cut");
    }
}

/// Parks `count` numbered messages in each direction behind a cut link,
/// holds the cut for `hold`, heals it, and returns what arrived at
/// `[node 0, node 1]`.
fn park_and_heal(r: &mut Rig, count: u32, hold: Nanos) -> [Vec<u32>; 2] {
    sever(r);
    let log = wire_log(&r.ts);
    for i in 0..count {
        r.ts[0].send(&mut r.sim, 1, i.to_le_bytes().to_vec());
        r.ts[1].send(&mut r.sim, 0, i.to_le_bytes().to_vec());
    }
    r.sim.run_for(hold);
    let (a, b) = (r.hosts[0], r.hosts[1]);
    r.net.with_faults(|f| f.heal(a, b));
    r.sim.run_for(Nanos::from_secs(20));
    let log = log.borrow();
    [0, 1].map(|to| {
        log.iter()
            .filter(|(_, t, _)| *t == to)
            .map(|(_, _, b)| u32::from_le_bytes(b.clone().try_into().expect("4 bytes")))
            .collect()
    })
}

#[test]
fn short_partition_replays_the_parked_queue_losslessly_and_in_order() {
    for mk in [nio_rig as RigFn, rubin_rig] {
        let mut r = mk(2, 40);
        let n = PEN_CAP as u32;
        let got = park_and_heal(&mut r, n, Nanos::ZERO);
        let all: Vec<u32> = (0..n).collect();
        assert_eq!(got, [all.clone(), all], "{}", r.stack);
        assert_eq!(r.counter(0, "pen_dropped") + r.counter(1, "pen_dropped"), 0);
    }
}

#[test]
fn long_partition_hands_over_exactly_the_newest_pen_cap_messages() {
    for mk in [nio_rig as RigFn, rubin_rig] {
        let mut r = mk(2, 41);
        let (n, shed) = (PEN_CAP as u32, 7);
        // Long enough for several re-dials to fail and pass the pen on.
        let got = park_and_heal(&mut r, n + shed, Nanos::from_millis(400));
        let newest: Vec<u32> = (shed..n + shed).collect();
        assert_eq!(got, [newest.clone(), newest], "{}", r.stack);
        for node in [0, 1] {
            assert_eq!(r.counter(node, "pen_dropped"), shed as u64, "{}", r.stack);
        }
        assert!(r.counter(1, "reconnect_attempts") > 1, "{}", r.stack);
    }
}

#[test]
fn only_the_higher_id_redials() {
    for mk in [nio_rig as RigFn, rubin_rig] {
        let mut r = mk(2, 42);
        park_and_heal(&mut r, 1, Nanos::ZERO);
        assert_eq!(r.counter(0, "reconnect_attempts"), 0, "{}", r.stack);
        assert!(r.counter(1, "reconnect_attempts") >= 1, "{}", r.stack);
        assert_eq!(r.counter(1, "reconnects_completed"), 1, "{}", r.stack);
    }
}

#[test]
fn redial_delays_follow_the_capped_doubling_schedule() {
    for mk in [nio_rig as RigFn, rubin_rig] {
        let mut r = mk(2, 43);
        sever(&mut r);
        // at[k] = when the k-th re-dial (k + 1 attempts made) went out.
        let mut at = Vec::new();
        while at.len() < 9 {
            assert!(r.sim.step());
            if r.counter(1, "reconnect_attempts") > at.len() as u64 {
                at.push(r.sim.now().as_nanos());
            }
        }
        // Each unreachable dial takes the wire the same time to give up
        // on, then waits base << min(attempts, 5) with base = 2 ms: the
        // gaps differ from one another by the schedule alone.
        let delay = |attempts: u32| Nanos::from_millis(2).as_nanos() << attempts.min(5);
        let gaps: Vec<u64> = at.windows(2).map(|w| w[1] - w[0]).collect();
        for (i, gap) in gaps.iter().enumerate() {
            let attempts = i as u32 + 1;
            assert_eq!(
                gap - gaps[0],
                delay(attempts) - delay(1),
                "{} gap after attempt {attempts}",
                r.stack
            );
        }
    }
}

/// Node 2 keeps talking to node 0 in both directions.
fn assert_link_0_2_alive(r: &mut Rig) {
    let log = wire_log(&r.ts);
    r.ts[2].send(&mut r.sim, 0, b"up".to_vec());
    r.ts[0].send(&mut r.sim, 2, b"down".to_vec());
    r.sim.run_until_idle();
    assert_eq!(
        *log.borrow(),
        [(2, 0, b"up".to_vec()), (0, 2, b"down".to_vec())],
        "{}",
        r.stack
    );
}

#[test]
fn hello_with_unknown_or_own_id_is_refused_and_disturbs_nobody() {
    for mk in [nio_rig as RigFn, rubin_rig] {
        let mut r = mk(3, 44);
        for id in [99u32, 0] {
            (r.intrude)(&mut r, 0, &id.to_le_bytes());
        }
        assert_eq!(r.counter(0, "hello_rejected"), 2, "{}", r.stack);
        assert_eq!(r.counter(0, r.down), 2, "only the intruder's links closed");
        // Had id 99 been taken, this would now go to the intruder.
        assert_link_0_2_alive(&mut r);
        assert_eq!(r.counter(0, "reconnect_attempts"), 0);
        assert_eq!(r.counter(2, r.down), 0);
    }
}

/// Steps `r` until `done`, failing rather than spinning for good if that
/// takes more than a bounded number of events.
fn step_until(r: &mut Rig, done: impl Fn() -> bool) {
    for _ in 0..200_000 {
        if done() {
            return;
        }
        assert!(r.sim.step(), "{}: went idle first", r.stack);
    }
    panic!("{}: not done within 200,000 events", r.stack);
}

/// A message longer than a RUBIN channel's buffers can never be written.
/// It is dropped and counted — off the queue and on the in-place path
/// alike — and the link carries on with what follows it, where it once
/// stayed at the head of the queue and spun the selector on OP_SEND.
#[test]
fn rubin_drops_an_oversize_message_and_keeps_the_link_flowing() {
    let mut r = rubin_rig(2, 46);
    let log = wire_log(&r.ts);
    let cfg = RubinConfig::paper();
    let big = vec![7u8; cfg.buffer_size + 1];
    // More than the channel's send buffers take at once: `big` waits in
    // the queue.
    let ahead = 2 * cfg.send_buffers as u32;
    for i in 0..ahead {
        r.ts[0].send(&mut r.sim, 1, i.to_le_bytes().to_vec());
    }
    r.ts[0].send(&mut r.sim, 1, big.clone());
    r.ts[0].send(&mut r.sim, 1, b"after".to_vec());
    step_until(&mut r, || log.borrow().len() == ahead as usize + 1);
    assert_eq!(r.counter(0, "oversize_dropped"), 1);

    // A drained link meets it on the in-place path.
    r.ts[0].broadcast(&mut r.sim, &[1], &big);
    r.ts[0].broadcast(&mut r.sim, &[1], b"last");
    step_until(&mut r, || log.borrow().len() == ahead as usize + 2);
    assert_eq!(r.counter(0, "oversize_dropped"), 2);
    let log = log.borrow();
    let tail: Vec<&[u8]> = log[ahead as usize..]
        .iter()
        .map(|(_, _, b)| &b[..])
        .collect();
    assert_eq!(tail, [&b"after"[..], b"last"]);
}

#[test]
fn nio_oversize_length_prefix_tears_the_stream_down() {
    let mut r = nio_rig(3, 45);
    nio_raw(&mut r, 0, &u32::MAX.to_le_bytes());
    assert_eq!(r.counter(0, "oversize_frame"), 1);
    assert_eq!(r.counter(0, r.down), 1);
    assert_link_0_2_alive(&mut r);
}

// ---- One send rule: a message waits while its link's reactor core is busy ----

/// When node 1 answers node 0's "go" with three 1 KB messages.
#[derive(Clone, Copy)]
enum When {
    /// From its delivery, inside the reactor round that read "go": the
    /// read keeps the reactor core busy.
    InRound,
    /// From an event outside any round, at the instant the reactor core
    /// frees: the first goes at once and keeps the core busy.
    CoreFree,
    /// Each from its own event, a millisecond apart, on an idle core:
    /// three separate wire calls.
    Apart,
}

/// Node 1 (one link, on its first reactor, core 0) answers node 0's "go"
/// with [`THREE`] at `when`. `probe` reads a count of node 1's host.
/// Returns node 0's deliveries and `probe`'s rise inside the first
/// answer's send calls and from the first answer on.
fn answer_three(mut r: Rig, when: When, probe: fn(&Network, HostId) -> u64) -> Answer {
    let log = wire_log(&r.ts);
    let (net, host) = (r.net.clone(), r.hosts[1]);
    let node1 = Rc::downgrade(&r.ts[1]);
    let first: Rc<RefCell<Option<(u64, u64)>>> = Rc::default();
    let f = first.clone();
    r.ts[1].set_delivery(Rc::new(move |sim, _from, _bytes| {
        let Some(t) = node1.upgrade() else { return };
        let (n, f) = (net.clone(), f.clone());
        let answer = move |sim: &mut Simulator, msgs: &[&[u8]]| {
            let before = probe(&n, host);
            for m in msgs {
                t.send(sim, 0, m.to_vec());
            }
            let during = probe(&n, host) - before;
            f.borrow_mut().get_or_insert((during, before));
        };
        match when {
            When::InRound => answer(sim, &THREE),
            When::CoreFree => {
                let free = net.host(host).borrow().core_free_at(CoreId(0));
                sim.schedule_at(free, move |sim| answer(sim, &THREE));
            }
            When::Apart => {
                for (i, m) in THREE.into_iter().enumerate() {
                    let answer = answer.clone();
                    let at = Nanos::from_millis(i as u64 + 1);
                    sim.schedule_in(at, move |sim| answer(sim, &[m]));
                }
            }
        }
    }));
    r.ts[0].send(&mut r.sim, 1, b"go".to_vec());
    r.sim.run_until_idle();
    let got = log.borrow().iter().map(|(_, _, b)| b.clone()).collect();
    let (during, from) = first.borrow().expect("answered");
    Answer {
        got,
        during,
        total: probe(&r.net, host) - from,
    }
}

struct Answer {
    got: Vec<Vec<u8>>,
    during: u64,
    total: u64,
}

const THREE: [&[u8]; 3] = [&[1u8; 1024], &[2u8; 1024], &[3u8; 1024]];

fn syscalls(net: &Network, host: HostId) -> u64 {
    net.metrics().counter(&format!("host.{host}.syscalls"))
}

fn busy_ns(net: &Network, host: HostId) -> u64 {
    net.host(host).borrow().total_busy_time().as_nanos()
}

#[test]
fn nio_sends_to_a_busy_reactor_core_wait_and_leave_in_one_write() {
    let core_free = answer_three(nio_rig(2, 51), When::CoreFree, syscalls);
    let in_round = answer_three(nio_rig(2, 51), When::InRound, syscalls);
    let apart = answer_three(nio_rig(2, 51), When::Apart, syscalls);
    for a in [&core_free, &in_round, &apart] {
        assert_eq!(a.got, THREE);
    }
    // Outside any round on an idle core the first message goes at once;
    // its write keeps the core busy, so the other two wait and share one
    // write.
    assert_eq!(core_free.during, 1);
    assert_eq!(core_free.total, 2);
    // Inside a round the read of "go" keeps the core busy: all three
    // wait and share one write.
    assert_eq!(in_round.during, 0);
    assert_eq!(in_round.total, 1);
    assert_eq!(apart.total, 3);
}

#[test]
fn rubin_sends_to_a_busy_reactor_core_wait_and_leave_in_one_call() {
    let r = rubin_rig(2, 52);
    let cpu = r.net.host(r.hosts[1]).borrow().cpu().clone();
    let rnic = RnicModel::mt27520();
    let core_free = answer_three(r, When::CoreFree, busy_ns);
    let in_round = answer_three(rubin_rig(2, 52), When::InRound, busy_ns);
    let apart = answer_three(rubin_rig(2, 52), When::Apart, busy_ns);
    for a in [&core_free, &in_round, &apart] {
        assert_eq!(a.got, THREE);
    }
    // The first message goes at once in its own channel call: its copy,
    // the runtime overhead and its own doorbell.
    let one_call = cpu.runtime_io_ns + cpu.copy_cost(1024).as_nanos() + rnic.post_wr_ns;
    assert_eq!(core_free.during, one_call);
    // Each call that carries one more message saves one runtime charge and
    // a doorbell's worth of posting against three separate calls.
    let saved = cpu.runtime_io_ns + rnic.post_wr_ns - rnic.post_batch_extra_ns;
    assert_eq!(apart.total - core_free.total, saved);
    assert_eq!(in_round.during, 0);
    assert_eq!(apart.total - in_round.total, 2 * saved);
}

/// A lone send to an idle reactor core goes at once, in place: the rule
/// costs the unloaded path nothing. The arrival instants are those of the
/// reactor-round rule this one replaced.
#[test]
fn a_lone_send_to_an_idle_reactor_core_leaves_at_once() {
    for (mk, at) in [(nio_rig as RigFn, 22_407), (rubin_rig, 18_302)] {
        let mut r = mk(2, 54);
        let arrived = Rc::new(RefCell::new(None));
        let a = arrived.clone();
        r.ts[1].set_delivery(Rc::new(move |sim, _from, _bytes| {
            *a.borrow_mut() = Some(sim.now());
        }));
        r.sim.run_until_idle();
        // Wait until every core of node 0's host is idle.
        let host = r.net.host(r.hosts[0]);
        let idle = (0..4).map(|c| host.borrow().core_free_at(CoreId(c))).max();
        r.sim
            .schedule_at(idle.expect("cores").max(r.sim.now()), |_| {});
        r.sim.run_until_idle();
        let sent = r.sim.now();
        r.ts[0].send(&mut r.sim, 1, vec![4u8; 1024]);
        r.sim.run_until_idle();
        let took = arrived.borrow().expect("delivered") - sent;
        assert_eq!(took, Nanos::from_nanos(at), "{}", r.stack);
    }
}

/// A one-sided WRITE follows the messages sent before it: the sends it is
/// issued behind, still waiting for their reactor core to free, are
/// posted first, so on the peer the WRITE completes after that SEND (RC
/// receive order). Node 1 issues both from its delivery, inside the
/// reactor round, or, with `in_round` false, from an event at the same
/// instant outside any round; either way the round's read keeps the core
/// busy.
fn slot_write_behind_waiting_sends(in_round: bool) {
    let mut r = rubin_rig(2, 53);
    let big = vec![9u8; 64 * 1024];
    let region = r.ts[0]
        .register_write_region(&mut r.sim, 64)
        .expect("RUBIN grants");
    let events: Rc<RefCell<Vec<(Nanos, &'static str)>>> = Rc::default();
    let ev = events.clone();
    r.ts[0].set_delivery(Rc::new(move |sim, _from, bytes| {
        let what = if bytes.len() > 1024 { "send" } else { "first" };
        ev.borrow_mut().push((sim.now(), what));
    }));
    let ev = events.clone();
    r.ts[0].set_slot_doorbell(Rc::new(move |sim, _from, _imm, _len| {
        ev.borrow_mut().push((sim.now(), "write"));
    }));
    let node1 = Rc::downgrade(&r.ts[1]);
    r.ts[1].set_delivery(Rc::new(move |sim, _from, _bytes| {
        let Some(t) = node1.upgrade() else { return };
        let big = big.clone();
        let answer = move |sim: &mut Simulator| {
            t.send(sim, 0, b"first".to_vec());
            t.send(sim, 0, big);
            let posted = t.write_slot(sim, 0, region.rkey, 0, &[5u8; 64], 7, Box::new(|_, _| {}));
            assert!(posted);
        };
        if in_round {
            answer(sim);
        } else {
            sim.schedule_in(Nanos::ZERO, answer);
        }
    }));
    r.ts[0].send(&mut r.sim, 1, b"go".to_vec());
    r.sim.run_until_idle();
    let events = events.borrow();
    let at = |what| events.iter().find(|e| e.1 == what).expect("happened").0;
    assert_eq!(events.len(), 3);
    assert!(at("first") < at("send"));
    // Posted ahead of the SEND, the small WRITE would land tens of
    // microseconds before the 64 KiB message.
    assert!(at("write") >= at("send"), "in round {in_round}: {events:?}");
}

#[test]
fn rubin_slot_write_completes_after_a_send_queued_before_it() {
    slot_write_behind_waiting_sends(true);
    slot_write_behind_waiting_sends(false);
}

/// Node 0's link to node 2 goes down while sends on it wait for their
/// reactor core: node 2 has noticed a cut node 0 has not, and re-dials.
/// The replacement link takes the whole queue, in order, and the flush
/// that waited touches nothing on the dead link when the core frees.
#[test]
fn a_link_that_dies_while_its_flush_waits_hands_its_queue_on_in_order() {
    for mk in [nio_rig as RigFn, rubin_rig] {
        let mut r = mk(3, 55);
        let (a, b) = (r.hosts[0], r.hosts[2]);
        r.net.with_faults(|f| f.partition(a, b));
        r.ts[2].send(&mut r.sim, 0, b"probe".to_vec());
        while r.counter(2, r.down) == 0 {
            assert!(r.sim.step(), "{}: node 2 must notice the cut", r.stack);
        }
        r.net.with_faults(|f| f.heal(a, b));
        let log = wire_log(&r.ts);
        // Node 0 accepted node 1's link on its first reactor (core 0, the
        // listener's) and node 2's on its second, core 1: keep core 1 busy
        // past node 2's re-dial, which lands on a third reactor.
        let busy = Nanos::from_millis(50);
        let host = r.net.host(a);
        let free = host.borrow_mut().exec(r.sim.now(), CoreId(1), busy);
        let busy_before = host.borrow().core_busy_time(CoreId(1));
        for i in 0..3u32 {
            r.ts[0].send(&mut r.sim, 2, i.to_le_bytes().to_vec());
        }
        let waited = host.borrow().core_busy_time(CoreId(1)) == busy_before;
        assert!(waited, "{}: nothing written at once", r.stack);
        r.sim.run_until(free - Nanos::from_nanos(1));
        assert_eq!(r.counter(0, r.down), 0, "{}", r.stack);
        assert_eq!(r.counter(2, "reconnects_completed"), 1, "{}", r.stack);
        let got: Vec<u32> = log
            .borrow()
            .iter()
            .map(|(_, _, b)| u32::from_le_bytes(b.clone().try_into().expect("4 bytes")))
            .collect();
        assert_eq!(
            got,
            [0, 1, 2],
            "{}: carried over before the core freed",
            r.stack
        );
        let busy_before = host.borrow().core_busy_time(CoreId(1));
        r.sim.run_until_idle();
        assert_eq!(log.borrow().len(), 3, "{}", r.stack);
        assert_eq!(
            host.borrow().core_busy_time(CoreId(1)),
            busy_before,
            "{}",
            r.stack
        );
    }
}
