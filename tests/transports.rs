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
