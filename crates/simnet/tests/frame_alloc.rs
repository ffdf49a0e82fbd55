//! A frame in flight lives inside its delivery event: once the queue and the
//! fault counters have warmed up, sending and delivering a frame whose
//! payload owns no heap memory allocates nothing, over a link, over
//! loopback, and with every frame duplicated.

mod support {
    pub mod counting_alloc;
}

use std::cell::Cell;
use std::rc::Rc;

use simnet::{Addr, CpuModel, LinkSpec, Network, Simulator};
use support::counting_alloc::{allocs, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The size of an RDMA packet, the largest payload the stacks send.
type Packet = [u64; 8];

const FRAMES: u64 = 10_000;
const BURST: u64 = 100;

/// A network of two linked hosts, and the handler tallies of port 1 on
/// `dst`: frames delivered, and the sum of their payloads' first words.
struct World {
    sim: Simulator,
    net: Network,
    src: Addr,
    dst: Addr,
    delivered: Rc<Cell<u64>>,
    sum: Rc<Cell<u64>>,
}

fn world(loopback: bool) -> World {
    let sim = Simulator::new(11);
    let net = Network::new();
    let a = net.add_host("a", 2, CpuModel::xeon_v2());
    let b = net.add_host("b", 2, CpuModel::xeon_v2());
    net.connect(a, b, LinkSpec::ten_gbe());
    let (src, dst) = (Addr::new(a, 9), Addr::new(if loopback { a } else { b }, 1));
    let (delivered, sum) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let (d, s) = (delivered.clone(), sum.clone());
    net.bind(
        dst,
        Box::new(move |_sim, frame| {
            let packet: Packet = frame.into_payload().expect("a packet");
            d.set(d.get() + 1);
            s.set(s.get() + packet[0]);
        }),
    );
    World {
        sim,
        net,
        src,
        dst,
        delivered,
        sum,
    }
}

impl World {
    /// Sends `count` frames in bursts of [`BURST`], draining the queue after
    /// each burst.
    fn send(&mut self, count: u64) {
        for burst in 0..count / BURST {
            for i in 0..BURST {
                let packet: Packet = [burst * BURST + i, 1, 2, 3, 4, 5, 6, 7];
                self.net
                    .send(&mut self.sim, self.src, self.dst, 1_000, packet);
            }
            self.sim.run_until_idle();
        }
    }
}

fn assert_frames_allocate_nothing(mut w: World, copies: u64) {
    w.send(BURST);
    let (delivered, sum) = (w.delivered.get(), w.sum.get());
    let before = allocs();
    w.send(FRAMES);
    assert_eq!(allocs() - before, 0, "allocations for {FRAMES} frames");
    assert_eq!(w.delivered.get() - delivered, copies * FRAMES);
    assert_eq!(w.sum.get() - sum, copies * (0..FRAMES).sum::<u64>());
}

#[test]
fn frames_over_a_link_allocate_nothing() {
    assert_frames_allocate_nothing(world(false), 1);
}

#[test]
fn frames_over_loopback_allocate_nothing() {
    assert_frames_allocate_nothing(world(true), 1);
}

#[test]
fn duplicated_frames_allocate_nothing() {
    let w = world(false);
    w.net
        .with_faults(|f| f.set_duplication(w.src.host, w.dst.host, 1.0));
    assert_frames_allocate_nothing(w, 2);
}

#[test]
fn a_duplicate_delivers_an_equal_payload_and_corruption_reaches_the_handler() {
    let mut sim = Simulator::new(3);
    let net = Network::new();
    let a = net.add_host("a", 2, CpuModel::xeon_v2());
    let b = net.add_host("b", 2, CpuModel::xeon_v2());
    net.connect(a, b, LinkSpec::ten_gbe());
    let seen = Rc::new(Cell::new(Vec::new()));
    let s = seen.clone();
    let dst = Addr::new(b, 1);
    net.bind(
        dst,
        Box::new(move |_sim, frame| {
            let corrupted = frame.corrupted;
            let packet: Packet = frame.into_payload().expect("a packet");
            let mut all = s.take();
            all.push((corrupted, packet));
            s.set(all);
        }),
    );
    net.with_faults(|f| {
        f.set_duplication(a, b, 1.0);
        f.set_corruption(a, b, 1.0);
    });
    let packet: Packet = [9, 8, 7, 6, 5, 4, 3, 2];
    net.send(&mut sim, Addr::new(a, 9), dst, 64, packet);
    sim.run_until_idle();
    assert_eq!(seen.take(), [(true, packet), (true, packet)]);
    assert_eq!(net.metrics().total("faults_duplicated"), 1);
    assert_eq!(net.metrics().total("faults_corrupted"), 1);
}

#[test]
fn a_wrong_type_returns_the_frame_and_the_right_one_succeeds() {
    let mut sim = Simulator::new(5);
    let net = Network::new();
    let a = net.add_host("a", 2, CpuModel::xeon_v2());
    let got = Rc::new(Cell::new(None));
    let g = got.clone();
    let dst = Addr::new(a, 1);
    net.bind(
        dst,
        Box::new(move |_sim, frame| {
            let frame = frame.into_payload::<u64>().expect_err("not a u64");
            assert_eq!((frame.dst, frame.wire_bytes), (dst, 64));
            g.set(Some(frame.into_payload::<Packet>().expect("a packet")));
        }),
    );
    let packet: Packet = [1; 8];
    net.send(&mut sim, Addr::new(a, 9), dst, 64, packet);
    sim.run_until_idle();
    assert_eq!(got.get(), Some(packet));
}
