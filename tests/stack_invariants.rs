//! Counter-asserted stack invariants: the cross-layer metrics registry
//! must prove, not just suggest, the paper's core claims about the two
//! comm stacks.
//!
//! * The RUBIN/RDMA data path performs **zero** kernel copies and
//!   **zero** kernel crossings — data moves by NIC DMA only (§II/§IV).
//! * The socket path pays exactly **two** kernel copies (user→kernel at
//!   the sender, kernel→user at the receiver) and at least two kernel
//!   crossings per message.
//! * A quiescent RDMA run (receives always pre-posted) sees no RNR
//!   retries.
//! * The whole stack is deterministic: a fixed seed reproduces the
//!   metrics snapshot byte for byte, phase counters included (the rows of
//!   `invariants_rows!` in `tests/scenarios/rows.rs`).
//! * Each endpoint spreads its links over its host's cores, one reactor
//!   per core; an endpoint with one peer keeps to the core it was given.

use std::cell::RefCell;
use std::rc::Rc;

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use bench::{fig3, fig4};
use reptor::{NodeId, ReptorConfig, Stack};
use rubin::RubinConfig;
use scenarios::scenario::{world, Scenario};
use simnet::{CoreId, CpuModel, HostId, Nanos, Network, Simulator, TestBed};

invariants_rows!(row_tests);

const PAYLOAD: usize = 4096;
const MSGS: usize = 10;

#[test]
fn rdma_data_path_has_zero_kernel_copies_and_zero_crossings() {
    let (_, snap) = fig3::channel_echo(PAYLOAD, MSGS, RubinConfig::paper(), 0.0);

    // The data path never enters the kernel: no socket-buffer copies, no
    // syscalls, no interrupts.
    assert_eq!(
        snap.total("kernel_copies"),
        0,
        "RDMA path must not copy via the kernel"
    );
    assert_eq!(snap.total("kernel_copy_bytes"), 0);
    assert_eq!(snap.total("syscalls"), 0, "RDMA path must not syscall");
    assert_eq!(
        snap.total("interrupts"),
        0,
        "RDMA path must not take interrupts"
    );
    assert_eq!(snap.total("kernel_crossings"), 0);

    // The bytes still moved — by DMA, off the CPU.
    assert!(
        snap.total("dma_transfers") > 0,
        "payloads must move via DMA"
    );
    assert!(
        snap.total("dma_bytes") >= (2 * MSGS * PAYLOAD) as u64,
        "every echoed payload crosses the wire twice via DMA"
    );
}

#[test]
fn lossy_rdma_run_still_moves_every_byte_by_dma_with_zero_kernel_crossings() {
    // Frame loss forces the RC retransmission path to do real work; the
    // recovery must happen inside the RNIC model — robustness must not
    // silently re-route traffic through the socket cost model.
    let (_, snap) = fig3::channel_echo(PAYLOAD, MSGS, RubinConfig::paper(), 0.1);

    // The fault plane actually dropped frames and the QP recovered them.
    assert!(
        snap.total("faults_dropped") > 0,
        "10% loss must drop at least one frame"
    );
    assert!(
        snap.total("retransmits") > 0,
        "dropped frames must be recovered by RC retransmission"
    );

    // Recovery stayed on the RDMA path: still no kernel involvement.
    assert_eq!(
        snap.total("kernel_copies"),
        0,
        "lossy RDMA path must not copy via the kernel"
    );
    assert_eq!(
        snap.total("syscalls"),
        0,
        "lossy RDMA path must not syscall"
    );
    assert_eq!(snap.total("kernel_crossings"), 0);

    // Every payload still crossed the wire (at least once) by DMA.
    assert!(snap.total("dma_transfers") > 0);
    assert!(
        snap.total("dma_bytes") >= (2 * MSGS * PAYLOAD) as u64,
        "every echoed payload crosses the wire twice via DMA"
    );
}

#[test]
fn quiescent_rdma_run_has_no_rnr_retries() {
    // The RUBIN channel keeps receives pre-posted, so a well-paced echo
    // never hits receiver-not-ready backoff.
    let (_, snap) = fig3::channel_echo(PAYLOAD, MSGS, RubinConfig::paper(), 0.0);
    assert_eq!(
        snap.total("rnr_retries"),
        0,
        "quiescent run must not RNR-retry"
    );
    // Sanity: the counters actually ran — sends were posted and completed.
    assert!(snap.total("sends_posted") > 0);
    assert!(snap.total("recvs_completed") > 0);
}

#[test]
fn socket_data_path_pays_exactly_two_copies_and_two_crossings_per_message() {
    let (_, snap) = fig3::tcp_echo(PAYLOAD, MSGS);

    // An echo is two messages (request + reply); each message is copied
    // exactly twice: user→kernel on write, kernel→user on read.
    let messages = (2 * MSGS) as u64;
    assert_eq!(
        snap.total("kernel_copies"),
        2 * messages,
        "exactly two kernel copies per message"
    );
    assert_eq!(
        snap.total("kernel_copy_bytes"),
        2 * messages * PAYLOAD as u64,
        "both copies move the full payload"
    );
    // Each message costs at least the write syscall and the read syscall;
    // rx interrupts only add to the total.
    assert!(
        snap.total("kernel_crossings") >= 2 * messages,
        "at least two kernel crossings per message"
    );
    // One write + one read syscall per message at the host layer; the
    // per-socket `tcp.*` mirror counters double the suffix total, which is
    // itself a cross-layer consistency check.
    let host_syscalls = snap.counter("host.h0.syscalls") + snap.counter("host.h1.syscalls");
    assert_eq!(
        host_syscalls,
        2 * messages,
        "one write + one read per message"
    );
    assert_eq!(
        snap.total("syscalls"),
        2 * host_syscalls,
        "per-socket counters must mirror the host counters"
    );

    // No RNIC on this path.
    assert_eq!(snap.total("dma_transfers"), 0);
}

/// One-sided checkpoint reads must cost the responder zero CPU work: the
/// state-transfer fast path registers the checkpoint store as a memory
/// region and lets laggards pull chunks by RDMA READ, so a replica serving
/// state keeps its full agreement throughput (§IV — the one-sided
/// primitive is exactly why the store is exposed via rkey instead of
/// being paged out over request/response messages).
#[test]
fn one_sided_state_read_costs_the_responder_zero_cpu_work() {
    const CHUNK: usize = 4096;
    const CHUNKS: usize = 16;

    let (mut sim, net, hosts) = TestBed::cluster(77, 2);
    let nodes: Vec<(NodeId, HostId, CoreId)> =
        vec![(0, hosts[0], CoreId(0)), (1, hosts[1], CoreId(0))];
    let group = Stack::Rubin.mesh(&mut sim, &net, &nodes);

    // The responder (node 0) registers a checkpoint-store-sized region.
    let store: Vec<u8> = (0..CHUNK * CHUNKS).map(|i| (i % 251) as u8).collect();
    let offer = group[0]
        .register_state_region(&mut sim, &store)
        .expect("rubin transport offers one-sided reads");
    sim.run_until_idle();

    // Baseline after mesh setup and registration have settled.
    let responder = |name: &str| {
        net.metrics()
            .snapshot()
            .counter(&format!("host.{}.{name}", hosts[0]))
    };
    let cpu_counters = [
        "syscalls",
        "kernel_crossings",
        "interrupts",
        "kernel_copies",
        "user_copies",
    ];
    let before: Vec<u64> = cpu_counters.iter().map(|c| responder(c)).collect();
    let busy_before = net.host(hosts[0]).borrow().total_busy_time();
    let fetcher_dma_before = net
        .metrics()
        .snapshot()
        .counter(&format!("host.{}.dma_transfers", hosts[1]));

    // The fetcher (node 1) pulls the whole store chunk by chunk.
    let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..CHUNKS {
        let sink = got.clone();
        let issued = group[1].read_state(
            &mut sim,
            0,
            offer.rkey,
            (i * CHUNK) as u64,
            CHUNK,
            Box::new(move |_sim, bytes| {
                sink.borrow_mut().push(bytes.expect("read must succeed"));
            }),
        );
        assert!(issued, "established rubin channel must accept reads");
        sim.run_until_idle();
    }

    // Every chunk arrived intact.
    let got = got.borrow();
    assert_eq!(got.len(), CHUNKS);
    for (i, chunk) in got.iter().enumerate() {
        assert_eq!(
            chunk.as_slice(),
            &store[i * CHUNK..(i + 1) * CHUNK],
            "chunk {i} must match the registered store"
        );
    }

    // The responder's CPU did zero work per chunk: no syscalls, no kernel
    // crossings, no interrupts, no copies, and not a nanosecond of core
    // busy time — its RNIC DMA-read the store on its own.
    for (name, base) in cpu_counters.iter().zip(&before) {
        assert_eq!(
            responder(name),
            *base,
            "responder {name} must not grow while serving {CHUNKS} reads"
        );
    }
    assert_eq!(
        net.host(hosts[0]).borrow().total_busy_time(),
        busy_before,
        "responder cores must stay idle while its store is read"
    );

    // The bytes really moved — by the fetcher-side DMA into its sink.
    let fetcher_dma = net
        .metrics()
        .snapshot()
        .counter(&format!("host.{}.dma_transfers", hosts[1]));
    assert!(
        fetcher_dma >= fetcher_dma_before + CHUNKS as u64,
        "each chunk lands by DMA at the fetcher"
    );
}

#[test]
fn saturated_rubin_selector_polls_each_completion_queue_once_per_wake_up() {
    // The paper's Figure 4 echo (window 30, bursts of 10) keeps both
    // selector threads saturated: completion events wait in the hybrid
    // queue and each wake-up polls a channel once for all of them. Polling
    // per event measured 4.000 polls per echo here, 1.750 of them empty
    // (the ACK of an unsignaled send leaves no completion).
    const ECHOES: u64 = 6000;
    let (_, snap) = fig4::rubin_selector_echo(1024, ECHOES as usize);
    let polls = snap.total("cq_polls");
    let empty = snap.total("cq_polls_empty");
    assert!(polls > 0, "the selectors must have polled");
    assert!(
        (polls as f64) < 0.6 * ECHOES as f64,
        "{polls} completion-queue polls for {ECHOES} echoes"
    );
    assert!(
        empty * 20 <= polls,
        "{empty} of {polls} polls found nothing"
    );
    // Coalescing the polls starves nobody of receive buffers and loses no
    // wire buffer.
    assert_eq!(snap.total("rnr_retries"), 0);
    assert_eq!(
        snap.gauge("pool.net.takes") - snap.gauge("pool.net.returns"),
        snap.gauge("pool.net.outstanding")
    );
    assert_eq!(snap.gauge("pool.net.outstanding"), 0);
}

#[test]
fn rubin_stack_recycles_pooled_buffers_without_leaking() {
    // The RDMA data path allocates its wire payloads from the network's
    // buffer pool; a settled echo run must return every one.
    let (_, snap) = fig3::channel_echo(PAYLOAD, MSGS, RubinConfig::paper(), 0.0);
    let takes = snap.gauge("pool.net.takes");
    let returns = snap.gauge("pool.net.returns");
    let outstanding = snap.gauge("pool.net.outstanding");
    assert!(takes > 0, "the RUBIN path must draw from the buffer pool");
    assert_eq!(takes - returns, outstanding);
    assert!(
        snap.gauge("pool.net.parked") > 0,
        "returned buffers must be parked for reuse"
    );
    assert!(
        takes >= 2 * MSGS as i64,
        "every echoed payload uses pooled buffers both ways"
    );
    // Reuse actually happens: misses (fresh allocations) are strictly
    // fewer than takes once the pool warms up.
    assert!(snap.gauge("pool.net.misses") < takes);
}

/// Busy time of every core of `host`.
fn core_busy(net: &Network, host: HostId) -> Vec<Nanos> {
    let host = net.host(host);
    let host = host.borrow();
    (0..host.num_cores())
        .map(|c| host.core_busy_time(CoreId(c as u16)))
        .collect()
}

#[test]
fn every_core_of_a_meshed_host_serves_links() {
    // One pillar: replica 0's agreement runs on core 1 and execution on
    // core 0, so only its links can keep cores 2 and 3 busy. The client
    // charges nothing but comm work.
    for stack in [Stack::Rubin, Stack::Nio] {
        let cfg = ReptorConfig {
            pillars: 1,
            ..ReptorConfig::small()
        };
        let mut c = world(&Scenario::new(stack, 31).cfg(cfg));
        c.submit_sequentially((0..100).map(|_| b"inc".to_vec()));
        let client = c.hosts[c.replicas.len()];
        for (who, host) in [("replica 0", c.hosts[0]), ("the client", client)] {
            let busy = core_busy(&c.net, host);
            assert!(
                busy.iter().all(|&b| b > Nanos::ZERO),
                "{stack:?}: a core of {who}'s host is idle: {busy:?}"
            );
        }
    }
}

#[test]
fn a_one_peer_endpoint_keeps_to_its_core() {
    // The Fig. 4 layout: two endpoints on one host, on cores 0 and 2.
    for stack in [Stack::Rubin, Stack::Nio] {
        let mut sim = Simulator::new(5);
        let net = Network::new();
        let host = net.add_host("local", 4, CpuModel::xeon_v2());
        let nodes = [(0, host, CoreId(0)), (1, host, CoreId(2))];
        let ts = stack.mesh(&mut sim, &net, &nodes);
        let got = Rc::new(RefCell::new(0));
        let g = got.clone();
        ts[0].set_delivery(Rc::new(move |_, _, _| *g.borrow_mut() += 1));
        for _ in 0..100 {
            ts[1].send(&mut sim, 0, vec![7; 1024]);
        }
        sim.run_until_idle();
        assert_eq!(*got.borrow(), 100, "{stack:?}");
        let busy = core_busy(&net, host);
        assert!(
            busy[0] > Nanos::ZERO && busy[2] > Nanos::ZERO,
            "{stack:?}: {busy:?}"
        );
        assert_eq!([busy[1], busy[3]], [Nanos::ZERO; 2], "{stack:?}: {busy:?}");
    }
}
