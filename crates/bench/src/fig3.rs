//! Figure 3: client–server echo micro-benchmark on two machines.
//!
//! Four series, as in the paper:
//!
//! * **TCP** — plain non-blocking stream sockets.
//! * **RDMA Send/Recv** — raw two-sided verbs, every send signaled, data
//!   copied into registered buffers on both sides (the naive integration).
//! * **RDMA Read/Write** — one-sided RDMA WRITE; "only the client writes
//!   messages to the server without waiting for a response" (§V), so a
//!   message completes at the client's write completion.
//! * **RDMA Channel** — the RUBIN channel with the §IV optimizations
//!   (pre-registered pools, batched posting, selective signaling,
//!   send-side zero copy, inline), echoed by the server.

use rdma_verbs::{
    connect_pair, Access, QpConfig, RdmaDevice, RecvWr, RnicModel, SendWr, Sge, WrId,
};
use rubin::{RdmaChannel, RecvOutcome, RubinConfig};
use simnet::{
    throughput_ops_per_sec, CoreId, LatencyRecorder, MetricsSnapshot, Nanos, Series, TestBed,
};
use simnet_socket::{ReadOutcome, TcpListener, TcpModel, TcpStream};

use crate::{pattern, EchoResult, PAYLOAD_SWEEP};

/// Runs the full Figure 3 sweep; returns `(latency series, throughput
/// series)`, one entry per protocol.
pub fn run(msgs: usize) -> (Vec<Series>, Vec<Series>) {
    let mut lat: Vec<Series> = ["TCP", "RDMA Send/Recv", "RDMA Read/Write", "RDMA Channel"]
        .iter()
        .map(|l| Series::new(*l))
        .collect();
    let mut thr = lat.clone();
    for &payload in &PAYLOAD_SWEEP {
        let points = [
            tcp_echo(payload, msgs).0,
            send_recv_echo(payload, msgs),
            write_oneway(payload, msgs),
            channel_echo(payload, msgs, RubinConfig::paper(), 0.0).0,
        ];
        for (i, p) in points.iter().enumerate() {
            lat[i].push(payload, p.latency_us);
            thr[i].push(payload, p.rps);
        }
    }
    (lat, thr)
}

/// Plain TCP echo: the client ping-pongs `msgs` messages of `payload`
/// bytes with a server on the other machine. Returns the operating point
/// and the run's full cross-layer [`MetricsSnapshot`] (callers that want
/// only the figure take `.0`).
pub fn tcp_echo(payload: usize, msgs: usize) -> (EchoResult, MetricsSnapshot) {
    let mut tb = TestBed::paper_testbed(0xF163);
    let model = TcpModel::linux_xeon();
    let listener =
        TcpListener::bind(&tb.net, tb.b, 80, CoreId(0), model.clone()).expect("port free");
    let client = TcpStream::connect(
        &mut tb.sim,
        &tb.net,
        tb.a,
        CoreId(0),
        model.clone(),
        listener.local_addr(),
    );
    tb.sim.run_until_idle();
    let server = listener.accept(&mut tb.sim).expect("accepted");
    let data = pattern(payload);

    let mut rec = LatencyRecorder::new();
    let t0 = tb.sim.now();
    for _ in 0..msgs {
        let start = tb.sim.now();
        let (mut c_sent, mut s_recv, mut s_sent, mut c_recv) = (0usize, 0usize, 0usize, 0usize);
        // A selector-driven application is woken with substantial buffer
        // space / data available and performs few large read/write calls;
        // issuing one syscall per freed segment would be a driver artefact.
        const CHUNK: usize = 32 * 1024;
        loop {
            if c_sent < payload && client.free_send_space() >= (payload - c_sent).min(CHUNK) {
                c_sent += client.write(&mut tb.sim, &data[c_sent..]).expect("write");
            }
            if s_recv < payload && server.available() >= (payload - s_recv).min(CHUNK) {
                if let ReadOutcome::Data(d) = server.read(&mut tb.sim, 1 << 20).expect("read") {
                    s_recv += d.len();
                }
            }
            if s_sent < s_recv && server.free_send_space() >= (s_recv - s_sent).min(CHUNK) {
                s_sent += server
                    .write(&mut tb.sim, &data[s_sent..s_recv])
                    .expect("write");
            }
            if c_recv < payload && client.available() >= (payload - c_recv).min(CHUNK) {
                if let ReadOutcome::Data(d) = client.read(&mut tb.sim, 1 << 20).expect("read") {
                    c_recv += d.len();
                }
            }
            if c_recv == payload {
                break;
            }
            assert!(tb.sim.step(), "echo stalled with no pending events");
        }
        rec.record(tb.sim.now() - start);
    }
    let result = EchoResult {
        latency_us: rec.mean().as_micros_f64(),
        rps: throughput_ops_per_sec(msgs as u64, tb.sim.now() - t0),
    };
    (result, tb.net.metrics().snapshot())
}

struct VerbsEnd {
    dev: RdmaDevice,
    pd: rdma_verbs::ProtectionDomain,
    qp: rdma_verbs::QueuePair,
    sbuf: rdma_verbs::MemoryRegion,
    rbuf: rdma_verbs::MemoryRegion,
}

fn verbs_pair(tb: &mut TestBed, payload: usize) -> (VerbsEnd, VerbsEnd) {
    let mk = |net: &simnet::Network, host| {
        let dev = RdmaDevice::open(net, host, RnicModel::mt27520());
        let pd = dev.alloc_pd();
        let scq = dev.create_cq(256, None);
        let rcq = dev.create_cq(256, None);
        let qp = dev.create_qp(&QpConfig {
            pd,
            send_cq: scq,
            recv_cq: rcq,
            core: CoreId(0),
        });
        let sbuf = dev.reg_mr(&pd, payload.max(1), Access::LOCAL_WRITE);
        let rbuf = dev.reg_mr(
            &pd,
            payload.max(1),
            Access::LOCAL_WRITE | Access::REMOTE_WRITE,
        );
        VerbsEnd {
            dev,
            pd,
            qp,
            sbuf,
            rbuf,
        }
    };
    let a = mk(&tb.net, tb.a);
    let b = mk(&tb.net, tb.b);
    connect_pair(&a.qp, &b.qp).expect("fresh queue pairs connect");
    (a, b)
}

/// Charges an application-level buffer copy plus runtime overhead.
fn charge_copy(tb: &mut TestBed, host: simnet::HostId, len: usize) {
    let h = tb.net.host(host);
    let mut h = h.borrow_mut();
    let cpu = h.cpu().clone();
    let work = Nanos::from_nanos(cpu.runtime_io_ns) + cpu.copy_cost(len);
    h.exec(tb.sim.now(), CoreId(0), work);
}

/// Charges the managed-runtime dispatch overhead only (no copy).
fn charge_runtime(tb: &mut TestBed, host: simnet::HostId) {
    let h = tb.net.host(host);
    let mut h = h.borrow_mut();
    let cpu = h.cpu().clone();
    h.exec(
        tb.sim.now(),
        CoreId(0),
        Nanos::from_nanos(cpu.runtime_io_ns),
    );
}

/// Raw two-sided echo: every send signaled, both sides copy between
/// application and registered buffers — the unoptimized baseline RUBIN
/// improves on.
pub fn send_recv_echo(payload: usize, msgs: usize) -> EchoResult {
    let mut tb = TestBed::paper_testbed(0xF1632);
    let (client, server) = verbs_pair(&mut tb, payload);
    let data = pattern(payload);

    // Pre-post the first receive on each side; subsequent re-posts happen
    // on the critical path, as naive per-message code does.
    client
        .qp
        .post_recv(
            &mut tb.sim,
            RecvWr::new(WrId(0), Sge::whole(client.rbuf.clone())),
        )
        .expect("post recv");
    server
        .qp
        .post_recv(
            &mut tb.sim,
            RecvWr::new(WrId(0), Sge::whole(server.rbuf.clone())),
        )
        .expect("post recv");

    let mut rec = LatencyRecorder::new();
    let t0 = tb.sim.now();
    for m in 0..msgs {
        let start = tb.sim.now();
        // Client: copy into the registered buffer and send (signaled).
        let ha = tb.a;
        charge_copy(&mut tb, ha, payload);
        client.sbuf.write(0, &data).expect("fits");
        client
            .qp
            .post_send(
                &mut tb.sim,
                SendWr::send(WrId(m as u64), Sge::whole(client.sbuf.clone())).signaled(),
            )
            .expect("post send");
        // Server: on arrival it dispatches, re-posts its receive, copies
        // the reply into its registered send buffer and posts it — all on
        // the critical path, as naive per-message DiSNI code does. It can
        // read the request in place (no receive-side copy: the one the
        // RUBIN channel abstraction cannot avoid).
        let mut echoed = false;
        loop {
            if !echoed {
                let rx = server.qp.recv_cq().poll(4);
                if !rx.is_empty() {
                    assert!(rx[0].is_ok(), "server recv failed: {rx:?}");
                    server.dev.charge_poll(&tb.sim, CoreId(0), rx.len());
                    let hb = tb.b;
                    charge_runtime(&mut tb, hb); // app dispatch
                    server
                        .qp
                        .post_recv(
                            &mut tb.sim,
                            RecvWr::new(WrId(m as u64 + 1), Sge::whole(server.rbuf.clone())),
                        )
                        .expect("repost recv");
                    let hb = tb.b;
                    charge_copy(&mut tb, hb, payload); // reply into send buf
                    server.sbuf.write(0, &data).expect("fits");
                    server
                        .qp
                        .post_send(
                            &mut tb.sim,
                            SendWr::send(WrId(m as u64), Sge::whole(server.sbuf.clone()))
                                .signaled(),
                        )
                        .expect("post send");
                    echoed = true;
                }
            }
            let rx = client.qp.recv_cq().poll(4);
            if !rx.is_empty() {
                assert!(rx[0].is_ok(), "client recv failed: {rx:?}");
                client.dev.charge_poll(&tb.sim, CoreId(0), rx.len());
                let ha = tb.a;
                charge_copy(&mut tb, ha, payload); // app copy out
                client
                    .qp
                    .post_recv(
                        &mut tb.sim,
                        RecvWr::new(WrId(m as u64 + 1), Sge::whole(client.rbuf.clone())),
                    )
                    .expect("repost recv");
                break;
            }
            // Drain send completions as they appear.
            let tx = client.qp.send_cq().poll(4);
            if !tx.is_empty() {
                client.dev.charge_poll(&tb.sim, CoreId(0), tx.len());
            }
            let tx = server.qp.send_cq().poll(4);
            if !tx.is_empty() {
                server.dev.charge_poll(&tb.sim, CoreId(0), tx.len());
            }
            assert!(tb.sim.step(), "echo stalled");
        }
        rec.record(tb.sim.now() - start);
    }
    EchoResult {
        latency_us: rec.mean().as_micros_f64(),
        rps: throughput_ops_per_sec(msgs as u64, tb.sim.now() - t0),
    }
}

/// One-sided RDMA WRITE: the client deposits messages directly in server
/// memory; a message is complete when the client's WRITEs complete. No
/// server software runs at all. As in one-sided ring designs, each message
/// is a payload write followed by a small *tail-pointer* write the server
/// would poll on; the tail write is the signaled one (RC ordering makes
/// its completion imply the payload landed).
pub fn write_oneway(payload: usize, msgs: usize) -> EchoResult {
    let mut tb = TestBed::paper_testbed(0xF1633);
    let (client, server) = verbs_pair(&mut tb, payload);
    let data = pattern(payload);
    let rkey = server.rbuf.rkey();
    // An 8-byte tail pointer at the end of the server region.
    let tail_src = client.dev.reg_mr(&client_pd(&client), 8, Access::NONE);

    let mut rec = LatencyRecorder::new();
    let t0 = tb.sim.now();
    for m in 0..msgs {
        let start = tb.sim.now();
        let ha = tb.a;
        charge_copy(&mut tb, ha, payload);
        client.sbuf.write(0, &data).expect("fits");
        tail_src.write(0, &(m as u64).to_le_bytes()).expect("fits");
        client
            .qp
            .post_send_batch(
                &mut tb.sim,
                vec![
                    SendWr::write(WrId(m as u64), Sge::whole(client.sbuf.clone()), rkey, 0),
                    SendWr::write(
                        WrId(m as u64),
                        Sge::whole(tail_src.clone()),
                        rkey,
                        payload.saturating_sub(8),
                    )
                    .signaled(),
                ],
            )
            .expect("post writes");
        loop {
            let tx = client.qp.send_cq().poll(4);
            if !tx.is_empty() {
                assert!(tx[0].is_ok(), "write failed: {tx:?}");
                client.dev.charge_poll(&tb.sim, CoreId(0), tx.len());
                break;
            }
            assert!(tb.sim.step(), "write stalled");
        }
        rec.record(tb.sim.now() - start);
    }
    EchoResult {
        latency_us: rec.mean().as_micros_f64(),
        rps: throughput_ops_per_sec(msgs as u64, tb.sim.now() - t0),
    }
}

/// The protection domain a verbs endpoint's buffers live in.
fn client_pd(end: &VerbsEnd) -> rdma_verbs::ProtectionDomain {
    end.pd
}

/// The RUBIN RDMA channel echo with a configurable optimization set.
/// Frame loss probability `loss` (0.0 for the figure) applies to both
/// directions of the link *after* establishment: the RC retransmission path
/// recovers every drop while the data path stays on the RNIC (asserted by
/// the stack-invariant tests). Returns the operating point and the run's
/// full cross-layer [`MetricsSnapshot`].
pub fn channel_echo(
    payload: usize,
    msgs: usize,
    cfg: RubinConfig,
    loss: f64,
) -> (EchoResult, MetricsSnapshot) {
    let mut tb = TestBed::paper_testbed(0xF1634);
    let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
    let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
    let _listener = dev_b.listen(4000).expect("port free");
    let client = RdmaChannel::connect(
        &mut tb.sim,
        &dev_a,
        simnet::Addr::new(tb.b, 4000),
        cfg.clone(),
        CoreId(0),
    )
    .expect("connect");
    tb.sim.run_until_idle();
    // Manual accept + establishment (no selector in this microbenchmark).
    let mut server = None;
    while let Some(ev) = dev_b.poll_cm_event() {
        if let rdma_verbs::CmEvent::ConnectRequest(req) = ev {
            server = Some(
                RdmaChannel::from_accepted(&mut tb.sim, &dev_b, req, cfg.clone(), CoreId(0))
                    .expect("accept"),
            );
        }
    }
    let server = server.expect("server channel");
    tb.sim.run_until_idle();
    while let Some(ev) = dev_a.poll_cm_event() {
        if let rdma_verbs::CmEvent::Established { .. } = ev {
            client.mark_established(&mut tb.sim);
        }
    }
    assert!(client.is_established());
    if loss > 0.0 {
        let (a, b) = (tb.a, tb.b);
        tb.net.with_faults(|f| {
            f.set_loss(a, b, loss);
            f.set_loss(b, a, loss);
        });
    }
    let data = pattern(payload);

    let mut rec = LatencyRecorder::new();
    let t0 = tb.sim.now();
    for _ in 0..msgs {
        let start = tb.sim.now();
        assert!(client.write(&mut tb.sim, &data).expect("write accepted"));
        let mut echoed = false;
        loop {
            server.process_completions(&mut tb.sim);
            if !echoed {
                if let RecvOutcome::Msg(m) = server.read(&mut tb.sim).expect("read") {
                    assert_eq!(m.len(), payload);
                    assert!(server.write(&mut tb.sim, &m).expect("echo accepted"));
                    echoed = true;
                }
            }
            client.process_completions(&mut tb.sim);
            if let RecvOutcome::Msg(m) = client.read(&mut tb.sim).expect("read") {
                assert_eq!(m, data);
                break;
            }
            assert!(tb.sim.step(), "channel echo stalled");
        }
        rec.record(tb.sim.now() - start);
    }
    let result = EchoResult {
        latency_us: rec.mean().as_micros_f64(),
        rps: throughput_ops_per_sec(msgs as u64, tb.sim.now() - t0),
    };
    tb.net.publish_sim_gauges(&tb.sim);
    (result, tb.net.metrics().snapshot())
}

/// Pipelined RUBIN channel echo: keeps `window` messages outstanding so
/// per-message overheads (signaling, posting) land on the critical path —
/// used by the ablation benchmark where the sequential echo would hide
/// them in idle time.
pub fn channel_echo_pipelined(
    payload: usize,
    msgs: usize,
    window: usize,
    cfg: RubinConfig,
) -> EchoResult {
    let mut tb = TestBed::paper_testbed(0xF1635);
    let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
    let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
    let _listener = dev_b.listen(4000).expect("port free");
    let client = RdmaChannel::connect(
        &mut tb.sim,
        &dev_a,
        simnet::Addr::new(tb.b, 4000),
        cfg.clone(),
        CoreId(0),
    )
    .expect("connect");
    tb.sim.run_until_idle();
    let mut server = None;
    while let Some(ev) = dev_b.poll_cm_event() {
        if let rdma_verbs::CmEvent::ConnectRequest(req) = ev {
            server = Some(
                RdmaChannel::from_accepted(&mut tb.sim, &dev_b, req, cfg.clone(), CoreId(0))
                    .expect("accept"),
            );
        }
    }
    let server = server.expect("server channel");
    tb.sim.run_until_idle();
    while let Some(ev) = dev_a.poll_cm_event() {
        if let rdma_verbs::CmEvent::Established { .. } = ev {
            client.mark_established(&mut tb.sim);
        }
    }
    let data = pattern(payload);

    let mut rec = LatencyRecorder::new();
    let mut send_times = std::collections::VecDeque::new();
    let mut sent = 0usize;
    let mut done = 0usize;
    let t0 = tb.sim.now();
    while done < msgs {
        // Keep the window full.
        while sent < msgs && sent - done < window {
            if !client.write(&mut tb.sim, &data).expect("write") {
                break; // buffers exhausted: wait for completions
            }
            send_times.push_back(tb.sim.now());
            sent += 1;
        }
        server.process_completions(&mut tb.sim);
        if cfg.zero_copy_receive {
            // §VII path: echo from the borrowed buffer without copying out.
            while let Some(m) = server.read_borrowed(&mut tb.sim).expect("read") {
                let echoed = m.with_data(|d| d.to_vec());
                m.release(&mut tb.sim).expect("release");
                if !server.write(&mut tb.sim, &echoed).expect("echo") {
                    break;
                }
            }
        } else {
            while let RecvOutcome::Msg(m) = server.read(&mut tb.sim).expect("read") {
                if !server.write(&mut tb.sim, &m).expect("echo") {
                    // Should not happen with symmetric pools, but be safe.
                    break;
                }
            }
        }
        client.process_completions(&mut tb.sim);
        while let RecvOutcome::Msg(_) = client.read(&mut tb.sim).expect("read") {
            let at = send_times.pop_front().expect("matching send");
            rec.record(tb.sim.now() - at);
            done += 1;
        }
        if done < msgs && !tb.sim.step() {
            panic!("pipelined channel echo stalled at {done}/{msgs}");
        }
    }
    EchoResult {
        latency_us: rec.mean().as_micros_f64(),
        rps: throughput_ops_per_sec(msgs as u64, tb.sim.now() - t0),
    }
}

/// Formats the expected-shape checks of §V against the measured series;
/// returns human-readable pass/fail lines (used by the binary and tests).
pub fn shape_report(lat: &[Series], thr: &[Series]) -> Vec<(String, bool)> {
    let v = |s: &Series, p: usize| s.value_at(p).expect("point measured");
    let tcp = &lat[0];
    let sr = &lat[1];
    let rw = &lat[2];
    let ch = &lat[3];
    let mut out = Vec::new();

    // RDMA Read/Write lowest latency everywhere.
    let rw_lowest = PAYLOAD_SWEEP
        .iter()
        .all(|&p| v(rw, p) < v(sr, p) && v(rw, p) < v(tcp, p) && v(rw, p) < v(ch, p));
    out.push(("RDMA Read/Write has the lowest latency".into(), rw_lowest));

    // ~46 % below Send/Recv (band check: 35–70 % — see EXPERIMENTS.md for
    // why the simulated gap runs somewhat above the paper's).
    let rw_vs_sr: f64 = PAYLOAD_SWEEP
        .iter()
        .map(|&p| 1.0 - v(rw, p) / v(sr, p))
        .sum::<f64>()
        / PAYLOAD_SWEEP.len() as f64;
    out.push((
        format!(
            "Read/Write ≈46% below Send/Recv (measured {:.0}%)",
            rw_vs_sr * 100.0
        ),
        (0.35..=0.70).contains(&rw_vs_sr),
    ));

    // 53–79 % below TCP.
    let rw_vs_tcp_min = PAYLOAD_SWEEP
        .iter()
        .map(|&p| 1.0 - v(rw, p) / v(tcp, p))
        .fold(f64::INFINITY, f64::min);
    let rw_vs_tcp_max = PAYLOAD_SWEEP
        .iter()
        .map(|&p| 1.0 - v(rw, p) / v(tcp, p))
        .fold(0.0, f64::max);
    out.push((
        format!(
            "Read/Write 53–79% below TCP (measured {:.0}–{:.0}%)",
            rw_vs_tcp_min * 100.0,
            rw_vs_tcp_max * 100.0
        ),
        rw_vs_tcp_min > 0.50 && rw_vs_tcp_max < 0.85,
    ));

    // Channel 33–43 % below TCP.
    let ch_vs_tcp: Vec<f64> = PAYLOAD_SWEEP
        .iter()
        .map(|&p| 1.0 - v(ch, p) / v(tcp, p))
        .collect();
    let lo = ch_vs_tcp.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ch_vs_tcp.iter().copied().fold(0.0, f64::max);
    out.push((
        format!(
            "Channel 33–43% below TCP (measured {:.0}–{:.0}%)",
            lo * 100.0,
            hi * 100.0
        ),
        lo > 0.25 && hi < 0.50,
    ));

    // Channel beats Send/Recv at small payloads and loses above the
    // crossover (the receive-side copy). The simulated crossover sits at
    // ~4–8 KB versus the paper's 16 KB; see EXPERIMENTS.md.
    let small_better = [1024usize, 2048, 4096].iter().all(|&p| v(ch, p) < v(sr, p));
    let large_worse = [32_768usize, 65_536, 102_400]
        .iter()
        .all(|&p| v(ch, p) > v(sr, p));
    out.push((
        "Channel beats Send/Recv at small payloads, degrades at large (recv copy)".into(),
        small_better && large_worse,
    ));

    // Throughput mirror: Read/Write highest everywhere.
    let t = |s: &Series, p: usize| s.value_at(p).expect("point");
    let rw_thr_best = PAYLOAD_SWEEP
        .iter()
        .all(|&p| t(&thr[2], p) >= t(&thr[0], p) && t(&thr[2], p) >= t(&thr[1], p));
    out.push(("Read/Write throughput is the highest".into(), rw_thr_best));
    out
}
