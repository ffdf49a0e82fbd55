//! Layer probes: each times only public calls of one layer on inputs fixed
//! by the seed (the two-host testbed is built from the seeded machine), for at least [`MIN_SECONDS`] and [`MIN_ITERATIONS`], and checks
//! what the calls returned. Host figures are medians over batches and are
//! reported, never gated; simulated figures repeat exactly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bft_crypto::{hmac_sha256, sha256, KeyTable};
use kvstore::{check_linearizable, KvEvent};
use rdma_verbs::{
    connect_pair, Access, CmEvent, MemoryRegion, QpConfig, QueuePair, RdmaDevice, RecvWr,
    RnicModel, SendWr, Sge, WrId,
};
use reptor::{
    encode_frame, scan_frames, DurableStore, Message, Request, SignedMessage, WalFrame,
    DOMAIN_SECRET,
};
use rubin::{RdmaChannel, RecvOutcome};
use simnet::{Addr, CoreId, DiskSpec, Metrics, Nanos, SimDisk, Simulator, SplitMix64, TestBed};
use simnet_socket::{ReadOutcome, TcpListener, TcpStream};

use crate::stats;
use crate::workloads::{self, Scale};
use crate::world;

/// Every probe runs at least this long …
pub const MIN_SECONDS: f64 = 0.3;
/// … and at least this many iterations.
pub const MIN_ITERATIONS: u64 = 1_000;

const KB: usize = 1024;

/// One probe's figure.
#[derive(Debug, Clone)]
pub struct ProbeValue {
    /// Metric name (a `*.probe_*` entry of the catalogue).
    pub name: &'static str,
    /// The figure, in the catalogue's unit.
    pub value: f64,
    /// Iterations behind it.
    pub iterations: u64,
}

struct Timing {
    iterations: u64,
    /// Median over batches of host ns per iteration.
    host_ns: f64,
}

/// Runs `body` in batches of `batch` iterations until both minimums are
/// met; `body` receives the iteration number, and its first error ends the
/// probe.
fn time(batch: u64, mut body: impl FnMut(u64) -> Result<(), String>) -> Result<Timing, String> {
    let min = Duration::from_secs_f64(MIN_SECONDS);
    let started = Instant::now();
    let mut iterations = 0;
    let mut per_iter = Vec::new();
    while iterations < MIN_ITERATIONS || started.elapsed() < min {
        let t = Instant::now();
        for _ in 0..batch {
            body(iterations)?;
            iterations += 1;
        }
        per_iter.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    Ok(Timing {
        iterations,
        host_ns: stats::median(&per_iter),
    })
}

/// Simulated round-trip times of a probe's first [`MIN_ITERATIONS`]
/// iterations. How many iterations a probe runs beyond that depends on the
/// host's speed, and round trips differ (every eighth send is signaled), so
/// only this fixed prefix gives a figure that repeats.
#[derive(Default)]
struct SimRtt {
    ns: Vec<u64>,
}

impl SimRtt {
    fn record(&mut self, ns: u64) {
        if (self.ns.len() as u64) < MIN_ITERATIONS {
            self.ns.push(ns);
        }
    }

    fn median_us(&self) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        stats::percentile(&sorted, 50.0) as f64 / 1e3
    }
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("probe check failed: {what}"))
    }
}

/// Bare `Simulator::{schedule_in, cancel, step}` with a standing window of
/// 100 000 events, one in two cancelled.
fn event_core(seed: u64, out: &mut Vec<ProbeValue>) -> Result<(), String> {
    const STANDING: u64 = 100_000;
    let mut sim = Simulator::new(seed);
    let mut rng = SplitMix64::new(seed);
    let mut delay = move || Nanos::from_nanos(1 + rng.next_bounded(1_000_000));
    let event = |tag: u64| -> simnet::EventFn {
        Box::new(move |_sim: &mut Simulator| {
            black_box(tag);
        })
    };
    for i in 0..STANDING {
        sim.schedule_in(delay(), event(i));
    }
    let t = time(1_000, |i| {
        let keep = sim.schedule_in(delay(), event(i));
        let drop = sim.schedule_in(delay(), event(i));
        sim.cancel(drop);
        black_box(keep);
        sim.step();
        Ok(())
    })?;
    let q = sim.queue_stats();
    ensure(
        sim.executed_events() == t.iterations,
        "one event fired per step",
    )?;
    ensure(
        q.cancelled == t.iterations,
        "one event cancelled per iteration",
    )?;
    ensure(
        q.pending as u64 == STANDING,
        "the standing window kept its size",
    )?;
    out.push(ProbeValue {
        name: "simnet.probe_event_core_ns_per_event",
        value: t.host_ns,
        iterations: t.iterations,
    });
    Ok(())
}

struct VerbsEnd {
    dev: RdmaDevice,
    qp: QueuePair,
    send: MemoryRegion,
    recv: MemoryRegion,
}

fn verbs_pair(tb: &TestBed, rnic: &RnicModel) -> (VerbsEnd, VerbsEnd) {
    let end = |host| {
        let dev = RdmaDevice::open(&tb.net, host, rnic.clone());
        let pd = dev.alloc_pd();
        let qp = dev.create_qp(&QpConfig {
            pd,
            send_cq: dev.create_cq(256, None),
            recv_cq: dev.create_cq(256, None),
            core: CoreId(0),
        });
        let send = dev.reg_mr(&pd, KB, Access::LOCAL_WRITE | Access::REMOTE_READ);
        let recv = dev.reg_mr(&pd, KB, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
        VerbsEnd {
            dev,
            qp,
            send,
            recv,
        }
    };
    let (a, b) = (end(tb.a), end(tb.b));
    connect_pair(&a.qp, &b.qp).expect("fresh queue pairs connect");
    (a, b)
}

/// Steps the simulator until `cq` yields a completion; charges the poll.
fn await_completion(tb: &mut TestBed, end: &VerbsEnd, recv_side: bool) -> Result<(), String> {
    loop {
        let cq = if recv_side {
            end.qp.recv_cq()
        } else {
            end.qp.send_cq()
        };
        let done = cq.poll(4);
        if let Some(wc) = done.first() {
            end.dev.charge_poll(&tb.sim, CoreId(0), done.len());
            return ensure(wc.is_ok(), "work completion succeeded");
        }
        ensure(tb.sim.step(), "verbs probe made progress")?;
    }
}

/// A 2-host queue pair: a 1 KB SEND/RECV echo and a 1 KB one-sided READ.
fn verbs(seed: u64, out: &mut Vec<ProbeValue>) -> Result<(), String> {
    let (mut tb, machine) = world::testbed(seed);
    let (client, server) = verbs_pair(&tb, &machine.rnic);
    let data = world::payload(seed, 1, KB);
    client.send.write(0, &data).expect("fits");
    server.send.write(0, &data).expect("fits");
    let post_recv = |tb: &mut TestBed, end: &VerbsEnd, id: u64| {
        end.qp
            .post_recv(
                &mut tb.sim,
                RecvWr::new(WrId(id), Sge::whole(end.recv.clone())),
            )
            .map_err(|e| format!("post_recv: {e:?}"))
    };
    post_recv(&mut tb, &client, 0)?;
    post_recv(&mut tb, &server, 0)?;

    let mut rtt = SimRtt::default();
    let t = time(100, |i| {
        let start = tb.sim.now();
        let send = |tb: &mut TestBed, end: &VerbsEnd| {
            end.qp
                .post_send(
                    &mut tb.sim,
                    SendWr::send(WrId(i), Sge::whole(end.send.clone())).signaled(),
                )
                .map_err(|e| format!("post_send: {e:?}"))
        };
        send(&mut tb, &client)?;
        await_completion(&mut tb, &server, true)?;
        post_recv(&mut tb, &server, i + 1)?;
        send(&mut tb, &server)?;
        await_completion(&mut tb, &client, true)?;
        post_recv(&mut tb, &client, i + 1)?;
        // Drain the two send completions so the queues never fill.
        await_completion(&mut tb, &client, false)?;
        await_completion(&mut tb, &server, false)?;
        rtt.record((tb.sim.now() - start).as_nanos());
        Ok(())
    })?;
    ensure(
        client.recv.read(0, KB).ok().as_deref() == Some(&data[..]),
        "SEND/RECV echo delivered the bytes",
    )?;
    out.push(ProbeValue {
        name: "rdma.probe_send_recv_rtt_us",
        value: rtt.median_us(),
        iterations: t.iterations,
    });
    out.push(ProbeValue {
        name: "rdma.probe_post_poll_host_ns",
        value: t.host_ns / 2.0, // per message: a round trip is two
        iterations: t.iterations,
    });

    // One-sided READ of the server's (remotely readable) send buffer.
    let rkey = server.send.rkey();
    let mut rtt = SimRtt::default();
    let t = time(100, |i| {
        let start = tb.sim.now();
        client
            .qp
            .post_send(
                &mut tb.sim,
                SendWr::read(WrId(i), Sge::whole(client.recv.clone()), rkey, 0).signaled(),
            )
            .map_err(|e| format!("post READ: {e:?}"))?;
        await_completion(&mut tb, &client, false)?;
        rtt.record((tb.sim.now() - start).as_nanos());
        Ok(())
    })?;
    ensure(
        client.recv.read(0, KB).ok().as_deref() == Some(&data[..]),
        "one-sided READ fetched the bytes",
    )?;
    out.push(ProbeValue {
        name: "rdma.probe_read_rtt_us",
        value: rtt.median_us(),
        iterations: t.iterations,
    });
    Ok(())
}

/// A 1 KB echo over one TCP stream between two hosts.
fn tcp(seed: u64, out: &mut Vec<ProbeValue>) -> Result<(), String> {
    let (mut tb, machine) = world::testbed(seed);
    let model = machine.tcp;
    let listener = TcpListener::bind(&tb.net, tb.b, 80, CoreId(0), model.clone())
        .map_err(|e| format!("bind: {e:?}"))?;
    let client = TcpStream::connect(
        &mut tb.sim,
        &tb.net,
        tb.a,
        CoreId(0),
        model,
        listener.local_addr(),
    );
    tb.sim.run_until_idle();
    let server = listener
        .accept(&mut tb.sim)
        .ok_or("tcp probe: nothing to accept")?;
    let data = world::payload(seed, 2, KB);

    /// Moves `data` from `from` to `to`, stepping the simulator as needed.
    fn transfer(
        sim: &mut Simulator,
        from: &TcpStream,
        to: &TcpStream,
        data: &[u8],
    ) -> Result<Vec<u8>, String> {
        let mut sent = 0;
        let mut got = Vec::with_capacity(data.len());
        while got.len() < data.len() {
            if sent < data.len() && from.free_send_space() > 0 {
                sent += from
                    .write(sim, &data[sent..])
                    .map_err(|e| format!("write: {e:?}"))?;
            }
            if to.available() > 0 {
                if let ReadOutcome::Data(d) =
                    to.read(sim, 1 << 20).map_err(|e| format!("read: {e:?}"))?
                {
                    got.extend_from_slice(&d);
                }
                continue;
            }
            if !sim.step() {
                return Err("tcp probe stalled".into());
            }
        }
        Ok(got)
    }

    let mut rtt = SimRtt::default();
    let mut echoed = Vec::new();
    let t = time(100, |_| {
        let start = tb.sim.now();
        let at_server = transfer(&mut tb.sim, &client, &server, &data)?;
        echoed = transfer(&mut tb.sim, &server, &client, &at_server)?;
        rtt.record((tb.sim.now() - start).as_nanos());
        Ok(())
    })?;
    ensure(echoed == data, "TCP echo returned the bytes")?;
    out.push(ProbeValue {
        name: "tcp.probe_echo_rtt_us",
        value: rtt.median_us(),
        iterations: t.iterations,
    });
    out.push(ProbeValue {
        name: "tcp.probe_host_ns_per_msg",
        value: t.host_ns / 2.0,
        iterations: t.iterations,
    });
    Ok(())
}

/// A 1 KB echo over one RUBIN channel between two hosts.
fn rubin_channel(seed: u64, out: &mut Vec<ProbeValue>) -> Result<(), String> {
    let (mut tb, machine) = world::testbed(seed);
    let cfg = machine.rubin;
    let dev_a = RdmaDevice::open(&tb.net, tb.a, machine.rnic.clone());
    let dev_b = RdmaDevice::open(&tb.net, tb.b, machine.rnic);
    let _listener = dev_b.listen(4000).map_err(|e| format!("listen: {e:?}"))?;
    let client = RdmaChannel::connect(
        &mut tb.sim,
        &dev_a,
        Addr::new(tb.b, 4000),
        cfg.clone(),
        CoreId(0),
    )
    .map_err(|e| format!("connect: {e:?}"))?;
    tb.sim.run_until_idle();
    let mut server = None;
    while let Some(ev) = dev_b.poll_cm_event() {
        if let CmEvent::ConnectRequest(req) = ev {
            server = Some(
                RdmaChannel::from_accepted(&mut tb.sim, &dev_b, req, cfg.clone(), CoreId(0))
                    .map_err(|e| format!("accept: {e:?}"))?,
            );
        }
    }
    let server = server.ok_or("rubin probe: no connect request")?;
    tb.sim.run_until_idle();
    while let Some(ev) = dev_a.poll_cm_event() {
        if let CmEvent::Established { .. } = ev {
            client.mark_established(&mut tb.sim);
        }
    }
    ensure(client.is_established(), "RUBIN channel established")?;
    let data = world::payload(seed, 3, KB);

    let mut rtt = SimRtt::default();
    let mut echoed = Vec::new();
    let t = time(100, |_| {
        let start = tb.sim.now();
        let accepted = client
            .write(&mut tb.sim, &data)
            .map_err(|e| format!("write: {e:?}"))?;
        ensure(accepted, "channel accepted the message")?;
        let mut bounced = false;
        loop {
            server.process_completions(&mut tb.sim);
            if !bounced {
                if let RecvOutcome::Msg(m) = server
                    .read(&mut tb.sim)
                    .map_err(|e| format!("read: {e:?}"))?
                {
                    let accepted = server
                        .write(&mut tb.sim, &m)
                        .map_err(|e| format!("echo: {e:?}"))?;
                    ensure(accepted, "channel accepted the echo")?;
                    bounced = true;
                }
            }
            client.process_completions(&mut tb.sim);
            if let RecvOutcome::Msg(m) = client
                .read(&mut tb.sim)
                .map_err(|e| format!("read: {e:?}"))?
            {
                echoed = m;
                break;
            }
            ensure(tb.sim.step(), "channel probe made progress")?;
        }
        rtt.record((tb.sim.now() - start).as_nanos());
        Ok(())
    })?;
    ensure(echoed == data, "RUBIN echo returned the bytes")?;
    out.push(ProbeValue {
        name: "rubin.probe_channel_rtt_us",
        value: rtt.median_us(),
        iterations: t.iterations,
    });
    out.push(ProbeValue {
        name: "rubin.probe_host_ns_per_msg",
        value: t.host_ns / 2.0,
        iterations: t.iterations,
    });
    Ok(())
}

/// SHA-256 throughput, HMAC, MAC-vector creation and verification.
fn crypto(seed: u64, out: &mut Vec<ProbeValue>) -> Result<(), String> {
    // FIPS 180-2 appendix B.1.
    const ABC: [u8; 32] = [
        0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea, 0x41, 0x41, 0x40, 0xde, 0x5d, 0xae, 0x22,
        0x23, 0xb0, 0x03, 0x61, 0xa3, 0x96, 0x17, 0x7a, 0x9c, 0xb4, 0x10, 0xff, 0x61, 0xf2, 0x00,
        0x15, 0xad,
    ];
    ensure(sha256(b"abc") == ABC, "SHA-256(\"abc\") matches FIPS 180-2")?;

    let block = world::payload(seed, 4, 64 * KB);
    let t = time(10, |_| {
        black_box(sha256(black_box(&block)));
        Ok(())
    })?;
    out.push(ProbeValue {
        name: "crypto.probe_sha256_mb_s",
        value: block.len() as f64 / (t.host_ns / 1e9) / 1e6,
        iterations: t.iterations,
    });

    let msg = world::payload(seed, 5, KB);
    let key = world::payload(seed, 6, 32);
    let t = time(100, |_| {
        black_box(hmac_sha256(black_box(&key), black_box(&msg)));
        Ok(())
    })?;
    out.push(ProbeValue {
        name: "crypto.probe_hmac_1k_ns",
        value: t.host_ns,
        iterations: t.iterations,
    });

    let sender = KeyTable::new(0, DOMAIN_SECRET.to_vec());
    let receiver = KeyTable::new(2, DOMAIN_SECRET.to_vec());
    let t = time(100, |_| {
        black_box(sender.authenticate(black_box(&msg), &[1, 2, 3]));
        Ok(())
    })?;
    out.push(ProbeValue {
        name: "crypto.probe_authenticate_n4_1k_ns",
        value: t.host_ns,
        iterations: t.iterations,
    });
    let auth = sender.authenticate(&msg, &[1, 2, 3]);
    let t = time(100, |_| {
        ensure(
            receiver.verify(black_box(&msg), black_box(&auth)),
            "the MAC vector verifies at its receiver",
        )
    })?;
    let mut forged = msg.clone();
    forged[0] ^= 1;
    ensure(
        !receiver.verify(&forged, &auth),
        "a flipped bit fails the MAC",
    )?;
    out.push(ProbeValue {
        name: "crypto.probe_verify_1k_ns",
        value: t.host_ns,
        iterations: t.iterations,
    });
    Ok(())
}

/// Sign + encode and decode + verify of a 1 KB request.
fn codec(seed: u64, out: &mut Vec<ProbeValue>) -> Result<(), String> {
    let sender = KeyTable::new(4, DOMAIN_SECRET.to_vec());
    let receiver = KeyTable::new(1, DOMAIN_SECRET.to_vec());
    let msg = Message::Request(Request {
        client: 4,
        timestamp: 7,
        payload: world::payload(seed, 7, KB),
    });
    let t = time(100, |_| {
        black_box(SignedMessage::create(black_box(&msg), &sender, &[0, 1, 2, 3]).encode());
        Ok(())
    })?;
    out.push(ProbeValue {
        name: "codec.probe_sign_encode_1k_ns",
        value: t.host_ns,
        iterations: t.iterations,
    });

    let wire = SignedMessage::create(&msg, &sender, &[0, 1, 2, 3]).encode();
    let t = time(100, |_| {
        let decoded = SignedMessage::decode(black_box(&wire))
            .ok()
            .and_then(|s| s.verify_and_decode(&receiver).ok().flatten());
        ensure(
            decoded.as_ref() == Some(&msg),
            "decode ∘ encode is the identity",
        )
    })?;
    out.push(ProbeValue {
        name: "codec.probe_decode_verify_1k_ns",
        value: t.host_ns,
        iterations: t.iterations,
    });
    Ok(())
}

fn wal_frame(seed: u64, seq: u64) -> WalFrame {
    let requests: Vec<Request> = (0..4)
        .map(|i| Request {
            client: 4,
            timestamp: seq * 4 + i,
            payload: world::payload(seed, seq * 4 + i, 256),
        })
        .collect();
    WalFrame {
        seq,
        digest: reptor::batch_digest(&requests),
        requests,
    }
}

/// `scan_frames` over a frame stream with one torn tail, and WAL appends.
fn durability(seed: u64, out: &mut Vec<ProbeValue>) -> Result<(), String> {
    const FRAMES: u64 = 256;
    let mut stream = Vec::new();
    for seq in 1..=FRAMES {
        stream.extend_from_slice(&encode_frame(&wal_frame(seed, seq)));
    }
    let intact = stream.len() as u64;
    let torn = encode_frame(&wal_frame(seed, FRAMES + 1));
    stream.extend_from_slice(&torn[..torn.len() / 2]);

    let t = time(10, |_| {
        let scan = scan_frames(black_box(&stream));
        ensure(
            scan.frames.len() as u64 == FRAMES && scan.truncated && scan.valid_bytes == intact,
            "scan keeps the clean prefix and flags the torn tail",
        )
    })?;
    out.push(ProbeValue {
        name: "durability.probe_scan_frames_mb_s",
        value: stream.len() as f64 / (t.host_ns / 1e9) / 1e6,
        iterations: t.iterations,
    });

    // Appends; a fresh store per batch keeps the WAL cache bounded.
    const BATCH: u64 = 1_000;
    let frames: Vec<WalFrame> = (1..=BATCH).map(|seq| wal_frame(seed, seq)).collect();
    let metrics = Metrics::new();
    let fresh = || {
        DurableStore::new(
            SimDisk::new("probe", DiskSpec::nvme(), metrics.clone()),
            true,
            4,
            metrics.clone(),
            "probe.".to_string(),
        )
    };
    let mut store = fresh();
    let mut acked = Nanos::ZERO;
    let t = time(BATCH, |i| {
        let at = (i % BATCH) as usize;
        if at == 0 {
            store = fresh();
        }
        acked = store.append_batch(Nanos::ZERO, &frames[at]);
        Ok(())
    })?;
    ensure(acked > Nanos::ZERO, "the drive acknowledged the append")?;
    ensure(
        metrics.counter("probe.wal_frames_appended") == t.iterations,
        "every append was counted",
    )?;
    out.push(ProbeValue {
        name: "durability.probe_append_host_ns",
        value: t.host_ns,
        iterations: t.iterations,
    });
    Ok(())
}

/// `check_linearizable` on a recorded `kv_read_heavy` history.
fn lin_check(seed: u64, out: &mut Vec<ProbeValue>) -> Result<(), String> {
    let lap = workloads::by_name("kv_read_heavy")
        .expect("kv_read_heavy exists")
        .lap(seed, Scale::Quick, None);
    let history: Vec<KvEvent> = lap
        .extras
        .kv_history
        .ok_or("kv_read_heavy recorded no history")?;
    ensure(lap.violations.is_empty(), "the recorded history is clean")?;
    let t = time(10, |_| {
        check_linearizable(black_box(&history))
            .map_err(|e| format!("probe check failed: recorded history: {e}"))
    })?;
    out.push(ProbeValue {
        name: "kv.probe_lin_check_us_per_op",
        value: t.host_ns / 1e3 / history.len() as f64,
        iterations: t.iterations,
    });
    Ok(())
}

/// Runs every probe. Any failed check fails the run.
pub fn run_all(seed: u64) -> Result<Vec<ProbeValue>, String> {
    let mut out = Vec::new();
    event_core(seed, &mut out)?;
    verbs(seed, &mut out)?;
    tcp(seed, &mut out)?;
    rubin_channel(seed, &mut out)?;
    crypto(seed, &mut out)?;
    codec(seed, &mut out)?;
    durability(seed, &mut out)?;
    lin_check(seed, &mut out)?;
    Ok(out)
}
