//! Quickstart: an echo client/server over the RUBIN RDMA framework.
//!
//! Builds the paper's two-machine testbed in simulation, binds a RUBIN
//! server channel, connects a client channel, and ping-pongs a few
//! messages — fully driven by the RDMA selectors, just like a real RUBIN
//! application.
//!
//! Run with: `cargo run --example quickstart`

use rdma_verbs::{RdmaDevice, RnicModel};
use rubin::{Interest, RdmaChannel, RdmaSelector, RdmaServerChannel, RecvOutcome, RubinConfig};
use simnet::{Addr, CoreId, TestBed};

fn main() {
    // Two 4-core hosts joined by a 10 Gbps link, as in the paper's testbed.
    let mut tb = TestBed::paper_testbed(2026);
    let dev_client = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
    let dev_server = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
    let cfg = RubinConfig::paper();

    // --- Server: accept connections and echo every message back. -------
    let server = RdmaServerChannel::bind(&dev_server, 4242, cfg.clone(), CoreId(0))
        .expect("bind server channel");
    let selector = RdmaSelector::new(&dev_server, &[CoreId(0)], cfg.select_ns);
    selector.register_server(&mut tb.sim, &server);

    fn serve(sel: rubin::RdmaSelector, server: RdmaServerChannel, sim: &mut simnet::Simulator) {
        let sel2 = sel.clone();
        sel.select(sim, 0, move |sim, ready| {
            for ev in ready {
                if ev.ready.contains(Interest::OP_CONNECT) {
                    let chan = server.accept(sim).expect("accept").expect("pending");
                    println!("[server] accepted connection ({:?})", chan.qp().num());
                    sel2.register_channel(sim, &chan, Interest::OP_RECEIVE);
                }
                if ev.ready.contains(Interest::OP_RECEIVE) {
                    if let Some(chan) = sel2.channel_for(ev.key) {
                        while let Ok(RecvOutcome::Msg(m)) = chan.read(sim) {
                            println!("[server] echoing {} bytes", m.len());
                            chan.write(sim, &m).expect("echo");
                        }
                    }
                }
            }
            serve(sel2, server, sim);
        });
    }
    serve(selector, server.clone(), &mut tb.sim);

    // --- Client: connect and send messages of growing size. ------------
    let client = RdmaChannel::connect(
        &mut tb.sim,
        &dev_client,
        Addr::new(tb.b, 4242),
        cfg.clone(),
        CoreId(0),
    )
    .expect("connect");
    let client_sel = RdmaSelector::new(&dev_client, &[CoreId(0)], cfg.select_ns);
    client_sel.register_channel(
        &mut tb.sim,
        &client,
        Interest::OP_ACCEPT | Interest::OP_RECEIVE,
    );
    tb.sim.run_until_idle();
    assert!(client.is_established(), "connection must establish");
    println!("[client] connected over simulated RoCE");

    for size in [64usize, 1024, 16 * 1024, 100 * 1024] {
        let msg: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let sent_at = tb.sim.now();
        client.write(&mut tb.sim, &msg).expect("write accepted");
        // Drive the simulation until the echo arrives.
        let reply = loop {
            tb.sim.run_until_idle();
            client.process_completions(&mut tb.sim);
            match client.read(&mut tb.sim).expect("read") {
                RecvOutcome::Msg(m) => break m,
                RecvOutcome::WouldBlock => continue,
                RecvOutcome::Eof => panic!("server disconnected"),
            }
        };
        assert_eq!(reply, msg, "payload integrity");
        println!(
            "[client] {:>6} B echoed in {} (pre-registered pools, selective signaling)",
            size,
            tb.sim.now() - sent_at
        );
    }

    let st = client.stats();
    println!(
        "\nclient stats: {} msgs sent ({} inline, {} pooled), {} signaled, {} received",
        st.msgs_sent, st.inline_sends, st.copied_sends, st.signaled_sends, st.msgs_received
    );
    println!("simulated time elapsed: {}", tb.sim.now());
}
