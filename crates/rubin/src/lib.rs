//! # rubin — the RUBIN RDMA communication framework
//!
//! Reproduction of the paper's contribution: an RDMA communication
//! framework modeled after the Java NIO selector, enabling BFT frameworks
//! (Reptor, BFT-SMaRt, UpRight) to adopt RDMA **without rewriting their
//! communication stack** (paper §III).
//!
//! The pieces map one-to-one onto the paper's Figure 1:
//!
//! * [`RdmaChannel`] — a non-blocking, message-oriented channel wrapping an
//!   RC queue pair and its pre-registered buffer pools, with `read_all()`
//!   / `write_all()` (and their one-message `read()` / `write()`) in the
//!   style of a NIO socket channel.
//! * [`RdmaServerChannel`] — the `ServerSocketChannel` analogue.
//! * [`RdmaSelector`] + [`RubinKey`] selection keys — readiness
//!   multiplexing for many channels on one select thread per core, driven
//!   by the **hybrid event queue** and **event manager** (§III-B, Figure
//!   2). The keys and select threads are the selector core the NIO stack
//!   shares, [`simnet::Selector`].
//! * [`Interest`] — `OP_CONNECT`, `OP_ACCEPT`, `OP_RECEIVE`, `OP_SEND`
//!   (§III-B naming).
//!
//! The §IV optimizations — pre-registered buffer pools, batched posting,
//! selective signaling, send-side zero copy, inline sends — are all
//! implemented and individually togglable through [`RubinConfig`], which
//! the ablation benchmark uses.
//!
//! RUBIN deliberately uses two-sided Send/Receive semantics (§III-A): both
//! sides operate independently and no application buffer is ever exposed to
//! the remote side, which is what makes the framework safe in a Byzantine
//! setting (§III-C) — see the `write_to_read_only_region_denied` and
//! related tests in `rdma-verbs` for the underlying enforcement.
//!
//! # Example: RUBIN connect/accept over the simulated fabric
//!
//! ```
//! use rubin::{Interest, RdmaChannel, RdmaSelector, RdmaServerChannel, RubinConfig};
//! use rdma_verbs::{RdmaDevice, RnicModel};
//! use simnet::{Addr, CoreId, TestBed};
//!
//! let mut tb = TestBed::paper_testbed(42);
//! let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
//! let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
//!
//! // Server side: bind, register with a selector, accept on OP_CONNECT.
//! let server = RdmaServerChannel::bind(&dev_b, 4000, RubinConfig::paper(), CoreId(0))?;
//! let sel_b = RdmaSelector::new(&dev_b, &[CoreId(0)], RubinConfig::paper().select_ns);
//! sel_b.register_server(&mut tb.sim, &server);
//! let srv = server.clone();
//! sel_b.select(&mut tb.sim, 0, move |sim, _ready| {
//!     srv.accept(sim).unwrap().unwrap();
//! });
//!
//! // Client side: connect; OP_ACCEPT readiness fires when established.
//! let client = RdmaChannel::connect(&mut tb.sim, &dev_a, Addr::new(tb.b, 4000),
//!                                   RubinConfig::paper(), CoreId(0))?;
//! let sel_a = RdmaSelector::new(&dev_a, &[CoreId(0)], RubinConfig::paper().select_ns);
//! sel_a.register_channel(&mut tb.sim, &client, Interest::OP_ACCEPT);
//!
//! tb.sim.run_until_idle();
//! assert!(client.is_established());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod buffer;
mod channel;
mod config;
mod event;
mod selector;
mod server;

pub use buffer::{BufferPool, PoolStats, SlabIndex};
pub use channel::{
    BorrowedMsg, ChannelError, ChannelStats, RdmaChannel, ReadDoneFn, RecvOutcome, WriteDoneFn,
    WriteDoorbellFn,
};
pub use config::RubinConfig;
pub use event::{HybridEventQueue, Interest, RubinEvent, RubinKey};
pub use selector::{RdmaSelector, SelectedKey};
pub use server::RdmaServerChannel;

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::{Access, RdmaDevice, RnicModel};
    use simnet::{Addr, CoreId, Nanos, TestBed};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct World {
        tb: TestBed,
        dev_a: RdmaDevice,
        dev_b: RdmaDevice,
    }

    fn world(seed: u64) -> World {
        let tb = TestBed::paper_testbed(seed);
        let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
        World { tb, dev_a, dev_b }
    }

    /// Connects a client channel to a server, driving CM through selectors
    /// on both sides. Returns (client, server-side channel).
    fn connected_channels(w: &mut World, cfg: RubinConfig) -> (RdmaChannel, RdmaChannel) {
        let server = RdmaServerChannel::bind(&w.dev_b, 4000, cfg.clone(), CoreId(0)).unwrap();
        let sel_b = RdmaSelector::new(&w.dev_b, &[CoreId(0)], cfg.select_ns);
        sel_b.register_server(&mut w.tb.sim, &server);

        let sel_a = RdmaSelector::new(&w.dev_a, &[CoreId(0)], cfg.select_ns);
        let client = RdmaChannel::connect(
            &mut w.tb.sim,
            &w.dev_a,
            Addr::new(w.tb.b, 4000),
            cfg,
            CoreId(0),
        )
        .unwrap();
        sel_a.register_channel(
            &mut w.tb.sim,
            &client,
            Interest::OP_ACCEPT | Interest::OP_RECEIVE | Interest::OP_SEND,
        );

        let accepted: Rc<RefCell<Option<RdmaChannel>>> = Rc::new(RefCell::new(None));
        let acc = accepted.clone();
        let srv = server.clone();
        sel_b.select(&mut w.tb.sim, 0, move |sim, ready| {
            assert!(ready[0].ready.contains(Interest::OP_CONNECT));
            *acc.borrow_mut() = srv.accept(sim).unwrap();
        });
        w.tb.sim.run_until_idle();
        let server_chan = accepted.borrow_mut().take().expect("accepted channel");
        assert!(client.is_established(), "client must be established");
        assert!(client.finish_connect(&mut w.tb.sim));
        // Register the accepted channel so its completion events are
        // processed by the selector's event manager.
        sel_b.register_channel(
            &mut w.tb.sim,
            &server_chan,
            Interest::OP_RECEIVE | Interest::OP_SEND,
        );
        (client, server_chan)
    }

    /// Drains the simulator and reads one message.
    fn read_one(w: &mut World, chan: &RdmaChannel) -> Vec<u8> {
        let mut guard = 0;
        loop {
            w.tb.sim.run_until_idle();
            chan.process_completions(&mut w.tb.sim);
            match chan.read(&mut w.tb.sim).unwrap() {
                RecvOutcome::Msg(m) => return m,
                RecvOutcome::WouldBlock => {
                    guard += 1;
                    assert!(guard < 1000, "message never arrived");
                }
                RecvOutcome::Eof => panic!("unexpected EOF"),
            }
        }
    }

    #[test]
    fn connect_accept_and_roundtrip() {
        let mut w = world(1);
        let (client, server) = connected_channels(&mut w, RubinConfig::paper());
        assert!(client.write(&mut w.tb.sim, b"over-rdma").unwrap());
        let got = read_one(&mut w, &server);
        assert_eq!(got, b"over-rdma");
        // Echo back.
        assert!(server.write(&mut w.tb.sim, &got).unwrap());
        let back = read_one(&mut w, &client);
        assert_eq!(back, b"over-rdma");
        assert_eq!(client.stats().msgs_sent, 1);
        assert_eq!(client.stats().msgs_received, 1);
    }

    #[test]
    fn large_message_integrity() {
        let mut w = world(2);
        let (client, server) = connected_channels(&mut w, RubinConfig::paper());
        let payload: Vec<u8> = (0..100 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();
        assert!(client.write(&mut w.tb.sim, &payload).unwrap());
        let got = read_one(&mut w, &server);
        assert_eq!(got, payload);
    }

    #[test]
    fn oversized_message_rejected() {
        let mut w = world(3);
        let (client, _server) = connected_channels(&mut w, RubinConfig::paper());
        let too_big = vec![0u8; RubinConfig::paper().buffer_size + 1];
        assert!(matches!(
            client.write(&mut w.tb.sim, &too_big).unwrap_err(),
            ChannelError::MessageTooLarge { .. }
        ));
    }

    #[test]
    fn write_before_established_fails() {
        let mut w = world(4);
        let _server =
            RdmaServerChannel::bind(&w.dev_b, 4000, RubinConfig::paper(), CoreId(0)).unwrap();
        let client = RdmaChannel::connect(
            &mut w.tb.sim,
            &w.dev_a,
            Addr::new(w.tb.b, 4000),
            RubinConfig::paper(),
            CoreId(0),
        )
        .unwrap();
        assert!(matches!(
            client.write(&mut w.tb.sim, b"x").unwrap_err(),
            ChannelError::NotConnected
        ));
    }

    #[test]
    fn send_path_selection_matches_config() {
        let mut w = world(5);
        let cfg = RubinConfig::future();
        let (client, server) = connected_channels(&mut w, cfg.clone());
        // Inline path.
        client
            .write(&mut w.tb.sim, &vec![1u8; cfg.inline_threshold])
            .unwrap();
        let _ = read_one(&mut w, &server);
        // Zero-copy path (large).
        client.write(&mut w.tb.sim, &vec![2u8; 64 * 1024]).unwrap();
        let _ = read_one(&mut w, &server);
        let st = client.stats();
        assert_eq!(st.inline_sends, 1);
        assert_eq!(st.zero_copy_sends, 1);
        assert_eq!(st.copied_sends, 0);

        // With zero copy off (the evaluated configuration), the large
        // message uses the pooled copy path.
        let mut w2 = world(6);
        let cfg2 = RubinConfig::paper();
        let (client2, server2) = connected_channels(&mut w2, cfg2);
        client2
            .write(&mut w2.tb.sim, &vec![3u8; 64 * 1024])
            .unwrap();
        let _ = read_one(&mut w2, &server2);
        assert_eq!(client2.stats().copied_sends, 1);
        assert_eq!(client2.stats().zero_copy_sends, 0);
    }

    #[test]
    fn selective_signaling_suppresses_completions() {
        let mut w = world(7);
        let cfg = RubinConfig {
            signal_interval: 4,
            ..RubinConfig::paper()
        };
        let (client, server) = connected_channels(&mut w, cfg);
        for i in 0..8u8 {
            assert!(client.write(&mut w.tb.sim, &[i; 100]).unwrap());
        }
        for _ in 0..8 {
            let _ = read_one(&mut w, &server);
        }
        w.tb.sim.run_until_idle();
        client.process_completions(&mut w.tb.sim);
        let st = client.stats();
        assert_eq!(st.msgs_sent, 8);
        assert_eq!(st.signaled_sends, 2, "every 4th send is signaled");
        // The QP saw 6 suppressed successful completions.
        assert_eq!(qp_counter(&w, &client, "unsignaled_completions"), 6);
    }

    #[test]
    fn send_buffers_recycle_after_signaled_completion() {
        let mut w = world(8);
        let cfg = RubinConfig {
            send_buffers: 4,
            signal_interval: 2,
            recv_batch: 2,
            ..RubinConfig::paper()
        };
        let (client, server) = connected_channels(&mut w, cfg);
        // Saturate, drain, and repeat — buffers must recycle.
        for round in 0..5u8 {
            for i in 0..4u8 {
                let ok = client.write(&mut w.tb.sim, &[round * 10 + i; 300]).unwrap();
                assert!(ok, "round {round} message {i} must be accepted");
            }
            for _ in 0..4 {
                let _ = read_one(&mut w, &server);
            }
            w.tb.sim.run_until_idle();
            client.process_completions(&mut w.tb.sim);
        }
        assert_eq!(client.stats().msgs_sent, 20);
    }

    #[test]
    fn backpressure_returns_would_block() {
        let mut w = world(9);
        let cfg = RubinConfig {
            send_buffers: 2,
            signal_interval: 1,
            recv_batch: 1,
            ..RubinConfig::paper()
        };
        let (client, _server) = connected_channels(&mut w, cfg);
        // Without running the simulator, the third write must stall.
        assert!(client.write(&mut w.tb.sim, &[1; 300]).unwrap());
        assert!(client.write(&mut w.tb.sim, &[2; 300]).unwrap());
        assert!(!client.write(&mut w.tb.sim, &[3; 300]).unwrap());
        assert_eq!(client.stats().send_stalls, 1);
    }

    /// CPU time `f` charges to `host`'s core 0.
    fn charged(w: &mut World, host: simnet::HostId, f: impl FnOnce(&mut World)) -> Nanos {
        let busy = |w: &World| w.tb.net.host(host).borrow().core_busy_time(CoreId(0));
        let before = busy(w);
        f(w);
        busy(w) - before
    }

    /// `host`'s managed-runtime overhead per channel call, and its copy
    /// cost by length.
    fn runtime_and_copy(w: &World, host: simnet::HostId) -> (u64, impl Fn(usize) -> u64) {
        let cpu = w.tb.net.host(host).borrow().cpu().clone();
        (cpu.runtime_io_ns, move |len| cpu.copy_cost(len).as_nanos())
    }

    /// The copy out of each receive slab is charged, but on the host the
    /// slab's bytes are handed over: every consumed slab is left empty.
    #[test]
    fn read_all_charges_one_call_and_each_copy() {
        let mut w = world(41);
        let (client, server) = connected_channels(&mut w, RubinConfig::paper());
        let sizes = [100, 1024, 3000, 64, 2048];
        for (i, &len) in sizes.iter().enumerate() {
            assert!(client
                .write(&mut w.tb.sim, &vec![i as u8 + 1; len])
                .unwrap());
        }
        w.tb.sim.run_until_idle();
        server.process_completions(&mut w.tb.sim);
        let slab_bytes =
            |slab: SlabIndex, len: usize| server.inner.borrow().recv_pool.slab(slab).read(0, len);
        let landed: Vec<(SlabIndex, usize)> =
            server.inner.borrow().rx_ready.iter().copied().collect();
        let mut inbox = std::collections::VecDeque::new();
        let b = w.tb.b;
        let spent = charged(&mut w, b, |w| {
            assert_eq!(server.read_all(&mut w.tb.sim, &mut inbox), Ok(5));
        });
        let (runtime, copy) = runtime_and_copy(&w, b);
        let copies: u64 = sizes.iter().map(|&len| copy(len)).sum();
        assert_eq!(spent.as_nanos(), runtime + copies);
        for (i, (msg, &len)) in inbox.iter().zip(&sizes).enumerate() {
            assert_eq!(msg, &vec![i as u8 + 1; len]);
        }
        assert_eq!(landed.len(), sizes.len());
        for (slab, len) in landed {
            assert_eq!(
                slab_bytes(slab, len),
                Ok(vec![0; len]),
                "slab {slab} emptied"
            );
        }
        // Nothing left: no call, no charge.
        let spent = charged(&mut w, b, |w| {
            assert_eq!(server.read_all(&mut w.tb.sim, &mut inbox), Ok(0));
        });
        assert_eq!(spent, Nanos::ZERO);
    }

    #[test]
    fn a_read_sinks_bytes_reach_done_intact() {
        let mut w = world(44);
        let (client, _server) = connected_channels(&mut w, RubinConfig::paper());
        let pd = w.dev_b.alloc_pd();
        let source = w.dev_b.reg_mr(&pd, 4096, Access::REMOTE_READ);
        let want: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        source.write(500, &want).unwrap();
        let got: Rc<RefCell<Option<Option<Vec<u8>>>>> = Rc::new(RefCell::new(None));
        let sink = got.clone();
        client
            .post_read(
                &mut w.tb.sim,
                source.rkey().0,
                500,
                want.len(),
                Box::new(move |_sim, data| *sink.borrow_mut() = Some(data)),
            )
            .unwrap();
        w.tb.sim.run_until_idle();
        client.process_completions(&mut w.tb.sim);
        assert_eq!(got.borrow_mut().take(), Some(Some(want)));
    }

    #[test]
    fn write_all_rings_one_doorbell_per_device_batch() {
        let mut w = world(42);
        let cfg = RubinConfig::paper();
        let (client, server) = connected_channels(&mut w, cfg.clone());
        // Twenty inline messages and twenty copied ones.
        let msgs: Vec<Vec<u8>> = (0..40u8)
            .map(|i| vec![i; if i % 2 == 0 { 200 } else { 1024 }])
            .collect();
        let a = w.tb.a;
        let spent = charged(&mut w, a, |w| {
            let taken = client.write_all(&mut w.tb.sim, msgs.iter().map(Vec::as_slice));
            assert_eq!(taken, Ok(40));
        });
        let (runtime, copy) = runtime_and_copy(&w, a);
        let copies: u64 = msgs.iter().map(|m| copy(m.len())).sum();
        let model = RnicModel::mt27520();
        let doorbells = model.post_batch_cost(32) + model.post_batch_cost(8);
        assert_eq!(spent.as_nanos(), runtime + copies + doorbells.as_nanos());
        assert_eq!(qp_counter(&w, &client, "sends_posted"), 40);
        let st = client.stats();
        assert_eq!(st.signaled_sends, 40 / cfg.signal_interval as u64);
        assert_eq!((st.inline_sends, st.copied_sends), (20, 20));
        for msg in &msgs {
            assert_eq!(&read_one(&mut w, &server), msg);
        }
    }

    #[test]
    fn a_stalled_write_all_returns_what_it_took() {
        let mut w = world(43);
        let cfg = RubinConfig {
            send_buffers: 4,
            signal_interval: 2,
            recv_batch: 2,
            ..RubinConfig::paper()
        };
        let (client, server) = connected_channels(&mut w, cfg);
        let msgs: Vec<[u8; 300]> = (0..6u8).map(|i| [i; 300]).collect();
        let taken = client.write_all(&mut w.tb.sim, msgs.iter().map(|m| &m[..]));
        assert_eq!(taken, Ok(4));
        assert_eq!(client.stats().send_stalls, 1);
        for msg in &msgs[..4] {
            assert_eq!(read_one(&mut w, &server), msg);
        }
        w.tb.sim.run_until_idle();
        client.process_completions(&mut w.tb.sim);
        let rest = client.write_all(&mut w.tb.sim, msgs[4..].iter().map(|m| &m[..]));
        assert_eq!(rest, Ok(2));
        for msg in &msgs[4..] {
            assert_eq!(read_one(&mut w, &server), msg);
        }
    }

    #[test]
    fn batched_reposting_matches_config() {
        let mut w = world(10);
        let cfg = RubinConfig {
            recv_batch: 4,
            ..RubinConfig::paper()
        };
        let (client, server) = connected_channels(&mut w, cfg);
        for i in 0..8u8 {
            client.write(&mut w.tb.sim, &[i; 64]).unwrap();
            let _ = read_one(&mut w, &server);
        }
        assert_eq!(server.stats().repost_batches, 2);
    }

    #[test]
    fn disconnect_surfaces_eof() {
        let mut w = world(11);
        let (client, server) = connected_channels(&mut w, RubinConfig::paper());
        client.write(&mut w.tb.sim, b"last").unwrap();
        let got = read_one(&mut w, &server);
        assert_eq!(got, b"last");
        client.close(&mut w.tb.sim);
        w.tb.sim.run_until_idle();
        server.process_completions(&mut w.tb.sim);
        assert_eq!(server.read(&mut w.tb.sim).unwrap(), RecvOutcome::Eof);
        assert!(server.is_eof());
    }

    #[test]
    fn selector_receive_readiness_drives_echo_server() {
        let mut w = world(12);
        let cfg = RubinConfig::paper();
        let server = RdmaServerChannel::bind(&w.dev_b, 5000, cfg.clone(), CoreId(0)).unwrap();
        let sel_b = RdmaSelector::new(&w.dev_b, &[CoreId(0)], cfg.select_ns);
        sel_b.register_server(&mut w.tb.sim, &server);

        // Fully event-driven echo server: accept on OP_CONNECT, echo on
        // OP_RECEIVE, re-arming select each time.
        fn serve(sel: RdmaSelector, server: RdmaServerChannel, sim: &mut simnet::Simulator) {
            let sel2 = sel.clone();
            sel.select(sim, 0, move |sim, ready| {
                for r in ready {
                    if r.ready.contains(Interest::OP_CONNECT) {
                        let chan = server.accept(sim).unwrap().unwrap();
                        sel2.register_channel(sim, &chan, Interest::OP_RECEIVE);
                    }
                    if r.ready.contains(Interest::OP_RECEIVE) {
                        if let Some(chan) = sel2.channel_for(r.key) {
                            while let RecvOutcome::Msg(m) = chan.read(sim).unwrap() {
                                chan.write(sim, &m).unwrap();
                            }
                        }
                    }
                }
                serve(sel2, server, sim);
            });
        }
        serve(sel_b.clone(), server.clone(), &mut w.tb.sim);

        let client = RdmaChannel::connect(
            &mut w.tb.sim,
            &w.dev_a,
            Addr::new(w.tb.b, 5000),
            cfg.clone(),
            CoreId(0),
        )
        .unwrap();
        let sel_a = RdmaSelector::new(&w.dev_a, &[CoreId(0)], cfg.select_ns);
        sel_a.register_channel(
            &mut w.tb.sim,
            &client,
            Interest::OP_ACCEPT | Interest::OP_RECEIVE,
        );
        w.tb.sim.run_until_idle();
        assert!(client.is_established());

        client.write(&mut w.tb.sim, b"echo-me").unwrap();
        let back = read_one(&mut w, &client);
        assert_eq!(back, b"echo-me");
        assert!(
            selector_counter(&w, "events_dispatched") > 0,
            "hybrid queue must be used"
        );
    }

    #[test]
    fn borrowed_read_avoids_the_receive_copy() {
        let mut w = world(15);
        let cfg = RubinConfig::future();
        let (client, server) = connected_channels(&mut w, cfg);
        let payload: Vec<u8> = (0..32 * 1024usize).map(|i| (i % 249) as u8).collect();
        client.write(&mut w.tb.sim, &payload).unwrap();
        w.tb.sim.run_until_idle();
        server.process_completions(&mut w.tb.sim);
        let msg = server
            .read_borrowed(&mut w.tb.sim)
            .unwrap()
            .expect("message available");
        assert_eq!(msg.len(), payload.len());
        assert!(!msg.is_empty());
        msg.with_data(|d| assert_eq!(d, &payload[..]));
        msg.release(&mut w.tb.sim).unwrap();
        assert_eq!(server.stats().borrowed_reads, 1);

        // The copying path charges the receive copy; the borrowed path
        // does not — compare CPU busy time for the same payload.
        let busy_borrowed = {
            let mut w = world(16);
            let (client, server) = connected_channels(&mut w, RubinConfig::future());
            client.write(&mut w.tb.sim, &payload).unwrap();
            w.tb.sim.run_until_idle();
            server.process_completions(&mut w.tb.sim);
            let before = w.tb.net.host(w.tb.b).borrow().total_busy_time();
            let m = server.read_borrowed(&mut w.tb.sim).unwrap().unwrap();
            m.release(&mut w.tb.sim).unwrap();
            w.tb.net.host(w.tb.b).borrow().total_busy_time() - before
        };
        let busy_copied = {
            let mut w = world(16);
            let (client, server) = connected_channels(&mut w, RubinConfig::future());
            client.write(&mut w.tb.sim, &payload).unwrap();
            w.tb.sim.run_until_idle();
            server.process_completions(&mut w.tb.sim);
            let before = w.tb.net.host(w.tb.b).borrow().total_busy_time();
            let _ = server.read(&mut w.tb.sim).unwrap();
            w.tb.net.host(w.tb.b).borrow().total_busy_time() - before
        };
        assert!(
            busy_borrowed < busy_copied,
            "borrowed {busy_borrowed} must beat copied {busy_copied}"
        );
    }

    #[test]
    fn dropped_borrow_is_reclaimed() {
        let mut w = world(17);
        let cfg = RubinConfig {
            recv_buffers: 4,
            recv_batch: 1,
            ..RubinConfig::future()
        };
        let (client, server) = connected_channels(&mut w, cfg);
        // Messages whose borrows are dropped without release must still be
        // reclaimed so the receive queue never starves.
        for round in 0..12u8 {
            client.write(&mut w.tb.sim, &[round; 128]).unwrap();
            w.tb.sim.run_until_idle();
            server.process_completions(&mut w.tb.sim);
            let msg = server
                .read_borrowed(&mut w.tb.sim)
                .unwrap()
                .expect("delivered");
            msg.with_data(|d| assert_eq!(d[0], round));
            drop(msg); // parked, not released
        }
        assert_eq!(server.stats().borrowed_reads, 12);
    }

    #[test]
    fn inline_send_is_cheaper_for_small_messages() {
        // Same message, inline on vs off; inline must complete sooner.
        let elapsed = |inline_threshold: usize| -> Nanos {
            let mut w = world(13);
            let cfg = RubinConfig {
                inline_threshold,
                ..RubinConfig::paper()
            };
            let (client, server) = connected_channels(&mut w, cfg);
            let start = w.tb.sim.now();
            client.write(&mut w.tb.sim, &[7u8; 200]).unwrap();
            let _ = read_one(&mut w, &server);
            w.tb.sim.now() - start
        };
        let with_inline = elapsed(256);
        let without_inline = elapsed(0);
        assert!(
            with_inline < without_inline,
            "inline {with_inline} must beat non-inline {without_inline}"
        );
    }

    /// `(delivery instant, message)` in delivery order.
    type Deliveries = Rc<RefCell<Vec<(Nanos, Vec<u8>)>>>;

    /// A reactor on `chan`'s own core: every wake-up reads the channel dry,
    /// records the deliveries and selects again.
    fn reactor(w: &mut World, chan: &RdmaChannel) -> (RdmaSelector, Deliveries) {
        fn arm(
            sim: &mut simnet::Simulator,
            sel: &RdmaSelector,
            chan: &RdmaChannel,
            got: &Deliveries,
        ) {
            let (sel2, chan, got) = (sel.clone(), chan.clone(), got.clone());
            sel.select(sim, 0, move |sim, _ready| {
                while let RecvOutcome::Msg(m) = chan.read(sim).unwrap() {
                    got.borrow_mut().push((sim.now(), m));
                }
                arm(sim, &sel2, &chan, &got);
            });
        }
        let sel = RdmaSelector::new(&w.dev_b, &[CoreId(0)], chan.config().select_ns);
        sel.register_channel(&mut w.tb.sim, chan, Interest::OP_RECEIVE);
        let got = Rc::new(RefCell::new(Vec::new()));
        arm(&mut w.tb.sim, &sel, chan, &got);
        (sel, got)
    }

    /// `rdma.<host>.<qp>.<name>`: the counter of `chan`'s queue pair.
    fn qp_counter(w: &World, chan: &RdmaChannel, name: &str) -> u64 {
        let qp = chan.qp();
        let key = format!("rdma.{}.{}.{name}", qp.local_addr().host, qp.num());
        w.tb.net.metrics().counter(&key)
    }

    /// `rubin.<host b>.selector.<name>`: every selector of the host counts
    /// under the one key, so tests read differences.
    fn selector_counter(w: &World, name: &str) -> u64 {
        let key = format!("rubin.{}.selector.{name}", w.dev_b.host());
        w.tb.net.metrics().counter(&key)
    }

    fn numbered(i: u8) -> Vec<u8> {
        (0..1024).map(|j| i.wrapping_add(j as u8)).collect()
    }

    #[test]
    fn busy_selector_polls_once_for_everything_that_arrived() {
        let mut w = world(31);
        let (client, server) = connected_channels(&mut w, RubinConfig::paper());
        let (_sel, got) = reactor(&mut w, &server);
        let (polls, wakes) = (
            selector_counter(&w, "cq_polls"),
            selector_counter(&w, "polls"),
        );
        // The selector thread's core has 200 us of other work queued.
        let start = w.tb.sim.now();
        let busy = Nanos::from_micros(200);
        w.tb.net
            .host(w.tb.b)
            .borrow_mut()
            .exec(start, CoreId(0), busy);
        for i in 0..10 {
            assert!(client.write(&mut w.tb.sim, &numbered(i)).unwrap());
        }
        w.tb.sim.run_until_idle();

        assert_eq!(selector_counter(&w, "polls") - wakes, 1, "one wake-up");
        // The arrival that schedules the wake-up polls where it arrives;
        // the nine behind it wait for the wake-up's own drain.
        assert_eq!(selector_counter(&w, "cq_polls") - polls, 2);
        let got = got.borrow();
        assert_eq!(got.len(), 10);
        for (i, (at, msg)) in got.iter().enumerate() {
            assert_eq!(msg, &numbered(i as u8), "message {i} in order, intact");
            assert_eq!(*at, got[0].0, "one wake-up delivers all ten");
        }
        assert!(got[0].0 >= start + busy);
    }

    #[test]
    fn idle_selector_polls_at_arrival_and_delivery_instants_do_not_move() {
        let mut w = world(32);
        let (client, server) = connected_channels(&mut w, RubinConfig::paper());
        let (_sel, got) = reactor(&mut w, &server);
        let polls = selector_counter(&w, "cq_polls");
        let start = w.tb.sim.now();
        for i in 0..10u8 {
            w.tb.sim
                .run_until(start + Nanos::from_micros(100 * u64::from(i)));
            assert!(client.write(&mut w.tb.sim, &numbered(i)).unwrap());
        }
        w.tb.sim.run_until_idle();

        assert_eq!(selector_counter(&w, "cq_polls") - polls, 10);
        let got = got.borrow();
        let offsets: Vec<u64> = got.iter().map(|(at, _)| (*at - start).as_nanos()).collect();
        // Nanoseconds measured at the parent of the deferred-poll change
        // (one poll per completion event): an idle selector is untouched.
        let at_parent: Vec<u64> = (0..10).map(|i| 18_302 + 100_000 * i).collect();
        assert_eq!(offsets, at_parent);
        for (i, (_, msg)) in got.iter().enumerate() {
            assert_eq!(msg, &numbered(i as u8));
        }
    }

    #[test]
    fn select_now_sees_an_arrival_nobody_polled_for() {
        let mut w = world(33);
        let (client, server) = connected_channels(&mut w, RubinConfig::paper());
        let sel = RdmaSelector::new(&w.dev_b, &[CoreId(0)], server.config().select_ns);
        let key = sel.register_channel(&mut w.tb.sim, &server, Interest::OP_RECEIVE);
        // A wake-up is pending behind 200 us of other work when the
        // message arrives, so its completion event waits in the hybrid
        // queue.
        let now = w.tb.sim.now();
        w.tb.net
            .host(w.tb.b)
            .borrow_mut()
            .exec(now, CoreId(0), Nanos::from_micros(200));
        client.write(&mut w.tb.sim, b"first").unwrap();
        w.tb.sim.run_until(now + Nanos::from_micros(20));
        sel.select(&mut w.tb.sim, 0, |_, _| {});
        client.write(&mut w.tb.sim, b"second").unwrap();
        w.tb.sim.run_until(now + Nanos::from_micros(40));
        assert_eq!(
            server.read(&mut w.tb.sim).unwrap(),
            RecvOutcome::Msg(b"first".to_vec())
        );
        assert_eq!(server.read(&mut w.tb.sim).unwrap(), RecvOutcome::WouldBlock);
        // A non-blocking caller on the same thread must see "second".
        let ready = sel.select_now(&mut w.tb.sim, 0);
        assert_eq!(
            ready,
            [SelectedKey {
                key,
                ready: Interest::OP_RECEIVE
            }]
        );
        assert_eq!(
            server.read(&mut w.tb.sim).unwrap(),
            RecvOutcome::Msg(b"second".to_vec())
        );
    }

    #[test]
    fn cancelled_key_stops_firing() {
        let mut w = world(18);
        let cfg = RubinConfig::paper();
        let (client, server) = connected_channels(&mut w, cfg.clone());
        // A dedicated selector watching the server channel.
        let sel = RdmaSelector::new(&w.dev_b, &[CoreId(1)], cfg.select_ns);
        let key = sel.register_channel(&mut w.tb.sim, &server, Interest::OP_RECEIVE);
        assert!(sel.channel_for(key).is_some());
        sel.cancel(key);
        assert!(
            sel.channel_for(key).is_none(),
            "cancelled keys resolve to None"
        );
        client.write(&mut w.tb.sim, b"after-cancel").unwrap();
        w.tb.sim.run_until_idle();
        assert!(
            sel.select_now(&mut w.tb.sim, 0).is_empty(),
            "cancelled key must not appear ready"
        );
    }

    #[test]
    fn interest_set_filters_ready_ops() {
        let mut w = world(19);
        let cfg = RubinConfig::paper();
        let (client, server) = connected_channels(&mut w, cfg.clone());
        let sel = RdmaSelector::new(&w.dev_b, &[CoreId(1)], cfg.select_ns);
        // Interested only in OP_SEND: an inbound message must not surface.
        let key = sel.register_channel(&mut w.tb.sim, &server, Interest::OP_SEND);
        client.write(&mut w.tb.sim, b"hidden").unwrap();
        w.tb.sim.run_until_idle();
        let ready = sel.select_now(&mut w.tb.sim, 0);
        assert!(ready
            .iter()
            .all(|r| !r.ready.contains(Interest::OP_RECEIVE)));
        // Widen the interest: the queued message becomes visible.
        sel.set_interest(&mut w.tb.sim, key, Interest::OP_RECEIVE | Interest::OP_SEND);
        let ready = sel.select_now(&mut w.tb.sim, 0);
        assert!(ready
            .iter()
            .any(|r| r.key == key && r.ready.contains(Interest::OP_RECEIVE)));
    }

    #[test]
    fn two_servers_dispatch_by_port() {
        let mut w = world(20);
        let cfg = RubinConfig::paper();
        let s1 = RdmaServerChannel::bind(&w.dev_b, 6001, cfg.clone(), CoreId(0)).unwrap();
        let s2 = RdmaServerChannel::bind(&w.dev_b, 6002, cfg.clone(), CoreId(0)).unwrap();
        let sel = RdmaSelector::new(&w.dev_b, &[CoreId(0)], cfg.select_ns);
        let k1 = sel.register_server(&mut w.tb.sim, &s1);
        let k2 = sel.register_server(&mut w.tb.sim, &s2);
        assert_eq!(sel.server_for(k1).map(|s| s.port()), Some(6001));
        assert_eq!(sel.server_for(k2).map(|s| s.port()), Some(6002));
        // Two clients, one per port.
        let _c1 = RdmaChannel::connect(
            &mut w.tb.sim,
            &w.dev_a,
            Addr::new(w.tb.b, 6001),
            cfg.clone(),
            CoreId(0),
        )
        .unwrap();
        let _c2 = RdmaChannel::connect(
            &mut w.tb.sim,
            &w.dev_a,
            Addr::new(w.tb.b, 6002),
            cfg.clone(),
            CoreId(0),
        )
        .unwrap();
        w.tb.sim.run_until_idle();
        assert_eq!(s1.pending_count(), 1, "request routed to port 6001");
        assert_eq!(s2.pending_count(), 1, "request routed to port 6002");
        let ready = sel.select_now(&mut w.tb.sim, 0);
        assert_eq!(ready.len(), 2, "both server keys ready");
        assert!(ready.iter().all(|r| r.ready.contains(Interest::OP_CONNECT)));
    }

    #[test]
    fn connect_to_unserved_port_fails_cleanly() {
        let mut w = world(21);
        let cfg = RubinConfig::paper();
        // A selector with no registered server: its CM dispatcher rejects
        // inbound requests politely.
        let server_sel = RdmaSelector::new(&w.dev_b, &[CoreId(0)], cfg.select_ns);
        let lonely = RdmaServerChannel::bind(&w.dev_b, 6100, cfg.clone(), CoreId(0)).unwrap();
        server_sel.register_server(&mut w.tb.sim, &lonely);
        // Client dials a *different*, unbound port: nothing listens there,
        // so the connection never establishes.
        let client = RdmaChannel::connect(
            &mut w.tb.sim,
            &w.dev_a,
            Addr::new(w.tb.b, 6999),
            cfg.clone(),
            CoreId(0),
        )
        .unwrap();
        let sel = RdmaSelector::new(&w.dev_a, &[CoreId(0)], cfg.select_ns);
        sel.register_channel(&mut w.tb.sim, &client, Interest::OP_ACCEPT);
        w.tb.sim.run_until_idle();
        assert!(!client.is_established());
        assert!(matches!(
            client.write(&mut w.tb.sim, b"x").unwrap_err(),
            ChannelError::NotConnected
        ));
    }

    #[test]
    fn optimized_config_beats_unoptimized_for_small_messages() {
        // The aggregate effect of §IV optimizations (paper: up to 30%
        // latency reduction below 16 KB).
        let echo = |cfg: RubinConfig| -> Nanos {
            let mut w = world(14);
            let (client, server) = connected_channels(&mut w, cfg);
            let start = w.tb.sim.now();
            for _ in 0..16 {
                client.write(&mut w.tb.sim, &[1u8; 1024]).unwrap();
                let m = read_one(&mut w, &server);
                server.write(&mut w.tb.sim, &m).unwrap();
                let _ = read_one(&mut w, &client);
            }
            w.tb.sim.now() - start
        };
        let fast = echo(RubinConfig::paper());
        let slow = echo(RubinConfig::unoptimized());
        assert!(
            fast < slow,
            "optimized ({fast}) must beat unoptimized ({slow})"
        );
    }
}
