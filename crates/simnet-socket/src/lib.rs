//! # simnet-socket — simulated kernel TCP + Java-NIO-style selector
//!
//! The TCP baseline of the paper's evaluation: non-blocking stream sockets
//! over the [`simnet`] fabric, with the kernel cost structure RDMA is
//! designed to avoid — two intermediate copies per message, kernel
//! crossings, per-segment protocol processing and receive interrupts
//! (paper §I, §II-A) — plus the epoll-backed [`Selector`] that Java NIO
//! builds on and that RUBIN re-creates for RDMA (paper §III): the selector
//! core both stacks share, [`simnet::Selector`], over Java's [`Ops`].
//!
//! # Example: echo a message over simulated TCP
//!
//! ```
//! use simnet::{CoreId, TestBed};
//! use simnet_socket::{ReadOutcome, TcpListener, TcpModel, TcpStream};
//!
//! let mut tb = TestBed::paper_testbed(7);
//! let listener = TcpListener::bind(&tb.net, tb.b, 80, CoreId(0), TcpModel::linux_xeon())?;
//! let client = TcpStream::connect(
//!     &mut tb.sim, &tb.net, tb.a, CoreId(0), TcpModel::linux_xeon(),
//!     listener.local_addr(),
//! );
//! tb.sim.run_until_idle();
//! let server = listener.accept(&mut tb.sim).expect("connection pending");
//!
//! client.write(&mut tb.sim, b"hello")?;
//! tb.sim.run_until_idle();
//! match server.read(&mut tb.sim, 64)? {
//!     ReadOutcome::Data(d) => assert_eq!(d, b"hello"),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod model;
mod stream;

pub use model::TcpModel;
pub use simnet::KeyId;
pub use stream::{ReadOutcome, SockError, TcpListener, TcpStats, TcpStream};

simnet::select_ops! {
    /// Interest/readiness operation flags (Java `SelectionKey` ops).
    pub struct Ops {
        /// Channel has bytes to read (or EOF).
        READ = 1,
        /// Channel can accept more outbound bytes.
        WRITE = 2,
        /// Listener has pending inbound connections.
        ACCEPT = 4,
        /// Outbound connection completed.
        CONNECT = 8,
    }
}

/// The NIO selector: [`simnet::Selector`] over Java's flags. A stream or
/// listener registers with the select thread on its core.
pub type Selector = simnet::Selector<Ops>;

/// One ready key returned by a NIO select call.
pub type Selected = simnet::Selected<Ops>;

/// Default cost of one Java NIO `select()` call in nanoseconds (epoll-backed
/// and highly optimized; compare with the RUBIN selector's higher cost,
/// paper §IV).
pub const NIO_SELECT_NS: u64 = 1_100;

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{CoreId, Nanos, TestBed};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct World {
        tb: TestBed,
        client: TcpStream,
        server: TcpStream,
    }

    fn connected() -> World {
        let mut tb = TestBed::paper_testbed(11);
        let listener =
            TcpListener::bind(&tb.net, tb.b, 80, CoreId(0), TcpModel::linux_xeon()).unwrap();
        let client = TcpStream::connect(
            &mut tb.sim,
            &tb.net,
            tb.a,
            CoreId(0),
            TcpModel::linux_xeon(),
            listener.local_addr(),
        );
        tb.sim.run_until_idle();
        let server = listener.accept(&mut tb.sim).expect("pending connection");
        assert!(client.is_established());
        assert!(server.is_established());
        World { tb, client, server }
    }

    fn read_all(w: &mut World, stream: &TcpStream, want: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut guard = 0;
        while out.len() < want {
            w.tb.sim.run_until_idle();
            match stream.read(&mut w.tb.sim, want - out.len()).unwrap() {
                ReadOutcome::Data(d) => out.extend(d),
                ReadOutcome::WouldBlock => {
                    w.tb.sim.run_until_idle();
                    guard += 1;
                    assert!(guard < 10_000, "no progress reading");
                }
                ReadOutcome::Eof => break,
            }
        }
        out
    }

    fn write_all(w: &mut World, stream: &TcpStream, data: &[u8]) {
        let mut off = 0;
        let mut guard = 0;
        while off < data.len() {
            let n = stream.write(&mut w.tb.sim, &data[off..]).unwrap();
            off += n;
            if n == 0 {
                w.tb.sim.run_until_idle();
                guard += 1;
                assert!(guard < 10_000, "no progress writing");
            }
        }
    }

    #[test]
    fn small_message_roundtrip() {
        let mut w = connected();
        w.client.write(&mut w.tb.sim, b"ping").unwrap();
        w.tb.sim.run_until_idle();
        let srv = w.server.clone();
        let got = read_all(&mut w, &srv, 4);
        assert_eq!(got, b"ping");
        // Echo back.
        w.server.write(&mut w.tb.sim, b"pong").unwrap();
        w.tb.sim.run_until_idle();
        let cli = w.client.clone();
        let got = read_all(&mut w, &cli, 4);
        assert_eq!(got, b"pong");
    }

    #[test]
    fn message_larger_than_socket_buffers_flows_with_backpressure() {
        let mut w = connected();
        let model = TcpModel::linux_xeon();
        let payload: Vec<u8> = (0..200 * 1024u32).map(|i| (i % 241) as u8).collect();
        assert!(payload.len() > model.send_buf + model.recv_buf);

        // Writer cannot push everything at once: the first write fills the
        // send buffer and an immediate second write is refused.
        let first = w.client.write(&mut w.tb.sim, &payload).unwrap();
        assert!(first <= model.send_buf);
        assert_eq!(w.client.write(&mut w.tb.sim, &payload[first..]).unwrap(), 0);

        // Interleave writes and reads until the whole payload arrives.
        let client = w.client.clone();
        let server = w.server.clone();
        let mut sent = first;
        let mut received = Vec::new();
        let mut guard = 0;
        while received.len() < payload.len() {
            w.tb.sim.run_until_idle();
            if sent < payload.len() {
                sent += client.write(&mut w.tb.sim, &payload[sent..]).unwrap();
            }
            if let ReadOutcome::Data(d) = server.read(&mut w.tb.sim, 1 << 20).unwrap() {
                received.extend(d);
            }
            guard += 1;
            assert!(guard < 100_000, "transfer stalled");
        }
        assert_eq!(received, payload);
        assert!(client.stats().write_stalls > 0, "backpressure must occur");
    }

    #[test]
    fn write_before_connect_fails() {
        let mut tb = TestBed::paper_testbed(0);
        let listener =
            TcpListener::bind(&tb.net, tb.b, 81, CoreId(0), TcpModel::linux_xeon()).unwrap();
        let client = TcpStream::connect(
            &mut tb.sim,
            &tb.net,
            tb.a,
            CoreId(0),
            TcpModel::linux_xeon(),
            listener.local_addr(),
        );
        assert_eq!(
            client.write(&mut tb.sim, b"x").unwrap_err(),
            SockError::NotConnected
        );
    }

    #[test]
    fn double_bind_rejected() {
        let tb = TestBed::paper_testbed(0);
        let _l1 = TcpListener::bind(&tb.net, tb.b, 82, CoreId(0), TcpModel::linux_xeon()).unwrap();
        assert_eq!(
            TcpListener::bind(&tb.net, tb.b, 82, CoreId(0), TcpModel::linux_xeon()).unwrap_err(),
            SockError::AddrInUse
        );
    }

    #[test]
    fn close_delivers_eof() {
        let mut w = connected();
        w.client.write(&mut w.tb.sim, b"bye").unwrap();
        w.tb.sim.run_until_idle();
        w.client.close(&mut w.tb.sim);
        w.tb.sim.run_until_idle();
        // Buffered data still readable, then EOF.
        let got = w.server.read(&mut w.tb.sim, 16).unwrap();
        assert_eq!(got, ReadOutcome::Data(b"bye".to_vec()));
        w.tb.sim.run_until_idle();
        assert_eq!(w.server.read(&mut w.tb.sim, 16).unwrap(), ReadOutcome::Eof);
        // Writing to a closed stream errors.
        assert_eq!(
            w.client.write(&mut w.tb.sim, b"x").unwrap_err(),
            SockError::Closed
        );
    }

    #[test]
    fn selector_drives_accept_and_read() {
        let mut tb = TestBed::paper_testbed(3);
        let model = TcpModel::linux_xeon();
        let listener = TcpListener::bind(&tb.net, tb.b, 90, CoreId(0), model.clone()).unwrap();
        let selector = Selector::new(&tb.net, tb.b, &[CoreId(0)], NIO_SELECT_NS);
        let lkey = listener.register(&mut tb.sim, &selector);

        let client = TcpStream::connect(
            &mut tb.sim,
            &tb.net,
            tb.a,
            CoreId(0),
            model.clone(),
            listener.local_addr(),
        );
        // Selector wakes for the inbound connection.
        let accepted: Rc<RefCell<Option<TcpStream>>> = Rc::new(RefCell::new(None));
        let acc = accepted.clone();
        let l2 = listener.clone();
        selector.select(&mut tb.sim, 0, move |sim, ready| {
            assert_eq!(ready[0].key, lkey);
            assert!(ready[0].ready.contains(Ops::ACCEPT));
            *acc.borrow_mut() = l2.accept(sim);
        });
        tb.sim.run_until_idle();
        let server = accepted.borrow_mut().take().expect("accepted");

        // Register server for READ; selector wakes when data arrives.
        let skey = server.register(&mut tb.sim, &selector, Ops::READ);
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(vec![]));
        let g = got.clone();
        let srv = server.clone();
        selector.select(&mut tb.sim, 0, move |sim, ready| {
            assert_eq!(ready[0].key, skey);
            if let ReadOutcome::Data(d) = srv.read(sim, 64).unwrap() {
                *g.borrow_mut() = d;
            }
        });
        client.write(&mut tb.sim, b"selected!").unwrap();
        tb.sim.run_until_idle();
        assert_eq!(&*got.borrow(), b"selected!");
    }

    #[test]
    fn connect_readiness_fires_once() {
        let mut tb = TestBed::paper_testbed(3);
        let model = TcpModel::linux_xeon();
        let listener = TcpListener::bind(&tb.net, tb.b, 91, CoreId(0), model.clone()).unwrap();
        let selector = Selector::new(&tb.net, tb.a, &[CoreId(0)], NIO_SELECT_NS);
        let client = TcpStream::connect(
            &mut tb.sim,
            &tb.net,
            tb.a,
            CoreId(0),
            model,
            listener.local_addr(),
        );
        let key = client.register(&mut tb.sim, &selector, Ops::CONNECT);
        tb.sim.run_until_idle();
        let ready = selector.select_now(&mut tb.sim, 0);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].key, key);
        assert!(client.finish_connect(&mut tb.sim));
        // After finish_connect the CONNECT readiness is consumed.
        let ready = selector.select_now(&mut tb.sim, 0);
        assert!(ready.is_empty() || !ready[0].ready.contains(Ops::CONNECT));
    }

    #[test]
    fn closed_listener_refuses_new_connections() {
        let mut tb = TestBed::paper_testbed(4);
        let model = TcpModel::linux_xeon();
        let listener = TcpListener::bind(&tb.net, tb.b, 95, CoreId(0), model.clone()).unwrap();
        let addr = listener.local_addr();
        listener.close();
        // A connection attempt after close never establishes.
        let client = TcpStream::connect(&mut tb.sim, &tb.net, tb.a, CoreId(0), model.clone(), addr);
        tb.sim.run_until_idle();
        assert!(!client.is_established());
        // The port can be re-bound afterwards.
        let again = TcpListener::bind(&tb.net, tb.b, 95, CoreId(0), model);
        assert!(again.is_ok());
    }

    #[test]
    fn selector_write_interest_fires_when_buffer_frees() {
        let mut tb = TestBed::paper_testbed(6);
        let model = TcpModel::linux_xeon();
        let listener = TcpListener::bind(&tb.net, tb.b, 96, CoreId(0), model.clone()).unwrap();
        let client = TcpStream::connect(
            &mut tb.sim,
            &tb.net,
            tb.a,
            CoreId(0),
            model.clone(),
            listener.local_addr(),
        );
        tb.sim.run_until_idle();
        let server = listener.accept(&mut tb.sim).unwrap();
        // Fill the client's send buffer completely.
        let payload = vec![0u8; model.send_buf];
        assert_eq!(client.write(&mut tb.sim, &payload).unwrap(), model.send_buf);
        assert_eq!(client.write(&mut tb.sim, &payload).unwrap(), 0, "full");
        // Register WRITE interest; it must fire once the server drains.
        let selector = Selector::new(&tb.net, tb.a, &[CoreId(0)], NIO_SELECT_NS);
        let key = client.register(&mut tb.sim, &selector, Ops::WRITE);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        selector.select(&mut tb.sim, 0, move |_s, ready| {
            assert!(ready
                .iter()
                .any(|r| r.key == key && r.ready.contains(Ops::WRITE)));
            *f.borrow_mut() = true;
        });
        // Drain on the server side to open the window.
        let mut drained = 0;
        let mut guard = 0;
        while drained < model.send_buf {
            tb.sim.run_until_idle();
            if let ReadOutcome::Data(d) = server.read(&mut tb.sim, 1 << 20).unwrap() {
                drained += d.len();
            }
            guard += 1;
            assert!(guard < 10_000);
        }
        tb.sim.run_until_idle();
        assert!(*fired.borrow(), "WRITE readiness must fire after drain");
    }

    #[test]
    fn latency_grows_with_payload() {
        let echo_latency = |size: usize| -> Nanos {
            let mut w = connected();
            let payload = vec![0xA5u8; size];
            let start = w.tb.sim.now();
            let (cli, srv) = (w.client.clone(), w.server.clone());
            write_all(&mut w, &cli, &payload);
            let got = read_all(&mut w, &srv, size);
            assert_eq!(got.len(), size);
            w.tb.sim.now() - start
        };
        let small = echo_latency(1024);
        let large = echo_latency(100 * 1024);
        assert!(
            large > small * 5,
            "100KB ({large}) must cost far more than 1KB ({small})"
        );
    }

    #[test]
    fn stats_track_segments_and_bytes() {
        let mut w = connected();
        let payload = vec![1u8; 4000];
        let (cli, srv) = (w.client.clone(), w.server.clone());
        write_all(&mut w, &cli, &payload);
        w.tb.sim.run_until_idle();
        let got = read_all(&mut w, &srv, 4000);
        assert_eq!(got.len(), 4000);
        let cs = w.client.stats();
        let ss = w.server.stats();
        assert_eq!(cs.bytes_written, 4000);
        assert_eq!(ss.bytes_read, 4000);
        let model = TcpModel::linux_xeon();
        assert_eq!(cs.segments_tx as usize, model.segments(4000));
        assert_eq!(ss.segments_rx, cs.segments_tx);
    }

    #[test]
    fn lossy_link_stream_still_delivers_in_order() {
        let mut w = connected();
        // 20% loss in both directions: data, acks and credit updates all
        // take hits; retransmission must still get every byte across.
        let (a, b) = (w.tb.a, w.tb.b);
        w.tb.net.with_faults(|f| {
            f.set_loss(a, b, 0.2);
            f.set_loss(b, a, 0.2);
        });
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let (cli, srv) = (w.client.clone(), w.server.clone());
        write_all(&mut w, &cli, &payload);
        let got = read_all(&mut w, &srv, payload.len());
        assert_eq!(got, payload, "bytes survive loss, in order");
        assert!(
            w.client.stats().retransmits > 0,
            "loss must have forced retransmissions"
        );
    }

    #[test]
    fn blackholed_stream_breaks_with_eof_after_retry_budget() {
        let mut w = connected();
        let (a, b) = (w.tb.a, w.tb.b);
        // Total blackhole of the data direction: no ack ever returns.
        w.tb.net.with_faults(|f| f.set_loss(a, b, 1.0));
        let cli = w.client.clone();
        cli.write(&mut w.tb.sim, &[7u8; 100]).unwrap();
        w.tb.sim.run_until_idle();
        let model = TcpModel::linux_xeon();
        assert_eq!(w.client.stats().retransmits as u32, model.max_retransmits);
        match cli.read(&mut w.tb.sim, 10).unwrap() {
            ReadOutcome::Eof => {}
            other => panic!("broken stream must read EOF, got {other:?}"),
        }
    }

    #[test]
    fn lost_syn_is_retransmitted_until_connected() {
        let mut tb = TestBed::paper_testbed(7);
        let listener =
            TcpListener::bind(&tb.net, tb.b, 80, CoreId(0), TcpModel::linux_xeon()).unwrap();
        // Lose the first two handshake frames (SYN, then its retry).
        let (a, b) = (tb.a, tb.b);
        tb.net.with_faults(|f| f.set_loss(a, b, 1.0));
        let net = tb.net.clone();
        tb.sim.schedule_at(Nanos::from_micros(1_200), move |_| {
            net.with_faults(|f| f.set_loss(a, b, 0.0))
        });
        let client = TcpStream::connect(
            &mut tb.sim,
            &tb.net,
            tb.a,
            CoreId(0),
            TcpModel::linux_xeon(),
            listener.local_addr(),
        );
        tb.sim.run_until_idle();
        assert!(client.is_established());
        assert!(client.stats().retransmits >= 1);
        // SYN retries live in the stats alone; the registry counts data.
        let count = |name| {
            let key = format!("tcp.{}.{name}", client.local_addr());
            tb.net.metrics().counter(&key)
        };
        assert_eq!(count("retransmits"), 0);
        let server = listener.accept(&mut tb.sim).expect("pending connection");
        assert!(
            listener.accept(&mut tb.sim).is_none(),
            "SYN dedup: one accept"
        );
        assert!(server.is_established());
        // The repaired connection still moves data.
        client.write(&mut tb.sim, b"hello").unwrap();
        tb.sim.run_until_idle();
        match server.read(&mut tb.sim, 16).unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, b"hello"),
            other => panic!("expected data, got {other:?}"),
        }
        assert_eq!(count("syscalls"), 1, "the key above names this socket");
    }
}
