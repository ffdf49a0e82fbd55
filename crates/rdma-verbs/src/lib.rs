//! # rdma-verbs — a simulated RDMA Verbs stack
//!
//! A faithful, simulation-backed reproduction of the OFED Verbs programming
//! model the paper builds RUBIN on (§II-A): protection domains, registered
//! memory regions with local/remote keys, reliable-connection queue pairs,
//! work requests, completion queues with completion channels, and an
//! `rdma_cm`-style connection manager.
//!
//! Both RDMA modes the paper compares are implemented:
//!
//! * **Two-sided SEND/RECV** — each send consumes a receive work request on
//!   the remote QP; data lands in the receiver-chosen buffer (the mode RUBIN
//!   adopts for its security properties, §III-A/C).
//! * **One-sided READ/WRITE** — direct remote-memory access validated by
//!   rkey (Steering Tag), access flags and bounds, with **no remote CPU
//!   involvement**, which is why it shows the lowest latency in Figure 3.
//!
//! The §IV optimizations are first-class: inline sends (no DMA fetch below
//! the inline limit), selective signaling (unsignaled WRs produce no
//! completion), and batched posting (one doorbell for many WRs).
//!
//! Timing comes from the [`RnicModel`]; data movement is real (bytes travel
//! end-to-end through the simulated fabric), so integrity and protection
//! checks are genuine.
//!
//! # Example: connected echo over SEND/RECV
//!
//! ```
//! use rdma_verbs::{Access, QpConfig, RdmaDevice, RecvWr, RnicModel, SendWr, Sge, WrId};
//! use simnet::{CoreId, TestBed};
//!
//! let mut tb = TestBed::paper_testbed(1);
//! let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
//! let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
//!
//! let (pd_a, pd_b) = (dev_a.alloc_pd(), dev_b.alloc_pd());
//! let cq_a = dev_a.create_cq(64, None);
//! let cq_b = dev_b.create_cq(64, None);
//! let qp_a = dev_a.create_qp(&QpConfig { pd: pd_a, send_cq: cq_a.clone(), recv_cq: cq_a.clone(), core: CoreId(0) });
//! let qp_b = dev_b.create_qp(&QpConfig { pd: pd_b, send_cq: cq_b.clone(), recv_cq: cq_b.clone(), core: CoreId(0) });
//! rdma_verbs::connect_pair(&qp_a, &qp_b)?;
//!
//! // B posts a receive buffer; A sends 1 KiB.
//! let rbuf = dev_b.reg_mr(&pd_b, 4096, Access::LOCAL_WRITE);
//! qp_b.post_recv(&mut tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf.clone())))?;
//! let sbuf = dev_a.reg_mr(&pd_a, 1024, Access::NONE);
//! sbuf.write(0, &[7u8; 1024])?;
//! qp_a.post_send(&mut tb.sim, SendWr::send(WrId(2), Sge::whole(sbuf)).signaled())?;
//!
//! tb.sim.run_until_idle();
//! let rx = cq_b.poll(16);
//! assert_eq!(rx.len(), 1);
//! assert_eq!(rx[0].byte_len, 1024);
//! assert_eq!(rbuf.read(0, 1024)?, vec![7u8; 1024]);
//! assert_eq!(cq_a.poll(16).len(), 1); // signaled send completed
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cm;
mod config;
mod cq;
mod device;
mod error;
mod mr;
mod packet;
mod qp;
mod types;
mod wr;

pub use cm::{CmEvent, CmListener, ConnRequest};
pub use config::RnicModel;
pub use cq::{CompChannel, CompletionQueue};
pub use device::{EventHook, QpConfig, RdmaDevice};
pub use error::{VerbsError, VerbsResult};
pub use mr::{MemoryRegion, ProtectionDomain};
pub use qp::{connect_pair, QueuePair};
pub use types::{Access, CqId, LKey, PdId, QpNum, QpState, RKey, Wc, WcOpcode, WcStatus, WrId};
pub use wr::{RecvWr, SendOp, SendWr, Sge};

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{CoreId, Nanos, TestBed};

    #[allow(dead_code)]
    struct Pair {
        tb: TestBed,
        dev_a: RdmaDevice,
        dev_b: RdmaDevice,
        pd_a: ProtectionDomain,
        pd_b: ProtectionDomain,
        scq_a: CompletionQueue,
        rcq_a: CompletionQueue,
        scq_b: CompletionQueue,
        rcq_b: CompletionQueue,
        qp_a: QueuePair,
        qp_b: QueuePair,
    }

    fn connected_pair() -> Pair {
        connected_pair_with(RnicModel::mt27520())
    }

    fn connected_pair_with(model: RnicModel) -> Pair {
        let tb = TestBed::paper_testbed(3);
        let dev_a = RdmaDevice::open(&tb.net, tb.a, model.clone());
        let dev_b = RdmaDevice::open(&tb.net, tb.b, model);
        let pd_a = dev_a.alloc_pd();
        let pd_b = dev_b.alloc_pd();
        let scq_a = dev_a.create_cq(256, None);
        let rcq_a = dev_a.create_cq(256, None);
        let scq_b = dev_b.create_cq(256, None);
        let rcq_b = dev_b.create_cq(256, None);
        let qp_a = dev_a.create_qp(&QpConfig {
            pd: pd_a,
            send_cq: scq_a.clone(),
            recv_cq: rcq_a.clone(),
            core: CoreId(0),
        });
        let qp_b = dev_b.create_qp(&QpConfig {
            pd: pd_b,
            send_cq: scq_b.clone(),
            recv_cq: rcq_b.clone(),
            core: CoreId(0),
        });
        connect_pair(&qp_a, &qp_b).unwrap();
        Pair {
            tb,
            dev_a,
            dev_b,
            pd_a,
            pd_b,
            scq_a,
            rcq_a,
            scq_b,
            rcq_b,
            qp_a,
            qp_b,
        }
    }

    /// `rdma.<host>.<qp>.<name>`: one queue pair's counter in the registry.
    fn qp_counter(p: &Pair, qp: &QueuePair, name: &str) -> u64 {
        let key = format!("rdma.{}.{}.{name}", qp.local_addr().host, qp.num());
        p.tb.net.metrics().counter(&key)
    }

    fn send_bytes(p: &mut Pair, data: &[u8], signaled: bool) {
        let sbuf = p.dev_a.reg_mr(&p.pd_a, data.len(), Access::NONE);
        sbuf.write(0, data).unwrap();
        let mut wr = SendWr::send(WrId(42), Sge::whole(sbuf));
        if signaled {
            wr = wr.signaled();
        }
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
    }

    #[test]
    fn send_recv_transfers_data() {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 8192, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(
                &mut p.tb.sim,
                RecvWr::new(WrId(1), Sge::whole(rbuf.clone())),
            )
            .unwrap();
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        send_bytes(&mut p, &payload, true);
        p.tb.sim.run_until_idle();
        let rx = p.rcq_b.poll(8);
        assert_eq!(rx.len(), 1);
        assert!(rx[0].is_ok());
        assert_eq!(rx[0].opcode, WcOpcode::Recv);
        assert_eq!(rx[0].byte_len, 2048);
        assert_eq!(rbuf.read(0, 2048).unwrap(), payload);
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1);
        assert!(tx[0].is_ok());
        assert_eq!(tx[0].opcode, WcOpcode::Send);
    }

    #[test]
    fn unsignaled_send_suppresses_completion() {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
            .unwrap();
        send_bytes(&mut p, &[1u8; 100], false);
        p.tb.sim.run_until_idle();
        assert_eq!(p.scq_a.poll(8).len(), 0);
        assert_eq!(qp_counter(&p, &p.qp_a, "unsignaled_completions"), 1);
        // Data still arrived.
        assert_eq!(p.rcq_b.poll(8).len(), 1);
    }

    #[test]
    fn send_without_recv_is_held_then_delivered() {
        let mut p = connected_pair();
        send_bytes(&mut p, &[9u8; 64], true);
        // Let the message arrive and stall.
        p.tb.sim.run_for(Nanos::from_micros(50));
        assert_eq!(qp_counter(&p, &p.qp_b, "rnr_retries"), 1);
        // Now post the receive; message must be delivered.
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(
                &mut p.tb.sim,
                RecvWr::new(WrId(1), Sge::whole(rbuf.clone())),
            )
            .unwrap();
        p.tb.sim.run_until_idle();
        assert_eq!(p.rcq_b.poll(8).len(), 1);
        assert_eq!(rbuf.read(0, 64).unwrap(), vec![9u8; 64]);
        assert_eq!(p.scq_a.poll(8).len(), 1);
    }

    #[test]
    fn rnr_window_expiry_fails_sender() {
        let mut p = connected_pair();
        send_bytes(&mut p, &[9u8; 64], true);
        // Never post a receive: the hold window expires.
        p.tb.sim.run_until_idle();
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, WcStatus::RnrRetryExceeded);
        assert_eq!(p.qp_a.state(), QpState::Error);
    }

    #[test]
    fn rdma_write_places_data_without_remote_cqe() {
        let mut p = connected_pair();
        let target = p
            .dev_b
            .reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
        let src = p.dev_a.reg_mr(&p.pd_a, 1024, Access::NONE);
        src.write(0, &[0xAB; 1024]).unwrap();
        let wr = SendWr::write(WrId(5), Sge::whole(src), target.rkey(), 512).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        // Requester completion, no responder completion.
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1);
        assert!(tx[0].is_ok());
        assert_eq!(tx[0].opcode, WcOpcode::RdmaWrite);
        assert_eq!(p.rcq_b.poll(8).len(), 0);
        assert_eq!(target.read(512, 1024).unwrap(), vec![0xAB; 1024]);
    }

    #[test]
    fn rdma_write_with_imm_consumes_recv_and_notifies() {
        let mut p = connected_pair();
        let target = p
            .dev_b
            .reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
        let notify_buf = p.dev_b.reg_mr(&p.pd_b, 16, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(notify_buf)))
            .unwrap();
        let src = p.dev_a.reg_mr(&p.pd_a, 256, Access::NONE);
        let wr =
            SendWr::write_with_imm(WrId(5), Sge::whole(src), target.rkey(), 0, 0xFEED).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        let rx = p.rcq_b.poll(8);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].opcode, WcOpcode::RecvRdmaWithImm);
        assert_eq!(rx[0].imm, Some(0xFEED));
    }

    #[test]
    fn rdma_read_fetches_remote_data() {
        let mut p = connected_pair();
        let remote = p
            .dev_b
            .reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE | Access::REMOTE_READ);
        remote.write(100, b"remote-secret").unwrap();
        let local = p.dev_a.reg_mr(&p.pd_a, 13, Access::LOCAL_WRITE);
        let wr = SendWr::read(WrId(6), Sge::whole(local.clone()), remote.rkey(), 100).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1);
        assert!(tx[0].is_ok());
        assert_eq!(tx[0].opcode, WcOpcode::RdmaRead);
        assert_eq!(local.read(0, 13).unwrap(), b"remote-secret");
        assert_eq!(
            p.tb.sim.queue_stats().boxed,
            0,
            "a READ's steps fit their slots"
        );
    }

    #[test]
    fn bad_rkey_yields_remote_access_error() {
        let mut p = connected_pair();
        let src = p.dev_a.reg_mr(&p.pd_a, 64, Access::NONE);
        let wr = SendWr::write(WrId(7), Sge::whole(src), RKey(0xDEAD), 0).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, WcStatus::RemoteAccessError);
        assert_eq!(p.qp_a.state(), QpState::Error);
    }

    #[test]
    fn write_to_read_only_region_denied() {
        let mut p = connected_pair();
        // Region grants REMOTE_READ only: a WRITE must be refused (the
        // paper's §III-C Steering-Tag permission scenario).
        let target = p
            .dev_b
            .reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE | Access::REMOTE_READ);
        let before = target.read(0, 16).unwrap();
        let src = p.dev_a.reg_mr(&p.pd_a, 16, Access::NONE);
        src.write(0, &[0xFF; 16]).unwrap();
        let wr = SendWr::write(WrId(8), Sge::whole(src), target.rkey(), 0).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        assert_eq!(p.scq_a.poll(8)[0].status, WcStatus::RemoteAccessError);
        assert_eq!(
            target.read(0, 16).unwrap(),
            before,
            "data must be untouched"
        );
    }

    #[test]
    fn out_of_bounds_write_denied() {
        let mut p = connected_pair();
        let target = p
            .dev_b
            .reg_mr(&p.pd_b, 128, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
        let src = p.dev_a.reg_mr(&p.pd_a, 64, Access::NONE);
        let wr = SendWr::write(WrId(9), Sge::whole(src), target.rkey(), 100).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        assert_eq!(p.scq_a.poll(8)[0].status, WcStatus::RemoteAccessError);
    }

    #[test]
    fn read_from_writeonly_region_denied() {
        let mut p = connected_pair();
        let remote = p
            .dev_b
            .reg_mr(&p.pd_b, 128, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
        let local = p.dev_a.reg_mr(&p.pd_a, 64, Access::LOCAL_WRITE);
        let wr = SendWr::read(WrId(10), Sge::whole(local), remote.rkey(), 0).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        assert_eq!(p.scq_a.poll(8)[0].status, WcStatus::RemoteAccessError);
    }

    #[test]
    fn invalidated_stag_denies_access() {
        let mut p = connected_pair();
        let target = p.dev_b.reg_mr(
            &p.pd_b,
            128,
            Access::LOCAL_WRITE | Access::REMOTE_WRITE | Access::REMOTE_READ,
        );
        target.invalidate();
        let src = p.dev_a.reg_mr(&p.pd_a, 16, Access::NONE);
        let wr = SendWr::write(WrId(11), Sge::whole(src), target.rkey(), 0).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        assert_eq!(p.scq_a.poll(8)[0].status, WcStatus::RemoteAccessError);
        // The revoked-but-known rkey is the proactive-recovery fence: it is
        // counted separately from a never-registered rkey.
        let metrics = p.tb.net.metrics();
        assert_eq!(metrics.total("stale_rkey_denied"), 1);

        // A one-sided READ with the same stale rkey is fenced identically
        // (the state-transfer fast path after an epoch roll). The QP went
        // into error on the failed WRITE, so use a fresh pair.
        let mut p = connected_pair();
        let remote = p.dev_b.reg_mr(&p.pd_b, 128, Access::REMOTE_READ);
        remote.invalidate();
        let local = p.dev_a.reg_mr(&p.pd_a, 64, Access::LOCAL_WRITE);
        let wr = SendWr::read(WrId(12), Sge::whole(local), remote.rkey(), 0).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        assert_eq!(p.scq_a.poll(8)[0].status, WcStatus::RemoteAccessError);
        assert_eq!(p.tb.net.metrics().total("stale_rkey_denied"), 1);
    }

    /// An in-flight one-sided READ racing the MR invalidation: the rkey is
    /// valid when the requester posts the READ, and the region is revoked
    /// while the request packet is still on the wire. The responder-side
    /// permission check must fence it (deny + count) — permission is
    /// checked at access time, not at post time.
    #[test]
    fn in_flight_read_racing_invalidation_is_fenced() {
        let mut p = connected_pair();
        let remote = p
            .dev_b
            .reg_mr(&p.pd_b, 256, Access::LOCAL_WRITE | Access::REMOTE_READ);
        remote.write(0, &[0x5A; 256]).unwrap();
        let local = p.dev_a.reg_mr(&p.pd_a, 256, Access::LOCAL_WRITE);
        let wr = SendWr::read(WrId(13), Sge::whole(local.clone()), remote.rkey(), 0).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        // Revoke shortly after posting — long before the ~µs propagation
        // delay delivers the request to the responder RNIC.
        let mr = remote.clone();
        p.tb.sim
            .schedule_in(Nanos::from_nanos(10), move |_| mr.invalidate());
        p.tb.sim.run_until_idle();
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, WcStatus::RemoteAccessError);
        assert_eq!(p.tb.net.metrics().total("stale_rkey_denied"), 1);
        assert_eq!(
            local.read(0, 256).unwrap(),
            vec![0u8; 256],
            "no bytes may land from a fenced READ"
        );
    }

    #[test]
    fn recv_buffer_too_small_is_length_error() {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 16, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
            .unwrap();
        send_bytes(&mut p, &[5u8; 64], true);
        p.tb.sim.run_until_idle();
        let rx = p.rcq_b.poll(8);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].status, WcStatus::LocalLengthError);
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, WcStatus::RemoteOperationError);
    }

    #[test]
    fn inline_send_respects_limit() {
        let mut p = connected_pair();
        let sbuf = p.dev_a.reg_mr(&p.pd_a, 1024, Access::NONE);
        let wr = SendWr::send(WrId(1), Sge::whole(sbuf.clone())).with_inline();
        let err = p.qp_a.post_send(&mut p.tb.sim, wr).unwrap_err();
        assert!(matches!(err, VerbsError::InlineTooLarge { .. }));
        // Within the limit it is accepted and faster (no DMA fetch).
        let small = p.dev_a.reg_mr(&p.pd_a, 128, Access::NONE);
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
            .unwrap();
        p.qp_a
            .post_send(
                &mut p.tb.sim,
                SendWr::send(WrId(2), Sge::whole(small))
                    .with_inline()
                    .signaled(),
            )
            .unwrap();
        p.tb.sim.run_until_idle();
        assert!(p.scq_a.poll(8)[0].is_ok());
    }

    #[test]
    fn inline_is_faster_than_dma_for_small_messages() {
        // Measure completion times for inline vs non-inline 200-byte sends.
        let t_inline = small_send_latency(true);
        let t_dma = small_send_latency(false);
        assert!(t_inline < t_dma, "inline {t_inline} !< dma {t_dma}");
    }

    fn small_send_latency(inline: bool) -> Nanos {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
            .unwrap();
        let sbuf = p.dev_a.reg_mr(&p.pd_a, 200, Access::NONE);
        let mut wr = SendWr::send(WrId(2), Sge::whole(sbuf)).signaled();
        if inline {
            wr = wr.with_inline();
        }
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        assert_eq!(p.rcq_b.poll(8).len(), 1);
        p.tb.sim.now()
    }

    #[test]
    fn pd_mismatch_rejected() {
        let mut p = connected_pair();
        let other_pd = p.dev_a.alloc_pd();
        let sbuf = p.dev_a.reg_mr(&other_pd, 64, Access::NONE);
        let err = p
            .qp_a
            .post_send(&mut p.tb.sim, SendWr::send(WrId(1), Sge::whole(sbuf)))
            .unwrap_err();
        assert_eq!(err, VerbsError::PdMismatch);
    }

    #[test]
    fn posting_limits_enforced() {
        let mut p = connected_pair();
        let model = RnicModel::mt27520();
        let sbuf = p.dev_a.reg_mr(&p.pd_a, 64, Access::NONE);
        // Batch too large.
        let wrs: Vec<SendWr> = (0..model.max_post_batch + 1)
            .map(|i| SendWr::send(WrId(i as u64), Sge::whole(sbuf.clone())))
            .collect();
        assert!(matches!(
            p.qp_a.post_send_batch(&mut p.tb.sim, wrs).unwrap_err(),
            VerbsError::BatchTooLarge { .. }
        ));
        // Send queue capacity.
        for i in 0..model.max_send_wr {
            p.qp_a
                .post_send(
                    &mut p.tb.sim,
                    SendWr::send(WrId(i as u64), Sge::whole(sbuf.clone())),
                )
                .unwrap();
        }
        assert!(matches!(
            p.qp_a
                .post_send(&mut p.tb.sim, SendWr::send(WrId(999), Sge::whole(sbuf)))
                .unwrap_err(),
            VerbsError::QueueFull { .. }
        ));
    }

    #[test]
    fn post_send_requires_rts() {
        let tb = TestBed::paper_testbed(0);
        let mut sim = tb.sim;
        let dev = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let pd = dev.alloc_pd();
        let cq = dev.create_cq(8, None);
        let qp = dev.create_qp(&QpConfig {
            pd,
            send_cq: cq.clone(),
            recv_cq: cq,
            core: CoreId(0),
        });
        let buf = dev.reg_mr(&pd, 16, Access::LOCAL_WRITE);
        assert!(matches!(
            qp.post_send(&mut sim, SendWr::send(WrId(1), Sge::whole(buf.clone())))
                .unwrap_err(),
            VerbsError::InvalidQpState { .. }
        ));
        // Receives can be posted from Init onwards.
        assert!(matches!(
            qp.post_recv(&mut sim, RecvWr::new(WrId(1), Sge::whole(buf.clone())))
                .unwrap_err(),
            VerbsError::InvalidQpState { .. }
        ));
        qp.modify_to_init().unwrap();
        qp.post_recv(&mut sim, RecvWr::new(WrId(1), Sge::whole(buf)))
            .unwrap();
    }

    #[test]
    fn recv_buffer_requires_local_write() {
        let mut p = connected_pair();
        let buf = p.dev_b.reg_mr(&p.pd_b, 64, Access::NONE);
        assert_eq!(
            p.qp_b
                .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(buf)))
                .unwrap_err(),
            VerbsError::LocalAccess
        );
    }

    #[test]
    fn one_sided_write_uses_no_responder_cpu() {
        let mut p = connected_pair();
        let target = p
            .dev_b
            .reg_mr(&p.pd_b, 65536, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
        let src = p.dev_a.reg_mr(&p.pd_a, 65536, Access::NONE);
        let busy_before = p.tb.net.host(p.tb.b).borrow().total_busy_time();
        let wr = SendWr::write(WrId(1), Sge::whole(src), target.rkey(), 0).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_until_idle();
        let busy_after = p.tb.net.host(p.tb.b).borrow().total_busy_time();
        assert_eq!(busy_before, busy_after, "responder CPU must stay idle");
        assert!(p.scq_a.poll(8)[0].is_ok());
    }

    #[test]
    fn cm_connect_accept_flow() {
        let mut tb = TestBed::paper_testbed(5);
        let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
        let pd_b = dev_b.alloc_pd();
        let cq_b = dev_b.create_cq(16, None);
        let _listener = dev_b.listen(500).unwrap();
        assert!(matches!(
            dev_b.listen(500).unwrap_err(),
            VerbsError::AddrInUse
        ));

        let pd_a = dev_a.alloc_pd();
        let cq_a = dev_a.create_cq(16, None);
        let (qp_a, _conn) = dev_a
            .connect(
                &mut tb.sim,
                simnet::Addr::new(tb.b, 500),
                &QpConfig {
                    pd: pd_a,
                    send_cq: cq_a.clone(),
                    recv_cq: cq_a.clone(),
                    core: CoreId(0),
                },
                b"hello-from-a".to_vec(),
            )
            .unwrap();
        tb.sim.run_until_idle();

        // Server sees the request with private data.
        let ev = dev_b.poll_cm_event().expect("connect request pending");
        let CmEvent::ConnectRequest(req) = ev else {
            panic!("expected ConnectRequest, got {ev:?}");
        };
        assert_eq!(req.private, b"hello-from-a");
        assert_eq!(req.listen_port, 500);
        let qp_b = req
            .accept(
                &mut tb.sim,
                &QpConfig {
                    pd: pd_b,
                    send_cq: cq_b.clone(),
                    recv_cq: cq_b.clone(),
                    core: CoreId(0),
                },
                b"welcome".to_vec(),
            )
            .unwrap();
        tb.sim.run_until_idle();

        // Client sees Established with the server's private data.
        let ev = dev_a.poll_cm_event().expect("established pending");
        let CmEvent::Established { qp, private, .. } = ev else {
            panic!("expected Established, got {ev:?}");
        };
        assert_eq!(private, b"welcome");
        assert_eq!(qp.state(), QpState::ReadyToSend);
        assert_eq!(qp_a.state(), QpState::ReadyToSend);
        assert_eq!(qp_b.state(), QpState::ReadyToSend);

        // And the pair can actually move data.
        let rbuf = dev_b.reg_mr(&pd_b, 256, Access::LOCAL_WRITE);
        qp_b.post_recv(&mut tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf.clone())))
            .unwrap();
        let sbuf = dev_a.reg_mr(&pd_a, 5, Access::NONE);
        sbuf.write(0, b"ping!").unwrap();
        qp_a.post_send(
            &mut tb.sim,
            SendWr::send(WrId(2), Sge::whole(sbuf)).signaled(),
        )
        .unwrap();
        tb.sim.run_until_idle();
        assert_eq!(rbuf.read(0, 5).unwrap(), b"ping!");
    }

    #[test]
    fn cm_reject_flow() {
        let mut tb = TestBed::paper_testbed(5);
        let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
        let _listener = dev_b.listen(600).unwrap();
        let pd_a = dev_a.alloc_pd();
        let cq_a = dev_a.create_cq(16, None);
        let (qp_a, _conn) = dev_a
            .connect(
                &mut tb.sim,
                simnet::Addr::new(tb.b, 600),
                &QpConfig {
                    pd: pd_a,
                    send_cq: cq_a.clone(),
                    recv_cq: cq_a,
                    core: CoreId(0),
                },
                vec![],
            )
            .unwrap();
        tb.sim.run_until_idle();
        let CmEvent::ConnectRequest(req) = dev_b.poll_cm_event().unwrap() else {
            panic!("expected request");
        };
        req.reject(&mut tb.sim, "not today");
        tb.sim.run_until_idle();
        let CmEvent::ConnectFailed { reason, .. } = dev_a.poll_cm_event().unwrap() else {
            panic!("expected failure");
        };
        assert_eq!(reason, "not today");
        assert_eq!(qp_a.state(), QpState::Error);
    }

    #[test]
    fn disconnect_raises_event_and_flushes() {
        let mut p = connected_pair();
        // B has a receive posted that must be flushed.
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 64, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(77), Sge::whole(rbuf)))
            .unwrap();
        p.qp_a.disconnect(&mut p.tb.sim);
        p.tb.sim.run_until_idle();
        assert_eq!(p.qp_a.state(), QpState::Error);
        assert_eq!(p.qp_b.state(), QpState::Error);
        let flushed = p.rcq_b.poll(8);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].status, WcStatus::WorkRequestFlushed);
        assert!(matches!(
            p.dev_b.poll_cm_event(),
            Some(CmEvent::Disconnected { .. })
        ));
    }

    #[test]
    fn completion_channel_notifies_selector_style() {
        let mut p = connected_pair();
        let ch = CompChannel::new();
        let rcq = p.dev_b.create_cq(32, Some(&ch));
        // New QP on B using the channel-attached CQ.
        let qp_b2 = p.dev_b.create_qp(&QpConfig {
            pd: p.pd_b,
            send_cq: rcq.clone(),
            recv_cq: rcq.clone(),
            core: CoreId(0),
        });
        let cq_a2 = p.dev_a.create_cq(32, None);
        let qp_a2 = p.dev_a.create_qp(&QpConfig {
            pd: p.pd_a,
            send_cq: cq_a2.clone(),
            recv_cq: cq_a2,
            core: CoreId(0),
        });
        connect_pair(&qp_a2, &qp_b2).unwrap();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 256, Access::LOCAL_WRITE);
        qp_b2
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
            .unwrap();
        rcq.req_notify();
        let sbuf = p.dev_a.reg_mr(&p.pd_a, 32, Access::NONE);
        qp_a2
            .post_send(&mut p.tb.sim, SendWr::send(WrId(2), Sge::whole(sbuf)))
            .unwrap();
        p.tb.sim.run_until_idle();
        assert_eq!(ch.poll_event(), Some(rcq.id()));
        assert_eq!(rcq.poll(8).len(), 1);
    }

    #[test]
    fn many_messages_arrive_in_order() {
        let mut p = connected_pair();
        let n = 50usize;
        let rbufs: Vec<MemoryRegion> = (0..n)
            .map(|_| p.dev_b.reg_mr(&p.pd_b, 64, Access::LOCAL_WRITE))
            .collect();
        let recvs: Vec<RecvWr> = rbufs
            .iter()
            .enumerate()
            .map(|(i, mr)| RecvWr::new(WrId(i as u64), Sge::whole(mr.clone())))
            .collect();
        for chunk in recvs.chunks(16) {
            p.qp_b
                .post_recv_batch(&mut p.tb.sim, chunk.to_vec())
                .unwrap();
        }
        for i in 0..n {
            let sbuf = p.dev_a.reg_mr(&p.pd_a, 8, Access::NONE);
            sbuf.write(0, &(i as u64).to_le_bytes()).unwrap();
            p.qp_a
                .post_send(
                    &mut p.tb.sim,
                    SendWr::send(WrId(i as u64), Sge::whole(sbuf)),
                )
                .unwrap();
        }
        p.tb.sim.run_until_idle();
        let wcs = p.rcq_b.poll(n);
        assert_eq!(wcs.len(), n);
        for (i, wc) in wcs.iter().enumerate() {
            assert_eq!(wc.wr_id, WrId(i as u64), "order preserved");
            let got = rbufs[i].read(0, 8).unwrap();
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), i as u64);
        }
    }

    #[test]
    fn receive_completions_keep_posting_order_across_sizes() {
        // A small SEND right behind a large one on the same RC queue pair
        // lands while the large one is still being placed; its completion
        // must still come second.
        let mut p = connected_pair();
        for (i, len) in [65536usize, 64].into_iter().enumerate() {
            let rbuf = p.dev_b.reg_mr(&p.pd_b, len, Access::LOCAL_WRITE);
            p.qp_b
                .post_recv(&mut p.tb.sim, RecvWr::new(WrId(i as u64), Sge::whole(rbuf)))
                .unwrap();
        }
        send_bytes(&mut p, &vec![7u8; 65536], false);
        send_bytes(&mut p, &[8u8; 64], false);
        p.tb.sim.run_until_idle();
        let lens: Vec<usize> = p.rcq_b.poll(8).iter().map(|wc| wc.byte_len).collect();
        assert_eq!(lens, [65536, 64]);
    }

    #[test]
    fn cq_overflow_sets_flag_instead_of_panicking() {
        // A 2-entry CQ with many signaled sends overflows; the device
        // reports it via the flag (fatal on real hardware, observable in
        // tests here).
        let tb = TestBed::paper_testbed(9);
        let mut sim = tb.sim;
        let dev_a = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let dev_b = RdmaDevice::open(&tb.net, tb.b, RnicModel::mt27520());
        let pd_a = dev_a.alloc_pd();
        let pd_b = dev_b.alloc_pd();
        let tiny_scq = dev_a.create_cq(2, None);
        let rcq_a = dev_a.create_cq(64, None);
        let cq_b = dev_b.create_cq(64, None);
        let qp_a = dev_a.create_qp(&QpConfig {
            pd: pd_a,
            send_cq: tiny_scq.clone(),
            recv_cq: rcq_a,
            core: CoreId(0),
        });
        let qp_b = dev_b.create_qp(&QpConfig {
            pd: pd_b,
            send_cq: cq_b.clone(),
            recv_cq: cq_b.clone(),
            core: CoreId(0),
        });
        connect_pair(&qp_a, &qp_b).unwrap();
        for i in 0..6u64 {
            let rbuf = dev_b.reg_mr(&pd_b, 64, Access::LOCAL_WRITE);
            qp_b.post_recv(&mut sim, RecvWr::new(WrId(i), Sge::whole(rbuf)))
                .unwrap();
            let sbuf = dev_a.reg_mr(&pd_a, 16, Access::NONE);
            qp_a.post_send(&mut sim, SendWr::send(WrId(i), Sge::whole(sbuf)).signaled())
                .unwrap();
        }
        sim.run_until_idle();
        assert!(tiny_scq.overflowed(), "overflow must be flagged");
        assert_eq!(tiny_scq.pending(), 2, "only capacity entries retained");
    }

    #[test]
    fn destroyed_qp_stops_receiving() {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 64, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
            .unwrap();
        // Flushed receive from the destroy.
        p.qp_b.destroy();
        assert_eq!(p.qp_b.state(), QpState::Error);
        let flushed = p.rcq_b.poll(8);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].status, WcStatus::WorkRequestFlushed);
        // A send towards the destroyed QP goes nowhere (unroutable frame);
        // the sender retransmits until the retry budget is spent, then the
        // operation fails with RetryExceeded and the QP enters error state.
        let unroutable_before = p.tb.net.stats().unroutable;
        send_bytes(&mut p, &[1u8; 16], true);
        p.tb.sim.run_until_idle();
        assert!(p.tb.net.stats().unroutable > unroutable_before);
        let model = RnicModel::mt27520();
        assert_eq!(
            qp_counter(&p, &p.qp_a, "retransmits"),
            model.retry_cnt as u64
        );
        let wcs = p.scq_a.poll(8);
        assert_eq!(wcs.len(), 1);
        assert_eq!(wcs[0].status, WcStatus::RetryExceeded);
        assert_eq!(p.qp_a.state(), QpState::Error);
    }

    #[test]
    fn a_failed_queue_pair_gives_every_pooled_copy_back() {
        let mut p = connected_pair();
        // No receive is posted at b: the three SENDs wait in its RNR hold.
        for _ in 0..3 {
            send_bytes(&mut p, &[7u8; 512], true);
        }
        p.tb.sim.run_for(Nanos::from_micros(20));
        assert!(p.tb.net.buffer_pool().stats().outstanding > 0);
        // b fails with the three held; a retransmits into the void until
        // its retry budget is spent and fails with the three pending.
        p.qp_b.destroy();
        p.tb.sim.run_until_idle();
        assert_eq!(p.qp_a.state(), QpState::Error);
        p.qp_a.destroy();
        p.tb.sim.run_until_idle();
        assert_eq!(p.tb.net.buffer_pool().stats().outstanding, 0);
    }

    /// SENDs the network drops give their pooled buffers back. The first
    /// dies in a partition and its retransmission, rebuilt from the posted
    /// buffer, lands that buffer's bytes after the heal; the second and
    /// every retransmission of it die in a partition that outlasts the
    /// retry budget. Once idle no buffer is out.
    #[test]
    fn dropped_sends_return_their_buffers_to_the_pool() {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 512, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(
                &mut p.tb.sim,
                RecvWr::new(WrId(1), Sge::whole(rbuf.clone())),
            )
            .unwrap();
        let (a, b) = (p.tb.a, p.tb.b);
        p.tb.net.with_faults(|f| f.partition(a, b));
        let data: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        send_bytes(&mut p, &data, true);
        p.tb.sim.run_for(Nanos::from_micros(100));
        p.tb.net.with_faults(|f| f.heal(a, b));
        p.tb.sim.run_until_idle();
        assert_eq!(qp_counter(&p, &p.qp_a, "retransmits"), 1);
        assert_eq!(p.rcq_b.poll(8)[0].status, WcStatus::Success);
        assert_eq!(p.scq_a.poll(8)[0].status, WcStatus::Success);
        assert_eq!(rbuf.read(0, 512).unwrap(), data);
        assert_eq!(p.tb.net.buffer_pool().stats().outstanding, 0);

        p.tb.net.with_faults(|f| f.partition(a, b));
        send_bytes(&mut p, &[8u8; 512], true);
        p.tb.sim.run_until_idle();
        assert_eq!(p.scq_a.poll(8)[0].status, WcStatus::RetryExceeded);
        assert_eq!(p.tb.net.buffer_pool().stats().outstanding, 0);
    }

    /// A failed queue pair flushes its pending sends in posting order, so
    /// a same-seed run replays the same completion queue: eight signaled
    /// SENDs wait for ACKs behind a partition when the QP disconnects.
    #[test]
    fn disconnect_flushes_pending_sends_in_posting_order() {
        let mut p = connected_pair();
        let (a, b) = (p.tb.a, p.tb.b);
        p.tb.net.with_faults(|f| f.partition(a, b));
        post_sends(&mut p, 8);
        p.tb.sim.run_for(Nanos::from_micros(50));
        assert!(p.scq_a.poll(8).is_empty(), "all eight wait for an ACK");
        p.qp_a.disconnect(&mut p.tb.sim);
        let flushed = p.scq_a.poll(16);
        assert!(flushed
            .iter()
            .all(|wc| wc.status == WcStatus::WorkRequestFlushed));
        let ids: Vec<u64> = flushed.iter().map(|wc| wc.wr_id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn deep_send_queue_on_healthy_link_never_retransmits() {
        // 30 × 100 KB takes far longer to drain (≈3 MB at 10 Gbps ≈ 2.4 ms)
        // than one ACK `timeout` (1 ms). The timeout must clock ACK
        // *silence*, not per-packet age — otherwise a deep send queue on a
        // lossless link spuriously exhausts `retry_cnt` and breaks the QP
        // (the regression behind the fig4 100 KB stall).
        let mut p = connected_pair();
        const N: usize = 30;
        const LEN: usize = 100 * 1024;
        for i in 0..N {
            let rbuf = p.dev_b.reg_mr(&p.pd_b, LEN, Access::LOCAL_WRITE);
            p.qp_b
                .post_recv(&mut p.tb.sim, RecvWr::new(WrId(i as u64), Sge::whole(rbuf)))
                .unwrap();
        }
        let payload = vec![7u8; LEN];
        for _ in 0..N {
            send_bytes(&mut p, &payload, true);
        }
        p.tb.sim.run_until_idle();
        assert_eq!(p.rcq_b.poll(64).len(), N, "all messages delivered");
        let tx = p.scq_a.poll(64);
        assert_eq!(tx.len(), N);
        assert!(tx.iter().all(|wc| wc.is_ok()));
        assert_eq!(
            qp_counter(&p, &p.qp_a, "retransmits"),
            0,
            "a healthy link must never retransmit, however deep the queue"
        );
        assert_ne!(p.qp_a.state(), QpState::Error);
    }

    #[test]
    fn recv_posted_accounting_tracks_queue() {
        let mut p = connected_pair();
        assert_eq!(p.qp_b.recv_posted(), 0);
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 4096, Access::LOCAL_WRITE);
        for i in 0..5 {
            p.qp_b
                .post_recv(
                    &mut p.tb.sim,
                    RecvWr::new(WrId(i), Sge::whole(rbuf.clone())),
                )
                .unwrap();
        }
        assert_eq!(p.qp_b.recv_posted(), 5);
        send_bytes(&mut p, &[1u8; 32], false);
        p.tb.sim.run_until_idle();
        assert_eq!(p.qp_b.recv_posted(), 4, "one receive consumed");
        assert_eq!(qp_counter(&p, &p.qp_b, "recvs_posted"), 5);
        let rx = p.rcq_b.poll(8);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].byte_len, 32);
    }

    #[test]
    fn write_with_imm_waits_for_recv_like_send() {
        let mut p = connected_pair();
        let target = p
            .dev_b
            .reg_mr(&p.pd_b, 1024, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
        let src = p.dev_a.reg_mr(&p.pd_a, 64, Access::NONE);
        // No receive posted: WRITE_WITH_IMM is held in the RNR window.
        let wr = SendWr::write_with_imm(WrId(1), Sge::whole(src), target.rkey(), 0, 7).signaled();
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        p.tb.sim.run_for(Nanos::from_micros(50));
        assert_eq!(p.rcq_b.poll(8).len(), 0, "held, not delivered");
        // Posting the receive releases it.
        let notify = p.dev_b.reg_mr(&p.pd_b, 4, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(9), Sge::whole(notify)))
            .unwrap();
        p.tb.sim.run_until_idle();
        let rx = p.rcq_b.poll(8);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].imm, Some(7));
        assert!(p.scq_a.poll(8)[0].is_ok());
    }

    /// Posts a `len`-byte WRITE_WITH_IMM from A into a fresh region of B.
    fn write_with_imm_bytes(p: &mut Pair, len: usize) {
        let target = p
            .dev_b
            .reg_mr(&p.pd_b, len, Access::LOCAL_WRITE | Access::REMOTE_WRITE);
        let src = p.dev_a.reg_mr(&p.pd_a, len, Access::NONE);
        let wr = SendWr::write_with_imm(WrId(43), Sge::whole(src), target.rkey(), 0, 1);
        p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
    }

    fn post_recvs(p: &mut Pair, lens: &[usize]) {
        for (i, &len) in lens.iter().enumerate() {
            let rbuf = p.dev_b.reg_mr(&p.pd_b, len, Access::LOCAL_WRITE);
            p.qp_b
                .post_recv(&mut p.tb.sim, RecvWr::new(WrId(i as u64), Sge::whole(rbuf)))
                .unwrap();
        }
    }

    fn recv_opcodes(p: &Pair) -> Vec<WcOpcode> {
        p.rcq_b.poll(8).iter().map(|wc| wc.opcode).collect()
    }

    #[test]
    fn write_with_imm_completes_after_an_earlier_send() {
        // The WRITE_WITH_IMM lands while the large SEND ahead of it is
        // still being placed; RC order still completes the SEND first.
        let mut p = connected_pair();
        post_recvs(&mut p, &[65536, 64]);
        send_bytes(&mut p, &vec![7u8; 65536], false);
        write_with_imm_bytes(&mut p, 64);
        p.tb.sim.run_until_idle();
        assert_eq!(
            recv_opcodes(&p),
            [WcOpcode::Recv, WcOpcode::RecvRdmaWithImm]
        );
    }

    #[test]
    fn held_write_with_imm_completes_after_a_held_send() {
        // Both arrive with no receive posted and wait in the RNR hold; the
        // receives posted later are claimed in arrival order.
        let mut p = connected_pair();
        send_bytes(&mut p, &vec![7u8; 4096], false);
        write_with_imm_bytes(&mut p, 64);
        p.tb.sim.run_for(Nanos::from_micros(50));
        assert_eq!(p.rcq_b.pending(), 0, "both held");
        post_recvs(&mut p, &[4096, 64]);
        p.tb.sim.run_until_idle();
        assert_eq!(
            recv_opcodes(&p),
            [WcOpcode::Recv, WcOpcode::RecvRdmaWithImm]
        );
    }

    #[test]
    fn reg_mr_cost_is_exposed_for_critical_path_decisions() {
        // RUBIN's pool pre-registers at setup because registration is
        // expensive; the cost model makes that trade-off measurable.
        let model = RnicModel::mt27520();
        let small = model.reg_mr_cost(256);
        let big = model.reg_mr_cost(128 * 1024);
        assert!(big > small);
        // Registering dwarfs a copy of the same small payload.
        let copy = simnet::CpuModel::xeon_v2().copy_cost(256);
        assert!(small > copy * 10);
    }

    #[test]
    fn larger_payloads_take_longer() {
        let lat = |size: usize| -> Nanos {
            let mut p = connected_pair();
            let rbuf = p.dev_b.reg_mr(&p.pd_b, size, Access::LOCAL_WRITE);
            p.qp_b
                .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
                .unwrap();
            let sbuf = p.dev_a.reg_mr(&p.pd_a, size, Access::NONE);
            p.qp_a
                .post_send(
                    &mut p.tb.sim,
                    SendWr::send(WrId(2), Sge::whole(sbuf)).signaled(),
                )
                .unwrap();
            let mut done = Nanos::ZERO;
            while p.tb.sim.step() {
                if p.rcq_b.pending() > 0 && done == Nanos::ZERO {
                    done = p.tb.sim.now();
                }
            }
            assert!(done > Nanos::ZERO);
            done
        };
        let small = lat(1024);
        let big = lat(102_400);
        assert!(big > small * 10, "100KB ({big}) should dwarf 1KB ({small})");
    }

    #[test]
    fn lost_send_is_retransmitted_and_delivered_once() {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 64, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(
                &mut p.tb.sim,
                RecvWr::new(WrId(1), Sge::whole(rbuf.clone())),
            )
            .unwrap();
        // Blackhole the data direction: the first transmission (and early
        // retransmissions) are lost. Heal mid-run so a later retry lands.
        let (a, b) = (p.tb.a, p.tb.b);
        p.tb.net.with_faults(|f| f.set_loss(a, b, 1.0));
        let net = p.tb.net.clone();
        p.tb.sim.schedule_at(Nanos::from_micros(2_500), move |_| {
            net.with_faults(|f| f.set_loss(a, b, 0.0))
        });
        send_bytes(&mut p, &[9u8; 32], true);
        p.tb.sim.run_until_idle();
        assert!(
            qp_counter(&p, &p.qp_a, "retransmits") >= 2,
            "early copies were lost"
        );
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, WcStatus::Success);
        let rx = p.rcq_b.poll(8);
        assert_eq!(rx.len(), 1, "delivered exactly once");
        assert_eq!(rbuf.read(0, 32).unwrap(), vec![9u8; 32]);
        assert_eq!(qp_counter(&p, &p.qp_b, "duplicates_suppressed"), 0);
    }

    #[test]
    fn lost_ack_is_recovered_by_reack_without_redelivery() {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 64, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
            .unwrap();
        // Blackhole only the ACK direction: data arrives, every ACK (and
        // re-ACK) is lost until the link heals, forcing the sender to
        // retransmit a message the receiver already executed.
        let (a, b) = (p.tb.a, p.tb.b);
        p.tb.net.with_faults(|f| f.set_loss(b, a, 1.0));
        let net = p.tb.net.clone();
        p.tb.sim.schedule_at(Nanos::from_micros(2_500), move |_| {
            net.with_faults(|f| f.set_loss(b, a, 0.0))
        });
        send_bytes(&mut p, &[5u8; 32], true);
        p.tb.sim.run_until_idle();
        assert!(qp_counter(&p, &p.qp_b, "duplicates_suppressed") >= 1);
        assert_eq!(p.rcq_b.poll(8).len(), 1, "executed exactly once");
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1, "sender completes once, via the re-ACK");
        assert_eq!(tx[0].status, WcStatus::Success);
        assert_eq!(p.qp_a.state(), QpState::ReadyToSend, "no spurious error");
    }

    #[test]
    fn fault_duplicated_frames_deliver_exactly_once() {
        let mut p = connected_pair();
        let rbuf = p.dev_b.reg_mr(&p.pd_b, 64, Access::LOCAL_WRITE);
        p.qp_b
            .post_recv(&mut p.tb.sim, RecvWr::new(WrId(1), Sge::whole(rbuf)))
            .unwrap();
        let (a, b) = (p.tb.a, p.tb.b);
        p.tb.net.with_faults(|f| f.set_duplication(a, b, 1.0));
        send_bytes(&mut p, &[3u8; 32], true);
        p.tb.sim.run_until_idle();
        assert_eq!(p.rcq_b.poll(8).len(), 1, "dup copy must not redeliver");
        assert!(qp_counter(&p, &p.qp_b, "duplicates_suppressed") >= 1);
        assert_eq!(p.scq_a.poll(8).len(), 1);
    }

    /// An RNR hold and the ACK-timeout retransmission path must not double
    /// up: with a timeout *shorter* than the RNR window, the sender
    /// retransmits a message the receiver is holding, and the receiver must
    /// suppress those copies silently (no re-ACK, no second hold). When the
    /// window expires, exactly one RNR NAK fails the send — not a second
    /// RetryExceeded completion on top.
    #[test]
    fn rnr_hold_is_not_also_retransmitted() {
        let mut model = RnicModel::mt27520();
        model.timeout = Nanos::from_micros(100); // < 80 µs × 7 = 560 µs window
        let mut p = connected_pair_with(model);
        // No receive posted: the send is held at the receiver.
        send_bytes(&mut p, &[1u8; 16], true);
        p.tb.sim.run_until_idle();
        assert_eq!(
            qp_counter(&p, &p.qp_b, "rnr_retries"),
            1,
            "held once, not per copy"
        );
        assert!(
            qp_counter(&p, &p.qp_b, "duplicates_suppressed") >= 1,
            "retransmitted copies of the held seq are suppressed"
        );
        let tx = p.scq_a.poll(8);
        assert_eq!(tx.len(), 1, "exactly one failure completion");
        assert_eq!(tx[0].status, WcStatus::RnrRetryExceeded);
        assert_eq!(p.qp_a.state(), QpState::Error);
    }

    /// Steps `p`'s simulator until `done` holds and returns the time.
    fn step_until(p: &mut Pair, mut done: impl FnMut(&Pair) -> bool) -> Nanos {
        while !done(p) {
            assert!(p.tb.sim.step(), "the simulator ran idle first");
        }
        p.tb.sim.now()
    }

    /// Posts `n` signaled 64-byte SENDs from A, with ids `0..n`.
    fn post_sends(p: &mut Pair, n: u64) {
        for id in 0..n {
            let sbuf = p.dev_a.reg_mr(&p.pd_a, 64, Access::NONE);
            let wr = SendWr::send(WrId(id), Sge::whole(sbuf)).signaled();
            p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
        }
    }

    /// The transport timer restarts on the ACK that retires the first
    /// SEND, so the second, lost on the wire, is re-sent exactly one
    /// `timeout` after that ACK.
    #[test]
    fn a_send_lost_behind_an_acked_one_is_resent_one_timeout_after_the_ack() {
        let mut p = connected_pair();
        post_recvs(&mut p, &[64, 64]);
        let (a, b) = (p.tb.a, p.tb.b);
        let pool = p.tb.net.buffer_pool();
        post_sends(&mut p, 2);
        // A data packet takes its buffer when the NIC builds it.
        step_until(&mut p, |_| pool.stats().takes > 0);
        p.tb.net.with_faults(|f| f.set_loss(a, b, 1.0));
        let taken = pool.stats().takes;
        step_until(&mut p, |_| pool.stats().takes > taken);
        p.tb.net.with_faults(|f| f.set_loss(a, b, 0.0));
        let acked = step_until(&mut p, |p| p.scq_a.pending() > 0);
        let resent = step_until(&mut p, |p| qp_counter(p, &p.qp_a, "retransmits") > 0);
        assert_eq!(resent - acked, RnicModel::mt27520().timeout);
        p.tb.sim.run_until_idle();
        assert_eq!(p.rcq_b.poll(8).len(), 2);
        let ids: Vec<u64> = p.scq_a.poll(8).iter().map(|wc| wc.wr_id.0).collect();
        assert_eq!(ids, [0, 1]);
    }

    /// With the peer gone the oldest operation is re-sent `retry_cnt`
    /// times, one `timeout` apart, and fails one `timeout` after the last;
    /// the operations behind it flush in posting order.
    #[test]
    fn retry_exceeded_comes_retry_cnt_plus_one_timeouts_after_the_first_transmission() {
        let mut p = connected_pair();
        let (a, b) = (p.tb.a, p.tb.b);
        p.tb.net.with_faults(|f| f.partition(a, b));
        let pool = p.tb.net.buffer_pool();
        post_sends(&mut p, 4);
        let sent = step_until(&mut p, |_| pool.stats().takes > 0);
        let failed = step_until(&mut p, |p| p.scq_a.pending() > 0);
        let model = RnicModel::mt27520();
        assert_eq!(failed - sent, model.timeout * (model.retry_cnt as u64 + 1));
        assert_eq!(
            qp_counter(&p, &p.qp_a, "retransmits"),
            model.retry_cnt as u64
        );
        let wcs = p.scq_a.poll(8);
        let got: Vec<(u64, WcStatus)> = wcs.iter().map(|wc| (wc.wr_id.0, wc.status)).collect();
        assert_eq!(
            got,
            [
                (0, WcStatus::RetryExceeded),
                (1, WcStatus::WorkRequestFlushed),
                (2, WcStatus::WorkRequestFlushed),
                (3, WcStatus::WorkRequestFlushed),
            ]
        );
    }

    /// A READ response is progress, as RC specifies: it restarts the
    /// transport timer, so a SEND lost behind the READ is re-sent one
    /// `timeout` after the response arrives, not after its own post.
    #[test]
    fn a_read_response_restarts_the_transport_timer() {
        const LEN: usize = 256 * 1024;
        let mut p = connected_pair();
        post_recvs(&mut p, &[64]);
        let (a, b) = (p.tb.a, p.tb.b);
        let pool = p.tb.net.buffer_pool();
        let remote = p.dev_b.reg_mr(&p.pd_b, LEN, Access::REMOTE_READ);
        let sink = p.dev_a.reg_mr(&p.pd_a, LEN, Access::LOCAL_WRITE);
        let read = SendWr::read(WrId(7), Sge::whole(sink), remote.rkey(), 0).signaled();
        p.qp_a.post_send(&mut p.tb.sim, read).unwrap();
        // The responder builds the READ response; the SEND posted now is
        // lost on the wire while the response is in flight.
        step_until(&mut p, |_| pool.stats().takes > 0);
        p.tb.net.with_faults(|f| f.set_loss(a, b, 1.0));
        post_sends(&mut p, 1);
        let taken = pool.stats().takes;
        step_until(&mut p, |_| pool.stats().takes > taken);
        p.tb.net.with_faults(|f| f.set_loss(a, b, 0.0));
        let read_done = step_until(&mut p, |p| p.scq_a.pending() > 0);
        let model = RnicModel::mt27520();
        // The READ completes a DMA and a CQE after its response arrives.
        let arrived = read_done - model.dma_cost(LEN) - Nanos::from_nanos(model.cqe_ns);
        let resent = step_until(&mut p, |p| qp_counter(p, &p.qp_a, "retransmits") > 0);
        assert_eq!(resent - arrived, model.timeout);
        p.tb.sim.run_until_idle();
        assert_eq!(qp_counter(&p, &p.qp_a, "retransmits"), 1);
        let ids: Vec<u64> = p.scq_a.poll(8).iter().map(|wc| wc.wr_id.0).collect();
        assert_eq!(ids, [7, 0]);
    }

    /// However many operations are outstanding, the queue pair keeps one
    /// transport timer, not one per operation.
    #[test]
    fn one_retry_timer_is_pending_however_many_operations_are_outstanding() {
        let mut p = connected_pair();
        let (a, b) = (p.tb.a, p.tb.b);
        p.tb.net.with_faults(|f| f.partition(a, b));
        post_sends(&mut p, 8);
        p.tb.sim.run_for(Nanos::from_micros(100));
        assert_eq!(p.tb.sim.queue_stats().pending, 1);
        assert!(p.scq_a.poll(8).is_empty(), "all eight are outstanding");
    }

    /// Posts, in one doorbell, a signaled 32 B SEND (id 0) and a signaled
    /// inline plain WRITE of 32 B of 9s into a fresh region of B (id 1);
    /// returns that region.
    fn post_send_then_write(p: &mut Pair) -> MemoryRegion {
        let sbuf = p.dev_a.reg_mr(&p.pd_a, 32, Access::NONE);
        let send = SendWr::send(WrId(0), Sge::whole(sbuf)).signaled();
        let target = p.dev_b.reg_mr(&p.pd_b, 32, Access::REMOTE_WRITE);
        let src = p.dev_a.reg_mr(&p.pd_a, 32, Access::NONE);
        src.write(0, &[9; 32]).unwrap();
        let write = SendWr::write(WrId(1), Sge::whole(src), target.rkey(), 0);
        let write = write.signaled().with_inline();
        p.qp_a
            .post_send_batch(&mut p.tb.sim, [send, write])
            .unwrap();
        target
    }

    fn send_statuses(p: &Pair) -> Vec<(u64, WcStatus)> {
        let wcs = p.scq_a.poll(8);
        wcs.iter().map(|wc| (wc.wr_id.0, wc.status)).collect()
    }

    /// An ACK is cumulative: when the first SEND's ACK is lost, the
    /// second's completes both, in posting order, and nothing is re-sent.
    /// So a sender that frees every buffer up to a successful completion,
    /// as a zero-copy RUBIN channel deregisters its buffers, leaves the
    /// queue pair working: the transport never re-reads a buffer its owner
    /// was told is done.
    #[test]
    fn a_lost_ack_is_covered_by_the_next_so_freed_buffers_are_never_resent() {
        let mut p = connected_pair();
        post_recvs(&mut p, &[64, 64]);
        let (a, b) = (p.tb.a, p.tb.b);
        p.tb.net.with_faults(|f| f.set_loss(b, a, 1.0));
        let bufs: Vec<MemoryRegion> = (0..2)
            .map(|id| {
                let sbuf = p.dev_a.reg_mr(&p.pd_a, 64, Access::NONE);
                let wr = SendWr::send(WrId(id), Sge::whole(sbuf.clone())).signaled();
                p.qp_a.post_send(&mut p.tb.sim, wr).unwrap();
                sbuf
            })
            .collect();
        // B completes the first receive and ACKs it into the loss.
        step_until(&mut p, |p| p.rcq_b.pending() == 1);
        p.tb.net.with_faults(|f| f.set_loss(b, a, 0.0));
        let mut done = Vec::new();
        while p.tb.sim.step() {
            for (id, status) in send_statuses(&p) {
                if status == WcStatus::Success {
                    for buf in &bufs[..=id as usize] {
                        buf.invalidate();
                    }
                }
                done.push((id, status));
            }
        }
        assert_eq!(p.tb.net.metrics().total("faults_dropped"), 1);
        assert_eq!(done, [(0, WcStatus::Success), (1, WcStatus::Success)]);
        assert_eq!(qp_counter(&p, &p.qp_a, "retransmits"), 0);
        assert_eq!(p.qp_a.state(), QpState::ReadyToSend);
        assert_eq!(p.rcq_b.poll(8).len(), 2);
    }

    /// A plain WRITE lands no earlier than the SEND ahead of it, whose
    /// receive completes `cqe_ns` after placement, so its ACK cannot
    /// overtake the SEND's: neither completes at the sender before the
    /// SEND's receive completes, and they complete in posting order.
    #[test]
    fn a_write_right_behind_a_send_completes_after_it() {
        let mut p = connected_pair();
        post_recvs(&mut p, &[64]);
        post_send_then_write(&mut p);
        step_until(&mut p, |p| p.scq_a.pending() > 0);
        assert_eq!(p.rcq_b.pending(), 1, "the SEND's receive completed first");
        p.tb.sim.run_until_idle();
        assert_eq!(
            send_statuses(&p),
            [(0, WcStatus::Success), (1, WcStatus::Success)]
        );
    }

    /// A plain WRITE that passes a SEND waiting in the RNR hold is placed
    /// but not ACKed over it; once a receive is posted the SEND lands and
    /// its ACK covers both, so they complete in posting order without a
    /// re-send.
    #[test]
    fn a_write_past_a_held_send_completes_after_it() {
        let mut p = connected_pair();
        let target = post_send_then_write(&mut p);
        p.tb.sim.run_for(Nanos::from_micros(50));
        assert_eq!(target.read(0, 32).unwrap(), [9; 32], "the WRITE is placed");
        assert_eq!(p.scq_a.pending(), 0, "and not ACKed over the held SEND");
        post_recvs(&mut p, &[64]);
        p.tb.sim.run_until_idle();
        assert_eq!(
            send_statuses(&p),
            [(0, WcStatus::Success), (1, WcStatus::Success)]
        );
        assert_eq!(qp_counter(&p, &p.qp_a, "retransmits"), 0);
    }

    /// When the held SEND's RNR window runs out it fails first, and the
    /// WRITE behind it flushes: no success is reported past a failure.
    #[test]
    fn a_write_past_a_send_the_rnr_window_fails_is_flushed() {
        let mut p = connected_pair();
        post_send_then_write(&mut p);
        p.tb.sim.run_until_idle();
        assert_eq!(
            send_statuses(&p),
            [
                (0, WcStatus::RnrRetryExceeded),
                (1, WcStatus::WorkRequestFlushed)
            ]
        );
        assert_eq!(p.qp_a.state(), QpState::Error);
    }
}
