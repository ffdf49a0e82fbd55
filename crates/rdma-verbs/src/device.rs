//! The device context: entry point to all verbs objects on one host.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::{Rc, Weak};

use simnet::{Addr, CoreId, HostId, Nanos, Network, Simulator};

use crate::cm::{CmEvent, CmListener};
use crate::config::RnicModel;
use crate::cq::{CompChannel, CompletionQueue};
use crate::error::VerbsResult;
use crate::mr::{MemoryRegion, MrTable, ProtectionDomain};
use crate::packet::RdmaPacket;
use crate::qp::QueuePair;
use crate::types::{Access, CqId, PdId, QpNum, RKey};

/// A callback invoked when device or queue-pair events arrive (used by
/// selectors to wake their event loops). The device and its queue pairs
/// keep a hook for as long as they live, so a hook refers to whatever owns
/// them through a `Weak`.
pub type EventHook = Rc<dyn Fn(&mut Simulator)>;

/// Configuration for creating a queue pair.
#[derive(Debug, Clone)]
pub struct QpConfig {
    /// Protection domain the QP (and all buffers it uses) belongs to.
    pub pd: ProtectionDomain,
    /// Completion queue for send-side completions.
    pub send_cq: CompletionQueue,
    /// Completion queue for receive-side completions.
    pub recv_cq: CompletionQueue,
    /// Core that posting/polling CPU work is charged to.
    pub core: CoreId,
}

pub(crate) struct DeviceInner {
    net: Network,
    host: HostId,
    model: RnicModel,
    mr_table: Rc<RefCell<MrTable>>,
    next_pd: Cell<u32>,
    next_cq: Cell<u32>,
    next_qp: Cell<u32>,
    next_conn: Cell<u64>,
    cm_events: RefCell<VecDeque<CmEvent>>,
    cm_hook: RefCell<Option<EventHook>>,
}

/// An open RDMA device context on a host (the analogue of
/// `ibv_open_device` + an `rdma_event_channel`).
///
/// All verbs objects — protection domains, memory regions, completion
/// queues, queue pairs, listeners — are created through the device. Handles
/// are cheaply cloneable.
#[derive(Clone)]
pub struct RdmaDevice {
    inner: Rc<DeviceInner>,
}

impl fmt::Debug for RdmaDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RdmaDevice")
            .field("host", &self.inner.host)
            .field("qps_created", &self.inner.next_qp.get())
            .field("cm_pending", &self.inner.cm_events.borrow().len())
            .finish()
    }
}

impl RdmaDevice {
    /// Opens a device context on `host`.
    pub fn open(net: &Network, host: HostId, model: RnicModel) -> RdmaDevice {
        RdmaDevice {
            inner: Rc::new(DeviceInner {
                net: net.clone(),
                host,
                model,
                mr_table: MrTable::new(),
                next_pd: Cell::new(0),
                next_cq: Cell::new(0),
                next_qp: Cell::new(0),
                next_conn: Cell::new(0),
                cm_events: RefCell::new(VecDeque::new()),
                cm_hook: RefCell::new(None),
            }),
        }
    }

    /// The host this device is attached to.
    pub fn host(&self) -> HostId {
        self.inner.host
    }

    /// The underlying network.
    pub fn net(&self) -> &Network {
        &self.inner.net
    }

    /// The NIC cost/capability model.
    pub fn model(&self) -> &RnicModel {
        &self.inner.model
    }

    /// Allocates a protection domain.
    pub fn alloc_pd(&self) -> ProtectionDomain {
        let id = self.inner.next_pd.get();
        self.inner.next_pd.set(id + 1);
        ProtectionDomain::new(PdId(id))
    }

    /// Registers a memory region of `len` zeroed bytes with the given
    /// access flags. The device holds the region until it is deregistered
    /// ([`MemoryRegion::invalidate`]).
    ///
    /// Registration is a slow operation on real hardware; the cost is
    /// available via [`RnicModel::reg_mr_cost`] for callers that register
    /// on the critical path (the RUBIN buffer pool pre-registers at setup
    /// precisely to avoid this).
    pub fn reg_mr(&self, pd: &ProtectionDomain, len: usize, access: Access) -> MemoryRegion {
        MrTable::register(&self.inner.mr_table, pd.id(), len, access)
    }

    /// Creates a completion queue of the given capacity, optionally
    /// attached to a completion channel.
    pub fn create_cq(&self, capacity: usize, channel: Option<&CompChannel>) -> CompletionQueue {
        let id = self.inner.next_cq.get();
        self.inner.next_cq.set(id + 1);
        CompletionQueue::new(CqId(id), capacity, channel.cloned())
    }

    /// Creates a queue pair in the `Reset` state and binds its data port.
    pub fn create_qp(&self, cfg: &QpConfig) -> QueuePair {
        let num = QpNum(self.inner.next_qp.get());
        self.inner.next_qp.set(num.0 + 1);
        let addr = self.inner.net.ephemeral_port(self.inner.host);
        let qp = QueuePair::new(
            self.clone(),
            num,
            cfg.pd.id(),
            cfg.core,
            cfg.send_cq.clone(),
            cfg.recv_cq.clone(),
            addr,
        );
        // The network outlives the queue pair and must not keep it (and
        // through it this device and the network itself) alive.
        let qp_for_handler = qp.downgrade();
        self.inner.net.bind(
            addr,
            Box::new(move |sim, frame| {
                let Some(qp) = qp_for_handler.upgrade() else {
                    return;
                };
                let corrupted = frame.corrupted;
                match frame.into_payload::<RdmaPacket>() {
                    Ok(mut pkt) => {
                        if corrupted {
                            corrupt_packet(&mut pkt);
                        }
                        qp.handle_packet(sim, pkt)
                    }
                    Err(_) => debug_assert!(false, "non-RDMA frame on QP port"),
                }
            }),
        );
        qp
    }

    /// Validates a remote key for a one-sided operation against this
    /// device's registered regions.
    ///
    /// # Errors
    ///
    /// As for [`MrTable::validate`]: bad key, revoked region, denied access
    /// or out-of-bounds range.
    pub(crate) fn validate_remote(
        &self,
        rkey: RKey,
        offset: usize,
        len: usize,
        required: Access,
    ) -> VerbsResult<MemoryRegion> {
        self.inner
            .mr_table
            .borrow()
            .validate(rkey, offset, len, required)
    }

    /// Charges `work` to `core` of this device's host; returns completion.
    pub(crate) fn host_exec(&self, sim: &Simulator, core: CoreId, work: Nanos) -> Nanos {
        self.inner
            .net
            .host(self.inner.host)
            .borrow_mut()
            .exec(sim.now(), core, work)
    }

    /// Charges the CPU cost of one `poll_cq` call that drained `ncqe`
    /// completions; returns the completion instant. Application drivers
    /// call this to account for polling overhead.
    pub fn charge_poll(&self, sim: &Simulator, core: CoreId, ncqe: usize) -> Nanos {
        let m = &self.inner.model;
        let work = Nanos::from_nanos(m.poll_cq_ns + m.handle_cqe_ns * ncqe as u64);
        self.host_exec(sim, core, work)
    }

    /// Starts listening for connection requests on `port`.
    ///
    /// Connection events are delivered to this device's
    /// [CM event queue](Self::poll_cm_event).
    ///
    /// # Errors
    ///
    /// [`VerbsError::AddrInUse`](crate::VerbsError::AddrInUse) if the
    /// port is already bound.
    pub fn listen(&self, port: u32) -> VerbsResult<CmListener> {
        crate::cm::listen(self, port)
    }

    /// Initiates an outgoing connection to a listener at `remote`.
    ///
    /// Returns the local QP (still connecting) and the connection id; a
    /// [`CmEvent::Established`] or [`CmEvent::ConnectFailed`] event carrying
    /// the same id follows on the CM event queue.
    ///
    /// # Errors
    ///
    /// Currently infallible at call time; failures surface as CM events.
    pub fn connect(
        &self,
        sim: &mut Simulator,
        remote: Addr,
        cfg: &QpConfig,
        private: Vec<u8>,
    ) -> VerbsResult<(QueuePair, u64)> {
        crate::cm::connect(self, sim, remote, cfg, private)
    }

    /// Removes and returns the next connection-management event.
    pub fn poll_cm_event(&self) -> Option<CmEvent> {
        self.inner.cm_events.borrow_mut().pop_front()
    }

    pub(crate) fn push_cm_event(&self, sim: &mut Simulator, ev: CmEvent) {
        self.inner.cm_events.borrow_mut().push_back(ev);
        let hook = self.inner.cm_hook.borrow().clone();
        if let Some(h) = hook {
            h(sim);
        }
    }

    /// Installs a hook invoked whenever a CM event is queued (RUBIN's
    /// event manager uses this to surface connection events in its hybrid
    /// event queue). Replaces any previous hook.
    pub fn set_cm_hook(&self, hook: EventHook) {
        *self.inner.cm_hook.borrow_mut() = Some(hook);
    }

    pub(crate) fn next_conn_id(&self) -> u64 {
        let id = self.inner.next_conn.get();
        self.inner.next_conn.set(id + 1);
        id
    }

    pub(crate) fn downgrade(&self) -> WeakDevice {
        WeakDevice(Rc::downgrade(&self.inner))
    }
}

/// What a frame handler bound in the network holds of its device.
pub(crate) struct WeakDevice(Weak<DeviceInner>);

impl WeakDevice {
    pub(crate) fn upgrade(&self) -> Option<RdmaDevice> {
        self.0.upgrade().map(|inner| RdmaDevice { inner })
    }
}

/// Materializes a fault-injected corruption verdict on a delivered packet:
/// the last payload byte of a data-bearing packet is flipped, so integrity
/// checks layered above (the BFT MACs) see a genuinely damaged message.
/// Control packets pass through untouched — corrupting an ACK on real
/// hardware fails its CRC and is equivalent to a loss, which the fault
/// plane models separately.
fn corrupt_packet(pkt: &mut RdmaPacket) {
    let data = match pkt {
        RdmaPacket::Send { data, .. }
        | RdmaPacket::WriteReq { data, .. }
        | RdmaPacket::ReadResp { data, .. } => data,
        _ => return,
    };
    if let Some(byte) = data.last_mut() {
        *byte ^= 0xff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::TestBed;

    #[test]
    fn device_allocates_unique_ids() {
        let tb = TestBed::paper_testbed(0);
        let dev = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let pd1 = dev.alloc_pd();
        let pd2 = dev.alloc_pd();
        assert_ne!(pd1.id(), pd2.id());
        let mr1 = dev.reg_mr(&pd1, 64, Access::LOCAL_WRITE);
        let mr2 = dev.reg_mr(&pd1, 64, Access::LOCAL_WRITE);
        assert_ne!(mr1.rkey(), mr2.rkey());
        let cq1 = dev.create_cq(8, None);
        let cq2 = dev.create_cq(8, None);
        assert_ne!(cq1.id(), cq2.id());
    }

    #[test]
    fn qp_ports_are_distinct() {
        let tb = TestBed::paper_testbed(0);
        let dev = RdmaDevice::open(&tb.net, tb.a, RnicModel::mt27520());
        let pd = dev.alloc_pd();
        let cq = dev.create_cq(16, None);
        let cfg = QpConfig {
            pd,
            send_cq: cq.clone(),
            recv_cq: cq,
            core: CoreId(0),
        };
        let q1 = dev.create_qp(&cfg);
        let q2 = dev.create_qp(&cfg);
        assert_ne!(q1.num(), q2.num());
        assert_ne!(q1.local_addr(), q2.local_addr());
    }
}
