//! The RDMA server channel: RUBIN's analogue of `ServerSocketChannel`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use rdma_verbs::{CmListener, ConnRequest, RdmaDevice};
use simnet::{Addr, CoreId, Simulator};

use crate::channel::{ChannelError, RdmaChannel};
use crate::config::RubinConfig;
use crate::event::Interest;
use crate::selector::Registration;

struct ServerInner {
    device: RdmaDevice,
    #[allow(dead_code)]
    listener: CmListener,
    port: u32,
    cfg: RubinConfig,
    core: CoreId,
    pending: VecDeque<ConnRequest>,
    reg: Option<Registration>,
    accepted: u64,
}

/// A listening RDMA channel that accepts inbound connections.
///
/// Incoming connection requests raise `OP_CONNECT` readiness (paper
/// §III-B naming); [`RdmaServerChannel::accept`] turns each request into a
/// fully configured [`RdmaChannel`].
#[derive(Clone)]
pub struct RdmaServerChannel {
    inner: Rc<RefCell<ServerInner>>,
}

impl fmt::Debug for RdmaServerChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("RdmaServerChannel")
            .field("port", &inner.port)
            .field("pending", &inner.pending.len())
            .field("accepted", &inner.accepted)
            .finish()
    }
}

impl RdmaServerChannel {
    /// Binds a server channel on `port`. Accepted channels use `cfg` and
    /// are charged to `core`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Verbs`] if the port is in use.
    pub fn bind(
        device: &RdmaDevice,
        port: u32,
        cfg: RubinConfig,
        core: CoreId,
    ) -> Result<RdmaServerChannel, ChannelError> {
        cfg.validate();
        let listener = device.listen(port)?;
        Ok(RdmaServerChannel {
            inner: Rc::new(RefCell::new(ServerInner {
                device: device.clone(),
                listener,
                port,
                cfg,
                core,
                pending: VecDeque::new(),
                reg: None,
                accepted: 0,
            })),
        })
    }

    /// The port this server listens on.
    pub fn port(&self) -> u32 {
        self.inner.borrow().port
    }

    /// The core accepted channels are charged to unless
    /// [`RdmaServerChannel::accept_on`] names another.
    pub(crate) fn core(&self) -> CoreId {
        self.inner.borrow().core
    }

    /// The listening address.
    pub fn local_addr(&self) -> Addr {
        Addr::new(self.inner.borrow().device.host(), self.port())
    }

    /// Connections accepted so far.
    pub fn accepted_count(&self) -> u64 {
        self.inner.borrow().accepted
    }

    /// Number of queued, not-yet-accepted connection requests.
    pub fn pending_count(&self) -> usize {
        self.inner.borrow().pending.len()
    }

    pub(crate) fn set_registration(&self, reg: Registration) {
        self.inner.borrow_mut().reg = Some(reg);
    }

    /// Queues an inbound connection request (selector dispatch; exposed for
    /// driving servers without a selector).
    pub fn push_request(&self, sim: &mut Simulator, req: ConnRequest) {
        let reg = {
            let mut inner = self.inner.borrow_mut();
            inner.pending.push_back(req);
            inner.reg.clone()
        };
        if let Some(reg) = reg {
            reg.set_ready(sim, Interest::OP_CONNECT, true);
        }
    }

    /// Accepts one pending connection, returning the connected channel,
    /// charged to the server's core. `None` if nothing is pending.
    ///
    /// # Errors
    ///
    /// Propagates channel-construction failures.
    pub fn accept(&self, sim: &mut Simulator) -> Result<Option<RdmaChannel>, ChannelError> {
        let core = self.inner.borrow().core;
        self.accept_on(sim, core)
    }

    /// [`RdmaServerChannel::accept`], with the channel charged to `core`
    /// (the core of the select thread that will serve it).
    ///
    /// # Errors
    ///
    /// Propagates channel-construction failures.
    pub fn accept_on(
        &self,
        sim: &mut Simulator,
        core: CoreId,
    ) -> Result<Option<RdmaChannel>, ChannelError> {
        let (req, device, cfg) = {
            let mut inner = self.inner.borrow_mut();
            let Some(req) = inner.pending.pop_front() else {
                return Ok(None);
            };
            (req, inner.device.clone(), inner.cfg.clone())
        };
        let channel = RdmaChannel::from_accepted(sim, &device, req, cfg, core)?;
        let reg = {
            let mut inner = self.inner.borrow_mut();
            inner.accepted += 1;
            inner.reg.clone()
        };
        if let Some(reg) = reg {
            let still = self.pending_count() > 0;
            reg.set_ready(sim, Interest::OP_CONNECT, still);
        }
        Ok(Some(channel))
    }
}
