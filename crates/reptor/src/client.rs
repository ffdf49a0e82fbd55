//! The BFT client: submits requests and waits for a quorum of matching
//! replies (`f + 1` by default; layers with stricter freshness needs can
//! raise it, see [`Client::set_reply_quorum`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

use bft_crypto::KeyTable;
use simnet::{Nanos, Simulator};

use crate::config::ReptorConfig;
use crate::envelope::{Envelope, SealBuffers};
use crate::messages::{ClientId, Message, ReplicaId, Request};
use crate::transport::Transport;

/// Client statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed (a reply quorum of matching replies).
    pub completed: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
    /// Messages dropped for failing MAC verification, or for speaking in
    /// the name of a node other than the one that authenticated them, or
    /// for a replica's message from a node that is not one.
    pub bad_mac_dropped: u64,
    /// Messages dropped as malformed: an envelope or a body that does not
    /// decode.
    pub malformed_dropped: u64,
}

/// One finished request, as recorded by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The request timestamp.
    pub timestamp: u64,
    /// The agreed result.
    pub result: Vec<u8>,
    /// Submission time.
    pub submitted_at: Nanos,
    /// Completion time.
    pub completed_at: Nanos,
}

impl Completion {
    /// End-to-end request latency.
    pub fn latency(&self) -> Nanos {
        self.completed_at - self.submitted_at
    }
}

/// Handler for verified non-Reply messages addressed to a client
/// (see [`Client::set_aux_handler`]).
pub type AuxHandler = Rc<dyn Fn(&mut Simulator, Message)>;

struct PendingReq {
    /// The sealed REQUEST, re-sent as is: its MACs are deterministic.
    wire: Vec<u8>,
    replies: HashMap<ReplicaId, Vec<u8>>,
    submitted_at: Nanos,
    retries: u32,
}

struct ClientInner {
    id: ClientId,
    cfg: ReptorConfig,
    keys: KeyTable,
    transport: Rc<dyn Transport>,
    next_ts: u64,
    pending: BTreeMap<u64, PendingReq>,
    completions: Vec<Completion>,
    resend_timeout: Nanos,
    max_retries: u32,
    /// Matching replies required to complete a request. `f + 1` (the PBFT
    /// minimum: one honest replica executed) unless raised.
    reply_quorum: usize,
    stats: ClientStats,
    aux_handler: Option<AuxHandler>,
    /// The replica ids `0..n`, every request's receivers.
    replicas: Box<[ReplicaId]>,
    /// Completed requests' buffers, to seal the next ones into.
    buffers: SealBuffers,
}

/// A closed-loop BFT client.
#[derive(Clone)]
pub struct Client {
    inner: Rc<RefCell<ClientInner>>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Client")
            .field("id", &inner.id)
            .field("pending", &inner.pending.len())
            .field("completed", &inner.stats.completed)
            .finish()
    }
}

impl Client {
    /// Creates a client with node id `id` (above the replica range).
    pub fn new(
        id: ClientId,
        cfg: ReptorConfig,
        domain_secret: &[u8],
        transport: Rc<dyn Transport>,
    ) -> Client {
        assert!(
            id >= cfg.n as u32,
            "client ids must lie above the replica id range"
        );
        let client = Client {
            inner: Rc::new(RefCell::new(ClientInner {
                id,
                keys: KeyTable::new(id, domain_secret.to_vec()),
                resend_timeout: cfg.view_change_timeout * 3 / 2,
                reply_quorum: cfg.f() + 1,
                replicas: (0..cfg.n as ReplicaId).collect(),
                buffers: SealBuffers::default(),
                cfg,
                transport: transport.clone(),
                next_ts: 1,
                pending: BTreeMap::new(),
                completions: Vec::new(),
                max_retries: 20,
                stats: ClientStats::default(),
                aux_handler: None,
            })),
        };
        // The transport is the client's; its delivery hook must not keep
        // the client alive.
        let c = Rc::downgrade(&client.inner);
        transport.set_delivery(Rc::new(move |sim, _from, bytes| {
            if let Some(inner) = c.upgrade() {
                Client { inner }.on_raw(sim, bytes);
            }
        }));
        client
    }

    /// This client's node id.
    pub fn id(&self) -> ClientId {
        self.inner.borrow().id
    }

    /// Statistics.
    pub fn stats(&self) -> ClientStats {
        self.inner.borrow().stats
    }

    /// Finished requests in completion order.
    pub fn completions(&self) -> Vec<Completion> {
        self.inner.borrow().completions.clone()
    }

    /// Requests still awaiting a quorum of replies.
    pub fn pending_count(&self) -> usize {
        self.inner.borrow().pending.len()
    }

    /// Raises the matching-reply quorum a request needs to complete.
    ///
    /// `f + 1` (the default) proves one honest replica executed the
    /// request — enough when every observation travels the agreement
    /// path. A quorum of `2f + 1` additionally proves `f + 1` *honest*
    /// replicas executed it before the client saw the result, which is
    /// what agreement-bypassing readers (the KV one-sided read path)
    /// need: any two `f + 1`-honest sets intersect, so state observed
    /// by a completed operation can never later vanish from a quorum.
    ///
    /// # Panics
    ///
    /// Panics unless `f + 1 <= quorum <= n`.
    pub fn set_reply_quorum(&self, quorum: usize) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            quorum > inner.cfg.f() && quorum <= inner.cfg.n,
            "reply quorum must lie in f+1 ..= n"
        );
        inner.reply_quorum = quorum;
    }

    /// Installs a handler for verified non-Reply messages addressed to
    /// this client (e.g. [`Message::LeaseGrant`]). Layers like the KV
    /// read-path client use it to ride the existing delivery plumbing.
    pub fn set_aux_handler(&self, handler: AuxHandler) {
        self.inner.borrow_mut().aux_handler = Some(handler);
    }

    /// Sends an arbitrary signed message to one replica (lease queries).
    pub fn send_to_replica(&self, sim: &mut Simulator, replica: ReplicaId, msg: &Message) {
        let (wire, transport) = {
            let inner = self.inner.borrow();
            (msg.seal(&inner.keys, &[replica]), inner.transport.clone())
        };
        transport.send(sim, replica, wire);
    }

    /// Submits an operation to the replicated service; returns its
    /// timestamp. The client broadcasts to all replicas (backups use it to
    /// arm their view-change timers) and retransmits until a reply quorum
    /// of matching replies arrives.
    pub fn submit(&self, sim: &mut Simulator, payload: Vec<u8>) -> u64 {
        let ts = {
            let mut inner = self.inner.borrow_mut();
            let ts = inner.next_ts;
            inner.next_ts += 1;
            let request = Message::Request(Request {
                client: inner.id,
                timestamp: ts,
                payload,
            });
            let mut wire = inner.buffers.take();
            request.seal_into(&inner.keys, inner.cfg.n, |r| r as ReplicaId, &mut wire);
            inner.pending.insert(
                ts,
                PendingReq {
                    wire,
                    replies: HashMap::new(),
                    submitted_at: sim.now(),
                    retries: 0,
                },
            );
            inner.stats.submitted += 1;
            ts
        };
        self.send_request(sim, ts);
        self.arm_resend(sim, ts);
        ts
    }

    /// Sends pending request `ts`'s sealed bytes to every replica.
    fn send_request(&self, sim: &mut Simulator, ts: u64) {
        let inner = self.inner.borrow();
        let wire = &inner.pending[&ts].wire;
        inner.transport.broadcast(sim, &inner.replicas, wire);
    }

    fn arm_resend(&self, sim: &mut Simulator, ts: u64) {
        let timeout = self.inner.borrow().resend_timeout;
        let client = self.clone();
        sim.schedule_in(timeout, move |sim| {
            let resend = {
                let mut inner = client.inner.borrow_mut();
                let max = inner.max_retries;
                match inner.pending.get_mut(&ts) {
                    Some(p) if p.retries < max => {
                        p.retries += 1;
                        inner.stats.retransmissions += 1;
                        true
                    }
                    _ => false,
                }
            };
            if resend {
                client.send_request(sim, ts);
                client.arm_resend(sim, ts);
            }
        });
    }

    fn on_raw(&self, sim: &mut Simulator, bytes: Vec<u8>) {
        let msg = {
            let mut inner = self.inner.borrow_mut();
            let opened = Envelope::parse(&bytes).and_then(|envelope| {
                let msg = envelope.open(&inner.keys)?;
                // A reply counts for the replica whose keys made it, not
                // for the one its body names, and never for a client.
                Ok(msg.filter(|m| m.spoken_by(envelope.sender(), &inner.cfg)))
            });
            match opened {
                Ok(Some(m)) => m,
                Ok(None) => {
                    inner.stats.bad_mac_dropped += 1;
                    return;
                }
                Err(_) => {
                    inner.stats.malformed_dropped += 1;
                    return;
                }
            }
        };
        let Message::Reply {
            timestamp,
            replica,
            result,
            ..
        } = msg
        else {
            // Verified non-Reply traffic (lease grants, ...) goes to the
            // auxiliary handler if one is installed.
            let handler = self.inner.borrow().aux_handler.clone();
            if let Some(h) = handler {
                h(sim, msg);
            }
            return;
        };
        let mut inner = self.inner.borrow_mut();
        let quorum = inner.reply_quorum;
        let Some(p) = inner.pending.get_mut(&timestamp) else {
            return; // already completed or unknown
        };
        p.replies.insert(replica, result);
        let result = &p.replies[&replica];
        if p.replies.values().filter(|r| *r == result).count() < quorum {
            return;
        }
        let mut p = inner.pending.remove(&timestamp).expect("present");
        inner.completions.push(Completion {
            timestamp,
            result: p.replies.remove(&replica).expect("just tallied"),
            submitted_at: p.submitted_at,
            completed_at: sim.now(),
        });
        inner.buffers.put(p.wire);
        inner.stats.completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, DOMAIN_SECRET};
    use crate::envelope::SignedMessage;
    use crate::state::CounterService;

    /// The client counts what does not decode, as a replica does: a cut
    /// envelope, and a body behind a valid MAC that is no message.
    #[test]
    fn undecodable_frames_are_counted_as_malformed() {
        let mut c = Cluster::sim_transport(ReptorConfig::small(), 1, 1, || {
            Box::new(CounterService::default())
        });
        let client = c.clients[0].clone();
        let replica = KeyTable::new(0, DOMAIN_SECRET);
        let reply = Message::Reply {
            view: 0,
            client: client.id(),
            timestamp: 1,
            replica: 0,
            result: b"ok".to_vec(),
        };
        let mut truncated = reply.seal(&replica, &[client.id()]);
        truncated.pop();
        client.on_raw(&mut c.sim, truncated);

        let body = vec![0xFF, 1, 2, 3];
        let garbage = SignedMessage {
            auth: replica.authenticate(&body, &[client.id()]),
            body,
        };
        client.on_raw(&mut c.sim, garbage.encode());

        let stats = client.stats();
        assert_eq!((stats.malformed_dropped, stats.bad_mac_dropped), (2, 0));
    }
}
