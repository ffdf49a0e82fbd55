//! The KV client: agreement-free one-sided reads with message-path
//! fallback.
//!
//! Writes (`Put`/`Del`) always go through agreement via the wrapped
//! [`reptor::Client`]. Reads first try the one-sided path: the client
//! one-sided-READs the key's cell from `2f + 1` replicas' leased regions
//! in parallel and accepts the answer only if **every** cell is valid
//! (committed stamps, no torn/poisoned cell, no RNIC denial) **and all
//! `2f + 1` cells agree** on the same stamp and verdict. Any blemish —
//! denial of a revoked rkey, a torn stamp caught mid-update, a poisoned
//! bucket, or cells that disagree (`kv_read_divergent`) — routes the
//! read through the ordinary agreement path (`kv_read_fallback`), so the
//! fast path can only ever *lose performance*, never correctness.
//!
//! ## Why the quorum read is linearizable
//!
//! The invariant both paths maintain: **the state observed by any
//! completed operation is applied at `f + 1` honest replicas by the time
//! the operation responds**, and any two `f + 1`-sized sets of honest
//! replicas intersect (at most `f` of the `3f + 1` replicas are faulty,
//! so there are at least `2f + 1` honest ones and
//! `(f+1) + (f+1) > 2f+1`).
//!
//! * *Message path.* KV clients complete message-path operations only on
//!   `2f + 1` matching replies ([`reptor::Client::set_reply_quorum`]),
//!   of which at least `f + 1` come from honest replicas that executed
//!   the operation — and with it every operation ordered before it.
//! * *One-sided path.* A read is accepted only when all `2f + 1` cells
//!   agree, so at least `f + 1` honest replicas have applied exactly the
//!   returned (stamp, value) state. A fabricated cell — a Byzantine
//!   replica publishing an arbitrary high even stamp or a bogus value
//!   into its own validly-leased region — can never gather `f + 1`
//!   honest look-alikes, so it only breaks unanimity and forces the
//!   (safe) fallback. See [`reptor::ByzantineMode::ForgedLeaseCells`].
//!
//! Linearizability follows from intersection plus per-replica stamp
//! monotonicity: any operation invoked after some operation observing
//! stamp `s` completed meets, in every quorum it can use, at least one
//! honest replica whose applied state is at stamp `>= s` — a later
//! one-sided read therefore cannot reach unanimity on an older stamp
//! (no new-then-old inversion, even across clients whose quorums
//! diverge), and a later message-path operation executes at a log
//! position at or beyond `s`'s write. The previous revision accepted the
//! *max-stamp* cell out of any all-valid quorum; that trusts a single
//! replica's cell content and admits both fabrication and an apply-lag
//! inversion between divergent quorums, which is why unanimity (and the
//! `2f + 1` reply quorum) is load-bearing here.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use reptor::{Client, KvOp, Message, ReptorConfig, Transport};
use simnet::{Counters, Metrics, Simulator};

use crate::lin::{KvEvent, KvHistOp};
use crate::region::{
    bucket_of, cell_offset, decode_cell, judge, KeyVerdict, CELL_SIZE, HEADER_SIZE,
};

/// Shared aggregator for one quorum read: per-replica outcomes
/// (`None` = denied / failed to issue) collected by the READ callbacks.
type ReadResults = Rc<RefCell<Vec<(u32, Option<Vec<u8>>)>>>;

#[derive(Debug, Clone, Copy)]
struct Lease {
    rkey: u32,
    capacity: usize,
}

simnet::metric_names! {
    /// Counters of one KV client, under `kv.c<id>.`.
    enum KvCounter {
        LeaseQueries => "kv_lease_queries",
        ReadDenied => "kv_read_denied",
        ReadTorn => "kv_read_torn",
        ReadDivergent => "kv_read_divergent",
        ReadOnesided => "kv_read_onesided",
        ReadFallback => "kv_read_fallback",
    }
}

struct KvClientInner {
    id: u32,
    n: usize,
    f: usize,
    client: Client,
    transport: Rc<dyn Transport>,
    counters: Counters<KvCounter>,
    /// Known read leases, by replica. `BTreeMap` so quorum choice
    /// iterates deterministically.
    leases: BTreeMap<u32, Lease>,
    /// Demerit counts, by replica: one per RNIC denial and one per
    /// out-voted cell in a divergent quorum. Quorum choice prefers the
    /// least-demerited replicas, so a stale-lease liar rotates out after
    /// its first denial and a cell forger (or persistent laggard) after
    /// its first out-voted read.
    demerits: BTreeMap<u32, u64>,
    /// Message-path operations in flight, by request timestamp, with
    /// their original invocation instants.
    pending: HashMap<u64, (KvHistOp, u64)>,
    /// Completed one-sided reads.
    onesided: Vec<KvEvent>,
    /// One-sided reads whose quorum responses are still in flight.
    inflight_reads: u64,
    /// Whether a lease query round has been sent at all.
    queried: bool,
}

/// A KV client over one replicated cluster.
///
/// It owns the agreement-path client and, through it, the transport; the
/// callbacks it leaves with them (lease grants, one-sided read
/// completions) refer back to it weakly.
#[derive(Clone)]
pub struct KvClient {
    inner: Rc<RefCell<KvClientInner>>,
}

impl std::fmt::Debug for KvClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("KvClient")
            .field("id", &inner.id)
            .field("leases", &inner.leases.len())
            .field("inflight_reads", &inner.inflight_reads)
            .finish()
    }
}

fn capacity_from_len(len: u64) -> Option<usize> {
    let body = (len as usize).checked_sub(HEADER_SIZE)?;
    if body == 0 || body % CELL_SIZE != 0 {
        return None;
    }
    Some(body / CELL_SIZE)
}

impl KvClient {
    /// Wraps a [`reptor::Client`] (already wired to `transport`) with the
    /// one-sided read path. Installs the client's auxiliary handler to
    /// capture lease grants.
    pub fn new(
        client: Client,
        cfg: &ReptorConfig,
        transport: Rc<dyn Transport>,
        metrics: Metrics,
    ) -> KvClient {
        let id = client.id();
        // One-sided reads bypass agreement, so message-path completions
        // must prove more than the PBFT minimum: 2f + 1 matching replies
        // mean f + 1 *honest* replicas applied the operation before it
        // responded, and every subsequent unanimous read quorum
        // intersects them (see the module docs).
        client.set_reply_quorum(2 * cfg.f() + 1);
        let inner = Rc::new(RefCell::new(KvClientInner {
            id,
            n: cfg.n,
            f: cfg.f(),
            client: client.clone(),
            transport,
            counters: metrics.counters(&format!("kv.c{id}.")),
            leases: BTreeMap::new(),
            demerits: BTreeMap::new(),
            pending: HashMap::new(),
            onesided: Vec::new(),
            inflight_reads: 0,
            queried: false,
        }));
        let handler_inner = Rc::downgrade(&inner);
        client.set_aux_handler(Rc::new(move |_sim, msg| {
            if let (
                Some(inner),
                Message::LeaseGrant {
                    replica, rkey, len, ..
                },
            ) = (handler_inner.upgrade(), msg)
            {
                let mut i = inner.borrow_mut();
                match (rkey, capacity_from_len(len)) {
                    (0, _) | (_, None) => {
                        i.leases.remove(&replica);
                    }
                    (rkey, Some(capacity)) => {
                        i.leases.insert(replica, Lease { rkey, capacity });
                    }
                }
            }
        }));
        KvClient { inner }
    }

    /// The wrapped agreement-path client.
    pub fn client(&self) -> Client {
        self.inner.borrow().client.clone()
    }

    /// This client's node id.
    pub fn id(&self) -> u32 {
        self.inner.borrow().id
    }

    /// True while any operation (message-path or one-sided) is in flight.
    pub fn busy(&self) -> bool {
        let inner = self.inner.borrow();
        inner.client.pending_count() > 0 || inner.inflight_reads > 0
    }

    /// Completed operations so far (both paths).
    pub fn completed_ops(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.onesided.len() as u64 + inner.client.stats().completed
    }

    fn count(&self, counter: KvCounter) {
        self.inner.borrow().counters[counter].incr();
    }

    /// Sends a lease query to every replica (cheap; answers arrive as
    /// LEASE-GRANTs through the auxiliary handler).
    pub fn query_leases(&self, sim: &mut Simulator) {
        let (id, n) = {
            let mut inner = self.inner.borrow_mut();
            inner.queried = true;
            (inner.id, inner.n)
        };
        self.count(KvCounter::LeaseQueries);
        let client = self.client();
        for r in 0..n as u32 {
            client.send_to_replica(sim, r, &Message::LeaseQuery { client: id });
        }
    }

    /// Submits a write (`Put`).
    pub fn put(&self, sim: &mut Simulator, key: Vec<u8>, val: Vec<u8>) {
        let invoke = sim.now().as_nanos();
        let payload = KvOp::Put(key.clone(), val.clone()).encode();
        let ts = self.client().submit(sim, payload);
        self.inner
            .borrow_mut()
            .pending
            .insert(ts, (KvHistOp::Put { key, val }, invoke));
    }

    /// Submits a delete (`Del`).
    pub fn del(&self, sim: &mut Simulator, key: Vec<u8>) {
        let invoke = sim.now().as_nanos();
        let payload = KvOp::Del(key.clone()).encode();
        let ts = self.client().submit(sim, payload);
        self.inner
            .borrow_mut()
            .pending
            .insert(ts, (KvHistOp::Del { key }, invoke));
    }

    /// Issues a read: one-sided if a `2f + 1` lease quorum is available,
    /// message-path otherwise.
    pub fn get(&self, sim: &mut Simulator, key: Vec<u8>) {
        let invoke = sim.now().as_nanos();
        let quorum: Vec<(u32, Lease)> = {
            let inner = self.inner.borrow();
            let need = 2 * inner.f + 1;
            if inner.leases.len() < need {
                Vec::new()
            } else {
                // Least-demerited replicas first; ties by id. One demerit
                // is enough to rotate a stale-lease liar or cell forger
                // out of the quorum.
                let mut order: Vec<(u64, u32, Lease)> = inner
                    .leases
                    .iter()
                    .map(|(&r, &l)| (inner.demerits.get(&r).copied().unwrap_or(0), r, l))
                    .collect();
                order.sort_by_key(|&(d, r, _)| (d, r));
                order.truncate(need);
                order.into_iter().map(|(_, r, l)| (r, l)).collect()
            }
        };
        if quorum.is_empty() {
            let queried = self.inner.borrow().queried;
            if !queried {
                self.query_leases(sim);
            }
            self.fallback_get(sim, key, invoke);
            return;
        }
        self.inner.borrow_mut().inflight_reads += 1;
        let want = quorum.len();
        let results: ReadResults = Rc::new(RefCell::new(Vec::with_capacity(want)));
        let transport = self.inner.borrow().transport.clone();
        for (replica, lease) in quorum {
            let off = cell_offset(bucket_of(&key, lease.capacity)) as u64;
            let kv = Rc::downgrade(&self.inner);
            let res = results.clone();
            let key2 = key.clone();
            let issued = transport.read_state(
                sim,
                replica,
                lease.rkey,
                off,
                CELL_SIZE,
                Box::new(move |sim, bytes| {
                    res.borrow_mut().push((replica, bytes));
                    if res.borrow().len() == want {
                        let all = std::mem::take(&mut *res.borrow_mut());
                        if let Some(inner) = kv.upgrade() {
                            KvClient { inner }.finish_read(sim, key2, invoke, all);
                        }
                    }
                }),
            );
            if !issued {
                // No one-sided path to this replica right now (channel
                // re-dialing after a NAK, or transport without READs).
                results.borrow_mut().push((replica, None));
                if results.borrow().len() == want {
                    let all = std::mem::take(&mut *results.borrow_mut());
                    self.finish_read(sim, key.clone(), invoke, all);
                }
            }
        }
    }

    /// Aggregates one quorum read. All `2f + 1` cells must be valid *and
    /// unanimous* on the same stamp and verdict; otherwise the read falls
    /// back to agreement. Unanimity is what makes the result Byzantine-
    /// proof: at most `f` cells can lie, so an accepted (stamp, value) is
    /// vouched for by at least `f + 1` honest replicas (module docs).
    fn finish_read(
        &self,
        sim: &mut Simulator,
        key: Vec<u8>,
        invoke: u64,
        results: Vec<(u32, Option<Vec<u8>>)>,
    ) {
        self.inner.borrow_mut().inflight_reads -= 1;
        let denied: Vec<u32> = results
            .iter()
            .filter(|(_, b)| b.is_none())
            .map(|(r, _)| *r)
            .collect();
        if !denied.is_empty() {
            {
                let mut inner = self.inner.borrow_mut();
                for r in &denied {
                    *inner.demerits.entry(*r).or_insert(0) += 1;
                    inner.leases.remove(r);
                }
            }
            self.count(KvCounter::ReadDenied);
            // Re-learn the lease landscape (the denier may have rolled to
            // a fresh rkey legitimately) and serve this read safely.
            self.query_leases(sim);
            self.fallback_get(sim, key, invoke);
            return;
        }
        let verdicts: Vec<(u32, KeyVerdict)> = results
            .iter()
            .map(|(r, bytes)| {
                let cell = decode_cell(bytes.as_ref().expect("denials handled above"));
                (*r, judge(&cell, &key))
            })
            .collect();
        if verdicts.iter().any(|(_, v)| *v == KeyVerdict::Fallback) {
            // Torn or poisoned cell: the only safe answer is the
            // agreement path.
            self.count(KvCounter::ReadTorn);
            self.fallback_get(sim, key, invoke);
            return;
        }
        let unanimous = verdicts.iter().all(|(_, v)| *v == verdicts[0].1);
        if !unanimous {
            // Divergent cells: a lagging apply, or a forged cell from a
            // Byzantine replica — indistinguishable from here, and both
            // unsafe to serve. Demerit the out-voted minority (a forger
            // or persistent laggard rotates out of future quorums; an
            // honest replica that was merely mid-apply shrugs off the
            // preference penalty) and serve the read through agreement.
            let plurality = verdicts
                .iter()
                .map(|(_, v)| v)
                .max_by_key(|v| {
                    let votes = verdicts.iter().filter(|(_, w)| w == *v).count();
                    let stamp = match v {
                        KeyVerdict::Absent(s) | KeyVerdict::Value(s, _) => *s,
                        KeyVerdict::Fallback => unreachable!("handled above"),
                    };
                    (votes, stamp)
                })
                .expect("quorum is non-empty")
                .clone();
            {
                let mut inner = self.inner.borrow_mut();
                for (r, v) in &verdicts {
                    if *v != plurality {
                        *inner.demerits.entry(*r).or_insert(0) += 1;
                    }
                }
            }
            self.count(KvCounter::ReadDivergent);
            self.fallback_get(sim, key, invoke);
            return;
        }
        let result = match &verdicts[0].1 {
            KeyVerdict::Absent(_) => Vec::new(),
            KeyVerdict::Value(_, val) => val.clone(),
            KeyVerdict::Fallback => unreachable!("handled above"),
        };
        let response = sim.now().as_nanos();
        let mut inner = self.inner.borrow_mut();
        let client = inner.id;
        inner.onesided.push(KvEvent {
            client,
            invoke,
            response: Some(response),
            op: KvHistOp::Get { key, result },
        });
        drop(inner);
        self.count(KvCounter::ReadOnesided);
    }

    /// Serves a read through agreement, preserving the original
    /// invocation instant (the op began when `get` was called, and the
    /// checker must see the full interval).
    fn fallback_get(&self, sim: &mut Simulator, key: Vec<u8>, invoke: u64) {
        self.count(KvCounter::ReadFallback);
        let payload = KvOp::Get(key.clone()).encode();
        let ts = self.client().submit(sim, payload);
        self.inner.borrow_mut().pending.insert(
            ts,
            (
                KvHistOp::Get {
                    key,
                    result: Vec::new(),
                },
                invoke,
            ),
        );
    }

    /// Assembles this client's full operation history: one-sided reads
    /// plus message-path completions, with real invoke/response instants.
    /// Operations still in flight appear with `response: None`.
    pub fn history(&self) -> Vec<KvEvent> {
        let inner = self.inner.borrow();
        let mut events = inner.onesided.clone();
        let completions: HashMap<u64, (u64, Vec<u8>)> = inner
            .client
            .completions()
            .into_iter()
            .map(|c| (c.timestamp, (c.completed_at.as_nanos(), c.result)))
            .collect();
        for (ts, (op, invoke)) in &inner.pending {
            let mut op = op.clone();
            let response = completions.get(ts).map(|(at, result)| {
                if let KvHistOp::Get { result: r, .. } = &mut op {
                    *r = result.clone();
                }
                *at
            });
            events.push(KvEvent {
                client: inner.id,
                invoke: *invoke,
                response,
                op,
            });
        }
        events.sort_by_key(|e| (e.invoke, e.response));
        events
    }
}
