//! Outbound path: whom a message goes to, sealing it, and the core its MAC
//! work is charged to.

use super::*;

/// Whom one outbound message goes to. The deferred send carries it, so
/// the common sets are values rather than heap lists.
#[derive(Debug)]
pub(super) enum Receivers {
    /// One node: a replica or a client.
    One(u32),
    /// Every replica but the sender.
    Peers { n: u32, me: ReplicaId },
    /// Any other set: fast-path fallbacks, an equivocator's halves.
    Listed(Vec<u32>),
}

/// What a replica's deferred sends share. It outlives a crash of the
/// replica: a message sealed before the crash still leaves.
pub(super) struct Outbox {
    /// The replica ids `0..n`: [`Receivers::Peers`] as the slice a
    /// broadcast takes (the transport skips the sender).
    pub(super) replicas: Box<[u32]>,
    /// Where a sent message's buffer goes back to.
    pub(super) buffers: RefCell<SealBuffers>,
}

impl Outbox {
    /// `to` as the node list a transport broadcast takes.
    fn resolve<'a>(&'a self, to: &'a Receivers) -> &'a [u32] {
        match to {
            Receivers::One(r) => std::slice::from_ref(r),
            Receivers::Peers { .. } => &self.replicas,
            Receivers::Listed(list) => list,
        }
    }
}

impl Receivers {
    pub(super) fn len(&self) -> usize {
        match self {
            Receivers::One(_) => 1,
            Receivers::Peers { n, .. } => *n as usize - 1,
            Receivers::Listed(list) => list.len(),
        }
    }

    /// The `i`-th receiver, in sending order.
    pub(super) fn get(&self, i: usize) -> u32 {
        match self {
            Receivers::One(r) => *r,
            Receivers::Peers { me, .. } => {
                let i = i as u32;
                if i < *me {
                    i
                } else {
                    i + 1
                }
            }
            Receivers::Listed(list) => list[i],
        }
    }
}

impl ReplicaInner {
    pub(super) fn peers(&self) -> Receivers {
        Receivers::Peers {
            n: self.cfg.n as u32,
            me: self.id,
        }
    }

    pub(super) fn broadcast_to_replicas(&mut self, sim: &mut Simulator, msg: Message) {
        self.send_msg(sim, &msg, self.peers());
    }

    /// Seals `msg` for `to` and sends it once its MAC work is done, as
    /// the replica's fault has it (`fault.rs`).
    pub(super) fn send_msg(&mut self, sim: &mut Simulator, msg: &Message, to: Receivers) {
        self.send_msg_on(sim, msg, to, &[self.msg_core(msg)]);
    }

    /// [`ReplicaInner::send_msg`] with its MAC work charged to whichever
    /// of `cores` frees first.
    pub(super) fn send_msg_on(
        &mut self,
        sim: &mut Simulator,
        msg: &Message,
        to: Receivers,
        cores: &[CoreId],
    ) {
        let count = to.len();
        let Some(msg) = self.egress(msg, &to).filter(|_| count > 0) else {
            return;
        };
        // A broadcast skips its sender: a list naming it would silently
        // lose that copy.
        debug_assert!(
            (0..count).all(|i| to.get(i) != self.id),
            "{to:?} names the sender"
        );
        let mut wire = self.outbox.buffers.borrow_mut().take();
        let covered = msg.seal_into(&self.keys, count, |i| to.get(i), &mut wire);
        self.tamper_sealed(&mut wire, count);
        let cost = self.cfg.crypto.authenticator_cost(covered, count);
        let host = self.net.host(self.host);
        let (_, done) = host.borrow_mut().exec_earliest_free(sim.now(), cores, cost);
        // Keep the wire order equal to the submission order even when
        // MAC work lands on different pipeline cores: the comm stack
        // still has a single outbound sender queue.
        let send_at = done.max(self.send_horizon);
        self.send_horizon = send_at;
        let (transport, outbox) = (self.transport.clone(), self.outbox.clone());
        // One hand-over for every receiver; the transport copies the bytes
        // only for a link that cannot take them now.
        sim.schedule_at(send_at, move |sim| {
            transport.broadcast(sim, outbox.resolve(&to), &wire);
            outbox.buffers.borrow_mut().put(wire);
        });
    }

    /// The core an outbound message's MAC work runs on: the owning
    /// pipeline's core for agreement traffic, the execution core otherwise.
    /// What executing a batch sends — its REPLYs, a CHECKPOINT vote — may
    /// move to the core of the pipeline that ordered the batch instead
    /// ([`ReplicaInner::executed_cores`]).
    fn msg_core(&self, msg: &Message) -> CoreId {
        match msg {
            Message::PrePrepare { seq, .. }
            | Message::Prepare { seq, .. }
            | Message::Commit { seq, .. }
            | Message::CatchUpReply { seq, .. } => self.affinity.seq_core(*seq),
            _ => self.affinity.exec_core(),
        }
    }

    /// The core inbound MAC verification runs on. The transport's demux
    /// already peeked the lane from the wire; trust it only for agreement
    /// messages (everything else runs on the execution core regardless of
    /// what a hostile frame header claims).
    pub(super) fn lane_core_for(&self, lane: usize, msg: &Message) -> CoreId {
        match msg {
            Message::PrePrepare { .. }
            | Message::Prepare { .. }
            | Message::Commit { .. }
            | Message::CatchUpReply { .. } => self.pipelines[lane % self.pipelines.len()].core,
            _ => self.affinity.exec_core(),
        }
    }

    pub(super) fn charge(&mut self, sim: &Simulator, core: CoreId, work: Nanos) -> Nanos {
        self.net
            .host(self.host)
            .borrow_mut()
            .exec(sim.now(), core, work)
    }
}
