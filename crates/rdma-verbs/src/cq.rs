//! Completion queues and completion event channels.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::types::{CqId, Wc};

/// A completion event channel, mirroring `ibv_comp_channel`.
///
/// Completion queues can be attached to a channel; when an *armed* CQ
/// receives a completion, the CQ's id is pushed onto the channel and the CQ
/// disarms (one-shot semantics, like `ibv_req_notify_cq`). RUBIN's selector
/// drains this channel instead of busy-polling every CQ.
#[derive(Clone, Default)]
pub struct CompChannel {
    events: Rc<RefCell<VecDeque<CqId>>>,
}

impl fmt::Debug for CompChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompChannel")
            .field("pending", &self.events.borrow().len())
            .finish()
    }
}

impl CompChannel {
    /// Creates an empty channel.
    pub fn new() -> CompChannel {
        CompChannel::default()
    }

    /// Removes and returns the next completion notification, if any.
    pub fn poll_event(&self) -> Option<CqId> {
        self.events.borrow_mut().pop_front()
    }

    /// Number of pending notifications.
    pub fn pending(&self) -> usize {
        self.events.borrow().len()
    }

    fn notify(&self, cq: CqId) {
        self.events.borrow_mut().push_back(cq);
    }
}

struct CqInner {
    id: CqId,
    entries: VecDeque<Wc>,
    capacity: usize,
    overflowed: bool,
    channel: Option<CompChannel>,
    armed: bool,
}

/// A completion queue, mirroring `ibv_cq`.
///
/// Work completions ([`Wc`]) are appended by the simulated NIC and drained
/// by the application with [`poll`](CompletionQueue::poll). Handles are
/// cheaply cloneable and shared between the NIC side and the application.
#[derive(Clone)]
pub struct CompletionQueue {
    inner: Rc<RefCell<CqInner>>,
}

impl fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("CompletionQueue")
            .field("id", &inner.id)
            .field("pending", &inner.entries.len())
            .field("capacity", &inner.capacity)
            .field("overflowed", &inner.overflowed)
            .finish()
    }
}

impl CompletionQueue {
    pub(crate) fn new(id: CqId, capacity: usize, channel: Option<CompChannel>) -> CompletionQueue {
        assert!(capacity > 0, "completion queue capacity must be positive");
        CompletionQueue {
            inner: Rc::new(RefCell::new(CqInner {
                id,
                entries: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                overflowed: false,
                channel,
                armed: false,
            })),
        }
    }

    /// The queue's identifier.
    pub fn id(&self) -> CqId {
        self.inner.borrow().id
    }

    /// Appends a completion (NIC side). Sets the overflow flag and drops the
    /// entry if the queue is full — real CQ overflow is a fatal device error,
    /// and tests assert we never hit it in correct configurations.
    pub(crate) fn push(&self, wc: Wc) {
        let mut inner = self.inner.borrow_mut();
        if inner.entries.len() >= inner.capacity {
            inner.overflowed = true;
            return;
        }
        inner.entries.push_back(wc);
        if inner.armed {
            if let Some(ch) = inner.channel.clone() {
                inner.armed = false;
                drop(inner);
                ch.notify(self.id());
            }
        }
    }

    /// Drains up to `max` completions.
    pub fn poll(&self, max: usize) -> Vec<Wc> {
        let mut inner = self.inner.borrow_mut();
        let n = max.min(inner.entries.len());
        inner.entries.drain(..n).collect()
    }

    /// Drains every queued completion onto the end of `out`, so a caller
    /// that keeps its buffer polls without allocating.
    pub fn poll_into(&self, out: &mut Vec<Wc>) {
        out.extend(self.inner.borrow_mut().entries.drain(..));
    }

    /// Number of completions currently queued.
    pub fn pending(&self) -> usize {
        self.inner.borrow().entries.len()
    }

    /// True if the queue ever overflowed.
    pub fn overflowed(&self) -> bool {
        self.inner.borrow().overflowed
    }

    /// Requests a one-shot notification on the attached channel for the next
    /// completion (mirrors `ibv_req_notify_cq`). No-op without a channel.
    pub fn req_notify(&self) {
        self.inner.borrow_mut().armed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{QpNum, WcOpcode, WcStatus, WrId};

    fn wc(id: u64) -> Wc {
        Wc {
            wr_id: WrId(id),
            status: WcStatus::Success,
            opcode: WcOpcode::Send,
            byte_len: 0,
            qp: QpNum(0),
            imm: None,
        }
    }

    #[test]
    fn poll_drains_fifo() {
        let cq = CompletionQueue::new(CqId(0), 8, None);
        cq.push(wc(1));
        cq.push(wc(2));
        cq.push(wc(3));
        let got = cq.poll(2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].wr_id, WrId(1));
        assert_eq!(got[1].wr_id, WrId(2));
        assert_eq!(cq.pending(), 1);
    }

    #[test]
    fn poll_into_appends_everything_and_keeps_the_buffer() {
        let cq = CompletionQueue::new(CqId(0), 8, None);
        let mut out = Vec::with_capacity(4);
        cq.poll_into(&mut out);
        assert!(out.is_empty());
        cq.push(wc(1));
        cq.push(wc(2));
        cq.poll_into(&mut out);
        cq.push(wc(3));
        cq.poll_into(&mut out);
        let ids: Vec<u64> = out.iter().map(|w| w.wr_id.0).collect();
        assert_eq!(ids, [1, 2, 3]);
        assert_eq!(cq.pending(), 0);
        assert_eq!(out.capacity(), 4, "no reallocation below capacity");
    }

    #[test]
    fn overflow_sets_flag_and_drops() {
        let cq = CompletionQueue::new(CqId(0), 2, None);
        cq.push(wc(1));
        cq.push(wc(2));
        cq.push(wc(3));
        assert!(cq.overflowed());
        assert_eq!(cq.pending(), 2);
    }

    #[test]
    fn notification_is_one_shot_until_rearmed() {
        let ch = CompChannel::new();
        let cq = CompletionQueue::new(CqId(7), 8, Some(ch.clone()));
        // Not armed: no notification.
        cq.push(wc(1));
        assert_eq!(ch.pending(), 0);
        // Armed: exactly one notification even for several completions.
        cq.req_notify();
        cq.push(wc(2));
        cq.push(wc(3));
        assert_eq!(ch.pending(), 1);
        assert_eq!(ch.poll_event(), Some(CqId(7)));
        assert_eq!(ch.poll_event(), None);
        // Re-arm produces the next notification.
        cq.req_notify();
        cq.push(wc(4));
        assert_eq!(ch.poll_event(), Some(CqId(7)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CompletionQueue::new(CqId(0), 0, None);
    }
}
