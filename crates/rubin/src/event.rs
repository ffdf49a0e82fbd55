//! Interest operations and the hybrid event queue.
//!
//! The Java NIO selector answers both *transmission* and *connection*
//! readiness from the same blocking call. RUBIN therefore merges RDMA
//! completion-queue events and connection-manager events into one **hybrid
//! event queue** (paper §III-B.1); the **event manager** (§III-B.2) replaces
//! epoll by pushing a copy of every new event into this queue and notifying
//! the selector.

use std::collections::VecDeque;

use rdma_verbs::CmEvent;

/// Identifier of a channel registration with an
/// [`RdmaSelector`](crate::RdmaSelector): the selector core's key.
pub use simnet::KeyId as RubinKey;

simnet::select_ops! {
    /// Interest/readiness flags of an RDMA selection key.
    ///
    /// Naming follows the paper (§III-B), which inverts Java's convention:
    /// `OP_CONNECT` signals *incoming connections* on a server channel and
    /// `OP_ACCEPT` signals *connection establishment* on a client channel.
    pub struct Interest {
        /// Incoming connection requests (server channels).
        OP_CONNECT = 1,
        /// Connection establishment completed (client channels).
        OP_ACCEPT = 2,
        /// Received messages are available.
        OP_RECEIVE = 4,
        /// Send buffers are available.
        OP_SEND = 8,
    }
}

/// One entry of the hybrid event queue.
#[derive(Debug)]
pub enum RubinEvent {
    /// A connection-management event copied from the device event channel.
    Connection(CmEvent),
    /// Completion activity on the channel registered under `key`.
    Completion {
        /// The affected registration.
        key: RubinKey,
    },
}

/// The hybrid event queue: connection events and completion events merged
/// in arrival order (paper Figure 2, step 4).
#[derive(Debug, Default)]
pub struct HybridEventQueue {
    events: VecDeque<RubinEvent>,
    total: u64,
}

impl HybridEventQueue {
    /// Creates an empty queue.
    pub fn new() -> HybridEventQueue {
        HybridEventQueue::default()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: RubinEvent) {
        self.events.push_back(ev);
        self.total += 1;
    }

    /// Removes the oldest event.
    pub fn pop(&mut self) -> Option<RubinEvent> {
        self.events.pop_front()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever enqueued.
    pub fn total_events(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_flag_algebra() {
        let rs = Interest::OP_RECEIVE | Interest::OP_SEND;
        assert!(rs.contains(Interest::OP_RECEIVE));
        assert!(rs.intersects(Interest::OP_SEND));
        assert!(!rs.contains(Interest::OP_CONNECT));
        assert_eq!(rs.without(Interest::OP_SEND), Interest::OP_RECEIVE);
        assert_eq!(rs.and(Interest::OP_SEND), Interest::OP_SEND);
        assert!(Interest::NONE.is_empty());
        let mut x = Interest::NONE;
        x |= Interest::OP_ACCEPT;
        assert!(x.contains(Interest::OP_ACCEPT));
    }

    #[test]
    fn hybrid_queue_preserves_arrival_order() {
        let mut q = HybridEventQueue::new();
        q.push(RubinEvent::Completion { key: RubinKey(1) });
        q.push(RubinEvent::Completion { key: RubinKey(2) });
        assert_eq!(q.len(), 2);
        assert!(matches!(
            q.pop(),
            Some(RubinEvent::Completion { key: RubinKey(1) })
        ));
        assert!(matches!(
            q.pop(),
            Some(RubinEvent::Completion { key: RubinKey(2) })
        ));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.total_events(), 2);
    }
}
