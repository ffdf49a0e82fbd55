//! PBFT-style MAC-vector authenticators.
//!
//! PBFT replaces signatures with vectors of MACs: each pair of nodes shares
//! a symmetric session key, and a broadcast message carries one HMAC per
//! receiver (Castro & Liskov, OSDI '99). Reptor uses the same scheme;
//! the paper's §III-C notes these HMACs are what lets the protocol treat a
//! replica with compromised memory keys as simply faulty.

use std::cell::RefCell;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::hmac::{hmac_sha256, HmacKey};
use crate::sha256::DIGEST_LEN;

/// A node identifier in the authentication domain (replicas and clients).
pub type NodeId = u32;

/// Most peers a [`KeyTable`] keeps derived keys for. A sender id comes off
/// the wire, so past this many a peer's key is derived per MAC instead:
/// hostile ids cost time, never memory.
const MAX_CACHED_PEERS: usize = 4096;

/// Table of pairwise session keys, derived deterministically from a domain
/// secret (stands in for the key-exchange phase of a real deployment).
#[derive(Debug, Clone)]
pub struct KeyTable {
    me: NodeId,
    secret: Vec<u8>,
    /// The pair key with each peer, its HMAC pads absorbed, derived on
    /// first use: a MAC then costs only the compressions of its message.
    peers: RefCell<HashMap<NodeId, HmacKey>>,
}

impl KeyTable {
    /// Creates the key table for node `me` in a domain sharing `secret`.
    pub fn new(me: NodeId, secret: impl Into<Vec<u8>>) -> KeyTable {
        KeyTable {
            me,
            secret: secret.into(),
            peers: RefCell::default(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The symmetric key shared between `a` and `b` (order-independent).
    pub fn pair_key(&self, a: NodeId, b: NodeId) -> [u8; DIGEST_LEN] {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut msg = [0u8; 8];
        msg[..4].copy_from_slice(&lo.to_le_bytes());
        msg[4..].copy_from_slice(&hi.to_le_bytes());
        hmac_sha256(&self.secret, &msg)
    }

    /// The HMAC key this node shares with `peer` (either direction: the
    /// pair key is order-independent).
    fn peer_key(&self, peer: NodeId) -> HmacKey {
        let mut peers = self.peers.borrow_mut();
        if let Some(&key) = peers.get(&peer) {
            return key;
        }
        let key = HmacKey::new(&self.pair_key(self.me, peer));
        if peers.len() < MAX_CACHED_PEERS {
            peers.insert(peer, key);
        }
        key
    }

    /// This node's MAC of `message` towards `receiver`: one entry of an
    /// authenticator.
    pub fn mac(&self, message: &[u8], receiver: NodeId) -> [u8; DIGEST_LEN] {
        self.peer_key(receiver).mac(message)
    }

    /// Whether `mac` is `sender`'s MAC of `message` towards this node.
    pub fn verify_mac(&self, message: &[u8], sender: NodeId, mac: &[u8; DIGEST_LEN]) -> bool {
        self.peer_key(sender).verify(message, mac)
    }

    /// Authenticates `message` towards every node in `receivers`.
    pub fn authenticate(&self, message: &[u8], receivers: &[NodeId]) -> Authenticator {
        Authenticator {
            sender: self.me,
            macs: receivers
                .iter()
                .map(|&r| (r, self.mac(message, r)))
                .collect(),
        }
    }

    /// Verifies that `auth` (sent by `auth.sender`) covers `message` for
    /// this node: the first entry addressed to this node decides.
    pub fn verify(&self, message: &[u8], auth: &Authenticator) -> bool {
        auth.macs
            .iter()
            .find(|(r, _)| *r == self.me)
            .is_some_and(|(_, mac)| self.verify_mac(message, auth.sender, mac))
    }
}

/// A vector of per-receiver MACs over one message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Authenticator {
    /// The authenticating node.
    pub sender: NodeId,
    /// `(receiver, mac)` pairs.
    pub macs: Vec<(NodeId, [u8; DIGEST_LEN])>,
}

impl Authenticator {
    /// Serialized size in bytes (for wire-cost accounting).
    pub fn wire_size(&self) -> usize {
        4 + self.macs.len() * (4 + DIGEST_LEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_keys_are_symmetric_and_distinct() {
        let t0 = KeyTable::new(0, b"domain".to_vec());
        let t1 = KeyTable::new(1, b"domain".to_vec());
        assert_eq!(t0.pair_key(0, 1), t1.pair_key(1, 0));
        assert_ne!(t0.pair_key(0, 1), t0.pair_key(0, 2));
        // Different domain secret → different keys.
        let other = KeyTable::new(0, b"other".to_vec());
        assert_ne!(t0.pair_key(0, 1), other.pair_key(0, 1));
    }

    #[test]
    fn authenticator_verifies_for_each_receiver() {
        let sender = KeyTable::new(0, b"domain".to_vec());
        let auth = sender.authenticate(b"msg", &[1, 2, 3]);
        for r in 1..=3 {
            let table = KeyTable::new(r, b"domain".to_vec());
            assert!(table.verify(b"msg", &auth), "receiver {r}");
        }
        // Non-receiver cannot verify.
        let outsider = KeyTable::new(9, b"domain".to_vec());
        assert!(!outsider.verify(b"msg", &auth));
    }

    #[test]
    fn tampering_breaks_verification() {
        let sender = KeyTable::new(0, b"domain".to_vec());
        let auth = sender.authenticate(b"msg", &[1]);
        let receiver = KeyTable::new(1, b"domain".to_vec());
        assert!(!receiver.verify(b"msg-tampered", &auth));
        // Forged sender id: MAC was keyed on the (0,1) pair key.
        let mut forged = auth.clone();
        forged.sender = 2;
        assert!(!receiver.verify(b"msg", &forged));
    }

    #[test]
    fn one_mac_primitives_agree_with_the_vector() {
        let sender = KeyTable::new(0, b"domain".to_vec());
        let receiver = KeyTable::new(2, b"domain".to_vec());
        let auth = sender.authenticate(b"msg", &[1, 2]);
        assert_eq!(auth.macs[1], (2, sender.mac(b"msg", 2)));
        assert!(receiver.verify_mac(b"msg", 0, &auth.macs[1].1));
        assert!(!receiver.verify_mac(b"msg", 0, &auth.macs[0].1));
        assert!(!receiver.verify_mac(b"msg", 1, &auth.macs[1].1));
    }

    /// Derived keys are kept for at most `MAX_CACHED_PEERS` peers; a peer
    /// past the bound is still MACed with its own key.
    #[test]
    fn the_key_cache_is_bounded_and_exact_past_its_bound() {
        let table = KeyTable::new(0, b"domain".to_vec());
        let last = MAX_CACHED_PEERS as NodeId + 8;
        for r in 1..=last {
            table.mac(b"m", r);
        }
        assert_eq!(table.peers.borrow().len(), MAX_CACHED_PEERS);
        let peer = KeyTable::new(last, b"domain".to_vec());
        assert!(peer.verify_mac(b"m", 0, &table.mac(b"m", last)));
        assert!(table.verify_mac(b"m", last, &peer.mac(b"m", 0)));
    }

    #[test]
    fn wire_size_counts_macs() {
        let sender = KeyTable::new(0, b"d".to_vec());
        let auth = sender.authenticate(b"m", &[1, 2, 3, 4]);
        assert_eq!(auth.wire_size(), 4 + 4 * 36);
    }
}
