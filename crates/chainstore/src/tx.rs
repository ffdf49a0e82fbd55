//! Transactions for the permissioned ledger.
//!
//! Two transaction families cover the paper's motivating use cases (§I):
//! asset transfers (the cryptocurrency case) and supply-chain-management
//! records (the permissioned SCM case).

use bft_crypto::Digest;
use reptor::codec;

reptor::wire_format! {
    /// A ledger transaction.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Transaction {
        /// Moves `amount` from one account to another.
        0 => Transfer {
            /// Source account.
            from: String,
            /// Destination account.
            to: String,
            /// Amount in minimal units.
            amount: u64,
        },
        /// Records a supply-chain custody event for an item.
        1 => Shipment {
            /// Item identifier.
            item: String,
            /// Releasing party.
            from: String,
            /// Receiving party.
            to: String,
            /// Location of the hand-over.
            location: String,
        },
        /// Mints new funds to an account (genesis/faucet, permissioned only).
        2 => Mint {
            /// Receiving account.
            to: String,
            /// Amount in minimal units.
            amount: u64,
        },
    }
}

impl Transaction {
    /// Convenience constructor for transfers.
    pub fn transfer(from: &str, to: &str, amount: u64) -> Transaction {
        Transaction::Transfer {
            from: from.into(),
            to: to.into(),
            amount,
        }
    }

    /// Convenience constructor for shipments.
    pub fn shipment(item: &str, from: &str, to: &str, location: &str) -> Transaction {
        Transaction::Shipment {
            item: item.into(),
            from: from.into(),
            to: to.into(),
            location: location.into(),
        }
    }

    /// Convenience constructor for mints.
    pub fn mint(to: &str, amount: u64) -> Transaction {
        Transaction::Mint {
            to: to.into(),
            amount,
        }
    }

    /// The transaction digest.
    pub fn digest(&self) -> Digest {
        Digest::of(&self.encode())
    }

    /// Binary encoding (used as the BFT request payload).
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a transaction; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Transaction> {
        codec::decode(buf).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let txs = [
            Transaction::transfer("alice", "bob", 42),
            Transaction::shipment("pallet-9", "factory", "warehouse", "hamburg"),
            Transaction::mint("alice", 1_000),
        ];
        for tx in txs {
            assert_eq!(Transaction::decode(&tx.encode()), Some(tx));
        }
    }

    #[test]
    fn digests_are_distinct() {
        let a = Transaction::transfer("alice", "bob", 42);
        let b = Transaction::transfer("alice", "bob", 43);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn malformed_input_rejected() {
        assert_eq!(Transaction::decode(&[]), None);
        assert_eq!(Transaction::decode(&[9]), None);
        assert_eq!(Transaction::decode(&[0, 255, 255, 255, 255]), None);
        let mut enc = Transaction::mint("x", 1).encode();
        enc.push(0);
        assert_eq!(Transaction::decode(&enc), None);
        // Non-UTF8 account names rejected.
        let bad = [2u8, 2, 0, 0, 0, 0xFF, 0xFE, 1, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(Transaction::decode(&bad), None);
    }
}
