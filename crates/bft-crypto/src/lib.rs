//! # bft-crypto — cryptographic primitives for the BFT stack
//!
//! From-scratch implementations (the offline environment provides no crypto
//! crates) of everything Reptor's message authentication needs:
//!
//! * [`Sha256`] / [`sha256`] — FIPS 180-4, validated against NIST vectors,
//!   compressing on the CPU's SHA extensions where it has them.
//! * [`hmac_sha256`] / [`verify_hmac`] — RFC 2104, validated against
//!   RFC 4231 vectors.
//! * [`Digest`] — the digest newtype used for requests, batches,
//!   checkpoints and blockchain blocks.
//! * [`KeyTable`] / [`Authenticator`] — PBFT-style MAC vectors with
//!   pairwise session keys, each derived once per peer ("additional
//!   integrity protection mechanisms such as HMACs are employed in Reptor
//!   to detect invalid messages", paper §III-C).
//!
//! # Example
//!
//! ```
//! use bft_crypto::{Digest, KeyTable};
//!
//! let alice = KeyTable::new(0, b"shared-domain-secret".to_vec());
//! let bob = KeyTable::new(1, b"shared-domain-secret".to_vec());
//!
//! let msg = b"PRE-PREPARE v0 n42";
//! let auth = alice.authenticate(msg, &[1, 2, 3]);
//! assert!(bob.verify(msg, &auth));
//! assert!(!bob.verify(b"PRE-PREPARE v0 n43", &auth));
//!
//! let d = Digest::of(msg);
//! assert_eq!(d, Digest::of(msg));
//! ```

#![warn(missing_docs)]

mod auth;
mod digest;
mod hmac;
mod sha256;

pub use auth::{Authenticator, KeyTable, NodeId};
pub use digest::Digest;
pub use hmac::{hmac_sha256, verify_hmac};
pub use sha256::{sha256, Sha256, DIGEST_LEN};

/// CPU cost model for cryptographic operations, used by the protocol layer
/// to charge MAC/digest work to simulated cores.
#[derive(Debug, Clone, PartialEq)]
pub struct CryptoCostModel {
    /// Fixed cost of one HMAC computation.
    pub hmac_base_ns: u64,
    /// Additional HMAC cost per byte of message.
    pub hmac_ns_per_byte: f64,
    /// Fixed cost of one SHA-256 digest.
    pub digest_base_ns: u64,
    /// Additional digest cost per byte.
    pub digest_ns_per_byte: f64,
}

impl CryptoCostModel {
    /// Java-on-Xeon-v2 estimates (JCE HMAC-SHA256 throughput ≈ 500 MB/s,
    /// a few µs fixed overhead per call).
    pub fn xeon_v2_java() -> CryptoCostModel {
        CryptoCostModel {
            hmac_base_ns: 2_000,
            hmac_ns_per_byte: 2.0,
            digest_base_ns: 1_500,
            digest_ns_per_byte: 1.8,
        }
    }

    /// Cost of MACing a message of `len` bytes for `receivers` receivers.
    pub fn authenticator_cost(&self, len: usize, receivers: usize) -> simnet::Nanos {
        let one = self.hmac_base_ns as f64 + self.hmac_ns_per_byte * len as f64;
        simnet::Nanos::from_nanos((one * receivers as f64) as u64)
    }

    /// Cost of verifying one MAC over `len` bytes.
    pub fn verify_cost(&self, len: usize) -> simnet::Nanos {
        simnet::Nanos::from_nanos(
            (self.hmac_base_ns as f64 + self.hmac_ns_per_byte * len as f64) as u64,
        )
    }

    /// Cost of hashing `len` bytes.
    pub fn digest_cost(&self, len: usize) -> simnet::Nanos {
        simnet::Nanos::from_nanos(
            (self.digest_base_ns as f64 + self.digest_ns_per_byte * len as f64) as u64,
        )
    }
}

impl Default for CryptoCostModel {
    fn default() -> CryptoCostModel {
        CryptoCostModel::xeon_v2_java()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_scales() {
        let m = CryptoCostModel::xeon_v2_java();
        let one = m.authenticator_cost(1024, 1);
        let four = m.authenticator_cost(1024, 4);
        assert_eq!(four.as_nanos(), one.as_nanos() * 4);
        assert!(m.digest_cost(100_000) > m.digest_cost(1_000));
        assert!(m.verify_cost(1024) > simnet::Nanos::ZERO);
    }
}
