//! HMAC-SHA256 (RFC 2104), validated against RFC 4231 test vectors.

use crate::sha256::{compress, sha256, Sha256, BLOCK_LEN, DIGEST_LEN, H0};

/// An HMAC key with both pads absorbed: the SHA-256 chaining states after
/// the one block `key ^ ipad` and after `key ^ opad`. A MAC resumes from
/// them, so the key costs its two pad compressions once, not per MAC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Absorbs `key`'s pads; a key longer than a block is hashed first.
    pub(crate) fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut state = H0;
            compress(&mut state, &key_block.map(|b| b ^ pad));
            state
        };
        HmacKey {
            inner: absorb(0x36),
            outer: absorb(0x5c),
        }
    }

    /// HMAC-SHA256 of `message` under this key.
    pub(crate) fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = Sha256::resume(self.inner, BLOCK_LEN as u64);
        inner.update(message);
        let mut outer = Sha256::resume(self.outer, BLOCK_LEN as u64);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Whether `tag` is this key's MAC of `message`: a constant-time-style
    /// comparison of length and content. The simulator has no real side
    /// channels, but the API mirrors what a production implementation
    /// must do.
    pub(crate) fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        let expect = self.mac(message);
        if tag.len() != expect.len() {
            return false;
        }
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(tag) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// Computes HMAC-SHA256 of `message` under `key`.
///
/// # Examples
///
/// ```
/// use bft_crypto::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// assert_ne!(tag, hmac_sha256(b"other-key", b"message"));
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

/// Whether `tag` is the HMAC-SHA256 of `message` under `key` (length and
/// content, compared as [`KeyTable::verify_mac`](crate::KeyTable::verify_mac)
/// compares).
pub fn verify_hmac(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    HmacKey::new(key).verify(message, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// One RFC 4231 case: through `hmac_sha256`, and through one
    /// `HmacKey` used twice, so the cached pad states are not consumed by
    /// a MAC.
    fn check(key: &[u8], data: &[u8], want: &str) {
        assert_eq!(hex(&hmac_sha256(key, data)), want);
        let cached = HmacKey::new(key);
        assert_eq!(hex(&cached.mac(data)), want);
        assert_eq!(hex(&cached.mac(data)), want);
        assert!(cached.verify(data, &cached.mac(data)));
    }

    #[test]
    fn rfc4231_case_1() {
        check(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        check(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        check(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        check(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn verify_accepts_valid_rejects_invalid() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_hmac(b"k", b"m", &tag));
        assert!(!verify_hmac(b"k", b"m2", &tag));
        assert!(!verify_hmac(b"k2", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!verify_hmac(b"k", b"m", &bad));
        assert!(!verify_hmac(b"k", b"m", &tag[..31]));
    }
}
