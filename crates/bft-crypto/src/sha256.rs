//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The offline build environment provides no cryptography crates, so the
//! digest used for request hashing, checkpoints and the blockchain's hash
//! chain is implemented here and validated against the FIPS/NIST test
//! vectors in the module tests. The compression function runs on the
//! CPU's SHA extensions where the host has them (checked at run time) and
//! on portable scalar rounds everywhere else; both give the same bits.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Input block size of SHA-256 in bytes.
pub(crate) const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The initial chaining state.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use bft_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256::resume(H0, 0)
    }

    /// A hasher that has already absorbed `absorbed` bytes, a whole number
    /// of blocks, into the chaining state `state`.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Sha256 {
        debug_assert_eq!(absorbed % BLOCK_LEN as u64, 0);
        Sha256 {
            state,
            buffer: [0; BLOCK_LEN],
            buffer_len: 0,
            total_len: absorbed,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks are compressed where they lie; only the tail waits.
        let whole = data.len() - data.len() % BLOCK_LEN;
        compress(&mut self.state, &data[..whole]);
        let tail = &data[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, 64-bit big-endian bit length, in one block
        // if the length still fits behind the 0x80, else in two.
        let n = self.buffer_len;
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let len = if n < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        compress(&mut state, &tail[..len]);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Compresses `blocks`, a whole number of 64-byte blocks, into `state`:
/// with the SHA extensions if this CPU has them, else with scalar rounds.
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable compression function: FIPS 180-4 §6.2.2, one block at a
/// time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions (`sha256rnds2`,
/// `sha256msg1`, `sha256msg2`), two rounds per instruction. This module
/// holds the crate's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    use super::{BLOCK_LEN, K};

    /// Compresses `blocks` into `state` and returns true if this CPU has
    /// the SHA extensions; returns false, having done nothing, if not.
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        let detected = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3");
        if detected {
            // SAFETY: every feature `compress_blocks` enables beyond the
            // x86_64 baseline (sse2) was detected on this CPU just above.
            unsafe { compress_blocks(state, blocks) };
        }
        detected
    }

    /// Four rounds: `w` holds the next four message words; the constants
    /// are added here, two rounds run on each half.
    ///
    /// # Safety
    ///
    /// `i < 16`, and the CPU must support `sha`, `sse2`, `ssse3` and
    /// `sse4.1`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        debug_assert!(i < 16);
        // SAFETY: `i < 16`, so `K[4 * i..4 * i + 4]` is in bounds, and
        // `_mm_loadu_si128` accepts any alignment.
        let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast());
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four message words from the previous sixteen, `w0` oldest.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order within each 32-bit word: the message is big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY (all loads and stores below): `state` is 32 bytes, two
        // 16-byte lanes; every chunk of `blocks` is 64 bytes, four lanes.
        // `_mm_loadu_si128` / `_mm_storeu_si128` need no alignment.
        let lanes = state.as_mut_ptr().cast::<__m128i>();
        let dcba = _mm_shuffle_epi32::<0xB1>(_mm_loadu_si128(lanes));
        let hgfe = _mm_shuffle_epi32::<0x1B>(_mm_loadu_si128(lanes.add(1)));
        // `sha256rnds2` keeps the state as (a, b, e, f) and (c, d, g, h).
        let mut abef = _mm_alignr_epi8::<8>(dcba, hgfe);
        let mut cdgh = _mm_blend_epi16::<0xF0>(hgfe, dcba);

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(p), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be_words),
            ];
            for (i, &wi) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, wi, i);
            }
            // From round 16 on, each group of four words is scheduled from
            // the sixteen before it, held in `w` as a ring.
            for i in 4..16 {
                let next = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                w[i % 4] = next;
                rounds4(&mut abef, &mut cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        _mm_storeu_si128(lanes, _mm_blend_epi16::<0xF0>(feba, dchg));
        _mm_storeu_si128(lanes.add(1), _mm_alignr_epi8::<8>(dchg, feba));
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// The digest of `data` through one compression function, padded
    /// here rather than by [`Sha256::finalize`].
    fn digest_with(compress: fn(&mut [u32; 8], &[u8]), data: &[u8]) -> String {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &padded);
        hex(&state
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .collect::<Vec<_>>())
    }

    #[test]
    fn nist_empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&sha256(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The FIPS 180-4 vectors above through each compression function,
    /// called directly, so the scalar rounds are checked on a host with
    /// the SHA extensions and the dispatched path on every host.
    #[test]
    fn fips_vectors_through_each_compression_function() {
        let vectors: [(&[u8], &str); 5] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &[b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (data, want) in vectors {
            assert_eq!(digest_with(compress_scalar, data), want, "scalar");
            assert_eq!(digest_with(compress, data), want, "dispatched");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let oneshot = sha256(&data);
        // Feed in irregular chunk sizes crossing block boundaries.
        let mut h = Sha256::new();
        let mut off = 0;
        for step in [1usize, 63, 64, 65, 127, 128, 1000, 9000] {
            let end = (off + step).min(data.len());
            h.update(&data[off..end]);
            off = end;
        }
        h.update(&data[off..]);
        assert_eq!(h.finalize(), oneshot);
    }

    /// Every tail length: the padding fits in one block up to 55 bytes
    /// past the last whole block and needs two from 56 on.
    #[test]
    fn every_padding_length_matches_the_reference_padding() {
        let data: Vec<u8> = (0..=200u8).collect();
        for len in 0..data.len() {
            assert_eq!(
                hex(&sha256(&data[..len])),
                digest_with(compress_scalar, &data[..len]),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"hello"), sha256(b"hellp"));
        assert_ne!(sha256(b""), sha256(b"\x00"));
    }

    proptest! {
        #[test]
        fn dispatched_equals_scalar(data in proptest::collection::vec(any::<u8>(), 0..600)) {
            let blocks = &data[..data.len() - data.len() % BLOCK_LEN];
            let (mut fast, mut slow) = (H0, H0);
            compress(&mut fast, blocks);
            compress_scalar(&mut slow, blocks);
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(digest_with(compress, &data), digest_with(compress_scalar, &data));
        }

        #[test]
        fn incremental_equals_oneshot_at_any_split(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            a in 0usize..600,
            b in 0usize..600,
        ) {
            let (a, b) = (a.min(data.len()), b.min(data.len()));
            let (lo, hi) = (a.min(b), a.max(b));
            let mut h = Sha256::new();
            h.update(&data[..lo]);
            h.update(&data[lo..hi]);
            h.update(&data[hi..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }
    }
}
