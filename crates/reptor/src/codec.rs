//! Minimal binary codec.
//!
//! The offline environment offers no serde binary format crate, so protocol
//! messages are encoded with a small hand-rolled, length-checked codec:
//! little-endian fixed-width integers and length-prefixed byte strings.

use std::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEnd {
        /// What was being decoded.
        wanted: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The context (which enum).
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeded the remaining input (corrupt or hostile).
    BadLength {
        /// Claimed length.
        claimed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { wanted } => {
                write!(f, "input ended while decoding {wanted}")
            }
            CodecError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            CodecError::BadLength { claimed, remaining } => {
                write!(
                    f,
                    "length prefix {claimed} exceeds remaining {remaining} bytes"
                )
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only encode buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates an empty writer with room for `capacity` bytes, so an
    /// encode of known size allocates once.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a fixed-size array without a length prefix.
    pub fn array<const N: usize>(&mut self, v: &[u8; N]) {
        self.buf.extend_from_slice(v);
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the input was fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        if self.remaining() < 1 {
            return Err(CodecError::UnexpectedEnd { wanted: "u8" });
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] with fewer than 4 bytes left.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        if self.remaining() < 4 {
            return Err(CodecError::UnexpectedEnd { wanted: "u32" });
        }
        let v = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        );
        self.pos += 4;
        Ok(v)
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] with fewer than 8 bytes left.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        if self.remaining() < 8 {
            return Err(CodecError::UnexpectedEnd { wanted: "u64" });
        }
        let v = u64::from_le_bytes(
            self.buf[self.pos..self.pos + 8]
                .try_into()
                .expect("8 bytes"),
        );
        self.pos += 8;
        Ok(v)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] if the prefix exceeds the remaining input.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::BadLength {
                claimed: len,
                remaining: self.remaining(),
            });
        }
        let v = self.buf[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(v)
    }

    /// Reads a fixed-size array.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] with fewer than `N` bytes left.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        if self.remaining() < N {
            return Err(CodecError::UnexpectedEnd { wanted: "array" });
        }
        let v: [u8; N] = self.buf[self.pos..self.pos + N]
            .try_into()
            .expect("N bytes");
        self.pos += N;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEADBEEF);
        w.u64(u64::MAX - 1);
        w.bytes(b"hello");
        w.array(&[1u8, 2, 3, 4]);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.array::<4>().unwrap(), [1, 2, 3, 4]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        w.u64(42);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..5]);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEnd { .. })));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // claims 4 GiB payload
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn empty_writer() {
        let w = Writer::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.finish().is_empty());
    }
}
