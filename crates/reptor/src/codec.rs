//! The one binary codec every wire and disk format is written in.
//!
//! The offline environment offers no serde binary format crate, so each
//! format is an ordered list of fields over one trait, [`Codec`]: write,
//! exact encoded length, read. The building blocks here are the only code
//! that touches bytes: little-endian integers, fixed arrays and
//! [`Digest`]s, counted lists (a byte string is a list of `u8`, a string
//! one of UTF-8 bytes), maps, tuples, and [`Cow`]s that encode what a caller
//! only lends. A record lists its fields once, through
//! [`wire_format!`](crate::wire_format), so its three operations cannot
//! disagree, and [`encode`] sizes its buffer exactly.
//!
//! Reading is total. [`Reader::take`] is the one bounds check and
//! [`Reader::count`] the one count check: a count whose minimum encoding
//! exceeds the bytes left is [`CodecError::BadLength`] before anything is
//! allocated. `tests/wire_format.rs` pins every format byte for byte.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use bft_crypto::{Digest, DIGEST_LEN};

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside a fixed-width field.
    UnexpectedEnd {
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The context (which enum).
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length or count prefix claimed more than the remaining input can
    /// hold (corrupt or hostile).
    BadLength {
        /// Fewest bytes the prefix claims.
        claimed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A string was not UTF-8.
    BadUtf8,
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { wanted, remaining } => {
                write!(
                    f,
                    "input ended {remaining} bytes into a {wanted}-byte field"
                )
            }
            CodecError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            CodecError::BadLength { claimed, remaining } => {
                write!(
                    f,
                    "length prefix claims {claimed} bytes, {remaining} remain"
                )
            }
            CodecError::BadUtf8 => write!(f, "string is not UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A value with a binary encoding.
pub trait Codec: Sized {
    /// The fewest bytes any value encodes to: what [`Reader::count`]
    /// multiplies a claimed count by before believing it.
    const MIN_LEN: usize;

    /// Appends the encoding to `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Exactly the number of bytes [`Codec::write`] appends.
    fn encoded_len(&self) -> usize;

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Appends a run of values, the elements of a list (one copy for bytes).
    #[doc(hidden)]
    fn write_run(run: &[Self], out: &mut Vec<u8>) {
        for v in run {
            v.write(out);
        }
    }

    /// The encoded length of a run of values.
    #[doc(hidden)]
    fn run_len(run: &[Self]) -> usize {
        run.iter().map(Codec::encoded_len).sum()
    }

    /// Reads the `n` elements of a list whose count [`Reader::count`] has
    /// already checked.
    #[doc(hidden)]
    fn read_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, CodecError> {
        let mut run = Vec::with_capacity(n);
        for _ in 0..n {
            run.push(Self::read(r)?);
        }
        Ok(run)
    }
}

/// Encodes `value` into a buffer allocated once, at exactly its length.
pub fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let len = value.encoded_len();
    let mut out = Vec::with_capacity(len);
    value.write(&mut out);
    debug_assert_eq!(out.len(), len, "encoded_len disagrees with write");
    out
}

/// Decodes one `T` that spans all of `buf`.
///
/// # Errors
///
/// Any [`CodecError`] on malformed input, including trailing bytes.
pub fn decode<T: Codec>(buf: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let value = T::read(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { rest: buf }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Fails unless the input was fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    /// The next `n` bytes: the one bounds check every read goes through.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] with fewer than `n` bytes left.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(CodecError::UnexpectedEnd {
                wanted: n,
                remaining: self.rest.len(),
            });
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// Reads a list's `u32` element count, believed only if that many of
    /// the smallest `T` fit in the bytes left: the one count check, made
    /// before the caller allocates anything.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] for a count the input cannot hold.
    pub fn count<T: Codec>(&mut self) -> Result<usize, CodecError> {
        let n = u32::read(self)? as usize;
        let claimed = n.saturating_mul(T::MIN_LEN);
        if claimed > self.remaining() {
            return Err(CodecError::BadLength {
                claimed,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }
}

impl Codec for u8 {
    const MIN_LEN: usize = 1;

    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn encoded_len(&self) -> usize {
        1
    }

    fn read(r: &mut Reader<'_>) -> Result<u8, CodecError> {
        Ok(r.take(1)?[0])
    }

    fn write_run(run: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(run);
    }

    fn run_len(run: &[u8]) -> usize {
        run.len()
    }

    fn read_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, CodecError> {
        Ok(r.take(n)?.to_vec())
    }
}

macro_rules! le_int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn encoded_len(&self) -> usize {
                Self::MIN_LEN
            }

            fn read(r: &mut Reader<'_>) -> Result<$t, CodecError> {
                Ok(<$t>::from_le_bytes(Codec::read(r)?))
            }
        }
    )*};
}

le_int_codec!(u32, u64);

/// A fixed-size array, without a length prefix.
impl<const N: usize> Codec for [u8; N] {
    const MIN_LEN: usize = N;

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn encoded_len(&self) -> usize {
        N
    }

    fn read(r: &mut Reader<'_>) -> Result<[u8; N], CodecError> {
        let mut a = [0; N];
        a.copy_from_slice(r.take(N)?);
        Ok(a)
    }
}

impl Codec for Digest {
    const MIN_LEN: usize = DIGEST_LEN;

    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
    }

    fn encoded_len(&self) -> usize {
        DIGEST_LEN
    }

    fn read(r: &mut Reader<'_>) -> Result<Digest, CodecError> {
        Ok(Digest(Codec::read(r)?))
    }
}

fn write_list<T: Codec>(run: &[T], out: &mut Vec<u8>) {
    (run.len() as u32).write(out);
    T::write_run(run, out);
}

/// A counted list: `u32` count, then the elements.
impl<T: Codec> Codec for Vec<T> {
    const MIN_LEN: usize = 4;

    fn write(&self, out: &mut Vec<u8>) {
        write_list(self, out);
    }

    fn encoded_len(&self) -> usize {
        4 + T::run_len(self)
    }

    fn read(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
        let n = r.count::<T>()?;
        T::read_run(r, n)
    }
}

/// UTF-8 bytes, encoded as a byte string.
impl Codec for String {
    const MIN_LEN: usize = 4;

    fn write(&self, out: &mut Vec<u8>) {
        write_list(self.as_bytes(), out);
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }

    fn read(r: &mut Reader<'_>) -> Result<String, CodecError> {
        String::from_utf8(Codec::read(r)?).map_err(|_| CodecError::BadUtf8)
    }
}

/// A counted list of key/value pairs in key order. A repeated key keeps
/// its last value.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    const MIN_LEN: usize = 4;

    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).write(out);
        for (k, v) in self {
            k.write(out);
            v.write(out);
        }
    }

    fn encoded_len(&self) -> usize {
        4 + self
            .iter()
            .map(|(k, v)| k.encoded_len() + v.encoded_len())
            .sum::<usize>()
    }

    fn read(r: &mut Reader<'_>) -> Result<BTreeMap<K, V>, CodecError> {
        let n = r.count::<(K, V)>()?;
        (0..n).map(|_| <(K, V)>::read(r)).collect()
    }
}

/// Encodes like the value it borrows or owns; always reads as owned. It
/// lets a caller encode a record of fields it only lends.
impl<T: Codec + Clone> Codec for Cow<'_, T> {
    const MIN_LEN: usize = T::MIN_LEN;

    fn write(&self, out: &mut Vec<u8>) {
        (**self).write(out);
    }

    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Cow::Owned(T::read(r)?))
    }
}

/// A byte string, borrowed or owned.
impl Codec for Cow<'_, [u8]> {
    const MIN_LEN: usize = 4;

    fn write(&self, out: &mut Vec<u8>) {
        write_list(self, out);
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Cow::Owned(Codec::read(r)?))
    }
}

macro_rules! tuple_codec {
    ($($T:ident $i:tt),+) => {
        /// The fields in order, with nothing between them.
        impl<$($T: Codec),+> Codec for ($($T,)+) {
            const MIN_LEN: usize = 0 $(+ $T::MIN_LEN)+;

            fn write(&self, out: &mut Vec<u8>) {
                $(self.$i.write(out);)+
            }

            fn encoded_len(&self) -> usize {
                0 $(+ self.$i.encoded_len())+
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($T::read(r)?,)+))
            }
        }
    };
}

tuple_codec!(A 0, B 1);
tuple_codec!(A 0, B 1, C 2);

/// Defines a record type as one ordered field list and derives its
/// [`Codec`](crate::codec::Codec) from that list: the fields in order, and
/// for an enum a tag byte first. A struct may also be an existing type,
/// `impl Type { field: Ty, .. }`, whose fields are listed in wire order.
///
/// ```
/// use reptor::codec::{self, Codec};
///
/// reptor::wire_format! {
///     /// A point on the wire.
///     #[derive(Debug, PartialEq)]
///     pub struct Point {
///         /// Across.
///         pub x: u32,
///         /// Down.
///         pub y: u32,
///     }
/// }
///
/// reptor::wire_format! {
///     /// A shape: tag byte, then the variant's fields.
///     #[derive(Debug, PartialEq)]
///     pub enum Shape {
///         /// A dot.
///         0 => Dot(at: Point),
///         /// A labelled box.
///         1 => Label {
///             /// Top-left corner.
///             at: Point,
///             /// The text.
///             text: String,
///         },
///     }
/// }
///
/// let s = Shape::Label { at: Point { x: 1, y: 2 }, text: "hi".into() };
/// let bytes = codec::encode(&s);
/// assert_eq!(bytes.len(), s.encoded_len());
/// assert_eq!(bytes, [1, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, b'h', b'i']);
/// assert_eq!(codec::decode::<Shape>(&bytes), Ok(s));
/// ```
#[macro_export]
macro_rules! wire_format {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)*
        }

        $crate::wire_format!(impl $name { $($field: $fty),* });
    };
    (impl $name:ident { $($field:ident : $fty:ty),* $(,)? }) => {
        impl $crate::codec::Codec for $name {
            const MIN_LEN: usize = 0 $(+ <$fty as $crate::codec::Codec>::MIN_LEN)*;

            fn write(&self, out: &mut Vec<u8>) {
                $($crate::codec::Codec::write(&self.$field, out);)*
            }

            fn encoded_len(&self) -> usize {
                0 $(+ $crate::codec::Codec::encoded_len(&self.$field))*
            }

            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($name {
                    $($field: $crate::codec::Codec::read(r)?,)*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                $(( $($tfield:ident : $tty:ty),* ))?
                $({ $($(#[$fmeta:meta])* $sfield:ident : $sty:ty),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $(( $($tty),* ))?
                $({ $($(#[$fmeta])* $sfield: $sty),* })?,
            )*
        }

        impl $crate::codec::Codec for $name {
            const MIN_LEN: usize = 1;

            fn write(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant $(( $($tfield),* ))? $({ $($sfield),* })? => {
                        let tag: u8 = $tag;
                        $crate::codec::Codec::write(&tag, out);
                        $($($crate::codec::Codec::write($tfield, out);)*)?
                        $($($crate::codec::Codec::write($sfield, out);)*)?
                    })*
                }
            }

            fn encoded_len(&self) -> usize {
                1 + match self {
                    $($name::$variant $(( $($tfield),* ))? $({ $($sfield),* })? => {
                        0 $($(+ $crate::codec::Codec::encoded_len($tfield))*)?
                            $($(+ $crate::codec::Codec::encoded_len($sfield))*)?
                    })*
                }
            }

            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                let tag: u8 = $crate::codec::Codec::read(r)?;
                Ok(match tag {
                    $($tag => $name::$variant
                        $(( $(<$tty as $crate::codec::Codec>::read(r)?),* ))?
                        $({ $($sfield: <$sty as $crate::codec::Codec>::read(r)?),* })?,)*
                    tag => {
                        return Err($crate::codec::CodecError::BadTag {
                            what: stringify!($name),
                            tag,
                        })
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let value = (
            7u8,
            (0xDEAD_BEEFu32, u64::MAX - 1),
            (b"hello".to_vec(), [1u8, 2, 3, 4]),
        );
        let buf = encode(&value);
        assert_eq!(buf.len(), 1 + 4 + 8 + (4 + 5) + 4);
        assert_eq!(decode(&buf), Ok(value));
        assert_eq!(
            decode::<String>(&encode(&"héllo".to_string())).unwrap(),
            "héllo"
        );
    }

    #[test]
    fn truncated_input_errors() {
        let buf = encode(&42u64);
        assert_eq!(
            decode::<u64>(&buf[..5]),
            Err(CodecError::UnexpectedEnd {
                wanted: 8,
                remaining: 5
            })
        );
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Claims a 4 GiB payload.
        let buf = encode(&u32::MAX);
        assert!(matches!(
            decode::<Vec<u8>>(&buf),
            Err(CodecError::BadLength { .. })
        ));
    }

    /// A count is checked against the smallest element, not one byte: 100
    /// bytes cannot hold four 32-byte digests.
    #[test]
    fn hostile_count_rejected_by_element_size() {
        let mut buf = encode(&4u32);
        buf.extend_from_slice(&[0; 100]);
        assert_eq!(
            decode::<Vec<Digest>>(&buf),
            Err(CodecError::BadLength {
                claimed: 128,
                remaining: 100
            })
        );
        buf.extend_from_slice(&[0; 28]);
        assert_eq!(decode::<Vec<Digest>>(&buf), Ok(vec![Digest::ZERO; 4]));
    }

    #[test]
    fn trailing_bytes_detected() {
        assert_eq!(decode::<u8>(&[1, 2]), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn empty_list_encodes_to_its_count() {
        let empty: Vec<u64> = Vec::new();
        assert_eq!(encode(&empty), [0, 0, 0, 0]);
        assert_eq!(encode(&String::new()), [0, 0, 0, 0]);
        assert_eq!(encode(&BTreeMap::<u8, u8>::new()), [0, 0, 0, 0]);
    }

    #[test]
    fn borrowed_and_owned_encode_alike() {
        let bytes = vec![9u8, 8, 7];
        let map = BTreeMap::from([(1u32, bytes.clone())]);
        assert_eq!(encode(&Cow::Borrowed(&bytes[..])), encode(&bytes));
        assert_eq!(encode(&Cow::Borrowed(&map)), encode(&map));
        assert_eq!(
            decode::<Cow<'_, BTreeMap<u32, Vec<u8>>>>(&encode(&map))
                .unwrap()
                .into_owned(),
            map
        );
    }

    #[test]
    fn strings_must_be_utf8() {
        assert_eq!(
            decode::<String>(&[2, 0, 0, 0, 0xFF, 0xFE]),
            Err(CodecError::BadUtf8)
        );
    }
}
