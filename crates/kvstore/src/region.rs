//! The leased read-region layout: a fixed hash table of version-stamped
//! cells.
//!
//! The region a replica registers for one-sided client READs is a static
//! open-addressing-free hash table: `capacity` cells of [`CELL_SIZE`]
//! bytes behind a [`HEADER_SIZE`]-byte header. A key maps to exactly one
//! cell (`FNV-1a(key) % capacity`); colliding or oversize keys poison
//! their cell so one-sided readers deterministically fall back to the
//! message path for them.
//!
//! ## Cell layout (little-endian)
//!
//! ```text
//! [ ver: u64 | klen: u32 | vlen: u32 | key: 48 B | val: 88 B | ver2: u64 ]
//! ```
//!
//! The duplicated trailing stamp `ver2` is the torn-read detector: a READ
//! racing an in-place update can observe the new leading stamp with old
//! trailing bytes (or vice versa), and the mismatch exposes it. Version
//! stamp semantics:
//!
//! * `ver == 0` — the cell was never written: the key is absent.
//! * odd `ver` — in-progress or poisoned: the reader must fall back.
//! * even `ver > 0`, `klen == 0` — "bucket empty as of `ver/2`" marker
//!   (left by deletions and snapshot restores).
//! * even `ver > 0`, `klen > 0` — a committed key/value pair.
//!
//! Committed stamps are `2·v` where `v` is the service's apply version at
//! the write, so stamps are strictly monotone in apply order and the
//! in-progress marker `2·v + 1` can never collide with a committed stamp.

/// Bytes per cell.
pub const CELL_SIZE: usize = 160;
/// Region header: 8-byte magic plus the capacity as a u64.
pub const HEADER_SIZE: usize = 16;
/// Magic bytes identifying a lease region image.
pub const MAGIC: [u8; 8] = *b"KVLEASE1";
/// Maximum key length representable in a cell.
pub const KEY_MAX: usize = 48;
/// Maximum value length representable in a cell.
pub const VAL_MAX: usize = 88;
/// Default number of cells in a region.
pub const DEFAULT_CAPACITY: usize = 1024;
/// Most cells a region may have (a 160 MiB image); a snapshot claiming
/// more is corrupt, not a region to allocate.
pub const MAX_CAPACITY: usize = 1 << 20;

/// FNV-1a bucket index of `key` in a `capacity`-cell region.
pub fn bucket_of(key: &[u8], capacity: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % capacity as u64) as usize
}

/// Byte offset of bucket `b`'s cell inside the region image.
pub fn cell_offset(b: usize) -> usize {
    HEADER_SIZE + b * CELL_SIZE
}

/// Builds the region header for a `capacity`-cell region.
pub fn encode_header(capacity: usize) -> [u8; HEADER_SIZE] {
    let mut h = [0u8; HEADER_SIZE];
    h[..8].copy_from_slice(&MAGIC);
    h[8..].copy_from_slice(&(capacity as u64).to_le_bytes());
    h
}

/// Parses a region header, returning the capacity.
pub fn decode_header(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < HEADER_SIZE || bytes[..8] != MAGIC {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize)
}

/// Encodes a committed cell (`stamp` must be even and non-zero; empty
/// `key` encodes the "bucket empty" marker).
///
/// # Panics
///
/// Panics if `stamp` is odd/zero or key/value exceed the cell bounds —
/// callers gate on [`fits`] first.
pub fn encode_cell(stamp: u64, key: &[u8], val: &[u8]) -> [u8; CELL_SIZE] {
    assert!(
        stamp != 0 && stamp.is_multiple_of(2),
        "committed stamps are even > 0"
    );
    assert!(key.len() <= KEY_MAX && val.len() <= VAL_MAX);
    assert!(
        !key.is_empty() || val.is_empty(),
        "marker cells carry no value"
    );
    let mut c = [0u8; CELL_SIZE];
    c[0..8].copy_from_slice(&stamp.to_le_bytes());
    c[8..12].copy_from_slice(&(key.len() as u32).to_le_bytes());
    c[12..16].copy_from_slice(&(val.len() as u32).to_le_bytes());
    c[16..16 + key.len()].copy_from_slice(key);
    c[64..64 + val.len()].copy_from_slice(val);
    c[152..160].copy_from_slice(&stamp.to_le_bytes());
    c
}

/// Encodes a poisoned cell: the odd stamp makes every reader fall back,
/// forever (until the bucket's collision or oversize resident goes away).
pub fn encode_poisoned(stamp_odd: u64) -> [u8; CELL_SIZE] {
    assert!(stamp_odd % 2 == 1, "poison stamps are odd");
    let mut c = [0u8; CELL_SIZE];
    c[0..8].copy_from_slice(&stamp_odd.to_le_bytes());
    c[152..160].copy_from_slice(&stamp_odd.to_le_bytes());
    c
}

/// True if a key/value pair fits a cell.
pub fn fits(key: &[u8], val: &[u8]) -> bool {
    !key.is_empty() && key.len() <= KEY_MAX && val.len() <= VAL_MAX
}

/// The outcome of decoding one cell on the read path; it borrows the
/// key and value from the bytes read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellRead<'a> {
    /// Never written: the key is absent (version 0).
    Empty,
    /// Odd or mismatched stamps: in-progress, poisoned, or torn — the
    /// reader must fall back to the message path.
    Invalid,
    /// A committed cell: `key.is_empty()` is the "bucket empty" marker.
    Committed {
        /// The (even) version stamp.
        stamp: u64,
        /// Resident key (empty for the bucket-empty marker).
        key: &'a [u8],
        /// Resident value.
        val: &'a [u8],
    },
}

/// Decodes one cell's bytes as read one-sided.
pub fn decode_cell(bytes: &[u8]) -> CellRead<'_> {
    if bytes.len() != CELL_SIZE {
        return CellRead::Invalid;
    }
    let ver = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let ver2 = u64::from_le_bytes(bytes[152..160].try_into().expect("8 bytes"));
    if ver == 0 && ver2 == 0 {
        return CellRead::Empty;
    }
    if ver != ver2 || ver % 2 == 1 {
        return CellRead::Invalid;
    }
    let klen = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let vlen = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    if klen > KEY_MAX || vlen > VAL_MAX || (klen == 0 && vlen != 0) {
        return CellRead::Invalid;
    }
    CellRead::Committed {
        stamp: ver,
        key: &bytes[16..16 + klen],
        val: &bytes[64..64 + vlen],
    }
}

/// What a decoded cell says about one specific key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyVerdict<'a> {
    /// The cell is unusable; fall back.
    Fallback,
    /// The key is absent as of the given stamp.
    Absent(u64),
    /// The key maps to this value as of the given stamp.
    Value(u64, &'a [u8]),
}

/// Interprets a cell read with respect to `key`.
///
/// A committed cell holding a *different* key still decides `key`: the
/// single-owner invariant (colliding live keys poison the cell) means the
/// probed key cannot be live anywhere if another key owns its bucket.
pub fn judge<'a>(cell: &CellRead<'a>, key: &[u8]) -> KeyVerdict<'a> {
    match *cell {
        CellRead::Empty => KeyVerdict::Absent(0),
        CellRead::Invalid => KeyVerdict::Fallback,
        CellRead::Committed { stamp, key: k, val } => {
            if k == key {
                KeyVerdict::Value(stamp, val)
            } else {
                KeyVerdict::Absent(stamp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = encode_header(512);
        assert_eq!(decode_header(&h), Some(512));
        assert_eq!(decode_header(b"nonsense-header!"), None);
    }

    #[test]
    fn cell_roundtrip() {
        let c = encode_cell(8, b"user1", b"value-bytes");
        match decode_cell(&c) {
            CellRead::Committed { stamp, key, val } => {
                assert_eq!(stamp, 8);
                assert_eq!(key, b"user1");
                assert_eq!(val, b"value-bytes");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_and_marker_cells() {
        assert_eq!(decode_cell(&[0u8; CELL_SIZE]), CellRead::Empty);
        let marker = encode_cell(4, b"", b"");
        match decode_cell(&marker) {
            CellRead::Committed { stamp, key, .. } => {
                assert_eq!(stamp, 4);
                assert!(key.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn torn_and_poisoned_cells_invalid() {
        let mut c = encode_cell(8, b"k", b"v");
        // Torn: leading stamp advanced, trailing stale.
        c[0..8].copy_from_slice(&10u64.to_le_bytes());
        assert_eq!(decode_cell(&c), CellRead::Invalid);
        assert_eq!(decode_cell(&encode_poisoned(9)), CellRead::Invalid);
        // Wrong length.
        assert_eq!(decode_cell(&[0u8; 10]), CellRead::Invalid);
    }

    #[test]
    fn judge_resolves_foreign_keys_as_absent() {
        let bytes = encode_cell(6, b"owner", b"v");
        let c = decode_cell(&bytes);
        assert_eq!(judge(&c, b"owner"), KeyVerdict::Value(6, b"v"));
        assert_eq!(judge(&c, b"other"), KeyVerdict::Absent(6));
        assert_eq!(judge(&CellRead::Empty, b"x"), KeyVerdict::Absent(0));
        assert_eq!(judge(&CellRead::Invalid, b"x"), KeyVerdict::Fallback);
    }

    #[test]
    fn buckets_are_stable_and_bounded() {
        for cap in [1usize, 7, 1024] {
            for k in 0..100u32 {
                let key = k.to_le_bytes();
                let b = bucket_of(&key, cap);
                assert!(b < cap);
                assert_eq!(b, bucket_of(&key, cap));
            }
        }
    }
}
