//! Protection domains and registered memory regions.
//!
//! RDMA requires applications to register memory with the NIC before any
//! network operation (paper §II-A). Registration produces a local key
//! ([`LKey`]) proving local ownership and a remote key ([`RKey`], the iWARP
//! *Steering Tag*) that — combined with [`Access`] flags — governs what
//! remote peers may do to the region. The paper's security analysis (§III-C)
//! hinges on these checks, so this module enforces them strictly.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::rc::{Rc, Weak};

use crate::error::{VerbsError, VerbsResult};
use crate::types::{Access, LKey, PdId, RKey};

/// A protection domain: memory regions and queue pairs can only be used
/// together when they belong to the same domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionDomain {
    id: PdId,
}

impl ProtectionDomain {
    pub(crate) fn new(id: PdId) -> ProtectionDomain {
        ProtectionDomain { id }
    }

    /// The domain's identifier.
    pub fn id(&self) -> PdId {
        self.id
    }
}

struct MrInner {
    /// The touched prefix of the region: bytes `[0, buf.len())`. Everything
    /// from there up to `len` has never been written, reads as zero and
    /// costs no memory.
    buf: RefCell<Vec<u8>>,
    len: usize,
    lkey: LKey,
    rkey: RKey,
    access: Access,
    pd: PdId,
    valid: Cell<bool>,
    /// The device table holding this region until it is deregistered.
    table: Weak<RefCell<MrTable>>,
}

/// A registered memory region: a byte buffer the simulated NIC can DMA
/// into and out of.
///
/// Registration fixes the region's length, keys and access flags; its
/// bytes appear on first touch (a write zero-fills up to its end, and
/// whatever lies beyond reads as zero), so a large region that only ever
/// carries small messages costs what it holds.
///
/// Handles are cheaply cloneable and share the underlying buffer.
/// Deregistration ([`MemoryRegion::invalidate`]) makes every handle
/// invalid and gives the bytes back; subsequent NIC access fails with a
/// protection error, as real hardware would.
#[derive(Clone)]
pub struct MemoryRegion {
    inner: Rc<MrInner>,
}

impl fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("len", &self.len())
            .field("lkey", &self.inner.lkey)
            .field("rkey", &self.inner.rkey)
            .field("access", &self.inner.access)
            .field("pd", &self.inner.pd)
            .field("valid", &self.inner.valid.get())
            .finish()
    }
}

impl MemoryRegion {
    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The local key.
    pub fn lkey(&self) -> LKey {
        self.inner.lkey
    }

    /// The remote key (Steering Tag).
    pub fn rkey(&self) -> RKey {
        self.inner.rkey
    }

    /// Granted access flags.
    pub fn access(&self) -> Access {
        self.inner.access
    }

    /// Owning protection domain.
    pub fn pd(&self) -> PdId {
        self.inner.pd
    }

    /// True until the region is deregistered.
    pub fn is_valid(&self) -> bool {
        self.inner.valid.get()
    }

    /// Deregisters the region. All clones become invalid, the bytes are
    /// freed and the device forgets the region; in-flight NIC operations
    /// targeting it will complete with protection errors.
    pub fn invalidate(&self) {
        if !self.inner.valid.replace(false) {
            return;
        }
        *self.inner.buf.borrow_mut() = Vec::new();
        if let Some(table) = self.inner.table.upgrade() {
            table.borrow_mut().by_rkey.remove(&self.inner.rkey.0);
        }
    }

    /// Validates that `[offset, offset+len)` lies within the region and the
    /// region is still registered.
    ///
    /// # Errors
    ///
    /// [`VerbsError::InvalidRange`] on out-of-bounds, or
    /// [`VerbsError::Deregistered`] if invalidated.
    pub fn check_range(&self, offset: usize, len: usize) -> VerbsResult<()> {
        if !self.is_valid() {
            return Err(VerbsError::Deregistered);
        }
        let end = offset.checked_add(len).ok_or(VerbsError::InvalidRange {
            offset,
            len,
            capacity: self.len(),
        })?;
        if end > self.len() {
            return Err(VerbsError::InvalidRange {
                offset,
                len,
                capacity: self.len(),
            });
        }
        Ok(())
    }

    /// Copies `data` into the region at `offset` (application-side access,
    /// not charged to the NIC).
    ///
    /// # Errors
    ///
    /// Fails like [`MemoryRegion::check_range`].
    pub fn write(&self, offset: usize, data: &[u8]) -> VerbsResult<()> {
        self.check_range(offset, data.len())?;
        if !data.is_empty() {
            self.touch(offset + data.len())[offset..].copy_from_slice(data);
        }
        Ok(())
    }

    /// Grows the touched prefix (zero-filled) to at least `end` bytes and
    /// returns `[0, end)` of it. `end` has passed [`Self::check_range`].
    fn touch(&self, end: usize) -> std::cell::RefMut<'_, [u8]> {
        std::cell::RefMut::map(self.inner.buf.borrow_mut(), |buf| {
            if buf.len() < end {
                buf.resize(end, 0);
            }
            &mut buf[..end]
        })
    }

    /// Appends `[offset, offset + len)` to `out`: the touched part as it
    /// is, the rest as zeros. The range has passed [`Self::check_range`].
    fn copy_out(&self, offset: usize, len: usize, out: &mut Vec<u8>) {
        let buf = self.inner.buf.borrow();
        let filled = out.len() + len;
        out.extend_from_slice(&buf[offset.min(buf.len())..(offset + len).min(buf.len())]);
        out.resize(filled, 0);
    }

    /// Copies `len` bytes out of the region starting at `offset`.
    ///
    /// # Errors
    ///
    /// Fails like [`MemoryRegion::check_range`].
    pub fn read(&self, offset: usize, len: usize) -> VerbsResult<Vec<u8>> {
        self.check_range(offset, len)?;
        let mut out = Vec::with_capacity(len);
        self.copy_out(offset, len, &mut out);
        Ok(out)
    }

    /// Runs `f` over `[offset, offset + len)` in place (no copy). A view is
    /// a touch: whatever part of the range was never written is zero-filled
    /// first.
    ///
    /// # Errors
    ///
    /// Fails like [`MemoryRegion::check_range`].
    pub fn with_slice<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> VerbsResult<R> {
        self.check_range(offset, len)?;
        if len == 0 {
            return Ok(f(&[]));
        }
        drop(self.touch(offset + len));
        Ok(f(&self.inner.buf.borrow()[offset..offset + len]))
    }

    /// NIC-side write used by packet processing (DMA placement). Validates
    /// registration and bounds but *not* access flags — callers check those
    /// against the operation type first.
    pub(crate) fn dma_write(&self, offset: usize, data: &[u8]) -> VerbsResult<()> {
        self.write(offset, data)
    }

    /// DMA fetch into a buffer recycled from `pool`, so the steady-state
    /// send path allocates nothing per message.
    pub(crate) fn dma_read_pooled(
        &self,
        offset: usize,
        len: usize,
        pool: &simnet::BytePool,
    ) -> VerbsResult<Vec<u8>> {
        self.check_range(offset, len)?;
        let mut out = pool.take(len);
        self.copy_out(offset, len, &mut out);
        Ok(out)
    }
}

/// Device-wide table of registered regions, consulted by the simulated
/// NIC when a one-sided operation arrives. It issues the keys and forgets a
/// region when it is deregistered.
#[derive(Debug)]
pub(crate) struct MrTable {
    /// Fixed hasher: entries come and go with every one-sided operation,
    /// and a randomly keyed map would rehash (and so allocate) differently
    /// from one same-seed run to the next. The keys are the device's own
    /// counter, not input.
    by_rkey: HashMap<u32, MemoryRegion, BuildHasherDefault<DefaultHasher>>,
    /// Keys are issued in order from 1, so a key below this one that is
    /// not in the map belonged to a region since deregistered.
    next_key: u32,
}

impl MrTable {
    pub fn new() -> Rc<RefCell<MrTable>> {
        Rc::new(RefCell::new(MrTable {
            by_rkey: HashMap::default(),
            next_key: 1,
        }))
    }

    /// Registers a region of `len` bytes under the next key.
    pub fn register(
        table: &Rc<RefCell<MrTable>>,
        pd: PdId,
        len: usize,
        access: Access,
    ) -> MemoryRegion {
        let mut t = table.borrow_mut();
        let key = t.next_key;
        t.next_key += 1;
        let mr = MemoryRegion {
            inner: Rc::new(MrInner {
                buf: RefCell::new(Vec::new()),
                len,
                lkey: LKey(key),
                rkey: RKey(key),
                access,
                pd,
                valid: Cell::new(true),
                table: Rc::downgrade(table),
            }),
        };
        t.by_rkey.insert(key, mr.clone());
        mr
    }

    /// Looks up a region by rkey and validates access + bounds, exactly the
    /// checks a real RNIC performs before honouring a one-sided request.
    pub fn validate(
        &self,
        rkey: RKey,
        offset: usize,
        len: usize,
        required: Access,
    ) -> VerbsResult<MemoryRegion> {
        let Some(mr) = self.by_rkey.get(&rkey.0) else {
            return Err(if (1..self.next_key).contains(&rkey.0) {
                VerbsError::Deregistered
            } else {
                VerbsError::BadRKey(rkey)
            });
        };
        if !mr.access().allows(required) {
            return Err(VerbsError::AccessDenied {
                rkey,
                granted: mr.access(),
                required,
            });
        }
        mr.check_range(offset, len)?;
        Ok(mr.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn region(len: usize, access: Access) -> (Rc<RefCell<MrTable>>, MemoryRegion) {
        let table = MrTable::new();
        let mr = MrTable::register(&table, PdId(0), len, access);
        (table, mr)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (_table, mr) = region(16, Access::LOCAL_WRITE);
        mr.write(4, b"abcd").unwrap();
        assert_eq!(mr.read(4, 4).unwrap(), b"abcd");
        assert_eq!(mr.read(0, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (_table, mr) = region(8, Access::NONE);
        assert!(matches!(
            mr.write(6, b"abcd"),
            Err(VerbsError::InvalidRange { .. })
        ));
        assert!(matches!(
            mr.read(0, 9),
            Err(VerbsError::InvalidRange { .. })
        ));
        // Offset overflow must not panic.
        assert!(mr.check_range(usize::MAX, 2).is_err());
    }

    #[test]
    fn invalidation_poisons_all_handles() {
        let (_table, mr) = region(8, Access::NONE);
        let clone = mr.clone();
        mr.invalidate();
        assert!(!clone.is_valid());
        assert!(matches!(clone.read(0, 1), Err(VerbsError::Deregistered)));
    }

    #[test]
    fn mr_table_validates_rkey_access_and_bounds() {
        let (table, mr) = region(16, Access::REMOTE_READ);
        let rkey = mr.rkey();
        let validate = |rkey, offset, len, required| {
            table
                .borrow()
                .validate(rkey, offset, len, required)
                .map(|_| ())
        };

        assert!(validate(rkey, 0, 16, Access::REMOTE_READ).is_ok());
        // Keys the table never issued: the one past the watermark, and 0.
        for never in [RKey(rkey.0 + 1), RKey(0)] {
            assert!(matches!(
                validate(never, 0, 1, Access::REMOTE_READ),
                Err(VerbsError::BadRKey(_))
            ));
        }
        assert!(matches!(
            validate(rkey, 0, 1, Access::REMOTE_WRITE),
            Err(VerbsError::AccessDenied { .. })
        ));
        assert!(matches!(
            validate(rkey, 8, 9, Access::REMOTE_READ),
            Err(VerbsError::InvalidRange { .. })
        ));
        mr.invalidate();
        assert!(matches!(
            validate(rkey, 0, 1, Access::REMOTE_READ),
            Err(VerbsError::Deregistered)
        ));
    }

    #[test]
    fn invalidation_releases_bytes_and_table_entry() {
        let (table, mr) = region(1 << 20, Access::REMOTE_READ);
        assert_eq!(mr.inner.buf.borrow().capacity(), 0, "nothing touched yet");
        mr.write(100, b"x").unwrap();
        assert_eq!(mr.inner.buf.borrow().len(), 101, "the touched prefix only");
        assert_eq!(
            Rc::strong_count(&mr.inner),
            2,
            "this handle and the table's"
        );
        mr.invalidate();
        assert_eq!(mr.inner.buf.borrow().capacity(), 0);
        assert_eq!(Rc::strong_count(&mr.inner), 1, "the table forgot it");
        assert_eq!(
            mr.len(),
            1 << 20,
            "length is a property of the registration"
        );
        let next = MrTable::register(&table, PdId(0), 8, Access::NONE);
        assert_ne!(next.rkey(), mr.rkey(), "keys are never reused");
    }

    proptest! {
        /// The NIC-side pooled fetch agrees with a plain `Vec` oracle on
        /// every range, including ones that straddle or lie beyond the
        /// touched prefix, and fails exactly where the oracle has no bytes.
        #[test]
        fn dma_read_pooled_matches_vec_oracle(
            len in 0usize..256,
            writes in proptest::collection::vec(
                (0usize..300, proptest::collection::vec(any::<u8>(), 0..64)), 0..6),
            reads in proptest::collection::vec((0usize..300, 0usize..300), 1..12),
        ) {
            let (_table, mr) = region(len, Access::LOCAL_WRITE);
            let mut oracle = vec![0u8; len];
            for (offset, data) in &writes {
                let fits = offset + data.len() <= len;
                prop_assert_eq!(mr.dma_write(*offset, data).is_ok(), fits);
                if fits {
                    oracle[*offset..offset + data.len()].copy_from_slice(data);
                }
            }
            let pool = simnet::BytePool::new("test");
            let edge = [(len, 0), (usize::MAX, 0), (usize::MAX, 2), (0, usize::MAX)];
            for (offset, n) in reads.into_iter().chain(edge) {
                let got = mr.dma_read_pooled(offset, n, &pool);
                match offset.checked_add(n).filter(|&end| end <= len) {
                    Some(end) => prop_assert_eq!(got.unwrap(), &oracle[offset..end]),
                    None => prop_assert!(
                        matches!(got, Err(VerbsError::InvalidRange { .. }))
                    ),
                }
            }
            mr.invalidate();
            prop_assert!(
                matches!(mr.dma_read_pooled(0, 0, &pool), Err(VerbsError::Deregistered))
            );
        }
    }
}
