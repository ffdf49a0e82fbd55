//! Collection strategies: `vec` and `btree_set`.

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A half-open size range for generated collections.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }
}

/// Generates `Vec`s of `element` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.new_value(rng)).collect()
    }
}

/// Generates `BTreeSet`s of `element` with a target size drawn from `size`.
/// If the element domain is too small, the set may come out smaller but
/// never below one element when `size` starts above zero.
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
#[derive(Clone, Debug)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let want = self.size.pick(rng);
        let mut out = BTreeSet::new();
        let mut attempts = 0usize;
        while out.len() < want && attempts < want * 10 + 100 {
            out.insert(self.element.new_value(rng));
            attempts += 1;
        }
        out
    }
}
