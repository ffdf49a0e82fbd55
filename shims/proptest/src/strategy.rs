//! The [`Strategy`] trait and the combinators this workspace uses.

use std::marker::PhantomData;

use crate::test_runner::TestRng;

/// A recipe for generating values of `Self::Value`.
///
/// Unlike real proptest there is no value tree and no shrinking: a strategy
/// is simply a deterministic function of the test RNG stream.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates with `self`, then with the strategy `f` derives from the
    /// value (dependent generation).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Box::new(move |rng| self.new_value(rng)),
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

/// See [`Strategy::boxed`].
pub struct BoxedStrategy<T> {
    inner: Box<dyn Fn(&mut TestRng) -> T>,
}

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.inner)(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A boxed generator arm of a [`Union`].
pub type UnionArm<T> = Box<dyn Fn(&mut TestRng) -> T>;

/// Uniform choice among same-valued strategies; built by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<UnionArm<T>>,
}

impl<T> std::fmt::Debug for Union<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Union({} arms)", self.arms.len())
    }
}

impl<T> Union<T> {
    /// Builds a union from boxed arms (see [`Union::arm`]).
    pub fn new(arms: Vec<UnionArm<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }

    /// Boxes one strategy as a union arm.
    pub fn arm<S>(strat: S) -> UnionArm<T>
    where
        S: Strategy<Value = T> + 'static,
    {
        Box::new(move |rng| strat.new_value(rng))
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        (self.arms[i])(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64 + 1;
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// `any::<T>()` support struct; see [`crate::arbitrary::any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(pub(crate) PhantomData<T>);

impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        T::generate(rng)
    }
}
