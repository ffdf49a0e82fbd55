//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach a crates registry, so the workspace
//! vendors the subset of proptest it uses: the [`Strategy`](strategy::Strategy) trait with the
//! combinators that appear in our tests (`prop_map`, tuples, collections,
//! `prop_oneof!`, ranges), `any::<T>()`, and the `proptest!` /
//! `prop_assert!` macros.
//!
//! Differences from real proptest, chosen deliberately for an offline,
//! reproducible test suite:
//!
//! * **Deterministic**: every test function derives its RNG seed from its own
//!   name, so runs are reproducible with no persistence files.
//! * **No shrinking**: a failing case reports its inputs' case number; the
//!   suite treats `max_shrink_iters` as always 0.

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! The glob-importable prelude, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    pub mod prop {
        //! Shorthand module tree, mirroring `proptest::prelude::prop`.
        pub use crate::{collection, option, sample, strategy};
    }
}

/// Runs `cases` iterations of a generate-and-check closure. Backs the
/// `proptest!` macro; not part of the public proptest API.
#[doc(hidden)]
pub fn run_cases<F>(name: &str, config: &test_runner::ProptestConfig, mut case: F)
where
    F: FnMut(&mut test_runner::TestRng) -> Result<(), test_runner::TestCaseError>,
{
    let mut rng = test_runner::TestRng::deterministic(name);
    for i in 0..config.cases {
        if let Err(e) = case(&mut rng) {
            panic!(
                "proptest `{name}` failed at case {}/{}: {e}",
                i + 1,
                config.cases
            );
        }
    }
}

/// Declares property-based test functions.
///
/// Supports the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
///     #[test]
///     fn my_prop(x in 0u64..100, v in proptest::collection::vec(any::<u8>(), 0..16)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                $crate::run_cases(stringify!($name), &config, |__rng| {
                    $(let $arg = $crate::strategy::Strategy::new_value(&($strat), __rng);)+
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };
}

/// Builds a strategy choosing uniformly among the listed strategies, all of
/// which must produce the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($strat:expr),+ $(,)? ) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Union::arm($strat) ),+
        ])
    };
}

/// Fails the current proptest case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current proptest case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)+);
    }};
}

/// Fails the current proptest case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, $($fmt)+);
    }};
}
