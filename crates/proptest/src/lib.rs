//! A minimal, dependency-free property-testing harness exposing the subset
//! of the `proptest` crate API this workspace uses. It exists so the
//! workspace builds and tests fully offline: same `proptest::prelude::*`
//! imports, same `proptest!` / `prop_assert!` macros, same `Strategy`
//! combinators — backed by a deterministic SplitMix64 generator instead of
//! a shrinking runner.
//!
//! Differences from upstream proptest, by design:
//!
//! - **No shrinking.** A failing case reports its case index and the seed,
//!   which is enough to reproduce deterministically (the seed is fixed).
//! - **No persistence.** `*.proptest-regressions` files are ignored.
//! - **Uniform `prop_oneof!`.** Arms are picked uniformly (upstream
//!   supports weights; this workspace never uses them).

#![warn(missing_docs)]

pub mod test_runner {
    //! Test configuration, RNG, and failure type.

    use std::fmt;

    /// Deterministic SplitMix64 generator; every test case derives its own
    /// stream from a fixed seed plus the case index.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        /// A generator for case `case` of a run seeded with `seed`.
        pub fn for_case(seed: u64, case: u32) -> Self {
            let mut rng = TestRng(seed ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            // Warm up so adjacent case indices diverge immediately.
            rng.next_u64();
            rng
        }

        /// Next raw 64-bit value (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `0..n` (n > 0; modulo bias is irrelevant at
        /// test-generation quality).
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }
    }

    /// A failed property check (carried by `prop_assert!` early returns).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Run configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// The fixed base seed for all properties (deterministic runs).
    pub const BASE_SEED: u64 = 0x5EED_CC04_D1D6_1B04;
}

pub mod strategy {
    //! The `Strategy` trait and its combinators.

    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream proptest there is no value tree / shrinking: a
    /// strategy simply produces a value from an RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Builds a recursive strategy: `self` is the leaf case and
        /// `recurse` wraps an inner strategy into a deeper one. Nesting is
        /// bounded by `depth` by construction (`_desired_size` and
        /// `_expected_branch_size` are accepted for API compatibility and
        /// ignored).
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut level = leaf.clone();
            for _ in 0..depth {
                let deeper = recurse(level).boxed();
                level = Union::new(vec![leaf.clone(), deeper]).boxed();
            }
            level
        }

        /// Type-erases the strategy behind a cheaply clonable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// A type-erased, reference-counted strategy handle.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
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
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among boxed alternatives (backs `prop_oneof!`).
    #[derive(Debug)]
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        /// A union over `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union(self.0.clone())
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let span = self.end as i128 - lo;
                    assert!(span > 0, "empty range strategy");
                    (lo + (rng.next_u64() as i128).rem_euclid(span)) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as i128;
                    let span = *self.end() as i128 - lo + 1;
                    assert!(span > 0, "empty range strategy");
                    (lo + (rng.next_u64() as i128).rem_euclid(span)) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident/$v:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A/a, B/b)
        (A/a, B/b, C/c)
        (A/a, B/b, C/c, D/d)
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A length specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_excl: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                min: r.start,
                max_excl: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_excl: *r.end() + 1,
            }
        }
    }

    /// Generates `Vec`s of values from `elem` with a length drawn from
    /// `len`.
    pub fn vec<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            len: len.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.max_excl.saturating_sub(self.len.min).max(1);
            let n = self.len.min + rng.below(span as u64) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Uniform boolean strategy (see [`ANY`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Generates `true` and `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use strategy::{BoxedStrategy, Just, Strategy};
pub use test_runner::{ProptestConfig, TestCaseError, TestRng};

/// Uniformly picks one of the listed strategies each case. All arms must
/// share a value type; weights are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Fails the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current test case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(
                    format!("{} (`{:?}` != `{:?}`)", format!($($fmt)+), l, r),
                ),
            );
        }
    }};
}

/// Fails the current test case unless the two values compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            l,
            r,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Declares property tests. Mirrors upstream's surface for the forms used
/// in this workspace: an optional `#![proptest_config(...)]` header and
/// `fn name(pat in strategy, ...) { body }` items with outer attributes.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    $crate::test_runner::BASE_SEED,
                    case,
                );
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {} of {} failed (seed {:#x}): {}",
                        case, config.cases, $crate::test_runner::BASE_SEED, e
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}
