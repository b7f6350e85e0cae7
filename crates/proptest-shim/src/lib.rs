//! Offline shim for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no network access, so the real crate cannot
//! be fetched; this workspace-local package provides the subset of the
//! proptest API the test suite uses, with the same names and shapes:
//!
//! * the [`proptest!`] macro (with an optional `#![proptest_config(..)]`
//!   inner attribute),
//! * [`Strategy`] with `prop_map` / `prop_flat_map` / `prop_filter`,
//! * range strategies (`0usize..40`, `0.01f64..1.0`, `a..=b`), tuples of
//!   strategies, [`any`], [`Just`], and `prop::collection::vec`,
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assume!`.
//!
//! Semantics differ from real proptest in one deliberate way: cases are
//! generated from a **fixed deterministic seed** (derived from the test
//! name), so failures are reproducible without a persistence file, and
//! there is **no shrinking** — the failing inputs are reported as-is by
//! the standard assert panic message.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator handed to strategies (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for one `(test name, case index)` pair — stable across runs.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            state: h ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case as u64 + 1)),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// How many random cases to run per property.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the offline suite quick
        // while still exercising a spread of inputs.
        ProptestConfig { cases: 64 }
    }
}

/// A value generator. Unlike real proptest there is no shrinking tree —
/// `sample` produces the final value directly.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { base: self, f }
    }

    /// Generate a value, then use it to build and sample a second strategy.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { base: self, f }
    }

    /// Reject values failing `pred` (resamples; panics after 1000 misses).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            base: self,
            reason,
            pred,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.base.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.sample(rng)).sample(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    base: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.base.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 consecutive samples: {}",
            self.reason
        );
    }
}

/// Always produces a clone of the given value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u8, u16, u32, u64);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty float range strategy");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (rng.next_f64() as $t) * (hi - lo)
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4)
);

/// Types with a canonical full-domain strategy (see [`any`]).
pub trait Arbitrary {
    /// Draw an arbitrary value of this type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: the suite uses these as ordinary numerics.
        (rng.next_f64() - 0.5) * 2.0e6
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        ((rng.next_f64() - 0.5) * 2.0e6) as f32
    }
}

/// Full-domain strategy for `T` (`any::<u64>()` etc).
pub struct Any<T>(PhantomData<T>);

/// Strategy producing arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Inclusive length bounds for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    /// Smallest allowed length.
    pub min: usize,
    /// Largest allowed length (inclusive).
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Vectors of `elem`-generated values with length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{any, Arbitrary, Just, ProptestConfig, SizeRange, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Mirror of `proptest::prelude::prop` (module-path strategies).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert inside a property (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// Skip the current case when its inputs are unsuitable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `body` over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                #[allow(clippy::redundant_closure_call)]
                let mut case_fn = || {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    $body
                };
                case_fn();
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("ranges_respect_bounds", 0);
        for _ in 0..500 {
            let v = Strategy::sample(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let f = Strategy::sample(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
            let i = Strategy::sample(&(5u64..=5), &mut rng);
            assert_eq!(i, 5);
        }
    }

    #[test]
    fn vec_lengths_in_range() {
        let mut rng = TestRng::for_case("vec_lengths_in_range", 1);
        for _ in 0..200 {
            let v = Strategy::sample(&prop::collection::vec(0usize..4, 2..6), &mut rng);
            assert!((2..=5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn deterministic_per_name_and_case() {
        let a: Vec<u64> = (0..8)
            .map(|c| TestRng::for_case("x", c).next_u64())
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|c| TestRng::for_case("x", c).next_u64())
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            TestRng::for_case("x", 0).next_u64(),
            TestRng::for_case("y", 0).next_u64()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_roundtrip(n in 1usize..50, seed in any::<u64>()) {
            prop_assume!(n > 0);
            prop_assert!(n < 50);
            let _ = seed;
            prop_assert_eq!(n + 1, 1 + n);
        }
    }
}
