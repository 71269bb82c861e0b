//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`] trait over numeric ranges, tuples and vectors,
//! `prop_map`, the `proptest!` macro (with optional
//! `#![proptest_config(…)]` header), and the `prop_assert*` /
//! `prop_assume!` macros. Cases are generated deterministically — the
//! per-test RNG stream is derived from the test's name — so failures
//! reproduce without a persistence file. No shrinking: the failing
//! inputs are reported as-is in the panic message.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// The RNG handed to strategies. Newtyped so the macro surface does not
/// leak the backing generator.
pub struct TestRng(StdRng);

impl TestRng {
    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.random::<f64>()
    }

    /// Uniform draw in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.0.random_range(0..bound)
        }
    }
}

/// Generates values of an associated type from a [`TestRng`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (proptest's `prop_map`).
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() - *self.start()) as u64;
                // below(span + 1) covers the inclusive upper bound;
                // span + 1 == 0 only for the full u64 domain, where
                // below(0) returning 0 is as good a draw as any.
                *self.start() + rng.below(span.wrapping_add(1)) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

/// A strategy producing one fixed value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

pub mod bool {
    //! Boolean strategies (`proptest::bool::ANY`).

    use super::{Strategy, TestRng};

    /// Strategy drawing `true`/`false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The boolean strategy (mirrors `proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }
}

pub mod option {
    //! Option strategies (`proptest::option::of`).

    use super::{Strategy, TestRng};

    /// Strategy for `Option<S::Value>`, `None` about a quarter of the
    /// time (the real crate's default weighting).
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Wraps a strategy in `Option` (mirrors `proptest::option::of`).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use super::{Strategy, TestRng};

    /// Size specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Creates a vector strategy (mirrors `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration (`ProptestConfig::with_cases` is the only knob
/// this workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real proptest defaults to 256; 128 keeps the heavier
        // engine-level properties fast while retaining useful coverage.
        Self { cases: 128 }
    }
}

#[doc(hidden)]
pub enum CaseResult {
    Pass,
    /// Case rejected by `prop_assume!` — does not count as a failure.
    Reject,
    Fail(String),
}

/// Drives one property: `cases` deterministic cases seeded from the test
/// name. Panics (failing the enclosing `#[test]`) on the first failed
/// case, reporting the case index and seed.
#[doc(hidden)]
pub fn run_cases(name: &str, config: &ProptestConfig, mut case: impl FnMut(&mut TestRng) -> CaseResult) {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut seed: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x1_0000_0000_01B3);
    }
    let mut rejects: u32 = 0;
    let max_rejects = config.cases.saturating_mul(16).max(1024);
    let mut i = 0;
    while i < config.cases {
        let mut rng = TestRng(StdRng::seed_from_u64(seed.wrapping_add(i as u64 + rejects as u64 * 0x9E37)));
        match case(&mut rng) {
            CaseResult::Pass => i += 1,
            CaseResult::Reject => {
                rejects += 1;
                assert!(
                    rejects <= max_rejects,
                    "property `{name}`: too many prop_assume! rejections ({rejects})"
                );
            }
            CaseResult::Fail(msg) => {
                panic!("property `{name}` failed at case {i} (seed {seed:#x}): {msg}");
            }
        }
    }
}

/// Everything the tests import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Asserts a condition inside a property, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return $crate::CaseResult::Fail(format!($($fmt)*));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{:?} != {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "{:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "{:?} == {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return $crate::CaseResult::Reject;
        }
    };
}

/// Declares property tests. Mirrors proptest's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn my_property(x in 0u64..100, v in collection::vec(0.0f64..1.0, 0..10)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __pt_config = $cfg;
            $crate::run_cases(stringify!($name), &__pt_config, |__pt_rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __pt_rng);)+
                let mut __pt_case = move || -> $crate::CaseResult {
                    $body
                    $crate::CaseResult::Pass
                };
                __pt_case()
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = crate::TestRng(rand::rngs::StdRng::seed_from_u64(1));
        use rand::SeedableRng as _;
        for _ in 0..1000 {
            let x = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let f = (-1.0f64..1.0).generate(&mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        use rand::SeedableRng as _;
        let mut rng = crate::TestRng(rand::rngs::StdRng::seed_from_u64(2));
        let strat = collection::vec((0.0f64..1.0, 1u64..5), 2..7);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
            for (f, i) in &v {
                assert!((0.0..1.0).contains(f));
                assert!((1..5).contains(i));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_asserts(x in 1u32..100, v in collection::vec(0usize..10, 0..5)) {
            prop_assert!((1..100).contains(&x));
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x, 0);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x > 4);
            prop_assert!(x > 4);
        }

        #[test]
        fn prop_map_transforms(v in collection::vec(0.0f64..10.0, 1..6).prop_map(|mut v| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        })) {
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_reports_case() {
        crate::run_cases(
            "always_fails",
            &ProptestConfig::with_cases(3),
            |_rng| crate::CaseResult::Fail("nope".into()),
        );
    }
}
