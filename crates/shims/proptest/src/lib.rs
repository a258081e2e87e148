//! Offline stand-in for the `proptest` crate.
//!
//! The build environment resolves no external registries, so this
//! crate implements the subset of proptest the workspace's property
//! tests use: the [`proptest!`] macro, integer/float range strategies
//! (half-open and inclusive), `any::<T>()`, tuple strategies,
//! [`collection::vec`], `prop_assert!`/`prop_assert_eq!`, and
//! `prop_assume!`. Sampling is deterministic: every test function
//! derives its RNG stream from its own name, so failures reproduce
//! across runs without a persistence file.
//!
//! Unsupported proptest features (shrinking, `prop_compose!`,
//! `prop_oneof!`, custom `Arbitrary` impls) are intentionally absent;
//! add them here if a test needs them.

use std::ops::{Range, RangeInclusive};

/// Runner configuration (subset of `proptest::test_runner::TestRunnerConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default (256) makes the heavier codec properties
        // slow under the simulated codec; 64 keeps the same coverage
        // spirit at interactive test latency.
        ProptestConfig { cases: 64 }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    Fail(String),
    Reject,
}

/// Deterministic xorshift64* stream used to sample strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_name_and_case(name: &str, case: u64) -> Self {
        // FNV-1a over the test name, mixed with the case ordinal.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut z = h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        TestRng { state: z | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator (subset of `proptest::strategy::Strategy` —
/// sampling only, no shrinking).
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.unit_f64() as $t * (self.end - self.start)
            }
        }
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.unit_f64() as $t
            }
        }
    )*};
}

impl_float_strategies!(f32, f64);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Types `any::<T>()` can produce.
pub trait ArbitraryValue {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T> std::fmt::Debug for Any<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Any<{}>", std::any::type_name::<T>())
    }
}

/// `any::<T>()`: uniform over the whole domain of `T`.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> std::fmt::Debug for Just<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // No `T: Debug` bound, matching upstream's unconstrained use.
        write!(f, "Just<{}>", std::any::type_name::<T>())
    }
}

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length bound for [`vec()`]: an exact size or a half-open range.
    #[derive(Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    pub struct VecStrategy<S: Strategy> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> std::fmt::Debug for VecStrategy<S> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // Strategies carry no `Debug` bound of their own.
            f.debug_struct("VecStrategy").field("size", &self.size).finish_non_exhaustive()
        }
    }

    /// `vec(strategy, len)`: vectors whose elements are drawn from
    /// `strategy` and whose length is drawn from `len`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything the `proptest!` test bodies expect in scope.
pub mod prelude {
    pub use crate::collection as prop_collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Drives one property function: samples each argument `cases` times
/// and panics with the failing inputs on the first failure. Rejected
/// cases (via `prop_assume!`) are retried without counting, up to a
/// global attempt budget.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($cfg) $($rest)*);
    };
    (@funcs ($cfg:expr) $(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut attempts_left: u64 = config.cases as u64 * 16;
            let mut case: u64 = 0;
            let mut passed: u32 = 0;
            while passed < config.cases {
                assert!(attempts_left > 0, "proptest: too many rejected cases");
                attempts_left -= 1;
                let mut rng = $crate::TestRng::from_name_and_case(stringify!($name), case);
                case += 1;
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, "),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::TestCaseError::Reject) => {}
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {} failed: {}\n  inputs: {}",
                            case - 1, msg, inputs
                        );
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError::Fail(format!(
                "{} != {}\n  left: {:?}\n  right: {:?}",
                stringify!($a), stringify!($b), a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return Err($crate::TestCaseError::Fail(format!(
                "{} == {}\n  both: {:?}",
                stringify!($a), stringify!($b), a
            )));
        }
    }};
}

/// Skips the current case when its sampled inputs are out of domain.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(v in 3u32..10, f in -1.0f64..1.0) {
            prop_assert!((3..10).contains(&v));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn inclusive_hits_endpoints(v in 0u8..=1) {
            prop_assert!(v <= 1);
        }

        #[test]
        fn tuples_and_vecs(pair in (0u64..5, 0.0f64..1.0), vs in crate::collection::vec(0i32..3, 1..4)) {
            prop_assert!(pair.0 < 5);
            prop_assert!(!vs.is_empty() && vs.len() < 4);
            prop_assert!(vs.iter().all(|v| (0..3).contains(v)));
        }

        #[test]
        fn assume_rejects_without_failing(v in 0u32..100) {
            prop_assume!(v % 2 == 0);
            prop_assert!(v % 2 == 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(v in any::<u64>()) {
            let _ = v;
            prop_assert!(true);
        }
    }

    #[test]
    fn deterministic_sampling() {
        let s = 0u64..1000;
        let mut a = crate::TestRng::from_name_and_case("x", 3);
        let mut b = crate::TestRng::from_name_and_case("x", 3);
        assert_eq!(Strategy::sample(&s, &mut a), Strategy::sample(&s, &mut b));
    }
}
