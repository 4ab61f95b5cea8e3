//! Offline shim for `proptest`: a deterministic mini property-testing
//! harness exposing the subset of the proptest macro surface this
//! workspace uses — the `proptest!` item macro, range / tuple / `any` /
//! `prop::collection::vec` strategies, and the `prop_assert*` family.
//!
//! Unlike the real proptest there is **no shrinking**: a failing case
//! reports its case index and message, and cases are derived
//! deterministically from the test's module path and name, so failures
//! reproduce exactly on re-run. See `shims/README.md`.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Sentinel error message used by `prop_assume!` to signal "skip this
/// case" rather than "fail the test".
pub const ASSUME_REJECT: &str = "__proptest_shim_assume_reject__";

/// Per-test configuration (case count only).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic per-case entropy source (splitmix64 seeded from the test
/// identity and case index).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case `case` of the test identified by `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            state: h ^ ((case as u64) << 1 | 1),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A value generator. Implemented for ranges, tuples, [`Any`], and
/// collection strategies.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() - *self.start()) as u64 + 1;
                self.start() + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize);

macro_rules! impl_range_strategy_float {
    ($t:ty, $bits:expr) => {
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let unit = (rng.next_u64() >> (64 - $bits)) as $t / (1u64 << $bits) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
    };
}
impl_range_strategy_float!(f32, 24);
impl_range_strategy_float!(f64, 53);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> [T; N] {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Strategy drawing unconstrained values of `T` (see [`any`]).
pub struct Any<T>(std::marker::PhantomData<T>);

/// The `any::<T>()` strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Mirror of the `proptest::prop` module path.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::Range;

        /// Strategy for `Vec`s with random length and elements.
        pub struct VecStrategy<S> {
            elem: S,
            len: Range<usize>,
        }

        /// A `Vec` strategy: `len` elements drawn from `elem`.
        pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { elem, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.generate(rng);
                (0..n).map(|_| self.elem.generate(rng)).collect()
            }
        }
    }
}

/// Everything a `proptest!`-using test file needs.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

/// The top-level item macro: wraps `fn name(arg in strategy, ...) { .. }`
/// test definitions into plain `#[test]` functions running N deterministic
/// cases each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr;) => {};
    ($cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::TestRng::for_case(__name, __case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                let mut __run = || -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    Ok(())
                };
                match __run() {
                    Ok(()) => {}
                    Err(__msg) if __msg == $crate::ASSUME_REJECT => {}
                    Err(__msg) => {
                        // The body may have consumed its arguments: draw
                        // the case again to name the counter-example.
                        let mut __rng = $crate::TestRng::for_case(__name, __case);
                        $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                        let __args: ::std::vec::Vec<::std::string::String> =
                            vec![$(format!("{} = {:?}", stringify!($arg), $arg)),*];
                        panic!(
                            "property failed at case {}/{}: {}\n  with {}",
                            __case, __cfg.cases, __msg, __args.join(", ")
                        )
                    }
                }
            }
        }
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
}

/// `assert!` that fails the current property case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` that fails the current property case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let __a = $a;
        let __b = $b;
        if !(__a == __b) {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), __a, __b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let __a = $a;
        let __b = $b;
        if !(__a == __b) {
            return Err(format!($($fmt)+));
        }
    }};
}

/// `assert_ne!` that fails the current property case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let __a = $a;
        let __b = $b;
        if __a == __b {
            return Err(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            ));
        }
    }};
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::ASSUME_REJECT.to_string());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_in_bounds(x in 3u32..20, y in 1u32..=4, f in 0.25f32..0.75) {
            prop_assert!((3..20).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f), "f out of range: {f}");
        }

        #[test]
        fn tuples_and_vecs(v in prop::collection::vec((0u32..8, any::<[u8; 3]>()), 1..40)) {
            prop_assert!(!v.is_empty() && v.len() < 40);
            for (x, _rgb) in &v {
                prop_assert!(*x < 8);
            }
        }

        #[test]
        fn assume_skips(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn deterministic_cases() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_propagate() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(_x in 0u32..10) {
                prop_assert!(false, "boom");
            }
        }
        always_fails();
    }

    /// The failure names every generated argument, so the case can be
    /// replayed as a directed test — also when the body consumed them.
    #[test]
    #[should_panic(expected = "with n = 7, v = [7, 7]")]
    fn failure_message_prints_the_generated_arguments() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            fn fails(n in 7u32..8, v in prop::collection::vec(7u8..8, 2..3)) {
                drop(v);
                prop_assert!(n != 7, "boom");
            }
        }
        fails();
    }
}
