//! Minimal local stand-in for the `proptest` crate (the build environment
//! has no registry access).
//!
//! It implements the subset of the proptest API this workspace's tests use:
//! the [`proptest!`] macro, [`Strategy`](strategy::Strategy) with
//! `prop_map`, `any::<T>()`, range and tuple strategies, `prop_oneof!`,
//! `Just`, and `collection::{vec, btree_set}`. Generation is random but
//! **deterministic** (seeded from the test name), with no shrinking: a
//! failing case panics with the case number so it can be reproduced by
//! rerunning the test.

pub mod rng {
    /// A small deterministic xorshift* generator. Not cryptographic; only
    /// needs to be fast and well-spread for test-case generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from an arbitrary string (the test name).
        pub fn from_seed_str(seed: &str) -> Self {
            let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
            for byte in seed.as_bytes() {
                state ^= *byte as u64;
                state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                state ^= state >> 27;
            }
            TestRng {
                state: state | 1, // never zero
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// A value uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// A boolean with probability 1/2.
        pub fn coin(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }
}

pub mod strategy {
    use super::rng::TestRng;
    use std::ops::Range;

    /// A generator of values of type `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree or shrinking: `sample`
    /// draws one concrete value.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Boxes the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: std::rc::Rc::new(self),
            }
        }
    }

    /// Blanket impl so `&S` is a strategy too.
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<V> {
        inner: std::rc::Rc<dyn Strategy<Value = V>>,
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn sample(&self, rng: &mut TestRng) -> V {
            self.inner.sample(rng)
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone, Copy, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over the given alternatives; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn sample(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty => $wide:ty),* $(,)?) => {
            $(
                impl Strategy for Range<$t> {
                    type Value = $t;

                    fn sample(&self, rng: &mut TestRng) -> $t {
                        assert!(self.start < self.end, "empty range strategy");
                        let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                        (self.start as $wide).wrapping_add(rng.below(span) as $wide) as $t
                    }
                }
            )*
        };
    }

    int_range_strategy!(
        u8 => u64,
        u16 => u64,
        u32 => u64,
        u64 => u64,
        usize => u64,
        i8 => i64,
        i16 => i64,
        i32 => i64,
        i64 => i64,
        isize => i64,
    );

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {
            $(
                impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                    type Value = ($($name::Value,)+);

                    #[allow(non_snake_case)]
                    fn sample(&self, rng: &mut TestRng) -> Self::Value {
                        let ($($name,)+) = self;
                        ($($name.sample(rng),)+)
                    }
                }
            )*
        };
    }

    tuple_strategy!((A)(A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E)(
        A, B, C, D, E, G
    ));
}

pub mod arbitrary {
    use super::rng::TestRng;
    use super::strategy::Strategy;
    use std::marker::PhantomData;

    /// Types with a canonical strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.coin()
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),* $(,)?) => {
            $(
                impl Arbitrary for $t {
                    fn arbitrary(rng: &mut TestRng) -> $t {
                        rng.next_u64() as $t
                    }
                }
            )*
        };
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl<T: Arbitrary> Arbitrary for Option<T> {
        fn arbitrary(rng: &mut TestRng) -> Option<T> {
            if rng.coin() {
                Some(T::arbitrary(rng))
            } else {
                None
            }
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::rng::TestRng;
    use super::strategy::Strategy;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Accepted size arguments for [`vec()`]/[`btree_set`]: a `usize` (exact
    /// length) or a `Range<usize>`.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            Strategy::sample(self, rng)
        }
    }

    /// Generates `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy for vectors with the given element strategy and size.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Generates `BTreeSet`s (duplicates shrink the set below the drawn
    /// length, as in real proptest).
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy for ordered sets with the given element strategy and size.
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }
}

pub mod test_runner {
    /// Runner configuration; only the case count is honoured.
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

pub mod prelude {
    pub use super::arbitrary::{any, Arbitrary};
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::test_runner::Config as ProptestConfig;
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Re-export for macro use.
#[doc(hidden)]
pub use rng::TestRng as __TestRng;

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Assertion inside a property body (panics with the failing expression; no
/// shrinking in the shim, so this is a plain assert with context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*)
    };
}

/// Inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*)
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` that draws `config.cases` samples and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (
        $(#[$meta:meta])*
        fn $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($crate::test_runner::Config::default()) $(#[$meta])* fn $($rest)*);
    };
    (@with_config ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut rng = $crate::__TestRng::from_seed_str(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let ($($arg,)+) = {
                        use $crate::strategy::Strategy as _;
                        ($(($strategy).sample(&mut rng),)+)
                    };
                    let run = || -> () { $body };
                    let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run));
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest shim: case {} of {} failed in {}",
                            case + 1,
                            config.cases,
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_within_bounds() {
        let mut rng = crate::rng::TestRng::from_seed_str("bounds");
        for _ in 0..200 {
            let v = Strategy::sample(&(-3i64..4), &mut rng);
            assert!((-3..4).contains(&v));
            let u = Strategy::sample(&(0usize..7), &mut rng);
            assert!(u < 7);
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let strategy = prop_oneof![(0u8..4).prop_map(|v| v as i64), Just(-1i64),];
        let mut rng = crate::rng::TestRng::from_seed_str("oneof");
        let mut saw_negative = false;
        for _ in 0..100 {
            let v = Strategy::sample(&strategy, &mut rng);
            assert!(v == -1 || (0..4).contains(&v));
            saw_negative |= v == -1;
        }
        assert!(saw_negative, "union must pick every arm eventually");
    }

    #[test]
    fn collections_honour_sizes() {
        let mut rng = crate::rng::TestRng::from_seed_str("sizes");
        let v = Strategy::sample(&crate::collection::vec(0i64..4, 3usize), &mut rng);
        assert_eq!(v.len(), 3);
        let v = Strategy::sample(&crate::collection::vec(any::<u8>(), 1..12), &mut rng);
        assert!((1..12).contains(&v.len()));
        let s = Strategy::sample(&crate::collection::btree_set(0usize..6, 0..4), &mut rng);
        assert!(s.len() < 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_runs(x in 0i64..10, flips in crate::collection::vec(any::<bool>(), 0..4)) {
            prop_assert!(x >= 0);
            prop_assert!(flips.len() < 4);
        }
    }
}
