//! Offline stand-in for `proptest`.
//!
//! The build environment cannot reach crates.io, so this crate provides the
//! subset of the proptest API that this workspace's property tests use:
//! the [`Strategy`](strategy::Strategy) trait (ranges, tuples, `Just`,
//! `prop_map`, weighted unions, a small regex subset for `&str`),
//! `any::<T>()`, `collection::vec`, [`ProptestConfig`](test_runner::ProptestConfig),
//! and the `proptest!` / `prop_assert!` / `prop_assert_eq!` / `prop_oneof!`
//! macros.
//!
//! Differences from upstream, deliberately accepted:
//! - **No shrinking.** A failing case reports its case index and the
//!   per-test seed; reruns are fully deterministic, so the failure
//!   reproduces exactly.
//! - **Deterministic by construction.** Each generated test derives its RNG
//!   seed from the test's name, so a given binary always explores the same
//!   cases. This is a feature here: the workspace's tier-1 suite must be
//!   reproducible run-to-run.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values for property tests. Unlike upstream there is
    /// no value tree / shrinking; `generate` returns a final value.
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy, as produced by [`Strategy::boxed`].
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    /// Box a strategy; used by `prop_oneof!` to unify arm types.
    pub fn box_strategy<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy adapter produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Weighted choice between boxed strategies, as built by `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Build from `(weight, strategy)` arms. Panics if empty or all
        /// weights are zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                let w = *w as u64;
                if pick < w {
                    return s.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weights summed to total")
        }
    }

    macro_rules! impl_range_strategy_uint {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }
    impl_range_strategy_uint!(u8, u16, u32, u64, usize);

    macro_rules! impl_range_strategy_int {
        ($($t:ty : $u:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                    (self.start as $u).wrapping_add(rng.below(span) as $u) as $t
                }
            }
        )*};
    }
    impl_range_strategy_int!(i8: u8, i16: u16, i32: u32, i64: u64, isize: usize);

    macro_rules! impl_range_strategy_float {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let u = rng.unit_f64() as $t;
                    self.start + u * (self.end - self.start)
                }
            }
        )*};
    }
    impl_range_strategy_float!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($t:ident . $idx:tt),+))*) => {$(
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// `&str` strategies interpret the string as a small regex subset:
    /// literal characters, `[a-z0-9_]`-style classes (ranges and single
    /// chars), `.` for printable ASCII, each optionally repeated with
    /// `{m}` or `{m,n}`. This covers the patterns used in this workspace
    /// (e.g. `"[a-z]{1,12}"`).
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            // Parse one atom into a set of candidate characters.
            let candidates: Vec<char> = match chars[i] {
                '[' => {
                    let mut set = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            let (lo, hi) = (chars[i], chars[i + 2]);
                            assert!(lo <= hi, "bad class range in {pattern:?}");
                            set.extend((lo..=hi).filter(|c| c.is_ascii()));
                            i += 3;
                        } else {
                            set.push(chars[i]);
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in {pattern:?}");
                    i += 1; // consume ']'
                    set
                }
                '.' => {
                    i += 1;
                    (' '..='~').collect()
                }
                '\\' => {
                    assert!(i + 1 < chars.len(), "trailing escape in {pattern:?}");
                    let c = chars[i + 1];
                    i += 2;
                    vec![c]
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            // Optional {m} / {m,n} repetition.
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated repetition") + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse::<usize>().expect("bad repeat"),
                        n.trim().parse::<usize>().expect("bad repeat"),
                    ),
                    None => {
                        let m = body.trim().parse::<usize>().expect("bad repeat");
                        (m, m)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(!candidates.is_empty(), "empty atom in {pattern:?}");
            let count = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..count {
                out.push(candidates[rng.below(candidates.len() as u64) as usize]);
            }
        }
        out
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Draw a value from the full domain of the type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Strategy over the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite values only: property tests here treat f64 as data,
            // not as an IEEE edge-case hunt.
            rng.unit_f64() * 2e9 - 1e9
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            (rng.unit_f64() * 2e9 - 1e9) as f32
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            // Printable ASCII keeps generated data readable in failures.
            (b' ' + rng.below(95) as u8) as char
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Number of elements for a generated collection.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive upper bound.
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vec of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Per-`proptest!` block configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases each property runs.
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
            // Upstream defaults to 256; 64 keeps the tier-1 suite quick
            // while still exploring a meaningful slice of each domain.
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic xoshiro256++ generator used by all strategies.
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seed from a test name so every property gets a distinct but
        /// stable stream.
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name, then SplitMix64 to fill the state.
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            Self::from_seed(h)
        }

        /// Seed from a 64-bit value via SplitMix64 expansion.
        pub fn from_seed(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            let mut s = [next(), next(), next(), next()];
            if s.iter().all(|&w| w == 0) {
                s[0] = 0x9e3779b97f4a7c15;
            }
            TestRng { s }
        }

        /// Next raw 64-bit output (xoshiro256++).
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform draw in `[0, bound)` via multiply-shift.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform draw in `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Prints the failing case index if a property panics; disarmed on
    /// success. Poor man's replacement for proptest's failure persistence.
    pub struct CaseGuard {
        case: u32,
        name: &'static str,
        armed: bool,
    }

    impl CaseGuard {
        /// Guard reporting `name`/`case` if dropped during a panic.
        pub fn new(name: &'static str, case: u32) -> Self {
            CaseGuard { case, name, armed: true }
        }

        /// Mark the case as passed.
        pub fn disarm(mut self) {
            self.armed = false;
        }
    }

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if self.armed && std::thread::panicking() {
                eprintln!(
                    "proptest shim: property `{}` failed at case {} \
                     (deterministic; rerun reproduces exactly)",
                    self.name, self.case
                );
            }
        }
    }
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for __case in 0..__cfg.cases {
                let __guard =
                    $crate::test_runner::CaseGuard::new(stringify!($name), __case);
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                { $body }
                __guard.disarm();
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Assert inside a property; alias for `assert!` (no shrinking here).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property; alias for `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality inside a property; alias for `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Weighted choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::box_strategy($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(1.0f64..2.0), &mut rng);
            assert!((1.0..2.0).contains(&f));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn string_pattern_subset() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{1,12}", &mut rng);
            assert!((1..=12).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = Strategy::generate(&"ab[0-9]{2}", &mut rng);
            assert_eq!(t.len(), 4);
            assert!(t.starts_with("ab"));
            assert!(t[2..].chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let strat = prop_oneof![
            2 => Just(0u64),
            1 => (1u64..10).prop_map(|v| v * 100),
        ];
        let mut rng = TestRng::from_seed(3);
        let mut saw_zero = false;
        let mut saw_mapped = false;
        for _ in 0..200 {
            match Strategy::generate(&strat, &mut rng) {
                0 => saw_zero = true,
                v if (100..1000).contains(&v) && v % 100 == 0 => saw_mapped = true,
                v => panic!("unexpected value {v}"),
            }
        }
        assert!(saw_zero && saw_mapped);
    }

    #[test]
    fn collection_vec_sizes() {
        let strat = crate::collection::vec(0u8..10, 3..6);
        let mut rng = TestRng::from_seed(9);
        for _ in 0..200 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((3..6).contains(&v.len()));
            assert!(v.iter().all(|&b| b < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        #[allow(clippy::len_zero)]
        fn macro_generates_cases(
            n in 1u64..100,
            mut v in crate::collection::vec(any::<u8>(), 1..8),
            label in "[a-z]{1,4}",
        ) {
            v.push(n as u8);
            prop_assert!(v.len() >= 2);
            prop_assert!(label.len() >= 1 && label.len() <= 4);
            prop_assert_eq!(*v.last().unwrap(), n as u8);
        }
    }
}
