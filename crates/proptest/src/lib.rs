//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The build environment for this repository has no crates.io access, so
//! the real crate cannot be fetched. This shim implements the API subset
//! the workspace's property tests use — the [`proptest!`] macro,
//! [`strategy::Strategy`] with `prop_map`/`prop_flat_map`, [`arbitrary::any`],
//! tuple and range strategies, [`collection::vec`] and
//! [`test_runner::ProptestConfig`] — with compatible signatures, so the
//! tests are written against the upstream API and would compile unchanged
//! against the real crate.
//!
//! Differences from upstream, by design:
//!
//! * **Stateless shrinking.** Upstream threads a `ValueTree` through
//!   every generated value; this shim instead asks the strategy for
//!   simpler candidates after the fact ([`strategy::Strategy::shrink`])
//!   and greedily re-runs the test body on them (budgeted at 512
//!   re-runs). Failures raised through the `prop_assert*` macros are
//!   minimized; a body that panics outright is reported unshrunk.
//! * **Deterministic generation.** Cases are derived from a fixed seed
//!   mixed with the test function's name, so failures reproduce exactly
//!   across runs; there is no persistence file (any
//!   `proptest-regressions/` files in the tree are inert).
//! * **Graph strategies.** [`graph::edge_list`] has no upstream
//!   counterpart: it generates random topologies and shrinks them
//!   structurally (delete-vertex, then delete-edge) so topology
//!   counterexamples come out minimal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrary;
pub mod collection;
pub mod graph;
pub mod strategy;
pub mod test_runner;

/// The `proptest::prelude` of the real crate: everything a property test
/// module needs.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property-test functions: each argument is drawn from its
/// strategy for `ProptestConfig::cases` iterations, and the body runs
/// once per case. A failure raised through the `prop_assert*` macros is
/// greedily minimized by re-running the body on the strategies'
/// [`strategy::Strategy::shrink`] candidates before being reported; a
/// body that panics outright is reported with its unshrunk inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $($(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                // The argument strategies as one tuple strategy, so the
                // shrink loop below gets per-argument shrinking for free.
                let strategies = ( $($strat,)+ );
                for case in 0..config.cases {
                    let values = $crate::strategy::Strategy::generate(&strategies, &mut rng);
                    let described = format!("{values:?}");
                    if let ::std::option::Option::Some((minimal, message)) = $crate::check_case(
                        &strategies,
                        values,
                        &|( $($pat,)+ )| {
                            $body
                            ::std::result::Result::Ok(())
                        },
                    ) {
                        panic!(
                            "proptest case {case}/{cases} failed: {message}\n  \
                             minimal inputs: {minimal:?}\n  original inputs: {described}",
                            cases = config.cases,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Runs one generated case behind [`proptest!`]: `None` if the body
/// passed, otherwise the failing value — minimized through
/// [`shrink_failure`] — and its failure message. Public for the macro
/// (the generic signature is also what lets the macro's body closure
/// infer its parameter type); not part of the upstream API.
pub fn check_case<S: strategy::Strategy>(
    strategy: &S,
    values: S::Value,
    body: &impl Fn(S::Value) -> Result<(), String>,
) -> Option<(S::Value, String)>
where
    S::Value: Clone,
{
    match body(values.clone()) {
        Ok(()) => None,
        Err(message) => Some(shrink_failure(strategy, values, message, body)),
    }
}

/// The greedy shrink loop behind [`proptest!`]: repeatedly takes the
/// first [`strategy::Strategy::shrink`] candidate that still fails,
/// restarting from it, until no candidate fails or the re-run budget
/// (512) is spent. Returns the simplest failing value found and its
/// failure message. Public for the macro; not part of the upstream API.
pub fn shrink_failure<S: strategy::Strategy>(
    strategy: &S,
    mut value: S::Value,
    mut message: String,
    run: &impl Fn(S::Value) -> Result<(), String>,
) -> (S::Value, String)
where
    S::Value: Clone,
{
    let mut budget = 512usize;
    'outer: while budget > 0 {
        for cand in strategy.shrink(&value) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(m) = run(cand.clone()) {
                value = cand;
                message = m;
                continue 'outer;
            }
        }
        break; // no candidate still fails: minimal
    }
    (value, message)
}

/// Fails the current property-test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current property-test case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(
                format!("assertion failed: {} == {}\n  left: {l:?}\n  right: {r:?}",
                        stringify!($left), stringify!($right)),
            );
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(
                format!("assertion failed: {} == {}: {}\n  left: {l:?}\n  right: {r:?}",
                        stringify!($left), stringify!($right), format!($($fmt)+)),
            );
        }
    }};
}

/// Fails the current property-test case unless the two values differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {}\n  both: {l:?}",
                stringify!($left),
                stringify!($right)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in 0u64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn tuples_and_vec(pair in (0usize..4, 0usize..4),
                          v in crate::collection::vec(any::<u8>(), 2..6)) {
            prop_assert!(pair.0 < 4 && pair.1 < 4);
            prop_assert!((2..6).contains(&v.len()));
        }

        #[test]
        fn flat_map_dependent_values(
            (n, i) in (1usize..10).prop_flat_map(|n| (Just(n), 0..n))
        ) {
            prop_assert!(i < n);
        }

        #[test]
        fn map_transforms(s in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert!(s % 2 == 0);
            prop_assert!(s < 20);
        }
    }

    #[test]
    #[should_panic(expected = "minimal inputs: (37,)")]
    fn failures_shrink_to_the_boundary() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn boundary(x in 0usize..1000) {
                prop_assert!(x < 37);
            }
        }
        boundary();
    }

    #[test]
    fn shrink_failure_is_budgeted_and_greedy() {
        // Directly exercise the loop: the minimal failing value of
        // "fails iff >= 37" under range shrinking is exactly 37.
        let strategy = 0usize..1000;
        let run = |v: usize| {
            if v >= 37 {
                Err("too big".to_string())
            } else {
                Ok(())
            }
        };
        let (minimal, msg) = crate::shrink_failure(&strategy, 912, "too big".into(), &run);
        assert_eq!(minimal, 37);
        assert_eq!(msg, "too big");
    }

    #[test]
    #[should_panic(expected = "assertion failed")]
    fn failures_are_reported() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(x in 0usize..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
