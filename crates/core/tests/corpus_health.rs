//! A census of the pair corpus's health on both simulated policies.
//!
//! Every generated pair test is replayed in both orders, `A;B` and `B;A`,
//! each on a fresh kernel, and three counts are pinned exactly per policy:
//!
//! * tests whose setup fails: the materialiser could not build the state
//!   the case asks for, so the test exercises an error path it never
//!   meant to;
//! * first-witness tests whose two orders return different results: the
//!   calls choose ids (descriptor, pid, socket slot) whose values depend
//!   on the order, so the raw results differ though the pair commutes;
//! * re-solved tests (id ends in `r`) whose two orders return different
//!   results: the case condition leaves free the descriptor slots the
//!   calls allocate from, so the completion the repair loop picks makes
//!   the outcome order-dependent.
//!
//! The counts describe today's corpus, defects included; a change that
//! moves one must say which tests moved. On a mismatch the test prints
//! each count's per-pair histogram. The sweep takes ~15 s in release.

use scr_core::{
    replay, run_commuter, CommuterConfig, ConcreteTest, InOrder, KernelFactory, LinuxLikeFactory,
    Sv6Factory,
};
use std::collections::BTreeMap;

/// Tests whose setup fails.
const SETUP_FAILURES: usize = 144;
/// First-witness tests whose two orders return different results.
const ORDER_DEPENDENT_FIRST: usize = 50;
/// Re-solved tests whose two orders return different results.
const ORDER_DEPENDENT_RESOLVED: usize = 53;

/// One count as a per-pair histogram.
type Census = BTreeMap<String, usize>;

fn add(census: &mut Census, test: &ConcreteTest) {
    let pair: Vec<&str> = test.calls.iter().map(|call| call.name()).collect();
    *census.entry(pair.join("_")).or_default() += 1;
}

/// The three censuses of `tests` replayed in both orders on `factory`.
fn census(factory: &dyn KernelFactory, tests: &[ConcreteTest]) -> [Census; 3] {
    let [mut setup, mut first, mut resolved] = [(); 3].map(|_| Census::new());
    for test in tests {
        let [forward, backward] = [[0, 1], [1, 0]].map(|order| {
            let kernel = factory.build();
            replay(&kernel, kernel.lines(), test, InOrder(&order))
        });
        if !forward.setup_ok || !backward.setup_ok {
            add(&mut setup, test);
        }
        if forward.results != backward.results {
            add(
                if test.id.ends_with('r') {
                    &mut resolved
                } else {
                    &mut first
                },
                test,
            );
        }
    }
    [setup, first, resolved]
}

#[test]
fn pair_corpus_census_is_pinned_on_both_policies() {
    let config = CommuterConfig {
        threads: 2,
        ..Default::default()
    };
    let tests = run_commuter(&config, &[]).tests;
    assert!(tests.iter().all(|test| test.ops.len() == 2));
    let factories: [&dyn KernelFactory; 2] =
        [&Sv6Factory { cores: 4 }, &LinuxLikeFactory { cores: 4 }];
    let mut mismatches = Vec::new();
    for factory in factories {
        let counts = census(factory, &tests);
        let expected = [
            ("setup failures", SETUP_FAILURES),
            ("order-dependent first-witness tests", ORDER_DEPENDENT_FIRST),
            ("order-dependent re-solved tests", ORDER_DEPENDENT_RESOLVED),
        ];
        for ((what, want), pairs) in expected.into_iter().zip(&counts) {
            let got: usize = pairs.values().sum();
            if got != want {
                mismatches.push(format!(
                    "{}: {got} {what}, expected {want}; per pair: {pairs:?}",
                    factory.name()
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} tests:\n{}",
        tests.len(),
        mismatches.join("\n")
    );
}
