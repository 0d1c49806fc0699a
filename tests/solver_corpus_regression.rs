//! Corpus regression: the indexed solver must reproduce the naive engine's
//! corpora byte-for-byte.
//!
//! TESTGEN's generated tests are a deterministic function of the solution
//! *sequence* the solver enumerates (dedup by isomorphism signature keeps
//! the first representative of each class; materialisation is pure). The
//! rewrite of `scr_symbolic::solver` — compiled DAG arena, watch index,
//! forward checking, conflict-directed backjumping — therefore guarantees
//! unchanged corpora exactly when its enumeration matches the retired
//! naive backtracker's on the real analyzer conditions. These tests assert
//! that on live `analyze_pair` output, including a reduced-bounds
//! `lseek ∥ write` (the offset-arithmetic-heavy hot spot; at full bounds
//! the naive engine needs minutes, which is the reason the indexed engine
//! exists). The last test pins how many repairs the benchmark's
//! `sweep_open` sweep decides without a search.

use scalable_commutativity::commuter::{
    analyze_pair, enumerate_shapes, generate_tests, run_commuter_with_progress, solver_cache_clear,
    CommuterConfig, SweepEvent,
};
use scalable_commutativity::model::{CallKind, ModelConfig};
use scalable_commutativity::symbolic::solver::naive;
use scalable_commutativity::symbolic::{CaseSolver, Domains};

fn solver_domains() -> Domains {
    // Mirrors `scr_core::analyzer::default_domains`.
    Domains::new(vec![0, 1, 2, 3, 4])
}

/// Asserts both engines enumerate identical solution sequences for every
/// commutative case of every shape of the pair.
fn assert_pair_sequences_match(a: CallKind, b: CallKind, cfg: &ModelConfig, limit: usize) {
    let domains = solver_domains();
    let mut cases_checked = 0usize;
    for shape in enumerate_shapes(a, b, cfg) {
        for case in analyze_pair(&shape, cfg).cases {
            let fast = CaseSolver::new(&case.condition).all_solutions(&domains, limit);
            let slow = naive::all_solutions(&case.condition, &domains, limit);
            assert_eq!(
                fast,
                slow,
                "solution sequence diverged for {} ∥ {} shape {}",
                a.name(),
                b.name(),
                shape.tag
            );
            assert!(!fast.is_empty(), "commutative case must be satisfiable");
            cases_checked += 1;
        }
    }
    assert!(
        cases_checked > 0,
        "no cases for {} ∥ {}",
        a.name(),
        b.name()
    );
}

#[test]
fn name_and_descriptor_pairs_enumerate_identically() {
    let cfg = ModelConfig {
        names: 4,
        inodes: 2,
        procs: 1,
        fds_per_proc: 2,
        file_pages: 2,
        vm_pages: 2,
        sockets: 0,
        queue_cap: 0,
        children: 0,
    };
    assert_pair_sequences_match(CallKind::Stat, CallKind::Unlink, &cfg, 48);
    assert_pair_sequences_match(CallKind::Fstat, CallKind::Close, &cfg, 48);
}

#[test]
fn offset_arithmetic_pairs_enumerate_identically() {
    // Reduced bounds keep the naive oracle tractable; the arithmetic
    // structure (offsets through `ite` chains into state equality) is the
    // same one that blows the tree-walking evaluator up at full bounds.
    let cfg = ModelConfig {
        names: 2,
        inodes: 2,
        procs: 1,
        fds_per_proc: 2,
        file_pages: 2,
        vm_pages: 1,
        sockets: 0,
        queue_cap: 0,
        children: 0,
    };
    assert_pair_sequences_match(CallKind::Lseek, CallKind::Write, &cfg, 32);
    assert_pair_sequences_match(CallKind::Lseek, CallKind::Lseek, &cfg, 32);
}

#[test]
fn generated_corpus_is_deterministic_across_cache_states() {
    // The memoization layer must be transparent: a generation served from
    // a cold solver and one served from the warm caches yield the same
    // corpus, test for test.
    let cfg = ModelConfig {
        names: 4,
        inodes: 2,
        procs: 1,
        fds_per_proc: 2,
        file_pages: 2,
        vm_pages: 2,
        sockets: 0,
        queue_cap: 0,
        children: 0,
    };
    let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
    let mut all_runs = Vec::new();
    for round in 0..2 {
        if round == 0 {
            solver_cache_clear();
        }
        let mut fingerprints = Vec::new();
        for shape in enumerate_shapes(CallKind::Lseek, CallKind::Write, &cfg) {
            let analysis = analyze_pair(&shape, &cfg);
            let generated = generate_tests(&shape, &analysis.cases, &cfg, &names, 48);
            for test in &generated.tests {
                fingerprints.push(format!("{} {:?} {:?}", test.id, test.setup, test.ops));
            }
            fingerprints.push(format!("skips {:?}", generated.skip_reasons));
        }
        all_runs.push(fingerprints);
    }
    assert_eq!(
        all_runs[0], all_runs[1],
        "warm-cache corpus must equal the cold corpus"
    );
}

#[test]
fn sweep_open_repairs_are_decided_without_a_search() {
    // The benchmark's `sweep_open` sweep. Its EMFILE representatives pin
    // the one descriptor slot open, so the repair loop gives each up
    // without a search; only the representatives a completion might
    // rescue reach the completion cache. A regression that searches the
    // decided ones again shows up as completion misses.
    let quick = CommuterConfig::quick(&[CallKind::Open]);
    let config = CommuterConfig {
        model: ModelConfig {
            fds_per_proc: 1,
            ..quick.model
        },
        threads: 1,
        ..quick
    };
    solver_cache_clear();
    let mut cache = None;
    let results = run_commuter_with_progress(&config, &[], |event| {
        if let SweepEvent::PairDone { cache_delta, .. } = event {
            cache = Some(cache_delta);
        }
    });
    let cache = cache.expect("one pair");
    assert_eq!(
        (results.tests.len(), results.skipped, results.resolved),
        (246, 536, 40)
    );
    // Every skipped representative's pins fill the descriptor table, and
    // every search rescues its representative.
    assert_eq!(cache.repairs_decided, 536, "{cache:?}");
    assert_eq!(
        (cache.completion_misses, cache.completion_hits),
        (40, 0),
        "{cache:?}"
    );
}
