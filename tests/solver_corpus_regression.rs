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
//! exists). The last two tests pin how many repairs the benchmark's
//! `sweep_open` sweep decides without a search, and check that every
//! rejected representative is counted exactly once, as decided or
//! searched, at any worker count.

use scalable_commutativity::commuter::{
    analyze_pair, enumerate_shapes, generate_tests, run_commuter_with_progress, run_sweep,
    CommuterConfig, SweepEvent, Swept,
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
fn generation_keeps_no_hidden_process_state() {
    // TESTGEN is a function of its inputs: a second generation in the same
    // process, after the first has run, yields the same corpus, test for
    // test. State that outlived a call (a memo, a counter steering the
    // search) would show here.
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
    for _ in 0..2 {
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
        "the second generation must equal the first"
    );
}

#[test]
fn sweep_open_repairs_are_decided_without_a_search() {
    // The benchmark's `sweep_open` sweep. Its EMFILE representatives pin
    // the one descriptor slot open, so the repair loop gives each up
    // without a search; only the representatives a completion might
    // rescue are searched. A regression that searches the decided ones
    // again shows up as more searches.
    let quick = CommuterConfig::quick(&[CallKind::Open]);
    let config = CommuterConfig {
        model: ModelConfig {
            fds_per_proc: 1,
            ..quick.model
        },
        threads: 1,
        ..quick
    };
    let results = run_commuter_with_progress(&config, &[], |_| {});
    let [timing] = &results.pair_timings[..] else {
        panic!("one pair, got {}", results.pair_timings.len());
    };
    assert_eq!(
        (results.tests.len(), results.skipped, results.resolved),
        (246, 536, 40)
    );
    // Every skipped representative's pins fill the descriptor table, and
    // every search rescues its representative.
    assert_eq!(
        (timing.repairs_decided, timing.repair_searches),
        (536, 40),
        "{timing:?}"
    );
}

/// Per pair: (calls, repairs decided, repair searches, skipped, resolved),
/// the last two summed over the pair's units.
type RepairRow = ((CallKind, CallKind), usize, usize, usize, usize);

fn repair_rows(calls: &[CallKind], threads: usize) -> Vec<RepairRow> {
    let config = CommuterConfig {
        threads,
        ..CommuterConfig::quick(calls)
    };
    let mut rows = Vec::new();
    let (mut skipped, mut resolved) = (0, 0);
    run_sweep(
        &config,
        |_| (),
        |swept| match swept {
            Swept::Unit(unit) => {
                skipped += unit.skipped;
                resolved += unit.resolved;
            }
            Swept::Event(SweepEvent::PairDone { timing, .. }) => {
                assert_eq!(timing.skipped, skipped, "{timing:?}");
                rows.push((
                    timing.calls,
                    timing.repairs_decided,
                    timing.repair_searches,
                    std::mem::take(&mut skipped),
                    std::mem::take(&mut resolved),
                ));
            }
            Swept::Event(_) => {}
        },
    );
    rows
}

#[test]
fn every_rejected_representative_is_decided_or_searched() {
    // `open ∥ open` decides its EMFILE representatives and `pipe ∥ pipe`
    // searches its layout ones, so both counters move. Every rejected
    // representative is repaired exactly once, so per pair the two
    // counters sum to the representatives that were skipped or rescued,
    // and the counts are the same at any worker count.
    let calls = [CallKind::Open, CallKind::Pipe];
    let rows = repair_rows(&calls, 1);
    for &(calls, decided, searches, skipped, resolved) in &rows {
        assert_eq!(
            decided + searches,
            skipped + resolved,
            "{} ∥ {}: {decided} decided + {searches} searched",
            calls.0.name(),
            calls.1.name()
        );
    }
    assert!(
        rows.iter().any(|row| row.1 > 0),
        "nothing decided: {rows:?}"
    );
    assert!(
        rows.iter().any(|row| row.2 > 0),
        "nothing searched: {rows:?}"
    );
    assert_eq!(rows, repair_rows(&calls, 2));
}
