//! The end-to-end COMMUTER pipeline: model → ANALYZER → TESTGEN → MTRACE →
//! Figure 6.
//!
//! [`run_sweep`] is the one sweep engine: it forms every unordered pair of
//! the requested calls, specialises the model per pair, enumerates the
//! argument shapes, runs ANALYZER and TESTGEN on each (pair, shape) unit,
//! runs a caller-supplied step on every generated test, and streams each
//! unit's tests and step results to a consumer in unit order.
//!
//! [`run_commuter`] is the consumer that keeps the corpus and aggregates the
//! per-kernel outcomes into one [`Figure6Report`] per kernel. `scr-host`'s
//! host Figure 6 and differential campaign are two more consumers of the
//! same engine; the benchmarks and the `posix_scan` example are thin
//! wrappers around these.

use crate::analyzer::analyze_pair;
use crate::driver::{run_test, KernelFactory};
use crate::report::Figure6Report;
use crate::shapes::{enumerate_shapes, PairShape};
use crate::sweep::{claim_in_order, effective_threads};
use crate::testgen::{generate_tests, ConcreteTest, GeneratedTests, SkipHistogram};
use scr_kernel::Sv6Kernel;
use scr_model::{pair_config, CallKind, ModelConfig, ALL_CALLS};
use std::time::Instant;

/// Configuration of a pipeline run.
#[derive(Clone, Debug)]
pub struct CommuterConfig {
    /// Model bounds used by the analyzer.
    pub model: ModelConfig,
    /// Which calls to include (pairs are formed from this list).
    pub calls: Vec<CallKind>,
    /// Maximum satisfying assignments enumerated per commutative case
    /// (before isomorphism deduplication).
    pub max_assignments_per_case: usize,
    /// File names used for the model's name slots.
    pub names: Vec<String>,
    /// Sweep worker threads: 1 runs the classic sequential sweep, N > 1
    /// claims (pair, shape) work units across N workers, 0 uses one worker
    /// per available hardware thread. The generated corpus and the reports
    /// are byte-identical for every value.
    pub threads: usize,
}

impl Default for CommuterConfig {
    fn default() -> Self {
        CommuterConfig {
            model: ModelConfig {
                // Pairwise analysis does not need a third pre-existing
                // inode, and two processes are enough to distinguish
                // same-process from cross-process interactions.
                inodes: 2,
                ..ModelConfig::default()
            },
            calls: ALL_CALLS.to_vec(),
            max_assignments_per_case: 96,
            names: bucket_distinct_names(8),
            threads: 1,
        }
    }
}

/// Picks `count` file names that hash to pairwise-distinct buckets of the
/// ScaleFS directory. Generated tests use different names to mean "these
/// operations touch unrelated directory state"; letting them collide in one
/// hash bucket would re-introduce exactly the "barring hash collisions"
/// caveat the paper notes, and report false conflicts.
pub fn bucket_distinct_names(count: usize) -> Vec<String> {
    let probe = Sv6Kernel::new(2);
    let mut names = Vec::new();
    let mut buckets = std::collections::BTreeSet::new();
    let mut i = 0;
    while names.len() < count && i < 10_000 {
        let candidate = format!("f{i}");
        i += 1;
        if buckets.insert(probe.dir_bucket_of(&candidate)) {
            names.push(candidate);
        }
    }
    names
}

impl CommuterConfig {
    /// A reduced configuration covering a subset of calls — useful for
    /// quick runs and documentation examples.
    pub fn quick(calls: &[CallKind]) -> Self {
        CommuterConfig {
            calls: calls.to_vec(),
            max_assignments_per_case: 48,
            ..Default::default()
        }
    }

    /// The subset of calls used by the quick benchmark mode: the file-system
    /// calls whose pairwise behaviour the paper discusses in most detail.
    /// Includes both `lseek` and `write` — the offset-arithmetic-heavy
    /// `lseek ∥ write` pair used to take minutes of solver time and was
    /// carved out of quick sweeps; the indexed solver generates it in
    /// well under a second, so the quick sets cover it again.
    pub fn quick_call_set() -> Vec<CallKind> {
        vec![
            CallKind::Open,
            CallKind::Link,
            CallKind::Unlink,
            CallKind::Rename,
            CallKind::Stat,
            CallKind::Fstat,
            CallKind::Lseek,
            CallKind::Write,
            CallKind::Close,
        ]
    }
}

/// Wall-clock accounting for one call pair of a pipeline run, split into
/// the symbolic stages (ANALYZER path exploration + TESTGEN solving) and
/// the MTRACE driver replays. Emitted as `BENCH_testgen.json` by the
/// `posix_scan` example so solver-performance changes leave a recorded
/// trajectory.
#[derive(Clone, Debug)]
pub struct PairTiming {
    /// The call pair.
    pub calls: (CallKind, CallKind),
    /// Seconds spent analysing shapes and generating the corpus.
    pub solve_seconds: f64,
    /// Seconds spent replaying the generated tests on the kernels.
    pub run_seconds: f64,
    /// Tests generated for the pair.
    pub tests: usize,
    /// Representatives skipped for the pair.
    pub skipped: usize,
    /// ANALYZER paths explored across the pair's shapes.
    pub paths_explored: usize,
    /// Solver queries the analyzer spent on path feasibility
    /// ([`crate::PairAnalysis::feasibility_queries`], summed).
    pub feasibility_queries: usize,
    /// Paths the analyzer found dead under a refuted prefix, query-free.
    pub leaves_skipped: usize,
    /// Feasible paths, each of which cost one commutativity query.
    pub feasible_leaves: usize,
    /// Flattened constraints the analyzer's solver queries named
    /// ([`crate::PairAnalysis::constraints_queried`], summed).
    pub constraints_queried: usize,
    /// The part of them it compiled rather than kept from the query before
    /// ([`crate::PairAnalysis::constraints_compiled`], summed).
    pub constraints_compiled: usize,
    /// Commutative cases that yielded no test
    /// ([`crate::GeneratedTests::zero_test_cases`], summed).
    pub zero_test_cases: usize,
    /// TESTGEN seconds spent on those cases.
    pub zero_test_seconds: f64,
    /// Rejected representatives given up without a search
    /// ([`crate::GeneratedTests::repairs_decided`], summed).
    pub repairs_decided: usize,
    /// Rejected representatives searched for a completion
    /// ([`crate::GeneratedTests::repair_searches`], summed).
    pub repair_searches: usize,
}

impl PairTiming {
    fn empty(calls: (CallKind, CallKind)) -> PairTiming {
        PairTiming {
            calls,
            solve_seconds: 0.0,
            run_seconds: 0.0,
            tests: 0,
            skipped: 0,
            paths_explored: 0,
            feasibility_queries: 0,
            leaves_skipped: 0,
            feasible_leaves: 0,
            constraints_queried: 0,
            constraints_compiled: 0,
            zero_test_cases: 0,
            zero_test_seconds: 0.0,
            repairs_decided: 0,
            repair_searches: 0,
        }
    }

    fn add(&mut self, unit: &PairTiming) {
        self.solve_seconds += unit.solve_seconds;
        self.run_seconds += unit.run_seconds;
        self.tests += unit.tests;
        self.skipped += unit.skipped;
        self.paths_explored += unit.paths_explored;
        self.feasibility_queries += unit.feasibility_queries;
        self.leaves_skipped += unit.leaves_skipped;
        self.feasible_leaves += unit.feasible_leaves;
        self.constraints_queried += unit.constraints_queried;
        self.constraints_compiled += unit.constraints_compiled;
        self.zero_test_cases += unit.zero_test_cases;
        self.zero_test_seconds += unit.zero_test_seconds;
        self.repairs_decided += unit.repairs_decided;
        self.repair_searches += unit.repair_searches;
    }
}

/// A progress event emitted by [`run_sweep`] (and forwarded by
/// [`run_commuter_with_progress`]) as the sweep works through call pairs.
/// Consumers (the `posix_scan` example, the telemetry event log) use these
/// for live progress lines and for structured per-pair records in exported
/// artifacts; the events carry deltas, not running totals, so they compose
/// by summation.
#[derive(Clone, Debug)]
pub enum SweepEvent<'a> {
    /// A call pair is about to be analysed.
    PairStarted {
        /// Index of the pair in scan order (0-based).
        index: usize,
        /// Total pairs in the sweep.
        total: usize,
        /// The call pair.
        calls: (CallKind, CallKind),
    },
    /// A call pair finished: all its shapes analysed, tests generated and
    /// replayed on every kernel.
    PairDone {
        /// Index of the pair in scan order (0-based).
        index: usize,
        /// Total pairs in the sweep.
        total: usize,
        /// Wall-clock and corpus accounting for the pair.
        timing: &'a PairTiming,
        /// Skip-reason counts contributed by this pair alone.
        skip_delta: SkipHistogram,
    },
}

/// Results of a pipeline run.
#[derive(Clone, Debug, Default)]
pub struct CommuterResults {
    /// Every generated test case.
    pub tests: Vec<ConcreteTest>,
    /// Number of assignments that could not be materialised (even after
    /// re-solving for alternative completions).
    pub skipped: usize,
    /// Why each skipped assignment was skipped; counts sum to `skipped`.
    pub skip_reasons: SkipHistogram,
    /// Representatives rescued by re-solving for a constructible completion.
    pub resolved: usize,
    /// Number of (pair, shape) combinations analysed.
    pub shapes_analyzed: usize,
    /// Per-kernel Figure 6 reports, in the order the factories were given.
    pub reports: Vec<Figure6Report>,
    /// Per-pair wall-clock accounting, in scan order.
    pub pair_timings: Vec<PairTiming>,
}

impl CommuterResults {
    /// The report for a kernel by name.
    pub fn report_for(&self, kernel: &str) -> Option<&Figure6Report> {
        self.reports.iter().find(|r| r.kernel == kernel)
    }

    /// A content fingerprint of the generated corpus: every test's id,
    /// calls, setup script, operations and process count, hashed in corpus
    /// order. It reads the fields' values, not their names, so renaming a
    /// field of [`ConcreteTest`] leaves it unchanged. The sweep's
    /// determinism contract makes this value independent of the worker
    /// thread count; `posix_scan` records it in `BENCH_testgen.json` so CI
    /// can diff the corpora of a single-thread and a multi-thread leg
    /// without uploading the corpora themselves.
    pub fn corpus_fingerprint(&self) -> u64 {
        let mut h = scr_symbolic::Fnv64::default();
        for test in &self.tests {
            h.bytes(test.id.as_bytes());
            h.bytes(format!("{:?}", test.calls).as_bytes());
            h.bytes(format!("{:?}", test.setup).as_bytes());
            h.bytes(format!("{:?}", test.ops).as_bytes());
            h.word(test.procs as u64);
        }
        h.finish()
    }

    fn absorb(&mut self, unit: SweptUnit<Vec<bool>>) {
        let (a, b) = unit.calls;
        self.shapes_analyzed += 1;
        self.skipped += unit.skipped;
        self.resolved += unit.resolved;
        for (reason, count) in &unit.skip_reasons {
            *self.skip_reasons.entry(*reason).or_default() += count;
        }
        for report in &mut self.reports {
            report.record_skips(a, b, &unit.skip_reasons);
        }
        for (test, per_kernel) in unit.tests.into_iter().zip(unit.results) {
            for (report, conflict_free) in self.reports.iter_mut().zip(per_kernel) {
                report.record(a, b, conflict_free);
            }
            self.tests.push(test);
        }
    }
}

/// Runs the full pipeline for every unordered pair of `config.calls` and
/// every kernel in `kernels`.
pub fn run_commuter(config: &CommuterConfig, kernels: &[&dyn KernelFactory]) -> CommuterResults {
    run_commuter_with_progress(config, kernels, |_| {})
}

/// [`run_commuter`] with a progress callback: `progress` observes one
/// [`SweepEvent::PairStarted`] / [`SweepEvent::PairDone`] per call pair, in
/// scan order — at every thread count, in the identical order and with
/// identical per-pair deltas (timings aside).
pub fn run_commuter_with_progress(
    config: &CommuterConfig,
    kernels: &[&dyn KernelFactory],
    mut progress: impl FnMut(SweepEvent<'_>),
) -> CommuterResults {
    let mut results = CommuterResults {
        reports: kernels
            .iter()
            .map(|k| Figure6Report::new(k.name()))
            .collect(),
        ..Default::default()
    };
    run_sweep(
        config,
        |test| {
            kernels
                .iter()
                .map(|factory| run_test(*factory, test).conflict_free)
                .collect::<Vec<bool>>()
        },
        |swept| match swept {
            Swept::Unit(unit) => results.absorb(unit),
            Swept::Event(event) => {
                if let SweepEvent::PairDone { timing, .. } = &event {
                    results.pair_timings.push((*timing).clone());
                }
                progress(event);
            }
        },
    );
    results
}

/// One (pair, shape) unit's tests, as [`run_sweep`] hands them to its
/// consumer.
#[derive(Clone, Debug)]
pub struct SweptUnit<R> {
    /// The unit's call pair.
    pub calls: (CallKind, CallKind),
    /// The tests TESTGEN materialised for the unit, in generation order.
    pub tests: Vec<ConcreteTest>,
    /// The step's result for each test: `results[i]` belongs to `tests[i]`.
    pub results: Vec<R>,
    /// Representatives TESTGEN could not materialise.
    pub skipped: usize,
    /// Why each was skipped; counts sum to `skipped`.
    pub skip_reasons: SkipHistogram,
    /// Representatives rescued by re-solving for a constructible completion.
    pub resolved: usize,
}

/// What [`run_sweep`] hands its consumer, in scan order: each pair's
/// [`SweepEvent::PairStarted`], then its units in shape order, then its
/// [`SweepEvent::PairDone`].
#[derive(Debug)]
pub enum Swept<'a, R> {
    /// One (pair, shape) unit, analysed, generated and stepped.
    Unit(SweptUnit<R>),
    /// A pair boundary, with the pair's accounting on `PairDone`.
    Event(SweepEvent<'a>),
}

/// One (pair, shape) work unit of a sweep. Units carry only `Send` data
/// (shapes, bounds); symbolic analysis happens entirely on the worker that
/// claims the unit.
struct SweepUnit {
    pair_index: usize,
    shape: PairShape,
    model: ModelConfig,
}

/// Everything a worker produced for one unit — plain concrete data, handed
/// on strictly in unit order by the calling thread.
struct UnitOutcome<R> {
    swept: SweptUnit<R>,
    /// The unit's share of its pair's accounting.
    timing: PairTiming,
}

fn run_unit<R>(
    unit: &SweepUnit,
    config: &CommuterConfig,
    step: &impl Fn(&ConcreteTest) -> R,
) -> UnitOutcome<R> {
    let solve_started = Instant::now();
    let analysis = analyze_pair(&unit.shape, &unit.model);
    let generated = if analysis.cases.is_empty() {
        GeneratedTests::default()
    } else {
        generate_tests(
            &unit.shape,
            &analysis.cases,
            &unit.model,
            &config.names,
            config.max_assignments_per_case,
        )
    };
    let solve_seconds = solve_started.elapsed().as_secs_f64();
    let run_started = Instant::now();
    let results = generated.tests.iter().map(step).collect();
    UnitOutcome {
        timing: PairTiming {
            calls: unit.shape.calls,
            solve_seconds,
            run_seconds: run_started.elapsed().as_secs_f64(),
            tests: generated.tests.len(),
            skipped: generated.skipped,
            paths_explored: analysis.paths_explored,
            feasibility_queries: analysis.feasibility_queries,
            leaves_skipped: analysis.leaves_skipped,
            feasible_leaves: analysis.feasible_leaves,
            constraints_queried: analysis.constraints_queried,
            constraints_compiled: analysis.constraints_compiled,
            zero_test_cases: generated.zero_test_cases,
            zero_test_seconds: generated.zero_test_seconds,
            repairs_decided: generated.repairs_decided,
            repair_searches: generated.repair_searches,
        },
        swept: SweptUnit {
            calls: unit.shape.calls,
            tests: generated.tests,
            results,
            skipped: generated.skipped,
            skip_reasons: generated.skip_reasons,
            resolved: generated.resolved,
        },
    }
}

/// The in-order side of a sweep: the pair under aggregation and its
/// accounting so far.
struct PairCursor<'p> {
    pairs: &'p [(CallKind, CallKind)],
    index: usize,
    timing: PairTiming,
    skip_delta: SkipHistogram,
}

impl PairCursor<'_> {
    /// Emits `PairDone` for the current pair, advances, and emits
    /// `PairStarted` for the next one (the sequential sweep's event order).
    fn finish<R>(&mut self, consume: &mut impl FnMut(Swept<'_, R>)) {
        let total = self.pairs.len();
        consume(Swept::Event(SweepEvent::PairDone {
            index: self.index,
            total,
            timing: &self.timing,
            skip_delta: std::mem::take(&mut self.skip_delta),
        }));
        self.index += 1;
        if let Some(&calls) = self.pairs.get(self.index) {
            self.timing = PairTiming::empty(calls);
            consume(Swept::Event(SweepEvent::PairStarted {
                index: self.index,
                total,
                calls,
            }));
        }
    }
}

/// The sweep engine. Forms every unordered pair of `config.calls`,
/// specialises the model per pair with [`pair_config`], enumerates each
/// pair's shapes, and claims the (pair, shape) units on `config.threads`
/// workers. The claiming worker analyses and generates the unit, then runs
/// `step` on each of its tests. `consume` receives every unit with its
/// tests and step results, plus each pair's progress events, strictly in
/// scan order on the calling thread — so everything it aggregates is
/// byte-identical at every worker count. A unit's tests are `consume`'s to
/// keep or drop: the engine holds no corpus of its own.
pub fn run_sweep<R, S, C>(config: &CommuterConfig, step: S, mut consume: C)
where
    R: Send,
    S: Fn(&ConcreteTest) -> R + Sync,
    C: FnMut(Swept<'_, R>),
{
    let mut pairs: Vec<(CallKind, CallKind)> = Vec::new();
    for (i, &call_a) in config.calls.iter().enumerate() {
        for &call_b in config.calls.iter().skip(i) {
            pairs.push((call_a, call_b));
        }
    }
    let Some(&first) = pairs.first() else {
        return;
    };

    // One work unit per (pair, shape). §4 extension state (socket slots,
    // child slots) is enabled per pair; fs-only pairs keep exactly the
    // configured model, so their corpora are unchanged by the extensions.
    let mut units: Vec<SweepUnit> = Vec::new();
    let mut pair_ends: Vec<usize> = Vec::with_capacity(pairs.len());
    for (pair_index, &(call_a, call_b)) in pairs.iter().enumerate() {
        let model = pair_config(&config.model, call_a, call_b);
        for shape in enumerate_shapes(call_a, call_b, &model) {
            units.push(SweepUnit {
                pair_index,
                shape,
                model,
            });
        }
        pair_ends.push(units.len());
    }

    consume(Swept::Event(SweepEvent::PairStarted {
        index: 0,
        total: pairs.len(),
        calls: first,
    }));
    let mut cursor = PairCursor {
        pairs: &pairs,
        index: 0,
        timing: PairTiming::empty(first),
        skip_delta: SkipHistogram::new(),
    };
    claim_in_order(
        &units,
        effective_threads(config.threads),
        |_, unit| run_unit(unit, config, &step),
        |idx, outcome| {
            let pair = units[idx].pair_index;
            while cursor.index < pair {
                cursor.finish(&mut consume);
            }
            cursor.timing.add(&outcome.timing);
            for (reason, count) in &outcome.swept.skip_reasons {
                *cursor.skip_delta.entry(*reason).or_default() += count;
            }
            consume(Swept::Unit(outcome.swept));
            if idx + 1 == pair_ends[pair] {
                cursor.finish(&mut consume);
            }
        },
    );
    while cursor.index < pairs.len() {
        cursor.finish(&mut consume);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{LinuxLikeFactory, Sv6Factory};

    #[test]
    fn quick_pipeline_on_name_operations() {
        // A small end-to-end run over name-only operations: enough to verify
        // the plumbing produces tests, runs them on both kernels, and that
        // sv6 scales at least as often as the baseline.
        let config = CommuterConfig::quick(&[CallKind::Stat, CallKind::Unlink]);
        let sv6 = Sv6Factory { cores: 4 };
        let linux = LinuxLikeFactory { cores: 4 };
        let results = run_commuter(&config, &[&sv6, &linux]);
        assert!(results.shapes_analyzed > 0);
        assert!(!results.tests.is_empty());
        let sv6_report = results.report_for("sv6").unwrap();
        let linux_report = results.report_for("Linux").unwrap();
        assert_eq!(sv6_report.total_tests(), linux_report.total_tests());
        assert!(sv6_report.total_conflict_free() >= linux_report.total_conflict_free());
        // sv6 must pass the overwhelming majority of generated tests.
        assert!(sv6_report.overall_fraction() > 0.9);
    }

    #[test]
    fn progress_events_cover_every_pair_with_consistent_deltas() {
        let config = CommuterConfig::quick(&[CallKind::Stat, CallKind::Unlink]);
        let sv6 = Sv6Factory { cores: 4 };
        let mut started = Vec::new();
        let mut done: Vec<(usize, usize, usize, SkipHistogram)> = Vec::new();
        let results = run_commuter_with_progress(&config, &[&sv6], |event| match event {
            SweepEvent::PairStarted { index, total, .. } => started.push((index, total)),
            SweepEvent::PairDone {
                index,
                total,
                timing,
                skip_delta,
            } => {
                done.push((index, total, timing.tests, skip_delta));
                assert!(timing.solve_seconds >= 0.0);
            }
        });
        // 2 calls → 3 unordered pairs, one started+done event each, in order.
        assert_eq!(started, vec![(0, 3), (1, 3), (2, 3)]);
        assert_eq!(done.len(), 3);
        // Per-pair deltas sum to the run totals.
        assert_eq!(
            done.iter().map(|(_, _, tests, _)| tests).sum::<usize>(),
            results.tests.len()
        );
        let delta_skips: usize = done
            .iter()
            .flat_map(|(_, _, _, skips)| skips.values())
            .sum();
        assert_eq!(delta_skips, results.skipped);
    }

    #[test]
    fn parallel_sweep_matches_sequential_byte_for_byte() {
        // The tentpole determinism contract: the corpus, the reports and
        // every counter are identical at any thread count (1 CPU is fine —
        // worker *threads* exist either way; only scheduling differs).
        let mut config = CommuterConfig::quick(&[CallKind::Stat, CallKind::Unlink]);
        let sv6 = Sv6Factory { cores: 4 };
        let linux = LinuxLikeFactory { cores: 4 };
        let sequential = run_commuter(&config, &[&sv6, &linux]);
        config.threads = 3;
        let parallel = run_commuter(&config, &[&sv6, &linux]);
        let fingerprint = |r: &CommuterResults| -> Vec<String> {
            r.tests
                .iter()
                .map(|t| format!("{} {:?} {:?}", t.id, t.setup, t.ops))
                .collect()
        };
        assert_eq!(fingerprint(&sequential), fingerprint(&parallel));
        assert_eq!(sequential.skipped, parallel.skipped);
        assert_eq!(sequential.skip_reasons, parallel.skip_reasons);
        assert_eq!(sequential.resolved, parallel.resolved);
        assert_eq!(sequential.shapes_analyzed, parallel.shapes_analyzed);
        for (a, b) in sequential.reports.iter().zip(parallel.reports.iter()) {
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn parallel_progress_events_match_sequential_order() {
        let mut config = CommuterConfig::quick(&[CallKind::Stat, CallKind::Unlink]);
        config.threads = 4;
        let sv6 = Sv6Factory { cores: 4 };
        let mut events: Vec<String> = Vec::new();
        run_commuter_with_progress(&config, &[&sv6], |event| match event {
            SweepEvent::PairStarted { index, .. } => events.push(format!("start {index}")),
            SweepEvent::PairDone { index, .. } => events.push(format!("done {index}")),
        });
        assert_eq!(
            events,
            vec!["start 0", "done 0", "start 1", "done 1", "start 2", "done 2"]
        );
    }

    #[test]
    fn report_for_unknown_kernel_is_none() {
        let results = CommuterResults::default();
        assert!(results.report_for("plan9").is_none());
    }

    #[test]
    fn skip_accounting_threads_through_to_the_reports() {
        // Pipe pairs have genuinely unconstructible families (dup2-style
        // layouts), so the skip histogram must be populated, agree with the
        // flat counter, and surface in the per-kernel report.
        let config = CommuterConfig::quick(&[CallKind::Read, CallKind::Write]);
        let sv6 = Sv6Factory { cores: 4 };
        let results = run_commuter(&config, &[&sv6]);
        assert_eq!(
            results.skip_reasons.values().sum::<usize>(),
            results.skipped
        );
        let report = results.report_for("sv6").unwrap();
        assert_eq!(report.total_skipped(), results.skipped);
        if results.skipped > 0 {
            assert!(report.render().contains("unconstructible"));
        }
    }
}
