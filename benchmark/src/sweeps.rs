//! The two COMMUTER sweep workloads.
//!
//! Untraced, a run times the engine's one public entry point
//! (`run_commuter` / `run_host_fig6`) as a user would call it. Traced, it
//! reproduces the same sweep single-threaded from the public stage functions
//! (`enumerate_shapes -> analyze_pair -> generate_tests -> run_test x2 ->
//! run_test_host x2`), timing each call from here, and splits analyzer time
//! on every 4th unit with the public symbolic-execution primitives.

use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::report::RunResult;
use crate::spans::SpanLog;
use crate::stats::median;
use scalable_commutativity::commuter::analyzer::default_domains;
use scalable_commutativity::commuter::{
    analyze_pair, differential_check, enumerate_shapes, generate_tests, run_commuter, run_test,
    solver_cache_clear, solver_cache_stats, CommuterConfig, CommuterResults, ConcreteTest,
    LinuxLikeFactory, PairShape, Sv6Factory,
};
use scalable_commutativity::host::{
    run_host_fig6, run_test_host, HostFig6Config, HostFig6Results, HostMode, HostReplayer,
};
use scalable_commutativity::model::calls::{execute, SymCall};
use scalable_commutativity::model::{pair_config, CallKind, ModelConfig, SymState};
use scalable_commutativity::symbolic::{explore, satisfiable, SymBool, SymContext};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// `open || open` alone: four huge units, analysis-bound.
    Open,
    /// Seventeen calls, 153 pairs: many small units, replay carries weight.
    Fig6Wide,
}

/// Cores each simulated and host kernel is configured with.
const KERNEL_CORES: usize = 4;
/// Real-thread schedules per host replay (`HostFig6Config::quick`'s value).
const SCHEDULES: usize = 2;
impl Sweep {
    /// About how long one engine call takes on the 2-thread reference box;
    /// a run makes `seconds / nominal_call_s` of them and reports medians.
    fn nominal_call_s(self) -> f64 {
        match self {
            Sweep::Open => 5.0,
            Sweep::Fig6Wide => 15.0,
        }
    }
}

/// A set-up builds the plan and runs the engine once over `WARMUP_CALLS`, so
/// that whatever the engine initialises lazily is paid before the timed
/// region; it is repeated and the median reported.
const SETUP_REPEATS: usize = 7;
const WARMUP_CALLS: [CallKind; 2] = [CallKind::Stat, CallKind::Close];
/// Every `DECOMPOSE_EVERY`th unit of the traced loop is analysed a second
/// time with the symbolic primitives timed one by one.
const DECOMPOSE_EVERY: usize = 4;

/// The calls of `fig6_wide`: the 18 base POSIX calls minus `open`, which
/// `sweep_open` covers and which would be two thirds of the bill.
const FIG6_CALLS: [CallKind; 17] = [
    CallKind::Link,
    CallKind::Unlink,
    CallKind::Rename,
    CallKind::Stat,
    CallKind::Fstat,
    CallKind::Lseek,
    CallKind::Close,
    CallKind::Pipe,
    CallKind::Read,
    CallKind::Write,
    CallKind::Pread,
    CallKind::Pwrite,
    CallKind::Mmap,
    CallKind::Munmap,
    CallKind::Mprotect,
    CallKind::Memread,
    CallKind::Memwrite,
];

/// Everything a sweep needs before its timed region.
struct Plan {
    sweep: Sweep,
    /// The generation parameters, shared by the engine call, the traced
    /// stage loop and the gate's corpus regeneration.
    config: CommuterConfig,
    sv6: Sv6Factory,
    linux: LinuxLikeFactory,
}

impl Plan {
    fn build(sweep: Sweep, workers: usize) -> Plan {
        let config = match sweep {
            // `CommuterConfig::quick(&[Open])` with one descriptor slot per
            // process instead of two, so that a run holds several sweeps:
            // the same four shapes at 30 % of the paths (39 204 of 129 628),
            // of which 0.65 % commute and 1.7 % are feasible, against 0.33 %
            // and 1.0 % at full size (README, "sweep_open at full size").
            // One worker: four units cannot feed two.
            Sweep::Open => {
                let quick = CommuterConfig::quick(&[CallKind::Open]);
                CommuterConfig {
                    model: ModelConfig {
                        fds_per_proc: 1,
                        ..quick.model
                    },
                    threads: 1,
                    ..quick
                }
            }
            Sweep::Fig6Wide => {
                let quick = HostFig6Config::quick(&FIG6_CALLS);
                CommuterConfig {
                    model: quick.model,
                    max_assignments_per_case: quick.max_assignments_per_case,
                    threads: workers,
                    ..CommuterConfig::quick(&FIG6_CALLS)
                }
            }
        };
        let plan = Plan {
            sweep,
            config,
            sv6: Sv6Factory {
                cores: KERNEL_CORES,
            },
            linux: LinuxLikeFactory {
                cores: KERNEL_CORES,
            },
        };
        plan.engine(&WARMUP_CALLS, plan.config.threads);
        plan
    }

    fn host_config(&self, calls: &[CallKind], threads: usize) -> HostFig6Config {
        HostFig6Config {
            calls: calls.to_vec(),
            model: self.config.model,
            max_assignments_per_case: self.config.max_assignments_per_case,
            cores: KERNEL_CORES,
            schedules_per_test: SCHEDULES,
            threads,
        }
    }

    /// One engine call over `calls`, as a user makes it, on a cold solver
    /// cache.
    fn engine(&self, calls: &[CallKind], threads: usize) -> EngineRun {
        solver_cache_clear();
        let cpu_before = cpu_seconds();
        let started = Instant::now();
        let output = match self.sweep {
            Sweep::Open => EngineOutput::Commuter(run_commuter(
                &CommuterConfig {
                    calls: calls.to_vec(),
                    threads,
                    ..self.config.clone()
                },
                &[&self.sv6, &self.linux],
            )),
            Sweep::Fig6Wide => {
                EngineOutput::HostFig6(Box::new(run_host_fig6(&self.host_config(calls, threads))))
            }
        };
        EngineRun {
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu_before,
            peak_rss_mb: peak_rss_mb(),
            output,
        }
    }

    /// The corpus the engine generated. `run_host_fig6` does not return its
    /// tests, so for `fig6_wide` the gate regenerates them with the other
    /// engine over the same parameters — which also cross-checks the two.
    fn corpus(&self, output: EngineOutput) -> CommuterResults {
        match output {
            EngineOutput::Commuter(results) => results,
            EngineOutput::HostFig6(_) => {
                solver_cache_clear();
                run_commuter(&self.config, &[&self.sv6, &self.linux])
            }
        }
    }
}

enum EngineOutput {
    Commuter(CommuterResults),
    HostFig6(Box<HostFig6Results>),
}

struct EngineRun {
    wall_s: f64,
    cpu_s: f64,
    /// The process's high-water mark when the call returned.
    peak_rss_mb: f64,
    output: EngineOutput,
}

pub fn run(sweep: Sweep, seconds: u64, traced: bool, workers: usize, result: &mut RunResult) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut plan = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        plan = Some(Plan::build(sweep, workers));
        setups.push(started.elapsed().as_secs_f64());
    }
    let plan = plan.expect("SETUP_REPEATS > 0");

    // A traced run needs the engine only as the reference its stage loop is
    // compared with: one call instead of a run's worth.
    let iterations = if traced {
        1
    } else {
        ((seconds as f64 / sweep.nominal_call_s()).round() as usize).max(1)
    };
    let runs: Vec<EngineRun> = (0..iterations)
        .map(|_| plan.engine(&plan.config.calls, plan.config.threads))
        .collect();
    let walls: Vec<f64> = runs.iter().map(|run| run.wall_s).collect();
    let cpus: Vec<f64> = runs.iter().map(|run| run.cpu_s).collect();
    let wall_s = median(&walls);
    // The high-water mark of the first call, on a fresh heap: what later
    // calls add depends on what the allocator retained from earlier ones.
    let peak_rss_mb = runs[0].peak_rss_mb;
    eprintln!(
        "{iterations} engine call(s) at {} worker(s): wall {walls:.3?} s, cpu {cpus:.2?} s",
        plan.config.threads
    );

    // Every engine call of the run must have produced the same sweep.
    let counts: Vec<[u64; 5]> = runs.iter().map(|run| sweep_counts(&run.output)).collect();
    result.checks(
        counts.len() as u64 - 1,
        counts.iter().skip(1).filter(|c| **c != counts[0]).count() as u64,
        || format!("engine iterations disagree: {counts:?}"),
    );
    let last = runs
        .into_iter()
        .next_back()
        .expect("at least one iteration")
        .output;
    gate_engine_output(&last, result);
    // `run_host_fig6` does not return its tests: the corpus `run_commuter`
    // regenerates for the gate must be the one it ran.
    let cross_engine = matches!(last, EngineOutput::HostFig6(_));
    let corpus = plan.corpus(last);
    if cross_engine {
        result.check(counts[0][..4] == corpus_counts(&corpus)[..4], || {
            format!(
                "run_host_fig6 counted {:?}, run_commuter's corpus {:?}",
                counts[0],
                corpus_counts(&corpus)
            )
        });
    }
    gate_commuter_results(&corpus, result);

    let traced_tests = if traced {
        let single = if plan.config.threads == 1 {
            wall_s
        } else {
            plan.engine(&plan.config.calls, 1).wall_s
        };
        Some(trace(&plan, wall_s, single, &corpus, result))
    } else {
        None
    };
    // The generated tests must behave on real threads as on the simulated
    // kernel: two implementations, neither derived from the other.
    gate_differential(
        &plan,
        traced_tests.as_deref().unwrap_or(&corpus.tests),
        result,
    );

    result.set("setup_s", median(&setups));
    result.set("wall_s", wall_s);
    result.set("cpu_s", median(&cpus));
    result.set("peak_rss_mb", peak_rss_mb);
    for (name, value) in COUNT_NAMES.iter().zip(corpus_counts(&corpus)) {
        result.count(name, value);
    }
    result.count("resolved", corpus.resolved as u64);
    result.count("units", corpus.shapes_analyzed as u64);
}

/// The counts two sweeps over the same parameters must agree on exactly.
const COUNT_NAMES: [&str; 5] = [
    "tests",
    "skipped",
    "sim_sv6_conflict_free",
    "sim_linux_conflict_free",
    "corpus_fingerprint",
];

fn corpus_counts(results: &CommuterResults) -> [u64; 5] {
    let conflict_free = |kernel: &str| {
        results
            .report_for(kernel)
            .map_or(0, |report| report.total_conflict_free() as u64)
    };
    [
        results.tests.len() as u64,
        results.skipped as u64,
        conflict_free("sv6"),
        conflict_free("Linux"),
        results.corpus_fingerprint(),
    ]
}

/// [`corpus_counts`] of an engine call; `run_host_fig6` does not return its
/// corpus, so its fingerprint reads 0.
fn sweep_counts(output: &EngineOutput) -> [u64; 5] {
    match output {
        EngineOutput::Commuter(results) => corpus_counts(results),
        EngineOutput::HostFig6(results) => [
            results.tests_run as u64,
            results.sim_sv6.total_skipped() as u64,
            results.sim_sv6.total_conflict_free() as u64,
            results.sim_linux.total_conflict_free() as u64,
            0,
        ],
    }
}

fn gate_engine_output(output: &EngineOutput, result: &mut RunResult) {
    let EngineOutput::HostFig6(fig6) = output else {
        return; // `gate_commuter_results` covers `run_commuter`'s output.
    };
    let unexplained = fig6.unexplained_divergences().len() as u64;
    result.checks(fig6.tests_run as u64, unexplained, || {
        format!(
            "unexplained sim/host divergences:\n{}",
            fig6.describe_divergences()
        )
    });
    result.check(fig6.dropped == 0, || {
        format!("{} traced accesses dropped", fig6.dropped)
    });
    for report in [
        &fig6.sim_sv6,
        &fig6.sim_linux,
        &fig6.host_sv6,
        &fig6.host_linux,
    ] {
        result.check(report.total_tests() == fig6.tests_run, || {
            format!(
                "{} report holds {} of {} tests",
                report.kernel,
                report.total_tests(),
                fig6.tests_run
            )
        });
    }
}

fn gate_commuter_results(results: &CommuterResults, result: &mut RunResult) {
    let histogram_total: usize = results.skip_reasons.values().sum();
    result.check(histogram_total == results.skipped, || {
        format!(
            "skip histogram sums to {histogram_total}, skipped = {}",
            results.skipped
        )
    });
    for report in &results.reports {
        result.check(report.total_tests() == results.tests.len(), || {
            format!(
                "{} report holds {} of {} tests",
                report.kernel,
                report.total_tests(),
                results.tests.len()
            )
        });
    }
}

fn gate_differential(plan: &Plan, tests: &[ConcreteTest], result: &mut RunResult) {
    let outcomes = differential_check(&plan.sv6, &HostReplayer::default(), tests);
    let disagreeing: Vec<&str> = outcomes
        .iter()
        .filter(|outcome| !outcome.agree())
        .map(|outcome| outcome.test_id.as_str())
        .collect();
    result.checks(outcomes.len() as u64, disagreeing.len() as u64, || {
        format!("host replay disagrees with the simulated kernel on {disagreeing:?}")
    });
}

/// Seconds spent in each layer's public functions by the traced stage loop.
#[derive(Default)]
struct Busy {
    shapes: f64,
    analyzer: f64,
    testgen: f64,
    sim_sv6: f64,
    sim_linux: f64,
    host_sv6: f64,
    host_linux: f64,
}

impl Busy {
    fn total(&self) -> f64 {
        self.shapes
            + self.analyzer
            + self.testgen
            + self.sim_sv6
            + self.sim_linux
            + self.host_sv6
            + self.host_linux
    }
}

/// The traced single-threaded stage loop; sets the per-layer metrics and
/// returns the tests it generated. `engine_wall_s` is the untraced engine
/// call at the plan's workers, `engine_single_s` the same at one worker.
fn trace(
    plan: &Plan,
    engine_wall_s: f64,
    engine_single_s: f64,
    corpus: &CommuterResults,
    result: &mut RunResult,
) -> Vec<ConcreteTest> {
    let host = plan.sweep == Sweep::Fig6Wide;
    let config = &plan.config;
    let mut log = SpanLog::new();
    let mut busy = Busy::default();
    let mut loop_tests: Vec<ConcreteTest> = Vec::new();
    let mut units: Vec<(PairShape, ModelConfig, usize, usize)> = Vec::new();
    let (mut paths, mut cases, mut noncommutative) = (0usize, 0usize, 0usize);
    let (mut skipped, mut resolved) = (0usize, 0usize);
    let (mut sv6_free, mut linux_free) = (0u64, 0u64);
    let (mut windows, mut divergences, mut dropped) = (0u64, 0u64, 0u64);

    solver_cache_clear();
    let loop_started = Instant::now();
    for (i, &call_a) in config.calls.iter().enumerate() {
        for &call_b in config.calls.iter().skip(i) {
            let model = pair_config(&config.model, call_a, call_b);
            let next_unit = units.len() as u64;
            let (shapes, s) = log.time("core.shapes", next_unit, None, || {
                enumerate_shapes(call_a, call_b, &model)
            });
            busy.shapes += s;
            for shape in shapes {
                let id = units.len() as u64;
                let unit = log.open("unit", id);
                let parent = Some(unit.0);
                let (analysis, s) =
                    log.time("core.analyzer", id, parent, || analyze_pair(&shape, &model));
                busy.analyzer += s;
                paths += analysis.paths_explored;
                cases += analysis.cases.len();
                noncommutative += analysis.non_commutative_paths;
                units.push((shape, model, analysis.paths_explored, analysis.cases.len()));
                if analysis.cases.is_empty() {
                    log.close(unit);
                    continue;
                }
                let shape = &units[units.len() - 1].0;
                let (generated, s) = log.time("core.testgen", id, parent, || {
                    generate_tests(
                        shape,
                        &analysis.cases,
                        &model,
                        &config.names,
                        config.max_assignments_per_case,
                    )
                });
                busy.testgen += s;
                skipped += generated.skipped;
                resolved += generated.resolved;
                for test in &generated.tests {
                    let (sim_sv6, s) = log.time("core.driver.sim_sv6", id, parent, || {
                        run_test(&plan.sv6, test)
                    });
                    busy.sim_sv6 += s;
                    let (sim_linux, s) = log.time("core.driver.sim_linux", id, parent, || {
                        run_test(&plan.linux, test)
                    });
                    busy.sim_linux += s;
                    sv6_free += u64::from(sim_sv6.conflict_free);
                    linux_free += u64::from(sim_linux.conflict_free);
                    if host {
                        let (host_sv6, s) = log.time("host.fig6.sv6", id, parent, || {
                            run_test_host(HostMode::Sv6, KERNEL_CORES, test, SCHEDULES)
                        });
                        busy.host_sv6 += s;
                        let (host_linux, s) = log.time("host.fig6.linux", id, parent, || {
                            run_test_host(HostMode::Linuxlike, KERNEL_CORES, test, SCHEDULES)
                        });
                        busy.host_linux += s;
                        windows += 2 * SCHEDULES as u64;
                        divergences += u64::from(sim_sv6.conflict_free && !host_sv6.conflict_free);
                        dropped += (host_sv6.dropped + host_linux.dropped) as u64;
                    }
                }
                loop_tests.extend(generated.tests);
                log.close(unit);
            }
        }
    }
    let loop_wall_s = loop_started.elapsed().as_secs_f64();
    let cache = solver_cache_stats();

    // The loop must have reproduced the engine's sweep, test for test.
    let reproduced = CommuterResults {
        tests: loop_tests,
        ..Default::default()
    };
    result.check(
        reproduced.corpus_fingerprint() == corpus.corpus_fingerprint(),
        || {
            format!(
                "the stage loop generated {} tests, the engine {}, or different ones",
                reproduced.tests.len(),
                corpus.tests.len()
            )
        },
    );
    result.check(
        (skipped, resolved, units.len())
            == (corpus.skipped, corpus.resolved, corpus.shapes_analyzed),
        || "the stage loop's skipped/resolved/unit counts differ from the engine's".to_string(),
    );
    result.check(dropped == 0, || {
        format!("{dropped} traced accesses dropped in the stage loop")
    });

    let mut split = Decomposition::default();
    for (id, (shape, model, unit_paths, unit_cases)) in
        units.iter().enumerate().step_by(DECOMPOSE_EVERY)
    {
        let part = decompose(shape, model, id as u64, &mut log);
        result.check((part.paths, part.cases) == (*unit_paths, *unit_cases), || {
            format!("unit {id}: decomposition saw {} paths / {} cases, analyze_pair {unit_paths} / {unit_cases}", part.paths, part.cases)
        });
        split.add(&part);
    }

    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let analyzer_split_s = split.explore_s + split.sat_s;
    let lookups = cache.solution_hits
        + cache.solution_misses
        + cache.completion_hits
        + cache.completion_misses;
    result.set("core.shapes.units", units.len() as f64);
    result.set("core.analyzer.busy_s", busy.analyzer);
    result.set("core.analyzer.paths", paths as f64);
    result.set("core.analyzer.cases", cases as f64);
    result.set("core.analyzer.noncommutative_paths", noncommutative as f64);
    result.set(
        "core.analyzer.case_yield",
        share(cases as f64, paths as f64),
    );
    result.set(
        "symbolic.explore.share",
        share(split.explore_s - split.execute_s, analyzer_split_s),
    );
    result.set(
        "model.execute.share",
        share(split.execute_s, analyzer_split_s),
    );
    result.set("symbolic.sat.share", share(split.sat_s, analyzer_split_s));
    result.set("symbolic.sat.calls", split.sat_calls as f64);
    result.set(
        "symbolic.sat.feasible_share",
        share(split.feasible as f64, split.paths as f64),
    );
    result.set("core.testgen.busy_s", busy.testgen);
    result.set("core.testgen.tests", reproduced.tests.len() as f64);
    result.set("core.testgen.skipped", skipped as f64);
    result.set("core.testgen.resolved", resolved as f64);
    result.set(
        "core.testgen.cache_hit_share",
        share(
            (cache.solution_hits + cache.completion_hits) as f64,
            lookups as f64,
        ),
    );
    result.set("core.testgen.cache_evictions", cache.evictions as f64);
    result.set("core.driver.sim_sv6.busy_s", busy.sim_sv6);
    result.set("core.driver.sim_linux.busy_s", busy.sim_linux);
    result.set("core.driver.sim_sv6.conflict_free", sv6_free as f64);
    result.set("core.driver.sim_linux.conflict_free", linux_free as f64);
    result.set("host.fig6.sv6.busy_s", busy.host_sv6);
    result.set("host.fig6.linux.busy_s", busy.host_linux);
    result.set("host.fig6.windows", windows as f64);
    result.set("host.fig6.divergences", divergences as f64);
    result.set("hostmtrace.dropped", dropped as f64);
    result.set(
        "core.sweep.worker_efficiency",
        busy.total() / (config.threads as f64 * engine_wall_s),
    );
    result.set("trace.closure_share", busy.total() / loop_wall_s);
    result.set("trace.overhead_share", loop_wall_s / engine_single_s - 1.0);
    result.count("paths", paths as u64);
    result.count("cases", cases as u64);

    log.write(&result.workload);
    reproduced.tests
}

/// One unit's analysis re-run with each symbolic primitive timed.
#[derive(Default)]
struct Decomposition {
    /// Seconds inside `explore`, the model's `execute` calls included.
    explore_s: f64,
    /// Seconds inside `scr_model::calls::execute`.
    execute_s: f64,
    /// Seconds inside `satisfiable`.
    sat_s: f64,
    sat_calls: usize,
    paths: usize,
    feasible: usize,
    cases: usize,
}

impl Decomposition {
    fn add(&mut self, other: &Decomposition) {
        self.explore_s += other.explore_s;
        self.execute_s += other.execute_s;
        self.sat_s += other.sat_s;
        self.sat_calls += other.sat_calls;
        self.paths += other.paths;
        self.feasible += other.feasible;
        self.cases += other.cases;
    }
}

/// `analyze_pair` rebuilt from the public primitives it is made of — both
/// orders of the pair explored from one unconstrained state, then one
/// feasibility and one commutativity query per path — so that exploration,
/// model execution and solving can be timed apart.
fn decompose(shape: &PairShape, cfg: &ModelConfig, id: u64, log: &mut SpanLog) -> Decomposition {
    let mut part = Decomposition::default();
    let unit = log.open("decompose", id);
    let mut execute_s = 0.0;
    let (results, explore_s) = log.time("symbolic.explore", id, Some(unit.0), || {
        explore(|path| {
            let ctx = SymContext::new();
            let (state, assumptions) = SymState::unconstrained(&ctx, *cfg);
            for a in &assumptions {
                path.assume(a);
            }
            let call_a = SymCall::build(shape.calls.0, shape.slots_a.clone(), &ctx, "argA");
            let call_b = SymCall::build(shape.calls.1, shape.slots_b.clone(), &ctx, "argB");
            for a in call_a
                .argument_assumptions(cfg.file_pages)
                .iter()
                .chain(call_b.argument_assumptions(cfg.file_pages).iter())
            {
                path.assume(a);
            }
            let started = Instant::now();
            let mut s_ab = state.clone();
            let ra_1 = execute(&call_a, &mut s_ab, path, &ctx, "ab.a");
            let rb_1 = execute(&call_b, &mut s_ab, path, &ctx, "ab.b");
            let mut s_ba = state.clone();
            let rb_2 = execute(&call_b, &mut s_ba, path, &ctx, "ba.b");
            let ra_2 = execute(&call_a, &mut s_ba, path, &ctx, "ba.a");
            execute_s += started.elapsed().as_secs_f64();
            let results_equal = ra_1.equal(&ra_2).and(&rb_1.equal(&rb_2));
            results_equal.and(&s_ab.equivalent(&s_ba))
        })
    });
    part.explore_s = explore_s;
    part.execute_s = execute_s;
    part.paths = results.len();
    let domains = default_domains();
    let ((), sat_s) = log.time("symbolic.sat", id, Some(unit.0), || {
        for path in results {
            let commute: SymBool = path.value;
            part.sat_calls += 1;
            if !satisfiable(&path.condition, &domains) {
                continue;
            }
            part.feasible += 1;
            let mut condition = path.condition;
            condition.push(commute.expr().clone());
            part.sat_calls += 1;
            part.cases += usize::from(satisfiable(&condition, &domains));
        }
    });
    part.sat_s = sat_s;
    log.close(unit);
    part
}
