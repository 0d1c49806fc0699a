//! A Figure-6-style scan over POSIX call pairs.
//!
//! Runs the full COMMUTER pipeline (ANALYZER → TESTGEN → MTRACE) for a
//! configurable subset of the 24 modelled system calls and prints, for both
//! kernels, the table of call pairs with the number of generated tests that
//! were not conflict-free — the library equivalent of Figure 6.
//!
//! By default a representative subset of the file-system calls is scanned so
//! the example finishes quickly; pass `--all` to scan all 24 calls.
//!
//! Every run also writes `BENCH_testgen.json` (override the path with
//! `SCR_TESTGEN_JSON`): per-pair wall-clock split into the symbolic stages
//! (ANALYZER + TESTGEN solving) and the MTRACE replays, plus the analyzer's
//! path and solver-query counters, so performance changes leave a recorded
//! trajectory and "where did the analyzer's time go" has an answer. CI
//! uploads the file as an artifact. The file is stamped with run metadata
//! (git revision, mode, cores, config) so trajectories are attributable
//! across PRs.
//!
//! The sweep itself narrates progress: each pair's completion is recorded
//! as a row carrying the per-pair skip-histogram delta and how many
//! rejected representatives the repair loop decided without a search and
//! how many it searched. `--metrics-out <path>` exports those rows (as
//! `pairs`) and the timing summary (as `sweep`) in a JSON snapshot. The
//! process's peak resident set (`VmHWM`) is printed and recorded as
//! `peak_rss_mb`.
//!
//! Pass `--perf-gate` for the performance smoke gate: the scan is
//! restricted to the `{open, lseek, write, send, recv}` call set and the
//! run fails when its peak resident set exceeds a fixed 32 MB (where
//! `/proc/self/status` cannot be read, the gate prints `unmeasured`), or
//! unless three pairs stay under their wall-clock ceilings — the
//! offset-arithmetic-heavy `lseek ∥ write` pair, the historical TESTGEN hot
//! spot that took *minutes* before the indexed solver
//! (`SCR_TESTGEN_GATE_SECONDS`, default 30; generous on purpose — the dev
//! container does it in well under a second); the §4 `send ∥ recv` pair
//! (`SCR_TESTGEN_EXT_GATE_SECONDS`, default 60); and full-size
//! `open ∥ open`, the ANALYZER's largest bill (130 000 paths, 99 % of them
//! dead), under a fixed 15 s: it took 24–37 s when the analyzer asked the
//! solver about every dead path and takes 5 s now that each refuted
//! decision prefix is decided once.
//!
//! Pass `--threads N` to sweep on N claiming workers (`0` = one per
//! hardware thread; default 1). The corpus, the reports and the recorded
//! `corpus_fingerprint` are byte-identical for every value — only the
//! wall-clock changes. The gate ceilings assume a single worker; a
//! worker-count-specific ceiling `SCR_TESTGEN_GATE_SECONDS_T{N}` (and
//! `SCR_TESTGEN_EXT_GATE_SECONDS_T{N}`) overrides the base variable when
//! the effective worker count is N, so multi-thread CI legs can gate
//! tighter without retuning the single-thread leg.
//!
//! Run with `cargo run --release --example posix_scan [-- --all | --perf-gate] [--threads N]`.

use scalable_commutativity::commuter::sweep::effective_threads;
use scalable_commutativity::commuter::{
    run_commuter_with_progress, CommuterConfig, CommuterResults, LinuxLikeFactory, Sv6Factory,
    SweepEvent,
};
use scalable_commutativity::model::CallKind;
use scalable_commutativity::obs::{metrics_out, Json, MetricsRegistry, RunMeta};

/// Default wall-clock ceiling for the `--perf-gate` mode, in seconds.
const DEFAULT_GATE_SECONDS: f64 = 30.0;

/// Default ceiling for the `send ∥ recv` leg of the gate, in seconds. The
/// §4 socket pair drags message-queue state through every path, making it
/// the heaviest extension-pair solve; it gets its own ceiling
/// (`SCR_TESTGEN_EXT_GATE_SECONDS`) so fs-solver and ext-solver
/// regressions are distinguishable in CI output.
const DEFAULT_EXT_GATE_SECONDS: f64 = 60.0;

/// Ceiling for the full-size `open ∥ open` leg of the gate, in seconds:
/// three times what the pair takes, under half of what it took before the
/// analyzer's refuted-prefix memo.
const OPEN_OPEN_GATE_SECONDS: f64 = 15.0;

/// Ceiling on the `--perf-gate` run's peak resident set, in MB: four times
/// the 7.8 MB it reads when TESTGEN keeps nothing between calls. A memo or
/// corpus copy that outlives its unit pushes it over (the solver cache
/// TESTGEN once kept read 70 MB here).
const PEAK_RSS_GATE_MB: f64 = 32.0;

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MB, or `None` where that file cannot be read.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn write_timing_json(
    results: &CommuterResults,
    meta: &RunMeta,
    total_seconds: f64,
    threads: usize,
    peak_rss: Option<f64>,
) {
    let path =
        std::env::var("SCR_TESTGEN_JSON").unwrap_or_else(|_| "BENCH_testgen.json".to_string());
    let repairs_decided: usize = results.pair_timings.iter().map(|t| t.repairs_decided).sum();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"meta\": {},\n", meta.to_json().render()));
    out.push_str(&format!("  \"mode\": \"{}\",\n", meta.mode));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"total_seconds\": {total_seconds:.3},\n"));
    out.push_str(&format!("  \"tests\": {},\n", results.tests.len()));
    out.push_str(&format!("  \"skipped\": {},\n", results.skipped));
    out.push_str(&format!(
        "  \"corpus_fingerprint\": \"{:016x}\",\n",
        results.corpus_fingerprint()
    ));
    out.push_str(&format!("  \"repairs_decided\": {repairs_decided},\n"));
    let peak_rss = peak_rss.map_or("null".to_string(), |mb| format!("{mb:.1}"));
    out.push_str(&format!("  \"peak_rss_mb\": {peak_rss},\n"));
    out.push_str("  \"pairs\": [\n");
    for (i, timing) in results.pair_timings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"a\": \"{}\", \"b\": \"{}\", \"threads\": {}, \"solve_seconds\": {:.4}, \
             \"run_seconds\": {:.4}, \"tests\": {}, \"skipped\": {}, \"paths_explored\": {}, \
             \"feasibility_queries\": {}, \"constraints_queried\": {}, \
             \"constraints_compiled\": {}, \"leaves_skipped\": {}, \"feasible_leaves\": {}, \
             \"zero_test_cases\": {}, \"zero_test_seconds\": {:.4}, \"repairs_decided\": {}, \
             \"repair_searches\": {}}}{}\n",
            timing.calls.0.name(),
            timing.calls.1.name(),
            threads,
            timing.solve_seconds,
            timing.run_seconds,
            timing.tests,
            timing.skipped,
            timing.paths_explored,
            timing.feasibility_queries,
            timing.constraints_queried,
            timing.constraints_compiled,
            timing.leaves_skipped,
            timing.feasible_leaves,
            timing.zero_test_cases,
            timing.zero_test_seconds,
            timing.repairs_decided,
            timing.repair_searches,
            if i + 1 < results.pair_timings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(&path, out) {
        Ok(()) => println!("timing written to {path}"),
        Err(err) => eprintln!("warning: cannot write {path}: {err}"),
    }
}

/// Reads a gate ceiling: the worker-count-specific `{var}_T{threads}`
/// wins over the base `{var}`, which wins over `default`.
fn gate_ceiling(var: &str, threads: usize, default: f64) -> f64 {
    std::env::var(format!("{var}_T{threads}"))
        .or_else(|_| std::env::var(var))
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let all = args.iter().any(|a| a == "--all");
    let perf_gate = args.iter().any(|a| a == "--perf-gate");
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let (mut config, mode) = if perf_gate {
        // The historical solver hot spot (lseek ∥ write: minutes before the
        // indexed engine), the heaviest §4 extension pair (send ∥ recv) and
        // the analyzer's largest unit (full-size open ∥ open), so a
        // regression in any of the three is unmistakable against its
        // ceiling.
        (
            CommuterConfig::quick(&[
                CallKind::Open,
                CallKind::Lseek,
                CallKind::Write,
                CallKind::Send,
                CallKind::Recv,
            ]),
            "perf-gate",
        )
    } else if all {
        (CommuterConfig::default(), "all")
    } else {
        (
            CommuterConfig::quick(&CommuterConfig::quick_call_set()),
            "quick",
        )
    };
    config.threads = threads;
    let workers = effective_threads(threads);
    println!(
        "scanning {} calls ({} pairs) on {} worker{} …",
        config.calls.len(),
        config.calls.len() * (config.calls.len() + 1) / 2,
        workers,
        if workers == 1 { "" } else { "s" }
    );
    let sv6 = Sv6Factory { cores: 4 };
    let linux = LinuxLikeFactory { cores: 4 };
    let mut pairs: Vec<Json> = Vec::new();
    let started = std::time::Instant::now();
    let results = run_commuter_with_progress(&config, &[&linux, &sv6], |event| {
        if let SweepEvent::PairDone {
            index,
            total,
            timing,
            skip_delta,
        } = event
        {
            println!(
                "  [{:>3}/{}] {} ∥ {}: {} tests, {} skipped, solve {:.2}s, replay {:.2}s, \
                 {} paths ({} feasible, {} under a refuted prefix, {} queries), \
                 {} zero-test cases ({:.2}s), {} repairs decided, {} searched",
                index + 1,
                total,
                timing.calls.0.name(),
                timing.calls.1.name(),
                timing.tests,
                timing.skipped,
                timing.solve_seconds,
                timing.run_seconds,
                timing.paths_explored,
                timing.feasible_leaves,
                timing.leaves_skipped,
                timing.feasibility_queries,
                timing.zero_test_cases,
                timing.zero_test_seconds,
                timing.repairs_decided,
                timing.repair_searches,
            );
            let skips: Vec<(String, Json)> = skip_delta
                .iter()
                .map(|(reason, count)| (format!("{reason:?}"), (*count).into()))
                .collect();
            pairs.push(Json::obj(vec![
                ("index", index.into()),
                ("total", total.into()),
                ("a", timing.calls.0.name().into()),
                ("b", timing.calls.1.name().into()),
                ("solve_seconds", timing.solve_seconds.into()),
                ("run_seconds", timing.run_seconds.into()),
                ("tests", timing.tests.into()),
                ("skipped", timing.skipped.into()),
                ("paths_explored", timing.paths_explored.into()),
                ("feasibility_queries", timing.feasibility_queries.into()),
                ("constraints_queried", timing.constraints_queried.into()),
                ("constraints_compiled", timing.constraints_compiled.into()),
                ("leaves_skipped", timing.leaves_skipped.into()),
                ("feasible_leaves", timing.feasible_leaves.into()),
                ("zero_test_cases", timing.zero_test_cases.into()),
                ("zero_test_seconds", timing.zero_test_seconds.into()),
                ("skip_delta", Json::Obj(skips)),
                ("repairs_decided", timing.repairs_decided.into()),
                ("repair_searches", timing.repair_searches.into()),
            ]));
        }
    });
    let total_seconds = started.elapsed().as_secs_f64();
    println!(
        "generated {} tests from {} shapes ({} rescued by re-solve; {} skipped)",
        results.tests.len(),
        results.shapes_analyzed,
        results.resolved,
        results.skipped
    );
    if !results.skip_reasons.is_empty() {
        println!("skip reasons: {:?}", results.skip_reasons);
    }
    println!();
    for report in &results.reports {
        println!("{report}\n");
    }
    if let (Some(linux), Some(sv6)) = (results.report_for("Linux"), results.report_for("sv6")) {
        println!(
            "Linux-like baseline scales for {:.0}% of generated tests; sv6 scales for {:.0}%.",
            100.0 * linux.overall_fraction(),
            100.0 * sv6.overall_fraction()
        );
        println!("(The paper reports 68% for Linux 3.8 ramfs and 99% for sv6.)");
    }
    let meta = RunMeta::capture(
        "posix_scan",
        mode,
        4,
        &format!(
            "{} calls, {} tests, {} skipped, {} workers",
            config.calls.len(),
            results.tests.len(),
            results.skipped,
            workers
        ),
    );
    let peak_rss = peak_rss_mb();
    match peak_rss {
        Some(mb) => println!("peak RSS {mb:.1} MB"),
        None => println!("peak RSS unmeasured (/proc/self/status unreadable)"),
    }
    write_timing_json(&results, &meta, total_seconds, workers, peak_rss);
    if let Some(path) = metrics_out() {
        let mut snapshot = MetricsRegistry::new(4).snapshot();
        snapshot.meta = meta.clone();
        snapshot.extras.push((
            "sweep".to_string(),
            Json::obj(vec![
                ("total_seconds", total_seconds.into()),
                ("shapes_analyzed", results.shapes_analyzed.into()),
                ("tests", results.tests.len().into()),
                ("resolved", results.resolved.into()),
                ("skipped", results.skipped.into()),
            ]),
        ));
        snapshot
            .extras
            .push(("pairs".to_string(), Json::Arr(pairs)));
        snapshot.write(&path).expect("write metrics snapshot");
        println!("metrics snapshot written to {}", path.display());
    }

    if perf_gate {
        let ceiling = gate_ceiling("SCR_TESTGEN_GATE_SECONDS", workers, DEFAULT_GATE_SECONDS);
        let ext_ceiling = gate_ceiling(
            "SCR_TESTGEN_EXT_GATE_SECONDS",
            workers,
            DEFAULT_EXT_GATE_SECONDS,
        );
        // Gate on each hot pair's own solve time (the scan also covers
        // the call set's other pairs; their timings land in the JSON but
        // must not pollute the gated numbers).
        let mut failed = false;
        for (pair, ceiling) in [
            ((CallKind::Lseek, CallKind::Write), ceiling),
            ((CallKind::Send, CallKind::Recv), ext_ceiling),
            ((CallKind::Open, CallKind::Open), OPEN_OPEN_GATE_SECONDS),
        ] {
            let timing = results.pair_timings.iter().find(|t| t.calls == pair);
            let (solve_seconds, tests) = timing
                .map(|t| (t.solve_seconds, t.tests))
                .unwrap_or((0.0, 0));
            let label = format!("{} ∥ {}", pair.0.name(), pair.1.name());
            println!(
                "perf gate: {label} corpus ({tests} tests) solved in {solve_seconds:.2}s \
                 (ceiling {ceiling:.0}s)"
            );
            if tests == 0 {
                eprintln!("FAIL: the {label} pair generated no tests");
                failed = true;
            }
            if solve_seconds > ceiling {
                eprintln!(
                    "FAIL: perf regression on {label}: {solve_seconds:.2}s exceeds \
                     the {ceiling:.0}s ceiling"
                );
                failed = true;
            }
        }
        match peak_rss {
            Some(mb) => {
                println!("perf gate: peak RSS {mb:.1} MB (ceiling {PEAK_RSS_GATE_MB:.0} MB)");
                if mb > PEAK_RSS_GATE_MB {
                    eprintln!(
                        "FAIL: peak RSS {mb:.1} MB exceeds the {PEAK_RSS_GATE_MB:.0} MB ceiling"
                    );
                    failed = true;
                }
            }
            None => println!("perf gate: peak RSS unmeasured"),
        }
        if failed {
            std::process::exit(1);
        }
    }
}
