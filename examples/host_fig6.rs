//! Figure 6 on hardware: the host-side conflict heatmap and its SIM↔host
//! cross-check.
//!
//! Replays every generated test on the real-threads `HostKernel` — the one
//! kernel body under its sv6 and its Linux-like sharing policy — with a
//! `scr-hostmtrace` tracing window around the concurrent pair, and prints
//! four heatmaps: the simulated `Linux`/`sv6` tables next to the measured
//! `linux-host`/`sv6-host` ones.
//!
//! The cross-check then verifies the monitor against the simulator, per
//! test and per policy: every test that was conflict-free on a simulated
//! kernel must be conflict-free on the host kernel of the same policy in
//! every schedule, except the documented lowest-FD-allocation contention
//! cases (the paper's §1 example), which are listed explicitly with their
//! conflicting labels. Any other divergence, in either column, fails the
//! run.
//!
//! Beside each host heatmap it prints the conflict-heat table: the top-N
//! hottest line labels by how many traced windows they conflicted in,
//! accumulated by `scr-obs` from the same `hostmtrace` probe stream that
//! produced the heatmap. `--metrics-out <path>` exports both heat tables
//! (plus run metadata) as a JSON snapshot.
//!
//! Run with `cargo run --release --example host_fig6 [-- --all]`. The
//! default call subset finishes quickly; `--all` sweeps all 24 calls.

use scalable_commutativity::commuter::{CommuterConfig, Figure6Report};
use scalable_commutativity::host::{
    available_threads, ext_failures, run_ext_fig6, run_host_fig6, HostFig6Config,
};
use scalable_commutativity::hostmtrace::DEFAULT_LOG_CAPACITY;
use scalable_commutativity::model::ALL_CALLS;
use scalable_commutativity::obs::{metrics_out, Json, MetricsRegistry, RunMeta};

fn main() {
    let all = std::env::args().any(|a| a == "--all");
    let config = if all {
        HostFig6Config {
            max_assignments_per_case: 96,
            ..HostFig6Config::quick(ALL_CALLS.as_ref())
        }
    } else {
        HostFig6Config::quick(&CommuterConfig::quick_call_set())
    };
    let threads = available_threads();
    println!(
        "host figure 6: {} calls ({} pairs), {} schedules per test, {} hardware threads",
        config.calls.len(),
        config.calls.len() * (config.calls.len() + 1) / 2,
        config.schedules_per_test,
        threads
    );
    if threads < 4 {
        println!(
            "note: {threads} hardware thread(s) < 4 — schedules interleave by preemption only; \
             conflict verdicts are still exact (they depend on touched lines, not timing)"
        );
    }
    let started = std::time::Instant::now();
    let results = run_host_fig6(&config);
    println!(
        "ran {} tests on 4 kernels in {:.1?} ({} dropped accesses, \
         fullest window {} of {} log slots per core)\n",
        results.tests_run,
        started.elapsed(),
        results.dropped,
        results.max_window_accesses,
        DEFAULT_LOG_CAPACITY
    );
    println!("{}", results.sim_linux);
    println!();
    println!("{}", results.host_linux);
    println!(
        "{}",
        results
            .heat_linux
            .render_top("linux-host hottest lines", 10)
    );
    println!("{}", results.sim_sv6);
    println!();
    println!("{}", results.host_sv6);
    println!(
        "{}",
        results.heat_sv6.render_top("sv6-host hottest lines", 10)
    );
    println!(
        "SIM↔host cross-check: {} divergences ({} explained by {}, {} unexplained)",
        results.divergences.len(),
        results.explained_divergences().len(),
        scalable_commutativity::host::LOWEST_FD_EXCEPTION,
        results.unexplained_divergences().len()
    );
    if !results.divergences.is_empty() {
        println!("{}", results.describe_divergences());
    }

    let mut failed = false;
    if !results.unexplained_divergences().is_empty() {
        eprintln!("FAIL: unexplained SIM↔host divergences (listed above)");
        failed = true;
    }
    if results.dropped > 0 {
        eprintln!(
            "FAIL: {} accesses dropped — raise the log capacity",
            results.dropped
        );
        failed = true;
    }
    // Keep a 4× margin below the log size, so a footprint that grows
    // fails here before it starts dropping accesses.
    if results.max_window_accesses > DEFAULT_LOG_CAPACITY / 4 {
        eprintln!(
            "FAIL: a traced window recorded {} accesses on one core, over a quarter of \
             the {DEFAULT_LOG_CAPACITY}-slot log",
            results.max_window_accesses
        );
        failed = true;
    }
    // The heat tables must agree with the heatmaps they sit beside: a mode
    // with conflicting tests must have at least one hot line, and vice versa.
    for (label, report, heat) in [
        ("sv6-host", &results.host_sv6, &results.heat_sv6),
        ("linux-host", &results.host_linux, &results.heat_linux),
    ] {
        let has_conflicts = report.total_tests() > report.total_conflict_free();
        let has_heat = heat.total_conflict_windows() > 0;
        if has_conflicts != has_heat {
            eprintln!(
                "FAIL: {label} heatmap and heat table disagree \
                 (conflicting tests: {has_conflicts}, hot lines: {has_heat})"
            );
            failed = true;
        }
    }
    // §4 extension leg: the TESTGEN-generated socket/process corpus,
    // replayed on real threads and rendered as its own pair of heatmaps
    // (simulated verdict vs host verdict) so the generated Figure 6 rows
    // for the paper's proposed extensions land in the uploaded artifact.
    let ext_started = std::time::Instant::now();
    let ext_outcomes = run_ext_fig6(config.cores, config.schedules_per_test);
    let mut ext_sim = Figure6Report::new("sv6 §4-extension corpus (simulated)");
    let mut ext_host = Figure6Report::new("sv6-host §4-extension corpus (measured)");
    for outcome in &ext_outcomes {
        ext_sim.record(outcome.calls.0, outcome.calls.1, outcome.sim_conflict_free);
        ext_host.record(outcome.calls.0, outcome.calls.1, outcome.host_conflict_free);
    }
    println!(
        "\n§4 extension corpus: {} generated tests × {} schedules in {:.1?}\n",
        ext_outcomes.len(),
        config.schedules_per_test,
        ext_started.elapsed()
    );
    println!("{ext_sim}\n");
    println!("{ext_host}");
    let ext_problems = ext_failures(&ext_outcomes);
    if ext_problems.is_empty() {
        println!("extension cross-check: all outcomes linearizable, conserved, SIM-consistent");
    } else {
        for problem in &ext_problems {
            eprintln!("FAIL: extension corpus: {problem}");
        }
        failed = true;
    }

    if let Some(path) = metrics_out() {
        let mut snapshot = MetricsRegistry::new(config.cores).snapshot();
        snapshot.meta = RunMeta::capture(
            "host_fig6",
            "sv6-host+linux-host",
            config.cores,
            &format!(
                "{} calls, {} schedules/test, {} tests",
                config.calls.len(),
                config.schedules_per_test,
                results.tests_run
            ),
        );
        snapshot.extras.push((
            "cross_check".to_string(),
            Json::obj(vec![
                ("tests_run", results.tests_run.into()),
                ("dropped", results.dropped.into()),
                ("divergences", results.divergences.len().into()),
                ("explained", results.explained_divergences().len().into()),
                (
                    "unexplained",
                    results.unexplained_divergences().len().into(),
                ),
            ]),
        ));
        snapshot.extras.push((
            "ext_corpus".to_string(),
            Json::obj(vec![
                ("tests", ext_outcomes.len().into()),
                ("failures", ext_problems.len().into()),
                (
                    "host_conflict_free",
                    ext_outcomes
                        .iter()
                        .filter(|o| o.host_conflict_free)
                        .count()
                        .into(),
                ),
            ]),
        ));
        snapshot
            .extras
            .push(("heat_sv6_host".to_string(), results.heat_sv6.to_json()));
        snapshot
            .extras
            .push(("heat_linux_host".to_string(), results.heat_linux.to_json()));
        snapshot.write(&path).expect("write metrics snapshot");
        println!("metrics snapshot written to {}", path.display());
    }
    if failed {
        std::process::exit(1);
    }
    println!("host figure 6 cross-check passed");
}
