//! Figure 6 on hardware: the host-side conflict heatmap and its SIM↔host
//! cross-check.
//!
//! Replays every generated test on the real-threads `HostKernel` — the one
//! kernel body under its sv6 and its Linux-like sharing policy — with a
//! trace window of a `HostTraceSink` around the concurrent pair, and prints
//! four heatmaps: the simulated `Linux`/`sv6` tables next to the measured
//! `linux-host`/`sv6-host` ones.
//!
//! The cross-check then verifies the monitor against the simulator, per
//! test and per policy: every test that was conflict-free on a simulated
//! kernel must be conflict-free on the host kernel of the same policy in
//! every schedule. Any divergence, in either column, is listed with its
//! conflicting labels and fails the run. So does any schedule whose host
//! results match no sequential order of the pair on the simulated kernel
//! of its policy (linearisation), or that loses or duplicates a datagram
//! (conservation) — except, listed explicitly, linearisation violations on
//! tests whose two simulated orders disagree on which call fails (the test
//! does not commute). Both kernels of a column run each test through the
//! one replay, `scr_core::replay`: the simulated one in order, the host
//! one racing.
//!
//! The default run has three legs through the same pipeline: the quick
//! call subset; the §4 socket and process calls with `open` (`ext_calls`);
//! and the differential alphabet, 13 calls (name, descriptor, offset, pipe,
//! socket and process operations) at 96 assignments per case. The last
//! leg's TESTGEN skip-reason histogram is also gated against the committed
//! `tests/differential_fuzz_baseline.txt`: a count above the baseline means
//! previously constructible representatives are skipped again, and the
//! baseline's `tests-run` is a floor on the leg's test count, so the gate
//! cannot pass vacuously if generation collapses. After an intentional
//! coverage change, `--write-baseline` regenerates the file; it refuses to
//! while any other check fails. `--all` sweeps all 24 calls, §4 calls
//! included, in one leg.
//!
//! Beside each host heatmap it prints the conflict-heat table: the top-N
//! hottest line labels by how many traced windows they conflicted in,
//! accumulated by `scr-obs` from the same trace windows that produced the
//! heatmap. `--metrics-out <path>` exports both heat tables
//! (plus run metadata) as a JSON snapshot.
//!
//! Run with `cargo run --release --example host_fig6 [-- --all]`.

use scalable_commutativity::commuter::{CommuterConfig, SkipReason};
use scalable_commutativity::host::{
    available_threads, ext_calls, run_host_fig6, HostFig6Config, HostFig6Results,
};
use scalable_commutativity::model::{CallKind, ALL_CALLS};
use scalable_commutativity::mtrace::DEFAULT_LOG_CAPACITY;
use scalable_commutativity::obs::{metrics_out, Json, MetricsRegistry, RunMeta};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The metrics key of the differential alphabet leg, whose skip histogram
/// is gated against the committed baseline.
const ALPHABET_KEY: &str = "alphabet_cross_check";

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/differential_fuzz_baseline.txt")
}

/// The differential alphabet: name, descriptor, offset and pipe calls, and
/// the six §4 calls, whose pairs flow through the same ANALYZER → TESTGEN
/// → replay route as the file-system calls.
fn alphabet_calls() -> Vec<CallKind> {
    vec![
        CallKind::Stat,
        CallKind::Unlink,
        CallKind::Pipe,
        CallKind::Read,
        CallKind::Write,
        CallKind::Lseek,
        CallKind::Close,
        CallKind::Socket,
        CallKind::Send,
        CallKind::Recv,
        CallKind::Fork,
        CallKind::PosixSpawn,
        CallKind::Wait,
    ]
}

/// Compares the alphabet leg's skip histogram and test count against the
/// committed baseline and returns whether the gate failed.
fn baseline_regressed(results: &HostFig6Results) -> bool {
    let path = baseline_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("FAIL: cannot read baseline {}: {err}", path.display());
            return true;
        }
    };
    let mut baseline: BTreeMap<SkipReason, usize> = BTreeMap::new();
    let mut min_tests_run = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let key = parts.next().unwrap_or_default();
        let count: usize = parts
            .next()
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("malformed baseline line: {line}"));
        if key == "tests-run" {
            min_tests_run = count;
            continue;
        }
        let reason = SkipReason::parse(key)
            .unwrap_or_else(|| panic!("unknown skip reason in baseline: {line}"));
        baseline.insert(reason, count);
    }
    let skips = results.sim_sv6.skip_histogram();
    println!("skip reasons: {skips:?}");
    let mut failed = false;
    if results.tests_run < min_tests_run {
        eprintln!(
            "FAIL: test generation collapsed: ran {} tests, baseline requires {min_tests_run}",
            results.tests_run
        );
        failed = true;
    }
    for reason in SkipReason::ALL {
        let now = skips.get(&reason).copied().unwrap_or(0);
        let allowed = baseline.get(&reason).copied().unwrap_or(0);
        if now > allowed {
            eprintln!("FAIL: skip-reason regression: {reason} is {now}, baseline allows {allowed}");
            failed = true;
        } else if now < allowed {
            println!(
                "note: {reason} improved to {now} (baseline {allowed}); consider --write-baseline"
            );
        }
    }
    failed
}

/// Writes the alphabet leg's test count and skip histogram as the new
/// baseline.
fn write_baseline(results: &HostFig6Results) {
    let mut out = String::from(
        "# host_fig6 differential-alphabet skip-reason baseline (regenerate with --write-baseline)\n",
    );
    out.push_str(&format!("tests-run {}\n", results.tests_run));
    for (reason, count) in &results.sim_sv6.skip_histogram() {
        out.push_str(&format!("{reason} {count}\n"));
    }
    let path = baseline_path();
    std::fs::write(&path, out).expect("write baseline");
    println!("baseline written to {}", path.display());
}

/// Runs one leg, prints its tables and verdicts, and returns its results
/// with whether any gate failed.
fn run_leg(name: &str, config: &HostFig6Config) -> (HostFig6Results, bool) {
    println!(
        "{name}: {} calls ({} pairs), {} schedules per test",
        config.calls.len(),
        config.calls.len() * (config.calls.len() + 1) / 2,
        config.schedules_per_test,
    );
    let started = std::time::Instant::now();
    let results = run_host_fig6(config);
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
        "SIM↔host cross-check: {} divergences; {} linearisation and {} conservation \
         violations ({} unexplained)",
        results.divergences.len(),
        results.linearisation_violations.len(),
        results.conservation_violations.len(),
        results.unexplained_violations().len()
    );
    if !results.divergences.is_empty() {
        println!("{}", results.describe_divergences());
    }
    let violations = results.describe_violations();
    if !violations.is_empty() {
        println!("{violations}");
    }

    let mut failed = false;
    if !results.divergences.is_empty() {
        eprintln!("FAIL: {name}: SIM↔host divergences (listed above)");
        failed = true;
    }
    if !results.unexplained_violations().is_empty() {
        eprintln!(
            "FAIL: {name}: unexplained linearisation or conservation violations (listed above)"
        );
        failed = true;
    }
    if results.dropped > 0 {
        eprintln!(
            "FAIL: {name}: {} accesses dropped — raise the log capacity",
            results.dropped
        );
        failed = true;
    }
    // Keep a 4× margin below the log size, so a footprint that grows
    // fails here before it starts dropping accesses.
    if results.max_window_accesses > DEFAULT_LOG_CAPACITY / 4 {
        eprintln!(
            "FAIL: {name}: a traced window recorded {} accesses on one core, over a quarter \
             of the {DEFAULT_LOG_CAPACITY}-slot log",
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
                "FAIL: {name}: {label} heatmap and heat table disagree \
                 (conflicting tests: {has_conflicts}, hot lines: {has_heat})"
            );
            failed = true;
        }
    }
    (results, failed)
}

fn main() {
    let all = std::env::args().any(|a| a == "--all");
    let write = std::env::args().any(|a| a == "--write-baseline");
    let config = if all {
        HostFig6Config {
            max_assignments_per_case: 96,
            ..HostFig6Config::quick(ALL_CALLS.as_ref())
        }
    } else {
        HostFig6Config::quick(&CommuterConfig::quick_call_set())
    };
    let threads = available_threads();
    println!("host figure 6 on {threads} hardware threads");
    if threads < 4 {
        println!(
            "note: {threads} hardware thread(s) < 4 — schedules interleave by preemption only; \
             conflict verdicts are still exact (they depend on touched lines, not timing)"
        );
    }
    let mut legs = vec![("figure 6", "cross_check", config)];
    // The §4 socket and process calls with `open`, then the differential
    // alphabet, through the same pipeline. `--all` already sweeps every one
    // of their pairs.
    if !all {
        legs.push((
            "§4 extension calls",
            "ext_cross_check",
            HostFig6Config {
                threads: 0,
                ..HostFig6Config::quick(&ext_calls())
            },
        ));
        legs.push((
            "differential alphabet",
            ALPHABET_KEY,
            HostFig6Config {
                max_assignments_per_case: 96,
                threads: 0,
                ..HostFig6Config::quick(&alphabet_calls())
            },
        ));
    }
    let mut failed = false;
    let mut summaries = Vec::new();
    for (name, key, config) in &legs {
        let (results, leg_failed) = run_leg(name, config);
        failed |= leg_failed;
        if *key == ALPHABET_KEY && !write {
            failed |= baseline_regressed(&results);
        }
        summaries.push((key, config, results));
    }
    if write {
        // A baseline regenerated while a check fails would launder a real
        // bug into "expected".
        let alphabet = summaries.iter().find(|(key, ..)| **key == ALPHABET_KEY);
        match alphabet {
            Some((_, _, results)) if !failed => write_baseline(results),
            Some(_) => eprintln!("FAIL: a check failed; the baseline is not rewritten"),
            None => {
                eprintln!("FAIL: --all has no differential alphabet leg to write a baseline from");
                failed = true;
            }
        }
    }

    if let Some(path) = metrics_out() {
        let (_, config, main) = &summaries[0];
        let mut snapshot = MetricsRegistry::new(config.cores).snapshot();
        snapshot.meta = RunMeta::capture(
            "host_fig6",
            "sv6-host+linux-host",
            config.cores,
            &format!(
                "{} calls, {} schedules/test, {} tests",
                config.calls.len(),
                config.schedules_per_test,
                main.tests_run
            ),
        );
        for (key, _, results) in &summaries {
            snapshot.extras.push((
                key.to_string(),
                Json::obj(vec![
                    ("tests_run", results.tests_run.into()),
                    ("dropped", results.dropped.into()),
                    ("divergences", results.divergences.len().into()),
                    (
                        "linearisation_violations",
                        results.linearisation_violations.len().into(),
                    ),
                    (
                        "conservation_violations",
                        results.conservation_violations.len().into(),
                    ),
                    (
                        "unexplained_violations",
                        results.unexplained_violations().len().into(),
                    ),
                ]),
            ));
        }
        snapshot
            .extras
            .push(("heat_sv6_host".to_string(), main.heat_sv6.to_json()));
        snapshot
            .extras
            .push(("heat_linux_host".to_string(), main.heat_linux.to_json()));
        snapshot.write(&path).expect("write metrics snapshot");
        println!("metrics snapshot written to {}", path.display());
    }
    if failed {
        std::process::exit(1);
    }
    println!("host figure 6 cross-check passed");
}
