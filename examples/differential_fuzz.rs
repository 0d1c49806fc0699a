//! Bounded differential-fuzz gate for CI.
//!
//! Runs a fixed-seed differential campaign over a representative call set
//! (name, descriptor and pipe operations), replaying each generated test
//! under two schedules on real threads, and fails if
//!
//! * any replay disagrees with the simulated kernel, or
//! * TESTGEN's skip-reason histogram regresses against the checked-in
//!   baseline (`tests/differential_fuzz_baseline.txt`): a count above the
//!   baseline means previously-constructible representatives are being
//!   skipped again.
//!
//! Run with `cargo run --release --example differential_fuzz`; pass
//! `--write-baseline` after an intentional coverage change to regenerate
//! the baseline file.
//!
//! Pass `--soak <seconds>` for the long-running mode: campaigns run back to
//! back with a fresh randomized seed each round (derived from the wall
//! clock, printed at every round so any failure is reproducible by passing
//! the seed through a one-line config change) until the time budget is
//! spent. The fixed-seed CI gate and its baseline comparison are unchanged;
//! the soak mode only hunts for schedule- and selection-dependent
//! mismatches that a fixed seed would never reach.

use scalable_commutativity::commuter::SkipReason;
use scalable_commutativity::host::{differential_campaign, CampaignConfig, HostReplayer};
use scalable_commutativity::model::CallKind;
use scalable_commutativity::obs::{metrics_out, EventLog, MetricsRegistry, RunMeta};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/differential_fuzz_baseline.txt")
}

/// Exports the event stream (seeds, per-round outcomes, per-pair pools,
/// mismatches) as a stamped snapshot, so a failed round is reproducible
/// from the artifact alone: the round's seed and every config knob are in
/// the events.
fn write_event_snapshot(path: &Path, events: &EventLog, mode: &str, config_line: &str) {
    let mut snapshot = MetricsRegistry::new(1).snapshot();
    snapshot.meta = RunMeta::capture("differential_fuzz", mode, 4, config_line);
    snapshot.events = events.records();
    match snapshot.write(path) {
        Ok(()) => println!("event snapshot written to {}", path.display()),
        Err(err) => eprintln!("warning: cannot write {}: {err}", path.display()),
    }
}

/// The representative call set the gate sweeps (name, descriptor, offset,
/// pipe, socket and process operations). `lseek` rode in once the indexed
/// solver made the offset-arithmetic-heavy `lseek ∥ write` corpus cheap —
/// it used to take minutes and was carved out of every CI-path sweep. The
/// §4 extension calls rode in when socket queues and the process table
/// became symbolic: their pairs now flow through the same ANALYZER →
/// TESTGEN → replay route as the file-system calls.
fn gate_calls() -> Vec<CallKind> {
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

/// Parses `--soak <seconds>` from the argument list.
fn soak_budget() -> Option<Duration> {
    let args: Vec<String> = std::env::args().collect();
    let idx = args.iter().position(|a| a == "--soak")?;
    let seconds: u64 = args
        .get(idx + 1)
        .and_then(|s| s.parse().ok())
        .expect("--soak requires a whole number of seconds");
    Some(Duration::from_secs(seconds))
}

/// Runs randomized-seed campaigns until the budget is exhausted; exits
/// non-zero on the first mismatch, printing the seed that found it.
fn run_soak(budget: Duration) -> ! {
    let started = Instant::now();
    let mut rounds = 0u64;
    let mut replays = 0usize;
    let events = EventLog::new();
    println!("soak mode: randomized seeds for {budget:?}");
    while started.elapsed() < budget {
        // The wall clock is entropy enough for a seed that varies per run
        // and per round (no RNG crate in the build image); what matters is
        // that it is *printed and recorded*, so any failure is reproducible.
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock before epoch")
            .as_nanos() as u64
            ^ rounds.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let config = CampaignConfig {
            max_tests: 120,
            schedules_per_test: 2,
            seed,
            ..CampaignConfig::new(&gate_calls())
        };
        println!("soak round {rounds}: seed {seed:#018x}");
        events.emit_kv(
            "soak-round",
            vec![
                ("round", rounds.into()),
                ("seed", seed.into()),
                ("max_tests", config.max_tests.into()),
                ("schedules_per_test", config.schedules_per_test.into()),
                (
                    "max_assignments_per_case",
                    config.max_assignments_per_case.into(),
                ),
            ],
        );
        let report = differential_campaign(&config, &HostReplayer::default(), Some(&events));
        replays += report.replays_run;
        events.emit_kv(
            "soak-round-done",
            vec![
                ("round", rounds.into()),
                ("seed", seed.into()),
                ("tests_run", report.tests_run.into()),
                ("replays_run", report.replays_run.into()),
                ("mismatches", report.mismatches.len().into()),
            ],
        );
        if !report.all_agree() {
            eprintln!(
                "FAIL: seed {seed:#018x} diverged:\n{}",
                report.describe_mismatches()
            );
            // The artifact alone reproduces the failure: it records the
            // round's seed, the config knobs and the mismatching test ids.
            let path =
                metrics_out().unwrap_or_else(|| PathBuf::from("differential_soak_failure.json"));
            write_event_snapshot(
                &path,
                &events,
                "soak",
                &format!("FAILED at round {rounds}, seed {seed:#018x}"),
            );
            std::process::exit(1);
        }
        rounds += 1;
    }
    println!(
        "soak passed: {rounds} rounds, {replays} replays, {:.1?} elapsed",
        started.elapsed()
    );
    if let Some(path) = metrics_out() {
        write_event_snapshot(
            &path,
            &events,
            "soak",
            &format!("{rounds} rounds, {replays} replays, all agreed"),
        );
    }
    std::process::exit(0);
}

fn main() {
    if let Some(budget) = soak_budget() {
        run_soak(budget);
    }
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let config = CampaignConfig {
        max_tests: 120,
        schedules_per_test: 2,
        seed: 0xC0DE_D1FF,
        ..CampaignConfig::new(&gate_calls())
    };
    println!(
        "differential fuzz: {} calls, budget {} tests × {} schedules, seed {:#x}",
        config.calls.len(),
        config.max_tests,
        config.schedules_per_test,
        config.seed
    );
    let events = EventLog::new();
    let report = differential_campaign(&config, &HostReplayer::default(), Some(&events));
    println!(
        "replayed {} tests ({} replays) across {} pairs; {} mismatches",
        report.tests_run,
        report.replays_run,
        report.pairs.iter().filter(|p| p.replayed > 0).count(),
        report.mismatches.len()
    );
    for pair in &report.pairs {
        if pair.generated > 0 {
            println!(
                "  {:>8} ∥ {:<8} generated {:>3}, replayed {:>3}, skipped {:>3}",
                pair.calls.0.name(),
                pair.calls.1.name(),
                pair.generated,
                pair.replayed,
                pair.skipped
            );
        }
    }
    println!("skip reasons: {:?}", report.skip_reasons);

    let mut failed = false;
    if !report.all_agree() {
        eprintln!(
            "FAIL: simulated and host results diverged:\n{}",
            report.describe_mismatches()
        );
        failed = true;
    }

    let path = baseline_path();
    if write_baseline {
        // A mismatch still fails the run: a baseline regenerated while the
        // oracle diverges would launder a real bug into "expected".
        if failed {
            std::process::exit(1);
        }
        let mut out = String::from(
            "# differential_fuzz skip-reason baseline (regenerate with --write-baseline)\n",
        );
        // The replay count is a *lower* bound: if test generation collapses
        // the gate must not pass vacuously with zero skips and zero tests.
        out.push_str(&format!("tests-run {}\n", report.tests_run));
        for (reason, count) in &report.skip_reasons {
            out.push_str(&format!("{reason} {count}\n"));
        }
        std::fs::write(&path, out).expect("write baseline");
        println!("baseline written to {}", path.display());
        return;
    }

    let baseline_text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("FAIL: cannot read baseline {}: {err}", path.display());
            std::process::exit(1);
        }
    };
    let mut baseline: BTreeMap<SkipReason, usize> = BTreeMap::new();
    let mut min_tests_run = 0usize;
    for line in baseline_text.lines() {
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
    if report.tests_run < min_tests_run {
        eprintln!(
            "FAIL: test generation collapsed: replayed {} tests, baseline requires {min_tests_run}",
            report.tests_run
        );
        failed = true;
    }
    for reason in SkipReason::ALL {
        let now = report.skip_reasons.get(&reason).copied().unwrap_or(0);
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

    if let Some(path) = metrics_out() {
        write_event_snapshot(
            &path,
            &events,
            "fixed-seed",
            &format!(
                "seed {:#x}, {} tests, {} replays, {} mismatches",
                config.seed,
                report.tests_run,
                report.replays_run,
                report.mismatches.len()
            ),
        );
    }
    if failed {
        std::process::exit(1);
    }
    println!("differential fuzz gate passed");
}
