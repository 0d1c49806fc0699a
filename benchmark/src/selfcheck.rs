//! `selfcheck`: is the benchmark steady and do its traces close?
//!
//! Runs each workload twice untraced and once traced, each in a fresh
//! process, and fails if two runs of the same code disagree by more than a
//! metric's bound or on any exact count, if a trace does not account for the
//! traced wall clock, or if tracing costs too much. Leaves one
//! `out/<workload>.json` per workload in the `baseline/` format.

use crate::report::{out_dir, RunResult};
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Options;
use scalable_commutativity::obs::{git_rev, Json};
use std::path::Path;
use std::process::{Command, ExitCode};

/// What a traced run must show: the share of the traced wall clock its
/// layer spans cover at least, and the share tracing may cost at most.
///
/// The sweeps are traced from this crate around calls of milliseconds, so
/// the spans close to a percent and cost nothing measurable. The mail
/// pipeline is traced by the program's own `MailTelemetry` around stages of
/// 0.5-40 us: recording a span and timing ~20 syscalls per message is itself
/// 10-27 % of an 18 us sv6 message, and falls between the spans.
fn trace_limits(workload: &str) -> (f64, f64) {
    if workload.starts_with("mail_") {
        (0.80, 0.40)
    } else {
        (0.95, 0.15)
    }
}

/// Two `setup_s` readings this close agree whatever their ratio.
const SETUP_SLACK_S: f64 = 0.5;

fn run_once(workload: &str, options: &Options, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start a {workload} run: {e}"))?;
    let file = RunResult::file_name(workload, traced);
    let result = RunResult::read(&out_dir().join(&file))?;
    if !status.success() || !result.correct() {
        return Err(format!(
            "the run behind {file} failed its correctness gate or exited with {status}"
        ));
    }
    Ok(result)
}

/// How much worse the worse of two readings is than the better, as a share
/// of the better.
fn disagreement(a: f64, b: f64, better: Better) -> f64 {
    let (best, worst) = match better {
        Better::Lower => (a.min(b), a.max(b)),
        Better::Higher => (a.max(b), a.min(b)),
    };
    if best == 0.0 {
        return if worst == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (worst - best).abs() / best.abs()
}

/// Everything wrong with one workload's three runs.
fn judge(first: &RunResult, second: &RunResult, traced: &RunResult) -> Vec<String> {
    let mut problems = Vec::new();
    for spec in END_TO_END.iter().chain(&PER_LAYER) {
        let (Some(bound), Some(a), Some(b)) = (
            spec.bound,
            first.metric(spec.name),
            second.metric(spec.name),
        ) else {
            continue;
        };
        let share = disagreement(a, b, spec.better);
        println!(
            "  {:<40} {a:>14.4} {b:>14.4} {:<7} differ by {:5.1} % (bound {:.0} %)",
            spec.name,
            spec.unit,
            share * 100.0,
            bound * 100.0
        );
        // Set-up is short, so a scheduling hiccup is a large share of it:
        // as issue 11 has it, "+25 % or +0.5 s".
        let within_slack = spec.name == "setup_s" && (a - b).abs() <= SETUP_SLACK_S;
        if share > bound && !within_slack {
            problems.push(format!(
                "{} read {a} then {b}: {:.1} % apart, bound {:.0} %",
                spec.name,
                share * 100.0,
                bound * 100.0
            ));
        }
    }
    for (name, value) in &first.counts {
        for other in [second, traced] {
            match other.counts.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v == value => {}
                Some((_, v)) => problems.push(format!("count {name} read {value} then {v}")),
                None => problems.push(format!("count {name} read {value}, then was not printed")),
            }
        }
    }
    let closure = traced.metric("trace.closure_share").unwrap_or(0.0);
    let overhead = traced
        .metric("trace.overhead_share")
        .unwrap_or(f64::INFINITY);
    println!("  trace.closure_share {closure:.4}, trace.overhead_share {overhead:.4}");
    let (closure_floor, overhead_ceiling) = trace_limits(&traced.workload);
    if closure < closure_floor {
        problems.push(format!(
            "trace.closure_share {closure:.3} is below {closure_floor}"
        ));
    }
    if overhead > overhead_ceiling {
        problems.push(format!(
            "trace.overhead_share {overhead:.3} is above {overhead_ceiling}"
        ));
    }
    problems
}

/// How much worse `now` is than `reference`, as a share of `reference`;
/// negative when it is better.
fn regression(reference: f64, now: f64, better: Better) -> f64 {
    let worse_by = match better {
        Better::Lower => now - reference,
        Better::Higher => reference - now,
    };
    if worse_by == 0.0 {
        return 0.0;
    }
    worse_by / reference.abs()
}

/// This commit's two untraced runs against the committed trajectory point:
/// every metric with a bound, one-sided. It is the only place the mail
/// pipeline's capacity and open-loop latencies are held against an earlier
/// commit, because the driver bounds only what all four workloads report.
/// Exact counts are not compared: a model fix may change the corpus.
fn judge_against_baseline(baseline: &Json, first: &RunResult, second: &RunResult) -> Vec<String> {
    let mut problems = Vec::new();
    for spec in END_TO_END.iter().chain(&PER_LAYER) {
        let reference = baseline
            .get("untraced_median_of_2")
            .and_then(|metrics| metrics.get(spec.name))
            .and_then(Json::as_f64);
        let (Some(bound), Some(reference), Some(a), Some(b)) = (
            spec.bound,
            reference,
            first.metric(spec.name),
            second.metric(spec.name),
        ) else {
            continue;
        };
        let now = (a + b) / 2.0;
        let share = regression(reference, now, spec.better);
        println!(
            "  {:<40} {reference:>14.4} {now:>14.4} {:<7} worse by {:+6.1} % (bound {:.0} %)",
            spec.name,
            spec.unit,
            share * 100.0,
            bound * 100.0
        );
        let within_slack = spec.name == "setup_s" && now - reference <= SETUP_SLACK_S;
        if share > bound && !within_slack {
            problems.push(format!(
                "{} was {reference} at {}, is {now}: {:.1} % worse, bound {:.0} %",
                spec.name,
                baseline
                    .get("git_rev")
                    .and_then(Json::as_str)
                    .unwrap_or("?"),
                share * 100.0,
                bound * 100.0
            ));
        }
    }
    problems
}

/// The committed trajectory point of `workload`, if this machine can be
/// compared with the one that recorded it.
fn comparable_baseline(workload: &str) -> Option<Json> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baseline")
        .join(format!("{workload}.json"));
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let Some(baseline) = baseline else {
        println!("  no readable {}: nothing to compare with", path.display());
        return None;
    };
    let recorded_on = baseline.get("nproc").and_then(Json::as_u64);
    if recorded_on != Some(crate::nproc() as u64) {
        println!(
            "  {} was recorded on {recorded_on:?} hardware threads, this machine has {}: not compared",
            path.display(),
            crate::nproc()
        );
        return None;
    }
    Some(baseline)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The `baseline/<workload>.json` document: who measured, the untraced
/// medians, the traced layer table and the exact counts.
fn baseline(options: &Options, first: &RunResult, second: &RunResult, traced: &RunResult) -> Json {
    let untraced = first
        .metrics
        .iter()
        .filter_map(|(name, a)| {
            second
                .metric(name)
                .map(|b| (name.clone(), Json::F64((a + b) / 2.0)))
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .filter_map(|spec| {
            traced
                .metric(spec.name)
                .map(|v| (spec.name.to_string(), Json::F64(v)))
        })
        .collect();
    let mut counts = traced.counts.clone();
    counts.extend(
        first
            .counts
            .iter()
            .filter(|(n, _)| !traced.counts.iter().any(|(t, _)| t == n))
            .cloned(),
    );
    Json::obj(vec![
        ("workload", first.workload.as_str().into()),
        ("git_rev", git_rev().into()),
        ("nproc", crate::nproc().into()),
        ("rustc", rustc_version().into()),
        ("seed", options.seed.into()),
        ("seconds", options.seconds.into()),
        ("untraced_median_of_2", Json::Obj(untraced)),
        ("traced", Json::Obj(layers)),
        (
            "counts",
            Json::Obj(counts.into_iter().map(|(n, v)| (n, Json::U64(v))).collect()),
        ),
    ])
}

/// One object member per line, so that two trajectory points diff line by
/// line.
fn render_lines(value: &Json, indent: usize, out: &mut String) {
    match value {
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (key, member)) in pairs.iter().enumerate() {
                out.push_str(&" ".repeat(indent + 1));
                out.push_str(&Json::from(key.as_str()).render());
                out.push_str(": ");
                render_lines(member, indent + 1, out);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        other => out.push_str(&other.render()),
    }
}

pub fn run(options: &Options) -> ExitCode {
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        if options
            .workload
            .as_deref()
            .is_some_and(|only| only != workload)
        {
            continue;
        }
        println!("{workload}: two untraced runs and one traced");
        let runs = [false, false, true].map(|traced| run_once(workload, options, traced));
        let [Ok(first), Ok(second), Ok(traced)] = &runs else {
            failures.extend(runs.iter().filter_map(|run| run.as_ref().err().cloned()));
            continue;
        };
        let mut problems = judge(first, second, traced);
        if let Some(baseline) = comparable_baseline(workload) {
            println!("{workload}: against the committed baseline");
            problems.extend(judge_against_baseline(&baseline, first, second));
        }
        failures.extend(problems.into_iter().map(|p| format!("{workload}: {p}")));
        let path = out_dir().join(format!("{workload}.json"));
        let mut text = String::new();
        render_lines(&baseline(options, first, second, traced), 0, &mut text);
        if let Err(e) = std::fs::write(&path, text + "\n") {
            failures.push(format!("{}: {e}", path.display()));
        }
    }
    if failures.is_empty() {
        println!("selfcheck passed");
        return ExitCode::SUCCESS;
    }
    for failure in &failures {
        eprintln!("SELFCHECK FAILED: {failure}");
    }
    ExitCode::from(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_measured_from_the_better_reading() {
        assert!((disagreement(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((disagreement(110.0, 100.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((disagreement(100.0, 80.0, Better::Higher) - 0.20).abs() < 1e-12);
        assert_eq!(disagreement(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(disagreement(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn baseline_files_have_one_member_per_line_and_still_parse() {
        let doc = Json::obj(vec![
            ("workload", "mail_sv6".into()),
            ("counts", Json::obj(vec![("tests", 650u64.into())])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let mut text = String::new();
        render_lines(&doc, 0, &mut text);
        assert_eq!(
            text,
            "{\n \"workload\": \"mail_sv6\",\n \"counts\": {\n  \"tests\": 650\n },\n \"empty\": {}\n}"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    fn run_with(traced: bool, metrics: &[(&str, f64)], counts: &[(&str, u64)]) -> RunResult {
        let mut result = RunResult::new("sweep_open", traced, 1, 15);
        for (name, value) in metrics {
            result.set(name, *value);
        }
        for (name, value) in counts {
            result.count(name, *value);
        }
        result
    }

    #[test]
    fn steady_runs_with_a_closing_trace_pass() {
        let a = run_with(
            false,
            &[("wall_s", 5.0), ("setup_s", 0.010)],
            &[("tests", 650)],
        );
        let b = run_with(
            false,
            &[("wall_s", 5.2), ("setup_s", 0.011)],
            &[("tests", 650)],
        );
        let t = run_with(
            true,
            &[
                ("trace.closure_share", 0.99),
                ("trace.overhead_share", 0.02),
            ],
            &[("tests", 650), ("paths", 39_204)],
        );
        assert_eq!(judge(&a, &b, &t), Vec::<String>::new());
    }

    #[test]
    fn each_failure_condition_is_reported() {
        let a = run_with(false, &[("wall_s", 5.0)], &[("tests", 650)]);
        let slow = run_with(false, &[("wall_s", 6.5)], &[("tests", 650)]);
        let drifted = run_with(false, &[("wall_s", 5.0)], &[("tests", 651)]);
        let good = run_with(
            true,
            &[
                ("trace.closure_share", 0.99),
                ("trace.overhead_share", 0.02),
            ],
            &[("tests", 650)],
        );
        let open = run_with(
            true,
            &[
                ("trace.closure_share", 0.90),
                ("trace.overhead_share", 0.02),
            ],
            &[("tests", 650)],
        );
        let heavy = run_with(
            true,
            &[
                ("trace.closure_share", 0.99),
                ("trace.overhead_share", 0.20),
            ],
            &[("tests", 650)],
        );
        let other_corpus = run_with(
            true,
            &[
                ("trace.closure_share", 0.99),
                ("trace.overhead_share", 0.02),
            ],
            &[("tests", 649)],
        );
        assert!(judge(&a, &slow, &good)[0].contains("wall_s"));
        assert!(judge(&a, &drifted, &good)[0].contains("count tests"));
        assert!(judge(&a, &a, &open)[0].contains("closure"));
        assert!(judge(&a, &a, &heavy)[0].contains("overhead"));
        assert!(judge(&a, &a, &other_corpus)[0].contains("count tests"));
        let no_counts = run_with(
            true,
            &[
                ("trace.closure_share", 0.99),
                ("trace.overhead_share", 0.02),
            ],
            &[],
        );
        assert!(judge(&a, &a, &no_counts)[0].contains("was not printed"));
    }

    #[test]
    fn only_a_regression_against_the_baseline_is_reported() {
        let baseline = Json::obj(vec![
            ("git_rev", "abc1234".into()),
            (
                "untraced_median_of_2",
                Json::obj(vec![
                    ("wall_s", Json::F64(1.0)),
                    ("loadgen.lo.lat_p50_us", Json::F64(50.0)),
                    ("host.workloads.mailbench.msgs_per_s", Json::F64(100_000.0)),
                ]),
            ),
        ]);
        let run = |wall: f64, p50: f64, capacity: f64| {
            run_with(
                false,
                &[
                    ("wall_s", wall),
                    ("loadgen.lo.lat_p50_us", p50),
                    ("host.workloads.mailbench.msgs_per_s", capacity),
                ],
                &[],
            )
        };
        let same = run(1.0, 50.0, 100_000.0);
        let better = run(0.5, 20.0, 200_000.0);
        assert_eq!(
            judge_against_baseline(&baseline, &same, &better),
            Vec::<String>::new()
        );
        let slow_mail = run(1.0, 80.0, 100_000.0);
        let problems = judge_against_baseline(&baseline, &slow_mail, &slow_mail);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("loadgen.lo.lat_p50_us") && problems[0].contains("abc1234"));
        let low_capacity = run(1.0, 50.0, 60_000.0);
        assert!(
            judge_against_baseline(&baseline, &low_capacity, &low_capacity)[0]
                .contains("msgs_per_s")
        );
    }

    #[test]
    fn regression_is_signed_and_relative_to_the_reference() {
        assert!((regression(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((regression(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((regression(100.0, 80.0, Better::Higher) - 0.20).abs() < 1e-12);
        assert_eq!(regression(0.0, 0.0, Better::Lower), 0.0);
    }
}
