//! The repo's benchmark: four workloads, one fresh process per run.
//!
//! ```text
//! scr-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! scr-benchmark <name> [--traced] [--seed N] [--seconds S]
//! scr-benchmark selfcheck [--workload <name>] [--seed N] [--seconds S]
//! ```
//!
//! A run prints every metric it computed by name and unit, the exact counts,
//! and — as the last line of standard output — the one JSON object the
//! benchmark driver reads. It exits non-zero when its correctness gate fails.

mod mail;
mod procfs;
mod report;
mod selfcheck;
mod spans;
mod spec;
mod stats;
mod sweeps;

use report::RunResult;
use std::process::ExitCode;

/// What the command line asked for.
#[derive(Debug, PartialEq)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&options.seconds) {
                    return Err(format!("--seconds {} is outside 1..=60", options.seconds));
                }
            }
            "--trace" => {
                options.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                }
            }
            "--traced" => options.traced = true,
            name if !name.starts_with('-') && options.workload.is_none() => {
                options.workload = Some(name.to_string())
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if let Some(name) = &options.workload {
        if !spec::WORKLOADS.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name}; the workloads are {:?}",
                spec::WORKLOADS
            ));
        }
    }
    Ok(options)
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker and load threads: `min(2, nproc)`.
fn workers() -> usize {
    nproc().min(2)
}

fn run_workload(options: &Options) -> RunResult {
    let workload = options.workload.as_deref().expect("checked by the caller");
    let mut result = RunResult::new(workload, options.traced, options.seed, options.seconds);
    let (seed, seconds, traced, workers) =
        (options.seed, options.seconds, options.traced, workers());
    match workload {
        "sweep_open" => sweeps::run(sweeps::Sweep::Open, seconds, traced, workers, &mut result),
        "fig6_wide" => sweeps::run(
            sweeps::Sweep::Fig6Wide,
            seconds,
            traced,
            workers,
            &mut result,
        ),
        "mail_sv6" => mail::run(mail::Mail::Sv6, seed, seconds, traced, workers, &mut result),
        "mail_linux" => mail::run(
            mail::Mail::Linux,
            seed,
            seconds,
            traced,
            workers,
            &mut result,
        ),
        other => unreachable!("parse_options admitted {other}"),
    }
    result
}

fn main() -> ExitCode {
    if let Err(violation) = spec::validate(&spec::END_TO_END, &spec::PER_LAYER) {
        eprintln!("scr-benchmark: metric tables break the driver's contract: {violation}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selfcheck = args.first().is_some_and(|arg| arg == "selfcheck");
    let options = match parse_options(&args[usize::from(selfcheck)..]) {
        Ok(options) if selfcheck || options.workload.is_some() => options,
        Ok(_) => {
            eprintln!(
                "usage: scr-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                spec::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
        Err(message) => {
            eprintln!("scr-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if selfcheck {
        return selfcheck::run(&options);
    }
    eprintln!(
        "{} seed {} for {} s, {}, {} hardware thread(s), {} worker(s)",
        options.workload.as_deref().unwrap_or_default(),
        options.seed,
        options.seconds,
        if options.traced { "traced" } else { "untraced" },
        nproc(),
        workers()
    );
    let result = run_workload(&options);
    print!("{}", result.render_text());
    if let Err(e) = result.write(&report::out_dir()) {
        eprintln!("scr-benchmark: cannot write the result file: {e}");
        return ExitCode::from(2);
    }
    println!("{}", result.driver_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_and_the_short_command_lines_mean_the_same() {
        let driver = parse(&[
            "--workload",
            "mail_sv6",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        let short = parse(&["mail_sv6", "--traced", "--seed", "7"]).unwrap();
        assert_eq!(driver, short);
        assert_eq!(driver.seconds, spec::RUN_SECONDS);
        assert!(!parse(&["fig6_wide"]).unwrap().traced);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "no_such"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["mail_sv6", "mail_linux"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
