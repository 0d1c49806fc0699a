//! Figure 7: each panel's columns, swept over a core axis with either
//! driver, and the tables the figure examples print.
//!
//! The workloads are defined once, in [`crate::workloads`], with two
//! drivers: [`simulate`] on the simulated machine and [`on_threads`] on
//! real threads. This module names each panel's columns — a sharing
//! policy, a workload variant and a legend label — and [`sweep`]s them:
//!
//! * [`stat_columns`] — Figure 7(a): n/2 cores `fstat` one file while n/2
//!   cores `link`/`unlink` it, in three modes (plain `fstat` with a
//!   Refcache link count, plain `fstat` with a single shared link count,
//!   and `fstatx` without `st_nlink`). The same columns run on either
//!   substrate.
//! * [`open_columns`] and [`host_open_columns`] — Figure 7(b): every core
//!   opens and closes a per-core file, with lowest-FD versus `O_ANYFD`
//!   allocation.
//! * [`mail_columns`] and [`host_mail_columns`] — Figure 7(c): the
//!   qmail-style mail server in its regular-API and commutative-API
//!   configurations.
//!
//! On the simulated machine every column runs the sv6 policy; the
//! real-threads columns pit it against the Linux-like policy. The
//! `statbench`, `openbench` and `mailserver` examples print the simulated
//! panels through [`simulated_figure`]; the `host_scaling` example prints
//! the real-threads panels and the closed-loop latency table
//! ([`mailbench_host_latency`]).

use crate::harness::available_threads;
use crate::kernel::HostMode;
use crate::workloads::{on_threads, simulate, MailTelemetry, StatMode, Workload};
use scr_kernel::mail::MailConfig;
use scr_mtrace::ScalingPoint;
use scr_obs::{metrics_out, HistogramSnapshot, Json, MetricsRegistry, RunMeta, DEFAULT_QUANTILES};

/// The core counts swept by the simulated Figure 7 (the paper's x-axis:
/// 1 core, then whole sockets of 10 up to 80).
pub fn core_counts() -> Vec<usize> {
    vec![1, 10, 20, 30, 40, 50, 60, 70, 80]
}

/// A reduced sweep for tests and quick runs.
pub fn quick_core_counts() -> Vec<usize> {
    vec![1, 4, 8, 16]
}

/// Whether `SCR_BENCH_QUICK` asks for the reduced sweep.
pub fn quick() -> bool {
    std::env::var("SCR_BENCH_QUICK").is_ok()
}

/// Thread counts for a real-threads sweep: 1, 2, 4, … up to the hardware
/// limit (always at least two points so shape comparisons are possible).
/// A measured point beyond the physical core count would show scheduler
/// artefacts, not cache-coherence behaviour.
pub fn host_thread_counts() -> Vec<usize> {
    let max = available_threads();
    let mut counts = vec![1];
    let mut n = 2;
    while n <= max {
        counts.push(n);
        n *= 2;
    }
    if counts.len() < 2 {
        counts.push(2);
    }
    counts
}

/// One curve of a figure: the kernel's sharing policy, the workload
/// variant, and its legend label.
pub type Column = (HostMode, Workload, String);

/// Figure 7(a)'s columns, on either substrate: the sv6 policy in each stat
/// mode, labelled by the mode.
pub fn stat_columns() -> Vec<Column> {
    [
        StatMode::FstatxNoNlink,
        StatMode::FstatSharedCount,
        StatMode::FstatRefcache,
    ]
    .map(|mode| {
        (
            HostMode::Sv6,
            Workload::Stat(mode),
            mode.label().to_string(),
        )
    })
    .into()
}

/// Figure 7(b)'s simulated columns: `O_ANYFD` against lowest FD.
pub fn open_columns() -> Vec<Column> {
    [(true, "Any FD (O_ANYFD)"), (false, "Lowest FD")]
        .map(|(anyfd, label)| (HostMode::Sv6, Workload::Open { anyfd }, label.to_string()))
        .into()
}

/// Figure 7(c)'s simulated columns: commutative against regular APIs.
pub fn mail_columns() -> Vec<Column> {
    [
        (MailConfig::CommutativeApis, "Commutative APIs"),
        (MailConfig::RegularApis, "Regular APIs"),
    ]
    .map(|(config, label)| (HostMode::Sv6, Workload::Mail(config), label.to_string()))
    .into()
}

/// Figure 7(b) on real threads: sv6-like `O_ANYFD` against the linux-like
/// kernel with lowest-FD allocation under its `file_lock`.
pub fn host_open_columns() -> Vec<Column> {
    [
        (HostMode::Sv6, true, "O_ANYFD"),
        (HostMode::Linuxlike, false, "lowest FD"),
    ]
    .map(|(mode, anyfd, fds)| {
        (
            mode,
            Workload::Open { anyfd },
            format!("{}, {fds}", mode.label()),
        )
    })
    .into()
}

/// Figure 7(c) on real threads (enqueue → notification socket → qman →
/// spawn/wait → deliver): commutative APIs on the sv6-like kernel against
/// regular APIs on the linux-like kernel.
pub fn host_mail_columns() -> Vec<Column> {
    [
        (HostMode::Sv6, MailConfig::CommutativeApis, "commutative"),
        (HostMode::Linuxlike, MailConfig::RegularApis, "regular"),
    ]
    .map(|(mode, config, apis)| {
        let label = format!("{}, {apis} APIs", mode.label());
        (mode, Workload::Mail(config), label)
    })
    .into()
}

/// One benchmark series: a labelled curve of scaling points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Label (e.g. "fstatx", "Lowest FD").
    pub name: String,
    /// One point per core count.
    pub points: Vec<ScalingPoint>,
}

/// Sweeps `columns` over `counts`: one series per column, one point per
/// count, each from `driver(policy, workload, count)` — [`simulate`] or
/// [`on_threads`] with the run length bound.
pub fn sweep(
    columns: &[Column],
    counts: &[usize],
    driver: impl Fn(HostMode, Workload, usize) -> ScalingPoint,
) -> Vec<Series> {
    columns
        .iter()
        .map(|(mode, workload, label)| Series {
            name: label.clone(),
            points: counts
                .iter()
                .map(|&n| driver(*mode, *workload, n))
                .collect(),
        })
        .collect()
}

/// Sweeps `columns` on the simulated machine: `rounds` rounds per point.
pub fn simulated(columns: &[Column], counts: &[usize], rounds: u64) -> Vec<Series> {
    sweep(columns, counts, |mode, workload, cores| {
        simulate(workload, mode, cores, rounds)
    })
}

/// One simulated Figure 7 panel, as the figure examples print it: sweeps
/// `columns` over the figures' axis ([`quick_core_counts`] under
/// `SCR_BENCH_QUICK`, else [`core_counts`]) for `rounds` rounds per point,
/// prints the table under `title`, writes it to `--metrics-out` as a
/// snapshot stamped `example`, and checks that column `flat` keeps
/// `flat_ratio` of its single-core throughput while column `collapsing`
/// collapses ([`check_shape`]).
pub fn simulated_figure(
    example: &str,
    title: &str,
    columns: &[Column],
    rounds: u64,
    (flat, collapsing): (usize, usize),
    flat_ratio: f64,
) -> Result<(), String> {
    let counts = if quick() {
        quick_core_counts()
    } else {
        core_counts()
    };
    let series = simulated(columns, &counts, rounds);
    println!("{}", render_table(title, &series));
    let shape = check_shape(&series[flat], &series[collapsing], flat_ratio);
    match &shape {
        Ok(()) => println!(
            "shape OK: {} stays flat while {} collapses",
            series[flat].name, series[collapsing].name
        ),
        Err(e) => println!("shape MISMATCH: {e}"),
    }
    if let Some(path) = metrics_out() {
        let mut snapshot = MetricsRegistry::new(1).snapshot();
        let max_cores = counts.iter().copied().max().unwrap_or(1);
        let config = format!("{rounds} rounds, cores {counts:?}");
        snapshot.meta = RunMeta::capture(example, "sv6-sim", max_cores, &config);
        snapshot
            .extras
            .push(("scaling".to_string(), series_json(&series)));
        snapshot.write(&path).expect("write metrics snapshot");
        println!("metrics snapshot written to {}", path.display());
    }
    shape
}

/// `series` as JSON: one `{label, points: [{cores, ops_per_sec_per_core}]}`
/// object per series.
pub fn series_json(series: &[Series]) -> Json {
    let points = |s: &Series| {
        let points = s.points.iter().map(|p| {
            Json::obj(vec![
                ("cores", p.cores.into()),
                ("ops_per_sec_per_core", p.ops_per_sec_per_core.into()),
            ])
        });
        Json::Arr(points.collect())
    };
    Json::Arr(
        series
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("label", s.name.as_str().into()),
                    ("points", points(s)),
                ])
            })
            .collect(),
    )
}

/// Formats `series` as an aligned text table under `title`: one column per
/// series, one row per core count of the first series.
pub fn render_table(title: &str, series: &[Series]) -> String {
    let mut out = format!("{title}\n{:>6}", "cores");
    for s in series {
        out.push_str(&format!("  {:>22}", s.name));
    }
    out.push('\n');
    let rows = series.first().map_or(&[][..], |s| &s.points);
    for (i, point) in rows.iter().enumerate() {
        out.push_str(&format!("{:>6}", point.cores));
        for s in series {
            let value = s.points.get(i).map_or(0.0, |p| p.ops_per_sec_per_core);
            out.push_str(&format!("  {value:>22.0}"));
        }
        out.push('\n');
    }
    out
}

/// Asserts the qualitative "shape" claims the paper makes about a pair of
/// series:
///
/// * the scalable variant keeps at least `flat_ratio` of its single-core
///   per-core throughput at the largest core count (the flat curve of
///   Figure 7), and
/// * the non-scalable variant loses at least half of **its own** single-core
///   per-core throughput at the largest core count (the collapsing curve),
///   and ends up below the scalable variant.
///
/// Returns an error string describing the first violated condition (used by
/// the integration tests and the figure examples).
pub fn check_shape(scalable: &Series, collapsing: &Series, flat_ratio: f64) -> Result<(), String> {
    let first = scalable
        .points
        .first()
        .ok_or_else(|| "empty series".to_string())?;
    let last = scalable
        .points
        .last()
        .ok_or_else(|| "empty series".to_string())?;
    let ratio = last.ops_per_sec_per_core / first.ops_per_sec_per_core;
    if ratio < flat_ratio {
        return Err(format!(
            "{} lost too much per-core throughput: {:.2} of single-core",
            scalable.name, ratio
        ));
    }
    let collapsing_first = collapsing
        .points
        .first()
        .ok_or_else(|| "empty series".to_string())?;
    let collapsing_last = collapsing
        .points
        .last()
        .ok_or_else(|| "empty series".to_string())?;
    let collapsing_ratio =
        collapsing_last.ops_per_sec_per_core / collapsing_first.ops_per_sec_per_core;
    if collapsing_ratio > 0.5 {
        return Err(format!(
            "{} did not collapse: it kept {:.2} of its single-core per-core throughput",
            collapsing.name, collapsing_ratio
        ));
    }
    if collapsing_last.ops_per_sec_per_core >= last.ops_per_sec_per_core {
        return Err(format!(
            "{} did not end up below {} ({:.0} vs {:.0} ops/s/core)",
            collapsing.name,
            scalable.name,
            collapsing_last.ops_per_sec_per_core,
            last.ops_per_sec_per_core
        ));
    }
    Ok(())
}

/// One row of the closed-loop mail latency table: a configuration at a
/// thread count, with its merged `mail.latency_ns` distribution.
pub struct MailLatencyRow {
    /// Configuration label (same legend as [`host_mail_columns`]).
    pub name: String,
    /// Worker threads in the run.
    pub threads: usize,
    /// Per-operation (enqueue → delivered) latency, ns.
    pub latency: HistogramSnapshot,
}

/// mailbench with per-operation latency recording: each cell re-runs the
/// workload with a [`MailTelemetry`] attached, so the same
/// `mail.latency_ns` histogram the open-loop observatory records is filled
/// by the closed-loop path — these are the service-time-ish numbers the
/// open-loop sweep's intended-arrival latencies should be compared against.
pub fn mailbench_host_latency(threads: &[usize], ops_per_thread: u64) -> Vec<MailLatencyRow> {
    let mut rows = Vec::new();
    for (mode, workload, name) in host_mail_columns() {
        for &n in threads {
            let telemetry = MailTelemetry::new(n);
            on_threads(workload, mode, n, ops_per_thread, Some(&telemetry));
            rows.push(MailLatencyRow {
                name: name.clone(),
                threads: n,
                latency: telemetry.latency.merged(),
            });
        }
    }
    rows
}

/// Render the closed-loop latency rows with the default quantile columns
/// (p50 / p90 / p99 / p99.9).
pub fn render_latency_table(title: &str, rows: &[MailLatencyRow]) -> String {
    let mut out = format!("{title}\n{:<30} {:>8}", "configuration", "threads");
    for (label, _) in DEFAULT_QUANTILES {
        let label = if label == "p999" { "p99.9" } else { label };
        out.push_str(&format!(" {label:>10}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<30} {:>8}", row.name, row.threads));
        for (_, q) in DEFAULT_QUANTILES {
            out.push_str(&format!(" {:>10.0}", row.latency.quantile(q)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_point(cores: usize, ops: f64) -> ScalingPoint {
        ScalingPoint {
            cores,
            total_ops: 100,
            ops_per_sec_per_core: ops,
            remote_transfers: 0,
            elapsed_seconds: 1.0,
        }
    }

    #[test]
    fn shape_check_accepts_flat_vs_collapse() {
        let flat = Series {
            name: "scalable".into(),
            points: vec![fake_point(1, 1000.0), fake_point(80, 950.0)],
        };
        let collapse = Series {
            name: "contended".into(),
            points: vec![fake_point(1, 1000.0), fake_point(80, 50.0)],
        };
        assert!(check_shape(&flat, &collapse, 0.7).is_ok());
    }

    #[test]
    fn shape_check_rejects_flat_that_collapses() {
        let not_flat = Series {
            name: "supposedly-scalable".into(),
            points: vec![fake_point(1, 1000.0), fake_point(80, 100.0)],
        };
        let collapse = Series {
            name: "contended".into(),
            points: vec![fake_point(1, 1000.0), fake_point(80, 50.0)],
        };
        assert!(check_shape(&not_flat, &collapse, 0.7).is_err());
    }

    #[test]
    fn render_table_has_a_header_and_one_row_per_core_count() {
        let series = vec![Series {
            name: "anyfd".into(),
            points: [1, 2, 4].map(|n| fake_point(n, 10.0)).into(),
        }];
        let table = render_table("openbench", &series);
        assert!(table.contains("openbench"));
        assert!(table.contains("anyfd"));
        assert_eq!(table.lines().count(), 2 + 3);
    }

    #[test]
    fn column_labels_are_distinct_within_each_figure() {
        for columns in [
            stat_columns(),
            open_columns(),
            mail_columns(),
            host_open_columns(),
            host_mail_columns(),
        ] {
            let labels: std::collections::BTreeSet<_> = columns.iter().map(|c| &c.2).collect();
            assert_eq!(labels.len(), columns.len(), "{columns:?}");
        }
    }

    #[test]
    fn core_counts_match_the_paper_axis() {
        assert_eq!(core_counts().first(), Some(&1));
        assert_eq!(core_counts().last(), Some(&80));
        assert!(quick_core_counts().len() < core_counts().len());
    }

    #[test]
    fn host_thread_counts_start_at_one_and_grow() {
        let counts = host_thread_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.len() >= 2);
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn latency_sweep_fills_a_distribution_per_cell() {
        let threads = [1usize, 2];
        let rows = mailbench_host_latency(&threads, 10);
        assert_eq!(rows.len(), 2 * threads.len());
        for row in &rows {
            assert_eq!(row.latency.count, 10 * row.threads as u64);
            assert!(row.latency.p50() <= row.latency.p999());
        }
        let table = render_latency_table("mail latency (ns)", &rows);
        assert!(table.contains("p99.9"));
        assert!(table.contains("sv6-like (striped), commutative APIs"));
    }
}
