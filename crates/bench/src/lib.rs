//! # scr-bench — the Figure 7 sweeps and the benchmark binaries
//!
//! The Figure 7 workloads are defined once, in `scr_host::workloads`, with
//! two drivers: `simulate` on the simulated machine and `on_threads` on
//! real threads. This crate names each figure's columns — a sharing policy,
//! a workload variant and a legend label — and sweeps them over a core
//! count axis with either driver:
//!
//! * [`stat_columns`] — Figure 7(a): n/2 cores `fstat` one file while n/2
//!   cores `link`/`unlink` it, in three modes (plain `fstat` with a
//!   Refcache link count, plain `fstat` with a single shared link count,
//!   and `fstatx` without `st_nlink`).
//! * [`open_columns`] — Figure 7(b): every core opens and closes a per-core
//!   file, with lowest-FD versus `O_ANYFD` allocation.
//! * [`mail_columns`] — Figure 7(c): the qmail-style mail server in its
//!   regular-API and commutative-API configurations.
//!
//! On the simulated machine every column runs the sv6 policy; the
//! real-threads columns of [`hostbench`] pit it against the Linux-like
//! policy. The `statbench`, `openbench` and `mailserver` examples print the
//! simulated figures; the benchmark binaries under `benches/` print the
//! real-threads Figure 7, both Figure 6 sweeps, the scalable primitives
//! and the TESTGEN solver timings.

pub mod hostbench;

use scr_host::{simulate, HostMode, StatMode, Workload};
use scr_kernel::mail::MailConfig;
use scr_mtrace::ScalingPoint;
use scr_obs::{metrics_out, Json, MetricsRegistry, RunMeta};

/// The core counts swept by the Figure 7 figures (the paper's x-axis:
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

/// One benchmark series: a labelled curve of scaling points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Label (e.g. "fstatx", "Lowest FD").
    pub name: String,
    /// One point per core count.
    pub points: Vec<ScalingPoint>,
}

/// Sweeps `columns` over `counts`: one series per column, one point per
/// count, each from `driver(policy, workload, count)` —
/// `scr_host::simulate` or `scr_host::on_threads` with the run length
/// bound.
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

/// Formats a set of series as the text table printed by the benchmark
/// binaries.
pub fn render_table(title: &str, series: &[Series]) -> String {
    let pairs: Vec<(String, Vec<ScalingPoint>)> = series
        .iter()
        .map(|s| (s.name.clone(), s.points.clone()))
        .collect();
    scr_mtrace::scaling::format_series(title, &pairs)
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
    fn render_table_includes_labels() {
        let series = vec![Series {
            name: "anyfd".into(),
            points: vec![fake_point(1, 10.0)],
        }];
        let table = render_table("openbench", &series);
        assert!(table.contains("openbench"));
        assert!(table.contains("anyfd"));
    }

    #[test]
    fn column_labels_are_distinct_within_each_figure() {
        for columns in [
            stat_columns(),
            open_columns(),
            mail_columns(),
            hostbench::open_columns(),
            hostbench::mail_columns(),
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
}
