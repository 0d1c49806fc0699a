//! The real-threads columns of Figure 7 and the closed-loop mail latency
//! table. The workloads are the ones the simulated figures sweep
//! (`scr_host::Workload`), run by `scr_host::on_threads`: the sv6 policy's
//! commutative variant against the Linux-like policy's non-commutative one
//! for openbench and the mail server, and the sv6 policy in all three stat
//! modes ([`crate::stat_columns`]) for statbench.
//!
//! Thread counts are clamped to the host's available parallelism — a
//! measured point beyond the physical core count would show scheduler
//! artefacts, not cache-coherence behaviour.

use crate::Column;
use scr_host::workloads::{on_threads, MailTelemetry};
use scr_host::{available_threads, HostMode, Workload};
use scr_kernel::mail::MailConfig;
use scr_obs::{HistogramSnapshot, DEFAULT_QUANTILES};

/// Thread counts for a host sweep: 1, 2, 4, … up to the hardware limit
/// (always at least two points so shape comparisons are possible).
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

/// Figure 7(b) on real threads: sv6-like `O_ANYFD` against the linux-like
/// kernel with lowest-FD allocation under its `file_lock`.
pub fn open_columns() -> Vec<Column> {
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
pub fn mail_columns() -> Vec<Column> {
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

/// One row of the closed-loop mail latency table: a configuration at a
/// thread count, with its merged `mail.latency_ns` distribution.
pub struct MailLatencyRow {
    /// Configuration label (same legend as [`mail_columns`]).
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
    for (mode, workload, name) in mail_columns() {
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

    #[test]
    fn host_thread_counts_start_at_one_and_grow() {
        let counts = host_thread_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.len() >= 2);
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn host_sweeps_produce_points_for_every_thread_count() {
        let threads = [1usize, 2];
        for columns in [crate::stat_columns(), open_columns(), mail_columns()] {
            let series = crate::sweep(&columns, &threads, |mode, workload, n| {
                on_threads(workload, mode, n, 10, None)
            });
            assert!(!series.is_empty());
            for s in &series {
                assert_eq!(s.points.len(), threads.len());
                assert!(s.points.iter().all(|p| p.ops_per_sec_per_core > 0.0));
            }
        }
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
