//! Figure 7 on real threads: the hardware-validation leg of the paper (§7).
//!
//! Sweeps the three Figure 7 workloads (`scr_host::workloads`) over 1, 2,
//! 4, … OS threads up to the hardware limit and prints one table per panel:
//! statbench in its three stat modes on the sv6-like kernel, and openbench
//! and the mail server with the sv6-like kernel's commutative variant
//! against the linux-like kernel's (lowest FD under `file_lock`, the
//! directory's `i_mutex`, shared counts). Each table is followed by the
//! share of single-thread per-core throughput every curve keeps, then the
//! closed-loop mail latency table. The generated tests of these calls are
//! replayed on real threads by `host_fig6`.
//!
//! `SCR_BENCH_QUICK=1` runs 2 000 file-system and 500 mail operations per
//! thread instead of 20 000 and 4 000. `--metrics-out <path>` exports the
//! three panels as a stamped JSON snapshot.
//!
//! Run with `cargo run --release --example host_scaling`.

use scalable_commutativity::host::fig7::{
    host_mail_columns, host_open_columns, host_thread_counts, mailbench_host_latency, quick,
    render_latency_table, render_table, series_json, stat_columns, sweep,
};
use scalable_commutativity::host::{available_threads, on_threads};
use scalable_commutativity::obs::{metrics_out, MetricsRegistry, RunMeta};

fn main() {
    let (fs_ops, mail_ops) = if quick() {
        (2_000, 500)
    } else {
        (20_000, 4_000)
    };
    let threads = host_thread_counts();
    println!(
        "host parallelism: {} hardware threads; sweeping {threads:?}\n",
        available_threads()
    );

    let mut panels = Vec::new();
    for (key, title, columns, ops) in [
        (
            "statbench_host",
            "statbench (host threads, ops/sec/core)",
            stat_columns(),
            fs_ops,
        ),
        (
            "openbench_host",
            "openbench (host threads, ops/sec/core)",
            host_open_columns(),
            fs_ops,
        ),
        (
            "mailbench_host",
            "mailbench (host threads, messages/sec/core)",
            host_mail_columns(),
            mail_ops,
        ),
    ] {
        let series = sweep(&columns, &threads, |mode, workload, n| {
            on_threads(workload, mode, n, ops, None)
        });
        println!("{}", render_table(title, &series));
        let kept: Vec<String> = series
            .iter()
            .map(|s| {
                let (first, last) = (s.points.first().unwrap(), s.points.last().unwrap());
                let share = last.ops_per_sec_per_core / first.ops_per_sec_per_core;
                format!("{} {:.0}%", s.name, share * 100.0)
            })
            .collect();
        println!(
            "per-core throughput kept at {} threads: {}\n",
            threads.last().unwrap(),
            kept.join("; ")
        );
        panels.push((key, series));
    }
    println!(
        "{}",
        render_latency_table(
            "mailbench closed-loop latency (ns per message)",
            &mailbench_host_latency(&threads, mail_ops),
        )
    );

    if let Some(path) = metrics_out() {
        let mut snapshot = MetricsRegistry::new(available_threads().max(1)).snapshot();
        snapshot.meta = RunMeta::capture(
            "host_scaling",
            "sv6-host+linux-host",
            *threads.last().unwrap_or(&1),
            &format!("threads {threads:?}, {fs_ops} fs ops, {mail_ops} mail ops"),
        );
        for (key, series) in &panels {
            snapshot.extras.push((key.to_string(), series_json(series)));
        }
        snapshot.write(&path).expect("write metrics snapshot");
        println!("metrics snapshot written to {}", path.display());
    }
}
