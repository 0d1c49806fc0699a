//! Figure 7 on real threads, and the differential check: the
//! hardware-validation leg of the paper (§7) in one run.
//!
//! 1. Sweeps the three Figure 7 workloads (`scr_host::workloads`) over
//!    1, 2, 4, … OS threads up to the hardware limit and prints one table
//!    per panel: statbench in its three stat modes on the sv6-like kernel,
//!    and openbench and the mail server with the sv6-like kernel's
//!    commutative variant against the linux-like kernel's (lowest FD under
//!    `file_lock`, the directory's `i_mutex`, shared counts). Each table is
//!    followed by the share of single-thread per-core throughput every
//!    curve keeps, then the closed-loop mail latency table.
//! 2. Replays a sample of TESTGEN's generated commutative tests on real
//!    threads and cross-checks every return value against the simulated
//!    sv6 kernel — the differential link between the symbolic pipeline and
//!    real execution. Exits 1 on any mismatch.
//!
//! `SCR_BENCH_QUICK=1` runs 2 000 file-system and 500 mail operations per
//! thread instead of 20 000 and 4 000. `--metrics-out <path>` exports the
//! three panels and the campaign's structured event stream (per-pair pools,
//! seeds, summary) as a stamped JSON snapshot.
//!
//! Run with `cargo run --release --example host_scaling`.

use scalable_commutativity::host::fig7::{
    host_mail_columns, host_open_columns, host_thread_counts, mailbench_host_latency, quick,
    render_latency_table, render_table, series_json, stat_columns, sweep,
};
use scalable_commutativity::host::{available_threads, on_threads};
use scalable_commutativity::host::{differential_campaign, CampaignConfig, HostReplayer};
use scalable_commutativity::model::CallKind;
use scalable_commutativity::obs::{metrics_out, EventLog, Json, MetricsRegistry, RunMeta};

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

    println!("differential campaign: replaying generated commutative tests on real threads…");
    let events = EventLog::new();
    let report = differential_campaign(
        &CampaignConfig {
            max_tests: 200,
            schedules_per_test: 2,
            ..CampaignConfig::new(&[
                CallKind::Open,
                CallKind::Stat,
                CallKind::Link,
                CallKind::Unlink,
                CallKind::Rename,
            ])
        },
        &HostReplayer::default(),
        Some(&events),
    );
    println!(
        "  {} tests replayed ({} replays, budget spread over {} pairs), {} simulated-vs-host mismatches",
        report.tests_run,
        report.replays_run,
        report.pairs.iter().filter(|p| p.replayed > 0).count(),
        report.mismatches.len()
    );
    if !report.skip_reasons.is_empty() {
        println!(
            "  unconstructible representatives skipped: {:?}",
            report.skip_reasons
        );
    }
    if let Some(path) = metrics_out() {
        let mut snapshot = MetricsRegistry::new(available_threads().max(1)).snapshot();
        snapshot.meta = RunMeta::capture(
            "host_scaling",
            "sv6-host+linux-host",
            *threads.last().unwrap_or(&1),
            &format!(
                "threads {threads:?}, {fs_ops} fs ops, {mail_ops} mail ops, campaign 200 tests"
            ),
        );
        for (key, series) in &panels {
            snapshot.extras.push((key.to_string(), series_json(series)));
        }
        snapshot.extras.push((
            "campaign".to_string(),
            Json::obj(vec![
                ("tests_run", report.tests_run.into()),
                ("replays_run", report.replays_run.into()),
                ("mismatches", report.mismatches.len().into()),
            ]),
        ));
        snapshot.events = events.records();
        snapshot.write(&path).expect("write metrics snapshot");
        println!("metrics snapshot written to {}", path.display());
    }
    if !report.all_agree() {
        println!("{}", report.describe_mismatches());
        std::process::exit(1);
    }
}
