//! Real-threads scaling demo: the hardware-validation leg of the paper
//! (§7) in one run.
//!
//! 1. Sweeps the openbench workload over 1..=N OS threads on both host
//!    kernel configurations and prints the scalable-vs-collapsing table:
//!    the sv6-like (striped, `O_ANYFD`) kernel holds its per-core
//!    throughput while the linux-like kernel (lowest FD under `file_lock`,
//!    the directory's `i_mutex`, shared counts) degrades as threads are
//!    added.
//! 2. Replays a sample of TESTGEN's generated commutative tests on real
//!    threads and cross-checks every return value against the simulated
//!    sv6 kernel — the differential link between the symbolic pipeline and
//!    real execution.
//!
//! `--metrics-out <path>` exports the scaling series and the campaign's
//! structured event stream (per-pair pools, seeds, summary) as a stamped
//! JSON snapshot.
//!
//! Run with `cargo run --release --example host_scaling`.

use scalable_commutativity::bench::hostbench::{host_thread_counts, open_columns};
use scalable_commutativity::bench::{render_table, series_json, sweep};
use scalable_commutativity::host::{available_threads, on_threads};
use scalable_commutativity::host::{differential_campaign, CampaignConfig, HostReplayer};
use scalable_commutativity::model::CallKind;
use scalable_commutativity::obs::{metrics_out, EventLog, Json, MetricsRegistry, RunMeta};

fn main() {
    let threads = host_thread_counts();
    println!(
        "host parallelism: {} hardware threads; sweeping {threads:?}\n",
        available_threads()
    );

    let series = sweep(&open_columns(), &threads, |mode, workload, n| {
        on_threads(workload, mode, n, 30_000, None)
    });
    println!(
        "{}",
        render_table("openbench on real threads (ops/sec/core)", &series)
    );

    let sv6 = &series[0];
    let linuxlike = &series[1];
    let flat_ratio = sv6.points.last().unwrap().ops_per_sec_per_core
        / sv6.points.first().unwrap().ops_per_sec_per_core;
    let collapse_ratio = linuxlike.points.last().unwrap().ops_per_sec_per_core
        / linuxlike.points.first().unwrap().ops_per_sec_per_core;
    println!(
        "{} keeps {:.0}% of single-thread per-core throughput; {} keeps {:.0}%\n",
        sv6.name,
        flat_ratio * 100.0,
        linuxlike.name,
        collapse_ratio * 100.0
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
            &format!("threads {threads:?}, 30000 ops, campaign 200 tests"),
        );
        snapshot
            .extras
            .push(("openbench_host".to_string(), series_json(&series)));
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
