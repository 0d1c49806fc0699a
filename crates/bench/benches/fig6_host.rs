//! Figure 6 on real threads: the host-side conflict heatmap.
//!
//! Runs the host Figure 6 pipeline — TESTGEN's tests replayed on the
//! real-threads `HostKernel` with a `scr-hostmtrace` tracing window around
//! the concurrent pair — and prints the `sv6-host` and `linux-host`
//! heatmaps next to their simulated counterparts, plus the SIM↔host
//! cross-check (every test conflict-free on a simulated kernel must be
//! conflict-free on the host kernel of the same policy, lowest-FD
//! contention excepted and listed explicitly).
//!
//! Run with `cargo bench -p scr-bench --bench fig6_host`. Set
//! `SCR_BENCH_QUICK=1` to restrict the sweep to the representative call
//! subset the quick pipeline uses.

use scr_core::CommuterConfig;
use scr_host::{run_host_fig6, HostFig6Config};
use scr_model::ALL_CALLS;

fn main() {
    let quick = scr_bench::quick();
    let config = if quick {
        HostFig6Config::quick(&CommuterConfig::quick_call_set())
    } else {
        HostFig6Config {
            max_assignments_per_case: 96,
            ..HostFig6Config::quick(ALL_CALLS.as_ref())
        }
    };
    println!(
        "host figure 6: {} calls, {} hardware threads available, {} schedules per test",
        config.calls.len(),
        scr_host::available_threads(),
        config.schedules_per_test
    );
    let started = std::time::Instant::now();
    let results = run_host_fig6(&config);
    println!(
        "ran {} tests on 4 kernels in {:.1?} ({} dropped accesses)\n",
        results.tests_run,
        started.elapsed(),
        results.dropped
    );
    for report in [
        &results.sim_linux,
        &results.host_linux,
        &results.sim_sv6,
        &results.host_sv6,
    ] {
        println!("{report}");
        println!();
    }
    println!(
        "cross-check: {} divergences ({} explained by {}, {} unexplained)",
        results.divergences.len(),
        results.explained_divergences().len(),
        scr_host::LOWEST_FD_EXCEPTION,
        results.unexplained_divergences().len()
    );
    if !results.divergences.is_empty() {
        println!("{}", results.describe_divergences());
    }
    assert!(
        results.unexplained_divergences().is_empty(),
        "unexplained SIM↔host divergences"
    );
}
