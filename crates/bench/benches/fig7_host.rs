//! Figure 7 on real hardware: the statbench / openbench / mailbench
//! workloads executed by OS threads against the `scr-host` kernel, printed
//! as the same tables as the simulated sweeps.
//!
//! Run with `cargo bench -p scr-bench --bench fig7_host`. Set
//! `SCR_BENCH_QUICK=1` for a fast low-iteration pass.

use scr_bench::hostbench::{
    host_thread_counts, mail_columns, mailbench_host_latency, open_columns, render_latency_table,
};
use scr_bench::{quick, render_table, stat_columns, sweep};
use scr_host::on_threads;

fn main() {
    let (fs_ops, mail_ops) = if quick() {
        (2_000, 500)
    } else {
        (20_000, 4_000)
    };
    let threads = host_thread_counts();
    println!(
        "host parallelism: {} hardware threads; sweeping {threads:?}\n",
        scr_host::available_threads()
    );
    for (title, columns, ops) in [
        (
            "statbench (host threads, ops/sec/core)",
            stat_columns(),
            fs_ops,
        ),
        (
            "openbench (host threads, ops/sec/core)",
            open_columns(),
            fs_ops,
        ),
        (
            "mailbench (host threads, messages/sec/core)",
            mail_columns(),
            mail_ops,
        ),
    ] {
        let series = sweep(&columns, &threads, |mode, workload, n| {
            on_threads(workload, mode, n, ops, None)
        });
        println!("{}", render_table(title, &series));
    }
    println!(
        "{}",
        render_latency_table(
            "mailbench closed-loop latency (ns per message)",
            &mailbench_host_latency(&threads, mail_ops),
        )
    );
}
