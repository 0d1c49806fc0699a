//! openbench (Figure 7b) on the simulated machine.
//!
//! Every core opens and closes its own file in one shared process. With
//! POSIX's lowest-FD rule the allocations do not commute and serialise on
//! the descriptor table; with `O_ANYFD` they commute and sv6 allocates from
//! per-core partitions. Prints Figure 7(b) over the paper's core axis
//! (`SCR_BENCH_QUICK=1`: 1–16 cores) and exits 1 when `O_ANYFD` does not
//! stay flat while lowest FD collapses.
//!
//! `--metrics-out <path>` exports the scaling table as a stamped JSON
//! snapshot (same schema as the `BENCH_*.json` artifacts).
//!
//! Run with `cargo run --release --example openbench`.

use scalable_commutativity::host::fig7::{open_columns, quick, simulated_figure};

fn main() {
    let shape = simulated_figure(
        "openbench",
        "Figure 7(b) — openbench throughput (opens/sec/core)",
        &open_columns(),
        if quick() { 30 } else { 60 },
        (0, 1),
        0.6,
    );
    println!();
    println!("The lowest-FD rule makes concurrent opens non-commutative (the returned");
    println!("descriptor depends on the order), so they cannot scale; O_ANYFD removes the");
    println!("unneeded determinism and the same workload scales linearly (§4, §7.2).");
    if shape.is_err() {
        std::process::exit(1);
    }
}
