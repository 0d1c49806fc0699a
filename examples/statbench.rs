//! statbench (Figure 7a) on the simulated machine.
//!
//! Half the cores `fstat` one file while the other half `link`/`unlink` it.
//! Prints Figure 7(a) — per-core throughput of the commutative `fstatx`
//! (no `st_nlink`) against `fstat` with a shared and with a Refcache link
//! count — over the paper's core axis (`SCR_BENCH_QUICK=1`: 1–16 cores),
//! then the conflict report for a single traced `fstat` ∥ `link`, making
//! the cause of the difference visible. Exits 1 when `fstatx` does not stay
//! flat while Refcache `fstat` collapses.
//!
//! `--metrics-out <path>` exports the scaling table as a stamped JSON
//! snapshot (same schema as the `BENCH_*.json` artifacts).
//!
//! Run with `cargo run --release --example statbench`.

use scalable_commutativity::host::fig7::{quick, simulated_figure, stat_columns};
use scalable_commutativity::kernel::api::{OpenFlags, SyscallApi};
use scalable_commutativity::kernel::Sv6Kernel;
use scalable_commutativity::mtrace::{on_core, Lines};

fn main() {
    let shape = simulated_figure(
        "statbench",
        "Figure 7(a) — statbench throughput (fstats/sec/core)",
        &stat_columns(),
        if quick() { 30 } else { 60 },
        (0, 2),
        0.6,
    );

    // Show *why*: one traced round of fstat vs link on two cores.
    let kernel = Sv6Kernel::new(2);
    let machine = kernel.lines().expect("a simulated kernel has a machine");
    let pid = kernel.new_process();
    let fd = kernel
        .open(0, pid, "statfile", OpenFlags::create())
        .unwrap();
    machine.begin_window();
    on_core(0, || {
        kernel.fstat(0, pid, fd).unwrap();
    });
    on_core(1, || {
        kernel.link(1, pid, "statfile", "extra").unwrap();
    });
    println!("\nconflict report for fstat || link on the same file:");
    println!("{}", machine.end_window());
    println!("fstat must read the link count that link is updating — they do not commute,");
    println!("so no implementation can make this pair conflict-free (§4, §7.2).");
    if shape.is_err() {
        std::process::exit(1);
    }
}
