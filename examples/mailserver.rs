//! The §7.3 mail server (Figure 7c) on the simulated machine.
//!
//! First delivers one message through the qmail-style pipeline
//! (mail-enqueue → notification socket → mail-qman → mail-deliver) and
//! reads it back from the mailbox. Then prints Figure 7(c) — per-core
//! throughput of the regular-API and the commutative-API configurations —
//! over the paper's core axis (`SCR_BENCH_QUICK=1`: 1–16 cores), and exits
//! 1 when the commutative APIs lose more than three quarters of their
//! single-core throughput per core or the regular ones do not collapse.
//!
//! `--metrics-out <path>` exports the throughput table as a stamped JSON
//! snapshot (same schema as the `BENCH_*.json` artifacts).
//!
//! Run with `cargo run --release --example mailserver`.

use scalable_commutativity::host::fig7::{mail_columns, quick, simulated_figure};
use scalable_commutativity::kernel::api::{OpenFlags, SyscallApi};
use scalable_commutativity::kernel::mail::{MailConfig, MailServer, NoMailObs};
use scalable_commutativity::kernel::Sv6Kernel;

fn main() {
    // End-to-end check first: one message through the pipeline.
    let kernel = Sv6Kernel::new(4);
    let client = kernel.new_process();
    let qman = kernel.new_process();
    let server = MailServer::new(&kernel, MailConfig::CommutativeApis, 4).unwrap();
    server
        .enqueue(0, client, "alice", b"hello from the example", &NoMailObs)
        .unwrap();
    let delivered = server.qman_step(1, qman, &NoMailObs).unwrap().file;
    let fd = kernel
        .open(0, qman, &delivered, OpenFlags::plain())
        .unwrap();
    let body = kernel.pread(0, qman, fd, 64, 0).unwrap();
    println!(
        "delivered {:?} -> {:?}\n",
        delivered,
        String::from_utf8_lossy(&body)
    );

    let shape = simulated_figure(
        "mailserver",
        "Figure 7(c) — mail server throughput (emails/sec/core)",
        &mail_columns(),
        if quick() { 8 } else { 20 },
        (0, 1),
        // The bar tests/figures_shape.rs sets: a fourfold speedup at 16
        // cores, a quarter of single-core throughput per core.
        0.25,
    );
    println!();
    println!("Regular APIs (lowest FD, ordered socket, fork) collapse as cores are added;");
    println!(
        "the commutative variants (O_ANYFD, unordered socket, posix_spawn) keep scaling (§7.3)."
    );
    if shape.is_err() {
        std::process::exit(1);
    }
}
