//! The §7.3 mail server as a runnable example.
//!
//! Delivers a batch of messages through the qmail-style pipeline
//! (mail-enqueue → notification socket → mail-qman → mail-deliver) in both
//! API configurations and reports per-core throughput and the end-to-end
//! behaviour (messages land in the right mailbox, queue files are cleaned
//! up).
//!
//! `--metrics-out <path>` exports the throughput table as a stamped JSON
//! snapshot (same schema as the `BENCH_*.json` artifacts).
//!
//! Run with `cargo run --release --example mailserver`.

use scalable_commutativity::kernel::api::{KernelApi, OpenFlags, SyscallApi};
use scalable_commutativity::kernel::mail::{MailConfig, MailServer, NoMailObs};
use scalable_commutativity::kernel::Sv6Kernel;
use scalable_commutativity::mtrace::{ScalingParams, ThroughputModel};
use scalable_commutativity::obs::{metrics_out, Json, MetricsRegistry, RunMeta};

fn run(cores: usize, rounds: usize, config: MailConfig) -> f64 {
    let kernel = Sv6Kernel::new(cores);
    let machine = kernel.machine().clone();
    let client = kernel.new_process();
    let qman = kernel.new_process();
    let server = MailServer::new(&kernel, config, cores).unwrap();
    machine.start_tracing();
    for round in 0..rounds {
        for core in 0..cores {
            machine.on_core(core, || {
                let body = format!("round {round}");
                server
                    .enqueue(
                        core,
                        client,
                        &format!("user{core}"),
                        body.as_bytes(),
                        &NoMailObs,
                    )
                    .unwrap();
                server.qman_step(core, qman, &NoMailObs).unwrap();
            });
        }
    }
    machine.stop_tracing();
    ThroughputModel::new(ScalingParams::default())
        .evaluate(&machine.accesses(), cores, rounds as u64)
        .ops_per_sec_per_core
}

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

    println!("mail server throughput on sv6 (emails/sec/core):\n");
    println!(
        "{:>6} {:>18} {:>20}",
        "cores", "regular APIs", "commutative APIs"
    );
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    for cores in [1usize, 4, 8, 16] {
        let regular = run(cores, 10, MailConfig::RegularApis);
        let commutative = run(cores, 10, MailConfig::CommutativeApis);
        println!("{cores:>6} {regular:>18.0} {commutative:>20.0}");
        rows.push((cores, regular, commutative));
    }
    println!();
    println!("Regular APIs (lowest FD, ordered socket, fork) collapse as cores are added;");
    println!(
        "the commutative variants (O_ANYFD, unordered socket, posix_spawn) keep scaling (§7.3)."
    );

    if let Some(path) = metrics_out() {
        let mut snapshot = MetricsRegistry::new(1).snapshot();
        snapshot.meta = RunMeta::capture(
            "mailserver",
            "sv6-sim",
            16,
            "10 rounds, regular vs commutative APIs",
        );
        let rows_json: Vec<Json> = rows
            .iter()
            .map(|(cores, regular, commutative)| {
                Json::obj(vec![
                    ("cores", (*cores).into()),
                    ("regular_emails_per_sec_per_core", (*regular).into()),
                    ("commutative_emails_per_sec_per_core", (*commutative).into()),
                ])
            })
            .collect();
        snapshot
            .extras
            .push(("scaling".to_string(), Json::Arr(rows_json)));
        snapshot.write(&path).expect("write metrics snapshot");
        println!("metrics snapshot written to {}", path.display());
    }
}
