//! Integration tests for the real-threads backend.
//!
//! Timing-shape assertions are deliberately loose and are skipped on hosts
//! without enough parallelism (or under Miri): CI machines are noisy, and
//! the goal is the qualitative claim — per-core structures do not get
//! *much worse* as threads are added, while globally-locked or shared-line
//! structures do not get *better* — not a precise ratio.

use scr_core::{analyze_pair, differential_check, generate_tests, PairShape, Sv6Factory};
use scr_host::differential::{
    differential_campaign, CampaignConfig, DifferentialReport, HostReplayer,
};
use scr_host::harness::LoadHarness;
use scr_host::kernel::{HostKernel, HostMode};
use scr_host::workloads;
use scr_hostmtrace::HostTraceSink;
use scr_kernel::api::SyscallApi;
use scr_model::calls::ArgSlots;
use scr_model::{CallKind, ModelConfig};
use scr_scalable::{PerCoreCounter, SharedCounter};
use std::sync::Arc;

/// The substrate type of an uninstrumented structure.
type Host = Arc<HostTraceSink>;

fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn skip_timing_checks() -> bool {
    cfg!(miri) || parallelism() < 4
}

/// A single-schedule campaign over `calls`, `max_tests` replays spread
/// round-robin across the pairs.
fn sample_campaign(calls: &[CallKind], max_tests: usize) -> DifferentialReport {
    differential_campaign(
        &CampaignConfig::quick(calls, max_tests),
        &HostReplayer::default(),
        None,
    )
}

#[test]
fn differential_runner_agrees_on_name_operations() {
    let report = sample_campaign(
        &[
            CallKind::Open,
            CallKind::Stat,
            CallKind::Link,
            CallKind::Unlink,
        ],
        120,
    );
    assert!(
        report.tests_run >= 20,
        "expected a real sample, got {}",
        report.tests_run
    );
    assert!(
        report.all_agree(),
        "simulated and host results diverged:\n{}",
        report.describe_mismatches()
    );
}

#[test]
fn differential_runner_agrees_on_descriptor_and_vm_operations() {
    let report = sample_campaign(
        &[
            CallKind::Fstat,
            CallKind::Lseek,
            CallKind::Pread,
            CallKind::Pwrite,
            CallKind::Memread,
            CallKind::Memwrite,
        ],
        120,
    );
    assert!(report.tests_run > 0);
    assert!(
        report.all_agree(),
        "simulated and host results diverged:\n{}",
        report.describe_mismatches()
    );
}

#[test]
fn differential_runner_agrees_on_pipe_operations() {
    let report = sample_campaign(
        &[
            CallKind::Pipe,
            CallKind::Read,
            CallKind::Write,
            CallKind::Close,
        ],
        80,
    );
    assert!(report.tests_run > 0);
    assert!(
        report.all_agree(),
        "simulated and host results diverged:\n{}",
        report.describe_mismatches()
    );
}

#[test]
fn read_read_half_closed_pipe_representatives_agree_with_the_host() {
    // Regression for the representative-selection tentpole: Read(fd0) ∥
    // Read(fd0) now materialises its pipe-backed cases — the half-closed
    // EOF∥EOF state (`pipe()` then close of the write end) directly, and
    // the EAGAIN∥EAGAIN state via a re-solved both-ends-open completion.
    // Every materialised representative must agree bit-for-bit with the
    // simulated kernel on real threads; the only families allowed to stay
    // skipped are the dup2-requiring ones.
    let cfg = ModelConfig {
        names: 4,
        inodes: 2,
        procs: 1,
        fds_per_proc: 2,
        file_pages: 2,
        vm_pages: 2,
        sockets: 0,
        queue_cap: 0,
        children: 0,
    };
    let shape = PairShape {
        calls: (CallKind::Read, CallKind::Read),
        slots_a: ArgSlots {
            proc: 0,
            fds: vec![0],
            ..Default::default()
        },
        slots_b: ArgSlots {
            proc: 0,
            fds: vec![0],
            ..Default::default()
        },
        tag: "samefd".into(),
    };
    let analysis = analyze_pair(&shape, &cfg);
    let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
    let generated = generate_tests(&shape, &analysis.cases, &cfg, &names, 128);
    assert!(
        generated.resolved > 0,
        "re-solve must rescue a representative"
    );
    let pipe_backed = generated
        .tests
        .iter()
        .filter(|t| {
            t.setup
                .iter()
                .any(|(_, op)| matches!(op, scr_kernel::api::SysOp::Pipe { .. }))
        })
        .count();
    assert!(
        pipe_backed >= 2,
        "both pipe case families must materialize, got {pipe_backed}"
    );
    let outcomes = differential_check(
        &Sv6Factory { cores: 4 },
        &HostReplayer::default(),
        &generated.tests,
    );
    let mismatches: Vec<_> = outcomes.iter().filter(|o| !o.agree()).collect();
    assert!(
        mismatches.is_empty(),
        "newly materialised representatives diverged:\n{mismatches:?}"
    );
}

#[test]
fn scaled_campaign_over_pipe_calls_has_no_mismatches() {
    // The scaled oracle: budget spread round-robin across all pairs,
    // several schedules per test. Every pair with generated tests must be
    // exercised and every replay must agree.
    let config = CampaignConfig {
        max_tests: 96,
        schedules_per_test: 2,
        ..CampaignConfig::new(&[
            CallKind::Pipe,
            CallKind::Read,
            CallKind::Write,
            CallKind::Close,
        ])
    };
    let report = differential_campaign(&config, &HostReplayer::default(), None);
    assert!(report.tests_run > 0);
    assert_eq!(report.replays_run, report.tests_run * 2);
    assert!(
        report.all_agree(),
        "simulated and host results diverged:\n{}",
        report.describe_mismatches()
    );
    for pair in &report.pairs {
        assert!(
            pair.generated == 0 || pair.replayed > 0,
            "budget starved pair {:?}",
            pair.calls
        );
    }
}

#[test]
fn per_core_counter_does_not_collapse_like_the_shared_one() {
    if skip_timing_checks() {
        eprintln!("skipping timing-shape check: <4 hardware threads or Miri");
        return;
    }
    const OPS: u64 = 400_000;

    // Measure ops/sec/core for 1 and 4 threads on both counters, taking the
    // best of three runs to shed scheduler noise.
    let best = |threads: usize, work: &dyn Fn() -> Box<dyn Fn(usize, u64) + Sync>| -> f64 {
        (0..3)
            .map(|_| {
                let w = work();
                LoadHarness::new(OPS).run(threads, w).ops_per_sec_per_core
            })
            .fold(0.0f64, f64::max)
    };

    let shared_work = || -> Box<dyn Fn(usize, u64) + Sync> {
        let counter = Arc::new(SharedCounter::<Host>::new(None, "shared"));
        Box::new(move |_core, _op| counter.add(1))
    };
    let percore_work = || -> Box<dyn Fn(usize, u64) + Sync> {
        let counter = Arc::new(PerCoreCounter::<Host>::new(None, "per_core", 8));
        Box::new(move |core, _op| counter.add(core, 1))
    };

    let shared_1 = best(1, &shared_work);
    let shared_4 = best(4, &shared_work);
    let percore_1 = best(1, &percore_work);
    let percore_4 = best(4, &percore_work);

    // Generous thresholds: the per-core counter must retain a much larger
    // fraction of its single-thread per-core throughput than the shared
    // counter does at 4 threads.
    let percore_retention = percore_4 / percore_1;
    let shared_retention = shared_4 / shared_1;
    assert!(
        percore_retention > shared_retention * 1.5,
        "per-core retention {percore_retention:.2} not clearly better than shared {shared_retention:.2} \
         (1t: shared {shared_1:.0} percore {percore_1:.0}; 4t: shared {shared_4:.0} percore {percore_4:.0})"
    );
}

#[test]
fn sv6_mode_sustains_more_concurrent_throughput_than_the_global_lock() {
    if skip_timing_checks() {
        eprintln!("skipping timing-shape check: <4 hardware threads or Miri");
        return;
    }
    // Same workload, 4 threads, both kernel configurations; best of three.
    let best = |mode: HostMode| -> f64 {
        (0..3)
            .map(|_| {
                workloads::openbench(mode, matches!(mode, HostMode::Sv6), 4, 30_000)
                    .ops_per_sec_per_core
            })
            .fold(0.0f64, f64::max)
    };
    let sv6 = best(HostMode::Sv6);
    let linuxlike = best(HostMode::Linuxlike);
    assert!(
        sv6 > linuxlike,
        "striped kernel ({sv6:.0} ops/s/core) must out-scale the globally locked one ({linuxlike:.0})"
    );
}

#[test]
fn host_workloads_complete_under_minimal_parallelism() {
    // Functional smoke: runs everywhere, no timing assertions.
    let p1 = workloads::statbench(
        HostMode::Sv6,
        workloads::HostStatMode::FstatxNoNlink,
        2,
        100,
    );
    assert_eq!(p1.total_ops, 200);
    let p2 = workloads::mailbench(
        HostMode::Linuxlike,
        scr_kernel::mail::MailConfig::RegularApis,
        2,
        20,
    );
    assert_eq!(p2.total_ops, 40);
    let kernel = HostKernel::new(2, HostMode::Linuxlike);
    let pid = kernel.new_process();
    assert!(kernel
        .open(0, pid, "smoke", scr_kernel::api::OpenFlags::create())
        .is_ok());
}
