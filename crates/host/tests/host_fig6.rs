//! Acceptance tests for the host-side Figure 6 pipeline.
//!
//! Two layers of evidence that the real-threads monitor reproduces the
//! simulated heatmap:
//!
//! 1. **Instrumentation faithfulness** — replaying a generated test
//!    *sequentially* on the instrumented `HostKernel` must record exactly
//!    the (core, label, kind) access multiset the simulated `Sv6Kernel`
//!    records for the same test. Sequential replay removes scheduling
//!    nondeterminism, so any difference is an instrumentation bug.
//! 2. **Cross-check under real concurrency** — running the pipeline with
//!    racing threads, every simulated-conflict-free test must stay
//!    host-conflict-free; the only tolerated divergences are the documented
//!    lowest-FD-allocation contention cases, asserted explicitly.

use scr_core::{run_commuter, CommuterConfig, ConcreteTest, KernelFactory, Sv6Factory};
use scr_host::fig6::{normalize_pipe_label, replay_traced, run_host_fig6, HostFig6Config};
use scr_host::kernel::HostMode;
use scr_kernel::api::perform;
use scr_model::CallKind;
use scr_mtrace::AccessKind;

/// The (core, label, kind) multiset a test records on the simulated sv6
/// kernel (setup untraced on core 0, the pair traced on cores 0 and 1 —
/// the MTRACE driver's protocol).
fn sim_footprint(test: &ConcreteTest, cores: usize) -> Vec<(usize, String, AccessKind)> {
    let factory = Sv6Factory { cores };
    let kernel = factory.build();
    let machine = kernel.machine().clone();
    for _ in 0..test.procs.max(2) {
        kernel.new_process();
    }
    machine.stop_tracing();
    for (core, op) in &test.setup {
        machine.on_core(*core, || perform(kernel.as_ref(), *core, op));
    }
    machine.clear_trace();
    machine.start_tracing();
    machine.on_core(0, || perform(kernel.as_ref(), 0, &test.op_a));
    machine.on_core(1, || perform(kernel.as_ref(), 1, &test.op_b));
    machine.stop_tracing();
    let mut out: Vec<_> = machine
        .accesses()
        .iter()
        .map(|a| {
            (
                a.core,
                normalize_pipe_label(&machine.label_of(a.line)),
                a.kind,
            )
        })
        .collect();
    out.sort();
    out
}

/// The same multiset recorded by a sequential traced replay on the host.
fn host_footprint(test: &ConcreteTest, cores: usize) -> Vec<(usize, String, AccessKind)> {
    let (sink, report, _) = replay_traced(HostMode::Sv6, cores, test, false);
    assert_eq!(report.dropped, 0, "log overflow in {}", test.id);
    let mut out: Vec<_> = report
        .accesses
        .iter()
        .map(|a| (a.core, normalize_pipe_label(&sink.label_of(a.line)), a.kind))
        .collect();
    out.sort();
    out
}

/// Generates the corpus for a call set (the quick pipeline's bounds).
fn corpus(calls: &[CallKind], max_assignments: usize) -> Vec<ConcreteTest> {
    let config = CommuterConfig {
        calls: calls.to_vec(),
        max_assignments_per_case: max_assignments,
        ..CommuterConfig::default()
    };
    run_commuter(&config, &[]).tests
}

/// Compares footprints over the corpus, stride-sampling when it is large:
/// the point is covering every access-pattern family, not replaying every
/// isomorphism-class witness twice (`cargo test` runs this in debug).
fn assert_faithful(calls: &[CallKind], max_assignments: usize) {
    let tests = corpus(calls, max_assignments);
    assert!(!tests.is_empty(), "corpus for {calls:?} is empty");
    let stride = (tests.len() / 250).max(1);
    for test in tests.iter().step_by(stride) {
        assert_eq!(
            host_footprint(test, 4),
            sim_footprint(test, 4),
            "instrumented host footprint diverges from the simulator for {}",
            test.id
        );
    }
}

#[test]
fn host_instrumentation_is_faithful_for_name_operations() {
    assert_faithful(
        &[
            CallKind::Open,
            CallKind::Link,
            CallKind::Unlink,
            CallKind::Rename,
            CallKind::Stat,
        ],
        8,
    );
}

#[test]
fn host_instrumentation_is_faithful_for_descriptor_and_pipe_operations() {
    // Lseek is exercised by `host_fig6_smoke` below instead of here: its
    // pairs with read/write are where TESTGEN's solver is slowest, and the
    // fstat/close/pipe corpus already covers every offset access pattern.
    assert_faithful(
        &[
            CallKind::Fstat,
            CallKind::Close,
            CallKind::Pipe,
            CallKind::Read,
            CallKind::Write,
        ],
        12,
    );
}

#[test]
fn host_instrumentation_is_faithful_for_memory_operations() {
    assert_faithful(
        &[
            CallKind::Pwrite,
            CallKind::Mmap,
            CallKind::Munmap,
            CallKind::Mprotect,
            CallKind::Memread,
            CallKind::Memwrite,
        ],
        8,
    );
}

#[test]
fn host_instrumentation_is_faithful_for_lseek() {
    assert_faithful(&[CallKind::Fstat, CallKind::Lseek, CallKind::Close], 12);
}

/// The acceptance criterion: the concurrent cross-check reports zero
/// unexplained divergences over a call set that deliberately includes the
/// descriptor-allocating calls where lowest-FD contention can appear.
#[test]
fn host_fig6_cross_check_has_no_unexplained_divergences() {
    let config = HostFig6Config {
        max_assignments_per_case: 8,
        schedules_per_test: 2,
        ..HostFig6Config::quick(&[
            CallKind::Open,
            CallKind::Stat,
            CallKind::Close,
            CallKind::Pipe,
            CallKind::Read,
        ])
    };
    let results = run_host_fig6(&config);
    assert!(results.tests_run > 0);
    assert_eq!(results.dropped, 0);
    assert_eq!(
        results.sim_sv6.total_tests(),
        results.host_sv6.total_tests()
    );
    assert_eq!(
        results.sim_sv6.total_tests(),
        results.host_linux.total_tests()
    );
    // Every divergence must be in the explicit exception list.
    assert!(
        results.unexplained_divergences().is_empty(),
        "unexplained SIM↔host divergences:\n{}",
        results.describe_divergences()
    );
    for divergence in &results.divergences {
        assert_eq!(divergence.exception, Some(scr_host::LOWEST_FD_EXCEPTION));
        assert!(
            !divergence.shared_labels.is_empty()
                && divergence.shared_labels.iter().all(|l| l.contains("].fd[")),
            "exception must name its fd-slot lines: {divergence:?}"
        );
    }
    // And each host kernel must scale essentially as often as the simulated
    // one of its policy (exactly as often, minus the listed exceptions).
    for (kernel, sim, host) in [
        ("sv6-host", &results.sim_sv6, &results.host_sv6),
        ("linux-host", &results.sim_linux, &results.host_linux),
    ] {
        let diverged = results
            .divergences
            .iter()
            .filter(|d| d.kernel == kernel)
            .count();
        assert_eq!(
            sim.total_conflict_free() - host.total_conflict_free(),
            diverged,
            "{kernel}"
        );
    }
}

/// The host Figure 6 sweeps exactly the pipeline's corpus, §4 extension
/// pairs included: both specialise each pair's model with `pair_config`,
/// without which `send ∥ recv` has no socket to act on and yields no test.
#[test]
fn host_fig6_sweeps_the_pipeline_corpus_on_extension_pairs() {
    let config = HostFig6Config::quick(&[CallKind::Send, CallKind::Recv]);
    let host = run_host_fig6(&config);
    let sim = run_commuter(
        &CommuterConfig {
            model: config.model,
            calls: config.calls.clone(),
            max_assignments_per_case: config.max_assignments_per_case,
            ..CommuterConfig::default()
        },
        &[&Sv6Factory {
            cores: config.cores,
        }],
    );
    assert!(!sim.tests.is_empty());
    assert_eq!(host.tests_run, sim.tests.len());
    assert_eq!(host.sim_sv6.total_skipped(), sim.skipped);
    assert_eq!(host.sim_sv6.render(), sim.reports[0].render());
    assert_eq!(host.dropped, 0);
    assert!(
        host.unexplained_divergences().is_empty(),
        "unexplained SIM↔host divergences:\n{}",
        host.describe_divergences()
    );
}
