//! End-to-end integration tests of the COMMUTER pipeline: model → ANALYZER →
//! TESTGEN → MTRACE driver → Figure 6 aggregation, run against both kernels.

use scalable_commutativity::commuter::{
    run_commuter, CommuterConfig, LinuxLikeFactory, Sv6Factory,
};
use scalable_commutativity::kernel::api::SysOp;
use scalable_commutativity::model::CallKind;

fn factories() -> (Sv6Factory, LinuxLikeFactory) {
    (Sv6Factory { cores: 4 }, LinuxLikeFactory { cores: 4 })
}

#[test]
fn name_operations_pipeline_matches_the_paper_qualitatively() {
    // The headline claims on a subset of the name-handling calls: sv6 is
    // conflict-free for (nearly) all generated commutative tests, the
    // Linux-like baseline for noticeably fewer.
    //
    // The threshold concedes a few points to constructible-completion
    // selection: the corpus now includes the previously-skipped same-process
    // double-`open` cases, which SIM-commute (equal results, equivalent
    // states) but contend on the lowest-FD descriptor slot — the paper's §1
    // example of a commutative POSIX operation whose *unmodified* contract
    // defeats scalability, fixed there by O_ANYFD (which these generated
    // tests deliberately do not use).
    let config = CommuterConfig::quick(&[
        CallKind::Open,
        CallKind::Link,
        CallKind::Unlink,
        CallKind::Stat,
    ]);
    let (sv6, linux) = factories();
    let results = run_commuter(&config, &[&sv6, &linux]);
    assert!(
        results.tests.len() >= 50,
        "expected a meaningful corpus, got {}",
        results.tests.len()
    );
    let sv6_report = results.report_for("sv6").unwrap();
    let linux_report = results.report_for("Linux").unwrap();
    assert!(
        sv6_report.overall_fraction() >= 0.93,
        "sv6 must scale for nearly all commutative tests, got {:.2} ({} of {})",
        sv6_report.overall_fraction(),
        sv6_report.total_conflict_free(),
        sv6_report.total_tests()
    );
    assert!(
        linux_report.overall_fraction() < sv6_report.overall_fraction(),
        "the baseline must scale for fewer tests than sv6"
    );
}

#[test]
fn generated_tests_exercise_the_calls_they_claim_to() {
    let config = CommuterConfig::quick(&[CallKind::Rename, CallKind::Stat]);
    let (sv6, _) = factories();
    let results = run_commuter(&config, &[&sv6]);
    assert!(!results.tests.is_empty());
    for test in &results.tests {
        let ops: Vec<&str> = test.ops.iter().map(SysOp::call_name).collect();
        let calls: Vec<&str> = test.calls.iter().map(|call| call.name()).collect();
        assert_eq!(ops, calls);
    }
}

#[test]
fn vm_operations_show_the_baseline_address_space_bottleneck() {
    // mmap/munmap/memread/memwrite in the same process: commutative cases
    // exist (different pages), sv6's radix address space keeps them
    // conflict-free, the baseline's mmap_sem + shared VMA table does not.
    let config = CommuterConfig::quick(&[CallKind::Mmap, CallKind::Memwrite]);
    let (sv6, linux) = factories();
    let results = run_commuter(&config, &[&sv6, &linux]);
    assert!(!results.tests.is_empty());
    let sv6_report = results.report_for("sv6").unwrap();
    let linux_report = results.report_for("Linux").unwrap();
    assert!(sv6_report.total_conflict_free() > linux_report.total_conflict_free());
}

#[test]
fn fd_operations_show_the_baseline_refcount_bottleneck() {
    // Two descriptor reads (fstat/lseek family) of the same descriptor
    // commute; sv6 keeps them read-only while the baseline's fget/fput
    // reference count makes them conflict.
    let config = CommuterConfig::quick(&[CallKind::Fstat, CallKind::Pread]);
    let (sv6, linux) = factories();
    let results = run_commuter(&config, &[&sv6, &linux]);
    let sv6_report = results.report_for("sv6").unwrap();
    let linux_report = results.report_for("Linux").unwrap();
    assert!(sv6_report.overall_fraction() > linux_report.overall_fraction());
    assert!(linux_report.total_tests() > 0);
}

#[test]
fn skipped_assignments_stay_a_small_fraction() {
    let config = CommuterConfig::quick(&[CallKind::Open, CallKind::Close, CallKind::Lseek]);
    let (sv6, _) = factories();
    let results = run_commuter(&config, &[&sv6]);
    let produced = results.tests.len();
    assert!(produced > 0);
    // The materialiser skips assignments it cannot build through the API
    // (resource-exhaustion paths, dup2-style descriptor layouts); those must
    // not dwarf the constructible corpus.
    assert!(
        results.skipped <= produced * 5,
        "too many skipped assignments: {} skipped vs {} produced",
        results.skipped,
        produced
    );
    // Every skip is accounted for by a structured reason, both in the flat
    // results and in the per-kernel report.
    assert_eq!(
        results.skip_reasons.values().sum::<usize>(),
        results.skipped
    );
    let report = results.report_for("sv6").unwrap();
    assert_eq!(report.total_skipped(), results.skipped);
}

#[test]
fn pipe_read_cases_materialize_across_the_pipeline() {
    // End-to-end check of the representative-selection fix: the pipeline's
    // Read∥Read pairs must now produce pipe-backed tests (half-closed and
    // both-ends-open representatives), with some rescued by re-solving.
    let config = CommuterConfig::quick(&[CallKind::Read]);
    let (sv6, _) = factories();
    let results = run_commuter(&config, &[&sv6]);
    let pipe_backed = results
        .tests
        .iter()
        .filter(|t| {
            t.setup
                .iter()
                .any(|(_, op)| matches!(op, SysOp::Pipe { .. }))
        })
        .count();
    assert!(
        pipe_backed > 0,
        "Read∥Read pipe-backed representatives must materialize"
    );
    assert!(results.resolved > 0, "re-solve must rescue representatives");
}
