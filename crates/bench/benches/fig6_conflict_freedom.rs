//! Figure 6: conflict-freedom of commutative system call pairs.
//!
//! Runs the full COMMUTER pipeline — ANALYZER over the 18-call POSIX model,
//! TESTGEN, and the MTRACE driver — against both kernels and prints the two
//! halves of Figure 6: the Linux-like baseline on the left, sv6/ScaleFS on
//! the right, each as a lower-triangular table of *non-conflict-free* test
//! counts per call pair, plus the headline "N of M cases scale".
//!
//! Run with `cargo bench -p scr-bench --bench fig6_conflict_freedom`.
//! Set `SCR_BENCH_QUICK=1` to restrict the sweep to a representative subset
//! of calls (file-name and descriptor operations), which finishes in well
//! under a minute.

use scr_core::{run_commuter, CommuterConfig, LinuxLikeFactory, Sv6Factory};
use scr_model::CallKind;

fn main() {
    let quick = scr_bench::quick();
    let config = if quick {
        CommuterConfig::quick(&[
            CallKind::Open,
            CallKind::Link,
            CallKind::Unlink,
            CallKind::Rename,
            CallKind::Stat,
            CallKind::Fstat,
            CallKind::Lseek,
            CallKind::Close,
        ])
    } else {
        CommuterConfig::default()
    };
    let sv6 = Sv6Factory { cores: 4 };
    let linux = LinuxLikeFactory { cores: 4 };
    let started = std::time::Instant::now();
    let results = run_commuter(&config, &[&linux, &sv6]);
    let elapsed = started.elapsed();

    println!(
        "analyzed {} pair shapes, generated {} test cases ({} rescued by re-solve, {} skipped) in {:.1?}",
        results.shapes_analyzed,
        results.tests.len(),
        results.resolved,
        results.skipped,
        elapsed
    );
    if !results.skip_reasons.is_empty() {
        println!("skip reasons: {:?}", results.skip_reasons);
    }
    println!();
    for report in &results.reports {
        println!("{report}");
        println!();
    }
    if let (Some(linux), Some(sv6)) = (results.report_for("Linux"), results.report_for("sv6")) {
        println!(
            "summary: Linux-like scales for {:.0}% of cases, sv6 for {:.0}% (paper: 68% and 99%)",
            100.0 * linux.overall_fraction(),
            100.0 * sv6.overall_fraction()
        );
    }
}
