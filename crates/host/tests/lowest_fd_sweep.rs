//! The host Figure 6 cross-check over the **full 24-call corpus** at the
//! quick pipeline's bounds: no divergence, no unexplained linearisation or
//! conservation violation and no dropped access anywhere. The calls that
//! allocate the lowest free descriptor (`open`, `pipe`) are where a
//! divergence would show first; the simulated kernel models the descriptor
//! scan with the same per-slot lines, so §1's contention conflicts on both
//! substrates alike.
//!
//! The sweep self-skips below 4 hardware threads, where the four replay
//! "cores" would not map to real hardware threads; set `SCR_SWEEP_FORCE=1`
//! to run it anyway — conflict verdicts are exact regardless of the thread
//! count, they depend on touched lines, not timing.

use scr_host::{available_threads, run_host_fig6, HostFig6Config};
use scr_model::ALL_CALLS;

#[test]
fn full_corpus_cross_check_has_no_divergence() {
    if available_threads() < 4 && std::env::var_os("SCR_SWEEP_FORCE").is_none() {
        eprintln!(
            "skipping the full-corpus sweep: {} hardware thread(s) < 4 (set SCR_SWEEP_FORCE=1 to run)",
            available_threads()
        );
        return;
    }
    let config = HostFig6Config {
        schedules_per_test: 1,
        ..HostFig6Config::quick(ALL_CALLS.as_ref())
    };
    let results = run_host_fig6(&config);
    assert!(results.tests_run > 1000, "the full corpus must be swept");
    assert_eq!(results.dropped, 0, "log overflow");
    assert!(
        results.divergences.is_empty(),
        "SIM↔host divergences:\n{}",
        results.describe_divergences()
    );
    assert!(
        results.unexplained_violations().is_empty(),
        "{}",
        results.describe_violations()
    );
}
