//! The load harness: real OS threads released by one barrier, timed.
//!
//! Where `scr_mtrace::ThroughputModel` *derives* ops/sec/core from a traced
//! access log, [`LoadHarness`] *measures* it: each participating thread is
//! handed its core number, runs the per-core closure `ops_per_thread`
//! times, and the slowest thread's wall-clock time defines the point — the
//! same "slowest core" convention the simulated model uses. (A generated
//! test races on real threads through `scr_core::replay` under
//! `scr_core::Race`.)

use scr_mtrace::ScalingPoint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Number of hardware threads the host offers (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs per-core closures on real threads and turns the measurement into
/// [`ScalingPoint`]s compatible with the simulated Figure-7 sweeps.
#[derive(Clone, Copy, Debug)]
pub struct LoadHarness {
    /// Operations each thread performs per measurement.
    pub ops_per_thread: u64,
}

impl LoadHarness {
    /// A harness running `ops_per_thread` operations on every thread.
    pub fn new(ops_per_thread: u64) -> Self {
        LoadHarness { ops_per_thread }
    }

    /// Spawns `threads` OS threads; thread `t` calls `work(t, op_index)`
    /// for each of its operations after all threads pass a common barrier.
    /// Returns the resulting scaling point (`remote_transfers` is zero:
    /// real hardware does not expose its coherence traffic to us).
    pub fn run<W>(&self, threads: usize, work: W) -> ScalingPoint
    where
        W: Fn(usize, u64) + Sync,
    {
        let threads = threads.max(1);
        let barrier = Barrier::new(threads);
        let slowest_nanos = AtomicU64::new(0);
        let work = &work;
        let barrier = &barrier;
        let slowest = &slowest_nanos;
        let ops = self.ops_per_thread;
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for op in 0..ops {
                        work(t, op);
                    }
                    let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    slowest.fetch_max(nanos, Ordering::AcqRel);
                });
            }
        });
        let elapsed_seconds = (slowest_nanos.load(Ordering::Acquire) as f64 / 1e9).max(1e-9);
        let total_ops = ops * threads as u64;
        ScalingPoint {
            cores: threads,
            total_ops,
            ops_per_sec_per_core: total_ops as f64 / elapsed_seconds / threads as f64,
            remote_transfers: 0,
            elapsed_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn harness_runs_every_operation_on_every_thread() {
        let counter = AtomicU64::new(0);
        let harness = LoadHarness::new(100);
        let point = harness.run(3, |_core, _op| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 300);
        assert_eq!(point.cores, 3);
        assert_eq!(point.total_ops, 300);
        assert!(point.elapsed_seconds > 0.0);
        assert!(point.ops_per_sec_per_core > 0.0);
    }

    #[test]
    fn threads_see_distinct_core_numbers() {
        let seen = std::sync::Mutex::new(std::collections::BTreeSet::new());
        LoadHarness::new(1).run(4, |core, _| {
            seen.lock().unwrap().insert(core);
        });
        assert_eq!(seen.into_inner().unwrap().len(), 4);
    }
}
