//! Property tests for the metrics layer's merge semantics.
//!
//! The registry's whole claim is that per-core sharding loses nothing:
//! whatever any number of threads record on their own cache-padded cells,
//! the merged snapshot is *exactly* the sum — not approximately, and not
//! modulo a dropped update under contention. These tests drive randomized
//! multi-threaded schedules (seeded, via the proptest shim) against that
//! claim.

use proptest::prelude::*;
use scr_obs::MetricsRegistry;
use std::sync::Barrier;
use std::thread;

/// Spawns one thread per plan entry, releases them through a barrier so
/// they genuinely contend, and joins them all.
fn run_threads<F>(plans: Vec<F>)
where
    F: FnOnce() + Send + 'static,
{
    let barrier = std::sync::Arc::new(Barrier::new(plans.len()));
    let handles: Vec<_> = plans
        .into_iter()
        .map(|plan| {
            let barrier = barrier.clone();
            thread::spawn(move || {
                barrier.wait();
                plan();
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker panicked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once counting under contention: with every thread hammering
    /// its own core's cell (and some threads deliberately sharing a core),
    /// the merged total equals the arithmetic sum of everything added, and
    /// each per-core shard equals the sum of what was aimed at that core.
    #[test]
    fn counter_is_exactly_once_under_contention(
        cores in 1usize..5,
        per_thread in proptest::collection::vec((0usize..8, 1u64..500, 1usize..400), 1..8),
    ) {
        let registry = MetricsRegistry::new(cores);
        let counter = registry.counter("prop.hits");

        let mut expected_per_core = vec![0u64; cores];
        let mut plans: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for &(core_pick, amount, reps) in &per_thread {
            let core = core_pick % cores;
            expected_per_core[core] += amount * reps as u64;
            let handle = counter.clone();
            plans.push(Box::new(move || {
                for _ in 0..reps {
                    handle.add(core, amount);
                }
            }));
        }
        run_threads(plans);

        let expected_total: u64 = expected_per_core.iter().sum();
        prop_assert_eq!(counter.total(), expected_total);
        prop_assert_eq!(counter.per_core(), expected_per_core);
    }

    /// Histogram merge semantics: concurrently recording a partition of the
    /// values yields byte-for-byte the same merged snapshot as ingesting the
    /// whole sequence on one thread — same count, sum, max, and buckets
    /// (order of ingestion must not matter).
    #[test]
    fn histogram_merge_equals_sequential_ingest(
        cores in 1usize..5,
        chunks in proptest::collection::vec(
            proptest::collection::vec(0u64..2_000_000, 1..60),
            1..6,
        ),
    ) {
        let concurrent = MetricsRegistry::new(cores);
        let histogram = concurrent.histogram("prop.latency");
        let mut plans: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for (index, chunk) in chunks.iter().enumerate() {
            let core = index % cores;
            let handle = histogram.clone();
            let values = chunk.clone();
            plans.push(Box::new(move || {
                for value in values {
                    handle.record(core, value);
                }
            }));
        }
        run_threads(plans);

        let sequential = MetricsRegistry::new(1);
        let reference = sequential.histogram("prop.latency");
        for chunk in &chunks {
            for &value in chunk {
                reference.record(0, value);
            }
        }

        prop_assert_eq!(histogram.merged(), reference.merged());
    }

    /// Quantile sanity on the merged distribution: quantiles are monotone
    /// in `q`, and every reported quantile is bounded by the true maximum
    /// (log-bucketing rounds *within* a bucket, never past the max).
    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(1u64..5_000_000, 1..80),
    ) {
        let registry = MetricsRegistry::new(2);
        let histogram = registry.histogram("prop.q");
        for (index, &value) in values.iter().enumerate() {
            histogram.record(index % 2, value);
        }
        let merged = histogram.merged();
        let p50 = merged.p50();
        let p90 = merged.p90();
        let p99 = merged.p99();
        prop_assert!(p50 <= p90 && p90 <= p99);
        let max = *values.iter().max().unwrap() as f64;
        prop_assert!(p99 <= max * 2.0 + 1.0, "p99 {p99} not bounded by bucket of max {max}");
        prop_assert_eq!(merged.count, values.len() as u64);
        prop_assert_eq!(merged.sum, values.iter().sum::<u64>());
    }
}
