//! Property and regression tests for the open-loop load observatory.
//!
//! Three claims are load-bearing enough to pin:
//!
//! 1. **Determinism** — the zipfian sampler and the arrival schedules are
//!    pure functions of their seed, byte for byte, so an open-loop run
//!    can be reproduced from its recorded parameters.
//! 2. **Shape** — the sampler actually is zipfian (monotone rank-frequency
//!    matching the analytic mass) and degenerates to uniform at `s = 0`.
//! 3. **No coordinated omission** — when the pipeline is deliberately
//!    stalled below the offered rate, the *recorded* latency grows with
//!    the backlog. A closed-loop harness would report ~service time and
//!    hide the stall; the open-loop clock must not.

use proptest::prelude::*;
use scr_host::harness::available_threads;
use scr_kernel::mail::MailTopology;
use scr_loadgen::{arrival_offsets, run_open_loop, Arrival, LoadConfig, Rng64, ZipfSampler};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The zipfian sampler is byte-deterministic per seed: two generators
    /// with the same (n, s, seed) produce identical rank sequences, and a
    /// different seed diverges somewhere.
    #[test]
    fn zipf_sampling_is_byte_deterministic_per_seed(
        n in 1usize..200,
        s_tenths in 0u32..25,
        seed in 0u64..1_000_000,
    ) {
        let s = s_tenths as f64 / 10.0;
        let sampler = ZipfSampler::new(n, s);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = Rng64::new(seed);
            (0..256).map(|_| sampler.sample(&mut rng)).collect()
        };
        let a = draw(seed);
        prop_assert_eq!(&a, &draw(seed));
        if n > 1 {
            // Same sampler, different seed: some position must differ.
            prop_assert_ne!(&a, &draw(seed.wrapping_add(1)));
        }
        prop_assert!(a.iter().all(|&rank| rank < n));
    }

    /// Both arrival schedules are deterministic per seed, nondecreasing,
    /// and centred on the configured rate.
    #[test]
    fn schedules_are_deterministic_and_rate_accurate(
        seed in 0u64..1_000_000,
        rate_khz in 1u64..1_000,
    ) {
        let rate = rate_khz as f64 * 1_000.0;
        for arrival in [Arrival::FixedRate, Arrival::Poisson] {
            let offsets = arrival_offsets(arrival, rate, 2_000, seed);
            prop_assert_eq!(&offsets, &arrival_offsets(arrival, rate, 2_000, seed));
            prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
            let mean_gap = *offsets.last().unwrap() as f64 / offsets.len() as f64;
            let expected = 1e9 / rate;
            // Poisson needs slack for sampling noise; fixed is exact-ish.
            prop_assert!(
                (mean_gap - expected).abs() < expected * 0.15,
                "{arrival:?}: mean gap {mean_gap} vs expected {expected}"
            );
        }
    }
}

/// Rank-frequency shape: at `s = 1` the observed frequencies track the
/// analytic `1/k` mass (monotone, heavy head), and at `s = 0` every rank is
/// statistically level.
#[test]
fn zipf_rank_frequency_matches_the_analytic_shape() {
    let n = 32;
    let draws = 100_000;
    let sampler = ZipfSampler::new(n, 1.0);
    let mut rng = Rng64::new(7);
    let mut counts = vec![0u64; n];
    for _ in 0..draws {
        counts[sampler.sample(&mut rng)] += 1;
    }
    for (k, &c) in counts.iter().enumerate() {
        let observed = c as f64 / draws as f64;
        let expected = sampler.mass(k);
        assert!(
            (observed - expected).abs() < 0.01,
            "rank {k}: observed {observed:.4} vs analytic {expected:.4}"
        );
    }
    // The head dominates: rank 0 must beat rank n-1 by roughly n.
    assert!(counts[0] > counts[n - 1] * (n as u64 / 2));

    let uniform = ZipfSampler::new(n, 0.0);
    let mut counts = vec![0u64; n];
    for _ in 0..draws {
        counts[uniform.sample(&mut rng)] += 1;
    }
    let expected = draws as f64 / n as f64;
    for (k, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - expected).abs() < expected * 0.15,
            "s=0 rank {k} count {c} strays from uniform {expected}"
        );
    }
}

/// The coordinated-omission regression: stall each qman step 2ms while
/// offering arrivals far faster than 1/2ms. The backlog grows ~linearly, so
/// the *recorded* median latency must be several times the stall — that is
/// the queueing delay a closed-loop harness (which would measure ~one stall
/// per op) structurally cannot see. This is timing-based but one-sided with
/// a huge margin: the expected median is ~20× the asserted bound.
#[test]
fn open_loop_latency_includes_queueing_delay_when_stalled() {
    const STALL_NS: u64 = 2_000_000; // 2ms per qman step
    let config = LoadConfig {
        topology: MailTopology::single(),
        messages: 40,
        rate_per_sec: 20_000.0, // all 40 arrive within ~2ms, ~one stall
        arrival: Arrival::FixedRate,
        qman_stall_ns: STALL_NS,
        ..LoadConfig::smoke()
    };
    let report = run_open_loop(&config);
    assert_eq!(report.delivered, 40);
    // Message k waits ~k stalls; the median waits ~20. Assert a 3× floor.
    assert!(
        report.latency.p50() > 3.0 * STALL_NS as f64,
        "recorded p50 {} ns does not include queueing delay (stall {} ns)",
        report.latency.p50(),
        STALL_NS
    );
    // And the tail saw nearly the whole backlog.
    assert!(
        report.latency.max > 10 * STALL_NS,
        "max {} ns too small for a {}-message backlog",
        report.latency.max,
        report.delivered
    );
    // Sanity for the same run un-stalled: the median drops far below the
    // stalled median, confirming the delay above was the queue, not the
    // harness.
    let unstalled = run_open_loop(&LoadConfig {
        qman_stall_ns: 0,
        ..config
    });
    assert!(unstalled.latency.p50() < report.latency.p50() / 4.0);
}

/// An idle qman sleeps until an enqueue rings it instead of polling: at
/// 2 kHz (a 500 µs gap, ~30 times a delivery's work) a qman that parks
/// until its doorbell polls about once a message that it finds nothing,
/// where a backoff ladder of yields and short sleeps polled 15–24 times.
/// The bound is one-sided with a 3× margin over the parked qman's ~1.
#[test]
fn idle_qman_waits_for_its_doorbell_instead_of_polling() {
    let config = LoadConfig {
        topology: MailTopology::single(),
        messages: 400,
        rate_per_sec: 2_000.0,
        arrival: Arrival::FixedRate,
        ..LoadConfig::smoke()
    };
    let report = run_open_loop(&config);
    assert_eq!(report.delivered, 400, "{report:?}");
    assert_eq!(report.lost + report.duplicates + report.dead_lettered, 0);
    assert_eq!(report.latency.count, 400, "one latency sample per delivery");
    assert_eq!(report.release_lag.count, 400, "one release per message");
    assert!(
        report.eagain_retries <= 3 * report.delivered,
        "{} empty polls for {} messages",
        report.eagain_retries,
        report.delivered
    );
}

/// A skewed sharded run concentrates traffic: with strong zipf over a 2×2
/// pipeline the hottest shard carries strictly more than a fair share.
/// Deterministic (the mailbox sequence is seeded), so no self-skip needed —
/// only the *latency* consequences of the skew need real parallelism.
#[test]
fn zipf_skew_concentrates_shard_traffic() {
    let config = LoadConfig {
        topology: MailTopology::new(2, 2).with_shards(4),
        messages: 200,
        mailboxes: 64,
        zipf_s: 1.5,
        ..LoadConfig::smoke()
    };
    let report = run_open_loop(&config);
    assert_eq!(report.delivered, 200);
    let fair = report.delivered / report.shards.len() as u64;
    let hottest = report.hottest_shard().unwrap();
    assert!(
        hottest.delivered > fair,
        "hottest shard carried {} of {} (fair share {fair})",
        hottest.delivered,
        report.delivered
    );
    // Every delivery is attributed to exactly one shard.
    let sum: u64 = report.shards.iter().map(|s| s.delivered).sum();
    assert_eq!(sum, report.delivered);
}

/// Scaling claim (needs real parallelism, self-skips on small hosts): with
/// 4+ hardware threads, a 2×2 sv6 pipeline under uniform load keeps its
/// delivered throughput at or above the 1×1 pipeline's — the sharded
/// notification sockets must not serialise independent mailboxes.
#[test]
fn sharded_pipeline_does_not_collapse_with_real_threads() {
    if available_threads() < 4 {
        eprintln!(
            "skipping: {} hardware thread(s), need 4 for a scaling claim",
            available_threads()
        );
        return;
    }
    let base = LoadConfig {
        messages: 2_000,
        rate_per_sec: 1_000_000.0, // saturating: measure capacity
        mailboxes: 64,
        ..LoadConfig::smoke()
    };
    let single = run_open_loop(&LoadConfig {
        topology: MailTopology::single(),
        ..base.clone()
    });
    let sharded = run_open_loop(&LoadConfig {
        topology: MailTopology::new(2, 2),
        ..base
    });
    assert_eq!(single.delivered, 2_000);
    assert_eq!(sharded.delivered, 2_000);
    assert!(
        sharded.throughput() > single.throughput() * 0.7,
        "2x2 pipeline ({:.0}/s) collapsed against 1x1 ({:.0}/s)",
        sharded.throughput(),
        single.throughput()
    );
}
