//! Open-loop arrival schedules.
//!
//! The defining property of an open-loop generator is that arrival times
//! are decided *before* the system under test runs: message `i` is due at
//! `offsets[i]` nanoseconds after epoch no matter how the server is doing.
//! If the server stalls, arrivals keep their schedule and the backlog —
//! and therefore the queueing delay — is charged to the measured latency.
//! A closed-loop generator would silently stop issuing requests while
//! stalled and report only service time: the coordinated-omission error
//! this module exists to avoid.

use crate::rng::Rng64;

/// How inter-arrival gaps are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Constant gaps: message `i` due at `i / rate`.
    FixedRate,
    /// Exponentially distributed gaps (Poisson process) with mean `1/rate`.
    Poisson,
}

/// The intended-arrival offsets (ns from epoch) for `count` messages at
/// `rate_per_sec`, drawn deterministically from `seed`.
///
/// The returned offsets are nondecreasing; the first arrival is at one
/// inter-arrival gap, not at zero, so rate is honoured from the start.
pub fn arrival_offsets(arrival: Arrival, rate_per_sec: f64, count: usize, seed: u64) -> Vec<u64> {
    assert!(
        rate_per_sec > 0.0 && rate_per_sec.is_finite(),
        "arrival rate must be positive"
    );
    let mean_gap_ns = 1e9 / rate_per_sec;
    let mut rng = Rng64::stream(seed, 0xA221);
    let mut offsets = Vec::with_capacity(count);
    let mut t = 0.0f64;
    for _ in 0..count {
        let gap = match arrival {
            Arrival::FixedRate => mean_gap_ns,
            Arrival::Poisson => {
                // Inverse-CDF of Exp(rate): -ln(1-u) * mean. u < 1 always,
                // so the log argument is strictly positive.
                let u = rng.next_f64();
                -(1.0 - u).ln() * mean_gap_ns
            }
        };
        t += gap;
        offsets.push(t as u64);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_is_evenly_spaced() {
        let offsets = arrival_offsets(Arrival::FixedRate, 1000.0, 10, 1);
        for (i, &t) in offsets.iter().enumerate() {
            assert_eq!(t, ((i + 1) as f64 * 1e6) as u64);
        }
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_hits_the_mean() {
        let a = arrival_offsets(Arrival::Poisson, 10_000.0, 5000, 99);
        let b = arrival_offsets(Arrival::Poisson, 10_000.0, 5000, 99);
        assert_eq!(a, b);
        let c = arrival_offsets(Arrival::Poisson, 10_000.0, 5000, 100);
        assert_ne!(a, c);
        // Mean gap should approach 1/rate = 100µs over 5000 draws.
        let mean_gap = *a.last().unwrap() as f64 / a.len() as f64;
        assert!(
            (mean_gap - 1e5).abs() < 1e4,
            "mean gap {mean_gap} vs expected 1e5"
        );
        // Nondecreasing by construction.
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
