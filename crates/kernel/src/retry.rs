//! Shared retry/backoff policy for transient syscall failures.
//!
//! [`RetryPolicy`] is the one discipline for re-issuing a call that failed
//! transiently: a few pure yields first (the common case — the peer is one
//! reschedule away), then exponential sleeps with seeded jitter up to a
//! ceiling, bounded by a retry count and a total-delay deadline so a
//! message that cannot make progress is handed to the dead-letter path
//! instead of wedging a thread. `scr_chaos`'s `ReliableKernel` retries
//! injected faults with it, and the closed-loop `mailbench` qman backs off
//! with it on an empty queue.
//!
//! Waiting for *work* is not a retry: the pipeline engine's idle qman in
//! `scr_host::pipeline` parks until an enqueuer rings it. Walking this
//! ladder instead, with its 16 yields and 2–100 µs sleeps (each stretched
//! by the default 50 µs timer slack), polls an empty socket ~20 times per
//! message at a steady 1–2 kHz.
//!
//! Everything is deterministic per `(policy.seed, stream)`: the jitter
//! draws come from a SplitMix64 finalizer over the attempt index, never
//! from shared RNG state, so two runs of the same plan produce the same
//! backoff sequence regardless of thread interleaving.

use crate::api::Errno;
use std::time::Duration;

/// SplitMix64 golden-ratio increment.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a stateless avalanche mix. `mix64(s)` is the
/// first output of a SplitMix64 generator seeded with `s`. It is the one
/// copy the workspace uses: retry jitter here, `scr-chaos` fault decisions
/// and `scr-loadgen`'s generator.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Errnos worth retrying: the operation had no effect and may succeed if
/// simply re-issued. Everything else is a genuine, stable kernel answer.
pub fn is_transient(errno: Errno) -> bool {
    matches!(errno, Errno::EAGAIN | Errno::EINTR | Errno::ENOMEM)
}

/// A bounded, deterministic retry schedule.
///
/// Attempts `0..yield_spins` cost nothing but a `yield_now()`; attempt
/// `yield_spins + k` sleeps `min(base_ns << k, ceiling_ns)` scaled by a
/// seeded jitter draw in `[1/2, 1]`. The schedule ends when either
/// `max_retries` waits have been taken or the cumulative sleep reaches
/// `deadline_ns` (the final sleep is clamped so the total never exceeds
/// the deadline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of waits before giving up. `u32::MAX` ≈ never.
    pub max_retries: u32,
    /// How many initial attempts just yield (zero sleep).
    pub yield_spins: u32,
    /// First sleep duration once yielding is exhausted.
    pub base_ns: u64,
    /// Upper bound on any single sleep.
    pub ceiling_ns: u64,
    /// Upper bound on the *total* sleep across all retries of one
    /// operation. `u64::MAX` ≈ unlimited.
    pub deadline_ns: u64,
    /// Seed for the jitter stream. Two [`Backoff`]s with the same
    /// `(seed, stream)` produce identical delay sequences.
    pub seed: u64,
}

impl RetryPolicy {
    /// Never gives up: the replacement for the old bare yield loops. The
    /// outer loop still owns termination (delivery counts, run deadline);
    /// this just stops a starved poll from spinning a core. It is the
    /// never-give-up budget of `ReliableKernel` and the closed-loop
    /// `mailbench` qman's empty-queue backoff. The pipeline engine's qman,
    /// open loop included, does not wait for work with it: it parks until
    /// an enqueue rings it.
    pub fn spin() -> Self {
        RetryPolicy {
            max_retries: u32::MAX,
            yield_spins: 16,
            base_ns: 2_000,
            ceiling_ns: 100_000,
            deadline_ns: u64::MAX,
            seed: 0,
        }
    }

    /// Bounded default for transient-errno retry around a single syscall:
    /// plenty of attempts to ride out an injected errno storm, but a hard
    /// deadline so an unlucky message dead-letters instead of wedging.
    pub fn transient() -> Self {
        RetryPolicy {
            max_retries: 48,
            yield_spins: 4,
            base_ns: 1_000,
            ceiling_ns: 64_000,
            deadline_ns: 2_000_000,
            seed: 0,
        }
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the retry-count bound.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The raw (pre-clamp) delay for wait number `attempt` on `stream`:
    /// zero while yielding, then exponential from `base_ns` to
    /// `ceiling_ns`, jittered into `[delay/2, delay]` deterministically.
    pub fn delay_ns(&self, stream: u64, attempt: u32) -> u64 {
        if attempt < self.yield_spins {
            return 0;
        }
        let step = attempt - self.yield_spins;
        let raw = shl_sat(self.base_ns, step).min(self.ceiling_ns);
        if raw == 0 {
            return 0;
        }
        let draw = mix64(mix64(self.seed ^ stream.wrapping_mul(GOLDEN)) ^ u64::from(attempt));
        let half = raw / 2;
        half + draw % (raw - half + 1)
    }
}

/// Saturating left shift (a shifted-out value pins to max, not wraps).
fn shl_sat(value: u64, shift: u32) -> u64 {
    if value == 0 {
        0
    } else if shift >= value.leading_zeros() {
        u64::MAX
    } else {
        value << shift
    }
}

/// The per-operation cursor over a [`RetryPolicy`] schedule.
///
/// `step()` is the pure core (returns the next delay or `None` when the
/// budget is exhausted) so tests can enumerate schedules without
/// sleeping; `wait()` additionally performs the yield/sleep.
#[derive(Clone, Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    stream: u64,
    attempt: u32,
    slept_ns: u64,
}

impl Backoff {
    /// Starts a schedule on `stream` (any stable per-operation id: message
    /// index, shard number, core id...).
    pub fn new(policy: RetryPolicy, stream: u64) -> Self {
        Backoff {
            policy,
            stream,
            attempt: 0,
            slept_ns: 0,
        }
    }

    /// Advances the schedule: `Some(delay_ns)` to wait (0 = just yield),
    /// `None` when the retry budget or deadline is exhausted. The returned
    /// delay is already clamped so `slept_ns()` never exceeds
    /// `policy.deadline_ns`.
    pub fn step(&mut self) -> Option<u64> {
        if self.attempt >= self.policy.max_retries || self.slept_ns >= self.policy.deadline_ns {
            return None;
        }
        let raw = self.policy.delay_ns(self.stream, self.attempt);
        let remaining = self.policy.deadline_ns - self.slept_ns;
        let delay = raw.min(remaining);
        self.attempt += 1;
        self.slept_ns += delay;
        Some(delay)
    }

    /// Takes the next wait: yields or sleeps per the schedule. Returns
    /// `false` when the budget is exhausted — the caller should stop
    /// retrying (dead-letter, shed, or surface the error).
    pub fn wait(&mut self) -> bool {
        match self.step() {
            Some(0) => {
                std::thread::yield_now();
                true
            }
            Some(ns) => {
                std::thread::sleep(Duration::from_nanos(ns));
                true
            }
            None => false,
        }
    }

    /// Restarts the ladder after a success, so the next stall begins with
    /// cheap yields again. Also clears the deadline accumulator: the
    /// deadline bounds one *operation*, not the loop's lifetime.
    pub fn reset(&mut self) {
        self.attempt = 0;
        self.slept_ns = 0;
    }

    /// Waits taken since construction or the last [`reset`](Self::reset).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Total nanoseconds of scheduled sleep (yields count as zero) since
    /// construction or the last reset.
    pub fn slept_ns(&self) -> u64 {
        self.slept_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_then_sleeps_capped_at_ceiling() {
        let policy = RetryPolicy {
            max_retries: 64,
            yield_spins: 3,
            base_ns: 100,
            ceiling_ns: 1_000,
            deadline_ns: u64::MAX,
            seed: 7,
        };
        for attempt in 0..3 {
            assert_eq!(policy.delay_ns(5, attempt), 0);
        }
        for attempt in 3..64 {
            let d = policy.delay_ns(5, attempt);
            assert!((50..=1_000).contains(&d), "attempt {attempt}: {d}");
        }
    }

    #[test]
    fn deadline_clamps_total_sleep_exactly() {
        let policy = RetryPolicy {
            max_retries: u32::MAX,
            yield_spins: 0,
            base_ns: 64,
            ceiling_ns: 1 << 40,
            deadline_ns: 10_000,
            seed: 1,
        };
        let mut backoff = Backoff::new(policy, 0);
        let mut total = 0u64;
        while let Some(d) = backoff.step() {
            total += d;
            assert!(total <= 10_000);
        }
        assert_eq!(total, 10_000);
        assert_eq!(backoff.slept_ns(), 10_000);
    }

    #[test]
    fn spin_policy_never_exhausts_under_many_steps() {
        let mut backoff = Backoff::new(RetryPolicy::spin(), 3);
        for _ in 0..10_000 {
            assert!(backoff.step().is_some());
        }
    }

    #[test]
    fn mix64_is_splitmix64() {
        // The first SplitMix64 output for seed 0.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(Errno::EAGAIN));
        assert!(is_transient(Errno::EINTR));
        assert!(is_transient(Errno::ENOMEM));
        assert!(!is_transient(Errno::ENOENT));
        assert!(!is_transient(Errno::EBADF));
    }
}
