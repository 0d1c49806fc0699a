//! [`FaultyKernel`]: the fault-injecting layer, and [`ReliableKernel`]:
//! the retrying layer that rides on top of it.
//!
//! Both are [`Layer`]s: each writes one `around` hook, and the blanket
//! `SyscallApi` impl in `scr_kernel::api` forwards every call through it.
//! [`FaultKind::for_call`] names the calls either layer acts on (`open`,
//! `fork`, `posix_spawn`, `send`, `recv`); every other call passes
//! straight through both.
//!
//! The injection invariant that makes retry safe: a fault is decided
//! *before* the inner kernel is invoked, so an injected failure has **zero
//! side effects** — re-issuing the call is always equivalent to the call
//! never having failed. `ReliableKernel` exploits the second half of the
//! bargain: the faulty kernel knows which failures it manufactured
//! ([`FaultyKernel::was_injected`]), so the reliable path retries exactly
//! those and passes every genuine kernel answer through untouched. Under
//! any plan, `ReliableKernel` over `FaultyKernel` over `K` is
//! observationally `K` (modulo timing) until a retry budget exhausts —
//! and budget exhaustion surfaces the injected errno to the caller, whose
//! job is to dead-letter, not to lose.
//!
//! One thread per core is assumed (as everywhere else in the workspace):
//! the per-core injection state is not meaningful if two threads share a
//! core label.

use crate::plan::{ChaosPlan, FaultKind};
use scr_kernel::api::{Errno, KResult, Layer, SyscallApi, SyscallKind};
use scr_kernel::retry::{Backoff, RetryPolicy};
use scr_mtrace::CoreId;
use scr_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Obs counters and histograms for the chaos layer, pre-registered flat
/// (same discipline as `SyscallRecorder`).
pub struct ChaosTelemetry {
    /// Injected transient errnos, per faultable call.
    injected: [Counter; 4],
    /// Delivery holds started on `recv`.
    pub delay_holds: Counter,
    /// Injected EAGAIN polls spent inside holds (≥ holds × 1).
    pub delay_polls: Counter,
    /// Retries taken by the reliable path.
    pub retries: Counter,
    /// Nanoseconds of each backoff sleep (yields are not recorded).
    pub backoff_ns: Histogram,
    /// First injected failure → eventual success, per recovered call.
    pub recovery_ns: Histogram,
}

impl ChaosTelemetry {
    /// Registers the chaos metric family on `registry`.
    pub fn new(registry: &Arc<MetricsRegistry>) -> Arc<ChaosTelemetry> {
        let injected = [
            FaultKind::Send,
            FaultKind::Recv,
            FaultKind::Open,
            FaultKind::Spawn,
        ]
        .map(|kind| registry.counter(&format!("chaos.injected.{}", kind.name())));
        Arc::new(ChaosTelemetry {
            injected,
            delay_holds: registry.counter("chaos.delay.holds"),
            delay_polls: registry.counter("chaos.delay.polls"),
            retries: registry.counter("chaos.retries"),
            backoff_ns: registry.histogram("chaos.backoff_sleep_ns"),
            recovery_ns: registry.histogram("chaos.recovery_ns"),
        })
    }

    /// The injected-fault counter for `kind`.
    pub fn injected(&self, kind: FaultKind) -> &Counter {
        &self.injected[kind as usize]
    }

    /// Total injected faults across all calls (excluding delay polls).
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(Counter::total).sum()
    }
}

struct CoreState {
    /// Per-kind faultable-call indices (the decision stream positions).
    counts: [AtomicU64; 4],
    /// Remaining injected-EAGAIN polls of an active delivery hold.
    pending_delay: AtomicU32,
    /// Whether this core's last faultable call failed by injection.
    injected: AtomicBool,
}

impl CoreState {
    fn new() -> CoreState {
        CoreState {
            counts: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            pending_delay: AtomicU32::new(0),
            injected: AtomicBool::new(false),
        }
    }
}

/// The [`Layer`] injecting the faults a [`ChaosPlan`] decided.
///
/// With a disabled plan ([`ChaosPlan::none`]) every call is pure
/// delegation — no atomics touched, no clock read, no probe footprint
/// beyond the inner kernel's own (the parity test in `scr-host` pins
/// this).
pub struct FaultyKernel<'k, K: SyscallApi + ?Sized> {
    inner: &'k K,
    plan: ChaosPlan,
    active: bool,
    telemetry: Option<Arc<ChaosTelemetry>>,
    per_core: Box<[CoreState]>,
    /// Total injected errnos (kept besides the obs counters so reports
    /// work without a registry).
    injected_count: AtomicU64,
    /// Total injected-EAGAIN polls spent in delivery holds.
    delayed_polls: AtomicU64,
}

impl<'k, K: SyscallApi + ?Sized> FaultyKernel<'k, K> {
    /// Wraps `inner` under `plan` for up to `cores` core labels.
    pub fn new(inner: &'k K, plan: ChaosPlan, cores: usize) -> FaultyKernel<'k, K> {
        let active = plan.enabled();
        FaultyKernel {
            inner,
            active,
            plan,
            telemetry: None,
            per_core: (0..cores).map(|_| CoreState::new()).collect(),
            injected_count: AtomicU64::new(0),
            delayed_polls: AtomicU64::new(0),
        }
    }

    /// Total errnos injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected_count.load(Ordering::Relaxed)
    }

    /// Total recv polls eaten by delivery holds so far.
    pub fn delayed_polls_total(&self) -> u64 {
        self.delayed_polls.load(Ordering::Relaxed)
    }

    /// Attaches chaos telemetry (counts injections, holds, retries).
    pub fn with_telemetry(mut self, telemetry: Arc<ChaosTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Whether `core`'s most recent faultable call failed by injection
    /// (false after any call that reached the inner kernel). Meaningful
    /// only under the one-thread-per-core discipline.
    pub fn was_injected(&self, core: CoreId) -> bool {
        self.active && self.per_core[core].injected.load(Ordering::Relaxed)
    }

    fn count_injected(&self, core: CoreId, kind: FaultKind) {
        self.injected_count.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.injected(kind).inc(core);
        }
    }

    fn count_delay_poll(&self, core: CoreId, fresh_hold: bool) {
        self.delayed_polls.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            if fresh_hold {
                t.delay_holds.inc(core);
            }
            t.delay_polls.inc(core);
        }
    }

    /// The failure, if any, the plan gives this attempt of a `fault` call:
    /// a poll eaten by an active delivery hold, then the plan's errno, then
    /// (for `recv`) the first poll of a new hold.
    fn decide(&self, core: CoreId, state: &CoreState, fault: FaultKind) -> Option<Errno> {
        let is_recv = fault == FaultKind::Recv;
        if is_recv {
            let pending = state.pending_delay.load(Ordering::Relaxed);
            if pending > 0 {
                state.pending_delay.store(pending - 1, Ordering::Relaxed);
                self.count_delay_poll(core, false);
                return Some(Errno::EAGAIN);
            }
        }
        let index = state.counts[fault as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(errno) = self.plan.decide_fault(core, index, fault) {
            self.count_injected(core, fault);
            return Some(errno);
        }
        if !is_recv {
            return None;
        }
        let polls = self.plan.decide_delay(core, index)?;
        state.pending_delay.store(polls - 1, Ordering::Relaxed);
        self.count_delay_poll(core, true);
        Some(Errno::EAGAIN)
    }
}

impl<K: SyscallApi + ?Sized> Layer for FaultyKernel<'_, K> {
    type Inner = K;

    fn inner(&self) -> &K {
        self.inner
    }

    #[inline]
    fn around<T>(
        &self,
        core: CoreId,
        kind: SyscallKind,
        call: impl Fn() -> KResult<T>,
    ) -> KResult<T> {
        let fault = match FaultKind::for_call(kind) {
            Some(fault) if self.active => fault,
            _ => return call(),
        };
        let state = &self.per_core[core];
        let injected = self.decide(core, state, fault);
        state.injected.store(injected.is_some(), Ordering::Relaxed);
        match injected {
            Some(errno) => Err(errno),
            None => call(),
        }
    }
}

/// The retrying layer: re-issues exactly the failures its [`FaultyKernel`]
/// injected, under a [`RetryPolicy`] budget.
///
/// Genuine kernel errors (including a genuine EAGAIN from an empty
/// socket) pass through on the first bounce — poll loops and error
/// handling above see the real kernel's behaviour. Calls chaos never
/// strikes are not retried at all, whatever the fault layer's flag says.
/// When the budget exhausts mid-storm, the last injected errno surfaces;
/// the caller dead-letters or sheds, it does not lose.
pub struct ReliableKernel<'f, 'k, K: SyscallApi + ?Sized> {
    faulty: &'f FaultyKernel<'k, K>,
    policy: RetryPolicy,
}

impl<'f, 'k, K: SyscallApi + ?Sized> ReliableKernel<'f, 'k, K> {
    /// Wraps `faulty` with retry `policy`.
    pub fn new(faulty: &'f FaultyKernel<'k, K>, policy: RetryPolicy) -> Self {
        ReliableKernel { faulty, policy }
    }
}

impl<'k, K: SyscallApi + ?Sized> Layer for ReliableKernel<'_, 'k, K> {
    type Inner = FaultyKernel<'k, K>;

    fn inner(&self) -> &FaultyKernel<'k, K> {
        self.faulty
    }

    #[inline]
    fn around<T>(
        &self,
        core: CoreId,
        kind: SyscallKind,
        call: impl Fn() -> KResult<T>,
    ) -> KResult<T> {
        if FaultKind::for_call(kind).is_none() {
            return call();
        }
        let mut result = call();
        if result.is_ok() || !self.faulty.was_injected(core) {
            return result;
        }
        let telemetry = self.faulty.telemetry.as_deref();
        let started = telemetry.map(|_| Instant::now());
        let mut backoff = Backoff::new(self.policy, core as u64);
        loop {
            match backoff.step() {
                None => return result, // budget exhausted: surface the injected errno
                Some(0) => std::thread::yield_now(),
                Some(ns) => {
                    if let Some(t) = telemetry {
                        t.backoff_ns.record(core, ns);
                    }
                    std::thread::sleep(std::time::Duration::from_nanos(ns));
                }
            }
            if let Some(t) = telemetry {
                t.retries.inc(core);
            }
            result = call();
            match &result {
                Ok(_) => {
                    if let (Some(t), Some(at)) = (telemetry, started) {
                        t.recovery_ns.record(core, at.elapsed().as_nanos() as u64);
                    }
                    return result;
                }
                Err(_) if self.faulty.was_injected(core) => continue,
                Err(_) => return result, // genuine kernel answer
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DelaySpec, FaultSpec};
    use scr_kernel::api::OpenFlags;
    use scr_kernel::Sv6Kernel;

    #[test]
    fn a_stale_injection_flag_never_retries_a_call_chaos_cannot_fault() {
        let kernel = Sv6Kernel::new(1);
        let pid = kernel.new_process();
        kernel.open(0, pid, "a", OpenFlags::create()).unwrap();
        let storm = FaultSpec {
            open_ppm: FaultSpec::MAX_PPM,
            ..FaultSpec::default()
        };
        let plan = ChaosPlan::new(5, storm, DelaySpec::default(), vec![]);
        let telemetry = ChaosTelemetry::new(&MetricsRegistry::new(1));
        let faulty = FaultyKernel::new(&kernel, plan, 1).with_telemetry(telemetry.clone());
        let reliable = ReliableKernel::new(&faulty, RetryPolicy::transient().with_max_retries(1));
        // The open storm exhausts the budget and leaves the flag set...
        assert!(reliable.open(0, pid, "b", OpenFlags::create()).is_err());
        assert!(faulty.was_injected(0));
        // ...and a genuine EEXIST from `link` still surfaces untried.
        let retries = telemetry.retries.total();
        assert_eq!(reliable.link(0, pid, "a", "a"), Err(Errno::EEXIST));
        assert_eq!(telemetry.retries.total(), retries);
    }
}
