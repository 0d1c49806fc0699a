//! Per-syscall recording: call counts, errno counts and wall latency.
//!
//! [`SyscallRecorder`] pre-registers one counter, one latency histogram and
//! one counter per errno for every call family, so the record path never
//! touches the registry: it indexes a flat table by the [`SyscallKind`] and
//! [`Errno`] discriminants and lands on the calling core's padded slots.
//! [`ObservedKernel`] is the [`Layer`] that feeds it: wrapped around any
//! [`SyscallApi`] implementation, it records direct calls and reified
//! `perform` dispatch alike.

use crate::metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry};
use scr_kernel::api::{Errno, KResult, Layer, SyscallApi};
use scr_mtrace::CoreId;
use std::sync::Arc;
use std::time::Instant;

pub use scr_kernel::api::SyscallKind;

/// Every [`Errno`] the kernels return, in declaration order (the
/// recorder's table order).
pub const ALL_ERRNOS: [Errno; 13] = [
    Errno::ENOENT,
    Errno::EEXIST,
    Errno::EBADF,
    Errno::EINVAL,
    Errno::EMFILE,
    Errno::ENOSPC,
    Errno::ENOMEM,
    Errno::EPIPE,
    Errno::ESPIPE,
    Errno::EFAULT,
    Errno::EAGAIN,
    Errno::EPERM,
    Errno::EINTR,
];

struct CallMetrics {
    count: Counter,
    latency: Histogram,
    errnos: Box<[Counter]>,
}

/// Pre-resolved per-syscall metric handles over one [`MetricsRegistry`].
///
/// Metric names: `syscall.<call>.calls`, `syscall.<call>.latency_ns`,
/// `syscall.<call>.errno.<ERRNO>`.
pub struct SyscallRecorder {
    calls: Box<[CallMetrics]>,
}

impl SyscallRecorder {
    /// Register handles for every call family on `registry`.
    pub fn new(registry: &Arc<MetricsRegistry>) -> Arc<SyscallRecorder> {
        let calls = SyscallKind::ALL
            .iter()
            .map(|kind| {
                let name = kind.name();
                CallMetrics {
                    count: registry.counter(&format!("syscall.{name}.calls")),
                    latency: registry.histogram(&format!("syscall.{name}.latency_ns")),
                    errnos: ALL_ERRNOS
                        .iter()
                        .map(|errno| registry.counter(&format!("syscall.{name}.errno.{errno}")))
                        .collect(),
                }
            })
            .collect();
        Arc::new(SyscallRecorder { calls })
    }

    /// Record one completed call from `core`.
    #[inline]
    pub fn observe(&self, core: CoreId, kind: SyscallKind, errno: Option<Errno>, nanos: u64) {
        let call = &self.calls[kind as usize];
        call.count.inc(core);
        call.latency.record(core, nanos);
        if let Some(errno) = errno {
            call.errnos[errno as usize].inc(core);
        }
    }

    /// Total calls recorded for `kind`.
    pub fn count_of(&self, kind: SyscallKind) -> u64 {
        self.calls[kind as usize].count.total()
    }

    /// Per-core call counts for `kind`.
    pub fn per_core_counts(&self, kind: SyscallKind) -> Vec<u64> {
        self.calls[kind as usize].count.per_core()
    }

    /// Times `kind` failed with `errno`.
    pub fn errno_count(&self, kind: SyscallKind, errno: Errno) -> u64 {
        self.calls[kind as usize].errnos[errno as usize].total()
    }

    /// The merged latency distribution for `kind`.
    pub fn latency(&self, kind: SyscallKind) -> HistogramSnapshot {
        self.calls[kind as usize].latency.merged()
    }
}

/// The [`Layer`] that times every call into a [`SyscallRecorder`]: two
/// clock reads per call, then the recorder's per-core updates. A run that
/// should not be observed does not wrap its kernel in one.
pub struct ObservedKernel<'k, K: SyscallApi + ?Sized> {
    inner: &'k K,
    recorder: Arc<SyscallRecorder>,
}

impl<'k, K: SyscallApi + ?Sized> ObservedKernel<'k, K> {
    pub fn new(inner: &'k K, recorder: Arc<SyscallRecorder>) -> ObservedKernel<'k, K> {
        ObservedKernel { inner, recorder }
    }

    /// The recorder this wrapper feeds.
    pub fn recorder(&self) -> &Arc<SyscallRecorder> {
        &self.recorder
    }
}

impl<K: SyscallApi + ?Sized> Layer for ObservedKernel<'_, K> {
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
        let started = Instant::now();
        let result = call();
        let nanos = started.elapsed().as_nanos() as u64;
        self.recorder
            .observe(core, kind, result.as_ref().err().copied(), nanos);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_follow_declaration_order() {
        for (i, kind) in SyscallKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
        for (i, errno) in ALL_ERRNOS.into_iter().enumerate() {
            assert_eq!(errno as usize, i);
        }
    }

    #[test]
    fn recorder_counts_calls_and_errnos() {
        let registry = MetricsRegistry::new(2);
        let recorder = SyscallRecorder::new(&registry);
        recorder.observe(0, SyscallKind::Open, None, 100);
        recorder.observe(1, SyscallKind::Open, Some(Errno::ENOENT), 50);
        recorder.observe(1, SyscallKind::Recv, Some(Errno::EAGAIN), 10);
        assert_eq!(recorder.count_of(SyscallKind::Open), 2);
        assert_eq!(recorder.per_core_counts(SyscallKind::Open), vec![1, 1]);
        assert_eq!(recorder.errno_count(SyscallKind::Open, Errno::ENOENT), 1);
        assert_eq!(recorder.errno_count(SyscallKind::Recv, Errno::EAGAIN), 1);
        assert_eq!(recorder.latency(SyscallKind::Open).count, 2);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["syscall.open.calls"].total, 2);
        assert_eq!(snapshot.counters["syscall.recv.errno.EAGAIN"].total, 1);
        assert_eq!(snapshot.histograms["syscall.open.latency_ns"].count, 2);
    }
}
