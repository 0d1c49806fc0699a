//! The Figure-7 workloads ported to real threads against [`HostKernel`].
//!
//! Each workload reproduces the shape of its simulated counterpart in
//! `scr_bench` but is driven by the [`LoadHarness`]: real threads, real
//! atomics, wall-clock ops/sec/core. The interesting comparison is always
//! the same one the paper makes — a configuration whose commutative
//! operations are conflict-free (per-core / striped structures) against
//! one that serialises them (a shared lock or a shared cache line).

use crate::harness::LoadHarness;
use crate::kernel::{HostKernel, HostMode, HostOptions};
use crate::pipeline::{run_pipeline, saturating_schedule, MailPipelineReport, PipelineConfig};
use scr_kernel::api::{Errno, Fd, OpenFlags, Pid, StatMask, SyscallApi};
use scr_kernel::mail::{
    MailConfig, MailServer, MailStage, MailStageObserver, MailTopology, NoMailObs,
};
use scr_kernel::retry::{Backoff, RetryPolicy};
use scr_mtrace::{CoreId, ScalingPoint};
use scr_obs::{
    Counter, Histogram, MetricsRegistry, ObservedKernel, SpanName, SyscallRecorder, TraceLog,
};
use std::sync::Arc;
use std::time::Instant;

/// The telemetry bundle the observed mail workloads feed: one
/// [`MetricsRegistry`] (per-core counters + latency histograms), one
/// [`SyscallRecorder`] wired through [`ObservedKernel`], and one
/// [`TraceLog`] receiving a span per pipeline stage (it implements
/// [`MailStageObserver`]). Everything follows the per-core sharding
/// discipline, so observing the pipeline cannot introduce a shared cache
/// line the pipeline itself avoids.
pub struct MailTelemetry {
    /// The registry every counter below lives in; snapshot after the run.
    pub registry: Arc<MetricsRegistry>,
    /// Per-syscall counts / errnos / latency, fed by [`ObservedKernel`].
    pub syscalls: Arc<SyscallRecorder>,
    /// Pipeline stage spans (enqueue → notify → … → cleanup), exportable
    /// as Chrome trace-event JSON.
    pub trace: Arc<TraceLog>,
    /// Messages the enqueuer side spooled and announced.
    pub enqueued: Counter,
    /// Messages the queue-manager side delivered.
    pub delivered: Counter,
    /// Qman polls that found the queue empty (`EAGAIN`): an empty
    /// `qman_step` in `mailbench`, an empty round over a pipeline qman's
    /// shards.
    pub eagain_retries: Counter,
    /// Backoff waits (yields or short sleeps, per the shared
    /// [`RetryPolicy`]) taken on an empty queue — exactly one per counted
    /// `EAGAIN` retry.
    pub yield_spins: Counter,
    /// End-to-end message latency in ns, under the same histogram name
    /// (`mail.latency_ns`) the open-loop load generator records, so
    /// closed-loop and open-loop snapshots are directly comparable. Here
    /// the clock starts when the operation starts — a closed-loop number,
    /// which is exactly the coordinated-omission contrast the open-loop
    /// path exists to expose.
    pub latency: Histogram,
    stage_names: [SpanName; MailStage::ALL.len()],
}

impl MailTelemetry {
    /// A fresh registry + trace log sized for `cores`.
    pub fn new(cores: usize) -> MailTelemetry {
        MailTelemetry::over(MetricsRegistry::new(cores))
    }

    /// Telemetry over an existing registry (so an example can mix mail
    /// counters with its own sections in one snapshot).
    pub fn over(registry: Arc<MetricsRegistry>) -> MailTelemetry {
        let syscalls = SyscallRecorder::new(&registry);
        let trace = TraceLog::new(registry.cores());
        let stage_names =
            MailStage::ALL.map(|stage| trace.intern(&format!("mail.{}", stage.name())));
        MailTelemetry {
            enqueued: registry.counter("mail.enqueued"),
            delivered: registry.counter("mail.delivered"),
            eagain_retries: registry.counter("mail.eagain_retries"),
            yield_spins: registry.counter("mail.yield_spins"),
            latency: registry.histogram("mail.latency_ns"),
            syscalls,
            trace,
            registry,
            stage_names,
        }
    }
}

impl MailStageObserver for MailTelemetry {
    fn stage_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    fn observe_stage(&self, core: CoreId, stage: MailStage, started: Instant, ended: Instant) {
        self.trace
            .record(core, self.stage_names[stage as usize], started, ended);
    }
}

/// Which statbench variant to run (mirrors `scr_bench::statbench::StatMode`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostStatMode {
    /// `fstat` with per-core (Refcache-style) link counts.
    FstatRefcache,
    /// `fstat` with a single shared link count.
    FstatSharedCount,
    /// `fstatx` without `st_nlink` (the §4 commutative variant).
    FstatxNoNlink,
}

impl HostStatMode {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            HostStatMode::FstatRefcache => "fstat (Refcache st_nlink)",
            HostStatMode::FstatSharedCount => "fstat (shared st_nlink)",
            HostStatMode::FstatxNoNlink => "fstatx (without st_nlink)",
        }
    }
}

/// statbench on real threads: half the threads `fstat`/`fstatx` one shared
/// file while the other half `link`/`unlink` it under fresh names.
pub fn statbench(
    mode: HostMode,
    stat_mode: HostStatMode,
    threads: usize,
    ops_per_thread: u64,
) -> ScalingPoint {
    statbench_observed(mode, stat_mode, threads, ops_per_thread, None)
}

/// [`statbench`] with optional per-syscall recording. The hot loop is the
/// same generic code whether the calls go straight to the [`HostKernel`]
/// or through an [`ObservedKernel`] — so the `obs_overhead` example can
/// compare the two paths (recorder disabled) and gate the wrapper's cost.
pub fn statbench_observed(
    mode: HostMode,
    stat_mode: HostStatMode,
    threads: usize,
    ops_per_thread: u64,
    recorder: Option<&Arc<SyscallRecorder>>,
) -> ScalingPoint {
    let options = HostOptions {
        shared_link_counts: matches!(stat_mode, HostStatMode::FstatSharedCount),
    };
    let kernel = Arc::new(HostKernel::with_options(threads, mode, options));
    let pid = kernel.new_process();
    let fd = kernel
        .open(0, pid, "statfile", OpenFlags::create())
        .expect("create statfile");
    match recorder {
        Some(recorder) => {
            let observed = ObservedKernel::new(kernel.as_ref(), recorder.clone());
            statbench_loop(
                &observed,
                &kernel,
                stat_mode,
                threads,
                ops_per_thread,
                pid,
                fd,
            )
        }
        None => statbench_loop(
            kernel.as_ref(),
            &kernel,
            stat_mode,
            threads,
            ops_per_thread,
            pid,
            fd,
        ),
    }
}

/// The statbench hot loop, generic over the syscall surface it drives.
/// `host` is the concrete kernel, needed only for the periodic epoch pass
/// (`reclaim_core` is not part of [`SyscallApi`]).
fn statbench_loop<K: SyscallApi + Sync + ?Sized>(
    api: &K,
    host: &HostKernel,
    stat_mode: HostStatMode,
    threads: usize,
    ops_per_thread: u64,
    pid: Pid,
    fd: Fd,
) -> ScalingPoint {
    let stat_threads = (threads / 2).max(1);
    LoadHarness::new(ops_per_thread).run(threads, move |core, op| {
        if core < stat_threads {
            match stat_mode {
                HostStatMode::FstatxNoNlink => {
                    api.fstatx(core, pid, fd, StatMask::all_but_nlink())
                        .expect("fstatx");
                }
                _ => {
                    api.fstat(core, pid, fd).expect("fstat");
                }
            }
        } else {
            let scratch = format!("statlink-{core}-{op}");
            api.link(core, pid, "statfile", &scratch).expect("link");
            api.unlink(core, pid, &scratch).expect("unlink");
            // Periodic epoch pass, as a per-core timer tick would run it.
            if op % 256 == 255 {
                host.reclaim_core(core);
            }
        }
    })
}

/// openbench on real threads: every thread opens and closes its own
/// pre-created file, with lowest-FD or `O_ANYFD` allocation.
pub fn openbench(mode: HostMode, anyfd: bool, threads: usize, ops_per_thread: u64) -> ScalingPoint {
    let kernel = Arc::new(HostKernel::new(threads, mode));
    let pid = kernel.new_process();
    for core in 0..threads {
        let fd = kernel
            .open(core, pid, &format!("openbench-{core}"), OpenFlags::create())
            .expect("create per-core file");
        kernel.close(core, pid, fd).expect("close");
    }
    let kernel_ref = &kernel;
    LoadHarness::new(ops_per_thread).run(threads, move |core, _op| {
        let flags = if anyfd {
            OpenFlags::plain().with_anyfd()
        } else {
            OpenFlags::plain()
        };
        let fd = kernel_ref
            .open(core, pid, &format!("openbench-{core}"), flags)
            .expect("open");
        kernel_ref.close(core, pid, fd).expect("close");
    })
}

/// The §7.3 mail pipeline's hot loop on real threads, driven through the
/// *real* `scr_kernel::mail::MailServer` — notification socket, spawn,
/// wait and all — instead of a file-system-only approximation. Each
/// thread's operation enqueues one message (spool files + a datagram on
/// the notification socket) and then runs queue-manager steps until one
/// message is delivered: with the unordered socket that is usually its own
/// (taken conflict-free from the core's local queue), with the ordered one
/// every notification funnels through the single shared queue.
///
/// The [`MailConfig`] selects the whole §7.3 API family: descriptor
/// allocation (lowest-FD vs `O_ANYFD`), socket ordering, and helper
/// creation (`fork`'s table snapshot vs `posix_spawn`).
pub fn mailbench(
    mode: HostMode,
    config: MailConfig,
    threads: usize,
    ops_per_thread: u64,
) -> ScalingPoint {
    mailbench_observed(mode, config, threads, ops_per_thread, None)
}

/// [`mailbench`] with optional telemetry: syscalls route through an
/// [`ObservedKernel`], pipeline stages become trace spans, and the
/// empty-queue backoff is counted per core.
pub fn mailbench_observed(
    mode: HostMode,
    config: MailConfig,
    threads: usize,
    ops_per_thread: u64,
    telemetry: Option<&MailTelemetry>,
) -> ScalingPoint {
    let kernel = HostKernel::new(threads, mode);
    let client = kernel.new_process();
    let qman = kernel.new_process();
    let observed = telemetry.map(|t| ObservedKernel::new(&kernel, t.syscalls.clone()));
    let api: &(dyn SyscallApi + Sync) = match observed.as_ref() {
        Some(o) => o,
        None => &kernel,
    };
    let stages: &(dyn MailStageObserver + Sync) = match telemetry {
        Some(t) => t,
        None => &NoMailObs,
    };
    let server = MailServer::new(api, config, threads).expect("mail server");
    let (server_ref, kernel_ref) = (&server, &kernel);
    LoadHarness::new(ops_per_thread).run(threads, move |core, op| {
        let op_start = telemetry.map(|_| Instant::now());
        let mailbox = format!("user{core}");
        server_ref
            .enqueue(
                core,
                client,
                &mailbox,
                format!("m-{core}-{op}").as_bytes(),
                stages,
            )
            .expect("enqueue");
        if let Some(t) = telemetry {
            t.enqueued.inc(core);
        }
        // Deliver one message (not necessarily this thread's: another
        // core's qman step may have stolen ours first — globally the
        // counts balance, so this loop cannot starve).
        let mut backoff = Backoff::new(RetryPolicy::spin(), core as u64);
        loop {
            match server_ref.qman_step(core, qman, stages) {
                Ok(_) => {
                    if let Some(t) = telemetry {
                        t.delivered.inc(core);
                    }
                    break;
                }
                // Back off rather than spin: a few yields first (under
                // oversubscription the thread holding progress may need
                // this core), then short sleeps up to the ceiling.
                Err(Errno::EAGAIN) => {
                    if let Some(t) = telemetry {
                        t.eagain_retries.inc(core);
                        t.yield_spins.inc(core);
                    }
                    backoff.wait();
                }
                Err(e) => panic!("qman step failed: {e}"),
            }
        }
        if let (Some(t), Some(start)) = (telemetry, op_start) {
            t.latency.record(
                core,
                start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        // Periodic epoch pass so the spool's unlinked inodes (and their
        // page caches) are actually freed during long sweeps.
        if op % 64 == 63 {
            kernel_ref.reclaim_core(core);
        }
    })
}

/// The full §7.3 pipeline as *actual communicating threads*: `enqueuers`
/// threads run mail-enqueue, `qmans` threads run mail-qman (receiving
/// notifications, spawning a delivery helper per message, waiting for it,
/// cleaning the spool) — the two stages talk only through the kernel, via
/// one notification-socket shard per qman and the spool files, exactly as
/// the paper's processes do. Returns the exactly-once ledger, verified by
/// reading every delivered mailbox file back.
pub fn mail_pipeline(
    mode: HostMode,
    config: MailConfig,
    enqueuers: usize,
    qmans: usize,
    messages_per_enqueuer: usize,
) -> MailPipelineReport {
    mail_pipeline_observed(mode, config, enqueuers, qmans, messages_per_enqueuer, None)
}

/// [`mail_pipeline`] with optional telemetry: the [`run_pipeline`] engine
/// on a saturating schedule (every message due at once), fault-free. With
/// `Some(telemetry)`: every syscall the pipeline makes is counted and timed
/// per core, each stage (enqueue → notify → receive → spawn → deliver →
/// reap → cleanup) becomes a trace span on its worker's core, and the qman
/// polling loop counts its `EAGAIN` retries and yields. The exactly-once
/// verification at the end reads mailboxes back through the *raw* kernel,
/// so the recorded ledger is exactly what the pipeline itself did — which
/// is what makes the retry-tail invariant (`recv.calls == delivered +
/// eagain_retries`) checkable from the snapshot alone.
pub fn mail_pipeline_observed(
    mode: HostMode,
    config: MailConfig,
    enqueuers: usize,
    qmans: usize,
    messages_per_enqueuer: usize,
    telemetry: Option<&MailTelemetry>,
) -> MailPipelineReport {
    let cfg = PipelineConfig::new(config, MailTopology::new(enqueuers, qmans));
    let enqueuers = cfg.topology.enqueuers;
    let schedule = saturating_schedule(enqueuers, enqueuers * messages_per_enqueuer);
    let kernel = HostKernel::new(cfg.cores(), mode);
    run_pipeline(&kernel, &cfg, &schedule, telemetry, |_, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statbench_runs_all_modes_on_two_threads() {
        for stat_mode in [
            HostStatMode::FstatRefcache,
            HostStatMode::FstatSharedCount,
            HostStatMode::FstatxNoNlink,
        ] {
            let point = statbench(HostMode::Sv6, stat_mode, 2, 50);
            assert_eq!(point.total_ops, 100);
            assert!(point.ops_per_sec_per_core > 0.0);
        }
    }

    #[test]
    fn openbench_runs_in_both_modes() {
        for mode in [HostMode::Sv6, HostMode::Linuxlike] {
            for anyfd in [false, true] {
                let point = openbench(mode, anyfd, 2, 50);
                assert_eq!(point.cores, 2);
                assert!(point.ops_per_sec_per_core > 0.0);
            }
        }
    }

    #[test]
    fn mailbench_runs_both_configs_on_both_modes() {
        for mode in [HostMode::Sv6, HostMode::Linuxlike] {
            for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
                let point = mailbench(mode, config, 2, 20);
                assert_eq!(point.total_ops, 40, "{mode:?}/{config:?}");
                assert!(point.ops_per_sec_per_core > 0.0);
            }
        }
    }

    #[test]
    fn mail_pipeline_delivers_exactly_once_in_every_configuration() {
        for mode in [HostMode::Sv6, HostMode::Linuxlike] {
            for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
                let report = mail_pipeline(mode, config, 2, 2, 25);
                assert!(
                    report.exactly_once(),
                    "{mode:?}/{config:?}: {report:?} must deliver exactly once"
                );
                assert_eq!(report.delivered, 50);
            }
        }
    }

    #[test]
    fn statbench_observed_counts_every_hot_loop_call() {
        let registry = MetricsRegistry::new(2);
        let recorder = SyscallRecorder::new(&registry);
        let point = statbench_observed(
            HostMode::Sv6,
            HostStatMode::FstatRefcache,
            2,
            50,
            Some(&recorder),
        );
        assert_eq!(point.total_ops, 100);
        // Two threads split one stat / one link-unlink worker.
        use scr_obs::SyscallKind;
        assert_eq!(recorder.count_of(SyscallKind::Fstat), 50);
        assert_eq!(recorder.count_of(SyscallKind::Link), 50);
        assert_eq!(recorder.count_of(SyscallKind::Unlink), 50);
        assert_eq!(recorder.latency(SyscallKind::Fstat).count, 50);
    }

    #[test]
    fn observed_mail_pipeline_records_ledger_spans_and_retries() {
        use scr_obs::SyscallKind;
        let telemetry = MailTelemetry::new(4);
        let report = mail_pipeline_observed(
            HostMode::Sv6,
            MailConfig::CommutativeApis,
            2,
            2,
            10,
            Some(&telemetry),
        );
        assert!(report.exactly_once(), "{report:?}");
        assert_eq!(telemetry.enqueued.total(), 20);
        assert_eq!(telemetry.delivered.total(), 20);
        // Every qman_step makes exactly one recv: it either delivers or
        // reports an empty queue, so the recv count decomposes exactly.
        assert_eq!(
            telemetry.syscalls.count_of(SyscallKind::Recv),
            telemetry.delivered.total() + telemetry.eagain_retries.total()
        );
        assert_eq!(
            telemetry
                .syscalls
                .errno_count(SyscallKind::Recv, Errno::EAGAIN),
            telemetry.eagain_retries.total()
        );
        // Seven pipeline stages per message, and EAGAIN polls record none.
        assert_eq!(telemetry.trace.len(), 7 * 20);
    }

    #[test]
    fn mailbench_observed_records_per_op_latency() {
        let telemetry = MailTelemetry::new(2);
        let point = mailbench_observed(
            HostMode::Sv6,
            MailConfig::CommutativeApis,
            2,
            20,
            Some(&telemetry),
        );
        assert_eq!(point.total_ops, 40);
        let latency = telemetry.latency.merged();
        assert_eq!(latency.count, 40, "one latency sample per operation");
        assert!(latency.max > 0);
        assert!(latency.p50() <= latency.p999());
        // Exported under the same name the open-loop observatory uses.
        let json = telemetry.registry.snapshot().to_json();
        assert!(json.contains("\"mail.latency_ns\""));
    }

    #[test]
    fn stat_mode_labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> = [
            HostStatMode::FstatRefcache,
            HostStatMode::FstatSharedCount,
            HostStatMode::FstatxNoNlink,
        ]
        .iter()
        .map(|m| m.label())
        .collect();
        assert_eq!(labels.len(), 3);
    }
}
