//! The Figure 7 workloads, each defined once, and the two drivers that run
//! them.
//!
//! A [`Workload`] — statbench, openbench or the §7.3 mail server, each in
//! its commutative and its non-commutative variant — is a setup plus what
//! one core does in one operation, over the one kernel body. The drivers
//! differ only in execution model:
//!
//! * [`simulate`] runs the operations round-robin on the simulated machine
//!   and derives ops/sec/core from the traced accesses with
//!   `scr_mtrace::ThroughputModel`: deterministic, and as many cores as
//!   the paper's x-axis asks for.
//! * [`on_threads`] runs them from real OS threads under the
//!   [`LoadHarness`] and measures wall-clock ops/sec/core, optionally
//!   observed through [`MailTelemetry`].
//!
//! The comparison is always the one the paper makes: a configuration whose
//! commutative operations are conflict-free against one that serialises
//! them on a shared lock or cache line. [`mailbench`] is the closed-loop
//! mail capacity harness; [`mail_pipeline`] is the saturating front end of
//! the pipeline engine.

use crate::harness::LoadHarness;
use crate::kernel::{host_kernel, host_kernel_with, HostKernel, HostMode};
use crate::pipeline::{run_pipeline, saturating_schedule, MailPipelineReport, PipelineConfig};
use scr_kernel::api::{Errno, Fd, OpenFlags, Pid, StatMask, SyscallApi};
use scr_kernel::mail::{MailConfig, MailServer, MailStage, MailStageObserver, MailTopology};
use scr_kernel::retry::{Backoff, RetryPolicy};
use scr_kernel::sv6::{Sv6Kernel, Sv6Options};
use scr_mtrace::{
    on_core, CoreId, Lines, ScalingParams, ScalingPoint, SimMachine, ThroughputModel,
};
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
    /// `qman_step` of [`Workload::Mail`], an empty round over a pipeline qman's
    /// shards.
    pub eagain_retries: Counter,
    /// Waits taken on an empty queue — exactly one per counted `EAGAIN`
    /// retry. In [`mailbench`] each is a backoff step of the shared
    /// [`RetryPolicy`] (a yield or a short sleep); in the pipeline engine
    /// each is one park until an enqueue rings the qman (1 ms backstop).
    /// The name predates the park.
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
        let registry = MetricsRegistry::new(cores);
        let syscalls = SyscallRecorder::new(&registry);
        let trace = TraceLog::new(cores);
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
    fn observe_stage(&self, core: CoreId, stage: MailStage, started: Instant, ended: Instant) {
        self.trace
            .record(core, self.stage_names[stage as usize], started, ended);
    }
}

/// Which statbench variant to run; its labels are Figure 7(a)'s legend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatMode {
    /// `fstat` with Refcache link counts ("With Refcache st_nlink").
    FstatRefcache,
    /// `fstat` with a single shared link count ("With shared st_nlink").
    FstatSharedCount,
    /// `fstatx` requesting everything except the link count
    /// ("Without st_nlink", the §4 commutative variant).
    FstatxNoNlink,
}

impl StatMode {
    /// The label used in the Figure 7(a) legend.
    pub fn label(&self) -> &'static str {
        match self {
            StatMode::FstatRefcache => "fstat (Refcache st_nlink)",
            StatMode::FstatSharedCount => "fstat (shared st_nlink)",
            StatMode::FstatxNoNlink => "fstatx (without st_nlink)",
        }
    }
}

/// One Figure 7 workload: its setup plus what one core does in one
/// operation, over the one kernel body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// statbench, Figure 7(a): half the cores `fstat` (or `fstatx`) one
    /// file while the other half `link` it to a fresh name and `unlink`
    /// that name. `fstat` returns `st_nlink`, so it cannot commute with
    /// `link`/`unlink`; `fstatx` without the link count can.
    Stat(StatMode),
    /// openbench, Figure 7(b): every core opens and closes its own file in
    /// one process, with lowest-FD allocation or `O_ANYFD`.
    Open {
        /// Whether the opens carry `O_ANYFD`.
        anyfd: bool,
    },
    /// mailbench, Figure 7(c): every core enqueues a message through the
    /// real `scr_kernel::mail::MailServer` (spool files plus a datagram on
    /// the notification socket), then runs queue-manager steps until one
    /// message is delivered. The [`MailConfig`] selects the whole §7.3 API
    /// family: descriptor allocation, socket order, and `fork` or
    /// `posix_spawn`.
    Mail(MailConfig),
}

impl Workload {
    /// The options the workload's kernel is built with: statbench's
    /// shared-link-count ablation, the default otherwise.
    fn options(self) -> Sv6Options {
        Sv6Options {
            shared_link_counts: self == Workload::Stat(StatMode::FstatSharedCount),
        }
    }

    /// Runs the workload's setup for `cores` cores on `kernel` and returns
    /// it ready for [`Prepared::op`].
    fn setup<K: SyscallApi + ?Sized>(self, kernel: &K, cores: usize) -> Prepared<'_, K> {
        let pid = kernel.new_process();
        let state = match self {
            Workload::Stat(mode) => State::Stat {
                mode,
                fd: kernel
                    .open(0, pid, "statfile", OpenFlags::create())
                    .expect("create statfile"),
                stat_cores: (cores / 2).max(1),
            },
            Workload::Open { anyfd } => {
                // Pre-create the per-core files so the measured operations
                // exercise only descriptor allocation.
                for core in 0..cores {
                    let fd = kernel
                        .open(core, pid, &format!("openbench-{core}"), OpenFlags::create())
                        .expect("create per-core file");
                    kernel.close(core, pid, fd).expect("close");
                }
                let flags = OpenFlags::plain();
                State::Open {
                    flags: if anyfd { flags.with_anyfd() } else { flags },
                }
            }
            Workload::Mail(config) => {
                let qman = kernel.new_process();
                let server = MailServer::new(kernel, config, cores).expect("mail server");
                State::Mail { server, qman }
            }
        };
        Prepared { kernel, pid, state }
    }
}

/// A [`Workload`] set up on a kernel: what [`Prepared::op`] runs against.
struct Prepared<'k, K: SyscallApi + ?Sized> {
    kernel: &'k K,
    /// The process every operation runs in (the mail client).
    pid: Pid,
    state: State<'k, K>,
}

enum State<'k, K: SyscallApi + ?Sized> {
    Stat {
        mode: StatMode,
        fd: Fd,
        stat_cores: usize,
    },
    Open {
        flags: OpenFlags,
    },
    Mail {
        server: MailServer<'k, K>,
        qman: Pid,
    },
}

impl<K: SyscallApi + ?Sized> Prepared<'_, K> {
    /// What `core` does in its operation number `op`. With `telemetry` the
    /// mail operation counts its enqueue, delivery and empty polls, records
    /// its latency and traces its stages.
    fn op(&self, core: CoreId, op: u64, telemetry: Option<&MailTelemetry>) {
        let (kernel, pid) = (self.kernel, self.pid);
        match &self.state {
            State::Stat {
                mode,
                fd,
                stat_cores,
            } => {
                if core < *stat_cores {
                    if *mode == StatMode::FstatxNoNlink {
                        kernel
                            .fstatx(core, pid, *fd, StatMask::all_but_nlink())
                            .expect("fstatx");
                    } else {
                        kernel.fstat(core, pid, *fd).expect("fstat");
                    }
                } else {
                    let scratch = format!("statlink-{core}-{op}");
                    kernel.link(core, pid, "statfile", &scratch).expect("link");
                    kernel.unlink(core, pid, &scratch).expect("unlink");
                }
            }
            State::Open { flags } => {
                let fd = kernel
                    .open(core, pid, &format!("openbench-{core}"), *flags)
                    .expect("open");
                kernel.close(core, pid, fd).expect("close");
            }
            State::Mail { server, qman } => {
                let started = telemetry.map(|_| Instant::now());
                let body = format!("m-{core}-{op}");
                server
                    .enqueue(
                        core,
                        pid,
                        &format!("user{core}"),
                        body.as_bytes(),
                        &telemetry,
                    )
                    .expect("enqueue");
                if let Some(t) = telemetry {
                    t.enqueued.inc(core);
                }
                // Deliver one message, not necessarily this core's: another
                // core's qman step may have taken ours first. Globally the
                // counts balance, so this loop cannot starve; on the
                // simulated machine the first step always delivers.
                let mut backoff = Backoff::new(RetryPolicy::spin(), core as u64);
                loop {
                    match server.qman_step(core, *qman, &telemetry) {
                        Ok(_) => break,
                        // Back off rather than spin: a few yields first (under
                        // oversubscription the thread holding progress may
                        // need this core), then short sleeps up to the ceiling.
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
                if let (Some(t), Some(started)) = (telemetry, started) {
                    t.delivered.inc(core);
                    let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    t.latency.record(core, nanos);
                }
            }
        }
    }
}

/// Runs `workload` on the simulated machine: `rounds` rounds, each core's
/// operation in turn under [`on_core`], on a kernel of `mode` with at
/// least two cores. Derives ops/sec/core from the traced accesses with
/// [`ThroughputModel`].
pub fn simulate(workload: Workload, mode: HostMode, cores: usize, rounds: u64) -> ScalingPoint {
    let machine = SimMachine::new();
    let kernel = Sv6Kernel::on_lines(Some(&machine), cores.max(2), workload.options(), mode);
    let prepared = workload.setup(&kernel, cores);
    machine.begin_window();
    for op in 0..rounds {
        for core in 0..cores {
            on_core(core, || prepared.op(core, op, None));
        }
    }
    let accesses = machine.end_window().accesses;
    ThroughputModel::new(ScalingParams::default()).evaluate(&accesses, cores, rounds)
}

/// Operations between a thread's epoch passes. Only the thread driver runs
/// the pass: the simulated figures are pinned without it.
const EPOCH_OPS: u64 = 64;

/// Runs `workload` on `threads` real threads under the [`LoadHarness`],
/// `ops_per_thread` operations each, on a host kernel of `mode`. With
/// `telemetry` the calls go through an [`ObservedKernel`] feeding its
/// syscall recorder; the hot loop is the same monomorphised code either
/// way. Every thread runs the per-core epoch pass every 64 operations, as
/// a timer tick would, so unlinked inodes and their page caches are freed
/// during long runs.
pub fn on_threads(
    workload: Workload,
    mode: HostMode,
    threads: usize,
    ops_per_thread: u64,
    telemetry: Option<&MailTelemetry>,
) -> ScalingPoint {
    let kernel = host_kernel_with(threads, mode, workload.options(), None);
    match telemetry {
        Some(t) => {
            let observed = ObservedKernel::new(&kernel, t.syscalls.clone());
            harness(
                &kernel,
                &observed,
                workload,
                threads,
                ops_per_thread,
                telemetry,
            )
        }
        None => harness(&kernel, &kernel, workload, threads, ops_per_thread, None),
    }
}

/// [`on_threads`] over the syscall surface `api` (the kernel, or a layer
/// over it).
fn harness<K: SyscallApi + Sync>(
    kernel: &HostKernel,
    api: &K,
    workload: Workload,
    threads: usize,
    ops_per_thread: u64,
    telemetry: Option<&MailTelemetry>,
) -> ScalingPoint {
    let prepared = workload.setup(api, threads);
    LoadHarness::new(ops_per_thread).run(threads, |core, op| {
        prepared.op(core, op, telemetry);
        if op % EPOCH_OPS == EPOCH_OPS - 1 {
            kernel.reclaim_core(core);
        }
    })
}

/// The closed-loop mail capacity harness: [`Workload::Mail`] on real
/// threads, unobserved.
pub fn mailbench(
    mode: HostMode,
    config: MailConfig,
    threads: usize,
    ops_per_thread: u64,
) -> ScalingPoint {
    on_threads(Workload::Mail(config), mode, threads, ops_per_thread, None)
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
    let kernel = host_kernel(cfg.cores(), mode);
    run_pipeline(&kernel, &cfg, &schedule, telemetry, |_, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [Workload; 7] = [
        Workload::Stat(StatMode::FstatRefcache),
        Workload::Stat(StatMode::FstatSharedCount),
        Workload::Stat(StatMode::FstatxNoNlink),
        Workload::Open { anyfd: false },
        Workload::Open { anyfd: true },
        Workload::Mail(MailConfig::CommutativeApis),
        Workload::Mail(MailConfig::RegularApis),
    ];

    #[test]
    fn every_workload_runs_on_both_drivers_under_both_policies() {
        for workload in WORKLOADS {
            for mode in [HostMode::Sv6, HostMode::Linuxlike] {
                let point = on_threads(workload, mode, 2, 20, None);
                assert_eq!(point.total_ops, 40, "{workload:?}/{mode:?}");
                assert!(point.ops_per_sec_per_core > 0.0);
                let point = simulate(workload, mode, 2, 5);
                assert_eq!(point.total_ops, 10, "{workload:?}/{mode:?}");
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
    fn observed_statbench_counts_every_hot_loop_call() {
        let telemetry = MailTelemetry::new(2);
        let workload = Workload::Stat(StatMode::FstatRefcache);
        let point = on_threads(workload, HostMode::Sv6, 2, 50, Some(&telemetry));
        let recorder = &telemetry.syscalls;
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
    fn observed_mailbench_records_per_op_latency() {
        let telemetry = MailTelemetry::new(2);
        let workload = Workload::Mail(MailConfig::CommutativeApis);
        let point = on_threads(workload, HostMode::Sv6, 2, 20, Some(&telemetry));
        assert_eq!(point.total_ops, 40);
        let latency = telemetry.latency.merged();
        assert_eq!(latency.count, 40, "one latency sample per operation");
        assert!(latency.max > 0);
        assert!(latency.p50() <= latency.p999());
        // Exported under the same name the open-loop observatory uses.
        let json = telemetry.registry.snapshot().to_json();
        assert!(json.contains("\"mail.latency_ns\""));
    }
}
