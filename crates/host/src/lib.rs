//! # scr-host — the real-threads execution backend
//!
//! Everything else in this workspace runs on the *simulated* machine of
//! `scr-mtrace`, where "cores" are labels and conflicts are counted, not
//! paid for. This crate reproduces the paper's hardware-validation leg
//! (§7, Figure 7): the same kernel design patterns, assembled from the
//! same `scr_scalable` structures the simulated kernels use — their real
//! atomics and locks, not only their recorded footprint — executed by
//! actual OS threads, timed with a wall clock.
//!
//! * [`kernel::HostKernel`] is the one kernel body of `scr_kernel::sv6` —
//!   the code the simulated kernels run — over an optional trace sink, run
//!   from real threads. [`kernel::HostMode`] is the body's sharing policy:
//!   [`kernel::HostMode::Sv6`] (512-bucket hash directory, per-core inode
//!   allocation, Refcache-style link counts, per-core socket queues, a
//!   lock-free process table) or [`kernel::HostMode::Linuxlike`], the
//!   collapsing baseline, which adds Linux's shared structures (§6.2): the
//!   directory's `i_mutex`, dentry and `struct file` reference counts,
//!   `file_lock`, `mmap_sem`, one inode counter and shared link counts.
//! * [`harness::LoadHarness`] spawns N OS threads, partitions work per
//!   thread ("core"), and measures real operations per second per core. A
//!   generated test races on real threads through `scr_core::replay` under
//!   `scr_core::Race`, the one replay every substrate shares, on a plain,
//!   instrumented or layered kernel.
//! * [`workloads`] defines each Figure-7 workload once — statbench,
//!   openbench and the §7.3 mail server (driven through the real
//!   `scr_kernel::mail::MailServer`) — as a setup plus one core's
//!   operation, with two drivers: [`workloads::simulate`] on the simulated
//!   machine and [`workloads::on_threads`] on real threads. `mailbench` is
//!   the closed-loop mail capacity harness, `mail_pipeline` the saturating
//!   front end of the pipeline engine below.
//! * [`fig7`] names each Figure 7 panel's columns (policy, workload,
//!   legend label), sweeps them over a core axis with either driver,
//!   renders the tables and checks the flat-versus-collapsing shape; the
//!   figure examples print through it.
//! * [`pipeline`] is the one §7.3 pipeline engine: communicating
//!   enqueue/qman threads over a message schedule, optionally behind
//!   `scr_chaos`'s `FaultyKernel` — seeded transient errnos, delayed
//!   delivery, scheduled qman crashes — with bounded retries, a
//!   dead-letter mailbox, overload shedding and supervised qman restart.
//!   Its exactly-once ledger (and an fd leak check) must close under every
//!   `ChaosPlan`. `mail_pipeline`, `scr_loadgen`'s open loop and the chaos
//!   gate are its front ends.
//! * [`differential`] holds the replayer `scr_core`'s
//!   `differential_check` drives: [`differential::HostReplayer`] races a
//!   `ConcreteTest`'s operations on real threads through the pipeline's
//!   fault layer under a `ChaosPlan` (none by default), checked against
//!   the simulated `Sv6Kernel`.
//! * [`fig6`] replays every generated test with a trace window of a
//!   `scr_mtrace::HostTraceSink` around the racing operations and
//!   aggregates host-side Figure 6 heatmaps (`sv6-host` / `linux-host`),
//!   cross-checking every conflict verdict against the simulated heatmap
//!   (any divergence fails), every schedule's results by linearisation
//!   and every datagram by conservation. The §4 socket and process calls
//!   ([`fig6::ext_calls`]) are checked there like any other call.
//!
//! The host Figure 6 does not sweep call pairs itself: it is a consumer of
//! `scr_core::run_sweep`, the COMMUTER sweep engine `scr_core::run_commuter`
//! also consumes.

pub mod differential;
pub mod fig6;
pub mod fig7;
pub mod harness;
pub mod kernel;
pub mod pipeline;
pub mod workloads;

pub use differential::HostReplayer;
pub use fig6::{
    classify_linearisation, ext_calls, normalize_pipe_label, run_host_fig6, run_test_host,
    run_test_host_with, Fig6Divergence, Fig6Violation, HostFig6Config, HostFig6Results,
    HostTestOutcome, ORDER_DEPENDENT_EXCEPTION,
};
pub use harness::{available_threads, LoadHarness};
pub use kernel::{host_kernel, host_kernel_with, HostKernel, HostMode};
pub use pipeline::{run_pipeline, saturating_schedule, MailPipelineReport, PipelineConfig};
pub use workloads::{
    mail_pipeline, mail_pipeline_observed, mailbench, on_threads, simulate, MailTelemetry,
    StatMode, Workload,
};
