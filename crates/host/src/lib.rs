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
//! * [`kernel::HostKernel`] is a thread-safe implementation of the whole
//!   `scr_kernel::api::SyscallApi` surface — the 18 modelled `SysOp` calls
//!   plus the §4 extensions (datagram sockets in both orderings,
//!   `fork`/`posix_spawn`/`wait`). It comes in two configurations:
//!   [`kernel::HostMode::Sv6`] uses the 512-bucket hash directory, per-core
//!   inode allocation, Refcache-style link counts, per-core socket queues
//!   and a lock-free process table; [`kernel::HostMode::Linuxlike`] runs
//!   the same code under one global kernel lock, the collapsing baseline.
//! * [`harness::LoadHarness`] spawns N OS threads, partitions work per
//!   thread ("core"), and measures real operations per second per core.
//!   [`harness::race`] is the one replay protocol of every real-threads
//!   check: a test's setup in order, then its operations racing on cores
//!   `0..N` behind one barrier, on a plain, instrumented or layered kernel.
//! * [`workloads`] ports the Figure-7 workloads — statbench, openbench and
//!   the §7.3 mail server (driven through the real
//!   `scr_kernel::mail::MailServer`) — to run against
//!   [`kernel::HostKernel`]: `mailbench` is the closed-loop capacity
//!   harness, `mail_pipeline` the saturating front end of the pipeline
//!   engine below.
//! * [`pipeline`] is the one §7.3 pipeline engine: communicating
//!   enqueue/qman threads over a message schedule, optionally behind
//!   `scr_chaos`'s `FaultyKernel` — seeded transient errnos, delayed
//!   delivery, scheduled qman crashes — with bounded retries, a
//!   dead-letter mailbox, overload shedding and supervised qman restart.
//!   Its exactly-once ledger (and an fd leak check) must close under every
//!   `ChaosPlan`. `mail_pipeline`, `scr_loadgen`'s open loop and the chaos
//!   gate are its front ends.
//! * [`differential`] replays TESTGEN's `ConcreteTest`s on real threads and
//!   cross-checks every return value against the simulated `Sv6Kernel`,
//!   closing the loop between the symbolic pipeline and real execution;
//!   the §4 extension corpus rides along with a linearization +
//!   message-conservation cross-check, and
//!   [`differential::differential_campaign`] over a
//!   [`differential::ChaosReplayer`] replays the corpus through the
//!   pipeline's fault layer.
//! * [`fig6`] replays the same tests with a `scr-hostmtrace` tracing window
//!   around the concurrent pair and aggregates host-side Figure 6 heatmaps
//!   (`sv6-host` / `linux-host`), cross-checking every conflict verdict
//!   against the simulated heatmap (lowest-FD contention excepted, and
//!   recorded explicitly).
//!
//! The host Figure 6 and the differential campaign do not sweep call pairs
//! themselves: both are consumers of `scr_core::run_sweep`, the COMMUTER
//! sweep engine `scr_core::run_commuter` also consumes.

pub mod differential;
pub mod fig6;
pub mod harness;
pub mod kernel;
pub mod pipeline;
mod proc_table;
pub mod workloads;

pub use differential::{
    differential_campaign, ext_campaign, CampaignConfig, ChaosReplayer, DifferentialReport,
    ExtCampaignReport, HostReplayer, PairOutcome,
};
pub use fig6::{
    budget_corpus, build_ext_corpus, classify_divergence, created_sockets, ext_calls, ext_corpus,
    ext_failures, ext_pair_calls, ext_signature, generated_ext_corpus, normalize_pipe_label,
    replay_traced, run_ext_corpus, run_ext_fig6, run_ext_host, run_ext_sim, run_host_fig6,
    run_test_host, run_test_host_with, sent_messages, socket_ids, ExtCorpus, ExtOutcome,
    Fig6Divergence, HostExtRun, HostFig6Config, HostFig6Results, HostTestOutcome, SimExtRun,
    EXT_CORPUS_BUDGET, EXT_MAX_ASSIGNMENTS_PER_CASE, LOWEST_FD_EXCEPTION,
};
pub use harness::{available_threads, LoadHarness};
pub use kernel::{HostKernel, HostMode, HostOptions};
pub use pipeline::{run_pipeline, saturating_schedule, MailPipelineReport, PipelineConfig};
pub use workloads::{
    mail_pipeline, mail_pipeline_observed, mailbench, mailbench_observed, openbench, statbench,
    statbench_observed, HostStatMode, MailTelemetry,
};
