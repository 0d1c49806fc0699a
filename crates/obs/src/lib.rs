//! `scr-obs`: a commutativity-aware telemetry layer.
//!
//! Observing a system built around the scalable commutativity rule must not
//! itself violate the rule: a shared metrics counter would be exactly the
//! contended cache line the instrumented code was designed to avoid. Every
//! hot-path structure in this crate is therefore per-core sharded and
//! cache-padded — metric updates, latency samples and trace spans from core
//! *c* touch only core *c*'s own lines, and merging happens on the read
//! side, outside the measured window.
//!
//! The pieces:
//!
//! * [`metrics`] — [`MetricsRegistry`]: named per-core counters and
//!   log-bucketed latency histograms (p50/p90/p99 mergeable across cores),
//!   exported as a JSON snapshot ([`MetricsSnapshot`]) with a shared
//!   `meta`-stamped schema.
//! * [`syscall`] — [`SyscallRecorder`] and [`ObservedKernel`]: per-syscall
//!   call counts, errno counts and wall latency over any [`SyscallApi`]
//!   kernel. `ObservedKernel` is a `scr_kernel::api::Layer`, so direct
//!   calls and reified `perform` dispatch through it are recorded alike.
//! * [`trace`] — [`TraceLog`]: per-core span buffers for the mail pipeline
//!   stages, exported in Chrome trace-event JSON (loads into Perfetto).
//! * [`heat`] — [`HeatMap`]: folds `scr_mtrace` trace windows into
//!   per-line access/conflict totals and renders the top-N hottest-lines
//!   table shown beside the Figure 6 heatmaps.
//! * [`meta`] — [`RunMeta`]: git revision, mode, core count and config
//!   stamped into every artifact.
//! * [`json`], [`cli`] — the dependency-free JSON builder and the shared
//!   `--metrics-out` / `--trace-out` flag helpers.
//!
//! There is no runtime off switch: a run that should not be observed holds
//! no registry, and the callers that take telemetry take it as an `Option`
//! that such a run leaves `None`.
//!
//! [`SyscallApi`]: scr_kernel::api::SyscallApi

pub mod cli;
pub mod heat;
pub mod json;
pub mod meta;
pub mod metrics;
pub mod syscall;
pub mod trace;

pub use cli::{arg_value, metrics_out, trace_out};
pub use heat::{HeatEntry, HeatMap};
pub use json::Json;
pub use meta::{git_rev, RunMeta};
pub use metrics::{
    Counter, CounterSnapshot, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    DEFAULT_QUANTILES, HIST_BUCKETS,
};
pub use syscall::{ObservedKernel, SyscallKind, SyscallRecorder, ALL_ERRNOS};
pub use trace::{SpanName, TraceLog};
