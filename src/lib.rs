//! Umbrella crate for the scalable commutativity rule reproduction.
//!
//! This crate re-exports the workspace's public crates under one name so the
//! examples and integration tests can use a single dependency. See the
//! individual crates for the substance:
//!
//! * [`spec`] — the §3 formalism (actions, histories, SIM commutativity, the
//!   constructive proof machines).
//! * [`symbolic`] — the symbolic execution engine and model finder.
//! * [`model`] — the symbolic POSIX model (24 system calls: the paper's 18
//!   from §6.1 and the six §4 socket and process calls).
//! * [`mtrace`] — the simulated cache-coherent machine and scalability model.
//! * [`scalable`] — Refcache, per-core allocators, radix arrays and other
//!   scalable building blocks.
//! * [`kernel`] — the one sv6-style kernel body, built under the sv6 or the
//!   Linux-like sharing `Policy`, and the mail server application.
//! * [`commuter`] — ANALYZER, TESTGEN and the MTRACE driver.
//! * [`host`] — the real-threads execution backend: a thread-safe
//!   `HostKernel`, the wall-clock load harness, the differential runner
//!   that cross-checks generated tests between simulation and real threads,
//!   and the Figure 6 and Figure 7 sweeps over either substrate.
//! * [`hostmtrace`] — the real-threads sharing monitor: per-thread access
//!   logs, a line substrate on which the same structures record the same
//!   footprint as on the simulated machine, and the conflict reports behind
//!   the host-side Figure 6 heatmap.
//! * [`obs`] — the commutativity-aware telemetry layer: per-core metrics,
//!   pipeline trace spans, conflict-heat reports and stamped JSON
//!   snapshots.
//! * [`loadgen`] — the open-loop mail load observatory: arrival-rate
//!   schedules, zipfian mailbox popularity, coordinated-omission-safe
//!   latency, and the `BENCH_mail.json` sweep.
//! * [`chaos`] — deterministic fault injection at the syscall boundary:
//!   seeded errno storms, bounded delivery delay, qman crash schedules,
//!   and the retry layer that rides out exactly the injected faults.

pub use scr_chaos as chaos;
pub use scr_core as commuter;
pub use scr_host as host;
pub use scr_hostmtrace as hostmtrace;
pub use scr_kernel as kernel;
pub use scr_loadgen as loadgen;
pub use scr_model as model;
pub use scr_mtrace as mtrace;
pub use scr_obs as obs;
pub use scr_scalable as scalable;
pub use scr_spec as spec;
pub use scr_symbolic as symbolic;
