//! # scr-hostmtrace — a real-threads sharing monitor
//!
//! `scr-mtrace` observes sharing on a *simulated* machine: every access a
//! structure records on its lines is appended to one global log.
//! That design is inherently single-threaded. This crate is the equivalent
//! monitor for *real* OS threads, so the Figure 6 conflict heatmap — the
//! paper's central empirical artifact — can be reproduced on hardware, not
//! just under simulation.
//!
//! The pieces:
//!
//! * [`HostTraceSink`] owns per-thread, lock-free, append-only
//!   [`AccessLog`]s and an epoch-windowed tracing gate. The off path (gate
//!   closed) costs a single relaxed atomic load per recorded access; the on
//!   path reserves a log slot with one `fetch_add` and one store, touching
//!   only the recording thread's cache-padded log.
//! * `Arc<HostTraceSink>` is a [`scr_mtrace::Lines`] substrate, the same
//!   one the simulated machine implements: lines are identified by the
//!   shared [`LineId`] vocabulary, allocated in named blocks through the
//!   one `scr_mtrace::LineTable`, and labelled only when a report asks
//!   (playing the role of MTRACE's DWARF-derived type names). The
//!   structures of `scr-scalable` keep their data in real atomics and locks
//!   and record their line footprint through that trait, so a host kernel
//!   built from them records what the simulated kernel records.
//! * [`HostConflictReport`] applies the §3.3 conflict definition (a line
//!   touched by ≥ 2 threads with ≥ 1 write) to a traced window, reusing
//!   `scr_mtrace::trace::analyze` — the simulated and host monitors share
//!   one report vocabulary.
//!
//! Threads are attributed to "cores" through a thread-local register set
//! with [`on_core`], exactly as the simulated machine's current-core
//! register — which is all conflict detection needs.

mod sink;

pub use sink::{
    current_core, on_core, AccessLog, HostConflictReport, HostTraceSink, WindowHeat,
    DEFAULT_LOG_CAPACITY,
};

pub use scr_mtrace::trace::{Access, AccessKind, ConflictReport, SharedLine};
pub use scr_mtrace::LineId;
