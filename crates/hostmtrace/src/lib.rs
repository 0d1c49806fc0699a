//! # scr-hostmtrace — a real-threads sharing monitor
//!
//! `scr-mtrace` observes sharing on a *simulated* machine: kernel state
//! lives in `TracedCell`s and every access is appended to one global log.
//! That design is inherently single-threaded. This crate is the equivalent
//! monitor for *real* OS threads, so the Figure 6 conflict heatmap — the
//! paper's central empirical artifact — can be reproduced on hardware, not
//! just under simulation.
//!
//! The pieces:
//!
//! * [`HostTraceSink`] owns per-thread, lock-free, append-only
//!   [`AccessLog`]s and an epoch-windowed tracing gate. The off path (gate
//!   closed) costs a single relaxed atomic load per probe hit; the on path
//!   reserves a log slot with one `fetch_add` and one store, touching only
//!   the recording thread's cache-padded log.
//! * [`Probe`] is a handle to one *logical cache line*, identified by the
//!   same [`LineId`] vocabulary the simulated machine uses and labelled at
//!   allocation (playing the role of MTRACE's DWARF-derived type names).
//!   Instrumented structures call [`Probe::read`]/[`Probe::write`]/
//!   [`Probe::rmw`] next to their real atomic operations, mirroring the
//!   footprint their `TracedCell` twins record on the simulator.
//! * [`ProbeBlock`] is a structure's per-index lines (directory stripes,
//!   descriptor slots, per-core shards) as one block of consecutive ids.
//!   The sink keeps one naming function per block and formats a label only
//!   when a report asks for it, so instrumenting a structure costs one
//!   allocation whatever its line count; [`ProbeBlock::at`] lends a
//!   [`ProbeRef`] that records like a [`Probe`].
//! * A lock word's [`ProbeRef::acquire`]/[`ProbeRef::release`],
//!   [`SeqProbe`] and [`ProbeRadix`] mirror the footprints of
//!   `scr_scalable`'s `TracedLock`, `SeqLock` and `RadixArray`, so a host
//!   structure can reproduce its simulated twin's access pattern
//!   line-for-line.
//! * [`HostConflictReport`] applies the §3.3 conflict definition (a line
//!   touched by ≥ 2 threads with ≥ 1 write) to a traced window, reusing
//!   `scr_mtrace::trace::analyze` — the simulated and host monitors share
//!   one report vocabulary.
//!
//! Threads are attributed to "cores" through a thread-local register set
//! with [`on_core`], exactly as the simulated machine's current-core
//! register — which is all conflict detection needs.

mod probe;
mod radix;
mod sink;

pub use probe::{Probe, ProbeBlock, ProbeRef, SeqProbe};
pub use radix::ProbeRadix;
pub use sink::{
    current_core, on_core, AccessLog, HostConflictReport, HostTraceSink, WindowHeat,
    DEFAULT_LOG_CAPACITY,
};

pub use scr_mtrace::trace::{Access, AccessKind, ConflictReport, SharedLine};
pub use scr_mtrace::LineId;
