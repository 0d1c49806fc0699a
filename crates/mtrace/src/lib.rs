//! # scr-mtrace — MTRACE for a simulated machine and for real threads
//!
//! The paper's MTRACE (§5.3) runs the operating system under a modified qemu
//! and logs every memory access each core makes while a generated test case
//! executes; a post-processing step reports cache lines that were accessed
//! by more than one core with at least one write — the access conflicts that
//! limit scalability on MESI-like machines.
//!
//! This crate is that monitor for a library-level reproduction, on two
//! substrates that share one vocabulary:
//!
//! * [`lines`] is the substrate every scalable structure records its
//!   footprint through: lines allocated in named blocks, the read / write /
//!   read-modify-write / lock-word accesses made on them, and the three
//!   calls that trace them — `begin_window`, `end_window` and `untraced`.
//! * [`machine::SimMachine`] is a single-process simulated multicore: one
//!   global access log and a table of labelled cache lines.
//! * [`sink::HostTraceSink`] is the same monitor for real OS threads:
//!   per-core lock-free logs behind an epoch-windowed gate.
//! * [`trace`] holds the thread-local core register both substrates
//!   attribute accesses to ([`on_core`], [`current_core`]), the
//!   [`TraceWindow`] both hand over when a window closes, and the analysis
//!   that reports **shared lines** — lines touched by two or more cores
//!   where at least one access is a write (the conflict definition of §3.3
//!   mapped onto cache lines).
//! * [`mesi`] replays an access log through a MESI coherence model and
//!   counts the cross-core transfers each access causes.
//! * [`scaling`] turns coherence traffic into the ops/sec/core curves used
//!   by the Figure 7 reproduction: conflict-free workloads stay flat as
//!   cores are added, while a single contended line serialises ownership
//!   transfers and collapses per-core throughput.
//!
//! On the simulated machine "cores" are a labelling of which logical CPU
//! performed an access, which is all that conflict detection and the
//! coherence model need; on real threads each core is a thread.

pub mod lines;
pub mod machine;
pub mod mesi;
pub mod scaling;
pub mod sink;
pub mod trace;

pub use lines::{Block, LineNames, LineTable, Lines};
pub use machine::{CoreId, LineId, SimMachine};
pub use mesi::{CoherenceStats, MesiSimulator};
pub use scaling::{ScalingParams, ScalingPoint, ThroughputModel};
pub use sink::{AccessLog, HostTraceSink, DEFAULT_LOG_CAPACITY};
pub use trace::{
    current_core, on_core, Access, AccessKind, ConflictReport, SharedLine, TraceWindow,
};
