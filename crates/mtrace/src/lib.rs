//! # scr-mtrace — a simulated cache-coherent shared-memory machine
//!
//! The paper's MTRACE (§5.3) runs the operating system under a modified qemu
//! and logs every memory access each core makes while a generated test case
//! executes; a post-processing step reports cache lines that were accessed
//! by more than one core with at least one write — the access conflicts that
//! limit scalability on MESI-like machines.
//!
//! This crate is the equivalent substrate for a library-level reproduction:
//!
//! * [`machine::SimMachine`] is a single-process simulated multicore. Kernel
//!   state is stored in [`machine::TracedCell`]s, each occupying its own
//!   (labelled) cache line unless explicitly co-located.
//! * [`lines`] is the substrate every scalable structure records its
//!   footprint through: lines allocated in named blocks, and the
//!   read / write / read-modify-write / lock-word accesses made on them.
//!   [`machine::SimMachine`] implements it, and so does the real-threads
//!   sink of `scr-hostmtrace`, so each structure is written once.
//! * [`trace`] records per-core reads and writes while tracing is enabled
//!   and reports **shared lines** — lines touched by two or more cores where
//!   at least one access is a write (the conflict definition of §3.3 mapped
//!   onto cache lines).
//! * [`mesi`] replays an access log through a MESI coherence model and
//!   counts the cross-core transfers each access causes.
//! * [`scaling`] turns coherence traffic into the ops/sec/core curves used
//!   by the Figure 7 reproduction: conflict-free workloads stay flat as
//!   cores are added, while a single contended line serialises ownership
//!   transfers and collapses per-core throughput.
//!
//! The machine is deliberately single-threaded: "cores" are a labelling of
//! which logical CPU performed an access, which is all that conflict
//! detection and the coherence model need.

pub mod lines;
pub mod machine;
pub mod mesi;
pub mod scaling;
pub mod trace;

pub use lines::{Block, LineNames, LineTable, Lines};
pub use machine::{CoreId, LineId, SimMachine, TracedCell};
pub use mesi::{CoherenceStats, MesiSimulator};
pub use scaling::{ScalingParams, ScalingPoint, ThroughputModel};
pub use trace::{Access, AccessKind, ConflictReport, SharedLine};
