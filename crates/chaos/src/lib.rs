//! # scr-chaos — deterministic fault injection at the syscall boundary
//!
//! The repo's robustness observatory. Every other layer assumes a perfect
//! substrate; this crate manufactures the imperfect one, deterministically:
//!
//! * [`plan`] — [`ChaosPlan`]: seeded per-call errno-injection
//!   probabilities ([`FaultSpec`]), bounded delivery delay ([`DelaySpec`]),
//!   and scheduled qman deaths ([`CrashEvent`]). Decisions are pure
//!   functions of the seed (open-loop style, like `scr-loadgen`'s arrival
//!   schedules), so a failed chaos round reproduces from its recorded
//!   seed alone.
//! * [`kernel`] — two `scr_kernel::api::Layer`s, stacked like `scr-obs`'s
//!   `ObservedKernel`: [`FaultyKernel`] injects the plan, and
//!   [`ReliableKernel`] re-issues exactly the failures injection
//!   manufactured, under a `RetryPolicy` budget. [`FaultKind::for_call`]
//!   is the one list of calls both act on. [`ChaosTelemetry`] counts
//!   faults, retries, backoff sleep, and recovery time.
//!
//! The crate sits between `scr-kernel` and the consumers (`scr-host`'s
//! chaos pipeline and campaign, `scr-loadgen`'s `--chaos` leg) and
//! deliberately depends on neither consumer.

pub mod kernel;
pub mod plan;

pub use kernel::{ChaosTelemetry, FaultyKernel, ReliableKernel};
pub use plan::{ChaosPlan, CrashEvent, CrashPhase, DelaySpec, FaultKind, FaultSpec};
