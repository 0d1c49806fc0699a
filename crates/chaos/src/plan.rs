//! The chaos plan: every fault a run will inject, decided up front.
//!
//! The same open-loop discipline `scr-loadgen` uses for arrival schedules
//! applies to faults: nothing is drawn from shared mutable RNG state at
//! run time. A fault decision is a pure function of
//! `(plan.seed, core, per-core faultable-call index, call kind)` through a
//! SplitMix64 finalizer, so a run replays its exact fault plan from the
//! seed regardless of thread interleaving — the *k*-th send on core 2
//! fails identically in every run of the same plan. Crash schedules are
//! likewise fixed data (`CrashEvent`s) chosen before any thread starts.

use scr_kernel::api::{Errno, SyscallKind};
use scr_kernel::retry::{mix64, GOLDEN};

/// A second odd constant to separate decision streams.
const STREAM2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The syscalls chaos can fault. `Spawn` covers both `fork` and
/// `posix_spawn` (one knob for "child creation failed").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `send` on a notification socket.
    Send,
    /// `recv` on a notification socket.
    Recv,
    /// `open` (spool and mailbox files).
    Open,
    /// `fork` / `posix_spawn` (delivery helpers).
    Spawn,
}

impl FaultKind {
    /// The knob that faults calls of `kind`, or `None` for a call chaos
    /// never strikes. The fault layer injects and the retry layer retries
    /// exactly the calls this maps, so a genuine error from any other call
    /// is never re-issued.
    pub fn for_call(kind: SyscallKind) -> Option<FaultKind> {
        match kind {
            SyscallKind::Send => Some(FaultKind::Send),
            SyscallKind::Recv => Some(FaultKind::Recv),
            SyscallKind::Open => Some(FaultKind::Open),
            SyscallKind::Fork | SyscallKind::PosixSpawn => Some(FaultKind::Spawn),
            _ => None,
        }
    }

    /// Stable tag folded into the decision hash.
    fn tag(self) -> u64 {
        match self {
            FaultKind::Send => 1,
            FaultKind::Recv => 2,
            FaultKind::Open => 3,
            FaultKind::Spawn => 4,
        }
    }

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Send => "send",
            FaultKind::Recv => "recv",
            FaultKind::Open => "open",
            FaultKind::Spawn => "spawn",
        }
    }
}

/// Per-call transient-errno injection probabilities, in parts per million.
///
/// Probabilities are clamped to [`FaultSpec::MAX_PPM`] at plan
/// construction: with p ≤ 0.95 per attempt, a bounded retry budget
/// terminates with overwhelming probability (48 attempts at p = 0.95
/// still fail end-to-end only ~8.5% of the time, and those messages
/// dead-letter rather than wedge — `lost` stays zero either way).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Injection probability for `send`.
    pub send_ppm: u32,
    /// Injection probability for `recv` (on top of any delivery delay).
    pub recv_ppm: u32,
    /// Injection probability for `open`.
    pub open_ppm: u32,
    /// Injection probability for `fork`/`posix_spawn`.
    pub spawn_ppm: u32,
}

impl FaultSpec {
    /// Probability ceiling (0.95) that keeps bounded retries terminating.
    pub const MAX_PPM: u32 = 950_000;

    /// The same probability on every faultable call.
    pub fn uniform(ppm: u32) -> FaultSpec {
        FaultSpec {
            send_ppm: ppm,
            recv_ppm: ppm,
            open_ppm: ppm,
            spawn_ppm: ppm,
        }
    }

    fn clamped(self) -> FaultSpec {
        FaultSpec {
            send_ppm: self.send_ppm.min(Self::MAX_PPM),
            recv_ppm: self.recv_ppm.min(Self::MAX_PPM),
            open_ppm: self.open_ppm.min(Self::MAX_PPM),
            spawn_ppm: self.spawn_ppm.min(Self::MAX_PPM),
        }
    }

    fn ppm(&self, kind: FaultKind) -> u32 {
        match kind {
            FaultKind::Send => self.send_ppm,
            FaultKind::Recv => self.recv_ppm,
            FaultKind::Open => self.open_ppm,
            FaultKind::Spawn => self.spawn_ppm,
        }
    }

    fn is_zero(&self) -> bool {
        self.send_ppm == 0 && self.recv_ppm == 0 && self.open_ppm == 0 && self.spawn_ppm == 0
    }
}

/// Bounded delivery delay: with probability `ppm`, a `recv` that would
/// have been attempted instead begins a hold of `polls` consecutive
/// injected EAGAINs on that core. Holding the *attempt* rather than a
/// received message keeps injection side-effect free (nothing is dequeued
/// and parked), while being observationally identical to delaying
/// delivery by `polls` polls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DelaySpec {
    /// Probability per million that a `recv` starts a hold.
    pub ppm: u32,
    /// Length of the hold in polls.
    pub polls: u32,
}

impl DelaySpec {
    fn clamped(self) -> DelaySpec {
        DelaySpec {
            ppm: self.ppm.min(FaultSpec::MAX_PPM),
            polls: self.polls,
        }
    }
}

/// Where in the qman step a scheduled crash fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPhase {
    /// After the notification was received but before the helper spawned:
    /// the envelope is in flight and must be re-driven.
    AfterRecv,
    /// After the delivery helper was spawned but before it delivered: the
    /// supervisor must reap the orphan and re-drive the envelope.
    AfterSpawn,
    /// After the message was delivered but before reap/cleanup: the
    /// supervisor must finish cleanup *without* re-delivering.
    AfterDeliver,
}

/// One scheduled qman death: incarnation `generation` of qman `qman` dies
/// at phase `phase` of its `after_steps`-th delivery step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// Which qman slot dies.
    pub qman: usize,
    /// Which incarnation (0 = the original thread, 1 = first restart...).
    pub generation: u32,
    /// How many envelopes this incarnation processes before dying.
    pub after_steps: u64,
    /// Where in the step it dies.
    pub phase: CrashPhase,
}

/// A complete, replayable fault plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Transient-errno injection probabilities.
    pub faults: FaultSpec,
    /// Bounded delivery delay on `recv`.
    pub delay: DelaySpec,
    /// Scheduled qman deaths.
    pub crashes: Vec<CrashEvent>,
}

impl ChaosPlan {
    /// The disabled plan: `FaultyKernel` under it is pure delegation.
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Canned plan: an errno storm — every faultable call fails with a
    /// transient errno 20% of the time, no delays, no crashes.
    pub fn errno_storm(seed: u64) -> ChaosPlan {
        ChaosPlan::new(
            seed,
            FaultSpec::uniform(200_000),
            DelaySpec::default(),
            vec![],
        )
    }

    /// Canned plan: delayed delivery — 5% of `recv` attempts start an
    /// 8-poll hold, plus a light 2% errno drizzle on `send`.
    pub fn delayed_delivery(seed: u64) -> ChaosPlan {
        ChaosPlan::new(
            seed,
            FaultSpec {
                send_ppm: 20_000,
                ..FaultSpec::default()
            },
            DelaySpec {
                ppm: 50_000,
                polls: 8,
            },
            vec![],
        )
    }

    /// Canned plan: qman 0 dies mid-run (once per phase across its first
    /// three incarnations) under a light errno drizzle, exercising
    /// restart, orphan reaping, and re-drive.
    pub fn qman_crash(seed: u64) -> ChaosPlan {
        ChaosPlan::new(
            seed,
            FaultSpec::uniform(30_000),
            DelaySpec::default(),
            vec![
                CrashEvent {
                    qman: 0,
                    generation: 0,
                    after_steps: 2,
                    phase: CrashPhase::AfterRecv,
                },
                CrashEvent {
                    qman: 0,
                    generation: 1,
                    after_steps: 2,
                    phase: CrashPhase::AfterSpawn,
                },
                CrashEvent {
                    qman: 0,
                    generation: 2,
                    after_steps: 2,
                    phase: CrashPhase::AfterDeliver,
                },
            ],
        )
    }

    /// Builds a plan, clamping probabilities to the termination ceiling.
    pub fn new(seed: u64, faults: FaultSpec, delay: DelaySpec, crashes: Vec<CrashEvent>) -> Self {
        ChaosPlan {
            seed,
            faults: faults.clamped(),
            delay: delay.clamped(),
            crashes,
        }
    }

    /// Whether the plan injects anything at all. A disabled plan makes
    /// `FaultyKernel` pure delegation (the parity test pins this).
    pub fn enabled(&self) -> bool {
        !self.faults.is_zero() || self.delay.ppm != 0 || !self.crashes.is_empty()
    }

    /// The errno (if any) to inject for the `index`-th faultable call of
    /// `kind` on `core`. Pure: same arguments, same answer, forever.
    pub fn decide_fault(&self, core: usize, index: u64, kind: FaultKind) -> Option<Errno> {
        let ppm = self.faults.ppm(kind);
        if ppm == 0 {
            return None;
        }
        let draw = mix64(
            self.seed
                ^ (core as u64).wrapping_mul(GOLDEN)
                ^ index.wrapping_mul(STREAM2)
                ^ kind.tag(),
        );
        if draw % 1_000_000 >= u64::from(ppm) {
            return None;
        }
        Some(match (draw >> 32) % 3 {
            0 => Errno::EAGAIN,
            1 => Errno::EINTR,
            _ => Errno::ENOMEM,
        })
    }

    /// Whether the `index`-th `recv` on `core` starts a delivery hold
    /// (and for how many polls). Separate stream from `decide_fault`.
    pub fn decide_delay(&self, core: usize, index: u64) -> Option<u32> {
        if self.delay.ppm == 0 || self.delay.polls == 0 {
            return None;
        }
        let draw = mix64(
            self.seed ^ STREAM2 ^ (core as u64).wrapping_mul(GOLDEN) ^ index.wrapping_mul(GOLDEN),
        );
        (draw % 1_000_000 < u64::from(self.delay.ppm)).then_some(self.delay.polls)
    }

    /// The scheduled death (if any) of incarnation `generation` of qman
    /// slot `qman`.
    pub fn crash_for(&self, qman: usize, generation: u32) -> Option<CrashEvent> {
        self.crashes
            .iter()
            .copied()
            .find(|c| c.qman == qman && c.generation == generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_the_seed() {
        let plan = ChaosPlan::errno_storm(42);
        for core in 0..4 {
            for index in 0..256 {
                for kind in [
                    FaultKind::Send,
                    FaultKind::Recv,
                    FaultKind::Open,
                    FaultKind::Spawn,
                ] {
                    assert_eq!(
                        plan.decide_fault(core, index, kind),
                        plan.decide_fault(core, index, kind)
                    );
                }
            }
        }
    }

    #[test]
    fn storm_injects_near_its_nominal_rate() {
        let plan = ChaosPlan::errno_storm(7);
        let injected = (0..10_000u64)
            .filter(|&i| plan.decide_fault(0, i, FaultKind::Send).is_some())
            .count();
        // 20% nominal; allow generous slack for a 10k sample.
        assert!((1_500..=2_500).contains(&injected), "{injected}");
    }

    #[test]
    fn probabilities_clamp_to_the_termination_ceiling() {
        let plan = ChaosPlan::new(
            1,
            FaultSpec::uniform(1_000_000),
            DelaySpec {
                ppm: 1_000_000,
                polls: 4,
            },
            vec![],
        );
        assert_eq!(plan.faults, FaultSpec::uniform(FaultSpec::MAX_PPM));
        assert_eq!(plan.delay.ppm, FaultSpec::MAX_PPM);
        // Even at the ceiling some calls go through.
        let through = (0..10_000u64)
            .filter(|&i| plan.decide_fault(0, i, FaultKind::Send).is_none())
            .count();
        assert!(through > 100, "{through}");
    }

    #[test]
    fn disabled_plan_is_inert() {
        let plan = ChaosPlan::none();
        assert!(!plan.enabled());
        assert_eq!(plan.decide_fault(0, 0, FaultKind::Send), None);
        assert_eq!(plan.decide_delay(0, 0), None);
        assert_eq!(plan.crash_for(0, 0), None);
    }
}
