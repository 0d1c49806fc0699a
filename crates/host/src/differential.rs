//! TESTGEN's concrete tests replayed on real threads, one result pair per
//! test.
//!
//! The commutativity rule's empirical leg rests on the claim that the
//! simulated kernels faithfully represent what a real implementation would
//! do. The host Figure 6 ([`crate::fig6`]) checks that over every generated
//! test, in every schedule, under both policies, with footprints. This
//! module holds the smaller replay primitives that still have callers:
//!
//! * [`HostReplayer`] and [`ChaosReplayer`] implement
//!   `scr_core::ConcreteReplayer`, so `scr_core::differential_check` can
//!   compare a test's racing results (the pair on two real OS threads,
//!   [`race`]) against the simulated `Sv6Kernel`'s two sequential orders.
//!   Because the operations *commute*, the host's results must equal the
//!   simulated kernel's for some order of the pair, whatever schedule the
//!   hardware picks. [`ChaosReplayer`] replays through the pipeline's
//!   fault layer, so the same check asserts the retry contract.
//! * [`replay_triple_host`] and [`triple_linearizes`] are the same check
//!   for three racing calls.

use crate::harness::race;
use crate::kernel::{host_kernel, HostMode};
use scr_chaos::kernel::{FaultyKernel, ReliableKernel};
use scr_chaos::plan::ChaosPlan;
use scr_core::{ConcreteReplayer, ConcreteTest, Sv6Factory};
use scr_kernel::api::SysResult;
use scr_kernel::retry::RetryPolicy;

/// Replays generated tests on a fresh
/// [`HostKernel`](crate::kernel::HostKernel) per test, running the
/// commutative pair on two real threads.
#[derive(Clone, Copy, Debug)]
pub struct HostReplayer {
    /// Cores (thread slots) each fresh kernel is configured with.
    pub cores: usize,
}

impl Default for HostReplayer {
    fn default() -> Self {
        HostReplayer { cores: 4 }
    }
}

impl ConcreteReplayer for HostReplayer {
    fn name(&self) -> &'static str {
        "host-sv6"
    }

    fn replay(&self, test: &ConcreteTest) -> (SysResult, SysResult) {
        let kernel = host_kernel(self.cores.max(2), HostMode::Sv6);
        let [a, b] = race(
            &kernel,
            test.procs,
            &test.setup,
            [&test.op_a, &test.op_b],
            true,
            || {},
        );
        (a, b)
    }
}

/// Replays a generated triple test on a fresh host kernel: the setup runs
/// sequentially, then the three operations race on three real OS threads
/// released by one barrier. Returns the per-call results (`results[i]`
/// belongs to `ops[i]` whatever interleaving the hardware picked).
pub fn replay_triple_host(test: &scr_core::ConcreteTripleTest, cores: usize) -> [SysResult; 3] {
    let kernel = host_kernel(cores.max(3), HostMode::Sv6);
    race(
        &kernel,
        test.procs,
        &test.setup,
        test.ops.each_ref(),
        true,
        || {},
    )
}

/// Checks a racing host replay against the simulated kernel: the result
/// triple must match at least one of the six sequential linearisations.
/// For a SIM-commutative triple all six orders agree, so any scheduling
/// the hardware picks must reproduce exactly that result vector — a
/// mismatch is a genuine host↔model divergence, not a benign reordering.
pub fn triple_linearizes(test: &scr_core::ConcreteTripleTest, host: &[SysResult; 3]) -> bool {
    let factory = Sv6Factory { cores: 3 };
    scr_core::TRIPLE_ORDERS
        .iter()
        .any(|&order| scr_core::run_triple_order(&factory, test, order).results == *host)
}

/// A [`HostReplayer`] with a fault-injecting kernel stack: every test's
/// setup and racing pair run through `ReliableKernel → FaultyKernel →
/// HostKernel`, with a *never-give-up* retry policy. Because injected
/// failures have no side effects and the reliable layer retries exactly
/// them, the stack is observationally the raw host kernel — so replays
/// under an errno storm must still linearize against the simulated
/// kernel's two sequential orders. A mismatch means an injected fault
/// leaked through the retry contract (or a genuine divergence).
#[derive(Clone, Debug)]
pub struct ChaosReplayer {
    /// Cores (thread slots) each fresh kernel is configured with.
    pub cores: usize,
    /// The fault plan each replay runs under (crash schedules are
    /// meaningless here — there are no qmans to kill — but errno and
    /// delay injection apply to every faultable call the test makes).
    pub plan: ChaosPlan,
}

impl ConcreteReplayer for ChaosReplayer {
    fn name(&self) -> &'static str {
        "host-sv6-chaos"
    }

    fn replay(&self, test: &ConcreteTest) -> (SysResult, SysResult) {
        let cores = self.cores.max(2);
        let kernel = host_kernel(cores, HostMode::Sv6);
        let faulty = FaultyKernel::new(&kernel, self.plan.clone(), cores);
        let reliable = ReliableKernel::new(&faulty, RetryPolicy::spin().with_seed(self.plan.seed));
        let [a, b] = race(
            &reliable,
            test.procs,
            &test.setup,
            [&test.op_a, &test.op_b],
            true,
            || {},
        );
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig6::classify_linearisation;
    use scr_core::{differential_check, run_commuter, CommuterConfig, DifferentialOutcome};
    use scr_kernel::api::{OpenFlags, SysOp};
    use scr_model::CallKind;

    fn chaos(plan: ChaosPlan) -> ChaosReplayer {
        ChaosReplayer { cores: 4, plan }
    }

    /// The corpus of `calls` at `max_assignments` per case.
    fn corpus(calls: &[CallKind], max_assignments: usize) -> Vec<ConcreteTest> {
        let config = CommuterConfig {
            max_assignments_per_case: max_assignments,
            ..CommuterConfig::quick(calls)
        };
        run_commuter(&config, &[]).tests
    }

    /// Checks every test through `replayer` and returns the disagreements
    /// `host_fig6` does not explain: all but those on tests whose two
    /// simulated orders disagree on which call fails.
    fn unexplained(
        replayer: &dyn ConcreteReplayer,
        tests: &[ConcreteTest],
    ) -> Vec<DifferentialOutcome> {
        assert!(!tests.is_empty(), "empty corpus");
        differential_check(&Sv6Factory { cores: 4 }, replayer, tests)
            .into_iter()
            .filter(|o| {
                !o.agree() && classify_linearisation(&o.simulated, &o.simulated_ba).is_none()
            })
            .collect()
    }

    #[test]
    fn manual_commutative_pair_agrees() {
        let test = ConcreteTest {
            id: "manual_create_different".into(),
            calls: (CallKind::Open, CallKind::Open),
            setup: vec![],
            op_a: SysOp::Open {
                pid: 0,
                name: "alpha".into(),
                flags: OpenFlags::create(),
            },
            op_b: SysOp::Open {
                pid: 1,
                name: "bravo".into(),
                flags: OpenFlags::create(),
            },
            procs: 2,
        };
        let outcomes = differential_check(
            &Sv6Factory { cores: 4 },
            &HostReplayer::default(),
            std::slice::from_ref(&test),
        );
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].agree(), "{:?}", outcomes[0]);
    }

    #[test]
    fn chaos_replays_linearize_under_an_errno_storm() {
        // Covers all four fault kinds: open faults in the fs pairs, send
        // and recv faults in the socket pairs.
        let tests = corpus(
            &[
                CallKind::Open,
                CallKind::Unlink,
                CallKind::Send,
                CallKind::Recv,
            ],
            4,
        );
        let bad = unexplained(&chaos(ChaosPlan::errno_storm(29)), &tests);
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn chaos_replays_linearize_under_delivery_delay() {
        let tests = corpus(&[CallKind::Send, CallKind::Recv], 4);
        let bad = unexplained(&chaos(ChaosPlan::delayed_delivery(31)), &tests);
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn chaos_replayer_with_disabled_plan_matches_host_replayer() {
        let tests = corpus(&[CallKind::Stat, CallKind::Unlink], 8);
        let plain = differential_check(&Sv6Factory { cores: 4 }, &HostReplayer::default(), &tests);
        let faulty =
            differential_check(&Sv6Factory { cores: 4 }, &chaos(ChaosPlan::none()), &tests);
        assert!(plain.iter().all(DifferentialOutcome::agree), "{plain:?}");
        assert!(faulty.iter().all(DifferentialOutcome::agree), "{faulty:?}");
        let replayed = |o: &[DifferentialOutcome]| -> Vec<_> {
            o.iter().map(|o| o.replayed.clone()).collect()
        };
        assert_eq!(replayed(&plain), replayed(&faulty));
    }
    #[test]
    fn generated_triples_linearize_on_real_threads() {
        use scr_core::{
            analyze_triple, enumerate_triple_shapes, generate_triple_tests, triple_config,
        };
        let cfg = triple_config();
        let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
        let shapes =
            enumerate_triple_shapes((CallKind::Lseek, CallKind::Read, CallKind::Write), &cfg);
        let same_fd = shapes
            .iter()
            .find(|s| s.slots.iter().all(|sl| sl.fds == vec![0]))
            .expect("all-same-descriptor shape");
        let analysis = analyze_triple(same_fd, &cfg);
        let generated = generate_triple_tests(same_fd, &analysis.cases, &cfg, &names, 2);
        assert!(!generated.tests.is_empty(), "triple corpus must exist");
        for test in generated.tests.iter().take(8) {
            let host = replay_triple_host(test, 4);
            assert!(
                triple_linearizes(test, &host),
                "host triple replay of {} matches no sequential order: {host:?}",
                test.id
            );
        }
    }
}
