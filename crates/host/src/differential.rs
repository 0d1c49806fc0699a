//! TESTGEN's concrete tests raced on real threads, one result vector per
//! test.
//!
//! The commutativity rule's empirical leg rests on the claim that the
//! simulated kernels faithfully represent what a real implementation would
//! do. The host Figure 6 ([`crate::fig6`]) checks that over every generated
//! test, in every schedule, under both policies, with footprints. This
//! module holds the untraced replayer `scr_core::differential_check`
//! drives: [`HostReplayer`] builds a fresh host kernel per test and runs it
//! through `scr_core::replay` under `scr_core::Race`, one real OS thread per
//! operation, and `differential_check` compares the results against the
//! simulated `Sv6Kernel`'s sequential orders through `scr_core::linearise`.
//! Because the operations *commute*, the host's results must equal the
//! simulated kernel's for some order, whatever schedule the hardware picks,
//! and whatever faults the replayer's [`ChaosPlan`] injects.

use crate::kernel::{host_kernel, HostMode};
use scr_chaos::kernel::{FaultyKernel, ReliableKernel};
use scr_chaos::plan::ChaosPlan;
use scr_core::{replay, ConcreteReplayer, ConcreteTest, Race};
use scr_kernel::api::SysResult;
use scr_kernel::retry::RetryPolicy;

/// Replays generated tests on a fresh
/// [`HostKernel`](crate::kernel::HostKernel) per test, running the
/// commutative operations on one real thread each.
///
/// Every test's setup and racing operations run through `ReliableKernel →
/// FaultyKernel → HostKernel` under [`HostReplayer::plan`] ([`ChaosPlan::none`]
/// by default), with a *never-give-up* retry policy. Injected failures have
/// no side effects and the reliable layer retries exactly them, so the
/// stack is observationally the raw host kernel: a mismatch under an errno
/// storm means an injected fault leaked through the retry contract (or a
/// genuine divergence).
#[derive(Clone, Debug)]
pub struct HostReplayer {
    /// Cores (thread slots) each fresh kernel is configured with.
    pub cores: usize,
    /// The fault plan each replay runs under (crash schedules are
    /// meaningless here — there are no qmans to kill — but errno and
    /// delay injection apply to every faultable call the test makes).
    pub plan: ChaosPlan,
}

impl Default for HostReplayer {
    fn default() -> Self {
        HostReplayer {
            cores: 4,
            plan: ChaosPlan::none(),
        }
    }
}

impl ConcreteReplayer for HostReplayer {
    fn name(&self) -> &'static str {
        "host-sv6"
    }

    fn replay(&self, test: &ConcreteTest) -> Vec<SysResult> {
        let cores = self.cores.max(test.ops.len());
        let kernel = host_kernel(cores, HostMode::Sv6);
        let faulty = FaultyKernel::new(&kernel, self.plan.clone(), cores);
        let reliable = ReliableKernel::new(&faulty, RetryPolicy::spin().with_seed(self.plan.seed));
        replay(&reliable, kernel.lines(), test, Race).results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig6::{classify_linearisation, run_test_host};
    use scr_core::{
        differential_check, linearise, run_commuter, run_test, CommuterConfig, DifferentialOutcome,
        KernelFactory, LinuxLikeFactory, Sv6Factory,
    };
    use scr_kernel::api::{OpenFlags, SysOp};
    use scr_model::CallKind;

    fn chaos(plan: ChaosPlan) -> HostReplayer {
        HostReplayer { cores: 4, plan }
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
    /// `host_fig6` does not explain: all but those on tests whose simulated
    /// orders disagree on which call fails.
    fn unexplained(
        replayer: &dyn ConcreteReplayer,
        tests: &[ConcreteTest],
    ) -> Vec<DifferentialOutcome> {
        assert!(!tests.is_empty(), "empty corpus");
        differential_check(&Sv6Factory { cores: 4 }, replayer, tests)
            .into_iter()
            .filter(|o| !o.agree() && classify_linearisation(&o.linearisation.simulated).is_none())
            .collect()
    }

    #[test]
    fn manual_commutative_pair_agrees() {
        let test = ConcreteTest {
            id: "manual_create_different".into(),
            calls: vec![CallKind::Open, CallKind::Open],
            setup: vec![],
            ops: vec![
                SysOp::Open {
                    pid: 0,
                    name: "alpha".into(),
                    flags: OpenFlags::create(),
                },
                SysOp::Open {
                    pid: 1,
                    name: "bravo".into(),
                    flags: OpenFlags::create(),
                },
            ],
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

    /// With no faults planned, the layered stack returns what the bare
    /// host kernel returns.
    #[test]
    fn default_replayer_matches_the_bare_host_kernel() {
        let tests = corpus(&[CallKind::Stat, CallKind::Unlink], 8);
        let layered =
            differential_check(&Sv6Factory { cores: 4 }, &HostReplayer::default(), &tests);
        assert!(
            layered.iter().all(DifferentialOutcome::agree),
            "{layered:?}"
        );
        for (test, outcome) in tests.iter().zip(&layered) {
            let kernel = host_kernel(4.max(test.ops.len()), HostMode::Sv6);
            let bare = replay(&kernel, kernel.lines(), test, Race).results;
            assert_eq!(bare, outcome.replayed, "{}", test.id);
        }
    }

    /// Triples replay like pairs: traced, on real threads, under both
    /// policies, every schedule checked by the one linearisation check
    /// against the simulated kernel of its policy.
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
        let policies: [(HostMode, &dyn KernelFactory); 2] = [
            (HostMode::Sv6, &Sv6Factory { cores: 4 }),
            (HostMode::Linuxlike, &LinuxLikeFactory { cores: 4 }),
        ];
        for test in generated.tests.iter().take(8) {
            assert_eq!(test.ops.len(), 3);
            for (mode, factory) in policies {
                let host = run_test_host(mode, 4, test, 2);
                assert_eq!(host.dropped, 0, "{mode:?} log overflow in {}", test.id);
                assert!(host.conserved, "{mode:?} lost a datagram in {}", test.id);
                let identity = run_test(factory, test).results;
                assert!(
                    linearise(factory, test, identity, &host.results).linearises,
                    "{mode:?} host triple replay of {} matches no sequential order: {:?}",
                    test.id,
                    host.results
                );
            }
        }
    }
}
