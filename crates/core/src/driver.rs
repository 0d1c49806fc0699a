//! MTRACE driver: running generated tests against an implementation
//! (§5.3).
//!
//! The paper's MTRACE boots the kernel under a modified qemu, runs each test
//! case's operations on different virtual cores while logging every memory
//! access, and reports cache lines accessed by more than one core with at
//! least one write. Here the kernels are libraries running over the
//! simulated machine of `scr-mtrace`, so the driver simply:
//!
//! 1. builds a fresh kernel and the test's processes,
//! 2. replays the test's setup operations outside any trace window,
//! 3. opens a window and runs the test's commutative operations, `ops[i]`
//!    on core `i`, in the order asked for (the identity by default), and
//! 4. reports the window's shared cache lines (with their allocation
//!    labels, which play the role of MTRACE's DWARF-derived type names).
//!
//! A pair and a triple are the same [`ConcreteTest`] with two or three
//! operations, so one driver and one linearisation check ([`linearise`])
//! serve both.

use crate::analyzer::orders;
use crate::testgen::ConcreteTest;
use scr_kernel::api::{perform, SysResult, SyscallApi};
use scr_kernel::Sv6Kernel;
use scr_mtrace::{on_core, Lines};

/// Builds fresh kernel instances for test runs.
pub trait KernelFactory: Sync {
    /// A short name for reports ("Linux", "sv6", …).
    fn name(&self) -> &'static str;
    /// Builds a fresh kernel on a fresh simulated machine, which
    /// [`Sv6Kernel::lines`] returns.
    fn build(&self) -> Sv6Kernel;
}

/// Factory for the sv6/ScaleFS kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sv6Factory {
    /// Number of simulated cores to configure.
    pub cores: usize,
}

impl KernelFactory for Sv6Factory {
    fn name(&self) -> &'static str {
        "sv6"
    }

    fn build(&self) -> Sv6Kernel {
        Sv6Kernel::new(self.cores.max(2))
    }
}

/// Factory for the Linux-like baseline: the kernel body under
/// [`scr_kernel::Policy::Linuxlike`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LinuxLikeFactory {
    /// Number of simulated cores to configure.
    pub cores: usize,
}

impl KernelFactory for LinuxLikeFactory {
    fn name(&self) -> &'static str {
        "Linux"
    }

    fn build(&self) -> Sv6Kernel {
        Sv6Kernel::linuxlike(self.cores.max(2))
    }
}

/// Replays generated tests on an execution substrate *other than* the
/// simulated machine — e.g. `scr-host`'s real-threads kernel. The returned
/// results use the same [`SysResult`] vocabulary as [`run_test`], so a
/// replayer can be cross-checked against any [`KernelFactory`].
///
/// This is the entry point the host backend plugs into: the symbolic
/// pipeline produces [`ConcreteTest`]s, the simulator defines the expected
/// observable results, and a replayer demonstrates that a real
/// implementation agrees.
pub trait ConcreteReplayer {
    /// A short name for reports ("host-sv6", …).
    fn name(&self) -> &'static str;
    /// Builds a fresh instance, replays the test's setup, runs the
    /// operations, and returns their observable results, `results[i]`
    /// from `ops[i]`.
    fn replay(&self, test: &ConcreteTest) -> Vec<SysResult>;
}

/// The outcome of cross-checking one test between a simulated kernel and a
/// replayer.
#[derive(Clone, Debug)]
pub struct DifferentialOutcome {
    /// The test's identifier.
    pub test_id: String,
    /// The replayer's results, `replayed[i]` from `ops[i]`.
    pub replayed: Vec<SysResult>,
    /// The replay checked against the simulated kernel's orders.
    pub linearisation: Linearisation,
}

impl DifferentialOutcome {
    /// Did the replayer observe the results of some sequential order of
    /// the test's operations on the simulated kernel?
    pub fn agree(&self) -> bool {
        self.linearisation.linearises
    }
}

/// Runs every test on both substrates and reports the comparisons. The
/// caller decides what to do with disagreements (the integration tests
/// assert there are none).
pub fn differential_check(
    factory: &dyn KernelFactory,
    replayer: &dyn ConcreteReplayer,
    tests: &[ConcreteTest],
) -> Vec<DifferentialOutcome> {
    tests
        .iter()
        .map(|test| {
            let identity = run_test(factory, test).results;
            let replayed = replayer.replay(test);
            let linearisation = linearise(factory, test, identity, std::slice::from_ref(&replayed));
            DifferentialOutcome {
                test_id: test.id.clone(),
                replayed,
                linearisation,
            }
        })
        .collect()
}

/// What [`linearise`] found.
#[derive(Clone, Debug)]
pub struct Linearisation {
    /// Whether every observed result vector equals the simulated results
    /// of some order of the test's operations.
    pub linearises: bool,
    /// The simulated results of each order the check ran, in [`orders`]
    /// order: the identity first, and every order when `linearises` is
    /// false. `simulated[k][i]` is what `ops[i]` returned.
    pub simulated: Vec<Vec<SysResult>>,
}

/// The one linearisation check: does each of `observed` (one result vector
/// per run, `[i]` from `ops[i]`) equal the results of some sequential order
/// of the test's operations on `factory`'s simulated kernel? `identity` is
/// the identity order's results, as [`run_test`] returns them; the other
/// orders run only when a result vector matches none run so far.
///
/// Extension pairs whose operations race over shared queues or a shared
/// pid allocator (`send ∥ recv` with a steal, `fork ∥ fork`) return
/// order-dependent but SIM-equivalent results, so a racing replay need only
/// match *some* order.
pub fn linearise(
    factory: &dyn KernelFactory,
    test: &ConcreteTest,
    identity: Vec<SysResult>,
    observed: &[Vec<SysResult>],
) -> Linearisation {
    let orders = orders(test.ops.len());
    let mut simulated = vec![identity];
    let linearises = observed.iter().all(|results| {
        (0..orders.len()).any(|k| {
            if k == simulated.len() {
                simulated.push(run_test_order(factory, test, &orders[k]).results);
            }
            simulated[k] == *results
        })
    });
    Linearisation {
        linearises,
        simulated,
    }
}

/// The outcome of running one test against one kernel.
#[derive(Clone, Debug)]
pub struct TestOutcome {
    /// The test's identifier.
    pub test_id: String,
    /// Whether the operations were conflict-free.
    pub conflict_free: bool,
    /// Labels of the cache lines shared between the cores.
    pub shared_labels: Vec<String>,
    /// Whether every setup operation succeeded (failed setup usually means
    /// the test exercises an error path, which is fine, but it is recorded
    /// for diagnostics).
    pub setup_ok: bool,
    /// The results the operations returned; `results[i]` belongs to
    /// `ops[i]` whatever the order was.
    pub results: Vec<SysResult>,
}

/// Runs one generated test against a kernel built by `factory`, in the
/// identity order. The factory must configure a core per operation.
pub fn run_test(factory: &dyn KernelFactory, test: &ConcreteTest) -> TestOutcome {
    let identity: Vec<usize> = (0..test.ops.len()).collect();
    run_test_order(factory, test, &identity)
}

/// [`run_test`] with an explicit order: `order[k]` names the operation that
/// runs k-th; operation `i` always runs on core `i`.
pub fn run_test_order(
    factory: &dyn KernelFactory,
    test: &ConcreteTest,
    order: &[usize],
) -> TestOutcome {
    let kernel = factory.build();
    let machine = kernel.lines().expect("a simulated kernel has a machine");
    // Both kernels number processes densely from zero.
    for _ in 0..test.procs.max(2) {
        kernel.new_process();
    }
    // Setup runs before the window opens, each op on its annotated core
    // (socket-queue preloads must come from the owning core; everything
    // else uses 0).
    let mut setup_ok = true;
    for (core, op) in &test.setup {
        let result = on_core(*core, || perform(&kernel, *core, op));
        setup_ok &= result.is_ok();
    }
    // The commutative operations run in the window, each on its own core.
    machine.begin_window();
    let mut results = vec![None; test.ops.len()];
    for &core in order {
        let op = &test.ops[core];
        results[core] = Some(on_core(core, || perform(&kernel, core, op)));
    }
    let report = machine.end_window();
    TestOutcome {
        test_id: test.id.clone(),
        conflict_free: report.is_conflict_free(),
        shared_labels: report.conflicting_labels(),
        setup_ok,
        results: results
            .into_iter()
            .map(|result| result.expect("every operation ran"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_kernel::api::{OpenFlags, SysOp};
    use scr_model::CallKind;

    fn manual_test(
        id: &str,
        calls: (CallKind, CallKind),
        setup: Vec<SysOp>,
        a: SysOp,
        b: SysOp,
    ) -> ConcreteTest {
        ConcreteTest {
            id: id.into(),
            calls: vec![calls.0, calls.1],
            setup: setup.into_iter().map(|op| (0, op)).collect(),
            ops: vec![a, b],
            procs: 2,
        }
    }

    #[test]
    fn creating_different_files_scales_on_sv6_but_not_linux() {
        let test = manual_test(
            "create_different",
            (CallKind::Open, CallKind::Open),
            vec![],
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
        );
        let sv6 = run_test(&Sv6Factory { cores: 4 }, &test);
        assert!(sv6.conflict_free, "sv6 shared {:?}", sv6.shared_labels);
        let linux = run_test(&LinuxLikeFactory { cores: 4 }, &test);
        assert!(!linux.conflict_free);
    }

    #[test]
    fn statting_the_same_existing_file_differs_between_kernels() {
        let setup = vec![
            SysOp::Open {
                pid: 0,
                name: "shared".into(),
                flags: OpenFlags::create(),
            },
            SysOp::Close { pid: 0, fd: 0 },
        ];
        let test = manual_test(
            "stat_same",
            (CallKind::Stat, CallKind::Stat),
            setup,
            SysOp::StatPath {
                pid: 0,
                name: "shared".into(),
            },
            SysOp::StatPath {
                pid: 1,
                name: "shared".into(),
            },
        );
        let sv6 = run_test(&Sv6Factory { cores: 4 }, &test);
        assert!(sv6.conflict_free, "sv6 shared {:?}", sv6.shared_labels);
        let linux = run_test(&LinuxLikeFactory { cores: 4 }, &test);
        assert!(
            !linux.conflict_free,
            "the dcache refcount must make Linux-like stats conflict"
        );
        assert!(linux.shared_labels.iter().any(|l| l.contains("d_count")));
    }

    #[test]
    fn setup_failures_are_reported() {
        let test = manual_test(
            "bad_setup",
            (CallKind::Stat, CallKind::Stat),
            vec![SysOp::Unlink {
                pid: 0,
                name: "does-not-exist".into(),
            }],
            SysOp::StatPath {
                pid: 0,
                name: "x".into(),
            },
            SysOp::StatPath {
                pid: 1,
                name: "y".into(),
            },
        );
        let outcome = run_test(&Sv6Factory { cores: 2 }, &test);
        assert!(!outcome.setup_ok);
        assert!(outcome.conflict_free);
    }

    #[test]
    fn factories_report_names() {
        assert_eq!(Sv6Factory::default().name(), "sv6");
        assert_eq!(LinuxLikeFactory::default().name(), "Linux");
    }
}
