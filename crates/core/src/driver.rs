//! MTRACE driver: running generated tests against an implementation
//! (§5.3).
//!
//! The paper's MTRACE boots the kernel under a modified qemu, runs each test
//! case's operations on different virtual cores while logging every memory
//! access, and reports cache lines accessed by more than one core with at
//! least one write. Here the kernels are libraries, and [`replay`] is that
//! protocol, written once for every substrate and schedule:
//!
//! 1. it creates the test's processes,
//! 2. replays the test's setup on its annotated cores, outside any window,
//! 3. opens a window on the kernel's line substrate, if it has one,
//! 4. runs `ops[i]` on core `i` under a [`Schedule`] — [`InOrder`] on the
//!    calling thread, or [`Race`], one real thread per operation — and
//! 5. closes the window, whose shared lines carry their allocation labels
//!    (the role of MTRACE's DWARF-derived type names).
//!
//! The simulated machine is single-threaded, so only [`InOrder`] runs on it;
//! the real-threads host kernel takes either. [`run_test`] replays a test on
//! a simulated kernel built by a [`KernelFactory`]; [`linearise`] checks
//! results observed elsewhere against the simulated kernel's orders. A pair
//! and a triple are the same [`ConcreteTest`] with two or three operations,
//! so one replay and one linearisation check serve both.

use crate::analyzer::orders;
use crate::testgen::ConcreteTest;
use scr_kernel::api::{perform, SysOp, SysResult, SyscallApi};
use scr_kernel::Sv6Kernel;
use scr_mtrace::{on_core, Lines, TraceWindow};
use std::sync::Barrier;

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
                simulated.push(replay_on(factory, test, &orders[k]).results);
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
    let Replay {
        setup_ok,
        window,
        results,
    } = replay_on(factory, test, &identity);
    let window = window.expect("a simulated kernel has a machine");
    TestOutcome {
        test_id: test.id.clone(),
        conflict_free: window.is_conflict_free(),
        shared_labels: window.conflicting_labels(),
        setup_ok,
        results,
    }
}

/// Replays `test` on a fresh kernel from `factory`, `order[k]` k-th, traced.
fn replay_on(factory: &dyn KernelFactory, test: &ConcreteTest, order: &[usize]) -> Replay {
    let kernel = factory.build();
    replay(&kernel, kernel.lines(), test, InOrder(order))
}

/// What one [`replay`] of a test observed.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Whether every setup operation succeeded (a failed setup usually
    /// means the test exercises an error path).
    pub setup_ok: bool,
    /// The window around the operations, when the replay had lines to
    /// trace on.
    pub window: Option<TraceWindow>,
    /// `results[i]` is what `ops[i]` returned, whatever the schedule.
    pub results: Vec<SysResult>,
}

/// How [`replay`] runs a test's operations: `ops[i]` on core `i`, inside
/// [`on_core`], so probes attribute each to its core.
pub trait Schedule<K: ?Sized> {
    /// Runs `ops` on `kernel`; `[i]` of the result is what `ops[i]`
    /// returned.
    fn run(&self, kernel: &K, ops: &[SysOp]) -> Vec<SysResult>;
}

/// The operations one after another on the calling thread, `ops[order[k]]`
/// k-th: the simulated machine's schedule, and the deterministic one on
/// real threads.
#[derive(Clone, Copy, Debug)]
pub struct InOrder<'a>(pub &'a [usize]);

impl<K: SyscallApi + ?Sized> Schedule<K> for InOrder<'_> {
    fn run(&self, kernel: &K, ops: &[SysOp]) -> Vec<SysResult> {
        let mut results = vec![None; ops.len()];
        for &core in self.0 {
            results[core] = Some(on_core(core, || perform(kernel, core, &ops[core])));
        }
        results
            .into_iter()
            .map(|result| result.expect("every operation ran"))
            .collect()
    }
}

/// One OS thread per operation, all released by one barrier: the hardware
/// picks the interleaving. The threads share the kernel, so it must be
/// `Sync`; a simulated kernel, whose machine is single-threaded, cannot
/// race:
///
/// ```compile_fail
/// use scr_core::{replay, ConcreteTest, Race};
/// let test = ConcreteTest { id: "t".into(), calls: vec![], setup: vec![], ops: vec![], procs: 2 };
/// let kernel = scr_kernel::Sv6Kernel::new(2);
/// replay(&kernel, kernel.lines(), &test, Race);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Race;

impl<K: SyscallApi + Sync + ?Sized> Schedule<K> for Race {
    fn run(&self, kernel: &K, ops: &[SysOp]) -> Vec<SysResult> {
        let barrier = Barrier::new(ops.len());
        let barrier = &barrier;
        std::thread::scope(|scope| {
            let threads: Vec<_> = ops
                .iter()
                .enumerate()
                .map(|(core, op)| {
                    scope.spawn(move || {
                        barrier.wait();
                        on_core(core, || perform(kernel, core, op))
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|thread| thread.join().expect("racing op thread"))
                .collect()
        })
    }
}

/// The one MTRACE replay (§5.3), on any [`SyscallApi`] stack over any line
/// substrate: creates `test.procs` processes (at least two), runs the setup
/// with each operation on its annotated core, opens a window on `lines` if
/// given, runs the operations under `schedule`, and closes the window.
/// Callers pass the kernel body's own `lines()`; the kernel needs a core
/// per operation.
///
/// ```
/// use scr_core::{replay, ConcreteTest, InOrder};
/// let test = ConcreteTest { id: "t".into(), calls: vec![], setup: vec![], ops: vec![], procs: 2 };
/// let kernel = scr_kernel::Sv6Kernel::new(2);
/// let replay = replay(&kernel, kernel.lines(), &test, InOrder(&[]));
/// assert!(replay.setup_ok && replay.window.unwrap().is_conflict_free());
/// ```
pub fn replay<K, L>(
    kernel: &K,
    lines: Option<&L>,
    test: &ConcreteTest,
    schedule: impl Schedule<K>,
) -> Replay
where
    K: SyscallApi + ?Sized,
    L: Lines,
{
    // Both substrates number processes densely from zero.
    for _ in 0..test.procs.max(2) {
        kernel.new_process();
    }
    // Socket-queue preloads must come from the owning core; everything
    // else uses 0.
    let mut setup_ok = true;
    for (core, op) in &test.setup {
        setup_ok &= on_core(*core, || perform(kernel, *core, op)).is_ok();
    }
    if let Some(lines) = lines {
        lines.begin_window();
    }
    let results = schedule.run(kernel, &test.ops);
    Replay {
        setup_ok,
        window: lines.map(|lines| lines.end_window()),
        results,
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
