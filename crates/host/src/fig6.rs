//! The host-side Figure 6 pipeline: the conflict heatmap on real threads.
//!
//! The simulated pipeline (`scr_core::run_commuter`) runs every generated
//! test on the simulated kernels and reports which commutative pairs share
//! cache lines. This module replays the same tests on the real-threads
//! [`HostKernel`] through the one MTRACE replay, `scr_core::replay`, under
//! `scr_core::Race`, with a `scr_mtrace::HostTraceSink` as the kernel's
//! line substrate, producing [`Figure6Report`]s labelled `sv6-host` and
//! `linux-host` — and cross-checks them against the simulated heatmap.
//!
//! [`HostKernel`]: crate::kernel::HostKernel
//!
//! The cross-check invariant is one-directional, and the same for both
//! policies: every test that is conflict-free on a simulated kernel must be
//! conflict-free on the host kernel of the same policy too, in **every**
//! schedule the hardware picks — simulated sv6 against `sv6-host`,
//! simulated Linux-like against `linux-host`. Both sides run the one kernel
//! body, so they record the same lines, and every divergence is recorded in
//! [`HostFig6Results::divergences`] and fails the acceptance test. (The
//! paper's §1 lowest-FD contention is no exception: the simulated kernel
//! models the descriptor scan with the same per-slot lines, so it conflicts
//! on both substrates.)
//!
//! Two more properties are checked in every schedule of every test, under
//! both policies, and recorded next to the divergences:
//!
//! * **linearisation** — the host's results equal the results of the
//!   simulated kernel of the same policy running the calls in some
//!   sequential order (`scr_core::linearise`, the one check every
//!   real-threads replay shares). Several commutative pairs commute only
//!   up to fungible values (two spawns race for the next pid; unordered
//!   receives race for equivalent messages), so B-then-A counts as well as
//!   A-then-B;
//! * **datagram conservation** — every message sent to a socket the setup
//!   created is received by the pair or still queued afterwards, exactly
//!   once.
//!
//! One kind of linearisation violation is explained and listed rather than
//! failed: on a test whose simulated orders disagree on which call fails,
//! the test does not commute at all, and its racing calls may interleave
//! into results neither order gives ([`ORDER_DEPENDENT_EXCEPTION`]).
//!
//! The §4 calls ([`ext_calls`]) need no pipeline of their own: their pairs
//! are generated by the same sweep and checked by the same step.
//!
//! [`run_host_fig6`] is a consumer of the COMMUTER sweep engine
//! (`scr_core::run_sweep`): the engine generates exactly the corpus
//! `scr_core::run_commuter` generates for the same bounds, each test runs
//! on the four kernels on the worker that generated it, and the consumer
//! keeps the verdicts and drops the tests.

use crate::kernel::{host_kernel_with, HostKernel, HostMode};
use scr_core::{
    linearise, replay, run_sweep, run_test, CommuterConfig, ConcreteTest, Figure6Report,
    KernelFactory, Linearisation, LinuxLikeFactory, Race, Replay, Sv6Factory, Swept, SweptUnit,
    TestOutcome,
};
use scr_kernel::api::{SysOp, SysResult};
use scr_kernel::Sv6Options;
use scr_model::{CallKind, ModelConfig};
use scr_mtrace::{HostTraceSink, Lines};
use scr_obs::HeatMap;

/// The exception tag for linearisation violations on tests that do not
/// commute on the simulated kernel itself: its sequential orders disagree on
/// which call fails. TESTGEN should not have materialised
/// such a test, and on real threads its calls can interleave into results
/// neither order gives — e.g. `open(f)` finding the name a racing
/// `open(f, O_CREAT)` of the same process published, then taking the
/// lowest descriptor before the creator took its own.
pub const ORDER_DEPENDENT_EXCEPTION: &str = "order-dependent-test";

/// Configuration of a host Figure 6 run.
#[derive(Clone, Debug)]
pub struct HostFig6Config {
    /// Calls whose unordered pairs are analysed.
    pub calls: Vec<CallKind>,
    /// Model bounds (the same defaults as the simulated pipeline).
    pub model: ModelConfig,
    /// Satisfying assignments enumerated per commutative case.
    pub max_assignments_per_case: usize,
    /// Cores (threads) each kernel is configured with.
    pub cores: usize,
    /// How many times each test's concurrent pair is replayed; a test is
    /// host-conflict-free only when every schedule is.
    pub schedules_per_test: usize,
    /// Sweep workers: `1` runs sequentially, `N > 1` spawns that many
    /// claiming workers over the (pair, shape) unit list, `0` uses one per
    /// hardware thread. The generated corpus — and therefore the sim
    /// columns — are byte-identical for every value; the host columns
    /// depend on hardware schedules either way.
    pub threads: usize,
}

impl HostFig6Config {
    /// A bounded configuration for the given calls (half the quick
    /// pipeline's assignment limit: every traced test runs on four kernels
    /// and several schedules, so the corpus is kept proportionate).
    pub fn quick(calls: &[CallKind]) -> Self {
        HostFig6Config {
            calls: calls.to_vec(),
            model: ModelConfig {
                inodes: 2,
                ..ModelConfig::default()
            },
            max_assignments_per_case: 24,
            cores: 4,
            schedules_per_test: 2,
            threads: 1,
        }
    }
}

/// The outcome of a test's traced host replays.
#[derive(Clone, Debug)]
pub struct HostTestOutcome {
    /// The test's identifier.
    pub test_id: String,
    /// Whether every schedule's traced window was conflict-free.
    pub conflict_free: bool,
    /// Labels of the lines shared between the threads.
    pub shared_labels: Vec<String>,
    /// The results the operations returned, one vector per schedule;
    /// `results[s][i]` is what `ops[i]` returned in schedule `s`.
    pub results: Vec<Vec<SysResult>>,
    /// Whether every schedule conserved datagrams: each message sent to a
    /// socket the setup created was received by the operations or is still
    /// queued, exactly once.
    pub conserved: bool,
    /// Accesses dropped by log overflow (0 in any healthy run).
    pub dropped: usize,
    /// The most accesses one core recorded in any schedule's window: the
    /// log headroom the test used.
    pub max_window_accesses: usize,
}

/// Whether one replay of `test` conserved datagrams: the messages it sent
/// to sockets its setup created equal, as multisets, the messages its
/// operations received plus those still queued on `kernel`. Sends to a socket that
/// does not exist fail and queue nothing; generated setups never receive.
/// Drains the test's sockets; a test whose setup creates none conserves
/// trivially.
fn conserves(kernel: &HostKernel, test: &ConcreteTest, results: &[SysResult]) -> bool {
    // Both substrates number sockets densely from 0.
    let sockets = test
        .setup
        .iter()
        .filter(|(_, op)| matches!(op, SysOp::Socket { .. }))
        .count();
    if sockets == 0 {
        return true;
    }
    let mut sent: Vec<Vec<u8>> = test
        .setup
        .iter()
        .map(|(_, op)| op)
        .chain(&test.ops)
        .filter_map(|op| match op {
            SysOp::Send { sock, msg } if *sock < sockets => Some(msg.clone()),
            _ => None,
        })
        .collect();
    let mut seen: Vec<Vec<u8>> = test
        .ops
        .iter()
        .zip(results)
        .filter_map(|(op, result)| match (op, result) {
            (SysOp::Recv { .. }, SysResult::Data(msg)) => Some(msg.clone()),
            _ => None,
        })
        .chain((0..sockets).flat_map(|sock| kernel.socket_drain_untraced(sock)))
        .collect();
    sent.sort();
    seen.sort();
    sent == seen
}

/// Normalises a pipe line label for footprint comparison: pipe *instance*
/// ids count the pipes a kernel made before (the body numbers them with a
/// per-kernel counter), so `pipe[0:17].buffer` becomes `pipe[0:#].buffer`.
/// All other labels are returned unchanged.
pub fn normalize_pipe_label(label: &str) -> String {
    if let Some(rest) = label.strip_prefix("pipe[") {
        if let Some((head, tail)) = rest.split_once(']') {
            if let Some((pid, _id)) = head.split_once(':') {
                return format!("pipe[{pid}:#]{tail}");
            }
        }
    }
    label.to_string()
}

/// Runs one test on real threads under `schedules` racing schedules, each
/// on a fresh instrumented kernel with a core per operation (at least
/// `cores`), traced around the operations. The outcome is conflict-free
/// (and conserving) only if every schedule was, the shared labels are the
/// union over schedules, and every schedule's results are kept.
pub fn run_test_host(
    mode: HostMode,
    cores: usize,
    test: &ConcreteTest,
    schedules: usize,
) -> HostTestOutcome {
    run_test_host_with(mode, cores, test, schedules, None)
}

/// [`run_test_host`], optionally folding every traced window into a
/// conflict [`HeatMap`]: each schedule's per-line access counts (and the
/// lines that actually conflicted) are accumulated under pipe-normalised
/// labels, after the window has ended — so the heat map costs the traced
/// region nothing.
pub fn run_test_host_with(
    mode: HostMode,
    cores: usize,
    test: &ConcreteTest,
    schedules: usize,
    heat: Option<&HeatMap>,
) -> HostTestOutcome {
    let mut shared_labels = Vec::new();
    let mut conflict_free = true;
    let mut conserved = true;
    let mut dropped = 0;
    let mut max_window_accesses = 0;
    let mut results = Vec::new();
    let cores = cores.max(test.ops.len()).max(2);
    for _ in 0..schedules.max(1) {
        let sink = HostTraceSink::new(cores);
        let kernel = host_kernel_with(cores, mode, Sv6Options::default(), Some(&sink));
        let Replay {
            window,
            results: res,
            ..
        } = replay(&kernel, kernel.lines(), test, Race);
        let report = window.expect("an instrumented kernel traces");
        if let Some(heat) = heat {
            heat.fold_report(&report, |line| normalize_pipe_label(&sink.label_of(line)));
        }
        conflict_free &= report.is_conflict_free();
        conserved &= conserves(&kernel, test, &res);
        shared_labels.extend(report.conflicting_labels());
        dropped += report.dropped;
        max_window_accesses = max_window_accesses.max(report.max_core_accesses());
        results.push(res);
    }
    shared_labels.sort();
    shared_labels.dedup();
    HostTestOutcome {
        test_id: test.id.clone(),
        conflict_free,
        shared_labels,
        results,
        conserved,
        dropped,
        max_window_accesses,
    }
}

/// A test where a simulated kernel was conflict-free but the host kernel
/// of the same policy conflicted in at least one schedule.
#[derive(Clone, Debug)]
pub struct Fig6Divergence {
    /// The diverging test.
    pub test_id: String,
    /// The host column it diverged in (`sv6-host` or `linux-host`).
    pub kernel: &'static str,
    /// Its call pair.
    pub calls: (CallKind, CallKind),
    /// The lines the host conflicted on.
    pub shared_labels: Vec<String>,
}

/// A test whose host runs broke linearisation or datagram conservation in
/// at least one schedule.
#[derive(Clone, Debug)]
pub struct Fig6Violation {
    /// The violating test.
    pub test_id: String,
    /// The host column it was found in (`sv6-host` or `linux-host`).
    pub kernel: &'static str,
    /// Its call pair.
    pub calls: (CallKind, CallKind),
    /// Every schedule's host results.
    pub results: Vec<Vec<SysResult>>,
    /// `Some(tag)` for a linearisation violation in the documented
    /// exception list (currently only [`ORDER_DEPENDENT_EXCEPTION`]);
    /// `None` means unexplained.
    pub exception: Option<&'static str>,
}

/// Classifies a linearisation violation by the test's simulated results in
/// every order (`Linearisation::simulated` of a failed check): an exception
/// only when the orders disagree on which calls fail.
pub fn classify_linearisation(simulated: &[Vec<SysResult>]) -> Option<&'static str> {
    let succeeds = |results: &[SysResult]| results.iter().map(SysResult::is_ok).collect::<Vec<_>>();
    simulated
        .windows(2)
        .any(|pair| succeeds(&pair[0]) != succeeds(&pair[1]))
        .then_some(ORDER_DEPENDENT_EXCEPTION)
}

/// One policy's verdicts on one test: the simulated run, the host runs,
/// and the host schedules checked against the simulated kernel.
struct PolicyVerdicts {
    sim: TestOutcome,
    host: HostTestOutcome,
    linearisation: Linearisation,
}

/// The step [`run_host_fig6`] runs on each test: the sv6 policy, then the
/// Linux-like one.
type Fig6Verdicts = [PolicyVerdicts; 2];

/// The aggregated result of a host Figure 6 run.
#[derive(Clone, Debug)]
pub struct HostFig6Results {
    /// The simulated heatmaps, for side-by-side comparison.
    pub sim_sv6: Figure6Report,
    pub sim_linux: Figure6Report,
    /// The host heatmaps.
    pub host_sv6: Figure6Report,
    pub host_linux: Figure6Report,
    /// Every sim-free→host-conflict divergence, in either policy (none in a
    /// healthy run).
    pub divergences: Vec<Fig6Divergence>,
    /// Every test, in either policy, whose host results matched no
    /// sequential order on the simulated kernel (none in a healthy run).
    pub linearisation_violations: Vec<Fig6Violation>,
    /// Every test, in either policy, whose host runs lost or duplicated a
    /// datagram (none in a healthy run).
    pub conservation_violations: Vec<Fig6Violation>,
    /// Number of distinct tests run (each on four kernels).
    pub tests_run: usize,
    /// Accesses dropped across every traced window (0 in a healthy run).
    pub dropped: usize,
    /// The most accesses one core recorded in any traced window, against
    /// `scr_mtrace::DEFAULT_LOG_CAPACITY` slots per core.
    pub max_window_accesses: usize,
    /// Per-line access/conflict heat over every sv6-host traced window.
    pub heat_sv6: HeatMap,
    /// Per-line access/conflict heat over every linux-host traced window.
    pub heat_linux: HeatMap,
}

impl HostFig6Results {
    /// Every divergence: none is explained, so each fails the cross-check.
    pub fn unexplained_divergences(&self) -> Vec<&Fig6Divergence> {
        self.divergences.iter().collect()
    }

    /// One line per divergence, for diagnostics and reports.
    pub fn describe_divergences(&self) -> String {
        self.divergences
            .iter()
            .map(|d| {
                format!(
                    "{} on {} ({} ∥ {}): {}",
                    d.test_id,
                    d.kernel,
                    d.calls.0.name(),
                    d.calls.1.name(),
                    d.shared_labels.join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Linearisation and conservation violations not covered by the
    /// documented exception list.
    pub fn unexplained_violations(&self) -> Vec<&Fig6Violation> {
        self.linearisation_violations
            .iter()
            .chain(&self.conservation_violations)
            .filter(|v| v.exception.is_none())
            .collect()
    }

    /// One line per linearisation or conservation violation.
    pub fn describe_violations(&self) -> String {
        let linearisation = self
            .linearisation_violations
            .iter()
            .map(|v| ("linearisation", v));
        let conservation = self
            .conservation_violations
            .iter()
            .map(|v| ("conservation", v));
        linearisation
            .chain(conservation)
            .map(|(property, v)| {
                format!(
                    "{} on {} ({} ∥ {}): {property} broken, host results {:?} [{}]",
                    v.test_id,
                    v.kernel,
                    v.calls.0.name(),
                    v.calls.1.name(),
                    v.results,
                    v.exception.unwrap_or("UNEXPLAINED")
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Records one swept unit's skips (in the simulated reports, which
    /// print them), four verdicts per test, its divergences and its
    /// violations. The unit's tests are dropped here.
    fn absorb(&mut self, unit: SweptUnit<Fig6Verdicts>) {
        let (a, b) = unit.calls;
        for report in [&mut self.sim_sv6, &mut self.sim_linux] {
            report.record_skips(a, b, &unit.skip_reasons);
        }
        for [sv6, linux] in unit.results {
            self.tests_run += 1;
            self.sim_sv6.record(a, b, sv6.sim.conflict_free);
            self.sim_linux.record(a, b, linux.sim.conflict_free);
            self.host_sv6.record(a, b, sv6.host.conflict_free);
            self.host_linux.record(a, b, linux.host.conflict_free);
            for (kernel, verdicts) in [("sv6-host", sv6), ("linux-host", linux)] {
                let PolicyVerdicts {
                    sim,
                    host,
                    linearisation,
                } = verdicts;
                self.dropped += host.dropped;
                self.max_window_accesses = self.max_window_accesses.max(host.max_window_accesses);
                if sim.conflict_free && !host.conflict_free {
                    self.divergences.push(Fig6Divergence {
                        test_id: host.test_id.clone(),
                        kernel,
                        calls: (a, b),
                        shared_labels: host.shared_labels.clone(),
                    });
                }
                let violation = || Fig6Violation {
                    test_id: host.test_id.clone(),
                    kernel,
                    calls: (a, b),
                    results: host.results.clone(),
                    exception: None,
                };
                if !linearisation.linearises {
                    self.linearisation_violations.push(Fig6Violation {
                        exception: classify_linearisation(&linearisation.simulated),
                        ..violation()
                    });
                }
                if !host.conserved {
                    self.conservation_violations.push(violation());
                }
            }
        }
    }
}

/// Runs the full host Figure 6 pipeline: generates tests for every
/// unordered pair of `config.calls`, runs each on the simulated sv6 and
/// Linux kernels and on the host kernel in both modes, aggregates four
/// heatmaps, and records every SIM↔host divergence, linearisation
/// violation and conservation violation of either policy.
///
/// The corpus is the one `scr_core::run_commuter` generates for the same
/// model, calls and assignment bound: both consume `scr_core::run_sweep`.
/// With `config.threads > 1` its (pair, shape) units are claimed by that
/// many workers and aggregated in unit order on the calling thread, so the
/// corpus and the sim columns are byte-identical to a sequential run. Heat
/// maps are folded concurrently — their per-label counters are
/// order-independent sums.
pub fn run_host_fig6(config: &HostFig6Config) -> HostFig6Results {
    let sweep = CommuterConfig {
        model: config.model,
        calls: config.calls.clone(),
        max_assignments_per_case: config.max_assignments_per_case,
        threads: config.threads,
        ..CommuterConfig::default()
    };
    let sim_sv6 = Sv6Factory {
        cores: config.cores,
    };
    let sim_linux = LinuxLikeFactory {
        cores: config.cores,
    };
    let heat_sv6 = HeatMap::new();
    let heat_linux = HeatMap::new();
    let policies: [(HostMode, &dyn KernelFactory, &HeatMap); 2] = [
        (HostMode::Sv6, &sim_sv6, &heat_sv6),
        (HostMode::Linuxlike, &sim_linux, &heat_linux),
    ];
    let mut results = HostFig6Results {
        sim_sv6: Figure6Report::new("sv6"),
        sim_linux: Figure6Report::new("Linux"),
        host_sv6: Figure6Report::new("sv6-host"),
        host_linux: Figure6Report::new("linux-host"),
        divergences: Vec::new(),
        linearisation_violations: Vec::new(),
        conservation_violations: Vec::new(),
        tests_run: 0,
        dropped: 0,
        max_window_accesses: 0,
        heat_sv6: HeatMap::new(),
        heat_linux: HeatMap::new(),
    };
    run_sweep(
        &sweep,
        |test| {
            policies.map(|(mode, factory, heat)| {
                let sim = run_test(factory, test);
                let host = run_test_host_with(
                    mode,
                    config.cores,
                    test,
                    config.schedules_per_test,
                    Some(heat),
                );
                let linearisation = linearise(factory, test, sim.results.clone(), &host.results);
                PolicyVerdicts {
                    sim,
                    host,
                    linearisation,
                }
            })
        },
        |swept| {
            if let Swept::Unit(unit) = swept {
                results.absorb(unit);
            }
        },
    );
    results.heat_sv6 = heat_sv6;
    results.heat_linux = heat_linux;
    results
}

/// The §4 extension calls — datagram sockets with optional ordering and
/// `fork`/`posix_spawn`/`wait` — plus `open`, so the mixed pairs of the
/// paper's process-management discussion (`posix_spawn ∥ open` scaling
/// where `fork ∥ open` cannot) are covered. Their pairs run through
/// [`run_host_fig6`] like any other.
pub fn ext_calls() -> Vec<CallKind> {
    vec![
        CallKind::Socket,
        CallKind::Send,
        CallKind::Recv,
        CallKind::Fork,
        CallKind::PosixSpawn,
        CallKind::Wait,
        CallKind::Open,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_kernel::api::{OpenFlags, SocketOrder};

    fn manual_test(id: &str, calls: (CallKind, CallKind), a: SysOp, b: SysOp) -> ConcreteTest {
        ConcreteTest {
            id: id.into(),
            calls: vec![calls.0, calls.1],
            setup: vec![],
            ops: vec![a, b],
            procs: 2,
        }
    }

    fn create_op(pid: usize, name: &str, anyfd: bool) -> SysOp {
        let mut flags = OpenFlags::create();
        if anyfd {
            flags = flags.with_anyfd();
        }
        SysOp::Open {
            pid,
            name: name.into(),
            flags,
        }
    }

    #[test]
    fn creating_different_files_scales_on_host_sv6_but_not_linuxlike() {
        let test = manual_test(
            "host_create_different",
            (CallKind::Open, CallKind::Open),
            create_op(0, "alpha", false),
            create_op(1, "bravo", false),
        );
        let sv6 = run_test_host(HostMode::Sv6, 4, &test, 2);
        assert!(sv6.conflict_free, "sv6-host shared {:?}", sv6.shared_labels);
        let linux = run_test_host(HostMode::Linuxlike, 4, &test, 1);
        assert!(!linux.conflict_free);
        assert!(
            linux.shared_labels.iter().any(|l| l == "root.i_mutex"),
            "the parent directory's lock must be a recorded conflict, got {:?}",
            linux.shared_labels
        );
    }

    #[test]
    fn heat_map_agrees_with_the_outcome_conflicts() {
        let test = manual_test(
            "host_create_different_heat",
            (CallKind::Open, CallKind::Open),
            create_op(0, "alpha", false),
            create_op(1, "bravo", false),
        );
        let heat = HeatMap::new();
        let linux = run_test_host_with(HostMode::Linuxlike, 4, &test, 2, Some(&heat));
        assert!(!linux.conflict_free);
        // Every label the outcome reports as conflicting must show up hot.
        for label in &linux.shared_labels {
            let entry = heat
                .entry(label)
                .unwrap_or_else(|| panic!("label {label} conflicting but absent from heat map"));
            assert!(entry.conflict_windows > 0, "{label}: {entry:?}");
            assert!(entry.accesses() > 0);
        }
        // Two schedules were traced, so no line can be hot in more windows.
        let i_mutex = heat.entry("root.i_mutex").expect("directory lock traced");
        assert!(i_mutex.conflict_windows <= 2);
        assert!(heat
            .render_top("linux-host hottest lines", 5)
            .contains("root.i_mutex"));
    }

    #[test]
    fn same_process_double_create_contends_on_lowest_fd_and_anyfd_fixes_it() {
        // The paper's §1 example on real threads: two creates of different
        // names in one process conflict on the descriptor table under
        // POSIX's lowest-FD rule, and O_ANYFD removes the contention.
        let lowest = manual_test(
            "host_lowest_fd",
            (CallKind::Open, CallKind::Open),
            create_op(0, "alpha", false),
            create_op(0, "bravo", false),
        );
        let outcome = run_test_host(HostMode::Sv6, 4, &lowest, 2);
        assert!(!outcome.conflict_free);
        assert!(
            outcome.shared_labels.iter().all(|l| l.contains("].fd[")),
            "only fd slots may conflict, got {:?}",
            outcome.shared_labels
        );
        let anyfd = manual_test(
            "host_anyfd",
            (CallKind::Open, CallKind::Open),
            create_op(0, "alpha", true),
            create_op(0, "bravo", true),
        );
        let outcome = run_test_host(HostMode::Sv6, 4, &anyfd, 2);
        assert!(
            outcome.conflict_free,
            "O_ANYFD must remove the contention, got {:?}",
            outcome.shared_labels
        );
    }

    /// The pair's outcomes on simulated sv6 and on sv6-host (two schedules).
    fn sv6_verdicts(test: &ConcreteTest) -> (TestOutcome, HostTestOutcome) {
        let sim = run_test(&Sv6Factory { cores: 4 }, test);
        let host = run_test_host(HostMode::Sv6, 4, test, 2);
        (sim, host)
    }

    #[test]
    fn unordered_send_recv_with_local_message_is_conflict_free_everywhere() {
        // §4's headline: with a message pending in the receiver's own
        // queue, unordered send ∥ recv commutes and is conflict-free.
        let send_recv = |order, preload_core| {
            let send = |msg: &str| SysOp::Send {
                sock: 0,
                msg: msg.as_bytes().to_vec(),
            };
            ConcreteTest {
                setup: vec![(0, SysOp::Socket { order }), (preload_core, send("pre"))],
                ..manual_test(
                    "send_recv",
                    (CallKind::Send, CallKind::Recv),
                    send("a0"),
                    SysOp::Recv { sock: 0 },
                )
            }
        };
        let (sim, host) = sv6_verdicts(&send_recv(SocketOrder::Unordered, 1));
        assert!(sim.conflict_free, "sim must scale: {:?}", sim.shared_labels);
        assert!(
            host.conflict_free,
            "host must scale, shared {:?}",
            host.shared_labels
        );
        assert!(host.conserved);
        // POSIX ordering forces one queue: the same pair conflicts.
        let (sim, host) = sv6_verdicts(&send_recv(SocketOrder::Ordered, 0));
        assert!(!sim.conflict_free, "ordered sockets must conflict");
        assert!(!host.conflict_free);
        assert!(
            host.shared_labels.iter().any(|l| l == "socket[0].queue"),
            "the shared ordered queue must be the conflict, got {:?}",
            host.shared_labels
        );
        assert!(host.conserved);
    }

    #[test]
    fn spawn_scales_beside_open_where_forks_snapshot_conflicts() {
        // posix_spawn touches only the listed descriptor, so it stays
        // conflict-free beside a lowest-FD open of a later slot, while
        // fork's whole-table snapshot conflicts with it.
        let beside_open = |op, call| ConcreteTest {
            setup: vec![(0, create_op(0, "shared", false))],
            ..manual_test(
                "beside_open",
                (call, CallKind::Open),
                op,
                create_op(0, "other", false),
            )
        };
        let spawn = SysOp::Spawn {
            pid: 0,
            dup_fds: vec![0],
        };
        let (sim, host) = sv6_verdicts(&beside_open(spawn, CallKind::PosixSpawn));
        assert!(sim.conflict_free, "{:?}", sim.shared_labels);
        assert!(host.conflict_free, "{:?}", host.shared_labels);
        let fork = SysOp::Fork { pid: 0 };
        let (sim, host) = sv6_verdicts(&beside_open(fork, CallKind::Fork));
        assert!(!sim.conflict_free);
        assert!(!host.conflict_free);
        assert!(
            host.shared_labels.iter().all(|l| l.contains("].fd[")),
            "fork ∥ open conflicts on descriptor slots, got {:?}",
            host.shared_labels
        );
    }

    #[test]
    fn linearisation_exception_requires_the_orders_to_disagree_on_failure() {
        // open(f) ∥ open(f, O_CREAT) in one process: A fails in one order
        // and succeeds in the other, so the test does not commute.
        let enoent = vec![
            SysResult::Err(scr_kernel::api::Errno::ENOENT),
            SysResult::Value(0),
        ];
        let opened = vec![SysResult::Value(1), SysResult::Value(0)];
        assert_eq!(
            classify_linearisation(&[enoent, opened]),
            Some(ORDER_DEPENDENT_EXCEPTION)
        );
        // Two spawns racing for the next pid both succeed in either order:
        // a host result neither order gives stays unexplained.
        let pids = vec![SysResult::Value(2), SysResult::Value(3)];
        let swapped = vec![SysResult::Value(3), SysResult::Value(2)];
        assert_eq!(classify_linearisation(&[pids, swapped]), None);
    }

    #[test]
    fn parallel_sweep_reproduces_the_sequential_sim_columns() {
        // The host columns race real threads and may legitimately differ
        // between runs; the generated corpus and the *simulated* columns
        // are deterministic, so a multi-worker sweep must reproduce them
        // byte for byte.
        let config = HostFig6Config {
            schedules_per_test: 1,
            ..HostFig6Config::quick(&[CallKind::Stat, CallKind::Unlink])
        };
        let sequential = run_host_fig6(&config);
        let parallel = run_host_fig6(&HostFig6Config {
            threads: 3,
            ..config
        });
        assert_eq!(sequential.tests_run, parallel.tests_run);
        assert_eq!(sequential.sim_sv6.render(), parallel.sim_sv6.render());
        assert_eq!(sequential.sim_linux.render(), parallel.sim_linux.render());
        assert_eq!(
            sequential.host_sv6.total_tests(),
            parallel.host_sv6.total_tests()
        );
        assert!(parallel.unexplained_divergences().is_empty());
    }

    #[test]
    fn small_pipeline_cross_checks_cleanly() {
        let config = HostFig6Config {
            schedules_per_test: 1,
            ..HostFig6Config::quick(&[CallKind::Stat, CallKind::Unlink])
        };
        let results = run_host_fig6(&config);
        assert!(results.tests_run > 0);
        assert_eq!(results.dropped, 0);
        assert_eq!(
            results.sim_sv6.total_tests(),
            results.host_sv6.total_tests()
        );
        assert!(
            results.unexplained_divergences().is_empty(),
            "unexplained divergences:\n{}",
            results.describe_divergences()
        );
        assert!(
            results.unexplained_violations().is_empty(),
            "{}",
            results.describe_violations()
        );
        // linux-host scales exactly where simulated Linux does.
        assert_eq!(
            results.host_linux.total_conflict_free(),
            results.sim_linux.total_conflict_free()
        );
    }
}
