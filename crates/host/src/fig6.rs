//! The host-side Figure 6 pipeline: the conflict heatmap on real threads.
//!
//! The simulated pipeline (`scr_core::run_commuter`) runs every generated
//! test on the simulated kernels and reports which commutative pairs share
//! cache lines. This module replays the same tests on the real-threads
//! [`HostKernel`] with a `scr-hostmtrace` tracing window around the
//! concurrent pair, producing [`Figure6Report`]s labelled `sv6-host` and
//! `linux-host` — and cross-checks them against the simulated heatmap.
//!
//! [`HostKernel`]: crate::kernel::HostKernel
//!
//! The cross-check invariant is one-directional, and the same for both
//! policies: every test that is conflict-free on a simulated kernel must be
//! conflict-free on the host kernel of the same policy too, in **every**
//! schedule the hardware picks — simulated sv6 against `sv6-host`,
//! simulated Linux-like against `linux-host`. Both sides run the one kernel
//! body, so they record the same lines. The only tolerated exceptions are
//! the documented lowest-FD-allocation contention cases (the paper's §1
//! example: POSIX's "lowest available descriptor" rule makes
//! otherwise-commutative calls contend on the descriptor table). Such
//! divergences are classified by their conflicting labels and recorded
//! explicitly in [`HostFig6Results::divergences`] with the
//! [`LOWEST_FD_EXCEPTION`] tag — never waived silently; anything else is an
//! unexplained divergence and fails the acceptance test.
//!
//! [`run_host_fig6`] is a consumer of the COMMUTER sweep engine
//! (`scr_core::run_sweep`): the engine generates exactly the corpus
//! `scr_core::run_commuter` generates for the same bounds, each test runs
//! on the four kernels on the worker that generated it, and the consumer
//! keeps the verdicts and drops the tests.

use crate::harness::race;
use crate::kernel::{host_kernel_with, HostMode};
use scr_core::pipeline::bucket_distinct_names;
use scr_core::{
    analyze_pair, enumerate_shapes, generate_tests, run_sweep, run_test, CommuterConfig,
    ConcreteTest, Figure6Report, LinuxLikeFactory, Sv6Factory, Swept, SweptUnit, TestOutcome,
};
use scr_hostmtrace::{HostConflictReport, HostTraceSink};
use scr_kernel::api::{perform, SockId, SocketOrder, SysOp, SysResult, SyscallApi};
use scr_kernel::{Sv6Kernel, Sv6Options};
use scr_model::{pair_config, CallKind, ModelConfig};
use scr_mtrace::{AccessKind, SimMachine};
use scr_obs::HeatMap;

/// The exception tag for divergences fully explained by lowest-FD
/// descriptor-table contention (every conflicting line is a `proc[p].fd[f]`
/// slot). See §1 of the paper: `O_ANYFD` removes exactly this contention.
pub const LOWEST_FD_EXCEPTION: &str = "lowest-fd-allocation";

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

/// The outcome of one traced host replay.
#[derive(Clone, Debug)]
pub struct HostTestOutcome {
    /// The test's identifier.
    pub test_id: String,
    /// Whether the traced window was conflict-free.
    pub conflict_free: bool,
    /// Labels of the lines shared between the two threads.
    pub shared_labels: Vec<String>,
    /// The results the two operations returned.
    pub results: (SysResult, SysResult),
    /// Accesses dropped by log overflow (0 in any healthy run).
    pub dropped: usize,
    /// The most accesses one core recorded in any schedule's window: the
    /// log headroom the test used.
    pub max_window_accesses: usize,
}

/// Replays one test on an instrumented kernel: setup untraced, then the
/// commutative pair inside a tracing window — on two real threads when
/// `concurrent`, or back to back on the calling thread otherwise (the
/// deterministic mode used to validate instrumentation faithfulness).
/// Returns the sink too, so callers can resolve every access's label.
pub fn replay_traced(
    mode: HostMode,
    cores: usize,
    test: &ConcreteTest,
    concurrent: bool,
) -> (
    std::sync::Arc<HostTraceSink>,
    HostConflictReport,
    (SysResult, SysResult),
) {
    let sink = HostTraceSink::new(cores.max(2));
    let kernel = host_kernel_with(cores, mode, Sv6Options::default(), Some(&sink));
    let [a, b] = race(
        &kernel,
        test.procs,
        &test.setup,
        [&test.op_a, &test.op_b],
        concurrent,
        || sink.begin_window(),
    );
    let report = sink.end_window();
    (sink, report, (a, b))
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

/// Runs one test on real threads under `schedules` schedules; the outcome
/// is conflict-free only if every schedule was, and the shared labels are
/// the union over schedules.
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
    let mut dropped = 0;
    let mut max_window_accesses = 0;
    let mut results = (SysResult::Unit, SysResult::Unit);
    for _ in 0..schedules.max(1) {
        let (sink, report, res) = replay_traced(mode, cores, test, true);
        if let Some(heat) = heat {
            heat.fold_report(&report, |line| normalize_pipe_label(&sink.label_of(line)));
        }
        conflict_free &= report.is_conflict_free();
        shared_labels.extend(report.conflicting_labels());
        dropped += report.dropped;
        max_window_accesses = max_window_accesses.max(report.max_core_accesses());
        results = res;
    }
    shared_labels.sort();
    shared_labels.dedup();
    HostTestOutcome {
        test_id: test.id.clone(),
        conflict_free,
        shared_labels,
        results,
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
    /// `Some(tag)` when the divergence is in the documented exception list
    /// (currently only [`LOWEST_FD_EXCEPTION`]); `None` means unexplained.
    pub exception: Option<&'static str>,
}

/// Classifies a divergence by its conflicting labels: an exception only
/// when *every* shared line is a descriptor-table slot (`proc[p].fd[f]`).
pub fn classify_divergence(shared_labels: &[String]) -> Option<&'static str> {
    if !shared_labels.is_empty() && shared_labels.iter().all(|l| is_fd_slot_label(l)) {
        Some(LOWEST_FD_EXCEPTION)
    } else {
        None
    }
}

fn is_fd_slot_label(label: &str) -> bool {
    label.starts_with("proc[") && label.contains("].fd[")
}

/// The step [`run_host_fig6`] runs on each test: simulated sv6, simulated
/// Linux, sv6-host and linux-host, in that order.
type Fig6Verdicts = (TestOutcome, TestOutcome, HostTestOutcome, HostTestOutcome);

/// The aggregated result of a host Figure 6 run.
#[derive(Clone, Debug)]
pub struct HostFig6Results {
    /// The simulated heatmaps, for side-by-side comparison.
    pub sim_sv6: Figure6Report,
    pub sim_linux: Figure6Report,
    /// The host heatmaps.
    pub host_sv6: Figure6Report,
    pub host_linux: Figure6Report,
    /// Every sim-free→host-conflict divergence, in either policy,
    /// classified.
    pub divergences: Vec<Fig6Divergence>,
    /// Number of distinct tests run (each on four kernels).
    pub tests_run: usize,
    /// Accesses dropped across every traced window (0 in a healthy run).
    pub dropped: usize,
    /// The most accesses one core recorded in any traced window, against
    /// `scr_hostmtrace::DEFAULT_LOG_CAPACITY` slots per core.
    pub max_window_accesses: usize,
    /// Per-line access/conflict heat over every sv6-host traced window.
    pub heat_sv6: HeatMap,
    /// Per-line access/conflict heat over every linux-host traced window.
    pub heat_linux: HeatMap,
}

impl HostFig6Results {
    /// Divergences not covered by the documented exception list.
    pub fn unexplained_divergences(&self) -> Vec<&Fig6Divergence> {
        self.divergences
            .iter()
            .filter(|d| d.exception.is_none())
            .collect()
    }

    /// Divergences covered by the exception list.
    pub fn explained_divergences(&self) -> Vec<&Fig6Divergence> {
        self.divergences
            .iter()
            .filter(|d| d.exception.is_some())
            .collect()
    }

    /// One line per divergence, for diagnostics and reports.
    pub fn describe_divergences(&self) -> String {
        self.divergences
            .iter()
            .map(|d| {
                format!(
                    "{} on {} ({} ∥ {}): {} [{}]",
                    d.test_id,
                    d.kernel,
                    d.calls.0.name(),
                    d.calls.1.name(),
                    d.shared_labels.join(", "),
                    d.exception.unwrap_or("UNEXPLAINED")
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Records one swept unit's skips, four verdicts per test and its
    /// divergences. The unit's tests are dropped here.
    fn absorb(&mut self, unit: SweptUnit<Fig6Verdicts>) {
        let (a, b) = unit.calls;
        let reports = [
            &mut self.sim_sv6,
            &mut self.sim_linux,
            &mut self.host_sv6,
            &mut self.host_linux,
        ];
        for report in reports {
            report.record_skips(a, b, &unit.skip_reasons);
        }
        for (sim_sv6, sim_linux, host_sv6, host_linux) in unit.results {
            self.tests_run += 1;
            self.dropped += host_sv6.dropped + host_linux.dropped;
            self.max_window_accesses = self
                .max_window_accesses
                .max(host_sv6.max_window_accesses)
                .max(host_linux.max_window_accesses);
            self.sim_sv6.record(a, b, sim_sv6.conflict_free);
            self.sim_linux.record(a, b, sim_linux.conflict_free);
            self.host_sv6.record(a, b, host_sv6.conflict_free);
            self.host_linux.record(a, b, host_linux.conflict_free);
            for (kernel, sim, host) in [
                ("sv6-host", sim_sv6, host_sv6),
                ("linux-host", sim_linux, host_linux),
            ] {
                if sim.conflict_free && !host.conflict_free {
                    self.divergences.push(Fig6Divergence {
                        test_id: host.test_id,
                        kernel,
                        calls: (a, b),
                        exception: classify_divergence(&host.shared_labels),
                        shared_labels: host.shared_labels,
                    });
                }
            }
        }
    }
}

/// Runs the full host Figure 6 pipeline: generates tests for every
/// unordered pair of `config.calls`, runs each on the simulated sv6 and
/// Linux kernels and on the host kernel in both modes, aggregates four
/// heatmaps, and records every SIM↔host divergence of either policy.
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
    let mut results = HostFig6Results {
        sim_sv6: Figure6Report::new("sv6"),
        sim_linux: Figure6Report::new("Linux"),
        host_sv6: Figure6Report::new("sv6-host"),
        host_linux: Figure6Report::new("linux-host"),
        divergences: Vec::new(),
        tests_run: 0,
        dropped: 0,
        max_window_accesses: 0,
        heat_sv6: HeatMap::new(),
        heat_linux: HeatMap::new(),
    };
    run_sweep(
        &sweep,
        |test| {
            (
                run_test(&sim_sv6, test),
                run_test(&sim_linux, test),
                run_test_host_with(
                    HostMode::Sv6,
                    config.cores,
                    test,
                    config.schedules_per_test,
                    Some(&heat_sv6),
                ),
                run_test_host_with(
                    HostMode::Linuxlike,
                    config.cores,
                    test,
                    config.schedules_per_test,
                    Some(&heat_linux),
                ),
            )
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

// --- §4 extension pairs: sockets and process management -------------------
//
// The §4 extensions — datagram `send`/`recv` with optional ordering,
// `fork`/`posix_spawn`/`wait` — are modelled symbolically (`scr-model`'s
// socket queues and process table), so their host cross-check corpus is
// *generated* by TESTGEN exactly like the file-system corpus: every
// unordered pair with at least one extension call is analysed, each
// commutative case is materialised into a [`ConcreteTest`], and every test
// runs through the same protocol as the rest of Figure 6 — setup untraced,
// the pair traced on cores 0 and 1, SIM-conflict-free ⇒ host-conflict-free.
//
// Because several of these pairs commute only up to fungible values (two
// spawns race for the next pid; unordered receives race for equivalent
// messages), the result check is a linearization check — the host's racing
// outcome must equal the simulated outcome under *some* order of the two
// calls — plus a message conservation check: every datagram sent to an
// existing socket is received or still queued, exactly once.
//
// A hand-enumerated corpus ([`ext_corpus`]) predates the generated one and
// is kept as a regression floor: the acceptance test checks every hand
// test appears, up to isomorphism ([`ext_signature`]), among the generated
// tests.

/// Satisfying assignments enumerated per commutative case when building
/// the generated extension corpus (smaller than the fs pipeline's limit:
/// extension pairs have many shapes and every test runs on four kernels).
pub const EXT_MAX_ASSIGNMENTS_PER_CASE: usize = 12;

/// Total test budget for [`run_ext_fig6`]: the generated corpus is
/// round-robined across call pairs down to this many tests so the
/// cross-check stays proportionate to the rest of the suite.
pub const EXT_CORPUS_BUDGET: usize = 96;

/// The calls whose pairs make up the extension corpus: every §4 extension
/// call, plus `open` so the mixed pairs of the paper's process-management
/// discussion (`posix_spawn ∥ open` scaling where `fork ∥ open` cannot)
/// are covered.
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

/// Every unordered pair over [`ext_calls`] with at least one extension
/// call (pure fs pairs like `open ∥ open` belong to the main pipeline).
pub fn ext_pair_calls() -> Vec<(CallKind, CallKind)> {
    let calls = ext_calls();
    let mut pairs = Vec::new();
    for (i, &a) in calls.iter().enumerate() {
        for &b in calls.iter().skip(i) {
            if a.is_extension() || b.is_extension() {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// The TESTGEN-generated extension corpus plus its skip histogram.
#[derive(Clone, Debug)]
pub struct ExtCorpus {
    /// Every materialised test, in pair-enumeration order.
    pub tests: Vec<ConcreteTest>,
    /// Why satisfying assignments were skipped, summed over all pairs.
    pub skip_reasons: scr_core::SkipHistogram,
}

/// Generates the extension corpus: every pair from [`ext_pair_calls`]
/// under its own [`pair_config`] specialisation, `max_per_case`
/// assignments per commutative case. The result is memoised for the
/// default limit via [`generated_ext_corpus`]; call this directly to use a
/// different limit.
pub fn build_ext_corpus(max_per_case: usize) -> ExtCorpus {
    let base = ModelConfig::default();
    let names = bucket_distinct_names(8);
    let mut tests = Vec::new();
    let mut skip_reasons = scr_core::SkipHistogram::new();
    for (call_a, call_b) in ext_pair_calls() {
        let cfg = pair_config(&base, call_a, call_b);
        for shape in enumerate_shapes(call_a, call_b, &cfg) {
            let analysis = analyze_pair(&shape, &cfg);
            if analysis.cases.is_empty() {
                continue;
            }
            let generated = generate_tests(&shape, &analysis.cases, &cfg, &names, max_per_case);
            for (&reason, &count) in &generated.skip_reasons {
                *skip_reasons.entry(reason).or_default() += count;
            }
            tests.extend(generated.tests);
        }
    }
    ExtCorpus {
        tests,
        skip_reasons,
    }
}

/// The generated extension corpus at the default per-case limit, built
/// once per process (generation runs the symbolic analyzer over 27 pairs,
/// which is far more expensive than replaying the corpus).
pub fn generated_ext_corpus() -> &'static ExtCorpus {
    static CORPUS: std::sync::OnceLock<ExtCorpus> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| build_ext_corpus(EXT_MAX_ASSIGNMENTS_PER_CASE))
}

/// Round-robins `tests` across their call pairs down to at most `budget`
/// tests, preserving within-pair order — so a budgeted corpus still covers
/// every pair that generated anything.
pub fn budget_corpus(tests: &[ConcreteTest], budget: usize) -> Vec<ConcreteTest> {
    let mut by_pair: std::collections::BTreeMap<(&str, &str), Vec<&ConcreteTest>> =
        std::collections::BTreeMap::new();
    for test in tests {
        by_pair
            .entry((test.calls.0.name(), test.calls.1.name()))
            .or_default()
            .push(test);
    }
    let mut out = Vec::new();
    let mut round = 0;
    while out.len() < budget.min(tests.len()) {
        let mut advanced = false;
        for pool in by_pair.values() {
            if let Some(test) = pool.get(round) {
                out.push((*test).clone());
                advanced = true;
                if out.len() == budget {
                    break;
                }
            }
        }
        if !advanced {
            break;
        }
        round += 1;
    }
    out
}

/// The hand-enumerated §4 corpus: socket pairs in both disciplines and the
/// spawn/fork/wait pairs, every one of them SIM-commutative in its
/// materialised state (the corpus mirrors TESTGEN's rule of only
/// materialising commutative cases — e.g. `recv ∥ recv` on an ordered
/// socket appears only with equal pending messages, since distinct heads
/// do not commute). Kept as the regression floor for the generated corpus:
/// see `generated_corpus_covers_every_hand_enumerated_test`.
pub fn ext_corpus() -> Vec<ConcreteTest> {
    let sock = |order| SysOp::Socket { order };
    let send = |sock, msg: &str| SysOp::Send {
        sock,
        msg: msg.as_bytes().to_vec(),
    };
    let recv = |sock| SysOp::Recv { sock };
    let open = |pid, name: &str| SysOp::Open {
        pid,
        name: name.into(),
        flags: scr_kernel::api::OpenFlags::create(),
    };
    let spawn1 = |pid| SysOp::Spawn {
        pid,
        dup_fds: vec![0],
    };
    let test = |id: &str, calls, setup: Vec<(usize, SysOp)>, op_a, op_b| ConcreteTest {
        id: id.into(),
        calls,
        setup,
        op_a,
        op_b,
        procs: 2,
    };
    vec![
        test(
            "ext_send_send_ordered",
            (CallKind::Send, CallKind::Send),
            vec![(0, sock(SocketOrder::Ordered))],
            send(0, "a0"),
            send(0, "b1"),
        ),
        test(
            "ext_send_send_unordered",
            (CallKind::Send, CallKind::Send),
            vec![(0, sock(SocketOrder::Unordered))],
            send(0, "a0"),
            send(0, "b1"),
        ),
        // §4's headline: with a message pending in the receiver's own
        // queue, unordered send ∥ recv commutes AND is conflict-free.
        test(
            "ext_send_recv_unordered_local",
            (CallKind::Send, CallKind::Recv),
            vec![(0, sock(SocketOrder::Unordered)), (1, send(0, "pre"))],
            send(0, "a0"),
            recv(0),
        ),
        // POSIX ordering forces one queue: the same pair conflicts.
        test(
            "ext_send_recv_ordered",
            (CallKind::Send, CallKind::Recv),
            vec![(0, sock(SocketOrder::Ordered)), (0, send(0, "pre"))],
            send(0, "a0"),
            recv(0),
        ),
        // Ordered recv ∥ recv commutes only with equal heads.
        test(
            "ext_recv_recv_ordered_equal_heads",
            (CallKind::Recv, CallKind::Recv),
            vec![
                (0, sock(SocketOrder::Ordered)),
                (0, send(0, "m")),
                (0, send(0, "m")),
            ],
            recv(0),
            recv(0),
        ),
        test(
            "ext_recv_recv_unordered_local_queues",
            (CallKind::Recv, CallKind::Recv),
            vec![
                (0, sock(SocketOrder::Unordered)),
                (0, send(0, "m0")),
                (1, send(0, "m1")),
            ],
            recv(0),
            recv(0),
        ),
        // Empty receives: commute (both EAGAIN) but the steal scan makes
        // them conflict — on both substrates.
        test(
            "ext_recv_recv_unordered_empty",
            (CallKind::Recv, CallKind::Recv),
            vec![(0, sock(SocketOrder::Unordered))],
            recv(0),
            recv(0),
        ),
        test(
            "ext_fork_fork",
            (CallKind::Fork, CallKind::Fork),
            vec![(0, open(0, "shared"))],
            SysOp::Fork { pid: 0 },
            SysOp::Fork { pid: 0 },
        ),
        test(
            "ext_spawn_spawn",
            (CallKind::PosixSpawn, CallKind::PosixSpawn),
            vec![(0, open(0, "shared"))],
            spawn1(0),
            spawn1(0),
        ),
        // posix_spawn touches only the listed descriptor, so it stays
        // conflict-free beside a lowest-FD open of a later slot…
        test(
            "ext_spawn_open",
            (CallKind::PosixSpawn, CallKind::Open),
            vec![(0, open(0, "shared"))],
            spawn1(0),
            open(0, "other"),
        ),
        // …while fork's whole-table snapshot conflicts with it.
        test(
            "ext_fork_open",
            (CallKind::Fork, CallKind::Open),
            vec![(0, open(0, "shared"))],
            SysOp::Fork { pid: 0 },
            open(0, "other"),
        ),
        test(
            "ext_wait_spawn",
            (CallKind::Wait, CallKind::PosixSpawn),
            vec![(0, open(0, "shared")), (0, spawn1(0))],
            SysOp::Wait { pid: 0, child: 2 },
            spawn1(0),
        ),
        test(
            "ext_wait_wait_same_child",
            (CallKind::Wait, CallKind::Wait),
            vec![(0, open(0, "shared")), (0, spawn1(0))],
            SysOp::Wait { pid: 0, child: 2 },
            SysOp::Wait { pid: 1, child: 2 },
        ),
        // A second ordering flavour of the fungible-message steal case:
        // the receiver's local queue is empty, so it must steal the
        // pending message or report the sent one — either way conservation
        // holds.
        test(
            "ext_send_recv_unordered_steal",
            (CallKind::Send, CallKind::Recv),
            vec![(0, sock(SocketOrder::Unordered)), (0, send(0, "pre"))],
            send(0, "a0"),
            recv(0),
        ),
    ]
}

/// How many sockets a test's setup creates. Both kernels number sockets
/// densely from 0, so ids `0..count` exist and anything ≥ count is a
/// deliberate bad-socket probe.
pub fn created_sockets(test: &ConcreteTest) -> usize {
    test.setup
        .iter()
        .filter(|(_, op)| matches!(op, SysOp::Socket { .. }))
        .count()
}

/// The socket ids a test's setup creates (the ones the conservation check
/// drains afterwards).
pub fn socket_ids(test: &ConcreteTest) -> Vec<SockId> {
    (0..created_sockets(test)).collect()
}

/// Every payload the test sends to an *existing* socket (setup and pair),
/// sorted — the "sent" side of the conservation ledger. Sends to bad
/// socket ids fail with EBADF on both substrates and never enter a queue,
/// so they are excluded.
pub fn sent_messages(test: &ConcreteTest) -> Vec<Vec<u8>> {
    let created = created_sockets(test);
    let mut sent: Vec<Vec<u8>> = test
        .setup
        .iter()
        .map(|(_, op)| op)
        .chain([&test.op_a, &test.op_b])
        .filter_map(|op| match op {
            SysOp::Send { sock, msg } if *sock < created => Some(msg.clone()),
            _ => None,
        })
        .collect();
    sent.sort();
    sent
}

/// An isomorphism signature for an extension test: what remains after
/// erasing every fungible detail. Two tests with equal signatures exercise
/// the same commutative scenario:
///
/// * payloads, file names, caller pids and concrete fd numbers are erased
///   (all fungible — TESTGEN picks arbitrary witnesses);
/// * socket identity within the test is kept (`s0`, `s1`, or `bad` for a
///   nonexistent-socket probe), as is each socket's delivery discipline;
/// * setup sends keep their sending core (unordered sockets route by
///   core, so `send@c1` vs `send@c0` distinguishes a local-queue preload
///   from a steal scenario);
/// * setup spawns are counted (their dup lists are fungible: the hand
///   corpus duplicates a file descriptor where the generated corpus
///   duplicates pipe endpoints, but either way the child is reapable);
/// * the traced ops keep their target socket / child pid / spawn dup
///   arity; other setup ops (opens, pipes) are scaffolding and erased.
///
/// `swap_ops` renders the pair in the opposite order: pair enumeration is
/// unordered, so `wait ∥ posix_spawn` in the hand corpus matches a
/// generated `posix_spawn ∥ wait` test.
pub fn ext_signature(test: &ConcreteTest, swap_ops: bool) -> String {
    let created = created_sockets(test);
    let sock_ref = |s: SockId| {
        if s < created {
            format!("s{s}")
        } else {
            "bad".to_string()
        }
    };
    let mut setup: Vec<String> = Vec::new();
    for (core, op) in &test.setup {
        match op {
            SysOp::Socket { order } => setup.push(format!("socket:{order:?}")),
            SysOp::Send { sock, .. } => setup.push(format!("send@c{core}:{}", sock_ref(*sock))),
            SysOp::Spawn { .. } => setup.push("spawn".to_string()),
            _ => {}
        }
    }
    setup.sort();
    let op_sig = |op: &SysOp| match op {
        SysOp::Socket { order } => format!("socket:{order:?}"),
        SysOp::Send { sock, .. } => format!("send:{}", sock_ref(*sock)),
        SysOp::Recv { sock } => format!("recv:{}", sock_ref(*sock)),
        SysOp::Fork { .. } => "fork".to_string(),
        SysOp::Spawn { dup_fds, .. } => format!("spawn:{}", dup_fds.len()),
        SysOp::Wait { child, .. } => {
            if *child >= scr_core::BAD_CHILD_PID {
                "wait:bad".to_string()
            } else {
                format!("wait:p{child}")
            }
        }
        other => other.call_name().to_string(),
    };
    let (a, b) = if swap_ops {
        (&test.op_b, &test.op_a)
    } else {
        (&test.op_a, &test.op_b)
    };
    format!("[{}] {} ∥ {}", setup.join(","), op_sig(a), op_sig(b))
}

/// Results and footprint of a sequential simulated run of an extension
/// test.
#[derive(Clone, Debug)]
pub struct SimExtRun {
    /// The pair's observable results, as (op_a, op_b).
    pub results: (SysResult, SysResult),
    /// Whether the traced pair was conflict-free.
    pub conflict_free: bool,
    /// The traced (core, label, kind) multiset, sorted.
    pub footprint: Vec<(usize, String, AccessKind)>,
}

/// Runs an extension test on a fresh simulated sv6 kernel: setup untraced
/// on its annotated cores, then the pair traced on cores 0 and 1, in the
/// given order (`a_first` false replays B before A — the other
/// linearization).
pub fn run_ext_sim(mode: HostMode, cores: usize, test: &ConcreteTest, a_first: bool) -> SimExtRun {
    let kernel = Sv6Kernel::on_lines(
        Some(&SimMachine::new()),
        cores.max(2),
        Sv6Options::default(),
        mode,
    );
    let machine = scr_kernel::api::KernelApi::machine(&kernel).clone();
    for _ in 0..test.procs.max(2) {
        kernel.new_process();
    }
    machine.stop_tracing();
    for (core, op) in &test.setup {
        machine.on_core(*core, || perform(&kernel, *core, op));
    }
    machine.clear_trace();
    machine.start_tracing();
    let results = if a_first {
        let ra = machine.on_core(0, || perform(&kernel, 0, &test.op_a));
        let rb = machine.on_core(1, || perform(&kernel, 1, &test.op_b));
        (ra, rb)
    } else {
        let rb = machine.on_core(1, || perform(&kernel, 1, &test.op_b));
        let ra = machine.on_core(0, || perform(&kernel, 0, &test.op_a));
        (ra, rb)
    };
    machine.stop_tracing();
    let mut footprint: Vec<_> = machine
        .accesses()
        .iter()
        .map(|a| (a.core, machine.label_of(a.line), a.kind))
        .collect();
    footprint.sort();
    SimExtRun {
        results,
        conflict_free: machine.conflict_report().is_conflict_free(),
        footprint,
    }
}

/// Results, footprint and leftovers of one traced host run of an extension
/// test.
#[derive(Clone, Debug)]
pub struct HostExtRun {
    /// The pair's observable results, as (op_a, op_b).
    pub results: (SysResult, SysResult),
    /// Whether the traced window was conflict-free.
    pub conflict_free: bool,
    /// Labels of lines shared between the two cores.
    pub shared_labels: Vec<String>,
    /// The traced (core, label, kind) multiset, sorted.
    pub footprint: Vec<(usize, String, AccessKind)>,
    /// Messages still queued on the test's sockets afterwards.
    pub leftover: Vec<Vec<u8>>,
    /// Accesses dropped by log overflow (0 in any healthy run).
    pub dropped: usize,
}

/// Replays an extension test on an instrumented host kernel: setup
/// untraced, then the pair inside a tracing window — concurrently on two
/// real threads, or back to back when `concurrent` is false (the
/// deterministic mode the footprint-parity tests use).
pub fn run_ext_host(
    mode: HostMode,
    cores: usize,
    test: &ConcreteTest,
    concurrent: bool,
) -> HostExtRun {
    let sink = HostTraceSink::new(cores.max(2));
    let kernel = host_kernel_with(cores, mode, Sv6Options::default(), Some(&sink));
    let [a, b] = race(
        &kernel,
        test.procs,
        &test.setup,
        [&test.op_a, &test.op_b],
        concurrent,
        || sink.begin_window(),
    );
    let report = sink.end_window();
    let mut footprint: Vec<_> = report
        .accesses
        .iter()
        .map(|a| (a.core, sink.label_of(a.line), a.kind))
        .collect();
    footprint.sort();
    let leftover = socket_ids(test)
        .into_iter()
        .flat_map(|s| kernel.socket_drain_untraced(s))
        .collect();
    HostExtRun {
        results: (a, b),
        conflict_free: report.is_conflict_free(),
        shared_labels: report.conflicting_labels(),
        footprint,
        leftover,
        dropped: report.dropped,
    }
}

/// The aggregated verdict for one extension test across schedules.
#[derive(Clone, Debug)]
pub struct ExtOutcome {
    /// The test's identifier.
    pub test_id: String,
    /// The test's call pair.
    pub calls: (CallKind, CallKind),
    /// Conflict-free on the simulated sv6 kernel (A-then-B trace).
    pub sim_conflict_free: bool,
    /// Conflict-free on the host sv6 kernel in every schedule.
    pub host_conflict_free: bool,
    /// Union of host conflicting labels over schedules.
    pub host_shared_labels: Vec<String>,
    /// Every host schedule's results matched a sequential simulated order.
    pub linearizable: bool,
    /// Every sent message was received or still queued, exactly once, in
    /// every schedule.
    pub conserved: bool,
    /// Accesses dropped across schedules (0 in any healthy run).
    pub dropped: usize,
}

/// Cross-checks one extension corpus on real threads (`schedules` replays
/// per test) against the simulated sv6 kernel: conflict verdicts
/// one-directionally, results by linearization, messages by conservation.
pub fn run_ext_corpus(cores: usize, schedules: usize, corpus: &[ConcreteTest]) -> Vec<ExtOutcome> {
    corpus
        .iter()
        .map(|test| {
            let sim_ab = run_ext_sim(HostMode::Sv6, cores, test, true);
            let sim_ba = run_ext_sim(HostMode::Sv6, cores, test, false);
            let sent = sent_messages(test);
            let mut outcome = ExtOutcome {
                test_id: test.id.clone(),
                calls: test.calls,
                sim_conflict_free: sim_ab.conflict_free,
                host_conflict_free: true,
                host_shared_labels: Vec::new(),
                linearizable: true,
                conserved: true,
                dropped: 0,
            };
            for _ in 0..schedules.max(1) {
                let host = run_ext_host(HostMode::Sv6, cores, test, true);
                outcome.host_conflict_free &= host.conflict_free;
                outcome.host_shared_labels.extend(host.shared_labels);
                outcome.linearizable &=
                    host.results == sim_ab.results || host.results == sim_ba.results;
                let mut seen: Vec<Vec<u8>> = [&host.results.0, &host.results.1]
                    .into_iter()
                    .filter_map(|r| match r {
                        SysResult::Data(d) => Some(d.clone()),
                        _ => None,
                    })
                    .chain(host.leftover.iter().cloned())
                    .collect();
                seen.sort();
                outcome.conserved &= seen == sent;
                outcome.dropped += host.dropped;
            }
            outcome.host_shared_labels.sort();
            outcome.host_shared_labels.dedup();
            outcome
        })
        .collect()
}

/// Runs the TESTGEN-generated extension corpus (budgeted to
/// [`EXT_CORPUS_BUDGET`] tests, round-robined across pairs) on real
/// threads and cross-checks it against the simulated sv6 kernel.
pub fn run_ext_fig6(cores: usize, schedules: usize) -> Vec<ExtOutcome> {
    let corpus = budget_corpus(&generated_ext_corpus().tests, EXT_CORPUS_BUDGET);
    run_ext_corpus(cores, schedules, &corpus)
}

/// Failures of an extension cross-check run, one line each: unexplained
/// sim-free→host-conflict divergences, non-linearizable results, broken
/// conservation, or log overflow. Empty means the cross-check passed.
pub fn ext_failures(outcomes: &[ExtOutcome]) -> Vec<String> {
    let mut failures = Vec::new();
    for o in outcomes {
        if o.sim_conflict_free && !o.host_conflict_free {
            failures.push(format!(
                "{}: SIM-conflict-free but host conflicted on [{}]",
                o.test_id,
                o.host_shared_labels.join(", ")
            ));
        }
        if !o.linearizable {
            failures.push(format!(
                "{}: host results match no sequential order",
                o.test_id
            ));
        }
        if !o.conserved {
            failures.push(format!("{}: messages lost or duplicated", o.test_id));
        }
        if o.dropped > 0 {
            failures.push(format!("{}: {} accesses dropped", o.test_id, o.dropped));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_kernel::api::{OpenFlags, SysOp};

    fn manual_test(
        id: &str,
        calls: (CallKind, CallKind),
        op_a: SysOp,
        op_b: SysOp,
    ) -> ConcreteTest {
        ConcreteTest {
            id: id.into(),
            calls,
            setup: vec![],
            op_a,
            op_b,
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
        assert_eq!(
            classify_divergence(&outcome.shared_labels),
            Some(LOWEST_FD_EXCEPTION)
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

    #[test]
    fn classification_requires_every_label_to_be_an_fd_slot() {
        assert_eq!(classify_divergence(&[]), None);
        assert_eq!(
            classify_divergence(&["proc[0].fd[3]".to_string()]),
            Some(LOWEST_FD_EXCEPTION)
        );
        assert_eq!(
            classify_divergence(&[
                "proc[0].fd[3]".to_string(),
                "scalefs.root.bucket[9].entries".to_string()
            ]),
            None
        );
    }

    #[test]
    fn ext_corpus_ids_are_unique_and_pairs_are_linearizable_on_sim() {
        let corpus = ext_corpus();
        let ids: std::collections::BTreeSet<_> = corpus.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids.len(), corpus.len(), "duplicate test ids");
        // Sanity: every corpus entry is SIM-commutative in its observable
        // results up to pid fungibility — both sequential orders agree or
        // are each other's pid swap (the linearization check's premise).
        for test in &corpus {
            let ab = run_ext_sim(HostMode::Sv6, 4, test, true);
            let ba = run_ext_sim(HostMode::Sv6, 4, test, false);
            let swapped = (ba.results.1.clone(), ba.results.0.clone());
            assert!(
                ab.results == ba.results || (ab.results.0, ab.results.1) == swapped,
                "{}: orders disagree beyond fungible values",
                test.id
            );
        }
    }

    #[test]
    fn unordered_send_recv_with_local_message_is_conflict_free_everywhere() {
        let corpus = ext_corpus();
        let test = corpus
            .iter()
            .find(|t| t.id == "ext_send_recv_unordered_local")
            .unwrap();
        let sim = run_ext_sim(HostMode::Sv6, 4, test, true);
        assert!(sim.conflict_free, "sim must scale: {:?}", sim.footprint);
        let host = run_ext_host(HostMode::Sv6, 4, test, true);
        assert!(
            host.conflict_free,
            "host must scale, shared {:?}",
            host.shared_labels
        );
        let ordered = corpus
            .iter()
            .find(|t| t.id == "ext_send_recv_ordered")
            .unwrap();
        let sim = run_ext_sim(HostMode::Sv6, 4, ordered, true);
        assert!(!sim.conflict_free, "ordered sockets must conflict");
        let host = run_ext_host(HostMode::Sv6, 4, ordered, true);
        assert!(!host.conflict_free);
        assert!(
            host.shared_labels.iter().any(|l| l == "socket[0].queue"),
            "the shared ordered queue must be the conflict, got {:?}",
            host.shared_labels
        );
    }

    #[test]
    fn spawn_scales_beside_open_where_forks_snapshot_conflicts() {
        let corpus = ext_corpus();
        let spawn = corpus.iter().find(|t| t.id == "ext_spawn_open").unwrap();
        assert!(run_ext_sim(HostMode::Sv6, 4, spawn, true).conflict_free);
        assert!(run_ext_host(HostMode::Sv6, 4, spawn, true).conflict_free);
        let fork = corpus.iter().find(|t| t.id == "ext_fork_open").unwrap();
        assert!(!run_ext_sim(HostMode::Sv6, 4, fork, true).conflict_free);
        let host = run_ext_host(HostMode::Sv6, 4, fork, true);
        assert!(!host.conflict_free);
        assert!(
            host.shared_labels.iter().all(|l| l.contains("].fd[")),
            "fork ∥ open conflicts on descriptor slots, got {:?}",
            host.shared_labels
        );
    }

    #[test]
    fn ext_cross_check_passes_on_the_hand_corpus() {
        let outcomes = run_ext_corpus(4, 2, &ext_corpus());
        let failures = ext_failures(&outcomes);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn generated_ext_cross_check_passes_and_covers_every_pair() {
        let outcomes = run_ext_fig6(4, 2);
        assert!(!outcomes.is_empty());
        let failures = ext_failures(&outcomes);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        let covered: std::collections::BTreeSet<(&str, &str)> = outcomes
            .iter()
            .map(|o| (o.calls.0.name(), o.calls.1.name()))
            .collect();
        for (a, b) in ext_pair_calls() {
            assert!(
                covered.contains(&(a.name(), b.name())),
                "no generated test ran for {} ∥ {}",
                a.name(),
                b.name()
            );
        }
    }

    #[test]
    fn generated_corpus_covers_every_hand_enumerated_test() {
        // The regression floor for replacing the hand corpus with the
        // generated one: every hand-enumerated scenario must appear, up to
        // isomorphism (fungible payloads/names/pids erased, socket
        // discipline and queue topology kept), among the generated tests.
        let generated: std::collections::BTreeSet<String> = generated_ext_corpus()
            .tests
            .iter()
            .map(|t| ext_signature(t, false))
            .collect();
        let mut missing = Vec::new();
        for hand in ext_corpus() {
            let fwd = ext_signature(&hand, false);
            let rev = ext_signature(&hand, true);
            if !generated.contains(&fwd) && !generated.contains(&rev) {
                missing.push(format!("{}: {}", hand.id, fwd));
            }
        }
        assert!(
            missing.is_empty(),
            "hand tests with no generated counterpart (up to isomorphism):\n{}\n\
             generated signatures:\n{}",
            missing.join("\n"),
            generated.into_iter().collect::<Vec<_>>().join("\n")
        );
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
        // linux-host scales exactly where simulated Linux does.
        assert_eq!(
            results.host_linux.total_conflict_free(),
            results.sim_linux.total_conflict_free()
        );
    }
}
