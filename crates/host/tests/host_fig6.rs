//! Acceptance tests for the host-side Figure 6 pipeline.
//!
//! Two layers of evidence that the real-threads monitor reproduces the
//! simulated heatmap:
//!
//! 1. **Instrumentation faithfulness** — replaying a test *sequentially*
//!    on the instrumented `HostKernel` must return exactly the results and
//!    record exactly the (core, label, kind) access multiset the simulated
//!    kernel of the same policy returns and records for it: generated
//!    corpora, §4 socket and process calls included, and hand-written
//!    single-operation probes. Both sides run the one replay,
//!    `scr_core::replay` under `InOrder`, so any difference is an
//!    instrumentation bug.
//! 2. **Cross-check under real concurrency** — running the pipeline with
//!    racing threads, every simulated-conflict-free test must stay
//!    host-conflict-free, with no exception. Every schedule's results must
//!    linearise against the simulated kernel and every datagram must be
//!    conserved.

use scr_core::{
    replay, run_commuter, CommuterConfig, ConcreteTest, InOrder, KernelFactory, LinuxLikeFactory,
    Replay, Sv6Factory,
};
use scr_host::fig6::{normalize_pipe_label, run_host_fig6, HostFig6Config};
use scr_host::kernel::{host_kernel_with, HostMode};
use scr_kernel::api::{OpenFlags, SocketOrder, SysOp};
use scr_kernel::{Sv6Kernel, Sv6Options};
use scr_model::CallKind;
use scr_mtrace::{AccessKind, HostTraceSink, Lines};

/// A sorted (core, label, kind) access multiset, pipe ids normalised.
type Footprint = Vec<(usize, String, AccessKind)>;

/// Cores every kernel here is configured with.
const CORES: usize = 4;

/// The §4 extension calls.
const EXTENSION_CALLS: [CallKind; 6] = [
    CallKind::Socket,
    CallKind::Send,
    CallKind::Recv,
    CallKind::Fork,
    CallKind::PosixSpawn,
    CallKind::Wait,
];

/// A sequential replay of `test` on a traced kernel of either substrate,
/// with its window's footprint.
fn footprint<L: Lines + Clone>(kernel: &Sv6Kernel<L>, test: &ConcreteTest) -> (Footprint, Replay) {
    let lines = kernel.lines().expect("a traced kernel");
    let identity: Vec<usize> = (0..test.ops.len()).collect();
    let mut replay = replay(kernel, Some(lines), test, InOrder(&identity));
    let window = replay.window.take().expect("a traced window");
    assert_eq!(window.dropped, 0, "log overflow in {}", test.id);
    let mut out: Footprint = window
        .accesses
        .iter()
        .map(|a| {
            (
                a.core,
                normalize_pipe_label(&lines.label_of(a.line)),
                a.kind,
            )
        })
        .collect();
    out.sort();
    (out, replay)
}

/// Replays `test` sequentially on the simulated kernel of `mode`'s policy
/// and on the instrumented host kernel of `mode`, asserts that both record
/// the same footprint and return the same setup verdict and results, and
/// returns that footprint.
fn assert_mirrors(mode: HostMode, test: &ConcreteTest) -> Footprint {
    let sim = match mode {
        HostMode::Sv6 => Sv6Factory { cores: CORES }.build(),
        HostMode::Linuxlike => LinuxLikeFactory { cores: CORES }.build(),
    };
    let (sim, sim_replay) = footprint(&sim, test);
    let sink = HostTraceSink::new(CORES);
    let host = host_kernel_with(CORES, mode, Sv6Options::default(), Some(&sink));
    let (host, host_replay) = footprint(&host, test);
    assert_eq!(
        host, sim,
        "instrumented host footprint diverges from the simulator for {}",
        test.id
    );
    assert_eq!(host_replay.setup_ok, sim_replay.setup_ok, "{}", test.id);
    assert_eq!(host_replay.results, sim_replay.results, "{}", test.id);
    host
}

/// Generates the corpus for a call set (the quick pipeline's bounds).
fn corpus(calls: &[CallKind], max_assignments: usize) -> Vec<ConcreteTest> {
    let config = CommuterConfig {
        calls: calls.to_vec(),
        max_assignments_per_case: max_assignments,
        ..CommuterConfig::default()
    };
    run_commuter(&config, &[]).tests
}

/// Compares footprints over the corpus, stride-sampling when it is large:
/// the point is covering every access-pattern family, not replaying every
/// isomorphism-class witness twice (`cargo test` runs this in debug).
fn assert_faithful(calls: &[CallKind], max_assignments: usize) {
    let tests = corpus(calls, max_assignments);
    assert!(!tests.is_empty(), "corpus for {calls:?} is empty");
    let stride = (tests.len() / 250).max(1);
    for test in tests.iter().step_by(stride) {
        assert_mirrors(HostMode::Sv6, test);
    }
}

#[test]
fn host_instrumentation_is_faithful_for_name_operations() {
    assert_faithful(
        &[
            CallKind::Open,
            CallKind::Link,
            CallKind::Unlink,
            CallKind::Rename,
            CallKind::Stat,
        ],
        8,
    );
}

#[test]
fn host_instrumentation_is_faithful_for_descriptor_and_pipe_operations() {
    // Lseek is exercised by `host_fig6_smoke` below instead of here: its
    // pairs with read/write are where TESTGEN's solver is slowest, and the
    // fstat/close/pipe corpus already covers every offset access pattern.
    assert_faithful(
        &[
            CallKind::Fstat,
            CallKind::Close,
            CallKind::Pipe,
            CallKind::Read,
            CallKind::Write,
        ],
        12,
    );
}

#[test]
fn host_instrumentation_is_faithful_for_memory_operations() {
    assert_faithful(
        &[
            CallKind::Pwrite,
            CallKind::Mmap,
            CallKind::Munmap,
            CallKind::Mprotect,
            CallKind::Memread,
            CallKind::Memwrite,
        ],
        8,
    );
}

#[test]
fn host_instrumentation_is_faithful_for_lseek() {
    assert_faithful(&[CallKind::Fstat, CallKind::Lseek, CallKind::Close], 12);
}

#[test]
fn host_instrumentation_is_faithful_for_extension_operations() {
    assert_faithful(&EXTENSION_CALLS, 12);
}

/// A single-op probe: pairs the op under test with a stat of a missing
/// name, whose footprint (one read of a directory bucket) is identical and
/// deterministic on both substrates.
fn single(id: &str, setup: Vec<(usize, SysOp)>, op: SysOp) -> ConcreteTest {
    ConcreteTest {
        id: id.into(),
        calls: vec![CallKind::Stat, CallKind::Stat],
        setup,
        ops: vec![
            op,
            SysOp::StatPath {
                pid: 1,
                name: "no-such-name".into(),
            },
        ],
        procs: 2,
    }
}

fn sock(order: SocketOrder) -> SysOp {
    SysOp::Socket { order }
}

fn send(sockid: usize, msg: &str) -> SysOp {
    SysOp::Send {
        sock: sockid,
        msg: msg.as_bytes().to_vec(),
    }
}

fn open(pid: usize, name: &str) -> SysOp {
    SysOp::Open {
        pid,
        name: name.into(),
        flags: OpenFlags::create(),
    }
}

#[test]
fn socket_operations_mirror_the_simulated_footprint_per_op() {
    for order in [SocketOrder::Ordered, SocketOrder::Unordered] {
        let tag = format!("{order:?}").to_lowercase();
        // send into an empty socket.
        assert_mirrors(
            HostMode::Sv6,
            &single(&format!("send_{tag}"), vec![(0, sock(order))], send(0, "m")),
        );
        // recv of a pending message (preloaded from the receiving core, so
        // the unordered flavour hits its local queue).
        assert_mirrors(
            HostMode::Sv6,
            &single(
                &format!("recv_hit_{tag}"),
                vec![(0, sock(order)), (0, send(0, "m"))],
                SysOp::Recv { sock: 0 },
            ),
        );
        // recv of an empty socket (the unordered flavour scans every
        // queue — reads of the remote lines, as in the simulated steal).
        assert_mirrors(
            HostMode::Sv6,
            &single(
                &format!("recv_empty_{tag}"),
                vec![(0, sock(order))],
                SysOp::Recv { sock: 0 },
            ),
        );
    }
    // The steal path: message pending only on core 1's queue, receiver on
    // core 0 must cross over.
    assert_mirrors(
        HostMode::Sv6,
        &single(
            "recv_steal",
            vec![(0, sock(SocketOrder::Unordered)), (1, send(0, "m"))],
            SysOp::Recv { sock: 0 },
        ),
    );
}

#[test]
fn fork_and_spawn_mirror_the_simulated_snapshot_footprints() {
    // fork with a mixed descriptor table (two files and a pipe): the
    // snapshot reads every slot and writes the occupied child slots —
    // including the pipe endpoints, whose lines are shared cells.
    let setup = vec![
        (0, open(0, "a")),
        (0, open(0, "b")),
        (0, SysOp::Pipe { pid: 0 }),
    ];
    assert_mirrors(
        HostMode::Sv6,
        &single("fork_snapshot", setup.clone(), SysOp::Fork { pid: 0 }),
    );
    // posix_spawn touches exactly the listed descriptors.
    assert_mirrors(
        HostMode::Sv6,
        &single(
            "spawn_listed_fds",
            setup.clone(),
            SysOp::Spawn {
                pid: 0,
                dup_fds: vec![0, 2],
            },
        ),
    );
    // wait reaps a fork child's whole table — pipe endpoint counts are
    // decremented, the deliberate §6.4 shared lines.
    let mut wait_setup = setup;
    wait_setup.push((0, SysOp::Fork { pid: 0 }));
    assert_mirrors(
        HostMode::Sv6,
        &single(
            "wait_reaps_fork_child",
            wait_setup,
            SysOp::Wait { pid: 0, child: 2 },
        ),
    );
}

#[test]
fn linuxlike_socket_calls_are_ordered_and_mirror_the_simulated_baseline() {
    // The Linux-like policy orders every datagram socket (§4: "most systems
    // order all messages sent via a local Unix domain socket"), so an
    // unordered socket is one shared queue there, and ordered *and*
    // unordered socket pairs collapse on it. The host and the simulator run
    // the same body under that policy, so they record the same lines.
    for order in [SocketOrder::Ordered, SocketOrder::Unordered] {
        let test = single(
            &format!("linuxlike_send_{order:?}"),
            vec![(0, sock(order))],
            send(0, "m"),
        );
        let host = assert_mirrors(HostMode::Linuxlike, &test);
        let queue: Vec<&AccessKind> = host
            .iter()
            .filter(|(_, label, _)| label == "socket[0].queue")
            .map(|(_, _, kind)| kind)
            .collect();
        assert!(
            queue.contains(&&AccessKind::Write),
            "{}: the one shared queue must be written, got {queue:?}",
            test.id
        );
    }
}

/// The acceptance criterion: the concurrent cross-check reports zero
/// divergences over call groups that deliberately include the
/// descriptor-allocating calls where lowest-FD contention can appear: a
/// mixed group, then name, descriptor-and-memory and pipe operations, each
/// at its own assignment bound.
#[test]
fn host_fig6_cross_check_has_no_divergences() {
    use CallKind::*;
    let groups: [(&[CallKind], usize); 4] = [
        (&[Open, Stat, Close, Pipe, Read], 8),
        (&[Open, Stat, Link, Unlink], 8),
        (&[Fstat, Lseek, Pread, Pwrite, Memread, Memwrite], 8),
        (&[Pipe, Read, Write, Close], 8),
    ];
    for (calls, max_assignments_per_case) in groups {
        let config = HostFig6Config {
            max_assignments_per_case,
            schedules_per_test: 2,
            ..HostFig6Config::quick(calls)
        };
        let results = run_host_fig6(&config);
        assert!(results.tests_run > 0, "{calls:?}");
        assert_eq!(results.dropped, 0, "{calls:?}");
        assert_eq!(
            results.sim_sv6.total_tests(),
            results.host_sv6.total_tests()
        );
        assert_eq!(
            results.sim_sv6.total_tests(),
            results.host_linux.total_tests()
        );
        // No divergence is explained, so there must be none.
        assert!(
            results.divergences.is_empty(),
            "SIM↔host divergences over {calls:?}:\n{}",
            results.describe_divergences()
        );
        assert!(
            results.unexplained_violations().is_empty(),
            "{calls:?}: {}",
            results.describe_violations()
        );
        // And each host kernel scales exactly as often as the simulated one
        // of its policy: it conflicts nowhere the simulator does not.
        for (kernel, sim, host) in [
            ("sv6-host", &results.sim_sv6, &results.host_sv6),
            ("linux-host", &results.sim_linux, &results.host_linux),
        ] {
            let diverged = results
                .divergences
                .iter()
                .filter(|d| d.kernel == kernel)
                .count();
            assert_eq!(
                sim.total_conflict_free() - host.total_conflict_free(),
                diverged,
                "{kernel} over {calls:?}"
            );
        }
    }
}

/// The corpus fingerprint of [`EXTENSION_CALLS`] under
/// `HostFig6Config::quick`'s bounds. It moves only when the model, ANALYZER
/// or TESTGEN changes what the §4 pairs generate.
const EXTENSION_CORPUS_FINGERPRINT: u64 = 0xb176_91a9_8c73_5ddd;

/// The host Figure 6 sweeps exactly the pipeline's corpus on the §4
/// extension pairs — both specialise each pair's model with `pair_config`,
/// without which `send ∥ recv` has no socket to act on and yields no test —
/// and every test's host results linearise against the simulated kernel of
/// their policy and conserve every datagram, in every schedule.
#[test]
fn host_fig6_sweeps_the_pipeline_corpus_on_extension_pairs() {
    let config = HostFig6Config::quick(&EXTENSION_CALLS);
    let host = run_host_fig6(&config);
    let sim = run_commuter(
        &CommuterConfig {
            model: config.model,
            calls: config.calls.clone(),
            max_assignments_per_case: config.max_assignments_per_case,
            ..CommuterConfig::default()
        },
        &[&Sv6Factory {
            cores: config.cores,
        }],
    );
    assert_eq!(
        sim.corpus_fingerprint(),
        EXTENSION_CORPUS_FINGERPRINT,
        "the §4 corpus changed ({} tests)",
        sim.tests.len()
    );
    assert_eq!(host.tests_run, sim.tests.len());
    assert_eq!(host.sim_sv6.total_skipped(), sim.skipped);
    assert_eq!(host.sim_sv6.render(), sim.reports[0].render());
    assert_eq!(host.dropped, 0);
    assert!(
        host.unexplained_divergences().is_empty(),
        "unexplained SIM↔host divergences:\n{}",
        host.describe_divergences()
    );
    assert!(
        host.unexplained_violations().is_empty(),
        "{}",
        host.describe_violations()
    );
}
