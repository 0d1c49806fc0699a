//! Acceptance tests for the host mail-server parity PR: sockets,
//! `fork`/`posix_spawn`/`wait` and the full §7.3 pipeline on real threads.
//!
//! Three layers of evidence, mirroring `host_fig6.rs`'s structure:
//!
//! 1. **Instrumentation faithfulness** — every new host socket/spawn/wait
//!    operation, replayed *sequentially* on the instrumented `HostKernel`,
//!    must record exactly the (core, label, kind) access multiset its
//!    simulated counterpart records. Sequential replay removes scheduling
//!    nondeterminism, so any difference is an instrumentation bug.
//! 2. **Cross-check under real concurrency** — the §4 extension corpus
//!    racing on real threads: SIM-conflict-free pairs stay conflict-free,
//!    results linearize against the simulated kernel, and datagrams are
//!    conserved exactly-once.
//! 3. **End-to-end pipeline** — the mail server (enqueue → notification
//!    socket → qman → spawn/wait → deliver) as communicating threads, in
//!    both API configurations and both host modes, delivering every
//!    message exactly once across repeated schedules.

use scr_core::ConcreteTest;
use scr_host::fig6::{ext_corpus, ext_failures, run_ext_corpus, run_ext_host, run_ext_sim};
use scr_host::kernel::{host_kernel, HostMode};
use scr_host::workloads::mail_pipeline;
use scr_kernel::api::{Errno, OpenFlags, SocketOrder, SysOp, SyscallApi};
use scr_kernel::mail::{MailConfig, MailServer, NoMailObs};
use scr_kernel::Sv6Kernel;
use scr_model::CallKind;
use scr_mtrace::AccessKind;

/// A sorted (core, label, kind) access multiset.
type Footprint = Vec<(usize, String, AccessKind)>;

/// Sorted sequential footprints of a test on both substrates: the same
/// body, so the same labels, pipe numbers included.
fn footprints(test: &ConcreteTest) -> (Footprint, Footprint) {
    let sim = run_ext_sim(HostMode::Sv6, 4, test, true).footprint;
    let host_run = run_ext_host(HostMode::Sv6, 4, test, false);
    assert_eq!(host_run.dropped, 0, "log overflow in {}", test.id);
    (sim, host_run.footprint)
}

fn assert_mirrors(test: &ConcreteTest) {
    let (sim, host) = footprints(test);
    assert_eq!(
        host, sim,
        "instrumented host footprint diverges from the simulator for {}",
        test.id
    );
}

/// A single-op probe: pairs the op under test with a stat of a missing
/// name, whose footprint (one read of a directory bucket) is identical and
/// deterministic on both substrates.
fn single(id: &str, setup: Vec<(usize, SysOp)>, op: SysOp, procs: usize) -> ConcreteTest {
    ConcreteTest {
        id: id.into(),
        calls: (CallKind::Stat, CallKind::Stat),
        setup,
        op_a: op,
        op_b: SysOp::StatPath {
            pid: 1,
            name: "no-such-name".into(),
        },
        procs,
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
        assert_mirrors(&single(
            &format!("send_{tag}"),
            vec![(0, sock(order))],
            send(0, "m"),
            2,
        ));
        // recv of a pending message (preloaded from the receiving core, so
        // the unordered flavour hits its local queue).
        assert_mirrors(&single(
            &format!("recv_hit_{tag}"),
            vec![(0, sock(order)), (0, send(0, "m"))],
            SysOp::Recv { sock: 0 },
            2,
        ));
        // recv of an empty socket (the unordered flavour scans every
        // queue — reads of the remote lines, as in the simulated steal).
        assert_mirrors(&single(
            &format!("recv_empty_{tag}"),
            vec![(0, sock(order))],
            SysOp::Recv { sock: 0 },
            2,
        ));
    }
    // The steal path: message pending only on core 1's queue, receiver on
    // core 0 must cross over.
    assert_mirrors(&single(
        "recv_steal",
        vec![(0, sock(SocketOrder::Unordered)), (1, send(0, "m"))],
        SysOp::Recv { sock: 0 },
        2,
    ));
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
    assert_mirrors(&single(
        "fork_snapshot",
        setup.clone(),
        SysOp::Fork { pid: 0 },
        2,
    ));
    // posix_spawn touches exactly the listed descriptors.
    assert_mirrors(&single(
        "spawn_listed_fds",
        setup.clone(),
        SysOp::Spawn {
            pid: 0,
            dup_fds: vec![0, 2],
        },
        2,
    ));
    // wait reaps a fork child's whole table — pipe endpoint counts are
    // decremented, the deliberate §6.4 shared lines.
    let mut wait_setup = setup;
    wait_setup.push((0, SysOp::Fork { pid: 0 }));
    assert_mirrors(&single(
        "wait_reaps_fork_child",
        wait_setup,
        SysOp::Wait { pid: 0, child: 2 },
        2,
    ));
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
            2,
        );
        let host = run_ext_host(HostMode::Linuxlike, 4, &test, false);
        assert_eq!(host.dropped, 0);
        let queue: Vec<&AccessKind> = host
            .footprint
            .iter()
            .filter(|(_, label, _)| label == "socket[0].queue")
            .map(|(_, _, kind)| kind)
            .collect();
        assert!(
            queue.contains(&&AccessKind::Write),
            "{}: the one shared queue must be written, got {queue:?}",
            test.id
        );
        let sim = run_ext_sim(HostMode::Linuxlike, 4, &test, true);
        assert_eq!(host.footprint, sim.footprint, "{}", test.id);
    }
}

#[test]
fn ext_corpus_footprints_match_the_simulator_sequentially() {
    for test in ext_corpus() {
        assert_mirrors(&test);
    }
}

#[test]
fn ext_cross_check_under_real_concurrency_has_no_failures() {
    // The hand corpus under extra schedules; the generated corpus's
    // cross-check lives in the fig6 unit tests (its TESTGEN run is
    // memoised per process, and this is a separate test binary).
    let outcomes = run_ext_corpus(4, 3, &ext_corpus());
    let failures = ext_failures(&outcomes);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn socket_errnos_match_the_simulated_kernel() {
    let sim = Sv6Kernel::new(2);
    let host = host_kernel(2, HostMode::Sv6);
    let sim_sock = SyscallApi::socket(&sim, 0, SocketOrder::Unordered).unwrap();
    let host_sock = host.socket(0, SocketOrder::Unordered).unwrap();
    assert_eq!(sim_sock, host_sock, "socket ids are dense on both");
    // Empty and bad-id paths agree errno for errno; the queues are
    // unbounded on both substrates, so send has no overflow path.
    assert_eq!(
        SyscallApi::recv(&sim, 0, sim_sock).unwrap_err(),
        host.recv(0, host_sock).unwrap_err()
    );
    assert_eq!(host.recv(0, host_sock), Err(Errno::EAGAIN));
    assert_eq!(
        SyscallApi::send(&sim, 0, 9, b"x").unwrap_err(),
        host.send(0, 9, b"x").unwrap_err()
    );
    assert_eq!(host.send(0, 9, b"x"), Err(Errno::EBADF));
    assert_eq!(host.recv(0, 9), Err(Errno::EBADF));
}

#[test]
fn mail_server_runs_end_to_end_on_the_host_kernel() {
    // The same assertions the simulated kernels' mail tests make, now on
    // the real-threads kernel through the identical `SyscallApi` surface.
    for mode in [HostMode::Sv6, HostMode::Linuxlike] {
        for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
            let kernel = host_kernel(4, mode);
            let client = kernel.new_process();
            let qman = kernel.new_process();
            let server = MailServer::new(&kernel, config, 4).unwrap();
            let env = server
                .enqueue(0, client, "alice", b"hello alice", &NoMailObs)
                .unwrap();
            let delivered = server.qman_step(1, qman, &NoMailObs).unwrap().file;
            assert!(delivered.starts_with("mail/alice/"));
            assert_eq!(
                kernel.stat(0, qman, &env).unwrap_err(),
                Errno::ENOENT,
                "envelope must be unlinked after delivery ({mode:?}/{config:?})"
            );
            let fd = kernel
                .open(0, qman, &delivered, OpenFlags::plain())
                .unwrap();
            assert_eq!(kernel.pread(0, qman, fd, 64, 0).unwrap(), b"hello alice");
            // The delivery helper exists, was reaped by wait, and holds no
            // descriptors any more.
            assert!(kernel.fstat(0, 2, 0).is_err(), "helper table must be empty");
        }
    }
}

#[test]
fn mail_pipeline_delivers_exactly_once_across_repeated_schedules() {
    // The acceptance bar: both MailConfigs × both host modes, with
    // dedicated enqueuer and qman threads racing, repeated so different
    // hardware schedules are exercised — every message delivered exactly
    // once, every time.
    for round in 0..3 {
        for mode in [HostMode::Sv6, HostMode::Linuxlike] {
            for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
                let report = mail_pipeline(mode, config, 2, 2, 40);
                assert!(
                    report.exactly_once(),
                    "round {round} {mode:?}/{config:?}: {report:?}"
                );
            }
        }
    }
}

#[test]
fn unordered_notification_socket_keeps_local_delivery_conflict_free() {
    // The pipeline-level restatement of §4: an enqueue immediately
    // followed by the same core's qman step touches only that core's
    // socket queue under CommutativeApis — so the notification hot path
    // records no cross-core socket sharing when each core consumes its own
    // queue. (The fig6 ext corpus asserts the per-pair version; this
    // drives it through the real MailServer.)
    let kernel = host_kernel(2, HostMode::Sv6);
    let client = kernel.new_process();
    let qman = kernel.new_process();
    let server = MailServer::new(&kernel, MailConfig::CommutativeApis, 2).unwrap();
    for core in 0..2 {
        let body = format!("m{core}");
        server
            .enqueue(core, client, "bob", body.as_bytes(), &NoMailObs)
            .unwrap();
    }
    // Each core's qman step finds its own notification without stealing.
    for core in 0..2 {
        server.qman_step(core, qman, &NoMailObs).unwrap();
        assert_eq!(
            kernel.socket_pending_untraced(server.notify_socket()),
            1 - core,
            "core {core} must consume its own queue"
        );
    }
}

#[test]
fn duplicated_pipe_endpoints_survive_child_reaping_on_the_host() {
    // Host mirror of the kernel_semantics regression: fork/posix_spawn
    // take a reference on duplicated pipe endpoints, so reaping the child
    // cannot strand the parent's still-open ends.
    for mode in [HostMode::Sv6, HostMode::Linuxlike] {
        let k = host_kernel(4, mode);
        let pid = k.new_process();
        let (r, w) = k.pipe(0, pid).unwrap();
        let child = k.fork(0, pid).unwrap();
        k.wait(0, pid, child).unwrap();
        assert_eq!(k.write(0, pid, w, b"x").unwrap(), 1, "{mode:?}");
        assert_eq!(k.read(0, pid, r, 4).unwrap(), b"x", "{mode:?}");
        assert_eq!(k.read(0, pid, r, 1).unwrap_err(), Errno::EAGAIN, "{mode:?}");
        let spawned = k.posix_spawn(0, pid, &[w]).unwrap();
        k.close(0, pid, w).unwrap();
        assert_eq!(
            k.read(0, pid, r, 1).unwrap_err(),
            Errno::EAGAIN,
            "{mode:?}: the spawned child's write end keeps the pipe writable"
        );
        k.wait(0, pid, spawned).unwrap();
        assert_eq!(
            k.read(0, pid, r, 1).unwrap(),
            Vec::<u8>::new(),
            "{mode:?}: after the last writer is reaped, EOF"
        );
    }
}

#[test]
fn spawn_per_message_delivery_stays_cheap_on_wide_kernels() {
    // Regression for the per-message helper cost: qman spawns one helper
    // per delivered message, and helpers are never removed from the
    // process table (pids are not reused, matching the simulated
    // kernels). Each helper must therefore materialise only the
    // descriptor partitions it touches — with eager O(cores) padded-slot
    // tables, 10k helpers on a 64-core kernel would cost gigabytes and
    // minutes; lazily chunked they cost a few KB each.
    let k = host_kernel(64, HostMode::Sv6);
    let pid = k.new_process();
    let fd = k
        .open(0, pid, "spool", scr_kernel::api::OpenFlags::create())
        .unwrap();
    for _ in 0..10_000 {
        let helper = k.posix_spawn(0, pid, &[fd]).unwrap();
        k.wait(0, pid, helper).unwrap();
    }
    assert!(
        k.fstat(0, pid, fd).is_ok(),
        "parent fd must survive reaping"
    );
}

#[test]
fn failed_posix_spawn_leaves_no_trace_on_the_host() {
    // Host mirror of the kernel_semantics regression: a bad descriptor in
    // the dup list fails the spawn before any endpoint reference is taken
    // or a child pid is allocated.
    let k = host_kernel(4, HostMode::Sv6);
    let pid = k.new_process();
    let (r, w) = k.pipe(0, pid).unwrap();
    assert_eq!(k.posix_spawn(0, pid, &[w, 999]).unwrap_err(), Errno::EBADF);
    let child = k.posix_spawn(0, pid, &[w]).unwrap();
    assert_eq!(child, 1, "the failed spawn must not have allocated a pid");
    k.wait(0, pid, child).unwrap();
    k.close(0, pid, w).unwrap();
    assert_eq!(
        k.read(0, pid, r, 1).unwrap(),
        Vec::<u8>::new(),
        "all writers closed must read as EOF, not EAGAIN"
    );
    // A repeated fd in the dup list collapses into one child slot and
    // must take exactly one endpoint reference.
    let (r2, w2) = k.pipe(0, pid).unwrap();
    let child = k.posix_spawn(0, pid, &[w2, w2]).unwrap();
    k.wait(0, pid, child).unwrap();
    k.close(0, pid, w2).unwrap();
    assert_eq!(
        k.read(0, pid, r2, 1).unwrap(),
        Vec::<u8>::new(),
        "a doubled dup entry must not leak a writer reference"
    );
}

#[test]
fn same_fd_read_write_race_is_linearizable() {
    // Regression: the host `read` once observed a racing same-fd `write`
    // half-applied — old shared offset, new contents — returning 4096
    // bytes no sequential order produces (TESTGEN's read ∥ write corpus
    // caught it, rarely). Both sequential orders leave this read empty:
    // read-then-write reads an empty file, write-then-read reads at the
    // advanced shared offset. Any non-empty read is a linearizability
    // violation of the per-open-file I/O lock.
    for round in 0..500 {
        let k = host_kernel(2, HostMode::Sv6);
        let pid = k.new_process();
        let fd = k
            .open(0, pid, "f", scr_kernel::api::OpenFlags::create())
            .unwrap();
        let barrier = std::sync::Barrier::new(2);
        let (kr, br) = (&k, &barrier);
        let (read, written) = std::thread::scope(|s| {
            let a = s.spawn(move || {
                br.wait();
                kr.read(0, pid, fd, 4096)
            });
            let b = s.spawn(move || {
                br.wait();
                kr.write(1, pid, fd, &[7u8; 4096])
            });
            (a.join().unwrap().unwrap(), b.join().unwrap().unwrap())
        });
        assert_eq!(written, 4096);
        assert_eq!(read, Vec::<u8>::new(), "round {round}: mixed-state read");
    }
}
