//! Acceptance tests for the host mail server: sockets,
//! `fork`/`posix_spawn`/`wait` and the full §7.3 pipeline on real threads.
//!
//! Errno parity for the socket calls, host regressions for descriptor
//! reference counts, and the end-to-end pipeline — the mail server
//! (enqueue → notification socket → qman → spawn/wait → deliver) as
//! communicating threads, in both API configurations and both host modes,
//! delivering every message exactly once across repeated schedules, and
//! filing each engine thread's accesses under its topology core. The
//! footprint parity and the concurrent cross-check of the same calls live
//! in `host_fig6.rs`, with every other call's.

use scr_host::kernel::{host_kernel, host_kernel_with, HostMode};
use scr_host::workloads::mail_pipeline;
use scr_host::{run_pipeline, saturating_schedule, PipelineConfig};
use scr_kernel::api::{Errno, OpenFlags, SocketOrder, SyscallApi};
use scr_kernel::mail::{MailConfig, MailServer, MailTopology, NoMailObs};
use scr_kernel::{Sv6Kernel, Sv6Options};
use scr_mtrace::{HostTraceSink, Lines};

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
fn a_pipelines_process_count_stays_bounded() {
    // Each qman reaps its helper on its own core, and the next spawn there
    // takes the reaped pid again: 2 000 deliveries need pids for the
    // client, the qman and one helper per qman core, not one per message.
    let topology = MailTopology::new(1, 1);
    for mode in [HostMode::Sv6, HostMode::Linuxlike] {
        for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
            let cfg = PipelineConfig::new(config, topology);
            let kernel = host_kernel(cfg.cores(), mode);
            let schedule = saturating_schedule(topology.enqueuers, 2_000);
            let report = run_pipeline(&kernel, &cfg, &schedule, None, |_, _, _| {});
            assert!(report.exactly_once(), "{mode:?}/{config:?}: {report:?}");
            assert!(
                kernel.process_count() <= 2 + topology.qmans,
                "{mode:?}/{config:?}: {} pids",
                kernel.process_count()
            );
        }
    }
}

#[test]
fn pipeline_threads_record_under_their_topology_cores() {
    // Regression: every engine thread runs under `on_core` of its topology
    // core, so an enqueuer's send and a qman's recv on one notification
    // shard are two cores' accesses to that shard's queue line. With every
    // access filed under one core no shard could ever conflict.
    let cfg = PipelineConfig::new(MailConfig::CommutativeApis, MailTopology::new(2, 2));
    let sink = HostTraceSink::with_capacity(cfg.cores(), 1 << 17);
    let kernel = host_kernel_with(
        cfg.cores(),
        HostMode::Sv6,
        Sv6Options::default(),
        Some(&sink),
    );
    sink.begin_window();
    let report = run_pipeline(
        &kernel,
        &cfg,
        &saturating_schedule(2, 120),
        None,
        |_, _, _| {},
    );
    let window = sink.end_window();
    assert!(report.exactly_once(), "{report:?}");
    assert_eq!(window.dropped, 0, "the window overflowed its logs");
    let conflicting = window.conflicting_labels();
    for shard in 0..2 {
        let label = format!("socket[{shard}].queue[{shard}]");
        assert!(conflicting.contains(&label), "{label}: {conflicting:?}");
    }
}

#[test]
fn unordered_notification_socket_keeps_local_delivery_conflict_free() {
    // The pipeline-level restatement of §4: an enqueue immediately
    // followed by the same core's qman step touches only that core's
    // socket queue under CommutativeApis — so the notification hot path
    // records no cross-core socket sharing when each core consumes its own
    // queue. (The host Figure 6 asserts the per-pair version; this drives
    // it through the real MailServer.)
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
