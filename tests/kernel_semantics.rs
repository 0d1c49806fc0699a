//! Differential tests: the sv6 kernel and the Linux-like baseline must
//! agree on the *observable semantics* of the POSIX-like interface (they
//! differ only in sharing, and therefore scalability), and both must agree
//! with the symbolic model's view of the interface where the mapping is
//! direct.

use scalable_commutativity::kernel::api::{
    Errno, MmapBacking, OpenFlags, Prot, SyscallApi, Whence, PAGE_SIZE,
};
use scalable_commutativity::kernel::Sv6Kernel;
use scalable_commutativity::mtrace::{on_core, Lines};

fn kernels() -> Vec<(&'static str, Sv6Kernel)> {
    vec![
        ("sv6", Sv6Kernel::new(4)),
        ("linux", Sv6Kernel::linuxlike(4)),
    ]
}

#[test]
fn file_lifecycle_matches_across_kernels() {
    for (name, k) in kernels() {
        let pid = k.new_process();
        let fd = k.open(0, pid, "story", OpenFlags::create()).unwrap();
        assert_eq!(k.write(0, pid, fd, b"chapter one").unwrap(), 11, "{name}");
        assert_eq!(k.lseek(0, pid, fd, 0, Whence::Set).unwrap(), 0, "{name}");
        assert_eq!(k.read(0, pid, fd, 11).unwrap(), b"chapter one", "{name}");
        k.link(0, pid, "story", "backup").unwrap();
        assert_eq!(k.stat(0, pid, "backup").unwrap().nlink, 2, "{name}");
        k.unlink(0, pid, "story").unwrap();
        assert_eq!(
            k.stat(0, pid, "story").unwrap_err(),
            Errno::ENOENT,
            "{name}"
        );
        assert_eq!(k.stat(0, pid, "backup").unwrap().nlink, 1, "{name}");
        k.rename(0, pid, "backup", "final").unwrap();
        assert!(k.stat(0, pid, "final").is_ok(), "{name}");
        k.close(0, pid, fd).unwrap();
        assert_eq!(k.fstat(0, pid, fd).unwrap_err(), Errno::EBADF, "{name}");
    }
}

#[test]
fn open_error_cases_match_across_kernels() {
    for (name, k) in kernels() {
        let pid = k.new_process();
        assert_eq!(
            k.open(0, pid, "missing", OpenFlags::plain()).unwrap_err(),
            Errno::ENOENT,
            "{name}"
        );
        k.open(0, pid, "exists", OpenFlags::create()).unwrap();
        assert_eq!(
            k.open(0, pid, "exists", OpenFlags::create_excl())
                .unwrap_err(),
            Errno::EEXIST,
            "{name}"
        );
        assert_eq!(
            k.rename(0, pid, "missing", "anything").unwrap_err(),
            Errno::ENOENT,
            "{name}"
        );
        assert_eq!(
            k.unlink(0, pid, "missing").unwrap_err(),
            Errno::ENOENT,
            "{name}"
        );
        assert_eq!(
            k.link(0, pid, "exists", "exists").unwrap_err(),
            Errno::EEXIST,
            "{name}"
        );
    }
}

#[test]
fn pread_pwrite_and_truncate_match_across_kernels() {
    for (name, k) in kernels() {
        let pid = k.new_process();
        let fd = k.open(0, pid, "data", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"abc", PAGE_SIZE).unwrap();
        assert_eq!(k.pread(0, pid, fd, 3, PAGE_SIZE).unwrap(), b"abc", "{name}");
        assert!(k.fstat(0, pid, fd).unwrap().size >= PAGE_SIZE + 3, "{name}");
        // O_TRUNC resets the size.
        let fd2 = k
            .open(
                0,
                pid,
                "data",
                OpenFlags {
                    truncate: true,
                    ..OpenFlags::plain()
                },
            )
            .unwrap();
        assert_eq!(k.fstat(0, pid, fd2).unwrap().size, 0, "{name}");
        assert_eq!(
            k.pread(0, pid, fd2, 3, PAGE_SIZE).unwrap(),
            Vec::<u8>::new(),
            "{name}"
        );
    }
}

#[test]
fn pipes_match_across_kernels() {
    for (name, k) in kernels() {
        let pid = k.new_process();
        let (r, w) = k.pipe(0, pid).unwrap();
        assert_eq!(k.write(0, pid, w, b"ping").unwrap(), 4, "{name}");
        assert_eq!(k.read(0, pid, r, 16).unwrap(), b"ping", "{name}");
        assert_eq!(k.read(0, pid, r, 1).unwrap_err(), Errno::EAGAIN, "{name}");
        k.close(0, pid, r).unwrap();
        assert_eq!(
            k.write(0, pid, w, b"x").unwrap_err(),
            Errno::EPIPE,
            "{name}"
        );
        assert_eq!(
            k.lseek(0, pid, w, 0, Whence::Set).unwrap_err(),
            Errno::ESPIPE,
            "{name}"
        );
    }
}

#[test]
fn virtual_memory_matches_across_kernels() {
    for (name, k) in kernels() {
        let pid = k.new_process();
        let addr = k
            .mmap(
                0,
                pid,
                Some(128 * PAGE_SIZE),
                2,
                Prot::rw(),
                MmapBacking::Anon,
            )
            .unwrap();
        assert_eq!(addr, 128 * PAGE_SIZE, "{name}");
        k.memwrite(0, pid, addr + PAGE_SIZE, 42).unwrap();
        assert_eq!(k.memread(0, pid, addr + PAGE_SIZE).unwrap(), 42, "{name}");
        k.mprotect(0, pid, addr, 2, Prot::ro()).unwrap();
        assert_eq!(
            k.memwrite(0, pid, addr, 1).unwrap_err(),
            Errno::EFAULT,
            "{name}"
        );
        k.munmap(0, pid, addr, 2).unwrap();
        assert_eq!(
            k.memread(0, pid, addr).unwrap_err(),
            Errno::EFAULT,
            "{name}"
        );
        // File-backed mappings read through to the file.
        let fd = k.open(0, pid, "mapped", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"Z", 0).unwrap();
        let m = k
            .mmap(
                0,
                pid,
                Some(200 * PAGE_SIZE),
                1,
                Prot::rw(),
                MmapBacking::File(fd),
            )
            .unwrap();
        assert_eq!(k.memread(0, pid, m).unwrap(), b'Z', "{name}");
    }
}

#[test]
fn spawn_and_fork_match_across_kernels() {
    for (name, k) in kernels() {
        let pid = k.new_process();
        let fd = k.open(0, pid, "inherit", OpenFlags::create()).unwrap();
        let forked = k.fork(0, pid).unwrap();
        assert!(k.fstat(0, forked, fd).is_ok(), "{name}");
        let spawned = k.posix_spawn(0, pid, &[]).unwrap();
        assert_eq!(k.fstat(0, spawned, fd).unwrap_err(), Errno::EBADF, "{name}");
        let spawned_with = k.posix_spawn(0, pid, &[fd]).unwrap();
        assert!(k.fstat(0, spawned_with, fd).is_ok(), "{name}");
    }
}

#[test]
fn scalability_differs_even_when_semantics_agree() {
    // The point of the whole exercise: identical observable behaviour,
    // different sharing. Two processes creating different files (the §1
    // motivating example) is conflict-free on sv6 and conflicts on the
    // baseline. (One process would not even commute: POSIX lowest-FD
    // allocation makes the returned descriptors order-dependent.)
    let sv6 = Sv6Kernel::new(4);
    let linux = Sv6Kernel::linuxlike(4);
    let outcomes: Vec<bool> = [&sv6, &linux]
        .iter()
        .map(|k| {
            let pid_a = k.new_process();
            let pid_b = k.new_process();
            let m = k.lines().unwrap();
            m.begin_window();
            on_core(0, || {
                k.open(0, pid_a, "left", OpenFlags::create()).unwrap();
            });
            on_core(1, || {
                k.open(1, pid_b, "right", OpenFlags::create()).unwrap();
            });
            m.end_window().is_conflict_free()
        })
        .collect();
    assert!(outcomes[0], "sv6 must be conflict-free");
    assert!(!outcomes[1], "the baseline must conflict");
}

#[test]
fn duplicated_pipe_endpoints_survive_child_reaping() {
    // pipe → fork → wait(child): the child's copies of the pipe
    // descriptors are reaped, but the parent's ends must stay live —
    // duplication takes a reference on the endpoint counts, reaping only
    // drops the child's. (Regression: an unbalanced fork once made the
    // parent's write fail EPIPE and its read report a spurious EOF.)
    for (name, k) in kernels() {
        let pid = k.new_process();
        let (r, w) = k.pipe(0, pid).unwrap();
        let child = k.fork(0, pid).unwrap();
        k.wait(0, pid, child).unwrap();
        assert_eq!(k.write(0, pid, w, b"x").unwrap(), 1, "{name}");
        assert_eq!(k.read(0, pid, r, 4).unwrap(), b"x", "{name}");
        assert_eq!(
            k.read(0, pid, r, 1).unwrap_err(),
            Errno::EAGAIN,
            "{name}: writer still open, empty pipe must be EAGAIN not EOF"
        );
        // The child's copy alone keeps an end alive: close the parent's
        // write end while a fork child still holds one.
        let child2 = k.fork(0, pid).unwrap();
        k.close(0, pid, w).unwrap();
        assert_eq!(
            k.read(0, pid, r, 1).unwrap_err(),
            Errno::EAGAIN,
            "{name}: the child's write end keeps the pipe writable"
        );
        k.wait(0, pid, child2).unwrap();
        assert_eq!(
            k.read(0, pid, r, 1).unwrap(),
            Vec::<u8>::new(),
            "{name}: after the last writer is reaped, EOF"
        );
        // posix_spawn's explicit dup list takes the same reference.
        let (r2, w2) = k.pipe(0, pid).unwrap();
        let spawned = k.posix_spawn(0, pid, &[w2]).unwrap();
        k.wait(0, pid, spawned).unwrap();
        assert_eq!(k.write(0, pid, w2, b"y").unwrap(), 1, "{name}");
        assert_eq!(k.read(0, pid, r2, 4).unwrap(), b"y", "{name}");
    }
}

#[test]
fn failed_posix_spawn_leaves_no_trace() {
    // A bad descriptor in the dup list fails the spawn before any pipe
    // endpoint reference is taken or a child process exists (regression:
    // the error path once left the endpoint counts permanently skewed,
    // turning EOF into an endless EAGAIN).
    for (name, k) in kernels() {
        let pid = k.new_process();
        let (r, w) = k.pipe(0, pid).unwrap();
        assert_eq!(
            k.posix_spawn(0, pid, &[w, 99]).unwrap_err(),
            Errno::EBADF,
            "{name}"
        );
        let child = k.posix_spawn(0, pid, &[w]).unwrap();
        assert_eq!(
            child, 1,
            "{name}: the failed spawn must not have allocated a pid"
        );
        k.wait(0, pid, child).unwrap();
        k.close(0, pid, w).unwrap();
        assert_eq!(
            k.read(0, pid, r, 1).unwrap(),
            Vec::<u8>::new(),
            "{name}: all writers closed must read as EOF, not EAGAIN"
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
            "{name}: a doubled dup entry must not leak a writer reference"
        );
    }
}
