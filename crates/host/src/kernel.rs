//! The real-threads kernel: the execution backend the Figure-7 workloads
//! and the differential runner drive from actual OS threads.
//!
//! [`HostKernel`] is not a second kernel. It is the one kernel body of
//! `scr_kernel::sv6`, the same code the simulated kernels run, here over an
//! optional real-threads trace sink instead of the simulated machine, and
//! built with either sharing policy ([`HostMode`] is
//! `scr_kernel::Policy`):
//!
//! * [`HostMode::Sv6`] is the sv6 kernel: a hash directory with 512 bucket
//!   locks, per-core inode counters, Refcache link counts, per-core socket
//!   queues, per-slot descriptor locks and a lock-free process table.
//! * [`HostMode::Linuxlike`] is the Linux-like baseline, the same body with
//!   Linux's shared structures added: the directory's `i_mutex`, dentry and
//!   `struct file` reference counts, `file_lock`, `mmap_sem`, one inode
//!   counter and shared link counts. Those make the baseline collapse as
//!   real threads are added, for the paper's reasons.
//!
//! An instrumented kernel hands the body the trace sink as its line
//! substrate, so every operation records the footprint the simulated
//! kernel of the same policy records. What the host adds is only what is
//! host-only: at least two thread slots, and the instrumented constructor.

use scr_kernel::sv6::{Sv6Kernel, Sv6Options};
use scr_mtrace::HostTraceSink;
use std::sync::Arc;

pub use scr_kernel::sv6::FDS_PER_CORE;
/// Which sharing structure the kernel is assembled with.
pub use scr_kernel::Policy as HostMode;

/// The real-threads kernel: the body over an optional trace sink. All
/// methods take `&self` and the type is `Send + Sync`; callers drive it
/// from as many OS threads as they like, passing the thread's "core" number
/// exactly as the simulated kernels do. It speaks
/// [`scr_kernel::api::SyscallApi`], so applications written against it —
/// the §7.3 mail server — and the reified-`SysOp` driver run on either
/// substrate unchanged.
pub type HostKernel = Sv6Kernel<Arc<HostTraceSink>>;

/// Builds an uninstrumented kernel for `cores` participating threads.
pub fn host_kernel(cores: usize, mode: HostMode) -> HostKernel {
    host_kernel_with(cores, mode, Sv6Options::default(), None)
}

/// Builds a kernel with `options` (the statbench ablation), wired to a
/// sharing monitor when `sink` is given: every operation then records the
/// same logical-line footprint its simulated counterpart records, so
/// traced windows can be cross-checked against the simulated heatmap.
/// Threads share core slots modulo the kernel's cores, of which there are
/// at least two; the sink does not wrap, so it needs a log for every core
/// that records while a window is open.
pub fn host_kernel_with(
    cores: usize,
    mode: HostMode,
    options: Sv6Options,
    sink: Option<&Arc<HostTraceSink>>,
) -> HostKernel {
    Sv6Kernel::on_lines(sink, cores.max(2), options, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_kernel::api::{
        perform, Errno, MmapBacking, OpenFlags, Pid, Prot, SysOp, SysResult, SyscallApi, Whence,
        PAGE_SIZE,
    };

    /// What the semantic tests drive: the system calls, plus the body's
    /// own epoch pass, inode count and policy.
    trait Subject: SyscallApi {
        fn epoch(&self) -> usize;
        fn inodes(&self) -> usize;
        fn mode(&self) -> HostMode;
    }

    impl<L: scr_mtrace::Lines + Clone> Subject for Sv6Kernel<L> {
        fn epoch(&self) -> usize {
            self.reclaim_epoch()
        }

        fn inodes(&self) -> usize {
            self.inode_count()
        }

        fn mode(&self) -> HostMode {
            self.policy()
        }
    }

    /// Runs `check` on the body under both policies over every substrate —
    /// the simulated machine and real threads — each a fresh 4-core kernel
    /// with one process (pid 0).
    fn on_every_substrate(check: impl Fn(&dyn Subject, Pid)) {
        let sims = [Sv6Kernel::new(4), Sv6Kernel::linuxlike(4)];
        let hosts = [HostMode::Sv6, HostMode::Linuxlike].map(|mode| host_kernel(4, mode));
        let kernels: [&dyn Subject; 4] = [&sims[0], &sims[1], &hosts[0], &hosts[1]];
        for k in kernels {
            let pid = k.new_process();
            check(k, pid);
        }
    }

    #[test]
    fn host_kernel_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HostKernel>();
    }

    #[test]
    fn file_io_roundtrip_on_every_substrate() {
        on_every_substrate(|k, pid| {
            let fd = k.open(0, pid, "hello", OpenFlags::create()).unwrap();
            assert_eq!(
                k.open(0, pid, "hello", OpenFlags::create_excl()),
                Err(Errno::EEXIST)
            );
            assert_eq!(k.write(0, pid, fd, b"hi there").unwrap(), 8);
            assert_eq!(k.lseek(0, pid, fd, 0, Whence::Set).unwrap(), 0);
            assert_eq!(k.read(0, pid, fd, 8).unwrap(), b"hi there");
            let st = k.fstat(0, pid, fd).unwrap();
            assert_eq!((st.nlink, st.size), (1, PAGE_SIZE));
            // pread/pwrite leave the offset alone; lseek END sees the growth.
            k.pwrite(0, pid, fd, b"xyz", PAGE_SIZE).unwrap();
            assert_eq!(k.lseek(0, pid, fd, 0, Whence::Cur).unwrap(), 8);
            assert_eq!(k.pread(0, pid, fd, 3, PAGE_SIZE).unwrap(), b"xyz");
            assert_eq!(k.fstat(0, pid, fd).unwrap().size, 2 * PAGE_SIZE);
            assert_eq!(k.lseek(0, pid, fd, 0, Whence::End).unwrap(), 2 * PAGE_SIZE);
            assert_eq!(k.lseek(0, pid, fd, -1, Whence::Set), Err(Errno::EINVAL));
            k.close(0, pid, fd).unwrap();
            assert_eq!(k.read(0, pid, fd, 1), Err(Errno::EBADF));
            // POSIX hands out the lowest free descriptor again.
            assert_eq!(k.open(0, pid, "hello", OpenFlags::plain()), Ok(fd));
        });
    }

    #[test]
    fn inode_numbers_come_from_the_policys_allocator_on_every_substrate() {
        // The (counter << 8) | core scheme of scr_scalable::InodeAllocator:
        // one counter per core under sv6, one for all cores under Linux.
        on_every_substrate(|k, pid| {
            k.open(0, pid, "x", OpenFlags::create()).unwrap();
            k.open(1, pid, "y", OpenFlags::create()).unwrap();
            k.open(0, pid, "z", OpenFlags::create()).unwrap();
            let inos = ["x", "y", "z"].map(|name| k.stat(0, pid, name).unwrap().ino);
            let want = match k.mode() {
                HostMode::Sv6 => [1 << 8, (1 << 8) | 1, 2 << 8],
                HostMode::Linuxlike => [1 << 8, 2 << 8, 3 << 8],
            };
            assert_eq!(inos, want);
        });
    }

    #[test]
    fn link_unlink_rename_on_every_substrate() {
        on_every_substrate(|k, pid| {
            k.open(0, pid, "a", OpenFlags::create()).unwrap();
            k.link(1, pid, "a", "b").unwrap();
            assert_eq!(k.link(1, pid, "a", "b"), Err(Errno::EEXIST));
            assert_eq!(k.stat(0, pid, "a").unwrap().nlink, 2);
            k.unlink(2, pid, "a").unwrap();
            assert_eq!(k.stat(0, pid, "b").unwrap().nlink, 1);
            assert_eq!(k.stat(0, pid, "a"), Err(Errno::ENOENT));
            // Rename onto a hard link of the same inode only removes the
            // source.
            k.link(0, pid, "b", "c").unwrap();
            k.rename(0, pid, "b", "c").unwrap();
            assert_eq!(k.stat(0, pid, "b"), Err(Errno::ENOENT));
            assert_eq!(k.stat(0, pid, "c").unwrap().nlink, 1);
            // Rename over another file replaces it.
            k.open(0, pid, "d", OpenFlags::create()).unwrap();
            let c_ino = k.stat(0, pid, "c").unwrap().ino;
            k.rename(0, pid, "c", "d").unwrap();
            assert_eq!(k.stat(0, pid, "d").unwrap().ino, c_ino);
            assert_eq!(k.stat(0, pid, "c"), Err(Errno::ENOENT));
            assert_eq!(k.rename(0, pid, "missing", "x"), Err(Errno::ENOENT));
        });
    }

    #[test]
    fn unlinked_inodes_are_reclaimed_by_the_epoch_pass_on_every_substrate() {
        on_every_substrate(|k, pid| {
            k.open(0, pid, "victim", OpenFlags::create()).unwrap();
            k.unlink(1, pid, "victim").unwrap();
            assert_eq!(k.inodes(), 1, "reclamation must be deferred");
            assert_eq!(k.epoch(), 1);
            assert_eq!(k.inodes(), 0, "the epoch pass must reclaim the inode");
            // A still-linked inode survives its defer entry.
            k.open(0, pid, "kept", OpenFlags::create()).unwrap();
            k.link(0, pid, "kept", "extra").unwrap();
            k.unlink(0, pid, "extra").unwrap();
            assert_eq!(k.epoch(), 0);
            assert!(k.stat(0, pid, "kept").is_ok());
        });
    }

    #[test]
    fn pipes_on_every_substrate() {
        on_every_substrate(|k, pid| {
            let (r, w) = k.pipe(0, pid).unwrap();
            assert_eq!(k.write(0, pid, w, b"ping").unwrap(), 4);
            assert_eq!(k.read(0, pid, r, 16).unwrap(), b"ping");
            assert_eq!(k.read(0, pid, r, 1), Err(Errno::EAGAIN));
            // Closing the read end makes writes fail with EPIPE.
            k.close(0, pid, r).unwrap();
            assert_eq!(k.write(0, pid, w, b"x"), Err(Errno::EPIPE));
            // Closing the write end makes reads return EOF.
            let (r2, w2) = k.pipe(0, pid).unwrap();
            k.close(0, pid, w2).unwrap();
            assert_eq!(k.read(0, pid, r2, 4).unwrap(), Vec::<u8>::new());
        });
    }

    #[test]
    fn anyfd_uses_the_cores_partition_on_every_substrate() {
        on_every_substrate(|k, pid| {
            k.open(0, pid, "f", OpenFlags::create()).unwrap();
            let fd = k
                .open(2, pid, "f", OpenFlags::plain().with_anyfd())
                .unwrap() as usize;
            assert!(
                (2 * FDS_PER_CORE..3 * FDS_PER_CORE).contains(&fd),
                "O_ANYFD descriptor must come from core 2's partition, got {fd}"
            );
        });
    }

    #[test]
    fn virtual_memory_on_every_substrate() {
        on_every_substrate(|k, pid| {
            let addr = k
                .mmap(0, pid, None, 2, Prot::rw(), MmapBacking::Anon)
                .unwrap();
            // Core 0's region starts at virtual page 1.
            assert_eq!(addr, PAGE_SIZE);
            k.memwrite(0, pid, addr, 7).unwrap();
            assert_eq!(k.memread(0, pid, addr).unwrap(), 7);
            assert_eq!(k.memread(0, pid, addr + PAGE_SIZE).unwrap(), 0);
            k.mprotect(0, pid, addr, 2, Prot::ro()).unwrap();
            assert_eq!(k.memwrite(0, pid, addr, 1), Err(Errno::EFAULT));
            assert_eq!(k.memread(0, pid, addr).unwrap(), 7);
            k.munmap(0, pid, addr, 2).unwrap();
            assert_eq!(k.memread(0, pid, addr), Err(Errno::EFAULT));
            let fixed = k.mmap(
                0,
                pid,
                Some(16 * PAGE_SIZE),
                1,
                Prot::rw(),
                MmapBacking::Anon,
            );
            assert_eq!(fixed, Ok(16 * PAGE_SIZE));
            // File-backed mappings read and write through to the file.
            let fd = k.open(0, pid, "data", OpenFlags::create()).unwrap();
            k.pwrite(0, pid, fd, b"Z", 0).unwrap();
            let m = k
                .mmap(0, pid, None, 1, Prot::rw(), MmapBacking::File(fd))
                .unwrap();
            assert_eq!(k.memread(0, pid, m).unwrap(), b'Z');
            k.memwrite(0, pid, m, b'Q').unwrap();
            assert_eq!(k.pread(0, pid, fd, 1, 0).unwrap(), b"Q");
        });
    }

    #[test]
    fn fork_copies_descriptors_and_spawn_does_not_on_every_substrate() {
        on_every_substrate(|k, pid| {
            let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
            let child = k.fork(0, pid).unwrap();
            assert!(k.fstat(0, child, fd).is_ok());
            let spawned = k.posix_spawn(0, pid, &[]).unwrap();
            assert_eq!(k.fstat(0, spawned, fd), Err(Errno::EBADF));
            let spawned2 = k.posix_spawn(0, pid, &[fd]).unwrap();
            assert!(k.fstat(0, spawned2, fd).is_ok());
            k.wait(0, pid, spawned2).unwrap();
            assert_eq!(k.fstat(0, spawned2, fd), Err(Errno::EBADF));
        });
    }

    #[test]
    fn perform_drives_every_substrate_via_sysops() {
        on_every_substrate(|k, pid| {
            let name = "via-sysop".to_string();
            let flags = OpenFlags::create();
            let open = SysOp::Open {
                pid,
                name: name.clone(),
                flags,
            };
            assert!(perform(k, 0, &open).is_ok());
            match perform(k, 0, &SysOp::StatPath { pid, name }) {
                SysResult::Meta(st) => assert_eq!(st.nlink, 1),
                other => panic!("unexpected result {other:?}"),
            }
        });
    }

    #[test]
    fn concurrent_renames_sharing_a_destination_match_a_sequential_order() {
        // rename(a, b) || rename(c, b) where a and c are hard links to the
        // same inode: every sequential order ends with exactly one name (b)
        // and nlink == 1. A non-atomic check-then-act can miss the
        // same-inode fast path on both sides and leak a link count.
        let pid = 0;
        let rename = |src: &str| SysOp::Rename {
            pid,
            src: src.into(),
            dst: "b".into(),
        };
        let test = scr_core::ConcreteTest {
            id: "renames_sharing_a_destination".into(),
            calls: vec![scr_model::CallKind::Rename; 2],
            setup: vec![
                (
                    0,
                    SysOp::Open {
                        pid,
                        name: "a".into(),
                        flags: OpenFlags::create(),
                    },
                ),
                (
                    0,
                    SysOp::Link {
                        pid,
                        old: "a".into(),
                        new: "c".into(),
                    },
                ),
            ],
            ops: vec![rename("a"), rename("c")],
            procs: 1,
        };
        for round in 0..200 {
            let mode = [HostMode::Sv6, HostMode::Linuxlike][round % 2];
            let k = host_kernel(4, mode);
            let replay = scr_core::replay(&k, k.lines(), &test, scr_core::Race);
            assert!(replay.setup_ok, "round {round}");
            assert_eq!(
                replay.results,
                [SysResult::Unit, SysResult::Unit],
                "round {round}"
            );
            assert_eq!(k.stat(0, pid, "a"), Err(Errno::ENOENT), "round {round}");
            assert_eq!(k.stat(0, pid, "c"), Err(Errno::ENOENT), "round {round}");
            let st = k.stat(0, pid, "b").unwrap();
            assert_eq!(st.nlink, 1, "round {round}: leaked link count");
        }
    }

    #[test]
    fn racing_waits_list_a_child_for_reuse_once() {
        // wait(child) || wait(child): both waits succeed, but only one may
        // list the child for reuse. Listed on both cores, one pid would be
        // handed to a spawn on each.
        let wait = SysOp::Wait { pid: 0, child: 2 };
        let test = scr_core::ConcreteTest {
            id: "waits_for_one_child".into(),
            calls: vec![scr_model::CallKind::Wait; 2],
            setup: vec![(
                0,
                SysOp::Spawn {
                    pid: 0,
                    dup_fds: vec![],
                },
            )],
            ops: vec![wait.clone(), wait],
            procs: 2,
        };
        for round in 0..100 {
            let mode = [HostMode::Sv6, HostMode::Linuxlike][round % 2];
            let k = host_kernel(2, mode);
            let replay = scr_core::replay(&k, k.lines(), &test, scr_core::Race);
            assert!(replay.setup_ok, "round {round}");
            assert_eq!(
                replay.results,
                [SysResult::Unit, SysResult::Unit],
                "round {round}"
            );
            let first = k.posix_spawn(0, 0, &[]).unwrap();
            let second = k.posix_spawn(1, 0, &[]).unwrap();
            assert_ne!(first, second, "round {round}: one pid handed out twice");
        }
    }

    #[test]
    fn concurrent_creates_from_many_threads_are_safe() {
        for mode in [HostMode::Sv6, HostMode::Linuxlike] {
            let k = host_kernel(4, mode);
            let pid = k.new_process();
            std::thread::scope(|s| {
                for t in 0..4 {
                    let k = &k;
                    s.spawn(move || {
                        for i in 0..50 {
                            let name = format!("t{t}-f{i}");
                            let fd = k
                                .open(t, pid, &name, OpenFlags::create().with_anyfd())
                                .unwrap();
                            k.close(t, pid, fd).unwrap();
                        }
                    });
                }
            });
            for t in 0..4 {
                for i in 0..50 {
                    assert!(k.stat(0, pid, &format!("t{t}-f{i}")).is_ok(), "{mode:?}");
                }
            }
        }
    }
}
