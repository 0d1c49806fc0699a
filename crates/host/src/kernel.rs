//! The real-threads kernel: the execution backend the Figure-7 workloads
//! and the differential runner drive from actual OS threads.
//!
//! [`HostKernel`] is not a second kernel. It is a thin
//! [`Layer`] over the one sv6 body of `scr_kernel::sv6`, the same code the
//! simulated `Sv6Kernel` runs, here over an optional real-threads trace
//! sink instead of the simulated machine. What the layer adds is the
//! choice of *sharing*:
//!
//! * [`HostMode::Sv6`] runs the body as it is: a hash directory with 512
//!   bucket locks, per-core inode counters, Refcache link counts, per-core
//!   socket queues, per-slot descriptor locks and a lock-free process
//!   table.
//! * [`HostMode::Linuxlike`] gives the directory one bucket and takes one
//!   global kernel lock (`kernel.giant_lock`) around every call — the
//!   sharing structure that makes the baseline collapse as real threads
//!   are added, no matter how fast each individual call is.
//!
//! An instrumented kernel hands the body the trace sink as its line
//! substrate, so every operation records the footprint the simulated
//! kernel records.

use scr_hostmtrace::HostTraceSink;
use scr_kernel::api::{KResult, Layer, Pid, SockId, SyscallKind};
use scr_kernel::sv6::{Sv6Kernel, Sv6Options, DIR_BUCKETS};
use scr_mtrace::CoreId;
use scr_scalable::LockWord;
use std::sync::Arc;

pub use scr_kernel::sv6::FDS_PER_CORE;

/// The line substrate of an instrumented kernel.
type Sink = Arc<HostTraceSink>;

/// Which sharing structure the kernel is assembled with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HostMode {
    /// Per-core / striped structures; no global serialisation.
    #[default]
    Sv6,
    /// One global kernel lock around every call (the collapsing baseline).
    Linuxlike,
}

impl HostMode {
    /// Label used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            HostMode::Sv6 => "sv6-like (striped)",
            HostMode::Linuxlike => "linuxlike (global lock)",
        }
    }
}

/// The real-threads kernel. All methods take `&self` and the type is
/// `Send + Sync`; callers drive it from as many OS threads as they like,
/// passing the thread's "core" number exactly as the simulated kernels do.
/// It speaks [`scr_kernel::api::SyscallApi`] through its [`Layer`] impl, so
/// applications written against it — the §7.3 mail server — and the
/// reified-`SysOp` driver run on either substrate unchanged.
pub struct HostKernel {
    mode: HostMode,
    kernel: Sv6Kernel<Sink>,
    /// The global kernel lock; taken around every call in `Linuxlike`
    /// mode, so there every pair of calls conflicts on its written lock
    /// word — the Linux column of the host Figure 6.
    giant: LockWord<Sink>,
}

impl HostKernel {
    /// Builds a kernel for `cores` participating threads.
    pub fn new(cores: usize, mode: HostMode) -> Self {
        Self::with_options(cores, mode, Sv6Options::default())
    }

    /// Builds a kernel with non-default options (statbench ablation).
    pub fn with_options(cores: usize, mode: HostMode, options: Sv6Options) -> Self {
        Self::build(cores, mode, options, None)
    }

    /// Builds a kernel wired to a sharing monitor: every operation records
    /// the same logical-line footprint its simulated counterpart records,
    /// so traced windows can be cross-checked against the simulated
    /// heatmap. The uninstrumented constructors record nothing.
    pub fn instrumented(
        cores: usize,
        mode: HostMode,
        options: Sv6Options,
        sink: &Arc<HostTraceSink>,
    ) -> Self {
        Self::build(cores, mode, options, Some(sink))
    }

    fn build(cores: usize, mode: HostMode, options: Sv6Options, sink: Option<&Sink>) -> Self {
        let cores = cores.max(2);
        let buckets = match mode {
            HostMode::Sv6 => DIR_BUCKETS,
            // A single bucket: every name operation shares one lock,
            // like a directory-wide dentry lock.
            HostMode::Linuxlike => 1,
        };
        HostKernel {
            mode,
            kernel: Sv6Kernel::on_lines(sink, cores, options, buckets),
            giant: LockWord::new(sink, "kernel.giant_lock"),
        }
    }

    /// Drains `core`'s deferred list, reclaiming inodes whose link count
    /// is zero (the per-core half of the epoch pass). Returns the number of
    /// inodes reclaimed.
    pub fn reclaim_core(&self, core: usize) -> usize {
        self.kernel.reclaim_core(core)
    }

    /// Number of cores (thread slots) the kernel was configured for.
    pub fn cores(&self) -> usize {
        self.kernel.cores()
    }

    /// Number of processes ever created (pids are dense and never reused,
    /// so this is also one past the highest valid pid).
    pub fn process_count(&self) -> usize {
        self.kernel.process_count()
    }

    /// Open descriptors currently held by `pid`. The mail pipelines use
    /// this as their teardown leak check: a reaped helper must hold zero
    /// descriptors, so a qman dying between `spawn` and `wait` must not
    /// strand its helper with the spool descriptor still open.
    pub fn open_fd_count(&self, pid: Pid) -> KResult<usize> {
        self.kernel.open_fd_count(pid)
    }

    /// Queued messages on a socket (untraced; for tests and the
    /// conservation checks).
    pub fn socket_pending_untraced(&self, sock: SockId) -> usize {
        self.kernel.socket_pending_untraced(sock)
    }

    /// Removes and returns every queued message (untraced; used by the
    /// differential conservation checks).
    pub fn socket_drain_untraced(&self, sock: SockId) -> Vec<Vec<u8>> {
        self.kernel.socket_drain_untraced(sock)
    }
}

/// Every call runs the sv6 body; in `Linuxlike` mode it runs under the
/// giant lock. Unlike the simulated Linux baseline (which always enforces
/// socket ordering), the host kernel honours the requested ordering in
/// both modes: the mode changes only the sharing.
impl Layer for HostKernel {
    type Inner = Sv6Kernel<Sink>;

    fn inner(&self) -> &Sv6Kernel<Sink> {
        &self.kernel
    }

    fn around<T>(
        &self,
        _core: CoreId,
        _kind: SyscallKind,
        call: impl Fn() -> KResult<T>,
    ) -> KResult<T> {
        let _giant = (self.mode == HostMode::Linuxlike).then(|| self.giant.hold());
        call()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_kernel::api::{
        perform, Errno, MmapBacking, OpenFlags, Prot, SysOp, SysResult, SyscallApi, Whence,
        PAGE_SIZE,
    };

    /// What the semantic tests drive: the system calls, plus the sv6
    /// body's own epoch pass and inode count.
    trait Subject: SyscallApi {
        fn epoch(&self) -> usize;
        fn inodes(&self) -> usize;
    }

    impl Subject for Sv6Kernel {
        fn epoch(&self) -> usize {
            self.reclaim_epoch()
        }

        fn inodes(&self) -> usize {
            self.inode_count()
        }
    }

    impl Subject for HostKernel {
        fn epoch(&self) -> usize {
            self.inner().reclaim_epoch()
        }

        fn inodes(&self) -> usize {
            self.inner().inode_count()
        }
    }

    /// Runs `check` on the sv6 body over every substrate — the simulated
    /// machine, and real threads in both host modes — each a fresh 4-core
    /// kernel with one process (pid 0).
    fn on_every_substrate(check: impl Fn(&dyn Subject, Pid)) {
        let sim = Sv6Kernel::new(4);
        let hosts = [HostMode::Sv6, HostMode::Linuxlike].map(|mode| HostKernel::new(4, mode));
        let kernels: [&dyn Subject; 3] = [&sim, &hosts[0], &hosts[1]];
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
        });
    }

    #[test]
    fn inode_numbers_come_from_the_per_core_allocator_on_every_substrate() {
        // The (counter << 8) | core scheme of scr_scalable::InodeAllocator.
        on_every_substrate(|k, pid| {
            k.open(0, pid, "x", OpenFlags::create()).unwrap();
            k.open(1, pid, "y", OpenFlags::create()).unwrap();
            k.open(0, pid, "z", OpenFlags::create()).unwrap();
            assert_eq!(k.stat(0, pid, "x").unwrap().ino, 1 << 8);
            assert_eq!(k.stat(0, pid, "y").unwrap().ino, (1 << 8) | 1);
            assert_eq!(k.stat(0, pid, "z").unwrap().ino, 2 << 8);
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
        let setup = [
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
        ];
        let rename = |src: &str| SysOp::Rename {
            pid,
            src: src.into(),
            dst: "b".into(),
        };
        let (rename_a, rename_c) = (rename("a"), rename("c"));
        for round in 0..200 {
            let k = HostKernel::new(4, HostMode::Sv6);
            let results = crate::harness::race(&k, 1, &setup, [&rename_a, &rename_c], true, || {});
            assert_eq!(results, [SysResult::Unit, SysResult::Unit], "round {round}");
            assert_eq!(k.stat(0, pid, "a"), Err(Errno::ENOENT), "round {round}");
            assert_eq!(k.stat(0, pid, "c"), Err(Errno::ENOENT), "round {round}");
            let st = k.stat(0, pid, "b").unwrap();
            assert_eq!(st.nlink, 1, "round {round}: leaked link count");
        }
    }

    #[test]
    fn concurrent_creates_from_many_threads_are_safe() {
        let k = std::sync::Arc::new(HostKernel::new(4, HostMode::Sv6));
        let pid = k.new_process();
        std::thread::scope(|s| {
            for t in 0..4 {
                let k = std::sync::Arc::clone(&k);
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
                assert!(k.stat(0, pid, &format!("t{t}-f{i}")).is_ok());
            }
        }
    }
}
