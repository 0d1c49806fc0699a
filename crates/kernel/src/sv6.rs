//! The kernel body: ScaleFS (in-memory file system) plus a RadixVM-like
//! virtual memory system (§6.3), built from the scalable primitives of
//! `scr-scalable` — and, under the Linux-like [`Policy`], the same body with
//! the sharing of Linux 3.8 (§6.2) added.
//!
//! The kernel is written once, in two ways at once:
//!
//! * **Over any line substrate.** It is generic over the [`Lines`] its
//!   structures record their footprint on. [`Sv6Kernel`] (that is,
//!   `Sv6Kernel<SimMachine>`) runs it on the simulated machine, where
//!   COMMUTER checks which commutative pairs are conflict-free; the
//!   real-threads `HostKernel` of `scr-host` runs the same body over a
//!   trace sink (or over no substrate at all) from OS threads, where
//!   Figure 7 times it.
//! * **Under either sharing policy.** [`Policy::Sv6`] is the sv6 kernel;
//!   [`Policy::Linuxlike`] is the Linux-like baseline of both Figure 6 and
//!   Figure 7. The policy is a value chosen at construction: the Linux
//!   structures are `Option`s the sv6 policy leaves empty, three
//!   optimistic paths are switched by [`Policy`], and two calls branch
//!   (`posix_spawn` and `socket`). The policy's doc lists what it shares.
//!
//! The state is real storage — atomics, per-slot locks, a sharded inode
//! table, a lock-free process table — so the kernel is `Send + Sync`
//! whenever its substrate is; on the single-threaded simulator every lock
//! is uncontended. The body's own locks are concurrency measures and
//! record no line, so a call records the same footprint whichever
//! substrate it runs on; the Linux policy's coarse locks are sharing the
//! baseline really has, so they record their lock words.
//!
//! Design patterns reproduced from the paper:
//!
//! * **Layer scalability** — directories are hash tables with per-bucket
//!   locks, file pages and address spaces are radix arrays, so operations on
//!   different names / pages / addresses touch disjoint cache lines.
//! * **Defer work** — link counts are Refcache counters (per-core deltas),
//!   inode numbers come from per-core never-reused allocators, and inode
//!   reclamation is deferred to an epoch pass.
//! * **Precede pessimism with optimism** — `lseek`, `rename`, `link` and
//!   `insert_if_absent` check read-only whether any update is needed before
//!   writing anything.
//! * **Don't read unless necessary** — `link`'s existence check is a
//!   name-only lookup that never touches the inode, and `fstatx` without
//!   `st_nlink` never reads the link count.
//!
//! Four protocols keep concurrent calls linearisable on real threads, under
//! either policy:
//! `link` publishes its link-count increment before it inserts the name;
//! `rename` checks and updates both names under both buckets' locks; an
//! `open(O_CREAT)` that loses a create race drops the inode it allocated;
//! and the epoch pass decides reclamation under the inode shard's lock.
//!
//! The §6.4 residual non-scalable cases are deliberately retained: two
//! `lseek`s that move the same descriptor to the same (new) offset both
//! write the offset; identical fixed-address `mmap`s both write the mapping
//! slot; and pipe endpoints keep a shared reader/writer count, so closing
//! pipe descriptors conflicts with other pipe operations.

use crate::api::{
    Errno, Fd, Ino, KResult, MmapBacking, OpenFlags, Pid, Prot, SockId, SocketOrder, Stat,
    StatMask, SyscallApi, Whence, PAGE_SIZE,
};
use crate::policy::{LinuxDir, LinuxProc};
use crate::proc_table::ProcTable;
use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard, RwLock};
use scr_mtrace::{Block, CoreId, Lines, SimMachine};
use scr_scalable::{
    DeferQueue, HashDir, InodeAllocator, LinkCounter, RadixArray, SeqLock, SharedCounter,
    SocketTable,
};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

pub use crate::policy::Policy;

/// Descriptors per core partition (for `O_ANYFD` allocation).
pub const FDS_PER_CORE: usize = 16;
/// Virtual pages reserved per core for hint-less `mmap` allocation.
const VPN_REGION_PER_CORE: u64 = 256;
/// Directory bucket count. Sized generously (like a real dcache) so that
/// operations on different names rarely collide in one bucket; the
/// "barring hash collisions" caveat of §1 still applies to the residual
/// collisions.
const DIR_BUCKETS: usize = 512;
/// Shards of the inode table, so lookups of different inodes from
/// different threads do not serialise.
const INODE_SHARDS: usize = 64;

/// Tunable build options for the sv6 kernel, used by the ablation
/// benchmarks (§7.2's "shared st_nlink" statbench mode).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sv6Options {
    /// Keep link counts in a single shared cell instead of a Refcache
    /// counter. `link`/`unlink` then conflict with each other, and `fstat`
    /// incurs exactly one shared cache line — the middle curve of
    /// Figure 7(a).
    pub shared_link_counts: bool,
}

/// One regular file's in-memory inode.
struct Inode<L> {
    ino: Ino,
    /// Link count: a Refcache counter so `link`/`unlink` on different cores
    /// are conflict-free. `fstat` pays to reconcile it; `fstatx` without
    /// `st_nlink` does not touch it.
    nlink: LinkCounter<L>,
    /// File size in pages, seqlock-protected metadata.
    size_pages: SeqLock<L>,
    /// Page cache: page number → contents.
    pages: RadixArray<Vec<u8>, L>,
}

/// One pipe. The reader/writer endpoint counts are deliberately plain
/// shared counts — the §6.4 residual non-scalable case.
struct Pipe<L> {
    buffer: Mutex<VecDeque<u8>>,
    readers: AtomicI64,
    writers: AtomicI64,
    /// The `buffer`, `readers` and `writers` lines, when traced.
    lines: Option<Block<L>>,
}

/// The lines of a pipe's block.
const PIPE_LINES: [&str; 3] = ["buffer", "readers", "writers"];
const BUFFER: usize = 0;
const READERS: usize = 1;
const WRITERS: usize = 2;

/// What an open descriptor refers to.
enum FileObj<L> {
    File(Arc<Inode<L>>),
    PipeRead(Arc<Pipe<L>>),
    PipeWrite(Arc<Pipe<L>>),
}

/// An open file description (shared by `fork`-duplicated descriptors).
struct OpenFile<L> {
    obj: FileObj<L>,
    offset: AtomicU64,
    /// Serialises offset-consistent I/O (`read`/`write`/`lseek`) on this
    /// open file, so no call observes another's offset update and content
    /// update half-applied.
    io: Mutex<()>,
    /// The offset's line (`proc[p].ofile[name].offset`), when traced.
    offset_line: Option<Block<L>>,
    /// The Linux policy's `f_count`: taken by every call that looks the
    /// file up by descriptor, and by every descriptor that refers to it.
    f_count: Option<SharedCounter<L>>,
}

/// A descriptor's open file for the length of one call: `fget` takes the
/// Linux policy's `f_count` and dropping it (`fput`) drops it again.
struct FileRef<L: Lines + Clone>(Arc<OpenFile<L>>);

impl<L: Lines + Clone> Deref for FileRef<L> {
    type Target = OpenFile<L>;

    fn deref(&self) -> &OpenFile<L> {
        &self.0
    }
}

impl<L: Lines + Clone> Drop for FileRef<L> {
    fn drop(&mut self) {
        if let Some(count) = &self.0.f_count {
            count.add(-1);
        }
    }
}

/// One page of a mapped region.
#[derive(Clone)]
enum PageBacking<L> {
    /// Anonymous memory: the page's contents and, when traced, its line
    /// `proc[p].page[vpn]`.
    Anon(Arc<AtomicU8>, Option<Block<L>>),
    /// A file page.
    File { ino: Ino, file_page: u64 },
}

/// A mapping entry in the address space radix array.
#[derive(Clone)]
struct MappedPage<L> {
    prot: Prot,
    backing: PageBacking<L>,
}

/// One descriptor slot: a cache-padded lock, so lowest-FD scans and
/// `O_ANYFD` partition claims contend only on the slots they touch.
type FdSlot<L> = CachePadded<Mutex<Option<Arc<OpenFile<L>>>>>;
/// One core partition's worth of descriptor slots ([`FDS_PER_CORE`]).
type FdChunk<L> = Box<[FdSlot<L>]>;

/// A process: descriptor table and address space.
///
/// The slot storage is allocated lazily, one core partition at a time:
/// every padded slot costs a cache line, and the mail workload creates one
/// short-lived helper process *per message* (`posix_spawn`), each touching
/// only the partition its one or two descriptors land in. An untouched
/// partition is all-empty by definition, which the accessors exploit
/// without allocating it.
struct Process<L> {
    fd_chunks: Box<[OnceLock<FdChunk<L>>]>,
    /// Address space (`proc[p].as`), keyed by virtual page number.
    vm_pages: RadixArray<MappedPage<L>, L>,
    /// Per-core mmap bump allocators, allocated together by the process's
    /// first `mmap` (helper processes never map memory). Unallocated means
    /// the address space was never touched, which makes a reaped process
    /// recyclable.
    next_vpn: OnceLock<Box<[CachePadded<AtomicU64>]>>,
    /// Set by the `wait` that puts the process on a reaped list, cleared
    /// when a spawn takes it off again (untraced), so a second `wait`
    /// cannot list it twice. The spawn's `Release` clear pairs with the
    /// `Acquire` of a later `wait`'s swap, which then lists it again.
    reaped: AtomicBool,
    /// One line per descriptor slot (`proc[p].fd[f]`), when traced. The
    /// block names no line until a report asks, so a traced process costs
    /// O(1) whatever its table size.
    fd_lines: Option<Block<L>>,
    /// Per-core mmap bump-allocator lines (`proc[p].next_vpn[c]`).
    vpn_lines: Option<Block<L>>,
    /// The Linux policy's `file_lock` and `mmap_sem` and their tables.
    linux: Option<Box<LinuxProc<L>>>,
}

impl<L> Process<L> {
    /// Total descriptor capacity (cores × partition size).
    fn fd_capacity(&self) -> usize {
        self.fd_chunks.len() * FDS_PER_CORE
    }

    /// The slot for `fd`, allocating its partition on first touch. `None`
    /// only when `fd` is beyond the table.
    fn fd_slot(&self, fd: usize) -> Option<&FdSlot<L>> {
        let chunk = self.fd_chunks.get(fd / FDS_PER_CORE)?.get_or_init(|| {
            (0..FDS_PER_CORE)
                .map(|_| CachePadded::new(Mutex::new(None)))
                .collect()
        });
        Some(&chunk[fd % FDS_PER_CORE])
    }

    /// The slot for `fd` only if its partition was ever touched — an
    /// unallocated partition holds no open files, so lookups through here
    /// treat it as an empty slot without allocating it.
    fn fd_slot_if_allocated(&self, fd: usize) -> Option<&FdSlot<L>> {
        Some(&self.fd_chunks.get(fd / FDS_PER_CORE)?.get()?[fd % FDS_PER_CORE])
    }

    /// The per-core mmap bump allocators, each starting at its core's
    /// region, allocated on first use.
    fn next_vpn(&self, cores: usize) -> &[CachePadded<AtomicU64>] {
        self.next_vpn.get_or_init(|| {
            (0..cores as u64)
                .map(|shard| CachePadded::new(AtomicU64::new(1 + shard * VPN_REGION_PER_CORE)))
                .collect()
        })
    }

    /// Whether the process ever called `mmap` (untraced).
    fn mapped(&self) -> bool {
        self.next_vpn.get().is_some()
    }
}

/// One cache-padded shard of the inode table.
type InodeShard<L> = CachePadded<RwLock<BTreeMap<Ino, Arc<Inode<L>>>>>;
/// One core's list of reaped pids, cache-padded like an inode shard.
type ReapedList = CachePadded<Mutex<Vec<Pid>>>;

/// The kernel body (ScaleFS + RadixVM analogue) over the line substrate
/// `L` — the simulated machine by default — under either sharing
/// [`Policy`].
pub struct Sv6Kernel<L = SimMachine> {
    /// The substrate every structure records on; `None` records nothing.
    lines: Option<L>,
    cores: usize,
    options: Sv6Options,
    policy: Policy,
    root: HashDir<Ino, L>,
    inode_shards: Box<[InodeShard<L>]>,
    inode_alloc: InodeAllocator<L>,
    /// Process table: lock-free and append-only. Entries are borrowed for
    /// the kernel's lifetime, never cloned, so a pid lookup writes no
    /// shared line. A reaped process's entry is handed out again through
    /// `reaped`, so the table grows with the processes alive at once (and
    /// the reaped ones that mapped memory), not with every process ever
    /// created.
    procs: ProcTable<Box<Process<L>>>,
    /// Per-core lists of reaped pids that `fork` and `posix_spawn` on that
    /// core hand out again (§6.3 per-core allocation), so spawn and wait
    /// stay conflict-free. Untraced like the table, and allocated by the
    /// first reap, so building a kernel allocates nothing for them.
    reaped: OnceLock<Box<[ReapedList]>>,
    /// Datagram sockets (§4 / §7.3): ordered or per-core unordered queues.
    sockets: SocketTable<L>,
    /// Per-core lists of inodes whose last link may be gone, drained by the
    /// epoch passes ("defer work", `scalefs.inode_gc.defer[c]`).
    defer: DeferQueue<Ino, L>,
    /// Numbers pipes for their labels (`pipe[pid:id]`); untraced.
    next_pipe_id: AtomicU64,
    /// The Linux policy's directory lock, entries line and dentry cache.
    dir: Option<LinuxDir<L>>,
}

impl Sv6Kernel {
    /// Builds an sv6 kernel on a fresh simulated machine with `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self::with_options(cores, Sv6Options::default())
    }

    /// Builds an sv6 kernel with non-default options (used by the ablation
    /// benchmarks).
    pub fn with_options(cores: usize, options: Sv6Options) -> Self {
        Self::on_lines(Some(&SimMachine::new()), cores, options, Policy::Sv6)
    }

    /// Builds the Linux-like baseline on a fresh simulated machine.
    pub fn linuxlike(cores: usize) -> Self {
        Self::on_lines(
            Some(&SimMachine::new()),
            cores,
            Sv6Options::default(),
            Policy::Linuxlike,
        )
    }
}

impl<L: Lines + Clone> Sv6Kernel<L> {
    /// Builds the kernel for `cores` cores over `lines` (`None`: record
    /// nothing), with `policy`'s sharing. The Linux-like policy keeps link
    /// counts in one shared count whatever `options` says.
    pub fn on_lines(lines: Option<&L>, cores: usize, options: Sv6Options, policy: Policy) -> Self {
        let linux = policy == Policy::Linuxlike;
        // Field initialisers run in the order written, which is the order
        // the structures' lines are allocated in.
        Sv6Kernel {
            lines: lines.cloned(),
            cores,
            options: Sv6Options {
                shared_link_counts: options.shared_link_counts || linux,
            },
            policy,
            root: HashDir::new(lines, "scalefs.root", DIR_BUCKETS),
            inode_shards: (0..INODE_SHARDS)
                .map(|_| CachePadded::new(RwLock::new(BTreeMap::new())))
                .collect(),
            // Linux numbers inodes from one counter.
            inode_alloc: InodeAllocator::new(lines, "scalefs", if linux { 1 } else { cores }),
            procs: ProcTable::new(),
            reaped: OnceLock::new(),
            sockets: SocketTable::new(lines, cores),
            defer: DeferQueue::new(lines, "scalefs.inode_gc", cores),
            next_pipe_id: AtomicU64::new(0),
            dir: linux.then(|| LinuxDir::new(lines)),
        }
    }

    /// Number of cores this kernel was configured for.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The sharing policy this kernel was built with.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The line substrate the kernel records on, if any.
    pub fn lines(&self) -> Option<&L> {
        self.lines.as_ref()
    }

    /// Drains `core`'s deferred list, reclaiming inodes whose link count
    /// is zero (the per-core half of the epoch pass; a real kernel runs
    /// this from a per-core timer tick). Returns the number of inodes
    /// reclaimed.
    pub fn reclaim_core(&self, core: CoreId) -> usize {
        let mut reclaimed = 0;
        for ino in self.defer.drain(core) {
            // The zero check happens inside the shard's write section:
            // link() publishes its increment before validating the inode is
            // still present (under the same lock), so whichever of the two
            // wins the lock sees a consistent picture — either the count is
            // back above zero and the inode survives, or it is removed and
            // link() observes that and undoes its insertion.
            let mut shard = self.inode_shard(ino).write();
            if shard
                .get(&ino)
                .is_some_and(|inode| inode.nlink.read_exact() <= 0)
            {
                shard.remove(&ino);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Runs the epoch pass over every core's deferred list. Returns the
    /// number of inodes reclaimed.
    pub fn reclaim_epoch(&self) -> usize {
        (0..self.defer.cores())
            .map(|core| self.reclaim_core(core))
            .sum()
    }

    /// Inodes in the inode table, unlinked ones awaiting the epoch pass
    /// included (untraced).
    pub fn inode_count(&self) -> usize {
        self.inode_shards.iter().map(|s| s.read().len()).sum()
    }

    /// The directory hash bucket a name maps to. Creation of names in
    /// different buckets is conflict-free; tests and the test-case driver
    /// use this to distinguish genuine sharing from hash collisions (the
    /// paper's "barring hash collisions" caveat).
    pub fn dir_bucket_of(&self, name: &str) -> usize {
        self.root.bucket_of(name)
    }

    /// Number of pids handed out, which is one past the highest valid pid
    /// (pids are dense). A reaped process's pid is handed out again by the
    /// next `fork` or `posix_spawn` on the reaping core, so this counts
    /// the live processes, the reaped ones waiting on a core's list and
    /// the reaped ones that mapped memory, which are never reused.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Open descriptors currently held by `pid` (untraced). Only partitions
    /// the process ever touched are scanned.
    pub fn open_fd_count(&self, pid: Pid) -> KResult<usize> {
        let proc_ = self.proc(pid)?;
        Ok(proc_
            .fd_chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|chunk| chunk.iter())
            .filter(|slot| slot.lock().is_some())
            .count())
    }

    /// Queued messages on a socket (untraced).
    pub fn socket_pending_untraced(&self, sock: SockId) -> usize {
        self.sockets.pending(sock)
    }

    /// Removes and returns every queued message (untraced).
    pub fn socket_drain_untraced(&self, sock: SockId) -> Vec<Vec<u8>> {
        self.sockets.drain(sock)
    }

    fn proc(&self, pid: Pid) -> KResult<&Process<L>> {
        self.procs.get(pid).map(Box::as_ref).ok_or(Errno::EINVAL)
    }

    /// `core`'s list of reaped pids, allocating every core's list on the
    /// first reap.
    fn reaped_on(&self, core: CoreId) -> &Mutex<Vec<Pid>> {
        let lists = self.reaped.get_or_init(|| {
            (0..self.cores)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect()
        });
        &lists[core % self.cores]
    }

    /// A child process for a `fork` or `posix_spawn` on `core`: the last
    /// process reaped on `core` when there is one, else a fresh one. A
    /// listed process has no descriptors and never mapped memory, so only
    /// its pid tells it from a fresh one.
    fn child_process(&self, core: CoreId) -> Pid {
        let listed = self
            .reaped
            .get()
            .and_then(|lists| lists[core % self.cores].lock().pop());
        match listed {
            Some(pid) => {
                self.procs
                    .get(pid)
                    .expect("listed pid")
                    .reaped
                    .store(false, Ordering::Release);
                pid
            }
            None => self.new_process(),
        }
    }

    fn inode_shard(&self, ino: Ino) -> &RwLock<BTreeMap<Ino, Arc<Inode<L>>>> {
        &self.inode_shards[(ino % INODE_SHARDS as u64) as usize]
    }

    fn inode(&self, ino: Ino) -> Option<Arc<Inode<L>>> {
        self.inode_shard(ino).read().get(&ino).cloned()
    }

    fn new_inode(&self, core: CoreId) -> Arc<Inode<L>> {
        let ino = self.inode_alloc.alloc(core);
        // Labels are tracing-only work: none is formatted without lines.
        let lines = self.lines.as_ref();
        let inode = Arc::new(Inode {
            ino,
            nlink: LinkCounter::new(
                lines,
                format_args!("inode[{ino}].nlink"),
                self.cores,
                self.options.shared_link_counts,
            ),
            size_pages: SeqLock::new(lines, format_args!("inode[{ino}].size"), 0),
            pages: RadixArray::new(lines, format_args!("inode[{ino}].pages")),
        });
        self.inode_shard(ino)
            .write()
            .insert(ino, Arc::clone(&inode));
        inode
    }

    /// A one-line block labelled by `label`, when traced.
    fn line(&self, label: impl FnOnce() -> String) -> Option<Block<L>> {
        self.lines.as_ref().map(|lines| lines.line(label()))
    }

    /// A new open file description for `obj`, its offset and `f_count`
    /// lines named by `label("offset")` and `label("f_count")`.
    fn new_file(&self, obj: FileObj<L>, label: impl Fn(&str) -> String) -> Arc<OpenFile<L>> {
        let lines = self.lines.as_ref();
        Arc::new(OpenFile {
            obj,
            offset: AtomicU64::new(0),
            io: Mutex::new(()),
            offset_line: self.line(|| label("offset")),
            f_count: (self.policy == Policy::Linuxlike).then(|| {
                SharedCounter::new(lines, lines.map(|_| label("f_count")).unwrap_or_default())
            }),
        })
    }

    /// Looks up `fd` (`fget`).
    fn open_file(&self, proc_: &Process<L>, fd: Fd) -> KResult<FileRef<L>> {
        if let Some(linux) = &proc_.linux {
            linux.read_fds();
        }
        if fd as usize >= proc_.fd_capacity() {
            return Err(Errno::EBADF);
        }
        if let Some(p) = &proc_.fd_lines {
            p.read(fd as usize);
        }
        // An unallocated partition is an empty slot (recorded as the read
        // above).
        let slot = proc_
            .fd_slot_if_allocated(fd as usize)
            .ok_or(Errno::EBADF)?;
        let file = slot.lock().clone().ok_or(Errno::EBADF)?;
        if let Some(count) = &file.f_count {
            count.add(1);
        }
        Ok(FileRef(file))
    }

    /// A path lookup: the directory's, plus the Linux policy's dentry.
    fn lookup(&self, name: &str) -> Option<Ino> {
        let ino = self.root.get(name);
        if let Some(dir) = &self.dir {
            dir.lookup(name, ino.is_some());
        }
        ino
    }

    /// Under the Linux policy, holds the directory's `i_mutex` for a call
    /// that may add or remove a name.
    fn lock_dir(&self) -> Option<MutexGuard<'_, ()>> {
        self.dir.as_ref().map(LinuxDir::lock)
    }

    /// Under the Linux policy, a call that removes `name` looks it up
    /// first, failing when it is missing, and then (when `lock`) holds the
    /// directory's `i_mutex`.
    fn lookup_then_lock(&self, name: &str, lock: bool) -> KResult<Option<MutexGuard<'_, ()>>> {
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        self.lookup(name).ok_or(Errno::ENOENT)?;
        Ok(lock.then(|| dir.lock()))
    }

    /// Records, under the Linux policy, that `names` were added or removed.
    fn dir_changed(&self, names: &[&str]) {
        if let Some(dir) = &self.dir {
            dir.changed(names);
        }
    }

    /// Releases every descriptor of `proc_` that `release` selects, as
    /// `close` does. The process's open-descriptor list is process-private
    /// state (a real exit path walks its own fd list), so empty slots are
    /// skipped without touching their lines; each occupied slot is read and
    /// emptied.
    fn release_fds(&self, proc_: &Process<L>, release: impl Fn(usize) -> bool) {
        let _files = proc_.linux.as_ref().map(|linux| linux.files(true));
        for (chunk_idx, chunk) in proc_.fd_chunks.iter().enumerate() {
            let Some(chunk) = chunk.get() else { continue };
            for (slot_idx, slot) in chunk.iter().enumerate() {
                let fd = chunk_idx * FDS_PER_CORE + slot_idx;
                if !release(fd) {
                    continue;
                }
                let Some(file) = slot.lock().take() else {
                    continue;
                };
                if let Some(p) = &proc_.fd_lines {
                    p.read(fd);
                    p.write(fd);
                }
                adjust_refs(&file, -1);
            }
        }
    }

    /// Allocates a descriptor slot. With `anyfd` the search is restricted to
    /// the invoking core's partition (conflict-free across cores); otherwise
    /// the lowest free slot is claimed, which requires scanning from 0. The
    /// per-slot lock makes the claim atomic; the recorded footprint is one
    /// read per scanned slot plus a write of the claimed one.
    fn alloc_fd(
        &self,
        core: CoreId,
        proc_: &Process<L>,
        file: Arc<OpenFile<L>>,
        anyfd: bool,
    ) -> KResult<Fd> {
        let _files = proc_.linux.as_ref().map(|linux| linux.files(true));
        let (start, end) = if anyfd {
            let core = core % self.cores;
            (core * FDS_PER_CORE, (core + 1) * FDS_PER_CORE)
        } else {
            (0, proc_.fd_capacity())
        };
        for fd in start..end {
            if let Some(p) = &proc_.fd_lines {
                p.read(fd);
            }
            // The scan stops at the first free slot, so allocating the
            // partition here only ever allocates the chunk being claimed.
            let mut slot = proc_.fd_slot(fd).expect("fd within capacity").lock();
            if slot.is_none() {
                if let Some(p) = &proc_.fd_lines {
                    p.write(fd);
                }
                *slot = Some(file);
                return Ok(fd as Fd);
            }
        }
        Err(Errno::EMFILE)
    }

    fn file_stat(&self, inode: &Inode<L>, mask: StatMask) -> Stat {
        Stat {
            ino: if mask.want_ino { inode.ino } else { 0 },
            size: if mask.want_size {
                inode.size_pages.read() * PAGE_SIZE
            } else {
                0
            },
            nlink: if mask.want_nlink {
                inode.nlink.read_exact()
            } else {
                0
            },
            is_pipe: false,
        }
    }

    fn file_read_at(&self, inode: &Inode<L>, offset: u64, len: u64) -> Vec<u8> {
        // Bounds are determined by which pages exist in the radix array, so
        // reads of different pages never conflict with size changes. Linux
        // bounds a read by the size, so there every read loads it.
        if self.policy == Policy::Linuxlike {
            inode.size_pages.read();
        }
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let pages = inode.pages.read();
        let first_page = offset / PAGE_SIZE;
        let last_page = (offset + len - 1) / PAGE_SIZE;
        for page in first_page..=last_page {
            match pages.get(page as usize) {
                Some(data) => {
                    let page_start = page * PAGE_SIZE;
                    let begin = offset.max(page_start) - page_start;
                    let end = ((offset + len).min(page_start + PAGE_SIZE)) - page_start;
                    let begin = begin as usize;
                    let end = (end as usize).min(data.len());
                    if begin < end {
                        out.extend_from_slice(&data[begin..end]);
                    }
                }
                None => break,
            }
        }
        out
    }

    fn file_write_at(&self, inode: &Inode<L>, offset: u64, data: &[u8]) -> u64 {
        if data.is_empty() {
            return 0;
        }
        let mut written = 0u64;
        let mut cursor = offset;
        let mut pages = inode.pages.write();
        while written < data.len() as u64 {
            let page = cursor / PAGE_SIZE;
            let in_page = (cursor % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - in_page).min(data.len() - written as usize);
            // One radix read and one store back per chunk.
            let page_data = pages.update(page as usize);
            if page_data.len() < in_page + chunk {
                page_data.resize(in_page + chunk, 0);
            }
            page_data[in_page..in_page + chunk]
                .copy_from_slice(&data[written as usize..written as usize + chunk]);
            written += chunk as u64;
            cursor += chunk as u64;
        }
        drop(pages);
        // Grow the size only when the write actually extends the file; the
        // optimistic read keeps non-extending writes conflict-free with each
        // other.
        inode
            .size_pages
            .fetch_max((offset + written).div_ceil(PAGE_SIZE));
        written
    }

    fn vpn_of(addr: u64) -> KResult<u64> {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(Errno::EINVAL);
        }
        Ok(addr / PAGE_SIZE)
    }
}

/// Adjusts the counts a descriptor holds: duplicating a descriptor (fork's
/// snapshot, posix_spawn's dup list) takes another reference (`+1`),
/// `close`/`wait` drop one (`-1`). A pipe end's endpoint count moves with
/// it; keeping every adjustment on this one helper keeps EPIPE/EOF exact
/// across process boundaries. The endpoint counts are shared — the
/// deliberate §6.4 residual conflict — and each adjustment is a
/// read-modify-write of the endpoint's line. Under the Linux policy the
/// open file's `f_count` moves too.
fn adjust_refs<L: Lines + Clone>(file: &OpenFile<L>, delta: i64) {
    if let Some(count) = &file.f_count {
        count.add(delta);
    }
    let (pipe, count, line) = match &file.obj {
        FileObj::File(_) => return,
        FileObj::PipeRead(pipe) => (pipe, &pipe.readers, READERS),
        FileObj::PipeWrite(pipe) => (pipe, &pipe.writers, WRITERS),
    };
    if let Some(lines) = &pipe.lines {
        lines.rmw(line);
    }
    count.fetch_add(delta, Ordering::AcqRel);
}

impl<L: Lines + Clone> SyscallApi for Sv6Kernel<L> {
    /// Creates a new process, returning a fresh pid (dense from zero). The
    /// append-only table makes this lock-free.
    fn new_process(&self) -> Pid {
        self.procs.push_with(|pid| {
            let lines = self.lines.as_ref();
            Box::new(Process {
                fd_chunks: (0..self.cores).map(|_| OnceLock::new()).collect(),
                next_vpn: OnceLock::new(),
                reaped: AtomicBool::new(false),
                fd_lines: lines.map(|lines| {
                    lines.block(self.cores * FDS_PER_CORE, move |fd| {
                        format!("proc[{pid}].fd[{fd}]")
                    })
                }),
                vm_pages: RadixArray::new(lines, format_args!("proc[{pid}].as")),
                vpn_lines: lines.map(|lines| {
                    lines.block(self.cores, move |c| format!("proc[{pid}].next_vpn[{c}]"))
                }),
                linux: (self.policy == Policy::Linuxlike)
                    .then(|| Box::new(LinuxProc::new(lines, pid))),
            })
        })
    }

    fn open(&self, core: CoreId, pid: Pid, name: &str, flags: OpenFlags) -> KResult<Fd> {
        let proc_ = self.proc(pid)?;
        let ino = match self.lookup(name) {
            Some(ino) => {
                if flags.create && flags.excl {
                    return Err(Errno::EEXIST);
                }
                ino
            }
            None => {
                if !flags.create {
                    return Err(Errno::ENOENT);
                }
                let _dir = self.lock_dir();
                let inode = self.new_inode(core);
                inode.nlink.inc(core);
                if self.root.insert_if_absent(name, inode.ino) {
                    self.dir_changed(&[name]);
                    inode.ino
                } else {
                    // Lost a create race with another thread: the
                    // pre-allocated inode was never published under a name,
                    // so drop it from the table here — no epoch pass would
                    // ever reclaim it otherwise.
                    inode.nlink.dec(core);
                    self.inode_shard(inode.ino).write().remove(&inode.ino);
                    if flags.excl {
                        return Err(Errno::EEXIST);
                    }
                    self.root.get(name).ok_or(Errno::ENOENT)?
                }
            }
        };
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        if flags.truncate && (!self.policy.optimistic() || inode.size_pages.read() != 0) {
            inode.size_pages.write(|_| 0);
            inode.pages.clear();
        }
        let file = self.new_file(FileObj::File(inode), |line| {
            format!("proc[{pid}].ofile[{name}].{line}")
        });
        self.alloc_fd(core, proc_, file, flags.anyfd)
    }

    fn link(&self, core: CoreId, pid: Pid, old: &str, new: &str) -> KResult<()> {
        self.proc(pid)?;
        let ino = self.lookup(old).ok_or(Errno::ENOENT)?;
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        let _dir = self.lock_dir();
        // Optimistic existence check first: a link to an existing name
        // must not touch the link counter at all. This check is the
        // insert's optimistic stage, so the pessimistic insert below
        // completes the footprint of `insert_if_absent`.
        if self.root.contains(new) {
            return Err(Errno::EEXIST);
        }
        // Publish the increment *before* inserting the name, then validate
        // the inode is still in the table. A concurrent unlink+epoch pass
        // could have reclaimed it between our lookup and our increment; the
        // epoch pass re-checks the count under the shard lock, so after a
        // successful validation the inode can no longer disappear while the
        // new name references it.
        inode.nlink.inc(core);
        if !self.root.insert_if_absent_pessimistic(new, ino) {
            inode.nlink.dec(core);
            return Err(Errno::EEXIST);
        }
        if self.inode(ino).is_none() {
            // Lost to reclamation: linearise as link-after-unlink.
            self.root.remove(new);
            return Err(Errno::ENOENT);
        }
        self.dir_changed(&[new]);
        Ok(())
    }

    fn unlink(&self, core: CoreId, pid: Pid, name: &str) -> KResult<()> {
        self.proc(pid)?;
        let _dir = self.lookup_then_lock(name, true)?;
        let ino = self.root.remove(name).ok_or(Errno::ENOENT)?;
        self.dir_changed(&[name]);
        if let Some(inode) = self.inode(ino) {
            inode.nlink.dec(core);
            // Reclamation is deferred; the epoch pass frees the inode if its
            // count reached zero.
            self.defer.defer(core, ino);
        }
        Ok(())
    }

    /// The whole check-then-update runs with both names' buckets locked,
    /// so two concurrent renames sharing a destination cannot interleave
    /// their existence checks into a state no sequential order produces
    /// (e.g. a leaked link count).
    fn rename(&self, core: CoreId, pid: Pid, src: &str, dst: &str) -> KResult<()> {
        self.proc(pid)?;
        let _dir = self.lookup_then_lock(src, src != dst)?;
        let s_bucket = self.root.bucket_of(src);
        let d_bucket = self.root.bucket_of(dst);
        let renamed = self.root.with_pair_locked(src, dst, |dir| {
            let src_ino = dir.get(src, s_bucket).ok_or(Errno::ENOENT)?;
            if src == dst {
                return Ok(());
            }
            // If dst already points at the same inode, only the src entry
            // needs to change ("precede pessimism with optimism"): no write
            // to dst.
            match dir.get(dst, d_bucket) {
                Some(dst_ino) if dst_ino == src_ino => {
                    dir.remove(src, s_bucket);
                    if let Some(inode) = self.inode(src_ino) {
                        inode.nlink.dec(core);
                    }
                    return Ok(());
                }
                Some(dst_ino) => {
                    // Overwrite: the displaced inode loses a link.
                    dir.upsert(dst, d_bucket, src_ino);
                    if let Some(old) = self.inode(dst_ino) {
                        old.nlink.dec(core);
                        self.defer.defer(core, dst_ino);
                    }
                }
                None => {
                    dir.upsert(dst, d_bucket, src_ino);
                }
            }
            dir.remove(src, s_bucket);
            Ok(())
        });
        if renamed.is_ok() && src != dst {
            self.dir_changed(&[src, dst]);
        }
        renamed
    }

    fn stat(&self, _core: CoreId, pid: Pid, name: &str) -> KResult<Stat> {
        self.proc(pid)?;
        let ino = self.lookup(name).ok_or(Errno::ENOENT)?;
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        Ok(self.file_stat(&inode, StatMask::all()))
    }

    fn fstat(&self, core: CoreId, pid: Pid, fd: Fd) -> KResult<Stat> {
        self.fstatx(core, pid, fd, StatMask::all())
    }

    fn fstatx(&self, _core: CoreId, pid: Pid, fd: Fd, mask: StatMask) -> KResult<Stat> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        match &file.obj {
            // Without the optimistic path (Linux has no field-selective
            // stat) every field is gathered, then masked.
            FileObj::File(inode) if !self.policy.optimistic() => {
                let full = self.file_stat(inode, StatMask::all());
                Ok(Stat {
                    ino: if mask.want_ino { full.ino } else { 0 },
                    size: if mask.want_size { full.size } else { 0 },
                    nlink: if mask.want_nlink { full.nlink } else { 0 },
                    is_pipe: false,
                })
            }
            FileObj::File(inode) => Ok(self.file_stat(inode, mask)),
            FileObj::PipeRead(_) | FileObj::PipeWrite(_) => Ok(Stat {
                ino: 0,
                size: 0,
                nlink: 0,
                is_pipe: true,
            }),
        }
    }

    fn lseek(&self, _core: CoreId, pid: Pid, fd: Fd, offset: i64, whence: Whence) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        let FileObj::File(inode) = &file.obj else {
            return Err(Errno::ESPIPE);
        };
        let _io = file.io.lock();
        // Optimistic stage: compute the new offset read-only and return early
        // if it is invalid or equal to the current offset (§6.3).
        if let Some(p) = &file.offset_line {
            p.read(0);
        }
        let current = file.offset.load(Ordering::Acquire);
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => current as i64,
            Whence::End => (inode.size_pages.read() * PAGE_SIZE) as i64,
        };
        let target = base + offset;
        if target < 0 {
            return Err(Errno::EINVAL);
        }
        let target = target as u64;
        if target == current && self.policy.optimistic() {
            return Ok(target);
        }
        // Pessimistic stage: perform the update.
        if let Some(p) = &file.offset_line {
            p.write(0);
        }
        file.offset.store(target, Ordering::Release);
        Ok(target)
    }

    fn close(&self, _core: CoreId, pid: Pid, fd: Fd) -> KResult<()> {
        let proc_ = self.proc(pid)?;
        let _files = proc_.linux.as_ref().map(|linux| linux.files(true));
        if fd as usize >= proc_.fd_capacity() {
            return Err(Errno::EBADF);
        }
        if let Some(p) = &proc_.fd_lines {
            p.read(fd as usize);
        }
        let slot = proc_
            .fd_slot_if_allocated(fd as usize)
            .ok_or(Errno::EBADF)?;
        let file = slot.lock().take().ok_or(Errno::EBADF)?;
        if let Some(p) = &proc_.fd_lines {
            p.write(fd as usize);
        }
        adjust_refs(&file, -1);
        Ok(())
    }

    fn pipe(&self, core: CoreId, pid: Pid) -> KResult<(Fd, Fd)> {
        let proc_ = self.proc(pid)?;
        let id = self.next_pipe_id.fetch_add(1, Ordering::Relaxed);
        let pipe = Arc::new(Pipe {
            buffer: Mutex::new(VecDeque::new()),
            readers: AtomicI64::new(1),
            writers: AtomicI64::new(1),
            lines: self.lines.as_ref().map(|lines| {
                lines.block(3, move |i| format!("pipe[{pid}:{id}].{}", PIPE_LINES[i]))
            }),
        });
        // The ends' lines are `roff`/`rcount` and `woff`/`wcount`.
        let end = |obj, end: char| {
            self.new_file(obj, move |line| {
                let line = if line == "offset" { "off" } else { "count" };
                format!("pipe[{pid}:{id}].{end}{line}")
            })
        };
        let read_end = end(FileObj::PipeRead(Arc::clone(&pipe)), 'r');
        let write_end = end(FileObj::PipeWrite(pipe), 'w');
        let rfd = self.alloc_fd(core, proc_, read_end, false)?;
        let wfd = self.alloc_fd(core, proc_, write_end, false)?;
        Ok((rfd, wfd))
    }

    fn read(&self, _core: CoreId, pid: Pid, fd: Fd, len: u64) -> KResult<Vec<u8>> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => {
                let _io = file.io.lock();
                if let Some(p) = &file.offset_line {
                    p.read(0);
                }
                let offset = file.offset.load(Ordering::Acquire);
                let data = self.file_read_at(inode, offset, len);
                if !data.is_empty() {
                    if let Some(p) = &file.offset_line {
                        p.write(0);
                    }
                    file.offset
                        .store(offset + data.len() as u64, Ordering::Release);
                }
                Ok(data)
            }
            FileObj::PipeRead(pipe) => {
                // The drain reads and writes the buffer line even when
                // nothing is taken: two concurrent empty reads of one pipe
                // conflict, deliberately (§6.4).
                if let Some(lines) = &pipe.lines {
                    lines.rmw(BUFFER);
                }
                let data: Vec<u8> = {
                    let mut buf = pipe.buffer.lock();
                    let take = (len as usize).min(buf.len());
                    buf.drain(..take).collect()
                };
                if data.is_empty() {
                    // Empty pipe: if no writers remain, EOF (empty read);
                    // otherwise the caller would block — report EAGAIN.
                    if let Some(lines) = &pipe.lines {
                        lines.read(WRITERS);
                    }
                    if pipe.writers.load(Ordering::Acquire) > 0 {
                        return Err(Errno::EAGAIN);
                    }
                    return Ok(Vec::new());
                }
                Ok(data)
            }
            FileObj::PipeWrite(_) => Err(Errno::EBADF),
        }
    }

    fn write(&self, _core: CoreId, pid: Pid, fd: Fd, data: &[u8]) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => {
                let _io = file.io.lock();
                if let Some(p) = &file.offset_line {
                    p.read(0);
                }
                let offset = file.offset.load(Ordering::Acquire);
                let written = self.file_write_at(inode, offset, data);
                if let Some(p) = &file.offset_line {
                    p.write(0);
                }
                file.offset.store(offset + written, Ordering::Release);
                Ok(written)
            }
            FileObj::PipeWrite(pipe) => {
                // SIGPIPE check: a write to a pipe with no readers fails
                // immediately, which requires reading the shared reader
                // count.
                if let Some(lines) = &pipe.lines {
                    lines.read(READERS);
                }
                if pipe.readers.load(Ordering::Acquire) == 0 {
                    return Err(Errno::EPIPE);
                }
                if let Some(lines) = &pipe.lines {
                    lines.rmw(BUFFER);
                }
                pipe.buffer.lock().extend(data.iter().copied());
                Ok(data.len() as u64)
            }
            FileObj::PipeRead(_) => Err(Errno::EBADF),
        }
    }

    fn pread(&self, _core: CoreId, pid: Pid, fd: Fd, len: u64, offset: u64) -> KResult<Vec<u8>> {
        let proc_ = self.proc(pid)?;
        match &self.open_file(proc_, fd)?.obj {
            FileObj::File(inode) => Ok(self.file_read_at(inode, offset, len)),
            _ => Err(Errno::ESPIPE),
        }
    }

    fn pwrite(&self, _core: CoreId, pid: Pid, fd: Fd, data: &[u8], offset: u64) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        match &self.open_file(proc_, fd)?.obj {
            FileObj::File(inode) => Ok(self.file_write_at(inode, offset, data)),
            _ => Err(Errno::ESPIPE),
        }
    }

    fn mmap(
        &self,
        core: CoreId,
        pid: Pid,
        addr_hint: Option<u64>,
        pages: u64,
        prot: Prot,
        backing: MmapBacking,
    ) -> KResult<u64> {
        if pages == 0 {
            return Err(Errno::EINVAL);
        }
        let proc_ = self.proc(pid)?;
        // Every mmap allocates the bump allocators, hinted or not, so a
        // process without them never touched its address space.
        let next_vpn = proc_.next_vpn(self.cores);
        let base_vpn = match addr_hint {
            Some(addr) => Self::vpn_of(addr)?,
            None => {
                // Per-core region allocation: no shared allocation state.
                let shard = core % self.cores;
                if let Some(p) = &proc_.vpn_lines {
                    p.rmw(shard);
                }
                next_vpn[shard].fetch_add(pages, Ordering::Relaxed)
            }
        };
        let file_ino = match backing {
            MmapBacking::Anon => None,
            MmapBacking::File(fd) => match &self.open_file(proc_, fd)?.obj {
                FileObj::File(inode) => Some(inode.ino),
                _ => return Err(Errno::EBADF),
            },
        };
        let _mm = proc_.linux.as_ref().map(|linux| linux.mm());
        let mut vm = proc_.vm_pages.write();
        for i in 0..pages {
            let vpn = base_vpn + i;
            let backing = match file_ino {
                None => PageBacking::Anon(
                    Arc::new(AtomicU8::new(0)),
                    self.line(|| format!("proc[{pid}].page[{vpn}]")),
                ),
                Some(ino) => PageBacking::File { ino, file_page: i },
            };
            vm.set(vpn as usize, MappedPage { prot, backing });
        }
        Ok(base_vpn * PAGE_SIZE)
    }

    fn munmap(&self, _core: CoreId, pid: Pid, addr: u64, pages: u64) -> KResult<()> {
        let proc_ = self.proc(pid)?;
        let base_vpn = Self::vpn_of(addr)?;
        let _mm = proc_.linux.as_ref().map(|linux| linux.mm());
        let mut vm = proc_.vm_pages.write();
        for i in 0..pages {
            // RadixVM-style: touching only the slots being unmapped; TLB
            // shootdowns are targeted, so no global state is written.
            vm.take((base_vpn + i) as usize);
        }
        Ok(())
    }

    fn mprotect(&self, _core: CoreId, pid: Pid, addr: u64, pages: u64, prot: Prot) -> KResult<()> {
        let proc_ = self.proc(pid)?;
        let base_vpn = Self::vpn_of(addr)?;
        let _mm = proc_.linux.as_ref().map(|linux| linux.mm());
        let mut vm = proc_.vm_pages.write();
        for i in 0..pages {
            if !vm.modify((base_vpn + i) as usize, |page| page.prot = prot) {
                return Err(Errno::ENOMEM);
            }
        }
        Ok(())
    }

    fn memread(&self, _core: CoreId, pid: Pid, addr: u64) -> KResult<u8> {
        let proc_ = self.proc(pid)?;
        let vpn = addr / PAGE_SIZE;
        let in_page = addr % PAGE_SIZE;
        if let Some(linux) = &proc_.linux {
            linux.read_vmas();
        }
        let page = proc_.vm_pages.get(vpn as usize).ok_or(Errno::EFAULT)?;
        if !page.prot.read {
            return Err(Errno::EFAULT);
        }
        match &page.backing {
            PageBacking::Anon(cell, line) => {
                if let Some(p) = line {
                    p.read(0);
                }
                Ok(cell.load(Ordering::Acquire))
            }
            PageBacking::File { ino, file_page } => {
                let inode = self.inode(*ino).ok_or(Errno::EFAULT)?;
                let data = self.file_read_at(&inode, file_page * PAGE_SIZE + in_page, 1);
                Ok(data.first().copied().unwrap_or(0))
            }
        }
    }

    fn memwrite(&self, _core: CoreId, pid: Pid, addr: u64, value: u8) -> KResult<()> {
        let proc_ = self.proc(pid)?;
        let vpn = addr / PAGE_SIZE;
        let in_page = addr % PAGE_SIZE;
        if let Some(linux) = &proc_.linux {
            linux.read_vmas();
        }
        let page = proc_.vm_pages.get(vpn as usize).ok_or(Errno::EFAULT)?;
        if !page.prot.write {
            return Err(Errno::EFAULT);
        }
        match &page.backing {
            PageBacking::Anon(cell, line) => {
                if let Some(p) = line {
                    p.write(0);
                }
                cell.store(value, Ordering::Release);
                Ok(())
            }
            PageBacking::File { ino, file_page } => {
                let inode = self.inode(*ino).ok_or(Errno::EFAULT)?;
                self.file_write_at(&inode, file_page * PAGE_SIZE + in_page, &[value]);
                Ok(())
            }
        }
    }

    fn fork(&self, core: CoreId, pid: Pid) -> KResult<Pid> {
        let parent = self.proc(pid)?;
        let child_pid = self.child_process(core);
        let child = self.proc(child_pid)?;
        // fork snapshots the whole descriptor table: it must read every
        // parent slot, which is what makes it commute with almost nothing.
        let snapshot = parent.linux.as_ref().map(|linux| linux.files(false));
        if let Some(linux) = &child.linux {
            linux.install_fds();
        }
        for fd in 0..parent.fd_capacity() {
            if let Some(p) = &parent.fd_lines {
                p.read(fd);
            }
            // An unallocated partition reads as all-empty without being
            // allocated (the read above still records the snapshot).
            let file = parent
                .fd_slot_if_allocated(fd)
                .and_then(|slot| slot.lock().clone());
            if let Some(file) = file {
                // A duplicated descriptor is a second reference to a pipe
                // endpoint; the endpoint count must grow with it, or the
                // child's exit (wait/close) would strand the parent's
                // still-open end behind a spurious EPIPE/EOF.
                adjust_refs(&file, 1);
                if let Some(p) = &child.fd_lines {
                    p.write(fd);
                }
                *child.fd_slot(fd).expect("fd within capacity").lock() = Some(file);
            }
        }
        drop(snapshot);
        Ok(child_pid)
    }

    fn posix_spawn(&self, core: CoreId, pid: Pid, dup_fds: &[Fd]) -> KResult<Pid> {
        let parent = self.proc(pid)?;
        // Resolve the whole dup list first: a bad descriptor fails the
        // spawn before any endpoint reference is taken or a child process
        // exists, so a failed spawn leaves no trace to unwind. A repeated
        // fd collapses into one child slot, so it must take exactly one
        // endpoint reference: the resolve still reads the slot once per
        // list entry, as the dup-action list would, but only the first
        // occurrence is kept.
        let mut files: Vec<(Fd, Arc<OpenFile<L>>)> = Vec::with_capacity(dup_fds.len());
        for &fd in dup_fds {
            let file = self.open_file(parent, fd)?;
            if files.iter().all(|(kept, _)| *kept != fd) {
                files.push((fd, Arc::clone(&file.0)));
            }
        }
        if self.policy == Policy::Linuxlike {
            // Linux builds posix_spawn on fork: the child starts with every
            // descriptor and closes those it does not keep.
            let child_pid = self.fork(core, pid)?;
            let keep = |fd: usize| files.iter().any(|(kept, _)| *kept as usize == fd);
            self.release_fds(self.proc(child_pid)?, |fd| !keep(fd));
            return Ok(child_pid);
        }
        let child_pid = self.child_process(core);
        let child = self.proc(child_pid)?;
        // posix_spawn builds the child image directly: only the explicitly
        // listed descriptors are touched.
        for (fd, file) in files {
            adjust_refs(&file, 1);
            if let Some(p) = &child.fd_lines {
                p.write(fd as usize);
            }
            *child.fd_slot(fd as usize).expect("open fd in range").lock() = Some(file);
        }
        Ok(child_pid)
    }

    /// Reaps a finished child, releasing all its descriptors. Reaping
    /// stays O(open descriptors), not O(table size). A child that never
    /// mapped memory then goes on `core`'s reaped list, once however often
    /// it is waited for, and the next `fork` or `posix_spawn` on `core`
    /// hands its pid out again; one that did map memory keeps its pid as
    /// an empty process.
    fn wait(&self, core: CoreId, _pid: Pid, child: Pid) -> KResult<()> {
        let proc_ = self.proc(child)?;
        self.release_fds(proc_, |_| true);
        if !proc_.mapped() && !proc_.reaped.swap(true, Ordering::AcqRel) {
            self.reaped_on(core).lock().push(child);
        }
        Ok(())
    }

    fn socket(&self, _core: CoreId, order: SocketOrder) -> KResult<SockId> {
        // Linux orders every datagram socket.
        let order = if self.policy == Policy::Linuxlike {
            SocketOrder::Ordered
        } else {
            order
        };
        Ok(self.sockets.create(order))
    }

    fn send(&self, core: CoreId, sock: SockId, msg: &[u8]) -> KResult<()> {
        Ok(self.sockets.send(core, sock, msg)?)
    }

    fn recv(&self, core: CoreId, sock: SockId) -> KResult<Vec<u8>> {
        Ok(self.sockets.recv(core, sock)?)
    }
}

/// Conflict-freedom on the simulated machine. What each call returns is
/// checked on every substrate by the semantic tests of `scr-host`.
#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::on_core;

    fn kernel_with_proc() -> (Sv6Kernel, Pid) {
        let k = Sv6Kernel::new(4);
        let pid = k.new_process();
        (k, pid)
    }

    /// Picks `count` file names that hash to pairwise-distinct directory
    /// buckets, so conflict-freedom assertions are not defeated by hash
    /// collisions.
    fn distinct_names(k: &Sv6Kernel, count: usize) -> Vec<String> {
        let mut names = Vec::new();
        let mut buckets = std::collections::BTreeSet::new();
        let mut i = 0;
        while names.len() < count {
            let candidate = format!("file-{i}");
            i += 1;
            if buckets.insert(k.dir_bucket_of(&candidate)) {
                names.push(candidate);
            }
        }
        names
    }

    #[test]
    fn creating_different_files_is_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let pid2 = k.new_process();
        let names = distinct_names(&k, 2);
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.open(0, pid, &names[0], OpenFlags::create()).unwrap();
        });
        on_core(1, || {
            k.open(1, pid2, &names[1], OpenFlags::create()).unwrap();
        });
        let report = m.end_window();
        assert!(report.is_conflict_free(), "got conflicts: {report}");
    }

    #[test]
    fn two_fstats_on_same_fd_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.fstat(0, pid, fd).unwrap();
        });
        on_core(1, || {
            k.fstat(1, pid, fd).unwrap();
        });
        assert!(m.end_window().is_conflict_free());
    }

    #[test]
    fn fstatx_without_nlink_is_conflict_free_with_link() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.fstatx(0, pid, fd, StatMask::all_but_nlink()).unwrap();
        });
        on_core(1, || {
            k.link(1, pid, "f", "f-link").unwrap();
        });
        assert!(m.end_window().is_conflict_free());
    }

    #[test]
    fn fstat_with_nlink_conflicts_with_link() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.fstat(0, pid, fd).unwrap();
        });
        on_core(1, || {
            k.link(1, pid, "f", "f-link").unwrap();
        });
        // fstat returns st_nlink, so it does not commute with link and the
        // implementation is allowed (expected) to conflict.
        assert!(!m.end_window().is_conflict_free());
    }

    #[test]
    fn link_and_unlink_of_different_names_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let names = distinct_names(&k, 3);
        let (base, gone, extra) = (&names[0], &names[1], &names[2]);
        k.open(0, pid, base, OpenFlags::create()).unwrap();
        k.link(0, pid, base, gone).unwrap();
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.link(0, pid, base, extra).unwrap();
        });
        on_core(1, || {
            k.unlink(1, pid, gone).unwrap();
        });
        let report = m.end_window();
        assert!(report.is_conflict_free(), "got conflicts: {report}");
    }

    #[test]
    fn mmaps_in_different_processes_are_conflict_free() {
        let k = Sv6Kernel::new(4);
        let p1 = k.new_process();
        let p2 = k.new_process();
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.mmap(0, p1, None, 4, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        on_core(1, || {
            k.mmap(1, p2, None, 4, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        assert!(m.end_window().is_conflict_free());
    }

    #[test]
    fn disjoint_mmaps_in_same_process_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.mmap(0, pid, None, 2, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        on_core(1, || {
            k.mmap(1, pid, None, 2, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        assert!(m.end_window().is_conflict_free());
    }

    #[test]
    fn identical_fixed_mmaps_conflict_as_documented() {
        // §6.4: idempotent updates (two mmaps at the same fixed address) are
        // deliberately left non-scalable.
        let (k, pid) = kernel_with_proc();
        let m = k.lines().unwrap();
        m.begin_window();
        for core in 0..2 {
            on_core(core, || {
                let fixed = Some(32 * PAGE_SIZE);
                k.mmap(core, pid, fixed, 1, Prot::rw(), MmapBacking::Anon)
                    .unwrap();
            });
        }
        assert!(!m.end_window().is_conflict_free());
    }

    #[test]
    fn memwrites_to_different_pages_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let addr = k
            .mmap(0, pid, None, 2, Prot::rw(), MmapBacking::Anon)
            .unwrap();
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.memwrite(0, pid, addr, 1).unwrap();
        });
        on_core(1, || {
            k.memwrite(1, pid, addr + PAGE_SIZE, 2).unwrap();
        });
        assert!(m.end_window().is_conflict_free());
    }

    #[test]
    fn pwrites_to_different_pages_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "big", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"a", 0).unwrap();
        k.pwrite(0, pid, fd, b"b", PAGE_SIZE).unwrap();
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            k.pwrite(0, pid, fd, b"X", 0).unwrap();
        });
        on_core(1, || {
            k.pwrite(1, pid, fd, b"Y", PAGE_SIZE).unwrap();
        });
        assert!(m.end_window().is_conflict_free());
    }

    #[test]
    fn pipe_closes_conflict_as_documented() {
        // §6.4: a pipe end's reference count is one shared count.
        let (k, pid) = kernel_with_proc();
        let m = k.lines().unwrap();
        // Closing the two different ends of one pipe touches the two
        // counts, each on its own line: conflict-free.
        let (r, w) = k.pipe(0, pid).unwrap();
        m.begin_window();
        on_core(0, || k.close(0, pid, r).unwrap());
        on_core(1, || k.close(1, pid, w).unwrap());
        let report = m.end_window();
        assert!(report.is_conflict_free(), "got conflicts: {report}");
        // A fork-duplicated read end closed in the parent and in the
        // child: both drop a reference on the one readers count.
        let (r, _w) = k.pipe(0, pid).unwrap();
        let child = k.fork(0, pid).unwrap();
        m.begin_window();
        on_core(0, || k.close(0, pid, r).unwrap());
        on_core(1, || k.close(1, child, r).unwrap());
        let labels = m.end_window().conflicting_labels();
        assert_eq!(labels, ["pipe[0:1].readers"]);
    }

    #[test]
    fn per_object_state_stays_small_over_a_shared_substrate() {
        // The host mail workload creates inodes by the thousand, and every
        // process that maps memory keeps its entry; `Arc<SimMachine>` is
        // one pointer, like the host's `Arc<HostTraceSink>`.
        type Shared = Arc<SimMachine>;
        assert!(std::mem::size_of::<Inode<Shared>>() <= 128);
        assert!(std::mem::size_of::<Process<Shared>>() <= 152);
    }

    // --- reaped processes are handed out again ---------------------------

    /// Runs `check` on a fresh 4-core kernel of each policy with one
    /// parent process.
    fn on_both_policies(check: impl Fn(&Sv6Kernel, Pid)) {
        for k in [Sv6Kernel::new(4), Sv6Kernel::linuxlike(4)] {
            let parent = k.new_process();
            check(&k, parent);
        }
    }

    #[test]
    fn spawn_and_wait_cycles_reuse_one_pid() {
        on_both_policies(|k, parent| {
            let fd = k.open(0, parent, "msg", OpenFlags::create()).unwrap();
            for _ in 0..10_000 {
                let child = k.posix_spawn(0, parent, &[fd]).unwrap();
                k.wait(0, parent, child).unwrap();
            }
            assert!(k.process_count() <= 3, "{} pids", k.process_count());
        });
    }

    #[test]
    fn a_recycled_child_looks_fresh() {
        on_both_policies(|k, parent| {
            let fd = k.open(0, parent, "msg", OpenFlags::create()).unwrap();
            let child = k.posix_spawn(0, parent, &[fd]).unwrap();
            assert!(k.fstat(0, child, fd).is_ok());
            k.wait(0, parent, child).unwrap();
            let again = k.posix_spawn(0, parent, &[]).unwrap();
            assert_eq!(again, child, "the reaped pid is handed out again");
            assert_eq!(k.fstat(0, again, fd), Err(Errno::EBADF));
            assert_eq!(k.open_fd_count(again), Ok(0));
            let fresh = k.new_process();
            let map = |pid| k.mmap(1, pid, None, 1, Prot::rw(), MmapBacking::Anon);
            assert_eq!(map(again), map(fresh));
        });
    }

    #[test]
    fn a_child_waited_for_twice_is_handed_out_once() {
        on_both_policies(|k, parent| {
            let child = k.posix_spawn(0, parent, &[]).unwrap();
            k.wait(0, parent, child).unwrap();
            k.wait(0, parent, child).unwrap();
            let first = k.posix_spawn(0, parent, &[]).unwrap();
            let second = k.fork(0, parent).unwrap();
            assert_ne!(first, second);
        });
    }

    #[test]
    fn a_child_that_mapped_memory_is_never_handed_out_again() {
        on_both_policies(|k, parent| {
            for hint in [None, Some(32 * PAGE_SIZE)] {
                let child = k.posix_spawn(0, parent, &[]).unwrap();
                k.mmap(0, child, hint, 1, Prot::rw(), MmapBacking::Anon)
                    .unwrap();
                k.wait(0, parent, child).unwrap();
                assert_ne!(k.posix_spawn(0, parent, &[]).unwrap(), child);
            }
        });
    }

    // --- the Linux-like policy's §6.2 conflict sources --------------------

    /// Runs `a` on core 0 and `b` on core 1 of a Linux-like kernel with
    /// processes 0 and 1, after an untraced `setup`, and returns the lines
    /// the two calls share.
    fn linux_shared<S, A, B>(
        setup: impl Fn(&Sv6Kernel) -> S,
        a: impl Fn(&Sv6Kernel, &S) -> A,
        b: impl Fn(&Sv6Kernel, &S) -> B,
    ) -> Vec<String> {
        let k = Sv6Kernel::linuxlike(4);
        k.new_process();
        k.new_process();
        let state = setup(&k);
        let m = k.lines().unwrap();
        m.begin_window();
        on_core(0, || {
            a(&k, &state);
        });
        on_core(1, || {
            b(&k, &state);
        });
        m.end_window().conflicting_labels()
    }

    fn create(k: &Sv6Kernel, core: CoreId, pid: Pid, name: &str) -> Fd {
        k.open(core, pid, name, OpenFlags::create()).unwrap()
    }

    #[test]
    fn linux_creates_of_different_files_conflict_on_the_parent_directory() {
        let labels = linux_shared(
            |_| (),
            |k, _| create(k, 0, 0, "alpha"),
            |k, _| create(k, 1, 1, "beta"),
        );
        for line in ["root.i_mutex", "root.entries", "scalefs.next_ino[0]"] {
            assert!(labels.iter().any(|l| l == line), "{line} not in {labels:?}");
        }
    }

    #[test]
    fn linux_fstats_of_one_descriptor_conflict_on_f_count() {
        let labels = linux_shared(
            |k| create(k, 0, 0, "f"),
            |k, fd| k.fstat(0, 0, *fd).unwrap(),
            |k, fd| k.fstat(1, 0, *fd).unwrap(),
        );
        assert_eq!(labels, ["proc[0].ofile[f].f_count"]);
        // The same holds for preads of different pages.
        let labels = linux_shared(
            |k| {
                let fd = create(k, 0, 0, "data");
                k.pwrite(0, 0, fd, b"a", 0).unwrap();
                k.pwrite(0, 0, fd, b"b", PAGE_SIZE).unwrap();
                fd
            },
            |k, fd| k.pread(0, 0, *fd, 1, 0).unwrap(),
            |k, fd| k.pread(1, 0, *fd, 1, PAGE_SIZE).unwrap(),
        );
        assert_eq!(labels, ["proc[0].ofile[data].f_count"]);
    }

    #[test]
    fn linux_stats_conflict_on_the_dentry_count_of_one_name_only() {
        let setup = |k: &Sv6Kernel| {
            create(k, 0, 0, "one");
            create(k, 0, 0, "two");
        };
        let stat = |name: &'static str| move |k: &Sv6Kernel, _: &()| k.stat(0, 0, name);
        let same = linux_shared(setup, stat("one"), stat("one"));
        assert_eq!(same, ["dentry[one].d_count"]);
        // Linux does scale for many commutative cases (§6.2).
        assert!(linux_shared(setup, stat("one"), stat("two")).is_empty());
    }

    #[test]
    fn linux_fstatx_reads_the_link_count_a_link_writes() {
        let labels = linux_shared(
            |k| create(k, 0, 0, "f"),
            |k, fd| k.fstatx(0, 0, *fd, StatMask::all_but_nlink()).unwrap(),
            |k, _| k.link(1, 0, "f", "f-link").unwrap(),
        );
        assert!(
            labels.iter().any(|l| l.ends_with(".nlink.shared")),
            "{labels:?}"
        );
    }

    #[test]
    fn linux_address_space_changes_conflict_on_mmap_sem_within_a_process() {
        let mmap = |core: CoreId, pid: Pid| {
            move |k: &Sv6Kernel, _: &u64| {
                k.mmap(core, pid, None, 1, Prot::rw(), MmapBacking::Anon)
                    .unwrap();
            }
        };
        let labels = linux_shared(
            |k| {
                k.mmap(0, 0, None, 1, Prot::rw(), MmapBacking::Anon)
                    .unwrap()
            },
            mmap(0, 0),
            |k, addr| k.memread(1, 0, *addr).unwrap(),
        );
        assert_eq!(labels, ["proc[0].mm.vma_table"]);
        assert!(linux_shared(|_| 0, mmap(0, 0), mmap(1, 1)).is_empty());
    }

    #[test]
    fn linux_fork_conflicts_with_descriptor_operations() {
        let labels = linux_shared(
            |k| create(k, 0, 0, "f"),
            |k, _| k.fork(0, 0).unwrap(),
            |k, fd| k.fstat(1, 0, *fd).unwrap(),
        );
        assert_eq!(labels, ["proc[0].ofile[f].f_count"]);
    }
}
