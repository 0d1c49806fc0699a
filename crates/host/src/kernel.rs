//! A thread-safe kernel over real atomics: the execution backend the
//! Figure-7 workloads and the differential runner drive from actual OS
//! threads.
//!
//! [`HostKernel`] mirrors the *semantics* of `scr_kernel::sv6::Sv6Kernel`
//! call for call — same error codes, same inode numbering, same descriptor
//! allocation order, same `mmap` address arithmetic — so the differential
//! runner can compare return values bit-for-bit. What changes between the
//! two configurations is only the *sharing*:
//!
//! * [`HostMode::Sv6`] assembles the kernel from the host twins of the
//!   scalable primitives ([`scr_scalable::real`]): a lock-striped
//!   directory, per-core inode counters, Refcache-style per-core link
//!   counts, and per-slot descriptor locks.
//! * [`HostMode::Linuxlike`] wraps every system call in one global kernel
//!   lock — the sharing structure that makes the baseline collapse as real
//!   threads are added, no matter how fast each individual call is.

use parking_lot::{Mutex, RwLock};
use scr_hostmtrace::{HostTraceSink, Probe, ProbeBlock, ProbeRadix, SeqProbe};
use scr_kernel::api::{
    Errno, Fd, Ino, KResult, MmapBacking, OpenFlags, Pid, Prot, SockId, SocketOrder, Stat,
    StatMask, SyscallApi, Whence, PAGE_SIZE,
};
use scr_scalable::real::{
    HostInodeAllocator, HostProcTable, HostSocketTable, PerCoreRefcount, QueueOrder, SocketError,
    StripedHashDir,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Descriptors per core partition (`O_ANYFD`), mirroring the sv6 kernel.
pub const FDS_PER_CORE: usize = 16;
/// Virtual pages reserved per core for hint-less `mmap`, mirroring sv6.
const VPN_REGION_PER_CORE: u64 = 256;
/// Directory stripe count, mirroring the sv6 kernel's bucket count.
const DIR_STRIPES: usize = 512;

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

/// Tunable options, mirroring `Sv6Options` for the statbench ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostOptions {
    /// Keep link counts in one shared atomic instead of per-core deltas.
    pub shared_link_counts: bool,
}

/// A link counter in one of the two statbench representations. The
/// per-core variant is boxed: it holds one padded cache line per core and
/// would otherwise bloat every inode in shared-count mode too.
enum LinkCounter {
    /// Per-core deltas (Refcache-style).
    Scalable(Box<PerCoreRefcount>),
    /// One shared atomic (plus its probe when the kernel is instrumented,
    /// mirroring the simulated `LinkCounter::Shared` cell).
    Shared(AtomicI64, Option<Probe>),
}

impl LinkCounter {
    fn new(cores: usize, options: HostOptions, trace: Option<(&Arc<HostTraceSink>, &str)>) -> Self {
        if options.shared_link_counts {
            LinkCounter::Shared(
                AtomicI64::new(0),
                trace.map(|(sink, label)| sink.probe(format!("{label}.shared"))),
            )
        } else {
            let rc = match trace {
                Some((sink, label)) => PerCoreRefcount::instrumented(cores, 0, sink, label),
                None => PerCoreRefcount::new(cores, 0),
            };
            LinkCounter::Scalable(Box::new(rc))
        }
    }

    fn inc(&self, core: usize) {
        match self {
            LinkCounter::Scalable(rc) => rc.inc(core),
            LinkCounter::Shared(cell, probe) => {
                if let Some(p) = probe {
                    p.rmw();
                }
                cell.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn dec(&self, core: usize) {
        match self {
            LinkCounter::Scalable(rc) => rc.dec(core),
            LinkCounter::Shared(cell, probe) => {
                if let Some(p) = probe {
                    p.rmw();
                }
                cell.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn read_exact(&self) -> i64 {
        match self {
            LinkCounter::Scalable(rc) => rc.read_exact(),
            LinkCounter::Shared(cell, probe) => {
                if let Some(p) = probe {
                    p.read();
                }
                cell.load(Ordering::Relaxed)
            }
        }
    }
}

/// Probe lines of an instrumented inode, mirroring the simulated inode's
/// traced cells (the link counter carries its own probes).
struct InodeTrace {
    /// `inode[N].size` seqlock lines.
    size: SeqProbe,
    /// `inode[N].pages` radix lines.
    pages: ProbeRadix,
}

/// One regular file's in-memory inode.
struct Inode {
    ino: Ino,
    nlink: LinkCounter,
    /// File size in pages. Grown with `fetch_max`, the optimistic
    /// "grow only when extending" protocol of the simulated kernel.
    size_pages: AtomicU64,
    /// Page cache: page number → contents.
    pages: RwLock<BTreeMap<u64, Vec<u8>>>,
    tr: Option<InodeTrace>,
}

/// Probe lines of an instrumented pipe (three shared cells, as in the
/// simulated kernel — the §6.4 residual non-scalable case).
struct PipeTrace {
    buffer: Probe,
    readers: Probe,
    writers: Probe,
}

/// One pipe; endpoint counts are plain shared atomics (the §6.4 residual
/// non-scalable case, kept deliberately).
struct Pipe {
    buffer: Mutex<VecDeque<u8>>,
    readers: AtomicI64,
    writers: AtomicI64,
    tr: Option<PipeTrace>,
}

/// What an open descriptor refers to.
#[derive(Clone)]
enum FileObj {
    File(Arc<Inode>),
    PipeRead(Arc<Pipe>),
    PipeWrite(Arc<Pipe>),
}

/// An open file description.
struct OpenFile {
    obj: FileObj,
    offset: AtomicU64,
    /// Serialises offset-consistent I/O (`read`/`write`/`lseek`) on this
    /// open file: the simulated kernel executes each call atomically, so
    /// a host call must not observe another's offset update and content
    /// update half-applied. A host-only correctness measure like the
    /// per-slot locks — real synchronisation, no recorded line.
    io: Mutex<()>,
    /// The offset cell's line (`proc[p].ofile[name].offset`), when traced.
    offset_probe: Option<Probe>,
}

/// One page of a mapped region.
#[derive(Clone)]
enum PageBacking {
    /// Anonymous memory; the probe mirrors the simulated per-page cell
    /// `proc[p].page[vpn]`.
    Anon(Arc<AtomicU8>, Option<Probe>),
    File {
        ino: Ino,
        file_page: u64,
    },
}

/// A mapping entry in the address space.
#[derive(Clone)]
struct MappedPage {
    prot: Prot,
    backing: PageBacking,
}

/// One descriptor slot: a cache-padded lock, so lowest-FD scans and
/// `O_ANYFD` partition claims contend only on the slots they touch.
type FdSlot = crossbeam::utils::CachePadded<Mutex<Option<Arc<OpenFile>>>>;
/// One core partition's worth of descriptor slots ([`FDS_PER_CORE`]).
type FdChunk = Box<[FdSlot]>;

/// A process: descriptor table and address space.
///
/// The slot storage is allocated lazily, one core partition at a time:
/// every padded slot costs a cache line, and the mail workload creates one
/// short-lived helper process *per message* (`posix_spawn`), each touching
/// only the partition its one or two descriptors land in — eager
/// allocation would cost O(cores) cache lines per delivered message.
/// An untouched partition is definitionally all-free/empty, which the
/// accessors exploit without publishing the chunk.
struct Process {
    fd_chunks: Vec<OnceLock<FdChunk>>,
    vm_pages: RwLock<BTreeMap<u64, MappedPage>>,
    /// Per-core mmap bump allocators, lazily allocated like the slots
    /// (helper processes never map memory).
    next_vpn: Vec<OnceLock<crossbeam::utils::CachePadded<AtomicU64>>>,
    /// One line per descriptor slot (`proc[p].fd[f]`), when traced. The
    /// block is allocated with the process but names no line until a
    /// report asks, so a traced process costs O(1) whatever its table
    /// size — instrumented kernels do churn processes (the loadgen heat
    /// pass spawns one helper per message).
    fd_probes: Option<ProbeBlock>,
    /// Address-space radix mirror (`proc[p].as`), when traced.
    vm_probes: Option<ProbeRadix>,
    /// Per-core mmap bump-allocator lines (`proc[p].next_vpn[c]`).
    vpn_probes: Option<ProbeBlock>,
}

impl Process {
    /// Total descriptor capacity (cores × partition size).
    fn fd_capacity(&self) -> usize {
        self.fd_chunks.len() * FDS_PER_CORE
    }

    /// The slot for `fd`, allocating its partition on first touch. `None`
    /// only when `fd` is beyond the table.
    fn fd_slot(&self, fd: usize) -> Option<&FdSlot> {
        let chunk = self.fd_chunks.get(fd / FDS_PER_CORE)?.get_or_init(|| {
            (0..FDS_PER_CORE)
                .map(|_| crossbeam::utils::CachePadded::new(Mutex::new(None)))
                .collect()
        });
        Some(&chunk[fd % FDS_PER_CORE])
    }

    /// The slot for `fd` only if its partition was ever touched — an
    /// unallocated partition holds no open files, so lookups through here
    /// treat it as an empty slot without materialising it.
    fn fd_slot_if_allocated(&self, fd: usize) -> Option<&FdSlot> {
        Some(&self.fd_chunks.get(fd / FDS_PER_CORE)?.get()?[fd % FDS_PER_CORE])
    }

    /// `shard`'s mmap bump allocator, allocated on first use with the same
    /// per-core region arithmetic as the simulated kernel.
    fn next_vpn(&self, shard: usize) -> &AtomicU64 {
        self.next_vpn[shard].get_or_init(|| {
            crossbeam::utils::CachePadded::new(AtomicU64::new(
                1 + shard as u64 * VPN_REGION_PER_CORE,
            ))
        })
    }
}

/// The monitor hook-up of an instrumented kernel.
struct KernelTrace {
    sink: Arc<HostTraceSink>,
    /// The global kernel lock's line. Acquisition is recorded as a
    /// read-modify-write (and release as a write), so in `Linuxlike` mode
    /// every pair of calls conflicts on this written line — the Linux
    /// column of Figure 6.
    giant: Probe,
    /// Per-core deferred-reclamation queue lines
    /// (`scalefs.inode_gc.defer[c]`).
    defer: ProbeBlock,
    /// Distinguishes the pipes created during one window (label suffix
    /// only; the simulated kernel uses its access counter the same way).
    next_pipe_id: AtomicU64,
}

/// The real-threads kernel. All methods take `&self` and the type is
/// `Send + Sync`; callers drive it from as many OS threads as they like,
/// passing the thread's "core" number exactly as the simulated kernels do.
pub struct HostKernel {
    mode: HostMode,
    cores: usize,
    options: HostOptions,
    /// The global kernel lock; taken around every call in `Linuxlike` mode.
    giant: Mutex<()>,
    root: StripedHashDir<Ino>,
    /// Inode table, sharded by inode number so sv6-mode lookups of
    /// different inodes do not serialise.
    inode_shards: Vec<InodeShard>,
    inode_alloc: HostInodeAllocator,
    /// Process table: lock-free append-only (the simulated kernels' pid
    /// vector is untraced, so concurrent spawns must not serialise here).
    /// Entries are borrowed for the kernel's lifetime, never cloned: a
    /// syscall's pid lookup writes no shared line. (`Arc` only because glibc
    /// packs it better than the 16-byte-smaller `Box`, which measured +2 %
    /// peak RSS on the 100 000-process mail workload.)
    procs: HostProcTable<Arc<Process>>,
    /// Datagram sockets (§4 / §7.3): ordered or per-core unordered queues.
    sockets: HostSocketTable,
    /// Per-core lists of inodes whose last link may be gone, drained by the
    /// epoch passes ("defer work", as in the simulated kernel's DeferQueue).
    defer: Vec<crossbeam::utils::CachePadded<Mutex<Vec<Ino>>>>,
    /// The sharing monitor, when built with [`HostKernel::instrumented`].
    trace: Option<KernelTrace>,
}

/// One cache-padded shard of the inode table.
type InodeShard = crossbeam::utils::CachePadded<RwLock<BTreeMap<Ino, Arc<Inode>>>>;

const INODE_SHARDS: usize = 64;

impl HostKernel {
    /// Builds a kernel for `cores` participating threads.
    pub fn new(cores: usize, mode: HostMode) -> Self {
        Self::with_options(cores, mode, HostOptions::default())
    }

    /// Builds a kernel with non-default options (statbench ablation).
    pub fn with_options(cores: usize, mode: HostMode, options: HostOptions) -> Self {
        Self::build(cores, mode, options, None)
    }

    /// Builds a kernel wired to a sharing monitor: every operation records
    /// the same logical-line footprint its simulated counterpart records,
    /// so traced windows can be cross-checked against the simulated
    /// heatmap. The uninstrumented constructors record nothing.
    pub fn instrumented(
        cores: usize,
        mode: HostMode,
        options: HostOptions,
        sink: &Arc<HostTraceSink>,
    ) -> Self {
        Self::build(cores, mode, options, Some(sink))
    }

    fn build(
        cores: usize,
        mode: HostMode,
        options: HostOptions,
        sink: Option<&Arc<HostTraceSink>>,
    ) -> Self {
        let cores = cores.max(2);
        let stripes = match mode {
            HostMode::Sv6 => DIR_STRIPES,
            // A single stripe: every name operation shares one lock,
            // like a directory-wide dentry lock.
            HostMode::Linuxlike => 1,
        };
        HostKernel {
            mode,
            cores,
            options,
            giant: Mutex::new(()),
            root: match sink {
                Some(sink) => StripedHashDir::instrumented(stripes, sink, "scalefs.root"),
                None => StripedHashDir::new(stripes),
            },
            inode_shards: (0..INODE_SHARDS)
                .map(|_| crossbeam::utils::CachePadded::new(RwLock::new(BTreeMap::new())))
                .collect(),
            inode_alloc: match sink {
                Some(sink) => HostInodeAllocator::instrumented(cores, sink, "scalefs"),
                None => HostInodeAllocator::new(cores),
            },
            procs: HostProcTable::new(),
            sockets: match sink {
                Some(sink) => HostSocketTable::instrumented(cores, sink),
                None => HostSocketTable::new(cores),
            },
            defer: (0..cores)
                .map(|_| crossbeam::utils::CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
            trace: sink.map(|sink| KernelTrace {
                sink: Arc::clone(sink),
                giant: sink.probe("kernel.giant_lock"),
                defer: sink.probe_block(cores, |c| format!("scalefs.inode_gc.defer[{c}]")),
                next_pipe_id: AtomicU64::new(0),
            }),
        }
    }

    /// Queues an inode for deferred reclamation on `core`'s list (touches
    /// only that core's queue line, as in the simulated `DeferQueue`).
    fn defer_reclaim(&self, core: usize, ino: Ino) {
        if let Some(t) = &self.trace {
            t.defer.at(core % self.cores).rmw();
        }
        self.defer[core % self.cores].lock().push(ino);
    }

    /// Drains `core`'s deferred list, reclaiming inodes whose link count
    /// reconciles to zero (the per-core half of the epoch pass; a real
    /// kernel runs this from a per-core timer tick). Returns the number of
    /// inodes reclaimed.
    pub fn reclaim_core(&self, core: usize) -> usize {
        if let Some(t) = &self.trace {
            t.defer.at(core % self.cores).rmw();
        }
        let pending = std::mem::take(&mut *self.defer[core % self.cores].lock());
        let mut reclaimed = 0;
        for ino in pending {
            // The zero check must happen inside the shard's write section:
            // link() publishes its increment before validating the inode is
            // still present (under the same lock), so whichever of the two
            // wins the lock sees a consistent picture — either the count is
            // back above zero and the inode survives, or it is removed and
            // link() observes that and undoes its insertion.
            let mut shard = self.inode_shard(ino).write();
            let reclaim = shard
                .get(&ino)
                .map(|inode| inode.nlink.read_exact() <= 0)
                .unwrap_or(false);
            if reclaim {
                shard.remove(&ino);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Runs the epoch pass over every core's deferred list. Returns the
    /// number of inodes reclaimed.
    pub fn reclaim_epoch(&self) -> usize {
        (0..self.cores).map(|core| self.reclaim_core(core)).sum()
    }

    /// The configured mode.
    pub fn mode(&self) -> HostMode {
        self.mode
    }

    /// Number of cores (thread slots) the kernel was configured for.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of processes ever created (pids are dense and never reused,
    /// so this is also one past the highest valid pid).
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Open descriptors currently held by `pid`. Only partitions the
    /// process ever touched are scanned (an unallocated partition holds no
    /// descriptors by construction). The mail pipelines use this as their
    /// teardown leak check: a reaped helper must hold zero descriptors, so
    /// a qman dying between `spawn` and `wait` must not strand its helper
    /// in the process table with the spool descriptor still open.
    pub fn open_fd_count(&self, pid: Pid) -> KResult<usize> {
        let proc_ = self.proc(pid)?;
        let mut open = 0;
        for chunk in proc_.fd_chunks.iter() {
            if let Some(chunk) = chunk.get() {
                open += chunk.iter().filter(|slot| slot.lock().is_some()).count();
            }
        }
        Ok(open)
    }

    /// Takes the global lock in `Linuxlike` mode; free in `Sv6` mode. The
    /// acquisition is recorded as a read-modify-write of the giant lock's
    /// line and the release as a write (recorded up front — within a
    /// window only the access multiset matters, not its order).
    fn serialise(&self) -> Option<parking_lot::MutexGuard<'_, ()>> {
        match self.mode {
            HostMode::Linuxlike => {
                if let Some(t) = &self.trace {
                    t.giant.handle().acquire();
                    t.giant.handle().release();
                }
                Some(self.giant.lock())
            }
            HostMode::Sv6 => None,
        }
    }

    /// Builds a process table entry; `pid` only affects probe labels and is
    /// ignored on uninstrumented kernels.
    fn build_process(&self, pid: Pid) -> Arc<Process> {
        let sink = self.trace.as_ref().map(|t| &t.sink);
        Arc::new(Process {
            fd_chunks: (0..self.cores).map(|_| OnceLock::new()).collect(),
            vm_pages: RwLock::new(BTreeMap::new()),
            next_vpn: (0..self.cores).map(|_| OnceLock::new()).collect(),
            fd_probes: sink.map(|sink| {
                sink.probe_block(self.cores * FDS_PER_CORE, move |fd| {
                    format!("proc[{pid}].fd[{fd}]")
                })
            }),
            vm_probes: sink.map(|sink| ProbeRadix::new(sink, &format!("proc[{pid}].as"))),
            vpn_probes: sink.map(|sink| {
                sink.probe_block(self.cores, move |c| format!("proc[{pid}].next_vpn[{c}]"))
            }),
        })
    }

    fn proc(&self, pid: Pid) -> KResult<&Process> {
        self.procs.get(pid).map(Arc::as_ref).ok_or(Errno::EINVAL)
    }

    fn inode_shard(&self, ino: Ino) -> &RwLock<BTreeMap<Ino, Arc<Inode>>> {
        &self.inode_shards[(ino % INODE_SHARDS as u64) as usize]
    }

    fn inode(&self, ino: Ino) -> Option<Arc<Inode>> {
        self.inode_shard(ino).read().get(&ino).cloned()
    }

    fn new_inode(&self, core: usize) -> Arc<Inode> {
        let ino = self.inode_alloc.alloc(core);
        let sink = self.trace.as_ref().map(|t| &t.sink);
        // Labels are tracing-only work: none is built without a sink.
        let nlink_label = sink.map(|_| format!("inode[{ino}].nlink"));
        let inode = Arc::new(Inode {
            ino,
            nlink: LinkCounter::new(self.cores, self.options, sink.zip(nlink_label.as_deref())),
            size_pages: AtomicU64::new(0),
            pages: RwLock::new(BTreeMap::new()),
            tr: sink.map(|sink| InodeTrace {
                size: SeqProbe::new(sink, &format!("inode[{ino}].size")),
                pages: ProbeRadix::new(sink, &format!("inode[{ino}].pages")),
            }),
        });
        self.inode_shard(ino)
            .write()
            .insert(ino, Arc::clone(&inode));
        inode
    }

    fn open_file(&self, proc_: &Process, fd: Fd) -> KResult<Arc<OpenFile>> {
        if fd as usize >= proc_.fd_capacity() {
            return Err(Errno::EBADF);
        }
        if let Some(p) = &proc_.fd_probes {
            p.at(fd as usize).read();
        }
        // An unallocated partition is an empty slot (recorded as the read
        // above, like the simulated `slot.get()` of a None slot).
        let slot = proc_
            .fd_slot_if_allocated(fd as usize)
            .ok_or(Errno::EBADF)?;
        slot.lock().clone().ok_or(Errno::EBADF)
    }

    /// Allocates a descriptor slot: lowest free slot, or the invoking core's
    /// partition with `anyfd`, exactly as in the simulated sv6 kernel. The
    /// per-slot lock makes the claim atomic under concurrency; the recorded
    /// footprint is one read per scanned slot plus a write of the claimed
    /// one, as in the simulated scan.
    fn alloc_fd(
        &self,
        core: usize,
        proc_: &Process,
        file: Arc<OpenFile>,
        anyfd: bool,
    ) -> KResult<Fd> {
        let (start, end) = if anyfd {
            let core = core % self.cores;
            (core * FDS_PER_CORE, (core + 1) * FDS_PER_CORE)
        } else {
            (0, proc_.fd_capacity())
        };
        for fd in start..end {
            if let Some(p) = &proc_.fd_probes {
                p.at(fd).read();
            }
            // The scan stops at the first free slot, so materialising the
            // partition here only ever allocates the chunk being claimed.
            let mut slot = proc_.fd_slot(fd).expect("fd within capacity").lock();
            if slot.is_none() {
                if let Some(p) = &proc_.fd_probes {
                    p.at(fd).write();
                }
                *slot = Some(file);
                return Ok(fd as Fd);
            }
        }
        Err(Errno::EMFILE)
    }

    fn file_stat(&self, inode: &Inode, mask: StatMask) -> Stat {
        Stat {
            ino: if mask.want_ino { inode.ino } else { 0 },
            size: if mask.want_size {
                if let Some(tr) = &inode.tr {
                    tr.size.read();
                }
                inode.size_pages.load(Ordering::Acquire) * PAGE_SIZE
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

    fn file_read_at(&self, inode: &Inode, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let pages = inode.pages.read();
        let first_page = offset / PAGE_SIZE;
        let last_page = (offset + len - 1) / PAGE_SIZE;
        for page in first_page..=last_page {
            if let Some(tr) = &inode.tr {
                tr.pages.get(page as usize);
            }
            match pages.get(&page) {
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

    fn file_write_at(&self, inode: &Inode, offset: u64, data: &[u8]) -> u64 {
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
            // The simulated kernel reads the page, mutates a copy and
            // stores it back — one radix get plus one radix set per chunk.
            if let Some(tr) = &inode.tr {
                tr.pages.get(page as usize);
                tr.pages.set(page as usize);
            }
            let page_data = pages.entry(page).or_default();
            if page_data.len() < in_page + chunk {
                page_data.resize(in_page + chunk, 0);
            }
            page_data[in_page..in_page + chunk]
                .copy_from_slice(&data[written as usize..written as usize + chunk]);
            written += chunk as u64;
            cursor += chunk as u64;
        }
        drop(pages);
        // Grow the size only when the write extends the file (the
        // optimistic protocol): the read is always recorded, the write only
        // when `fetch_max` actually raised the size.
        let end_pages = (offset + written).div_ceil(PAGE_SIZE);
        if let Some(tr) = &inode.tr {
            tr.size.read();
        }
        let prev = inode.size_pages.fetch_max(end_pages, Ordering::AcqRel);
        if prev < end_pages {
            if let Some(tr) = &inode.tr {
                tr.size.write();
            }
        }
        written
    }

    fn vpn_of(addr: u64) -> KResult<u64> {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(Errno::EINVAL);
        }
        Ok(addr / PAGE_SIZE)
    }

    /// Queued messages on a socket (untraced; for tests and the
    /// conservation checks).
    pub fn socket_pending_untraced(&self, sock: SockId) -> usize {
        self.sockets.pending_untraced(sock)
    }

    /// Removes and returns every queued message (untraced; used by the
    /// differential conservation checks).
    pub fn socket_drain_untraced(&self, sock: SockId) -> Vec<Vec<u8>> {
        self.sockets.drain_untraced(sock)
    }
}

/// Adjusts a descriptor's pipe-endpoint count: duplication (fork's
/// snapshot, posix_spawn's dup list) takes a reference (`+1`),
/// `close`/`wait` drop one (`-1`). The counts are shared cells — the
/// deliberate §6.4 residual conflict — and the recorded footprint is one
/// read-modify-write of the endpoint line, mirroring the simulated
/// kernel's `update`.
fn adjust_pipe_endpoint(file: &OpenFile, delta: i64) {
    match &file.obj {
        FileObj::File(_) => {}
        FileObj::PipeRead(pipe) => {
            if let Some(tr) = &pipe.tr {
                tr.readers.rmw();
            }
            pipe.readers.fetch_add(delta, Ordering::AcqRel);
        }
        FileObj::PipeWrite(pipe) => {
            if let Some(tr) = &pipe.tr {
                tr.writers.rmw();
            }
            pipe.writers.fetch_add(delta, Ordering::AcqRel);
        }
    }
}

/// Maps host socket-table errors onto the simulated twin's errnos.
fn sock_errno(e: SocketError) -> Errno {
    match e {
        SocketError::BadSocket => Errno::EBADF,
        SocketError::Empty => Errno::EAGAIN,
    }
}

/// The host kernel speaks the same [`SyscallApi`] as the simulated
/// kernels, so applications written against it — the §7.3 mail server —
/// and the reified-`SysOp` driver (`scr_kernel::api::perform`) run on
/// either substrate unchanged.
impl SyscallApi for HostKernel {
    /// Creates a new process, returning its pid (dense from zero). The
    /// append-only table makes this lock-free: concurrent syscalls' pid
    /// lookups never wait behind a table construction, which is what lets
    /// `posix_spawn`-per-message mail delivery scale.
    fn new_process(&self) -> Pid {
        self.procs.push_with(|pid| self.build_process(pid))
    }

    // --- file-name operations -------------------------------------------

    /// Opens (and possibly creates) `name`, returning a descriptor.
    fn open(&self, core: usize, pid: Pid, name: &str, flags: OpenFlags) -> KResult<Fd> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let ino = match self.root.get(name) {
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
                let inode = self.new_inode(core);
                inode.nlink.inc(core);
                if self.root.insert_if_absent(name, inode.ino) {
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
        if flags.truncate {
            if let Some(tr) = &inode.tr {
                tr.size.read();
            }
            let size = inode.size_pages.load(Ordering::Acquire);
            if size != 0 {
                if let Some(tr) = &inode.tr {
                    tr.size.write();
                }
                inode.size_pages.store(0, Ordering::Release);
                let mut pages = inode.pages.write();
                if let Some(tr) = &inode.tr {
                    for page in pages.keys() {
                        tr.pages.take(*page as usize, true);
                    }
                }
                pages.clear();
            }
        }
        let file = Arc::new(OpenFile {
            obj: FileObj::File(inode),
            offset: AtomicU64::new(0),
            io: Mutex::new(()),
            offset_probe: self
                .trace
                .as_ref()
                .map(|t| t.sink.probe(format!("proc[{pid}].ofile[{name}].offset"))),
        });
        self.alloc_fd(core, proc_, file, flags.anyfd)
    }

    /// Creates a new hard link `new` to the file `old`.
    fn link(&self, core: usize, pid: Pid, old: &str, new: &str) -> KResult<()> {
        let _g = self.serialise();
        let _ = self.proc(pid)?;
        let ino = self.root.get(old).ok_or(Errno::ENOENT)?;
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        // Optimistic existence check first ("precede pessimism with
        // optimism", and the same read-only EEXIST path the simulated
        // kernel takes): a link to an existing name must not touch the link
        // counter at all. This check doubles as the insert's optimistic
        // stage, so the pessimistic insert below completes exactly the
        // traced `insert_if_absent` footprint.
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
        Ok(())
    }

    /// Removes the name `name`. Reclamation of the inode is deferred to an
    /// epoch pass, as in the simulated kernel.
    fn unlink(&self, core: usize, pid: Pid, name: &str) -> KResult<()> {
        let _g = self.serialise();
        let _ = self.proc(pid)?;
        let ino = self.root.remove(name).ok_or(Errno::ENOENT)?;
        if let Some(inode) = self.inode(ino) {
            inode.nlink.dec(core);
            self.defer_reclaim(core, ino);
        }
        Ok(())
    }

    /// Renames `src` to `dst`, with the same observable semantics as the
    /// simulated kernel (including the same-inode fast path). Unlike the
    /// single-threaded simulator, the whole check-then-update must be
    /// atomic here: both names' stripes are locked together (in canonical
    /// order), otherwise two concurrent renames sharing a destination can
    /// interleave their existence checks and produce a state no sequential
    /// order could (e.g. a leaked link count).
    fn rename(&self, core: usize, pid: Pid, src: &str, dst: &str) -> KResult<()> {
        let _g = self.serialise();
        let _ = self.proc(pid)?;
        let s_stripe = self.root.stripe_of(src);
        let d_stripe = self.root.stripe_of(dst);
        self.root.with_pair_locked(src, dst, |dir| {
            let src_ino = dir.get(src, s_stripe).ok_or(Errno::ENOENT)?;
            if src == dst {
                return Ok(());
            }
            match dir.get(dst, d_stripe) {
                Some(dst_ino) if dst_ino == src_ino => {
                    dir.remove(src, s_stripe);
                    if let Some(inode) = self.inode(src_ino) {
                        inode.nlink.dec(core);
                    }
                    return Ok(());
                }
                Some(dst_ino) => {
                    dir.upsert(dst, d_stripe, src_ino);
                    if let Some(old) = self.inode(dst_ino) {
                        old.nlink.dec(core);
                        self.defer_reclaim(core, dst_ino);
                    }
                }
                None => {
                    dir.upsert(dst, d_stripe, src_ino);
                }
            }
            dir.remove(src, s_stripe);
            Ok(())
        })
    }

    /// Returns the metadata of `name`.
    fn stat(&self, _core: usize, pid: Pid, name: &str) -> KResult<Stat> {
        let _g = self.serialise();
        let _ = self.proc(pid)?;
        let ino = self.root.get(name).ok_or(Errno::ENOENT)?;
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        Ok(self.file_stat(&inode, StatMask::all()))
    }

    // --- descriptor operations ------------------------------------------

    /// Returns the metadata of the open file `fd`.
    fn fstat(&self, core: usize, pid: Pid, fd: Fd) -> KResult<Stat> {
        self.fstatx(core, pid, fd, StatMask::all())
    }

    /// Field-selective `fstat`: the §4 commutative variant. Skipping
    /// `want_nlink` avoids touching the link counter entirely.
    fn fstatx(&self, _core: usize, pid: Pid, fd: Fd, mask: StatMask) -> KResult<Stat> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => Ok(self.file_stat(inode, mask)),
            FileObj::PipeRead(_) | FileObj::PipeWrite(_) => Ok(Stat {
                ino: 0,
                size: 0,
                nlink: 0,
                is_pipe: true,
            }),
        }
    }

    /// Repositions the offset of `fd`.
    fn lseek(&self, _core: usize, pid: Pid, fd: Fd, offset: i64, whence: Whence) -> KResult<u64> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        let inode = match &file.obj {
            FileObj::File(inode) => inode,
            _ => return Err(Errno::ESPIPE),
        };
        let _io = file.io.lock();
        // Optimistic stage: compute the new offset read-only and return
        // early if it is invalid or equal to the current offset (§6.3).
        if let Some(p) = &file.offset_probe {
            p.read();
        }
        let current = file.offset.load(Ordering::Acquire);
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => current as i64,
            Whence::End => {
                if let Some(tr) = &inode.tr {
                    tr.size.read();
                }
                (inode.size_pages.load(Ordering::Acquire) * PAGE_SIZE) as i64
            }
        };
        let target = base + offset;
        if target < 0 {
            return Err(Errno::EINVAL);
        }
        let target = target as u64;
        if target == current {
            return Ok(target);
        }
        if let Some(p) = &file.offset_probe {
            p.write();
        }
        file.offset.store(target, Ordering::Release);
        Ok(target)
    }

    /// Closes `fd`.
    fn close(&self, _core: usize, pid: Pid, fd: Fd) -> KResult<()> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        if fd as usize >= proc_.fd_capacity() {
            return Err(Errno::EBADF);
        }
        if let Some(p) = &proc_.fd_probes {
            p.at(fd as usize).read();
        }
        let slot = proc_
            .fd_slot_if_allocated(fd as usize)
            .ok_or(Errno::EBADF)?;
        let file = slot.lock().take().ok_or(Errno::EBADF)?;
        if let Some(p) = &proc_.fd_probes {
            p.at(fd as usize).write();
        }
        adjust_pipe_endpoint(&file, -1);
        Ok(())
    }

    /// Creates a pipe, returning `(read_fd, write_fd)`.
    fn pipe(&self, core: usize, pid: Pid) -> KResult<(Fd, Fd)> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let trace = self.trace.as_ref();
        let id = trace.map(|t| t.next_pipe_id.fetch_add(1, Ordering::Relaxed));
        let label = |suffix: &str| {
            format!(
                "pipe[{pid}:{}].{suffix}",
                id.expect("labels only built when traced")
            )
        };
        let pipe = Arc::new(Pipe {
            buffer: Mutex::new(VecDeque::new()),
            readers: AtomicI64::new(1),
            writers: AtomicI64::new(1),
            tr: trace.map(|t| PipeTrace {
                buffer: t.sink.probe(label("buffer")),
                readers: t.sink.probe(label("readers")),
                writers: t.sink.probe(label("writers")),
            }),
        });
        let read_end = Arc::new(OpenFile {
            obj: FileObj::PipeRead(Arc::clone(&pipe)),
            offset: AtomicU64::new(0),
            io: Mutex::new(()),
            offset_probe: trace.map(|t| t.sink.probe(label("roff"))),
        });
        let write_end = Arc::new(OpenFile {
            obj: FileObj::PipeWrite(pipe),
            offset: AtomicU64::new(0),
            io: Mutex::new(()),
            offset_probe: trace.map(|t| t.sink.probe(label("woff"))),
        });
        let rfd = self.alloc_fd(core, proc_, read_end, false)?;
        let wfd = self.alloc_fd(core, proc_, write_end, false)?;
        Ok((rfd, wfd))
    }

    /// Reads up to `len` bytes at the current offset.
    fn read(&self, _core: usize, pid: Pid, fd: Fd, len: u64) -> KResult<Vec<u8>> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => {
                let _io = file.io.lock();
                if let Some(p) = &file.offset_probe {
                    p.read();
                }
                let offset = file.offset.load(Ordering::Acquire);
                let data = self.file_read_at(inode, offset, len);
                if !data.is_empty() {
                    if let Some(p) = &file.offset_probe {
                        p.write();
                    }
                    file.offset
                        .store(offset + data.len() as u64, Ordering::Release);
                }
                Ok(data)
            }
            FileObj::PipeRead(pipe) => {
                // The simulated kernel drains through `buffer.update`, which
                // reads and writes the buffer cell even when nothing is
                // taken — two concurrent empty reads of one pipe conflict,
                // deliberately (§6.4).
                if let Some(tr) = &pipe.tr {
                    tr.buffer.rmw();
                }
                let data: Vec<u8> = {
                    let mut buf = pipe.buffer.lock();
                    let take = (len as usize).min(buf.len());
                    buf.drain(..take).collect()
                };
                if data.is_empty() {
                    if let Some(tr) = &pipe.tr {
                        tr.writers.read();
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

    /// Writes `data` at the current offset.
    fn write(&self, _core: usize, pid: Pid, fd: Fd, data: &[u8]) -> KResult<u64> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => {
                let _io = file.io.lock();
                if let Some(p) = &file.offset_probe {
                    p.read();
                }
                let offset = file.offset.load(Ordering::Acquire);
                let written = self.file_write_at(inode, offset, data);
                if let Some(p) = &file.offset_probe {
                    p.write();
                }
                file.offset.store(offset + written, Ordering::Release);
                Ok(written)
            }
            FileObj::PipeWrite(pipe) => {
                // SIGPIPE check: reads the shared reader count.
                if let Some(tr) = &pipe.tr {
                    tr.readers.read();
                }
                if pipe.readers.load(Ordering::Acquire) == 0 {
                    return Err(Errno::EPIPE);
                }
                if let Some(tr) = &pipe.tr {
                    tr.buffer.rmw();
                }
                pipe.buffer.lock().extend(data.iter().copied());
                Ok(data.len() as u64)
            }
            FileObj::PipeRead(_) => Err(Errno::EBADF),
        }
    }

    /// Reads at an absolute offset (no offset update).
    fn pread(&self, _core: usize, pid: Pid, fd: Fd, len: u64, offset: u64) -> KResult<Vec<u8>> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => Ok(self.file_read_at(inode, offset, len)),
            _ => Err(Errno::ESPIPE),
        }
    }

    /// Writes at an absolute offset (no offset update).
    fn pwrite(&self, _core: usize, pid: Pid, fd: Fd, data: &[u8], offset: u64) -> KResult<u64> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let file = self.open_file(proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => Ok(self.file_write_at(inode, offset, data)),
            _ => Err(Errno::ESPIPE),
        }
    }

    // --- virtual memory ---------------------------------------------------

    /// Maps `pages` pages, returning the mapped address. Hint-less mappings
    /// come from the per-core region, with the same address arithmetic as
    /// the simulated kernel.
    fn mmap(
        &self,
        core: usize,
        pid: Pid,
        addr_hint: Option<u64>,
        pages: u64,
        prot: Prot,
        backing: MmapBacking,
    ) -> KResult<u64> {
        let _g = self.serialise();
        if pages == 0 {
            return Err(Errno::EINVAL);
        }
        let proc_ = self.proc(pid)?;
        let base_vpn = match addr_hint {
            Some(addr) => Self::vpn_of(addr)?,
            None => {
                // Per-core region allocation: no shared allocation state.
                let shard = core % self.cores;
                if let Some(p) = &proc_.vpn_probes {
                    p.at(shard).rmw();
                }
                proc_.next_vpn(shard).fetch_add(pages, Ordering::Relaxed)
            }
        };
        let file_ino = match backing {
            MmapBacking::Anon => None,
            MmapBacking::File(fd) => {
                let file = self.open_file(proc_, fd)?;
                match &file.obj {
                    FileObj::File(inode) => Some(inode.ino),
                    _ => return Err(Errno::EBADF),
                }
            }
        };
        let mut vm = proc_.vm_pages.write();
        for i in 0..pages {
            let vpn = base_vpn + i;
            let backing = match file_ino {
                None => PageBacking::Anon(
                    Arc::new(AtomicU8::new(0)),
                    self.trace
                        .as_ref()
                        .map(|t| t.sink.probe(format!("proc[{pid}].page[{vpn}]"))),
                ),
                Some(ino) => PageBacking::File { ino, file_page: i },
            };
            if let Some(p) = &proc_.vm_probes {
                p.set(vpn as usize);
            }
            vm.insert(vpn, MappedPage { prot, backing });
        }
        Ok(base_vpn * PAGE_SIZE)
    }

    /// Unmaps `pages` pages starting at `addr`.
    fn munmap(&self, _core: usize, pid: Pid, addr: u64, pages: u64) -> KResult<()> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let base_vpn = Self::vpn_of(addr)?;
        let mut vm = proc_.vm_pages.write();
        for i in 0..pages {
            let present = vm.remove(&(base_vpn + i)).is_some();
            if let Some(p) = &proc_.vm_probes {
                p.take((base_vpn + i) as usize, present);
            }
        }
        Ok(())
    }

    /// Changes the protection of `pages` pages starting at `addr`.
    fn mprotect(&self, _core: usize, pid: Pid, addr: u64, pages: u64, prot: Prot) -> KResult<()> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let base_vpn = Self::vpn_of(addr)?;
        let mut vm = proc_.vm_pages.write();
        for i in 0..pages {
            let vpn = base_vpn + i;
            if let Some(p) = &proc_.vm_probes {
                p.get(vpn as usize);
            }
            match vm.get_mut(&vpn) {
                Some(page) => {
                    // The simulated kernel reads the slot and stores the
                    // updated mapping back.
                    if let Some(p) = &proc_.vm_probes {
                        p.set(vpn as usize);
                    }
                    page.prot = prot;
                }
                None => return Err(Errno::ENOMEM),
            }
        }
        Ok(())
    }

    /// Reads one byte from mapped memory.
    fn memread(&self, _core: usize, pid: Pid, addr: u64) -> KResult<u8> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let vpn = addr / PAGE_SIZE;
        let in_page = addr % PAGE_SIZE;
        if let Some(p) = &proc_.vm_probes {
            p.get(vpn as usize);
        }
        let page = proc_
            .vm_pages
            .read()
            .get(&vpn)
            .cloned()
            .ok_or(Errno::EFAULT)?;
        if !page.prot.read {
            return Err(Errno::EFAULT);
        }
        match &page.backing {
            PageBacking::Anon(cell, probe) => {
                if let Some(p) = probe {
                    p.read();
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

    /// Writes one byte to mapped memory.
    fn memwrite(&self, _core: usize, pid: Pid, addr: u64, value: u8) -> KResult<()> {
        let _g = self.serialise();
        let proc_ = self.proc(pid)?;
        let vpn = addr / PAGE_SIZE;
        let in_page = addr % PAGE_SIZE;
        if let Some(p) = &proc_.vm_probes {
            p.get(vpn as usize);
        }
        let page = proc_
            .vm_pages
            .read()
            .get(&vpn)
            .cloned()
            .ok_or(Errno::EFAULT)?;
        if !page.prot.write {
            return Err(Errno::EFAULT);
        }
        match &page.backing {
            PageBacking::Anon(cell, probe) => {
                if let Some(p) = probe {
                    p.write();
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

    // --- processes and sockets (§4 / §7.3) --------------------------------

    /// Creates a child by duplicating the parent's descriptor table. The
    /// snapshot reads *every* parent slot — recorded as such, which is what
    /// makes fork commute with almost nothing — and writes each occupied
    /// slot into the child.
    fn fork(&self, _core: usize, pid: Pid) -> KResult<Pid> {
        let _g = self.serialise();
        let parent = self.proc(pid)?;
        let child_pid = self.new_process();
        let child = self.proc(child_pid)?;
        for fd in 0..parent.fd_capacity() {
            if let Some(p) = &parent.fd_probes {
                p.at(fd).read();
            }
            // An unallocated partition reads as all-empty without being
            // materialised (the probe read above still mirrors the
            // simulated whole-table snapshot).
            let file = parent
                .fd_slot_if_allocated(fd)
                .and_then(|slot| slot.lock().clone());
            if let Some(file) = file {
                // A duplicated descriptor is a second reference to a pipe
                // endpoint; the count grows with it (and shrinks again in
                // close/wait), exactly as in the simulated kernel.
                adjust_pipe_endpoint(&file, 1);
                if let Some(p) = &child.fd_probes {
                    p.at(fd).write();
                }
                *child.fd_slot(fd).expect("fd within capacity").lock() = Some(file);
            }
        }
        Ok(child_pid)
    }

    /// Creates a child with a fresh descriptor table, duplicating only the
    /// listed descriptors (`posix_spawn`, §4 "decompose compound
    /// operations"): only those slots are ever touched.
    fn posix_spawn(&self, _core: usize, pid: Pid, dup_fds: &[Fd]) -> KResult<Pid> {
        let _g = self.serialise();
        let parent = self.proc(pid)?;
        // Resolve the whole dup list first, as in the simulated kernel: a
        // bad descriptor fails the spawn before any endpoint reference is
        // taken or a child process exists. A repeated fd collapses into one
        // child slot, so it must take exactly one endpoint reference: the
        // resolve still reads once per list entry (matching the simulated
        // kernel), but only the first occurrence is kept. The list is one
        // or two entries long, so a scan of what is already kept is all the
        // set this needs.
        let mut files: Vec<(Fd, Arc<OpenFile>)> = Vec::with_capacity(dup_fds.len());
        for &fd in dup_fds {
            let file = self.open_file(parent, fd)?;
            if files.iter().all(|(kept, _)| *kept != fd) {
                files.push((fd, file));
            }
        }
        let child_pid = self.new_process();
        let child = self.proc(child_pid)?;
        for (fd, file) in files {
            adjust_pipe_endpoint(&file, 1);
            if let Some(p) = &child.fd_probes {
                p.at(fd as usize).write();
            }
            *child.fd_slot(fd as usize).expect("open fd in range").lock() = Some(file);
        }
        Ok(child_pid)
    }

    /// Reaps a finished child: empties the occupied descriptor slots,
    /// releasing pipe endpoints exactly as `close` does, touching only the
    /// occupied lines (the exiting child's fd list is process-private
    /// state, so reaping stays O(open descriptors), not O(table size)).
    /// The pid stays valid and refers to an empty process afterwards, as
    /// in the simulated kernels.
    fn wait(&self, _core: usize, _pid: Pid, child: Pid) -> KResult<()> {
        let _g = self.serialise();
        let proc_ = self.proc(child)?;
        for (chunk_idx, chunk) in proc_.fd_chunks.iter().enumerate() {
            // Never-touched partitions hold nothing to reap.
            let Some(chunk) = chunk.get() else { continue };
            for (slot_idx, slot) in chunk.iter().enumerate() {
                let fd = chunk_idx * FDS_PER_CORE + slot_idx;
                let file = slot.lock().take();
                // Like the simulated kernel, reaping records accesses only
                // for occupied slots (the exiting child's fd list is
                // process-private state): a read and the emptying write.
                let Some(file) = file else { continue };
                if let Some(p) = &proc_.fd_probes {
                    p.at(fd).read();
                    p.at(fd).write();
                }
                adjust_pipe_endpoint(&file, -1);
            }
        }
        Ok(())
    }

    /// Creates a datagram socket with the requested ordering. Unlike the
    /// simulated Linux baseline (which always enforces ordering), the host
    /// kernel honours the request in both modes: `HostMode` changes only
    /// the *sharing* — in `Linuxlike` mode every socket call still takes
    /// the giant lock, which is what collapses its scaling.
    fn socket(&self, _core: usize, order: SocketOrder) -> KResult<SockId> {
        let _g = self.serialise();
        Ok(self.sockets.create(match order {
            SocketOrder::Ordered => QueueOrder::Ordered,
            SocketOrder::Unordered => QueueOrder::Unordered,
        }))
    }

    /// Sends a datagram on a socket.
    fn send(&self, core: usize, sock: SockId, msg: &[u8]) -> KResult<()> {
        let _g = self.serialise();
        self.sockets.send(core, sock, msg).map_err(sock_errno)
    }

    /// Receives a datagram from a socket (`EAGAIN` when every queue the
    /// receiver may take from is empty).
    fn recv(&self, core: usize, sock: SockId) -> KResult<Vec<u8>> {
        let _g = self.serialise();
        self.sockets.recv(core, sock).map_err(sock_errno)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_kernel::api::{perform, SysOp, SysResult};

    fn kernel_with_proc(mode: HostMode) -> (HostKernel, Pid) {
        let k = HostKernel::new(4, mode);
        let pid = k.new_process();
        (k, pid)
    }

    #[test]
    fn host_kernel_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HostKernel>();
    }

    #[test]
    fn create_write_read_roundtrip_in_both_modes() {
        for mode in [HostMode::Sv6, HostMode::Linuxlike] {
            let (k, pid) = kernel_with_proc(mode);
            let fd = k.open(0, pid, "hello", OpenFlags::create()).unwrap();
            assert_eq!(k.write(0, pid, fd, b"hi there").unwrap(), 8);
            assert_eq!(k.lseek(0, pid, fd, 0, Whence::Set).unwrap(), 0);
            assert_eq!(k.read(0, pid, fd, 8).unwrap(), b"hi there");
            let st = k.fstat(0, pid, fd).unwrap();
            assert_eq!(st.nlink, 1);
            assert_eq!(st.size, PAGE_SIZE);
            k.close(0, pid, fd).unwrap();
            assert_eq!(k.read(0, pid, fd, 1), Err(Errno::EBADF));
        }
    }

    #[test]
    fn link_unlink_rename_match_sv6_semantics() {
        let (k, pid) = kernel_with_proc(HostMode::Sv6);
        k.open(0, pid, "a", OpenFlags::create()).unwrap();
        k.link(1, pid, "a", "b").unwrap();
        assert_eq!(k.stat(0, pid, "a").unwrap().nlink, 2);
        k.unlink(2, pid, "a").unwrap();
        assert_eq!(k.stat(0, pid, "b").unwrap().nlink, 1);
        assert_eq!(k.stat(0, pid, "a"), Err(Errno::ENOENT));
        // Rename onto a hard link of the same inode only removes the source.
        k.link(0, pid, "b", "c").unwrap();
        k.rename(0, pid, "b", "c").unwrap();
        assert_eq!(k.stat(0, pid, "b"), Err(Errno::ENOENT));
        assert_eq!(k.stat(0, pid, "c").unwrap().nlink, 1);
    }

    #[test]
    fn anyfd_uses_the_cores_partition() {
        let (k, pid) = kernel_with_proc(HostMode::Sv6);
        k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let fd = k
            .open(2, pid, "f", OpenFlags::plain().with_anyfd())
            .unwrap();
        assert!(
            (fd as usize) >= 2 * FDS_PER_CORE && (fd as usize) < 3 * FDS_PER_CORE,
            "O_ANYFD descriptor must come from core 2's partition, got {fd}"
        );
    }

    #[test]
    fn pipes_match_sv6_semantics() {
        let (k, pid) = kernel_with_proc(HostMode::Sv6);
        let (r, w) = k.pipe(0, pid).unwrap();
        assert_eq!(k.write(0, pid, w, b"ping").unwrap(), 4);
        assert_eq!(k.read(0, pid, r, 16).unwrap(), b"ping");
        assert_eq!(k.read(0, pid, r, 1), Err(Errno::EAGAIN));
        k.close(0, pid, r).unwrap();
        assert_eq!(k.write(0, pid, w, b"x"), Err(Errno::EPIPE));
        let (r2, w2) = k.pipe(0, pid).unwrap();
        k.close(0, pid, w2).unwrap();
        assert_eq!(k.read(0, pid, r2, 4).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn vm_roundtrip_matches_sv6_semantics() {
        let (k, pid) = kernel_with_proc(HostMode::Sv6);
        let addr = k
            .mmap(0, pid, None, 2, Prot::rw(), MmapBacking::Anon)
            .unwrap();
        // Same per-core region arithmetic as the simulated kernel.
        assert_eq!(addr, PAGE_SIZE);
        k.memwrite(0, pid, addr, 7).unwrap();
        assert_eq!(k.memread(0, pid, addr).unwrap(), 7);
        assert_eq!(k.memread(0, pid, addr + PAGE_SIZE).unwrap(), 0);
        k.mprotect(0, pid, addr, 2, Prot::ro()).unwrap();
        assert_eq!(k.memwrite(0, pid, addr, 1), Err(Errno::EFAULT));
        k.munmap(0, pid, addr, 2).unwrap();
        assert_eq!(k.memread(0, pid, addr), Err(Errno::EFAULT));
        // File-backed mappings read through to the file.
        let fd = k.open(0, pid, "data", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"Z", 0).unwrap();
        let m = k
            .mmap(0, pid, None, 1, Prot::rw(), MmapBacking::File(fd))
            .unwrap();
        assert_eq!(k.memread(0, pid, m).unwrap(), b'Z');
        k.memwrite(0, pid, m, b'Q').unwrap();
        assert_eq!(k.pread(0, pid, fd, 1, 0).unwrap(), b"Q");
    }

    #[test]
    fn inode_numbers_match_the_simulated_allocator() {
        // Same (counter << 8) | core scheme as scr_scalable::InodeAllocator.
        let (k, pid) = kernel_with_proc(HostMode::Sv6);
        k.open(0, pid, "x", OpenFlags::create()).unwrap();
        k.open(1, pid, "y", OpenFlags::create()).unwrap();
        k.open(0, pid, "z", OpenFlags::create()).unwrap();
        assert_eq!(k.stat(0, pid, "x").unwrap().ino, 1 << 8);
        assert_eq!(k.stat(0, pid, "y").unwrap().ino, (1 << 8) | 1);
        assert_eq!(k.stat(0, pid, "z").unwrap().ino, 2 << 8);
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
    fn unlinked_inodes_are_reclaimed_by_the_epoch_pass() {
        let (k, pid) = kernel_with_proc(HostMode::Sv6);
        k.open(0, pid, "victim", OpenFlags::create()).unwrap();
        let ino = k.stat(0, pid, "victim").unwrap().ino;
        k.unlink(1, pid, "victim").unwrap();
        assert!(k.inode(ino).is_some(), "reclamation must be deferred");
        assert_eq!(k.reclaim_epoch(), 1);
        assert!(k.inode(ino).is_none(), "epoch pass must reclaim the inode");
        // A still-linked inode survives its defer entry (link/unlink pair).
        k.open(0, pid, "kept", OpenFlags::create()).unwrap();
        k.link(0, pid, "kept", "extra").unwrap();
        k.unlink(0, pid, "extra").unwrap();
        assert_eq!(k.reclaim_epoch(), 0);
        assert!(k.stat(0, pid, "kept").is_ok());
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

    #[test]
    fn perform_drives_the_host_kernel_via_sysops() {
        let (k, pid) = kernel_with_proc(HostMode::Sv6);
        let res = perform(
            &k,
            0,
            &SysOp::Open {
                pid,
                name: "via-sysop".into(),
                flags: OpenFlags::create(),
            },
        );
        assert!(res.is_ok());
        match perform(
            &k,
            0,
            &SysOp::StatPath {
                pid,
                name: "via-sysop".into(),
            },
        ) {
            SysResult::Meta(st) => assert_eq!(st.nlink, 1),
            other => panic!("unexpected result {other:?}"),
        }
    }
}
