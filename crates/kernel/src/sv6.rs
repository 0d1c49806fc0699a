//! The sv6-style kernel: ScaleFS (in-memory file system) plus a RadixVM-like
//! virtual memory system (§6.3), built from the scalable primitives of
//! `scr-scalable` over the simulated machine.
//!
//! Design patterns reproduced from the paper:
//!
//! * **Layer scalability** — directories are hash tables with per-bucket
//!   locks, file pages and address spaces are radix arrays, so operations on
//!   different names / pages / addresses touch disjoint cache lines.
//! * **Defer work** — link counts are Refcache counters (per-core deltas),
//!   inode numbers come from per-core never-reused allocators, and inode
//!   reclamation is deferred to an epoch pass.
//! * **Precede pessimism with optimism** — `lseek`, `rename` and
//!   `insert_if_absent` check read-only whether any update is needed before
//!   writing anything.
//! * **Don't read unless necessary** — existence checks
//!   (`access`-style) use a name-only lookup that never touches the inode.
//!
//! The §6.4 residual non-scalable cases are deliberately retained: two
//! `lseek`s that move the same descriptor to the same (new) offset both
//! write the offset; identical fixed-address `mmap`s both write the mapping
//! slot; and pipe endpoints keep a shared reader/writer count, so closing
//! pipe descriptors conflicts with other pipe operations.

use crate::api::{
    Errno, Fd, Ino, KResult, KernelApi, MmapBacking, OpenFlags, Pid, Prot, SockId, SocketOrder,
    Stat, StatMask, SyscallApi, Whence, PAGE_SIZE,
};
use scr_mtrace::{CoreId, SimMachine, TracedCell};
use scr_scalable::{
    DeferQueue, HashDir, InodeAllocator, LinkCounter, RadixArray, SeqLock, SocketTable,
};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Descriptors per core partition (for `O_ANYFD` allocation).
const FDS_PER_CORE: usize = 16;
/// Virtual pages reserved per core for hint-less `mmap` allocation.
const VPN_REGION_PER_CORE: u64 = 256;
/// Directory bucket count. Sized generously (like a real dcache) so that
/// operations on different names rarely collide in one bucket; the
/// "barring hash collisions" caveat of §1 still applies to the residual
/// collisions.
const DIR_BUCKETS: usize = 512;

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
struct Inode {
    ino: Ino,
    /// Link count: a Refcache counter so `link`/`unlink` on different cores
    /// are conflict-free. `fstat` pays to reconcile it; `fstatx` without
    /// `st_nlink` does not touch it.
    nlink: LinkCounter<SimMachine>,
    /// File size in pages, seqlock-protected metadata.
    size_pages: SeqLock<SimMachine>,
    /// Page cache: page number → contents.
    pages: RadixArray<Vec<u8>, SimMachine>,
}

/// One pipe. The reader/writer endpoint counts are deliberately plain shared
/// cells — the §6.4 residual non-scalable case.
struct Pipe {
    buffer: TracedCell<VecDeque<u8>>,
    readers: TracedCell<i64>,
    writers: TracedCell<i64>,
}

/// What an open descriptor refers to.
#[derive(Clone)]
enum FileObj {
    File(Rc<Inode>),
    PipeRead(Rc<Pipe>),
    PipeWrite(Rc<Pipe>),
}

/// An open file description (shared by `fork`-duplicated descriptors).
struct OpenFile {
    obj: FileObj,
    offset: TracedCell<u64>,
}

/// One page of a mapped region.
#[derive(Clone)]
enum PageBacking {
    /// Anonymous memory: the page's contents live in their own cell.
    Anon(TracedCell<u8>),
    /// A file page.
    File { ino: Ino, file_page: u64 },
}

/// A mapping entry in the address space radix array.
#[derive(Clone)]
struct MappedPage {
    prot: Prot,
    backing: PageBacking,
}

/// A process: descriptor table (one traced slot per descriptor) and address
/// space (radix array keyed by virtual page number).
struct Process {
    fd_slots: Vec<TracedCell<Option<Rc<OpenFile>>>>,
    vm_pages: RadixArray<MappedPage, SimMachine>,
    /// Per-core bump allocators for hint-less mmap address selection.
    next_vpn: Vec<TracedCell<u64>>,
}

/// The sv6-style kernel (ScaleFS + RadixVM analogue).
pub struct Sv6Kernel {
    machine: SimMachine,
    cores: usize,
    options: Sv6Options,
    root: HashDir<Ino, SimMachine>,
    inodes: Rc<RefCell<HashMap<Ino, Rc<Inode>>>>,
    inode_alloc: InodeAllocator<SimMachine>,
    procs: Rc<RefCell<Vec<Rc<Process>>>>,
    sockets: SocketTable<SimMachine>,
    defer: DeferQueue<Ino, SimMachine>,
}

impl Sv6Kernel {
    /// Builds an sv6 kernel on a fresh simulated machine with `cores` cores.
    pub fn new(cores: usize) -> Self {
        let machine = SimMachine::new();
        Self::on_machine(&machine, cores)
    }

    /// Builds an sv6 kernel with non-default options (used by the ablation
    /// benchmarks).
    pub fn with_options(cores: usize, options: Sv6Options) -> Self {
        let machine = SimMachine::new();
        Self::on_machine_with_options(&machine, cores, options)
    }

    /// Builds an sv6 kernel on an existing machine.
    pub fn on_machine(machine: &SimMachine, cores: usize) -> Self {
        Self::on_machine_with_options(machine, cores, Sv6Options::default())
    }

    /// Builds an sv6 kernel on an existing machine with explicit options.
    pub fn on_machine_with_options(
        machine: &SimMachine,
        cores: usize,
        options: Sv6Options,
    ) -> Self {
        Sv6Kernel {
            machine: machine.clone(),
            cores,
            options,
            root: HashDir::new(Some(machine), "scalefs.root", DIR_BUCKETS),
            inodes: Rc::new(RefCell::new(HashMap::new())),
            inode_alloc: InodeAllocator::new(Some(machine), "scalefs", cores),
            procs: Rc::new(RefCell::new(Vec::new())),
            sockets: SocketTable::new(Some(machine), cores),
            defer: DeferQueue::new(Some(machine), "scalefs.inode_gc", cores),
        }
    }

    /// Number of simulated cores this kernel was configured for.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Runs the deferred-reclamation epoch pass: inodes whose link count
    /// reconciles to zero are removed from the inode table. Returns the
    /// number of inodes reclaimed.
    pub fn reclaim_epoch(&self) -> usize {
        let mut reclaimed = 0;
        for core in 0..self.defer.cores() {
            for ino in self.defer.drain(core) {
                if self
                    .inode(ino)
                    .is_some_and(|inode| inode.nlink.reconcile() <= 0)
                {
                    self.inodes.borrow_mut().remove(&ino);
                    reclaimed += 1;
                }
            }
        }
        reclaimed
    }

    /// Name-only existence check (the `access(F_OK)` fast path of §6.3
    /// "don't read unless necessary"): never touches the inode.
    pub fn name_exists(&self, _core: CoreId, name: &str) -> bool {
        self.root.contains(name)
    }

    /// The directory hash bucket a name maps to. Creation of names in
    /// different buckets is conflict-free; tests and the test-case driver
    /// use this to distinguish genuine sharing from hash collisions (the
    /// paper's "barring hash collisions" caveat).
    pub fn dir_bucket_of(&self, name: &str) -> usize {
        self.root.bucket_of(name)
    }

    fn proc(&self, pid: Pid) -> KResult<Rc<Process>> {
        self.procs.borrow().get(pid).cloned().ok_or(Errno::EINVAL)
    }

    fn inode(&self, ino: Ino) -> Option<Rc<Inode>> {
        self.inodes.borrow().get(&ino).cloned()
    }

    fn new_inode(&self, core: CoreId) -> Rc<Inode> {
        let ino = self.inode_alloc.alloc(core);
        let machine = Some(&self.machine);
        let inode = Rc::new(Inode {
            ino,
            nlink: LinkCounter::new(
                machine,
                format_args!("inode[{ino}].nlink"),
                self.cores,
                self.options.shared_link_counts,
            ),
            size_pages: SeqLock::new(machine, format_args!("inode[{ino}].size"), 0),
            pages: RadixArray::new(machine, format_args!("inode[{ino}].pages")),
        });
        self.inodes.borrow_mut().insert(ino, Rc::clone(&inode));
        inode
    }

    fn open_file(&self, proc_: &Process, fd: Fd) -> KResult<Rc<OpenFile>> {
        proc_
            .fd_slots
            .get(fd as usize)
            .ok_or(Errno::EBADF)?
            .get()
            .ok_or(Errno::EBADF)
    }

    /// Allocates a descriptor slot. With `anyfd` the search is restricted to
    /// the invoking core's partition (conflict-free across cores); otherwise
    /// the lowest free slot is claimed, which requires scanning from 0.
    fn alloc_fd(
        &self,
        core: CoreId,
        proc_: &Process,
        file: Rc<OpenFile>,
        anyfd: bool,
    ) -> KResult<Fd> {
        let (start, end) = if anyfd {
            let core = core % self.cores;
            (core * FDS_PER_CORE, (core + 1) * FDS_PER_CORE)
        } else {
            (0, proc_.fd_slots.len())
        };
        for fd in start..end {
            let slot = &proc_.fd_slots[fd];
            if slot.with(|v| v.is_none()) {
                slot.set(Some(file));
                return Ok(fd as Fd);
            }
        }
        Err(Errno::EMFILE)
    }

    fn file_stat(&self, inode: &Inode, mask: StatMask) -> Stat {
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

    fn file_read_at(&self, inode: &Inode, offset: u64, len: u64) -> Vec<u8> {
        // Bounds are determined by which pages exist in the radix array, so
        // reads of different pages never conflict with size changes.
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let first_page = offset / PAGE_SIZE;
        let last_page = (offset + len - 1) / PAGE_SIZE;
        for page in first_page..=last_page {
            match inode.pages.get(page as usize) {
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
        while written < data.len() as u64 {
            let page = cursor / PAGE_SIZE;
            let in_page = (cursor % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - in_page).min(data.len() - written as usize);
            let mut page_data = inode.pages.get(page as usize).unwrap_or_default();
            if page_data.len() < in_page + chunk {
                page_data.resize(in_page + chunk, 0);
            }
            page_data[in_page..in_page + chunk]
                .copy_from_slice(&data[written as usize..written as usize + chunk]);
            inode.pages.set(page as usize, page_data);
            written += chunk as u64;
            cursor += chunk as u64;
        }
        // Grow the size only when the write actually extends the file; the
        // optimistic read keeps non-extending writes conflict-free with each
        // other.
        let end_pages = (offset + written).div_ceil(PAGE_SIZE);
        if inode.size_pages.read() < end_pages {
            inode.size_pages.write(|s| s.max(end_pages));
        }
        written
    }

    fn vpn_of(addr: u64) -> KResult<u64> {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(Errno::EINVAL);
        }
        Ok(addr / PAGE_SIZE)
    }
}

/// Adjusts a descriptor's pipe-endpoint count: duplicating a descriptor
/// (fork's snapshot, posix_spawn's dup list) takes another reference
/// (`+1`), `close`/`wait` drop one (`-1`). Keeping every adjustment on
/// this one helper keeps EPIPE/EOF exact across process boundaries.
fn adjust_pipe_endpoint(file: &OpenFile, delta: i64) {
    match &file.obj {
        FileObj::File(_) => {}
        // Pipe endpoint counts are shared cells: the deliberate §6.4
        // residual conflict.
        FileObj::PipeRead(pipe) => {
            pipe.readers.update(|r| *r += delta);
        }
        FileObj::PipeWrite(pipe) => {
            pipe.writers.update(|w| *w += delta);
        }
    }
}

impl KernelApi for Sv6Kernel {
    fn machine(&self) -> &SimMachine {
        &self.machine
    }
}

impl SyscallApi for Sv6Kernel {
    fn new_process(&self) -> Pid {
        let pid = self.procs.borrow().len();
        let proc_ = Rc::new(Process {
            fd_slots: (0..self.cores * FDS_PER_CORE)
                .map(|fd| self.machine.cell(format!("proc[{pid}].fd[{fd}]"), None))
                .collect(),
            vm_pages: RadixArray::new(Some(&self.machine), format_args!("proc[{pid}].as")),
            next_vpn: (0..self.cores)
                .map(|c| {
                    self.machine.cell(
                        format!("proc[{pid}].next_vpn[{c}]"),
                        1 + c as u64 * VPN_REGION_PER_CORE,
                    )
                })
                .collect(),
        });
        self.procs.borrow_mut().push(proc_);
        pid
    }

    fn open(&self, core: CoreId, pid: Pid, name: &str, flags: OpenFlags) -> KResult<Fd> {
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
                    // Lost a race with another creator (cannot happen on the
                    // single-threaded simulator, but keep the protocol).
                    if flags.excl {
                        return Err(Errno::EEXIST);
                    }
                    self.root.get(name).ok_or(Errno::ENOENT)?
                }
            }
        };
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        if flags.truncate {
            let size = inode.size_pages.read();
            if size != 0 {
                inode.size_pages.write(|_| 0);
                inode.pages.clear();
            }
        }
        let file = Rc::new(OpenFile {
            obj: FileObj::File(inode),
            offset: self
                .machine
                .cell(format!("proc[{pid}].ofile[{name}].offset"), 0u64),
        });
        self.alloc_fd(core, &proc_, file, flags.anyfd)
    }

    fn link(&self, core: CoreId, pid: Pid, old: &str, new: &str) -> KResult<()> {
        let _ = self.proc(pid)?;
        let ino = self.root.get(old).ok_or(Errno::ENOENT)?;
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        if !self.root.insert_if_absent(new, ino) {
            return Err(Errno::EEXIST);
        }
        inode.nlink.inc(core);
        Ok(())
    }

    fn unlink(&self, core: CoreId, pid: Pid, name: &str) -> KResult<()> {
        let _ = self.proc(pid)?;
        let ino = self.root.remove(name).ok_or(Errno::ENOENT)?;
        if let Some(inode) = self.inode(ino) {
            inode.nlink.dec(core);
            // Reclamation is deferred; the epoch pass frees the inode if its
            // count reconciled to zero.
            self.defer.defer(core, ino);
        }
        Ok(())
    }

    fn rename(&self, core: CoreId, pid: Pid, src: &str, dst: &str) -> KResult<()> {
        let _ = self.proc(pid)?;
        let src_ino = self.root.get(src).ok_or(Errno::ENOENT)?;
        if src == dst {
            return Ok(());
        }
        // If dst already points at the same inode, only the src entry needs
        // to change ("precede pessimism with optimism"): no write to dst.
        match self.root.get(dst) {
            Some(dst_ino) if dst_ino == src_ino => {
                self.root.remove(src);
                if let Some(inode) = self.inode(src_ino) {
                    inode.nlink.dec(core);
                }
                return Ok(());
            }
            Some(dst_ino) => {
                // Overwrite: the displaced inode loses a link.
                self.root.upsert(dst, src_ino);
                if let Some(old) = self.inode(dst_ino) {
                    old.nlink.dec(core);
                    self.defer.defer(core, dst_ino);
                }
            }
            None => {
                self.root.upsert(dst, src_ino);
            }
        }
        self.root.remove(src);
        Ok(())
    }

    fn stat(&self, _core: CoreId, pid: Pid, name: &str) -> KResult<Stat> {
        let _ = self.proc(pid)?;
        let ino = self.root.get(name).ok_or(Errno::ENOENT)?;
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        Ok(self.file_stat(&inode, StatMask::all()))
    }

    fn fstat(&self, _core: CoreId, pid: Pid, fd: Fd) -> KResult<Stat> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(&proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => Ok(self.file_stat(inode, StatMask::all())),
            FileObj::PipeRead(_) | FileObj::PipeWrite(_) => Ok(Stat {
                ino: 0,
                size: 0,
                nlink: 0,
                is_pipe: true,
            }),
        }
    }

    fn fstatx(&self, _core: CoreId, pid: Pid, fd: Fd, mask: StatMask) -> KResult<Stat> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(&proc_, fd)?;
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

    fn lseek(&self, _core: CoreId, pid: Pid, fd: Fd, offset: i64, whence: Whence) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(&proc_, fd)?;
        let inode = match &file.obj {
            FileObj::File(inode) => inode,
            _ => return Err(Errno::ESPIPE),
        };
        // Optimistic stage: compute the new offset read-only and return early
        // if it is invalid or equal to the current offset (§6.3).
        let current = file.offset.get();
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
        if target == current {
            return Ok(target);
        }
        // Pessimistic stage: perform the update.
        file.offset.set(target);
        Ok(target)
    }

    fn close(&self, _core: CoreId, pid: Pid, fd: Fd) -> KResult<()> {
        let proc_ = self.proc(pid)?;
        let slot = proc_.fd_slots.get(fd as usize).ok_or(Errno::EBADF)?;
        let file = slot.get().ok_or(Errno::EBADF)?;
        slot.set(None);
        adjust_pipe_endpoint(&file, -1);
        Ok(())
    }

    fn pipe(&self, core: CoreId, pid: Pid) -> KResult<(Fd, Fd)> {
        let proc_ = self.proc(pid)?;
        let id = self.machine.access_count();
        let pipe = Rc::new(Pipe {
            buffer: self
                .machine
                .cell(format!("pipe[{pid}:{id}].buffer"), VecDeque::new()),
            readers: self.machine.cell(format!("pipe[{pid}:{id}].readers"), 1i64),
            writers: self.machine.cell(format!("pipe[{pid}:{id}].writers"), 1i64),
        });
        let read_end = Rc::new(OpenFile {
            obj: FileObj::PipeRead(Rc::clone(&pipe)),
            offset: self.machine.cell(format!("pipe[{pid}:{id}].roff"), 0u64),
        });
        let write_end = Rc::new(OpenFile {
            obj: FileObj::PipeWrite(pipe),
            offset: self.machine.cell(format!("pipe[{pid}:{id}].woff"), 0u64),
        });
        let rfd = self.alloc_fd(core, &proc_, read_end, false)?;
        let wfd = self.alloc_fd(core, &proc_, write_end, false)?;
        Ok((rfd, wfd))
    }

    fn read(&self, core: CoreId, pid: Pid, fd: Fd, len: u64) -> KResult<Vec<u8>> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(&proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => {
                let offset = file.offset.get();
                let data = self.file_read_at(inode, offset, len);
                if !data.is_empty() {
                    file.offset.set(offset + data.len() as u64);
                }
                Ok(data)
            }
            FileObj::PipeRead(pipe) => {
                let data = pipe.buffer.update(|buf| {
                    let take = (len as usize).min(buf.len());
                    buf.drain(..take).collect::<Vec<u8>>()
                });
                if data.is_empty() {
                    // Empty pipe: if no writers remain, EOF (empty read);
                    // otherwise the caller would block — report EAGAIN.
                    if pipe.writers.get() > 0 {
                        return Err(Errno::EAGAIN);
                    }
                    return Ok(Vec::new());
                }
                Ok(data)
            }
            FileObj::PipeWrite(_) => Err(Errno::EBADF),
        }
        .inspect(|_data| {
            let _ = core;
        })
    }

    fn write(&self, _core: CoreId, pid: Pid, fd: Fd, data: &[u8]) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(&proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => {
                let offset = file.offset.get();
                let written = self.file_write_at(inode, offset, data);
                file.offset.set(offset + written);
                Ok(written)
            }
            FileObj::PipeWrite(pipe) => {
                // SIGPIPE check: a write to a pipe with no readers fails
                // immediately, which requires reading the shared reader
                // count.
                if pipe.readers.get() == 0 {
                    return Err(Errno::EPIPE);
                }
                pipe.buffer.update(|buf| buf.extend(data.iter().copied()));
                Ok(data.len() as u64)
            }
            FileObj::PipeRead(_) => Err(Errno::EBADF),
        }
    }

    fn pread(&self, _core: CoreId, pid: Pid, fd: Fd, len: u64, offset: u64) -> KResult<Vec<u8>> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(&proc_, fd)?;
        match &file.obj {
            FileObj::File(inode) => Ok(self.file_read_at(inode, offset, len)),
            _ => Err(Errno::ESPIPE),
        }
    }

    fn pwrite(&self, _core: CoreId, pid: Pid, fd: Fd, data: &[u8], offset: u64) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        let file = self.open_file(&proc_, fd)?;
        match &file.obj {
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
        let base_vpn = match addr_hint {
            Some(addr) => Self::vpn_of(addr)?,
            None => {
                // Per-core region allocation: no shared allocation state.
                let cell = &proc_.next_vpn[core % self.cores];
                cell.fetch_update(|v| v + pages) - pages
            }
        };
        let file_ino = match backing {
            MmapBacking::Anon => None,
            MmapBacking::File(fd) => {
                let file = self.open_file(&proc_, fd)?;
                match &file.obj {
                    FileObj::File(inode) => Some(inode.ino),
                    _ => return Err(Errno::EBADF),
                }
            }
        };
        for i in 0..pages {
            let vpn = base_vpn + i;
            let backing = match file_ino {
                None => {
                    PageBacking::Anon(self.machine.cell(format!("proc[{pid}].page[{vpn}]"), 0u8))
                }
                Some(ino) => PageBacking::File { ino, file_page: i },
            };
            proc_
                .vm_pages
                .set(vpn as usize, MappedPage { prot, backing });
        }
        Ok(base_vpn * PAGE_SIZE)
    }

    fn munmap(&self, _core: CoreId, pid: Pid, addr: u64, pages: u64) -> KResult<()> {
        let proc_ = self.proc(pid)?;
        let base_vpn = Self::vpn_of(addr)?;
        for i in 0..pages {
            // RadixVM-style: touching only the slots being unmapped; TLB
            // shootdowns are targeted, so no global state is written.
            proc_.vm_pages.take((base_vpn + i) as usize);
        }
        Ok(())
    }

    fn mprotect(&self, _core: CoreId, pid: Pid, addr: u64, pages: u64, prot: Prot) -> KResult<()> {
        let proc_ = self.proc(pid)?;
        let base_vpn = Self::vpn_of(addr)?;
        for i in 0..pages {
            let vpn = (base_vpn + i) as usize;
            match proc_.vm_pages.get(vpn) {
                Some(mut page) => {
                    page.prot = prot;
                    proc_.vm_pages.set(vpn, page);
                }
                None => return Err(Errno::ENOMEM),
            }
        }
        Ok(())
    }

    fn memread(&self, _core: CoreId, pid: Pid, addr: u64) -> KResult<u8> {
        let proc_ = self.proc(pid)?;
        let vpn = addr / PAGE_SIZE;
        let in_page = addr % PAGE_SIZE;
        let page = proc_.vm_pages.get(vpn as usize).ok_or(Errno::EFAULT)?;
        if !page.prot.read {
            return Err(Errno::EFAULT);
        }
        match &page.backing {
            PageBacking::Anon(cell) => Ok(cell.get()),
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
        let page = proc_.vm_pages.get(vpn as usize).ok_or(Errno::EFAULT)?;
        if !page.prot.write {
            return Err(Errno::EFAULT);
        }
        match &page.backing {
            PageBacking::Anon(cell) => {
                cell.set(value);
                Ok(())
            }
            PageBacking::File { ino, file_page } => {
                let inode = self.inode(*ino).ok_or(Errno::EFAULT)?;
                self.file_write_at(&inode, file_page * PAGE_SIZE + in_page, &[value]);
                Ok(())
            }
        }
    }

    fn fork(&self, _core: CoreId, pid: Pid) -> KResult<Pid> {
        let parent = self.proc(pid)?;
        let child_pid = self.new_process();
        let child = self.proc(child_pid)?;
        // fork snapshots the whole descriptor table: it must read every
        // parent slot, which is what makes it commute with almost nothing.
        for (fd, slot) in parent.fd_slots.iter().enumerate() {
            if let Some(file) = slot.get() {
                // A duplicated descriptor is a second reference to a pipe
                // endpoint; the endpoint count must grow with it, or the
                // child's exit (wait/close) would strand the parent's
                // still-open end behind a spurious EPIPE/EOF.
                adjust_pipe_endpoint(&file, 1);
                child.fd_slots[fd].set(Some(file));
            }
        }
        Ok(child_pid)
    }

    fn posix_spawn(&self, _core: CoreId, pid: Pid, dup_fds: &[Fd]) -> KResult<Pid> {
        let parent = self.proc(pid)?;
        // Resolve the whole dup list first: a bad descriptor fails the
        // spawn before any endpoint reference is taken or a child process
        // exists, so a failed spawn leaves no trace to unwind.
        let mut files = dup_fds
            .iter()
            .map(|&fd| Ok((fd, self.open_file(&parent, fd)?)))
            .collect::<KResult<Vec<_>>>()?;
        // A repeated fd collapses into one child slot, so it must take
        // exactly one endpoint reference (the resolve above still reads
        // the slot once per list entry, as the dup-action list would).
        let mut seen = std::collections::BTreeSet::new();
        files.retain(|(fd, _)| seen.insert(*fd));
        let child_pid = self.new_process();
        let child = self.proc(child_pid)?;
        // posix_spawn builds the child image directly: only the explicitly
        // listed descriptors are touched.
        for (fd, file) in files {
            adjust_pipe_endpoint(&file, 1);
            child.fd_slots[fd as usize].set(Some(file));
        }
        Ok(child_pid)
    }

    fn wait(&self, _core: CoreId, _pid: Pid, child: Pid) -> KResult<()> {
        // Reaping stays O(open descriptors), not O(table size): the
        // exiting child's open-descriptor list is process-private state (a
        // real exit path walks its own fd list), so empty slots are
        // skipped without touching their lines. Each occupied slot is
        // read and emptied, releasing pipe endpoints exactly as close
        // does.
        let proc_ = self.proc(child)?;
        for slot in &proc_.fd_slots {
            if slot.peek(|s| s.is_none()) {
                continue;
            }
            let Some(file) = slot.get() else { continue };
            slot.set(None);
            adjust_pipe_endpoint(&file, -1);
        }
        Ok(())
    }

    fn socket(&self, _core: CoreId, order: SocketOrder) -> KResult<SockId> {
        Ok(self.sockets.create(order))
    }

    fn send(&self, core: CoreId, sock: SockId, msg: &[u8]) -> KResult<()> {
        Ok(self.sockets.send(core, sock, msg)?)
    }

    fn recv(&self, core: CoreId, sock: SockId) -> KResult<Vec<u8>> {
        Ok(self.sockets.recv(core, sock)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::perform;
    use crate::api::SysOp;

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
    fn create_write_read_roundtrip() {
        let (k, pid) = kernel_with_proc();
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

    #[test]
    fn open_excl_fails_on_existing_file() {
        let (k, pid) = kernel_with_proc();
        k.open(0, pid, "f", OpenFlags::create()).unwrap();
        assert_eq!(
            k.open(0, pid, "f", OpenFlags::create_excl()),
            Err(Errno::EEXIST)
        );
    }

    #[test]
    fn link_unlink_update_link_count() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "a", OpenFlags::create()).unwrap();
        k.link(1, pid, "a", "b").unwrap();
        assert_eq!(k.stat(0, pid, "a").unwrap().nlink, 2);
        k.unlink(2, pid, "a").unwrap();
        assert_eq!(k.stat(0, pid, "b").unwrap().nlink, 1);
        assert_eq!(k.stat(0, pid, "a"), Err(Errno::ENOENT));
        k.close(0, pid, fd).unwrap();
    }

    #[test]
    fn rename_moves_and_replaces() {
        let (k, pid) = kernel_with_proc();
        k.open(0, pid, "src", OpenFlags::create()).unwrap();
        k.open(0, pid, "dst", OpenFlags::create()).unwrap();
        let src_ino = k.stat(0, pid, "src").unwrap().ino;
        k.rename(0, pid, "src", "dst").unwrap();
        assert_eq!(k.stat(0, pid, "dst").unwrap().ino, src_ino);
        assert_eq!(k.stat(0, pid, "src"), Err(Errno::ENOENT));
        assert_eq!(k.rename(0, pid, "missing", "x"), Err(Errno::ENOENT));
    }

    #[test]
    fn rename_to_hard_link_of_same_inode_only_removes_source() {
        let (k, pid) = kernel_with_proc();
        k.open(0, pid, "a", OpenFlags::create()).unwrap();
        k.link(0, pid, "a", "b").unwrap();
        k.rename(0, pid, "a", "b").unwrap();
        assert_eq!(k.stat(0, pid, "a"), Err(Errno::ENOENT));
        assert_eq!(k.stat(0, pid, "b").unwrap().nlink, 1);
    }

    #[test]
    fn unlinked_inode_is_reclaimed_by_epoch() {
        let (k, pid) = kernel_with_proc();
        k.open(0, pid, "victim", OpenFlags::create()).unwrap();
        let ino = k.stat(0, pid, "victim").unwrap().ino;
        k.unlink(0, pid, "victim").unwrap();
        assert!(k.inode(ino).is_some(), "reclamation must be deferred");
        k.reclaim_epoch();
        assert!(k.inode(ino).is_none(), "epoch pass must reclaim the inode");
    }

    #[test]
    fn pread_pwrite_do_not_move_offset() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"xyz", PAGE_SIZE).unwrap();
        assert_eq!(k.lseek(0, pid, fd, 0, Whence::Cur).unwrap(), 0);
        assert_eq!(k.pread(0, pid, fd, 3, PAGE_SIZE).unwrap(), b"xyz");
        let st = k.fstat(0, pid, fd).unwrap();
        assert_eq!(st.size, 2 * PAGE_SIZE);
    }

    #[test]
    fn lseek_end_and_invalid() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"data", 0).unwrap();
        assert_eq!(k.lseek(0, pid, fd, 0, Whence::End).unwrap(), PAGE_SIZE);
        assert_eq!(k.lseek(0, pid, fd, -1, Whence::Set), Err(Errno::EINVAL));
    }

    #[test]
    fn pipe_write_then_read() {
        let (k, pid) = kernel_with_proc();
        let (r, w) = k.pipe(0, pid).unwrap();
        assert_eq!(k.write(0, pid, w, b"ping").unwrap(), 4);
        assert_eq!(k.read(0, pid, r, 4).unwrap(), b"ping");
        assert_eq!(k.read(0, pid, r, 1), Err(Errno::EAGAIN));
        // Closing the read end makes writes fail with EPIPE.
        k.close(0, pid, r).unwrap();
        assert_eq!(k.write(0, pid, w, b"x"), Err(Errno::EPIPE));
        // Closing the write end makes reads return EOF.
        let (r2, w2) = k.pipe(0, pid).unwrap();
        k.close(0, pid, w2).unwrap();
        assert_eq!(k.read(0, pid, r2, 4).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn anyfd_open_uses_per_core_partition() {
        let (k, pid) = kernel_with_proc();
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
    fn mmap_memrw_munmap_roundtrip() {
        let (k, pid) = kernel_with_proc();
        let addr = k
            .mmap(0, pid, None, 2, Prot::rw(), MmapBacking::Anon)
            .unwrap();
        k.memwrite(0, pid, addr, 7).unwrap();
        assert_eq!(k.memread(0, pid, addr).unwrap(), 7);
        assert_eq!(k.memread(0, pid, addr + PAGE_SIZE).unwrap(), 0);
        k.munmap(0, pid, addr, 2).unwrap();
        assert_eq!(k.memread(0, pid, addr), Err(Errno::EFAULT));
    }

    #[test]
    fn mprotect_blocks_writes() {
        let (k, pid) = kernel_with_proc();
        let addr = k
            .mmap(
                0,
                pid,
                Some(16 * PAGE_SIZE),
                1,
                Prot::rw(),
                MmapBacking::Anon,
            )
            .unwrap();
        assert_eq!(addr, 16 * PAGE_SIZE);
        k.mprotect(0, pid, addr, 1, Prot::ro()).unwrap();
        assert_eq!(k.memwrite(0, pid, addr, 1), Err(Errno::EFAULT));
        assert_eq!(k.memread(0, pid, addr).unwrap(), 0);
    }

    #[test]
    fn file_backed_mapping_reads_file_pages() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "data", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"Z", 0).unwrap();
        let addr = k
            .mmap(0, pid, None, 1, Prot::rw(), MmapBacking::File(fd))
            .unwrap();
        assert_eq!(k.memread(0, pid, addr).unwrap(), b'Z');
        k.memwrite(0, pid, addr, b'Q').unwrap();
        assert_eq!(k.pread(0, pid, fd, 1, 0).unwrap(), b"Q");
    }

    #[test]
    fn fork_copies_descriptors_spawn_does_not() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let child = k.fork(0, pid).unwrap();
        assert!(k.fstat(0, child, fd).is_ok());
        let spawned = k.posix_spawn(0, pid, &[]).unwrap();
        assert_eq!(k.fstat(0, spawned, fd), Err(Errno::EBADF));
        let spawned2 = k.posix_spawn(0, pid, &[fd]).unwrap();
        assert!(k.fstat(0, spawned2, fd).is_ok());
    }

    // --- conflict-freedom checks for commutative pairs -------------------

    #[test]
    fn creating_different_files_is_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let pid2 = k.new_process();
        let names = distinct_names(&k, 2);
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.open(0, pid, &names[0], OpenFlags::create()).unwrap();
        });
        m.on_core(1, || {
            k.open(1, pid2, &names[1], OpenFlags::create()).unwrap();
        });
        let report = m.conflict_report();
        assert!(report.is_conflict_free(), "got conflicts: {report}");
    }

    #[test]
    fn two_fstats_on_same_fd_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.fstat(0, pid, fd).unwrap();
        });
        m.on_core(1, || {
            k.fstat(1, pid, fd).unwrap();
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn fstatx_without_nlink_is_conflict_free_with_link() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.fstatx(0, pid, fd, StatMask::all_but_nlink()).unwrap();
        });
        m.on_core(1, || {
            k.link(1, pid, "f", "f-link").unwrap();
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn fstat_with_nlink_conflicts_with_link() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.fstat(0, pid, fd).unwrap();
        });
        m.on_core(1, || {
            k.link(1, pid, "f", "f-link").unwrap();
        });
        // fstat returns st_nlink, so it does not commute with link and the
        // implementation is allowed (expected) to conflict.
        assert!(!m.conflict_report().is_conflict_free());
    }

    #[test]
    fn link_and_unlink_of_different_names_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let names = distinct_names(&k, 3);
        let (base, gone, extra) = (&names[0], &names[1], &names[2]);
        k.open(0, pid, base, OpenFlags::create()).unwrap();
        k.link(0, pid, base, gone).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.link(0, pid, base, extra).unwrap();
        });
        m.on_core(1, || {
            k.unlink(1, pid, gone).unwrap();
        });
        let report = m.conflict_report();
        assert!(report.is_conflict_free(), "got conflicts: {report}");
    }

    #[test]
    fn mmaps_in_different_processes_are_conflict_free() {
        let k = Sv6Kernel::new(4);
        let p1 = k.new_process();
        let p2 = k.new_process();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.mmap(0, p1, None, 4, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        m.on_core(1, || {
            k.mmap(1, p2, None, 4, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn disjoint_mmaps_in_same_process_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.mmap(0, pid, None, 2, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        m.on_core(1, || {
            k.mmap(1, pid, None, 2, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn identical_fixed_mmaps_conflict_as_documented() {
        // §6.4: idempotent updates (two mmaps at the same fixed address) are
        // deliberately left non-scalable.
        let (k, pid) = kernel_with_proc();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.mmap(
                0,
                pid,
                Some(32 * PAGE_SIZE),
                1,
                Prot::rw(),
                MmapBacking::Anon,
            )
            .unwrap();
        });
        m.on_core(1, || {
            k.mmap(
                1,
                pid,
                Some(32 * PAGE_SIZE),
                1,
                Prot::rw(),
                MmapBacking::Anon,
            )
            .unwrap();
        });
        assert!(!m.conflict_report().is_conflict_free());
    }

    #[test]
    fn memwrites_to_different_pages_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let addr = k
            .mmap(0, pid, None, 2, Prot::rw(), MmapBacking::Anon)
            .unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.memwrite(0, pid, addr, 1).unwrap();
        });
        m.on_core(1, || {
            k.memwrite(1, pid, addr + PAGE_SIZE, 2).unwrap();
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn pwrites_to_different_pages_are_conflict_free() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "big", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"a", 0).unwrap();
        k.pwrite(0, pid, fd, b"b", PAGE_SIZE).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.pwrite(0, pid, fd, b"X", 0).unwrap();
        });
        m.on_core(1, || {
            k.pwrite(1, pid, fd, b"Y", PAGE_SIZE).unwrap();
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn pipe_closes_conflict_as_documented() {
        // §6.4: pipe endpoint reference counts are shared.
        let (k, pid) = kernel_with_proc();
        let (r1, _w1) = k.pipe(0, pid).unwrap();
        let (_r2, w2) = k.pipe(0, pid).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.close(0, pid, r1).unwrap();
        });
        m.on_core(1, || {
            k.close(1, pid, w2).unwrap();
        });
        // Different pipes: conflict-free (separate counters). Same pipe
        // would conflict; exercise that too.
        assert!(m.conflict_report().is_conflict_free());
        let (r3, w3) = k.pipe(0, pid).unwrap();
        let mark = m.access_count();
        m.on_core(0, || {
            k.close(0, pid, r3).unwrap();
        });
        m.on_core(1, || {
            k.close(1, pid, w3).unwrap();
        });
        // Closing both ends of the same pipe touches the same endpoint
        // counters' lines? (They are separate cells, so this stays free;
        // the conflicting case is two closes of the same end via dup'd fds,
        // which fork can produce.)
        let _ = m.conflict_report_since(mark);
    }

    #[test]
    fn perform_drives_the_kernel_via_sysops() {
        let (k, pid) = kernel_with_proc();
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
        let res = perform(
            &k,
            0,
            &SysOp::StatPath {
                pid,
                name: "via-sysop".into(),
            },
        );
        match res {
            crate::api::SysResult::Meta(st) => assert_eq!(st.nlink, 1),
            other => panic!("unexpected result {other:?}"),
        }
    }
}
