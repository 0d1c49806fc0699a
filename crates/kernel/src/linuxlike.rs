//! The Linux-like baseline kernel.
//!
//! This implementation deliberately reproduces the sharing structure §6.2
//! identifies as the sources of conflicts in Linux 3.8's ramfs and virtual
//! memory system:
//!
//! * **dentry reference counts** — every successful name lookup bumps (and
//!   then drops) the target dentry's reference count, so any two path
//!   operations on the same name conflict even when they commute.
//! * **`struct file` reference counts** — every descriptor operation does an
//!   `fget`/`fput` pair on the open file's shared count, so two `fstat`s of
//!   the same descriptor conflict.
//! * **parent directory lock** — any operation that creates or removes a
//!   name takes the parent directory's mutex, so creating *different* files
//!   in one directory conflicts.
//! * **lowest-FD allocation** under a process-wide descriptor-table lock.
//! * **a global inode number counter** shared by all creations.
//! * **`mmap_sem`** — address-space changes serialise on one per-process
//!   lock and rewrite a single VMA-table cell, so `mmap`/`munmap`/`mprotect`
//!   conflict with each other and with page faults walking the table.
//!
//! Everything else (page-granular file contents, per-page anonymous memory)
//! uses per-page storage, because Linux's page cache does scale for accesses
//! to different pages — the point of Figure 6-left is that Linux already
//! scales for many commutative cases, just not for all of them.

use crate::api::{
    Errno, Fd, Ino, KResult, KernelApi, MmapBacking, OpenFlags, Pid, Prot, SockId, SocketOrder,
    Stat, StatMask, SyscallApi, Whence, PAGE_SIZE,
};
use scr_mtrace::{CoreId, SimMachine, TracedCell};
use scr_scalable::{LockWord, RadixArray, SocketTable};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

/// Maximum descriptors per process.
const FD_TABLE_SIZE: usize = 64;

/// A directory entry cache entry: the name's inode and its reference count.
struct Dentry {
    refcount: TracedCell<i64>,
    ino: TracedCell<Option<Ino>>,
}

/// An in-memory inode with conventional (non-scalable) metadata.
struct Inode {
    ino: Ino,
    /// Plain shared link count.
    nlink: TracedCell<i64>,
    /// Plain shared size (bytes).
    size: TracedCell<u64>,
    /// Inode mutex guarding metadata updates.
    lock: LockWord<SimMachine>,
    /// Page contents (the buffer cache does scale per page).
    pages: RadixArray<Vec<u8>, SimMachine>,
}

struct Pipe {
    buffer: TracedCell<VecDeque<u8>>,
    readers: TracedCell<i64>,
    writers: TracedCell<i64>,
}

#[derive(Clone)]
enum FileObj {
    File(Rc<Inode>),
    PipeRead(Rc<Pipe>),
    PipeWrite(Rc<Pipe>),
}

/// An open file description with the shared `f_count`.
struct OpenFile {
    obj: FileObj,
    offset: TracedCell<u64>,
    refcount: TracedCell<i64>,
}

/// One page of a mapping.
#[derive(Clone)]
enum PageBacking {
    Anon(TracedCell<u8>),
    File { ino: Ino, file_page: u64 },
}

/// A VMA-table entry (per page, stored in one shared table cell).
#[derive(Clone)]
struct MappedPage {
    prot: Prot,
    backing: PageBacking,
}

struct Process {
    /// The descriptor table: a single cell, guarded by `files_lock`.
    fd_table: TracedCell<Vec<Option<Rc<OpenFile>>>>,
    files_lock: LockWord<SimMachine>,
    /// The VMA table: one cell mapping virtual page number → mapping.
    vma_table: TracedCell<BTreeMap<u64, MappedPage>>,
    mmap_sem: LockWord<SimMachine>,
    /// Shared bump allocator for hint-less mmap placement.
    next_vpn: TracedCell<u64>,
}

/// The Linux-like baseline kernel.
pub struct LinuxLikeKernel {
    machine: SimMachine,
    /// Root directory: entries map plus the parent-directory mutex.
    root_entries: TracedCell<BTreeMap<String, Ino>>,
    root_lock: LockWord<SimMachine>,
    dentries: Rc<RefCell<HashMap<String, Rc<Dentry>>>>,
    inodes: Rc<RefCell<HashMap<Ino, Rc<Inode>>>>,
    next_ino: TracedCell<u64>,
    procs: Rc<RefCell<Vec<Rc<Process>>>>,
    sockets: SocketTable<SimMachine>,
}

impl LinuxLikeKernel {
    /// Builds a baseline kernel on a fresh simulated machine.
    pub fn new(cores: usize) -> Self {
        let machine = SimMachine::new();
        Self::on_machine(&machine, cores)
    }

    /// Builds a baseline kernel on an existing machine.
    pub fn on_machine(machine: &SimMachine, cores: usize) -> Self {
        LinuxLikeKernel {
            machine: machine.clone(),
            root_entries: machine.cell("root.entries", BTreeMap::new()),
            root_lock: LockWord::new(Some(machine), "root.i_mutex"),
            dentries: Rc::new(RefCell::new(HashMap::new())),
            inodes: Rc::new(RefCell::new(HashMap::new())),
            next_ino: machine.cell("sb.next_ino", 1u64),
            procs: Rc::new(RefCell::new(Vec::new())),
            sockets: SocketTable::new(Some(machine), cores),
        }
    }

    fn proc(&self, pid: Pid) -> KResult<Rc<Process>> {
        self.procs.borrow().get(pid).cloned().ok_or(Errno::EINVAL)
    }

    fn inode(&self, ino: Ino) -> Option<Rc<Inode>> {
        self.inodes.borrow().get(&ino).cloned()
    }

    fn dentry(&self, name: &str) -> Rc<Dentry> {
        let mut dentries = self.dentries.borrow_mut();
        if let Some(d) = dentries.get(name) {
            return Rc::clone(d);
        }
        let d = Rc::new(Dentry {
            refcount: self.machine.cell(format!("dentry[{name}].d_count"), 0i64),
            ino: self.machine.cell(format!("dentry[{name}].d_inode"), None),
        });
        dentries.insert(name.to_string(), Rc::clone(&d));
        d
    }

    /// Path lookup with dcache semantics: bump and drop the dentry reference
    /// count (a write), then read the cached inode pointer. A negative or
    /// missing dentry falls back to the directory entries map.
    fn lookup(&self, name: &str) -> Option<Ino> {
        let dentry = self.dentry(name);
        dentry.refcount.update(|c| *c += 1);
        let cached = dentry.ino.get();
        dentry.refcount.update(|c| *c -= 1);
        match cached {
            Some(ino) => Some(ino),
            None => {
                let ino = self.root_entries.with(|m| m.get(name).copied());
                if let Some(ino) = ino {
                    dentry.ino.set(Some(ino));
                }
                ino
            }
        }
    }

    fn new_inode(&self) -> Rc<Inode> {
        // Global inode number allocation: a shared counter.
        let ino = self.next_ino.fetch_update(|v| v + 1);
        let inode = Rc::new(Inode {
            ino,
            nlink: self.machine.cell(format!("inode[{ino}].i_nlink"), 0i64),
            size: self.machine.cell(format!("inode[{ino}].i_size"), 0u64),
            lock: LockWord::new(Some(&self.machine), format_args!("inode[{ino}].i_mutex")),
            pages: RadixArray::new(Some(&self.machine), format_args!("inode[{ino}].pagecache")),
        });
        self.inodes.borrow_mut().insert(ino, Rc::clone(&inode));
        inode
    }

    /// `fget`: look up the descriptor and bump the open file's reference
    /// count.
    fn fget(&self, proc_: &Process, fd: Fd) -> KResult<Rc<OpenFile>> {
        let file = proc_
            .fd_table
            .with(|table| table.get(fd as usize).cloned().flatten())
            .ok_or(Errno::EBADF)?;
        file.refcount.update(|c| *c += 1);
        Ok(file)
    }

    /// `fput`: drop the reference taken by [`Self::fget`].
    fn fput(&self, file: &OpenFile) {
        file.refcount.update(|c| *c -= 1);
    }

    fn install_fd(&self, proc_: &Process, file: Rc<OpenFile>) -> KResult<Fd> {
        // Lowest available descriptor under the process-wide table lock.
        proc_.files_lock.with(|| {
            proc_.fd_table.update(|table| {
                let slot = table
                    .iter()
                    .position(|f| f.is_none())
                    .ok_or(Errno::EMFILE)?;
                table[slot] = Some(file.clone());
                Ok(slot as Fd)
            })
        })
    }

    fn file_stat(&self, inode: &Inode) -> Stat {
        Stat {
            ino: inode.ino,
            size: inode.size.get(),
            nlink: inode.nlink.get(),
            is_pipe: false,
        }
    }

    fn file_read_at(&self, inode: &Inode, offset: u64, len: u64) -> Vec<u8> {
        let size = inode.size.get();
        if offset >= size || len == 0 {
            return Vec::new();
        }
        let len = len.min(size - offset);
        let mut out = Vec::new();
        let first_page = offset / PAGE_SIZE;
        let last_page = (offset + len - 1) / PAGE_SIZE;
        for page in first_page..=last_page {
            let data = inode.pages.get(page as usize).unwrap_or_default();
            let page_start = page * PAGE_SIZE;
            let begin = (offset.max(page_start) - page_start) as usize;
            let end = (((offset + len).min(page_start + PAGE_SIZE)) - page_start) as usize;
            let end = end.min(data.len().max(begin));
            if begin < data.len() {
                out.extend_from_slice(&data[begin..end.min(data.len())]);
            } else {
                out.extend(std::iter::repeat_n(0, end - begin));
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
        // i_size update under the inode mutex (the conventional protocol).
        let end = offset + written;
        inode.lock.with(|| {
            if inode.size.get() < end {
                inode.size.set(end);
            }
        });
        written
    }
}

/// Adjusts a descriptor's pipe-endpoint count: duplication (fork's
/// snapshot) takes a reference (`+1`); close, exec-close and wait drop
/// one (`-1`). The per-file `f_count` is handled separately by callers.
fn adjust_pipe_endpoint(file: &OpenFile, delta: i64) {
    match &file.obj {
        FileObj::File(_) => {}
        FileObj::PipeRead(pipe) => {
            pipe.readers.update(|r| *r += delta);
        }
        FileObj::PipeWrite(pipe) => {
            pipe.writers.update(|w| *w += delta);
        }
    }
}

impl KernelApi for LinuxLikeKernel {
    fn machine(&self) -> &SimMachine {
        &self.machine
    }
}

impl SyscallApi for LinuxLikeKernel {
    fn new_process(&self) -> Pid {
        let pid = self.procs.borrow().len();
        let proc_ = Rc::new(Process {
            fd_table: self.machine.cell(
                format!("proc[{pid}].files.fd_array"),
                vec![None; FD_TABLE_SIZE],
            ),
            files_lock: LockWord::new(
                Some(&self.machine),
                format_args!("proc[{pid}].files.file_lock"),
            ),
            vma_table: self
                .machine
                .cell(format!("proc[{pid}].mm.vma_table"), BTreeMap::new()),
            mmap_sem: LockWord::new(Some(&self.machine), format_args!("proc[{pid}].mm.mmap_sem")),
            next_vpn: self.machine.cell(format!("proc[{pid}].mm.next_vpn"), 1u64),
        });
        self.procs.borrow_mut().push(proc_);
        pid
    }

    fn open(&self, _core: CoreId, pid: Pid, name: &str, flags: OpenFlags) -> KResult<Fd> {
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
                // Creation takes the parent directory lock and writes the
                // shared entries map and the global inode counter.
                self.root_lock.with(|| {
                    let existing = self.root_entries.with(|m| m.get(name).copied());
                    match existing {
                        Some(ino) => {
                            if flags.excl {
                                Err(Errno::EEXIST)
                            } else {
                                Ok(ino)
                            }
                        }
                        None => {
                            let inode = self.new_inode();
                            inode.nlink.update(|n| *n += 1);
                            self.root_entries
                                .update(|m| m.insert(name.to_string(), inode.ino));
                            self.dentry(name).ino.set(Some(inode.ino));
                            Ok(inode.ino)
                        }
                    }
                })?
            }
        };
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        if flags.truncate {
            inode.lock.with(|| {
                inode.size.set(0);
                inode.pages.clear();
            });
        }
        let file = Rc::new(OpenFile {
            obj: FileObj::File(inode),
            offset: self
                .machine
                .cell(format!("proc[{pid}].file[{name}].f_pos"), 0u64),
            refcount: self
                .machine
                .cell(format!("proc[{pid}].file[{name}].f_count"), 1i64),
        });
        self.install_fd(&proc_, file)
    }

    fn link(&self, _core: CoreId, pid: Pid, old: &str, new: &str) -> KResult<()> {
        let _ = self.proc(pid)?;
        let ino = self.lookup(old).ok_or(Errno::ENOENT)?;
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        self.root_lock.with(|| {
            if self.root_entries.with(|m| m.contains_key(new)) {
                return Err(Errno::EEXIST);
            }
            self.root_entries.update(|m| m.insert(new.to_string(), ino));
            self.dentry(new).ino.set(Some(ino));
            inode.nlink.update(|n| *n += 1);
            Ok(())
        })
    }

    fn unlink(&self, _core: CoreId, pid: Pid, name: &str) -> KResult<()> {
        let _ = self.proc(pid)?;
        // The lookup bumps the dentry refcount even when we are about to
        // remove the name.
        let ino = self.lookup(name).ok_or(Errno::ENOENT)?;
        self.root_lock.with(|| {
            self.root_entries.update(|m| m.remove(name));
            self.dentry(name).ino.set(None);
            if let Some(inode) = self.inode(ino) {
                inode.nlink.update(|n| *n -= 1);
                if inode.nlink.with(|n| *n) <= 0 {
                    self.inodes.borrow_mut().remove(&ino);
                }
            }
            Ok(())
        })
    }

    fn rename(&self, _core: CoreId, pid: Pid, src: &str, dst: &str) -> KResult<()> {
        let _ = self.proc(pid)?;
        let src_ino = self.lookup(src).ok_or(Errno::ENOENT)?;
        if src == dst {
            return Ok(());
        }
        self.root_lock.with(|| {
            let displaced = self.root_entries.with(|m| m.get(dst).copied());
            self.root_entries.update(|m| {
                m.remove(src);
                m.insert(dst.to_string(), src_ino);
            });
            self.dentry(src).ino.set(None);
            self.dentry(dst).ino.set(Some(src_ino));
            if let Some(old_ino) = displaced {
                if old_ino != src_ino {
                    if let Some(old) = self.inode(old_ino) {
                        old.nlink.update(|n| *n -= 1);
                        if old.nlink.with(|n| *n) <= 0 {
                            self.inodes.borrow_mut().remove(&old_ino);
                        }
                    }
                } else {
                    // Renaming onto a hard link of the same inode: the name
                    // count drops by one.
                    if let Some(inode) = self.inode(src_ino) {
                        inode.nlink.update(|n| *n -= 1);
                    }
                }
            }
            Ok(())
        })
    }

    fn stat(&self, _core: CoreId, pid: Pid, name: &str) -> KResult<Stat> {
        let _ = self.proc(pid)?;
        let ino = self.lookup(name).ok_or(Errno::ENOENT)?;
        let inode = self.inode(ino).ok_or(Errno::ENOENT)?;
        Ok(self.file_stat(&inode))
    }

    fn fstat(&self, _core: CoreId, pid: Pid, fd: Fd) -> KResult<Stat> {
        let proc_ = self.proc(pid)?;
        let file = self.fget(&proc_, fd)?;
        let result = match &file.obj {
            FileObj::File(inode) => Ok(self.file_stat(inode)),
            FileObj::PipeRead(_) | FileObj::PipeWrite(_) => Ok(Stat {
                ino: 0,
                size: 0,
                nlink: 0,
                is_pipe: true,
            }),
        };
        self.fput(&file);
        result
    }

    fn fstatx(&self, core: CoreId, pid: Pid, fd: Fd, mask: StatMask) -> KResult<Stat> {
        // Linux has no field-selective stat: gather everything, then mask.
        let full = self.fstat(core, pid, fd)?;
        Ok(Stat {
            ino: if mask.want_ino { full.ino } else { 0 },
            size: if mask.want_size { full.size } else { 0 },
            nlink: if mask.want_nlink { full.nlink } else { 0 },
            is_pipe: full.is_pipe,
        })
    }

    fn lseek(&self, _core: CoreId, pid: Pid, fd: Fd, offset: i64, whence: Whence) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        let file = self.fget(&proc_, fd)?;
        let result = (|| {
            let inode = match &file.obj {
                FileObj::File(inode) => inode,
                _ => return Err(Errno::ESPIPE),
            };
            let base = match whence {
                Whence::Set => 0i64,
                Whence::Cur => file.offset.get() as i64,
                Whence::End => inode.size.get() as i64,
            };
            let target = base + offset;
            if target < 0 {
                return Err(Errno::EINVAL);
            }
            // Unconditional update of the shared file position.
            file.offset.set(target as u64);
            Ok(target as u64)
        })();
        self.fput(&file);
        result
    }

    fn close(&self, _core: CoreId, pid: Pid, fd: Fd) -> KResult<()> {
        let proc_ = self.proc(pid)?;
        let file = proc_.files_lock.with(|| {
            proc_.fd_table.update(|table| {
                table
                    .get_mut(fd as usize)
                    .and_then(|slot| slot.take())
                    .ok_or(Errno::EBADF)
            })
        })?;
        file.refcount.update(|c| *c -= 1);
        adjust_pipe_endpoint(&file, -1);
        Ok(())
    }

    fn pipe(&self, _core: CoreId, pid: Pid) -> KResult<(Fd, Fd)> {
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
            refcount: self.machine.cell(format!("pipe[{pid}:{id}].rcount"), 1i64),
        });
        let write_end = Rc::new(OpenFile {
            obj: FileObj::PipeWrite(pipe),
            offset: self.machine.cell(format!("pipe[{pid}:{id}].woff"), 0u64),
            refcount: self.machine.cell(format!("pipe[{pid}:{id}].wcount"), 1i64),
        });
        let rfd = self.install_fd(&proc_, read_end)?;
        let wfd = self.install_fd(&proc_, write_end)?;
        Ok((rfd, wfd))
    }

    fn read(&self, _core: CoreId, pid: Pid, fd: Fd, len: u64) -> KResult<Vec<u8>> {
        let proc_ = self.proc(pid)?;
        let file = self.fget(&proc_, fd)?;
        let result = (|| match &file.obj {
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
                    if pipe.writers.get() > 0 {
                        return Err(Errno::EAGAIN);
                    }
                    return Ok(Vec::new());
                }
                Ok(data)
            }
            FileObj::PipeWrite(_) => Err(Errno::EBADF),
        })();
        self.fput(&file);
        result
    }

    fn write(&self, _core: CoreId, pid: Pid, fd: Fd, data: &[u8]) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        let file = self.fget(&proc_, fd)?;
        let result = (|| match &file.obj {
            FileObj::File(inode) => {
                let offset = file.offset.get();
                let written = self.file_write_at(inode, offset, data);
                file.offset.set(offset + written);
                Ok(written)
            }
            FileObj::PipeWrite(pipe) => {
                if pipe.readers.get() == 0 {
                    return Err(Errno::EPIPE);
                }
                pipe.buffer.update(|buf| buf.extend(data.iter().copied()));
                Ok(data.len() as u64)
            }
            FileObj::PipeRead(_) => Err(Errno::EBADF),
        })();
        self.fput(&file);
        result
    }

    fn pread(&self, _core: CoreId, pid: Pid, fd: Fd, len: u64, offset: u64) -> KResult<Vec<u8>> {
        let proc_ = self.proc(pid)?;
        let file = self.fget(&proc_, fd)?;
        let result = match &file.obj {
            FileObj::File(inode) => Ok(self.file_read_at(inode, offset, len)),
            _ => Err(Errno::ESPIPE),
        };
        self.fput(&file);
        result
    }

    fn pwrite(&self, _core: CoreId, pid: Pid, fd: Fd, data: &[u8], offset: u64) -> KResult<u64> {
        let proc_ = self.proc(pid)?;
        let file = self.fget(&proc_, fd)?;
        let result = match &file.obj {
            FileObj::File(inode) => Ok(self.file_write_at(inode, offset, data)),
            _ => Err(Errno::ESPIPE),
        };
        self.fput(&file);
        result
    }

    fn mmap(
        &self,
        _core: CoreId,
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
        let file_ino = match backing {
            MmapBacking::Anon => None,
            MmapBacking::File(fd) => {
                let file = self.fget(&proc_, fd)?;
                let ino = match &file.obj {
                    FileObj::File(inode) => Some(inode.ino),
                    _ => None,
                };
                self.fput(&file);
                match ino {
                    Some(ino) => Some(ino),
                    None => return Err(Errno::EBADF),
                }
            }
        };
        // All address-space changes serialise on mmap_sem and rewrite the
        // shared VMA table.
        proc_.mmap_sem.with(|| {
            let base_vpn = match addr_hint {
                Some(addr) => {
                    if addr % PAGE_SIZE != 0 {
                        return Err(Errno::EINVAL);
                    }
                    addr / PAGE_SIZE
                }
                None => proc_.next_vpn.fetch_update(|v| v + pages) - pages,
            };
            proc_.vma_table.update(|table| {
                for i in 0..pages {
                    let vpn = base_vpn + i;
                    let backing = match file_ino {
                        None => PageBacking::Anon(
                            self.machine
                                .cell(format!("proc[{pid}].anon_page[{vpn}]"), 0u8),
                        ),
                        Some(ino) => PageBacking::File { ino, file_page: i },
                    };
                    table.insert(vpn, MappedPage { prot, backing });
                }
            });
            Ok(base_vpn * PAGE_SIZE)
        })
    }

    fn munmap(&self, _core: CoreId, pid: Pid, addr: u64, pages: u64) -> KResult<()> {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(Errno::EINVAL);
        }
        let proc_ = self.proc(pid)?;
        proc_.mmap_sem.with(|| {
            proc_.vma_table.update(|table| {
                for i in 0..pages {
                    table.remove(&(addr / PAGE_SIZE + i));
                }
            });
            Ok(())
        })
    }

    fn mprotect(&self, _core: CoreId, pid: Pid, addr: u64, pages: u64, prot: Prot) -> KResult<()> {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(Errno::EINVAL);
        }
        let proc_ = self.proc(pid)?;
        proc_.mmap_sem.with(|| {
            proc_.vma_table.update(|table| {
                for i in 0..pages {
                    match table.get_mut(&(addr / PAGE_SIZE + i)) {
                        Some(page) => page.prot = prot,
                        None => return Err(Errno::ENOMEM),
                    }
                }
                Ok(())
            })
        })
    }

    fn memread(&self, _core: CoreId, pid: Pid, addr: u64) -> KResult<u8> {
        let proc_ = self.proc(pid)?;
        let vpn = addr / PAGE_SIZE;
        let in_page = addr % PAGE_SIZE;
        // The page walk reads the shared VMA table (conflicting with any
        // concurrent address-space change).
        let page = proc_
            .vma_table
            .with(|table| table.get(&vpn).cloned())
            .ok_or(Errno::EFAULT)?;
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
        let page = proc_
            .vma_table
            .with(|table| table.get(&vpn).cloned())
            .ok_or(Errno::EFAULT)?;
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
        // Snapshot the descriptor table, bumping every open file's count —
        // and every duplicated pipe endpoint's count, so a child exit
        // cannot strand the parent's still-open end (EPIPE/EOF stay
        // exact).
        let files = parent.files_lock.with(|| parent.fd_table.get());
        for file in files.iter().flatten() {
            file.refcount.update(|c| *c += 1);
            adjust_pipe_endpoint(file, 1);
        }
        child.fd_table.set(files);
        Ok(child_pid)
    }

    fn posix_spawn(&self, _core: CoreId, pid: Pid, dup_fds: &[Fd]) -> KResult<Pid> {
        // Validate the dup list first (POSIX fails the spawn on a bad
        // file action), so both kernels agree that a failed spawn leaves
        // no child behind.
        let parent = self.proc(pid)?;
        let missing = parent.fd_table.with(|table| {
            dup_fds
                .iter()
                .any(|&fd| table.get(fd as usize).is_none_or(|slot| slot.is_none()))
        });
        if missing {
            return Err(Errno::EBADF);
        }
        // Linux implements posix_spawn in terms of fork/exec; model the cost
        // as a fork followed by closing everything not in `dup_fds` — with
        // close's full semantics, so the fork-taken references are dropped
        // again.
        let child_pid = self.fork(_core, pid)?;
        let child = self.proc(child_pid)?;
        let dropped = child.fd_table.update(|table| {
            let mut dropped = Vec::new();
            for (fd, slot) in table.iter_mut().enumerate() {
                if slot.is_some() && !dup_fds.contains(&(fd as Fd)) {
                    dropped.extend(slot.take());
                }
            }
            dropped
        });
        for file in dropped {
            file.refcount.update(|c| *c -= 1);
            adjust_pipe_endpoint(&file, -1);
        }
        Ok(child_pid)
    }

    fn wait(&self, _core: CoreId, _pid: Pid, child: Pid) -> KResult<()> {
        // Reap under the process-wide table lock, dropping each file's
        // f_count and pipe endpoint counts exactly as close does.
        let proc_ = self.proc(child)?;
        let files = proc_.files_lock.with(|| {
            proc_.fd_table.update(|table| {
                let taken: Vec<_> = table.iter_mut().filter_map(|slot| slot.take()).collect();
                taken
            })
        });
        for file in files {
            file.refcount.update(|c| *c -= 1);
            adjust_pipe_endpoint(&file, -1);
        }
        Ok(())
    }

    fn socket(&self, _core: CoreId, order: SocketOrder) -> KResult<SockId> {
        // The baseline always enforces datagram ordering (§4: "most systems
        // order all messages sent via a local Unix domain socket").
        let _ = order;
        Ok(self.sockets.create(SocketOrder::Ordered))
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

    fn kernel_with_proc() -> (LinuxLikeKernel, Pid) {
        let k = LinuxLikeKernel::new(4);
        let pid = k.new_process();
        (k, pid)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "hello", OpenFlags::create()).unwrap();
        assert_eq!(fd, 0, "lowest-FD rule");
        assert_eq!(k.write(0, pid, fd, b"hi").unwrap(), 2);
        assert_eq!(k.lseek(0, pid, fd, 0, Whence::Set).unwrap(), 0);
        assert_eq!(k.read(0, pid, fd, 2).unwrap(), b"hi");
        let st = k.fstat(0, pid, fd).unwrap();
        assert_eq!(st.nlink, 1);
        assert_eq!(st.size, 2);
        k.close(0, pid, fd).unwrap();
    }

    #[test]
    fn lowest_fd_is_reused_after_close() {
        let (k, pid) = kernel_with_proc();
        let a = k.open(0, pid, "a", OpenFlags::create()).unwrap();
        let b = k.open(0, pid, "b", OpenFlags::create()).unwrap();
        assert_eq!((a, b), (0, 1));
        k.close(0, pid, a).unwrap();
        let c = k.open(0, pid, "c", OpenFlags::create()).unwrap();
        assert_eq!(c, 0, "POSIX requires the lowest available descriptor");
    }

    #[test]
    fn link_unlink_rename_roundtrip() {
        let (k, pid) = kernel_with_proc();
        k.open(0, pid, "a", OpenFlags::create()).unwrap();
        k.link(0, pid, "a", "b").unwrap();
        assert_eq!(k.stat(0, pid, "a").unwrap().nlink, 2);
        assert_eq!(k.link(0, pid, "a", "b"), Err(Errno::EEXIST));
        k.rename(0, pid, "b", "c").unwrap();
        assert_eq!(k.stat(0, pid, "b"), Err(Errno::ENOENT));
        assert_eq!(k.stat(0, pid, "c").unwrap().nlink, 2);
        k.unlink(0, pid, "a").unwrap();
        k.unlink(0, pid, "c").unwrap();
        assert_eq!(k.stat(0, pid, "c"), Err(Errno::ENOENT));
    }

    #[test]
    fn mmap_memrw_roundtrip() {
        let (k, pid) = kernel_with_proc();
        let addr = k
            .mmap(0, pid, None, 2, Prot::rw(), MmapBacking::Anon)
            .unwrap();
        k.memwrite(0, pid, addr + PAGE_SIZE, 9).unwrap();
        assert_eq!(k.memread(0, pid, addr + PAGE_SIZE).unwrap(), 9);
        k.mprotect(0, pid, addr, 2, Prot::ro()).unwrap();
        assert_eq!(k.memwrite(0, pid, addr, 1), Err(Errno::EFAULT));
        k.munmap(0, pid, addr, 2).unwrap();
        assert_eq!(k.memread(0, pid, addr), Err(Errno::EFAULT));
    }

    #[test]
    fn pipe_roundtrip() {
        let (k, pid) = kernel_with_proc();
        let (r, w) = k.pipe(0, pid).unwrap();
        k.write(0, pid, w, b"msg").unwrap();
        assert_eq!(k.read(0, pid, r, 3).unwrap(), b"msg");
        k.close(0, pid, r).unwrap();
        assert_eq!(k.write(0, pid, w, b"x"), Err(Errno::EPIPE));
    }

    // --- the §6.2 conflict sources -----------------------------------------

    #[test]
    fn creating_different_files_conflicts_on_parent_lock() {
        let (k, pid) = kernel_with_proc();
        let pid2 = k.new_process();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.open(0, pid, "alpha", OpenFlags::create()).unwrap();
        });
        m.on_core(1, || {
            k.open(1, pid2, "beta", OpenFlags::create()).unwrap();
        });
        let report = m.conflict_report();
        assert!(!report.is_conflict_free());
        let labels = report.conflicting_labels().join(",");
        assert!(
            labels.contains("i_mutex") || labels.contains("next_ino") || labels.contains("entries"),
            "expected the parent lock / inode counter to conflict, got {labels}"
        );
    }

    #[test]
    fn two_fstats_on_same_fd_conflict_on_f_count() {
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
        let report = m.conflict_report();
        assert!(!report.is_conflict_free());
        assert!(report.conflicting_labels().join(",").contains("f_count"));
    }

    #[test]
    fn stats_of_same_name_conflict_on_dentry_refcount() {
        let (k, pid) = kernel_with_proc();
        k.open(0, pid, "shared", OpenFlags::create()).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.stat(0, pid, "shared").unwrap();
        });
        m.on_core(1, || {
            k.stat(1, pid, "shared").unwrap();
        });
        let report = m.conflict_report();
        assert!(!report.is_conflict_free());
        assert!(report.conflicting_labels().join(",").contains("d_count"));
    }

    #[test]
    fn stats_of_different_names_are_conflict_free() {
        // Linux does scale for many commutative cases (§6.2): operations on
        // different files that already exist are conflict-free here too.
        let (k, pid) = kernel_with_proc();
        k.open(0, pid, "one", OpenFlags::create()).unwrap();
        k.open(0, pid, "two", OpenFlags::create()).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.stat(0, pid, "one").unwrap();
        });
        m.on_core(1, || {
            k.stat(1, pid, "two").unwrap();
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn preads_of_different_pages_same_fd_conflict_on_f_count() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "data", OpenFlags::create()).unwrap();
        k.pwrite(0, pid, fd, b"a", 0).unwrap();
        k.pwrite(0, pid, fd, b"b", PAGE_SIZE).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.pread(0, pid, fd, 1, 0).unwrap();
        });
        m.on_core(1, || {
            k.pread(1, pid, fd, 1, PAGE_SIZE).unwrap();
        });
        assert!(!m.conflict_report().is_conflict_free());
    }

    #[test]
    fn mmap_conflicts_with_memread_in_same_process() {
        let (k, pid) = kernel_with_proc();
        let addr = k
            .mmap(0, pid, None, 1, Prot::rw(), MmapBacking::Anon)
            .unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.mmap(0, pid, None, 1, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        m.on_core(1, || {
            k.memread(1, pid, addr).unwrap();
        });
        let report = m.conflict_report();
        assert!(!report.is_conflict_free());
        let labels = report.conflicting_labels().join(",");
        assert!(labels.contains("vma_table") || labels.contains("mmap_sem"));
    }

    #[test]
    fn mmaps_in_different_processes_are_conflict_free() {
        let k = LinuxLikeKernel::new(4);
        let p1 = k.new_process();
        let p2 = k.new_process();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.mmap(0, p1, None, 1, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        m.on_core(1, || {
            k.mmap(1, p2, None, 1, Prot::rw(), MmapBacking::Anon)
                .unwrap();
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn fork_conflicts_with_descriptor_operations() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "f", OpenFlags::create()).unwrap();
        let m = k.machine().clone();
        m.start_tracing();
        m.on_core(0, || {
            k.fork(0, pid).unwrap();
        });
        m.on_core(1, || {
            k.fstat(1, pid, fd).unwrap();
        });
        assert!(!m.conflict_report().is_conflict_free());
    }

    #[test]
    fn posix_spawn_keeps_only_requested_fds() {
        let (k, pid) = kernel_with_proc();
        let fd = k.open(0, pid, "keep", OpenFlags::create()).unwrap();
        let fd2 = k.open(0, pid, "drop", OpenFlags::create()).unwrap();
        let child = k.posix_spawn(0, pid, &[fd]).unwrap();
        assert!(k.fstat(0, child, fd).is_ok());
        assert_eq!(k.fstat(0, child, fd2), Err(Errno::EBADF));
    }

    #[test]
    fn unlink_of_last_link_reclaims_inode() {
        let (k, pid) = kernel_with_proc();
        k.open(0, pid, "gone", OpenFlags::create()).unwrap();
        let ino = k.stat(0, pid, "gone").unwrap().ino;
        k.unlink(0, pid, "gone").unwrap();
        assert!(k.inode(ino).is_none());
    }
}
