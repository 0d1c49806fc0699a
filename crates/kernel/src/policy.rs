//! The two sharing policies of the one kernel body.
//!
//! [`crate::sv6::Sv6Kernel`] is written once. Which cache lines its calls
//! share is a [`Policy`], fixed when the kernel is built. Under
//! [`Policy::Sv6`] the body is ScaleFS plus a RadixVM-like address space
//! (§6.3). Under [`Policy::Linuxlike`] it also keeps the shared structures
//! through which Linux 3.8 makes commutative calls conflict (§6.2). Those
//! structures are this module's; the sv6 policy builds none of them.
//!
//! Each Linux structure is real: its locks really lock, on the simulator
//! and on real threads alike, and its lines record on the kernel's
//! substrate when it has one. The coarse locks — the directory's
//! `i_mutex`, a process's `file_lock` and its `mmap_sem` — are always taken
//! before any of the body's own locks, and a call holds at most one of them
//! at a time, so no two are ever ordered against each other.

use parking_lot::{Mutex, MutexGuard};
use scr_mtrace::{Block, Lines};
use scr_scalable::LockWord;
use std::collections::HashMap;

/// Which sharing a kernel is built with: the two columns of Figure 6.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Policy {
    /// sv6 (§6.3): per-bucket directory locks, Refcache link counts,
    /// per-core inode numbers and descriptor partitions, radix-array
    /// address spaces, optimistic `lseek`/`fstatx`/`O_TRUNC`.
    #[default]
    Sv6,
    /// The Linux-like baseline. On top of the body's own structures it
    /// keeps the sharing §6.2 identifies as the sources of conflicts in
    /// Linux 3.8's ramfs and virtual memory system:
    ///
    /// * **dentry reference counts** — every name lookup bumps and drops
    ///   the name's `d_count`, so any two path operations on one name
    ///   conflict even when they commute;
    /// * **`struct file` reference counts** — every descriptor operation
    ///   takes and drops the open file's `f_count`, so two `fstat`s of one
    ///   descriptor conflict;
    /// * **the parent directory's lock** — creating or removing any name
    ///   takes the directory's `i_mutex` and writes its entries, so
    ///   creating *different* files in one directory conflicts;
    /// * **lowest-FD allocation under `files.file_lock`**, with the whole
    ///   descriptor table on one line (`files.fd_array`) that every lookup
    ///   reads;
    /// * **one inode-number counter** shared by all creations, and one
    ///   shared link count per inode;
    /// * **`mmap_sem`** — address-space changes serialise on one
    ///   per-process lock and rewrite one `vma_table` line, which every
    ///   page access reads.
    ///
    /// Reads load the size, which Linux bounds them by. `lseek`, `fstatx`
    /// and `O_TRUNC` take no optimistic path (Linux has no field-selective
    /// stat), `posix_spawn` is a fork that closes what the child does not
    /// keep, and every socket is ordered (§4: "most systems order all
    /// messages sent via a local Unix domain socket").
    /// Everything else — page-granular file contents, per-page anonymous
    /// memory, the directory's hash buckets — is the body's, because
    /// Linux already scales for many commutative cases, just not all.
    Linuxlike,
}

impl Policy {
    /// Label used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Sv6 => "sv6-like (striped)",
            Policy::Linuxlike => "linux-like (shared)",
        }
    }

    /// Whether `lseek`, `fstatx` and `O_TRUNC` check read-only before they
    /// write ("precede pessimism with optimism").
    pub(crate) fn optimistic(self) -> bool {
        self == Policy::Sv6
    }
}

/// A Linux directory's shared state: its `i_mutex`, its entries line and
/// the dentry cache.
pub(crate) struct LinuxDir<L> {
    i_mutex: LockWord<L>,
    /// `root.entries`, when traced.
    entries: Option<Block<L>>,
    /// Each looked-up name's `d_count` and `d_inode` lines, when traced.
    dcache: Option<(L, Mutex<Dentries<L>>)>,
}

/// The dentry cache: a name's lines, by name.
type Dentries<L> = HashMap<String, Block<L>>;

/// The lines of a name's dentry.
const D_COUNT: usize = 0;
const D_INODE: usize = 1;

impl<L: Lines + Clone> LinuxDir<L> {
    pub(crate) fn new(lines: Option<&L>) -> Self {
        LinuxDir {
            i_mutex: LockWord::new(lines, "root.i_mutex"),
            entries: lines.map(|lines| lines.line("root.entries")),
            dcache: lines.map(|lines| (lines.clone(), Mutex::new(HashMap::new()))),
        }
    }

    /// `name`'s dentry lines, allocated on its first lookup.
    fn dentry(&self, name: &str) -> Option<Block<L>> {
        let (lines, dentries) = self.dcache.as_ref()?;
        let mut dentries = dentries.lock();
        if let Some(d) = dentries.get(name) {
            return Some(d.clone());
        }
        let label = name.to_string();
        let d = lines.block(2, move |i| {
            format!("dentry[{label}].{}", ["d_count", "d_inode"][i])
        });
        dentries.insert(name.to_string(), d.clone());
        Some(d)
    }

    /// A path lookup of `name`: the dentry's count is taken and dropped
    /// around reading its inode pointer, and a negative dentry (`found`
    /// false) falls back to reading the directory's entries.
    pub(crate) fn lookup(&self, name: &str, found: bool) {
        if let Some(d) = self.dentry(name) {
            d.rmw(D_COUNT);
            d.read(D_INODE);
            d.rmw(D_COUNT);
        }
        if let (false, Some(entries)) = (found, &self.entries) {
            entries.read(0);
        }
    }

    /// Holds the directory's `i_mutex` and reads its entries, as every
    /// call that may add or remove a name does before it checks the name.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ()> {
        let held = self.i_mutex.hold();
        if let Some(entries) = &self.entries {
            entries.read(0);
        }
        held
    }

    /// Records that `names` were added or removed: the entries line and
    /// each name's dentry pointer are written.
    pub(crate) fn changed(&self, names: &[&str]) {
        if let Some(entries) = &self.entries {
            entries.rmw(0);
        }
        for name in names {
            if let Some(d) = self.dentry(name) {
                d.write(D_INODE);
            }
        }
    }
}

/// A Linux process's shared state: `files.file_lock` over a descriptor
/// table on one line, and `mm.mmap_sem` over a VMA table on one line.
pub(crate) struct LinuxProc<L> {
    file_lock: LockWord<L>,
    mmap_sem: LockWord<L>,
    /// `files.fd_array` and `mm.vma_table`, when traced.
    tables: Option<Block<L>>,
}

const FD_ARRAY: usize = 0;
const VMA_TABLE: usize = 1;

impl<L: Lines + Clone> LinuxProc<L> {
    pub(crate) fn new(lines: Option<&L>, pid: usize) -> Self {
        LinuxProc {
            file_lock: LockWord::new(lines, format_args!("proc[{pid}].files.file_lock")),
            mmap_sem: LockWord::new(lines, format_args!("proc[{pid}].mm.mmap_sem")),
            tables: lines.map(|lines| {
                lines.block(2, move |i| {
                    format!("proc[{pid}].{}", ["files.fd_array", "mm.vma_table"][i])
                })
            }),
        }
    }

    fn record(&self, line: usize, write: bool) {
        if let Some(tables) = &self.tables {
            if write {
                tables.rmw(line);
            } else {
                tables.read(line);
            }
        }
    }

    /// Holds `file_lock` to change the descriptor table (`update`) or to
    /// snapshot it.
    pub(crate) fn files(&self, update: bool) -> MutexGuard<'_, ()> {
        let held = self.file_lock.hold();
        self.record(FD_ARRAY, update);
        held
    }

    /// A descriptor lookup (`fget`) reads the table without the lock.
    pub(crate) fn read_fds(&self) {
        self.record(FD_ARRAY, false);
    }

    /// Installs a fresh process's descriptor table (a fork's child).
    pub(crate) fn install_fds(&self) {
        if let Some(tables) = &self.tables {
            tables.write(FD_ARRAY);
        }
    }

    /// Holds `mmap_sem` to change the address space.
    pub(crate) fn mm(&self) -> MutexGuard<'_, ()> {
        let held = self.mmap_sem.hold();
        self.record(VMA_TABLE, true);
        held
    }

    /// A page access walks the VMA table.
    pub(crate) fn read_vmas(&self) {
        self.record(VMA_TABLE, false);
    }
}
