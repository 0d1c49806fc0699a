//! The kernel interface: types, error codes, the [`SyscallApi`] /
//! [`KernelApi`] traits, and a reified system-call representation
//! ([`SysOp`]) used by generated test cases.
//!
//! [`SyscallApi`] is the substrate-neutral system-call surface — the
//! simulated kernels *and* `scr-host`'s real-threads kernel implement it,
//! so applications like the §7.3 mail server run on either. [`KernelApi`]
//! extends it with access to the simulated machine, which only the traced
//! implementations can offer.
//!
//! Wrappers that observe, inject faults or retry are [`Layer`]s: each
//! writes one `around` hook, and one blanket impl forwards the whole
//! surface through it. [`perform`] maps a [`SysOp`] onto the same surface,
//! so a reified call through a layer stack is hooked exactly like a direct
//! one.
//!
//! The interface covers the 18 calls modelled in §6.1 — `open`, `link`,
//! `unlink`, `rename`, `stat`, `fstat`, `lseek`, `close`, `pipe`, `read`,
//! `write`, `pread`, `pwrite`, `mmap`, `munmap`, `mprotect`, `memread`,
//! `memwrite` — plus the §4 commutativity-friendly extensions: `fstatx`
//! (field-selective stat), `O_ANYFD` open, `posix_spawn`, and datagram
//! sockets with optional ordering.
//!
//! Every call names the *core* it runs on (so the simulated machine can
//! attribute memory accesses) and the *process* it runs in.

use scr_mtrace::{CoreId, SimMachine};
use scr_scalable::SocketError;
use std::fmt;

/// File-descriptor number.
pub type Fd = u32;
/// Inode number.
pub type Ino = u64;
/// Process identifier.
pub type Pid = usize;
/// Socket identifier (Unix-domain datagram socket).
pub type SockId = usize;

/// Page size used throughout the model and kernels. Offsets and lengths are
/// page-granular, as in the paper's model (§6.1).
pub const PAGE_SIZE: u64 = 4096;

/// POSIX-style error numbers used by the kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Errno {
    /// No such file or directory.
    ENOENT,
    /// File exists.
    EEXIST,
    /// Bad file descriptor.
    EBADF,
    /// Invalid argument.
    EINVAL,
    /// Too many open files.
    EMFILE,
    /// No space / table full.
    ENOSPC,
    /// Not enough memory / address space exhausted.
    ENOMEM,
    /// Broken pipe.
    EPIPE,
    /// Illegal seek.
    ESPIPE,
    /// Bad address (unmapped memory access).
    EFAULT,
    /// Resource temporarily unavailable (empty pipe / socket).
    EAGAIN,
    /// Operation not permitted (e.g. linking a pipe).
    EPERM,
    /// Interrupted system call. No real code path raises it — it exists so
    /// `scr-chaos` can inject the transient failures a production substrate
    /// would produce, and so retry logic has a second transient errno to
    /// classify besides `EAGAIN`.
    EINTR,
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Result type used by every kernel call.
pub type KResult<T> = Result<T, Errno>;

/// Flags accepted by `open`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Create the file if it does not exist (`O_CREAT`).
    pub create: bool,
    /// With `create`: fail if the file already exists (`O_EXCL`).
    pub excl: bool,
    /// Truncate the file to zero length (`O_TRUNC`).
    pub truncate: bool,
    /// Allow the kernel to return *any* unused descriptor instead of the
    /// lowest (`O_ANYFD`, the §4/§7.2 extension).
    pub anyfd: bool,
}

impl OpenFlags {
    /// Plain `open` of an existing file.
    pub fn plain() -> Self {
        OpenFlags::default()
    }

    /// `O_CREAT`.
    pub fn create() -> Self {
        OpenFlags {
            create: true,
            ..Default::default()
        }
    }

    /// `O_CREAT | O_EXCL`.
    pub fn create_excl() -> Self {
        OpenFlags {
            create: true,
            excl: true,
            ..Default::default()
        }
    }

    /// Adds `O_ANYFD` to the flags.
    pub fn with_anyfd(mut self) -> Self {
        self.anyfd = true;
        self
    }
}

/// The metadata returned by `stat`/`fstat`/`fstatx`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stat {
    /// Inode number (0 when masked out by `fstatx`).
    pub ino: Ino,
    /// File size in bytes (page-granular).
    pub size: u64,
    /// Link count (0 when masked out by `fstatx`).
    pub nlink: i64,
    /// True when the object is a pipe endpoint.
    pub is_pipe: bool,
}

/// Field-selection mask for `fstatx` (§4 "decompose compound operations",
/// §7.2 statbench). A cleared field is not computed and returned as zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatMask {
    /// Return the inode number.
    pub want_ino: bool,
    /// Return the size.
    pub want_size: bool,
    /// Return the link count (the expensive field: it forces reconciliation
    /// of the scalable link counter).
    pub want_nlink: bool,
}

impl StatMask {
    /// Request every field (equivalent to plain `fstat`).
    pub fn all() -> Self {
        StatMask {
            want_ino: true,
            want_size: true,
            want_nlink: true,
        }
    }

    /// Request every field except the link count (the commutative variant
    /// used by statbench).
    pub fn all_but_nlink() -> Self {
        StatMask {
            want_ino: true,
            want_size: true,
            want_nlink: false,
        }
    }
}

/// `lseek` origins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Whence {
    /// Absolute offset.
    Set,
    /// Relative to the current offset.
    Cur,
    /// Relative to the end of the file.
    End,
}

/// Page protection bits for the VM calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl Prot {
    /// Read/write protection.
    pub fn rw() -> Self {
        Prot {
            read: true,
            write: true,
        }
    }

    /// Read-only protection.
    pub fn ro() -> Self {
        Prot {
            read: true,
            write: false,
        }
    }
}

/// What backs an `mmap` region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmapBacking {
    /// Anonymous memory.
    Anon,
    /// A file mapping starting at page 0 of the file referenced by the
    /// descriptor.
    File(Fd),
}

pub use scr_scalable::SocketOrder;

impl From<SocketError> for Errno {
    fn from(e: SocketError) -> Errno {
        match e {
            SocketError::BadSocket => Errno::EBADF,
            SocketError::Empty => Errno::EAGAIN,
        }
    }
}

/// The system-call surface shared by every kernel in the workspace — the
/// simulated sv6 and Linux-like kernels *and* the real-threads
/// `HostKernel` of `scr-host`.
///
/// Every method takes the core the call runs on (a simulated core label,
/// or the calling OS thread's slot on the host) and the calling process.
/// Methods correspond 1:1 to the calls analysed by COMMUTER plus the §4
/// extensions. Applications written against this trait — the §7.3 mail
/// server in [`crate::mail`] — run unchanged on either substrate.
pub trait SyscallApi {
    /// Creates a new process with an empty descriptor table and address
    /// space, returning its pid.
    fn new_process(&self) -> Pid;

    // --- file-name operations -------------------------------------------

    /// Opens (and possibly creates) `name`, returning a descriptor.
    fn open(&self, core: CoreId, pid: Pid, name: &str, flags: OpenFlags) -> KResult<Fd>;
    /// Creates a new hard link `new` to the file `old`.
    fn link(&self, core: CoreId, pid: Pid, old: &str, new: &str) -> KResult<()>;
    /// Removes the name `name` (the inode is reclaimed when the last link
    /// and descriptor are gone).
    fn unlink(&self, core: CoreId, pid: Pid, name: &str) -> KResult<()>;
    /// Renames `src` to `dst`.
    fn rename(&self, core: CoreId, pid: Pid, src: &str, dst: &str) -> KResult<()>;
    /// Returns the metadata of `name`.
    fn stat(&self, core: CoreId, pid: Pid, name: &str) -> KResult<Stat>;

    // --- descriptor operations ------------------------------------------

    /// Returns the metadata of the open file `fd`.
    fn fstat(&self, core: CoreId, pid: Pid, fd: Fd) -> KResult<Stat>;
    /// Field-selective `fstat` (§4). The default forwards to `fstat` and
    /// masks afterwards, which is correct but no more scalable; sv6
    /// overrides it to avoid touching the link count when not requested.
    fn fstatx(&self, core: CoreId, pid: Pid, fd: Fd, mask: StatMask) -> KResult<Stat> {
        let full = self.fstat(core, pid, fd)?;
        Ok(Stat {
            ino: if mask.want_ino { full.ino } else { 0 },
            size: if mask.want_size { full.size } else { 0 },
            nlink: if mask.want_nlink { full.nlink } else { 0 },
            is_pipe: full.is_pipe,
        })
    }
    /// Repositions the offset of `fd`.
    fn lseek(&self, core: CoreId, pid: Pid, fd: Fd, offset: i64, whence: Whence) -> KResult<u64>;
    /// Closes `fd`.
    fn close(&self, core: CoreId, pid: Pid, fd: Fd) -> KResult<()>;
    /// Creates a pipe, returning `(read_fd, write_fd)`.
    fn pipe(&self, core: CoreId, pid: Pid) -> KResult<(Fd, Fd)>;
    /// Reads up to `len` bytes at the current offset.
    fn read(&self, core: CoreId, pid: Pid, fd: Fd, len: u64) -> KResult<Vec<u8>>;
    /// Writes `data` at the current offset, returning the number of bytes
    /// written.
    fn write(&self, core: CoreId, pid: Pid, fd: Fd, data: &[u8]) -> KResult<u64>;
    /// Reads up to `len` bytes at absolute offset `offset` (no offset
    /// update).
    fn pread(&self, core: CoreId, pid: Pid, fd: Fd, len: u64, offset: u64) -> KResult<Vec<u8>>;
    /// Writes `data` at absolute offset `offset` (no offset update).
    fn pwrite(&self, core: CoreId, pid: Pid, fd: Fd, data: &[u8], offset: u64) -> KResult<u64>;

    // --- virtual memory ---------------------------------------------------

    /// Maps `pages` pages (optionally at the hinted page-aligned address),
    /// returning the mapped address.
    fn mmap(
        &self,
        core: CoreId,
        pid: Pid,
        addr_hint: Option<u64>,
        pages: u64,
        prot: Prot,
        backing: MmapBacking,
    ) -> KResult<u64>;
    /// Unmaps `pages` pages starting at `addr`.
    fn munmap(&self, core: CoreId, pid: Pid, addr: u64, pages: u64) -> KResult<()>;
    /// Changes the protection of `pages` pages starting at `addr`.
    fn mprotect(&self, core: CoreId, pid: Pid, addr: u64, pages: u64, prot: Prot) -> KResult<()>;
    /// Reads one byte from mapped memory at `addr`.
    fn memread(&self, core: CoreId, pid: Pid, addr: u64) -> KResult<u8>;
    /// Writes one byte to mapped memory at `addr`.
    fn memwrite(&self, core: CoreId, pid: Pid, addr: u64, value: u8) -> KResult<()>;

    // --- processes and sockets (§4 / §7.3) --------------------------------

    /// Creates a child process by duplicating the parent's descriptor table
    /// (the `fork` half of fork/exec; the snapshot is what limits its
    /// commutativity).
    fn fork(&self, core: CoreId, pid: Pid) -> KResult<Pid>;
    /// Creates a child process with a fresh descriptor table, duplicating
    /// only the listed descriptors (`posix_spawn`, §4 "decompose compound
    /// operations").
    fn posix_spawn(&self, core: CoreId, pid: Pid, dup_fds: &[Fd]) -> KResult<Pid>;
    /// Reaps a finished child process: closes every descriptor the child
    /// still holds (releasing pipe endpoints) and empties its table. The
    /// `wait` half of the spawn/wait protocol — the child's pid stays
    /// valid but refers to an empty (zombie-reaped) process afterwards.
    fn wait(&self, core: CoreId, pid: Pid, child: Pid) -> KResult<()>;
    /// Creates a Unix-domain datagram socket with the given ordering
    /// guarantee.
    fn socket(&self, core: CoreId, order: SocketOrder) -> KResult<SockId>;
    /// Sends a datagram on a socket.
    fn send(&self, core: CoreId, sock: SockId, msg: &[u8]) -> KResult<()>;
    /// Receives a datagram from a socket (EAGAIN when empty).
    fn recv(&self, core: CoreId, sock: SockId) -> KResult<Vec<u8>>;
}

/// A [`SyscallApi`] implementation living on the simulated machine of
/// `scr-mtrace`, whose traced cells are what the MTRACE driver inspects.
/// The real-threads host kernel implements only [`SyscallApi`]; everything
/// that needs conflict *tracing* (rather than just execution) asks for a
/// `KernelApi`.
pub trait KernelApi: SyscallApi {
    /// The simulated machine this kernel's state lives on.
    fn machine(&self) -> &SimMachine;
}

/// Every hooked [`SyscallApi`] call, including the §4 extensions (all but
/// `new_process`, which names no core). The discriminant is the call's
/// index in [`SyscallKind::ALL`], so per-call tables index by `kind as
/// usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyscallKind {
    Open,
    Link,
    Unlink,
    Rename,
    Stat,
    Fstat,
    Fstatx,
    Lseek,
    Close,
    Pipe,
    Read,
    Write,
    Pread,
    Pwrite,
    Mmap,
    Munmap,
    Mprotect,
    Memread,
    Memwrite,
    Fork,
    PosixSpawn,
    Wait,
    Socket,
    Send,
    Recv,
}

impl SyscallKind {
    /// Every kind, in declaration order.
    pub const ALL: [SyscallKind; 25] = [
        SyscallKind::Open,
        SyscallKind::Link,
        SyscallKind::Unlink,
        SyscallKind::Rename,
        SyscallKind::Stat,
        SyscallKind::Fstat,
        SyscallKind::Fstatx,
        SyscallKind::Lseek,
        SyscallKind::Close,
        SyscallKind::Pipe,
        SyscallKind::Read,
        SyscallKind::Write,
        SyscallKind::Pread,
        SyscallKind::Pwrite,
        SyscallKind::Mmap,
        SyscallKind::Munmap,
        SyscallKind::Mprotect,
        SyscallKind::Memread,
        SyscallKind::Memwrite,
        SyscallKind::Fork,
        SyscallKind::PosixSpawn,
        SyscallKind::Wait,
        SyscallKind::Socket,
        SyscallKind::Send,
        SyscallKind::Recv,
    ];

    /// The call's family name, as in [`SysOp::call_name`].
    pub fn name(self) -> &'static str {
        match self {
            SyscallKind::Open => "open",
            SyscallKind::Link => "link",
            SyscallKind::Unlink => "unlink",
            SyscallKind::Rename => "rename",
            SyscallKind::Stat => "stat",
            SyscallKind::Fstat => "fstat",
            SyscallKind::Fstatx => "fstatx",
            SyscallKind::Lseek => "lseek",
            SyscallKind::Close => "close",
            SyscallKind::Pipe => "pipe",
            SyscallKind::Read => "read",
            SyscallKind::Write => "write",
            SyscallKind::Pread => "pread",
            SyscallKind::Pwrite => "pwrite",
            SyscallKind::Mmap => "mmap",
            SyscallKind::Munmap => "munmap",
            SyscallKind::Mprotect => "mprotect",
            SyscallKind::Memread => "memread",
            SyscallKind::Memwrite => "memwrite",
            SyscallKind::Fork => "fork",
            SyscallKind::PosixSpawn => "posix_spawn",
            SyscallKind::Wait => "wait",
            SyscallKind::Socket => "socket",
            SyscallKind::Send => "send",
            SyscallKind::Recv => "recv",
        }
    }
}

/// One policy around an inner [`SyscallApi`]: observing, injecting faults,
/// retrying. A wrapper implements `Layer`, and the blanket `impl<L: Layer>
/// SyscallApi for L` forwards every call through [`Layer::around`] to the
/// same method of [`Layer::inner`]. That impl is the only method-to-method
/// forwarding table; [`perform`] is the only [`SysOp`]-to-method one.
pub trait Layer {
    /// The kernel (or the next layer) underneath.
    type Inner: SyscallApi + ?Sized;

    /// The wrapped kernel.
    fn inner(&self) -> &Self::Inner;

    /// Runs one call of `kind` on `core`. `call` performs it on
    /// [`Layer::inner`]; a layer may run it once, not at all (an injected
    /// failure), or again (a retry).
    fn around<T>(
        &self,
        core: CoreId,
        kind: SyscallKind,
        call: impl Fn() -> KResult<T>,
    ) -> KResult<T>;
}

impl<L: Layer> SyscallApi for L {
    fn new_process(&self) -> Pid {
        // No core to attribute to: passes through unhooked.
        self.inner().new_process()
    }

    fn open(&self, core: CoreId, pid: Pid, name: &str, flags: OpenFlags) -> KResult<Fd> {
        self.around(core, SyscallKind::Open, || {
            self.inner().open(core, pid, name, flags)
        })
    }

    fn link(&self, core: CoreId, pid: Pid, old: &str, new: &str) -> KResult<()> {
        self.around(core, SyscallKind::Link, || {
            self.inner().link(core, pid, old, new)
        })
    }

    fn unlink(&self, core: CoreId, pid: Pid, name: &str) -> KResult<()> {
        self.around(core, SyscallKind::Unlink, || {
            self.inner().unlink(core, pid, name)
        })
    }

    fn rename(&self, core: CoreId, pid: Pid, src: &str, dst: &str) -> KResult<()> {
        self.around(core, SyscallKind::Rename, || {
            self.inner().rename(core, pid, src, dst)
        })
    }

    fn stat(&self, core: CoreId, pid: Pid, name: &str) -> KResult<Stat> {
        self.around(core, SyscallKind::Stat, || {
            self.inner().stat(core, pid, name)
        })
    }

    fn fstat(&self, core: CoreId, pid: Pid, fd: Fd) -> KResult<Stat> {
        self.around(core, SyscallKind::Fstat, || {
            self.inner().fstat(core, pid, fd)
        })
    }

    // Forwards to the inner `fstatx`, never the trait default: the default
    // reads the link count through `fstat`, which changes the footprint.
    fn fstatx(&self, core: CoreId, pid: Pid, fd: Fd, mask: StatMask) -> KResult<Stat> {
        self.around(core, SyscallKind::Fstatx, || {
            self.inner().fstatx(core, pid, fd, mask)
        })
    }

    fn lseek(&self, core: CoreId, pid: Pid, fd: Fd, offset: i64, whence: Whence) -> KResult<u64> {
        self.around(core, SyscallKind::Lseek, || {
            self.inner().lseek(core, pid, fd, offset, whence)
        })
    }

    fn close(&self, core: CoreId, pid: Pid, fd: Fd) -> KResult<()> {
        self.around(core, SyscallKind::Close, || {
            self.inner().close(core, pid, fd)
        })
    }

    fn pipe(&self, core: CoreId, pid: Pid) -> KResult<(Fd, Fd)> {
        self.around(core, SyscallKind::Pipe, || self.inner().pipe(core, pid))
    }

    fn read(&self, core: CoreId, pid: Pid, fd: Fd, len: u64) -> KResult<Vec<u8>> {
        self.around(core, SyscallKind::Read, || {
            self.inner().read(core, pid, fd, len)
        })
    }

    fn write(&self, core: CoreId, pid: Pid, fd: Fd, data: &[u8]) -> KResult<u64> {
        self.around(core, SyscallKind::Write, || {
            self.inner().write(core, pid, fd, data)
        })
    }

    fn pread(&self, core: CoreId, pid: Pid, fd: Fd, len: u64, offset: u64) -> KResult<Vec<u8>> {
        self.around(core, SyscallKind::Pread, || {
            self.inner().pread(core, pid, fd, len, offset)
        })
    }

    fn pwrite(&self, core: CoreId, pid: Pid, fd: Fd, data: &[u8], offset: u64) -> KResult<u64> {
        self.around(core, SyscallKind::Pwrite, || {
            self.inner().pwrite(core, pid, fd, data, offset)
        })
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
        self.around(core, SyscallKind::Mmap, || {
            self.inner()
                .mmap(core, pid, addr_hint, pages, prot, backing)
        })
    }

    fn munmap(&self, core: CoreId, pid: Pid, addr: u64, pages: u64) -> KResult<()> {
        self.around(core, SyscallKind::Munmap, || {
            self.inner().munmap(core, pid, addr, pages)
        })
    }

    fn mprotect(&self, core: CoreId, pid: Pid, addr: u64, pages: u64, prot: Prot) -> KResult<()> {
        self.around(core, SyscallKind::Mprotect, || {
            self.inner().mprotect(core, pid, addr, pages, prot)
        })
    }

    fn memread(&self, core: CoreId, pid: Pid, addr: u64) -> KResult<u8> {
        self.around(core, SyscallKind::Memread, || {
            self.inner().memread(core, pid, addr)
        })
    }

    fn memwrite(&self, core: CoreId, pid: Pid, addr: u64, value: u8) -> KResult<()> {
        self.around(core, SyscallKind::Memwrite, || {
            self.inner().memwrite(core, pid, addr, value)
        })
    }

    fn fork(&self, core: CoreId, pid: Pid) -> KResult<Pid> {
        self.around(core, SyscallKind::Fork, || self.inner().fork(core, pid))
    }

    fn posix_spawn(&self, core: CoreId, pid: Pid, dup_fds: &[Fd]) -> KResult<Pid> {
        self.around(core, SyscallKind::PosixSpawn, || {
            self.inner().posix_spawn(core, pid, dup_fds)
        })
    }

    fn wait(&self, core: CoreId, pid: Pid, child: Pid) -> KResult<()> {
        self.around(core, SyscallKind::Wait, || {
            self.inner().wait(core, pid, child)
        })
    }

    fn socket(&self, core: CoreId, order: SocketOrder) -> KResult<SockId> {
        self.around(core, SyscallKind::Socket, || {
            self.inner().socket(core, order)
        })
    }

    fn send(&self, core: CoreId, sock: SockId, msg: &[u8]) -> KResult<()> {
        self.around(core, SyscallKind::Send, || {
            self.inner().send(core, sock, msg)
        })
    }

    fn recv(&self, core: CoreId, sock: SockId) -> KResult<Vec<u8>> {
        self.around(core, SyscallKind::Recv, || self.inner().recv(core, sock))
    }
}

/// A reified system-call invocation, as emitted by TESTGEN.
///
/// Each variant mirrors one `KernelApi` method; string and numeric arguments
/// are concrete values chosen by the test generator.
#[derive(Clone, Debug, PartialEq)]
pub enum SysOp {
    /// `open(name, flags)`.
    Open {
        /// Process performing the call.
        pid: Pid,
        /// File name.
        name: String,
        /// Open flags.
        flags: OpenFlags,
    },
    /// `link(old, new)`.
    Link {
        /// Process performing the call.
        pid: Pid,
        /// Existing name.
        old: String,
        /// New name.
        new: String,
    },
    /// `unlink(name)`.
    Unlink {
        /// Process performing the call.
        pid: Pid,
        /// Name to remove.
        name: String,
    },
    /// `rename(src, dst)`.
    Rename {
        /// Process performing the call.
        pid: Pid,
        /// Source name.
        src: String,
        /// Destination name.
        dst: String,
    },
    /// `stat(name)`.
    StatPath {
        /// Process performing the call.
        pid: Pid,
        /// Name to stat.
        name: String,
    },
    /// `fstat(fd)`.
    Fstat {
        /// Process performing the call.
        pid: Pid,
        /// Descriptor to stat.
        fd: Fd,
    },
    /// `lseek(fd, offset, whence)`.
    Lseek {
        /// Process performing the call.
        pid: Pid,
        /// Descriptor.
        fd: Fd,
        /// Target offset.
        offset: i64,
        /// Origin.
        whence: Whence,
    },
    /// `close(fd)`.
    Close {
        /// Process performing the call.
        pid: Pid,
        /// Descriptor to close.
        fd: Fd,
    },
    /// `pipe()`.
    Pipe {
        /// Process performing the call.
        pid: Pid,
    },
    /// `read(fd, len)`.
    Read {
        /// Process performing the call.
        pid: Pid,
        /// Descriptor.
        fd: Fd,
        /// Bytes to read.
        len: u64,
    },
    /// `write(fd, data)`.
    Write {
        /// Process performing the call.
        pid: Pid,
        /// Descriptor.
        fd: Fd,
        /// Data to write.
        data: Vec<u8>,
    },
    /// `pread(fd, len, offset)`.
    Pread {
        /// Process performing the call.
        pid: Pid,
        /// Descriptor.
        fd: Fd,
        /// Bytes to read.
        len: u64,
        /// Absolute offset.
        offset: u64,
    },
    /// `pwrite(fd, data, offset)`.
    Pwrite {
        /// Process performing the call.
        pid: Pid,
        /// Descriptor.
        fd: Fd,
        /// Data to write.
        data: Vec<u8>,
        /// Absolute offset.
        offset: u64,
    },
    /// `mmap(addr_hint, pages, prot, backing)`.
    Mmap {
        /// Process performing the call.
        pid: Pid,
        /// Optional fixed address (page aligned).
        addr_hint: Option<u64>,
        /// Number of pages.
        pages: u64,
        /// Protection.
        prot: Prot,
        /// Backing object.
        backing: MmapBacking,
    },
    /// `munmap(addr, pages)`.
    Munmap {
        /// Process performing the call.
        pid: Pid,
        /// Start address.
        addr: u64,
        /// Number of pages.
        pages: u64,
    },
    /// `mprotect(addr, pages, prot)`.
    Mprotect {
        /// Process performing the call.
        pid: Pid,
        /// Start address.
        addr: u64,
        /// Number of pages.
        pages: u64,
        /// New protection.
        prot: Prot,
    },
    /// `memread(addr)`.
    Memread {
        /// Process performing the call.
        pid: Pid,
        /// Address to read.
        addr: u64,
    },
    /// `memwrite(addr, value)`.
    Memwrite {
        /// Process performing the call.
        pid: Pid,
        /// Address to write.
        addr: u64,
        /// Byte value to store.
        value: u8,
    },
    /// `socket(order)` (§4).
    Socket {
        /// Ordering guarantee of the new socket.
        order: SocketOrder,
    },
    /// `send(sock, msg)` (§4).
    Send {
        /// Socket to send on.
        sock: SockId,
        /// Datagram payload.
        msg: Vec<u8>,
    },
    /// `recv(sock)` (§4).
    Recv {
        /// Socket to receive from.
        sock: SockId,
    },
    /// `fork()` (§4).
    Fork {
        /// Parent process.
        pid: Pid,
    },
    /// `posix_spawn(dup_fds)` (§4).
    Spawn {
        /// Parent process.
        pid: Pid,
        /// Descriptors the child inherits (at the same numbers).
        dup_fds: Vec<Fd>,
    },
    /// `wait(child)` (§4).
    Wait {
        /// Reaping (parent) process.
        pid: Pid,
        /// Child to reap.
        child: Pid,
    },
}

impl SysOp {
    /// The system-call family name (used for the Figure 6 row/column
    /// labels).
    pub fn call_name(&self) -> &'static str {
        self.kind().name()
    }

    /// The method [`perform`] dispatches the operation to.
    pub fn kind(&self) -> SyscallKind {
        match self {
            SysOp::Open { .. } => SyscallKind::Open,
            SysOp::Link { .. } => SyscallKind::Link,
            SysOp::Unlink { .. } => SyscallKind::Unlink,
            SysOp::Rename { .. } => SyscallKind::Rename,
            SysOp::StatPath { .. } => SyscallKind::Stat,
            SysOp::Fstat { .. } => SyscallKind::Fstat,
            SysOp::Lseek { .. } => SyscallKind::Lseek,
            SysOp::Close { .. } => SyscallKind::Close,
            SysOp::Pipe { .. } => SyscallKind::Pipe,
            SysOp::Read { .. } => SyscallKind::Read,
            SysOp::Write { .. } => SyscallKind::Write,
            SysOp::Pread { .. } => SyscallKind::Pread,
            SysOp::Pwrite { .. } => SyscallKind::Pwrite,
            SysOp::Mmap { .. } => SyscallKind::Mmap,
            SysOp::Munmap { .. } => SyscallKind::Munmap,
            SysOp::Mprotect { .. } => SyscallKind::Mprotect,
            SysOp::Memread { .. } => SyscallKind::Memread,
            SysOp::Memwrite { .. } => SyscallKind::Memwrite,
            SysOp::Socket { .. } => SyscallKind::Socket,
            SysOp::Send { .. } => SyscallKind::Send,
            SysOp::Recv { .. } => SyscallKind::Recv,
            SysOp::Fork { .. } => SyscallKind::Fork,
            SysOp::Spawn { .. } => SyscallKind::PosixSpawn,
            SysOp::Wait { .. } => SyscallKind::Wait,
        }
    }

    /// The process the operation runs in. Socket operations are
    /// process-free (sockets are kernel-global objects); they report
    /// process 0.
    pub fn pid(&self) -> Pid {
        match self {
            SysOp::Socket { .. } | SysOp::Send { .. } | SysOp::Recv { .. } => 0,
            SysOp::Open { pid, .. }
            | SysOp::Link { pid, .. }
            | SysOp::Unlink { pid, .. }
            | SysOp::Rename { pid, .. }
            | SysOp::StatPath { pid, .. }
            | SysOp::Fstat { pid, .. }
            | SysOp::Lseek { pid, .. }
            | SysOp::Close { pid, .. }
            | SysOp::Pipe { pid, .. }
            | SysOp::Read { pid, .. }
            | SysOp::Write { pid, .. }
            | SysOp::Pread { pid, .. }
            | SysOp::Pwrite { pid, .. }
            | SysOp::Mmap { pid, .. }
            | SysOp::Munmap { pid, .. }
            | SysOp::Mprotect { pid, .. }
            | SysOp::Memread { pid, .. }
            | SysOp::Memwrite { pid, .. }
            | SysOp::Fork { pid, .. }
            | SysOp::Spawn { pid, .. }
            | SysOp::Wait { pid, .. } => *pid,
        }
    }
}

/// The observable outcome of performing a [`SysOp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SysResult {
    /// The call succeeded with a numeric result (fd, offset, address,
    /// byte count…).
    Value(i64),
    /// The call succeeded and returned data.
    Data(Vec<u8>),
    /// The call succeeded and returned file metadata.
    Meta(Stat),
    /// The call succeeded with no interesting return value.
    Unit,
    /// The call failed.
    Err(Errno),
}

impl SysResult {
    /// `true` when the call did not fail.
    pub fn is_ok(&self) -> bool {
        !matches!(self, SysResult::Err(_))
    }

    /// The error number when the call failed.
    pub fn errno(&self) -> Option<Errno> {
        match self {
            SysResult::Err(e) => Some(*e),
            _ => None,
        }
    }
}

/// Performs a reified operation against a kernel on the given core. The
/// kernel may be any [`SyscallApi`] implementation — a simulated kernel,
/// the real-threads host kernel, or a [`Layer`] stack over either.
pub fn perform<K: SyscallApi + ?Sized>(kernel: &K, core: CoreId, op: &SysOp) -> SysResult {
    use SysResult::{Data, Meta, Unit, Value};
    let result = match op {
        SysOp::Open { pid, name, flags } => kernel
            .open(core, *pid, name, *flags)
            .map(|fd| Value(fd as i64)),
        SysOp::Link { pid, old, new } => kernel.link(core, *pid, old, new).map(|()| Unit),
        SysOp::Unlink { pid, name } => kernel.unlink(core, *pid, name).map(|()| Unit),
        SysOp::Rename { pid, src, dst } => kernel.rename(core, *pid, src, dst).map(|()| Unit),
        SysOp::StatPath { pid, name } => kernel.stat(core, *pid, name).map(Meta),
        SysOp::Fstat { pid, fd } => kernel.fstat(core, *pid, *fd).map(Meta),
        SysOp::Lseek {
            pid,
            fd,
            offset,
            whence,
        } => kernel
            .lseek(core, *pid, *fd, *offset, *whence)
            .map(|off| Value(off as i64)),
        SysOp::Close { pid, fd } => kernel.close(core, *pid, *fd).map(|()| Unit),
        SysOp::Pipe { pid } => kernel
            .pipe(core, *pid)
            .map(|(r, w)| Value(((w as i64) << 32) | r as i64)),
        SysOp::Read { pid, fd, len } => kernel.read(core, *pid, *fd, *len).map(Data),
        SysOp::Write { pid, fd, data } => {
            kernel.write(core, *pid, *fd, data).map(|n| Value(n as i64))
        }
        SysOp::Pread {
            pid,
            fd,
            len,
            offset,
        } => kernel.pread(core, *pid, *fd, *len, *offset).map(Data),
        SysOp::Pwrite {
            pid,
            fd,
            data,
            offset,
        } => kernel
            .pwrite(core, *pid, *fd, data, *offset)
            .map(|n| Value(n as i64)),
        SysOp::Mmap {
            pid,
            addr_hint,
            pages,
            prot,
            backing,
        } => kernel
            .mmap(core, *pid, *addr_hint, *pages, *prot, *backing)
            .map(|addr| Value(addr as i64)),
        SysOp::Munmap { pid, addr, pages } => {
            kernel.munmap(core, *pid, *addr, *pages).map(|()| Unit)
        }
        SysOp::Mprotect {
            pid,
            addr,
            pages,
            prot,
        } => kernel
            .mprotect(core, *pid, *addr, *pages, *prot)
            .map(|()| Unit),
        SysOp::Memread { pid, addr } => kernel.memread(core, *pid, *addr).map(|b| Value(b as i64)),
        SysOp::Memwrite { pid, addr, value } => {
            kernel.memwrite(core, *pid, *addr, *value).map(|()| Unit)
        }
        SysOp::Socket { order } => kernel.socket(core, *order).map(|s| Value(s as i64)),
        SysOp::Send { sock, msg } => kernel.send(core, *sock, msg).map(|()| Unit),
        SysOp::Recv { sock } => kernel.recv(core, *sock).map(Data),
        SysOp::Fork { pid } => kernel.fork(core, *pid).map(|child| Value(child as i64)),
        SysOp::Spawn { pid, dup_fds } => kernel
            .posix_spawn(core, *pid, dup_fds)
            .map(|child| Value(child as i64)),
        SysOp::Wait { pid, child } => kernel.wait(core, *pid, *child).map(|()| Unit),
    };
    result.unwrap_or_else(SysResult::Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flags_constructors() {
        assert!(OpenFlags::create().create);
        assert!(!OpenFlags::create().excl);
        assert!(OpenFlags::create_excl().excl);
        assert!(OpenFlags::plain().with_anyfd().anyfd);
    }

    #[test]
    fn stat_mask_selects_fields() {
        assert!(StatMask::all().want_nlink);
        assert!(!StatMask::all_but_nlink().want_nlink);
        assert!(StatMask::all_but_nlink().want_size);
    }

    #[test]
    fn sysop_exposes_call_name_and_pid() {
        let op = SysOp::Rename {
            pid: 3,
            src: "a".into(),
            dst: "b".into(),
        };
        assert_eq!(op.call_name(), "rename");
        assert_eq!(op.pid(), 3);
        let op = SysOp::Memwrite {
            pid: 1,
            addr: PAGE_SIZE,
            value: 7,
        };
        assert_eq!(op.call_name(), "memwrite");
    }

    #[test]
    fn sysresult_classifies_errors() {
        assert!(SysResult::Value(3).is_ok());
        assert!(SysResult::Unit.is_ok());
        assert!(!SysResult::Err(Errno::ENOENT).is_ok());
        assert_eq!(SysResult::Err(Errno::EAGAIN).errno(), Some(Errno::EAGAIN));
        assert_eq!(SysResult::Unit.errno(), None);
    }
}
