//! # scr-kernel — the systems under test
//!
//! This crate contains the operating-system subsystems the paper evaluates,
//! rebuilt as library code over the simulated machine of `scr-mtrace`:
//!
//! * [`api`] defines a POSIX-like [`api::SyscallApi`] covering the 18
//!   system calls modelled in §6.1 (file system + virtual memory) plus the
//!   commutativity-friendly variants §4 proposes (`fstatx`, `O_ANYFD`,
//!   unordered datagram sockets, `posix_spawn`/`wait`), and a reified
//!   [`api::SysOp`] so generated test cases can drive any implementation.
//!   [`api::Layer`] is how a wrapper (telemetry, fault injection, retry)
//!   gets the whole surface from one `around` hook.
//! * [`sv6`] is the one kernel body: ScaleFS + RadixVM-style (§6.3) hash
//!   directories with per-bucket locks, radix-array page caches and
//!   address spaces, Refcache link counts, per-core inode and descriptor
//!   allocation, deferred reclamation, and optimistic check-then-update
//!   paths. It deliberately keeps the paper's §6.4 residual non-scalable
//!   cases (idempotent updates, pipe end reference counts). It is written
//!   once, generic over its line substrate — [`Sv6Kernel`] runs it on the
//!   simulated machine, and the real-threads `HostKernel` of `scr-host`
//!   runs the same body on a trace sink — and built under either sharing
//!   [`Policy`].
//! * [`policy`] holds the two policies. [`Policy::Linuxlike`] adds the
//!   conflict sources §6.2 reports for Linux 3.8 to the body: dentry and
//!   `struct file` reference counts, the parent directory's lock, lowest-FD
//!   allocation under a process-wide lock, one inode counter, shared link
//!   counts and an address-space-wide `mmap_sem`. Both policies take their
//!   datagram sockets, ordered and unordered (§4 "permit weak ordering"),
//!   from `scr_scalable::SocketTable`.
//! * [`mail`] is the qmail-style mail server application of §7.3, written
//!   against [`api::SyscallApi`] so it can run over either kernel and with
//!   either the regular or the commutative API set.

pub mod api;
pub mod mail;
pub mod policy;
mod proc_table;
pub mod retry;
pub mod sv6;

pub use api::{
    Errno, Fd, Ino, KResult, Layer, OpenFlags, Pid, Prot, Stat, StatMask, SysOp, SysResult,
    SyscallApi, SyscallKind, Whence, PAGE_SIZE,
};
pub use policy::Policy;
pub use retry::{is_transient, Backoff, RetryPolicy};
pub use sv6::{Sv6Kernel, Sv6Options};
