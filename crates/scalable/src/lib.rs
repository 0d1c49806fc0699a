//! # scr-scalable — building blocks for conflict-free implementations
//!
//! §6.3 of the paper lists the techniques ScaleFS and RadixVM use to make
//! commutative operations conflict-free: per-core resource allocation,
//! Refcache scalable reference counts, radix arrays, hash tables with
//! per-bucket locks, seqlocks, deferred (batched) resource reclamation, and
//! optimistic check-then-update protocols.
//!
//! Each building block is written once. A structure keeps its data in real
//! storage — atomics, cache-padded locks, maps — so it is safe to share
//! between OS threads, and records its *line footprint* (which logical
//! cache line each operation reads or writes) through an optional
//! [`scr_mtrace::Block`] of a [`scr_mtrace::Lines`] substrate:
//!
//! * on the simulated machine ([`scr_mtrace::SimMachine`]), where the
//!   conflict detector and the MESI model read the footprint — the
//!   simulated kernels of `scr-kernel` build every structure this way;
//! * on a real-threads trace sink (`Arc<scr_hostmtrace::HostTraceSink>`),
//!   where the host Figure 6 reads it;
//! * or on nothing (`None`), the uninstrumented host kernel's choice, which
//!   costs one `Option` check per operation.
//!
//! Constructors take the substrate and the label the structure's lines are
//! named under; the label is formatted only when there is a substrate.

pub mod counter;
pub mod defer;
pub mod dir;
pub mod inode_alloc;
pub mod lock;
pub mod radix;
pub mod refcount;
pub mod seq;
pub mod socket;

pub use counter::{PerCoreCounter, SharedCounter};
pub use defer::DeferQueue;
pub use dir::{HashDir, LockedPair};
pub use inode_alloc::InodeAllocator;
pub use lock::LockWord;
pub use radix::{RadixArray, RadixGuard};
pub use refcount::{LinkCounter, Refcache};
pub use seq::SeqLock;
pub use socket::{SocketError, SocketOrder, SocketTable};

use scr_mtrace::{Block, Lines};
use std::fmt::Display;

/// A structure's block of `len` lines on `lines`, line `i` named
/// `name(label, i)`; `None` (and no label formatted) without a substrate.
fn block_of<L: Lines + Clone>(
    lines: Option<&L>,
    label: impl Display,
    len: usize,
    name: impl Fn(&str, usize) -> String + Send + Sync + 'static,
) -> Option<Block<L>> {
    lines.map(|lines| {
        let label = label.to_string();
        lines.block(len, move |i| name(&label, i))
    })
}
