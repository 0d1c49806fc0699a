//! Refcache-style scalable reference counting (§6.3, citing Clements et
//! al., EuroSys 2013), and the link counter the statbench ablation chooses
//! between it and one shared count.
//!
//! A Refcache counter keeps the true count in a global value plus a
//! per-core *delta* cache. `inc` and `dec` touch only the invoking core's
//! delta line, so commutative reference count changes from different cores
//! are conflict-free. At an "epoch" boundary each core's delta is flushed
//! into the global count; an object is only freed when the global count is
//! zero **and** a full epoch has passed with no new deltas, which is what
//! makes deferred zero-detection safe.
//!
//! The epoch machinery is explicit but synchronous: a kernel calls
//! [`Refcache::flush_epoch`] when it wants reconciliation (the paper's
//! kernel does this from a per-core timer tick). Reading the exact value
//! (as `fstat` must, to return `st_nlink`) reconciles on the spot and
//! therefore touches every core's delta line — the cost §7.2 measures at
//! about 3.9× a plain read.

use crate::block_of;
use crate::counter::SharedCounter;
use crossbeam::utils::CachePadded;
use scr_mtrace::{Block, CoreId, Lines};
use std::fmt::Display;
use std::sync::atomic::{AtomicI64, Ordering};

/// A scalable reference counter with per-core delta caches.
///
/// Its lines are `{label}.global`, `{label}.delta[c]` per core and
/// `{label}.epoch`, one block in that order.
#[derive(Debug)]
pub struct Refcache<L> {
    /// The reconciled ("true as of the last epoch") count.
    global: CachePadded<AtomicI64>,
    /// Per-core pending deltas.
    deltas: Box<[CachePadded<AtomicI64>]>,
    lines: Option<Block<L>>,
}

impl<L: Lines + Clone> Refcache<L> {
    /// A counter with the given initial value and one delta per core.
    pub fn new(lines: Option<&L>, label: impl Display, cores: usize, initial: i64) -> Self {
        let cores = cores.max(1);
        Refcache {
            global: CachePadded::new(AtomicI64::new(initial)),
            deltas: (0..cores)
                .map(|_| CachePadded::new(AtomicI64::new(0)))
                .collect(),
            lines: block_of(lines, label, cores + 2, move |label, i| match i {
                0 => format!("{label}.global"),
                i if i <= cores => format!("{label}.delta[{}]", i - 1),
                _ => format!("{label}.epoch"),
            }),
        }
    }

    fn global_line(&self) -> usize {
        0
    }

    fn delta_line(&self, shard: usize) -> usize {
        1 + shard
    }

    fn epoch_line(&self) -> usize {
        self.deltas.len() + 1
    }

    fn add(&self, core: CoreId, delta: i64) {
        let shard = core % self.deltas.len();
        if let Some(lines) = &self.lines {
            lines.rmw(self.delta_line(shard));
        }
        self.deltas[shard].fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the count on behalf of `core` (conflict-free with other
    /// cores' increments and decrements).
    pub fn inc(&self, core: CoreId) {
        self.add(core, 1);
    }

    /// Decrements the count on behalf of `core`.
    pub fn dec(&self, core: CoreId) {
        self.add(core, -1);
    }

    /// Flushes every core's delta into the global count (an epoch
    /// boundary) and returns the reconciled value. Every delta line is read
    /// and written back only when non-zero; then the epoch and global lines
    /// are read-modify-written.
    pub fn flush_epoch(&self) -> i64 {
        let mut sum = 0;
        for (shard, delta) in self.deltas.iter().enumerate() {
            let d = delta.swap(0, Ordering::Relaxed);
            if let Some(lines) = &self.lines {
                lines.read(self.delta_line(shard));
                if d != 0 {
                    lines.write(self.delta_line(shard));
                }
            }
            sum += d;
        }
        if let Some(lines) = &self.lines {
            lines.rmw(self.epoch_line());
            lines.rmw(self.global_line());
        }
        self.global.fetch_add(sum, Ordering::Relaxed) + sum
    }

    /// Reads the exact current value by reconciling on the spot. This
    /// touches every delta line (it is the expensive path `fstat` takes when
    /// it must return `st_nlink`).
    pub fn read_exact(&self) -> i64 {
        if let Some(lines) = &self.lines {
            for shard in 0..self.deltas.len() {
                lines.read(self.delta_line(shard));
            }
            lines.read(self.global_line());
        }
        self.peek()
    }

    /// Reads only the reconciled global value (may lag behind by the pending
    /// deltas). Conflict-free with respect to `inc`/`dec` on other cores.
    pub fn read_reconciled(&self) -> i64 {
        if let Some(lines) = &self.lines {
            lines.read(self.global_line());
        }
        self.global.load(Ordering::Relaxed)
    }

    /// The exact value, unrecorded (for assertions).
    pub fn peek(&self) -> i64 {
        self.global.load(Ordering::Relaxed)
            + self
                .deltas
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .sum::<i64>()
    }
}

/// A link counter in one of the two representations the statbench
/// ablation compares (§7.2's "shared st_nlink" mode).
#[derive(Debug)]
pub enum LinkCounter<L> {
    /// Refcache: per-core deltas, reconciled on demand. Boxed: it holds one
    /// padded cache line per core and would otherwise bloat every inode in
    /// shared-count mode too.
    Scalable(Box<Refcache<L>>),
    /// One shared count on the line `{label}.shared`.
    Shared(SharedCounter<L>),
}

impl<L: Lines + Clone> LinkCounter<L> {
    /// A zero count labelled `label`: a Refcache counter, or one shared
    /// count with `shared`.
    pub fn new(lines: Option<&L>, label: impl Display, cores: usize, shared: bool) -> Self {
        if shared {
            LinkCounter::Shared(SharedCounter::new(lines, format_args!("{label}.shared")))
        } else {
            LinkCounter::Scalable(Box::new(Refcache::new(lines, label, cores, 0)))
        }
    }

    /// Adds a link on behalf of `core`.
    pub fn inc(&self, core: CoreId) {
        match self {
            LinkCounter::Scalable(rc) => rc.inc(core),
            LinkCounter::Shared(count) => count.add(1),
        }
    }

    /// Drops a link on behalf of `core`.
    pub fn dec(&self, core: CoreId) {
        match self {
            LinkCounter::Scalable(rc) => rc.dec(core),
            LinkCounter::Shared(count) => count.add(-1),
        }
    }

    /// The exact count (what `st_nlink` returns).
    pub fn read_exact(&self) -> i64 {
        match self {
            LinkCounter::Scalable(rc) => rc.read_exact(),
            LinkCounter::Shared(count) => count.read(),
        }
    }

    /// Reconciles the count at an epoch boundary and returns it.
    pub fn reconcile(&self) -> i64 {
        match self {
            LinkCounter::Scalable(rc) => rc.flush_epoch(),
            LinkCounter::Shared(count) => count.read(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::SimMachine;

    #[test]
    fn inc_dec_and_flush_reconcile() {
        let m = SimMachine::new();
        let rc = Refcache::new(Some(&m), "inode.nlink", 4, 1);
        rc.inc(0);
        rc.inc(1);
        rc.dec(2);
        assert_eq!(rc.peek(), 2);
        assert_eq!(rc.read_exact(), 2);
        assert_eq!(rc.flush_epoch(), 2);
        assert_eq!(rc.read_reconciled(), 2);
    }

    #[test]
    fn concurrent_inc_dec_are_conflict_free() {
        let m = SimMachine::new();
        let rc = Refcache::new(Some(&m), "inode.nlink", 8, 1);
        m.start_tracing();
        for core in 0..8 {
            m.on_core(core, || {
                rc.inc(core);
                rc.dec(core);
            });
        }
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn exact_read_conflicts_with_updates_and_reconciled_read_does_not() {
        let m = SimMachine::new();
        let rc = Refcache::new(Some(&m), "inode.nlink", 4, 1);
        m.start_tracing();
        m.on_core(0, || rc.inc(0));
        let mark = m.access_count();
        m.on_core(1, || rc.read_reconciled());
        assert!(m.conflict_report().is_conflict_free());
        m.on_core(1, || rc.read_exact());
        assert!(!m.conflict_report().is_conflict_free());
        assert!(m.conflict_report_since(mark).is_conflict_free());
    }

    #[test]
    fn shared_link_count_is_one_line() {
        let m = SimMachine::new();
        let count = LinkCounter::new(Some(&m), "inode[1].nlink", 4, true);
        m.start_tracing();
        m.on_core(0, || count.inc(0));
        m.on_core(1, || count.dec(1));
        assert_eq!(count.reconcile(), 0);
        assert_eq!(
            m.conflict_report().conflicting_labels(),
            ["inode[1].nlink.shared"]
        );
    }
}
