//! Per-core inode number allocation (§6.3 "defer work").
//!
//! Inode numbers come from a per-core monotonically increasing counter
//! concatenated with the core number, so numbers are never reused and
//! allocation never touches another core's cache line. Every kernel built
//! on this allocator hands out identical numbers for identical per-core
//! allocation sequences, which is what lets the differential runner compare
//! `stat` results bit-for-bit.

use crate::block_of;
use crossbeam::utils::CachePadded;
use scr_mtrace::{Block, CoreId, Lines};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocates never-reused inode numbers from per-core counters, one padded
/// counter and one line (`{label}.next_ino[c]`) per core.
#[derive(Debug)]
pub struct InodeAllocator<L> {
    counters: Box<[CachePadded<AtomicU64>]>,
    lines: Option<Block<L>>,
}

impl<L: Lines + Clone> InodeAllocator<L> {
    /// An allocator with one counter per core.
    pub fn new(lines: Option<&L>, label: impl Display, cores: usize) -> Self {
        let cores = cores.max(1);
        InodeAllocator {
            counters: (0..cores)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            lines: block_of(lines, label, cores, |label, c| {
                format!("{label}.next_ino[{c}]")
            }),
        }
    }

    /// Allocates a fresh inode number on `core`: `(counter << 8) | core`,
    /// the counter pre-incremented, so the first number on core 0 is
    /// `1 << 8`.
    pub fn alloc(&self, core: CoreId) -> u64 {
        let core = core % self.counters.len();
        if let Some(lines) = &self.lines {
            lines.rmw(core);
        }
        let count = self.counters[core].fetch_add(1, Ordering::Relaxed) + 1;
        (count << 8) | core as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::{on_core, SimMachine};

    #[test]
    fn numbers_are_unique_and_allocation_is_conflict_free_across_cores() {
        let m = SimMachine::new();
        let alloc = InodeAllocator::new(Some(&m), "scalefs", 4);
        assert_eq!(alloc.alloc(0), 1 << 8);
        m.begin_window();
        let mut seen = std::collections::BTreeSet::new();
        for core in 0..4 {
            for _ in 0..10 {
                assert!(on_core(core, || seen.insert(alloc.alloc(core))));
            }
        }
        assert_eq!(seen.len(), 40);
        assert!(m.end_window().is_conflict_free());
    }
}
