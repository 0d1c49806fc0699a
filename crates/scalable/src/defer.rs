//! Deferred resource reclamation (§6.3 "defer work").
//!
//! Kernels often must free a resource when its last reference disappears,
//! but releasing it *immediately* requires eagerly tracking references and
//! makes otherwise-commutative operations conflict. ScaleFS instead defers
//! reclamation: each core appends condemned resources to its own queue, and
//! a periodic pass (an epoch boundary, run per core from a timer tick)
//! drains the queues and reclaims everything whose reference count
//! reconciled to zero.
//!
//! [`DeferQueue`] is the per-core queues; the kernel that drains them
//! decides what reclaiming an item means.

use crate::block_of;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use scr_mtrace::{Block, CoreId, Lines};
use std::fmt::Display;

/// Per-core queues of deferred reclamation work, one padded queue and one
/// line (`{label}.defer[c]`) per core.
#[derive(Debug)]
pub struct DeferQueue<T, L> {
    queues: Box<[CachePadded<Mutex<Vec<T>>>]>,
    lines: Option<Block<L>>,
}

impl<T, L: Lines + Clone> DeferQueue<T, L> {
    /// Queues for `cores` cores.
    pub fn new(lines: Option<&L>, label: impl Display, cores: usize) -> Self {
        let cores = cores.max(1);
        DeferQueue {
            queues: (0..cores)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
            lines: block_of(lines, label, cores, |label, c| {
                format!("{label}.defer[{c}]")
            }),
        }
    }

    /// Number of per-core queues.
    pub fn cores(&self) -> usize {
        self.queues.len()
    }

    /// Defers reclamation of `item` on behalf of `core` (a read-modify-write
    /// of that core's queue line only).
    pub fn defer(&self, core: CoreId, item: T) {
        let q = core % self.queues.len();
        if let Some(lines) = &self.lines {
            lines.rmw(q);
        }
        self.queues[q].lock().push(item);
    }

    /// Empties `core`'s queue and returns what it held (a read-modify-write
    /// of that core's queue line).
    pub fn drain(&self, core: CoreId) -> Vec<T> {
        let q = core % self.queues.len();
        if let Some(lines) = &self.lines {
            lines.rmw(q);
        }
        std::mem::take(&mut *self.queues[q].lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::{on_core, SimMachine};

    #[test]
    fn defers_are_conflict_free_and_a_drain_returns_its_cores_items() {
        let m = SimMachine::new();
        let dq: DeferQueue<u64, SimMachine> = DeferQueue::new(Some(&m), "inodes", 4);
        dq.defer(5, 201);
        m.begin_window();
        for core in 0..4 {
            on_core(core, || dq.defer(core, 100 + core as u64));
        }
        assert!(m.end_window().is_conflict_free());
        assert_eq!(dq.drain(1), [201, 101]);
        assert_eq!(dq.drain(1), Vec::<u64>::new());
        assert_eq!(dq.drain(3), [103]);
    }
}
