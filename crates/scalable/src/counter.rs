//! Counters: one shared count, and a count sharded across cores.
//!
//! A sharded counter keeps one cache line per core; increments and
//! decrements touch only the invoking core's shard, so commutative updates
//! from different cores are conflict-free. Reading the exact value requires
//! summing every shard and therefore conflicts with concurrent updates —
//! which is fine, because an exact read does not commute with updates
//! anyway. The shared counter is the non-scalable baseline: every update is
//! a read-modify-write of one line (the §7.2 observation that even one
//! contended cache line wrecks scalability).

use crate::block_of;
use crossbeam::utils::CachePadded;
use scr_mtrace::{Block, CoreId, Lines};
use std::fmt::Display;
use std::sync::atomic::{AtomicI64, Ordering};

/// A single shared count on the line `label`.
#[derive(Debug)]
pub struct SharedCounter<L> {
    value: AtomicI64,
    line: Option<Block<L>>,
}

impl<L: Lines + Clone> SharedCounter<L> {
    /// A counter starting at zero.
    pub fn new(lines: Option<&L>, label: impl Display) -> Self {
        SharedCounter {
            value: AtomicI64::new(0),
            line: block_of(lines, label, 1, |label, _| label.to_string()),
        }
    }

    /// Adds `delta` (a read-modify-write of the one line).
    pub fn add(&self, delta: i64) {
        if let Some(line) = &self.line {
            line.rmw(0);
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn read(&self) -> i64 {
        if let Some(line) = &self.line {
            line.read(0);
        }
        self.value.load(Ordering::Relaxed)
    }
}

/// A counter sharded across cores, one padded shard and one line
/// (`{label}.shard[c]`) per core.
#[derive(Debug)]
pub struct PerCoreCounter<L> {
    shards: Box<[CachePadded<AtomicI64>]>,
    lines: Option<Block<L>>,
}

impl<L: Lines + Clone> PerCoreCounter<L> {
    /// A counter with `shards` shards, all zero.
    pub fn new(lines: Option<&L>, label: impl Display, shards: usize) -> Self {
        let shards = shards.max(1);
        PerCoreCounter {
            shards: (0..shards)
                .map(|_| CachePadded::new(AtomicI64::new(0)))
                .collect(),
            lines: block_of(lines, label, shards, |label, c| {
                format!("{label}.shard[{c}]")
            }),
        }
    }

    /// Adds `delta` on behalf of `core` (touches only that core's shard).
    pub fn add(&self, core: CoreId, delta: i64) {
        let shard = core % self.shards.len();
        if let Some(lines) = &self.lines {
            lines.rmw(shard);
        }
        self.shards[shard].fetch_add(delta, Ordering::Relaxed);
    }

    /// Reads the exact value by summing every shard (touches every shard).
    pub fn read(&self) -> i64 {
        if let Some(lines) = &self.lines {
            (0..self.shards.len()).for_each(|shard| lines.read(shard));
        }
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::SimMachine;
    use std::sync::Arc;

    #[test]
    fn concurrent_adds_are_conflict_free_and_exact_reads_conflict() {
        let m = SimMachine::new();
        let ctr = PerCoreCounter::new(Some(&m), "nlink", 8);
        m.start_tracing();
        for core in 0..8 {
            m.on_core(core, || ctr.add(core, 1));
        }
        assert!(m.conflict_report().is_conflict_free());
        m.on_core(1, || assert_eq!(ctr.read(), 8));
        assert!(!m.conflict_report().is_conflict_free());
    }

    #[test]
    fn shard_count_wraps_core_ids() {
        let m = SimMachine::new();
        let ctr = PerCoreCounter::new(Some(&m), "c", 2);
        m.start_tracing();
        ctr.add(5, 10); // core 5 maps to shard 1
        assert_eq!(m.label_of(m.accesses()[0].line), "c.shard[1]");
        assert_eq!(ctr.read(), 10);
    }

    #[test]
    fn shared_updates_from_two_cores_conflict() {
        let m = SimMachine::new();
        let ctr = SharedCounter::new(Some(&m), "file.refcount");
        m.start_tracing();
        m.on_core(0, || ctr.add(1));
        m.on_core(1, || ctr.add(-1));
        assert_eq!(ctr.read(), 0);
        assert_eq!(m.conflict_report().conflicting_labels(), ["file.refcount"]);
    }

    #[test]
    fn counters_are_thread_safe() {
        type Host = Arc<scr_hostmtrace::HostTraceSink>;
        let shared: SharedCounter<Host> = SharedCounter::new(None, "shared");
        let percore: PerCoreCounter<Host> = PerCoreCounter::new(None, "percore", 4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (shared, percore) = (&shared, &percore);
                s.spawn(move || {
                    for _ in 0..1000 {
                        shared.add(1);
                        percore.add(t, 1);
                    }
                });
            }
        });
        assert_eq!((shared.read(), percore.read()), (4000, 4000));
    }
}
