//! A lock whose lock word lives on its own line.
//!
//! What matters about a lock for the conflict analysis is its footprint:
//! acquiring it reads and writes the lock word's cache line, exactly like a
//! real spinlock's `lock cmpxchg`, and releasing it writes the line. Two
//! cores taking the same lock therefore conflict on that line — this is
//! how the Linux-like baseline's coarse locks (and the host kernel's giant
//! lock) show up in the Figure 6 results. The directory's per-bucket locks
//! record the same acquire/release pair on their bucket's lock-word line.

use crate::block_of;
use parking_lot::{Mutex, MutexGuard};
use scr_mtrace::{Block, Lines};
use std::fmt::Display;

/// A mutual-exclusion lock plus the line its lock word records on.
#[derive(Debug)]
pub struct LockWord<L> {
    lock: Mutex<()>,
    word: Option<Block<L>>,
}

impl<L: Lines + Clone> LockWord<L> {
    /// A lock whose word is a fresh line labelled `label`.
    pub fn new(lines: Option<&L>, label: impl Display) -> Self {
        LockWord {
            lock: Mutex::new(()),
            word: block_of(lines, label, 1, |label, _| label.to_string()),
        }
    }

    /// Runs `f` with the lock held: the acquisition is recorded before `f`
    /// and the release after it.
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        let _held = self.lock.lock();
        if let Some(word) = &self.word {
            word.acquire(0);
        }
        let out = f();
        if let Some(word) = &self.word {
            word.release(0);
        }
        out
    }

    /// Takes the lock until the guard drops, recording the acquisition and
    /// the release up front — within a traced window only the access
    /// multiset matters, and a lock held across a whole call has no
    /// earlier point to record its release at.
    pub fn hold(&self) -> MutexGuard<'_, ()> {
        if let Some(word) = &self.word {
            word.acquire(0);
            word.release(0);
        }
        self.lock.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::{AccessKind, SimMachine};

    #[test]
    fn with_records_acquire_then_release_around_the_body() {
        let m = SimMachine::new();
        let lock = LockWord::new(Some(&m), "dir.lock");
        let body = m.cell("dir.entries", 0u8);
        m.start_tracing();
        assert_eq!(lock.with(|| body.get()), 0);
        let kinds: Vec<_> = m
            .accesses()
            .iter()
            .map(|a| (m.label_of(a.line), a.kind))
            .collect();
        let word = |kind| ("dir.lock".to_string(), kind);
        assert_eq!(
            kinds,
            [
                word(AccessKind::Read),
                word(AccessKind::Write),
                ("dir.entries".to_string(), AccessKind::Read),
                word(AccessKind::Write)
            ]
        );
    }

    #[test]
    fn contended_lock_is_a_conflict() {
        let m = SimMachine::new();
        let lock = LockWord::new(Some(&m), "parent_dir.lock");
        m.start_tracing();
        m.on_core(0, || lock.with(|| ()));
        m.on_core(1, || drop(lock.hold()));
        let report = m.conflict_report();
        assert_eq!(report.conflicting_labels(), ["parent_dir.lock"]);
    }

    #[test]
    fn distinct_locks_do_not_conflict() {
        let m = SimMachine::new();
        let a = LockWord::new(Some(&m), "bucket[0].lock");
        let b = LockWord::new(Some(&m), "bucket[1].lock");
        m.start_tracing();
        m.on_core(0, || a.with(|| ()));
        m.on_core(1, || b.with(|| ()));
        assert!(m.conflict_report().is_conflict_free());
    }
}
