//! The host kernel's process table: lock-free, append-only and indexable.
//!
//! The simulated kernels keep processes in an untraced `RefCell<Vec<…>>`;
//! the paper's point about `posix_spawn` is that process creation should
//! commute with everything that does not observe the new pid, so the host
//! table must not reintroduce a writer lock that every concurrent syscall's
//! pid lookup would bounce on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Segment size of a [`ProcTable`] (slots per lazily allocated chunk).
const PROC_SEG_SIZE: usize = 512;
/// Maximum number of segments, bounding the table at 2 097 152 processes.
/// The mail workload spawns one short-lived helper per delivered message
/// and pids are never reused (matching the simulated kernels), so the
/// bound must absorb a full wide benchmark sweep; exceeding it is a
/// panic, not UB.
const PROC_SEGMENTS: usize = 4096;

/// One lazily allocated chunk of a [`ProcTable`].
type ProcSegment<T> = Box<[OnceLock<T>]>;

/// A lock-free, append-only indexable table. Lookups are wait-free reads
/// of a lazily
/// allocated segment; `push_with` claims a dense pid with one `fetch_add`
/// and publishes the entry with a release store. Entries are never removed
/// ("zombie-reaped" processes keep their pid, with an emptied descriptor
/// table), matching the simulated kernels.
#[derive(Debug)]
pub(crate) struct ProcTable<T> {
    segments: Box<[OnceLock<ProcSegment<T>>]>,
    next: AtomicUsize,
}

impl<T> ProcTable<T> {
    /// An empty table. No segment is allocated until first use.
    pub(crate) fn new() -> Self {
        ProcTable {
            segments: (0..PROC_SEGMENTS)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next dense index, builds the entry with it (probe labels
    /// need the pid before construction), and publishes it. A concurrent
    /// `get` of the claimed index returns `None` until the entry is
    /// published — callers cannot observe the pid before `push_with`
    /// returns it, so only a guessed pid ever sees the gap.
    pub(crate) fn push_with(&self, build: impl FnOnce(usize) -> T) -> usize {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            idx < PROC_SEG_SIZE * PROC_SEGMENTS,
            "process table exhausted"
        );
        let segment = self.segments[idx / PROC_SEG_SIZE].get_or_init(|| {
            (0..PROC_SEG_SIZE)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        if segment[idx % PROC_SEG_SIZE].set(build(idx)).is_err() {
            unreachable!("index {idx} claimed twice");
        }
        idx
    }

    /// Number of claimed indices (entries mid-construction included).
    pub(crate) fn len(&self) -> usize {
        self.next.load(Ordering::Acquire)
    }

    /// Looks up an entry by index, wait-free. The table is append-only and
    /// a published entry never moves or is freed before the table itself,
    /// so the borrow lasts as long as the table's: a lookup writes nothing,
    /// not even a reference count shared by every thread using that index.
    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        self.segments
            .get(idx / PROC_SEG_SIZE)?
            .get()?
            .get(idx % PROC_SEG_SIZE)?
            .get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_table_is_dense_and_wait_free_to_read() {
        let table: ProcTable<String> = ProcTable::new();
        assert_eq!(table.len(), 0);
        let a = table.push_with(|pid| format!("proc-{pid}"));
        let b = table.push_with(|pid| format!("proc-{pid}"));
        assert_eq!((a, b), (0, 1));
        assert_eq!(table.get(0).unwrap(), "proc-0");
        assert_eq!(table.get(1).unwrap(), "proc-1");
        assert_eq!(table.get(2), None);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn proc_table_concurrent_pushes_assign_unique_dense_pids() {
        let table: ProcTable<usize> = ProcTable::new();
        let threads = 4;
        let per_thread = 200;
        let pids = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mine: Vec<usize> = (0..per_thread)
                        .map(|_| table.push_with(|pid| pid))
                        .collect();
                    pids.lock().unwrap().extend(mine);
                });
            }
        });
        let mut pids = pids.into_inner().unwrap();
        pids.sort_unstable();
        assert_eq!(pids, (0..threads * per_thread).collect::<Vec<_>>());
        for pid in pids {
            assert_eq!(*table.get(pid).unwrap(), pid, "entry stores its own pid");
        }
    }

    #[test]
    fn proc_table_entries_never_move() {
        // `get` lends `&T` for the table's lifetime, which is only sound to
        // rely on if growth never relocates a published entry: the borrow
        // taken before 10 000 further pushes from two threads (twenty new
        // segments) must still be the entry's address afterwards.
        let table: ProcTable<usize> = ProcTable::new();
        let first = table.push_with(|pid| pid);
        let before: &usize = table.get(first).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        table.push_with(|pid| pid);
                    }
                });
            }
        });
        assert_eq!(table.len(), 10_001);
        assert!(std::ptr::eq(before, table.get(first).unwrap()));
        assert_eq!(*before, first);
    }
}
