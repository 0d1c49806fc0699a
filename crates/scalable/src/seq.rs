//! Seqlocks (§6.3, citing Lameter's Linux/NUMA synchronisation survey).
//!
//! A seqlock protects a small piece of metadata with a sequence counter:
//! writers bump the counter to an odd value, update the data, then bump it
//! to the next even value; readers read the counter, read the data, and
//! retry if the counter changed or was odd. Readers never write shared
//! memory, so concurrent readers are conflict-free; a reader concurrent
//! with a writer conflicts (as it must — they don't commute).
//!
//! The protected value here is one word (a file size in pages), which a
//! seqlock over a single word reduces to: the value is one atomic, and the
//! protocol survives as the recorded footprint on the `.seq` and `.data`
//! lines.

use crate::block_of;
use scr_mtrace::{Block, Lines};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

const SEQ: usize = 0;
const DATA: usize = 1;

/// A seqlock-protected word, on the lines `{label}.seq` and `{label}.data`.
#[derive(Debug)]
pub struct SeqLock<L> {
    value: AtomicU64,
    lines: Option<Block<L>>,
}

impl<L: Lines + Clone> SeqLock<L> {
    /// A seqlock holding `value`.
    pub fn new(lines: Option<&L>, label: impl Display, value: u64) -> Self {
        SeqLock {
            value: AtomicU64::new(value),
            lines: block_of(lines, label, 2, |label, i| {
                format!("{label}.{}", ["seq", "data"][i])
            }),
        }
    }

    fn read_lines(&self) {
        if let Some(lines) = &self.lines {
            lines.read(SEQ);
            lines.read(DATA);
            lines.read(SEQ);
        }
    }

    fn write_lines(&self) {
        if let Some(lines) = &self.lines {
            lines.rmw(SEQ);
            lines.rmw(DATA);
            lines.rmw(SEQ);
        }
    }

    /// Reads the value with the read protocol (reads only).
    pub fn read(&self) -> u64 {
        self.read_lines();
        self.value.load(Ordering::Acquire)
    }

    /// Updates the value with the write protocol.
    pub fn write(&self, f: impl Fn(u64) -> u64) {
        self.write_lines();
        let _ = self
            .value
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(f(v)));
    }

    /// Raises the value to at least `v` and returns the previous value: a
    /// read, then a write only when the value actually grew (the
    /// optimistic "grow only when extending" protocol).
    pub fn fetch_max(&self, v: u64) -> u64 {
        self.read_lines();
        let prev = self.value.fetch_max(v, Ordering::AcqRel);
        if prev < v {
            self.write_lines();
        }
        prev
    }

    /// The value, unrecorded (for assertions).
    pub fn peek(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::SimMachine;

    #[test]
    fn readers_are_conflict_free_and_a_writer_conflicts() {
        let m = SimMachine::new();
        let sl = SeqLock::new(Some(&m), "inode.size", 1);
        m.start_tracing();
        m.on_core(0, || assert_eq!(sl.read(), 1));
        m.on_core(1, || assert_eq!(sl.read(), 1));
        assert!(m.conflict_report().is_conflict_free());
        m.on_core(2, || sl.write(|v| v + 1));
        assert_eq!(
            m.conflict_report().conflicting_labels(),
            ["inode.size.data", "inode.size.seq"]
        );
        assert_eq!(sl.peek(), 2);
    }

    #[test]
    fn fetch_max_writes_only_when_it_grows_the_value() {
        let m = SimMachine::new();
        let sl = SeqLock::new(Some(&m), "inode.size", 3);
        m.start_tracing();
        assert_eq!(sl.fetch_max(2), 3);
        assert_eq!(m.access_count(), 3);
        assert_eq!(sl.fetch_max(5), 3);
        assert_eq!((m.access_count(), sl.peek()), (12, 5));
    }
}
