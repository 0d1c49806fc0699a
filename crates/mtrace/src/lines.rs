//! The line substrate: lines allocated in named blocks, and the accesses a
//! structure records on them.
//!
//! Every scalable structure keeps its data in ordinary memory and records
//! its *footprint* — which logical cache line each operation reads or
//! writes — through a [`Lines`] implementation. The simulated machine
//! implements it, and so does the real-threads sink of `scr-hostmtrace`, so
//! one structure type serves both: the same operation records the same
//! (core, label, kind) sequence on either.
//!
//! Lines are handed out in contiguous [`Block`]s, one per structure or per
//! index range of one (a directory's buckets, a counter's per-core shards).
//! A block keeps one naming function instead of a label per line, and
//! [`LineTable::label_of`] formats a label only when a report asks for one.

use crate::machine::LineId;
use crate::trace::AccessKind;
use std::fmt;
use std::sync::Arc;

/// Names the lines of one block from their index within it.
pub type LineNames = Box<dyn Fn(usize) -> String + Send + Sync>;

/// A run of consecutive line ids allocated together.
struct NamedBlock {
    first: u64,
    len: u64,
    names: LineNames,
}

/// The block table both line substrates name their lines through.
#[derive(Default)]
pub struct LineTable {
    /// Blocks in allocation order, so sorted by `first`.
    blocks: Vec<NamedBlock>,
}

impl LineTable {
    /// Allocates `len` consecutive lines named by `names` and returns the
    /// first. An empty block allocates nothing and names nothing.
    pub fn alloc(&mut self, len: usize, names: LineNames) -> LineId {
        let first = self.line_count();
        if len > 0 {
            self.blocks.push(NamedBlock {
                first,
                len: len as u64,
                names,
            });
        }
        LineId(first)
    }

    /// The label of a line: its block's name for it, or `line#N` for an id
    /// no block holds.
    pub fn label_of(&self, line: LineId) -> String {
        let idx = self.blocks.partition_point(|b| b.first + b.len <= line.0);
        match self.blocks.get(idx) {
            Some(b) if b.first <= line.0 => (b.names)((line.0 - b.first) as usize),
            _ => format!("line#{}", line.0),
        }
    }

    /// Lines allocated so far.
    pub fn line_count(&self) -> u64 {
        self.blocks.last().map_or(0, |b| b.first + b.len)
    }

    /// Blocks allocated so far (a single line is a block of one).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

impl fmt::Debug for LineTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineTable")
            .field("lines", &self.line_count())
            .field("blocks", &self.block_count())
            .finish()
    }
}

/// Somewhere a structure's lines live and its accesses are recorded: the
/// simulated machine, or a real-threads trace sink. Allocation never
/// records an access; recording attributes the access to the substrate's
/// current core. A structure holds a cloneable handle to its substrate (a
/// [`crate::SimMachine`], or an `Arc` of a sink).
pub trait Lines {
    /// Allocates `len` consecutive lines, line `first + i` named
    /// `names(i)`, and returns the first.
    fn alloc_lines(
        &self,
        len: usize,
        names: impl Fn(usize) -> String + Send + Sync + 'static,
    ) -> LineId;

    /// Records one access to `line`.
    fn record(&self, line: LineId, kind: AccessKind);

    /// Allocates a block of `len` lines named by `names`.
    fn block(
        &self,
        len: usize,
        names: impl Fn(usize) -> String + Send + Sync + 'static,
    ) -> Block<Self>
    where
        Self: Clone + Sized,
    {
        Block {
            first: self.alloc_lines(len, names),
            len,
            lines: self.clone(),
        }
    }

    /// Allocates a block of one line labelled `label`.
    fn line(&self, label: impl Into<String>) -> Block<Self>
    where
        Self: Clone + Sized,
    {
        let label = label.into();
        self.block(1, move |_| label.clone())
    }

    /// Records a load.
    fn read(&self, line: LineId) {
        self.record(line, AccessKind::Read);
    }

    /// Records a store.
    fn write(&self, line: LineId) {
        self.record(line, AccessKind::Write);
    }

    /// Records a read-modify-write: one read, then one write.
    fn rmw(&self, line: LineId) {
        self.read(line);
        self.write(line);
    }

    /// Records a lock acquisition on a lock-word line: a read-modify-write,
    /// like a real `lock cmpxchg`.
    fn acquire(&self, line: LineId) {
        self.rmw(line);
    }

    /// Records a lock release on a lock-word line: a plain store.
    fn release(&self, line: LineId) {
        self.write(line);
    }
}

/// A shared substrate is a substrate.
impl<T: Lines + ?Sized> Lines for Arc<T> {
    fn alloc_lines(
        &self,
        len: usize,
        names: impl Fn(usize) -> String + Send + Sync + 'static,
    ) -> LineId {
        (**self).alloc_lines(len, names)
    }

    fn record(&self, line: LineId, kind: AccessKind) {
        (**self).record(line, kind);
    }
}

/// A structure's lines: a run of consecutive lines of one substrate. The
/// recording methods take the line's index within the block.
#[derive(Clone, Debug)]
pub struct Block<L> {
    lines: L,
    first: LineId,
    len: usize,
}

impl<L: Lines> Block<L> {
    /// Line `i` of the block.
    ///
    /// # Panics
    /// When `i` is not below the block's length.
    pub fn line(&self, i: usize) -> LineId {
        assert!(i < self.len, "line {i} outside a block of {}", self.len);
        LineId(self.first.0 + i as u64)
    }

    /// The substrate the block's lines belong to.
    pub fn lines(&self) -> &L {
        &self.lines
    }

    /// Records a load of line `i`.
    pub fn read(&self, i: usize) {
        self.lines.read(self.line(i));
    }

    /// Records a store to line `i`.
    pub fn write(&self, i: usize) {
        self.lines.write(self.line(i));
    }

    /// Records a read-modify-write of line `i`.
    pub fn rmw(&self, i: usize) {
        self.lines.rmw(self.line(i));
    }

    /// Records acquiring the lock word on line `i`.
    pub fn acquire(&self, i: usize) {
        self.lines.acquire(self.line(i));
    }

    /// Records releasing the lock word on line `i`.
    pub fn release(&self, i: usize) {
        self.lines.release(self.line(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimMachine;

    #[test]
    fn blocks_and_single_lines_interleave_and_name_on_demand() {
        let mut table = LineTable::default();
        let a = table.alloc(1, Box::new(|_| "a".into()));
        let block = table.alloc(3, Box::new(|i| format!("b[{i}]")));
        let empty = table.alloc(
            0,
            Box::new(|_| unreachable!("an empty block names nothing")),
        );
        let c = table.alloc(1, Box::new(|_| "c".into()));
        assert_eq!(
            (a, block, empty, c),
            (LineId(0), LineId(1), LineId(4), LineId(4))
        );
        let labels: Vec<String> = (0..6).map(|l| table.label_of(LineId(l))).collect();
        assert_eq!(labels, ["a", "b[0]", "b[1]", "b[2]", "c", "line#5"]);
        assert_eq!((table.line_count(), table.block_count()), (5, 3));
    }

    #[test]
    fn lock_word_and_rmw_record_their_footprints() {
        use AccessKind::{Read, Write};
        let m = SimMachine::new();
        let block = m.block(4, |i| {
            format!("d.bucket[{}].{}", i / 2, ["lock", "entries"][i % 2])
        });
        m.start_tracing();
        block.acquire(2);
        block.read(3);
        block.rmw(3);
        block.release(2);
        let trace: Vec<_> = m
            .accesses()
            .iter()
            .map(|a| (m.label_of(a.line), a.kind))
            .collect();
        let lock = |kind| ("d.bucket[1].lock".to_string(), kind);
        let entries = |kind| ("d.bucket[1].entries".to_string(), kind);
        assert_eq!(
            trace,
            [
                lock(Read),
                lock(Write),
                entries(Read),
                entries(Read),
                entries(Write),
                lock(Write)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "outside a block")]
    fn block_index_past_the_end_panics() {
        SimMachine::new().block(2, |i| format!("x[{i}]")).read(2);
    }
}
