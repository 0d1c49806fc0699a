//! Probe handles: the instrumentation side of the monitor.
//!
//! A [`Probe`] stands for one logical cache line of an instrumented host
//! structure; a [`ProbeBlock`] for a structure's per-index lines (stripes,
//! descriptor slots, per-core shards), allocated as one block whose labels
//! are formatted only when a report asks. A line handle's lock-word
//! `acquire`/`release` and the composite [`SeqProbe`] reproduce the access
//! footprints of their simulated twins (`TracedLock`, `SeqLock`) so a host
//! structure records the same multiset of accesses its simulated
//! counterpart would — which is what makes the SIM↔host cross-check of the
//! Figure 6 pipeline meaningful.

use crate::sink::HostTraceSink;
use scr_mtrace::trace::AccessKind;
use scr_mtrace::LineId;
use std::sync::Arc;

/// A borrowed handle to one line: what [`ProbeBlock::at`] and
/// [`Probe::handle`] return, and where recording happens.
#[derive(Clone, Copy)]
pub struct ProbeRef<'a> {
    sink: &'a HostTraceSink,
    line: LineId,
}

impl ProbeRef<'_> {
    /// The line's label, formatted now.
    pub fn label(&self) -> String {
        self.sink.label_of(self.line)
    }

    /// Records a load (mirrors `TracedCell::get`/`with`).
    pub fn read(&self) {
        self.sink.record(self.line, AccessKind::Read);
    }

    /// Records a store (mirrors `TracedCell::set`).
    pub fn write(&self) {
        self.sink.record(self.line, AccessKind::Write);
    }

    /// Records a read-modify-write (mirrors `TracedCell::update` /
    /// `fetch_update`: one read then one write).
    pub fn rmw(&self) {
        self.read();
        self.write();
    }

    /// Records a lock acquisition on this lock-word line: a read-modify-write,
    /// as `TracedLock` records it (a real `lock cmpxchg`).
    pub fn acquire(&self) {
        self.rmw();
    }

    /// Records a lock release on this lock-word line: a plain store.
    pub fn release(&self) {
        self.write();
    }
}

/// A handle to one labelled logical line.
#[derive(Clone)]
pub struct Probe {
    sink: Arc<HostTraceSink>,
    line: LineId,
}

impl Probe {
    pub(crate) fn new(sink: Arc<HostTraceSink>, line: LineId) -> Self {
        Probe { sink, line }
    }

    /// The borrowed handle recording for this probe.
    pub fn handle(&self) -> ProbeRef<'_> {
        ProbeRef {
            sink: &self.sink,
            line: self.line,
        }
    }

    /// The line this probe records against.
    pub fn line(&self) -> LineId {
        self.line
    }

    /// The sink this probe records into.
    pub fn sink(&self) -> &Arc<HostTraceSink> {
        &self.sink
    }

    /// The label the line was allocated with.
    pub fn label(&self) -> String {
        self.handle().label()
    }

    /// Records a load (mirrors `TracedCell::get`/`with`).
    pub fn read(&self) {
        self.handle().read();
    }

    /// Records a store (mirrors `TracedCell::set`).
    pub fn write(&self) {
        self.handle().write();
    }

    /// Records a read-modify-write (mirrors `TracedCell::update` /
    /// `fetch_update`: one read then one write).
    pub fn rmw(&self) {
        self.handle().rmw();
    }
}

/// A structure's per-index lines: one block of consecutive lines in one
/// sink, named by the function the block was allocated with.
#[derive(Clone, Debug)]
pub struct ProbeBlock {
    sink: Arc<HostTraceSink>,
    first: LineId,
    len: usize,
}

impl ProbeBlock {
    pub(crate) fn new(sink: Arc<HostTraceSink>, first: LineId, len: usize) -> Self {
        ProbeBlock { sink, first, len }
    }

    /// The handle of line `i` of the block.
    ///
    /// # Panics
    /// When `i` is not below [`Self::len`].
    pub fn at(&self, i: usize) -> ProbeRef<'_> {
        assert!(i < self.len, "probe {i} outside a block of {}", self.len);
        ProbeRef {
            sink: &self.sink,
            line: LineId(self.first.0 + i as u64),
        }
    }

    /// Number of lines in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a block of no lines.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sink the block's lines record into.
    pub fn sink(&self) -> &Arc<HostTraceSink> {
        &self.sink
    }
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("line", &self.line)
            .field("label", &self.label())
            .finish()
    }
}

/// Mirrors `scr_scalable::SeqLock`'s footprint: readers read the sequence
/// line, the data line, then the sequence line again; writers bump the
/// sequence line, update the data line, and bump the sequence line again.
#[derive(Clone, Debug)]
pub struct SeqProbe {
    /// Line 0 is `.seq`, line 1 `.data`.
    lines: ProbeBlock,
}

impl SeqProbe {
    /// Allocates the `.seq` and `.data` lines under `label`.
    pub fn new(sink: &Arc<HostTraceSink>, label: &str) -> Self {
        let label = label.to_string();
        SeqProbe {
            lines: sink.probe_block(2, move |i| format!("{label}.{}", ["seq", "data"][i])),
        }
    }

    /// Records a seqlock read (reads only — concurrent readers stay
    /// conflict-free).
    pub fn read(&self) {
        let (seq, data) = (self.lines.at(0), self.lines.at(1));
        seq.read();
        data.read();
        seq.read();
    }

    /// Records a seqlock write (both lines read-modify-written).
    pub fn write(&self) {
        let (seq, data) = (self.lines.at(0), self.lines.at(1));
        seq.rmw();
        data.rmw();
        seq.rmw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::on_core;
    use scr_mtrace::trace::AccessKind::{Read, Write};

    fn kinds(sink: &Arc<HostTraceSink>) -> Vec<(usize, AccessKind)> {
        sink.end_window()
            .accesses
            .iter()
            .map(|a| (a.core, a.kind))
            .collect()
    }

    #[test]
    fn lock_word_mirrors_traced_lock() {
        let sink = HostTraceSink::new(2);
        let lock = sink.probe("l");
        sink.begin_window();
        lock.handle().acquire();
        lock.handle().release();
        assert_eq!(kinds(&sink), vec![(0, Read), (0, Write), (0, Write)]);
    }

    #[test]
    fn seq_probe_reader_is_read_only_and_writer_is_not() {
        let sink = HostTraceSink::new(2);
        let seq = SeqProbe::new(&sink, "inode.size");
        sink.begin_window();
        on_core(0, || seq.read());
        on_core(1, || seq.read());
        let readers = sink.end_window();
        assert!(readers.is_conflict_free());
        sink.begin_window();
        on_core(0, || seq.read());
        on_core(1, || seq.write());
        let mixed = sink.end_window();
        assert!(!mixed.is_conflict_free());
        assert!(mixed
            .conflicting_labels()
            .iter()
            .any(|l| l == "inode.size.seq"));
    }

    #[test]
    fn probe_labels_resolve() {
        let sink = HostTraceSink::new(1);
        let p = sink.probe("dentry.refcount");
        assert_eq!(p.label(), "dentry.refcount");
    }

    #[test]
    fn block_lines_record_and_name_like_single_probes() {
        let sink = HostTraceSink::new(2);
        let block = sink.probe_block(4, |i| {
            format!("d.bucket[{}].{}", i / 2, ["lock", "entries"][i % 2])
        });
        assert_eq!(block.len(), 4);
        assert_eq!(block.at(3).label(), "d.bucket[1].entries");
        sink.begin_window();
        block.at(2).acquire();
        block.at(3).read();
        block.at(2).release();
        let report = sink.end_window();
        let trace: Vec<_> = report
            .accesses
            .iter()
            .map(|a| (sink.label_of(a.line), a.kind))
            .collect();
        let lock = |kind| ("d.bucket[1].lock".to_string(), kind);
        assert_eq!(
            trace,
            vec![
                lock(Read),
                lock(Write),
                ("d.bucket[1].entries".to_string(), Read),
                lock(Write)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "outside a block")]
    fn block_index_past_the_end_panics() {
        let sink = HostTraceSink::new(1);
        sink.probe_block(2, |i| format!("x[{i}]")).at(2);
    }
}
