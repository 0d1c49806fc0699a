//! The real-threads trace sink: MTRACE for OS threads.
//!
//! [`crate::SimMachine`] logs every access into one global log, which is
//! inherently single-threaded. [`HostTraceSink`] is the same monitor for
//! real threads, so the Figure 6 conflict heatmap can be reproduced on
//! hardware, not just under simulation. It owns per-core, lock-free,
//! append-only [`AccessLog`]s behind an epoch-windowed gate: the off path
//! (gate closed) costs a single relaxed atomic load per recorded access;
//! the on path reserves a log slot with one `fetch_add` and one store,
//! touching only the recording core's cache-padded log. `Arc<HostTraceSink>`
//! is a [`Lines`] substrate like the machine, so a host kernel built from
//! the structures of `scr-scalable` records what the simulated kernel
//! records, and its windows are the same [`TraceWindow`]s.

use crate::lines::{LineTable, Lines};
use crate::machine::LineId;
use crate::trace::{current_core, Access, AccessKind, TraceWindow};
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default per-core log capacity (slots, one access each). The largest
/// traced window of the `fig6_wide` benchmark corpus records 19 accesses on
/// one core, so the default leaves ~50× headroom while a window clears and
/// scans only 8 KB per log. Overflow is counted, never silently lost.
pub const DEFAULT_LOG_CAPACITY: usize = 1 << 10;

/// Bit layout of one encoded log slot (an `AtomicU64`):
/// bit 0 = present, bit 1 = write?, bits 2..48 = line id,
/// bits 48..64 = window epoch (wrapping, used to filter stale slots).
const PRESENT_BIT: u64 = 1;
const WRITE_BIT: u64 = 1 << 1;
const LINE_SHIFT: u64 = 2;
const LINE_MASK: u64 = (1 << 46) - 1;
const EPOCH_SHIFT: u64 = 48;
const EPOCH_MASK: u64 = 0xFFFF;

fn encode(line: LineId, kind: AccessKind, epoch: u64) -> u64 {
    debug_assert!(line.0 <= LINE_MASK, "line id out of encodable range");
    let kind_bit = match kind {
        AccessKind::Read => 0,
        AccessKind::Write => WRITE_BIT,
    };
    PRESENT_BIT
        | kind_bit
        | ((line.0 & LINE_MASK) << LINE_SHIFT)
        | ((epoch & EPOCH_MASK) << EPOCH_SHIFT)
}

fn decode(slot: u64, epoch: u64) -> Option<(LineId, AccessKind)> {
    if slot & PRESENT_BIT == 0 || (slot >> EPOCH_SHIFT) & EPOCH_MASK != epoch & EPOCH_MASK {
        return None;
    }
    let kind = if slot & WRITE_BIT != 0 {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    Some((LineId((slot >> LINE_SHIFT) & LINE_MASK), kind))
}

/// A lock-free, append-only, fixed-capacity log of encoded accesses.
///
/// Appending reserves a slot with a relaxed `fetch_add` and publishes the
/// encoded access with one release store; appends past capacity are counted
/// as dropped instead of blocking or reallocating. One log belongs to one
/// "core" slot of the sink and is cache-padded against its neighbours.
pub struct AccessLog {
    slots: Box<[AtomicU64]>,
    cursor: AtomicUsize,
}

impl AccessLog {
    fn new(capacity: usize) -> Self {
        AccessLog {
            slots: (0..capacity.max(1)).map(|_| AtomicU64::new(0)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Slots available before appends start dropping.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn append(&self, line: LineId, kind: AccessKind, epoch: u64) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(idx) {
            slot.store(encode(line, kind, epoch), Ordering::Release);
        }
    }

    /// Clears the used prefix for a fresh window.
    fn reset(&self) {
        let used = self.cursor.swap(0, Ordering::Relaxed).min(self.slots.len());
        for slot in &self.slots[..used] {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// Decodes this log's entries for `epoch` into `out`; returns how many
    /// appends overflowed the capacity.
    fn collect(&self, core: usize, epoch: u64, out: &mut Vec<Access>) -> usize {
        let reserved = self.cursor.load(Ordering::Acquire);
        let readable = reserved.min(self.slots.len());
        for slot in &self.slots[..readable] {
            if let Some((line, kind)) = decode(slot.load(Ordering::Acquire), epoch) {
                out.push(Access {
                    seq: 0,
                    core,
                    line,
                    kind,
                });
            }
        }
        reserved.saturating_sub(self.slots.len())
    }
}

/// The sharing monitor: labelled logical lines, per-core logs, and an
/// epoch-windowed tracing gate.
///
/// Lines are handed out in contiguous blocks through the same
/// [`LineTable`] the simulated machine names its lines with: one naming
/// function per block, and a label formatted only when something asks for
/// it — a shared line in a conflict report or a heat row — so instrumenting
/// a structure costs one allocation, not one per line. The sink is a
/// [`Lines`] substrate, so the structures of `scr-scalable`, holding an
/// `Arc` of it, record into it exactly what they record on the simulated
/// machine.
pub struct HostTraceSink {
    enabled: AtomicBool,
    epoch: AtomicU64,
    lines: Mutex<LineTable>,
    logs: Vec<CachePadded<AccessLog>>,
}

impl HostTraceSink {
    /// A sink with one log per core and the default capacity.
    pub fn new(cores: usize) -> Arc<Self> {
        Self::with_capacity(cores, DEFAULT_LOG_CAPACITY)
    }

    /// A sink with an explicit per-core log capacity.
    pub fn with_capacity(cores: usize, capacity_per_core: usize) -> Arc<Self> {
        Arc::new(HostTraceSink {
            enabled: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            lines: Mutex::new(LineTable::default()),
            logs: (0..cores.max(1))
                .map(|_| CachePadded::new(AccessLog::new(capacity_per_core)))
                .collect(),
        })
    }

    /// Number of per-core logs the sink was built with: an access from a
    /// core at or past it panics.
    pub fn cores(&self) -> usize {
        self.logs.len()
    }

    /// Lines allocated so far.
    pub fn line_count(&self) -> u64 {
        self.lines.lock().line_count()
    }

    /// Blocks allocated so far (a single line is a block of one).
    pub fn block_count(&self) -> usize {
        self.lines.lock().block_count()
    }
}

impl Lines for HostTraceSink {
    /// Line `first + i` is labelled `names(i)`, formatted only when
    /// [`Lines::label_of`] asks for it.
    fn alloc_lines(
        &self,
        len: usize,
        names: impl Fn(usize) -> String + Send + Sync + 'static,
    ) -> LineId {
        self.lines.lock().alloc(len, Box::new(names))
    }

    /// Records one access against the calling thread's current core. The
    /// off path (no open window) is a single relaxed load.
    ///
    /// # Panics
    /// When a window is open and the current core has no log.
    fn record(&self, line: LineId, kind: AccessKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        self.logs[current_core()].append(line, kind, epoch);
    }

    fn label_of(&self, line: LineId) -> String {
        self.lines.lock().label_of(line)
    }

    /// Clears every log, advances the epoch and opens the gate. Accesses
    /// recorded by threads that raced a previous window's close carry the
    /// old epoch and are filtered at collection.
    fn begin_window(&self) {
        for log in &self.logs {
            log.reset();
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// A straggler still recording would race the collection: its
    /// accesses are either seen or filtered by epoch, but never corrupt the
    /// log. The accesses come core by core; `seq` is collection order.
    fn end_window(&self) -> TraceWindow {
        self.enabled.store(false, Ordering::SeqCst);
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut accesses = Vec::new();
        let mut dropped = 0;
        for (core, log) in self.logs.iter().enumerate() {
            dropped += log.collect(core, epoch, &mut accesses);
        }
        for (seq, access) in accesses.iter_mut().enumerate() {
            access.seq = seq as u64;
        }
        TraceWindow::new(accesses, dropped, |line| self.label_of(line))
    }

    /// The caller must have joined the traced threads.
    fn untraced<R>(&self, f: impl FnOnce() -> R) -> R {
        let open = self.enabled.swap(false, Ordering::SeqCst);
        let out = f();
        self.enabled.store(open, Ordering::SeqCst);
        out
    }
}

impl fmt::Debug for HostTraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostTraceSink")
            .field("cores", &self.logs.len())
            .field("tracing", &self.enabled.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::on_core;

    #[test]
    fn gate_closed_records_nothing() {
        let sink = HostTraceSink::new(2);
        let probe = sink.line("x");
        probe.write(0);
        probe.read(0);
        let report = sink.end_window();
        assert!(report.accesses.is_empty());
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn untraced_accesses_stay_out_of_an_open_window() {
        let sink = HostTraceSink::new(2);
        let probe = sink.line("x");
        sink.begin_window();
        probe.write(0);
        sink.untraced(|| probe.read(0));
        probe.write(0);
        assert_eq!(sink.end_window().accesses.len(), 2);
    }

    #[test]
    fn window_records_reads_and_writes_with_core() {
        let sink = HostTraceSink::new(4);
        let probe = sink.line("ctr");
        sink.begin_window();
        on_core(3, || {
            probe.write(0);
            probe.read(0);
        });
        let report = sink.end_window();
        assert_eq!(report.accesses.len(), 2);
        assert!(report.accesses.iter().all(|a| a.core == 3));
        assert_eq!(report.accesses[0].kind, AccessKind::Write);
        assert_eq!(report.accesses[1].kind, AccessKind::Read);
        // One core, so no conflict despite the write.
        assert!(report.is_conflict_free());
    }

    #[test]
    fn cross_thread_write_conflicts_and_labels_resolve() {
        let sink = HostTraceSink::new(2);
        let probe = sink.line("file.refcount");
        sink.begin_window();
        std::thread::scope(|s| {
            for core in 0..2 {
                let probe = probe.clone();
                s.spawn(move || on_core(core, || probe.rmw(0)));
            }
        });
        let report = sink.end_window();
        assert!(!report.is_conflict_free());
        assert_eq!(
            report.conflicting_labels(),
            vec!["file.refcount".to_string()]
        );
    }

    #[test]
    fn windows_are_isolated_by_epoch() {
        let sink = HostTraceSink::new(2);
        let probe = sink.line("a");
        sink.begin_window();
        probe.write(0);
        let first = sink.end_window();
        assert_eq!(first.accesses.len(), 1);
        sink.begin_window();
        let second = sink.end_window();
        assert!(second.accesses.is_empty(), "stale accesses leaked");
    }

    #[test]
    fn overflow_is_counted_and_never_conflict_free() {
        let sink = HostTraceSink::with_capacity(1, 4);
        let probe = sink.line("hot");
        sink.begin_window();
        for _ in 0..10 {
            probe.read(0);
        }
        let report = sink.end_window();
        assert_eq!(report.accesses.len(), 4);
        assert_eq!(report.dropped, 6);
        assert!(!report.is_conflict_free());
    }

    #[test]
    fn unknown_line_label_falls_back() {
        let sink = HostTraceSink::new(1);
        assert_eq!(sink.label_of(LineId(99)), "line#99");
    }

    #[test]
    fn lines_are_allocated_in_blocks_named_on_demand() {
        let sink = HostTraceSink::new(1);
        let a = sink.line("a");
        let block = sink.block(3, |i| format!("b[{i}]"));
        assert_eq!((a.line(0), block.line(0)), (LineId(0), LineId(1)));
        let labels: Vec<String> = (0..5).map(|l| sink.label_of(LineId(l))).collect();
        assert_eq!(labels, ["a", "b[0]", "b[1]", "b[2]", "line#4"]);
        assert_eq!((sink.line_count(), sink.block_count()), (4, 2));
    }

    #[test]
    fn max_core_accesses_is_the_fullest_log() {
        let sink = HostTraceSink::new(2);
        let probe = sink.line("x");
        sink.begin_window();
        on_core(0, || probe.read(0));
        on_core(1, || {
            probe.read(0);
            probe.rmw(0);
        });
        assert_eq!(sink.end_window().max_core_accesses(), 3);
        sink.begin_window();
        assert_eq!(sink.end_window().max_core_accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn an_access_from_a_core_without_a_log_panics() {
        // Filing it under another core's log could hide a conflict or
        // invent one.
        let sink = HostTraceSink::new(2);
        let probe = sink.line("x");
        sink.begin_window();
        on_core(2, || probe.write(0));
    }
}
