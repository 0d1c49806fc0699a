//! The trace sink: per-thread lock-free access logs behind an epoch-windowed
//! gate, and the window analysis that turns a log into a conflict report.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use scr_mtrace::trace::{analyze, Access, AccessKind, ConflictReport};
use scr_mtrace::{LineId, LineTable, Lines};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

thread_local! {
    /// The "core" accesses from this thread are attributed to — the
    /// real-threads analogue of the simulated machine's current-core
    /// register.
    static CURRENT_CORE: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with the calling thread's core register set to `core`,
/// restoring the previous value afterwards (mirrors
/// `scr_mtrace::SimMachine::on_core`).
pub fn on_core<R>(core: usize, f: impl FnOnce() -> R) -> R {
    CURRENT_CORE.with(|c| {
        let prev = c.replace(core);
        let out = f();
        c.set(prev);
        out
    })
}

/// The core the calling thread's accesses are currently attributed to.
pub fn current_core() -> usize {
    CURRENT_CORE.with(|c| c.get())
}

/// Default per-thread log capacity (slots, one access each). The largest
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

/// The sharing monitor: labelled logical lines, per-thread logs, and an
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

    /// A sink with an explicit per-thread log capacity.
    pub fn with_capacity(cores: usize, capacity_per_thread: usize) -> Arc<Self> {
        Arc::new(HostTraceSink {
            enabled: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            lines: Mutex::new(LineTable::default()),
            logs: (0..cores.max(1))
                .map(|_| CachePadded::new(AccessLog::new(capacity_per_thread)))
                .collect(),
        })
    }

    /// Number of per-thread log slots ("cores") the sink was built with.
    pub fn cores(&self) -> usize {
        self.logs.len()
    }

    /// Allocates a fresh labelled logical line (a one-line block).
    /// Allocation never records an access.
    pub fn alloc_line(&self, label: impl Into<String>) -> LineId {
        let label = label.into();
        self.alloc_lines(1, move |_| label.clone())
    }

    /// Allocates `len` consecutive lines and returns the first; line
    /// `first + i` is labelled `names(i)`, formatted only when
    /// [`Self::label_of`] asks for it. Allocation never records an access.
    pub fn alloc_lines(
        &self,
        len: usize,
        names: impl Fn(usize) -> String + Send + Sync + 'static,
    ) -> LineId {
        self.lines.lock().alloc(len, Box::new(names))
    }

    /// The label of a line: its block's name for it, or `line#N` for an id
    /// no block holds.
    pub fn label_of(&self, line: LineId) -> String {
        self.lines.lock().label_of(line)
    }

    /// Lines allocated so far.
    pub fn line_count(&self) -> u64 {
        self.lines.lock().line_count()
    }

    /// Blocks allocated so far (a single line is a block of one).
    pub fn block_count(&self) -> usize {
        self.lines.lock().block_count()
    }

    /// Is a tracing window currently open?
    pub fn is_tracing(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a tracing window: clears every log, advances the epoch and
    /// opens the gate. Accesses recorded by threads that raced a previous
    /// window's close carry the old epoch and are filtered at collection.
    pub fn begin_window(&self) {
        for log in &self.logs {
            log.reset();
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Closes the window and analyses it. The caller must have joined the
    /// traced threads first — a straggler still recording would race the
    /// collection (its accesses are either seen or filtered by epoch, but
    /// never corrupt the log).
    pub fn end_window(&self) -> HostConflictReport {
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
        let report = analyze(&accesses, |line| self.label_of(line));
        HostConflictReport {
            report,
            accesses,
            dropped,
        }
    }

    /// Records one access against the calling thread's current core. The
    /// off path (no open window) is a single relaxed load.
    pub fn record(&self, line: LineId, kind: AccessKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        let core = current_core() % self.logs.len();
        self.logs[core].append(line, kind, epoch);
    }
}

impl Lines for HostTraceSink {
    fn alloc_lines(
        &self,
        len: usize,
        names: impl Fn(usize) -> String + Send + Sync + 'static,
    ) -> LineId {
        HostTraceSink::alloc_lines(self, len, names)
    }

    fn record(&self, line: LineId, kind: AccessKind) {
        HostTraceSink::record(self, line, kind);
    }
}

impl fmt::Debug for HostTraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostTraceSink")
            .field("cores", &self.logs.len())
            .field("tracing", &self.is_tracing())
            .finish()
    }
}

/// The analysis of one traced window: the §3.3 conflict report over the
/// collected accesses, plus the raw window and overflow accounting.
#[derive(Clone, Debug)]
pub struct HostConflictReport {
    /// Shared (conflicting) lines, in the shared `scr-mtrace` vocabulary.
    pub report: ConflictReport,
    /// The collected accesses (core-major order; `seq` is collection order).
    pub accesses: Vec<Access>,
    /// Appends that overflowed a log's capacity. A non-zero count means the
    /// window may have missed conflicts, so it is never reported
    /// conflict-free.
    pub dropped: usize,
}

impl HostConflictReport {
    /// Conflict-free means no shared lines *and* no dropped accesses.
    pub fn is_conflict_free(&self) -> bool {
        self.dropped == 0 && self.report.is_conflict_free()
    }

    /// Labels of the conflicting lines (deduplicated, sorted).
    pub fn conflicting_labels(&self) -> Vec<String> {
        self.report.conflicting_labels()
    }

    /// The most accesses one core recorded in this window: how much of a
    /// log's capacity the window used (appends past it are in `dropped`).
    pub fn max_core_accesses(&self) -> usize {
        // Collection is core-major, so each core's accesses are one run.
        self.accesses
            .chunk_by(|a, b| a.core == b.core)
            .map(<[Access]>::len)
            .max()
            .unwrap_or(0)
    }

    /// Digests this window for heat accumulation: per-label read/write
    /// counts plus which labels conflicted. `label_of` maps a [`LineId`] to
    /// the label to accumulate under — callers pass the sink's
    /// [`HostTraceSink::label_of`], optionally composed with a normalizer
    /// (the Figure 6 runner strips per-instance suffixes so heat aggregates
    /// per structure). The digest is computed after the window has ended,
    /// so it adds nothing to the traced footprint; `scr-obs` folds it into
    /// a running `HeatMap`.
    pub fn window_heat(&self, label_of: impl Fn(LineId) -> String) -> WindowHeat {
        let mut per_line: BTreeMap<(LineId, AccessKind), u64> = BTreeMap::new();
        for access in &self.accesses {
            *per_line.entry((access.line, access.kind)).or_default() += 1;
        }
        let mut accesses: BTreeMap<(String, bool), u64> = BTreeMap::new();
        for ((line, kind), count) in per_line {
            *accesses
                .entry((label_of(line), kind == AccessKind::Write))
                .or_default() += count;
        }
        let mut conflicting: Vec<String> = self
            .report
            .shared_lines
            .iter()
            .map(|shared| label_of(shared.line))
            .collect();
        conflicting.sort();
        conflicting.dedup();
        WindowHeat {
            accesses: accesses
                .into_iter()
                .map(|((label, is_write), count)| (label, is_write, count))
                .collect(),
            conflicting,
        }
    }
}

/// The per-label digest of one traced window (see
/// [`HostConflictReport::window_heat`]): normalized labels with read/write
/// counts, plus the deduplicated conflicting labels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowHeat {
    /// `(label, is_write, access count)` triples, label-sorted.
    pub accesses: Vec<(String, bool, u64)>,
    /// Labels that conflicted in this window, sorted and deduplicated.
    pub conflicting: Vec<String>,
}

impl fmt::Display for HostConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped > 0 {
            writeln!(
                f,
                "WARNING: {} accesses dropped (log overflow)",
                self.dropped
            )?;
        }
        write!(f, "{}", self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn window_heat_digests_accesses_and_conflicts() {
        let sink = HostTraceSink::new(2);
        let hot = sink.line("fd-bitmap");
        let cold = sink.line("inode.len");
        sink.begin_window();
        std::thread::scope(|s| {
            for core in 0..2 {
                let hot = hot.clone();
                let cold = cold.clone();
                s.spawn(move || {
                    on_core(core, || {
                        hot.rmw(0);
                        cold.read(0);
                    })
                });
            }
        });
        let report = sink.end_window();
        let heat = report.window_heat(|line| sink.label_of(line));
        // rmw = one read + one write per core; reads and writes are
        // separate label rows, label-sorted.
        assert_eq!(
            heat.accesses,
            vec![
                ("fd-bitmap".to_string(), false, 2),
                ("fd-bitmap".to_string(), true, 2),
                ("inode.len".to_string(), false, 2),
            ]
        );
        assert_eq!(heat.conflicting, vec!["fd-bitmap".to_string()]);
    }

    #[test]
    fn on_core_restores_previous_core() {
        assert_eq!(current_core(), 0);
        let inner = on_core(5, || on_core(2, current_core));
        assert_eq!(inner, 2);
        assert_eq!(current_core(), 0);
    }

    #[test]
    fn unknown_line_label_falls_back() {
        let sink = HostTraceSink::new(1);
        assert_eq!(sink.label_of(LineId(99)), "line#99");
    }

    #[test]
    fn lines_are_allocated_in_blocks_named_on_demand() {
        let sink = HostTraceSink::new(1);
        let a = sink.alloc_line("a");
        let block = sink.alloc_lines(3, |i| format!("b[{i}]"));
        assert_eq!((a, block), (LineId(0), LineId(1)));
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
}
