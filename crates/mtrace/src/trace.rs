//! The core register, access traces, trace windows and conflict
//! (shared-line) reports.
//!
//! While a window is open, every read or write a structure records on one
//! of a substrate's [`Lines`] is logged together with the core that
//! performed it: the calling thread's core register, set with [`on_core`].
//! Closing the window hands over a [`TraceWindow`]. A **shared line** is a
//! cache line accessed by two or more cores with at least one write — the
//! cache-line analogue of the access conflict defined in §3.3, and exactly
//! what MTRACE reports for a failed test case (§5.3).
//!
//! [`Lines`]: crate::lines::Lines

use crate::machine::{CoreId, LineId};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

thread_local! {
    /// The core the calling thread's accesses are attributed to.
    static CURRENT_CORE: Cell<CoreId> = const { Cell::new(0) };
}

/// Runs `f` with the calling thread's core register set to `core`,
/// restoring the previous value afterwards. Both substrates attribute an
/// access to this register, so "running on core `c`" means the same on the
/// simulated machine (one thread playing every core in turn) and on real
/// threads (one thread per core).
pub fn on_core<R>(core: CoreId, f: impl FnOnce() -> R) -> R {
    CURRENT_CORE.with(|c| {
        let prev = c.replace(core);
        let out = f();
        c.set(prev);
        out
    })
}

/// The core the calling thread's accesses are currently attributed to.
pub fn current_core() -> CoreId {
    CURRENT_CORE.with(Cell::get)
}

/// Whether an access was a read or a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A load from the line.
    Read,
    /// A store to the line.
    Write,
}

/// One recorded memory access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// Position in its window's log.
    pub seq: u64,
    /// Which simulated core performed the access.
    pub core: CoreId,
    /// Which cache line was touched.
    pub line: LineId,
    /// Read or write.
    pub kind: AccessKind,
}

/// A cache line that was accessed by more than one core with at least one
/// write — a scalability conflict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedLine {
    /// The conflicting line.
    pub line: LineId,
    /// Human-readable label attached at allocation (e.g.
    /// `"dentry.refcount"`), mirroring MTRACE's DWARF type resolution.
    pub label: String,
    /// Cores that read the line.
    pub reader_cores: BTreeSet<CoreId>,
    /// Cores that wrote the line.
    pub writer_cores: BTreeSet<CoreId>,
    /// Total number of accesses to the line in the window.
    pub accesses: usize,
}

impl SharedLine {
    /// All cores that touched the line.
    pub fn cores(&self) -> BTreeSet<CoreId> {
        self.reader_cores
            .union(&self.writer_cores)
            .copied()
            .collect()
    }
}

impl fmt::Display for SharedLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {} [{}]: writers {:?}, readers {:?}, {} accesses",
            self.line.0, self.label, self.writer_cores, self.reader_cores, self.accesses
        )
    }
}

/// The result of analysing an access log window: the set of shared
/// (conflicting) lines, plus summary counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConflictReport {
    /// Every line touched by ≥ 2 cores with ≥ 1 write.
    pub shared_lines: Vec<SharedLine>,
    /// Number of accesses examined.
    pub accesses_examined: usize,
    /// Number of distinct lines touched in the window.
    pub lines_touched: usize,
}

impl ConflictReport {
    /// `true` when the examined window was conflict-free.
    pub fn is_conflict_free(&self) -> bool {
        self.shared_lines.is_empty()
    }

    /// Labels of the conflicting lines (deduplicated, sorted).
    pub fn conflicting_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.shared_lines.iter().map(|l| l.label.clone()).collect();
        labels.sort();
        labels.dedup();
        labels
    }
}

impl fmt::Display for ConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_conflict_free() {
            write!(
                f,
                "conflict-free: {} accesses over {} lines",
                self.accesses_examined, self.lines_touched
            )
        } else {
            writeln!(
                f,
                "{} shared line(s) among {} accesses over {} lines:",
                self.shared_lines.len(),
                self.accesses_examined,
                self.lines_touched
            )?;
            for line in &self.shared_lines {
                writeln!(f, "  {line}")?;
            }
            Ok(())
        }
    }
}

/// One closed trace window, as either substrate's `end_window` hands it
/// over: the accesses recorded while it was open, their conflict report,
/// and the appends a full log dropped (always 0 on the simulated machine).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceWindow {
    /// Shared (conflicting) lines among `accesses`.
    pub report: ConflictReport,
    /// The recorded accesses: in global order on the simulated machine,
    /// core by core from a trace sink.
    pub accesses: Vec<Access>,
    /// Appends that overflowed a log's capacity. A non-zero count means the
    /// window may have missed conflicts, so it is never conflict-free.
    pub dropped: usize,
}

impl TraceWindow {
    /// Analyses `accesses` into a window, naming shared lines by `label`.
    pub fn new(accesses: Vec<Access>, dropped: usize, label: impl Fn(LineId) -> String) -> Self {
        TraceWindow {
            report: analyze(&accesses, label),
            accesses,
            dropped,
        }
    }

    /// Conflict-free means no shared lines *and* no dropped accesses.
    pub fn is_conflict_free(&self) -> bool {
        self.dropped == 0 && self.report.is_conflict_free()
    }

    /// Labels of the conflicting lines (deduplicated, sorted).
    pub fn conflicting_labels(&self) -> Vec<String> {
        self.report.conflicting_labels()
    }

    /// The most accesses one core recorded in this window: how much of a
    /// sink log's capacity the window used (appends past it are in
    /// `dropped`).
    pub fn max_core_accesses(&self) -> usize {
        let mut per_core: BTreeMap<CoreId, usize> = BTreeMap::new();
        for access in &self.accesses {
            *per_core.entry(access.core).or_default() += 1;
        }
        per_core.into_values().max().unwrap_or(0)
    }
}

impl fmt::Display for TraceWindow {
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

/// Analyses a window of the access log: groups accesses by line and reports
/// the lines accessed by two or more cores with at least one write.
fn analyze(accesses: &[Access], label: impl Fn(LineId) -> String) -> ConflictReport {
    #[derive(Default)]
    struct PerLine {
        readers: BTreeSet<CoreId>,
        writers: BTreeSet<CoreId>,
        count: usize,
    }
    let mut per_line: BTreeMap<LineId, PerLine> = BTreeMap::new();
    for access in accesses {
        let entry = per_line.entry(access.line).or_default();
        entry.count += 1;
        match access.kind {
            AccessKind::Read => {
                entry.readers.insert(access.core);
            }
            AccessKind::Write => {
                entry.writers.insert(access.core);
            }
        }
    }
    let lines_touched = per_line.len();
    let mut shared_lines = Vec::new();
    for (line, info) in per_line {
        let all_cores: BTreeSet<CoreId> = info.readers.union(&info.writers).copied().collect();
        // Two or more cores touched the line and at least one of them wrote
        // it: whichever other core touched it, its access conflicts with that
        // write.
        let conflicting = all_cores.len() >= 2 && !info.writers.is_empty();
        if conflicting {
            shared_lines.push(SharedLine {
                line,
                label: label(line),
                reader_cores: info.readers,
                writer_cores: info.writers,
                accesses: info.count,
            });
        }
    }
    ConflictReport {
        shared_lines,
        accesses_examined: accesses.len(),
        lines_touched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(seq: u64, core: usize, line: u64, kind: AccessKind) -> Access {
        Access {
            seq,
            core,
            line: LineId(line),
            kind,
        }
    }

    #[test]
    fn write_write_across_cores_is_shared() {
        let log = vec![
            acc(0, 0, 10, AccessKind::Write),
            acc(1, 1, 10, AccessKind::Write),
        ];
        let report = analyze(&log, |l| format!("line{}", l.0));
        assert!(!report.is_conflict_free());
        assert_eq!(report.shared_lines.len(), 1);
        assert_eq!(report.shared_lines[0].label, "line10");
    }

    #[test]
    fn read_write_across_cores_is_shared() {
        let log = vec![
            acc(0, 0, 3, AccessKind::Read),
            acc(1, 1, 3, AccessKind::Write),
        ];
        assert!(!analyze(&log, |_| String::new()).is_conflict_free());
    }

    #[test]
    fn read_read_across_cores_is_not_shared() {
        let log = vec![
            acc(0, 0, 3, AccessKind::Read),
            acc(1, 1, 3, AccessKind::Read),
        ];
        assert!(analyze(&log, |_| String::new()).is_conflict_free());
    }

    #[test]
    fn single_core_read_write_is_not_shared() {
        let log = vec![
            acc(0, 0, 3, AccessKind::Read),
            acc(1, 0, 3, AccessKind::Write),
            acc(2, 0, 3, AccessKind::Write),
        ];
        assert!(analyze(&log, |_| String::new()).is_conflict_free());
    }

    #[test]
    fn disjoint_lines_are_not_shared() {
        let log = vec![
            acc(0, 0, 1, AccessKind::Write),
            acc(1, 1, 2, AccessKind::Write),
        ];
        let report = analyze(&log, |_| String::new());
        assert!(report.is_conflict_free());
        assert_eq!(report.lines_touched, 2);
        assert_eq!(report.accesses_examined, 2);
    }

    #[test]
    fn report_lists_reader_and_writer_cores() {
        let log = vec![
            acc(0, 0, 7, AccessKind::Write),
            acc(1, 1, 7, AccessKind::Read),
            acc(2, 2, 7, AccessKind::Read),
        ];
        let report = analyze(&log, |_| "refcount".to_string());
        let line = &report.shared_lines[0];
        assert_eq!(line.writer_cores, BTreeSet::from([0]));
        assert_eq!(line.reader_cores, BTreeSet::from([1, 2]));
        assert_eq!(line.cores(), BTreeSet::from([0, 1, 2]));
        assert_eq!(report.conflicting_labels(), vec!["refcount".to_string()]);
    }

    #[test]
    fn display_formats_reports() {
        let log = vec![
            acc(0, 0, 7, AccessKind::Write),
            acc(1, 1, 7, AccessKind::Read),
        ];
        let report = analyze(&log, |_| "d_lock".to_string());
        let text = format!("{report}");
        assert!(text.contains("d_lock"));
        let free = analyze(&[], |_| String::new());
        assert!(format!("{free}").contains("conflict-free"));
    }

    #[test]
    fn on_core_restores_previous_core() {
        assert_eq!(current_core(), 0);
        let inner = on_core(5, || on_core(2, current_core));
        assert_eq!(inner, 2);
        assert_eq!(current_core(), 0);
    }
}
