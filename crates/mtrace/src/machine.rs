//! The simulated machine.
//!
//! A [`SimMachine`] owns an access log, a "current core" register and the
//! table of labelled cache lines. It is a [`Lines`] substrate: structures
//! allocate their lines from it in named blocks and record a read or write
//! access — attributed to the current core — every time they touch one
//! while tracing is enabled.
//!
//! The machine is single-threaded by design: "running on core `c`" means
//! setting the current-core register before executing the operation's code.
//! That is sufficient for conflict detection and for the MESI replay model,
//! which only need to know *which core* performed each access and in what
//! order.

use crate::lines::{LineTable, Lines};
use crate::trace::{analyze, Access, AccessKind, ConflictReport};
use std::cell::RefCell;
use std::rc::Rc;

/// Identifier of a simulated core.
pub type CoreId = usize;

/// Identifier of a simulated cache line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub u64);

/// Shared interior state of a simulated machine.
#[derive(Debug, Default)]
struct MachineState {
    lines: LineTable,
    current_core: CoreId,
    tracing: bool,
    accesses: Vec<Access>,
    next_seq: u64,
}

/// A simulated cache-coherent multicore machine.
///
/// Cloning a `SimMachine` produces another handle to the same machine (the
/// underlying state is shared), so kernels can hold a handle while the test
/// driver holds another.
#[derive(Clone, Debug, Default)]
pub struct SimMachine {
    state: Rc<RefCell<MachineState>>,
}

impl SimMachine {
    /// Creates a machine with tracing disabled and the current core set to 0.
    pub fn new() -> Self {
        SimMachine::default()
    }

    /// Allocates a fresh cache line with the given label and returns its id.
    pub fn alloc_line(&self, label: impl Into<String>) -> LineId {
        let label = label.into();
        self.alloc_lines(1, move |_| label.clone())
    }

    /// The label attached to a line at allocation time.
    pub fn label_of(&self, line: LineId) -> String {
        self.state.borrow().lines.label_of(line)
    }

    /// Sets the core that subsequent accesses are attributed to.
    pub fn set_core(&self, core: CoreId) {
        self.state.borrow_mut().current_core = core;
    }

    /// The core accesses are currently attributed to.
    pub fn current_core(&self) -> CoreId {
        self.state.borrow().current_core
    }

    /// Runs a closure with the current core set to `core`, restoring the
    /// previous core afterwards.
    pub fn on_core<R>(&self, core: CoreId, f: impl FnOnce() -> R) -> R {
        let prev = self.current_core();
        self.set_core(core);
        let out = f();
        self.set_core(prev);
        out
    }

    /// Enables access tracing.
    pub fn start_tracing(&self) {
        self.state.borrow_mut().tracing = true;
    }

    /// Disables access tracing.
    pub fn stop_tracing(&self) {
        self.state.borrow_mut().tracing = false;
    }

    /// Is tracing currently enabled?
    pub fn is_tracing(&self) -> bool {
        self.state.borrow().tracing
    }

    /// Clears the access log (labels and allocations are retained).
    pub fn clear_trace(&self) {
        self.state.borrow_mut().accesses.clear();
    }

    /// Number of accesses recorded so far.
    pub fn access_count(&self) -> usize {
        self.state.borrow().accesses.len()
    }

    /// A copy of the recorded access log.
    pub fn accesses(&self) -> Vec<Access> {
        self.state.borrow().accesses.clone()
    }

    /// A copy of the access log starting at index `from`.
    pub fn accesses_since(&self, from: usize) -> Vec<Access> {
        self.state.borrow().accesses[from.min(self.access_count())..].to_vec()
    }

    /// Analyses the whole recorded log for shared (conflicting) lines.
    pub fn conflict_report(&self) -> ConflictReport {
        let accesses = self.accesses();
        analyze(&accesses, |line| self.label_of(line))
    }

    /// Analyses the log starting at index `from` for shared lines.
    pub fn conflict_report_since(&self, from: usize) -> ConflictReport {
        let accesses = self.accesses_since(from);
        analyze(&accesses, |line| self.label_of(line))
    }

    /// Records an access attributed to the current core, if tracing is
    /// enabled.
    pub fn record(&self, line: LineId, kind: AccessKind) {
        let mut st = self.state.borrow_mut();
        if !st.tracing {
            return;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let core = st.current_core;
        st.accesses.push(Access {
            seq,
            core,
            line,
            kind,
        });
    }
}

impl Lines for SimMachine {
    fn alloc_lines(
        &self,
        len: usize,
        names: impl Fn(usize) -> String + Send + Sync + 'static,
    ) -> LineId {
        self.state.borrow_mut().lines.alloc(len, Box::new(names))
    }

    fn record(&self, line: LineId, kind: AccessKind) {
        SimMachine::record(self, line, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_get_distinct_ids_and_labels() {
        let m = SimMachine::new();
        let a = m.line("a");
        let b = m.line("b");
        assert_ne!(a.line(0), b.line(0));
        assert_eq!(m.label_of(a.line(0)), "a");
        assert_eq!(m.label_of(b.line(0)), "b");
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let m = SimMachine::new();
        let a = m.line("a");
        a.write(0);
        a.read(0);
        assert_eq!(m.access_count(), 0);
    }

    #[test]
    fn tracing_records_reads_and_writes_with_core() {
        let m = SimMachine::new();
        let a = m.line("a");
        m.start_tracing();
        m.set_core(3);
        a.write(0);
        a.read(0);
        m.stop_tracing();
        let log = m.accesses();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].kind, AccessKind::Write);
        assert_eq!(log[1].kind, AccessKind::Read);
        assert!(log.iter().all(|acc| acc.core == 3));
    }

    #[test]
    fn on_core_restores_previous_core() {
        let m = SimMachine::new();
        m.set_core(1);
        let observed = m.on_core(7, || m.current_core());
        assert_eq!(observed, 7);
        assert_eq!(m.current_core(), 1);
    }

    #[test]
    fn conflict_report_detects_cross_core_write() {
        let m = SimMachine::new();
        let shared = m.line("file.refcount");
        m.start_tracing();
        m.on_core(0, || shared.rmw(0));
        m.on_core(1, || shared.rmw(0));
        let report = m.conflict_report();
        assert!(!report.is_conflict_free());
        assert_eq!(
            report.conflicting_labels(),
            vec!["file.refcount".to_string()]
        );
    }

    #[test]
    fn conflict_report_since_ignores_setup() {
        let m = SimMachine::new();
        let shared = m.line("dir.lock");
        m.start_tracing();
        m.on_core(0, || shared.write(0));
        m.on_core(1, || shared.write(0));
        let mark = m.access_count();
        m.on_core(0, || shared.read(0));
        let report = m.conflict_report_since(mark);
        assert!(report.is_conflict_free());
    }

    #[test]
    fn per_core_lines_are_conflict_free() {
        let m = SimMachine::new();
        let lines: Vec<_> = (0..4).map(|c| m.line(format!("percore[{c}]"))).collect();
        m.start_tracing();
        for (core, line) in lines.iter().enumerate() {
            m.on_core(core, || line.rmw(0));
        }
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn clear_trace_resets_log_but_keeps_allocations() {
        let m = SimMachine::new();
        let a = m.line("a");
        m.start_tracing();
        a.write(0);
        assert_eq!(m.access_count(), 1);
        m.clear_trace();
        assert_eq!(m.access_count(), 0);
        assert_eq!(m.label_of(a.line(0)), "a");
    }
}
