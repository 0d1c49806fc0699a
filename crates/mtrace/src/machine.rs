//! The simulated machine and its traced memory cells.
//!
//! A [`SimMachine`] owns an access log and a "current core" register. Kernel
//! state is allocated as [`TracedCell`]s: each cell occupies one simulated
//! cache line (unless explicitly co-located with another cell to model false
//! sharing) and records a read or write access — attributed to the current
//! core — every time it is touched while tracing is enabled.
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

    /// Allocates a [`TracedCell`] on its own fresh cache line.
    pub fn cell<T>(&self, label: impl Into<String>, value: T) -> TracedCell<T> {
        let line = self.alloc_line(label);
        TracedCell {
            machine: self.clone(),
            line,
            value: Rc::new(RefCell::new(value)),
        }
    }

    /// Allocates a [`TracedCell`] that shares the cache line of `other`
    /// (models false sharing or deliberately packed structures).
    pub fn cell_on_line<T, U>(&self, other: &TracedCell<U>, value: T) -> TracedCell<T> {
        TracedCell {
            machine: self.clone(),
            line: other.line,
            value: Rc::new(RefCell::new(value)),
        }
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

    /// Records an access (used by [`TracedCell`]; public so other crates can
    /// build custom traced structures).
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

/// A value stored on a simulated cache line.
///
/// Reads and writes are recorded against the machine's current core while
/// tracing is enabled. Cloning a cell produces another handle to the same
/// storage and the same line.
#[derive(Clone, Debug)]
pub struct TracedCell<T> {
    machine: SimMachine,
    line: LineId,
    value: Rc<RefCell<T>>,
}

impl<T> TracedCell<T> {
    /// The cache line this cell lives on.
    pub fn line(&self) -> LineId {
        self.line
    }

    /// The machine this cell belongs to.
    pub fn machine(&self) -> &SimMachine {
        &self.machine
    }

    /// Reads the value through a closure (recorded as a read).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.machine.record(self.line, AccessKind::Read);
        f(&self.value.borrow())
    }

    /// Replaces the value (recorded as a write).
    pub fn set(&self, value: T) {
        self.machine.record(self.line, AccessKind::Write);
        *self.value.borrow_mut() = value;
    }

    /// Mutates the value in place (recorded as a read and a write).
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.machine.record(self.line, AccessKind::Read);
        self.machine.record(self.line, AccessKind::Write);
        f(&mut self.value.borrow_mut())
    }

    /// Reads the value without recording an access. Intended for test setup
    /// and assertions, not for code under measurement.
    pub fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.value.borrow())
    }

    /// Writes the value without recording an access. Intended for test setup.
    pub fn poke(&self, value: T) {
        *self.value.borrow_mut() = value;
    }
}

impl<T: Clone> TracedCell<T> {
    /// Reads and clones the value (recorded as a read).
    pub fn get(&self) -> T {
        self.machine.record(self.line, AccessKind::Read);
        self.value.borrow().clone()
    }
}

impl<T: Copy> TracedCell<T> {
    /// Adds to a numeric cell and returns the new value (read + write).
    pub fn fetch_update(&self, f: impl FnOnce(T) -> T) -> T {
        self.machine.record(self.line, AccessKind::Read);
        self.machine.record(self.line, AccessKind::Write);
        let mut v = self.value.borrow_mut();
        *v = f(*v);
        *v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_get_distinct_lines_and_labels() {
        let m = SimMachine::new();
        let a = m.cell("a", 1u32);
        let b = m.cell("b", 2u32);
        assert_ne!(a.line(), b.line());
        assert_eq!(m.label_of(a.line()), "a");
        assert_eq!(m.label_of(b.line()), "b");
    }

    #[test]
    fn colocated_cells_share_a_line() {
        let m = SimMachine::new();
        let a = m.cell("struct.field0", 1u32);
        let b = m.cell_on_line(&a, 2u64);
        assert_eq!(a.line(), b.line());
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let m = SimMachine::new();
        let a = m.cell("a", 0u32);
        a.set(5);
        assert_eq!(a.get(), 5);
        assert_eq!(m.access_count(), 0);
    }

    #[test]
    fn tracing_records_reads_and_writes_with_core() {
        let m = SimMachine::new();
        let a = m.cell("a", 0u32);
        m.start_tracing();
        m.set_core(3);
        a.set(5);
        let v = a.get();
        assert_eq!(v, 5);
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
        let shared = m.cell("file.refcount", 0u64);
        m.start_tracing();
        m.on_core(0, || {
            shared.update(|v| *v += 1);
        });
        m.on_core(1, || {
            shared.update(|v| *v += 1);
        });
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
        let shared = m.cell("dir.lock", 0u64);
        m.start_tracing();
        m.on_core(0, || shared.set(1));
        m.on_core(1, || shared.set(2));
        let mark = m.access_count();
        m.on_core(0, || {
            let _ = shared.get();
        });
        let report = m.conflict_report_since(mark);
        assert!(report.is_conflict_free());
    }

    #[test]
    fn per_core_cells_are_conflict_free() {
        let m = SimMachine::new();
        let cells: Vec<_> = (0..4)
            .map(|c| m.cell(format!("percore[{c}]"), 0u64))
            .collect();
        m.start_tracing();
        for (core, cell) in cells.iter().enumerate() {
            m.on_core(core, || {
                cell.update(|v| *v += 1);
            });
        }
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn peek_and_poke_are_untraced() {
        let m = SimMachine::new();
        let a = m.cell("a", 1u32);
        m.start_tracing();
        a.poke(9);
        assert_eq!(a.peek(|v| *v), 9);
        assert_eq!(m.access_count(), 0);
    }

    #[test]
    fn fetch_update_returns_new_value() {
        let m = SimMachine::new();
        let a = m.cell("ctr", 10i64);
        assert_eq!(a.fetch_update(|v| v + 5), 15);
        assert_eq!(a.get(), 15);
    }

    #[test]
    fn clear_trace_resets_log_but_keeps_allocations() {
        let m = SimMachine::new();
        let a = m.cell("a", 0u32);
        m.start_tracing();
        a.set(1);
        assert_eq!(m.access_count(), 1);
        m.clear_trace();
        assert_eq!(m.access_count(), 0);
        assert_eq!(m.label_of(a.line()), "a");
    }
}
