//! The simulated machine.
//!
//! A [`SimMachine`] owns an access log and the table of labelled cache
//! lines. It is a [`Lines`] substrate: structures allocate their lines from
//! it in named blocks and record a read or write access — attributed to the
//! calling thread's [`current_core`] — every time they touch one while a
//! window is open.
//!
//! The machine is single-threaded by design: "running on core `c`" means
//! running the operation's code under [`crate::on_core`]. That is
//! sufficient for conflict detection and for the MESI replay model, which
//! only need to know *which core* performed each access and in what order.

use crate::lines::{LineTable, Lines};
use crate::trace::{current_core, Access, AccessKind, TraceWindow};
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
    tracing: bool,
    accesses: Vec<Access>,
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
    /// Creates a machine with no window open.
    pub fn new() -> Self {
        SimMachine::default()
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
        let mut st = self.state.borrow_mut();
        if st.tracing {
            let seq = st.accesses.len() as u64;
            st.accesses.push(Access {
                seq,
                core: current_core(),
                line,
                kind,
            });
        }
    }

    fn label_of(&self, line: LineId) -> String {
        self.state.borrow().lines.label_of(line)
    }

    fn begin_window(&self) {
        let mut st = self.state.borrow_mut();
        st.accesses.clear();
        st.tracing = true;
    }

    fn end_window(&self) -> TraceWindow {
        let accesses = {
            let mut st = self.state.borrow_mut();
            st.tracing = false;
            std::mem::take(&mut st.accesses)
        };
        TraceWindow::new(accesses, 0, |line| self.label_of(line))
    }

    fn untraced<R>(&self, f: impl FnOnce() -> R) -> R {
        let open = std::mem::replace(&mut self.state.borrow_mut().tracing, false);
        let out = f();
        self.state.borrow_mut().tracing = open;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::on_core;

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
    fn no_window_records_nothing() {
        let m = SimMachine::new();
        let a = m.line("a");
        a.write(0);
        a.read(0);
        m.begin_window();
        assert!(m.end_window().accesses.is_empty());
    }

    #[test]
    fn window_records_reads_and_writes_with_core() {
        let m = SimMachine::new();
        let a = m.line("a");
        m.begin_window();
        on_core(3, || {
            a.write(0);
            a.read(0);
        });
        let log = m.end_window().accesses;
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].kind, AccessKind::Write);
        assert_eq!(log[1].kind, AccessKind::Read);
        assert!(log.iter().all(|acc| acc.core == 3));
    }

    #[test]
    fn window_reports_cross_core_write() {
        let m = SimMachine::new();
        let shared = m.line("file.refcount");
        m.begin_window();
        on_core(0, || shared.rmw(0));
        on_core(1, || shared.rmw(0));
        let window = m.end_window();
        assert!(!window.is_conflict_free());
        assert_eq!(window.dropped, 0);
        assert_eq!(
            window.conflicting_labels(),
            vec!["file.refcount".to_string()]
        );
    }

    #[test]
    fn a_new_window_forgets_the_last() {
        let m = SimMachine::new();
        let shared = m.line("dir.lock");
        m.begin_window();
        on_core(0, || shared.write(0));
        on_core(1, || shared.write(0));
        assert!(!m.end_window().is_conflict_free());
        m.begin_window();
        on_core(0, || shared.read(0));
        let window = m.end_window();
        assert!(window.is_conflict_free());
        assert_eq!(window.accesses.len(), 1);
        assert_eq!(m.label_of(shared.line(0)), "dir.lock");
    }

    #[test]
    fn untraced_accesses_stay_out_of_an_open_window() {
        let m = SimMachine::new();
        let a = m.line("a");
        m.begin_window();
        a.write(0);
        m.untraced(|| a.read(0));
        a.write(0);
        assert_eq!(m.end_window().accesses.len(), 2);
    }

    #[test]
    fn per_core_lines_are_conflict_free() {
        let m = SimMachine::new();
        let lines: Vec<_> = (0..4).map(|c| m.line(format!("percore[{c}]"))).collect();
        m.begin_window();
        for (core, line) in lines.iter().enumerate() {
            on_core(core, || line.rmw(0));
        }
        assert!(m.end_window().is_conflict_free());
    }

    #[test]
    fn max_core_accesses_counts_interleaved_cores() {
        // The window is in global order: core 0's two accesses are not one
        // run.
        let m = SimMachine::new();
        let a = m.line("a");
        m.begin_window();
        on_core(0, || a.read(0));
        on_core(1, || a.read(0));
        on_core(0, || a.read(0));
        assert_eq!(m.end_window().max_core_accesses(), 2);
        m.begin_window();
        assert_eq!(m.end_window().max_core_accesses(), 0);
    }
}
