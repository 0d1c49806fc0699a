//! A probe mirror of `scr_scalable::RadixArray`'s access footprint.
//!
//! The host kernel stores file pages and address-space entries in ordinary
//! locked maps (a `BTreeMap` behind an `RwLock`), but the *sharing* the
//! paper cares about is that of the radix representation: one line per
//! interior slot and one per leaf slot, so operations on different indices
//! are conflict-free. [`ProbeRadix`] tracks which leaves the simulated
//! array would have populated and records the exact line footprint each
//! radix operation would produce.

use crate::probe::ProbeBlock;
use crate::sink::HostTraceSink;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Fan-out of each radix level; must match `RadixArray`'s (asserted by a
/// test in `scr-scalable` against `RadixArray::CAPACITY`).
pub(crate) const FANOUT: usize = 64;

/// Probe mirror of a two-level radix array.
pub struct ProbeRadix {
    label: Arc<str>,
    interior: ProbeBlock,
    /// Leaf probe blocks, allocated when an index under the interior slot
    /// is first stored — exactly when `RadixArray::ensure_leaf` populates
    /// one. Allocating a block formats no label, so a racing `set` holds
    /// this mutex only for one block allocation.
    leaves: Mutex<HashMap<usize, ProbeBlock>>,
}

impl ProbeRadix {
    /// Maximum representable index.
    pub const CAPACITY: usize = FANOUT * FANOUT;

    /// Allocates the interior lines (the simulated array allocates its
    /// interior cells eagerly too).
    pub fn new(sink: &Arc<HostTraceSink>, label: &str) -> Self {
        let label: Arc<str> = label.into();
        let names = Arc::clone(&label);
        ProbeRadix {
            interior: sink.probe_block(FANOUT, move |i| format!("{names}.interior[{i}]")),
            label,
            leaves: Mutex::new(HashMap::new()),
        }
    }

    fn split(index: usize) -> (usize, usize) {
        assert!(index < Self::CAPACITY, "radix index out of range");
        (index / FANOUT, index % FANOUT)
    }

    /// Records a `RadixArray::get`: the interior slot is read; the leaf
    /// slot is read only if the leaf table exists.
    pub fn get(&self, index: usize) {
        let (hi, lo) = Self::split(index);
        self.interior.at(hi).read();
        if let Some(leaf) = self.leaves.lock().get(&hi) {
            leaf.at(lo).read();
        }
    }

    /// Records a `RadixArray::set`: `ensure_leaf` reads the interior slot
    /// (and writes it when publishing a fresh leaf table), then the leaf
    /// slot is written.
    pub fn set(&self, index: usize) {
        let (hi, lo) = Self::split(index);
        self.interior.at(hi).read();
        let mut leaves = self.leaves.lock();
        let leaf = match leaves.get(&hi) {
            Some(leaf) => leaf,
            None => {
                let label = Arc::clone(&self.label);
                let table = self
                    .interior
                    .sink()
                    .probe_block(FANOUT, move |l| format!("{label}.leaf[{hi}][{l}]"));
                self.interior.at(hi).write();
                leaves.entry(hi).or_insert(table)
            }
        };
        leaf.at(lo).write();
    }

    /// Records a `RadixArray::take`: interior read; if the leaf exists its
    /// slot is read, and written only when a value was actually removed
    /// (`present` — the caller knows whether the real map held the index).
    pub fn take(&self, index: usize, present: bool) {
        let (hi, lo) = Self::split(index);
        self.interior.at(hi).read();
        if let Some(leaf) = self.leaves.lock().get(&hi) {
            let slot = leaf.at(lo);
            slot.read();
            if present {
                slot.write();
            }
        } else {
            debug_assert!(!present, "value present but leaf never populated");
        }
    }
}

impl std::fmt::Debug for ProbeRadix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeRadix")
            .field("label", &self.label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::on_core;
    use scr_mtrace::trace::AccessKind::{Read, Write};

    fn trace(sink: &Arc<HostTraceSink>) -> Vec<(String, scr_mtrace::trace::AccessKind)> {
        let report = sink.end_window();
        report
            .accesses
            .iter()
            .map(|a| (sink.label_of(a.line), a.kind))
            .collect()
    }

    #[test]
    fn set_on_fresh_leaf_publishes_the_interior_slot() {
        let sink = HostTraceSink::new(2);
        let radix = ProbeRadix::new(&sink, "f.pages");
        sink.begin_window();
        radix.set(0);
        radix.set(1);
        assert_eq!(
            trace(&sink),
            vec![
                ("f.pages.interior[0]".into(), Read),
                ("f.pages.interior[0]".into(), Write),
                ("f.pages.leaf[0][0]".into(), Write),
                ("f.pages.interior[0]".into(), Read),
                ("f.pages.leaf[0][1]".into(), Write),
            ]
        );
    }

    #[test]
    fn get_of_unpopulated_subtree_touches_only_the_interior() {
        let sink = HostTraceSink::new(2);
        let radix = ProbeRadix::new(&sink, "r");
        sink.begin_window();
        radix.get(130);
        assert_eq!(trace(&sink), vec![("r.interior[2]".into(), Read)]);
    }

    #[test]
    fn take_writes_only_when_present() {
        let sink = HostTraceSink::new(2);
        let radix = ProbeRadix::new(&sink, "r");
        radix.set(5); // untraced (gate closed): populates the leaf
        sink.begin_window();
        radix.take(5, true);
        radix.take(6, false);
        assert_eq!(
            trace(&sink),
            vec![
                ("r.interior[0]".into(), Read),
                ("r.leaf[0][5]".into(), Read),
                ("r.leaf[0][5]".into(), Write),
                ("r.interior[0]".into(), Read),
                ("r.leaf[0][6]".into(), Read),
            ]
        );
    }

    #[test]
    fn different_indices_are_conflict_free_across_cores() {
        let sink = HostTraceSink::new(2);
        let radix = ProbeRadix::new(&sink, "as");
        sink.begin_window();
        on_core(0, || radix.set(10));
        on_core(1, || radix.set(200));
        assert!(sink.end_window().is_conflict_free());
    }
}
