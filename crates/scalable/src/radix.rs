//! Radix arrays (§6.3 "layer scalability", and the core structure of
//! RadixVM).
//!
//! A radix array maps small integer indices (page numbers, virtual page
//! numbers) to values. Unlike a balanced tree, the location of an entry
//! depends only on its index, so operations on *different* indices touch
//! disjoint cache lines and are conflict-free — even when other operations
//! are concurrently extending or truncating the array.
//!
//! The footprint is that of a two-level array of fan-out 64: one line per
//! interior slot (`{label}.interior[hi]`, allocated with the array) and one
//! per leaf slot (`{label}.leaf[hi][lo]`, allocated as a block when an
//! index under `hi` is first stored, which also writes the interior slot).
//! The values themselves live in an ordered map behind one reader-writer
//! lock, so a kernel can hold the array across a multi-page operation; how
//! they are stored is invisible to the footprint.

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use scr_mtrace::{Block, Lines};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Fan-out of each radix level.
const FANOUT: usize = 64;

/// The lines of a radix array and which leaf tables exist.
#[derive(Debug)]
struct RadixLines<L> {
    label: Arc<str>,
    interior: Block<L>,
    /// Leaf blocks, allocated when an index under the interior slot is
    /// first stored. Allocating a block formats no label, so a racing
    /// `set` holds this mutex only for one block allocation.
    leaves: Mutex<HashMap<usize, Block<L>>>,
}

impl<L: Lines + Clone> RadixLines<L> {
    /// A lookup: the interior slot is read; the leaf slot only if the leaf
    /// table exists.
    fn get(&self, index: usize) {
        let (hi, lo) = split(index);
        self.interior.read(hi);
        if let Some(leaf) = self.leaves.lock().get(&hi) {
            leaf.read(lo);
        }
    }

    /// A store: the interior slot is read (and written when a fresh leaf
    /// table is published), then the leaf slot is written.
    fn set(&self, index: usize) {
        let (hi, lo) = split(index);
        self.interior.read(hi);
        let mut leaves = self.leaves.lock();
        let leaf = leaves.entry(hi).or_insert_with(|| {
            let label = Arc::clone(&self.label);
            let table = self
                .interior
                .lines()
                .block(FANOUT, move |l| format!("{label}.leaf[{hi}][{l}]"));
            self.interior.write(hi);
            table
        });
        leaf.write(lo);
    }

    /// A removal: the interior slot is read; if the leaf table exists its
    /// slot is read, and written only when a value was removed.
    fn take(&self, index: usize, present: bool) {
        let (hi, lo) = split(index);
        self.interior.read(hi);
        if let Some(leaf) = self.leaves.lock().get(&hi) {
            leaf.read(lo);
            if present {
                leaf.write(lo);
            }
        } else {
            debug_assert!(!present, "value present but leaf never populated");
        }
    }
}

fn split(index: usize) -> (usize, usize) {
    assert!(index < FANOUT * FANOUT, "radix index out of range");
    (index / FANOUT, index % FANOUT)
}

/// A two-level radix array of capacity `FANOUT * FANOUT` (4096) entries.
#[derive(Debug)]
pub struct RadixArray<T, L> {
    slots: RwLock<BTreeMap<usize, T>>,
    /// Boxed: an uninstrumented array pays one pointer for its footprint.
    lines: Option<Box<RadixLines<L>>>,
}

impl<T, L: Lines + Clone> RadixArray<T, L> {
    /// Maximum index representable by the array, plus one.
    pub const CAPACITY: usize = FANOUT * FANOUT;

    /// An empty radix array whose lines are named under `label`.
    pub fn new(lines: Option<&L>, label: impl Display) -> Self {
        RadixArray {
            slots: RwLock::new(BTreeMap::new()),
            lines: lines.map(|lines| {
                let label: Arc<str> = label.to_string().into();
                let names = Arc::clone(&label);
                Box::new(RadixLines {
                    interior: lines.block(FANOUT, move |i| format!("{names}.interior[{i}]")),
                    label,
                    leaves: Mutex::new(HashMap::new()),
                })
            }),
        }
    }

    /// Shared access for lookups, held until the guard drops.
    pub fn read(&self) -> RadixGuard<'_, RwLockReadGuard<'_, BTreeMap<usize, T>>, L> {
        RadixGuard {
            slots: self.slots.read(),
            lines: self.lines.as_deref(),
        }
    }

    /// Exclusive access for updates, held until the guard drops.
    pub fn write(&self) -> RadixGuard<'_, RwLockWriteGuard<'_, BTreeMap<usize, T>>, L> {
        RadixGuard {
            slots: self.slots.write(),
            lines: self.lines.as_deref(),
        }
    }

    /// Stores `value` at `index`.
    pub fn set(&self, index: usize, value: T) {
        self.write().set(index, value);
    }

    /// Removes and returns the value at `index`.
    pub fn take(&self, index: usize) -> Option<T> {
        self.write().take(index)
    }

    /// Removes every value, each removal recorded in index order.
    pub fn clear(&self) {
        self.write().clear();
    }

    /// Indices of populated entries, in ascending order (unrecorded).
    pub fn indices(&self) -> Vec<usize> {
        self.slots.read().keys().copied().collect()
    }
}

impl<T: Clone, L: Lines + Clone> RadixArray<T, L> {
    /// Reads the value at `index`.
    pub fn get(&self, index: usize) -> Option<T> {
        self.read().get(index).cloned()
    }
}

/// A radix array held locked: each operation records what the unlocked
/// operation records.
pub struct RadixGuard<'a, G, L> {
    slots: G,
    lines: Option<&'a RadixLines<L>>,
}

impl<T, L: Lines + Clone, G: Deref<Target = BTreeMap<usize, T>>> RadixGuard<'_, G, L> {
    /// The value at `index`.
    pub fn get(&self, index: usize) -> Option<&T> {
        if let Some(lines) = self.lines {
            lines.get(index);
        }
        self.slots.get(&index)
    }
}

impl<T, L: Lines + Clone, G: DerefMut<Target = BTreeMap<usize, T>>> RadixGuard<'_, G, L> {
    /// Stores `value` at `index`.
    pub fn set(&mut self, index: usize, value: T) {
        if let Some(lines) = self.lines {
            lines.set(index);
        }
        self.slots.insert(index, value);
    }

    /// Removes and returns the value at `index`.
    pub fn take(&mut self, index: usize) -> Option<T> {
        let old = self.slots.remove(&index);
        if let Some(lines) = self.lines {
            lines.take(index, old.is_some());
        }
        old
    }

    /// The value at `index`, created empty if absent, for an in-place
    /// update: recorded as a read of the slot and a store back to it.
    pub fn update(&mut self, index: usize) -> &mut T
    where
        T: Default,
    {
        if let Some(lines) = self.lines {
            lines.get(index);
            lines.set(index);
        }
        self.slots.entry(index).or_default()
    }

    /// Applies `f` to the value at `index` if there is one: recorded as a
    /// read of the slot, and a store back only when it held a value.
    /// Returns whether it did.
    pub fn modify(&mut self, index: usize, f: impl FnOnce(&mut T)) -> bool {
        if let Some(lines) = self.lines {
            lines.get(index);
        }
        let Some(value) = self.slots.get_mut(&index) else {
            return false;
        };
        if let Some(lines) = self.lines {
            lines.set(index);
        }
        f(value);
        true
    }

    /// Removes every value, each removal recorded in index order.
    pub fn clear(&mut self) {
        if let Some(lines) = self.lines {
            for index in self.slots.keys() {
                lines.take(*index, true);
            }
        }
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::{AccessKind::Read, AccessKind::Write, SimMachine};

    fn array(m: &SimMachine, label: &str) -> RadixArray<u64, SimMachine> {
        RadixArray::new(Some(m), label)
    }

    fn trace(m: &SimMachine) -> Vec<(String, scr_mtrace::AccessKind)> {
        let log = m.accesses();
        m.clear_trace();
        log.iter().map(|a| (m.label_of(a.line), a.kind)).collect()
    }

    #[test]
    fn set_get_take_roundtrip_and_footprint() {
        let m = SimMachine::new();
        let arr = array(&m, "f.pages");
        m.start_tracing();
        assert_eq!(arr.get(130), None);
        assert_eq!(trace(&m), [("f.pages.interior[2]".into(), Read)]);
        arr.set(0, 500);
        arr.set(1, 600);
        assert_eq!(
            trace(&m),
            [
                ("f.pages.interior[0]".into(), Read),
                ("f.pages.interior[0]".into(), Write),
                ("f.pages.leaf[0][0]".into(), Write),
                ("f.pages.interior[0]".into(), Read),
                ("f.pages.leaf[0][1]".into(), Write),
            ]
        );
        assert_eq!(arr.take(0), Some(500));
        assert_eq!(arr.take(2), None);
        assert_eq!(
            trace(&m),
            [
                ("f.pages.interior[0]".into(), Read),
                ("f.pages.leaf[0][0]".into(), Read),
                ("f.pages.leaf[0][0]".into(), Write),
                ("f.pages.interior[0]".into(), Read),
                ("f.pages.leaf[0][2]".into(), Read),
            ]
        );
        assert_eq!(arr.indices(), [1]);
    }

    #[test]
    fn writes_to_distinct_indices_are_conflict_free() {
        let m = SimMachine::new();
        let arr = array(&m, "pages");
        arr.set(3, 0);
        arr.set(11, 0);
        m.start_tracing();
        m.on_core(0, || arr.set(3, 33));
        m.on_core(1, || arr.set(11, 44));
        m.on_core(2, || arr.set(200, 55));
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn writes_to_same_index_conflict_and_reads_of_others_do_not() {
        let m = SimMachine::new();
        let arr = array(&m, "pages");
        arr.set(1, 0);
        arr.set(10, 0);
        m.start_tracing();
        m.on_core(0, || arr.get(1));
        m.on_core(1, || arr.set(10, 1));
        assert!(m.conflict_report().is_conflict_free());
        m.on_core(0, || arr.set(10, 2));
        assert!(!m.conflict_report().is_conflict_free());
    }

    #[test]
    fn locked_updates_record_what_the_unlocked_calls_record() {
        let m = SimMachine::new();
        let arr = array(&m, "as");
        arr.set(5, 1);
        m.start_tracing();
        arr.get(5);
        arr.set(5, 2);
        arr.get(6);
        let unlocked = trace(&m);
        {
            let mut locked = arr.write();
            assert!(locked.modify(5, |v| *v = 3));
            assert!(!locked.modify(6, |_| unreachable!()));
        }
        assert_eq!(trace(&m), unlocked);
        *arr.write().update(7) += 4;
        assert_eq!(arr.get(7), Some(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let m = SimMachine::new();
        array(&m, "pages").set(RadixArray::<u64, SimMachine>::CAPACITY, 1);
    }
}
