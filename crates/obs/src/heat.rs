//! Conflict-heat accumulation over traced windows.
//!
//! Each traced replay window yields a set of labelled line accesses and the
//! subset of lines that actually conflicted (written by one thread, touched
//! by another). [`HeatMap::fold_window`] folds one window into per-label
//! running totals; [`HeatMap::top_n`] and [`HeatMap::render_top`] turn the
//! totals into the "hottest lines" table printed beside each Figure 6
//! heatmap. Folding happens between windows, not inside them, so the heat
//! map adds no footprint to the traced region (see the probe-parity test in
//! `crates/host/tests/host_obs.rs`).

use crate::json::Json;
use scr_mtrace::{AccessKind, LineId, TraceWindow};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Running totals for one labelled cache line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeatEntry {
    /// Read accesses summed over all folded windows.
    pub reads: u64,
    /// Write accesses summed over all folded windows.
    pub writes: u64,
    /// Windows in which the line was touched at all.
    pub windows: u64,
    /// Windows in which the line was part of a cross-thread conflict.
    pub conflict_windows: u64,
}

impl HeatEntry {
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Per-label access/conflict totals accumulated across traced windows.
///
/// Interior-mutable so replay loops can fold into a shared map; the lock is
/// only taken between traced windows.
#[derive(Debug, Default)]
pub struct HeatMap {
    entries: Mutex<BTreeMap<String, HeatEntry>>,
}

impl Clone for HeatMap {
    fn clone(&self) -> HeatMap {
        HeatMap {
            entries: Mutex::new(self.entries.lock().unwrap().clone()),
        }
    }
}

impl HeatMap {
    pub fn new() -> HeatMap {
        HeatMap::default()
    }

    /// Fold one traced window: `accesses` is the per-line (label, is_write,
    /// count) breakdown; `conflicting` lists the labels that conflicted in
    /// this window.
    pub fn fold_window<I>(&self, accesses: I, conflicting: &[String])
    where
        I: IntoIterator<Item = (String, bool, u64)>,
    {
        let mut entries = self.entries.lock().unwrap();
        let mut touched: Vec<String> = Vec::new();
        for (label, is_write, count) in accesses {
            let entry = entries.entry(label.clone()).or_default();
            if is_write {
                entry.writes += count;
            } else {
                entry.reads += count;
            }
            if !touched.contains(&label) {
                entry.windows += 1;
                touched.push(label);
            }
        }
        for label in conflicting {
            let entry = entries.entry(label.clone()).or_default();
            entry.conflict_windows += 1;
        }
    }

    /// Folds one closed [`TraceWindow`]: per-label read and write counts,
    /// and the labels of its shared lines. `label_of` maps each [`LineId`]
    /// to the label to accumulate under (typically the substrate's
    /// `label_of`, composed with a normalizer; the Figure 6 runner strips
    /// per-instance suffixes so heat aggregates per structure). Runs after
    /// the window has ended, so it adds nothing to the traced footprint.
    pub fn fold_report(&self, window: &TraceWindow, label_of: impl Fn(LineId) -> String) {
        let mut per_line: BTreeMap<(LineId, AccessKind), u64> = BTreeMap::new();
        for access in &window.accesses {
            *per_line.entry((access.line, access.kind)).or_default() += 1;
        }
        let mut accesses: BTreeMap<(String, bool), u64> = BTreeMap::new();
        for ((line, kind), count) in per_line {
            *accesses
                .entry((label_of(line), kind == AccessKind::Write))
                .or_default() += count;
        }
        let mut conflicting: Vec<String> = window
            .report
            .shared_lines
            .iter()
            .map(|shared| label_of(shared.line))
            .collect();
        conflicting.sort();
        conflicting.dedup();
        let rows = accesses.into_iter();
        self.fold_window(
            rows.map(|((label, is_write), count)| (label, is_write, count)),
            &conflicting,
        );
    }

    /// Number of distinct labels seen.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Totals for one label, if seen.
    pub fn entry(&self, label: &str) -> Option<HeatEntry> {
        self.entries.lock().unwrap().get(label).cloned()
    }

    /// Sum of conflict windows over all labels.
    pub fn total_conflict_windows(&self) -> u64 {
        self.entries
            .lock()
            .unwrap()
            .values()
            .map(|e| e.conflict_windows)
            .sum()
    }

    /// The `n` hottest labels, ordered by conflict windows, then total
    /// accesses, then label (for deterministic output).
    pub fn top_n(&self, n: usize) -> Vec<(String, HeatEntry)> {
        let entries = self.entries.lock().unwrap();
        let mut rows: Vec<(String, HeatEntry)> = entries
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        rows.sort_by(|a, b| {
            b.1.conflict_windows
                .cmp(&a.1.conflict_windows)
                .then(b.1.accesses().cmp(&a.1.accesses()))
                .then(a.0.cmp(&b.0))
        });
        rows.truncate(n);
        rows
    }

    /// Render the top-`n` hottest-lines table.
    pub fn render_top(&self, title: &str, n: usize) -> String {
        let rows = self.top_n(n);
        let mut out = format!("{title}: {} line label(s) touched\n", self.len());
        if rows.is_empty() {
            out.push_str("  (no traced accesses)\n");
            return out;
        }
        out.push_str(&format!(
            "  {:<44} {:>9} {:>9} {:>8} {:>10}\n",
            "line", "reads", "writes", "windows", "conflicts"
        ));
        for (label, entry) in rows {
            out.push_str(&format!(
                "  {:<44} {:>9} {:>9} {:>8} {:>10}\n",
                label, entry.reads, entry.writes, entry.windows, entry.conflict_windows
            ));
        }
        out
    }

    /// Export all labels as a JSON object section.
    pub fn to_json(&self) -> Json {
        let entries = self.entries.lock().unwrap();
        Json::Obj(
            entries
                .iter()
                .map(|(label, e)| {
                    (
                        label.clone(),
                        Json::obj(vec![
                            ("reads", e.reads.into()),
                            ("writes", e.writes.into()),
                            ("windows", e.windows.into()),
                            ("conflict_windows", e.conflict_windows.into()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_windows_and_ranks_by_conflicts() {
        let heat = HeatMap::new();
        heat.fold_window(
            vec![
                ("fd-bitmap[0]".to_string(), true, 3),
                ("inode[1].len".to_string(), false, 2),
            ],
            &["fd-bitmap[0]".to_string()],
        );
        heat.fold_window(vec![("inode[1].len".to_string(), false, 5)], &[]);
        assert_eq!(heat.len(), 2);
        let fd = heat.entry("fd-bitmap[0]").unwrap();
        assert_eq!(fd.writes, 3);
        assert_eq!(fd.windows, 1);
        assert_eq!(fd.conflict_windows, 1);
        let inode = heat.entry("inode[1].len").unwrap();
        assert_eq!(inode.reads, 7);
        assert_eq!(inode.windows, 2);
        assert_eq!(inode.conflict_windows, 0);
        // Conflicts outrank raw access volume.
        let top = heat.top_n(2);
        assert_eq!(top[0].0, "fd-bitmap[0]");
        assert_eq!(top[1].0, "inode[1].len");
        let table = heat.render_top("sv6-host hottest lines", 10);
        assert!(table.contains("fd-bitmap[0]"));
        assert!(table.contains("conflicts"));
        assert_eq!(heat.total_conflict_windows(), 1);
    }

    #[test]
    fn fold_report_bridges_a_traced_window() {
        use scr_mtrace::{on_core, HostTraceSink, Lines};
        let sink = HostTraceSink::new(2);
        let hot = sink.line("fd-bitmap");
        let cold = sink.line("inode.len");
        sink.begin_window();
        std::thread::scope(|s| {
            for core in 0..2 {
                let (hot, cold) = (&hot, &cold);
                s.spawn(move || {
                    on_core(core, || {
                        hot.rmw(0);
                        cold.read(0);
                    })
                });
            }
        });
        let window = sink.end_window();
        let heat = HeatMap::new();
        heat.fold_report(&window, |line| sink.label_of(line));
        let entry = heat.entry("fd-bitmap").unwrap();
        assert_eq!(entry.reads, 2);
        assert_eq!(entry.writes, 2);
        assert_eq!(entry.windows, 1);
        assert_eq!(entry.conflict_windows, 1);
        let entry = heat.entry("inode.len").unwrap();
        assert_eq!((entry.reads, entry.writes), (2, 0));
        assert_eq!((entry.windows, entry.conflict_windows), (1, 0));
    }

    #[test]
    fn empty_map_renders_placeholder() {
        let heat = HeatMap::new();
        assert!(heat.render_top("t", 5).contains("no traced accesses"));
        assert!(heat.is_empty());
    }
}
