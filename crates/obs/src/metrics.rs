//! Per-core, cache-padded metrics that obey the commutativity rule.
//!
//! The discipline: a metric update from core *c* touches exactly one cache
//! line — core *c*'s own padded slot — with a relaxed RMW. Updates from
//! different cores are write-commutative and conflict-free, so instrumenting
//! a workload can never introduce the shared line whose absence the workload
//! is trying to demonstrate. Reads (snapshots, totals, quantiles) walk all
//! slots and merge; they are expected to run outside the measured window.

use crate::json::Json;
use crate::meta::RunMeta;
use crossbeam::utils::CachePadded;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets in a [`Histogram`]. Bucket 0 holds zeros; bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b)`; the last bucket also absorbs
/// everything above its floor. 65 buckets cover the full `u64` range.
pub const HIST_BUCKETS: usize = 65;

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

fn bucket_bounds(bucket: usize) -> (u64, u64) {
    if bucket == 0 {
        (0, 1)
    } else if bucket >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (bucket - 1), 1u64 << bucket)
    }
}

struct CounterCells {
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl CounterCells {
    fn new(cores: usize) -> CounterCells {
        CounterCells {
            slots: (0..cores.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }
}

struct HistSlot {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistSlot {
    fn new() -> HistSlot {
        HistSlot {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

struct HistCells {
    slots: Box<[CachePadded<HistSlot>]>,
}

impl HistCells {
    fn new(cores: usize) -> HistCells {
        HistCells {
            slots: (0..cores.max(1))
                .map(|_| CachePadded::new(HistSlot::new()))
                .collect(),
        }
    }
}

/// A named registry of per-core counters and histograms.
///
/// Handles ([`Counter`], [`Histogram`]) are registered once — registration
/// takes a lock — and then updated lock-free from any core. Handles
/// pre-resolve their cells, so an update never touches the registry again.
pub struct MetricsRegistry {
    cores: usize,
    counters: Mutex<BTreeMap<String, Arc<CounterCells>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCells>>>,
}

impl MetricsRegistry {
    /// A registry with one padded slot per core.
    pub fn new(cores: usize) -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry {
            cores: cores.max(1),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        })
    }

    /// Register (or re-resolve) the counter `name`. Handles with the same
    /// name share cells, so a re-registration observes prior counts.
    pub fn counter(&self, name: &str) -> Counter {
        let cells = {
            let mut map = self.counters.lock().unwrap();
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(CounterCells::new(self.cores)))
                .clone()
        };
        Counter { cells }
    }

    /// Register (or re-resolve) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let cells = {
            let mut map = self.histograms.lock().unwrap();
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(HistCells::new(self.cores)))
                .clone()
        };
        Histogram { cells }
    }

    /// Merge every metric across cores into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for (name, cells) in self.counters.lock().unwrap().iter() {
            let per_core: Vec<u64> = cells
                .slots
                .iter()
                .map(|slot| slot.load(Ordering::Relaxed))
                .collect();
            let total = per_core.iter().sum();
            counters.insert(name.clone(), CounterSnapshot { total, per_core });
        }
        let mut histograms = BTreeMap::new();
        for (name, cells) in self.histograms.lock().unwrap().iter() {
            histograms.insert(name.clone(), merge_hist(cells));
        }
        MetricsSnapshot {
            meta: RunMeta::default(),
            counters,
            histograms,
            extras: Vec::new(),
        }
    }
}

/// A per-core counter handle. Cloning shares the cells.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<CounterCells>,
}

impl Counter {
    /// Add `n` from `core`: one relaxed `fetch_add` on the core's own
    /// padded line.
    #[inline]
    pub fn add(&self, core: usize, n: u64) {
        let slots = &self.cells.slots;
        slots[core % slots.len()].fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 from `core`.
    #[inline]
    pub fn inc(&self, core: usize) {
        self.add(core, 1);
    }

    /// Sum across all cores (a read-side merge; runs outside hot windows).
    pub fn total(&self) -> u64 {
        self.cells
            .slots
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .sum()
    }

    /// The per-core shard values.
    pub fn per_core(&self) -> Vec<u64> {
        self.cells
            .slots
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .collect()
    }
}

/// A per-core log-bucketed histogram handle. Cloning shares the cells.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// Record one sample from `core`: four relaxed RMWs, all on the core's
    /// own padded slot.
    #[inline]
    pub fn record(&self, core: usize, value: u64) {
        let slots = &self.cells.slots;
        let slot = &slots[core % slots.len()];
        slot.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        slot.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merge all cores into one distribution.
    pub fn merged(&self) -> HistogramSnapshot {
        merge_hist(&self.cells)
    }
}

fn merge_hist(cells: &HistCells) -> HistogramSnapshot {
    let mut buckets = vec![0u64; HIST_BUCKETS];
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut max = 0u64;
    for slot in cells.slots.iter() {
        for (merged, bucket) in buckets.iter_mut().zip(slot.buckets.iter()) {
            *merged += bucket.load(Ordering::Relaxed);
        }
        count += slot.count.load(Ordering::Relaxed);
        sum = sum.saturating_add(slot.sum.load(Ordering::Relaxed));
        max = max.max(slot.max.load(Ordering::Relaxed));
    }
    HistogramSnapshot {
        count,
        sum,
        max,
        buckets,
    }
}

/// A merged counter: the cross-core total plus the per-core shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub total: u64,
    pub per_core: Vec<u64>,
}

/// A merged histogram distribution with quantile estimation. The default
/// is the empty distribution, whose quantiles read 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by walking the cumulative
    /// bucket counts and interpolating linearly inside the crossed bucket.
    /// Exact for values that fall on bucket boundaries; otherwise accurate
    /// to within the 2× bucket width, which is all a log histogram promises.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= target {
                let (lo, hi) = bucket_bounds(bucket);
                let hi = hi.min(self.max.max(lo + 1));
                let within = (target - cumulative) as f64 / n as f64;
                return lo as f64 + within * (hi - lo) as f64;
            }
            cumulative += n;
        }
        self.max as f64
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Evaluate a configurable quantile list in one pass over the snapshot.
    /// Labels come back with the values so renderers stay in sync with the
    /// list they were handed.
    pub fn quantiles(&self, list: &[(&str, f64)]) -> Vec<(String, f64)> {
        list.iter()
            .map(|&(label, q)| (label.to_string(), self.quantile(q)))
            .collect()
    }
}

/// The quantile list every table and JSON export renders by default.
pub const DEFAULT_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// Everything one run exports: metadata, merged metrics and free-form
/// extras. Shares its JSON schema with the `BENCH_*.json` artifacts (a
/// top-level `meta` object plus named sections).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub meta: RunMeta,
    pub counters: BTreeMap<String, CounterSnapshot>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Example-specific extra sections, appended to the document root.
    pub extras: Vec<(String, Json)>,
}

impl MetricsSnapshot {
    /// Render the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut root: Vec<(String, Json)> = vec![("meta".to_string(), self.meta.to_json())];
        let counters: Vec<(String, Json)> = self
            .counters
            .iter()
            .map(|(name, c)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("total", c.total.into()),
                        (
                            "per_core",
                            Json::Arr(c.per_core.iter().map(|&n| n.into()).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        root.push(("counters".to_string(), Json::Obj(counters)));
        let histograms: Vec<(String, Json)> = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let buckets: Vec<Json> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(bucket, &n)| {
                        Json::obj(vec![
                            ("floor", bucket_bounds(bucket).0.into()),
                            ("count", n.into()),
                        ])
                    })
                    .collect();
                let mut pairs = vec![
                    ("count", Json::from(h.count)),
                    ("sum", h.sum.into()),
                    ("max", h.max.into()),
                    ("mean", h.mean().into()),
                ];
                for (label, q) in DEFAULT_QUANTILES {
                    pairs.push((label, h.quantile(q).into()));
                }
                pairs.push(("buckets", Json::Arr(buckets)));
                (name.clone(), Json::obj(pairs))
            })
            .collect();
        root.push(("histograms".to_string(), Json::Obj(histograms)));
        for (name, value) in &self.extras {
            root.push((name.clone(), value.clone()));
        }
        Json::Obj(root).render()
    }

    /// Render a human-readable summary table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("run: {}\n", self.meta.describe()));
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, c) in &self.counters {
                let shards: Vec<String> = c.per_core.iter().map(|n| n.to_string()).collect();
                out.push_str(&format!(
                    "  {:<40} {:>10}  [{}]\n",
                    name,
                    c.total,
                    shards.join(" ")
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (ns unless noted):\n");
            let mut header = format!("  {:<40} {:>8}", "name", "count");
            for (label, _) in DEFAULT_QUANTILES {
                let label = if label == "p999" { "p99.9" } else { label };
                header.push_str(&format!(" {label:>10}"));
            }
            header.push_str(&format!(" {:>10}\n", "max"));
            out.push_str(&header);
            for (name, h) in &self.histograms {
                let mut row = format!("  {:<40} {:>8}", name, h.count);
                for (_, q) in DEFAULT_QUANTILES {
                    row.push_str(&format!(" {:>10.0}", h.quantile(q)));
                }
                row.push_str(&format!(" {:>10}\n", h.max));
                out.push_str(&row);
            }
        }
        out
    }

    /// Write the JSON document to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert!(lo < hi || b == 64);
            if b > 0 && b < 64 {
                assert_eq!(bucket_of(lo), b);
                assert_eq!(bucket_of(hi - 1), b);
            }
        }
    }

    #[test]
    fn counter_shards_by_core_and_merges() {
        let registry = MetricsRegistry::new(4);
        let counter = registry.counter("ops");
        counter.add(0, 5);
        counter.add(1, 7);
        counter.add(5, 1); // wraps to core 1
        assert_eq!(counter.total(), 13);
        assert_eq!(counter.per_core(), vec![5, 8, 0, 0]);
        // A re-resolved handle shares the cells.
        assert_eq!(registry.counter("ops").total(), 13);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let registry = MetricsRegistry::new(1);
        let hist = registry.histogram("lat");
        for v in 1..=1000u64 {
            hist.record(0, v);
        }
        let merged = hist.merged();
        assert_eq!(merged.count, 1000);
        assert_eq!(merged.max, 1000);
        let p50 = merged.p50();
        assert!((256.0..=1024.0).contains(&p50), "p50 = {p50}");
        let p99 = merged.p99();
        assert!((512.0..=1024.0).contains(&p99), "p99 = {p99}");
        assert!(merged.p50() <= merged.p90());
        assert!(merged.p90() <= merged.p99());
        assert!(merged.p99() <= merged.max as f64);
    }

    #[test]
    fn tail_quantile_interpolation_error_is_bounded_by_the_bucket() {
        // A log-bucketed histogram promises nothing tighter than "inside
        // the bucket the exact quantile falls in"; for bulk-uniform data
        // the in-bucket linear interpolation should land much closer.
        let registry = MetricsRegistry::new(1);
        let hist = registry.histogram("lat");
        for v in 1..=10_000u64 {
            hist.record(0, v);
        }
        let merged = hist.merged();
        let exact = 9_990.0; // true p99.9 of 1..=10000
        let est = merged.p999();
        let (lo, hi) = bucket_bounds(bucket_of(exact as u64));
        let hi = (hi as f64).min(merged.max as f64);
        assert!(
            est >= lo as f64 && est <= hi,
            "p99.9 estimate {est} escaped the exact value's bucket [{lo}, {hi}]"
        );
        // Uniform-within-bucket data: interpolation should be within 1%.
        assert!(
            (est - exact).abs() / exact < 0.01,
            "p99.9 estimate {est} too far from exact {exact}"
        );
        // The same bound at p99 for good measure.
        let est99 = merged.p99();
        assert!((est99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99 = {est99}");
    }

    #[test]
    fn configurable_quantile_list_renders_p999_everywhere() {
        let registry = MetricsRegistry::new(1);
        let hist = registry.histogram("lat");
        for v in 1..=1000u64 {
            hist.record(0, v);
        }
        let merged = hist.merged();
        let qs = merged.quantiles(&DEFAULT_QUANTILES);
        assert_eq!(qs.len(), 4);
        assert_eq!(qs[3].0, "p999");
        assert!(qs[2].1 <= qs[3].1, "p99 {} > p99.9 {}", qs[2].1, qs[3].1);
        assert!(merged.p999() <= merged.max as f64);
        // Custom lists work too.
        let custom = merged.quantiles(&[("p10", 0.10), ("p9999", 0.9999)]);
        assert_eq!(custom[0].0, "p10");
        assert!(custom[0].1 <= custom[1].1);
        // Rendered snapshot carries the tail quantile in both formats.
        let snapshot = registry.snapshot();
        assert!(snapshot.to_json().contains("\"p999\""));
        assert!(snapshot.render_text().contains("p99.9"));
    }

    #[test]
    fn snapshot_round_trips_to_json() {
        let registry = MetricsRegistry::new(2);
        registry.counter("a.count").add(0, 3);
        registry.histogram("a.latency_ns").record(1, 100);
        let snapshot = registry.snapshot();
        let json = snapshot.to_json();
        assert!(json.contains("\"a.count\""));
        assert!(json.contains("\"total\":3"));
        assert!(json.contains("\"per_core\":[3,0]"));
        assert!(json.contains("\"a.latency_ns\""));
        assert!(json.contains("\"meta\""));
        let text = snapshot.render_text();
        assert!(text.contains("a.count"));
    }
}
