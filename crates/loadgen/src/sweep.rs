//! The (cores, rate, skew) × (mode) sweep and its `BENCH_mail.json` shape.
//!
//! Each cell runs the open-loop generator twice: once untraced for clean
//! timing, and once (smaller, optional) on an instrumented kernel with a
//! `hostmtrace` window open, folding the conflict report into per-shard
//! heat. The sv6-host cells run the commutative API family, the linux-host
//! cells the regular one — the same pairing the Figure 7 benchmarks use, so
//! the trajectory file tells one continuous story: as offered load and skew
//! rise, where does the latency tail go, and which notification-socket
//! shard is to blame.

use crate::openloop::{run_open_loop, run_open_loop_on, LoadConfig, LoadReport};
use crate::schedule::Arrival;
use scr_chaos::plan::ChaosPlan;
use scr_host::kernel::{host_kernel_with, HostMode};
use scr_hostmtrace::HostTraceSink;
use scr_kernel::mail::{MailConfig, MailTopology};
use scr_kernel::Sv6Options;
use scr_obs::{HeatMap, Json, RunMeta, DEFAULT_QUANTILES};

/// Trace-log capacity per thread for the heat pass: sized so a few hundred
/// messages' worth of probe accesses fit without eviction.
const HEAT_LOG_CAPACITY: usize = 1 << 17;

/// What to sweep. Every axis is explicit so the smoke sweep (CI) and the
/// full sweep (`--full`) are the same code with different lists.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Pipeline sizes: `n` means `n` enqueuers × `n` qmans, one shard per
    /// qman (so `2n` worker threads per cell).
    pub pairs: Vec<usize>,
    /// Offered arrival rates, messages/second.
    pub rates: Vec<f64>,
    /// Zipf exponents over the mailbox namespace (0 = uniform).
    pub skews: Vec<f64>,
    /// Messages per timed cell.
    pub messages: usize,
    /// Messages per conflict-heat cell; 0 skips the instrumented pass.
    pub heat_messages: usize,
    /// Mailbox namespace size.
    pub mailboxes: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Seed shared by every cell (cells differ by their parameters, so
    /// identical seeds keep cross-cell comparisons schedule-identical).
    pub seed: u64,
    /// When set, every timed cell also runs a chaos twin — the same
    /// schedule over a fault-injecting kernel stack — keyed with a
    /// `/chaos` suffix, so the trajectory file carries the latency tax of
    /// the injected faults next to the clean cell. The twin skips the heat
    /// pass (fault retries would pollute the conflict attribution).
    pub chaos: Option<ChaosPlan>,
}

impl SweepSpec {
    /// The CI smoke sweep: tiny, deterministic, single-pair.
    pub fn smoke() -> SweepSpec {
        SweepSpec {
            pairs: vec![1],
            rates: vec![5_000.0, 20_000.0],
            skews: vec![0.0, 1.2],
            messages: 300,
            heat_messages: 120,
            mailboxes: 32,
            arrival: Arrival::FixedRate,
            seed: 1,
            chaos: None,
        }
    }

    /// The full trajectory: multi-pair, Poisson arrivals, three skews.
    pub fn full() -> SweepSpec {
        SweepSpec {
            pairs: vec![1, 2, 4],
            rates: vec![10_000.0, 50_000.0, 200_000.0],
            skews: vec![0.0, 0.99, 1.5],
            messages: 4_000,
            heat_messages: 400,
            mailboxes: 256,
            arrival: Arrival::Poisson,
            seed: 1,
            chaos: None,
        }
    }

    /// The two (substrate, API family) columns every cell is run under.
    pub fn modes() -> [(HostMode, MailConfig, &'static str); 2] {
        [
            (HostMode::Sv6, MailConfig::CommutativeApis, "sv6-host"),
            (HostMode::Linuxlike, MailConfig::RegularApis, "linux-host"),
        ]
    }
}

/// Per-shard heat attribution for one cell: conflict windows on the
/// shard's notification-socket lines.
#[derive(Clone, Debug, Default)]
pub struct ShardHeat {
    /// Accesses to `socket[shard].*` lines in the traced window.
    pub accesses: u64,
    /// 1 when the shard's lines were part of a cross-thread conflict.
    pub conflict_windows: u64,
}

/// One sweep cell: its parameters, the timed report, and (optionally) the
/// instrumented pass's heat attribution.
#[derive(Clone, Debug)]
pub struct BenchCell {
    /// Substrate label (`"sv6-host"` / `"linux-host"`).
    pub mode_label: &'static str,
    /// Pipeline size (enqueuers = qmans = pairs).
    pub pairs: usize,
    /// Total worker threads in the cell.
    pub cores: usize,
    /// Offered rate, messages/second.
    pub rate: f64,
    /// Zipf exponent.
    pub skew: f64,
    /// Whether this cell ran under the sweep's chaos plan.
    pub chaos: bool,
    /// The timed open-loop report.
    pub report: LoadReport,
    /// Per-shard notification-socket heat (empty when the heat pass is
    /// disabled).
    pub shard_heat: Vec<ShardHeat>,
    /// Hottest non-socket lines from the heat pass, for the text table.
    pub heat_top: Vec<(String, u64)>,
}

impl BenchCell {
    /// The cell's identity key in `BENCH_mail.json`: mode, pairs, rate,
    /// skew and the `/chaos` suffix.
    pub fn key(&self) -> String {
        format!(
            "{}/pairs{}/rate{:.0}/skew{:.2}{}",
            self.mode_label,
            self.pairs,
            self.rate,
            self.skew,
            if self.chaos { "/chaos" } else { "" }
        )
    }
}

fn cell_config(spec: &SweepSpec, mode: HostMode, mail: MailConfig, pairs: usize) -> LoadConfig {
    LoadConfig {
        mode,
        mail,
        topology: MailTopology::new(pairs, pairs),
        messages: spec.messages,
        rate_per_sec: 0.0, // set per cell
        arrival: spec.arrival,
        mailboxes: spec.mailboxes,
        zipf_s: 0.0, // set per cell
        seed: spec.seed,
        qman_stall_ns: 0,
        chaos: ChaosPlan::none(),
    }
}

/// The shard index of a `socket[N]...` probe label, if it is one. The
/// notification sockets are created eagerly when the server is built on a
/// fresh kernel, so socket id N *is* shard N for N < shards.
fn socket_shard(label: &str, shards: usize) -> Option<usize> {
    let rest = label.strip_prefix("socket[")?;
    let end = rest.find(']')?;
    let id: usize = rest[..end].parse().ok()?;
    (id < shards).then_some(id)
}

/// Run the instrumented heat pass for one cell and attribute socket-line
/// conflicts to shards.
fn heat_pass(spec: &SweepSpec, config: &LoadConfig) -> (Vec<ShardHeat>, Vec<(String, u64)>) {
    let shards = config.topology.notify_shards;
    let mut heat_config = config.clone();
    heat_config.messages = spec.heat_messages;
    let sink = HostTraceSink::with_capacity(config.topology.cores(), HEAT_LOG_CAPACITY);
    let kernel = host_kernel_with(
        config.topology.cores(),
        config.mode,
        Sv6Options::default(),
        Some(&sink),
    );
    sink.begin_window();
    run_open_loop_on(&kernel, &heat_config);
    let report = sink.end_window();
    let heat = HeatMap::new();
    heat.fold_report(&report, |line| sink.label_of(line));

    let mut shard_heat = vec![ShardHeat::default(); shards];
    for (label, entry) in heat.top_n(usize::MAX) {
        if let Some(shard) = socket_shard(&label, shards) {
            shard_heat[shard].accesses += entry.accesses();
            shard_heat[shard].conflict_windows += entry.conflict_windows;
        }
    }
    let heat_top = heat
        .top_n(5)
        .into_iter()
        .map(|(label, entry)| (label, entry.conflict_windows))
        .collect();
    (shard_heat, heat_top)
}

/// Run the whole sweep: every (mode, pairs, rate, skew) cell, timed, plus
/// the optional heat pass. `progress` is called once per finished cell.
pub fn run_sweep(spec: &SweepSpec, mut progress: impl FnMut(&BenchCell)) -> Vec<BenchCell> {
    let mut cells = Vec::new();
    for (mode, mail, mode_label) in SweepSpec::modes() {
        for &pairs in &spec.pairs {
            for &rate in &spec.rates {
                for &skew in &spec.skews {
                    let mut config = cell_config(spec, mode, mail, pairs);
                    config.rate_per_sec = rate;
                    config.zipf_s = skew;
                    let report = run_open_loop(&config);
                    let (shard_heat, heat_top) = if spec.heat_messages > 0 {
                        heat_pass(spec, &config)
                    } else {
                        (Vec::new(), Vec::new())
                    };
                    let cell = BenchCell {
                        mode_label,
                        pairs,
                        cores: config.topology.cores(),
                        rate,
                        skew,
                        chaos: false,
                        report,
                        shard_heat,
                        heat_top,
                    };
                    progress(&cell);
                    cells.push(cell);
                    if let Some(plan) = &spec.chaos {
                        // Same schedule, same seed, faults on: the delta
                        // against the cell above is pure injection tax.
                        config.chaos = plan.clone();
                        let report = run_open_loop(&config);
                        let cell = BenchCell {
                            mode_label,
                            pairs,
                            cores: config.topology.cores(),
                            rate,
                            skew,
                            chaos: true,
                            report,
                            shard_heat: Vec::new(),
                            heat_top: Vec::new(),
                        };
                        progress(&cell);
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells
}

/// Render the sweep as the `BENCH_mail.json` document.
pub fn bench_json(meta: &RunMeta, cells: &[BenchCell]) -> String {
    let cell_json: Vec<Json> = cells
        .iter()
        .map(|cell| {
            let mut latency = Vec::new();
            for (label, q) in DEFAULT_QUANTILES {
                latency.push((label, cell.report.latency.quantile(q).into()));
            }
            latency.push(("max", cell.report.latency.max.into()));
            latency.push(("mean", cell.report.latency.mean().into()));
            let shards: Vec<Json> = cell
                .report
                .shards
                .iter()
                .map(|s| {
                    let heat = cell.shard_heat.get(s.shard);
                    Json::obj(vec![
                        ("shard", s.shard.into()),
                        ("qman", s.qman.into()),
                        ("delivered", s.delivered.into()),
                        ("p99_ns", s.latency.p99().into()),
                        (
                            "heat_accesses",
                            heat.map(|h| h.accesses).unwrap_or(0).into(),
                        ),
                        (
                            "heat_conflict_windows",
                            heat.map(|h| h.conflict_windows).unwrap_or(0).into(),
                        ),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("key", Json::Str(cell.key())),
                ("mode", cell.mode_label.into()),
                ("pairs", cell.pairs.into()),
                ("cores", cell.cores.into()),
                ("rate_per_sec", cell.rate.into()),
                ("zipf_s", cell.skew.into()),
                ("messages", cell.report.enqueued.into()),
                ("chaos", Json::Bool(cell.chaos)),
                ("lost", cell.report.lost.into()),
                ("duplicates", cell.report.duplicates.into()),
                ("dead_lettered", cell.report.dead_lettered.into()),
                ("injected_faults", cell.report.injected_faults.into()),
                ("delayed_polls", cell.report.delayed_polls.into()),
                ("throughput_per_sec", cell.report.throughput().into()),
                ("eagain_retries", cell.report.eagain_retries.into()),
                ("elapsed_seconds", cell.report.elapsed_seconds.into()),
                ("latency_ns", Json::obj(latency)),
                ("shards", Json::Arr(shards)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("meta", meta.to_json()),
        ("cells", Json::Arr(cell_json)),
    ])
    .render()
}

/// Render the sweep as a human-readable table.
pub fn render_table(cells: &[BenchCell]) -> String {
    let mut out = format!(
        "{:<34} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}\n",
        "cell", "msgs/s", "p50 ns", "p99 ns", "p99.9 ns", "max ns", "hot%"
    );
    for cell in cells {
        let hot_share = cell
            .report
            .hottest_shard()
            .map(|s| 100.0 * s.delivered as f64 / cell.report.delivered.max(1) as f64)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{:<34} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10} {:>7.0}%\n",
            cell.key(),
            cell.report.throughput(),
            cell.report.latency.p50(),
            cell.report.latency.p99(),
            cell.report.latency.p999(),
            cell.report.latency.max,
            hot_share,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_labels_map_to_shards() {
        assert_eq!(socket_shard("socket[0].queue", 2), Some(0));
        assert_eq!(socket_shard("socket[1].queue[3]", 2), Some(1));
        assert_eq!(socket_shard("socket[5].queue", 2), None, "beyond shards");
        assert_eq!(socket_shard("scalefs.root.bucket[1].lock", 2), None);
    }

    #[test]
    fn heat_pass_sees_the_cores_that_share_a_notification_shard() {
        let spec = SweepSpec::smoke();
        let mut config = cell_config(&spec, HostMode::Sv6, MailConfig::CommutativeApis, 2);
        config.rate_per_sec = 20_000.0;
        let (shard_heat, _) = heat_pass(&spec, &config);
        // An enqueuer's send and a qman's recv touch a shard's queue lines
        // from two cores; with every access filed under core 0 no shard
        // could ever conflict.
        assert_eq!(shard_heat.len(), 2);
        assert!(
            shard_heat.iter().any(|h| h.conflict_windows > 0),
            "{shard_heat:?}"
        );
    }

    #[test]
    fn smoke_sweep_produces_every_cell_and_valid_json() {
        let mut spec = SweepSpec::smoke();
        spec.messages = 60;
        spec.heat_messages = 40;
        spec.rates = vec![20_000.0];
        spec.skews = vec![0.0, 1.2];
        let mut seen = 0;
        let cells = run_sweep(&spec, |_| seen += 1);
        // 2 modes × 1 pair × 1 rate × 2 skews.
        assert_eq!(cells.len(), 4);
        assert_eq!(seen, 4);
        for cell in &cells {
            assert_eq!(cell.report.delivered, 60, "{}", cell.key());
            assert_eq!(cell.shard_heat.len(), 1);
        }
        let meta = RunMeta::capture("test", "sweep", 2, "smoke");
        let doc = bench_json(&meta, &cells);
        let parsed = Json::parse(&doc).expect("bench json parses");
        let parsed_cells = parsed.get("cells").and_then(|c| c.as_arr()).unwrap();
        assert_eq!(parsed_cells.len(), 4);
        let first = &parsed_cells[0];
        assert!(first.get("throughput_per_sec").unwrap().as_f64().unwrap() > 0.0);
        assert!(first.get("latency_ns").unwrap().get("p999").is_some());
        let table = render_table(&cells);
        assert!(table.contains("sv6-host"));
        assert!(table.contains("linux-host"));
    }

    #[test]
    fn chaos_sweep_adds_a_twin_per_cell_and_keys_it() {
        let mut spec = SweepSpec::smoke();
        spec.messages = 50;
        spec.heat_messages = 0;
        spec.rates = vec![20_000.0];
        spec.skews = vec![0.0];
        spec.chaos = Some(ChaosPlan::errno_storm(5));
        let cells = run_sweep(&spec, |_| {});
        // 2 modes × 1 pair × 1 rate × 1 skew, each with a chaos twin.
        assert_eq!(cells.len(), 4);
        let twins: Vec<_> = cells.iter().filter(|c| c.chaos).collect();
        assert_eq!(twins.len(), 2);
        for twin in &twins {
            assert!(twin.key().ends_with("/chaos"), "{}", twin.key());
            assert_eq!(twin.report.lost, 0);
            assert_eq!(twin.report.duplicates, 0);
            assert!(twin.report.injected_faults > 0);
            assert!(twin.shard_heat.is_empty(), "twins skip the heat pass");
        }
        let meta = RunMeta::capture("test", "sweep", 2, "chaos");
        let doc = bench_json(&meta, &cells);
        let parsed = Json::parse(&doc).expect("bench json parses");
        let parsed_cells = parsed.get("cells").and_then(|c| c.as_arr()).unwrap();
        let flagged = parsed_cells
            .iter()
            .filter(|c| c.get("chaos").and_then(|b| b.as_bool()) == Some(true))
            .count();
        assert_eq!(flagged, 2);
    }
}
