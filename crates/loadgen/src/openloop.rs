//! The open-loop runner: a fixed arrival schedule against a live pipeline.
//!
//! Every message's arrival time is decided before the first thread starts
//! ([`arrival_offsets`]); the enqueuers of the [`run_pipeline`] engine
//! release messages *at* those times, and latency is measured **from the
//! intended arrival** to the moment the qman finishes delivery. When the
//! pipeline falls behind, the wait in its queues is part of the number —
//! the coordinated-omission-safe convention (Tene's "How NOT to Measure
//! Latency") that closed-loop harnesses like
//! [`LoadHarness`](scr_host::harness::LoadHarness) cannot give, because
//! their next request waits for the previous reply.
//!
//! This module is a front end: it builds the schedule (due time and
//! zipf-sampled mailbox per message) and records latency and per-shard
//! histograms in the engine's per-delivery hook. The intended-arrival
//! timestamp rides *inside the message body* ([`stamp`]), so it crosses
//! the pipeline the same way the payload does and the hook computes
//! end-to-end latency from [`Delivered::body`] at zero extra syscall cost.
//! The engine's ledger keys each body by its schedule index, so the report
//! says exactly how many messages went missing or arrived twice.
//!
//! With a [`ChaosPlan`] in [`LoadConfig::chaos`] the engine runs the
//! pipeline over its fault layers with a never-give-up retry budget, so
//! injected errnos and delivery holds surface as latency (charged from the
//! intended arrival, like any other queueing delay), and scheduled qman
//! crashes as supervised restarts — never as lost mail.
//!
//! [`Delivered::body`]: scr_kernel::mail::Delivered::body
//! [`stamp`]: scr_host::pipeline::stamp

use crate::rng::Rng64;
use crate::schedule::{arrival_offsets, Arrival};
use crate::zipf::ZipfSampler;
use scr_chaos::plan::ChaosPlan;
use scr_host::kernel::{host_kernel, HostMode};
pub use scr_host::pipeline::{parse_stamp, parse_stamp_index};
use scr_host::pipeline::{run_pipeline, PipelineConfig};
use scr_kernel::mail::{Delivered, MailConfig, MailTopology};
use scr_kernel::retry::RetryPolicy;
use scr_obs::{Counter, Histogram, HistogramSnapshot, MetricsRegistry};

/// One open-loop cell: what to offer the pipeline and how to shape it.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Kernel sharing policy (sv6 vs the Linux-like baseline).
    pub mode: HostMode,
    /// Mail API family (§7.3 regular vs commutative).
    pub mail: MailConfig,
    /// Enqueuers × qmans × notification-socket shards.
    pub topology: MailTopology,
    /// Total messages to offer.
    pub messages: usize,
    /// Offered arrival rate, messages per second (across all enqueuers).
    pub rate_per_sec: f64,
    /// Arrival process (fixed-rate or Poisson).
    pub arrival: Arrival,
    /// Size of the mailbox namespace popularity is sampled over.
    pub mailboxes: usize,
    /// Zipf exponent for mailbox popularity; 0 = uniform.
    pub zipf_s: f64,
    /// Seed for the whole run (schedule + popularity).
    pub seed: u64,
    /// Deliberate per-step stall in each qman loop, in nanoseconds. Zero in
    /// real runs; the coordinated-omission regression test sets it to cap
    /// the service rate below the offered rate and then checks the recorded
    /// latency grows with the backlog.
    pub qman_stall_ns: u64,
    /// Fault-injection plan. [`ChaosPlan::none()`] (the benchmark's runs) runs
    /// the kernel bare; an enabled plan wraps it in the engine's
    /// fault-and-retry layers, so every injected errno and delivery hold
    /// shows up as open-loop latency, and every scheduled qman crash as a
    /// supervised restart.
    pub chaos: ChaosPlan,
}

impl LoadConfig {
    /// A small deterministic smoke cell: 1×1 pipeline, commutative APIs,
    /// uniform popularity, fast fixed-rate arrivals.
    pub fn smoke() -> LoadConfig {
        LoadConfig {
            mode: HostMode::Sv6,
            mail: MailConfig::CommutativeApis,
            topology: MailTopology::single(),
            messages: 200,
            rate_per_sec: 20_000.0,
            arrival: Arrival::FixedRate,
            mailboxes: 16,
            zipf_s: 0.0,
            seed: 1,
            qman_stall_ns: 0,
            chaos: ChaosPlan::none(),
        }
    }
}

/// Per-shard slice of a run: how much traffic the shard carried and the
/// latency distribution of the messages that travelled through it.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Notification-socket shard index.
    pub shard: usize,
    /// The qman that owns the shard.
    pub qman: usize,
    /// Messages delivered through this shard.
    pub delivered: u64,
    /// Latency (ns, intended-arrival to delivered) of those messages.
    pub latency: HistogramSnapshot,
}

/// The outcome of one open-loop run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Messages the enqueuers released (always `config.messages`).
    pub enqueued: u64,
    /// Messages delivered to their mailboxes (equals `enqueued` — the run
    /// drains the queue).
    pub delivered: u64,
    /// Schedule indices that were enqueued but never delivered. Always 0
    /// on a healthy run, chaos or not; the exactly-once exit gate.
    pub lost: u64,
    /// Extra deliveries beyond the first, summed over schedule indices.
    pub duplicates: u64,
    /// Deliveries that landed in the `dead-letter` mailbox instead of the
    /// addressed one. The open-loop runner retries persistently, so this
    /// stays 0 even under chaos; it is counted (not assumed) so the exit
    /// gate can tell the three failure shapes apart.
    pub dead_lettered: u64,
    /// Errnos the chaos plan injected (0 when chaos is disabled).
    pub injected_faults: u64,
    /// Recv polls eaten by injected delivery holds (0 without chaos).
    pub delayed_polls: u64,
    /// Scheduled qman deaths that fired (0 without a crash plan).
    pub crashes: u64,
    /// Qman incarnations the supervisor restarted after those deaths.
    pub restarts: u64,
    /// Empty-queue polling rounds on the qman side.
    pub eagain_retries: u64,
    /// Wall time from epoch to last delivery, seconds.
    pub elapsed_seconds: f64,
    /// Offered rate (from the config), for achieved-vs-offered comparison.
    pub offered_rate: f64,
    /// End-to-end latency in ns, measured from intended arrival.
    pub latency: HistogramSnapshot,
    /// Per-shard traffic and latency.
    pub shards: Vec<ShardStats>,
}

impl LoadReport {
    /// Achieved delivery throughput, messages per second.
    pub fn throughput(&self) -> f64 {
        self.delivered as f64 / self.elapsed_seconds.max(1e-9)
    }

    /// The shard that carried the most messages (hot shard under skew).
    pub fn hottest_shard(&self) -> Option<&ShardStats> {
        self.shards.iter().max_by_key(|s| s.delivered)
    }
}

/// The engine configuration of one cell. The open loop retries every
/// injected fault persistently: faults cost latency, never a dead letter.
fn pipeline_config(config: &LoadConfig) -> PipelineConfig {
    PipelineConfig {
        plan: config.chaos.clone(),
        retry: RetryPolicy::spin(),
        qman_stall_ns: config.qman_stall_ns,
        ..PipelineConfig::new(config.mail, config.topology)
    }
}

/// Run one open-loop cell on a fresh kernel built from `config.mode`.
pub fn run_open_loop(config: &LoadConfig) -> LoadReport {
    let cfg = pipeline_config(config);
    let kernel = host_kernel(cfg.cores(), config.mode);
    let shards = config.topology.notify_shards;

    // The whole schedule is decided here, before any worker exists:
    // message i is due at offsets[i] and addressed to a zipf-ranked mailbox.
    let offsets = arrival_offsets(
        config.arrival,
        config.rate_per_sec,
        config.messages,
        config.seed,
    );
    let sampler = ZipfSampler::new(config.mailboxes.max(1), config.zipf_s);
    let mut popularity = Rng64::stream(config.seed, 0x21BF);
    let schedule: Vec<(u64, String)> = offsets
        .into_iter()
        .map(|due| (due, format!("box{:04}", sampler.sample(&mut popularity))))
        .collect();

    let registry = MetricsRegistry::new(cfg.cores());
    let latency = registry.histogram("mail.latency_ns");
    let delivered = registry.counter("mail.delivered");
    let shard_latency: Vec<Histogram> = (0..shards)
        .map(|s| registry.histogram(&format!("mail.shard[{s}].latency_ns")))
        .collect();
    let shard_delivered: Vec<Counter> = (0..shards)
        .map(|s| registry.counter(&format!("mail.shard[{s}].delivered")))
        .collect();

    let ledger = run_pipeline(
        &kernel,
        &cfg,
        &schedule,
        None,
        |core, d: &Delivered, at_ns| {
            let due = parse_stamp(&d.body).expect("stamped body");
            let waited = at_ns.saturating_sub(due);
            latency.record(core, waited);
            shard_latency[d.shard].record(core, waited);
            shard_delivered[d.shard].inc(core);
            delivered.inc(core);
        },
    );

    LoadReport {
        enqueued: ledger.enqueued as u64,
        delivered: ledger.delivered as u64,
        lost: ledger.lost as u64,
        duplicates: ledger.duplicates as u64,
        dead_lettered: ledger.dead_lettered as u64,
        injected_faults: ledger.injected_faults,
        delayed_polls: ledger.delayed_polls,
        crashes: ledger.crashes as u64,
        restarts: ledger.restarts as u64,
        eagain_retries: ledger.eagain_retries,
        elapsed_seconds: ledger.elapsed.as_secs_f64(),
        offered_rate: config.rate_per_sec,
        latency: latency.merged(),
        shards: (0..shards)
            .map(|s| ShardStats {
                shard: s,
                qman: config.topology.qman_of_shard(s),
                delivered: shard_delivered[s].total(),
                latency: shard_latency[s].merged(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_smoke_delivers_everything_exactly_once() {
        let mut config = LoadConfig::smoke();
        config.messages = 100;
        let report = run_open_loop(&config);
        assert_eq!(report.enqueued, 100);
        assert_eq!(report.delivered, 100);
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.dead_lettered, 0);
        assert_eq!(report.latency.count, 100);
        assert!(report.throughput() > 0.0);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].delivered, 100);
    }

    #[test]
    fn chaos_cell_injects_faults_but_loses_nothing() {
        let mut config = LoadConfig::smoke();
        config.messages = 120;
        config.chaos = ChaosPlan::errno_storm(7);
        config.chaos.delay = scr_chaos::plan::DelaySpec {
            ppm: 50_000,
            polls: 4,
        };
        let report = run_open_loop(&config);
        assert_eq!(report.delivered, 120);
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.dead_lettered, 0);
        assert!(report.injected_faults > 0, "storm injected nothing");
    }

    #[test]
    fn chaos_cell_is_deterministic_in_its_fault_count() {
        // recv stays fault-free: the number of recv polls depends on
        // scheduling (empty-queue spins), so only the calls with
        // schedule-determined counts — send, open, spawn — are injected.
        let mut config = LoadConfig::smoke();
        config.messages = 80;
        config.chaos = ChaosPlan::new(
            11,
            scr_chaos::plan::FaultSpec {
                send_ppm: 150_000,
                recv_ppm: 0,
                open_ppm: 150_000,
                spawn_ppm: 150_000,
            },
            scr_chaos::plan::DelaySpec::default(),
            vec![],
        );
        let a = run_open_loop(&config);
        let b = run_open_loop(&config);
        // Timing differs run to run, but the fault *decisions* are a pure
        // function of (seed, core, per-kind call index): identical traffic
        // must draw an identical injection count.
        assert_eq!(a.injected_faults, b.injected_faults);
        assert!(a.injected_faults > 0, "plan injected nothing");
        assert_eq!(a.lost + b.lost, 0);
    }

    #[test]
    fn open_loop_honours_the_crash_plan() {
        // Each of qman 0's first three incarnations dies at its third
        // message; 60 messages leave every one of them enough traffic.
        let mut config = LoadConfig::smoke();
        config.messages = 60;
        config.chaos = ChaosPlan::qman_crash(9);
        let report = run_open_loop(&config);
        assert_eq!(report.crashes, 3, "{report:?}");
        assert_eq!(report.restarts, 3, "{report:?}");
        assert_eq!(report.lost, 0, "{report:?}");
        assert_eq!(report.duplicates, 0, "{report:?}");
        assert_eq!(report.delivered, 60, "{report:?}");
        assert_eq!(report.latency.count, 60, "one latency sample per delivery");
    }

    #[test]
    fn sharded_run_attributes_every_message_to_a_shard() {
        let mut config = LoadConfig::smoke();
        config.topology = MailTopology::new(2, 2).with_shards(4);
        config.messages = 120;
        config.zipf_s = 1.2;
        let report = run_open_loop(&config);
        assert_eq!(report.delivered, 120);
        let per_shard: u64 = report.shards.iter().map(|s| s.delivered).sum();
        assert_eq!(per_shard, 120);
        let lat_count: u64 = report.shards.iter().map(|s| s.latency.count).sum();
        assert_eq!(lat_count, report.latency.count);
        assert!(report.hottest_shard().unwrap().delivered > 0);
    }
}
