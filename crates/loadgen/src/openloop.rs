//! The open-loop runner: a fixed arrival schedule against a live pipeline.
//!
//! Every message's arrival time is decided before the first thread starts
//! ([`arrival_offsets`]); enqueuer threads release messages *at* those
//! times, and latency is measured **from the intended arrival** to the
//! moment the qman finishes delivery. When the pipeline falls behind, the
//! wait in its queues is part of the number — the coordinated-omission-safe
//! convention (Tene's "How NOT to Measure Latency") that closed-loop
//! harnesses like [`LoadHarness`](scr_host::harness::LoadHarness) cannot
//! give, because their next request waits for the previous reply.
//!
//! The intended-arrival timestamp rides *inside the message body*
//! (`t=<ns>;i=<index>;m=<mailbox>`), so it crosses the pipeline the same
//! way the payload does and the qman side needs no side-channel to compute
//! end-to-end latency: [`Delivered::body`] hands the stamp back at zero
//! extra syscall cost. The `i=` field is the message's global schedule
//! index, which lets the ledger say exactly *which* messages went missing
//! or arrived twice, not merely that the totals disagree.
//!
//! With a [`ChaosPlan`] in [`LoadConfig::chaos`], the whole pipeline runs
//! over two `scr_kernel::api::Layer`s: a [`FaultyKernel`] injecting seeded
//! transient errnos and delivery holds, under a persistent
//! [`ReliableKernel`] retry layer. Faults surface as latency (charged from
//! the intended arrival, like any other queueing delay), never as lost
//! mail.
//!
//! [`Delivered::body`]: scr_kernel::mail::Delivered::body

use crate::rng::Rng64;
use crate::schedule::{arrival_offsets, Arrival};
use crate::zipf::ZipfSampler;
use scr_chaos::kernel::{FaultyKernel, ReliableKernel};
use scr_chaos::plan::ChaosPlan;
use scr_host::kernel::{HostKernel, HostMode};
use scr_kernel::api::{Errno, Pid, SyscallApi};
use scr_kernel::mail::{MailConfig, MailServer, MailTopology, NoMailObs, DEAD_LETTER};
use scr_kernel::retry::{Backoff, RetryPolicy};
use scr_obs::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One open-loop cell: what to offer the pipeline and how to shape it.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Kernel sharing structure (sv6 striped vs linuxlike global lock).
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
    /// Fault-injection plan. [`ChaosPlan::none()`] (the default cells) runs
    /// the kernel bare; an enabled plan wraps it in a
    /// [`FaultyKernel`]+[`ReliableKernel`] stack so every injected errno
    /// and delivery hold shows up as open-loop latency.
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

    /// One-line cell description for tables and `RunMeta.config`.
    pub fn describe(&self) -> String {
        format!(
            "{}x{} pipeline, {} shard(s), {} msgs @ {:.0}/s {}, {} mailboxes zipf s={}, seed {}",
            self.topology.enqueuers,
            self.topology.qmans,
            self.topology.notify_shards,
            self.messages,
            self.rate_per_sec,
            self.arrival.name(),
            self.mailboxes,
            self.zipf_s,
            self.seed
        )
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
    /// Messages delivered (equals `enqueued` — the run drains the queue).
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
    /// Empty-queue polls on the qman side.
    pub eagain_retries: u64,
    /// Wall time from epoch to last delivery, seconds.
    pub elapsed_seconds: f64,
    /// Offered rate (from the config), for achieved-vs-offered comparison.
    pub offered_rate: f64,
    /// End-to-end latency in ns, measured from intended arrival.
    pub latency: HistogramSnapshot,
    /// Per-shard traffic and latency.
    pub shards: Vec<ShardStats>,
    /// The full metrics snapshot (same counter/histogram names the
    /// closed-loop `MailTelemetry` path uses), for artifact export.
    pub snapshot: MetricsSnapshot,
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

/// Intended-arrival stamp carried in the message body, tagged with the
/// message's global schedule index for the exactly-once ledger.
fn stamp(due_ns: u64, index: usize, mailbox: &str) -> String {
    format!("t={due_ns};i={index};m={mailbox}")
}

/// Recover the intended-arrival ns from a delivered body.
pub fn parse_stamp(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.strip_prefix("t=")?;
    let end = rest.find(';')?;
    rest[..end].parse().ok()
}

/// Recover the schedule index from a delivered body.
pub fn parse_stamp_index(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find(";i=")? + 3..];
    let end = rest.find(';')?;
    rest[..end].parse().ok()
}

/// Sleep (coarse) then yield (fine) until `due_ns` after `epoch`. Never
/// spins without yielding, so an oversubscribed host (CI's single
/// hardware thread running several pipeline threads) keeps making progress.
fn wait_until(epoch: Instant, due_ns: u64) {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let gap = due_ns - now;
        if gap > 500_000 {
            // Leave the last ~200µs to the yield loop: sleep overshoot
            // would delay the *release*, not the schedule, and the latency
            // clock charges any release delay to the system — keep it small.
            std::thread::sleep(Duration::from_nanos(gap - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Run one open-loop cell on a fresh kernel built from `config.mode`.
pub fn run_open_loop(config: &LoadConfig) -> LoadReport {
    let kernel = HostKernel::new(config.topology.cores(), config.mode);
    run_open_loop_on(&kernel, config)
}

/// Run one open-loop cell against an existing kernel (the conflict-heat
/// pass hands in an instrumented one; timed cells use [`run_open_loop`]).
///
/// The kernel must have at least `config.topology.cores()` cores. When
/// `config.chaos` is enabled the run happens through a
/// [`FaultyKernel`]+[`ReliableKernel`] stack over `kernel`: injected
/// faults are decided *before* the inner call executes, so retrying them
/// persistently is always safe and the exactly-once ledger must still
/// close.
pub fn run_open_loop_on(kernel: &HostKernel, config: &LoadConfig) -> LoadReport {
    let client = kernel.new_process();
    let qman_pid = kernel.new_process();
    if config.chaos.enabled() {
        let cores = config.topology.cores();
        let faulty = FaultyKernel::new(kernel, config.chaos.clone(), cores);
        let reliable =
            ReliableKernel::new(&faulty, RetryPolicy::spin().with_seed(config.chaos.seed));
        let mut report = open_loop_inner(&reliable, client, qman_pid, config);
        report.injected_faults = faulty.injected_total();
        report.delayed_polls = faulty.delayed_polls_total();
        report
    } else {
        open_loop_inner(kernel, client, qman_pid, config)
    }
}

/// The generic open-loop engine: any [`SyscallApi`] (bare host kernel or
/// the chaos stack) with the client/qman processes already created.
fn open_loop_inner<K: SyscallApi + Sync + ?Sized>(
    kernel: &K,
    client: Pid,
    qman_pid: Pid,
    config: &LoadConfig,
) -> LoadReport {
    let topology = config.topology;
    let cores = topology.cores();
    let total = config.messages;

    // The whole schedule is decided here, before any worker exists:
    // message i is due at offsets[i] and addressed to mailbox ranks[i].
    let offsets = arrival_offsets(config.arrival, config.rate_per_sec, total, config.seed);
    let sampler = ZipfSampler::new(config.mailboxes.max(1), config.zipf_s);
    let mut popularity = Rng64::stream(config.seed, 0x21BF);
    let mailboxes: Vec<String> = (0..total)
        .map(|_| format!("box{:04}", sampler.sample(&mut popularity)))
        .collect();

    let server =
        MailServer::with_topology(kernel, config.mail, topology, cores).expect("mail server");

    let registry = MetricsRegistry::new(cores);
    let latency = registry.histogram("mail.latency_ns");
    let enqueued = registry.counter("mail.enqueued");
    let delivered = registry.counter("mail.delivered");
    let eagain = registry.counter("mail.eagain_retries");
    let shard_latency: Vec<Histogram> = (0..topology.notify_shards)
        .map(|s| registry.histogram(&format!("mail.shard[{s}].latency_ns")))
        .collect();
    let shard_delivered: Vec<Counter> = (0..topology.notify_shards)
        .map(|s| registry.counter(&format!("mail.shard[{s}].delivered")))
        .collect();

    let done = AtomicU64::new(0);
    let barrier = Barrier::new(cores);
    let epoch_cell: OnceLock<Instant> = OnceLock::new();
    let stall = config.qman_stall_ns;

    // Exactly-once ledger: how many times each schedule index arrived.
    let delivery_counts: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
    let dead_lettered = AtomicU64::new(0);

    let (server_ref, offsets_ref, boxes_ref) = (&server, &offsets, &mailboxes);
    let (done_ref, barrier_ref, epoch_ref) = (&done, &barrier, &epoch_cell);
    let (counts_ref, dead_ref) = (&delivery_counts, &dead_lettered);
    let (latency_ref, shard_lat_ref, shard_del_ref) = (&latency, &shard_latency, &shard_delivered);
    let (enq_ref, del_ref, eagain_ref) = (&enqueued, &delivered, &eagain);
    std::thread::scope(|scope| {
        for e in 0..topology.enqueuers {
            scope.spawn(move || {
                barrier_ref.wait();
                // The first thread past the barrier starts the clock; all
                // others read the same instant, so one epoch anchors both
                // the release schedule and the latency measurements.
                let epoch = *epoch_ref.get_or_init(Instant::now);
                let core = topology.enqueuer_core(e);
                // Message i belongs to enqueuer i mod enqueuers; the global
                // schedule is nondecreasing, so each slice is too.
                let mut i = e;
                while i < total {
                    let due = offsets_ref[i];
                    let mailbox = &boxes_ref[i];
                    wait_until(epoch, due);
                    let body = stamp(due, i, mailbox);
                    server_ref
                        .enqueue(core, client, mailbox, body.as_bytes())
                        .expect("enqueue");
                    enq_ref.inc(core);
                    i += topology.enqueuers;
                }
            });
        }
        for q in 0..topology.qmans {
            scope.spawn(move || {
                barrier_ref.wait();
                let epoch = *epoch_ref.get_or_init(Instant::now);
                let core = topology.qman_core(q);
                let mut idle = Backoff::new(RetryPolicy::spin(), core as u64);
                loop {
                    if done_ref.load(Ordering::Acquire) >= total as u64 {
                        break;
                    }
                    if stall > 0 {
                        // Deliberate service-rate cap (see LoadConfig docs).
                        std::thread::sleep(Duration::from_nanos(stall));
                    }
                    match server_ref.qman_step_for(core, qman_pid, q, &NoMailObs) {
                        Ok(d) => {
                            let now = epoch.elapsed().as_nanos() as u64;
                            let due = parse_stamp(&d.body).expect("stamped body");
                            let index = parse_stamp_index(&d.body).expect("indexed body");
                            let waited = now.saturating_sub(due);
                            latency_ref.record(core, waited);
                            shard_lat_ref[d.shard].record(core, waited);
                            shard_del_ref[d.shard].inc(core);
                            counts_ref[index].fetch_add(1, Ordering::AcqRel);
                            if d.mailbox == DEAD_LETTER {
                                dead_ref.fetch_add(1, Ordering::AcqRel);
                            }
                            del_ref.inc(core);
                            done_ref.fetch_add(1, Ordering::AcqRel);
                            idle.reset();
                        }
                        Err(Errno::EAGAIN) => {
                            eagain_ref.inc(core);
                            idle.wait();
                        }
                        Err(e) => panic!("qman step failed: {e}"),
                    }
                }
            });
        }
    });

    let elapsed_seconds = epoch_cell
        .get()
        .map(|epoch| epoch.elapsed().as_secs_f64())
        .unwrap_or(0.0);
    let shards = (0..topology.notify_shards)
        .map(|s| ShardStats {
            shard: s,
            qman: topology.qman_of_shard(s),
            delivered: shard_delivered[s].total(),
            latency: shard_latency[s].merged(),
        })
        .collect();
    // Close the ledger: every schedule index delivered exactly once.
    let (mut lost, mut duplicates) = (0u64, 0u64);
    for count in &delivery_counts {
        match count.load(Ordering::Acquire) {
            0 => lost += 1,
            n => duplicates += u64::from(n - 1),
        }
    }
    LoadReport {
        enqueued: enqueued.total(),
        delivered: delivered.total(),
        lost,
        duplicates,
        dead_lettered: dead_lettered.load(Ordering::Acquire),
        injected_faults: 0,
        delayed_polls: 0,
        eagain_retries: eagain.total(),
        elapsed_seconds,
        offered_rate: config.rate_per_sec,
        latency: latency.merged(),
        shards,
        snapshot: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_round_trip() {
        let body = stamp(123_456_789, 42, "box0007");
        assert_eq!(parse_stamp(body.as_bytes()), Some(123_456_789));
        assert_eq!(parse_stamp_index(body.as_bytes()), Some(42));
        assert_eq!(parse_stamp(b"garbage"), None);
        assert_eq!(parse_stamp(b"t=;i=0;m=x"), None);
        assert_eq!(parse_stamp_index(b"t=5;m=x"), None);
    }

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
