//! The §7.3 mail pipeline engine: mail-enqueue and mail-qman threads that
//! talk only through the kernel, driven by one thread loop whatever the run
//! is for. A run is a message schedule × a fault plan × an observer, and
//! two front ends choose them:
//!
//! * [`crate::workloads::mail_pipeline_observed`]: a saturating schedule
//!   (every message due at once), no faults, optional telemetry;
//! * `scr_loadgen`'s open loop: a fixed-rate or Poisson schedule, its
//!   `ChaosPlan` with the never-give-up retry budget, and a per-delivery
//!   hook that records latency from each message's intended arrival.
//!
//! The `host_mail` example calls the engine directly as well: every canned
//! [`ChaosPlan`] on a saturating schedule with the bounded retry budget,
//! and the same plan through the open loop.
//!
//! The schedule names every message up front. Message `i` is due `due_ns`
//! after the run's epoch (the instant the workers pass their start
//! barrier), is addressed to its mailbox, is sent by enqueuer
//! `i mod enqueuers`, and carries the body [`stamp`]`(due_ns, i, mailbox)`,
//! so whatever is delivered says which message it is and when it was due.
//!
//! The kernel stack, innermost first — each wrapper a
//! `scr_kernel::api::Layer` whose `around` hook sees every call once:
//!
//! ```text
//! HostKernel → (ObservedKernel: time) → (FaultyKernel: inject → ReliableKernel: retry)
//! ```
//!
//! The observed layer exists when telemetry is given, the fault layers when
//! the plan is enabled. The observed layer sits *inside* the fault layer,
//! so the syscall recorder counts only calls that reached the kernel. Two
//! [`ReliableKernel`] surfaces share the one fault layer: a *bounded* one
//! (the per-message retry budget) drives the qman delivery stages, and a
//! *never-give-up* one drives the paths that must not fail — enqueue,
//! dead-letter salvage, orphan reaping and the supervisor's re-drive —
//! because for those, giving up *is* losing mail. Without a plan both
//! surfaces are the (observed) kernel itself.
//!
//! A delivery stage whose budget runs out dead-letters its message
//! ([`DEAD_LETTER`](scr_kernel::mail::DEAD_LETTER)). When the plan
//! schedules qman deaths, a supervisor thread on the core after the
//! topology's reaps the dead incarnation's orphaned helper, re-drives or
//! finishes its in-flight envelope and restarts the slot.
//!
//! Every engine thread runs under `scr_hostmtrace::on_core` of its
//! topology core (the supervisor on the core after the topology's), so an
//! instrumented kernel files each access under the core that made it.
//!
//! The accounting contract: after the threads join, every accounted
//! mailbox file is read back through the *raw* kernel, outside any open
//! tracing window, and keyed by its
//! stamp index (`tally`), and the descriptors still open in every process
//! are summed. Under **any** plan each announced message lands exactly once
//! in its mailbox or the dead-letter box: `lost`, `duplicates`, `corrupt`
//! and `leaked_fds` stay zero. Chaos may cost latency and dead letters,
//! never messages.

use crate::kernel::HostKernel;
use crate::workloads::MailTelemetry;
use scr_chaos::kernel::{ChaosTelemetry, FaultyKernel, ReliableKernel};
use scr_chaos::plan::{ChaosPlan, CrashPhase};
use scr_hostmtrace::on_core;
use scr_kernel::api::{OpenFlags, Pid, SyscallApi};
use scr_kernel::mail::{
    Delivered, Envelope, MailConfig, MailServer, MailStageObserver, MailTopology, NoMailObs,
};
use scr_kernel::retry::{Backoff, RetryPolicy};
use scr_mtrace::CoreId;
use scr_obs::ObservedKernel;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Barrier, Mutex, OnceLock};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// What a run does besides its schedule: the API family, the topology, the
/// fault plan and the knobs that bound what faults may cost.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// §7.3 API family (descriptor allocation, socket order, spawn).
    pub mail: MailConfig,
    /// Enqueuers × qmans × notification shards. Enqueuer `e` runs on core
    /// `e`, qman `q` on core `enqueuers + q`.
    pub topology: MailTopology,
    /// The fault plan; [`ChaosPlan::none`] runs the kernel bare.
    pub plan: ChaosPlan,
    /// The bounded per-call retry budget of the qman delivery stages;
    /// exhaustion dead-letters the message.
    pub retry: RetryPolicy,
    /// Overload shedding: an enqueuer drops a message instead of spooling
    /// it while this many admitted messages are still unaccounted. `None`
    /// queues without bound.
    pub max_backlog: Option<usize>,
    /// A deliberate sleep before each qman poll, in nanoseconds, capping
    /// the service rate. Zero in real runs.
    pub qman_stall_ns: u64,
}

impl PipelineConfig {
    /// A fault-free run of `mail` over `topology`: no plan, the transient
    /// retry budget, no shedding, no stall.
    pub fn new(mail: MailConfig, topology: MailTopology) -> PipelineConfig {
        PipelineConfig {
            mail,
            topology,
            plan: ChaosPlan::none(),
            retry: RetryPolicy::transient(),
            max_backlog: None,
            qman_stall_ns: 0,
        }
    }

    /// The cores the run occupies, and so the fewest its kernel needs: the
    /// topology's, plus the supervisor's when the plan schedules crashes.
    pub fn cores(&self) -> usize {
        self.topology.cores() + usize::from(self.supervised())
    }

    fn supervised(&self) -> bool {
        !self.plan.crashes.is_empty()
    }
}

/// A saturating schedule: `messages` messages all due at once, message `i`
/// addressed to `box{i mod enqueuers}`, the mailbox of the enqueuer that
/// sends it.
pub fn saturating_schedule(enqueuers: usize, messages: usize) -> Vec<(u64, String)> {
    let enqueuers = enqueuers.max(1);
    (0..messages)
        .map(|i| (0, format!("box{}", i % enqueuers)))
        .collect()
}

/// The body of schedule message `index`: its intended arrival, its index
/// (so the ledger can say exactly *which* message went missing or arrived
/// twice) and its mailbox.
pub fn stamp(due_ns: u64, index: usize, mailbox: &str) -> String {
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

/// The exactly-once ledger of a run. The plain `delivered == enqueued`
/// splits three ways — delivered, dead-lettered, shed — and the invariant
/// becomes [`MailPipelineReport::accounted`].
#[derive(Clone, Debug, Default)]
pub struct MailPipelineReport {
    /// Messages in the schedule.
    pub offered: usize,
    /// Messages actually spooled (offered minus shed).
    pub enqueued: usize,
    /// Mailbox files found in addressed mailboxes.
    pub delivered: usize,
    /// Mailbox files found in the dead-letter mailbox instead.
    pub dead_lettered: usize,
    /// Messages dropped at admission by the backlog bound.
    pub shed: usize,
    /// Enqueued messages found in *neither* mailbox. Zero under any plan.
    pub lost: usize,
    /// Copies found beyond the first, summed over messages. Zero under any
    /// plan.
    pub duplicates: usize,
    /// Mailbox files that match no enqueued message. Zero under any plan.
    pub corrupt: usize,
    /// Scheduled qman deaths that fired.
    pub crashes: usize,
    /// Qman incarnations the supervisor started after a death.
    pub restarts: usize,
    /// In-flight envelopes the supervisor re-announced.
    pub redriven: usize,
    /// Orphaned delivery helpers the supervisor reaped.
    pub orphans_reaped: usize,
    /// Transient errnos the fault layer injected.
    pub injected_faults: u64,
    /// `recv` polls eaten by delivery holds.
    pub delayed_polls: u64,
    /// Qman polling rounds that found every owned shard empty; each is
    /// followed by one backoff wait.
    pub eagain_retries: u64,
    /// Descriptors still open in any process table after teardown.
    pub leaked_fds: usize,
    /// From the epoch to the last message accounted, before the read-back.
    pub elapsed: Duration,
}

impl MailPipelineReport {
    /// The exactly-once contract under faults: every enqueued message
    /// landed in exactly one of {its mailbox, dead-letter}, nothing was
    /// lost, duplicated, corrupted or leaked, and shedding accounts for the
    /// rest of the offer.
    pub fn accounted(&self) -> bool {
        self.delivered + self.dead_lettered == self.enqueued
            && self.enqueued + self.shed == self.offered
            && self.lost == 0
            && self.duplicates == 0
            && self.corrupt == 0
            && self.leaked_fds == 0
    }

    /// Every offered message delivered to its own mailbox exactly once,
    /// bit-intact: accounted, with nothing shed or dead-lettered.
    pub fn exactly_once(&self) -> bool {
        self.accounted() && self.delivered == self.offered
    }
}

/// What the read-back found, keyed by stamp index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    /// Files read back from addressed mailboxes.
    delivered: usize,
    /// Files read back from the dead-letter mailbox.
    dead_lettered: usize,
    /// Announced messages found in neither.
    lost: usize,
    /// Copies of announced messages beyond the first.
    duplicates: usize,
    /// Bodies that are no announced message's stamp: unparsable, a shed
    /// or unscheduled index, or a stamp that disagrees with its slot.
    corrupt: usize,
}

/// Closes the ledger from what is on disk: `delivered` and `dead_lettered`
/// are the bodies read back from the two kinds of mailbox, and every
/// message of `schedule` not in `shed` was announced. A body that is no
/// announced message's stamp is corrupt, not a duplicate, so each failure
/// is attributed exactly once.
fn tally(
    schedule: &[(u64, String)],
    shed: &[usize],
    delivered: &[Vec<u8>],
    dead_lettered: &[Vec<u8>],
) -> Tally {
    let mut announced = vec![true; schedule.len()];
    for &i in shed {
        if let Some(slot) = announced.get_mut(i) {
            *slot = false;
        }
    }
    let mut found = vec![0usize; schedule.len()];
    let mut corrupt = 0;
    for body in delivered.iter().chain(dead_lettered) {
        match parse_stamp_index(body) {
            Some(i)
                if announced.get(i) == Some(&true)
                    && *body == stamp(schedule[i].0, i, &schedule[i].1).as_bytes() =>
            {
                found[i] += 1
            }
            _ => corrupt += 1,
        }
    }
    Tally {
        delivered: delivered.len(),
        dead_lettered: dead_lettered.len(),
        lost: (0..schedule.len())
            .filter(|&i| announced[i] && found[i] == 0)
            .count(),
        duplicates: found.iter().map(|n| n.saturating_sub(1)).sum(),
        corrupt,
    }
}

/// Runs one pipeline over `kernel` (raw: the engine builds every layer it
/// needs, and reads the ledger back through the kernel itself) and returns
/// the closed ledger.
///
/// `hook(core, delivered, at_ns)` runs once per message delivered to its
/// mailbox, on the delivering core, `at_ns` after the epoch; dead letters
/// do not reach it. With `Some(telemetry)` every syscall that reaches the
/// kernel is recorded, stages become trace spans, and an enabled plan
/// registers the chaos counters (`chaos.injected.*`, `chaos.retries`, ...)
/// on the same registry. The kernel, and the registry when given, must be
/// sized for [`PipelineConfig::cores`].
pub fn run_pipeline<H>(
    kernel: &HostKernel,
    cfg: &PipelineConfig,
    schedule: &[(u64, String)],
    telemetry: Option<&MailTelemetry>,
    hook: H,
) -> MailPipelineReport
where
    H: Fn(CoreId, &Delivered, u64) + Sync,
{
    assert!(
        kernel.cores() >= cfg.cores(),
        "a {}-core kernel cannot host a {}-core pipeline",
        kernel.cores(),
        cfg.cores()
    );
    let job = Job {
        cfg,
        schedule,
        telemetry,
        hook: &hook,
        client: kernel.new_process(),
        qman_pid: kernel.new_process(),
    };
    let outcome = match telemetry {
        Some(t) => job.over(&ObservedKernel::new(kernel, t.syscalls.clone()), t),
        None => job.over(kernel, &NoMailObs),
    };

    let read_back = |names: &[String]| -> Vec<Vec<u8>> {
        names
            .iter()
            .map(|name| {
                let fd = kernel
                    .open(0, job.qman_pid, name, OpenFlags::plain())
                    .expect("accounted file must exist");
                let body = kernel
                    .pread(0, job.qman_pid, fd, 4096, 0)
                    .expect("read body");
                kernel.close(0, job.qman_pid, fd).expect("close");
                body
            })
            .collect()
    };
    let ledger = || {
        let found = tally(
            schedule,
            &outcome.shed,
            &read_back(&outcome.delivered),
            &read_back(&outcome.dead_lettered),
        );
        // Teardown leak check: after the run (and the read-back, which
        // closes what it opens) no process — client, qman or any helper the
        // run spawned — may still hold a descriptor.
        let leaked_fds: usize = (0..kernel.process_count())
            .map(|pid| kernel.open_fd_count(pid).unwrap_or(0))
            .sum();
        (found, leaked_fds)
    };
    // The read-back is bookkeeping, not pipeline work: a caller's open
    // tracing window must not see it.
    let (found, leaked_fds) = match kernel.lines() {
        Some(sink) => sink.untraced(ledger),
        None => ledger(),
    };
    MailPipelineReport {
        offered: schedule.len(),
        enqueued: schedule.len() - outcome.shed.len(),
        delivered: found.delivered,
        dead_lettered: found.dead_lettered,
        shed: outcome.shed.len(),
        lost: found.lost,
        duplicates: found.duplicates,
        corrupt: found.corrupt,
        leaked_fds,
        ..outcome.report
    }
}

/// Sleep (coarse) then yield (fine) until `due_ns` after `epoch`. Never
/// spins without yielding, so an oversubscribed host keeps making progress.
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

/// The one way a ledger list's lock fails: a pipeline thread panicked
/// while holding it.
const POISONED: &str = "a pipeline thread panicked";

/// A run's inputs, before any layer exists.
struct Job<'a, H> {
    cfg: &'a PipelineConfig,
    schedule: &'a [(u64, String)],
    telemetry: Option<&'a MailTelemetry>,
    hook: &'a H,
    client: Pid,
    qman_pid: Pid,
}

/// What the threads leave for the ledger.
struct Outcome {
    delivered: Vec<String>,
    dead_lettered: Vec<String>,
    shed: Vec<usize>,
    /// The counters the threads kept; the ledger fields are filled later.
    report: MailPipelineReport,
}

impl<H: Fn(CoreId, &Delivered, u64) + Sync> Job<'_, H> {
    /// Adds the fault layers over `base` when the plan asks for them, and
    /// runs the threads on the result.
    fn over<K, O>(&self, base: &K, stages: &O) -> Outcome
    where
        K: SyscallApi + Sync + ?Sized,
        O: MailStageObserver + Sync,
    {
        let plan = &self.cfg.plan;
        if !plan.enabled() {
            return self.drive(base, base, stages);
        }
        let mut faulty = FaultyKernel::new(base, plan.clone(), self.cfg.cores());
        if let Some(t) = self.telemetry {
            faulty = faulty.with_telemetry(ChaosTelemetry::new(&t.registry));
        }
        let bounded = ReliableKernel::new(&faulty, self.cfg.retry.with_seed(plan.seed));
        let persistent = ReliableKernel::new(&faulty, RetryPolicy::spin().with_seed(plan.seed ^ 1));
        let mut outcome = self.drive(&bounded, &persistent, stages);
        outcome.report.injected_faults = faulty.injected_total();
        outcome.report.delayed_polls = faulty.delayed_polls_total();
        outcome
    }

    /// The one thread loop: enqueuers and qmans behind one start barrier,
    /// plus the supervisor when the plan schedules crashes. `bounded`
    /// drives the qman delivery stages, `persistent` everything that must
    /// not fail.
    fn drive<B, P, O>(&self, bounded: &B, persistent: &P, stages: &O) -> Outcome
    where
        B: SyscallApi + Sync + ?Sized,
        P: SyscallApi + Sync + ?Sized,
        O: MailStageObserver + Sync,
    {
        let topology = self.cfg.topology;
        let server = MailServer::with_topology(bounded, self.cfg.mail, topology, self.cfg.cores())
            .expect("socket creation is unfaultable");
        let (wrecks, supervisor_rx) = mpsc::channel();
        let run = Run {
            job: self,
            safe: server.view(persistent),
            server,
            persistent,
            stages,
            start: Barrier::new(topology.cores()),
            epoch: OnceLock::new(),
            settled: AtomicUsize::new(0),
            released: AtomicUsize::new(0),
            last_ns: AtomicU64::new(0),
            eagain_retries: AtomicU64::new(0),
            crashes: AtomicUsize::new(0),
            restarts: AtomicUsize::new(0),
            redriven: AtomicUsize::new(0),
            orphans: AtomicUsize::new(0),
            shed: Mutex::new(Vec::new()),
            delivered: Mutex::new(Vec::new()),
            dead_lettered: Mutex::new(Vec::new()),
            wrecks,
        };
        std::thread::scope(|scope| {
            let run = &run;
            for e in 0..topology.enqueuers {
                scope.spawn(move || on_core(topology.enqueuer_core(e), || run.enqueuer(e)));
            }
            for q in 0..topology.qmans {
                scope.spawn(move || on_core(topology.qman_core(q), || run.qman(q, 0)));
            }
            if self.cfg.supervised() {
                let core = topology.cores();
                scope.spawn(move || on_core(core, || run.supervise(scope, supervisor_rx)));
            }
        });
        Outcome {
            delivered: run.delivered.into_inner().expect(POISONED),
            dead_lettered: run.dead_lettered.into_inner().expect(POISONED),
            shed: run.shed.into_inner().expect(POISONED),
            report: MailPipelineReport {
                crashes: run.crashes.into_inner(),
                restarts: run.restarts.into_inner(),
                redriven: run.redriven.into_inner(),
                orphans_reaped: run.orphans.into_inner(),
                eagain_retries: run.eagain_retries.into_inner(),
                elapsed: Duration::from_nanos(run.last_ns.into_inner()),
                ..MailPipelineReport::default()
            },
        }
    }
}

/// The work a dying qman held, by where in the step it died.
enum InFlight {
    /// After `recv`: only the notification.
    Received(String),
    /// After spawn: the parsed envelope and its undelivered helper.
    Spawned(Envelope, Pid),
    /// After delivery: the mailbox file exists too.
    Delivered(Envelope, Pid, String),
}

/// Everything a dying qman hands the supervisor.
struct QmanWreck {
    qman: usize,
    generation: u32,
    shard: usize,
    in_flight: InFlight,
}

/// One run's shared state: the two server views and the counters every
/// thread updates.
struct Run<'a, B: SyscallApi + ?Sized, P: SyscallApi + ?Sized, O, H> {
    job: &'a Job<'a, H>,
    /// The bounded surface: the qman delivery stages.
    server: MailServer<'a, B>,
    /// The never-give-up surface over the same sockets and spool.
    safe: MailServer<'a, P>,
    persistent: &'a P,
    stages: &'a O,
    start: Barrier,
    epoch: OnceLock<Instant>,
    /// Messages delivered, dead-lettered or shed: the run is over when
    /// every scheduled message is settled. Incremented with `Release`
    /// after the message's ledger entry is pushed, read with `Acquire`.
    settled: AtomicUsize,
    /// Messages past admission; counted only under a backlog bound.
    released: AtomicUsize,
    last_ns: AtomicU64,
    eagain_retries: AtomicU64,
    crashes: AtomicUsize,
    restarts: AtomicUsize,
    redriven: AtomicUsize,
    orphans: AtomicUsize,
    shed: Mutex<Vec<usize>>,
    delivered: Mutex<Vec<String>>,
    dead_lettered: Mutex<Vec<String>>,
    wrecks: Sender<QmanWreck>,
}

impl<B, P, O, H> Run<'_, B, P, O, H>
where
    B: SyscallApi + Sync + ?Sized,
    P: SyscallApi + Sync + ?Sized,
    O: MailStageObserver + Sync,
    H: Fn(CoreId, &Delivered, u64) + Sync,
{
    /// Waits for every first-generation worker; the first one past the
    /// barrier starts the clock, so one epoch anchors both the release
    /// schedule and the delivery times.
    fn begin(&self) -> Instant {
        self.start.wait();
        *self.epoch.get_or_init(Instant::now)
    }

    fn now_ns(&self) -> u64 {
        self.epoch
            .get()
            .map_or(0, |epoch| epoch.elapsed().as_nanos() as u64)
    }

    fn done(&self) -> bool {
        self.settled.load(Ordering::Acquire) >= self.job.schedule.len()
    }

    fn settle(&self, at_ns: u64) {
        self.last_ns.fetch_max(at_ns, Ordering::Relaxed);
        self.settled.fetch_add(1, Ordering::Release);
    }

    /// mail-enqueue `e`: releases messages `e`, `e + enqueuers`, … of the
    /// schedule at their due times.
    fn enqueuer(&self, e: usize) {
        let epoch = self.begin();
        let job = self.job;
        let topology = job.cfg.topology;
        let core = topology.enqueuer_core(e);
        let mine = job.schedule.iter().enumerate().skip(e);
        for (i, (due, mailbox)) in mine.step_by(topology.enqueuers) {
            wait_until(epoch, *due);
            if self.sheds(i) {
                continue;
            }
            let body = stamp(*due, i, mailbox);
            self.safe
                .enqueue(core, job.client, mailbox, body.as_bytes(), self.stages)
                .expect("enqueue never gives up");
            if let Some(t) = job.telemetry {
                t.enqueued.inc(core);
            }
        }
    }

    /// Overload shedding: whether message `i` meets a full backlog, in
    /// which case it is settled as shed instead of spooled.
    fn sheds(&self, i: usize) -> bool {
        let Some(bound) = self.job.cfg.max_backlog else {
            return false;
        };
        let backlog = self
            .released
            .fetch_add(1, Ordering::AcqRel)
            .saturating_sub(self.settled.load(Ordering::Acquire));
        if backlog < bound {
            return false;
        }
        self.shed.lock().expect(POISONED).push(i);
        self.settled.fetch_add(1, Ordering::Release);
        true
    }

    /// One incarnation of qman slot `q`. Its polling rounds add to the
    /// report when it exits; a death hands its wreck to the supervisor.
    fn qman(&self, q: usize, generation: u32) {
        if generation == 0 {
            self.begin();
        }
        let mut idle_rounds = 0;
        let wreck = self.serve(q, generation, &mut idle_rounds);
        self.eagain_retries
            .fetch_add(idle_rounds, Ordering::Relaxed);
        if let Some(wreck) = wreck {
            // The wrecked message is unsettled, so the supervisor cannot
            // have seen the run end before this send.
            self.crashes.fetch_add(1, Ordering::Relaxed);
            self.wrecks
                .send(wreck)
                .expect("supervisor outlives every qman incarnation");
        }
    }

    /// The qman loop: polls the slot's shards until the run is done, or
    /// returns the wreck where the plan kills this incarnation.
    fn serve(&self, q: usize, generation: u32, idle_rounds: &mut u64) -> Option<QmanWreck> {
        let cfg = self.job.cfg;
        let core = cfg.topology.qman_core(q);
        let crash = cfg.plan.crash_for(q, generation);
        let mut steps: u64 = 0;
        let mut idle = Backoff::new(
            RetryPolicy::spin().with_seed(cfg.plan.seed ^ 2),
            ((q as u64) << 32) | u64::from(generation),
        );
        'run: loop {
            if self.done() {
                return None;
            }
            if cfg.qman_stall_ns > 0 {
                std::thread::sleep(Duration::from_nanos(cfg.qman_stall_ns));
            }
            for shard in cfg.topology.shards_of_qman(q) {
                // Genuinely empty, or an injected storm outlasted the
                // bounded budget: nothing was dequeued either way.
                let Ok(env_name) = self.server.recv_notification(core, shard) else {
                    continue;
                };
                let dies =
                    |phase| crash.is_some_and(|c| c.phase == phase && steps >= c.after_steps);
                if let Some(in_flight) = self.step(core, shard, env_name, dies) {
                    return Some(QmanWreck {
                        qman: q,
                        generation,
                        shard,
                        in_flight,
                    });
                }
                steps += 1;
                idle.reset();
                continue 'run;
            }
            // Every owned shard came up empty: back off instead of
            // hammering the sockets.
            *idle_rounds += 1;
            if let Some(t) = self.job.telemetry {
                t.eagain_retries.inc(core);
                t.yield_spins.inc(core);
            }
            idle.wait();
        }
    }

    /// The qman stages after `recv`, on the bounded surface: settles the
    /// message, or returns the work in flight where `dies` says the
    /// incarnation dies. A stage that exhausts its budget dead-letters.
    fn step(
        &self,
        core: CoreId,
        shard: usize,
        env_name: String,
        dies: impl Fn(CrashPhase) -> bool,
    ) -> Option<InFlight> {
        let (pid, stages) = (self.job.qman_pid, self.stages);
        if dies(CrashPhase::AfterRecv) {
            return Some(InFlight::Received(env_name));
        }
        let envelope = match self
            .server
            .read_envelope(core, pid, &env_name, shard, stages)
        {
            Ok(envelope) => envelope,
            Err(_) => {
                let envelope = self
                    .safe
                    .read_envelope(core, pid, &env_name, shard, stages)
                    .expect("spool re-read never gives up");
                self.dead_letter(core, &envelope);
                return None;
            }
        };
        let Ok(helper) = self.server.spawn_helper(core, pid, &envelope, stages) else {
            self.dead_letter(core, &envelope);
            return None;
        };
        if dies(CrashPhase::AfterSpawn) {
            return Some(InFlight::Spawned(envelope, helper));
        }
        let Ok(file) = self
            .server
            .deliver_as_helper(core, helper, &envelope, stages)
        else {
            self.safe
                .reap_helper(core, pid, helper, stages)
                .expect("wait is unfaultable");
            self.dead_letter(core, &envelope);
            return None;
        };
        if dies(CrashPhase::AfterDeliver) {
            return Some(InFlight::Delivered(envelope, helper, file));
        }
        self.server
            .reap_helper(core, pid, helper, stages)
            .expect("wait is unfaultable");
        self.server
            .cleanup_spool(core, pid, &envelope, stages)
            .expect("close/unlink are unfaultable");
        self.account_delivery(core, envelope, file);
        None
    }

    /// A message reached its mailbox: the hook sees it, then the ledger.
    fn account_delivery(&self, core: CoreId, envelope: Envelope, file: String) {
        let at_ns = self.now_ns();
        if let Some(t) = self.job.telemetry {
            t.delivered.inc(core);
        }
        let delivered = envelope.into_delivered(file);
        (self.job.hook)(core, &delivered, at_ns);
        self.delivered.lock().expect(POISONED).push(delivered.file);
        self.settle(at_ns);
    }

    /// Budget exhaustion on a delivery stage. The spool is intact (injected
    /// failures have no side effects), so salvage through the
    /// never-give-up view into the dead-letter box.
    fn dead_letter(&self, core: CoreId, envelope: &Envelope) {
        let pid = self.job.qman_pid;
        let file = self
            .safe
            .dead_letter(core, pid, envelope)
            .expect("dead-letter delivery never gives up");
        self.safe
            .cleanup_spool(core, pid, envelope, self.stages)
            .expect("close/unlink are unfaultable");
        self.dead_lettered.lock().expect(POISONED).push(file);
        self.settle(self.now_ns());
    }

    /// The supervisor: drains wrecks, salvages their work in flight, and
    /// restarts each dead slot with its next incarnation.
    fn supervise<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        wrecks: Receiver<QmanWreck>,
    ) {
        loop {
            match wrecks.recv_timeout(Duration::from_millis(1)) {
                Ok(wreck) => {
                    let (q, generation) = (wreck.qman, wreck.generation + 1);
                    self.recover(wreck);
                    self.restarts.fetch_add(1, Ordering::Relaxed);
                    let core = self.job.cfg.topology.qman_core(q);
                    scope.spawn(move || on_core(core, || self.qman(q, generation)));
                }
                Err(_) if self.done() => return,
                Err(_) => {}
            }
        }
    }

    fn recover(&self, wreck: QmanWreck) {
        let core = self.job.cfg.topology.cores();
        let pid = self.job.qman_pid;
        match wreck.in_flight {
            // Holding only the notification: put it back on the wire.
            InFlight::Received(env_name) => self.redrive(core, wreck.shard, &env_name),
            // Parsed but undelivered: drop the wreck's descriptor and
            // re-announce the envelope.
            InFlight::Spawned(envelope, helper) => {
                self.reap_orphan(core, helper);
                self.persistent
                    .close(core, pid, envelope.msg_fd)
                    .expect("close is unfaultable");
                self.redrive(core, envelope.shard, &envelope.env_name);
            }
            // The mailbox file exists: finish cleanup and account it, since
            // re-driving would duplicate.
            InFlight::Delivered(envelope, helper, file) => {
                self.reap_orphan(core, helper);
                self.safe
                    .cleanup_spool(core, pid, &envelope, self.stages)
                    .expect("close/unlink are unfaultable");
                self.account_delivery(core, envelope, file);
            }
        }
    }

    /// An unreaped helper would leak its descriptor table.
    fn reap_orphan(&self, core: CoreId, helper: Pid) {
        self.safe
            .reap_helper(core, self.job.qman_pid, helper, self.stages)
            .expect("orphan reap never gives up");
        self.orphans.fetch_add(1, Ordering::Relaxed);
    }

    fn redrive(&self, core: CoreId, shard: usize, env_name: &str) {
        self.persistent
            .send(core, self.safe.shard_socket(shard), env_name.as_bytes())
            .expect("re-drive send never gives up");
        self.redriven.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{host_kernel, HostMode};
    use scr_chaos::plan::{DelaySpec, FaultSpec};

    /// A 2×2 commutative-API run under `plan`.
    fn chaos(plan: ChaosPlan) -> PipelineConfig {
        PipelineConfig {
            plan,
            ..PipelineConfig::new(MailConfig::CommutativeApis, MailTopology::new(2, 2))
        }
    }

    /// `cfg` on a fresh sv6-style kernel, `per_enqueuer` messages each.
    fn run(cfg: &PipelineConfig, per_enqueuer: usize) -> MailPipelineReport {
        let kernel = host_kernel(cfg.cores(), HostMode::Sv6);
        let enqueuers = cfg.topology.enqueuers;
        let schedule = saturating_schedule(enqueuers, enqueuers * per_enqueuer);
        run_pipeline(&kernel, cfg, &schedule, None, |_, _, _| {})
    }

    #[test]
    fn stamps_round_trip() {
        let body = stamp(123_456_789, 42, "box0007");
        assert_eq!(parse_stamp(body.as_bytes()), Some(123_456_789));
        assert_eq!(parse_stamp_index(body.as_bytes()), Some(42));
        assert_eq!(parse_stamp(b"garbage"), None);
        assert_eq!(parse_stamp(b"t=;i=0;m=x"), None);
        assert_eq!(parse_stamp_index(b"t=5;m=x"), None);
    }

    fn body(schedule: &[(u64, String)], i: usize) -> Vec<u8> {
        stamp(schedule[i].0, i, &schedule[i].1).into_bytes()
    }

    #[test]
    fn tally_counts_a_missing_index_as_lost_and_a_repeat_as_a_duplicate() {
        let schedule = saturating_schedule(2, 4);
        let b = |i| body(&schedule, i);
        let clean = tally(&schedule, &[], &[b(0), b(1), b(2), b(3)], &[]);
        assert_eq!(
            clean,
            Tally {
                delivered: 4,
                ..Tally::default()
            }
        );
        // Index 2 never arrives; index 1 arrives twice.
        let found = tally(&schedule, &[], &[b(0), b(1), b(1), b(3)], &[]);
        assert_eq!((found.lost, found.duplicates, found.corrupt), (1, 1, 0));
    }

    #[test]
    fn tally_counts_unannounced_and_unparsable_bodies_as_corrupt() {
        let schedule = saturating_schedule(1, 3);
        let b = |i| body(&schedule, i);
        // Index 2 was shed, so its body was never announced: corrupt, not
        // a duplicate, and its absence is not a loss. So are an index past
        // the schedule, a stamp that disagrees with its slot, and garbage.
        let found = tally(
            &schedule,
            &[2],
            &[
                b(0),
                b(1),
                b(2),
                stamp(0, 7, "box0").into_bytes(),
                stamp(5, 1, "box0").into_bytes(),
                b"garbage".to_vec(),
            ],
            &[],
        );
        assert_eq!(
            found,
            Tally {
                delivered: 6,
                corrupt: 4,
                ..Tally::default()
            }
        );
    }

    #[test]
    fn tally_accounts_a_dead_lettered_index_without_losing_it() {
        let schedule = saturating_schedule(1, 3);
        let b = |i| body(&schedule, i);
        let found = tally(&schedule, &[], &[b(0), b(2)], &[b(1)]);
        assert_eq!(
            found,
            Tally {
                delivered: 2,
                dead_lettered: 1,
                ..Tally::default()
            }
        );
        // Found in both boxes is one copy too many.
        assert_eq!(
            tally(&schedule, &[], &[b(0), b(1), b(2)], &[b(1)]).duplicates,
            1
        );
    }

    #[test]
    fn fault_free_plan_delivers_everything_normally() {
        let report = run(&chaos(ChaosPlan::none()), 25);
        assert!(report.exactly_once(), "{report:?}");
        assert_eq!(report.delivered, 50);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.injected_faults, 0);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn errno_storm_loses_nothing_in_either_api_family() {
        for mail in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
            let cfg = PipelineConfig {
                mail,
                ..chaos(ChaosPlan::errno_storm(11))
            };
            let report = run(&cfg, 25);
            assert!(report.accounted(), "{mail:?}: {report:?}");
            assert!(report.injected_faults > 0, "{mail:?}: storm must inject");
        }
    }

    #[test]
    fn delayed_delivery_holds_messages_but_loses_none() {
        let report = run(&chaos(ChaosPlan::delayed_delivery(7)), 25);
        assert!(report.accounted(), "{report:?}");
        assert!(
            report.delayed_polls > 0,
            "plan must start holds: {report:?}"
        );
    }

    #[test]
    fn qman_crashes_recover_through_all_three_phases() {
        // One qman slot so the crash schedule (which targets slot 0) is
        // guaranteed to see enough traffic to fire all three deaths.
        let cfg = PipelineConfig {
            topology: MailTopology::new(2, 1),
            ..chaos(ChaosPlan::qman_crash(3))
        };
        assert_eq!(cfg.cores(), 4, "the supervisor takes a core");
        let report = run(&cfg, 30);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.crashes, 3, "{report:?}");
        assert_eq!(report.restarts, 3, "{report:?}");
        // AfterRecv and AfterSpawn re-drive; AfterSpawn and AfterDeliver
        // orphan a helper.
        assert_eq!(report.redriven, 2, "{report:?}");
        assert_eq!(report.orphans_reaped, 2, "{report:?}");
    }

    #[test]
    fn crashes_in_multi_qman_runs_stay_accounted() {
        let cfg = PipelineConfig {
            topology: MailTopology::new(3, 3),
            ..chaos(ChaosPlan::qman_crash(5))
        };
        let report = run(&cfg, 20);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.restarts, report.crashes, "{report:?}");
    }

    #[test]
    fn zero_backlog_bound_sheds_the_whole_offer() {
        let cfg = PipelineConfig {
            max_backlog: Some(0),
            ..chaos(ChaosPlan::none())
        };
        let report = run(&cfg, 25);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.shed, report.offered);
        assert_eq!(report.enqueued, 0);
        assert_eq!(report.delivered, 0);
        assert!(!report.exactly_once());
    }

    #[test]
    fn storm_with_tiny_budget_dead_letters_rather_than_loses() {
        // A harsh storm against a one-attempt budget: many stages exhaust
        // immediately, so the dead-letter path must carry the load.
        let cfg = PipelineConfig {
            retry: RetryPolicy::transient().with_max_retries(1),
            ..chaos(ChaosPlan::new(
                13,
                FaultSpec::uniform(400_000),
                DelaySpec::default(),
                vec![],
            ))
        };
        let report = run(&cfg, 25);
        assert!(report.accounted(), "{report:?}");
        assert!(
            report.dead_lettered > 0,
            "a 40% storm against one retry must dead-letter: {report:?}"
        );
    }
}
