//! The chaos-hardened §7.3 mail pipeline: the communicating-threads
//! pipeline of [`crate::workloads::mail_pipeline`], run over a
//! fault-injecting kernel and wrapped in the recovery machinery a real
//! mail system would need — bounded retries with backoff, a dead-letter
//! mailbox for messages whose budget runs out, and a supervisor that
//! detects scheduled qman deaths, reaps their orphaned delivery helpers,
//! re-drives their in-flight envelopes, and restarts the slot.
//!
//! The accounting contract is the whole point: under **any**
//! [`ChaosPlan`] — errno storms, delivery holds, qman crashes mid-step —
//! every announced message ends up *exactly once* in either its mailbox
//! or the dead-letter box. `lost` and `duplicates` stay zero; chaos is
//! allowed to cost latency and deliveries to
//! [`DEAD_LETTER`](scr_kernel::mail::DEAD_LETTER), never messages.
//!
//! The kernel stack, innermost first — each wrapper a
//! `scr_kernel::api::Layer` whose `around` hook sees every call once:
//!
//! ```text
//! HostKernel → (ObservedKernel: time) → FaultyKernel: inject → ReliableKernel: retry
//! ```
//!
//! The observed layer sits *inside* the fault layer so the syscall
//! recorder counts only calls that actually reached the kernel — an
//! injected failure never happened as far as the ledger's syscall
//! accounting is concerned. Two [`ReliableKernel`] surfaces share the one
//! fault layer: a *bounded* one (the per-message retry budget) drives the
//! qman delivery stages, and a *never-give-up* one drives the paths that
//! must not fail — enqueue, dead-letter salvage, orphan reaping, and the
//! supervisor's re-drive — because for those, giving up *is* losing mail.

use crate::kernel::{HostKernel, HostMode};
use crate::workloads::MailTelemetry;
use scr_chaos::kernel::{ChaosTelemetry, FaultyKernel, ReliableKernel};
use scr_chaos::plan::{ChaosPlan, CrashPhase};
use scr_kernel::api::{OpenFlags, Pid, SyscallApi};
use scr_kernel::mail::{
    Envelope, MailConfig, MailServer, MailStageObserver, MailTopology, NoMailObs,
};
use scr_kernel::retry::{Backoff, RetryPolicy};
use scr_obs::ObservedKernel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// Configuration of one chaos pipeline run.
#[derive(Clone, Debug)]
pub struct ChaosMailConfig {
    /// Kernel sharing mode (sv6-style or giant-locked).
    pub mode: HostMode,
    /// §7.3 API family (descriptor allocation, socket order, spawn).
    pub config: MailConfig,
    /// mail-enqueue threads, on cores `0..enqueuers`.
    pub enqueuers: usize,
    /// mail-qman threads, on cores `enqueuers..enqueuers+qmans`; the
    /// supervisor takes one extra core after them.
    pub qmans: usize,
    /// Messages each enqueuer offers.
    pub messages_per_enqueuer: usize,
    /// The fault plan (use [`ChaosPlan::none`] for a fault-free baseline).
    pub plan: ChaosPlan,
    /// The bounded per-call retry budget of the qman delivery stages;
    /// exhaustion dead-letters the message.
    pub retry: RetryPolicy,
    /// Overload shedding: an enqueuer drops (sheds) a message instead of
    /// announcing it while `announced - accounted` is at this bound.
    /// `None` queues without bound.
    pub max_backlog: Option<usize>,
}

impl ChaosMailConfig {
    /// A 2×2 pipeline, 25 messages per enqueuer, commutative APIs on the
    /// sv6-style kernel, transient retry budget, no shedding.
    pub fn new(plan: ChaosPlan) -> ChaosMailConfig {
        ChaosMailConfig {
            mode: HostMode::Sv6,
            config: MailConfig::CommutativeApis,
            enqueuers: 2,
            qmans: 2,
            messages_per_enqueuer: 25,
            plan,
            retry: RetryPolicy::transient(),
            max_backlog: None,
        }
    }
}

/// The extended exactly-once ledger of a chaos run. The plain pipeline's
/// `delivered == enqueued` splits three ways — delivered, dead-lettered,
/// shed — and the invariant becomes [`ChaosMailReport::accounted`].
#[derive(Clone, Debug)]
pub struct ChaosMailReport {
    /// Messages the enqueuers were asked to send.
    pub offered: usize,
    /// Messages actually announced (offered minus shed).
    pub enqueued: usize,
    /// Messages that reached their addressed mailbox.
    pub delivered: usize,
    /// Messages that reached the dead-letter mailbox instead.
    pub dead_lettered: usize,
    /// Messages dropped at admission by the backlog bound.
    pub shed: usize,
    /// Announced bodies found in *neither* mailbox. Zero under any plan.
    pub lost: usize,
    /// Bodies found more times than announced. Zero under any plan.
    pub duplicates: usize,
    /// Mailbox files whose body was never announced. Zero under any plan.
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
    /// Descriptors still open in any process table after teardown.
    pub leaked_fds: usize,
}

impl ChaosMailReport {
    /// The chaos exactly-once contract: every announced message landed in
    /// exactly one of {its mailbox, dead-letter}, nothing was lost,
    /// duplicated, corrupted, or leaked, and shedding accounts for the
    /// rest of the offer.
    pub fn accounted(&self) -> bool {
        self.delivered + self.dead_lettered == self.enqueued
            && self.enqueued + self.shed == self.offered
            && self.lost == 0
            && self.duplicates == 0
            && self.corrupt == 0
            && self.leaked_fds == 0
    }
}

/// Everything a dying qman hands the supervisor about its in-flight step.
/// Fields are progressively populated along the step: a crash after recv
/// has only the envelope name; after spawn it holds the parsed envelope
/// and the helper pid; after deliver also the mailbox file.
struct QmanWreck {
    qman: usize,
    generation: u32,
    shard: usize,
    env_name: Option<String>,
    envelope: Option<Envelope>,
    helper: Option<Pid>,
    delivered: Option<String>,
}

/// Shared run state: the counters every thread updates and the shard
/// ownership map the supervisor rewrites when a qman dies.
struct Ledger {
    announced: AtomicUsize,
    accounted: AtomicUsize,
    enq_done: AtomicUsize,
    shed: AtomicUsize,
    crashes: AtomicUsize,
    restarts: AtomicUsize,
    redriven: AtomicUsize,
    orphans: AtomicUsize,
    announced_bodies: Mutex<Vec<String>>,
    delivered_names: Mutex<Vec<String>>,
    dead_letter_names: Mutex<Vec<String>>,
    shard_owner: Vec<AtomicUsize>,
}

impl Ledger {
    fn new(topology: &MailTopology) -> Ledger {
        Ledger {
            announced: AtomicUsize::new(0),
            accounted: AtomicUsize::new(0),
            enq_done: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            crashes: AtomicUsize::new(0),
            restarts: AtomicUsize::new(0),
            redriven: AtomicUsize::new(0),
            orphans: AtomicUsize::new(0),
            announced_bodies: Mutex::new(Vec::new()),
            delivered_names: Mutex::new(Vec::new()),
            dead_letter_names: Mutex::new(Vec::new()),
            shard_owner: (0..topology.notify_shards)
                .map(|s| AtomicUsize::new(topology.qman_of_shard(s)))
                .collect(),
        }
    }

    /// The run is over: every enqueuer finished and every announced
    /// message is accounted (delivered or dead-lettered). Announcement
    /// *precedes* the spool write, so `accounted` can never outrun
    /// `announced` and observe a spurious finish.
    fn done(&self, enqueuers: usize) -> bool {
        self.enq_done.load(Ordering::Acquire) == enqueuers
            && self.accounted.load(Ordering::Acquire) >= self.announced.load(Ordering::Acquire)
    }

    fn account_delivery(&self, file: String) {
        self.delivered_names.lock().unwrap().push(file);
        self.accounted.fetch_add(1, Ordering::Release);
    }

    fn account_dead_letter(&self, file: String) {
        self.dead_letter_names.lock().unwrap().push(file);
        self.accounted.fetch_add(1, Ordering::Release);
    }

    /// A crash fired: count it and hand the wreck to the supervisor. The
    /// wrecked envelope is announced but unaccounted, so the supervisor
    /// cannot have observed `done` and exited before this send.
    fn wreck(&self, tx: &Mutex<Sender<QmanWreck>>, wreck: QmanWreck) {
        self.crashes.fetch_add(1, Ordering::Relaxed);
        tx.lock()
            .unwrap()
            .send(wreck)
            .expect("supervisor outlives every qman incarnation");
    }
}

/// Runs the full chaos pipeline under `cfg` and returns the extended
/// ledger. With `Some(telemetry)` every real syscall is recorded, stages
/// become trace spans, and the chaos layer's own counters
/// (`chaos.injected.*`, `chaos.retries`, `chaos.backoff_sleep_ns`, ...)
/// are registered on the same registry; the registry must be sized for
/// `cfg.enqueuers + cfg.qmans + 1` cores (the supervisor works too).
pub fn mail_pipeline_chaos(
    cfg: &ChaosMailConfig,
    telemetry: Option<&MailTelemetry>,
) -> ChaosMailReport {
    let enqueuers = cfg.enqueuers.max(1);
    let qmans = cfg.qmans.max(1);
    let sup_core = enqueuers + qmans;
    let cores = sup_core + 1;
    let offered = enqueuers * cfg.messages_per_enqueuer;

    let kernel = HostKernel::new(cores, cfg.mode);
    let client = kernel.new_process();
    let qman_pid = kernel.new_process();

    let observed = telemetry.map(|t| ObservedKernel::new(&kernel, t.syscalls.clone()));
    let base: &(dyn SyscallApi + Sync) = match observed.as_ref() {
        Some(o) => o,
        None => &kernel,
    };
    let stages: &(dyn MailStageObserver + Sync) = match telemetry {
        Some(t) => t,
        None => &NoMailObs,
    };
    let mut faulty = FaultyKernel::new(base, cfg.plan.clone(), cores);
    if let Some(t) = telemetry {
        faulty = faulty.with_telemetry(ChaosTelemetry::new(&t.registry));
    }
    let bounded = ReliableKernel::new(&faulty, cfg.retry.with_seed(cfg.plan.seed));
    let persistent = ReliableKernel::new(&faulty, RetryPolicy::spin().with_seed(cfg.plan.seed ^ 1));

    let topology = MailTopology::new(enqueuers, qmans);
    let shards = topology.notify_shards;
    let server = MailServer::with_topology(&bounded, cfg.config, topology, cores)
        .expect("socket creation is unfaultable");
    // The never-give-up surface over the same sockets and spool.
    let safe = server.view(&persistent);

    let ledger = Ledger::new(&topology);
    let (tx, rx) = mpsc::channel::<QmanWreck>();
    let tx = Mutex::new(tx);

    let plan = &cfg.plan;
    let (ledger_ref, tx_ref) = (&ledger, &tx);
    let (server_ref, safe_ref, persistent_ref) = (&server, &safe, &persistent);
    let poll_policy = RetryPolicy::spin().with_seed(plan.seed ^ 2);

    // Budget exhaustion on a delivery stage: the spool is intact (injected
    // failures have no side effects), so salvage through the
    // never-give-up view and account the message to the dead-letter box.
    let dead_letter = move |core: usize, envelope: &Envelope| {
        let file = safe_ref
            .dead_letter(core, qman_pid, envelope)
            .expect("dead-letter delivery never gives up");
        safe_ref
            .cleanup_spool(core, qman_pid, envelope, stages)
            .expect("close/unlink are unfaultable");
        ledger_ref.account_dead_letter(file);
    };

    // One qman incarnation. Runs on the slot's core, polls the shards the
    // ownership map currently assigns it, and dies where the plan says.
    let qman_body = move |q: usize, generation: u32| {
        let core = enqueuers + q;
        let crash = plan.crash_for(q, generation);
        let fires = |phase: CrashPhase, steps: u64| {
            crash.is_some_and(|c| c.phase == phase && steps >= c.after_steps)
        };
        let mut steps: u64 = 0;
        let mut idle = Backoff::new(poll_policy, ((q as u64) << 32) | u64::from(generation));
        'run: loop {
            if ledger_ref.done(enqueuers) {
                return;
            }
            for shard in 0..shards {
                if ledger_ref.shard_owner[shard].load(Ordering::Relaxed) != q {
                    continue;
                }
                let env_name = match server_ref.recv_notification(core, shard) {
                    Ok(name) => name,
                    // Genuinely empty, or an injected storm outlasted the
                    // bounded budget — nothing was dequeued either way, so
                    // the shard is simply polled again next round.
                    Err(_) => continue,
                };
                if fires(CrashPhase::AfterRecv, steps) {
                    ledger_ref.wreck(
                        tx_ref,
                        QmanWreck {
                            qman: q,
                            generation,
                            shard,
                            env_name: Some(env_name),
                            envelope: None,
                            helper: None,
                            delivered: None,
                        },
                    );
                    return;
                }
                let envelope =
                    match server_ref.read_envelope(core, qman_pid, &env_name, shard, stages) {
                        Ok(env) => env,
                        Err(_) => {
                            let env = safe_ref
                                .read_envelope(core, qman_pid, &env_name, shard, stages)
                                .expect("spool re-read never gives up");
                            dead_letter(core, &env);
                            steps += 1;
                            idle.reset();
                            continue 'run;
                        }
                    };
                let helper = match server_ref.spawn_helper(core, qman_pid, &envelope, stages) {
                    Ok(h) => h,
                    Err(_) => {
                        dead_letter(core, &envelope);
                        steps += 1;
                        idle.reset();
                        continue 'run;
                    }
                };
                if fires(CrashPhase::AfterSpawn, steps) {
                    ledger_ref.wreck(
                        tx_ref,
                        QmanWreck {
                            qman: q,
                            generation,
                            shard,
                            env_name: None,
                            envelope: Some(envelope),
                            helper: Some(helper),
                            delivered: None,
                        },
                    );
                    return;
                }
                let file = match server_ref.deliver_as_helper(core, helper, &envelope, stages) {
                    Ok(f) => f,
                    Err(_) => {
                        safe_ref
                            .reap_helper(core, qman_pid, helper, stages)
                            .expect("wait is unfaultable");
                        dead_letter(core, &envelope);
                        steps += 1;
                        idle.reset();
                        continue 'run;
                    }
                };
                if fires(CrashPhase::AfterDeliver, steps) {
                    ledger_ref.wreck(
                        tx_ref,
                        QmanWreck {
                            qman: q,
                            generation,
                            shard,
                            env_name: None,
                            envelope: Some(envelope),
                            helper: Some(helper),
                            delivered: Some(file),
                        },
                    );
                    return;
                }
                server_ref
                    .reap_helper(core, qman_pid, helper, stages)
                    .expect("wait is unfaultable");
                server_ref
                    .cleanup_spool(core, qman_pid, &envelope, stages)
                    .expect("close/unlink are unfaultable");
                if let Some(t) = telemetry {
                    t.delivered.inc(core);
                }
                ledger_ref.account_delivery(file);
                steps += 1;
                idle.reset();
                continue 'run;
            }
            // Every owned shard came up empty: back off instead of
            // hammering the sockets.
            if let Some(t) = telemetry {
                t.eagain_retries.inc(core);
                t.yield_spins.inc(core);
            }
            idle.wait();
        }
    };

    std::thread::scope(|scope| {
        for e in 0..enqueuers {
            scope.spawn(move || {
                for i in 0..cfg.messages_per_enqueuer {
                    let mailbox = format!("box{e}");
                    let body = format!("body-{e}-{i}");
                    if let Some(bound) = cfg.max_backlog {
                        let backlog = ledger_ref
                            .announced
                            .load(Ordering::Acquire)
                            .saturating_sub(ledger_ref.accounted.load(Ordering::Acquire));
                        if backlog >= bound {
                            ledger_ref.shed.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    }
                    // Announce before spooling so `accounted >= announced`
                    // can never be observed with this message in flight.
                    ledger_ref
                        .announced_bodies
                        .lock()
                        .unwrap()
                        .push(body.clone());
                    ledger_ref.announced.fetch_add(1, Ordering::Release);
                    safe_ref
                        .enqueue_observed(e, client, &mailbox, body.as_bytes(), stages)
                        .expect("enqueue never gives up");
                    if let Some(t) = telemetry {
                        t.enqueued.inc(e);
                    }
                }
                ledger_ref.enq_done.fetch_add(1, Ordering::Release);
            });
        }
        for q in 0..qmans {
            scope.spawn(move || qman_body(q, 0));
        }
        // The supervisor: drains wrecks, salvages their in-flight state,
        // reassigns the dead slot's shards, and restarts the slot.
        scope.spawn(move || loop {
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(w) => {
                    // Hand the dead incarnation's shards to the survivors
                    // until the restarted incarnation reclaims its own.
                    if qmans > 1 {
                        let mut next = (w.qman + 1) % qmans;
                        for owner in &ledger_ref.shard_owner {
                            if owner.load(Ordering::Relaxed) == w.qman {
                                owner.store(next, Ordering::Relaxed);
                                next = (next + 1) % qmans;
                                if next == w.qman {
                                    next = (next + 1) % qmans;
                                }
                            }
                        }
                    }
                    // Reap the orphaned delivery helper before anything
                    // else — an unreaped helper is a descriptor-table leak
                    // (the teardown leak check would catch it).
                    if let Some(helper) = w.helper {
                        safe_ref
                            .reap_helper(sup_core, qman_pid, helper, stages)
                            .expect("orphan reap never gives up");
                        ledger_ref.orphans.fetch_add(1, Ordering::Relaxed);
                    }
                    match (w.delivered, w.envelope) {
                        // Crashed after delivery: the mailbox file exists,
                        // so finish cleanup and account it — re-driving
                        // would duplicate.
                        (Some(file), Some(env)) => {
                            safe_ref
                                .cleanup_spool(sup_core, qman_pid, &env, stages)
                                .expect("close/unlink are unfaultable");
                            if let Some(t) = telemetry {
                                t.delivered.inc(sup_core);
                            }
                            ledger_ref.account_delivery(file);
                        }
                        // Crashed with the envelope parsed but the message
                        // undelivered: drop the wreck's descriptor and
                        // re-announce the envelope on its shard.
                        (None, Some(env)) => {
                            persistent_ref
                                .close(sup_core, qman_pid, env.msg_fd)
                                .expect("close is unfaultable");
                            persistent_ref
                                .send(
                                    sup_core,
                                    safe_ref.shard_socket(env.shard),
                                    env.env_name.as_bytes(),
                                )
                                .expect("re-drive send never gives up");
                            ledger_ref.redriven.fetch_add(1, Ordering::Relaxed);
                        }
                        // Crashed holding only the notification: put it
                        // back on the wire.
                        (None, None) => {
                            let name = w.env_name.expect("recv-phase wreck carries the name");
                            persistent_ref
                                .send(sup_core, safe_ref.shard_socket(w.shard), name.as_bytes())
                                .expect("re-drive send never gives up");
                            ledger_ref.redriven.fetch_add(1, Ordering::Relaxed);
                        }
                        (Some(_), None) => unreachable!("a delivered wreck holds its envelope"),
                    }
                    // Restart the slot: the next incarnation owns the
                    // slot's topology shards again.
                    for shard in topology.shards_of_qman(w.qman) {
                        ledger_ref.shard_owner[shard].store(w.qman, Ordering::Relaxed);
                    }
                    ledger_ref.restarts.fetch_add(1, Ordering::Relaxed);
                    let (q, generation) = (w.qman, w.generation + 1);
                    scope.spawn(move || qman_body(q, generation));
                }
                Err(RecvTimeoutError::Timeout) => {
                    if ledger_ref.done(enqueuers) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        });
    });

    // Verification reads everything back through the *raw* kernel: the
    // ledger below reflects what is actually on disk, not what the chaos
    // layer believes happened.
    let read_back = |names: &[String]| -> Vec<String> {
        names
            .iter()
            .map(|name| {
                let fd = kernel
                    .open(0, qman_pid, name, OpenFlags::plain())
                    .expect("accounted file must exist");
                let body = kernel.pread(0, qman_pid, fd, 4096, 0).expect("read body");
                kernel.close(0, qman_pid, fd).expect("close");
                String::from_utf8_lossy(&body).into_owned()
            })
            .collect()
    };
    let delivered_names = ledger.delivered_names.into_inner().unwrap();
    let dead_letter_names = ledger.dead_letter_names.into_inner().unwrap();
    let mut got = read_back(&delivered_names);
    got.extend(read_back(&dead_letter_names));
    let want = ledger.announced_bodies.into_inner().unwrap();
    let count = |items: &[String]| {
        let mut map = std::collections::BTreeMap::new();
        for item in items {
            *map.entry(item.clone()).or_insert(0usize) += 1;
        }
        map
    };
    let (got_counts, want_counts) = (count(&got), count(&want));
    let duplicates = got_counts
        .iter()
        .filter(|(body, _)| want_counts.contains_key(*body))
        .map(|(body, n)| n.saturating_sub(want_counts[body]))
        .sum();
    let lost = want_counts
        .iter()
        .map(|(body, n)| n.saturating_sub(*got_counts.get(body).unwrap_or(&0)))
        .sum();
    let corrupt = got
        .iter()
        .filter(|body| !want_counts.contains_key(*body))
        .count();

    // Teardown leak check: after the run (and the read-back above, which
    // closes what it opens) no process — client, qman, or any helper the
    // run ever spawned — may still hold a descriptor.
    let leaked_fds = (0..kernel.process_count())
        .map(|pid| kernel.open_fd_count(pid).unwrap_or(0))
        .sum();

    ChaosMailReport {
        offered,
        enqueued: want.len(),
        delivered: delivered_names.len(),
        dead_lettered: dead_letter_names.len(),
        shed: ledger.shed.into_inner(),
        lost,
        duplicates,
        corrupt,
        crashes: ledger.crashes.into_inner(),
        restarts: ledger.restarts.into_inner(),
        redriven: ledger.redriven.into_inner(),
        orphans_reaped: ledger.orphans.into_inner(),
        injected_faults: faulty.injected_total(),
        delayed_polls: faulty.delayed_polls_total(),
        leaked_fds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_delivers_everything_normally() {
        let report = mail_pipeline_chaos(&ChaosMailConfig::new(ChaosPlan::none()), None);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.delivered, report.offered);
        assert_eq!(report.dead_lettered, 0);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.injected_faults, 0);
    }

    #[test]
    fn errno_storm_loses_nothing_in_either_api_family() {
        for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
            let mut cfg = ChaosMailConfig::new(ChaosPlan::errno_storm(11));
            cfg.config = config;
            let report = mail_pipeline_chaos(&cfg, None);
            assert!(report.accounted(), "{config:?}: {report:?}");
            assert!(report.injected_faults > 0, "{config:?}: storm must inject");
        }
    }

    #[test]
    fn delayed_delivery_holds_messages_but_loses_none() {
        let report =
            mail_pipeline_chaos(&ChaosMailConfig::new(ChaosPlan::delayed_delivery(7)), None);
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
        let mut cfg = ChaosMailConfig::new(ChaosPlan::qman_crash(3));
        cfg.qmans = 1;
        cfg.messages_per_enqueuer = 30;
        let report = mail_pipeline_chaos(&cfg, None);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.crashes, 3, "{report:?}");
        assert_eq!(report.restarts, 3, "{report:?}");
        // AfterRecv and AfterSpawn re-drive; AfterSpawn and AfterDeliver
        // orphan a helper.
        assert_eq!(report.redriven, 2, "{report:?}");
        assert_eq!(report.orphans_reaped, 2, "{report:?}");
    }

    #[test]
    fn crash_reassignment_keeps_multi_qman_runs_accounted() {
        let mut cfg = ChaosMailConfig::new(ChaosPlan::qman_crash(5));
        cfg.enqueuers = 3;
        cfg.qmans = 3;
        cfg.messages_per_enqueuer = 20;
        let report = mail_pipeline_chaos(&cfg, None);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.restarts, report.crashes, "{report:?}");
    }

    #[test]
    fn zero_backlog_bound_sheds_the_whole_offer() {
        let mut cfg = ChaosMailConfig::new(ChaosPlan::none());
        cfg.max_backlog = Some(0);
        let report = mail_pipeline_chaos(&cfg, None);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.shed, report.offered);
        assert_eq!(report.enqueued, 0);
        assert_eq!(report.delivered, 0);
    }

    #[test]
    fn storm_with_tiny_budget_dead_letters_rather_than_loses() {
        // A harsh storm against a one-attempt budget: many stages exhaust
        // immediately, so the dead-letter path must carry the load.
        let mut cfg = ChaosMailConfig::new(ChaosPlan::new(
            13,
            scr_chaos::plan::FaultSpec::uniform(400_000),
            scr_chaos::plan::DelaySpec::default(),
            vec![],
        ));
        cfg.retry = RetryPolicy::transient().with_max_retries(1);
        let report = mail_pipeline_chaos(&cfg, None);
        assert!(report.accounted(), "{report:?}");
        assert!(
            report.dead_lettered > 0,
            "a 40% storm against one retry must dead-letter: {report:?}"
        );
    }
}
