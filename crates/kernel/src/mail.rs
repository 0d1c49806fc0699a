//! The qmail-style mail server of §7.3.
//!
//! The benchmark application is a pipeline of separate, communicating
//! processes:
//!
//! * **mail-enqueue** writes the message and its envelope to two files in a
//!   queue directory and notifies the queue manager over a Unix-domain
//!   datagram socket.
//! * **mail-qman** receives a notification, reads the envelope, opens the
//!   queued message, spawns a delivery process, waits for it, and deletes
//!   the queued files.
//! * **mail-deliver** writes the message into the recipient's mailbox.
//!
//! Each stage runs in one of two configurations, mirroring the paper's
//! "regular APIs" versus "commutative APIs" comparison:
//!
//! | | regular | commutative |
//! |---|---|---|
//! | descriptor allocation | lowest FD | `O_ANYFD` |
//! | queue notification socket | ordered | unordered |
//! | helper process creation | `fork` (snapshot) | `posix_spawn` |
//!
//! The server is written purely against [`SyscallApi`], so it runs unchanged
//! over the sv6 kernel or the Linux-like baseline.

use crate::api::{Errno, KResult, OpenFlags, Pid, SockId, SocketOrder, SyscallApi};
use crossbeam::utils::CachePadded;
use scr_mtrace::CoreId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The pipeline stages a message passes through, in order. Used by
/// [`MailStageObserver`] to attribute wall time to pipeline phases
/// (rendered as trace spans by `scr-obs`). The discriminant is the stage's
/// index in [`MailStage::ALL`], so per-stage tables index by `stage as
/// usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MailStage {
    /// `mail-enqueue` spooling the message and envelope files.
    Enqueue,
    /// `mail-enqueue` announcing the envelope on the notification socket.
    Notify,
    /// `mail-qman` reading the envelope and opening the queued message.
    Receive,
    /// `mail-qman` creating the delivery helper (`fork`/`posix_spawn`).
    Spawn,
    /// `mail-deliver` writing the mailbox file.
    Deliver,
    /// `mail-qman` waiting for (reaping) the helper.
    Reap,
    /// `mail-qman` closing and unlinking the queue files.
    Cleanup,
}

impl MailStage {
    /// Every stage, in pipeline order.
    pub const ALL: [MailStage; 7] = [
        MailStage::Enqueue,
        MailStage::Notify,
        MailStage::Receive,
        MailStage::Spawn,
        MailStage::Deliver,
        MailStage::Reap,
        MailStage::Cleanup,
    ];

    /// The stage's span name.
    pub fn name(self) -> &'static str {
        match self {
            MailStage::Enqueue => "enqueue",
            MailStage::Notify => "notify",
            MailStage::Receive => "receive",
            MailStage::Spawn => "spawn",
            MailStage::Deliver => "deliver",
            MailStage::Reap => "reap",
            MailStage::Cleanup => "cleanup",
        }
    }
}

/// Observer for mail-pipeline stages. Like [`Layer`](crate::api::Layer),
/// the trait lives in the kernel crate so the server stays
/// dependency-free; the telemetry crate adapts it onto its per-core trace
/// log. Callbacks run on the worker thread and must only touch core-local
/// state.
pub trait MailStageObserver {
    /// When `false`, the entry points skip every clock read.
    fn stage_enabled(&self) -> bool {
        true
    }

    /// One completed stage on `core`, from `started` to `ended`.
    fn observe_stage(&self, core: CoreId, stage: MailStage, started: Instant, ended: Instant);
}

/// The no-op stage observer, for callers that observe nothing: every stage
/// runs without a clock read.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMailObs;

impl MailStageObserver for NoMailObs {
    fn stage_enabled(&self) -> bool {
        false
    }

    fn observe_stage(&self, _: CoreId, _: MailStage, _: Instant, _: Instant) {}
}

fn timed<O, T>(
    obs: &O,
    core: CoreId,
    stage: MailStage,
    f: impl FnOnce() -> KResult<T>,
) -> KResult<T>
where
    O: MailStageObserver + ?Sized,
{
    if !obs.stage_enabled() {
        return f();
    }
    let started = Instant::now();
    let result = f();
    obs.observe_stage(core, stage, started, Instant::now());
    result
}

/// The pipeline's thread/shard topology: how many enqueuer threads feed how
/// many queue-manager threads, over how many notification-socket shards.
///
/// A mailbox is assigned to a shard by the **same FNV-1a hash** the
/// directory uses for bucket placement ([`scr_symbolic::Fnv64`]),
/// so "hot shard" means the same thing to the load generator's attribution
/// tables and to the kernel's own fan-out. Each shard is one notification
/// socket; shard *s* is served by qman *s mod qmans*. With one shard and
/// one socket this degenerates to the original single-queue pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MailTopology {
    /// Enqueuer (mail-enqueue) threads, running on cores `0..enqueuers`.
    pub enqueuers: usize,
    /// Queue-manager (mail-qman) threads, on cores `enqueuers..cores()`.
    pub qmans: usize,
    /// Notification-socket shards the mailbox namespace fans out over.
    pub notify_shards: usize,
}

impl MailTopology {
    /// The original 1×1 pipeline over a single notification socket.
    pub fn single() -> MailTopology {
        MailTopology {
            enqueuers: 1,
            qmans: 1,
            notify_shards: 1,
        }
    }

    /// N enqueuers × M qmans with one notification-socket shard per qman.
    pub fn new(enqueuers: usize, qmans: usize) -> MailTopology {
        let qmans = qmans.max(1);
        MailTopology {
            enqueuers: enqueuers.max(1),
            qmans,
            notify_shards: qmans,
        }
    }

    /// Override the shard count (must be ≥ 1; more shards than qmans gives
    /// each qman several queues, fewer leaves some qmans polling shared
    /// shards).
    pub fn with_shards(mut self, shards: usize) -> MailTopology {
        self.notify_shards = shards.max(1);
        self
    }

    /// Total worker threads (cores) the topology occupies.
    pub fn cores(&self) -> usize {
        self.enqueuers + self.qmans
    }

    /// The core enqueuer `e` runs on.
    pub fn enqueuer_core(&self, e: usize) -> usize {
        e % self.enqueuers
    }

    /// The core qman `q` runs on.
    pub fn qman_core(&self, q: usize) -> usize {
        self.enqueuers + (q % self.qmans)
    }

    /// The shard a mailbox name fans out to (FNV-1a, like the directory).
    pub fn shard_of(&self, mailbox: &str) -> usize {
        let mut h = scr_symbolic::Fnv64::default();
        h.bytes(mailbox.as_bytes());
        (h.finish() % self.notify_shards as u64) as usize
    }

    /// The qman index that owns a shard.
    pub fn qman_of_shard(&self, shard: usize) -> usize {
        shard % self.qmans
    }

    /// The shards qman `q` owns, in polling order.
    pub fn shards_of_qman(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        let qmans = self.qmans;
        (0..self.notify_shards).filter(move |s| s % qmans == q % qmans)
    }
}

/// Which API family the mail server uses (§7.3's two configurations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MailConfig {
    /// Lowest-FD `open`, ordered notification socket, `fork`-based helpers.
    RegularApis,
    /// `O_ANYFD` opens, unordered notification socket, `posix_spawn`.
    CommutativeApis,
}

impl MailConfig {
    fn open_flags(self) -> OpenFlags {
        match self {
            MailConfig::RegularApis => OpenFlags::create(),
            MailConfig::CommutativeApis => OpenFlags::create().with_anyfd(),
        }
    }

    fn socket_order(self) -> SocketOrder {
        match self {
            MailConfig::RegularApis => SocketOrder::Ordered,
            MailConfig::CommutativeApis => SocketOrder::Unordered,
        }
    }
}

/// A running mail server instance bound to a kernel.
///
/// The server is generic over [`SyscallApi`], so the same code drives the
/// simulated kernels (single-threaded, traced) and `scr-host`'s real
/// kernel. With a `Sync` kernel the server is `Sync` too: the per-core
/// sequence counters are cache-padded atomics, so concurrent enqueuers on
/// different cores never share a line through the server itself.
pub struct MailServer<'k, K: SyscallApi + ?Sized> {
    kernel: &'k K,
    config: MailConfig,
    topology: MailTopology,
    /// One notification socket per shard; `topology.shard_of(mailbox)`
    /// picks the socket an enqueue announces on.
    notify: Vec<SockId>,
    /// Per-core message sequence numbers, used to build unique queue file
    /// names without shared state.
    next_seq: Vec<CachePadded<AtomicU64>>,
}

/// The mailbox that collects messages whose delivery budget ran out.
///
/// The dead-letter box is an ordinary Maildir under `mail/` — the
/// exactly-once ledger reads it back like any other mailbox, so a
/// dead-lettered message is *accounted*, not lost. Client mailbox names
/// never collide with it (workloads use `user*`/`alice`-style names).
pub const DEAD_LETTER: &str = "dead-letter";

/// An in-flight qman work item: everything [`MailServer::read_envelope`]
/// learned about one queued message. Holding one of these is holding the
/// message — a crash-interrupted step hands its `Envelope` to the
/// supervisor, which can finish delivery or dead-letter it without
/// re-parsing the spool.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The envelope spool file name (also the notification payload).
    pub env_name: String,
    /// The recipient mailbox (first envelope line).
    pub mailbox: String,
    /// The message spool file name (second envelope line).
    pub msg_name: String,
    /// The open descriptor on the message spool file (owned by the qman
    /// pid; [`MailServer::cleanup_spool`] closes it).
    pub msg_fd: crate::api::Fd,
    /// The message body.
    pub body: Vec<u8>,
    /// The notification-socket shard the envelope arrived on.
    pub shard: usize,
}

impl Envelope {
    /// The [`Delivered`] record for this envelope landing in `file`.
    pub fn into_delivered(self, file: String) -> Delivered {
        Delivered {
            file,
            mailbox: self.mailbox,
            shard: self.shard,
            body: self.body,
        }
    }
}

/// One message delivered by a qman step: the mailbox file it landed in,
/// the mailbox it was addressed to, the shard it travelled through, and the
/// message body. The body is what the open-loop load generator stamps its
/// intended-arrival time into, so handing it back costs nothing extra — the
/// qman had it in hand to deliver it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivered {
    /// The Maildir file the message was written to.
    pub file: String,
    /// The recipient mailbox name (first envelope line).
    pub mailbox: String,
    /// The notification-socket shard the message arrived on.
    pub shard: usize,
    /// The message body, bit-for-bit as enqueued.
    pub body: Vec<u8>,
}

impl<'k, K: SyscallApi + ?Sized> MailServer<'k, K> {
    /// Creates a mail server over `kernel` using the given API configuration
    /// and supporting up to `cores` enqueueing cores, with the original
    /// single-socket topology.
    pub fn new(kernel: &'k K, config: MailConfig, cores: usize) -> KResult<Self> {
        let topology = MailTopology {
            enqueuers: cores.max(1),
            qmans: 1,
            notify_shards: 1,
        };
        MailServer::with_topology(kernel, config, topology, cores)
    }

    /// Creates a mail server with an explicit N×M×shards topology. `cores`
    /// bounds the per-core sequence counters (any core may enqueue or
    /// deliver); the notification sockets are created eagerly, one per
    /// shard, so socket ids are dense from the server's first socket.
    pub fn with_topology(
        kernel: &'k K,
        config: MailConfig,
        topology: MailTopology,
        cores: usize,
    ) -> KResult<Self> {
        let notify = (0..topology.notify_shards)
            .map(|_| kernel.socket(0, config.socket_order()))
            .collect::<KResult<Vec<_>>>()?;
        Ok(MailServer {
            kernel,
            config,
            topology,
            notify,
            next_seq: (0..cores.max(1).max(topology.cores()))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        })
    }

    /// A view of the same logical server over a different syscall surface:
    /// shares the topology and the notification sockets (socket ids pass
    /// through any `SyscallApi` wrapper unchanged), so a robust driver can
    /// run its enqueuers, qmans, and supervisor through differently
    /// wrapped kernels — bounded retries here, never-give-up retries there
    /// — against one pipeline. Sequence counters are fresh per view; names
    /// stay unique because they embed the generating core and no core
    /// drives two views' name-generating calls into the same directory
    /// (enqueuers spool, qmans deliver to recipient Maildirs, the
    /// dead-letter path writes only [`DEAD_LETTER`]).
    pub fn view<'k2, K2: SyscallApi + ?Sized>(&self, kernel: &'k2 K2) -> MailServer<'k2, K2> {
        MailServer {
            kernel,
            config: self.config,
            topology: self.topology,
            notify: self.notify.clone(),
            next_seq: (0..self.next_seq.len())
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// The API configuration in use.
    pub fn config(&self) -> MailConfig {
        self.config
    }

    /// The thread/shard topology in use.
    pub fn topology(&self) -> MailTopology {
        self.topology
    }

    /// The notification socket connecting mail-enqueue to mail-qman (shard
    /// 0 when sharded).
    pub fn notify_socket(&self) -> SockId {
        self.notify[0]
    }

    /// The notification socket for one shard.
    pub fn shard_socket(&self, shard: usize) -> SockId {
        self.notify[shard % self.notify.len()]
    }

    fn fresh_seq(&self, core: CoreId) -> u64 {
        self.next_seq[core % self.next_seq.len()].fetch_add(1, Ordering::Relaxed)
    }

    /// `mail-enqueue`: writes the message and envelope to the queue and
    /// notifies the queue manager. Returns the envelope file name. `obs`
    /// sees the spool writes as [`MailStage::Enqueue`] and the socket send
    /// as [`MailStage::Notify`]; pass [`NoMailObs`] to observe nothing.
    pub fn enqueue<O>(
        &self,
        core: CoreId,
        pid: Pid,
        mailbox: &str,
        body: &[u8],
        obs: &O,
    ) -> KResult<String>
    where
        O: MailStageObserver + ?Sized,
    {
        let seq = self.fresh_seq(core);
        let msg_name = format!("queue/msg-{core}-{seq}");
        let env_name = format!("queue/env-{core}-{seq}");
        let flags = self.config.open_flags();

        timed(obs, core, MailStage::Enqueue, || {
            let msg_fd = self.kernel.open(core, pid, &msg_name, flags)?;
            self.kernel.write(core, pid, msg_fd, body)?;
            self.kernel.close(core, pid, msg_fd)?;

            let env_fd = self.kernel.open(core, pid, &env_name, flags)?;
            let envelope = format!("{mailbox}\n{msg_name}");
            self.kernel.write(core, pid, env_fd, envelope.as_bytes())?;
            self.kernel.close(core, pid, env_fd)
        })?;

        timed(obs, core, MailStage::Notify, || {
            self.kernel.send(
                core,
                self.shard_socket(self.topology.shard_of(mailbox)),
                env_name.as_bytes(),
            )
        })?;
        Ok(env_name)
    }

    /// One step of `mail-qman`: receive a notification, read the envelope,
    /// spawn a delivery helper, deliver the message, and clean up the queue.
    /// Returns the [`Delivered`] record, or `Err(EAGAIN)` when no
    /// notification is pending.
    ///
    /// Polls every shard, starting from `core`'s rotation; with one shard
    /// that is exactly one `recv` per step, the retry-tail invariant the
    /// telemetry tests pin. `obs` sees one span per stage of a received
    /// message and none for an empty poll, so polling loops do not flood
    /// it. The step is composed from the public stage methods below, which
    /// a supervised driver runs one by one so it can die between them and
    /// resume an interrupted [`Envelope`] where it stopped.
    pub fn qman_step<O>(&self, core: CoreId, pid: Pid, obs: &O) -> KResult<Delivered>
    where
        O: MailStageObserver + ?Sized,
    {
        let shards = self.notify.len();
        for probe in 0..shards {
            let shard = (core + probe) % shards;
            let env_name = match self.recv_notification(core, shard) {
                Err(Errno::EAGAIN) => continue,
                other => other?,
            };
            let envelope = self.read_envelope(core, pid, &env_name, shard, obs)?;
            let helper = self.spawn_helper(core, pid, &envelope, obs)?;
            let file = self.deliver_as_helper(core, helper, &envelope, obs)?;
            self.reap_helper(core, pid, helper, obs)?;
            self.cleanup_spool(core, pid, &envelope, obs)?;
            return Ok(envelope.into_delivered(file));
        }
        Err(Errno::EAGAIN)
    }

    /// Stage 0 of the qman step: one `recv` on `shard`'s notification
    /// socket, returning the envelope file name (`Err(EAGAIN)` when the
    /// shard is idle). Deliberately unobserved — polling loops would flood
    /// the stage trace; the retry-tail invariant counts these recvs via
    /// the syscall recorder instead.
    pub fn recv_notification(&self, core: CoreId, shard: usize) -> KResult<String> {
        let notification = self.kernel.recv(core, self.shard_socket(shard))?;
        Ok(String::from_utf8_lossy(&notification).to_string())
    }

    /// Stage [`MailStage::Receive`]: read the envelope spool file and open
    /// the queued message, returning the in-flight [`Envelope`].
    pub fn read_envelope<O>(
        &self,
        core: CoreId,
        pid: Pid,
        env_name: &str,
        shard: usize,
        obs: &O,
    ) -> KResult<Envelope>
    where
        O: MailStageObserver + ?Sized,
    {
        let flags = self.config.open_flags();
        timed(obs, core, MailStage::Receive, || {
            let env_fd = self.kernel.open(core, pid, env_name, flags)?;
            let envelope = self.kernel.pread(core, pid, env_fd, 4096, 0)?;
            self.kernel.close(core, pid, env_fd)?;
            let envelope = String::from_utf8_lossy(&envelope).to_string();
            let mut lines = envelope.lines();
            let mailbox = lines.next().ok_or(Errno::EINVAL)?.to_string();
            let msg_name = lines.next().ok_or(Errno::EINVAL)?.to_string();

            let msg_fd = self.kernel.open(core, pid, &msg_name, flags)?;
            let body = self.kernel.pread(core, pid, msg_fd, 65536, 0)?;
            Ok(Envelope {
                env_name: env_name.to_string(),
                mailbox,
                msg_name,
                msg_fd,
                body,
                shard,
            })
        })
    }

    /// Stage [`MailStage::Spawn`]: create the delivery helper. In the
    /// regular configuration this is a fork (snapshotting the whole
    /// descriptor table); in the commutative configuration `posix_spawn`
    /// builds the child image directly.
    pub fn spawn_helper<O>(
        &self,
        core: CoreId,
        pid: Pid,
        envelope: &Envelope,
        obs: &O,
    ) -> KResult<Pid>
    where
        O: MailStageObserver + ?Sized,
    {
        timed(obs, core, MailStage::Spawn, || match self.config {
            MailConfig::RegularApis => self.kernel.fork(core, pid),
            MailConfig::CommutativeApis => self.kernel.posix_spawn(core, pid, &[envelope.msg_fd]),
        })
    }

    /// Stage [`MailStage::Deliver`]: mail-deliver, running as the helper
    /// process, writes the message into the recipient's mailbox. Returns
    /// the mailbox file name.
    pub fn deliver_as_helper<O>(
        &self,
        core: CoreId,
        helper: Pid,
        envelope: &Envelope,
        obs: &O,
    ) -> KResult<String>
    where
        O: MailStageObserver + ?Sized,
    {
        timed(obs, core, MailStage::Deliver, || {
            self.deliver(core, helper, &envelope.mailbox, &envelope.body)
        })
    }

    /// Stage [`MailStage::Reap`]: wait for (reap) the helper. Under fork
    /// this releases the full descriptor-table snapshot; under
    /// `posix_spawn` only the explicitly duplicated descriptors were ever
    /// there.
    pub fn reap_helper<O>(&self, core: CoreId, pid: Pid, helper: Pid, obs: &O) -> KResult<()>
    where
        O: MailStageObserver + ?Sized,
    {
        timed(obs, core, MailStage::Reap, || {
            self.kernel.wait(core, pid, helper)
        })
    }

    /// Stage [`MailStage::Cleanup`]: close the message descriptor and
    /// unlink both spool files.
    pub fn cleanup_spool<O>(
        &self,
        core: CoreId,
        pid: Pid,
        envelope: &Envelope,
        obs: &O,
    ) -> KResult<()>
    where
        O: MailStageObserver + ?Sized,
    {
        timed(obs, core, MailStage::Cleanup, || {
            self.kernel.close(core, pid, envelope.msg_fd)?;
            self.kernel.unlink(core, pid, &envelope.msg_name)?;
            self.kernel.unlink(core, pid, &envelope.env_name)
        })
    }

    /// Delivers an [`Envelope`] whose retry budget ran out into the
    /// dead-letter mailbox ([`DEAD_LETTER`]), as `pid` (no helper spawn —
    /// the budget-exhausted path must not depend on the faultable spawn
    /// call succeeding). The caller still owns spool cleanup.
    pub fn dead_letter(&self, core: CoreId, pid: Pid, envelope: &Envelope) -> KResult<String> {
        self.deliver(core, pid, DEAD_LETTER, &envelope.body)
    }

    /// `mail-deliver`: writes `body` into a fresh file in `mailbox`'s
    /// Maildir. Returns the delivered file name.
    pub fn deliver(&self, core: CoreId, pid: Pid, mailbox: &str, body: &[u8]) -> KResult<String> {
        let seq = self.fresh_seq(core);
        let name = format!("mail/{mailbox}/new-{core}-{seq}");
        let fd = self
            .kernel
            .open(core, pid, &name, self.config.open_flags())?;
        self.kernel.write(core, pid, fd, body)?;
        self.kernel.close(core, pid, fd)?;
        Ok(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linuxlike::LinuxLikeKernel;
    use crate::sv6::Sv6Kernel;

    fn run_end_to_end(kernel: &dyn SyscallApi, config: MailConfig) {
        let client = kernel.new_process();
        let qman = kernel.new_process();
        let server = MailServer::new(kernel, config, 4).unwrap();
        let env = server
            .enqueue(0, client, "alice", b"hello alice", &NoMailObs)
            .unwrap();
        assert!(env.starts_with("queue/env-"));
        let delivered = server.qman_step(1, qman, &NoMailObs).unwrap().file;
        assert!(delivered.starts_with("mail/alice/"));
        // The queue files are gone; the mailbox file holds the message.
        assert_eq!(
            kernel.stat(0, qman, &env).unwrap_err(),
            Errno::ENOENT,
            "envelope must be unlinked after delivery"
        );
        let fd = kernel
            .open(0, qman, &delivered, OpenFlags::plain())
            .unwrap();
        assert_eq!(kernel.pread(0, qman, fd, 64, 0).unwrap(), b"hello alice");
    }

    #[test]
    fn mail_pipeline_works_on_sv6_with_commutative_apis() {
        let k = Sv6Kernel::new(4);
        run_end_to_end(&k, MailConfig::CommutativeApis);
    }

    #[test]
    fn mail_pipeline_works_on_sv6_with_regular_apis() {
        let k = Sv6Kernel::new(4);
        run_end_to_end(&k, MailConfig::RegularApis);
    }

    #[test]
    fn mail_pipeline_works_on_the_linux_like_baseline() {
        let k = LinuxLikeKernel::new(4);
        run_end_to_end(&k, MailConfig::RegularApis);
    }

    #[test]
    fn qman_reports_eagain_when_queue_is_empty() {
        let k = Sv6Kernel::new(2);
        let qman = k.new_process();
        let server = MailServer::new(&k, MailConfig::CommutativeApis, 2).unwrap();
        assert_eq!(server.qman_step(0, qman, &NoMailObs), Err(Errno::EAGAIN));
    }

    #[test]
    fn commutative_config_selects_anyfd_and_unordered() {
        assert!(MailConfig::CommutativeApis.open_flags().anyfd);
        assert_eq!(
            MailConfig::CommutativeApis.socket_order(),
            SocketOrder::Unordered
        );
        assert!(!MailConfig::RegularApis.open_flags().anyfd);
        assert_eq!(MailConfig::RegularApis.socket_order(), SocketOrder::Ordered);
    }

    #[test]
    fn stage_observer_sees_every_stage_once_per_message() {
        use std::sync::Mutex;
        struct Collect(Mutex<Vec<MailStage>>);
        impl MailStageObserver for Collect {
            fn observe_stage(&self, _: CoreId, stage: MailStage, started: Instant, ended: Instant) {
                assert!(started <= ended);
                self.0.lock().unwrap().push(stage);
            }
        }
        let k = Sv6Kernel::new(2);
        let client = k.new_process();
        let qman = k.new_process();
        let server = MailServer::new(&k, MailConfig::CommutativeApis, 2).unwrap();
        let obs = Collect(Mutex::new(Vec::new()));
        server.enqueue(0, client, "alice", b"hi", &obs).unwrap();
        server.qman_step(1, qman, &obs).unwrap();
        assert_eq!(obs.0.lock().unwrap().as_slice(), &MailStage::ALL);
        // An empty queue reports EAGAIN without recording a stage.
        assert_eq!(server.qman_step(1, qman, &obs), Err(Errno::EAGAIN));
        assert_eq!(obs.0.lock().unwrap().len(), MailStage::ALL.len());
        // Observers index per-stage tables by `stage as usize`.
        for (i, stage) in MailStage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "{stage:?}");
        }
    }

    #[test]
    fn topology_partitions_shards_across_qmans() {
        let t = MailTopology::new(2, 3).with_shards(6);
        assert_eq!(t.cores(), 5);
        assert_eq!(t.qman_core(0), 2);
        assert_eq!(t.qman_core(2), 4);
        // Every shard is owned by exactly one qman.
        let mut owned = vec![0usize; t.notify_shards];
        for q in 0..t.qmans {
            for s in t.shards_of_qman(q) {
                assert_eq!(t.qman_of_shard(s), q);
                owned[s] += 1;
            }
        }
        assert!(owned.iter().all(|&n| n == 1), "{owned:?}");
        // Mailbox shard assignment is deterministic and in range.
        for m in 0..100 {
            let name = format!("user{m}");
            assert_eq!(t.shard_of(&name), t.shard_of(&name));
            assert!(t.shard_of(&name) < t.notify_shards);
        }
    }

    #[test]
    fn sharded_server_routes_each_mailbox_through_its_shard() {
        let k = Sv6Kernel::new(6);
        let client = k.new_process();
        let qman = k.new_process();
        let topology = MailTopology::new(2, 2).with_shards(4);
        let server =
            MailServer::with_topology(&k, MailConfig::CommutativeApis, topology, 6).unwrap();
        // Enqueue to mailboxes covering several shards.
        let mut shard_count = vec![0usize; topology.notify_shards];
        for m in 0..16 {
            let mailbox = format!("user{m}");
            shard_count[topology.shard_of(&mailbox)] += 1;
            server
                .enqueue(0, client, &mailbox, b"x", &NoMailObs)
                .unwrap();
        }
        assert!(shard_count.iter().filter(|&&n| n > 0).count() >= 2);
        // One qman step polls every shard, so one core drains them all, and
        // every Delivered record names the shard its mailbox hashes to.
        let mut drained = vec![0usize; topology.notify_shards];
        while let Ok(d) = server.qman_step(topology.qman_core(1), qman, &NoMailObs) {
            assert_eq!(topology.shard_of(&d.mailbox), d.shard);
            assert_eq!(d.body, b"x");
            drained[d.shard] += 1;
        }
        assert_eq!(drained, shard_count);
    }

    #[test]
    fn single_shard_compat_path_is_unchanged() {
        let k = Sv6Kernel::new(2);
        let server = MailServer::new(&k, MailConfig::RegularApis, 2).unwrap();
        assert_eq!(server.topology().notify_shards, 1);
        assert_eq!(server.notify_socket(), server.shard_socket(0));
    }

    #[test]
    fn many_messages_from_multiple_cores_all_deliver() {
        let k = Sv6Kernel::new(4);
        let client = k.new_process();
        let qman = k.new_process();
        let server = MailServer::new(&k, MailConfig::CommutativeApis, 4).unwrap();
        for round in 0..3 {
            for core in 0..4 {
                let body = format!("m{round}-{core}");
                server
                    .enqueue(core, client, "bob", body.as_bytes(), &NoMailObs)
                    .unwrap();
            }
        }
        let mut delivered = 0;
        for core in 0..4 {
            while server.qman_step(core, qman, &NoMailObs).is_ok() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 12);
    }
}
