//! Pins the simulated machine's access footprint.
//!
//! The simulated kernels — the one kernel body under its sv6 and its
//! Linux-like sharing policy — are built from the scalable structures of
//! `scr-scalable`, and everything downstream of them reads their recorded
//! accesses: the conflict reports behind Figure 6 and the MESI replay behind
//! Figure 7. This test hashes every recorded access — its core, its line's
//! label, read or write, and which line it is (numbered by first
//! appearance) — in order, for three sources on both kernels:
//!
//! * every test of a small generated corpus, setup and pair traced alike;
//! * a fixed script that touches every structure: names (link, rename,
//!   unlink), metadata, file pages, mappings, pipes, processes and both
//!   socket flavours;
//! * one short run each of statbench, openbench and mailbench at 4 cores.
//!
//! Each source is also folded a second way: per log, the sorted multiset
//! of (core, label, kind) with pipe instance ids masked
//! ([`normalize_pipe_label`]). That fold is blind to the order of accesses
//! within a log and to how a kernel numbers its pipes, so a change that
//! only reorders a call's accesses or renumbers pipes moves [`EXPECTED`]
//! but not [`EXPECTED_MULTISET`].
//!
//! The corpus's Figure 6 verdicts on the Linux-like kernel are folded a
//! third way ([`verdicts`]): which tests are conflict-free, and nothing
//! else. A change that moves the Linux-like footprint on purpose must
//! still hold that constant. A second test counts the corpus tests on
//! which the two kernels return different results; that census may only
//! fall.
//!
//! A change to how the structures are written must leave every constant
//! unchanged; a change that means to move the footprint updates them and
//! says why.

use scalable_commutativity::commuter::{
    orders, replay, run_commuter, run_test, CommuterConfig, ConcreteTest, InOrder, KernelFactory,
    LinuxLikeFactory, Sv6Factory,
};
use scalable_commutativity::host::normalize_pipe_label;
use scalable_commutativity::kernel::api::{
    MmapBacking, OpenFlags, Prot, SocketOrder, StatMask, SysResult, SyscallApi, Whence, PAGE_SIZE,
};
use scalable_commutativity::kernel::mail::{MailConfig, MailServer, NoMailObs};
use scalable_commutativity::kernel::{Sv6Kernel, Sv6Options};
use scalable_commutativity::model::CallKind;
use scalable_commutativity::mtrace::{on_core, Access, AccessKind, LineId, Lines, SimMachine};
use scalable_commutativity::symbolic::Fnv64;
use std::collections::HashMap;
use std::sync::OnceLock;

const CORES: usize = 4;

/// Folds a window's access log into `h`: core, label, kind and the line's
/// first-appearance number of every access, in log order.
fn fold_log(h: &mut Fnv64, machine: &SimMachine, log: &[Access]) {
    let mut lines: HashMap<LineId, (u64, String)> = HashMap::new();
    for access in log {
        let next = lines.len() as u64;
        let (ordinal, label) = lines
            .entry(access.line)
            .or_insert_with(|| (next, machine.label_of(access.line)));
        h.word(access.core as u64);
        h.word(label.len() as u64);
        h.bytes(label.as_bytes());
        h.word(match access.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        });
        h.word(*ordinal);
    }
    h.word(u64::MAX);
}

/// Folds a window's access log into `h` as the sorted multiset of (core,
/// label with pipe ids masked, kind).
fn fold_multiset(h: &mut Fnv64, machine: &SimMachine, log: &[Access]) {
    let mut labels: HashMap<LineId, String> = HashMap::new();
    let mut accesses: Vec<(usize, &str, bool)> = Vec::new();
    for access in log {
        labels
            .entry(access.line)
            .or_insert_with(|| normalize_pipe_label(&machine.label_of(access.line)));
    }
    for access in log {
        let write = access.kind == AccessKind::Write;
        accesses.push((access.core, &labels[&access.line], write));
    }
    accesses.sort_unstable();
    for (core, label, write) in accesses {
        h.word(core as u64);
        h.word(label.len() as u64);
        h.bytes(label.as_bytes());
        h.word(write as u64);
    }
    h.word(u64::MAX);
}

/// Both folds of one source: the ordered log and the multiset.
#[derive(Default)]
struct Folds {
    log: Fnv64,
    multiset: Fnv64,
}

impl Folds {
    /// Closes `machine`'s window and folds what it logged.
    fn add(&mut self, machine: &SimMachine) {
        let log = machine.end_window().accesses;
        fold_log(&mut self.log, machine, &log);
        fold_multiset(&mut self.multiset, machine, &log);
    }

    fn of(machine: &SimMachine) -> (u64, u64) {
        let mut folds = Folds::default();
        folds.add(machine);
        folds.finish()
    }

    fn finish(&self) -> (u64, u64) {
        (self.log.finish(), self.multiset.finish())
    }
}

/// The generated tests of the four calls `tests/sweep_determinism.rs` pins,
/// generated once per test binary.
fn corpus_tests() -> &'static [ConcreteTest] {
    static TESTS: OnceLock<Vec<ConcreteTest>> = OnceLock::new();
    TESTS.get_or_init(generate_corpus)
}

fn generate_corpus() -> Vec<ConcreteTest> {
    let calls = [
        CallKind::Open,
        CallKind::Stat,
        CallKind::Unlink,
        CallKind::Close,
    ];
    let config = CommuterConfig {
        threads: 2,
        max_assignments_per_case: 12,
        ..CommuterConfig::quick(&calls)
    };
    let tests = run_commuter(&config, &[]).tests;
    assert!(tests.len() > 100, "{} tests", tests.len());
    tests
}

/// The corpus, each test replayed with its setup and its operations traced.
fn corpus(factory: &dyn KernelFactory, tests: &[ConcreteTest]) -> (u64, u64) {
    let mut folds = Folds::default();
    for test in tests {
        let identity: Vec<usize> = (0..test.ops.len()).collect();
        let kernel = factory.build();
        let machine = kernel.lines().unwrap();
        machine.begin_window();
        replay(&kernel, None::<&SimMachine>, test, InOrder(&identity));
        folds.add(machine);
    }
    folds.finish()
}

/// The corpus's Figure 6 verdicts: the ordered sequence of (test index,
/// conflict-free) that [`run_test`] reports on `factory`'s kernel. Unlike
/// the footprint folds, this is blind to labels and to which lines a call
/// touches; it moves only when a pair's conflict-freedom does.
fn verdicts(factory: &dyn KernelFactory, tests: &[ConcreteTest]) -> u64 {
    let mut h = Fnv64::default();
    for (i, test) in tests.iter().enumerate() {
        h.word(i as u64);
        h.word(u64::from(run_test(factory, test).conflict_free));
    }
    h.finish()
}

/// Runs `f` on `core`, its result unused.
fn on<R>(core: usize, f: impl FnOnce(usize) -> R) {
    on_core(core, || f(core));
}

/// A fixed script over every structure, each call on its own core.
fn script(factory: &dyn KernelFactory) -> (u64, u64) {
    let k = &factory.build();
    let m = k.lines().unwrap();
    m.begin_window();
    let p0 = k.new_process();
    let p1 = k.new_process();
    let fd = |r: Result<u32, _>| r.unwrap_or(u32::MAX);
    let a = fd(on_core(0, || k.open(0, p0, "a", OpenFlags::create())));
    let b = fd(on_core(1, || {
        k.open(1, p1, "b", OpenFlags::create().with_anyfd())
    }));
    on(0, |c| k.write(c, p0, a, b"hello"));
    on(1, |c| k.pwrite(c, p0, a, b"second page", PAGE_SIZE));
    on(2, |c| k.pread(c, p0, a, 5, 0));
    on(3, |c| k.lseek(c, p0, a, 1, Whence::Set));
    on(3, |c| k.read(c, p0, a, 3));
    on(0, |c| k.lseek(c, p0, a, 0, Whence::End));
    on(1, |c| k.fstat(c, p0, a));
    on(2, |c| k.fstatx(c, p0, a, StatMask::all_but_nlink()));
    on(3, |c| k.stat(c, p1, "a"));
    on(1, |c| k.link(c, p0, "a", "a2"));
    on(2, |c| k.link(c, p0, "a", "a2"));
    on(2, |c| k.rename(c, p0, "a2", "a3"));
    on(3, |c| k.link(c, p0, "a", "c"));
    on(0, |c| k.rename(c, p0, "a", "c"));
    on(1, |c| k.rename(c, p1, "a3", "b"));
    on(2, |c| k.unlink(c, p1, "c"));
    on(3, |c| k.unlink(c, p1, "missing"));
    let trunc = OpenFlags {
        truncate: true,
        ..OpenFlags::create()
    };
    on(0, |c| k.open(c, p0, "b", trunc));
    on(1, |c| k.fstat(c, p1, b));
    let anon = on_core(0, || k.mmap(0, p0, None, 2, Prot::rw(), MmapBacking::Anon)).unwrap_or(0);
    on(1, |c| k.memwrite(c, p0, anon, 7));
    on(2, |c| k.memread(c, p0, anon + PAGE_SIZE));
    on(3, |c| k.mprotect(c, p0, anon, 1, Prot::ro()));
    on(0, |c| k.memwrite(c, p0, anon, 8));
    on(1, |c| k.munmap(c, p0, anon, 2));
    let mapped = on_core(2, || {
        k.mmap(
            2,
            p1,
            Some(32 * PAGE_SIZE),
            1,
            Prot::rw(),
            MmapBacking::File(b),
        )
    })
    .unwrap_or(0);
    on(3, |c| k.memwrite(c, p1, mapped, b'Q'));
    on(0, |c| k.memread(c, p1, mapped));
    let (r, w) = on_core(1, || k.pipe(1, p0)).unwrap_or((u32::MAX, u32::MAX));
    on(2, |c| k.write(c, p0, w, b"x"));
    on(3, |c| k.read(c, p0, r, 4));
    on(0, |c| k.read(c, p0, r, 4));
    let child = on_core(1, || k.fork(1, p0)).unwrap_or(usize::MAX);
    on(2, |c| k.close(c, child, a));
    on(3, |c| k.wait(c, p0, child));
    let spawned = on_core(0, || k.posix_spawn(0, p0, &[w])).unwrap_or(usize::MAX);
    on(1, |c| k.wait(c, p0, spawned));
    on(2, |c| k.close(c, p0, r));
    on(3, |c| k.write(c, p0, w, b"y"));
    for order in [SocketOrder::Ordered, SocketOrder::Unordered] {
        let s = on_core(0, || k.socket(0, order)).unwrap_or(usize::MAX);
        on(0, |c| k.send(c, s, b"m0"));
        on(1, |c| k.send(c, s, b"m1"));
        on(1, |c| k.recv(c, s));
        on(3, |c| k.recv(c, s));
        on(2, |c| k.recv(c, s));
    }
    Folds::of(m)
}

/// statbench: half the cores `fstat` (or `fstatx`) one file while the other
/// half link and unlink it.
fn statbench(shared_link_counts: bool, fstatx: bool) -> (u64, u64) {
    let kernel = Sv6Kernel::with_options(CORES, Sv6Options { shared_link_counts });
    let m = kernel.lines().unwrap();
    m.begin_window();
    let pid = kernel.new_process();
    let fd = kernel
        .open(0, pid, "statfile", OpenFlags::create())
        .unwrap();
    for round in 0..3 {
        for core in 0..CORES {
            on_core(core, || {
                if core < CORES / 2 {
                    if fstatx {
                        kernel
                            .fstatx(core, pid, fd, StatMask::all_but_nlink())
                            .unwrap();
                    } else {
                        kernel.fstat(core, pid, fd).unwrap();
                    }
                } else {
                    let scratch = format!("statlink-{core}-{round}");
                    kernel.link(core, pid, "statfile", &scratch).unwrap();
                    kernel.unlink(core, pid, &scratch).unwrap();
                }
            });
        }
    }
    Folds::of(m)
}

/// openbench: every core opens and closes its own file.
fn openbench(anyfd: bool) -> (u64, u64) {
    let kernel = Sv6Kernel::new(CORES);
    let m = kernel.lines().unwrap();
    m.begin_window();
    let pid = kernel.new_process();
    for core in 0..CORES {
        let fd = kernel
            .open(core, pid, &format!("openbench-{core}"), OpenFlags::create())
            .unwrap();
        kernel.close(core, pid, fd).unwrap();
    }
    for _ in 0..3 {
        for core in 0..CORES {
            on_core(core, || {
                let flags = if anyfd {
                    OpenFlags::plain().with_anyfd()
                } else {
                    OpenFlags::plain()
                };
                let fd = kernel
                    .open(core, pid, &format!("openbench-{core}"), flags)
                    .unwrap();
                kernel.close(core, pid, fd).unwrap();
            });
        }
    }
    Folds::of(m)
}

/// mailbench: every core enqueues a message and runs one queue-manager step.
fn mailbench(config: MailConfig) -> (u64, u64) {
    let kernel = Sv6Kernel::new(CORES);
    let m = kernel.lines().unwrap();
    m.begin_window();
    let client = kernel.new_process();
    let qman = kernel.new_process();
    let server = MailServer::new(&kernel, config, CORES).unwrap();
    for round in 0..2 {
        for core in 0..CORES {
            on_core(core, || {
                let body = format!("message {round} from core {core}");
                server
                    .enqueue(
                        core,
                        client,
                        &format!("user{core}"),
                        body.as_bytes(),
                        &NoMailObs,
                    )
                    .unwrap();
                server.qman_step(core, qman, &NoMailObs).unwrap();
            });
        }
    }
    Folds::of(m)
}

#[test]
fn simulated_footprint_is_pinned() {
    let sv6 = Sv6Factory { cores: CORES };
    let linux = LinuxLikeFactory { cores: CORES };
    let tests = corpus_tests();
    let got = [
        ("corpus sv6", corpus(&sv6, tests)),
        ("corpus linux", corpus(&linux, tests)),
        ("script sv6", script(&sv6)),
        ("script linux", script(&linux)),
        ("statbench refcache", statbench(false, false)),
        ("statbench shared", statbench(true, false)),
        ("statbench fstatx", statbench(false, true)),
        ("openbench lowest", openbench(false)),
        ("openbench anyfd", openbench(true)),
        ("mailbench regular", mailbench(MailConfig::RegularApis)),
        (
            "mailbench commutative",
            mailbench(MailConfig::CommutativeApis),
        ),
    ];
    let render = |hash: fn(&(u64, u64)) -> u64| -> Vec<String> {
        got.iter()
            .map(|(what, folds)| format!("{what}: {:016x}", hash(folds)))
            .collect()
    };
    let (rendered, multisets) = (render(|f| f.0), render(|f| f.1));
    let mut all = Fnv64::default();
    for (_, (hash, _)) in &got {
        all.word(*hash);
    }
    println!(
        "{}\nfootprint: {:016x}\nmultisets:\n{}",
        rendered.join("\n"),
        all.finish(),
        multisets.join("\n")
    );
    let linux_verdicts = verdicts(&linux, tests);
    println!("corpus linux verdicts: {linux_verdicts:016x}");
    assert_eq!(multisets, EXPECTED_MULTISET);
    assert_eq!(linux_verdicts, LINUX_VERDICTS, "corpus linux verdicts");
    assert_eq!(rendered, EXPECTED, "footprint: {:016x}", all.finish());
    assert_eq!(all.finish(), FOOTPRINT);
}

/// The fold of [`verdicts`] on the Linux-like kernel over the corpus.
const LINUX_VERDICTS: u64 = 0x72d4_3459_987e_4365;

/// Per-source hashes. `corpus sv6`, `script sv6` and the three statbench
/// sources last moved when sv6 `link` began publishing its link-count
/// increment before inserting the name, and sv6 pipes took their label
/// ids from a per-kernel counter; [`EXPECTED_MULTISET`] did not move.
/// `corpus linux` and `script linux` last moved, in both folds, when the
/// Linux-like kernel became the sv6 body under the Linux-like sharing
/// policy: its accesses are now the body's plus the policy's structures,
/// and [`LINUX_VERDICTS`] did not move. The two mailbench sources last
/// moved, in both folds, when `wait` began listing a reaped helper for
/// the next spawn on its core: each core's second-round helper reuses the
/// first round's pid, so its accesses name that process's lines.
const EXPECTED: [&str; 11] = [
    "corpus sv6: 5171868d97a0dbb3",
    "corpus linux: 4cf9f7185aefdcfd",
    "script sv6: c594a7f95be33dbd",
    "script linux: 63b4feed8ad0a38e",
    "statbench refcache: 5c9c51cce22b9848",
    "statbench shared: c16537a2b0c22a2e",
    "statbench fstatx: 352edee5edda55a0",
    "openbench lowest: 9d0a3313ac322f47",
    "openbench anyfd: ed7ef8811d4f74f3",
    "mailbench regular: f0176bcd3fd82222",
    "mailbench commutative: efe9b764ace5d424",
];

/// The fold of [`EXPECTED`].
const FOOTPRINT: u64 = 0x9b1b_9e57_db28_e544;

/// Per-source multiset hashes.
const EXPECTED_MULTISET: [&str; 11] = [
    "corpus sv6: baa4bbeb0ab9daa5",
    "corpus linux: 65f0792a944b4fb4",
    "script sv6: 8b6d017cb8ba018a",
    "script linux: 5982dbbdc2177677",
    "statbench refcache: b8547acf16f29144",
    "statbench shared: 25696611b358d1b4",
    "statbench fstatx: 32ef0169eac9c96b",
    "openbench lowest: b67466cbc771a0c8",
    "openbench anyfd: d4a6a17fe6ec1c7e",
    "mailbench regular: 77796c3ac6b0923c",
    "mailbench commutative: f0d0d1c563edfc48",
];

/// How many corpus tests the two simulated kernels answer differently: the
/// tests where, with the operations in the same order (any order), sv6 and
/// the Linux-like baseline return different results. Before the baseline
/// became a policy of the sv6 body it was 42, every one of them a pair
/// with a `stat`.
const RESULT_CENSUS: usize = 0;

/// The census of kernels that disagree on what a call returns. Sharing
/// must not change semantics, so the pinned count may only fall; lower it
/// when it does.
#[test]
fn simulated_kernels_disagree_on_results_no_more_than_the_census() {
    fn results(
        factory: &dyn KernelFactory,
        test: &ConcreteTest,
        order: &[usize],
    ) -> Vec<SysResult> {
        let kernel = factory.build();
        replay(&kernel, kernel.lines(), test, InOrder(order)).results
    }
    let sv6 = Sv6Factory { cores: CORES };
    let linux = LinuxLikeFactory { cores: CORES };
    let disagreeing: Vec<&str> = corpus_tests()
        .iter()
        .filter(|test| {
            orders(test.ops.len())
                .iter()
                .any(|order| results(&sv6, test, order) != results(&linux, test, order))
        })
        .map(|test| test.id.as_str())
        .collect();
    assert_eq!(
        disagreeing.len(),
        RESULT_CENSUS,
        "the census moved: {disagreeing:?}"
    );
}
