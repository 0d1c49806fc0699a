//! Pins the simulated machine's access footprint.
//!
//! Both simulated kernels are built from the scalable structures of
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
//! A change to how the structures are written must leave every constant
//! unchanged; a change that means to move the footprint updates them and
//! says why.

use scalable_commutativity::commuter::{
    run_commuter, CommuterConfig, KernelFactory, LinuxLikeFactory, Sv6Factory,
};
use scalable_commutativity::kernel::api::{
    perform, KernelApi, MmapBacking, OpenFlags, Prot, SocketOrder, StatMask, SyscallApi, Whence,
    PAGE_SIZE,
};
use scalable_commutativity::kernel::mail::{MailConfig, MailServer, NoMailObs};
use scalable_commutativity::kernel::{Sv6Kernel, Sv6Options};
use scalable_commutativity::model::CallKind;
use scalable_commutativity::mtrace::{AccessKind, LineId, SimMachine};
use scalable_commutativity::symbolic::Fnv64;
use std::collections::HashMap;

const CORES: usize = 4;

/// Folds a machine's whole access log into `h`: core, label, kind and the
/// line's first-appearance number of every access, in log order.
fn fold_log(h: &mut Fnv64, machine: &SimMachine) {
    let mut lines: HashMap<LineId, (u64, String)> = HashMap::new();
    for access in machine.accesses() {
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

/// The corpus of the four calls `tests/sweep_determinism.rs` pins, each test
/// replayed with its setup and its pair traced.
fn corpus(factory: &dyn KernelFactory) -> u64 {
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
    let mut h = Fnv64::default();
    for test in &tests {
        let kernel = factory.build();
        let machine = kernel.machine().clone();
        machine.start_tracing();
        for _ in 0..test.procs.max(2) {
            kernel.new_process();
        }
        for (core, op) in &test.setup {
            machine.on_core(*core, || perform(kernel.as_ref(), *core, op));
        }
        machine.on_core(0, || perform(kernel.as_ref(), 0, &test.op_a));
        machine.on_core(1, || perform(kernel.as_ref(), 1, &test.op_b));
        fold_log(&mut h, &machine);
    }
    h.finish()
}

/// Runs `f` on `core`, its result unused.
fn on<R>(m: &SimMachine, core: usize, f: impl FnOnce(usize) -> R) {
    m.on_core(core, || f(core));
}

/// A fixed script over every structure, each call on its own core.
fn script(factory: &dyn KernelFactory) -> u64 {
    let k = factory.build();
    let k = k.as_ref();
    let m = k.machine().clone();
    m.start_tracing();
    let p0 = k.new_process();
    let p1 = k.new_process();
    let fd = |r: Result<u32, _>| r.unwrap_or(u32::MAX);
    let a = fd(m.on_core(0, || k.open(0, p0, "a", OpenFlags::create())));
    let b = fd(m.on_core(1, || k.open(1, p1, "b", OpenFlags::create().with_anyfd())));
    on(&m, 0, |c| k.write(c, p0, a, b"hello"));
    on(&m, 1, |c| k.pwrite(c, p0, a, b"second page", PAGE_SIZE));
    on(&m, 2, |c| k.pread(c, p0, a, 5, 0));
    on(&m, 3, |c| k.lseek(c, p0, a, 1, Whence::Set));
    on(&m, 3, |c| k.read(c, p0, a, 3));
    on(&m, 0, |c| k.lseek(c, p0, a, 0, Whence::End));
    on(&m, 1, |c| k.fstat(c, p0, a));
    on(&m, 2, |c| k.fstatx(c, p0, a, StatMask::all_but_nlink()));
    on(&m, 3, |c| k.stat(c, p1, "a"));
    on(&m, 1, |c| k.link(c, p0, "a", "a2"));
    on(&m, 2, |c| k.link(c, p0, "a", "a2"));
    on(&m, 2, |c| k.rename(c, p0, "a2", "a3"));
    on(&m, 3, |c| k.link(c, p0, "a", "c"));
    on(&m, 0, |c| k.rename(c, p0, "a", "c"));
    on(&m, 1, |c| k.rename(c, p1, "a3", "b"));
    on(&m, 2, |c| k.unlink(c, p1, "c"));
    on(&m, 3, |c| k.unlink(c, p1, "missing"));
    let trunc = OpenFlags {
        truncate: true,
        ..OpenFlags::create()
    };
    on(&m, 0, |c| k.open(c, p0, "b", trunc));
    on(&m, 1, |c| k.fstat(c, p1, b));
    let anon = m
        .on_core(0, || k.mmap(0, p0, None, 2, Prot::rw(), MmapBacking::Anon))
        .unwrap_or(0);
    on(&m, 1, |c| k.memwrite(c, p0, anon, 7));
    on(&m, 2, |c| k.memread(c, p0, anon + PAGE_SIZE));
    on(&m, 3, |c| k.mprotect(c, p0, anon, 1, Prot::ro()));
    on(&m, 0, |c| k.memwrite(c, p0, anon, 8));
    on(&m, 1, |c| k.munmap(c, p0, anon, 2));
    let mapped = m
        .on_core(2, || {
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
    on(&m, 3, |c| k.memwrite(c, p1, mapped, b'Q'));
    on(&m, 0, |c| k.memread(c, p1, mapped));
    let (r, w) = m
        .on_core(1, || k.pipe(1, p0))
        .unwrap_or((u32::MAX, u32::MAX));
    on(&m, 2, |c| k.write(c, p0, w, b"x"));
    on(&m, 3, |c| k.read(c, p0, r, 4));
    on(&m, 0, |c| k.read(c, p0, r, 4));
    let child = m.on_core(1, || k.fork(1, p0)).unwrap_or(usize::MAX);
    on(&m, 2, |c| k.close(c, child, a));
    on(&m, 3, |c| k.wait(c, p0, child));
    let spawned = m
        .on_core(0, || k.posix_spawn(0, p0, &[w]))
        .unwrap_or(usize::MAX);
    on(&m, 1, |c| k.wait(c, p0, spawned));
    on(&m, 2, |c| k.close(c, p0, r));
    on(&m, 3, |c| k.write(c, p0, w, b"y"));
    for order in [SocketOrder::Ordered, SocketOrder::Unordered] {
        let s = m.on_core(0, || k.socket(0, order)).unwrap_or(usize::MAX);
        on(&m, 0, |c| k.send(c, s, b"m0"));
        on(&m, 1, |c| k.send(c, s, b"m1"));
        on(&m, 1, |c| k.recv(c, s));
        on(&m, 3, |c| k.recv(c, s));
        on(&m, 2, |c| k.recv(c, s));
    }
    let mut h = Fnv64::default();
    fold_log(&mut h, &m);
    h.finish()
}

/// statbench: half the cores `fstat` (or `fstatx`) one file while the other
/// half link and unlink it.
fn statbench(shared_link_counts: bool, fstatx: bool) -> u64 {
    let kernel = Sv6Kernel::with_options(CORES, Sv6Options { shared_link_counts });
    let m = kernel.machine().clone();
    m.start_tracing();
    let pid = kernel.new_process();
    let fd = kernel
        .open(0, pid, "statfile", OpenFlags::create())
        .unwrap();
    for round in 0..3 {
        for core in 0..CORES {
            m.on_core(core, || {
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
    let mut h = Fnv64::default();
    fold_log(&mut h, &m);
    h.finish()
}

/// openbench: every core opens and closes its own file.
fn openbench(anyfd: bool) -> u64 {
    let kernel = Sv6Kernel::new(CORES);
    let m = kernel.machine().clone();
    m.start_tracing();
    let pid = kernel.new_process();
    for core in 0..CORES {
        let fd = kernel
            .open(core, pid, &format!("openbench-{core}"), OpenFlags::create())
            .unwrap();
        kernel.close(core, pid, fd).unwrap();
    }
    for _ in 0..3 {
        for core in 0..CORES {
            m.on_core(core, || {
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
    let mut h = Fnv64::default();
    fold_log(&mut h, &m);
    h.finish()
}

/// mailbench: every core enqueues a message and runs one queue-manager step.
fn mailbench(config: MailConfig) -> u64 {
    let kernel = Sv6Kernel::new(CORES);
    let m = kernel.machine().clone();
    m.start_tracing();
    let client = kernel.new_process();
    let qman = kernel.new_process();
    let server = MailServer::new(&kernel, config, CORES).unwrap();
    for round in 0..2 {
        for core in 0..CORES {
            m.on_core(core, || {
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
    let mut h = Fnv64::default();
    fold_log(&mut h, &m);
    h.finish()
}

#[test]
fn simulated_footprint_is_pinned() {
    let sv6 = Sv6Factory { cores: CORES };
    let linux = LinuxLikeFactory { cores: CORES };
    let got = [
        ("corpus sv6", corpus(&sv6)),
        ("corpus linux", corpus(&linux)),
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
    let rendered: Vec<String> = got
        .iter()
        .map(|(what, hash)| format!("{what}: {hash:016x}"))
        .collect();
    let mut all = Fnv64::default();
    for (_, hash) in &got {
        all.word(*hash);
    }
    println!("{}\nfootprint: {:016x}", rendered.join("\n"), all.finish());
    assert_eq!(rendered, EXPECTED, "footprint: {:016x}", all.finish());
    assert_eq!(all.finish(), FOOTPRINT);
}

/// Per-source hashes.
const EXPECTED: [&str; 11] = [
    "corpus sv6: fed89ee130550575",
    "corpus linux: f0de576933ceea5c",
    "script sv6: 3827bf5f11dc408b",
    "script linux: cb6ad836925a5c5c",
    "statbench refcache: a81be482c542257c",
    "statbench shared: e7f84b5b911bba7a",
    "statbench fstatx: 55ade65f8329a5d8",
    "openbench lowest: 9d0a3313ac322f47",
    "openbench anyfd: ed7ef8811d4f74f3",
    "mailbench regular: 2a59eb3cb1e59136",
    "mailbench commutative: 14d8b7f6dac9e884",
];

/// The fold of [`EXPECTED`].
const FOOTPRINT: u64 = 0xa28f_13c2_06c4_156b;
