//! One operation sequence over every structure, run on both line
//! substrates: the simulated machine and a real-threads trace sink.
//!
//! Each structure is written once and records its footprint through
//! `scr_mtrace::Lines`, so the two substrates must see the same thing: the
//! same (label, kind) sequence on every core, and the same label for every
//! line id — the `line#N` fallback past the last line included.

use scr_hostmtrace::{on_core, HostTraceSink};
use scr_mtrace::{AccessKind, LineId, Lines, SimMachine};
use scr_scalable::{
    DeferQueue, HashDir, InodeAllocator, LinkCounter, LockWord, PerCoreCounter, RadixArray,
    Refcache, SeqLock, SharedCounter, SocketOrder, SocketTable,
};
use std::sync::Arc;

const CORES: usize = 4;

/// Builds every structure on `lines` and runs the sequence, each step on
/// the core `run` is given.
fn exercise<L: Lines + Clone>(lines: &L, run: &dyn Fn(usize, &dyn Fn())) {
    let l = Some(lines);
    let dir = HashDir::new(l, "dir", 8);
    let refs = Refcache::new(l, "inode[1].nlink", CORES, 1);
    let shared_links = LinkCounter::new(l, "inode[2].nlink", CORES, true);
    let inos = InodeAllocator::new(l, "scalefs", CORES);
    let size = SeqLock::new(l, "inode[1].size", 0);
    let pages = RadixArray::new(l, "inode[1].pages");
    let defer = DeferQueue::new(l, "scalefs.inode_gc", CORES);
    let sockets = SocketTable::new(l, CORES);
    let shards = PerCoreCounter::new(l, "ctr", CORES);
    let shared = SharedCounter::new(l, "file.refcount");
    let giant = LockWord::new(l, "kernel.giant_lock");

    run(0, &|| {
        dir.insert_if_absent("a", 1);
        dir.insert_if_absent("a", 2);
        dir.get("b");
    });
    run(1, &|| {
        dir.upsert("b", 3);
        dir.insert_if_absent_pessimistic("c", 4);
        dir.remove("missing");
    });
    run(2, &|| {
        let (a, b) = (dir.bucket_of("a"), dir.bucket_of("b"));
        dir.with_pair_locked("a", "b", |pair| {
            let v = pair.get("a", a).unwrap();
            pair.upsert("b", b, v);
            pair.remove("a", a);
        });
    });
    for core in 0..CORES {
        run(core, &|| {
            refs.inc(core);
            inos.alloc(core);
            defer.defer(core, core);
            shards.add(core, 1);
            shared.add(1);
            shared_links.inc(core);
        });
    }
    run(3, &|| {
        refs.dec(0);
        refs.read_exact();
        refs.read_reconciled();
        refs.flush_epoch();
        refs.flush_epoch();
        shared_links.read_exact();
        shared_links.reconcile();
        shards.read();
        shared.read();
        defer.drain(1);
    });
    run(0, &|| {
        size.read();
        size.fetch_max(2);
        size.fetch_max(1);
        size.write(|_| 0);
        pages.get(3);
        pages.set(3, 30u64);
        pages.set(70, 70);
        *pages.write().update(4) += 1;
    });
    run(1, &|| {
        let mut locked = pages.write();
        locked.modify(3, |v| *v += 1);
        locked.modify(5, |v| *v += 1);
        locked.take(70);
        locked.take(71);
        drop(locked);
        pages.clear();
    });
    let ordered = sockets.create(SocketOrder::Ordered);
    let unordered = sockets.create(SocketOrder::Unordered);
    run(2, &|| {
        giant.with(|| sockets.send(2, ordered, b"o").unwrap());
        sockets.send(2, unordered, b"u").unwrap();
    });
    run(3, &|| {
        drop(giant.hold());
        sockets.recv(3, ordered).unwrap();
        sockets.recv(3, ordered).unwrap_err();
        sockets.recv(3, unordered).unwrap();
        sockets.recv(3, unordered).unwrap_err();
    });
}

/// Per core, the (label, kind) sequence of a log.
type PerCore = Vec<Vec<(String, AccessKind)>>;

fn per_core(accesses: &[scr_mtrace::Access], label_of: impl Fn(LineId) -> String) -> PerCore {
    let mut out = vec![Vec::new(); CORES];
    for a in accesses {
        out[a.core].push((label_of(a.line), a.kind));
    }
    out
}

#[test]
fn both_substrates_record_the_same_footprint_under_the_same_labels() {
    let m = SimMachine::new();
    m.start_tracing();
    exercise(&m, &|core, f| m.on_core(core, f));
    let sim = per_core(&m.accesses(), |line| m.label_of(line));

    let sink = HostTraceSink::new(CORES);
    sink.begin_window();
    exercise(&sink, &|core, f| on_core(core, f));
    let report = sink.end_window();
    assert_eq!(report.dropped, 0);
    let host = per_core(&report.accesses, |line| sink.label_of(line));

    assert!(sim.iter().all(|log| !log.is_empty()), "{sim:?}");
    assert_eq!(host, sim);
    let lines = sink.line_count();
    assert!(lines > 2 * 8 + 64 * 3, "{lines} lines");
    let labels = |label_of: &dyn Fn(LineId) -> String| -> Vec<String> {
        (0..=lines).map(|i| label_of(LineId(i))).collect()
    };
    let host_labels = labels(&|line| sink.label_of(line));
    assert_eq!(host_labels, labels(&|line| m.label_of(line)));
    assert_eq!(host_labels.last().unwrap(), &format!("line#{lines}"));
}

#[test]
fn an_uninstrumented_structure_records_nothing() {
    let sink = HostTraceSink::new(CORES);
    let dir: HashDir<u64, Arc<HostTraceSink>> = HashDir::new(None, "dir", 8);
    sink.begin_window();
    dir.insert_if_absent("a", 1);
    assert!(sink.end_window().accesses.is_empty());
    assert_eq!(sink.line_count(), 0);
}
