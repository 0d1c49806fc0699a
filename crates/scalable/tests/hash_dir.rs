//! `HashDir` against a model, under real threads, and against its own
//! recorded footprint on a real-threads trace sink.
//!
//! A bucket stores its names in a hash table; what the directory *means*
//! (a string-keyed map), how it behaves under concurrent callers and which
//! lines each operation touches do not depend on that. These tests pin the
//! three next to the code.
//!
//! Names follow the mail pipeline's own patterns — `queue/msg-{core}-{seq}`
//! and `mail/user{m}/new-{core}-{seq}` — because that is the population whose
//! members share FNV-1a's low bits inside one stripe.

use scr_hostmtrace::{on_core, HostTraceSink};
use scr_mtrace::AccessKind::{self, Read, Write};
use scr_scalable::HashDir;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Bucket counts of the linux-like kernel (1), the smallest directory with a
/// two-bucket case (2) and the sv6 kernel (512).
const STRIPE_COUNTS: [usize; 3] = [1, 2, 512];

/// A directory on a real-threads trace sink, or on none.
type Dir = HashDir<u64, Arc<HostTraceSink>>;

fn queue_name(core: u64, seq: u64) -> String {
    format!("queue/msg-{core}-{seq}")
}

fn mailbox_name(mailbox: u64, core: u64, seq: u64) -> String {
    format!("mail/user{mailbox}/new-{core}-{seq}")
}

/// A small xorshift generator: the tests need repeatable choices, not
/// statistical quality.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }

    /// A name from a universe of 96, so that hits, misses and re-inserts
    /// all happen often.
    fn name(&mut self) -> String {
        let (core, seq) = (self.below(2), self.below(16));
        if self.below(3) == 0 {
            queue_name(core, seq)
        } else {
            mailbox_name(self.below(2), core, seq)
        }
    }
}

#[test]
fn directory_matches_a_btree_map_at_every_stripe_count() {
    for stripes in STRIPE_COUNTS {
        let mut same_stripe_pairs = 0;
        let mut two_stripe_pairs = 0;
        for seed in 1..=8u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let dir: Dir = HashDir::new(None, "d", stripes);
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            for step in 0..2_000u64 {
                let key = rng.name();
                let what = format!("stripes {stripes} seed {seed} step {step} key {key}");
                match rng.below(7) {
                    0 => assert_eq!(dir.get(&key), model.get(&key).copied(), "{what}"),
                    1 => assert_eq!(dir.contains(&key), model.contains_key(&key), "{what}"),
                    op @ (2 | 3) => {
                        let inserted = if op == 2 {
                            dir.insert_if_absent(&key, step)
                        } else {
                            dir.insert_if_absent_pessimistic(&key, step)
                        };
                        assert_eq!(inserted, !model.contains_key(&key), "{what}");
                        model.entry(key).or_insert(step);
                    }
                    4 => {
                        dir.upsert(&key, step);
                        model.insert(key, step);
                    }
                    5 => assert_eq!(dir.remove(&key), model.remove(&key), "{what}"),
                    _ => {
                        // A rename, the one caller of the pairwise view:
                        // look up the source, bind the target, unbind the
                        // source, all under both stripes' locks.
                        let target = rng.name();
                        let (sk, st) = (dir.bucket_of(&key), dir.bucket_of(&target));
                        if sk == st {
                            same_stripe_pairs += 1;
                        } else {
                            two_stripe_pairs += 1;
                        }
                        let moved = dir.with_pair_locked(&key, &target, |pair| {
                            let value = pair.get(&key, sk)?;
                            pair.upsert(&target, st, value);
                            if key != target {
                                assert_eq!(pair.remove(&key, sk), Some(value), "{what}");
                            }
                            Some(value)
                        });
                        assert_eq!(moved, model.get(&key).copied(), "{what}");
                        if let Some(value) = model.remove(&key) {
                            model.insert(target, value);
                        }
                    }
                }
                assert_eq!(dir.len(), model.len(), "{what}");
            }
            for (key, value) in &model {
                assert_eq!(dir.get(key), Some(*value), "stripes {stripes} seed {seed}");
            }
        }
        assert!(same_stripe_pairs > 0, "no same-stripe pair at {stripes}");
        assert_eq!(two_stripe_pairs > 0, stripes > 1, "pairs at {stripes}");
    }
}

#[test]
fn every_contended_insert_and_remove_is_won_exactly_once() {
    const THREADS: u64 = 4;
    const SHARED: u64 = 300;
    const PRIVATE: u64 = 200;
    for stripes in STRIPE_COUNTS {
        let dir: Dir = HashDir::new(None, "d", stripes);
        let inserts_won = AtomicUsize::new(0);
        let removes_won = AtomicUsize::new(0);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (dir, start) = (&dir, &start);
                let (inserts_won, removes_won) = (&inserts_won, &removes_won);
                s.spawn(move || {
                    start.wait();
                    for seq in 0..SHARED.max(PRIVATE) {
                        // Overlapping: every thread races for the same name.
                        if seq < SHARED && dir.insert_if_absent(&queue_name(0, seq), t) {
                            inserts_won.fetch_add(1, Ordering::Relaxed);
                        }
                        // Disjoint: a name only this thread uses.
                        if seq < PRIVATE {
                            let own = mailbox_name(t, t, seq);
                            assert!(dir.insert_if_absent(&own, seq));
                            assert_eq!(dir.get(&own), Some(seq));
                        }
                    }
                    start.wait();
                    for seq in 0..SHARED {
                        if let Some(winner) = dir.remove(&queue_name(0, seq)) {
                            assert!(winner < THREADS);
                            removes_won.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(inserts_won.into_inner(), SHARED as usize, "{stripes}");
        assert_eq!(removes_won.into_inner(), SHARED as usize, "{stripes}");
        assert_eq!(dir.len(), (THREADS * PRIVATE) as usize, "{stripes}");
    }
}

type Footprint = Vec<(String, AccessKind)>;

/// The (label, kind) sequence `f` records, per core.
fn footprint(sink: &Arc<HostTraceSink>, f: impl FnOnce()) -> Vec<Footprint> {
    sink.begin_window();
    f();
    let report = sink.end_window();
    assert_eq!(report.dropped, 0);
    let mut per_core = vec![Vec::new(); sink.cores()];
    for access in &report.accesses {
        per_core[access.core].push((sink.label_of(access.line), access.kind));
    }
    per_core
}

/// What the operations of a directory labelled `d` record on one bucket: an
/// acquisition is a read-modify-write of the lock word and a release a write
/// of it; a lookup reads the entries line, an update read-modify-writes it.
struct Footprints {
    /// `get`, `contains`, and `remove` / `insert_if_absent` when they stop
    /// at their optimistic check.
    lookup: Footprint,
    /// `insert_if_absent` of a fresh name.
    insert_won: Footprint,
    /// `insert_if_absent` that passed its optimistic check and found the
    /// name in the re-check under the lock.
    insert_lost: Footprint,
    /// `upsert`, and the locked half of a `remove` that found its name.
    update: Footprint,
}

fn footprints(bucket: usize) -> Footprints {
    let entries = |kind| (format!("d.bucket[{bucket}].entries"), kind);
    let lock = |kind| (format!("d.bucket[{bucket}].lock"), kind);
    let acquire = [lock(Read), lock(Write)];
    Footprints {
        lookup: vec![entries(Read)],
        insert_won: [
            &[entries(Read)][..],
            &acquire,
            &[entries(Read), entries(Read), entries(Write), lock(Write)],
        ]
        .concat(),
        insert_lost: [
            &[entries(Read)][..],
            &acquire,
            &[entries(Read), lock(Write)],
        ]
        .concat(),
        update: [&acquire[..], &[entries(Read), entries(Write), lock(Write)]].concat(),
    }
}

#[test]
fn each_operation_records_the_footprint_it_always_did() {
    let sink = HostTraceSink::new(2);
    let dir: Dir = HashDir::new(Some(&sink), "d", 8);
    // Enough neighbours that the key under test shares its stripe's table.
    for seq in 0..64 {
        dir.insert_if_absent(&queue_name(1, seq), seq);
    }
    let key = queue_name(0, 7);
    let bucket = dir.bucket_of(&key);
    let Footprints {
        lookup,
        insert_won,
        insert_lost,
        update,
    } = footprints(bucket);
    let remove_hit = [lookup.clone(), update.clone()].concat();
    let on_core_0 = |f: &dyn Fn()| {
        let mut per_core = footprint(&sink, || on_core(0, f));
        assert!(per_core[1].is_empty());
        per_core.swap_remove(0)
    };

    assert_eq!(on_core_0(&|| assert_eq!(dir.get(&key), None)), lookup);
    assert_eq!(on_core_0(&|| assert!(!dir.contains(&key))), lookup);
    assert_eq!(on_core_0(&|| assert_eq!(dir.remove(&key), None)), lookup);
    assert_eq!(
        on_core_0(&|| assert!(dir.insert_if_absent(&key, 1))),
        insert_won
    );
    assert_eq!(on_core_0(&|| assert_eq!(dir.get(&key), Some(1))), lookup);
    assert_eq!(on_core_0(&|| assert!(dir.contains(&key))), lookup);
    assert_eq!(
        on_core_0(&|| assert!(!dir.insert_if_absent(&key, 2))),
        lookup,
        "insert of an existing name stays read-only"
    );
    // The pessimistic variant is `insert_if_absent` after its optimistic
    // check, so on an existing name it is a lost race minus the first read.
    assert_eq!(
        on_core_0(&|| assert!(!dir.insert_if_absent_pessimistic(&key, 2))),
        insert_lost[1..]
    );
    assert_eq!(on_core_0(&|| dir.upsert(&key, 3)), update);
    assert_eq!(
        on_core_0(&|| assert_eq!(dir.remove(&key), Some(3))),
        remove_hit
    );
    assert_eq!(
        on_core_0(&|| assert!(dir.insert_if_absent_pessimistic(&key, 4))),
        insert_won[1..]
    );
    let pairwise = on_core_0(&|| {
        dir.with_pair_locked(&key, &key, |pair| {
            assert_eq!(pair.get(&key, bucket), Some(4));
            pair.upsert(&key, bucket, 5);
            assert_eq!(pair.remove(&key, bucket), Some(5));
            assert_eq!(pair.remove(&key, bucket), None);
        })
    });
    // The locked view records what the unlocked call sequence would.
    assert_eq!(
        pairwise,
        [&lookup[..], &update, &remove_hit, &lookup].concat()
    );
}

#[test]
fn a_lost_insert_race_records_no_write_to_the_entries_line() {
    // Two threads insert the same fresh names in the same order, so they
    // keep meeting at the frontier. Per name one of them wins with the full
    // insert footprint; the other either saw the name in its optimistic
    // check or found it in the re-check under the lock, and records no
    // write to the entries line either way. Every operation starts with a
    // read of the entries line and only the long ones continue with the
    // lock word, so a core's log splits into operations unambiguously.
    const NAMES: u64 = 10_000;
    let sink = HostTraceSink::with_capacity(2, 8 * NAMES as usize);
    let dir: Dir = HashDir::new(Some(&sink), "d", 8);
    let names: Vec<String> = (0..NAMES).map(|seq| queue_name(0, seq)).collect();
    let start = Barrier::new(2);
    let per_core = footprint(&sink, || {
        std::thread::scope(|s| {
            for core in 0..2 {
                let (dir, names, start) = (&dir, &names, &start);
                s.spawn(move || {
                    on_core(core, || {
                        start.wait();
                        for name in names {
                            dir.insert_if_absent(name, core as u64);
                        }
                    })
                });
            }
        })
    });
    let mut logs = [&per_core[0][..], &per_core[1][..]];
    let mut lost_under_the_lock = 0;
    for name in &names {
        let expect = footprints(dir.bucket_of(name));
        let mut winners = 0;
        for log in &mut logs {
            let op = [&expect.insert_won, &expect.insert_lost, &expect.lookup]
                .into_iter()
                .find(|op| log.starts_with(op))
                .unwrap_or_else(|| {
                    panic!("{name}: unknown footprint {:?}", &log[..log.len().min(7)])
                });
            winners += usize::from(op == &expect.insert_won);
            lost_under_the_lock += usize::from(op == &expect.insert_lost);
            *log = &log[op.len()..];
        }
        assert_eq!(winners, 1, "{name}");
    }
    assert!(logs[0].is_empty() && logs[1].is_empty());
    assert_eq!(dir.len(), NAMES as usize);
    // How often the narrow window is hit depends on the box; both outcomes
    // were checked above.
    println!("{lost_under_the_lock} of {NAMES} races were lost under the lock");
}

#[test]
fn lookup_time_does_not_grow_with_the_directory() {
    // One stripe, as in the linux-like kernel, probed at 256 names spread
    // evenly over insertion order (a walk finds early names early). A linear
    // walk costs ≈ 32 × more per lookup at 32 000 entries than at 1 000; a
    // hash table costs the same. Best of five, so one slow phase of the box
    // cannot fail it, and a bound of 8 × so that only the shape is tested.
    fn ns_per_lookup(entries: u64) -> f64 {
        let dir: Dir = HashDir::new(None, "d", 1);
        for seq in 0..entries {
            assert!(dir.insert_if_absent(&queue_name(seq % 2, seq), seq));
        }
        let probes: Vec<(String, u64)> = (0..256)
            .map(|i| i * entries / 256)
            .map(|seq| (queue_name(seq % 2, seq), seq))
            .collect();
        const ROUNDS: usize = 20;
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..ROUNDS {
                    for (name, seq) in &probes {
                        assert_eq!(dir.get(std::hint::black_box(name)), Some(*seq));
                    }
                }
                t0.elapsed().as_nanos() as f64 / (ROUNDS * probes.len()) as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
    let small = ns_per_lookup(1_000);
    let large = ns_per_lookup(32_000);
    assert!(
        large <= 8.0 * small,
        "a lookup costs {large:.0} ns at 32 000 entries against {small:.0} ns at 1 000"
    );
}
