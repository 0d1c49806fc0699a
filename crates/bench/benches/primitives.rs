//! Criterion micro-benchmarks of the scalable primitives on the host
//! machine.
//!
//! These benchmarks complement the simulator-based figures with real-thread
//! measurements of the §7.2 single-core observations: a shared atomic
//! counter versus a per-core (cache-line padded) counter, and the cost of a
//! Refcache-style exact read (which must sum every per-core delta) versus a
//! plain read — the reason `fstat` with `st_nlink` is several times more
//! expensive than `fstatx` without it. The `hash_dir/lookup` pair times a
//! lookup in a one-bucket directory (the linux-like kernel's) at 1 000 and at
//! 32 000 entries: a bucket is a hash table, so the two read alike. The
//! structures run uninstrumented, as in the host kernel's timed paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scr_hostmtrace::HostTraceSink;
use scr_scalable::{HashDir, PerCoreCounter, Refcache, SharedCounter};
use std::sync::Arc;
use std::thread;

/// The substrate type of an uninstrumented host structure.
type Host = Arc<HostTraceSink>;

fn counter_increment(c: &mut Criterion) {
    let mut group = c.benchmark_group("counter_increment_4_threads");
    let threads = 4;
    group.bench_function("shared_atomic", |b| {
        b.iter_batched(
            || Arc::new(SharedCounter::<Host>::new(None, "shared")),
            |counter| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let counter = Arc::clone(&counter);
                        thread::spawn(move || {
                            for _ in 0..5_000 {
                                counter.add(1);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("per_core_padded", |b| {
        b.iter_batched(
            || Arc::new(PerCoreCounter::<Host>::new(None, "per_core", threads)),
            |counter| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let counter = Arc::clone(&counter);
                        thread::spawn(move || {
                            for _ in 0..5_000 {
                                counter.add(t, 1);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn refcount_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("refcount_read");
    let rc = Refcache::<Host>::new(None, "refcount", 80, 1);
    for core in 0..80 {
        rc.inc(core);
    }
    group.bench_function("exact_read_sums_80_deltas", |b| {
        b.iter(|| std::hint::black_box(rc.read_exact()))
    });
    group.bench_function("reconciled_read_single_line", |b| {
        b.iter(|| std::hint::black_box(rc.read_reconciled()))
    });
    group.finish();
}

fn hash_dir_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_dir/lookup");
    for (name, entries) in [
        ("1k_entries_one_bucket", 1_000u64),
        ("32k_entries_one_bucket", 32_000),
    ] {
        let dir: HashDir<u64, Host> = HashDir::new(None, "dir", 1);
        for seq in 0..entries {
            dir.insert_if_absent(&format!("queue/msg-{}-{seq}", seq % 2), seq);
        }
        // Names spread evenly over insertion order, cycled.
        let probes: Vec<String> = (0..256)
            .map(|i| i * entries / 256)
            .map(|seq| format!("queue/msg-{}-{seq}", seq % 2))
            .collect();
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                next = (next + 1) % probes.len();
                std::hint::black_box(dir.get(std::hint::black_box(&probes[next])))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, counter_increment, refcount_reads, hash_dir_lookup);
criterion_main!(benches);
