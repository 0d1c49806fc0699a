//! Criterion micro-benchmarks of the scalable primitives on the host
//! machine.
//!
//! These benchmarks complement the simulator-based figures with real-thread
//! measurements of the §7.2 single-core observations: a shared atomic
//! counter versus a per-core (cache-line padded) counter, and the cost of a
//! Refcache-style exact read (which must sum every per-core delta) versus a
//! plain read — the reason `fstat` with `st_nlink` is several times more
//! expensive than `fstatx` without it. The `striped_dir/lookup` pair times a
//! lookup in a one-stripe directory (the linux-like kernel's) at 1 000 and at
//! 32 000 entries: a stripe is a hash table, so the two read alike.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scr_scalable::percore_alloc::FdMode;
use scr_scalable::real::{
    HostFdAllocator, PerCoreCounter, PerCoreRefcount, SharedCounter, StripedHashDir,
};
use std::sync::Arc;
use std::thread;

fn counter_increment(c: &mut Criterion) {
    let mut group = c.benchmark_group("counter_increment_4_threads");
    let threads = 4;
    group.bench_function("shared_atomic", |b| {
        b.iter_batched(
            || Arc::new(SharedCounter::new()),
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
            || Arc::new(PerCoreCounter::new(threads)),
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
    let rc = PerCoreRefcount::new(80, 1);
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

fn fd_allocation(c: &mut Criterion) {
    // The openbench observation at primitive level: POSIX lowest-FD
    // allocation funnels every thread through one bitmap lock, while the
    // O_ANYFD per-core partitions keep allocations core-local.
    let mut group = c.benchmark_group("fd_alloc_free_4_threads");
    let threads = 4;
    for (name, mode) in [
        ("lowest_shared_bitmap", FdMode::Lowest),
        ("anyfd_per_core", FdMode::Any),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || Arc::new(HostFdAllocator::new(threads, 64, mode)),
                |fds| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let fds = Arc::clone(&fds);
                            thread::spawn(move || {
                                for _ in 0..2_000 {
                                    let fd = fds.alloc(t).expect("fd");
                                    fds.free(fd);
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
    }
    group.finish();
}

fn striped_dir_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("striped_dir/lookup");
    for (name, entries) in [
        ("1k_entries_one_stripe", 1_000u64),
        ("32k_entries_one_stripe", 32_000),
    ] {
        let dir: StripedHashDir<u64> = StripedHashDir::new(1);
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

criterion_group!(
    benches,
    counter_increment,
    refcount_reads,
    fd_allocation,
    striped_dir_lookup
);
criterion_main!(benches);
