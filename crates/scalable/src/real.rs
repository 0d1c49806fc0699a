//! Host-hardware twins of the scalable primitives.
//!
//! The traced primitives in the rest of this crate run on the *simulated*
//! machine so that conflicts are observable. The types here are small real
//! implementations using atomics and cache-line padding; the Criterion
//! benchmark `primitives` drives them from actual threads to confirm, on the
//! host machine, the qualitative behaviour the simulator predicts: per-core
//! counters scale where a single shared counter does not (the §7.2
//! observation that even one contended cache line wrecks scalability).
//!
//! Each twin can optionally carry `scr-hostmtrace` probes (the
//! `instrumented` constructors): while a tracing window is open, the twin
//! records the **same line footprint its simulated counterpart would** —
//! one logical line per bucket / per-core shard / lock word, with the same
//! labels and the same read/write multiset per operation. That mirroring is
//! what lets the host-side Figure 6 pipeline cross-check its conflict
//! reports against the simulated heatmap. A twin's per-index lines are one
//! [`ProbeBlock`] whose labels are formatted only when a report asks, so
//! instrumenting a 512-stripe directory costs one allocation, not 1 024
//! label strings. Uninstrumented twins record nothing and pay only an
//! `Option` check.

use crate::percore_alloc::FdMode;
use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, RwLock};
use scr_hostmtrace::{HostTraceSink, Probe, ProbeBlock, ProbeRef};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A single shared atomic counter — the non-scalable baseline.
#[derive(Debug, Default)]
pub struct SharedCounter {
    value: CachePadded<AtomicI64>,
    probe: Option<Probe>,
}

impl SharedCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter that records its accesses against `label`'s line.
    pub fn instrumented(sink: &Arc<HostTraceSink>, label: impl Into<String>) -> Self {
        SharedCounter {
            value: CachePadded::new(AtomicI64::new(0)),
            probe: Some(sink.probe(label)),
        }
    }

    /// Adds `delta` (contended RMW on one cache line).
    pub fn add(&self, delta: i64) {
        if let Some(p) = &self.probe {
            p.rmw();
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn read(&self) -> i64 {
        if let Some(p) = &self.probe {
            p.read();
        }
        self.value.load(Ordering::Relaxed)
    }
}

/// A per-core sharded atomic counter — the scalable variant.
#[derive(Debug)]
pub struct PerCoreCounter {
    shards: Vec<CachePadded<AtomicI64>>,
}

impl PerCoreCounter {
    /// A counter with `shards` cache-line-padded shards.
    pub fn new(shards: usize) -> Self {
        PerCoreCounter {
            shards: (0..shards.max(1))
                .map(|_| CachePadded::new(AtomicI64::new(0)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Adds `delta` on behalf of `core` (uncontended RMW on that core's
    /// line).
    pub fn add(&self, core: usize, delta: i64) {
        self.shards[core % self.shards.len()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Sums every shard (the expensive exact read).
    pub fn read(&self) -> i64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// Probe lines of an instrumented [`PerCoreRefcount`], mirroring the
/// simulated `Refcache`'s layout: one global line, one delta line per core,
/// one epoch line.
#[derive(Debug)]
struct RefcountProbes {
    global: Probe,
    deltas: ProbeBlock,
    epoch: Probe,
}

/// A Refcache-style reference counter over real atomics: per-core deltas
/// plus a reconciled global value.
#[derive(Debug)]
pub struct PerCoreRefcount {
    global: CachePadded<AtomicI64>,
    deltas: Vec<CachePadded<AtomicI64>>,
    probes: Option<RefcountProbes>,
}

impl PerCoreRefcount {
    /// A counter with the given initial value and one delta per core.
    pub fn new(cores: usize, initial: i64) -> Self {
        PerCoreRefcount {
            global: CachePadded::new(AtomicI64::new(initial)),
            deltas: (0..cores.max(1))
                .map(|_| CachePadded::new(AtomicI64::new(0)))
                .collect(),
            probes: None,
        }
    }

    /// A counter that records the simulated `Refcache`'s footprint under
    /// `label` (lines `{label}.global`, `{label}.delta[c]`, `{label}.epoch`).
    pub fn instrumented(
        cores: usize,
        initial: i64,
        sink: &Arc<HostTraceSink>,
        label: &str,
    ) -> Self {
        let cores = cores.max(1);
        let names = label.to_string();
        PerCoreRefcount {
            probes: Some(RefcountProbes {
                global: sink.probe(format!("{label}.global")),
                deltas: sink.probe_block(cores, move |c| format!("{names}.delta[{c}]")),
                epoch: sink.probe(format!("{label}.epoch")),
            }),
            ..Self::new(cores, initial)
        }
    }

    /// Increments on behalf of `core`.
    pub fn inc(&self, core: usize) {
        let shard = core % self.deltas.len();
        if let Some(p) = &self.probes {
            p.deltas.at(shard).rmw();
        }
        self.deltas[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements on behalf of `core`.
    pub fn dec(&self, core: usize) {
        let shard = core % self.deltas.len();
        if let Some(p) = &self.probes {
            p.deltas.at(shard).rmw();
        }
        self.deltas[shard].fetch_sub(1, Ordering::Relaxed);
    }

    /// Folds every delta into the global count and returns it. The
    /// footprint mirrors `Refcache::flush_epoch`: every delta line is read
    /// and written back only when non-zero, then the epoch and global lines
    /// are read-modify-written.
    pub fn flush(&self) -> i64 {
        let mut sum = 0;
        for (shard, delta) in self.deltas.iter().enumerate() {
            let d = delta.swap(0, Ordering::Relaxed);
            if let Some(p) = &self.probes {
                let line = p.deltas.at(shard);
                line.read();
                if d != 0 {
                    line.write();
                }
            }
            sum += d;
        }
        if let Some(p) = &self.probes {
            p.epoch.rmw();
            p.global.rmw();
        }
        self.global.fetch_add(sum, Ordering::Relaxed) + sum
    }

    /// Exact value (global plus pending deltas). Touches every delta line —
    /// the expensive `st_nlink` reconciliation path of §7.2.
    pub fn read_exact(&self) -> i64 {
        if let Some(p) = &self.probes {
            for shard in 0..p.deltas.len() {
                p.deltas.at(shard).read();
            }
            p.global.read();
        }
        self.global.load(Ordering::Relaxed)
            + self
                .deltas
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .sum::<i64>()
    }

    /// Reconciled value only (cheap, possibly stale).
    pub fn read_reconciled(&self) -> i64 {
        if let Some(p) = &self.probes {
            p.global.read();
        }
        self.global.load(Ordering::Relaxed)
    }
}

/// Host twin of [`crate::InodeAllocator`]: never-reused inode numbers from
/// per-core atomic counters, with the **same numbering scheme**
/// (`(counter << 8) | core`) so a host kernel and the simulated kernel hand
/// out identical inode numbers for identical per-core allocation sequences —
/// which is what lets the differential runner compare `stat` results
/// bit-for-bit.
#[derive(Debug)]
pub struct HostInodeAllocator {
    counters: Vec<CachePadded<AtomicU64>>,
    probes: Option<ProbeBlock>,
}

impl HostInodeAllocator {
    /// Allocator with one counter per core.
    pub fn new(cores: usize) -> Self {
        HostInodeAllocator {
            counters: (0..cores.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            probes: None,
        }
    }

    /// An allocator recording the traced `InodeAllocator`'s footprint
    /// (lines `{label}.next_ino[c]`).
    pub fn instrumented(cores: usize, sink: &Arc<HostTraceSink>, label: &str) -> Self {
        let cores = cores.max(1);
        let label = label.to_string();
        HostInodeAllocator {
            probes: Some(sink.probe_block(cores, move |c| format!("{label}.next_ino[{c}]"))),
            ..Self::new(cores)
        }
    }

    /// Allocates a fresh inode number on `core`: `(counter << 8) | core`.
    /// The counter is pre-incremented, matching the traced allocator (whose
    /// `fetch_update` returns the updated value), so the first number on
    /// core 0 is `1 << 8`.
    pub fn alloc(&self, core: usize) -> u64 {
        let cores = self.counters.len() as u64;
        let core = core as u64 % cores;
        if let Some(p) = &self.probes {
            p.at(core as usize).rmw();
        }
        let count = self.counters[core as usize].fetch_add(1, Ordering::Relaxed) + 1;
        (count << 8) | core
    }
}

/// Host twin of [`crate::FdAllocator`]: a descriptor bitmap in either the
/// POSIX lowest-FD mode (one shared bitmap behind one lock — every
/// allocation serialises) or the `O_ANYFD` mode (per-core cache-padded
/// partitions — allocations from different cores never touch the same
/// line).
/// Probe lines of an instrumented [`HostFdAllocator`], mirroring the traced
/// `FdAllocator`: one line for the shared lowest-FD bitmap, one per
/// `O_ANYFD` partition.
#[derive(Debug)]
struct FdProbes {
    shared: Probe,
    per_core: ProbeBlock,
}

#[derive(Debug)]
pub struct HostFdAllocator {
    mode: FdMode,
    shared: Mutex<Vec<bool>>,
    per_core: Vec<CachePadded<Mutex<Vec<bool>>>>,
    partition: usize,
    probes: Option<FdProbes>,
}

impl HostFdAllocator {
    /// Builds a table with `cores * partition` descriptors.
    pub fn new(cores: usize, partition: usize, mode: FdMode) -> Self {
        let cores = cores.max(1);
        HostFdAllocator {
            mode,
            shared: Mutex::new(vec![false; cores * partition]),
            per_core: (0..cores)
                .map(|_| CachePadded::new(Mutex::new(vec![false; partition])))
                .collect(),
            partition,
            probes: None,
        }
    }

    /// A table recording the traced `FdAllocator`'s footprint (lines
    /// `{label}.fd_bitmap` and `{label}.fd_partition[c]`) — the §1 example's
    /// contention, observable on real threads.
    pub fn instrumented(
        cores: usize,
        partition: usize,
        mode: FdMode,
        sink: &Arc<HostTraceSink>,
        label: &str,
    ) -> Self {
        let cores = cores.max(1);
        let names = label.to_string();
        HostFdAllocator {
            probes: Some(FdProbes {
                shared: sink.probe(format!("{label}.fd_bitmap")),
                per_core: sink.probe_block(cores, move |c| format!("{names}.fd_partition[{c}]")),
            }),
            ..Self::new(cores, partition, mode)
        }
    }

    /// The allocation policy in force.
    pub fn mode(&self) -> FdMode {
        self.mode
    }

    /// Total descriptor capacity.
    pub fn capacity(&self) -> usize {
        self.per_core.len() * self.partition
    }

    /// Allocates a descriptor on behalf of `core`. Returns `None` when the
    /// table (or, in `Any` mode, the core's partition) is exhausted.
    pub fn alloc(&self, core: usize) -> Option<u32> {
        match self.mode {
            FdMode::Lowest => {
                if let Some(p) = &self.probes {
                    p.shared.rmw();
                }
                let mut bitmap = self.shared.lock();
                let slot = bitmap.iter().position(|used| !used)?;
                bitmap[slot] = true;
                Some(slot as u32)
            }
            FdMode::Any => {
                let core = core % self.per_core.len();
                if let Some(p) = &self.probes {
                    p.per_core.at(core).rmw();
                }
                let mut bitmap = self.per_core[core].lock();
                let slot = bitmap.iter().position(|used| !used)?;
                bitmap[slot] = true;
                Some((core * self.partition + slot) as u32)
            }
        }
    }

    /// Releases a descriptor. Returns `false` if it was not allocated.
    pub fn free(&self, fd: u32) -> bool {
        let fd = fd as usize;
        if fd >= self.capacity() {
            return false;
        }
        match self.mode {
            FdMode::Lowest => {
                if let Some(p) = &self.probes {
                    p.shared.rmw();
                }
                let mut bitmap = self.shared.lock();
                let was = bitmap[fd];
                bitmap[fd] = false;
                was
            }
            FdMode::Any => {
                let core = fd / self.partition;
                if let Some(p) = &self.probes {
                    p.per_core.at(core).rmw();
                }
                let mut bitmap = self.per_core[core].lock();
                let slot = fd % self.partition;
                let was = bitmap[slot];
                bitmap[slot] = false;
                was
            }
        }
    }

    /// Number of allocated descriptors.
    pub fn allocated(&self) -> usize {
        match self.mode {
            FdMode::Lowest => self.shared.lock().iter().filter(|u| **u).count(),
            FdMode::Any => self
                .per_core
                .iter()
                .map(|c| c.lock().iter().filter(|u| **u).count())
                .sum(),
        }
    }
}

/// Host twin of [`crate::HashDir`]: a string-keyed hash map with one
/// reader-writer lock per cache-padded stripe, using the **same FNV-1a
/// hash** as the traced directory so bucket placement (and therefore the
/// "barring hash collisions" caveat) is identical between the simulated and
/// host kernels.
///
/// A stripe is three things: a lock, one logical cache line (the
/// `bucket[b].entries` probe) and a hash table of the names FNV-1a placed
/// there. Every operation costs O(1) expected work whatever the stripe
/// holds — ScaleFS's directories are hash tables (§6.3), so two kernels
/// built on this type differ in how many stripes they *share*, not in how
/// long a lookup walks. The table is private to its stripe and lives behind
/// the stripe's lock, so how it stores its entries is invisible to the
/// traced footprint: a lookup is one read of the entries line and an update
/// one read-modify-write of it, exactly what the traced `HashDir` records
/// for a bucket.
#[derive(Debug)]
pub struct StripedHashDir<V> {
    stripes: Vec<Stripe<V>>,
    probes: Option<DirProbes>,
}

/// The names of one stripe. All of them share `fnv1a(name) % stripes` (the
/// low nine bits at 512 stripes), so the table hashes the name again with
/// its own hasher instead of reusing the FNV value. An empty table owns no
/// heap memory.
type Entries<V> = HashMap<String, V>;

/// One cache-padded, independently locked stripe of entries.
type Stripe<V> = CachePadded<RwLock<Entries<V>>>;

/// Probe lines of an instrumented [`StripedHashDir`], mirroring the traced
/// `HashDir`'s layout: one lock-word line and one entries line per bucket,
/// allocated as one block in the traced order (`bucket[b].lock` is line
/// `2b`, `bucket[b].entries` line `2b + 1`).
#[derive(Debug)]
pub struct DirProbes(ProbeBlock);

/// One stripe's two lines, borrowed from its directory's [`DirProbes`].
#[derive(Clone, Copy)]
struct DirStripeProbes<'a> {
    lock: ProbeRef<'a>,
    entries: ProbeRef<'a>,
}

impl DirProbes {
    fn new(sink: &Arc<HostTraceSink>, label: &str, stripes: usize) -> Self {
        let label = label.to_string();
        DirProbes(sink.probe_block(2 * stripes, move |i| {
            let line = ["lock", "entries"][i % 2];
            format!("{label}.bucket[{}].{line}", i / 2)
        }))
    }

    fn stripe(&self, stripe: usize) -> DirStripeProbes<'_> {
        DirStripeProbes {
            lock: self.0.at(2 * stripe),
            entries: self.0.at(2 * stripe + 1),
        }
    }
}

/// Inserts or replaces `key`, allocating the owned name only for a new entry.
fn upsert_entry<V>(entries: &mut Entries<V>, key: &str, value: V) {
    match entries.get_mut(key) {
        Some(slot) => *slot = value,
        None => {
            entries.insert(key.to_string(), value);
        }
    }
}

impl<V: Clone> StripedHashDir<V> {
    /// Allocates a directory with `stripes` lock stripes.
    pub fn new(stripes: usize) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        StripedHashDir {
            stripes: (0..stripes)
                .map(|_| CachePadded::new(RwLock::new(Entries::new())))
                .collect(),
            probes: None,
        }
    }

    /// A directory recording the traced `HashDir`'s footprint (lines
    /// `{label}.bucket[b].lock` and `{label}.bucket[b].entries`).
    pub fn instrumented(stripes: usize, sink: &Arc<HostTraceSink>, label: &str) -> Self {
        StripedHashDir {
            probes: Some(DirProbes::new(sink, label, stripes)),
            ..Self::new(stripes)
        }
    }

    fn stripe_probes(&self, stripe: usize) -> Option<DirStripeProbes<'_>> {
        self.probes.as_ref().map(|p| p.stripe(stripe))
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe index a key maps to — the same FNV-1a hash as the traced
    /// [`crate::HashDir`], so bucket placement (and the "barring hash
    /// collisions" caveat) is identical between the simulated and host
    /// kernels.
    pub fn stripe_of(&self, key: &str) -> usize {
        (crate::hash_dir::fnv1a(key) % self.stripes.len() as u64) as usize
    }

    /// Looks up a key (shared lock on the key's stripe only; the footprint
    /// is one read of the bucket's entries line, as in `HashDir::get`).
    pub fn get(&self, key: &str) -> Option<V> {
        let si = self.stripe_of(key);
        if let Some(p) = self.stripe_probes(si) {
            p.entries.read();
        }
        self.stripes[si].read().get(key).cloned()
    }

    /// Does the key exist?
    pub fn contains(&self, key: &str) -> bool {
        let si = self.stripe_of(key);
        if let Some(p) = self.stripe_probes(si) {
            p.entries.read();
        }
        self.stripes[si].read().contains_key(key)
    }

    /// Inserts a key if absent. Returns `true` if inserted, `false` if the
    /// key already existed.
    pub fn insert_if_absent(&self, key: &str, value: V) -> bool {
        // Optimistic read-only probe before the exclusive lock ("precede
        // pessimism with optimism"), as in the traced variant: a failed
        // insert of an existing name stays read-only.
        if self.contains(key) {
            return false;
        }
        self.insert_if_absent_pessimistic(key, value)
    }

    /// [`Self::insert_if_absent`] without the optimistic read-only stage —
    /// for callers that already performed their own existence check (e.g.
    /// `link`'s read-only EEXIST path, which must precede its counter
    /// increment): the caller's check plus this call together record
    /// exactly the traced `HashDir::insert_if_absent` footprint.
    pub fn insert_if_absent_pessimistic(&self, key: &str, value: V) -> bool {
        let si = self.stripe_of(key);
        let probes = self.stripe_probes(si);
        if let Some(p) = probes {
            p.lock.acquire();
            p.entries.read();
        }
        let mut entries = self.stripes[si].write();
        let inserted = if entries.contains_key(key) {
            false
        } else {
            if let Some(p) = probes {
                p.entries.rmw();
            }
            entries.insert(key.to_string(), value);
            true
        };
        drop(entries);
        if let Some(p) = probes {
            p.lock.release();
        }
        inserted
    }

    /// Unconditionally inserts or replaces a key's value.
    pub fn upsert(&self, key: &str, value: V) {
        let si = self.stripe_of(key);
        if let Some(p) = self.stripe_probes(si) {
            p.lock.acquire();
            p.entries.rmw();
        }
        upsert_entry(&mut self.stripes[si].write(), key, value);
        if let Some(p) = self.stripe_probes(si) {
            p.lock.release();
        }
    }

    /// Removes a key, returning its value if it was present (nothing is
    /// written when the key is absent — optimistic check first).
    pub fn remove(&self, key: &str) -> Option<V> {
        if !self.contains(key) {
            return None;
        }
        let si = self.stripe_of(key);
        let probes = self.stripe_probes(si);
        if let Some(p) = probes {
            p.lock.acquire();
            p.entries.rmw();
        }
        let out = self.stripes[si].write().remove(key);
        if let Some(p) = probes {
            p.lock.release();
        }
        out
    }

    /// Number of entries across all stripes.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// True when the directory holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` with the stripes of `key_a` and `key_b` exclusively locked
    /// (in canonical index order, so concurrent callers cannot deadlock;
    /// one lock when both keys share a stripe). The view routes operations
    /// on either key — and only those keys — to the right stripe, giving
    /// atomic multi-key updates such as rename.
    pub fn with_pair_locked<R>(
        &self,
        key_a: &str,
        key_b: &str,
        f: impl FnOnce(&mut LockedPair<'_, V>) -> R,
    ) -> R {
        let ia = self.stripe_of(key_a);
        let ib = self.stripe_of(key_b);
        let (lo, hi) = (ia.min(ib), ia.max(ib));
        let first = self.stripes[lo].write();
        let second = if hi != lo {
            Some(self.stripes[hi].write())
        } else {
            None
        };
        let mut pair = LockedPair {
            lo,
            hi,
            first,
            second,
            probes: self.probes.as_ref(),
        };
        f(&mut pair)
    }
}

/// Exclusive access to one or two stripes of a [`StripedHashDir`] — their
/// write guards, and so their hash tables — handed to
/// [`StripedHashDir::with_pair_locked`] callbacks.
///
/// The recorded footprint mirrors what the traced `HashDir` records for the
/// equivalent *unlocked* call sequence (`get`/`upsert`/`remove`), because
/// that is what the single-threaded simulated kernel executes: the pairwise
/// locking is a host-only concurrency-correctness measure, not a sharing
/// difference. As in the directory itself, each operation is one probe
/// sequence on the stripe's lines plus one O(1) table operation, so the
/// footprint does not depend on how many names the stripes hold.
pub struct LockedPair<'a, V> {
    lo: usize,
    hi: usize,
    first: parking_lot::RwLockWriteGuard<'a, Entries<V>>,
    second: Option<parking_lot::RwLockWriteGuard<'a, Entries<V>>>,
    probes: Option<&'a DirProbes>,
}

impl<'a, V: Clone> LockedPair<'a, V> {
    fn entries_for(&mut self, stripe: usize) -> &mut Entries<V> {
        if stripe == self.lo {
            &mut self.first
        } else {
            assert_eq!(stripe, self.hi, "key outside the locked stripes");
            self.second
                .as_mut()
                .expect("two distinct stripes were locked")
        }
    }

    fn probes_for(&self, stripe: usize) -> Option<DirStripeProbes<'a>> {
        self.probes.map(|p| p.stripe(stripe))
    }

    /// Looks up a key in the locked stripes.
    pub fn get(&mut self, key: &str, stripe: usize) -> Option<V> {
        if let Some(p) = self.probes_for(stripe) {
            p.entries.read();
        }
        self.entries_for(stripe).get(key).cloned()
    }

    /// Inserts or replaces a key in the locked stripes.
    pub fn upsert(&mut self, key: &str, stripe: usize, value: V) {
        if let Some(p) = self.probes_for(stripe) {
            p.lock.acquire();
            p.entries.rmw();
            p.lock.release();
        }
        upsert_entry(self.entries_for(stripe), key, value);
    }

    /// Removes a key from the locked stripes (read-only when absent, like
    /// `HashDir::remove`'s optimistic check).
    pub fn remove(&mut self, key: &str, stripe: usize) -> Option<V> {
        if let Some(p) = self.probes_for(stripe) {
            p.entries.read();
        }
        if !self.entries_for(stripe).contains_key(key) {
            return None;
        }
        if let Some(p) = self.probes_for(stripe) {
            p.lock.acquire();
            p.entries.rmw();
            p.lock.release();
        }
        self.entries_for(stripe).remove(key)
    }
}

/// Delivery discipline of a [`HostSocketTable`] socket — the host twin of
/// `scr_kernel::api::SocketOrder`, redeclared here to keep the dependency
/// direction (the kernel crate builds on this one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOrder {
    /// One FIFO queue shared by every core.
    Ordered,
    /// Per-core queues with receiver stealing; no delivery order promised.
    Unordered,
}

/// Errors of the host socket table, mapped onto errnos by the host kernel
/// exactly as the simulated `SocketTable` reports them (`EBADF`, `EAGAIN`).
/// The queues are unbounded, as in the simulated twin, so `send` has no
/// overflow error to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketError {
    /// The socket id does not name a socket.
    BadSocket,
    /// No message is available on any queue the receiver may take from.
    Empty,
}

/// One datagram socket over real locks.
enum HostSocket {
    /// A single FIFO queue shared by all cores.
    Ordered {
        queue: Mutex<VecDeque<Vec<u8>>>,
        probe: Option<Probe>,
    },
    /// Per-core queues; receivers drain their own queue first and then
    /// steal from others.
    Unordered {
        queues: Vec<CachePadded<Mutex<VecDeque<Vec<u8>>>>>,
        probes: Option<ProbeBlock>,
    },
}

/// Host twin of `scr_kernel::socket::SocketTable`: Unix-domain datagram
/// sockets in ordered (one shared queue) and unordered (per-core queues
/// with receiver stealing) flavours, over real mutexes (§4 "permit weak
/// ordering", §7.3).
///
/// Socket ids are dense from zero, like the simulated twin's, so an
/// instrumented table's probe labels (`socket[s].queue`,
/// `socket[s].queue[c]`) line up with the simulated cells without any
/// normalisation. The unordered `recv` holds a queue's lock across its
/// emptiness check and the pop, so a message observed pending cannot be
/// lost to a racing receiver — every datagram is delivered exactly once.
pub struct HostSocketTable {
    cores: usize,
    sink: Option<Arc<HostTraceSink>>,
    sockets: RwLock<Vec<Arc<HostSocket>>>,
}

impl HostSocketTable {
    /// An empty socket table for `cores` participating threads.
    pub fn new(cores: usize) -> Self {
        HostSocketTable {
            cores: cores.max(1),
            sink: None,
            sockets: RwLock::new(Vec::new()),
        }
    }

    /// A table recording the simulated `SocketTable`'s footprint: one
    /// `socket[s].queue` line per ordered socket, `socket[s].queue[c]`
    /// lines per unordered one.
    pub fn instrumented(cores: usize, sink: &Arc<HostTraceSink>) -> Self {
        HostSocketTable {
            sink: Some(Arc::clone(sink)),
            ..Self::new(cores)
        }
    }

    /// Creates a socket with the requested delivery discipline, returning
    /// its dense id. Creation touches no traced lines, like the simulated
    /// twin (whose cells are allocated, not accessed, here).
    pub fn create(&self, order: QueueOrder) -> usize {
        let mut sockets = self.sockets.write();
        let id = sockets.len();
        let socket = match order {
            QueueOrder::Ordered => HostSocket::Ordered {
                queue: Mutex::new(VecDeque::new()),
                probe: self
                    .sink
                    .as_ref()
                    .map(|sink| sink.probe(format!("socket[{id}].queue"))),
            },
            QueueOrder::Unordered => HostSocket::Unordered {
                queues: (0..self.cores)
                    .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
                    .collect(),
                probes: self.sink.as_ref().map(|sink| {
                    sink.probe_block(self.cores, move |c| format!("socket[{id}].queue[{c}]"))
                }),
            },
        };
        sockets.push(Arc::new(socket));
        id
    }

    fn socket(&self, sock: usize) -> Result<Arc<HostSocket>, SocketError> {
        self.sockets
            .read()
            .get(sock)
            .cloned()
            .ok_or(SocketError::BadSocket)
    }

    /// Sends a datagram on `sock` from `core` (never blocks; the queues
    /// are unbounded, as in the simulated twin).
    pub fn send(&self, core: usize, sock: usize, msg: &[u8]) -> Result<(), SocketError> {
        match &*self.socket(sock)? {
            HostSocket::Ordered { queue, probe } => {
                if let Some(p) = probe {
                    p.rmw();
                }
                queue.lock().push_back(msg.to_vec());
            }
            HostSocket::Unordered { queues, probes } => {
                let local = core % queues.len();
                if let Some(p) = probes {
                    p.at(local).rmw();
                }
                queues[local].lock().push_back(msg.to_vec());
            }
        }
        Ok(())
    }

    /// Receives a datagram from `sock` on `core`: the local queue first
    /// (conflict-free in the common case), then stealing from other cores.
    /// Returns [`SocketError::Empty`] only when every queue was observed
    /// empty — a receiver never starves while any core's queue holds a
    /// message it could see.
    pub fn recv(&self, core: usize, sock: usize) -> Result<Vec<u8>, SocketError> {
        match &*self.socket(sock)? {
            HostSocket::Ordered { queue, probe } => {
                // The simulated twin drains through `update`, recording a
                // read-modify-write even when the queue is empty.
                if let Some(p) = probe {
                    p.rmw();
                }
                queue.lock().pop_front().ok_or(SocketError::Empty)
            }
            HostSocket::Unordered { queues, probes } => {
                let local = core % queues.len();
                if let Some(p) = probes {
                    p.at(local).rmw();
                }
                if let Some(msg) = queues[local].lock().pop_front() {
                    return Ok(msg);
                }
                for (i, queue) in queues.iter().enumerate() {
                    if i == local {
                        continue;
                    }
                    // The emptiness check is recorded as a read (the
                    // simulated twin's optimistic probe); the lock is held
                    // across check and pop so an observed message cannot
                    // escape to a racing receiver.
                    let mut q = queue.lock();
                    if let Some(p) = probes {
                        p.at(i).read();
                    }
                    if let Some(msg) = q.pop_front() {
                        if let Some(p) = probes {
                            p.at(i).rmw();
                        }
                        return Ok(msg);
                    }
                }
                Err(SocketError::Empty)
            }
        }
    }

    /// Total queued messages on a socket (untraced; for tests).
    pub fn pending_untraced(&self, sock: usize) -> usize {
        match &*self.socket(sock).expect("socket exists") {
            HostSocket::Ordered { queue, .. } => queue.lock().len(),
            HostSocket::Unordered { queues, .. } => queues.iter().map(|q| q.lock().len()).sum(),
        }
    }

    /// Removes and returns every queued message (untraced; used by the
    /// conservation checks of the differential tests).
    pub fn drain_untraced(&self, sock: usize) -> Vec<Vec<u8>> {
        match &*self.socket(sock).expect("socket exists") {
            HostSocket::Ordered { queue, .. } => queue.lock().drain(..).collect(),
            HostSocket::Unordered { queues, .. } => queues
                .iter()
                .flat_map(|q| q.lock().drain(..).collect::<Vec<_>>())
                .collect(),
        }
    }
}

/// Segment size of a [`HostProcTable`] (slots per lazily allocated chunk).
const PROC_SEG_SIZE: usize = 512;
/// Maximum number of segments, bounding the table at 2 097 152 processes.
/// The mail workload spawns one short-lived helper per delivered message
/// and pids are never reused (matching the simulated kernels), so the
/// bound must absorb a full wide benchmark sweep; exceeding it is a
/// panic, not UB.
const PROC_SEGMENTS: usize = 4096;

/// One lazily allocated chunk of a [`HostProcTable`].
type ProcSegment<T> = Box<[OnceLock<T>]>;

/// Host twin of the kernels' process tables: a lock-free, append-only
/// indexable table.
///
/// The simulated kernels keep processes in an untraced `RefCell<Vec<…>>`;
/// the paper's point about `posix_spawn` is that process creation should
/// commute with everything that does not observe the new pid, so the host
/// table must not reintroduce a writer lock that every concurrent syscall's
/// pid lookup would bounce on. Lookups are wait-free reads of a lazily
/// allocated segment; `push_with` claims a dense pid with one `fetch_add`
/// and publishes the entry with a release store. Entries are never removed
/// ("zombie-reaped" processes keep their pid, with an emptied descriptor
/// table), matching the simulated kernels.
#[derive(Debug)]
pub struct HostProcTable<T> {
    segments: Box<[OnceLock<ProcSegment<T>>]>,
    next: AtomicUsize,
}

impl<T> Default for HostProcTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HostProcTable<T> {
    /// An empty table. No segment is allocated until first use.
    pub fn new() -> Self {
        HostProcTable {
            segments: (0..PROC_SEGMENTS)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next dense index, builds the entry with it (probe labels
    /// need the pid before construction), and publishes it. A concurrent
    /// `get` of the claimed index returns `None` until the entry is
    /// published — callers cannot observe the pid before `push_with`
    /// returns it, so only a guessed pid ever sees the gap.
    pub fn push_with(&self, build: impl FnOnce(usize) -> T) -> usize {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            idx < PROC_SEG_SIZE * PROC_SEGMENTS,
            "host process table exhausted"
        );
        let segment = self.segments[idx / PROC_SEG_SIZE].get_or_init(|| {
            (0..PROC_SEG_SIZE)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        if segment[idx % PROC_SEG_SIZE].set(build(idx)).is_err() {
            unreachable!("index {idx} claimed twice");
        }
        idx
    }

    /// Number of claimed indices (entries mid-construction included).
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Acquire)
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up an entry by index, wait-free. The table is append-only and
    /// a published entry never moves or is freed before the table itself,
    /// so the borrow lasts as long as the table's: a lookup writes nothing,
    /// not even a reference count shared by every thread using that index.
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.segments
            .get(idx / PROC_SEG_SIZE)?
            .get()?
            .get(idx % PROC_SEG_SIZE)?
            .get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_counter_counts() {
        let c = SharedCounter::new();
        c.add(3);
        c.add(-1);
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn per_core_counter_sums_across_shards() {
        let c = PerCoreCounter::new(4);
        for core in 0..4 {
            c.add(core, (core as i64) + 1);
        }
        assert_eq!(c.read(), 10);
        assert_eq!(c.shards(), 4);
    }

    #[test]
    fn per_core_refcount_reconciles() {
        let rc = PerCoreRefcount::new(4, 1);
        rc.inc(0);
        rc.inc(1);
        rc.dec(3);
        assert_eq!(rc.read_exact(), 2);
        assert_eq!(rc.flush(), 2);
        assert_eq!(rc.read_reconciled(), 2);
    }

    #[test]
    fn host_inode_allocator_matches_the_traced_numbering() {
        use crate::percore_alloc::InodeAllocator;
        use scr_mtrace::SimMachine;
        let m = SimMachine::new();
        let traced = InodeAllocator::new(&m, "t", 4);
        let host = HostInodeAllocator::new(4);
        for core in [0usize, 1, 0, 2, 3, 1, 0] {
            assert_eq!(traced.alloc(core), host.alloc(core));
        }
    }

    #[test]
    fn host_fd_allocator_lowest_and_any_modes() {
        let lowest = HostFdAllocator::new(2, 8, FdMode::Lowest);
        assert_eq!(lowest.alloc(0), Some(0));
        assert_eq!(lowest.alloc(1), Some(1));
        assert!(lowest.free(0));
        assert_eq!(lowest.alloc(1), Some(0), "lowest free fd must be reused");
        let any = HostFdAllocator::new(4, 8, FdMode::Any);
        let fd = any.alloc(2).unwrap();
        assert_eq!(fd as usize / 8, 2, "fd must come from core 2's partition");
        assert_eq!(any.allocated(), 1);
        assert!(any.free(fd));
        assert!(!any.free(99));
    }

    #[test]
    fn striped_dir_matches_traced_hash_and_semantics() {
        use crate::hash_dir::HashDir;
        use scr_mtrace::SimMachine;
        let m = SimMachine::new();
        let traced: HashDir<u64> = HashDir::new(&m, "d", 64);
        let host: StripedHashDir<u64> = StripedHashDir::new(64);
        for i in 0..32 {
            let key = format!("file-{i}");
            assert_eq!(traced.bucket_of(&key), host.stripe_of(&key));
        }
        assert!(host.insert_if_absent("a", 1));
        assert!(!host.insert_if_absent("a", 2));
        assert_eq!(host.get("a"), Some(1));
        assert!(host.contains("a"));
        host.upsert("a", 3);
        assert_eq!(host.get("a"), Some(3));
        assert_eq!(host.remove("a"), Some(3));
        assert_eq!(host.remove("a"), None);
        assert!(host.is_empty());
    }

    #[test]
    fn striped_dir_is_thread_safe() {
        let dir: Arc<StripedHashDir<u64>> = Arc::new(StripedHashDir::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let dir = Arc::clone(&dir);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let key = format!("t{t}-k{i}");
                        assert!(dir.insert_if_absent(&key, t * 1000 + i));
                        assert_eq!(dir.get(&key), Some(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(dir.len(), 400);
    }

    use scr_hostmtrace::{on_core, HostTraceSink};
    use scr_mtrace::{AccessKind, SimMachine};

    /// The (label, kind) sequence a closure records on the simulated
    /// machine.
    fn sim_footprint(m: &SimMachine, f: impl FnOnce()) -> Vec<(String, AccessKind)> {
        m.clear_trace();
        m.start_tracing();
        f();
        m.stop_tracing();
        m.accesses()
            .iter()
            .map(|a| (m.label_of(a.line), a.kind))
            .collect()
    }

    /// The (label, kind) sequence a closure records through host probes.
    fn host_footprint(sink: &Arc<HostTraceSink>, f: impl FnOnce()) -> Vec<(String, AccessKind)> {
        sink.begin_window();
        f();
        let report = sink.end_window();
        assert_eq!(report.dropped, 0);
        report
            .accesses
            .iter()
            .map(|a| (sink.label_of(a.line), a.kind))
            .collect()
    }

    /// Asserts a host twin records exactly the footprint its simulated
    /// counterpart records for the same operation.
    macro_rules! assert_mirrors {
        ($m:expr, $sink:expr, $sim:expr, $host:expr, $what:expr) => {
            assert_eq!(
                host_footprint($sink, $host),
                sim_footprint($m, $sim),
                "footprint mismatch for {}",
                $what
            );
        };
    }

    #[test]
    fn striped_dir_mirrors_the_traced_hash_dir_footprint() {
        use crate::hash_dir::HashDir;
        let m = SimMachine::new();
        let sink = HostTraceSink::new(2);
        let traced: HashDir<u64> = HashDir::new(&m, "d", 8);
        let host: StripedHashDir<u64> = StripedHashDir::instrumented(8, &sink, "d");
        traced.insert_if_absent("seed", 1);
        host.insert_if_absent("seed", 1);
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.get("seed");
            },
            || {
                host.get("seed");
            },
            "get hit"
        );
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.get("nope");
            },
            || {
                host.get("nope");
            },
            "get miss"
        );
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.contains("seed");
            },
            || {
                host.contains("seed");
            },
            "contains"
        );
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.insert_if_absent("fresh", 2);
            },
            || {
                host.insert_if_absent("fresh", 2);
            },
            "insert of a fresh key"
        );
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.insert_if_absent("seed", 9);
            },
            || {
                host.insert_if_absent("seed", 9);
            },
            "failed insert (must stay read-only)"
        );
        assert_mirrors!(
            &m,
            &sink,
            || traced.upsert("seed", 3),
            || host.upsert("seed", 3),
            "upsert existing"
        );
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.remove("seed");
            },
            || {
                host.remove("seed");
            },
            "remove existing"
        );
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.remove("seed");
            },
            || {
                host.remove("seed");
            },
            "remove missing (must stay read-only)"
        );
    }

    #[test]
    fn locked_pair_mirrors_the_unlocked_traced_sequence() {
        use crate::hash_dir::HashDir;
        let m = SimMachine::new();
        let sink = HostTraceSink::new(2);
        let traced: HashDir<u64> = HashDir::new(&m, "d", 8);
        let host: StripedHashDir<u64> = StripedHashDir::instrumented(8, &sink, "d");
        for dir_op in [("a", 1u64), ("b", 2u64)] {
            traced.insert_if_absent(dir_op.0, dir_op.1);
            host.insert_if_absent(dir_op.0, dir_op.1);
        }
        let sa = host.stripe_of("a");
        let sb = host.stripe_of("b");
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.get("a");
                traced.upsert("b", 7);
                traced.remove("a");
            },
            || {
                host.with_pair_locked("a", "b", |pair| {
                    pair.get("a", sa);
                    pair.upsert("b", sb, 7);
                    pair.remove("a", sa);
                });
            },
            "rename-style pairwise sequence"
        );
    }

    #[test]
    fn refcount_mirrors_the_refcache_footprint() {
        use crate::refcache::Refcache;
        let m = SimMachine::new();
        let sink = HostTraceSink::new(4);
        let traced = Refcache::new(&m, "inode[7].nlink", 4, 1);
        let host = PerCoreRefcount::instrumented(4, 1, &sink, "inode[7].nlink");
        assert_mirrors!(&m, &sink, || traced.inc(2), || host.inc(2), "inc");
        assert_mirrors!(&m, &sink, || traced.dec(3), || host.dec(3), "dec");
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.read_exact();
            },
            || {
                host.read_exact();
            },
            "read_exact"
        );
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.flush_epoch();
            },
            || {
                host.flush();
            },
            "flush"
        );
        // After the flush both values agree and a second flush writes no
        // delta lines (they are all zero).
        assert_eq!(traced.peek(), host.read_exact());
        assert_mirrors!(
            &m,
            &sink,
            || {
                traced.flush_epoch();
            },
            || {
                host.flush();
            },
            "flush with zero deltas"
        );
    }

    #[test]
    fn inode_allocator_mirrors_the_traced_footprint() {
        use crate::percore_alloc::InodeAllocator;
        let m = SimMachine::new();
        let sink = HostTraceSink::new(4);
        let traced = InodeAllocator::new(&m, "scalefs", 4);
        let host = HostInodeAllocator::instrumented(4, &sink, "scalefs");
        for core in [0usize, 1, 3] {
            assert_mirrors!(
                &m,
                &sink,
                || {
                    traced.alloc(core);
                },
                || {
                    host.alloc(core);
                },
                "inode alloc"
            );
        }
    }

    #[test]
    fn fd_allocator_mirrors_the_traced_footprint_in_both_modes() {
        use crate::percore_alloc::FdAllocator;
        let m = SimMachine::new();
        let sink = HostTraceSink::new(4);
        for mode in [FdMode::Lowest, FdMode::Any] {
            let traced = FdAllocator::new(&m, "p", 4, 8, mode);
            let host = HostFdAllocator::instrumented(4, 8, mode, &sink, "p");
            let (t_fd, h_fd) = (traced.alloc(2).unwrap(), host.alloc(2).unwrap());
            assert_eq!(t_fd, h_fd);
            assert_mirrors!(
                &m,
                &sink,
                || {
                    traced.alloc(1);
                },
                || {
                    host.alloc(1);
                },
                "fd alloc"
            );
            assert_mirrors!(
                &m,
                &sink,
                || {
                    traced.free(t_fd);
                },
                || {
                    host.free(h_fd);
                },
                "fd free"
            );
        }
    }

    #[test]
    fn lowest_fd_contention_is_observable_on_real_threads() {
        // The paper's §1 example, reproduced on the host monitor: two
        // threads allocating descriptors conflict on the shared lowest-FD
        // bitmap, and O_ANYFD partitions make the same workload
        // conflict-free.
        let sink = HostTraceSink::new(2);
        let lowest = HostFdAllocator::instrumented(2, 8, FdMode::Lowest, &sink, "proc0");
        let any = HostFdAllocator::instrumented(2, 8, FdMode::Any, &sink, "proc0-anyfd");
        let run = |alloc: &HostFdAllocator| {
            sink.begin_window();
            std::thread::scope(|s| {
                for core in 0..2 {
                    s.spawn(move || on_core(core, || alloc.alloc(core)));
                }
            });
            sink.end_window()
        };
        let contended = run(&lowest);
        assert!(!contended.is_conflict_free());
        assert_eq!(
            contended.conflicting_labels(),
            vec!["proc0.fd_bitmap".to_string()]
        );
        let scalable = run(&any);
        assert!(scalable.is_conflict_free(), "{scalable}");
    }

    #[test]
    fn probe_radix_fanout_matches_the_traced_radix_array() {
        assert_eq!(
            scr_hostmtrace::ProbeRadix::CAPACITY,
            crate::radix_array::RadixArray::<u8>::CAPACITY
        );
    }

    #[test]
    fn counters_are_thread_safe() {
        let shared = Arc::new(SharedCounter::new());
        let percore = Arc::new(PerCoreCounter::new(4));
        let mut handles = Vec::new();
        for t in 0..4 {
            let shared = Arc::clone(&shared);
            let percore = Arc::clone(&percore);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    shared.add(1);
                    percore.add(t, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.read(), 4000);
        assert_eq!(percore.read(), 4000);
    }

    /// xorshift64* — the same tiny deterministic generator the campaign
    /// uses; seeds are printed in assertions so failures reproduce.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn socket_table_basic_semantics_match_the_simulated_twin() {
        let table = HostSocketTable::new(4);
        let ordered = table.create(QueueOrder::Ordered);
        table.send(0, ordered, b"a").unwrap();
        table.send(1, ordered, b"b").unwrap();
        assert_eq!(table.recv(2, ordered).unwrap(), b"a", "FIFO preserved");
        assert_eq!(table.recv(2, ordered).unwrap(), b"b");
        assert_eq!(table.recv(2, ordered), Err(SocketError::Empty));
        let unordered = table.create(QueueOrder::Unordered);
        table.send(0, unordered, b"only").unwrap();
        assert_eq!(
            table.recv(1, unordered).unwrap(),
            b"only",
            "receiver must steal from core 0's queue"
        );
        assert_eq!(table.pending_untraced(unordered), 0);
        // Bad ids fail like the simulated twin's EBADF paths; the queues
        // are unbounded so send never reports overflow, as in the model.
        assert_eq!(table.send(0, 7, b"x"), Err(SocketError::BadSocket));
        assert_eq!(table.recv(0, 7), Err(SocketError::BadSocket));
    }

    #[test]
    fn unordered_sockets_deliver_exactly_once_under_seeded_contention() {
        // Seeded rounds of real-thread churn: senders pick target cores
        // from the seed, receivers race to drain. Every message must be
        // received exactly once — no loss, no duplication.
        for seed in [0x5ca1ab1eu64, 0xdecafbad, 7] {
            let cores = 4;
            let table = Arc::new(HostSocketTable::new(cores));
            let sock = table.create(QueueOrder::Unordered);
            let per_sender = 200u64;
            let total = cores as u64 * per_sender;
            let received = Arc::new(std::sync::Mutex::new(Vec::new()));
            let taken = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for t in 0..cores {
                    let table = Arc::clone(&table);
                    s.spawn(move || {
                        let mut state = seed ^ (t as u64).wrapping_mul(0x9E37);
                        for i in 0..per_sender {
                            let core = (xorshift(&mut state) % cores as u64) as usize;
                            let msg = format!("{t}-{i}");
                            table.send(core, sock, msg.as_bytes()).unwrap();
                        }
                    });
                }
                for r in 0..cores {
                    let table = Arc::clone(&table);
                    let received = Arc::clone(&received);
                    let taken = Arc::clone(&taken);
                    s.spawn(move || loop {
                        if taken.load(Ordering::Acquire) >= total {
                            break;
                        }
                        match table.recv(r, sock) {
                            Ok(msg) => {
                                taken.fetch_add(1, Ordering::AcqRel);
                                received.lock().unwrap().push(msg);
                            }
                            Err(SocketError::Empty) => std::thread::yield_now(),
                            Err(e) => panic!("seed {seed:#x}: unexpected {e:?}"),
                        }
                    });
                }
            });
            let mut got = Arc::try_unwrap(received).unwrap().into_inner().unwrap();
            got.sort();
            let mut want: Vec<Vec<u8>> = (0..cores)
                .flat_map(|t| (0..per_sender).map(move |i| format!("{t}-{i}").into_bytes()))
                .collect();
            want.sort();
            assert_eq!(
                got.len() as u64,
                total,
                "seed {seed:#x}: lost or duplicated"
            );
            assert_eq!(got, want, "seed {seed:#x}: corpus mismatch");
            assert_eq!(table.pending_untraced(sock), 0);
        }
    }

    #[test]
    fn no_receiver_starves_while_another_cores_queue_is_nonempty() {
        // Every message lands in core 0's queue; receivers run only on
        // cores 1..4. If stealing ever skipped a non-empty remote queue,
        // this would spin forever (the test would time out) or lose
        // messages.
        let cores = 4;
        let table = Arc::new(HostSocketTable::new(cores));
        let sock = table.create(QueueOrder::Unordered);
        let total = 300u64;
        for i in 0..total {
            table.send(0, sock, format!("m{i}").as_bytes()).unwrap();
        }
        let taken = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for r in 1..cores {
                let table = Arc::clone(&table);
                let taken = Arc::clone(&taken);
                s.spawn(move || loop {
                    if taken.load(Ordering::Acquire) >= total {
                        break;
                    }
                    match table.recv(r, sock) {
                        Ok(_) => {
                            taken.fetch_add(1, Ordering::AcqRel);
                        }
                        Err(SocketError::Empty) => {
                            // Empty may only be reported when the queues
                            // really are empty — i.e. everything was taken.
                            assert!(
                                taken.load(Ordering::Acquire) + (cores as u64) >= total,
                                "starved with messages pending"
                            );
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::Acquire), total);
        assert_eq!(table.pending_untraced(sock), 0);
    }

    #[test]
    fn proc_table_is_dense_and_wait_free_to_read() {
        let table: HostProcTable<String> = HostProcTable::new();
        assert!(table.is_empty());
        let a = table.push_with(|pid| format!("proc-{pid}"));
        let b = table.push_with(|pid| format!("proc-{pid}"));
        assert_eq!((a, b), (0, 1));
        assert_eq!(table.get(0).unwrap(), "proc-0");
        assert_eq!(table.get(1).unwrap(), "proc-1");
        assert_eq!(table.get(2), None);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn proc_table_concurrent_pushes_assign_unique_dense_pids() {
        let table: HostProcTable<usize> = HostProcTable::new();
        let threads = 4;
        let per_thread = 200;
        let pids = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mine: Vec<usize> = (0..per_thread)
                        .map(|_| table.push_with(|pid| pid))
                        .collect();
                    pids.lock().unwrap().extend(mine);
                });
            }
        });
        let mut pids = pids.into_inner().unwrap();
        pids.sort_unstable();
        assert_eq!(pids, (0..threads * per_thread).collect::<Vec<_>>());
        for pid in pids {
            assert_eq!(*table.get(pid).unwrap(), pid, "entry stores its own pid");
        }
    }

    #[test]
    fn proc_table_entries_never_move() {
        // `get` lends `&T` for the table's lifetime, which is only sound to
        // rely on if growth never relocates a published entry: the borrow
        // taken before 10 000 further pushes from two threads (twenty new
        // segments) must still be the entry's address afterwards.
        let table: HostProcTable<usize> = HostProcTable::new();
        let first = table.push_with(|pid| pid);
        let before: &usize = table.get(first).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        table.push_with(|pid| pid);
                    }
                });
            }
        });
        assert_eq!(table.len(), 10_001);
        assert!(std::ptr::eq(before, table.get(first).unwrap()));
        assert_eq!(*before, first);
    }
}
