//! A hash table with per-bucket locks — the directory representation §1 and
//! §6.3 use to make creation of differently-named files conflict-free.
//!
//! A bucket is three things: a lock, two logical cache lines (its lock word
//! `bucket[b].lock` and its entries `bucket[b].entries`) and a hash table
//! of the names FNV-1a placed there. Operations on names that hash to
//! different buckets touch disjoint lines; operations on the same name (or
//! colliding names) share a bucket and conflict, which mirrors the "barring
//! hash collisions" caveat in the paper.
//!
//! Every operation costs O(1) expected work whatever the bucket holds —
//! ScaleFS's directories are hash tables — so two kernels built on this
//! type differ in how many buckets they *share*, not in how long a lookup
//! walks. The table is private to its bucket and lives behind the bucket's
//! lock, so how it stores its entries is invisible to the footprint: a
//! lookup is one read of the entries line, an update one read-modify-write
//! of it, inside an acquisition of the lock word.

use crate::block_of;
use crossbeam::utils::CachePadded;
use parking_lot::{RwLock, RwLockWriteGuard};
use scr_mtrace::{Block, Lines};
use scr_symbolic::Fnv64;
use std::collections::HashMap;
use std::fmt::Display;

/// The names of one bucket. All of them share `fnv1a(name) % buckets` (the
/// low nine bits at 512 buckets), so the table hashes the name again with
/// its own hasher instead of reusing the FNV value. An empty table owns no
/// heap memory.
type Entries<V> = HashMap<String, V>;

/// Line `2b` of a directory's block is bucket `b`'s lock word, line
/// `2b + 1` its entries.
fn lock_line(bucket: usize) -> usize {
    2 * bucket
}

fn entries_line(bucket: usize) -> usize {
    2 * bucket + 1
}

/// A string-keyed hash map with one lock and two lines per bucket.
#[derive(Debug)]
pub struct HashDir<V, L> {
    buckets: Vec<CachePadded<RwLock<Entries<V>>>>,
    lines: Option<Block<L>>,
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

impl<V: Clone, L: Lines + Clone> HashDir<V, L> {
    /// A directory with `buckets` buckets, its lines labelled
    /// `{label}.bucket[b].lock` and `{label}.bucket[b].entries`.
    pub fn new(lines: Option<&L>, label: impl Display, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        HashDir {
            buckets: (0..buckets)
                .map(|_| CachePadded::new(RwLock::new(Entries::new())))
                .collect(),
            lines: block_of(lines, label, 2 * buckets, |label, i| {
                let line = ["lock", "entries"][i % 2];
                format!("{label}.bucket[{}].{line}", i / 2)
            }),
        }
    }

    /// The bucket a key maps to: FNV-1a of the name, so placement (and the
    /// "barring hash collisions" caveat) is the same in every kernel built
    /// on this directory.
    pub fn bucket_of(&self, key: &str) -> usize {
        let mut h = Fnv64::default();
        h.bytes(key.as_bytes());
        (h.finish() % self.buckets.len() as u64) as usize
    }

    fn lookup_lines(&self, bucket: usize) {
        if let Some(lines) = &self.lines {
            lines.read(entries_line(bucket));
        }
    }

    /// Records the locked update of a bucket: acquire, read-modify-write
    /// the entries, release.
    fn update_lines(lines: Option<&Block<L>>, bucket: usize) {
        if let Some(lines) = lines {
            lines.acquire(lock_line(bucket));
            lines.rmw(entries_line(bucket));
            lines.release(lock_line(bucket));
        }
    }

    /// Looks up a key (shared lock on the key's bucket only; one read of
    /// its entries line).
    pub fn get(&self, key: &str) -> Option<V> {
        let b = self.bucket_of(key);
        self.lookup_lines(b);
        self.buckets[b].read().get(key).cloned()
    }

    /// Does the key exist? (Read-only, like ScaleFS's existence-only lookup
    /// used by `access(F_OK)`.)
    pub fn contains(&self, key: &str) -> bool {
        let b = self.bucket_of(key);
        self.lookup_lines(b);
        self.buckets[b].read().contains_key(key)
    }

    /// Inserts a key if absent. Returns `true` if inserted, `false` if the
    /// key already existed, in which case nothing is written: an optimistic
    /// read-only check precedes the lock ("precede pessimism with
    /// optimism").
    pub fn insert_if_absent(&self, key: &str, value: V) -> bool {
        if self.contains(key) {
            return false;
        }
        self.insert_if_absent_pessimistic(key, value)
    }

    /// [`Self::insert_if_absent`] without the optimistic stage — for
    /// callers that already made their own existence check (e.g. `link`'s
    /// read-only EEXIST path, which must precede its counter increment):
    /// the caller's check plus this call record exactly the footprint of
    /// `insert_if_absent`.
    pub fn insert_if_absent_pessimistic(&self, key: &str, value: V) -> bool {
        let b = self.bucket_of(key);
        let lines = self.lines.as_ref();
        if let Some(lines) = lines {
            lines.acquire(lock_line(b));
            lines.read(entries_line(b));
        }
        let mut entries = self.buckets[b].write();
        let inserted = !entries.contains_key(key);
        if inserted {
            if let Some(lines) = lines {
                lines.rmw(entries_line(b));
            }
            entries.insert(key.to_string(), value);
        }
        drop(entries);
        if let Some(lines) = lines {
            lines.release(lock_line(b));
        }
        inserted
    }

    /// Unconditionally inserts or replaces a key's value.
    pub fn upsert(&self, key: &str, value: V) {
        let b = self.bucket_of(key);
        Self::update_lines(self.lines.as_ref(), b);
        upsert_entry(&mut self.buckets[b].write(), key, value);
    }

    /// Removes a key, returning its value if it was present. When the key is
    /// absent nothing is written (optimistic check first).
    pub fn remove(&self, key: &str) -> Option<V> {
        if !self.contains(key) {
            return None;
        }
        let b = self.bucket_of(key);
        Self::update_lines(self.lines.as_ref(), b);
        self.buckets[b].write().remove(key)
    }

    /// Number of entries across all buckets (untraced).
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.read().len()).sum()
    }

    /// True when the directory holds no entries (untraced).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` with the buckets of `key_a` and `key_b` exclusively locked
    /// (in index order, so concurrent callers cannot deadlock; one lock
    /// when both keys share a bucket). The view routes operations on
    /// either key — and only those keys — to the right bucket, giving
    /// atomic multi-key updates such as rename.
    pub fn with_pair_locked<R>(
        &self,
        key_a: &str,
        key_b: &str,
        f: impl FnOnce(&mut LockedPair<'_, V, L>) -> R,
    ) -> R {
        let ia = self.bucket_of(key_a);
        let ib = self.bucket_of(key_b);
        let (lo, hi) = (ia.min(ib), ia.max(ib));
        let first = self.buckets[lo].write();
        let second = (hi != lo).then(|| self.buckets[hi].write());
        f(&mut LockedPair {
            lo,
            hi,
            first,
            second,
            lines: self.lines.as_ref(),
        })
    }
}

/// Exclusive access to one or two buckets of a [`HashDir`], handed to
/// [`HashDir::with_pair_locked`] callbacks.
///
/// The recorded footprint is what the directory records for the equivalent
/// *unlocked* call sequence (`get`/`upsert`/`remove`), because that is what
/// a single-threaded kernel executes: locking the pair is a concurrency
/// measure, not a sharing difference.
pub struct LockedPair<'a, V, L> {
    lo: usize,
    hi: usize,
    first: RwLockWriteGuard<'a, Entries<V>>,
    second: Option<RwLockWriteGuard<'a, Entries<V>>>,
    lines: Option<&'a Block<L>>,
}

impl<V: Clone, L: Lines + Clone> LockedPair<'_, V, L> {
    fn entries_for(&mut self, bucket: usize) -> &mut Entries<V> {
        if bucket == self.lo {
            &mut self.first
        } else {
            assert_eq!(bucket, self.hi, "key outside the locked buckets");
            self.second
                .as_mut()
                .expect("two distinct buckets were locked")
        }
    }

    fn lookup_lines(&self, bucket: usize) {
        if let Some(lines) = self.lines {
            lines.read(entries_line(bucket));
        }
    }

    /// Looks up a key in bucket `bucket` of the locked pair.
    pub fn get(&mut self, key: &str, bucket: usize) -> Option<V> {
        self.lookup_lines(bucket);
        self.entries_for(bucket).get(key).cloned()
    }

    /// Inserts or replaces a key in bucket `bucket` of the locked pair.
    pub fn upsert(&mut self, key: &str, bucket: usize, value: V) {
        HashDir::<V, L>::update_lines(self.lines, bucket);
        upsert_entry(self.entries_for(bucket), key, value);
    }

    /// Removes a key from bucket `bucket` of the locked pair (read-only when
    /// absent, like [`HashDir::remove`]'s optimistic check).
    pub fn remove(&mut self, key: &str, bucket: usize) -> Option<V> {
        self.lookup_lines(bucket);
        if !self.entries_for(bucket).contains_key(key) {
            return None;
        }
        HashDir::<V, L>::update_lines(self.lines, bucket);
        self.entries_for(bucket).remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::SimMachine;

    fn dir(m: &SimMachine, buckets: usize) -> HashDir<u64, SimMachine> {
        HashDir::new(Some(m), "shared_dir", buckets)
    }

    fn two_names_in_distinct_buckets(dir: &HashDir<u64, SimMachine>) -> (String, String) {
        let a = "file-a".to_string();
        (0..)
            .map(|i| format!("file-{i}"))
            .find(|c| dir.bucket_of(c) != dir.bucket_of(&a))
            .map(|b| (a, b))
            .expect("names in distinct buckets")
    }

    #[test]
    fn bucket_placement_is_fnv1a() {
        let m = SimMachine::new();
        let d = dir(&m, 512);
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(d.bucket_of("a"), (0xaf63_dc4c_8601_ec8c_u64 % 512) as usize);
    }

    #[test]
    fn creates_of_different_names_are_conflict_free() {
        // The motivating example of §1: creating differently-named files in
        // the same directory commutes and has a conflict-free implementation.
        let m = SimMachine::new();
        let d = dir(&m, 64);
        let (a, b) = two_names_in_distinct_buckets(&d);
        m.start_tracing();
        m.on_core(0, || assert!(d.insert_if_absent(&a, 1)));
        m.on_core(1, || assert!(d.insert_if_absent(&b, 2)));
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn creates_of_same_name_conflict() {
        let m = SimMachine::new();
        let d = dir(&m, 64);
        m.start_tracing();
        m.on_core(0, || d.insert_if_absent("same", 1));
        m.on_core(1, || d.insert_if_absent("same", 2));
        assert!(!m.conflict_report().is_conflict_free());
    }

    #[test]
    fn locked_pair_mirrors_the_unlocked_traced_sequence() {
        let m = SimMachine::new();
        let (unlocked, locked) = (dir(&m, 8), dir(&m, 8));
        for d in [&unlocked, &locked] {
            d.insert_if_absent("a", 1);
            d.insert_if_absent("b", 2);
        }
        let trace = |f: &dyn Fn()| {
            m.clear_trace();
            m.start_tracing();
            f();
            m.stop_tracing();
            m.accesses()
                .iter()
                .map(|a| (m.label_of(a.line), a.kind))
                .collect::<Vec<_>>()
        };
        let expect = trace(&|| {
            unlocked.get("a");
            unlocked.upsert("b", 7);
            unlocked.remove("a");
        });
        let (sa, sb) = (locked.bucket_of("a"), locked.bucket_of("b"));
        let got = trace(&|| {
            locked.with_pair_locked("a", "b", |pair| {
                pair.get("a", sa);
                pair.upsert("b", sb, 7);
                pair.remove("a", sa);
            })
        });
        assert_eq!(got, expect);
        assert_eq!((locked.get("b"), locked.len()), (Some(7), 1));
    }

    #[test]
    fn lookups_and_failed_inserts_of_existing_names_are_read_only() {
        let m = SimMachine::new();
        let d = dir(&m, 64);
        d.insert_if_absent("x", 1);
        m.start_tracing();
        m.on_core(0, || assert_eq!(d.get("x"), Some(1)));
        m.on_core(1, || assert!(!d.insert_if_absent("x", 9)));
        m.on_core(2, || assert_eq!(d.remove("missing"), None));
        assert!(m.conflict_report().is_conflict_free());
    }
}
