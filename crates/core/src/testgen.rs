//! TESTGEN: materialising commutativity conditions into concrete test cases
//! (§5.2).
//!
//! For every commutative case the analyzer found, TESTGEN enumerates
//! satisfying assignments of the case's condition, deduplicates them by
//! isomorphism signature (conflict coverage: what matters is which arguments
//! alias and which flags are set, not the specific integers), and converts
//! each representative assignment into a [`ConcreteTest`]: a setup script
//! that builds the initial state, plus the two commutative operations to run
//! on different cores. This is the analogue of the paper's model-specific
//! test code generator that emits C test cases (Figure 5).
//!
//! Some assignments cannot be faithfully constructed through the kernel API
//! alone (for example descriptor layouts that would require `dup2`, which is
//! outside the modelled interface). For those, the generator first asks the
//! solver for an **alternative completion**: the case's condition usually
//! leaves most state variables free, so another witness of the *same*
//! isomorphism class (same values on every variable the case constrains) is
//! often constructible even when the solver's arbitrary first choice is not
//! — e.g. Read∥Read over an empty pipe, where the first witness leaves the
//! write-end slot closed but a both-ends-open representative exists.
//!
//! A rejection is **final**, and no completion is searched for, when the
//! values every completion must keep already fail one of the table checks:
//! an `open`/`pipe` in a process whose descriptor slots those values hold
//! open (`fd-table-full`), or a `socket`/`fork`/`posix_spawn` whose socket
//! or child slots they all hold occupied (`socket-table-full`,
//! `child-table-full`). The other reasons (`pipe-layout`, `pipe-endpoints`,
//! `cross-process-pipe`, `unnamed-mapping`, ...) depend on variables the
//! case leaves free, so they search a bounded budget of completions, and
//! a representative is counted as skipped when that budget finds none. A
//! skip carries a structured [`SkipReason`] so coverage loss stays visible
//! instead of vanishing into a bare counter.
//!
//! Solving is organised for reuse: each case compiles one
//! [`CaseSolver`] shared between the initial enumeration and every round
//! of the repair loop, and both the enumerated solutions and the repair
//! outcomes are memoized in a process-global sharded cache behind
//! structural DAG fingerprints (see the solver-memoization section below),
//! so repeated sweeps over the same shapes — the host Figure 6 pipeline,
//! differential campaign rounds, parallel sweep workers — replay previous
//! solves byte-for-byte instead of re-searching.

use crate::analyzer::{default_domains, CommutativeCase};
use crate::shapes::PairShape;
use parking_lot::Mutex;
use scr_kernel::api::{
    Fd, MmapBacking, OpenFlags, Pid, Prot, SockId, SocketOrder, SysOp, Whence, PAGE_SIZE,
};
use scr_model::{CallKind, ModelConfig, SOCKET_CORES};
use scr_symbolic::{signature, Assignment, CaseSolver, Domains, Expr, Fnv64, Value, Var, VarId};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Base virtual page used for fixed-address mappings in generated tests.
const VM_BASE_PAGE: u64 = 64;

/// Upper bound the model's well-formedness assumptions place on
/// `pipe.nbytes` (see `SymState::unconstrained`); the materialiser rejects —
/// never clamps — values outside it.
const PIPE_NBYTES_BOUND: i64 = 2;

/// Solutions examined per re-solve round when hunting for a constructible
/// completion of a skipped representative.
const RESOLVE_LIMIT: usize = 96;

/// First pid assigned to a materialised child process: the driver creates
/// processes 0 and 1 up front, and both kernels number processes densely,
/// so setup-spawned children receive pids from here in spawn order.
pub const CHILD_BASE_PID: Pid = 2;

/// Socket id used for a model socket slot that does not exist. No test
/// creates anywhere near this many sockets, so operations on it fail with
/// EBADF like the model's `!exists` paths.
pub const BAD_SOCK_ID: SockId = 64;

/// Pid used for an unoccupied model child slot. No test creates anywhere
/// near this many processes, so `wait` on it fails with EINVAL like the
/// model's `!occupied` path.
pub const BAD_CHILD_PID: Pid = 99;

/// Why a satisfying assignment could not be materialised through the kernel
/// API even after re-solving for alternative completions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SkipReason {
    /// An inode with a positive link count that no name, descriptor or
    /// mapping reaches (the model's ENOSPC paths; the kernels have no fixed
    /// inode pool to exhaust).
    UnreachableInode,
    /// An operation under test must allocate a descriptor but the model's
    /// table is full (the EMFILE paths; the kernels' tables are larger).
    FdTableFull,
    /// Pipe descriptors laid out in a pattern `pipe()` (plus closing one
    /// end) cannot produce — e.g. a write end below its read end, which
    /// would need `dup2`.
    PipeLayout,
    /// The case constrains the pipe's endpoint counts to values no
    /// `pipe()`-derived layout produces (e.g. two writers).
    PipeEndpoints,
    /// Pipe descriptors in more than one process, which would need
    /// `fork`-style descriptor inheritance outside the modelled interface.
    CrossProcessPipe,
    /// A file-backed mapping whose backing inode no name reaches, so no
    /// descriptor can be opened to map it.
    UnnamedMapping,
    /// A `socket` under test with every model socket slot occupied (the
    /// model's ENOSPC paths; the kernels have no fixed socket pool to
    /// exhaust).
    SocketTableFull,
    /// A `fork`/`posix_spawn` under test with every model child slot
    /// occupied (the model's EAGAIN paths; the kernels' process tables are
    /// unbounded).
    ChildTableFull,
    /// A child process holding pipe endpoints at descriptor numbers the
    /// single `pipe()`-derived layout cannot place there at spawn time.
    ChildFdOrphan,
    /// A solved value escaped its domain bounds. The state assumptions bound
    /// every variable, so this is defensive: it indicates a solver or model
    /// regression, not an unconstructible state.
    ValueOutOfDomain,
}

impl SkipReason {
    /// Every reason, for exhaustive reporting.
    pub const ALL: [SkipReason; 10] = [
        SkipReason::UnreachableInode,
        SkipReason::FdTableFull,
        SkipReason::PipeLayout,
        SkipReason::PipeEndpoints,
        SkipReason::CrossProcessPipe,
        SkipReason::UnnamedMapping,
        SkipReason::SocketTableFull,
        SkipReason::ChildTableFull,
        SkipReason::ChildFdOrphan,
        SkipReason::ValueOutOfDomain,
    ];

    /// A short, stable identifier (used in reports and CI baselines).
    pub fn name(&self) -> &'static str {
        match self {
            SkipReason::UnreachableInode => "unreachable-inode",
            SkipReason::FdTableFull => "fd-table-full",
            SkipReason::PipeLayout => "pipe-layout",
            SkipReason::PipeEndpoints => "pipe-endpoints",
            SkipReason::CrossProcessPipe => "cross-process-pipe",
            SkipReason::UnnamedMapping => "unnamed-mapping",
            SkipReason::SocketTableFull => "socket-table-full",
            SkipReason::ChildTableFull => "child-table-full",
            SkipReason::ChildFdOrphan => "child-fd-orphan",
            SkipReason::ValueOutOfDomain => "value-out-of-domain",
        }
    }

    /// Parses the identifier produced by [`SkipReason::name`].
    pub fn parse(name: &str) -> Option<SkipReason> {
        SkipReason::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-reason counts of skipped representatives.
pub type SkipHistogram = BTreeMap<SkipReason, usize>;

// --- solver memoization --------------------------------------------------
//
// The pipeline solves the same conditions repeatedly: the simulated run and
// the host Figure 6 run analyse the same shapes, and differential campaigns
// regenerate corpora per round. Both caches below are *transparent* — keys
// capture every input of the deterministic computation they memoize
// (structural DAG fingerprints include variable ids), so a hit replays
// exactly what a cold solve would produce and the generated corpus is
// byte-for-byte identical either way. Expressions are `Rc`-based and never
// cross threads; only fingerprints and concrete `Assignment`s (plain value
// data) enter the cache, so the cache itself is a process-global sharded
// map: sweep workers on different threads share warm entries instead of
// each paying a cold solve.

/// Total entry cap per cache layer (solutions and completions each),
/// spread across the shards. Beyond a shard's slice of the cap, insertion
/// evicts the coldest resident entry (second-chance order) rather than
/// refusing new keys — a long sweep keeps its working set warm instead of
/// silently degrading to cold solves.
const SOLVER_CACHE_CAP: usize = 8192;

/// Shard count; keys route by their structural fingerprint, so contention
/// between sweep workers is spread uniformly.
const SOLVER_CACHE_SHARDS: usize = 16;

/// Counters exposed for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverCacheStats {
    /// Solution-enumeration queries served from the cache.
    pub solution_hits: usize,
    /// Solution-enumeration queries that ran the solver.
    pub solution_misses: usize,
    /// Repair-loop (re-solve) outcomes served from the cache.
    pub completion_hits: usize,
    /// Repair-loop outcomes that ran the solve-and-repair search.
    pub completion_misses: usize,
    /// Resident entries displaced to admit new ones once a shard reached
    /// its slice of `SOLVER_CACHE_CAP`.
    pub evictions: usize,
    /// Rejected representatives given up without a search (or a cache
    /// lookup): their pinned values alone fail a table check.
    pub repairs_decided: usize,
}

impl SolverCacheStats {
    fn merge(&mut self, other: &SolverCacheStats) {
        self.solution_hits += other.solution_hits;
        self.solution_misses += other.solution_misses;
        self.completion_hits += other.completion_hits;
        self.completion_misses += other.completion_misses;
        self.evictions += other.evictions;
        self.repairs_decided += other.repairs_decided;
    }
}

/// Key of a memoized repair-loop outcome: the full semantic input of
/// [`search_completion`] minus the test identifier (which only labels
/// the rebuilt test) and the name table (constructibility never depends on
/// concrete file names).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CompletionKey {
    /// DAG fingerprint over condition ∥ path condition ∥ commute
    /// expression.
    case: u128,
    /// Fingerprint of the case's variable list (ids, names, sorts).
    variables: u64,
    /// Fingerprint of the shape (calls, slots) and model bounds.
    shape: u64,
    /// The pinned assignment, in variable-id order.
    pinned: Vec<(VarId, Value)>,
    /// The first observed rejection, which seeds the vary-target rounds.
    reason: SkipReason,
}

/// A cached value plus its second-chance reference bit.
struct CacheEntry<T> {
    value: T,
    hot: bool,
}

/// Inserts `value` under `key`, evicting cold residents (second-chance /
/// clock order over `ring`) once the shard holds `cap` entries. Re-inserts
/// of a resident key replace its value in place without growing the ring.
/// Returns the number of entries evicted.
fn admit<K: Clone + Eq + std::hash::Hash, T>(
    map: &mut HashMap<K, CacheEntry<T>>,
    ring: &mut VecDeque<K>,
    cap: usize,
    key: K,
    value: T,
) -> usize {
    if let Some(entry) = map.get_mut(&key) {
        entry.value = value;
        entry.hot = true;
        return 0;
    }
    let mut evicted = 0;
    while map.len() >= cap {
        // Each pop either clears a hot bit or evicts, so this terminates
        // within two passes over the ring.
        let Some(victim) = ring.pop_front() else {
            break;
        };
        match map.get_mut(&victim) {
            Some(entry) if entry.hot => {
                entry.hot = false;
                ring.push_back(victim);
            }
            Some(_) => {
                map.remove(&victim);
                evicted += 1;
            }
            None => {}
        }
    }
    ring.push_back(key.clone());
    map.insert(key, CacheEntry { value, hot: false });
    evicted
}

/// The stored value of a solutions-cache entry: the limit the enumeration
/// was requested with, plus the solutions found under it.
type SolutionEntry = CacheEntry<(usize, Vec<Assignment>)>;

#[derive(Default)]
struct CacheShard {
    /// (condition fp, domains fp) → (requested limit, solutions). A stored
    /// enumeration serves any request for the same or a shorter prefix
    /// (enumeration order is deterministic), and any request at all once
    /// the enumeration is known exhausted.
    solutions: HashMap<(u128, u64), SolutionEntry>,
    solution_ring: VecDeque<(u128, u64)>,
    /// Memoized repair-loop outcomes: the constructible completion found,
    /// or `None` when the bounded search gave the representative up.
    completions: HashMap<CompletionKey, CacheEntry<Option<Assignment>>>,
    completion_ring: VecDeque<CompletionKey>,
    stats: SolverCacheStats,
}

/// The process-global sharded solver cache. Values are plain concrete data
/// (fingerprints, `Assignment`s), so sharing them across sweep threads is
/// sound; a per-shard mutex keeps each access short and uncontended.
struct ShardedSolverCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Per-shard entry cap (per layer).
    shard_cap: usize,
    /// [`SolverCacheStats::repairs_decided`]: a decided repair has no key,
    /// so no shard sees it.
    repairs_decided: AtomicUsize,
}

impl ShardedSolverCache {
    fn new(total_cap: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        ShardedSolverCache {
            shards: (0..shard_count).map(|_| Mutex::default()).collect(),
            shard_cap: (total_cap / shard_count).max(4),
            repairs_decided: AtomicUsize::new(0),
        }
    }

    fn shard(&self, route: u64) -> &Mutex<CacheShard> {
        &self.shards[(route as usize) % self.shards.len()]
    }

    fn solution_route(key: &(u128, u64)) -> u64 {
        (key.0 as u64) ^ ((key.0 >> 64) as u64) ^ key.1
    }

    fn completion_route(key: &CompletionKey) -> u64 {
        (key.case as u64) ^ ((key.case >> 64) as u64) ^ key.variables ^ key.shape
    }

    /// Serves a solution enumeration from the cache, marking the entry hot.
    fn lookup_solution(&self, key: &(u128, u64), limit: usize) -> Option<Vec<Assignment>> {
        let mut shard = self.shard(Self::solution_route(key)).lock();
        let served = match shard.solutions.get_mut(key) {
            Some(entry) => {
                let (stored_limit, sols) = &entry.value;
                if limit <= *stored_limit || sols.len() < *stored_limit {
                    entry.hot = true;
                    Some(sols.iter().take(limit).cloned().collect::<Vec<_>>())
                } else {
                    None
                }
            }
            None => None,
        };
        if served.is_some() {
            shard.stats.solution_hits += 1;
        } else {
            shard.stats.solution_misses += 1;
        }
        served
    }

    /// Stores a solution enumeration; returns entries evicted to admit it.
    fn store_solution(&self, key: (u128, u64), limit: usize, sols: Vec<Assignment>) -> usize {
        let shard = &mut *self.shard(Self::solution_route(&key)).lock();
        let evicted = admit(
            &mut shard.solutions,
            &mut shard.solution_ring,
            self.shard_cap,
            key,
            (limit, sols),
        );
        shard.stats.evictions += evicted;
        evicted
    }

    fn lookup_completion(&self, key: &CompletionKey) -> Option<Option<Assignment>> {
        let mut shard = self.shard(Self::completion_route(key)).lock();
        let hit = match shard.completions.get_mut(key) {
            Some(entry) => {
                entry.hot = true;
                Some(entry.value.clone())
            }
            None => None,
        };
        if hit.is_some() {
            shard.stats.completion_hits += 1;
        } else {
            shard.stats.completion_misses += 1;
        }
        hit
    }

    fn store_completion(&self, key: CompletionKey, outcome: Option<Assignment>) -> usize {
        let shard = &mut *self.shard(Self::completion_route(&key)).lock();
        let evicted = admit(
            &mut shard.completions,
            &mut shard.completion_ring,
            self.shard_cap,
            key,
            outcome,
        );
        shard.stats.evictions += evicted;
        evicted
    }

    /// Sum of every shard's counters.
    fn merged_stats(&self) -> SolverCacheStats {
        let mut total = SolverCacheStats {
            repairs_decided: self.repairs_decided.load(Ordering::Relaxed),
            ..SolverCacheStats::default()
        };
        for shard in &self.shards {
            total.merge(&shard.lock().stats);
        }
        total
    }

    /// Clears every shard atomically: all shard locks are held before the
    /// first entry is dropped, so no concurrent worker can observe (or
    /// repopulate) a half-cleared cache.
    fn clear_all(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        for guard in &mut guards {
            **guard = CacheShard::default();
        }
        self.repairs_decided.store(0, Ordering::Relaxed);
    }
}

fn global_cache() -> &'static ShardedSolverCache {
    static CACHE: OnceLock<ShardedSolverCache> = OnceLock::new();
    CACHE.get_or_init(|| ShardedSolverCache::new(SOLVER_CACHE_CAP, SOLVER_CACHE_SHARDS))
}

thread_local! {
    /// This thread's share of the global counters. Sweep workers run whole
    /// work units, so per-pair cache deltas are attributed per thread here
    /// while the shards above keep the process-wide truth.
    static THREAD_CACHE_STATS: Cell<SolverCacheStats> = const { Cell::new(SolverCacheStats {
        solution_hits: 0,
        solution_misses: 0,
        completion_hits: 0,
        completion_misses: 0,
        evictions: 0,
        repairs_decided: 0,
    }) };
}

fn bump_thread_stats(f: impl FnOnce(&mut SolverCacheStats)) {
    THREAD_CACHE_STATS.with(|c| {
        let mut stats = c.get();
        f(&mut stats);
        c.set(stats);
    });
}

/// Process-wide cache counters, merged across shards.
pub fn solver_cache_stats() -> SolverCacheStats {
    global_cache().merged_stats()
}

/// Cache counters attributed to queries issued *by the calling thread*.
/// Sweep workers use deltas of these for per-pair `PairDone` events: a work
/// unit runs entirely on one thread, so the delta is exact even while other
/// workers hit the same shards.
pub fn solver_cache_thread_stats() -> SolverCacheStats {
    THREAD_CACHE_STATS.with(|c| c.get())
}

/// Drops every shard's memoized solutions and counters atomically (all
/// shard locks held across the clear), and zeroes the calling thread's
/// attribution counters.
pub fn solver_cache_clear() {
    global_cache().clear_all();
    THREAD_CACHE_STATS.with(|c| c.set(SolverCacheStats::default()));
}

/// Folds a string and a terminator, so adjacent strings cannot run
/// together.
fn fnv_str(h: &mut Fnv64, s: &str) {
    h.bytes(s.as_bytes());
    h.word(0xff);
}

/// Fingerprint of the shape (calls and slot assignments) plus the model
/// bounds — everything besides the assignment that decides a
/// [`materialize`] verdict and the repair loop's vary targets.
fn shape_cfg_fingerprint(calls: &[CallSpec<'_>], cfg: &ModelConfig) -> u64 {
    let mut h = Fnv64::default();
    for CallSpec { kind, slots, .. } in calls {
        fnv_str(&mut h, kind.name());
        h.word(slots.proc as u64);
        h.word(slots.core as u64);
        for group in [
            &slots.names,
            &slots.fds,
            &slots.vm_pages,
            &slots.socks,
            &slots.children,
        ] {
            h.word(group.len() as u64);
            for &s in group.iter() {
                h.word(s as u64);
            }
        }
    }
    for bound in [
        cfg.names,
        cfg.inodes,
        cfg.procs,
        cfg.fds_per_proc,
        cfg.file_pages,
        cfg.vm_pages,
        cfg.sockets,
        cfg.queue_cap,
        cfg.children,
    ] {
        h.word(bound as u64);
    }
    h.finish()
}

/// Fingerprint of a variable list (ids, names and sorts).
fn vars_fingerprint(vars: &[Var]) -> u64 {
    let mut h = Fnv64::default();
    for var in vars {
        h.word(var.id as u64);
        h.word(matches!(var.sort, scr_symbolic::Sort::Int) as u64);
        fnv_str(&mut h, var.name.as_ref());
    }
    h.finish()
}

/// Structural fingerprint of everything [`resolve_constructible`] reads
/// from a case (condition, path condition, commute expression).
fn case_fingerprint(case: &CommutativeCase) -> u128 {
    let exprs: Vec<scr_symbolic::ExprRef> = case
        .condition
        .iter()
        .chain(case.path_condition.iter())
        .chain(std::iter::once(&case.commute_expr))
        .cloned()
        .collect();
    Expr::dag_fingerprint(&exprs)
}

/// A per-case compiled solver, built on first use: a case whose
/// enumeration is served entirely from the cache never pays compilation.
pub(crate) struct LazyCaseSolver<'a> {
    condition: &'a [scr_symbolic::ExprRef],
    solver: Option<CaseSolver>,
}

impl<'a> LazyCaseSolver<'a> {
    pub(crate) fn new(condition: &'a [scr_symbolic::ExprRef]) -> Self {
        LazyCaseSolver {
            condition,
            solver: None,
        }
    }

    fn get(&mut self) -> &CaseSolver {
        self.solver
            .get_or_insert_with(|| CaseSolver::new(self.condition))
    }
}

/// Enumerates up to `limit` solutions of a case condition through the
/// sharded global cache. A stored enumeration with a higher limit serves
/// the prefix; one that exhausted the solution space serves any limit.
fn cached_all_solutions(
    solver: &mut LazyCaseSolver<'_>,
    condition_fp: u128,
    domains: &Domains,
    limit: usize,
) -> Vec<Assignment> {
    let key = (condition_fp, domains.fingerprint());
    if let Some(solutions) = global_cache().lookup_solution(&key, limit) {
        bump_thread_stats(|s| s.solution_hits += 1);
        return solutions;
    }
    bump_thread_stats(|s| s.solution_misses += 1);
    let solutions = solver.get().all_solutions(domains, limit);
    let evicted = global_cache().store_solution(key, limit, solutions.clone());
    if evicted > 0 {
        bump_thread_stats(|s| s.evictions += evicted);
    }
    solutions
}

/// A concrete, runnable test case.
#[derive(Clone, Debug)]
pub struct ConcreteTest {
    /// Unique identifier (calls, shape tag, case and assignment indices).
    pub id: String,
    /// The calls under test, one per operation (two for a pair, three for
    /// a triple).
    pub calls: Vec<CallKind>,
    /// Operations that build the initial state (run untraced), each
    /// annotated with the core it must run on. Almost everything runs on
    /// core 0; pre-loading an unordered socket's per-core queues requires
    /// `send`s from the owning core.
    pub setup: Vec<(usize, SysOp)>,
    /// The commutative operations; `ops[i]` runs on core `i`.
    pub ops: Vec<SysOp>,
    /// Number of processes the test uses (1 or 2).
    pub procs: usize,
}

/// The outcome of materialising one shape.
#[derive(Clone, Debug, Default)]
pub struct GeneratedTests {
    /// Successfully materialised tests.
    pub tests: Vec<ConcreteTest>,
    /// Representatives no completion within the re-solve budget could
    /// express through the kernel API.
    pub skipped: usize,
    /// Why each skipped representative was skipped (first failure observed;
    /// counts sum to `skipped`).
    pub skip_reasons: SkipHistogram,
    /// Representatives whose first witness was unconstructible but that were
    /// rescued by re-solving for an alternative completion.
    pub resolved: usize,
    /// Commutative cases that yielded no test.
    pub zero_test_cases: usize,
    /// Seconds spent on the cases counted in `zero_test_cases`.
    pub zero_test_seconds: f64,
}

/// A lookup table from variable names to solved values.
struct Solved<'a> {
    by_name: BTreeMap<&'a str, Value>,
}

impl<'a> Solved<'a> {
    fn new(vars: &'a [Var], assignment: &Assignment) -> Self {
        let mut by_name = BTreeMap::new();
        for var in vars {
            if let Some(value) = assignment.get(var.id) {
                by_name.insert(var.name.as_ref(), value);
            }
        }
        Solved { by_name }
    }

    fn bool(&self, name: &str) -> bool {
        self.by_name
            .get(name)
            .and_then(|v| v.as_bool())
            .unwrap_or(false)
    }

    fn int(&self, name: &str) -> i64 {
        self.by_name.get(name).and_then(|v| v.as_int()).unwrap_or(0)
    }
}

/// Default file names used for the model's name slots. The driver may remap
/// them (e.g. to names that hash to distinct directory buckets).
pub fn default_names() -> Vec<String> {
    (0..8).map(|i| format!("f{i}")).collect()
}

/// Generates concrete tests for one analysed shape.
///
/// `names` supplies the file name to use for each name slot; it must have at
/// least `cfg.names` entries. `max_per_case` bounds the number of
/// assignments enumerated per commutative case before isomorphism
/// deduplication.
pub fn generate_tests(
    shape: &PairShape,
    cases: &[CommutativeCase],
    cfg: &ModelConfig,
    names: &[String],
    max_per_case: usize,
) -> GeneratedTests {
    generate_tests_with(
        &pair_calls(shape),
        &shape.tag,
        cases,
        cfg,
        names,
        max_per_case,
        resolve_constructible,
    )
}

/// TESTGEN for one analysed shape of any number of calls (`calls`, in slot
/// order, tagged `tag`), with the repair loop as a parameter: pairs repair
/// through [`resolve_constructible`], triples do not repair at all, and
/// the tests hand every rejected representative to the unguarded
/// reference search as well.
pub(crate) fn generate_tests_with(
    calls: &[CallSpec<'_>],
    tag: &str,
    cases: &[CommutativeCase],
    cfg: &ModelConfig,
    names: &[String],
    max_per_case: usize,
    mut repair: impl FnMut(&Rejected<'_>, &mut LazyCaseSolver<'_>) -> Option<ConcreteTest>,
) -> GeneratedTests {
    let domains = default_domains();
    let mut out = GeneratedTests::default();
    let call_names: Vec<&str> = calls.iter().map(|spec| spec.kind.name()).collect();
    let call_names = call_names.join("_");
    for (case_idx, case) in cases.iter().enumerate() {
        let case_started = Instant::now();
        let tests_before = out.tests.len();
        // One compiled solver per case: the enumeration below and every
        // re-solve round of the repair loop share the flattening, variable
        // interning and constraint compilation.
        let condition_fp = Expr::dag_fingerprint(&case.condition);
        let mut solver = LazyCaseSolver::new(&case.condition);
        let mut solutions = cached_all_solutions(&mut solver, condition_fp, &domains, max_per_case);
        // Child-endpoint enrichment (§4 process pairs): the static
        // enumeration varies recently-created variables fastest, so within
        // the per-case cap the pipe endpoint counts stay frozen at their
        // first satisfying values while the child descriptor flags churn —
        // every enumerated child-holds-an-endpoint witness then has counts
        // the construction cannot produce. Pinning each child descriptor
        // to a pipe endpoint and varying only the counts (and the end's
        // direction) reaches the constructible combinations directly; the
        // signature dedup below keeps whichever classes are new.
        if calls.iter().any(|spec| spec.kind.uses_children()) && cfg.children > 0 {
            solutions.extend(child_endpoint_witnesses(&mut solver, case, cfg, &domains));
        }
        // Conflict coverage: deduplicate by isomorphism signature over the
        // variables the pair actually depends on.
        let relevant = relevant_vars(case);
        let groups = isomorphism_groups(&relevant);
        let exact = exact_vars(&relevant);
        let mut seen = BTreeSet::new();
        let mut rep_idx = 0;
        for assignment in solutions {
            let sig = signature(&assignment, &groups, &exact);
            if !seen.insert(sig) {
                continue;
            }
            let id = format!("{call_names}_{tag}_case{case_idx}_{rep_idx}");
            rep_idx += 1;
            match materialize(calls, case, &assignment, cfg, names, &relevant, &id) {
                Ok(test) => out.tests.push(test),
                Err(first_reason) => {
                    // Representative selection: the first witness is not
                    // constructible, but another completion of the same
                    // case (identical on every constrained variable, hence
                    // the same isomorphism signature) may be. Re-solve
                    // before giving the case up.
                    let rejected = Rejected {
                        calls,
                        case,
                        witness: &assignment,
                        cfg,
                        names,
                        relevant: &relevant,
                        domains: &domains,
                        id: &id,
                        first_reason,
                    };
                    match repair(&rejected, &mut solver) {
                        Some(test) => {
                            out.resolved += 1;
                            out.tests.push(test);
                        }
                        None => {
                            out.skipped += 1;
                            *out.skip_reasons.entry(first_reason).or_default() += 1;
                        }
                    }
                }
            }
        }
        if out.tests.len() == tests_before {
            out.zero_test_cases += 1;
            out.zero_test_seconds += case_started.elapsed().as_secs_f64();
        }
    }
    out
}

/// Witnesses in which a child process holds a pipe endpoint, for every
/// (child slot, descriptor slot) combination the configuration admits.
/// Each solve pins the slot's `occupied`/`inherit`/`is_pipe` flags true and
/// varies the end's direction plus the global endpoint counts, so the
/// counts-match-the-construction witnesses appear within a small limit
/// (2 directions × the count domains). Cases whose path condition excludes
/// the pinned flags (e.g. a `wait` EINVAL path over that child) simply
/// yield no solutions.
fn child_endpoint_witnesses(
    solver: &mut LazyCaseSolver<'_>,
    case: &CommutativeCase,
    cfg: &ModelConfig,
    domains: &Domains,
) -> Vec<Assignment> {
    const ENRICH_LIMIT: usize = 64;
    let by_name: BTreeMap<&str, &Var> = case
        .variables
        .iter()
        .map(|v| (v.name.as_ref(), v))
        .collect();
    let mut out = Vec::new();
    for c in 0..cfg.children {
        for k in 0..cfg.fds_per_proc {
            let pins = [
                format!("child{c}.occupied"),
                format!("child{c}.fd{k}.inherit"),
                format!("child{c}.fd{k}.is_pipe"),
            ];
            let Some(pin_vars) = pins
                .iter()
                .map(|n| by_name.get(n.as_str()).copied())
                .collect::<Option<Vec<&Var>>>()
            else {
                continue;
            };
            let mut pinned = Assignment::new();
            for v in pin_vars {
                pinned.set(v.id, Value::Bool(true));
            }
            let vary: Vec<Var> = [
                format!("child{c}.fd{k}.write_end"),
                "pipe.readers".to_string(),
                "pipe.writers".to_string(),
            ]
            .iter()
            .filter_map(|n| by_name.get(n.as_str()).map(|v| (*v).clone()))
            .collect();
            out.extend(
                solver
                    .get()
                    .solve_with_preference(domains, &pinned, &vary, ENRICH_LIMIT),
            );
        }
    }
    out
}

/// A representative whose first witness [`materialize`] rejected, with
/// everything the repair loop reads to hunt for another completion of it.
pub(crate) struct Rejected<'a> {
    calls: &'a [CallSpec<'a>],
    case: &'a CommutativeCase,
    witness: &'a Assignment,
    cfg: &'a ModelConfig,
    names: &'a [String],
    relevant: &'a [Var],
    domains: &'a Domains,
    id: &'a str,
    first_reason: SkipReason,
}

impl Rejected<'_> {
    /// The witness's values on every variable the case actually constrains
    /// (path condition, equality obligations, call arguments — the same
    /// set the isomorphism signature is computed over). Every completion
    /// the repair loop considers keeps them, so any alternative found is a
    /// representative of the *same* commutative case.
    fn pinned(&self) -> Assignment {
        let mut pinned = Assignment::new();
        for var in self.relevant {
            if let Some(value) = self.witness.get(var.id) {
                pinned.set(var.id, value);
            }
        }
        pinned
    }
}

/// Hunts for a constructible completion of a rejected representative,
/// unless its pinned values already decide that none exists.
fn resolve_constructible(
    rejected: &Rejected<'_>,
    solver: &mut LazyCaseSolver<'_>,
) -> Option<ConcreteTest> {
    let pinned = rejected.pinned();
    if decided_rejection(rejected, &pinned).is_some() {
        bump_thread_stats(|s| s.repairs_decided += 1);
        global_cache()
            .repairs_decided
            .fetch_add(1, Ordering::Relaxed);
        return None;
    }
    search_completion(rejected, &pinned, solver)
}

/// The table check that the pinned values alone fail, if any.
///
/// [`materialize`] runs the table checks on every completion, and
/// every completion agrees with `pinned`. When the pins already leave too
/// few free slots for an allocating call, every completion fails that check
/// or one before it, so the repair loop's answer is `None` and searching
/// for it is wasted work. Only the table checks are decided this way:
/// they read the few slot flags an exhaustion path (EMFILE, ENOSPC,
/// EAGAIN) branches on, while the layout checks read descriptor and
/// mapping flags the case usually leaves free.
fn decided_rejection(rejected: &Rejected<'_>, pinned: &Assignment) -> Option<SkipReason> {
    let values: BTreeMap<&str, Option<Value>> = rejected
        .case
        .variables
        .iter()
        .map(|v| (v.name.as_ref(), pinned.get(v.id)))
        .collect();
    let flag = |name: &str| match values.get(name) {
        Some(Some(value)) => Some(value.as_bool().unwrap_or(false)),
        Some(None) => None,
        // As `Solved` reads it: a variable the case lacks is false.
        None => Some(false),
    };
    TABLE_REASONS.into_iter().find(|&reason| {
        rejected
            .calls
            .iter()
            .any(|spec| table_full(reason, spec, rejected.cfg, &flag))
    })
}

/// The bounded solve-and-repair search behind [`resolve_constructible`].
///
/// The variables the observed [`SkipReason`] implicates are varied first;
/// if every completion of one round fails with a different reason, that
/// reason's variables are tried next.
///
/// The outcome is memoized per isomorphism class: the cache key is the
/// structural fingerprint of the case plus the pinned values — which are
/// exactly what the class's signature is computed from — so a later run
/// over the same shape (the host Figure 6 pipeline, a differential
/// campaign round) seeds from the previously solved completion instead of
/// re-searching, and a previously hopeless class is given up immediately.
/// A cache hit re-materializes the stored completion under the caller's
/// current name table and identifier; it cannot leak state across pairs
/// because the fingerprint covers the whole condition, variable list and
/// shape.
fn search_completion(
    rejected: &Rejected<'_>,
    pinned: &Assignment,
    solver: &mut LazyCaseSolver<'_>,
) -> Option<ConcreteTest> {
    let Rejected {
        calls,
        case,
        cfg,
        names,
        relevant,
        domains,
        id,
        first_reason,
        ..
    } = *rejected;
    // Mark rescued tests in their identifier so the driver's diagnostics
    // can tell first-witness tests from re-solved completions.
    let resolved_id = format!("{id}r");
    let build =
        |alt: &Assignment| materialize(calls, case, alt, cfg, names, relevant, &resolved_id);
    let key = CompletionKey {
        case: case_fingerprint(case),
        variables: vars_fingerprint(&case.variables),
        shape: shape_cfg_fingerprint(calls, cfg),
        pinned: pinned.iter().collect(),
        reason: first_reason,
    };
    let cached = global_cache().lookup_completion(&key);
    if cached.is_some() {
        bump_thread_stats(|s| s.completion_hits += 1);
    } else {
        bump_thread_stats(|s| s.completion_misses += 1);
    }
    if let Some(outcome) = cached {
        // Replay: the search is deterministic in the key, so the cached
        // completion is exactly what a cold solve would find (or `None` if
        // it would exhaust its budget). Materialization depends on the
        // name table, so it is re-run; its verdict does not, so a cached
        // completion cannot fail it.
        return outcome.and_then(|alt| build(&alt).ok());
    }
    let mut tried: BTreeSet<SkipReason> = BTreeSet::new();
    let mut reason = first_reason;
    let mut found: Option<(Assignment, ConcreteTest)> = None;
    'rounds: for _round in 0..3 {
        if !tried.insert(reason) {
            break;
        }
        // Only unpinned targets can vary. With none left the round has
        // nothing to steer toward and stops; that is a budget choice, not
        // a proof — `decided_rejection` is the proof, for the table checks.
        let vary: Vec<Var> = vary_targets(reason, calls, case, cfg)
            .into_iter()
            .filter(|v| pinned.get(v.id).is_none())
            .collect();
        if vary.is_empty() {
            break;
        }
        let mut next_reason = None;
        for alt in solver
            .get()
            .solve_with_preference(domains, pinned, &vary, RESOLVE_LIMIT)
        {
            match build(&alt) {
                Ok(test) => {
                    found = Some((alt, test));
                    break 'rounds;
                }
                Err(r) => {
                    if next_reason.is_none() && !tried.contains(&r) {
                        next_reason = Some(r);
                    }
                }
            }
        }
        reason = match next_reason {
            Some(r) => r,
            None => break,
        };
    }
    let evicted = global_cache().store_completion(key, found.as_ref().map(|(alt, _)| alt.clone()));
    if evicted > 0 {
        bump_thread_stats(|s| s.evictions += evicted);
    }
    found.map(|(_, test)| test)
}

/// The variables worth varying to escape a given rejection, in preference
/// order (first entries are cycled through soonest by the re-solver).
fn vary_targets(
    reason: SkipReason,
    calls: &[CallSpec<'_>],
    case: &CommutativeCase,
    cfg: &ModelConfig,
) -> Vec<Var> {
    let by_name: BTreeMap<&str, &Var> = case
        .variables
        .iter()
        .map(|v| (v.name.as_ref(), v))
        .collect();
    let mut targets = Vec::new();
    let mut push = |name: String| {
        if let Some(var) = by_name.get(name.as_str()) {
            targets.push((*var).clone());
        }
    };
    match reason {
        SkipReason::PipeLayout | SkipReason::PipeEndpoints | SkipReason::CrossProcessPipe => {
            // Descriptor-table layout flags: which slots are open, which are
            // pipe ends, and which direction each end faces.
            for p in 0..cfg.procs {
                for k in 0..cfg.fds_per_proc {
                    push(format!("p{p}.fd{k}.open"));
                    push(format!("p{p}.fd{k}.is_pipe"));
                    push(format!("p{p}.fd{k}.is_write_end"));
                }
            }
        }
        SkipReason::FdTableFull => {
            // Only the descriptor tables of the processes that must
            // allocate can unblock the rejection; another process's slots
            // are irrelevant background state.
            let mut procs: BTreeSet<usize> = BTreeSet::new();
            for CallSpec { kind, slots, .. } in calls {
                if matches!(kind, CallKind::Open | CallKind::Pipe) {
                    procs.insert(slots.proc);
                }
            }
            for p in procs {
                for k in 0..cfg.fds_per_proc {
                    push(format!("p{p}.fd{k}.open"));
                    push(format!("p{p}.fd{k}.is_pipe"));
                    push(format!("p{p}.fd{k}.is_write_end"));
                }
            }
        }
        SkipReason::UnreachableInode => {
            // Either drop the stray inode's link count to zero or give it a
            // name to be created through.
            for j in 0..cfg.inodes {
                push(format!("inode{j}.nlink"));
            }
            for n in 0..cfg.names {
                push(format!("name{n}.exists"));
                push(format!("name{n}.ino"));
            }
        }
        SkipReason::UnnamedMapping => {
            // Either give the backing inode a name or make the mapping
            // anonymous / unmapped.
            for n in 0..cfg.names {
                push(format!("name{n}.exists"));
                push(format!("name{n}.ino"));
            }
            for p in 0..cfg.procs {
                for v in 0..cfg.vm_pages {
                    push(format!("p{p}.vm{v}.anon"));
                    push(format!("p{p}.vm{v}.mapped"));
                }
            }
        }
        SkipReason::SocketTableFull => {
            // A free socket slot unblocks the rejection.
            for s in 0..cfg.sockets {
                push(format!("sock{s}.exists"));
            }
        }
        SkipReason::ChildTableFull => {
            // A free child slot unblocks the rejection.
            for c in 0..cfg.children {
                push(format!("child{c}.occupied"));
            }
        }
        SkipReason::ChildFdOrphan => {
            // Either move/drop the child's stray pipe endpoints or change
            // the parent's pipe layout so the spawn-time table matches.
            for c in 0..cfg.children {
                for k in 0..cfg.fds_per_proc {
                    push(format!("child{c}.fd{k}.inherit"));
                    push(format!("child{c}.fd{k}.is_pipe"));
                    push(format!("child{c}.fd{k}.write_end"));
                }
            }
            for p in 0..cfg.procs {
                for k in 0..cfg.fds_per_proc {
                    push(format!("p{p}.fd{k}.open"));
                    push(format!("p{p}.fd{k}.is_pipe"));
                    push(format!("p{p}.fd{k}.is_write_end"));
                }
            }
        }
        // Defensive reason: no completion strategy applies.
        SkipReason::ValueOutOfDomain => {}
    }
    targets
}

/// The variables that matter for conflict coverage: those the pair's branch
/// decisions or equality obligations actually constrain, plus the calls'
/// argument variables. Everything else (unconstrained background state) is
/// irrelevant to which code paths and access patterns a test exercises.
fn relevant_vars(case: &CommutativeCase) -> Vec<Var> {
    let mut relevant: BTreeMap<VarId, Var> = BTreeMap::new();
    for c in &case.path_condition {
        relevant.extend(scr_symbolic::Expr::free_vars(c));
    }
    relevant.extend(scr_symbolic::Expr::free_vars(&case.commute_expr));
    for var in &case.variables {
        let name = var.name.as_ref();
        if name.starts_with("argA.") || name.starts_with("argB.") || name.starts_with("argC.") {
            relevant.insert(var.id, var.clone());
        }
    }
    relevant.into_values().collect()
}

/// Variables whose values only matter up to equality (inode indices and
/// content fingerprints — including socket message payloads, which are
/// fungible identities), grouped for the isomorphism signature.
fn isomorphism_groups(vars: &[Var]) -> Vec<Vec<VarId>> {
    let mut ino_group = Vec::new();
    let mut content_group = Vec::new();
    for var in vars {
        let name = var.name.as_ref();
        if name.ends_with(".ino") {
            ino_group.push(var.id);
        } else if name.contains(".page")
            || name.ends_with(".value")
            || name.ends_with(".byte")
            || name.contains(".msg")
        {
            content_group.push(var.id);
        }
    }
    vec![ino_group, content_group]
}

/// Variables whose concrete value matters for the test's behaviour. Oracle
/// variables (nondeterministic inode/socket-slot/child-slot/message
/// choices) are excluded: which free slot or queued message the
/// specification picked is not part of the access pattern a test exercises.
fn exact_vars(vars: &[Var]) -> Vec<VarId> {
    vars.iter()
        .filter(|v| {
            let name = v.name.as_ref();
            !(name.ends_with(".ino")
                || name.contains(".page")
                || name.ends_with(".value")
                || name.ends_with(".byte")
                || name.contains(".msg")
                || name.contains("oracle"))
        })
        .map(|v| v.id)
        .collect()
}

/// Reads a solved integer that the model's well-formedness assumptions
/// bound to `0..=hi`. The materialiser must never *clamp* such a value — a
/// silently altered assignment builds a different state than the one
/// analysed — so out-of-range values are rejected instead, with a debug
/// assertion documenting that the solver domains already enforce the bound.
fn solved_bounded(solved: &Solved<'_>, name: &str, hi: i64) -> Result<i64, SkipReason> {
    let value = solved.int(name);
    debug_assert!(
        (0..=hi).contains(&value),
        "solver domains must bound {name} to 0..={hi}, got {value}"
    );
    if (0..=hi).contains(&value) {
        Ok(value)
    } else {
        Err(SkipReason::ValueOutOfDomain)
    }
}

/// How the single modelled pipe is realised through `pipe()`.
///
/// `pipe()` places the read end and the write end in the two lowest free
/// descriptor slots of one process, read end first; closing one of the
/// fresh ends afterwards produces the half-closed states (a lone read end
/// with `writers == 0`, or a lone write end with `readers == 0`). Anything
/// else — a write end below its read end, two ends of the same direction,
/// ends split across processes — would need `dup2` or `fork` and is
/// rejected with a structured reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PipePlan {
    /// No descriptor refers to the pipe; it is never created.
    Absent,
    /// Read end kept at `slot`, write end kept at `slot + 1`.
    BothEnds { proc: usize, slot: usize },
    /// Read end kept at `slot`; the transient write end at `slot + 1` is
    /// closed after pre-loading the buffered bytes (`writers == 0`).
    ReadOnly { proc: usize, slot: usize },
    /// Write end kept at `slot`; the transient read end at `slot - 1` is
    /// closed after pre-loading (`readers == 0`).
    WriteOnly { proc: usize, slot: usize },
}

impl PipePlan {
    /// The endpoint counts the plan constructs.
    fn endpoint_counts(&self) -> Option<(i64, i64)> {
        match self {
            PipePlan::Absent => None,
            PipePlan::BothEnds { .. } => Some((1, 1)),
            PipePlan::ReadOnly { .. } => Some((1, 0)),
            PipePlan::WriteOnly { .. } => Some((0, 1)),
        }
    }
}

/// Classifies the assignment's pipe descriptors into a constructible plan.
/// `child_ends` counts the (read, write) endpoints held by child processes,
/// which the constructed endpoint totals must include.
fn plan_pipe(
    solved: &Solved<'_>,
    cfg: &ModelConfig,
    used_procs: usize,
    relevant: &[Var],
    child_ends: (i64, i64),
) -> Result<PipePlan, SkipReason> {
    let mut ends: Vec<(usize, usize, bool)> = Vec::new();
    for p in 0..used_procs {
        for k in 0..cfg.fds_per_proc {
            if solved.bool(&format!("p{p}.fd{k}.open"))
                && solved.bool(&format!("p{p}.fd{k}.is_pipe"))
            {
                ends.push((p, k, solved.bool(&format!("p{p}.fd{k}.is_write_end"))));
            }
        }
    }
    let plan = match ends.as_slice() {
        [] => PipePlan::Absent,
        [(p, k, false)] => PipePlan::ReadOnly { proc: *p, slot: *k },
        // A lone write end needs the transient read end in the slot below
        // it; below slot 0 there is nothing, which would require dup2.
        [(_, 0, true)] => return Err(SkipReason::PipeLayout),
        [(p, k, true)] => PipePlan::WriteOnly { proc: *p, slot: *k },
        [(p1, k1, false), (p2, k2, true)] if p1 == p2 && *k2 == k1 + 1 => PipePlan::BothEnds {
            proc: *p1,
            slot: *k1,
        },
        _ => {
            // Ends of one direction duplicated, ends out of order, or ends
            // spread across processes.
            let procs: BTreeSet<usize> = ends.iter().map(|(p, _, _)| *p).collect();
            if procs.len() > 1 {
                return Err(SkipReason::CrossProcessPipe);
            }
            return Err(SkipReason::PipeLayout);
        }
    };
    // `pipe()` (plus closing one fresh end) pins the endpoint counts. When
    // the case actually constrains a count (it appears among the relevant
    // variables), the constructed state must match it — e.g. the
    // EAGAIN-preserved-after-close cases need two writers, which requires
    // dup2 and stays skipped. Unconstrained counts are simply instantiated
    // by whatever the plan produces. Children holding endpoints add to the
    // constructed totals (fork/spawn take a reference per inherited end).
    // With no pipe descriptor anywhere — parent or child — the counts are
    // unobservable by the operations under test (every count-sensitive
    // model path goes through a pipe descriptor or a child's endpoint), so
    // they are left unchecked.
    let (child_readers, child_writers) = child_ends;
    let constructed_counts = match plan.endpoint_counts() {
        Some((readers, writers)) => Some((readers + child_readers, writers + child_writers)),
        // The early-pipe construction: the parent closes both fresh ends
        // after spawning, so the children's references are the only ones.
        None if child_readers + child_writers > 0 => Some((child_readers, child_writers)),
        None => None,
    };
    if let Some((readers, writers)) = constructed_counts {
        for (name, constructed) in [("pipe.readers", readers), ("pipe.writers", writers)] {
            let constrained = relevant.iter().any(|v| v.name.as_ref() == name);
            if constrained && solved.int(name) != constructed {
                return Err(SkipReason::PipeEndpoints);
            }
        }
    }
    Ok(plan)
}

/// Emits `pipe()` plus the buffered-byte preload (and, for half-closed
/// plans, the close of the transient end). `read_fd`/`write_fd` are the
/// concrete descriptors the two fresh ends land in. `child_spawns` are the
/// spawn operations for children inheriting pipe endpoints; they run while
/// both fresh ends are still open, so a child may keep an end the parent's
/// final layout closes.
fn emit_pipe(
    setup: &mut Vec<(usize, SysOp)>,
    solved: &Solved<'_>,
    plan: PipePlan,
    child_spawns: &mut Vec<(usize, SysOp)>,
) -> Result<(), SkipReason> {
    let (pid, read_fd, write_fd) = match plan {
        PipePlan::Absent => return Ok(()),
        PipePlan::BothEnds { proc, slot } | PipePlan::ReadOnly { proc, slot } => {
            (proc, slot as u32, (slot + 1) as u32)
        }
        PipePlan::WriteOnly { proc, slot } => (proc, (slot - 1) as u32, slot as u32),
    };
    setup.push((0, SysOp::Pipe { pid }));
    setup.append(child_spawns);
    // Pre-load the modelled number of buffered bytes while both fresh ends
    // are still open (a write after closing the read end would hit EPIPE).
    let nbytes = solved_bounded(solved, "pipe.nbytes", PIPE_NBYTES_BOUND)?;
    if nbytes > 0 {
        setup.push((
            0,
            SysOp::Write {
                pid,
                fd: write_fd,
                data: vec![b'x'; nbytes as usize],
            },
        ));
    }
    match plan {
        PipePlan::ReadOnly { .. } => setup.push((0, SysOp::Close { pid, fd: write_fd })),
        PipePlan::WriteOnly { .. } => setup.push((0, SysOp::Close { pid, fd: read_fd })),
        _ => {}
    }
    Ok(())
}

/// One call of a multi-call test: its kind, the slot assignment and the
/// tag its argument variables carry (`argA`, `argB`, `argC`, ...).
pub(crate) struct CallSpec<'s> {
    pub(crate) kind: CallKind,
    pub(crate) slots: &'s scr_model::calls::ArgSlots,
    pub(crate) tag: &'static str,
}

/// The two calls of a pair shape, in slot order.
fn pair_calls(shape: &PairShape) -> [CallSpec<'_>; 2] {
    [
        CallSpec {
            kind: shape.calls.0,
            slots: &shape.slots_a,
            tag: "argA",
        },
        CallSpec {
            kind: shape.calls.1,
            slots: &shape.slots_b,
            tag: "argB",
        },
    ]
}

/// The reasons [`table_full`] checks.
const TABLE_REASONS: [SkipReason; 3] = [
    SkipReason::FdTableFull,
    SkipReason::SocketTableFull,
    SkipReason::ChildTableFull,
];

/// One table check of [`materialize`]: does `spec` allocate from a
/// table with no room left? The kernels' tables are larger than the
/// model's, so such an exhaustion path (EMFILE, ENOSPC, EAGAIN) is
/// model-only. `open` needs one descriptor slot and `pipe` two;
/// `socket` needs a socket slot; `fork`/`posix_spawn` need a child slot.
///
/// `flag` reads a boolean state variable by name: `Some(value)` when it is
/// known, `None` when it is not. A table is reported full only when it is
/// full whatever the unknown flags turn out to be. Over a complete
/// assignment this is the materialiser's check; over a representative's
/// pinned values it decides the check for every completion at once
/// ([`decided_rejection`]).
fn table_full(
    reason: SkipReason,
    spec: &CallSpec<'_>,
    cfg: &ModelConfig,
    flag: &impl Fn(&str) -> Option<bool>,
) -> bool {
    let occupied = |name: String| flag(&name) == Some(true);
    match reason {
        SkipReason::FdTableFull => {
            let needed = match spec.kind {
                CallKind::Open => 1,
                CallKind::Pipe => 2,
                _ => return false,
            };
            let p = spec.slots.proc;
            let may_be_free = (0..cfg.fds_per_proc)
                .filter(|k| !occupied(format!("p{p}.fd{k}.open")))
                .count();
            may_be_free < needed
        }
        SkipReason::SocketTableFull => {
            spec.kind == CallKind::Socket
                && cfg.sockets > 0
                && (0..cfg.sockets).all(|s| occupied(format!("sock{s}.exists")))
        }
        SkipReason::ChildTableFull => {
            matches!(spec.kind, CallKind::Fork | CallKind::PosixSpawn)
                && cfg.children > 0
                && (0..cfg.children).all(|c| occupied(format!("child{c}.occupied")))
        }
        _ => false,
    }
}

/// Builds the test `id` for one assignment — the setup script and one
/// concrete operation per entry of `calls`, in slot order — or the
/// structured reason no faithful construction exists for it. Pairs and
/// triples share it; the call count only widens the exhaustion checks.
fn materialize(
    calls: &[CallSpec<'_>],
    case: &CommutativeCase,
    assignment: &Assignment,
    cfg: &ModelConfig,
    names: &[String],
    relevant: &[Var],
    id: &str,
) -> Result<ConcreteTest, SkipReason> {
    let solved = Solved::new(&case.variables, assignment);
    let known = |name: &str| Some(solved.bool(name));
    let mut setup: Vec<(usize, SysOp)> = Vec::new();
    let used_procs = calls.iter().map(|c| c.slots.proc).max().unwrap_or(0) + 1;

    // --- §4 extension objects: sockets and the child process table ---------
    // Socket slots are created in slot order, so slot `s` maps to the
    // concrete socket id equal to its rank among the existing slots. A
    // nonexistent slot maps to a reserved id far above anything the test
    // can allocate, so operations on it fail with EBADF exactly as the
    // model's `!exists` paths do.
    let mut sock_ids: BTreeMap<usize, SockId> = BTreeMap::new();
    for s in 0..cfg.sockets {
        if solved.bool(&format!("sock{s}.exists")) {
            let id = sock_ids.len();
            sock_ids.insert(s, id);
        }
    }
    // Child slots map to pids the same way: the driver creates processes
    // 0 and 1 up front, and every child is spawned at one point of the
    // setup script in slot order, so slot `c` becomes pid `2 + rank`. An
    // unoccupied slot maps to a pid no setup can create (wait → EINVAL,
    // as the model's `!occupied` path).
    let mut child_pids: BTreeMap<usize, Pid> = BTreeMap::new();
    for c in 0..cfg.children {
        if solved.bool(&format!("child{c}.occupied")) {
            let pid = CHILD_BASE_PID + child_pids.len();
            child_pids.insert(c, pid);
        }
    }
    // The observable part of a child's descriptor table is exactly its
    // pipe endpoints (see `SymState::equivalent`): which slots hold which
    // end. Everything else a child inherits is invisible to the pair under
    // test, so `posix_spawn` with just the pipe-end slots listed builds an
    // observably identical child.
    let mut child_ends: BTreeMap<usize, Vec<(usize, bool)>> = BTreeMap::new();
    for &c in child_pids.keys() {
        let mut ends = Vec::new();
        for k in 0..cfg.fds_per_proc {
            if solved.bool(&format!("child{c}.fd{k}.inherit"))
                && solved.bool(&format!("child{c}.fd{k}.is_pipe"))
            {
                ends.push((k, solved.bool(&format!("child{c}.fd{k}.write_end"))));
            }
        }
        if !ends.is_empty() {
            child_ends.insert(c, ends);
        }
    }
    // Exhaustion paths are model-only: the kernels have no fixed socket or
    // process pools, so a full model table under an allocating call cannot
    // be reproduced (the concrete call would succeed where the analysed
    // path returned ENOSPC/EAGAIN).
    for spec in calls {
        for reason in [SkipReason::SocketTableFull, SkipReason::ChildTableFull] {
            if table_full(reason, spec, cfg, &known) {
                return Err(reason);
            }
        }
    }
    // Create the sockets and pre-load their queues. An unordered socket's
    // queue `qi` belongs to core `qi`, so its messages are sent from that
    // core; an ordered socket has a single queue fed from core 0 in FIFO
    // order.
    for (&s, &id) in &sock_ids {
        let ordered = solved.bool(&format!("sock{s}.ordered"));
        let order = if ordered {
            SocketOrder::Ordered
        } else {
            SocketOrder::Unordered
        };
        setup.push((0, SysOp::Socket { order }));
        for qi in 0..SOCKET_CORES {
            let len = solved_bounded(&solved, &format!("sock{s}.q{qi}.len"), cfg.queue_cap as i64)?;
            for i in 0..len {
                let value = solved.int(&format!("sock{s}.q{qi}.msg{i}")).rem_euclid(4) as u8;
                let core = if ordered { 0 } else { qi };
                setup.push((
                    core,
                    SysOp::Send {
                        sock: id,
                        msg: vec![b'0' + value],
                    },
                ));
            }
        }
    }
    // Classify the pipe layout and check the endpoint counts (which now
    // include the ends held by children) before anything is emitted.
    let child_end_counts = (
        child_ends.values().flatten().filter(|(_, we)| !*we).count() as i64,
        child_ends.values().flatten().filter(|(_, we)| *we).count() as i64,
    );
    let plan = plan_pipe(&solved, cfg, used_procs, relevant, child_end_counts)?;
    // Where the two fresh pipe ends sit while both are still open — the
    // moment children are spawned, so a child may keep either end even if
    // the parent's final layout closes it.
    let transient_ends = match plan {
        PipePlan::Absent => {
            if child_ends.is_empty() {
                None
            } else {
                // No parent descriptor keeps the pipe, but children hold
                // endpoints: create the pipe first thing at slots 0/1 of
                // process 0, spawn the children, and close both parent
                // ends again (the slots are re-used by the normal layout
                // afterwards).
                Some((0usize, 1usize))
            }
        }
        PipePlan::BothEnds { slot, .. } | PipePlan::ReadOnly { slot, .. } => Some((slot, slot + 1)),
        PipePlan::WriteOnly { slot, .. } => Some((slot - 1, slot)),
    };
    // Validate every child endpoint against the transient layout and build
    // the spawn ops (slot order, so the pid mapping above holds).
    let mut child_spawns: Vec<(usize, SysOp)> = Vec::new();
    let spawn_parent = match plan {
        PipePlan::BothEnds { proc, .. }
        | PipePlan::ReadOnly { proc, .. }
        | PipePlan::WriteOnly { proc, .. } => proc,
        PipePlan::Absent => 0,
    };
    for &c in child_pids.keys() {
        let mut dup_fds: Vec<Fd> = Vec::new();
        for (k, we) in child_ends.get(&c).map_or(&[][..], |e| e.as_slice()) {
            match transient_ends {
                Some((r_slot, w_slot)) if (!*we && *k == r_slot) || (*we && *k == w_slot) => {
                    dup_fds.push(*k as Fd);
                }
                _ => return Err(SkipReason::ChildFdOrphan),
            }
        }
        child_spawns.push((
            0,
            SysOp::Spawn {
                pid: spawn_parent,
                dup_fds,
            },
        ));
    }
    if matches!(plan, PipePlan::Absent) {
        if child_ends.is_empty() {
            // No pipe anywhere: children inherit nothing; spawn them before
            // any descriptor exists.
            setup.append(&mut child_spawns);
        } else {
            // The early-pipe construction described above.
            setup.push((0, SysOp::Pipe { pid: 0 }));
            setup.append(&mut child_spawns);
            let nbytes = solved_bounded(&solved, "pipe.nbytes", PIPE_NBYTES_BOUND)?;
            if nbytes > 0 {
                setup.push((
                    0,
                    SysOp::Write {
                        pid: 0,
                        fd: 1,
                        data: vec![b'x'; nbytes as usize],
                    },
                ));
            }
            setup.push((0, SysOp::Close { pid: 0, fd: 0 }));
            setup.push((0, SysOp::Close { pid: 0, fd: 1 }));
        }
    }

    // --- directory and file contents -------------------------------------
    // Collect which name slots exist and which inode each refers to.
    let mut ino_to_names: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for n in 0..cfg.names {
        if solved.bool(&format!("name{n}.exists")) {
            let ino = solved.int(&format!("name{n}.ino"));
            ino_to_names.entry(ino).or_default().push(n);
        }
    }
    // Create each referenced inode through its first name, link the rest,
    // and populate its contents.
    for (ino, slots) in &ino_to_names {
        let first = names[slots[0]].clone();
        setup.push((
            0,
            SysOp::Open {
                pid: 0,
                name: first.clone(),
                flags: OpenFlags::create(),
            },
        ));
        // The open above lands in the lowest descriptor; populate contents
        // through it, then close it.
        let len = solved_bounded(&solved, &format!("inode{ino}.len"), cfg.file_pages as i64)?;
        for page in 0..len {
            let byte = solved
                .int(&format!("inode{ino}.page{page}"))
                .rem_euclid(256) as u8;
            setup.push((
                0,
                SysOp::Pwrite {
                    pid: 0,
                    fd: 0,
                    data: vec![byte; PAGE_SIZE as usize],
                    offset: page as u64 * PAGE_SIZE,
                },
            ));
        }
        setup.push((0, SysOp::Close { pid: 0, fd: 0 }));
        for slot in &slots[1..] {
            setup.push((
                0,
                SysOp::Link {
                    pid: 0,
                    old: first.clone(),
                    new: names[*slot].clone(),
                },
            ));
        }
    }

    // --- unconstructible initial states -------------------------------------
    // Two classes of satisfying assignments describe states the kernel API
    // cannot be driven into, so no faithful test exists for them:
    //
    // * an inode with a positive link count that no name, descriptor or
    //   mapping can reach (the model's ENOSPC paths require every inode slot
    //   to be "used", but the kernels have no fixed inode pool to exhaust);
    // * a full descriptor table when one of the operations under test needs
    //   to allocate a descriptor (the model's EMFILE paths; the kernels'
    //   tables are much larger than the model's two slots).
    //
    // Returning the structured reason counts the assignment as skipped —
    // after the re-solve loop in `generate_tests` has had a chance to find
    // a different completion — rather than running a test that exercises a
    // different path than the one analysed.
    for j in 0..cfg.inodes {
        if solved.int(&format!("inode{j}.nlink")) <= 0 {
            continue;
        }
        let named = ino_to_names.contains_key(&(j as i64));
        let mut reachable = named;
        for p in 0..used_procs {
            for k in 0..cfg.fds_per_proc {
                if solved.bool(&format!("p{p}.fd{k}.open"))
                    && !solved.bool(&format!("p{p}.fd{k}.is_pipe"))
                    && solved.int(&format!("p{p}.fd{k}.ino")) == j as i64
                {
                    reachable = true;
                }
            }
            for v in 0..cfg.vm_pages {
                if solved.bool(&format!("p{p}.vm{v}.mapped"))
                    && !solved.bool(&format!("p{p}.vm{v}.anon"))
                    && solved.int(&format!("p{p}.vm{v}.ino")) == j as i64
                {
                    reachable = true;
                }
            }
        }
        if !reachable {
            return Err(SkipReason::UnreachableInode);
        }
    }
    for spec in calls {
        // An EMFILE path cannot be reproduced by the kernels' much larger
        // tables — worse, both real `pipe()`s would *succeed* and race over
        // which call gets which descriptor numbers, making the results
        // schedule-dependent where the model's were not.
        if table_full(SkipReason::FdTableFull, spec, cfg, &known) {
            return Err(SkipReason::FdTableFull);
        }
    }

    // --- descriptor tables -------------------------------------------------
    // Lay out each process's descriptor table so that slot k of the model is
    // descriptor k of the process. Placeholder descriptors fill the gaps and
    // are closed at the end of setup. The pipe was classified into a
    // constructible plan above; its creation is interleaved at the right
    // slot boundary so every end lands where the assignment puts it, and
    // children holding pipe endpoints are spawned while both fresh ends are
    // still open.
    let mut placeholders: Vec<(usize, u32)> = Vec::new();
    for p in 0..used_procs {
        for k in 0..cfg.fds_per_proc {
            // A kept write end's transient read end occupies the slot below
            // it during creation; emit the pipe before that slot's real
            // content is laid out (the close of the transient end frees the
            // slot again).
            if let PipePlan::WriteOnly { proc, slot } = plan {
                if p == proc && k + 1 == slot {
                    emit_pipe(&mut setup, &solved, plan, &mut child_spawns)?;
                }
            }
            let open = solved.bool(&format!("p{p}.fd{k}.open"));
            let is_pipe = solved.bool(&format!("p{p}.fd{k}.is_pipe"));
            if open && is_pipe {
                match plan {
                    PipePlan::BothEnds { slot, .. } | PipePlan::ReadOnly { slot, .. }
                        if k == slot =>
                    {
                        emit_pipe(&mut setup, &solved, plan, &mut child_spawns)?;
                    }
                    // The write end was laid out together with its read end.
                    PipePlan::BothEnds { slot, .. } if k == slot + 1 => {}
                    // Created by the pre-slot hook above.
                    PipePlan::WriteOnly { slot, .. } if k == slot => {}
                    _ => unreachable!("plan_pipe covers every pipe descriptor"),
                }
                continue;
            }
            if open && !is_pipe {
                let ino = solved.int(&format!("p{p}.fd{k}.ino"));
                let name = match ino_to_names.get(&ino) {
                    Some(slots) => names[slots[0]].clone(),
                    None => {
                        // Descriptor to an unlinked file: create a scratch
                        // name, open it, populate the modelled contents
                        // (the slots below k are already occupied, so the
                        // create lands exactly at descriptor k), and unlink
                        // the name afterwards. Skipping the contents would
                        // build a *different* state than the one analysed —
                        // a divergence the real-threads differential runner
                        // observes as non-commuting results.
                        let scratch = format!("scratch-p{p}-fd{k}");
                        setup.push((
                            0,
                            SysOp::Open {
                                pid: p,
                                name: scratch.clone(),
                                flags: OpenFlags::create(),
                            },
                        ));
                        let len = solved_bounded(
                            &solved,
                            &format!("inode{ino}.len"),
                            cfg.file_pages as i64,
                        )?;
                        for page in 0..len {
                            let byte = solved
                                .int(&format!("inode{ino}.page{page}"))
                                .rem_euclid(256) as u8;
                            setup.push((
                                0,
                                SysOp::Pwrite {
                                    pid: p,
                                    fd: k as u32,
                                    data: vec![byte; PAGE_SIZE as usize],
                                    offset: page as u64 * PAGE_SIZE,
                                },
                            ));
                        }
                        setup.push((
                            0,
                            SysOp::Close {
                                pid: p,
                                fd: k as u32,
                            },
                        ));
                        // Re-open below through the normal path.
                        scratch
                    }
                };
                setup.push((
                    0,
                    SysOp::Open {
                        pid: p,
                        name: name.clone(),
                        flags: OpenFlags::plain(),
                    },
                ));
                let off =
                    solved_bounded(&solved, &format!("p{p}.fd{k}.off"), cfg.file_pages as i64)?;
                if off != 0 {
                    setup.push((
                        0,
                        SysOp::Lseek {
                            pid: p,
                            fd: k as u32,
                            offset: off * PAGE_SIZE as i64,
                            whence: Whence::Set,
                        },
                    ));
                }
                if !ino_to_names.contains_key(&ino) {
                    setup.push((
                        0,
                        SysOp::Unlink {
                            pid: p,
                            name: format!("scratch-p{p}-fd{k}"),
                        },
                    ));
                }
            } else if !open {
                // Placeholder so later slots land at the right index.
                let scratch = format!("placeholder-p{p}-fd{k}");
                setup.push((
                    0,
                    SysOp::Open {
                        pid: p,
                        name: scratch,
                        flags: OpenFlags::create(),
                    },
                ));
                placeholders.push((p, k as u32));
            }
        }
    }
    for (p, fd) in placeholders {
        setup.push((0, SysOp::Close { pid: p, fd }));
    }

    // --- address spaces -----------------------------------------------------
    for p in 0..used_procs {
        for v in 0..cfg.vm_pages {
            if !solved.bool(&format!("p{p}.vm{v}.mapped")) {
                continue;
            }
            let addr = (VM_BASE_PAGE + v as u64) * PAGE_SIZE;
            let writable = solved.bool(&format!("p{p}.vm{v}.writable"));
            let anon = solved.bool(&format!("p{p}.vm{v}.anon"));
            if anon {
                setup.push((
                    0,
                    SysOp::Mmap {
                        pid: p,
                        addr_hint: Some(addr),
                        pages: 1,
                        prot: Prot::rw(),
                        backing: MmapBacking::Anon,
                    },
                ));
                let value = solved.int(&format!("p{p}.vm{v}.value")).rem_euclid(256) as u8;
                if value != 0 {
                    setup.push((
                        0,
                        SysOp::Memwrite {
                            pid: p,
                            addr,
                            value,
                        },
                    ));
                }
                if !writable {
                    setup.push((
                        0,
                        SysOp::Mprotect {
                            pid: p,
                            addr,
                            pages: 1,
                            prot: Prot::ro(),
                        },
                    ));
                }
            } else {
                // File-backed mapping: the backing inode must have a name so
                // a descriptor can be opened for it.
                let ino = solved.int(&format!("p{p}.vm{v}.ino"));
                let slots = ino_to_names.get(&ino).ok_or(SkipReason::UnnamedMapping)?;
                let name = names[slots[0]].clone();
                // Open a temporary descriptor at the next free slot, map,
                // then close it.
                let temp_fd = cfg.fds_per_proc as u32 + v as u32;
                setup.push((
                    0,
                    SysOp::Open {
                        pid: p,
                        name,
                        flags: OpenFlags::plain(),
                    },
                ));
                setup.push((
                    0,
                    SysOp::Mmap {
                        pid: p,
                        addr_hint: Some(addr),
                        pages: 1,
                        prot: if writable { Prot::rw() } else { Prot::ro() },
                        backing: MmapBacking::File(temp_fd),
                    },
                ));
                setup.push((
                    0,
                    SysOp::Close {
                        pid: p,
                        fd: temp_fd,
                    },
                ));
            }
        }
    }

    // --- the operations under test ------------------------------------------
    let ops = calls
        .iter()
        .map(|spec| {
            build_op(
                spec.kind,
                spec.slots,
                spec.tag,
                &solved,
                names,
                &sock_ids,
                &child_pids,
            )
        })
        .collect();

    Ok(ConcreteTest {
        id: id.to_string(),
        calls: calls.iter().map(|spec| spec.kind).collect(),
        setup,
        ops,
        procs: used_procs,
    })
}

/// Builds the concrete [`SysOp`] for one call of the test. `sock_ids` and
/// `child_pids` map existing model slots to the concrete ids the setup
/// script created; slots absent from the maps (nonexistent socket,
/// unoccupied child) translate to reserved ids nothing can allocate, so
/// the concrete call fails exactly as the model's missing-object paths do.
#[allow(clippy::too_many_arguments)]
fn build_op(
    kind: CallKind,
    slots: &scr_model::calls::ArgSlots,
    tag: &str,
    solved: &Solved<'_>,
    names: &[String],
    sock_ids: &BTreeMap<usize, SockId>,
    child_pids: &BTreeMap<usize, Pid>,
) -> SysOp {
    let pid = slots.proc;
    let name = |i: usize| names[slots.names[i]].clone();
    let fd = |i: usize| slots.fds[i] as u32;
    let vm_addr = |i: usize| (VM_BASE_PAGE + slots.vm_pages[i] as u64) * PAGE_SIZE;
    let sock = |i: usize| {
        sock_ids
            .get(&slots.socks[i])
            .copied()
            .unwrap_or(BAD_SOCK_ID)
    };
    let child = |i: usize| {
        child_pids
            .get(&slots.children[i])
            .copied()
            .unwrap_or(BAD_CHILD_PID)
    };
    // The model moves pipe data one byte at a time; a page-sized concrete
    // transfer would drain/extend the pipe differently than the state the
    // analyzer reasoned about.
    let fd_is_pipe = |i: usize| solved.bool(&format!("p{}.fd{}.is_pipe", slots.proc, slots.fds[i]));
    match kind {
        CallKind::Open => SysOp::Open {
            pid,
            name: name(0),
            flags: OpenFlags {
                create: solved.bool(&format!("{tag}.o_creat")),
                excl: solved.bool(&format!("{tag}.o_excl")),
                truncate: solved.bool(&format!("{tag}.o_trunc")),
                anyfd: false,
            },
        },
        CallKind::Link => SysOp::Link {
            pid,
            old: name(0),
            new: name(1),
        },
        CallKind::Unlink => SysOp::Unlink { pid, name: name(0) },
        CallKind::Rename => SysOp::Rename {
            pid,
            src: name(0),
            dst: name(1),
        },
        CallKind::Stat => SysOp::StatPath { pid, name: name(0) },
        CallKind::Fstat => SysOp::Fstat { pid, fd: fd(0) },
        CallKind::Lseek => SysOp::Lseek {
            pid,
            fd: fd(0),
            offset: solved.int(&format!("{tag}.offset")) * PAGE_SIZE as i64,
            whence: if solved.bool(&format!("{tag}.whence_end")) {
                Whence::End
            } else {
                Whence::Set
            },
        },
        CallKind::Close => SysOp::Close { pid, fd: fd(0) },
        CallKind::Pipe => SysOp::Pipe { pid },
        CallKind::Read => SysOp::Read {
            pid,
            fd: fd(0),
            len: if fd_is_pipe(0) { 1 } else { PAGE_SIZE },
        },
        CallKind::Write => SysOp::Write {
            pid,
            fd: fd(0),
            data: vec![
                solved.int(&format!("{tag}.byte")).rem_euclid(256) as u8;
                if fd_is_pipe(0) { 1 } else { PAGE_SIZE as usize }
            ],
        },
        CallKind::Pread => SysOp::Pread {
            pid,
            fd: fd(0),
            len: PAGE_SIZE,
            offset: solved.int(&format!("{tag}.page")).max(0) as u64 * PAGE_SIZE,
        },
        CallKind::Pwrite => SysOp::Pwrite {
            pid,
            fd: fd(0),
            data: vec![
                solved.int(&format!("{tag}.byte")).rem_euclid(256) as u8;
                PAGE_SIZE as usize
            ],
            offset: solved.int(&format!("{tag}.page")).max(0) as u64 * PAGE_SIZE,
        },
        CallKind::Mmap => {
            let anon = solved.bool(&format!("{tag}.anon"));
            SysOp::Mmap {
                pid,
                addr_hint: Some(vm_addr(0)),
                pages: 1,
                prot: if solved.bool(&format!("{tag}.writable")) {
                    Prot::rw()
                } else {
                    Prot::ro()
                },
                backing: if anon {
                    MmapBacking::Anon
                } else {
                    MmapBacking::File(fd(0))
                },
            }
        }
        CallKind::Munmap => SysOp::Munmap {
            pid,
            addr: vm_addr(0),
            pages: 1,
        },
        CallKind::Mprotect => SysOp::Mprotect {
            pid,
            addr: vm_addr(0),
            pages: 1,
            prot: if solved.bool(&format!("{tag}.writable")) {
                Prot::rw()
            } else {
                Prot::ro()
            },
        },
        CallKind::Memread => SysOp::Memread {
            pid,
            addr: vm_addr(0),
        },
        CallKind::Memwrite => SysOp::Memwrite {
            pid,
            addr: vm_addr(0),
            value: solved.int(&format!("{tag}.byte")).rem_euclid(256) as u8,
        },
        CallKind::Socket => SysOp::Socket {
            order: if solved.bool(&format!("{tag}.sock_ordered")) {
                SocketOrder::Ordered
            } else {
                SocketOrder::Unordered
            },
        },
        CallKind::Send => SysOp::Send {
            sock: sock(0),
            msg: vec![b'0' + solved.int(&format!("{tag}.msg")).rem_euclid(4) as u8],
        },
        CallKind::Recv => SysOp::Recv { sock: sock(0) },
        CallKind::Fork => SysOp::Fork { pid },
        CallKind::PosixSpawn => SysOp::Spawn {
            pid,
            dup_fds: if solved.bool(&format!("{tag}.spawn_none")) {
                vec![]
            } else {
                vec![fd(0)]
            },
        },
        CallKind::Wait => SysOp::Wait {
            pid,
            child: child(0),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze_pair;
    use crate::shapes::PairShape;
    use scr_model::calls::ArgSlots;

    fn small_cfg() -> ModelConfig {
        ModelConfig {
            names: 4,
            inodes: 2,
            procs: 1,
            fds_per_proc: 2,
            file_pages: 2,
            vm_pages: 2,
            ..ModelConfig::default()
        }
    }

    fn name_shape(a: CallKind, b: CallKind, na: Vec<usize>, nb: Vec<usize>) -> PairShape {
        PairShape {
            calls: (a, b),
            slots_a: ArgSlots {
                proc: 0,
                names: na,
                ..Default::default()
            },
            slots_b: ArgSlots {
                proc: 0,
                names: nb,
                ..Default::default()
            },
            tag: "t".into(),
        }
    }

    #[test]
    fn stat_stat_generates_tests_with_setup() {
        let cfg = small_cfg();
        let shape = name_shape(CallKind::Stat, CallKind::Stat, vec![0], vec![1]);
        let analysis = analyze_pair(&shape, &cfg);
        let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 64);
        assert!(!generated.tests.is_empty());
        // At least one test must stat two *existing* different files, which
        // requires setup to create them.
        assert!(generated.tests.iter().any(|t| t
            .setup
            .iter()
            .filter(|(_, op)| matches!(op, SysOp::Open { .. }))
            .count()
            >= 2));
        // Operations target different names.
        for test in &generated.tests {
            if let [SysOp::StatPath { name: a, .. }, SysOp::StatPath { name: b, .. }] =
                test.ops.as_slice()
            {
                assert_ne!(a, b);
            } else {
                panic!("expected two stat operations");
            }
        }
    }

    #[test]
    fn isomorphic_assignments_are_deduplicated() {
        let cfg = small_cfg();
        let shape = name_shape(CallKind::Stat, CallKind::Stat, vec![0], vec![1]);
        let analysis = analyze_pair(&shape, &cfg);
        let few = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 16);
        let many = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 256);
        // Raising the enumeration limit must not blow up the deduplicated
        // test count proportionally.
        assert!(many.tests.len() <= few.tests.len() * 4 + 8);
    }

    #[test]
    fn unlink_unlink_distinct_names_generate_unlink_ops() {
        let cfg = small_cfg();
        let shape = name_shape(CallKind::Unlink, CallKind::Unlink, vec![0], vec![1]);
        let analysis = analyze_pair(&shape, &cfg);
        let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 64);
        assert!(!generated.tests.is_empty());
        for test in &generated.tests {
            assert!(matches!(
                test.ops[..],
                [SysOp::Unlink { .. }, SysOp::Unlink { .. }]
            ));
        }
    }

    #[test]
    fn rename_test_case_mirrors_figure_five() {
        // Figure 5 materialises a case where two renames commute because
        // both sources are hard links to the same inode and the destinations
        // collide; make sure the generator can produce tests for the shared
        // destination shape at all (the commuting sub-cases).
        let cfg = small_cfg();
        let shape = name_shape(CallKind::Rename, CallKind::Rename, vec![0, 1], vec![2, 1]);
        let analysis = analyze_pair(&shape, &cfg);
        let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 64);
        assert!(!generated.tests.is_empty());
        for test in &generated.tests {
            assert!(matches!(test.ops[0], SysOp::Rename { .. }));
        }
    }

    #[test]
    fn pipe_states_materialize() {
        // Read(fd0) ∥ Write(fd1): the analyzer's commutative cases include
        // pipe-backed states with both ends open, and the canonical pipe
        // layout (read end at slot 0, write end at slot 1) must be
        // constructible — the write-end slot is laid out together with the
        // pipe, not revisited (which would wrongly reject the state).
        let cfg = small_cfg();
        let shape = PairShape {
            calls: (CallKind::Read, CallKind::Write),
            slots_a: ArgSlots {
                proc: 0,
                fds: vec![0],
                ..Default::default()
            },
            slots_b: ArgSlots {
                proc: 0,
                fds: vec![1],
                ..Default::default()
            },
            tag: "pipe".into(),
        };
        let analysis = analyze_pair(&shape, &cfg);
        let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 128);
        let pipe_backed: Vec<_> = generated
            .tests
            .iter()
            .filter(|t| {
                t.setup
                    .iter()
                    .any(|(_, op)| matches!(op, SysOp::Pipe { .. }))
            })
            .collect();
        assert!(
            !pipe_backed.is_empty(),
            "no pipe-backed state was materialised (skipped {})",
            generated.skipped
        );
        // Pipe transfers are one byte, as in the model — a page-sized read
        // would drain a different amount than the analyzed state. (A
        // pipe-backed test's read may also target a plain file — e.g. a
        // half-closed write-only pipe next to a file descriptor — in which
        // case it reads a page.)
        assert!(
            pipe_backed
                .iter()
                .any(|t| matches!(&t.ops[0], SysOp::Read { len: 1, .. })),
            "at least one representative must read the pipe itself"
        );
        for test in &pipe_backed {
            if let SysOp::Read { len, .. } = &test.ops[0] {
                assert!(*len == 1 || *len == PAGE_SIZE, "{}", test.id);
            }
        }
    }

    #[test]
    fn read_read_half_closed_pipe_cases_materialize() {
        // The representative-selection regression (ROADMAP's last
        // faithfulness-audit gap): Read(fd0) ∥ Read(fd0) has commutative
        // cases over the pipe — EAGAIN∥EAGAIN (empty pipe, writer open) and
        // EOF∥EOF (empty pipe, no writer: the half-closed state). The
        // solver's first witness leaves the neighbouring slot closed, which
        // the canonical pipe layout cannot express; re-solving for a
        // constructible completion (EAGAIN family) and the half-closed
        // `pipe(); close(write end)` construction (EOF family) must now
        // materialize both. The only family allowed to stay skipped is the
        // write-end-at-slot-0 layout, which genuinely needs dup2.
        let cfg = small_cfg();
        let shape = PairShape {
            calls: (CallKind::Read, CallKind::Read),
            slots_a: ArgSlots {
                proc: 0,
                fds: vec![0],
                ..Default::default()
            },
            slots_b: ArgSlots {
                proc: 0,
                fds: vec![0],
                ..Default::default()
            },
            tag: "samefd".into(),
        };
        let analysis = analyze_pair(&shape, &cfg);
        let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 128);
        // A half-closed representative: pipe() followed by a close of the
        // write end (descriptor 1), before the operations run.
        let half_closed = generated.tests.iter().any(|t| {
            let pipe_at = t
                .setup
                .iter()
                .position(|(_, op)| matches!(op, SysOp::Pipe { .. }));
            match pipe_at {
                Some(i) => t.setup[i..]
                    .iter()
                    .any(|(_, op)| matches!(op, SysOp::Close { fd: 1, .. })),
                None => false,
            }
        });
        assert!(
            half_closed,
            "the EOF∥EOF half-closed-pipe case must materialize (skipped: {:?})",
            generated.skip_reasons
        );
        // A both-ends-open representative rescued by re-solve.
        assert!(
            generated.resolved > 0,
            "re-solve must rescue at least one representative"
        );
        // Nothing but the genuinely dup2-requiring families may remain
        // skipped for this shape: the write-end-at-descriptor-0 layout
        // (PipeLayout — the read end would have to sit below descriptor 0)
        // and the two-writers EAGAIN-preserved-after-close states
        // (PipeEndpoints — `pipe()` makes exactly one writer).
        let unexpected: usize = generated
            .skip_reasons
            .iter()
            .filter(|(r, _)| !matches!(r, SkipReason::PipeLayout | SkipReason::PipeEndpoints))
            .map(|(_, c)| *c)
            .sum();
        assert_eq!(
            unexpected, 0,
            "only dup2-style states may stay skipped, got {:?}",
            generated.skip_reasons
        );
    }

    #[test]
    fn skip_histogram_sums_to_skipped() {
        let cfg = small_cfg();
        let shape = name_shape(CallKind::Open, CallKind::Open, vec![0], vec![1]);
        let analysis = analyze_pair(&shape, &cfg);
        let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 64);
        assert_eq!(
            generated.skip_reasons.values().sum::<usize>(),
            generated.skipped
        );
    }

    #[test]
    fn skip_reason_names_roundtrip() {
        for reason in SkipReason::ALL {
            assert_eq!(SkipReason::parse(reason.name()), Some(reason));
        }
        assert_eq!(SkipReason::parse("nonsense"), None);
    }

    #[test]
    fn default_names_are_distinct() {
        let names = default_names();
        let set: BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    fn corpus_fingerprints(generated: &GeneratedTests) -> Vec<String> {
        generated
            .tests
            .iter()
            .map(|t| format!("{} {:?} {:?}", t.id, t.setup, t.ops))
            .collect()
    }

    /// The pipe-backed Read ∥ Read shape: its corpus exercises the repair
    /// loop (resolved > 0), which is what populates the completion cache.
    fn repairing_shape() -> PairShape {
        PairShape {
            calls: (CallKind::Read, CallKind::Read),
            slots_a: ArgSlots {
                proc: 0,
                fds: vec![0],
                ..Default::default()
            },
            slots_b: ArgSlots {
                proc: 0,
                fds: vec![0],
                ..Default::default()
            },
            tag: "samefd".into(),
        }
    }

    /// Serializes the tests that clear the process-global cache or assert
    /// on hit/miss behaviour: `cargo test` runs this module's tests on
    /// concurrent threads within one process, so an unguarded clear could
    /// wipe another cache test's entries mid-run.
    fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn completion_cache_hits_reproduce_the_cold_corpus() {
        // A warm second run must (a) actually hit the completion cache and
        // (b) yield byte-identical tests — in particular, every rescued
        // representative's completion is in the same isomorphism class as
        // the cold solve's (it is the *same* completion). Cache keys cover
        // the model bounds, so a bound combination no other test uses keeps
        // this test's entries private even though the cache is shared by
        // every concurrently-running test; stats are asserted through the
        // calling thread's attribution counters for the same reason.
        let _guard = cache_lock();
        let cfg = ModelConfig {
            vm_pages: 1,
            ..small_cfg()
        };
        let shape = repairing_shape();
        let analysis = analyze_pair(&shape, &cfg);
        let before = solver_cache_thread_stats();
        let cold = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 128);
        assert!(cold.resolved > 0, "shape must exercise the repair loop");
        let after_cold = solver_cache_thread_stats();
        assert!(after_cold.completion_misses > before.completion_misses);
        assert_eq!(
            after_cold.completion_hits, before.completion_hits,
            "cold run must not hit completions (keys are private to this test)"
        );
        let warm = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 128);
        let after_warm = solver_cache_thread_stats();
        assert!(
            after_warm.completion_hits - after_cold.completion_hits >= cold.resolved,
            "warm run must hit the completion cache (stats {after_warm:?})"
        );
        assert!(
            after_warm.solution_hits > after_cold.solution_hits,
            "enumeration must hit too"
        );
        assert_eq!(
            after_warm.completion_misses, after_cold.completion_misses,
            "warm run must add no completion misses"
        );
        assert_eq!(corpus_fingerprints(&cold), corpus_fingerprints(&warm));
        assert_eq!(cold.skip_reasons, warm.skip_reasons);
        assert_eq!(cold.resolved, warm.resolved);
    }

    /// Generates the corpus of every `a ∥ b` shape twice: once through the
    /// guarded repair loop, comparing each rejected representative's
    /// outcome with the unguarded reference search, and once through the
    /// reference alone. Asserts the two agree and returns the guarded
    /// corpora, with the reasons the guard decided added to `decided`.
    fn assert_guard_matches_reference(
        a: CallKind,
        b: CallKind,
        cfg: &ModelConfig,
        decided: &mut SkipHistogram,
    ) -> Vec<GeneratedTests> {
        let names = default_names();
        let outcome = |test: &Option<ConcreteTest>| {
            test.as_ref()
                .map(|t| format!("{} {:?} {:?}", t.id, t.setup, t.ops))
        };
        let mut corpora = Vec::new();
        for shape in crate::shapes::enumerate_shapes(a, b, cfg) {
            let cases = analyze_pair(&shape, cfg).cases;
            let calls = pair_calls(&shape);
            let guarded = generate_tests_with(
                &calls,
                &shape.tag,
                &cases,
                cfg,
                &names,
                96,
                |rejected, solver| {
                    let pinned = rejected.pinned();
                    let reference = search_completion(rejected, &pinned, solver);
                    if let Some(reason) = decided_rejection(rejected, &pinned) {
                        *decided.entry(reason).or_default() += 1;
                    }
                    let ours = resolve_constructible(rejected, solver);
                    assert_eq!(outcome(&ours), outcome(&reference), "{}", rejected.id);
                    ours
                },
            );
            let unguarded = generate_tests_with(
                &calls,
                &shape.tag,
                &cases,
                cfg,
                &names,
                96,
                |rejected, solver| search_completion(rejected, &rejected.pinned(), solver),
            );
            assert_eq!(
                corpus_fingerprints(&guarded),
                corpus_fingerprints(&unguarded),
                "{}",
                shape.tag
            );
            assert_eq!(
                guarded.skip_reasons, unguarded.skip_reasons,
                "{}",
                shape.tag
            );
            assert_eq!(guarded.resolved, unguarded.resolved, "{}", shape.tag);
            corpora.push(guarded);
        }
        corpora
    }

    #[test]
    fn decided_rejections_match_the_unguarded_repair_loop() {
        let mut decided = SkipHistogram::new();
        for fds_per_proc in [1, 2] {
            let cfg = ModelConfig {
                fds_per_proc,
                ..small_cfg()
            };
            assert_guard_matches_reference(CallKind::Open, CallKind::Open, &cfg, &mut decided);
        }
        for (a, b) in [
            (CallKind::Open, CallKind::Pipe),
            (CallKind::Pipe, CallKind::Pipe),
        ] {
            assert_guard_matches_reference(a, b, &small_cfg(), &mut decided);
        }
        for (a, b) in [
            (CallKind::Socket, CallKind::Socket),
            (CallKind::Fork, CallKind::PosixSpawn),
        ] {
            let cfg = scr_model::pair_config(&ModelConfig::default(), a, b);
            assert_guard_matches_reference(a, b, &cfg, &mut decided);
        }
        for reason in TABLE_REASONS {
            assert!(
                decided.contains_key(&reason),
                "the guard never decided {reason}: {decided:?}"
            );
        }
        // The pipe-backed Read ∥ Read rejections are layout reasons: the
        // guard stays out of the way and the search still rescues them.
        let mut read_read = SkipHistogram::new();
        let corpora = assert_guard_matches_reference(
            CallKind::Read,
            CallKind::Read,
            &small_cfg(),
            &mut read_read,
        );
        assert!(read_read.is_empty(), "{read_read:?}");
        assert!(corpora.iter().any(|g| g.resolved > 0));
    }

    #[test]
    fn solver_cache_evicts_past_cap_and_still_admits_new_keys() {
        // Regression for the saturation bug: the old admission policy
        // (`len() < CAP || contains_key(&key)`) refused every new key once
        // a cache filled, silently degrading the rest of a long sweep to
        // cold solves. The sharded cache must evict instead.
        let cache = ShardedSolverCache::new(8, 2);
        let sols = vec![Assignment::new()];
        for i in 0..64u64 {
            cache.store_solution((i as u128, 0), 1, sols.clone());
        }
        let stats = cache.merged_stats();
        assert!(stats.evictions > 0, "inserting past the cap must evict");
        // A brand-new key admitted after saturation must hit on re-query.
        cache.store_solution((999, 0), 1, sols.clone());
        assert!(
            cache.lookup_solution(&(999, 0), 1).is_some(),
            "new keys must still be admitted once the cache is full"
        );
    }

    #[test]
    fn solver_cache_second_chance_protects_hot_entries() {
        // Clock eviction: a recently-hit entry survives an insert that
        // displaces a cold one.
        let cache = ShardedSolverCache::new(4, 1);
        let sols = vec![Assignment::new()];
        for i in 0..4u64 {
            cache.store_solution((i as u128, 0), 1, sols.clone());
        }
        assert!(cache.lookup_solution(&(0, 0), 1).is_some()); // mark hot
        cache.store_solution((4, 0), 1, sols.clone());
        assert!(
            cache.lookup_solution(&(0, 0), 1).is_some(),
            "the hot entry must get a second chance"
        );
        assert!(
            cache.lookup_solution(&(1, 0), 1).is_none(),
            "the coldest entry is the one evicted"
        );
    }

    #[test]
    fn clear_zeroes_every_shard_after_multithreaded_population() {
        // `clear_all` holds every shard lock before dropping anything, so a
        // clear is atomic: afterwards no shard retains entries or counters,
        // no matter which thread populated it.
        let cache = ShardedSolverCache::new(64, 4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..8u64 {
                        let key = ((t * 100 + i) as u128, t);
                        cache.store_solution(key, 1, vec![Assignment::new()]);
                        assert!(cache.lookup_solution(&key, 1).is_some());
                    }
                });
            }
        });
        assert!(cache.merged_stats().solution_hits >= 32);
        cache.clear_all();
        assert_eq!(
            cache.merged_stats(),
            SolverCacheStats::default(),
            "clear must zero every shard's counters"
        );
        for t in 0..4u64 {
            for i in 0..8u64 {
                assert!(
                    cache
                        .lookup_solution(&((t * 100 + i) as u128, t), 1)
                        .is_none(),
                    "clear must drop every shard's entries"
                );
            }
        }
    }

    #[test]
    fn global_clear_wipes_entries_populated_by_other_threads() {
        // The old thread-local cache's `solver_cache_clear` only cleared
        // the calling thread; the global cache must wipe what *other*
        // threads populated too.
        let _guard = cache_lock();
        let cfg = ModelConfig {
            names: 3,
            ..small_cfg()
        };
        let shape = repairing_shape();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let shape = shape.clone();
                s.spawn(move || {
                    let analysis = analyze_pair(&shape, &cfg);
                    let before = solver_cache_thread_stats();
                    let generated =
                        generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 64);
                    assert!(!generated.tests.is_empty());
                    let after = solver_cache_thread_stats();
                    assert!(
                        after.solution_hits + after.solution_misses
                            > before.solution_hits + before.solution_misses,
                        "workers must route queries through the shared cache"
                    );
                });
            }
        });
        solver_cache_clear();
        assert_eq!(
            solver_cache_thread_stats(),
            SolverCacheStats::default(),
            "clear must reset the calling thread's attribution counters"
        );
        // The entries the workers shared are gone: regenerating on this
        // thread records fresh completion misses and zero completion hits
        // (this test's model bounds keep its keys private).
        let analysis = analyze_pair(&shape, &cfg);
        let before = solver_cache_thread_stats();
        let regenerated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 64);
        let after = solver_cache_thread_stats();
        assert!(regenerated.resolved > 0);
        assert!(after.completion_misses > before.completion_misses);
        assert_eq!(
            after.completion_hits, before.completion_hits,
            "cleared entries must not serve hits"
        );
    }

    #[test]
    fn completion_cache_does_not_leak_across_pairs() {
        // Warming the cache with one pair must leave another pair's corpus
        // exactly as a cold solve produces it: the cache key covers the
        // whole condition, variable list and shape, so assignments cannot
        // bleed between pairs.
        let _guard = cache_lock();
        let cfg = small_cfg();
        let read_read = repairing_shape();
        let read_analysis = analyze_pair(&read_read, &cfg);
        let write_shape = PairShape {
            calls: (CallKind::Read, CallKind::Write),
            slots_a: ArgSlots {
                proc: 0,
                fds: vec![0],
                ..Default::default()
            },
            slots_b: ArgSlots {
                proc: 0,
                fds: vec![1],
                ..Default::default()
            },
            tag: "pipe".into(),
        };
        let write_analysis = analyze_pair(&write_shape, &cfg);
        solver_cache_clear();
        let cold = generate_tests(
            &write_shape,
            &write_analysis.cases,
            &cfg,
            &default_names(),
            128,
        );
        solver_cache_clear();
        let _warm_other = generate_tests(
            &read_read,
            &read_analysis.cases,
            &cfg,
            &default_names(),
            128,
        );
        let after_other = generate_tests(
            &write_shape,
            &write_analysis.cases,
            &cfg,
            &default_names(),
            128,
        );
        assert_eq!(
            corpus_fingerprints(&cold),
            corpus_fingerprints(&after_other)
        );
        assert_eq!(cold.skip_reasons, after_other.skip_reasons);
    }

    #[test]
    fn send_recv_corpus_preloads_per_core_queues() {
        // send ∥ recv on the same unordered socket: the analyzer's
        // commutative cases include states where core 1's local queue is
        // non-empty (so the recv never steals), which the materialiser can
        // only build by sending from core 1 during setup.
        let cfg = scr_model::pair_config(&ModelConfig::default(), CallKind::Send, CallKind::Recv);
        assert_eq!(cfg.sockets, 2, "socket pair must enable socket slots");
        assert_eq!(cfg.fds_per_proc, 0, "pure-socket pair strips fs state");
        let mut preloaded_core1 = false;
        for shape in crate::shapes::enumerate_shapes(CallKind::Send, CallKind::Recv, &cfg) {
            let analysis = analyze_pair(&shape, &cfg);
            let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 64);
            for test in &generated.tests {
                assert!(
                    matches!(test.ops[..], [SysOp::Send { .. }, SysOp::Recv { .. }]),
                    "{}",
                    test.id
                );
                // Setup sends must target a socket that setup created.
                let created = test
                    .setup
                    .iter()
                    .filter(|(_, op)| matches!(op, SysOp::Socket { .. }))
                    .count();
                for (_, op) in &test.setup {
                    if let SysOp::Send { sock, .. } = op {
                        assert!(*sock < created, "{}: preload on unknown socket", test.id);
                    }
                }
                preloaded_core1 |= test
                    .setup
                    .iter()
                    .any(|(core, op)| *core == 1 && matches!(op, SysOp::Send { .. }));
            }
        }
        assert!(
            preloaded_core1,
            "some representative must pre-load core 1's queue from core 1"
        );
    }

    #[test]
    fn wait_corpus_spawns_children_and_keeps_pipe_endpoint_inheritance() {
        // wait ∥ wait over the two child slots: occupied children are
        // spawned during setup (so the waited pids exist), unoccupied slots
        // map to the reserved bad pid, and any child holding pipe
        // endpoints is spawned while the pipe's fresh ends are open. Uses
        // the same per-pair configuration the pipeline would (wait touches
        // the fd table, so the fs dimensions stay).
        let cfg = scr_model::pair_config(&ModelConfig::default(), CallKind::Wait, CallKind::Wait);
        let mut spawned = false;
        let mut bad_pid_case = false;
        let mut inherited_pipe_end = false;
        for shape in crate::shapes::enumerate_shapes(CallKind::Wait, CallKind::Wait, &cfg) {
            let analysis = analyze_pair(&shape, &cfg);
            let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 96);
            for test in &generated.tests {
                let mut pipe_seen = false;
                for (_, op) in &test.setup {
                    match op {
                        SysOp::Pipe { .. } => pipe_seen = true,
                        SysOp::Spawn { dup_fds, .. } => {
                            spawned = true;
                            if !dup_fds.is_empty() {
                                assert!(
                                    pipe_seen,
                                    "{}: endpoint inheritance needs the pipe first",
                                    test.id
                                );
                                inherited_pipe_end = true;
                            }
                        }
                        _ => {}
                    }
                }
                if let SysOp::Wait { child, .. } = &test.ops[0] {
                    bad_pid_case |= *child == BAD_CHILD_PID;
                    if *child != BAD_CHILD_PID {
                        let spawns = test
                            .setup
                            .iter()
                            .filter(|(_, op)| matches!(op, SysOp::Spawn { .. }))
                            .count();
                        assert!(
                            *child < CHILD_BASE_PID + spawns,
                            "{}: wait targets a pid setup never created",
                            test.id
                        );
                    }
                }
            }
        }
        assert!(spawned, "occupied child slots must be spawned in setup");
        assert!(bad_pid_case, "unoccupied-slot waits must use the bad pid");
        assert!(
            inherited_pipe_end,
            "some representative must hand a pipe endpoint to a child"
        );
    }

    #[test]
    fn socket_exhaustion_paths_are_skipped_with_a_structured_reason() {
        // socket ∥ socket: the ENOSPC path pins every socket slot to
        // existing, which the kernels' unbounded socket tables cannot
        // reproduce — those representatives must be counted under the
        // dedicated reason, not silently dropped or wrongly materialised.
        let cfg =
            scr_model::pair_config(&ModelConfig::default(), CallKind::Socket, CallKind::Socket);
        let mut reasons = SkipHistogram::new();
        for shape in crate::shapes::enumerate_shapes(CallKind::Socket, CallKind::Socket, &cfg) {
            let analysis = analyze_pair(&shape, &cfg);
            let generated = generate_tests(&shape, &analysis.cases, &cfg, &default_names(), 96);
            for (reason, count) in generated.skip_reasons {
                *reasons.entry(reason).or_default() += count;
            }
        }
        assert!(
            reasons.contains_key(&SkipReason::SocketTableFull),
            "ENOSPC paths must skip as socket-table-full, got {reasons:?}"
        );
    }
}
