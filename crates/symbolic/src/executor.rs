//! Replay-based symbolic path exploration.
//!
//! Model code is an ordinary Rust closure that consults a [`PathCtx`]
//! whenever control flow depends on a symbolic boolean. The explorer runs
//! the closure repeatedly, once per decision vector, enumerating every code
//! path (depth-first) and recording the accumulated path condition for each
//! leaf — the same strategy concolic engines use to cover a model's paths
//! (§5.1, §2.4).
//!
//! Branches whose condition folds to a constant do not fork. Who decides
//! feasibility depends on the entry point: [`explore_each`] enumerates
//! every leaf, satisfiable or not, and hands each to the caller as its run
//! ends; the caller walks them through a [`RefutedPrefixMemo`] so that the
//! solver refutes each dead decision prefix once instead of once per leaf
//! under it, and keeps only what it needs of the live ones. [`explore`] is
//! the same walk collected into a `Vec`. [`explore_pruned`] additionally
//! asks a caller's oracle before scheduling a branch alternative and never
//! visits a refuted subtree; it builds an alternative's flipped constraint
//! only when it asks. [`replay`] re-runs one recorded leaf, for work a
//! caller wants done only on the leaves that turned out feasible.

use crate::expr::{Expr, ExprRef};
use crate::types::SymBool;

/// Hard limit on decisions along one path (guards against runaway models).
const MAX_DECISIONS_PER_PATH: usize = 64;
/// Hard limit on explored paths.
const MAX_PATHS: usize = 100_000;

/// Per-path execution context handed to the model closure.
pub struct PathCtx {
    decisions: Vec<bool>,
    cursor: usize,
    path: Vec<ExprRef>,
    branches: Vec<ExprRef>,
    /// Per decision: `path.len()` just before its constraint was pushed
    /// (the alternative's condition is that prefix plus the flipped
    /// constraint).
    cond_len_at: Vec<usize>,
    max_decisions: usize,
}

impl PathCtx {
    fn new(decisions: Vec<bool>, max_decisions: usize) -> Self {
        PathCtx {
            decisions,
            cursor: 0,
            path: Vec::new(),
            branches: Vec::new(),
            cond_len_at: Vec::new(),
            max_decisions,
        }
    }

    /// Branches on a symbolic condition: returns the decision taken on this
    /// path and records the corresponding constraint. Constant conditions do
    /// not fork.
    pub fn branch(&mut self, cond: &SymBool) -> bool {
        if let Some(b) = cond.as_const() {
            return b;
        }
        let decision = if self.cursor < self.decisions.len() {
            self.decisions[self.cursor]
        } else {
            assert!(
                self.decisions.len() < self.max_decisions,
                "too many symbolic branches on one path"
            );
            self.decisions.push(true);
            true
        };
        self.cursor += 1;
        let constraint = if decision {
            cond.expr().clone()
        } else {
            cond.not().expr().clone()
        };
        self.cond_len_at.push(self.path.len());
        self.path.push(constraint.clone());
        self.branches.push(constraint);
        decision
    }

    /// Adds a constraint to the path without forking (an assumption the
    /// model makes, e.g. "the initial state is well-formed").
    pub fn assume(&mut self, cond: &SymBool) {
        if cond.as_const() != Some(true) {
            self.path.push(cond.expr().clone());
        }
    }

    /// The constraints accumulated so far on this path.
    pub fn path_condition(&self) -> &[ExprRef] {
        &self.path
    }

    fn into_result<T>(self, value: T) -> PathResult<T> {
        PathResult {
            condition: self.path,
            branches: self.branches,
            value,
            decisions: self.decisions,
            cond_len_at: self.cond_len_at,
        }
    }
}

/// One fully-explored path: its condition and the closure's return value.
#[derive(Clone, Debug)]
pub struct PathResult<T> {
    /// Conjunction of branch constraints and assumptions along the path.
    pub condition: Vec<ExprRef>,
    /// Only the branch-decision constraints (the "interesting" part of the
    /// condition; assumptions such as domain bounds are excluded).
    pub branches: Vec<ExprRef>,
    /// The value the model closure returned on this path.
    pub value: T,
    /// The decision vector that produced this path.
    pub decisions: Vec<bool>,
    /// Per decision: `condition.len()` just before its constraint was
    /// pushed. The closure is deterministic, so every leaf that shares the
    /// first `k` decisions shares `condition[..cond_len_at[k]]` — the
    /// branch constraints of those decisions and every assumption made
    /// before the next one.
    pub cond_len_at: Vec<usize>,
}

impl<T> PathResult<T> {
    /// The part of the condition fixed by the first `k` decisions alone
    /// (`k == decisions.len()` gives the whole condition).
    fn cut(&self, k: usize) -> &[ExprRef] {
        match self.cond_len_at.get(k) {
            Some(&len) => &self.condition[..len],
            None => &self.condition,
        }
    }
}

/// Explores every path of `f`, returning one [`PathResult`] per leaf in
/// depth-first order (the leaves under one decision prefix are contiguous).
///
/// `f` is re-run once per decision vector; it must be deterministic apart
/// from its use of [`PathCtx::branch`].
pub fn explore<T>(f: impl FnMut(&mut PathCtx) -> T) -> Vec<PathResult<T>> {
    let mut results = Vec::new();
    explore_each(f, |leaf| results.push(leaf));
    results
}

/// [`explore`] without the collection: each leaf goes to `visit` as soon as
/// its run ends, in the same depth-first order, so a caller that decides a
/// leaf's fate on arrival keeps only the leaves it wants.
pub fn explore_each<T>(f: impl FnMut(&mut PathCtx) -> T, visit: impl FnMut(PathResult<T>)) {
    let truncated = explore_loop(f, |_, _| true, visit, MAX_PATHS, MAX_DECISIONS_PER_PATH);
    assert!(!truncated, "path explosion: more than {MAX_PATHS} paths");
}

/// The outcome of a bounded exploration: the paths reached within budget,
/// plus whether the budget cut the enumeration short.
#[derive(Clone, Debug)]
pub struct ExploreOutcome<T> {
    /// One [`PathResult`] per explored leaf.
    pub results: Vec<PathResult<T>>,
    /// True when `max_paths` stopped the exploration with alternatives
    /// still unexplored (infeasible alternatives skipped by the pruning
    /// callback do not count — the solver would discard them anyway).
    pub truncated: bool,
}

/// [`explore`] with a path budget and feasibility pruning, for models whose
/// unpruned path count explodes (triple interleavings explore 6 orders per
/// case where pairs explore 2).
///
/// Before scheduling the `false` alternative of a decision, the explorer
/// hands `feasible` the alternative's path condition (the constraints
/// accumulated before the decision plus the flipped constraint); returning
/// false skips the whole subtree. Because every pruned subtree is
/// unsatisfiable, the reachable leaves are exactly those [`explore`] would
/// keep after solver filtering — pruning changes cost, not coverage.
/// `max_paths` bounds the number of explored leaves gracefully
/// (`truncated` reports the cut) instead of panicking; `max_decisions`
/// raises the per-path branch budget that [`explore`] fixes at 64.
pub fn explore_pruned<T>(
    f: impl FnMut(&mut PathCtx) -> T,
    mut feasible: impl FnMut(&[ExprRef]) -> bool,
    max_paths: usize,
    max_decisions: usize,
) -> ExploreOutcome<T> {
    let mut results = Vec::new();
    let truncated = explore_loop(
        f,
        |ctx, flip| {
            let mut condition: Vec<ExprRef> = ctx.path[..ctx.cond_len_at[flip]].to_vec();
            // A decision first met on this run was taken `true`, so its
            // alternative is the negation of the constraint it recorded.
            condition.push(Expr::not(&ctx.branches[flip]));
            feasible(&condition)
        },
        |leaf| results.push(leaf),
        max_paths,
        max_decisions,
    );
    ExploreOutcome { results, truncated }
}

/// The worklist loop behind every explorer: hands each leaf to `visit` and
/// returns whether `max_paths` cut the exploration short.
/// `schedule(ctx, flip)` says whether the `false` alternative of decision
/// `flip`, first met on the run `ctx` just finished, gets explored.
fn explore_loop<T>(
    mut f: impl FnMut(&mut PathCtx) -> T,
    mut schedule: impl FnMut(&PathCtx, usize) -> bool,
    mut visit: impl FnMut(PathResult<T>),
    max_paths: usize,
    max_decisions: usize,
) -> bool {
    let mut worklist: Vec<Vec<bool>> = vec![Vec::new()];
    let mut paths = 0;
    while let Some(prefix) = worklist.pop() {
        if paths >= max_paths {
            return true;
        }
        let prefix_len = prefix.len();
        let mut ctx = PathCtx::new(prefix, max_decisions);
        let value = f(&mut ctx);
        // The deepest alternative is pushed last and popped first, which
        // makes the leaf order depth-first.
        for flip in prefix_len..ctx.decisions.len() {
            if !schedule(&ctx, flip) {
                continue;
            }
            let mut alternative = ctx.decisions[..flip].to_vec();
            alternative.push(false);
            worklist.push(alternative);
        }
        paths += 1;
        visit(ctx.into_result(value));
    }
    false
}

/// Re-runs `f` along the decision vector of a leaf an explorer returned and
/// hands back what `f` returns there.
///
/// # Panics
///
/// When the run does not consume exactly the recorded decisions: the
/// closure is then not the deterministic model that produced the leaf, and
/// whatever it returned would describe some other path.
pub fn replay<T>(decisions: &[bool], f: impl FnOnce(&mut PathCtx) -> T) -> T {
    let mut ctx = PathCtx::new(decisions.to_vec(), usize::MAX);
    let value = f(&mut ctx);
    assert!(
        ctx.cursor == decisions.len() && ctx.decisions.len() == decisions.len(),
        "replay diverged: the run took {} decisions, {} were recorded",
        ctx.cursor,
        decisions.len()
    );
    value
}

/// Decides the feasibility of an exploration's leaves while asking the
/// solver about each dead decision prefix once.
///
/// Satisfiability of a condition prefix is monotone — a longer prefix only
/// adds constraints — and a decision prefix fixes a condition prefix
/// ([`PathResult::cond_len_at`]). So when a leaf is infeasible, the memo
/// bisects over its decision boundaries for the *shortest refuted decision
/// prefix* and answers "infeasible" without the solver for every later leaf
/// that starts with it. The bisection starts above what is already known to
/// be satisfiable: the prefix shared with the latest leaf the solver
/// decided, capped at that leaf's own longest satisfiable prefix.
///
/// Every answer is the one a solver query on the whole leaf would give, in
/// any leaf order; offering the leaves in the explorer's depth-first order
/// is what makes the refuted subtrees contiguous and the shared prefixes
/// long.
#[derive(Clone, Debug, Default)]
pub struct RefutedPrefixMemo {
    /// Decisions of the latest leaf the solver decided.
    last: Vec<bool>,
    /// How many of `last`'s decision prefixes, counted from the empty one,
    /// are known satisfiable (`last.len() + 1` after a feasible leaf).
    last_sat_prefixes: usize,
    /// Whether `last[..last_sat_prefixes]` is refuted (`last` was
    /// infeasible and that is its shortest refuted prefix).
    last_refuted: bool,
    /// Solver queries issued (whole leaves and bisection probes).
    pub queries: usize,
    /// Leaves answered from a refuted prefix, without the solver.
    pub skipped: usize,
    /// Leaves found feasible.
    pub feasible: usize,
}

impl RefutedPrefixMemo {
    /// A memo that knows nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is `leaf`'s path condition satisfiable? `sat` is the solver.
    pub fn is_feasible<T>(
        &mut self,
        leaf: &PathResult<T>,
        mut sat: impl FnMut(&[ExprRef]) -> bool,
    ) -> bool {
        if self.last_refuted
            && leaf
                .decisions
                .starts_with(&self.last[..self.last_sat_prefixes])
        {
            self.skipped += 1;
            return false;
        }
        let shared = leaf
            .decisions
            .iter()
            .zip(&self.last)
            .take_while(|(a, b)| a == b)
            .count();
        self.last.clone_from(&leaf.decisions);
        let depth = leaf.decisions.len();
        self.queries += 1;
        if sat(&leaf.condition) {
            self.feasible += 1;
            self.last_sat_prefixes = depth + 1;
            self.last_refuted = false;
            return true;
        }
        // Prefixes of fewer than `lo` decisions are satisfiable, the one of
        // `hi` decisions is not.
        let mut lo = self.last_sat_prefixes.min(shared + 1);
        let mut hi = depth;
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.queries += 1;
            if sat(leaf.cut(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.last_sat_prefixes = hi;
        self.last_refuted = true;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::solver::{all_solutions, Domains};
    use crate::types::{SymContext, SymInt};

    #[test]
    fn straight_line_code_has_one_path() {
        let results = explore(|_ctx| 42);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].value, 42);
        assert!(results[0].condition.is_empty());
    }

    #[test]
    fn one_symbolic_branch_gives_two_paths() {
        let ctx = SymContext::new();
        let flag = ctx.bool_var("flag");
        let results = explore(|path| if path.branch(&flag) { 1 } else { 2 });
        assert_eq!(results.len(), 2);
        let values: Vec<i32> = results.iter().map(|r| r.value).collect();
        assert!(values.contains(&1) && values.contains(&2));
        for r in &results {
            assert_eq!(r.condition.len(), 1);
        }
    }

    #[test]
    fn constant_branches_do_not_fork() {
        let results = explore(|path| {
            if path.branch(&SymBool::from_bool(true)) {
                if path.branch(&SymBool::from_bool(false)) {
                    0
                } else {
                    1
                }
            } else {
                2
            }
        });
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].value, 1);
    }

    #[test]
    fn nested_branches_enumerate_all_paths() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let results = explore(|path| {
            let mut v = 0;
            if path.branch(&a) {
                v += 1;
            }
            if path.branch(&b) {
                v += 2;
            }
            v
        });
        assert_eq!(results.len(), 4);
        let mut values: Vec<i32> = results.iter().map(|r| r.value).collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn path_conditions_partition_the_domain() {
        // Model: return |x| (absolute value) over a symbolic int; exploring
        // yields two paths whose conditions partition the domain.
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let results = explore(|path| {
            if path.branch(&x.lt(&SymInt::from_i64(0))) {
                SymInt::from_i64(0).sub(&x)
            } else {
                x.clone()
            }
        });
        assert_eq!(results.len(), 2);
        // Each path's condition must be satisfiable over a small domain.
        let domains = Domains::new(vec![-2, -1, 0, 1, 2]);
        for r in &results {
            let cond = Expr::and(&r.condition);
            let solutions = all_solutions(&[cond], &domains, 100);
            assert!(!solutions.is_empty(), "each path must be feasible");
        }
    }

    #[test]
    fn pruned_exploration_skips_infeasible_alternatives() {
        // Base path takes x < 0 then x < 10; the alternative of the second
        // decision (x < 0 ∧ x ≥ 10) is unsatisfiable over the domain, so
        // the pruned explorer never schedules it.
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let domains = Domains::new(vec![-2, -1, 0, 1, 2]);
        let model = |path: &mut PathCtx| {
            if path.branch(&x.lt(&SymInt::from_i64(0))) {
                if path.branch(&x.lt(&SymInt::from_i64(10))) {
                    0
                } else {
                    1
                }
            } else {
                2
            }
        };
        let plain = explore(model);
        assert_eq!(plain.len(), 3, "unpruned exploration reaches all leaves");
        let pruned = explore_pruned(
            model,
            |cond| crate::solver::satisfiable(cond, &domains),
            1_000,
            64,
        );
        assert!(!pruned.truncated);
        let mut values: Vec<i32> = pruned.results.iter().map(|r| r.value).collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 2], "the infeasible leaf is pruned");
    }

    #[test]
    fn pruned_exploration_without_pruning_matches_explore() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let model = |path: &mut PathCtx| {
            let mut v = 0;
            if path.branch(&a) {
                v += 1;
            }
            if path.branch(&b) {
                v += 2;
            }
            v
        };
        let plain = explore(model);
        let pruned = explore_pruned(model, |_| true, 1_000, 64);
        assert!(!pruned.truncated);
        let fingerprint = |rs: &[PathResult<i32>]| {
            let mut fp: Vec<(Vec<bool>, i32)> =
                rs.iter().map(|r| (r.decisions.clone(), r.value)).collect();
            fp.sort();
            fp
        };
        assert_eq!(fingerprint(&plain), fingerprint(&pruned.results));
    }

    #[test]
    fn path_budget_truncates_gracefully() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let model = |path: &mut PathCtx| {
            let mut v = 0;
            if path.branch(&a) {
                v += 1;
            }
            if path.branch(&b) {
                v += 2;
            }
            v
        };
        let outcome = explore_pruned(model, |_| true, 2, 64);
        assert_eq!(outcome.results.len(), 2);
        assert!(outcome.truncated, "hitting the budget must be reported");
    }

    #[test]
    fn assume_adds_constraints_without_forking() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let results = explore(|path| {
            path.assume(&x.gt(&SymInt::from_i64(0)));
            7
        });
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].condition.len(), 1);
    }

    fn small_domain() -> Domains {
        Domains::new(vec![0, 1, 2, 3, 4])
    }

    /// Walks `leaves` through a fresh memo and returns its verdicts.
    fn memo_verdicts<T>(
        leaves: &[PathResult<T>],
        domains: &Domains,
    ) -> (Vec<bool>, RefutedPrefixMemo) {
        let mut memo = RefutedPrefixMemo::new();
        let verdicts = leaves
            .iter()
            .map(|leaf| memo.is_feasible(leaf, |c| crate::solver::satisfiable(c, domains)))
            .collect();
        (verdicts, memo)
    }

    fn per_leaf_verdicts<T>(leaves: &[PathResult<T>], domains: &Domains) -> Vec<bool> {
        leaves
            .iter()
            .map(|leaf| crate::solver::satisfiable(&leaf.condition, domains))
            .collect()
    }

    #[test]
    fn leaves_come_back_depth_first_with_their_condition_cuts() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let a = ctx.bool_var("a");
        let results = explore(|path| {
            path.assume(&x.ge(&SymInt::from_i64(0)));
            if path.branch(&a) {
                path.assume(&x.le(&SymInt::from_i64(4)));
                path.branch(&x.lt(&SymInt::from_i64(2)));
            }
        });
        let decisions: Vec<&[bool]> = results.iter().map(|r| r.decisions.as_slice()).collect();
        assert_eq!(
            decisions,
            [&[true, true][..], &[true, false][..], &[false][..]]
        );
        // One assumption before the first decision; its constraint and the
        // second assumption before the second.
        assert_eq!(results[0].cond_len_at, vec![1, 3]);
        assert_eq!(results[0].cut(1), &results[1].condition[..3]);
        assert_eq!(results[2].cond_len_at, vec![1]);
        assert_eq!(results[2].cut(1).len(), 2);
    }

    #[test]
    fn a_refuting_assumption_belongs_to_the_decisions_before_it() {
        // Under a ∧ x<2 the model assumes x>3: the contradiction sits
        // between the second and the third decision, so the refuted prefix
        // is [a, x<2] — not [a], whose other subtree is alive, and not
        // [a, x<2, b], which would leave the sibling leaf to the solver.
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let domains = small_domain();
        let leaves = explore(|path| {
            if path.branch(&a) {
                if path.branch(&x.lt(&SymInt::from_i64(2))) {
                    path.assume(&x.gt(&SymInt::from_i64(3)));
                }
                path.branch(&b);
            }
        });
        assert_eq!(leaves.len(), 5);
        let (verdicts, memo) = memo_verdicts(&leaves, &domains);
        assert_eq!(verdicts, vec![false, false, true, true, true]);
        assert_eq!(verdicts, per_leaf_verdicts(&leaves, &domains));
        assert_eq!(memo.skipped, 1, "[a, x<2, !b] rides the refuted prefix");
        assert_eq!(memo.feasible, 3);
        // The dead leaf itself, two probes (prefixes of one and of two
        // decisions), then one query per live leaf.
        assert_eq!(memo.queries, 6);
    }

    #[test]
    fn with_no_feasible_leaf_seen_the_bisection_starts_at_the_empty_prefix() {
        // The model's opening assumption is already contradictory, so the
        // shortest refuted prefix of the first leaf is the empty one and
        // every other leaf is skipped. A lower bound that presumed the
        // first decision satisfiable would refute [a] only and spend
        // queries on the [!a] subtree.
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let domains = small_domain();
        let leaves = explore(|path| {
            path.assume(&x.lt(&SymInt::from_i64(0)));
            path.branch(&a);
            path.branch(&b);
        });
        assert_eq!(leaves.len(), 4);
        let (verdicts, memo) = memo_verdicts(&leaves, &domains);
        assert_eq!(verdicts, vec![false; 4]);
        assert_eq!(memo.skipped, 3);
        assert_eq!(memo.queries, 3, "the leaf, then prefixes of one and none");
    }

    #[test]
    fn the_prefix_shared_with_a_feasible_leaf_is_not_probed_again() {
        // [a, b, x<2] is feasible; its sibling [a, b, x>=2] dies on the
        // assumption that follows. They share two decisions, all of whose
        // prefixes are satisfiable, so the refuted prefix can only be the
        // whole leaf and the one query on the leaf settles it.
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let domains = small_domain();
        let leaves = explore(|path| {
            if path.branch(&a) && path.branch(&b) && !path.branch(&x.lt(&SymInt::from_i64(2))) {
                path.assume(&x.lt(&SymInt::from_i64(1)));
            }
        });
        assert_eq!(leaves.len(), 4);
        let (verdicts, memo) = memo_verdicts(&leaves, &domains);
        assert_eq!(verdicts, vec![true, false, true, true]);
        assert_eq!(memo.queries, 4);
        assert_eq!(memo.skipped, 0);
    }

    #[test]
    fn memo_verdicts_match_one_query_per_leaf_in_any_order() {
        // Three bounded integers compared pairwise at every level, with
        // assumptions in between: most of the 2^6 decision vectors are
        // contradictory, in families.
        let ctx = SymContext::new();
        let vars: Vec<SymInt> = ["x", "y", "z"].iter().map(|n| ctx.int_var(n)).collect();
        let domains = Domains::new(vec![0, 1, 2]);
        let mut leaves = explore(|path| {
            for (i, v) in vars.iter().enumerate() {
                let next = &vars[(i + 1) % vars.len()];
                if path.branch(&v.lt(next)) {
                    path.assume(&v.ne(&SymInt::from_i64(1)));
                }
                path.branch(&v.eq(&SymInt::from_i64(i as i64)));
            }
        });
        assert_eq!(leaves.len(), 64);
        let truth = per_leaf_verdicts(&leaves, &domains);
        let (verdicts, memo) = memo_verdicts(&leaves, &domains);
        assert_eq!(verdicts, truth);
        assert_eq!(memo.feasible, truth.iter().filter(|&&f| f).count());
        assert!(memo.skipped > 0 && memo.queries < leaves.len());
        // The answers rest on monotonicity alone, not on the leaf order.
        leaves.reverse();
        let (reversed, _) = memo_verdicts(&leaves, &domains);
        assert_eq!(reversed, per_leaf_verdicts(&leaves, &domains));
    }

    #[test]
    fn replay_reproduces_every_explored_leaf() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let model = |path: &mut PathCtx| {
            let mut v = 0;
            if path.branch(&a) {
                v += 1;
                if path.branch(&b) {
                    v += 2;
                }
            }
            (v, path.path_condition().to_vec())
        };
        for leaf in explore(model) {
            let (v, condition) = replay(&leaf.decisions, model);
            assert_eq!(v, leaf.value.0);
            assert_eq!(condition, leaf.condition);
        }
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn replay_panics_when_the_model_branches_more_than_recorded() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        replay(&[true], |path| path.branch(&a) && path.branch(&b));
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn replay_panics_when_the_model_branches_less_than_recorded() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        replay(&[true, false], |path| path.branch(&a));
    }
}
