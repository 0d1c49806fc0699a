//! ANALYZER: computing commutativity conditions (§5.1).
//!
//! For a pair of operations and a shape, the analyzer symbolically executes
//! both orders of the pair from a copy of the same unconstrained symbolic
//! state and asks, per explored path, whether the two orders can produce
//! equal results and externally-equivalent final states (possibly by
//! choosing the specification's nondeterministic values differently in the
//! two orders). Every satisfiable combination is a *commutative case*; its
//! condition — the path condition conjoined with the equality constraints —
//! is what TESTGEN materialises into concrete tests.
//!
//! This codifies the SIM-commutativity test exactly as §5.1 describes it:
//! the specification is assumed sequentially consistent and the
//! quantification over futures is replaced by state equivalence.
//!
//! Most explored paths are dead (98 % of `open ∥ open`'s), and dead paths
//! die in families: every leaf under a refuted decision prefix is
//! infeasible for the same reason. So each piece of work is done once per
//! place it can differ:
//!
//! * the unconstrained state, the calls' argument variables and every
//!   assumption are built once per `AnalysisUnit`; a path continues the
//!   unit's variable numbering through [`SymContext::fork`], so ids and
//!   names — and with them every case, the solver's variable order and the
//!   corpus — are what a from-scratch build per path produced;
//! * feasibility goes through a [`RefutedPrefixMemo`]: one solver
//!   refutation per dead decision prefix, none for the leaves under it;
//! * the result/state-equality obligations, by far the largest
//!   expressions, are built for feasible leaves only, by replaying the
//!   leaf's decisions;
//! * every query of the unit goes to one incremental [`CaseSolver`], which
//!   compiles only what a query does not share with the one before: the
//!   unit's assumptions open every condition and are compiled once, a
//!   bisection probe is a cut of the leaf just asked about, and a leaf's
//!   classification query is its condition plus the obligations.
//!
//! Every leaf is still enumerated and counted, so `paths_explored` and the
//! classification are exactly those of one solver query per leaf (the
//! tests keep that rule as reference code and compare). The leaves are
//! streamed: each is decided and, when feasible, classified as it arrives,
//! and none is kept past its own classification.

use crate::shapes::PairShape;
use scr_model::calls::{execute, ArgSlots, SymCall, SymRet};
use scr_model::{CallKind, ModelConfig, SymState};
use scr_symbolic::{
    explore_each, replay, CaseSolver, Domains, Expr, ExprRef, PathCtx, PathResult,
    RefutedPrefixMemo, SymBool, SymContext, Var,
};

/// One commutative case: a feasible path of the pair on which both orders
/// can agree.
#[derive(Clone, Debug)]
pub struct CommutativeCase {
    /// The full condition: path constraints plus result/state equality.
    pub condition: Vec<ExprRef>,
    /// Just the branch-decision constraints (useful for printing conditions
    /// and for deciding which variables matter for conflict coverage).
    pub path_condition: Vec<ExprRef>,
    /// The variables created while exploring this path, keyed by name.
    pub variables: Vec<Var>,
    /// Human-readable summary of the equality obligations.
    pub commute_expr: ExprRef,
}

/// The result of analysing one pair shape.
#[derive(Clone, Debug)]
pub struct PairAnalysis {
    /// The shape that was analysed.
    pub shape: PairShape,
    /// Commutative cases (satisfiable path ∧ equality conditions).
    pub cases: Vec<CommutativeCase>,
    /// Number of explored paths (feasible or not).
    pub paths_explored: usize,
    /// Number of paths that were feasible but **not** commutative.
    pub non_commutative_paths: usize,
    /// Solver queries spent deciding path feasibility (whole leaves plus
    /// the bisection probes that locate refuted prefixes).
    pub feasibility_queries: usize,
    /// Paths found infeasible without a query, under a refuted prefix.
    pub leaves_skipped: usize,
    /// Feasible paths; each cost one more query, over its commutativity
    /// condition (`cases.len() + non_commutative_paths`).
    pub feasible_leaves: usize,
    /// Flattened constraints the unit's solver was asked about, summed
    /// over every query (feasibility, probes and classification).
    pub constraints_queried: usize,
    /// The part of `constraints_queried` the solver compiled; the rest it
    /// kept from the query before, whose prefix the query shared.
    pub constraints_compiled: usize,
}

/// The integer candidate domain used throughout the analysis. Values 0–4
/// cover inode indices, page indices, link counts and content fingerprints
/// in the default model configuration.
pub fn default_domains() -> Domains {
    Domains::new(vec![0, 1, 2, 3, 4])
}

/// Argument-variable tags of a unit's calls, by position (`argA.*` etc.),
/// recognised by TESTGEN's relevance filter and by `build_op`.
pub(crate) const ARG_TAGS: [&str; 3] = ["argA", "argB", "argC"];

/// Every order of `n` calls, each listing call indices as executed, in
/// lexicographic order: the identity first. The analyzer compares a unit's
/// orders against the first; the driver replays them to decide whether
/// observed results linearise.
pub fn orders(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..n {
        for rest in orders(n - 1) {
            let mut order = vec![first];
            order.extend(rest.into_iter().map(|i| if i < first { i } else { i + 1 }));
            out.push(order);
        }
    }
    out
}

/// What the paths of one analysis unit (a pair or triple shape) have in
/// common, built once: the unconstrained state, the calls with their
/// argument variables, every assumption, and the execution orders to
/// compare.
pub(crate) struct AnalysisUnit {
    ctx: SymContext,
    state: SymState,
    calls: Vec<SymCall>,
    assumptions: Vec<SymBool>,
    /// Every order of the calls ([`orders`]); the others must agree with
    /// `orders[0]`, the identity.
    orders: Vec<Vec<usize>>,
    /// `tags[order][call]` names the oracle variables of that execution, so
    /// the specification's nondeterministic choices may differ between
    /// orders — SIM-commutativity quantifies over them.
    tags: Vec<Vec<String>>,
}

/// What one path leaves behind: the context holding its variables and, per
/// order, every call's result (by call index) and the final state.
pub(crate) struct PathRun {
    ctx: SymContext,
    orders: Vec<(Vec<SymRet>, SymState)>,
}

impl PathRun {
    /// SIM-commutativity on this path: every order agrees with the first on
    /// each call's result and ends in an equivalent state (agreement
    /// between any two orders follows by transitivity).
    fn commute(&self) -> SymBool {
        let (base_rets, base_state) = &self.orders[0];
        let mut commute = SymBool::from_bool(true);
        for (rets, state) in &self.orders[1..] {
            for (base, other) in base_rets.iter().zip(rets) {
                commute = commute.and(&base.equal(other));
            }
            commute = commute.and(&base_state.equivalent(state));
        }
        commute
    }
}

impl AnalysisUnit {
    /// Builds the unit's base over every order of `calls`. `tag(order,
    /// call)` names an execution.
    pub(crate) fn new(
        cfg: &ModelConfig,
        calls: &[(CallKind, &ArgSlots)],
        tag: impl Fn(usize, usize) -> String,
    ) -> Self {
        let orders = orders(calls.len());
        let ctx = SymContext::new();
        let (state, mut assumptions) = SymState::unconstrained(&ctx, *cfg);
        let calls: Vec<SymCall> = calls
            .iter()
            .zip(ARG_TAGS)
            .map(|(&(kind, slots), arg_tag)| SymCall::build(kind, slots.clone(), &ctx, arg_tag))
            .collect();
        for call in &calls {
            assumptions.extend(call.argument_assumptions(cfg.file_pages));
        }
        AnalysisUnit {
            ctx,
            state,
            tags: (0..orders.len())
                .map(|oi| (0..calls.len()).map(|ci| tag(oi, ci)).collect())
                .collect(),
            calls,
            assumptions,
            orders,
        }
    }

    /// The model closure: one path through every order, each from a copy of
    /// the base state.
    pub(crate) fn run(&self, path: &mut PathCtx) -> PathRun {
        for a in &self.assumptions {
            path.assume(a);
        }
        let ctx = self.ctx.fork();
        let orders = self
            .orders
            .iter()
            .zip(&self.tags)
            .map(|(order, tags)| {
                let mut state = self.state.clone();
                let mut rets: Vec<(usize, SymRet)> = order
                    .iter()
                    .map(|&ci| {
                        let ret = execute(&self.calls[ci], &mut state, path, &ctx, &tags[ci]);
                        (ci, ret)
                    })
                    .collect();
                rets.sort_by_key(|&(ci, _)| ci);
                (rets.into_iter().map(|(_, ret)| ret).collect(), state)
            })
            .collect();
        PathRun { ctx, orders }
    }

    /// Classifies one feasible leaf an explorer produced for
    /// [`AnalysisUnit::run`]: its commutative case, or `None` when no
    /// choice of values makes the orders agree on it. The equality
    /// obligations are built here, by replaying the leaf, and the query on
    /// them extends the leaf's own condition, so `solver` (the unit's,
    /// which has just decided that condition) compiles only the
    /// obligations.
    pub(crate) fn classify(
        &self,
        leaf: PathResult<()>,
        solver: &mut CaseSolver,
        domains: &Domains,
    ) -> Option<CommutativeCase> {
        let run = replay(&leaf.decisions, |path| self.run(path));
        let commute = run.commute();
        let mut condition = leaf.condition;
        condition.push(commute.expr().clone());
        solver
            .retarget(&condition)
            .satisfiable(domains)
            .then(|| CommutativeCase {
                condition,
                path_condition: leaf.branches,
                variables: run.ctx.variables(),
                commute_expr: commute.expr().clone(),
            })
    }
}

/// Analyses one pair shape: explores both orders and classifies every path.
pub fn analyze_pair(shape: &PairShape, cfg: &ModelConfig) -> PairAnalysis {
    let unit = AnalysisUnit::new(
        cfg,
        &[
            (shape.calls.0, &shape.slots_a),
            (shape.calls.1, &shape.slots_b),
        ],
        |order, call| format!("{}.{}", ["ab", "ba"][order], ["a", "b"][call]),
    );
    // Satisfiability only: no witness is ever used, so the solver's fast
    // MRV-ordered decision procedure applies.
    let domains = default_domains();
    let mut solver = CaseSolver::default();
    let mut memo = RefutedPrefixMemo::new();
    let mut cases = Vec::new();
    let mut paths_explored = 0;
    let mut non_commutative_paths = 0;
    explore_each(
        |path| {
            unit.run(path);
        },
        |leaf| {
            paths_explored += 1;
            if !memo.is_feasible(&leaf, |condition| {
                solver.retarget(condition).satisfiable(&domains)
            }) {
                return;
            }
            match unit.classify(leaf, &mut solver, &domains) {
                Some(case) => cases.push(case),
                None => non_commutative_paths += 1,
            }
        },
    );
    PairAnalysis {
        shape: shape.clone(),
        cases,
        paths_explored,
        non_commutative_paths,
        feasibility_queries: memo.queries,
        leaves_skipped: memo.skipped,
        feasible_leaves: memo.feasible,
        constraints_queried: solver.constraints_queried(),
        constraints_compiled: solver.constraints_compiled(),
    }
}

/// Renders the interesting part of a commutative case's path condition:
/// constraints that mention at least one *argument or state* variable and
/// are not mere range assumptions. Used by the rename example to reproduce
/// the §5.1 condition listing.
pub fn describe_condition(case: &CommutativeCase) -> Vec<String> {
    case.path_condition
        .iter()
        .filter(|c| {
            let vars = Expr::free_vars(c);
            // Drop pure range assumptions of the form v >= k / v <= k over a
            // single variable: they are bounds, not interesting conditions.
            !(vars.len() <= 1 && is_range_bound(c))
        })
        .map(|c| format!("{c}"))
        .collect()
}

fn is_range_bound(expr: &ExprRef) -> bool {
    use scr_symbolic::Expr as E;
    match &**expr {
        E::Lt(a, b) | E::Eq(a, b) => {
            matches!(
                (&**a, &**b),
                (E::Var(_), E::ConstInt(_)) | (E::ConstInt(_), E::Var(_))
            )
        }
        E::Not(inner) => is_range_bound(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::enumerate_shapes;
    use scr_model::pair_config;
    use scr_symbolic::{explore, satisfiable};

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

    fn shape(a: CallKind, b: CallKind, names_a: Vec<usize>, names_b: Vec<usize>) -> PairShape {
        PairShape {
            calls: (a, b),
            slots_a: ArgSlots {
                proc: 0,
                names: names_a,
                ..Default::default()
            },
            slots_b: ArgSlots {
                proc: 0,
                names: names_b,
                ..Default::default()
            },
            tag: "test".into(),
        }
    }

    #[test]
    fn orders_list_every_permutation_lexicographically() {
        assert_eq!(orders(2), [[0, 1], [1, 0]]);
        assert_eq!(
            orders(3),
            [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ]
        );
    }

    #[test]
    fn stats_of_different_names_commute() {
        let s = shape(CallKind::Stat, CallKind::Stat, vec![0], vec![1]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(!analysis.cases.is_empty());
        // Two reads always commute: no feasible path is non-commutative.
        assert_eq!(analysis.non_commutative_paths, 0);
    }

    #[test]
    fn stat_and_unlink_of_the_same_name_do_not_always_commute() {
        let s = shape(CallKind::Stat, CallKind::Unlink, vec![0], vec![0]);
        let analysis = analyze_pair(&s, &small_cfg());
        // When the name does not exist both fail with ENOENT and commute;
        // when it exists the stat's result depends on the order (the state
        // differs too), so some feasible paths are non-commutative.
        assert!(!analysis.cases.is_empty(), "ENOENT case must commute");
        assert!(
            analysis.non_commutative_paths > 0,
            "existing-name case must be non-commutative"
        );
    }

    #[test]
    fn unlinks_of_different_names_commute() {
        let s = shape(CallKind::Unlink, CallKind::Unlink, vec![0], vec![1]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(!analysis.cases.is_empty());
        assert_eq!(analysis.non_commutative_paths, 0);
    }

    #[test]
    fn creates_of_different_names_commute_via_nondeterministic_inodes() {
        // The §1 motivating example: two open(O_CREAT) of different names in
        // the same directory commute because the specification lets each
        // creation pick any free inode.
        let s = shape(CallKind::Open, CallKind::Open, vec![0], vec![1]);
        let analysis = analyze_pair(&s, &small_cfg());
        let commutative_creates = analysis.cases.iter().any(|case| {
            // A case in which both creations succeeded: the condition
            // mentions both oracle variables.
            case.variables
                .iter()
                .any(|v| v.name.contains("ab.a.ino_oracle"))
                && case
                    .variables
                    .iter()
                    .any(|v| v.name.contains("ab.b.ino_oracle"))
        });
        assert!(
            !analysis.cases.is_empty(),
            "creating different names must have commutative cases"
        );
        assert!(commutative_creates);
    }

    #[test]
    fn rename_rename_distinct_names_commute() {
        let s = shape(CallKind::Rename, CallKind::Rename, vec![0, 1], vec![2, 3]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(!analysis.cases.is_empty());
        // Both-sources-exist-and-all-distinct is one of the §5.1 conditions;
        // it must appear among the commutative cases.
        assert_eq!(
            analysis.non_commutative_paths, 0,
            "all-distinct renames always commute"
        );
    }

    #[test]
    fn rename_chain_has_genuinely_non_commutative_paths() {
        // rename(a, b) and rename(b, c): when a exists and b does not, the
        // second rename succeeds only after the first one, so its return
        // value depends on the order — no choice of values can make the two
        // orders agree on that path.
        let s = shape(CallKind::Rename, CallKind::Rename, vec![0, 1], vec![1, 2]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(analysis.non_commutative_paths > 0);
    }

    #[test]
    fn rename_rename_sharing_destination_commutes_only_for_hard_links() {
        // rename(a, b) and rename(c, b): the destination entry ends up
        // pointing at whichever source ran last, so the orders can only
        // agree when a and c are hard links to the same inode (one of the
        // §5.1 condition classes). The analyzer must find commutative cases
        // (the hard-link and error sub-cases) for this shape.
        let s = shape(CallKind::Rename, CallKind::Rename, vec![0, 1], vec![2, 1]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(!analysis.cases.is_empty());
    }

    #[test]
    fn shapes_feed_the_analyzer_end_to_end() {
        let cfg = small_cfg();
        let shapes = enumerate_shapes(CallKind::Stat, CallKind::Stat, &cfg);
        assert!(!shapes.is_empty());
        for s in shapes {
            let analysis = analyze_pair(&s, &cfg);
            assert!(analysis.paths_explored > 0);
        }
    }

    #[test]
    fn describe_condition_filters_range_bounds() {
        let s = shape(CallKind::Stat, CallKind::Unlink, vec![0], vec![0]);
        let analysis = analyze_pair(&s, &small_cfg());
        let case = &analysis.cases[0];
        let described = describe_condition(case);
        for line in &described {
            assert!(!line.is_empty());
        }
    }

    /// The rule `analyze_pair` replaced, kept as the reference: state,
    /// calls, assumptions and equality obligations rebuilt from scratch on
    /// every path, and one feasibility query per leaf.
    fn analyze_pair_per_leaf(shape: &PairShape, cfg: &ModelConfig) -> PairAnalysis {
        let domains = default_domains();
        let results = explore(|path| {
            let ctx = SymContext::new();
            let (state, assumptions) = SymState::unconstrained(&ctx, *cfg);
            for a in &assumptions {
                path.assume(a);
            }
            let call_a = SymCall::build(shape.calls.0, shape.slots_a.clone(), &ctx, "argA");
            let call_b = SymCall::build(shape.calls.1, shape.slots_b.clone(), &ctx, "argB");
            for a in call_a
                .argument_assumptions(cfg.file_pages)
                .iter()
                .chain(call_b.argument_assumptions(cfg.file_pages).iter())
            {
                path.assume(a);
            }
            let mut s_ab = state.clone();
            let ra_1 = execute(&call_a, &mut s_ab, path, &ctx, "ab.a");
            let rb_1 = execute(&call_b, &mut s_ab, path, &ctx, "ab.b");
            let mut s_ba = state.clone();
            let rb_2 = execute(&call_b, &mut s_ba, path, &ctx, "ba.b");
            let ra_2 = execute(&call_a, &mut s_ba, path, &ctx, "ba.a");
            let results_equal = ra_1.equal(&ra_2).and(&rb_1.equal(&rb_2));
            let commute = results_equal.and(&s_ab.equivalent(&s_ba));
            (commute, ctx.variables())
        });
        let paths_explored = results.len();
        let mut cases = Vec::new();
        let mut non_commutative_paths = 0;
        for result in results {
            let (commute, variables) = result.value;
            if !satisfiable(&result.condition, &domains) {
                continue;
            }
            let mut condition = result.condition;
            condition.push(commute.expr().clone());
            if satisfiable(&condition, &domains) {
                cases.push(CommutativeCase {
                    condition,
                    path_condition: result.branches,
                    variables,
                    commute_expr: commute.expr().clone(),
                });
            } else {
                non_commutative_paths += 1;
            }
        }
        PairAnalysis {
            shape: shape.clone(),
            feasible_leaves: cases.len() + non_commutative_paths,
            cases,
            paths_explored,
            non_commutative_paths,
            feasibility_queries: paths_explored,
            leaves_skipped: 0,
            constraints_queried: 0,
            constraints_compiled: 0,
        }
    }

    /// Both rules must explore, reject and accept the same paths and
    /// describe every case with structurally identical expressions over
    /// identically numbered and named variables, in the same order.
    fn assert_matches_per_leaf_rule(shape: &PairShape, cfg: &ModelConfig) -> PairAnalysis {
        let ours = analyze_pair(shape, cfg);
        let reference = analyze_pair_per_leaf(shape, cfg);
        let tag = &shape.tag;
        assert_eq!(ours.paths_explored, reference.paths_explored, "{tag}");
        assert_eq!(
            ours.non_commutative_paths, reference.non_commutative_paths,
            "{tag}"
        );
        assert_eq!(ours.feasible_leaves, reference.feasible_leaves, "{tag}");
        assert_eq!(ours.cases.len(), reference.cases.len(), "{tag}");
        for (i, (a, b)) in ours.cases.iter().zip(&reference.cases).enumerate() {
            let fp = Expr::dag_fingerprint;
            assert_eq!(fp(&a.condition), fp(&b.condition), "{tag} case {i}");
            assert_eq!(
                fp(&a.path_condition),
                fp(&b.path_condition),
                "{tag} case {i}"
            );
            assert_eq!(
                fp(std::slice::from_ref(&a.commute_expr)),
                fp(std::slice::from_ref(&b.commute_expr)),
                "{tag} case {i}"
            );
            assert_eq!(a.variables, b.variables, "{tag} case {i}");
        }
        // Every path the memo did not answer cost at least its own query.
        assert!(
            ours.feasibility_queries >= ours.paths_explored - ours.leaves_skipped,
            "{tag}"
        );
        ours
    }

    fn sweep_model(a: CallKind, b: CallKind) -> ModelConfig {
        let base = ModelConfig {
            inodes: 2,
            ..ModelConfig::default()
        };
        pair_config(&base, a, b)
    }

    #[test]
    fn open_open_matches_the_per_leaf_rule_with_one_descriptor_slot() {
        // The benchmark's `sweep_open` model; one shape of its four (two
        // opens of one name in one process).
        let cfg = ModelConfig {
            fds_per_proc: 1,
            ..sweep_model(CallKind::Open, CallKind::Open)
        };
        let shapes = enumerate_shapes(CallKind::Open, CallKind::Open, &cfg);
        let analysis = assert_matches_per_leaf_rule(&shapes[0], &cfg);
        assert!(
            analysis.leaves_skipped > analysis.paths_explored / 2,
            "most of open ∥ open's dead paths share a refuted prefix: {} of {} skipped",
            analysis.leaves_skipped,
            analysis.paths_explored
        );
        assert!(analysis.feasibility_queries < analysis.paths_explored / 2);
        assert!(
            analysis.constraints_compiled < analysis.constraints_queried / 4,
            "the unit's assumptions open every query and are compiled once: {} of {} compiled",
            analysis.constraints_compiled,
            analysis.constraints_queried
        );
    }

    #[test]
    fn open_open_matches_the_per_leaf_rule_with_two_descriptor_slots() {
        let cfg = small_cfg();
        for s in [
            shape(CallKind::Open, CallKind::Open, vec![0], vec![0]),
            shape(CallKind::Open, CallKind::Open, vec![0], vec![1]),
        ] {
            assert_matches_per_leaf_rule(&s, &cfg);
        }
    }

    #[test]
    fn rename_rename_matches_the_per_leaf_rule() {
        let cfg = small_cfg();
        // The chain rename(a, b) ∥ rename(b, c) and the shared destination
        // rename(a, b) ∥ rename(c, b).
        for (names_a, names_b) in [(vec![0, 1], vec![1, 2]), (vec![0, 1], vec![2, 1])] {
            let s = shape(CallKind::Rename, CallKind::Rename, names_a, names_b);
            assert_matches_per_leaf_rule(&s, &cfg);
        }
    }

    #[test]
    fn stat_unlink_matches_the_per_leaf_rule() {
        let s = shape(CallKind::Stat, CallKind::Unlink, vec![0], vec![0]);
        assert_matches_per_leaf_rule(&s, &small_cfg());
    }

    #[test]
    fn read_write_matches_the_per_leaf_rule_on_pipe_and_file_descriptors() {
        // Whether a descriptor is a pipe end is symbolic, so every shape
        // carries the pipe paths next to the file paths.
        let cfg = sweep_model(CallKind::Read, CallKind::Write);
        for s in enumerate_shapes(CallKind::Read, CallKind::Write, &cfg) {
            assert_matches_per_leaf_rule(&s, &cfg);
        }
    }

    #[test]
    fn send_recv_matches_the_per_leaf_rule_through_mid_path_assumptions() {
        // `send` assumes room in its target queue between two decisions, so
        // refuted prefixes here end on an assumption, not on a branch.
        let cfg = sweep_model(CallKind::Send, CallKind::Recv);
        for s in enumerate_shapes(CallKind::Send, CallKind::Recv, &cfg) {
            assert_matches_per_leaf_rule(&s, &cfg);
        }
    }
}
