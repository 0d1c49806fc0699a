//! Triple commutativity: 3-call SIM-commutativity over coupled families.
//!
//! The paper analyses operation *pairs* (§5.1); the rule itself is stated
//! for arbitrary operation sets. This module extends the ANALYZER/TESTGEN
//! machinery to **triples** over the call families whose members couple
//! through shared kernel state — the descriptor table
//! (`open`/`close`/`read`/`write`/`pipe`) and the file offset
//! (`lseek`/`read`/`write`). A triple SIM-commutes on a path when all six
//! orders can agree on every call's result and end in externally
//! equivalent states (checking the five non-base orders against the base
//! suffices by transitivity of the equalities).
//!
//! Three calls mean 18 symbolic executions per path, so the exploration
//! uses [`explore_pruned`]: infeasible branch alternatives are discarded
//! from the path condition prefix before their subtrees are scheduled, and
//! hard path/decision budgets bound the worst case (`truncated` records a
//! cut). The per-unit base state and the classification of the explored
//! leaves are the pair analyzer's own (`AnalysisUnit`, over
//! `crate::analyzer::orders(3)`): the six-order agreement is built for
//! feasible leaves only. Generation is the pair generator without its
//! repair loop: a triple whose first witness is unconstructible is counted
//! as skipped (see ROADMAP residue). A triple test is a [`ConcreteTest`]
//! with three operations, so the driver's `replay`, `run_test` and
//! `linearise` and the host replays run it exactly as they run a pair.

use crate::analyzer::{default_domains, AnalysisUnit, CommutativeCase, ARG_TAGS};
use crate::shapes::{first_op_assignments, second_op_assignments};
use crate::sweep::claim_in_order;
use crate::testgen::{generate_tests_with, CallSpec, ConcreteTest, GeneratedTests, SkipHistogram};
use scr_model::calls::ArgSlots;
use scr_model::{CallKind, ModelConfig};
use scr_symbolic::{explore_pruned, CaseSolver};

/// Leaf budget for one triple shape's exploration: six orders of three
/// calls branch far more than a pair, and the budget turns a pathological
/// shape into a `truncated` report instead of a hang.
pub const TRIPLE_PATH_BUDGET: usize = 512;

/// Per-path branch-decision budget (pairs fix 64; 18 executions need
/// more).
pub const TRIPLE_DECISION_BUDGET: usize = 192;

/// A fully-resolved shape for a triple of operations: which name and
/// descriptor slots each argument refers to (the triple families touch no
/// vm/socket/child state, and run in one process on cores 0/1/2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TripleShape {
    /// The three calls.
    pub calls: (CallKind, CallKind, CallKind),
    /// Slot assignment per call, in call order.
    pub slots: [ArgSlots; 3],
    /// Human-readable tag (used in test identifiers).
    pub tag: String,
}

/// The model bounds for triple analysis. Deliberately tighter than the
/// pair default: two names, two inodes, one process with two descriptor
/// slots and single-page files keep 18-execution paths tractable while
/// still distinguishing every coupling the families exercise (same/other
/// descriptor, same/other name, offset interaction within one page).
pub fn triple_config() -> ModelConfig {
    ModelConfig {
        names: 2,
        inodes: 2,
        procs: 1,
        fds_per_proc: 2,
        file_pages: 1,
        vm_pages: 0,
        sockets: 0,
        queue_cap: 0,
        children: 0,
    }
}

/// Enumerates the canonical slot shapes of a call triple, chaining the
/// pair enumeration's fresh-slot numbering across all three calls: call B
/// may alias A's slots, call C may alias anything A or B used. Calls with
/// extension arguments (sockets, children, vm pages) have no triple
/// shapes yet and return an empty list.
pub fn enumerate_triple_shapes(
    calls: (CallKind, CallKind, CallKind),
    cfg: &ModelConfig,
) -> Vec<TripleShape> {
    let kinds = [calls.0, calls.1, calls.2];
    if kinds
        .iter()
        .any(|k| k.sock_args() > 0 || k.child_args() > 0 || k.vm_args() > 0)
    {
        return Vec::new();
    }
    let fresh_after = |base: usize, slots: &[usize]| -> usize {
        slots
            .iter()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
            .max(base)
    };
    let mut shapes = Vec::new();
    for n0 in first_op_assignments(kinds[0].name_args(), cfg.names) {
        let nbase1 = fresh_after(0, &n0);
        for n1 in second_op_assignments(nbase1, kinds[1].name_args(), cfg.names) {
            let nbase2 = fresh_after(nbase1, &n1);
            for n2 in second_op_assignments(nbase2, kinds[2].name_args(), cfg.names) {
                for f0 in first_op_assignments(kinds[0].fd_args(), cfg.fds_per_proc) {
                    let fbase1 = fresh_after(0, &f0);
                    for f1 in second_op_assignments(fbase1, kinds[1].fd_args(), cfg.fds_per_proc) {
                        let fbase2 = fresh_after(fbase1, &f1);
                        for f2 in
                            second_op_assignments(fbase2, kinds[2].fd_args(), cfg.fds_per_proc)
                        {
                            let tag =
                                format!("n{:?}{:?}{:?}-f{:?}{:?}{:?}", n0, n1, n2, f0, f1, f2)
                                    .replace([' ', '[', ']', ','], "");
                            let slot =
                                |core: usize, names: &Vec<usize>, fds: &Vec<usize>| ArgSlots {
                                    proc: 0,
                                    core,
                                    names: names.clone(),
                                    fds: fds.clone(),
                                    vm_pages: Vec::new(),
                                    socks: Vec::new(),
                                    children: Vec::new(),
                                };
                            shapes.push(TripleShape {
                                calls,
                                slots: [slot(0, &n0, &f0), slot(1, &n1, &f1), slot(2, &n2, &f2)],
                                tag,
                            });
                        }
                    }
                }
            }
        }
    }
    shapes
}

/// The result of analysing one triple shape.
#[derive(Clone, Debug)]
pub struct TripleAnalysis {
    /// The shape that was analysed.
    pub shape: TripleShape,
    /// Commutative cases (satisfiable path ∧ six-order agreement).
    pub cases: Vec<CommutativeCase>,
    /// Number of explored paths (feasible or not).
    pub paths_explored: usize,
    /// Number of feasible but **not** commutative paths.
    pub non_commutative_paths: usize,
    /// True when the path budget cut the exploration short.
    pub truncated: bool,
}

/// Analyses one triple shape: symbolically executes all six orders from
/// the same unconstrained state and classifies every explored path. The
/// produced [`CommutativeCase`]s feed [`generate_triple_tests`] exactly as
/// pair cases feed `generate_tests`.
pub fn analyze_triple(shape: &TripleShape, cfg: &ModelConfig) -> TripleAnalysis {
    let domains = default_domains();
    let kinds = [shape.calls.0, shape.calls.1, shape.calls.2];
    let unit = AnalysisUnit::new(
        cfg,
        &[0, 1, 2].map(|i| (kinds[i], &shape.slots[i])),
        |order, call| format!("o{order}.c{call}"),
    );
    // One incremental solver for the unit: the pruning probes extend the
    // run they follow, and every query opens with the unit's assumptions.
    let mut solver = CaseSolver::default();
    let outcome = explore_pruned(
        |path| {
            unit.run(path);
        },
        |condition| solver.retarget(condition).satisfiable(&domains),
        TRIPLE_PATH_BUDGET,
        TRIPLE_DECISION_BUDGET,
    );
    let paths_explored = outcome.results.len();
    // Pruning only vetted branch-alternative prefixes; the complete path
    // (and the much larger agreement conjunction) still needs the full
    // classification, as in `analyze_pair`. One query per leaf decides
    // feasibility here: the pruned explorer never schedules a subtree
    // under a refuted prefix, so no two leaves share one and a
    // `RefutedPrefixMemo` would bisect for prefixes nobody else is under.
    // The query goes to the unit's solver, which keeps the assumptions
    // compiled, and the leaf's classification query then compiles only the
    // agreement conjunction.
    let mut cases = Vec::new();
    let mut non_commutative_paths = 0;
    for leaf in outcome.results {
        if !solver.retarget(&leaf.condition).satisfiable(&domains) {
            continue;
        }
        match unit.classify(leaf, &mut solver, &domains) {
            Some(case) => cases.push(case),
            None => non_commutative_paths += 1,
        }
    }
    TripleAnalysis {
        shape: shape.clone(),
        cases,
        paths_explored,
        non_commutative_paths,
        truncated: outcome.truncated,
    }
}

/// TESTGEN for triples: the pair's generator over three calls —
/// witnesses through the shared sharded solver cache, deduplicated by
/// isomorphism signature over the relevant variables, each representative
/// materialised — without the repair loop, so a triple whose first
/// witness is unconstructible is skipped for its first failure reason.
pub fn generate_triple_tests(
    shape: &TripleShape,
    cases: &[CommutativeCase],
    cfg: &ModelConfig,
    names: &[String],
    max_per_case: usize,
) -> GeneratedTests {
    let kinds = [shape.calls.0, shape.calls.1, shape.calls.2];
    let calls: Vec<CallSpec<'_>> = (0..3)
        .map(|i| CallSpec {
            kind: kinds[i],
            slots: &shape.slots[i],
            tag: ARG_TAGS[i],
        })
        .collect();
    generate_tests_with(
        &calls,
        &shape.tag,
        cases,
        cfg,
        names,
        max_per_case,
        |_, _| None,
    )
}

/// A family of calls coupled through shared kernel state, swept as every
/// unordered triple (with repetition) of its members.
#[derive(Clone, Copy, Debug)]
pub struct TripleFamily {
    /// Short family name used in reports and baselines.
    pub name: &'static str,
    /// The member calls.
    pub calls: &'static [CallKind],
}

/// The coupled families the triple sweep covers: calls sharing the
/// descriptor table, and calls sharing a descriptor's file offset.
pub const TRIPLE_FAMILIES: &[TripleFamily] = &[
    TripleFamily {
        name: "fd",
        calls: &[
            CallKind::Open,
            CallKind::Close,
            CallKind::Read,
            CallKind::Write,
            CallKind::Pipe,
        ],
    },
    TripleFamily {
        name: "offset",
        calls: &[CallKind::Lseek, CallKind::Read, CallKind::Write],
    },
];

/// Per-triple accounting of one family sweep.
#[derive(Clone, Debug)]
pub struct TripleRow {
    /// The (unordered) call triple.
    pub calls: (CallKind, CallKind, CallKind),
    /// Shapes enumerated for the triple.
    pub shapes: usize,
    /// SIM-commutative cases across all shapes.
    pub commutative_cases: usize,
    /// Paths explored across all shapes.
    pub paths_explored: usize,
    /// Feasible non-commutative paths across all shapes.
    pub non_commutative_paths: usize,
    /// Concrete tests materialised for the commutative cases.
    pub tests: Vec<ConcreteTest>,
    /// Representatives with no faithful construction.
    pub skipped: usize,
    /// Why each skipped representative was skipped.
    pub skip_reasons: SkipHistogram,
    /// True when any shape's exploration hit the path budget.
    pub truncated: bool,
}

/// The outcome of sweeping one family.
#[derive(Clone, Debug)]
pub struct TripleFamilyReport {
    /// The family's short name.
    pub family: &'static str,
    /// One row per unordered triple, in enumeration order.
    pub rows: Vec<TripleRow>,
}

impl TripleFamilyReport {
    /// Total materialised tests across the family.
    pub fn total_tests(&self) -> usize {
        self.rows.iter().map(|r| r.tests.len()).sum()
    }

    /// Triples with at least one SIM-commutative case.
    pub fn commutative_triples(&self) -> usize {
        self.rows.iter().filter(|r| r.commutative_cases > 0).count()
    }

    /// Deterministic textual rendering (one line per triple), used by the
    /// committed baseline gate: byte-identical across thread counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let truncated = if row.truncated { " truncated" } else { "" };
            out.push_str(&format!(
                "{}/{}_{}_{} shapes={} cases={} noncommut={} tests={} skipped={}{}\n",
                self.family,
                row.calls.0.name(),
                row.calls.1.name(),
                row.calls.2.name(),
                row.shapes,
                row.commutative_cases,
                row.non_commutative_paths,
                row.tests.len(),
                row.skipped,
                truncated,
            ));
        }
        out
    }
}

/// Sweeps one family: analyses and materialises every unordered triple of
/// its members on `threads` claiming workers ([`claim_in_order`] keeps the
/// row order — and so the rendered report and every test id — identical
/// for every thread count). `names` supplies the concrete file names
/// TESTGEN uses; it must have at least `cfg.names` entries.
pub fn triple_family_sweep(
    family: &TripleFamily,
    cfg: &ModelConfig,
    names: &[String],
    max_per_case: usize,
    threads: usize,
) -> TripleFamilyReport {
    let mut units: Vec<(CallKind, CallKind, CallKind)> = Vec::new();
    for (i, &a) in family.calls.iter().enumerate() {
        for (j, &b) in family.calls.iter().enumerate().skip(i) {
            for &c in &family.calls[j..] {
                units.push((a, b, c));
            }
        }
    }
    let mut rows = Vec::with_capacity(units.len());
    claim_in_order(
        &units,
        threads,
        |_, &triple| {
            let mut row = TripleRow {
                calls: triple,
                shapes: 0,
                commutative_cases: 0,
                paths_explored: 0,
                non_commutative_paths: 0,
                tests: Vec::new(),
                skipped: 0,
                skip_reasons: SkipHistogram::default(),
                truncated: false,
            };
            for shape in enumerate_triple_shapes(triple, cfg) {
                row.shapes += 1;
                let analysis = analyze_triple(&shape, cfg);
                row.commutative_cases += analysis.cases.len();
                row.paths_explored += analysis.paths_explored;
                row.non_commutative_paths += analysis.non_commutative_paths;
                row.truncated |= analysis.truncated;
                if analysis.cases.is_empty() {
                    continue;
                }
                let generated =
                    generate_triple_tests(&shape, &analysis.cases, cfg, names, max_per_case);
                row.tests.extend(generated.tests);
                row.skipped += generated.skipped;
                for (reason, count) in generated.skip_reasons {
                    *row.skip_reasons.entry(reason).or_default() += count;
                }
            }
            row
        },
        |_, row| rows.push(row),
    );
    TripleFamilyReport {
        family: family.name,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{replay, run_test, InOrder, KernelFactory, Sv6Factory};

    fn names() -> Vec<String> {
        (0..4).map(|i| format!("f{i}")).collect()
    }

    #[test]
    fn triple_shapes_chain_the_canonical_numbering() {
        let cfg = triple_config();
        let shapes =
            enumerate_triple_shapes((CallKind::Close, CallKind::Close, CallKind::Close), &cfg);
        // One fd argument each over two slots: [0][0][0], [0][0][1],
        // [0][1][0], [0][1][1] — four canonical shapes, no gaps.
        assert_eq!(shapes.len(), 4);
        assert!(shapes
            .iter()
            .all(|s| s.slots[0].fds == vec![0] && s.slots.iter().all(|sl| sl.proc == 0)));
        let cores: Vec<usize> = shapes[0].slots.iter().map(|s| s.core).collect();
        assert_eq!(cores, vec![0, 1, 2]);
    }

    #[test]
    fn extension_calls_have_no_triple_shapes() {
        let cfg = triple_config();
        assert!(
            enumerate_triple_shapes((CallKind::Socket, CallKind::Send, CallKind::Recv), &cfg)
                .is_empty()
        );
    }

    #[test]
    fn reads_of_the_same_descriptor_commute_as_a_triple() {
        let cfg = triple_config();
        let shapes =
            enumerate_triple_shapes((CallKind::Read, CallKind::Read, CallKind::Read), &cfg);
        let same_fd = shapes
            .iter()
            .find(|s| s.slots.iter().all(|sl| sl.fds == vec![0]))
            .expect("all-same-descriptor shape");
        let analysis = analyze_triple(same_fd, &cfg);
        assert!(analysis.paths_explored > 0);
        assert!(
            !analysis.cases.is_empty(),
            "three reads of one descriptor must commute somewhere"
        );
        assert!(!analysis.truncated);
    }

    #[test]
    fn lseek_makes_offset_triples_genuinely_non_commutative() {
        let cfg = triple_config();
        let shapes =
            enumerate_triple_shapes((CallKind::Lseek, CallKind::Read, CallKind::Write), &cfg);
        let same_fd = shapes
            .iter()
            .find(|s| s.slots.iter().all(|sl| sl.fds == vec![0]))
            .expect("all-same-descriptor shape");
        let analysis = analyze_triple(same_fd, &cfg);
        assert!(
            analysis.non_commutative_paths > 0,
            "seek/read/write over one offset must have order-dependent paths"
        );
    }

    #[test]
    fn generated_triples_replay_on_the_simulated_kernel() {
        let cfg = triple_config();
        let shapes =
            enumerate_triple_shapes((CallKind::Read, CallKind::Read, CallKind::Read), &cfg);
        let same_fd = shapes
            .iter()
            .find(|s| s.slots.iter().all(|sl| sl.fds == vec![0]))
            .unwrap();
        let analysis = analyze_triple(same_fd, &cfg);
        let generated = generate_triple_tests(same_fd, &analysis.cases, &cfg, &names(), 2);
        assert!(!generated.tests.is_empty());
        let factory = Sv6Factory { cores: 3 };
        for test in &generated.tests {
            let base = run_test(&factory, test);
            assert!(base.setup_ok, "setup must replay cleanly: {}", test.id);
            // A SIM-commutative triple's results are order-independent on
            // the (sequential-per-order) simulated kernel.
            for order in [[2, 1, 0], [1, 0, 2]] {
                let kernel = factory.build();
                let other = replay(&kernel, kernel.lines(), test, InOrder(&order));
                assert_eq!(base.results, other.results, "order-dependent: {}", test.id);
            }
        }
    }
}
