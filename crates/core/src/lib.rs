//! # scr-core — COMMUTER
//!
//! The paper's tool chain (§5, Figure 3) has three stages:
//!
//! * **ANALYZER** ([`analyzer`]) takes the symbolic interface model
//!   (`scr-model`) and computes *commutativity conditions*: for each pair of
//!   operations, the precise conditions on arguments and state under which
//!   the pair SIM-commutes.
//! * **TESTGEN** ([`testgen`]) turns each satisfiable commutativity
//!   condition into concrete test cases — setup operations plus the two
//!   commutative operations — aiming for *conflict coverage*: one test per
//!   isomorphism class of satisfying assignments.
//! * **MTRACE** ([`driver`]) runs each test case against a real
//!   implementation (`scr-kernel` over the simulated machine of
//!   `scr-mtrace`) and reports the cache lines shared between the two
//!   operations, i.e. the violations of the commutativity rule.
//!
//! [`report`] aggregates the per-pair outcomes into the Figure 6 heatmap
//! and summary statistics, and [`pipeline`] wires the four stages together
//! behind one call used by the benchmarks and examples.

pub mod analyzer;
pub mod driver;
pub mod pipeline;
pub mod report;
pub mod shapes;
pub mod sweep;
pub mod testgen;
pub mod triples;

pub use analyzer::{analyze_pair, CommutativeCase, PairAnalysis};
pub use driver::{
    differential_check, run_test, run_test_order, ConcreteReplayer, DifferentialOutcome,
    KernelFactory, LinuxLikeFactory, Sv6Factory, TestOutcome,
};
pub use pipeline::{
    run_commuter, run_commuter_with_progress, run_sweep, CommuterConfig, CommuterResults,
    PairTiming, SweepEvent, Swept, SweptUnit,
};
pub use report::{Figure6Report, PairCell};
pub use shapes::{enumerate_shapes, PairShape};
pub use sweep::{claim_in_order, effective_threads};
pub use testgen::{
    generate_tests, solver_cache_clear, solver_cache_stats, solver_cache_thread_stats,
    ConcreteTest, GeneratedTests, SkipHistogram, SkipReason, SolverCacheStats, BAD_CHILD_PID,
    BAD_SOCK_ID, CHILD_BASE_PID,
};
pub use triples::{
    analyze_triple, enumerate_triple_shapes, generate_triple_tests, run_triple_order,
    run_triple_test, triple_config, triple_family_sweep, ConcreteTripleTest, GeneratedTripleTests,
    TripleAnalysis, TripleFamily, TripleFamilyReport, TripleOutcome, TripleRow, TripleShape,
    TRIPLE_FAMILIES, TRIPLE_ORDERS,
};
