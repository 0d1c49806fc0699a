//! # scr-core — COMMUTER
//!
//! The paper's tool chain (§5, Figure 3) has three stages:
//!
//! * **ANALYZER** ([`analyzer`]) takes the symbolic interface model
//!   (`scr-model`) and computes *commutativity conditions*: for each pair of
//!   operations, the precise conditions on arguments and state under which
//!   the pair SIM-commutes.
//! * **TESTGEN** ([`testgen`]) turns each satisfiable commutativity
//!   condition into concrete test cases — a [`ConcreteTest`]: setup
//!   operations plus one commutative operation per call, two for a pair
//!   and three for a triple ([`triples`]) — aiming for *conflict
//!   coverage*: one test per isomorphism class of satisfying assignments.
//! * **MTRACE** ([`driver`]) runs each test case against a real
//!   implementation (`scr-kernel` over the simulated machine of
//!   `scr-mtrace`, or over real threads), operation `i` on core `i`, and
//!   reports the cache lines shared between the operations, i.e. the
//!   violations of the commutativity rule. One function, [`replay`], does
//!   that on every substrate and schedule. The same driver decides whether
//!   results observed elsewhere (the real-threads host kernel) match some
//!   sequential order ([`linearise`]).
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

pub use analyzer::{analyze_pair, orders, CommutativeCase, PairAnalysis};
pub use driver::{
    differential_check, linearise, replay, run_test, ConcreteReplayer, DifferentialOutcome,
    InOrder, KernelFactory, Linearisation, LinuxLikeFactory, Race, Replay, Schedule, Sv6Factory,
    TestOutcome,
};
pub use pipeline::{
    run_commuter, run_commuter_with_progress, run_sweep, CommuterConfig, CommuterResults,
    PairTiming, SweepEvent, Swept, SweptUnit,
};
pub use report::{Figure6Report, PairCell};
pub use shapes::{enumerate_shapes, PairShape};
pub use sweep::{claim_in_order, effective_threads};
pub use testgen::{
    generate_tests, solver_cache_clear, solver_cache_stats, ConcreteTest, GeneratedTests,
    SkipHistogram, SkipReason, SolverCacheStats, BAD_CHILD_PID, BAD_SOCK_ID, CHILD_BASE_PID,
};
pub use triples::{
    analyze_triple, enumerate_triple_shapes, generate_triple_tests, triple_config,
    triple_family_sweep, TripleAnalysis, TripleFamily, TripleFamilyReport, TripleRow, TripleShape,
    TRIPLE_FAMILIES,
};
