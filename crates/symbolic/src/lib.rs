//! # scr-symbolic — a small-scope symbolic execution engine
//!
//! COMMUTER's ANALYZER (§5.1) symbolically executes an interface model to
//! compute the exact conditions under which operations commute, and TESTGEN
//! (§5.2) asks an SMT solver for satisfying assignments of those conditions.
//! The paper uses Z3; this crate provides the (much smaller) engine the rest
//! of the workspace uses instead, sized for the constraints the POSIX model
//! actually produces:
//!
//! * equalities and disequalities between *uninterpreted* values (file
//!   names), which the driver reduces to explicit equality-partition
//!   ("shape") enumeration before execution;
//! * bounded integers (inode numbers, page-granular offsets, descriptor
//!   indices) with small explicit candidate domains;
//! * booleans (existence flags, permission bits) and the boolean structure
//!   of path conditions.
//!
//! The pieces:
//!
//! * [`expr`] — a hash-consed-ish expression AST with constant folding, free
//!   variable collection and evaluation under an assignment.
//! * [`types`] — ergonomic wrappers ([`SymBool`], [`SymInt`]) and the
//!   [`SymContext`] variable factory.
//! * [`executor`] — replay-based path exploration: model code calls
//!   [`executor::PathCtx::branch`] and the engine re-runs the closure once
//!   per decision vector, handing on a path condition per leaf;
//!   [`RefutedPrefixMemo`] decides the leaves' feasibility as they arrive,
//!   with one solver refutation per dead decision prefix.
//! * [`solver`] — an indexed, propagating finite-domain model finder:
//!   constraints compile once into a DAG arena ([`CaseSolver`]; a query
//!   that shares a prefix with the last one compiles only the rest) with a
//!   variable→constraint watch index, incremental decided-status caching,
//!   forward checking and conflict-directed backjumping; satisfiability
//!   checks use dynamic MRV ordering while enumeration keeps the canonical
//!   static order (solution sequences are reproducible). The naive
//!   tree-walking engine survives as [`solver::naive`], the differential
//!   oracle.
//! * [`isomorphism`] — canonical signatures of assignments, used by TESTGEN
//!   to avoid emitting isomorphic duplicates (conflict coverage, §5.2).
//! * [`fnv`] — [`Fnv64`], the one FNV-1a behind COMMUTER's structural
//!   fingerprints.

pub mod executor;
pub mod expr;
pub mod fnv;
pub mod isomorphism;
pub mod solver;
pub mod types;

pub use executor::{
    explore, explore_each, explore_pruned, replay, ExploreOutcome, PathCtx, PathResult,
    RefutedPrefixMemo,
};
pub use expr::{Expr, ExprRef, Sort, Var, VarId};
pub use fnv::Fnv64;
pub use isomorphism::signature;
pub use solver::{
    all_solutions, eval_bool, satisfiable, solve, solve_with_preference, Assignment, CaseSolver,
    Domains, Value,
};
pub use types::{SymBool, SymContext, SymInt};
