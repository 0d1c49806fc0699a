//! Randomized differential tests: the indexed engine against the naive
//! oracle.
//!
//! The compiled solver (`CaseSolver` — DAG arena, watch index, forward
//! checking, conflict-directed backjumping) must be *behaviourally
//! identical* to the naive tree-walking backtracker it replaced: TESTGEN's
//! corpora are derived from the solution sequence, so agreement on
//! satisfiability alone is not enough — the engines must enumerate the
//! same solutions in the same order, including under
//! `solve_with_preference`'s pin/vary semantics. These tests drive both
//! engines over seeded random constraint sets and assert exactly that.

use scr_symbolic::solver::naive;
use scr_symbolic::{
    all_solutions, satisfiable, solve_with_preference, Assignment, CaseSolver, Domains, ExprRef,
    SymBool, SymContext, SymInt, Value, Var,
};

/// A small deterministic PRNG (xorshift64*), so failures reproduce from the
/// printed seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a random constraint set over a few booleans and small integers,
/// exercising every expression node kind (including shared subtrees via
/// reuse of previously built expressions).
fn random_constraints(ctx: &SymContext, rng: &mut Rng) -> Vec<ExprRef> {
    let bools: Vec<SymBool> = (0..3).map(|i| ctx.bool_var(&format!("b{i}"))).collect();
    let ints: Vec<SymInt> = (0..4).map(|i| ctx.int_var(&format!("x{i}"))).collect();
    random_constraints_over(&bools, &ints, rng)
}

/// [`random_constraints`] over variables the caller made, so many sets can
/// share them.
fn random_constraints_over(bools: &[SymBool], ints: &[SymInt], rng: &mut Rng) -> Vec<ExprRef> {
    // A pool of reusable subexpressions: later picks alias earlier ones,
    // building genuine DAGs (the compiled engine's memoization paths).
    let mut int_pool: Vec<SymInt> = ints.to_vec();
    let mut bool_pool: Vec<SymBool> = bools.to_vec();
    for _ in 0..rng.below(6) + 2 {
        let a = int_pool[rng.below(int_pool.len())].clone();
        let b = int_pool[rng.below(int_pool.len())].clone();
        let e = match rng.below(4) {
            0 => a.add(&b),
            1 => a.sub(&b),
            2 => SymInt::ite(&bool_pool[rng.below(bool_pool.len())], &a, &b),
            _ => a.add(&SymInt::from_i64(rng.below(3) as i64)),
        };
        int_pool.push(e);
    }
    for _ in 0..rng.below(6) + 2 {
        let a = int_pool[rng.below(int_pool.len())].clone();
        let b = int_pool[rng.below(int_pool.len())].clone();
        let p = bool_pool[rng.below(bool_pool.len())].clone();
        let q = bool_pool[rng.below(bool_pool.len())].clone();
        let e = match rng.below(6) {
            0 => a.eq(&b),
            1 => a.lt(&b),
            2 => a.le(&b),
            3 => p.and(&q),
            4 => p.or(&q.not()),
            _ => p.implies(&q),
        };
        bool_pool.push(e);
    }
    (0..rng.below(4) + 1)
        .map(|_| bool_pool[rng.below(bool_pool.len())].expr().clone())
        .collect()
}

#[test]
fn engines_agree_on_satisfiability_and_solution_sequence() {
    let mut disagreements = Vec::new();
    for seed in 1..=400u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let ctx = SymContext::new();
        let constraints = random_constraints(&ctx, &mut rng);
        let domains = Domains::new(vec![0, 1, 2]);
        let fast = all_solutions(&constraints, &domains, 64);
        let slow = naive::all_solutions(&constraints, &domains, 64);
        if fast != slow {
            disagreements.push(format!(
                "seed {seed}: sequence mismatch ({} fast vs {} naive solutions)",
                fast.len(),
                slow.len()
            ));
        }
        if satisfiable(&constraints, &domains) == slow.is_empty() {
            disagreements.push(format!("seed {seed}: satisfiability mismatch"));
        }
    }
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
}

#[test]
fn engines_agree_on_pin_and_vary_semantics() {
    let mut disagreements = Vec::new();
    for seed in 1..=200u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0xD1B54A32D192ED03));
        let ctx = SymContext::new();
        let constraints = random_constraints(&ctx, &mut rng);
        let domains = Domains::new(vec![0, 1, 2]);
        let vars = ctx.variables();
        // Pin a random subset of variables to values from a first witness
        // (when one exists), vary a random disjoint-ish subset.
        let witness = naive::solve(&constraints, &domains);
        let mut pinned = Assignment::new();
        if let Some(w) = &witness {
            for var in &vars {
                if rng.below(3) == 0 {
                    if let Some(value) = w.get(var.id) {
                        pinned.set(var.id, value);
                    }
                }
            }
        }
        let vary: Vec<Var> = vars.iter().filter(|_| rng.below(3) == 0).cloned().collect();
        let limit = rng.below(24) + 1;
        let fast = solve_with_preference(&constraints, &domains, &pinned, &vary, limit);
        let slow = naive::solve_with_preference(&constraints, &domains, &pinned, &vary, limit);
        if fast != slow {
            disagreements.push(format!(
                "seed {seed}: preference mismatch ({} fast vs {} naive, {} pins, {} vary)",
                fast.len(),
                slow.len(),
                pinned.len(),
                vary.len()
            ));
        }
    }
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
}

#[test]
fn case_solver_queries_are_independent() {
    // One compiled CaseSolver serving interleaved queries (the TESTGEN
    // repair-loop pattern) must answer each exactly as a fresh solver
    // would — no state may leak between queries.
    let mut rng = Rng::new(0xC0FFEE);
    let ctx = SymContext::new();
    let constraints = random_constraints(&ctx, &mut rng);
    let domains = Domains::new(vec![0, 1, 2]);
    let solver = CaseSolver::new(&constraints);
    let baseline = solver.all_solutions(&domains, 32);
    let vars = ctx.variables();
    for round in 0..8 {
        let mut pinned = Assignment::new();
        if let Some(first) = baseline.first() {
            if let Some(value) = first.get(vars[round % vars.len()].id) {
                pinned.set(vars[round % vars.len()].id, value);
            }
        }
        let vary: Vec<Var> = vec![vars[(round + 1) % vars.len()].clone()];
        assert_eq!(
            solver.solve_with_preference(&domains, &pinned, &vary, 16),
            naive::solve_with_preference(&constraints, &domains, &pinned, &vary, 16),
            "round {round} diverged"
        );
        // Interleave a plain enumeration: must still match the baseline.
        assert_eq!(solver.all_solutions(&domains, 32), baseline);
    }
}

#[test]
fn sort_mismatch_constraints_are_unsatisfiable_in_both_engines() {
    // A constraint that misuses sorts (comparing a bool to an int) is
    // `None` under both evaluators and must reject every assignment.
    let ctx = SymContext::new();
    let b = ctx.bool_var("b");
    let x = ctx.int_var("x");
    let ill = SymBool(scr_symbolic::Expr::lt(b.expr(), x.expr()));
    let constraints = vec![ill.expr().clone()];
    let domains = Domains::new(vec![0, 1]);
    assert_eq!(all_solutions(&constraints, &domains, 16), Vec::new());
    assert_eq!(naive::all_solutions(&constraints, &domains, 16), Vec::new());
    assert!(!satisfiable(&constraints, &domains));
}

#[test]
fn pinning_to_out_of_domain_values_matches_naive() {
    // Pins replace the domain outright (even with values outside it); both
    // engines must agree on the result.
    let ctx = SymContext::new();
    let x = ctx.int_var("x");
    let y = ctx.int_var("y");
    let constraints = vec![x.lt(&y).expr().clone()];
    let domains = Domains::new(vec![0, 1]);
    let mut pinned = Assignment::new();
    pinned.set(1, Value::Int(9));
    let fast = solve_with_preference(&constraints, &domains, &pinned, &[], 8);
    let slow = naive::solve_with_preference(&constraints, &domains, &pinned, &[], 8);
    assert_eq!(fast, slow);
    assert!(fast.iter().all(|s| s.int(1) == 9));
}

#[test]
fn retargeted_solver_answers_as_a_fresh_one() {
    // One solver moved through a long sequence of queries, the analyzer's
    // pattern: a query extends the last one by a random suffix, cuts it
    // back to a random depth, or starts over from expressions built anew
    // after every old one was dropped, so freed addresses can come back
    // under different expressions. Every answer must be the one-shot
    // solver's and the naive oracle's.
    let mut disagreements = Vec::new();
    for seed in 1..=60u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x94D049BB133111EB));
        let ctx = SymContext::new();
        let bools: Vec<SymBool> = (0..3).map(|i| ctx.bool_var(&format!("b{i}"))).collect();
        let ints: Vec<SymInt> = (0..4).map(|i| ctx.int_var(&format!("x{i}"))).collect();
        let domains = Domains::new(vec![0, 1, 2]);
        let mut solver = CaseSolver::default();
        let mut query: Vec<ExprRef> = Vec::new();
        for step in 0..40 {
            match rng.below(8) {
                0..=3 => query.extend(random_constraints_over(&bools, &ints, &mut rng)),
                4..=5 => query.truncate(rng.below(query.len() + 1)),
                6 => {
                    query.clear();
                    solver.retarget(&[]);
                    query.extend(random_constraints_over(&bools, &ints, &mut rng));
                }
                _ => {
                    // Drop the query while the solver still holds it, then
                    // build its replacement.
                    query.clear();
                    query.extend(random_constraints_over(&bools, &ints, &mut rng));
                }
            }
            let got = solver.retarget(&query).satisfiable(&domains);
            let fresh = satisfiable(&query, &domains);
            let oracle = naive::solve(&query, &domains).is_some();
            if got != fresh || got != oracle {
                disagreements.push(format!(
                    "seed {seed} step {step}: retargeted {got}, fresh {fresh}, naive {oracle} \
                     ({} constraints)",
                    query.len()
                ));
            }
            if solver.all_solutions(&domains, 8) != naive::all_solutions(&query, &domains, 8) {
                disagreements.push(format!("seed {seed} step {step}: solution sequence"));
            }
        }
        assert!(solver.constraints_compiled() <= solver.constraints_queried());
    }
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
}
