//! An indexed, propagating finite-domain model finder.
//!
//! The constraints COMMUTER's POSIX model produces are boolean combinations
//! of equalities, orderings and small arithmetic over variables with small
//! domains (existence flags, page-granular offsets drawn from a handful of
//! candidates, equality-partition representatives). The expressions are
//! reference-counted **DAGs**: state-equality obligations share whole
//! `ite`-subtrees between constraints, and offset arithmetic (`lseek` ∥
//! `write`) composes those shared subtrees several levels deep. A naive
//! tree-walking evaluator re-evaluates every shared subtree once per
//! reference, which is exponential in the sharing depth — that, plus
//! re-scanning every constraint from the root at every search node, is what
//! made the arithmetic-heavy pairs take minutes where every other pair
//! finished in milliseconds.
//!
//! The engine in this module is the documented substitution for Z3 (see
//! DESIGN.md) and earns its keep the same way real solvers do:
//!
//! * **Compilation** ([`CaseSolver`]) — constraints are flattened
//!   (top-level conjunctions split into independently-checkable pieces),
//!   variables are interned to contiguous indices, and each expression DAG
//!   is compiled once into a node arena with shared subtrees deduplicated
//!   by pointer identity. Evaluation stamps a per-node memo, so each
//!   reachable DAG node is computed at most once per evaluation no matter
//!   how often it is shared. Compilation is incremental, as Z3's is across
//!   queries: [`CaseSolver::retarget`] keeps the compiled prefix of
//!   constraints the next query shares pointer for pointer and compiles
//!   only the rest, so the analyzer compiles each analysis unit's
//!   assumptions once rather than once per query. [`CaseSolver::new`] is
//!   `retarget` on an empty solver, the one compile path.
//! * **Watch indexing** — a variable → constraints index built once per
//!   compilation; assigning a variable re-examines only the constraints
//!   that mention it.
//! * **Decided-status caching** — a constraint that evaluates to `true`
//!   under the current partial assignment is marked decided on a trail and
//!   never re-evaluated until backtracking unwinds past that point.
//! * **Forward checking** — when a constraint is down to a single
//!   unassigned variable, candidate values that would falsify it are
//!   pruned from that variable's domain (with the pruning constraint
//!   recorded for conflict analysis); a wiped-out domain fails the subtree
//!   immediately.
//! * **Conflict-directed backjumping** — conflict sets are compact level
//!   bitsets; a level absent from the conflict set of an exhausted subtree
//!   is skipped over, exactly as the previous engine did with
//!   `BTreeSet<usize>` sets.
//! * **MRV for satisfiability** — [`satisfiable`] (used by the analyzer,
//!   which only needs a yes/no) selects the next variable dynamically by
//!   minimum remaining values. Enumeration entry points keep the **static**
//!   id-ordered search (with the `vary_first` tail semantics of
//!   [`solve_with_preference`]) so the solution *sequence* is identical to
//!   the naive engine's — TESTGEN's corpora are byte-for-byte reproducible
//!   across engines, which the equivalence tests assert.
//!
//! The naive tree-walking evaluator ([`eval`], [`eval_partial`]) and the
//! original backtracking search ([`naive`]) are kept as the differential
//! oracle: randomized tests check the two engines agree on satisfiability,
//! on the full solution sequence, and on pin/vary semantics.

use crate::expr::{Expr, ExprRef, Sort, Var, VarId};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// A concrete value assigned to a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
}

impl Value {
    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(_) => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Bool(_) => None,
        }
    }
}

/// A (partial or total) assignment of values to variables.
///
/// Variable ids are allocated contiguously by `SymContext`, so the store is
/// a dense vector indexed by [`VarId`] — reads and writes are plain slice
/// accesses instead of tree lookups. Trailing unassigned slots are
/// irrelevant to equality.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    values: Vec<Option<Value>>,
    assigned: usize,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Self {
        Assignment::default()
    }

    /// Sets a variable's value.
    pub fn set(&mut self, var: VarId, value: Value) {
        let idx = var as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, None);
        }
        if self.values[idx].is_none() {
            self.assigned += 1;
        }
        self.values[idx] = Some(value);
    }

    /// Removes a variable's value (used by the solver when backtracking).
    pub fn unset(&mut self, var: VarId) {
        if let Some(slot) = self.values.get_mut(var as usize) {
            if slot.take().is_some() {
                self.assigned -= 1;
            }
        }
    }

    /// Reads a variable's value.
    pub fn get(&self, var: VarId) -> Option<Value> {
        self.values.get(var as usize).copied().flatten()
    }

    /// The integer value of a variable (panics if unassigned or a bool).
    pub fn int(&self, var: VarId) -> i64 {
        self.get(var)
            .and_then(|v| v.as_int())
            .expect("variable must have an integer value")
    }

    /// The boolean value of a variable (panics if unassigned or an int).
    pub fn bool(&self, var: VarId) -> bool {
        self.get(var)
            .and_then(|v| v.as_bool())
            .expect("variable must have a boolean value")
    }

    /// Iterates over `(variable, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|value| (i as VarId, value)))
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// `true` when nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }
}

impl PartialEq for Assignment {
    fn eq(&self, other: &Self) -> bool {
        // Trailing `None` padding must not distinguish assignments.
        let longest = self.values.len().max(other.values.len());
        self.assigned == other.assigned
            && (0..longest).all(|i| self.get(i as VarId) == other.get(i as VarId))
    }
}

impl Eq for Assignment {}

/// Boolean candidate values, in the enumeration order every engine uses.
const BOOL_CANDIDATES: [Value; 2] = [Value::Bool(false), Value::Bool(true)];

/// Candidate domains for the search.
#[derive(Clone, Debug)]
pub struct Domains {
    /// Default candidate values for integer variables (pre-wrapped so
    /// [`Domains::candidates`] can hand out a borrowed slice).
    default_ints: Vec<Value>,
    /// Per-variable overrides.
    per_var: BTreeMap<VarId, Vec<Value>>,
}

impl Domains {
    /// Domains with the given default integer candidates.
    pub fn new(default_ints: Vec<i64>) -> Self {
        Domains {
            default_ints: default_ints.into_iter().map(Value::Int).collect(),
            per_var: BTreeMap::new(),
        }
    }

    /// Overrides the candidates for one variable.
    pub fn set_var(&mut self, var: VarId, candidates: Vec<Value>) {
        self.per_var.insert(var, candidates);
    }

    /// The candidate values for a variable, in enumeration order. Borrowed:
    /// the search interrogates domains at every node, and the previous
    /// `Vec` return cloned the candidate list each time.
    pub fn candidates(&self, var: &Var) -> &[Value] {
        if let Some(c) = self.per_var.get(&var.id) {
            return c;
        }
        match var.sort {
            Sort::Bool => &BOOL_CANDIDATES,
            Sort::Int => &self.default_ints,
        }
    }
}

impl Default for Domains {
    fn default() -> Self {
        Domains::new(vec![0, 1, 2, 3])
    }
}

/// Evaluates an expression under a (total, for its free variables)
/// assignment. Returns `None` if a needed variable is unassigned or a sort
/// is misused.
///
/// This is the *naive oracle* evaluator: it walks the expression as a tree
/// (shared subtrees are re-evaluated per reference) and is kept — along
/// with [`eval_partial`] and the [`naive`] search — as the differential
/// reference for the compiled engine.
pub fn eval(expr: &ExprRef, assignment: &Assignment) -> Option<Value> {
    match &**expr {
        Expr::ConstBool(b) => Some(Value::Bool(*b)),
        Expr::ConstInt(v) => Some(Value::Int(*v)),
        Expr::Var(v) => assignment.get(v.id),
        Expr::Not(a) => Some(Value::Bool(!eval(a, assignment)?.as_bool()?)),
        Expr::And(parts) => {
            let mut acc = true;
            for p in parts {
                acc &= eval(p, assignment)?.as_bool()?;
                if !acc {
                    return Some(Value::Bool(false));
                }
            }
            Some(Value::Bool(acc))
        }
        Expr::Or(parts) => {
            let mut acc = false;
            for p in parts {
                acc |= eval(p, assignment)?.as_bool()?;
                if acc {
                    return Some(Value::Bool(true));
                }
            }
            Some(Value::Bool(acc))
        }
        Expr::Eq(a, b) => {
            let va = eval(a, assignment)?;
            let vb = eval(b, assignment)?;
            Some(Value::Bool(va == vb))
        }
        Expr::Lt(a, b) => Some(Value::Bool(
            eval(a, assignment)?.as_int()? < eval(b, assignment)?.as_int()?,
        )),
        Expr::Add(a, b) => Some(Value::Int(
            eval(a, assignment)?.as_int()? + eval(b, assignment)?.as_int()?,
        )),
        Expr::Sub(a, b) => Some(Value::Int(
            eval(a, assignment)?.as_int()? - eval(b, assignment)?.as_int()?,
        )),
        Expr::Ite(c, t, e) => {
            if eval(c, assignment)?.as_bool()? {
                eval(t, assignment)
            } else {
                eval(e, assignment)
            }
        }
    }
}

/// Evaluates a boolean expression, returning `false` on sort errors or
/// missing variables (convenient for filters).
pub fn eval_bool(expr: &ExprRef, assignment: &Assignment) -> bool {
    eval(expr, assignment)
        .and_then(|v| v.as_bool())
        .unwrap_or(false)
}

/// Three-valued evaluation under a *partial* assignment: `None` means the
/// value is not yet determined. Conjunctions and disjunctions short-circuit
/// (a single `false` conjunct decides the conjunction even if other parts
/// are unknown), which is what lets a solver prune subtrees long before
/// every variable is assigned. Naive oracle counterpart of the compiled
/// engine's incremental evaluation.
pub fn eval_partial(expr: &ExprRef, assignment: &Assignment) -> Option<Value> {
    match &**expr {
        Expr::ConstBool(b) => Some(Value::Bool(*b)),
        Expr::ConstInt(v) => Some(Value::Int(*v)),
        Expr::Var(v) => assignment.get(v.id),
        Expr::Not(a) => Some(Value::Bool(!eval_partial(a, assignment)?.as_bool()?)),
        Expr::And(parts) => {
            let mut unknown = false;
            for p in parts {
                match eval_partial(p, assignment).and_then(|v| v.as_bool()) {
                    Some(false) => return Some(Value::Bool(false)),
                    Some(true) => {}
                    None => unknown = true,
                }
            }
            if unknown {
                None
            } else {
                Some(Value::Bool(true))
            }
        }
        Expr::Or(parts) => {
            let mut unknown = false;
            for p in parts {
                match eval_partial(p, assignment).and_then(|v| v.as_bool()) {
                    Some(true) => return Some(Value::Bool(true)),
                    Some(false) => {}
                    None => unknown = true,
                }
            }
            if unknown {
                None
            } else {
                Some(Value::Bool(false))
            }
        }
        Expr::Eq(a, b) => {
            let va = eval_partial(a, assignment)?;
            let vb = eval_partial(b, assignment)?;
            Some(Value::Bool(va == vb))
        }
        Expr::Lt(a, b) => Some(Value::Bool(
            eval_partial(a, assignment)?.as_int()? < eval_partial(b, assignment)?.as_int()?,
        )),
        Expr::Add(a, b) => Some(Value::Int(
            eval_partial(a, assignment)?.as_int()? + eval_partial(b, assignment)?.as_int()?,
        )),
        Expr::Sub(a, b) => Some(Value::Int(
            eval_partial(a, assignment)?.as_int()? - eval_partial(b, assignment)?.as_int()?,
        )),
        Expr::Ite(c, t, e) => match eval_partial(c, assignment)?.as_bool()? {
            true => eval_partial(t, assignment),
            false => eval_partial(e, assignment),
        },
    }
}

/// Flattens top-level conjunctions so each piece mentions as few variables
/// as possible; that is what makes the early consistency check prune
/// effectively (a single monolithic conjunction could only be checked once
/// every variable is assigned).
fn flatten_constraints(constraints: &[ExprRef]) -> Vec<ExprRef> {
    fn flatten(e: &ExprRef, out: &mut Vec<ExprRef>) {
        match &**e {
            Expr::And(parts) => {
                for p in parts {
                    flatten(p, out);
                }
            }
            Expr::ConstBool(true) => {}
            _ => out.push(e.clone()),
        }
    }
    let mut flat = Vec::new();
    for c in constraints {
        flatten(c, &mut flat);
    }
    flat
}

// --- compiled engine -----------------------------------------------------

/// Maximum number of search levels the compiled engine handles (conflict
/// sets are `u128` level bitsets). Larger problems — none exist in the
/// model today — fall back to the naive search.
const MAX_FAST_LEVELS: usize = 128;

/// Sentinel `below` level selecting variable-indexed conflict sets (the
/// dynamically-ordered satisfiability search; see [`Engine::culprits`]).
const SAT_MODE: usize = usize::MAX;

/// One node of the compiled expression arena. Children are arena indices;
/// n-ary conjunction/disjunction children live in the shared `kids` pool.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Node {
    ConstBool(bool),
    ConstInt(i64),
    /// A variable reference, interned to a dense index.
    Var(u32),
    Not(u32),
    /// Children are `kids[start..end]`.
    And(u32, u32),
    /// Children are `kids[start..end]`.
    Or(u32, u32),
    Eq(u32, u32),
    Lt(u32, u32),
    Add(u32, u32),
    Sub(u32, u32),
    Ite(u32, u32, u32),
}

/// Where one constraint's compilation began: the lengths of the arena, the
/// child pool and the interned variables just before it. Truncating to a
/// constraint's mark forgets that constraint and every later one.
#[derive(Clone, Copy, Debug)]
struct Mark {
    nodes: usize,
    kids: usize,
    vars: usize,
}

/// A set of constraints compiled once and reusable across many solver
/// queries (different domains, pins and variable orderings). TESTGEN builds
/// one per commutative case so its solve-and-repair loop shares the
/// flattening, interning and compilation work between the initial
/// enumeration and every re-solve round.
///
/// It is also incremental: [`CaseSolver::retarget`] moves it to a new
/// constraint set and compiles only the part that does not start with the
/// constraints it already holds, pointer for pointer. The analyzer keeps
/// one per analysis unit, whose queries all begin with the unit's
/// assumptions and whose bisection probes and classification query extend
/// or cut the leaf they follow.
#[derive(Clone, Debug)]
pub struct CaseSolver {
    /// The flattened constraints. Holding them keeps every expression the
    /// pointer memo names alive, so no memo key's address can be freed and
    /// handed to another expression while the key is in the memo.
    flat: Vec<ExprRef>,
    /// Per constraint: where its compilation began.
    marks: Vec<Mark>,
    /// Interned variables (first-encounter order); a variable's dense
    /// index is its position here.
    vars: Vec<Var>,
    /// Variable id → dense index.
    dense_of: BTreeMap<VarId, u32>,
    /// The expression arena. Shared subtrees (`Rc`-aliased nodes) are
    /// compiled once and referenced by index, so the arena has the size of
    /// the expression *DAG*, not its tree expansion.
    nodes: Vec<Node>,
    /// Per node: the expression it was compiled from, its key in `memo`.
    keys: Vec<*const Expr>,
    /// Expression → node, by pointer identity.
    memo: PtrMemo,
    /// Child pool for n-ary nodes.
    kids: Vec<u32>,
    /// Per constraint: root node index.
    roots: Vec<u32>,
    /// Per constraint: the dense indices of the variables it mentions.
    cvars: Vec<Vec<u32>>,
    /// Per dense variable: the constraints that mention it, in increasing
    /// order (the watch index). Assigning a variable re-examines only
    /// these.
    watch: Vec<Vec<u32>>,
    /// Per node: the variable-list walk that last visited it.
    seen: Vec<u64>,
    /// The latest variable-list walk.
    walk: u64,
    /// Flattened constraints asked about, summed over every query.
    queried: usize,
    /// Flattened constraints compiled, summed over every query.
    compiled: usize,
}

impl Default for CaseSolver {
    /// A solver holding no constraints, pre-sized for the model's typical
    /// conditions (~10³ DAG nodes): growth rehashes of the pointer memo
    /// would otherwise dominate compilation.
    fn default() -> Self {
        let mut memo = PtrMemo::default();
        memo.reserve(4096);
        CaseSolver {
            flat: Vec::new(),
            marks: Vec::new(),
            vars: Vec::new(),
            dense_of: BTreeMap::new(),
            nodes: Vec::with_capacity(4096),
            keys: Vec::with_capacity(4096),
            memo,
            kids: Vec::with_capacity(512),
            roots: Vec::new(),
            cvars: Vec::new(),
            watch: Vec::new(),
            seen: Vec::new(),
            walk: 0,
            queried: 0,
            compiled: 0,
        }
    }
}

impl CaseSolver {
    /// Flattens, interns and compiles `constraints`: [`CaseSolver::retarget`]
    /// on an empty solver.
    pub fn new(constraints: &[ExprRef]) -> Self {
        let mut solver = CaseSolver::default();
        solver.retarget(constraints);
        solver
    }

    /// Makes `constraints` the solver's constraint set. The longest prefix
    /// of their flattening that is pointer-identical to the current set
    /// keeps its compilation; everything after it is forgotten and the rest
    /// is compiled. The result is the solver [`CaseSolver::new`] builds from
    /// `constraints`, node for node, so every answer is unchanged.
    pub fn retarget(&mut self, constraints: &[ExprRef]) -> &mut Self {
        let incoming = flatten_constraints(constraints);
        let keep = self
            .flat
            .iter()
            .zip(&incoming)
            .take_while(|(held, new)| Rc::ptr_eq(held, new))
            .count();
        self.truncate(keep);
        self.queried += incoming.len();
        self.compiled += incoming.len() - keep;
        for constraint in incoming.into_iter().skip(keep) {
            self.push_constraint(constraint);
        }
        self
    }

    /// Flattened constraints asked about by every query so far, whether
    /// compiled or kept.
    pub fn constraints_queried(&self) -> usize {
        self.queried
    }

    /// Flattened constraints compiled by every query so far.
    pub fn constraints_compiled(&self) -> usize {
        self.compiled
    }

    /// Forgets every constraint from the `keep`th on.
    fn truncate(&mut self, keep: usize) {
        let Some(&mark) = self.marks.get(keep) else {
            return;
        };
        // The memo first: its keys point into the expressions `flat` is
        // about to release.
        for key in self.keys.drain(mark.nodes..) {
            self.memo.remove(&key);
        }
        self.nodes.truncate(mark.nodes);
        self.kids.truncate(mark.kids);
        for var in self.vars.drain(mark.vars..) {
            self.dense_of.remove(&var.id);
        }
        self.watch.truncate(mark.vars);
        // Each watch list ends with the latest constraints that mention its
        // variable, so popping them latest first removes exactly theirs.
        for c in (keep..self.flat.len()).rev() {
            for &v in &self.cvars[c] {
                if let Some(list) = self.watch.get_mut(v as usize) {
                    list.pop();
                }
            }
        }
        self.flat.truncate(keep);
        self.marks.truncate(keep);
        self.roots.truncate(keep);
        self.cvars.truncate(keep);
    }

    /// Compiles one flattened constraint after the ones held, with its
    /// variable list (a stamped arena walk, shared nodes visited once) and
    /// its watch entries.
    fn push_constraint(&mut self, constraint: ExprRef) {
        self.marks.push(Mark {
            nodes: self.nodes.len(),
            kids: self.kids.len(),
            vars: self.vars.len(),
        });
        let root = self.compile(&constraint);
        self.seen.resize(self.seen.len().max(self.nodes.len()), 0);
        self.walk += 1;
        let mut dense: Vec<u32> = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let ni = n as usize;
            if self.seen[ni] == self.walk {
                continue;
            }
            self.seen[ni] = self.walk;
            match self.nodes[ni] {
                Node::ConstBool(_) | Node::ConstInt(_) => {}
                Node::Var(v) => dense.push(v),
                Node::Not(a) => stack.push(a),
                Node::And(start, end) | Node::Or(start, end) => {
                    stack.extend_from_slice(&self.kids[start as usize..end as usize]);
                }
                Node::Eq(a, b) | Node::Lt(a, b) | Node::Add(a, b) | Node::Sub(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Node::Ite(c, t, e) => {
                    stack.push(c);
                    stack.push(t);
                    stack.push(e);
                }
            }
        }
        dense.sort_unstable();
        dense.dedup();
        let ci = self.roots.len() as u32;
        self.watch.resize(self.vars.len(), Vec::new());
        for &v in &dense {
            self.watch[v as usize].push(ci);
        }
        self.cvars.push(dense);
        self.roots.push(root);
        self.flat.push(constraint);
    }

    fn intern(&mut self, var: &Var) -> u32 {
        if let Some(&dense) = self.dense_of.get(&var.id) {
            return dense;
        }
        let dense = self.vars.len() as u32;
        self.vars.push(var.clone());
        self.dense_of.insert(var.id, dense);
        dense
    }

    /// Compiles an expression DAG into the arena, deduplicating shared
    /// subtrees by `Rc` pointer identity and interning variables to dense
    /// indices (first encounter order) on the fly.
    fn compile(&mut self, expr: &ExprRef) -> u32 {
        let key = Rc::as_ptr(expr);
        if let Some(&idx) = self.memo.get(&key) {
            return idx;
        }
        let node = match &**expr {
            Expr::ConstBool(b) => Node::ConstBool(*b),
            Expr::ConstInt(v) => Node::ConstInt(*v),
            Expr::Var(v) => Node::Var(self.intern(v)),
            Expr::Not(a) => Node::Not(self.compile(a)),
            Expr::And(parts) | Expr::Or(parts) => {
                let compiled: Vec<u32> = parts.iter().map(|p| self.compile(p)).collect();
                let start = self.kids.len() as u32;
                self.kids.extend(compiled);
                let end = self.kids.len() as u32;
                if matches!(&**expr, Expr::And(_)) {
                    Node::And(start, end)
                } else {
                    Node::Or(start, end)
                }
            }
            Expr::Eq(a, b) => Node::Eq(self.compile(a), self.compile(b)),
            Expr::Lt(a, b) => Node::Lt(self.compile(a), self.compile(b)),
            Expr::Add(a, b) => Node::Add(self.compile(a), self.compile(b)),
            Expr::Sub(a, b) => Node::Sub(self.compile(a), self.compile(b)),
            Expr::Ite(c, t, e) => Node::Ite(self.compile(c), self.compile(t), self.compile(e)),
        };
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.keys.push(key);
        self.memo.insert(key, idx);
        idx
    }

    /// The interned variables (first-encounter order).
    pub fn variables(&self) -> &[Var] {
        &self.vars
    }

    /// Finds one satisfying assignment, enumeration-ordered (the first
    /// solution [`CaseSolver::all_solutions`] would return).
    pub fn solve(&self, domains: &Domains) -> Option<Assignment> {
        self.all_solutions(domains, 1).into_iter().next()
    }

    /// Enumerates up to `limit` satisfying assignments in the canonical
    /// order (id-ordered static search, identical to the naive engine's
    /// sequence).
    pub fn all_solutions(&self, domains: &Domains, limit: usize) -> Vec<Assignment> {
        self.enumerate(domains, &Assignment::new(), &[], limit)
    }

    /// Bounded re-solve over free variables: enumerates up to `limit`
    /// satisfying assignments that agree with `pinned` on every variable it
    /// assigns, varying the variables listed in `vary_first` before any
    /// other. See [`solve_with_preference`] for the full contract.
    pub fn solve_with_preference(
        &self,
        domains: &Domains,
        pinned: &Assignment,
        vary_first: &[Var],
        limit: usize,
    ) -> Vec<Assignment> {
        let tail: Vec<Var> = vary_first
            .iter()
            .filter(|v| pinned.get(v.id).is_none())
            .cloned()
            .collect();
        self.enumerate(domains, pinned, &tail, limit)
    }

    /// Is the constraint set satisfiable over `domains`? Uses dynamic
    /// minimum-remaining-values ordering, which is much faster than the
    /// enumeration order when only the yes/no answer matters (the
    /// analyzer's case). The witness order is unspecified, which is why
    /// this is a separate entry point from [`CaseSolver::solve`].
    pub fn satisfiable(&self, domains: &Domains) -> bool {
        if self.vars.len() > MAX_FAST_LEVELS {
            return naive::solve(&self.flat, domains).is_some();
        }
        let mut engine = match Engine::new(self, domains, &Assignment::new(), &[]) {
            Some(engine) => engine,
            None => return false,
        };
        engine.sat_search().is_none()
    }

    /// Static-order enumeration: head variables in id order, `tail`
    /// variables moved to the deepest levels (earlier-listed deepest of
    /// all). `pinned` restricts each pinned variable's candidates to its
    /// pinned value.
    fn enumerate(
        &self,
        domains: &Domains,
        pinned: &Assignment,
        tail: &[Var],
        limit: usize,
    ) -> Vec<Assignment> {
        if self.vars.len() + tail.len() > MAX_FAST_LEVELS {
            // Out-of-model-scale problem: preserve behaviour via the naive
            // engine rather than mis-sizing the level bitsets.
            return naive::enumerate(&self.flat, domains, pinned, tail, limit);
        }
        let mut engine = match Engine::new(self, domains, pinned, tail) {
            Some(engine) => engine,
            None => return Vec::new(),
        };
        let mut out = Vec::new();
        let _ = engine.search(0, &mut out, limit);
        out
    }
}

/// Hashes `Rc` pointers for the compilation memo: a single multiply
/// instead of SipHash (the memo is hit once per DAG node reference, which
/// is the hot path of compilation).
#[derive(Default)]
struct PtrHasher(u64);

impl std::hash::Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PtrMemo = HashMap<*const Expr, u32, std::hash::BuildHasherDefault<PtrHasher>>;

/// Per-evaluation memo: each arena node is computed at most once per
/// evaluation (the `stamp` marks which evaluation a cached value belongs
/// to, so resetting between evaluations is a counter increment, not a
/// clear).
struct EvalMemo {
    stamp: Vec<u64>,
    value: Vec<Option<Value>>,
    current: u64,
}

impl EvalMemo {
    fn new(nodes: usize) -> Self {
        EvalMemo {
            stamp: vec![0; nodes],
            value: vec![None; nodes],
            current: 0,
        }
    }
}

/// Undo-trail entries for backtracking.
#[derive(Clone, Copy, Debug)]
enum TrailEntry {
    /// Constraint `c` was marked decided-true.
    Decided(u32),
    /// Candidate index `cand` of variable `var` was pruned.
    Removed { var: u32, cand: u8 },
}

/// One search over a compiled constraint set: dense per-variable state,
/// candidate bitmasks with an undo trail, and `u128` conflict-level sets.
struct Engine<'a> {
    cs: &'a CaseSolver,
    /// All search variables: the compiled set's, then any extra
    /// (unconstrained) tail variables, dense-indexed in that order.
    all_vars: Vec<Var>,
    /// Dense variable per search level.
    order: Vec<u32>,
    /// Dense variable → search level.
    level_of: Vec<u32>,
    /// Per dense variable: ordered candidate values.
    cand: Vec<Vec<Value>>,
    /// Per dense variable: bitmask of still-active candidate indices (all
    /// bits set when the candidate list is too long to track).
    active: Vec<u64>,
    /// Per dense variable, per candidate index: the constraint that pruned
    /// it (valid while the bit is clear).
    removed_by: Vec<Vec<u32>>,
    /// Current values, dense-indexed.
    vals: Vec<Option<Value>>,
    /// Per constraint: decided-true under the current assignment?
    decided: Vec<bool>,
    /// Per constraint: number of unassigned variables.
    unassigned: Vec<u32>,
    trail: Vec<TrailEntry>,
    memo: EvalMemo,
}

impl<'a> Engine<'a> {
    /// Builds the engine, applies pins, and performs the root-level
    /// evaluation (constraints decided with nothing assigned). Returns
    /// `None` when a constraint is already false at the root.
    fn new(
        cs: &'a CaseSolver,
        domains: &Domains,
        pinned: &Assignment,
        tail: &[Var],
    ) -> Option<Engine<'a>> {
        let mut all_vars = cs.vars.clone();
        for var in tail {
            if !cs.dense_of.contains_key(&var.id) {
                // Unconstrained vary variables still need a search level,
                // or no solution would ever assign them.
                all_vars.push(var.clone());
            }
        }
        let n = all_vars.len();
        // Static order: non-tail variables in id order, tail variables
        // appended so the enumeration (which backtracks from the deepest
        // level first) varies `tail[0]` fastest.
        let tail_rank: BTreeMap<VarId, usize> =
            tail.iter().enumerate().map(|(i, v)| (v.id, i)).collect();
        let dense_of_all = |id: VarId| -> u32 {
            cs.dense_of.get(&id).copied().unwrap_or_else(|| {
                (cs.vars.len()
                    + all_vars[cs.vars.len()..]
                        .iter()
                        .position(|v| v.id == id)
                        .expect("extra var interned above")) as u32
            })
        };
        let mut head: Vec<&Var> = all_vars
            .iter()
            .filter(|v| !tail_rank.contains_key(&v.id))
            .collect();
        head.sort_by_key(|v| v.id);
        let mut tail_vars: Vec<&Var> = all_vars
            .iter()
            .filter(|v| tail_rank.contains_key(&v.id))
            .collect();
        tail_vars.sort_by_key(|v| std::cmp::Reverse(tail_rank[&v.id]));
        let order: Vec<u32> = head
            .iter()
            .chain(tail_vars.iter())
            .map(|v| dense_of_all(v.id))
            .collect();
        let mut level_of = vec![0u32; n];
        for (level, &v) in order.iter().enumerate() {
            level_of[v as usize] = level as u32;
        }
        let cand: Vec<Vec<Value>> = all_vars
            .iter()
            .map(|v| match pinned.get(v.id) {
                Some(value) => vec![value],
                None => domains.candidates(v).to_vec(),
            })
            .collect();
        let active = cand
            .iter()
            .map(|c| {
                if c.len() >= 64 {
                    u64::MAX
                } else {
                    (1u64 << c.len()) - 1
                }
            })
            .collect();
        let removed_by = cand.iter().map(|c| vec![0u32; c.len().min(64)]).collect();
        let mut engine = Engine {
            cs,
            all_vars,
            order,
            level_of,
            cand,
            active,
            removed_by,
            vals: vec![None; n],
            decided: vec![false; cs.roots.len()],
            unassigned: cs.cvars.iter().map(|v| v.len() as u32).collect(),
            trail: Vec::new(),
            memo: EvalMemo::new(cs.nodes.len()),
        };
        // Root evaluation: constraints already decided with nothing
        // assigned (constant `false`, or short-circuited conjunctions)
        // reject the whole search up front; decided-true constraints never
        // need re-examination.
        for c in 0..cs.roots.len() {
            match engine.eval_constraint(c as u32) {
                Some(Value::Bool(true)) => engine.decided[c] = true,
                Some(Value::Bool(false)) => return None,
                _ => {}
            }
        }
        Some(engine)
    }

    /// Evaluates constraint `c` three-valued under the current dense
    /// assignment, memoized per evaluation.
    fn eval_constraint(&mut self, c: u32) -> Option<Value> {
        self.memo.current += 1;
        eval_node(
            self.cs,
            self.cs.roots[c as usize],
            &self.vals,
            &mut self.memo,
        )
    }

    /// The conflict bitset of constraint `c`. In the static enumeration
    /// search (`below` is the current level) the bits are search *levels*
    /// below `below` — with static ordering those are exactly the assigned
    /// ancestors. The dynamically-ordered satisfiability search passes
    /// [`SAT_MODE`], and the bits are the *dense indices* of `c`'s
    /// currently-assigned variables instead (levels are meaningless when
    /// the order varies per branch).
    fn culprits(&self, c: u32, below: usize) -> u128 {
        let mut set = 0u128;
        for &v in &self.cs.cvars[c as usize] {
            if below == SAT_MODE {
                if self.vals[v as usize].is_some() {
                    set |= 1u128 << v;
                }
            } else {
                let level = self.level_of[v as usize] as usize;
                if level < below {
                    set |= 1u128 << level;
                }
            }
        }
        set
    }

    /// Assigns `value` to `var` and incrementally re-examines the watching
    /// constraints: decided-true constraints are recorded on the trail,
    /// a decided-false constraint reports its conflict levels, and
    /// constraints down to one unassigned variable forward-check that
    /// variable's domain. `below` is the current search level (conflict
    /// sets are filtered to earlier levels).
    fn assign(&mut self, var: u32, value: Value, below: usize) -> Result<(), u128> {
        self.vals[var as usize] = Some(value);
        // Extra (unconstrained tail) variables have no watchers.
        let watchers = self.cs.watch.get(var as usize).map_or(0, Vec::len);
        for wi in 0..watchers {
            let c = self.cs.watch[var as usize][wi];
            self.unassigned[c as usize] -= 1;
        }
        for wi in 0..watchers {
            let c = self.cs.watch[var as usize][wi];
            if self.decided[c as usize] {
                continue;
            }
            match self.eval_constraint(c) {
                Some(Value::Bool(true)) => {
                    self.decided[c as usize] = true;
                    self.trail.push(TrailEntry::Decided(c));
                }
                Some(Value::Bool(false)) => return Err(self.culprits(c, below)),
                _ => {
                    if self.unassigned[c as usize] == 1 {
                        self.forward_check(c, below)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Forward checking: `c` has exactly one unassigned variable; prune its
    /// candidate values that would falsify `c`. An emptied domain is a
    /// conflict whose culprits are every constraint that removed one of the
    /// variable's values.
    fn forward_check(&mut self, c: u32, below: usize) -> Result<(), u128> {
        let u = match self.cs.cvars[c as usize]
            .iter()
            .copied()
            .find(|&v| self.vals[v as usize].is_none())
        {
            Some(u) => u,
            None => return Ok(()),
        };
        let ui = u as usize;
        if self.cand[ui].len() > 64 {
            // Domain too large for the bitmask; skip pruning (sound — just
            // less propagation).
            return Ok(());
        }
        for i in 0..self.cand[ui].len() {
            if self.active[ui] & (1u64 << i) == 0 {
                continue;
            }
            self.vals[ui] = Some(self.cand[ui][i]);
            let verdict = self.eval_constraint(c);
            self.vals[ui] = None;
            if verdict == Some(Value::Bool(false)) {
                self.active[ui] &= !(1u64 << i);
                self.removed_by[ui][i] = c;
                self.trail.push(TrailEntry::Removed {
                    var: u,
                    cand: i as u8,
                });
            }
        }
        if self.active[ui] == 0 {
            let mut conflict = 0u128;
            for i in 0..self.cand[ui].len() {
                conflict |= self.culprits(self.removed_by[ui][i], below);
            }
            return Err(conflict);
        }
        Ok(())
    }

    /// Undoes `assign`: unwinds the trail to `mark`, restores the watching
    /// constraints' unassigned counts and clears the value.
    fn undo(&mut self, mark: usize, var: u32) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail above mark") {
                TrailEntry::Decided(c) => self.decided[c as usize] = false,
                TrailEntry::Removed { var, cand } => {
                    self.active[var as usize] |= 1u64 << cand;
                }
            }
        }
        if let Some(watchers) = self.cs.watch.get(var as usize) {
            for &c in watchers {
                self.unassigned[c as usize] += 1;
            }
        }
        self.vals[var as usize] = None;
    }

    /// The current total assignment as a public [`Assignment`].
    fn extract(&self) -> Assignment {
        let mut out = Assignment::new();
        for (dense, var) in self.all_vars.iter().enumerate() {
            if let Some(value) = self.vals[dense] {
                out.set(var.id, value);
            }
        }
        out
    }

    /// Finalizes a leaf: every constraint must now evaluate decided-true
    /// (this also covers constraints that never triggered an incremental
    /// check). Returns the conflict set of the first failing constraint,
    /// or `None` on success. `below` selects the conflict-set flavour as in
    /// [`Engine::culprits`].
    fn finalize_leaf(&mut self, below: usize) -> Option<u128> {
        for c in 0..self.cs.roots.len() {
            if self.decided[c] {
                continue;
            }
            match self.eval_constraint(c as u32) {
                Some(Value::Bool(true)) => {
                    self.decided[c] = true;
                    self.trail.push(TrailEntry::Decided(c as u32));
                }
                _ => return Some(self.culprits(c as u32, below)),
            }
        }
        None
    }

    /// Conflict-directed backjumping search, mirroring the naive engine's
    /// control flow exactly (so the solution sequence is identical).
    /// Returns `Err(())` when the solution limit was reached; otherwise the
    /// conflict set of the exhausted subtree. A caller whose own level is
    /// absent from that set skips its remaining candidates: re-assigning it
    /// cannot make the subtree satisfiable.
    fn search(&mut self, idx: usize, out: &mut Vec<Assignment>, limit: usize) -> Result<u128, ()> {
        if out.len() >= limit {
            return Err(());
        }
        if idx == self.order.len() {
            return match self.finalize_leaf(self.order.len()) {
                // Leaf `Decided` marks are unwound by the caller's trail
                // mark, so no local undo is needed.
                Some(conflict) => Ok(conflict),
                None => {
                    out.push(self.extract());
                    if out.len() >= limit {
                        Err(())
                    } else {
                        Ok(0)
                    }
                }
            };
        }
        let var = self.order[idx];
        let vi = var as usize;
        let below_mask = (1u128 << idx) - 1;
        let mut conflicts = 0u128;
        let mut solution_below = false;
        for i in 0..self.cand[vi].len() {
            if self.cand[vi].len() <= 64 && self.active[vi] & (1u64 << i) == 0 {
                // Pruned by forward checking at an earlier level: charge the
                // pruning constraint's levels, exactly as an explicit
                // violation would be charged.
                conflicts |= self.culprits(self.removed_by[vi][i], idx);
                continue;
            }
            let mark = self.trail.len();
            match self.assign(var, self.cand[vi][i], idx) {
                Err(culprits) => {
                    conflicts |= culprits & below_mask;
                }
                Ok(()) => {
                    let found_before = out.len();
                    match self.search(idx + 1, out, limit) {
                        Err(()) => {
                            self.undo(mark, var);
                            return Err(());
                        }
                        Ok(cs) => {
                            let found_here = out.len() > found_before;
                            solution_below |= found_here;
                            if !solution_below && cs & (1u128 << idx) == 0 {
                                // This level is irrelevant to the subtree's
                                // failure: re-assigning it cannot help, so
                                // jump straight over it.
                                self.undo(mark, var);
                                return Ok(cs);
                            }
                            conflicts |= cs & below_mask;
                        }
                    }
                }
            }
            self.undo(mark, var);
        }
        if solution_below {
            // Solutions were found below: report every earlier level as
            // relevant so ancestors keep enumerating exhaustively.
            return Ok(below_mask);
        }
        Ok(conflicts)
    }

    /// Satisfiability-only search with dynamic minimum-remaining-values
    /// ordering: enumeration order is irrelevant here, and branching on the
    /// most constrained variable first collapses the search space that the
    /// static id order would thrash through. Conflict-directed backjumping
    /// carries over — with a dynamic order the conflict sets are variable
    /// bitsets rather than level bitsets ([`SAT_MODE`]): an exhausted
    /// subtree whose conflict set does not contain the variable just
    /// branched on is independent of that variable's value, so its
    /// remaining candidates are skipped.
    ///
    /// Returns `None` when a satisfying assignment was found, otherwise the
    /// conflict variable set of the refuted subtree.
    fn sat_search(&mut self) -> Option<u128> {
        let next = self
            .vals
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_none())
            .map(|(i, _)| i)
            .min_by_key(|&i| {
                if self.cand[i].len() <= 64 {
                    self.active[i].count_ones() as usize
                } else {
                    self.cand[i].len()
                }
            });
        let vi = match next {
            Some(vi) => vi,
            None => return self.finalize_leaf(SAT_MODE),
        };
        let self_bit = 1u128 << vi;
        let mut conflicts = 0u128;
        for i in 0..self.cand[vi].len() {
            if self.cand[vi].len() <= 64 && self.active[vi] & (1u64 << i) == 0 {
                conflicts |= self.culprits(self.removed_by[vi][i], SAT_MODE) & !self_bit;
                continue;
            }
            let mark = self.trail.len();
            match self.assign(vi as u32, self.cand[vi][i], SAT_MODE) {
                Err(culprits) => conflicts |= culprits & !self_bit,
                Ok(()) => match self.sat_search() {
                    None => return None,
                    Some(cs) => {
                        if cs & self_bit == 0 {
                            // The refutation does not involve this
                            // variable: re-assigning it cannot help.
                            self.undo(mark, vi as u32);
                            return Some(cs);
                        }
                        conflicts |= cs & !self_bit;
                    }
                },
            }
            self.undo(mark, vi as u32);
        }
        Some(conflicts)
    }
}

/// Three-valued evaluation over the compiled arena: `None` is "not yet
/// determined (or sort error)", exactly as [`eval_partial`]. Shared DAG
/// nodes are computed once per evaluation via the stamp memo.
fn eval_node(
    cs: &CaseSolver,
    node: u32,
    vals: &[Option<Value>],
    memo: &mut EvalMemo,
) -> Option<Value> {
    let ni = node as usize;
    if memo.stamp[ni] == memo.current {
        return memo.value[ni];
    }
    let result = match cs.nodes[ni] {
        Node::ConstBool(b) => Some(Value::Bool(b)),
        Node::ConstInt(v) => Some(Value::Int(v)),
        Node::Var(v) => vals[v as usize],
        Node::Not(a) => eval_node(cs, a, vals, memo)
            .and_then(|v| v.as_bool())
            .map(|b| Value::Bool(!b)),
        Node::And(start, end) => {
            let mut unknown = false;
            let mut decided_false = false;
            for ki in start..end {
                let kid = cs.kids[ki as usize];
                match eval_node(cs, kid, vals, memo).and_then(|v| v.as_bool()) {
                    Some(false) => {
                        decided_false = true;
                        break;
                    }
                    Some(true) => {}
                    None => unknown = true,
                }
            }
            if decided_false {
                Some(Value::Bool(false))
            } else if unknown {
                None
            } else {
                Some(Value::Bool(true))
            }
        }
        Node::Or(start, end) => {
            let mut unknown = false;
            let mut decided_true = false;
            for ki in start..end {
                let kid = cs.kids[ki as usize];
                match eval_node(cs, kid, vals, memo).and_then(|v| v.as_bool()) {
                    Some(true) => {
                        decided_true = true;
                        break;
                    }
                    Some(false) => {}
                    None => unknown = true,
                }
            }
            if decided_true {
                Some(Value::Bool(true))
            } else if unknown {
                None
            } else {
                Some(Value::Bool(false))
            }
        }
        Node::Eq(a, b) => match (eval_node(cs, a, vals, memo), eval_node(cs, b, vals, memo)) {
            (Some(va), Some(vb)) => Some(Value::Bool(va == vb)),
            _ => None,
        },
        Node::Lt(a, b) => match (
            eval_node(cs, a, vals, memo).and_then(|v| v.as_int()),
            eval_node(cs, b, vals, memo).and_then(|v| v.as_int()),
        ) {
            (Some(va), Some(vb)) => Some(Value::Bool(va < vb)),
            _ => None,
        },
        Node::Add(a, b) => match (
            eval_node(cs, a, vals, memo).and_then(|v| v.as_int()),
            eval_node(cs, b, vals, memo).and_then(|v| v.as_int()),
        ) {
            (Some(va), Some(vb)) => Some(Value::Int(va + vb)),
            _ => None,
        },
        Node::Sub(a, b) => match (
            eval_node(cs, a, vals, memo).and_then(|v| v.as_int()),
            eval_node(cs, b, vals, memo).and_then(|v| v.as_int()),
        ) {
            (Some(va), Some(vb)) => Some(Value::Int(va - vb)),
            _ => None,
        },
        Node::Ite(c, t, e) => match eval_node(cs, c, vals, memo).and_then(|v| v.as_bool()) {
            Some(true) => eval_node(cs, t, vals, memo),
            Some(false) => eval_node(cs, e, vals, memo),
            None => None,
        },
    };
    memo.stamp[ni] = memo.current;
    memo.value[ni] = result;
    result
}

// --- public entry points -------------------------------------------------

/// Finds one satisfying assignment of `constraints` over `domains`, or
/// `None` when unsatisfiable within the domains. The witness is the first
/// solution of the canonical enumeration order; callers that only need the
/// yes/no answer should prefer [`satisfiable`].
pub fn solve(constraints: &[ExprRef], domains: &Domains) -> Option<Assignment> {
    all_solutions(constraints, domains, 1).into_iter().next()
}

/// Is the constraint set satisfiable over `domains`? Decided with dynamic
/// variable ordering (MRV), which is typically far faster than the
/// enumeration-ordered [`solve`].
pub fn satisfiable(constraints: &[ExprRef], domains: &Domains) -> bool {
    CaseSolver::new(constraints).satisfiable(domains)
}

/// Enumerates up to `limit` satisfying assignments.
pub fn all_solutions(constraints: &[ExprRef], domains: &Domains, limit: usize) -> Vec<Assignment> {
    CaseSolver::new(constraints).all_solutions(domains, limit)
}

/// Bounded re-solve over free variables: enumerates up to `limit`
/// satisfying assignments that agree with `pinned` on every variable it
/// assigns, varying the variables listed in `vary_first` before any other.
///
/// This is the representative-selection entry point: a caller that obtained
/// one witness, found it cannot be realised (e.g. TESTGEN's
/// unconstructibility checks), pins the variables the case's condition
/// actually constrains and asks for alternative *completions* of the
/// remaining free variables. `vary_first` names the variables whose value
/// drove the rejection (descriptor-layout flags, link counts, …); they are
/// moved to the deepest search levels so the first few solutions already
/// cycle through their candidates — without this, plain enumeration order
/// could need exponentially many solutions before touching an early
/// variable. Pinned variables are excluded from `vary_first` automatically.
/// A `vary_first` variable no constraint mentions is added to the search —
/// unconstrained variables are otherwise absent from solutions, which would
/// make completions differing on them unreachable.
///
/// Callers issuing several of these queries against the same constraint
/// set (TESTGEN's solve-and-repair loop) should build one [`CaseSolver`]
/// and call [`CaseSolver::solve_with_preference`] to share the compilation.
pub fn solve_with_preference(
    constraints: &[ExprRef],
    domains: &Domains,
    pinned: &Assignment,
    vary_first: &[Var],
    limit: usize,
) -> Vec<Assignment> {
    CaseSolver::new(constraints).solve_with_preference(domains, pinned, vary_first, limit)
}

// --- naive oracle engine -------------------------------------------------

/// The original backtracking search, kept verbatim as the differential
/// oracle for the compiled engine: it re-walks whole expression trees per
/// node via [`eval_partial`] and allocates `BTreeSet` conflict sets, which
/// is unusable on the arithmetic-heavy pairs but trivially auditable. The
/// randomized equivalence tests assert both engines produce the same
/// solution sequence; the regression tests do the same over real analyzer
/// conditions.
pub mod naive {
    use super::{eval_bool, eval_partial, Assignment, Domains, Value};
    use crate::expr::{Expr, ExprRef, Var, VarId};
    use std::collections::{BTreeMap, BTreeSet};

    struct Search<'a> {
        constraints: Vec<ExprRef>,
        // For each constraint, the set of variable ids it mentions.
        constraint_vars: Vec<Vec<VarId>>,
        order: Vec<Var>,
        // Variable id → position in `order` (its search level).
        level_of: BTreeMap<VarId, usize>,
        domains: &'a Domains,
    }

    impl<'a> Search<'a> {
        fn new_with_tail(
            constraints: &'a [ExprRef],
            domains: &'a Domains,
            vary_first: &[Var],
        ) -> Self {
            let flat = super::flatten_constraints(constraints);
            let mut all_vars: BTreeMap<VarId, Var> = BTreeMap::new();
            let mut constraint_vars = Vec::with_capacity(flat.len());
            for c in &flat {
                let vars = Expr::free_vars(c);
                constraint_vars.push(vars.keys().copied().collect());
                all_vars.extend(vars);
            }
            if !vary_first.is_empty() {
                // Unconstrained vary variables still need a search level, or
                // no solution would ever assign them.
                for var in vary_first {
                    all_vars.entry(var.id).or_insert_with(|| var.clone());
                }
            }
            let mut order: Vec<Var> = all_vars.into_values().collect();
            if !vary_first.is_empty() {
                // Stable-partition the order: non-tail variables keep their
                // id order, tail variables are appended so that the
                // enumeration (which backtracks from the deepest level
                // first) varies `vary_first[0]` fastest.
                let rank: BTreeMap<VarId, usize> = vary_first
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v.id, i))
                    .collect();
                let (head, mut tail): (Vec<Var>, Vec<Var>) =
                    order.into_iter().partition(|v| !rank.contains_key(&v.id));
                tail.sort_by_key(|v| std::cmp::Reverse(rank[&v.id]));
                order = head;
                order.extend(tail);
            }
            let level_of = order.iter().enumerate().map(|(i, v)| (v.id, i)).collect();
            Search {
                constraints: flat,
                constraint_vars,
                order,
                level_of,
                domains,
            }
        }

        /// Finds a constraint that is *definitely* violated under the
        /// current partial assignment, returning the set of search levels
        /// its variables occupy (the conflict's culprits).
        fn violated(
            &self,
            assignment: &Assignment,
            last_assigned: Option<VarId>,
        ) -> Option<BTreeSet<usize>> {
            for (c, vars) in self.constraints.iter().zip(&self.constraint_vars) {
                if let Some(last) = last_assigned {
                    if !vars.contains(&last) {
                        continue;
                    }
                }
                if eval_partial(c, assignment) == Some(Value::Bool(false)) {
                    return Some(
                        vars.iter()
                            .filter_map(|v| self.level_of.get(v).copied())
                            .collect(),
                    );
                }
            }
            None
        }

        /// Conflict-directed backjumping search (see the compiled engine's
        /// `search` for the shared control-flow contract).
        fn search(
            &self,
            idx: usize,
            assignment: &mut Assignment,
            out: &mut Vec<Assignment>,
            limit: usize,
        ) -> Result<BTreeSet<usize>, ()> {
            if out.len() >= limit {
                return Err(());
            }
            if idx == self.order.len() {
                // Verify every constraint (this also covers variable-free
                // constraints that never triggered an incremental check).
                if self.constraints.iter().all(|c| eval_bool(c, assignment)) {
                    out.push(assignment.clone());
                    if out.len() >= limit {
                        return Err(());
                    }
                    return Ok(BTreeSet::new());
                }
                // Report the culprits of the first violated constraint.
                for (c, vars) in self.constraints.iter().zip(&self.constraint_vars) {
                    if !eval_bool(c, assignment) {
                        return Ok(vars
                            .iter()
                            .filter_map(|v| self.level_of.get(v).copied())
                            .collect());
                    }
                }
                return Ok(BTreeSet::new());
            }
            let var = &self.order[idx];
            let mut conflicts: BTreeSet<usize> = BTreeSet::new();
            let mut solution_below = false;
            for candidate in self.domains.candidates(var).iter().copied() {
                assignment.set(var.id, candidate);
                match self.violated(assignment, Some(var.id)) {
                    Some(culprits) => {
                        conflicts.extend(culprits.into_iter().filter(|l| *l < idx));
                    }
                    None => {
                        let found_before = out.len();
                        let below = self.search(idx + 1, assignment, out, limit);
                        match below {
                            Err(()) => {
                                assignment.unset(var.id);
                                return Err(());
                            }
                            Ok(cs) => {
                                let found_here = out.len() > found_before;
                                solution_below |= found_here;
                                if !solution_below && !cs.contains(&idx) {
                                    // This level is irrelevant to the
                                    // subtree's failure: jump over it.
                                    assignment.unset(var.id);
                                    return Ok(cs);
                                }
                                conflicts.extend(cs.into_iter().filter(|l| *l < idx));
                            }
                        }
                    }
                }
            }
            // Backtrack cleanly so partial evaluation at shallower depths
            // never sees a stale value from an abandoned subtree.
            assignment.unset(var.id);
            if solution_below {
                // Solutions were found below: report every earlier level as
                // relevant so ancestors keep enumerating exhaustively.
                return Ok((0..idx).collect());
            }
            Ok(conflicts)
        }
    }

    /// Naive-engine counterpart of [`super::solve`].
    pub fn solve(constraints: &[ExprRef], domains: &Domains) -> Option<Assignment> {
        all_solutions(constraints, domains, 1).into_iter().next()
    }

    /// Naive-engine counterpart of [`super::all_solutions`].
    pub fn all_solutions(
        constraints: &[ExprRef],
        domains: &Domains,
        limit: usize,
    ) -> Vec<Assignment> {
        enumerate(constraints, domains, &Assignment::new(), &[], limit)
    }

    /// Naive-engine counterpart of [`super::solve_with_preference`].
    pub fn solve_with_preference(
        constraints: &[ExprRef],
        domains: &Domains,
        pinned: &Assignment,
        vary_first: &[Var],
        limit: usize,
    ) -> Vec<Assignment> {
        let tail: Vec<Var> = vary_first
            .iter()
            .filter(|v| pinned.get(v.id).is_none())
            .cloned()
            .collect();
        enumerate(constraints, domains, pinned, &tail, limit)
    }

    /// Shared driver: pins restrict domains, `tail` is the vary-first list
    /// (already filtered of pinned variables).
    pub(super) fn enumerate(
        constraints: &[ExprRef],
        domains: &Domains,
        pinned: &Assignment,
        tail: &[Var],
        limit: usize,
    ) -> Vec<Assignment> {
        let mut restricted = domains.clone();
        for (var, value) in pinned.iter() {
            restricted.set_var(var, vec![value]);
        }
        let search = Search::new_with_tail(constraints, &restricted, tail);
        let mut out = Vec::new();
        let mut assignment = Assignment::new();
        // Constraints already decided with nothing assigned reject the
        // whole search up front.
        if search.violated(&assignment, None).is_some() {
            return out;
        }
        let _ = search.search(0, &mut assignment, &mut out, limit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{SymContext, SymInt};

    #[test]
    fn solves_simple_equalities() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let constraints = vec![
            x.eq(&SymInt::from_i64(2)).0,
            y.eq(&x.add(&SymInt::from_i64(1))).0,
        ];
        let solution = solve(&constraints, &Domains::default()).expect("sat");
        assert_eq!(solution.int(0), 2);
        assert_eq!(solution.int(1), 3);
    }

    #[test]
    fn detects_unsatisfiable_constraints() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let constraints = vec![x.eq(&SymInt::from_i64(1)).0, x.eq(&SymInt::from_i64(2)).0];
        assert!(solve(&constraints, &Domains::default()).is_none());
        assert!(!satisfiable(&constraints, &Domains::default()));
    }

    #[test]
    fn respects_custom_domains() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let constraints = vec![x.gt(&SymInt::from_i64(100)).0];
        assert!(solve(&constraints, &Domains::default()).is_none());
        let domains = Domains::new(vec![0, 50, 200]);
        let solution = solve(&constraints, &domains).expect("sat with wider domain");
        assert_eq!(solution.int(0), 200);
        assert!(satisfiable(&constraints, &domains));
    }

    #[test]
    fn per_variable_domain_overrides_apply() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let mut domains = Domains::new(vec![0, 1]);
        domains.set_var(1, vec![Value::Int(7)]);
        let constraints = vec![x.lt(&y).0];
        let solution = solve(&constraints, &domains).expect("sat");
        assert_eq!(solution.int(1), 7);
        assert!(solution.int(0) < 7);
    }

    #[test]
    fn all_solutions_enumerates_and_respects_limit() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let constraints = vec![a.or(&b).0];
        let all = all_solutions(&constraints, &Domains::default(), 100);
        assert_eq!(all.len(), 3, "three of four boolean pairs satisfy a || b");
        let limited = all_solutions(&constraints, &Domains::default(), 2);
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn boolean_and_integer_mix() {
        let ctx = SymContext::new();
        let exists = ctx.bool_var("exists");
        let ino = ctx.int_var("ino");
        // exists => ino > 0
        let constraints = vec![
            exists.implies(&ino.gt(&SymInt::from_i64(0))).0,
            exists.0.clone(),
        ];
        let solution = solve(&constraints, &Domains::default()).expect("sat");
        assert!(solution.bool(0));
        assert!(solution.int(1) > 0);
    }

    #[test]
    fn eval_handles_ite_and_arithmetic() {
        let ctx = SymContext::new();
        let c = ctx.bool_var("c");
        let x = ctx.int_var("x");
        let expr = SymInt::ite(&c, &x.add(&SymInt::from_i64(10)), &SymInt::from_i64(0));
        let mut asg = Assignment::new();
        asg.set(0, Value::Bool(true));
        asg.set(1, Value::Int(5));
        assert_eq!(eval(&expr.0, &asg), Some(Value::Int(15)));
        asg.set(0, Value::Bool(false));
        assert_eq!(eval(&expr.0, &asg), Some(Value::Int(0)));
    }

    #[test]
    fn solve_with_preference_respects_pins() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let constraints = vec![x.lt(&y).0];
        let mut pinned = Assignment::new();
        pinned.set(1, Value::Int(2));
        let sols = solve_with_preference(&constraints, &Domains::default(), &pinned, &[], 16);
        assert!(!sols.is_empty());
        for s in &sols {
            assert_eq!(s.int(1), 2, "pinned variable must keep its value");
            assert!(s.int(0) < 2);
        }
    }

    #[test]
    fn solve_with_preference_varies_listed_variables_first() {
        let ctx = SymContext::new();
        // Three free booleans; b is listed as the variable to vary first, so
        // the first two solutions must differ in b while a and c hold their
        // first-fit values.
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let constraints = vec![a.or(&b).or(&c).0, a.0.clone()];
        let vary: Vec<Var> = ctx.variables().into_iter().filter(|v| v.id == 1).collect();
        let sols = solve_with_preference(
            &constraints,
            &Domains::default(),
            &Assignment::new(),
            &vary,
            2,
        );
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0].bool(0), sols[1].bool(0));
        assert_eq!(sols[0].bool(2), sols[1].bool(2));
        assert_ne!(sols[0].bool(1), sols[1].bool(1));
    }

    #[test]
    fn solve_with_preference_finds_alternative_completions() {
        let ctx = SymContext::new();
        // The "constructibility" scenario in miniature: `flag` is free, the
        // first witness picks false, and the caller needs the true
        // completion. With `flag` varied first it must appear within the
        // first couple of solutions.
        let pinnedv = ctx.int_var("pinnedv");
        let flag = ctx.bool_var("flag");
        let extra = ctx.int_var("extra");
        let constraints = vec![
            pinnedv.eq(&SymInt::from_i64(3)).0,
            flag.implies(&extra.gt(&SymInt::from_i64(0))).0,
        ];
        let witness = solve(&constraints, &Domains::default()).expect("sat");
        assert!(!witness.bool(1), "first witness picks flag = false");
        let mut pinned = Assignment::new();
        pinned.set(0, witness.get(0).unwrap());
        let vary: Vec<Var> = ctx.variables().into_iter().filter(|v| v.id == 1).collect();
        let sols = solve_with_preference(&constraints, &Domains::default(), &pinned, &vary, 4);
        assert!(
            sols.iter().any(|s| s.bool(1)),
            "re-solve must reach the flag = true completion quickly"
        );
    }

    #[test]
    fn solve_with_preference_assigns_unconstrained_vary_variables() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        // `ghost` appears in no constraint; listing it as a vary variable
        // must still produce completions for both of its values.
        let ghost = ctx.bool_var("ghost");
        let _ = ghost;
        let constraints = vec![x.eq(&SymInt::from_i64(1)).0];
        let vary: Vec<Var> = ctx.variables().into_iter().filter(|v| v.id == 1).collect();
        let sols = solve_with_preference(
            &constraints,
            &Domains::default(),
            &Assignment::new(),
            &vary,
            4,
        );
        assert_eq!(sols.len(), 2);
        let ghosts: Vec<bool> = sols.iter().map(|s| s.bool(1)).collect();
        assert!(ghosts.contains(&true) && ghosts.contains(&false));
    }

    #[test]
    fn eval_bool_is_false_on_missing_vars() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        assert!(!eval_bool(
            &x.eq(&SymInt::from_i64(0)).0,
            &Assignment::new()
        ));
    }

    #[test]
    fn assignment_equality_ignores_trailing_padding() {
        let mut a = Assignment::new();
        a.set(5, Value::Int(1));
        a.unset(5);
        a.set(0, Value::Int(2));
        let mut b = Assignment::new();
        b.set(0, Value::Int(2));
        assert_eq!(a, b);
        b.set(1, Value::Bool(true));
        assert_ne!(a, b);
    }

    #[test]
    fn domains_candidates_are_borrowed_and_ordered() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let b = ctx.bool_var("b");
        let vars = ctx.variables();
        let domains = Domains::new(vec![3, 1, 2]);
        // Order is preserved exactly as given (the enumeration order).
        assert_eq!(
            domains.candidates(&vars[0]),
            &[Value::Int(3), Value::Int(1), Value::Int(2)]
        );
        assert_eq!(
            domains.candidates(&vars[1]),
            &[Value::Bool(false), Value::Bool(true)]
        );
        let _ = (x, b);
    }

    #[test]
    fn case_solver_reuse_matches_free_functions() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let constraints = vec![x.lt(&y).0, y.lt(&SymInt::from_i64(3)).0];
        let domains = Domains::default();
        let solver = CaseSolver::new(&constraints);
        assert_eq!(
            solver.all_solutions(&domains, 64),
            all_solutions(&constraints, &domains, 64)
        );
        let mut pinned = Assignment::new();
        pinned.set(1, Value::Int(2));
        let vary: Vec<Var> = ctx.variables().into_iter().filter(|v| v.id == 0).collect();
        assert_eq!(
            solver.solve_with_preference(&domains, &pinned, &vary, 8),
            solve_with_preference(&constraints, &domains, &pinned, &vary, 8)
        );
        assert!(solver.satisfiable(&domains));
    }

    #[test]
    fn compiled_engine_matches_naive_on_shared_subtrees() {
        // A deliberately DAG-heavy constraint: the same ite subtree is
        // referenced from both sides of an equality and from a second
        // constraint. The compiled engine must agree with the naive oracle
        // on the full solution sequence.
        let ctx = SymContext::new();
        let c = ctx.bool_var("c");
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let shared = SymInt::ite(&c, &x.add(&y), &x.sub(&y));
        let constraints = vec![
            shared.eq(&SymInt::from_i64(2)).0,
            shared.add(&x).gt(&SymInt::from_i64(1)).0,
        ];
        let domains = Domains::default();
        assert_eq!(
            all_solutions(&constraints, &domains, 1000),
            naive::all_solutions(&constraints, &domains, 1000)
        );
    }

    /// Every compiled structure of two solvers, compared node for node.
    fn assert_same_compilation(got: &CaseSolver, want: &CaseSolver) {
        assert_eq!(got.nodes, want.nodes, "arena");
        assert_eq!(got.kids, want.kids, "child pool");
        assert_eq!(got.vars, want.vars, "interned variables");
        assert_eq!(got.dense_of, want.dense_of, "dense indices");
        assert_eq!(got.roots, want.roots, "roots");
        assert_eq!(got.cvars, want.cvars, "per-constraint variables");
        assert_eq!(got.watch, want.watch, "watch index");
        assert_eq!(got.memo.len(), want.memo.len(), "pointer memo");
        for (key, idx) in &want.memo {
            assert_eq!(got.memo.get(key), Some(idx), "pointer memo");
        }
    }

    #[test]
    fn retarget_compiles_what_new_compiles() {
        let ctx = SymContext::new();
        let c = ctx.bool_var("c");
        let x = ctx.int_var("x");
        let y = ctx.int_var("y");
        let z = ctx.int_var("z");
        let shared = SymInt::ite(&c, &x.add(&y), &x.sub(&y));
        let base = vec![
            shared.eq(&SymInt::from_i64(2)).0,
            x.lt(&y).and(&c.not()).0,
            shared.add(&x).gt(&SymInt::from_i64(1)).0,
        ];
        // A detour past the shared prefix: a new variable, a new shared
        // subtree and a conjunction that flattens into two constraints.
        let mut detour = base[..2].to_vec();
        detour.push(z.eq(&shared).and(&z.lt(&SymInt::from_i64(3))).0);
        detour.push(z.add(&y).eq(&x).0);
        let mut solver = CaseSolver::new(&detour);
        solver.retarget(&base);
        assert_same_compilation(&solver, &CaseSolver::new(&base));
        // `base` flattens into four constraints, three of them kept.
        assert_eq!(solver.flat.len(), 4);
        assert_eq!(solver.constraints_queried(), 6 + 4);
        assert_eq!(solver.constraints_compiled(), 6 + 1);
        // Extending, cutting and emptying land where a fresh compile does.
        let mut longer = base.clone();
        longer.push(z.gt(&shared).0);
        solver.retarget(&longer);
        assert_same_compilation(&solver, &CaseSolver::new(&longer));
        solver.retarget(&base[..1]);
        assert_same_compilation(&solver, &CaseSolver::new(&base[..1]));
        solver.retarget(&[]);
        assert_same_compilation(&solver, &CaseSolver::new(&[]));
        solver.retarget(&longer);
        assert_same_compilation(&solver, &CaseSolver::new(&longer));
        let domains = Domains::default();
        assert_eq!(
            solver.all_solutions(&domains, 1000),
            naive::all_solutions(&longer, &domains, 1000)
        );
    }
}
