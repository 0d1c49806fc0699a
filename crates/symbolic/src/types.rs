//! Ergonomic symbolic value wrappers and the variable factory.
//!
//! Model code manipulates [`SymBool`] and [`SymInt`] values the way the
//! paper's Python models manipulate symbolic Python values; fresh variables
//! come from a [`SymContext`].

use crate::expr::{Expr, ExprRef, Sort, Var, VarId};
use std::cell::Cell;
use std::rc::Rc;

/// A symbolic boolean.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymBool(pub ExprRef);

/// A symbolic (bounded) integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymInt(pub ExprRef);

impl SymBool {
    /// Concrete boolean.
    pub fn from_bool(b: bool) -> Self {
        SymBool(Expr::bool(b))
    }

    /// The underlying expression.
    pub fn expr(&self) -> &ExprRef {
        &self.0
    }

    /// Logical negation.
    pub fn not(&self) -> SymBool {
        SymBool(Expr::not(&self.0))
    }

    /// Conjunction.
    pub fn and(&self, other: &SymBool) -> SymBool {
        SymBool(Expr::and(&[self.0.clone(), other.0.clone()]))
    }

    /// Disjunction.
    pub fn or(&self, other: &SymBool) -> SymBool {
        SymBool(Expr::or(&[self.0.clone(), other.0.clone()]))
    }

    /// Implication (`!self || other`).
    pub fn implies(&self, other: &SymBool) -> SymBool {
        self.not().or(other)
    }

    /// Boolean equality (iff).
    pub fn iff(&self, other: &SymBool) -> SymBool {
        SymBool(Expr::eq(&self.0, &other.0))
    }

    /// The concrete value, if the expression folded to a constant.
    pub fn as_const(&self) -> Option<bool> {
        self.0.as_const_bool()
    }

    /// Symbolic if-then-else over booleans.
    pub fn ite(&self, then: &SymBool, els: &SymBool) -> SymBool {
        SymBool(Expr::ite(&self.0, &then.0, &els.0))
    }
}

impl From<bool> for SymBool {
    fn from(b: bool) -> Self {
        SymBool::from_bool(b)
    }
}

impl SymInt {
    /// Concrete integer.
    pub fn from_i64(v: i64) -> Self {
        SymInt(Expr::int(v))
    }

    /// The underlying expression.
    pub fn expr(&self) -> &ExprRef {
        &self.0
    }

    /// Equality test.
    pub fn eq(&self, other: &SymInt) -> SymBool {
        SymBool(Expr::eq(&self.0, &other.0))
    }

    /// Inequality test.
    pub fn ne(&self, other: &SymInt) -> SymBool {
        self.eq(other).not()
    }

    /// Less-than.
    pub fn lt(&self, other: &SymInt) -> SymBool {
        SymBool(Expr::lt(&self.0, &other.0))
    }

    /// Less-than-or-equal.
    pub fn le(&self, other: &SymInt) -> SymBool {
        other.lt(self).not()
    }

    /// Greater-than.
    pub fn gt(&self, other: &SymInt) -> SymBool {
        other.lt(self)
    }

    /// Greater-than-or-equal.
    pub fn ge(&self, other: &SymInt) -> SymBool {
        self.lt(other).not()
    }

    /// Addition.
    pub fn add(&self, other: &SymInt) -> SymInt {
        SymInt(Expr::add(&self.0, &other.0))
    }

    /// Subtraction.
    pub fn sub(&self, other: &SymInt) -> SymInt {
        SymInt(Expr::sub(&self.0, &other.0))
    }

    /// Symbolic if-then-else over integers.
    pub fn ite(cond: &SymBool, then: &SymInt, els: &SymInt) -> SymInt {
        SymInt(Expr::ite(&cond.0, &then.0, &els.0))
    }

    /// The concrete value, if constant.
    pub fn as_const(&self) -> Option<i64> {
        self.0.as_const_int()
    }
}

impl From<i64> for SymInt {
    fn from(v: i64) -> Self {
        SymInt::from_i64(v)
    }
}

/// Factory for fresh symbolic variables.
#[derive(Debug, Default)]
pub struct SymContext {
    next_id: Cell<VarId>,
    created: std::cell::RefCell<Vec<Var>>,
}

impl SymContext {
    /// A context with no variables yet.
    pub fn new() -> Self {
        SymContext::default()
    }

    /// A context that continues where this one stands: it starts with the
    /// same variables and hands out the ids this one would hand out next,
    /// while this one stays as it is. Building a shared prefix of variables
    /// once and forking per use therefore numbers and names every variable
    /// exactly as building everything from scratch each time would.
    pub fn fork(&self) -> SymContext {
        SymContext {
            next_id: self.next_id.clone(),
            created: self.created.clone(),
        }
    }

    fn fresh(&self, name: &str, sort: Sort) -> Var {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let var = Var {
            id,
            name: Rc::from(name),
            sort,
        };
        self.created.borrow_mut().push(var.clone());
        var
    }

    /// A fresh boolean variable.
    pub fn bool_var(&self, name: &str) -> SymBool {
        SymBool(Expr::var(self.fresh(name, Sort::Bool)))
    }

    /// A fresh integer variable.
    pub fn int_var(&self, name: &str) -> SymInt {
        SymInt(Expr::var(self.fresh(name, Sort::Int)))
    }

    /// Every variable created so far, in creation order.
    pub fn variables(&self) -> Vec<Var> {
        self.created.borrow().clone()
    }

    /// Number of variables created.
    pub fn var_count(&self) -> usize {
        self.created.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_arithmetic_folds() {
        let a = SymInt::from_i64(3);
        let b = SymInt::from_i64(4);
        assert_eq!(a.add(&b).as_const(), Some(7));
        assert_eq!(a.lt(&b).as_const(), Some(true));
        assert_eq!(a.eq(&b).as_const(), Some(false));
        assert_eq!(a.ge(&b).as_const(), Some(false));
        assert_eq!(b.sub(&a).as_const(), Some(1));
    }

    #[test]
    fn boolean_algebra_folds_constants() {
        let t = SymBool::from_bool(true);
        let f = SymBool::from_bool(false);
        assert_eq!(t.and(&f).as_const(), Some(false));
        assert_eq!(t.or(&f).as_const(), Some(true));
        assert_eq!(f.implies(&t).as_const(), Some(true));
        assert_eq!(t.not().as_const(), Some(false));
    }

    #[test]
    fn context_allocates_distinct_variables() {
        let ctx = SymContext::new();
        let a = ctx.int_var("a");
        let b = ctx.int_var("b");
        assert_ne!(a, b);
        assert_eq!(ctx.var_count(), 2);
        assert!(
            a.eq(&b).as_const().is_none(),
            "distinct vars must stay symbolic"
        );
        let vars = ctx.variables();
        assert_eq!(vars[0].name.as_ref(), "a");
        assert_eq!(vars[1].sort, Sort::Int);
    }

    #[test]
    fn symbolic_ite_keeps_structure() {
        let ctx = SymContext::new();
        let c = ctx.bool_var("c");
        let x = SymInt::from_i64(1);
        let y = SymInt::from_i64(2);
        let e = SymInt::ite(&c, &x, &y);
        assert!(e.as_const().is_none());
        let same = SymInt::ite(&c, &x, &x);
        assert_eq!(same.as_const(), Some(1));
    }

    #[test]
    fn iff_and_ite_on_bools() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        assert_eq!(a.iff(&a).as_const(), Some(true));
        let picked = a.ite(&SymBool::from_bool(true), &SymBool::from_bool(true));
        assert_eq!(picked.as_const(), Some(true));
    }

    #[test]
    fn a_forked_context_numbers_like_one_built_from_scratch() {
        let build_base = |ctx: &SymContext| {
            ctx.int_var("base.ino");
            ctx.bool_var("base.exists");
        };
        let scratch = SymContext::new();
        build_base(&scratch);
        scratch.int_var("path.oracle");

        let base = SymContext::new();
        build_base(&base);
        for _ in 0..2 {
            let fork = base.fork();
            fork.int_var("path.oracle");
            assert_eq!(fork.variables(), scratch.variables());
        }
        assert_eq!(base.var_count(), 2, "forks leave the base as it was");
    }
}
