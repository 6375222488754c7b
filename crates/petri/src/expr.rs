//! Global-guard expression language.
//!
//! TimeNET-style *global guards* are boolean expressions over the current
//! marking, e.g. `(#Buffer == 0) && (#Idle > 0)` from Table XI of the paper.
//! Using guards instead of extra arcs "simplifies the construction of the
//! Petri net significantly" (Sec. VI) — the engine evaluates the guard
//! whenever it re-checks a transition's enabling.
//!
//! The AST distinguishes integer-valued and boolean-valued expressions via
//! [`Expr::kind`]; [`crate::builder::NetBuilder::build`] type-checks every
//! guard so malformed guards are rejected at net-construction time, not
//! mid-simulation.

use crate::ids::PlaceId;
use crate::marking::Marking;
use crate::token::Color;
use std::fmt;

/// Comparison operators available in guard expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    #[inline]
    pub(crate) fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// The static type of an expression: integer-valued or boolean-valued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprKind {
    /// Evaluates to an `i64`.
    Int,
    /// Evaluates to a `bool`.
    Bool,
}

/// A guard/reward expression over a marking.
///
/// Build expressions with the constructor helpers ([`Expr::count`],
/// [`Expr::constant`], comparison and logic combinators) rather than the enum
/// variants directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// `#place` — total tokens in a place, or `#place[color]` when a color is
    /// given.
    Count(PlaceId, Option<Color>),
    /// Integer addition.
    Add(Box<Expr>, Box<Expr>),
    /// Integer subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Integer comparison producing a boolean.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Boolean conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Boolean disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// Boolean literal `true`.
    True,
    /// Boolean literal `false`.
    False,
}

impl Expr {
    // ---- constructors ----

    /// `#p`: total token count of place `p`.
    pub fn count(p: PlaceId) -> Expr {
        Expr::Count(p, None)
    }

    /// `#p[c]`: count of tokens of color `c` in place `p`.
    pub fn count_color(p: PlaceId, c: Color) -> Expr {
        Expr::Count(p, Some(c))
    }

    /// Integer literal.
    pub fn constant(v: i64) -> Expr {
        Expr::Const(v)
    }

    // ---- integer combinators ----

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    // ---- comparisons (int -> bool) ----

    /// `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Eq, Box::new(rhs))
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ne, Box::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Lt, Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Le, Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Gt, Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ge, Box::new(rhs))
    }

    // ---- convenience comparisons against integer literals ----

    /// `self == v`.
    pub fn eq_c(self, v: i64) -> Expr {
        self.eq(Expr::constant(v))
    }

    /// `self > v`.
    pub fn gt_c(self, v: i64) -> Expr {
        self.gt(Expr::constant(v))
    }

    /// `self >= v`.
    pub fn ge_c(self, v: i64) -> Expr {
        self.ge(Expr::constant(v))
    }

    /// `self < v`.
    pub fn lt_c(self, v: i64) -> Expr {
        self.lt(Expr::constant(v))
    }

    /// `self <= v`.
    pub fn le_c(self, v: i64) -> Expr {
        self.le(Expr::constant(v))
    }

    // ---- boolean combinators ----

    /// `self && rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self || rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    // ---- analysis ----

    /// The static type of this expression, or `None` if it is ill-typed
    /// (e.g. `And` over integers).
    pub fn kind(&self) -> Option<ExprKind> {
        match self {
            Expr::Const(_) | Expr::Count(..) => Some(ExprKind::Int),
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                if a.kind() == Some(ExprKind::Int) && b.kind() == Some(ExprKind::Int) {
                    Some(ExprKind::Int)
                } else {
                    None
                }
            }
            Expr::Cmp(a, _, b) => {
                if a.kind() == Some(ExprKind::Int) && b.kind() == Some(ExprKind::Int) {
                    Some(ExprKind::Bool)
                } else {
                    None
                }
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                if a.kind() == Some(ExprKind::Bool) && b.kind() == Some(ExprKind::Bool) {
                    Some(ExprKind::Bool)
                } else {
                    None
                }
            }
            Expr::Not(a) => {
                if a.kind() == Some(ExprKind::Bool) {
                    Some(ExprKind::Bool)
                } else {
                    None
                }
            }
            Expr::True | Expr::False => Some(ExprKind::Bool),
        }
    }

    /// Collect every place referenced by this expression into `out`
    /// (used to build the guard-dependency index for incremental enabling
    /// checks).
    pub fn collect_places(&self, out: &mut Vec<PlaceId>) {
        match self {
            Expr::Const(_) | Expr::True | Expr::False => {}
            Expr::Count(p, _) => out.push(*p),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_places(out);
                b.collect_places(out);
            }
            Expr::Cmp(a, _, b) => {
                a.collect_places(out);
                b.collect_places(out);
            }
            Expr::Not(a) => a.collect_places(out),
        }
    }

    /// Largest place index referenced, if any (for builder validation).
    pub fn max_place_index(&self) -> Option<usize> {
        let mut places = Vec::new();
        self.collect_places(&mut places);
        places.iter().map(|p| p.index()).max()
    }

    // ---- evaluation ----

    /// Evaluate as an integer. Panics on boolean nodes; the builder's
    /// type-check makes that unreachable for guards stored in a net.
    pub fn eval_int(&self, m: &Marking) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Count(p, None) => m.count(*p) as i64,
            Expr::Count(p, Some(c)) => m.count_color(*p, *c) as i64,
            Expr::Add(a, b) => a.eval_int(m) + b.eval_int(m),
            Expr::Sub(a, b) => a.eval_int(m) - b.eval_int(m),
            _ => panic!("eval_int on boolean expression: {self:?}"),
        }
    }

    /// Evaluate as a boolean. Panics on integer nodes; the builder's
    /// type-check makes that unreachable for guards stored in a net.
    pub fn eval_bool(&self, m: &Marking) -> bool {
        match self {
            Expr::Cmp(a, op, b) => op.apply(a.eval_int(m), b.eval_int(m)),
            Expr::And(a, b) => a.eval_bool(m) && b.eval_bool(m),
            Expr::Or(a, b) => a.eval_bool(m) || b.eval_bool(m),
            Expr::Not(a) => !a.eval_bool(m),
            Expr::True => true,
            Expr::False => false,
            _ => panic!("eval_bool on integer expression: {self:?}"),
        }
    }
}

/// One step of a compiled (postfix) expression program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ExprOp {
    /// Push an integer literal.
    ConstI(i64),
    /// Push the total token count of a place (a dense-vector load).
    Count(u32),
    /// Push the count of tokens of one color in a place.
    CountColor(u32, Color),
    /// Pop two ints, push their sum.
    Add,
    /// Pop two ints, push their difference.
    Sub,
    /// Pop two ints, push the comparison result (0/1).
    Cmp(CmpOp),
    /// Pop two bools, push the conjunction.
    And,
    /// Pop two bools, push the disjunction.
    Or,
    /// Pop one bool, push the negation.
    Not,
    /// Push a boolean literal (0/1).
    ConstB(bool),
}

/// A guard/predicate [`Expr`] flattened to a postfix program, evaluated
/// against the marking's dense count vector with a caller-provided scratch
/// stack — no recursion, no `Box` pointer chasing in the simulator's hot
/// loop. Booleans are represented as 0/1 on the integer stack; the
/// builder's type-check guarantees programs are well-formed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledExpr {
    ops: Vec<ExprOp>,
    /// Exact stack high-water mark, so callers can reserve once.
    stack_needed: usize,
}

impl CompiledExpr {
    /// Flatten `e` (postorder walk).
    pub(crate) fn compile(e: &Expr) -> CompiledExpr {
        fn emit(e: &Expr, ops: &mut Vec<ExprOp>) {
            match e {
                Expr::Const(v) => ops.push(ExprOp::ConstI(*v)),
                Expr::Count(p, None) => ops.push(ExprOp::Count(p.index() as u32)),
                Expr::Count(p, Some(c)) => ops.push(ExprOp::CountColor(p.index() as u32, *c)),
                Expr::Add(a, b) => {
                    emit(a, ops);
                    emit(b, ops);
                    ops.push(ExprOp::Add);
                }
                Expr::Sub(a, b) => {
                    emit(a, ops);
                    emit(b, ops);
                    ops.push(ExprOp::Sub);
                }
                Expr::Cmp(a, op, b) => {
                    emit(a, ops);
                    emit(b, ops);
                    ops.push(ExprOp::Cmp(*op));
                }
                Expr::And(a, b) => {
                    emit(a, ops);
                    emit(b, ops);
                    ops.push(ExprOp::And);
                }
                Expr::Or(a, b) => {
                    emit(a, ops);
                    emit(b, ops);
                    ops.push(ExprOp::Or);
                }
                Expr::Not(a) => {
                    emit(a, ops);
                    ops.push(ExprOp::Not);
                }
                Expr::True => ops.push(ExprOp::ConstB(true)),
                Expr::False => ops.push(ExprOp::ConstB(false)),
            }
        }
        let mut ops = Vec::new();
        emit(e, &mut ops);
        // Stack high-water mark: pushes add one, binary ops net -1.
        let mut depth = 0usize;
        let mut max_depth = 0usize;
        for op in &ops {
            match op {
                ExprOp::ConstI(_)
                | ExprOp::Count(_)
                | ExprOp::CountColor(..)
                | ExprOp::ConstB(_) => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                ExprOp::Add | ExprOp::Sub | ExprOp::Cmp(_) | ExprOp::And | ExprOp::Or => depth -= 1,
                ExprOp::Not => {}
            }
        }
        CompiledExpr {
            ops,
            stack_needed: max_depth,
        }
    }

    /// Scratch capacity the evaluation stack needs.
    #[inline]
    pub(crate) fn stack_needed(&self) -> usize {
        self.stack_needed
    }

    /// If the whole program is a bare `count(place) cmp constant`
    /// comparison, return its parts — the lowering pass replaces such
    /// guards/predicates with direct count-threshold ops.
    pub(crate) fn as_count_cmp(&self) -> Option<(u32, CmpOp, i64)> {
        match self.ops.as_slice() {
            [ExprOp::Count(p), ExprOp::ConstI(v), ExprOp::Cmp(op)] => Some((*p, *op, *v)),
            _ => None,
        }
    }

    /// The same for a bare `count_color(place, color) cmp constant`.
    pub(crate) fn as_color_count_cmp(&self) -> Option<(u32, Color, CmpOp, i64)> {
        match self.ops.as_slice() {
            [ExprOp::CountColor(p, c), ExprOp::ConstI(v), ExprOp::Cmp(op)] => {
                Some((*p, *c, *op, *v))
            }
            _ => None,
        }
    }

    /// Evaluate as a boolean. `stack` is caller-owned scratch (cleared
    /// here); `m` supplies counts.
    #[inline]
    pub(crate) fn eval_bool(&self, m: &Marking, stack: &mut Vec<i64>) -> bool {
        stack.clear();
        let counts = m.counts();
        for op in &self.ops {
            match *op {
                ExprOp::ConstI(v) => stack.push(v),
                ExprOp::Count(p) => stack.push(counts[p as usize] as i64),
                ExprOp::CountColor(p, c) => {
                    stack.push(m.count_color(crate::ids::PlaceId(p), c) as i64)
                }
                ExprOp::ConstB(b) => stack.push(b as i64),
                ExprOp::Add => {
                    let b = stack.pop().expect("well-formed program");
                    let a = stack.last_mut().expect("well-formed program");
                    *a += b;
                }
                ExprOp::Sub => {
                    let b = stack.pop().expect("well-formed program");
                    let a = stack.last_mut().expect("well-formed program");
                    *a -= b;
                }
                ExprOp::Cmp(op) => {
                    let b = stack.pop().expect("well-formed program");
                    let a = stack.last_mut().expect("well-formed program");
                    *a = op.apply(*a, b) as i64;
                }
                ExprOp::And => {
                    let b = stack.pop().expect("well-formed program");
                    let a = stack.last_mut().expect("well-formed program");
                    *a = (*a != 0 && b != 0) as i64;
                }
                ExprOp::Or => {
                    let b = stack.pop().expect("well-formed program");
                    let a = stack.last_mut().expect("well-formed program");
                    *a = (*a != 0 || b != 0) as i64;
                }
                ExprOp::Not => {
                    let a = stack.last_mut().expect("well-formed program");
                    *a = (*a == 0) as i64;
                }
            }
        }
        debug_assert_eq!(stack.len(), 1);
        stack.pop().expect("well-formed program") != 0
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Count(p, None) => write!(f, "#{p}"),
            Expr::Count(p, Some(c)) => write!(f, "#{p}[{c}]"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Cmp(a, op, b) => write!(f, "({a} {op} {b})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::Not(a) => write!(f, "!{a}"),
            Expr::True => write!(f, "true"),
            Expr::False => write!(f, "false"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PlaceId {
        PlaceId::from_index(i)
    }

    fn marking(counts: &[usize]) -> Marking {
        let mut m = Marking::empty(counts.len());
        for (i, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                m.deposit(p(i), Color::NONE);
            }
        }
        m
    }

    #[test]
    fn count_and_constant() {
        let m = marking(&[3, 0]);
        assert_eq!(Expr::count(p(0)).eval_int(&m), 3);
        assert_eq!(Expr::constant(7).eval_int(&m), 7);
    }

    #[test]
    fn color_count() {
        let mut m = Marking::empty(1);
        m.deposit(p(0), Color(2));
        m.deposit(p(0), Color(2));
        m.deposit(p(0), Color(5));
        assert_eq!(Expr::count_color(p(0), Color(2)).eval_int(&m), 2);
        assert_eq!(Expr::count_color(p(0), Color(5)).eval_int(&m), 1);
        assert_eq!(Expr::count(p(0)).eval_int(&m), 3);
    }

    #[test]
    fn arithmetic() {
        let m = marking(&[3, 2]);
        let e = Expr::count(p(0))
            .add(Expr::count(p(1)))
            .sub(Expr::constant(1));
        assert_eq!(e.eval_int(&m), 4);
    }

    #[test]
    fn comparisons() {
        let m = marking(&[3]);
        assert!(Expr::count(p(0)).gt_c(2).eval_bool(&m));
        assert!(Expr::count(p(0)).ge_c(3).eval_bool(&m));
        assert!(Expr::count(p(0)).eq_c(3).eval_bool(&m));
        assert!(Expr::count(p(0)).le_c(3).eval_bool(&m));
        assert!(Expr::count(p(0)).lt_c(4).eval_bool(&m));
        assert!(Expr::count(p(0)).ne(Expr::constant(2)).eval_bool(&m));
        assert!(!Expr::count(p(0)).gt_c(3).eval_bool(&m));
    }

    #[test]
    fn logic() {
        let m = marking(&[1, 0]);
        let a = Expr::count(p(0)).gt_c(0);
        let b = Expr::count(p(1)).eq_c(0);
        assert!(a.clone().and(b.clone()).eval_bool(&m));
        assert!(a.clone().or(Expr::False).eval_bool(&m));
        assert!(!a.clone().and(Expr::False).eval_bool(&m));
        assert!(!a.and(b).not().eval_bool(&m));
        assert!(Expr::True.eval_bool(&m));
        assert!(!Expr::False.eval_bool(&m));
    }

    #[test]
    fn table_xi_style_guard() {
        // (#Buffer == 0) && (#Idle > 0) from the paper's Table XI.
        let buffer = p(0);
        let idle = p(1);
        let guard = Expr::count(buffer).eq_c(0).and(Expr::count(idle).gt_c(0));
        assert!(guard.eval_bool(&marking(&[0, 1])));
        assert!(!guard.eval_bool(&marking(&[1, 1])));
        assert!(!guard.eval_bool(&marking(&[0, 0])));
    }

    #[test]
    fn kind_typechecks() {
        assert_eq!(Expr::constant(1).kind(), Some(ExprKind::Int));
        assert_eq!(Expr::count(p(0)).kind(), Some(ExprKind::Int));
        assert_eq!(Expr::count(p(0)).gt_c(0).kind(), Some(ExprKind::Bool));
        assert_eq!(Expr::True.kind(), Some(ExprKind::Bool));
        // Ill-typed: And over ints.
        let bad = Expr::And(Box::new(Expr::Const(1)), Box::new(Expr::Const(2)));
        assert_eq!(bad.kind(), None);
        // Ill-typed: Add over bools.
        let bad2 = Expr::Add(Box::new(Expr::True), Box::new(Expr::False));
        assert_eq!(bad2.kind(), None);
    }

    #[test]
    fn collect_places_finds_all() {
        let e = Expr::count(p(0))
            .gt_c(0)
            .and(Expr::count_color(p(2), Color(1)).eq_c(0));
        let mut places = Vec::new();
        e.collect_places(&mut places);
        places.sort();
        assert_eq!(places, vec![p(0), p(2)]);
        assert_eq!(e.max_place_index(), Some(2));
    }

    #[test]
    fn compiled_matches_tree_walk() {
        let exprs = [
            Expr::count(p(0)).eq_c(0).and(Expr::count(p(1)).gt_c(0)),
            Expr::count(p(0))
                .add(Expr::count(p(1)))
                .sub(Expr::constant(1))
                .ge_c(2),
            Expr::count(p(2))
                .lt_c(3)
                .or(Expr::count(p(0)).ne(Expr::constant(1))),
            Expr::count_color(p(2), Color(1)).eq_c(0).not(),
            Expr::True,
            Expr::False.or(Expr::count(p(1)).le_c(5)),
        ];
        let markings = [
            marking(&[0, 1, 0]),
            marking(&[1, 0, 3]),
            marking(&[2, 5, 1]),
            {
                let mut m = Marking::empty(3);
                m.deposit(p(2), Color(1));
                m.deposit(p(2), Color(4));
                m
            },
        ];
        let mut stack = Vec::new();
        for e in &exprs {
            let prog = CompiledExpr::compile(e);
            assert!(prog.stack_needed() >= 1);
            for m in &markings {
                assert_eq!(
                    prog.eval_bool(m, &mut stack),
                    e.eval_bool(m),
                    "expr {e} diverged on {:?}",
                    m.count_vector()
                );
            }
        }
    }

    #[test]
    fn display_roundtrips_shape() {
        let e = Expr::count(p(0)).eq_c(0).and(Expr::count(p(1)).gt_c(0));
        assert_eq!(e.to_string(), "((#P0 == 0) && (#P1 > 0))");
    }
}
