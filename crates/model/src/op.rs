//! The atomic operation algebra.
//!
//! §2 of the paper gives transactions four kinds of interactions with the
//! system: shared-lock requests (`LS`), exclusive-lock requests (`LX`),
//! unlock requests (`U`), and reads/writes of global entities; plus internal
//! computation on local variables. We model each as one [`Op`] — executing
//! one `Op` advances the transaction by exactly one state index, which is
//! what makes the paper's state-difference cost function meaningful.

use crate::ids::{EntityId, VarId};
use crate::value::Value;
use std::fmt;

/// Lock modes of §2: exclusive for read/write access, shared for read-only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockMode {
    /// Shared lock (`LS`): many readers may hold it simultaneously.
    Shared,
    /// Exclusive lock (`LX`): at most one holder; permits writes.
    Exclusive,
}

impl LockMode {
    /// Whether a new lock in mode `self` can coexist with a held lock in
    /// mode `other` on the same entity.
    #[inline]
    pub fn compatible_with(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => write!(f, "S"),
            LockMode::Exclusive => write!(f, "X"),
        }
    }
}

/// A side-effect-free expression over a transaction's local variables.
///
/// Expressions give programs real data semantics, so the test oracles can
/// observe whether a rollback restored *values* correctly — not merely lock
/// bookkeeping.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// The current value of a local variable.
    Var(VarId),
    /// Sum of two sub-expressions (wrapping).
    Add(Operand, Operand),
    /// Difference of two sub-expressions (wrapping).
    Sub(Operand, Operand),
    /// Product of two sub-expressions (wrapping).
    Mul(Operand, Operand),
}

/// One side of a binary [`Expr`] node: a leaf stored inline, or a boxed
/// sub-expression. The dominant shapes (`var ± const`, `var`) therefore
/// own no heap memory, which keeps program text cheap to build, share and
/// drop.
///
/// Build operands with `Operand::from(expr)` (as [`Expr::add`] and friends
/// do): it stores leaves inline, so `Nested` never wraps a leaf and
/// structurally equal expressions compare equal.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A literal value.
    Const(Value),
    /// The current value of a local variable.
    Var(VarId),
    /// A non-leaf sub-expression.
    Nested(Box<Expr>),
}

impl From<Expr> for Operand {
    fn from(e: Expr) -> Operand {
        match e {
            Expr::Const(v) => Operand::Const(v),
            Expr::Var(id) => Operand::Var(id),
            nested => Operand::Nested(Box::new(nested)),
        }
    }
}

/// Prints exactly what the equivalent [`Expr`] prints (`Nested` is
/// transparent): [`TransactionProgram::content_key`] is built on this
/// output and feeds the prover's serialized `content_hash` certificates
/// and the explorer's symmetry groups.
///
/// [`TransactionProgram::content_key`]: crate::TransactionProgram::content_key
impl fmt::Debug for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(v) => f.debug_tuple("Const").field(v).finish(),
            Operand::Var(id) => f.debug_tuple("Var").field(id).finish(),
            Operand::Nested(e) => e.fmt(f),
        }
    }
}

impl Operand {
    #[inline]
    fn eval(&self, locals: &[Value]) -> Value {
        match self {
            Operand::Const(v) => *v,
            Operand::Var(id) => read_var(locals, *id),
            Operand::Nested(e) => e.eval(locals),
        }
    }

    fn any_var_with(&self, pred: &mut impl FnMut(VarId) -> bool) -> bool {
        match self {
            Operand::Const(_) => false,
            Operand::Var(id) => pred(*id),
            Operand::Nested(e) => e.any_var_with(pred),
        }
    }
}

/// A variable's value, [`Value::ZERO`] when out of range (see [`Expr::eval`]).
#[inline]
fn read_var(locals: &[Value], id: VarId) -> Value {
    locals.get(id.index()).copied().unwrap_or(Value::ZERO)
}

impl Expr {
    /// Convenience constructor: `lhs + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Add(lhs.into(), rhs.into())
    }

    /// Convenience constructor: `lhs - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Sub(lhs.into(), rhs.into())
    }

    /// Convenience constructor: `lhs * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Mul(lhs.into(), rhs.into())
    }

    /// Convenience constructor for a literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Const(Value::new(v))
    }

    /// Convenience constructor for a variable reference.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Evaluates the expression against a local-variable environment.
    ///
    /// Out-of-range variable references evaluate to [`Value::ZERO`]; the
    /// [validator](crate::validate) rejects such programs up front, so this
    /// is purely defensive.
    pub fn eval(&self, locals: &[Value]) -> Value {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(id) => read_var(locals, *id),
            Expr::Add(a, b) => a.eval(locals) + b.eval(locals),
            Expr::Sub(a, b) => a.eval(locals) - b.eval(locals),
            Expr::Mul(a, b) => a.eval(locals) * b.eval(locals),
        }
    }

    /// Whether `pred` holds for any variable the expression reads, in
    /// left-to-right order, stopping at the first hit. Allocates nothing
    /// (unlike [`Self::variables`]).
    pub fn any_var(&self, mut pred: impl FnMut(VarId) -> bool) -> bool {
        self.any_var_with(&mut pred)
    }

    // Takes the predicate by `&mut` so the recursion through `Operand`
    // instantiates once per caller closure, not once per nesting level.
    fn any_var_with(&self, pred: &mut impl FnMut(VarId) -> bool) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(id) => pred(*id),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.any_var_with(pred) || b.any_var_with(pred)
            }
        }
    }

    /// All local variables the expression reads.
    pub fn variables(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.any_var(|v| {
            out.push(v);
            false
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Maximum variable index referenced, if any.
    pub fn max_var(&self) -> Option<VarId> {
        let mut max = None;
        self.any_var(|v| {
            max = max.max(Some(v));
            false
        });
        max
    }
}

/// One atomic operation of a transaction (§2).
///
/// Executing any `Op` advances the transaction's state index by one.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `LS(A)` — request a shared lock on entity `A`.
    LockShared(EntityId),
    /// `LX(A)` — request an exclusive lock on entity `A`.
    LockExclusive(EntityId),
    /// `U(A)` — release the lock held on entity `A`; under deferred update
    /// this publishes the final local value of `A` to the database.
    Unlock(EntityId),
    /// Read the (locally visible) value of a locked entity into a local
    /// variable.
    Read {
        /// Entity to read; must be lock-protected at execution time.
        entity: EntityId,
        /// Local variable receiving the value.
        into: VarId,
    },
    /// Write an expression's value to an exclusively locked entity
    /// (buffered in the transaction's local copy until unlock).
    Write {
        /// Entity to write; must be exclusively locked at execution time.
        entity: EntityId,
        /// Expression over local variables producing the new value.
        expr: Expr,
    },
    /// Assign an expression's value to a local variable (pure computation).
    Assign {
        /// Target local variable.
        var: VarId,
        /// Expression over local variables producing the new value.
        expr: Expr,
    },
    /// Internal computation that reads local variables but stores nothing:
    /// it advances the state index (it is an atomic operation) without
    /// affecting restorability. Used to model computation time and to pad
    /// scenario transactions to exact state indices.
    Compute(Expr),
    /// Terminate successfully, releasing all remaining locks ("the system
    /// may equivalently release any entities which a transaction has failed
    /// to unlock at the time the transaction terminates", §1).
    Commit,
}

impl Op {
    /// Whether this operation is a lock request (`LS` or `LX`).
    #[inline]
    pub fn is_lock_request(&self) -> bool {
        matches!(self, Op::LockShared(_) | Op::LockExclusive(_))
    }

    /// The entity and mode requested, if this is a lock request.
    #[inline]
    pub fn lock_request(&self) -> Option<(EntityId, LockMode)> {
        match self {
            Op::LockShared(e) => Some((*e, LockMode::Shared)),
            Op::LockExclusive(e) => Some((*e, LockMode::Exclusive)),
            _ => None,
        }
    }

    /// The entity touched by this operation, if any.
    pub fn entity(&self) -> Option<EntityId> {
        match self {
            Op::LockShared(e)
            | Op::LockExclusive(e)
            | Op::Unlock(e)
            | Op::Read { entity: e, .. }
            | Op::Write { entity: e, .. } => Some(*e),
            Op::Assign { .. } | Op::Compute(_) | Op::Commit => None,
        }
    }

    /// Whether this operation writes a local variable (reads into locals
    /// count: they overwrite the previous local value, which matters for
    /// restorability, §4).
    #[inline]
    pub fn written_var(&self) -> Option<VarId> {
        match self {
            Op::Read { into, .. } => Some(*into),
            Op::Assign { var, .. } => Some(*var),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::LockShared(e) => write!(f, "LS({e})"),
            Op::LockExclusive(e) => write!(f, "LX({e})"),
            Op::Unlock(e) => write!(f, "U({e})"),
            Op::Read { entity, into } => write!(f, "{into} := R({entity})"),
            Op::Write { entity, .. } => write!(f, "W({entity})"),
            Op::Assign { var, .. } => write!(f, "{var} := <expr>"),
            Op::Compute(_) => write!(f, "compute"),
            Op::Commit => write!(f, "COMMIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_mode_compatibility_matrix() {
        use LockMode::*;
        assert!(Shared.compatible_with(Shared));
        assert!(!Shared.compatible_with(Exclusive));
        assert!(!Exclusive.compatible_with(Shared));
        assert!(!Exclusive.compatible_with(Exclusive));
    }

    #[test]
    fn expr_evaluation() {
        let locals = [Value::new(3), Value::new(4)];
        let e =
            Expr::add(Expr::mul(Expr::var(VarId::new(0)), Expr::var(VarId::new(1))), Expr::lit(5));
        assert_eq!(e.eval(&locals), Value::new(17));
        let d = Expr::sub(Expr::var(VarId::new(1)), Expr::var(VarId::new(0)));
        assert_eq!(d.eval(&locals), Value::new(1));
    }

    #[test]
    fn expr_out_of_range_var_is_zero() {
        let e = Expr::var(VarId::new(9));
        assert_eq!(e.eval(&[]), Value::ZERO);
    }

    #[test]
    fn expr_variable_collection_dedups_and_sorts() {
        let e = Expr::add(
            Expr::var(VarId::new(2)),
            Expr::mul(Expr::var(VarId::new(0)), Expr::var(VarId::new(2))),
        );
        assert_eq!(e.variables(), vec![VarId::new(0), VarId::new(2)]);
        assert_eq!(e.max_var(), Some(VarId::new(2)));
        assert_eq!(Expr::lit(1).max_var(), None);
    }

    #[test]
    fn any_var_short_circuits_left_to_right() {
        let e = Expr::add(
            Expr::var(VarId::new(2)),
            Expr::mul(Expr::var(VarId::new(0)), Expr::var(VarId::new(5))),
        );
        let mut seen = Vec::new();
        assert!(e.any_var(|v| {
            seen.push(v.raw());
            v == VarId::new(0)
        }));
        assert_eq!(seen, [2, 0]);
        assert!(!e.any_var(|v| v == VarId::new(9)));
        assert!(!Expr::lit(1).any_var(|_| true));
    }

    /// Operations are stored by the million in program pools: the layout
    /// is part of the contract (`var ± const` owns no heap memory).
    #[test]
    fn op_layout_is_pinned() {
        assert!(std::mem::size_of::<Operand>() <= 16);
        assert!(std::mem::size_of::<Op>() <= 48, "Op is {} bytes", std::mem::size_of::<Op>());
        let e = Expr::add(Expr::var(VarId::new(0)), Expr::lit(1));
        assert!(matches!(e, Expr::Add(Operand::Var(_), Operand::Const(_))), "leaves stay inline");
    }

    fn depth3() -> Expr {
        let v = VarId::new;
        Expr::mul(
            Expr::sub(Expr::add(Expr::var(v(1)), Expr::lit(2)), Expr::var(v(0))),
            Expr::add(Expr::lit(-3), Expr::mul(Expr::var(v(2)), Expr::var(v(2)))),
        )
    }

    /// `Debug` output is load-bearing (`TransactionProgram::content_key`
    /// feeds serialized certificates): these strings were printed by the
    /// derived impl over `Box<Expr>` operands and must never change.
    #[test]
    fn debug_output_is_pinned() {
        let v = VarId::new;
        assert_eq!(format!("{:?}", Expr::var(v(3))), "Var(L3)");
        assert_eq!(format!("{:?}", Expr::lit(-7)), "Const(-7)");
        assert_eq!(
            format!("{:?}", Expr::add(Expr::var(v(0)), Expr::lit(1))),
            "Add(Var(L0), Const(1))"
        );
        assert_eq!(
            format!("{:?}", depth3()),
            "Mul(Sub(Add(Var(L1), Const(2)), Var(L0)), Add(Const(-3), Mul(Var(L2), Var(L2))))"
        );
        assert_eq!(
            format!(
                "{:?}",
                Op::Write {
                    entity: EntityId::new(0),
                    expr: Expr::sub(Expr::var(v(2)), Expr::lit(-4))
                }
            ),
            "Write { entity: e0, expr: Sub(Var(L2), Const(-4)) }"
        );
        assert_eq!(
            format!("{:#?}", Expr::sub(Expr::add(Expr::var(v(1)), Expr::lit(2)), Expr::var(v(0)))),
            "Sub(\n    Add(\n        Var(\n            L1,\n        ),\n        Const(\n            \
             2,\n        ),\n    ),\n    Var(\n        L0,\n    ),\n)"
        );
    }

    /// The boxed tree `Expr` used to be, kept as the reference the inline
    /// representation is compared against.
    enum RefExpr {
        Const(i64),
        Var(u16),
        Bin(u8, Box<RefExpr>, Box<RefExpr>),
    }

    impl RefExpr {
        fn eval(&self, locals: &[Value]) -> i64 {
            match self {
                RefExpr::Const(c) => *c,
                RefExpr::Var(v) => locals.get(*v as usize).map_or(0, |x| x.raw()),
                RefExpr::Bin(0, a, b) => a.eval(locals).wrapping_add(b.eval(locals)),
                RefExpr::Bin(1, a, b) => a.eval(locals).wrapping_sub(b.eval(locals)),
                RefExpr::Bin(_, a, b) => a.eval(locals).wrapping_mul(b.eval(locals)),
            }
        }

        fn vars(&self, out: &mut std::collections::BTreeSet<u16>) {
            match self {
                RefExpr::Const(_) => {}
                RefExpr::Var(v) => {
                    out.insert(*v);
                }
                RefExpr::Bin(_, a, b) => {
                    a.vars(out);
                    b.vars(out);
                }
            }
        }

        fn debug(&self) -> String {
            match self {
                RefExpr::Const(c) => format!("Const({c})"),
                RefExpr::Var(v) => format!("Var(L{v})"),
                RefExpr::Bin(op, a, b) => {
                    format!("{}({}, {})", ["Add", "Sub", "Mul"][*op as usize], a.debug(), b.debug())
                }
            }
        }
    }

    /// Grows one script of bytes into the same tree in both
    /// representations; a spent script yields leaves.
    fn build(script: &mut std::slice::Iter<'_, u8>, depth: usize) -> (Expr, RefExpr) {
        let byte = script.next().copied().unwrap_or(0);
        let leaf = depth >= 8 || byte % 5 < 2;
        if leaf && byte % 2 == 0 {
            let c = (i64::from(byte) - 100).wrapping_mul(0x0123_4567_89AB_CDEF);
            (Expr::lit(c), RefExpr::Const(c))
        } else if leaf {
            let v = u16::from(byte % 7);
            (Expr::var(VarId::new(v)), RefExpr::Var(v))
        } else {
            let (a, ra) = build(script, depth + 1);
            let (b, rb) = build(script, depth + 1);
            let op = byte % 3;
            let e = match op {
                0 => Expr::add(a, b),
                1 => Expr::sub(a, b),
                _ => Expr::mul(a, b),
            };
            (e, RefExpr::Bin(op, Box::new(ra), Box::new(rb)))
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn inline_operands_agree_with_the_boxed_reference(
            script in prop::collection::vec(any::<u8>(), 0..64),
            locals in prop::collection::vec(any::<i64>(), 0..6),
        ) {
            let locals: Vec<Value> = locals.into_iter().map(Value::new).collect();
            let (e, r) = build(&mut script.iter(), 0);
            prop_assert_eq!(e.eval(&locals).raw(), r.eval(&locals));
            let mut vars = std::collections::BTreeSet::new();
            r.vars(&mut vars);
            let want: Vec<VarId> = vars.iter().map(|v| VarId::new(*v)).collect();
            prop_assert_eq!(e.max_var(), want.last().copied());
            prop_assert_eq!(e.variables(), want);
            prop_assert_eq!(format!("{e:?}"), r.debug());
        }
    }

    #[test]
    fn op_classification() {
        let ls = Op::LockShared(EntityId::new(1));
        let lx = Op::LockExclusive(EntityId::new(2));
        let un = Op::Unlock(EntityId::new(1));
        assert!(ls.is_lock_request());
        assert!(lx.is_lock_request());
        assert!(!un.is_lock_request());
        assert_eq!(ls.lock_request(), Some((EntityId::new(1), LockMode::Shared)));
        assert_eq!(lx.lock_request(), Some((EntityId::new(2), LockMode::Exclusive)));
        assert_eq!(
            Op::Read { entity: EntityId::new(3), into: VarId::new(0) }.entity(),
            Some(EntityId::new(3))
        );
        assert_eq!(Op::Commit.entity(), None);
    }

    #[test]
    fn written_var_covers_reads_and_assigns() {
        let r = Op::Read { entity: EntityId::new(0), into: VarId::new(1) };
        let a = Op::Assign { var: VarId::new(2), expr: Expr::lit(0) };
        let w = Op::Write { entity: EntityId::new(0), expr: Expr::lit(0) };
        assert_eq!(r.written_var(), Some(VarId::new(1)));
        assert_eq!(a.written_var(), Some(VarId::new(2)));
        assert_eq!(w.written_var(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Op::LockShared(EntityId::new(0)).to_string(), "LS(a)");
        assert_eq!(Op::LockExclusive(EntityId::new(1)).to_string(), "LX(b)");
        assert_eq!(Op::Unlock(EntityId::new(2)).to_string(), "U(c)");
        assert_eq!(Op::Commit.to_string(), "COMMIT");
    }
}
