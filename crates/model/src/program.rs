//! Straight-line transaction programs.
//!
//! A [`TransactionProgram`] is the static text a transaction executes: a
//! sequence of [`Op`]s plus the number and initial values of its local
//! variables. Programs are straight-line (no branches); §2 models a
//! transaction as "a sequence of atomic operations", and straight-line
//! programs make replays after rollback exactly reproducible, which is the
//! property partial rollback depends on.

use crate::error::ModelError;
use crate::ids::{EntityId, VarId};
use crate::op::{LockMode, Op};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A static transaction program.
///
/// The text is immutable and reference-counted: a clone shares the
/// operations and initial values instead of copying them, so every layer
/// that hands a program on (batching, admission, the explorer's forks)
/// pays two reference-count bumps however long the program is.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransactionProgram {
    ops: Arc<[Op]>,
    initial_vars: Arc<[Value]>,
}

impl TransactionProgram {
    /// Creates a program from raw parts without validating it.
    ///
    /// Use [`crate::validate::validate`] (or [`crate::ProgramBuilder`],
    /// which validates on `build`) before handing a program to the engine.
    pub fn from_parts(ops: Vec<Op>, initial_vars: Vec<Value>) -> Self {
        TransactionProgram { ops: ops.into(), initial_vars: initial_vars.into() }
    }

    /// The operation sequence.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The operation at program counter `pc`, if in range.
    #[inline]
    pub fn op(&self, pc: usize) -> Option<&Op> {
        self.ops.get(pc)
    }

    /// Number of operations (also the state index a full run terminates at).
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Initial values of the local variables; `initial_vars.len()` is the
    /// number of local variables.
    #[inline]
    pub fn initial_vars(&self) -> &[Value] {
        &self.initial_vars
    }

    /// Number of local variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.initial_vars.len()
    }

    /// All lock requests in program order as `(pc, entity, mode)`.
    ///
    /// The position of a request in this list is its lock index: the `k`-th
    /// request creates lock state `k`.
    pub fn lock_requests(&self) -> Vec<(usize, EntityId, LockMode)> {
        self.ops
            .iter()
            .enumerate()
            .filter_map(|(pc, op)| op.lock_request().map(|(e, m)| (pc, e, m)))
            .collect()
    }

    /// Total number of lock requests in the program.
    pub fn num_lock_requests(&self) -> usize {
        self.ops.iter().filter(|op| op.is_lock_request()).count()
    }

    /// Entities the program ever locks (deduplicated, program order).
    pub fn locked_entities(&self) -> Vec<EntityId> {
        let mut seen = Vec::new();
        for op in self.ops.iter() {
            if let Some((e, _)) = op.lock_request() {
                if !seen.contains(&e) {
                    seen.push(e);
                }
            }
        }
        seen
    }

    /// Largest local-variable index referenced anywhere, if any. Used by the
    /// validator to ensure `initial_vars` covers every reference.
    pub fn max_var_referenced(&self) -> Option<VarId> {
        let mut max: Option<VarId> = None;
        let mut bump = |v: VarId| {
            max = Some(match max {
                Some(m) if m >= v => m,
                _ => v,
            });
        };
        for op in self.ops.iter() {
            if let Some(v) = op.written_var() {
                bump(v);
            }
            match op {
                Op::Write { expr, .. } | Op::Assign { expr, .. } => {
                    if let Some(v) = expr.max_var() {
                        bump(v);
                    }
                }
                _ => {}
            }
        }
        max
    }

    /// A compact single-line rendering, useful in test failure messages.
    pub fn render(&self) -> String {
        let body: Vec<String> = self.ops.iter().map(|op| op.to_string()).collect();
        body.join("; ")
    }

    /// A canonical content key: two programs get the same key iff they
    /// have the same operations and the same initial variable values.
    /// Transaction-id symmetry reduction groups transactions by this key —
    /// only transactions running *identical* programs are interchangeable.
    /// Built on the derived `Debug` of the op list, not [`render`](Self::render):
    /// the display form elides expressions (`W(a)` regardless of what is
    /// written), which would conflate programs that differ only in values.
    pub fn content_key(&self) -> String {
        format!("{:?}{:?}", self.initial_vars, self.ops)
    }
}

impl fmt::Display for TransactionProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl TryFrom<Vec<Op>> for TransactionProgram {
    type Error = ModelError;

    /// Builds a program with enough zero-initialised local variables for
    /// every reference, then validates it.
    fn try_from(ops: Vec<Op>) -> Result<Self, ModelError> {
        let mut prog = TransactionProgram::from_parts(ops, Vec::new());
        let nvars = prog.max_var_referenced().map_or(0, |v| v.index() + 1);
        prog.initial_vars = vec![Value::ZERO; nvars].into();
        crate::validate::validate(&prog)?;
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Expr;

    fn sample() -> TransactionProgram {
        // LX(a); L0 := R(a); L0 := L0 + 1; W(a); LS(b); L1 := R(b); U(a); U(b); COMMIT
        TransactionProgram::from_parts(
            vec![
                Op::LockExclusive(EntityId::new(0)),
                Op::Read { entity: EntityId::new(0), into: VarId::new(0) },
                Op::Assign {
                    var: VarId::new(0),
                    expr: Expr::add(Expr::var(VarId::new(0)), Expr::lit(1)),
                },
                Op::Write { entity: EntityId::new(0), expr: Expr::var(VarId::new(0)) },
                Op::LockShared(EntityId::new(1)),
                Op::Read { entity: EntityId::new(1), into: VarId::new(1) },
                Op::Unlock(EntityId::new(0)),
                Op::Unlock(EntityId::new(1)),
                Op::Commit,
            ],
            vec![Value::ZERO, Value::ZERO],
        )
    }

    #[test]
    fn lock_requests_enumerate_in_order() {
        let p = sample();
        let reqs = p.lock_requests();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0], (0, EntityId::new(0), LockMode::Exclusive));
        assert_eq!(reqs[1], (4, EntityId::new(1), LockMode::Shared));
        assert_eq!(p.num_lock_requests(), 2);
    }

    #[test]
    fn footprints() {
        let p = sample();
        assert_eq!(p.locked_entities(), vec![EntityId::new(0), EntityId::new(1)]);
        assert_eq!(p.max_var_referenced(), Some(VarId::new(1)));
    }

    #[test]
    fn try_from_ops_sizes_vars_and_validates() {
        let p = TransactionProgram::try_from(vec![
            Op::LockExclusive(EntityId::new(0)),
            Op::Read { entity: EntityId::new(0), into: VarId::new(3) },
            Op::Commit,
        ])
        .unwrap();
        assert_eq!(p.num_vars(), 4);
    }

    #[test]
    fn try_from_rejects_invalid() {
        // Unlock before any lock: not two-phase-legal.
        let err = TransactionProgram::try_from(vec![Op::Unlock(EntityId::new(0))]);
        assert!(err.is_err());
    }

    #[test]
    fn render_is_compact() {
        let p = sample();
        let s = p.render();
        assert!(s.starts_with("LX(a)"));
        assert!(s.ends_with("COMMIT"));
        assert_eq!(p.to_string(), s);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(sample().len(), 9);
        assert!(!sample().is_empty());
        assert!(TransactionProgram::from_parts(vec![], vec![]).is_empty());
    }
}
