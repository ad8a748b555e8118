//! Fluent construction of transaction programs.
//!
//! ```
//! use pr_model::{EntityId, ProgramBuilder, VarId, Expr};
//!
//! let a = EntityId::new(0);
//! let b = EntityId::new(1);
//! let v = VarId::new(0);
//! let program = ProgramBuilder::new()
//!     .lock_exclusive(a)
//!     .read(a, v)
//!     .assign(v, Expr::add(Expr::var(v), Expr::lit(1)))
//!     .write(a, Expr::var(v))
//!     .lock_shared(b)
//!     .read(b, VarId::new(1))
//!     .unlock(a)
//!     .unlock(b)
//!     .build()
//!     .expect("valid two-phase program");
//! assert_eq!(program.num_lock_requests(), 2);
//! ```

use crate::error::ModelError;
use crate::ids::{EntityId, VarId};
use crate::op::{Expr, Op};
use crate::program::TransactionProgram;

/// Builder for [`TransactionProgram`]s.
///
/// `build` appends a final `COMMIT` if the program does not already end in
/// one, sizes the local-variable vector to cover every reference, and
/// validates the result.
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `LS(entity)`.
    #[must_use]
    pub fn lock_shared(mut self, entity: EntityId) -> Self {
        self.ops.push(Op::LockShared(entity));
        self
    }

    /// Appends `LX(entity)`.
    #[must_use]
    pub fn lock_exclusive(mut self, entity: EntityId) -> Self {
        self.ops.push(Op::LockExclusive(entity));
        self
    }

    /// Appends `U(entity)`.
    #[must_use]
    pub fn unlock(mut self, entity: EntityId) -> Self {
        self.ops.push(Op::Unlock(entity));
        self
    }

    /// Appends a read of `entity` into local variable `into`.
    #[must_use]
    pub fn read(mut self, entity: EntityId, into: VarId) -> Self {
        self.ops.push(Op::Read { entity, into });
        self
    }

    /// Appends a write of `expr` to `entity`.
    #[must_use]
    pub fn write(mut self, entity: EntityId, expr: Expr) -> Self {
        self.ops.push(Op::Write { entity, expr });
        self
    }

    /// Appends a write of a constant to `entity`.
    #[must_use]
    pub fn write_const(self, entity: EntityId, value: i64) -> Self {
        self.write(entity, Expr::lit(value))
    }

    /// Appends a local assignment.
    #[must_use]
    pub fn assign(mut self, var: VarId, expr: Expr) -> Self {
        self.ops.push(Op::Assign { var, expr });
        self
    }

    /// Appends `count` pure computations, used by scenario builders to pad
    /// a transaction to an exact state index — the reproduced figures need
    /// specific rollback costs like Figure 1's `12 − 8 = 4`. Pads store
    /// nothing, so they never destroy well-defined states.
    #[must_use]
    pub fn pad(mut self, count: usize) -> Self {
        for _ in 0..count {
            self.ops.push(Op::Compute(Expr::lit(0)));
        }
        self
    }

    /// Appends an arbitrary operation.
    #[must_use]
    pub fn op(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// Number of operations appended so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations have been appended.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finishes the program: appends `COMMIT` if missing, sizes the
    /// variable vector, and validates.
    pub fn build(mut self) -> Result<TransactionProgram, ModelError> {
        if !matches!(self.ops.last(), Some(Op::Commit)) {
            self.ops.push(Op::Commit);
        }
        TransactionProgram::try_from(self.ops)
    }

    /// Finishes the program, panicking on validation failure. Convenient in
    /// tests and scenario builders where programs are statically known-good.
    pub fn build_unchecked(self) -> TransactionProgram {
        match self.build() {
            Ok(p) => p,
            Err(e) => panic!("program failed validation: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_appends_commit_and_sizes_vars() {
        let p = ProgramBuilder::new()
            .lock_exclusive(EntityId::new(0))
            .read(EntityId::new(0), VarId::new(2))
            .build()
            .unwrap();
        assert!(matches!(p.ops().last(), Some(Op::Commit)));
        assert_eq!(p.num_vars(), 3);
    }

    #[test]
    fn pad_inserts_noops_after_first_lock() {
        let p = ProgramBuilder::new().lock_shared(EntityId::new(0)).pad(5).build().unwrap();
        // 1 lock + 5 pads + commit
        assert_eq!(p.len(), 7);
        assert_eq!(p.num_vars(), 0, "pads reference no variables");
    }

    #[test]
    fn invalid_program_is_reported() {
        let r = ProgramBuilder::new().unlock(EntityId::new(0)).build();
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "program failed validation")]
    fn build_unchecked_panics_on_invalid() {
        let _ = ProgramBuilder::new().unlock(EntityId::new(0)).build_unchecked();
    }

    #[test]
    fn len_tracks_ops() {
        let b = ProgramBuilder::new().lock_shared(EntityId::new(0)).pad(2);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(ProgramBuilder::new().is_empty());
    }

    #[test]
    fn no_double_commit_when_user_commits() {
        let p = ProgramBuilder::new().lock_shared(EntityId::new(0)).op(Op::Commit).build().unwrap();
        assert_eq!(p.ops().iter().filter(|o| matches!(o, Op::Commit)).count(), 1);
    }
}
