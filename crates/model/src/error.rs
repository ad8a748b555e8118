//! Model-level errors and program violations.

use crate::ids::{EntityId, VarId};
use std::fmt;

/// One way a program can violate the §2 protocol rules.
///
/// Every variant carries the program counter of the offending operation so
/// generators and tests can pinpoint it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A lock request after the first unlock — violates two-phase ("no
    /// further lock requests be executed after the unlock", §2).
    LockAfterUnlock {
        /// Offending operation's program counter.
        pc: usize,
        /// Entity whose lock was requested.
        entity: EntityId,
    },
    /// A lock was requested on an entity already locked by this program in
    /// the same or a stronger mode.
    DoubleLock {
        /// Offending operation's program counter.
        pc: usize,
        /// Entity locked twice.
        entity: EntityId,
    },
    /// An exclusive lock was requested on an entity this program already
    /// holds shared. The model does not support in-place lock upgrades:
    /// an upgrade is a blocking re-acquisition whose wait semantics
    /// (queueing against other shared holders, rollback target of the
    /// original shared acquisition) the paper never defines, and naive
    /// upgrades deadlock whenever two shared holders both try. Programs
    /// must request `LX` up front when they will eventually write.
    LockUpgrade {
        /// Offending operation's program counter.
        pc: usize,
        /// Entity held shared and re-requested exclusively.
        entity: EntityId,
    },
    /// An unlock of an entity the program does not hold at that point.
    UnlockNotHeld {
        /// Offending operation's program counter.
        pc: usize,
        /// Entity unlocked without being held.
        entity: EntityId,
    },
    /// A read of an entity not covered by any lock at that point.
    ReadWithoutLock {
        /// Offending operation's program counter.
        pc: usize,
        /// Entity read without lock protection.
        entity: EntityId,
    },
    /// A write to an entity not covered by an exclusive lock at that point.
    WriteWithoutExclusiveLock {
        /// Offending operation's program counter.
        pc: usize,
        /// Entity written without exclusive protection.
        entity: EntityId,
    },
    /// A write or assignment before the program's first lock request — the
    /// paper assumes "no write operations occur before the first lock
    /// request in a transaction" (§4).
    WriteBeforeFirstLock {
        /// Offending operation's program counter.
        pc: usize,
    },
    /// A local-variable reference beyond the declared variable count.
    VarOutOfRange {
        /// Offending operation's program counter.
        pc: usize,
        /// The out-of-range variable.
        var: VarId,
        /// Number of declared variables.
        declared: usize,
    },
    /// Operations after `Commit`.
    OpAfterCommit {
        /// Offending operation's program counter.
        pc: usize,
    },
    /// The program never commits.
    MissingCommit,
}

impl Violation {
    /// The offending operation's program counter, when the violation has
    /// one ([`Violation::MissingCommit`] is a property of the whole
    /// program).
    pub fn pc(&self) -> Option<usize> {
        match self {
            Violation::LockAfterUnlock { pc, .. }
            | Violation::DoubleLock { pc, .. }
            | Violation::LockUpgrade { pc, .. }
            | Violation::UnlockNotHeld { pc, .. }
            | Violation::ReadWithoutLock { pc, .. }
            | Violation::WriteWithoutExclusiveLock { pc, .. }
            | Violation::WriteBeforeFirstLock { pc }
            | Violation::VarOutOfRange { pc, .. }
            | Violation::OpAfterCommit { pc } => Some(*pc),
            Violation::MissingCommit => None,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LockAfterUnlock { pc, entity } => {
                write!(f, "pc {pc}: lock request on {entity} after an unlock (not two-phase)")
            }
            Violation::DoubleLock { pc, entity } => {
                write!(f, "pc {pc}: entity {entity} locked while already held")
            }
            Violation::LockUpgrade { pc, entity } => {
                write!(
                    f,
                    "pc {pc}: exclusive request upgrades the shared lock on {entity} \
                     (upgrades are not supported; request LX first)"
                )
            }
            Violation::UnlockNotHeld { pc, entity } => {
                write!(f, "pc {pc}: unlock of {entity} which is not held")
            }
            Violation::ReadWithoutLock { pc, entity } => {
                write!(f, "pc {pc}: read of {entity} without holding a lock")
            }
            Violation::WriteWithoutExclusiveLock { pc, entity } => {
                write!(f, "pc {pc}: write to {entity} without an exclusive lock")
            }
            Violation::WriteBeforeFirstLock { pc } => {
                write!(f, "pc {pc}: write precedes the first lock request")
            }
            Violation::VarOutOfRange { pc, var, declared } => {
                write!(f, "pc {pc}: variable {var} out of range (declared {declared})")
            }
            Violation::OpAfterCommit { pc } => write!(f, "pc {pc}: operation after COMMIT"),
            Violation::MissingCommit => write!(f, "program never commits"),
        }
    }
}

/// Error type for program construction and validation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// The program violates the protocol rules; all violations are listed.
    InvalidProgram(Vec<Violation>),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidProgram(vs) => {
                write!(f, "invalid transaction program ({} violations):", vs.len())?;
                for v in vs {
                    write!(f, "\n  - {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render_with_pc() {
        let v = Violation::DoubleLock { pc: 3, entity: EntityId::new(0) };
        assert!(v.to_string().contains("pc 3"));
        assert!(v.to_string().contains('a'));
        let v = Violation::LockUpgrade { pc: 5, entity: EntityId::new(1) };
        assert!(v.to_string().contains("pc 5"));
        assert!(v.to_string().contains("upgrade"));
    }

    #[test]
    fn pc_accessor_covers_every_variant() {
        let e = EntityId::new(0);
        assert_eq!(Violation::LockUpgrade { pc: 2, entity: e }.pc(), Some(2));
        assert_eq!(Violation::UnlockNotHeld { pc: 4, entity: e }.pc(), Some(4));
        assert_eq!(Violation::MissingCommit.pc(), None);
    }

    #[test]
    fn model_error_lists_all_violations() {
        let e = ModelError::InvalidProgram(vec![
            Violation::MissingCommit,
            Violation::OpAfterCommit { pc: 7 },
        ]);
        let s = e.to_string();
        assert!(s.contains("2 violations"));
        assert!(s.contains("never commits"));
        assert!(s.contains("pc 7"));
    }
}
