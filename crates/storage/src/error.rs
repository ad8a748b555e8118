//! Storage-layer errors.

use pr_model::{EntityId, LockIndex, VarId};
use std::fmt;

/// Errors raised by the storage substrate.
///
/// These indicate engine bugs or protocol violations, never ordinary data
/// conditions: a correct engine only reads locked entities and only rolls
/// back to restorable states.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StorageError {
    /// The entity does not exist in the global store.
    NoSuchEntity(EntityId),
    /// The entity already exists in the global store.
    EntityExists(EntityId),
    /// A workspace was asked about an entity it holds no copy of.
    NoLocalCopy(EntityId),
    /// A local-variable index beyond the workspace's variable count.
    NoSuchVariable(VarId),
    /// A workspace was asked to restore a lock state whose value was
    /// destroyed by later writes (a non-restorable state, §4) or evicted
    /// by a copy budget.
    NotRestorable {
        /// Entity whose value cannot be reproduced.
        entity: EntityId,
        /// The requested rollback target.
        target: LockIndex,
    },
    /// A variable's value at the rollback target was destroyed by later
    /// assignments or evicted by a copy budget.
    VarNotRestorable {
        /// Variable whose value cannot be reproduced.
        var: VarId,
        /// The requested rollback target.
        target: LockIndex,
    },
    /// An integrity constraint failed during a consistency check.
    ConstraintViolated {
        /// Name of the violated constraint.
        name: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSuchEntity(e) => write!(f, "no such entity: {e}"),
            StorageError::EntityExists(e) => write!(f, "entity already exists: {e}"),
            StorageError::NoLocalCopy(e) => write!(f, "no local copy of entity {e}"),
            StorageError::NoSuchVariable(v) => write!(f, "no such local variable: {v}"),
            StorageError::NotRestorable { entity, target } => {
                write!(f, "entity {entity} is not restorable at lock state {target}")
            }
            StorageError::VarNotRestorable { var, target } => {
                write!(f, "variable {var} is not restorable at lock state {target}")
            }
            StorageError::ConstraintViolated { name } => {
                write!(f, "integrity constraint violated: {name}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::NotRestorable { entity: EntityId::new(0), target: LockIndex::new(2) };
        assert!(e.to_string().contains("not restorable"));
        assert!(StorageError::NoSuchEntity(EntityId::new(3)).to_string().contains("no such"));
    }
}
