//! Conflict classification (§3.2).
//!
//! "A conflict in such a system arises either (1) when a transaction
//! requests a shared lock on an entity on which some other transaction
//! holds an exclusive lock (Type 1), or (2) when a transaction requests an
//! exclusive lock on an entity on which another transaction holds any lock
//! (Type 2)."
//!
//! Type 2 conflicts are the reason the concurrency graph of a
//! shared+exclusive system is a general acyclic digraph rather than a
//! forest: one wait response can create arcs to *many* holders at once.

use pr_model::LockMode;

/// The two conflict classes of §3.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConflictType {
    /// Shared request vs. exclusive holder. Exactly one holder is waited
    /// on, so the wait adds a single arc.
    Type1,
    /// Exclusive request vs. any holder(s). Possibly many holders are
    /// waited on, so the wait may add several arcs — and hence close
    /// several cycles at once (Figure 3).
    Type2,
}

/// Classifies the conflict between a request and the incompatible holders'
/// modes. Returns `None` when there is no conflict (all holders
/// compatible).
pub fn classify_conflict(requested: LockMode, holder_modes: &[LockMode]) -> Option<ConflictType> {
    match requested {
        LockMode::Shared => {
            holder_modes.contains(&LockMode::Exclusive).then_some(ConflictType::Type1)
        }
        LockMode::Exclusive => (!holder_modes.is_empty()).then_some(ConflictType::Type2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::{Exclusive, Shared};

    #[test]
    fn shared_vs_exclusive_is_type1() {
        assert_eq!(classify_conflict(Shared, &[Exclusive]), Some(ConflictType::Type1));
    }

    #[test]
    fn shared_vs_shared_is_no_conflict() {
        assert_eq!(classify_conflict(Shared, &[Shared, Shared]), None);
        assert_eq!(classify_conflict(Shared, &[]), None);
    }

    #[test]
    fn exclusive_vs_anything_is_type2() {
        assert_eq!(classify_conflict(Exclusive, &[Shared]), Some(ConflictType::Type2));
        assert_eq!(classify_conflict(Exclusive, &[Exclusive]), Some(ConflictType::Type2));
        assert_eq!(
            classify_conflict(Exclusive, &[Shared, Shared, Shared]),
            Some(ConflictType::Type2)
        );
    }

    #[test]
    fn exclusive_vs_nothing_is_no_conflict() {
        assert_eq!(classify_conflict(Exclusive, &[]), None);
    }
}
