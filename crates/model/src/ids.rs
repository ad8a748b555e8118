//! Identifier newtypes.
//!
//! The paper indexes a transaction's progress in two different unit systems:
//!
//! * A **state index** counts *atomic operations*: "with each state of a
//!   transaction we associate an index whose value is equal to the number of
//!   states preceding the given one" (§2). The rollback **cost** of §3.1 is a
//!   difference of state indices.
//! * A **lock index** counts *lock states*: "the lock index of an entity or
//!   an operation \[is\] equal to the number of lock states preceding it in the
//!   transaction" (§4). Rollback targets, MCS stacks, and the
//!   state-dependency graph all live in lock-index space.
//!
//! Keeping the two as distinct newtypes prevents an entire class of
//! off-by-one-unit bugs.

use std::fmt;

/// Identifier of a global data entity (the lockable unit of §2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

impl EntityId {
    /// Creates an entity identifier from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        EntityId(raw)
    }

    /// Raw index of this entity.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Entities a..z get letter names so reproduced figures read like the
        // paper ("T2 requested b from its 8th state").
        if self.0 < 26 {
            write!(f, "{}", (b'a' + self.0 as u8) as char)
        } else {
            write!(f, "e{}", self.0)
        }
    }
}

/// Identifier of a transaction (an execution instance of a program, §2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u32);

impl TxnId {
    /// Creates a transaction identifier from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        TxnId(raw)
    }

    /// Raw index of this transaction.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a variable local to one transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u16);

impl VarId {
    /// Creates a local-variable identifier from a raw index.
    #[inline]
    pub const fn new(raw: u16) -> Self {
        VarId(raw)
    }

    /// Raw index of this variable.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Index as `usize`, for direct vector addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Index of a transaction *state*: the number of atomic operations the
/// transaction has executed to reach it (§2).
///
/// Rollback cost (§3.1) is `StateIndex − StateIndex`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StateIndex(pub u32);

impl StateIndex {
    /// The initial state of every transaction.
    pub const ZERO: StateIndex = StateIndex(0);

    /// Creates a state index from a raw count.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        StateIndex(raw)
    }

    /// Raw count of preceding states.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The state reached after executing one more atomic operation.
    #[inline]
    #[must_use]
    pub const fn next(self) -> Self {
        StateIndex(self.0 + 1)
    }

    /// Number of states lost when rolling back from `self` to `earlier`.
    ///
    /// This is exactly the paper's rollback cost: in Figure 1, `T2` waiting
    /// in state 12 rolled back to state 8 costs `12 − 8 = 4`.
    #[inline]
    pub fn cost_to(self, earlier: StateIndex) -> u32 {
        debug_assert!(earlier <= self, "rollback target must not be in the future");
        self.0 - earlier.0
    }
}

impl fmt::Debug for StateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for StateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Index of a *lock state*: the number of lock states preceding it (§4).
///
/// Lock state `k` is the state immediately preceding the transaction's
/// `k`-th lock request (0-based). An operation's lock index is the number of
/// lock states preceding the operation, so an operation executed after the
/// `k`-th lock request was granted and before the `(k+1)`-th was issued has
/// lock index `k + 1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LockIndex(pub u32);

impl LockIndex {
    /// The lock state preceding the very first lock request — rolling back
    /// here is total rollback.
    pub const ZERO: LockIndex = LockIndex(0);

    /// Creates a lock index from a raw count.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        LockIndex(raw)
    }

    /// Raw count of preceding lock states.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Index as `usize`, for direct vector addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The lock index after one more lock state is created.
    #[inline]
    #[must_use]
    pub const fn next(self) -> Self {
        LockIndex(self.0 + 1)
    }
}

impl fmt::Debug for LockIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for LockIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_display_uses_letters_for_small_ids() {
        assert_eq!(EntityId::new(0).to_string(), "a");
        assert_eq!(EntityId::new(1).to_string(), "b");
        assert_eq!(EntityId::new(25).to_string(), "z");
        assert_eq!(EntityId::new(26).to_string(), "e26");
    }

    #[test]
    fn state_index_cost_matches_figure_1() {
        // T2 waits from state 12 and requested b from state 8: cost 4.
        assert_eq!(StateIndex::new(12).cost_to(StateIndex::new(8)), 4);
        // T3: 11 − 5 = 6, T4: 15 − 10 = 5.
        assert_eq!(StateIndex::new(11).cost_to(StateIndex::new(5)), 6);
        assert_eq!(StateIndex::new(15).cost_to(StateIndex::new(10)), 5);
    }

    #[test]
    fn state_index_next_increments() {
        assert_eq!(StateIndex::ZERO.next(), StateIndex::new(1));
        assert_eq!(StateIndex::new(7).next().raw(), 8);
    }

    #[test]
    fn lock_index_ordering_and_next() {
        assert!(LockIndex::ZERO < LockIndex::new(1));
        assert_eq!(LockIndex::new(3).next(), LockIndex::new(4));
        assert_eq!(LockIndex::new(5).index(), 5usize);
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut v = vec![TxnId::new(3), TxnId::new(1), TxnId::new(2)];
        v.sort();
        assert_eq!(v, vec![TxnId::new(1), TxnId::new(2), TxnId::new(3)]);
        let set: std::collections::HashSet<EntityId> =
            [EntityId::new(1), EntityId::new(1), EntityId::new(2)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", TxnId::new(4)), "T4");
        assert_eq!(format!("{:?}", EntityId::new(2)), "e2");
        assert_eq!(format!("{:?}", StateIndex::new(9)), "S9");
        assert_eq!(format!("{:?}", LockIndex::new(9)), "k9");
        assert_eq!(format!("{:?}", VarId::new(0)), "L0");
    }
}
