//! Whole-database snapshots for test oracles.

use pr_model::{EntityId, Value};
use std::collections::BTreeMap;

/// An immutable capture of every entity's value at one instant.
///
/// Used by the serializability oracle: a concurrent run is accepted iff its
/// final snapshot equals the final snapshot of *some* serial order of the
/// same transactions (§1's correctness criterion).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    values: BTreeMap<EntityId, Value>,
}

impl Snapshot {
    /// Builds a snapshot from `(id, value)` pairs.
    pub fn from_pairs(iter: impl IntoIterator<Item = (EntityId, Value)>) -> Self {
        Snapshot { values: iter.into_iter().collect() }
    }

    /// Value of `id` in this snapshot, if present.
    pub fn get(&self, id: EntityId) -> Option<Value> {
        self.values.get(&id).copied()
    }

    /// Iterates `(id, value)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, Value)> + '_ {
        self.values.iter().map(|(id, v)| (*id, *v))
    }

    /// Number of entities captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Absorbs another snapshot's entries (later entries win on id
    /// collision, though shard partitions are disjoint by construction).
    /// Used to reassemble a whole-database snapshot from per-shard stores.
    pub fn merge(&mut self, other: Snapshot) {
        self.values.extend(other.values);
    }

    /// Entity ids on which two snapshots disagree — the core of oracle
    /// failure messages.
    pub fn diff(&self, other: &Snapshot) -> Vec<EntityId> {
        let mut ids: Vec<EntityId> = Vec::new();
        for (id, v) in &self.values {
            if other.values.get(id) != Some(v) {
                ids.push(*id);
            }
        }
        for id in other.values.keys() {
            if !self.values.contains_key(id) {
                ids.push(*id);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }
    fn v(i: i64) -> Value {
        Value::new(i)
    }

    #[test]
    fn snapshot_captures_values() {
        let s = Snapshot::from_pairs([(e(0), v(1)), (e(1), v(2))]);
        assert_eq!(s.get(e(0)), Some(v(1)));
        assert_eq!(s.get(e(9)), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn diff_reports_disagreements_symmetrically() {
        let a = Snapshot::from_pairs([(e(0), v(1)), (e(1), v(2))]);
        let b = Snapshot::from_pairs([(e(0), v(1)), (e(1), v(3)), (e(2), v(0))]);
        assert_eq!(a.diff(&b), vec![e(1), e(2)]);
        assert_eq!(b.diff(&a), vec![e(1), e(2)]);
        assert_eq!(a.diff(&a), Vec::<EntityId>::new());
    }
}
