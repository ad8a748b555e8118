//! Whole-database snapshots for test oracles.

use pr_model::{EntityId, Value};
use std::fmt;

/// An immutable capture of every entity's value at one instant.
///
/// Used by the serializability oracle: a concurrent run is accepted iff its
/// final snapshot equals the final snapshot of *some* serial order of the
/// same transactions (§1's correctness criterion).
///
/// Stored as one `Vec` sorted by id with no duplicate ids, so building one
/// from an already id-ordered source (a store, an entity slab) is a single
/// copy and lookups are binary searches.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    values: Vec<(EntityId, Value)>,
}

impl Snapshot {
    /// Builds a snapshot from `(id, value)` pairs. On a repeated id the
    /// later pair wins.
    pub fn from_pairs(iter: impl IntoIterator<Item = (EntityId, Value)>) -> Self {
        let mut values: Vec<(EntityId, Value)> = iter.into_iter().collect();
        if !values.windows(2).all(|w| w[0].0 < w[1].0) {
            // Reversed first, so the stable sort puts each id's last pair
            // ahead of its earlier ones and the dedup keeps it.
            values.reverse();
            values.sort_by_key(|&(id, _)| id);
            values.dedup_by_key(|&mut (id, _)| id);
        }
        Snapshot { values }
    }

    /// Value of `id` in this snapshot, if present.
    pub fn get(&self, id: EntityId) -> Option<Value> {
        let i = self.values.binary_search_by_key(&id, |&(e, _)| e).ok()?;
        Some(self.values[i].1)
    }

    /// Iterates `(id, value)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, Value)> + '_ {
        self.values.iter().copied()
    }

    /// Number of entities captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Renders as the id → value map it stands for, in id order.
impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a [(EntityId, Value)]);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter().map(|(id, v)| (id, v))).finish()
            }
        }
        f.debug_struct("Snapshot").field("values", &Entries(&self.values)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }
    fn v(i: i64) -> Value {
        Value::new(i)
    }

    /// The map-backed layout the `Vec` replaced, kept as the reference.
    mod reference {
        use super::*;

        #[derive(PartialEq, Debug)]
        pub struct Snapshot {
            pub values: BTreeMap<EntityId, Value>,
        }
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
    fn later_pairs_win_on_a_repeated_id() {
        let s = Snapshot::from_pairs([(e(3), v(1)), (e(1), v(2)), (e(3), v(7)), (e(1), v(4))]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(e(1), v(4)), (e(3), v(7))]);
        assert_eq!(format!("{s:?}"), "Snapshot { values: {e1: 4, e3: 7} }");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On unsorted input with repeated ids, the sorted `Vec` answers
        /// every query (and prints) exactly as the `BTreeMap` it replaced.
        /// Small id and value ranges, so repeated ids are the norm and two
        /// independent draws are sometimes equal.
        #[test]
        fn vec_snapshot_agrees_with_the_map(
            pairs in prop::collection::vec((0u32..8, -2i64..3), 0..24),
            other in prop::collection::vec((0u32..8, -2i64..3), 0..24),
        ) {
            let build = |raw: &[(u32, i64)]| {
                let pairs: Vec<(EntityId, Value)> = raw.iter().map(|&(i, x)| (e(i), v(x))).collect();
                let map: BTreeMap<EntityId, Value> = pairs.iter().copied().collect();
                (Snapshot::from_pairs(pairs), reference::Snapshot { values: map })
            };
            let (snap, map) = build(&pairs);
            let (other_snap, other_map) = build(&other);
            for i in 0..10 {
                prop_assert_eq!(snap.get(e(i)), map.values.get(&e(i)).copied());
            }
            let listed: Vec<(EntityId, Value)> = map.values.iter().map(|(&id, &x)| (id, x)).collect();
            prop_assert_eq!(snap.iter().collect::<Vec<_>>(), listed.clone());
            prop_assert_eq!(snap.len(), map.values.len());
            prop_assert_eq!(snap.is_empty(), map.values.is_empty());
            prop_assert_eq!(snap == other_snap, map == other_map);
            prop_assert_eq!(Snapshot::from_pairs(listed), snap.clone());
            prop_assert_eq!(format!("{snap:?}"), format!("{map:?}"));
            prop_assert_eq!(format!("{snap:#?}"), format!("{map:#?}"));
        }
    }
}
