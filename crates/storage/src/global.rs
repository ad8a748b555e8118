//! The global entity store — the "database" of §2.
//!
//! A database is "a set of global data entities" each with a value from its
//! range, plus "a set of constraints defining the set of consistent states".
//! Under the deferred-update discipline of §4 the store is only written at
//! unlock time, which is why rollback-for-deadlock never needs to undo it.

use crate::error::StorageError;
use crate::snapshot::Snapshot;
use pr_model::{EntityId, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An integrity constraint over the database, named for diagnostics.
///
/// The classic example is conservation: "the sum of all account balances is
/// constant". Constraints are checked by [`GlobalStore::check_consistency`],
/// which the test oracles call at every quiescent point.
#[derive(Clone)]
pub struct Constraint {
    name: String,
    /// `Arc`, not `Box`: constraints are immutable once registered, so a
    /// cloned store (the model checker snapshots whole systems) can share
    /// the predicate instead of requiring `dyn Fn: Clone`.
    predicate: Arc<dyn Fn(&GlobalStore) -> bool + Send + Sync>,
}

impl Constraint {
    /// Creates a named constraint from a predicate over the store.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(&GlobalStore) -> bool + Send + Sync + 'static,
    ) -> Self {
        Constraint { name: name.into(), predicate: Arc::new(predicate) }
    }

    /// The constraint's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Constraint").field("name", &self.name).finish()
    }
}

/// The database: a map from entity id to current (global) value.
#[derive(Clone, Default)]
pub struct GlobalStore {
    entities: BTreeMap<EntityId, Value>,
    constraints: Vec<Constraint>,
}

impl GlobalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store with entities `0..n`, all initialised to `init`.
    pub fn with_entities(n: u32, init: Value) -> Self {
        let mut s = Self::new();
        for i in 0..n {
            s.create(EntityId::new(i), init).expect("fresh ids cannot collide");
        }
        s
    }

    /// Adds a new entity with an initial value.
    pub fn create(&mut self, id: EntityId, value: Value) -> Result<(), StorageError> {
        if self.entities.contains_key(&id) {
            return Err(StorageError::EntityExists(id));
        }
        self.entities.insert(id, value);
        Ok(())
    }

    /// Ensures `id` exists, creating it with [`Value::ZERO`] if necessary.
    pub fn ensure(&mut self, id: EntityId) {
        self.entities.entry(id).or_insert(Value::ZERO);
    }

    /// Current global value of an entity.
    pub fn read(&self, id: EntityId) -> Result<Value, StorageError> {
        self.entities.get(&id).copied().ok_or(StorageError::NoSuchEntity(id))
    }

    /// Publishes a new global value — the unlock-time copy-back of §4
    /// ("the final value of the latest such copy becomes the new global
    /// value when T_i unlocks A").
    pub fn publish(&mut self, id: EntityId, value: Value) -> Result<(), StorageError> {
        *self.entities.get_mut(&id).ok_or(StorageError::NoSuchEntity(id))? = value;
        Ok(())
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the store holds no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Iterates over `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, Value)> + '_ {
        self.entities.iter().map(|(id, v)| (*id, *v))
    }

    /// Sum of all entity values — convenient for conservation constraints.
    pub fn total(&self) -> Value {
        self.iter().fold(Value::ZERO, |acc, (_, v)| acc + v)
    }

    /// Registers an integrity constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Checks every registered constraint, reporting the first violation.
    pub fn check_consistency(&self) -> Result<(), StorageError> {
        for c in &self.constraints {
            if !(c.predicate)(self) {
                return Err(StorageError::ConstraintViolated { name: c.name.clone() });
            }
        }
        Ok(())
    }

    /// Takes a snapshot of all values for later comparison.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_pairs(self.iter())
    }

    /// Restores all values from a snapshot (test-oracle use only; the
    /// engine itself never rewinds the database).
    pub fn restore(&mut self, snap: &Snapshot) {
        for (id, value) in snap.iter() {
            if let Some(v) = self.entities.get_mut(&id) {
                *v = value;
            }
        }
    }
}

impl fmt::Debug for GlobalStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter().map(|(id, v)| (id, v.raw()))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn create_read_publish_roundtrip() {
        let mut s = GlobalStore::new();
        s.create(e(0), Value::new(10)).unwrap();
        assert_eq!(s.read(e(0)).unwrap(), Value::new(10));
        s.publish(e(0), Value::new(20)).unwrap();
        assert_eq!(s.read(e(0)).unwrap(), Value::new(20));
    }

    #[test]
    fn duplicate_create_and_missing_reads_error() {
        let mut s = GlobalStore::new();
        s.create(e(0), Value::ZERO).unwrap();
        assert_eq!(s.create(e(0), Value::ZERO), Err(StorageError::EntityExists(e(0))));
        assert_eq!(s.read(e(1)), Err(StorageError::NoSuchEntity(e(1))));
        assert_eq!(s.publish(e(1), Value::ZERO), Err(StorageError::NoSuchEntity(e(1))));
    }

    #[test]
    fn with_entities_initialises_range() {
        let s = GlobalStore::with_entities(5, Value::new(7));
        assert_eq!(s.len(), 5);
        assert_eq!(s.total(), Value::new(35));
        assert!(!s.is_empty());
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut s = GlobalStore::new();
        s.ensure(e(3));
        s.ensure(e(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.read(e(3)).unwrap(), Value::ZERO);
    }

    #[test]
    fn constraints_detect_violation() {
        let mut s = GlobalStore::with_entities(2, Value::new(50));
        s.add_constraint(Constraint::new("conservation", |s| s.total() == Value::new(100)));
        assert!(s.check_consistency().is_ok());
        s.publish(e(0), Value::new(49)).unwrap();
        let err = s.check_consistency().unwrap_err();
        assert_eq!(err, StorageError::ConstraintViolated { name: "conservation".into() });
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = GlobalStore::with_entities(3, Value::new(1));
        let snap = s.snapshot();
        s.publish(e(1), Value::new(99)).unwrap();
        assert_ne!(s.read(e(1)).unwrap(), Value::new(1));
        s.restore(&snap);
        assert_eq!(s.read(e(1)).unwrap(), Value::new(1));
    }
}
