//! The single-copy workspace (§4): one local copy per entity.
//!
//! This is the storage regime of both **total rollback** (the baseline) and
//! the **state-dependency-graph strategy**: "we present a less extreme
//! approach which also requires only one local copy of each entity." The
//! price is that a state's value for an entity is reproducible only when it
//! equals either the entity's *global* value (no write had happened yet) or
//! its *current* local value (no write has happened since).
//!
//! The workspace tracks each entity's and variable's first and last write
//! lock index, and those pairs are the whole state-dependency graph of §4.
//! Every write to one object shares the index of restorability
//! `first − 1`, so the object's write edges merge into one interval
//! `[first, last)` of destroyed lock states (Theorem 4). One predicate over
//! that interval answers the SDG strategy's question — the deepest
//! well-defined lock state at or below a rollback's ideal target
//! ([`SingleCopyWorkspace::deepest_restorable`]) — and makes
//! [`SingleCopyWorkspace::rollback_to`] refuse every other target.

use crate::error::StorageError;
use pr_model::{EntityId, LockIndex, Value, VarId};
use std::collections::BTreeMap;

/// One object's single copy: the value it had before the transaction
/// wrote it (the global value at lock time, or the variable's initial
/// value), its current value, and the lock indices of its first and last
/// write.
#[derive(Clone, Copy, Debug)]
struct LocalCopy {
    original: Value,
    current: Value,
    /// `(first, last)` write lock indices, once written.
    writes: Option<(LockIndex, LockIndex)>,
}

impl LocalCopy {
    fn new(original: Value) -> Self {
        LocalCopy { original, current: original, writes: None }
    }

    fn write(&mut self, lock_index: LockIndex, value: Value) {
        let first = self.writes.map_or(lock_index, |(first, _)| first);
        self.writes = Some((first, lock_index));
        self.current = value;
    }

    /// The first write's lock index when lock state `q` lies in the
    /// destroyed interval `[first, last)`: the value `q` saw was
    /// overwritten by the last write (Theorem 4).
    fn destroyed_from(&self, q: LockIndex) -> Option<LockIndex> {
        self.writes.and_then(|(first, last)| (first <= q && q < last).then_some(first))
    }

    /// Undoes the writes after lock state `target`, which must be
    /// restorable: a copy first written after `target` returns to its
    /// original value, and any other was last written at or before it.
    fn rollback_to(&mut self, target: LockIndex) {
        if self.writes.is_some_and(|(first, _)| first > target) {
            *self = LocalCopy::new(self.original);
        }
    }

    fn check_integrity(&self) -> Result<(), String> {
        match self.writes {
            None if self.current != self.original => {
                Err("unwritten copy diverged from its original value".into())
            }
            Some((first, last)) if first > last => {
                Err(format!("first write {first:?} after last {last:?}"))
            }
            _ => Ok(()),
        }
    }

    /// Appends `{tag}{original},c{current},f{first},l{last};`, with `-1`
    /// for an absent write.
    fn encode(&self, tag: char, out: &mut String) {
        use std::fmt::Write;
        let (f, l) =
            self.writes.map_or((-1, -1), |(f, l)| (i64::from(f.raw()), i64::from(l.raw())));
        let _ = write!(out, "{tag}{},c{},f{f},l{l};", self.original.raw(), self.current.raw());
    }
}

#[derive(Clone, Copy, Debug)]
struct EntityCopy {
    /// Lock index of the lock state at which the entity was locked.
    lock_state: LockIndex,
    /// The copy, whose original is the global value at lock time
    /// (unchanged in the database until unlock, §4).
    copy: LocalCopy,
}

/// A transaction workspace holding exactly one local copy per exclusively
/// locked entity.
#[derive(Clone, Debug)]
pub struct SingleCopyWorkspace {
    entities: BTreeMap<EntityId, EntityCopy>,
    vars: Vec<LocalCopy>,
    current_vars: Vec<Value>,
    peak_entity_copies: usize,
}

impl SingleCopyWorkspace {
    /// Creates a workspace with the given initial local-variable values.
    pub fn new(initial_vars: &[Value]) -> Self {
        SingleCopyWorkspace {
            entities: BTreeMap::new(),
            vars: initial_vars.iter().map(|&v| LocalCopy::new(v)).collect(),
            current_vars: initial_vars.to_vec(),
            peak_entity_copies: 0,
        }
    }

    /// Called when an exclusive lock is granted at lock state `lock_state`:
    /// takes the single local copy of the entity.
    pub fn on_exclusive_lock(&mut self, entity: EntityId, lock_state: LockIndex, global: Value) {
        let prev =
            self.entities.insert(entity, EntityCopy { lock_state, copy: LocalCopy::new(global) });
        debug_assert!(prev.is_none(), "entity {entity} locked twice");
        self.peak_entity_copies = self.peak_entity_copies.max(self.entities.len());
    }

    /// Records a write to `entity` at `lock_index`.
    pub fn write_entity(
        &mut self,
        entity: EntityId,
        lock_index: LockIndex,
        value: Value,
    ) -> Result<(), StorageError> {
        let e = self.entities.get_mut(&entity).ok_or(StorageError::NoLocalCopy(entity))?;
        e.copy.write(lock_index, value);
        Ok(())
    }

    /// The transaction's local view of `entity` (exclusive holders only).
    pub fn read_entity(&self, entity: EntityId) -> Option<Value> {
        self.entities.get(&entity).map(|e| e.copy.current)
    }

    /// Records an assignment to a local variable at `lock_index`.
    pub fn assign_var(
        &mut self,
        var: VarId,
        lock_index: LockIndex,
        value: Value,
    ) -> Result<(), StorageError> {
        let copy = self.vars.get_mut(var.index()).ok_or(StorageError::NoSuchVariable(var))?;
        copy.write(lock_index, value);
        self.current_vars[var.index()] = value;
        Ok(())
    }

    /// Current values of all local variables (for expression evaluation).
    pub fn vars(&self) -> &[Value] {
        &self.current_vars
    }

    /// Current value of one variable.
    pub fn var(&self, var: VarId) -> Result<Value, StorageError> {
        self.current_vars.get(var.index()).copied().ok_or(StorageError::NoSuchVariable(var))
    }

    /// Called at unlock: returns the final local value to publish, or
    /// `None` if no copy is held (shared lock).
    pub fn on_unlock(&mut self, entity: EntityId) -> Option<Value> {
        self.entities.remove(&entity).map(|e| e.copy.current)
    }

    /// The deepest well-defined lock state at or below `q` — where an SDG
    /// rollback aimed at `q` lands. Lock state 0 is always restorable.
    pub fn deepest_restorable(&self, q: LockIndex) -> LockIndex {
        crate::deepest_uncovered(q, |q| {
            let mut copies = self.entities.values().map(|e| &e.copy).chain(&self.vars);
            copies.find_map(|c| c.destroyed_from(q))
        })
    }

    /// Rolls the workspace back to lock state `target`.
    ///
    /// Entities locked at or after `target` are dropped (their locks will
    /// be released, nothing published); surviving entities and all local
    /// variables are restored to their value at `target`. Fails with
    /// `NotRestorable`/`VarNotRestorable`, leaving the workspace intact,
    /// iff `target` is not well-defined — callers that aim at
    /// [`Self::deepest_restorable`] never hit that.
    pub fn rollback_to(&mut self, target: LockIndex) -> Result<Vec<EntityId>, StorageError> {
        if let Some((&entity, _)) =
            self.entities.iter().find(|(_, e)| e.copy.destroyed_from(target).is_some())
        {
            return Err(StorageError::NotRestorable { entity, target });
        }
        if let Some(i) = self.vars.iter().position(|c| c.destroyed_from(target).is_some()) {
            return Err(StorageError::VarNotRestorable { var: VarId::new(i as u16), target });
        }

        let released: Vec<EntityId> = self
            .entities
            .iter()
            .filter(|(_, e)| e.lock_state >= target)
            .map(|(id, _)| *id)
            .collect();
        for id in &released {
            self.entities.remove(id);
        }
        for e in self.entities.values_mut() {
            e.copy.rollback_to(target);
        }
        for (copy, cached) in self.vars.iter_mut().zip(&mut self.current_vars) {
            copy.rollback_to(target);
            *cached = copy.current;
        }
        Ok(released)
    }

    /// Structural self-check run by the engine's invariant check:
    /// write bookkeeping is internally ordered, unwritten copies still
    /// match their captured global value, cached variable values mirror
    /// their copies, and the peak counter dominates the current count.
    pub fn check_integrity(&self) -> Result<(), String> {
        for (id, e) in &self.entities {
            e.copy.check_integrity().map_err(|err| format!("{id}: {err}"))?;
            if let Some((first, _)) = e.copy.writes {
                if first < e.lock_state {
                    return Err(format!(
                        "{id}: write at {first:?} precedes lock state {:?}",
                        e.lock_state
                    ));
                }
            }
        }
        if self.vars.len() != self.current_vars.len() {
            return Err("variable copy count diverged from cached values".into());
        }
        for (i, copy) in self.vars.iter().enumerate() {
            copy.check_integrity().map_err(|err| format!("v{i}: {err}"))?;
            if copy.current != self.current_vars[i] {
                return Err(format!("v{i}: cached value diverged from copy"));
            }
        }
        if self.entities.len() > self.peak_entity_copies {
            return Err("peak entity copies fell below current count".into());
        }
        Ok(())
    }

    /// Writes a canonical text encoding of the workspace's *restorable
    /// content* into `out`: everything that can influence future execution
    /// (copies, write bookkeeping, cached variable values). The monotone
    /// peak counter is metrics only and is excluded, so two workspaces that
    /// will behave identically encode identically. Used by the model
    /// checker's state fingerprint.
    pub fn encode_state(&self, out: &mut String) {
        use std::fmt::Write;
        for (id, e) in &self.entities {
            let _ = write!(out, "E{}@{}:", id.raw(), e.lock_state.raw());
            e.copy.encode('g', out);
        }
        for (i, copy) in self.vars.iter().enumerate() {
            let _ = write!(out, "V{i}:");
            copy.encode('i', out);
        }
    }

    /// Number of entity copies currently held (one per exclusive lock).
    pub fn entity_copies(&self) -> usize {
        self.entities.len()
    }

    /// Peak number of entity copies ever held — the storage-overhead figure
    /// compared against MCS in the experiments.
    pub fn peak_entity_copies(&self) -> usize {
        self.peak_entity_copies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }
    fn li(i: u32) -> LockIndex {
        LockIndex::new(i)
    }
    fn v(i: i64) -> Value {
        Value::new(i)
    }

    #[test]
    fn unwritten_entity_is_restorable_everywhere() {
        let mut w = SingleCopyWorkspace::new(&[]);
        w.on_exclusive_lock(e(0), li(0), v(10));
        for q in 0..6 {
            assert_eq!(w.deepest_restorable(li(q)), li(q));
        }
    }

    #[test]
    fn deepest_restorable_walks_below_destroyed_intervals() {
        let mut w = SingleCopyWorkspace::new(&[v(0)]);
        w.on_exclusive_lock(e(0), li(0), v(0));
        w.write_entity(e(0), li(1), v(1)).unwrap(); // first write: harmless
        w.on_exclusive_lock(e(1), li(1), v(0));
        w.write_entity(e(1), li(2), v(1)).unwrap();
        w.on_exclusive_lock(e(2), li(2), v(0));
        w.assign_var(VarId::new(0), li(3), v(3)).unwrap();
        w.on_exclusive_lock(e(3), li(3), v(0));
        // Rewrites destroy lock states 2, 3 (e1) and 3, 4 (v0); the
        // overlapping intervals [2, 4) and [3, 5) chain down to 1.
        w.write_entity(e(1), li(4), v(2)).unwrap();
        w.on_exclusive_lock(e(4), li(4), v(0));
        w.assign_var(VarId::new(0), li(5), v(5)).unwrap();
        assert_eq!(w.deepest_restorable(li(5)), li(5));
        for q in 2..5 {
            assert_eq!(w.deepest_restorable(li(q)), li(1), "q = {q}");
        }
        assert_eq!(w.deepest_restorable(li(1)), li(1));
        assert_eq!(w.deepest_restorable(li(0)), li(0));
        // The query and the rollback agree on what is restorable.
        for q in 0..6 {
            let deepest = w.deepest_restorable(li(q));
            assert_eq!(w.clone().rollback_to(li(q)).is_ok(), deepest == li(q), "q = {q}");
        }
    }

    #[test]
    fn intermediate_values_are_not_restorable() {
        let mut w = SingleCopyWorkspace::new(&[]);
        w.on_exclusive_lock(e(0), li(0), v(100));
        w.write_entity(e(0), li(1), v(1)).unwrap();
        w.write_entity(e(0), li(4), v(4)).unwrap();
        // Lock states 1..3 saw the value 1, which the second write
        // overwrote.
        for q in 1..4 {
            assert_eq!(w.deepest_restorable(li(q)), li(0));
            let refused = Err(StorageError::NotRestorable { entity: e(0), target: li(q) });
            assert_eq!(w.clone().rollback_to(li(q)), refused);
        }
        // From lock state 4 on, the current value is the one they saw.
        assert_eq!(w.deepest_restorable(li(7)), li(7));
        w.rollback_to(li(4)).unwrap();
        assert_eq!(w.read_entity(e(0)), Some(v(4)));
    }

    #[test]
    fn rollback_drops_late_entities_and_restores_survivors() {
        let mut w = SingleCopyWorkspace::new(&[v(9)]);
        w.on_exclusive_lock(e(0), li(0), v(10));
        w.on_exclusive_lock(e(1), li(1), v(20));
        w.write_entity(e(0), li(2), v(11)).unwrap(); // first write after both locks
        w.assign_var(VarId::new(0), li(2), v(99)).unwrap();

        let released = w.rollback_to(li(1)).unwrap();
        assert_eq!(released, vec![e(1)]);
        // a's write (lock index 2 > target 1) is undone to the global value.
        assert_eq!(w.read_entity(e(0)), Some(v(10)));
        assert_eq!(w.vars(), &[v(9)]);
        assert_eq!(w.entity_copies(), 1);
        assert_eq!(w.peak_entity_copies(), 2);
    }

    #[test]
    fn rollback_keeps_values_written_before_target() {
        let mut w = SingleCopyWorkspace::new(&[]);
        w.on_exclusive_lock(e(0), li(0), v(10));
        w.write_entity(e(0), li(1), v(11)).unwrap(); // before lock state 1
        w.on_exclusive_lock(e(1), li(1), v(20));
        let released = w.rollback_to(li(1)).unwrap();
        assert_eq!(released, vec![e(1)]);
        // a's last write has lock index 1 <= target: current value stands.
        assert_eq!(w.read_entity(e(0)), Some(v(11)));
    }

    #[test]
    fn rollback_to_undefined_state_fails_without_mutating() {
        let mut w = SingleCopyWorkspace::new(&[]);
        w.on_exclusive_lock(e(0), li(0), v(100));
        w.write_entity(e(0), li(1), v(1)).unwrap();
        w.on_exclusive_lock(e(1), li(1), v(0));
        w.on_exclusive_lock(e(2), li(2), v(0));
        w.write_entity(e(0), li(3), v(3)).unwrap(); // destroys states 1, 2
        let err = w.rollback_to(li(2)).unwrap_err();
        assert!(matches!(err, StorageError::NotRestorable { .. }));
        // Workspace unchanged: all three copies still held, value intact.
        assert_eq!(w.entity_copies(), 3);
        assert_eq!(w.read_entity(e(0)), Some(v(3)));
        // Lock state 0 and 3 remain fine.
        assert!(w.rollback_to(li(3)).is_ok());
    }

    #[test]
    fn var_destruction_blocks_rollback() {
        let mut w = SingleCopyWorkspace::new(&[v(0)]);
        w.on_exclusive_lock(e(0), li(0), v(0));
        w.assign_var(VarId::new(0), li(1), v(1)).unwrap();
        w.on_exclusive_lock(e(1), li(1), v(0));
        w.on_exclusive_lock(e(2), li(2), v(0));
        w.assign_var(VarId::new(0), li(3), v(3)).unwrap(); // destroys 1, 2
        assert!(matches!(w.rollback_to(li(2)), Err(StorageError::VarNotRestorable { .. })));
        // Total rollback always works.
        let released = w.rollback_to(LockIndex::ZERO).unwrap();
        assert_eq!(released.len(), 3);
        assert_eq!(w.vars(), &[v(0)]);
    }

    #[test]
    fn unlock_publishes_final_value() {
        let mut w = SingleCopyWorkspace::new(&[]);
        w.on_exclusive_lock(e(0), li(0), v(5));
        w.write_entity(e(0), li(1), v(6)).unwrap();
        assert_eq!(w.on_unlock(e(0)), Some(v(6)));
        assert_eq!(w.on_unlock(e(0)), None);
        assert_eq!(w.entity_copies(), 0);
    }

    #[test]
    fn missing_entity_operations_error() {
        let mut w = SingleCopyWorkspace::new(&[]);
        assert!(w.write_entity(e(0), li(1), v(1)).is_err());
        assert_eq!(w.read_entity(e(0)), None);
        assert!(w.assign_var(VarId::new(0), li(1), v(1)).is_err());
    }
}
