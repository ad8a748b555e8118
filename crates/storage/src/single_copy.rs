//! The single-copy workspace (§4): one local copy per entity.
//!
//! This is the storage regime of both **total rollback** (the baseline) and
//! the **state-dependency-graph strategy**: "we present a less extreme
//! approach which also requires only one local copy of each entity." The
//! price is that a state's value for an entity is reproducible only when it
//! equals either the entity's *global* value (no write had happened yet) or
//! its *current* local value (no write has happened since). The workspace
//! tracks each entity's and variable's first and last write lock index —
//! exactly enough to answer restorability queries and to emit the write
//! edges the state-dependency graph is built from.

use crate::error::StorageError;
use pr_model::{EntityId, LockIndex, Value, VarId};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
struct EntityCopy {
    /// Lock index of the lock state at which the entity was locked.
    lock_state: LockIndex,
    /// The global value at lock time (unchanged in the database until
    /// unlock, §4).
    global: Value,
    /// The single local copy.
    current: Value,
    /// Lock index of the first write, if any.
    first_write: Option<LockIndex>,
    /// Lock index of the most recent write, if any.
    last_write: Option<LockIndex>,
}

#[derive(Clone, Copy, Debug)]
struct VarCopy {
    initial: Value,
    current: Value,
    first_write: Option<LockIndex>,
    last_write: Option<LockIndex>,
}

/// A write event's coordinates in the state-dependency graph: the written
/// object's index of restorability `u` and the write's lock index `w`.
/// Lock states `q` with `u < q < w` become undefined (Theorem 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecordedWrite {
    /// Index of restorability of the written entity/variable.
    pub u: LockIndex,
    /// Lock index of the write.
    pub w: LockIndex,
}

/// A transaction workspace holding exactly one local copy per exclusively
/// locked entity.
#[derive(Clone, Debug)]
pub struct SingleCopyWorkspace {
    entities: BTreeMap<EntityId, EntityCopy>,
    vars: Vec<VarCopy>,
    current_vars: Vec<Value>,
    peak_entity_copies: usize,
}

impl SingleCopyWorkspace {
    /// Creates a workspace with the given initial local-variable values.
    pub fn new(initial_vars: &[Value]) -> Self {
        SingleCopyWorkspace {
            entities: BTreeMap::new(),
            vars: initial_vars
                .iter()
                .map(|&v| VarCopy { initial: v, current: v, first_write: None, last_write: None })
                .collect(),
            current_vars: initial_vars.to_vec(),
            peak_entity_copies: 0,
        }
    }

    /// Called when an exclusive lock is granted at lock state `lock_state`:
    /// takes the single local copy of the entity.
    pub fn on_exclusive_lock(&mut self, entity: EntityId, lock_state: LockIndex, global: Value) {
        let prev = self.entities.insert(
            entity,
            EntityCopy { lock_state, global, current: global, first_write: None, last_write: None },
        );
        debug_assert!(prev.is_none(), "entity {entity} locked twice");
        self.peak_entity_copies = self.peak_entity_copies.max(self.entities.len());
    }

    /// Records a write to `entity` at `lock_index`, returning the write's
    /// state-dependency coordinates for the engine to feed its SDG.
    pub fn write_entity(
        &mut self,
        entity: EntityId,
        lock_index: LockIndex,
        value: Value,
    ) -> Result<RecordedWrite, StorageError> {
        let copy = self.entities.get_mut(&entity).ok_or(StorageError::NoLocalCopy(entity))?;
        let first = *copy.first_write.get_or_insert(lock_index);
        copy.last_write = Some(lock_index);
        copy.current = value;
        Ok(RecordedWrite { u: LockIndex::new(first.raw().saturating_sub(1)), w: lock_index })
    }

    /// The transaction's local view of `entity` (exclusive holders only).
    pub fn read_entity(&self, entity: EntityId) -> Option<Value> {
        self.entities.get(&entity).map(|c| c.current)
    }

    /// Records an assignment to a local variable at `lock_index`.
    pub fn assign_var(
        &mut self,
        var: VarId,
        lock_index: LockIndex,
        value: Value,
    ) -> Result<RecordedWrite, StorageError> {
        let copy = self.vars.get_mut(var.index()).ok_or(StorageError::NoSuchVariable(var))?;
        let first = *copy.first_write.get_or_insert(lock_index);
        copy.last_write = Some(lock_index);
        copy.current = value;
        self.current_vars[var.index()] = value;
        Ok(RecordedWrite { u: LockIndex::new(first.raw().saturating_sub(1)), w: lock_index })
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
        self.entities.remove(&entity).map(|c| c.current)
    }

    /// The entity's value as of lock state `target`, or `NotRestorable` if
    /// intermediate writes destroyed it — the fundamental limitation that
    /// motivates the state-dependency graph.
    pub fn entity_value_at(
        &self,
        entity: EntityId,
        target: LockIndex,
    ) -> Result<Value, StorageError> {
        let copy = self.entities.get(&entity).ok_or(StorageError::NoLocalCopy(entity))?;
        match (copy.first_write, copy.last_write) {
            (None, _) => Ok(copy.global),
            (Some(first), _) if first > target => Ok(copy.global),
            (_, Some(last)) if last <= target => Ok(copy.current),
            _ => Err(StorageError::NotRestorable { entity, target }),
        }
    }

    /// Rolls the workspace back to lock state `target`.
    ///
    /// Entities locked at or after `target` are dropped (their locks will
    /// be released, nothing published); surviving entities and all local
    /// variables are restored to their value at `target`. Fails with
    /// `NotRestorable`/`VarNotRestorable` iff `target` is not well-defined —
    /// callers using the state-dependency graph never hit that.
    pub fn rollback_to(&mut self, target: LockIndex) -> Result<Vec<EntityId>, StorageError> {
        // Validate everything before mutating, so a failed rollback leaves
        // the workspace intact.
        for (id, copy) in &self.entities {
            if copy.lock_state < target {
                self.entity_value_at(*id, target)
                    .map_err(|_| StorageError::NotRestorable { entity: *id, target })?;
            }
        }
        for (i, copy) in self.vars.iter().enumerate() {
            let restorable = match (copy.first_write, copy.last_write) {
                (None, _) => true,
                (Some(first), _) if first > target => true,
                (_, Some(last)) if last <= target => true,
                _ => false,
            };
            if !restorable {
                return Err(StorageError::VarNotRestorable { var: VarId::new(i as u16), target });
            }
        }

        let released: Vec<EntityId> = self
            .entities
            .iter()
            .filter(|(_, c)| c.lock_state >= target)
            .map(|(id, _)| *id)
            .collect();
        for id in &released {
            self.entities.remove(id);
        }
        for copy in self.entities.values_mut() {
            if let Some(first) = copy.first_write {
                if first > target {
                    copy.current = copy.global;
                    copy.first_write = None;
                    copy.last_write = None;
                }
                // else: last_write <= target, the current value stands.
            }
        }
        for (i, copy) in self.vars.iter_mut().enumerate() {
            if let Some(first) = copy.first_write {
                if first > target {
                    copy.current = copy.initial;
                    copy.first_write = None;
                    copy.last_write = None;
                }
            }
            self.current_vars[i] = copy.current;
        }
        Ok(released)
    }

    /// Structural self-check run by the engine's invariant check:
    /// write bookkeeping is internally ordered, unwritten copies still
    /// match their captured global value, cached variable values mirror
    /// their copies, and the peak counter dominates the current count.
    pub fn check_integrity(&self) -> Result<(), String> {
        for (id, copy) in &self.entities {
            match (copy.first_write, copy.last_write) {
                (None, None) => {
                    if copy.current != copy.global {
                        return Err(format!("{id}: unwritten copy diverged from global value"));
                    }
                }
                (Some(first), Some(last)) => {
                    if first > last {
                        return Err(format!("{id}: first write {first:?} after last {last:?}"));
                    }
                    if first < copy.lock_state {
                        return Err(format!(
                            "{id}: write at {first:?} precedes lock state {:?}",
                            copy.lock_state
                        ));
                    }
                }
                _ => return Err(format!("{id}: first/last write bookkeeping out of sync")),
            }
        }
        if self.vars.len() != self.current_vars.len() {
            return Err("variable copy count diverged from cached values".into());
        }
        for (i, copy) in self.vars.iter().enumerate() {
            match (copy.first_write, copy.last_write) {
                (None, None) => {
                    if copy.current != copy.initial {
                        return Err(format!("v{i}: unwritten variable diverged from initial"));
                    }
                }
                (Some(first), Some(last)) if first > last => {
                    return Err(format!("v{i}: first write {first:?} after last {last:?}"));
                }
                (Some(_), Some(_)) => {}
                _ => return Err(format!("v{i}: first/last write bookkeeping out of sync")),
            }
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
        let li = |ix: Option<LockIndex>| ix.map_or(-1, |l| i64::from(l.raw()));
        for (id, c) in &self.entities {
            let _ = write!(
                out,
                "E{}@{}:g{},c{},f{},l{};",
                id.raw(),
                c.lock_state.raw(),
                c.global.raw(),
                c.current.raw(),
                li(c.first_write),
                li(c.last_write),
            );
        }
        for (i, c) in self.vars.iter().enumerate() {
            let _ = write!(
                out,
                "V{i}:i{},c{},f{},l{};",
                c.initial.raw(),
                c.current.raw(),
                li(c.first_write),
                li(c.last_write),
            );
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
        assert_eq!(w.entity_value_at(e(0), li(0)).unwrap(), v(10));
        assert_eq!(w.entity_value_at(e(0), li(5)).unwrap(), v(10));
    }

    #[test]
    fn write_reports_sdg_coordinates() {
        let mut w = SingleCopyWorkspace::new(&[]);
        w.on_exclusive_lock(e(0), li(0), v(0));
        // First write at lock index 1: restorability index u = 0.
        let r1 = w.write_entity(e(0), li(1), v(1)).unwrap();
        assert_eq!(r1, RecordedWrite { u: li(0), w: li(1) });
        // A later write at lock index 4 keeps u = 0.
        let r2 = w.write_entity(e(0), li(4), v(4)).unwrap();
        assert_eq!(r2, RecordedWrite { u: li(0), w: li(4) });
    }

    #[test]
    fn intermediate_values_are_not_restorable() {
        let mut w = SingleCopyWorkspace::new(&[]);
        w.on_exclusive_lock(e(0), li(0), v(100));
        w.write_entity(e(0), li(1), v(1)).unwrap();
        w.write_entity(e(0), li(4), v(4)).unwrap();
        // target 0: before first write → global.
        assert_eq!(w.entity_value_at(e(0), li(0)).unwrap(), v(100));
        // targets 1..3: value was 1, overwritten → gone.
        for q in 1..4 {
            assert!(matches!(
                w.entity_value_at(e(0), li(q)),
                Err(StorageError::NotRestorable { .. })
            ));
        }
        // target ≥ 4: current.
        assert_eq!(w.entity_value_at(e(0), li(4)).unwrap(), v(4));
        assert_eq!(w.entity_value_at(e(0), li(7)).unwrap(), v(4));
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
        assert!(w.entity_value_at(e(0), li(0)).is_err());
        assert_eq!(w.read_entity(e(0)), None);
        assert!(w.assign_var(VarId::new(0), li(1), v(1)).is_err());
    }
}
