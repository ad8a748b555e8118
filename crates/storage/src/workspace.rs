//! A transaction's workspace (§4): version stacks under a copy budget.
//!
//! The workspace holds one [`VersionStack`] per exclusively locked entity —
//! created at the entity's lock state and destroyed at unlock — plus one
//! stack per local variable, created at transaction start with stack index
//! 0. §4 describes one storage idea at two settings, and the per-stack copy
//! budget is the knob between them:
//!
//! * **Unbounded** (MCS, and Repair, which keeps MCS's prefix): the
//!   transaction can be rolled back to **any** of its lock states, at a
//!   worst-case space cost of `n(n+1)/2` entity copies and `n·|L|`
//!   local-variable copies (Theorem 3).
//! * **Budget 1** (total rollback and SDG): "only one local copy of each
//!   entity". No write precedes the first lock request, so every write's
//!   lock index lies above its stack's index, and a budget-1 stack holds
//!   the value before the transaction wrote it (its base) and the current
//!   value. Its evicted interval is `[first write, last write)`: the lock
//!   states whose values the last write destroyed (Theorem 4). Those
//!   intervals are the whole state-dependency graph.
//! * **Budget `k`** (the bounded-storage extension): in between.
//!
//! Evicted lock states are not restorable: [`Workspace::deepest_restorable`]
//! steers a rollback below them, and [`Workspace::rollback_to`] refuses
//! them.

use crate::error::StorageError;
use crate::version_stack::VersionStack;
use pr_model::{EntityId, LockIndex, Value, VarId};
use std::collections::BTreeMap;

/// Copy counts in the Theorem 3 sense (elements beyond each stack's base).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CopyCounts {
    /// Copies of global entities held in stacks.
    pub entity_copies: usize,
    /// Copies of local variables held in stacks.
    pub var_copies: usize,
}

impl CopyCounts {
    /// Total copies of both kinds.
    pub fn total(self) -> usize {
        self.entity_copies + self.var_copies
    }

    /// Theorem 3's worst-case bound for `n` locked entities and `l` local
    /// variables: `n(n+1)/2 + n·l`.
    pub fn theorem3_bound(n: usize, l: usize) -> usize {
        n * (n + 1) / 2 + n * l
    }
}

/// A transaction's workspace of version stacks.
///
/// ```
/// use pr_model::{EntityId, LockIndex, Value};
/// use pr_storage::Workspace;
///
/// let a = EntityId::new(0);
/// let mut ws = Workspace::with_budget(&[], None);
/// ws.on_exclusive_lock(a, LockIndex::new(0), Value::new(10));
/// ws.write_entity(a, LockIndex::new(1), Value::new(11)).unwrap();
/// ws.write_entity(a, LockIndex::new(2), Value::new(12)).unwrap();
/// // Every earlier lock state's value is reproducible…
/// assert_eq!(ws.entity_value_at(a, LockIndex::new(1)), Some(Value::new(11)));
/// // …and rollback restores it.
/// ws.rollback_to(LockIndex::new(1)).unwrap();
/// assert_eq!(ws.read_entity(a), Some(Value::new(11)));
/// ```
#[derive(Clone, Debug)]
pub struct Workspace {
    entity_stacks: BTreeMap<EntityId, VersionStack>,
    var_stacks: Vec<VersionStack>,
    /// Cache of each variable's current value, so expression evaluation can
    /// borrow a slice without materialising one per operation.
    current_vars: Vec<Value>,
    peak: CopyCounts,
    /// Per-stack copy budget, at least 1. `None` = unbounded (MCS).
    budget: Option<usize>,
}

impl Workspace {
    /// Creates a workspace for a transaction with the given initial local
    /// variable values, whose stacks each hold at most `budget` copies
    /// beyond their base (`None`: unbounded). Budget 1 is the one local
    /// copy of total rollback and SDG, unbounded is MCS, and the budgets
    /// in between trade restorable states for space. The current value is
    /// never evicted, so a budget below 1 behaves as 1.
    pub fn with_budget(initial_vars: &[Value], budget: Option<usize>) -> Self {
        Workspace {
            entity_stacks: BTreeMap::new(),
            var_stacks: initial_vars
                .iter()
                .map(|&v| VersionStack::new(LockIndex::ZERO, v))
                .collect(),
            current_vars: initial_vars.to_vec(),
            peak: CopyCounts::default(),
            budget: budget.map(|b| b.max(1)),
        }
    }

    /// Called when an exclusive lock is granted at lock state `lock_state`:
    /// "When A is locked by T_i, its global value is pushed onto the stack"
    /// — the stack is created with the global value as its base element.
    ///
    /// Shared locks create no stack: a shared holder never writes, so the
    /// global value in the database suffices.
    pub fn on_exclusive_lock(&mut self, entity: EntityId, lock_state: LockIndex, global: Value) {
        let prev = self.entity_stacks.insert(entity, VersionStack::new(lock_state, global));
        debug_assert!(prev.is_none(), "entity {entity} locked twice");
    }

    /// Records a write of `value` to `entity` by an operation with lock
    /// index `lock_index`. Under a copy budget the stack may evict its
    /// oldest copy.
    pub fn write_entity(
        &mut self,
        entity: EntityId,
        lock_index: LockIndex,
        value: Value,
    ) -> Result<(), StorageError> {
        let stack = self.entity_stacks.get_mut(&entity).ok_or(StorageError::NoLocalCopy(entity))?;
        stack.record_write(lock_index, value);
        if let Some(b) = self.budget {
            stack.enforce_budget(b);
        }
        self.bump_peak();
        Ok(())
    }

    /// The transaction's current local view of `entity`, if it holds a
    /// stack for it (i.e. holds it exclusively). Shared-locked entities are
    /// read from the database directly.
    pub fn read_entity(&self, entity: EntityId) -> Option<Value> {
        self.entity_stacks.get(&entity).map(VersionStack::current)
    }

    /// Records an assignment to a local variable at `lock_index`, with the
    /// same budget/eviction behaviour as [`Self::write_entity`].
    pub fn assign_var(
        &mut self,
        var: VarId,
        lock_index: LockIndex,
        value: Value,
    ) -> Result<(), StorageError> {
        let stack =
            self.var_stacks.get_mut(var.index()).ok_or(StorageError::NoSuchVariable(var))?;
        stack.record_write(lock_index, value);
        if let Some(b) = self.budget {
            stack.enforce_budget(b);
        }
        self.current_vars[var.index()] = value;
        self.bump_peak();
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

    /// Called at unlock: returns the final local value to publish as the
    /// new global value ("the top of the stack is copied as the new global
    /// value of A and the stack is returned to free storage"), or `None` if
    /// the entity had no stack (shared lock — nothing to publish).
    pub fn on_unlock(&mut self, entity: EntityId) -> Option<Value> {
        self.entity_stacks.remove(&entity).map(|s| s.current())
    }

    /// Performs the workspace part of the §4 rollback procedure to lock
    /// state `target`:
    ///
    /// 1. stacks with stack index `>= target` are deleted — their entities'
    ///    locks will be released *without* publishing (returned here);
    /// 2. remaining entity stacks pop every element with lock index
    ///    `> target`;
    /// 3. local-variable stacks do the same, and current values are
    ///    restored from the new stack tops.
    ///
    /// Returns the entities whose stacks were deleted, in id order. Fails
    /// with `NotRestorable`/`VarNotRestorable`, leaving the workspace
    /// intact, when `target` lies in an evicted interval.
    pub fn rollback_to(&mut self, target: LockIndex) -> Result<Vec<EntityId>, StorageError> {
        let evicted = |s: &VersionStack| s.destroyed_from(target).is_some();
        if let Some((&entity, _)) = self.entity_stacks.iter().find(|(_, s)| evicted(s)) {
            return Err(StorageError::NotRestorable { entity, target });
        }
        if let Some(i) = self.var_stacks.iter().position(evicted) {
            return Err(StorageError::VarNotRestorable { var: VarId::new(i as u16), target });
        }
        let released: Vec<EntityId> = self
            .entity_stacks
            .iter()
            .filter(|(_, s)| s.stack_index() >= target)
            .map(|(id, _)| *id)
            .collect();
        for id in &released {
            self.entity_stacks.remove(id);
        }
        for stack in self.entity_stacks.values_mut() {
            stack.pop_above(target);
        }
        for (i, stack) in self.var_stacks.iter_mut().enumerate() {
            stack.pop_above(target);
            self.current_vars[i] = stack.current();
        }
        Ok(released)
    }

    /// The deepest lock state at or below `q` whose values no budget has
    /// evicted — where an SDG or bounded rollback aimed at `q` lands.
    /// Without a budget that is `q` itself. Lock state 0 is always
    /// restorable.
    ///
    /// An evicted interval `[start, end)` that contains `q` destroys every
    /// state from `start` up to `q` too, so the walk jumps to `start − 1`.
    pub fn deepest_restorable(&self, mut q: LockIndex) -> LockIndex {
        while q > LockIndex::ZERO {
            let mut stacks = self.entity_stacks.values().chain(&self.var_stacks);
            let Some(start) = stacks.find_map(|s| s.destroyed_from(q)) else { break };
            q = LockIndex::new(start.raw().saturating_sub(1));
        }
        q
    }

    /// Current copy counts (Theorem 3 accounting).
    pub fn copy_counts(&self) -> CopyCounts {
        CopyCounts {
            entity_copies: self.entity_stacks.values().map(VersionStack::copies).sum(),
            var_copies: self.var_stacks.iter().map(VersionStack::copies).sum(),
        }
    }

    /// Highest copy counts ever observed.
    pub fn peak_copy_counts(&self) -> CopyCounts {
        self.peak
    }

    /// Number of entity stacks currently held (= exclusively locked
    /// entities).
    pub fn entity_stack_count(&self) -> usize {
        self.entity_stacks.len()
    }

    /// The entity's value as it was at lock state `target`, if held. Exact
    /// whenever `target` is restorable — without a budget, always: that is
    /// MCS's whole point.
    pub fn entity_value_at(&self, entity: EntityId, target: LockIndex) -> Option<Value> {
        self.entity_stacks.get(&entity).and_then(|s| s.value_at(target))
    }

    /// Structural self-check run by the engine's invariant check:
    /// every stack is internally consistent, the cached variable values
    /// mirror their stack tops, any copy budget is respected, and the peak
    /// counters dominate the current counts.
    pub fn check_integrity(&self) -> Result<(), String> {
        for (id, stack) in &self.entity_stacks {
            stack.check_integrity().map_err(|e| format!("{id}: {e}"))?;
            if let Some(b) = self.budget {
                if stack.copies() > b {
                    return Err(format!("{id}: {} copies exceed budget {b}", stack.copies()));
                }
            }
        }
        if self.var_stacks.len() != self.current_vars.len() {
            return Err("variable stack count diverged from cached values".into());
        }
        for (i, stack) in self.var_stacks.iter().enumerate() {
            stack.check_integrity().map_err(|e| format!("v{i}: {e}"))?;
            if stack.stack_index() != LockIndex::ZERO {
                return Err(format!("v{i}: variable stack created at {:?}", stack.stack_index()));
            }
            if stack.current() != self.current_vars[i] {
                return Err(format!("v{i}: cached value diverged from stack top"));
            }
        }
        let now = self.copy_counts();
        if now.entity_copies > self.peak.entity_copies || now.var_copies > self.peak.var_copies {
            return Err("peak copy counts fell below current counts".into());
        }
        Ok(())
    }

    /// Writes a canonical text encoding of the workspace's *restorable
    /// content* into `out`: everything that can influence future execution
    /// (stack contents, cached variable values, any copy budget). The
    /// monotone `peak` counters are metrics only and are excluded, so two
    /// workspaces that will behave identically encode identically. Used by
    /// the model checker's state fingerprint.
    pub fn encode_state(&self, out: &mut String) {
        use std::fmt::Write;
        for (id, stack) in &self.entity_stacks {
            let _ = write!(out, "E{}@{}:", id.raw(), stack.stack_index().raw());
            for el in stack.elements() {
                let _ = write!(out, "{},{};", el.lock_index.raw(), el.value.raw());
            }
        }
        for (i, stack) in self.var_stacks.iter().enumerate() {
            let _ = write!(out, "V{i}:");
            for el in stack.elements() {
                let _ = write!(out, "{},{};", el.lock_index.raw(), el.value.raw());
            }
        }
        let _ = write!(out, "B{:?}", self.budget);
    }

    fn bump_peak(&mut self) {
        let now = self.copy_counts();
        if now.entity_copies > self.peak.entity_copies {
            self.peak.entity_copies = now.entity_copies;
        }
        if now.var_copies > self.peak.var_copies {
            self.peak.var_copies = now.var_copies;
        }
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

    /// Unbounded (MCS) and budget 1 (total rollback and SDG).
    const BUDGETS: [Option<usize>; 2] = [None, Some(1)];

    #[test]
    fn exclusive_lock_creates_stack_with_global_base() {
        for budget in BUDGETS {
            let mut w = Workspace::with_budget(&[], budget);
            w.on_exclusive_lock(e(0), li(0), v(42));
            assert_eq!(w.read_entity(e(0)), Some(v(42)));
            assert_eq!(w.entity_stack_count(), 1);
            assert_eq!(w.copy_counts().entity_copies, 0);
            // An unwritten entity is restorable everywhere.
            for q in 0..6 {
                assert_eq!(w.deepest_restorable(li(q)), li(q), "budget {budget:?}");
            }
        }
    }

    #[test]
    fn writes_update_local_view_not_global() {
        let mut w = Workspace::with_budget(&[], None);
        w.on_exclusive_lock(e(0), li(0), v(10));
        w.write_entity(e(0), li(1), v(20)).unwrap();
        assert_eq!(w.read_entity(e(0)), Some(v(20)));
        assert_eq!(w.copy_counts().entity_copies, 1);
    }

    #[test]
    fn write_without_stack_errors() {
        let mut w = Workspace::with_budget(&[], None);
        assert_eq!(w.write_entity(e(0), li(1), v(1)), Err(StorageError::NoLocalCopy(e(0))));
        assert_eq!(w.read_entity(e(0)), None);
    }

    #[test]
    fn unlock_returns_final_value_and_frees_stack() {
        for budget in BUDGETS {
            let mut w = Workspace::with_budget(&[], budget);
            w.on_exclusive_lock(e(0), li(0), v(10));
            w.write_entity(e(0), li(1), v(15)).unwrap();
            assert_eq!(w.on_unlock(e(0)), Some(v(15)), "budget {budget:?}");
            assert_eq!(w.entity_stack_count(), 0);
            assert_eq!(w.on_unlock(e(0)), None);
        }
    }

    #[test]
    fn rollback_deletes_late_stacks_and_pops_survivors() {
        let mut w = Workspace::with_budget(&[v(0)], None);
        // Lock a at state 0, b at state 1, c at state 2.
        w.on_exclusive_lock(e(0), li(0), v(100));
        w.write_entity(e(0), li(1), v(101)).unwrap(); // before lock state 1
        w.on_exclusive_lock(e(1), li(1), v(200));
        w.write_entity(e(0), li(2), v(102)).unwrap();
        w.on_exclusive_lock(e(2), li(2), v(300));
        w.assign_var(VarId::new(0), li(3), v(7)).unwrap();

        // Roll back to lock state 1: c's and b's stacks (indices 2, 1) are
        // deleted; a's stack pops the lock-index-2 element.
        let released = w.rollback_to(li(1)).unwrap();
        assert_eq!(released, vec![e(1), e(2)]);
        assert_eq!(w.read_entity(e(0)), Some(v(101)));
        assert_eq!(w.var(VarId::new(0)).unwrap(), v(0));
        assert_eq!(w.vars(), &[v(0)]);
    }

    #[test]
    fn rollback_keeps_earlier_writes_and_restores_survivors_to_global() {
        for budget in BUDGETS {
            let mut w = Workspace::with_budget(&[v(9)], budget);
            w.on_exclusive_lock(e(0), li(0), v(10));
            w.on_exclusive_lock(e(1), li(1), v(20));
            w.write_entity(e(0), li(2), v(11)).unwrap(); // before lock state 2
            w.on_exclusive_lock(e(2), li(2), v(30));
            w.write_entity(e(1), li(3), v(21)).unwrap(); // first write after it
            w.assign_var(VarId::new(0), li(3), v(99)).unwrap();

            let released = w.rollback_to(li(2)).unwrap();
            assert_eq!(released, vec![e(2)], "budget {budget:?}");
            // a's write (lock index 2 <= target) stands; b's and the
            // variable's (lock index 3 > target) are undone to the values
            // they had before the transaction wrote them.
            assert_eq!(w.read_entity(e(0)), Some(v(11)));
            assert_eq!(w.read_entity(e(1)), Some(v(20)));
            assert_eq!(w.vars(), &[v(9)]);
            assert_eq!(w.entity_stack_count(), 2);
        }
    }

    #[test]
    fn rollback_to_zero_is_total() {
        let mut w = Workspace::with_budget(&[v(5)], None);
        w.on_exclusive_lock(e(0), li(0), v(1));
        w.write_entity(e(0), li(1), v(2)).unwrap();
        w.assign_var(VarId::new(0), li(1), v(50)).unwrap();
        let released = w.rollback_to(LockIndex::ZERO).unwrap();
        assert_eq!(released, vec![e(0)]);
        assert_eq!(w.entity_stack_count(), 0);
        assert_eq!(w.vars(), &[v(5)]);
        assert_eq!(w.copy_counts().total(), 0);
    }

    #[test]
    fn value_at_past_lock_state_is_recoverable() {
        let mut w = Workspace::with_budget(&[], None);
        w.on_exclusive_lock(e(0), li(0), v(10));
        w.write_entity(e(0), li(1), v(11)).unwrap();
        w.write_entity(e(0), li(3), v(13)).unwrap();
        assert_eq!(w.entity_value_at(e(0), li(0)), Some(v(10)));
        assert_eq!(w.entity_value_at(e(0), li(2)), Some(v(11)));
        assert_eq!(w.entity_value_at(e(0), li(3)), Some(v(13)));
        assert_eq!(w.entity_value_at(e(1), li(0)), None);
    }

    /// The adversarial program of Theorem 3: lock `E_j` at state `j`, then
    /// write every held entity once before the next lock. Stacks fill to
    /// exactly the `n(n+1)/2` bound.
    #[test]
    fn theorem3_worst_case_is_achieved_exactly() {
        let n = 6u32;
        let l = 2usize;
        let mut w = Workspace::with_budget(&vec![v(0); l], None);
        for j in 0..n {
            w.on_exclusive_lock(e(j), li(j), v(0));
            // Operations between lock request j and j+1 have lock index j+1.
            for i in 0..=j {
                w.write_entity(e(i), li(j + 1), v((j * 10 + i) as i64)).unwrap();
            }
            for var in 0..l {
                w.assign_var(VarId::new(var as u16), li(j + 1), v(j as i64)).unwrap();
            }
        }
        let counts = w.copy_counts();
        assert_eq!(counts.entity_copies, (n * (n + 1) / 2) as usize);
        assert_eq!(counts.var_copies, n as usize * l);
        assert_eq!(counts.total(), CopyCounts::theorem3_bound(n as usize, l));
        assert_eq!(w.peak_copy_counts(), counts);
    }

    #[test]
    fn peak_survives_rollback() {
        let mut w = Workspace::with_budget(&[], None);
        w.on_exclusive_lock(e(0), li(0), v(0));
        w.write_entity(e(0), li(1), v(1)).unwrap();
        w.write_entity(e(0), li(2), v(2)).unwrap();
        assert_eq!(w.peak_copy_counts().entity_copies, 2);
        w.rollback_to(li(1)).unwrap();
        assert_eq!(w.copy_counts().entity_copies, 1);
        assert_eq!(w.peak_copy_counts().entity_copies, 2);
    }

    #[test]
    fn assign_out_of_range_var_errors() {
        let mut w = Workspace::with_budget(&[v(0)], None);
        assert_eq!(
            w.assign_var(VarId::new(3), li(1), v(1)),
            Err(StorageError::NoSuchVariable(VarId::new(3)))
        );
        assert!(w.var(VarId::new(3)).is_err());
    }

    #[test]
    fn budget_evictions_make_their_interval_unrestorable() {
        let mut w = Workspace::with_budget(&[], Some(1));
        w.on_exclusive_lock(e(0), li(0), v(100));
        w.write_entity(e(0), li(1), v(1)).unwrap();
        w.on_exclusive_lock(e(1), li(1), v(200));
        w.on_exclusive_lock(e(2), li(2), v(300));
        // Each later write evicts the copy before it (li 1, then li 3), so
        // lock states 1..5 held evicted values; 0 is the base.
        w.write_entity(e(0), li(3), v(3)).unwrap();
        w.write_entity(e(0), li(5), v(5)).unwrap();
        assert_eq!(w.deepest_restorable(li(6)), li(6));
        assert_eq!(w.deepest_restorable(li(5)), li(5));
        for q in 1..5 {
            assert_eq!(w.deepest_restorable(li(q)), li(0));
        }
        let err = w.rollback_to(li(4)).unwrap_err();
        assert_eq!(err, StorageError::NotRestorable { entity: e(0), target: li(4) });
        // A refused rollback changes nothing: every stack and value stays.
        assert_eq!(w.entity_stack_count(), 3);
        assert_eq!(w.read_entity(e(0)), Some(v(5)));
        w.check_integrity().unwrap();
        // Rolling back below the interval forgets it with the copies.
        assert_eq!(w.rollback_to(li(0)).unwrap(), vec![e(0), e(1), e(2)]);
        w.on_exclusive_lock(e(0), li(0), v(100));
        w.write_entity(e(0), li(1), v(1)).unwrap();
        assert_eq!(w.deepest_restorable(li(1)), li(1));
    }

    /// Under one copy, each object's writes destroy one interval
    /// `[first write, last write)` (Theorem 4), and intervals that overlap
    /// chain the walk further down.
    #[test]
    fn overlapping_intervals_chain_down() {
        let mut w = Workspace::with_budget(&[v(0)], Some(1));
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

    /// A budget below 1 runs as 1, and one copy's destroyed variable
    /// interval blocks rollback into it; total rollback always works.
    #[test]
    fn variable_interval_blocks_rollback_under_budget_zero_and_one() {
        for budget in [Some(0), Some(1)] {
            let mut w = Workspace::with_budget(&[v(0)], budget);
            w.on_exclusive_lock(e(0), li(0), v(0));
            w.assign_var(VarId::new(0), li(1), v(1)).unwrap();
            w.on_exclusive_lock(e(1), li(1), v(0));
            w.on_exclusive_lock(e(2), li(2), v(0));
            w.assign_var(VarId::new(0), li(3), v(3)).unwrap(); // destroys 1, 2
            assert_eq!(w.copy_counts().var_copies, 1, "budget {budget:?}");
            assert_eq!(w.var(VarId::new(0)).unwrap(), v(3));
            assert!(matches!(w.rollback_to(li(2)), Err(StorageError::VarNotRestorable { .. })));
            w.check_integrity().unwrap();
            let released = w.rollback_to(LockIndex::ZERO).unwrap();
            assert_eq!(released.len(), 3);
            assert_eq!(w.vars(), &[v(0)]);
        }
    }
}
