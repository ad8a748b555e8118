//! Per-transaction runtime state.
//!
//! A [`TxnRuntime`] tracks one executing transaction: its program counter,
//! state index (operations executed), granted lock states and workspace,
//! whose copy budget the strategy sets. The workspace is also the
//! state-dependency graph of §4: under SDG and bounded copies it knows
//! which lock states it can restore ([`Workspace::deepest_restorable`]).
//! The rollback procedure of §4 is implemented here, steps 2–5; the
//! engine performs step 1 (waiting/cancelling the transaction) and the
//! lock releases, which need the lock table.

use crate::config::StrategyKind;
use pr_graph::CandidateRollback;
use pr_model::TxnId;
use pr_model::{
    EntityId, Expr, LockIndex, LockMode, Op, StateIndex, TransactionProgram, Value, VarId,
};
use pr_storage::{StorageError, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Read-only access to transaction runtimes by id.
///
/// The deterministic [`crate::System`] owns its runtimes in a
/// `BTreeMap<TxnId, TxnRuntime>`; the parallel engine keeps each runtime
/// behind its own slot mutex and can only assemble a map of *references*
/// while it holds the guards. Victim selection and resolution planning
/// are generic over this trait so both engines share one §3 planner.
pub trait RuntimeView {
    /// The runtime for `txn`, if it is live in this view.
    fn runtime(&self, txn: TxnId) -> Option<&TxnRuntime>;
}

impl RuntimeView for BTreeMap<TxnId, TxnRuntime> {
    fn runtime(&self, txn: TxnId) -> Option<&TxnRuntime> {
        self.get(&txn)
    }
}

impl RuntimeView for BTreeMap<TxnId, &TxnRuntime> {
    fn runtime(&self, txn: TxnId) -> Option<&TxnRuntime> {
        self.get(&txn).copied()
    }
}

/// Execution phase of a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Ready to execute its next operation.
    Running,
    /// Blocked on a lock request.
    Blocked,
    /// Finished; locks released.
    Committed,
}

/// One granted lock request — the transaction-side record of a lock state.
/// `lock_states[k]` describes lock state `k`.
#[derive(Clone, Copy, Debug)]
pub struct LockStateInfo {
    /// Entity locked by the request this lock state precedes.
    pub entity: EntityId,
    /// Mode acquired.
    pub mode: LockMode,
    /// State index of the lock state — the state the transaction was in
    /// when it issued the request ("the last state in which T does not
    /// hold a lock on A", §3.1). Rollback cost to here = current − this.
    pub state_index: StateIndex,
    /// Program counter of the lock-request operation, where execution
    /// resumes after a rollback to this lock state.
    pub pc: usize,
}

/// What one rollback did to a transaction: the §4 procedure's output, from
/// which every engine does its accounting ([`crate::Metrics::record_rollback`])
/// and its lock releases.
#[derive(Debug)]
pub struct RollbackReceipt {
    /// Lock states undone, oldest first. The engine releases the matching
    /// table locks *without* publishing.
    pub released: Vec<LockStateInfo>,
    /// Lock state actually rolled back to.
    pub target: LockIndex,
    /// States lost (§3.1 cost).
    pub cost: u32,
    /// States lost beyond the ideal target (strategy overshoot).
    pub overshoot: u32,
}

/// The per-stack copy budget of `strategy`'s workspace (`None`:
/// unbounded).
fn copy_budget(strategy: StrategyKind) -> Option<usize> {
    match strategy {
        // Repair retains the prefix workspace across a rollback, so it
        // needs the same any-lock-state version stacks as MCS.
        StrategyKind::Mcs | StrategyKind::Repair => None,
        // "Only one local copy of each entity" (§4).
        StrategyKind::Total | StrategyKind::Sdg => Some(1),
        StrategyKind::Bounded(k) => Some(k as usize),
    }
}

/// Replay bookkeeping for [`StrategyKind::Repair`]. Boxed on the runtime;
/// absent under every other strategy.
///
/// The tape records the outcome of each operation the last time it
/// executed. After a rollback, the transaction re-walks the suffix between
/// the rollback target and the state it had reached; each suffix operation
/// either **reuses** its taped outcome (when no input changed) or is
/// **replayed** (recomputed against current values). Reuse is verified at
/// every observation point — a `Read` always compares the live value with
/// the tape — so a replayed execution is value-for-value identical to a
/// from-scratch MCS re-execution of the same schedule.
#[derive(Clone, Debug, Default)]
pub struct RepairState {
    /// `tape[pc]` = the value the operation at `pc` produced the last time
    /// it executed: the observed value for `Read`, the computed value for
    /// `Assign`/`Write`/`Compute`, the global snapshot taken by a lock
    /// request. Consulted during replay to decide whether the recorded
    /// outcome still stands.
    tape: Vec<Option<Value>>,
    /// The active replay window, when re-executing a repaired suffix.
    replay: Option<Replay>,
    /// Suffix operations whose outcome had to be recomputed (or, for lock
    /// requests, re-acquired through the lock table).
    pub ops_replayed: u64,
    /// Suffix operations whose taped outcome was reused unchanged.
    pub ops_reused: u64,
    /// Planted-mutant hook for the oracle self-test: when set, replay
    /// reuses taped `Read` outcomes *without* re-checking them against the
    /// live value — exactly the unsound shortcut (skipping a conflicting
    /// suffix op) that the differential oracle exists to catch. Never set
    /// outside tests.
    unsound_skip_taint: bool,
}

impl RepairState {
    /// A fresh state whose tape is reserved for a program of `ops`
    /// operations, so [`Self::record`] never reallocates mid-transaction.
    fn for_program_len(ops: usize) -> Self {
        RepairState { tape: Vec::with_capacity(ops), ..RepairState::default() }
    }

    fn record(&mut self, pc: usize, value: Value) {
        if self.tape.len() <= pc {
            self.tape.resize(pc + 1, None);
        }
        self.tape[pc] = Some(value);
    }

    fn recorded(&self, pc: usize) -> Option<Value> {
        self.tape.get(pc).copied().flatten()
    }

    /// Whether an operation executing at `state` lies inside the replay
    /// window.
    fn replaying(&self, state: StateIndex) -> bool {
        self.replay.as_ref().is_some_and(|r| state < r.end)
    }
}

/// One replay window: open from a repair rollback until the state index
/// re-reaches the high-water mark it had when the rollback struck.
#[derive(Clone, Debug)]
struct Replay {
    /// Replay ends when the state index reaches this mark. A nested
    /// rollback merges windows by taking the max, which keeps the ledger
    /// additive: every state lost is re-walked (and counted) exactly as
    /// many times as it was lost.
    end: StateIndex,
    /// Variables whose current value differs from the previous execution
    /// of this program region. Starts empty at the rollback target: the
    /// version stacks restore the workspace to precisely the values it
    /// held when execution last passed that point.
    tainted: BTreeSet<VarId>,
}

/// Runtime state of one transaction.
#[derive(Clone, Debug)]
pub struct TxnRuntime {
    /// Transaction id.
    pub id: TxnId,
    /// The program being executed.
    pub program: Arc<TransactionProgram>,
    /// Next operation to execute.
    pub pc: usize,
    /// Operations executed so far (the §2 state index).
    pub state: StateIndex,
    /// Execution phase.
    pub phase: Phase,
    /// The rollback strategy this runtime was built for.
    pub strategy: StrategyKind,
    /// ω for Theorem 2: position in the entry order, fixed at admission
    /// and retained across rollbacks (even total ones — the transaction is
    /// the same execution instance).
    pub entry_order: u64,
    /// Whether the transaction has executed its first unlock. Two-phase
    /// transactions are never rolled back after it (§2), and can never be
    /// blocked again either (no further lock requests).
    pub shrinking: bool,
    /// Granted lock requests, in grant order; index = lock index.
    pub lock_states: Vec<LockStateInfo>,
    /// Local storage, with the strategy's copy budget.
    pub workspace: Workspace,
    /// Times this transaction was chosen as a victim.
    pub preemptions: u32,
    /// States lost to rollbacks of this transaction.
    pub states_lost: u64,
    /// Entity currently being waited for, when blocked.
    pub blocked_on: Option<EntityId>,
    /// Entities whose locks are currently held (lock states minus
    /// unlocks), for commit-time release.
    pub held: BTreeSet<EntityId>,
    /// Replay tape and ledger (`Some` iff the strategy is Repair).
    pub repair: Option<Box<RepairState>>,
}

impl TxnRuntime {
    /// Creates the runtime for `program`, admitted at `entry_order`.
    pub fn new(
        id: TxnId,
        program: Arc<TransactionProgram>,
        entry_order: u64,
        strategy: StrategyKind,
    ) -> Self {
        let workspace = Workspace::with_budget(program.initial_vars(), copy_budget(strategy));
        let repair = (strategy == StrategyKind::Repair)
            .then(|| Box::new(RepairState::for_program_len(program.len())));
        TxnRuntime {
            id,
            program,
            pc: 0,
            state: StateIndex::ZERO,
            phase: Phase::Running,
            strategy,
            entry_order,
            shrinking: false,
            lock_states: Vec::new(),
            workspace,
            preemptions: 0,
            states_lost: 0,
            blocked_on: None,
            held: BTreeSet::new(),
            repair,
        }
    }

    /// Lock index the next operation executes at (= granted lock states).
    pub fn lock_index(&self) -> LockIndex {
        LockIndex::new(self.lock_states.len() as u32)
    }

    /// The lock state at which `entity` was locked, if held.
    pub fn lock_state_for(&self, entity: EntityId) -> Option<LockIndex> {
        self.lock_states.iter().position(|ls| ls.entity == entity).map(|k| LockIndex::new(k as u32))
    }

    /// §3.1 rollback cost to reach lock state `target`: states lost.
    pub fn cost_to_lock_state(&self, target: LockIndex) -> u32 {
        let target_state = if target.index() < self.lock_states.len() {
            self.lock_states[target.index()].state_index
        } else {
            self.state
        };
        self.state.cost_to(target_state)
    }

    /// The deepest reachable rollback target at or below `ideal` under
    /// this runtime's strategy: `ideal` itself for MCS, lock state 0 for
    /// total rollback, and the deepest restorable state for SDG and
    /// bounded copies.
    pub fn reachable_target(&self, strategy: StrategyKind, ideal: LockIndex) -> LockIndex {
        match strategy {
            StrategyKind::Total => LockIndex::ZERO,
            // Repair rolls lock state back exactly as far as MCS; the
            // difference is how the suffix is re-executed, not how deep.
            StrategyKind::Mcs | StrategyKind::Repair => ideal,
            StrategyKind::Sdg | StrategyKind::Bounded(_) => {
                self.workspace.deepest_restorable(ideal)
            }
        }
    }

    /// Local copies currently held, in the unit the paper prices each
    /// strategy's storage in: one per exclusively held entity under total
    /// rollback and SDG ("only one local copy of each entity"), and
    /// Theorem 3's copies beyond each stack's base under the others.
    pub fn copies(&self) -> usize {
        match self.strategy {
            StrategyKind::Total | StrategyKind::Sdg => self.workspace.entity_stack_count(),
            StrategyKind::Mcs | StrategyKind::Repair | StrategyKind::Bounded(_) => {
                self.workspace.copy_counts().total()
            }
        }
    }

    /// Completes a granted lock request: records the lock state, advances
    /// past the request op, and (for exclusive locks) takes the local copy
    /// of the entity's global value.
    pub fn complete_lock(&mut self, entity: EntityId, mode: LockMode, global: Value) {
        let info = LockStateInfo { entity, mode, state_index: self.state, pc: self.pc };
        let lock_state = self.lock_index();
        self.lock_states.push(info);
        self.held.insert(entity);
        if mode == LockMode::Exclusive {
            self.workspace.on_exclusive_lock(entity, lock_state, global);
        }
        if let Some(rep) = &mut self.repair {
            // Lock requests are always genuinely re-performed through the
            // lock table during replay — the grant, and the global snapshot
            // an exclusive grant copies in, cannot be reused from the tape.
            if rep.replaying(self.state) {
                rep.ops_replayed += 1;
            }
            rep.record(self.pc, global);
        }
        self.advance();
        self.close_replay_if_done();
        self.phase = Phase::Running;
        self.blocked_on = None;
    }

    /// Reads the transaction's view of `entity`: its local copy when held
    /// exclusively, otherwise `fallback_global` (shared locks read the
    /// database's global value directly).
    pub fn read_entity(&self, entity: EntityId, fallback_global: Value) -> Value {
        self.workspace.read_entity(entity).unwrap_or(fallback_global)
    }

    /// Records a write of `value` to `entity` at the current lock index.
    pub fn write_entity(&mut self, entity: EntityId, value: Value) -> Result<(), StorageError> {
        let li = self.lock_index();
        self.workspace.write_entity(entity, li, value)?;
        self.advance();
        Ok(())
    }

    /// Records an assignment of `value` to local variable `var`.
    pub fn assign_var(&mut self, var: VarId, value: Value) -> Result<(), StorageError> {
        let li = self.lock_index();
        self.workspace.assign_var(var, li, value)?;
        self.advance();
        Ok(())
    }

    /// Handles an unlock: marks the shrinking phase and returns the final
    /// local value to publish (exclusive holds only).
    pub fn complete_unlock(&mut self, entity: EntityId) -> Option<Value> {
        self.shrinking = true;
        self.held.remove(&entity);
        let published = self.workspace.on_unlock(entity);
        self.advance();
        published
    }

    /// Commit-time release of a lock the program never unlocked ("the
    /// system may equivalently release any entities which a transaction
    /// has failed to unlock at the time it terminates"): as
    /// [`Self::complete_unlock`], except that it is not an operation of
    /// the program, so `pc` and the state index do not move.
    pub fn commit_release(&mut self, entity: EntityId) -> Option<Value> {
        let published = self.complete_unlock(entity);
        self.pc -= 1;
        self.state = StateIndex::new(self.state.raw() - 1);
        published
    }

    /// Executes the `Commit` op once every lock is released. Returns the
    /// repair ledger `(ops_replayed, ops_reused)`, final at this point.
    pub fn finish_commit(&mut self) -> (u64, u64) {
        self.advance();
        self.phase = Phase::Committed;
        self.repair_ops()
    }

    /// Advances one atomic operation: `pc` and state index.
    pub fn advance(&mut self) {
        self.pc += 1;
        self.state = self.state.next();
    }

    /// Closes the replay window once the state index re-reaches its
    /// high-water mark. Called after every op that can advance the state.
    fn close_replay_if_done(&mut self) {
        if let Some(rep) = &mut self.repair {
            if rep.replay.as_ref().is_some_and(|r| self.state >= r.end) {
                rep.replay = None;
            }
        }
    }

    /// Executes one lock-free operation (`Read`, `Write`, `Assign` or
    /// `Compute`) — the interpreter every engine shares. `read_global`
    /// supplies the database's value of an entity and is only called for a
    /// `Read`; it is the one thing the engines do differently.
    ///
    /// # Panics
    ///
    /// On a lock request, unlock or commit: those need the lock service
    /// and belong to the engine.
    pub fn exec_local(
        &mut self,
        op: &Op,
        read_global: impl FnOnce(EntityId) -> Result<Value, StorageError>,
    ) -> Result<(), StorageError> {
        match op {
            Op::Read { entity, into } => {
                let global = read_global(*entity)?;
                self.exec_read(*entity, *into, global)
            }
            Op::Write { entity, expr } => self.exec_write(*entity, expr),
            Op::Assign { var, expr } => self.exec_assign(*var, expr),
            Op::Compute(expr) => {
                self.exec_compute(expr);
                Ok(())
            }
            Op::LockShared(_) | Op::LockExclusive(_) | Op::Unlock(_) | Op::Commit => {
                panic!("{op:?} is a lock-service operation, not a local one")
            }
        }
    }

    /// Executes a `Read` op: observes the transaction's view of `entity`
    /// (local copy when held exclusively, otherwise `global`) and assigns
    /// it to `into`. Under Repair this is the verification point of the
    /// replay protocol: the live observation is compared against the tape,
    /// and `into` is tainted or cleared accordingly — a reuse is never
    /// trusted across a value the environment could have changed.
    fn exec_read(
        &mut self,
        entity: EntityId,
        into: VarId,
        global: Value,
    ) -> Result<(), StorageError> {
        let mut value = self.read_entity(entity, global);
        if let Some(rep) = self.repair.as_deref_mut() {
            if rep.replaying(self.state) {
                let recorded = rep.recorded(self.pc);
                if rep.unsound_skip_taint {
                    // Planted mutant: trust the tape blindly, skipping the
                    // live comparison. Unsound whenever the blocker's
                    // publish changed the value underneath the suffix.
                    if let Some(v) = recorded {
                        value = v;
                    }
                    rep.ops_reused += 1;
                } else if recorded == Some(value) {
                    rep.ops_reused += 1;
                    if let Some(r) = &mut rep.replay {
                        r.tainted.remove(&into);
                    }
                } else {
                    rep.ops_replayed += 1;
                    if let Some(r) = &mut rep.replay {
                        r.tainted.insert(into);
                    }
                }
            }
            rep.record(self.pc, value);
        }
        self.assign_var(into, value)?;
        self.close_replay_if_done();
        Ok(())
    }

    /// Executes an `Assign` op: evaluates `expr` (reusing the taped result
    /// during replay when no input variable is tainted) and assigns it to
    /// `var`.
    fn exec_assign(&mut self, var: VarId, expr: &Expr) -> Result<(), StorageError> {
        let value = self.eval_op(expr, Some(var));
        self.assign_var(var, value)?;
        self.close_replay_if_done();
        Ok(())
    }

    /// Executes a `Write` op: evaluates `expr` (reusing the taped result
    /// during replay when no input variable is tainted) and writes it to
    /// `entity`'s local copy. The write always goes through the workspace,
    /// reused or not — version-stack bookkeeping must be identical to a
    /// from-scratch re-execution.
    fn exec_write(&mut self, entity: EntityId, expr: &Expr) -> Result<(), StorageError> {
        let value = self.eval_op(expr, None);
        self.write_entity(entity, value)?;
        self.close_replay_if_done();
        Ok(())
    }

    /// Executes a `Compute` op: evaluates `expr` for its cost (result
    /// discarded), skipping the evaluation during replay when no input
    /// variable is tainted.
    fn exec_compute(&mut self, expr: &Expr) {
        let _ = self.eval_op(expr, None);
        self.advance();
        self.close_replay_if_done();
    }

    /// Shared evaluation path for `Assign`/`Write`/`Compute`: returns the
    /// op's value, reusing the tape during replay when every input
    /// variable is untainted, and maintains the taint set for `out` (the
    /// variable the result is assigned to, if any).
    fn eval_op(&mut self, expr: &Expr, out: Option<VarId>) -> Value {
        let pc = self.pc;
        let state = self.state;
        let Some(rep) = self.repair.as_deref_mut() else {
            return expr.eval(self.workspace.vars());
        };
        if !rep.replaying(state) {
            let value = expr.eval(self.workspace.vars());
            rep.record(pc, value);
            return value;
        }
        let recorded = rep.recorded(pc);
        let inputs_clean =
            rep.replay.as_ref().is_some_and(|r| !expr.any_var(|v| r.tainted.contains(&v)));
        let value = match recorded {
            Some(v) if inputs_clean => {
                rep.ops_reused += 1;
                // Backstop: in debug builds re-derive the value and insist
                // the tape agrees (off only for the planted mutant, whose
                // whole point is to let an unsound reuse reach the oracle).
                debug_assert!(
                    rep.unsound_skip_taint || expr.eval(self.workspace.vars()) == v,
                    "repair reused a stale result for pc {pc}",
                );
                v
            }
            _ => {
                rep.ops_replayed += 1;
                expr.eval(self.workspace.vars())
            }
        };
        if let Some(var) = out {
            if let Some(r) = &mut rep.replay {
                if recorded == Some(value) {
                    r.tainted.remove(&var);
                } else {
                    r.tainted.insert(var);
                }
            }
        }
        rep.record(pc, value);
        value
    }

    /// The state index of the earliest conflicting access for a rollback
    /// aiming at lock state `ideal`: the state at which the victim issued
    /// the contested lock request, or the current state when `ideal` is
    /// the current lock index (requeue candidates, which release nothing).
    pub fn conflict_state_for(&self, ideal: LockIndex) -> StateIndex {
        self.lock_states.get(ideal.index()).map_or(self.state, |ls| ls.state_index)
    }

    /// The rollback of this transaction to `target`, priced by §3.1, when
    /// the conflict would have been removed at `ideal` already.
    pub fn candidate_to(&self, target: LockIndex, ideal: LockIndex) -> CandidateRollback {
        CandidateRollback {
            txn: self.id,
            target,
            ideal,
            cost: self.cost_to_lock_state(target),
            conflict: self.conflict_state_for(ideal),
        }
    }

    /// The rollback that takes `entity` away from this transaction: to
    /// the deepest target `strategy` can reach at or below the lock state
    /// at which `entity` was locked. `None` if the transaction cannot be
    /// rolled back (it is shrinking or committed) or has no claim on
    /// `entity`.
    pub fn rollback_candidate(
        &self,
        strategy: StrategyKind,
        entity: EntityId,
    ) -> Option<CandidateRollback> {
        if !self.rollbackable() {
            return None;
        }
        let ideal = match self.lock_state_for(entity) {
            Some(ls) => ls,
            // A fair-queue arc may point at a member *queued ahead* on the
            // contended entity rather than holding it; the member is then
            // blocked on that same entity. Cancelling its pending request —
            // a rollback to its current lock state — re-enqueues it at the
            // tail, which breaks the arc without losing any states (the
            // strategy may still deepen the target, e.g. total restarts).
            None if self.blocked_on == Some(entity) => self.lock_index(),
            None => return None,
        };
        Some(self.candidate_to(self.reachable_target(strategy, ideal), ideal))
    }

    /// The repair ledger: `(ops_replayed, ops_reused)`. Zero under every
    /// non-Repair strategy.
    pub fn repair_ops(&self) -> (u64, u64) {
        self.repair.as_ref().map_or((0, 0), |r| (r.ops_replayed, r.ops_reused))
    }

    /// Plants the unsound-reuse mutant (Repair only): replay will trust
    /// taped `Read` outcomes without comparing them against live values.
    /// Exists so the equivalence battery can prove the differential oracle
    /// actually catches a repair that skips a conflicting suffix op.
    #[doc(hidden)]
    pub fn plant_unsound_skip_taint(&mut self) {
        if let Some(rep) = &mut self.repair {
            rep.unsound_skip_taint = true;
        }
    }

    /// Performs the runtime part of a rollback to lock state `target`
    /// (workspace restore, pc/state reset, §4 steps 2–5). Returns the
    /// lock-state records released (the engine releases the corresponding
    /// table locks, *without* publishing).
    ///
    /// The caller must have verified that `target` is reachable under the
    /// strategy; a target the workspace cannot restore is a programming
    /// error and surfaces as `StorageError::NotRestorable` (or
    /// `VarNotRestorable`), with the runtime left untouched.
    pub fn rollback_to(&mut self, target: LockIndex) -> Result<Vec<LockStateInfo>, StorageError> {
        debug_assert!(!self.shrinking, "two-phase transactions never roll back after unlock");
        debug_assert!(target.index() <= self.lock_states.len());
        self.workspace.rollback_to(target)?;
        let released = self.lock_states.split_off(target.index());
        for ls in &released {
            self.held.remove(&ls.entity);
        }
        let (new_pc, new_state) = match self.lock_states.get(target.index().wrapping_sub(1)) {
            // Rolling to lock state k: resume at the k-th lock request.
            _ if !released.is_empty() => (released[0].pc, released[0].state_index),
            // target == current lock index: nothing released, nothing moves.
            _ => (self.pc, self.state),
        };
        let lost = self.state.cost_to(new_state);
        self.states_lost += u64::from(lost);
        self.preemptions += 1;
        if let Some(rep) = &mut self.repair {
            // Open (or extend) the replay window over the lost suffix. The
            // empty taint set is sound only while the tape ahead of the
            // resume point was written by a single execution (the version
            // stacks restore every variable to exactly that execution's
            // value at the resume point, so nothing has diverged yet). A
            // nested rollback breaks that: entries the interrupted replay
            // never reached still date from the *previous* execution,
            // while the taint set that tracked divergence from them dies
            // with the window — so drop those older-epoch entries and
            // re-derive them instead of reusing.
            let end = match rep.replay.take() {
                Some(r) => {
                    rep.tape.truncate(self.pc);
                    r.end.max(self.state)
                }
                None => self.state,
            };
            if end > new_state {
                rep.replay = Some(Replay { end, tainted: BTreeSet::new() });
            }
        }
        self.pc = new_pc;
        self.state = new_state;
        self.phase = Phase::Running;
        self.blocked_on = None;
        Ok(released)
    }

    /// Executes a planned rollback: [`Self::rollback_to`] the planned
    /// target, clamped to the current lock index (an earlier rollback of
    /// the same plan, or a nested one, may already have taken the
    /// transaction further back than planned).
    pub fn rollback(&mut self, rb: &CandidateRollback) -> Result<RollbackReceipt, StorageError> {
        let target = rb.target.min(self.lock_index());
        let ideal = rb.ideal.min(self.lock_index());
        let cost = self.cost_to_lock_state(target);
        let overshoot = cost - self.cost_to_lock_state(ideal);
        let released = self.rollback_to(target)?;
        Ok(RollbackReceipt { released, target, cost, overshoot })
    }

    /// Whether this transaction may still be rolled back.
    pub fn rollbackable(&self) -> bool {
        !self.shrinking && matches!(self.phase, Phase::Running | Phase::Blocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::{EntityId, ProgramBuilder};

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    fn runtime(strategy: StrategyKind) -> TxnRuntime {
        let p = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .write_const(e(0), 1)
            .lock_exclusive(e(1))
            .write_const(e(1), 2)
            .lock_exclusive(e(2))
            .build_unchecked();
        TxnRuntime::new(TxnId::new(1), Arc::new(p), 0, strategy)
    }

    #[test]
    fn complete_lock_advances_and_records() {
        let mut rt = runtime(StrategyKind::Mcs);
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(10));
        assert_eq!(rt.pc, 1);
        assert_eq!(rt.state, StateIndex::new(1));
        assert_eq!(rt.lock_index(), LockIndex::new(1));
        assert_eq!(rt.lock_state_for(e(0)), Some(LockIndex::ZERO));
        assert_eq!(rt.read_entity(e(0), Value::ZERO), Value::new(10));
    }

    #[test]
    fn cost_to_lock_state_is_state_difference() {
        let mut rt = runtime(StrategyKind::Mcs);
        rt.complete_lock(e(0), LockMode::Exclusive, Value::ZERO); // state 0→1
        rt.write_entity(e(0), Value::new(1)).unwrap(); // 1→2
        rt.complete_lock(e(1), LockMode::Exclusive, Value::ZERO); // 2→3
                                                                  // Lock state 0 was at state 0; lock state 1 at state 2.
        assert_eq!(rt.cost_to_lock_state(LockIndex::new(0)), 3);
        assert_eq!(rt.cost_to_lock_state(LockIndex::new(1)), 1);
        assert_eq!(rt.cost_to_lock_state(LockIndex::new(2)), 0);
    }

    #[test]
    fn rollback_resets_pc_state_and_releases_locks() {
        let mut rt = runtime(StrategyKind::Mcs);
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(10));
        rt.write_entity(e(0), Value::new(11)).unwrap();
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(20));
        rt.write_entity(e(1), Value::new(21)).unwrap();
        let released = rt.rollback_to(LockIndex::new(1)).unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].entity, e(1));
        // Resume at the second lock request (pc 2 in the program), state 2.
        assert_eq!(rt.pc, 2);
        assert_eq!(rt.state, StateIndex::new(2));
        assert_eq!(rt.states_lost, 2);
        assert_eq!(rt.preemptions, 1);
        // a's written value survives (write was before lock state 1).
        assert_eq!(rt.read_entity(e(0), Value::ZERO), Value::new(11));
        assert!(rt.lock_state_for(e(1)).is_none());
    }

    #[test]
    fn total_strategy_reaches_only_zero() {
        let rt = runtime(StrategyKind::Total);
        assert_eq!(rt.reachable_target(StrategyKind::Total, LockIndex::new(2)), LockIndex::ZERO);
    }

    #[test]
    fn mcs_reaches_ideal_target() {
        let rt = runtime(StrategyKind::Mcs);
        assert_eq!(rt.reachable_target(StrategyKind::Mcs, LockIndex::new(2)), LockIndex::new(2));
    }

    #[test]
    fn sdg_falls_back_to_well_defined_state() {
        let mut rt = runtime(StrategyKind::Sdg);
        rt.complete_lock(e(0), LockMode::Exclusive, Value::ZERO); // k0
        rt.write_entity(e(0), Value::new(1)).unwrap(); // first write: harmless
        rt.complete_lock(e(1), LockMode::Exclusive, Value::ZERO); // k1
        rt.complete_lock(e(2), LockMode::Exclusive, Value::ZERO); // k2
        rt.write_entity(e(0), Value::new(2)).unwrap(); // destroys k1, k2
        assert_eq!(rt.reachable_target(StrategyKind::Sdg, LockIndex::new(2)), LockIndex::ZERO);
        assert_eq!(rt.reachable_target(StrategyKind::Sdg, LockIndex::new(3)), LockIndex::new(3));
    }

    #[test]
    fn sdg_rollback_restores_values() {
        let mut rt = runtime(StrategyKind::Sdg);
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(100));
        rt.write_entity(e(0), Value::new(1)).unwrap();
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(200));
        rt.complete_lock(e(2), LockMode::Exclusive, Value::new(300));
        rt.write_entity(e(0), Value::new(2)).unwrap(); // destroys k1, k2
                                                       // Ideal target 2 is undefined; reachable target is 0 (total).
        let target = rt.reachable_target(StrategyKind::Sdg, LockIndex::new(2));
        assert_eq!(target, LockIndex::ZERO);
        let released = rt.rollback_to(target).unwrap();
        assert_eq!(released.len(), 3);
        assert_eq!(rt.pc, 0);
        assert_eq!(rt.state, StateIndex::ZERO);
        // Rolling back to a *well-defined* non-zero state works: rebuild.
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(100));
        rt.write_entity(e(0), Value::new(1)).unwrap();
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(200));
        let released = rt.rollback_to(LockIndex::new(1)).unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(rt.read_entity(e(0), Value::ZERO), Value::new(1));
    }

    #[test]
    fn unlock_marks_shrinking_and_returns_final_value() {
        let mut rt = runtime(StrategyKind::Mcs);
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(5));
        rt.write_entity(e(0), Value::new(6)).unwrap();
        let v = rt.complete_unlock(e(0));
        assert_eq!(v, Some(Value::new(6)));
        assert!(rt.shrinking);
        assert!(!rt.rollbackable());
    }

    #[test]
    fn shared_locks_have_no_local_copy() {
        let mut rt = runtime(StrategyKind::Mcs);
        rt.complete_lock(e(0), LockMode::Shared, Value::new(7));
        assert_eq!(rt.read_entity(e(0), Value::new(42)), Value::new(42));
        assert_eq!(rt.complete_unlock(e(0)), None);
    }

    #[test]
    fn rollback_to_current_lock_index_is_a_noop_motion() {
        let mut rt = runtime(StrategyKind::Mcs);
        rt.complete_lock(e(0), LockMode::Exclusive, Value::ZERO);
        let pc = rt.pc;
        let released = rt.rollback_to(LockIndex::new(1)).unwrap();
        assert!(released.is_empty());
        assert_eq!(rt.pc, pc);
    }

    use pr_model::Expr;

    fn v(i: u16) -> VarId {
        VarId::new(i)
    }

    /// lock e0 X · read e0 → v0 · lock e1 X · write e1 := v0 + 1.
    fn repair_runtime() -> TxnRuntime {
        let p = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .read(e(0), v(0))
            .lock_exclusive(e(1))
            .write(e(1), Expr::add(Expr::var(v(0)), Expr::lit(1)))
            .build_unchecked();
        TxnRuntime::new(TxnId::new(1), Arc::new(p), 0, StrategyKind::Repair)
    }

    #[test]
    fn repair_reuses_unchanged_suffix_and_ledger_reconciles() {
        let mut rt = repair_runtime();
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(10));
        rt.exec_read(e(0), v(0), Value::ZERO).unwrap();
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(20));
        rt.exec_write(e(1), &Expr::add(Expr::var(v(0)), Expr::lit(1))).unwrap();
        assert_eq!(rt.read_entity(e(1), Value::ZERO), Value::new(11));
        // Lose the e1 suffix; the e0 prefix (and v0) survive in place.
        rt.rollback_to(LockIndex::new(1)).unwrap();
        assert_eq!(rt.states_lost, 2);
        // Re-execute: the lock is genuinely re-acquired (replayed), the
        // write's inputs are untainted so its taped result is reused.
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(20));
        rt.exec_write(e(1), &Expr::add(Expr::var(v(0)), Expr::lit(1))).unwrap();
        assert_eq!(rt.read_entity(e(1), Value::ZERO), Value::new(11));
        assert_eq!(rt.repair_ops(), (1, 1));
        let (replayed, reused) = rt.repair_ops();
        assert_eq!(replayed + reused, rt.states_lost, "every lost state is re-walked once");
        assert!(rt.repair.as_ref().unwrap().replay.is_none(), "window closed at high-water mark");
    }

    #[test]
    fn repair_read_detects_changed_value_and_taints_downstream() {
        let mut rt = repair_runtime();
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(10));
        rt.exec_read(e(0), v(0), Value::ZERO).unwrap();
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(20));
        rt.exec_write(e(1), &Expr::add(Expr::var(v(0)), Expr::lit(1))).unwrap();
        rt.rollback_to(LockIndex::ZERO).unwrap();
        assert_eq!(rt.states_lost, 4);
        // The blocker published a new value for e0: the read observes it,
        // taints v0, and everything downstream recomputes.
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(50));
        rt.exec_read(e(0), v(0), Value::ZERO).unwrap();
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(20));
        rt.exec_write(e(1), &Expr::add(Expr::var(v(0)), Expr::lit(1))).unwrap();
        assert_eq!(rt.read_entity(e(1), Value::ZERO), Value::new(51), "recomputed, not reused");
        assert_eq!(rt.repair_ops(), (4, 0), "changed input forces a full replay");
    }

    #[test]
    fn planted_mutant_reuses_stale_read_and_diverges() {
        let mut rt = repair_runtime();
        rt.plant_unsound_skip_taint();
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(10));
        rt.exec_read(e(0), v(0), Value::ZERO).unwrap();
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(20));
        rt.exec_write(e(1), &Expr::add(Expr::var(v(0)), Expr::lit(1))).unwrap();
        rt.rollback_to(LockIndex::ZERO).unwrap();
        rt.complete_lock(e(0), LockMode::Exclusive, Value::new(50));
        rt.exec_read(e(0), v(0), Value::ZERO).unwrap();
        rt.complete_lock(e(1), LockMode::Exclusive, Value::new(20));
        rt.exec_write(e(1), &Expr::add(Expr::var(v(0)), Expr::lit(1))).unwrap();
        // The mutant trusted the taped read (10) over the live value (50):
        // the published result is stale — exactly what the differential
        // oracle must flag.
        assert_eq!(rt.read_entity(e(1), Value::ZERO), Value::new(11));
    }

    #[test]
    fn conflict_state_is_the_contested_lock_request() {
        let mut rt = runtime(StrategyKind::Mcs);
        rt.complete_lock(e(0), LockMode::Exclusive, Value::ZERO); // state 0→1
        rt.write_entity(e(0), Value::new(1)).unwrap(); // 1→2
        rt.complete_lock(e(1), LockMode::Exclusive, Value::ZERO); // 2→3
        assert_eq!(rt.conflict_state_for(LockIndex::ZERO), StateIndex::ZERO);
        assert_eq!(rt.conflict_state_for(LockIndex::new(1)), StateIndex::new(2));
        // Requeue candidates aim at the current lock index: nothing is
        // released, the conflict is "here".
        assert_eq!(rt.conflict_state_for(rt.lock_index()), rt.state);
    }
}
