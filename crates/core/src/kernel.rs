//! The lock-service kernel: the paper's §2–§4 transitions over the
//! database, the lock table and the transaction runtimes, defined once
//! for both deterministic engines (DESIGN §4, "One kernel, three
//! drivers").
//!
//! Every method performs one transition and *returns what happened*, so
//! a driver — [`crate::System`], `pr-dist`'s `DistributedSystem` — adds
//! its own concerns around the call without the kernel knowing them. The
//! kernel keeps table and runtimes coherent: a promoted request is
//! completed on its runtime before the promoting call returns, and a
//! transaction is [`Phase::Blocked`] exactly while it has a queued
//! request. It owns no concurrency graph (`pr-dist` keeps one per site):
//! a transition that changes a wait queue takes the graph tracking the
//! entity and re-points the arcs of the waiters still queued there.

use crate::config::SystemConfig;
use crate::deadlock::{plan_resolution, DeadlockEvent, ResolutionPlan};
use crate::error::EngineError;
use crate::runtime::{Phase, RollbackReceipt, TxnRuntime};
use pr_graph::cycles::cycles_on_wait;
use pr_graph::{CandidateRollback, WaitsForGraph};
use pr_lock::{HeldLock, LockTable, RequestOutcome, WaitingRequest};
use pr_model::{EntityId, LockMode, Op, TransactionProgram, TxnId, Value};
use pr_storage::GlobalStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maximum resolution rounds per blocked request. Each round performs at
/// least one rollback, which strictly reduces held locks, so this bound is
/// never reached by a correct engine; it converts a hypothetical
/// resolution-loop bug into a visible error instead of an infinite loop.
pub const MAX_RESOLUTION_ROUNDS: usize = 1024;

/// What releasing a lock did.
#[derive(Debug)]
pub struct Release {
    /// Whether a final value was published to the database.
    pub published: bool,
    /// Waiters promoted by the release, already completed on their
    /// runtimes.
    pub promoted: Vec<HeldLock>,
}

/// The database, the lock table and the transaction runtimes, with the
/// transitions that keep them coherent.
#[derive(Clone)]
pub struct Kernel {
    store: GlobalStore,
    table: LockTable,
    pub(crate) txns: BTreeMap<TxnId, TxnRuntime>,
    config: SystemConfig,
}

impl Kernel {
    /// Creates a kernel over `store`.
    pub fn new(store: GlobalStore, config: SystemConfig) -> Self {
        Kernel {
            store,
            table: LockTable::with_policy(config.grant_policy),
            txns: BTreeMap::new(),
            config,
        }
    }

    /// Admits a transaction program; entities it locks are created in the
    /// store (zero-valued) if missing. Returns the new transaction's id.
    ///
    /// The program must be valid (see `pr_model::validate`); invalid
    /// programs are rejected.
    pub fn admit(&mut self, program: TransactionProgram) -> Result<TxnId, EngineError> {
        // Runtimes are never removed, so the count is both the next id
        // (ids start at 1) and ω, the position in the entry order.
        let entry = self.txns.len() as u64;
        let id = TxnId::new(entry as u32 + 1);
        pr_model::validate::validate(&program).map_err(|_| EngineError::NotRunnable(id))?;
        for entity in program.locked_entities() {
            self.store.ensure(entity);
        }
        self.txns.insert(id, TxnRuntime::new(id, Arc::new(program), entry, self.config.strategy));
        Ok(id)
    }

    /// The database.
    pub fn store(&self) -> &GlobalStore {
        &self.store
    }

    /// Mutable database access (for scenario setup).
    pub fn store_mut(&mut self) -> &mut GlobalStore {
        &mut self.store
    }

    /// The lock table.
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runtime state of one transaction.
    pub fn txn(&self, id: TxnId) -> Option<&TxnRuntime> {
        self.txns.get(&id)
    }

    /// Every runtime by id — the view [`plan_resolution`] plans over.
    pub fn txns(&self) -> &BTreeMap<TxnId, TxnRuntime> {
        &self.txns
    }

    fn in_phase(&self, phase: Phase) -> Vec<TxnId> {
        self.txns.values().filter(|rt| rt.phase == phase).map(|rt| rt.id).collect()
    }

    /// Transactions currently ready to step, ascending by id.
    pub fn ready(&self) -> Vec<TxnId> {
        self.in_phase(Phase::Running)
    }

    /// Transactions currently blocked, ascending by id.
    pub fn blocked(&self) -> Vec<TxnId> {
        self.in_phase(Phase::Blocked)
    }

    /// Whether every admitted transaction has committed.
    pub fn all_committed(&self) -> bool {
        self.txns.values().all(|rt| rt.phase == Phase::Committed)
    }

    /// Whether every admitted transaction has terminated — committed or
    /// cleanly aborted. This is the no-wedge invariant the chaos harness
    /// asserts: no transaction may be left running or blocked forever.
    pub fn all_settled(&self) -> bool {
        self.txns.values().all(|rt| matches!(rt.phase, Phase::Committed | Phase::Aborted))
    }

    fn runtime_mut(&mut self, id: TxnId) -> Result<&mut TxnRuntime, EngineError> {
        self.txns.get_mut(&id).ok_or(EngineError::NoSuchTxn(id))
    }

    /// Executes one lock-free operation of `id` against the database.
    pub fn exec_local(&mut self, id: TxnId, op: &Op) -> Result<(), EngineError> {
        let store = &self.store;
        let rt = self.txns.get_mut(&id).ok_or(EngineError::NoSuchTxn(id))?;
        Ok(rt.exec_local(op, |entity| store.read(entity))?)
    }

    /// Completes a granted request on the grantee's runtime.
    fn finalize_grant(
        &mut self,
        txn: TxnId,
        entity: EntityId,
        mode: LockMode,
    ) -> Result<(), EngineError> {
        let global = self.store.read(entity)?;
        self.runtime_mut(txn)?.complete_lock(entity, mode, global);
        Ok(())
    }

    /// Completes every request a release or cancellation promoted, then
    /// re-points the arcs of the waiters still queued.
    fn finalize_promoted(
        &mut self,
        graph: &mut WaitsForGraph,
        entity: EntityId,
        promoted: &[HeldLock],
    ) -> Result<(), EngineError> {
        for &h in promoted {
            graph.clear_wait(h.txn);
            self.finalize_grant(h.txn, entity, h.mode)?;
        }
        self.repoint_waiters(graph, entity);
        Ok(())
    }

    /// Re-points the waits-for arcs of every transaction still queued on
    /// `entity` at its *current* blockers under the grant policy. Blocker
    /// sets change at every release, cancellation, and grant; a stale arc
    /// would make deadlock detection miss cycles through the new holders
    /// (the DESIGN §7 hazard: a shared lock barging past a blocked
    /// exclusive waiter becomes one of that waiter's blockers).
    ///
    /// Refreshing never closes a cycle itself: under barging it can only
    /// retarget arcs at freshly *granted* (hence running, non-waiting)
    /// transactions, and under the fair queue a waiter's blocker set only
    /// ever shrinks (new requests join behind it, and a grant compatible
    /// with every queued waiter cannot be an incompatible holder of one).
    pub fn repoint_waiters(&self, graph: &mut WaitsForGraph, entity: EntityId) {
        for w in self.table.waiters_of(entity) {
            let blockers = self.table.blockers_of(w.txn, entity);
            debug_assert!(!blockers.is_empty(), "grantable waiter left in queue");
            graph.set_wait(w.txn, entity, &blockers);
        }
    }

    /// Processes `id`'s lock request. Granted: the lock state is recorded
    /// and the transaction advanced; a compatible request may be granted
    /// while others wait (e.g. a shared lock joining shared holders past a
    /// blocked exclusive waiter), and those waiters now wait on the new
    /// holder as well, so their arcs in `graph` are re-pointed. Wait: the
    /// transaction is blocked, but its own arcs are *not* registered —
    /// when and where the wait becomes visible to detection is the
    /// driver's decision.
    pub fn request(
        &mut self,
        graph: &mut WaitsForGraph,
        id: TxnId,
        entity: EntityId,
        mode: LockMode,
    ) -> Result<RequestOutcome, EngineError> {
        let rt = self.txns.get(&id).ok_or(EngineError::NoSuchTxn(id))?;
        let outcome = self.table.request(id, entity, mode, rt.state, rt.lock_index())?;
        if outcome == RequestOutcome::Granted {
            self.finalize_grant(id, entity, mode)?;
            self.repoint_waiters(graph, entity);
        } else {
            let rt = self.runtime_mut(id)?;
            rt.phase = Phase::Blocked;
            rt.blocked_on = Some(entity);
        }
        Ok(outcome)
    }

    /// Releases `txn`'s table lock on `entity` — after publishing `value`,
    /// if any — and completes the waiters that promotes.
    fn release_with(
        &mut self,
        graph: &mut WaitsForGraph,
        txn: TxnId,
        entity: EntityId,
        value: Option<Value>,
    ) -> Result<Release, EngineError> {
        if let Some(value) = value {
            self.store.publish(entity, value)?;
        }
        let promoted = self.table.release(txn, entity)?;
        self.finalize_promoted(graph, entity, &promoted)?;
        Ok(Release { published: value.is_some(), promoted })
    }

    /// Executes `id`'s `Unlock` of `entity`: publishes the final value of
    /// an exclusive hold, then releases.
    pub fn unlock(
        &mut self,
        graph: &mut WaitsForGraph,
        id: TxnId,
        entity: EntityId,
    ) -> Result<Release, EngineError> {
        let value = self.runtime_mut(id)?.complete_unlock(entity);
        self.release_with(graph, id, entity, value)
    }

    /// Commit-time release of a lock `id`'s program never unlocked: as
    /// [`Self::unlock`], but not an operation of the program.
    pub fn commit_release(
        &mut self,
        graph: &mut WaitsForGraph,
        id: TxnId,
        entity: EntityId,
    ) -> Result<Release, EngineError> {
        let value = self.runtime_mut(id)?.commit_release(entity);
        self.release_with(graph, id, entity, value)
    }

    /// Executes `id`'s `Commit` once its locks are released. Returns the
    /// repair ledger `(ops_replayed, ops_reused)`.
    pub fn finish_commit(&mut self, id: TxnId) -> Result<(u64, u64), EngineError> {
        Ok(self.runtime_mut(id)?.finish_commit())
    }

    /// Releases a table lock whose lock state the runtime no longer has —
    /// undone by a rollback, or dropped by an abort — *without*
    /// publishing: the database still holds the pre-lock global value
    /// (§4's deferred update).
    pub fn release(
        &mut self,
        graph: &mut WaitsForGraph,
        txn: TxnId,
        entity: EntityId,
    ) -> Result<Vec<HeldLock>, EngineError> {
        Ok(self.release_with(graph, txn, entity, None)?.promoted)
    }

    /// Halts a blocked transaction (§4 step 1): cancels its pending
    /// request and returns it to `Running`, its `pc` still at the request.
    /// Returns the contested entity and the waiters the cancellation
    /// promoted, or `None` if `txn` was not blocked.
    pub fn cancel_wait(
        &mut self,
        graph: &mut WaitsForGraph,
        txn: TxnId,
    ) -> Result<Option<(EntityId, Vec<HeldLock>)>, EngineError> {
        let rt = self.runtime_mut(txn)?;
        if rt.phase != Phase::Blocked {
            return Ok(None);
        }
        let entity = rt.blocked_on.take().expect("blocked transactions record their entity");
        rt.phase = Phase::Running;
        let promoted = self.table.cancel_wait(txn, entity)?;
        graph.clear_wait(txn);
        self.finalize_promoted(graph, entity, &promoted)?;
        Ok(Some((entity, promoted)))
    }

    /// Rolls `rb.txn`'s runtime back (§4 steps 2–5). The table locks of
    /// the receipt's `released` lock states are still held: the driver
    /// [`Self::release`]s each.
    pub fn rollback(&mut self, rb: &CandidateRollback) -> Result<RollbackReceipt, EngineError> {
        Ok(self.runtime_mut(rb.txn)?.rollback(rb)?)
    }

    /// One detection round for the blocked transaction `causer` in
    /// `graph`: if its wait closes cycles there, the deadlock and the plan
    /// that resolves it (nothing is executed). Drivers loop — executing
    /// the plan, then detecting again — because the cycle cap may hide
    /// cycles and rollbacks reshape the graph.
    pub fn detect(
        &self,
        graph: &mut WaitsForGraph,
        causer: TxnId,
    ) -> Option<(DeadlockEvent, ResolutionPlan)> {
        let rt = self.txns.get(&causer)?;
        if rt.phase != Phase::Blocked {
            return None; // granted (or rolled back) during a previous round
        }
        let entity = rt.blocked_on.expect("blocked transactions record their entity");
        // Recompute the (possibly changed) blocker set under the table's
        // grant policy: the incompatible holders, plus — fair queue —
        // incompatible requests queued ahead of the causer.
        debug_assert!(
            self.table.waiting_on(causer, entity).is_some(),
            "blocked transaction has a queued request"
        );
        let holders = self.table.blockers_of(causer, entity);
        // Detection runs on the graph without the causer's own arcs.
        graph.clear_wait(causer);
        let cycles = cycles_on_wait(graph, causer, entity, &holders, self.config.cycle_cap);
        graph.set_wait(causer, entity, &holders);
        if cycles.is_empty() {
            return None;
        }
        let event = DeadlockEvent { causer, entity, cycles };
        let plan = plan_resolution(&event, &self.config, &self.txns);
        Some((event, plan))
    }

    // ------------------------------------------------------------------
    // Crash transitions (fault injection in `pr-dist`, DESIGN §9)
    // ------------------------------------------------------------------

    /// Evicts `entity`'s whole lock slot, as when the site holding it
    /// crashes and its volatile lock table is lost. Nothing is promoted.
    /// Evicted waiters return to `Running` and will simply re-issue their
    /// request; evicted holders still believe they hold the lock, and the
    /// caller decides each one's fate (roll it back past the lost lock
    /// state, [`Self::reinstate`] the grant, or [`Self::abort`] it).
    pub fn evict(&mut self, entity: EntityId) -> (Vec<HeldLock>, Vec<WaitingRequest>) {
        let (holders, waiters) = self.table.evict_entity(entity);
        for w in &waiters {
            if let Some(rt) = self.txns.get_mut(&w.txn) {
                rt.phase = Phase::Running;
                rt.blocked_on = None;
            }
        }
        (holders, waiters)
    }

    /// Re-asserts an evicted grant for a holder that cannot be rolled
    /// back (its shrinking phase began).
    pub fn reinstate(&mut self, entity: EntityId, held: HeldLock) -> Result<(), EngineError> {
        self.table.reinstate(entity, held)?;
        self.runtime_mut(held.txn)?.held.insert(entity);
        Ok(())
    }

    /// Terminates `txn` without commit, once its pending request is
    /// cancelled and its table locks are released: whatever it still
    /// believes it holds died with a crashed site, and its uncommitted
    /// local values die with the workspace.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), EngineError> {
        let rt = self.runtime_mut(txn)?;
        rt.held.clear();
        rt.blocked_on = None;
        rt.phase = Phase::Aborted;
        Ok(())
    }

    /// Table/runtime coherence: lock-table consistency, every blocked
    /// transaction queued where it says, settled transactions holding
    /// nothing, and the table and the runtimes agreeing on who holds what.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check_invariants()?;
        for rt in self.txns.values() {
            match rt.phase {
                Phase::Blocked => {
                    let entity = rt
                        .blocked_on
                        .ok_or_else(|| format!("{}: blocked without entity", rt.id))?;
                    if self.table.waiting_on(rt.id, entity).is_none() {
                        return Err(format!("{}: blocked but not queued on {entity}", rt.id));
                    }
                }
                Phase::Committed | Phase::Aborted => {
                    if !rt.held.is_empty() {
                        return Err(format!("{}: settled but still holds locks", rt.id));
                    }
                }
                Phase::Running => {}
            }
            for entity in &rt.held {
                if self.table.held_by(rt.id, *entity).is_none() {
                    return Err(format!(
                        "{}: believes it holds {entity} but table disagrees",
                        rt.id
                    ));
                }
            }
        }
        for entity in self.table.entities() {
            for h in self.table.holders_of(entity) {
                if !self.txns.get(&h).is_some_and(|rt| rt.held.contains(&entity)) {
                    return Err(format!("{entity}: holder {h} does not track it as held"));
                }
            }
        }
        Ok(())
    }
}
