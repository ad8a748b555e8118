//! The lock-service kernel: the paper's §2–§4 transitions over the
//! database, the lock table, the waits-for graph and the transaction
//! runtimes, defined once (DESIGN §4, "One kernel, two users").
//!
//! Every method performs one transition and *returns what happened*, so
//! [`crate::System`] adds its observation — metrics, events, the deadlock
//! history, the sentinel — around the call without the kernel knowing about it. The
//! kernel keeps table, graph and runtimes coherent: a promoted request is
//! completed on its runtime before the promoting call returns, and a
//! transaction is [`Phase::Blocked`] exactly while it has a queued request
//! and arcs in the graph.

use crate::config::SystemConfig;
use crate::deadlock::{DeadlockEvent, DeadlockRecord};
use crate::error::EngineError;
use crate::runtime::{Phase, RollbackReceipt, TxnRuntime};
use pr_graph::cycles::cycles_on_wait;
use pr_graph::{CandidateRollback, WaitsForGraph};
use pr_lock::{HeldLock, LockTable, RequestOutcome};
use pr_model::{EntityId, LockMode, Op, TransactionProgram, TxnId, Value};
use pr_storage::GlobalStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maximum resolution rounds per blocked request. Each round performs at
/// least one rollback, which strictly reduces held locks, so this bound is
/// never reached by a correct engine; it converts a hypothetical
/// resolution-loop bug into a visible error instead of an infinite loop.
pub const MAX_RESOLUTION_ROUNDS: usize = 1024;

/// What releasing a lock, or cancelling a queued request, did.
#[derive(Debug)]
pub struct Release {
    /// The entity released.
    pub entity: EntityId,
    /// Whether a final value was published to the database.
    pub published: bool,
    /// Waiters promoted by the release, already completed on their
    /// runtimes.
    pub promoted: Vec<HeldLock>,
}

/// What [`Kernel::rollback`] did, in execution order.
#[derive(Debug)]
pub struct Rollback {
    /// The victim's cancelled request (§4 step 1), if it was blocked.
    pub cancelled: Option<Release>,
    /// The runtime rollback (§4 steps 2–5).
    pub receipt: RollbackReceipt,
    /// One unpublished release per undone lock state, in the order of
    /// `receipt.released`.
    pub releases: Vec<Release>,
}

/// What [`Kernel::commit`] did.
#[derive(Debug)]
pub struct Commit {
    /// One release per lock still held, in entity order.
    pub releases: Vec<Release>,
    /// The repair ledger `(ops_replayed, ops_reused)`, final at commit.
    pub ledger: (u64, u64),
}

/// The database, the lock table, the waits-for graph and the transaction
/// runtimes, with the transitions that keep them coherent.
#[derive(Clone)]
pub struct Kernel {
    store: GlobalStore,
    table: LockTable,
    pub(crate) wfg: WaitsForGraph,
    pub(crate) txns: BTreeMap<TxnId, TxnRuntime>,
    config: SystemConfig,
}

impl Kernel {
    /// Creates a kernel over `store`.
    pub fn new(store: GlobalStore, config: SystemConfig) -> Self {
        Kernel {
            store,
            table: LockTable::with_policy(config.grant_policy),
            wfg: WaitsForGraph::new(),
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

    /// The waits-for graph.
    pub fn graph(&self) -> &WaitsForGraph {
        &self.wfg
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runtime state of one transaction.
    pub fn txn(&self, id: TxnId) -> Option<&TxnRuntime> {
        self.txns.get(&id)
    }

    /// Every runtime by id — the view [`DeadlockRecord::plan`] plans over.
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
        entity: EntityId,
        promoted: &[HeldLock],
    ) -> Result<(), EngineError> {
        for &h in promoted {
            self.wfg.clear_wait(h.txn);
            self.finalize_grant(h.txn, entity, h.mode)?;
        }
        self.repoint_waiters(entity);
        Ok(())
    }

    /// Re-points the waits-for arcs of every transaction still queued on
    /// `entity` at its *current* blockers under the grant policy. Blocker
    /// sets change at every release, cancellation, and grant; a stale arc
    /// would make deadlock detection miss cycles through the new holders
    /// (the DESIGN §7 hazard: a shared lock barging past a blocked
    /// exclusive waiter becomes one of that waiter's blockers).
    ///
    /// **Lemma: re-pointing never closes a cycle.** An added arc `b → w`
    /// lies on a cycle only if some arc enters `b`, that is, only if `b`
    /// itself waits. Every blocker a re-point *adds* runs: under barging
    /// it can only be a freshly *granted* (hence running, non-waiting)
    /// transaction, and under the fair queue a waiter's blocker set only
    /// ever shrinks (new requests join behind it, and a grant compatible
    /// with every queued waiter cannot be an incompatible holder of one).
    /// So every deadlock is closed by a wait, and §3.1's detection at the
    /// wait sees it. `pr-par` relies on this to re-point a queue without
    /// waking its waiters (`EpochGraph::queue_changed`, which asserts the
    /// premise under its `invariants` feature).
    fn repoint_waiters(&mut self, entity: EntityId) {
        for w in self.table.waiters_of(entity) {
            let blockers = self.table.blockers_of(w.txn, entity);
            debug_assert!(!blockers.is_empty(), "grantable waiter left in queue");
            self.wfg.set_wait(w.txn, entity, &blockers);
        }
    }

    /// Processes `id`'s lock request. Granted: the lock state is recorded
    /// and the transaction advanced; a compatible request may be granted
    /// while others wait (e.g. a shared lock joining shared holders past a
    /// blocked exclusive waiter), and those waiters now wait on the new
    /// holder as well, so their arcs are re-pointed. Wait: the transaction
    /// is blocked and its arcs to the blockers enter the graph; whether to
    /// run detection on them is the caller's decision.
    pub fn request(
        &mut self,
        id: TxnId,
        entity: EntityId,
        mode: LockMode,
    ) -> Result<RequestOutcome, EngineError> {
        let rt = self.txns.get(&id).ok_or(EngineError::NoSuchTxn(id))?;
        let outcome = self.table.request(id, entity, mode, rt.state, rt.lock_index())?;
        match &outcome {
            RequestOutcome::Granted => {
                self.finalize_grant(id, entity, mode)?;
                self.repoint_waiters(entity);
            }
            RequestOutcome::Wait { holders, .. } => {
                self.wfg.set_wait(id, entity, holders);
                let rt = self.runtime_mut(id)?;
                rt.phase = Phase::Blocked;
                rt.blocked_on = Some(entity);
            }
        }
        Ok(outcome)
    }

    /// Releases `txn`'s table lock on `entity` — after publishing `value`,
    /// if any — and completes the waiters that promotes.
    fn release(
        &mut self,
        txn: TxnId,
        entity: EntityId,
        value: Option<Value>,
    ) -> Result<Release, EngineError> {
        if let Some(value) = value {
            self.store.publish(entity, value)?;
        }
        let promoted = self.table.release(txn, entity)?;
        self.finalize_promoted(entity, &promoted)?;
        Ok(Release { entity, published: value.is_some(), promoted })
    }

    /// Executes `id`'s `Unlock` of `entity`: publishes the final value of
    /// an exclusive hold, then releases.
    pub fn unlock(&mut self, id: TxnId, entity: EntityId) -> Result<Release, EngineError> {
        let value = self.runtime_mut(id)?.complete_unlock(entity);
        self.release(id, entity, value)
    }

    /// Executes `id`'s `Commit`: releases every lock the program never
    /// unlocked, publishing exclusive finals ("the system may
    /// equivalently release any entities which a transaction has failed
    /// to unlock at the time it terminates"), then commits.
    pub fn commit(&mut self, id: TxnId) -> Result<Commit, EngineError> {
        let held: Vec<EntityId> = self.runtime_mut(id)?.held.iter().copied().collect();
        let mut releases = Vec::with_capacity(held.len());
        for entity in held {
            let value = self.runtime_mut(id)?.commit_release(entity);
            releases.push(self.release(id, entity, value)?);
        }
        let ledger = self.runtime_mut(id)?.finish_commit();
        Ok(Commit { releases, ledger })
    }

    /// Halts a blocked transaction (§4 step 1): cancels its pending
    /// request and returns it to `Running`, its `pc` still at the request.
    /// `None` if `txn` was not blocked.
    fn cancel_wait(&mut self, txn: TxnId) -> Result<Option<Release>, EngineError> {
        let rt = self.runtime_mut(txn)?;
        if rt.phase != Phase::Blocked {
            return Ok(None);
        }
        let entity = rt.blocked_on.take().expect("blocked transactions record their entity");
        rt.phase = Phase::Running;
        let promoted = self.table.cancel_wait(txn, entity)?;
        self.wfg.clear_wait(txn);
        self.finalize_promoted(entity, &promoted)?;
        Ok(Some(Release { entity, published: false, promoted }))
    }

    /// Executes one planned rollback, §4's whole procedure: cancels the
    /// victim's pending request (step 1), rolls its runtime back (steps
    /// 2–5), then releases the table lock of every undone lock state
    /// *without* publishing — the database still holds the pre-lock
    /// global values (§4's deferred update).
    pub fn rollback(&mut self, rb: &CandidateRollback) -> Result<Rollback, EngineError> {
        let cancelled = self.cancel_wait(rb.txn)?;
        let receipt = self.runtime_mut(rb.txn)?.rollback(rb)?;
        let mut releases = Vec::with_capacity(receipt.released.len());
        for ls in &receipt.released {
            releases.push(self.release(rb.txn, ls.entity, None)?);
        }
        Ok(Rollback { cancelled, receipt, releases })
    }

    /// One detection round for the blocked transaction `causer`: if its
    /// wait closes cycles, the record of the deadlock and the plan that
    /// resolves it (nothing is executed). Callers loop — executing the
    /// plan, then detecting again — because the cycle cap may hide cycles
    /// and rollbacks reshape the graph.
    pub fn detect(&mut self, causer: TxnId) -> Option<DeadlockRecord> {
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
        self.wfg.clear_wait(causer);
        let cycles = cycles_on_wait(&self.wfg, causer, entity, &holders, self.config.cycle_cap);
        self.wfg.set_wait(causer, entity, &holders);
        if cycles.is_empty() {
            return None;
        }
        let event = DeadlockEvent { causer, entity, cycles };
        Some(DeadlockRecord::plan(event, &self.config, &self.txns, &self.table))
    }

    /// Coherence of table, graph and runtimes: lock-table consistency,
    /// every blocked transaction queued where it says and present in the
    /// graph (and no other), committed transactions holding nothing,
    /// intact workspaces, the table and the runtimes agreeing on who holds
    /// what, and an acyclic graph.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check_invariants()?;
        for rt in self.txns.values() {
            let blocked = rt.phase == Phase::Blocked;
            if blocked {
                let entity =
                    rt.blocked_on.ok_or_else(|| format!("{}: blocked without entity", rt.id))?;
                if self.table.waiting_on(rt.id, entity).is_none() {
                    return Err(format!("{}: blocked but not queued on {entity}", rt.id));
                }
            }
            if blocked != self.wfg.is_waiting(rt.id) {
                return Err(format!(
                    "{}: {:?} but {} in the waits-for graph",
                    rt.id,
                    rt.phase,
                    if blocked { "absent from" } else { "waiting" }
                ));
            }
            if rt.phase == Phase::Committed && !rt.held.is_empty() {
                return Err(format!("{}: committed but still holds locks", rt.id));
            }
            rt.workspace.check_integrity().map_err(|e| format!("{}: workspace: {e}", rt.id))?;
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
        if self.wfg.has_cycle() {
            return Err("waits-for graph contains an unresolved cycle".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_lock::GrantPolicy;
    use pr_model::{Expr, LockIndex, ProgramBuilder};
    use LockMode::{Exclusive as X, Shared as S};

    const A: EntityId = EntityId::new(0);
    const B: EntityId = EntityId::new(1);

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    /// A kernel running `programs` as T1, T2, … under `policy`.
    fn kernel(policy: GrantPolicy, programs: Vec<ProgramBuilder>) -> Kernel {
        let config = SystemConfig::default().with_grant_policy(policy);
        let mut k = Kernel::new(GlobalStore::with_entities(2, Value::new(100)), config);
        for p in programs {
            k.admit(p.build_unchecked()).unwrap();
        }
        k
    }

    /// Issues T`id`'s request; whether it was granted (else it waits).
    fn granted(k: &mut Kernel, id: u32, entity: EntityId, mode: LockMode) -> bool {
        k.request(t(id), entity, mode).unwrap() == RequestOutcome::Granted
    }

    /// A release as (entity, published, promoted transactions).
    fn summary(r: &Release) -> (EntityId, bool, Vec<TxnId>) {
        (r.entity, r.published, r.promoted.iter().map(|h| h.txn).collect())
    }

    #[test]
    fn a_wait_leaves_its_arcs_in_the_graph() {
        let p = || ProgramBuilder::new().lock_exclusive(A).unlock(A);
        let mut k = kernel(GrantPolicy::Barging, vec![p(), p()]);
        assert!(granted(&mut k, 1, A, X) && !granted(&mut k, 2, A, X));
        assert_eq!(k.graph().wait_of(t(2)), Some((A, vec![t(1)])));
        k.check_invariants().unwrap();
    }

    /// T1 writes `a`, then waits behind T2's shared hold on `b`; T3 queues
    /// behind T1 for `b`, T4 for `a`. Rolling T1 back to lock state 0
    /// cancels its request (promoting T3), then releases `a` without
    /// publishing (promoting T4).
    #[test]
    fn rollback_of_a_blocked_victim_cancels_then_releases_unpublished() {
        let programs = vec![
            ProgramBuilder::new().lock_exclusive(A).write_const(A, 7).lock_exclusive(B),
            ProgramBuilder::new().lock_shared(B).unlock(B),
            ProgramBuilder::new().lock_shared(B).unlock(B),
            ProgramBuilder::new().lock_exclusive(A).unlock(A),
        ];
        let mut k = kernel(GrantPolicy::FairQueue, programs);
        assert!(granted(&mut k, 2, B, S) && granted(&mut k, 1, A, X));
        k.exec_local(t(1), &Op::Write { entity: A, expr: Expr::lit(7) }).unwrap();
        assert!(
            !granted(&mut k, 1, B, X) && !granted(&mut k, 3, B, S) && !granted(&mut k, 4, A, X)
        );
        let rb = k.txn(t(1)).unwrap().candidate_to(LockIndex::ZERO, LockIndex::ZERO);
        let done = k.rollback(&rb).unwrap();
        assert_eq!(done.cancelled.as_ref().map(summary), Some((B, false, vec![t(3)])));
        assert_eq!(done.receipt.target, LockIndex::ZERO);
        let releases: Vec<_> = done.releases.iter().map(summary).collect();
        assert_eq!(releases, vec![(A, false, vec![t(4)])]);
        assert_eq!(k.ready(), vec![t(1), t(2), t(3), t(4)]);
        assert_eq!(k.txn(t(4)).unwrap().lock_index(), LockIndex::new(1), "T4's grant completed");
        assert_eq!(k.store().read(A).unwrap(), Value::new(100), "T1's write stayed local");
        k.check_invariants().unwrap();
    }

    #[test]
    fn commit_publishes_exclusive_finals_and_promotes_waiters() {
        let programs = vec![
            ProgramBuilder::new().lock_exclusive(A).lock_shared(B).write_const(A, 7),
            ProgramBuilder::new().lock_exclusive(A).unlock(A),
        ];
        let mut k = kernel(GrantPolicy::Barging, programs);
        assert!(granted(&mut k, 1, A, X) && granted(&mut k, 1, B, S));
        k.exec_local(t(1), &Op::Write { entity: A, expr: Expr::lit(7) }).unwrap();
        assert!(!granted(&mut k, 2, A, X));
        let commit = k.commit(t(1)).unwrap();
        let releases: Vec<_> = commit.releases.iter().map(summary).collect();
        assert_eq!(releases, vec![(A, true, vec![t(2)]), (B, false, vec![])]);
        assert_eq!(commit.ledger, (0, 0));
        assert_eq!(k.store().read(A).unwrap(), Value::new(7));
        assert_eq!(k.ready(), vec![t(2)]);
        k.check_invariants().unwrap();
    }
}
