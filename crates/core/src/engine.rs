//! The execution engine: 2PL with partial-rollback deadlock removal.
//!
//! [`System`] drives the [`Kernel`]'s transitions one scheduler step at a
//! time and adds everything that is about *observing* them: metrics, the
//! event log, the deadlock history, the acquisition-order certificate and
//! the invariant sentinel.

use crate::config::SystemConfig;
use crate::deadlock::DeadlockRecord;
use crate::error::EngineError;
use crate::event::{Event, EventLog};
use crate::kernel::{Kernel, Release, MAX_RESOLUTION_ROUNDS};
use crate::metrics::Metrics;
use crate::runtime::{Phase, TxnRuntime};
use crate::scheduler::Scheduler;
use pr_graph::{CandidateRollback, WaitsForGraph};
use pr_lock::{EntityOrder, GrantPolicy, LockTable, RequestOutcome};
use pr_model::{EntityId, LockMode, Op, TransactionProgram, TxnId};
use pr_storage::GlobalStore;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Result of stepping one transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The operation completed; the transaction remains ready.
    Progressed,
    /// The operation was a lock request that must wait (no deadlock).
    Blocked {
        /// The contested entity.
        entity: EntityId,
    },
    /// The request would have deadlocked; the plan was executed.
    DeadlockResolved {
        /// The step's first deadlock, with the plan executed for it (later
        /// rounds of the same step are in [`System::history`]).
        record: Arc<DeadlockRecord>,
    },
    /// The transaction committed.
    Committed,
}

/// A concurrent database system executing two-phase transactions under the
/// configured rollback strategy and victim policy.
///
/// `Clone` snapshots the entire system — database, lock table, graph, and
/// every transaction runtime — which is what lets the model checker in
/// `pr-explore` branch the execution at every scheduling choice.
#[derive(Clone)]
pub struct System {
    kernel: Kernel,
    metrics: Metrics,
    /// Every deadlock the system resolved, oldest first — the scenario
    /// tests, figure reproductions and explorer oracles read this log.
    /// Shared, so the explorer's per-branch clones stay cheap.
    history: Vec<Arc<DeadlockRecord>>,
    /// Optional structured event log (off by default).
    events: EventLog,
    /// Step at which each currently blocked transaction blocked, for the
    /// grant-latency histogram.
    blocked_since: BTreeMap<TxnId, u64>,
    /// Incrementally maintained total of live local copies, so the peak
    /// metric costs O(1) per operation instead of a scan over all
    /// transactions.
    copies_cache: BTreeMap<TxnId, usize>,
    copies_total: usize,
    /// The installed acquisition-order certificate, if any (only
    /// consulted under [`GrantPolicy::Ordered`]).
    certified_order: Option<EntityOrder>,
    /// Admitted transactions whose whole lock sequence the certificate
    /// vouches for. Deadlock detection is skipped on a wait only when the
    /// waiter *and every other blocked transaction* are covered: covered
    /// transactions acquire in strictly ascending certified rank, so any
    /// hold-and-wait cycle among them would force ranks to increase
    /// forever — no cycle can exist and there is nothing to detect.
    covered: BTreeSet<TxnId>,
    /// Runtime invariant sentinel (feature `invariants`): bounded event
    /// tail plus workload facts for the Theorem 1 / ω-order checks.
    #[cfg(feature = "invariants")]
    sentinel: crate::sentinel::Sentinel,
}

impl System {
    /// Creates a system over `store` with the given configuration.
    pub fn new(store: GlobalStore, config: SystemConfig) -> Self {
        System {
            kernel: Kernel::new(store, config),
            metrics: Metrics::default(),
            history: Vec::new(),
            events: EventLog::new(),
            blocked_since: BTreeMap::new(),
            copies_cache: BTreeMap::new(),
            copies_total: 0,
            certified_order: None,
            covered: BTreeSet::new(),
            #[cfg(feature = "invariants")]
            sentinel: crate::sentinel::Sentinel::new(),
        }
    }

    /// Installs an acquisition-order certificate, recomputing coverage
    /// for every already-admitted transaction (later admissions are
    /// checked as they arrive). Returns how many admitted transactions
    /// the order covers. Transactions the order cannot vouch for simply
    /// stay uncovered: their waits run the full partial-rollback
    /// machinery, so a permissive install is always safe.
    pub fn install_order(&mut self, order: EntityOrder) -> usize {
        self.covered = self
            .kernel
            .txns()
            .values()
            .filter(|rt| order.covers_program(&rt.program))
            .map(|rt| rt.id)
            .collect();
        self.certified_order = Some(order);
        self.covered.len()
    }

    /// Installs a certificate strictly: errors (installing nothing)
    /// unless the order covers every already-admitted transaction. This
    /// is the runtime checker that rejects forged certificates — an
    /// order violating some program's lock sequence, or any "certificate"
    /// for a workload whose precedence graph is cyclic (no order can
    /// cover all of its programs).
    pub fn install_certificate(&mut self, order: EntityOrder) -> Result<usize, EngineError> {
        for rt in self.kernel.txns().values() {
            if let Some((pc, entity)) = order.first_violation(&rt.program) {
                return Err(EngineError::CertificateViolation { txn: rt.id, pc, entity });
            }
        }
        Ok(self.install_order(order))
    }

    /// The installed acquisition-order certificate, if any.
    pub fn certified_order(&self) -> Option<&EntityOrder> {
        self.certified_order.as_ref()
    }

    /// Admitted transactions the installed certificate covers.
    pub fn covered_txns(&self) -> Vec<TxnId> {
        self.covered.iter().copied().collect()
    }

    /// Whether `causer`'s wait is provably cycle-free without running
    /// detection: the policy is [`GrantPolicy::Ordered`] and the
    /// certificate vouches for the waiter and for every currently
    /// blocked transaction (any deadlock cycle consists of blocked
    /// transactions only).
    fn ordered_wait_is_certified(&self, causer: TxnId) -> bool {
        self.config().grant_policy == GrantPolicy::Ordered
            && self.covered.contains(&causer)
            && self.blocked_since.keys().all(|t| self.covered.contains(t))
    }

    /// Turns on structured event logging with the given retention bound.
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.events.enable(capacity);
    }

    /// The recorded events (empty unless enabled).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Admits a transaction program; entities it locks are created in the
    /// store (zero-valued) if missing. Returns the new transaction's id.
    ///
    /// The program must be valid (see `pr_model::validate`); invalid
    /// programs are rejected.
    pub fn admit(&mut self, program: TransactionProgram) -> Result<TxnId, EngineError> {
        let id = self.kernel.admit(program)?;
        let rt = &self.kernel.txns()[&id];
        if self.certified_order.as_ref().is_some_and(|order| order.covers_program(&rt.program)) {
            self.covered.insert(id);
        }
        #[cfg(feature = "invariants")]
        if rt.program.lock_requests().iter().any(|(_, _, m)| *m == LockMode::Shared) {
            self.sentinel.note_shared_mode();
        }
        self.log(Event::Admitted { txn: id });
        Ok(id)
    }

    /// Admits a pre-validated program without re-checking (builder output).
    pub fn admit_unchecked(&mut self, program: TransactionProgram) -> TxnId {
        self.admit(program).expect("program failed validation at admission")
    }

    /// Transactions currently ready to step, ascending by id.
    pub fn ready(&self) -> Vec<TxnId> {
        self.kernel.ready()
    }

    /// Transactions currently blocked, ascending by id.
    pub fn blocked(&self) -> Vec<TxnId> {
        self.kernel.blocked()
    }

    /// Whether every admitted transaction has committed.
    pub fn all_committed(&self) -> bool {
        self.kernel.all_committed()
    }

    /// Executes one atomic operation of `id`.
    pub fn step(&mut self, id: TxnId) -> Result<StepOutcome, EngineError> {
        self.metrics.steps += 1;
        let rt = self.kernel.txn(id).ok_or(EngineError::NoSuchTxn(id))?;
        if rt.phase != Phase::Running {
            return Err(EngineError::NotRunnable(id));
        }
        // Program text is shared, never copied: hold it by reference count
        // so the op can be borrowed across the `&mut self` handlers.
        let program = Arc::clone(&rt.program);
        let op = program.op(rt.pc).ok_or(EngineError::NotRunnable(id))?;
        let result = match *op {
            Op::LockShared(entity) => self.do_lock(id, entity, LockMode::Shared),
            Op::LockExclusive(entity) => self.do_lock(id, entity, LockMode::Exclusive),
            Op::Unlock(entity) => self.do_unlock(id, entity),
            Op::Commit => self.do_commit(id),
            ref local => self.kernel.exec_local(id, local).map(|()| {
                self.metrics.ops_executed += 1;
                if matches!(local, Op::Write { .. } | Op::Assign { .. }) {
                    self.update_peak_copies_for(id);
                }
                StepOutcome::Progressed
            }),
        };
        // Every successful step — in particular every wait response and
        // every completed deadlock resolution — must leave the system in a
        // state satisfying the structural invariants.
        #[cfg(feature = "invariants")]
        if result.is_ok() {
            self.sentinel_verify("post-step check");
        }
        result
    }

    /// Runs transactions under `scheduler` until all commit.
    pub fn run<S: Scheduler>(&mut self, scheduler: &mut S) -> Result<(), EngineError> {
        let mut steps: u64 = 0;
        loop {
            let ready = self.ready();
            if ready.is_empty() {
                if self.all_committed() {
                    return Ok(());
                }
                return Err(EngineError::Stuck { blocked: self.blocked() });
            }
            steps += 1;
            if steps > self.config().max_steps {
                return Err(EngineError::StepLimitExceeded { limit: self.config().max_steps });
            }
            let pick = scheduler.pick(&ready);
            self.step(pick)?;
        }
    }

    // ------------------------------------------------------------------
    // Operation handlers
    // ------------------------------------------------------------------

    fn do_lock(
        &mut self,
        id: TxnId,
        entity: EntityId,
        mode: LockMode,
    ) -> Result<StepOutcome, EngineError> {
        match self.kernel.request(id, entity, mode)? {
            RequestOutcome::Granted => {
                self.note_grant(id, entity, mode);
                Ok(StepOutcome::Progressed)
            }
            RequestOutcome::Wait { holders, .. } => {
                self.log(Event::Waited { txn: id, entity, holders });
                self.metrics.waits += 1;
                self.metrics.note_queue_depth(entity, self.kernel.table().queue_depth(entity));
                self.blocked_since.insert(id, self.metrics.steps);
                // Certified fast path: when every blocked transaction is
                // covered by the installed order, no cycle can exist, so
                // detection is skipped outright. The kernel still recorded
                // the wait arcs — the invariant checks (including the
                // acyclicity check) see the same graph either way.
                let resolved = if self.ordered_wait_is_certified(id) {
                    self.metrics.certified_waits += 1;
                    None
                } else {
                    self.resolve_deadlocks(id)?
                };
                match resolved {
                    Some(record) => Ok(StepOutcome::DeadlockResolved { record }),
                    None => Ok(StepOutcome::Blocked { entity }),
                }
            }
        }
    }

    /// Detects and resolves every cycle through the blocked transaction
    /// `causer`, looping because (a) the cycle cap may hide cycles and
    /// (b) rollbacks reshape the graph. Every round's record joins the
    /// history; the first is returned.
    fn resolve_deadlocks(
        &mut self,
        causer: TxnId,
    ) -> Result<Option<Arc<DeadlockRecord>>, EngineError> {
        let mut first = None;
        for round in 0.. {
            if round >= MAX_RESOLUTION_ROUNDS {
                return Err(EngineError::Stuck { blocked: self.blocked() });
            }
            let Some(record) = self.kernel.detect(causer) else {
                break;
            };
            let (entity, cycles) = (record.event.entity, record.event.cycles.len());
            self.log(Event::DeadlockDetected { causer, entity, cycles });
            // Theorem 1: with exclusive locks only and the paper's grant
            // rule, the graph was a forest before this wait, so the new arcs
            // can close at most one cycle. The fair queue deviates from that
            // grant rule (a waiter may have arcs to both a holder and a
            // queued predecessor), so the theorem's premise — and the check
            // — only applies under barging.
            #[cfg(feature = "invariants")]
            if self.sentinel.exclusive_only()
                && self.config().grant_policy == GrantPolicy::Barging
                && cycles > 1
            {
                self.sentinel.fail(
                    "deadlock detection",
                    &format!(
                        "exclusive-only wait by {causer} closed {cycles} cycles; \
                         Theorem 1 allows at most one"
                    ),
                );
            }
            if record.plan.rollbacks.is_empty() {
                // Defensive: cannot happen while every cycle member is
                // rollbackable; surface as stuck rather than spinning.
                return Err(EngineError::Stuck { blocked: self.blocked() });
            }
            // Theorem 2 (ω-order legality): the partial-order policy may
            // only preempt transactions strictly younger than the causer —
            // or the causer itself when it is the youngest cycle member —
            // which is what guarantees system-wide progress.
            #[cfg(feature = "invariants")]
            if self.config().victim == crate::config::VictimPolicyKind::PartialOrder {
                let entry = |txn| self.kernel.txn(txn).map(|rt| rt.entry_order);
                let causer_entry = entry(causer).unwrap_or(u64::MAX);
                for rb in &record.plan.rollbacks {
                    let legal = rb.txn == causer || entry(rb.txn).is_some_and(|e| e > causer_entry);
                    if !legal {
                        self.sentinel.fail(
                            "victim selection",
                            &format!(
                                "partial-order policy chose {} (not younger than causer \
                                 {causer}) as a victim",
                                rb.txn
                            ),
                        );
                    }
                }
            }
            let mut states_lost = 0;
            for rb in &record.plan.rollbacks {
                states_lost += self.execute_rollback(rb)?;
            }
            self.metrics.record_resolution(record.plan.optimal, states_lost);
            let record = Arc::new(record);
            self.history.push(Arc::clone(&record));
            first.get_or_insert(record);
        }
        Ok(first)
    }

    /// Performs one planned rollback and accounts for it in the order it
    /// happened: the cancellation's promotions, the rollback itself, then
    /// each release's promotions (the peak-copies metric depends on it).
    /// Returns the states it lost.
    fn execute_rollback(&mut self, rb: &CandidateRollback) -> Result<u64, EngineError> {
        let victim = rb.txn;
        let done = self.kernel.rollback(rb)?;
        if let Some(cancelled) = &done.cancelled {
            self.blocked_since.remove(&victim);
            self.note_promoted(cancelled);
        }
        let receipt = &done.receipt;
        self.log(Event::RolledBack { victim, target: receipt.target, cost: receipt.cost });
        self.metrics.record_rollback(victim, self.config().strategy, receipt);
        self.update_peak_copies_for(victim);
        for release in &done.releases {
            self.note_promoted(release);
        }
        Ok(u64::from(receipt.cost))
    }

    fn do_unlock(&mut self, id: TxnId, entity: EntityId) -> Result<StepOutcome, EngineError> {
        let release = self.kernel.unlock(id, entity)?;
        if release.published {
            self.log(Event::Published { txn: id, entity });
        }
        self.update_peak_copies_for(id);
        self.note_promoted(&release);
        self.metrics.ops_executed += 1;
        Ok(StepOutcome::Progressed)
    }

    fn do_commit(&mut self, id: TxnId) -> Result<StepOutcome, EngineError> {
        let commit = self.kernel.commit(id)?;
        for release in &commit.releases {
            self.note_promoted(release);
        }
        let (replayed, reused) = commit.ledger;
        self.metrics.ops_replayed += replayed;
        self.metrics.ops_reused += reused;
        self.log(Event::Committed { txn: id });
        self.update_peak_copies_for(id);
        self.metrics.ops_executed += 1;
        self.metrics.commits += 1;
        Ok(StepOutcome::Committed)
    }

    // ------------------------------------------------------------------
    // Grant accounting
    // ------------------------------------------------------------------

    /// Records one engine action at the current step: in the event log
    /// and, armed, in the sentinel's tail.
    fn log(&mut self, event: Event) {
        #[cfg(feature = "invariants")]
        self.sentinel.observe(self.metrics.steps, &event);
        self.events.record(self.metrics.steps, event);
    }

    /// Accounts for a grant the kernel completed.
    fn note_grant(&mut self, id: TxnId, entity: EntityId, mode: LockMode) {
        self.log(Event::Granted { txn: id, entity, mode });
        self.metrics.ops_executed += 1;
        self.update_peak_copies_for(id);
    }

    /// Accounts for the waiters a release or cancellation promoted.
    fn note_promoted(&mut self, release: &Release) {
        for h in &release.promoted {
            if let Some(since) = self.blocked_since.remove(&h.txn) {
                self.metrics.grant_latency.record(self.metrics.steps.saturating_sub(since));
            }
            self.note_grant(h.txn, release.entity, h.mode);
        }
    }

    /// Refreshes the cached copy count of `id` and bumps the peak metric.
    fn update_peak_copies_for(&mut self, id: TxnId) {
        let now = self.kernel.txn(id).map(TxnRuntime::copies).unwrap_or(0);
        let prev = self.copies_cache.insert(id, now).unwrap_or(0);
        self.copies_total = self.copies_total + now - prev.min(self.copies_total);
        if self.copies_total > self.metrics.peak_copies {
            self.metrics.peak_copies = self.copies_total;
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The database.
    pub fn store(&self) -> &GlobalStore {
        self.kernel.store()
    }

    /// Mutable database access (for scenario setup).
    pub fn store_mut(&mut self) -> &mut GlobalStore {
        self.kernel.store_mut()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The engine configuration.
    pub fn config(&self) -> &SystemConfig {
        self.kernel.config()
    }

    /// The lock table.
    pub fn table(&self) -> &LockTable {
        self.kernel.table()
    }

    /// The concurrency graph.
    pub fn graph(&self) -> &WaitsForGraph {
        self.kernel.graph()
    }

    /// Runtime state of one transaction.
    pub fn txn(&self, id: TxnId) -> Option<&TxnRuntime> {
        self.kernel.txn(id)
    }

    /// All transaction ids, ascending.
    pub fn txn_ids(&self) -> Vec<TxnId> {
        self.kernel.txns().keys().copied().collect()
    }

    /// The record of every resolved deadlock, oldest first.
    pub fn history(&self) -> &[Arc<DeadlockRecord>] {
        &self.history
    }

    /// Engine-wide invariant check, used liberally by the test suites:
    /// [`Kernel::check_invariants`].
    pub fn check_invariants(&self) -> Result<(), String> {
        self.kernel.check_invariants()
    }

    // ------------------------------------------------------------------
    // Runtime invariant sentinel (feature `invariants`)
    // ------------------------------------------------------------------

    /// Re-proves the structural invariants at a quiet point; panics with
    /// the recent event trace on violation. See [`crate::sentinel`].
    #[cfg(feature = "invariants")]
    fn sentinel_verify(&self, context: &str) {
        if let Err(violation) = self.graph().check_consistent() {
            self.sentinel.fail(context, &violation);
        }
        if let Err(violation) = self.check_invariants() {
            self.sentinel.fail(context, &violation);
        }
        // Theorem 1: an exclusive-only waits-for graph is a forest at
        // every quiet point (all cycles already resolved). Holds only
        // under the paper's grant rule: the fair queue gives waiters arcs
        // to queued predecessors as well as holders, so a chain of
        // exclusive waiters is legitimately not a forest there.
        if self.sentinel.exclusive_only()
            && self.config().grant_policy == GrantPolicy::Barging
            && !self.graph().is_forest()
        {
            self.sentinel
                .fail(context, "exclusive-only waits-for graph is not a forest (Theorem 1)");
        }
    }

    /// Runs the sentinel's full check on demand (test entry point).
    ///
    /// Panics with the recent event trace if any invariant is violated.
    #[cfg(feature = "invariants")]
    pub fn sentinel_assert(&self) {
        self.sentinel_verify("explicit check");
    }

    /// Mutable access to the waits-for graph, bypassing the engine —
    /// exists only so negative tests can corrupt the graph (e.g. with
    /// [`WaitsForGraph::forge_arc_unchecked`]) and prove
    /// [`Self::sentinel_assert`] catches it. Compiled out of production
    /// builds: only tests and `invariants` builds can reach it.
    #[cfg(any(test, feature = "invariants"))]
    pub fn graph_mut_unchecked(&mut self) -> &mut WaitsForGraph {
        &mut self.kernel.wfg
    }

    /// Plants the unsound-reuse mutant in every admitted Repair runtime:
    /// replay will trust taped `Read` outcomes without re-checking them
    /// against live values. Exists only so the equivalence battery can
    /// prove the differential oracle catches a repair that skips a
    /// conflicting suffix op; a no-op under other strategies.
    #[doc(hidden)]
    pub fn plant_repair_mutant(&mut self) {
        for rt in self.kernel.txns.values_mut() {
            rt.plant_unsound_skip_taint();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StrategyKind, VictimPolicyKind};
    use crate::scheduler::{RoundRobin, Scripted};
    use pr_model::{Expr, LockIndex, ProgramBuilder, Value, VarId};

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }
    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    fn transfer(from: u32, to: u32, amount: i64) -> pr_model::TransactionProgram {
        let v = VarId::new(0);
        ProgramBuilder::new()
            .lock_exclusive(e(from))
            .lock_exclusive(e(to))
            .read(e(from), v)
            .assign(v, Expr::sub(Expr::var(v), Expr::lit(amount)))
            .write(e(from), Expr::var(v))
            .read(e(to), v)
            .assign(v, Expr::add(Expr::var(v), Expr::lit(amount)))
            .write(e(to), Expr::var(v))
            .unlock(e(from))
            .unlock(e(to))
            .build_unchecked()
    }

    fn system(strategy: StrategyKind, victim: VictimPolicyKind) -> System {
        let store = GlobalStore::with_entities(8, Value::new(100));
        System::new(store, SystemConfig::new(strategy, victim))
    }

    #[test]
    fn single_transaction_runs_to_completion() {
        let mut sys = system(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        sys.admit_unchecked(transfer(0, 1, 30));
        sys.run(&mut RoundRobin::new()).unwrap();
        assert!(sys.all_committed());
        assert_eq!(sys.store().read(e(0)).unwrap(), Value::new(70));
        assert_eq!(sys.store().read(e(1)).unwrap(), Value::new(130));
        assert_eq!(sys.metrics().deadlocks, 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn non_conflicting_transactions_interleave_freely() {
        let mut sys = system(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        sys.admit_unchecked(transfer(0, 1, 10));
        sys.admit_unchecked(transfer(2, 3, 20));
        sys.run(&mut RoundRobin::new()).unwrap();
        assert!(sys.all_committed());
        assert_eq!(sys.store().total(), Value::new(800));
        assert_eq!(sys.metrics().waits, 0);
    }

    #[test]
    fn conflicting_transactions_serialize_via_waiting() {
        let mut sys = system(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        sys.admit_unchecked(transfer(0, 1, 10));
        sys.admit_unchecked(transfer(0, 1, 5));
        sys.run(&mut RoundRobin::new()).unwrap();
        assert!(sys.all_committed());
        assert_eq!(sys.store().read(e(0)).unwrap(), Value::new(85));
        assert_eq!(sys.store().read(e(1)).unwrap(), Value::new(115));
        assert!(sys.metrics().waits > 0);
        assert_eq!(sys.metrics().deadlocks, 0);
    }

    /// The classic two-transaction deadlock: T1 locks a then b; T2 locks
    /// b then a. Interleaved so both first locks are granted.
    fn deadlocking_pair(strategy: StrategyKind, victim: VictimPolicyKind) -> System {
        let mut sys = system(strategy, victim);
        sys.admit_unchecked(transfer(0, 1, 10)); // T1: a then b
        sys.admit_unchecked(transfer(1, 0, 5)); // T2: b then a
        sys
    }

    #[test]
    fn deadlock_is_detected_and_resolved_mcs() {
        for victim in VictimPolicyKind::ALL {
            let mut sys = deadlocking_pair(StrategyKind::Mcs, victim);
            // Interleave: T1 locks a, T2 locks b, T1 requests b (waits),
            // T2 requests a (deadlock).
            let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
            sys.run(&mut sched).unwrap_or_else(|e| panic!("{victim:?}: {e}"));
            assert!(sys.all_committed());
            assert_eq!(sys.metrics().deadlocks, 1, "{victim:?}");
            assert!(sys.metrics().rollbacks() >= 1);
            // Money is conserved regardless of policy.
            assert_eq!(
                sys.store().read(e(0)).unwrap() + sys.store().read(e(1)).unwrap(),
                Value::new(200),
                "{victim:?}"
            );
            sys.check_invariants().unwrap();
        }
    }

    #[test]
    fn deadlock_resolution_works_for_all_strategies() {
        for strategy in StrategyKind::ALL {
            let mut sys = deadlocking_pair(strategy, VictimPolicyKind::PartialOrder);
            let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
            sys.run(&mut sched).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert!(sys.all_committed(), "{strategy:?}");
            assert_eq!(
                sys.store().read(e(0)).unwrap() + sys.store().read(e(1)).unwrap(),
                Value::new(200),
                "{strategy:?}"
            );
            sys.check_invariants().unwrap();
        }
    }

    #[test]
    fn repair_matches_mcs_outcome_and_reconciles_its_ledgers() {
        // The same deadlocking schedule under MCS and Repair: identical
        // victim choice, rollback depth, and final database — Repair only
        // changes how the suffix is re-executed, and its ledgers must
        // account for every lost state.
        let run = |strategy| {
            // T2's rollback suffix is its first lock plus six pads: the
            // lock must be re-acquired (replayed), the pads reuse.
            let p1 = ProgramBuilder::new()
                .lock_exclusive(e(0))
                .write_const(e(0), 7)
                .lock_exclusive(e(1))
                .unlock(e(0))
                .unlock(e(1))
                .build_unchecked();
            let p2 = ProgramBuilder::new()
                .lock_exclusive(e(1))
                .pad(6)
                .lock_exclusive(e(0))
                .unlock(e(1))
                .unlock(e(0))
                .build_unchecked();
            let mut sys = system(strategy, VictimPolicyKind::PartialOrder);
            sys.admit_unchecked(p1);
            sys.admit_unchecked(p2);
            for id in [t(1), t(1), t(2), t(2), t(2), t(2), t(2), t(2), t(2), t(1), t(2)] {
                sys.step(id).unwrap();
            }
            sys.run(&mut RoundRobin::new()).unwrap();
            assert!(sys.all_committed());
            sys
        };
        let mcs = run(StrategyKind::Mcs);
        let rep = run(StrategyKind::Repair);
        assert_eq!(
            rep.store().read(e(0)).unwrap(),
            mcs.store().read(e(0)).unwrap(),
            "same schedule, same final values"
        );
        assert_eq!(rep.store().read(e(1)).unwrap(), mcs.store().read(e(1)).unwrap());
        let (m_rep, m_mcs) = (rep.metrics(), mcs.metrics());
        assert_eq!(m_rep.states_lost, m_mcs.states_lost, "planner-identical to MCS");
        assert_eq!(m_rep.partial_rollbacks, m_mcs.partial_rollbacks);
        assert_eq!(m_rep.total_rollbacks, m_mcs.total_rollbacks);
        // Repair-only accounting: every repair records its suffix, the
        // suffix mass is exactly the states lost, and each re-walked op is
        // either replayed or reused.
        assert_eq!(m_rep.repairs, m_rep.rollbacks());
        assert_eq!(m_rep.repair_suffix.sum(), m_rep.states_lost);
        assert_eq!(m_rep.ops_replayed + m_rep.ops_reused, m_rep.states_lost);
        assert!(m_rep.ops_reused > 0, "an untouched suffix op should be reused");
        assert_eq!(m_mcs.repairs, 0);
        assert_eq!((m_mcs.ops_replayed, m_mcs.ops_reused), (0, 0));
    }

    #[test]
    fn total_strategy_always_restarts_from_zero() {
        let mut sys = deadlocking_pair(StrategyKind::Total, VictimPolicyKind::MinCost);
        let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
        sys.run(&mut sched).unwrap();
        assert_eq!(sys.metrics().partial_rollbacks, 0);
        assert!(sys.metrics().total_rollbacks >= 1);
    }

    #[test]
    fn partial_rollback_preserves_earlier_work() {
        // T1: locks a, pads, locks b — partial rollback of T1 to release b
        // should not touch a.
        // Use a 3-txn chain to force a deadlock where T1 releases only b.
        let p1 = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .write_const(e(0), 7)
            .lock_exclusive(e(1))
            .unlock(e(0))
            .unlock(e(1))
            .build_unchecked();
        let p2 = ProgramBuilder::new()
            .lock_exclusive(e(1))
            .pad(6)
            .lock_exclusive(e(0))
            .unlock(e(1))
            .unlock(e(0))
            .build_unchecked();
        let mut sys = system(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        sys.admit_unchecked(p1);
        sys.admit_unchecked(p2);
        // T1 locks a, writes; T2 locks b and pads; T1 requests b → waits;
        // T2 requests a → deadlock. T1 must release a (T2 wants a): roll
        // T1 to lock state 0, cost 2 (it waits from state 2). T2 must
        // release b: roll T2 to lock state 0, cost 7. T1 is cheaper.
        let mut sched =
            Scripted::new(vec![t(1), t(1), t(2), t(2), t(2), t(2), t(2), t(2), t(2), t(1), t(2)]);
        sys.run(&mut sched).unwrap();
        assert!(sys.all_committed());
        let DeadlockRecord { event, plan, .. } = &*sys.history()[0];
        assert_eq!(event.causer, t(2));
        assert_eq!(plan.rollbacks.len(), 1);
        assert_eq!(plan.rollbacks[0].txn, t(1));
        assert_eq!(plan.total_cost, 2);
        // T1's write to a was undone and re-executed; final value holds.
        assert_eq!(sys.store().read(e(0)).unwrap(), Value::new(7));
    }

    #[test]
    fn shared_locks_allow_concurrent_readers() {
        let reader = |ent: u32| {
            ProgramBuilder::new()
                .lock_shared(e(ent))
                .read(e(ent), VarId::new(0))
                .unlock(e(ent))
                .build_unchecked()
        };
        let mut sys = system(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        sys.admit_unchecked(reader(0));
        sys.admit_unchecked(reader(0));
        sys.admit_unchecked(reader(0));
        sys.run(&mut RoundRobin::new()).unwrap();
        assert!(sys.all_committed());
        assert_eq!(sys.metrics().waits, 0);
    }

    /// Figure 3(c)-style multi-cycle deadlock: T2 and T3 hold shared locks
    /// on f and each waits on T1; T1's exclusive request on f closes two
    /// cycles at once.
    #[test]
    fn multi_cycle_deadlock_from_shared_holders() {
        let p1 = ProgramBuilder::new()
            .lock_exclusive(e(0)) // a
            .lock_exclusive(e(1)) // b
            .lock_exclusive(e(5)) // f — the deadlocking request
            .unlock(e(0))
            .unlock(e(1))
            .unlock(e(5))
            .build_unchecked();
        let p2 = ProgramBuilder::new()
            .lock_shared(e(5))
            .pad(2)
            .lock_shared(e(0)) // waits on T1
            .unlock(e(5))
            .unlock(e(0))
            .build_unchecked();
        let p3 = ProgramBuilder::new()
            .lock_shared(e(5))
            .pad(4)
            .lock_shared(e(1)) // waits on T1
            .unlock(e(5))
            .unlock(e(1))
            .build_unchecked();
        let mut sys = system(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        sys.admit_unchecked(p1);
        sys.admit_unchecked(p2);
        sys.admit_unchecked(p3);
        // T1 locks a, b; T2 locks f shared, pads, requests a → waits;
        // T3 locks f shared, pads, requests b → waits; T1 requests f →
        // two cycles close.
        let mut sched = Scripted::new(vec![
            t(1),
            t(1), // a, b
            t(2),
            t(2),
            t(2),
            t(2), // f, pads, request a
            t(3),
            t(3),
            t(3),
            t(3),
            t(3),
            t(3), // f, pads, request b
            t(1), // request f → deadlock
        ]);
        sys.run(&mut sched).unwrap();
        assert!(sys.all_committed());
        assert_eq!(sys.metrics().deadlocks, 1);
        let event = &sys.history()[0].event;
        assert_eq!(event.causer, t(1));
        assert_eq!(event.cycles.len(), 2, "both cycles pass through T1");
        sys.check_invariants().unwrap();
    }

    #[test]
    fn sdg_overshoot_is_recorded_when_states_are_undefined() {
        // T1 writes a, locks b, locks c, rewrites a — destroying lock
        // states 1 and 2 — then requests d. A deadlock needing T1 to
        // release c (lock state 2) must overshoot to lock state 0.
        let p1 = ProgramBuilder::new()
            .lock_exclusive(e(0)) // a: lock state 0
            .write_const(e(0), 1)
            .lock_exclusive(e(1)) // b: lock state 1
            .lock_exclusive(e(2)) // c: lock state 2
            .write_const(e(0), 2) // destroys states 1, 2
            .lock_exclusive(e(3)) // d — will deadlock
            .unlock(e(0))
            .unlock(e(1))
            .unlock(e(2))
            .unlock(e(3))
            .build_unchecked();
        let p2 = ProgramBuilder::new()
            .lock_exclusive(e(3))
            .pad(20) // expensive to roll back
            .lock_exclusive(e(2)) // waits on T1
            .unlock(e(3))
            .unlock(e(2))
            .build_unchecked();
        let mut sys = system(StrategyKind::Sdg, VictimPolicyKind::MinCost);
        let id1 = sys.admit_unchecked(p1);
        let id2 = sys.admit_unchecked(p2);
        sys.step(id2).unwrap(); // T2 locks d
        for _ in 0..5 {
            sys.step(id1).unwrap(); // T1 up to rewrite of a
        }
        for _ in 0..20 {
            sys.step(id2).unwrap(); // T2 pads
        }
        // T1 requests d → waits on T2 (no cycle yet).
        assert!(matches!(sys.step(id1).unwrap(), StepOutcome::Blocked { .. }));
        // T2 requests c → deadlock. T1's ideal release of c is lock state
        // 2 (cost 3: states 5→... T1 at state 5, lock state 2 at state 3 →
        // cost 2)… the SDG fallback forces lock state 0, cost 5.
        // T2's alternative: release d at lock state 0, cost 22.
        let out = sys.step(id2).unwrap();
        assert!(matches!(out, StepOutcome::DeadlockResolved { .. }));
        assert!(sys.metrics().rollback_overshoot > 0, "SDG had to overshoot");
        let plan = &sys.history()[0].plan;
        assert_eq!(plan.rollbacks[0].txn, id1);
        assert_eq!(plan.rollbacks[0].target, LockIndex::ZERO);
        sys.run(&mut RoundRobin::new()).unwrap();
        assert!(sys.all_committed());
    }

    #[test]
    fn stuck_is_impossible_under_heavy_conflict() {
        // Ten transfers over two accounts in both directions; every
        // strategy/policy combination must drain the system.
        for strategy in StrategyKind::ALL {
            for victim in VictimPolicyKind::ALL {
                let mut sys = system(strategy, victim);
                for i in 0..10 {
                    if i % 2 == 0 {
                        sys.admit_unchecked(transfer(0, 1, 1));
                    } else {
                        sys.admit_unchecked(transfer(1, 0, 1));
                    }
                }
                sys.run(&mut RoundRobin::new())
                    .unwrap_or_else(|err| panic!("{strategy:?}/{victim:?}: {err}"));
                assert!(sys.all_committed());
                assert_eq!(
                    sys.store().read(e(0)).unwrap() + sys.store().read(e(1)).unwrap(),
                    Value::new(200)
                );
                sys.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn bounded_strategy_resolves_deadlocks_and_tracks_overshoot() {
        for budget in [1u32, 2, 8] {
            let mut sys =
                deadlocking_pair(StrategyKind::Bounded(budget), VictimPolicyKind::PartialOrder);
            let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
            sys.run(&mut sched).unwrap_or_else(|e| panic!("budget {budget}: {e}"));
            assert!(sys.all_committed());
            assert_eq!(
                sys.store().read(e(0)).unwrap() + sys.store().read(e(1)).unwrap(),
                Value::new(200),
                "budget {budget}"
            );
            sys.check_invariants().unwrap();
        }
    }

    #[test]
    fn bounded_with_large_budget_matches_mcs_exactly() {
        // With a budget no workload exceeds, Bounded must behave exactly
        // like unbounded MCS: same metrics, same final state.
        let run = |strategy: StrategyKind| {
            let mut sys = system(strategy, VictimPolicyKind::PartialOrder);
            for i in 0..8 {
                if i % 2 == 0 {
                    sys.admit_unchecked(transfer(0, 1, 3));
                } else {
                    sys.admit_unchecked(transfer(1, 0, 2));
                }
            }
            sys.run(&mut RoundRobin::new()).unwrap();
            (sys.metrics().clone(), sys.store().snapshot())
        };
        let (m1, s1) = run(StrategyKind::Mcs);
        let (m2, s2) = run(StrategyKind::Bounded(1_000));
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn event_log_narrates_a_deadlock() {
        let mut sys = deadlocking_pair(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
        sys.enable_event_log(1_000);
        let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
        sys.run(&mut sched).unwrap();
        let rendered = sys.events().render();
        assert!(rendered.contains("granted X-lock"));
        assert!(rendered.contains("waits for"));
        assert!(rendered.contains("deadlock:"));
        assert!(rendered.contains("rolled back"));
        assert!(rendered.contains("committed"));
        // Event kinds agree with the metrics.
        use crate::event::Event;
        let count = |pred: fn(&Event) -> bool| {
            sys.events().events().iter().filter(|(_, e)| pred(e)).count() as u64
        };
        assert_eq!(count(|e| matches!(e, Event::Committed { .. })), sys.metrics().commits);
        assert_eq!(count(|e| matches!(e, Event::DeadlockDetected { .. })), sys.metrics().deadlocks);
        assert_eq!(count(|e| matches!(e, Event::RolledBack { .. })), sys.metrics().rollbacks());
    }

    #[test]
    fn event_log_is_free_when_disabled() {
        let mut sys = deadlocking_pair(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
        let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
        sys.run(&mut sched).unwrap();
        assert!(sys.events().events().is_empty());
    }

    #[test]
    fn admit_rejects_invalid_programs() {
        let bad = pr_model::TransactionProgram::from_parts(vec![Op::Unlock(e(0))], vec![]);
        let mut sys = system(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        assert!(sys.admit(bad).is_err());
    }

    /// The sentinel must stay quiet through every strategy/policy
    /// combination on a genuinely deadlocking workload — the positive half
    /// of the acceptance criterion.
    #[cfg(feature = "invariants")]
    #[test]
    fn sentinel_stays_quiet_through_deadlock_resolution() {
        for strategy in StrategyKind::ALL {
            for victim in VictimPolicyKind::ALL {
                let mut sys = deadlocking_pair(strategy, victim);
                let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
                sys.run(&mut sched).unwrap_or_else(|e| panic!("{strategy:?}/{victim:?}: {e}"));
                assert!(sys.all_committed());
                sys.sentinel_assert();
            }
        }
    }

    /// The negative half: a forged back-edge in the waits-for graph (an
    /// arc with no matching wait record) must trip the sentinel, and the
    /// panic must carry the event trace.
    #[cfg(feature = "invariants")]
    #[test]
    fn sentinel_catches_a_forged_back_edge() {
        let mut sys = deadlocking_pair(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
        sys.step(t(1)).unwrap(); // T1 locks a
        sys.step(t(2)).unwrap(); // T2 locks b
        assert!(matches!(sys.step(t(1)).unwrap(), StepOutcome::Blocked { .. })); // T1 waits
        sys.graph_mut_unchecked().forge_arc_unchecked(t(1), t(2));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.sentinel_assert();
        }))
        .expect_err("the forged arc must trip the sentinel");
        let msg = err.downcast_ref::<String>().expect("panic carries the report");
        assert!(msg.contains("invariant sentinel tripped"), "{msg}");
        assert!(msg.contains("T1 -> T2"), "{msg}");
        assert!(msg.contains("engine events"), "trace attached: {msg}");
    }

    #[test]
    fn step_errors_on_blocked_or_unknown_txn() {
        let mut sys = deadlocking_pair(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        assert!(matches!(sys.step(t(9)), Err(EngineError::NoSuchTxn(_))));
        sys.step(t(1)).unwrap(); // T1 locks a
        sys.step(t(2)).unwrap(); // T2 locks b
        assert!(matches!(sys.step(t(1)).unwrap(), StepOutcome::Blocked { .. }));
        assert!(matches!(sys.step(t(1)), Err(EngineError::NotRunnable(_))));
    }

    /// A reader, a blocked writer, then a late reader. The per-policy
    /// systems used by the grant-policy tests below.
    fn reader_writer_reader(policy: pr_lock::GrantPolicy) -> System {
        let a = e(0);
        let reader = || ProgramBuilder::new().lock_shared(a).pad(2).unlock(a).build_unchecked();
        let writer = ProgramBuilder::new().lock_exclusive(a).pad(1).unlock(a).build_unchecked();
        let store = GlobalStore::with_entities(1, Value::new(0));
        let config = SystemConfig::default().with_grant_policy(policy);
        let mut sys = System::new(store, config);
        sys.admit_unchecked(reader()); // T1
        sys.admit_unchecked(writer); // T2
        sys.admit_unchecked(reader()); // T3
        sys.step(t(1)).unwrap(); // S-lock granted
        assert!(matches!(sys.step(t(2)).unwrap(), StepOutcome::Blocked { .. }));
        sys
    }

    /// Regression for the DESIGN §7 stale-arc hazard: when a shared
    /// request barges past a blocked exclusive waiter, the waiter's arcs
    /// must be refreshed to include the new holder.
    #[test]
    fn barging_grant_refreshes_blocked_writer_arcs() {
        let mut sys = reader_writer_reader(pr_lock::GrantPolicy::Barging);
        let (entity, blockers) = sys.graph().wait_of(t(2)).expect("writer waits");
        assert_eq!((entity, blockers), (e(0), vec![t(1)]));
        // T3's shared request barges past the blocked writer…
        assert!(matches!(sys.step(t(3)).unwrap(), StepOutcome::Progressed));
        assert!(sys.table().held_by(t(3), e(0)).is_some());
        // …and the writer's arcs now include the new holder.
        let (_, blockers) = sys.graph().wait_of(t(2)).expect("writer still waits");
        assert_eq!(blockers, vec![t(1), t(3)]);
        sys.check_invariants().unwrap();
        sys.run(&mut RoundRobin::new()).unwrap();
        assert!(sys.all_committed());
    }

    /// Under the fair queue the late reader queues behind the writer
    /// instead of barging, with its arc pointing at the queued writer.
    #[test]
    fn fair_queue_blocks_late_reader_behind_writer() {
        let mut sys = reader_writer_reader(pr_lock::GrantPolicy::FairQueue);
        assert!(matches!(sys.step(t(3)).unwrap(), StepOutcome::Blocked { .. }));
        assert!(sys.table().held_by(t(3), e(0)).is_none());
        let (entity, blockers) = sys.graph().wait_of(t(3)).expect("reader waits");
        assert_eq!((entity, blockers), (e(0), vec![t(2)]));
        sys.check_invariants().unwrap();
        sys.run(&mut RoundRobin::new()).unwrap();
        assert!(sys.all_committed());
        // The writer was promoted alone, ahead of the late reader.
        assert!(sys.metrics().grant_latency.count() >= 2);
        sys.check_invariants().unwrap();
    }

    /// Deadlocks still resolve under the fair queue, across strategies.
    #[test]
    fn deadlock_resolution_works_under_fair_queue() {
        for strategy in StrategyKind::ALL {
            let store = GlobalStore::with_entities(8, Value::new(100));
            let config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder)
                .with_grant_policy(pr_lock::GrantPolicy::FairQueue);
            let mut sys = System::new(store, config);
            sys.admit_unchecked(transfer(0, 1, 10));
            sys.admit_unchecked(transfer(1, 0, 5));
            let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
            sys.run(&mut sched).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert!(sys.all_committed(), "{strategy:?}");
            assert_eq!(sys.metrics().deadlocks, 1, "{strategy:?}");
            assert_eq!(
                sys.store().read(e(0)).unwrap() + sys.store().read(e(1)).unwrap(),
                Value::new(200),
                "{strategy:?}"
            );
            sys.check_invariants().unwrap();
        }
    }

    /// The latency/contention instrumentation populates on a contended run.
    #[test]
    fn contention_metrics_populate() {
        let mut sys = deadlocking_pair(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
        let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
        sys.run(&mut sched).unwrap();
        assert!(sys.all_committed());
        let m = sys.metrics();
        assert!(m.grant_latency.count() >= 1, "a promoted waiter was recorded");
        assert!(m.grant_latency.max() >= 1);
        assert_eq!(m.resolution_cost.count(), m.deadlocks);
        assert!(m.resolution_cost.sum() >= 1, "the deadlock cost something");
        assert_eq!(m.max_queue_depth(), 1);
        assert_eq!(m.deadlocks, 1);
    }

    fn ordered_system(strategy: StrategyKind) -> System {
        let store = GlobalStore::with_entities(8, Value::new(100));
        let config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder)
            .with_grant_policy(GrantPolicy::Ordered);
        System::new(store, config)
    }

    /// Covered workload under `Ordered`: waits happen but detection is
    /// skipped on every one of them, and nothing deadlocks.
    #[test]
    fn certified_workload_skips_detection_under_ordered() {
        for strategy in StrategyKind::ALL {
            let mut sys = ordered_system(strategy);
            sys.admit_unchecked(transfer(0, 1, 10));
            sys.admit_unchecked(transfer(0, 1, 5));
            sys.admit_unchecked(transfer(1, 2, 7));
            let covered = sys.install_certificate(EntityOrder::identity(8)).unwrap();
            assert_eq!(covered, 3, "{strategy:?}");
            sys.run(&mut RoundRobin::new()).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert!(sys.all_committed(), "{strategy:?}");
            let m = sys.metrics();
            assert!(m.waits > 0, "{strategy:?}: the workload must actually contend");
            assert_eq!(m.certified_waits, m.waits, "{strategy:?}: every wait skips detection");
            assert_eq!(m.deadlocks, 0, "{strategy:?}");
            assert_eq!(m.rollbacks(), 0, "{strategy:?}");
            sys.check_invariants().unwrap();
        }
    }

    /// Planted mutant (a): an order that violates one program's lock
    /// sequence. The strict installer must reject it and install nothing.
    #[test]
    fn strict_install_rejects_order_violating_a_program() {
        let mut sys = ordered_system(StrategyKind::Mcs);
        sys.admit_unchecked(transfer(0, 1, 10));
        sys.admit_unchecked(transfer(2, 1, 5)); // descends under identity
        let order = EntityOrder::identity(8);
        let err = sys.install_certificate(order).unwrap_err();
        assert_eq!(
            err,
            EngineError::CertificateViolation { txn: t(2), pc: 1, entity: e(1) },
            "the violating request is named precisely"
        );
        assert!(sys.certified_order().is_none(), "a rejected certificate installs nothing");
        assert!(sys.covered_txns().is_empty());
    }

    /// Planted mutant (b): a "certificate" for a known-cyclic workload.
    /// No total order covers both programs of an inverted pair, so any
    /// order the forger picks is rejected on one of them.
    #[test]
    fn strict_install_rejects_any_order_for_cyclic_workload() {
        for forged in [vec![e(0), e(1)], vec![e(1), e(0)]] {
            let mut sys = ordered_system(StrategyKind::Mcs);
            sys.admit_unchecked(transfer(0, 1, 10));
            sys.admit_unchecked(transfer(1, 0, 5));
            let order = EntityOrder::new(forged).unwrap();
            assert!(matches!(
                sys.install_certificate(order),
                Err(EngineError::CertificateViolation { .. })
            ));
        }
    }

    /// The permissive installer covers what it can; uncovered
    /// transactions still go through full detection, so a deadlock they
    /// cause is resolved by partial rollback exactly as under the other
    /// policies.
    #[test]
    fn uncovered_txns_fall_back_to_partial_rollback_under_ordered() {
        let mut sys = ordered_system(StrategyKind::Mcs);
        sys.admit_unchecked(transfer(0, 1, 10)); // covered
        sys.admit_unchecked(transfer(1, 0, 5)); // b then a: uncovered
        let covered = sys.install_order(EntityOrder::identity(8));
        assert_eq!(covered, 1);
        assert_eq!(sys.covered_txns(), vec![t(1)]);
        let mut sched = Scripted::new(vec![t(1), t(2), t(1), t(2)]);
        sys.run(&mut sched).unwrap();
        assert!(sys.all_committed());
        assert_eq!(sys.metrics().deadlocks, 1, "the uncovered cycle is detected and resolved");
        assert!(sys.metrics().rollbacks() >= 1);
        assert_eq!(
            sys.store().read(e(0)).unwrap() + sys.store().read(e(1)).unwrap(),
            Value::new(200)
        );
        sys.check_invariants().unwrap();
    }

    /// Coverage follows admissions that arrive after the order is
    /// installed (the open-arrival stress harness admits incrementally).
    #[test]
    fn coverage_extends_to_later_admissions() {
        let mut sys = ordered_system(StrategyKind::Mcs);
        assert_eq!(sys.install_order(EntityOrder::identity(8)), 0);
        sys.admit_unchecked(transfer(0, 1, 10));
        sys.admit_unchecked(transfer(1, 0, 5));
        assert_eq!(sys.covered_txns(), vec![t(1)], "only the ascending program is covered");
    }
}
