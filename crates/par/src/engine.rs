//! The multi-threaded executor: worker-per-transaction over the lock-word
//! fast path + sharded lock table, with concurrent deadlock detection and
//! partial rollback.
//!
//! ## Execution model
//!
//! A [`Session`] owns `threads − 1` helper threads for its whole
//! lifetime; the thread that calls [`Session::execute`] is worker 0. Each
//! batch gets a fresh core — slots, shards, waits-for graph, history —
//! over the session's persistent [`EntitySlab`], and `min(threads, n)`
//! workers run it: the caller plus that many helpers less one, woken for
//! this batch. A worker starts
//! claiming transactions as soon as it wakes; there is no start barrier.
//! Each claims a transaction, holds its slot mutex, and executes its
//! operations exactly as the deterministic engine does — same runtime
//! calls, same lock-table semantics, same §4 rollback procedure — so the
//! two engines are behaviourally interchangeable and the differential
//! oracle can compare them. In-flight transactions never exceed the worker
//! count, so every lock holder and waiter always has a live thread behind
//! it. [`run_parallel`] is a one-batch session. A worker that panics fails
//! the batch with [`ParError::Panicked`] and stops its siblings, rather
//! than leaving them waiting on a transaction nobody runs.
//!
//! ## The grant fast path
//!
//! An uncontended lock request never touches a shard mutex: it CASes the
//! entity's lock word in the [`EntitySlab`] and
//! is done. Contention, a full reader registry, or an existing wait queue
//! (the word's `INFLATED` flag) route the request through the classic
//! shard-mutex path, which first *inflates* the entity — transferring any
//! fast-path holders into the shard's [`LockTable`](pr_lock::LockTable)
//! so waits, promotions, and partial rollback see the true holder set.
//! The entity deflates back to the fast path when its table entry goes
//! idle. See [`crate::word`] for the protocol and its invariant.
//!
//! ## Blocking and waking
//!
//! A blocked worker registers its waits-for arcs and detects cycles
//! *atomically* (see [`EpochGraph`]), then parks on its slot. It is woken
//! only to run: by the releaser that promoted it or the resolver that
//! rolled it back. Re-pointing its arcs at new blockers is silent, since
//! a re-point never closes a cycle (see [`EpochGraph::queue_changed`]).
//! Wakes are lock-free ([`TxnSlot::wake`]) and therefore never dropped.
//! A parked worker has no poll timeout: every cycle is closed by a wait,
//! and the waiter that closes it keeps resolving until no cycle passes
//! through it, so nobody else needs to re-detect. A worker that fails the
//! batch wakes every slot, so its parked siblings stop at once. A worker
//! parked past the watchdog limit fails the run with [`ParError::Stuck`]
//! rather than hanging.
//!
//! ## Resolution
//!
//! The worker whose wait closed a cycle resolves it. It blocking-locks
//! every member's slot, its own included, in ascending id order
//! ([`capture`]; see [`crate::slot`] for why that cannot deadlock). It
//! keeps its own guard only when its id is the lowest. Holding them all,
//! it checks it is still blocked, re-detects, and plans only if the fresh
//! cycles' members are all captured; otherwise it releases everything and
//! retries at once with the fresh members. It then re-validates the
//! detection epoch, plans victims with the same `plan_resolution` the
//! deterministic engine uses (over a borrowed
//! [`RuntimeView`](pr_core::RuntimeView) assembled from the held guards),
//! and executes the rollbacks. Holding every member's slot freezes the
//! cycle: member promotions would need a member's release, which only the
//! members' own (captured) threads or this resolver could perform. A
//! competing resolver simply waits its turn on the lowest contested slot;
//! no resolver sleeps.

use crate::history::{AccessHistory, CommittedAccess};
use crate::outcome::{ParConfig, ParError, ParOutcome, TxnStats};
use crate::pool::{Job, Pool};
use crate::session::Session;
use crate::shard::Shards;
use crate::slot::{capture, SlotState, TxnSlot};
use crate::wfg::EpochGraph;
use crate::word::{EntitySlab, FastPath};
use pr_core::deadlock::{plan_resolution, DeadlockEvent};
use pr_core::runtime::{Phase, TxnRuntime};
use pr_core::Metrics;
use pr_graph::{CandidateRollback, Cycle};
use pr_lock::RequestOutcome;
use pr_model::{EntityId, LockMode, Op, TransactionProgram, TxnId, Value};
use pr_storage::GlobalStore;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a blocked worker stays parked without a wake before it fails
/// the run with [`ParError::Stuck`]: a liveness bug becomes a failed run
/// instead of a hang.
const WATCHDOG: Duration = Duration::from_secs(10);

/// One batch's shared state, handed to every worker of the batch.
struct Core {
    shards: Shards,
    /// Shared with the session: the slab outlives each batch and carries
    /// entity values — and the fast-path counters — across batches.
    slab: Arc<EntitySlab>,
    slots: Vec<TxnSlot>,
    wfg: EpochGraph,
    history: AccessHistory,
    shared: Mutex<Metrics>,
    config: ParConfig,
    abort: AtomicBool,
    error: Mutex<Option<ParError>>,
    next: AtomicUsize,
    /// Global id of the transaction before this batch's first: slot `i`
    /// runs transaction `txn_base + i + 1`.
    txn_base: u32,
    /// Time origin of the worker spans below.
    epoch: Instant,
    /// `(begin, end)` of every worker that committed at least one
    /// transaction, measured from `epoch`.
    spans: Mutex<Vec<(Duration, Duration)>>,
}

impl Job for Core {
    /// Timing excludes workers that never claimed a transaction: on an
    /// oversubscribed box a helper can wake long after its siblings drained
    /// the whole batch, and its empty span would measure scheduler wake
    /// latency, not execution.
    fn work(&self) {
        let begin = self.epoch.elapsed();
        let mut local = Metrics::default();
        let mut acc = Vec::new();
        self.worker(&mut local, &mut acc);
        self.history.commit(acc);
        let worked = local.commits > 0;
        self.shared.lock().expect("metrics mutex poisoned").merge(&local);
        if worked {
            let end = self.epoch.elapsed();
            self.spans.lock().expect("span mutex poisoned").push((begin, end));
        }
    }

    fn panicked(&self, message: String) {
        self.fail(ParError::Panicked(message));
    }
}

impl Core {
    fn slot_of(&self, txn: TxnId) -> &TxnSlot {
        &self.slots[(txn.raw() - 1 - self.txn_base) as usize]
    }

    /// Records the batch's first error and stops every worker, waking
    /// each slot so a parked worker sees the abort now, not at the
    /// watchdog.
    fn fail(&self, e: ParError) {
        self.abort.store(true, Ordering::Release);
        self.error.lock().expect("error mutex poisoned").get_or_insert(e);
        for slot in &self.slots {
            slot.wake();
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Wakes every transaction in `txns` (lock-free; never dropped),
    /// counting each wake in `local`.
    fn wake_all(&self, txns: impl IntoIterator<Item = TxnId>, local: &mut Metrics) {
        for t in txns {
            self.slot_of(t).wake();
            local.wakes += 1;
        }
    }

    /// Worker main loop: claim transactions until the queue drains or the
    /// run aborts. Committed accesses accumulate in `acc` (merged into
    /// the global history once, when the worker's share is done).
    fn worker(&self, local: &mut Metrics, acc: &mut Vec<CommittedAccess>) {
        loop {
            if self.aborted() {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                return;
            }
            self.slots[i].claim();
            if let Err(e) = self.run_txn(i, local, acc) {
                self.fail(e);
                return;
            }
        }
    }

    /// Executes transaction `idx` to commit (or returns early on abort).
    fn run_txn(
        &self,
        idx: usize,
        local: &mut Metrics,
        acc: &mut Vec<CommittedAccess>,
    ) -> Result<(), ParError> {
        let slot = &self.slots[idx];
        let id = TxnId::new(self.txn_base + idx as u32 + 1);
        let mut g = slot.lock();
        // Program text is shared, never copied: one reference-count bump
        // per transaction lets every op be borrowed while `g` is mutated.
        let program = Arc::clone(&g.rt.program);
        loop {
            if self.aborted() {
                return Ok(());
            }
            match g.rt.phase {
                Phase::Committed => return Ok(()),
                Phase::Running => {}
                Phase::Blocked => {
                    return Err(ParError::Inconsistent(format!(
                        "{id} re-entered the step loop in phase {:?}",
                        g.rt.phase
                    )));
                }
            }
            let pc = g.rt.pc;
            let Some(op) = program.op(pc) else {
                return Err(ParError::MissingOp { txn: id, pc });
            };
            local.steps += 1;
            match *op {
                Op::LockShared(entity) => {
                    g = self.op_lock(slot, g, id, entity, LockMode::Shared, local)?;
                }
                Op::LockExclusive(entity) => {
                    g = self.op_lock(slot, g, id, entity, LockMode::Exclusive, local)?;
                }
                Op::Unlock(entity) => {
                    g = self.op_unlock(g, id, entity, local)?;
                }
                Op::Commit => {
                    self.op_commit(g, id, local, acc)?;
                    return Ok(());
                }
                ref op => {
                    // 2PL: a `Read` holds a lock on its entity here, so
                    // the slab's published value cannot change under us.
                    g.rt.exec_local(op, |entity| Ok(self.slab.read(entity)))?;
                    local.ops_executed += 1;
                    if matches!(op, Op::Write { .. }) {
                        local.peak_copies = local.peak_copies.max(g.rt.copies());
                    }
                }
            }
        }
    }

    /// Completes a granted lock on the worker's own runtime.
    fn finish_grant(
        &self,
        g: &mut SlotState,
        entity: EntityId,
        mode: LockMode,
        global: Value,
        local: &mut Metrics,
    ) {
        let stamp = self.history.next_stamp();
        g.rt.complete_lock(entity, mode, global);
        g.stamps.insert(entity, stamp);
        if let Some(since) = g.blocked_since.take() {
            local.grant_latency.record(since.elapsed().as_micros() as u64);
        }
        local.ops_executed += 1;
        local.peak_copies = local.peak_copies.max(g.rt.copies());
    }

    /// Releases `txn`'s lock on `entity`, publishing `value` first when
    /// the release carries a deferred update (§4: rollback releases never
    /// publish). Tries the lock-word fast path; falls back to the shard
    /// mutex when the entity is inflated (or mid-transfer), inflating
    /// first so the hold is guaranteed to be in the table. Returns the
    /// transactions to wake: the promoted waiters.
    fn release_lock(
        &self,
        txn: TxnId,
        entity: EntityId,
        publish: Option<Value>,
    ) -> Result<Vec<TxnId>, ParError> {
        if let Some(value) = publish {
            // Release-store sequenced before the word CAS / table release
            // on either path, so the next conflicting grant sees it.
            self.slab.publish(entity, value);
        }
        if self.config.fast_path && self.slab.try_fast_release(entity, txn) == FastPath::Done {
            return Ok(Vec::new()); // fast holds have no waiters by construction
        }
        let mut shard = self.shards.guard(entity);
        self.slab.inflate(entity, &mut shard.table)?;
        let promoted = shard.table.release(txn, entity)?;
        self.wfg.queue_changed(&shard.table, entity, None, &promoted);
        self.slab.deflate_if_idle(entity, &shard.table);
        drop(shard);
        Ok(promoted.iter().map(|h| h.txn).collect())
    }

    /// One lock-request operation: optimistic lock-word grant, else
    /// request under the entity's shard, then — if blocked — alternate
    /// resolution attempts with parking until granted or rolled back.
    fn op_lock<'a>(
        &'a self,
        slot: &'a TxnSlot,
        mut g: MutexGuard<'a, SlotState>,
        id: TxnId,
        entity: EntityId,
        mode: LockMode,
        local: &mut Metrics,
    ) -> Result<MutexGuard<'a, SlotState>, ParError> {
        if self.config.fast_path
            && self.slab.try_fast_lock(entity, id, mode, g.rt.state, g.rt.lock_index())
                == FastPath::Done
        {
            let global = self.slab.read(entity);
            self.finish_grant(&mut g, entity, mode, global, local);
            return Ok(g);
        }
        let cap = self.config.system.cycle_cap;
        let mut cycles;
        {
            let mut shard = self.shards.guard(entity);
            // Queue-flag handoff: the table becomes authoritative (and
            // inherits any fast-path holders) before we consult it.
            self.slab.inflate(entity, &mut shard.table)?;
            match shard.table.request(id, entity, mode, g.rt.state, g.rt.lock_index())? {
                RequestOutcome::Granted => {
                    let global = self.slab.read(entity);
                    // A barging grant can newly block queued waiters on
                    // this holder; re-point their arcs (silently: the
                    // holder runs, so no cycle closes).
                    self.wfg.queue_changed(&shard.table, entity, None, &[]);
                    drop(shard);
                    self.finish_grant(&mut g, entity, mode, global, local);
                    return Ok(g);
                }
                RequestOutcome::Wait { holders, .. } => {
                    g.rt.phase = Phase::Blocked;
                    g.rt.blocked_on = Some(entity);
                    g.blocked_since = Some(Instant::now());
                    let depth = shard.table.queue_depth(entity);
                    cycles = self.wfg.register_and_detect(id, entity, &holders, cap);
                    drop(shard);
                    local.waits += 1;
                    local.note_queue_depth(entity, depth);
                }
            }
        }
        loop {
            if self.aborted() {
                return Ok(g);
            }
            // Rolled back by a resolver (possibly after it completed a
            // raced-in grant on our behalf): pc/state were reset; resume
            // the op loop from there.
            if g.rt.phase == Phase::Running {
                g.blocked_since = None;
                return Ok(g);
            }
            // The shard is the authority on promotion.
            {
                let shard = self.shards.guard(entity);
                if let Some(h) = shard.table.held_by(id, entity) {
                    let global = self.slab.read(entity);
                    drop(shard);
                    self.finish_grant(&mut g, entity, h.mode, global, local);
                    return Ok(g);
                }
            }
            if cycles.is_empty() {
                // Woken when granted, rolled back or aborted, as the loop
                // top checks, or by a stale hint from an earlier wait. No
                // re-detection: the wait that closes a cycle sees it.
                #[cfg(feature = "invariants")]
                assert!(!self.wfg.is_resolving(id), "{id} parked while resolving a deadlock");
                g = slot.park(g, WATCHDOG).ok_or(ParError::Stuck { txn: id })?;
            } else {
                g = self.resolve(g, id, entity, &cycles, local)?;
                // Empty once `id` no longer waits.
                cycles = self.wfg.redetect(id, cap).map(|(c, _)| c).unwrap_or_default();
            }
        }
    }

    /// Resolves the deadlock `cycles` report for `id`, blocked on
    /// `entity` (see the module docs), and returns `id`'s guard. Whether
    /// or not a plan ran, the caller re-detects next: to retry with the
    /// fresh members, or to find no cycle left and park.
    fn resolve<'a>(
        &'a self,
        g: MutexGuard<'a, SlotState>,
        id: TxnId,
        entity: EntityId,
        cycles: &[Cycle],
        local: &mut Metrics,
    ) -> Result<MutexGuard<'a, SlotState>, ParError> {
        let members: BTreeSet<TxnId> = cycles.iter().flat_map(Cycle::txns).chain([id]).collect();
        let mut held = Vec::with_capacity(members.len());
        // Our own guard may stay only if it comes first in id order;
        // otherwise it is dropped here and re-taken in turn.
        if members.first() == Some(&id) {
            held.push((id, g));
        } else {
            drop(g);
        }
        let since = Instant::now();
        capture(members.iter().skip(held.len()).map(|&m| (m, self.slot_of(m))), &mut held);
        local.capture_wait.record(since.elapsed().as_micros() as u64);
        let at = held.iter().position(|(m, _)| *m == id).expect("own slot is captured");
        // Rolled back by another resolver while our slot was released.
        if held[at].1.rt.phase != Phase::Blocked {
            return Ok(held.swap_remove(at).1);
        }
        let (fresh, epoch) =
            self.wfg.redetect(id, self.config.system.cycle_cap).unwrap_or_default();
        let fresh_members: BTreeSet<TxnId> = fresh.iter().flat_map(Cycle::txns).collect();
        // Plan only on cycles that still stand and whose members are all
        // held. With the epoch unchanged since re-detection and every
        // member's slot in hand, the cycle is frozen.
        let blocked =
            |m: &TxnId| held.iter().any(|(t, og)| t == m && og.rt.phase == Phase::Blocked);
        if fresh.is_empty()
            || !fresh_members.is_subset(&members)
            || self.wfg.epoch() != epoch
            || !fresh_members.iter().all(blocked)
        {
            return Ok(held.swap_remove(at).1);
        }
        let plan = {
            let view: BTreeMap<TxnId, &TxnRuntime> =
                held.iter().map(|(m, og)| (*m, &og.rt)).collect();
            let event = DeadlockEvent { causer: id, entity, cycles: fresh };
            plan_resolution(&event, &self.config.system, &view)
        };
        if plan.rollbacks.is_empty() {
            // Cannot happen while every member is rollbackable; surface
            // rather than spin.
            return Err(ParError::Unresolvable { txn: id });
        }
        let mut to_wake: BTreeSet<TxnId> = BTreeSet::new();
        let mut states_lost: u64 = 0;
        for rb in &plan.rollbacks {
            states_lost += self.execute_rollback(*rb, &mut held, &mut to_wake, local)?;
        }
        // Executed, not planned, costs: no drift from raced-in grants.
        local.record_resolution(plan.optimal, states_lost);
        to_wake.remove(&id); // we are awake, running this very loop
        let g = held.swap_remove(at).1;
        drop(held);
        self.wake_all(to_wake, local);
        Ok(g)
    }

    /// Executes one planned rollback. Returns the states actually lost.
    fn execute_rollback(
        &self,
        rb: CandidateRollback,
        held: &mut [(TxnId, MutexGuard<'_, SlotState>)],
        to_wake: &mut BTreeSet<TxnId>,
        local: &mut Metrics,
    ) -> Result<u64, ParError> {
        let victim = rb.txn;
        let vs: &mut SlotState =
            held.iter_mut().find(|(m, _)| *m == victim).map(|(_, og)| &mut **og).ok_or_else(
                || ParError::Inconsistent(format!("victim {victim} not captured by resolver")),
            )?;
        // Step 1: halt the victim — cancel its pending request. An
        // earlier rollback in this same plan may have promoted it
        // already; mirror the deterministic engine (which finalizes
        // promoted grants before rolling the victim back) by completing
        // the grant on its behalf, then undoing it like any lock state.
        if vs.rt.phase == Phase::Blocked {
            let went = vs.rt.blocked_on.expect("blocked transactions record their entity");
            let mut shard = self.shards.guard(went);
            if let Some(h) = shard.table.held_by(victim, went) {
                let global = self.slab.read(went);
                drop(shard);
                let stamp = self.history.next_stamp();
                vs.rt.complete_lock(went, h.mode, global);
                vs.stamps.insert(went, stamp);
                if let Some(since) = vs.blocked_since.take() {
                    local.grant_latency.record(since.elapsed().as_micros() as u64);
                }
                local.ops_executed += 1;
            } else {
                let promoted = shard.table.cancel_wait(victim, went)?;
                self.wfg.queue_changed(&shard.table, went, Some(victim), &promoted);
                self.slab.deflate_if_idle(went, &shard.table);
                drop(shard);
                to_wake.extend(promoted.iter().map(|h| h.txn));
                vs.blocked_since = None;
            }
        }
        // Steps 2–5: runtime/workspace rollback, then lock releases
        // without publishing (§4's deferred update — the database still
        // holds the pre-lock globals).
        let receipt = vs.rt.rollback(&rb)?;
        local.record_rollback(victim, self.config.system.strategy, &receipt);
        local.peak_copies = local.peak_copies.max(vs.rt.copies());
        for ls in &receipt.released {
            vs.stamps.remove(&ls.entity);
            // The victim's hold may be a fast-path grant (lock word) or a
            // table grant; release_lock handles both, never publishing.
            to_wake.extend(self.release_lock(victim, ls.entity, None)?);
        }
        // The victim's thread is parked in its own op_lock loop; wake it
        // so it resumes from the reset pc (the resolver drops itself).
        to_wake.insert(victim);
        Ok(u64::from(receipt.cost))
    }

    /// One unlock operation: publish (exclusive), release, re-point
    /// arcs, wake promoted waiters.
    fn op_unlock<'a>(
        &'a self,
        mut g: MutexGuard<'a, SlotState>,
        id: TxnId,
        entity: EntityId,
        local: &mut Metrics,
    ) -> Result<MutexGuard<'a, SlotState>, ParError> {
        let published = g.rt.complete_unlock(entity);
        let wake = self.release_lock(id, entity, published)?;
        local.ops_executed += 1;
        // Wakes are lock-free; no need to drop our own slot first.
        self.wake_all(wake, local);
        Ok(g)
    }

    /// Commit: release every held lock (publishing exclusive finals),
    /// buffer the access history, wake promoted waiters.
    fn op_commit(
        &self,
        mut g: MutexGuard<'_, SlotState>,
        id: TxnId,
        local: &mut Metrics,
        acc: &mut Vec<CommittedAccess>,
    ) -> Result<(), ParError> {
        let held_entities: Vec<EntityId> = g.rt.held.iter().copied().collect();
        let mut to_wake: Vec<TxnId> = Vec::new();
        for entity in held_entities {
            let published = g.rt.commit_release(entity);
            to_wake.extend(self.release_lock(id, entity, published)?);
        }
        // Harvest the repair ledger at commit: the per-worker totals merge
        // into the run-level metrics.
        let (replayed, reused) = g.rt.finish_commit();
        local.ops_replayed += replayed;
        local.ops_reused += reused;
        acc.extend(g.rt.lock_states.iter().map(|ls| CommittedAccess {
            txn: id,
            entity: ls.entity,
            mode: ls.mode,
            stamp: *g.stamps.get(&ls.entity).expect("every committed lock state was stamped"),
        }));
        local.ops_executed += 1;
        local.commits += 1;
        drop(g);
        self.wake_all(to_wake, local);
        Ok(())
    }
}

/// Runs `programs` to completion on `config.threads` workers over the
/// lock-word slab + sharded lock table seeded from `store`: a one-batch
/// [`Session`].
///
/// On success every transaction has committed; the outcome carries the
/// final snapshot, the stamped access history for the serializability
/// oracle, merged metrics, and per-transaction rollback accounting. The
/// first worker error aborts the whole run.
pub fn run_parallel(
    programs: &[TransactionProgram],
    mut store: GlobalStore,
    config: &ParConfig,
) -> Result<ParOutcome, ParError> {
    for p in programs {
        for e in p.locked_entities() {
            store.ensure(e);
        }
    }
    let mut session = Session::new(&store, config.clone());
    let outcome = session.execute(programs)?;
    session.finish()?;
    Ok(outcome)
}

/// Runs one batch of `programs` on `pool` over the session's slab, with
/// transaction ids and grant stamps continuing from `txn_base` and
/// `stamp_base`, so externally submitted transactions get globally unique
/// ids and a single monotone stamp clock across batches.
///
/// The caller guarantees every locked entity exists in the slab, and that
/// the slab is quiescent (no holders, no queue flags) — true after any
/// successful prior batch. Returns the outcome plus the stamp high-water
/// mark, the next batch's stamp base.
pub(crate) fn run_batch(
    pool: &Pool,
    programs: &[TransactionProgram],
    slab: &Arc<EntitySlab>,
    config: &ParConfig,
    txn_base: u32,
    stamp_base: u64,
) -> Result<(ParOutcome, u64), ParError> {
    let workers = config.threads.max(1).min(programs.len().max(1));
    let shard_count = config.effective_shards();
    let slots: Vec<TxnSlot> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            TxnSlot::new(TxnRuntime::new(
                TxnId::new(txn_base + i as u32 + 1),
                Arc::new(p.clone()),
                u64::from(txn_base) + i as u64,
                config.system.strategy,
            ))
        })
        .collect();
    let core = Arc::new(Core {
        shards: Shards::new(shard_count, config.system.grant_policy),
        slab: Arc::clone(slab),
        slots,
        wfg: EpochGraph::new(),
        history: AccessHistory::with_base(stamp_base),
        shared: Mutex::new(Metrics::default()),
        config: config.clone(),
        abort: AtomicBool::new(false),
        error: Mutex::new(None),
        next: AtomicUsize::new(0),
        txn_base,
        epoch: Instant::now(),
        spans: Mutex::new(Vec::with_capacity(workers)),
    });
    pool.run(&core, workers);
    let core = Arc::try_unwrap(core)
        .map_err(|_| ParError::Inconsistent("a worker outlived its batch".into()))?;
    if let Some(e) = core.error.into_inner().expect("error mutex poisoned") {
        return Err(e);
    }
    // `elapsed` runs from the first working span's begin to the last
    // working span's end.
    let spans = core.spans.into_inner().expect("span mutex poisoned");
    let begin = spans.iter().map(|s| s.0).min().unwrap_or_default();
    let end = spans.iter().map(|s| s.1).max().unwrap_or_default();
    let elapsed = end.saturating_sub(begin);
    // Quiescent-point validation: lock tables coherent, lock words fully
    // released, waits-for graph drained, everyone committed.
    core.shards.check_invariants().map_err(ParError::Inconsistent)?;
    core.slab.check_quiescent().map_err(ParError::Inconsistent)?;
    core.wfg.check_consistent().map_err(ParError::Inconsistent)?;
    if core.wfg.waiting_count() != 0 {
        return Err(ParError::Inconsistent(format!(
            "{} transactions still registered as waiting at quiescence",
            core.wfg.waiting_count()
        )));
    }
    let snapshot = core.slab.snapshot();
    let per_txn: Vec<TxnStats> = core
        .slots
        .iter()
        .map(|s| {
            let g = s.lock();
            let (ops_replayed, ops_reused) = g.rt.repair_ops();
            TxnStats {
                id: g.rt.id,
                committed: g.rt.phase == Phase::Committed,
                states_lost: g.rt.states_lost,
                preemptions: g.rt.preemptions,
                ops_replayed,
                ops_reused,
            }
        })
        .collect();
    if let Some(t) = per_txn.iter().find(|t| !t.committed) {
        return Err(ParError::Inconsistent(format!("{} never committed", t.id)));
    }
    let stamp_high_water = core.history.high_water();
    Ok((
        ParOutcome {
            metrics: core.shared.into_inner().expect("metrics mutex poisoned"),
            per_txn,
            accesses: core.history.into_accesses(),
            snapshot,
            elapsed,
            threads: workers,
            shards: shard_count,
            fast: core.slab.stats(),
        },
        stamp_high_water,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{StrategyKind, SystemConfig};
    use pr_model::{Expr, Value, VarId};

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    /// `LX(a); v0 = R(a); v0 += delta; W(a, v0); U(a)*; COMMIT` — the
    /// read-modify-write increment every thread-safety test leans on.
    fn increment(entity: EntityId, delta: i64) -> TransactionProgram {
        TransactionProgram::try_from(vec![
            Op::LockExclusive(entity),
            Op::Read { entity, into: VarId::new(0) },
            Op::Assign {
                var: VarId::new(0),
                expr: Expr::add(Expr::var(VarId::new(0)), Expr::lit(delta)),
            },
            Op::Write { entity, expr: Expr::var(VarId::new(0)) },
            Op::Commit,
        ])
        .unwrap()
    }

    /// Two-entity transfer that locks in the given order — opposite
    /// orders across transactions manufacture deadlocks.
    fn transfer(first: EntityId, second: EntityId, delta: i64) -> TransactionProgram {
        let bump = |ent: EntityId, var: u16, d: i64| {
            vec![
                Op::Read { entity: ent, into: VarId::new(var) },
                Op::Assign {
                    var: VarId::new(var),
                    expr: Expr::add(Expr::var(VarId::new(var)), Expr::lit(d)),
                },
                Op::Write { entity: ent, expr: Expr::var(VarId::new(var)) },
            ]
        };
        let mut ops = vec![Op::LockExclusive(first)];
        ops.extend(bump(first, 0, delta));
        ops.push(Op::LockExclusive(second));
        ops.extend(bump(second, 1, -delta));
        ops.push(Op::Commit);
        TransactionProgram::try_from(ops).unwrap()
    }

    fn config(threads: usize, strategy: StrategyKind) -> ParConfig {
        ParConfig {
            threads,
            shards: 4,
            system: SystemConfig { strategy, ..SystemConfig::default() },
            fast_path: true,
        }
    }

    #[test]
    fn lost_update_is_impossible_under_contention() {
        let programs: Vec<TransactionProgram> = (0..16).map(|_| increment(e(0), 1)).collect();
        let store = GlobalStore::with_entities(1, Value::ZERO);
        let out = run_parallel(&programs, store, &config(4, StrategyKind::Mcs)).unwrap();
        assert_eq!(out.commits(), 16);
        assert_eq!(out.snapshot.get(e(0)), Some(Value::new(16)));
        assert_eq!(out.metrics.commits, 16);
        // Conflicting exclusive accesses must carry distinct, ordered stamps.
        let mut stamps: Vec<u64> = out.accesses.iter().map(|a| a.stamp).collect();
        let len = stamps.len();
        stamps.dedup();
        assert_eq!(stamps.len(), len);
    }

    #[test]
    fn opposed_transfers_deadlock_and_both_commit() {
        for strategy in StrategyKind::ALL {
            let programs =
                vec![transfer(e(0), e(1), 5), transfer(e(1), e(0), 3), transfer(e(0), e(1), 2)];
            let store = GlobalStore::with_entities(2, Value::new(100));
            let out = run_parallel(&programs, store, &config(3, strategy))
                .unwrap_or_else(|err| panic!("{strategy:?}: {err}"));
            assert_eq!(out.commits(), 3, "{strategy:?}");
            // Transfers conserve the total.
            let total: i64 = out.snapshot.iter().map(|(_, v)| v.raw()).sum();
            assert_eq!(total, 200, "{strategy:?}");
        }
    }

    #[test]
    fn single_thread_runs_degenerate_to_serial() {
        let programs = vec![increment(e(0), 2), increment(e(1), 3), increment(e(0), 4)];
        let store = GlobalStore::with_entities(2, Value::ZERO);
        let out = run_parallel(&programs, store, &config(1, StrategyKind::Total)).unwrap();
        assert_eq!(out.commits(), 3);
        assert_eq!(out.snapshot.get(e(0)), Some(Value::new(6)));
        assert_eq!(out.snapshot.get(e(1)), Some(Value::new(3)));
        assert_eq!(out.metrics.deadlocks, 0);
        // Uncontended single-thread grants all ride the lock word.
        assert_eq!(out.fast.fast_grants, 3);
        assert_eq!(out.fast.fast_releases, 3);
        assert_eq!(out.fast.inflations, 0);
    }

    #[test]
    fn fast_path_disabled_routes_everything_through_the_table() {
        let programs = vec![increment(e(0), 2), increment(e(1), 3), increment(e(0), 4)];
        let store = GlobalStore::with_entities(2, Value::ZERO);
        let cfg = ParConfig { fast_path: false, ..config(2, StrategyKind::Mcs) };
        let out = run_parallel(&programs, store, &cfg).unwrap();
        assert_eq!(out.commits(), 3);
        assert_eq!(out.snapshot.get(e(0)), Some(Value::new(6)));
        assert_eq!(out.fast.fast_grants, 0);
        assert_eq!(out.fast.fast_releases, 0);
        // Every entity inflates on first table touch and deflates when idle.
        assert!(out.fast.inflations >= 2);
        assert_eq!(out.fast.inflations, out.fast.deflations);
    }

    #[test]
    fn deadlocks_resolve_while_victims_hold_fast_path_grants() {
        // The first lock of each transfer is typically an uncontended
        // fast-path grant; the second blocks and deadlocks. Rollback must
        // release the fast-held first lock through the word.
        for _ in 0..5 {
            let programs = vec![transfer(e(0), e(1), 5), transfer(e(1), e(0), 3)];
            let store = GlobalStore::with_entities(2, Value::new(100));
            let out = run_parallel(&programs, store, &config(2, StrategyKind::Mcs)).unwrap();
            assert_eq!(out.commits(), 2);
            let total: i64 = out.snapshot.iter().map(|(_, v)| v.raw()).sum();
            assert_eq!(total, 200);
        }
    }

    #[test]
    fn rollback_accounting_reconciles_across_views() {
        // High-conflict workload: every pair of opposed transfers can
        // deadlock; run enough of them that rollbacks actually happen.
        let mut programs = Vec::new();
        for i in 0..12 {
            if i % 2 == 0 {
                programs.push(transfer(e(0), e(1), 1));
            } else {
                programs.push(transfer(e(1), e(0), 1));
            }
        }
        let store = GlobalStore::with_entities(2, Value::new(50));
        let out = run_parallel(&programs, store, &config(4, StrategyKind::Mcs)).unwrap();
        assert_eq!(out.commits(), 12);
        let per_txn_lost: u64 = out.per_txn.iter().map(|t| t.states_lost).sum();
        assert_eq!(out.metrics.states_lost, per_txn_lost);
        assert_eq!(out.metrics.resolution_cost.sum(), out.metrics.states_lost);
        let per_txn_preempt: u64 = out.per_txn.iter().map(|t| u64::from(t.preemptions)).sum();
        let metric_preempt: u64 = out.metrics.preemptions.values().map(|&c| u64::from(c)).sum();
        assert_eq!(metric_preempt, per_txn_preempt);
    }

    #[test]
    fn repair_ledgers_reconcile_across_threads() {
        // Same high-conflict shape as the accounting test, but under
        // Repair: every state a rollback discards must show up again as
        // either a replayed or a reused suffix op by commit time.
        let mut programs = Vec::new();
        for i in 0..12 {
            if i % 2 == 0 {
                programs.push(transfer(e(0), e(1), 1));
            } else {
                programs.push(transfer(e(1), e(0), 1));
            }
        }
        let store = GlobalStore::with_entities(2, Value::new(50));
        let out = run_parallel(&programs, store, &config(4, StrategyKind::Repair)).unwrap();
        assert_eq!(out.commits(), 12);
        let total: i64 = out.snapshot.iter().map(|(_, v)| v.raw()).sum();
        assert_eq!(total, 100);
        assert_eq!(
            out.metrics.repairs,
            out.metrics.partial_rollbacks + out.metrics.total_rollbacks
        );
        assert_eq!(out.metrics.repair_suffix.sum(), out.metrics.states_lost);
        assert_eq!(out.metrics.ops_replayed + out.metrics.ops_reused, out.metrics.states_lost);
        // Per-transaction rows carry the same split the aggregate does.
        let per_replayed: u64 = out.per_txn.iter().map(|t| t.ops_replayed).sum();
        let per_reused: u64 = out.per_txn.iter().map(|t| t.ops_reused).sum();
        assert_eq!(per_replayed, out.metrics.ops_replayed);
        assert_eq!(per_reused, out.metrics.ops_reused);
    }

    #[test]
    fn empty_workload_is_a_noop() {
        let out = run_parallel(&[], GlobalStore::new(), &config(4, StrategyKind::Total)).unwrap();
        assert_eq!(out.commits(), 0);
        assert!(out.accesses.is_empty());
    }
}
