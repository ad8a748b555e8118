//! The multi-threaded executor: a few workers run many in-flight
//! transactions over the lock-word fast path + sharded lock table, with
//! concurrent deadlock detection and partial rollback.
//!
//! ## Execution model
//!
//! A [`Session`] owns `min(threads, max(2, cores)) − 1` helper threads
//! for its whole lifetime; the thread that calls [`Session::execute`] is
//! worker 0. `threads` is the multiprogramming level (MPL): at most that
//! many transactions are in flight, whatever the worker count. Each batch
//! gets a fresh core — slots, shards, waits-for graph, history, scheduler
//! — over the session's persistent [`EntitySlab`], and up to `n` of the
//! session's workers run it. A worker starts as soon as it wakes; there
//! is no start barrier. It asks the batch's scheduler (`sched.rs`)
//! for a ready transaction or a fresh one, holds that transaction's slot
//! mutex, and executes its operations exactly as the deterministic engine
//! does — same runtime calls, same lock-table semantics, same §4 rollback
//! procedure — so the two engines are behaviourally interchangeable and
//! the differential oracle can compare them. [`run_parallel`] is a
//! one-batch session. A worker that panics fails the batch with
//! [`ParError::Panicked`] and stops its siblings.
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
//! Waiting is data. A blocked transaction registers its waits-for arcs
//! and detects cycles *atomically* (see [`EpochGraph`]), resolves any
//! cycle its wait closed, and is then *set down*: its slot is marked not
//! owned and its worker moves on to other work. A transaction is *owned*
//! while a worker runs it or resolves for it — even while the resolver
//! has dropped its guard to capture slots in id order — and *parked*
//! otherwise. It becomes runnable only by a promotion or a rollback: the
//! releaser pushes each waiter it promotes onto the scheduler's ready
//! FIFO, and a resolver pushes each victim it rolls back if that victim is
//! parked. An owned victim — the resolver's own transaction, or one whose
//! worker dropped its guard to capture — is pushed by its own worker once
//! that worker holds the guard again: every victim resumes from the FIFO,
//! behind work already waiting there, so a worker cannot starve a
//! promoted lock holder by re-running its own victim into the same cycle
//! forever. A worker that pops an entry takes the slot mutex and discards
//! the entry if the transaction is owned, committed, or still waiting
//! without a grant; otherwise it completes the grant, or resumes from the
//! rolled-back `pc`. Re-pointing arcs at new blockers pushes nothing,
//! since a re-point never closes a cycle (see
//! [`EpochGraph::queue_changed`]): every cycle is closed by a wait, and
//! the waiter that closes it keeps resolving until no cycle passes
//! through it, so nobody else needs to re-detect. A worker that fails the
//! batch stops the scheduler, so idle workers stop at once. When every
//! worker idles, nothing is ready and transactions are still in flight,
//! the batch fails with [`ParError::Stuck`]: nothing could ever run again.
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
//! cycle: member promotions would need a member's release, which only a
//! worker holding that member's slot or this resolver could perform. A
//! competing resolver simply waits its turn on the lowest contested slot;
//! no resolver sleeps.

use crate::history::{AccessHistory, CommittedAccess};
use crate::outcome::{ParConfig, ParError, ParOutcome, TxnStats};
use crate::pool::{Job, Pool};
use crate::sched::{Next, Sched};
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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
    sched: Sched,
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
    /// Timing excludes workers that never committed a transaction: on an
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
    /// A fresh batch core over `slab` for `programs`, run by `workers`
    /// workers with at most `config.threads` transactions in flight.
    fn new(
        programs: &[TransactionProgram],
        slab: &Arc<EntitySlab>,
        config: &ParConfig,
        workers: usize,
        txn_base: u32,
        stamp_base: u64,
    ) -> Core {
        let slots = programs
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
        Core {
            shards: Shards::new(config.effective_shards(), config.system.grant_policy),
            slab: Arc::clone(slab),
            slots,
            wfg: EpochGraph::new(),
            history: AccessHistory::with_base(stamp_base),
            shared: Mutex::new(Metrics::default()),
            config: config.clone(),
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            sched: Sched::new(programs.len(), config.threads, workers),
            txn_base,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(workers)),
        }
    }

    fn index_of(&self, txn: TxnId) -> usize {
        (txn.raw() - 1 - self.txn_base) as usize
    }

    /// Records the batch's first error and stops every worker; idle ones
    /// stop at once.
    fn fail(&self, e: ParError) {
        self.abort.store(true, Ordering::Release);
        self.error.lock().expect("error mutex poisoned").get_or_insert(e);
        self.sched.stop();
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Pushes every transaction in `txns` onto the ready FIFO, counting
    /// each push as a wake in `local`.
    fn wake_all(&self, txns: impl IntoIterator<Item = TxnId>, local: &mut Metrics) {
        let mut txns = txns.into_iter().peekable();
        if txns.peek().is_none() {
            return; // most releases promote nobody: skip the scheduler mutex
        }
        self.sched.push(txns.map(|t| {
            local.wakes += 1;
            self.index_of(t)
        }));
    }

    /// Worker main loop: run what the scheduler hands out until the batch
    /// is done or stopped. Committed accesses accumulate in `acc` (merged
    /// into the global history once, when the worker's share is done).
    fn worker(&self, local: &mut Metrics, acc: &mut Vec<CommittedAccess>) {
        let mut committed = false;
        let mut promoted = Vec::new();
        loop {
            let (idx, fresh) = match self.sched.next(committed, promoted.drain(..)) {
                Next::Fresh(i) => (i, true),
                Next::Ready(i) => (i, false),
                Next::Done => return,
                Next::Stuck => return self.fail(ParError::Stuck { txn: self.lowest_waiting() }),
            };
            match self.run_txn(idx, fresh, local, acc, &mut promoted) {
                Ok(c) => committed = c,
                Err(e) => return self.fail(e),
            }
        }
    }

    /// The lowest waiting transaction — or, if none waits, the lowest
    /// uncommitted one — named by a stuck batch. Only called once every
    /// worker is idle, so no slot is held.
    fn lowest_waiting(&self) -> TxnId {
        self.slots
            .iter()
            .map(|s| {
                let g = s.lock();
                (g.rt.phase, g.rt.id)
            })
            .filter(|&(phase, _)| phase != Phase::Committed)
            .min_by_key(|&(phase, id)| (phase != Phase::Blocked, id))
            .map_or(TxnId::new(self.txn_base + 1), |(_, id)| id)
    }

    /// Runs transaction `idx` — a fresh claim, or a popped ready entry —
    /// until it commits (`Ok(true)`, with the waiters its commit promoted
    /// in `promoted`, for the worker to push), is set down waiting, or the
    /// batch stops. A stale ready entry returns at once.
    fn run_txn(
        &self,
        idx: usize,
        fresh: bool,
        local: &mut Metrics,
        acc: &mut Vec<CommittedAccess>,
        promoted: &mut Vec<usize>,
    ) -> Result<bool, ParError> {
        let id = TxnId::new(self.txn_base + idx as u32 + 1);
        let mut g = self.slots[idx].lock();
        if !fresh && !self.resume(&mut g, id, local) {
            return Ok(false);
        }
        g.owned = true;
        // Program text is shared, never copied: one reference-count bump
        // per transaction lets every op be borrowed while `g` is mutated.
        let program = Arc::clone(&g.rt.program);
        loop {
            if self.aborted() {
                return Ok(false);
            }
            if g.rt.phase != Phase::Running {
                return Err(ParError::Inconsistent(format!(
                    "{id} re-entered the step loop in phase {:?}",
                    g.rt.phase
                )));
            }
            let pc = g.rt.pc;
            let Some(op) = program.op(pc) else {
                return Err(ParError::MissingOp { txn: id, pc });
            };
            local.steps += 1;
            match *op {
                Op::LockShared(entity) | Op::LockExclusive(entity) => {
                    let mode = match *op {
                        Op::LockShared(_) => LockMode::Shared,
                        _ => LockMode::Exclusive,
                    };
                    match self.op_lock(g, id, entity, mode, local)? {
                        Some(next) => g = next,
                        None => return Ok(false), // set down waiting
                    }
                }
                Op::Unlock(entity) => {
                    g = self.op_unlock(g, id, entity, local)?;
                }
                Op::Commit => {
                    self.op_commit(g, id, local, acc, promoted)?;
                    return Ok(true);
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

    /// Decides a popped ready entry under the transaction's slot guard:
    /// whether the transaction is parked and runnable. A rolled-back one
    /// resumes from its reset `pc`; a promoted one completes its grant
    /// first. Owned, committed, and still-waiting ones are stale entries.
    fn resume(&self, g: &mut SlotState, id: TxnId, local: &mut Metrics) -> bool {
        match g.rt.phase {
            _ if g.owned => false,
            Phase::Committed => false,
            Phase::Running => true,
            Phase::Blocked => self.take_grant(g, id, local),
        }
    }

    /// Completes `id`'s pending request if its shard — the authority on
    /// promotion — shows it granted; returns whether it did.
    fn take_grant(&self, g: &mut SlotState, id: TxnId, local: &mut Metrics) -> bool {
        let entity = g.rt.blocked_on.expect("blocked transactions record their entity");
        let shard = self.shards.guard(entity);
        let Some(h) = shard.table.held_by(id, entity) else {
            return false;
        };
        let global = self.slab.read(entity);
        drop(shard);
        self.finish_grant(g, entity, h.mode, global, local);
        true
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
    /// request under the entity's shard, then — if blocked — resolve any
    /// cycle the wait closed. Returns the guard to keep running, or `None`
    /// once the transaction is set down waiting (its guard dropped).
    fn op_lock<'a>(
        &'a self,
        mut g: MutexGuard<'a, SlotState>,
        id: TxnId,
        entity: EntityId,
        mode: LockMode,
        local: &mut Metrics,
    ) -> Result<Option<MutexGuard<'a, SlotState>>, ParError> {
        if self.config.fast_path
            && self.slab.try_fast_lock(entity, id, mode, g.rt.state, g.rt.lock_index())
                == FastPath::Done
        {
            let global = self.slab.read(entity);
            self.finish_grant(&mut g, entity, mode, global, local);
            return Ok(Some(g));
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
                    return Ok(Some(g));
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
                return Ok(Some(g)); // the op loop stops
            }
            // Rolled back — by this worker's own resolution or by another
            // resolver, possibly after it completed a raced-in grant on our
            // behalf: pc/state were reset. Like every victim, it resumes
            // from a ready entry, behind the work already waiting there; a
            // worker that ran its own victim on at once could starve a
            // promoted lock holder and re-close the same cycle forever.
            if g.rt.phase == Phase::Running {
                g.blocked_since = None;
                g.owned = false;
                drop(g);
                self.wake_all([id], local);
                return Ok(None);
            }
            if self.take_grant(&mut g, id, local) {
                return Ok(Some(g));
            }
            if cycles.is_empty() {
                // Set down as data. The guard has been held since the
                // grant check above, so a promotion from here on comes
                // with a ready entry that finds the transaction parked.
                // No re-detection: the wait that closes a cycle sees it.
                #[cfg(feature = "invariants")]
                assert!(!self.wfg.is_resolving(id), "{id} set down while resolving a deadlock");
                g.owned = false;
                return Ok(None);
            }
            g = self.resolve(g, id, entity, &cycles, local)?;
            // Empty once `id` no longer waits.
            cycles = self.wfg.redetect(id, cap).map(|(c, _)| c).unwrap_or_default();
        }
    }

    /// Resolves the deadlock `cycles` report for `id`, blocked on
    /// `entity` (see the module docs), and returns `id`'s guard. Whether
    /// or not a plan ran, the caller re-detects next: to retry with the
    /// fresh members, or to find no cycle left and set `id` down.
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
        // otherwise it is dropped here and re-taken in turn. `id` stays
        // owned meanwhile, so no worker runs it from a ready entry.
        if members.first() == Some(&id) {
            held.push((id, g));
        } else {
            drop(g);
        }
        let since = Instant::now();
        capture(
            members.iter().skip(held.len()).map(|&m| (m, &self.slots[self.index_of(m)])),
            &mut held,
        );
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
        to_wake.remove(&id); // we own it, running this very loop
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
                self.finish_grant(vs, went, h.mode, global, local);
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
        // A parked victim resumes from its reset pc once a worker pops
        // it. An owned one is in a resolver's hands — this one's, or one
        // that dropped its guard to capture — which sees the rollback when
        // it holds the guard again and pushes it then.
        if !vs.owned {
            to_wake.insert(victim);
        }
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
        // The scheduler's mutex is innermost; no need to drop our slot.
        self.wake_all(wake, local);
        Ok(g)
    }

    /// Commit: release every held lock (publishing exclusive finals),
    /// buffer the access history, and collect the promoted waiters' slots
    /// in `promoted`, each counted as a wake.
    fn op_commit(
        &self,
        mut g: MutexGuard<'_, SlotState>,
        id: TxnId,
        local: &mut Metrics,
        acc: &mut Vec<CommittedAccess>,
        promoted: &mut Vec<usize>,
    ) -> Result<(), ParError> {
        let held_entities: Vec<EntityId> = g.rt.held.iter().copied().collect();
        for entity in held_entities {
            let published = g.rt.commit_release(entity);
            for t in self.release_lock(id, entity, published)? {
                promoted.push(self.index_of(t));
                local.wakes += 1;
            }
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
        g.owned = false;
        Ok(())
    }
}

/// Runs `programs` to completion, at most `config.threads` in flight,
/// over the lock-word slab + sharded lock table seeded from `store`: a
/// one-batch [`Session`].
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
    let workers = pool.workers().min(programs.len().max(1));
    let core = Arc::new(Core::new(programs, slab, config, workers, txn_base, stamp_base));
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
            shards: config.effective_shards(),
            fast: core.slab.stats(),
        },
        stamp_high_water,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{StrategyKind, SystemConfig, VictimPolicyKind};
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

    /// A batch core over `entities` zeroed entities, for driving
    /// `run_txn` by hand on the test thread, as a worker would.
    fn core(programs: &[TransactionProgram], entities: u32, mpl: usize, workers: usize) -> Core {
        core_with(programs, entities, mpl, workers, VictimPolicyKind::MinCost)
    }

    fn core_with(
        programs: &[TransactionProgram],
        entities: u32,
        mpl: usize,
        workers: usize,
        victim: VictimPolicyKind,
    ) -> Core {
        let store = GlobalStore::with_entities(entities, Value::ZERO);
        let system =
            SystemConfig { strategy: StrategyKind::Mcs, victim, ..SystemConfig::default() };
        let config = ParConfig { threads: mpl, shards: 4, system, fast_path: true };
        Core::new(programs, &Arc::new(EntitySlab::from_store(&store)), &config, workers, 0, 0)
    }

    fn program(ops: Vec<Op>) -> TransactionProgram {
        TransactionProgram::try_from(ops).unwrap()
    }

    /// Grants `txn` (slot `idx`) its first op's exclusive lock by hand and
    /// leaves it parked, runnable at pc 1.
    fn hand_lock(core: &Core, idx: usize, entity: EntityId, local: &mut Metrics) {
        let g = core.op_lock(
            core.slots[idx].lock(),
            TxnId::new(idx as u32 + 1),
            entity,
            LockMode::Exclusive,
            local,
        );
        assert!(g.unwrap().is_some(), "an uncontended lock is granted");
    }

    /// `(phase, pc, owned)` of slot `idx`.
    fn state(core: &Core, idx: usize) -> (Phase, usize, bool) {
        let g = core.slots[idx].lock();
        (g.rt.phase, g.rt.pc, g.owned)
    }

    /// A popped ready entry runs its transaction only if it is parked and
    /// granted: one still waiting, one a worker owns, and one committed
    /// are all discarded untouched.
    #[test]
    fn stale_ready_entries_are_discarded() {
        let lock_commit = || program(vec![Op::LockExclusive(e(0)), Op::Commit]);
        let core = core(&[lock_commit(), lock_commit()], 1, 2, 2);
        let (mut local, mut acc, mut promoted) = (Metrics::default(), Vec::new(), Vec::new());
        hand_lock(&core, 0, e(0), &mut local);
        // T2 waits behind T1 and is set down.
        assert_eq!(core.run_txn(1, true, &mut local, &mut acc, &mut promoted), Ok(false));
        assert_eq!(state(&core, 1), (Phase::Blocked, 0, false));
        assert_eq!(local.waits, 1);
        assert_eq!(core.lowest_waiting(), TxnId::new(2));
        // Still waiting without a grant.
        assert_eq!(core.run_txn(1, false, &mut local, &mut acc, &mut promoted), Ok(false));
        assert_eq!(state(&core, 1), (Phase::Blocked, 0, false));
        // T1 commits and hands its worker the promoted waiter to push: one
        // wake per wait.
        assert_eq!(core.run_txn(0, true, &mut local, &mut acc, &mut promoted), Ok(true));
        assert_eq!((&promoted[..], local.wakes), (&[1][..], 1));
        // Already running: its owner, not the popper, takes the grant.
        core.slots[1].lock().owned = true;
        assert_eq!(core.run_txn(1, false, &mut local, &mut acc, &mut promoted), Ok(false));
        assert_eq!(state(&core, 1), (Phase::Blocked, 0, true));
        // Parked and granted: the popper completes the grant and commits.
        core.slots[1].lock().owned = false;
        assert_eq!(core.run_txn(1, false, &mut local, &mut acc, &mut promoted), Ok(true));
        assert_eq!(state(&core, 1).0, Phase::Committed);
        // Committed.
        assert_eq!(core.run_txn(1, false, &mut local, &mut acc, &mut promoted), Ok(false));
        assert_eq!(local.commits, 2);
        assert_eq!(core.slab.read(e(0)), Value::ZERO);
    }

    /// T2 is set down holding `b` and waiting for `a`; T1 holds `a` and
    /// closes the cycle by requesting `b`, so its worker resolves, and
    /// min-cost picks T2 — owned meanwhile by a worker resolving for it.
    /// The resolver does not push it, and a popped entry does not run it.
    #[test]
    fn a_victim_owned_by_a_resolving_worker_is_not_run_by_another() {
        let a_then_b = {
            let mut ops = vec![Op::LockExclusive(e(0))];
            ops.extend((0..8).map(|i| Op::Write { entity: e(0), expr: Expr::lit(i) }));
            ops.extend([Op::LockExclusive(e(1)), Op::Commit]);
            program(ops)
        };
        let b_then_a = program(vec![Op::LockExclusive(e(1)), Op::LockExclusive(e(0)), Op::Commit]);
        let core = core(&[a_then_b, b_then_a], 2, 2, 2);
        let (mut local, mut acc, mut promoted) = (Metrics::default(), Vec::new(), Vec::new());
        hand_lock(&core, 0, e(0), &mut local);
        assert_eq!(core.run_txn(1, true, &mut local, &mut acc, &mut promoted), Ok(false));
        assert_eq!(state(&core, 1), (Phase::Blocked, 1, false));
        // T2's worker has dropped its guard to capture slots in id order.
        core.slots[1].lock().owned = true;
        assert_eq!(core.run_txn(0, true, &mut local, &mut acc, &mut promoted), Ok(true));
        assert_eq!(local.deadlocks, 1);
        assert_eq!(state(&core, 1), (Phase::Running, 0, true), "T2 was the victim");
        assert_eq!(core.sched.ready(), Vec::<usize>::new(), "an owned victim is not pushed");
        assert_eq!(core.run_txn(1, false, &mut local, &mut acc, &mut promoted), Ok(false));
        assert_eq!(state(&core, 1), (Phase::Running, 0, true), "a second worker ran T2");
        // T2's own worker sets it down and pushes it, like every victim;
        // the worker that pops it resumes it from the reset pc.
        core.slots[1].lock().owned = false;
        assert_eq!(core.run_txn(1, false, &mut local, &mut acc, &mut promoted), Ok(true));
        assert_eq!(local.commits, 2);
    }

    /// T2 holds `b` and closes the cycle with T1 by requesting `a`; as the
    /// younger causer it yields under the partial order and rolls itself
    /// back. Its worker then sets it down and pushes it behind T1, the
    /// holder its rollback promoted, instead of running it on at once.
    #[test]
    fn a_worker_pushes_its_own_victim_behind_the_ready_work() {
        let two_locks =
            |x, y| program(vec![Op::LockExclusive(x), Op::LockExclusive(y), Op::Commit]);
        let programs = [two_locks(e(0), e(1)), two_locks(e(1), e(0))];
        let core = core_with(&programs, 2, 2, 2, VictimPolicyKind::PartialOrder);
        let (mut local, mut acc, mut promoted) = (Metrics::default(), Vec::new(), Vec::new());
        hand_lock(&core, 1, e(1), &mut local);
        assert_eq!(core.run_txn(0, true, &mut local, &mut acc, &mut promoted), Ok(false));
        assert_eq!(core.run_txn(1, true, &mut local, &mut acc, &mut promoted), Ok(false));
        assert_eq!(local.deadlocks, 1);
        assert_eq!(state(&core, 1), (Phase::Running, 0, false), "T2 rolled itself back");
        assert_eq!(core.sched.ready(), vec![0, 1], "the promoted holder first, then the victim");
        assert_eq!(core.run_txn(0, false, &mut local, &mut acc, &mut promoted), Ok(true));
        assert_eq!(core.run_txn(1, false, &mut local, &mut acc, &mut promoted), Ok(true));
    }

    /// Two transactions wait behind a lock nobody will release (granted by
    /// hand to a third that is never claimed): with the in-flight cap
    /// reached and its only worker idle, the batch fails `Stuck` at once,
    /// naming the lowest waiter.
    #[test]
    fn a_batch_whose_workers_all_idle_is_stuck_at_once() {
        let lock_commit = || program(vec![Op::LockExclusive(e(0)), Op::Commit]);
        let core = core(&[lock_commit(), lock_commit(), lock_commit()], 1, 2, 1);
        hand_lock(&core, 2, e(0), &mut Metrics::default());
        let started = Instant::now();
        core.work();
        assert!(started.elapsed() < Duration::from_secs(1));
        let err = core.error.lock().unwrap().clone();
        assert_eq!(err, Some(ParError::Stuck { txn: TxnId::new(1) }));
        assert_eq!(state(&core, 1), (Phase::Blocked, 0, false));
    }

    #[test]
    fn empty_workload_is_a_noop() {
        let out = run_parallel(&[], GlobalStore::new(), &config(4, StrategyKind::Total)).unwrap();
        assert_eq!(out.commits(), 0);
        assert!(out.accesses.is_empty());
    }
}
