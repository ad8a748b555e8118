//! The distributed execution engine (§3.3).
//!
//! A driver over the `pr-core` [`Kernel`]: every lock, unlock, rollback and
//! commit is the kernel's transition, the same one [`pr_core::System`]
//! drives. What this module adds is distribution: entities live at sites,
//! remote interactions cost messages and may stall, and the cross-site
//! scheme decides between detection and prevention.

use crate::fault::FaultPlan;
use crate::metrics::DistMetrics;
use crate::net::{AsyncOutcome, GraphUpdate, Network, Transition};
use crate::site::{Partition, SiteId};
use pr_core::kernel::{Kernel, MAX_RESOLUTION_ROUNDS};
use pr_core::runtime::{Phase, TxnRuntime};
use pr_core::scheduler::Scheduler;
use pr_core::{EngineError, StrategyKind, SystemConfig, VictimPolicyKind};
use pr_graph::{CandidateRollback, WaitsForGraph};
use pr_lock::{HeldLock, RequestOutcome};
use pr_model::{EntityId, LockIndex, LockMode, Op, TransactionProgram, TxnId};
use pr_storage::GlobalStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How cross-site deadlocks are kept at bay (§3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrossSiteScheme {
    /// One coordinator (site 0) maintains the complete concurrency graph;
    /// every wait registered from another site costs a message. Detection
    /// and min-cost resolution work exactly as in the centralized system.
    GlobalDetection,
    /// Timestamp prevention: an older requester *wounds* (partially rolls
    /// back) every younger incompatible holder just past the contested
    /// entity's lock state; a younger requester waits. Timestamps
    /// strictly increase along every wait arc, so no cycle can ever form
    /// and no detection machinery is needed.
    WoundWait,
    /// The paper's "a priori ordering of the sites": a transaction may
    /// wait only for an entity whose site is ≥ every site it currently
    /// holds entities at. Violations partially roll the requester back to
    /// its latest state holding nothing above the requested site. Any
    /// remaining cycle is confined to a single site and caught by that
    /// site's local graph.
    SiteOrdered,
}

impl CrossSiteScheme {
    /// All schemes, for sweeps.
    pub const ALL: [CrossSiteScheme; 3] = [
        CrossSiteScheme::GlobalDetection,
        CrossSiteScheme::WoundWait,
        CrossSiteScheme::SiteOrdered,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            CrossSiteScheme::GlobalDetection => "global-detection",
            CrossSiteScheme::WoundWait => "wound-wait",
            CrossSiteScheme::SiteOrdered => "site-ordered",
        }
    }
}

/// Distributed system configuration.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Entity placement.
    pub partition: Partition,
    /// Cross-site deadlock scheme.
    pub scheme: CrossSiteScheme,
    /// Rollback strategy (shared with the single-site engine).
    pub strategy: StrategyKind,
    /// Victim policy for detection-based resolution.
    pub victim: VictimPolicyKind,
    /// Step limit for `run`.
    pub max_steps: u64,
}

impl DistConfig {
    /// A configuration over `sites` round-robin sites.
    pub fn new(sites: u16, scheme: CrossSiteScheme, strategy: StrategyKind) -> Self {
        DistConfig {
            partition: Partition::RoundRobin { sites },
            scheme,
            strategy,
            victim: VictimPolicyKind::PartialOrder,
            max_steps: 10_000_000,
        }
    }

    fn engine_config(&self) -> SystemConfig {
        let mut c = SystemConfig::new(self.strategy, self.victim);
        c.max_steps = self.max_steps;
        c
    }
}

/// A multi-site database system.
pub struct DistributedSystem {
    pub(crate) kernel: Kernel,
    /// One graph per site under `SiteOrdered` (indexed by entity site);
    /// `graphs[0]` is the coordinator's graph otherwise.
    pub(crate) graphs: Vec<WaitsForGraph>,
    /// Per-site fallback graphs for `GlobalDetection` while the
    /// coordinator is unreachable. Rebuilt from lock-table truth right
    /// before each use, so they never carry stale arcs.
    pub(crate) fallback: Vec<WaitsForGraph>,
    pub(crate) home: BTreeMap<TxnId, SiteId>,
    pub(crate) config: DistConfig,
    pub(crate) metrics: DistMetrics,
    pub(crate) net: Network,
    /// `GlobalDetection` only: the coordinator is down and waits are being
    /// tracked site-locally until it returns.
    pub(crate) degraded: bool,
    /// Next tick at which the coordinator refreshes its graph from
    /// lock-table truth (fault injection + `GlobalDetection` only).
    next_reconcile_at: u64,
}

/// Anti-entropy cadence for the coordinator graph under fault injection.
/// Dropped graph-maintenance messages can hide a cycle from the
/// coordinator indefinitely while unrelated transactions keep the system
/// busy (so the quiescence backstop never fires); a periodic rebuild from
/// lock-table truth bounds how long any cycle stays invisible.
const RECONCILE_INTERVAL_TICKS: u64 = 512;

impl DistributedSystem {
    /// Creates a system over `store` with a perfect network and immortal
    /// sites.
    pub fn new(store: GlobalStore, config: DistConfig) -> Self {
        Self::with_faults(store, config, FaultPlan::none())
    }

    /// Creates a system whose network and sites fail per `plan`. An
    /// inactive plan (no faults) is exactly [`DistributedSystem::new`].
    pub fn with_faults(store: GlobalStore, config: DistConfig, plan: FaultPlan) -> Self {
        let sites = config.partition.sites() as usize;
        let graphs = match config.scheme {
            CrossSiteScheme::SiteOrdered => vec![WaitsForGraph::new(); sites],
            _ => vec![WaitsForGraph::new()],
        };
        let net = Network::new(plan);
        let fallback = if net.active() && config.scheme == CrossSiteScheme::GlobalDetection {
            vec![WaitsForGraph::new(); sites]
        } else {
            Vec::new()
        };
        DistributedSystem {
            kernel: Kernel::new(store, config.engine_config()),
            graphs,
            fallback,
            home: BTreeMap::new(),
            config,
            metrics: DistMetrics::default(),
            net,
            degraded: false,
            next_reconcile_at: RECONCILE_INTERVAL_TICKS,
        }
    }

    /// Admits a program; the transaction's home site is the site of its
    /// first locked entity (where it originates).
    pub fn admit(&mut self, program: TransactionProgram) -> Result<TxnId, EngineError> {
        let home = program
            .locked_entities()
            .first()
            .map_or(SiteId::COORDINATOR, |&e| self.config.partition.site_of(e));
        let id = self.kernel.admit(program)?;
        self.home.insert(id, home);
        Ok(id)
    }

    pub(crate) fn site_of(&self, entity: EntityId) -> SiteId {
        self.config.partition.site_of(entity)
    }

    pub(crate) fn home_of(&self, txn: TxnId) -> SiteId {
        self.home.get(&txn).copied().unwrap_or(SiteId::COORDINATOR)
    }

    pub(crate) fn graph_index(&self, entity: EntityId) -> usize {
        match self.config.scheme {
            CrossSiteScheme::SiteOrdered => usize::from(self.site_of(entity).raw()),
            _ => 0,
        }
    }

    pub(crate) fn charge_remote(&mut self, txn: TxnId, entity: EntityId, msgs: u64) {
        if self.site_of(entity) != self.home_of(txn) {
            self.metrics.messages += msgs;
        }
    }

    /// A request/response exchange between `txn`'s home site and
    /// `entity`'s site. `true` means it got through (always, without a
    /// fault plan); `false` means the caller must stall without advancing
    /// the transaction — the operation is retried the next time the
    /// transaction is scheduled.
    fn remote_rpc(&mut self, txn: TxnId, entity: EntityId) -> bool {
        let from = self.home_of(txn);
        let to = self.site_of(entity);
        if from == to && !self.net.is_down(to) {
            return true;
        }
        self.net.rpc(from, to, &mut self.metrics)
    }

    /// Ready transactions.
    pub fn ready(&self) -> Vec<TxnId> {
        self.kernel.ready()
    }

    /// Whether every transaction committed.
    pub fn all_committed(&self) -> bool {
        self.kernel.all_committed()
    }

    /// Whether every transaction reached a terminal phase — committed, or
    /// cleanly aborted by crash recovery. This is the no-wedge invariant's
    /// success condition under fault injection.
    pub fn all_settled(&self) -> bool {
        self.kernel.all_settled()
    }

    /// Runs under `scheduler` until every transaction settles.
    pub fn run<S: Scheduler>(&mut self, scheduler: &mut S) -> Result<(), EngineError> {
        let mut steps = 0u64;
        // Whether a reconcile has been tried since the last real progress;
        // a second consecutive fruitless reconcile means a genuine wedge.
        let mut reconciled = false;
        loop {
            let ready = self.ready();
            if ready.is_empty() {
                if self.all_settled() {
                    return Ok(());
                }
                if self.net.active() {
                    // Nothing is runnable but the network still owes us
                    // events (a restart, a delayed delivery): fast-forward
                    // the virtual clock to the next one.
                    if let Some(tick) = self.net.next_event_tick() {
                        self.net.advance_to(tick);
                        self.process_network_events()?;
                        continue;
                    }
                    // No future events either: lost messages may have left
                    // a graph blind to a real cycle. Rebuild from lock-
                    // table truth and re-run detection once.
                    if !reconciled {
                        reconciled = true;
                        self.reconcile_graphs()?;
                        continue;
                    }
                }
                return Err(EngineError::Stuck { blocked: self.kernel.blocked() });
            }
            reconciled = false;
            steps += 1;
            if steps > self.config.max_steps {
                return Err(EngineError::StepLimitExceeded { limit: self.config.max_steps });
            }
            let pick = scheduler.pick(&ready);
            self.step(pick)?;
        }
    }

    /// Executes one atomic operation of `id`.
    ///
    /// Under a fault plan each step is also one tick of the virtual clock:
    /// due crashes, restarts, and delayed deliveries are processed first,
    /// and may abort or roll back the picked transaction — in that case
    /// the step is consumed as a no-op rather than an error.
    ///
    /// An operation that must reach a remote site first attempts the
    /// exchange; a dead site or an exhausted retry budget stalls the
    /// transaction, which re-issues the operation on its next slot.
    pub fn step(&mut self, id: TxnId) -> Result<(), EngineError> {
        if self.net.active() {
            self.net.tick();
            self.process_network_events()?;
        }
        let rt = self.kernel.txn(id).ok_or(EngineError::NoSuchTxn(id))?;
        if rt.phase != Phase::Running {
            if self.net.active() {
                return Ok(()); // consumed by a fault processed this tick
            }
            return Err(EngineError::NotRunnable(id));
        }
        // Program text is shared, never copied: hold it by reference count
        // so the op can be borrowed across the `&mut self` handlers.
        let program = Arc::clone(&rt.program);
        let op = program.op(rt.pc).ok_or(EngineError::NotRunnable(id))?;
        match *op {
            Op::LockShared(e) => self.do_lock(id, e, LockMode::Shared),
            Op::LockExclusive(e) => self.do_lock(id, e, LockMode::Exclusive),
            Op::Unlock(entity) => {
                if self.remote_rpc(id, entity) {
                    self.charge_remote(id, entity, 1);
                    let gi = self.graph_index(entity);
                    let release = self.kernel.unlock(&mut self.graphs[gi], id, entity)?;
                    self.after_release(entity, &release.promoted)?;
                    self.metrics.ops_executed += 1;
                }
                Ok(())
            }
            Op::Commit => {
                let held: Vec<EntityId> = self.kernel.txns()[&id].held.iter().copied().collect();
                for entity in held {
                    // Commit releases one entity per iteration and is
                    // re-entrant: if a site is unreachable the step returns
                    // with the remaining entities still held, and the next
                    // scheduling slot resumes exactly here.
                    if !self.remote_rpc(id, entity) {
                        return Ok(());
                    }
                    self.charge_remote(id, entity, 1);
                    let gi = self.graph_index(entity);
                    let release = self.kernel.commit_release(&mut self.graphs[gi], id, entity)?;
                    self.after_release(entity, &release.promoted)?;
                }
                self.kernel.finish_commit(id)?;
                self.metrics.ops_executed += 1;
                self.metrics.commits += 1;
                Ok(())
            }
            ref local => {
                if let Op::Read { entity, .. } = *local {
                    if !self.remote_rpc(id, entity) {
                        return Ok(());
                    }
                    self.charge_remote(id, entity, 1); // remote read fetch
                }
                self.kernel.exec_local(id, local)?;
                self.metrics.ops_executed += 1;
                Ok(())
            }
        }
    }

    fn do_lock(&mut self, id: TxnId, entity: EntityId, mode: LockMode) -> Result<(), EngineError> {
        if !self.remote_rpc(id, entity) {
            return Ok(());
        }
        // Site-order rule is checked before the request is even sent.
        if self.config.scheme == CrossSiteScheme::SiteOrdered {
            let s = self.site_of(entity);
            let rt = self.kernel.txn(id).expect("checked");
            let violation = rt
                .lock_states
                .iter()
                .position(|ls| self.site_of(ls.entity) > s && rt.held.contains(&ls.entity));
            // Only an actual wait violates the ordering argument: a request
            // that would be granted outright goes through.
            if let Some(first_bad) =
                violation.filter(|_| !self.incompatible_holders(id, entity, mode).is_empty())
            {
                // Tie-break by entry order so mutual violators cannot
                // preempt each other forever (the Theorem 2 argument): the
                // oldest requester wounds the younger holders out of its
                // way and acquires in the same step; a younger requester
                // yields by releasing everything. The loop is needed
                // because each wound's releases may promote queued waiters
                // into fresh holders.
                self.metrics.order_violations += 1;
                let my_key = self.wound_key(rt);
                loop {
                    let blockers = self.incompatible_holders(id, entity, mode);
                    if blockers.is_empty() {
                        break; // the request below is granted outright
                    }
                    // "Younger" must mean the same thing here as in the
                    // wound routine (the *skewed* key), or a holder judged
                    // woundable would be skipped by the wound and this
                    // loop would never terminate.
                    let all_younger = blockers.iter().all(|t| {
                        self.kernel
                            .txn(*t)
                            .is_some_and(|hrt| self.wound_key(hrt) > my_key && hrt.rollbackable())
                    });
                    if !all_younger {
                        // Yield: release *everything*. Dropping only the
                        // high-site holdings is not enough — the older
                        // holder may be waiting on a low-site lock we would
                        // keep (a cross-site cycle in disguise).
                        let rt = self.kernel.txn(id).expect("checked");
                        let ideal = LockIndex::new(first_bad as u32);
                        self.rollback(rt.candidate_to(LockIndex::ZERO, ideal))?;
                        return Ok(());
                    }
                    self.wound_younger_holders(id, entity, &blockers)?;
                }
            }
        }

        self.charge_remote(id, entity, 2); // request + response
        let gi = self.graph_index(entity);
        match self.kernel.request(&mut self.graphs[gi], id, entity, mode)? {
            RequestOutcome::Granted => {
                self.metrics.ops_executed += 1;
                self.enforce_wound_wait(entity)
            }
            RequestOutcome::Wait { holders, .. } => {
                self.metrics.waits += 1;
                if self.config.scheme == CrossSiteScheme::WoundWait {
                    self.graphs[gi].set_wait(id, entity, &holders);
                    return self.wound_younger_holders(id, entity, &holders);
                }
                if self.config.scheme == CrossSiteScheme::GlobalDetection
                    && self.home_of(id) != SiteId::COORDINATOR
                {
                    // The coordinator learns of this wait by message; under
                    // a fault plan the message is subject to it.
                    self.metrics.messages += 1;
                    if self.net.active() {
                        let update = GraphUpdate { waiter: id, entity };
                        let (from, to) = (self.home_of(id), SiteId::COORDINATOR);
                        return match self.net.send_async(from, to, update, &mut self.metrics) {
                            AsyncOutcome::Applied => self.resolve(id, entity, false),
                            AsyncOutcome::Deferred => Ok(()), // arrives via poll
                            AsyncOutcome::Dropped => Ok(()),  // reconcile repairs
                            AsyncOutcome::DestinationDown => {
                                self.degraded = true;
                                self.resolve(id, entity, true)
                            }
                        };
                    }
                }
                self.resolve(id, entity, false)
            }
        }
    }

    /// The holders of `entity` whose locks conflict with `id` taking it in
    /// `mode`.
    fn incompatible_holders(&self, id: TxnId, entity: EntityId, mode: LockMode) -> Vec<TxnId> {
        self.kernel
            .table()
            .holder_records(entity)
            .into_iter()
            .filter(|h| h.txn != id && !mode.compatible_with(h.mode))
            .map(|h| h.txn)
            .collect()
    }

    /// The WoundWait age key of a transaction: its admission timestamp
    /// shifted by its home site's clock skew, with the true entry order as
    /// a tie-break. The skewed values remain a *total* order, so Theorem
    /// 2's liveness argument survives arbitrary skew — what skew changes
    /// is *which* transaction looks older, i.e. who gets wounded.
    pub(crate) fn wound_key(&self, rt: &TxnRuntime) -> (i64, u64) {
        let skew = self.net.plan().skew_of(self.home_of(rt.id));
        (rt.entry_order as i64 + skew, rt.entry_order)
    }

    /// Wound-wait: partially roll back every incompatible holder younger
    /// than the requester, just past the contested entity's lock state.
    fn wound_younger_holders(
        &mut self,
        requester: TxnId,
        entity: EntityId,
        holders: &[TxnId],
    ) -> Result<(), EngineError> {
        let my_key = self.wound_key(self.kernel.txn(requester).expect("checked"));
        for &h in holders {
            let Some(hrt) = self.kernel.txn(h) else { continue };
            if self.wound_key(hrt) <= my_key {
                continue; // older holder: we wait
            }
            let Some(rb) = hrt.rollback_candidate(self.config.strategy, entity) else {
                continue; // unwoundable holder: we wait
            };
            self.rollback(rb)?;
            self.metrics.wounds += 1;
            self.charge_remote(h, entity, 1); // wound notification
            let (from, to) = (self.site_of(entity), self.home_of(h));
            self.net.send_reliable(from, to, "wound", &mut self.metrics);
        }
        Ok(())
    }

    /// Re-applies the wound-wait rule on `entity` after its holders
    /// changed: a newly granted *younger* holder must not keep an older
    /// waiter waiting, or the timestamp invariant (waits only run young →
    /// old) breaks and an undetectable cycle could form.
    fn enforce_wound_wait(&mut self, entity: EntityId) -> Result<(), EngineError> {
        if self.config.scheme != CrossSiteScheme::WoundWait {
            return Ok(());
        }
        loop {
            let table = self.kernel.table();
            let holders = table.holder_records(entity);
            let wound = table.waiters_of(entity).into_iter().find_map(|w| {
                let w_key = self.wound_key(self.kernel.txn(w.txn)?);
                holders
                    .iter()
                    .filter(|h| h.txn != w.txn && !w.mode.compatible_with(h.mode))
                    .filter_map(|h| self.kernel.txn(h.txn))
                    .filter(|hrt| self.wound_key(hrt) > w_key)
                    .find_map(|hrt| hrt.rollback_candidate(self.config.strategy, entity))
            });
            let Some(rb) = wound else { return Ok(()) };
            self.rollback(rb)?;
            self.metrics.wounds += 1;
            self.charge_remote(rb.txn, entity, 1);
        }
    }

    /// Detection-based resolution of `causer`'s wait on `entity`, in the
    /// graph that tracks the entity (the global graph, or its site's graph
    /// under `SiteOrdered`) — or, `fallback`, in its site's fallback graph
    /// while the `GlobalDetection` coordinator is unreachable. The
    /// fallback resolves same-site cycles only; cross-site cycles stay
    /// invisible until the coordinator restarts and
    /// [`Self::reconcile_graphs`] runs.
    pub(crate) fn resolve(
        &mut self,
        causer: TxnId,
        entity: EntityId,
        fallback: bool,
    ) -> Result<(), EngineError> {
        for _round in 0..MAX_RESOLUTION_ROUNDS {
            let graph = if fallback {
                let site = usize::from(self.site_of(entity).raw());
                self.rebuild_fallback_graph(site);
                &mut self.fallback[site]
            } else {
                let gi = self.graph_index(entity);
                &mut self.graphs[gi]
            };
            let Some((_, plan)) = self.kernel.detect(graph, causer) else {
                return Ok(());
            };
            self.metrics.detected_deadlocks += 1;
            self.metrics.local_fallback_detections += u64::from(fallback);
            if plan.rollbacks.is_empty() {
                break;
            }
            for rb in plan.rollbacks {
                self.rollback(rb)?;
                self.metrics.detection_rollbacks += 1;
            }
        }
        Err(EngineError::Stuck { blocked: vec![causer] })
    }

    /// Performs one rollback — a deadlock victim's, a wound, a site-order
    /// yield, or a crash recovery's — charging the messages its releases
    /// cost. Returns the states lost.
    pub(crate) fn rollback(&mut self, rb: CandidateRollback) -> Result<u32, EngineError> {
        let victim = rb.txn;
        self.cancel_wait(victim)?;
        let receipt = self.kernel.rollback(&rb)?;
        self.metrics.states_lost += u64::from(receipt.cost);
        self.metrics.rollback_overshoot += u64::from(receipt.overshoot);
        for ls in &receipt.released {
            if self.drop_lock(victim, ls.entity)? {
                self.charge_remote(victim, ls.entity, 1);
            }
        }
        Ok(receipt.cost)
    }

    /// Cancels `txn`'s pending request, if it has one.
    pub(crate) fn cancel_wait(&mut self, txn: TxnId) -> Result<(), EngineError> {
        let Some(entity) = self.kernel.txn(txn).and_then(|rt| rt.blocked_on) else {
            return Ok(());
        };
        let gi = self.graph_index(entity);
        if let Some((_, promoted)) = self.kernel.cancel_wait(&mut self.graphs[gi], txn)? {
            self.notify_grants(entity, &promoted);
        }
        Ok(())
    }

    /// Releases, unpublished, a table lock `txn`'s runtime no longer
    /// records. Returns `false`, doing nothing, if the table has no such
    /// lock: the entity's site crashed, or a nested wound triggered by an
    /// earlier release already rolled the victim further — the lock table
    /// is the source of truth.
    pub(crate) fn drop_lock(&mut self, txn: TxnId, entity: EntityId) -> Result<bool, EngineError> {
        if self.kernel.table().held_by(txn, entity).is_none() {
            return Ok(false);
        }
        let gi = self.graph_index(entity);
        let promoted = self.kernel.release(&mut self.graphs[gi], txn, entity)?;
        self.after_release(entity, &promoted)?;
        Ok(true)
    }

    /// Driver-side follow-up to a release on `entity`: grant
    /// notifications, then the wound-wait rule on the new holders.
    fn after_release(
        &mut self,
        entity: EntityId,
        promoted: &[HeldLock],
    ) -> Result<(), EngineError> {
        self.notify_grants(entity, promoted);
        self.enforce_wound_wait(entity)
    }

    /// Accounts for the waiters a release or cancellation promoted. A
    /// remote grantee learns of its grant by a reliable (possibly
    /// duplicated, dedup-suppressed) notification.
    fn notify_grants(&mut self, entity: EntityId, promoted: &[HeldLock]) {
        for h in promoted {
            self.metrics.ops_executed += 1;
            let (from, to) = (self.site_of(entity), self.home_of(h.txn));
            if self.net.active() && from != to {
                self.metrics.messages += 1;
                self.net.send_reliable(from, to, "grant", &mut self.metrics);
            }
        }
    }

    /// Processes every network event due at the current tick: site
    /// crashes (run recovery), restarts (reconcile), and delayed graph
    /// updates (apply + detect).
    pub(crate) fn process_network_events(&mut self) -> Result<(), EngineError> {
        for t in self.net.due_transitions() {
            match t {
                Transition::Down(site) => self.handle_crash(site)?,
                Transition::Up(site, outage) => self.handle_restart(site, outage)?,
            }
        }
        for update in self.net.poll(&mut self.metrics) {
            self.apply_graph_update(update)?;
        }
        if self.config.scheme == CrossSiteScheme::GlobalDetection
            && !self.degraded
            && self.net.now() >= self.next_reconcile_at
        {
            self.next_reconcile_at = self.net.now() + RECONCILE_INTERVAL_TICKS;
            self.reconcile_graphs()?;
        }
        Ok(())
    }

    /// Applies a (possibly late, possibly reordered) waits-for update at
    /// the coordinator. The carried snapshot is ignored in favour of
    /// current lock-table truth (detection re-registers the wait from
    /// it) — together with per-channel sequence numbers this is what
    /// makes reordered updates harmless; an update whose waiter has since
    /// moved on is discarded as stale.
    fn apply_graph_update(&mut self, u: GraphUpdate) -> Result<(), EngineError> {
        let still_blocked =
            self.kernel.txn(u.waiter).is_some_and(|rt| rt.blocked_on == Some(u.entity));
        if !still_blocked {
            self.metrics.stale_updates_discarded += 1;
            return Ok(());
        }
        self.resolve(u.waiter, u.entity, false)
    }

    /// Rebuilds one site's fallback graph from lock-table truth,
    /// restricted to entities homed at that site.
    fn rebuild_fallback_graph(&mut self, site: usize) {
        let mut g = WaitsForGraph::new();
        for entity in self.kernel.table().entities() {
            if usize::from(self.site_of(entity).raw()) == site {
                self.kernel.repoint_waiters(&mut g, entity);
            }
        }
        self.fallback[site] = g;
    }

    /// Rebuilds every maintained waits-for graph from lock-table truth
    /// and re-runs detection for each blocked transaction — the repair
    /// step after lost graph-maintenance messages or a coordinator
    /// outage. Costs one message per blocked transaction (each site
    /// re-reports its waits).
    pub(crate) fn reconcile_graphs(&mut self) -> Result<(), EngineError> {
        self.metrics.reconciliations += 1;
        let now = self.net.now();
        self.net.log(format!("[{now}] reconcile graphs from lock-table truth"));
        for g in &mut self.graphs {
            *g = WaitsForGraph::new();
        }
        for entity in self.kernel.table().entities() {
            let gi = self.graph_index(entity);
            self.kernel.repoint_waiters(&mut self.graphs[gi], entity);
        }
        let blocked: Vec<(TxnId, EntityId)> = self
            .kernel
            .txns()
            .values()
            .filter_map(|rt| rt.blocked_on.map(|entity| (rt.id, entity)))
            .collect();
        self.metrics.messages += blocked.len() as u64;
        if self.config.scheme == CrossSiteScheme::WoundWait {
            return Ok(()); // prevention: wounds happen at request time
        }
        for (txn, entity) in blocked {
            // A no-op if an earlier iteration's resolution already rolled
            // this transaction back to Running.
            self.resolve(txn, entity, false)?;
        }
        Ok(())
    }

    /// Cross-layer consistency sweep used by the chaos harness and the
    /// fault tests: the kernel's table/runtime coherence, per-transaction
    /// workspace integrity, and store consistency.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.kernel.check_invariants()?;
        self.kernel.store().check_consistency().map_err(|e| format!("store: {e}"))?;
        for rt in self.kernel.txns().values() {
            rt.workspace.check_integrity().map_err(|e| format!("{}: {e}", rt.id))?;
        }
        Ok(())
    }

    /// The database.
    pub fn store(&self) -> &GlobalStore {
        self.kernel.store()
    }

    /// The simulated network (fault trace, virtual clock, liveness).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &DistMetrics {
        &self.metrics
    }

    /// A transaction's runtime.
    pub fn txn(&self, id: TxnId) -> Option<&TxnRuntime> {
        self.kernel.txn(id)
    }

    /// A transaction's home site.
    pub fn home(&self, id: TxnId) -> SiteId {
        self.home_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::scheduler::RoundRobin;
    use pr_model::{ProgramBuilder, Value};

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    /// Lock a then b with padding — entities chosen so sites differ under
    /// a 2-site round-robin partition (even ids site0, odd ids site1).
    fn two_lock(a: u32, b: u32, pads: usize) -> TransactionProgram {
        ProgramBuilder::new()
            .lock_exclusive(e(a))
            .write_const(e(a), 1)
            .pad(pads)
            .lock_exclusive(e(b))
            .write_const(e(b), 2)
            .build()
            .unwrap()
    }

    fn sys(scheme: CrossSiteScheme, strategy: StrategyKind) -> DistributedSystem {
        let store = GlobalStore::with_entities(8, Value::new(100));
        DistributedSystem::new(store, DistConfig::new(2, scheme, strategy))
    }

    #[test]
    fn home_site_is_first_locked_entitys_site() {
        let mut s = sys(CrossSiteScheme::GlobalDetection, StrategyKind::Mcs);
        let t1 = s.admit(two_lock(0, 1, 0)).unwrap();
        let t2 = s.admit(two_lock(1, 0, 0)).unwrap();
        assert_eq!(s.home(t1), SiteId::new(0));
        assert_eq!(s.home(t2), SiteId::new(1));
    }

    #[test]
    fn all_schemes_resolve_the_classic_cross_site_deadlock() {
        for scheme in CrossSiteScheme::ALL {
            let mut s = sys(scheme, StrategyKind::Mcs);
            let t1 = s.admit(two_lock(0, 1, 2)).unwrap();
            let t2 = s.admit(two_lock(1, 0, 2)).unwrap();
            // Both take their first lock, then collide.
            s.step(t1).unwrap();
            s.step(t2).unwrap();
            s.run(&mut RoundRobin::new()).unwrap_or_else(|err| panic!("{scheme:?}: {err}"));
            assert!(s.all_committed(), "{scheme:?}");
            // Each entity's final value is the last committer's write —
            // either serial order is correct.
            for ent in [e(0), e(1)] {
                let v = s.store().read(ent).unwrap();
                assert!(v == Value::new(1) || v == Value::new(2), "{scheme:?}: {ent} = {v}");
            }
            assert!(s.metrics().rollbacks() >= 1, "{scheme:?} had to roll someone back");
        }
    }

    #[test]
    fn global_detection_pays_graph_maintenance_messages() {
        let run = |scheme| {
            let mut s = sys(scheme, StrategyKind::Mcs);
            for i in 0..6 {
                let (a, b) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
                s.admit(two_lock(a, b, 2)).unwrap();
            }
            s.run(&mut RoundRobin::new()).unwrap();
            s.metrics().clone()
        };
        let global = run(CrossSiteScheme::GlobalDetection);
        let wound = run(CrossSiteScheme::WoundWait);
        assert!(global.messages > 0 && wound.messages > 0);
        assert_eq!(wound.detected_deadlocks, 0, "prevention never detects");
        assert!(global.detected_deadlocks > 0);
    }

    #[test]
    fn wound_wait_rolls_back_younger_holders_only() {
        let mut s = sys(CrossSiteScheme::WoundWait, StrategyKind::Mcs);
        let t1 = s.admit(two_lock(0, 1, 2)).unwrap(); // older
        let t2 = s.admit(two_lock(1, 0, 2)).unwrap(); // younger
        s.step(t1).unwrap(); // T1 holds a
        s.step(t2).unwrap(); // T2 holds b
                             // T2 (younger) runs up to and including its request of a (held by
                             // the older T1): it waits.
        for _ in 0..4 {
            s.step(t2).unwrap();
        }
        assert_eq!(s.txn(t2).unwrap().phase, Phase::Blocked);
        assert_eq!(s.metrics().wounds, 0);
        // T1 (older) requests b held by T2 (younger): wounds T2.
        for _ in 0..4 {
            s.step(t1).unwrap();
        }
        assert_eq!(s.metrics().wounds, 1);
        assert!(s.txn(t1).unwrap().held.contains(&e(1)), "T1 got b after the wound");
        s.run(&mut RoundRobin::new()).unwrap();
        assert!(s.all_committed());
    }

    #[test]
    fn site_ordered_rolls_back_order_violations() {
        // T1 locks b (site1) then a (site0): waiting for a while holding
        // site1 violates the order whenever a is contested.
        let mut s = sys(CrossSiteScheme::SiteOrdered, StrategyKind::Mcs);
        let t1 = s.admit(two_lock(1, 0, 2)).unwrap(); // b then a: descending
        let t2 = s.admit(two_lock(0, 2, 8)).unwrap(); // holds a a while
        s.step(t2).unwrap(); // T2 holds a
        s.step(t1).unwrap(); // T1 holds b
        for _ in 0..4 {
            s.step(t1).unwrap(); // write, pads, then the request of a
        }
        // T1's request of contested a (site0 < site1 of held b) violates
        // the order: T1 was rolled back instead of enqueued.
        assert_eq!(s.metrics().order_violations, 1);
        assert_eq!(s.txn(t1).unwrap().phase, Phase::Running);
        s.run(&mut RoundRobin::new()).unwrap();
        assert!(s.all_committed());
    }

    #[test]
    fn site_ordered_detects_same_site_cycles_locally() {
        // Entities 0 and 2 both live at site 0 under 2-site round-robin:
        // a same-site deadlock, resolved by the local graph.
        let mut s = sys(CrossSiteScheme::SiteOrdered, StrategyKind::Mcs);
        let t1 = s.admit(two_lock(0, 2, 2)).unwrap();
        let t2 = s.admit(two_lock(2, 0, 2)).unwrap();
        s.step(t1).unwrap();
        s.step(t2).unwrap();
        s.run(&mut RoundRobin::new()).unwrap();
        assert!(s.all_committed());
        assert!(s.metrics().detected_deadlocks >= 1, "local detection fired");
        assert_eq!(s.metrics().order_violations, 0, "same-site locks never violate the order");
    }

    #[test]
    fn remote_operations_cost_messages_local_ones_do_not() {
        let mut s = sys(CrossSiteScheme::WoundWait, StrategyKind::Mcs);
        // Both entities at site 0 (ids 0 and 2), txn homed at site 0: no
        // remote traffic at all.
        let t1 = s.admit(two_lock(0, 2, 0)).unwrap();
        let _ = t1;
        s.run(&mut RoundRobin::new()).unwrap();
        assert_eq!(s.metrics().messages, 0);

        // Cross-site transaction pays for its remote lock.
        let store = GlobalStore::with_entities(8, Value::new(100));
        let mut s = DistributedSystem::new(
            store,
            DistConfig::new(2, CrossSiteScheme::WoundWait, StrategyKind::Mcs),
        );
        s.admit(two_lock(0, 1, 0)).unwrap();
        s.run(&mut RoundRobin::new()).unwrap();
        assert!(s.metrics().messages >= 3, "remote lock + read + release");
    }

    #[test]
    fn distributed_runs_are_deterministic() {
        let run = || {
            let store = GlobalStore::with_entities(8, Value::new(100));
            let mut s = DistributedSystem::new(
                store,
                DistConfig::new(2, CrossSiteScheme::SiteOrdered, StrategyKind::Mcs),
            );
            for i in 0..10 {
                let (a, b) = if i % 2 == 0 { (0, 3) } else { (3, 0) };
                s.admit(two_lock(a, b, 4)).unwrap();
            }
            s.run(&mut RoundRobin::new()).unwrap();
            (s.metrics().clone(), s.store().snapshot())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn distributed_outcomes_match_some_serial_order() {
        // Two conflicting writers: the final value of each entity must be
        // one of the two serial outcomes under every scheme.
        for scheme in CrossSiteScheme::ALL {
            let mut s = sys(scheme, StrategyKind::Sdg);
            let p1 = ProgramBuilder::new()
                .lock_exclusive(e(0))
                .write_const(e(0), 10)
                .pad(2)
                .lock_exclusive(e(1))
                .write_const(e(1), 11)
                .build()
                .unwrap();
            let p2 = ProgramBuilder::new()
                .lock_exclusive(e(1))
                .write_const(e(1), 21)
                .pad(2)
                .lock_exclusive(e(0))
                .write_const(e(0), 20)
                .build()
                .unwrap();
            let t1 = s.admit(p1).unwrap();
            let t2 = s.admit(p2).unwrap();
            s.step(t1).unwrap();
            s.step(t2).unwrap();
            s.run(&mut RoundRobin::new()).unwrap();
            let v0 = s.store().read(e(0)).unwrap().raw();
            let v1 = s.store().read(e(1)).unwrap().raw();
            // Serial T1;T2 → (20, 21); serial T2;T1 → (10, 11).
            assert!(
                (v0, v1) == (20, 21) || (v0, v1) == (10, 11),
                "{scheme:?}: ({v0}, {v1}) is not a serial outcome"
            );
        }
    }

    /// Repair on the distributed engine is Repair, not MCS under another
    /// label: every state a rollback loses is re-walked from the tape, so
    /// the per-transaction ledgers account for exactly `states_lost`,
    /// while commits, final values and rollback depth equal the MCS run's.
    #[test]
    fn repair_ledger_reconciles_and_outcome_equals_mcs() {
        let run = |strategy| {
            let mut s = sys(CrossSiteScheme::GlobalDetection, strategy);
            let t1 = s.admit(two_lock(0, 1, 4)).unwrap();
            let t2 = s.admit(two_lock(1, 0, 4)).unwrap();
            s.step(t1).unwrap();
            s.step(t2).unwrap();
            s.run(&mut RoundRobin::new()).unwrap();
            assert!(s.all_committed(), "{strategy:?}");
            let ledger: u64 = [t1, t2]
                .iter()
                .map(|t| s.txn(*t).unwrap().repair_ops())
                .map(|(replayed, reused)| replayed + reused)
                .sum();
            (ledger, s.metrics().states_lost, s.metrics().commits, s.store().snapshot())
        };
        let (ledger, lost, commits, snapshot) = run(StrategyKind::Repair);
        assert!(lost > 0, "the opposed pair must deadlock");
        assert_eq!(ledger, lost, "every lost state is replayed or reused");
        assert_eq!(run(StrategyKind::Mcs), (0, lost, commits, snapshot));
    }

    #[test]
    fn partial_rollback_beats_total_under_every_scheme() {
        for scheme in CrossSiteScheme::ALL {
            let run = |strategy| {
                let store = GlobalStore::with_entities(8, Value::new(100));
                let mut s = DistributedSystem::new(store, DistConfig::new(2, scheme, strategy));
                for i in 0..8 {
                    let (a, b) = if i % 2 == 0 { (0, 3) } else { (3, 0) };
                    s.admit(two_lock(a, b, 6)).unwrap();
                }
                s.run(&mut RoundRobin::new()).unwrap();
                assert!(s.all_committed());
                s.metrics().clone()
            };
            let total = run(StrategyKind::Total);
            let mcs = run(StrategyKind::Mcs);
            assert!(
                mcs.states_lost <= total.states_lost,
                "{scheme:?}: partial {} vs total {}",
                mcs.states_lost,
                total.states_lost
            );
        }
    }
}
