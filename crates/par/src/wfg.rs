//! The concurrent waits-for graph with epoch-stamped cycle detection.
//!
//! One mutex protects the whole graph plus a monotone **epoch** counter
//! that is bumped on every arc mutation. Three properties make this safe:
//!
//! * **Detection is atomic with registration.** A blocking transaction's
//!   arcs are added and cycles through them detected inside one critical
//!   section, so the thread whose arc closes a cycle always sees that
//!   cycle — a cycle can never form "between" two threads' checks.
//! * **Plans are validated by epoch.** A resolver captures every member's
//!   slot in ascending id order, then re-detects ([`EpochGraph::redetect`])
//!   and records the epoch, and re-reads it before planning. Unchanged
//!   epoch ⇒ no arc changed ⇒ the cycle still stands, and since every
//!   member's slot is held, no member can be promoted or cancelled (any
//!   such change needs a shard mutation that routes through this module
//!   and would have bumped the epoch, and future ones need a member's
//!   release — impossible while the members' slots are held). Stale epoch
//!   ⇒ release the slots and re-detect at once.
//!
//! * **Every cycle has a resolver.** A re-point never closes a cycle
//!   ([`EpochGraph::queue_changed`]), so every cycle is closed by a wait,
//!   whose waiter detects it at registration and keeps resolving and
//!   re-detecting until no cycle passes through it. That is why a waiter
//!   set down as data never needs to re-detect. The `invariants` build tracks the
//!   resolving waiters and asserts the claim after every detection and
//!   queue change.
//!
//! Lock order: the graph mutex is the **innermost** lock — acquired while
//! holding a shard mutex (arc maintenance accompanies queue changes) or
//! nothing, and never acquires anything itself.

use pr_graph::cycles::cycles_on_wait;
use pr_graph::{Cycle, WaitsForGraph};
use pr_lock::{HeldLock, LockTable};
use pr_model::{EntityId, TxnId};
#[cfg(feature = "invariants")]
use std::collections::BTreeSet;
use std::sync::Mutex;

struct Inner {
    graph: WaitsForGraph,
    epoch: u64,
    /// Waiters whose latest detection found cycles: each is resolving
    /// until a later detection finds none or its wait ends.
    #[cfg(feature = "invariants")]
    resolving: BTreeSet<TxnId>,
}

/// The shared waits-for graph.
pub struct EpochGraph {
    inner: Mutex<Inner>,
}

impl Default for EpochGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochGraph {
    /// An empty graph at epoch 0.
    pub fn new() -> Self {
        EpochGraph {
            inner: Mutex::new(Inner {
                graph: WaitsForGraph::new(),
                epoch: 0,
                #[cfg(feature = "invariants")]
                resolving: BTreeSet::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("waits-for graph mutex poisoned")
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Registers `waiter`'s arcs (it waits on `entity` held/blocked by
    /// `holders`) and detects the cycles those arcs close, atomically.
    /// A resolver validates its plan against the epoch of a later
    /// [`Self::redetect`], made while it holds the members' slots.
    pub fn register_and_detect(
        &self,
        waiter: TxnId,
        entity: EntityId,
        holders: &[TxnId],
        cap: usize,
    ) -> Vec<Cycle> {
        let mut inner = self.lock();
        // cycles_on_wait expects the requester's arcs absent (it simulates
        // adding them); a fresh waiter has none.
        let cycles = cycles_on_wait(&inner.graph, waiter, entity, holders, cap);
        inner.graph.set_wait(waiter, entity, holders);
        inner.epoch += 1;
        #[cfg(feature = "invariants")]
        inner.note_detection(waiter, !cycles.is_empty());
        cycles
    }

    /// Re-runs detection for a transaction that is still registered as
    /// waiting — the resolver's check while it holds the members' slots,
    /// and the wait loop's after each resolution attempt. Returns `None`
    /// if the transaction no longer waits (promoted or cancelled
    /// meanwhile).
    /// Arcs are not changed, so the epoch is not bumped.
    pub fn redetect(&self, waiter: TxnId, cap: usize) -> Option<(Vec<Cycle>, u64)> {
        let mut inner = self.lock();
        let (entity, holders) = inner.graph.wait_of(waiter)?;
        inner.graph.clear_wait(waiter);
        let cycles = cycles_on_wait(&inner.graph, waiter, entity, &holders, cap);
        inner.graph.set_wait(waiter, entity, &holders);
        #[cfg(feature = "invariants")]
        inner.note_detection(waiter, !cycles.is_empty());
        Some((cycles, inner.epoch))
    }

    /// Re-synchronises arcs after `entity`'s queue changed in `table`:
    /// `cancelled`'s and every promoted transaction's arcs are dropped
    /// (they no longer wait), and each remaining waiter's arcs are
    /// re-pointed at its current blockers. Must be called while the
    /// caller still holds `entity`'s shard mutex, so the table state and
    /// the graph change atomically with respect to other shard users.
    ///
    /// Re-pointing is silent: it never closes a cycle (the lemma on
    /// `pr_core`'s `Kernel::repoint_waiters`), so no survivor needs to be
    /// made ready to re-detect — only the promoted do, to run. The `invariants`
    /// build asserts the lemma's premise here.
    pub fn queue_changed(
        &self,
        table: &LockTable,
        entity: EntityId,
        cancelled: Option<TxnId>,
        promoted: &[HeldLock],
    ) {
        let mut inner = self.lock();
        if let Some(t) = cancelled {
            inner.graph.clear_wait(t);
        }
        for h in promoted {
            inner.graph.clear_wait(h.txn);
        }
        for w in table.waiters_of(entity) {
            let blockers = table.blockers_of(w.txn, entity);
            #[cfg(feature = "invariants")]
            assert_repoint_closes_no_cycle(&inner.graph, w.txn, &blockers);
            inner.graph.set_wait(w.txn, entity, &blockers);
        }
        inner.epoch += 1;
        #[cfg(feature = "invariants")]
        inner.check_resolvers();
    }

    /// Whether `waiter` is resolving: its latest detection found cycles
    /// and neither a later detection nor the end of its wait has cleared
    /// it. A resolving waiter must not be set down.
    #[cfg(feature = "invariants")]
    pub fn is_resolving(&self, waiter: TxnId) -> bool {
        self.lock().resolving.contains(&waiter)
    }

    /// Number of transactions currently registered as waiting — must be
    /// zero once every worker has committed.
    pub fn waiting_count(&self) -> usize {
        self.lock().graph.waiting_count()
    }

    /// Structural self-check (arc/wait-map coherence). The underlying
    /// graph check is compiled only under the `invariants` feature; the
    /// default build validates quiescence via [`EpochGraph::waiting_count`]
    /// alone.
    pub fn check_consistent(&self) -> Result<(), String> {
        #[cfg(feature = "invariants")]
        {
            self.lock().graph.check_consistent()
        }
        #[cfg(not(feature = "invariants"))]
        {
            Ok(())
        }
    }
}

#[cfg(feature = "invariants")]
impl Inner {
    /// Records whether `waiter`'s latest detection found cycles, then
    /// checks the resolver invariant.
    fn note_detection(&mut self, waiter: TxnId, found: bool) {
        if found {
            self.resolving.insert(waiter);
        } else {
            self.resolving.remove(&waiter);
        }
        self.check_resolvers();
    }

    /// The invariant that lets a waiter be set down with no re-detection
    /// pending: every
    /// cycle passes through a resolving waiter. A waiter whose wait ended
    /// resolves nothing; dropping the waits of those still resolving must
    /// leave the graph acyclic. A cycle without one would stand forever,
    /// since no detection is left to see it.
    fn check_resolvers(&mut self) {
        let graph = &self.graph;
        self.resolving.retain(|&t| graph.is_waiting(t));
        let mut rest = self.graph.clone();
        for &t in &self.resolving {
            rest.clear_wait(t);
        }
        assert!(
            !rest.has_cycle(),
            "a cycle has no resolving waiter (resolving {:?}): {}",
            self.resolving,
            self.graph.render()
        );
    }
}

/// The premise of the re-pointing lemma: a survivor still has a blocker,
/// and every blocker a re-point *adds* to `waiter` is running, not
/// waiting — an arc into a transaction with no outgoing wait closes no
/// cycle, so the silent re-point cannot hide a deadlock.
#[cfg(feature = "invariants")]
fn assert_repoint_closes_no_cycle(graph: &WaitsForGraph, waiter: TxnId, blockers: &[TxnId]) {
    assert!(!blockers.is_empty(), "{waiter}: grantable waiter left in queue");
    let (_, old) = graph.wait_of(waiter).expect("every queued waiter is registered");
    for &b in blockers.iter().filter(|b| !old.contains(b)) {
        assert!(!graph.is_waiting(b), "re-pointing {waiter} added waiting blocker {b}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_lock::{GrantPolicy, RequestOutcome};
    use pr_model::{LockIndex, LockMode, StateIndex};

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }
    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn registration_detects_the_closing_arc() {
        let g = EpochGraph::new();
        assert!(g.register_and_detect(t(1), e(10), &[t(2)], 64).is_empty());
        let e1 = g.epoch();
        // t2 waiting on an entity held by t1 closes the 2-cycle.
        assert_eq!(g.register_and_detect(t(2), e(11), &[t(1)], 64).len(), 1);
        assert!(g.epoch() > e1, "every registration bumps the epoch");
        assert_eq!(g.waiting_count(), 2);
        g.check_consistent().unwrap();
    }

    #[test]
    fn redetect_preserves_arcs_and_epoch() {
        let g = EpochGraph::new();
        g.register_and_detect(t(1), e(10), &[t(2)], 64);
        g.register_and_detect(t(2), e(11), &[t(1)], 64);
        let epoch = g.epoch();
        let (cycles, epoch2) = g.redetect(t(2), 64).expect("t2 waits");
        assert_eq!(cycles.len(), 1);
        assert_eq!(epoch, epoch2, "redetection must not invalidate plans");
        assert!(g.redetect(t(9), 64).is_none());
    }

    #[test]
    fn queue_changed_repoints_survivors_and_bumps_epoch() {
        let mut table = LockTable::with_policy(GrantPolicy::Barging);
        let g = EpochGraph::new();
        // t1 holds e0 exclusively; t2 and t3 queue behind it.
        table.request(t(1), e(0), LockMode::Exclusive, StateIndex::ZERO, LockIndex::ZERO).unwrap();
        for i in [2, 3] {
            let out = table
                .request(t(i), e(0), LockMode::Exclusive, StateIndex::ZERO, LockIndex::ZERO)
                .unwrap();
            match out {
                RequestOutcome::Wait { holders, .. } => {
                    g.register_and_detect(t(i), e(0), &holders, 64);
                }
                RequestOutcome::Granted => panic!("should wait"),
            }
        }
        let before = g.epoch();
        // t1 releases: t2 is promoted; t3's arcs must re-point at t2.
        let promoted = table.release(t(1), e(0)).unwrap();
        assert_eq!(promoted.len(), 1);
        g.queue_changed(&table, e(0), None, &promoted);
        let wait = g.lock().graph.wait_of(t(3));
        assert_eq!(wait, Some((e(0), vec![t(2)])), "t3's blockers moved from t1 to t2");
        assert!(g.epoch() > before);
        assert_eq!(g.waiting_count(), 1);
        g.check_consistent().unwrap();
    }

    /// t1 holds `e0` shared and t2 waits for it exclusively; t3's shared
    /// request barges past t2 and `e0`'s table grants it.
    fn barging_grant(g: &EpochGraph) -> LockTable {
        let mut table = LockTable::with_policy(GrantPolicy::Barging);
        let request = |table: &mut LockTable, i, mode| {
            table.request(t(i), e(0), mode, StateIndex::ZERO, LockIndex::ZERO).unwrap()
        };
        assert_eq!(request(&mut table, 1, LockMode::Shared), RequestOutcome::Granted);
        match request(&mut table, 2, LockMode::Exclusive) {
            RequestOutcome::Wait { holders, .. } => {
                g.register_and_detect(t(2), e(0), &holders, 64);
            }
            RequestOutcome::Granted => panic!("should wait"),
        }
        assert_eq!(request(&mut table, 3, LockMode::Shared), RequestOutcome::Granted);
        table
    }

    #[test]
    fn barging_grant_adds_an_arc_from_the_running_grantee() {
        let g = EpochGraph::new();
        let table = barging_grant(&g);
        let before = g.epoch();
        // The grant adds t3 to t2's blockers; t3 runs, so the re-point
        // closes no cycle and the invariants build's lemma check passes.
        g.queue_changed(&table, e(0), None, &[]);
        assert_eq!(g.lock().graph.wait_of(t(2)), Some((e(0), vec![t(1), t(3)])));
        assert!(g.epoch() > before);
        assert!(g.redetect(t(2), 64).expect("t2 still waits").0.is_empty());
        g.check_consistent().unwrap();
    }

    #[cfg(feature = "invariants")]
    #[test]
    fn the_closing_waiter_resolves_until_its_wait_ends() {
        let g = EpochGraph::new();
        g.register_and_detect(t(1), e(10), &[t(2)], 64);
        assert!(!g.is_resolving(t(1)));
        g.register_and_detect(t(2), e(11), &[t(1)], 64);
        assert!(g.is_resolving(t(2)), "the wait that closed the cycle resolves it");
        assert!(g.redetect(t(2), 64).is_some_and(|(cycles, _)| !cycles.is_empty()));
        assert!(g.is_resolving(t(2)), "a detection that finds the cycle keeps it resolving");
        // t2 is rolled back: its wait ends, and with it the cycle.
        g.queue_changed(&LockTable::with_policy(GrantPolicy::Barging), e(11), Some(t(2)), &[]);
        assert!(!g.is_resolving(t(2)));
    }

    #[cfg(feature = "invariants")]
    #[test]
    #[should_panic(expected = "no resolving waiter")]
    fn resolver_check_rejects_a_cycle_nobody_detected() {
        let g = EpochGraph::new();
        g.register_and_detect(t(1), e(10), &[t(2)], 64);
        // Forge the state the invariant rules out: t2's wait closes the
        // cycle, but no detection saw it.
        g.lock().graph.set_wait(t(2), e(11), &[t(1)]);
        g.queue_changed(&LockTable::with_policy(GrantPolicy::Barging), e(12), None, &[]);
    }

    #[cfg(feature = "invariants")]
    #[test]
    #[should_panic(expected = "added waiting blocker")]
    fn lemma_check_rejects_a_repoint_at_a_waiting_blocker() {
        let g = EpochGraph::new();
        let table = barging_grant(&g);
        // Forge the state the lemma rules out: the grantee is waiting.
        g.register_and_detect(t(3), e(1), &[t(9)], 64);
        g.queue_changed(&table, e(0), None, &[]);
    }
}
