//! The lock table: holders, FIFO waiter queues, grant/release logic.

use crate::conflict::{classify_conflict, ConflictType};
use crate::error::LockError;
use pr_model::{EntityId, LockIndex, LockMode, StateIndex, TxnId};
use std::collections::{BTreeMap, VecDeque};

/// Grant policy: what happens to a *compatible* request while incompatible
/// waiters are queued.
///
/// The paper's response rules (§2) grant any request compatible with the
/// current holders — queue order never defers a grant. That is
/// [`GrantPolicy::Barging`], the default. Under a steady stream of shared
/// requesters it starves exclusive waiters indefinitely;
/// [`GrantPolicy::FairQueue`] trades a little concurrency for bounded
/// waits by refusing new grants that would overtake an incompatible
/// queued waiter. [`GrantPolicy::Ordered`] keeps the fair queue's grant
/// semantics and additionally signals to the engine that the workload
/// carries a certified total entity acquisition order (see
/// [`crate::order`]), letting it skip deadlock-detection bookkeeping for
/// requests the certificate vouches for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GrantPolicy {
    /// Paper-faithful (§2): a request compatible with the holders is
    /// granted immediately, even past blocked incompatible waiters.
    #[default]
    Barging,
    /// Anti-starvation: a request is granted only if it is compatible with
    /// the holders *and* no incompatible request is queued ahead of it;
    /// promotion proceeds strictly from the queue front.
    FairQueue,
    /// Certified ordered acquisition: fair-queue grant semantics, with the
    /// engine skipping deadlock detection for transactions covered by an
    /// installed [`crate::order::EntityOrder`]. Uncovered transactions
    /// fall back to the paper's partial-rollback machinery unchanged.
    Ordered,
}

impl GrantPolicy {
    /// The general-purpose policies, for sweeps. `Ordered` is excluded:
    /// it is only meaningful with a certificate installed, so sweeps that
    /// compare it opt in explicitly.
    pub const ALL: [GrantPolicy; 2] = [GrantPolicy::Barging, GrantPolicy::FairQueue];

    /// Stable lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            GrantPolicy::Barging => "barging",
            GrantPolicy::FairQueue => "fair-queue",
            GrantPolicy::Ordered => "ordered",
        }
    }

    /// Parses a policy name as the CLI bins spell it — the inverse of
    /// [`GrantPolicy::name`], shared by every bin that takes one.
    pub fn parse(name: &str) -> Option<GrantPolicy> {
        match name {
            "barging" => Some(GrantPolicy::Barging),
            "fair-queue" => Some(GrantPolicy::FairQueue),
            "ordered" => Some(GrantPolicy::Ordered),
            _ => None,
        }
    }

    /// Whether grants respect queue order: a request is refused while an
    /// incompatible request is queued ahead of it, and promotion stops at
    /// the first blocked waiter. True for every policy except the
    /// paper-faithful [`GrantPolicy::Barging`].
    pub fn queues_fairly(self) -> bool {
        self != GrantPolicy::Barging
    }
}

/// A granted lock, with the §3.1 cost-bookkeeping metadata: the state index
/// from which the transaction issued the request ("the last state … in
/// which T does not hold a lock on A") and the lock index of the lock state
/// the request created.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HeldLock {
    /// Holder.
    pub txn: TxnId,
    /// Mode held.
    pub mode: LockMode,
    /// State index the holder was at when it requested the lock — rolling
    /// back to this state releases the lock; the rollback cost of §3.1 is
    /// `current state − this`.
    pub requested_from_state: StateIndex,
    /// Lock index of the lock state this request created.
    pub lock_state: LockIndex,
}

/// A pending request, carrying the same metadata so it can be promoted to
/// a [`HeldLock`] unchanged when granted (a blocked transaction does not
/// advance, so the values stay correct while it waits).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WaitingRequest {
    /// Requester.
    pub txn: TxnId,
    /// Mode requested.
    pub mode: LockMode,
    /// State index at request time.
    pub requested_from_state: StateIndex,
    /// Lock index the lock state will have when granted.
    pub lock_state: LockIndex,
}

impl WaitingRequest {
    fn into_held(self) -> HeldLock {
        HeldLock {
            txn: self.txn,
            mode: self.mode,
            requested_from_state: self.requested_from_state,
            lock_state: self.lock_state,
        }
    }
}

/// Outcome of a lock request (§2's response rules 1 and 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RequestOutcome {
    /// Rule 1: no conflicting holder; the lock is granted immediately.
    Granted,
    /// Rule 2: the requester must wait on the listed blockers. Under
    /// [`GrantPolicy::Barging`] these are exactly the incompatible holders
    /// — the new arcs of the concurrency graph; under
    /// [`GrantPolicy::FairQueue`] they additionally include incompatible
    /// requests queued ahead.
    Wait {
        /// Transactions the requester now waits for (incompatible holders
        /// first, then — fair queue only — incompatible queued waiters).
        holders: Vec<TxnId>,
        /// §3.2 classification of the conflict.
        conflict: ConflictType,
    },
}

#[derive(Clone, Debug, Default)]
struct EntityLock {
    holders: Vec<HeldLock>,
    queue: VecDeque<WaitingRequest>,
}

impl EntityLock {
    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }

    fn incompatible_holders(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.holders
            .iter()
            .filter(|h| h.txn != txn && !mode.compatible_with(h.mode))
            .map(|h| h.txn)
            .collect()
    }

    /// Incompatible requests queued ahead of position `before` (fair-queue
    /// blockers beyond the holders).
    fn incompatible_queued(&self, mode: LockMode, before: usize) -> Vec<TxnId> {
        self.queue
            .iter()
            .take(before)
            .filter(|w| !mode.compatible_with(w.mode))
            .map(|w| w.txn)
            .collect()
    }

    /// Position of `txn`'s pending request in the FIFO queue, if any — the
    /// single source of truth for queue-position lookups (`blockers_of`,
    /// `waiting_on`, and the invariant check all go through here).
    fn queue_position(&self, txn: TxnId) -> Option<usize> {
        self.queue.iter().position(|w| w.txn == txn)
    }

    /// The transactions blocking the request queued at `pos` under
    /// `policy`: the incompatible holders, plus — fair queue only — the
    /// incompatible requests queued ahead of it. An empty result means the
    /// request is grantable.
    fn blockers_at(&self, pos: usize, policy: GrantPolicy) -> Vec<TxnId> {
        let w = &self.queue[pos];
        let mut blockers = self.incompatible_holders(w.txn, w.mode);
        if policy.queues_fairly() {
            blockers.extend(self.incompatible_queued(w.mode, pos));
        }
        blockers
    }
}

/// The lock manager.
///
/// ```
/// use pr_lock::{LockTable, RequestOutcome};
/// use pr_model::{EntityId, LockIndex, LockMode, StateIndex, TxnId};
///
/// let mut table = LockTable::new();
/// let (t1, t2, a) = (TxnId::new(1), TxnId::new(2), EntityId::new(0));
/// let grant = |tbl: &mut LockTable, t| {
///     tbl.request(t, a, LockMode::Exclusive, StateIndex::ZERO, LockIndex::ZERO).unwrap()
/// };
/// assert_eq!(grant(&mut table, t1), RequestOutcome::Granted);
/// // T2 must wait on the exclusive holder T1…
/// assert!(matches!(grant(&mut table, t2), RequestOutcome::Wait { .. }));
/// // …and is promoted when T1 releases.
/// let promoted = table.release(t1, a).unwrap();
/// assert_eq!(promoted[0].txn, t2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    entities: BTreeMap<EntityId, EntityLock>,
    /// Grant policy (fixed at construction).
    policy: GrantPolicy,
}

impl LockTable {
    /// Creates an empty lock table with the paper-faithful
    /// [`GrantPolicy::Barging`] policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty lock table with an explicit grant policy.
    pub fn with_policy(policy: GrantPolicy) -> Self {
        LockTable { policy, ..Self::default() }
    }

    /// The table's grant policy.
    pub fn policy(&self) -> GrantPolicy {
        self.policy
    }

    /// Processes a lock request per §2: grants it if no conflicting lock is
    /// held (and — under [`GrantPolicy::FairQueue`] — no incompatible
    /// request is queued), otherwise enqueues the requester and reports the
    /// blockers it must wait for.
    pub fn request(
        &mut self,
        txn: TxnId,
        entity: EntityId,
        mode: LockMode,
        requested_from_state: StateIndex,
        lock_state: LockIndex,
    ) -> Result<RequestOutcome, LockError> {
        let policy = self.policy;
        let slot = self.entities.entry(entity).or_default();
        if slot.holders.iter().any(|h| h.txn == txn) {
            return Err(LockError::AlreadyHeld { txn, entity });
        }
        if slot.queue.iter().any(|w| w.txn == txn) {
            return Err(LockError::AlreadyWaiting { txn, entity });
        }
        let mut blockers = Vec::new();
        let mut blocker_modes = Vec::new();
        for h in slot.holders.iter().filter(|h| h.txn != txn && !mode.compatible_with(h.mode)) {
            blockers.push(h.txn);
            blocker_modes.push(h.mode);
        }
        if policy.queues_fairly() {
            // The new request joins the back, so every incompatible queued
            // request is ahead of it and blocks it.
            for w in slot.queue.iter().filter(|w| !mode.compatible_with(w.mode)) {
                blockers.push(w.txn);
                blocker_modes.push(w.mode);
            }
        }
        if blockers.is_empty() {
            slot.holders.push(HeldLock { txn, mode, requested_from_state, lock_state });
            Ok(RequestOutcome::Granted)
        } else {
            let conflict =
                classify_conflict(mode, &blocker_modes).expect("blockers imply a conflict");
            slot.queue.push_back(WaitingRequest { txn, mode, requested_from_state, lock_state });
            Ok(RequestOutcome::Wait { holders: blockers, conflict })
        }
    }

    /// Releases the lock `txn` holds on `entity` and grants every waiter
    /// that is now compatible, in FIFO order. Returns the promoted
    /// requests.
    pub fn release(&mut self, txn: TxnId, entity: EntityId) -> Result<Vec<HeldLock>, LockError> {
        let slot = self.entities.get_mut(&entity).ok_or(LockError::NotHeld { txn, entity })?;
        let before = slot.holders.len();
        slot.holders.retain(|h| h.txn != txn);
        if slot.holders.len() == before {
            return Err(LockError::NotHeld { txn, entity });
        }
        let granted = Self::drain_grantable(slot, self.policy);
        if self.entities.get(&entity).is_some_and(EntityLock::is_idle) {
            self.entities.remove(&entity);
        }
        Ok(granted)
    }

    /// Cancels `txn`'s pending request on `entity` (used when a waiter is
    /// chosen as a rollback victim). Other waiters may become grantable —
    /// removing an exclusive waiter can unblock nothing under barging
    /// holder-only granting, but it routinely unblocks successors under
    /// the fair queue, and the re-scan keeps the invariant simple.
    pub fn cancel_wait(
        &mut self,
        txn: TxnId,
        entity: EntityId,
    ) -> Result<Vec<HeldLock>, LockError> {
        let slot = self.entities.get_mut(&entity).ok_or(LockError::NotWaiting { txn, entity })?;
        let before = slot.queue.len();
        slot.queue.retain(|w| w.txn != txn);
        if slot.queue.len() == before {
            return Err(LockError::NotWaiting { txn, entity });
        }
        let granted = Self::drain_grantable(slot, self.policy);
        if self.entities.get(&entity).is_some_and(EntityLock::is_idle) {
            self.entities.remove(&entity);
        }
        Ok(granted)
    }

    /// Grants queued requests that are compatible with the current holders,
    /// scanning in FIFO order. Under [`GrantPolicy::Barging`] the whole
    /// queue is scanned — per the paper's rules a compatible request never
    /// waits, so a shared waiter may be promoted past a blocked exclusive
    /// one. Under [`GrantPolicy::FairQueue`] the scan stops at the first
    /// still-blocked waiter: nobody overtakes it.
    fn drain_grantable(slot: &mut EntityLock, policy: GrantPolicy) -> Vec<HeldLock> {
        let mut granted = Vec::new();
        let mut i = 0;
        while i < slot.queue.len() {
            let w = slot.queue[i];
            if slot.incompatible_holders(w.txn, w.mode).is_empty() {
                let held = slot.queue.remove(i).expect("index in range").into_held();
                slot.holders.push(held);
                granted.push(held);
            } else if policy.queues_fairly() {
                break;
            } else {
                i += 1;
            }
        }
        granted
    }

    /// Transactions currently holding a lock on `entity`.
    pub fn holders_of(&self, entity: EntityId) -> Vec<TxnId> {
        self.entities
            .get(&entity)
            .map(|s| s.holders.iter().map(|h| h.txn).collect())
            .unwrap_or_default()
    }

    /// Full holder records for `entity`.
    pub fn holder_records(&self, entity: EntityId) -> Vec<HeldLock> {
        self.entities.get(&entity).map(|s| s.holders.clone()).unwrap_or_default()
    }

    /// The lock `txn` holds on `entity`, if any.
    pub fn held_by(&self, txn: TxnId, entity: EntityId) -> Option<HeldLock> {
        self.entities.get(&entity)?.holders.iter().find(|h| h.txn == txn).copied()
    }

    /// The pending request `txn` has on `entity`, if any.
    pub fn waiting_on(&self, txn: TxnId, entity: EntityId) -> Option<WaitingRequest> {
        let slot = self.entities.get(&entity)?;
        let pos = slot.queue_position(txn)?;
        slot.queue.get(pos).copied()
    }

    /// All pending requests on `entity`, FIFO order.
    pub fn waiters_of(&self, entity: EntityId) -> Vec<WaitingRequest> {
        self.entities.get(&entity).map(|s| s.queue.iter().copied().collect()).unwrap_or_default()
    }

    /// Current wait-queue depth for `entity`.
    pub fn queue_depth(&self, entity: EntityId) -> usize {
        self.entities.get(&entity).map(|s| s.queue.len()).unwrap_or(0)
    }

    /// The transactions currently blocking `txn`'s queued request on
    /// `entity` under the table's grant policy: the incompatible holders,
    /// plus — fair queue only — incompatible requests queued ahead of it.
    /// Empty if `txn` has no pending request there. This is the arc set
    /// the waits-for graph must carry for `txn`.
    pub fn blockers_of(&self, txn: TxnId, entity: EntityId) -> Vec<TxnId> {
        let Some(slot) = self.entities.get(&entity) else {
            return Vec::new();
        };
        let Some(pos) = slot.queue_position(txn) else {
            return Vec::new();
        };
        slot.blockers_at(pos, self.policy)
    }

    /// Number of entities with at least one holder or waiter.
    pub fn active_entities(&self) -> usize {
        self.entities.len()
    }

    /// Whether `entity` has any holder or waiter. Idle entities are
    /// garbage-collected by [`Self::release`] / [`Self::cancel_wait`], so
    /// this doubles as the *queue-flag handoff* predicate for pr-par's
    /// optimistic fast path: an inflated entity may be handed back to the
    /// lock-word path exactly when this returns `false`, because absence
    /// from the table means no grant or wakeup can be pending here.
    pub fn is_active(&self, entity: EntityId) -> bool {
        self.entities.contains_key(&entity)
    }

    /// Entities with at least one holder or waiter, in id order.
    pub fn entities(&self) -> Vec<EntityId> {
        self.entities.keys().copied().collect()
    }

    /// Installs a grant made outside the table — pr-par's inflation, which
    /// moves a lock word's fast-path holders into the table with their
    /// §4 metadata. Fails if the holder is already registered or the grant
    /// would conflict with a current holder.
    pub fn reinstate(&mut self, entity: EntityId, held: HeldLock) -> Result<(), LockError> {
        let slot = self.entities.entry(entity).or_default();
        if slot.holders.iter().any(|h| h.txn == held.txn) {
            return Err(LockError::AlreadyHeld { txn: held.txn, entity });
        }
        if slot.holders.iter().any(|h| !held.mode.compatible_with(h.mode)) {
            return Err(LockError::AlreadyHeld { txn: held.txn, entity });
        }
        slot.holders.push(held);
        Ok(())
    }

    /// Internal invariant check for tests: no transaction both holds and
    /// waits on the same entity; every holder set is mode-consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (entity, slot) in &self.entities {
            let exclusive = slot.holders.iter().filter(|h| h.mode == LockMode::Exclusive).count();
            if exclusive > 1 {
                return Err(format!("{entity}: multiple exclusive holders"));
            }
            if exclusive == 1 && slot.holders.len() > 1 {
                return Err(format!("{entity}: exclusive holder coexists with others"));
            }
            for (pos, w) in slot.queue.iter().enumerate() {
                if slot.holders.iter().any(|h| h.txn == w.txn) {
                    return Err(format!("{entity}: {} both holds and waits", w.txn));
                }
                // A waiter must be blocked by a holder — or, fair queue
                // only, by an incompatible request queued ahead of it.
                if slot.blockers_at(pos, self.policy).is_empty() {
                    return Err(format!("{entity}: grantable request left waiting"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }
    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }
    fn req(
        tbl: &mut LockTable,
        txn: u32,
        ent: u32,
        mode: LockMode,
    ) -> Result<RequestOutcome, LockError> {
        tbl.request(t(txn), e(ent), mode, StateIndex::new(0), LockIndex::new(0))
    }

    #[test]
    fn exclusive_then_exclusive_waits() {
        let mut tbl = LockTable::new();
        assert_eq!(req(&mut tbl, 1, 0, LockMode::Exclusive).unwrap(), RequestOutcome::Granted);
        match req(&mut tbl, 2, 0, LockMode::Exclusive).unwrap() {
            RequestOutcome::Wait { holders, conflict } => {
                assert_eq!(holders, vec![t(1)]);
                assert_eq!(conflict, ConflictType::Type2);
            }
            other => panic!("expected wait, got {other:?}"),
        }
        tbl.check_invariants().unwrap();
    }

    #[test]
    fn shared_locks_coexist() {
        let mut tbl = LockTable::new();
        assert_eq!(req(&mut tbl, 1, 0, LockMode::Shared).unwrap(), RequestOutcome::Granted);
        assert_eq!(req(&mut tbl, 2, 0, LockMode::Shared).unwrap(), RequestOutcome::Granted);
        assert_eq!(tbl.holders_of(e(0)), vec![t(1), t(2)]);
        tbl.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_request_waits_on_all_shared_holders() {
        let mut tbl = LockTable::new();
        req(&mut tbl, 1, 0, LockMode::Shared).unwrap();
        req(&mut tbl, 2, 0, LockMode::Shared).unwrap();
        match req(&mut tbl, 3, 0, LockMode::Exclusive).unwrap() {
            RequestOutcome::Wait { holders, conflict } => {
                assert_eq!(holders, vec![t(1), t(2)]);
                assert_eq!(conflict, ConflictType::Type2);
            }
            other => panic!("expected wait, got {other:?}"),
        }
    }

    #[test]
    fn shared_request_vs_exclusive_holder_is_type1() {
        let mut tbl = LockTable::new();
        req(&mut tbl, 1, 0, LockMode::Exclusive).unwrap();
        match req(&mut tbl, 2, 0, LockMode::Shared).unwrap() {
            RequestOutcome::Wait { holders, conflict } => {
                assert_eq!(holders, vec![t(1)]);
                assert_eq!(conflict, ConflictType::Type1);
            }
            other => panic!("expected wait, got {other:?}"),
        }
    }

    #[test]
    fn release_promotes_fifo_waiter() {
        let mut tbl = LockTable::new();
        req(&mut tbl, 1, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 2, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 3, 0, LockMode::Exclusive).unwrap();
        let granted = tbl.release(t(1), e(0)).unwrap();
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].txn, t(2));
        assert_eq!(tbl.holders_of(e(0)), vec![t(2)]);
        assert!(tbl.waiting_on(t(3), e(0)).is_some());
        tbl.check_invariants().unwrap();
    }

    #[test]
    fn release_promotes_shared_batch() {
        let mut tbl = LockTable::new();
        req(&mut tbl, 1, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 2, 0, LockMode::Shared).unwrap();
        req(&mut tbl, 3, 0, LockMode::Shared).unwrap();
        let granted = tbl.release(t(1), e(0)).unwrap();
        assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(2), t(3)]);
        tbl.check_invariants().unwrap();
    }

    #[test]
    fn shared_waiter_passes_blocked_exclusive_waiter() {
        // Paper semantics: compatible requests are granted regardless of
        // queue order. S2 holds shared; X3 waits; S4's request is granted
        // immediately despite X3 waiting.
        let mut tbl = LockTable::new();
        req(&mut tbl, 2, 0, LockMode::Shared).unwrap();
        assert!(matches!(
            req(&mut tbl, 3, 0, LockMode::Exclusive).unwrap(),
            RequestOutcome::Wait { .. }
        ));
        assert_eq!(req(&mut tbl, 4, 0, LockMode::Shared).unwrap(), RequestOutcome::Granted);
        tbl.check_invariants().unwrap();
    }

    #[test]
    fn cancel_wait_removes_pending_request() {
        let mut tbl = LockTable::new();
        req(&mut tbl, 1, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 2, 0, LockMode::Exclusive).unwrap();
        let granted = tbl.cancel_wait(t(2), e(0)).unwrap();
        assert!(granted.is_empty());
        assert!(tbl.waiting_on(t(2), e(0)).is_none());
        // Releasing now grants nobody.
        assert!(tbl.release(t(1), e(0)).unwrap().is_empty());
        assert_eq!(tbl.active_entities(), 0);
    }

    #[test]
    fn cancelling_blocked_exclusive_lets_release_grant_shared() {
        let mut tbl = LockTable::new();
        req(&mut tbl, 1, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 2, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 3, 0, LockMode::Shared).unwrap();
        tbl.cancel_wait(t(2), e(0)).unwrap();
        let granted = tbl.release(t(1), e(0)).unwrap();
        assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(3)]);
    }

    #[test]
    fn double_request_and_bad_release_error() {
        let mut tbl = LockTable::new();
        req(&mut tbl, 1, 0, LockMode::Shared).unwrap();
        assert_eq!(
            req(&mut tbl, 1, 0, LockMode::Shared),
            Err(LockError::AlreadyHeld { txn: t(1), entity: e(0) })
        );
        req(&mut tbl, 2, 0, LockMode::Exclusive).unwrap();
        assert_eq!(
            req(&mut tbl, 2, 0, LockMode::Exclusive),
            Err(LockError::AlreadyWaiting { txn: t(2), entity: e(0) })
        );
        assert_eq!(tbl.release(t(3), e(0)), Err(LockError::NotHeld { txn: t(3), entity: e(0) }));
        assert_eq!(
            tbl.cancel_wait(t(3), e(0)),
            Err(LockError::NotWaiting { txn: t(3), entity: e(0) })
        );
        assert_eq!(
            tbl.cancel_wait(t(3), e(9)),
            Err(LockError::NotWaiting { txn: t(3), entity: e(9) })
        );
    }

    #[test]
    fn metadata_travels_from_request_to_grant() {
        let mut tbl = LockTable::new();
        tbl.request(t(1), e(0), LockMode::Exclusive, StateIndex::new(5), LockIndex::new(2))
            .unwrap();
        tbl.request(t(2), e(0), LockMode::Exclusive, StateIndex::new(8), LockIndex::new(3))
            .unwrap();
        let held = tbl.held_by(t(1), e(0)).unwrap();
        assert_eq!(held.requested_from_state, StateIndex::new(5));
        assert_eq!(held.lock_state, LockIndex::new(2));
        let granted = tbl.release(t(1), e(0)).unwrap();
        assert_eq!(granted[0].requested_from_state, StateIndex::new(8));
        assert_eq!(granted[0].lock_state, LockIndex::new(3));
    }

    #[test]
    fn grant_policy_parse_round_trips_every_name() {
        for policy in [GrantPolicy::Barging, GrantPolicy::FairQueue, GrantPolicy::Ordered] {
            assert_eq!(GrantPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(GrantPolicy::parse("fair"), None);
        assert_eq!(GrantPolicy::parse(""), None);
    }

    #[test]
    fn idle_entities_are_garbage_collected() {
        let mut tbl = LockTable::new();
        req(&mut tbl, 1, 0, LockMode::Shared).unwrap();
        req(&mut tbl, 1, 1, LockMode::Shared).unwrap();
        assert_eq!(tbl.active_entities(), 2);
        tbl.release(t(1), e(0)).unwrap();
        tbl.release(t(1), e(1)).unwrap();
        assert_eq!(tbl.active_entities(), 0);
    }

    #[test]
    fn fair_queue_refuses_shared_grant_behind_exclusive_waiter() {
        // Mirror of `shared_waiter_passes_blocked_exclusive_waiter`: with
        // the fair queue, S4 queues behind X3 instead of barging, and its
        // wait arcs point at the queued X3, not at any holder.
        let mut tbl = LockTable::with_policy(GrantPolicy::FairQueue);
        req(&mut tbl, 2, 0, LockMode::Shared).unwrap();
        assert!(matches!(
            req(&mut tbl, 3, 0, LockMode::Exclusive).unwrap(),
            RequestOutcome::Wait { .. }
        ));
        match req(&mut tbl, 4, 0, LockMode::Shared).unwrap() {
            RequestOutcome::Wait { holders, conflict } => {
                assert_eq!(holders, vec![t(3)]);
                assert_eq!(conflict, ConflictType::Type1);
            }
            other => panic!("expected wait, got {other:?}"),
        }
        assert_eq!(tbl.blockers_of(t(4), e(0)), vec![t(3)]);
        assert_eq!(tbl.blockers_of(t(3), e(0)), vec![t(2)]);
        assert_eq!(tbl.queue_depth(e(0)), 2);
        tbl.check_invariants().unwrap();
        // S2 releases: X3 is promoted alone; S4 stays queued behind it.
        let granted = tbl.release(t(2), e(0)).unwrap();
        assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(3)]);
        assert_eq!(tbl.blockers_of(t(4), e(0)), vec![t(3)]);
        tbl.check_invariants().unwrap();
        // X3 releases: now S4 gets the lock.
        let granted = tbl.release(t(3), e(0)).unwrap();
        assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(4)]);
    }

    #[test]
    fn fair_queue_drain_stops_at_blocked_front_waiter() {
        // Queue [X2, S3] behind holder X1: releasing X1 promotes only X2;
        // the drain stops at S3, which is incompatible with new holder X2.
        let mut tbl = LockTable::with_policy(GrantPolicy::FairQueue);
        req(&mut tbl, 1, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 2, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 3, 0, LockMode::Shared).unwrap();
        let granted = tbl.release(t(1), e(0)).unwrap();
        assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(2)]);
        assert!(tbl.waiting_on(t(3), e(0)).is_some());
        tbl.check_invariants().unwrap();
    }

    /// Regression for the writer-starvation bug: a continuous stream of
    /// overlapping shared requesters starves one exclusive waiter forever
    /// under `Barging`, but the waiter is granted within a small bounded
    /// number of rounds under `FairQueue`.
    #[test]
    fn continuous_shared_stream_starves_writer_only_under_barging() {
        // One round = a fresh shared requester arrives, then the oldest
        // shared holder releases. The reader population never drops to
        // zero, so under barging the exclusive waiter never sees an empty
        // holder set.
        let writer = 1000u32;
        let rounds = 200u32;
        let run = |policy: GrantPolicy| -> Option<u32> {
            let mut tbl = LockTable::with_policy(policy);
            req(&mut tbl, 1, 0, LockMode::Shared).unwrap();
            assert!(matches!(
                req(&mut tbl, writer, 0, LockMode::Exclusive).unwrap(),
                RequestOutcome::Wait { .. }
            ));
            let mut live: VecDeque<u32> = VecDeque::from([1]);
            for round in 0..rounds {
                let newcomer = 2 + round;
                let _ = req(&mut tbl, newcomer, 0, LockMode::Shared).unwrap();
                if tbl.held_by(t(newcomer), e(0)).is_some() {
                    live.push_back(newcomer);
                }
                let oldest = live.pop_front().expect("stream keeps at least one reader");
                for h in tbl.release(t(oldest), e(0)).unwrap() {
                    if h.txn == t(writer) {
                        return Some(round);
                    }
                    live.push_back(h.txn.raw());
                }
                tbl.check_invariants().unwrap();
            }
            None
        };
        assert_eq!(run(GrantPolicy::Barging), None, "barging must starve the writer");
        let granted_at = run(GrantPolicy::FairQueue).expect("fair queue must grant the writer");
        assert!(granted_at <= 1, "writer granted in round {granted_at}, expected ≤ 1");
    }

    /// FIFO order must survive a mid-queue abort: with holder X1 and
    /// queue [X2, X3, X4], cancelling X3 (a rollback victim) must leave
    /// the survivors' relative order intact — X2 is promoted first, then
    /// X4 — under both grant policies. Pins the behaviour of the shared
    /// queue-position helper after a `retain` reshuffles indices.
    #[test]
    fn fifo_order_survives_mid_queue_abort() {
        for policy in [GrantPolicy::Barging, GrantPolicy::FairQueue, GrantPolicy::Ordered] {
            let mut tbl = LockTable::with_policy(policy);
            req(&mut tbl, 1, 0, LockMode::Exclusive).unwrap();
            req(&mut tbl, 2, 0, LockMode::Exclusive).unwrap();
            req(&mut tbl, 3, 0, LockMode::Exclusive).unwrap();
            req(&mut tbl, 4, 0, LockMode::Exclusive).unwrap();
            // Mid-queue abort: X3 is cancelled; nothing becomes grantable
            // (X1 still holds), and the survivors close ranks.
            assert!(tbl.cancel_wait(t(3), e(0)).unwrap().is_empty());
            assert_eq!(
                tbl.waiters_of(e(0)).iter().map(|w| w.txn).collect::<Vec<_>>(),
                vec![t(2), t(4)],
                "{policy:?}: survivors must keep FIFO order"
            );
            // The blocker sets reflect the compacted queue: X2 waits only
            // on the holder; X4 waits on the holder (barging) or on the
            // holder *and* X2 (fair queue).
            assert_eq!(tbl.blockers_of(t(2), e(0)), vec![t(1)]);
            let x4_blockers = tbl.blockers_of(t(4), e(0));
            match policy {
                GrantPolicy::Barging => assert_eq!(x4_blockers, vec![t(1)]),
                GrantPolicy::FairQueue | GrantPolicy::Ordered => {
                    assert_eq!(x4_blockers, vec![t(1), t(2)])
                }
            }
            tbl.check_invariants().unwrap();
            // Promotions proceed strictly in surviving FIFO order.
            let granted = tbl.release(t(1), e(0)).unwrap();
            assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(2)]);
            let granted = tbl.release(t(2), e(0)).unwrap();
            assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(4)]);
            tbl.check_invariants().unwrap();
        }
    }

    #[test]
    fn ordered_policy_queues_fairly_at_the_table() {
        // `Ordered` adds engine-side semantics (certificate fast path);
        // at the lock table it must behave exactly like the fair queue:
        // S4 queues behind the blocked X3 instead of barging past it.
        let mut tbl = LockTable::with_policy(GrantPolicy::Ordered);
        assert!(GrantPolicy::Ordered.queues_fairly());
        assert_eq!(GrantPolicy::Ordered.name(), "ordered");
        req(&mut tbl, 2, 0, LockMode::Shared).unwrap();
        assert!(matches!(
            req(&mut tbl, 3, 0, LockMode::Exclusive).unwrap(),
            RequestOutcome::Wait { .. }
        ));
        assert!(matches!(
            req(&mut tbl, 4, 0, LockMode::Shared).unwrap(),
            RequestOutcome::Wait { .. }
        ));
        assert_eq!(tbl.blockers_of(t(4), e(0)), vec![t(3)]);
        let granted = tbl.release(t(2), e(0)).unwrap();
        assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(3)]);
        tbl.check_invariants().unwrap();
    }

    #[test]
    fn fair_queue_cancel_of_blocking_waiter_unblocks_successors() {
        // Holder S1, queue [X2, S3]: cancelling X2 must promote S3 even
        // though no lock was released.
        let mut tbl = LockTable::with_policy(GrantPolicy::FairQueue);
        req(&mut tbl, 1, 0, LockMode::Shared).unwrap();
        req(&mut tbl, 2, 0, LockMode::Exclusive).unwrap();
        req(&mut tbl, 3, 0, LockMode::Shared).unwrap();
        let granted = tbl.cancel_wait(t(2), e(0)).unwrap();
        assert_eq!(granted.iter().map(|h| h.txn).collect::<Vec<_>>(), vec![t(3)]);
        tbl.check_invariants().unwrap();
    }
}
