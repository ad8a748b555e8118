//! Per-transaction slots: a mutex-protected [`TxnRuntime`] plus a
//! lock-free wake protocol.
//!
//! Every transaction gets one [`TxnSlot`]. The owning worker thread holds
//! the slot mutex for the whole time it executes the transaction's
//! operations, releasing it only to park, to capture a cycle's slots in
//! id order, or between transactions.
//!
//! Lock-ordering rules (the crate's deadlock-freedom argument):
//!
//! 1. A thread blocking-acquires slot mutexes only while it holds **no
//!    shard or graph mutex**, and only in **ascending transaction-id
//!    order** ([`capture`], debug-asserted): a worker takes its own slot
//!    holding nothing, and a resolver that holds a slot takes only slots
//!    of higher ids — dropping its own first unless its id is the
//!    cycle's lowest.
//! 2. Shard mutexes and the waits-for-graph mutex are acquired strictly
//!    below slot mutexes (slot → shard → graph) and never the other way;
//!    that is the only order between kinds.
//! 3. Shard and graph holders never wait on a slot.
//!
//! So every mutex wait follows one total order — slots by id, then
//! shards, then the graph — and no cycle of waits can form.
//!
//! ## Wakes are never lost
//!
//! * [`TxnSlot::wake`] stores a release [`AtomicBool`] hint and unparks
//!   the claiming thread. It touches no mutex, so it can be called from
//!   anywhere — including while holding shard guards or the target's own
//!   slot guard — and can never be dropped.
//! * [`TxnSlot::park`] re-checks the hint *after* releasing the slot
//!   guard and after every return from the OS park; `std::thread` unpark
//!   permits make the store-check-park interleaving race-free: a wake
//!   arriving between the check and the park leaves a permit, so the park
//!   returns immediately. A permit or unpark without the hint — left by
//!   the thread's earlier transaction, or spurious — parks again.
//!
//! A parked worker is woken only to run — by a releaser promoting its
//! request, or a resolver rolling it back — or to stop, when its batch
//! fails. Re-pointing its arcs at new blockers does not wake it, because
//! a re-point never closes a cycle (the lemma on `pr_core`'s
//! `Kernel::repoint_waiters`). The hint remains a *hint*, not a handoff:
//! waiters re-check the authoritative shard state (am I a holder now?
//! was I rolled back?) whenever they wake. A park has no poll timeout,
//! only a watchdog that turns a liveness bug into a failed run.

use pr_core::runtime::TxnRuntime;
use pr_model::{EntityId, TxnId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Mutable per-transaction state, all behind the slot mutex.
pub struct SlotState {
    /// The transaction's runtime — program counter, lock states,
    /// workspace. Exactly the state the deterministic engine keeps.
    pub rt: TxnRuntime,
    /// Grant stamp per entity, recorded when the lock's acquisition
    /// completed. Conflicting grants on one entity receive stamps in
    /// grant order (a holder's stamp is taken before it releases, and the
    /// next conflicting grant can only happen after that release), so the
    /// serializability oracle can order conflicting accesses by stamp.
    pub stamps: BTreeMap<EntityId, u64>,
    /// When the transaction last blocked, for grant-latency metrics
    /// (microseconds in the parallel engine, not steps).
    pub blocked_since: Option<Instant>,
}

/// One transaction's slot: state + the lock-free wake channel.
pub struct TxnSlot {
    state: Mutex<SlotState>,
    /// The worker thread that claimed this transaction (set once).
    owner: OnceLock<Thread>,
    /// Pending-wake hint; consumed by [`Self::park`].
    hint: AtomicBool,
}

impl TxnSlot {
    /// Wraps a freshly admitted runtime.
    pub fn new(rt: TxnRuntime) -> Self {
        TxnSlot {
            state: Mutex::new(SlotState { rt, stamps: BTreeMap::new(), blocked_since: None }),
            owner: OnceLock::new(),
            hint: AtomicBool::new(false),
        }
    }

    /// Registers the calling worker as the transaction's owner — the
    /// thread [`Self::wake`] will unpark. Each transaction is claimed by
    /// exactly one worker, before it first parks.
    pub fn claim(&self) {
        let _ = self.owner.set(std::thread::current());
    }

    /// Blocking-acquires the slot. Per the ordering rules, callers must
    /// hold no shard or graph mutex, and no slot of a higher id.
    pub fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().expect("slot mutex poisoned")
    }

    /// Parks the claiming thread until [`Self::wake`] sets the hint,
    /// releasing the guard while parked, and returns the re-acquired
    /// guard — or `None` if `watchdog` expires first.
    ///
    /// Must only be called by the thread that [`Self::claim`]ed the slot:
    /// the wake protocol unparks exactly that thread.
    pub fn park<'a>(
        &'a self,
        guard: MutexGuard<'a, SlotState>,
        watchdog: Duration,
    ) -> Option<MutexGuard<'a, SlotState>> {
        drop(guard);
        let deadline = Instant::now() + watchdog;
        while !self.hint.swap(false, Ordering::AcqRel) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            std::thread::park_timeout(left);
        }
        Some(self.lock())
    }

    /// Wakes the transaction's worker: sets the hint and unparks the
    /// claiming thread. Lock-free — safe to call while holding any mutex,
    /// including this slot's own guard — and never dropped.
    pub fn wake(&self) {
        self.hint.store(true, Ordering::Release);
        if let Some(owner) = self.owner.get() {
            owner.unpark();
        }
    }
}

/// Blocking-acquires `slots`, appending their guards to `held`. Ids must
/// ascend strictly, above every id already in `held` — rule 1 above,
/// debug-asserted the way [`crate::shard::Shards::lock_all`] asserts
/// shard order.
pub fn capture<'a>(
    slots: impl IntoIterator<Item = (TxnId, &'a TxnSlot)>,
    held: &mut Vec<(TxnId, MutexGuard<'a, SlotState>)>,
) {
    for (id, slot) in slots {
        debug_assert!(
            held.last().is_none_or(|(last, _)| *last < id),
            "slot capture must ascend by transaction id"
        );
        held.push((id, slot.lock()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::StrategyKind;
    use pr_model::{Op, TransactionProgram};
    use std::sync::Arc;
    use std::time::Duration;

    fn slot() -> TxnSlot {
        let program = TransactionProgram::try_from(vec![Op::Commit]).unwrap();
        let rt = TxnRuntime::new(TxnId::new(1), Arc::new(program), 0, StrategyKind::Total);
        TxnSlot::new(rt)
    }

    /// A member whose slot another thread holds is waited for, not
    /// skipped: the capture blocks until the holder lets go, then holds it.
    #[test]
    fn capture_blocks_until_the_holder_releases() {
        let (a, b) = (slot(), slot());
        let released = AtomicBool::new(false);
        let ready = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let g = b.lock();
                ready.wait();
                std::thread::sleep(Duration::from_millis(5));
                released.store(true, Ordering::SeqCst);
                drop(g);
            });
            ready.wait();
            let mut held = Vec::new();
            capture([(TxnId::new(1), &a), (TxnId::new(2), &b)], &mut held);
            assert!(released.load(Ordering::SeqCst), "capture returned while b was still held");
            assert_eq!(held.iter().map(|(t, _)| t.raw()).collect::<Vec<_>>(), vec![1, 2]);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ascend")]
    fn descending_capture_is_refused() {
        let (a, b) = (slot(), slot());
        capture([(TxnId::new(2), &a), (TxnId::new(1), &b)], &mut Vec::new());
    }

    #[test]
    fn park_times_out_without_wake() {
        let s = slot();
        s.claim();
        let start = Instant::now();
        assert!(s.park(s.lock(), Duration::from_millis(20)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(20), "the watchdog expired early");
    }

    #[test]
    fn wake_before_park_is_consumed_without_sleeping() {
        let s = slot();
        s.claim();
        s.wake();
        let start = Instant::now();
        assert!(s.park(s.lock(), Duration::from_secs(30)).is_some());
        assert!(start.elapsed() < Duration::from_secs(5), "park slept through a pending wake");
    }

    /// Regression test for the contention collapse of a best-effort wake
    /// that was dropped whenever the target's slot mutex was held —
    /// exactly the resolver-handoff window. A wake issued *while the slot
    /// is locked* must make the very next park return immediately.
    #[test]
    fn wake_is_never_lost_even_while_slot_is_busy() {
        let s = slot();
        s.claim();
        let g = s.lock();
        std::thread::scope(|scope| {
            scope.spawn(|| s.wake());
        });
        let start = Instant::now();
        assert!(s.park(g, Duration::from_secs(30)).is_some(), "wake issued while busy was lost");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wake_unparks_a_parked_owner() {
        let s = slot();
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| {
                s.claim();
                s.park(s.lock(), Duration::from_secs(30)).is_some()
            });
            s.wake();
            assert!(parked.join().unwrap(), "wake hint never arrived");
        });
    }

    /// An unpark that carries no hint — spurious, or aimed at the thread
    /// for another reason — does not end the park; the hint then does.
    #[test]
    fn a_bare_unpark_does_not_end_the_park() {
        let s = slot();
        let returned = AtomicBool::new(false);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| {
                s.claim();
                tx.send(std::thread::current()).unwrap();
                let woken = s.park(s.lock(), Duration::from_secs(30)).is_some();
                returned.store(true, Ordering::SeqCst);
                woken
            });
            let owner = rx.recv().unwrap();
            for _ in 0..3 {
                owner.unpark();
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(!returned.load(Ordering::SeqCst), "a bare unpark ended the park");
            s.wake();
            assert!(parked.join().unwrap(), "the hint did not end the park");
        });
    }

    /// A worker thread runs many transactions. A wake that reaches its
    /// earlier transaction after that one stopped waiting leaves an unpark
    /// permit behind; the next transaction's park must not take it for
    /// its own wake.
    #[test]
    fn a_stale_permit_from_an_earlier_transaction_does_not_end_the_park() {
        let (earlier, later) = (slot(), slot());
        earlier.claim();
        later.claim();
        earlier.wake(); // the permit now sits on this thread
        let start = Instant::now();
        assert!(later.park(later.lock(), Duration::from_millis(50)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(50), "the stale permit ended the park");
    }
}
