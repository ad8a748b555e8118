//! Commit-time access history for the differential serializability
//! oracle.
//!
//! Workers record one [`CommittedAccess`] per lock state a committed
//! transaction acquired (2PL validation forbids re-locking an unlocked
//! entity, so there is exactly one per (txn, entity)). The **stamp** is
//! drawn from a global atomic counter when the grant completes; because a
//! holder's stamp is always taken before it releases, and a conflicting
//! grant can only happen after that release, conflicting accesses to one
//! entity carry stamps in true grant order. The oracle sorts by stamp to
//! rebuild each entity's conflict sequence without having observed the
//! run itself.
//!
//! Accesses of rolled-back lock states are never recorded: workers log
//! only at commit, from the lock states that survived.
//!
//! The log mutex is off the hot path entirely: each worker buffers its
//! committed accesses locally and calls [`AccessHistory::commit`] once,
//! when its share of the batch is done — the stamp counter (a lock-free fetch-add) is the only
//! history state touched while transactions run. Sorting happens once,
//! in [`AccessHistory::into_accesses`], never per oracle check.

use pr_model::{EntityId, LockMode, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One committed lock-state access, as the oracle sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommittedAccess {
    /// The committing transaction.
    pub txn: TxnId,
    /// Entity accessed.
    pub entity: EntityId,
    /// Lock mode held — [`LockMode::Exclusive`] accesses are writes for
    /// conflict purposes, [`LockMode::Shared`] are reads.
    pub mode: LockMode,
    /// Global grant-completion stamp; orders conflicting accesses.
    pub stamp: u64,
}

/// The shared access log plus the stamp counter.
#[derive(Default)]
pub struct AccessHistory {
    next: AtomicU64,
    log: Mutex<Vec<CommittedAccess>>,
}

impl AccessHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty history whose first stamp will be `base + 1`.
    ///
    /// Session-mode batches (see [`crate::session::Session`]) thread the
    /// previous batch's final stamp through here, so the concatenated
    /// multi-batch history keeps one strictly increasing stamp clock:
    /// batches execute serially against the shared slab, hence every
    /// cross-batch conflict is correctly ordered by construction.
    pub fn with_base(base: u64) -> Self {
        AccessHistory { next: AtomicU64::new(base), log: Mutex::new(Vec::new()) }
    }

    /// Draws the next grant stamp (strictly increasing, starting one past
    /// the base).
    pub fn next_stamp(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The highest stamp drawn so far (the base, if none were drawn) —
    /// the next batch's stamp base.
    pub fn high_water(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Appends a batch of committed accesses — called once per worker and
    /// batch with its whole buffered log, not per transaction.
    pub fn commit(&self, accesses: Vec<CommittedAccess>) {
        self.log.lock().expect("history mutex poisoned").extend(accesses);
    }

    /// Consumes the history, returning all accesses sorted by stamp.
    pub fn into_accesses(self) -> Vec<CommittedAccess> {
        let mut log = self.log.into_inner().expect("history mutex poisoned");
        log.sort_by_key(|a| a.stamp);
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_strictly_increasing_across_threads() {
        let h = AccessHistory::new();
        let stamps: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..100).map(|_| h.next_stamp()).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().flat_map(|j| j.join().unwrap()).collect()
        });
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), stamps.len(), "stamps must be unique");
        assert_eq!(*sorted.first().unwrap(), 1);
        assert_eq!(*sorted.last().unwrap(), 400);
    }

    #[test]
    fn based_histories_continue_the_stamp_clock() {
        let first = AccessHistory::new();
        assert_eq!(first.next_stamp(), 1);
        assert_eq!(first.next_stamp(), 2);
        assert_eq!(first.high_water(), 2);
        let second = AccessHistory::with_base(first.high_water());
        assert_eq!(second.high_water(), 2, "no stamps drawn yet");
        assert_eq!(second.next_stamp(), 3, "continues strictly above the base");
    }

    #[test]
    fn into_accesses_sorts_by_stamp() {
        let h = AccessHistory::new();
        let a = |txn: u32, stamp: u64| CommittedAccess {
            txn: TxnId::new(txn),
            entity: EntityId::new(0),
            mode: LockMode::Exclusive,
            stamp,
        };
        h.commit(vec![a(2, 5), a(2, 9)]);
        h.commit(vec![a(1, 2)]);
        let log = h.into_accesses();
        assert_eq!(log.iter().map(|x| x.stamp).collect::<Vec<_>>(), vec![2, 5, 9]);
    }
}
