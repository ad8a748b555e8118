//! Per-transaction slots: a mutex-protected [`TxnRuntime`] plus whether
//! a worker owns it.
//!
//! Every transaction gets one [`TxnSlot`]. A worker holds the slot mutex
//! while it executes the transaction's operations, releasing it only to
//! capture a cycle's slots in id order, or when the transaction commits
//! or is set down waiting. A set-down transaction is *parked*: it is not
//! [`owned`](SlotState::owned), and whichever worker pops its ready entry
//! (see [`crate::engine`]) takes the mutex and decides, from the state
//! behind it, whether to run it.
//!
//! Lock-ordering rules (the crate's deadlock-freedom argument):
//!
//! 1. A thread blocking-acquires slot mutexes only while it holds **no
//!    shard, graph or scheduler mutex**, and only in **ascending
//!    transaction-id order** ([`capture`], debug-asserted): a worker takes
//!    a slot to run holding nothing, and a resolver that holds a slot
//!    takes only slots of higher ids — dropping its own first unless its
//!    id is the cycle's lowest.
//! 2. Shard mutexes, the waits-for-graph mutex and the scheduler mutex
//!    are acquired strictly below slot mutexes (slot → shard → graph, and
//!    the scheduler's innermost of all) and never the other way; that is
//!    the only order between kinds.
//! 3. Shard, graph and scheduler holders never wait on a slot.
//!
//! So every mutex wait follows one total order — slots by id, then
//! shards, then the graph or the scheduler — and no cycle of waits can
//! form.

use pr_core::runtime::TxnRuntime;
use pr_model::{EntityId, TxnId};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

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
    /// Whether a worker runs this transaction or resolves for it. Stays
    /// set while a resolver has dropped the guard to capture slots in id
    /// order; cleared when it is set down waiting or commits. A ready
    /// entry for an owned transaction is stale.
    pub owned: bool,
}

/// One transaction's slot.
pub struct TxnSlot {
    state: Mutex<SlotState>,
}

impl TxnSlot {
    /// Wraps a freshly admitted runtime.
    pub fn new(rt: TxnRuntime) -> Self {
        TxnSlot {
            state: Mutex::new(SlotState {
                rt,
                stamps: BTreeMap::new(),
                blocked_since: None,
                owned: false,
            }),
        }
    }

    /// Blocking-acquires the slot. Per the ordering rules, callers must
    /// hold no shard, graph or scheduler mutex, and no slot of a higher id.
    pub fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().expect("slot mutex poisoned")
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
    use std::sync::atomic::{AtomicBool, Ordering};
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
}
