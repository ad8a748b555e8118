//! The sharded lock table: per-shard mutexes, entity→shard hashing, and
//! ordered multi-shard locking.
//!
//! Each shard is one [`LockTable`] slice behind a mutex — the *slow path*
//! of the engine. Entity values live in the lock-word slab
//! ([`crate::word::EntitySlab`]), not here: uncontended grants never take
//! a shard mutex at all, and the mutex path synchronises value visibility
//! through the slab's atomics plus the shard critical sections (a
//! promoted waiter reads the granted entity's value under the same mutex
//! that ordered the previous holder's publish before its release).
//!
//! A caller holds either one shard ([`Shards::guard`]) or every shard
//! ([`Shards::lock_all`], for whole-table invariant checks), and
//! `lock_all` takes them in ascending shard-index order (debug-asserted).
//! Callers never lock shards in ad-hoc orders, which is what makes the
//! per-shard mutexes deadlock-free.

use pr_lock::{GrantPolicy, LockTable};
use pr_model::EntityId;
use std::sync::{Mutex, MutexGuard};

/// One shard: the lock-table slice for the entities routed here.
#[derive(Debug)]
pub struct Shard {
    /// Lock state of this shard's entities.
    pub table: LockTable,
}

/// The sharded lock table.
pub struct Shards {
    shards: Vec<Mutex<Shard>>,
    /// Multiply-shift hash parameters; `mask == len - 1` (len is a power
    /// of two).
    mask: u64,
}

/// Fibonacci multiplier for the multiply-shift entity hash. Entity ids
/// are typically dense small integers; multiplying by 2^64/φ scatters
/// them uniformly before masking.
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

impl Shards {
    /// Builds `count` shards (rounded up to a power of two, minimum 1)
    /// with the given grant policy.
    pub fn new(count: usize, policy: GrantPolicy) -> Self {
        let count = count.max(1).next_power_of_two();
        let mask = count as u64 - 1;
        let shards = (0..count)
            .map(|_| Mutex::new(Shard { table: LockTable::with_policy(policy) }))
            .collect();
        Shards { shards, mask }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether there are no shards (never true — `new` builds at least 1).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Shard index for `entity`.
    pub fn shard_of(&self, entity: EntityId) -> usize {
        (u64::from(entity.raw()).wrapping_mul(HASH_MULT) >> 32 & self.mask) as usize
    }

    /// Locks the shard owning `entity`.
    ///
    /// # Panics
    /// Panics if a worker panicked while holding the shard (poison);
    /// the run is already lost at that point.
    pub fn guard(&self, entity: EntityId) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_of(entity)].lock().expect("shard mutex poisoned")
    }

    /// Locks every shard in ascending index order and returns the guards.
    /// The ascending order is what makes concurrent `lock_all` calls
    /// deadlock-free against each other and against single `guard`s, so
    /// debug builds assert it on every acquisition.
    pub fn lock_all(&self) -> Vec<MutexGuard<'_, Shard>> {
        let mut guards = Vec::with_capacity(self.shards.len());
        let mut last: Option<usize> = None;
        for (idx, shard) in self.shards.iter().enumerate() {
            debug_assert!(
                last.is_none_or(|l| l < idx),
                "lock_all must acquire shards in strictly ascending index order"
            );
            guards.push(shard.lock().expect("shard mutex poisoned"));
            last = Some(idx);
        }
        guards
    }

    /// Runs every shard's lock-table invariant check.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.lock_all().iter().enumerate() {
            shard.table.check_invariants().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::{LockIndex, LockMode, StateIndex, TxnId};

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let shards = Shards::new(8, GrantPolicy::Barging);
        assert_eq!(shards.len(), 8);
        for i in 0..256 {
            let s = shards.shard_of(e(i));
            assert!(s < 8);
            assert_eq!(s, shards.shard_of(e(i)), "routing must be deterministic");
        }
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(Shards::new(5, GrantPolicy::Barging).len(), 8);
        assert_eq!(Shards::new(0, GrantPolicy::Barging).len(), 1);
    }

    #[test]
    fn routing_spreads_dense_ids() {
        let shards = Shards::new(8, GrantPolicy::Barging);
        let mut counts = [0usize; 8];
        for i in 0..1024 {
            counts[shards.shard_of(e(i))] += 1;
        }
        // No shard may be empty or hold more than half the entities.
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {i} empty");
            assert!(c < 512, "shard {i} holds {c}/1024");
        }
    }

    #[test]
    fn guard_routes_to_the_table_that_lock_all_sees() {
        let shards = Shards::new(4, GrantPolicy::Barging);
        let a = e(7);
        shards
            .guard(a)
            .table
            .request(TxnId::new(1), a, LockMode::Exclusive, StateIndex::ZERO, LockIndex::ZERO)
            .unwrap();
        let held: usize = shards.lock_all().iter().map(|s| usize::from(s.table.is_active(a))).sum();
        assert_eq!(held, 1, "exactly one shard owns the entity");
        shards.guard(a).table.release(TxnId::new(1), a).unwrap();
        shards.check_invariants().unwrap();
    }

    /// A thread sweeping `lock_all` repeatedly while another hammers
    /// single-shard `guard`s must always terminate: `lock_all`'s ascending
    /// acquisitions cannot close a cycle against single acquisitions.
    #[test]
    fn concurrent_lock_all_vs_guard_cannot_deadlock() {
        let shards = Shards::new(4, GrantPolicy::Barging);
        let shards = &shards;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for _ in 0..500 {
                    let guards = shards.lock_all();
                    assert_eq!(guards.len(), 4);
                    drop(guards);
                }
            });
            scope.spawn(move || {
                for i in 0..4000u32 {
                    let g = shards.guard(e(i % 64));
                    drop(g);
                }
            });
        });
        shards.check_invariants().unwrap();
    }
}
