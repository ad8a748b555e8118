//! Per-entity atomic lock words: the optimistic grant fast path.
//!
//! The sharded `Mutex<Shard>` path serialises every lock request on the
//! shard mutex even when nobody contends for the entity — profiled as the
//! dominant cost of the multi-threaded engine (EXPERIMENTS.md T6: MCS
//! *lost* throughput from 1 → 2 threads). This module gives every
//! entity one atomic **lock word** plus an atomic value cell, packed into a
//! slab built once per run, so the uncontended grant/release cycle is a
//! couple of CAS operations and never touches a mutex.
//!
//! ## Word layout (one `u64` per entity)
//!
//! ```text
//!  63      48 47            32 31    27 26 25 24 23                0
//! +----------+----------------+--------+--+--+--+------------------+
//! | (unused) |  reader count  |(unused)|IN|RL|EX|  exclusive owner |
//! +----------+----------------+--------+--+--+--+------------------+
//! ```
//!
//! * bits 0..24 — raw [`TxnId`] of the exclusive fast-path owner (0 = none);
//! * `EX` (bit 24) — an exclusive fast-path grant is outstanding;
//! * `RL` (bit 25) — **registry spin bit**: the holder is mutating the
//!   reader registry (or publishing exclusive-holder metadata); every other
//!   word mutation waits for it to clear;
//! * `IN` (bit 26) — **inflated / queue flag**: the shard's [`LockTable`]
//!   is authoritative for this entity. Every fast-path CAS requires this
//!   bit clear, so once an entity is inflated no optimistic grant or
//!   release can race the table's waiter bookkeeping;
//! * bits 32..48 — number of shared fast-path holders.
//!
//! ## Handoff protocol
//!
//! The single invariant that makes the fast path safe to mix with the
//! mutex path is:
//!
//! > **The table holds entries only for inflated entities, and every
//! > waiter lives in the table.**
//!
//! *Inflation* happens under the entity's shard mutex before any table
//! access: CAS the `IN` bit on (spinning out `RL`), which freezes the word
//! and the registry, then transfer the fast-path holders into the table
//! via [`LockTable::reinstate`] with their carried §4 metadata
//! (`requested_from_state`, `lock_state`), so blocked requests see the
//! true holder set and partial rollback can release those locks through
//! the table. *Deflation* happens under the same mutex when the table
//! entry goes idle (no holders, no waiters): the word is reset to zero and
//! optimistic grants resume. Because inflation and deflation are both
//! mutex-protected, a mutex-path request always observes either `IN` set
//! (table authoritative) or a word it can inflate itself — a fast-path
//! grant can never be concurrent with a waiter wakeup on the same entity.
//!
//! Values live in the slab (`AtomicI64` per entity) on *both* paths;
//! deferred-update publishes are `Release` stores sequenced before the
//! lock release, and grants `Acquire` the word (or the shard mutex), so a
//! reader always sees the last conflicting writer's publish.

use pr_lock::{HeldLock, LockError, LockTable};
use pr_model::{EntityId, LockIndex, LockMode, StateIndex, TxnId, Value};
use pr_storage::{GlobalStore, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

/// Exclusive-grant bit.
const EXCL: u64 = 1 << 24;
/// Registry spin bit.
const REGLOCK: u64 = 1 << 25;
/// Inflated bit: the lock table is authoritative.
const INFLATED: u64 = 1 << 26;
/// Mask of the exclusive owner's raw id.
const OWNER_MASK: u64 = EXCL - 1;
/// One shared holder.
const READER_ONE: u64 = 1 << 32;
/// Mask of the reader count.
const READER_MASK: u64 = 0xFFFF << 32;

/// Fast-path shared-holder registry slots per entity. Entities with more
/// simultaneous fast readers than this inflate to the table.
const READER_SLOTS: usize = 8;

/// Bounded spins while another thread holds `REGLOCK` before the caller
/// gives up and takes the mutex path. Registry critical sections are a
/// handful of instructions, so this is generous.
const SPIN_LIMIT: u32 = 128;

/// Outcome of an optimistic word operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FastPath {
    /// The CAS succeeded; the lock is granted (or released).
    Done,
    /// The word shows contention, inflation, or a full registry — take the
    /// shard-mutex path.
    Fallback,
}

/// Packs the §4 rollback metadata carried by a [`HeldLock`].
fn pack_meta(state: StateIndex, lock: LockIndex) -> u64 {
    u64::from(state.raw()) | (u64::from(lock.raw()) << 32)
}

fn unpack_meta(meta: u64) -> (StateIndex, LockIndex) {
    (StateIndex::new(meta as u32), LockIndex::new((meta >> 32) as u32))
}

/// One shared fast-path holder: raw txn id (0 = free) plus packed
/// metadata. Mutated only while `REGLOCK` is held on the entity's word.
#[derive(Default)]
struct ReaderSlot {
    txn: AtomicU32,
    meta: AtomicU64,
}

/// Per-entity slab entry: lock word, value cell, and holder metadata.
struct Entry {
    word: AtomicU64,
    value: AtomicI64,
    /// Packed metadata of the exclusive fast-path owner; written under
    /// `REGLOCK` before the grant's final word store, so inflation (which
    /// spins out `REGLOCK`) always reads the owner's real metadata.
    excl_meta: AtomicU64,
    readers: [ReaderSlot; READER_SLOTS],
}

impl Entry {
    fn new(value: Value) -> Self {
        Entry {
            word: AtomicU64::new(0),
            value: AtomicI64::new(value.raw()),
            excl_meta: AtomicU64::new(0),
            readers: Default::default(),
        }
    }
}

/// How entity ids map onto slab indices.
enum SlabIndex {
    /// Ids are dense: entry index == raw id.
    Dense,
    /// Sparse ids: explicit map.
    Sparse(BTreeMap<EntityId, u32>),
}

/// Counters for the fast path, read at quiescence.
#[derive(Clone, Copy, Default, Debug)]
pub struct FastPathStats {
    /// Grants that never touched a shard mutex.
    pub fast_grants: u64,
    /// Releases that never touched a shard mutex.
    pub fast_releases: u64,
    /// Entities handed off to the lock table (queue-flag set).
    pub inflations: u64,
    /// Entities handed back to the fast path after going idle.
    pub deflations: u64,
}

/// The slab: one `Entry` per entity, built once per run. All methods
/// take `&self`; the slab is shared across worker threads without any
/// lock of its own.
pub struct EntitySlab {
    entries: Vec<Entry>,
    ids: Vec<EntityId>,
    index: SlabIndex,
    fast_grants: AtomicU64,
    fast_releases: AtomicU64,
    inflations: AtomicU64,
    deflations: AtomicU64,
}

impl EntitySlab {
    /// Builds the slab from the run's global store. Dense id spaces (the
    /// common case — generator entities are `0..n`) index directly; sparse
    /// ones fall back to a read-only map.
    pub fn from_store(store: &GlobalStore) -> Self {
        let ids: Vec<EntityId> = store.iter().map(|(id, _)| id).collect();
        let max_raw = ids.last().map_or(0, |id| id.raw() as usize);
        let dense = max_raw < ids.len().saturating_mul(2) + 64;
        let (entries, index) = if dense {
            let mut entries: Vec<Entry> =
                (0..=max_raw as u32).map(|_| Entry::new(Value::ZERO)).collect();
            if ids.is_empty() {
                entries.clear();
            }
            for (id, value) in store.iter() {
                entries[id.raw() as usize].value.store(value.raw(), Ordering::Relaxed);
            }
            (entries, SlabIndex::Dense)
        } else {
            let mut entries = Vec::with_capacity(ids.len());
            let mut map = BTreeMap::new();
            for (id, value) in store.iter() {
                map.insert(id, entries.len() as u32);
                entries.push(Entry::new(value));
            }
            (entries, SlabIndex::Sparse(map))
        };
        EntitySlab {
            entries,
            ids,
            index,
            fast_grants: AtomicU64::new(0),
            fast_releases: AtomicU64::new(0),
            inflations: AtomicU64::new(0),
            deflations: AtomicU64::new(0),
        }
    }

    /// Whether the slab has an entry for `entity`. Session-mode callers
    /// use this to reject externally submitted programs that reference
    /// entities outside the fixed universe the slab was built from
    /// (the slab cannot grow once workers share it).
    pub fn contains(&self, entity: EntityId) -> bool {
        match &self.index {
            SlabIndex::Dense => (entity.raw() as usize) < self.entries.len(),
            SlabIndex::Sparse(map) => map.contains_key(&entity),
        }
    }

    fn entry(&self, entity: EntityId) -> &Entry {
        let idx = match &self.index {
            SlabIndex::Dense => entity.raw() as usize,
            SlabIndex::Sparse(map) => {
                *map.get(&entity).unwrap_or_else(|| panic!("entity {entity:?} missing from slab"))
                    as usize
            }
        };
        &self.entries[idx]
    }

    /// Reads the entity's published value. Callers hold a lock on the
    /// entity (2PL), so no conflicting publish can be concurrent.
    pub fn read(&self, entity: EntityId) -> Value {
        Value::new(self.entry(entity).value.load(Ordering::Acquire))
    }

    /// Publishes a committed value (deferred update). Sequenced *before*
    /// the holder's lock release on either path.
    pub fn publish(&self, entity: EntityId, value: Value) {
        self.entry(entity).value.store(value.raw(), Ordering::Release);
    }

    /// Attempts an optimistic grant without touching the shard mutex.
    ///
    /// Succeeds only when the word shows no conflict, no inflation, and
    /// (for shared mode) a free registry slot; every success records the
    /// holder's §4 metadata so a later inflation can transfer the hold
    /// into the lock table.
    pub fn try_fast_lock(
        &self,
        entity: EntityId,
        txn: TxnId,
        mode: LockMode,
        state: StateIndex,
        lock: LockIndex,
    ) -> FastPath {
        if u64::from(txn.raw()) & !OWNER_MASK != 0 {
            return FastPath::Fallback; // id too wide for the word
        }
        let entry = self.entry(entity);
        let meta = pack_meta(state, lock);
        let mut spins = 0u32;
        loop {
            let w = entry.word.load(Ordering::Acquire);
            if w & INFLATED != 0 {
                return FastPath::Fallback;
            }
            if w & REGLOCK != 0 {
                spins += 1;
                if spins > SPIN_LIMIT {
                    return FastPath::Fallback;
                }
                std::hint::spin_loop();
                std::thread::yield_now();
                continue;
            }
            match mode {
                LockMode::Exclusive => {
                    if w != 0 {
                        return FastPath::Fallback; // readers or another owner
                    }
                    let claimed = EXCL | REGLOCK | u64::from(txn.raw());
                    if entry
                        .word
                        .compare_exchange_weak(0, claimed, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue;
                    }
                    // Publish the owner's metadata before dropping REGLOCK:
                    // inflation spins REGLOCK out, so it always sees it.
                    entry.excl_meta.store(meta, Ordering::Release);
                    entry.word.store(EXCL | u64::from(txn.raw()), Ordering::Release);
                }
                LockMode::Shared => {
                    if w & EXCL != 0 {
                        return FastPath::Fallback;
                    }
                    if w & READER_MASK == READER_MASK {
                        return FastPath::Fallback; // count saturated
                    }
                    if entry
                        .word
                        .compare_exchange_weak(w, w | REGLOCK, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue;
                    }
                    // Registry frozen for everyone else while we hold REGLOCK.
                    let Some(slot) =
                        entry.readers.iter().find(|s| s.txn.load(Ordering::Relaxed) == 0)
                    else {
                        entry.word.store(w, Ordering::Release);
                        return FastPath::Fallback; // registry full → inflate
                    };
                    slot.meta.store(meta, Ordering::Relaxed);
                    slot.txn.store(txn.raw(), Ordering::Relaxed);
                    entry.word.store(w + READER_ONE, Ordering::Release);
                }
            }
            self.fast_grants.fetch_add(1, Ordering::Relaxed);
            return FastPath::Done;
        }
    }

    /// Attempts an optimistic release of a fast-path hold. Returns
    /// [`FastPath::Fallback`] when the entity has been inflated meanwhile —
    /// the hold was transferred into the table, so the caller must release
    /// through the shard mutex.
    pub fn try_fast_release(&self, entity: EntityId, txn: TxnId) -> FastPath {
        let entry = self.entry(entity);
        let mut spins = 0u32;
        loop {
            let w = entry.word.load(Ordering::Acquire);
            if w & INFLATED != 0 {
                return FastPath::Fallback;
            }
            if w & REGLOCK != 0 {
                spins += 1;
                if spins > SPIN_LIMIT {
                    return FastPath::Fallback;
                }
                std::hint::spin_loop();
                std::thread::yield_now();
                continue;
            }
            if w & EXCL != 0 && w & OWNER_MASK == u64::from(txn.raw()) {
                if entry
                    .word
                    .compare_exchange_weak(w, 0, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue;
                }
            } else {
                // Must be one of our shared holds; take REGLOCK to clear
                // the registry slot.
                debug_assert!(w & READER_MASK != 0, "releasing a lock the word does not show");
                if entry
                    .word
                    .compare_exchange_weak(w, w | REGLOCK, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue;
                }
                let slot = entry
                    .readers
                    .iter()
                    .find(|s| s.txn.load(Ordering::Relaxed) == txn.raw())
                    .expect("fast shared hold missing from registry");
                slot.txn.store(0, Ordering::Relaxed);
                entry.word.store(w - READER_ONE, Ordering::Release);
            }
            self.fast_releases.fetch_add(1, Ordering::Relaxed);
            return FastPath::Done;
        }
    }

    /// Hands the entity off to the lock table (sets the queue flag).
    ///
    /// Must be called with the entity's shard mutex held, before *any*
    /// table access for the entity. Idempotent. Transfers every fast-path
    /// holder into `table` with its carried metadata; after this returns,
    /// the table is authoritative and every fast-path CAS on the entity
    /// fails until [`Self::deflate_if_idle`] hands it back.
    pub fn inflate(&self, entity: EntityId, table: &mut LockTable) -> Result<(), LockError> {
        let entry = self.entry(entity);
        let mut w;
        loop {
            w = entry.word.load(Ordering::Acquire);
            if w & INFLATED != 0 {
                return Ok(()); // already table-authoritative
            }
            if w & REGLOCK != 0 {
                // A fast-path grant/release is mid-flight; it cannot block
                // (registry sections are straight-line), so spin it out.
                std::hint::spin_loop();
                std::thread::yield_now();
                continue;
            }
            if entry
                .word
                .compare_exchange_weak(w, w | INFLATED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        // Word and registry are frozen now: every fast-path mutation
        // requires INFLATED clear.
        if w & EXCL != 0 {
            let owner = TxnId::new((w & OWNER_MASK) as u32);
            let (state, lock) = unpack_meta(entry.excl_meta.load(Ordering::Acquire));
            table.reinstate(
                entity,
                HeldLock {
                    txn: owner,
                    mode: LockMode::Exclusive,
                    requested_from_state: state,
                    lock_state: lock,
                },
            )?;
        }
        for slot in &entry.readers {
            let raw = slot.txn.load(Ordering::Acquire);
            if raw == 0 {
                continue;
            }
            let (state, lock) = unpack_meta(slot.meta.load(Ordering::Acquire));
            table.reinstate(
                entity,
                HeldLock {
                    txn: TxnId::new(raw),
                    mode: LockMode::Shared,
                    requested_from_state: state,
                    lock_state: lock,
                },
            )?;
            slot.txn.store(0, Ordering::Relaxed);
        }
        // Holders now live in the table; keep only the queue flag.
        entry.word.store(INFLATED, Ordering::Release);
        self.inflations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Hands an inflated entity back to the fast path if its table entry
    /// went idle (no holders, no waiters). Must be called with the
    /// entity's shard mutex held. Returns whether it deflated.
    pub fn deflate_if_idle(&self, entity: EntityId, table: &LockTable) -> bool {
        let entry = self.entry(entity);
        if entry.word.load(Ordering::Acquire) & INFLATED == 0 {
            return false;
        }
        if table.is_active(entity) {
            return false;
        }
        entry.word.store(0, Ordering::Release);
        self.deflations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Fast-path counters.
    pub fn stats(&self) -> FastPathStats {
        FastPathStats {
            fast_grants: self.fast_grants.load(Ordering::Relaxed),
            fast_releases: self.fast_releases.load(Ordering::Relaxed),
            inflations: self.inflations.load(Ordering::Relaxed),
            deflations: self.deflations.load(Ordering::Relaxed),
        }
    }

    /// Final values of every entity, in id order.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_pairs(self.ids.iter().map(|&id| (id, self.read(id))))
    }

    /// Quiescence check: every word must be fully zero — no fast holders,
    /// no spin bit, and (because every release/cancel site deflates idle
    /// entities) no leftover queue flag.
    pub fn check_quiescent(&self) -> Result<(), String> {
        for &id in &self.ids {
            let w = self.entry(id).word.load(Ordering::Acquire);
            if w != 0 {
                return Err(format!("entity {:?} lock word nonzero at quiescence: {w:#x}", id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_lock::GrantPolicy;
    use std::sync::atomic::AtomicI64;

    fn slab(n: u32) -> EntitySlab {
        EntitySlab::from_store(&GlobalStore::with_entities(n, Value::new(100)))
    }

    fn meta(i: u32) -> (StateIndex, LockIndex) {
        (StateIndex::new(i), LockIndex::new(i))
    }

    #[test]
    fn exclusive_fast_cycle_grants_and_releases() {
        let s = slab(2);
        let e = EntityId::new(0);
        let (st, lk) = meta(3);
        assert_eq!(s.try_fast_lock(e, TxnId::new(1), LockMode::Exclusive, st, lk), FastPath::Done);
        // Conflicting requests fall back while the grant is outstanding.
        assert_eq!(
            s.try_fast_lock(e, TxnId::new(2), LockMode::Exclusive, st, lk),
            FastPath::Fallback
        );
        assert_eq!(s.try_fast_lock(e, TxnId::new(2), LockMode::Shared, st, lk), FastPath::Fallback);
        s.publish(e, Value::new(42));
        assert_eq!(s.try_fast_release(e, TxnId::new(1)), FastPath::Done);
        assert_eq!(s.read(e), Value::new(42));
        s.check_quiescent().unwrap();
        let stats = s.stats();
        assert_eq!((stats.fast_grants, stats.fast_releases), (1, 1));
    }

    #[test]
    fn shared_holders_coexist_and_overflow_falls_back() {
        let s = slab(1);
        let e = EntityId::new(0);
        let (st, lk) = meta(1);
        for i in 1..=READER_SLOTS as u32 {
            assert_eq!(s.try_fast_lock(e, TxnId::new(i), LockMode::Shared, st, lk), FastPath::Done);
        }
        // Registry full → the next reader must take the mutex path.
        assert_eq!(
            s.try_fast_lock(e, TxnId::new(99), LockMode::Shared, st, lk),
            FastPath::Fallback
        );
        for i in 1..=READER_SLOTS as u32 {
            assert_eq!(s.try_fast_release(e, TxnId::new(i)), FastPath::Done);
        }
        s.check_quiescent().unwrap();
    }

    #[test]
    fn inflation_transfers_holders_with_metadata() {
        let s = slab(1);
        let e = EntityId::new(0);
        let mut table = LockTable::with_policy(GrantPolicy::Barging);
        assert_eq!(
            s.try_fast_lock(
                e,
                TxnId::new(1),
                LockMode::Shared,
                StateIndex::new(7),
                LockIndex::new(2)
            ),
            FastPath::Done
        );
        s.inflate(e, &mut table).unwrap();
        // The transferred hold carries its §4 metadata.
        let holders = table.holder_records(e);
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].txn, TxnId::new(1));
        assert_eq!(holders[0].mode, LockMode::Shared);
        assert_eq!(holders[0].requested_from_state, StateIndex::new(7));
        assert_eq!(holders[0].lock_state, LockIndex::new(2));
        // Fast path is frozen while inflated.
        let (st, lk) = meta(0);
        assert_eq!(s.try_fast_lock(e, TxnId::new(2), LockMode::Shared, st, lk), FastPath::Fallback);
        assert_eq!(s.try_fast_release(e, TxnId::new(1)), FastPath::Fallback);
        // Release through the table, then the entity deflates and the fast
        // path resumes.
        table.release(TxnId::new(1), e).unwrap();
        assert!(s.deflate_if_idle(e, &table));
        assert_eq!(s.try_fast_lock(e, TxnId::new(2), LockMode::Exclusive, st, lk), FastPath::Done);
        assert_eq!(s.try_fast_release(e, TxnId::new(2)), FastPath::Done);
        s.check_quiescent().unwrap();
    }

    #[test]
    fn deflation_refuses_while_table_active() {
        let s = slab(1);
        let e = EntityId::new(0);
        let mut table = LockTable::with_policy(GrantPolicy::Barging);
        let (st, lk) = meta(0);
        assert_eq!(s.try_fast_lock(e, TxnId::new(1), LockMode::Exclusive, st, lk), FastPath::Done);
        s.inflate(e, &mut table).unwrap();
        // Holder still registered in the table → must not deflate.
        assert!(!s.deflate_if_idle(e, &table));
        table.release(TxnId::new(1), e).unwrap();
        assert!(s.deflate_if_idle(e, &table));
        s.check_quiescent().unwrap();
    }

    #[test]
    fn sparse_id_spaces_use_the_map_index() {
        let mut store = GlobalStore::new();
        store.create(EntityId::new(5), Value::new(5)).unwrap();
        store.create(EntityId::new(1_000_000), Value::new(9)).unwrap();
        let s = EntitySlab::from_store(&store);
        assert!(matches!(s.index, SlabIndex::Sparse(_)));
        assert_eq!(s.read(EntityId::new(1_000_000)), Value::new(9));
        let (st, lk) = meta(0);
        assert_eq!(
            s.try_fast_lock(EntityId::new(5), TxnId::new(1), LockMode::Exclusive, st, lk),
            FastPath::Done
        );
        assert_eq!(s.try_fast_release(EntityId::new(5), TxnId::new(1)), FastPath::Done);
        s.snapshot().iter().for_each(|(id, v)| {
            assert_eq!(v, s.read(id));
        });
    }

    /// CAS hammer: N threads ping-pong exclusive fast grants over one
    /// entity, each incrementing a plain counter inside its critical
    /// section. Any mutual-exclusion hole shows up as a lost update.
    #[test]
    fn cas_hammer_exclusive_grants_are_mutually_exclusive() {
        let s = slab(1);
        let e = EntityId::new(0);
        let counter = AtomicI64::new(0);
        let threads = 4;
        let iters = 400;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = &s;
                let counter = &counter;
                scope.spawn(move || {
                    let txn = TxnId::new(t + 1);
                    let (st, lk) = meta(0);
                    let mut done = 0;
                    while done < iters {
                        if s.try_fast_lock(e, txn, LockMode::Exclusive, st, lk) == FastPath::Done {
                            let v = counter.load(Ordering::Relaxed);
                            counter.store(v + 1, Ordering::Relaxed);
                            assert_eq!(s.try_fast_release(e, txn), FastPath::Done);
                            done += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), i64::from(threads) * i64::from(iters));
        s.check_quiescent().unwrap();
    }

    /// Seeded interleaving of CAS grants against concurrent inflation:
    /// one thread repeatedly inflates/deflates through a table while
    /// others hammer fast grants. Every grant must end up accounted on
    /// exactly one path, and the final state must be quiescent.
    #[test]
    fn fast_grants_race_inflation_without_losing_holds() {
        let s = slab(1);
        let e = EntityId::new(0);
        let rounds = 300;
        // Worker: fast-grant loop; on fallback, inflates via its own
        // table view (simulating the mutex path, serialised here by a
        // mutex standing in for the shard).
        let table = std::sync::Mutex::new(LockTable::with_policy(GrantPolicy::Barging));
        let table = &table;
        std::thread::scope(|scope| {
            for t in 0..3u32 {
                let s = &s;
                scope.spawn(move || {
                    let txn = TxnId::new(t + 1);
                    let (st, lk) = meta(0);
                    for _ in 0..rounds {
                        if s.try_fast_lock(e, txn, LockMode::Shared, st, lk) == FastPath::Done {
                            if s.try_fast_release(e, txn) == FastPath::Fallback {
                                // Transferred while we held it: release
                                // through the table like the engine would.
                                let mut tbl = table.lock().unwrap();
                                tbl.release(txn, e).unwrap();
                                s.deflate_if_idle(e, &tbl);
                            }
                        } else {
                            let mut tbl = table.lock().unwrap();
                            s.inflate(e, &mut tbl).unwrap();
                            match tbl.request(txn, e, LockMode::Shared, st, lk) {
                                Ok(pr_lock::RequestOutcome::Granted) => {
                                    tbl.release(txn, e).unwrap();
                                }
                                Ok(pr_lock::RequestOutcome::Wait { .. }) => {
                                    tbl.cancel_wait(txn, e).unwrap();
                                }
                                Err(_) => {}
                            }
                            s.deflate_if_idle(e, &tbl);
                        }
                    }
                });
            }
            // Dedicated inflater creating contention on the word.
            {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..rounds {
                        let mut tbl = table.lock().unwrap();
                        s.inflate(e, &mut tbl).unwrap();
                        s.deflate_if_idle(e, &tbl);
                        drop(tbl);
                        std::thread::yield_now();
                    }
                });
            }
        });
        let tbl = LockTable::with_policy(GrantPolicy::Barging);
        s.deflate_if_idle(e, &tbl);
        s.check_quiescent().unwrap();
    }
}
