//! # pr-storage — storage substrate for partial-rollback deadlock removal
//!
//! Implements the storage machinery §4 of the paper requires:
//!
//! * [`GlobalStore`] — the database itself: global entities with values
//!   and integrity-constraint hooks. Under the paper's deferred-update model
//!   the global value of a locked entity "does not change until the
//!   transaction unlocks it", so rollback never has to undo the database —
//!   it only discards local copies.
//! * [`VersionStack`] — the per-(entity, lock state) value stack of the
//!   **multi-lock copy strategy (MCS)**: each element has a value field and a
//!   lock-index field; a write pushes a new element iff its lock index
//!   exceeds the stack top's, otherwise it updates the top in place. Under
//!   a copy budget it evicts its oldest copy and remembers the interval of
//!   lock states the evictions destroyed.
//! * [`McsWorkspace`] — a transaction's full MCS bookkeeping: one stack per
//!   exclusively locked entity (indexed by the lock state that locked it)
//!   and one stack per local variable (index 0), with the copy accounting of
//!   Theorem 3 (`n(n+1)/2` entity copies, `n·|L|` local copies worst case).
//! * [`SingleCopyWorkspace`] — the one-copy-per-entity workspace used by
//!   both total rollback and the state-dependency-graph (SDG) strategy. It
//!   is the SDG mechanism itself: each entity's and variable's first and
//!   last write bound the one interval of lock states its writes destroyed
//!   (Theorem 4), so the workspace answers which lock states are
//!   well-defined and restores values at any of them.
//! * [`Snapshot`] — whole-database snapshots used by the serializability
//!   and crash-consistency test oracles.
//! * [`wal`] — the write-ahead redo log that extends recovery from
//!   in-process rollback to process crashes: segmented CRC32-framed
//!   records logged at group-commit boundaries, a total fail-closed
//!   replay, and a failpoint storage backend for crash-injection tests.

pub mod error;
pub mod global;
pub mod mcs;
pub mod single_copy;
pub mod snapshot;
pub mod version_stack;
pub mod wal;

pub use error::StorageError;
pub use global::{Constraint, GlobalStore};
pub use mcs::{CopyCounts, McsWorkspace};
pub use single_copy::SingleCopyWorkspace;
pub use snapshot::Snapshot;
pub use version_stack::{StackElement, VersionStack};
pub use wal::{BatchRecord, FlushPolicy, Wal, WalError};

use pr_model::LockIndex;

/// The deepest lock state at or below `q` that no destroyed interval
/// covers, given `covering(q)`: the start of an interval `[start, end)`
/// that contains `q`, if any. Every state from `start` up to `q` is then
/// destroyed too, so the walk jumps to `start − 1`. Lock state 0 ends the
/// walk: a rollback there is total and always possible.
fn deepest_uncovered(
    mut q: LockIndex,
    covering: impl Fn(LockIndex) -> Option<LockIndex>,
) -> LockIndex {
    while q > LockIndex::ZERO {
        let Some(start) = covering(q) else { break };
        q = LockIndex::new(start.raw().saturating_sub(1));
    }
    q
}

/// Compile-time proof that the storage layer is safe to move into and
/// share across worker threads: the parallel engine keeps a [`GlobalStore`]
/// inside each lock-table shard and a version-stack workspace inside each
/// transaction slot, both behind mutexes, which requires `Send` (and, for
/// the read paths, `Sync`). A non-thread-safe field sneaking into any of
/// these types fails this function's compilation, not a test at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GlobalStore>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<VersionStack>();
    assert_send_sync::<McsWorkspace>();
    assert_send_sync::<SingleCopyWorkspace>();
    assert_send_sync::<StorageError>();
    assert_send_sync::<BatchRecord>();
    assert_send_sync::<WalError>();
    assert_send_sync::<wal::MemDir>();
    assert_send_sync::<wal::FsDir>();
};
