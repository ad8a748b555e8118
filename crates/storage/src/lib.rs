//! # pr-storage — storage substrate for partial-rollback deadlock removal
//!
//! Implements the storage machinery §4 of the paper requires:
//!
//! * [`GlobalStore`] — the database itself: global entities with values
//!   and integrity-constraint hooks. Under the paper's deferred-update model
//!   the global value of a locked entity "does not change until the
//!   transaction unlocks it", so rollback never has to undo the database —
//!   it only discards local copies.
//! * [`VersionStack`] — the per-(entity, lock state) value stack of §4:
//!   each element has a value field and a lock-index field; a write pushes
//!   a new element iff its lock index exceeds the stack top's, otherwise it
//!   updates the top in place. Under a copy budget it evicts its oldest
//!   copy and remembers the interval of lock states the evictions
//!   destroyed.
//! * [`Workspace`] — a transaction's local storage, one stack per
//!   exclusively locked entity (indexed by the lock state that locked it)
//!   and one per local variable (index 0), under a per-stack copy budget.
//!   Unbounded, it is the **multi-lock copy strategy (MCS)**, restorable at
//!   every lock state with the copy accounting of Theorem 3 (`n(n+1)/2`
//!   entity copies, `n·|L|` local copies worst case). At budget 1 it is the
//!   one local copy per entity of total rollback and the
//!   **state-dependency-graph (SDG)** strategy: each stack's evicted
//!   interval is its object's `[first write, last write)`, so the
//!   workspace answers which lock states are well-defined (Theorem 4) and
//!   restores values at any of them.
//! * [`Snapshot`] — whole-database snapshots used by the serializability
//!   and crash-consistency test oracles.
//! * [`wal`] — the write-ahead redo log that extends recovery from
//!   in-process rollback to process crashes: segmented CRC32-framed
//!   records logged at group-commit boundaries, a total fail-closed
//!   replay, and a failpoint storage backend for crash-injection tests.

pub mod error;
pub mod global;
pub mod snapshot;
pub mod version_stack;
pub mod wal;
pub mod workspace;

pub use error::StorageError;
pub use global::{Constraint, GlobalStore};
pub use snapshot::Snapshot;
pub use version_stack::{StackElement, VersionStack};
pub use wal::{BatchRecord, FlushPolicy, Wal, WalError};
pub use workspace::{CopyCounts, Workspace};

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
    assert_send_sync::<Workspace>();
    assert_send_sync::<StorageError>();
    assert_send_sync::<BatchRecord>();
    assert_send_sync::<WalError>();
    assert_send_sync::<wal::MemDir>();
    assert_send_sync::<wal::FsDir>();
};
