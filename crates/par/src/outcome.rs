//! Configuration, errors, and run results for the parallel engine.

use crate::history::CommittedAccess;
use crate::word::FastPathStats;
use pr_core::{Metrics, SystemConfig};
use pr_lock::LockError;
use pr_model::TxnId;
use pr_storage::{Snapshot, StorageError};
use std::fmt;
use std::time::Duration;

/// Configuration for one parallel run.
#[derive(Clone, Debug)]
pub struct ParConfig {
    /// The multiprogramming level (MPL): at most this many transactions
    /// are in flight at once, clamped to at least 1. It is not the thread
    /// count: a waiting transaction holds no thread, and a session runs
    /// `min(threads, max(2, cores))` OS workers, the thread that executes
    /// a batch among them.
    pub threads: usize,
    /// Lock-table shards; 0 selects `4 × threads` (rounded up to a power
    /// of two either way).
    pub shards: usize,
    /// Strategy / victim-policy / grant-policy knobs, shared with the
    /// deterministic engine.
    pub system: SystemConfig,
    /// Optimistic lock-word fast path: grant uncontended locks by CAS
    /// without touching the shard mutex (see [`crate::word`]). On by
    /// default; turning it off forces every request through the
    /// shard-mutex path — used by the differential equivalence tests.
    pub fast_path: bool,
}

impl ParConfig {
    /// A config with the given thread count and defaults elsewhere.
    pub fn with_threads(threads: usize) -> Self {
        ParConfig { threads, shards: 0, system: SystemConfig::default(), fast_path: true }
    }

    /// The effective shard count.
    pub fn effective_shards(&self) -> usize {
        let raw = if self.shards == 0 { self.threads.max(1) * 4 } else { self.shards };
        raw.max(1).next_power_of_two()
    }
}

/// Per-transaction result row.
#[derive(Clone, Copy, Debug)]
pub struct TxnStats {
    /// Transaction id.
    pub id: TxnId,
    /// Whether it committed (always true on a successful run).
    pub committed: bool,
    /// States lost to rollbacks of this transaction.
    pub states_lost: u64,
    /// Times it was chosen as a rollback victim.
    pub preemptions: u32,
    /// Suffix operations recomputed during repair replay (Repair only).
    pub ops_replayed: u64,
    /// Suffix operations reused from the replay tape (Repair only). Per
    /// transaction, `ops_replayed + ops_reused == states_lost` on a
    /// successful (all-committed) run.
    pub ops_reused: u64,
}

/// Result of a successful parallel run.
#[derive(Debug)]
pub struct ParOutcome {
    /// Aggregated metrics: per-worker counters merged with the shared
    /// resolution metrics.
    pub metrics: Metrics,
    /// One row per transaction, in admission order.
    pub per_txn: Vec<TxnStats>,
    /// Committed lock-state accesses sorted by grant stamp — input to the
    /// serializability oracle.
    pub accesses: Vec<CommittedAccess>,
    /// Final database state: every entity's published value.
    pub snapshot: Snapshot,
    /// Wall-clock execution time: from the first start to the last finish
    /// among the workers that committed a transaction.
    pub elapsed: Duration,
    /// Workers that ran the batch (the calling thread included); not the
    /// multiprogramming level, which is [`ParConfig::threads`].
    pub threads: usize,
    /// Shards actually used.
    pub shards: usize,
    /// Lock-word fast-path counters (all zero when `fast_path` is off).
    pub fast: FastPathStats,
}

impl ParOutcome {
    /// Committed transactions.
    pub fn commits(&self) -> usize {
        self.per_txn.iter().filter(|t| t.committed).count()
    }

    /// Committed transactions per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.commits() as f64 / secs
    }
}

/// Errors a parallel run can surface. The first worker error aborts the
/// whole run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParError {
    /// A lock-table operation failed (protocol bug, not contention).
    Lock(LockError),
    /// A storage operation failed.
    Storage(StorageError),
    /// A transaction's program counter ran past its program.
    MissingOp {
        /// The transaction.
        txn: TxnId,
        /// The out-of-range program counter.
        pc: usize,
    },
    /// Every worker went idle with nothing ready and transactions still
    /// in flight, so nothing could ever run again — a liveness bug: a lost
    /// wake, or a cycle nobody resolved. Nothing re-detects on the way to
    /// this error.
    Stuck {
        /// The lowest waiting transaction.
        txn: TxnId,
    },
    /// Deadlock resolution produced an empty plan (no rollbackable
    /// victim in the cycle) — the workload is not resolvable.
    Unresolvable {
        /// The transaction whose wait exposed the cycle.
        txn: TxnId,
    },
    /// A program locks an entity outside the session's fixed universe
    /// (session mode only — the slab cannot grow while workers share it).
    UnknownEntity {
        /// The entity no slab entry exists for.
        entity: pr_model::EntityId,
    },
    /// Post-run validation failed (lock-table or waits-for-graph
    /// invariant broken at quiescence).
    Inconsistent(String),
    /// A worker panicked (the message is the panic's); the batch was
    /// aborted.
    Panicked(String),
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParError::Lock(e) => write!(f, "lock table error: {e}"),
            ParError::Storage(e) => write!(f, "storage error: {e}"),
            ParError::MissingOp { txn, pc } => {
                write!(f, "{txn} has no operation at pc {pc}")
            }
            ParError::Stuck { txn } => {
                write!(f, "{txn} starved: waiting while every worker is idle")
            }
            ParError::Unresolvable { txn } => {
                write!(f, "deadlock at {txn} has no rollbackable victim")
            }
            ParError::UnknownEntity { entity } => {
                write!(f, "{entity} is not in the session's entity universe")
            }
            ParError::Inconsistent(msg) => write!(f, "post-run inconsistency: {msg}"),
            ParError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ParError {}

impl From<LockError> for ParError {
    fn from(e: LockError) -> Self {
        ParError::Lock(e)
    }
}

impl From<StorageError> for ParError {
    fn from(e: StorageError) -> Self {
        ParError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_auto_selection_scales_with_threads() {
        assert_eq!(ParConfig::with_threads(1).effective_shards(), 4);
        assert_eq!(ParConfig::with_threads(8).effective_shards(), 32);
        let explicit = ParConfig { shards: 5, ..ParConfig::with_threads(2) };
        assert_eq!(explicit.effective_shards(), 8);
        let zero = ParConfig { threads: 0, ..ParConfig::with_threads(0) };
        assert_eq!(zero.effective_shards(), 4);
    }

    #[test]
    fn errors_render_and_convert() {
        let e: ParError =
            LockError::NotHeld { txn: TxnId::new(1), entity: pr_model::EntityId::new(2) }.into();
        assert!(e.to_string().contains("lock table error"));
        let s: ParError = StorageError::NoSuchEntity(pr_model::EntityId::new(3)).into();
        assert!(s.to_string().contains("storage error"));
        assert!(ParError::Stuck { txn: TxnId::new(4) }.to_string().contains("starved"));
    }
}
