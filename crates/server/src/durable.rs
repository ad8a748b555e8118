//! Durability: the group-commit journal and crash recovery.
//!
//! This module is the bridge between the engine's batch outcomes and the
//! storage crate's write-ahead log. [`Journal`] turns each executed batch
//! into one redo record (net entity deltas against the previous batch's
//! snapshot, the committed access history, and the client request ids as
//! idempotence tokens) plus a commit marker, appended **before** the
//! batch's COMMITTED replies publish. [`recover`] replays the durable
//! prefix of a log directory into a fresh store and hands back everything
//! a server needs to resume exactly where the dead process stopped: txn
//! and stamp high-water marks, the newest whole batches of the recovered
//! access history for the HISTORY window, and the sealed log ready for
//! further appends.
//!
//! The invariant the test battery proves: under the `per-batch` flush
//! policy, **acknowledged ⇒ replayed** — any transaction whose COMMITTED
//! reply was ever observable survives `kill -9`, and recovery is
//! all-or-nothing per batch. `every-N` widens the loss window to at most
//! N−1 *whole* acknowledged batches; `off` leaves durability to graceful
//! drain (which always syncs before SHUTDOWN_ACK).

use crate::history::{HistoryWindow, HISTORY_WINDOW};
use pr_model::{EntityId, LockMode, TxnId, Value};
use pr_par::CommittedAccess;
use pr_storage::wal::{replay, seal, FlushPolicy, LogDir, Wal, WalAccess, WalError, WalStats};
use pr_storage::{BatchRecord, GlobalStore, Snapshot};
use std::path::PathBuf;
use std::sync::Arc;

/// Durability knobs, part of the server configuration.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Redo-log directory. `None` disables the journal entirely.
    pub dir: Option<PathBuf>,
    /// When appended records are fsynced.
    pub flush: FlushPolicy,
    /// Replay the durable prefix of `dir` before serving.
    pub recover: bool,
    /// Segment size before the writer rolls to a new file.
    pub segment_max: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: None,
            flush: FlushPolicy::PerBatch,
            recover: false,
            segment_max: pr_storage::wal::DEFAULT_SEGMENT_MAX,
        }
    }
}

/// What `recover` replayed out of the log.
#[derive(Clone, Debug, Default)]
pub struct RecoverySummary {
    /// Batches in the durable prefix.
    pub batches: u64,
    /// Transactions in the durable prefix.
    pub txns: u64,
    /// Highest recovered txn id — the resumed session's admission base.
    pub txn_hwm: u32,
    /// Highest recovered grant stamp — the resumed session's clock base.
    pub stamp_hwm: u64,
    /// Highest recovered batch id — the journal continues at `+1`.
    pub last_batch_id: u64,
    /// Whether the scan stopped at a torn tail (sealed away) rather than
    /// the clean end of the log.
    pub torn_tail: bool,
}

/// Full recovery state: the summary plus the rebuilt store and history.
pub struct Recovery {
    /// Counters for logs and metrics.
    pub summary: RecoverySummary,
    /// The store with every durable batch's deltas applied.
    pub store: GlobalStore,
    /// The tail of the recovered access history: the newest whole durable
    /// batches that fit [`HISTORY_WINDOW`], with the log's stamp
    /// high-water mark as the floor the next batch must stamp above.
    pub history: HistoryWindow,
}

/// Replays the durable prefix of `dir` over a fresh
/// `GlobalStore::with_entities(entities, init)` and seals the log so a
/// reopened writer appends strictly after valid data. Only the history
/// window's tail of the recovered accesses is kept.
pub fn recover(dir: &dyn LogDir, entities: u32, init: i64) -> Result<Recovery, WalError> {
    let outcome = replay(dir)?;
    let mut store = GlobalStore::with_entities(entities, Value::new(init));
    outcome.apply(&mut store)?;
    seal(dir, &outcome)?;
    let mut history = HistoryWindow::new(HISTORY_WINDOW, outcome.stamp_hwm());
    for batch in &outcome.batches {
        history.push(
            batch
                .accesses
                .iter()
                .map(|a| CommittedAccess {
                    txn: TxnId::new(a.txn),
                    entity: EntityId::new(a.entity),
                    mode: if a.exclusive { LockMode::Exclusive } else { LockMode::Shared },
                    stamp: a.stamp,
                })
                .collect(),
        );
    }
    Ok(Recovery {
        summary: RecoverySummary {
            batches: outcome.batches.len() as u64,
            txns: outcome.commits(),
            txn_hwm: outcome.txn_hwm(),
            stamp_hwm: outcome.stamp_hwm(),
            last_batch_id: outcome.last_batch_id(),
            torn_tail: !outcome.tail.is_clean(),
        },
        store,
        history,
    })
}

/// The group-commit journal: owns the WAL writer plus the previous
/// batch's snapshot (for delta extraction) and the batch-id sequence.
pub struct Journal {
    wal: Wal,
    next_batch_id: u64,
    last: Snapshot,
}

impl Journal {
    /// Opens the journal for appending. `baseline` is the store state the
    /// *next* batch executes against (the recovered snapshot, or the
    /// initial store on a fresh start); `last_batch_id` continues the
    /// recovered sequence (0 on a fresh start).
    pub fn open(
        dir: Arc<dyn LogDir>,
        config: &DurabilityConfig,
        baseline: Snapshot,
        last_batch_id: u64,
    ) -> Result<Journal, WalError> {
        let wal = Wal::open(dir, config.flush, config.segment_max)?;
        Ok(Journal { wal, next_batch_id: last_batch_id + 1, last: baseline })
    }

    /// Logs one executed batch: redo record + commit marker, flush policy
    /// applied. Returns `true` when the marker was fsynced (the acks that
    /// follow are then crash-proof). On error the batch MUST NOT be
    /// acknowledged — the caller treats it like an engine failure.
    pub fn log_batch(
        &mut self,
        txn_base: u32,
        request_ids: &[u64],
        stamp_hwm: u64,
        snapshot: &Snapshot,
        accesses: &[CommittedAccess],
    ) -> Result<bool, WalError> {
        // Both snapshots iterate in id order: one lockstep walk finds every
        // entry that is new or changed since the previous batch.
        let deltas: Vec<(EntityId, Value)> = {
            let mut last = self.last.iter().peekable();
            snapshot
                .iter()
                .filter(|&(id, v)| {
                    while last.next_if(|&(prev, _)| prev < id).is_some() {}
                    last.peek() != Some(&(id, v))
                })
                .collect()
        };
        let record = BatchRecord {
            batch_id: self.next_batch_id,
            txn_base,
            txn_count: request_ids.len() as u32,
            stamp_hwm,
            request_ids: request_ids.to_vec(),
            deltas,
            accesses: accesses
                .iter()
                .map(|a| WalAccess {
                    txn: a.txn.raw(),
                    entity: a.entity.raw(),
                    exclusive: a.mode == LockMode::Exclusive,
                    stamp: a.stamp,
                })
                .collect(),
        };
        self.wal.append_batch(&record)?;
        let synced = self.wal.commit_batch(self.next_batch_id)?;
        self.next_batch_id += 1;
        self.last = snapshot.clone();
        Ok(synced)
    }

    /// Fsyncs the tail segment unconditionally — the graceful-drain call
    /// that makes SHUTDOWN_ACK imply durability under every policy.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.wal.sync()
    }

    /// Writer counters, for `ServerMetrics`.
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_storage::wal::MemDir;

    fn snap(pairs: &[(u32, i64)]) -> Snapshot {
        Snapshot::from_pairs(pairs.iter().map(|&(e, v)| (EntityId::new(e), Value::new(v))))
    }

    #[test]
    fn deltas_are_the_new_or_changed_entries_since_the_previous_batch() {
        let dir = MemDir::new();
        let config = DurabilityConfig::default();
        let mut journal =
            Journal::open(Arc::new(dir.clone()), &config, snap(&[(0, 1), (1, 2), (3, 4)]), 0)
                .unwrap();
        // Entity 1 changed, 2 is new, 0 and 3 are unchanged, 5 is new
        // past the baseline's last id.
        journal
            .log_batch(0, &[7], 1, &snap(&[(0, 1), (1, 5), (2, 7), (3, 4), (5, 0)]), &[])
            .unwrap();
        // Against the previous batch, not the baseline: only 3 moved.
        journal
            .log_batch(1, &[8], 2, &snap(&[(0, 1), (1, 5), (2, 7), (3, 9), (5, 0)]), &[])
            .unwrap();
        let deltas: Vec<Vec<(u32, i64)>> = replay(&dir)
            .unwrap()
            .batches
            .iter()
            .map(|b| b.deltas.iter().map(|&(e, v)| (e.raw(), v.raw())).collect())
            .collect();
        assert_eq!(deltas, vec![vec![(1, 5), (2, 7), (5, 0)], vec![(3, 9)]]);
    }

    /// Recovery hands back the logged batches as the history window, and
    /// the log's stamp high-water mark as the floor the next batch must
    /// clear — above every recovered access, since rolled-back grants
    /// also draw stamps.
    #[test]
    fn recovery_seeds_the_history_window_and_its_stamp_floor() {
        let dir = MemDir::new();
        let config = DurabilityConfig::default();
        let mut journal =
            Journal::open(Arc::new(dir.clone()), &config, snap(&[(0, 1)]), 0).unwrap();
        let access = |txn: u32, stamp: u64| CommittedAccess {
            txn: TxnId::new(txn),
            entity: EntityId::new(0),
            mode: LockMode::Exclusive,
            stamp,
        };
        let batches = [vec![access(1, 1), access(2, 2)], vec![access(3, 4)]];
        journal.log_batch(0, &[1, 2], 3, &snap(&[(0, 2)]), &batches[0]).unwrap();
        journal.log_batch(2, &[3], 6, &snap(&[(0, 3)]), &batches[1]).unwrap();

        let rec = recover(&dir, 1, 1).unwrap();
        let kept: Vec<CommittedAccess> = rec.history.iter().copied().collect();
        assert_eq!(kept, batches.concat());
        assert_eq!(
            rec.history.check(&[access(4, 6)]),
            Err(pr_sim::oracle::OracleViolation::StampRegression { stamp: 6, floor: 6 })
        );
        rec.history.check(&[access(4, 7)]).unwrap();
    }
}
