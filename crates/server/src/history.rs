//! The server's committed history: each batch checked online, the newest
//! whole batches kept.
//!
//! A conflict cycle cannot cross a batch boundary. Every batch runs to
//! quiescence in one [`pr_par::Session::execute`], and the session's
//! stamp clock puts every grant of the next batch above every grant of
//! this one, so each cross-batch conflict edge points forward in time.
//! Checking each batch for conflict-serializability, plus one stamp
//! comparison against the previous batch, therefore checks the whole
//! history since boot without keeping it. [`HistoryWindow::check`] is
//! that check; the executor runs it before a batch reaches the journal
//! or any client hears `COMMITTED`.
//!
//! What is kept is only for the `HISTORY` reply: the newest whole
//! batches, up to a fixed number of accesses ([`HISTORY_WINDOW`] in the
//! server), so memory stays flat however long the server runs. A server
//! whose lifetime fits the window replies with its whole history, as the
//! differential oracles need; a longer one replies with a suffix.

use pr_par::CommittedAccess;
use pr_sim::oracle::{check_conflict_serializable, OracleViolation};
use std::collections::VecDeque;

/// Accesses the server keeps for `HISTORY`: 2^18, which covers every
/// full-history reader in the repository (the benchmark's oracle passes,
/// `pr-load --soak`, the server tests).
pub const HISTORY_WINDOW: usize = 1 << 18;

/// The newest whole checked batches, at most `cap` accesses in all, and
/// the highest stamp checked so far.
#[derive(Debug)]
pub struct HistoryWindow {
    cap: usize,
    batches: VecDeque<Vec<CommittedAccess>>,
    len: usize,
    stamp_floor: u64,
}

impl HistoryWindow {
    /// An empty window holding at most `cap` accesses, whose next batch
    /// must stamp above `stamp_floor` (0 on a fresh start, the recovered
    /// stamp high-water mark after a restart).
    pub fn new(cap: usize, stamp_floor: u64) -> HistoryWindow {
        HistoryWindow { cap, batches: VecDeque::new(), len: 0, stamp_floor }
    }

    /// The online check of one executed batch: its lowest stamp is above
    /// every stamp checked before, and it is conflict-serializable on
    /// its own. Together these make the whole history serializable.
    pub fn check(&self, accesses: &[CommittedAccess]) -> Result<(), OracleViolation> {
        if let Some(lowest) = accesses.iter().map(|a| a.stamp).min() {
            if lowest <= self.stamp_floor {
                return Err(OracleViolation::StampRegression {
                    stamp: lowest,
                    floor: self.stamp_floor,
                });
            }
        }
        check_conflict_serializable(accesses).map(|_| ())
    }

    /// Appends a checked batch, then evicts the oldest whole batches
    /// until at most `cap` accesses remain. A batch larger than the
    /// whole window is evicted with the rest.
    pub fn push(&mut self, mut accesses: Vec<CommittedAccess>) {
        let Some(highest) = accesses.iter().map(|a| a.stamp).max() else {
            return;
        };
        // The engine's log grows by doubling; kept batches hold no slack.
        accesses.shrink_to_fit();
        self.stamp_floor = self.stamp_floor.max(highest);
        self.len += accesses.len();
        self.batches.push_back(accesses);
        while self.len > self.cap {
            let oldest = self.batches.pop_front().expect("len counts kept batches");
            self.len -= oldest.len();
        }
    }

    /// Accesses kept.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no access is kept.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The kept accesses, oldest batch first, each batch in stamp order.
    pub fn iter(&self) -> impl Iterator<Item = &CommittedAccess> {
        self.batches.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::{EntityId, LockMode, TxnId};

    fn acc(txn: u32, entity: u32, mode: LockMode, stamp: u64) -> CommittedAccess {
        CommittedAccess { txn: TxnId::new(txn), entity: EntityId::new(entity), mode, stamp }
    }

    /// `n` serial exclusive accesses by one transaction from `stamp` on.
    fn batch(txn: u32, stamp: u64, n: usize) -> Vec<CommittedAccess> {
        (0..n).map(|i| acc(txn, i as u32, LockMode::Exclusive, stamp + i as u64)).collect()
    }

    fn txns(window: &HistoryWindow) -> Vec<u32> {
        let mut t: Vec<u32> = window.iter().map(|a| a.txn.raw()).collect();
        t.dedup();
        t
    }

    #[test]
    fn keeps_whole_batches_and_evicts_the_oldest_first() {
        let mut w = HistoryWindow::new(5, 0);
        w.push(batch(1, 1, 2));
        w.push(batch(2, 3, 2));
        assert_eq!((w.len(), txns(&w)), (4, vec![1, 2]));
        // 4 + 3 > 5: batch 1 goes whole, never one access of it.
        w.push(batch(3, 5, 3));
        assert_eq!((w.len(), txns(&w)), (5, vec![2, 3]));
        // 5 + 1 > 5: batch 2 goes, leaving 4.
        w.push(batch(4, 8, 1));
        assert_eq!((w.len(), txns(&w)), (4, vec![3, 4]));
        // A batch that alone exceeds the cap empties the window.
        w.push(batch(5, 9, 6));
        assert!(w.is_empty());
        // Empty batches are not kept and move nothing.
        w.push(Vec::new());
        w.push(batch(6, 15, 1));
        assert_eq!(w.iter().map(|a| a.stamp).collect::<Vec<_>>(), vec![15]);
    }

    #[test]
    fn a_batch_with_a_conflict_cycle_is_rejected() {
        let w = HistoryWindow::new(HISTORY_WINDOW, 0);
        let skew = vec![
            acc(1, 0, LockMode::Shared, 1),
            acc(2, 1, LockMode::Shared, 2),
            acc(1, 1, LockMode::Exclusive, 3),
            acc(2, 0, LockMode::Exclusive, 4),
        ];
        assert!(matches!(w.check(&skew), Err(OracleViolation::ConflictCycle { .. })));
    }

    #[test]
    fn a_batch_stamped_at_or_below_the_previous_batch_is_rejected() {
        let mut w = HistoryWindow::new(HISTORY_WINDOW, 0);
        let first = batch(1, 1, 3);
        w.check(&first).unwrap();
        w.push(first);
        // Serializable on its own, but its lowest stamp 3 does not clear
        // the previous batch's highest, 3.
        assert_eq!(
            w.check(&batch(2, 3, 2)),
            Err(OracleViolation::StampRegression { stamp: 3, floor: 3 })
        );
        w.check(&batch(2, 4, 2)).unwrap();
        // After recovery the floor is the log's stamp high-water mark,
        // even above what the kept batches show.
        let mut recovered = HistoryWindow::new(HISTORY_WINDOW, 10);
        recovered.push(batch(1, 1, 3));
        assert_eq!(
            recovered.check(&batch(2, 8, 2)),
            Err(OracleViolation::StampRegression { stamp: 8, floor: 10 })
        );
        recovered.check(&batch(2, 11, 2)).unwrap();
    }
}
