//! Session mode: the submission API for externally-driven transactions.
//!
//! [`run_parallel`](crate::run_parallel) serves the closed experiments:
//! the whole workload is known up front, the store is consumed, and the
//! run ends at quiescence. A *server* front end has none of those
//! luxuries — transactions arrive over the wire for as long as clients
//! keep submitting. A [`Session`] bridges the two worlds: it owns the
//! [`EntitySlab`] (the database) and a pool of worker threads for its
//! whole lifetime, and executes successive **batches** on them, each
//! running to quiescence. `threads` is the multiprogramming level — at
//! most that many transactions in flight — and the workers number
//! `min(threads, max(2, cores))`: one per core, since a waiting
//! transaction needs no thread, and at least two, so real-thread
//! deadlocks still form on one CPU. The thread that calls
//! [`Session::execute`] is worker 0; helpers are spawned once, woken per
//! batch, and joined when the session is finished or dropped. A one-batch
//! session is exactly a standalone run.
//!
//! Two counters make the concatenated multi-batch history a single valid
//! input to the serializability oracle:
//!
//! * **transaction ids** are offset by the number of transactions already
//!   admitted, so every transaction the session ever ran has a unique
//!   global [`TxnId`](pr_model::TxnId) in admission order;
//! * **grant stamps** continue from the previous batch's high-water mark,
//!   so the stamp clock is strictly monotone across the session. Batches
//!   execute serially against the shared slab (batch *k* reaches
//!   quiescence before batch *k+1* starts), so every cross-batch conflict
//!   really is ordered the way the stamps claim.
//!
//! Entity values persist in the slab between batches — deferred-update
//! publishes from batch *k* are exactly the values batch *k+1*'s grants
//! read. The entity universe is fixed at construction: programs that
//! lock an unknown entity are rejected up front with
//! [`ParError::UnknownEntity`] (the slab cannot grow while workers share
//! it), which doubles as the server's schema check.

use crate::engine::run_batch;
use crate::outcome::{ParConfig, ParError, ParOutcome};
use crate::pool::Pool;
use crate::word::{EntitySlab, FastPathStats};
use pr_model::{EntityId, TransactionProgram};
use pr_storage::{GlobalStore, Snapshot};
use std::sync::Arc;

/// A long-lived executor session: a persistent entity slab, its worker
/// threads, and the global transaction-id and stamp counters. See the
/// module docs.
pub struct Session {
    slab: Arc<EntitySlab>,
    config: ParConfig,
    admitted: u32,
    stamp: u64,
    batches: u64,
    pool: Pool,
}

/// Servers open a session on one thread and run it on another.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

impl Session {
    /// Opens a session over the entities (and initial values) of `store`
    /// and starts its helper threads, one fewer than its workers (see the
    /// module docs). The entity universe is fixed from here on.
    pub fn new(store: &GlobalStore, config: ParConfig) -> Session {
        Session::resume(store, config, 0, 0)
    }

    /// Opens a session that *continues* a previous one: `store` carries the
    /// recovered entity values and the id/stamp clocks start above the
    /// recovered high-water marks, so transactions committed after a crash
    /// extend the pre-crash history monotonically — the concatenation is
    /// one valid oracle input, exactly as if the process had never died.
    pub fn resume(store: &GlobalStore, config: ParConfig, admitted: u32, stamp: u64) -> Session {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let pool = Pool::new(config.threads.max(1).min(cores.max(2)));
        Session {
            slab: Arc::new(EntitySlab::from_store(store)),
            config,
            admitted,
            stamp,
            batches: 0,
            pool,
        }
    }

    /// The configuration every batch runs under.
    pub fn config(&self) -> &ParConfig {
        &self.config
    }

    /// Transactions admitted (and committed) so far.
    pub fn admitted(&self) -> u32 {
        self.admitted
    }

    /// Batches executed so far (by this process; a resumed session starts
    /// again at zero).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Grant-stamp high-water mark — the session clock's current value.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Whether `entity` exists in this session's universe.
    pub fn contains(&self, entity: EntityId) -> bool {
        self.slab.contains(entity)
    }

    /// Checks that every entity `program` locks exists in the session's
    /// universe; returns the first unknown entity otherwise.
    pub fn accepts(&self, program: &TransactionProgram) -> Result<(), EntityId> {
        match program.locked_entities().iter().find(|e| !self.slab.contains(**e)) {
            None => Ok(()),
            Some(e) => Err(*e),
        }
    }

    /// Executes one batch to quiescence on up to `n` of the session's
    /// workers, the calling thread among them. On success every
    /// transaction in `programs` committed; `per_txn` and `accesses` carry
    /// the global transaction ids (offset by [`Self::admitted`] at entry)
    /// and stamps continuing the session clock. On error the batch's
    /// effects on the slab are undefined and the session must not be
    /// reused — the caller should surface the error and tear down (an
    /// engine error here is an invariant violation, not a workload
    /// property).
    ///
    /// `fast` in the returned outcome reports the slab's *cumulative*
    /// fast-path counters, not this batch's alone — the counters live in
    /// the persistent slab.
    pub fn execute(&mut self, programs: &[TransactionProgram]) -> Result<ParOutcome, ParError> {
        for p in programs {
            if let Err(entity) = self.accepts(p) {
                return Err(ParError::UnknownEntity { entity });
            }
        }
        let n = u32::try_from(programs.len())
            .ok()
            .and_then(|n| self.admitted.checked_add(n))
            .ok_or_else(|| {
                ParError::Inconsistent("session transaction-id space exhausted".into())
            })?;
        let (outcome, stamp) =
            run_batch(&self.pool, programs, &self.slab, &self.config, self.admitted, self.stamp)?;
        self.admitted = n;
        self.stamp = stamp;
        self.batches += 1;
        Ok(outcome)
    }

    /// Current database state (between batches: the last batch's final
    /// published values; initial values for untouched entities).
    pub fn snapshot(&self) -> Snapshot {
        self.slab.snapshot()
    }

    /// Re-asserts slab quiescence (every lock word fully zero). True
    /// between batches on any healthy session; servers call this at
    /// shutdown as the final drain check.
    pub fn check_quiescent(&self) -> Result<(), String> {
        self.slab.check_quiescent()
    }

    /// Consumes the session, asserting quiescence one last time, and joins
    /// its helper threads (as a plain drop does). Returns the cumulative
    /// fast-path counters.
    pub fn finish(self) -> Result<FastPathStats, ParError> {
        self.slab.check_quiescent().map_err(ParError::Inconsistent)?;
        Ok(self.slab.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::{Expr, Op, TxnId, Value, VarId};

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    fn increment(entity: EntityId, delta: i64) -> TransactionProgram {
        TransactionProgram::try_from(vec![
            Op::LockExclusive(entity),
            Op::Read { entity, into: VarId::new(0) },
            Op::Assign {
                var: VarId::new(0),
                expr: Expr::add(Expr::var(VarId::new(0)), Expr::lit(delta)),
            },
            Op::Write { entity, expr: Expr::var(VarId::new(0)) },
            Op::Commit,
        ])
        .unwrap()
    }

    fn session(entities: u32) -> Session {
        Session::new(
            &GlobalStore::with_entities(entities, Value::new(100)),
            ParConfig::with_threads(2),
        )
    }

    #[test]
    fn values_persist_across_batches() {
        let mut s = session(2);
        s.execute(&[increment(e(0), 5), increment(e(1), 7)]).unwrap();
        let out = s.execute(&[increment(e(0), 5)]).unwrap();
        assert_eq!(out.snapshot.get(e(0)), Some(Value::new(110)));
        assert_eq!(out.snapshot.get(e(1)), Some(Value::new(107)));
        assert_eq!(s.admitted(), 3);
        assert_eq!(s.batches(), 2);
        s.finish().unwrap();
    }

    #[test]
    fn ids_and_stamps_are_global_across_batches() {
        let mut s = session(1);
        let first = s.execute(&[increment(e(0), 1), increment(e(0), 1)]).unwrap();
        let second = s.execute(&[increment(e(0), 1)]).unwrap();
        let first_ids: Vec<u32> = first.per_txn.iter().map(|t| t.id.raw()).collect();
        assert_eq!(first_ids, vec![1, 2]);
        assert_eq!(second.per_txn[0].id, TxnId::new(3));
        assert_eq!(s.admitted(), 3);
        // Stamps from the second batch lie strictly above the first's.
        let max_first = first.accesses.iter().map(|a| a.stamp).max().unwrap();
        let min_second = second.accesses.iter().map(|a| a.stamp).min().unwrap();
        assert!(min_second > max_first, "stamp clock must be monotone across batches");
        // The concatenated history has unique stamps throughout.
        let mut stamps: Vec<u64> =
            first.accesses.iter().chain(&second.accesses).map(|a| a.stamp).collect();
        let n = stamps.len();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), n);
    }

    #[test]
    fn unknown_entities_are_rejected_up_front() {
        let mut s = session(2);
        let err = s.execute(&[increment(e(0), 1), increment(e(9), 1)]).unwrap_err();
        assert_eq!(err, ParError::UnknownEntity { entity: e(9) });
        // The rejection happened before execution: nothing was admitted,
        // and the session is still usable.
        assert_eq!(s.admitted(), 0);
        let out = s.execute(&[increment(e(1), 3)]).unwrap();
        assert_eq!(out.snapshot.get(e(1)), Some(Value::new(103)));
        s.finish().unwrap();
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut s = session(1);
        let out = s.execute(&[]).unwrap();
        assert_eq!(out.commits(), 0);
        assert_eq!(s.admitted(), 0);
        assert_eq!(s.batches(), 1);
        assert_eq!(s.snapshot().get(e(0)), Some(Value::new(100)));
        s.finish().unwrap();
    }

    #[test]
    fn contended_session_batches_conserve_totals() {
        // Opposed transfers in every batch: deadlocks resolve by partial
        // rollback inside a batch while the slab persists across them.
        let transfer = |first: EntityId, second: EntityId, delta: i64| {
            let bump = |ent: EntityId, var: u16, d: i64| {
                vec![
                    Op::Read { entity: ent, into: VarId::new(var) },
                    Op::Assign {
                        var: VarId::new(var),
                        expr: Expr::add(Expr::var(VarId::new(var)), Expr::lit(d)),
                    },
                    Op::Write { entity: ent, expr: Expr::var(VarId::new(var)) },
                ]
            };
            let mut ops = vec![Op::LockExclusive(first)];
            ops.extend(bump(first, 0, delta));
            ops.push(Op::LockExclusive(second));
            ops.extend(bump(second, 1, -delta));
            ops.push(Op::Commit);
            TransactionProgram::try_from(ops).unwrap()
        };
        let mut s = session(2);
        let mut all_accesses = Vec::new();
        for round in 0..6 {
            let out =
                s.execute(&[transfer(e(0), e(1), round + 1), transfer(e(1), e(0), 3)]).unwrap();
            assert_eq!(out.commits(), 2);
            all_accesses.extend(out.accesses);
        }
        let total: i64 = s.snapshot().iter().map(|(_, v)| v.raw()).sum();
        assert_eq!(total, 200, "transfers conserve the total across batches");
        // The concatenated cross-batch history still has unique stamps.
        let mut stamps: Vec<u64> = all_accesses.iter().map(|a| a.stamp).collect();
        let n = stamps.len();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), n);
        s.finish().unwrap();
    }
}
