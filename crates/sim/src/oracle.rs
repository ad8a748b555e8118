//! Differential serializability oracle for the parallel engine.
//!
//! A [`pr_par::ParOutcome`] carries a grant-stamped access history: one
//! [`CommittedAccess`] per committed lock state, stamped at the moment the
//! lock was granted. Conflicting grants on one entity are stamped in grant
//! order (the stamp is taken before the lock is released, which
//! happens-before the next conflicting grant), so the history totally
//! orders every pair of conflicting accesses **without ever having
//! observed the interleaving**. The oracle rebuilds the conflict graph
//! from those stamps and checks it for acyclicity — the classical
//! conflict-serializability criterion.
//!
//! [`check_outcome`] layers three further checks on top:
//!
//! * **differential** — the final database snapshot must equal the one a
//!   serial run of the same programs, one at a time in index order
//!   ([`run_serial`]), produces. Valid because the generator's workloads
//!   are *delta-additive*: every entity write publishes `value-read + c`
//!   for a program constant `c`, so all serial orders (and hence all
//!   serializable executions) agree on the final state. The serial run
//!   cannot deadlock, so the reference costs one pass over the programs
//!   however contended the checked run was;
//! * **accounting** — the shared metrics, the per-transaction rollback
//!   ledgers, and the resolution-cost histogram must tell the same story
//!   (`states_lost` three ways, preemption counts two ways);
//! * **per-strategy invariants** — e.g. the total-rollback strategy may
//!   never record a partial rollback.
//!
//! [`check_server_history`] makes the conflict and differential checks
//! for a server's history; [`check_outcome`] runs it after its own
//! completeness and accounting checks, so both oracles share one
//! reference.

use crate::runner::run_serial;
use pr_core::{StrategyKind, SystemConfig};
use pr_model::{EntityId, LockMode, TransactionProgram, TxnId};
use pr_par::{CommittedAccess, ParOutcome};
use pr_storage::GlobalStore;
use std::fmt;

/// A serializability / consistency violation found by the oracle. Any of
/// these in a real run is an engine bug, not a workload property.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OracleViolation {
    /// The conflict graph over committed accesses has a cycle — the
    /// history is not conflict-serializable.
    ConflictCycle {
        /// Transactions on (or feeding) the cycle: every node Kahn's
        /// algorithm could not peel.
        members: Vec<TxnId>,
    },
    /// Two committed accesses share a grant stamp (the stamp clock is
    /// supposed to be strictly monotone across the run).
    DuplicateStamp {
        /// The colliding stamp value.
        stamp: u64,
    },
    /// A batch's lowest grant stamp is not above the highest stamp of the
    /// batches before it, so its conflicts with them may point backwards.
    StampRegression {
        /// The batch's lowest stamp.
        stamp: u64,
        /// The highest stamp checked before it.
        floor: u64,
    },
    /// The parallel run's final snapshot disagrees with the serial
    /// reference run.
    SnapshotMismatch {
        /// First entity (in id order) whose values differ.
        entity: EntityId,
        /// Value the parallel engine left behind.
        parallel: i64,
        /// Value the serial reference produced.
        reference: i64,
    },
    /// Not every admitted transaction committed.
    MissingCommits {
        /// Transactions admitted.
        expected: usize,
        /// Transactions that committed.
        committed: usize,
    },
    /// The serial reference run itself failed (a program that cannot run
    /// alone, or one that overran its step budget), so there is nothing
    /// sound to compare against.
    ReferenceFailed(String),
    /// A metrics/ledger reconciliation or per-strategy invariant failed.
    Accounting(String),
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::ConflictCycle { members } => {
                write!(f, "conflict graph is cyclic through {members:?}")
            }
            OracleViolation::DuplicateStamp { stamp } => {
                write!(f, "two committed accesses share grant stamp {stamp}")
            }
            OracleViolation::StampRegression { stamp, floor } => write!(
                f,
                "batch's lowest grant stamp {stamp} is not above the previous batches' {floor}"
            ),
            OracleViolation::SnapshotMismatch { entity, parallel, reference } => write!(
                f,
                "final value of {entity} diverged: parallel {parallel}, reference {reference}"
            ),
            OracleViolation::MissingCommits { expected, committed } => {
                write!(f, "only {committed} of {expected} transactions committed")
            }
            OracleViolation::ReferenceFailed(e) => {
                write!(f, "serial reference run failed: {e}")
            }
            OracleViolation::Accounting(e) => write!(f, "accounting violation: {e}"),
        }
    }
}

impl std::error::Error for OracleViolation {}

/// What a clean oracle pass looked at — useful for asserting the check
/// was not vacuous.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OracleReport {
    /// Committed transactions examined.
    pub txns: usize,
    /// Committed accesses in the history.
    pub accesses: usize,
    /// Distinct edges in the linear conflict graph the check ran on. That
    /// graph keeps the reachability of the full conflict graph (an edge
    /// for every conflicting pair), not every edge, so this can be
    /// smaller than the number of conflicting transaction pairs.
    pub conflict_edges: usize,
}

/// The distinct values in ascending order; a value's dense id is its
/// index, found by binary search.
fn dense_ids<T: Ord>(values: impl Iterator<Item = T>) -> Vec<T> {
    let mut ids: Vec<T> = values.collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Builds the linear conflict graph of a stamp-sorted history: the
/// transactions in id order (dense node `i` is `nodes[i]`) and the
/// distinct edges, sorted. Per entity, in stamp order, the walk keeps
/// the last writer and the readers since that write. A shared access
/// gets an edge from the last writer; an exclusive access gets edges
/// from the last writer and every reader since, and becomes the last
/// writer. Each access adds at most one writer edge and each read at
/// most one reader edge, yet a path joins every conflicting pair in
/// stamp order, so the graph has a cycle exactly when the full conflict
/// graph does.
fn conflict_edges(history: &[CommittedAccess]) -> (Vec<TxnId>, Vec<(u32, u32)>) {
    const NONE: u32 = u32::MAX;
    let nodes = dense_ids(history.iter().map(|a| a.txn));
    let entities = dense_ids(history.iter().map(|a| a.entity));
    let mut writer = vec![NONE; entities.len()];
    // The readers since an entity's last write are a list threaded
    // through the accesses: `first_reader[e]`, then `next_reader[i]`.
    let mut first_reader = vec![NONE; entities.len()];
    let mut next_reader = vec![NONE; history.len()];
    let mut node_at = Vec::with_capacity(history.len());
    let mut edges = Vec::new();
    for (i, a) in history.iter().enumerate() {
        let t = nodes.binary_search(&a.txn).expect("every txn has a node") as u32;
        let e = entities.binary_search(&a.entity).expect("every entity has an id");
        node_at.push(t);
        if writer[e] != NONE && writer[e] != t {
            edges.push((writer[e], t));
        }
        if a.mode == LockMode::Exclusive {
            let mut r = std::mem::replace(&mut first_reader[e], NONE);
            while r != NONE {
                let reader = node_at[r as usize];
                if reader != t {
                    edges.push((reader, t));
                }
                r = next_reader[r as usize];
            }
            writer[e] = t;
        } else {
            next_reader[i] = first_reader[e];
            first_reader[e] = i as u32;
        }
    }
    edges.sort_unstable();
    edges.dedup();
    (nodes, edges)
}

/// Checks the stamped history for conflict-serializability: unique
/// stamps, then Kahn's algorithm over the linear conflict graph (per
/// entity, the last writer and the readers since it), whose size grows
/// with the history rather than with the square of each entity's access
/// list. Apart from sorting the ids and edges, every step is one pass.
/// The input may be in any order; a duplicate reports the smallest
/// shared stamp. Returns the distinct edge count on success.
pub fn check_conflict_serializable(accesses: &[CommittedAccess]) -> Result<usize, OracleViolation> {
    // `ParOutcome::accesses` is sorted by stamp at history assembly
    // (`AccessHistory::into_accesses`); only hand-assembled histories
    // pay for a sorted copy.
    let mut sorted = Vec::new();
    let history = if accesses.windows(2).all(|w| w[0].stamp <= w[1].stamp) {
        accesses
    } else {
        sorted.extend_from_slice(accesses);
        sorted.sort_by_key(|a| a.stamp);
        &sorted
    };
    if let Some(w) = history.windows(2).find(|w| w[0].stamp == w[1].stamp) {
        return Err(OracleViolation::DuplicateStamp { stamp: w[0].stamp });
    }
    let (nodes, edges) = conflict_edges(history);
    // Compressed adjacency: `edges` is sorted by source, so node `i`'s
    // successors are `edges[first[i]..first[i + 1]]`.
    let mut first = vec![0usize; nodes.len() + 1];
    let mut indegree = vec![0usize; nodes.len()];
    for &(from, to) in &edges {
        first[from as usize + 1] += 1;
        indegree[to as usize] += 1;
    }
    for i in 0..nodes.len() {
        first[i + 1] += first[i];
    }
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
    let mut peeled = 0;
    while let Some(i) = ready.pop() {
        peeled += 1;
        for &(_, to) in &edges[first[i]..first[i + 1]] {
            let d = &mut indegree[to as usize];
            *d -= 1;
            if *d == 0 {
                ready.push(to as usize);
            }
        }
    }
    if peeled != nodes.len() {
        let members: Vec<TxnId> =
            (0..nodes.len()).filter(|&i| indegree[i] > 0).map(|i| nodes[i]).collect();
        return Err(OracleViolation::ConflictCycle { members });
    }
    Ok(edges.len())
}

/// Full differential check of one parallel run: commit completeness,
/// metrics/ledger reconciliation and per-strategy invariants
/// ([`check_accounting`]), then [`check_server_history`] over the run's
/// stamped history and final snapshot: conflict-serializability, and
/// snapshot equality against a serial run of the same programs in index
/// order over the same initial store.
///
/// The snapshot comparison assumes a delta-additive workload (every
/// entity write publishes `read value + constant`), which is what
/// [`crate::generator::ProgramGenerator`] emits; for such workloads all
/// serializable executions share one final state, so the serial run is
/// as discriminating a reference as any concurrent schedule.
pub fn check_outcome(
    programs: &[TransactionProgram],
    initial: &GlobalStore,
    config: &SystemConfig,
    outcome: &ParOutcome,
) -> Result<OracleReport, OracleViolation> {
    let committed = outcome.commits();
    if committed != programs.len() {
        return Err(OracleViolation::MissingCommits { expected: programs.len(), committed });
    }
    check_accounting(config, outcome)?;
    check_server_history(programs, initial, config, &outcome.accesses, &outcome.snapshot)
}

/// Differential check for a grant-stamped history and the final snapshot
/// it left: the concatenated accesses a long-lived [`pr_par::Session`]
/// (driven over the wire by `pr-server`) produced across all its
/// batches, or one [`ParOutcome`]'s (through [`check_outcome`]).
/// `programs[i]` must be the program admitted as global `TxnId(i + 1)` —
/// the load driver regenerates them deterministically from per-client
/// seeds rather than shipping them back over the network.
///
/// The history must be conflict-serializable, and the snapshot must equal
/// a plain serial execution's in identity order ([`run_serial`]). For
/// delta-additive workloads *every* serializable execution — the
/// identity serial order included — produces the same final state, so
/// this reference is exact, and its cost is one pass over the programs
/// however contended the checked run was. Accounting checks are not made
/// here: [`check_outcome`] makes them per run, and the server reconciles
/// each batch's engine ledgers itself.
pub fn check_server_history(
    programs: &[TransactionProgram],
    initial: &GlobalStore,
    config: &SystemConfig,
    accesses: &[CommittedAccess],
    snapshot: &pr_storage::Snapshot,
) -> Result<OracleReport, OracleViolation> {
    for a in accesses {
        let idx = a.txn.raw() as usize;
        if idx == 0 || idx > programs.len() {
            return Err(OracleViolation::Accounting(format!(
                "history references {} but only {} programs were admitted",
                a.txn,
                programs.len()
            )));
        }
    }
    let conflict_edges = check_conflict_serializable(accesses)?;

    let mut store = GlobalStore::new();
    for (id, v) in initial.iter() {
        store.create(id, v).expect("fresh store");
    }
    let order: Vec<usize> = (0..programs.len()).collect();
    let mut serial_config = *config;
    // One transaction at a time cannot deadlock; the per-transaction step
    // budget only needs to cover its own ops.
    serial_config.max_steps = serial_config.max_steps.max(1_000_000);
    let reference = run_serial(programs, &order, store, serial_config)
        .map_err(|e| OracleViolation::ReferenceFailed(e.to_string()))?;
    for (entity, value) in reference.iter() {
        let server = snapshot.get(entity).ok_or(OracleViolation::SnapshotMismatch {
            entity,
            parallel: i64::MIN,
            reference: value.raw(),
        })?;
        if server != value {
            return Err(OracleViolation::SnapshotMismatch {
                entity,
                parallel: server.raw(),
                reference: value.raw(),
            });
        }
    }

    Ok(OracleReport { txns: programs.len(), accesses: accesses.len(), conflict_edges })
}

/// The accounting and per-strategy invariant layer of [`check_outcome`]:
/// `states_lost` must agree across the shared metrics, the
/// per-transaction ledgers, and the resolution-cost histogram;
/// preemption counts must agree across both views; and the total
/// strategy may never roll back partially.
pub fn check_accounting(
    config: &SystemConfig,
    outcome: &ParOutcome,
) -> Result<(), OracleViolation> {
    let m = &outcome.metrics;
    let ledger_lost: u64 = outcome.per_txn.iter().map(|t| t.states_lost).sum();
    if m.states_lost != ledger_lost {
        return Err(OracleViolation::Accounting(format!(
            "metrics.states_lost {} != per-txn ledger sum {ledger_lost}",
            m.states_lost
        )));
    }
    if m.resolution_cost.sum() != m.states_lost {
        return Err(OracleViolation::Accounting(format!(
            "resolution-cost histogram sum {} != metrics.states_lost {}",
            m.resolution_cost.sum(),
            m.states_lost
        )));
    }
    let ledger_preempt: u64 = outcome.per_txn.iter().map(|t| u64::from(t.preemptions)).sum();
    let metric_preempt: u64 = m.preemptions.values().map(|&c| u64::from(c)).sum();
    if ledger_preempt != metric_preempt {
        return Err(OracleViolation::Accounting(format!(
            "per-txn preemptions {ledger_preempt} != metrics preemptions {metric_preempt}"
        )));
    }
    let rollbacks = m.total_rollbacks + m.partial_rollbacks;
    if metric_preempt != rollbacks {
        return Err(OracleViolation::Accounting(format!(
            "preemptions {metric_preempt} != rollbacks {rollbacks} (total + partial)"
        )));
    }
    if config.strategy == StrategyKind::Total && m.partial_rollbacks != 0 {
        return Err(OracleViolation::Accounting(format!(
            "total strategy recorded {} partial rollbacks",
            m.partial_rollbacks
        )));
    }
    if config.strategy == StrategyKind::Repair {
        // A ParOutcome only exists for all-committed runs, so every
        // rolled-back state was eventually traversed again and landed in
        // exactly one of the two repair ledgers.
        if m.repairs != rollbacks {
            return Err(OracleViolation::Accounting(format!(
                "repairs {} != rollbacks {rollbacks}",
                m.repairs
            )));
        }
        if m.repair_suffix.sum() != m.states_lost {
            return Err(OracleViolation::Accounting(format!(
                "repair-suffix histogram sum {} != metrics.states_lost {}",
                m.repair_suffix.sum(),
                m.states_lost
            )));
        }
        if m.ops_replayed + m.ops_reused != m.states_lost {
            return Err(OracleViolation::Accounting(format!(
                "ops_replayed {} + ops_reused {} != states_lost {}",
                m.ops_replayed, m.ops_reused, m.states_lost
            )));
        }
    } else if m.repairs != 0 || m.ops_replayed != 0 || m.ops_reused != 0 {
        return Err(OracleViolation::Accounting(format!(
            "non-repair strategy recorded repair activity ({} repairs, {} replayed, {} reused)",
            m.repairs, m.ops_replayed, m.ops_reused
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, ProgramGenerator};
    use pr_model::LockMode;
    use pr_par::{ParConfig, Session};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn acc(txn: u32, entity: u32, mode: LockMode, stamp: u64) -> CommittedAccess {
        CommittedAccess { txn: TxnId::new(txn), entity: EntityId::new(entity), mode, stamp }
    }

    #[test]
    fn serial_history_is_accepted() {
        // T1 then T2, disjoint and overlapping entities, no cycle.
        let h = vec![
            acc(1, 0, LockMode::Exclusive, 1),
            acc(1, 1, LockMode::Exclusive, 2),
            acc(2, 1, LockMode::Exclusive, 3),
            acc(2, 2, LockMode::Shared, 4),
        ];
        assert_eq!(check_conflict_serializable(&h), Ok(1));
    }

    #[test]
    fn shared_shared_does_not_conflict() {
        let h = vec![
            acc(1, 0, LockMode::Shared, 1),
            acc(2, 0, LockMode::Shared, 2),
            acc(1, 1, LockMode::Exclusive, 3),
            acc(2, 2, LockMode::Exclusive, 4),
        ];
        // Readers of entity 0 are unordered; no edges at all.
        assert_eq!(check_conflict_serializable(&h), Ok(0));
    }

    /// The planted non-serializable history the oracle must reject:
    /// classic write skew. T1 reads X and writes Y; T2 reads Y and writes
    /// X; the stamps interleave so each read precedes the other's write.
    #[test]
    fn write_skew_history_is_rejected() {
        let x = 0;
        let y = 1;
        let h = vec![
            acc(1, x, LockMode::Shared, 1),    // T1 reads X
            acc(2, y, LockMode::Shared, 2),    // T2 reads Y
            acc(1, y, LockMode::Exclusive, 3), // T1 writes Y  (T2 → T1)
            acc(2, x, LockMode::Exclusive, 4), // T2 writes X  (T1 → T2)
        ];
        match check_conflict_serializable(&h) {
            Err(OracleViolation::ConflictCycle { members }) => {
                assert_eq!(members, vec![TxnId::new(1), TxnId::new(2)]);
            }
            other => panic!("write skew must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_stamps_are_rejected() {
        let h = vec![acc(1, 0, LockMode::Exclusive, 7), acc(2, 1, LockMode::Exclusive, 7)];
        assert_eq!(
            check_conflict_serializable(&h),
            Err(OracleViolation::DuplicateStamp { stamp: 7 })
        );
    }

    #[test]
    fn three_way_cycle_is_rejected() {
        // T1 → T2 → T3 → T1 through three entities.
        let h = vec![
            acc(1, 0, LockMode::Exclusive, 1),
            acc(2, 0, LockMode::Exclusive, 4), // T1 → T2
            acc(2, 1, LockMode::Exclusive, 2),
            acc(3, 1, LockMode::Exclusive, 5), // T2 → T3
            acc(3, 2, LockMode::Exclusive, 3),
            acc(1, 2, LockMode::Exclusive, 6), // T3 → T1
        ];
        assert!(matches!(
            check_conflict_serializable(&h),
            Err(OracleViolation::ConflictCycle { .. })
        ));
    }

    /// The stamp sort must not change verdicts: any insertion order of
    /// the same history yields the same edges and the same
    /// accept/reject outcome.
    #[test]
    fn access_insertion_order_does_not_change_verdicts() {
        let serial = vec![
            acc(1, 0, LockMode::Exclusive, 1),
            acc(1, 1, LockMode::Exclusive, 2),
            acc(2, 1, LockMode::Exclusive, 3),
            acc(2, 0, LockMode::Shared, 4),
        ];
        let skew = vec![
            acc(1, 0, LockMode::Shared, 1),
            acc(2, 1, LockMode::Shared, 2),
            acc(1, 1, LockMode::Exclusive, 3),
            acc(2, 0, LockMode::Exclusive, 4),
        ];
        for history in [serial, skew] {
            let sorted_verdict = check_conflict_serializable(&history);
            // A deterministic shuffle: reversed, then odd indices first.
            let mut shuffled: Vec<CommittedAccess> = history.iter().rev().copied().collect();
            shuffled.sort_by_key(|a| (a.stamp % 2 == 0, a.stamp));
            assert_ne!(
                shuffled.iter().map(|a| a.stamp).collect::<Vec<_>>(),
                history.iter().map(|a| a.stamp).collect::<Vec<_>>(),
                "shuffle must actually change the order"
            );
            assert_eq!(check_conflict_serializable(&shuffled), sorted_verdict);
            assert_eq!(reference_check(&shuffled), reference_check(&history));
        }
    }

    /// The quadratic reference: an edge `a → b` for every pair of
    /// accesses to one entity where `a` precedes `b` in stamp order, the
    /// transactions differ, and at least one side is exclusive.
    fn conflict_graph(accesses: &[CommittedAccess]) -> BTreeMap<TxnId, BTreeSet<TxnId>> {
        let mut by_entity: BTreeMap<EntityId, Vec<&CommittedAccess>> = BTreeMap::new();
        for a in accesses {
            by_entity.entry(a.entity).or_default().push(a);
        }
        let mut adj: BTreeMap<TxnId, BTreeSet<TxnId>> =
            accesses.iter().map(|a| (a.txn, BTreeSet::new())).collect();
        for list in by_entity.values_mut() {
            list.sort_by_key(|a| a.stamp);
            for (i, earlier) in list.iter().enumerate() {
                for later in &list[i + 1..] {
                    let conflicts =
                        earlier.mode == LockMode::Exclusive || later.mode == LockMode::Exclusive;
                    if conflicts && earlier.txn != later.txn {
                        adj.get_mut(&earlier.txn).expect("node").insert(later.txn);
                    }
                }
            }
        }
        adj
    }

    /// The reference verdict: the smallest duplicate stamp, else Kahn's
    /// algorithm on the quadratic graph (`Ok(())` when acyclic).
    fn reference_check(accesses: &[CommittedAccess]) -> Result<(), OracleViolation> {
        let mut seen = BTreeSet::new();
        if let Some(stamp) = accesses.iter().map(|a| a.stamp).filter(|&s| !seen.insert(s)).min() {
            return Err(OracleViolation::DuplicateStamp { stamp });
        }
        let adj = conflict_graph(accesses);
        let mut indegree: BTreeMap<TxnId, usize> = adj.keys().map(|&t| (t, 0)).collect();
        for &s in adj.values().flatten() {
            *indegree.get_mut(&s).expect("node") += 1;
        }
        let mut ready: Vec<TxnId> =
            indegree.iter().filter(|&(_, &d)| d == 0).map(|(&t, _)| t).collect();
        while let Some(t) = ready.pop() {
            for s in &adj[&t] {
                let d = indegree.get_mut(s).expect("node");
                *d -= 1;
                if *d == 0 {
                    ready.push(*s);
                }
            }
        }
        let members: Vec<TxnId> =
            indegree.iter().filter(|&(_, &d)| d > 0).map(|(&t, _)| t).collect();
        if members.is_empty() {
            Ok(())
        } else {
            Err(OracleViolation::ConflictCycle { members })
        }
    }

    /// Pairs `(from, to)` with a non-empty path, by depth-first search.
    fn closure(adj: &BTreeMap<TxnId, BTreeSet<TxnId>>) -> BTreeSet<(TxnId, TxnId)> {
        let mut pairs = BTreeSet::new();
        for &from in adj.keys() {
            let mut stack: Vec<TxnId> = adj[&from].iter().copied().collect();
            while let Some(t) = stack.pop() {
                if pairs.insert((from, t)) {
                    stack.extend(adj[&t].iter().copied());
                }
            }
        }
        pairs
    }

    /// Asserts the linear check agrees with the quadratic reference, and
    /// (for unique stamps) that both graphs have the same reachability
    /// with the linear one's edges a subset of the reference's.
    fn assert_matches_reference(history: &[CommittedAccess]) -> Result<(), TestCaseError> {
        let verdict = check_conflict_serializable(history).map(|_| ());
        prop_assert_eq!(&verdict, &reference_check(history), "{:?}", history);
        if matches!(verdict, Err(OracleViolation::DuplicateStamp { .. })) {
            return Ok(());
        }
        let mut sorted = history.to_vec();
        sorted.sort_by_key(|a| a.stamp);
        let (nodes, edges) = conflict_edges(&sorted);
        let mut linear: BTreeMap<TxnId, BTreeSet<TxnId>> =
            nodes.iter().map(|&t| (t, BTreeSet::new())).collect();
        for &(from, to) in &edges {
            linear.get_mut(&nodes[from as usize]).expect("node").insert(nodes[to as usize]);
        }
        let full = conflict_graph(history);
        for (from, succs) in &linear {
            prop_assert!(succs.is_subset(&full[from]), "linear edge {from} → {succs:?}");
        }
        prop_assert_eq!(closure(&linear), closure(&full));
        Ok(())
    }

    /// A deterministic Fisher–Yates shuffle driven by `seed`.
    fn shuffle(history: &mut [CommittedAccess], mut seed: u64) {
        for i in (1..history.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            history.swap(i, (seed >> 33) as usize % (i + 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random shared/exclusive histories over a few transactions and
        /// entities: serial-ish blocks (mostly acyclic) or free
        /// interleavings (mostly cyclic), presented in shuffled order,
        /// sometimes with one stamp duplicated.
        #[test]
        fn linear_check_matches_the_quadratic_reference(
            raw in prop::collection::vec((1u32..=6, 0u32..5, any::<bool>()), 0..40),
            serial in any::<bool>(),
            shuffle_seed in prop_oneof![Just(0u64), any::<u64>()],
            duplicate in prop_oneof![Just(None), (0usize..40, 0usize..40).prop_map(Some)],
        ) {
            let mut history: Vec<CommittedAccess> = raw
                .iter()
                .map(|&(txn, entity, exclusive)| {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    acc(txn, entity, mode, 0)
                })
                .collect();
            if serial {
                history.sort_by_key(|a| a.txn);
            }
            for (i, a) in history.iter_mut().enumerate() {
                a.stamp = 10 * (i as u64 + 1);
            }
            if let (Some((i, j)), false) = (duplicate, history.is_empty()) {
                let n = history.len();
                history[i % n].stamp = history[j % n].stamp;
            }
            if shuffle_seed != 0 {
                shuffle(&mut history, shuffle_seed);
            }
            assert_matches_reference(&history)?;
        }
    }

    /// Real histories: a two-thread session per seed under every
    /// strategy, Repair included, on a small hot entity set so deadlocks
    /// and rollbacks happen (programs padded so a session outlasts the
    /// helper thread's start-up). Each real history is serializable; its
    /// planted mutants (two accesses' stamps swapped, a shared access
    /// made exclusive, a stamp duplicated) often are not, and both
    /// checkers must say the same about every one.
    #[test]
    fn linear_check_matches_the_reference_on_planted_mutants() {
        let strategies =
            [StrategyKind::Total, StrategyKind::Mcs, StrategyKind::Sdg, StrategyKind::Repair];
        let gen = GeneratorConfig {
            num_entities: 6,
            exclusive_per_mille: 600,
            pad_between: 200,
            ..GeneratorConfig::default()
        };
        let initial = GlobalStore::with_entities(6, pr_model::Value::new(10));
        let mut rng = 0x5EED_u64;
        let mut next = |n: usize| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize % n
        };
        let (mut rolled_back, mut cycles, mut duplicates, mut accepted) = (0, 0, 0, 0);
        // At least 64 sessions; past them, only until the first rollback
        // (a slow scheduler forms few deadlocks), up to a cap.
        let mut seed = 0;
        while seed < 64 || (rolled_back == 0 && seed < 2_000) {
            let strategy = strategies[seed as usize % strategies.len()];
            let programs = ProgramGenerator::new(gen, seed).generate_workload(12);
            let config = ParConfig {
                system: SystemConfig { strategy, ..SystemConfig::default() },
                ..ParConfig::with_threads(2)
            };
            let outcome = Session::new(&initial, config).execute(&programs).expect("session");
            rolled_back += outcome.metrics.total_rollbacks + outcome.metrics.partial_rollbacks;
            let history = outcome.accesses;
            assert_eq!(check_conflict_serializable(&history).map(|_| ()), Ok(()));
            assert_matches_reference(&history).unwrap();
            let mut mutant = history.clone();
            for _ in 0..4 {
                let (i, j) = (next(mutant.len()), next(mutant.len()));
                match next(3) {
                    0 => {
                        let (a, b) = (mutant[i].stamp, mutant[j].stamp);
                        mutant[i].stamp = b;
                        mutant[j].stamp = a;
                    }
                    1 => mutant[i].mode = LockMode::Exclusive,
                    _ => mutant[i].stamp = mutant[j].stamp,
                }
                assert_matches_reference(&mutant).unwrap();
                match check_conflict_serializable(&mutant) {
                    Ok(_) => accepted += 1,
                    Err(OracleViolation::ConflictCycle { .. }) => cycles += 1,
                    Err(_) => duplicates += 1,
                }
            }
            seed += 1;
        }
        eprintln!("{rolled_back} rollbacks in {seed} sessions");
        assert!(rolled_back > 0, "no session rolled anything back in {seed}");
        assert!(
            accepted > 0 && cycles > 0 && duplicates > 0,
            "mutants must reach every verdict: {accepted} accepted, {cycles} cyclic, \
             {duplicates} duplicate"
        );
    }

    #[test]
    fn server_history_check_accepts_a_real_session_and_catches_tampering() {
        use pr_model::{Expr, Op, Value, VarId};

        let increment = |entity: u32, delta: i64| {
            TransactionProgram::try_from(vec![
                Op::LockExclusive(EntityId::new(entity)),
                Op::Read { entity: EntityId::new(entity), into: VarId::new(0) },
                Op::Assign {
                    var: VarId::new(0),
                    expr: Expr::add(Expr::var(VarId::new(0)), Expr::lit(delta)),
                },
                Op::Write { entity: EntityId::new(entity), expr: Expr::var(VarId::new(0)) },
                Op::Commit,
            ])
            .unwrap()
        };
        let initial = GlobalStore::with_entities(4, Value::new(10));
        let mut session = Session::new(&initial, ParConfig::with_threads(2));
        let batches =
            [vec![increment(0, 1), increment(1, 2)], vec![increment(0, 4), increment(3, 8)]];
        let mut programs = Vec::new();
        let mut accesses = Vec::new();
        for batch in &batches {
            let out = session.execute(batch).unwrap();
            programs.extend(batch.iter().cloned());
            accesses.extend(out.accesses);
        }
        let snapshot = session.snapshot();
        let config = SystemConfig::default();
        let report =
            check_server_history(&programs, &initial, &config, &accesses, &snapshot).unwrap();
        assert_eq!(report.txns, 4);
        assert!(report.accesses >= 4);

        // Tampered snapshot must be caught.
        let bad = pr_storage::Snapshot::from_pairs(snapshot.iter().map(|(id, v)| {
            if id == EntityId::new(0) {
                (id, Value::new(999))
            } else {
                (id, v)
            }
        }));
        assert!(matches!(
            check_server_history(&programs, &initial, &config, &accesses, &bad),
            Err(OracleViolation::SnapshotMismatch { .. })
        ));

        // A history naming a transaction that was never admitted is an
        // accounting violation.
        let mut rogue = accesses.clone();
        rogue.push(acc(99, 0, LockMode::Exclusive, 1_000_000));
        assert!(matches!(
            check_server_history(&programs, &initial, &config, &rogue, &snapshot),
            Err(OracleViolation::Accounting(_))
        ));
    }

    /// `check_outcome` on a real threaded run: accepted as it is, rejected
    /// with a tampered snapshot value, and rejected when one more program
    /// was admitted than ever committed.
    #[test]
    fn check_outcome_rejects_a_tampered_snapshot_and_a_missing_commit() {
        use crate::runner::store_with;
        use pr_par::run_parallel;

        let gen = GeneratorConfig { num_entities: 8, ..GeneratorConfig::default() };
        let mut programs = ProgramGenerator::new(gen, 11).generate_workload(8);
        let config = ParConfig::with_threads(2);
        let mut outcome = run_parallel(&programs, store_with(8, 100), &config).expect("run");
        let initial = store_with(8, 100);
        let report = check_outcome(&programs, &initial, &config.system, &outcome).unwrap();
        assert_eq!(report.txns, 8);

        let clean = outcome.snapshot.clone();
        outcome.snapshot = pr_storage::Snapshot::from_pairs(clean.iter().map(|(id, v)| {
            if id == EntityId::new(3) {
                (id, pr_model::Value::new(v.raw() + 1))
            } else {
                (id, v)
            }
        }));
        assert!(matches!(
            check_outcome(&programs, &initial, &config.system, &outcome),
            Err(OracleViolation::SnapshotMismatch { entity, .. }) if entity == EntityId::new(3)
        ));

        outcome.snapshot = clean;
        programs.push(programs[0].clone());
        assert_eq!(
            check_outcome(&programs, &initial, &config.system, &outcome),
            Err(OracleViolation::MissingCommits { expected: 9, committed: 8 })
        );
    }

    #[test]
    fn violations_render() {
        let v = OracleViolation::SnapshotMismatch {
            entity: EntityId::new(3),
            parallel: 10,
            reference: 12,
        };
        assert!(v.to_string().contains("diverged"));
        assert!(OracleViolation::ReferenceFailed("x".into()).to_string().contains("reference"));
    }
}
