//! Victim candidate construction and policy filtering (§3.1–§3.2).
//!
//! For each deadlock cycle, every member transaction is in principle a
//! candidate victim: rolling it back to (at or below) its lock state for
//! the entity its successor waits on breaks the cycle. The rollback
//! strategy adjusts the *reachable* target — SDG must land on a
//! well-defined state, total rollback always lands on state 0 — and the
//! §3.1 cost function prices the candidate. The victim policy then
//! restricts which members may be chosen, trading optimality against the
//! livelock-freedom of Theorem 2.

use crate::config::{StrategyKind, VictimPolicyKind};
use crate::runtime::RuntimeView;
use pr_graph::{CandidateRollback, Cycle};
use pr_model::TxnId;

/// Builds the cut-set instance for a deadlock: one candidate list per
/// cycle, already filtered by the victim policy.
///
/// Every returned list is non-empty: the conflict causer is a member of
/// every cycle (§3.2) and serves as the fallback candidate whenever a
/// policy's preferred set is empty on some cycle.
pub fn build_instance<V: RuntimeView>(
    cycles: &[Cycle],
    policy: VictimPolicyKind,
    strategy: StrategyKind,
    causer: TxnId,
    txns: &V,
) -> Vec<Vec<CandidateRollback>> {
    let causer_entry = txns.runtime(causer).map(|rt| rt.entry_order).unwrap_or(u64::MAX);
    cycles
        .iter()
        .map(|cycle| {
            let all: Vec<(TxnId, CandidateRollback, u64)> = cycle
                .members
                .iter()
                .filter_map(|m| {
                    // Shrinking members — which, being unblockable, should
                    // never appear on a cycle — yield no candidate.
                    let rt = txns.runtime(m.txn)?;
                    Some((m.txn, rt.rollback_candidate(strategy, m.holds)?, rt.entry_order))
                })
                .collect();
            let filtered: Vec<CandidateRollback> = match policy {
                VictimPolicyKind::MinCost => all.iter().map(|(_, c, _)| *c).collect(),
                VictimPolicyKind::PartialOrder => {
                    // ω = "entered the system later than": victims must be
                    // strictly *younger* than the causer; when the causer
                    // is the youngest member, the causer itself yields.
                    // Any time-invariant order satisfies Theorem 2 (no
                    // mutual preemption); this direction additionally
                    // guarantees termination, because the globally oldest
                    // transaction can never be chosen — not through
                    // others' conflicts (it is younger than no one) and
                    // not through its own (a cycle has at least one other,
                    // necessarily younger, member) — so it always
                    // progresses and the system drains by induction.
                    let younger: Vec<CandidateRollback> = all
                        .iter()
                        .filter(|(t, _, entry)| *t != causer && *entry > causer_entry)
                        .map(|(_, c, _)| *c)
                        .collect();
                    if younger.is_empty() {
                        all.iter().filter(|(t, _, _)| *t == causer).map(|(_, c, _)| *c).collect()
                    } else {
                        younger
                    }
                }
                VictimPolicyKind::Youngest => all
                    .iter()
                    .max_by_key(|(t, _, entry)| (*entry, *t))
                    .map(|(_, c, _)| vec![*c])
                    .unwrap_or_default(),
                VictimPolicyKind::ConflictCauser => {
                    all.iter().filter(|(t, _, _)| *t == causer).map(|(_, c, _)| *c).collect()
                }
            };
            debug_assert!(
                !filtered.is_empty() || all.is_empty(),
                "policy filtering must leave a candidate when any exist"
            );
            filtered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::TxnRuntime;
    use pr_graph::CycleMember;
    use pr_model::{EntityId, LockIndex, LockMode, ProgramBuilder, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }
    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    /// Builds a runtime that has locked the given entities in order, with
    /// `pad` filler operations between lock requests so costs differ.
    fn rt_with_locks(id: u32, entry: u64, entities: &[u32], pad: usize) -> TxnRuntime {
        let mut b = ProgramBuilder::new();
        for &ent in entities {
            b = b.lock_exclusive(e(ent)).pad(pad);
        }
        let p = Arc::new(b.build_unchecked());
        let mut rt = TxnRuntime::new(t(id), p, entry, StrategyKind::Mcs);
        for &ent in entities {
            rt.complete_lock(e(ent), LockMode::Exclusive, Value::ZERO);
            for _ in 0..pad {
                rt.advance();
            }
        }
        rt
    }

    fn two_txn_cycle() -> (Vec<Cycle>, BTreeMap<TxnId, TxnRuntime>) {
        // T1 (entry 0) holds a then b...; T2 (entry 1) holds c.
        // Cycle: T1 must release a (lock state 0), T2 must release c.
        let cycle = Cycle {
            members: vec![
                CycleMember { txn: t(1), holds: e(0) },
                CycleMember { txn: t(2), holds: e(2) },
            ],
        };
        let mut txns = BTreeMap::new();
        txns.insert(t(1), rt_with_locks(1, 0, &[0, 1], 3));
        txns.insert(t(2), rt_with_locks(2, 1, &[2], 1));
        (vec![cycle], txns)
    }

    #[test]
    fn min_cost_keeps_all_members() {
        let (cycles, txns) = two_txn_cycle();
        let inst =
            build_instance(&cycles, VictimPolicyKind::MinCost, StrategyKind::Mcs, t(1), &txns);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst[0].len(), 2);
        // T1 rolling to release a (lock state 0) loses all 8 states;
        // T2 rolling to release c loses 2 states.
        let c1 = inst[0].iter().find(|c| c.txn == t(1)).unwrap();
        let c2 = inst[0].iter().find(|c| c.txn == t(2)).unwrap();
        assert_eq!(c1.cost, 8);
        assert_eq!(c1.target, LockIndex::ZERO);
        assert_eq!(c2.cost, 2);
        // The conflicting access is where the contested lock was issued.
        assert_eq!(c1.conflict, pr_model::StateIndex::ZERO);
        assert_eq!(c2.conflict, pr_model::StateIndex::ZERO);
    }

    #[test]
    fn partial_order_prefers_strictly_younger_than_causer() {
        let (cycles, txns) = two_txn_cycle();
        // Causer T1 (entry 0): only T2 (entry 1) is younger.
        let inst =
            build_instance(&cycles, VictimPolicyKind::PartialOrder, StrategyKind::Mcs, t(1), &txns);
        assert_eq!(inst[0].iter().map(|c| c.txn).collect::<Vec<_>>(), vec![t(2)]);
    }

    #[test]
    fn partial_order_falls_back_to_causer_when_it_is_youngest() {
        let (cycles, txns) = two_txn_cycle();
        // Causer T2 (entry 1) is the youngest member: it yields itself.
        // The oldest transaction is never chosen either way.
        let inst =
            build_instance(&cycles, VictimPolicyKind::PartialOrder, StrategyKind::Mcs, t(2), &txns);
        assert_eq!(inst[0].iter().map(|c| c.txn).collect::<Vec<_>>(), vec![t(2)]);
    }

    #[test]
    fn youngest_picks_latest_entry() {
        let (cycles, txns) = two_txn_cycle();
        let inst =
            build_instance(&cycles, VictimPolicyKind::Youngest, StrategyKind::Mcs, t(1), &txns);
        assert_eq!(inst[0].iter().map(|c| c.txn).collect::<Vec<_>>(), vec![t(2)]);
    }

    #[test]
    fn conflict_causer_picks_only_the_causer() {
        let (cycles, txns) = two_txn_cycle();
        let inst = build_instance(
            &cycles,
            VictimPolicyKind::ConflictCauser,
            StrategyKind::Mcs,
            t(2),
            &txns,
        );
        assert_eq!(inst[0].iter().map(|c| c.txn).collect::<Vec<_>>(), vec![t(2)]);
    }

    #[test]
    fn total_strategy_candidates_target_zero() {
        let (cycles, txns) = two_txn_cycle();
        let inst =
            build_instance(&cycles, VictimPolicyKind::MinCost, StrategyKind::Total, t(1), &txns);
        for c in &inst[0] {
            assert_eq!(c.target, LockIndex::ZERO);
        }
        // Total rollback of T2 costs its full 2 states; of T1 all 8.
        let c2 = inst[0].iter().find(|c| c.txn == t(2)).unwrap();
        assert_eq!(c2.cost, 2);
    }

    #[test]
    fn missing_txn_is_skipped() {
        let cycle = Cycle { members: vec![CycleMember { txn: t(9), holds: e(0) }] };
        let inst = build_instance(
            &[cycle],
            VictimPolicyKind::MinCost,
            StrategyKind::Mcs,
            t(9),
            &BTreeMap::<TxnId, TxnRuntime>::new(),
        );
        assert!(inst[0].is_empty());
    }

    /// A fair-queue arc can point at a member that is merely *queued
    /// ahead* on the contended entity, not holding it. Such a member must
    /// still be a candidate — cancelling its pending request (rollback to
    /// its current lock state, zero states lost under MCS) re-enqueues it
    /// at the tail and breaks the arc.
    #[test]
    fn queued_ahead_member_yields_a_requeue_candidate() {
        use crate::runtime::Phase;
        let cycle = Cycle {
            members: vec![
                CycleMember { txn: t(1), holds: e(0) },
                // T2 does not hold e(5); it is queued ahead of T1's
                // successor on it, blocked on that same entity.
                CycleMember { txn: t(2), holds: e(5) },
            ],
        };
        let mut txns = BTreeMap::new();
        txns.insert(t(1), rt_with_locks(1, 0, &[0, 1], 3));
        let mut rt2 = rt_with_locks(2, 1, &[2], 1);
        rt2.phase = Phase::Blocked;
        rt2.blocked_on = Some(e(5));
        let current = rt2.lock_index();
        txns.insert(t(2), rt2);

        let inst = build_instance(
            &cycle_vec(cycle.clone()),
            VictimPolicyKind::MinCost,
            StrategyKind::Mcs,
            t(1),
            &txns,
        );
        let c2 =
            inst[0].iter().find(|c| c.txn == t(2)).expect("queued-ahead member is a candidate");
        assert_eq!(c2.ideal, current);
        assert_eq!(c2.target, current);
        assert_eq!(c2.cost, 0, "cancel-and-requeue loses no states under MCS");
        assert_eq!(c2.conflict, txns[&t(2)].state, "requeue conflicts at the current state");

        // Under the partial-order policy the queued-ahead member (younger
        // than the causer) must be selectable — previously the candidate
        // list came back empty and resolution failed outright.
        let inst = build_instance(
            &cycle_vec(cycle),
            VictimPolicyKind::PartialOrder,
            StrategyKind::Total,
            t(1),
            &txns,
        );
        assert_eq!(inst[0].iter().map(|c| c.txn).collect::<Vec<_>>(), vec![t(2)]);
        assert_eq!(inst[0][0].target, LockIndex::ZERO, "total strategy still restarts");
    }

    fn cycle_vec(c: Cycle) -> Vec<Cycle> {
        vec![c]
    }
}
