//! Deadlock events, resolution planning (§3's rule 3), and the one
//! record of each decision.

use crate::config::{SystemConfig, VictimPolicyKind};
use crate::runtime::RuntimeView;
use crate::victim;
use pr_graph::{cutset, CandidateRollback, Cycle};
use pr_lock::LockTable;
use pr_model::{EntityId, LockMode, TxnId};
use std::collections::BTreeMap;

/// A detected deadlock: the request that would close cycle(s) in the
/// concurrency graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeadlockEvent {
    /// The transaction whose lock request caused the deadlock.
    pub causer: TxnId,
    /// The entity it requested.
    pub entity: EntityId,
    /// Every cycle the wait response would create (all pass through
    /// `causer`, §3.2), capped at the configured enumeration limit.
    pub cycles: Vec<Cycle>,
}

/// The rollbacks chosen to break a deadlock.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ResolutionPlan {
    /// Planned rollbacks, one per victim.
    pub rollbacks: Vec<CandidateRollback>,
    /// Sum of the victims' §3.1 costs.
    pub total_cost: u64,
    /// Whether the cut-set solver proved optimality (within the policy's
    /// candidate restriction).
    pub optimal: bool,
}

/// One deadlock as decided: the cycles a wait closes (§3), each member's
/// rollback cost (§3.1), and the cut chosen over them (§3.2). Built by
/// [`crate::kernel::Kernel::detect`] before any rollback executes, so it
/// holds exactly what the plan was solved from. [`crate::System::history`]
/// keeps one per resolved deadlock; the `pr-explore` brute-force oracles
/// replay its instances to check §3.1 victim-cost optimality and measure
/// the §3.2 cut heuristic's gap from the exact optimum.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeadlockRecord {
    /// The deadlock as detected.
    pub event: DeadlockEvent,
    /// The candidate instance after the configured victim policy's
    /// filtering, as handed to the cut-set solver (empty cycles dropped).
    pub filtered: Vec<Vec<CandidateRollback>>,
    /// The candidate instance with *no* policy filtering (every cycle
    /// member, MinCost semantics) — the §3.1/§3.2 search space.
    pub unfiltered: Vec<Vec<CandidateRollback>>,
    /// The plan solved over `filtered`.
    pub plan: ResolutionPlan,
    /// Whether every cycle member held its cycle entity *exclusively* at
    /// detection time — the §3.1 single-cycle regime where the chosen
    /// victim's cost must equal the brute-force minimum over the cycle.
    pub exclusive_only: bool,
    /// Entry order (ω rank) of every transaction on a cycle, for checking
    /// Theorem 2's victims-younger-than-causer restriction.
    pub entry_orders: BTreeMap<TxnId, u64>,
}

impl DeadlockRecord {
    /// Plans the resolution of `event` over the runtimes and lock table
    /// as they stand, recording what the plan was solved from. Valid only
    /// before the plan's first rollback executes: rollbacks change lock
    /// modes and runtime costs.
    pub fn plan<V: RuntimeView>(
        event: DeadlockEvent,
        config: &SystemConfig,
        txns: &V,
        table: &LockTable,
    ) -> Self {
        let filtered = policy_instance(&event, config, txns);
        let plan = solve(&filtered, config);
        let members = || event.cycles.iter().flat_map(|c| c.members.iter());
        DeadlockRecord {
            unfiltered: victim::build_instance(
                &event.cycles,
                VictimPolicyKind::MinCost,
                config.strategy,
                event.causer,
                txns,
            ),
            exclusive_only: members().all(|m| {
                table.held_by(m.txn, m.holds).is_some_and(|h| h.mode == LockMode::Exclusive)
            }),
            entry_orders: members()
                .filter_map(|m| txns.runtime(m.txn).map(|rt| (m.txn, rt.entry_order)))
                .collect(),
            event,
            filtered,
            plan,
        }
    }
}

/// The candidate instance for `event` after the configured victim
/// policy's filtering, as handed to the cut-set solver.
fn policy_instance<V: RuntimeView>(
    event: &DeadlockEvent,
    config: &SystemConfig,
    txns: &V,
) -> Vec<Vec<CandidateRollback>> {
    let instance =
        victim::build_instance(&event.cycles, config.victim, config.strategy, event.causer, txns);
    // Cycles whose candidates all vanished (defensively) cannot constrain
    // the cut; drop them rather than making the instance unsolvable.
    instance.into_iter().filter(|c| !c.is_empty()).collect()
}

/// Solves the minimum-cost vertex-cut problem over `instance`.
fn solve(instance: &[Vec<CandidateRollback>], config: &SystemConfig) -> ResolutionPlan {
    let solution = cutset::solve(instance, config.cutset_node_budget);
    ResolutionPlan {
        rollbacks: solution.rollbacks,
        total_cost: solution.total_cost,
        optimal: solution.optimal,
    }
}

/// Plans the resolution of `event`: builds the policy-filtered candidate
/// instance and solves the minimum-cost vertex-cut problem over the
/// cycles. [`DeadlockRecord::plan`] does the same and keeps the inputs.
///
/// For the exclusive-only case the instance has a single cycle and this
/// reduces to §3.1's "traverse the cycle, pick the cheapest legal victim".
pub fn plan_resolution<V: RuntimeView>(
    event: &DeadlockEvent,
    config: &SystemConfig,
    txns: &V,
) -> ResolutionPlan {
    solve(&policy_instance(event, config, txns), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StrategyKind, VictimPolicyKind};
    use crate::runtime::TxnRuntime;
    use pr_graph::CycleMember;
    use pr_model::{LockMode, ProgramBuilder, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }
    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    /// Reproduces Figure 1(a)'s costs: T2 waits from state 12 having
    /// requested b from state 8; T3 from 11 having requested c from 5;
    /// T4 from 15 having requested e from 10. Min-cost picks T2 (cost 4).
    #[test]
    fn figure1_costs_select_t2() {
        let mut txns = BTreeMap::new();
        // Build runtimes whose state indices match the figure. Each locks
        // one relevant entity at the figure's request state and then
        // advances to its waiting state.
        let mk = |id: u32, entity: u32, req_state: u32, wait_state: u32| {
            let mut b = ProgramBuilder::new().lock_exclusive(e(99 + id)).pad(200);
            b = b.lock_exclusive(e(entity)).pad(200);
            let p = Arc::new(b.build_unchecked());
            let mut rt = TxnRuntime::new(t(id), p, u64::from(id), StrategyKind::Mcs);
            // Advance to req_state via a warm-up lock + padding.
            rt.complete_lock(e(99 + id), LockMode::Exclusive, Value::ZERO);
            while rt.state.raw() < req_state {
                rt.advance();
            }
            rt.complete_lock(e(entity), LockMode::Exclusive, Value::ZERO);
            while rt.state.raw() < wait_state {
                rt.advance();
            }
            rt
        };
        txns.insert(t(2), mk(2, 1, 8, 12)); // holds b, requested from 8, waits at 12
        txns.insert(t(3), mk(3, 2, 5, 11)); // holds c
        txns.insert(t(4), mk(4, 4, 10, 15)); // holds e

        let event = DeadlockEvent {
            causer: t(2),
            entity: e(4),
            cycles: vec![Cycle {
                members: vec![
                    CycleMember { txn: t(2), holds: e(1) },
                    CycleMember { txn: t(3), holds: e(2) },
                    CycleMember { txn: t(4), holds: e(4) },
                ],
            }],
        };
        let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        let plan = plan_resolution(&event, &config, &txns);
        assert!(plan.optimal);
        assert_eq!(plan.total_cost, 4, "T2's rollback costs 12-8=4");
        assert_eq!(plan.rollbacks.len(), 1);
        assert_eq!(plan.rollbacks[0].txn, t(2));
    }

    #[test]
    fn empty_event_plans_nothing() {
        let event = DeadlockEvent { causer: t(1), entity: e(0), cycles: vec![] };
        let config = SystemConfig::default();
        let plan = plan_resolution(&event, &config, &BTreeMap::<TxnId, TxnRuntime>::new());
        assert!(plan.rollbacks.is_empty());
        assert_eq!(plan.total_cost, 0);
    }
}
