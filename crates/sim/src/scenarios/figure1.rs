//! Figure 1: the exclusive-lock deadlock and its min-cost resolution.
//!
//! "Rollback of T2 until it no longer holds a lock on b will remove the
//! deadlock, as will rollback of T3 until it releases c or T4 until it
//! releases e. The cost of a rollback of T2 is 12−8=4, of T3 is 11−5=6
//! and of T4 is 15−10=5, so T2 is chosen for rollback. … Note that T1 no
//! longer waits for T2 after the rollback."

use super::{entity, paper_t1, paper_t2, paper_t3_fig1, paper_t4};
use pr_core::runtime::Phase;
use pr_core::scheduler::RoundRobin;
use pr_core::{StepOutcome, StrategyKind, System, SystemConfig, VictimPolicyKind};
use pr_model::{TxnId, Value};
use pr_storage::GlobalStore;
use std::collections::BTreeMap;

/// What the Figure 1 reproduction observed.
#[derive(Clone, Debug)]
pub struct Figure1Outcome {
    /// Rollback costs of the cycle members at detection time, keyed by
    /// transaction. The paper's values: T2 → 4, T3 → 6, T4 → 5.
    pub costs: BTreeMap<TxnId, u32>,
    /// The chosen victim (the paper: T2).
    pub victim: TxnId,
    /// The victim's rollback cost (the paper: 4).
    pub victim_cost: u64,
    /// The deadlock cycle in order from the causer (T2 → T3 → T4).
    pub cycle: Vec<TxnId>,
    /// Rendered concurrency graph at the moment of the deadlock.
    pub graph_before: String,
    /// Whether T1 stopped waiting after the rollback (granted `b`).
    pub t1_unblocked: bool,
    /// Whether the whole scenario then ran to completion.
    pub completed: bool,
}

/// Runs the Figure 1 scenario under the given strategy (the paper's
/// analysis is strategy-independent for MCS since every needed state is
/// reachable; SDG agrees here because the programs perform no writes).
pub fn run(strategy: StrategyKind) -> Figure1Outcome {
    let store = GlobalStore::with_entities(16, Value::new(0));
    let config = SystemConfig::new(strategy, VictimPolicyKind::MinCost);
    let mut sys = System::new(store, config);
    let t1 = sys.admit_unchecked(paper_t1());
    let t2 = sys.admit_unchecked(paper_t2());
    let t3 = sys.admit_unchecked(paper_t3_fig1());
    let t4 = sys.admit_unchecked(paper_t4());

    // Interleave to the paper's configuration:
    // T2 acquires w2, f, b and pads to state 12 (9 steps: ops 0..=8, then
    // pads to pc 11 ⇒ 12 steps total gets it to just before LX(e)).
    for _ in 0..12 {
        sys.step(t2).unwrap();
    }
    // T3 acquires w3, c and pads to state 11 (11 steps to just before LX(b)).
    for _ in 0..11 {
        sys.step(t3).unwrap();
    }
    // T4 acquires w4, e and pads to state 15.
    for _ in 0..15 {
        sys.step(t4).unwrap();
    }
    // T1 acquires w1, pads, then requests b — blocked on T2.
    for _ in 0..3 {
        sys.step(t1).unwrap();
    }
    assert!(matches!(sys.step(t1).unwrap(), StepOutcome::Blocked { .. }));
    // T3 requests b — blocked on T2.
    assert!(matches!(sys.step(t3).unwrap(), StepOutcome::Blocked { .. }));
    // T4 requests c — blocked on T3.
    assert!(matches!(sys.step(t4).unwrap(), StepOutcome::Blocked { .. }));

    // Record the §3.1 costs before the deadlock closes.
    let mut costs = BTreeMap::new();
    for (id, ent) in [(t2, entity('b')), (t3, entity('c')), (t4, entity('e'))] {
        let rt = sys.txn(id).unwrap();
        let ls = rt.lock_state_for(ent).unwrap();
        costs.insert(id, rt.cost_to_lock_state(ls));
    }
    let graph_before = sys.graph().render();

    // T2 requests e — the cycle T2 → T3 → T4 closes.
    let outcome = sys.step(t2).unwrap();
    let record = match outcome {
        StepOutcome::DeadlockResolved { record } => record,
        other => panic!("expected deadlock, got {other:?}"),
    };
    let (event, plan) = (&record.event, &record.plan);
    let cycle = event.cycles[0].txns();
    let victim = plan.rollbacks[0].txn;
    let victim_cost = plan.total_cost;
    let t1_unblocked = sys.txn(t1).unwrap().phase == Phase::Running;

    let completed = sys.run(&mut RoundRobin::new()).is_ok() && sys.all_committed();
    Figure1Outcome { costs, victim, victim_cost, cycle, graph_before, t1_unblocked, completed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_exactly_under_mcs() {
        let out = run(StrategyKind::Mcs);
        assert_eq!(out.costs[&TxnId::new(2)], 4, "T2: 12 − 8");
        assert_eq!(out.costs[&TxnId::new(3)], 6, "T3: 11 − 5");
        assert_eq!(out.costs[&TxnId::new(4)], 5, "T4: 15 − 10");
        assert_eq!(out.victim, TxnId::new(2), "T2 is chosen for rollback");
        assert_eq!(out.victim_cost, 4);
        assert_eq!(
            out.cycle,
            vec![TxnId::new(2), TxnId::new(3), TxnId::new(4)],
            "the cycle is T2 → T3 → T4"
        );
        assert!(out.t1_unblocked, "T1 no longer waits for T2 after the rollback");
        assert!(out.completed);
    }

    #[test]
    fn graph_before_shows_the_waits() {
        let out = run(StrategyKind::Mcs);
        // T1 and T3 wait for T2 on b; T4 waits for T3 on c.
        assert!(out.graph_before.contains("T2 -b-> T1"));
        assert!(out.graph_before.contains("T2 -b-> T3"));
        assert!(out.graph_before.contains("T3 -c-> T4"));
    }

    #[test]
    fn sdg_agrees_because_no_writes_destroy_states() {
        let out = run(StrategyKind::Sdg);
        assert_eq!(out.victim, TxnId::new(2));
        assert_eq!(out.victim_cost, 4);
        assert!(out.completed);
    }

    #[test]
    fn total_rollback_pays_the_full_price() {
        let out = run(StrategyKind::Total);
        // Total rollback restarts the min-cost victim from scratch; the
        // cheapest full restart is still T2 (12 states) vs T3 (11)… T3's
        // full restart is cheapest at 11 states: under total rollback the
        // optimal victim can differ from partial rollback's.
        assert!(out.victim_cost >= 11, "total rollback loses ≥ 11 states, got {}", out.victim_cost);
        assert!(out.completed);
    }
}
