//! Figure 5: write clustering eliminates rollback overshoot (§5).
//!
//! "The property of T2 that makes it more efficient is the clustering of
//! the write operations for each entity … thus minimizing the number of
//! undefined states caused by these writes."
//!
//! The reproduction runs the *same* deadlock twice under the SDG strategy.
//! The victim performs the same multiset of operations both times; only
//! the placement of its writes differs. With spread writes the ideal
//! rollback target is undefined and the engine overshoots to a total
//! restart; with clustered writes it lands exactly on the ideal target.

use super::entity;
use pr_core::scheduler::RoundRobin;
use pr_core::{StepOutcome, StrategyKind, System, SystemConfig, VictimPolicyKind};
use pr_model::{ProgramBuilder, TransactionProgram, Value};
use pr_storage::GlobalStore;

/// A victim transaction with spread writes (the paper's T1 shape): its
/// re-write of `a` after locking `c` destroys the lock state the deadlock
/// resolution wants to roll back to.
pub fn victim_spread() -> TransactionProgram {
    ProgramBuilder::new()
        .lock_exclusive(entity('a')) // lock state 0
        .write_const(entity('a'), 1)
        .lock_exclusive(entity('b')) // lock state 1
        .write_const(entity('b'), 1)
        .lock_exclusive(entity('c')) // lock state 2
        .write_const(entity('a'), 2) // destroys lock states 1, 2
        .lock_exclusive(entity('d')) // deadlocking request
        .pad(1)
        .build_unchecked()
}

/// The same operations with writes clustered per entity (the paper's T2
/// shape): both writes to `a` happen immediately after `a` is locked.
pub fn victim_clustered() -> TransactionProgram {
    ProgramBuilder::new()
        .lock_exclusive(entity('a'))
        .write_const(entity('a'), 1)
        .write_const(entity('a'), 2)
        .lock_exclusive(entity('b'))
        .write_const(entity('b'), 1)
        .lock_exclusive(entity('c'))
        .lock_exclusive(entity('d')) // deadlocking request
        .pad(1)
        .build_unchecked()
}

/// The partner transaction: holds `d`, then wants `c` — expensive enough
/// that the victim above is always the min-cost choice.
pub fn partner() -> TransactionProgram {
    ProgramBuilder::new()
        .lock_exclusive(entity('d'))
        .pad(30)
        .lock_exclusive(entity('c'))
        .pad(1)
        .build_unchecked()
}

/// Outcome of one variant's run.
#[derive(Clone, Debug)]
pub struct Figure5Outcome {
    /// States the victim lost in the rollback.
    pub states_lost: u64,
    /// States lost beyond the ideal target (0 = landed exactly).
    pub overshoot: u64,
    /// The rollback target's lock index.
    pub target: u32,
    /// Whether the run then completed.
    pub completed: bool,
}

/// Runs the deadlock with the given victim shape under the SDG strategy.
pub fn run_variant(victim: TransactionProgram) -> Figure5Outcome {
    let store = GlobalStore::with_entities(8, Value::new(0));
    let config = SystemConfig::new(StrategyKind::Sdg, VictimPolicyKind::MinCost);
    let mut sys = System::new(store, config);
    let t1 = sys.admit_unchecked(victim.clone());
    let t2 = sys.admit_unchecked(partner());
    // T2 takes d and pads (expensive to roll back).
    for _ in 0..31 {
        sys.step(t2).unwrap();
    }
    // T1 executes everything up to its LX(d) — then blocks on T2.
    let lx_d_pc = victim
        .lock_requests()
        .iter()
        .find(|(_, e, _)| *e == entity('d'))
        .map(|(pc, _, _)| *pc)
        .expect("victim locks d");
    for _ in 0..lx_d_pc {
        sys.step(t1).unwrap();
    }
    assert!(matches!(sys.step(t1).unwrap(), StepOutcome::Blocked { .. }));
    // T2 requests c — deadlock; T1 must release c (ideal: lock state 2).
    let out = sys.step(t2).unwrap();
    let plan = match out {
        StepOutcome::DeadlockResolved { record } => record.plan.clone(),
        other => panic!("expected deadlock, got {other:?}"),
    };
    assert_eq!(plan.rollbacks[0].txn, t1, "the victim shape is the min-cost choice");
    let target = plan.rollbacks[0].target.raw();
    let m = sys.metrics();
    let states_lost = m.states_lost;
    let overshoot = m.rollback_overshoot;
    let completed = sys.run(&mut RoundRobin::new()).is_ok() && sys.all_committed();
    Figure5Outcome { states_lost, overshoot, target, completed }
}

/// Runs both variants.
pub fn run() -> (Figure5Outcome, Figure5Outcome) {
    (run_variant(victim_spread()), run_variant(victim_clustered()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_writes_force_total_overshoot() {
        let out = run_variant(victim_spread());
        assert_eq!(out.target, 0, "ideal target 2 is undefined; lands at 0");
        assert!(out.overshoot > 0);
        assert!(out.completed);
    }

    #[test]
    fn clustered_writes_land_exactly_on_the_ideal_target() {
        let out = run_variant(victim_clustered());
        assert_eq!(out.target, 2, "lock state for c is well-defined");
        assert_eq!(out.overshoot, 0);
        assert!(out.completed);
    }

    #[test]
    fn clustering_strictly_reduces_lost_states() {
        let (spread, clustered) = run();
        assert!(
            clustered.states_lost < spread.states_lost,
            "clustered {} < spread {}",
            clustered.states_lost,
            spread.states_lost
        );
    }
}
