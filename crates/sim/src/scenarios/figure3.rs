//! Figure 3: concurrency graphs under shared and exclusive locks (§3.2).
//!
//! Three situations:
//!
//! * **(a)** shared holders give the graph multiple arcs per wait: it is
//!   an acyclic digraph but *not* a forest — Theorem 1's structure no
//!   longer applies, yet there is no deadlock;
//! * **(b)** a request closes *two* cycles at once, both containing the
//!   causer T1 **and** T2 — rolling back either T1 or T2 alone clears
//!   every cycle;
//! * **(c)** an exclusive request on an entity held *shared* by T2 and T3
//!   closes one cycle per holder: clearing them needs either T1 alone or
//!   both T2 and T3 — the minimum-cost vertex cut decides.

use super::entity;
use pr_core::scheduler::RoundRobin;
use pr_core::{StepOutcome, StrategyKind, System, SystemConfig, VictimPolicyKind};
use pr_model::{ProgramBuilder, TransactionProgram, TxnId, Value};
use pr_storage::GlobalStore;

fn fresh_system() -> System {
    let store = GlobalStore::with_entities(16, Value::new(0));
    System::new(store, SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::MinCost))
}

/// Outcome of scenario (a): the graph shape observations.
#[derive(Clone, Debug)]
pub struct Figure3a {
    /// Rendered concurrency graph.
    pub graph: String,
    /// Whether the graph is a forest (it must not be).
    pub is_forest: bool,
    /// Whether the graph has a directed cycle (it must not).
    pub has_cycle: bool,
    /// Deadlocks detected (none).
    pub deadlocks: u64,
    /// Whether the system then drained.
    pub completed: bool,
}

/// The scenario (a) programs in admission order: T3 requests an exclusive
/// lock on `c` held shared by T1 and T2, while T2 also waits for T1 at
/// `a`. No deadlock is possible — the static lint must stay silent here.
pub fn workload_a() -> Vec<TransactionProgram> {
    let t1 = ProgramBuilder::new()
        .lock_shared(entity('c'))
        .lock_exclusive(entity('a'))
        .pad(2)
        .build_unchecked();
    let t2 = ProgramBuilder::new()
        .lock_shared(entity('c'))
        .lock_exclusive(entity('a')) // waits on T1
        .pad(1)
        .build_unchecked();
    let t3 = ProgramBuilder::new()
        .lock_exclusive(entity('c')) // waits on T1 and T2
        .pad(1)
        .build_unchecked();
    vec![t1, t2, t3]
}

/// Scenario (a): T3 requests an exclusive lock on `c` held shared by T1
/// and T2, while T2 also waits for T1 at `a` — an acyclic non-forest.
pub fn run_a() -> Figure3a {
    let [t1, t2, t3]: [TransactionProgram; 3] = workload_a().try_into().expect("three programs");
    let mut sys = fresh_system();
    let a = sys.admit_unchecked(t1);
    let b = sys.admit_unchecked(t2);
    let c = sys.admit_unchecked(t3);
    sys.step(a).unwrap(); // T1: LS(c)
    sys.step(a).unwrap(); // T1: LX(a)
    sys.step(b).unwrap(); // T2: LS(c)
    assert!(matches!(sys.step(b).unwrap(), StepOutcome::Blocked { .. })); // T2: LX(a)
    assert!(matches!(sys.step(c).unwrap(), StepOutcome::Blocked { .. })); // T3: LX(c)

    let graph = sys.graph().render();
    let is_forest = sys.graph().is_forest();
    let has_cycle = sys.graph().has_cycle();
    let deadlocks = sys.metrics().deadlocks;
    let completed = sys.run(&mut RoundRobin::new()).is_ok();
    Figure3a { graph, is_forest, has_cycle, deadlocks, completed }
}

/// Outcome of scenarios (b) and (c): the multi-cycle resolutions.
#[derive(Clone, Debug)]
pub struct MultiCycleOutcome {
    /// The causer of the deadlock.
    pub causer: TxnId,
    /// Number of cycles the single wait closed.
    pub cycles: usize,
    /// Transactions present in **every** cycle.
    pub in_all_cycles: Vec<TxnId>,
    /// The victims chosen.
    pub victims: Vec<TxnId>,
    /// Whether the cut was provably optimal.
    pub optimal: bool,
    /// Whether the system then drained.
    pub completed: bool,
}

/// The scenario (b) programs in admission order, parameterised by the pad
/// counts that steer the min-cost victim choice.
pub fn workload_b(t1_pads: usize, t2_pads: usize) -> Vec<TransactionProgram> {
    let p1 = ProgramBuilder::new()
        .lock_shared(entity('a'))
        .lock_exclusive(entity('b'))
        .pad(t1_pads)
        .lock_shared(entity('e')) // the deadlocking request
        .pad(1)
        .build_unchecked();
    let p2 = ProgramBuilder::new()
        .lock_exclusive(entity('e'))
        .pad(t2_pads)
        .lock_exclusive(entity('a')) // waits on T1, T3
        .pad(1)
        .build_unchecked();
    let p3 = ProgramBuilder::new()
        .lock_shared(entity('a'))
        .pad(2)
        .lock_shared(entity('b')) // waits on T1
        .pad(1)
        .build_unchecked();
    vec![p1, p2, p3]
}

/// Scenario (b): T1 holds `a` (shared with T3) and `b`; T3 waits for `b`;
/// T2 holds `e` and waits for `a`. T1's request of `e` closes two cycles,
/// both containing T1 and T2. `t1_pads` tunes how expensive rolling T1
/// back is, steering the min-cost choice between T1 and T2.
pub fn run_b(t1_pads: usize, t2_pads: usize) -> MultiCycleOutcome {
    let [p1, p2, p3]: [TransactionProgram; 3] =
        workload_b(t1_pads, t2_pads).try_into().expect("three programs");
    let mut sys = fresh_system();
    let t1 = sys.admit_unchecked(p1);
    let t2 = sys.admit_unchecked(p2);
    let t3 = sys.admit_unchecked(p3);
    // T1 takes a, b; T3 takes a (shared) and waits for b; T2 takes e and
    // waits for a.
    sys.step(t1).unwrap();
    sys.step(t1).unwrap();
    for _ in 0..t1_pads {
        sys.step(t1).unwrap();
    }
    sys.step(t3).unwrap();
    sys.step(t3).unwrap();
    sys.step(t3).unwrap();
    assert!(matches!(sys.step(t3).unwrap(), StepOutcome::Blocked { .. }));
    sys.step(t2).unwrap();
    for _ in 0..t2_pads {
        sys.step(t2).unwrap();
    }
    assert!(matches!(sys.step(t2).unwrap(), StepOutcome::Blocked { .. }));
    // T1 requests e: cycles [T1(a) T2(e)] and [T1(b) T3(a) T2(e)].
    let out = sys.step(t1).unwrap();
    finish(sys, out)
}

/// The scenario (c) programs in admission order, parameterised by the pad
/// counts that decide whether cutting T1 alone beats cutting both holders.
pub fn workload_c(t1_pads: usize, holder_pads: usize) -> Vec<TransactionProgram> {
    let p1 = ProgramBuilder::new()
        .lock_exclusive(entity('a'))
        .lock_exclusive(entity('b'))
        .pad(t1_pads)
        .lock_exclusive(entity('f')) // the deadlocking request
        .pad(1)
        .build_unchecked();
    let p2 = ProgramBuilder::new()
        .lock_shared(entity('f'))
        .pad(holder_pads)
        .lock_shared(entity('a')) // waits on T1
        .pad(1)
        .build_unchecked();
    let p3 = ProgramBuilder::new()
        .lock_shared(entity('f'))
        .pad(holder_pads)
        .lock_shared(entity('b')) // waits on T1
        .pad(1)
        .build_unchecked();
    vec![p1, p2, p3]
}

/// Scenario (c): T1 holds `a` and `b` exclusively; T2 and T3 hold `f`
/// shared and wait on T1; T1's exclusive request of `f` closes one cycle
/// per shared holder. Pads tune whether cutting T1 alone beats cutting
/// both T2 and T3.
pub fn run_c(t1_pads: usize, holder_pads: usize) -> MultiCycleOutcome {
    let [p1, p2, p3]: [TransactionProgram; 3] =
        workload_c(t1_pads, holder_pads).try_into().expect("three programs");
    let mut sys = fresh_system();
    let t1 = sys.admit_unchecked(p1);
    let t2 = sys.admit_unchecked(p2);
    let t3 = sys.admit_unchecked(p3);
    sys.step(t1).unwrap(); // LX(a)
    sys.step(t1).unwrap(); // LX(b)
    for _ in 0..t1_pads {
        sys.step(t1).unwrap();
    }
    for _ in 0..=holder_pads {
        sys.step(t2).unwrap();
    }
    assert!(matches!(sys.step(t2).unwrap(), StepOutcome::Blocked { .. }));
    for _ in 0..=holder_pads {
        sys.step(t3).unwrap();
    }
    assert!(matches!(sys.step(t3).unwrap(), StepOutcome::Blocked { .. }));
    let out = sys.step(t1).unwrap();
    finish(sys, out)
}

fn finish(mut sys: System, out: StepOutcome) -> MultiCycleOutcome {
    let record = match out {
        StepOutcome::DeadlockResolved { record } => record,
        other => panic!("expected deadlock, got {other:?}"),
    };
    let (event, plan) = (&record.event, &record.plan);
    let mut in_all: Vec<TxnId> = event.cycles[0].txns();
    for c in &event.cycles[1..] {
        let txns = c.txns();
        in_all.retain(|t| txns.contains(t));
    }
    let victims: Vec<TxnId> = plan.rollbacks.iter().map(|r| r.txn).collect();
    let completed = sys.run(&mut RoundRobin::new()).is_ok() && sys.all_committed();
    MultiCycleOutcome {
        causer: event.causer,
        cycles: event.cycles.len(),
        in_all_cycles: in_all,
        victims,
        optimal: plan.optimal,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    #[test]
    fn a_is_an_acyclic_non_forest_without_deadlock() {
        let out = run_a();
        assert!(!out.is_forest, "shared waits break the forest structure");
        assert!(!out.has_cycle, "yet no deadlock exists");
        assert_eq!(out.deadlocks, 0);
        assert!(out.completed);
        assert!(out.graph.contains("T1 -c-> T3"));
        assert!(out.graph.contains("T2 -c-> T3"));
        assert!(out.graph.contains("T1 -a-> T2"));
    }

    #[test]
    fn b_both_cycles_contain_t1_and_t2() {
        let out = run_b(2, 2);
        assert_eq!(out.causer, t(1));
        assert_eq!(out.cycles, 2);
        assert!(out.in_all_cycles.contains(&t(1)));
        assert!(out.in_all_cycles.contains(&t(2)));
        assert!(out.optimal);
        assert!(out.completed);
        // A single victim suffices — and it is T1 or T2.
        assert_eq!(out.victims.len(), 1);
        assert!(out.victims[0] == t(1) || out.victims[0] == t(2));
    }

    #[test]
    fn b_victim_choice_follows_costs() {
        // Expensive T1 ⇒ T2 is rolled back; expensive T2 ⇒ T1 is.
        let out = run_b(30, 1);
        assert_eq!(out.victims, vec![t(2)]);
        let out = run_b(1, 30);
        assert_eq!(out.victims, vec![t(1)]);
    }

    #[test]
    fn c_cheap_t1_is_cut_alone() {
        let out = run_c(1, 20);
        assert_eq!(out.cycles, 2);
        assert_eq!(out.in_all_cycles, vec![t(1)], "only T1 is on every cycle");
        assert_eq!(out.victims, vec![t(1)]);
        assert!(out.optimal);
        assert!(out.completed);
    }

    #[test]
    fn c_expensive_t1_forces_cutting_both_shared_holders() {
        // T1's rollback would lose 25+ states; T2 and T3 lose ~2 each.
        let out = run_c(25, 1);
        assert_eq!(out.victims, vec![t(2), t(3)], "both shared holders are rolled back");
        assert!(out.optimal);
        assert!(out.completed);
    }
}
