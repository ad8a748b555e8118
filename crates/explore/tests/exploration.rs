//! Acceptance tests for the exhaustive schedule-space explorer.
//!
//! These are the properties the crate exists to check, run end-to-end:
//! full enumeration of the 3-transaction grid with the §3.1/§3.2 oracles
//! silent, the Figure 2 livelock/termination dichotomy, cross-strategy
//! terminal-outcome equivalence, serializability of every reachable
//! outcome, agreement between the explorer and random sampling (guarding
//! the partial-order reduction), and the symmetry reduction's soundness on
//! identical-program workloads.

use pr_core::config::{StrategyKind, SystemConfig, VictimPolicyKind};
use pr_core::engine::System;
use pr_core::fingerprint::canonical_state;
use pr_explore::explorer::{explore, replay_lines, ExploreOptions, ExploreReport};
use pr_explore::grid::{figure2_prefix_system, grid_cases, grid_store, GridCase};
use pr_model::{EntityId, Expr, ProgramBuilder, TxnId, Value, VarId};
use pr_storage::{GlobalStore, Snapshot};
use std::collections::BTreeSet;

fn grid_system(case: &GridCase, strategy: StrategyKind, policy: VictimPolicyKind) -> System {
    let mut sys = System::new(grid_store(), SystemConfig::new(strategy, policy));
    for p in case.programs() {
        sys.admit(p).expect("grid program is valid");
    }
    sys
}

fn explore_grid(
    case: &GridCase,
    strategy: StrategyKind,
    policy: VictimPolicyKind,
) -> ExploreReport {
    let name = format!("{} [{strategy:?}/{policy:?}]", case.name);
    explore_checked(&name, &grid_system(case, strategy, policy))
}

/// Explores every schedule of `sys`, asserting the enumeration completed
/// with the oracles silent.
fn explore_checked(name: &str, sys: &System) -> ExploreReport {
    let report = explore(sys, &ExploreOptions::default());
    assert!(report.complete, "{name}: state space must be fully enumerated");
    assert!(report.findings.is_empty(), "{name}: {:?}", report.findings);
    report
}

/// A workload on which `Bounded(2)` really evicts. The youngest
/// transaction writes `a`, and reads it into `v0`, at lock indices 1, 2
/// and 3, after locking `a`, `b` and `c`; two copies cannot keep lock
/// state 1, one copy keeps neither 1 nor 2. Each older transaction holds
/// `d` while it requests `b` or `c`, so a deadlock rolls the writer back
/// toward lock state 1 or 2, and its replay reads `a` back: a rollback
/// into an evicted state would change the final snapshot.
fn eviction_system(strategy: StrategyKind) -> System {
    let [a, b, c, d] = [0, 1, 2, 3].map(EntityId::new);
    let v0 = VarId::new(0);
    let bump = |p: ProgramBuilder, step: i64| {
        p.read(a, v0).write(a, Expr::add(Expr::var(v0), Expr::lit(step)))
    };
    let contender = |want: EntityId, value: i64| {
        ProgramBuilder::new()
            .lock_exclusive(d)
            .write_const(d, value)
            .lock_exclusive(want)
            .write_const(want, value)
    };
    let writer = bump(ProgramBuilder::new().lock_exclusive(a), 1);
    let writer = bump(writer.lock_exclusive(b), 10);
    let writer = bump(writer.lock_exclusive(c), 100).lock_exclusive(d).write(d, Expr::var(v0));
    let mut sys = System::new(
        GlobalStore::with_entities(4, Value::new(0)),
        SystemConfig::new(strategy, VictimPolicyKind::PartialOrder),
    );
    for p in [contender(b, 7), contender(c, 9), writer] {
        sys.admit(p.build().expect("valid program")).expect("admitted");
    }
    sys
}

/// The full 3-transaction × 2-entity grid enumerates completely under the
/// MinCost policy, every exclusive-lock deadlock passes the brute-force
/// §3.1 victim-cost oracle, and deadlocks actually occur.
#[test]
fn grid_min_cost_victims_match_brute_force_on_every_deadlock() {
    let mut audited = 0;
    let mut exclusive = 0;
    for case in grid_cases(3) {
        let report = explore_grid(&case, StrategyKind::Mcs, VictimPolicyKind::MinCost);
        audited += report.gaps.audited;
        exclusive += report.gaps.exclusive_checked;
    }
    assert!(audited > 0, "the grid must produce deadlocks");
    assert!(exclusive > 0, "the grid must exercise the §3.1 exclusive regime");
}

/// Shared-lock shapes close multi-cycle deadlocks; the production cut is
/// compared against the exhaustive min-cost vertex-cut solver on each.
#[test]
fn grid_exercises_multi_cycle_deadlocks() {
    let mut multi = 0;
    for case in grid_cases(3) {
        // Shared modes are where §3.2 multi-cycle closures live.
        if !case.name.contains('S') {
            continue;
        }
        let report = explore_grid(&case, StrategyKind::Mcs, VictimPolicyKind::MinCost);
        multi += report.gaps.multi_cycle;
    }
    assert!(multi > 0, "no multi-cycle deadlock was audited — §3.2 oracle never ran");
}

/// Total, MCS, SDG and bounded-copy rollback must produce exactly the
/// same set of terminal outcomes (committed set + final snapshot) over ALL
/// schedules of every grid case and of [`eviction_system`]. `Bounded(2)`
/// runs the workspace at a budget above one copy. A grid program writes
/// each object at no more than two lock indices, so there only SDG's
/// one-copy stacks evict; the eviction case makes `Bounded(2)` evict too.
#[test]
fn strategies_are_outcome_equivalent_over_all_schedules() {
    let strategies = [StrategyKind::Mcs, StrategyKind::Sdg, StrategyKind::Bounded(2)];
    for case in grid_cases(3) {
        let reference =
            explore_grid(&case, StrategyKind::Total, VictimPolicyKind::PartialOrder).outcome_set();
        for strategy in strategies {
            let got = explore_grid(&case, strategy, VictimPolicyKind::PartialOrder).outcome_set();
            assert_eq!(
                got, reference,
                "{}: {strategy:?} reaches different terminal outcomes than Total",
                case.name
            );
        }
    }
    let explore_eviction =
        |strategy| explore_checked(&format!("eviction [{strategy:?}]"), &eviction_system(strategy));
    let reference = explore_eviction(StrategyKind::Total).outcome_set();
    for strategy in strategies {
        assert_eq!(
            explore_eviction(strategy).outcome_set(),
            reference,
            "eviction: {strategy:?} reaches different terminal outcomes than Total"
        );
    }
    // The case has teeth. Scripted: a contender takes `d`, the writer runs
    // until it blocks on `d`, and the contender's request for `b` (T1) or
    // `c` (T2) closes the cycle, rolling the writer back toward lock state
    // 1 or 2. State 1 is evicted under both budgets, state 2 only under
    // SDG's one copy.
    let overshoots = |strategy, contender| {
        let (t, writer) = (TxnId::new(contender), TxnId::new(3));
        let mut sys = eviction_system(strategy);
        for step in [t, t].into_iter().chain([writer; 10]).chain([t]) {
            sys.step(step).expect("scripted step");
        }
        assert_eq!(sys.metrics().deadlocks, 1, "{strategy:?}: the script deadlocks");
        sys.metrics().rollback_overshoot > 0
    };
    let got = strategies.map(|strategy| (overshoots(strategy, 1), overshoots(strategy, 2)));
    assert_eq!(got, [(false, false), (true, true), (true, false)], "overshoots per strategy");
}

/// Repair over the full 56-case grid: every case enumerates completely
/// with the oracles silent, the terminal-outcome set is identical to
/// Total/MCS/SDG's (zero divergences), and every witness schedule
/// replays with reconciled repair ledgers — one repair per rollback, the
/// suffix histogram and the per-deadlock resolution-cost histogram both
/// carrying exactly the states lost, and replayed + reused ops
/// partitioning that mass.
#[test]
fn repair_is_outcome_equivalent_and_reconciles_over_the_grid() {
    let cases = grid_cases(3);
    assert_eq!(cases.len(), 56, "the 3-transaction grid must stay at 56 cases");
    let mut divergences = Vec::new();
    let mut repairs_audited = 0u64;
    for case in &cases {
        let repair = explore_grid(case, StrategyKind::Repair, VictimPolicyKind::PartialOrder);
        let got = repair.outcome_set();
        for strategy in [StrategyKind::Total, StrategyKind::Mcs, StrategyKind::Sdg] {
            let reference =
                explore_grid(case, strategy, VictimPolicyKind::PartialOrder).outcome_set();
            if got != reference {
                divergences.push(format!("{} vs {strategy:?}", case.name));
            }
        }
        // Accounting reconciliation: replay each terminal's witness
        // schedule on a fresh Repair system and audit the ledgers at
        // quiescence.
        for outcome in &repair.terminals {
            let mut sys = grid_system(case, StrategyKind::Repair, VictimPolicyKind::PartialOrder);
            for &t in &outcome.schedule {
                sys.step(t).expect("witness schedule replays");
            }
            assert!(sys.all_committed(), "{}: witness replay did not settle", case.name);
            let m = sys.metrics();
            assert_eq!(m.repairs, m.rollbacks(), "{}: one repair per rollback", case.name);
            assert_eq!(
                m.repair_suffix.sum(),
                m.states_lost,
                "{}: repair suffix mass must equal states lost",
                case.name
            );
            assert_eq!(
                m.resolution_cost.sum(),
                m.states_lost,
                "{}: resolution-cost mass must equal states lost",
                case.name
            );
            assert_eq!(
                m.ops_replayed + m.ops_reused,
                m.states_lost,
                "{}: replayed + reused ops must partition the states lost",
                case.name
            );
            repairs_audited += m.repairs;
        }
    }
    assert_eq!(divergences, Vec::<String>::new(), "terminal-outcome divergences");
    assert!(repairs_audited > 0, "the grid must exercise repair rollbacks");
}

/// Scripted XX-opposed deadlock on the grid shapes: the victim's lost
/// suffix contains a constant write whose taped outcome no rollback can
/// invalidate, so repair must *reuse* it (and still replay the lock),
/// while the terminal snapshot matches MCS on the identical schedule.
#[test]
fn repair_reuses_unaffected_suffix_ops_on_the_grid_shapes() {
    use pr_explore::grid::{Modes, Shape, A, B};
    let run = |strategy: StrategyKind| {
        let mut sys =
            System::new(grid_store(), SystemConfig::new(strategy, VictimPolicyKind::PartialOrder));
        let t1 = sys.admit(Shape { first: A, modes: Modes::XX }.program(1)).expect("valid");
        let t2 = sys.admit(Shape { first: B, modes: Modes::XX }.program(2)).expect("valid");
        // t2 acquires b and writes it; t1 acquires a and writes it; t2
        // blocks on a; t1's request for b closes the cycle. PartialOrder
        // wounds the younger t2, whose lost suffix is [lock b, write b].
        for &(t, n) in &[(t2, 2), (t1, 2), (t2, 1), (t1, 1)] {
            for _ in 0..n {
                sys.step(t).expect("scripted prefix");
            }
        }
        sys.run(&mut pr_core::scheduler::RoundRobin::new()).expect("drains");
        assert!(sys.all_committed());
        let snapshot: Vec<(u32, i64)> =
            sys.store().iter().map(|(e, v)| (e.raw(), v.raw())).collect();
        (snapshot, sys.metrics().clone())
    };

    let (mcs_snapshot, mcs_metrics) = run(StrategyKind::Mcs);
    assert!(mcs_metrics.deadlocks >= 1, "the script must deadlock");
    let (snapshot, m) = run(StrategyKind::Repair);
    assert_eq!(snapshot, mcs_snapshot, "repair must land on the MCS outcome");
    assert!(m.repairs >= 1);
    assert!(m.ops_reused >= 1, "the constant write must be reused from the tape");
    assert!(m.ops_replayed >= 1, "the lock op must be replayed");
    assert_eq!(m.ops_replayed + m.ops_reused, m.states_lost);
}

/// The `--trace` replay artifact carries the repair audit fields: a
/// deadlock-resolution line names the rollback target, its cost, and the
/// earliest conflicting access (`conflict at`) that repair replays from.
#[test]
fn trace_replay_lines_carry_the_repair_audit_fields() {
    use pr_explore::grid::{Modes, Shape, A, B};
    let mut sys = System::new(
        grid_store(),
        SystemConfig::new(StrategyKind::Repair, VictimPolicyKind::PartialOrder),
    );
    let t1 = sys.admit(Shape { first: A, modes: Modes::XX }.program(1)).expect("valid");
    let t2 = sys.admit(Shape { first: B, modes: Modes::XX }.program(2)).expect("valid");
    // Same script as above: t1's request for b closes the cycle on the
    // final step, so the last trace line must be the resolution record.
    let schedule = [t2, t2, t1, t1, t2, t1];
    let lines = replay_lines(&sys, &schedule);
    assert_eq!(lines.len(), schedule.len());
    let resolved = lines.last().expect("non-empty trace");
    assert!(
        resolved.contains("deadlock resolved") && resolved.contains("conflict at"),
        "resolution line must carry the repair audit fields: {resolved}"
    );
    assert!(!lines.iter().any(|l| l.contains("ERROR")), "replay must not error: {lines:?}");
}

/// Every terminal snapshot of every schedule is serializable: it equals
/// some serial execution of the three programs. (All grid transactions
/// commit — partial rollback never aborts.)
#[test]
fn every_reachable_outcome_is_serializable() {
    for case in grid_cases(3) {
        let programs = case.programs();
        let report = explore_grid(&case, StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
        let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
        for outcome in &report.terminals {
            assert_eq!(
                outcome.committed.len(),
                programs.len(),
                "{}: partial rollback must commit every transaction",
                case.name
            );
            let observed = Snapshot::from_pairs(
                outcome.snapshot.iter().map(|&(e, v)| (EntityId::new(e), Value::new(v))),
            );
            let ok = pr_sim::runner::is_serializable(&programs, &grid_store(), config, &observed)
                .expect("serial runs succeed");
            assert!(
                ok,
                "{}: non-serializable outcome {:?} via {:?}",
                case.name, outcome.snapshot, outcome.schedule
            );
        }
    }
}

/// Differential guard on the partial-order reduction: outcomes sampled by
/// a seeded random scheduler must all appear in the explorer's terminal
/// set. (The reduction only prunes *orders*, never behaviours.)
#[test]
fn random_sampling_never_escapes_the_explored_outcome_set() {
    let mut xs = 0x243F_6A88_85A3_08D3u64;
    let mut rng = move || {
        xs ^= xs << 13;
        xs ^= xs >> 7;
        xs ^= xs << 17;
        xs
    };
    for case in grid_cases(3).into_iter().step_by(5) {
        let explored =
            explore_grid(&case, StrategyKind::Mcs, VictimPolicyKind::PartialOrder).outcome_set();
        for _ in 0..20 {
            let mut sys = grid_system(&case, StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
            for _ in 0..10_000 {
                let ready = sys.ready();
                if ready.is_empty() {
                    break;
                }
                let pick = ready[(rng() % ready.len() as u64) as usize];
                sys.step(pick).expect("random schedule step succeeds");
            }
            assert!(sys.all_committed(), "{}: random run did not settle", case.name);
            let committed: Vec<TxnId> = sys.txn_ids();
            let snapshot: Vec<(u32, i64)> =
                sys.store().iter().map(|(e, v)| (e.raw(), v.raw())).collect();
            assert!(
                explored.contains(&(committed, snapshot.clone())),
                "{}: sampled outcome {snapshot:?} missing from explored set",
                case.name
            );
        }
    }
}

/// Figure 2, MinCost: the explored state graph contains the paper's
/// infinite mutual-preemption cycle, and the witness actually replays —
/// running the cycle returns the engine to the identical canonical state.
#[test]
fn figure2_min_cost_livelocks_and_the_witness_replays() {
    let base = figure2_prefix_system(VictimPolicyKind::MinCost);
    let report = explore(&base, &ExploreOptions::default());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let witness = report.livelock.as_ref().expect("MinCost must livelock (Figure 2)");

    let mut sys = base.clone();
    for &t in &witness.prefix {
        sys.step(t).expect("witness prefix replays");
    }
    let entry = canonical_state(&sys);
    for &t in &witness.cycle {
        sys.step(t).expect("witness cycle replays");
    }
    assert_eq!(canonical_state(&sys), entry, "the livelock cycle must return to its entry state");
    // The cycle must involve actual preemption, not idle spinning: both
    // T2 and T3 appear (the mutual preemption of Figure 2).
    let on_cycle: BTreeSet<TxnId> = witness.cycle.iter().copied().collect();
    assert!(on_cycle.contains(&TxnId::new(2)) && on_cycle.contains(&TxnId::new(3)));
}

/// Figure 2, PartialOrder (ω): the same prefix explored to completion is
/// finite and acyclic — termination proven over every schedule (Theorem
/// 2) — and every deadlock resolution obeys ω.
#[test]
fn figure2_partial_order_terminates_over_all_schedules() {
    let base = figure2_prefix_system(VictimPolicyKind::PartialOrder);
    let report = explore(&base, &ExploreOptions::default());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.acyclic, "ω admits no state-graph cycle");
    assert!(report.livelock.is_none());
    assert!(report.deadlocks > 0, "the prefix must still produce the first deadlock");
    assert!(!report.terminals.is_empty());
    for t in &report.terminals {
        assert_eq!(t.committed.len(), 4, "all four paper transactions commit");
    }
}

/// Symmetry reduction on an identical-program workload: visits strictly
/// fewer states yet reports the same terminal outcomes, deadlock count
/// profile and (label-invariant) snapshots.
#[test]
fn symmetry_reduction_is_sound_on_identical_programs() {
    let a = EntityId::new(0);
    let b = EntityId::new(1);
    // Three genuinely identical transactions (same constants), opposed
    // acquisition orders would break symmetry-eligibility via distinct
    // programs — so all three run a-then-b and conflicts come from modes.
    let prog = ProgramBuilder::new()
        .lock_exclusive(a)
        .write_const(a, 7)
        .lock_exclusive(b)
        .write_const(b, 9)
        .unlock(a)
        .unlock(b)
        .build_unchecked();
    let mut sys = System::new(
        GlobalStore::with_entities(2, Value::new(0)),
        SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::MinCost),
    );
    for _ in 0..3 {
        sys.admit(prog.clone()).expect("valid");
    }
    let full = explore(&sys, &ExploreOptions::default());
    let reduced = explore(&sys, &ExploreOptions { symmetry: true, ..Default::default() });
    assert!(full.complete && reduced.complete);
    assert!(reduced.symmetry_applied);
    assert!(
        reduced.states < full.states,
        "symmetry must shrink the state space ({} vs {})",
        reduced.states,
        full.states
    );
    // Identical programs ⇒ snapshots are label-invariant; all three
    // transactions commit either way.
    let snaps = |r: &ExploreReport| -> BTreeSet<Vec<(u32, i64)>> {
        r.terminals.iter().map(|t| t.snapshot.clone()).collect()
    };
    assert_eq!(snaps(&full), snaps(&reduced));
    assert!(full.findings.is_empty() && reduced.findings.is_empty());
}

/// The symmetry toggle is refused (not silently misapplied) for
/// entry-order-dependent policies.
#[test]
fn symmetry_is_not_applied_under_entry_order_policies() {
    let case = &grid_cases(2)[0];
    let sys = grid_system(case, StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
    let report = explore(&sys, &ExploreOptions { symmetry: true, ..Default::default() });
    assert!(!report.symmetry_applied);
}

/// Truncation is reported honestly: a tiny state budget must clear the
/// `complete` flag.
#[test]
fn truncation_clears_the_complete_flag() {
    let case = &grid_cases(3)[0];
    let sys = grid_system(case, StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
    let report = explore(&sys, &ExploreOptions { max_states: 10, ..Default::default() });
    assert!(!report.complete);
    assert!(report.states <= 10);
}
