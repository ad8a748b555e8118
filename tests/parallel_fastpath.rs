//! Differential equivalence tests for the lock-word fast path.
//!
//! `ParConfig::fast_path` is a pure performance switch: with it off,
//! every request routes through the shard-mutex lock table; with it on,
//! uncontended requests are granted by CAS and contended entities are
//! inflated into the table. These tests pin the equivalence the switch
//! must preserve — same commits, same final values, and (single-threaded,
//! where execution is deterministic) the identical stamped access
//! history — and drive the contention cases where fast grants, inflation,
//! and partial rollback genuinely interleave.

use partial_rollback::explore::{grid_cases, grid_store};
use partial_rollback::prelude::*;
use partial_rollback::sim::generator::{GeneratorConfig, ProgramGenerator};
use partial_rollback::sim::oracle::check_outcome;
use partial_rollback::sim::runner::store_with;
use proptest::prelude::*;

const STRATEGIES: [StrategyKind; 3] = [StrategyKind::Total, StrategyKind::Mcs, StrategyKind::Sdg];

fn par_config(threads: usize, strategy: StrategyKind, fast_path: bool) -> ParConfig {
    ParConfig {
        threads,
        shards: 4,
        system: SystemConfig::new(strategy, VictimPolicyKind::PartialOrder),
        fast_path,
    }
}

/// The 56-case schedule-space grid (every multiset of three two-entity
/// transaction shapes), single-threaded: execution is deterministic, so
/// fast-on and fast-off must agree *exactly* — commits, snapshot, and
/// the full stamped access history — for all three strategies.
#[test]
fn grid_cases_are_identical_fast_on_vs_off_single_threaded() {
    let cases = grid_cases(3);
    assert_eq!(cases.len(), 56, "the acceptance grid is the 56-case multiset");
    for strategy in STRATEGIES {
        for case in &cases {
            let programs = case.programs();
            let on = run_parallel(&programs, grid_store(), &par_config(1, strategy, true))
                .unwrap_or_else(|e| panic!("{strategy:?}/{} fast-on: {e}", case.name));
            let off = run_parallel(&programs, grid_store(), &par_config(1, strategy, false))
                .unwrap_or_else(|e| panic!("{strategy:?}/{} fast-off: {e}", case.name));
            assert_eq!(on.commits(), off.commits(), "{strategy:?}/{}", case.name);
            assert_eq!(on.snapshot, off.snapshot, "{strategy:?}/{}", case.name);
            assert_eq!(on.accesses, off.accesses, "{strategy:?}/{}", case.name);
            assert_eq!(off.fast.fast_grants, 0, "fast-off must not take the fast path");
        }
    }
}

/// Two-entity transfer with compute padding between the lock
/// acquisitions (see `tests/parallel_engine.rs` for why padding is what
/// makes cross-thread deadlocks actually happen on a small box).
fn padded_transfer(
    first: EntityId,
    second: EntityId,
    delta: i64,
    pad: usize,
) -> TransactionProgram {
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
    for _ in 0..pad {
        ops.push(Op::Compute(Expr::add(Expr::var(VarId::new(0)), Expr::lit(1))));
    }
    ops.push(Op::LockExclusive(second));
    ops.extend(bump(second, 1, -delta));
    ops.push(Op::Commit);
    TransactionProgram::try_from(ops).unwrap()
}

/// Seeded interleaving hammer: opposed padded transfers on 4 threads make
/// CAS grants race concurrent enqueues (first locks are usually fast,
/// second locks block and inflate) and make partial rollback pick victims
/// that hold fast-path grants. Every round must conserve the transfer
/// total, pass the full differential oracle, and — across the rounds —
/// exercise both the fast path and inflation.
#[test]
fn contended_transfers_with_fast_path_pass_the_oracle() {
    let e = EntityId::new;
    let mut fast_grants = 0u64;
    let mut inflations = 0u64;
    let mut deadlocks = 0u64;
    // The pad must outlast worker start-up skew in a cold process, or the
    // first worker drains the batch alone; sized for a ~100 ns step.
    const PAD: usize = 6_000;
    let programs: Vec<TransactionProgram> = (0..12)
        .map(|i| match i % 2 {
            0 => padded_transfer(e(0), e(1), 1, PAD),
            _ => padded_transfer(e(1), e(0), 1, PAD),
        })
        .collect();
    // At least 8 rounds; past them, only until the first deadlock (a slow
    // scheduler forms few), up to a cap.
    let mut round = 0u64;
    while round < 8 || (deadlocks == 0 && round < 400) {
        let strategy = STRATEGIES[(round % 3) as usize];
        let config = par_config(4, strategy, true);
        let out = run_parallel(&programs, GlobalStore::with_entities(2, Value::new(50)), &config)
            .unwrap_or_else(|err| panic!("round {round} ({strategy:?}): {err}"));
        assert_eq!(out.commits(), 12);
        let total: i64 = out.snapshot.iter().map(|(_, v)| v.raw()).sum();
        assert_eq!(total, 100, "round {round}: transfers must conserve the total");
        check_outcome(
            &programs,
            &GlobalStore::with_entities(2, Value::new(50)),
            &config.system,
            &out,
        )
        .unwrap_or_else(|v| panic!("round {round} ({strategy:?}): oracle violation: {v}"));
        fast_grants += out.fast.fast_grants;
        inflations += out.fast.inflations;
        deadlocks += out.metrics.deadlocks;
        round += 1;
    }
    eprintln!("{deadlocks} deadlocks in {round} rounds");
    assert!(fast_grants > 0, "the fast path was never taken");
    assert!(inflations > 0, "contention never inflated an entity");
    assert!(deadlocks > 0, "the resolver was never exercised against fast-path holders");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generator workloads are delta-additive, so every serializable
    /// execution agrees on the final state: a 4-thread fast-on run and a
    /// 4-thread fast-off run of the same seeded workload must commit the
    /// same set and land on the same snapshot, across skews and paddings.
    #[test]
    fn fast_on_and_fast_off_agree_on_final_state(
        workload_seed in 0u64..5_000,
        skew_centi in prop_oneof![Just(0u16), Just(120u16)],
        pad in prop_oneof![Just(2usize), Just(400usize)],
        strategy_idx in 0usize..3,
    ) {
        let config = GeneratorConfig {
            num_entities: 12,
            skew_centi,
            pad_between: pad,
            ..GeneratorConfig::default()
        };
        let mut generator = ProgramGenerator::new(config, workload_seed);
        let programs = generator.generate_workload(10);
        let strategy = STRATEGIES[strategy_idx];

        let on = run_parallel(&programs, store_with(12, 100), &par_config(4, strategy, true))
            .map_err(|e| TestCaseError::fail(format!("fast-on: {e}")))?;
        let off = run_parallel(&programs, store_with(12, 100), &par_config(4, strategy, false))
            .map_err(|e| TestCaseError::fail(format!("fast-off: {e}")))?;
        prop_assert_eq!(on.commits(), programs.len());
        prop_assert_eq!(off.commits(), programs.len());
        prop_assert_eq!(on.snapshot, off.snapshot);
        prop_assert_eq!(off.fast.fast_grants, 0);
    }
}
