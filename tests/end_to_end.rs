//! End-to-end integration: full workloads through the public facade,
//! across every strategy × policy combination, with the serializability
//! and conservation oracles.

use partial_rollback::prelude::*;
use partial_rollback::sim::generator::{Clustering, GeneratorConfig, ProgramGenerator};
use partial_rollback::sim::runner::{is_serializable, run_workload, store_with, SchedulerKind};

fn transfer(from: u32, to: u32, amount: i64) -> TransactionProgram {
    let v = VarId::new(0);
    ProgramBuilder::new()
        .lock_exclusive(EntityId::new(from))
        .lock_exclusive(EntityId::new(to))
        .read(EntityId::new(from), v)
        .write(EntityId::new(from), Expr::sub(Expr::var(v), Expr::lit(amount)))
        .read(EntityId::new(to), v)
        .write(EntityId::new(to), Expr::add(Expr::var(v), Expr::lit(amount)))
        .unlock(EntityId::new(from))
        .unlock(EntityId::new(to))
        .build()
        .unwrap()
}

#[test]
fn every_strategy_policy_combination_drains_a_hot_workload() {
    for strategy in StrategyKind::ALL {
        for victim in VictimPolicyKind::ALL {
            let store = GlobalStore::with_entities(4, Value::new(1_000));
            let mut config = SystemConfig::new(strategy, victim);
            config.max_steps = 500_000;
            let mut sys = System::new(store, config);
            for i in 0..12u32 {
                let (a, b) = (i % 4, (i + 1 + i % 3) % 4);
                if a != b {
                    sys.admit(transfer(a, b, 7)).unwrap();
                }
            }
            let result = sys.run(&mut RoundRobin::new());
            match result {
                Ok(()) => {
                    assert!(sys.all_committed(), "{strategy:?}/{victim:?}");
                    assert_eq!(
                        sys.store().total(),
                        Value::new(4_000),
                        "{strategy:?}/{victim:?}: conservation"
                    );
                    sys.check_invariants()
                        .unwrap_or_else(|m| panic!("{strategy:?}/{victim:?}: {m}"));
                }
                Err(EngineError::StepLimitExceeded { .. }) => {
                    // Only the unrestricted policies may livelock; the
                    // ordered ones must always terminate (Theorem 2).
                    assert!(
                        matches!(
                            victim,
                            VictimPolicyKind::MinCost | VictimPolicyKind::ConflictCauser
                        ),
                        "{strategy:?}/{victim:?} must not livelock"
                    );
                }
                Err(e) => panic!("{strategy:?}/{victim:?}: {e}"),
            }
        }
    }
}

#[test]
fn concurrent_outcomes_are_serializable_for_every_strategy() {
    let gen_cfg = GeneratorConfig {
        num_entities: 4,
        min_locks: 2,
        max_locks: 3,
        pad_between: 1,
        writes_per_entity: 2,
        clustering: Clustering::Spread { spread_per_mille: 600 },
        ..Default::default()
    };
    for strategy in StrategyKind::ALL {
        for seed in 0..6u64 {
            let mut g = ProgramGenerator::new(gen_cfg, seed);
            let programs = g.generate_workload(4);
            let config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
            let report = run_workload(
                &programs,
                store_with(4, 100),
                config,
                SchedulerKind::Random { seed: 97 * seed + 3 },
            )
            .unwrap();
            assert!(report.completed);
            assert!(
                is_serializable(&programs, &store_with(4, 100), config, &report.snapshot).unwrap(),
                "{strategy:?} seed {seed}: outcome not serializable"
            );
        }
    }
}

#[test]
fn identical_seeds_give_identical_runs() {
    let gen_cfg = GeneratorConfig::default();
    let run = || {
        let mut g = ProgramGenerator::new(gen_cfg, 5);
        let programs = g.generate_workload(10);
        run_workload(
            &programs,
            store_with(32, 100),
            SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::MinCost),
            SchedulerKind::Random { seed: 11 },
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.metrics, b.metrics, "engine must be fully deterministic");
    assert_eq!(a.snapshot, b.snapshot);
}

#[test]
fn integrity_constraints_hold_at_commit_points() {
    // Run a conserving workload and check the constraint after draining.
    let mut store = GlobalStore::with_entities(4, Value::new(250));
    store.add_constraint(Constraint::new("conservation", |s| s.total() == Value::new(1_000)));
    let mut sys = System::new(store, SystemConfig::default());
    for i in 0..8u32 {
        sys.admit(transfer(i % 4, (i + 1) % 4, 13)).unwrap();
    }
    sys.run(&mut RoundRobin::new()).unwrap();
    sys.store().check_consistency().unwrap();
}

#[test]
fn shared_lock_heavy_workloads_drain() {
    let gen_cfg = GeneratorConfig {
        num_entities: 6,
        exclusive_per_mille: 250,
        min_locks: 2,
        max_locks: 5,
        ..Default::default()
    };
    for seed in 0..8u64 {
        let mut g = ProgramGenerator::new(gen_cfg, seed);
        let programs = g.generate_workload(20);
        let report = run_workload(
            &programs,
            store_with(6, 100),
            SystemConfig::new(StrategyKind::Sdg, VictimPolicyKind::PartialOrder),
            SchedulerKind::Random { seed: seed + 500 },
        )
        .unwrap();
        assert!(report.completed, "seed {seed}");
        assert_eq!(report.metrics.commits, 20);
    }
}

#[test]
fn deadlock_history_is_consistent_with_metrics() {
    let store = GlobalStore::with_entities(2, Value::new(100));
    let mut sys =
        System::new(store, SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder));
    let t1 = sys.admit(transfer(0, 1, 10)).unwrap();
    let t2 = sys.admit(transfer(1, 0, 5)).unwrap();
    sys.step(t1).unwrap();
    sys.step(t2).unwrap();
    sys.step(t1).unwrap(); // waits
    sys.step(t2).unwrap(); // deadlock
    sys.run(&mut RoundRobin::new()).unwrap();
    assert_eq!(sys.history().len() as u64, sys.metrics().deadlocks);
    let planned: u64 = sys.history().iter().map(|r| r.plan.rollbacks.len() as u64).sum();
    assert_eq!(planned, sys.metrics().rollbacks());
}
