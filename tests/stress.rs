//! Stress tests: scale, a deadlock storm, and determinism under parallel
//! drivers.
//!
//! The engine itself is deliberately single-threaded and deterministic
//! (concurrency in the paper's model is interleaving); these tests drive
//! many engines in parallel OS threads via `std::thread::scope` to shake
//! out any accidental shared state.

use partial_rollback::prelude::*;
use partial_rollback::sim::generator::{GeneratorConfig, ProgramGenerator};
use partial_rollback::sim::runner::{run_workload, store_with, SchedulerKind};

#[test]
fn large_workload_drains_quickly() {
    let cfg = GeneratorConfig {
        num_entities: 64,
        min_locks: 2,
        max_locks: 6,
        pad_between: 2,
        ..Default::default()
    };
    let mut g = ProgramGenerator::new(cfg, 77);
    let programs = g.generate_workload(128);
    let report = run_workload(
        &programs,
        store_with(64, 100),
        SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder),
        SchedulerKind::Random { seed: 6 },
    )
    .unwrap();
    assert!(report.completed);
    assert_eq!(report.metrics.commits, 128);
}

#[test]
fn parallel_engines_agree_with_serial_reruns() {
    // Run the same seeds in parallel threads and sequentially; metrics
    // must match exactly — no hidden global state anywhere.
    let seeds: Vec<u64> = (0..8).collect();
    let run_one = |seed: u64| {
        let cfg = GeneratorConfig { num_entities: 8, ..Default::default() };
        let mut g = ProgramGenerator::new(cfg, seed);
        let programs = g.generate_workload(12);
        run_workload(
            &programs,
            store_with(8, 100),
            SystemConfig::new(StrategyKind::Sdg, VictimPolicyKind::PartialOrder),
            SchedulerKind::Random { seed: seed * 3 + 1 },
        )
        .unwrap()
    };

    let serial: Vec<_> = seeds.iter().map(|&s| run_one(s)).collect();

    let parallel: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds.iter().map(|&s| scope.spawn(move || run_one(s))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.metrics, p.metrics);
        assert_eq!(s.snapshot, p.snapshot);
    }
}

#[test]
fn repeated_deadlock_storm_is_survived_by_every_strategy() {
    // 32 transactions hammering 3 entities in conflicting orders: a
    // deadlock storm. All ordered policies must drain it.
    let mk = |a: u32, b: u32, c: u32| {
        ProgramBuilder::new()
            .lock_exclusive(EntityId::new(a))
            .pad(2)
            .lock_exclusive(EntityId::new(b))
            .pad(2)
            .lock_exclusive(EntityId::new(c))
            .pad(1)
            .build()
            .unwrap()
    };
    for strategy in StrategyKind::ALL {
        let store = GlobalStore::with_entities(3, Value::new(0));
        let mut config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
        config.max_steps = 2_000_000;
        let mut sys = System::new(store, config);
        for i in 0..32u32 {
            let perm = match i % 6 {
                0 => (0, 1, 2),
                1 => (0, 2, 1),
                2 => (1, 0, 2),
                3 => (1, 2, 0),
                4 => (2, 0, 1),
                _ => (2, 1, 0),
            };
            sys.admit(mk(perm.0, perm.1, perm.2)).unwrap();
        }
        sys.run(&mut RoundRobin::new()).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert!(sys.all_committed(), "{strategy:?}");
        assert!(sys.metrics().deadlocks > 0, "{strategy:?}: the storm must actually deadlock");
        sys.check_invariants().unwrap();
    }
}
