//! Cross-strategy equivalence of the deterministic engine.
//!
//! The four rollback strategies (total, MCS, SDG, repair) differ only
//! in *how far* a deadlock victim is rolled back and how it re-executes
//! — never in what a committed transaction computes. For the generator's delta-additive workloads
//! (every entity write publishes `read value + constant`) all
//! serializable executions share one final database state, so running
//! the same seeded workload under each strategy must commit the same
//! transaction set and leave identical final entity values, even though
//! the interleavings, victim choices, and rollback depths all differ.

use partial_rollback::prelude::*;
use partial_rollback::sim::generator::{GeneratorConfig, ProgramGenerator};
use partial_rollback::sim::runner::{run_workload, store_with, SchedulerKind};
use proptest::prelude::*;

const STRATEGIES: [StrategyKind; 4] = StrategyKind::ALL;

/// Runs one seeded workload under `strategy` and returns the final
/// snapshot plus the committed-transaction count.
fn run_one(
    programs: &[TransactionProgram],
    strategy: StrategyKind,
    sched_seed: u64,
) -> (Snapshot, u64) {
    let mut config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
    config.grant_policy = GrantPolicy::Barging;
    let report = run_workload(
        programs,
        store_with(24, 100),
        config,
        SchedulerKind::Random { seed: sched_seed },
    )
    .expect("engine error");
    assert!(report.completed, "{strategy:?} hit the step limit");
    (report.snapshot, report.metrics.commits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed ⇒ all three strategies commit the same transaction set
    /// and produce identical final entity values.
    #[test]
    fn strategies_agree_on_commits_and_final_values(
        workload_seed in 0u64..5_000,
        sched_seed in 0u64..1_000,
        skew_centi in prop_oneof![Just(0u16), Just(60u16)],
    ) {
        let config = GeneratorConfig {
            num_entities: 24,
            skew_centi,
            ..GeneratorConfig::default()
        };
        let mut generator = ProgramGenerator::new(config, workload_seed);
        let programs = generator.generate_workload(10);

        let (base_snapshot, base_commits) = run_one(&programs, STRATEGIES[0], sched_seed);
        prop_assert_eq!(base_commits, programs.len() as u64);
        for strategy in &STRATEGIES[1..] {
            let (snapshot, commits) = run_one(&programs, *strategy, sched_seed);
            prop_assert_eq!(
                commits, base_commits,
                "{:?} committed a different transaction set", strategy
            );
            prop_assert_eq!(
                &snapshot, &base_snapshot,
                "{:?} diverged from {:?} on final values", strategy, STRATEGIES[0]
            );
        }
    }

    /// The equivalence holds under the fair-queue grant policy too, where
    /// promotion order (and hence the conflict serialization) differs.
    #[test]
    fn strategies_agree_under_fair_queueing(workload_seed in 0u64..2_000) {
        let config = GeneratorConfig { num_entities: 16, ..GeneratorConfig::default() };
        let mut generator = ProgramGenerator::new(config, workload_seed);
        let programs = generator.generate_workload(8);

        let mut snapshots = Vec::new();
        for strategy in STRATEGIES {
            let mut sys_config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
            sys_config.grant_policy = GrantPolicy::FairQueue;
            let report = run_workload(
                &programs,
                store_with(16, 100),
                sys_config,
                SchedulerKind::Random { seed: workload_seed ^ 0xFA1F },
            )
            .expect("engine error");
            prop_assert!(report.completed, "{:?} hit the step limit", strategy);
            prop_assert_eq!(report.metrics.commits, programs.len() as u64);
            snapshots.push(report.snapshot);
        }
        for snapshot in &snapshots[1..] {
            prop_assert_eq!(&snapshots[0], snapshot);
        }
    }
}
