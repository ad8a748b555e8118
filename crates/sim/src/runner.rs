//! Workload execution and correctness oracles.

use pr_core::scheduler::{RoundRobin, Scheduler};
use pr_core::{EngineError, Metrics, System, SystemConfig};
use pr_model::{TransactionProgram, TxnId, Value};
use pr_storage::{GlobalStore, Snapshot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded uniformly random scheduler — the adversary-free interleaving
/// used by the quantitative experiments.
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: SmallRng,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler { rng: SmallRng::seed_from_u64(seed) }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, ready: &[TxnId]) -> TxnId {
        ready[self.rng.gen_range(0..ready.len())]
    }
}

/// Scheduler selection for [`run_workload`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerKind {
    /// Deterministic round-robin.
    RoundRobin,
    /// Seeded uniform random.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Outcome of one workload run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Engine metrics at completion.
    pub metrics: Metrics,
    /// Whether every transaction committed (false = the run hit the step
    /// limit, e.g. a livelocking policy).
    pub completed: bool,
    /// Final database snapshot.
    pub snapshot: Snapshot,
}

/// Runs `programs` concurrently over `store` and returns the report.
///
/// Under [`pr_core::GrantPolicy::Ordered`] the runner plays the prover's
/// role inline: it derives a total acquisition order for the workload and
/// installs it, so orderable workloads take the certified fast path and
/// unorderable ones (no order derivable, nothing installed) fall back to
/// the paper's partial-rollback machinery wholesale.
///
/// A [`EngineError::StepLimitExceeded`] is reported as `completed: false`
/// (that is a *result* for livelock experiments, not a failure); any other
/// engine error propagates.
pub fn run_workload(
    programs: &[TransactionProgram],
    store: GlobalStore,
    config: SystemConfig,
    scheduler: SchedulerKind,
) -> Result<RunReport, EngineError> {
    let mut sys = System::new(store, config);
    if config.grant_policy == pr_core::GrantPolicy::Ordered {
        if let Ok(order) = pr_core::derive_order(programs) {
            sys.install_order(order);
        }
    }
    for p in programs {
        sys.admit(p.clone())?;
    }
    let result = match scheduler {
        SchedulerKind::RoundRobin => sys.run(&mut RoundRobin::new()),
        SchedulerKind::Random { seed } => sys.run(&mut RandomScheduler::new(seed)),
    };
    let completed = match result {
        Ok(()) => true,
        Err(EngineError::StepLimitExceeded { .. }) => false,
        Err(e) => return Err(e),
    };
    Ok(RunReport { metrics: sys.metrics().clone(), completed, snapshot: sys.store().snapshot() })
}

/// Runs `programs` serially (one at a time) in the given order and
/// returns the final snapshot. The basis of the serializability oracle.
pub fn run_serial(
    programs: &[TransactionProgram],
    order: &[usize],
    store: GlobalStore,
    config: SystemConfig,
) -> Result<Snapshot, EngineError> {
    let mut store = store;
    for &i in order {
        let mut sys = System::new(std::mem::take(&mut store), config);
        sys.admit(programs[i].clone())?;
        sys.run(&mut RoundRobin::new())?;
        store = std::mem::replace(sys.store_mut(), GlobalStore::new());
    }
    Ok(store.snapshot())
}

/// Serializability oracle: checks that `observed` (the final snapshot of
/// a concurrent run) equals the final snapshot of *some* serial order of
/// the same programs. Exhaustive over permutations — use with ≤ 6
/// programs.
pub fn is_serializable(
    programs: &[TransactionProgram],
    initial: &GlobalStore,
    config: SystemConfig,
    observed: &Snapshot,
) -> Result<bool, EngineError> {
    let n = programs.len();
    assert!(n <= 6, "permutation oracle is exponential; use ≤ 6 programs");
    let mut order: Vec<usize> = (0..n).collect();
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    let check = |order: &[usize]| -> Result<bool, EngineError> {
        let mut store = GlobalStore::new();
        for (id, v) in initial.iter() {
            store.create(id, v).expect("fresh store");
        }
        Ok(run_serial(programs, order, store, config)? == *observed)
    };
    if check(&order)? {
        return Ok(true);
    }
    let mut i = 1;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                order.swap(0, i);
            } else {
                order.swap(c[i], i);
            }
            if check(&order)? {
                return Ok(true);
            }
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    Ok(false)
}

/// Convenience: a store with entities `0..n` all holding `init`.
pub fn store_with(n: u32, init: i64) -> GlobalStore {
    GlobalStore::with_entities(n, Value::new(init))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, ProgramGenerator};
    use pr_core::{GrantPolicy, StrategyKind, VictimPolicyKind};
    use proptest::prelude::*;

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let mut a = RandomScheduler::new(3);
        let mut b = RandomScheduler::new(3);
        let ready: Vec<TxnId> = (1..10).map(TxnId::new).collect();
        for _ in 0..50 {
            assert_eq!(a.pick(&ready), b.pick(&ready));
        }
    }

    #[test]
    fn workload_runs_conserve_totals() {
        let mut g = ProgramGenerator::new(GeneratorConfig::default(), 11);
        let programs = g.generate_workload(12);
        let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
        let report =
            run_workload(&programs, store_with(32, 100), config, SchedulerKind::Random { seed: 5 })
                .unwrap();
        assert!(report.completed);
        assert_eq!(report.metrics.commits, 12);
    }

    #[test]
    fn concurrent_runs_are_serializable() {
        // Small adversarial workload checked against all serial orders.
        let cfg = GeneratorConfig {
            num_entities: 4,
            min_locks: 2,
            max_locks: 3,
            pad_between: 0,
            ..Default::default()
        };
        let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        for seed in 0..10u64 {
            let mut g = ProgramGenerator::new(cfg, seed);
            let programs = g.generate_workload(4);
            let initial = store_with(4, 50);
            let report = run_workload(
                &programs,
                store_with(4, 50),
                config,
                SchedulerKind::Random { seed: seed * 31 + 1 },
            )
            .unwrap();
            assert!(report.completed);
            assert!(
                is_serializable(&programs, &initial, config, &report.snapshot).unwrap(),
                "seed {seed}: concurrent outcome not serializable"
            );
        }
    }

    #[test]
    fn serial_execution_order_matters_but_all_are_accepted() {
        // Sanity for the oracle itself: the identity order reproduces a
        // serial run.
        let mut g = ProgramGenerator::new(GeneratorConfig::default(), 2);
        let programs = g.generate_workload(3);
        let config = SystemConfig::default();
        let snap = run_serial(&programs, &[0, 1, 2], store_with(32, 10), config).unwrap();
        assert!(is_serializable(&programs, &store_with(32, 10), config, &snap).unwrap());
    }

    /// The premise of the oracle's serial reference
    /// (`crate::oracle::check_outcome`), on soak-grid workloads: every
    /// deterministic concurrent run that completes — under round-robin or
    /// a seeded random schedule, every strategy, both grant policies, Zipf
    /// 0 / 0.8 / 1.2, padding 2 / 500 — ends on the snapshot of the serial
    /// run in index order. A run that hits its step budget (barging's
    /// thrash) shows nothing and is skipped, but every (strategy, policy)
    /// pair must complete some runs, so the check is not vacuous. That
    /// count spans every case, so the cases are drawn from proptest
    /// strategies here rather than inside `proptest!`.
    #[test]
    fn completing_concurrent_runs_end_on_the_serial_snapshot() {
        const POLICIES: [GrantPolicy; 2] = [GrantPolicy::Barging, GrantPolicy::FairQueue];
        const CELLS: [(u16, usize); 6] =
            [(0, 2), (80, 2), (120, 2), (0, 500), (80, 500), (120, 500)];
        let shape = (any::<u64>(), 8usize..=16, 8u32..=12, any::<u64>());
        let mut rng = TestRng::for_test("completing_concurrent_runs_end_on_the_serial_snapshot");
        let mut completed = [[0usize; POLICIES.len()]; StrategyKind::ALL.len()];
        // Each case takes one (zipf, pad) cell in turn, so every cell runs
        // twice.
        for case in 0..2 * CELLS.len() {
            let (seed, txns, entities, schedule_seed) = shape.sample(&mut rng);
            let (skew_centi, pad_between) = CELLS[case % CELLS.len()];
            let gen = GeneratorConfig {
                num_entities: entities,
                skew_centi,
                pad_between,
                ..GeneratorConfig::default()
            };
            let programs = ProgramGenerator::new(gen, seed).generate_workload(txns);
            let order: Vec<usize> = (0..txns).collect();
            let serial =
                run_serial(&programs, &order, store_with(entities, 100), SystemConfig::default())
                    .expect("a lone transaction runs");
            let total_ops: u64 = programs.iter().map(|p| p.ops().len() as u64).sum();
            for (s, &strategy) in StrategyKind::ALL.iter().enumerate() {
                for (p, &grant_policy) in POLICIES.iter().enumerate() {
                    let mut config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
                    config.grant_policy = grant_policy;
                    config.max_steps = (total_ops * 100).max(200_000);
                    for schedule in
                        [SchedulerKind::RoundRobin, SchedulerKind::Random { seed: schedule_seed }]
                    {
                        let run =
                            run_workload(&programs, store_with(entities, 100), config, schedule)
                                .expect("engine error");
                        if run.completed {
                            assert_eq!(
                                run.snapshot, serial,
                                "case {case} (seed {seed}, {txns} txns over {entities}, zipf \
                                 {skew_centi}, pad {pad_between}): {strategy:?} / \
                                 {grant_policy:?} / {schedule:?}"
                            );
                            completed[s][p] += 1;
                        }
                    }
                }
            }
        }
        eprintln!("completed runs per strategy, [barging, fair-queue]: {completed:?}");
        for (s, row) in completed.iter().enumerate() {
            for (p, &n) in row.iter().enumerate() {
                let (strategy, policy) = (StrategyKind::ALL[s], POLICIES[p]);
                assert!(n > 0, "no {strategy:?} / {policy:?} run completed");
            }
        }
    }
}
