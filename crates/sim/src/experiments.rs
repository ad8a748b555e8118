//! Quantitative experiments behind the paper's claims.
//!
//! Each sweep function returns structured rows; the `*_table` functions
//! ([`f1_table`] … [`r1_table`]) render them, at the default sizes and
//! seeds, as the tables recorded in `EXPERIMENTS.md`. The `experiments`
//! binary only prints them and writes their CSVs, so `tests/golden.rs`
//! checks every committed `results/*.csv` through the same calls.

use crate::generator::{Clustering, GeneratorConfig, ProgramGenerator};
use crate::report::{f2, Table};
use crate::runner::{run_workload, store_with, SchedulerKind};
use crate::scenarios::{figure1, figure2, figure5};
use pr_core::{StrategyKind, SystemConfig, VictimPolicyKind};
use pr_graph::{cutset, CandidateRollback};
use pr_model::{LockIndex, StateIndex, TxnId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of transactions per run unless a sweep varies it.
const DEFAULT_TXNS: usize = 16;
/// Seeds averaged per configuration.
const DEFAULT_SEEDS: u64 = 5;

fn base_config(strategy: StrategyKind, victim: VictimPolicyKind) -> SystemConfig {
    let mut c = SystemConfig::new(strategy, victim);
    c.max_steps = 2_000_000;
    c
}

/// **F1 — Figure 1.** Each member's rollback cost against the paper's,
/// with the run they were measured in (its victim is printed beside the
/// table).
pub fn f1_table() -> (Table, figure1::Figure1Outcome) {
    let f1 = figure1::run(StrategyKind::Mcs);
    let mut t = Table::new(["txn", "cost (paper)", "cost (measured)"])
        .with_title("F1 — Figure 1: rollback costs and victim choice");
    for (txn, paper) in [(2u32, 4u32), (3, 6), (4, 5)] {
        t.row([format!("T{txn}"), paper.to_string(), f1.costs[&TxnId::new(txn)].to_string()]);
    }
    (t, f1)
}

/// **F2 — Figure 2.** Min-cost victims preempt each other without end;
/// the partial-order policy completes.
pub fn f2_table() -> Table {
    let (mincost, partial) = figure2::run(20_000);
    let mut t = Table::new(["policy", "completed", "deadlocks", "rollbacks", "max preemptions"])
        .with_title("F2 — Figure 2: potentially infinite mutual preemption");
    for (name, o) in [("min-cost", &mincost), ("partial-order", &partial)] {
        t.row([
            name.to_string(),
            o.completed.to_string(),
            o.deadlocks.to_string(),
            o.rollbacks.to_string(),
            o.max_preemptions.to_string(),
        ]);
    }
    t
}

/// **F5 — Figure 5.** Spread writes leave the SDG strategy no
/// well-defined state near the ideal target; clustered writes do.
pub fn f5_table() -> Table {
    let (spread, clustered) = figure5::run();
    let mut t = Table::new(["victim shape", "rollback target", "states lost", "overshoot"])
        .with_title("F5 — Figure 5: write clustering under the SDG strategy");
    for (shape, o) in [("spread (T1 shape)", spread), ("clustered (T2 shape)", clustered)] {
        t.row([
            shape.to_string(),
            o.target.to_string(),
            o.states_lost.to_string(),
            o.overshoot.to_string(),
        ]);
    }
    t
}

/// **Q1** table: [`lost_progress_sweep`] over 6, 10, 16 and 32 entities.
pub fn q1_table() -> Table {
    let mut t = Table::new([
        "entities",
        "strategy",
        "deadlocks",
        "states lost",
        "cost/deadlock",
        "waste ratio",
    ])
    .with_title("Q1 — lost progress: partial vs total rollback");
    for r in &lost_progress_sweep(&[6, 10, 16, 32], DEFAULT_SEEDS) {
        t.row([
            r.num_entities.to_string(),
            r.strategy.to_string(),
            f2(r.deadlocks),
            f2(r.states_lost),
            f2(r.cost_per_deadlock),
            f2(r.waste_ratio),
        ]);
    }
    t
}

/// **Q2** table: [`strategy_tradeoff`].
pub fn q2_table() -> Table {
    let mut t = Table::new(["strategy", "peak copies", "states lost", "overshoot", "restarts"])
        .with_title("Q2 — storage vs rollback precision (§4 trade-off)");
    for r in &strategy_tradeoff(DEFAULT_SEEDS) {
        t.row([
            r.strategy.to_string(),
            f2(r.peak_copies),
            f2(r.states_lost),
            f2(r.overshoot),
            f2(r.total_rollbacks),
        ]);
    }
    t
}

/// **Q3** table: [`cutset_comparison`] over 2 to 16 cycles.
pub fn q3_table() -> Table {
    let mut t = Table::new(["cycles", "members", "exact cost", "greedy cost", "exact solved"])
        .with_title("Q3 — min-cost vertex cut: exact vs greedy (§3.2)");
    for r in &cutset_comparison(&[(2, 3), (4, 4), (8, 5), (16, 6)], DEFAULT_SEEDS) {
        t.row([
            r.cycles.to_string(),
            r.members.to_string(),
            f2(r.exact_cost),
            f2(r.greedy_cost),
            f2(r.exact_solved),
        ]);
    }
    t
}

/// **Q4** table: [`clustering_sweep`].
pub fn q4_table() -> Table {
    let mut t = Table::new(["write placement", "well-defined states", "overshoot", "states lost"])
        .with_title("Q4 — write clustering and three-phase structure (§5)");
    for r in &clustering_sweep(DEFAULT_SEEDS) {
        t.row([r.clustering.clone(), f2(r.well_defined), f2(r.overshoot), f2(r.states_lost)]);
    }
    t
}

/// **Q5** table: [`concurrency_sweep`] over 4, 8, 16 and 32 transactions.
pub fn q5_table() -> Table {
    let mut t = Table::new(["txns", "deadlocks / commit", "states lost / commit"])
        .with_title("Q5 — deadlock frequency vs concurrency (§1 motivation)");
    for r in &concurrency_sweep(&[4, 8, 16, 32], DEFAULT_SEEDS) {
        t.row([r.txns.to_string(), f2(r.deadlocks_per_commit), f2(r.lost_per_commit)]);
    }
    t
}

/// **E1** table: [`budget_sweep`] over budgets 1, 2, 4 and 8.
pub fn e1_table() -> Table {
    let mut t = Table::new(["strategy", "peak copies", "overshoot", "states lost"])
        .with_title("E1 — bounded extra copies (the paper's closing open question)");
    for r in &budget_sweep(&[1, 2, 4, 8], DEFAULT_SEEDS) {
        t.row([r.strategy.clone(), f2(r.peak_copies), f2(r.overshoot), f2(r.states_lost)]);
    }
    t
}

/// **Q6** table: [`policy_comparison`].
pub fn q6_table() -> Table {
    let mut t = Table::new(["policy", "completion rate", "max preemptions", "states lost"])
        .with_title("Q6 — victim policies on a hot workload (Theorem 2)");
    for r in &policy_comparison(DEFAULT_SEEDS) {
        t.row([
            r.policy.to_string(),
            f2(r.completion_rate),
            f2(r.max_preemptions),
            f2(r.states_lost),
        ]);
    }
    t
}

/// **R1** table: [`restructure_comparison`].
pub fn r1_table() -> Table {
    let mut t = Table::new(["program form", "well-defined states", "overshoot", "states lost"])
        .with_title("R1 — compile-time restructuring (§5): same transactions, reordered");
    for r in &restructure_comparison(DEFAULT_SEEDS) {
        t.row([r.form.to_string(), f2(r.well_defined), f2(r.overshoot), f2(r.states_lost)]);
    }
    t
}

/// One row of the Q1 lost-progress sweep.
#[derive(Clone, Debug)]
pub struct LostProgressRow {
    /// Database size (entities) — smaller means hotter.
    pub num_entities: u32,
    /// Rollback strategy.
    pub strategy: String,
    /// Deadlocks per run (mean).
    pub deadlocks: f64,
    /// States lost per run (mean).
    pub states_lost: f64,
    /// States lost per deadlock — the paper's per-incident damage
    /// measure ("such a procedure has a very adverse effect on the
    /// performance of the transaction operated on").
    pub cost_per_deadlock: f64,
    /// Fraction of executed work that was wasted.
    pub waste_ratio: f64,
}

/// **Q1 — lost progress.** Partial rollback loses less progress than
/// total removal and restart, across contention levels (§1's motivating
/// claim).
pub fn lost_progress_sweep(entity_counts: &[u32], seeds: u64) -> Vec<LostProgressRow> {
    let mut rows = Vec::new();
    for &n in entity_counts {
        for strategy in StrategyKind::ALL {
            let mut deadlocks = 0.0;
            let mut lost = 0.0;
            let mut waste = 0.0;
            for seed in 0..seeds {
                let gen_cfg = GeneratorConfig {
                    num_entities: n,
                    min_locks: 3,
                    max_locks: 6,
                    pad_between: 3,
                    ..Default::default()
                };
                let mut g = ProgramGenerator::new(gen_cfg, seed);
                let programs = g.generate_workload(DEFAULT_TXNS);
                let report = run_workload(
                    &programs,
                    store_with(n, 100),
                    base_config(strategy, VictimPolicyKind::PartialOrder),
                    SchedulerKind::Random { seed: seed + 1000 },
                )
                .expect("workload must run");
                assert!(report.completed, "partial-order policy always drains");
                deadlocks += report.metrics.deadlocks as f64;
                lost += report.metrics.states_lost as f64;
                waste += report.metrics.waste_ratio();
            }
            let k = seeds as f64;
            rows.push(LostProgressRow {
                num_entities: n,
                strategy: strategy.name(),
                deadlocks: deadlocks / k,
                states_lost: lost / k,
                cost_per_deadlock: if deadlocks > 0.0 { lost / deadlocks } else { 0.0 },
                waste_ratio: waste / k,
            });
        }
    }
    rows
}

/// One row of the Q2 strategy trade-off comparison.
#[derive(Clone, Debug)]
pub struct TradeoffRow {
    /// Rollback strategy.
    pub strategy: String,
    /// Peak local copies held system-wide (storage overhead).
    pub peak_copies: f64,
    /// States lost per run.
    pub states_lost: f64,
    /// States lost beyond ideal targets (SDG's compromise; 0 for MCS).
    pub overshoot: f64,
    /// Rollbacks that went all the way to a restart.
    pub total_rollbacks: f64,
}

/// **Q2 — storage vs precision.** MCS pays up to `n(n+1)/2` copies for
/// exact rollback targets; SDG holds total-rollback storage but
/// overshoots; Total holds the same storage and always overshoots to
/// zero (§4's central trade-off).
pub fn strategy_tradeoff(seeds: u64) -> Vec<TradeoffRow> {
    let mut rows = Vec::new();
    for strategy in StrategyKind::ALL {
        let mut copies = 0.0;
        let mut lost = 0.0;
        let mut over = 0.0;
        let mut totals = 0.0;
        for seed in 0..seeds {
            let gen_cfg = GeneratorConfig {
                num_entities: 12,
                min_locks: 3,
                max_locks: 6,
                writes_per_entity: 2,
                pad_between: 2,
                clustering: Clustering::Spread { spread_per_mille: 500 },
                ..Default::default()
            };
            let mut g = ProgramGenerator::new(gen_cfg, seed);
            let programs = g.generate_workload(DEFAULT_TXNS);
            let report = run_workload(
                &programs,
                store_with(12, 100),
                base_config(strategy, VictimPolicyKind::PartialOrder),
                SchedulerKind::Random { seed: seed + 2000 },
            )
            .expect("workload must run");
            copies += report.metrics.peak_copies as f64;
            lost += report.metrics.states_lost as f64;
            over += report.metrics.rollback_overshoot as f64;
            totals += report.metrics.total_rollbacks as f64;
        }
        let k = seeds as f64;
        rows.push(TradeoffRow {
            strategy: strategy.name(),
            peak_copies: copies / k,
            states_lost: lost / k,
            overshoot: over / k,
            total_rollbacks: totals / k,
        });
    }
    rows
}

/// One row of the F2/Q-policy comparison.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Victim policy.
    pub policy: &'static str,
    /// Fraction of runs that drained before the step limit.
    pub completion_rate: f64,
    /// Mean max-preemption count (livelock indicator).
    pub max_preemptions: f64,
    /// Mean states lost (over completed runs).
    pub states_lost: f64,
}

/// **F2/Theorem 2 — victim policies.** Unrestricted min-cost selection is
/// cheapest per deadlock but admits mutual preemption; ω-ordered policies
/// bound preemption.
pub fn policy_comparison(seeds: u64) -> Vec<PolicyRow> {
    let mut rows = Vec::new();
    for policy in VictimPolicyKind::ALL {
        let mut completed = 0.0;
        let mut maxp = 0.0;
        let mut lost = 0.0;
        for seed in 0..seeds {
            let gen_cfg = GeneratorConfig {
                num_entities: 6, // very hot
                min_locks: 3,
                max_locks: 5,
                pad_between: 4,
                ..Default::default()
            };
            let mut g = ProgramGenerator::new(gen_cfg, seed);
            let programs = g.generate_workload(DEFAULT_TXNS);
            let mut config = base_config(StrategyKind::Mcs, policy);
            config.max_steps = 200_000;
            let report = run_workload(
                &programs,
                store_with(6, 100),
                config,
                SchedulerKind::Random { seed: seed + 3000 },
            )
            .expect("workload must run");
            if report.completed {
                completed += 1.0;
            }
            maxp += f64::from(report.metrics.max_preemptions());
            lost += report.metrics.states_lost as f64;
        }
        let k = seeds as f64;
        rows.push(PolicyRow {
            policy: policy.name(),
            completion_rate: completed / k,
            max_preemptions: maxp / k,
            states_lost: lost / k,
        });
    }
    rows
}

/// One row of the Q4 clustering sweep.
#[derive(Clone, Debug)]
pub struct ClusteringRow {
    /// Write placement.
    pub clustering: String,
    /// Mean rollback overshoot under SDG.
    pub overshoot: f64,
    /// Mean states lost under SDG.
    pub states_lost: f64,
    /// Mean statically well-defined lock states per program.
    pub well_defined: f64,
}

/// **Q4 / Figure 5 — write clustering.** Clustered writes keep lock
/// states well-defined, so SDG rollbacks land near their ideal targets;
/// three-phase transactions never overshoot at all (§5).
pub fn clustering_sweep(seeds: u64) -> Vec<ClusteringRow> {
    let variants: [(&str, Clustering); 4] = [
        ("three-phase", Clustering::ThreePhase),
        ("clustered", Clustering::Clustered),
        ("spread-40%", Clustering::Spread { spread_per_mille: 400 }),
        ("spread-100%", Clustering::Spread { spread_per_mille: 1000 }),
    ];
    let mut rows = Vec::new();
    for (name, clustering) in variants {
        let mut over = 0.0;
        let mut lost = 0.0;
        let mut wd = 0.0;
        let mut programs_seen = 0usize;
        for seed in 0..seeds {
            let gen_cfg = GeneratorConfig {
                num_entities: 10,
                min_locks: 3,
                max_locks: 6,
                writes_per_entity: 2,
                pad_between: 2,
                clustering,
                ..Default::default()
            };
            let mut g = ProgramGenerator::new(gen_cfg, seed);
            let programs = g.generate_workload(DEFAULT_TXNS);
            for p in &programs {
                wd += pr_model::analysis::analyze(p).well_defined.len() as f64;
            }
            programs_seen += programs.len();
            let report = run_workload(
                &programs,
                store_with(10, 100),
                base_config(StrategyKind::Sdg, VictimPolicyKind::PartialOrder),
                SchedulerKind::Random { seed: seed + 4000 },
            )
            .expect("workload must run");
            over += report.metrics.rollback_overshoot as f64;
            lost += report.metrics.states_lost as f64;
        }
        let k = seeds as f64;
        rows.push(ClusteringRow {
            clustering: name.to_string(),
            overshoot: over / k,
            states_lost: lost / k,
            well_defined: wd / programs_seen as f64,
        });
    }
    rows
}

/// One row of the Q5 concurrency sweep.
#[derive(Clone, Debug)]
pub struct ConcurrencyRow {
    /// Concurrent transactions.
    pub txns: usize,
    /// Deadlocks per committed transaction.
    pub deadlocks_per_commit: f64,
    /// States lost per committed transaction.
    pub lost_per_commit: f64,
}

/// **Q5 — concurrency scaling.** "With the advent of new hardware
/// technologies … the amount of concurrency can be expected to rise
/// dramatically. Deadlocks will then become a more common occurrence"
/// (§1). Deadlock frequency grows superlinearly with the multiprogramming
/// level on a fixed database.
pub fn concurrency_sweep(txn_counts: &[usize], seeds: u64) -> Vec<ConcurrencyRow> {
    let mut rows = Vec::new();
    for &txns in txn_counts {
        let mut dl = 0.0;
        let mut lost = 0.0;
        let mut commits = 0.0;
        for seed in 0..seeds {
            let gen_cfg = GeneratorConfig {
                num_entities: 16,
                min_locks: 2,
                max_locks: 5,
                pad_between: 2,
                ..Default::default()
            };
            let mut g = ProgramGenerator::new(gen_cfg, seed);
            let programs = g.generate_workload(txns);
            let report = run_workload(
                &programs,
                store_with(16, 100),
                base_config(StrategyKind::Mcs, VictimPolicyKind::PartialOrder),
                SchedulerKind::Random { seed: seed + 5000 },
            )
            .expect("workload must run");
            dl += report.metrics.deadlocks as f64;
            lost += report.metrics.states_lost as f64;
            commits += report.metrics.commits as f64;
        }
        rows.push(ConcurrencyRow {
            txns,
            deadlocks_per_commit: dl / commits,
            lost_per_commit: lost / commits,
        });
    }
    rows
}

/// One row of the E1 bounded-copies sweep.
#[derive(Clone, Debug)]
pub struct BudgetRow {
    /// Strategy label (sdg, bounded-k, mcs).
    pub strategy: String,
    /// Peak local copies held system-wide.
    pub peak_copies: f64,
    /// States lost beyond ideal targets.
    pub overshoot: f64,
    /// Total states lost.
    pub states_lost: f64,
}

/// **E1 — bounded extra copies.** The paper's closing open question: "the
/// problem of determining how to allocate a bounded amount of extra
/// storage to the entities in order to maximize the number of well-defined
/// states". Sweeping the per-entity copy budget interpolates between the
/// one-copy SDG strategy and full MCS: overshoot falls monotonically as
/// the budget grows, copies rise.
pub fn budget_sweep(budgets: &[u32], seeds: u64) -> Vec<BudgetRow> {
    let mut strategies = vec![StrategyKind::Sdg];
    strategies.extend(budgets.iter().map(|&k| StrategyKind::Bounded(k)));
    strategies.push(StrategyKind::Mcs);
    let mut rows = Vec::new();
    for strategy in strategies {
        let mut copies = 0.0;
        let mut over = 0.0;
        let mut lost = 0.0;
        for seed in 0..seeds {
            let gen_cfg = GeneratorConfig {
                num_entities: 12,
                min_locks: 3,
                max_locks: 6,
                writes_per_entity: 3,
                pad_between: 2,
                clustering: Clustering::Spread { spread_per_mille: 700 },
                ..Default::default()
            };
            let mut g = ProgramGenerator::new(gen_cfg, seed);
            let programs = g.generate_workload(DEFAULT_TXNS);
            let report = run_workload(
                &programs,
                store_with(12, 100),
                base_config(strategy, VictimPolicyKind::PartialOrder),
                SchedulerKind::Random { seed: seed + 6000 },
            )
            .expect("workload must run");
            copies += report.metrics.peak_copies as f64;
            over += report.metrics.rollback_overshoot as f64;
            lost += report.metrics.states_lost as f64;
        }
        let k = seeds as f64;
        rows.push(BudgetRow {
            strategy: strategy.name(),
            peak_copies: copies / k,
            overshoot: over / k,
            states_lost: lost / k,
        });
    }
    rows
}

/// One row of the Q3 cut-set solver comparison.
#[derive(Clone, Debug)]
pub struct CutsetRow {
    /// Cycles in the synthetic instance.
    pub cycles: usize,
    /// Members per cycle.
    pub members: usize,
    /// Mean exact optimum cost (when found within budget).
    pub exact_cost: f64,
    /// Mean greedy cost.
    pub greedy_cost: f64,
    /// Fraction of instances the exact solver finished within budget.
    pub exact_solved: f64,
}

/// Generates a random cut-set instance: `cycles` cycles over a pool of
/// transactions, sharing a common hub transaction (as §3.2 guarantees:
/// all cycles pass through the causer).
///
/// Costs respect the engine's invariant that a deeper rollback never
/// costs less: each transaction gets a non-increasing cost curve over
/// target depth, and every candidate reads from it.
pub fn random_cut_instance(
    cycles: usize,
    members: usize,
    seed: u64,
) -> Vec<Vec<CandidateRollback>> {
    const DEPTHS: usize = 5;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut curves: std::collections::BTreeMap<TxnId, [u32; DEPTHS]> =
        std::collections::BTreeMap::new();
    let mut curve = |txn: TxnId, rng: &mut SmallRng| {
        *curves.entry(txn).or_insert_with(|| {
            // cost[target]: deeper targets (smaller index) cost more.
            let mut c = [0u32; DEPTHS];
            let mut acc = rng.gen_range(1..8);
            for d in (0..DEPTHS).rev() {
                c[d] = acc;
                acc += rng.gen_range(0..10);
            }
            c
        })
    };
    (0..cycles)
        .map(|c| {
            let mut cycle = Vec::with_capacity(members);
            // The hub (causer) appears in every cycle with varying depth.
            let hub = TxnId::new(0);
            let target = rng.gen_range(0..DEPTHS as u32);
            let cost = curve(hub, &mut rng)[target as usize];
            cycle.push(CandidateRollback {
                txn: hub,
                target: LockIndex::new(target),
                ideal: LockIndex::new(target),
                cost,
                conflict: StateIndex::new(target),
            });
            for m in 0..members - 1 {
                let txn = TxnId::new(1 + (c * (members - 1) + m) as u32 % 23);
                let target = rng.gen_range(0..DEPTHS as u32);
                let cost = curve(txn, &mut rng)[target as usize];
                cycle.push(CandidateRollback {
                    txn,
                    target: LockIndex::new(target),
                    ideal: LockIndex::new(target),
                    cost,
                    conflict: StateIndex::new(target),
                });
            }
            cycle
        })
        .collect()
}

/// **Q3 — cut-set optimisation.** The exact solver is feasible for the
/// cycle counts real deadlocks produce; the greedy heuristic tracks it
/// closely and never fails (§3.2's NP-completeness motivates both).
pub fn cutset_comparison(sizes: &[(usize, usize)], seeds: u64) -> Vec<CutsetRow> {
    let mut rows = Vec::new();
    for &(cycles, members) in sizes {
        let mut exact_cost = 0.0;
        let mut greedy_cost = 0.0;
        let mut solved = 0.0;
        let mut exact_n = 0.0;
        for seed in 0..seeds {
            let instance = random_cut_instance(cycles, members, seed);
            let greedy = cutset::solve_greedy(&instance);
            greedy_cost += greedy.total_cost as f64;
            if let Some(exact) = cutset::solve_exact(&instance, 2_000_000) {
                assert!(exact.total_cost <= greedy.total_cost);
                exact_cost += exact.total_cost as f64;
                exact_n += 1.0;
                solved += 1.0;
            }
        }
        rows.push(CutsetRow {
            cycles,
            members,
            exact_cost: if exact_n > 0.0 { exact_cost / exact_n } else { f64::NAN },
            greedy_cost: greedy_cost / seeds as f64,
            exact_solved: solved / seeds as f64,
        });
    }
    rows
}

/// One row of the R1 restructuring comparison.
#[derive(Clone, Debug)]
pub struct RestructureRow {
    /// Program form: original / clustered / three-phase.
    pub form: &'static str,
    /// Mean statically well-defined lock states per program.
    pub well_defined: f64,
    /// SDG rollback overshoot per run.
    pub overshoot: f64,
    /// States lost per run.
    pub states_lost: f64,
}

/// **R1 — compile-time restructuring (§5).** The paper suggests optimising
/// transactions "perhaps at the time of their compilation". Applying the
/// `pr_model::restructure` passes to a spread-write workload and running
/// the *same logical transactions* under the SDG strategy shows the
/// structural principles paying off at runtime: clustering lowers the
/// overshoot, the three-phase form eliminates it.
pub fn restructure_comparison(seeds: u64) -> Vec<RestructureRow> {
    use pr_model::restructure::{cluster_writes, hoist_locks};
    type Pass = fn(&pr_model::TransactionProgram) -> pr_model::TransactionProgram;
    let passes: [(&str, Pass); 3] = [
        ("original", |p| p.clone()),
        ("clustered", |p| cluster_writes(p)),
        ("three-phase", |p| hoist_locks(p)),
    ];
    let mut rows = Vec::new();
    for (form, pass) in passes {
        let mut wd = 0.0;
        let mut programs_seen = 0usize;
        let mut over = 0.0;
        let mut lost = 0.0;
        for seed in 0..seeds {
            let gen_cfg = GeneratorConfig {
                num_entities: 10,
                min_locks: 3,
                max_locks: 6,
                writes_per_entity: 2,
                pad_between: 2,
                clustering: Clustering::Spread { spread_per_mille: 800 },
                ..Default::default()
            };
            let mut g = ProgramGenerator::new(gen_cfg, seed);
            let programs: Vec<pr_model::TransactionProgram> =
                g.generate_workload(DEFAULT_TXNS).iter().map(&pass).collect();
            for p in &programs {
                wd += pr_model::analysis::analyze(p).well_defined.len() as f64;
            }
            programs_seen += programs.len();
            let report = run_workload(
                &programs,
                store_with(10, 100),
                base_config(StrategyKind::Sdg, VictimPolicyKind::PartialOrder),
                SchedulerKind::Random { seed: seed + 7000 },
            )
            .expect("workload must run");
            over += report.metrics.rollback_overshoot as f64;
            lost += report.metrics.states_lost as f64;
        }
        let k = seeds as f64;
        rows.push(RestructureRow {
            form,
            well_defined: wd / programs_seen as f64,
            overshoot: over / k,
            states_lost: lost / k,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_progress_total_exceeds_partial_per_deadlock() {
        let rows = lost_progress_sweep(&[8], 3);
        let get = |s: &str| rows.iter().find(|r| r.strategy == s).unwrap().cost_per_deadlock;
        let (total, mcs, sdg) = (get("total"), get("mcs"), get("sdg"));
        assert!(total > mcs, "per-deadlock: total {total} should exceed mcs {mcs}");
        assert!(total >= sdg, "per-deadlock: total {total} should be at least sdg {sdg}");
        assert!(sdg >= mcs, "sdg {sdg} overshoots at or above mcs {mcs}");
    }

    #[test]
    fn tradeoff_mcs_has_more_copies_and_no_overshoot() {
        let rows = strategy_tradeoff(3);
        let get = |s: &str| rows.iter().find(|r| r.strategy == s).unwrap().clone();
        let mcs = get("mcs");
        let sdg = get("sdg");
        let total = get("total");
        assert!(mcs.peak_copies > sdg.peak_copies, "{} vs {}", mcs.peak_copies, sdg.peak_copies);
        assert_eq!(mcs.overshoot, 0.0, "MCS reaches every ideal target");
        assert!(sdg.overshoot <= total.overshoot);
        // MCS restarts only when the ideal target is lock state 0 itself;
        // the total strategy restarts at every rollback.
        assert!(mcs.total_rollbacks <= total.total_rollbacks);
    }

    #[test]
    fn clustering_monotonically_helps() {
        let rows = clustering_sweep(3);
        let get = |s: &str| rows.iter().find(|r| r.clustering == s).unwrap().clone();
        let three = get("three-phase");
        let clustered = get("clustered");
        let spread = get("spread-100%");
        assert_eq!(three.overshoot, 0.0, "three-phase transactions never overshoot");
        assert!(clustered.overshoot <= spread.overshoot);
        assert!(clustered.well_defined > spread.well_defined);
    }

    #[test]
    fn concurrency_raises_deadlock_rate() {
        let rows = concurrency_sweep(&[4, 24], 3);
        assert!(
            rows[1].deadlocks_per_commit > rows[0].deadlocks_per_commit,
            "{} vs {}",
            rows[1].deadlocks_per_commit,
            rows[0].deadlocks_per_commit
        );
    }

    #[test]
    fn cutset_greedy_tracks_exact() {
        let rows = cutset_comparison(&[(3, 3), (6, 4)], 5);
        for r in &rows {
            assert!(r.exact_solved > 0.0);
            assert!(r.greedy_cost >= r.exact_cost);
            assert!(r.greedy_cost <= r.exact_cost * 2.0 + 20.0, "greedy within reason");
        }
    }

    #[test]
    fn restructuring_improves_runtime_behaviour() {
        let rows = restructure_comparison(3);
        let get = |f: &str| rows.iter().find(|r| r.form == f).unwrap().clone();
        let orig = get("original");
        let clustered = get("clustered");
        let three = get("three-phase");
        assert!(clustered.well_defined >= orig.well_defined);
        assert!(three.well_defined > orig.well_defined);
        assert_eq!(three.overshoot, 0.0, "three-phase transactions never overshoot");
        assert!(clustered.overshoot <= orig.overshoot);
    }

    #[test]
    fn budget_sweep_interpolates_between_sdg_and_mcs() {
        let rows = budget_sweep(&[1, 4, 16], 3);
        // Overshoot is monotonically non-increasing along the sweep
        // (sdg, bounded-1, bounded-4, bounded-16, mcs)…
        for pair in rows.windows(2) {
            assert!(
                pair[1].overshoot <= pair[0].overshoot + 1e-9,
                "overshoot must not rise with budget: {} ({}) -> {} ({})",
                pair[0].overshoot,
                pair[0].strategy,
                pair[1].overshoot,
                pair[1].strategy
            );
        }
        // …and MCS ends at zero.
        assert_eq!(rows.last().unwrap().overshoot, 0.0);
        // SDG is the budget-1 workspace: the same rollbacks, so the same
        // overshoot and states lost (only the copy unit differs).
        let sdg = rows.iter().find(|r| r.strategy == "sdg").unwrap();
        let b1 = rows.iter().find(|r| r.strategy == "bounded-1").unwrap();
        assert!(sdg.overshoot > 0.0, "the sweep must exercise overshoot");
        assert_eq!((sdg.overshoot, sdg.states_lost), (b1.overshoot, b1.states_lost));
        // Copies grow with the budget (bounded-1 vs mcs at least).
        let mcs = rows.iter().find(|r| r.strategy == "mcs").unwrap();
        assert!(mcs.peak_copies > b1.peak_copies);
    }

    #[test]
    fn policy_rows_cover_all_policies() {
        let rows = policy_comparison(2);
        assert_eq!(rows.len(), 4);
        let po = rows.iter().find(|r| r.policy == "partial-order").unwrap();
        assert_eq!(po.completion_rate, 1.0, "Theorem 2 policy always drains");
    }
}
