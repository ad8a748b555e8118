//! High-contention stress harness: open/closed-loop workload drivers
//! with Zipf-skewed entity selection, a configurable read/write mix, and
//! end-to-end transaction-latency histograms (p50/p95/p99 in engine
//! steps).
//!
//! Unlike [`crate::runner::run_workload`], which admits a fixed batch up
//! front and drains it, the stress driver models *sustained* load: a
//! closed loop keeps a fixed population of live transactions (each commit
//! admits a replacement), an open loop admits on a fixed step cadence
//! regardless of completions. Sustained load is what exposes the barging
//! starvation pathology: under a steady stream of shared requesters an
//! exclusive waiter's grant latency is unbounded under
//! [`GrantPolicy::Barging`] and bounded under [`GrantPolicy::FairQueue`].

use crate::generator::{GeneratorConfig, ProgramGenerator};
use crate::runner::store_with;
use pr_core::{
    EngineError, EntityOrder, GrantPolicy, LogHistogram, Metrics, StepOutcome, StrategyKind,
    System, SystemConfig, VictimPolicyKind,
};
use pr_model::TxnId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// How new transactions arrive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arrival {
    /// Closed loop: a fixed population of `concurrency` live transactions;
    /// every commit admits a replacement until `total_txns` have entered.
    Closed,
    /// Open loop: one admission every `every_steps` engine steps,
    /// regardless of completions (subject to `concurrency` as a cap on
    /// the live population so a saturated system queues arrivals).
    Open {
        /// Steps between admissions.
        every_steps: u64,
    },
}

/// Knobs for one stress run.
#[derive(Clone, Copy, Debug)]
pub struct StressConfig {
    /// Transactions to admit over the whole run.
    pub total_txns: usize,
    /// Live-transaction population (closed loop) or cap (open loop).
    pub concurrency: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Number of entities in the database.
    pub num_entities: u32,
    /// Zipf exponent ×100 for entity selection (0 = uniform).
    pub zipf_centi: u16,
    /// Per-mille of locks taken exclusively — the write mix.
    pub exclusive_per_mille: u16,
    /// Minimum locks per transaction.
    pub min_locks: usize,
    /// Maximum locks per transaction.
    pub max_locks: usize,
    /// Padding computations after each lock.
    pub pad_between: usize,
    /// Generate each transaction's locks in ascending entity order — the
    /// certifiable workload. Under [`GrantPolicy::Ordered`] the driver
    /// installs the identity entity order so every such transaction takes
    /// the certified no-detection fast path (transactions that are not
    /// consistent with it simply fall back to partial rollback).
    pub ordered_locks: bool,
    /// Seed for both program generation and scheduling.
    pub seed: u64,
    /// Engine configuration (strategy, victim policy, grant policy).
    pub system: SystemConfig,
    /// Every Nth admission draws a *long* transaction instead — a fixed
    /// [`Self::long_locks`]-lock program padded by [`Self::long_pad`]
    /// computations per lock. 0 disables the mix. This models the
    /// long-analytic-vs-OLTP workload where partial rollback pays off
    /// most: the long transaction is the natural deadlock victim and the
    /// natural repair beneficiary.
    pub long_every: usize,
    /// Locks per long transaction when the mix is enabled.
    pub long_locks: usize,
    /// Padding computations after each lock of a long transaction.
    pub long_pad: usize,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            total_txns: 48,
            concurrency: 16,
            arrival: Arrival::Closed,
            num_entities: 32,
            zipf_centi: 0,
            exclusive_per_mille: 700,
            min_locks: 2,
            max_locks: 4,
            pad_between: 1,
            ordered_locks: false,
            seed: 1,
            system: SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder),
            long_every: 0,
            long_locks: 8,
            long_pad: 6,
        }
    }
}

/// The read-write-skew stress shape: a small hot set read under shared
/// locks by almost everyone while a minority of writers upgrade pressure
/// keeps cycles forming. Deterministic in `seed`; deadlock and repair
/// counts for a given seed are asserted by the workload tests.
pub fn read_write_skew(strategy: StrategyKind, seed: u64) -> StressConfig {
    let mut system = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
    system.max_steps = 2_000_000;
    StressConfig {
        total_txns: 64,
        concurrency: 16,
        num_entities: 8,
        zipf_centi: 120,
        // Mostly readers; the exclusive minority supplies the write skew.
        exclusive_per_mille: 250,
        min_locks: 2,
        max_locks: 5,
        pad_between: 2,
        seed,
        system,
        ..StressConfig::default()
    }
}

/// The long-transaction-vs-OLTP mix: every fourth admission is a long
/// scan-shaped transaction (8 locks, heavy padding) running against a
/// stream of short writes. Long transactions accumulate the most states,
/// so they dominate the rollback cost — exactly where suffix repair's
/// reuse shows up. Deterministic in `seed`.
pub fn long_vs_oltp(strategy: StrategyKind, seed: u64) -> StressConfig {
    let mut system = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
    system.max_steps = 2_000_000;
    StressConfig {
        total_txns: 48,
        concurrency: 12,
        num_entities: 12,
        zipf_centi: 80,
        exclusive_per_mille: 700,
        min_locks: 2,
        max_locks: 3,
        pad_between: 1,
        seed,
        system,
        long_every: 4,
        long_locks: 8,
        long_pad: 6,
        ..StressConfig::default()
    }
}

/// Outcome of one stress run.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// Transactions committed.
    pub commits: u64,
    /// Engine steps taken.
    pub steps: u64,
    /// False if the run hit the step limit before completing.
    pub completed: bool,
    /// Admission-to-commit latency per transaction, in engine steps
    /// (includes time lost to rollbacks and re-execution).
    pub txn_latency: LogHistogram,
    /// Final engine metrics (grant latency, queue depths, resolution
    /// costs, rollback counters).
    pub metrics: Metrics,
}

/// Drives one stress run to completion (or the step limit).
pub fn run_stress(cfg: &StressConfig) -> Result<StressReport, EngineError> {
    let gen_cfg = GeneratorConfig {
        num_entities: cfg.num_entities,
        min_locks: cfg.min_locks,
        max_locks: cfg.max_locks,
        exclusive_per_mille: cfg.exclusive_per_mille,
        pad_between: cfg.pad_between,
        skew_centi: cfg.zipf_centi,
        ordered_locks: cfg.ordered_locks,
        ..GeneratorConfig::default()
    };
    let mut generator = ProgramGenerator::new(gen_cfg, cfg.seed);
    let mut long_generator = (cfg.long_every > 0).then(|| {
        let long_cfg = GeneratorConfig {
            min_locks: cfg.long_locks.max(1),
            max_locks: cfg.long_locks.max(1),
            pad_between: cfg.long_pad,
            ..gen_cfg
        };
        ProgramGenerator::new(long_cfg, cfg.seed ^ 0x5bd1_e995)
    });
    let mut sys = System::new(store_with(cfg.num_entities, 100), cfg.system);
    if cfg.system.grant_policy == GrantPolicy::Ordered {
        // The identity order is exactly what the ordered generator is
        // consistent with; non-ascending transactions stay uncovered and
        // keep the paper's partial-rollback machinery.
        sys.install_order(EntityOrder::identity(cfg.num_entities));
    }
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let total = cfg.total_txns;
    let concurrency = cfg.concurrency.max(1);
    let mut admitted = 0usize;
    let mut commits = 0u64;
    let mut started: BTreeMap<TxnId, u64> = BTreeMap::new();
    let mut latency = LogHistogram::default();
    let mut next_arrival = 0u64;
    let mut completed = true;

    let mut admit_one = |sys: &mut System,
                         started: &mut BTreeMap<TxnId, u64>,
                         admitted: &mut usize|
     -> Result<(), EngineError> {
        let program = match &mut long_generator {
            Some(lg) if (*admitted + 1).is_multiple_of(cfg.long_every) => lg.generate(),
            _ => generator.generate(),
        };
        let id = sys.admit(program)?;
        started.insert(id, sys.metrics().steps);
        *admitted += 1;
        Ok(())
    };

    loop {
        // Arrivals.
        let live = admitted - commits as usize;
        match cfg.arrival {
            Arrival::Closed => {
                for _ in live..concurrency.min(total - admitted + live) {
                    admit_one(&mut sys, &mut started, &mut admitted)?;
                }
            }
            Arrival::Open { every_steps } => {
                while admitted < total
                    && (admitted - commits as usize) < concurrency
                    && sys.metrics().steps >= next_arrival
                {
                    admit_one(&mut sys, &mut started, &mut admitted)?;
                    next_arrival = sys.metrics().steps + every_steps.max(1);
                }
            }
        }
        if commits as usize >= total {
            break;
        }
        if sys.metrics().steps >= cfg.system.max_steps {
            completed = false;
            break;
        }
        let ready = sys.ready();
        if ready.is_empty() {
            if admitted < total {
                // Open loop with everything drained before the next
                // arrival is due: admit immediately (idle fast-forward).
                admit_one(&mut sys, &mut started, &mut admitted)?;
                continue;
            }
            // Nothing runnable and nothing left to admit: the engine
            // resolves deadlocks at block time, so this is unreachable
            // short of an engine bug — surface it.
            return Err(EngineError::Stuck { blocked: sys.blocked() });
        }
        let id = ready[rng.gen_range(0..ready.len())];
        if let StepOutcome::Committed = sys.step(id)? {
            commits += 1;
            if let Some(s0) = started.remove(&id) {
                latency.record(sys.metrics().steps.saturating_sub(s0));
            }
        }
    }

    Ok(StressReport {
        commits,
        steps: sys.metrics().steps,
        completed,
        txn_latency: latency,
        metrics: sys.metrics().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_completes_and_is_deterministic() {
        let cfg = StressConfig { total_txns: 24, concurrency: 8, ..Default::default() };
        let a = run_stress(&cfg).unwrap();
        let b = run_stress(&cfg).unwrap();
        assert!(a.completed);
        assert_eq!(a.commits, 24);
        assert_eq!(a.txn_latency.count(), 24);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.txn_latency, b.txn_latency);
    }

    #[test]
    fn open_loop_admits_on_cadence() {
        let cfg = StressConfig {
            total_txns: 12,
            concurrency: 6,
            arrival: Arrival::Open { every_steps: 5 },
            ..Default::default()
        };
        let report = run_stress(&cfg).unwrap();
        assert!(report.completed);
        assert_eq!(report.commits, 12);
        // A paced system takes at least the arrival spacing per txn.
        assert!(report.steps >= 5 * 11, "steps {} too few for the cadence", report.steps);
    }

    #[test]
    fn contention_raises_latency_and_deadlocks() {
        let quiet = StressConfig {
            total_txns: 32,
            concurrency: 4,
            num_entities: 64,
            zipf_centi: 0,
            ..Default::default()
        };
        let hot = StressConfig {
            total_txns: 32,
            concurrency: 16,
            num_entities: 8,
            zipf_centi: 120,
            ..Default::default()
        };
        let q = run_stress(&quiet).unwrap();
        let h = run_stress(&hot).unwrap();
        assert!(q.completed && h.completed);
        assert!(
            h.metrics.waits > q.metrics.waits,
            "hot workload must wait more: {} vs {}",
            h.metrics.waits,
            q.metrics.waits
        );
        assert!(h.txn_latency.p95() >= q.txn_latency.p95());
    }

    #[test]
    fn both_grant_policies_complete_the_same_hot_workload() {
        for policy in GrantPolicy::ALL {
            let cfg = StressConfig {
                total_txns: 32,
                concurrency: 12,
                num_entities: 8,
                zipf_centi: 120,
                exclusive_per_mille: 300,
                system: SystemConfig::new(StrategyKind::Sdg, VictimPolicyKind::PartialOrder)
                    .with_grant_policy(policy),
                ..Default::default()
            };
            let report = run_stress(&cfg).unwrap();
            assert!(report.completed, "{policy:?}");
            assert_eq!(report.commits, 32, "{policy:?}");
        }
    }

    /// Regression for an undetected-deadlock hang: at high concurrency the
    /// fair queue's full blocker sets make the waits-for graph dense
    /// enough that the budgeted cycle enumeration can exhaust itself
    /// without finding the (real) cycle, and since detection only runs at
    /// block time the deadlock was never seen again — the whole system
    /// wedged with every transaction blocked. The reachability fallback in
    /// `pr_graph::cycles` now guarantees at least one cycle is found.
    /// This configuration (64-deep closed loop, Zipf 0.8, fair queue)
    /// reproduced the hang deterministically.
    #[test]
    fn dense_fair_queue_waits_still_resolve() {
        let mut system = SystemConfig::new(StrategyKind::Total, VictimPolicyKind::PartialOrder)
            .with_grant_policy(GrantPolicy::FairQueue);
        system.max_steps = 2_000_000;
        let cfg = StressConfig {
            total_txns: 96,
            concurrency: 64,
            zipf_centi: 80,
            seed: 1,
            system,
            ..StressConfig::default()
        };
        let report = run_stress(&cfg).unwrap();
        assert!(report.completed);
        assert_eq!(report.commits, 96);
        assert!(report.metrics.deadlocks > 0, "the hot cell must actually hit deadlocks");
    }

    #[test]
    fn ordered_stress_takes_the_fast_path_end_to_end() {
        let cfg = StressConfig {
            total_txns: 48,
            concurrency: 16,
            num_entities: 8,
            zipf_centi: 120,
            ordered_locks: true,
            system: SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
                .with_grant_policy(GrantPolicy::Ordered),
            ..Default::default()
        };
        let report = run_stress(&cfg).unwrap();
        assert!(report.completed);
        assert_eq!(report.commits, 48);
        assert_eq!(report.metrics.deadlocks, 0);
        assert_eq!(report.metrics.rollbacks(), 0);
        assert!(report.metrics.waits > 0, "the hot cell must actually contend");
        assert_eq!(
            report.metrics.certified_waits, report.metrics.waits,
            "every wait of a fully covered workload must skip detection"
        );
    }

    #[test]
    fn unordered_stress_under_ordered_policy_falls_back() {
        // Same hot cell, but the generator ignores the global order: most
        // transactions are uncovered, deadlocks happen, and partial
        // rollback resolves them — Ordered must not wedge or miss them.
        let cfg = StressConfig {
            total_txns: 48,
            concurrency: 16,
            num_entities: 8,
            zipf_centi: 120,
            ordered_locks: false,
            system: SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
                .with_grant_policy(GrantPolicy::Ordered),
            ..Default::default()
        };
        let report = run_stress(&cfg).unwrap();
        assert!(report.completed);
        assert_eq!(report.commits, 48);
        assert!(report.metrics.deadlocks > 0, "the uncovered hot cell must deadlock");
    }

    #[test]
    fn read_write_skew_repairs_deterministically() {
        let cfg = read_write_skew(StrategyKind::Repair, 7);
        let a = run_stress(&cfg).unwrap();
        let b = run_stress(&cfg).unwrap();
        assert_eq!(a.metrics, b.metrics, "the workload must be deterministic in its seed");
        assert!(a.completed);
        assert_eq!(a.commits, 64);
        assert!(a.metrics.deadlocks > 0, "the skewed hot set must deadlock");
        assert_eq!(a.metrics.repairs, a.metrics.rollbacks());
        assert!(a.metrics.repairs > 0);
        assert_eq!(a.metrics.repair_suffix.sum(), a.metrics.states_lost);
        assert_eq!(a.metrics.ops_replayed + a.metrics.ops_reused, a.metrics.states_lost);
    }

    #[test]
    fn long_vs_oltp_mix_repairs_like_mcs() {
        for policy in GrantPolicy::ALL {
            let run = |strategy| {
                let mut cfg = long_vs_oltp(strategy, 11);
                cfg.system.grant_policy = policy;
                run_stress(&cfg).unwrap()
            };
            let (repair, mcs) = (run(StrategyKind::Repair), run(StrategyKind::Mcs));
            assert!(repair.completed && mcs.completed, "{policy:?}");
            assert_eq!(repair.commits, 48, "{policy:?}");
            assert!(repair.metrics.deadlocks > 0, "{policy:?}: the mix must deadlock");
            // Repair plans exactly like MCS and the driver is deterministic in
            // its seed, so both runs walk the same schedule step for step.
            assert_eq!(repair.steps, mcs.steps, "{policy:?}");
            assert_eq!(repair.metrics.deadlocks, mcs.metrics.deadlocks, "{policy:?}");
            assert_eq!(repair.metrics.states_lost, mcs.metrics.states_lost, "{policy:?}");
            assert_eq!(
                repair.metrics.ops_replayed + repair.metrics.ops_reused,
                repair.metrics.states_lost,
                "{policy:?}"
            );
            assert!(repair.metrics.ops_reused > 0, "{policy:?}: long victims must reuse work");
            assert_eq!(mcs.metrics.ops_replayed + mcs.metrics.ops_reused, 0, "{policy:?}");
        }
    }
}
