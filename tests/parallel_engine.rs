//! Integration tests for the multi-threaded engine (`pr-par`) and its
//! differential serializability oracle.
//!
//! On a box with few cores a short transaction runs to completion inside
//! one scheduling quantum, so opposed lock orders never actually
//! interleave and the deadlock resolver never fires. These tests stretch
//! the window between a transaction's first and second lock with compute
//! padding, which makes OS preemption mid-window (and therefore real
//! cross-thread deadlocks) overwhelmingly likely even on one CPU.

use partial_rollback::core::StrategyKind;
use partial_rollback::par::ParError;
use partial_rollback::prelude::*;
use partial_rollback::sim::generator::{GeneratorConfig, ProgramGenerator};
use partial_rollback::sim::oracle::{check_outcome, check_server_history};
use partial_rollback::sim::runner::store_with;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serialises this file's tests: each runs engine threads that must
/// interleave to form real deadlocks, and the harness's parallel test
/// threads would otherwise take the cores they need.
fn cores() -> MutexGuard<'static, ()> {
    static CORES: Mutex<()> = Mutex::new(());
    CORES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Two-entity transfer locking in the given order, with `pad` compute
/// operations between the two lock acquisitions.
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

fn par_config(threads: usize, strategy: StrategyKind) -> ParConfig {
    ParConfig {
        threads,
        shards: 4,
        system: SystemConfig::new(strategy, VictimPolicyKind::PartialOrder),
        fast_path: true,
    }
}

/// Asserts every accounting identity a run must satisfy, per victim, not
/// just in aggregate. The per-victim form is the **double-counted retry
/// regression**: when a rolled-back victim's thread wakes and retries its
/// lock, the retry must not re-record the preemption or the lost states —
/// a double count on one victim cannot hide behind an aggregate sum if
/// another victim's count went missing.
fn assert_accounting(out: &ParOutcome) {
    let per_txn_lost: u64 = out.per_txn.iter().map(|t| t.states_lost).sum();
    assert_eq!(
        out.metrics.states_lost, per_txn_lost,
        "metrics.states_lost must equal the per-victim ledger sum"
    );
    assert_eq!(
        out.metrics.resolution_cost.sum(),
        per_txn_lost,
        "deadlock-resolution cost histogram must sum to the states lost by victims"
    );
    assert_eq!(
        out.metrics.resolution_cost.count(),
        out.metrics.deadlocks,
        "one resolution-cost sample per resolved deadlock"
    );
    for t in &out.per_txn {
        let recorded = out.metrics.preemptions.get(&t.id).copied().unwrap_or(0);
        assert_eq!(
            recorded, t.preemptions,
            "{}: metrics say {recorded} preemptions, runtime ledger says {}",
            t.id, t.preemptions
        );
    }
    let rollbacks = out.metrics.total_rollbacks + out.metrics.partial_rollbacks;
    let preemptions: u64 = out.per_txn.iter().map(|t| u64::from(t.preemptions)).sum();
    assert_eq!(preemptions, rollbacks, "every preemption is exactly one rollback");
}

/// Satellite check: a 4-thread run with real cross-thread deadlocks must
/// reconcile the per-deadlock resolution costs with the sum of per-victim
/// `states_lost`, including when a victim is preempted more than once
/// (the retry path).
#[test]
fn four_thread_resolution_costs_match_victim_ledgers() {
    let _cores = cores();
    let e = EntityId::new;
    let mut total_deadlocks = 0u64;
    let mut saw_repeat_victim = false;
    // The pad must outlast worker start-up skew in a cold process, or the
    // first worker drains the batch alone; sized for a ~100 ns step.
    const PAD: usize = 8_000;
    let programs: Vec<TransactionProgram> = (0..16)
        .map(|i| match i % 2 {
            0 => padded_transfer(e(0), e(1), 1, PAD),
            _ => padded_transfer(e(1), e(0), 1, PAD),
        })
        .collect();
    // At least 12 rounds; past them, only until the first deadlock (a
    // slow scheduler forms few), up to a cap.
    let mut round = 0;
    while round < 12 || (total_deadlocks == 0 && round < 500) {
        let store = GlobalStore::with_entities(2, Value::new(50));
        let out = run_parallel(&programs, store, &par_config(4, StrategyKind::Mcs))
            .unwrap_or_else(|err| panic!("round {round}: {err}"));
        assert_eq!(out.commits(), 16);
        // Transfers conserve the total under any resolution order.
        let total: i64 = out.snapshot.iter().map(|(_, v)| v.raw()).sum();
        assert_eq!(total, 100, "round {round}");

        assert_accounting(&out);
        assert_eq!(out.metrics.resolution_cost.count(), out.metrics.deadlocks);

        total_deadlocks += out.metrics.deadlocks;
        saw_repeat_victim |= out.per_txn.iter().any(|t| t.preemptions >= 2);
        // Enough evidence: real deadlocks and at least one retried victim.
        if total_deadlocks >= 4 && saw_repeat_victim {
            return;
        }
        round += 1;
    }
    eprintln!("{total_deadlocks} deadlocks in {round} rounds");
    assert!(
        total_deadlocks > 0,
        "padded opposed transfers never deadlocked — the resolver was not exercised"
    );
}

/// Every strategy × grant-policy combination survives a padded
/// deadlock-heavy generator workload on 4 threads, and the differential
/// oracle (conflict-graph acyclicity + accounting + snapshot equality
/// against a deterministic engine run) signs off on each run.
#[test]
fn oracle_signs_off_threaded_generator_runs() {
    let _cores = cores();
    let strategies = [StrategyKind::Total, StrategyKind::Mcs, StrategyKind::Sdg];
    let policies = [GrantPolicy::Barging, GrantPolicy::FairQueue];
    for (i, (&strategy, &policy)) in
        strategies.iter().flat_map(|s| policies.iter().map(move |p| (s, p))).enumerate()
    {
        let seed = 7_000 + i as u64;
        let generator_config =
            GeneratorConfig { num_entities: 12, pad_between: 300, ..GeneratorConfig::default() };
        let mut generator = ProgramGenerator::new(generator_config, seed);
        let programs = generator.generate_workload(12);

        let mut system = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
        system.grant_policy = policy;
        let config = ParConfig { threads: 4, shards: 0, system, fast_path: true };
        let outcome = run_parallel(&programs, store_with(12, 100), &config)
            .unwrap_or_else(|err| panic!("{strategy:?}/{policy:?}: {err}"));
        assert_accounting(&outcome);

        let report = check_outcome(&programs, &store_with(12, 100), &system, &outcome)
            .unwrap_or_else(|v| panic!("{strategy:?}/{policy:?}: oracle violation: {v}"));
        assert_eq!(report.txns, 12);
        assert!(report.accesses > 0);
    }
}

/// A certified (ascending acquisition order) workload on real threads
/// under `GrantPolicy::Ordered`: no interleaving can deadlock, so the
/// resolver must never fire, and the differential oracle must still sign
/// off on the threaded run. This is the parallel half of the orderability
/// prover's claim — the deterministic engine proves 0 deadlocks by
/// enumeration (`pr-explore`), the threaded engine checks it under OS
/// scheduling.
#[test]
fn certified_workload_on_threads_never_deadlocks() {
    let _cores = cores();
    for strategy in [StrategyKind::Total, StrategyKind::Mcs, StrategyKind::Sdg] {
        let generator_config = GeneratorConfig {
            num_entities: 12,
            pad_between: 300,
            ordered_locks: true,
            ..GeneratorConfig::default()
        };
        let mut generator = ProgramGenerator::new(generator_config, 4_242);
        let programs = generator.generate_workload(12);

        let mut system = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
        system.grant_policy = GrantPolicy::Ordered;
        let config = ParConfig { threads: 4, shards: 0, system, fast_path: true };
        let outcome = run_parallel(&programs, store_with(12, 100), &config)
            .unwrap_or_else(|err| panic!("{strategy:?}: {err}"));
        assert_eq!(outcome.commits(), 12, "{strategy:?}");
        assert_eq!(outcome.metrics.deadlocks, 0, "{strategy:?}: ordered workload deadlocked");
        assert_eq!(
            outcome.metrics.total_rollbacks + outcome.metrics.partial_rollbacks,
            0,
            "{strategy:?}: nothing may be rolled back without a deadlock"
        );
        assert_accounting(&outcome);
        check_outcome(&programs, &store_with(12, 100), &system, &outcome)
            .unwrap_or_else(|v| panic!("{strategy:?}: oracle violation: {v}"));
    }
}

/// Dense cycles on 8 threads: one session per strategy runs at least 40
/// batches, each mixing a three-way cycle (`a → b`, `b → c`, `c → a`) with
/// opposed transfers over the same 3 entities, so resolvers keep competing
/// for overlapping slots. Every transaction must commit, totals must be
/// conserved, and the concatenated history must pass the server oracle.
#[test]
fn dense_cycles_on_eight_threads_resolve_in_one_session() {
    let _cores = cores();
    let e = EntityId::new;
    // Sized like the four-thread test's pad, for the same start-up skew.
    const PAD: usize = 8_000;
    // The batch for each rotation of the three entities, built once: the
    // programs share their operations, so a long session stays small.
    let batches: Vec<Vec<TransactionProgram>> = (0..3)
        .map(|r| {
            let rotate = |i: u32| e((i + r) % 3);
            let mut ops: Vec<TransactionProgram> =
                (0..3).map(|i| padded_transfer(rotate(i), rotate(i + 1), 1, PAD)).collect();
            for _ in 0..2 {
                ops.push(padded_transfer(rotate(0), rotate(1), 2, PAD));
                ops.push(padded_transfer(rotate(1), rotate(0), 3, PAD));
            }
            ops
        })
        .collect();
    for strategy in StrategyKind::ALL {
        let store = GlobalStore::with_entities(3, Value::new(100));
        let config = par_config(8, strategy);
        let mut session = Session::new(&store, config.clone());
        let (mut programs, mut accesses, mut deadlocks) = (Vec::new(), Vec::new(), 0);
        // At least 40 batches; past them, only until the session's first
        // deadlock (a slow scheduler forms few), up to a cap.
        let mut batch = 0;
        while batch < 40 || (deadlocks == 0 && batch < 2_000) {
            let ops = &batches[batch % 3];
            let out = session
                .execute(ops)
                .unwrap_or_else(|err| panic!("{strategy:?} batch {batch}: {err}"));
            assert_eq!(out.commits(), ops.len(), "{strategy:?} batch {batch}");
            assert_accounting(&out);
            let total: i64 = out.snapshot.iter().map(|(_, v)| v.raw()).sum();
            assert_eq!(total, 300, "{strategy:?} batch {batch}: transfers conserve the total");
            deadlocks += out.metrics.deadlocks;
            programs.extend_from_slice(ops);
            accesses.extend(out.accesses);
            batch += 1;
        }
        eprintln!("{strategy:?}: {deadlocks} deadlocks in {batch} batches");
        assert!(deadlocks > 0, "{strategy:?}: dense cycles never deadlocked");
        check_server_history(&programs, &store, &config.system, &accesses, &session.snapshot())
            .unwrap_or_else(|v| panic!("{strategy:?}: oracle violation: {v}"));
        session.finish().unwrap();
    }
}

/// A parked waiter is woken only to run. 64 padded increments of one
/// entity on 8 threads cannot deadlock, so every wait must end in exactly
/// one wake — its promotion — under both grant policies, with the fast
/// path on and off: a releaser re-points the rest of the queue silently.
#[test]
fn each_wait_on_a_hot_entity_ends_in_one_promotion_wake() {
    let _cores = cores();
    let a = EntityId::new(0);
    let v = VarId::new(0);
    // Sized like the other tests' pads, so the lock is held long enough
    // for waiters to queue behind it.
    const PAD: usize = 8_000;
    let mut ops = vec![Op::LockExclusive(a), Op::Read { entity: a, into: v }];
    ops.extend((0..PAD).map(|_| Op::Compute(Expr::add(Expr::var(v), Expr::lit(1)))));
    ops.push(Op::Assign { var: v, expr: Expr::add(Expr::var(v), Expr::lit(1)) });
    ops.push(Op::Write { entity: a, expr: Expr::var(v) });
    ops.push(Op::Commit);
    let programs = vec![TransactionProgram::try_from(ops).unwrap(); 64];
    for policy in GrantPolicy::ALL {
        for fast_path in [true, false] {
            let mut system = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
            system.grant_policy = policy;
            let config = ParConfig { threads: 8, shards: 4, system, fast_path };
            let case = format!("{} / fast path {fast_path}", policy.name());
            // Until some run has queued a waiter (a slow scheduler may
            // serialise one), up to a cap.
            let (mut runs, mut waits) = (0, 0);
            while waits == 0 && runs < 20 {
                let out = run_parallel(&programs, store_with(1, 0), &config)
                    .unwrap_or_else(|err| panic!("{case}: {err}"));
                assert_eq!(out.snapshot.get(a), Some(Value::new(64)), "{case}");
                let m = &out.metrics;
                assert_eq!(m.deadlocks, 0, "{case}: one entity cannot deadlock");
                assert_eq!(m.wakes, m.waits, "{case}: wakes beyond one promotion per wait");
                waits = m.waits;
                runs += 1;
            }
            eprintln!("{case}: {waits} waits in run {runs}");
            assert!(waits > 0, "{case}: no waiter ever queued");
        }
    }
}

/// A failing transaction stops its batch at once. The holder of `a` runs
/// past a program with no `COMMIT` while three increments are parked
/// behind it; the failing worker wakes every slot, so the run returns the
/// holder's `MissingOp` well inside the watchdog, not `Stuck` after it.
#[test]
fn a_failing_holder_stops_its_parked_waiters_at_once() {
    let _cores = cores();
    let a = EntityId::new(0);
    let v = VarId::new(0);
    // The holder's pad gives the waiters time to queue and park.
    const PAD: usize = 100_000;
    let mut ops = vec![Op::LockExclusive(a)];
    ops.extend((0..PAD).map(|_| Op::Compute(Expr::lit(0))));
    let end = ops.len();
    let holder = TransactionProgram::from_parts(ops, vec![]);
    let increment = TransactionProgram::try_from(vec![
        Op::LockExclusive(a),
        Op::Read { entity: a, into: v },
        Op::Write { entity: a, expr: Expr::add(Expr::var(v), Expr::lit(1)) },
        Op::Commit,
    ])
    .unwrap();
    let mut programs = vec![holder];
    programs.extend(std::iter::repeat_n(increment, 3));
    let started = Instant::now();
    let err = run_parallel(&programs, store_with(1, 0), &par_config(4, StrategyKind::Mcs))
        .expect_err("a program without COMMIT fails the batch");
    let took = started.elapsed();
    assert_eq!(err, ParError::MissingOp { txn: TxnId::new(1), pc: end });
    assert!(took < Duration::from_secs(1), "the batch took {took:?} to stop");
}

/// The stamped access history orders conflicting grants: stamps are
/// globally unique and, per entity, conflicting accesses carry strictly
/// increasing stamps that agree with commit-time value flow.
#[test]
fn access_stamps_are_unique_and_ordered() {
    let _cores = cores();
    let e = EntityId::new;
    let programs: Vec<TransactionProgram> =
        (0..12).map(|_| padded_transfer(e(0), e(1), 1, 500)).collect();
    let store = GlobalStore::with_entities(2, Value::new(10));
    let out = run_parallel(&programs, store, &par_config(4, StrategyKind::Sdg)).unwrap();
    let mut stamps: Vec<u64> = out.accesses.iter().map(|a| a.stamp).collect();
    let n = stamps.len();
    stamps.sort_unstable();
    stamps.dedup();
    assert_eq!(stamps.len(), n, "grant stamps must be globally unique");
    assert_eq!(out.accesses.len(), 24, "two committed lock states per transaction");
}
