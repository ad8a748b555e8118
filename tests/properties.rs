//! Property-based tests over the core invariants.
//!
//! The crown jewel is **replay equivalence**: executing a transaction,
//! rolling it back to any strategy-reachable lock state, and re-executing
//! must produce exactly the same final values as an uninterrupted run —
//! for the one workspace at each copy budget the strategies give it:
//! unbounded (MCS), one copy (SDG) and `k` copies (bounded). This is the
//! §2/§4 correctness contract of the rollback operation itself. Along the
//! way the workspace's own account of which lock states it can restore is
//! checked against the static analysis of the executed prefix.

use partial_rollback::core::runtime::TxnRuntime;
use partial_rollback::core::StrategyKind;
use partial_rollback::graph::articulation::well_defined_by_articulation;
use partial_rollback::model::analysis::{self, ProgramAnalysis, WriteEdge};
use partial_rollback::prelude::*;
use partial_rollback::sim::generator::{Clustering, GeneratorConfig, ProgramGenerator};
use partial_rollback::storage::StorageError;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A deterministic "global value" for each entity, so replays are
/// comparable.
fn global_of(e: EntityId) -> Value {
    Value::new(1_000 + i64::from(e.raw()))
}

/// Executes ops `[from, to)` of a solo transaction against its runtime
/// (all lock requests trivially granted).
fn execute_range(rt: &mut TxnRuntime, program: &TransactionProgram, from: usize, to: usize) {
    let mut pc = from;
    while pc < to {
        let op = program.op(pc).expect("in range").clone();
        match op {
            Op::LockShared(e) => rt.complete_lock(e, LockMode::Shared, global_of(e)),
            Op::LockExclusive(e) => rt.complete_lock(e, LockMode::Exclusive, global_of(e)),
            Op::Unlock(e) => {
                rt.complete_unlock(e);
            }
            Op::Read { entity, into } => {
                let v = rt.read_entity(entity, global_of(entity));
                rt.assign_var(into, v).unwrap();
            }
            Op::Write { entity, expr } => {
                let v = expr.eval(rt.workspace.vars());
                rt.write_entity(entity, v).unwrap();
            }
            Op::Assign { var, expr } => {
                let v = expr.eval(rt.workspace.vars());
                rt.assign_var(var, v).unwrap();
            }
            Op::Compute(expr) => {
                let _ = expr.eval(rt.workspace.vars());
                rt.advance();
            }
            Op::Commit => rt.advance(),
        }
        pc = rt.pc;
    }
}

/// The write edges the SDG's one copy per stack leaves once the writes
/// of lock index `<= p` have run: the static edges with `w <= p`.
fn sdg_edges(a: &ProgramAnalysis, p: u32) -> Vec<WriteEdge> {
    a.edges.iter().copied().filter(|e| e.w <= p).collect()
}

/// The write edges a budget of `k` copies per stack leaves once the
/// writes of lock index `<= p` have run. A stack keeps copies for its
/// object's last `k` distinct write lock indices, so the evicted values
/// span from the object's restorability index `u` to its oldest kept
/// copy: the edge `{u, w}` with `w` the `k`-th last write index. The
/// analysis lists one edge per writing op in program order, which names
/// each edge's object.
fn budget_edges(
    program: &TransactionProgram,
    a: &ProgramAnalysis,
    k: usize,
    p: u32,
) -> Vec<WriteEdge> {
    let objects = program.ops().iter().filter_map(|op| match *op {
        Op::Write { entity, .. } => Some(Ok(entity)),
        Op::Read { into, .. } | Op::Assign { var: into, .. } => Some(Err(into)),
        _ => None,
    });
    let mut writes: BTreeMap<Result<EntityId, VarId>, Vec<WriteEdge>> = BTreeMap::new();
    for (object, &edge) in objects.zip(&a.edges).filter(|(_, e)| e.w <= p) {
        writes.entry(object).or_default().push(edge);
    }
    let evicted = |edges: &Vec<WriteEdge>| {
        let mut ws: Vec<u32> = edges.iter().map(|e| e.w).collect();
        ws.dedup();
        (ws.len() > k).then(|| WriteEdge { u: edges[0].u, w: ws[ws.len() - k] })
    };
    writes.values().filter_map(evicted).collect()
}

/// Asserts that the workspace's deepest restorable lock state at every
/// `q` up to the current lock index `p` is the one Theorem 4 gives for
/// `model(p)`, the edges left by the writes executed so far. Valid only
/// between operations of lock index `p` and lock request `p`, when exactly
/// those writes have run.
fn check_reachability(
    rt: &TxnRuntime,
    model: &impl Fn(u32) -> Vec<WriteEdge>,
) -> Result<(), TestCaseError> {
    let p = rt.lock_index().raw();
    let well_defined = analysis::well_defined_states(p, &model(p));
    for q in 0..=p {
        let want = well_defined.iter().rev().find(|&&s| s <= q).copied();
        let got = rt.workspace.deepest_restorable(LockIndex::new(q)).raw();
        prop_assert_eq!(Some(got), want, "q {} at lock index {}", q, p);
    }
    Ok(())
}

/// [`execute_range`], checking reachability before every lock request
/// and before `COMMIT` — the points where all writes of the current lock
/// index have run.
fn execute_checked(
    rt: &mut TxnRuntime,
    program: &TransactionProgram,
    model: &impl Fn(u32) -> Vec<WriteEdge>,
    from: usize,
    to: usize,
) -> Result<(), TestCaseError> {
    let mut pc = from;
    loop {
        if matches!(program.op(pc), Some(Op::LockShared(_) | Op::LockExclusive(_) | Op::Commit)) {
            check_reachability(rt, model)?;
        }
        if pc == to {
            return Ok(());
        }
        execute_range(rt, program, pc, pc + 1);
        pc = rt.pc;
    }
}

/// Snapshot of a runtime's observable data state: every held entity's
/// local view plus all locals.
fn observable(
    rt: &TxnRuntime,
    program: &TransactionProgram,
) -> (Vec<(EntityId, Value)>, Vec<Value>) {
    let mut entities = Vec::new();
    for e in program.locked_entities() {
        if rt.held.contains(&e) {
            entities.push((e, rt.read_entity(e, global_of(e))));
        }
    }
    (entities, rt.workspace.vars().to_vec())
}

fn generator_strategy() -> impl Strategy<Value = (u64, u8, u16)> {
    (0u64..5_000, 0u8..3, 0u16..=1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay equivalence for MCS: rollback to ANY lock state, then
    /// re-execute — the observable state at every subsequent point matches
    /// an uninterrupted execution.
    #[test]
    fn mcs_rollback_replay_equivalence((seed, _, spread) in generator_strategy()) {
        let cfg = GeneratorConfig {
            num_entities: 8,
            min_locks: 2,
            max_locks: 6,
            writes_per_entity: 2,
            pad_between: 1,
            clustering: Clustering::Spread { spread_per_mille: spread },
            explicit_unlocks: false,
            ..Default::default()
        };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let arc = Arc::new(program.clone());
        let end = program.len() - 1; // stop before COMMIT

        // Uninterrupted reference run.
        let mut reference = TxnRuntime::new(TxnId::new(1), arc.clone(), 0, StrategyKind::Mcs);
        execute_range(&mut reference, &program, 0, end);
        let want = observable(&reference, &program);

        // Interrupted runs: every rollback target.
        let n_locks = program.num_lock_requests();
        for target in 0..n_locks as u32 {
            let mut rt = TxnRuntime::new(TxnId::new(1), arc.clone(), 0, StrategyKind::Mcs);
            execute_range(&mut rt, &program, 0, end);
            rt.rollback_to(LockIndex::new(target)).unwrap();
            let resume = rt.pc;
            execute_range(&mut rt, &program, resume, end);
            let got = observable(&rt, &program);
            prop_assert_eq!(&got, &want, "target {}", target);
        }
    }

    /// Replay equivalence for the single-copy workspace: rollback to any
    /// *well-defined* lock state must succeed and replay identically, also
    /// after a second rollback nested in the replay; rollback to an
    /// undefined state must fail without corrupting it. The workspace's
    /// reachable targets match the static analysis at every lock index.
    #[test]
    fn sdg_rollback_replay_equivalence((seed, _, spread) in generator_strategy()) {
        let cfg = GeneratorConfig {
            num_entities: 8,
            min_locks: 2,
            max_locks: 6,
            writes_per_entity: 2,
            pad_between: 1,
            clustering: Clustering::Spread { spread_per_mille: spread },
            explicit_unlocks: false,
            ..Default::default()
        };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let arc = Arc::new(program.clone());
        let end = program.len() - 1;
        let a = analysis::analyze(&program);
        let model = |p| sdg_edges(&a, p);

        let mut reference = TxnRuntime::new(TxnId::new(1), arc.clone(), 0, StrategyKind::Sdg);
        execute_checked(&mut reference, &program, &model, 0, end)?;
        let want = observable(&reference, &program);

        for target in 0..program.num_lock_requests() as u32 {
            let mut rt = TxnRuntime::new(TxnId::new(1), arc.clone(), 0, StrategyKind::Sdg);
            execute_range(&mut rt, &program, 0, end);
            let result = rt.rollback_to(LockIndex::new(target));
            if !a.is_well_defined(target) {
                prop_assert!(result.is_err(), "undefined target {} must be rejected", target);
                continue;
            }
            prop_assert!(result.is_ok(), "well-defined target {} must be reachable", target);
            // Replay half the lost suffix, then roll back again, below
            // wherever the replayed writes left the deepest restorable
            // state.
            let resume = rt.pc;
            let mid = (resume + end) / 2;
            execute_checked(&mut rt, &program, &model, resume, mid)?;
            let nested = rt.reachable_target(StrategyKind::Sdg, LockIndex::new(target / 2));
            prop_assert!(rt.rollback_to(nested).is_ok(), "nested target {:?}", nested);
            let resume = rt.pc;
            execute_checked(&mut rt, &program, &model, resume, end)?;
            let got = observable(&rt, &program);
            prop_assert_eq!(&got, &want, "target {}", target);
        }
    }

    /// Replay equivalence for the bounded-copy workspace (the paper's
    /// closing extension): rollback to any state its stacks can restore
    /// must replay identically, and rollback into an evicted interval must
    /// be refused. Which states the stacks can restore matches, at every
    /// lock index, the static analysis with each object's copies capped at
    /// the budget; a large budget keeps every lock state restorable
    /// (degenerating to full MCS).
    #[test]
    fn bounded_rollback_replay_equivalence((seed, _, spread) in generator_strategy()) {
        let cfg = GeneratorConfig {
            num_entities: 8,
            min_locks: 2,
            max_locks: 6,
            writes_per_entity: 3,
            pad_between: 1,
            clustering: Clustering::Spread { spread_per_mille: spread },
            explicit_unlocks: false,
            ..Default::default()
        };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let arc = Arc::new(program.clone());
        let end = program.len() - 1;
        let a = analysis::analyze(&program);

        for budget in [1u32, 2, 100] {
            let strategy = StrategyKind::Bounded(budget);
            let model = |p| budget_edges(&program, &a, budget as usize, p);
            let mut reference = TxnRuntime::new(TxnId::new(1), arc.clone(), 0, strategy);
            execute_checked(&mut reference, &program, &model, 0, end)?;
            let want = observable(&reference, &program);

            for target in 0..program.num_lock_requests() as u32 {
                let mut rt = TxnRuntime::new(TxnId::new(1), arc.clone(), 0, strategy);
                execute_range(&mut rt, &program, 0, end);
                let target = LockIndex::new(target);
                if rt.workspace.deepest_restorable(target) != target {
                    // Evicted interval: the engine never aims here, and
                    // the workspace refuses it.
                    let refused = rt.rollback_to(target);
                    prop_assert!(
                        matches!(
                            refused,
                            Err(StorageError::NotRestorable { .. }
                                | StorageError::VarNotRestorable { .. })
                        ),
                        "budget {} target {:?}: {:?}", budget, target, refused
                    );
                    prop_assert_eq!(observable(&rt, &program), want.clone());
                    continue;
                }
                rt.rollback_to(target).unwrap();
                let resume = rt.pc;
                execute_range(&mut rt, &program, resume, end);
                let got = observable(&rt, &program);
                prop_assert_eq!(&got, &want, "budget {} target {:?}", budget, target);
                // The replay re-evicts what the uninterrupted run evicted.
                for q in 0..=program.num_lock_requests() as u32 {
                    let q = LockIndex::new(q);
                    prop_assert_eq!(
                        rt.workspace.deepest_restorable(q),
                        reference.workspace.deepest_restorable(q)
                    );
                }
            }
        }
    }

    /// Theorem 4 / Corollary 1: interval and articulation-point
    /// characterisations agree on arbitrary edge sets.
    #[test]
    fn interval_and_articulation_agree(
        n in 1u32..20,
        raw_edges in prop::collection::vec((0u32..20, 0u32..20), 0..12),
    ) {
        let edges: Vec<WriteEdge> = raw_edges
            .iter()
            .map(|&(a, b)| WriteEdge { u: a.min(b) % n, w: (a.max(b) % (n + 1)).max(a.min(b) % n) })
            .collect();
        let interval: Vec<u32> = analysis::well_defined_states(n, &edges);
        let pairs: Vec<(u32, u32)> = edges.iter().map(|e| (e.u, e.w)).collect();
        let artic: Vec<u32> = well_defined_by_articulation(n, &pairs)
            .into_iter()
            .map(LockIndex::raw)
            .collect();
        prop_assert_eq!(interval, artic);
    }

    /// Theorem 3: MCS copy counts never exceed `n(n+1)/2 + n·|L|`.
    #[test]
    fn theorem3_bound_holds_for_random_programs((seed, _, spread) in generator_strategy()) {
        let cfg = GeneratorConfig {
            num_entities: 10,
            min_locks: 2,
            max_locks: 8,
            writes_per_entity: 3,
            clustering: Clustering::Spread { spread_per_mille: spread },
            explicit_unlocks: false,
            ..Default::default()
        };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let arc = Arc::new(program.clone());
        let mut rt = TxnRuntime::new(TxnId::new(1), arc, 0, StrategyKind::Mcs);
        execute_range(&mut rt, &program, 0, program.len() - 1);
        let n = program.num_lock_requests();
        let l = program.num_vars();
        let bound = n * (n + 1) / 2 + n * l;
        prop_assert!(rt.copies() <= bound, "copies {} > bound {}", rt.copies(), bound);
    }

    /// Generated programs always validate.
    #[test]
    fn generated_programs_validate((seed, cl, spread) in generator_strategy()) {
        let clustering = match cl {
            0 => Clustering::Clustered,
            1 => Clustering::Spread { spread_per_mille: spread },
            _ => Clustering::ThreePhase,
        };
        let cfg = GeneratorConfig { clustering, ..Default::default() };
        let program = ProgramGenerator::new(cfg, seed).generate();
        prop_assert!(partial_rollback::model::validate::is_valid(&program));
    }

    /// The cost function is monotone: deeper rollback targets never cost
    /// less (the assumption the cut-set merge relies on).
    #[test]
    fn rollback_cost_is_monotone_in_depth((seed, _, _) in generator_strategy()) {
        let cfg = GeneratorConfig { min_locks: 3, max_locks: 7, ..Default::default() };
        let program = ProgramGenerator::new(cfg, seed).generate();
        let arc = Arc::new(program.clone());
        let mut rt = TxnRuntime::new(TxnId::new(1), arc, 0, StrategyKind::Mcs);
        // Execute the growing phase only.
        let first_unlock = program
            .ops()
            .iter()
            .position(|op| matches!(op, Op::Unlock(_)))
            .unwrap_or(program.len() - 1);
        execute_range(&mut rt, &program, 0, first_unlock);
        let mut prev = u32::MAX;
        for k in 0..rt.lock_states.len() as u32 {
            let cost = rt.cost_to_lock_state(LockIndex::new(k));
            prop_assert!(cost <= prev, "cost must not increase with depth");
            prev = cost;
        }
    }
}

/// Deterministic (non-proptest) check that the engine keeps the waits-for
/// graph acyclic at every step of a hot workload — deadlocks are resolved
/// the moment they form — under both grant policies. (The fair queue adds
/// waiter→waiter arcs; the invariant that no cycle survives a step is
/// policy-independent.)
#[test]
fn graph_stays_acyclic_between_steps() {
    let cfg = GeneratorConfig { num_entities: 5, min_locks: 2, max_locks: 4, ..Default::default() };
    for policy in GrantPolicy::ALL {
        for seed in 0..5u64 {
            let mut g = ProgramGenerator::new(cfg, seed);
            let programs = g.generate_workload(10);
            let store = GlobalStore::with_entities(5, Value::new(10));
            let mut sys = System::new(
                store,
                SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
                    .with_grant_policy(policy),
            );
            let mut ids = Vec::new();
            for p in programs {
                ids.push(sys.admit(p).unwrap());
            }
            let mut order = BTreeMap::new();
            for (i, id) in ids.iter().enumerate() {
                order.insert(*id, i);
            }
            let mut rr = RoundRobin::new();
            for _ in 0..100_000 {
                let ready = sys.ready();
                if ready.is_empty() {
                    break;
                }
                let pick = rr.pick(&ready);
                sys.step(pick).unwrap();
                sys.check_invariants().unwrap();
            }
            assert!(sys.all_committed(), "policy {policy:?} seed {seed}");
        }
    }
}
