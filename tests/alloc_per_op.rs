//! The interpreters do no per-operation heap work.
//!
//! Program text is shared and borrowed from decode to commit: executing an
//! operation must not clone it, and handing a program on must not copy it.
//! A counting global allocator (this file is its own test binary, so
//! nothing else is affected) runs one transaction of
//! `LX(a); Read; Compute(var + 1) × N; Write(var + δ); Commit` through each
//! of the two engines at two program lengths and compares the number of
//! allocations: if any step allocated, the longer program would allocate
//! thousands more.
//!
//! One `#[test]` on purpose — the counter is process-wide, so no other test
//! thread may run beside the measured region. Compiled out under the
//! `invariants` feature: the armed sentinel re-verifies the whole system
//! after every step, which allocates by design.

#![cfg(not(feature = "invariants"))]

use partial_rollback::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed counter increment.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) performed by `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The straight-line transaction the benchmark's hot workloads are made
/// of, with `pad` computations inside the lock-hold window.
fn program(pad: usize) -> TransactionProgram {
    let (a, v) = (EntityId::new(0), VarId::new(0));
    let mut ops = vec![Op::LockExclusive(a), Op::Read { entity: a, into: v }];
    ops.extend((0..pad).map(|_| Op::Compute(Expr::add(Expr::var(v), Expr::lit(1)))));
    ops.push(Op::Write { entity: a, expr: Expr::add(Expr::var(v), Expr::lit(-3)) });
    ops.push(Op::Commit);
    TransactionProgram::try_from(ops).expect("valid program")
}

fn store() -> GlobalStore {
    GlobalStore::with_entities(1, Value::new(100))
}

fn config(strategy: StrategyKind) -> SystemConfig {
    SystemConfig::new(strategy, VictimPolicyKind::PartialOrder)
}

fn through_system(strategy: StrategyKind, p: &TransactionProgram) {
    let mut sys = System::new(store(), config(strategy));
    let id = sys.admit(p.clone()).expect("admit");
    while sys.step(id).expect("step") != StepOutcome::Committed {}
    assert_eq!(sys.store().read(EntityId::new(0)).unwrap(), Value::new(97));
}

fn through_threads(strategy: StrategyKind, p: &TransactionProgram) {
    let par_config = ParConfig { threads: 1, shards: 0, system: config(strategy), fast_path: true };
    let outcome = run_parallel(std::slice::from_ref(p), store(), &par_config).expect("run");
    assert_eq!(outcome.snapshot.get(EntityId::new(0)), Some(Value::new(97)));
}

/// Per-run allocations that do not depend on the program's length
/// (runtimes, workspaces, thread start-up, Repair's one tape reservation)
/// cancel in the difference; this much slack is left for the harness.
const SLACK: u64 = 8;

#[test]
fn no_engine_allocates_per_operation() {
    let (short, long) = (program(64), program(4096));

    let copy = long.clone();
    assert!(std::ptr::eq(copy.ops().as_ptr(), long.ops().as_ptr()), "a clone shares the text");
    assert!(std::ptr::eq(copy.initial_vars().as_ptr(), long.initial_vars().as_ptr()));
    assert_eq!(allocations_in(|| drop(long.clone())), 0, "cloning a program allocates nothing");

    type Engine = fn(StrategyKind, &TransactionProgram);
    let engines: [(&str, Engine); 2] =
        [("System::step", through_system), ("run_parallel", through_threads)];
    for (name, engine) in engines {
        for strategy in StrategyKind::ALL {
            engine(strategy, &short); // warm-up: lazy one-time initialisation
            let few = allocations_in(|| engine(strategy, &short));
            let many = allocations_in(|| engine(strategy, &long));
            assert!(
                many <= few + SLACK,
                "{name} under {strategy:?}: {few} allocations for 64 computations, \
                 {many} for 4096 — some step allocates",
            );
        }
    }
}
