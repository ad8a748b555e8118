//! Acceptance tests for the runtime invariant sentinel (feature
//! `invariants`, forwarded root → pr-core → pr-graph). Build with
//! `cargo test --features invariants` to include these.
#![cfg(feature = "invariants")]

use partial_rollback::prelude::*;
use partial_rollback::sim::{GeneratorConfig, ProgramGenerator};

fn run_generated(config: GeneratorConfig, policy: GrantPolicy, seed: u64, n: usize) -> System {
    let mut gen = ProgramGenerator::new(config, seed);
    let store = GlobalStore::with_entities(32, Value::new(100));
    let mut sys = System::new(
        store,
        SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
            .with_grant_policy(policy),
    );
    for p in gen.generate_workload(n) {
        sys.admit(p).unwrap();
    }
    sys.run(&mut RoundRobin::new()).unwrap();
    sys
}

/// The full random-workload suite runs clean with the sentinel armed:
/// every post-step check passes and the final states satisfy every
/// invariant, across contended seeds and both grant policies.
#[test]
fn generated_workloads_run_clean_under_the_sentinel() {
    for policy in GrantPolicy::ALL {
        for seed in [7u64, 42, 1234] {
            let sys = run_generated(GeneratorConfig::default(), policy, seed, 12);
            assert!(sys.all_committed(), "policy {policy:?} seed {seed}");
            sys.sentinel_assert();
        }
    }
}

/// The DESIGN §7 stale-arc hazard under the armed sentinel: a shared
/// request barging past a blocked exclusive waiter must refresh the
/// waiter's arcs to include the new holder, or the graph lies about who
/// blocks whom and the sentinel's graph/table cross-check trips. This is
/// the regression surface for the refresh-on-grant fix.
#[test]
fn barging_shared_grant_keeps_waiter_arcs_fresh_under_the_sentinel() {
    let a = EntityId::new(0);
    let reader =
        |pads: usize| ProgramBuilder::new().lock_shared(a).pad(pads).unlock(a).build().unwrap();
    let writer = ProgramBuilder::new().lock_exclusive(a).unlock(a).build().unwrap();

    let store = GlobalStore::with_entities(1, Value::new(0));
    let mut sys = System::new(
        store,
        SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
            .with_grant_policy(GrantPolicy::Barging),
    );
    let r1 = sys.admit(reader(4)).unwrap();
    let w = sys.admit(writer).unwrap();
    let r2 = sys.admit(reader(1)).unwrap();
    sys.step(r1).unwrap(); // r1 holds shared
    sys.step(w).unwrap(); // writer blocks behind r1
    sys.step(r2).unwrap(); // r2 barges in past the blocked writer
    sys.sentinel_assert(); // arcs must now read {r1, r2}, not a stale {r1}
    let (_, blockers) = sys.graph().wait_of(w).expect("writer still waits");
    assert_eq!(blockers, vec![r1, r2]);
    sys.run(&mut RoundRobin::new()).unwrap();
    assert!(sys.all_committed());
    sys.sentinel_assert();
}

/// A deliberately corrupted waits-for graph — a forged arc with no
/// matching wait record — must make the sentinel panic with the tail of
/// the engine's structured events, even when driven through the facade
/// crate (whose event log is off).
#[test]
fn forged_graph_edge_trips_the_sentinel() {
    let a = EntityId::new(0);
    let t1 = ProgramBuilder::new().lock_exclusive(a).unlock(a).build().unwrap();
    let store = GlobalStore::with_entities(1, Value::new(0));
    let mut sys = System::new(store, SystemConfig::default());
    let id = sys.admit(t1).unwrap();
    sys.step(id).unwrap(); // lock granted; system is consistent
    sys.graph_mut_unchecked().forge_arc_unchecked(TxnId::new(7), id);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sys.sentinel_assert();
    }))
    .expect_err("sentinel must catch the forged arc");
    let msg = err.downcast_ref::<String>().expect("panic payload is the report");
    assert!(msg.contains("invariant sentinel tripped"), "{msg}");
    assert!(msg.contains("--- last 2 of 2 engine events ---"), "{msg}");
    assert!(msg.contains("    1. [     0] T1 admitted\n"), "{msg}");
    assert!(msg.contains("    2. [     1] T1 granted X-lock on a\n"), "{msg}");
}
