//! Acceptance sweep for the certified fast path: full enumeration of the
//! 56-case three-transaction grid under `GrantPolicy::Ordered`.
//!
//! For every *certifiable* case (a total acquisition order exists) the
//! explorer must enumerate the complete schedule space and find **zero**
//! deadlocks and **zero** preemption edges — the certificate turned the
//! deadlock machinery off and nothing was ever rolled back — and every
//! terminal outcome must commit all three transactions to a snapshot some
//! serial order produces. Uncertifiable cases must demonstrably fall back
//! to the paper's partial rollback: schedules still deadlock, resolutions
//! still fire, and the oracles stay green.

use pr_core::config::{StrategyKind, SystemConfig, VictimPolicyKind};
use pr_core::{derive_order, GrantPolicy};
use pr_explore::{explore, grid_cases, workload_system, EdgeKind, ExploreOptions, ExploreReport};
use pr_model::Value;
use pr_sim::run_serial;
use pr_storage::GlobalStore;
use std::collections::BTreeSet;

const PERMS: [[usize; 3]; 6] = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];

fn preemption_edges(report: &ExploreReport) -> usize {
    report.graph.edges.iter().flatten().filter(|e| e.kind == EdgeKind::Preemption).count()
}

#[test]
fn ordered_grid_certifiable_cases_never_deadlock_and_stay_serializable() {
    let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder)
        .with_grant_policy(GrantPolicy::Ordered);
    let serial_config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
    let cases = grid_cases(3);
    assert_eq!(cases.len(), 56);
    let mut certifiable = 0usize;
    let mut fallback_cases = 0usize;
    let mut fallback_deadlocks = 0usize;
    for case in &cases {
        let programs = case.programs();
        let report = explore(&workload_system(&programs, 2, 0, config), &ExploreOptions::default());
        assert!(report.complete, "{}: truncated", case.name);
        assert!(report.findings.is_empty(), "{}: {:?}", case.name, report.findings);
        assert!(report.livelock.is_none(), "{}: livelock under ordered", case.name);
        if derive_order(&programs).is_ok() {
            certifiable += 1;
            assert_eq!(report.deadlocks, 0, "{}: certified case deadlocked", case.name);
            assert_eq!(
                preemption_edges(&report),
                0,
                "{}: certified case preempted someone",
                case.name
            );
            // Every schedule drains to a serial snapshot with all three
            // transactions committed.
            let serial_snapshots: BTreeSet<Vec<(u32, i64)>> = PERMS
                .iter()
                .map(|order| {
                    let store = GlobalStore::with_entities(2, Value::new(0));
                    run_serial(&programs, order, store, serial_config)
                        .expect("serial run cannot fail")
                        .iter()
                        .map(|(e, v)| (e.raw(), v.raw()))
                        .collect()
                })
                .collect();
            for t in &report.terminals {
                assert_eq!(t.committed.len(), 3, "{}: not all committed", case.name);
                assert!(
                    serial_snapshots.contains(&t.snapshot),
                    "{}: terminal snapshot {:?} matches no serial order",
                    case.name,
                    t.snapshot
                );
            }
        } else {
            fallback_cases += 1;
            fallback_deadlocks += report.deadlocks;
        }
    }
    // The grid's certifiable/uncertifiable split: same-order-only cases
    // (all six shapes over one acquisition order, both orders) are
    // certifiable, every mixed-order case is not. C(3+2,3)=10 multisets
    // per direction, minus the double-counted... just assert the split is
    // the measured 20/36 and both sides are exercised.
    assert_eq!(certifiable, 20, "certifiable side of the grid drifted");
    assert_eq!(fallback_cases, 36, "uncertifiable side of the grid drifted");
    assert!(
        fallback_deadlocks > 0,
        "uncertifiable cases must exercise the partial-rollback fallback"
    );
}
