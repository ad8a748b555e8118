//! Golden outputs: deterministic tables regenerated through the library
//! calls their binaries make, compared byte for byte with the files
//! committed under `results/`. A change that means to move one of these
//! tables shows up as a diff of the committed file; rerun the command the
//! failure names and commit the result.

use partial_rollback::explore::{
    explore, grid_cases, stats_table, workload_system, ExploreOptions, RunRecord,
};
use partial_rollback::prelude::*;
use partial_rollback::sim::experiments;

/// Asserts that `fresh` equals the committed `results/<file>`.
fn check(file: &str, fresh: &str, regenerate: &str) {
    let path = format!("{}/results/{file}", env!("CARGO_MANIFEST_DIR"));
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert!(
        committed == fresh,
        "results/{file} does not match what the library produces now.\n\
         If the change is intended, regenerate it with:\n    {regenerate}\n\
         --- committed ---\n{committed}--- fresh ---\n{fresh}"
    );
}

const EXPERIMENTS: &str = "cargo run --release -p pr-sim --bin experiments -- --csv results";

#[test]
fn figure_tables_match_results() {
    check("f1-figure1.csv", &experiments::f1_table().0.to_csv(), EXPERIMENTS);
    check("f2-figure2.csv", &experiments::f2_table().to_csv(), EXPERIMENTS);
    check("f5-figure5.csv", &experiments::f5_table().to_csv(), EXPERIMENTS);
}

/// The quantitative sweep tables: with the figure tables, every file
/// `experiments --csv` writes.
#[test]
fn sweep_tables_match_results() {
    let tables = [
        ("q1-lost-progress.csv", experiments::q1_table as fn() -> _),
        ("q2-tradeoff.csv", experiments::q2_table),
        ("q3-cutset.csv", experiments::q3_table),
        ("q4-clustering.csv", experiments::q4_table),
        ("q5-concurrency.csv", experiments::q5_table),
        ("e1-copy-budget.csv", experiments::e1_table),
        ("q6-policies.csv", experiments::q6_table),
        ("r1-restructure.csv", experiments::r1_table),
    ];
    for (file, table) in tables {
        check(file, &table().to_csv(), EXPERIMENTS);
    }
}

/// The T4 table `explore --quick --table` prints: every two-transaction
/// grid case under MCS and the partial-order policy. Its deadlock and
/// audit columns count the records in each explored system's deadlock
/// history and the oracles' verdicts on them.
#[test]
fn quick_exploration_table_matches_results() {
    let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
    let records: Vec<RunRecord> = grid_cases(2)
        .into_iter()
        .map(|case| {
            let base = workload_system(&case.programs(), 2, 0, config);
            let report = explore(&base, &ExploreOptions::default());
            assert!(report.findings.is_empty(), "{}: {:?}", case.name, report.findings);
            RunRecord { name: case.name, strategy: StrategyKind::Mcs, report, sym_states: None }
        })
        .collect();
    check(
        "golden/explore-quick-t4.txt",
        &format!("{}\n", stats_table(&records)),
        "cargo run --release -q -p pr-explore --bin explore -- --quick --table \
         | sed -n '/^Exhaustive exploration statistics/,/^$/p' > results/golden/explore-quick-t4.txt",
    );
}
