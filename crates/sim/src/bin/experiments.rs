//! Regenerates every experiment table recorded in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p pr-sim --release --bin experiments [-- --csv <dir>]
//! ```
//!
//! With `--csv <dir>`, every table is additionally written as a CSV file
//! into the directory (created if missing).

use pr_core::VictimPolicyKind;
use pr_sim::experiments as exp;
use pr_sim::report::{f2, Table};
use pr_sim::scenarios::{figure3, figure4};

fn emit(table: &Table, name: &str, csv_dir: Option<&std::path::Path>) {
    println!("{table}");
    if let Some(dir) = csv_dir {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let csv_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv output directory");
    }
    let csv = csv_dir.as_deref();

    println!("# Partial-rollback deadlock removal — experiment suite\n");

    // ---------------- Figures ----------------
    let (t, f1) = exp::f1_table();
    emit(&t, "f1-figure1", csv);
    println!(
        "  victim: {} (paper: T2), cost {} (paper: 4); T1 unblocked: {}\n",
        f1.victim, f1.victim_cost, f1.t1_unblocked
    );

    emit(&exp::f2_table(), "f2-figure2", csv);

    let a = figure3::run_a();
    println!("F3a — Figure 3(a): acyclic non-forest without deadlock");
    println!(
        "  forest: {}  directed cycle: {}  deadlocks: {}",
        a.is_forest, a.has_cycle, a.deadlocks
    );
    println!("{}\n", a.graph.lines().map(|l| format!("    {l}")).collect::<Vec<_>>().join("\n"));

    let b = figure3::run_b(2, 2);
    println!(
        "F3b — Figure 3(b): {} cycles, all containing {:?}; victims {:?} (optimal: {})",
        b.cycles, b.in_all_cycles, b.victims, b.optimal
    );
    let c1 = figure3::run_c(1, 20);
    let c2 = figure3::run_c(25, 1);
    println!(
        "F3c — Figure 3(c): cheap T1 ⇒ victims {:?}; expensive T1 ⇒ victims {:?}\n",
        c1.victims, c2.victims
    );

    let wd_orig = figure4::well_defined_states(&figure4::paper_t1_fig4());
    let wd_mod = figure4::well_defined_states(&figure4::paper_t1_fig4_modified());
    println!("F4 — Figure 4: well-defined lock states");
    println!("  original T1: {wd_orig:?} (paper: only 0 and 6)");
    println!("  one write deleted: {wd_mod:?} (paper: lock state 4 becomes well-defined)\n");

    emit(&exp::f5_table(), "f5-figure5", csv);

    // ---------------- Quantitative sweeps ----------------
    let seeds = exp::default_seeds();

    let rows = exp::lost_progress_sweep(&exp::default_entity_counts(), seeds);
    let mut t = Table::new([
        "entities",
        "strategy",
        "deadlocks",
        "states lost",
        "cost/deadlock",
        "waste ratio",
    ])
    .with_title("Q1 — lost progress: partial vs total rollback");
    for r in &rows {
        t.row([
            r.num_entities.to_string(),
            r.strategy.to_string(),
            f2(r.deadlocks),
            f2(r.states_lost),
            f2(r.cost_per_deadlock),
            f2(r.waste_ratio),
        ]);
    }
    emit(&t, "q1-lost-progress", csv);

    let rows = exp::strategy_tradeoff(seeds);
    let mut t = Table::new(["strategy", "peak copies", "states lost", "overshoot", "restarts"])
        .with_title("Q2 — storage vs rollback precision (§4 trade-off)");
    for r in &rows {
        t.row([
            r.strategy.to_string(),
            f2(r.peak_copies),
            f2(r.states_lost),
            f2(r.overshoot),
            f2(r.total_rollbacks),
        ]);
    }
    emit(&t, "q2-tradeoff", csv);

    let rows = exp::cutset_comparison(&exp::default_cutset_sizes(), seeds);
    let mut t = Table::new(["cycles", "members", "exact cost", "greedy cost", "exact solved"])
        .with_title("Q3 — min-cost vertex cut: exact vs greedy (§3.2)");
    for r in &rows {
        t.row([
            r.cycles.to_string(),
            r.members.to_string(),
            f2(r.exact_cost),
            f2(r.greedy_cost),
            f2(r.exact_solved),
        ]);
    }
    emit(&t, "q3-cutset", csv);

    let rows = exp::clustering_sweep(seeds);
    let mut t = Table::new(["write placement", "well-defined states", "overshoot", "states lost"])
        .with_title("Q4 — write clustering and three-phase structure (§5)");
    for r in &rows {
        t.row([r.clustering.clone(), f2(r.well_defined), f2(r.overshoot), f2(r.states_lost)]);
    }
    emit(&t, "q4-clustering", csv);

    let rows = exp::concurrency_sweep(&exp::default_txn_counts(), seeds);
    let mut t = Table::new(["txns", "deadlocks / commit", "states lost / commit"])
        .with_title("Q5 — deadlock frequency vs concurrency (§1 motivation)");
    for r in &rows {
        t.row([r.txns.to_string(), f2(r.deadlocks_per_commit), f2(r.lost_per_commit)]);
    }
    emit(&t, "q5-concurrency", csv);

    let rows = exp::budget_sweep(&[1, 2, 4, 8], seeds);
    let mut t = Table::new(["strategy", "peak copies", "overshoot", "states lost"])
        .with_title("E1 — bounded extra copies (the paper's closing open question)");
    for r in &rows {
        t.row([r.strategy.clone(), f2(r.peak_copies), f2(r.overshoot), f2(r.states_lost)]);
    }
    emit(&t, "e1-copy-budget", csv);

    let rows = exp::policy_comparison(seeds);
    let mut t = Table::new(["policy", "completion rate", "max preemptions", "states lost"])
        .with_title("Q6 — victim policies on a hot workload (Theorem 2)");
    for r in &rows {
        t.row([
            r.policy.to_string(),
            f2(r.completion_rate),
            f2(r.max_preemptions),
            f2(r.states_lost),
        ]);
    }
    emit(&t, "q6-policies", csv);

    let rows = exp::restructure_comparison(seeds);
    let mut t = Table::new(["program form", "well-defined states", "overshoot", "states lost"])
        .with_title("R1 — compile-time restructuring (§5): same transactions, reordered");
    for r in &rows {
        t.row([r.form.to_string(), f2(r.well_defined), f2(r.overshoot), f2(r.states_lost)]);
    }
    emit(&t, "r1-restructure", csv);

    // Make the policy enum variants appear used in release builds.
    let _ = VictimPolicyKind::ALL;
}
