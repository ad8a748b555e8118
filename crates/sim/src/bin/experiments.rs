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
use pr_sim::report::Table;
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
    emit(&exp::q1_table(), "q1-lost-progress", csv);
    emit(&exp::q2_table(), "q2-tradeoff", csv);
    emit(&exp::q3_table(), "q3-cutset", csv);
    emit(&exp::q4_table(), "q4-clustering", csv);
    emit(&exp::q5_table(), "q5-concurrency", csv);
    emit(&exp::e1_table(), "e1-copy-budget", csv);
    emit(&exp::q6_table(), "q6-policies", csv);
    emit(&exp::r1_table(), "r1-restructure", csv);

    // Make the policy enum variants appear used in release builds.
    let _ = VictimPolicyKind::ALL;
}
