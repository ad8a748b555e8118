//! Exhaustive schedule-space exploration CLI.
//!
//! ```text
//! cargo run -p pr-explore --release --bin explore -- --grid 3
//! ```
//!
//! Enumerates every interleaving of the selected workloads under every
//! selected rollback strategy, checking the §3.1/§3.2 optimality oracles
//! on each deadlock, cross-strategy terminal-outcome equivalence, and the
//! Figure 2 livelock/termination dichotomy. Any violated property is
//! reported with a minimal witness schedule (and, with `--artifacts`,
//! written out as an explore trace file: case, strategy, policy, plan,
//! outcome, trace); the witness replays deterministically with `--trace`.

use pr_core::config::{StrategyKind, SystemConfig, VictimPolicyKind};
use pr_core::engine::System;
use pr_core::GrantPolicy;
use pr_explore::explorer::{
    explore, replay_lines, stats_table, workload_system, ExploreOptions, RunRecord,
};
use pr_explore::grid::{figure2_prefix_system, grid_cases, GridCase};
use pr_model::TxnId;
use std::process::ExitCode;

const USAGE: &str = "\
usage: explore [OPTIONS]
  --grid N          explore the N-transaction two-entity shape grid (default 3)
  --case NAME       restrict the grid to one case, e.g. XXab+XXba+SXab
  --policy NAME     victim policy: min-cost | partial-order | youngest |
                    causer (default partial-order)
  --grant NAME      lock-grant policy: barging | fair-queue | ordered
                    (default barging; ordered derives and installs each
                    case's acquisition order — uncertifiable cases fall
                    back to partial rollback)
  --strategy NAME   mcs | sdg | total | repair | bounded-K | all (default
                    all; 'all' also cross-checks terminal-outcome equivalence)
  --figure2         explore the Figure 2 prefix under min-cost (livelock
                    expected) and partial-order (termination proof) instead
                    of the grid
  --identical N     explore N identical transactions (XX over a,b) with and
                    without symmetry reduction and report the ratio
  --max-states N    state budget per exploration (default 1048576)
  --symmetry        also run with txn-symmetry reduction and report the
                    state-count ratio (statistics only, identical programs)
  --trace SCHEDULE  replay a comma-separated schedule (txn ids) against the
                    selected case/figure2 prefix and print the trace
  --artifacts DIR   write finding witnesses + traces into DIR
  --table           print the state-space statistics table (EXPERIMENTS T4)
  --quick           2-transaction smoke grid, mcs only";

struct Options {
    grid: usize,
    case: Option<String>,
    policy: VictimPolicyKind,
    grant: GrantPolicy,
    strategies: Vec<StrategyKind>,
    figure2: bool,
    identical: Option<usize>,
    max_states: usize,
    symmetry: bool,
    trace: Option<Vec<TxnId>>,
    artifacts: Option<std::path::PathBuf>,
    table: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        grid: 3,
        case: None,
        policy: VictimPolicyKind::PartialOrder,
        grant: GrantPolicy::Barging,
        strategies: StrategyKind::ALL.to_vec(),
        figure2: false,
        identical: None,
        max_states: 1 << 20,
        symmetry: false,
        trace: None,
        artifacts: None,
        table: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--grid" => {
                o.grid = parse_num(value("--grid")?, "--grid")?;
                if o.grid == 0 || o.grid > 4 {
                    return Err("--grid supports 1..=4 transactions".into());
                }
            }
            "--case" => o.case = Some(value("--case")?.to_string()),
            "--policy" => {
                let name = value("--policy")?;
                o.policy = VictimPolicyKind::parse(name)
                    .ok_or_else(|| format!("unknown policy {name:?}"))?;
            }
            "--strategy" => {
                o.strategies = match value("--strategy")? {
                    "all" => StrategyKind::ALL.to_vec(),
                    name => match StrategyKind::parse(name) {
                        Some(s) => vec![s],
                        None => return Err(format!("unknown strategy {name:?}")),
                    },
                };
            }
            "--grant" => {
                let name = value("--grant")?;
                o.grant = GrantPolicy::parse(name)
                    .ok_or_else(|| format!("unknown grant policy {name:?}"))?;
            }
            "--figure2" => o.figure2 = true,
            "--identical" => {
                let n: usize = parse_num(value("--identical")?, "--identical")?;
                if n == 0 || n > 5 {
                    return Err("--identical supports 1..=5 transactions".into());
                }
                o.identical = Some(n);
            }
            "--max-states" => o.max_states = parse_num(value("--max-states")?, "--max-states")?,
            "--symmetry" => o.symmetry = true,
            "--trace" => {
                let v = value("--trace")?;
                let mut schedule = Vec::new();
                for part in v.split(',') {
                    let id: u32 =
                        part.trim().parse().map_err(|_| format!("bad txn id {part:?}"))?;
                    schedule.push(TxnId::new(id));
                }
                if schedule.is_empty() {
                    return Err("--trace needs a non-empty schedule".into());
                }
                o.trace = Some(schedule);
            }
            "--artifacts" => o.artifacts = Some(value("--artifacts")?.into()),
            "--table" => o.table = true,
            "--quick" => {
                o.grid = 2;
                o.strategies = vec![StrategyKind::Mcs];
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn parse_num<T: std::str::FromStr>(v: &str, name: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{name}: bad number {v:?}"))
}

fn grid_system(
    case: &GridCase,
    strategy: StrategyKind,
    policy: VictimPolicyKind,
    grant: GrantPolicy,
) -> System {
    let config = SystemConfig::new(strategy, policy).with_grant_policy(grant);
    workload_system(&case.programs(), 2, 0, config)
}

/// Writes one finding as an explore trace file.
fn write_artifact(
    dir: &std::path::Path,
    name: &str,
    strategy: &str,
    policy: &str,
    plan: &str,
    outcome: &str,
    trace: &[String],
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("explore: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.log"));
    let mut body = String::new();
    body.push_str(&format!("case: {name}\nstrategy: {strategy}\npolicy: {policy}\n"));
    body.push_str(&format!("plan: {plan}\n"));
    body.push_str(&format!("outcome: {outcome}\n\ntrace:\n"));
    for line in trace {
        body.push_str(line);
        body.push('\n');
    }
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("explore: cannot write {}: {e}", path.display());
    } else {
        eprintln!("  wrote {}", path.display());
    }
}

fn schedule_string(schedule: &[TxnId]) -> String {
    schedule.iter().map(|t| t.raw().to_string()).collect::<Vec<_>>().join(",")
}

fn run_one(
    o: &Options,
    name: &str,
    base: &System,
    strategy: StrategyKind,
    failures: &mut usize,
) -> RunRecord {
    let opts = ExploreOptions { max_states: o.max_states, ..Default::default() };
    let report = explore(base, &opts);
    let sym_states = o.symmetry.then(|| {
        let sym = ExploreOptions { symmetry: true, ..opts.clone() };
        explore(base, &sym).states
    });
    let status = if report.findings.is_empty() { "ok" } else { "FINDINGS" };
    println!(
        "{name} [{}/{}]: {} states, {} transitions, {} terminal outcomes, {} deadlocks, \
         {}{}{}",
        strategy.name(),
        o.policy.name(),
        report.states,
        report.transitions,
        report.terminals.len(),
        report.deadlocks,
        status,
        if report.complete { "" } else { " (TRUNCATED)" },
        if report.livelock.is_some() { " [livelock]" } else { "" },
    );
    for f in &report.findings {
        *failures += 1;
        eprintln!("FAIL {name}: {}: {}", f.kind, f.detail);
        eprintln!("  witness: --trace {}", schedule_string(&f.schedule));
        if let Some(dir) = &o.artifacts {
            let plan = base
                .txn_ids()
                .iter()
                .filter_map(|id| base.txn(*id).map(|rt| format!("{id}: {}", rt.program.render())))
                .collect::<Vec<_>>()
                .join(" | ");
            let trace = replay_lines(base, &f.schedule);
            write_artifact(
                dir,
                &format!("{name}-{}-{}", strategy.name(), f.kind),
                &strategy.name(),
                o.policy.name(),
                &plan,
                &format!("{}: {}", f.kind, f.detail),
                &trace,
            );
        }
    }
    RunRecord { name: name.to_string(), strategy, report, sym_states }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("explore: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    let mut records: Vec<RunRecord> = Vec::new();

    if let Some(n) = o.identical {
        // Symmetry reduction demo: N transactions running the *same*
        // program (so ids are genuinely interchangeable under MinCost).
        let prog = pr_model::ProgramBuilder::new()
            .lock_exclusive(pr_explore::grid::A)
            .write_const(pr_explore::grid::A, 7)
            .lock_exclusive(pr_explore::grid::B)
            .write_const(pr_explore::grid::B, 9)
            .unlock(pr_explore::grid::A)
            .unlock(pr_explore::grid::B)
            .build_unchecked();
        let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        let sys = workload_system(&vec![prog; n], 2, 0, config);
        let opts = ExploreOptions { max_states: o.max_states, ..Default::default() };
        let full = explore(&sys, &opts);
        let reduced = explore(&sys, &ExploreOptions { symmetry: true, ..opts });
        println!(
            "identical x{n}: {} states full, {} states under symmetry ({:.2}x reduction), \
             terminals {} vs {}",
            full.states,
            reduced.states,
            full.states as f64 / reduced.states.max(1) as f64,
            full.terminals.len(),
            reduced.terminals.len()
        );
        if !(full.complete && reduced.complete && reduced.symmetry_applied) {
            failures += 1;
            eprintln!("FAIL identical: incomplete or symmetry not applied");
        }
        return if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if o.figure2 {
        // MinCost must livelock; PartialOrder must terminate over every
        // schedule (Theorem 2).
        let min = figure2_prefix_system(VictimPolicyKind::MinCost);
        let opts = ExploreOptions { max_states: o.max_states, ..Default::default() };
        let report = explore(&min, &opts);
        match &report.livelock {
            Some(w) => {
                println!(
                    "figure2/min-cost: {} states, livelock cycle of length {} reached after \
                     {} steps — Figure 2 reproduced",
                    report.states,
                    w.cycle.len(),
                    w.prefix.len()
                );
                println!("  enter: --trace {}", schedule_string(&w.prefix));
                println!("  cycle: {}", schedule_string(&w.cycle));
            }
            None => {
                failures += 1;
                eprintln!(
                    "FAIL figure2/min-cost: no livelock cycle found ({} states, complete: {})",
                    report.states, report.complete
                );
            }
        }
        records.push(RunRecord {
            name: "figure2".into(),
            strategy: StrategyKind::Mcs,
            report,
            sym_states: None,
        });

        let omega = figure2_prefix_system(VictimPolicyKind::PartialOrder);
        let mut o2 = Options { policy: VictimPolicyKind::PartialOrder, ..copy_options(&o) };
        o2.symmetry = false;
        let rec = run_one(&o2, "figure2-omega", &omega, StrategyKind::Mcs, &mut failures);
        if !(rec.report.complete && rec.report.acyclic && rec.report.livelock.is_none()) {
            failures += 1;
            eprintln!(
                "FAIL figure2/partial-order: termination not proven (complete: {}, acyclic: {})",
                rec.report.complete, rec.report.acyclic
            );
        } else {
            println!(
                "figure2/partial-order: {} states, acyclic and fully explored — \
                 termination proven over all schedules (Theorem 2)",
                rec.report.states
            );
        }
        records.push(rec);
        if o.table {
            println!("{}", stats_table(&records));
        }
        return if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let mut cases = grid_cases(o.grid);
    if let Some(name) = &o.case {
        cases.retain(|c| &c.name == name);
        if cases.is_empty() {
            eprintln!("explore: unknown case {name:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    if let Some(schedule) = &o.trace {
        let case = &cases[0];
        let strategy = o.strategies[0];
        let base = grid_system(case, strategy, o.policy, o.grant);
        println!(
            "replay {} [{}/{}]: {}",
            case.name,
            strategy.name(),
            o.policy.name(),
            schedule_string(schedule)
        );
        for line in replay_lines(&base, schedule) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }

    for case in &cases {
        let mut outcome_sets = Vec::new();
        for &strategy in &o.strategies {
            let base = grid_system(case, strategy, o.policy, o.grant);
            let rec = run_one(&o, &case.name, &base, strategy, &mut failures);
            outcome_sets.push((strategy, rec.report.outcome_set(), rec.report.complete));
            records.push(rec);
        }
        // Cross-strategy equivalence: identical terminal outcome sets.
        if outcome_sets.len() > 1 && outcome_sets.iter().all(|(_, _, complete)| *complete) {
            let (s0, first, _) = &outcome_sets[0];
            for (s, set, _) in &outcome_sets[1..] {
                if set != first {
                    failures += 1;
                    eprintln!(
                        "FAIL {}: terminal outcomes differ between {} ({} outcomes) and \
                         {} ({} outcomes)",
                        case.name,
                        s0.name(),
                        first.len(),
                        s.name(),
                        set.len()
                    );
                }
            }
        }
    }

    if o.table {
        println!("{}", stats_table(&records));
    }
    let explored = records.len();
    println!("explore: {explored} explorations over {} cases, {failures} failures", cases.len());
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn copy_options(o: &Options) -> Options {
    Options {
        grid: o.grid,
        case: o.case.clone(),
        policy: o.policy,
        grant: o.grant,
        strategies: o.strategies.clone(),
        figure2: o.figure2,
        identical: o.identical,
        max_states: o.max_states,
        symmetry: o.symmetry,
        trace: o.trace.clone(),
        artifacts: o.artifacts.clone(),
        table: o.table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<(usize, VictimPolicyKind, Vec<StrategyKind>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_options(&args).map(|o| (o.grid, o.policy, o.strategies))
    }

    #[test]
    fn parse_options_accepts_printed_names_and_rejects_bad_input() {
        let (order, all) = (VictimPolicyKind::PartialOrder, StrategyKind::ALL.to_vec());
        let accepted: [(&[&str], _); 3] = [
            (&[], (3, order, all.clone())),
            (&["--policy", "causer"], (3, VictimPolicyKind::ConflictCauser, all)),
            (&["--strategy", "bounded-2"], (3, order, vec![StrategyKind::Bounded(2)])),
        ];
        for (args, want) in accepted {
            assert_eq!(parsed(args), Ok(want), "{args:?}");
        }
        let rejected: [(&[&str], &str); 5] = [
            (&["--policy", "conflict-causer"], "unknown policy \"conflict-causer\""),
            (&["--strategy", "bounded-0"], "unknown strategy \"bounded-0\""),
            (&["--grid", "0"], "--grid supports 1..=4 transactions"),
            (&["--identical", "6"], "--identical supports 1..=5 transactions"),
            (&["--bogus"], "unknown argument \"--bogus\""),
        ];
        for (args, why) in rejected {
            assert_eq!(parsed(args), Err(why.to_string()), "{args:?}");
        }
    }
}
