//! Drives the multi-threaded engine through the differential
//! serializability oracle over many seeds.
//!
//! ```text
//! cargo run -p pr-sim --release --bin parallel -- --soak 500 --threads 8
//! ```
//!
//! `--soak N` runs N seeded workloads rotating through the 4 strategies ×
//! 2 grant policies × 3 skews × 3 paddings grid, each run oracle-checked
//! (conflict-graph acyclicity over the stamped access history,
//! rollback-accounting reconciliation, and final-snapshot equality against
//! a serial run of the same programs in index order); the first violation
//! aborts with a reproduction line. The serial reference costs one pass
//! over the programs, so the soak's time is the engine's own. This is the
//! CI `parallel-soak` job's entry point. Wall-clock numbers for the same
//! engine come from `benchmark/` (`par-uniform-mcs`, `par-hot-*`).
//!
//! The summary line also names the run that resolved the most deadlocks
//! (its seed and grid cell) and counts the runs that resolved more than
//! ten deadlocks per transaction: the barging thrash, where one
//! 64-transaction run can resolve thousands.

use pr_core::{GrantPolicy, LogHistogram, StrategyKind, SystemConfig, VictimPolicyKind};
use pr_par::{run_parallel, ParConfig};
use pr_sim::generator::{GeneratorConfig, ProgramGenerator};
use pr_sim::oracle::check_outcome;
use pr_sim::runner::store_with;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: parallel --soak N [OPTIONS]
  --soak N           oracle soak: N seeded runs rotating through all
                     4 strategies x 2 grant policies x 3 skews x 3 paddings
  --threads N        transactions in flight per batch (default 8);
                     OS workers = min(N, max(2, cores))
  --txns N           transactions per run (default 64)
  --strategy NAME    restrict the soak to one strategy:
                     total | mcs | sdg | repair | bounded-K
                     (default: rotate through all four)";

const STRATEGIES: [StrategyKind; 4] = StrategyKind::ALL;
const POLICIES: [GrantPolicy; 2] = [GrantPolicy::Barging, GrantPolicy::FairQueue];

struct Options {
    soak: usize,
    threads: usize,
    txns: usize,
    strategy: Option<StrategyKind>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        // 0 = not given; rejected below.
        soak: 0,
        threads: 8,
        txns: 64,
        strategy: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--soak" => {
                o.soak = value("--soak")?.parse().map_err(|_| "--soak needs a count".to_string())?
            }
            "--threads" => {
                o.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a count".to_string())?
            }
            "--txns" => {
                o.txns = value("--txns")?.parse().map_err(|_| "--txns needs a count".to_string())?
            }
            "--strategy" => {
                let name = value("--strategy")?;
                o.strategy = Some(
                    StrategyKind::parse(name)
                        .ok_or_else(|| format!("unknown strategy {name:?}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // A zero-sized soak checks nothing and would pass vacuously.
    for (name, n) in [("--soak", o.soak), ("--threads", o.threads), ("--txns", o.txns)] {
        if n == 0 {
            return Err(format!("{name} needs at least 1"));
        }
    }
    Ok(o)
}

fn workload_config(zipf_centi: u16, pad_between: usize) -> GeneratorConfig {
    GeneratorConfig {
        num_entities: 64,
        skew_centi: zipf_centi,
        pad_between,
        ..GeneratorConfig::default()
    }
}

fn system_config(strategy: StrategyKind, policy: GrantPolicy) -> SystemConfig {
    let mut config = SystemConfig::new(strategy, VictimPolicyKind::PartialOrder);
    config.grant_policy = policy;
    config
}

fn run_soak(o: &Options) -> ExitCode {
    let seeds = o.soak;
    let mut checked_accesses = 0usize;
    let mut checked_edges = 0usize;
    let mut deadlocks_resolved = 0u64;
    let mut fast_grants = 0u64;
    let mut wakes = 0u64;
    let mut capture_wait = LogHistogram::default();
    // The run with the most deadlocks: (count, seed, cell).
    let mut worst = (0u64, 0u64, String::new());
    let mut thrashing_runs = 0usize;
    let start = Instant::now();
    for seed in 0..seeds as u64 {
        let strategy = o.strategy.unwrap_or(STRATEGIES[(seed % 4) as usize]);
        let policy = POLICIES[((seed / 4) % 2) as usize];
        let zipf = [0u16, 80, 120][((seed / 8) % 3) as usize];
        // Short transactions finish inside one scheduling quantum and
        // never interleave on a small machine; the padded thirds of the
        // grid stretch the lock-hold windows so OS preemption manufactures
        // real cross-thread deadlocks and the resolver gets soaked too.
        let pad = [2usize, 500, 2_000][((seed / 24) % 3) as usize];
        let config = system_config(strategy, policy);
        let mut generator = ProgramGenerator::new(workload_config(zipf, pad), seed);
        let programs = generator.generate_workload(o.txns);
        let par_config =
            ParConfig { threads: o.threads, shards: 0, system: config, fast_path: true };
        let outcome = match run_parallel(&programs, store_with(64, 100), &par_config) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!(
                    "parallel: run failed at seed {seed} \
                     ({} / {} / zipf {zipf}): {e}",
                    strategy.name(),
                    policy.name()
                );
                return ExitCode::FAILURE;
            }
        };
        let deadlocks = outcome.metrics.deadlocks;
        deadlocks_resolved += deadlocks;
        if deadlocks > worst.0 || seed == 0 {
            let cell = format!("{} / {} / zipf {zipf} / pad {pad}", strategy.name(), policy.name());
            worst = (deadlocks, seed, cell);
        }
        if deadlocks > 10 * o.txns as u64 {
            thrashing_runs += 1;
        }
        fast_grants += outcome.fast.fast_grants;
        wakes += outcome.metrics.wakes;
        capture_wait.merge(&outcome.metrics.capture_wait);
        match check_outcome(&programs, &store_with(64, 100), &config, &outcome) {
            Ok(report) => {
                checked_accesses += report.accesses;
                checked_edges += report.conflict_edges;
            }
            Err(v) => {
                eprintln!(
                    "parallel: ORACLE VIOLATION at seed {seed} \
                     ({} / {} / zipf {zipf}, {} in flight): {v}",
                    strategy.name(),
                    policy.name(),
                    o.threads
                );
                return ExitCode::FAILURE;
            }
        }
        if (seed + 1) % 50 == 0 {
            println!(
                "  {}/{} seeds clean ({:.1}s)",
                seed + 1,
                seeds,
                start.elapsed().as_secs_f64()
            );
        }
    }
    if seeds >= 72 && deadlocks_resolved == 0 {
        // A full rotation of the grid includes the heavily padded cells;
        // zero deadlocks there means the resolver was never exercised and
        // the soak proved nothing about it.
        eprintln!("parallel: soak resolved no deadlocks — resolver not exercised");
        return ExitCode::FAILURE;
    }
    if fast_grants == 0 {
        eprintln!("parallel: soak recorded no fast-path grants — fast path not exercised");
        return ExitCode::FAILURE;
    }
    // Every run commits all its transactions, or the soak has failed.
    let commits = (seeds * o.txns) as f64;
    println!(
        "oracle soak passed: {seeds} seeds x {} txns, {} in flight, \
         4 strategies x 2 grant policies x 3 skews x 3 paddings; \
         {deadlocks_resolved} deadlocks resolved (most in one run: {} at seed {} ({}); \
         {thrashing_runs} runs over 10 per txn), {fast_grants} fast-path grants, \
         {wakes} wakes ({:.3} per commit), \
         {} slot captures waiting p50/p99/max \
         {}/{}/{} us, {checked_accesses} accesses, \
         {checked_edges} conflict edges verified acyclic ({:.1}s)",
        o.txns,
        o.threads,
        worst.0,
        worst.1,
        worst.2,
        wakes as f64 / commits,
        capture_wait.count(),
        capture_wait.p50(),
        capture_wait.p99(),
        capture_wait.max(),
        start.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("parallel: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run_soak(&o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(args: &[&str]) -> Result<(usize, usize, usize), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_options(&args).map(|o| (o.soak, o.threads, o.txns))
    }

    #[test]
    fn parse_options_accepts_soaks_and_rejects_empty_ones() {
        assert_eq!(sizes(&["--soak", "60"]), Ok((60, 8, 64)));
        assert_eq!(sizes(&["--soak", "2", "--threads", "4", "--txns", "16"]), Ok((2, 4, 16)));
        let rejected: [(&[&str], &str); 6] = [
            (&[], "--soak needs at least 1"),
            (&["--soak", "0"], "--soak needs at least 1"),
            (&["--soak", "2", "--threads", "0"], "--threads needs at least 1"),
            (&["--soak", "2", "--txns", "0"], "--txns needs at least 1"),
            (&["--soak", "2", "--strategy", "bogus"], "unknown strategy \"bogus\""),
            (&["--quick"], "unknown argument \"--quick\""),
        ];
        for (args, why) in rejected {
            assert_eq!(sizes(args), Err(why.to_string()), "{args:?}");
        }
    }
}
