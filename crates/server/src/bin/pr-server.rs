//! The pr-server binary: bind, serve, drain, quiesce, exit.
//!
//! ```text
//! cargo run -p pr-server --release --bin pr-server -- --addr 127.0.0.1:7878
//! ```
//!
//! Prints one `pr-server listening on ADDR …` line once bound (scripts
//! scrape it — with `--addr host:0` the kernel picks the port), then runs
//! until a `SHUTDOWN` request completes the drain protocol. Exit codes:
//! 0 clean shutdown with slab quiescence verified, 1 engine or bind
//! failure, 2 usage error.

use pr_core::{GrantPolicy, StrategyKind, SystemConfig, VictimPolicyKind};
use pr_server::{Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: pr-server [OPTIONS]
  --addr HOST:PORT     bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --entities N         entity universe size (default 256)
  --init V             initial entity value (default 100)
  --threads N          transactions in flight per batch (default 8);
                       OS workers = min(N, max(2, cores))
  --strategy NAME      rollback strategy: total | mcs | sdg | repair | bounded-K (default mcs)
  --victim NAME        victim policy: min-cost | partial-order | youngest | causer
  --policy NAME        grant policy: barging | fair-queue (default fair-queue)
  --batch-max N        group-commit flush threshold (default 256)
  --batch-deadline-us N  group-commit deadline in microseconds (default 2000)
  --wal DIR            write-ahead redo log directory (durability on)
  --recover DIR        replay DIR's durable prefix before serving (implies --wal DIR)
  --wal-flush POLICY   fsync policy: per-batch | every-N | off (default per-batch)";

struct Options {
    config: ServerConfig,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut config = ServerConfig { addr: "127.0.0.1:7878".into(), ..ServerConfig::default() };
    let mut system = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
    system.grant_policy = GrantPolicy::FairQueue;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?.into(),
            "--entities" => {
                config.entities =
                    value("--entities")?.parse().map_err(|_| "--entities needs a count")?
            }
            "--init" => {
                config.init = value("--init")?.parse().map_err(|_| "--init needs an integer")?
            }
            "--threads" => {
                config.threads =
                    value("--threads")?.parse().map_err(|_| "--threads needs a count")?
            }
            "--strategy" => {
                let name = value("--strategy")?;
                system.strategy = StrategyKind::parse(name)
                    .ok_or_else(|| format!("unknown strategy {name:?}"))?;
            }
            "--victim" => {
                let name = value("--victim")?;
                system.victim = VictimPolicyKind::parse(name)
                    .ok_or_else(|| format!("unknown victim policy {name:?}"))?;
            }
            "--policy" => {
                let name = value("--policy")?;
                system.grant_policy = pr_server::server::parse_grant_policy(name)?;
            }
            "--batch-max" => {
                config.batch_max =
                    value("--batch-max")?.parse().map_err(|_| "--batch-max needs a count")?
            }
            "--batch-deadline-us" => {
                let us: u64 = value("--batch-deadline-us")?
                    .parse()
                    .map_err(|_| "--batch-deadline-us needs microseconds")?;
                config.batch_deadline = Duration::from_micros(us);
            }
            "--wal" => config.durability.dir = Some(value("--wal")?.into()),
            "--recover" => {
                config.durability.dir = Some(value("--recover")?.into());
                config.durability.recover = true;
            }
            "--wal-flush" => config.durability.flush = value("--wal-flush")?.parse()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if config.threads == 0 {
        return Err("--threads needs at least 1".into());
    }
    config.system = system;
    Ok(Options { config })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pr-server: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let batch_max = o.config.batch_max;
    let deadline_us = o.config.batch_deadline.as_micros();
    let strategy = o.config.system.strategy.name();
    let policy = o.config.system.grant_policy.name();
    let entities = o.config.entities;
    let threads = o.config.threads;
    let wal = o
        .config
        .durability
        .dir
        .as_ref()
        .map(|d| format!(" wal={} flush={}", d.display(), o.config.durability.flush));
    let server = match Server::start(o.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pr-server: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The recovery line prints before the listening line scripts scrape,
    // so anything driving the server knows what it resumed from.
    if let Some(r) = server.recovery() {
        println!(
            "pr-server recovered {} txns in {} batches (txn_hwm={} stamp_hwm={} \
             last_batch_id={}{})",
            r.txns,
            r.batches,
            r.txn_hwm,
            r.stamp_hwm,
            r.last_batch_id,
            if r.torn_tail { ", torn tail sealed" } else { "" }
        );
    }
    println!(
        "pr-server listening on {} entities={entities} threads={threads} \
         strategy={strategy} policy={policy} batch_max={batch_max} \
         batch_deadline_us={deadline_us}{}",
        server.local_addr(),
        wal.unwrap_or_default()
    );
    match server.wait() {
        Ok(summary) => {
            println!(
                "pr-server shut down cleanly: {} commits in {} batches, \
                 slab quiescent ({} fast grants, {} inflations)",
                summary.commits, summary.batches, summary.fast.fast_grants, summary.fast.inflations
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-server: engine failure: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<(usize, GrantPolicy, StrategyKind), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_options(&args).map(|o| {
            let system = &o.config.system;
            (o.config.threads, system.grant_policy, system.strategy)
        })
    }

    #[test]
    fn parse_options_accepts_sized_servers_and_rejects_empty_ones() {
        let (fair, mcs) = (GrantPolicy::FairQueue, StrategyKind::Mcs);
        let accepted: [(&[&str], _); 3] = [
            (&[], (8, fair, mcs)),
            (&["--threads", "2", "--policy", "barging"], (2, GrantPolicy::Barging, mcs)),
            (&["--strategy", "repair"], (8, fair, StrategyKind::Repair)),
        ];
        for (args, want) in accepted {
            assert_eq!(parsed(args), Ok(want), "{args:?}");
        }
        let ordered = parsed(&["--policy", "ordered"]).unwrap_err();
        assert!(ordered.contains("deterministic engine and the explorer only"), "{ordered}");
        let rejected: [(&[&str], &str); 4] = [
            (&["--threads", "0"], "--threads needs at least 1"),
            (&["--policy", "fair"], "unknown grant policy \"fair\""),
            (&["--strategy", "bogus"], "unknown strategy \"bogus\""),
            (&["--bogus"], "unknown argument \"--bogus\""),
        ];
        for (args, why) in rejected {
            assert_eq!(parsed(args), Err(why.to_string()), "{args:?}");
        }
    }
}
