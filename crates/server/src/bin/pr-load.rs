//! The pr-load binary: closed-loop multi-client load against a pr-server,
//! with the post-run serializability oracle, the crash-injection battery,
//! the malformed-frame probe, and the nightly soak.
//!
//! ```text
//! cargo run -p pr-server --release --bin pr-load -- --clients 12288 --zipf 120
//! cargo run -p pr-server --release --bin pr-load -- --crash-soak 64
//! ```
//!
//! Exit codes: 0 success (run clean and oracle green, probe contract
//! held), 1 failure, 2 usage error.

use pr_core::{GrantPolicy, LogHistogram, StrategyKind, SystemConfig, VictimPolicyKind};
use pr_server::load::oracle_check;
use pr_server::{Client, LoadConfig, LoadResult, Server, ServerConfig};
use pr_sim::oracle::OracleReport;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: pr-load [MODE] [OPTIONS]
modes (default: drive one load cell and oracle-check it)
  --crash-soak N       seeded in-process crash-injection battery (N cases)
  --probe-malformed ADDR  malformed-frame protocol probe (exit 0 = contract held)
  --soak               the 12k-client oracle-checked soak cell, multi-process
  --shutdown ADDR      drain a live server and report its commit count
  --child              internal: one process's share of a --procs run
options
  --connect ADDR       drive an already-running server instead of self-hosting
  --clients N          logical clients (default 512)
  --txns N             transactions per client (default 4)
  --entities N         entity universe size (default 256; must match the server)
  --init V             initial entity value (default 100; must match the server)
  --zipf CENTI         Zipf exponent x100 for entity skew (default 0)
  --think-us N         mean client think time, microseconds (default 500)
  --clients-per-conn N logical clients multiplexed per TCP connection (default 256)
  --seed N             workload seed (default 1)
  --client-base N      first global client id (child mode)
  --procs N            worker processes; >1 self-hosts and fans out (default 1)
  --policy NAME        self-hosted grant policy: barging | fair-queue
  --strategy NAME      self-hosted rollback strategy:
                       total | mcs | sdg | repair | bounded-K (default mcs)
  --threads N          self-hosted: transactions in flight per batch
                       (default 8); OS workers = min(N, max(2, cores))
  --batch-max N        self-hosted group-commit flush threshold (default 256)
  --batch-deadline-us N  self-hosted group-commit deadline (default 2000)
  --no-oracle          skip the post-run serializability check
  --wal DIR            self-hosted server writes a redo log to DIR
  --wal-flush POLICY   fsync policy for --wal: per-batch | every-N | off";

enum Mode {
    Run,
    CrashSoak(usize),
    Probe(String),
    Soak,
    Shutdown(String),
    Child,
}

struct Options {
    mode: Mode,
    connect: Option<String>,
    load: LoadConfig,
    policy: GrantPolicy,
    strategy: StrategyKind,
    threads: usize,
    batch_max: usize,
    batch_deadline_us: u64,
    procs: usize,
    oracle: bool,
    durability: pr_server::DurabilityConfig,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        mode: Mode::Run,
        connect: None,
        load: LoadConfig::default(),
        policy: GrantPolicy::FairQueue,
        strategy: StrategyKind::Mcs,
        threads: 8,
        batch_max: 256,
        batch_deadline_us: 2_000,
        procs: 1,
        oracle: true,
        durability: pr_server::DurabilityConfig::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--crash-soak" => {
                o.mode = Mode::CrashSoak(
                    value("--crash-soak")?.parse().map_err(|_| "--crash-soak needs a count")?,
                )
            }
            "--probe-malformed" => o.mode = Mode::Probe(value("--probe-malformed")?.into()),
            "--soak" => o.mode = Mode::Soak,
            "--shutdown" => o.mode = Mode::Shutdown(value("--shutdown")?.into()),
            "--child" => o.mode = Mode::Child,
            "--connect" => o.connect = Some(value("--connect")?.into()),
            "--clients" => {
                o.load.clients =
                    value("--clients")?.parse().map_err(|_| "--clients needs a count")?
            }
            "--txns" => {
                o.load.txns_per_client =
                    value("--txns")?.parse().map_err(|_| "--txns needs a count")?
            }
            "--entities" => {
                o.load.entities =
                    value("--entities")?.parse().map_err(|_| "--entities needs a count")?
            }
            "--init" => {
                o.load.init = value("--init")?.parse().map_err(|_| "--init needs an integer")?
            }
            "--zipf" => {
                o.load.zipf_centi =
                    value("--zipf")?.parse().map_err(|_| "--zipf needs centi-exponent")?
            }
            "--think-us" => {
                o.load.think_us =
                    value("--think-us")?.parse().map_err(|_| "--think-us needs microseconds")?
            }
            "--clients-per-conn" => {
                o.load.clients_per_conn = value("--clients-per-conn")?
                    .parse()
                    .map_err(|_| "--clients-per-conn needs a count")?
            }
            "--seed" => o.load.seed = value("--seed")?.parse().map_err(|_| "--seed needs a u64")?,
            "--client-base" => {
                o.load.client_base =
                    value("--client-base")?.parse().map_err(|_| "--client-base needs a count")?
            }
            "--procs" => {
                o.procs = value("--procs")?.parse().map_err(|_| "--procs needs a count")?
            }
            "--policy" => {
                let name = value("--policy")?;
                o.policy = pr_server::server::parse_grant_policy(name)?;
            }
            "--strategy" => {
                let name = value("--strategy")?;
                o.strategy = StrategyKind::parse(name)
                    .ok_or_else(|| format!("unknown strategy {name:?}"))?;
            }
            "--threads" => {
                o.threads = value("--threads")?.parse().map_err(|_| "--threads needs a count")?
            }
            "--batch-max" => {
                o.batch_max =
                    value("--batch-max")?.parse().map_err(|_| "--batch-max needs a count")?
            }
            "--batch-deadline-us" => {
                o.batch_deadline_us = value("--batch-deadline-us")?
                    .parse()
                    .map_err(|_| "--batch-deadline-us needs microseconds")?
            }
            "--no-oracle" => o.oracle = false,
            "--wal" => o.durability.dir = Some(value("--wal")?.into()),
            "--wal-flush" => o.durability.flush = value("--wal-flush")?.parse()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // A zero-sized run submits nothing and would pass vacuously.
    for (name, n) in [
        ("--clients", o.load.clients),
        ("--txns", o.load.txns_per_client),
        ("--threads", o.threads),
        ("--procs", o.procs),
    ] {
        if n == 0 {
            return Err(format!("{name} needs at least 1"));
        }
    }
    Ok(o)
}

fn server_config(o: &Options) -> ServerConfig {
    let mut system = SystemConfig::new(o.strategy, VictimPolicyKind::PartialOrder);
    system.grant_policy = o.policy;
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        entities: o.load.entities,
        init: o.load.init,
        threads: o.threads,
        shards: 0,
        system,
        fast_path: true,
        batch_max: o.batch_max,
        batch_deadline: Duration::from_micros(o.batch_deadline_us),
        durability: o.durability.clone(),
    }
}

/// Fans the client range out over `procs` child processes (re-exec of
/// this binary in `--child` mode) and merges their results. Children
/// report their commit mapping and histogram raw parts over stdout —
/// compact, and enough for the parent to run the oracle.
fn run_multiproc(cfg: &LoadConfig, procs: usize) -> Result<LoadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let share = cfg.clients.div_ceil(procs);
    let mut children = Vec::new();
    let mut first = 0usize;
    while first < cfg.clients {
        let count = share.min(cfg.clients - first);
        let child = std::process::Command::new(&exe)
            .args([
                "--child".to_string(),
                "--connect".to_string(),
                cfg.addr.clone(),
                "--clients".to_string(),
                count.to_string(),
                "--client-base".to_string(),
                (cfg.client_base + first).to_string(),
                "--txns".to_string(),
                cfg.txns_per_client.to_string(),
                "--entities".to_string(),
                cfg.entities.to_string(),
                "--init".to_string(),
                cfg.init.to_string(),
                "--zipf".to_string(),
                cfg.zipf_centi.to_string(),
                "--think-us".to_string(),
                cfg.think_us.to_string(),
                "--clients-per-conn".to_string(),
                cfg.clients_per_conn.to_string(),
                "--seed".to_string(),
                cfg.seed.to_string(),
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn child: {e}"))?;
        children.push(child);
        first += count;
    }
    let mut merged = LoadResult::default();
    for child in children {
        let out = child.wait_with_output().map_err(|e| format!("child wait: {e}"))?;
        if !out.status.success() {
            return Err(format!("child exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        merged.merge(&parse_child_output(&text)?);
    }
    Ok(merged)
}

/// Serialises one child's result for the parent: the commit mapping (one
/// line per commit) and a single summary line carrying the histogram's
/// raw parts.
fn print_child_result(result: &LoadResult) {
    let mut out = String::new();
    for &(txn, g, seq) in &result.mapping {
        let _ = writeln!(out, "map {txn} {g} {seq}");
    }
    let buckets: Vec<String> = result.latency.bucket_counts().iter().map(u64::to_string).collect();
    let _ = writeln!(
        out,
        "child-result commits={} aborted={} elapsed_us={} hist_sum={} hist_max={} hist_buckets={}",
        result.commits,
        result.aborted,
        result.elapsed.as_micros(),
        result.latency.sum(),
        result.latency.max(),
        buckets.join(",")
    );
    print!("{out}");
}

fn kv_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("{key}=");
    let at = line.find(&pat).ok_or_else(|| format!("child result missing {key}"))? + pat.len();
    let rest = &line[at..];
    Ok(rest.split_whitespace().next().unwrap_or(rest))
}

fn parse_child_output(text: &str) -> Result<LoadResult, String> {
    let mut result = LoadResult::default();
    let mut summarised = false;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("map ") {
            let mut it = rest.split_whitespace();
            let mut next = || {
                it.next()
                    .and_then(|t| t.parse::<u32>().ok())
                    .ok_or_else(|| format!("malformed map line: {line}"))
            };
            let (txn, g, seq) = (next()?, next()?, next()?);
            result.mapping.push((txn, g, seq));
        } else if line.starts_with("child-result ") {
            let int = |key: &str| -> Result<u64, String> {
                kv_field(line, key)?.parse().map_err(|_| format!("bad {key} in child result"))
            };
            result.commits = int("commits")?;
            result.aborted = int("aborted")?;
            result.elapsed = Duration::from_micros(int("elapsed_us")?);
            let sum = int("hist_sum")?;
            let max = int("hist_max")?;
            let buckets: Vec<u64> = kv_field(line, "hist_buckets")?
                .split(',')
                .map(|t| t.parse().map_err(|_| "bad hist bucket".to_string()))
                .collect::<Result<_, _>>()?;
            result.latency = LogHistogram::from_raw_parts(buckets, sum, max);
            summarised = true;
        }
    }
    if !summarised {
        return Err("child produced no result line".into());
    }
    Ok(result)
}

/// What one fully checked cell produced.
struct CellOutcome {
    result: LoadResult,
    /// The oracle's verdict and the transaction range the fetched
    /// history covered (`None` when it was empty).
    report: Option<(OracleReport, Option<(u32, u32)>)>,
    batches: u64,
}

/// Drives one cell end to end: self-host (or connect), run the closed
/// loop, fetch the history, run the oracle, and — when self-hosted —
/// drain the server and assert quiescence.
fn run_cell(o: &Options) -> Result<CellOutcome, String> {
    let mut cfg = o.load.clone();
    let server = match &o.connect {
        Some(addr) => {
            cfg.addr = addr.clone();
            None
        }
        None => {
            let server =
                Server::start(server_config(o)).map_err(|e| format!("server start: {e}"))?;
            cfg.addr = server.local_addr().to_string();
            Some(server)
        }
    };

    let result =
        if o.procs > 1 { run_multiproc(&cfg, o.procs)? } else { pr_server::run_load(&cfg)? };

    let mut ctl = Client::connect(&cfg.addr).map_err(|e| format!("control connect: {e}"))?;
    let report = if o.oracle {
        let (accesses, snapshot) = ctl.history().map_err(|e| format!("history fetch: {e}"))?;
        // The server keeps a bounded window of its newest batches: a run
        // longer than the window is checked over a suffix, and says so.
        let txns = accesses.iter().map(|a| a.txn.raw());
        let range = txns.clone().min().zip(txns.max());
        Some((oracle_check(&cfg, &result.mapping, &accesses, &snapshot)?, range))
    } else {
        None
    };

    let mut batches = 0;
    if let Some(server) = server {
        let commits = ctl.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        if commits != result.commits {
            return Err(format!(
                "server acked {commits} commits but the driver saw {}",
                result.commits
            ));
        }
        let summary = server.wait().map_err(|e| format!("server drain: {e}"))?;
        batches = summary.batches;
    }
    Ok(CellOutcome { result, report, batches })
}

fn print_cell(o: &Options, cell: &CellOutcome) {
    let r = &cell.result;
    println!(
        "pr-load: {} clients zipf {:.2} policy {}: {} commits, {} aborted in {:.2}s \
         ({:.0} tx/s) latency p50={}us p95={}us p99={}us{}{}",
        o.load.clients,
        f64::from(o.load.zipf_centi) / 100.0,
        o.policy.name(),
        r.commits,
        r.aborted,
        r.elapsed.as_secs_f64(),
        r.throughput(),
        r.latency.p50(),
        r.latency.p95(),
        r.latency.p99(),
        match &cell.report {
            Some((rep, range)) => format!(
                ", oracle green ({}, {} accesses, {} conflict edges)",
                match range {
                    Some((lo, hi)) => format!("history txns {lo}..={hi}"),
                    None => "empty history".into(),
                },
                rep.accesses,
                rep.conflict_edges
            ),
            None => String::new(),
        },
        if cell.batches > 0 { format!(", {} batches", cell.batches) } else { String::new() },
    );
}

fn run_default(o: &Options) -> ExitCode {
    match run_cell(o) {
        Ok(cell) => {
            print_cell(o, &cell);
            let expected = (o.load.clients * o.load.txns_per_client) as u64;
            if cell.result.commits != expected {
                eprintln!(
                    "pr-load: expected {expected} commits, saw {} ({} aborted)",
                    cell.result.commits, cell.result.aborted
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-load: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Crash soak
// ---------------------------------------------------------------------------

/// The nightly crash-injection battery: `cases` seeded in-process crash
/// points over the [`pr_server::crashsim`] harness, sweeping flush
/// policy, engine threads, page-cache-loss mode, and the crash byte
/// offset. Every case asserts the full durability contract
/// (acknowledged ⇒ replayed within the policy's loss window,
/// all-or-nothing recovery, idempotent replay). A failure writes its
/// reproduction recipe to `crash-soak-failure.txt` for artifact upload.
fn run_crash_soak(o: &Options, cases: usize) -> ExitCode {
    use pr_server::crashsim::{check_crash_case, run_to_crash, SimConfig};
    use pr_storage::wal::MemDir;

    let start = Instant::now();
    let mut crashed = 0usize;
    let mut completed = 0usize;
    for i in 0..cases {
        let seed = o.load.seed.wrapping_add(i as u64);
        let flush =
            ["per-batch", "every-4", "off"][i % 3].parse().expect("soak flush policies are valid");
        let mut system = SystemConfig::new(o.strategy, VictimPolicyKind::PartialOrder);
        system.grant_policy = o.policy;
        let lose_unsynced = (i / 6) % 2 == 1;
        let cfg = SimConfig { seed, flush, system, threads: 1 + i % 2, ..SimConfig::default() };

        // A dry run of the same case shape tells us how many bytes the
        // log grows to, so the seeded crash budget always lands inside
        // (or just past — the run-to-completion case) the real log.
        let fail = |why: String| {
            let body = format!(
                "pr-load crash-soak failure\ncase: {i}\nseed: {seed}\nflush: {flush}\n\
                 policy: {}\nthreads: {}\nlose_unsynced: {lose_unsynced}\nreason: {why}\n\
                 replay: pr-load --crash-soak {} --seed {}\n",
                system.grant_policy.name(),
                1 + i % 2,
                i + 1,
                o.load.seed,
            );
            let path = "crash-soak-failure.txt";
            if std::fs::write(path, &body).is_ok() {
                eprintln!("pr-load: wrote failing case to {path}");
            }
            eprintln!("pr-load: CRASH SOAK FAILED (case {i}): {why}");
            ExitCode::FAILURE
        };
        let dry = MemDir::new();
        if let Err(e) = run_to_crash(&cfg, &dry) {
            return fail(format!("dry run: {e}"));
        }
        let total = dry.persisted_bytes().max(1);
        let budget =
            1 + seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) % (total + total / 8);
        match check_crash_case(&cfg, budget, lose_unsynced) {
            Ok(v) if v.crashed => crashed += 1,
            Ok(_) => completed += 1,
            Err(e) => return fail(e),
        }
        if (i + 1) % 32 == 0 {
            println!(
                "crash soak: {}/{cases} cases green ({crashed} crashed, {completed} complete)",
                i + 1
            );
        }
    }
    println!(
        "crash soak passed: {cases} cases green ({crashed} crashed mid-log, {completed} ran \
         to drain) in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Malformed-frame probe
// ---------------------------------------------------------------------------

fn expect_error_and_close(c: &mut Client, want_code: u8, what: &str) -> Result<(), String> {
    match c.recv() {
        Ok(Ok(pr_server::Reply::Error { code, message })) if code == want_code => {
            println!("  {what}: rejected with protocol error {code} ({message})");
        }
        other => return Err(format!("{what}: expected error {want_code}, got {other:?}")),
    }
    // The server must close after a protocol error; a subsequent read
    // sees EOF, not a hang.
    match c.recv() {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(()),
        other => Err(format!("{what}: expected connection close, got {other:?}")),
    }
}

/// Exercises the malformed-input contract against a live server: each
/// probe must draw a typed protocol error (or a clean close), never a
/// hang, and the server must keep serving fresh connections afterwards.
fn run_probe(addr: &str) -> ExitCode {
    let result = (|| -> Result<(), String> {
        let timeout = Some(Duration::from_secs(5));

        // 1. Oversized declaration: 4-byte prefix claiming 2 MiB.
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(timeout).map_err(|e| e.to_string())?;
        c.send_raw(&(2u32 * 1024 * 1024).to_le_bytes()).map_err(|e| e.to_string())?;
        expect_error_and_close(&mut c, 1, "oversized frame")?;

        // 2. Garbage tag inside a well-formed frame.
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(timeout).map_err(|e| e.to_string())?;
        c.send_raw(&[1, 0, 0, 0, 0xEE]).map_err(|e| e.to_string())?;
        expect_error_and_close(&mut c, 2, "garbage tag")?;

        // 3. Truncated frame then half-close: the server must treat the
        // EOF as a clean disconnect (no reply, no hang, no crash).
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(timeout).map_err(|e| e.to_string())?;
        c.send_raw(&[16, 0, 0, 0, 0x01, 0x02, 0x03]).map_err(|e| e.to_string())?;
        c.shutdown_write().map_err(|e| e.to_string())?;
        match c.recv() {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                println!("  truncated frame: clean close, no reply");
            }
            other => return Err(format!("truncated frame: expected close, got {other:?}")),
        }

        // 4. The server survived all of it: a fresh connection still
        // answers STATS.
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(timeout).map_err(|e| e.to_string())?;
        let stats = c.stats().map_err(|e| format!("post-probe stats: {e}"))?;
        if !stats.contains("\"protocol_errors\"") {
            return Err(format!("post-probe stats reply malformed: {stats}"));
        }
        println!("  server still serving after probes (stats OK)");
        Ok(())
    })();
    match result {
        Ok(()) => {
            println!("malformed-frame probe passed: all rejections typed, no hangs");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-load: PROBE FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Soak
// ---------------------------------------------------------------------------

/// The nightly soak: the 10k+-client cell, multi-process, fully
/// oracle-checked. A failure writes the cell's reproduction recipe to
/// `soak-failure-<policy>.txt` for CI artifact upload.
fn run_soak(o: &Options) -> ExitCode {
    let start = Instant::now();
    let cell_o = Options {
        mode: Mode::Run,
        connect: None,
        load: LoadConfig {
            clients: 12_288,
            txns_per_client: 2,
            zipf_centi: 120,
            clients_per_conn: 1024,
            ..o.load.clone()
        },
        policy: o.policy,
        strategy: o.strategy,
        threads: o.threads,
        batch_max: o.batch_max,
        batch_deadline_us: o.batch_deadline_us,
        procs: o.procs.max(2),
        oracle: true,
        durability: o.durability.clone(),
    };
    let expected = (cell_o.load.clients * cell_o.load.txns_per_client) as u64;
    let failure = match run_cell(&cell_o) {
        Ok(cell) => {
            print_cell(&cell_o, &cell);
            (cell.result.commits != expected).then(|| {
                format!(
                    "expected {expected} commits, saw {} ({} aborted)",
                    cell.result.commits, cell.result.aborted
                )
            })
        }
        Err(e) => Some(e),
    };
    if let Some(why) = failure {
        write_soak_trace(&cell_o, &why);
        eprintln!("pr-load: SOAK FAILED ({}): {why}", o.policy.name());
        return ExitCode::FAILURE;
    }
    println!("soak passed: clean in {:.1}s", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// Everything needed to replay a failed soak cell by hand: the workload
/// is regenerable from (seed, entities, zipf, txns), so the recipe IS
/// the trace.
fn write_soak_trace(o: &Options, why: &str) {
    let path = format!("soak-failure-{}.txt", o.policy.name());
    let body = format!(
        "pr-load soak failure\n\
         reason: {why}\n\
         policy: {}\nclients: {}\ntxns_per_client: {}\nentities: {}\ninit: {}\n\
         zipf_centi: {}\nthink_us: {}\nclients_per_conn: {}\nseed: {}\nprocs: {}\n\
         threads: {}\nbatch_max: {}\nbatch_deadline_us: {}\n\
         replay: pr-load --clients {} --txns {} --entities {} --zipf {} --seed {} \
         --policy {} --procs {}\n",
        o.policy.name(),
        o.load.clients,
        o.load.txns_per_client,
        o.load.entities,
        o.load.init,
        o.load.zipf_centi,
        o.load.think_us,
        o.load.clients_per_conn,
        o.load.seed,
        o.procs,
        o.threads,
        o.batch_max,
        o.batch_deadline_us,
        o.load.clients,
        o.load.txns_per_client,
        o.load.entities,
        o.load.zipf_centi,
        o.load.seed,
        o.policy.name(),
        o.procs,
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("pr-load: cannot write {path}: {e}");
    } else {
        eprintln!("pr-load: wrote failing trace to {path}");
    }
}

// ---------------------------------------------------------------------------

fn run_shutdown(addr: &str) -> ExitCode {
    match Client::connect(addr).and_then(|mut c| c.shutdown()) {
        Ok(commits) => {
            println!("pr-load: server drained after {commits} commits");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-load: shutdown: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_child(o: &Options) -> ExitCode {
    let Some(addr) = &o.connect else {
        eprintln!("pr-load: --child needs --connect");
        return ExitCode::from(2);
    };
    let mut cfg = o.load.clone();
    cfg.addr = addr.clone();
    match pr_server::run_load(&cfg) {
        Ok(result) => {
            print_child_result(&result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pr-load: child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pr-load: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &o.mode {
        Mode::Run => run_default(&o),
        Mode::CrashSoak(cases) => run_crash_soak(&o, *cases),
        Mode::Probe(addr) => run_probe(addr),
        Mode::Soak => run_soak(&o),
        Mode::Shutdown(addr) => run_shutdown(addr),
        Mode::Child => run_child(&o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(args: &[&str]) -> Result<(usize, usize, usize), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_options(&args).map(|o| (o.load.clients, o.load.txns_per_client, o.threads))
    }

    #[test]
    fn parse_options_accepts_sized_runs_and_rejects_empty_ones() {
        assert_eq!(sizes(&[]), Ok((512, 4, 8)));
        assert_eq!(sizes(&["--clients", "64", "--txns", "2", "--threads", "4"]), Ok((64, 2, 4)));
        let rejected: [(&[&str], &str); 6] = [
            (&["--clients", "0"], "--clients needs at least 1"),
            (&["--txns", "0"], "--txns needs at least 1"),
            (&["--threads", "0"], "--threads needs at least 1"),
            (&["--procs", "0"], "--procs needs at least 1"),
            (&["--policy", "fair"], "unknown grant policy \"fair\""),
            (&["--bench"], "unknown argument \"--bench\""),
        ];
        for (args, why) in rejected {
            assert_eq!(sizes(args), Err(why.to_string()), "{args:?}");
        }
    }
}
