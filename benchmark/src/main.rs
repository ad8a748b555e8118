//! `pr-benchmark` — the repository's wall-clock benchmark.
//!
//! Everything is measured from outside, by timing calls into public
//! functions of the crates under `../crates`. Three ways to run it:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//!   in this process and prints one JSON object as its last line: the
//!   end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//!   traced pass (`--trace 1`). This is what `BENCHMARK.json` names.
//! * without `--workload`, every workload runs in a fresh child process
//!   (a re-exec of this binary, so peak memory and warm state never leak
//!   from one workload to the next) and one result file is written.
//! * `--selfcheck` runs the whole set twice in alternating order and
//!   compares every metric pair with its bound.
//!
//! See `README.md` beside this package for the metric glossary.

mod gen;
mod json;
mod live;
mod par;
mod proc;
mod replay;
mod replica;
mod report;
mod srv;
mod trace;
mod workloads;

use json::Json;
use live::LiveResult;
use report::{Readings, Traced};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Trace;
use workloads::{Driver, Workload, WORKLOADS};

const DEFAULT_SECONDS: f64 = 10.0;
const QUICK_SECONDS: f64 = 0.5;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` each of the traced run's three stages gets:
/// untraced live pass, traced live pass, replica pipeline or replay.
const TRACED_LIVE_SHARE: f64 = 0.35;
const TRACED_LAYER_SHARE: f64 = 0.30;
const ALL_METRICS_PREFIX: &str = "all-metrics: ";

const USAGE: &str = "\
pr-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--selfcheck]

  --workload NAME  run one workload in this process (default: all seven, each in a child process)
  --seed N         input seed, echoed in the output (default 1)
  --seconds S      length of the timed window (default 10; 0.5 with --quick)
  --trace [0|1]    0: end-to-end pass only, 1: traced per-layer pass only (default: both)
  --quick          short windows, one set-up, pools at 1/8: a smoke test with every check on
  --selfcheck      run the set twice in alternating order and compare against the bounds
";

#[derive(Clone, Copy)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        selfcheck: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let known = || WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ");
                args.workload = Some(
                    workloads::find(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", known()))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.quick { QUICK_SECONDS } else { DEFAULT_SECONDS });
    Ok(args)
}

/// `benchmark/out` when started from the repository root (how
/// `BENCHMARK.json` starts it), `out` when started inside `benchmark/`.
fn out_dir() -> Result<PathBuf, String> {
    let dir = if Path::new("benchmark/Cargo.toml").exists() { "benchmark/out" } else { "out" };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    Ok(PathBuf::from(dir))
}

enum Prepared {
    Srv(srv::Prepared),
    Par(par::Prepared),
}

/// The generated inputs of a prepared workload, which outlive its run.
enum Pool {
    Frames(Arc<srv::FramePool>),
    Programs(Arc<par::ProgramPool>),
}

impl Prepared {
    fn pool(&self) -> Pool {
        match self {
            Prepared::Srv(p) => Pool::Frames(p.pool.clone()),
            Prepared::Par(p) => Pool::Programs(p.pool.clone()),
        }
    }
}

fn prepare(w: &Workload, seed: u64, out: &Path) -> Result<Prepared, String> {
    if w.is_srv() {
        srv::prepare(w, seed, out).map(Prepared::Srv)
    } else {
        par::prepare(w, seed).map(Prepared::Par)
    }
}

fn discard(p: Prepared) -> Result<(), String> {
    match p {
        Prepared::Srv(p) => srv::discard(p),
        Prepared::Par(_) => Ok(()),
    }
}

fn run_live(w: &Workload, p: Prepared, seconds: f64, traced: bool) -> Result<LiveResult, String> {
    match p {
        Prepared::Srv(p) => srv::run(w, p, seconds, traced),
        Prepared::Par(p) => par::run(w, p, seconds, traced),
    }
}

fn print_readings(title: &str, readings: &Readings) {
    println!("{title}:");
    for (name, value) in readings {
        println!("  {name:<36} {value:>16.4} {}", report::unit_of(name));
    }
}

fn readings_json(readings: &Readings) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in readings.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            report::unit_of(name)
        );
    }
    out.push('}');
    out
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn print_result_line(correct: bool, attempted: u64, failed: u64, metrics: &Readings) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        readings_json(metrics)
    );
}

fn print_header(w: &Workload, args: &Args, traced: bool, out: &Path) {
    println!(
        "== {} (seed {}, {} s, trace {}) ==",
        w.name,
        args.seed,
        args.seconds,
        u8::from(traced)
    );
    println!("why: {}", w.why);
    let generator = match w.driver {
        Driver::SrvOpen { submits_per_s } => {
            let c = srv::connections(w.driver);
            format!("open loop {submits_per_s} submits/s, {c} connection(s), {} thread(s)", 2 * c)
        }
        Driver::SrvClosed { clients } => {
            let c = srv::connections(w.driver);
            format!("closed loop {clients} clients, {c} connection(s), {c} thread(s)")
        }
        Driver::Par => "direct Session::execute calls from one thread".into(),
    };
    println!(
        "host: nproc {} | engine threads {} | generator: {generator}",
        proc::nproc(),
        workloads::ENGINE_THREADS
    );
    if w.wal {
        println!("wal: per-batch fsync on {} ({})", out.display(), proc::fs_type(out));
    }
}

fn report_problems<'a>(problems: impl IntoIterator<Item = &'a String>) {
    for problem in problems {
        println!("CHECK FAILED: {problem}");
    }
}

/// The workload at 1/8 of its pool, for `--quick`.
fn scaled(w: &Workload, quick: bool) -> Workload {
    if !quick {
        return *w;
    }
    let pool = (w.pool / 8).max(2 * workloads::BATCH_MAX);
    Workload { pool, verify_txns: (w.verify_txns / 8).min(pool), ..*w }
}

fn end_to_end_run(w: &Workload, args: &Args, out: &Path) -> Result<bool, String> {
    print_header(w, args, false, out);
    // The measured run comes first, in a process that has done nothing
    // else, so `peak_rss_mb` is not inflated by earlier set-ups; the
    // remaining set-ups, timed for the `setup_s` median, follow it.
    let mut setups = Vec::new();
    let started = Instant::now();
    let prepared = prepare(w, args.seed, out)?;
    setups.push(started.elapsed().as_secs_f64());
    let pool = prepared.pool();
    let mut live = run_live(w, prepared, args.seconds, false)?;

    let oracle_problems = match &pool {
        Pool::Frames(frames) => srv::verify(w, frames)?,
        Pool::Programs(programs) => par::verify(w, programs),
    };
    live.attempted += w.verify_txns as u64;
    println!(
        "checks: delta-additive snapshot over {} commits; differential oracle over {} transactions",
        live.committed, w.verify_txns
    );
    live.problems.extend(oracle_problems);
    report_problems(&live.problems);

    for _ in 1..if args.quick { 1 } else { SETUP_REPS } {
        let started = Instant::now();
        let extra = prepare(w, args.seed, out)?;
        setups.push(started.elapsed().as_secs_f64());
        discard(extra)?;
    }
    let e2e = report::end_to_end(&live, report::median(setups));
    let specific = report::specific(&live);
    print_readings("end-to-end", &e2e);
    print_readings("workload-specific (0 where the workload does not define it)", &specific);
    let all: Readings = e2e.iter().chain(&specific).copied().collect();
    println!("{ALL_METRICS_PREFIX}{}", readings_json(&all));
    let failed = report::failed_count(&live);
    print_result_line(failed == 0, live.attempted, failed, &e2e);
    Ok(failed == 0)
}

fn traced_run(w: &Workload, args: &Args, out: &Path) -> Result<bool, String> {
    print_header(w, args, true, out);
    let epoch = Instant::now();
    let live_s = args.seconds * TRACED_LIVE_SHARE;
    let layer_s = args.seconds * TRACED_LAYER_SHARE;

    let untraced = run_live(w, prepare(w, args.seed, out)?, live_s, false)?;
    let prepared = prepare(w, args.seed, out)?;
    let pool = prepared.pool();
    let mut traced = run_live(w, prepared, live_s, true)?;
    let traced_tput = report::throughput(&traced);

    let mut trace = Trace::new(epoch);
    trace.absorb(traced.trace.take().expect("traced pass records spans"));
    let (replica, replay, bytes_per_submit) = match &pool {
        Pool::Frames(frames) => {
            let batch = untraced.server.fill_mean.round().max(1.0) as usize;
            let replica = replica::run(w, frames, batch, layer_s, out, &mut trace)?;
            (Some(replica), None, frames.mean_frame_bytes())
        }
        Pool::Programs(programs) => {
            (None, Some(replay::run(w, programs, args.seed, layer_s, &mut trace)), 0.0)
        }
    };

    let layers = report::per_layer(
        &untraced,
        &Traced {
            traced_tput,
            trace: &trace,
            replica: replica.as_ref(),
            replay: replay.as_ref(),
            bytes_per_submit,
        },
    );
    let path = out.join(format!("trace-{}.json", w.name));
    trace.write_json(&path, w.name, args.seed).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} recorded, written to {}", trace.spans.len(), path.display());

    let mut problems: Vec<&String> = untraced.problems.iter().chain(&traced.problems).collect();
    problems.extend(replica.iter().flat_map(|r| &r.problems));
    problems.extend(replay.iter().flat_map(|r| &r.problems));
    report_problems(problems.iter().copied());
    print_readings("per-layer (0 where the layer does no work on this workload)", &layers);
    println!("{ALL_METRICS_PREFIX}{}", readings_json(&layers));
    let failed = untraced.failed + traced.failed + problems.len() as u64;
    print_result_line(failed == 0, untraced.attempted + traced.attempted, failed, &layers);
    Ok(failed == 0)
}

/// One child run's parsed output.
struct ChildRun {
    workload: &'static str,
    traced: bool,
    correct: bool,
    attempted: f64,
    failed: f64,
    /// Every metric of the `all-metrics:` line, in print order.
    metrics: Vec<(String, f64)>,
}

/// Re-executes this binary for one workload and one pass.
fn run_child(w: &'static Workload, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command.args(["--workload", w.name, "--seed", &args.seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result_line = stdout.lines().last().unwrap_or("");
    let result = Json::parse(result_line).map_err(|e| {
        format!("{}: child exited with {} and no result ({e})", w.name, output.status)
    })?;
    let all = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(ALL_METRICS_PREFIX))
        .ok_or("child printed no all-metrics line")
        .and_then(|l| Json::parse(l).map_err(|_| "unreadable all-metrics line"))?;
    let Json::Obj(fields) = all else { return Err("all-metrics is not an object".into()) };
    Ok(ChildRun {
        workload: w.name,
        traced,
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: result.num(&["attempted"]).unwrap_or(0.0),
        failed: result.num(&["failed"]).unwrap_or(0.0),
        metrics: fields
            .into_iter()
            .filter_map(|(name, v)| v.num(&["value"]).map(|value| (name, value)))
            .collect(),
    })
}

/// Runs the chosen passes of every workload, in `order`.
fn run_set(args: &Args, order: &[&'static Workload]) -> Result<Vec<ChildRun>, String> {
    let mut runs = Vec::new();
    for &w in order {
        for traced in [false, true] {
            if args.trace.is_none_or(|only| only == traced) {
                runs.push(run_child(w, args, traced)?);
            }
        }
    }
    Ok(runs)
}

fn write_result_file(args: &Args, runs: &[ChildRun], out: &Path) -> Result<PathBuf, String> {
    let mut text = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"runs\": [\n",
        args.seed,
        args.seconds,
        proc::nproc()
    );
    for (i, run) in runs.iter().enumerate() {
        let _ = write!(
            text,
            "  {{\"workload\": \"{}\", \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {{",
            run.workload,
            u8::from(run.traced),
            run.correct,
            run.attempted,
            run.failed
        );
        for (j, (name, value)) in run.metrics.iter().enumerate() {
            let _ = write!(text, "{}\"{name}\": {value}", if j == 0 { "" } else { ", " });
        }
        let _ = writeln!(text, "}}}}{}", if i + 1 == runs.len() { "" } else { "," });
    }
    text.push_str("]}\n");
    let path = out.join(format!("result-seed{}.json", args.seed));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn full_set(args: &Args, out: &Path) -> Result<bool, String> {
    let order: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let started = Instant::now();
    let runs = run_set(args, &order)?;
    println!("\n== summary (seed {}, {:.1} s wall) ==", args.seed, started.elapsed().as_secs_f64());
    for run in runs.iter().filter(|r| !r.traced) {
        let pick = |name: &str| {
            run.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |(_, value)| *value)
        };
        println!(
            "{:<20} {:>10.0} tx/s  p50 {:>9.1} us  p99 {:>9.1} us  {:>7.2} cpu-us/commit  \
             {:>6.1} MiB  lost/deadlock {:>6.1}  {}",
            run.workload,
            pick("commit_tput_tps"),
            pick("commit_p50_us"),
            pick("commit_p99_us"),
            pick("cpu_us_per_commit"),
            pick("peak_rss_mb"),
            pick("lost_states_per_deadlock"),
            if run.correct { "ok" } else { "FAILED" }
        );
    }
    for run in runs.iter().filter(|r| r.traced && r.workload.starts_with("par-hot-")) {
        let lost = run.metrics.iter().find(|(n, _)| n == "core.lost_us_per_deadlock");
        println!(
            "{:<20} core.lost_us_per_deadlock {:>9.2} us",
            run.workload,
            lost.map_or(0.0, |(_, value)| *value)
        );
    }
    let path = write_result_file(args, &runs, out)?;
    println!("result written to {}", path.display());
    Ok(runs.iter().all(|r| r.correct))
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .into_iter()
        .find(|p| Path::new(p).exists())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = json.arr("end_to_end").ok_or("BENCHMARK.json has no end_to_end")?;
    metrics
        .iter()
        .map(|m| Some((m.str("name")?.to_string(), m.num(&["bound"])?)))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".into())
}

/// Runs the set forwards then backwards and compares every pair.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut bounds = declared_bounds()?;
    bounds.extend(report::SPECIFIC_BOUNDS.iter().map(|(name, bound)| (name.to_string(), *bound)));
    let args = Args { trace: args.trace.or(Some(false)), ..*args };
    let forwards: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let backwards: Vec<&'static Workload> = WORKLOADS.iter().rev().collect();
    let first = run_set(&args, &forwards)?;
    let second = run_set(&args, &backwards)?;

    println!("\n== selfcheck (seed {}) ==", args.seed);
    println!(
        "{:<20} {:<26} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for a in &first {
        let Some(b) = second.iter().find(|b| b.workload == a.workload && b.traced == a.traced)
        else {
            continue;
        };
        agree &= a.correct && b.correct;
        for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
            let diff = if x == y { 0.0 } else { (x - y).abs() / ((x + y) / 2.0).abs() };
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, bound)| *bound);
            // Undefined on this workload: both readings are zero.
            let verdict = match bound {
                Some(bound) if diff > bound => {
                    agree = false;
                    "DISAGREE"
                }
                _ => "",
            };
            println!(
                "{:<20} {:<26} {:>14.4} {:>14.4} {:>7.2}% {:>7} {verdict}",
                a.workload,
                name,
                x,
                y,
                100.0 * diff,
                bound.map_or("-".into(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    println!("selfcheck: {}", if agree { "every pair within its bound" } else { "FAILED" });
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("pr-benchmark: {message}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = out_dir().and_then(|out| match args.workload {
        Some(w) => {
            let w = scaled(w, args.quick);
            if args.trace == Some(true) {
                traced_run(&w, &args, &out)
            } else {
                end_to_end_run(&w, &args, &out)
            }
        }
        None if args.selfcheck => selfcheck(&args),
        None => full_set(&args, &out),
    });
    match outcome {
        // A single-workload run that printed its result line exits 0 even
        // when a check failed: the line's `correct` field says so.
        Ok(correct) if correct || args.workload.is_some() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pr-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
