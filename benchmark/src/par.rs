//! The `par-*` workloads: `pr_par::Session::execute` called directly,
//! batch after batch, with no network in between.

use crate::gen::{expected_values, snapshot_problem, Deltas, Generator};
use crate::live::{saturating_ns, split_windows, Checkpoint, LiveResult, WINDOWS};
use crate::proc;
use crate::trace::{Trace, NO_PARENT};
use crate::workloads::{Workload, BATCH_MAX, ENGINE_THREADS, INIT_VALUE};
use pr_core::StrategyKind;
use pr_model::{TransactionProgram, Value};
use pr_par::{ParConfig, ParOutcome, Session};
use pr_storage::GlobalStore;
use std::sync::Arc;
use std::time::Instant;

/// Batches executed on a fresh session before the window opens.
const WARMUP_BATCHES: usize = 2;
/// Latency-sample capacity per second of window (one sample per batch).
const BATCH_CAP_PER_S: f64 = 50_000.0;

pub struct ProgramPool {
    pub programs: Vec<TransactionProgram>,
    pub deltas: Deltas,
}

impl ProgramPool {
    pub fn build(w: &Workload, seed: u64) -> ProgramPool {
        assert!(w.pool.is_multiple_of(BATCH_MAX), "pool must be whole batches");
        let mut generator = Generator::new(w.shape, seed, w.stream);
        let mut deltas = Deltas::default();
        let programs = (0..w.pool).map(|_| generator.generate(&mut deltas)).collect();
        ProgramPool { programs, deltas }
    }

    fn batches(&self) -> usize {
        self.programs.len() / BATCH_MAX
    }

    fn batch(&self, b: usize) -> &[TransactionProgram] {
        &self.programs[b * BATCH_MAX..(b + 1) * BATCH_MAX]
    }
}

fn initial_store(w: &Workload) -> GlobalStore {
    GlobalStore::with_entities(w.shape.entities, Value::new(INIT_VALUE))
}

fn new_session(w: &Workload) -> Session {
    let config =
        ParConfig { threads: ENGINE_THREADS, shards: 0, system: w.system(), fast_path: true };
    Session::new(&initial_store(w), config)
}

/// A session that has executed its warm-up batches.
pub struct Prepared {
    pub pool: Arc<ProgramPool>,
    session: Session,
}

pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let pool = Arc::new(ProgramPool::build(w, seed));
    let mut session = new_session(w);
    for b in 0..WARMUP_BATCHES {
        session.execute(pool.batch(b)).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Prepared { pool, session })
}

fn accumulate(live: &mut LiveResult, outcome: &ParOutcome) {
    let m = &outcome.metrics;
    let e = &mut live.engine;
    e.deadlocks += m.deadlocks;
    e.rollbacks += m.partial_rollbacks + m.total_rollbacks;
    e.waits += m.waits;
    e.overshoot += m.rollback_overshoot;
    e.ops_replayed += m.ops_replayed;
    e.ops_reused += m.ops_reused;
    e.peak_copies = e.peak_copies.max(m.peak_copies as u64);
    for t in &outcome.per_txn {
        e.states_lost += t.states_lost;
        live.committed += u64::from(t.committed);
    }
    // The slab's fast-path counters are cumulative over the session.
    live.fast_grants = outcome.fast.fast_grants;
    live.inflations = outcome.fast.inflations;
}

/// Executes pool batches in order, cycling, until `seconds` have passed.
pub fn run(w: &Workload, p: Prepared, seconds: f64, traced: bool) -> Result<LiveResult, String> {
    let Prepared { pool, mut session } = p;
    let batches = pool.batches();
    let mut executed = vec![0u64; batches];
    for count in executed.iter_mut().take(WARMUP_BATCHES) {
        *count += 1;
    }
    let cap = (seconds * BATCH_CAP_PER_S) as usize + 16;
    let mut live = LiveResult::default();
    let mut latency_ns: Vec<u32> = Vec::with_capacity(cap);
    let batch_ops: Vec<u64> =
        (0..batches).map(|b| pool.batch(b).iter().map(|p| p.len() as u64).sum()).collect();

    if proc::cpu_seconds().is_none() {
        live.problems.push("cannot read /proc/self/stat".into());
    }
    let t0 = Instant::now();
    live.checkpoints.push(Checkpoint::take(t0, 0));
    let mut trace = traced.then(|| Trace::new(t0));
    let mut next = WARMUP_BATCHES % batches;
    while t0.elapsed().as_secs_f64() < seconds && latency_ns.len() < cap {
        let span = trace
            .as_mut()
            .map(|t| t.open("par.execute", NO_PARENT, latency_ns.len() as u64, BATCH_MAX as u32));
        let started = Instant::now();
        let outcome = session.execute(pool.batch(next));
        latency_ns.push(saturating_ns(started.elapsed().as_nanos()));
        if let (Some(t), Some(span)) = (trace.as_mut(), span) {
            t.close(span);
        }
        live.attempted += BATCH_MAX as u64;
        match outcome {
            Ok(outcome) => {
                accumulate(&mut live, &outcome);
                live.ops_committed += batch_ops[next];
                executed[next] += 1;
            }
            Err(e) => {
                // The session must not be reused after an engine error.
                live.problems.push(format!("execute: {e}"));
                break;
            }
        }
        next = (next + 1) % batches;
        if t0.elapsed().as_secs_f64() >= seconds * live.checkpoints.len() as f64 / WINDOWS as f64 {
            live.checkpoints.push(Checkpoint::take(t0, live.committed));
        }
    }
    live.timed_s = t0.elapsed().as_secs_f64();
    live.peak_rss_mib = proc::peak_rss_mib().unwrap_or(0.0);
    live.failed = live.attempted - live.committed;
    live.lifetime_commits = live.committed + (WARMUP_BATCHES * BATCH_MAX) as u64;
    live.latency_windows = split_windows(&latency_ns);
    live.trace = trace;

    // O(n) output check: every executed program's net effect, once.
    let expected = expected_values(
        w.shape.entities,
        INIT_VALUE,
        &pool.deltas,
        (0..pool.programs.len()).map(|i| (i, executed[i / BATCH_MAX])),
    );
    live.problems.extend(snapshot_problem("final snapshot", &session.snapshot(), &expected));
    if let Err(e) = session.finish() {
        live.problems.push(format!("slab not quiescent: {e}"));
    }
    let e = &live.engine;
    if w.strategy == StrategyKind::Repair && e.ops_replayed + e.ops_reused != e.states_lost {
        live.problems.push(format!(
            "repair ledger: replayed {} + reused {} != states lost {}",
            e.ops_replayed, e.ops_reused, e.states_lost
        ));
    }
    if w.is_hot() && e.deadlocks == 0 {
        live.problems.push("no deadlock formed: the resolver was not exercised".into());
    }
    Ok(live)
}

/// The full differential oracle over a separate short session: per-batch
/// ledger reconciliation, conflict-serializability of the concatenated
/// history, equality with a serial reference. Returns the problems found.
pub fn verify(w: &Workload, pool: &ProgramPool) -> Vec<String> {
    let programs = &pool.programs[..w.verify_txns.min(pool.programs.len())];
    let mut session = new_session(w);
    let mut accesses = Vec::new();
    let mut problems = Vec::new();
    for batch in programs.chunks(BATCH_MAX) {
        match session.execute(batch) {
            Ok(outcome) => {
                if let Err(v) = pr_sim::oracle::check_accounting(&w.system(), &outcome) {
                    problems.push(format!("oracle: {v}"));
                }
                accesses.extend(outcome.accesses);
            }
            Err(e) => return vec![format!("oracle pass: {e}")],
        }
    }
    if let Err(v) = pr_sim::oracle::check_server_history(
        programs,
        &initial_store(w),
        &w.system(),
        &accesses,
        &session.snapshot(),
    ) {
        problems.push(format!("oracle: {v}"));
    }
    problems
}
