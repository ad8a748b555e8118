//! In-process crash-injection harness for the durability invariant.
//!
//! The e2e test kills a real `pr-server` process once; this module makes
//! the same experiment cheap enough to run *hundreds* of times by swapping
//! the filesystem for [`MemDir`]'s deterministic failpoint. One simulated
//! run drives the real engine ([`pr_par::Session`]) and the real
//! [`Journal`] batch by batch, recording each acknowledged batch's
//! snapshot as it goes — the run is its own ground truth, so the check
//! stays sound even when the engine schedules non-deterministically. When
//! the byte budget fires mid-append (a torn write, exactly like SIGKILL
//! inside `write(2)`), the harness recovers from the surviving disk image
//! — optionally dropping never-fsynced bytes, the page-cache-loss model —
//! and [`check_crash_case`] asserts the whole durability contract:
//!
//! * recovery never fails and never invents batches (`recovered ≤ acked`);
//! * recovery is all-or-nothing per batch — the recovered store equals
//!   *exactly* the snapshot after some acknowledged batch prefix;
//! * the loss window matches the flush policy: `per-batch` loses nothing
//!   acknowledged, `every-N` loses at most N−1 whole acked batches, and a
//!   graceful (non-crashed) drain loses nothing under any policy;
//! * recovery is idempotent — a second replay of the sealed log agrees.

use crate::durable::{recover, Journal};
use crate::DurabilityConfig;
use pr_core::SystemConfig;
use pr_model::Value;
use pr_par::{ParConfig, Session};
use pr_sim::generator::{GeneratorConfig, ProgramGenerator};
use pr_storage::wal::{decode_stream, FailPlan, FlushPolicy, LogDir, MemDir, WalError};
use pr_storage::{GlobalStore, Snapshot};
use std::sync::Arc;

/// One simulated server lifetime's shape.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Workload seed.
    pub seed: u64,
    /// WAL fsync policy under test.
    pub flush: FlushPolicy,
    /// Engine knobs (grant policy, strategy, victim).
    pub system: SystemConfig,
    /// Transactions in flight per batch (`ParConfig::threads`).
    pub threads: usize,
    /// Entity universe size.
    pub entities: u32,
    /// Initial entity value.
    pub init: i64,
    /// Zipf skew ×100 for the generated workload.
    pub zipf_centi: u16,
    /// Total transactions the run submits.
    pub txns: usize,
    /// Transactions per group-commit batch.
    pub batch: usize,
    /// WAL segment size — small, so crash points cover rotation too.
    pub segment_max: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            flush: FlushPolicy::PerBatch,
            system: SystemConfig::default(),
            threads: 1,
            entities: 64,
            init: 100,
            zipf_centi: 120,
            txns: 96,
            batch: 8,
            segment_max: 4096,
        }
    }
}

/// One acknowledged batch: what the durable log must be able to restore.
pub struct BatchMark {
    /// Store state after this batch published.
    pub snapshot: Snapshot,
    /// Transactions the batch committed.
    pub txns: u32,
}

/// What one simulated run produced before the crash (or completion).
pub struct SimTrace {
    /// Batches whose `log_batch` returned `Ok` — the acknowledged prefix.
    pub acked: Vec<BatchMark>,
    /// Whether the failpoint fired (false = ran to graceful drain).
    pub crashed: bool,
}

/// Runs the engine + journal over `dir` until the workload completes or
/// the failpoint fires. A completed run syncs the journal, modelling the
/// graceful drain every real shutdown performs.
pub fn run_to_crash(cfg: &SimConfig, dir: &MemDir) -> Result<SimTrace, String> {
    let gen_config = GeneratorConfig {
        num_entities: cfg.entities,
        skew_centi: cfg.zipf_centi,
        ..GeneratorConfig::default()
    };
    let programs = ProgramGenerator::new(gen_config, cfg.seed).generate_workload(cfg.txns);
    let store = GlobalStore::with_entities(cfg.entities, Value::new(cfg.init));
    let par_config =
        ParConfig { threads: cfg.threads, shards: 0, system: cfg.system, fast_path: true };
    let mut session = Session::new(&store, par_config);
    let durability = DurabilityConfig {
        dir: None,
        flush: cfg.flush,
        recover: false,
        segment_max: cfg.segment_max,
    };
    let mut journal = Journal::open(Arc::new(dir.clone()), &durability, store.snapshot(), 0)
        .map_err(|e| format!("journal open: {e}"))?;

    let mut trace = SimTrace { acked: Vec::new(), crashed: false };
    for (i, chunk) in programs.chunks(cfg.batch.max(1)).enumerate() {
        let base = session.admitted();
        let outcome = session.execute(chunk).map_err(|e| format!("engine batch {i}: {e}"))?;
        let request_ids: Vec<u64> =
            (0..chunk.len()).map(|j| (base as u64 + j as u64) << 32).collect();
        match journal.log_batch(
            base,
            &request_ids,
            session.stamp(),
            &outcome.snapshot,
            &outcome.accesses,
        ) {
            Ok(_) => trace
                .acked
                .push(BatchMark { snapshot: outcome.snapshot.clone(), txns: chunk.len() as u32 }),
            Err(WalError::Crashed) => {
                trace.crashed = true;
                return Ok(trace);
            }
            Err(e) => return Err(format!("journal batch {i}: {e}")),
        }
    }
    match journal.sync() {
        Ok(()) => Ok(trace),
        Err(WalError::Crashed) => {
            trace.crashed = true;
            Ok(trace)
        }
        Err(e) => Err(format!("drain sync: {e}")),
    }
}

/// Every record boundary in `dir`, as cumulative append-order byte
/// offsets — the exact budgets at which a crash tears *between* records.
/// Offsets strictly inside a record are torn-frame crash points instead;
/// the matrix sweeps both.
pub fn record_boundaries(dir: &MemDir) -> Result<Vec<u64>, String> {
    let mut base = 0u64;
    let mut out = Vec::new();
    for name in dir.list().map_err(|e| e.to_string())? {
        let bytes = dir.read(&name).map_err(|e| e.to_string())?;
        let (records, _tail) = decode_stream(&bytes);
        for (_, end) in records {
            out.push(base + end as u64);
        }
        base += bytes.len() as u64;
    }
    Ok(out)
}

/// What one verified crash case established.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Batches acknowledged before the crash.
    pub acked: usize,
    /// Batches recovery replayed.
    pub recovered: u64,
    /// Whether the failpoint actually fired at this budget.
    pub crashed: bool,
}

/// Runs one full crash case — run, crash at `budget` appended bytes,
/// recover from the surviving image — and checks the durability contract.
/// Returns `Err` with a reproduction message on any violation.
pub fn check_crash_case(
    cfg: &SimConfig,
    budget: u64,
    lose_unsynced: bool,
) -> Result<Verdict, String> {
    let ctx = |what: &str| {
        format!(
            "{what} [seed={} flush={} budget={budget} lose_unsynced={lose_unsynced} \
             txns={} batch={} seg={}]",
            cfg.seed, cfg.flush, cfg.txns, cfg.batch, cfg.segment_max
        )
    };
    let dir = MemDir::with_plan(FailPlan { crash_after_bytes: Some(budget) });
    let trace = run_to_crash(cfg, &dir).map_err(|e| ctx(&e))?;
    let surviving = dir.surviving(lose_unsynced);
    let rec = recover(&surviving, cfg.entities, cfg.init)
        .map_err(|e| ctx(&format!("recovery failed: {e}")))?;

    let acked = trace.acked.len() as u64;
    let recovered = rec.summary.batches;
    if recovered > acked {
        return Err(ctx(&format!(
            "recovery invented batches: {recovered} recovered, only {acked} acknowledged"
        )));
    }
    // Loss window per policy. A graceful (non-crashed) drain synced, so
    // nothing acknowledged may be lost under *any* policy; under a crash,
    // per-batch still loses nothing, every-N at most N−1 whole batches.
    let lost = acked - recovered;
    let allowed = if !trace.crashed || !lose_unsynced {
        Some(0)
    } else {
        cfg.flush.loss_window().map(u64::from)
    };
    if let Some(allowed) = allowed {
        if lost > allowed {
            return Err(ctx(&format!(
                "lost {lost} acknowledged batches (policy allows {allowed}): \
                 acked {acked}, recovered {recovered}"
            )));
        }
    }
    // All-or-nothing: the recovered store equals exactly the snapshot
    // after the recovered batch prefix — never a partially applied batch.
    let expected = match recovered {
        0 => GlobalStore::with_entities(cfg.entities, Value::new(cfg.init)).snapshot(),
        n => trace.acked[n as usize - 1].snapshot.clone(),
    };
    if rec.store.snapshot() != expected {
        return Err(ctx(&format!(
            "recovered store diverges from the snapshot after batch {recovered}"
        )));
    }
    let expected_txns: u64 =
        trace.acked[..recovered as usize].iter().map(|b| u64::from(b.txns)).sum();
    if rec.summary.txns != expected_txns {
        return Err(ctx(&format!("recovered {} txns, expected {expected_txns}", rec.summary.txns)));
    }
    // Idempotence: the seal left a log whose replay is stable.
    let again = recover(&surviving, cfg.entities, cfg.init)
        .map_err(|e| ctx(&format!("second recovery failed: {e}")))?;
    if again.summary.batches != recovered
        || again.summary.torn_tail
        || again.store.snapshot() != expected
    {
        return Err(ctx("recovery is not idempotent after sealing"));
    }
    Ok(Verdict { acked: trace.acked.len(), recovered, crashed: trace.crashed })
}
