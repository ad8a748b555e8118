//! The replica pipeline: the same SUBMIT frames pushed single-threaded
//! through the public functions the server's reader and executor call,
//! one span per stage per batch.
//!
//! It does all of the server's layer work and none of its plumbing — no
//! sockets, no hand-off between reader, executor and writer threads, no
//! load generator — so the CPU per commit a live run burns beyond the
//! replica's busy time per transaction is what
//! `proc.unattributed_cpu_frac` reports. Stages run in the server's
//! order; `Session::execute` runs at the batch size the live pass
//! observed. The journal is opened with flush policy `off` so that
//! `log_batch` (encode + append) and `sync` (fsync) are timed apart.

use crate::srv::FramePool;
use crate::trace::{Trace, NO_PARENT};
use crate::workloads::{Workload, BATCH_DEADLINE, ENGINE_THREADS, INIT_VALUE};
use pr_model::{TransactionProgram, TxnId, Value};
use pr_par::{ParConfig, Session};
use pr_server::wire::{self, FrameAssembler, Reply, Request};
use pr_server::{Batcher, DurabilityConfig, Journal};
use pr_storage::wal::{replay, FlushPolicy, FsDir, LogDir};
use pr_storage::GlobalStore;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Span names of the pipeline stages, in the server's order.
pub const STAGES: [&str; 8] = [
    "wire.decode_request",
    "wire.encode_request",
    "model.validate",
    "batch.push_pop",
    "par.execute",
    "durable.log_batch",
    "durable.sync",
    "wire.encode_reply",
];

#[derive(Default)]
pub struct ReplicaResult {
    pub txns: u64,
    pub batches: u64,
    /// `pr_storage::wal::replay` alone over the replica's log.
    pub wal_replay_ns_per_txn: f64,
    pub problems: Vec<String>,
}

pub fn run(
    w: &Workload,
    pool: &FramePool,
    batch: usize,
    budget_s: f64,
    out_dir: &Path,
    trace: &mut Trace,
) -> Result<ReplicaResult, String> {
    let batch = batch.clamp(1, pool.len());
    let mut result = ReplicaResult::default();
    let store = GlobalStore::with_entities(w.shape.entities, Value::new(INIT_VALUE));
    let config =
        ParConfig { threads: ENGINE_THREADS, shards: 0, system: w.system(), fast_path: true };
    let mut session = Session::new(&store, config);
    let wal_dir = w.wal.then(|| out_dir.join(format!("wal-replica-{}", std::process::id())));
    let mut journal = match &wal_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("create WAL directory: {e}"))?;
            let fs: Arc<dyn LogDir> = Arc::new(FsDir::open(dir).map_err(|e| e.to_string())?);
            let durability =
                DurabilityConfig { flush: FlushPolicy::Off, ..DurabilityConfig::default() };
            Some(Journal::open(fs, &durability, store.snapshot(), 0).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let batcher: Batcher<TransactionProgram> = Batcher::new(batch, BATCH_DEADLINE);
    let mut assembler = FrameAssembler::new();

    let started = Instant::now();
    let mut at = 0usize;
    while started.elapsed().as_secs_f64() < budget_s {
        if at + batch > pool.len() {
            at = 0;
        }
        let b = result.batches;
        let n = batch as u32;
        let parent = trace.open("replica.batch", NO_PARENT, b, n);

        let span = trace.open("wire.decode_request", parent, b, n);
        let mut requests = Vec::with_capacity(batch);
        for i in at..at + batch {
            assembler.feed(pool.frame(i));
            let payload = assembler.next_frame().map_err(|e| e.to_string())?;
            let payload = payload.ok_or("assembler withheld a whole frame")?;
            requests.push(wire::decode_request(&payload).map_err(|e| e.to_string())?);
        }
        trace.close(span);

        let span = trace.open("wire.encode_request", parent, b, n);
        let mut reencoded_ok = true;
        for (i, request) in requests.iter().enumerate() {
            let bytes = wire::frame(&wire::encode_request(request));
            reencoded_ok &= bytes == pool.frame(at + i);
        }
        trace.close(span);
        if !reencoded_ok {
            result.problems.push(format!("batch {b}: decode then encode changed a frame"));
        }

        let span = trace.open("model.validate", parent, b, n);
        let mut programs = Vec::with_capacity(batch);
        for request in requests {
            let Request::Submit { ops, .. } = request else {
                return Err("pool frame is not a SUBMIT".into());
            };
            let program = TransactionProgram::try_from(ops).map_err(|e| e.to_string())?;
            session.accepts(&program).map_err(|e| format!("unknown entity {e}"))?;
            programs.push(program);
        }
        trace.close(span);

        let span = trace.open("batch.push_pop", parent, b, n);
        for program in programs {
            batcher.push(program).map_err(|_| "batcher closed")?;
        }
        let (programs, _reason) = batcher.next_batch().ok_or("batcher closed")?;
        trace.close(span);

        let base = session.admitted();
        let span = trace.open("par.execute", parent, b, n);
        let outcome = session.execute(&programs).map_err(|e| e.to_string())?;
        trace.close(span);

        if let Some(journal) = journal.as_mut() {
            let request_ids: Vec<u64> = (at as u64..(at + batch) as u64).collect();
            let span = trace.open("durable.log_batch", parent, b, 1);
            journal
                .log_batch(
                    base,
                    &request_ids,
                    session.stamp(),
                    &outcome.snapshot,
                    &outcome.accesses,
                )
                .map_err(|e| e.to_string())?;
            trace.close(span);
            let span = trace.open("durable.sync", parent, b, 1);
            journal.sync().map_err(|e| e.to_string())?;
            trace.close(span);
        }

        let span = trace.open("wire.encode_reply", parent, b, n);
        for i in 0..batch as u32 {
            let reply =
                Reply::Committed { request_id: u64::from(i), txn: TxnId::new(base + i + 1) };
            black_box(wire::frame(&wire::encode_reply(&reply)));
        }
        trace.close(span);

        trace.close(parent);
        at += batch;
        result.batches += 1;
        result.txns += batch as u64;
    }
    session.finish().map_err(|e| e.to_string())?;
    drop(journal);

    if let Some(dir) = &wal_dir {
        let fs = FsDir::open(dir).map_err(|e| e.to_string())?;
        let span = trace.open("wal.replay", NO_PARENT, 0, result.txns as u32);
        let replayed = replay(&fs).map_err(|e| e.to_string())?;
        let ns = trace.close(span);
        result.wal_replay_ns_per_txn = ns as f64 / result.txns.max(1) as f64;
        if replayed.commits() != result.txns {
            result.problems.push(format!(
                "replica log replays {} transactions, {} were logged",
                replayed.commits(),
                result.txns
            ));
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(result)
}
