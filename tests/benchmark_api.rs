//! What `benchmark/` compiles against, seen from tier-1.
//!
//! `benchmark/` is its own workspace: `cargo test` never builds it, so a
//! change to a public item it names used to surface only when the
//! benchmark driver ran, long after the PR. One function per benchmark
//! source file uses the library exactly as that file does — the two
//! exhaustive struct literals, the `log_batch` call, `Request::Submit`
//! into `TransactionProgram::try_from`, `System` stepped with a `match`
//! over the `StepOutcome` variants the replay names — and runs one tiny
//! batch through it. If this file stops compiling, so does the benchmark.

use partial_rollback::core::runtime::Phase;
use partial_rollback::core::{
    GrantPolicy, StepOutcome, StrategyKind, System, SystemConfig, VictimPolicyKind,
};
use partial_rollback::model::{EntityId, Expr, Op, TransactionProgram, TxnId, Value, VarId};
use partial_rollback::par::{ParConfig, ParOutcome, Session};
use partial_rollback::server::wire::{self, FrameAssembler, Reply, Request};
use partial_rollback::server::{
    recover, Batcher, Client, DurabilityConfig, Journal, Server, ServerConfig,
};
use partial_rollback::sim::oracle::{check_accounting, check_server_history};
use partial_rollback::storage::wal::{replay, FlushPolicy, FsDir, LogDir};
use partial_rollback::storage::{GlobalStore, Snapshot};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const ENTITIES: u32 = 8;
const INIT_VALUE: i64 = 1_000;

/// `benchmark/src/workloads.rs`: `Workload::system`.
fn system(strategy: StrategyKind) -> SystemConfig {
    SystemConfig::new(strategy, VictimPolicyKind::PartialOrder)
        .with_grant_policy(GrantPolicy::FairQueue)
}

/// `benchmark/src/gen.rs`: every `Op` variant by name and field,
/// `Expr::{add, var, lit}`, `from_parts` + `validate`.
fn generate(first: u32, second: u32, delta: i64) -> TransactionProgram {
    let var = |i: usize| VarId::new(i as u16);
    let mut ops: Vec<Op> = Vec::new();
    for (i, (e, exclusive)) in [(first, true), (second, false)].into_iter().enumerate() {
        let entity = EntityId::new(e);
        ops.push(if exclusive { Op::LockExclusive(entity) } else { Op::LockShared(entity) });
        ops.push(Op::Read { entity, into: var(i) });
        ops.push(Op::Compute(Expr::add(Expr::var(var(i)), Expr::lit(1))));
        if exclusive {
            ops.push(Op::Write { entity, expr: Expr::add(Expr::var(var(i)), Expr::lit(delta)) });
        }
    }
    ops.extend([first, second].map(|e| Op::Unlock(EntityId::new(e))));
    ops.push(Op::Commit);
    let program = TransactionProgram::from_parts(ops, vec![Value::ZERO; 2]);
    partial_rollback::model::validate::validate(&program).expect("valid program");
    program
}

/// Opposed lock orders on a few hot entities, so the batch can deadlock.
fn pool() -> Vec<TransactionProgram> {
    (0..16u32).map(|i| generate(i % 3, (i + 1 + i % 2) % 3, i64::from(i % 5) - 2)).collect()
}

fn initial_store() -> GlobalStore {
    GlobalStore::with_entities(ENTITIES, Value::new(INIT_VALUE))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pr-benchmark-api-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

#[test]
fn gen_rs_builds_programs_the_library_validates() {
    let programs = pool();
    assert!(programs.iter().all(|p| p.len() == 10));
    let snapshot: Snapshot = initial_store().snapshot();
    assert_eq!(snapshot.get(EntityId::new(0)).map(Value::raw), Some(INIT_VALUE));
}

#[test]
fn par_rs_drives_a_session_and_both_oracles() {
    for strategy in
        [StrategyKind::Total, StrategyKind::Mcs, StrategyKind::Sdg, StrategyKind::Repair]
    {
        let config = ParConfig { threads: 2, shards: 0, system: system(strategy), fast_path: true };
        let mut session = Session::new(&initial_store(), config);
        let programs = pool();
        let mut accesses = Vec::new();
        let mut committed = 0u64;
        for batch in programs.chunks(8) {
            let outcome: ParOutcome = session.execute(batch).expect("execute");
            let m = &outcome.metrics;
            let _ = (m.deadlocks, m.partial_rollbacks + m.total_rollbacks, m.waits);
            let _ = (m.rollback_overshoot, m.ops_replayed, m.ops_reused, m.peak_copies as u64);
            committed += outcome.per_txn.iter().map(|t| u64::from(t.committed)).sum::<u64>();
            let _: u64 = outcome.per_txn.iter().map(|t| t.states_lost).sum();
            let _ = (outcome.fast.fast_grants, outcome.fast.inflations);
            check_accounting(&system(strategy), &outcome).expect("accounting");
            accesses.extend(outcome.accesses);
        }
        assert_eq!(committed, programs.len() as u64);
        check_server_history(
            &programs,
            &initial_store(),
            &system(strategy),
            &accesses,
            &session.snapshot(),
        )
        .expect("history oracle");
        session.finish().expect("quiescent slab");
    }
}

#[test]
fn replay_rs_steps_the_deterministic_system() {
    let mut system = System::new(initial_store(), system(StrategyKind::Mcs));
    let mut active: Vec<TxnId> =
        pool().iter().take(4).map(|p| system.admit(p.clone()).expect("admit")).collect();
    let (mut progressed, mut committed, mut blocked, mut resolved) = (0u64, 0u64, 0u64, 0u64);
    let mut turn = 0usize;
    while !active.is_empty() {
        let ready: Vec<TxnId> = active
            .iter()
            .copied()
            .filter(|id| system.txn(*id).is_some_and(|rt| rt.phase == Phase::Running))
            .collect();
        assert!(!ready.is_empty(), "every in-flight transaction is blocked");
        let pick = ready[turn % ready.len()];
        turn += 1;
        match system.step(pick) {
            Ok(StepOutcome::Progressed) => progressed += 1,
            Ok(StepOutcome::Committed) => {
                active.retain(|id| *id != pick);
                committed += 1;
            }
            Ok(StepOutcome::Blocked { .. }) => blocked += 1,
            Ok(StepOutcome::DeadlockResolved { .. }) => resolved += 1,
            Err(e) => panic!("replay step: {e}"),
        }
    }
    assert_eq!(committed, 4);
    assert!(progressed > 0);
    let _ = (blocked, resolved, u64::from(TxnId::new(1).raw()));
    let mut carried = GlobalStore::new();
    for (id, value) in system.store().iter() {
        carried.create(id, value).expect("fresh store");
    }
}

#[test]
fn replica_rs_pushes_frames_through_every_stage() {
    let programs = pool();
    let frames: Vec<Vec<u8>> = programs
        .iter()
        .map(|p| {
            let request = Request::Submit { request_id: 0, ops: p.ops().to_vec() };
            wire::frame(&wire::encode_request(&request))
        })
        .collect();

    let store = initial_store();
    let config =
        ParConfig { threads: 2, shards: 0, system: system(StrategyKind::Mcs), fast_path: true };
    let mut session = Session::new(&store, config);
    let dir = scratch_dir("replica");
    let fs: Arc<dyn LogDir> = Arc::new(FsDir::open(&dir).expect("open WAL directory"));
    let durability = DurabilityConfig { flush: FlushPolicy::Off, ..DurabilityConfig::default() };
    let mut journal = Journal::open(fs, &durability, store.snapshot(), 0).expect("open journal");
    let batcher: Batcher<TransactionProgram> = Batcher::new(frames.len(), Duration::from_millis(2));
    let mut assembler = FrameAssembler::new();

    let mut submitted = Vec::new();
    for frame in &frames {
        assembler.feed(frame);
        let payload = assembler.next_frame().expect("well-formed").expect("a whole frame");
        let request = wire::decode_request(&payload).expect("decode");
        assert_eq!(&wire::frame(&wire::encode_request(&request)), frame, "decode then encode");
        let Request::Submit { ops, .. } = request else { panic!("not a SUBMIT") };
        let program = TransactionProgram::try_from(ops).expect("valid program");
        session.accepts(&program).expect("known entities");
        submitted.push(program);
    }
    assert_eq!(submitted, programs);
    for program in submitted {
        batcher.push(program).map_err(|_| "batcher closed").expect("push");
    }
    let (batch, _reason) = batcher.next_batch().expect("a batch");

    let base = session.admitted();
    let outcome = session.execute(&batch).expect("execute");
    let request_ids: Vec<u64> = (0..batch.len() as u64).collect();
    journal
        .log_batch(base, &request_ids, session.stamp(), &outcome.snapshot, &outcome.accesses)
        .expect("log batch");
    journal.sync().expect("sync");
    for i in 0..batch.len() as u32 {
        let reply = Reply::Committed { request_id: u64::from(i), txn: TxnId::new(base + i + 1) };
        assert_eq!(wire::frame(&wire::encode_reply(&reply)).len(), 17);
    }
    session.finish().expect("quiescent slab");
    drop(journal);

    let replayed = replay(&FsDir::open(&dir).expect("reopen")).expect("replay");
    assert_eq!(replayed.commits(), batch.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn srv_rs_runs_a_durable_server_lifetime() {
    let dir = scratch_dir("srv");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        entities: ENTITIES,
        init: INIT_VALUE,
        threads: 2,
        shards: 0,
        system: system(StrategyKind::Mcs),
        fast_path: true,
        batch_max: 8,
        batch_deadline: Duration::from_millis(2),
        durability: DurabilityConfig {
            dir: Some(dir.clone()),
            flush: FlushPolicy::PerBatch,
            ..DurabilityConfig::default()
        },
    };
    let server = Server::start(config).expect("server start");
    let mut control = Client::connect(&server.local_addr().to_string()).expect("connect");

    let programs = pool();
    let mut out = Vec::new();
    for (i, program) in programs.iter().enumerate() {
        let request = Request::Submit { request_id: i as u64, ops: program.ops().to_vec() };
        out.extend_from_slice(&wire::frame(&wire::encode_request(&request)));
    }
    control.send_raw(&out).expect("submit");
    let mut txns = vec![TxnId::new(0); programs.len()];
    for _ in 0..programs.len() {
        match control.recv().expect("recv") {
            Ok(Reply::Committed { request_id, txn }) => txns[request_id as usize] = txn,
            other => panic!("expected COMMITTED, got {other:?}"),
        }
    }
    assert!(control.stats().expect("STATS").contains("commits"));
    let (accesses, snapshot) = control.history().expect("HISTORY");
    let acknowledged = control.shutdown().expect("SHUTDOWN");
    let summary = server.wait().expect("server");
    assert_eq!((acknowledged, summary.commits), (16, 16));
    let _ = (summary.fast.fast_grants, summary.fast.inflations);

    // `check_server_history` wants programs[i] admitted as txn i + 1.
    let mut by_txn: Vec<Option<&TransactionProgram>> = vec![None; programs.len()];
    for (request, txn) in txns.iter().enumerate() {
        by_txn[txn.raw() as usize - 1] = Some(&programs[request]);
    }
    let admitted: Vec<TransactionProgram> =
        by_txn.into_iter().map(|p| p.cloned().expect("ids are a permutation")).collect();
    let snapshot = Snapshot::from_pairs(snapshot.into_iter().map(|(e, v)| (e, Value::new(v))));
    check_server_history(
        &admitted,
        &initial_store(),
        &system(StrategyKind::Mcs),
        &accesses,
        &snapshot,
    )
    .expect("history oracle");

    let rec = FsDir::open(&dir).and_then(|fs| recover(&fs, ENTITIES, INIT_VALUE)).expect("recover");
    assert_eq!(rec.summary.txns, acknowledged);
    assert_eq!(rec.store.snapshot(), snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}
