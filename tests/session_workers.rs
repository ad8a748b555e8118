//! A session spawns its worker threads once, not once per batch.
//!
//! Counts the process's OS threads (`Threads:` in `/proc/self/status`)
//! around a `threads: 4` session. `threads` is the multiprogramming
//! level, not the thread count: the session runs `min(4, max(2, cores))`
//! workers, so opening it adds one helper fewer than that (the calling
//! thread is a worker too). Fifty batches — one transaction each or many —
//! leave the count unchanged, and both `finish()` and a plain drop bring
//! it back to where it started. A `threads: 64` session adds at most
//! `max(2, cores) − 1`: in-flight transactions are data, not threads.
//!
//! One `#[test]` on purpose — the count is process-wide, so no other test
//! thread may start or stop beside the measured region. Linux only, where
//! `/proc` exists.

#![cfg(target_os = "linux")]

use partial_rollback::prelude::*;
use std::time::{Duration, Instant};

/// The process's current OS thread count.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Waits (briefly) for the count to settle at `want`: a joined thread can
/// stay counted for a moment while the kernel reaps it.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = os_threads();
        if now == want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn increment(entity: u32) -> TransactionProgram {
    let (a, v) = (EntityId::new(entity), VarId::new(0));
    TransactionProgram::try_from(vec![
        Op::LockExclusive(a),
        Op::Read { entity: a, into: v },
        Op::Write { entity: a, expr: Expr::add(Expr::var(v), Expr::lit(1)) },
        Op::Commit,
    ])
    .expect("valid program")
}

fn session(threads: usize) -> Session {
    Session::new(&GlobalStore::with_entities(8, Value::ZERO), ParConfig::with_threads(threads))
}

#[test]
fn a_session_spawns_its_helpers_once_and_joins_them() {
    let baseline = os_threads();
    let cores = std::thread::available_parallelism().map_or(1, usize::from).max(2);
    let helpers = 4.min(cores) - 1;

    let mut s = session(4);
    assert_eq!(os_threads(), baseline + helpers, "threads: 4 adds min(4, max(2, cores)) − 1");
    let wide: Vec<TransactionProgram> = (0..16).map(|i| increment(i % 8)).collect();
    for batch in 0..50 {
        let programs = if batch % 2 == 0 { vec![increment(batch % 8)] } else { wide.clone() };
        let out = s.execute(&programs).expect("batch");
        assert_eq!(out.commits(), programs.len());
        assert_eq!(os_threads(), baseline + helpers, "batch {batch} started or stopped a thread");
    }
    assert_eq!(s.admitted(), 25 + 25 * 16);
    s.finish().expect("quiescent");
    assert_eq!(settles_at(baseline), baseline, "finish() joins every helper");

    let mut s = session(4);
    s.execute(&wide).expect("batch");
    assert_eq!(os_threads(), baseline + helpers);
    drop(s);
    assert_eq!(settles_at(baseline), baseline, "a plain drop joins every helper");

    let mut s = session(64);
    assert!(os_threads() < baseline + cores, "threads: 64 adds at most max(2, cores) − 1");
    let out = s.execute(&wide).expect("batch");
    assert_eq!(out.commits(), wide.len());
    assert!(out.threads <= cores, "{} workers ran the batch", out.threads);
    s.finish().expect("quiescent");
    assert_eq!(settles_at(baseline), baseline, "finish() joins every helper");
}
