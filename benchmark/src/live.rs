//! What one live pass (a timed run against the real server or session)
//! hands back, whichever driver produced it.

use crate::proc;
use crate::trace::Trace;
use std::time::Instant;

/// Equal windows every timed run is cut into. Throughput, CPU per commit
/// and the latency percentiles are computed per window and reported as
/// the median over the windows, so a disturbance that lasts a second or
/// two moves one window, not the result.
pub const WINDOWS: usize = 5;

/// Cumulative readings at a window boundary.
#[derive(Clone, Copy)]
pub struct Checkpoint {
    pub t_s: f64,
    pub cpu_s: f64,
    pub committed: u64,
}

impl Checkpoint {
    pub fn take(t0: Instant, committed: u64) -> Checkpoint {
        Checkpoint {
            t_s: t0.elapsed().as_secs_f64(),
            cpu_s: proc::cpu_seconds().unwrap_or(0.0),
            committed,
        }
    }
}

/// Counters `pr_par` exposes through `ParOutcome` (`par-*` workloads; the
/// server's `STATS` does not carry them, so they stay zero on `srv-*`).
#[derive(Clone, Copy, Default)]
pub struct EngineCounters {
    pub deadlocks: u64,
    /// Σ `TxnStats.states_lost`.
    pub states_lost: u64,
    pub rollbacks: u64,
    pub waits: u64,
    pub overshoot: u64,
    pub ops_replayed: u64,
    pub ops_reused: u64,
    pub peak_copies: u64,
}

/// Counters from the server's `STATS` reply, warm-up subtracted, plus the
/// `ServerSummary` returned at shutdown.
#[derive(Clone, Copy, Default)]
pub struct ServerCounters {
    pub batches: u64,
    pub flushes_full: u64,
    pub fill_mean: f64,
    /// Power-of-two bucket edge (ROADMAP item 1a) — coarse.
    pub group_wait_p50_us: f64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
}

/// Load-generator health (open loop only).
#[derive(Clone, Copy, Default)]
pub struct ClientCounters {
    pub sched_lag_p99_us: f64,
    pub inflight_max: u64,
}

#[derive(Default)]
pub struct LiveResult {
    pub attempted: u64,
    pub committed: u64,
    /// `ABORTED` + errors + unanswered + (open loop) late replies.
    pub failed: u64,
    /// First submit/execute to last reply/return.
    pub timed_s: f64,
    /// `VmHWM` when the timed window closed, before drain and checks.
    pub peak_rss_mib: f64,
    /// `WINDOWS + 1` readings: the start of the window and each boundary.
    pub checkpoints: Vec<Checkpoint>,
    /// Raw per-sample commit latencies, one sorted vector per window.
    pub latency_windows: Vec<Vec<u32>>,
    /// Output checks that failed, in words.
    pub problems: Vec<String>,
    /// Operations in the programs that committed.
    pub ops_committed: u64,
    /// Lock-word fast-path counters, cumulative over the session, and the
    /// commits (warm-up included) they cover.
    pub fast_grants: u64,
    pub inflations: u64,
    pub lifetime_commits: u64,
    pub engine: EngineCounters,
    pub server: ServerCounters,
    pub client: ClientCounters,
    /// `srv-closed-durable`: wall time of `pr_server::recover` over the
    /// log this pass wrote.
    pub recover_s: f64,
    pub trace: Option<Trace>,
}

/// The `q`-quantile of sorted samples by nearest rank.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Cuts samples in arrival order into [`WINDOWS`] consecutive groups of
/// equal size and sorts each.
pub fn split_windows(samples: &[u32]) -> Vec<Vec<u32>> {
    (0..WINDOWS)
        .map(|k| {
            let (from, to) = (samples.len() * k / WINDOWS, samples.len() * (k + 1) / WINDOWS);
            let mut window = samples[from..to].to_vec();
            window.sort_unstable();
            window
        })
        .collect()
}

pub fn saturating_ns(ns: u128) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}
