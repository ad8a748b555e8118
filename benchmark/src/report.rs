//! Metric names, units and directions, and how each value is derived
//! from what the passes measured. `BENCHMARK.json` lists the same names;
//! `benchmark/README.md` is the glossary.

use crate::live::{quantile, Checkpoint, LiveResult};
use crate::replay::ReplayResult;
use crate::replica::{self, ReplicaResult};
use crate::trace::Trace;

/// A metric's name and unit. Its direction and, for end-to-end metrics,
/// its regression bound are in `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Defined and never zero on all seven workloads; bounded in
/// `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 6] = [
    metric("commit_tput_tps", "tx/s"),
    metric("commit_p50_us", "us"),
    metric("commit_p99_us", "us"),
    metric("cpu_us_per_commit", "us"),
    metric("peak_rss_mb", "MiB"),
    metric("setup_s", "s"),
];

/// End-to-end quantities that exist on some workloads only (or are zero
/// when all is well). They are printed by every run they are defined on
/// and checked by `--selfcheck` against these bounds.
pub const SPECIFIC_BOUNDS: [(&str, f64); 4] = [
    ("lost_states_per_deadlock", 0.02),
    ("recover_s", 0.25),
    ("wal_bytes_per_commit", 0.10),
    ("failed_frac", 0.0),
];

/// Everything the traced pass reports: the four above, then the layers.
pub const PER_LAYER: [MetricDef; 46] = [
    metric("lost_states_per_deadlock", "states"),
    metric("recover_s", "s"),
    metric("wal_bytes_per_commit", "B"),
    metric("failed_frac", "ratio"),
    metric("commit_samples", "count"),
    metric("wire.encode_request_ns_per_txn", "ns"),
    metric("wire.decode_request_ns_per_txn", "ns"),
    metric("wire.encode_reply_ns_per_txn", "ns"),
    metric("wire.bytes_per_submit", "B"),
    metric("model.validate_ns_per_txn", "ns"),
    metric("batch.fill_mean", "count"),
    metric("batch.flush_full_frac", "ratio"),
    metric("batch.group_wait_p50_us", "us"),
    metric("batch.push_pop_ns_per_txn", "ns"),
    metric("server.batches", "count"),
    metric("server.us_per_batch", "us"),
    metric("par.execute_us_per_txn", "us"),
    metric("par.fast_grants_per_commit", "count"),
    metric("par.inflations_per_commit", "count"),
    metric("par.waits_per_commit", "count"),
    metric("par.deadlocks_per_100_commits", "count"),
    metric("par.rollbacks_per_deadlock", "count"),
    metric("par.lost_work_frac", "ratio"),
    metric("par.overshoot_states_per_rollback", "states"),
    metric("par.ops_reused_frac", "ratio"),
    metric("par.peak_copies", "count"),
    metric("core.step_progressed_ns", "ns"),
    metric("core.step_progressed_count", "count"),
    metric("core.step_blocked_ns", "ns"),
    metric("core.step_blocked_count", "count"),
    metric("core.step_resolved_us", "us"),
    metric("core.step_resolved_count", "count"),
    metric("core.step_committed_ns", "ns"),
    metric("core.step_committed_count", "count"),
    metric("core.lost_us_per_deadlock", "us"),
    metric("durable.log_batch_us_per_batch", "us"),
    metric("durable.sync_us_per_batch", "us"),
    metric("durable.bytes_per_batch", "B"),
    metric("wal.fsyncs_per_batch", "count"),
    metric("wal.replay_ns_per_txn", "ns"),
    metric("client.sched_lag_p99_us", "us"),
    metric("client.inflight_max", "count"),
    metric("proc.unattributed_cpu_frac", "ratio"),
    metric("trace.overhead_frac", "ratio"),
    metric("trace.spans", "count"),
    metric("trace.timer_ns", "ns"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name).map_or("", |m| m.unit)
}

pub type Readings = Vec<(&'static str, f64)>;

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `failed` counts operations; a failed output check counts as one more.
pub fn failed_count(live: &LiveResult) -> u64 {
    live.failed + live.problems.len() as u64
}

/// Median over the windows that committed anything of `f(start, end)`.
fn over_windows(live: &LiveResult, f: impl Fn(&Checkpoint, &Checkpoint) -> f64) -> f64 {
    median(
        live.checkpoints
            .windows(2)
            .filter(|w| w[1].committed > w[0].committed)
            .map(|w| f(&w[0], &w[1]))
            .collect(),
    )
}

/// Committed transactions per second: the median window's rate.
pub fn throughput(live: &LiveResult) -> f64 {
    over_windows(live, |a, b| ratio((b.committed - a.committed) as f64, b.t_s - a.t_s))
}

/// Process CPU microseconds per commit: the median window's.
fn cpu_us_per_commit(live: &LiveResult) -> f64 {
    over_windows(live, |a, b| (b.cpu_s - a.cpu_s) * 1e6 / (b.committed - a.committed) as f64)
}

/// The `q`-quantile of commit latency in microseconds: the median over
/// the windows of each window's own quantile.
fn latency_us(live: &LiveResult, q: f64) -> f64 {
    let windows = live.latency_windows.iter().filter(|w| !w.is_empty());
    median(windows.map(|w| quantile(w, q) / 1e3).collect())
}

pub fn end_to_end(live: &LiveResult, setup_s: f64) -> Readings {
    vec![
        ("commit_tput_tps", throughput(live)),
        ("commit_p50_us", latency_us(live, 0.50)),
        ("commit_p99_us", latency_us(live, 0.99)),
        ("cpu_us_per_commit", cpu_us_per_commit(live)),
        ("peak_rss_mb", live.peak_rss_mib),
        ("setup_s", setup_s),
    ]
}

/// The workload-specific end-to-end quantities, zero where undefined.
pub fn specific(live: &LiveResult) -> Readings {
    let e = &live.engine;
    vec![
        ("lost_states_per_deadlock", ratio(e.states_lost as f64, e.deadlocks as f64)),
        ("recover_s", live.recover_s),
        ("wal_bytes_per_commit", ratio(live.server.wal_bytes as f64, live.committed as f64)),
        ("failed_frac", ratio(failed_count(live) as f64, live.attempted as f64)),
        ("commit_samples", live.latency_windows.iter().map(Vec::len).sum::<usize>() as f64),
    ]
}

/// What the traced run measured besides its untraced live pass.
pub struct Traced<'a> {
    /// Committed transactions per second of the traced live pass.
    pub traced_tput: f64,
    pub trace: &'a Trace,
    pub replica: Option<&'a ReplicaResult>,
    pub replay: Option<&'a ReplayResult>,
    pub bytes_per_submit: f64,
}

pub fn per_layer(live: &LiveResult, t: &Traced<'_>) -> Readings {
    let per_call = |name: &str| {
        let (ns, calls) = t.trace.total(name);
        ratio(ns as f64, calls as f64)
    };
    let e = &live.engine;
    let s = &live.server;
    let commits = live.committed as f64;
    let batches = s.batches as f64;
    let lost_per_deadlock = ratio(e.states_lost as f64, e.deadlocks as f64);
    let (replica_txns, wal_replay) =
        t.replica.map_or((0, 0.0), |r| (r.txns, r.wal_replay_ns_per_txn));
    let default_replay = ReplayResult::default();
    let replay = t.replay.unwrap_or(&default_replay);
    // The replica's busy time per transaction (its stage spans, summed)
    // against the live pass's CPU per commit. On `par-*` the benchmark's
    // loop is nothing but `Session::execute` calls, so there is no
    // plumbing to attribute and the residual is 0.
    let unattributed = if replica_txns > 0 {
        let busy_ns: u64 = replica::STAGES.iter().map(|stage| t.trace.total(stage).0).sum();
        1.0 - ratio(busy_ns as f64 / 1e3 / replica_txns as f64, cpu_us_per_commit(live))
    } else {
        0.0
    };

    let mut out = specific(live);
    out.extend([
        ("wire.encode_request_ns_per_txn", per_call("wire.encode_request")),
        ("wire.decode_request_ns_per_txn", per_call("wire.decode_request")),
        ("wire.encode_reply_ns_per_txn", per_call("wire.encode_reply")),
        ("wire.bytes_per_submit", t.bytes_per_submit),
        ("model.validate_ns_per_txn", per_call("model.validate")),
        ("batch.fill_mean", s.fill_mean),
        ("batch.flush_full_frac", ratio(s.flushes_full as f64, batches)),
        ("batch.group_wait_p50_us", s.group_wait_p50_us),
        ("batch.push_pop_ns_per_txn", per_call("batch.push_pop")),
        ("server.batches", batches),
        ("server.us_per_batch", ratio(live.timed_s * 1e6, batches)),
        ("par.execute_us_per_txn", per_call("par.execute") / 1e3),
        (
            "par.fast_grants_per_commit",
            ratio(live.fast_grants as f64, live.lifetime_commits as f64),
        ),
        ("par.inflations_per_commit", ratio(live.inflations as f64, live.lifetime_commits as f64)),
        ("par.waits_per_commit", ratio(e.waits as f64, commits)),
        ("par.deadlocks_per_100_commits", 100.0 * ratio(e.deadlocks as f64, commits)),
        ("par.rollbacks_per_deadlock", ratio(e.rollbacks as f64, e.deadlocks as f64)),
        ("par.lost_work_frac", ratio(e.states_lost as f64, live.ops_committed as f64)),
        ("par.overshoot_states_per_rollback", ratio(e.overshoot as f64, e.rollbacks as f64)),
        ("par.ops_reused_frac", ratio(e.ops_reused as f64, e.states_lost as f64)),
        ("par.peak_copies", e.peak_copies as f64),
        ("core.step_progressed_ns", replay.progressed.mean_ns()),
        ("core.step_progressed_count", replay.progressed.count as f64),
        ("core.step_blocked_ns", replay.blocked.mean_ns()),
        ("core.step_blocked_count", replay.blocked.count as f64),
        ("core.step_resolved_us", replay.resolved.mean_ns() / 1e3),
        ("core.step_resolved_count", replay.resolved.count as f64),
        ("core.step_committed_ns", replay.committed.mean_ns()),
        ("core.step_committed_count", replay.committed.count as f64),
        (
            "core.lost_us_per_deadlock",
            (replay.resolved.mean_ns() + lost_per_deadlock * replay.progressed.mean_ns()) / 1e3,
        ),
        ("durable.log_batch_us_per_batch", per_call("durable.log_batch") / 1e3),
        ("durable.sync_us_per_batch", per_call("durable.sync") / 1e3),
        ("durable.bytes_per_batch", ratio(s.wal_bytes as f64, batches)),
        ("wal.fsyncs_per_batch", ratio(s.wal_fsyncs as f64, batches)),
        ("wal.replay_ns_per_txn", wal_replay),
        ("client.sched_lag_p99_us", live.client.sched_lag_p99_us),
        ("client.inflight_max", live.client.inflight_max as f64),
        ("proc.unattributed_cpu_frac", unattributed),
        ("trace.overhead_frac", 1.0 - ratio(t.traced_tput, throughput(live))),
        ("trace.spans", t.trace.spans.len() as f64),
        ("trace.timer_ns", replay.timer_ns as f64),
    ]);
    out
}
