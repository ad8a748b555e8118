//! Engine metrics — the quantities the paper's arguments are about, plus
//! the latency/contention instrumentation behind the throughput harness:
//! a log-bucket histogram ([`LogHistogram`]) and per-entity wait-queue
//! high-water marks.

use crate::config::StrategyKind;
use crate::runtime::RollbackReceipt;
use pr_model::{EntityId, LockIndex, TxnId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A histogram with power-of-two ("log") buckets: bucket 0 counts the
/// value 0 and bucket *i* ≥ 1 counts values in `[2^(i−1), 2^i)`. Records
/// are O(1), storage is O(log max), and quantiles are read back as the
/// upper bound of the containing bucket (clamped to the observed max) —
/// exact enough for p50/p95/p99 in engine steps without storing samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// Bucket index for `value`: its bit length.
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one (used to aggregate runs).
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`q` in [0, 1]) as the upper bound of the bucket
    /// containing the target rank, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// The raw per-bucket counts (bucket 0 counts the value 0, bucket
    /// *i* ≥ 1 counts `[2^(i−1), 2^i)`). With [`Self::sum`] and
    /// [`Self::max`] this is the histogram's full state — the load
    /// driver ships these across process boundaries as plain integer
    /// lists and rebuilds with [`Self::from_raw_parts`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Reassembles a histogram from parts produced by
    /// [`Self::bucket_counts`] / [`Self::sum`] / [`Self::max`] (the
    /// count is the bucket total).
    pub fn from_raw_parts(buckets: Vec<u64>, sum: u64, max: u64) -> Self {
        let count = buckets.iter().sum();
        LogHistogram { buckets, count, sum, max }
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Counters accumulated by a [`crate::System`] over its lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Scheduler steps taken (including steps that ended in a wait).
    pub steps: u64,
    /// Atomic operations completed (state-index increments).
    pub ops_executed: u64,
    /// Deadlocks resolved.
    pub deadlocks: u64,
    /// Rollbacks performed to a lock state `> 0`.
    pub partial_rollbacks: u64,
    /// Rollbacks performed to lock state 0 (restarts).
    pub total_rollbacks: u64,
    /// Sum of rollback costs: states (= operations) lost and re-executed.
    /// This is the paper's measure of the damage deadlock handling does.
    pub states_lost: u64,
    /// States lost *beyond* the ideal (MCS-reachable) target because the
    /// SDG strategy had to fall back to an earlier well-defined state —
    /// the price of one-copy storage.
    pub rollback_overshoot: u64,
    /// Wait responses issued.
    pub waits: u64,
    /// Waits for which deadlock detection was skipped because the
    /// installed acquisition-order certificate vouched for every blocked
    /// transaction (`GrantPolicy::Ordered` fast path).
    pub certified_waits: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Deadlock resolutions whose cut set was provably optimal.
    pub cutset_optimal: u64,
    /// Deadlock resolutions that used the greedy fallback.
    pub cutset_greedy: u64,
    /// Peak total local copies held across all live transactions at once
    /// (Theorem 3 accounting: stack elements beyond base for MCS, one per
    /// exclusively held entity for total rollback and SDG).
    pub peak_copies: usize,
    /// Times each transaction was chosen as a rollback victim.
    pub preemptions: BTreeMap<TxnId, u32>,
    /// Steps each promoted waiter spent blocked before its lock was
    /// granted (grant latency; immediate grants are not recorded).
    pub grant_latency: LogHistogram,
    /// Total rollback cost (states lost) per resolved deadlock.
    pub resolution_cost: LogHistogram,
    /// Per-entity high-water mark of the wait-queue depth.
    pub queue_depth_high_water: BTreeMap<EntityId, usize>,
    /// Repair rollbacks performed (Repair strategy only): rollbacks whose
    /// suffix is re-executed from the replay tape rather than from scratch.
    pub repairs: u64,
    /// Suffix length (states between the rollback target and the
    /// high-water mark) per repair rollback. In a clean pure-Repair run
    /// its mass equals `states_lost` — the same reconciliation the
    /// resolution-cost histogram satisfies for the classic strategies.
    pub repair_suffix: LogHistogram,
    /// Suffix operations recomputed during replay (committed transactions
    /// only; harvested at commit time from the per-transaction ledger).
    pub ops_replayed: u64,
    /// Suffix operations whose taped outcome was reused during replay
    /// (committed transactions only). In a clean pure-Repair run,
    /// `ops_replayed + ops_reused == states_lost`.
    pub ops_reused: u64,
    /// Ready-queue pushes, counted by the pushing worker: one per promoted
    /// waiter and one per rollback victim (parallel engine only).
    /// A waiting transaction is data, not a thread, and these pushes are
    /// the only way it runs again.
    pub wakes: u64,
    /// Microseconds a resolver spent blocked capturing a cycle's slots,
    /// one sample per capture (parallel engine only).
    pub capture_wait: LogHistogram,
}

impl Metrics {
    /// Largest preemption count suffered by any single transaction — the
    /// mutual-preemption indicator (Figure 2 / Theorem 2).
    pub fn max_preemptions(&self) -> u32 {
        self.preemptions.values().copied().max().unwrap_or(0)
    }

    /// Total rollbacks of either kind.
    pub fn rollbacks(&self) -> u64 {
        self.partial_rollbacks + self.total_rollbacks
    }

    /// Fraction of executed operations that were wasted (re-executed
    /// work), in [0, 1].
    pub fn waste_ratio(&self) -> f64 {
        if self.ops_executed == 0 {
            0.0
        } else {
            self.states_lost as f64 / self.ops_executed as f64
        }
    }

    /// Records a victimisation of `txn`.
    pub fn record_preemption(&mut self, txn: TxnId) {
        *self.preemptions.entry(txn).or_insert(0) += 1;
    }

    /// Accounts for one executed rollback of `victim` under `strategy`.
    pub fn record_rollback(
        &mut self,
        victim: TxnId,
        strategy: StrategyKind,
        receipt: &RollbackReceipt,
    ) {
        self.states_lost += u64::from(receipt.cost);
        self.rollback_overshoot += u64::from(receipt.overshoot);
        if receipt.target == LockIndex::ZERO {
            self.total_rollbacks += 1;
        } else {
            self.partial_rollbacks += 1;
        }
        if strategy == StrategyKind::Repair {
            // The rolled-back suffix is not discarded: the victim replays
            // it from its tape. Its length is the histogram mass that must
            // reconcile with `states_lost` (and with the per-transaction
            // replayed/reused ledgers) in a clean run.
            self.repairs += 1;
            self.repair_suffix.record(u64::from(receipt.cost));
        }
        self.record_preemption(victim);
    }

    /// Accounts for one resolved deadlock whose plan's rollbacks lost
    /// `states_lost` states when executed, so the resolution-cost
    /// histogram sums exactly to the states-lost counter.
    pub fn record_resolution(&mut self, optimal: bool, states_lost: u64) {
        self.deadlocks += 1;
        if optimal {
            self.cutset_optimal += 1;
        } else {
            self.cutset_greedy += 1;
        }
        self.resolution_cost.record(states_lost);
    }

    /// Raises `entity`'s queue-depth high-water mark to `depth` if deeper.
    pub fn note_queue_depth(&mut self, entity: EntityId, depth: usize) {
        let hw = self.queue_depth_high_water.entry(entity).or_insert(0);
        *hw = (*hw).max(depth);
    }

    /// Deepest wait queue observed on any entity.
    pub fn max_queue_depth(&self) -> usize {
        self.queue_depth_high_water.values().copied().max().unwrap_or(0)
    }

    /// Folds another metrics record into this one — used by the parallel
    /// engine to aggregate per-worker metrics into a run-level total.
    /// Counters and histograms add; high-water marks take the maximum of
    /// the per-worker maxima (`peak_copies` is therefore a lower bound on
    /// the true cross-worker concurrent peak, which no single worker can
    /// observe).
    pub fn merge(&mut self, other: &Metrics) {
        // Exhaustive on purpose: a new field that is not merged here does
        // not compile.
        let Metrics {
            steps,
            ops_executed,
            deadlocks,
            partial_rollbacks,
            total_rollbacks,
            states_lost,
            rollback_overshoot,
            waits,
            certified_waits,
            commits,
            cutset_optimal,
            cutset_greedy,
            peak_copies,
            preemptions,
            grant_latency,
            resolution_cost,
            queue_depth_high_water,
            repairs,
            repair_suffix,
            ops_replayed,
            ops_reused,
            wakes,
            capture_wait,
        } = other;
        self.steps += steps;
        self.ops_executed += ops_executed;
        self.deadlocks += deadlocks;
        self.partial_rollbacks += partial_rollbacks;
        self.total_rollbacks += total_rollbacks;
        self.states_lost += states_lost;
        self.rollback_overshoot += rollback_overshoot;
        self.waits += waits;
        self.certified_waits += certified_waits;
        self.commits += commits;
        self.cutset_optimal += cutset_optimal;
        self.cutset_greedy += cutset_greedy;
        self.peak_copies = self.peak_copies.max(*peak_copies);
        for (txn, n) in preemptions {
            *self.preemptions.entry(*txn).or_insert(0) += n;
        }
        self.grant_latency.merge(grant_latency);
        self.resolution_cost.merge(resolution_cost);
        for (entity, depth) in queue_depth_high_water {
            self.note_queue_depth(*entity, *depth);
        }
        self.repairs += repairs;
        self.repair_suffix.merge(repair_suffix);
        self.ops_replayed += ops_replayed;
        self.ops_reused += ops_reused;
        self.wakes += wakes;
        self.capture_wait.merge(capture_wait);
    }
}

/// Summary statistics of one [`LogHistogram`], for reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSummary {
    /// Summarises `h`.
    pub fn of(h: &LogHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            max: h.max(),
        }
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        );
    }
}

/// Counters for the networked front end (`pr-server`): wire traffic,
/// admission, and group-commit behaviour. The engine-side story stays in
/// [`Metrics`]; this struct covers everything that happens between the
/// socket and the batch executor. One instance lives behind the server's
/// stats mutex; the STATS wire request serialises it with
/// [`ServerMetrics::to_json`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Malformed or oversized frames answered with a protocol error.
    pub protocol_errors: u64,
    /// Transactions submitted (admitted into a batch).
    pub submissions: u64,
    /// Submissions rejected before admission (unknown entity, bad
    /// program).
    pub rejected: u64,
    /// Submissions aborted unexecuted because the server was shutting
    /// down.
    pub aborted_on_shutdown: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batch flushes triggered by the batch filling up.
    pub flushes_full: u64,
    /// Batch flushes triggered by the group-commit deadline.
    pub flushes_deadline: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Write-ahead-log records appended (batch records + commit markers).
    pub wal_appends: u64,
    /// Write-ahead-log fsyncs issued (policy flushes, segment rolls, and
    /// the drain sync).
    pub wal_fsyncs: u64,
    /// Write-ahead-log bytes appended.
    pub wal_bytes: u64,
    /// Batches replayed from the redo log at startup (`--recover`).
    pub batches_recovered: u64,
    /// Transactions replayed from the redo log at startup.
    pub txns_recovered: u64,
    /// Transactions per executed batch.
    pub batch_fill: LogHistogram,
    /// Microseconds each submission waited in the open batch before its
    /// flush started — the group-commit latency contribution.
    pub group_wait_us: LogHistogram,
}

impl ServerMetrics {
    /// Folds another record into this one.
    pub fn merge(&mut self, other: &ServerMetrics) {
        self.connections += other.connections;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.protocol_errors += other.protocol_errors;
        self.submissions += other.submissions;
        self.rejected += other.rejected;
        self.aborted_on_shutdown += other.aborted_on_shutdown;
        self.batches += other.batches;
        self.flushes_full += other.flushes_full;
        self.flushes_deadline += other.flushes_deadline;
        self.commits += other.commits;
        self.wal_appends += other.wal_appends;
        self.wal_fsyncs += other.wal_fsyncs;
        self.wal_bytes += other.wal_bytes;
        self.batches_recovered += other.batches_recovered;
        self.txns_recovered += other.txns_recovered;
        self.batch_fill.merge(&other.batch_fill);
        self.group_wait_us.merge(&other.group_wait_us);
    }

    /// Serialises the record as a JSON object (hand-rolled, like the rest
    /// of the workspace's machine-readable output).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"pr-server-metrics-v1\",\"connections\":{},\
             \"frames_in\":{},\"frames_out\":{},\"protocol_errors\":{},\
             \"submissions\":{},\"rejected\":{},\"aborted_on_shutdown\":{},\
             \"batches\":{},\"flushes_full\":{},\"flushes_deadline\":{},\
             \"commits\":{},\"wal_appends\":{},\"wal_fsyncs\":{},\
             \"wal_bytes\":{},\"batches_recovered\":{},\"txns_recovered\":{},",
            self.connections,
            self.frames_in,
            self.frames_out,
            self.protocol_errors,
            self.submissions,
            self.rejected,
            self.aborted_on_shutdown,
            self.batches,
            self.flushes_full,
            self.flushes_deadline,
            self.commits,
            self.wal_appends,
            self.wal_fsyncs,
            self.wal_bytes,
            self.batches_recovered,
            self.txns_recovered
        );
        out.push_str("\"batch_fill\":");
        HistogramSummary::of(&self.batch_fill).write_json(&mut out);
        out.push_str(",\"group_wait_us\":");
        HistogramSummary::of(&self.group_wait_us).write_json(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preemption_tracking() {
        let mut m = Metrics::default();
        assert_eq!(m.max_preemptions(), 0);
        m.record_preemption(TxnId::new(1));
        m.record_preemption(TxnId::new(1));
        m.record_preemption(TxnId::new(2));
        assert_eq!(m.max_preemptions(), 2);
        assert_eq!(m.preemptions[&TxnId::new(1)], 2);
    }

    #[test]
    fn derived_quantities() {
        let m = Metrics {
            partial_rollbacks: 3,
            total_rollbacks: 2,
            states_lost: 50,
            ops_executed: 200,
            ..Default::default()
        };
        assert_eq!(m.rollbacks(), 5);
        assert!((m.waste_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(Metrics::default().waste_ratio(), 0.0);
    }

    #[test]
    fn log_histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 126);
        assert_eq!(h.max(), 100);
        // Rank 5 of 9 falls in the [2,4) bucket, upper bound 3.
        assert_eq!(h.p50(), 3);
        // p99 rank is the final sample; its bucket upper bound (127) is
        // clamped to the observed max.
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 100);
        assert!((h.mean() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_merge_matches_recording_everything_in_one() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        let mut all = LogHistogram::default();
        for v in [1u64, 5, 9] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 300] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn log_histogram_is_exact_on_zero_and_one() {
        let mut h = LogHistogram::default();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn metrics_merge_adds_counters_and_maxes_high_water_marks() {
        let mut a = Metrics {
            steps: 5,
            commits: 2,
            states_lost: 7,
            certified_waits: 4,
            peak_copies: 3,
            wakes: 4,
            ..Default::default()
        };
        a.record_preemption(TxnId::new(1));
        a.note_queue_depth(EntityId::new(0), 4);
        a.grant_latency.record(8);
        a.capture_wait.record(40);
        let mut b = Metrics {
            steps: 3,
            commits: 1,
            states_lost: 2,
            certified_waits: 6,
            peak_copies: 9,
            wakes: 1,
            ..Default::default()
        };
        b.record_preemption(TxnId::new(1));
        b.record_preemption(TxnId::new(2));
        b.note_queue_depth(EntityId::new(0), 2);
        b.grant_latency.record(16);
        b.capture_wait.record(0);
        b.capture_wait.record(300);
        a.merge(&b);
        assert_eq!(a.steps, 8);
        assert_eq!(a.commits, 3);
        assert_eq!(a.states_lost, 9);
        assert_eq!(a.certified_waits, 10);
        assert_eq!(a.peak_copies, 9);
        assert_eq!(a.preemptions[&TxnId::new(1)], 2);
        assert_eq!(a.preemptions[&TxnId::new(2)], 1);
        assert_eq!(a.queue_depth_high_water[&EntityId::new(0)], 4);
        assert_eq!(a.grant_latency.count(), 2);
        assert_eq!(a.grant_latency.sum(), 24);
        assert_eq!(a.wakes, 5);
        assert_eq!(a.capture_wait.count(), 3);
        assert_eq!(a.capture_wait.sum(), 340);
        assert_eq!(a.capture_wait.max(), 300);
    }

    #[test]
    fn queue_depth_high_water_is_monotone() {
        let mut m = Metrics::default();
        let a = EntityId::new(0);
        m.note_queue_depth(a, 2);
        m.note_queue_depth(a, 5);
        m.note_queue_depth(a, 3);
        m.note_queue_depth(EntityId::new(1), 1);
        assert_eq!(m.queue_depth_high_water[&a], 5);
        assert_eq!(m.max_queue_depth(), 5);
    }

    #[test]
    fn log_histogram_raw_parts_round_trip() {
        let mut h = LogHistogram::default();
        for v in [0u64, 1, 3, 8, 500] {
            h.record(v);
        }
        let rebuilt = LogHistogram::from_raw_parts(h.bucket_counts().to_vec(), h.sum(), h.max());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), 5);
        assert_eq!(rebuilt.p99(), h.p99());
    }

    #[test]
    fn server_metrics_merge_and_json() {
        let mut a =
            ServerMetrics { connections: 2, submissions: 10, commits: 9, ..Default::default() };
        a.batch_fill.record(5);
        a.group_wait_us.record(120);
        let mut b = ServerMetrics {
            connections: 1,
            submissions: 4,
            commits: 4,
            protocol_errors: 1,
            ..Default::default()
        };
        b.batch_fill.record(4);
        a.merge(&b);
        assert_eq!(a.connections, 3);
        assert_eq!(a.submissions, 14);
        assert_eq!(a.commits, 13);
        assert_eq!(a.protocol_errors, 1);
        assert_eq!(a.batch_fill.count(), 2);
        let json = a.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"schema\":\"pr-server-metrics-v1\"",
            "\"connections\":3",
            "\"submissions\":14",
            "\"commits\":13",
            "\"protocol_errors\":1",
            "\"batch_fill\":{\"count\":2",
            "\"group_wait_us\":{\"count\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
