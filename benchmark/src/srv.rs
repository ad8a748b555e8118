//! The `srv-*` workloads: an in-process `pr_server::Server` driven over
//! loopback TCP by this file's own load generator.
//!
//! The generator's timed path does no generation and no allocation:
//! SUBMIT frames come from a pre-encoded pool with the request id patched
//! in place, replies are parsed straight out of the read buffer, and every
//! sample vector is allocated before the window opens. Control-plane
//! traffic (warm-up, STATS, HISTORY, SHUTDOWN, the oracle pass) uses
//! `pr_server::Client`.

use crate::gen::{expected_values, snapshot_problem, Deltas, Generator};
use crate::json::Json;
use crate::live::{
    quantile, saturating_ns, split_windows, Checkpoint, ClientCounters, LiveResult, ServerCounters,
    WINDOWS,
};
use crate::proc;
use crate::trace::{Span, Trace, NO_PARENT};
use crate::workloads::{
    Driver, Workload, BATCH_DEADLINE, BATCH_MAX, ENGINE_THREADS, INIT_VALUE, OPEN_LOOP_LATE,
};
use pr_model::{TransactionProgram, TxnId, Value};
use pr_server::wire::{self, Reply, Request};
use pr_server::{recover, Client, DurabilityConfig, Server, ServerConfig};
use pr_storage::wal::{FlushPolicy, FsDir};
use pr_storage::{GlobalStore, Snapshot};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions pushed through a fresh server before the window opens.
const WARMUP_TXNS: usize = 2048;
/// Byte offset of the request id inside a SUBMIT frame: length prefix,
/// then the tag byte.
const REQUEST_ID_AT: usize = 4 + 1;
const TAG_COMMITTED: u8 = 0x81;
const TAG_ABORTED: u8 = 0x82;
/// Closed-loop sample capacity per second of window; a run that would
/// exceed it stops submitting early instead of allocating.
const CLOSED_CAP_PER_S: f64 = 400_000.0;
/// How long a generator thread waits for a reply before it calls the
/// outstanding requests unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

const PENDING: u8 = 0;
const COMMITTED: u8 = 1;
const ABORTED: u8 = 2;

/// Pre-encoded SUBMIT frames plus what the checks need about them.
pub struct FramePool {
    bytes: Vec<u8>,
    ends: Vec<u32>,
    pub deltas: Deltas,
    ops: Vec<u32>,
    /// The first `verify_txns` programs, kept for the oracle pass.
    pub head: Vec<TransactionProgram>,
}

impl FramePool {
    pub fn build(w: &Workload, seed: u64) -> FramePool {
        let mut generator = Generator::new(w.shape, seed, w.stream);
        let mut pool = FramePool {
            bytes: Vec::new(),
            ends: Vec::with_capacity(w.pool),
            deltas: Deltas::default(),
            ops: Vec::with_capacity(w.pool),
            head: Vec::with_capacity(w.verify_txns),
        };
        for i in 0..w.pool {
            let program = generator.generate(&mut pool.deltas);
            let request = Request::Submit { request_id: 0, ops: program.ops().to_vec() };
            pool.bytes.extend_from_slice(&wire::frame(&wire::encode_request(&request)));
            pool.ends.push(u32::try_from(pool.bytes.len()).expect("frame pool below 4 GiB"));
            pool.ops.push(program.len() as u32);
            if i < w.verify_txns {
                pool.head.push(program);
            }
        }
        pool.check_layout();
        pool
    }

    /// The generator patches and parses frames by offset; prove once per
    /// set-up that the wire module still lays them out that way.
    fn check_layout(&self) {
        let mut patched = Vec::new();
        self.append_with_id(0, 0x0123_4567_89AB_CDEF, &mut patched);
        match wire::decode_request(&patched[4..]) {
            Ok(Request::Submit { request_id: 0x0123_4567_89AB_CDEF, .. }) => {}
            other => panic!("SUBMIT layout changed: patched frame decodes as {other:?}"),
        }
        let reply = Reply::Committed { request_id: 7, txn: TxnId::new(9) };
        let bytes = wire::frame(&wire::encode_reply(&reply));
        assert!(
            bytes.len() == 17 && bytes[4] == TAG_COMMITTED && bytes[5..13] == 7u64.to_le_bytes(),
            "COMMITTED layout changed"
        );
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    pub fn ops(&self, i: usize) -> u64 {
        u64::from(self.ops[i])
    }

    pub fn mean_frame_bytes(&self) -> f64 {
        self.bytes.len() as f64 / self.len() as f64
    }

    fn append_with_id(&self, i: usize, request_id: u64, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(self.frame(i));
        out[at + REQUEST_ID_AT..at + REQUEST_ID_AT + 8].copy_from_slice(&request_id.to_le_bytes());
    }
}

/// Generator threads and connections, clamped to the cores available: an
/// open-loop connection needs a sender and a receiver thread, a
/// closed-loop one a single thread.
pub fn connections(driver: Driver) -> usize {
    match driver {
        Driver::SrvOpen { .. } => (proc::nproc() / 2).clamp(1, 4),
        _ => proc::nproc().clamp(1, 4),
    }
}

pub fn server_config(w: &Workload, wal_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        entities: w.shape.entities,
        init: INIT_VALUE,
        threads: ENGINE_THREADS,
        shards: 0,
        system: w.system(),
        fast_path: true,
        batch_max: BATCH_MAX,
        batch_deadline: BATCH_DEADLINE,
        durability: DurabilityConfig {
            dir: wal_dir.map(Path::to_path_buf),
            flush: FlushPolicy::PerBatch,
            ..DurabilityConfig::default()
        },
    }
}

/// A server that is up, connected to and warm.
pub struct Prepared {
    pub pool: Arc<FramePool>,
    server: Server,
    control: Client,
    streams: Vec<TcpStream>,
    wal_dir: Option<PathBuf>,
}

fn io_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Sends pool frames `0..n` with request ids `0..n` and returns each
/// reply's transaction id by request id.
fn submit_and_collect(
    control: &mut Client,
    pool: &FramePool,
    n: usize,
) -> Result<Vec<TxnId>, String> {
    let mut out = Vec::new();
    for i in 0..n {
        pool.append_with_id(i % pool.len(), i as u64, &mut out);
    }
    control.send_raw(&out).map_err(|e| io_err("submit", e))?;
    let mut txns = vec![TxnId::new(0); n];
    for _ in 0..n {
        match control.recv().map_err(|e| io_err("recv", e))? {
            Ok(Reply::Committed { request_id, txn }) if (request_id as usize) < n => {
                txns[request_id as usize] = txn;
            }
            other => return Err(format!("expected COMMITTED, got {other:?}")),
        }
    }
    Ok(txns)
}

pub fn prepare(w: &Workload, seed: u64, out_dir: &Path) -> Result<Prepared, String> {
    let pool = Arc::new(FramePool::build(w, seed));
    let wal_dir = w.wal.then(|| out_dir.join(format!("wal-{}-{}", w.name, std::process::id())));
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| io_err("create WAL directory", e))?;
    }
    let server = Server::start(server_config(w, wal_dir.as_deref()))
        .map_err(|e| io_err("server start", e))?;
    let addr = server.local_addr().to_string();
    let mut control = Client::connect(&addr).map_err(|e| io_err("connect", e))?;
    let mut streams = Vec::new();
    for _ in 0..connections(w.driver) {
        let stream = TcpStream::connect(&addr).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| io_err("timeout", e))?;
        streams.push(stream);
    }
    submit_and_collect(&mut control, &pool, WARMUP_TXNS)?;
    Ok(Prepared { pool, server, control, streams, wal_dir })
}

/// Shuts a prepared server down without measuring anything.
pub fn discard(mut p: Prepared) -> Result<(), String> {
    drop(std::mem::take(&mut p.streams));
    p.control.shutdown().map_err(|e| io_err("shutdown", e))?;
    p.server.wait().map_err(|e| io_err("server", e))?;
    if let Some(dir) = &p.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

/// Reply bytes straight off the socket, parsed in place.
struct ReplyReader {
    buf: Vec<u8>,
    filled: usize,
}

impl ReplyReader {
    fn new() -> Self {
        ReplyReader { buf: vec![0; 256 * 1024], filled: 0 }
    }

    /// Blocks until the socket delivers more bytes.
    fn fill(&mut self, stream: &mut TcpStream) -> std::io::Result<()> {
        match stream.read(&mut self.buf[self.filled..])? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.filled += n;
                Ok(())
            }
        }
    }

    /// Hands every complete reply to `on_reply(committed, request_id)`.
    fn drain(&mut self, mut on_reply: impl FnMut(bool, u64)) -> Result<(), String> {
        let mut at = 0;
        while self.filled - at >= 4 {
            let len = u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes"));
            let len = len as usize;
            // COMMITTED is 13 payload bytes, ABORTED 10; nothing else is
            // expected on a data connection.
            if !(10..=13).contains(&len) {
                return Err(format!("unexpected reply frame of {len} bytes"));
            }
            if self.filled - at < 4 + len {
                break;
            }
            let payload = &self.buf[at + 4..at + 4 + len];
            let request_id = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
            match payload[0] {
                TAG_COMMITTED => on_reply(true, request_id),
                TAG_ABORTED => on_reply(false, request_id),
                tag => return Err(format!("unexpected reply tag 0x{tag:02x}")),
            }
            at += 4 + len;
        }
        self.buf.copy_within(at..self.filled, 0);
        self.filled -= at;
        Ok(())
    }
}

/// One generator connection's samples. Request `seq` of connection `c`
/// (of `n`) carries request id `seq × n + c`.
#[derive(Default)]
struct ConnResult {
    status: Vec<u8>,
    latency_ns: Vec<u32>,
    lag_ns: Vec<u32>,
    first_send_ns: u64,
    last_reply_ns: u64,
    inflight_max: u64,
    late: u64,
    spans: Vec<Span>,
    error: Option<String>,
}

fn ns_since(t0: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(t0).as_nanos() as u64
}

struct ConnPlan<'a> {
    pool: &'a FramePool,
    conn: usize,
    conns: usize,
    t0: Instant,
    traced: bool,
    /// Replies seen so far over all connections: a statistic the sampling
    /// thread reads at window boundaries, publishing nothing else.
    committed: &'a AtomicU64,
}

impl ConnPlan<'_> {
    fn request_id(&self, seq: usize) -> u64 {
        (seq * self.conns + self.conn) as u64
    }

    fn pool_index(&self, request_id: u64) -> usize {
        (request_id as usize + WARMUP_TXNS) % self.pool.len()
    }

    fn seq_of(&self, request_id: u64) -> usize {
        request_id as usize / self.conns
    }
}

/// Closed loop: `clients` logical clients multiplexed on one connection
/// by request id, each resubmitting as soon as it is answered. One thread
/// does both directions, so nothing is handed between threads; it cannot
/// deadlock against the server, whose reader never blocks on its executor
/// and whose replies (at most `clients × 17` bytes in flight) always fit
/// the socket buffer.
fn closed_conn(
    plan: &ConnPlan<'_>,
    mut stream: TcpStream,
    clients: usize,
    stop_at: Instant,
    cap: usize,
) -> ConnResult {
    let mut r = ConnResult {
        status: Vec::with_capacity(cap),
        latency_ns: Vec::with_capacity(cap),
        spans: Vec::with_capacity(if plan.traced { cap } else { 0 }),
        ..ConnResult::default()
    };
    let mut sent_ns: Vec<u64> = Vec::with_capacity(cap);
    let mut reader = ReplyReader::new();
    let mut out: Vec<u8> = Vec::with_capacity(clients * 1024);
    let mut free = clients;
    let mut outstanding = 0usize;
    loop {
        let now = Instant::now();
        if free > 0 && now < stop_at && sent_ns.len() + free <= cap {
            out.clear();
            let now_ns = ns_since(plan.t0, now);
            for _ in 0..free {
                let id = plan.request_id(sent_ns.len());
                plan.pool.append_with_id(plan.pool_index(id), id, &mut out);
                sent_ns.push(now_ns);
                r.status.push(PENDING);
            }
            if let Err(e) = stream.write_all(&out) {
                r.error = Some(io_err("write", e));
                break;
            }
            outstanding += free;
            free = 0;
        }
        if outstanding == 0 {
            break;
        }
        if let Err(e) = reader.fill(&mut stream) {
            r.error = Some(io_err("read", e));
            break;
        }
        let now_ns = ns_since(plan.t0, Instant::now());
        let answered_before = r.latency_ns.len();
        let drained = reader.drain(|committed, id| {
            let seq = plan.seq_of(id);
            if seq >= sent_ns.len() || r.status[seq] != PENDING {
                return;
            }
            r.status[seq] = if committed { COMMITTED } else { ABORTED };
            r.latency_ns.push(saturating_ns(u128::from(now_ns - sent_ns[seq])));
            if plan.traced {
                r.spans.push(Span {
                    name: "client.request",
                    start_ns: sent_ns[seq],
                    end_ns: now_ns,
                    parent: NO_PARENT,
                    id,
                    count: 1,
                });
            }
            free += 1;
            outstanding -= 1;
        });
        let answered = (r.latency_ns.len() - answered_before) as u64;
        plan.committed.fetch_add(answered, Ordering::Relaxed);
        r.last_reply_ns = now_ns;
        if let Err(e) = drained {
            r.error = Some(e);
            break;
        }
    }
    r.first_send_ns = sent_ns.first().copied().unwrap_or(0);
    r
}

/// Open-loop sender: request `seq` is due at `t0 + id × period`. A wake-up
/// that comes late sends everything that became due, and each of those is
/// still timed from its own due time.
fn open_sender(
    plan: &ConnPlan<'_>,
    mut stream: &TcpStream,
    period_ns: u64,
    total: usize,
    received: &AtomicU64,
) -> (Vec<u32>, u64, Option<String>) {
    let mut lag_ns: Vec<u32> = Vec::with_capacity(total);
    let mut inflight_max = 0u64;
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let due_ns = |seq: usize| plan.request_id(seq) * period_ns;
    let mut seq = 0usize;
    while seq < total {
        let mut now_ns = ns_since(plan.t0, Instant::now());
        if now_ns < due_ns(seq) {
            std::thread::sleep(Duration::from_nanos(due_ns(seq) - now_ns));
            now_ns = ns_since(plan.t0, Instant::now());
        }
        out.clear();
        while seq < total && due_ns(seq) <= now_ns {
            let id = plan.request_id(seq);
            plan.pool.append_with_id(plan.pool_index(id), id, &mut out);
            lag_ns.push(saturating_ns(u128::from(now_ns - due_ns(seq))));
            seq += 1;
        }
        if let Err(e) = stream.write_all(&out) {
            return (lag_ns, inflight_max, Some(io_err("write", e)));
        }
        // A statistic: the counter publishes no other data.
        inflight_max = inflight_max.max(seq as u64 - received.load(Ordering::Relaxed));
    }
    (lag_ns, inflight_max, None)
}

fn open_receiver(
    plan: &ConnPlan<'_>,
    mut stream: TcpStream,
    period_ns: u64,
    total: usize,
    received: &AtomicU64,
) -> ConnResult {
    let mut r = ConnResult {
        status: vec![PENDING; total],
        latency_ns: Vec::with_capacity(total),
        spans: Vec::with_capacity(if plan.traced { total } else { 0 }),
        ..ConnResult::default()
    };
    let mut reader = ReplyReader::new();
    let late_ns = OPEN_LOOP_LATE.as_nanos() as u64;
    let mut answered = 0usize;
    while answered < total {
        if let Err(e) = reader.fill(&mut stream) {
            r.error = Some(io_err("read", e));
            break;
        }
        let now_ns = ns_since(plan.t0, Instant::now());
        let drained = reader.drain(|committed, id| {
            let seq = plan.seq_of(id);
            if seq >= total || r.status[seq] != PENDING {
                return;
            }
            let due_ns = id * period_ns;
            let latency = now_ns.saturating_sub(due_ns);
            r.status[seq] = if committed { COMMITTED } else { ABORTED };
            r.latency_ns.push(saturating_ns(u128::from(latency)));
            if committed && latency > late_ns {
                r.late += 1;
            }
            if plan.traced {
                r.spans.push(Span {
                    name: "client.request",
                    start_ns: due_ns,
                    end_ns: now_ns,
                    parent: NO_PARENT,
                    id,
                    count: 1,
                });
            }
            answered += 1;
        });
        plan.committed
            .fetch_add(answered as u64 - received.load(Ordering::Relaxed), Ordering::Relaxed);
        received.store(answered as u64, Ordering::Relaxed);
        r.last_reply_ns = now_ns;
        if let Err(e) = drained {
            r.error = Some(e);
            break;
        }
    }
    r
}

/// One open-loop connection: a sender thread (this one) and a receiver.
fn open_conn(plan: &ConnPlan<'_>, stream: TcpStream, period_ns: u64, total: usize) -> ConnResult {
    let received = AtomicU64::new(0);
    let read_half = match stream.try_clone() {
        Ok(half) => half,
        Err(e) => {
            return ConnResult { error: Some(io_err("clone socket", e)), ..Default::default() }
        }
    };
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| open_receiver(plan, read_half, period_ns, total, &received));
        let (lag_ns, inflight_max, error) = open_sender(plan, &stream, period_ns, total, &received);
        let mut r = receiver.join().expect("receiver panicked");
        r.lag_ns = lag_ns;
        r.inflight_max = inflight_max;
        r.error = r.error.or(error);
        r
    })
}

fn stats_json(control: &mut Client) -> Result<Json, String> {
    let text = control.stats().map_err(|e| io_err("STATS", e))?;
    Json::parse(&text).map_err(|e| io_err("STATS JSON", e))
}

fn server_counters(before: &Json, after: &Json) -> ServerCounters {
    let n = |j: &Json, path: &[&str]| j.num(path).unwrap_or(0.0);
    let diff = |key: &str| (n(after, &[key]) - n(before, &[key])).max(0.0) as u64;
    let fills = n(after, &["batch_fill", "count"]) - n(before, &["batch_fill", "count"]);
    let filled = n(after, &["batch_fill", "count"]) * n(after, &["batch_fill", "mean"])
        - n(before, &["batch_fill", "count"]) * n(before, &["batch_fill", "mean"]);
    ServerCounters {
        batches: diff("batches"),
        flushes_full: diff("flushes_full"),
        fill_mean: if fills > 0.0 { filled / fills } else { 0.0 },
        group_wait_p50_us: n(after, &["group_wait_us", "p50"]),
        wal_bytes: diff("wal_bytes"),
        wal_fsyncs: diff("wal_fsyncs"),
    }
}

/// Runs the timed window against a prepared server, then drains it,
/// checks its outputs and (with a WAL) times recovery.
pub fn run(w: &Workload, p: Prepared, seconds: f64, traced: bool) -> Result<LiveResult, String> {
    let Prepared { pool, server, mut control, streams, wal_dir } = p;
    let conns = streams.len();
    let before = stats_json(&mut control)?;
    let mut live = LiveResult::default();
    if proc::cpu_seconds().is_none() {
        live.problems.push("cannot read /proc/self/stat".into());
    }
    let committed = AtomicU64::new(0);
    let t0 = Instant::now();
    let plan =
        |conn: usize| ConnPlan { pool: &pool, conn, conns, t0, traced, committed: &committed };

    // Generator threads run the window; this thread reads the cumulative
    // CPU time and commit count at each window boundary.
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| match w.driver {
                Driver::SrvClosed { clients } => {
                    let per_conn = (clients as usize / conns).max(1);
                    let cap = (seconds * CLOSED_CAP_PER_S / conns as f64) as usize + per_conn;
                    let stop_at = t0 + Duration::from_secs_f64(seconds);
                    scope.spawn(move || closed_conn(&plan(c), stream, per_conn, stop_at, cap))
                }
                Driver::SrvOpen { submits_per_s } => {
                    let period_ns = 1_000_000_000 / u64::from(submits_per_s);
                    let total = (seconds * f64::from(submits_per_s)) as usize;
                    let mine = total / conns + usize::from(c < total % conns);
                    scope.spawn(move || open_conn(&plan(c), stream, period_ns, mine))
                }
                Driver::Par => unreachable!("par workloads do not use the server driver"),
            })
            .collect();
        live.checkpoints.push(Checkpoint::take(t0, 0));
        for k in 1..=WINDOWS {
            let due = Duration::from_secs_f64(seconds * k as f64 / WINDOWS as f64);
            std::thread::sleep(due.saturating_sub(t0.elapsed()));
            live.checkpoints.push(Checkpoint::take(t0, committed.load(Ordering::Relaxed)));
        }
        handles.into_iter().map(|h| h.join().expect("generator panicked")).collect()
    });
    live.peak_rss_mib = proc::peak_rss_mib().unwrap_or(0.0);

    let mut trace = traced.then(|| Trace::new(t0));
    let mut committed_counts = vec![0u64; pool.len()];
    let (mut first_ns, mut last_ns) = (u64::MAX, 0u64);
    let mut lag_ns: Vec<u32> = Vec::new();
    let mut inflight_max = 0u64;
    live.latency_windows = vec![Vec::new(); WINDOWS];
    for (c, r) in results.into_iter().enumerate() {
        let plan = plan(c);
        for (seq, status) in r.status.iter().enumerate() {
            live.attempted += 1;
            if *status == COMMITTED {
                let index = plan.pool_index(plan.request_id(seq));
                committed_counts[index] += 1;
                live.ops_committed += pool.ops(index);
                live.committed += 1;
            } else {
                live.failed += 1;
            }
        }
        live.failed += r.late;
        if let Some(e) = r.error {
            live.problems.push(format!("connection {c}: {e}"));
        }
        first_ns = first_ns.min(r.first_send_ns);
        last_ns = last_ns.max(r.last_reply_ns);
        for (all, mine) in live.latency_windows.iter_mut().zip(split_windows(&r.latency_ns)) {
            all.extend_from_slice(&mine);
        }
        lag_ns.extend_from_slice(&r.lag_ns);
        inflight_max += r.inflight_max;
        if let Some(t) = trace.as_mut() {
            t.spans.extend_from_slice(&r.spans);
        }
    }
    for window in &mut live.latency_windows {
        window.sort_unstable();
    }
    lag_ns.sort_unstable();
    live.timed_s = last_ns.saturating_sub(first_ns) as f64 / 1e9;
    live.client = ClientCounters { sched_lag_p99_us: quantile(&lag_ns, 0.99) / 1e3, inflight_max };
    live.trace = trace;

    // Drain: counters, final snapshot, clean shutdown.
    let after = stats_json(&mut control)?;
    live.server = server_counters(&before, &after);
    let (_accesses, snapshot) = control.history().map_err(|e| io_err("HISTORY", e))?;
    let snapshot = Snapshot::from_pairs(snapshot.into_iter().map(|(e, v)| (e, Value::new(v))));
    let acknowledged = control.shutdown().map_err(|e| io_err("SHUTDOWN", e))?;
    let summary = server.wait().map_err(|e| io_err("server", e))?;
    live.fast_grants = summary.fast.fast_grants;
    live.inflations = summary.fast.inflations;
    live.lifetime_commits = summary.commits;

    // O(n) output check: every committed program's net effect, once.
    for count in committed_counts.iter_mut().take(WARMUP_TXNS) {
        *count += 1;
    }
    let expected = expected_values(
        w.shape.entities,
        INIT_VALUE,
        &pool.deltas,
        committed_counts.iter().copied().enumerate(),
    );
    live.problems.extend(snapshot_problem("drained snapshot", &snapshot, &expected));
    if acknowledged != live.committed + WARMUP_TXNS as u64 {
        live.problems.push(format!(
            "server acknowledged {acknowledged} commits, clients saw {}",
            live.committed + WARMUP_TXNS as u64
        ));
    }

    if let Some(dir) = &wal_dir {
        let timed = Instant::now();
        let recovered = FsDir::open(dir)
            .and_then(|fs| recover(&fs, w.shape.entities, INIT_VALUE))
            .map_err(|e| io_err("recover", e));
        live.recover_s = timed.elapsed().as_secs_f64();
        match recovered {
            Ok(rec) => {
                live.problems.extend(snapshot_problem(
                    "recovered store",
                    &rec.store.snapshot(),
                    &expected,
                ));
                if rec.summary.txns != acknowledged {
                    live.problems.push(format!(
                        "recovery replayed {} transactions, {acknowledged} were acknowledged",
                        rec.summary.txns
                    ));
                }
            }
            Err(e) => live.problems.push(e),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(live)
}

/// The full differential oracle over a separate, short server lifetime:
/// conflict-serializability of the stamped history plus equality with a
/// serial reference execution. Returns the problems found.
pub fn verify(w: &Workload, pool: &FramePool) -> Result<Vec<String>, String> {
    let n = pool.head.len();
    let server = Server::start(server_config(w, None)).map_err(|e| io_err("server start", e))?;
    let mut control =
        Client::connect(&server.local_addr().to_string()).map_err(|e| io_err("connect", e))?;
    let txns = submit_and_collect(&mut control, pool, n)?;
    let (accesses, snapshot) = control.history().map_err(|e| io_err("HISTORY", e))?;
    control.shutdown().map_err(|e| io_err("SHUTDOWN", e))?;
    server.wait().map_err(|e| io_err("server", e))?;

    // `check_server_history` wants programs[i] admitted as txn i + 1.
    let mut by_txn: Vec<Option<&TransactionProgram>> = vec![None; n];
    for (request, txn) in txns.iter().enumerate() {
        match by_txn.get_mut(txn.raw() as usize - 1) {
            Some(slot) => *slot = Some(&pool.head[request]),
            None => return Ok(vec![format!("reply names {txn}, beyond the {n} submitted")]),
        }
    }
    let Some(programs) = by_txn.into_iter().map(|p| p.cloned()).collect::<Option<Vec<_>>>() else {
        return Ok(vec!["transaction ids in replies are not a permutation".into()]);
    };
    let initial = GlobalStore::with_entities(w.shape.entities, Value::new(INIT_VALUE));
    let snapshot = Snapshot::from_pairs(snapshot.into_iter().map(|(e, v)| (e, Value::new(v))));
    Ok(pr_sim::oracle::check_server_history(&programs, &initial, &w.system(), &accesses, &snapshot)
        .err()
        .map(|violation| format!("oracle: {violation}"))
        .into_iter()
        .collect())
}
