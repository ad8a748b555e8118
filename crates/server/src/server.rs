//! The TCP server: accept loop, per-connection readers, and the single
//! batch-executor thread that drives a [`pr_par::Session`].
//!
//! Threading model (std only, no async runtime):
//!
//! * **accept thread** — non-blocking accept loop; hands each connection
//!   a reader thread and a shared writer handle.
//! * **reader threads** (one per connection) — reassemble frames, decode
//!   requests, validate submissions, and push work to the [`Batcher`].
//!   Replies to protocol errors and `STATS` are written directly; all
//!   engine-touching requests go through the executor so the session
//!   stays single-owner.
//! * **executor thread** — pulls batches, runs each through
//!   [`Session::execute`] (one quiescent engine run per batch), checks
//!   the batch's history online ([`HistoryWindow::check`]), and writes
//!   `COMMITTED` replies for the whole batch after the run — that is the
//!   group commit: no client hears success before its whole batch is
//!   checked and durable in the slab.
//!
//! Connection writers are a `Mutex<TcpStream>` per connection: frames
//! are written whole under the lock, so replies from the executor and the
//! reader interleave at frame granularity, never inside a frame.
//!
//! **Shutdown** is the drain protocol the ISSUE's fix demands: the
//! `SHUTDOWN` request sets the refuse-new-work flag, closes the batcher
//! (queued submissions still execute), and the executor — after the final
//! drain — asserts slab quiescence via [`Session::finish`]
//! (`check_quiescent`), replies `SHUTDOWN_ACK`, and returns. Submissions
//! arriving after the flag flips are answered `ABORTED(shutdown)` instead
//! of being silently dropped.

use crate::batch::{Batcher, FlushReason};
use crate::durable::{recover, DurabilityConfig, Journal, Recovery};
use crate::history::{HistoryWindow, HISTORY_WINDOW};
use crate::wire::{
    decode_request, encode_reply, frame, AbortReason, FrameAssembler, Reply, Request,
    HISTORY_CHUNK_ACCESSES,
};
use pr_core::{GrantPolicy, ServerMetrics, SystemConfig};
use pr_model::{TransactionProgram, TxnId, Value};
use pr_par::{CommittedAccess, FastPathStats, ParConfig, ParError, Session};
use pr_storage::wal::{FsDir, LogDir};
use pr_storage::GlobalStore;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Parses a `--policy` value for the threaded stack (`pr-server`,
/// `pr-load`). `ordered` is refused: the threaded engine installs no
/// acquisition-order certificate, so it would run the fair queue under
/// another name.
pub fn parse_grant_policy(name: &str) -> Result<GrantPolicy, String> {
    match GrantPolicy::parse(name) {
        Some(GrantPolicy::Ordered) => Err("grant policy \"ordered\" is not available here: \
             certificates are honoured by the deterministic engine and the explorer only"
            .into()),
        Some(policy) => Ok(policy),
        None => Err(format!("unknown grant policy {name:?}")),
    }
}

/// Everything the server needs to come up.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks an ephemeral port;
    /// the bound address is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Entity universe size — entities `0..entities` exist, nothing else.
    pub entities: u32,
    /// Initial value of every entity.
    pub init: i64,
    /// Engine worker threads per batch.
    pub threads: usize,
    /// Lock-table shards (0 = auto).
    pub shards: usize,
    /// Strategy / victim / grant-policy knobs.
    pub system: SystemConfig,
    /// Lock-word fast path on/off.
    pub fast_path: bool,
    /// Batch flush threshold.
    pub batch_max: usize,
    /// Group-commit deadline for partial batches.
    pub batch_deadline: Duration,
    /// Write-ahead-log and crash-recovery knobs.
    pub durability: DurabilityConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            entities: 256,
            init: 100,
            threads: 8,
            shards: 0,
            system: SystemConfig::default(),
            fast_path: true,
            batch_max: 256,
            batch_deadline: Duration::from_millis(2),
            durability: DurabilityConfig::default(),
        }
    }
}

/// What the executor processes, in arrival order within a batch.
enum Work {
    Txn { program: TransactionProgram, request_id: u64, conn: Arc<ConnWriter>, enqueued: Instant },
    History { conn: Arc<ConnWriter> },
    Shutdown { conn: Arc<ConnWriter> },
}

/// The write half of one connection. Frames are written whole under the
/// mutex; write errors mark the peer dead and are not retried (the
/// reader will see the hangup and clean up).
pub struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl ConnWriter {
    fn send(&self, shared: &Shared, reply: &Reply) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let bytes = frame(&encode_reply(reply));
        let mut stream = self.stream.lock().expect("conn writer poisoned");
        if stream.write_all(&bytes).is_err() {
            self.dead.store(true, Ordering::Relaxed);
            return;
        }
        shared.frames_out.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared by every thread of one server instance. Hot counters are
/// atomics; the executor-owned aggregates live behind the mutexed
/// [`ServerMetrics`], updated once per batch.
struct Shared {
    batcher: Batcher<Work>,
    shutdown: AtomicBool,
    entities: u32,
    connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    protocol_errors: AtomicU64,
    submissions: AtomicU64,
    rejected: AtomicU64,
    aborted_on_shutdown: AtomicU64,
    batch_metrics: Mutex<ServerMetrics>,
}

impl Shared {
    /// Composes the full metrics record: executor-owned aggregates plus
    /// the live counter values.
    fn metrics(&self) -> ServerMetrics {
        let mut m = self.batch_metrics.lock().expect("metrics poisoned").clone();
        m.connections = self.connections.load(Ordering::Relaxed);
        m.frames_in = self.frames_in.load(Ordering::Relaxed);
        m.frames_out = self.frames_out.load(Ordering::Relaxed);
        m.protocol_errors = self.protocol_errors.load(Ordering::Relaxed);
        m.submissions = self.submissions.load(Ordering::Relaxed);
        m.rejected = self.rejected.load(Ordering::Relaxed);
        m.aborted_on_shutdown = self.aborted_on_shutdown.load(Ordering::Relaxed);
        m
    }
}

/// What a clean server lifetime produced — returned by [`Server::wait`].
#[derive(Clone, Copy, Debug)]
pub struct ServerSummary {
    /// Transactions committed.
    pub commits: u64,
    /// Batches executed.
    pub batches: u64,
    /// Cumulative lock-word fast-path counters at quiescence.
    pub fast: FastPathStats,
}

/// A running server: bound address plus the executor's join handle.
pub struct Server {
    local_addr: std::net::SocketAddr,
    executor: std::thread::JoinHandle<Result<ServerSummary, ParError>>,
    accept: std::thread::JoinHandle<()>,
    shared: Arc<Shared>,
    recovery: Option<crate::durable::RecoverySummary>,
}

impl Server {
    /// Binds, spawns the accept and executor threads, and returns
    /// immediately. The server runs until a `SHUTDOWN` request arrives
    /// (or [`Server::request_shutdown`] is called in-process).
    ///
    /// When a log directory is configured with `recover`, the durable
    /// prefix is replayed *before* the listener accepts anyone, so the
    /// first client already sees recovered state over STATS/HISTORY.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        // Recovery and log-directory setup happen synchronously so a bad
        // log refuses startup here, not asynchronously mid-serve.
        let wal_io = |e: pr_storage::WalError| std::io::Error::other(e.to_string());
        let log_dir: Option<Arc<dyn LogDir>> = match &config.durability.dir {
            Some(path) => Some(Arc::new(FsDir::open(path).map_err(wal_io)?)),
            None => None,
        };
        let recovered: Option<Recovery> = match (&log_dir, config.durability.recover) {
            (Some(dir), true) => {
                Some(recover(dir.as_ref(), config.entities, config.init).map_err(wal_io)?)
            }
            _ => None,
        };
        let recovery = recovered.as_ref().map(|r| r.summary.clone());
        // Set here, not by the executor thread, so no STATS reply can
        // predate them.
        let mut metrics = ServerMetrics::default();
        if let Some(r) = &recovery {
            metrics.batches_recovered = r.batches;
            metrics.txns_recovered = r.txns;
            metrics.commits = r.txns;
        }

        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            batcher: Batcher::new(config.batch_max, config.batch_deadline),
            shutdown: AtomicBool::new(false),
            entities: config.entities,
            connections: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            aborted_on_shutdown: AtomicU64::new(0),
            batch_metrics: Mutex::new(metrics),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || executor_loop(&config, shared, log_dir, recovered))
        };
        Ok(Server { local_addr, executor, accept, shared, recovery })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// What `--recover` replayed at startup, if recovery ran.
    pub fn recovery(&self) -> Option<&crate::durable::RecoverySummary> {
        self.recovery.as_ref()
    }

    /// Initiates the drain protocol without a network peer (tests).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.batcher.close();
    }

    /// Blocks until the executor finishes (post-`SHUTDOWN` drain and
    /// quiescence check) and returns its summary.
    pub fn wait(self) -> Result<ServerSummary, ParError> {
        let result = self.executor.join().expect("executor thread panicked");
        self.accept.join().expect("accept thread panicked");
        result
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || serve_connection(stream, shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// One connection's reader loop: frames in, work out.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let conn =
        Arc::new(ConnWriter { stream: Mutex::new(write_half), dead: AtomicBool::new(false) });
    let mut read_half = stream;
    let mut asm = FrameAssembler::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        // Drain every complete frame before reading more bytes.
        loop {
            match asm.next_frame() {
                Ok(Some(payload)) => {
                    shared.frames_in.fetch_add(1, Ordering::Relaxed);
                    if !handle_frame(&payload, &conn, &shared) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.send(&shared, &Reply::Error { code: 1, message: e.to_string() });
                    return;
                }
            }
        }
        match read_half.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => asm.feed(&chunk[..n]),
        }
    }
}

/// Handles one decoded frame; returns `false` when the connection must
/// close.
fn handle_frame(payload: &[u8], conn: &Arc<ConnWriter>, shared: &Arc<Shared>) -> bool {
    let request = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.send(shared, &Reply::Error { code: 2, message: e.to_string() });
            return false;
        }
    };
    match request {
        Request::Submit { request_id, ops } => {
            if shared.shutdown.load(Ordering::Relaxed) {
                shared.aborted_on_shutdown.fetch_add(1, Ordering::Relaxed);
                conn.send(shared, &Reply::Aborted { request_id, reason: AbortReason::Shutdown });
                return true;
            }
            let program = match TransactionProgram::try_from(ops) {
                Ok(p) => p,
                Err(_) => {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    conn.send(shared, &Reply::Aborted { request_id, reason: AbortReason::Invalid });
                    return true;
                }
            };
            // Entity universe check at admission, so one stray program
            // cannot poison a whole batch inside the session.
            if program.locked_entities().iter().any(|e| e.raw() >= shared.entities) {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                conn.send(shared, &Reply::Aborted { request_id, reason: AbortReason::Invalid });
                return true;
            }
            let work =
                Work::Txn { program, request_id, conn: Arc::clone(conn), enqueued: Instant::now() };
            match shared.batcher.push(work) {
                Ok(()) => {
                    shared.submissions.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    shared.aborted_on_shutdown.fetch_add(1, Ordering::Relaxed);
                    conn.send(
                        shared,
                        &Reply::Aborted { request_id, reason: AbortReason::Shutdown },
                    );
                }
            }
            true
        }
        Request::Stats => {
            conn.send(shared, &Reply::StatsReply { json: shared.metrics().to_json() });
            true
        }
        Request::History => {
            if shared.batcher.push(Work::History { conn: Arc::clone(conn) }).is_err() {
                conn.send(
                    shared,
                    &Reply::Error { code: 3, message: "server is shutting down".into() },
                );
            }
            true
        }
        Request::Shutdown => {
            // Push first, then flip the flag and close: the push must not
            // race the close, and queued submissions still execute.
            let pushed = shared.batcher.push(Work::Shutdown { conn: Arc::clone(conn) });
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.batcher.close();
            if pushed.is_err() {
                conn.send(
                    shared,
                    &Reply::Error { code: 3, message: "shutdown already in progress".into() },
                );
            }
            true
        }
    }
}

/// The executor: one engine run per batch, replies after the run — group
/// commit. Owns the [`Session`] (and the journal, when durability is on)
/// for the server's whole lifetime.
fn executor_loop(
    config: &ServerConfig,
    shared: Arc<Shared>,
    log_dir: Option<Arc<dyn LogDir>>,
    recovered: Option<Recovery>,
) -> Result<ServerSummary, ParError> {
    let par_config = ParConfig {
        threads: config.threads,
        shards: config.shards,
        system: config.system,
        fast_path: config.fast_path,
    };
    let wal_fatal = |ctx: &str, e: pr_storage::WalError| {
        ParError::Inconsistent(format!("write-ahead log {ctx}: {e}"))
    };
    // A recovered server resumes the dead process's txn-id and stamp
    // clocks, so post-crash commits extend the recovered history into one
    // valid oracle input.
    let (store, mut history, mut commits, last_batch_id, session) = match recovered {
        Some(rec) => {
            let session =
                Session::resume(&rec.store, par_config, rec.summary.txn_hwm, rec.summary.stamp_hwm);
            (rec.store, rec.history, rec.summary.txns, rec.summary.last_batch_id, session)
        }
        None => {
            let store = GlobalStore::with_entities(config.entities, Value::new(config.init));
            let session = Session::new(&store, par_config);
            (store, HistoryWindow::new(HISTORY_WINDOW, 0), 0u64, 0u64, session)
        }
    };
    let mut session = session;
    let mut journal = match log_dir {
        Some(dir) => Some(
            Journal::open(dir, &config.durability, store.snapshot(), last_batch_id)
                .map_err(|e| wal_fatal("open", e))?,
        ),
        None => None,
    };
    let mut batches: u64 = 0;
    let mut ack_to: Option<Arc<ConnWriter>> = None;

    while let Some((batch, reason)) = shared.batcher.next_batch() {
        let mut programs = Vec::new();
        let mut submitters: Vec<(u64, Arc<ConnWriter>)> = Vec::new();
        let mut controls: Vec<Work> = Vec::new();
        let flush_started = Instant::now();
        let mut wait_us: Vec<u64> = Vec::new();
        for item in batch {
            match item {
                Work::Txn { program, request_id, conn, enqueued } => {
                    wait_us.push(flush_started.duration_since(enqueued).as_micros() as u64);
                    programs.push(program);
                    submitters.push((request_id, conn));
                }
                control => controls.push(control),
            }
        }

        if !programs.is_empty() {
            let base = session.admitted();
            let fail_batch = |e: ParError, shared: &Shared| {
                // An engine (or journal) error on validated input is an
                // invariant violation: answer everyone, then surface it.
                // Nothing is acknowledged COMMITTED, so the durability
                // invariant is vacuously preserved.
                for (request_id, conn) in &submitters {
                    conn.send(
                        shared,
                        &Reply::Aborted { request_id: *request_id, reason: AbortReason::Engine },
                    );
                }
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.batcher.close();
                e
            };
            match session.execute(&programs) {
                Ok(outcome) => {
                    // Online verification: the batch is serializable and
                    // stamped after every batch before it, so the whole
                    // history since boot is. Checked before anything is
                    // logged or acknowledged.
                    if let Err(v) = history.check(&outcome.accesses) {
                        let e = ParError::Inconsistent(format!("online history check: {v}"));
                        return Err(fail_batch(e, &shared));
                    }
                    // Write-ahead: the batch's redo record and commit
                    // marker are appended (and fsynced, per policy)
                    // *before* any COMMITTED reply publishes.
                    if let Some(j) = journal.as_mut() {
                        let request_ids: Vec<u64> =
                            submitters.iter().map(|(rid, _)| *rid).collect();
                        if let Err(e) = j.log_batch(
                            base,
                            &request_ids,
                            session.stamp(),
                            &outcome.snapshot,
                            &outcome.accesses,
                        ) {
                            return Err(fail_batch(wal_fatal("append", e), &shared));
                        }
                    }
                    commits += outcome.commits() as u64;
                    history.push(outcome.accesses);
                    // Group commit: every reply in the batch goes out
                    // after the whole batch reached quiescence.
                    for (i, (request_id, conn)) in submitters.iter().enumerate() {
                        let txn = TxnId::new(base + i as u32 + 1);
                        conn.send(&shared, &Reply::Committed { request_id: *request_id, txn });
                    }
                }
                Err(e) => return Err(fail_batch(e, &shared)),
            }
            batches += 1;
            let mut m = shared.batch_metrics.lock().expect("metrics poisoned");
            m.batches = batches;
            m.commits = commits;
            m.batch_fill.record(programs.len() as u64);
            if let Some(j) = &journal {
                let s = j.stats();
                m.wal_appends = s.appends;
                m.wal_fsyncs = s.syncs;
                m.wal_bytes = s.bytes;
            }
            for us in wait_us {
                m.group_wait_us.record(us);
            }
            match reason {
                FlushReason::Full => m.flushes_full += 1,
                FlushReason::Deadline => m.flushes_deadline += 1,
                FlushReason::Drain => {}
            }
        }

        for control in controls {
            match control {
                Work::History { conn } => send_history(&conn, &shared, &history, &session),
                Work::Shutdown { conn } => ack_to = Some(conn),
                Work::Txn { .. } => unreachable!("txns were split out above"),
            }
        }
    }

    // Drained and closed: graceful drain implies durability — the tail
    // segment is fsynced whatever the flush policy, so everything the
    // server ever acknowledged survives a post-shutdown restart. Only
    // then is quiescence asserted and SHUTDOWN_ACK sent.
    if let Some(j) = journal.as_mut() {
        j.sync().map_err(|e| wal_fatal("drain sync", e))?;
        let s = j.stats();
        let mut m = shared.batch_metrics.lock().expect("metrics poisoned");
        m.wal_fsyncs = s.syncs;
    }
    let fast = session.finish()?;
    if let Some(conn) = ack_to {
        conn.send(&shared, &Reply::ShutdownAck { commits });
    }
    Ok(ServerSummary { commits, batches, fast })
}

/// Streams the history window in bounded chunks; the last chunk carries
/// the snapshot.
fn send_history(
    conn: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
    history: &HistoryWindow,
    session: &Session,
) {
    let mut accesses = history.iter().copied();
    let mut left = history.len();
    loop {
        let chunk: Vec<CommittedAccess> = accesses.by_ref().take(HISTORY_CHUNK_ACCESSES).collect();
        left -= chunk.len();
        if left == 0 {
            let snapshot = session.snapshot().iter().map(|(e, v)| (e, v.raw())).collect();
            conn.send(shared, &Reply::HistoryChunk { last: true, accesses: chunk, snapshot });
            return;
        }
        conn.send(shared, &Reply::HistoryChunk { last: false, accesses: chunk, snapshot: vec![] });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use pr_model::{EntityId, Op};

    /// A lifetime that fits the window gets its whole history back: every
    /// committed transaction, across every batch, in one stamp order.
    #[test]
    fn a_lifetime_shorter_than_the_window_gets_its_whole_history() {
        let server = Server::start(ServerConfig { entities: 4, threads: 2, ..Default::default() })
            .expect("bind");
        let mut c = Client::connect(&server.local_addr().to_string()).expect("connect");
        let n = 12u32;
        for i in 0..n {
            // One at a time, so each transaction is its own batch.
            let e = EntityId::new(i % 4);
            c.submit(vec![Op::LockExclusive(e), Op::Unlock(e), Op::Commit]).expect("submit");
            assert!(matches!(c.recv().expect("recv"), Ok(Reply::Committed { .. })));
        }
        let (accesses, _) = c.history().expect("history");
        let txns: Vec<u32> = accesses.iter().map(|a| a.txn.raw()).collect();
        assert_eq!(txns, (1..=n).collect::<Vec<_>>());
        assert!(accesses.windows(2).all(|w| w[0].stamp < w[1].stamp));
        c.shutdown().expect("shutdown");
        assert_eq!(server.wait().expect("drain").batches, u64::from(n));
    }
}
