//! # pr-server — the networked multi-client front end
//!
//! Exposes the pr-par engine over a length-prefixed binary protocol on
//! plain std TCP: no async runtime, no serialisation framework, just
//! frames, threads, and the [`pr_par::Session`] submission API. The
//! design goal is the paper's setting at production shape — many clients
//! concurrently submitting short transactions against one lock manager
//! with partial-rollback deadlock resolution — while keeping every piece
//! auditable by the same differential serializability oracle the
//! in-process experiments use: the server checks each batch's
//! grant-stamped access history as it commits, keeps a fixed window of
//! the newest batches, and `pr-load` fetches that window post-run and
//! replays a serial reference against it.
//!
//! * [`wire`] — frame format, request/reply codecs, incremental
//!   reassembly, and the hard limits that make malformed input a typed
//!   error instead of a panic;
//! * [`batch`] — the group-commit coalescer (flush on fill or deadline);
//! * [`server`] — accept loop, per-connection readers, the single
//!   batch-executor thread, and the drain-then-quiesce shutdown;
//! * [`client`] — a small blocking client (control plane, tests, probes);
//! * [`load`] — the closed-loop multi-client load driver behind
//!   `pr-load`: Zipf skew, think times, latency histograms, multi-process
//!   fan-out, and the post-run oracle check;
//! * [`history`] — the online per-batch serializability check and the
//!   fixed window of newest batches behind `HISTORY`;
//! * [`durable`] — the group-commit journal over `pr_storage::wal` and
//!   the `--recover` crash-recovery replay;
//! * [`crashsim`] — the in-process crash-injection harness behind the
//!   crash-matrix tests and `pr-load --crash-soak`.

pub mod batch;
pub mod client;
pub mod crashsim;
pub mod durable;
pub mod history;
pub mod load;
pub mod server;
pub mod wire;

pub use batch::{Batcher, FlushReason};
pub use client::{Client, HistoryDump};
pub use durable::{recover, DurabilityConfig, Journal, Recovery, RecoverySummary};
pub use load::{run_load, LoadConfig, LoadResult};
pub use server::{Server, ServerConfig, ServerSummary};
pub use wire::{FrameAssembler, Reply, Request, WireError};
