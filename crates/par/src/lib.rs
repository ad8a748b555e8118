//! # pr-par — multi-threaded sharded-lock-table executor
//!
//! A true multi-threaded counterpart to the deterministic engine in
//! `pr-core`: one worker thread per core runs many in-flight transactions
//! against a **lock-word fast path** backed by a **sharded lock table**.
//! A waiting transaction is data, not a parked thread. Uncontended
//! locks are granted by a single CAS on a per-entity atomic word in a
//! preallocated slab — no shard mutex, no allocation; contention or an
//! existing wait queue *inflates* the entity into its shard's lock table
//! (per-shard mutexes, entity→shard hashing, ordered multi-shard
//! locking), where waits, grant policies, and partial rollback run
//! exactly as before. A concurrent waits-for graph with an
//! **epoch-stamped cycle check** makes detection atomic with arc
//! registration and lets resolvers validate a plan before executing it.
//!
//! The engine reuses the rest of the stack unchanged — `pr-lock` conflict
//! rules and grant policies, `pr-storage` version-stack workspaces,
//! `pr-core`'s [`TxnRuntime`](pr_core::runtime::TxnRuntime) and §3
//! resolution planner — so every rollback strategy (total, MCS, SDG) and
//! both grant policies run on real threads with the same semantics the
//! deterministic engine exhibits. Each run emits a stamped commit-time
//! access history from which a serializability oracle can rebuild the
//! conflict graph without ever having observed the interleaving.
//!
//! Concurrency design in brief (details on each module):
//!
//! * [`word`] — the per-entity lock words, reader registries, published
//!   values, and the inflate/deflate handoff to the lock table;
//! * [`shard`] — per-shard mutexes, hashing, ordered two-shard locking;
//! * [`slot`] — per-transaction mutex, whether a worker owns it, and the
//!   crate's lock-ordering rules;
//! * [`wfg`] — the epoch-stamped concurrent waits-for graph;
//! * [`engine`] — the worker loop, the wait that sets a transaction down
//!   as data, and the resolver that captures a cycle's slots in id order
//!   and executes its partial rollbacks across threads;
//! * `sched` — each batch's ready FIFO and in-flight cap, and the exact
//!   `Stuck` check;
//! * [`history`] — grant-stamped access records for the oracle;
//! * [`session`] — the long-lived submission API (persistent slab, one
//!   worker thread per core spawned once per session, global txn ids and
//!   stamp clock) servers batch through;
//! * [`outcome`] — configuration, errors, and result types.

pub mod engine;
pub mod history;
pub mod outcome;
mod pool;
mod sched;
pub mod session;
pub mod shard;
pub mod slot;
pub mod wfg;
pub mod word;

pub use engine::run_parallel;
pub use history::{AccessHistory, CommittedAccess};
pub use outcome::{ParConfig, ParError, ParOutcome, TxnStats};
pub use session::Session;
pub use shard::{Shard, Shards};
pub use wfg::EpochGraph;
pub use word::{EntitySlab, FastPath, FastPathStats};
