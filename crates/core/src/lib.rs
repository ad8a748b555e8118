//! # pr-core — the partial-rollback deadlock removal engine
//!
//! This crate is the paper's contribution proper: a deterministic
//! two-phase-locking execution engine whose response to deadlock is a
//! **partial rollback** — returning a victim to the latest state in which
//! it no longer holds the contested lock — rather than the traditional
//! total removal and restart.
//!
//! ## Architecture
//!
//! [`System`] drives a [`kernel::Kernel`], which owns the database
//! ([`pr_storage::GlobalStore`]), the lock manager
//! ([`pr_lock::LockTable`]), the concurrency graph
//! ([`pr_graph::WaitsForGraph`]) and one [`runtime::TxnRuntime`] per live
//! transaction. A [`Scheduler`] chooses which ready transaction executes
//! its next atomic operation; every blocked lock request triggers the §3
//! deadlock test (reachability in the waits-for graph), and every detected
//! deadlock is resolved by the configured combination of:
//!
//! * a rollback strategy ([`config::StrategyKind`]) — **Total** (restart
//!   from scratch, the baseline of the paper's refs \[7,10\]), **MCS**
//!   (multi-lock copy stacks, §4, rollback to *any* lock state), or **SDG**
//!   (one-copy workspace, whose evicted interval per object is the
//!   state-dependency graph, §4; rollback to the deepest *well-defined*
//!   lock state at or below the ideal target), and
//! * a victim policy ([`config::VictimPolicyKind`]) — **MinCost** (the §3.1
//!   optimum, vulnerable to potentially infinite mutual preemption),
//!   **PartialOrder** (Theorem 2's ω-restricted policy, livelock-free),
//!   **Youngest**, or **ConflictCauser**.
//!
//! Multi-cycle deadlocks (shared locks, §3.2) are resolved through the
//! min-cost vertex-cut solvers in [`pr_graph::cutset`]. Each deadlock is
//! described once, by the [`DeadlockRecord`] built where its plan is made;
//! [`System::history`] keeps them, and the `pr-explore` oracles check
//! them.
//!
//! The engine is fully deterministic given a scheduler, which is what makes
//! the paper's figures exactly reproducible (see `pr-sim`).

pub mod config;
pub mod deadlock;
pub mod engine;
pub mod error;
pub mod event;
pub mod fingerprint;
pub mod kernel;
pub mod metrics;
pub mod runtime;
pub mod scheduler;
#[cfg(feature = "invariants")]
pub mod sentinel;
pub mod victim;

pub use config::{StrategyKind, SystemConfig, VictimPolicyKind};
pub use deadlock::{DeadlockEvent, DeadlockRecord, ResolutionPlan};
pub use engine::{StepOutcome, System};
pub use error::EngineError;
pub use event::{Event, EventLog};
pub use fingerprint::{canonical_state, canonical_state_relabeled, fingerprint};
pub use metrics::{HistogramSummary, LogHistogram, Metrics, ServerMetrics};
pub use pr_lock::{derive_order, EntityOrder, GrantPolicy, PrecedenceCycle};
pub use runtime::RuntimeView;
pub use scheduler::{RoundRobin, Scheduler};
