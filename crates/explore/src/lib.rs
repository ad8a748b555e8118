//! # pr-explore — exhaustive schedule-space exploration
//!
//! A bounded model checker for the partial-rollback engine. Where `pr-sim`
//! samples schedules with seeded random schedulers, this crate enumerates
//! **every** interleaving of a small workload and checks properties that
//! sampling can only make probable:
//!
//! * **§3.1 victim optimality** — on every exclusive-lock deadlock along
//!   every schedule, the engine's victim cost equals the brute-force
//!   minimum over the cycle;
//! * **§3.2 cut optimality** — on every shared-lock multi-cycle deadlock,
//!   the production cut is compared against an independent exhaustive
//!   min-cost vertex-cut solver, and the heuristic's optimality gap is
//!   measured;
//! * **Figure 2 / Theorem 2** — with the MinCost policy the explored state
//!   graph contains the paper's infinite mutual-preemption cycle
//!   (livelock); with the ω (PartialOrder) policy the same state space is
//!   finite, acyclic and fully drained — a *proof* of termination over all
//!   schedules, not a 5000-step timeout;
//! * **cross-strategy equivalence** — Total, MCS and SDG rollback produce
//!   exactly the same set of terminal outcomes over all schedules.
//!
//! See [`explorer`] for the search itself (canonical-state memoization,
//! invisible-step partial-order reduction, optional transaction-symmetry
//! reduction), [`oracles`] for the per-resolution brute-force checks and
//! the planted-mutant tests guarding them, [`grid`] for the canonical
//! workload families, and [`cycles_check`] for the exhaustive
//! cross-validation of the engine's cycle enumerator.

pub mod cycles_check;
pub mod explorer;
pub mod grid;
pub mod oracles;

pub use explorer::{
    explore, stats_table, workload_system, Edge, EdgeKind, ExploreOptions, ExploreReport, Finding,
    LivelockWitness, RunRecord, StateGraph, TerminalOutcome,
};
pub use grid::{figure2_prefix_system, grid_cases, grid_store, GridCase, Shape};
pub use oracles::{check_audit, AuditVerdict, GapStats};
