//! # pr-graph — graph substrate for partial-rollback deadlock removal
//!
//! Two graph structures drive the paper's algorithms:
//!
//! * The **concurrency graph** `G(T)` of §3 ([`WaitsForGraph`]): one vertex
//!   per transaction, one arc `holder → waiter` per wait, labelled with the
//!   contested entity. In an exclusive-only system it is a forest whenever
//!   no deadlock exists (Theorem 1, [`waits_for::WaitsForGraph::is_forest`]),
//!   so a wait response closes at most one cycle; with shared locks it is a
//!   general acyclic digraph and one wait may close many cycles at once —
//!   all through the requester ([`cycles`]).
//!
//! * The **state-dependency graph** of §4: one vertex per lock state of a
//!   single transaction, with write-dependency edges. Its non-spanned
//!   vertices are the **well-defined** states a one-copy workspace can
//!   actually roll back to (Theorem 4). At run time the workspace itself
//!   answers that (`pr_storage::Workspace` at a copy budget of 1): every
//!   write to one object spans the same interval of lock states, so each
//!   one-copy stack's evicted interval `[first write, last write)` is the
//!   whole graph. The [`articulation`] module implements the paper's
//!   articulation-point characterisation (Corollary 1) over a program's
//!   static edges, and the property tests prove it agrees with the
//!   interval method of `pr_model::analysis`.
//!
//! The [`cutset`] module solves the optimisation problem of §3.2 — choose a
//! set of victims (with per-victim rollback depths) of minimum total cost
//! whose rollback breaks every cycle. The problem is NP-complete (the
//! paper relates it to feedback vertex set), so an exact branch-and-bound
//! solver is provided for the small instances real deadlocks produce, and a
//! greedy heuristic for everything else.

pub mod articulation;
pub mod cutset;
pub mod cycles;
pub mod waits_for;

pub use cutset::{
    solution_covers, solve, solve_exact, solve_exhaustive, solve_greedy, CandidateRollback,
    CutSolution,
};
pub use cycles::{Cycle, CycleMember};
pub use waits_for::WaitsForGraph;
