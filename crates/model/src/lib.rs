//! # pr-model — transaction model for partial-rollback deadlock removal
//!
//! This crate defines the vocabulary of the system described in
//! *Fussell, Kedem, Silberschatz, "Deadlock Removal Using Partial Rollback in
//! Database Systems" (SIGMOD 1981)*:
//!
//! * identifiers for global entities, transactions, local variables, and the
//!   two index spaces the paper uses — **state indices** (one per atomic
//!   operation executed) and **lock indices** (one per lock state),
//! * [`Value`]s and side-effect-free [`Expr`]essions over local variables,
//! * the atomic [`Op`]eration algebra (`LS`/`LX`/`U` lock operations, reads,
//!   writes, local assignments, commit),
//! * straight-line [`TransactionProgram`]s with a fluent [`ProgramBuilder`],
//! * a [two-phase validator](validate) enforcing the paper's §2 rules, and
//! * [static analysis](analysis) of a program's state-dependency structure:
//!   restorability indices, write edges, well-defined lock states, the write
//!   clustering metric of §5, and three-phase structure detection.
//!
//! The crate has no dependencies and is the foundation every other crate
//! in the workspace builds on.

pub mod analysis;
pub mod builder;
pub mod error;
pub mod ids;
pub mod interpret;
pub mod op;
pub mod program;
pub mod restructure;
pub mod validate;
pub mod value;

pub use analysis::{ProgramAnalysis, WriteEdge};
pub use builder::ProgramBuilder;
pub use error::{ModelError, Violation};
pub use ids::{EntityId, LockIndex, StateIndex, TxnId, VarId};
pub use interpret::{run_solo, SoloOutcome};
pub use op::{Expr, LockMode, Op, Operand};
pub use program::TransactionProgram;
pub use value::Value;
