//! # partial-rollback — deadlock removal using partial rollback
//!
//! A full reproduction of *Fussell, Kedem, Silberschatz, "Deadlock Removal
//! Using Partial Rollback in Database Systems" (SIGMOD 1981)*: a
//! two-phase-locking database engine that resolves deadlocks by rolling a
//! victim transaction back only as far as necessary — to the latest state
//! in which it no longer holds the contested lock — instead of aborting
//! and restarting it.
//!
//! ## Quick start
//!
//! ```
//! use partial_rollback::prelude::*;
//!
//! // Two transfers over the same two accounts, in opposite lock orders —
//! // the classic deadlock.
//! let a = EntityId::new(0);
//! let b = EntityId::new(1);
//! let v = VarId::new(0);
//! let t1 = ProgramBuilder::new()
//!     .lock_exclusive(a)
//!     .lock_exclusive(b)
//!     .read(a, v)
//!     .write(a, Expr::sub(Expr::var(v), Expr::lit(10)))
//!     .read(b, v)
//!     .write(b, Expr::add(Expr::var(v), Expr::lit(10)))
//!     .build()
//!     .unwrap();
//! let t2 = ProgramBuilder::new()
//!     .lock_exclusive(b)
//!     .lock_exclusive(a)
//!     .read(b, v)
//!     .write(b, Expr::sub(Expr::var(v), Expr::lit(5)))
//!     .read(a, v)
//!     .write(a, Expr::add(Expr::var(v), Expr::lit(5)))
//!     .build()
//!     .unwrap();
//!
//! let store = GlobalStore::with_entities(2, Value::new(100));
//! let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
//! let mut system = System::new(store, config);
//! system.admit(t1).unwrap();
//! system.admit(t2).unwrap();
//! system.run(&mut RoundRobin::new()).unwrap();
//!
//! assert!(system.all_committed());
//! // Money is conserved no matter how the deadlock was resolved.
//! assert_eq!(system.store().total(), Value::new(200));
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`model`] | ids, values, the operation algebra, programs, validation, static analysis |
//! | [`storage`] | the global store and the transaction workspace of version stacks under a copy budget (unbounded for MCS; at one copy it doubles as the runtime state-dependency graph) |
//! | [`lock`] | the shared/exclusive lock table |
//! | [`graph`] | waits-for graph, cycle enumeration, min-cost cut sets, the articulation-point check of well-defined states |
//! | [`core`] | the transition kernel and the execution engine: strategies, victim policies, metrics |
//! | [`par`] | the multi-threaded sharded-lock-table executor and its stamped access history |
//! | [`sim`] | workload generators, experiment sweeps, the paper's figures, the differential serializability oracle |
//! | [`server`] | the networked front end: wire protocol, group-commit batching, the `pr-server`/`pr-load` CLIs |
//! | [`analyze`] | static workload lint: deadlock-cycle detection, rollback-cost diagnostics, the `pr-lint` CLI |
//! | [`explore`] | bounded model checker: exhaustive schedule enumeration with brute-force optimality oracles, the `explore` CLI |

pub use pr_analyze as analyze;
pub use pr_core as core;
pub use pr_explore as explore;
pub use pr_graph as graph;
pub use pr_lock as lock;
pub use pr_model as model;
pub use pr_par as par;
pub use pr_server as server;
pub use pr_sim as sim;
pub use pr_storage as storage;

/// One-stop imports for typical use.
pub mod prelude {
    pub use pr_core::scheduler::{RoundRobin, Scheduler, Scripted};
    pub use pr_core::{
        EngineError, GrantPolicy, Metrics, StepOutcome, StrategyKind, System, SystemConfig,
        VictimPolicyKind,
    };
    pub use pr_model::{
        EntityId, Expr, LockIndex, LockMode, Op, ProgramBuilder, StateIndex, TransactionProgram,
        TxnId, Value, VarId,
    };
    pub use pr_par::{run_parallel, ParConfig, ParOutcome, Session};
    pub use pr_server::{Client, Server, ServerConfig};
    pub use pr_storage::{Constraint, GlobalStore, Snapshot};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let store = GlobalStore::with_entities(1, Value::new(5));
        let mut sys = System::new(store, SystemConfig::default());
        let p = ProgramBuilder::new()
            .lock_shared(EntityId::new(0))
            .read(EntityId::new(0), VarId::new(0))
            .build()
            .unwrap();
        sys.admit(p).unwrap();
        sys.run(&mut RoundRobin::new()).unwrap();
        assert!(sys.all_committed());
    }
}
