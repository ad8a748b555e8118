//! # pr-sim — workloads, experiments, and the paper's figures
//!
//! This crate turns the `pr-core` engine into an experimental apparatus:
//!
//! * [`generator`] — seeded random two-phase program generators with the
//!   knobs the paper's arguments turn on: lock count, write fraction,
//!   shared-lock fraction, access skew (hotspot), **write clustering**
//!   (§5 / Figure 5) and **three-phase** structure (§5);
//! * [`runner`] — deterministic workload execution, including a seeded
//!   random scheduler and a serializability oracle that checks a
//!   concurrent run's final database against all serial orders;
//! * [`oracle`] — the differential serializability oracle for `pr-par`:
//!   rebuilds the conflict graph from a run's grant-stamped access
//!   history, checks acyclicity, reconciles the rollback accounting, and
//!   cross-checks the final snapshot against a deterministic engine run;
//! * [`scenarios`] — exact reproductions of the paper's Figures 1–5,
//!   asserting the costs, victims, graph shapes, and well-defined state
//!   sets the paper derives;
//! * [`experiments`] — parameter sweeps behind every quantitative claim
//!   (lost progress, storage overhead, victim-policy behaviour, cut-set
//!   solver quality, concurrency scaling), run by the `experiments`
//!   binary that regenerates `EXPERIMENTS.md`'s tables;
//! * [`report`] — plain-text table and CSV rendering;
//! * [`stress`] — open/closed-loop high-contention drivers with
//!   Zipf-skewed access and transaction-latency histograms.

pub mod experiments;
pub mod generator;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod stress;

pub use generator::{Clustering, GeneratorConfig, ProgramGenerator};
pub use oracle::{
    check_accounting, check_conflict_serializable, check_outcome, check_server_history,
    OracleReport, OracleViolation,
};
pub use report::Table;
pub use runner::{
    is_serializable, run_serial, run_workload, RandomScheduler, RunReport, SchedulerKind,
};
pub use stress::{long_vs_oltp, read_write_skew, run_stress, Arrival, StressConfig, StressReport};
