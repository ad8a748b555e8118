//! Deterministic replay: the `par-*` programs stepped one atomic
//! operation at a time through `pr_core::System::step` under a seeded
//! scheduler, each call timed and bucketed by its `StepOutcome`.
//!
//! `pr-core` shares `plan_resolution` and `TxnRuntime` with `pr-par`, so
//! this is the outside view of what a wait (arc + cycle check) and a
//! deadlock (detect + plan + roll back) cost, free of thread scheduling
//! noise. At most [`ENGINE_THREADS`] transactions are in flight, like the
//! threaded engine. The system is rebuilt every [`CHUNK`] programs because
//! it keeps committed runtimes for its whole life.

use crate::gen::SplitMix64;
use crate::par::ProgramPool;
use crate::trace::{Span, Trace, NO_PARENT};
use crate::workloads::{Workload, ENGINE_THREADS, INIT_VALUE};
use pr_core::runtime::Phase;
use pr_core::{StepOutcome, System};
use pr_model::{TxnId, Value};
use pr_storage::GlobalStore;
use std::time::Instant;

const CHUNK: usize = 256;

/// Time and count of the steps that ended one way.
#[derive(Clone, Copy, Default)]
pub struct Bucket {
    pub ns: u64,
    pub count: u64,
}

impl Bucket {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
pub struct ReplayResult {
    pub progressed: Bucket,
    pub blocked: Bucket,
    pub resolved: Bucket,
    pub committed: Bucket,
    /// Median cost of reading the clock twice, already subtracted from
    /// every sample.
    pub timer_ns: u64,
    pub problems: Vec<String>,
}

/// Median duration of an empty timed region.
fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Replays pool programs for about `budget_s` seconds. Only waits and
/// resolutions become spans (they are the rare, interesting steps);
/// ordinary steps are far too many to keep and are summed.
pub fn run(
    w: &Workload,
    pool: &ProgramPool,
    seed: u64,
    budget_s: f64,
    trace: &mut Trace,
) -> ReplayResult {
    let mut result = ReplayResult { timer_ns: timer_overhead_ns(), ..ReplayResult::default() };
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0F5C_4ED0_1E55);
    let mut store = GlobalStore::with_entities(w.shape.entities, Value::new(INIT_VALUE));
    let started = Instant::now();
    let mut stepped = 0u64;

    'chunks: for chunk in pool.programs.chunks(CHUNK) {
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let mut system = System::new(store, w.system());
        let mut waiting = chunk.iter();
        let mut active: Vec<TxnId> = Vec::with_capacity(ENGINE_THREADS);
        let mut ready: Vec<TxnId> = Vec::with_capacity(ENGINE_THREADS);
        loop {
            while active.len() < ENGINE_THREADS {
                let Some(program) = waiting.next() else { break };
                match system.admit(program.clone()) {
                    Ok(id) => active.push(id),
                    Err(e) => {
                        result.problems.push(format!("replay admit: {e}"));
                        return result;
                    }
                }
            }
            if active.is_empty() {
                break;
            }
            ready.clear();
            ready.extend(
                active
                    .iter()
                    .filter(|id| system.txn(**id).is_some_and(|rt| rt.phase == Phase::Running)),
            );
            if ready.is_empty() {
                result.problems.push("replay: every in-flight transaction is blocked".into());
                return result;
            }
            let pick = ready[rng.below(ready.len() as u64) as usize];
            let t = Instant::now();
            let outcome = system.step(pick);
            let ns = (t.elapsed().as_nanos() as u64).saturating_sub(result.timer_ns);
            stepped += 1;
            let (bucket, span_name) = match outcome {
                Ok(StepOutcome::Progressed) => (&mut result.progressed, None),
                Ok(StepOutcome::Committed) => {
                    active.retain(|id| *id != pick);
                    (&mut result.committed, None)
                }
                Ok(StepOutcome::Blocked { .. }) => (&mut result.blocked, Some("core.step_blocked")),
                Ok(StepOutcome::DeadlockResolved { .. }) => {
                    (&mut result.resolved, Some("core.step_resolved"))
                }
                Err(e) => {
                    result.problems.push(format!("replay step: {e}"));
                    return result;
                }
            };
            bucket.ns += ns;
            bucket.count += 1;
            if let Some(name) = span_name {
                let end_ns = trace.ns(Instant::now());
                trace.spans.push(Span {
                    name,
                    start_ns: end_ns.saturating_sub(ns),
                    end_ns,
                    parent: NO_PARENT,
                    id: u64::from(pick.raw()),
                    count: 1,
                });
            }
            // Checking the clock every step would cost as much as a step.
            if stepped.is_multiple_of(4096) && started.elapsed().as_secs_f64() >= budget_s {
                break 'chunks;
            }
        }
        // Carry the database into the next chunk's system.
        store = GlobalStore::new();
        for (id, value) in system.store().iter() {
            store.create(id, value).expect("fresh store");
        }
    }
    result
}
