//! The runtime invariant sentinel (feature `invariants`).
//!
//! A self-checking harness the engine threads through every state
//! transition when built with `--features invariants`. After each step it
//! re-proves the structural claims the paper's correctness argument rests
//! on:
//!
//! - **Graph/table consistency** — the waits-for graph's two internal maps
//!   agree with each other ([`pr_graph::WaitsForGraph::check_consistent`])
//!   and with the lock table and runtime phases
//!   ([`crate::System::check_invariants`]).
//! - **Theorem 1 (forest property)** — while no transaction has requested
//!   a *shared* lock, the waits-for graph must be a forest at every quiet
//!   point, and any single exclusive wait can close at most **one** new
//!   cycle.
//! - **ω-order legality** — under the paper's partial-order victim policy
//!   (Theorem 2), every preempted transaction must be strictly younger
//!   (by entry order) than the transaction whose request closed the
//!   cycle, or be that transaction itself.
//!
//! The engine hands the sentinel every [`Event`] it records, whether or
//! not its [`crate::EventLog`] is enabled. On violation the sentinel
//! panics with the failed claim *and* the bounded tail of those events,
//! so the report alone reproduces the path into the broken state.

use crate::event::Event;
use std::collections::VecDeque;

/// How many recent events the panic report retains.
const TRACE_CAP: usize = 64;

/// Bounded event tail plus the workload facts the invariants depend on.
#[derive(Debug, Clone)]
pub struct Sentinel {
    /// The most recent events with the step each happened at.
    tail: VecDeque<(u64, Event)>,
    /// Total events ever observed (the tail keeps only the last ones).
    seen: u64,
    /// True until some admitted program requests a shared lock; Theorem 1's
    /// forest property and one-cycle-per-wait bound apply only while this
    /// holds.
    exclusive_only: bool,
}

impl Default for Sentinel {
    fn default() -> Self {
        Self::new()
    }
}

impl Sentinel {
    /// A fresh sentinel for an empty system.
    pub fn new() -> Self {
        Sentinel { tail: VecDeque::new(), seen: 0, exclusive_only: true }
    }

    /// Appends `event`, recorded at `step`, to the bounded tail.
    pub fn observe(&mut self, step: u64, event: &Event) {
        if self.tail.len() == TRACE_CAP {
            self.tail.pop_front();
        }
        self.tail.push_back((step, event.clone()));
        self.seen += 1;
    }

    /// Marks the workload as using shared locks, disabling the
    /// exclusive-only (Theorem 1) checks.
    pub fn note_shared_mode(&mut self) {
        self.exclusive_only = false;
    }

    /// Whether every lock request admitted so far is exclusive.
    pub fn exclusive_only(&self) -> bool {
        self.exclusive_only
    }

    /// Panics with the violated claim and the recent event tail.
    pub fn fail(&self, context: &str, violation: &str) -> ! {
        let shown = self.tail.len();
        let mut report = format!(
            "invariant sentinel tripped at {context}: {violation}\n\
             --- last {shown} of {} engine events ---\n",
            self.seen
        );
        for (i, (step, event)) in self.tail.iter().enumerate() {
            let n = self.seen as usize - shown + i + 1;
            report.push_str(&format!("  {n:>3}. [{step:>6}] {event}\n"));
        }
        panic!("{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::TxnId;

    fn committed(i: u32) -> Event {
        Event::Committed { txn: TxnId::new(i) }
    }

    #[test]
    fn tail_is_bounded_but_counts_everything() {
        let mut s = Sentinel::new();
        for i in 0..(TRACE_CAP as u32 + 10) {
            s.observe(u64::from(i), &committed(i));
        }
        assert_eq!(s.seen, TRACE_CAP as u64 + 10);
        assert_eq!(s.tail.len(), TRACE_CAP);
        assert_eq!(s.tail.front(), Some(&(10, committed(10))));
    }

    #[test]
    fn fail_reports_context_and_tail() {
        let mut s = Sentinel::new();
        s.observe(3, &Event::Admitted { txn: TxnId::new(1) });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.fail("unit test", "synthetic violation")
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("synthetic violation"), "{msg}");
        assert!(msg.contains("    1. [     3] T1 admitted"), "{msg}");
    }

    #[test]
    fn shared_mode_latches() {
        let mut s = Sentinel::new();
        assert!(s.exclusive_only());
        s.note_shared_mode();
        assert!(!s.exclusive_only());
    }
}
