//! Scheduler abstraction: which ready transaction steps next.
//!
//! Concurrency in the paper's model is interleaving of atomic operations;
//! a scheduler fixes the interleaving, making every run reproducible. The
//! engine hands the scheduler the ready set (sorted by id) and lets it
//! pick. `pr-sim` adds a seeded random scheduler and scripted schedulers
//! for the figure reproductions.

use pr_model::TxnId;

/// Picks the next transaction to step from the (non-empty) ready set.
pub trait Scheduler {
    /// Chooses one of `ready` (sorted ascending, never empty).
    fn pick(&mut self, ready: &[TxnId]) -> TxnId;
}

/// Deterministic round-robin over transaction ids.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    last: Option<TxnId>,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, ready: &[TxnId]) -> TxnId {
        let pick = match self.last {
            Some(last) => ready.iter().copied().find(|&t| t > last).unwrap_or(ready[0]),
            None => ready[0],
        };
        self.last = Some(pick);
        pick
    }
}

/// A scheduler that follows a scripted order of transaction ids, skipping
/// entries that are not currently ready; falls back to round-robin when
/// the script is exhausted. Used to reproduce the paper's figures, whose
/// deadlocks depend on specific interleavings.
#[derive(Clone, Debug)]
pub struct Scripted {
    script: Vec<TxnId>,
    pos: usize,
    fallback: RoundRobin,
}

impl Scripted {
    /// Creates a scripted scheduler from an explicit pick order.
    pub fn new(script: Vec<TxnId>) -> Self {
        Scripted { script, pos: 0, fallback: RoundRobin::new() }
    }

    /// Remaining scripted picks.
    pub fn remaining(&self) -> usize {
        self.script.len().saturating_sub(self.pos)
    }
}

impl Scheduler for Scripted {
    fn pick(&mut self, ready: &[TxnId]) -> TxnId {
        while self.pos < self.script.len() {
            let want = self.script[self.pos];
            self.pos += 1;
            if ready.contains(&want) {
                self.fallback.last = Some(want);
                return want;
            }
            // A scripted pick for a blocked/committed transaction is
            // skipped: the script positions are advisory.
        }
        self.fallback.pick(ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    #[test]
    fn round_robin_cycles_through_ready_set() {
        let mut s = RoundRobin::new();
        let ready = [t(1), t(2), t(3)];
        assert_eq!(s.pick(&ready), t(1));
        assert_eq!(s.pick(&ready), t(2));
        assert_eq!(s.pick(&ready), t(3));
        assert_eq!(s.pick(&ready), t(1));
    }

    #[test]
    fn round_robin_adapts_to_shrinking_ready_set() {
        let mut s = RoundRobin::new();
        assert_eq!(s.pick(&[t(1), t(2), t(3)]), t(1));
        // T2 blocked; next larger than 1 among ready is 3.
        assert_eq!(s.pick(&[t(1), t(3)]), t(3));
        assert_eq!(s.pick(&[t(1), t(3)]), t(1));
    }

    #[test]
    fn scripted_follows_script_then_falls_back() {
        let mut s = Scripted::new(vec![t(2), t(2), t(1)]);
        let ready = [t(1), t(2)];
        assert_eq!(s.pick(&ready), t(2));
        assert_eq!(s.pick(&ready), t(2));
        assert_eq!(s.pick(&ready), t(1));
        assert_eq!(s.remaining(), 0);
        // Fallback round-robin.
        assert_eq!(s.pick(&ready), t(2));
    }

    #[test]
    fn scripted_skips_unready_entries() {
        let mut s = Scripted::new(vec![t(9), t(1)]);
        assert_eq!(s.pick(&[t(1), t(2)]), t(1));
    }
}
