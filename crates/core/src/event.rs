//! Structured event log: every externally meaningful engine action, in
//! order, for debugging, tracing, and the narrated examples.
//!
//! Logging is off by default (the hot experiment loops pay nothing) and
//! bounded when on, so a runaway workload cannot exhaust memory.

use pr_model::{EntityId, LockIndex, LockMode, TxnId};
use std::fmt;

/// One engine event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// A transaction was admitted.
    Admitted {
        /// The new transaction.
        txn: TxnId,
    },
    /// A lock was granted (immediately or after waiting).
    Granted {
        /// Grantee.
        txn: TxnId,
        /// Entity locked.
        entity: EntityId,
        /// Mode acquired.
        mode: LockMode,
    },
    /// A lock request had to wait.
    Waited {
        /// Requester.
        txn: TxnId,
        /// Contested entity.
        entity: EntityId,
        /// Holders being waited on.
        holders: Vec<TxnId>,
    },
    /// A deadlock was detected.
    DeadlockDetected {
        /// The transaction whose request closed the cycle(s).
        causer: TxnId,
        /// The requested entity.
        entity: EntityId,
        /// Number of cycles closed.
        cycles: usize,
    },
    /// A transaction was rolled back.
    RolledBack {
        /// The victim.
        victim: TxnId,
        /// Lock state rolled back to.
        target: LockIndex,
        /// States lost.
        cost: u32,
    },
    /// An entity's new global value was published (unlock/commit).
    Published {
        /// Publisher.
        txn: TxnId,
        /// Entity published.
        entity: EntityId,
    },
    /// A transaction committed.
    Committed {
        /// The transaction.
        txn: TxnId,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Admitted { txn } => write!(f, "{txn} admitted"),
            Event::Granted { txn, entity, mode } => {
                write!(f, "{txn} granted {mode}-lock on {entity}")
            }
            Event::Waited { txn, entity, holders } => {
                write!(f, "{txn} waits for {entity} held by {holders:?}")
            }
            Event::DeadlockDetected { causer, entity, cycles } => {
                write!(f, "deadlock: {causer}'s request of {entity} closed {cycles} cycle(s)")
            }
            Event::RolledBack { victim, target, cost } => {
                write!(f, "{victim} rolled back to lock state {target} (cost {cost})")
            }
            Event::Published { txn, entity } => write!(f, "{txn} published {entity}"),
            Event::Committed { txn } => write!(f, "{txn} committed"),
        }
    }
}

/// A bounded, optionally enabled event log.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<(u64, Event)>,
    capacity: usize,
    dropped: u64,
}

impl EventLog {
    /// Default bound on retained events.
    pub const DEFAULT_CAPACITY: usize = 100_000;

    /// Creates a disabled log.
    pub fn new() -> Self {
        EventLog {
            enabled: false,
            events: Vec::new(),
            capacity: Self::DEFAULT_CAPACITY,
            dropped: 0,
        }
    }

    /// Enables recording with the given bound; events beyond it are
    /// counted but not retained.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity;
    }

    /// Records `event` at logical time `step` (no-op while disabled).
    pub fn record(&mut self, step: u64, event: Event) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push((step, event));
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &[(u64, Event)] {
        &self.events
    }

    /// Events that arrived after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders a human-readable timeline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (step, ev) in &self.events {
            out.push_str(&format!("[{step:>6}] {ev}\n"));
        }
        if self.dropped > 0 {
            out.push_str(&format!("… {} further events dropped (capacity)\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> Event {
        Event::Committed { txn: TxnId::new(i) }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new();
        log.record(1, ev(1));
        assert!(log.events().is_empty());
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = EventLog::new();
        log.enable(10);
        log.record(1, ev(1));
        log.record(2, ev(2));
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].0, 1);
        let rendered = log.render();
        assert!(rendered.contains("T1 committed"));
        assert!(rendered.contains("T2 committed"));
    }

    #[test]
    fn capacity_bounds_retention() {
        let mut log = EventLog::new();
        log.enable(2);
        for i in 0..5 {
            log.record(u64::from(i), ev(i));
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert!(log.render().contains("3 further events dropped"));
    }

    #[test]
    fn event_display_forms() {
        use pr_model::{EntityId, LockIndex, LockMode};
        let e = Event::Granted {
            txn: TxnId::new(1),
            entity: EntityId::new(0),
            mode: LockMode::Exclusive,
        };
        assert_eq!(e.to_string(), "T1 granted X-lock on a");
        let e = Event::RolledBack { victim: TxnId::new(2), target: LockIndex::new(1), cost: 4 };
        assert_eq!(e.to_string(), "T2 rolled back to lock state 1 (cost 4)");
        let e =
            Event::DeadlockDetected { causer: TxnId::new(2), entity: EntityId::new(4), cycles: 1 };
        assert!(e.to_string().contains("closed 1 cycle"));
    }
}
