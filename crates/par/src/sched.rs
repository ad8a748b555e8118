//! One batch's scheduler: which transaction a worker runs next.
//!
//! A batch keeps at most `mpl` transactions in flight (claimed and not yet
//! committed) on a fixed set of workers. A transaction that must wait is
//! *set down*: its worker returns here, and the transaction sits in its
//! slot as data until a releaser promotes it or a resolver rolls it back.
//! Either one pushes its slot index onto the **ready** FIFO. A worker asks
//! [`Sched::next`] for work and gets, in order of preference:
//!
//! 1. the oldest ready entry — possibly stale, which the engine checks
//!    under the slot mutex and discards;
//! 2. a fresh transaction, if fewer than `mpl` are in flight;
//! 3. otherwise it idles on the condvar until a push, a commit or a stop.
//!
//! **`Stuck` is exact.** Only a worker pushes, commits or stops. So when
//! every worker idles with the ready queue empty and transactions still in
//! flight, nothing can ever run again: the batch is stuck, and the last
//! worker to go idle says so at once instead of waiting.
//!
//! The mutex is innermost: it is taken under slot, shard or graph mutexes
//! and never waits on one.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What a worker does next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Next {
    /// Start the transaction in this slot; it now counts as in flight.
    Fresh(usize),
    /// Resume the transaction in this slot, if the entry is not stale.
    Ready(usize),
    /// Every transaction committed, or the batch was stopped: return.
    Done,
    /// Every worker is idle, nothing is ready, and transactions are still
    /// in flight: the batch can never finish.
    Stuck,
}

struct State {
    ready: VecDeque<usize>,
    /// Claimed transactions not yet committed; never above `mpl`.
    in_flight: usize,
    /// The lowest unclaimed slot index.
    next: usize,
    /// Workers waiting on the condvar.
    idle: usize,
    stopped: bool,
}

/// The ready FIFO, the in-flight count, the next unclaimed index and the
/// idle-worker count, behind one mutex and one condvar.
pub(crate) struct Sched {
    state: Mutex<State>,
    wake: Condvar,
    /// Transactions in the batch.
    txns: usize,
    /// Multiprogramming level: the in-flight cap.
    mpl: usize,
    /// Workers that run the batch; all of them idle means stuck.
    workers: usize,
}

impl Sched {
    pub(crate) fn new(txns: usize, mpl: usize, workers: usize) -> Sched {
        Sched {
            state: Mutex::new(State {
                ready: VecDeque::new(),
                in_flight: 0,
                next: 0,
                idle: 0,
                stopped: false,
            }),
            wake: Condvar::new(),
            txns,
            mpl: mpl.max(1),
            workers: workers.max(1),
        }
    }

    /// Whether a fresh transaction may start: one is left, and fewer than
    /// `mpl` are in flight.
    fn claimable(&self, s: &State) -> bool {
        s.in_flight < self.mpl && s.next < self.txns
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("scheduler mutex poisoned")
    }

    /// The calling worker's next piece of work. `committed` says whether
    /// the transaction it ran last committed (rather than being set down
    /// or discarded as stale); that frees its in-flight place. `promoted`
    /// are the waiters that commit promoted, pushed here rather than
    /// apart, so that an idle worker is woken only for work the caller
    /// does not take itself.
    pub(crate) fn next(&self, committed: bool, promoted: impl IntoIterator<Item = usize>) -> Next {
        let mut s = self.lock();
        if committed {
            s.in_flight -= 1;
        }
        s.ready.extend(promoted);
        loop {
            if s.stopped {
                return Next::Done;
            }
            let work = if let Some(i) = s.ready.pop_front() {
                Next::Ready(i)
            } else if self.claimable(&s) {
                let i = s.next;
                s.next += 1;
                s.in_flight += 1;
                debug_assert!(
                    s.in_flight <= self.mpl,
                    "in flight above the multiprogramming level"
                );
                Next::Fresh(i)
            } else if s.in_flight == 0 {
                // `next == txns`: every transaction committed.
                self.wake.notify_all();
                return Next::Done;
            } else if s.idle + 1 == self.workers {
                s.stopped = true;
                self.wake.notify_all();
                return Next::Stuck;
            } else {
                s.idle += 1;
                s = self.wake.wait(s).expect("scheduler mutex poisoned");
                s.idle -= 1;
                continue;
            };
            // Pass the baton: more work is waiting, so wake an idle worker.
            if s.idle > 0 && (!s.ready.is_empty() || self.claimable(&s)) {
                self.wake.notify_one();
            }
            return work;
        }
    }

    /// Pushes `slots` onto the ready FIFO, waking an idle worker for them.
    pub(crate) fn push(&self, slots: impl IntoIterator<Item = usize>) {
        let mut s = self.lock();
        s.ready.extend(slots);
        if s.idle > 0 && !s.ready.is_empty() {
            self.wake.notify_one();
        }
    }

    /// Stops the batch: every idle worker returns [`Next::Done`] at once,
    /// and every busy one at its next call.
    pub(crate) fn stop(&self) {
        self.lock().stopped = true;
        self.wake.notify_all();
    }

    /// The ready FIFO's entries, oldest first.
    #[cfg(test)]
    pub(crate) fn ready(&self) -> Vec<usize> {
        self.lock().ready.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn ready_entries_come_before_fresh_claims_and_stop_at_the_cap() {
        let s = Sched::new(3, 2, 1);
        assert_eq!(s.next(false, []), Next::Fresh(0));
        assert_eq!(s.next(false, []), Next::Fresh(1));
        s.push([0]);
        assert_eq!(s.next(false, []), Next::Ready(0), "a ready entry beats a fresh claim");
        // Two in flight at a cap of two: a commit frees the place.
        assert_eq!(s.next(true, []), Next::Fresh(2));
        assert_eq!(s.next(true, []), Next::Stuck, "one set down, and the only worker idle");
    }

    #[test]
    fn the_batch_is_done_when_every_claim_committed() {
        let s = Sched::new(2, 8, 2);
        assert_eq!(s.next(false, []), Next::Fresh(0));
        assert_eq!(s.next(true, []), Next::Fresh(1));
        assert_eq!(s.next(true, []), Next::Done);
        assert_eq!(Sched::new(0, 8, 2).next(false, []), Next::Done, "an empty batch");
    }

    /// Two workers set their transactions down; the second to idle finds
    /// the first idle and nothing ready, and reports `Stuck` without
    /// waiting for anything.
    #[test]
    fn all_workers_idle_with_transactions_in_flight_is_stuck_at_once() {
        let s = Sched::new(2, 2, 2);
        assert_eq!(s.next(false, []), Next::Fresh(0));
        assert_eq!(s.next(false, []), Next::Fresh(1));
        std::thread::scope(|scope| {
            let first = scope.spawn(|| s.next(false, []));
            while s.lock().idle == 0 {
                std::thread::yield_now();
            }
            let started = Instant::now();
            assert_eq!(s.next(false, []), Next::Stuck);
            assert!(started.elapsed() < Duration::from_secs(1));
            assert_eq!(first.join().unwrap(), Next::Done, "the idle worker stops too");
        });
    }

    /// A push wakes an idle worker; a stop releases every idle worker.
    #[test]
    fn a_push_wakes_an_idle_worker_and_a_stop_releases_them_all() {
        let s = Sched::new(2, 2, 4);
        assert_eq!(s.next(false, []), Next::Fresh(0));
        assert_eq!(s.next(false, []), Next::Fresh(1));
        std::thread::scope(|scope| {
            let idle: Vec<_> = (0..3).map(|_| scope.spawn(|| s.next(false, []))).collect();
            while s.lock().idle < 3 {
                std::thread::yield_now();
            }
            s.push([1]);
            while s.lock().idle > 2 {
                std::thread::yield_now();
            }
            s.stop();
            let mut got: Vec<Next> = idle.into_iter().map(|h| h.join().unwrap()).collect();
            got.sort_by_key(|n| *n != Next::Ready(1));
            assert_eq!(got, vec![Next::Ready(1), Next::Done, Next::Done]);
        });
    }

    /// Workers claiming and committing as fast as they can never hold more
    /// than `mpl` transactions between them.
    #[test]
    fn in_flight_never_exceeds_the_multiprogramming_level() {
        let (txns, mpl, workers) = (400, 2, 4);
        let s = Sched::new(txns, mpl, workers);
        let (live, peak, done) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut committed = false;
                    while let Next::Fresh(_) = s.next(committed, []) {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                        committed = true;
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), txns);
        assert!(peak.load(Ordering::SeqCst) <= mpl, "peak {peak:?} above {mpl}");
    }
}
