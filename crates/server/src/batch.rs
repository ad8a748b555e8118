//! The group-commit coalescer.
//!
//! Readers push work items as frames arrive; one executor thread pulls
//! **batches**. A batch flushes when it reaches `batch_max` items or when
//! `deadline` has elapsed since its first item arrived — the classic
//! group-commit trade: a bounded latency contribution buys the engine
//! larger batches, which amortise the per-batch quiescent validation,
//! snapshot and fsync, and give the resolver real concurrency to work
//! with.
//!
//! The structure is a plain `Mutex<Vec<T>>` + `Condvar` pair. Both sides
//! are cheap: a push is a lock, a `Vec::push`, and a notify; the executor
//! blocks on the condvar with a timeout equal to the open batch's
//! remaining deadline. After [`Batcher::close`], pushes fail and
//! [`Batcher::next_batch`] drains whatever is queued, then returns `None`
//! forever — the shutdown path's "drain, then stop".

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a batch was flushed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushReason {
    /// The batch reached `batch_max` items.
    Full,
    /// The group-commit deadline expired with a partial batch.
    Deadline,
    /// The batcher was closed; this is (part of) the final drain.
    Drain,
}

struct State<T> {
    queue: Vec<T>,
    /// When the oldest queued item arrived (deadline anchor).
    opened: Option<Instant>,
    closed: bool,
}

/// A multi-producer, single-consumer batch queue with a fill-or-deadline
/// flush policy. See the module docs.
pub struct Batcher<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    batch_max: usize,
    deadline: Duration,
}

impl<T> Batcher<T> {
    /// A batcher flushing at `batch_max` items or `deadline` after the
    /// first queued item, whichever comes first.
    pub fn new(batch_max: usize, deadline: Duration) -> Self {
        Batcher {
            state: Mutex::new(State { queue: Vec::new(), opened: None, closed: false }),
            cond: Condvar::new(),
            batch_max: batch_max.max(1),
            deadline,
        }
    }

    /// Enqueues one item. Returns `false` (item given back via `Err`)
    /// if the batcher is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().expect("batcher mutex poisoned");
        if s.closed {
            return Err(item);
        }
        if s.queue.is_empty() {
            s.opened = Some(Instant::now());
        }
        s.queue.push(item);
        // The executor sleeps on the deadline once a batch is open; only
        // emptiness→first-item and the full threshold change what it
        // would do, but notifying every push is cheap and simpler.
        self.cond.notify_one();
        Ok(())
    }

    /// Takes at most `batch_max` items off the queue. The cap holds even
    /// when work piled up while the executor was busy — oversized engine
    /// runs would trade unbounded latency for the tail of the queue. A
    /// nonempty remainder re-anchors the deadline (and will typically
    /// flush again immediately via the fill check anyway).
    fn take_batch(&self, s: &mut State<T>) -> Vec<T> {
        if s.queue.len() <= self.batch_max {
            s.opened = None;
            return std::mem::take(&mut s.queue);
        }
        let rest = s.queue.split_off(self.batch_max);
        s.opened = Some(Instant::now());
        std::mem::replace(&mut s.queue, rest)
    }

    /// Blocks until a batch is ready and returns it with the flush
    /// reason; `None` once the batcher is closed and drained.
    pub fn next_batch(&self) -> Option<(Vec<T>, FlushReason)> {
        let mut s = self.state.lock().expect("batcher mutex poisoned");
        loop {
            if s.closed {
                if s.queue.is_empty() {
                    return None;
                }
                return Some((self.take_batch(&mut s), FlushReason::Drain));
            }
            if s.queue.len() >= self.batch_max {
                return Some((self.take_batch(&mut s), FlushReason::Full));
            }
            match s.opened {
                None => {
                    s = self.cond.wait(s).expect("batcher mutex poisoned");
                }
                Some(opened) => {
                    let elapsed = opened.elapsed();
                    if elapsed >= self.deadline {
                        return Some((self.take_batch(&mut s), FlushReason::Deadline));
                    }
                    let (guard, _timeout) = self
                        .cond
                        .wait_timeout(s, self.deadline - elapsed)
                        .expect("batcher mutex poisoned");
                    s = guard;
                }
            }
        }
    }

    /// Stops accepting new items; the executor drains what is queued and
    /// then sees `None`.
    pub fn close(&self) {
        let mut s = self.state.lock().expect("batcher mutex poisoned");
        s.closed = true;
        drop(s);
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fills_trigger_before_deadline() {
        let b = Batcher::new(3, Duration::from_secs(60));
        for i in 0..3 {
            b.push(i).unwrap();
        }
        let (batch, reason) = b.next_batch().unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(reason, FlushReason::Full);
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let b = Arc::new(Batcher::new(1000, Duration::from_millis(20)));
        b.push(7).unwrap();
        let start = Instant::now();
        let (batch, reason) = b.next_batch().unwrap();
        assert_eq!(batch, vec![7]);
        assert_eq!(reason, FlushReason::Deadline);
        assert!(start.elapsed() >= Duration::from_millis(15), "flushed too early");
    }

    #[test]
    fn close_drains_then_ends() {
        let b = Batcher::new(1000, Duration::from_secs(60));
        b.push(1).unwrap();
        b.push(2).unwrap();
        b.close();
        assert_eq!(b.push(3), Err(3));
        let (batch, reason) = b.next_batch().unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(reason, FlushReason::Drain);
        assert!(b.next_batch().is_none());
        assert!(b.next_batch().is_none(), "closed batcher stays closed");
    }

    #[test]
    fn flushes_never_exceed_batch_max() {
        let b = Batcher::new(4, Duration::from_secs(60));
        for i in 0..11 {
            b.push(i).unwrap();
        }
        b.close();
        let mut sizes = Vec::new();
        let mut got = Vec::new();
        while let Some((batch, _)) = b.next_batch() {
            sizes.push(batch.len());
            got.extend(batch);
        }
        assert!(sizes.iter().all(|&n| n <= 4), "oversized flush: {sizes:?}");
        assert_eq!(got, (0..11).collect::<Vec<_>>(), "cap must preserve order and lose nothing");
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let b = Arc::new(Batcher::new(64, Duration::from_millis(5)));
        let consumer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((batch, _)) = b.next_batch() {
                    got.extend(batch);
                }
                got
            })
        };
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        b.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        b.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        let mut expected: Vec<i32> =
            (0..4).flat_map(|p| (0..250).map(move |i| p * 1000 + i)).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}
