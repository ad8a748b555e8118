//! The worker pool a [`Session`](crate::Session) owns: one helper thread
//! fewer than its workers, spawned once, with the calling thread as worker
//! 0. A session has one worker per core (at least two, at most its
//! multiprogramming level); the transactions in flight are data its
//! workers pick up, not threads.
//!
//! Each helper blocks on its own job channel. [`Pool::run`] hands one
//! batch's shared job to exactly the helpers that batch needs, runs worker
//! 0 on the caller, and returns only after every woken helper has finished
//! *and dropped its handle on the job* — so the caller can take the job
//! back by value (`Arc::try_unwrap`) without any `unsafe`. Dropping the
//! pool closes every job channel and joins every helper.
//!
//! A panic inside a job never reaches the pool's bookkeeping: the worker
//! catches it, reports it through [`Job::panicked`] (so the job can stop
//! its other workers), and still reports done. A batch therefore fails
//! instead of hanging, and its helpers survive to be joined.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// One batch's shared work, run by every participating worker.
pub(crate) trait Job: Send + Sync + 'static {
    /// Runs one worker's share; returns when the work is drained or
    /// aborted.
    fn work(&self);

    /// Called on the worker whose [`Self::work`] panicked, with the panic
    /// message, so the job can stop the workers still running it.
    fn panicked(&self, message: String);
}

/// A helper thread and the channel that feeds it jobs.
struct Helper {
    jobs: Sender<Arc<dyn Job>>,
    handle: JoinHandle<()>,
}

/// Helper threads plus the channel on which they report finished jobs.
pub(crate) struct Pool {
    helpers: Vec<Helper>,
    done: Receiver<()>,
}

impl Pool {
    /// Spawns `workers − 1` helpers (none for `workers ≤ 1`).
    pub(crate) fn new(workers: usize) -> Pool {
        let (done_tx, done) = mpsc::channel();
        let helpers = (1..workers)
            .map(|i| {
                let (jobs, inbox) = mpsc::channel::<Arc<dyn Job>>();
                let done = done_tx.clone();
                let handle = thread::Builder::new()
                    .name(format!("pr-par-{i}"))
                    .spawn(move || {
                        for job in inbox {
                            run_worker(&*job);
                            // Released before reporting, so the caller's
                            // `Arc::try_unwrap` sees the last handle gone.
                            drop(job);
                            let _ = done.send(());
                        }
                    })
                    .expect("failed to spawn a worker thread");
                Helper { jobs, handle }
            })
            .collect();
        Pool { helpers, done }
    }

    /// Workers the pool can run a job on: its helpers plus the caller.
    pub(crate) fn workers(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Runs `job` on `workers` workers — the caller as worker 0 plus the
    /// first `workers − 1` helpers — and returns once all of them are done
    /// with it. `workers` is clamped to the pool's size.
    pub(crate) fn run<J: Job>(&self, job: &Arc<J>, workers: usize) {
        let mut woken = 0;
        for helper in self.helpers.iter().take(workers.saturating_sub(1)) {
            // A send fails only if the helper is gone; it then owes no done.
            if helper.jobs.send(Arc::clone(job) as Arc<dyn Job>).is_ok() {
                woken += 1;
            }
        }
        run_worker(&**job);
        for _ in 0..woken {
            if self.done.recv().is_err() {
                break; // every helper is gone; nobody is left to wait for
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing every channel first lets all helpers exit in parallel.
        let handles: Vec<JoinHandle<()>> =
            self.helpers.drain(..).map(|Helper { handle, .. }| handle).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Runs one worker's share of `job`, turning a panic into
/// [`Job::panicked`].
fn run_worker(job: &dyn Job) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job.work())) {
        job.panicked(panic_message(payload.as_ref()));
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Counts the helper threads that have exited: a thread-local whose
    /// destructor runs as its thread ends.
    struct ExitProbe(Arc<AtomicUsize>);

    impl Drop for ExitProbe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static PROBE: RefCell<Option<ExitProbe>> = const { RefCell::new(None) };
    }

    /// Panics on exactly one helper when `trip` is set.
    struct Planted {
        caller: ThreadId,
        trip: AtomicBool,
        ran: AtomicUsize,
        exited: Arc<AtomicUsize>,
        panics: Mutex<Vec<String>>,
    }

    impl Job for Planted {
        fn work(&self) {
            self.ran.fetch_add(1, Ordering::SeqCst);
            if thread::current().id() == self.caller {
                return;
            }
            PROBE.with(|p| {
                p.borrow_mut().get_or_insert_with(|| ExitProbe(Arc::clone(&self.exited)));
            });
            if self.trip.swap(false, Ordering::SeqCst) {
                panic!("planted helper failure");
            }
        }

        fn panicked(&self, message: String) {
            self.panics.lock().unwrap().push(message);
        }
    }

    #[test]
    fn a_panicking_helper_fails_the_batch_and_drop_joins_every_helper() {
        let exited = Arc::new(AtomicUsize::new(0));
        let pool = Pool::new(4);
        let planted = |trip| {
            Arc::new(Planted {
                caller: thread::current().id(),
                trip: AtomicBool::new(trip),
                ran: AtomicUsize::new(0),
                exited: Arc::clone(&exited),
                panics: Mutex::new(Vec::new()),
            })
        };
        let job = planted(true);
        pool.run(&job, 4);
        let job = Arc::try_unwrap(job).ok().expect("every helper released the job");
        assert_eq!(job.ran.into_inner(), 4, "every worker ran");
        assert_eq!(job.panics.into_inner().unwrap(), vec!["planted helper failure".to_string()]);
        assert_eq!(exited.load(Ordering::SeqCst), 0, "the panic did not kill its helper");

        // The pool still serves a full batch afterwards.
        let job = planted(false);
        pool.run(&job, 4);
        assert_eq!(job.ran.load(Ordering::SeqCst), 4);
        assert!(job.panics.lock().unwrap().is_empty());

        drop(pool);
        assert_eq!(exited.load(Ordering::SeqCst), 3, "drop joined every helper");
    }

    #[test]
    fn only_the_workers_a_batch_needs_run_it() {
        let pool = Pool::new(4);
        let job = Arc::new(Planted {
            caller: thread::current().id(),
            trip: AtomicBool::new(false),
            ran: AtomicUsize::new(0),
            exited: Arc::new(AtomicUsize::new(0)),
            panics: Mutex::new(Vec::new()),
        });
        pool.run(&job, 2);
        assert_eq!(job.ran.load(Ordering::SeqCst), 2);
        pool.run(&job, 1);
        assert_eq!(job.ran.load(Ordering::SeqCst), 3, "a one-worker batch runs on the caller");
        pool.run(&job, 9);
        assert_eq!(job.ran.load(Ordering::SeqCst), 7, "clamped to the pool's four workers");
    }
}
