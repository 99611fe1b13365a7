//! The persistent worker pool.
//!
//! Earlier revisions spawned scoped threads inside every `map_indexed` call —
//! one spawn/join per operator stage (each scan, each exchange side, each
//! join), which suppressed speedup on small stages. The pool is now
//! **long-lived**: `WorkerPool::new` spawns its threads once, `map_indexed`
//! publishes a job to them through a condvar-guarded dispatch slot, and the
//! threads are joined when the last clone of the pool drops. Cloning a pool is
//! an `Arc` bump, so one pool created per driver execution is shared by every
//! stage's `ParallelExecutor` and Sink barrier.
//!
//! Tasks are claimed through a shared atomic counter (cheap dynamic load
//! balancing: a worker that finishes a small partition immediately claims the
//! next one). Results land in per-task slots, so the returned vector is in
//! task order regardless of which worker ran what — the caller's fold over the
//! results is therefore deterministic.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A lifetime-erased pointer to the current job's claim-and-run loop.
///
/// `map_indexed` publishes a `&'static`-transmuted reference to a stack
/// closure and blocks until every participating worker has finished with it
/// (`running == 0`) before returning, so the pointee always outlives its use;
/// a raw pointer (rather than the transmuted reference itself) is stored so a
/// worker holding a stale copy after the job completes is merely holding a
/// dangling pointer it will never dereference, not an invalid reference.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared execution from many threads is the
// point) and the dispatch protocol above guarantees it is alive whenever a
// worker dereferences it.
unsafe impl Send for JobRef {}

struct Dispatch {
    /// Bumped once per published job; workers track the last epoch they saw.
    epoch: u64,
    /// The current job, cleared after completion.
    job: Option<JobRef>,
    /// Workers currently inside the job's run loop.
    running: usize,
    shutdown: bool,
}

struct Shared {
    workers: usize,
    dispatch: Mutex<Dispatch>,
    /// Signals workers: a new job was published, or shutdown.
    job_ready: Condvar,
    /// Signals the submitter: the last running worker left the job.
    job_done: Condvar,
}

impl Shared {
    fn worker_loop(&self) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut d = self.dispatch.lock().expect("pool dispatch lock");
                loop {
                    if d.shutdown {
                        return;
                    }
                    if d.epoch != seen {
                        seen = d.epoch;
                        if let Some(job) = d.job {
                            d.running += 1;
                            break job;
                        }
                        // The job completed before this worker woke; keep
                        // waiting for the next epoch.
                    }
                    d = self.job_ready.wait(d).expect("pool dispatch lock");
                }
            };
            // SAFETY: `running` was incremented under the lock while the job
            // was still published, so the submitter cannot return (and drop
            // the closure) before the decrement below.
            (unsafe { &*job.0 })();
            let mut d = self.dispatch.lock().expect("pool dispatch lock");
            d.running -= 1;
            if d.running == 0 {
                self.job_done.notify_all();
            }
        }
    }
}

/// Joins the worker threads when the last pool clone drops.
struct ThreadsGuard {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        {
            let mut d = self.shared.dispatch.lock().expect("pool dispatch lock");
            d.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        for handle in self.handles.lock().expect("pool handles lock").drain(..) {
            let _ = handle.join();
        }
    }
}

/// A pool of persistent worker threads executing indexed tasks.
///
/// Clones share the same threads; the threads are joined when the last clone
/// drops. With `workers <= 1` no threads are spawned at all and every
/// `map_indexed` runs inline — the single-worker pool is a plain loop on the
/// calling thread.
#[derive(Clone)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    _threads: Arc<ThreadsGuard>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.shared.workers)
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads (clamped to at least 1), spawned once and
    /// reused by every subsequent [`WorkerPool::map_indexed`] call.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            workers,
            dispatch: Mutex::new(Dispatch {
                epoch: 0,
                job: None,
                running: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let mut handles = Vec::new();
        if workers > 1 {
            // The submitting thread participates in every job, so `workers`
            // concurrent lanes need `workers - 1` pool threads.
            for _ in 0..workers - 1 {
                let shared = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || shared.worker_loop()));
            }
        }
        Self {
            _threads: Arc::new(ThreadsGuard {
                shared: Arc::clone(&shared),
                handles: Mutex::new(handles),
            }),
            shared,
        }
    }

    /// Number of concurrent lanes (the submitting thread plus the pool
    /// threads).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)` across the pool and returns the
    /// results in task order. With one worker (or at most one task) the tasks
    /// run in a plain loop on the calling thread.
    ///
    /// A panicking task propagates its panic to the caller after the pool
    /// drains the remaining tasks.
    pub fn map_indexed<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.shared.workers <= 1 || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }

        let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        // Carry the submitter's trace onto the pool threads: spans opened
        // inside tasks stitch under the span that was live at submit time,
        // and the publish→first-claim latency feeds the queue-wait gauge.
        // With tracing disabled the capture is inert (one relaxed load).
        let trace_ctx = rdo_trace::TaskContext::capture();
        let published_at = trace_ctx.is_enabled().then(std::time::Instant::now);
        let run = || {
            let _trace = trace_ctx.install();
            if let Some(t0) = published_at {
                rdo_trace::gauge_max("pool.queue_wait_ns", t0.elapsed().as_nanos() as u64);
            }
            loop {
                let task = next.fetch_add(1, Ordering::Relaxed);
                if task >= tasks {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(task))) {
                    Ok(value) => *slots[task].lock().expect("worker slot lock") = Some(value),
                    Err(payload) => {
                        panic_slot
                            .lock()
                            .expect("panic slot lock")
                            .get_or_insert(payload);
                    }
                }
            }
        };

        // Erase the closure's lifetime for the dispatch slot. SAFETY: this
        // function blocks below until `running == 0` and clears the job before
        // returning, so no worker touches `run` (or anything it borrows) after
        // the stack frame is gone.
        let run_ref: &(dyn Fn() + Sync) = &run;
        let run_static: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(run_ref) };
        {
            let mut d = self.shared.dispatch.lock().expect("pool dispatch lock");
            d.epoch += 1;
            d.job = Some(JobRef(run_static as *const _));
        }
        self.shared.job_ready.notify_all();

        // The submitter is a full participant — on a machine with fewer free
        // cores than workers this alone guarantees progress.
        run();

        let mut d = self.shared.dispatch.lock().expect("pool dispatch lock");
        while d.running > 0 {
            d = self.shared.job_done.wait(d).expect("pool dispatch lock");
        }
        d.job = None;
        drop(d);

        if let Some(payload) = panic_slot.into_inner().expect("panic slot lock") {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker slot lock")
                    .expect("every task index below `tasks` was claimed and completed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_task_order() {
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let out = pool.map_indexed(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        pool.map_indexed(100, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool.map_indexed(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn pool_threads_persist_across_jobs() {
        let pool = WorkerPool::new(4);
        // Many back-to-back jobs reuse the same threads; correctness of the
        // epoch protocol shows as exact results on every round.
        for round in 0..200usize {
            let out = pool.map_indexed(9, |i| i + round);
            assert_eq!(out, (0..9).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clones_share_the_same_threads() {
        let pool = WorkerPool::new(3);
        let clone = pool.clone();
        assert_eq!(clone.workers(), 3);
        let a = pool.map_indexed(5, |i| i);
        let b = clone.map_indexed(5, |i| i * 2);
        assert_eq!(a, vec![0, 1, 2, 3, 4]);
        assert_eq!(b, vec![0, 2, 4, 6, 8]);
        drop(pool);
        // The surviving clone still works after the original drops.
        assert_eq!(clone.map_indexed(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_submitters_from_different_clones() {
        let pool = WorkerPool::new(4);
        let other = pool.clone();
        let handle = std::thread::spawn(move || other.map_indexed(50, |i| i * 3));
        let here = pool.map_indexed(50, |i| i * 5);
        let there = handle.join().unwrap();
        assert_eq!(here, (0..50).map(|i| i * 5).collect::<Vec<_>>());
        assert_eq!(there, (0..50).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(20, |i| {
                if i == 13 {
                    panic!("boom at 13");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("unexpected payload");
        assert!(message.contains("boom"), "{message}");
        // The pool survives a panicked job.
        assert_eq!(pool.map_indexed(4, |i| i), vec![0, 1, 2, 3]);
    }
}
