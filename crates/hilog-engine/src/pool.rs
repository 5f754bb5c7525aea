//! A small scoped-thread work pool for parallel evaluation.
//!
//! The vendored-stub build environment has no rayon, so the engine brings
//! its own fork/join primitive: [`run_tasks`] runs a batch of independent
//! closures on up to `threads` scoped worker threads and returns their
//! results **in task order**, which is what makes the SCC-wave scheduler in
//! [`crate::wfs`] and the partitioned semi-naive rounds in [`crate::horn`]
//! deterministic — workers race over the queue, but every result lands in
//! its task's slot and is merged in a fixed order afterwards.
//!
//! The pool is deliberately batch-shaped (spawn, drain, join) rather than a
//! long-lived executor: evaluation work arrives in waves with a barrier
//! between them, and scoped threads let tasks borrow the shared read-only
//! evaluation state (`IndexedProgram`, `AtomStore`, the settled assignment)
//! without `Arc` plumbing.
//!
//! **Counting.**  The per-thread counters of [`crate::ambient`] follow the
//! work back to whoever dispatched it, here and nowhere else.  A thread
//! publishing to a pool *with workers* counts the wave and its tasks itself.
//! Whatever a *spawned* worker counts while it runs tasks — probes, spill
//! faults and page-outs, every field — it returns when it retires, and the
//! thread that spawned it adds that to its own, once, at the join.  A task
//! that runs inline (a one-thread or one-task batch, a worker-less wave
//! pool, the publisher draining its own wave) counts where it runs, which
//! already is the dispatching thread.

use crate::ambient::{count, counters, credit, Counters};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::ScopedJoinHandle;

/// Joins spawned workers — each returns all its thread ever counted — and
/// credits that to this thread.  A worker's panic carries on in the caller.
fn credit_workers(workers: Vec<ScopedJoinHandle<'_, Counters>>) {
    for worker in workers {
        credit(
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        );
    }
}

/// The default `eval_threads` for [`crate::horn::EvalOptions`]: the
/// `HILOG_EVAL_THREADS` environment variable when set (clamped to at least
/// 1, read once per process — this is how CI runs the whole suite with a
/// parallel default), otherwise the machine's available parallelism.
pub fn default_eval_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Some(n) = std::env::var("HILOG_EVAL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs every task, on up to `threads` scoped worker threads, and returns
/// the results in task order.
///
/// With `threads <= 1` or fewer than two tasks the batch runs inline on the
/// calling thread — no threads are spawned, no pool counter moves, and the
/// call is exactly a `map`.  Otherwise `min(threads, tasks)` workers race over
/// a shared queue; each finished task's result is stored in its own slot, so
/// the returned order never depends on the schedule.  A panicking task
/// propagates through the scope and panics the caller.
pub fn run_tasks<T, F>(threads: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|task| task()).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let queue: Vec<(usize, F)> = tasks.into_iter().enumerate().collect();
    let queue = Mutex::new(queue.into_iter());
    let workers = threads.min(slots.len());
    count(|c| &c.parallel_tasks, slots.len() as u64);
    std::thread::scope(|scope| {
        let work = || loop {
            // Hold the queue lock only for the dequeue, not the task.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((index, task)) = next else {
                break counters();
            };
            let out = task();
            *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        };
        credit_workers((0..workers).map(|_| scope.spawn(work)).collect());
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every queued task ran to completion")
        })
        .collect()
}

/// A worker pool whose threads persist across many small batches.
///
/// [`run_tasks`] spawns fresh threads per call, which is fine for a handful
/// of chunky tasks but ruinous for the SCC-wave scheduler: a deep program
/// produces dozens of waves of sub-microsecond component evaluations, and a
/// thread spawn costs more than an entire wave.  [`with_wave_pool`] spawns
/// the workers once per evaluation; each [`WavePool::run_batch`] then costs
/// one mutex round-trip per job, and the publishing thread drains the queue
/// alongside the workers, so a single-job wave usually runs inline without
/// waking anyone.  A pool without workers (`threads <= 1`) has no queue to
/// share: its batches run as a plain loop on the calling thread.
///
/// Jobs return nothing — they communicate through state they capture (the
/// wave evaluator writes per-atom cells owned by exactly one job, so batch
/// results are schedule-independent).  `run_batch` returns only when every
/// published job has finished; the mutex hand-off makes those writes
/// visible to the next batch's jobs.
pub struct WavePool<'scope> {
    /// Worker threads besides the publisher; zero means every batch runs
    /// inline and counts as neither a pooled wave nor pooled tasks.
    workers: usize,
    state: Mutex<WaveState<'scope>>,
    /// Signalled when jobs are published (workers wait on this).
    work_ready: Condvar,
    /// Signalled when the last pending job of a batch finishes (the
    /// publisher waits on this).
    batch_done: Condvar,
}

/// A boxed batch job for [`WavePool::run_batch`]; communicates through
/// captured state rather than a return value.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

struct WaveState<'scope> {
    queue: VecDeque<Job<'scope>>,
    /// Jobs published but not yet finished (queued + running).
    pending: usize,
    shutdown: bool,
}

fn lock_state<'a, 'scope>(pool: &'a WavePool<'scope>) -> MutexGuard<'a, WaveState<'scope>> {
    pool.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<'scope> WavePool<'scope> {
    fn new(workers: usize) -> Self {
        WavePool {
            workers,
            state: Mutex::new(WaveState {
                queue: VecDeque::new(),
                pending: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
        }
    }

    /// Worker loop: take a job or sleep until one is published; on shutdown
    /// retire, returning what this thread counted.  A guard decrements
    /// `pending` even if the job panics, so the publisher is never left
    /// waiting on a batch that cannot finish.
    fn work(&self) -> Counters {
        loop {
            let job = {
                let mut state = lock_state(self);
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    if state.shutdown {
                        return counters();
                    }
                    state = self
                        .work_ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.finish_one(job);
        }
    }

    /// Runs one dequeued job and retires it from the pending count.
    fn finish_one(&self, job: Job<'scope>) {
        struct Retire<'a, 'scope>(&'a WavePool<'scope>);
        impl Drop for Retire<'_, '_> {
            fn drop(&mut self) {
                let mut state = lock_state(self.0);
                state.pending -= 1;
                if state.pending == 0 {
                    self.0.batch_done.notify_all();
                }
            }
        }
        let retire = Retire(self);
        job();
        drop(retire);
    }

    /// Publishes a batch of jobs (one SCC wave), helps drain the queue on
    /// the calling thread, and returns when every job of the batch has
    /// finished.  Without workers the batch simply runs here, in order, and
    /// counts neither as a pooled wave nor as pooled tasks.
    ///
    /// `wake_workers: false` keeps the workers asleep so the whole batch
    /// runs inline on the calling thread — the right call when the batch is
    /// smaller than the cost of a context switch.  The hint changes only
    /// *where* jobs run, never their results, so callers may derive it from
    /// workload shape without losing schedule independence.
    pub fn run_batch(&self, jobs: Vec<Job<'scope>>, wake_workers: bool) {
        if jobs.is_empty() {
            return;
        }
        if self.workers == 0 {
            jobs.into_iter().for_each(|job| job());
            return;
        }
        count(|c| &c.parallel_waves, 1);
        count(|c| &c.parallel_tasks, jobs.len() as u64);
        let multiple = jobs.len() > 1;
        {
            let mut state = lock_state(self);
            state.pending += jobs.len();
            state.queue.extend(jobs);
        }
        if wake_workers && multiple {
            self.work_ready.notify_all();
        }
        // Help: the publisher drains alongside the workers, so a
        // single-job batch usually runs right here with no context switch.
        loop {
            let job = lock_state(self).queue.pop_front();
            match job {
                Some(job) => self.finish_one(job),
                None => break,
            }
        }
        let mut state = lock_state(self);
        while state.pending > 0 {
            state = self
                .batch_done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `body` with a [`WavePool`] of `threads - 1` persistent workers (the
/// publishing thread itself is the remaining one).  With `threads <= 1` no
/// worker is spawned and every batch runs inline on the calling thread —
/// still through the pool API, so callers need no serial twin, but without
/// counting a wave or a task: nothing was pooled.
///
/// `'env` is the lifetime of the evaluation state the jobs borrow; it
/// outlives the pool, so batches can capture references to it freely.
pub fn with_wave_pool<'env, R>(threads: usize, body: impl FnOnce(&WavePool<'env>) -> R) -> R {
    // Declared before the scope so the workers' borrow of it outlives them.
    let workers = threads.saturating_sub(1);
    let pool: WavePool<'env> = WavePool::new(workers);
    // Wakes the workers for shutdown even if `body` panics — otherwise the
    // scope's implicit join would wait on sleeping workers forever.
    struct Shutdown<'a, 'env>(&'a WavePool<'env>);
    impl Drop for Shutdown<'_, '_> {
        fn drop(&mut self) {
            lock_state(self.0).shutdown = true;
            self.0.work_ready.notify_all();
        }
    }
    std::thread::scope(|scope| {
        let shutdown = Shutdown(&pool);
        let spawned = (0..workers).map(|_| scope.spawn(|| pool.work())).collect();
        let out = body(&pool);
        drop(shutdown);
        credit_workers(spawned);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<_> = (0..64).map(|i| move || i * 2).collect();
        let out = run_tasks(4, tasks);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_does_not_touch_the_task_counter() {
        let before = counters();
        assert_eq!(run_tasks(1, vec![|| 1, || 2, || 3]), vec![1, 2, 3]);
        assert_eq!(run_tasks(8, vec![|| 42]), vec![42]);
        assert_eq!(
            counters(),
            before,
            "inline execution must not count as pooled"
        );
    }

    /// Runs two five-job batches through a wave pool of `threads` threads
    /// and returns how far the (waves, tasks) counters moved meanwhile.
    fn wave_pool_counter_deltas(threads: usize) -> (u64, u64) {
        let ran = AtomicUsize::new(0);
        let before = counters();
        with_wave_pool(threads, |pool| {
            for wake_workers in [false, true] {
                let tick = || {
                    ran.fetch_add(1, Ordering::Relaxed);
                };
                let jobs = (0..5).map(|_| Box::new(tick) as Job<'_>).collect();
                pool.run_batch(jobs, wake_workers);
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), 10, "every job ran");
        let counted = counters() - before;
        (counted.parallel_waves, counted.parallel_tasks)
    }

    // The counters belong to the dispatching thread — this test's own — so
    // the deltas below are exact whatever the rest of the process pools.

    #[test]
    fn worker_less_wave_pool_does_not_touch_the_counters() {
        assert_eq!(wave_pool_counter_deltas(1), (0, 0));
    }

    #[test]
    fn wave_pool_with_workers_counts_waves_and_every_task() {
        // Whoever drains a job — a worker or the helping publisher — it was
        // dispatched to a pool with workers, and counts: two batches of five.
        assert_eq!(wave_pool_counter_deltas(3), (2, 10));
    }

    #[test]
    fn pooled_execution_counts_tasks() {
        let before = counters();
        let tasks: Vec<_> = (0..10).map(|i| move || i).collect();
        assert_eq!(run_tasks(3, tasks), (0..10).collect::<Vec<_>>());
        assert_eq!((counters() - before).parallel_tasks, 10);
    }

    /// What one task of the forwarding tests counts: something in every
    /// field a task can move, the deadline's included.
    fn count_one_of_each() {
        count(|c| &c.index_probes, 1);
        count(|c| &c.index_fallback_scans, 2);
        count(|c| &c.residency_faults, 3);
        count(|c| &c.spill_writes, 4);
        count(|c| &c.spill_io_errors, 5);
        count(|c| &c.deadline_checks, 6);
        count(|c| &c.deadline_exceeded, 7);
    }

    fn one_of_each_times(tasks: u64) -> Counters {
        Counters {
            index_probes: tasks,
            index_fallback_scans: 2 * tasks,
            residency_faults: 3 * tasks,
            spill_writes: 4 * tasks,
            spill_io_errors: 5 * tasks,
            deadline_checks: 6 * tasks,
            deadline_exceeded: 7 * tasks,
            ..Counters::default()
        }
    }

    #[test]
    fn whatever_a_spawned_worker_counts_comes_back_once_in_every_field() {
        let before = counters();
        run_tasks(4, vec![count_one_of_each; 9]);
        assert_eq!(
            counters() - before,
            Counters {
                parallel_tasks: 9,
                ..one_of_each_times(9)
            }
        );
        // A wave pool's jobs run on its workers or on the helping publisher,
        // as the schedule has it: each is counted once either way.
        let before = counters();
        with_wave_pool(3, |pool| {
            for wake_workers in [false, true] {
                let jobs = (0..6)
                    .map(|_| Box::new(count_one_of_each) as Job<'_>)
                    .collect();
                pool.run_batch(jobs, wake_workers);
            }
        });
        assert_eq!(
            counters() - before,
            Counters {
                parallel_waves: 2,
                parallel_tasks: 12,
                ..one_of_each_times(12)
            }
        );
    }

    #[test]
    fn a_task_run_inline_is_not_credited_twice() {
        let before = counters();
        run_tasks(1, vec![count_one_of_each; 3]);
        run_tasks(8, vec![count_one_of_each]);
        with_wave_pool(1, |pool| {
            pool.run_batch(vec![Box::new(count_one_of_each) as Job<'_>], true)
        });
        assert_eq!(counters() - before, one_of_each_times(5));
    }

    #[test]
    fn another_threads_pool_work_is_not_counted_here() {
        let before = counters();
        let theirs = std::thread::scope(|scope| {
            let busy = scope.spawn(|| {
                let before = counters();
                run_tasks(4, vec![count_one_of_each; 9]);
                (wave_pool_counter_deltas(3), counters() - before)
            });
            busy.join().expect("the busy thread finishes")
        });
        assert_eq!(theirs.0, (2, 10));
        assert_eq!(theirs.1.index_probes, 9, "credited to its dispatcher");
        assert_eq!(counters(), before);
    }

    #[test]
    fn tasks_can_borrow_shared_state() {
        let data: Vec<usize> = (0..100).collect();
        let tasks: Vec<_> = (0..4)
            .map(|chunk| {
                let data = &data;
                move || data.iter().skip(chunk * 25).take(25).sum::<usize>()
            })
            .collect();
        let partials = run_tasks(2, tasks);
        assert_eq!(partials.iter().sum::<usize>(), 4950);
    }

    #[test]
    fn default_eval_threads_is_at_least_one() {
        assert!(default_eval_threads() >= 1);
    }
}
