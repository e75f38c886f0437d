//! The worker pool: a fixed set of `workers` threads over one bounded
//! priority run queue, with blocking and non-blocking backpressure,
//! panic containment, and graceful shutdown.

use crate::fault::{FaultPlan, FaultReport};
use crate::job::{panic_message, CompletionSlot, JobError, JobHandle, JobOutcome, Task};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::priority::Priority;
use crate::queue::RunQueue;
use std::convert::Infallible;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing knobs for a [`Runtime`].
///
/// A pool runs exactly `workers` threads from construction to
/// shutdown. `min_workers`, `max_workers` and `autoscale` are no-ops:
/// they remain only so that existing struct literals keep compiling,
/// and nothing reads them. `autoscale` can only hold `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads, fixed for the pool's lifetime.
    pub workers: usize,
    /// Run-queue capacity per worker: the pool's one queue holds at
    /// most `workers * queue_capacity` jobs.
    pub queue_capacity: usize,
    /// No-op; the pool always runs `workers` threads.
    pub min_workers: usize,
    /// No-op; the pool always runs `workers` threads.
    pub max_workers: usize,
    /// No-op; only `None` can fill it.
    pub autoscale: Option<Infallible>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        RuntimeConfig {
            workers,
            queue_capacity: 128,
            min_workers: workers,
            max_workers: workers,
            autoscale: None,
        }
    }
}

/// What workers and submitters coordinate on, under one mutex.
struct PoolState {
    /// Every queued job, highest class and earliest deadline first.
    queue: RunQueue,
    shutdown: bool,
}

struct Shared {
    metrics: Arc<MetricsRegistry>,
    state: Mutex<PoolState>,
    /// Most jobs the queue holds: `workers * queue_capacity`.
    capacity: usize,
    /// Signalled on enqueue; workers park here when idle.
    work_available: Condvar,
    /// Signalled on dequeue; blocked submitters park here.
    space_available: Condvar,
    /// Deterministic fault schedule ([`Runtime::with_faults`]); `None`
    /// on production pools — the hooks below reduce to one branch.
    fault: Option<Arc<FaultPlan>>,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("pool state poisoned")
    }

    /// Queues `task`. When the queue is full, waits for room if `block`
    /// is set and hands the task back otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the pool was shut down.
    fn enqueue(&self, priority: Priority, mut task: Task, block: bool) -> Result<(), Task> {
        let mut st = self.lock_state();
        loop {
            if st.shutdown {
                // Release the lock first: panicking under it would
                // poison the pool state.
                drop(st);
                panic!("cannot submit jobs to a runtime after shutdown");
            }
            match st.queue.try_push(self.capacity, priority, task) {
                Ok(()) => break,
                Err(bounced) if block => {
                    task = bounced;
                    st = self.space_available.wait(st).expect("pool state poisoned");
                }
                Err(bounced) => return Err(bounced),
            }
        }
        self.metrics
            .queue_depth
            .store(st.queue.len() as u64, Ordering::Relaxed);
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.work_available.notify_one();
        Ok(())
    }

    /// Parks a worker until it has a job: the queue's highest-class
    /// earliest-deadline one. `None` tells the worker to exit: the pool
    /// is shutting down and the queue is empty.
    fn next_task(&self) -> Option<Task> {
        let mut st = self.lock_state();
        loop {
            if let Some(task) = st.queue.pop() {
                self.metrics
                    .queue_depth
                    .store(st.queue.len() as u64, Ordering::Relaxed);
                drop(st);
                self.space_available.notify_one();
                return Some(task);
            }
            if st.shutdown {
                return None;
            }
            st = self.work_available.wait(st).expect("pool state poisoned");
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    while let Some(task) = shared.next_task() {
        // Fault seam: a scheduled execution delay stalls this worker
        // *before* it runs the task, perturbing execution and
        // completion interleavings without touching any result.
        if let Some(plan) = shared.fault.as_deref() {
            if let Some(delay) = plan.next_execution_delay() {
                std::thread::sleep(delay);
            }
        }
        // The task catches its own panics and fulfils its handle
        // before it returns. The per-worker record lands after that,
        // so a poller that sees it can rely on the handle being done
        // (see `MetricsSnapshot`).
        let start = Instant::now();
        task();
        shared.metrics.record_worker_job(index, start.elapsed());
    }
}

/// Wraps a user closure into a queue [`Task`] plus the [`JobHandle`]
/// observing it. The wrapper catches panics, records metrics, and
/// fulfils the handle — workers just invoke it.
fn package<T, F>(metrics: Arc<MetricsRegistry>, f: F) -> (Task, JobHandle<T>)
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let slot = CompletionSlot::new();
    let handle = JobHandle::new(Arc::clone(&slot));
    let task: Task = Box::new(move || {
        metrics.jobs_in_flight.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(f));
        // Count the job and leave the in-flight gauge *before*
        // fulfilling the handle, so a joiner sees both.
        metrics.record_job(start.elapsed(), result.is_ok());
        metrics.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
        let outcome: JobOutcome<T> =
            result.map_err(|payload| JobError::Panicked(panic_message(payload.as_ref())));
        slot.fulfill(outcome);
    });
    (task, handle)
}

/// A job bounced by [`Runtime::try_spawn_with`] because the run queue
/// was full. The job was dropped without running and counted in
/// `jobs_rejected`; what to do next (defer, shed, submit again later)
/// is the caller's policy.
pub struct RejectedJob<T> {
    _job: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for RejectedJob<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RejectedJob")
    }
}

/// A fixed-size worker pool over one bounded priority run queue. See
/// the crate docs for the full architecture story.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: usize,
    /// The worker threads; emptied by [`Runtime::shutdown`].
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// A pool sized by [`std::thread::available_parallelism`].
    pub fn new() -> Self {
        Self::with_config(RuntimeConfig::default())
    }

    /// A pool of exactly `config.workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_capacity` is zero.
    pub fn with_config(config: RuntimeConfig) -> Self {
        Self::build(config, None)
    }

    /// A pool that replays the given deterministic [`FaultPlan`]
    /// (chaos panics and execution delays — see the
    /// [`fault`](crate::fault) module docs) while otherwise behaving
    /// exactly like [`Runtime::with_config`]. Intended for test
    /// harnesses; injected faults never alter user-job results.
    pub fn with_faults(config: RuntimeConfig, plan: FaultPlan) -> Self {
        Self::build(config, Some(Arc::new(plan)))
    }

    fn build(config: RuntimeConfig, fault: Option<Arc<FaultPlan>>) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "need positive queue capacity");
        let shared = Arc::new(Shared {
            metrics: Arc::new(MetricsRegistry::new(config.workers)),
            state: Mutex::new(PoolState {
                queue: RunQueue::default(),
                shutdown: false,
            }),
            capacity: config.workers * config.queue_capacity,
            work_available: Condvar::new(),
            space_available: Condvar::new(),
            fault,
        });
        let threads = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fcr-runtime-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("spawning runtime worker failed")
            })
            .collect();
        Runtime {
            shared,
            workers: config.workers,
            threads,
        }
    }

    /// The pool's worker count, fixed at construction.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The live metrics registry (for registering domain counters).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// Progress of the injected [`FaultPlan`], or `None` when this
    /// pool was built without one ([`Runtime::with_config`]).
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.shared.fault.as_deref().map(FaultPlan::report)
    }

    /// Fires any chaos panics scheduled at the current user-submission
    /// index. Each travels the full normal path (enqueue, execute,
    /// `catch_unwind`) as an independent job.
    fn fire_submission_faults(&self) {
        let Some(plan) = self.shared.fault.as_deref() else {
            return;
        };
        for _ in 0..plan.take_submission_panics() {
            let (task, handle) = package::<(), _>(Arc::clone(&self.shared.metrics), || {
                panic!("fcr-testkit: injected chaos panic")
            });
            // Straight to the queue (not spawn_with) so a chaos job
            // cannot recursively trigger faults.
            let _ = self.shared.enqueue(Priority::default(), task, true);
            plan.note_panic_injected();
            // Nobody joins a chaos job; dropping the handle is fine —
            // the completion slot absorbs the outcome.
            drop(handle);
        }
    }

    /// A point-in-time copy of the metrics, safe mid-flight.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Submits a job at [`Priority::normal`], **blocking** the caller
    /// while the run queue is full (backpressure). Returns a handle to
    /// `join` for the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was already shut down.
    pub fn spawn<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_with(Priority::default(), f)
    }

    /// Like [`Runtime::spawn`], under an explicit [`Priority`]:
    /// workers dequeue the highest class first and
    /// earliest-deadline-first within a class. Priorities change
    /// **only execution order**, never job results.
    pub fn spawn_with<T, F>(&self, priority: Priority, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.fire_submission_faults();
        let (task, handle) = package(Arc::clone(&self.shared.metrics), f);
        let _ = self.shared.enqueue(priority, task, true);
        handle
    }

    /// Like [`Runtime::spawn_with`], but never blocks: when the run
    /// queue is full the job is dropped unexecuted and comes back as a
    /// [`RejectedJob`] (and `jobs_rejected` is counted), letting the
    /// caller choose its own backpressure policy.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was already shut down.
    pub fn try_spawn_with<T, F>(
        &self,
        priority: Priority,
        f: F,
    ) -> Result<JobHandle<T>, RejectedJob<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.fire_submission_faults();
        let (task, handle) = package(Arc::clone(&self.shared.metrics), f);
        match self.shared.enqueue(priority, task, false) {
            Ok(()) => Ok(handle),
            Err(_dropped) => {
                self.shared
                    .metrics
                    .jobs_rejected
                    .fetch_add(1, Ordering::Relaxed);
                Err(RejectedJob { _job: PhantomData })
            }
        }
    }

    /// Submits every job of a batch at [`Priority::normal`] (blocking
    /// on backpressure) and returns their outcomes **in submission
    /// order** — the property that makes pooled sweeps bit-identical
    /// to serial loops.
    pub fn run_batch<T, F, I>(&self, jobs: I) -> Vec<JobOutcome<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        self.run_batch_with(Priority::default(), jobs)
    }

    /// Like [`Runtime::run_batch`], submitting every job of the batch
    /// under one explicit [`Priority`]. Outcomes still arrive in
    /// submission order regardless of the execution order the
    /// priority induces.
    pub fn run_batch_with<T, F, I>(&self, priority: Priority, jobs: I) -> Vec<JobOutcome<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let handles: Vec<JobHandle<T>> = jobs
            .into_iter()
            .map(|f| self.spawn_with(priority, f))
            .collect();
        handles.into_iter().map(JobHandle::join).collect()
    }

    /// Graceful shutdown: every already-queued job still runs, then
    /// the workers exit and are joined. Also invoked on drop. Further
    /// submissions panic.
    pub fn shutdown(&mut self) {
        if self.threads.is_empty() {
            return; // already shut down
        }
        self.shared.lock_state().shutdown = true;
        self.shared.work_available.notify_all();
        for worker in std::mem::take(&mut self.threads) {
            let _ = worker.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    fn small(workers: usize, capacity: usize) -> Runtime {
        Runtime::with_config(RuntimeConfig {
            workers,
            queue_capacity: capacity,
            ..RuntimeConfig::default()
        })
    }

    #[test]
    fn batch_results_arrive_in_submission_order() {
        let rt = small(4, 4);
        // 64 jobs through 16 queue slots: exercises backpressure.
        let outcomes = rt.run_batch((0u64..64).map(|i| move || i * 3));
        let values: Vec<u64> = outcomes.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0u64..64).map(|i| i * 3).collect::<Vec<_>>());
        let snap = rt.snapshot();
        assert_eq!(snap.jobs_submitted, 64);
        assert_eq!(snap.jobs_completed, 64);
        assert_eq!(snap.jobs_failed, 0);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.job_wall_time.count, 64);
    }

    #[test]
    fn panicking_jobs_are_contained_and_pool_survives() {
        let rt = small(2, 8);
        let outcomes = rt.run_batch((0u32..10).map(|i| {
            move || {
                if i % 3 == 0 {
                    panic!("injected failure {i}");
                }
                i
            }
        }));
        for (i, outcome) in outcomes.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(
                    outcome,
                    &Err(JobError::Panicked(format!("injected failure {i}")))
                );
            } else {
                assert_eq!(outcome, &Ok(i as u32));
            }
        }
        // The pool still works after the panics.
        assert_eq!(rt.spawn(|| 99).join(), Ok(99));
        let snap = rt.snapshot();
        assert_eq!(snap.jobs_failed, 4); // 0, 3, 6, 9
        assert_eq!(snap.jobs_completed, 7); // 6 survivors + the probe
    }

    #[test]
    fn try_spawn_applies_backpressure_and_rejected_jobs_recover() {
        let rt = small(1, 1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        // Occupy the single worker.
        let blocker = rt.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            "blocker done"
        });
        started_rx.recv().unwrap();
        // Fill the single queue slot.
        let queued = rt
            .try_spawn_with(Priority::bulk(), || 1)
            .expect("one slot free");
        // Pool saturated: the next submission bounces, whatever its
        // class, and is counted.
        let bounced = rt.try_spawn_with(Priority::urgent(), || 2);
        assert!(bounced.is_err(), "expected rejection from a saturated pool");
        assert_eq!(rt.snapshot().jobs_rejected, 1);
        // Once the worker drains the queue, the retry is accepted.
        release_tx.send(()).unwrap();
        assert_eq!(blocker.join(), Ok("blocker done"));
        assert_eq!(queued.join(), Ok(1));
        let retried = rt
            .try_spawn_with(Priority::urgent(), || 2)
            .expect("queue drained");
        assert_eq!(retried.join(), Ok(2));
        assert_eq!(rt.snapshot().jobs_rejected, 1);
    }

    #[test]
    fn snapshot_observes_jobs_in_flight() {
        let rt = small(1, 4);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let handle = rt.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        let snap = rt.snapshot();
        assert_eq!(snap.jobs_in_flight, 1);
        assert_eq!(snap.workers, 1);
        release_tx.send(()).unwrap();
        assert_eq!(handle.join(), Ok(()));
    }

    #[test]
    fn a_joined_job_is_already_counted() {
        // Completion order, first half: the job counters and the
        // in-flight gauge move before the handle is fulfilled, so a
        // joiner that reads them the moment its handle finishes
        // already sees the job.
        let rt = small(2, 4);
        let metrics = Arc::clone(rt.metrics());
        for i in 1..=2000u64 {
            let handle = rt.spawn(move || {
                assert!(i % 100 != 0, "every hundredth job fails");
            });
            while !handle.is_finished() {
                std::hint::spin_loop();
            }
            let done = metrics.jobs_completed.load(Ordering::Relaxed)
                + metrics.jobs_failed.load(Ordering::Relaxed);
            assert_eq!(done, i, "job {i} finished before it was counted");
            assert_eq!(metrics.jobs_in_flight.load(Ordering::Relaxed), 0, "job {i}");
            assert_eq!(handle.join().is_ok(), i % 100 != 0);
        }
    }

    #[test]
    fn a_job_counted_on_its_worker_has_a_finished_handle() {
        // Completion order, second half: a worker's executed count
        // moves only after the task returned, so a poller that sees
        // every submitted job counted there finds every handle done.
        let rt = small(2, 4);
        let executed = |rt: &Runtime| -> u64 {
            rt.snapshot()
                .per_worker
                .iter()
                .map(|w| w.jobs_executed)
                .sum()
        };
        for round in 1..=100u64 {
            let handles: Vec<_> = (0..2)
                .map(|_| rt.spawn(|| std::thread::sleep(Duration::from_micros(100))))
                .collect();
            while executed(&rt) < 2 * round {
                std::thread::yield_now();
            }
            assert!(
                handles.iter().all(JobHandle::is_finished),
                "round {round}: counted on a worker before its handle finished"
            );
            assert_eq!(rt.snapshot().jobs_submitted, 2 * round);
        }
    }

    #[test]
    fn graceful_shutdown_drains_queued_jobs() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut rt = small(2, 64);
        let handles: Vec<_> = (0..50)
            .map(|_| {
                let counter = Arc::clone(&counter);
                rt.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        rt.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50, "all queued jobs ran");
        for h in handles {
            assert_eq!(h.join(), Ok(()));
        }
        // Idempotent.
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "after shutdown")]
    fn submitting_after_shutdown_panics() {
        let mut rt = small(1, 1);
        rt.shutdown();
        let _ = rt.spawn(|| 0);
    }

    #[test]
    #[should_panic(expected = "after shutdown")]
    fn try_spawning_after_shutdown_panics() {
        // The non-blocking path must refuse too: no worker would ever
        // run the job, and its handle would never complete.
        let mut rt = small(1, 1);
        rt.shutdown();
        let _ = rt.try_spawn_with(Priority::normal(), || 0);
    }

    #[test]
    fn work_is_shared_across_workers() {
        // More jobs than the queue holds, drained by four workers
        // popping one shared queue: every job runs exactly once.
        let rt = small(4, 2);
        let outcomes = rt.run_batch((0..200u64).map(|i| {
            move || {
                // A touch of work so workers overlap.
                (0..100).fold(i, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
            }
        }));
        assert_eq!(outcomes.len(), 200);
        assert!(outcomes.iter().all(Result::is_ok));
        let snap = rt.snapshot();
        assert_eq!(snap.jobs_completed + snap.jobs_failed, 200);
        assert_eq!(snap.jobs_submitted, 200);
    }

    #[test]
    fn per_worker_accounting_covers_every_executed_job() {
        let mut rt = small(3, 4);
        let outcomes = rt.run_batch((0..60u64).map(|i| {
            move || {
                std::thread::sleep(Duration::from_micros(50));
                i
            }
        }));
        assert!(outcomes.iter().all(Result::is_ok));
        // Joining the workers first makes the attribution exact: the
        // per-worker record lands after the job fulfils its handle, so
        // a snapshot racing the last job could otherwise under-count.
        rt.shutdown();
        let snap = rt.snapshot();
        assert_eq!(snap.per_worker.len(), 3);
        let executed: u64 = snap.per_worker.iter().map(|w| w.jobs_executed).sum();
        assert_eq!(executed, 60, "{:?}", snap.per_worker);
        for w in &snap.per_worker {
            assert!(w.lifetime_ns > 0);
            let u = w.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
        assert!(
            snap.per_worker.iter().any(|w| w.busy_ns > 0),
            "sleeping jobs must register busy time"
        );
    }

    #[test]
    fn queue_count_returns_to_zero_after_concurrent_submission() {
        // Concurrent submitters racing the workers: the queue-depth
        // gauge must read 0 once every job has run, and the pool must
        // still shut down. A miscounted queue can spin idle workers
        // forever and hang `Runtime::drop`, so the pool is dropped on a
        // helper thread with a timeout: such a bug fails this test
        // instead of hanging it.
        let rt = small(2, 16);
        let mut stuck_after = None;
        for round in 0..200 {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let handles: Vec<_> = (0..2000u64).map(|i| rt.spawn(move || i)).collect();
                        for (i, h) in handles.into_iter().enumerate() {
                            assert_eq!(h.join(), Ok(i as u64));
                        }
                    });
                }
            });
            if rt.snapshot().queue_depth != 0 {
                stuck_after = Some(round);
                break;
            }
        }
        let (dropped_tx, dropped_rx) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(rt);
            let _ = dropped_tx.send(());
        });
        let dropped = dropped_rx.recv_timeout(Duration::from_secs(30)).is_ok();
        assert_eq!(stuck_after, None, "queue_depth stayed above 0 after round");
        assert!(dropped, "Runtime::drop did not return within 30 s");
        dropper.join().expect("dropping the runtime panicked");
    }

    #[test]
    fn urgent_jobs_complete_before_queued_bulk_on_one_worker() {
        let rt = small(1, 64);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        // Park the lone worker so the queue builds up.
        let blocker = rt.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Submit Bulk FIRST, then Urgent: dequeue must still run every
        // Urgent job before any Bulk one.
        for class in ["bulk", "urgent"] {
            for i in 0..5u32 {
                let log = Arc::clone(&log);
                let priority = match class {
                    "urgent" => Priority::urgent(),
                    _ => Priority::bulk(),
                };
                handles.push(rt.spawn_with(priority, move || {
                    log.lock().unwrap().push((class, i));
                }));
            }
        }
        release_tx.send(()).unwrap();
        assert_eq!(blocker.join(), Ok(()));
        for h in handles {
            assert_eq!(h.join(), Ok(()));
        }
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 10);
        let first_bulk = log
            .iter()
            .position(|(c, _)| *c == "bulk")
            .expect("bulk jobs ran");
        let last_urgent = log
            .iter()
            .rposition(|(c, _)| *c == "urgent")
            .expect("urgent jobs ran");
        assert!(
            last_urgent < first_bulk,
            "a bulk job ran before the urgent queue drained: {log:?}"
        );
        // FIFO within each class.
        let urgents: Vec<u32> = log
            .iter()
            .filter(|(c, _)| *c == "urgent")
            .map(|&(_, i)| i)
            .collect();
        let bulks: Vec<u32> = log
            .iter()
            .filter(|(c, _)| *c == "bulk")
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(urgents, vec![0, 1, 2, 3, 4]);
        assert_eq!(bulks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_freed_worker_runs_queued_urgent_work_before_bulk() {
        // Both workers busy, then a Bulk job and an Urgent job queue
        // up, in that order. The worker that frees first must take the
        // Urgent job.
        let rt = small(2, 8);
        let (started_tx, started_rx) = mpsc::channel();
        let mut releases = Vec::new();
        let mut blockers = Vec::new();
        for blocker in 0..2 {
            let started_tx = started_tx.clone();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            releases.push(release_tx);
            blockers.push(rt.spawn(move || {
                let worker = std::thread::current().name().map(str::to_owned);
                started_tx.send((blocker, worker)).unwrap();
                let _ = release_rx.recv();
            }));
        }
        let mut on_worker_0 = None;
        for _ in 0..2 {
            let (blocker, worker) = started_rx.recv().unwrap();
            if worker.as_deref() == Some("fcr-runtime-0") {
                on_worker_0 = Some(blocker);
            }
        }
        let on_worker_0 = on_worker_0.expect("a blocker runs on fcr-runtime-0");
        let log = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [("bulk", Priority::bulk()), ("urgent", Priority::urgent())]
            .into_iter()
            .map(|(class, priority)| {
                let log = Arc::clone(&log);
                rt.spawn_with(priority, move || log.lock().unwrap().push(class))
            })
            .collect();
        releases[on_worker_0].send(()).unwrap();
        for h in handles {
            assert_eq!(h.join(), Ok(()));
        }
        assert_eq!(*log.lock().unwrap(), ["urgent", "bulk"]);
        for release in &releases {
            let _ = release.send(());
        }
        for b in blockers {
            assert_eq!(b.join(), Ok(()));
        }
    }

    #[test]
    fn named_counters_flow_into_snapshots() {
        let rt = small(2, 8);
        let slots = rt.metrics().counter("slots_simulated");
        let outcomes = rt.run_batch((0..8u64).map(|i| {
            let slots = Arc::clone(&slots);
            move || {
                slots.fetch_add(10, Ordering::Relaxed);
                i
            }
        }));
        assert!(outcomes.iter().all(Result::is_ok));
        assert_eq!(rt.snapshot().counter("slots_simulated"), Some(80));
    }
}
