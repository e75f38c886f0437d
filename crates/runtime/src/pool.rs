//! The elastic worker pool: one bounded priority run queue, blocking
//! and non-blocking backpressure, panic containment, manual and
//! always-on background autoscaling within configured bounds, and
//! graceful shutdown.

use crate::fault::{FaultPlan, FaultReport, SubmissionFault};
use crate::job::{panic_message, CompletionSlot, JobError, JobHandle, JobOutcome, Task};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::priority::Priority;
use crate::queue::RunQueue;
use crate::shard::{ResizeEvent, ResizeTrigger};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the always-on background autoscaler loop
/// ([`Runtime::start_autoscaler`], or [`RuntimeConfig::autoscale`] to
/// start it with the pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleConfig {
    /// How often the loop samples the pool and takes one
    /// [`Runtime::autoscale`]-style step.
    pub interval: Duration,
    /// Hysteresis: after **any** resize, loop-triggered steps are
    /// suppressed for this long, so a grow can't be immediately undone
    /// by a shrink (and vice versa). Manual [`Runtime::autoscale`] /
    /// [`Runtime::resize`] calls are never throttled.
    pub cooldown: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            interval: Duration::from_millis(20),
            cooldown: Duration::from_millis(200),
        }
    }
}

/// Sizing knobs for a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads started initially.
    pub workers: usize,
    /// Run-queue capacity **per active worker**: the pool's one queue
    /// holds at most `active workers * queue_capacity` jobs, so the
    /// bound follows every resize.
    pub queue_capacity: usize,
    /// Elastic floor: [`Runtime::resize`] / [`Runtime::autoscale`]
    /// never shrink below this many workers. Clamped to
    /// `1..=workers` at construction.
    pub min_workers: usize,
    /// Elastic ceiling: the pool never grows beyond this many workers.
    /// Raised to at least `workers` at construction.
    pub max_workers: usize,
    /// When `Some`, the pool starts its background autoscaler thread
    /// at construction (equivalent to calling
    /// [`Runtime::start_autoscaler`] immediately). `None` (the
    /// default) keeps sizing fully manual.
    pub autoscale: Option<AutoscaleConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        RuntimeConfig {
            workers,
            queue_capacity: 128,
            min_workers: 1,
            max_workers: workers,
            autoscale: None,
        }
    }
}

/// What workers and submitters coordinate on, under one mutex.
struct PoolState {
    /// Every queued job, highest class and earliest deadline first.
    queue: RunQueue,
    /// Number of currently active workers. Workers with
    /// `index >= active` retire as soon as they are idle.
    active: usize,
    shutdown: bool,
}

/// Baselines for delta-utilization readings between autoscale steps,
/// plus the hysteresis timestamp for the background loop.
struct AutoscaleState {
    last_busy_ns: u64,
    last_at: Instant,
    /// When the most recent resize (manual or loop) was applied;
    /// loop-triggered steps within the cooldown are skipped.
    last_resize_at: Option<Instant>,
}

struct Shared {
    metrics: Arc<MetricsRegistry>,
    state: Mutex<PoolState>,
    /// [`RuntimeConfig::queue_capacity`].
    queue_capacity: usize,
    /// Signalled on enqueue; workers park here when idle.
    work_available: Condvar,
    /// Signalled on dequeue; blocked submitters park here.
    space_available: Condvar,
    /// Worker slots, indexed by worker. `None` = never started or
    /// joined; a `Some` at index ≥ active is a retired thread whose
    /// handle is reclaimed lazily on the next grow (or at shutdown).
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    min_workers: usize,
    max_workers: usize,
    autoscale_state: Mutex<AutoscaleState>,
    /// Named counter `pool.resizes` (also visible in snapshots).
    resizes: Arc<AtomicU64>,
    /// Loop-triggered resize events awaiting collection by
    /// [`Runtime::drain_resize_events`].
    pending_resizes: Mutex<Vec<ResizeEvent>>,
    /// Background autoscaler control: `true` asks the loop to exit.
    scaler_stop: Mutex<bool>,
    scaler_cv: Condvar,
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
            let capacity = st.active * self.queue_capacity;
            match st.queue.try_push(capacity, priority, task) {
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

    /// Parks worker `index` until it has a job: the queue's
    /// highest-class earliest-deadline one. `None` tells the worker to
    /// exit — it was retired by a shrink, or the pool is shutting down
    /// and the queue is empty.
    fn next_task(&self, index: usize) -> Option<Task> {
        let mut st = self.lock_state();
        loop {
            if index >= st.active {
                // Retired; the survivors drain the queue. A wake-up this
                // worker absorbed on its way out needs no hand-off:
                // `set_active` broadcasts after every change, and that
                // broadcast reaches the survivors.
                return None;
            }
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

    /// Publishes a new active-worker count under the state lock, then
    /// wakes everyone: parked workers re-check whether they retired,
    /// and blocked submitters re-check the queue bound, which moved
    /// with the count.
    fn set_active(&self, target: usize) {
        self.lock_state().active = target;
        self.work_available.notify_all();
        self.space_available.notify_all();
    }

    /// Sets the active worker count to `target`, clamped to
    /// `[min_workers, max_workers]`; returns the applied count. See
    /// [`Runtime::resize`] for the full contract.
    fn resize_to(self: &Arc<Self>, target: usize) -> usize {
        let target = target.clamp(self.min_workers, self.max_workers);
        let mut slots = self.workers.lock().expect("pool workers poisoned");
        let current = self.lock_state().active;
        if slots.is_empty() || target == current {
            // Already shut down, or nothing to do.
            return current;
        }
        // A grow first reclaims retired threads in the slots it
        // reuses: with `active` still below their index they are
        // exiting, so the join terminates. A shrink skips both loops;
        // `set_active` alone retires the tail workers, whose handles
        // stay in their slots for lazy reclaiming.
        for slot in slots.iter_mut().take(target).skip(current) {
            if let Some(handle) = slot.take() {
                let _ = handle.join();
            }
        }
        self.set_active(target);
        for (index, slot) in slots.iter_mut().enumerate().take(target).skip(current) {
            *slot = Some(spawn_worker(self, index));
        }
        self.metrics.set_active_workers(target);
        self.resizes.fetch_add(1, Ordering::Relaxed);
        // Start the loop's cooldown window: the next loop-triggered
        // step must not immediately undo this one.
        self.autoscale_state
            .lock()
            .expect("autoscale state poisoned")
            .last_resize_at = Some(Instant::now());
        target
    }

    /// One adaptive sizing step. `cooldown` is `Some` only for
    /// loop-triggered steps (manual calls are never throttled).
    fn autoscale_step(
        self: &Arc<Self>,
        trigger: ResizeTrigger,
        cooldown: Option<Duration>,
    ) -> Option<ResizeEvent> {
        let (active, queue_depth) = {
            let st = self.lock_state();
            (st.active, st.queue.len() as u64)
        };
        if let Some(cooldown) = cooldown {
            let st = self
                .autoscale_state
                .lock()
                .expect("autoscale state poisoned");
            if let Some(last) = st.last_resize_at {
                if last.elapsed() < cooldown {
                    // Hysteresis: too soon after the previous resize.
                    // Baselines stay untouched so the next reading
                    // still covers the full window.
                    return None;
                }
            }
        }
        // In-flight-aware busy signal: long-running jobs count while
        // they run, so a busy pool never reads as idle and gets
        // shrunk out from under its own workload.
        let busy_ns = self.metrics.busy_ns_estimate();
        let utilization = {
            let mut st = self
                .autoscale_state
                .lock()
                .expect("autoscale state poisoned");
            let now = Instant::now();
            let dt = now.duration_since(st.last_at).as_nanos() as f64;
            let dbusy = busy_ns.saturating_sub(st.last_busy_ns) as f64;
            st.last_busy_ns = busy_ns;
            st.last_at = now;
            if dt <= 0.0 {
                0.0
            } else {
                (dbusy / (dt * active as f64)).clamp(0.0, 1.0)
            }
        };
        let target = if queue_depth > active as u64 && active < self.max_workers {
            (active * 2).min(self.max_workers)
        } else if queue_depth == 0 && utilization < 0.25 && active > self.min_workers {
            (active / 2).max(self.min_workers)
        } else {
            active
        };
        if target == active {
            return None;
        }
        let to = self.resize_to(target);
        if to == active {
            return None;
        }
        Some(ResizeEvent {
            from: active,
            to,
            queue_depth,
            utilization,
            trigger,
        })
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    while let Some(task) = shared.next_task(index) {
        // Fault seam: a scheduled execution delay stalls this worker
        // *before* it runs the task, perturbing execution and
        // completion interleavings without touching any result.
        if let Some(plan) = shared.fault.as_deref() {
            if let Some(delay) = plan.next_execution_delay() {
                std::thread::sleep(delay);
            }
        }
        // The task wrapper contains its own catch_unwind and in-flight
        // accounting; it never unwinds into the worker loop. Busy time
        // is attributed to this worker for the utilization metrics, and
        // the start is stamped so the autoscaler sees the job while it
        // runs.
        shared.metrics.note_worker_start(index);
        let start = Instant::now();
        task();
        shared.metrics.record_worker_job(index, start.elapsed());
    }
}

fn spawn_worker(shared: &Arc<Shared>, index: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("fcr-runtime-{index}"))
        .spawn(move || worker_loop(shared, index))
        .expect("spawning runtime worker failed")
}

/// The background autoscaler: one [`Shared::autoscale_step`] per
/// interval, stopping promptly when asked via the condvar.
fn scaler_loop(shared: Arc<Shared>, config: AutoscaleConfig) {
    let interval = config.interval.max(Duration::from_micros(100));
    let mut stop = shared.scaler_stop.lock().expect("scaler control poisoned");
    loop {
        if *stop {
            return;
        }
        let (guard, _timeout) = shared
            .scaler_cv
            .wait_timeout(stop, interval)
            .expect("scaler control poisoned");
        stop = guard;
        if *stop {
            return;
        }
        drop(stop);
        if let Some(event) = shared.autoscale_step(ResizeTrigger::Loop, Some(config.cooldown)) {
            shared
                .pending_resizes
                .lock()
                .expect("resize buffer poisoned")
                .push(event);
        }
        stop = shared.scaler_stop.lock().expect("scaler control poisoned");
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
        metrics.record_job(start.elapsed(), result.is_ok());
        // Leave the in-flight gauge *before* fulfilling the handle, so
        // a joiner that snapshots right after a drained batch reads 0.
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

/// An elastic worker pool over one bounded priority run queue. See the
/// crate docs for the full architecture story.
pub struct Runtime {
    shared: Arc<Shared>,
    /// Background autoscaler thread, if running.
    scaler: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("active_workers", &self.active_workers())
            .field("max_workers", &self.shared.max_workers)
            .field("autoscaler_running", &self.autoscaler_running())
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

    /// A pool with explicit sizing. `min_workers` is clamped to
    /// `1..=workers` and `max_workers` raised to at least `workers`,
    /// so any pre-elasticity config keeps its old meaning.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_capacity` is zero.
    pub fn with_config(config: RuntimeConfig) -> Self {
        Self::build(config, None)
    }

    /// A pool that replays the given deterministic [`FaultPlan`]
    /// (chaos panics, execution delays, forced resizes — see the
    /// [`fault`](crate::fault) module docs) while otherwise behaving
    /// exactly like [`Runtime::with_config`]. Intended for test
    /// harnesses; injected faults never alter user-job results.
    pub fn with_faults(config: RuntimeConfig, plan: FaultPlan) -> Self {
        Self::build(config, Some(Arc::new(plan)))
    }

    fn build(config: RuntimeConfig, fault: Option<Arc<FaultPlan>>) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "need positive queue capacity");
        let min_workers = config.min_workers.clamp(1, config.workers);
        let max_workers = config.max_workers.max(config.workers);
        let metrics = Arc::new(MetricsRegistry::new(max_workers));
        metrics.set_active_workers(config.workers);
        let resizes = metrics.counter("pool.resizes");
        let shared = Arc::new(Shared {
            metrics,
            state: Mutex::new(PoolState {
                queue: RunQueue::default(),
                active: config.workers,
                shutdown: false,
            }),
            queue_capacity: config.queue_capacity,
            work_available: Condvar::new(),
            space_available: Condvar::new(),
            workers: Mutex::new((0..max_workers).map(|_| None).collect()),
            min_workers,
            max_workers,
            autoscale_state: Mutex::new(AutoscaleState {
                last_busy_ns: 0,
                last_at: Instant::now(),
                last_resize_at: None,
            }),
            resizes,
            pending_resizes: Mutex::new(Vec::new()),
            scaler_stop: Mutex::new(false),
            scaler_cv: Condvar::new(),
            fault,
        });
        {
            let mut slots = shared.workers.lock().expect("pool workers poisoned");
            for (index, slot) in slots.iter_mut().enumerate().take(config.workers) {
                *slot = Some(spawn_worker(&shared, index));
            }
        }
        let runtime = Runtime {
            shared,
            scaler: Mutex::new(None),
        };
        if let Some(autoscale) = config.autoscale {
            runtime.start_autoscaler(autoscale);
        }
        runtime
    }

    /// The current active worker count (elastic; see
    /// [`Runtime::resize`]).
    pub fn active_workers(&self) -> usize {
        self.shared.lock_state().active
    }

    /// The elastic floor.
    pub fn min_workers(&self) -> usize {
        self.shared.min_workers
    }

    /// The elastic ceiling.
    pub fn max_workers(&self) -> usize {
        self.shared.max_workers
    }

    /// Sets the active worker count to `target`, clamped to the
    /// configured `[min_workers, max_workers]` bounds, and returns the
    /// applied count.
    ///
    /// Shrinking retires the highest-indexed workers as soon as they
    /// are idle; queued jobs stay in the one run queue the survivors
    /// drain, so no job is ever dropped or reordered. Growing first
    /// reclaims any retired thread occupying the slot (joining it),
    /// then spawns a fresh worker. Resizing a shut-down pool is a
    /// no-op.
    pub fn resize(&self, target: usize) -> usize {
        self.shared.resize_to(target)
    }

    /// One **manual** adaptive sizing step (never throttled by the
    /// autoscaler cooldown): grows the pool (one doubling) when the
    /// queue backlog exceeds one job per active worker, shrinks it
    /// (one halving) when the queue is empty and mean per-worker
    /// utilization since the last step is below 25%. In-flight jobs
    /// count toward utilization, so a pool running long shards is
    /// never mistaken for idle. Returns the applied [`ResizeEvent`]
    /// (with [`ResizeTrigger::Manual`]), or `None` when the size is
    /// already right.
    pub fn autoscale(&self) -> Option<ResizeEvent> {
        self.shared.autoscale_step(ResizeTrigger::Manual, None)
    }

    /// Starts the always-on background autoscaler: a dedicated thread
    /// taking one [`Runtime::autoscale`]-style step per
    /// `config.interval`, with `config.cooldown` hysteresis after any
    /// resize. Loop-applied [`ResizeEvent`]s (tagged
    /// [`ResizeTrigger::Loop`]) are buffered for
    /// [`Runtime::drain_resize_events`]. Returns `false` (and does
    /// nothing) if the loop is already running.
    pub fn start_autoscaler(&self, config: AutoscaleConfig) -> bool {
        let mut scaler = self.scaler.lock().expect("scaler slot poisoned");
        if scaler.is_some() {
            return false;
        }
        *self
            .shared
            .scaler_stop
            .lock()
            .expect("scaler control poisoned") = false;
        let shared = Arc::clone(&self.shared);
        *scaler = Some(
            std::thread::Builder::new()
                .name("fcr-autoscaler".into())
                .spawn(move || scaler_loop(shared, config))
                .expect("spawning autoscaler failed"),
        );
        true
    }

    /// Stops the background autoscaler and joins its thread. Returns
    /// `false` if it was not running. Also called by
    /// [`Runtime::shutdown`] **before** worker teardown, so no resize
    /// can race the final joins.
    pub fn stop_autoscaler(&self) -> bool {
        let handle = self.scaler.lock().expect("scaler slot poisoned").take();
        let Some(handle) = handle else {
            return false;
        };
        *self
            .shared
            .scaler_stop
            .lock()
            .expect("scaler control poisoned") = true;
        self.shared.scaler_cv.notify_all();
        let _ = handle.join();
        true
    }

    /// Whether the background autoscaler thread is currently running.
    pub fn autoscaler_running(&self) -> bool {
        self.scaler.lock().expect("scaler slot poisoned").is_some()
    }

    /// Takes (and clears) the resize events applied by the background
    /// autoscaler since the last drain. Manual
    /// [`Runtime::autoscale`] steps return their event directly and
    /// are **not** buffered here.
    pub fn drain_resize_events(&self) -> Vec<ResizeEvent> {
        std::mem::take(
            &mut *self
                .shared
                .pending_resizes
                .lock()
                .expect("resize buffer poisoned"),
        )
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

    /// Fires any faults scheduled at the current user-submission
    /// index. Chaos panics travel the full normal path (enqueue,
    /// execute, `catch_unwind`) as independent jobs; forced resizes go
    /// through [`Shared::resize_to`] so they are indistinguishable
    /// from autoscaler storms.
    fn fire_submission_faults(&self) {
        let Some(plan) = self.shared.fault.clone() else {
            return;
        };
        for fault in plan.take_submission_faults() {
            match fault {
                SubmissionFault::Panic => {
                    let (task, handle) = package::<(), _>(Arc::clone(&self.shared.metrics), || {
                        panic!("fcr-testkit: injected chaos panic")
                    });
                    // Straight to the queue (not spawn_with) so a
                    // chaos job cannot recursively trigger faults.
                    let _ = self.shared.enqueue(Priority::default(), task, true);
                    plan.note_panic_injected();
                    // Nobody joins a chaos job; dropping the handle is
                    // fine — the completion slot absorbs the outcome.
                    drop(handle);
                }
                SubmissionFault::Resize(target) => {
                    self.shared.resize_to(target);
                    plan.note_resize_injected();
                }
            }
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

    /// Graceful shutdown: the background autoscaler (if running) is
    /// stopped and joined first, then every already-queued job still
    /// runs, then the workers exit and are joined (including any
    /// threads retired earlier by a shrink). Also invoked on drop.
    /// Further submissions panic.
    pub fn shutdown(&mut self) {
        // Stop the scaler BEFORE worker teardown: a resize racing the
        // joins below could spawn workers into slots already taken.
        self.stop_autoscaler();
        let workers =
            std::mem::take(&mut *self.shared.workers.lock().expect("pool workers poisoned"));
        if workers.is_empty() {
            return; // already shut down
        }
        self.shared.lock_state().shutdown = true;
        self.shared.work_available.notify_all();
        for worker in workers.into_iter().flatten() {
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
    fn resize_clamps_to_configured_bounds() {
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 2,
            queue_capacity: 8,
            min_workers: 1,
            max_workers: 4,
            ..RuntimeConfig::default()
        });
        assert_eq!(rt.active_workers(), 2);
        assert_eq!(rt.max_workers(), 4);
        assert_eq!(rt.min_workers(), 1);
        assert_eq!(rt.resize(100), 4, "clamped to max_workers");
        assert_eq!(rt.resize(0), 1, "clamped to min_workers");
        assert_eq!(rt.resize(3), 3);
        assert_eq!(rt.active_workers(), 3);
        assert_eq!(rt.snapshot().workers, 3, "snapshot reports active count");
        assert!(rt.snapshot().counter("pool.resizes").unwrap_or(0) >= 3);
    }

    #[test]
    fn resized_pool_still_executes_everything_in_order() {
        // Interleave shrink-to-1 / grow-to-max with batches; nothing
        // is dropped or reordered and retired slots come back alive.
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 3,
            queue_capacity: 4,
            min_workers: 1,
            max_workers: 3,
            ..RuntimeConfig::default()
        });
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for round in 0..4u64 {
            let size = [1, 3, 2, 3][round as usize];
            assert_eq!(rt.resize(size), size);
            let base = round * 50;
            let outcomes = rt.run_batch((base..base + 50).map(|i| move || i));
            got.extend(outcomes.into_iter().map(Result::unwrap));
            expected.extend(base..base + 50);
        }
        assert_eq!(got, expected, "resizes must not drop or reorder jobs");
        let snap = rt.snapshot();
        assert_eq!(snap.jobs_completed, 200);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn shrink_never_strands_queued_work() {
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 4,
            queue_capacity: 64,
            min_workers: 1,
            max_workers: 4,
            ..RuntimeConfig::default()
        });
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        // Park one job on a worker so the queue backs up a little.
        let blocker = rt.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        let handles: Vec<_> = (0..40u64).map(|i| rt.spawn(move || i)).collect();
        // Shrink while jobs are queued; the lone survivor must drain
        // everything.
        assert_eq!(rt.resize(1), 1);
        release_tx.send(()).unwrap();
        assert_eq!(blocker.join(), Ok(()));
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join(), Ok(i as u64));
        }
        assert_eq!(rt.snapshot().queue_depth, 0);
    }

    #[test]
    fn shrink_under_concurrent_submission_never_strands_jobs() {
        // Shrinks racing submissions: a job queued while a worker
        // retires must still reach a survivor, or a batch join stalls.
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 4,
            queue_capacity: 16,
            min_workers: 1,
            max_workers: 4,
            ..RuntimeConfig::default()
        });
        std::thread::scope(|scope| {
            let resizer = scope.spawn(|| {
                for _ in 0..300 {
                    rt.resize(1);
                    rt.resize(4);
                }
                rt.resize(1);
            });
            for round in 0..60u64 {
                let base = round * 20;
                let outcomes = rt.run_batch((base..base + 20).map(|i| move || i));
                let values: Vec<u64> = outcomes.into_iter().map(Result::unwrap).collect();
                assert_eq!(values, (base..base + 20).collect::<Vec<_>>());
            }
            resizer.join().expect("resizer thread");
        });
        assert_eq!(rt.snapshot().queue_depth, 0);
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
    fn autoscale_grows_on_backlog_and_shrinks_when_idle() {
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 1,
            queue_capacity: 64,
            min_workers: 1,
            max_workers: 4,
            ..RuntimeConfig::default()
        });
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let blocker = rt.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        // Build a backlog deeper than one job per active worker.
        let handles: Vec<_> = (0..8u64).map(|i| rt.spawn(move || i)).collect();
        let event = rt.autoscale().expect("backlog must trigger a grow");
        assert_eq!(event.from, 1);
        assert_eq!(event.to, 2);
        assert!(event.queue_depth > 1);
        assert_eq!(event.trigger, ResizeTrigger::Manual);
        release_tx.send(()).unwrap();
        assert_eq!(blocker.join(), Ok(()));
        for h in handles {
            assert!(h.join().is_ok());
        }
        // Let the utilization window go quiet, then autoscale drains
        // back down one halving at a time. (Manual steps ignore the
        // loop cooldown, so back-to-back calls work.)
        std::thread::sleep(Duration::from_millis(25));
        let event = rt.autoscale().expect("idle pool must shrink");
        assert_eq!(event.from, 2);
        assert_eq!(event.to, 1);
        assert_eq!(event.queue_depth, 0);
        assert!(event.utilization < 0.25);
        // At the floor, nothing more happens.
        std::thread::sleep(Duration::from_millis(2));
        assert!(rt.autoscale().is_none());
        // The shrunken pool still works.
        assert_eq!(rt.spawn(|| 7).join(), Ok(7));
    }

    #[test]
    fn long_running_job_does_not_read_as_idle() {
        // Regression (utilization accounting): `busy_ns` only advances
        // on job *completion*, so a pool running one long job used to
        // read ~0% utilization mid-job and get halved. In-flight
        // elapsed time must count toward the window.
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 2,
            queue_capacity: 8,
            min_workers: 1,
            max_workers: 2,
            ..RuntimeConfig::default()
        });
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let blocker = rt.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        // Empty queue + one worker busy the whole window: utilization
        // ≈ 0.5 ≥ 25%, so the pool must NOT shrink.
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            rt.autoscale().is_none(),
            "busy pool shrank mid-job: long-running work read as idle"
        );
        assert_eq!(rt.active_workers(), 2);
        release_tx.send(()).unwrap();
        assert_eq!(blocker.join(), Ok(()));
    }

    #[test]
    fn background_autoscaler_grows_under_backlog_and_buffers_loop_events() {
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 1,
            queue_capacity: 256,
            min_workers: 1,
            max_workers: 4,
            autoscale: Some(AutoscaleConfig {
                interval: Duration::from_millis(5),
                cooldown: Duration::from_millis(5),
            }),
        });
        assert!(rt.autoscaler_running());
        assert!(
            !rt.start_autoscaler(AutoscaleConfig::default()),
            "second start is a no-op"
        );
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let blocker = rt.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        let handles: Vec<_> = (0..16u64).map(|i| rt.spawn(move || i)).collect();
        // The loop must notice the backlog on its own — no manual
        // autoscale() call here.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.active_workers() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            rt.active_workers() >= 2,
            "autoscaler loop never grew the pool"
        );
        release_tx.send(()).unwrap();
        assert_eq!(blocker.join(), Ok(()));
        for h in handles {
            assert!(h.join().is_ok());
        }
        assert!(rt.stop_autoscaler());
        assert!(!rt.stop_autoscaler(), "second stop is a no-op");
        assert!(!rt.autoscaler_running());
        let events = rt.drain_resize_events();
        assert!(!events.is_empty(), "loop resizes must be buffered");
        for event in &events {
            assert_eq!(event.trigger, ResizeTrigger::Loop);
        }
        assert_eq!(events[0].from, 1);
        assert!(events[0].to >= 2);
        assert!(events[0].queue_depth > 1);
        // The drain is destructive.
        assert!(rt.drain_resize_events().is_empty());
    }

    #[test]
    fn autoscaler_loop_converges_without_thrashing_on_steady_work() {
        // Property-ish: a steady workload (shallow queue, busy
        // workers) must keep the loop quiet — the cooldown alone
        // bounds resizes to ≤ 2 over the window, and the signals
        // should not trigger even that many.
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 2,
            queue_capacity: 64,
            min_workers: 1,
            max_workers: 4,
            autoscale: Some(AutoscaleConfig {
                interval: Duration::from_millis(5),
                cooldown: Duration::from_millis(200),
            }),
        });
        let before = rt.snapshot().counter("pool.resizes").unwrap_or(0);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(350) {
            // Two jobs on two workers: queue depth never exceeds the
            // active count (no grow signal), and the spinning keeps
            // utilization well above the shrink threshold.
            let outcomes = rt.run_batch((0..2u64).map(|i| {
                move || {
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_micros(300) {
                        std::hint::spin_loop();
                    }
                    i
                }
            }));
            assert!(outcomes.iter().all(Result::is_ok));
        }
        let resizes = rt.snapshot().counter("pool.resizes").unwrap_or(0) - before;
        assert!(
            resizes <= 2,
            "autoscaler thrashed: {resizes} resizes on a steady workload"
        );
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
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 2,
            queue_capacity: 8,
            min_workers: 2,
            max_workers: 2,
            autoscale: None,
        });
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
    fn shutdown_joins_retired_workers_too() {
        let mut rt = Runtime::with_config(RuntimeConfig {
            workers: 3,
            queue_capacity: 8,
            min_workers: 1,
            max_workers: 3,
            ..RuntimeConfig::default()
        });
        assert_eq!(rt.resize(1), 1);
        assert_eq!(rt.spawn(|| 1).join(), Ok(1));
        rt.shutdown();
        // Resizing after shutdown is a harmless no-op.
        assert_eq!(rt.resize(3), rt.active_workers());
    }

    #[test]
    fn shutdown_stops_the_autoscaler_first() {
        let mut rt = Runtime::with_config(RuntimeConfig {
            workers: 1,
            queue_capacity: 8,
            min_workers: 1,
            max_workers: 2,
            autoscale: Some(AutoscaleConfig {
                interval: Duration::from_millis(1),
                cooldown: Duration::from_millis(1),
            }),
        });
        assert!(rt.autoscaler_running());
        assert_eq!(rt.spawn(|| 42).join(), Ok(42));
        rt.shutdown();
        assert!(!rt.autoscaler_running());
        // Idempotent with the scaler involved, too.
        rt.shutdown();
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
