//! The atomic metrics registry and its snapshots.
//!
//! Every counter is updated with relaxed atomics on the hot path;
//! [`MetricsRegistry::snapshot`] can be taken from any thread
//! mid-flight without pausing the pool.

use crate::histogram::{AtomicHistogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sentinel for "no job currently executing" in
/// [`WorkerStats::in_flight_since_ns`].
const IDLE: u64 = u64::MAX;

/// Live per-worker counters: how much wall time worker `i` spent
/// executing jobs and how many jobs it ran.
#[derive(Debug)]
pub(crate) struct WorkerStats {
    busy_ns: AtomicU64,
    jobs_executed: AtomicU64,
    /// Registry-relative start time (ns since [`MetricsRegistry`]
    /// construction) of the job this worker is executing right now, or
    /// [`IDLE`]. Lets the autoscaler's utilization window see a
    /// long-running job *while it runs* instead of only after it
    /// completes.
    in_flight_since_ns: AtomicU64,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            busy_ns: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
            in_flight_since_ns: AtomicU64::new(IDLE),
        }
    }
}

/// Live counters for one [`crate::Runtime`].
#[derive(Debug)]
pub struct MetricsRegistry {
    started_at: Instant,
    /// Currently active worker count (elastic pools update this on
    /// resize).
    active_workers: AtomicU64,
    /// Per-worker execution accounting, indexed by worker slot (sized
    /// to the pool's `max_workers`).
    worker_stats: Vec<WorkerStats>,
    /// Jobs accepted into the run queue.
    pub(crate) jobs_submitted: AtomicU64,
    /// Jobs that ran to completion.
    pub(crate) jobs_completed: AtomicU64,
    /// Jobs whose closure panicked (contained, not propagated).
    pub(crate) jobs_failed: AtomicU64,
    /// `try_spawn_with` submissions bounced by a full pool.
    pub(crate) jobs_rejected: AtomicU64,
    /// Jobs currently in the run queue, stored under the queue's lock
    /// on every push and pop.
    pub(crate) queue_depth: AtomicU64,
    /// Jobs currently executing on a worker.
    pub(crate) jobs_in_flight: AtomicU64,
    /// Wall-clock time per executed job.
    pub(crate) job_wall_time: AtomicHistogram,
    /// Domain counters registered at runtime (e.g. `slots_simulated`).
    named: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

impl MetricsRegistry {
    pub(crate) fn new(workers: usize) -> Self {
        MetricsRegistry {
            started_at: Instant::now(),
            active_workers: AtomicU64::new(workers as u64),
            worker_stats: (0..workers).map(|_| WorkerStats::new()).collect(),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            jobs_in_flight: AtomicU64::new(0),
            job_wall_time: AtomicHistogram::new(),
            named: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns (registering on first use) the named domain counter.
    /// Callers keep the `Arc` and bump it with
    /// [`AtomicU64::fetch_add`]; the snapshot lists every registered
    /// counter.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut named = self.named.lock().expect("metrics registry poisoned");
        Arc::clone(
            named
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Records the pool's current active worker count (called by the
    /// elastic resize path).
    pub(crate) fn set_active_workers(&self, n: usize) {
        self.active_workers.store(n as u64, Ordering::Relaxed);
    }

    /// Nanoseconds elapsed since the registry was built (the clock
    /// in-flight job starts are stamped against).
    pub(crate) fn ns_since_start(&self) -> u64 {
        u64::try_from(self.started_at.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total busy nanoseconds across every worker slot, **including**
    /// the elapsed portion of jobs still executing — the raw signal
    /// behind the autoscaler's delta-utilization reading.
    ///
    /// Counting in-flight elapsed time matters: `busy_ns` alone only
    /// advances when a job *completes*, so a pool running long shards
    /// would read ~0% utilization mid-job and get shrunk out from
    /// under its own workload. The estimate is monotone
    /// non-decreasing, so window deltas stay non-negative.
    pub(crate) fn busy_ns_estimate(&self) -> u64 {
        let now = self.ns_since_start();
        self.worker_stats
            .iter()
            .map(|w| {
                let completed = w.busy_ns.load(Ordering::Relaxed);
                let since = w.in_flight_since_ns.load(Ordering::Relaxed);
                let running = if since == IDLE {
                    0
                } else {
                    now.saturating_sub(since)
                };
                completed.saturating_add(running)
            })
            .sum()
    }

    /// Marks worker `index` as having just started executing a job
    /// (stamps the in-flight clock read by [`Self::busy_ns_estimate`]).
    pub(crate) fn note_worker_start(&self, index: usize) {
        if let Some(w) = self.worker_stats.get(index) {
            w.in_flight_since_ns
                .store(self.ns_since_start(), Ordering::Relaxed);
        }
    }

    pub(crate) fn record_job(&self, wall: Duration, ok: bool) {
        if ok {
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        self.job_wall_time.record(wall);
    }

    /// Attributes one executed job and its wall time to worker
    /// `index`.
    pub(crate) fn record_worker_job(&self, index: usize, busy: Duration) {
        if let Some(w) = self.worker_stats.get(index) {
            let ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
            w.busy_ns.fetch_add(ns, Ordering::Relaxed);
            w.jobs_executed.fetch_add(1, Ordering::Relaxed);
            // The job is done: stop counting it as in-flight.
            w.in_flight_since_ns.store(IDLE, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter. Safe to call while the
    /// pool is running; relaxed loads may be mutually skewed by a few
    /// in-flight jobs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let named = self
            .named
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let uptime = self.started_at.elapsed();
        let lifetime_ns = u64::try_from(uptime.as_nanos()).unwrap_or(u64::MAX);
        let per_worker = self
            .worker_stats
            .iter()
            .enumerate()
            .map(|(index, w)| WorkerSnapshot {
                index,
                busy_ns: w.busy_ns.load(Ordering::Relaxed),
                lifetime_ns,
                jobs_executed: w.jobs_executed.load(Ordering::Relaxed),
            })
            .collect();
        MetricsSnapshot {
            workers: self.active_workers.load(Ordering::Relaxed) as usize,
            uptime,
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            jobs_in_flight: self.jobs_in_flight.load(Ordering::Relaxed),
            job_wall_time: self.job_wall_time.snapshot(),
            per_worker,
            counters: named,
        }
    }
}

/// A point-in-time copy of one worker's execution accounting.
///
/// `busy_ns / lifetime_ns` is the worker's utilization: the fraction of
/// its lifetime so far spent executing jobs (as opposed to parked or
/// scanning for work). `lifetime_ns` is the pool's uptime at snapshot
/// time — workers are spawned with the pool and live until shutdown,
/// so one shared lifetime is exact up to thread-spawn jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The worker's index.
    pub index: usize,
    /// Wall time this worker spent executing jobs (ns).
    pub busy_ns: u64,
    /// The worker's lifetime at snapshot time (ns).
    pub lifetime_ns: u64,
    /// Jobs this worker executed.
    pub jobs_executed: u64,
}

impl WorkerSnapshot {
    /// Fraction of this worker's lifetime spent executing jobs
    /// (0 when the lifetime is zero).
    pub fn utilization(&self) -> f64 {
        if self.lifetime_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.lifetime_ns as f64
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// **Active** worker count at snapshot time (elastic pools resize
    /// this between batches; `per_worker.len()` is the slot count,
    /// i.e. the pool's `max_workers`).
    pub workers: usize,
    /// Time since the pool was built.
    pub uptime: Duration,
    /// Jobs accepted into the run queue.
    pub jobs_submitted: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs whose closure panicked (contained).
    pub jobs_failed: u64,
    /// `try_spawn_with` submissions bounced by a full pool.
    pub jobs_rejected: u64,
    /// Jobs queued but not yet started.
    pub queue_depth: u64,
    /// Jobs executing right now.
    pub jobs_in_flight: u64,
    /// Wall-clock time per executed job.
    pub job_wall_time: HistogramSnapshot,
    /// Per-worker execution accounting, indexed by worker.
    pub per_worker: Vec<WorkerSnapshot>,
    /// Named domain counters (e.g. `slots_simulated`,
    /// `solver_invocations`), sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Jobs finished (ok or failed) per wall-clock second since the
    /// pool started.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.jobs_completed + self.jobs_failed) as f64 / secs
        }
    }

    /// Value of a named domain counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters_register_once_and_accumulate() {
        let m = MetricsRegistry::new(4);
        let a = m.counter("slots_simulated");
        let b = m.counter("slots_simulated");
        a.fetch_add(10, Ordering::Relaxed);
        b.fetch_add(5, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.counter("slots_simulated"), Some(15));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.workers, 4);
    }

    #[test]
    fn worker_attribution_lands_on_the_right_worker() {
        let m = MetricsRegistry::new(2);
        m.record_worker_job(0, Duration::from_micros(40));
        m.record_worker_job(0, Duration::from_micros(60));
        m.record_worker_job(1, Duration::from_micros(10));
        // Out-of-range indices are ignored, not panicking.
        m.record_worker_job(7, Duration::from_micros(1));
        let snap = m.snapshot();
        assert_eq!(snap.per_worker.len(), 2);
        let w0 = snap.per_worker[0];
        let w1 = snap.per_worker[1];
        assert_eq!((w0.index, w0.jobs_executed), (0, 2));
        assert_eq!(w0.busy_ns, 100_000);
        assert_eq!((w1.index, w1.jobs_executed), (1, 1));
        assert_eq!(w1.busy_ns, 10_000);
        for w in &snap.per_worker {
            assert_eq!(w.lifetime_ns, snap.per_worker[0].lifetime_ns);
            assert!(w.lifetime_ns > 0);
            // Synthetic busy times can exceed the registry's (tiny)
            // uptime here, so only check sanity, not the ≤ 1 bound —
            // the pool test covers the real invariant.
            assert!(
                w.utilization() >= 0.0 && w.utilization().is_finite(),
                "{w:?}"
            );
        }
    }

    #[test]
    fn zero_lifetime_utilization_is_zero() {
        let w = WorkerSnapshot {
            index: 0,
            busy_ns: 5,
            lifetime_ns: 0,
            jobs_executed: 1,
        };
        assert_eq!(w.utilization(), 0.0);
    }

    #[test]
    fn busy_estimate_counts_in_flight_elapsed_time() {
        let m = MetricsRegistry::new(2);
        // Nothing running, nothing completed: estimate is zero.
        assert_eq!(m.busy_ns_estimate(), 0);
        // Worker 0 starts a long job and has NOT finished it.
        m.note_worker_start(0);
        std::thread::sleep(Duration::from_millis(5));
        let est = m.busy_ns_estimate();
        assert!(
            est >= 4_000_000,
            "in-flight job invisible to the estimate: {est}ns"
        );
        // Completed busy time is unchanged until the job finishes.
        assert_eq!(m.snapshot().per_worker[0].busy_ns, 0);
        // Finishing the job moves it from in-flight to completed; the
        // estimate stays monotone.
        m.record_worker_job(0, Duration::from_millis(5));
        let after = m.busy_ns_estimate();
        assert!(after >= 5_000_000);
        assert_eq!(m.snapshot().per_worker[0].busy_ns, 5_000_000);
        // Out-of-range indices are ignored.
        m.note_worker_start(9);
    }

    #[test]
    fn record_job_splits_ok_and_failed() {
        let m = MetricsRegistry::new(1);
        m.record_job(Duration::from_micros(5), true);
        m.record_job(Duration::from_micros(7), false);
        let snap = m.snapshot();
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.job_wall_time.count, 2);
        assert!(snap.jobs_per_sec() > 0.0);
    }
}
