//! The atomic metrics registry and its snapshots.
//!
//! Every counter is updated with one atomic add on the hot path (a
//! release add for the per-worker job count, relaxed for the rest);
//! [`MetricsRegistry::snapshot`] can be taken from any thread
//! mid-flight without pausing the pool. [`MetricsSnapshot`] documents
//! the order in which a finished job moves the counters.

use crate::histogram::{AtomicHistogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Live per-worker counters: how much wall time worker `i` spent
/// executing jobs and how many jobs it ran.
#[derive(Debug, Default)]
pub(crate) struct WorkerStats {
    busy_ns: AtomicU64,
    jobs_executed: AtomicU64,
}

/// Live counters for one [`crate::Runtime`].
#[derive(Debug)]
pub struct MetricsRegistry {
    started_at: Instant,
    /// Per-worker execution accounting, indexed by worker.
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
            worker_stats: (0..workers).map(|_| WorkerStats::default()).collect(),
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

    /// Counts one finished job. The pool calls this before it fulfils
    /// the job's handle.
    pub(crate) fn record_job(&self, wall: Duration, ok: bool) {
        if ok {
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        self.job_wall_time.record(wall);
    }

    /// Attributes one executed job and its wall time to worker
    /// `index`. The pool calls this after the job's task returned, so
    /// after its handle was fulfilled; the release store pairs with the
    /// snapshot's acquire load to carry that order to a poller.
    pub(crate) fn record_worker_job(&self, index: usize, busy: Duration) {
        if let Some(w) = self.worker_stats.get(index) {
            let ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
            w.busy_ns.fetch_add(ns, Ordering::Relaxed);
            w.jobs_executed.fetch_add(1, Ordering::Release);
        }
    }

    /// A point-in-time copy of every counter. Safe to call while the
    /// pool is running; the loads may be mutually skewed by a few
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
                jobs_executed: w.jobs_executed.load(Ordering::Acquire),
            })
            .collect();
        MetricsSnapshot {
            workers: self.worker_stats.len(),
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
///
/// # Completion order
///
/// A worker runs a job in this order, and each step is visible to
/// anyone who sees the next:
///
/// 1. the job returns or panics;
/// 2. `jobs_completed` or `jobs_failed`, `job_wall_time` and
///    `jobs_in_flight` move;
/// 3. the job's handle is fulfilled;
/// 4. the worker's `per_worker[].jobs_executed` and `busy_ns` move.
///
/// So a joiner that has joined every handle of a batch sees every job
/// of it in the step-2 counters. A poller that sees a job in the
/// step-4 counters can rely on its handle being finished: once the
/// `jobs_executed` sum equals `jobs_submitted`, every handle is
/// fulfilled. The converse does not hold: right after a join, the
/// step-4 counters may still lag by the jobs whose workers have not
/// got there yet.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The pool's worker count, fixed at construction.
    pub workers: usize,
    /// Time since the pool was built.
    pub uptime: Duration,
    /// Jobs accepted into the run queue.
    pub jobs_submitted: u64,
    /// Jobs that ran to completion (step 2 of the completion order).
    pub jobs_completed: u64,
    /// Jobs whose closure panicked, contained (step 2).
    pub jobs_failed: u64,
    /// `try_spawn_with` submissions bounced by a full pool.
    pub jobs_rejected: u64,
    /// Jobs queued but not yet started.
    pub queue_depth: u64,
    /// Jobs executing right now (step 2 leaves it).
    pub jobs_in_flight: u64,
    /// Wall-clock time per executed job (step 2).
    pub job_wall_time: HistogramSnapshot,
    /// Per-worker execution accounting, indexed by worker (step 4).
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
