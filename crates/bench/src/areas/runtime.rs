//! The `runtime` area: worker-pool throughput and latency.
//!
//! Runs batches of real solver jobs (water-filling on the canonical
//! fixture) on a **dedicated** pool — never the shared one, so the
//! numbers are not polluted by other areas — and reads the results
//! from the pool's own `MetricsSnapshot`: jobs/sec, p50/p99 job wall
//! time from the runtime histogram, failure/rejection counts, and
//! worker utilization.

use crate::single_fbs_problem;
use fcr_core::waterfill::WaterfillingSolver;
use fcr_runtime::{Runtime, RuntimeConfig};
use fcr_telemetry::{peak_rss_kb, BenchEnvelope};
use std::time::Instant;

use super::Scale;

/// Workload knobs for the `runtime` area.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeParams {
    /// Sizing preset (recorded in the envelope workload).
    pub scale: Scale,
    /// Recorded in the envelope for like-for-like comparison (the
    /// workload itself is deterministic).
    pub seed: u64,
    /// Worker threads on the dedicated pool (0 = available
    /// parallelism).
    pub workers: usize,
    /// Jobs per batch.
    pub batch_jobs: u64,
    /// Batches submitted back to back.
    pub batches: u64,
}

impl RuntimeParams {
    /// The preset for `scale`.
    pub fn at(scale: Scale, seed: u64) -> Self {
        match scale {
            Scale::Smoke => RuntimeParams {
                scale,
                seed,
                workers: 2,
                batch_jobs: 100,
                batches: 3,
            },
            Scale::Full => RuntimeParams {
                scale,
                seed,
                workers: 0,
                batch_jobs: 5_000,
                batches: 10,
            },
        }
    }
}

/// Runs the runtime area and returns its envelope.
pub fn run(params: &RuntimeParams) -> BenchEnvelope {
    let started = Instant::now();
    let mut config = RuntimeConfig::default();
    if params.workers > 0 {
        config.workers = params.workers;
        config.max_workers = params.workers;
    }
    let runtime = Runtime::with_config(config);

    let problem = single_fbs_problem();
    let solver = WaterfillingSolver::new();
    let t = Instant::now();
    let mut ok = 0u64;
    for _ in 0..params.batches {
        let outcomes = runtime.run_batch((0..params.batch_jobs).map(|_| {
            let problem = problem.clone();
            move || std::hint::black_box(solver.solve(&problem))
        }));
        ok += outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    }
    let batch_secs = t.elapsed().as_secs_f64();

    let snap = runtime.snapshot();
    let total = params.batch_jobs * params.batches;
    let utilization_mean = if snap.per_worker.is_empty() {
        0.0
    } else {
        snap.per_worker
            .iter()
            .map(fcr_runtime::WorkerSnapshot::utilization)
            .sum::<f64>()
            / snap.per_worker.len() as f64
    };
    BenchEnvelope::new("runtime", params.seed)
        .wall_seconds(started.elapsed().as_secs_f64())
        .workload("scale", params.scale.name())
        .workload("workers", snap.workers)
        .workload("batch_jobs", params.batch_jobs)
        .workload("batches", params.batches)
        .metric("jobs_total", total)
        .metric("jobs_ok", ok)
        .metric(
            "jobs_per_sec",
            if batch_secs > 0.0 {
                ok as f64 / batch_secs
            } else {
                0.0
            },
        )
        .metric("jobs_submitted", snap.jobs_submitted)
        .metric("jobs_completed", snap.jobs_completed)
        .metric("jobs_failed", snap.jobs_failed)
        .metric("jobs_rejected", snap.jobs_rejected)
        .metric("job_p50_us", snap.job_wall_time.percentile_micros(0.50))
        .metric("job_p99_us", snap.job_wall_time.percentile_micros(0.99))
        .metric("worker_utilization_mean", utilization_mean)
        .metric("peak_rss_kb", peak_rss_kb())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_area_measures_a_dedicated_pool() {
        let mut params = RuntimeParams::at(Scale::Smoke, 3);
        params.batch_jobs = 20;
        params.batches = 2;
        let env = run(&params);
        assert_eq!(env.area, "runtime");
        assert_eq!(env.metric_value("jobs_total"), Some(40.0));
        assert_eq!(env.metric_value("jobs_ok"), Some(40.0));
        assert_eq!(env.metric_value("jobs_failed"), Some(0.0));
        assert_eq!(env.metric_value("jobs_rejected"), Some(0.0));
        assert!(env.metric_value("jobs_per_sec").unwrap() > 0.0);
        assert!(env.metric_value("job_p99_us").is_some());
        assert!(env.metric_value("job_p99_us").unwrap() >= env.metric_value("job_p50_us").unwrap());
        // The dedicated pool saw exactly this workload, nothing else.
        assert_eq!(env.metric_value("jobs_submitted"), Some(40.0));
    }
}
