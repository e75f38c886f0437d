//! The `serve` area: the always-on service at steady state.
//!
//! Admits a population of small sessions on a **dedicated** pool,
//! steps the slot clock unpaced until every session resolves (bounded
//! by `max_steps` — a stuck service fails loudly, it does not hang the
//! bench), then drains and writes `BENCH_serve.json`: the service
//! snapshot's metric list plus this area's own rows. It is the only
//! writer of that file.

use fcr_runtime::{MetricsSnapshot, Runtime, RuntimeConfig};
use fcr_serve::{AdmitOutcome, ServeConfig, Service, ServiceSnapshot, SessionSpec};
use fcr_sim::config::SimConfig;
use fcr_sim::Scenario;
use fcr_telemetry::{peak_rss_kb, BenchEnvelope};
use std::sync::Arc;
use std::time::Instant;

use super::Scale;

/// Workload knobs for the `serve` area.
#[derive(Debug, Clone, Copy)]
pub struct ServeParams {
    /// Sizing preset (recorded in the envelope workload).
    pub scale: Scale,
    /// Master seed for per-session seeds.
    pub seed: u64,
    /// Sessions admitted up front.
    pub sessions: usize,
    /// Worker threads on the dedicated pool (0 = available
    /// parallelism).
    pub workers: usize,
    /// Step-count ceiling before the run is declared stuck.
    pub max_steps: u64,
}

impl ServeParams {
    /// The preset for `scale`.
    pub fn at(scale: Scale, seed: u64) -> Self {
        match scale {
            Scale::Smoke => ServeParams {
                scale,
                seed,
                sessions: 24,
                workers: 2,
                max_steps: 100_000,
            },
            Scale::Full => ServeParams {
                scale,
                seed,
                sessions: 2_000,
                workers: 0,
                max_steps: 10_000_000,
            },
        }
    }
}

/// Runs the serve area and returns its envelope.
///
/// # Panics
///
/// Panics when the service fails to resolve every session within
/// `max_steps` — a stuck run must fail, not report a bogus trajectory
/// point.
pub fn run(params: &ServeParams) -> BenchEnvelope {
    let mut config = RuntimeConfig::default();
    if params.workers > 0 {
        config.workers = params.workers;
    }
    let runtime = Arc::new(Runtime::with_config(config));
    let service = Service::new(
        ServeConfig {
            mbs_budget: params.sessions as f64,
            max_sessions: params.sessions.max(1),
            completed_buffer: 64,
            // Unpaced stepping over-commits the pool by design; keep
            // backpressure at the defer stage (the shed ladder has its
            // own tests).
            shed_after: 1_000_000,
            ..ServeConfig::default()
        },
        Arc::clone(&runtime),
    );

    // Small sessions, mirroring the daemon's per-session shape at
    // reduced GOP count.
    let sim = SimConfig {
        gops: 2,
        deadline: 2,
        num_channels: 2,
        ..SimConfig::default()
    };
    let scenario = Arc::new(Scenario::single_fbs(&sim));

    let started = Instant::now();
    let mut seed_state = params.seed;
    for _ in 0..params.sessions {
        seed_state = seed_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let spec = SessionSpec::new(Arc::clone(&scenario), sim)
            .seed(seed_state)
            .base_runs(1)
            .enhancement_runs(1);
        match service.admit(spec) {
            AdmitOutcome::Admitted(_) => {}
            AdmitOutcome::Rejected(reason) => panic!("bench admission rejected: {reason}"),
        }
    }
    let mut peak_concurrent = service.snapshot().active;

    let slots_before = pool_slots(&runtime);
    let mut resolved = false;
    for _ in 0..params.max_steps {
        let report = service.step();
        peak_concurrent = peak_concurrent.max(report.active);
        if report.active == 0 && report.pending == 0 {
            resolved = true;
            break;
        }
        std::thread::yield_now();
    }
    assert!(
        resolved,
        "serve bench failed to resolve {} sessions within {} steps",
        params.sessions, params.max_steps
    );
    let wall_seconds = started.elapsed().as_secs_f64();

    let snap = service.snapshot();
    assert!(snap.accounting_holds(), "accounting identity violated");
    let slots_simulated = pool_slots(&runtime).saturating_sub(slots_before);
    envelope(
        params,
        &snap,
        &runtime.snapshot(),
        wall_seconds,
        peak_concurrent,
        slots_simulated,
    )
}

/// Builds `BENCH_serve.json` from a drained service's snapshot (its
/// whole metric list), the pool's job wall times, and what the run
/// measured: steady-state wall seconds, peak concurrency and slots
/// simulated.
pub fn envelope(
    params: &ServeParams,
    snap: &ServiceSnapshot,
    pool: &MetricsSnapshot,
    wall_seconds: f64,
    peak_concurrent: usize,
    slots_simulated: u64,
) -> BenchEnvelope {
    let per_sec = |v: u64| {
        if wall_seconds > 0.0 {
            v as f64 / wall_seconds
        } else {
            0.0
        }
    };
    BenchEnvelope::new("serve", params.seed)
        .wall_seconds(wall_seconds)
        .workload("target_sessions", params.sessions)
        // Slot pacing in ms: this area always steps unpaced.
        .workload("slot_ms", 0u64)
        .workload("scale", params.scale.name())
        .metric_list(snap.metrics())
        .metric("peak_concurrent", peak_concurrent)
        .metric("sessions_per_sec", per_sec(snap.completed))
        .metric("slots_per_sec", per_sec(slots_simulated))
        .metric("job_p50_us", pool.job_wall_time.percentile_micros(0.50))
        .metric("job_p99_us", pool.job_wall_time.percentile_micros(0.99))
        .metric("peak_rss_kb", peak_rss_kb())
}

fn pool_slots(runtime: &Runtime) -> u64 {
    runtime
        .snapshot()
        .counter(fcr_sim::pool::SLOTS_COUNTER)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::areas::tests::telemetry_serial;

    #[test]
    fn serve_area_resolves_and_reports_the_shared_shape() {
        let _g = telemetry_serial();
        let mut params = ServeParams::at(Scale::Smoke, 11);
        params.sessions = 6;
        let env = run(&params);
        assert_eq!(env.area, "serve");
        assert_eq!(env.file_name(), "BENCH_serve.json");
        assert_eq!(env.metric_value("sessions_admitted"), Some(6.0));
        assert_eq!(env.metric_value("peak_concurrent"), Some(6.0));
        assert_eq!(env.metric_value("accounting_holds"), Some(1.0));
        assert_eq!(env.metric_value("windows_retried"), Some(0.0));
        assert_eq!(env.metric_value("sessions_shed"), Some(0.0));
        // admitted == completed + retired + shed (nothing retired here).
        assert_eq!(
            env.metric_value("sessions_admitted"),
            env.metric_value("sessions_completed")
        );
        assert!(env.metric_value("slots_per_sec").unwrap() > 0.0);
        assert!(env.metric_value("steps").unwrap() > 0.0);
    }

    #[test]
    fn zero_wall_seconds_reports_zero_rates_not_nan() {
        let runtime = Arc::new(Runtime::with_config(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        }));
        let service = Service::new(ServeConfig::default(), Arc::clone(&runtime));
        let params = ServeParams::at(Scale::Smoke, 0);
        let env = envelope(
            &params,
            &service.snapshot(),
            &runtime.snapshot(),
            0.0,
            0,
            10,
        );
        assert_eq!(env.metric_value("slots_per_sec"), Some(0.0));
        assert_eq!(env.metric_value("sessions_per_sec"), Some(0.0));
    }
}
