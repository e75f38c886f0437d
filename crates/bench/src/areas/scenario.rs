//! The `scenario` area: a declarative pack's full churn replay —
//! mobility walks, handovers, PU-burst admissions — against a live
//! service on a dedicated pool. This is the pack-driven counterpart of
//! the `serve` area: same service machinery, but the workload comes
//! from `scenarios/*.json` instead of hand-coded specs, so a pack edit
//! shows up in the perf trajectory without a code change. The replay
//! runs in lockstep and holds each session for its playout, so its
//! counts are exact and its walkers' handovers reach live sessions.

use fcr_runtime::{Runtime, RuntimeConfig};
use fcr_scenario::{ChurnDriver, ChurnSchedule, Pack};
use fcr_serve::{ServeConfig, Service};
use fcr_telemetry::{peak_rss_kb, BenchEnvelope};
use std::sync::Arc;
use std::time::Instant;

use super::Scale;

/// How many times the shipped pack's horizon a full-scale replay runs.
/// Re-seeded over the pack's own 40 slots, the walk need not carry
/// anyone across a cell boundary while their session plays; over 400
/// slots the default seed attempts 13 handovers.
const FULL_HORIZON_FACTOR: u64 = 10;

/// Workload knobs for the `scenario` area.
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// Sizing preset (recorded in the envelope workload).
    pub scale: Scale,
    /// Master seed; at full scale the shipped pack is re-seeded with
    /// it so trajectory points vary the walk, not the shape.
    pub seed: u64,
    /// The pack to replay.
    pub pack: Pack,
    /// Worker threads on the dedicated pool.
    pub workers: usize,
}

impl ScenarioParams {
    /// The preset for `scale`: the shipped mobility/churn pack, at
    /// smoke scale verbatim (so CI measures exactly what the goldens
    /// pin), at full scale re-seeded for a fresh walk over ten times
    /// its horizon.
    pub fn at(scale: Scale, seed: u64) -> Self {
        let mut pack = fcr_scenario::shipped::named("mobility_churn").expect("shipped pack");
        if let Scale::Full = scale {
            pack.seed = seed & ((1 << 53) - 1);
            pack.name = format!("mobility_churn_{}", pack.seed);
            if let Some(churn) = &mut pack.churn {
                churn.slots *= FULL_HORIZON_FACTOR;
            }
        }
        ScenarioParams {
            scale,
            seed,
            pack,
            workers: 2,
        }
    }
}

/// Runs the scenario area and returns its envelope.
///
/// # Panics
///
/// Panics when the replay leaves the service's conservation identity
/// violated — a broken replay must fail, not report a bogus point.
pub fn run(params: &ScenarioParams) -> BenchEnvelope {
    let churn = params
        .pack
        .churn
        .expect("scenario area needs a pack with a churn section");
    let service = Service::new(
        ServeConfig {
            mbs_budget: churn.mbs_budget,
            max_sessions: churn.max_sessions as usize,
            // The lockstep replay computes each session in its first
            // slots; held for its playout, a session is still active
            // when its walker crosses a cell boundary.
            hold_for_playout: true,
            ..ServeConfig::default()
        },
        Arc::new(Runtime::with_config(RuntimeConfig {
            workers: params.workers,
            ..RuntimeConfig::default()
        })),
    );
    let schedule = ChurnSchedule::generate(&params.pack);

    let started = Instant::now();
    let report = ChurnDriver::run(&params.pack, &service);
    let wall_seconds = started.elapsed().as_secs_f64();

    let snap = service.snapshot();
    assert_eq!(
        snap.admitted,
        snap.completed + snap.retired + snap.shed,
        "conservation violated after churn replay"
    );
    BenchEnvelope::new("scenario", params.seed)
        .wall_seconds(wall_seconds)
        .workload("pack", params.pack.name.as_str())
        .workload("scale", params.scale.name())
        .workload("slots", churn.slots)
        .workload("scheduled_sessions", schedule.sessions)
        .metric("arrivals", report.arrivals)
        .metric("admitted", report.admitted)
        .metric("rejected_admissions", report.rejected_admissions)
        .metric("handovers_attempted", report.handovers_attempted)
        .metric("handovers_completed", report.handovers_completed)
        .metric("steps", snap.steps)
        .metric(
            "slots_per_sec",
            if wall_seconds > 0.0 {
                snap.steps as f64 / wall_seconds
            } else {
                0.0
            },
        )
        .metric("peak_rss_kb", peak_rss_kb())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-scale preset walks the re-seeded pack over ten times its
    /// horizon, and at the default seed somebody crosses a cell
    /// boundary, as the budget's `handovers_attempted ≥ 1` requires.
    #[test]
    fn the_full_scale_replay_hands_over_at_the_default_seed() {
        // `fcr-bench`'s default seed.
        let seed = 20110620;
        let smoke = ScenarioParams::at(Scale::Smoke, seed);
        let full = ScenarioParams::at(Scale::Full, seed);
        let slots = |p: &ScenarioParams| p.pack.churn.expect("churn section").slots;
        assert_eq!(slots(&full), FULL_HORIZON_FACTOR * slots(&smoke));
        let envelope = run(&full);
        assert!(envelope.metric_value("handovers_attempted").unwrap_or(0.0) >= 1.0);
    }

    /// The replay runs in lockstep, so the smoke preset's counts repeat
    /// exactly on any pool: of the shipped pack's 25 arrivals, 19 are
    /// admitted, and one handover finds its session held for playout,
    /// over 43 service steps.
    #[test]
    fn the_smoke_replay_repeats_its_counts_exactly() {
        let params = ScenarioParams::at(Scale::Smoke, 20110620);
        for _ in 0..2 {
            let envelope = run(&params);
            let counts = [
                "arrivals",
                "admitted",
                "rejected_admissions",
                "handovers_attempted",
                "handovers_completed",
                "steps",
            ]
            .map(|name| envelope.metric_value(name));
            assert_eq!(
                counts,
                [25.0, 19.0, 6.0, 1.0, 1.0, 43.0].map(Some),
                "{counts:?}"
            );
        }
    }

    #[test]
    fn scenario_area_replays_the_shipped_pack() {
        let params = ScenarioParams::at(Scale::Smoke, 11);
        let envelope = run(&params);
        assert_eq!(envelope.file_name(), "BENCH_scenario.json");
        assert!(envelope.metric_value("arrivals").unwrap_or(0.0) > 0.0);
        let parsed = crate::json::parse_envelope(&envelope.to_json()).expect("round trip");
        assert_eq!(
            parsed.metric_value("admitted"),
            envelope.metric_value("admitted")
        );
    }
}
