//! Benchmark areas: one module per named workload the `fcr-bench`
//! runner can execute, each producing a [`BenchEnvelope`] on the
//! shared schema.
//!
//! - [`solver`] — the allocation kernels (water-filling, dual
//!   decomposition, greedy channel assignment) plus the fig-3/4/6
//!   experiment pipelines, with solver iteration counts pulled from
//!   the `SolveRecord` telemetry channel;
//! - [`runtime`] — worker-pool throughput and latency on a dedicated
//!   pool (no cross-area pollution), measured from `MetricsSnapshot`;
//! - [`serve`] — the always-on service at steady state on its own
//!   pool, the only writer of `BENCH_serve.json`;
//! - [`scenario`] — a declarative pack's full churn replay (mobility
//!   walks, handovers, PU bursts) against a live service, so pack
//!   edits show up in the perf trajectory without a code change.
//!
//! Every area takes a params struct with [`Scale`]-derived
//! constructors: `smoke` is sized for CI (seconds, debug builds
//! included), `full` for a real perf trajectory point on a developer
//! machine.

use fcr_telemetry::BenchEnvelope;

pub mod runtime;
pub mod scenario;
pub mod serve;
pub mod solver;

/// Workload sizing preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: completes in seconds, debug builds included.
    Smoke,
    /// Trajectory-sized: the scale `EXPERIMENTS.md`'s perf table rows
    /// are measured at.
    Full,
}

impl Scale {
    /// The preset's name as it appears in the envelope workload map.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale {other:?} (want smoke|full)")),
        }
    }
}

/// Every area name the runner knows, in `run --all` order.
pub const ALL_AREAS: [&str; 4] = ["solver", "runtime", "serve", "scenario"];

/// Runs one named area at `scale` with `seed`. Unknown names error.
pub fn run_area(name: &str, scale: Scale, seed: u64) -> Result<BenchEnvelope, String> {
    match name {
        "solver" => Ok(solver::run(&solver::SolverParams::at(scale, seed))),
        "runtime" => Ok(runtime::run(&runtime::RuntimeParams::at(scale, seed))),
        "serve" => Ok(serve::run(&serve::ServeParams::at(scale, seed))),
        "scenario" => Ok(scenario::run(&scenario::ScenarioParams::at(scale, seed))),
        other => Err(format!(
            "unknown area {other:?} (want one of {})",
            ALL_AREAS.join("|")
        )),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that touch the process-global telemetry sink
    /// (the solver area drains it; concurrent drains would race).
    static TELEMETRY: Mutex<()> = Mutex::new(());

    pub(crate) fn telemetry_serial() -> MutexGuard<'static, ()> {
        TELEMETRY
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
