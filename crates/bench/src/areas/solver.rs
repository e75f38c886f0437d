//! The `solver` area: allocation kernels + figure pipelines.
//!
//! Kernels are timed in a tight loop on the canonical fixtures
//! (`single_fbs_problem` for water-filling and the dual loop,
//! `fig5_problem` for greedy channel assignment), with telemetry off;
//! at full scale each loop runs for at least a second, so a swing of
//! the host's speed over a few milliseconds cannot decide a row. The
//! fig-3/4a/6a pipelines run through `fcr-experiments` on the shared
//! simulation pool, with throughput read as the `slots_simulated`
//! counter delta. Solver iteration statistics (the paper's Tables I/II
//! quantities) come from the `SolveRecord` telemetry channel, which the
//! dual solver feeds whenever telemetry is enabled: `kernel_reps`
//! untimed Table-I solves, the massive-N slots' solves and the
//! pipelines'. The greedy kernel's exact work counts (its `Q` solves,
//! the candidates its bounds skip and the share sums its budget fills
//! evaluate) come from the counters of one untimed allocation of the
//! same fixture, and the massive workload's from its slot 0's cluster
//! greedies.

use crate::{fig5_problem, single_fbs_problem};
use fcr_core::dual::{DualConfig, DualSolver};
use fcr_core::greedy::GreedyAllocator;
use fcr_core::waterfill::WaterfillingSolver;
use fcr_experiments::ExperimentOpts;
use fcr_sim::massive::{generate_problem, perturb_problem, MassiveConfig, MassiveDriver};
use fcr_telemetry::{peak_rss_kb, BenchEnvelope};
use std::time::{Duration, Instant};

use super::Scale;

/// The least wall time of each kernel's timing loop at full scale. The
/// water-filling kernel's 2 000 solves once took ~30 ms, and ten runs
/// of that row spread from 26 261 to 74 935 solves/s.
const FULL_KERNEL_SECONDS: f64 = 1.0;

/// Workload knobs for the `solver` area.
#[derive(Debug, Clone, Copy)]
pub struct SolverParams {
    /// Sizing preset (recorded in the envelope workload).
    pub scale: Scale,
    /// Master seed for the pipelines.
    pub seed: u64,
    /// The least iterations of each kernel's timing loop, and the
    /// untimed Table-I solves that feed the iteration statistics.
    pub kernel_reps: u64,
    /// Simulation runs per pipeline point.
    pub runs: u64,
    /// GOPs per pipeline run.
    pub gops: u32,
    /// Also run the fig-6a utilization sweep (the interfering-FBS
    /// pipeline with the exhaustive upper-bound series — an order of
    /// magnitude heavier than fig-3/4a, so only the `full` preset
    /// includes it).
    pub sweep_pipeline: bool,
    /// FBS count of the massive-N slot workload (the ROADMAP's
    /// N=1000 target at every scale — the per-slot cost is what the
    /// budget bounds, so smoke must measure the same N).
    pub massive_fbss: usize,
    /// Consecutive slots driven through one warm-start lineage (slot 0
    /// solves cold; later slots are perturbed and solve warm).
    pub massive_slots: u64,
}

impl SolverParams {
    /// The preset for `scale`.
    pub fn at(scale: Scale, seed: u64) -> Self {
        match scale {
            Scale::Smoke => SolverParams {
                scale,
                seed,
                kernel_reps: 50,
                runs: 2,
                gops: 2,
                sweep_pipeline: false,
                massive_fbss: 1000,
                massive_slots: 4,
            },
            Scale::Full => SolverParams {
                scale,
                seed,
                kernel_reps: 2_000,
                runs: 10,
                gops: 20,
                sweep_pipeline: true,
                massive_fbss: 1000,
                massive_slots: 16,
            },
        }
    }
}

/// Runs the solver area and returns its envelope.
pub fn run(params: &SolverParams) -> BenchEnvelope {
    let started = Instant::now();

    // --- Kernels, timed with telemetry off. ---
    fcr_telemetry::disable();
    let min_secs = match params.scale {
        Scale::Smoke => 0.0,
        Scale::Full => FULL_KERNEL_SECONDS,
    };
    let problem = single_fbs_problem();
    let waterfill = WaterfillingSolver::new();
    let waterfill_rate = kernel_rate(params.kernel_reps, min_secs, || {
        std::hint::black_box(waterfill.solve(std::hint::black_box(&problem)));
    });
    let dual = DualSolver::new(DualConfig::default());
    let dual_rate = kernel_rate(params.kernel_reps, min_secs, || {
        std::hint::black_box(dual.solve(std::hint::black_box(&problem)));
    });
    let interfering = fig5_problem();
    let greedy = GreedyAllocator::new();
    let greedy_rate = kernel_rate(params.kernel_reps, min_secs, || {
        std::hint::black_box(greedy.allocate(std::hint::black_box(&interfering)));
    });

    // The Table-I kernel's convergence records, on a clean channel: a
    // fixed number of them, whatever the host's speed.
    fcr_telemetry::enable();
    let _ = fcr_telemetry::drain();
    // The greedy kernel's exact work: the `Q` solves of one untimed
    // allocation, the candidates its bounds skip and the share sums its
    // budget fills evaluate. Counts, unlike the rates, do not depend on
    // the host's speed.
    let greedy_counter = |name: &str| {
        fcr_telemetry::global()
            .snapshot()
            .counter(name)
            .unwrap_or(0)
    };
    let (solves_before, pruned_before, sums_before) = (
        greedy_counter("greedy.inner_solves"),
        greedy_counter("greedy.bound_pruned"),
        greedy_counter("waterfill.bisection_steps"),
    );
    std::hint::black_box(greedy.allocate(std::hint::black_box(&interfering)));
    let greedy_q_solves = greedy_counter("greedy.inner_solves") - solves_before;
    let greedy_bound_pruned = greedy_counter("greedy.bound_pruned") - pruned_before;
    let greedy_bisection_steps = greedy_counter("waterfill.bisection_steps") - sums_before;
    for _ in 0..params.kernel_reps {
        std::hint::black_box(dual.solve(std::hint::black_box(&problem)));
    }

    // --- Massive-N slot driver: partitioned parallel greedy plus the
    // warm-started global dual (DESIGN §15). Slot 0 is the cold
    // anchor; each later slot perturbs the channel state by 0.1% and
    // solves warm, with a cold re-solve of the same slot problem
    // (timed separately) as the iteration-count reference. The `Q`
    // solves of slot 0's cluster greedies are an exact count too: they
    // depend only on the instance, not on the pool's width.
    let massive_cfg = MassiveConfig {
        num_fbss: params.massive_fbss,
        ..MassiveConfig::default()
    };
    let mut driver = MassiveDriver::new(massive_cfg);
    let runtime = fcr_sim::pool::shared();
    let mut problem = generate_problem(&massive_cfg, params.seed);
    let mut massive_secs = Duration::ZERO;
    let mut warm_iterations = 0u64;
    let mut cold_iterations = 0u64;
    let mut massive_clusters = 0u64;
    let mut massive_greedy_q_solves = 0u64;
    let solves_before = greedy_counter("greedy.inner_solves");
    for slot in 0..params.massive_slots {
        let t = Instant::now();
        let outcome = driver.solve_slot(runtime, &problem);
        massive_secs += t.elapsed();
        if slot == 0 {
            massive_greedy_q_solves = greedy_counter("greedy.inner_solves") - solves_before;
        }
        massive_clusters = outcome.num_clusters as u64;
        if slot > 0 {
            warm_iterations += outcome.solution.iterations() as u64;
            let cold = DualSolver::new(massive_cfg.dual_for(params.massive_fbss))
                .solve(&problem.problem_for(&outcome.assignment));
            cold_iterations += cold.iterations() as u64;
        }
        problem = perturb_problem(&problem, params.seed.wrapping_add(slot + 1), 1e-3);
    }
    let warm_slots = params.massive_slots.saturating_sub(1).max(1);
    let warm_iterations_mean = warm_iterations as f64 / warm_slots as f64;
    let cold_iterations_mean = cold_iterations as f64 / warm_slots as f64;
    let warm_iteration_ratio = if cold_iterations > 0 {
        warm_iterations as f64 / cold_iterations as f64
    } else {
        0.0
    };

    // --- Figure pipelines on the shared simulation pool. ---
    let opts = ExperimentOpts {
        runs: params.runs,
        gops: params.gops,
        seed: params.seed,
        csv: true,
    };
    let slots_before = pool_slots();
    let t = Instant::now();
    std::hint::black_box(fcr_experiments::fig3(&opts));
    std::hint::black_box(fcr_experiments::fig4a(&opts));
    if params.sweep_pipeline {
        std::hint::black_box(fcr_experiments::fig6a(&opts));
    }
    let pipeline_secs = t.elapsed().as_secs_f64();
    let pipeline_slots = pool_slots().saturating_sub(slots_before);

    // --- Solver convergence statistics from the telemetry channel. ---
    let telemetry = fcr_telemetry::drain();
    let iterations: Vec<u64> = telemetry
        .solves
        .iter()
        .map(|s| s.iterations as u64)
        .collect();
    let iterations_mean = if iterations.is_empty() {
        0.0
    } else {
        iterations.iter().sum::<u64>() as f64 / iterations.len() as f64
    };
    let converged = telemetry.solves.iter().filter(|s| s.converged).count();
    let converged_ratio = if telemetry.solves.is_empty() {
        0.0
    } else {
        converged as f64 / telemetry.solves.len() as f64
    };

    let rate = |reps: u64, secs: f64| {
        if secs > 0.0 {
            reps as f64 / secs
        } else {
            0.0
        }
    };
    BenchEnvelope::new("solver", params.seed)
        .wall_seconds(started.elapsed().as_secs_f64())
        .workload("scale", params.scale.name())
        .workload("kernel_reps", params.kernel_reps)
        .workload("kernel_min_seconds", min_secs)
        .workload("runs", params.runs)
        .workload("gops", u64::from(params.gops))
        .workload("sweep_pipeline", params.sweep_pipeline)
        .workload("massive_fbss", params.massive_fbss as u64)
        .workload("massive_slots", params.massive_slots)
        .metric("waterfill_solves_per_sec", waterfill_rate)
        .metric("dual_solves_per_sec", dual_rate)
        .metric("greedy_allocs_per_sec", greedy_rate)
        .metric("greedy_q_solves", greedy_q_solves)
        .metric("greedy_bound_pruned", greedy_bound_pruned)
        .metric("greedy_bisection_steps", greedy_bisection_steps)
        .metric("pipeline_seconds", pipeline_secs)
        .metric("pipeline_slots", pipeline_slots)
        .metric(
            "pipeline_slots_per_sec",
            if pipeline_secs > 0.0 {
                pipeline_slots as f64 / pipeline_secs
            } else {
                0.0
            },
        )
        .metric(
            "massive_slots_per_sec",
            rate(params.massive_slots, massive_secs.as_secs_f64()),
        )
        .metric("massive_clusters", massive_clusters)
        .metric("massive_greedy_q_solves", massive_greedy_q_solves)
        .metric("massive_warm_iterations_mean", warm_iterations_mean)
        .metric("massive_cold_iterations_mean", cold_iterations_mean)
        .metric("massive_warm_iteration_ratio", warm_iteration_ratio)
        .metric("solve_records", telemetry.solves.len())
        .metric("dual_iterations_mean", iterations_mean)
        .metric(
            "dual_iterations_max",
            iterations.iter().copied().max().unwrap_or(0),
        )
        .metric("dual_converged_ratio", converged_ratio)
        .metric("peak_rss_kb", peak_rss_kb())
}

/// Calls `kernel` at least `min_reps` times and for at least `min_secs`
/// of wall time, and returns its calls per second.
fn kernel_rate(min_reps: u64, min_secs: f64, mut kernel: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut reps = 0u64;
    while reps < min_reps || started.elapsed().as_secs_f64() < min_secs {
        kernel();
        reps += 1;
    }
    let secs = started.elapsed().as_secs_f64();
    if secs > 0.0 {
        reps as f64 / secs
    } else {
        0.0
    }
}

/// The shared simulation pool's `slots_simulated` counter.
fn pool_slots() -> u64 {
    fcr_sim::pool::snapshot()
        .counter(fcr_sim::pool::SLOTS_COUNTER)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::areas::tests::telemetry_serial;

    #[test]
    fn solver_area_reports_kernels_pipelines_and_iterations() {
        let _g = telemetry_serial();
        let mut params = SolverParams::at(Scale::Smoke, 7);
        params.kernel_reps = 3;
        params.runs = 1;
        params.gops = 2;
        params.massive_fbss = 16;
        params.massive_slots = 2;
        let env = run(&params);
        assert_eq!(env.area, "solver");
        assert_eq!(env.seed, 7);
        assert!(env.wall_seconds > 0.0);
        assert!(env.metric_value("waterfill_solves_per_sec").unwrap() > 0.0);
        assert!(env.metric_value("dual_solves_per_sec").unwrap() > 0.0);
        assert!(env.metric_value("greedy_allocs_per_sec").unwrap() > 0.0);
        // One fig-5 allocation's exact work: every Q(c) trial of its run
        // is solved, recalled from the step's memo or skipped.
        let solves = env.metric_value("greedy_q_solves").unwrap();
        let pruned = env.metric_value("greedy_bound_pruned").unwrap();
        assert!(
            solves > 0.0 && pruned > 0.0,
            "{solves} solves, {pruned} pruned"
        );
        assert!(env.metric_value("greedy_bisection_steps").unwrap() > 0.0);
        assert!(env.metric_value("pipeline_slots").unwrap() > 0.0);
        // The Table-I dual ran kernel_reps untimed times with telemetry
        // enabled, so the SolveRecord channel saw at least that many
        // records.
        assert!(env.metric_value("solve_records").unwrap() >= 3.0);
        assert!(env.metric_value("dual_iterations_mean").unwrap() > 0.0);
        assert!(
            env.metric_value("dual_iterations_max").unwrap()
                >= env.metric_value("dual_iterations_mean").unwrap()
        );
        assert_eq!(env.metric_value("dual_converged_ratio"), Some(1.0));
        // Massive-N workload: 16 FBSs in clusters of 4, one cold and
        // one warm slot — and the warm solve must actually be cheaper.
        assert!(env.metric_value("massive_slots_per_sec").unwrap() > 0.0);
        assert_eq!(env.metric_value("massive_clusters"), Some(4.0));
        assert!(env.metric_value("massive_greedy_q_solves").unwrap() > 0.0);
        let ratio = env.metric_value("massive_warm_iteration_ratio").unwrap();
        assert!((0.0..1.0).contains(&ratio), "warm must beat cold: {ratio}");
    }

    #[test]
    fn a_kernel_loop_runs_its_least_reps_and_its_least_wall_time() {
        let mut calls = 0u64;
        assert!(kernel_rate(3, 0.0, || calls += 1) > 0.0);
        assert_eq!(calls, 3);
        let mut calls = 0u64;
        let started = Instant::now();
        assert!(kernel_rate(1, 0.02, || calls += 1) > 0.0);
        assert!(started.elapsed().as_secs_f64() >= 0.02);
        assert!(calls > 1);
    }
}
