//! `massive_n1000`: the N = 1000 femtocell slot. A closed loop on one
//! thread; op = one warm slot of `MassiveDriver::solve_slot_serial`,
//! each slot re-perturbing the previous channel state by 0.1%. The only
//! workload that runs the partitioner, the warm dual and the 2000-user
//! polish.
//!
//! The deployment (topology, users, channel weights) is one fixed
//! generated instance, like a scenario pack; the workload seed drives
//! the slot-to-slot channel drift. Slot cost varies by ±20% between
//! generated instances, which a run of ~9 slots cannot average out.

use crate::host::HostClock;
use crate::measure::{closed_loop, repeated_setup, Busy, LoopStats};
use crate::trace::Tracer;
use crate::{layer_metrics, Args, EndToEnd, Report};
use fcr_core::dual::DualSolver;
use fcr_core::interfering::InterferingProblem;
use fcr_core::partition::Partition;
use fcr_core::waterfill::WaterfillingSolver;
use fcr_core::{GreedyAllocator, SolverState};
use fcr_sim::massive::{
    generate_problem, perturb_problem, MassiveConfig, MassiveDriver, SlotOutcome,
};
use fcr_stats::descriptive::median;
use fcr_stats::rng::SeedSequence;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Femtocells in the slot (the ROADMAP's scale target).
pub const NUM_FBSS: usize = 1000;
/// Seed of the fixed deployment instance.
pub const INSTANCE_SEED: u64 = 20110620;
/// Slots every run measures; `objective_mean` averages exactly these.
pub const MIN_OPS: usize = 4;
const SETUP_REPS: usize = 3;
/// Kernel runs per host sample between slots (~10 ms of each ~3 s slot).
const SAMPLE_REPS: usize = 4;
/// Relative channel-state drift between consecutive slots.
const DRIFT: f64 = 1e-3;

pub fn config() -> MassiveConfig {
    MassiveConfig {
        num_fbss: NUM_FBSS,
        ..MassiveConfig::default()
    }
}

/// Slot `slot`'s problem (`slot ≥ 1`), perturbed from its predecessor.
pub fn next_problem(prev: &InterferingProblem, seed: u64, slot: u64) -> InterferingProblem {
    perturb_problem(prev, SeedSequence::new(seed).derive("perturb", slot), DRIFT)
}

/// The slot's output check: a conflict-free merged assignment, a
/// feasible allocation at 1e-6, and a converged dual. Returns the
/// verdict and `SlotProblem::objective` of the slot allocation.
pub fn check(problem: &InterferingProblem, out: &SlotOutcome) -> (bool, f64) {
    let slot_problem = problem.problem_for(&out.assignment);
    let ok = out.assignment.is_conflict_free(problem.graph())
        && slot_problem.is_feasible(out.solution.allocation(), 1e-6)
        && out.solution.converged();
    (ok, slot_problem.objective(out.solution.allocation()))
}

/// Generates the deployment and solves its slot 0 cold: the anchor
/// every warm slot starts from.
fn setup() -> (MassiveDriver, InterferingProblem) {
    let problem = generate_problem(&config(), INSTANCE_SEED);
    let mut driver = MassiveDriver::new(config());
    black_box(driver.solve_slot_serial(&problem));
    (driver, problem)
}

/// What a run of warm slots produced.
#[derive(Debug, Default)]
struct Measured {
    /// Per slot: check verdict and objective.
    verdicts: Vec<(bool, f64)>,
    /// Per slot outcome, kept only for the traced comparison.
    outcomes: Vec<SlotOutcome>,
    /// Latency of each slot, ms, calibrated when a clock was given.
    latencies_ms: Vec<f64>,
    busy: Busy,
}

/// Warm slots `1, 2, …` from the anchor for `budget`. Each slot is
/// checked as it lands (outside its timer; ~0.01% of the slot). With a
/// `clock`, the host is sampled before the first slot and after each,
/// and every latency is calibrated.
fn measure(
    anchor: &(MassiveDriver, InterferingProblem),
    seed: u64,
    budget: Duration,
    min_ops: usize,
    keep: bool,
    mut clock: Option<&mut HostClock>,
) -> (Measured, LoopStats) {
    let (mut driver, mut problem) = anchor.clone();
    let mut m = Measured::default();
    if let Some(c) = clock.as_deref_mut() {
        c.sample(SAMPLE_REPS);
    }
    let stats = closed_loop(budget, min_ops, usize::MAX, |k| {
        problem = next_problem(&problem, seed, k as u64 + 1);
        let started = Instant::now();
        let out = driver.solve_slot_serial(&problem);
        let took = started.elapsed().as_secs_f64();
        let scale = clock
            .as_deref_mut()
            .map_or(1.0, |c| c.scale_to_sample(SAMPLE_REPS));
        m.busy.add(took, scale);
        m.latencies_ms.push(took * scale * 1e3);
        m.verdicts.push(check(&problem, &out));
        if keep {
            m.outcomes.push(out);
        }
    });
    (m, stats)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut clock = HostClock::default();
    let (setup_time, anchor) = repeated_setup(SETUP_REPS, &mut clock, setup);
    if args.trace {
        return Ok(traced(args, &anchor));
    }
    let spent = clock.spent();
    let (m, stats) = measure(
        &anchor,
        args.seed,
        args.budget,
        MIN_OPS,
        false,
        Some(&mut clock),
    );
    let failed = m.verdicts.iter().filter(|(ok, _)| !ok).count() as u64;
    let ops = m.verdicts.len() as u64;
    Ok(EndToEnd {
        setup: setup_time,
        busy: m.busy,
        cpu: stats.cpu.saturating_sub(clock.spent() - spent),
        ops,
        // Too few slots for any percentile with ten samples beyond it:
        // the median stands in.
        tail_ms: median(&m.latencies_ms).expect("the loop runs at least one slot"),
        latencies_ms: m.latencies_ms,
        ok: ops - failed,
        failed,
        objective_mean: m.verdicts[..MIN_OPS].iter().map(|(_, o)| o).sum::<f64>() / MIN_OPS as f64,
        checks_hold: true,
    }
    .report())
}

/// Half the budget through `solve_slot_serial`, half through the same
/// slot rebuilt from the public calls it composes, each timed as a
/// layer. Both replay the same slots from the same anchor and must
/// agree exactly.
fn traced(args: &Args, anchor: &(MassiveDriver, InterferingProblem)) -> Report {
    let half = args.budget / 2;
    let (plain, plain_stats) = measure(anchor, args.seed, half, 1, true, None);

    let cfg = config();
    let dual = DualSolver::new(cfg.dual_for(NUM_FBSS));
    let allocator = GreedyAllocator::new().incremental(cfg.incremental_greedy);
    let mut state: SolverState = anchor.0.state().clone();
    let mut problem = anchor.1.clone();
    let mut tracer = Tracer::default();
    let (mut greedy_steps, mut greedy_calls, mut iterations, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut traced_out = Vec::new();
    let stats = closed_loop(half, 1, plain.outcomes.len(), |k| {
        problem = next_problem(&problem, args.seed, k as u64 + 1);
        let op = Some(k as u64);
        let root = tracer.open("op", None, op);
        let (partition, _) =
            tracer.time("core.partition", Some(root), op, || Partition::of(&problem));
        let locals: Vec<_> = partition
            .clusters()
            .iter()
            .map(|c| {
                let (g, _) = tracer.time("core.greedy", Some(root), op, || {
                    allocator.allocate(c.problem())
                });
                greedy_steps += g.steps().len() as u64;
                g.assignment().clone()
            })
            .collect();
        let ((assignment, slot_problem), _) = tracer.time("core.merge", Some(root), op, || {
            let assignment = partition.merge(&locals);
            let slot_problem = problem.problem_for(&assignment);
            (assignment, slot_problem)
        });
        let (solution, _) = tracer.time("core.dual", Some(root), op, || {
            dual.solve_with_state(&slot_problem, &mut state)
        });
        tracer.close(root);
        // Outside the op: how much of the dual is its primal-recovery
        // polish.
        tracer.time("core.polish", None, op, || {
            black_box(
                WaterfillingSolver::new().polish(&slot_problem, solution.allocation().clone()),
            )
        });
        greedy_calls += locals.len() as u64;
        iterations += solution.iterations() as u64;
        let out = SlotOutcome {
            assignment,
            solution,
            num_clusters: partition.clusters().len(),
            idle_fbss: partition.idle_fbss().len(),
        };
        failed += u64::from(!check(&problem, &out).0);
        traced_out.push(out);
    });

    let ops = traced_out.len() as f64;
    let mismatched = traced_out
        .iter()
        .zip(&plain.outcomes)
        .filter(|(t, p)| t != p)
        .count() as u64;
    failed += plain.verdicts.iter().filter(|(ok, _)| !ok).count() as u64;
    let mut metrics = layer_metrics(&tracer, "op", ops);
    // The polish calls are extra work outside the ops, not tracing cost.
    let polish = Duration::from_nanos(tracer.self_ns()["core.polish"]);
    metrics.extend([
        ("core.greedy_steps", greedy_steps as f64 / ops),
        ("core.greedy_calls", greedy_calls as f64 / ops),
        ("core.dual_iterations", iterations as f64 / ops),
        (
            "telemetry.overhead",
            (ops / (stats.wall - polish).as_secs_f64())
                / (plain.outcomes.len() as f64 / plain_stats.wall.as_secs_f64()),
        ),
    ]);
    tracer
        .write_jsonl(&args.trace_path())
        .expect("writing the span file");
    Report {
        correct: mismatched == 0 && failed == 0,
        attempted: (plain.outcomes.len() + traced_out.len()) as u64,
        failed: failed + mismatched,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_problems_are_a_pure_function_of_the_seed() {
        let a = generate_problem(&config(), INSTANCE_SEED);
        assert_eq!(a, generate_problem(&config(), INSTANCE_SEED));
        assert_eq!(next_problem(&a, 5, 1), next_problem(&a, 5, 1));
        assert_ne!(next_problem(&a, 5, 1), next_problem(&a, 5, 2));
        assert_ne!(next_problem(&a, 5, 1), next_problem(&a, 6, 1));
    }
}
