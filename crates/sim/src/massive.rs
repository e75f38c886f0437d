//! Massive-N slot driver: partitioned parallel channel allocation plus
//! a warm-started global dual solve.
//!
//! The paper evaluates N ≤ 3 femtocells; its follow-up work (and any
//! deployment worth the name) runs hundreds to thousands. This module
//! is the scale path the ROADMAP calls for, composing the four core
//! primitives end to end per slot:
//!
//! 1. [`fcr_core::partition::Partition`] splits the interference graph
//!    into independent FBS clusters;
//! 2. each cluster's Table III greedy, the bounded cold path every
//!    [`GreedyAllocator`] runs, is one job on the shared
//!    [`fcr_runtime::Runtime`] worker pool — results return in
//!    submission order, so the parallel solve is bit-identical to the
//!    serial reference and makes Table III's exact choices per cluster;
//! 3. the per-cluster assignments merge into one conflict-free global
//!    assignment;
//! 4. the *global* time-share problem at the merged assignment is
//!    solved by the dual algorithm, warm-started from the previous
//!    slot's prices through a [`fcr_core::SolverState`] — so the
//!    Table I/II iteration count collapses when the channel state
//!    barely moves between slots.
//!
//! The deterministic generator and perturbation helpers below drive
//! the `fcr-bench` solver area's massive-N workloads and the testkit
//! warm-start properties.

use crate::pool::{SLOTS_COUNTER, SOLVER_COUNTER};
use fcr_core::dual::{DualConfig, DualSolution, DualSolver};
use fcr_core::interfering::{ChannelAssignment, InterferingProblem};
use fcr_core::partition::Partition;
use fcr_core::problem::UserState;
use fcr_core::{GreedyAllocator, SolverState};
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;
use fcr_runtime::Runtime;
use fcr_stats::rng::SeedSequence;
use rand::RngExt;
use std::sync::atomic::Ordering;

/// Parameters of the massive-N workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MassiveConfig {
    /// Total number of femtocells `N`.
    pub num_fbss: usize,
    /// FBSs per interference cluster: the graph is a disjoint union of
    /// paths of this length (a dense corridor deployment; geometric
    /// graphs at realistic densities split the same way).
    pub cluster_size: usize,
    /// CR users per femtocell.
    pub users_per_fbs: usize,
    /// Licensed channels in the slot's available set `A(t)`.
    pub num_channels: usize,
    /// Ignored: every cluster runs the bounded cold Table III greedy.
    /// Kept, like [`GreedyAllocator::incremental`], for callers of the
    /// removed incremental greedy (DESIGN §15).
    pub incremental_greedy: bool,
    /// Configuration of the global warm-started dual solve.
    pub dual: DualConfig,
}

impl MassiveConfig {
    /// The dual configuration actually used for an N-FBS slot.
    ///
    /// Step-11's φ bounds the *aggregate* `Σ(Δλ)²` over all `N + 1`
    /// prices, so a φ tuned for the paper's N ≤ 3 becomes ~300× stricter
    /// per price at N = 1000 — strict enough that the diminishing
    /// schedule hits the iteration cap before satisfying it. [`Self::dual`]'s
    /// tolerance is therefore interpreted per price and scaled by the
    /// price count here, keeping the effective criterion N-invariant.
    pub fn dual_for(&self, num_fbss: usize) -> DualConfig {
        DualConfig {
            tolerance: self.dual.tolerance * (num_fbss + 1) as f64,
            ..self.dual
        }
    }
}

impl Default for MassiveConfig {
    fn default() -> Self {
        Self {
            num_fbss: 64,
            cluster_size: 4,
            users_per_fbs: 2,
            num_channels: 4,
            incremental_greedy: false,
            dual: DualConfig::default(),
        }
    }
}

/// Deterministic massive-N instance: path-segment interference
/// topology, offload-regime users (femtocell links strong, the common
/// channel a fallback), per-channel availability weights — all drawn
/// from streams of `SeedSequence::new(seed)`, so equal seeds give
/// bit-equal problems regardless of call order.
pub fn generate_problem(cfg: &MassiveConfig, seed: u64) -> InterferingProblem {
    assert!(cfg.num_fbss > 0, "need at least one FBS");
    assert!(cfg.cluster_size > 0, "cluster_size must be ≥ 1");
    assert!(cfg.users_per_fbs > 0, "need at least one user per FBS");
    let seq = SeedSequence::new(seed);

    let edges: Vec<(FbsId, FbsId)> = (0..cfg.num_fbss.saturating_sub(1))
        .filter(|i| i / cfg.cluster_size == (i + 1) / cfg.cluster_size)
        .map(|i| (FbsId(i), FbsId(i + 1)))
        .collect();
    let graph = InterferenceGraph::new(cfg.num_fbss, &edges);

    let mut users = Vec::with_capacity(cfg.num_fbss * cfg.users_per_fbs);
    for f in 0..cfg.num_fbss {
        let mut rng = seq.stream("massive.user", f as u64);
        for _ in 0..cfg.users_per_fbs {
            let w = rng.random_range(20.0..40.0f64);
            let s_mbs = rng.random_range(0.10..0.40f64);
            let s_fbs = rng.random_range(0.70..0.95f64);
            users.push(UserState::new(w, FbsId(f), 0.72, 0.72, s_mbs, s_fbs).expect("valid draw"));
        }
    }

    let mut rng = seq.stream("massive.channel", 0);
    let weights: Vec<f64> = (0..cfg.num_channels)
        .map(|_| rng.random_range(0.60..0.95f64))
        .collect();

    InterferingProblem::new(users, graph, weights).expect("generated instance is valid")
}

/// The next slot's channel state: every user quality, success
/// probability, and channel weight jittered by at most `magnitude`
/// (relative), topology unchanged — the small perturbation regime
/// where warm-started duals collapse. Deterministic in `seed`.
pub fn perturb_problem(
    problem: &InterferingProblem,
    seed: u64,
    magnitude: f64,
) -> InterferingProblem {
    assert!(
        (0.0..1.0).contains(&magnitude),
        "relative magnitude must be in [0, 1), got {magnitude}"
    );
    let seq = SeedSequence::new(seed);
    let mut rng = seq.stream("perturb.user", 0);
    let jitter = |rng: &mut rand::rngs::StdRng, x: f64| -> f64 {
        x * (1.0 + magnitude * rng.random_range(-1.0..1.0f64))
    };
    let users: Vec<UserState> = problem
        .users()
        .iter()
        .map(|u| {
            UserState::new(
                jitter(&mut rng, u.w()),
                u.fbs(),
                u.r_mbs(),
                u.r_fbs(),
                jitter(&mut rng, u.success_mbs()).clamp(0.01, 1.0),
                jitter(&mut rng, u.success_fbs()).clamp(0.01, 1.0),
            )
            .expect("jittered state stays valid")
        })
        .collect();
    let mut rng = seq.stream("perturb.channel", 0);
    let weights: Vec<f64> = problem
        .channel_weights()
        .iter()
        .map(|w| jitter(&mut rng, *w).clamp(0.01, 1.0))
        .collect();
    InterferingProblem::new(users, problem.graph().clone(), weights)
        .expect("perturbed instance is valid")
}

/// Result of one massive-N slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// The merged conflict-free channel assignment.
    pub assignment: ChannelAssignment,
    /// The global warm-started dual solution (final time shares).
    pub solution: DualSolution,
    /// Interference clusters solved (in parallel).
    pub num_clusters: usize,
    /// FBSs set aside because their component serves no users.
    pub idle_fbss: usize,
}

/// Per-slot driver holding the warm-start lineage: keep one driver per
/// cell and feed it consecutive slots.
#[derive(Debug, Clone, Default)]
pub struct MassiveDriver {
    config: MassiveConfig,
    state: SolverState,
}

impl MassiveDriver {
    /// A driver with the given configuration and a cold solver state.
    pub fn new(config: MassiveConfig) -> Self {
        Self {
            config,
            state: SolverState::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MassiveConfig {
        &self.config
    }

    /// The warm-start state (inspect warm/cold counts).
    pub fn state(&self) -> &SolverState {
        &self.state
    }

    /// Solves one slot with cluster greedy jobs fanned out on
    /// `runtime`. Results are bit-identical to
    /// [`Self::solve_slot_serial`]: cluster subproblems share no state
    /// and the batch returns in submission order.
    pub fn solve_slot(&mut self, runtime: &Runtime, problem: &InterferingProblem) -> SlotOutcome {
        let partition = Partition::of(problem);
        let allocator = GreedyAllocator::new();
        let outcomes = runtime.run_batch(partition.clusters().iter().map(|cluster| {
            let cluster = cluster.clone();
            move || allocator.allocate(cluster.problem()).assignment().clone()
        }));
        let locals: Vec<ChannelAssignment> = outcomes
            .into_iter()
            .map(|o| o.expect("cluster greedy must not panic"))
            .collect();
        runtime
            .metrics()
            .counter(SLOTS_COUNTER)
            .fetch_add(1, Ordering::Relaxed);
        runtime
            .metrics()
            .counter(SOLVER_COUNTER)
            .fetch_add(locals.len() as u64 + 1, Ordering::Relaxed);
        self.finish_slot(problem, &partition, partition.merge(&locals))
    }

    /// The sequential reference: identical semantics to
    /// [`Self::solve_slot`] without the worker pool.
    pub fn solve_slot_serial(&mut self, problem: &InterferingProblem) -> SlotOutcome {
        let partition = Partition::of(problem);
        let (assignment, _) = partition.allocate_serial(&GreedyAllocator::new());
        self.finish_slot(problem, &partition, assignment)
    }

    fn finish_slot(
        &mut self,
        problem: &InterferingProblem,
        partition: &Partition,
        assignment: ChannelAssignment,
    ) -> SlotOutcome {
        debug_assert!(assignment.is_conflict_free(problem.graph()));
        let slot_problem = problem.problem_for(&assignment);
        let solution = DualSolver::new(self.config.dual_for(problem.num_fbss()))
            .solve_with_state(&slot_problem, &mut self.state);
        SlotOutcome {
            assignment,
            solution,
            num_clusters: partition.clusters().len(),
            idle_fbss: partition.idle_fbss().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcr_runtime::RuntimeConfig;

    fn small_cfg() -> MassiveConfig {
        MassiveConfig {
            num_fbss: 12,
            cluster_size: 3,
            users_per_fbs: 1,
            num_channels: 2,
            ..MassiveConfig::default()
        }
    }

    #[test]
    fn generator_is_deterministic_in_the_seed() {
        let cfg = small_cfg();
        assert_eq!(generate_problem(&cfg, 7), generate_problem(&cfg, 7));
        assert_ne!(generate_problem(&cfg, 7), generate_problem(&cfg, 8));
    }

    #[test]
    fn generated_topology_is_paths_of_cluster_size() {
        let p = generate_problem(&small_cfg(), 1);
        assert_eq!(p.num_fbss(), 12);
        let partition = Partition::of(&p);
        assert_eq!(partition.clusters().len(), 4);
        for c in partition.clusters() {
            assert_eq!(c.fbs_ids().len(), 3);
            assert_eq!(c.problem().graph().max_degree(), 2);
        }
    }

    /// Both paths return the same slot, and each cluster's part of its
    /// merged assignment is what `GreedyAllocator::new()` chooses for
    /// the cluster alone.
    #[test]
    fn parallel_slot_is_bit_identical_to_serial() {
        let cfg = small_cfg();
        let problem = generate_problem(&cfg, 42);
        let runtime = Runtime::with_config(RuntimeConfig {
            workers: 3,
            ..RuntimeConfig::default()
        });
        let parallel = MassiveDriver::new(cfg).solve_slot(&runtime, &problem);
        let serial = MassiveDriver::new(cfg).solve_slot_serial(&problem);
        assert_eq!(parallel, serial);
        let partition = Partition::of(&problem);
        let allocator = GreedyAllocator::new();
        let locals: Vec<ChannelAssignment> = partition
            .clusters()
            .iter()
            .map(|c| allocator.allocate(c.problem()).assignment().clone())
            .collect();
        assert_eq!(serial.assignment, partition.merge(&locals));
        assert!(parallel.assignment.is_conflict_free(problem.graph()));
        assert_eq!(parallel.num_clusters, 4);
        assert_eq!(parallel.idle_fbss, 0);
    }

    #[test]
    fn final_allocation_is_feasible_for_the_merged_assignment() {
        let cfg = small_cfg();
        let problem = generate_problem(&cfg, 3);
        let mut driver = MassiveDriver::new(cfg);
        let outcome = driver.solve_slot_serial(&problem);
        let slot_problem = problem.problem_for(&outcome.assignment);
        assert!(slot_problem.is_feasible(outcome.solution.allocation(), 1e-6));
    }

    #[test]
    fn warm_start_collapses_iterations_across_consecutive_slots() {
        let cfg = small_cfg();
        let problem = generate_problem(&cfg, 11);
        let mut driver = MassiveDriver::new(cfg);
        let cold = driver.solve_slot_serial(&problem);
        // A barely-perturbed next slot must converge far faster warm.
        let next = perturb_problem(&problem, 12, 1e-4);
        let warm = driver.solve_slot_serial(&next);
        assert_eq!(driver.state().cold_solves(), 1);
        assert_eq!(driver.state().warm_solves(), 1);
        assert!(
            warm.solution.iterations() * 2 <= cold.solution.iterations(),
            "warm {} vs cold {} iterations",
            warm.solution.iterations(),
            cold.solution.iterations()
        );
    }

    #[test]
    fn perturbation_is_deterministic_and_small() {
        let cfg = small_cfg();
        let p = generate_problem(&cfg, 5);
        let a = perturb_problem(&p, 9, 1e-3);
        let b = perturb_problem(&p, 9, 1e-3);
        assert_eq!(a, b);
        assert_ne!(a, p);
        for (u, v) in p.users().iter().zip(a.users()) {
            assert!((u.w() - v.w()).abs() <= u.w() * 1.1e-3);
            assert_eq!(u.fbs(), v.fbs());
        }
    }
}
