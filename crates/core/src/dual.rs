//! The paper's distributed dual-decomposition algorithm
//! (Tables I and II).
//!
//! The MBS maintains one dual price per budget: `λ_0` for the common
//! channel and `λ_i` for each FBS. Each iteration τ:
//!
//! 1. every CR user best-responds to the prices with the closed-form
//!    shares and mode choice of [`crate::lagrangian`] (steps 3–8),
//!    using only local information;
//! 2. the MBS collects the shares and takes a projected subgradient
//!    step on each price (eq. (16)/(18)/(19)):
//!    `λ_i(τ+1) = [λ_i(τ) − s·(1 − Σ_j ρ*_{i,j}(τ))]⁺`;
//! 3. the loop stops when `Σ_i (λ_i(τ+1) − λ_i(τ))² ≤ φ` (step 11) or
//!    the iteration cap is hit.
//!
//! Step 1 evaluates the closed form of [`crate::lagrangian::solve_user`]
//! bit for bit, but takes once per solve what no iteration changes:
//! per user and branch the quotient `w/rate` and `ln(w + rate)`, and
//! the user's FBS rate `G·r_fbs` and price index. An iteration then
//! takes a logarithm only for an interior share, or a zero share on an
//! infinite rate (DESIGN §15).
//!
//! Strong duality holds (the problem is convex, Lemma 1), so the prices
//! converge to the optimum and the primal iterates converge with them.
//! After convergence the final shares are polished with one exact
//! water-filling pass at the converged modes, which removes the residual
//! `O(s)` primal infeasibility a truncated subgradient loop leaves
//! behind (documented deviation from the bare listing; the λ-trace of
//! Fig. 4(a) is produced by the loop itself).

use crate::allocation::{Allocation, Mode};
use crate::lagrangian;
use crate::problem::{SlotProblem, UserState};
use crate::state::SolverState;
use crate::waterfill::WaterfillingSolver;

/// Step-size schedule for the subgradient updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepSchedule {
    /// Fixed step `s` (the paper's "sufficiently small positive step
    /// size").
    Constant(f64),
    /// `s_τ = initial / (1 + τ/decay)` — diminishing, which removes the
    /// limit-cycle oscillation a constant step leaves.
    Diminishing {
        /// Step at τ = 0.
        initial: f64,
        /// Iterations over which the step halves.
        decay: f64,
    },
}

impl StepSchedule {
    /// The step size at iteration τ.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was built with a non-positive step.
    pub fn at(&self, tau: usize) -> f64 {
        let s = match self {
            StepSchedule::Constant(s) => *s,
            StepSchedule::Diminishing { initial, decay } => initial / (1.0 + tau as f64 / decay),
        };
        assert!(s > 0.0, "step size must be positive, got {s}");
        s
    }
}

/// Configuration of the dual solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualConfig {
    /// Subgradient step schedule.
    pub step: StepSchedule,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Convergence threshold φ on `Σ_i (Δλ_i)²` (step 11).
    pub tolerance: f64,
    /// Initial price `λ_i(0)` for every budget.
    pub initial_lambda: f64,
    /// Record the per-iteration λ vector (Fig. 4(a)); costs memory.
    pub record_trace: bool,
}

impl Default for DualConfig {
    fn default() -> Self {
        Self {
            step: StepSchedule::Diminishing {
                initial: 2e-3,
                decay: 200.0,
            },
            max_iterations: 5_000,
            tolerance: 1e-14,
            initial_lambda: 0.1,
            record_trace: false,
        }
    }
}

/// Outcome of a dual-decomposition run.
#[derive(Debug, Clone, PartialEq)]
pub struct DualSolution {
    allocation: Allocation,
    lambda: Vec<f64>,
    iterations: usize,
    final_tau: usize,
    converged: bool,
    objective: f64,
    trace: Vec<Vec<f64>>,
}

impl DualSolution {
    /// The primal allocation (feasible; polished at converged modes).
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// Final prices `[λ_0, λ_1, …, λ_N]`.
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// Iterations executed (by this solve; a warm-started solve's
    /// schedule position is [`Self::final_tau`]).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The step-schedule position after the last update: the resumed
    /// start τ₀ plus [`Self::iterations`]. A cold solve has τ₀ = 0.
    pub fn final_tau(&self) -> usize {
        self.final_tau
    }

    /// `true` if the step-11 criterion fired before the cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Objective (12)/(17) value of [`Self::allocation`].
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Per-iteration λ vectors (empty unless
    /// [`DualConfig::record_trace`] was set).
    pub fn trace(&self) -> &[Vec<f64>] {
        &self.trace
    }
}

/// The distributed algorithm of Tables I and II.
///
/// # Examples
///
/// ```
/// use fcr_core::dual::{DualConfig, DualSolver};
/// use fcr_core::problem::{SlotProblem, UserState};
/// use fcr_net::node::FbsId;
///
/// let p = SlotProblem::single_fbs(vec![
///     UserState::new(30.2, FbsId(0), 0.72, 0.72, 0.9, 0.85)?,
///     UserState::new(27.6, FbsId(0), 0.63, 0.63, 0.8, 0.9)?,
///     UserState::new(28.8, FbsId(0), 0.675, 0.675, 0.85, 0.8)?,
/// ], 3.0)?;
/// let solution = DualSolver::new(DualConfig::default()).solve(&p);
/// assert!(p.is_feasible(solution.allocation(), 1e-9));
/// # Ok::<(), fcr_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DualSolver {
    config: DualConfig,
}

impl DualSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: DualConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DualConfig {
        &self.config
    }

    /// Runs Tables I/II on `problem`.
    ///
    /// Table I is the special case `N = 1`; Table II is the general
    /// non-interfering case with one price per FBS. (For interfering
    /// FBSs, run [`crate::greedy`] first to fix the channel allocation,
    /// then this solver — Section IV-C.)
    pub fn solve(&self, problem: &SlotProblem) -> DualSolution {
        let n_prices = problem.num_fbss() + 1;
        self.solve_from(problem, &vec![self.config.initial_lambda; n_prices], 0)
    }

    /// Runs Tables I/II warm-started from `state`: when the state holds
    /// prices of matching dimension the loop starts at them instead of
    /// [`DualConfig::initial_lambda`] — *and* resumes the step schedule
    /// at the persisted position τ instead of τ = 0. The final prices
    /// and schedule position are absorbed back into the state either
    /// way.
    ///
    /// Resuming τ matters as much as resuming λ. Near a mode-switch
    /// kink the subgradient does not vanish at the optimum, so the
    /// step-11 criterion `Σ(Δλ)² = s_τ²·Σg² ≤ φ` is met by the step
    /// schedule shrinking, not by the iterate closing distance — a
    /// warm λ restarted at the full initial step just gets kicked back
    /// onto the same limit cycle and repays the whole schedule. The
    /// resumed position is capped at [`DualConfig::max_iterations`] so
    /// a long lineage can never shrink the step below the schedule's
    /// value at the cap (the state must keep tracking slot-to-slot
    /// drift).
    ///
    /// Warm starting only moves the starting point of a convex
    /// subgradient iteration, so the solve converges to the same prices
    /// and allocation as a cold start (within solver tolerance) — but
    /// when consecutive slots' channel states barely differ, the
    /// step-11 criterion fires after a handful of iterations instead of
    /// the full Table I/II count.
    pub fn solve_with_state(&self, problem: &SlotProblem, state: &mut SolverState) -> DualSolution {
        let n_prices = problem.num_fbss() + 1;
        let solution = match state.warm_start(n_prices) {
            Some(warm) => {
                let initial = warm.to_vec();
                let tau0 = state.tau().min(self.config.max_iterations);
                state.count_solve(true);
                self.solve_from(problem, &initial, tau0)
            }
            None => {
                state.count_solve(false);
                self.solve_from(problem, &vec![self.config.initial_lambda; n_prices], 0)
            }
        };
        state.absorb_solution(&solution);
        solution
    }

    fn solve_from(&self, problem: &SlotProblem, initial: &[f64], tau0: usize) -> DualSolution {
        let _span = fcr_telemetry::Span::enter(fcr_telemetry::Phase::Solver);
        let records: Vec<Record> = problem
            .users()
            .iter()
            .map(|u| Record::new(u, problem.g(u.fbs())))
            .collect();
        self.iterate(problem, initial, tau0, |lambda, modes, loads| {
            for ((u, record), mode) in problem.users().iter().zip(&records).zip(modes) {
                let (best, rho, price) = record.respond(u, lambda);
                *mode = best;
                loads[price] += rho;
            }
        })
    }

    /// The loop of Tables I/II from prices `initial` at schedule
    /// position `tau0`, then the primal recovery. Each iteration,
    /// `respond(λ, modes, loads)` makes steps 3–8: it writes every
    /// user's mode and adds, in user order, its winning share to the
    /// load of the price it pays.
    fn iterate(
        &self,
        problem: &SlotProblem,
        initial: &[f64],
        tau0: usize,
        mut respond: impl FnMut(&[f64], &mut [Mode], &mut [f64]),
    ) -> DualSolution {
        let n_prices = problem.num_fbss() + 1;
        debug_assert_eq!(initial.len(), n_prices);
        let mut lambda = initial.to_vec();
        let mut trace = Vec::new();
        if self.config.record_trace {
            trace.push(lambda.clone());
        }

        let mut iterations = 0;
        let mut converged = false;
        let mut residual = f64::INFINITY;
        let mut modes = vec![Mode::Mbs; problem.num_users()];
        let mut loads = vec![0.0; n_prices];

        for it in 0..self.config.max_iterations {
            let tau = tau0 + it;
            iterations = it + 1;
            // Steps 3–8: every user best-responds locally.
            loads.fill(0.0);
            respond(&lambda, &mut modes, &mut loads);
            // Step 9: projected subgradient update at the MBS.
            let s = self.config.step.at(tau);
            let mut delta_sq = 0.0;
            for (li, load) in lambda.iter_mut().zip(&loads) {
                let updated = (*li - s * (1.0 - load)).max(0.0);
                delta_sq += (updated - *li).powi(2);
                *li = updated;
            }
            if self.config.record_trace {
                trace.push(lambda.clone());
            }
            // Step 11.
            residual = delta_sq;
            if delta_sq <= self.config.tolerance {
                converged = true;
                break;
            }
        }

        // Convergence telemetry (Tables I/II): how hard the subgradient
        // loop worked, the step-11 residual it stopped at, and the
        // final prices. No-op unless telemetry is enabled.
        fcr_telemetry::incr("dual.iterations", iterations as u64);
        if fcr_telemetry::is_enabled() {
            fcr_telemetry::record_solve(fcr_telemetry::SolveRecord {
                iterations,
                converged,
                residual,
                lambda: lambda.clone(),
            });
        }

        // Final primal recovery: exact fill at the converged modes, then
        // mode-local-search polish from that fill and its water levels
        // (removes the near-tie mode errors a tolerance-truncated
        // subgradient loop can leave).
        let allocation = WaterfillingSolver::new().fill_and_polish(problem, &modes);
        let objective = problem.objective(&allocation);
        DualSolution {
            allocation,
            lambda,
            iterations,
            final_tau: tau0 + iterations,
            converged,
            objective,
            trace,
        }
    }
}

/// One branch's values that stay fixed for a whole solve: the saturated
/// quotient `w/rate` of its share and its log at a full share.
#[derive(Debug, Clone, Copy)]
struct Branch {
    quotient: f64,
    ln_full: f64,
}

impl Branch {
    fn new(w: f64, rate: f64) -> Self {
        Self {
            quotient: lagrangian::quotient(w, rate),
            ln_full: (w + rate).ln(),
        }
    }

    /// `ln(w + rho·rate)`, bit for bit, taking a logarithm only for an
    /// interior share or for a zero share on an infinite rate. A share
    /// of exactly 0 (either sign) on a finite rate gives `ln w`, since
    /// `w + 0·rate == w`; a share of exactly 1 gives the hoisted
    /// `ln(w + rate)`, since `1·rate == rate`. On an infinite rate `0·∞`
    /// is NaN, and so is the log.
    fn log(self, rho: f64, w: f64, ln_w: f64, rate: f64) -> f64 {
        if rho == 1.0 {
            self.ln_full
        } else if rho == 0.0 && rate.is_finite() {
            ln_w
        } else {
            (w + rho * rate).ln()
        }
    }

    /// The branch's best share at `lambda` and its Lagrangian value:
    /// [`lagrangian::best_share`] and [`lagrangian::branch_value`], bit
    /// for bit.
    fn respond(self, success: f64, lambda: f64, w: f64, ln_w: f64, rate: f64) -> (f64, f64) {
        let rho = lagrangian::share_given_quotient(success, lambda, rate, self.quotient);
        let log = self.log(rho, w, ln_w, rate);
        (
            rho,
            lagrangian::value_given_log(success, lambda, ln_w, log, rho),
        )
    }
}

/// A user's values that stay fixed for a whole solve.
#[derive(Debug, Clone, Copy)]
struct Record {
    mbs: Branch,
    fbs: Branch,
    /// The FBS-side rate `G·r_fbs`.
    fbs_rate: f64,
    /// The index of the user's FBS price in `λ`.
    price: usize,
}

impl Record {
    /// `user`'s record when its FBS holds `g` channels.
    fn new(user: &UserState, g: f64) -> Self {
        let fbs_rate = g * user.r_fbs();
        Self {
            mbs: Branch::new(user.w(), user.r_mbs()),
            fbs: Branch::new(user.w(), fbs_rate),
            fbs_rate,
            price: 1 + user.fbs().0,
        }
    }

    /// `user`'s best response to prices `lambda`:
    /// [`lagrangian::solve_user`]'s mode and winning share, bit for bit,
    /// and the index of the price the share loads.
    ///
    /// # Panics
    ///
    /// Panics if the winning share is outside `[0, 1]`, as
    /// [`crate::allocation::UserAllocation::mbs`] and `fbs` do.
    fn respond(&self, user: &UserState, lambda: &[f64]) -> (Mode, f64, usize) {
        let (w, ln_w) = (user.w(), user.ln_w());
        let (rho_mbs, value_mbs) =
            self.mbs
                .respond(user.success_mbs(), lambda[0], w, ln_w, user.r_mbs());
        let (rho_fbs, value_fbs) = self.fbs.respond(
            user.success_fbs(),
            lambda[self.price],
            w,
            ln_w,
            self.fbs_rate,
        );
        // Step 4: ties go to the FBS branch, as in `solve_user`.
        let (mode, rho, price) = if value_mbs > value_fbs {
            (Mode::Mbs, rho_mbs, 0)
        } else {
            (Mode::Fbs, rho_fbs, self.price)
        };
        assert!(
            (0.0..=1.0).contains(&rho),
            "time share must be in [0,1], got {rho}"
        );
        (mode, rho, price)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrangian::{best_share, branch_value_ln, value_given_log};
    use fcr_net::node::FbsId;
    use proptest::prelude::*;

    fn paper_problem() -> SlotProblem {
        SlotProblem::single_fbs(
            vec![
                UserState::new(30.2, FbsId(0), 0.72, 0.72, 0.9, 0.85).unwrap(),
                UserState::new(27.6, FbsId(0), 0.63, 0.63, 0.8, 0.9).unwrap(),
                UserState::new(28.8, FbsId(0), 0.675, 0.675, 0.85, 0.8).unwrap(),
            ],
            3.0,
        )
        .unwrap()
    }

    #[test]
    fn converges_and_is_feasible() {
        let p = paper_problem();
        let sol = DualSolver::new(DualConfig::default()).solve(&p);
        assert!(
            sol.converged(),
            "did not converge in {} iters",
            sol.iterations()
        );
        assert!(p.is_feasible(sol.allocation(), 1e-9));
        assert!(sol.objective().is_finite());
        assert_eq!(sol.lambda().len(), 2);
    }

    #[test]
    fn agrees_with_waterfilling_solver() {
        let p = paper_problem();
        let dual = DualSolver::new(DualConfig::default()).solve(&p);
        let wf = WaterfillingSolver::new().solve(&p);
        let gap = (p.objective(&wf) - dual.objective()).abs();
        assert!(
            gap < 1e-6,
            "dual {} vs waterfill {}",
            dual.objective(),
            p.objective(&wf)
        );
    }

    #[test]
    fn trace_records_every_iteration() {
        let p = paper_problem();
        let cfg = DualConfig {
            record_trace: true,
            max_iterations: 100,
            tolerance: -1.0, // never converge: run exactly 100 iterations
            ..DualConfig::default()
        };
        let sol = DualSolver::new(cfg).solve(&p);
        assert_eq!(sol.iterations(), 100);
        assert!(!sol.converged());
        assert_eq!(sol.trace().len(), 101, "initial point + one per iteration");
        assert!(sol.trace().iter().all(|l| l.len() == 2));
    }

    #[test]
    fn trace_is_empty_by_default() {
        let sol = DualSolver::new(DualConfig::default()).solve(&paper_problem());
        assert!(sol.trace().is_empty());
    }

    #[test]
    fn prices_stay_nonnegative() {
        let p = paper_problem();
        let cfg = DualConfig {
            record_trace: true,
            step: StepSchedule::Constant(0.05), // aggressive on purpose
            max_iterations: 500,
            ..DualConfig::default()
        };
        let sol = DualSolver::new(cfg).solve(&p);
        for l in sol.trace() {
            assert!(l.iter().all(|x| *x >= 0.0), "negative price in {l:?}");
        }
    }

    #[test]
    fn binding_constraint_load_converges_to_one() {
        // All users strongly prefer the FBS; at the optimum the FBS
        // budget binds, so 1 − Σρ → 0 and λ_1 stabilizes above zero.
        let p = paper_problem();
        let sol = DualSolver::new(DualConfig::default()).solve(&p);
        let fbs_load = sol.allocation().fbs_load(FbsId(0), &p.fbs_of());
        assert!((fbs_load - 1.0).abs() < 1e-6, "fbs load {fbs_load}");
        assert!(sol.lambda()[1] > 0.0);
    }

    #[test]
    fn multi_fbs_case_table2() {
        // Two non-interfering FBSs, two users each, plus one MBS-only
        // leaning user: Table II with three prices.
        let users = vec![
            UserState::new(30.0, FbsId(0), 0.72, 0.72, 0.3, 0.9).unwrap(),
            UserState::new(29.0, FbsId(0), 0.72, 0.72, 0.3, 0.9).unwrap(),
            UserState::new(28.0, FbsId(1), 0.72, 0.72, 0.3, 0.9).unwrap(),
            UserState::new(31.0, FbsId(1), 0.72, 0.72, 0.95, 0.1).unwrap(),
        ];
        let p = SlotProblem::new(users, vec![3.0, 3.0]).unwrap();
        let sol = DualSolver::new(DualConfig::default()).solve(&p);
        assert!(p.is_feasible(sol.allocation(), 1e-9));
        assert_eq!(sol.lambda().len(), 3);
        // The high-MBS-success user ends on the MBS.
        assert_eq!(sol.allocation().user(3).mode, Mode::Mbs);
        // Cross-check with the fast solver.
        let wf = WaterfillingSolver::new().solve(&p);
        assert!((p.objective(&wf) - sol.objective()).abs() < 1e-6);
    }

    #[test]
    fn constant_step_also_converges_to_the_same_value() {
        let p = paper_problem();
        let cfg = DualConfig {
            step: StepSchedule::Constant(5e-4),
            max_iterations: 20_000,
            ..DualConfig::default()
        };
        let sol = DualSolver::new(cfg).solve(&p);
        let wf = WaterfillingSolver::new().solve(&p);
        assert!((sol.objective() - p.objective(&wf)).abs() < 1e-5);
    }

    #[test]
    fn warm_start_collapses_iterations_on_an_unchanged_problem() {
        let p = paper_problem();
        let solver = DualSolver::new(DualConfig::default());
        let mut state = SolverState::new();
        let cold = solver.solve_with_state(&p, &mut state);
        assert!(cold.converged());
        let warm = solver.solve_with_state(&p, &mut state);
        assert!(warm.converged());
        assert!(
            warm.iterations() * 10 <= cold.iterations(),
            "warm {} vs cold {} iterations: no collapse",
            warm.iterations(),
            cold.iterations()
        );
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
        assert_eq!((state.warm_solves(), state.cold_solves()), (1, 1));
    }

    #[test]
    fn warm_start_matches_cold_start_on_a_perturbed_problem() {
        let p = paper_problem();
        let solver = DualSolver::new(DualConfig::default());
        let mut state = SolverState::new();
        solver.solve_with_state(&p, &mut state);

        // Perturb the channel state a little (fresh utility weights).
        let perturbed = SlotProblem::single_fbs(
            vec![
                UserState::new(30.5, FbsId(0), 0.72, 0.72, 0.9, 0.85).unwrap(),
                UserState::new(27.3, FbsId(0), 0.63, 0.63, 0.8, 0.9).unwrap(),
                UserState::new(29.1, FbsId(0), 0.675, 0.675, 0.85, 0.8).unwrap(),
            ],
            3.0,
        )
        .unwrap();
        let warm = solver.solve_with_state(&perturbed, &mut state);
        let cold = solver.solve(&perturbed);
        assert!(warm.converged() && cold.converged());
        assert!(
            (warm.objective() - cold.objective()).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
        assert!(warm.iterations() <= cold.iterations());
    }

    #[test]
    fn dimension_mismatch_falls_back_to_cold() {
        let solver = DualSolver::new(DualConfig::default());
        let mut state = SolverState::new();
        state.absorb(&[0.1, 0.2, 0.3, 0.4], 500); // wrong dimension for N=1
        let p = paper_problem();
        let via_state = solver.solve_with_state(&p, &mut state);
        let cold = solver.solve(&p);
        assert_eq!(via_state.iterations(), cold.iterations());
        assert_eq!(via_state.lambda(), cold.lambda());
        assert_eq!((state.warm_solves(), state.cold_solves()), (0, 1));
        // The state now carries the right dimension for next time.
        assert_eq!(state.lambda(), Some(cold.lambda()));
    }

    #[test]
    fn solve_with_empty_state_is_bit_identical_to_solve() {
        let p = paper_problem();
        let solver = DualSolver::new(DualConfig::default());
        let mut state = SolverState::new();
        let via_state = solver.solve_with_state(&p, &mut state);
        let plain = solver.solve(&p);
        assert_eq!(via_state, plain, "cold path must not change results");
    }

    /// The loop before its per-solve values were hoisted: every user's
    /// best response from [`lagrangian::solve_user`], every iteration.
    /// Kept only as the bit-identity oracle.
    fn unhoisted(
        solver: &DualSolver,
        problem: &SlotProblem,
        initial: &[f64],
        tau0: usize,
    ) -> DualSolution {
        solver.iterate(problem, initial, tau0, |lambda, modes, loads| {
            for (j, u) in problem.users().iter().enumerate() {
                let sol =
                    lagrangian::solve_user(u, problem.g(u.fbs()), lambda[0], lambda[1 + u.fbs().0]);
                modes[j] = sol.allocation.mode;
                match sol.allocation.mode {
                    Mode::Mbs => loads[0] += sol.allocation.rho_mbs,
                    Mode::Fbs => loads[1 + u.fbs().0] += sol.allocation.rho_fbs,
                }
            }
        })
    }

    /// Every field of `solution`, its floats as bits.
    fn bits(solution: &DualSolution) -> impl PartialEq + std::fmt::Debug {
        let floats = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let users = solution.allocation().users().iter();
        (
            floats(solution.lambda()),
            (solution.iterations(), solution.final_tau()),
            (solution.converged(), solution.objective().to_bits()),
            users
                .map(|a| (a.mode, a.rho_mbs.to_bits(), a.rho_fbs.to_bits()))
                .collect::<Vec<_>>(),
            solution
                .trace()
                .iter()
                .map(|l| floats(l))
                .collect::<Vec<_>>(),
        )
    }

    /// A success probability or rate that is sometimes exactly zero.
    fn zero_or(range: std::ops::RangeInclusive<f64>) -> impl Strategy<Value = f64> {
        (0..4u8, range).prop_map(|(k, v)| if k == 0 { 0.0 } else { v })
    }

    /// Up to 8 users on up to 4 FBSs. `w` spans 1e-9 to 1e3, successes
    /// and rates are sometimes 0, and one FBS rate in four is
    /// `f64::MAX`, which is `+∞` once multiplied by a channel count of 2
    /// or 3. Channel counts include 0.
    fn arb_slot() -> impl Strategy<Value = SlotProblem> {
        let user = (
            -9.0..3.0f64,
            0..4usize,
            zero_or(0.1..=1.0),
            (0..4u8, zero_or(0.1..=1.0)),
            zero_or(0.05..=1.0),
            zero_or(0.05..=1.0),
        );
        (
            proptest::collection::vec(user, 1..=8),
            proptest::collection::vec(0..5usize, 1..=4),
        )
            .prop_map(|(users, g)| {
                let g: Vec<f64> = g.iter().map(|&k| [0.0, 0.5, 1.0, 2.0, 3.0][k]).collect();
                let users = users
                    .into_iter()
                    .map(|(e, fbs, r0, (k, r1), s0, s1)| {
                        let r1 = if k == 0 { f64::MAX } else { r1 };
                        let fbs = FbsId(fbs % g.len());
                        UserState::new(10f64.powf(e), fbs, r0, r1, s0, s1).unwrap()
                    })
                    .collect();
                SlotProblem::new(users, g).unwrap()
            })
    }

    /// Constant steps large enough to project prices to 0 and a small
    /// one, and two diminishing schedules.
    const STEPS: [StepSchedule; 4] = [
        StepSchedule::Constant(0.5),
        StepSchedule::Constant(5e-3),
        StepSchedule::Diminishing {
            initial: 2e-3,
            decay: 200.0,
        },
        StepSchedule::Diminishing {
            initial: 1.0,
            decay: 4.0,
        },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The hoisted loop returns the per-user oracle's bits on whole
        /// solutions, cold and warm: prices, iteration counts, schedule
        /// position, allocation, objective and trace. Runs are short,
        /// start at prices of 0 and above, and some stop on the
        /// tolerance (`stops`) while others never do.
        #[test]
        fn the_hoisted_loop_is_bit_identical_to_the_per_user_oracle(
            p in arb_slot(),
            (step, max_iterations, stops, initial) in (0..4usize, 1..=120usize, 0..2usize, 0..3usize),
            record_trace in proptest::bool::ANY,
            (warm, tau) in (proptest::collection::vec(0..4usize, 5), 0..300usize),
        ) {
            let config = DualConfig {
                step: STEPS[step],
                max_iterations,
                tolerance: [-1.0, 1e-8][stops],
                initial_lambda: [0.0, 0.1, 2.0][initial],
                record_trace,
            };
            let solver = DualSolver::new(config);
            let n_prices = p.num_fbss() + 1;
            let cold = unhoisted(&solver, &p, &vec![config.initial_lambda; n_prices], 0);
            prop_assert_eq!(bits(&solver.solve(&p)), bits(&cold));

            let warm: Vec<f64> = warm[..n_prices].iter().map(|&k| [0.0, 1e-3, 0.05, 3.0][k]).collect();
            let mut state = SolverState::new();
            state.absorb(&warm, tau);
            let got = solver.solve_with_state(&p, &mut state);
            let want = unhoisted(&solver, &p, &warm, tau.min(max_iterations));
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// Each branch's (share, value) and the winning share equal
    /// `solve_user`'s bit for bit: shares of 0 and of 1 (at a small and
    /// at a zero price), interior shares (one just below 1), idle
    /// branches (no success, no rate, no channel), and an infinite rate
    /// at a full, an interior and a zero share, whose value is NaN. The
    /// log is also `ln(w + ρ·rate)`'s bits at shares of ±0, 1, just
    /// below 1 and inside.
    #[test]
    fn the_record_responds_as_solve_user_does() {
        let interior = 0.9 / (30.0 / 0.72 + 0.5);
        let near_one = 0.9 / (30.0 / 0.72 + 1.0 - 1e-12);
        // (r_fbs, s_fbs, G, λ, the kinds of the MBS and FBS shares:
        // 0, 1, or 2 for interior)
        let cases = [
            (0.72, 0.85, 3.0, [10.0, 10.0], (0, 0)),
            (0.72, 0.85, 3.0, [1e-3, 1e-3], (1, 1)),
            (0.72, 0.85, 3.0, [0.0, 0.0], (1, 1)),
            (0.72, 0.85, 3.0, [interior, 10.0], (2, 0)),
            (0.72, 0.85, 3.0, [near_one, 10.0], (2, 0)),
            (0.72, 0.0, 3.0, [10.0, 1e-3], (0, 0)),
            (0.0, 0.85, 3.0, [10.0, 1e-3], (0, 0)),
            (0.72, 0.85, 0.0, [10.0, 1e-3], (0, 0)),
            (f64::MAX, 0.85, 2.0, [10.0, 0.5], (0, 1)),
            (f64::MAX, 0.85, 2.0, [10.0, 2.0], (0, 2)),
            (f64::MAX, 0.0, 2.0, [10.0, 0.5], (0, 0)),
        ];
        let kind = |rho: f64| {
            if rho == 0.0 || rho == 1.0 {
                rho as u8
            } else {
                2
            }
        };
        for (r_fbs, s_fbs, g, lambda, kinds) in cases {
            let user = UserState::new(30.0, FbsId(0), 0.72, r_fbs, 0.9, s_fbs).unwrap();
            let record = Record::new(&user, g);
            let sol = lagrangian::solve_user(&user, g, lambda[0], lambda[1]);
            let (w, ln_w, rate) = (user.w(), user.ln_w(), g * user.r_fbs());
            let (s0, s1, r0) = (user.success_mbs(), user.success_fbs(), user.r_mbs());
            let (rho_mbs, value_mbs) = record.mbs.respond(s0, lambda[0], w, ln_w, r0);
            let (rho_fbs, value_fbs) = record.fbs.respond(s1, lambda[1], w, ln_w, rate);
            let case = format!("r_fbs {r_fbs}, s_fbs {s_fbs}, G {g}, λ {lambda:?}");
            assert_eq!((kind(rho_mbs), kind(rho_fbs)), kinds, "{case}");
            assert_eq!(value_fbs.is_nan(), rate.is_infinite() && rho_fbs == 0.0);
            let bits = |rho: f64, value: f64| (rho.to_bits(), value.to_bits());
            let want_mbs = best_share(s0, lambda[0], w, r0);
            let want_fbs = best_share(s1, lambda[1], w, rate);
            assert_eq!(
                bits(rho_mbs, value_mbs),
                bits(want_mbs, sol.value_mbs),
                "{case}"
            );
            assert_eq!(
                bits(rho_fbs, value_fbs),
                bits(want_fbs, sol.value_fbs),
                "{case}"
            );
            let (mode, rho, price) = record.respond(&user, &lambda);
            assert_eq!(mode, sol.allocation.mode, "{case}");
            assert_eq!(rho.to_bits(), sol.allocation.rho().to_bits(), "{case}");
            assert_eq!(price, usize::from(mode == Mode::Fbs), "{case}");
        }
        // No price gives a share of −0, but its log is `ln w` too.
        let (s, lambda, w) = (0.85, 0.04, 30.0f64);
        for rate in [0.0, 2.16, f64::MAX * 2.0] {
            for rho in [0.0, -0.0, 1.0, 1.0 - f64::EPSILON, 0.37] {
                let log = Branch::new(w, rate).log(rho, w, w.ln(), rate);
                let got = value_given_log(s, lambda, w.ln(), log, rho);
                let want = branch_value_ln(s, lambda, w, w.ln(), rate, rho);
                assert_eq!(got.to_bits(), want.to_bits(), "ρ = {rho} on rate {rate}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn zero_step_panics() {
        let _ = StepSchedule::Constant(0.0).at(0);
    }

    #[test]
    fn diminishing_schedule_decreases() {
        let s = StepSchedule::Diminishing {
            initial: 1e-2,
            decay: 10.0,
        };
        assert!(s.at(0) > s.at(10));
        assert!((s.at(10) - 5e-3).abs() < 1e-12);
    }
}
