//! Cross-slot solver state: the warm-start handle for the dual loop.
//!
//! The subgradient loop of Tables I/II pays its iteration count every
//! slot, yet consecutive slots differ only by small channel-state
//! perturbations — the optimal prices λ move a little, not far. A
//! [`SolverState`] persists the final prices *and the step-schedule
//! position τ* of one solve, so the next slot's loop starts at them
//! instead of `DualConfig::initial_lambda` at τ = 0: when the channel
//! state barely changes, the step-11 criterion fires after a handful
//! of iterations instead of the full Table I/II count (the `fcr-bench`
//! solver area measures the collapse as `massive_warm_iteration_ratio`).
//!
//! Both halves are needed. When the optimum sits at a mode-switch kink
//! the subgradient does not vanish there, and a diminishing schedule
//! meets the step-11 criterion only once `s_τ` itself is small — so a
//! warm λ replayed at full initial step repays the entire schedule and
//! saves nothing. Resuming τ starts the loop at the step size the
//! previous slot already earned.
//!
//! Warm starting never changes what the loop converges *to*: the dual
//! problem is convex (Lemma 1), so the projected subgradient iteration
//! converges to the optimal prices from any nonnegative starting
//! point. It only changes how far the iterates travel. The testkit
//! property suite (`warm_start.rs`) holds warm and cold solves to
//! agreement within dual tolerance on perturbed channel states.

use crate::dual::DualSolution;

/// Persisted dual-solver state: the final prices
/// `[λ_0, λ_1, …, λ_N]` and step-schedule position τ of the most
/// recent solve, if any.
///
/// One handle tracks one price-vector lineage — keep a `SolverState`
/// per cell (or per partition cluster) and thread it through
/// consecutive slots. A solve against a problem with a different
/// number of FBSs silently falls back to a cold start (the stored
/// vector cannot be reused across dimensions) and then overwrites the
/// state with the new dimension's prices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverState {
    lambda: Option<Vec<f64>>,
    tau: usize,
    warm_solves: u64,
    cold_solves: u64,
}

impl SolverState {
    /// A fresh handle: the first solve through it is cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// The persisted prices, if a solve has been absorbed.
    pub fn lambda(&self) -> Option<&[f64]> {
        self.lambda.as_deref()
    }

    /// The warm-start vector for a problem with `n_prices` budgets
    /// (`N + 1`), or `None` when the state is empty or its dimension
    /// does not match.
    pub fn warm_start(&self, n_prices: usize) -> Option<&[f64]> {
        self.lambda.as_deref().filter(|l| l.len() == n_prices)
    }

    /// The persisted step-schedule position (0 when empty).
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// Absorbs the final prices and schedule position of a finished
    /// solve.
    pub fn absorb(&mut self, lambda: &[f64], tau: usize) {
        self.lambda = Some(lambda.to_vec());
        self.tau = tau;
    }

    /// Absorbs a [`DualSolution`] (convenience over [`Self::absorb`]).
    pub fn absorb_solution(&mut self, solution: &DualSolution) {
        self.absorb(solution.lambda(), solution.final_tau());
    }

    /// Forgets the persisted prices; the next solve is cold. Call on
    /// topology changes (FBS churn) or after long gaps where the
    /// stored prices stopped being informative.
    pub fn reset(&mut self) {
        self.lambda = None;
        self.tau = 0;
    }

    /// Solves performed through this handle that started warm.
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// Solves performed through this handle that started cold (empty
    /// state or dimension mismatch).
    pub fn cold_solves(&self) -> u64 {
        self.cold_solves
    }

    /// Internal bookkeeping used by `DualSolver::solve_with_state`.
    pub(crate) fn count_solve(&mut self, warm: bool) {
        if warm {
            self.warm_solves += 1;
        } else {
            self.cold_solves += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_state_is_cold() {
        let state = SolverState::new();
        assert_eq!(state.lambda(), None);
        assert_eq!(state.warm_start(3), None);
        assert_eq!((state.warm_solves(), state.cold_solves()), (0, 0));
    }

    #[test]
    fn absorb_then_warm_start_matches_dimensions_only() {
        let mut state = SolverState::new();
        state.absorb(&[0.1, 0.2, 0.3], 57);
        assert_eq!(state.warm_start(3), Some(&[0.1, 0.2, 0.3][..]));
        assert_eq!(state.tau(), 57);
        assert_eq!(state.warm_start(2), None, "dimension mismatch is cold");
        state.reset();
        assert_eq!(state.warm_start(3), None);
        assert_eq!(state.tau(), 0);
    }
}
