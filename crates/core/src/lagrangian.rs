//! The per-user Lagrangian subproblem — steps 3–8 of Tables I and II.
//!
//! Relaxing the two budget constraints of problem (12) with prices
//! `λ = [λ_0, λ_i]` decouples the problem across users (eq. (13)). For
//! fixed prices, each user solves
//!
//! ```text
//! max  p·P̄^F_0·log(W + ρ_0·R_0) + (1−p)·P̄^F_i·log(W + ρ_i·G·R_i)
//!      − λ_0·ρ_0 − λ_i·ρ_i
//! ```
//!
//! whose solution is closed-form: the stationarity condition gives
//!
//! ```text
//! ρ_0 = [ P̄^F_0/λ_0 − W/R_0 ]⁺           (Table I step 3)
//! ρ_i = [ P̄^F_i/λ_i − W/(G·R_i) ]⁺
//! ```
//!
//! and by Theorem 1 the optimal mode is binary: pick MBS iff the MBS-side
//! Lagrangian value exceeds the FBS-side one (step 4).
//!
//! Beyond the paper's listing, the shares are clamped to `[0, 1]`: a
//! user can never hold more than a whole slot, so the clamp never cuts
//! off the constrained optimum, but it keeps iterates finite when a
//! price passes through zero mid-iteration.

use crate::allocation::{Mode, UserAllocation};
use crate::problem::UserState;

/// Result of one user's subproblem at given prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubproblemSolution {
    /// The user's best response (mode + share), with the losing side's
    /// share zeroed per Table I steps 5/7.
    pub allocation: UserAllocation,
    /// Lagrangian value of the MBS branch at its best ρ.
    pub value_mbs: f64,
    /// Lagrangian value of the FBS branch at its best ρ.
    pub value_fbs: f64,
}

impl SubproblemSolution {
    /// The winning branch's Lagrangian value.
    pub fn value(&self) -> f64 {
        match self.allocation.mode {
            Mode::Mbs => self.value_mbs,
            Mode::Fbs => self.value_fbs,
        }
    }
}

/// The unconstrained maximizer `[success/λ − w/rate]⁺` clamped to one
/// slot, with the λ→0 and rate→0 limits handled explicitly.
pub fn best_share(success: f64, lambda: f64, w: f64, rate: f64) -> f64 {
    share_given_quotient(success, lambda, rate, quotient(w, rate))
}

/// [`best_share`] with its quotient given: the caller's `quotient` must
/// be `quotient(w, rate)`, which the dual loop computes once per solve
/// and a budget fill once per member, instead of once per price.
pub(crate) fn share_given_quotient(success: f64, lambda: f64, rate: f64, quotient: f64) -> f64 {
    if rate <= 0.0 || success <= 0.0 {
        // The branch's logarithm cannot grow: spend nothing.
        return 0.0;
    }
    if lambda <= 0.0 {
        // Free resource: take the whole slot.
        return 1.0;
    }
    (success / lambda - quotient).clamp(0.0, 1.0)
}

/// `w / rate`, saturated at the largest finite `f64`. The quotient
/// overflows only when `w + ρ·rate == w` for every `ρ ≤ 1`, and then a
/// `λ` small enough for `success/λ` to overflow too would make
/// `success/λ − w/rate` the NaN `∞ − ∞`; saturated, it is `+∞`, a share
/// of 1 at that price, and 0 at any price where `success/λ` is finite.
/// Every finite quotient keeps its bits.
pub(crate) fn quotient(w: f64, rate: f64) -> f64 {
    (w / rate).min(f64::MAX)
}

/// Lagrangian value of one branch at share `rho`: the conditional
/// expectation plus the price term,
/// `success·ln(w + rho·rate) + (1 − success)·ln(w) − lambda·rho`.
///
/// The `(1 − success)·ln(w)` loss branch is the term the paper's
/// printed listing omits; see
/// [`crate::problem::SlotProblem::user_objective`] for why it is
/// restored (it does not change the closed-form share, only the mode
/// comparison, which it makes throughput-aware).
pub fn branch_value(success: f64, lambda: f64, w: f64, rate: f64, rho: f64) -> f64 {
    branch_value_ln(success, lambda, w, w.ln(), rate, rho)
}

/// [`branch_value`] with `ln w` given: the caller's `ln_w` must be
/// `w.ln()`, computed once per user instead of once per evaluation.
pub(crate) fn branch_value_ln(
    success: f64,
    lambda: f64,
    w: f64,
    ln_w: f64,
    rate: f64,
    rho: f64,
) -> f64 {
    value_given_log(success, lambda, ln_w, (w + rho * rate).ln(), rho)
}

/// [`branch_value_ln`] with its log given: the caller's `log` must be
/// `(w + rho·rate).ln()`, which a caller that knows `rho` can often
/// take without a logarithm.
pub(crate) fn value_given_log(success: f64, lambda: f64, ln_w: f64, log: f64, rho: f64) -> f64 {
    success * log + (1.0 - success) * ln_w - lambda * rho
}

/// Solves the subproblem (14) for one user at prices
/// `(lambda_mbs, lambda_fbs)`, with `g` the user's FBS channel count
/// `G^t_i`.
pub fn solve_user(
    user: &UserState,
    g: f64,
    lambda_mbs: f64,
    lambda_fbs: f64,
) -> SubproblemSolution {
    respond(
        user.w(),
        user.ln_w(),
        (user.success_mbs(), user.r_mbs()),
        (user.success_fbs(), g * user.r_fbs()),
        lambda_mbs,
        lambda_fbs,
    )
}

/// [`solve_user`] for a user given as its `w`, its `ln w`, and each
/// branch's `(success, rate)`, the FBS rate already `G·R_{i,j}`.
pub(crate) fn respond(
    w: f64,
    ln_w: f64,
    (success_mbs, r_mbs): (f64, f64),
    (success_fbs, fbs_rate): (f64, f64),
    lambda_mbs: f64,
    lambda_fbs: f64,
) -> SubproblemSolution {
    let rho_mbs = best_share(success_mbs, lambda_mbs, w, r_mbs);
    let rho_fbs = best_share(success_fbs, lambda_fbs, w, fbs_rate);

    let value_mbs = branch_value_ln(success_mbs, lambda_mbs, w, ln_w, r_mbs, rho_mbs);
    let value_fbs = branch_value_ln(success_fbs, lambda_fbs, w, ln_w, fbs_rate, rho_fbs);

    // Step 4: strict comparison — ties go to the FBS branch (the
    // "otherwise" arm of Theorem 1).
    let allocation = if value_mbs > value_fbs {
        UserAllocation::mbs(rho_mbs)
    } else {
        UserAllocation::fbs(rho_fbs)
    };
    SubproblemSolution {
        allocation,
        value_mbs,
        value_fbs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcr_net::node::FbsId;
    use proptest::prelude::*;

    fn user() -> UserState {
        UserState::new(30.0, FbsId(0), 0.72, 0.72, 0.9, 0.8).unwrap()
    }

    #[test]
    fn best_share_matches_closed_form() {
        // success/λ − w/rate = 0.9/0.02 − 30/0.72 = 45 − 41.67 = 3.33 → clamp 1.
        assert_eq!(best_share(0.9, 0.02, 30.0, 0.72), 1.0);
        // Large λ drives the share to zero.
        assert_eq!(best_share(0.9, 10.0, 30.0, 0.72), 0.0);
        // Interior value: λ chosen so share lands strictly inside (0,1).
        let lambda = 0.9 / (30.0 / 0.72 + 0.5); // share = 0.5
        let rho = best_share(0.9, lambda, 30.0, 0.72);
        assert!((rho - 0.5).abs() < 1e-9);
    }

    #[test]
    fn best_share_limits() {
        assert_eq!(best_share(0.9, 0.0, 30.0, 0.72), 1.0, "free resource");
        assert_eq!(best_share(0.9, 0.5, 30.0, 0.0), 0.0, "zero rate");
        assert_eq!(best_share(0.0, 0.5, 30.0, 0.72), 0.0, "zero success");
    }

    #[test]
    fn stationarity_of_interior_share() {
        // At an interior optimum, d/dρ [s·ln(w+ρr) − λρ] = 0.
        let (s, w, r) = (0.85, 28.0, 1.5);
        // Interior requires λ ∈ (s/(w/r + 1), s/(w/r)) ≈ (0.0432, 0.0455).
        let lambda = 0.0443;
        let rho = best_share(s, lambda, w, r);
        assert!(
            rho > 0.0 && rho < 1.0,
            "test needs an interior point, got {rho}"
        );
        let derivative = s * r / (w + rho * r) - lambda;
        assert!(derivative.abs() < 1e-9, "derivative {derivative}");
    }

    #[test]
    fn interior_share_is_a_maximum() {
        let (s, w, r) = (0.85, 28.0, 1.5);
        let lambda = 0.0443; // interior (see stationarity test)
        let rho = best_share(s, lambda, w, r);
        let v = branch_value(s, lambda, w, r, rho);
        for d in [-0.05, -0.01, 0.01, 0.05] {
            let candidate = (rho + d).clamp(0.0, 1.0);
            assert!(branch_value(s, lambda, w, r, candidate) <= v + 1e-12);
        }
    }

    #[test]
    fn mode_follows_lagrangian_comparison() {
        // Equal success probabilities so the price/allocation term, not
        // the zero-rho baseline s·ln(W), decides the mode.
        let u = UserState::new(30.0, FbsId(0), 0.72, 0.72, 0.85, 0.85).unwrap();
        // Huge MBS price: FBS wins.
        let sol = solve_user(&u, 3.0, 10.0, 0.01);
        assert_eq!(sol.allocation.mode, Mode::Fbs);
        assert!(sol.value_fbs >= sol.value_mbs);
        assert_eq!(sol.allocation.rho_mbs, 0.0, "losing side zeroed (step 7)");
        // Huge FBS price: MBS wins.
        let sol2 = solve_user(&u, 3.0, 0.01, 10.0);
        assert_eq!(sol2.allocation.mode, Mode::Mbs);
        assert_eq!(sol2.allocation.rho_fbs, 0.0, "losing side zeroed (step 5)");
        assert_eq!(sol2.value(), sol2.value_mbs);
    }

    #[test]
    fn zero_g_forces_mbs_when_mbs_has_value() {
        let u = user();
        let sol = solve_user(&u, 0.0, 0.01, 0.01);
        // FBS branch value is 0.8·ln(30) with ρ=0; MBS branch strictly
        // better because it can actually buy quality.
        assert_eq!(sol.allocation.mode, Mode::Mbs);
        assert!(sol.allocation.rho_mbs > 0.0);
    }

    #[test]
    fn equal_branches_tie_to_fbs() {
        // Symmetric user: identical rates, successes, prices and G=1.
        let u = UserState::new(30.0, FbsId(0), 0.72, 0.72, 0.9, 0.9).unwrap();
        let sol = solve_user(&u, 1.0, 0.05, 0.05);
        assert!((sol.value_mbs - sol.value_fbs).abs() < 1e-12);
        assert_eq!(sol.allocation.mode, Mode::Fbs);
    }

    proptest! {
        #[test]
        fn shares_are_always_valid(
            w in 1.0..60.0f64,
            r0 in 0.0..5.0f64,
            r1 in 0.0..5.0f64,
            s0 in 0.0..=1.0f64,
            s1 in 0.0..=1.0f64,
            g in 0.0..8.0f64,
            l0 in 0.0..2.0f64,
            l1 in 0.0..2.0f64,
        ) {
            let u = UserState::new(w, FbsId(0), r0, r1, s0, s1).unwrap();
            let sol = solve_user(&u, g, l0, l1);
            let a = sol.allocation;
            prop_assert!((0.0..=1.0).contains(&a.rho_mbs));
            prop_assert!((0.0..=1.0).contains(&a.rho_fbs));
            // Exactly one side can be nonzero.
            prop_assert!(a.rho_mbs == 0.0 || a.rho_fbs == 0.0);
            prop_assert!(sol.value().is_finite());
        }

        #[test]
        fn winning_branch_dominates(
            w in 1.0..60.0f64,
            g in 0.0..8.0f64,
            l0 in 0.001..2.0f64,
            l1 in 0.001..2.0f64,
        ) {
            let u = user();
            let _ = w;
            let sol = solve_user(&u, g, l0, l1);
            prop_assert!(sol.value() >= sol.value_mbs - 1e-12);
            prop_assert!(sol.value() >= sol.value_fbs - 1e-12);
        }

        #[test]
        fn best_share_is_optimal_on_a_grid(
            w in 1.0..60.0f64,
            rate in 0.01..5.0f64,
            s in 0.01..=1.0f64,
            lambda in 0.0001..2.0f64,
        ) {
            let rho = best_share(s, lambda, w, rate);
            let v = branch_value(s, lambda, w, rate, rho);
            for k in 0..=100 {
                let candidate = k as f64 / 100.0;
                prop_assert!(
                    branch_value(s, lambda, w, rate, candidate) <= v + 1e-9,
                    "grid point {candidate} beats closed form {rho}"
                );
            }
        }
    }
}
