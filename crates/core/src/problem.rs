//! The per-slot allocation problem: data of problems (12) and (17).
//!
//! At the start of slot `t`, everything random about the slot has been
//! reduced to numbers: every user `j` carries its running quality
//! `W^{t−1}_j`, its per-slot increment constants
//! `R_{0,j} = β_j·B_0/T` and `R_{i,j} = β_j·B_1/T`, and its link
//! success probabilities `P̄^F_{0,j}(t)` and `P̄^F_{i,j}(t)`; every FBS
//! `i` carries its expected available channel count `G^t_i`. The solvers
//! in [`crate::dual`] and [`crate::waterfill`] consume this structure.

use crate::allocation::{Allocation, Mode, UserAllocation};
use crate::error::{check_nonnegative, check_positive, check_probability, CoreError};
use fcr_net::node::FbsId;

/// Per-user data of the slot problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserState {
    w: f64,
    /// `ln w`, computed once: every objective term and Lagrangian
    /// branch value reads it.
    ln_w: f64,
    fbs: FbsId,
    r_mbs: f64,
    r_fbs: f64,
    success_mbs: f64,
    success_fbs: f64,
}

impl UserState {
    /// Creates a user's slot data.
    ///
    /// * `w` — running quality `W^{t−1}_j` in dB (strictly positive: it
    ///   enters a logarithm; sessions start from `α_j > 0`);
    /// * `fbs` — the associated femtocell;
    /// * `r_mbs` — `R_{0,j}`, quality gained per full slot on the common
    ///   channel;
    /// * `r_fbs` — `R_{i,j}`, quality gained per full slot *per licensed
    ///   channel* at the FBS;
    /// * `success_mbs` / `success_fbs` — `P̄^F_{0,j}(t)` and
    ///   `P̄^F_{i,j}(t)`, this slot's delivery probabilities.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if `w` is not positive, a rate is
    /// negative, or a success probability is outside `[0, 1]`.
    pub fn new(
        w: f64,
        fbs: FbsId,
        r_mbs: f64,
        r_fbs: f64,
        success_mbs: f64,
        success_fbs: f64,
    ) -> Result<Self, CoreError> {
        let w = check_positive("w", w)?;
        Ok(Self {
            w,
            ln_w: w.ln(),
            fbs,
            r_mbs: check_nonnegative("r_mbs", r_mbs)?,
            r_fbs: check_nonnegative("r_fbs", r_fbs)?,
            success_mbs: check_probability("success_mbs", success_mbs)?,
            success_fbs: check_probability("success_fbs", success_fbs)?,
        })
    }

    /// Running quality `W^{t−1}_j` (dB).
    pub fn w(&self) -> f64 {
        self.w
    }

    /// `ln W^{t−1}_j`, the bits `self.w().ln()` returns.
    pub(crate) fn ln_w(&self) -> f64 {
        self.ln_w
    }

    /// Associated FBS.
    pub fn fbs(&self) -> FbsId {
        self.fbs
    }

    /// `R_{0,j}`: dB per full slot on the common channel.
    pub fn r_mbs(&self) -> f64 {
        self.r_mbs
    }

    /// `R_{i,j}`: dB per full slot per licensed channel.
    pub fn r_fbs(&self) -> f64 {
        self.r_fbs
    }

    /// `P̄^F_{0,j}(t)`: MBS-link delivery probability.
    pub fn success_mbs(&self) -> f64 {
        self.success_mbs
    }

    /// `P̄^F_{i,j}(t)`: FBS-link delivery probability.
    pub fn success_fbs(&self) -> f64 {
        self.success_fbs
    }

    /// The same slot data re-homed to `fbs` — used by the partitioner
    /// to re-index users into a cluster-local problem. No validation
    /// needed: every field was checked at construction.
    pub fn with_fbs(&self, fbs: FbsId) -> Self {
        Self { fbs, ..*self }
    }
}

/// One slot's allocation problem over `K` users and `N` FBSs.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProblem {
    users: Vec<UserState>,
    g: Vec<f64>,
}

impl SlotProblem {
    /// Builds a problem with per-FBS expected channel counts
    /// `g[i] = G^t_i`.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if there are no users, a user references
    /// an FBS outside `0..g.len()`, or a `g` entry is negative.
    pub fn new(users: Vec<UserState>, g: Vec<f64>) -> Result<Self, CoreError> {
        if users.is_empty() {
            return Err(CoreError::NoUsers);
        }
        for (i, gi) in g.iter().enumerate() {
            if !(*gi >= 0.0 && gi.is_finite()) {
                return Err(CoreError::Negative {
                    name: "g",
                    value: g[i],
                });
            }
        }
        for u in &users {
            if u.fbs.0 >= g.len() {
                return Err(CoreError::UnknownFbs {
                    fbs: u.fbs.0,
                    num_fbss: g.len(),
                });
            }
        }
        Ok(Self { users, g })
    }

    /// Convenience constructor for the single-FBS case of Section IV-A:
    /// all users associated with FBS 0, shared `G^t`.
    ///
    /// # Errors
    ///
    /// As [`SlotProblem::new`]; additionally rejects users not associated
    /// with FBS 0.
    pub fn single_fbs(users: Vec<UserState>, g: f64) -> Result<Self, CoreError> {
        for u in &users {
            if u.fbs != FbsId(0) {
                return Err(CoreError::UnknownFbs {
                    fbs: u.fbs.0,
                    num_fbss: 1,
                });
            }
        }
        Self::new(users, vec![check_nonnegative("g", g)?])
    }

    /// Number of users `K`.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of FBSs `N`.
    pub fn num_fbss(&self) -> usize {
        self.g.len()
    }

    /// All users in id order.
    pub fn users(&self) -> &[UserState] {
        &self.users
    }

    /// One user's data.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn user(&self, j: usize) -> &UserState {
        &self.users[j]
    }

    /// `G^t_i` for FBS `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn g(&self, i: FbsId) -> f64 {
        self.g[i.0]
    }

    /// All per-FBS channel counts.
    pub fn g_all(&self) -> &[f64] {
        &self.g
    }

    /// Returns a copy of the problem with different channel counts
    /// (used by the greedy allocator to evaluate `Q(c)` for candidate
    /// channel assignments).
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if `g` has the wrong length or negative
    /// entries.
    pub fn with_g(&self, g: Vec<f64>) -> Result<Self, CoreError> {
        if g.len() != self.g.len() {
            return Err(CoreError::UnknownFbs {
                fbs: g.len(),
                num_fbss: self.g.len(),
            });
        }
        Self::new(self.users.clone(), g)
    }

    /// The user→FBS association map, indexed by user id.
    pub fn fbs_of(&self) -> Vec<FbsId> {
        self.users.iter().map(|u| u.fbs).collect()
    }

    /// The user ids in `U_i`.
    pub fn users_of(&self, fbs: FbsId) -> Vec<usize> {
        self.users
            .iter()
            .enumerate()
            .filter(|(_, u)| u.fbs == fbs)
            .map(|(j, _)| j)
            .collect()
    }

    /// The effective FBS-side rate coefficient `G^t_i·R_{i,j}` for user
    /// `j` — the slope inside the FBS-mode logarithm.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn fbs_rate(&self, j: usize) -> f64 {
        let u = &self.users[j];
        self.g[u.fbs.0] * u.r_fbs
    }

    /// One user's contribution to objective (12)/(21) under the given
    /// allocation: the conditional expectation
    /// `E[log W^t] = P̄^F·log(W + ρ·c) + (1 − P̄^F)·log(W)`.
    ///
    /// The paper's printed objective drops the loss branch
    /// `(1 − P̄^F)·log(W)`; we restore it because without it a
    /// zero-throughput branch scores `P̄^F·log(W)` — making the mode
    /// choice depend on success probabilities even when no data can
    /// flow. The closed-form share of Table I step 3 is unchanged (the
    /// extra term has zero ρ-derivative), the objective stays concave,
    /// and Theorem 1's binariness argument carries over (the objective
    /// remains linear in `(p, q)`). See DESIGN.md §7.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn user_objective(&self, j: usize, alloc: &Allocation) -> f64 {
        self.entry_objective(j, alloc.user(j))
    }

    /// [`Self::user_objective`] of one entry: user `j`'s term when it is
    /// allocated `a`, whatever the other users hold.
    fn entry_objective(&self, j: usize, a: UserAllocation) -> f64 {
        let u = &self.users[j];
        match a.mode {
            Mode::Mbs => objective_term(u.success_mbs, u.w, u.ln_w, u.r_mbs, a.rho_mbs),
            Mode::Fbs => objective_term(u.success_fbs, u.w, u.ln_w, self.fbs_rate(j), a.rho_fbs),
        }
    }

    /// The full objective `Σ_j` of [`Self::user_objective`] — the
    /// quantity every solver in this crate maximizes.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` covers a different number of users.
    pub fn objective(&self, alloc: &Allocation) -> f64 {
        assert_eq!(alloc.len(), self.users.len(), "allocation size mismatch");
        (0..self.users.len())
            .map(|j| self.user_objective(j, alloc))
            .sum()
    }

    /// Checks the budget constraints `Σ_j ρ_{0,j} ≤ 1` and
    /// `Σ_{j∈U_i} ρ_{i,j} ≤ 1` up to `tol`.
    pub fn is_feasible(&self, alloc: &Allocation, tol: f64) -> bool {
        if alloc.len() != self.users.len() {
            return false;
        }
        if alloc.mbs_load() > 1.0 + tol {
            return false;
        }
        let fbs_of = self.fbs_of();
        (0..self.g.len()).all(|i| alloc.fbs_load(FbsId(i), &fbs_of) <= 1.0 + tol)
    }
}

/// One user's objective term on the branch whose success probability
/// and rate are `success` and `rate`, at share `rho`:
/// `success·ln(w + rho·rate) + (1 − success)·ln(w)`, with `ln_w` the
/// user's `ln w`. Every objective in the crate folds these terms.
pub(crate) fn objective_term(success: f64, w: f64, ln_w: f64, rate: f64, rho: f64) -> f64 {
    success * (w + rho * rate).ln() + (1.0 - success) * ln_w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(w: f64, fbs: usize) -> UserState {
        UserState::new(w, FbsId(fbs), 0.72, 0.72, 0.9, 0.8).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(UserState::new(0.0, FbsId(0), 0.7, 0.7, 0.9, 0.8).is_err());
        assert!(UserState::new(30.0, FbsId(0), -0.1, 0.7, 0.9, 0.8).is_err());
        assert!(UserState::new(30.0, FbsId(0), 0.7, 0.7, 1.5, 0.8).is_err());
        assert_eq!(
            SlotProblem::new(vec![], vec![1.0]).unwrap_err(),
            CoreError::NoUsers
        );
        assert!(SlotProblem::new(vec![user(30.0, 2)], vec![1.0]).is_err());
        assert!(SlotProblem::new(vec![user(30.0, 0)], vec![-1.0]).is_err());
        assert!(SlotProblem::single_fbs(vec![user(30.0, 1)], 2.0).is_err());
    }

    #[test]
    fn accessors() {
        let p = SlotProblem::new(
            vec![user(30.0, 0), user(28.0, 1), user(29.0, 1)],
            vec![2.0, 3.0],
        )
        .unwrap();
        assert_eq!(p.num_users(), 3);
        assert_eq!(p.num_fbss(), 2);
        assert_eq!(p.g(FbsId(1)), 3.0);
        assert_eq!(p.g_all(), &[2.0, 3.0]);
        assert_eq!(p.users_of(FbsId(1)), vec![1, 2]);
        assert_eq!(p.fbs_of(), vec![FbsId(0), FbsId(1), FbsId(1)]);
        assert_eq!(p.user(0).w(), 30.0);
        assert_eq!(p.users().len(), 3);
        // fbs_rate = G_i · R_{i,j} = 3 · 0.72.
        assert!((p.fbs_rate(1) - 2.16).abs() < 1e-12);
    }

    #[test]
    fn with_g_swaps_channel_counts() {
        let p = SlotProblem::single_fbs(vec![user(30.0, 0)], 2.0).unwrap();
        let q = p.with_g(vec![5.0]).unwrap();
        assert_eq!(q.g(FbsId(0)), 5.0);
        assert!(p.with_g(vec![1.0, 2.0]).is_err());
        assert!(p.with_g(vec![-1.0]).is_err());
    }

    #[test]
    fn objective_matches_hand_computation() {
        let p = SlotProblem::single_fbs(vec![user(30.0, 0)], 2.0).unwrap();
        // MBS mode, ρ0 = 0.5: 0.9·ln(30 + 0.36) + 0.1·ln(30).
        let a = Allocation::new(vec![UserAllocation::mbs(0.5)]);
        let expected = 0.9 * (30.0_f64 + 0.36).ln() + 0.1 * 30.0_f64.ln();
        assert!((p.objective(&a) - expected).abs() < 1e-12);
        // FBS mode, ρ1 = 0.5: 0.8·ln(30 + 0.72) + 0.2·ln(30).
        let b = Allocation::new(vec![UserAllocation::fbs(0.5)]);
        let expected_b = 0.8 * (30.0_f64 + 0.72).ln() + 0.2 * 30.0_f64.ln();
        assert!((p.objective(&b) - expected_b).abs() < 1e-12);
    }

    #[test]
    fn zero_allocation_is_mode_independent() {
        // With the restored loss branch, a user that receives nothing is
        // worth ln(W) regardless of mode and success probabilities.
        let p = SlotProblem::single_fbs(vec![user(30.0, 0)], 2.0).unwrap();
        let idle_mbs = Allocation::new(vec![UserAllocation::mbs(0.0)]);
        let idle_fbs = Allocation::new(vec![UserAllocation::fbs(0.0)]);
        assert!((p.objective(&idle_mbs) - 30.0_f64.ln()).abs() < 1e-12);
        assert!((p.objective(&idle_mbs) - p.objective(&idle_fbs)).abs() < 1e-12);
    }

    #[test]
    fn objective_is_monotone_in_rho() {
        let p = SlotProblem::single_fbs(vec![user(30.0, 0)], 2.0).unwrap();
        let lo = p.objective(&Allocation::new(vec![UserAllocation::fbs(0.2)]));
        let hi = p.objective(&Allocation::new(vec![UserAllocation::fbs(0.8)]));
        assert!(hi > lo);
    }

    #[test]
    fn feasibility_checks_every_budget() {
        let p = SlotProblem::new(
            vec![user(30.0, 0), user(28.0, 0), user(29.0, 1)],
            vec![2.0, 3.0],
        )
        .unwrap();
        let good = Allocation::new(vec![
            UserAllocation::mbs(0.5),
            UserAllocation::fbs(1.0),
            UserAllocation::fbs(1.0),
        ]);
        assert!(p.is_feasible(&good, 1e-9));
        let bad_mbs = Allocation::new(vec![
            UserAllocation::mbs(0.6),
            UserAllocation::mbs(0.6),
            UserAllocation::fbs(0.5),
        ]);
        assert!(!p.is_feasible(&bad_mbs, 1e-9));
        let bad_fbs = Allocation::new(vec![
            UserAllocation::fbs(0.7),
            UserAllocation::fbs(0.7),
            UserAllocation::mbs(0.1),
        ]);
        assert!(!p.is_feasible(&bad_fbs, 1e-9));
        // Wrong size is infeasible, not a panic.
        assert!(!p.is_feasible(&Allocation::idle(2), 1e-9));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_problem() -> impl Strategy<Value = SlotProblem> {
            (
                proptest::collection::vec(
                    (
                        5.0..50.0f64,
                        0.0..2.0f64,
                        0.0..2.0f64,
                        0.0..=1.0f64,
                        0.0..=1.0f64,
                    ),
                    1..6,
                ),
                0.0..6.0f64,
            )
                .prop_map(|(users, g)| {
                    let users = users
                        .into_iter()
                        .map(|(w, r0, r1, s0, s1)| {
                            UserState::new(w, FbsId(0), r0, r1, s0, s1).unwrap()
                        })
                        .collect();
                    SlotProblem::single_fbs(users, g).unwrap()
                })
        }

        proptest! {
            #[test]
            fn objective_is_monotone_in_g(p in arb_problem(), extra in 0.0..4.0f64) {
                // More expected channels never hurt any fixed allocation.
                let alloc = Allocation::new(
                    (0..p.num_users()).map(|_| UserAllocation::fbs(1.0 / p.num_users() as f64)).collect(),
                );
                let base = p.objective(&alloc);
                let bigger = p.with_g(vec![p.g(FbsId(0)) + extra]).unwrap();
                prop_assert!(bigger.objective(&alloc) >= base - 1e-12);
            }

            #[test]
            fn objective_is_finite_for_feasible_allocations(
                p in arb_problem(),
                shares in proptest::collection::vec(0.0..=1.0f64, 1..6),
                modes in proptest::collection::vec(proptest::bool::ANY, 1..6),
            ) {
                let k = p.num_users();
                let total: f64 = shares.iter().take(k).sum();
                let users: Vec<UserAllocation> = (0..k)
                    .map(|j| {
                        let rho = shares[j % shares.len()] / total.max(1.0);
                        if modes[j % modes.len()] {
                            UserAllocation::mbs(rho)
                        } else {
                            UserAllocation::fbs(rho)
                        }
                    })
                    .collect();
                let alloc = Allocation::new(users);
                prop_assume!(p.is_feasible(&alloc, 1e-9));
                prop_assert!(p.objective(&alloc).is_finite());
            }

            #[test]
            fn idle_allocation_objective_is_log_sum_of_w(p in arb_problem()) {
                let idle = Allocation::idle(p.num_users());
                let expected: f64 = p.users().iter().map(|u| u.w().ln()).sum();
                prop_assert!((p.objective(&idle) - expected).abs() < 1e-9);
            }

            #[test]
            fn projection_always_restores_feasibility(
                p in arb_problem(),
                raw in proptest::collection::vec((0.0..=1.0f64, proptest::bool::ANY), 1..6),
            ) {
                let users: Vec<UserAllocation> = (0..p.num_users())
                    .map(|j| {
                        let (rho, mbs) = raw[j % raw.len()];
                        if mbs { UserAllocation::mbs(rho) } else { UserAllocation::fbs(rho) }
                    })
                    .collect();
                let mut alloc = Allocation::new(users);
                alloc.project_feasible(p.num_fbss(), &p.fbs_of());
                prop_assert!(p.is_feasible(&alloc, 1e-9));
            }
        }
    }

    #[test]
    fn zero_g_makes_fbs_side_worthless() {
        let p = SlotProblem::single_fbs(vec![user(30.0, 0)], 0.0).unwrap();
        let a = Allocation::new(vec![UserAllocation::fbs(1.0)]);
        // FBS term collapses to ln(W): no throughput, no gain.
        assert!((p.objective(&a) - 30.0_f64.ln()).abs() < 1e-12);
        assert_eq!(p.fbs_rate(0), 0.0);
    }
}
