//! Struct-of-arrays problem layout for the waterfill hot path.
//!
//! [`crate::problem::SlotProblem`] stores users as an array of structs,
//! which is the right shape for validation and accessors but the wrong
//! shape for the inner loop of the greedy channel allocator: one
//! `Q(c)` evaluation runs dozens of exact fills, each fill walks every
//! user once per budget constraint to gather `(success, w, rate)`
//! triples — `O(n·N)` pointer-chasing per fill — and the bisection
//! allocates a fresh shares vector per iteration.
//!
//! [`SoaProblem`] flattens the per-user fields into parallel arrays and
//! groups users by FBS in CSR form (offsets + ids, ascending user order
//! within each group), so a fill gathers each budget's users with one
//! contiguous sweep — `O(n)` total across all constraints — and
//! [`FillScratch`] makes every buffer of the bisection reusable across
//! fills.
//!
//! The layout changes *where the numbers live*, never *what arithmetic
//! runs on them*: `fcr_core::waterfill` performs the exact same
//! floating-point operations in the exact same order through this view
//! as through the array-of-structs path, so results are bit-identical
//! and the committed golden traces do not move. The conformance tests
//! assert the bit-identity directly.

use crate::problem::SlotProblem;
use fcr_net::node::FbsId;

/// Parallel-array view of a [`SlotProblem`], built once per problem and
/// shared across the many fills of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaProblem {
    // Per-user fields, indexed by user id.
    w: Vec<f64>,
    r_mbs: Vec<f64>,
    fbs_rate: Vec<f64>,
    s_mbs: Vec<f64>,
    s_fbs: Vec<f64>,
    fbs: Vec<usize>,
    // CSR users-per-FBS: users of FBS i are
    // `fbs_user_ids[fbs_user_offsets[i]..fbs_user_offsets[i + 1]]`,
    // in ascending user order.
    fbs_user_offsets: Vec<usize>,
    fbs_user_ids: Vec<usize>,
}

impl SoaProblem {
    /// Flattens `problem` into parallel arrays.
    pub fn from_problem(problem: &SlotProblem) -> Self {
        let n_users = problem.num_users();
        let n_fbss = problem.num_fbss();
        let mut soa = Self {
            w: Vec::with_capacity(n_users),
            r_mbs: Vec::with_capacity(n_users),
            fbs_rate: Vec::with_capacity(n_users),
            s_mbs: Vec::with_capacity(n_users),
            s_fbs: Vec::with_capacity(n_users),
            fbs: Vec::with_capacity(n_users),
            fbs_user_offsets: vec![0; n_fbss + 1],
            fbs_user_ids: Vec::with_capacity(n_users),
        };
        for (j, u) in problem.users().iter().enumerate() {
            soa.w.push(u.w());
            soa.r_mbs.push(u.r_mbs());
            soa.fbs_rate.push(problem.fbs_rate(j));
            soa.s_mbs.push(u.success_mbs());
            soa.s_fbs.push(u.success_fbs());
            soa.fbs.push(u.fbs().0);
        }
        // Counting sort into CSR: two sweeps, stable, so each FBS's
        // users come out in ascending user order — the same order the
        // array-of-structs filter visits them.
        for f in &soa.fbs {
            soa.fbs_user_offsets[f + 1] += 1;
        }
        for i in 0..n_fbss {
            soa.fbs_user_offsets[i + 1] += soa.fbs_user_offsets[i];
        }
        let mut cursor = soa.fbs_user_offsets.clone();
        soa.fbs_user_ids.resize(n_users, 0);
        for (j, f) in soa.fbs.iter().enumerate() {
            soa.fbs_user_ids[cursor[*f]] = j;
            cursor[*f] += 1;
        }
        soa
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.w.len()
    }

    /// Number of FBSs.
    pub fn num_fbss(&self) -> usize {
        self.fbs_user_offsets.len() - 1
    }

    /// Utility weight `W^{t−1}_j` of user `j`.
    pub fn w(&self, j: usize) -> f64 {
        self.w[j]
    }

    /// MBS rate `R_{0,j}` of user `j`.
    pub fn r_mbs(&self, j: usize) -> f64 {
        self.r_mbs[j]
    }

    /// Effective FBS rate `G_i·R_{i,j}` of user `j`.
    pub fn fbs_rate(&self, j: usize) -> f64 {
        self.fbs_rate[j]
    }

    /// MBS success probability of user `j`.
    pub fn s_mbs(&self, j: usize) -> f64 {
        self.s_mbs[j]
    }

    /// FBS success probability of user `j`.
    pub fn s_fbs(&self, j: usize) -> f64 {
        self.s_fbs[j]
    }

    /// The FBS serving user `j`.
    pub fn fbs(&self, j: usize) -> FbsId {
        FbsId(self.fbs[j])
    }

    /// Users attached to FBS `i`, ascending user order.
    pub fn users_of(&self, i: usize) -> &[usize] {
        &self.fbs_user_ids[self.fbs_user_offsets[i]..self.fbs_user_offsets[i + 1]]
    }
}

/// Reusable buffers for one budget-constraint fill: the gathered
/// `(user, success, w, rate)` columns, each member's `w / rate`
/// quotient, the effectiveness mask, and the share output. One scratch
/// serves a whole solve; nothing inside the bisection loop allocates.
///
/// The scratch also tallies the work done through it (budget fills and
/// bisection steps); the entry point that owns it flushes the tallies
/// to `fcr_telemetry` once, when it returns.
#[derive(Debug, Default, Clone)]
pub struct FillScratch {
    /// User ids of the constraint's members, ascending.
    pub idx: Vec<usize>,
    /// Success probabilities, aligned with `idx`.
    pub s: Vec<f64>,
    /// Utility weights, aligned with `idx`.
    pub w: Vec<f64>,
    /// Rates, aligned with `idx`.
    pub c: Vec<f64>,
    /// `w / c`, aligned with `idx`: the same IEEE division
    /// [`crate::lagrangian::best_share`] performs, done once per member
    /// instead of once per bisection step.
    pub(crate) q: Vec<f64>,
    /// `s > 0 && c > 0` mask, aligned with `idx`.
    pub effective: Vec<bool>,
    /// Share output buffer, aligned with `idx`.
    pub shares: Vec<f64>,
    /// Budgets filled through this scratch since the last flush.
    pub(crate) budget_fills: u64,
    /// Bisection steps run through this scratch since the last flush.
    pub(crate) bisection_steps: u64,
}

impl FillScratch {
    /// An empty scratch; buffers grow to the largest constraint seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the gather columns for a new constraint (capacity kept).
    pub fn clear(&mut self) {
        self.idx.clear();
        self.s.clear();
        self.w.clear();
        self.c.clear();
        self.q.clear();
        self.effective.clear();
        self.shares.clear();
    }

    /// Appends one constraint member.
    pub fn push(&mut self, j: usize, s: f64, w: f64, c: f64) {
        self.idx.push(j);
        self.s.push(s);
        self.w.push(w);
        self.c.push(c);
        self.q.push(w / c);
        self.effective.push(s > 0.0 && c > 0.0);
    }

    /// Member `k`'s share at water level `lambda`: `[s/λ − w/c]` clamped
    /// to `[0, 1]`, 1 at a free budget (`λ ≤ 0`) and 0 for a member that
    /// cannot benefit — [`crate::lagrangian::best_share`], bit for bit.
    pub(crate) fn share(&self, k: usize, lambda: f64) -> f64 {
        if !self.effective[k] {
            0.0
        } else if lambda <= 0.0 {
            1.0
        } else {
            (self.s[k] / lambda - self.q[k]).clamp(0.0, 1.0)
        }
    }

    /// `Σ_k share(k, λ)`, summed in member order — the left fold
    /// `shares.iter().sum()` takes, without writing the shares.
    pub(crate) fn share_sum(&self, lambda: f64) -> f64 {
        (0..self.len()).map(|k| self.share(k, lambda)).sum()
    }

    /// Writes every member's share at `lambda` to `shares`.
    pub(crate) fn set_shares(&mut self, lambda: f64) {
        self.shares.clear();
        for k in 0..self.len() {
            let share = self.share(k, lambda);
            self.shares.push(share);
        }
    }

    /// Adds the work tallied since the last flush to the
    /// `waterfill.budget_fills` and `waterfill.bisection_steps`
    /// counters and zeroes the tallies. With telemetry off this is one
    /// relaxed load per counter.
    pub(crate) fn flush_counters(&mut self) {
        fcr_telemetry::incr("waterfill.budget_fills", self.budget_fills);
        fcr_telemetry::incr("waterfill.bisection_steps", self.bisection_steps);
        self.budget_fills = 0;
        self.bisection_steps = 0;
    }

    /// Members gathered for the current constraint.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// `true` when no members are gathered.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::UserState;

    fn two_fbs_problem() -> SlotProblem {
        SlotProblem::new(
            vec![
                UserState::new(30.0, FbsId(1), 0.72, 0.70, 0.3, 0.9).unwrap(),
                UserState::new(29.0, FbsId(0), 0.71, 0.69, 0.4, 0.8).unwrap(),
                UserState::new(28.0, FbsId(1), 0.70, 0.68, 0.5, 0.7).unwrap(),
                UserState::new(27.0, FbsId(0), 0.69, 0.67, 0.6, 0.6).unwrap(),
            ],
            vec![3.0, 2.0],
        )
        .unwrap()
    }

    #[test]
    fn soa_mirrors_the_aos_fields() {
        let p = two_fbs_problem();
        let soa = SoaProblem::from_problem(&p);
        assert_eq!(soa.num_users(), 4);
        assert_eq!(soa.num_fbss(), 2);
        for (j, u) in p.users().iter().enumerate() {
            assert_eq!(soa.w(j).to_bits(), u.w().to_bits());
            assert_eq!(soa.r_mbs(j).to_bits(), u.r_mbs().to_bits());
            assert_eq!(soa.fbs_rate(j).to_bits(), p.fbs_rate(j).to_bits());
            assert_eq!(soa.s_mbs(j).to_bits(), u.success_mbs().to_bits());
            assert_eq!(soa.s_fbs(j).to_bits(), u.success_fbs().to_bits());
            assert_eq!(soa.fbs(j), u.fbs());
        }
    }

    #[test]
    fn csr_groups_are_ascending_and_complete() {
        let p = two_fbs_problem();
        let soa = SoaProblem::from_problem(&p);
        assert_eq!(soa.users_of(0), &[1, 3]);
        assert_eq!(soa.users_of(1), &[0, 2]);
    }

    #[test]
    fn scratch_reuse_clears_but_keeps_capacity() {
        let mut scratch = FillScratch::new();
        scratch.push(3, 0.9, 30.0, 0.72);
        scratch.push(5, 0.0, 28.0, 0.70);
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch.effective, vec![true, false]);
        let cap = scratch.idx.capacity();
        scratch.clear();
        assert!(scratch.is_empty());
        assert!(scratch.idx.capacity() >= cap);
    }
}
