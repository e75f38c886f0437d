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
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Parallel-array view of a [`SlotProblem`], built once per problem and
/// shared across the many fills of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaProblem {
    // Per-user fields, indexed by user id.
    w: Vec<f64>,
    ln_w: Vec<f64>,
    r_mbs: Vec<f64>,
    fbs_rate: Vec<f64>,
    s_mbs: Vec<f64>,
    s_fbs: Vec<f64>,
    fbs: Vec<usize>,
    // Per-FBS channel counts `G_i`.
    g: Vec<f64>,
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
            ln_w: Vec::with_capacity(n_users),
            r_mbs: Vec::with_capacity(n_users),
            fbs_rate: Vec::with_capacity(n_users),
            s_mbs: Vec::with_capacity(n_users),
            s_fbs: Vec::with_capacity(n_users),
            fbs: Vec::with_capacity(n_users),
            g: problem.g_all().to_vec(),
            fbs_user_offsets: vec![0; n_fbss + 1],
            fbs_user_ids: Vec::with_capacity(n_users),
        };
        for (j, u) in problem.users().iter().enumerate() {
            soa.w.push(u.w());
            soa.ln_w.push(u.ln_w());
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

    /// `ln W^{t−1}_j`, computed once per user.
    pub(crate) fn ln_w(&self, j: usize) -> f64 {
        self.ln_w[j]
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

    /// Channel count `G_i` of FBS `i`.
    pub(crate) fn g(&self, i: usize) -> f64 {
        self.g[i]
    }

    /// Users attached to FBS `i`, ascending user order.
    pub fn users_of(&self, i: usize) -> &[usize] {
        &self.fbs_user_ids[self.fbs_user_offsets[i]..self.fbs_user_offsets[i + 1]]
    }
}

/// One budget's fill as the polish keeps it: the water level, and what
/// its zero-share rule reads to prove that a move leaves the fill as it
/// is (DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Level {
    /// The water level `λ_b`: the bisection's final bracket ceiling, or
    /// 0 for a budget filled at `λ = 0`.
    pub(crate) lambda: f64,
    /// The bisection's final bracket floor: 0 when no step raised it
    /// or no bisection ran.
    pub(crate) floor: f64,
    /// The members that can benefit (`s > 0` and `c > 0`).
    pub(crate) effective: usize,
    /// The largest `s·c/w` over the effective members, and at least
    /// `f64::MIN_POSITIVE`: the bisection's ceiling before its headroom.
    pub(crate) largest: f64,
}

/// Reusable buffers for one budget-constraint fill: the gathered
/// `(user, success, w, rate)` columns, each member's `w / rate`
/// quotient, the breakpoints that estimate the level, and the share
/// output. One scratch serves a whole solve; nothing inside the
/// bisection loop allocates.
///
/// The scratch also tallies the work done through it (budget fills,
/// share sums evaluated, replayed fills, the budgets a polish refill
/// keeps, and the polish candidates refilled and ruled out); the solve
/// that uses it flushes the tallies to `fcr_telemetry` once, when it
/// returns.
///
/// A scratch from [`FillScratch::new`] fills every budget it is asked
/// to. The greedy allocator passes one scratch to every solve of a run,
/// and that scratch also caches the run's fills, replaying a fill it
/// has already made instead of bisecting again.
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
    /// `w / c`, saturated at `f64::MAX`, aligned with `idx`: the same
    /// quotient [`crate::lagrangian::best_share`] computes, done once
    /// per member instead of once per bisection step.
    pub(crate) q: Vec<f64>,
    /// Share output buffer, aligned with `idx`.
    pub shares: Vec<f64>,
    /// The effective members' breakpoints in `x = 1/λ`, each with its
    /// member and whether its share starts to rise or saturates there.
    breaks: Vec<(f64, usize, bool)>,
    /// Budgets filled through this scratch since the last flush.
    pub(crate) budget_fills: u64,
    /// Share sums a fill evaluated through this scratch since the last
    /// flush: its bisection steps that the certificates did not decide,
    /// and its certification probes. A replayed fill evaluates none.
    pub(crate) bisection_steps: u64,
    /// Fills replayed from `cache` since the last flush.
    pub(crate) fill_memo_hits: u64,
    /// Budgets a polish refill proved unchanged and did not fill, since
    /// the last flush.
    pub(crate) budgets_kept: u64,
    /// Polish candidates refilled through this scratch since the last
    /// flush.
    pub(crate) polish_refills: u64,
    /// Polish candidates the fill's prices ruled out without a refill
    /// since the last flush.
    pub(crate) polish_pruned: u64,
    /// The fills of the greedy run this scratch serves; `None` outside
    /// a greedy run.
    cache: Option<FillCache>,
}

impl FillScratch {
    /// An empty scratch; buffers grow to the largest constraint seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch that caches its fills. Every solve through it must be
    /// of the same users under the same solver, which holds within one
    /// `GreedyAllocator::allocate` call and nowhere wider.
    pub(crate) fn caching() -> Self {
        Self {
            cache: Some(FillCache::default()),
            ..Self::default()
        }
    }

    /// Clears the gather columns for a new constraint (capacity kept).
    pub fn clear(&mut self) {
        self.idx.clear();
        self.s.clear();
        self.w.clear();
        self.c.clear();
        self.q.clear();
        self.shares.clear();
    }

    /// Takes the `(success, w, rate)` columns of the members in `idx`
    /// from `member`.
    pub(crate) fn gather_columns(&mut self, member: impl Fn(usize) -> (f64, f64, f64)) {
        for &j in &self.idx {
            let (s, w, c) = member(j);
            self.s.push(s);
            self.w.push(w);
            self.c.push(c);
            self.q.push(crate::lagrangian::quotient(w, c));
        }
    }

    /// Member `k`'s share at water level `lambda`:
    /// [`crate::lagrangian::best_share`] at the member's gathered
    /// quotient, bit for bit.
    pub(crate) fn share(&self, k: usize, lambda: f64) -> f64 {
        crate::lagrangian::share_given_quotient(self.s[k], lambda, self.c[k], self.q[k])
    }

    /// `Σ_k share(k, λ)`, summed in member order — the left fold
    /// `shares.iter().sum()` takes, without writing the shares.
    pub(crate) fn share_sum(&self, lambda: f64) -> f64 {
        (0..self.len()).map(|k| self.share(k, lambda)).sum()
    }

    /// An estimate of the water level: the `λ` at which the exact share
    /// sum first exceeds 1 as `λ` falls, or `None` when the walk finds
    /// no finite positive one.
    ///
    /// In `x = 1/λ` an effective member's share is `clamp(s·x − q, 0,
    /// 1)`: 0 up to `x = q/s`, rising with slope `s`, and 1 from `x =
    /// (1 + q)/s` on. The sum is piecewise linear and non-decreasing,
    /// so one walk over the sorted breakpoints finds the segment where
    /// it passes 1 and solves for the crossing there. The walk targets
    /// the *strict* crossing: a stretch where the sum stays exactly 1
    /// (one member saturated, the others still at 0) is walked past,
    /// since the smallest level with a sum of at most 1 lies at its
    /// far end (DESIGN §15). Rounding makes this an estimate; the fill
    /// certifies it before use.
    pub(crate) fn level_estimate(&mut self) -> Option<f64> {
        self.breaks.clear();
        for k in 0..self.len() {
            let (s, q) = (self.s[k], self.q[k]);
            let (start, end) = (q / s, (1.0 + q) / s);
            // A member whose share would jump from 0 to 1 (`1 + q == q`)
            // only takes part at levels where `s/λ` passes 2^53; the
            // estimate leaves it out.
            if s > 0.0 && self.c[k] > 0.0 && start < end {
                self.breaks.push((start, k, true));
                self.breaks.push((end, k, false));
            }
        }
        // At a tie, saturations come first, so that the sum at each
        // breakpoint is read with no member mid-change there.
        self.breaks
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        // Between breakpoints the sum is `slope·x − offset + saturated`
        // over the `rising` members.
        let (mut slope, mut offset) = (0.0, 0.0);
        let (mut rising, mut saturated) = (0usize, 0usize);
        for &(x, k, rises) in &self.breaks {
            let left = (slope, offset, rising, saturated);
            if !rises {
                rising -= 1;
                saturated += 1;
                if rising == 0 {
                    // No member rises: the sum is flat, exactly.
                    (slope, offset) = (0.0, 0.0);
                } else {
                    slope -= self.s[k];
                    offset -= self.q[k];
                }
            }
            if slope * x - offset > 1.0 - saturated as f64 {
                // The sum passes 1 on the segment left of `x`.
                let (slope, offset, rising, saturated) = left;
                let level = slope / (1.0 - saturated as f64 + offset);
                return (rising > 0 && level.is_finite() && level > 0.0).then_some(level);
            }
            if rises {
                rising += 1;
                slope += self.s[k];
                offset += self.q[k];
            }
        }
        None
    }

    /// Writes every member's share at `lambda` to `shares`.
    pub(crate) fn set_shares(&mut self, lambda: f64) {
        self.shares.clear();
        for k in 0..self.len() {
            let share = self.share(k, lambda);
            self.shares.push(share);
        }
    }

    /// Runs `fill` over the members in `idx` of budget `budget` (0 for
    /// the MBS), whose rates scale with `g` (`None` for the MBS), and
    /// returns its level, leaving its shares in `shares`. The members'
    /// columns come from `member`. With a cache, a fill already made
    /// replays its level and shares instead, and a new one is stored.
    pub(crate) fn fill_once(
        &mut self,
        budget: usize,
        g: Option<f64>,
        member: impl Fn(usize) -> (f64, f64, f64),
        fill: impl FnOnce(&mut Self) -> Level,
    ) -> Level {
        if let Some(cache) = &mut self.cache {
            cache.key.clear();
            cache.key.push(budget as u64);
            cache.key.push(g.map_or(0, f64::to_bits));
            cache.key.extend(self.idx.iter().map(|&j| j as u64));
            if let Some(&(level, start)) = cache.fills.get(cache.key.as_slice()) {
                self.shares.clear();
                self.shares
                    .extend_from_slice(&cache.shares[start..start + self.idx.len()]);
                self.fill_memo_hits += 1;
                return level;
            }
        }
        self.gather_columns(member);
        let level = fill(self);
        if let Some(cache) = &mut self.cache {
            let start = cache.shares.len();
            cache.shares.extend_from_slice(&self.shares);
            cache
                .fills
                .insert(cache.key.as_slice().into(), (level, start));
        }
        level
    }

    /// Adds the work tallied since the last flush to the
    /// `waterfill.budget_fills`, `waterfill.bisection_steps`,
    /// `waterfill.fill_memo_hits`, `waterfill.budgets_kept`,
    /// `waterfill.polish_refills` and `waterfill.polish_pruned` counters
    /// and zeroes the tallies. With telemetry off this is one relaxed
    /// load per counter.
    pub(crate) fn flush_counters(&mut self) {
        fcr_telemetry::incr("waterfill.budget_fills", self.budget_fills);
        fcr_telemetry::incr("waterfill.bisection_steps", self.bisection_steps);
        fcr_telemetry::incr("waterfill.fill_memo_hits", self.fill_memo_hits);
        fcr_telemetry::incr("waterfill.budgets_kept", self.budgets_kept);
        fcr_telemetry::incr("waterfill.polish_refills", self.polish_refills);
        fcr_telemetry::incr("waterfill.polish_pruned", self.polish_pruned);
        self.budget_fills = 0;
        self.bisection_steps = 0;
        self.fill_memo_hits = 0;
        self.budgets_kept = 0;
        self.polish_refills = 0;
        self.polish_pruned = 0;
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

/// The fills of one greedy run, for replay.
///
/// Within a run the users and the solver are fixed. The MBS budget's
/// rates are then `R_{0,j}` and FBS `i`'s are `G_i·R_{i,j}`, so a fill
/// (its level and its shares) is a pure function of the budget, of `G_i`
/// for an FBS budget, and of the members it gathers, in order. A fill
/// is keyed on exactly those.
#[derive(Debug, Default, Clone)]
struct FillCache {
    /// `[budget, G_i bits (0 for the MBS), member ids…]` → the fill's
    /// level and where its shares start in `shares`.
    fills: HashMap<Box<[u64]>, (Level, usize), BuildHasherDefault<WordHasher>>,
    /// The shares of every fill, back to back.
    shares: Vec<f64>,
    /// The key of the fill being looked up, built in place.
    key: Vec<u64>,
}

/// The Fx multiply-rotate hash over 8-byte words. A greedy run probes
/// its cache once per budget fill, and a key is a handful of small
/// integers, for which SipHash is needlessly slow.
#[derive(Debug, Default, Clone, Copy)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // The map takes its bucket index from the low bits; the
        // multiply mixes best into the high ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // A `[u64]` key hands over its bytes in one piece, whole words.
        for word in bytes.chunks_exact(8) {
            self.write_u64(u64::from_ne_bytes(word.try_into().expect("8 bytes")));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
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
        scratch.idx.extend([3, 5]);
        scratch.gather_columns(|j| {
            if j == 3 {
                (0.9, 30.0, 0.72)
            } else {
                (0.0, 28.0, 0.70)
            }
        });
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch.s, vec![0.9, 0.0]);
        let cap = scratch.idx.capacity();
        scratch.clear();
        assert!(scratch.is_empty());
        assert!(scratch.idx.capacity() >= cap);
    }
}
