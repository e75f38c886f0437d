//! The greedy channel-allocation algorithm of Table III.
//!
//! Starting from the empty assignment, each iteration evaluates every
//! remaining (FBS, channel) pair, picks the one with the largest
//! objective increase `Q(c + e_{i,m}) − Q(c)`, commits it, and removes
//! from the candidate set both the chosen pair and every
//! `(neighbor, same channel)` pair (`R(i′) × m′`, step 6) — so the
//! produced assignment is conflict-free by construction. The recorded
//! per-step increments `Δ_l` and degrees `D(l)` feed the eq.-(23)
//! upper bound on the unknown optimum.
//!
//! Worst-case complexity is `O(N²M²)` inner solves, as stated in
//! Section IV-C.2.
//!
//! Those solves repeat each other's work, and a run skips it at three
//! levels, each bit-identical to solving everything:
//! - Within one step, each candidate is first bounded by weak duality
//!   (eqs. (13)–(14)): at any prices `λ ≥ 0` the Lagrangian `L(λ)` of
//!   the candidate's slot problem is at least the objective of every
//!   feasible allocation, so at least its `Q`. The candidates are
//!   solved in decreasing bound order, and the step stops at the first
//!   whose bound, plus a derived rounding margin, cannot reach the best
//!   `Δ` solved so far: none of the rest could win or tie (DESIGN §15).
//! - Within one step, each distinct `G` vector is solved once (`Q`
//!   depends on a trial only through `G`). A trial differs from the
//!   step's `G` in at most its own FBS's entry, so the step keys its
//!   solves on that FBS and its grant's bits, with a grant bit-equal to
//!   the current `G_i` keyed as no change: keys are equal exactly when
//!   the `G` vectors are.
//! - Every `Q` solve of a run shares one fill cache, created and
//!   dropped by [`GreedyAllocator::allocate`]. A budget fill depends
//!   only on the budget, its FBS's `G_i` and the members it gathers,
//!   so a fill one solve made is replayed by any later solve that
//!   needs it.
//!
//! The solves also share their working memory: one SoA view of the
//! run's users, whose `G` column each solve re-points, and one set of
//! solve buffers, so a solve allocates only the allocation it returns
//! (DESIGN §15). A solve's `Q` is its polish's best value, the same
//! fold [`crate::problem::SlotProblem::objective`] takes.
//!
//! The final assignment's `G` is the last committed candidate's (or
//! `∅`'s), and the run's solves are deterministic through its fill
//! cache, so the outcome takes that solve's `Q` and allocation instead
//! of solving again.

use crate::allocation::Allocation;
use crate::bounds;
use crate::interfering::{ChannelAssignment, InterferingProblem};
use crate::lagrangian::{best_share, branch_value_ln};
use crate::soa::{FillScratch, WordHashing};
use crate::waterfill::{gamma, magnitude, WaterfillingSolver, UNIT_ROUNDOFF};
use fcr_net::node::FbsId;
use std::collections::HashMap;

/// One committed step of the greedy algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyStep {
    /// The FBS of the chosen pair `e(l)`.
    pub fbs: FbsId,
    /// The channel of the chosen pair.
    pub channel: usize,
    /// `Δ_l = Q(π_l) − Q(π_{l−1})`.
    pub delta: f64,
    /// `D(l)`: the chosen FBS's degree in the interference graph
    /// (Lemma 8 — the maximum number of optimal pairs this step can
    /// block).
    pub degree: usize,
}

/// Result of a greedy run.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyOutcome {
    assignment: ChannelAssignment,
    steps: Vec<GreedyStep>,
    q_value: f64,
    q_empty: f64,
    allocation: Allocation,
}

impl GreedyOutcome {
    /// The committed channel assignment `π_L` (conflict-free).
    pub fn assignment(&self) -> &ChannelAssignment {
        &self.assignment
    }

    /// The steps in commit order.
    pub fn steps(&self) -> &[GreedyStep] {
        &self.steps
    }

    /// `Q(π_L)`: the objective under the greedy assignment.
    pub fn q_value(&self) -> f64 {
        self.q_value
    }

    /// `Q(∅)`: the no-channel baseline the gain is measured from.
    pub fn q_empty(&self) -> f64 {
        self.q_empty
    }

    /// The time-share allocation solved at the final assignment.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The greedy gain `Σ_l Δ_l = Q(π_L) − Q(∅)` — the paper's `Q(π_L)`
    /// in its `Q(∅) = 0` normalization.
    pub fn gain(&self) -> f64 {
        self.steps.iter().map(|s| s.delta).sum()
    }

    /// The eq.-(23) upper bound on the optimal gain:
    /// `gain(Ω) ≤ Σ_l (1 + D(l))·Δ_l`. Add [`Self::q_empty`] to get an
    /// absolute objective bound.
    pub fn upper_bound_gain(&self) -> f64 {
        bounds::per_run_upper_bound(
            &self
                .steps
                .iter()
                .map(|s| (s.delta, s.degree))
                .collect::<Vec<_>>(),
        )
    }

    /// Absolute upper bound on the optimal objective:
    /// `Q(Ω) ≤ Q(∅) + Σ_l (1 + D(l))·Δ_l`.
    pub fn upper_bound(&self) -> f64 {
        self.q_empty + self.upper_bound_gain()
    }
}

/// Runs Table III with a configurable inner solver.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GreedyAllocator {
    solver: WaterfillingSolver,
}

impl GreedyAllocator {
    /// Creates an allocator with the default inner solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an allocator with a custom inner solver configuration.
    pub fn with_solver(solver: WaterfillingSolver) -> Self {
        Self { solver }
    }

    /// Does nothing, whatever `on` is: every run is the bounded cold
    /// Table III greedy. Kept for callers of the removed incremental
    /// greedy, whose stale `Δ`s were not upper bounds under the MBS
    /// coupling (DESIGN §15).
    pub fn incremental(self, _on: bool) -> Self {
        self
    }

    /// Runs the greedy algorithm on `problem`.
    pub fn allocate(&self, problem: &InterferingProblem) -> GreedyOutcome {
        let _span = fcr_telemetry::Span::enter(fcr_telemetry::Phase::GreedyAlloc);
        let n = problem.num_fbss();
        let m = problem.num_channels();
        let mut assignment = ChannelAssignment::empty(n, m);
        // The channel counts of `assignment`.
        let mut g = problem.g_for(&assignment);
        // One view of the users, one set of solve buffers and one fill
        // cache per run, shared by every `Q` solve and dropped with the
        // run: the users and the solver the cache assumes fixed are
        // fixed only here.
        let mut workspace = problem.workspace(&g, FillScratch::caching());
        // The solve of the last committed assignment, `∅`'s until a
        // commit.
        let mut committed = workspace.q_at(&g, &self.solver);
        let q_empty = committed.0;
        let mut q_current = q_empty;
        let mut steps = Vec::new();
        // Candidate set C = N × A(t).
        let mut candidates: Vec<(FbsId, usize)> = (0..n)
            .flat_map(|i| (0..m).map(move |ch| (FbsId(i), ch)))
            .collect();
        let mut dual = Dual::new(problem);
        // A trial's channel counts, each candidate's grant, and the
        // step's solves by trial key.
        let mut trial = g.clone();
        let mut grants = Vec::with_capacity(candidates.len());
        let mut memo: Vec<(TrialKey, (f64, Allocation))> = Vec::new();

        let (mut memo_hits, mut pruned) = (0u64, 0u64);
        while !candidates.is_empty() {
            // Step 3: the pair with the largest Q increase. A trial
            // changes only its FBS's G_i, so the trial's G vector is the
            // current one with that entry replaced by its grant.
            grants.clear();
            grants.extend(
                candidates
                    .iter()
                    .map(|&(fbs, ch)| problem.g_granting(&assignment, fbs, Some(ch))),
            );
            let bounds = dual.bounds(&g, &candidates, &grants);
            // Q depends on the trial only through its G vector, and
            // channels with bit-equal posteriors give candidates
            // bit-equal G vectors: each distinct G of the step is solved
            // once.
            memo.clear();
            let key = |idx: usize| trial_key(&g, candidates[idx].0, grants[idx]);
            let (best_idx, delta, skipped) =
                best_candidate(&bounds.values, bounds.margin, q_current, |idx| {
                    let key = key(idx);
                    let q = if let Some((_, (q, _))) = memo.iter().find(|(k, _)| *k == key) {
                        memo_hits += 1;
                        *q
                    } else {
                        let FbsId(i) = candidates[idx].0;
                        trial.copy_from_slice(&g);
                        trial[i] = grants[idx];
                        let solved = workspace.q_at(&trial, &self.solver);
                        let q = solved.0;
                        memo.push((key, solved));
                        q
                    };
                    q - q_current
                });
            pruned += skipped;
            let chosen = key(best_idx);
            let solved = memo
                .iter()
                .position(|(k, _)| *k == chosen)
                .expect("the chosen candidate was solved");
            committed = memo.swap_remove(solved).1;
            let (fbs, channel) = candidates[best_idx];

            // Step 4: commit. The FBS's new channel count is its grant,
            // which sums the same weights in the same (channel) order
            // as `g_for` of the new assignment.
            assignment.assign(fbs, channel);
            g[fbs.0] = grants[best_idx];
            q_current += delta;
            steps.push(GreedyStep {
                fbs,
                channel,
                // Solver noise can make Δ a hair negative; Δ_l ≥ 0 holds
                // mathematically (monotone Q), so clamp for the bounds.
                delta: delta.max(0.0),
                degree: problem.graph().degree(fbs),
            });

            // Steps 5–6: remove the pair and R(i′) × m′.
            let neighbors = problem.graph().neighbors(fbs);
            candidates.retain(|(f, ch)| !(*ch == channel && (*f == fbs || neighbors.contains(f))));
        }

        fcr_telemetry::incr("greedy.q_memo_hits", memo_hits);
        fcr_telemetry::incr("greedy.bound_pruned", pruned);
        self.finish(problem, assignment, steps, q_empty, committed)
    }

    /// The outcome at `assignment`, whose solve `(Q, allocation)` is
    /// `solved`.
    fn finish(
        &self,
        problem: &InterferingProblem,
        assignment: ChannelAssignment,
        steps: Vec<GreedyStep>,
        q_empty: f64,
        solved: (f64, Allocation),
    ) -> GreedyOutcome {
        debug_assert!(assignment.is_conflict_free(problem.graph()));
        let (q_value, allocation) = solved;
        // Eq.-(23) bookkeeping: the per-step gap terms D(l)·Δ_l make
        // the per-run optimality bound observable. No-op when
        // telemetry is disabled.
        if fcr_telemetry::is_enabled() {
            fcr_telemetry::record_greedy(fcr_telemetry::GreedyRecord {
                steps: steps.len(),
                gain: steps.iter().map(|s| s.delta).sum(),
                upper_bound_gain: bounds::per_run_upper_bound(
                    &steps
                        .iter()
                        .map(|s| (s.delta, s.degree))
                        .collect::<Vec<_>>(),
                ),
                gap_terms: steps.iter().map(|s| s.degree as f64 * s.delta).collect(),
            });
        }
        GreedyOutcome {
            assignment,
            steps,
            q_value,
            q_empty,
            allocation,
        }
    }
}

/// The key of the per-step `Q` memo: `None` for a trial whose grant
/// leaves the step's channel counts as they are, bit for bit, and
/// `(FBS, grant bits)` for one that changes its FBS's.
type TrialKey = Option<(usize, u64)>;

/// The key of the trial that grants FBS `i` the channel count `grant`
/// at the step's channel counts `g`. Two trials' keys are equal exactly
/// when their `G` vectors are bit-equal: each differs from `g` in at
/// most its own FBS's entry.
fn trial_key(g: &[f64], FbsId(i): FbsId, grant: f64) -> TrialKey {
    (grant.to_bits() != g[i].to_bits()).then_some((i, grant.to_bits()))
}

/// Step 3 of Table III over candidates whose weak-duality bounds are
/// `bounds`: returns the index of the candidate with the largest
/// `Δ = delta_of(index)`, the lowest index on ties (what a scan in
/// index order with a strict `>` picks), its `Δ`, and how many
/// candidates were skipped.
///
/// Candidates are solved in decreasing bound order (a NaN bound first,
/// equal bounds by index), and the rest are skipped at the first whose
/// `fl((bound + margin) − q_current)` is strictly below the best `Δ`
/// so far. Given `Q ≤ fl(bound + margin)`, rounded subtraction is
/// monotone, so that candidate's `Δ` and every later one's is strictly
/// below the best: none of them could win or tie. The comparison is
/// made on `Δ`, not on `Q`, because `fl(q − q_current)` can round two
/// different `Q`s to equal `Δ`s. A NaN bound admits its candidate.
///
/// A `Q`, and so its `Δ`, is NaN or infinite only when a rate times
/// `G` overflows; the margin is then infinite and nothing is skipped.
/// As in the scan, a NaN `Δ` never becomes the best, except candidate
/// 0's, which the scan keeps whatever follows.
fn best_candidate(
    bounds: &[f64],
    margin: f64,
    q_current: f64,
    mut delta_of: impl FnMut(usize) -> f64,
) -> (usize, f64, u64) {
    let key = |idx: usize| {
        let bound = bounds[idx];
        if bound.is_nan() {
            f64::INFINITY
        } else {
            bound
        }
    };
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_by(|&a, &b| {
        key(b)
            .partial_cmp(&key(a))
            .expect("NaN bounds sort as +∞")
            .then(a.cmp(&b))
    });
    let mut best: Option<(usize, f64)> = None;
    for (visited, &idx) in order.iter().enumerate() {
        if let Some((best_idx, best_delta)) = best {
            if (bounds[idx] + margin) - q_current < best_delta {
                return (best_idx, best_delta, (order.len() - visited) as u64);
            }
        }
        let delta = delta_of(idx);
        if delta.is_nan() {
            if idx == 0 {
                return (0, delta, (order.len() - visited - 1) as u64);
            }
            continue;
        }
        if best.is_none_or(|(b, d)| delta > d || delta == d && idx < b) {
            best = Some((idx, delta));
        }
    }
    let (best_idx, best_delta) = best.expect("candidate 0 was solved");
    (best_idx, best_delta, 0)
}

/// Bisection steps of each FBS price search in [`Dual::part`]. The
/// prices decide only how much a step prunes, never a result.
const FBS_PRICE_STEPS: usize = 8;

/// Cap on the bisection steps of the run's MBS price search
/// ([`mbs_price`]); it stops earlier at its first idle step.
const MBS_PRICE_STEPS: usize = 30;

/// The Lagrangian of a cold run's `Q(c)` problems (eqs. (13)–(14)) at
/// prices that bound every candidate of a step (DESIGN §15).
///
/// At prices `λ = [λ_0, λ_1, …, λ_N] ≥ 0` and channel counts `G`, the
/// Lagrangian is `L = λ_0 + Σ_k T_k(λ_k)`, FBS `k`'s part being
/// `T_k = λ_k + Σ_{j∈U_k} max(V0_j(λ_0), V1_j(λ_k, G_k))`, where `V0_j`
/// and `V1_j` are user `j`'s best Lagrangian values on its MBS and FBS
/// branches. By weak duality `L` is at least the objective of every
/// feasible allocation, so at least `Q(G)` whatever the solver. A
/// candidate `(i, m)` changes only `G_i`, so its bound keeps the step's
/// other parts and re-minimises only `T_i`.
struct Dual<'a> {
    problem: &'a InterferingProblem,
    /// Per FBS, its users in ascending order.
    users_of: Vec<Vec<usize>>,
    /// `λ_0`, found once at the empty assignment and then carried.
    lambda_mbs: f64,
    /// Per user, `V0_j(λ_0)`.
    mbs_values: Vec<f64>,
    /// [`Self::part`] per (FBS, channel-count bits).
    parts: HashMap<(usize, u64), (f64, f64), WordHashing>,
}

/// One step's candidate bounds, and the margin that covers their
/// rounding and that of `Q`'s objective fold.
struct StepBounds {
    values: Vec<f64>,
    margin: f64,
}

impl<'a> Dual<'a> {
    fn new(problem: &'a InterferingProblem) -> Self {
        let users = problem.users();
        let mut users_of = vec![Vec::new(); problem.num_fbss()];
        for (j, u) in users.iter().enumerate() {
            users_of[u.fbs().0].push(j);
        }
        let lambda_mbs = mbs_price(problem);
        let mbs_values = users
            .iter()
            .map(|u| {
                let (s, w, r) = (u.success_mbs(), u.w(), u.r_mbs());
                let rho = best_share(s, lambda_mbs, w, r);
                branch_value_ln(s, lambda_mbs, w, u.ln_w(), r, rho)
            })
            .collect();
        Self {
            problem,
            users_of,
            lambda_mbs,
            mbs_values,
            parts: HashMap::default(),
        }
    }

    /// FBS `i`'s part `T_i` at channel count `g`, minimised over its
    /// price: the least value found and the price it was found at.
    /// Every value found bounds the part's minimum from above, so the
    /// search's precision decides only the bound's slack. It bisects on
    /// the subgradient `1 − Σ_{FBS-winning} ρ_j` and also tries `λ = 0`
    /// when no step raised the bracket's floor. A NaN value is never
    /// the least, and a part whose every value is NaN is `+∞`.
    fn part(&self, i: usize, g: f64) -> (f64, f64) {
        let users = self.problem.users();
        let members = &self.users_of[i];
        let at = |lambda: f64| {
            let (mut value, mut load) = (lambda, 0.0);
            for &j in members {
                let u = &users[j];
                let (s, w, c) = (u.success_fbs(), u.w(), g * u.r_fbs());
                let rho = best_share(s, lambda, w, c);
                let fbs = branch_value_ln(s, lambda, w, u.ln_w(), c, rho);
                let mbs = self.mbs_values[j];
                if fbs > mbs {
                    load += rho;
                }
                // The larger branch, NaN if either is.
                value += if fbs.is_nan() || mbs.is_nan() {
                    f64::NAN
                } else {
                    fbs.max(mbs)
                };
            }
            (value, load)
        };
        // Past the largest `s·c/w` every share is 0.
        let ceiling = members
            .iter()
            .map(|&j| {
                let u = &users[j];
                let (s, c) = (u.success_fbs(), g * u.r_fbs());
                if s > 0.0 && c > 0.0 {
                    s * c / u.w()
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max);
        let (mut best, mut price) = (f64::INFINITY, 0.0);
        let (mut lo, mut hi) = (0.0, ceiling);
        if ceiling > 0.0 {
            for _ in 0..FBS_PRICE_STEPS {
                let mid = 0.5 * (lo + hi);
                let (value, load) = at(mid);
                if value < best {
                    (best, price) = (value, mid);
                }
                if load > 1.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
        if lo == 0.0 {
            let (value, _) = at(0.0);
            if value < best {
                (best, price) = (value, 0.0);
            }
        }
        (best, price)
    }

    /// [`Self::part`], memoised for the run: a part depends only on its
    /// FBS and channel count once the users and `λ_0` are fixed, and a
    /// commit moves one FBS's count, so most of a step's parts are the
    /// previous step's.
    fn part_at(&mut self, i: usize, g: f64) -> (f64, f64) {
        if let Some(&part) = self.parts.get(&(i, g.to_bits())) {
            return part;
        }
        let part = self.part(i, g);
        self.parts.insert((i, g.to_bits()), part);
        part
    }

    /// The bounds of a step at channel counts `g` on `candidates`, whose
    /// FBSs' channel counts are `grants`: each is
    /// `λ_0 + Σ_{k≠i} T_k + min T_i(grant)`, the other parts minimised
    /// at `g`.
    ///
    /// The margin is `(3γ_{n+N+1} + 16u)·(Σ_j m_j + n + Λ + n·λ*)`, with
    /// `m_j` each user's magnitude at the step's largest channel count,
    /// `Λ` the sum of the prices in use (`λ_0`, each `λ_k` and the
    /// largest candidate `λ_i`) and `λ*` the largest; DESIGN §15
    /// derives it term by term.
    fn bounds(&mut self, g: &[f64], candidates: &[(FbsId, usize)], grants: &[f64]) -> StepBounds {
        let parts: Vec<(f64, f64)> = g
            .iter()
            .enumerate()
            .map(|(k, &g_k)| self.part_at(k, g_k))
            .collect();
        // `λ_0 + Σ_{k<i} T_k` and `Σ_{k>i} T_k`.
        let mut before = Vec::with_capacity(parts.len());
        let mut sum = self.lambda_mbs;
        for &(value, _) in &parts {
            before.push(sum);
            sum += value;
        }
        let mut after = vec![0.0; parts.len() + 1];
        for k in (0..parts.len()).rev() {
            after[k] = parts[k].0 + after[k + 1];
        }
        let mut g_max = g.iter().fold(0.0, |a: f64, &b| a.max(b));
        let mut lambda_fbs = 0.0f64;
        let values = candidates
            .iter()
            .zip(grants)
            .map(|(&(FbsId(i), _), &grant)| {
                let (value, lambda) = self.part_at(i, grant);
                g_max = g_max.max(grant);
                lambda_fbs = lambda_fbs.max(lambda);
                (before[i] + after[i + 1]) + value
            })
            .collect();

        let users = self.problem.users();
        let magnitudes: f64 = users
            .iter()
            .map(|u| magnitude(u.w(), u.ln_w(), u.r_mbs().max(g_max * u.r_fbs())))
            .sum();
        let step_prices = parts.iter().map(|&(_, lambda)| lambda);
        let prices = self.lambda_mbs + step_prices.clone().sum::<f64>() + lambda_fbs;
        let lambda_max = step_prices.fold(self.lambda_mbs.max(lambda_fbs), f64::max);
        let n = users.len() as f64;
        let margin = (3.0 * gamma(users.len() + g.len() + 1) + 16.0 * UNIT_ROUNDOFF)
            * (magnitudes + n + prices + n * lambda_max);
        StepBounds { values, margin }
    }
}

/// `λ_0` for a run: the minimiser of the partially minimised dual at
/// the empty assignment, by bisection on its subgradient
/// `1 − Σ_{MBS-winning} ρ_0`. With no channel granted, every user with
/// a positive MBS share wins on the MBS branch. Ties go up, to the top
/// of a flat stretch: a lone beneficiary's full share prices there at
/// its marginal value `s·c/(w + c)`, not at 0, so its own MBS value is
/// not a full slot's free of charge. A price from the fill's levels
/// would be 0 there, or at a slack budget.
fn mbs_price(problem: &InterferingProblem) -> f64 {
    let users = problem.users();
    let ceiling = users
        .iter()
        .map(|u| {
            let (s, r) = (u.success_mbs(), u.r_mbs());
            if s > 0.0 && r > 0.0 {
                s * r / u.w()
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max);
    let (mut lo, mut hi) = (0.0, ceiling);
    for _ in 0..MBS_PRICE_STEPS {
        let mid = 0.5 * (lo + hi);
        let load: f64 = users
            .iter()
            .map(|u| best_share(u.success_mbs(), mid, u.w(), u.r_mbs()))
            .sum();
        let bound = if load >= 1.0 { &mut lo } else { &mut hi };
        if *bound == mid {
            break;
        }
        *bound = mid;
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::UserState;
    use fcr_net::interference::InterferenceGraph;
    use proptest::prelude::*;

    fn path3() -> InterferenceGraph {
        InterferenceGraph::new(3, &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))])
    }

    fn user(w: f64, fbs: usize) -> UserState {
        UserState::new(w, FbsId(fbs), 0.72, 0.72, 0.5, 0.9).unwrap()
    }

    fn fig5_problem() -> InterferingProblem {
        InterferingProblem::new(
            vec![
                user(30.2, 0),
                user(27.6, 0),
                user(28.8, 1),
                user(30.2, 1),
                user(27.6, 2),
                user(28.8, 2),
            ],
            path3(),
            vec![0.9, 0.8, 0.85, 0.7],
        )
        .unwrap()
    }

    #[test]
    fn outcome_is_conflict_free_and_feasible() {
        let p = fig5_problem();
        let outcome = GreedyAllocator::new().allocate(&p);
        assert!(outcome.assignment().is_conflict_free(p.graph()));
        let problem = p.problem_for(outcome.assignment());
        assert!(problem.is_feasible(outcome.allocation(), 1e-9));
    }

    #[test]
    fn every_channel_ends_up_assigned() {
        // Table III runs until C is empty, so each channel is held by a
        // maximal independent set of FBSs.
        let p = fig5_problem();
        let outcome = GreedyAllocator::new().allocate(&p);
        for ch in 0..p.num_channels() {
            let holders = outcome.assignment().holders(ch);
            assert!(!holders.is_empty(), "channel {ch} unassigned");
            // Maximality: no FBS could still take this channel.
            for i in 0..p.num_fbss() {
                let f = FbsId(i);
                if holders.contains(&f) {
                    continue;
                }
                let conflicts = holders.iter().any(|h| p.graph().are_adjacent(*h, f));
                assert!(conflicts, "channel {ch}: {f} could still be added");
            }
        }
    }

    #[test]
    fn deltas_are_nonincreasing_is_not_required_but_nonnegative_is() {
        let p = fig5_problem();
        let outcome = GreedyAllocator::new().allocate(&p);
        for s in outcome.steps() {
            assert!(s.delta >= 0.0, "negative Δ at {s:?}");
            assert_eq!(s.degree, p.graph().degree(s.fbs));
        }
    }

    #[test]
    fn gain_matches_q_difference() {
        let p = fig5_problem();
        let outcome = GreedyAllocator::new().allocate(&p);
        assert!(
            (outcome.gain() - (outcome.q_value() - outcome.q_empty())).abs() < 1e-6,
            "ΣΔ = {} vs Q(π_L) − Q(∅) = {}",
            outcome.gain(),
            outcome.q_value() - outcome.q_empty()
        );
    }

    #[test]
    fn upper_bound_dominates_greedy_gain() {
        let p = fig5_problem();
        let outcome = GreedyAllocator::new().allocate(&p);
        assert!(outcome.upper_bound_gain() >= outcome.gain() - 1e-9);
        assert!(outcome.upper_bound() >= outcome.q_value() - 1e-9);
        // And is no looser than the Theorem-2 worst case.
        let dmax = p.graph().max_degree();
        assert!(
            outcome.upper_bound_gain() <= (1.0 + dmax as f64) * outcome.gain() + 1e-9,
            "eq.(23) must be at least as tight as Theorem 2"
        );
    }

    #[test]
    fn edgeless_graph_reduces_to_full_reuse() {
        // With no interference every FBS gets every channel
        // (Section IV-B's spatial-reuse case).
        let p = InterferingProblem::new(
            vec![user(30.0, 0), user(29.0, 1)],
            InterferenceGraph::edgeless(2),
            vec![0.9, 0.8],
        )
        .unwrap();
        let outcome = GreedyAllocator::new().allocate(&p);
        for i in 0..2 {
            for ch in 0..2 {
                assert!(outcome.assignment().is_assigned(FbsId(i), ch));
            }
        }
        // D(l) = 0 everywhere ⇒ bound is tight: UB = gain.
        assert!((outcome.upper_bound_gain() - outcome.gain()).abs() < 1e-9);
    }

    #[test]
    fn prefers_the_fbs_with_more_users_first() {
        // FBS 0 serves two users, FBS 1 none; the first committed step
        // should give a channel to FBS 0 (larger objective increase).
        let p = InterferingProblem::new(
            vec![user(30.0, 0), user(29.0, 0)],
            InterferenceGraph::new(2, &[(FbsId(0), FbsId(1))]),
            vec![0.9],
        )
        .unwrap();
        let outcome = GreedyAllocator::new().allocate(&p);
        assert_eq!(outcome.steps()[0].fbs, FbsId(0));
        // The interfering neighbor is then excluded from the channel.
        assert!(!outcome.assignment().is_assigned(FbsId(1), 0));
    }

    #[test]
    fn step_count_is_bounded_by_pairs() {
        let p = fig5_problem();
        let outcome = GreedyAllocator::new().allocate(&p);
        assert!(outcome.steps().len() <= p.num_fbss() * p.num_channels());
        assert_eq!(outcome.steps().len(), outcome.assignment().len());
    }

    #[test]
    fn default_is_new_and_the_incremental_flag_changes_nothing() {
        assert_eq!(GreedyAllocator::default(), GreedyAllocator::new());
        assert_eq!(
            GreedyAllocator::new().incremental(true),
            GreedyAllocator::new()
        );
    }

    /// The cold greedy before the per-step `Q` memo: every candidate of
    /// every step solved. Kept only as the bit-identity oracle.
    fn unmemoised_cold(allocator: &GreedyAllocator, problem: &InterferingProblem) -> GreedyOutcome {
        let n = problem.num_fbss();
        let m = problem.num_channels();
        let q_empty = problem.q_empty(&allocator.solver);
        let mut assignment = ChannelAssignment::empty(n, m);
        let mut q_current = q_empty;
        let mut steps = Vec::new();
        let mut candidates: Vec<(FbsId, usize)> = (0..n)
            .flat_map(|i| (0..m).map(move |ch| (FbsId(i), ch)))
            .collect();
        while !candidates.is_empty() {
            let mut best: Option<(usize, f64)> = None;
            for (idx, (fbs, ch)) in candidates.iter().enumerate() {
                let mut trial = assignment.clone();
                trial.assign(*fbs, *ch);
                let delta = problem.q_value(&trial, &allocator.solver) - q_current;
                if best.is_none_or(|(_, d)| delta > d) {
                    best = Some((idx, delta));
                }
            }
            let (best_idx, delta) = best.expect("candidates nonempty");
            let (fbs, channel) = candidates[best_idx];
            assignment.assign(fbs, channel);
            q_current += delta;
            steps.push(GreedyStep {
                fbs,
                channel,
                delta: delta.max(0.0),
                degree: problem.graph().degree(fbs),
            });
            let neighbors = problem.graph().neighbors(fbs);
            candidates.retain(|(f, ch)| !(*ch == channel && (*f == fbs || neighbors.contains(f))));
        }
        let solved = problem.q_solution(&assignment, &allocator.solver);
        allocator.finish(problem, assignment, steps, q_empty, solved)
    }

    fn assert_same_outcome(got: &GreedyOutcome, want: &GreedyOutcome) {
        assert_eq!(got.assignment(), want.assignment());
        assert_eq!(got.steps().len(), want.steps().len());
        for (g, w) in got.steps().iter().zip(want.steps()) {
            assert_eq!((g.fbs, g.channel, g.degree), (w.fbs, w.channel, w.degree));
            assert_eq!(g.delta.to_bits(), w.delta.to_bits(), "Δ at {g:?}");
        }
        assert_eq!(got.q_value().to_bits(), want.q_value().to_bits());
        assert_eq!(got.q_empty().to_bits(), want.q_empty().to_bits());
        assert_eq!(got.allocation().len(), want.allocation().len());
        for (g, w) in got
            .allocation()
            .users()
            .iter()
            .zip(want.allocation().users())
        {
            assert_eq!(g.mode, w.mode);
            assert_eq!(g.rho_mbs.to_bits(), w.rho_mbs.to_bits());
            assert_eq!(g.rho_fbs.to_bits(), w.rho_fbs.to_bits());
        }
    }

    #[test]
    fn the_memo_is_bit_identical_on_repeated_channel_weights() {
        // Channels 0 and 2 share a posterior, so trials granting either
        // to the same FBS have bit-equal G vectors.
        let p = InterferingProblem::new(
            fig5_problem().users().to_vec(),
            path3(),
            vec![0.9, 0.8, 0.9, 0.7],
        )
        .unwrap();
        let allocator = GreedyAllocator::new();
        assert_same_outcome(&allocator.allocate(&p), &unmemoised_cold(&allocator, &p));
        let p = fig5_problem();
        assert_same_outcome(&allocator.allocate(&p), &unmemoised_cold(&allocator, &p));
    }

    /// A success probability or rate that is sometimes exactly zero.
    fn zero_or(range: std::ops::RangeInclusive<f64>) -> impl Strategy<Value = f64> {
        (0..5u8, range).prop_map(|(k, v)| if k == 0 { 0.0 } else { v })
    }

    /// Per user: `w`, FBS (taken modulo the FBS count), MBS and FBS
    /// rates, MBS and FBS success.
    type UserSpec = (f64, usize, f64, f64, f64, f64);

    /// Channel posteriors come from a small set, zero included, so that
    /// trials often share a G vector.
    const WEIGHTS: [f64; 4] = [0.0, 0.35, 0.8, 1.0];

    /// Up to 12 users on up to 6 FBSs of a random interference graph,
    /// with rates and successes sometimes 0, and up to 4 channels whose
    /// posteriors come from [`WEIGHTS`].
    fn arb_problem() -> impl Strategy<Value = InterferingProblem> {
        arb_problem_with(12)
    }

    /// As [`arb_problem`], with up to `max_users` users.
    fn arb_problem_with(max_users: usize) -> impl Strategy<Value = InterferingProblem> {
        (
            proptest::collection::vec(
                (
                    5.0..50.0f64,
                    0..6usize,
                    zero_or(0.1..=1.0),
                    zero_or(0.1..=1.0),
                    zero_or(0.05..=1.0),
                    zero_or(0.05..=1.0),
                ),
                1..=max_users,
            ),
            1..=6usize,
            proptest::collection::vec(proptest::bool::ANY, 15),
            proptest::collection::vec(0..WEIGHTS.len(), 1..=4),
        )
            .prop_map(|(users, num_fbss, edges, weights)| {
                let users: Vec<UserState> = users
                    .iter()
                    .map(|&(w, fbs, r0, r1, s0, s1): &UserSpec| {
                        UserState::new(w, FbsId(fbs % num_fbss), r0, r1, s0, s1).unwrap()
                    })
                    .collect();
                let pairs = (0..num_fbss)
                    .flat_map(|i| ((i + 1)..num_fbss).map(move |j| (FbsId(i), FbsId(j))));
                let edges: Vec<(FbsId, FbsId)> = pairs
                    .zip(&edges)
                    .filter(|(_, on)| **on)
                    .map(|(e, _)| e)
                    .collect();
                let graph = InterferenceGraph::new(num_fbss, &edges);
                let weights = weights.iter().map(|&k| WEIGHTS[k]).collect();
                InterferingProblem::new(users, graph, weights).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bounded, memoised cold greedy, its fills cached, commits
        /// the same pairs with the same `Δ` bits, and ends at the same `Q`
        /// bits and allocation bits, as the oracle that solves every
        /// candidate through a fresh scratch.
        #[test]
        fn the_memoised_greedy_is_bit_identical_to_the_oracle(p in arb_problem()) {
            let allocator = GreedyAllocator::new();
            assert_same_outcome(&allocator.allocate(&p), &unmemoised_cold(&allocator, &p));
        }
    }

    /// One step of a cold run: the assignment before it, its candidates,
    /// and their bounds.
    type BoundedStep = (ChannelAssignment, Vec<(FbsId, usize)>, StepBounds);

    /// Every step of `problem`'s cold run.
    fn bounded_steps(problem: &InterferingProblem) -> Vec<BoundedStep> {
        let (n, m) = (problem.num_fbss(), problem.num_channels());
        let mut dual = Dual::new(problem);
        let mut assignment = ChannelAssignment::empty(n, m);
        let mut candidates: Vec<(FbsId, usize)> = (0..n)
            .flat_map(|i| (0..m).map(move |ch| (FbsId(i), ch)))
            .collect();
        let mut steps = Vec::new();
        for step in GreedyAllocator::new().allocate(problem).steps() {
            let g = problem.g_for(&assignment);
            let grants: Vec<f64> = candidates
                .iter()
                .map(|&(fbs, ch)| problem.g_granting(&assignment, fbs, Some(ch)))
                .collect();
            let bounds = dual.bounds(&g, &candidates, &grants);
            steps.push((assignment.clone(), candidates.clone(), bounds));
            assignment.assign(step.fbs, step.channel);
            let neighbors = problem.graph().neighbors(step.fbs);
            candidates.retain(|(f, ch)| {
                !(*ch == step.channel && (*f == step.fbs || neighbors.contains(f)))
            });
        }
        steps
    }

    /// Checks that at every step of `problem`'s cold run, every
    /// candidate's bound plus the step's margin is at least the exact
    /// optimum of its slot problem (a NaN bound admits).
    fn assert_bounds_cover_the_exact_optimum(problem: &InterferingProblem) {
        let exact = WaterfillingSolver::exact_up_to(8);
        for (assignment, candidates, bounds) in bounded_steps(problem) {
            for (idx, &(fbs, ch)) in candidates.iter().enumerate() {
                let mut trial = assignment.clone();
                trial.assign(fbs, ch);
                let slot = problem.problem_for(&trial);
                let optimum = slot.objective(&exact.solve(&slot));
                let reach = bounds.values[idx] + bounds.margin;
                assert!(
                    reach >= optimum || reach.is_nan(),
                    "{fbs} on {ch} at {assignment:?}: bound {} + margin {} < optimum {optimum}",
                    bounds.values[idx],
                    bounds.margin
                );
            }
        }
    }

    /// A user kind of a near-tie instance: `w` (below 1 in some), MBS
    /// and FBS rates and successes, each sometimes zero, and one kind
    /// in three that cannot benefit on either branch.
    fn arb_kind() -> impl Strategy<Value = (f64, f64, f64, f64, f64, u8)> {
        (
            0.05..40.0f64,
            zero_or(0.1..=1.0),
            zero_or(0.1..=1.0),
            zero_or(0.05..=1.0),
            zero_or(0.05..=1.0),
            0..3u8,
        )
    }

    /// Near-tie instances of up to 6 FBSs. FBS `k` and its mirror
    /// `N − 1 − k` serve copies of the same users (up to 3 each, some
    /// FBSs none) and the graph is mirror-symmetric, so mirrored
    /// candidates tie. Users that cannot benefit and FBSs without users
    /// make the Lagrangian exact, so a `Q` lies within rounding of its
    /// bound. Channel posteriors repeat and include 0, so candidates of
    /// one FBS share a `G` and candidates of different FBSs can too.
    fn arb_near_tie_problem() -> impl Strategy<Value = InterferingProblem> {
        (
            proptest::collection::vec(arb_kind(), 1..=4),
            proptest::collection::vec(proptest::collection::vec(0..4usize, 0..=3), 1..=3),
            proptest::bool::ANY,
            proptest::collection::vec(proptest::bool::ANY, 15),
            proptest::collection::vec(0..3usize, 1..=4),
        )
            .prop_map(|(kinds, half, odd, edges, weights)| {
                let num_fbss = (2 * half.len() - usize::from(odd)).max(1);
                let mirror = |k: usize| num_fbss - 1 - k;
                let users: Vec<UserState> = (0..num_fbss)
                    .flat_map(|k| half[k.min(mirror(k))].iter().map(move |&kind| (k, kind)))
                    .map(|(k, kind)| {
                        let (w, r0, r1, s0, s1, inert) = kinds[kind % kinds.len()];
                        let (s0, s1) = if inert == 0 { (0.0, 0.0) } else { (s0, s1) };
                        UserState::new(w, FbsId(k), r0, r1, s0, s1).unwrap()
                    })
                    .collect();
                let pairs: Vec<(usize, usize)> = (0..num_fbss)
                    .flat_map(|i| ((i + 1)..num_fbss).map(move |j| (i, j)))
                    .collect();
                let on = |(i, j): (usize, usize)| {
                    let flag = |a: usize, b: usize| {
                        let (a, b) = (a.min(b), a.max(b));
                        edges[pairs.iter().position(|&e| e == (a, b)).unwrap()]
                    };
                    flag(i, j) || flag(mirror(i), mirror(j))
                };
                let edges: Vec<(FbsId, FbsId)> = pairs
                    .iter()
                    .filter(|&&e| on(e))
                    .map(|&(i, j)| (FbsId(i), FbsId(j)))
                    .collect();
                let weights = weights.iter().map(|&k| [0.0, 0.5, 1.0][k]).collect();
                let users = if users.is_empty() {
                    vec![user(30.0, 0)]
                } else {
                    users
                };
                InterferingProblem::new(users, InterferenceGraph::new(num_fbss, &edges), weights)
                    .unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Weak duality, checked against an oracle that shares no code
        /// with the bound or the heuristic solve: at every step of a cold
        /// run, every candidate's bound plus the step's margin is at
        /// least the optimum `exact_up_to(8)` finds for its slot problem.
        #[test]
        fn every_bound_covers_the_exact_optimum(p in arb_problem_with(8)) {
            assert_bounds_cover_the_exact_optimum(&p);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bounded greedy returns the oracle's bits on instances
        /// built to sit on the stop rule's edges: mirrored candidates that
        /// tie in `Q` and in bound, candidates sharing a `G` (repeated
        /// and zero posteriors), and `Q`s within the margin of their
        /// bounds.
        #[test]
        fn the_bounded_greedy_is_bit_identical_to_the_oracle_on_near_ties(
            p in arb_near_tie_problem(),
        ) {
            let allocator = GreedyAllocator::new();
            assert_same_outcome(&allocator.allocate(&p), &unmemoised_cold(&allocator, &p));
        }
    }

    /// The candidates `best_candidate` solves, in order, and its answer.
    fn pick(bounds: &[f64], margin: f64, deltas: &[f64]) -> (Vec<usize>, (usize, f64, u64)) {
        let mut solved = Vec::new();
        let picked = best_candidate(bounds, margin, 0.0, |idx| {
            solved.push(idx);
            deltas[idx]
        });
        (solved, picked)
    }

    #[test]
    fn a_later_solved_candidate_with_a_lower_index_wins_a_tie() {
        // Candidate 1's bound is the highest and candidate 0's the
        // lowest, so 0 is solved last; it ties 1 and has the lower index.
        let (solved, picked) = pick(&[1.0, 3.0, 2.0], 0.0, &[0.5, 0.5, 0.4]);
        assert_eq!(solved, [1, 2, 0]);
        assert_eq!(picked, (0, 0.5, 0));
    }

    #[test]
    fn equal_bounds_are_solved_in_index_order() {
        let (solved, picked) = pick(&[2.0, 3.0, 2.0, 3.0], 0.0, &[0.1, 0.2, 0.2, 0.2]);
        assert_eq!(solved, [1, 3, 0, 2]);
        assert_eq!(picked, (1, 0.2, 0));
    }

    #[test]
    fn a_bound_that_reaches_the_best_delta_exactly_is_solved() {
        // `fl((1 + 0) − 0) = 1` equals the best Δ: candidate 0 could
        // tie, so it is solved, and wins on its index.
        let (solved, picked) = pick(&[1.0, 2.0], 0.0, &[1.0, 1.0]);
        assert_eq!(solved, [1, 0]);
        assert_eq!(picked, (0, 1.0, 0));
    }

    #[test]
    fn the_candidates_no_bound_lets_win_are_skipped() {
        let (solved, picked) = pick(&[0.2, 2.0, 0.1], 0.05, &[9.0, 1.0, 9.0]);
        assert_eq!(solved, [1]);
        assert_eq!(picked, (1, 1.0, 2));
    }

    #[test]
    fn a_nan_delta_wins_only_as_candidate_0() {
        let (solved, picked) = pick(&[1.0, 3.0, 2.0], f64::INFINITY, &[0.5, f64::NAN, 0.4]);
        assert_eq!(solved, [1, 2, 0]);
        assert_eq!(picked, (0, 0.5, 0));
        let (solved, picked) = pick(&[1.0, 3.0, 2.0], f64::INFINITY, &[f64::NAN, 0.1, 0.4]);
        assert_eq!(solved, [1, 2, 0]);
        assert_eq!((picked.0, picked.1.is_nan(), picked.2), (0, true, 0));
    }

    #[test]
    fn a_bound_that_is_not_finite_admits_its_candidate() {
        let (solved, picked) = pick(
            &[0.1, f64::NAN, 5.0, f64::INFINITY],
            0.0,
            &[0.05, 0.3, 1.0, 0.2],
        );
        assert_eq!(solved, [1, 3, 2]);
        assert_eq!(picked, (2, 1.0, 1));
        // A NaN margin admits every candidate.
        let (solved, picked) = pick(&[0.1, 5.0], f64::NAN, &[0.05, 1.0]);
        assert_eq!(solved, [1, 0]);
        assert_eq!(picked, (1, 1.0, 0));
    }

    /// Two runs on problems with the same graph, channels and user
    /// links but with the users' qualities reversed, so that fills of
    /// the first run share their keys with fills of the second but not
    /// their shares: the second run must replay no fill of the first.
    #[test]
    fn a_run_replays_no_fill_of_an_earlier_run() {
        let first = fig5_problem();
        let reversed = first.users().iter().rev().map(UserState::w);
        let users = first
            .users()
            .iter()
            .zip(reversed)
            .map(|(u, w)| UserState::new(w, u.fbs(), 0.72, 0.72, 0.5, 0.9).unwrap())
            .collect();
        let second =
            InterferingProblem::new(users, path3(), first.channel_weights().to_vec()).unwrap();
        let allocator = GreedyAllocator::new();
        allocator.allocate(&first);
        assert_same_outcome(
            &allocator.allocate(&second),
            &unmemoised_cold(&allocator, &second),
        );
    }

    /// Two users of FBS 0 with no MBS link whose FBS quotients `w/rate`
    /// overflow once FBS 0 holds a channel (`r_fbs = 1e-310`): every
    /// solve granting FBS 0 a channel fills their budget with λ deep in
    /// the subnormals. The run ends finite and feasible, and bit-equal
    /// to its unmemoised oracle. Its bounds stay finite (the price
    /// search's `s/λ` overflows to a full share, as in the fill) and
    /// cover each candidate's exact optimum; a bound that is not finite
    /// is tested on its own above.
    #[test]
    fn a_run_over_overflowing_quotients_is_finite_and_feasible() {
        let users = vec![
            UserState::new(30.0, FbsId(0), 0.72, 1e-310, 0.0, 0.8).unwrap(),
            UserState::new(29.0, FbsId(0), 0.72, 1e-310, 0.0, 0.9).unwrap(),
            user(28.8, 1),
        ];
        let graph = InterferenceGraph::new(2, &[(FbsId(0), FbsId(1))]);
        let p = InterferingProblem::new(users, graph, vec![0.9, 1.0]).unwrap();
        let allocator = GreedyAllocator::new();
        let got = allocator.allocate(&p);
        let solved = p.problem_for(got.assignment());
        assert!(solved.is_feasible(got.allocation(), 0.0), "{got:?}");
        assert!(got.q_value().is_finite() && got.upper_bound().is_finite());
        assert_same_outcome(&got, &unmemoised_cold(&allocator, &p));
        assert_bounds_cover_the_exact_optimum(&p);
    }

    /// FBS 1's users have a rate that overflows once FBS 1 holds two
    /// channels (`r_fbs = f64::MAX`), and one of them cannot benefit, so
    /// its term is `0·ln(w + 0·∞)`: the `Q` of every such trial is NaN,
    /// and so is its `Δ`. The scan in index order never picks a NaN `Δ`
    /// over candidate 0's; the bounded step, which solves those trials
    /// first (their bounds are not finite), must pick the same.
    #[test]
    fn a_run_whose_trials_reach_a_nan_q_matches_the_scan() {
        let users = vec![
            user(30.2, 0),
            user(27.6, 0),
            UserState::new(28.8, FbsId(1), 0.72, f64::MAX, 0.5, 0.9).unwrap(),
            UserState::new(29.0, FbsId(1), 0.72, f64::MAX, 0.0, 0.0).unwrap(),
        ];
        let p = InterferingProblem::new(users, InterferenceGraph::edgeless(2), vec![1.0, 1.0, 0.5])
            .unwrap();
        let allocator = GreedyAllocator::new();
        let got = allocator.allocate(&p);
        assert!(got.steps().iter().any(|s| s.fbs == FbsId(0)), "{got:?}");
        assert_same_outcome(&got, &unmemoised_cold(&allocator, &p));
    }
}
