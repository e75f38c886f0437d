//! Fast centralized solver: per-constraint water-filling + mode
//! iteration.
//!
//! Given the binary modes of Theorem 1, problem (12)/(17) separates into
//! one concave program per budget constraint:
//!
//! ```text
//! max Σ_j s_j·ln(w_j + ρ_j·c_j)   s.t.  Σ_j ρ_j ≤ 1,  0 ≤ ρ_j ≤ 1
//! ```
//!
//! whose KKT solution is the water-filling form
//! `ρ_j(λ) = [s_j/λ − w_j/c_j]` clamped to `[0, 1]`, with the water
//! level λ found by bisection on the monotone map `λ ↦ Σ_j ρ_j(λ)`.
//! The solver alternates exact fills with Table-I-style mode
//! best-responses at the implied prices, then polishes with
//! single-user mode flips and pairwise swaps; every iterate is
//! primal-feasible, and the best objective seen is returned.
//!
//! On these problems the best-response loop rarely converges: in most
//! solves it settles into a 2-cycle between two mode vectors. The loop
//! stops at the first repeated vector, since a fill depends only on its
//! modes, so it fills about three vectors per solve on the paper's
//! Fig. 5 workload instead of sixteen. The flip/swap polish does the
//! real mode search: in a probe it improved on the loop's best in 32%
//! of the paper's `Q(c)` solves and in 92% of the `pu_burst` pack's
//! serve-path solves. Yet most of its candidates lose, and the fill's
//! own water levels say which. At those prices every user's Lagrangian
//! (eqs. (13)–(14)) prices a move to its other branch, and by weak
//! duality no candidate fills to more than the current value plus the
//! budgets' slack plus its movers' reduced costs. The polish refills
//! only the candidates whose bound, plus a derived bound on the
//! rounding, can clear its acceptance step: on the paper's Fig. 5
//! workload about one in seven. A skipped candidate is one its refill
//! would have rejected, so every result keeps its bits (DESIGN §15).
//!
//! A refilled candidate need not refill every budget it touches. A
//! mover that holds share 0 in the budget it leaves, or would hold
//! share 0 in the one it joins, moves no bisection step of that budget
//! to the other side: each step where its share is positive lies at or
//! below the fill's final bracket floor, where the share sum exceeds 1
//! with or without it. Each fill records that floor, its count of
//! effective members and its largest `s·c/w` beside its level, and a
//! refill keeps the budgets those facts prove unchanged, writing only
//! its joiners' zero shares. At the dual's 2 000 users the polish's
//! refills keep about four in five of the budgets they touch, and no
//! longer re-bisect the MBS budget's ~200 members for a user that holds
//! share 0 on both sides (DESIGN §15).
//!
//! Each bisection stops at the first step that moves neither bound;
//! every later step would repeat it. Its share sums are certified,
//! not evaluated blind. The members' breakpoints in `1/λ` estimate the
//! level, and probes at and next to the estimate prove a bracket: the
//! rounded share sum never rises with λ, so a probe whose sum exceeds 1
//! decides every step below it, and one whose sum is at most 1 every
//! step above it. Where the bracket also proves that the bisection from
//! `(0, λ_hi)` would end at the adjacent pair around the level within
//! its cap, the bisection starts from the bracket; elsewhere it runs
//! from `(0, λ_hi)` and evaluates only the steps the certificates leave
//! open. Either way it ends where the blind loop ends, bit for bit. The
//! estimate is the level itself or one ulp from it in nearly every
//! fill, so a fill on the paper's workload evaluates about 2.3 share
//! sums instead of 54 (DESIGN §15).
//!
//! Within one greedy run ([`crate::greedy`]) every solve goes through
//! one scratch that caches the run's budget fills. A fill is a pure
//! function of its budget, of that FBS's `G_i` (the MBS budget's rates
//! do not depend on `G`) and of the members it gathers, and those
//! repeat across the run's `Q(c)` solves, so a repeated fill replays
//! its λ and shares instead of bisecting again. The public entry
//! points ([`WaterfillingSolver::solve`], [`WaterfillingSolver::polish`]
//! and the fills) cache nothing.
//!
//! This is *not* the paper's distributed algorithm — that is
//! [`crate::dual`] — but it computes the same optimum (the tests check
//! agreement) orders of magnitude faster, which matters inside the
//! greedy channel allocator where `Q(c)` is evaluated `O(N²M²)` times.

use crate::allocation::{Allocation, Mode, UserAllocation};
use crate::lagrangian;
use crate::problem::SlotProblem;
use crate::soa::{FillScratch, Level, SoaProblem};

/// Water-filling solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterfillingSolver {
    /// Cap on the mode vectors the best-response loop fills, and on the
    /// polish's passes. The loop stops earlier, at the first mode
    /// vector it has already filled; the polish, at the first pass
    /// that improves nothing.
    pub max_rounds: usize,
    /// Cap on the bisection steps per budget fill, counted from the
    /// bracket `(0, λ_hi)` (60 reaches f64 precision wherever
    /// `λ_hi/λ ≤ 32`). A fill stops earlier, at the first step that
    /// moves neither end of the bracket. It starts from a narrower,
    /// certified bracket only where that provably ends at the same pair
    /// within this cap, so every level and share is a function of the
    /// cap as if each step had been taken (DESIGN §15).
    pub bisection_iters: usize,
    /// When `num_users ≤ exhaustive_modes_up_to` (internally capped at
    /// 20), [`Self::solve`] skips the heuristic mode iteration and
    /// brute-forces every `2^n` Theorem-1 mode vector with one exact
    /// fill each, making the returned allocation the global optimum up
    /// to bisection precision. `0` (the default) disables the exact
    /// path; conformance tests enable it on tiny instances so that
    /// none of their assertions hinge on the heuristic mode search
    /// (which carries no optimality guarantee).
    pub exhaustive_modes_up_to: usize,
    /// [`Self::polish`] tries pairwise mode swaps only when
    /// `num_users ≤ swap_users_up_to` — the swap neighborhood is
    /// `O(n²)` candidates, each refilling the MBS budget and the two
    /// users' FBS budgets, which is the difference between microseconds
    /// at the paper's N ≤ 3 and minutes per pass at a massive-N slot's
    /// thousands of users. Flip polishing (linear in users, two budgets
    /// per flip) always runs.
    pub swap_users_up_to: usize,
}

impl Default for WaterfillingSolver {
    fn default() -> Self {
        Self {
            max_rounds: 16,
            bisection_iters: 60,
            exhaustive_modes_up_to: 0,
            swap_users_up_to: 256,
        }
    }
}

impl WaterfillingSolver {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver that is *exact* on problems with at most `limit` users:
    /// [`Self::solve`] brute-forces all `2^n` Theorem-1 mode vectors
    /// there (one exact water-fill each), and falls back to the default
    /// heuristic path on anything larger. Cost is `2^n` fills per
    /// evaluation, so keep `limit` small.
    pub fn exact_up_to(limit: usize) -> Self {
        Self {
            exhaustive_modes_up_to: limit,
            ..Self::default()
        }
    }

    /// Solves the slot problem: returns a feasible allocation maximizing
    /// objective (12)/(17) (global optimum of the convex program up to
    /// mode local-search, which the cross-validation tests confirm
    /// reaches the dual solver's value; exactly global when the
    /// [`Self::exact_up_to`] path applies).
    pub fn solve(&self, problem: &SlotProblem) -> Allocation {
        self.solve_in(problem, &mut FillScratch::new())
    }

    /// [`Self::solve`] through the caller's scratch. The greedy
    /// allocator passes every solve of one run the same caching
    /// scratch, so a budget fill made by one `Q(c)` solve is replayed
    /// by the next that needs it.
    pub(crate) fn solve_in(&self, problem: &SlotProblem, scratch: &mut FillScratch) -> Allocation {
        // One SoA view and one scratch serve every fill of the solve —
        // the gathers become contiguous sweeps and the bisection stops
        // allocating (the hot-path win that makes massive-N Q(c)
        // evaluations cheap).
        let soa = SoaProblem::from_problem(problem);
        let allocation = if problem.num_users() <= self.exhaustive_modes_up_to.min(20) {
            self.solve_exact_modes(problem, &soa, scratch)
        } else {
            self.solve_heuristic_modes(problem, &soa, scratch)
        };
        fcr_telemetry::incr("waterfill.solves", 1);
        scratch.flush_counters();
        allocation
    }

    /// The mode loop, then the polish. The loop stops at the first mode
    /// vector it has already filled: a fill depends only on its modes
    /// and `best` moves only on a strict improvement, so every later
    /// round would repeat a value already seen. It fills the distinct
    /// prefix of the best-response sequence, at most `max_rounds`
    /// vectors.
    fn solve_heuristic_modes(
        &self,
        problem: &SlotProblem,
        soa: &SoaProblem,
        scratch: &mut FillScratch,
    ) -> Allocation {
        // Myopic initial modes: compare each branch's solo value.
        let modes: Vec<Mode> = problem
            .users()
            .iter()
            .enumerate()
            .map(|(j, u)| {
                let (w, ln_w) = (u.w(), u.ln_w());
                let v_mbs =
                    lagrangian::branch_value_ln(u.success_mbs(), 0.0, w, ln_w, u.r_mbs(), 1.0);
                let v_fbs = lagrangian::branch_value_ln(
                    u.success_fbs(),
                    0.0,
                    w,
                    ln_w,
                    problem.fbs_rate(j),
                    1.0,
                );
                if v_mbs > v_fbs {
                    Mode::Mbs
                } else {
                    Mode::Fbs
                }
            })
            .collect();

        let (mut best, mut levels) = self.fill_levels(soa, &modes, scratch);
        let mut best_value = problem.objective(&best);
        let mut best_levels = levels.clone();
        let mut filled = vec![modes];
        while filled.len() < self.max_rounds {
            // Best-response modes at the implied prices (Table I step 4).
            let modes: Vec<Mode> = problem
                .users()
                .iter()
                .map(|u| {
                    let sol = lagrangian::solve_user(
                        u,
                        problem.g(u.fbs()),
                        levels[0].lambda,
                        levels[1 + u.fbs().0].lambda,
                    );
                    sol.allocation.mode
                })
                .collect();
            if filled.contains(&modes) {
                break;
            }
            let (alloc, next) = self.fill_levels(soa, &modes, scratch);
            let value = problem.objective(&alloc);
            if value > best_value {
                best_value = value;
                best = alloc;
                best_levels.clone_from(&next);
            }
            levels = next;
            filled.push(modes);
        }
        fcr_telemetry::incr("waterfill.mode_rounds", filled.len() as u64);

        // `best` is a fill of its own modes, so the polish starts from
        // it and its water levels as they are.
        let start = IncrementalFill::new(problem, &best, best_levels);
        self.polish_with(problem, soa, scratch, best, start)
    }

    /// Global optimum by enumeration: every `2^n` binary mode vector of
    /// Theorem 1, each filled exactly, best objective wins. Only called
    /// for `n ≤ min(exhaustive_modes_up_to, 20)`, so the loop is cheap.
    fn solve_exact_modes(
        &self,
        problem: &SlotProblem,
        soa: &SoaProblem,
        scratch: &mut FillScratch,
    ) -> Allocation {
        let n = problem.num_users();
        let mut best: Option<(f64, Allocation)> = None;
        for bits in 0..(1u32 << n) {
            let modes: Vec<Mode> = (0..n)
                .map(|j| {
                    if bits >> j & 1 == 1 {
                        Mode::Fbs
                    } else {
                        Mode::Mbs
                    }
                })
                .collect();
            let candidate = self.fill_soa(soa, &modes, scratch).0;
            let value = problem.objective(&candidate);
            if best.as_ref().is_none_or(|(b, _)| value > *b) {
                best = Some((value, candidate));
            }
        }
        best.expect("at least the all-MBS mode vector was evaluated")
            .1
    }

    /// Local search over mode vectors starting from `allocation`: single
    /// flips and pairwise swaps, each candidate refilled exactly. Swaps
    /// matter: exchanging which user holds the big FBS pipe and which
    /// holds the common channel is a two-coordinate move a flip-only
    /// search cannot reach. Returns the best allocation found (never
    /// worse than the input; the input itself when nothing improves).
    ///
    /// A candidate changes the members of the MBS budget and of the
    /// changed users' FBS budgets only, so only those budgets are
    /// refilled and only their members' objective terms recomputed; the
    /// rest of the fill carries over. A candidate that the fill's water
    /// levels prove cannot clear the acceptance step is not refilled at
    /// all (DESIGN §15). The result is bit-identical to refilling every
    /// budget per candidate.
    ///
    /// # Panics
    ///
    /// Panics if `allocation` covers a different number of users than
    /// `problem`.
    pub fn polish(&self, problem: &SlotProblem, allocation: Allocation) -> Allocation {
        assert_eq!(
            allocation.len(),
            problem.num_users(),
            "allocation size mismatch"
        );
        let modes: Vec<Mode> = allocation.users().iter().map(|u| u.mode).collect();
        self.polish_fill_of(problem, &modes, Some(allocation))
    }

    /// [`Self::polish`] of [`Self::fill_given_modes`]`(problem, modes)`,
    /// bit for bit, with the modes filled once: the polish starts from
    /// that fill and its water levels instead of filling the same modes
    /// again. The dual's primal recovery.
    pub(crate) fn fill_and_polish(&self, problem: &SlotProblem, modes: &[Mode]) -> Allocation {
        self.polish_fill_of(problem, modes, None)
    }

    /// Fills `modes` and polishes from that fill. The polish returns
    /// `input` when it improves on nothing, or the fill itself without
    /// one.
    fn polish_fill_of(
        &self,
        problem: &SlotProblem,
        modes: &[Mode],
        input: Option<Allocation>,
    ) -> Allocation {
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        // An input need not be a fill of its own modes; every candidate
        // is, so the search runs on that fill from the start.
        let (filled, levels) = self.fill_levels(&soa, modes, &mut scratch);
        let start = IncrementalFill::new(problem, &filled, levels);
        let allocation = input.unwrap_or(filled);
        let polished = self.polish_with(problem, &soa, &mut scratch, allocation, start);
        scratch.flush_counters();
        polished
    }

    /// The polish search from `fill`, the fill of `allocation`'s modes.
    fn polish_with(
        &self,
        problem: &SlotProblem,
        soa: &SoaProblem,
        scratch: &mut FillScratch,
        allocation: Allocation,
        mut fill: IncrementalFill,
    ) -> Allocation {
        let n_users = problem.num_users();
        let mut best_value = problem.objective(&allocation);
        let mut modes: Vec<Mode> = allocation.users().iter().map(|u| u.mode).collect();
        let mut accepted = false;
        let mut prices = Prices::new(soa);
        // The prices are those of `fill`'s water levels; a kept
        // candidate moves them.
        let mut priced = false;
        let mut improved = true;
        let mut passes = 0;
        while improved && passes < self.max_rounds {
            improved = false;
            passes += 1;
            for j in 0..n_users {
                if !priced {
                    prices.update(soa, &fill);
                    priced = true;
                }
                if !prices.admits(prices.flip[j], best_value + 1e-12) {
                    scratch.polish_pruned += 1;
                    continue;
                }
                scratch.polish_refills += 1;
                modes[j] = flip(modes[j]);
                let value = self.refill(problem, soa, &modes, scratch, &mut fill, &[j]);
                if value > best_value + 1e-12 {
                    best_value = value;
                    fill.keep();
                    accepted = true;
                    improved = true;
                    priced = false;
                } else {
                    fill.undo();
                    modes[j] = flip(modes[j]);
                }
            }
            if !improved && n_users <= self.swap_users_up_to {
                'swaps: for j in 0..n_users {
                    for k in (j + 1)..n_users {
                        if modes[j] == modes[k] {
                            continue;
                        }
                        if !prices.admits(prices.swap[j] + prices.swap[k], best_value + 1e-12) {
                            scratch.polish_pruned += 1;
                            continue;
                        }
                        scratch.polish_refills += 1;
                        modes.swap(j, k);
                        let value = self.refill(problem, soa, &modes, scratch, &mut fill, &[j, k]);
                        if value > best_value + 1e-12 {
                            best_value = value;
                            fill.keep();
                            accepted = true;
                            improved = true;
                            priced = false;
                            break 'swaps;
                        }
                        fill.undo();
                        modes.swap(j, k);
                    }
                }
            }
        }
        if accepted {
            Allocation::new(fill.users)
        } else {
            allocation
        }
    }

    /// Turns `fill` into the fill of `modes`, which differ from its own
    /// modes exactly at the `changed` users, each flipped: refills the
    /// MBS budget and each changed user's FBS budget (every other budget
    /// keeps its members, hence its shares and water level), logging
    /// what it overwrites. A budget that [`keeps`] proves the move leaves
    /// as it is gets only its joiners' zero-share entries. Returns the
    /// candidate's objective.
    fn refill(
        &self,
        problem: &SlotProblem,
        soa: &SoaProblem,
        modes: &[Mode],
        scratch: &mut FillScratch,
        fill: &mut IncrementalFill,
        changed: &[usize],
    ) -> f64 {
        // Bit `k` is set when `changed[k]` holds share 0 before the
        // move. At the paper's scale most refilled candidates move a
        // user that holds a share, and this test settles them.
        let idle = changed.iter().enumerate().fold(0u64, |idle, (k, &j)| {
            idle | u64::from(fill.users[j].rho() == 0.0) << k
        });
        let fbs_budgets = changed
            .iter()
            .enumerate()
            .filter(|&(k, &j)| changed[..k].iter().all(|&i| soa.fbs(i) != soa.fbs(j)))
            .map(|(_, &j)| 1 + soa.fbs(j).0);
        for b in std::iter::once(0).chain(fbs_budgets) {
            let level = fill.levels[b];
            if let Some(effective) = keeps(&level, soa, modes, changed, idle, b) {
                scratch.budgets_kept += 1;
                let zero = if b == 0 {
                    UserAllocation::mbs(0.0)
                } else {
                    UserAllocation::fbs(0.0)
                };
                for &j in changed {
                    if budget_of(soa, j, modes[j]) == b {
                        fill.write(problem, j, zero);
                    }
                }
                fill.set_level(b, Level { effective, ..level });
                continue;
            }
            let level = self.fill_budget(soa, modes, b, scratch, |u, a| fill.write(problem, u, a));
            fill.set_level(b, level);
        }
        fill.value()
    }

    /// Exact optimal shares for fixed modes (every budget filled by
    /// bisection). The returned allocation is feasible by construction.
    pub fn fill_given_modes(&self, problem: &SlotProblem, modes: &[Mode]) -> Allocation {
        self.fill_with_prices(problem, modes).0
    }

    /// As [`Self::fill_given_modes`], also returning the water levels
    /// `[λ_0, λ_1, …, λ_N]` (zero for slack constraints).
    ///
    /// # Panics
    ///
    /// Panics if `modes.len()` differs from the problem's user count.
    pub fn fill_with_prices(
        &self,
        problem: &SlotProblem,
        modes: &[Mode],
    ) -> (Allocation, Vec<f64>) {
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        let filled = self.fill_soa(&soa, modes, &mut scratch);
        scratch.flush_counters();
        filled
    }

    /// As [`Self::fill_with_prices`], but through a prebuilt
    /// [`SoaProblem`] view and a reusable [`FillScratch`] — the zero-
    /// allocation hot path the greedy allocator's `Q(c)` evaluations
    /// run on. Bit-identical to the one-shot entry points (it *is*
    /// their implementation).
    ///
    /// # Panics
    ///
    /// Panics if `modes.len()` differs from the problem's user count.
    pub fn fill_soa(
        &self,
        soa: &SoaProblem,
        modes: &[Mode],
        scratch: &mut FillScratch,
    ) -> (Allocation, Vec<f64>) {
        let (allocation, levels) = self.fill_levels(soa, modes, scratch);
        (allocation, levels.iter().map(|l| l.lambda).collect())
    }

    /// As [`Self::fill_soa`], with each budget's whole [`Level`].
    fn fill_levels(
        &self,
        soa: &SoaProblem,
        modes: &[Mode],
        scratch: &mut FillScratch,
    ) -> (Allocation, Vec<Level>) {
        assert_eq!(modes.len(), soa.num_users(), "mode vector size mismatch");
        // Every user belongs to exactly one budget, so every entry is
        // written once.
        let mut allocations = vec![UserAllocation::idle(); soa.num_users()];
        let levels = (0..=soa.num_fbss())
            .map(|b| self.fill_budget(soa, modes, b, scratch, |j, a| allocations[j] = a))
            .collect();
        (Allocation::new(allocations), levels)
    }

    /// Fills budget `b` at `modes` — the MBS budget for `b = 0`, FBS
    /// `b − 1`'s otherwise: gathers its members, bisects (or, through a
    /// greedy run's caching scratch, replays a fill already made over
    /// the same members), and hands each member's entry to `write`.
    /// Returns the budget's level.
    fn fill_budget(
        &self,
        soa: &SoaProblem,
        modes: &[Mode],
        b: usize,
        scratch: &mut FillScratch,
        mut write: impl FnMut(usize, UserAllocation),
    ) -> Level {
        scratch.budget_fills += 1;
        scratch.clear();
        if b == 0 {
            // Members gathered in ascending user order, exactly as the
            // array-of-structs filter visited them.
            for (j, mode) in modes.iter().enumerate() {
                if *mode == Mode::Mbs {
                    scratch.idx.push(j);
                }
            }
        } else {
            // The CSR group is ascending, so member order again matches
            // the filter.
            for &j in soa.users_of(b - 1) {
                if modes[j] == Mode::Fbs {
                    scratch.idx.push(j);
                }
            }
        }
        // The MBS budget's rates are `R_{0,j}`; FBS `i`'s are `G_i·R_{i,j}`.
        let g = (b > 0).then(|| soa.g(b - 1));
        let member = |j: usize| {
            if b == 0 {
                (soa.s_mbs(j), soa.w(j), soa.r_mbs(j))
            } else {
                (soa.s_fbs(j), soa.w(j), soa.fbs_rate(j))
            }
        };
        let level = scratch.fill_once(b, g, member, |scratch| self.fill_constraint(scratch));
        let entry = if b == 0 {
            UserAllocation::mbs
        } else {
            UserAllocation::fbs
        };
        for (&j, &share) in scratch.idx.iter().zip(&scratch.shares) {
            write(j, entry(share));
        }
        level
    }

    /// Solves one budget over the members gathered in `scratch`:
    /// returns its level and leaves the shares (`Σ ≤ 1`) in
    /// `scratch.shares`.
    fn fill_constraint(&self, scratch: &mut FillScratch) -> Level {
        // Users that cannot benefit (zero rate or success) always get 0
        // and take no part in the count or in λ_hi, where every share
        // hits zero.
        let (mut effective, mut largest) = (0, f64::MIN_POSITIVE);
        for k in 0..scratch.len() {
            if scratch.s[k] > 0.0 && scratch.c[k] > 0.0 {
                effective += 1;
                largest = largest.max(scratch.s[k] * scratch.c[k] / scratch.w[k]);
            }
        }
        if effective <= 1 {
            // A lone beneficiary takes the whole budget (λ = 0 cap);
            // without one, every share is 0.
            scratch.set_shares(0.0);
            return Level {
                lambda: 0.0,
                floor: 0.0,
                effective,
                largest,
            };
        }
        let lambda_hi = largest * (1.0 + 1e-9);
        // At λ→0 all effective shares are 1, so the sum is n_eff ≥ 2 > 1:
        // the budget binds and bisection is well-posed. The plain loop
        // bisects `(0, λ_hi)`; the certificates decide each step they
        // can without a share sum, and when they prove that the plain
        // loop ends at the adjacent pair around the level, the loop
        // starts from them instead (DESIGN §15).
        let mut known = Certificates {
            above: 0.0,
            below: f64::INFINITY,
        };
        if self.bisection_iters > 0 {
            if let Some(estimate) = scratch.level_estimate() {
                known.probe_around(scratch, estimate);
            }
        }
        let (mut lo, mut hi, steps) = if known.prove_adjacency(lambda_hi, self.bisection_iters) {
            (known.above, known.below, usize::MAX)
        } else {
            (0.0, lambda_hi, self.bisection_iters)
        };
        for _ in 0..steps {
            let mid = 0.5 * (lo + hi);
            let bound = if known.exceeds(scratch, mid) {
                &mut lo
            } else {
                &mut hi
            };
            // A step that moves neither bound leaves `(lo, hi)` as it
            // found them, so every later step would repeat it.
            if *bound == mid {
                break;
            }
            *bound = mid;
        }
        // `hi` is on the feasible side (Σ ≤ 1).
        scratch.set_shares(hi);
        Level {
            lambda: hi,
            floor: lo,
            effective,
            largest,
        }
    }
}

/// The farthest, in ulps, that the probes gallop from a level
/// estimate before they leave the rest of the bracket to the
/// bisection.
const GALLOP_ULPS: u64 = 1 << 12;

/// The steps the plain bisection from `(0, λ_hi)` may take before its
/// bracket is adjacent, beyond `⌈log2(λ_hi/above)⌉` (DESIGN §15).
const ADJACENCY_STEPS: usize = 55;

/// What a fill has proven about its share sum `S`: `S(above) > 1` and
/// `S(below) ≤ 1`. The rounded `S` is non-increasing in `λ` (DESIGN
/// §15), so `S > 1` at every `λ ≤ above` and `S ≤ 1` at every
/// `λ ≥ below`. At `λ = 0` every effective share is 1, which proves
/// `above = 0` for any budget with two effective members.
#[derive(Debug)]
struct Certificates {
    above: f64,
    below: f64,
}

impl Certificates {
    /// Whether `S(lambda) > 1`: read from the certificates where they
    /// decide it, else evaluated, counted and kept as a certificate.
    fn exceeds(&mut self, scratch: &mut FillScratch, lambda: f64) -> bool {
        if lambda <= self.above {
            return true;
        }
        if lambda >= self.below {
            return false;
        }
        scratch.bisection_steps += 1;
        let exceeds = scratch.share_sum(lambda) > 1.0;
        if exceeds {
            self.above = lambda;
        } else {
            self.below = lambda;
        }
        exceeds
    }

    /// Certifies both sides of `estimate`, a finite positive level that
    /// is usually the level itself or one ulp from it: probes the
    /// estimate, then gallops away from it on the side its sum points
    /// to, 1, 2, 4, … ulps out, until a probe lands on the other side
    /// or the gallop passes [`GALLOP_ULPS`]. Every probe certifies the
    /// side it lands on, so in most fills the first two probes leave
    /// an adjacent pair.
    fn probe_around(&mut self, scratch: &mut FillScratch, estimate: f64) {
        let bits = estimate.to_bits();
        // Whether the level lies above the estimate.
        let up = self.exceeds(scratch, estimate);
        let mut ulps = 1;
        while ulps <= GALLOP_ULPS {
            // Positive finite floats are ordered as their bits.
            let probe = if up {
                bits.checked_add(ulps)
            } else {
                bits.checked_sub(ulps)
            }
            .map(f64::from_bits)
            .filter(|probe| *probe > 0.0 && probe.is_finite());
            match probe {
                Some(probe) if self.exceeds(scratch, probe) == up => ulps *= 2,
                _ => break,
            }
        }
    }

    /// Whether the plain bisection from `(0, lambda_hi)`, capped at
    /// `cap` steps, provably ends at the adjacent pair `(pred λ_c,
    /// λ_c)` around the smallest level `λ_c` with `S ≤ 1`, as the
    /// bisection from `(above, below)` does. It does when both sides
    /// are certified, the bracket lies inside one binade with three
    /// ulps to spare at each end, no sum or halving of the plain loop
    /// can overflow or underflow, and `55 + ⌈log2(lambda_hi/above)⌉ ≤
    /// cap` (DESIGN §15).
    fn prove_adjacency(&self, lambda_hi: f64, cap: usize) -> bool {
        let (above, below) = (self.above, self.below);
        if !(2.0 * f64::MIN_POSITIVE <= above
            && above < below
            && below <= lambda_hi
            && lambda_hi <= f64::MAX / 2.0
            && cap >= ADJACENCY_STEPS)
        {
            return false;
        }
        // `above`'s binade `[2^e, 2^(e+1))` and its ulp `2^(e−52)`.
        let binade = f64::from_bits(above.to_bits() & f64::INFINITY.to_bits());
        let ulp = binade * f64::EPSILON;
        if above < binade + 3.0 * ulp || below > 2.0 * binade - 3.0 * ulp {
            return false;
        }
        // `⌈log2(lambda_hi/above)⌉ ≤ spare` ⟺ `lambda_hi ≤ above·2^spare`.
        let spare = cap - ADJACENCY_STEPS;
        let scale = if spare > 1023 {
            f64::INFINITY
        } else {
            f64::from_bits((1023 + spare as u64) << 52)
        };
        lambda_hi <= above * scale
    }
}

fn flip(mode: Mode) -> Mode {
    match mode {
        Mode::Mbs => Mode::Fbs,
        Mode::Fbs => Mode::Mbs,
    }
}

/// The budget a user in `mode` draws on: 0 for the MBS, `1 + i` for
/// its FBS `i`.
fn budget_of(soa: &SoaProblem, j: usize, mode: Mode) -> usize {
    match mode {
        Mode::Mbs => 0,
        Mode::Fbs => 1 + soa.fbs(j).0,
    }
}

/// User `j`'s success probability and rate in `mode`.
fn branch_of(soa: &SoaProblem, j: usize, mode: Mode) -> (f64, f64) {
    match mode {
        Mode::Mbs => (soa.s_mbs(j), soa.r_mbs(j)),
        Mode::Fbs => (soa.s_fbs(j), soa.fbs_rate(j)),
    }
}

/// Whether moving the `changed` users to `modes`, each flipped, keeps
/// budget `b`'s fill at `level` as it is, and if so the budget's new
/// count of effective members. Bit `k` of `idle` says that `changed[k]`
/// holds share 0 before the move; a budget that a mover holding a share
/// leaves or joins is refilled without further test. Each mover that
/// leaves or joins `b` must be one that cannot benefit there, or one
/// that
///
/// - holds share 0 at the fill's bracket floor, under the fill's own
///   share expression,
/// - has an `s·c/w` below the budget's largest (a joiner may tie it),
///
/// and the budget must keep at least two effective members. Then every
/// bisection step takes the same side with or without the movers, so
/// the level and every other member's share keep their bits, and each
/// joiner's share is 0 (DESIGN §15).
fn keeps(
    level: &Level,
    soa: &SoaProblem,
    modes: &[Mode],
    changed: &[usize],
    idle: u64,
    b: usize,
) -> Option<usize> {
    let mut effective = level.effective;
    let mut counted = false;
    for (k, &j) in changed.iter().enumerate() {
        let joins = budget_of(soa, j, modes[j]) == b;
        let mode = if joins { modes[j] } else { flip(modes[j]) };
        if !joins && budget_of(soa, j, mode) != b {
            continue;
        }
        if idle >> k & 1 == 0 {
            return None;
        }
        let (s, c) = branch_of(soa, j, mode);
        if !(s > 0.0 && c > 0.0) {
            // Share 0 at every level, and no part in the count or λ_hi.
            continue;
        }
        let w = soa.w(j);
        let ratio = s * c / w;
        let below = ratio < level.largest || joins && ratio == level.largest;
        if !below || lagrangian::best_share(s, level.floor, w, c) != 0.0 {
            return None;
        }
        counted = true;
        if joins {
            effective += 1;
        } else {
            effective -= 1;
        }
    }
    (!counted || level.effective >= 2 && effective >= 2).then_some(effective)
}

/// The polish's working fill: each user's entry and objective term,
/// each budget's level, plus a log of what the candidate under
/// evaluation overwrote.
struct IncrementalFill {
    users: Vec<UserAllocation>,
    terms: Vec<f64>,
    levels: Vec<Level>,
    log: Vec<(usize, UserAllocation, f64)>,
    level_log: Vec<(usize, Level)>,
}

impl IncrementalFill {
    /// The working copy of `fill`, whose levels are `levels`.
    fn new(problem: &SlotProblem, fill: &Allocation, levels: Vec<Level>) -> Self {
        let users = fill.users().to_vec();
        let terms = (0..users.len())
            .map(|j| problem.entry_objective(j, users[j]))
            .collect();
        Self {
            users,
            terms,
            levels,
            log: Vec::new(),
            level_log: Vec::new(),
        }
    }

    fn write(&mut self, problem: &SlotProblem, j: usize, a: UserAllocation) {
        self.log.push((j, self.users[j], self.terms[j]));
        self.users[j] = a;
        self.terms[j] = problem.entry_objective(j, a);
    }

    /// Sets budget `b`'s level.
    fn set_level(&mut self, b: usize, level: Level) {
        self.level_log.push((b, self.levels[b]));
        self.levels[b] = level;
    }

    /// The objective: the cached terms summed in user order, the same
    /// left fold [`SlotProblem::objective`] takes over fresh terms.
    fn value(&self) -> f64 {
        self.terms.iter().sum()
    }

    /// Accepts the candidate.
    fn keep(&mut self) {
        self.log.clear();
        self.level_log.clear();
    }

    /// Rejects the candidate: restores every entry, term and level it
    /// wrote.
    fn undo(&mut self) {
        while let Some((j, a, term)) = self.log.pop() {
            self.users[j] = a;
            self.terms[j] = term;
        }
        while let Some((b, level)) = self.level_log.pop() {
            self.levels[b] = level;
        }
    }
}

/// The unit roundoff `u` of `f64`.
pub(crate) const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// `γ_k = k·u / (1 − k·u)`: the relative error bound of `k` rounded
/// operations in sequence, such as a `k + 1`-term sum.
pub(crate) fn gamma(k: usize) -> f64 {
    let ku = k as f64 * UNIT_ROUNDOFF;
    ku / (1.0 - ku)
}

/// A user's magnitude `m = max(|ln w|, |ln(w + widest)|)`, `widest` the
/// larger of its two rates: the largest `|ln|` its objective term takes
/// in either mode at any share, which bounds the sum of the term's two
/// components' magnitudes (`w < 1` included).
pub(crate) fn magnitude(w: f64, ln_w: f64, widest: f64) -> f64 {
    ln_w.abs().max((w + widest).ln().abs())
}

/// A fill's water levels as prices on the polish's candidates.
///
/// At levels `λ_b ≥ 0`, user `j`'s Lagrangian on a branch is its best
/// `success·ln(w + ρ·rate) + (1 − success)·ln(w) − λ_b·ρ` over
/// `ρ ∈ [0, 1]` (eq. (14); [`lagrangian::best_share`] and
/// [`lagrangian::branch_value`]). Its reduced cost is its other
/// branch's value minus its current branch's. By weak duality, a
/// candidate that moves the users `J` fills to at most
/// `value + Σ_b λ_b·(1 − load_b) + Σ_{j∈J} rc_j`, where `value` and
/// `load_b` are the fill's. A flip into a budget with no member
/// strictly inside `(0, 1)` may price that budget above its level, up
/// to the least full-share marginal value `s·c/(w + c)` of its
/// saturated members: over that range the budget's own part of the
/// bound does not grow, and the mover's value only falls. `margin`
/// bounds the rounding of both objective folds, the reduced costs and
/// the slack (derived in DESIGN §15).
struct Prices {
    /// The sum and the largest of the users' magnitudes `m_j`: the
    /// largest `|ln|` user `j`'s objective term takes in either mode at
    /// any share, `max(|ln w|, |ln(w + rate)|)` over both rates, which
    /// bounds the sum of the term's two components' magnitudes (`w < 1`
    /// included).
    magnitude_sum: f64,
    magnitude_max: f64,
    /// Per user, the reduced cost of moving it in a swap: its other
    /// branch at that budget's level.
    swap: Vec<f64>,
    /// Per user, the reduced cost of flipping it: as `swap`, at the
    /// raised destination level where one applies.
    flip: Vec<f64>,
    /// `value + Σ_b λ_b·(1 − load_b)`.
    base: f64,
    /// The rounding bound added to every candidate's bound.
    margin: f64,
    /// Per budget: load, whether a member sits strictly inside
    /// `(0, 1)`, and the least full-share marginal value of its
    /// saturated members (`∞` without one).
    load: Vec<f64>,
    interior: Vec<bool>,
    saturated: Vec<f64>,
}

impl Prices {
    fn new(soa: &SoaProblem) -> Self {
        let (mut magnitude_sum, mut magnitude_max) = (0.0, 0.0f64);
        for j in 0..soa.num_users() {
            let widest = soa.r_mbs(j).max(soa.fbs_rate(j));
            let magnitude = magnitude(soa.w(j), soa.ln_w(j), widest);
            magnitude_sum += magnitude;
            magnitude_max = magnitude_max.max(magnitude);
        }
        Self {
            magnitude_sum,
            magnitude_max,
            swap: Vec::new(),
            flip: Vec::new(),
            base: 0.0,
            margin: 0.0,
            load: Vec::new(),
            interior: Vec::new(),
            saturated: Vec::new(),
        }
    }

    /// Prices every user at `fill`'s water levels.
    fn update(&mut self, soa: &SoaProblem, fill: &IncrementalFill) {
        let n_budgets = fill.levels.len();
        self.load.clear();
        self.load.resize(n_budgets, 0.0);
        self.interior.clear();
        self.interior.resize(n_budgets, false);
        self.saturated.clear();
        self.saturated.resize(n_budgets, f64::INFINITY);
        for (j, a) in fill.users.iter().enumerate() {
            let b = budget_of(soa, j, a.mode);
            let rho = a.rho();
            self.load[b] += rho;
            if rho == 1.0 {
                let (s, c) = branch_of(soa, j, a.mode);
                self.saturated[b] = self.saturated[b].min(s * c / (soa.w(j) + c));
            } else if rho > 0.0 {
                self.interior[b] = true;
            }
        }
        let mut slack = 0.0;
        let mut weighted = 0.0;
        let mut lambda_max: f64 = 0.0;
        for (level, &load) in fill.levels.iter().zip(&self.load) {
            let lambda = level.lambda;
            slack += lambda * (1.0 - load);
            weighted += lambda * (1.0 + load);
            lambda_max = lambda_max.max(lambda);
        }
        self.swap.clear();
        self.flip.clear();
        for (j, a) in fill.users.iter().enumerate() {
            let (w, ln_w) = (soa.w(j), soa.ln_w(j));
            let (s, c) = branch_of(soa, j, a.mode);
            let lambda = fill.levels[budget_of(soa, j, a.mode)].lambda;
            let here = lagrangian::branch_value_ln(s, lambda, w, ln_w, c, a.rho());
            let there = flip(a.mode);
            let (s, c) = branch_of(soa, j, there);
            let away = |lambda: f64| {
                let rho = lagrangian::best_share(s, lambda, w, c);
                lagrangian::branch_value_ln(s, lambda, w, ln_w, c, rho) - here
            };
            let b = budget_of(soa, j, there);
            let lambda = fill.levels[b].lambda;
            let swap = away(lambda);
            let raised = self.saturated[b];
            let flip = if !self.interior[b] && raised.is_finite() && raised > lambda {
                lambda_max = lambda_max.max(raised);
                away(raised)
            } else {
                swap
            };
            self.swap.push(swap);
            self.flip.push(flip);
        }
        let n = fill.users.len();
        let u = UNIT_ROUNDOFF;
        self.margin = (2.0 * gamma(n) + 18.0 * u) * (self.magnitude_sum + n as f64)
            + (3.0 * gamma(n + n_budgets + 2) + 4.0 * u) * weighted
            + (gamma(n) + 53.0 * u) * (self.magnitude_max + 1.0 + lambda_max);
        self.base = fill.value() + slack;
    }

    /// Whether a candidate whose movers' reduced costs sum to
    /// `reduced_cost` could fill to more than `threshold`. A bound that
    /// is NaN admits the candidate.
    fn admits(&self, reduced_cost: f64, threshold: f64) -> bool {
        let bound = self.base + reduced_cost + self.margin;
        bound > threshold || bound.is_nan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::UserState;
    use fcr_net::node::FbsId;
    use proptest::prelude::*;

    fn user(w: f64, s0: f64, s1: f64) -> UserState {
        UserState::new(w, FbsId(0), 0.72, 0.72, s0, s1).unwrap()
    }

    fn paper_like_problem() -> SlotProblem {
        SlotProblem::single_fbs(
            vec![
                user(30.2, 0.9, 0.85),
                user(27.6, 0.8, 0.9),
                user(28.8, 0.85, 0.8),
            ],
            3.0,
        )
        .unwrap()
    }

    #[test]
    fn solution_is_feasible_and_modes_binary() {
        let p = paper_like_problem();
        let alloc = WaterfillingSolver::new().solve(&p);
        assert!(p.is_feasible(&alloc, 1e-9));
        for u in alloc.users() {
            assert!(u.rho_mbs == 0.0 || u.rho_fbs == 0.0, "Theorem 1 binariness");
        }
    }

    #[test]
    fn binding_budgets_are_filled_exactly() {
        // All three users prefer the FBS (G=3 makes it 3× the rate), so
        // the FBS budget must bind at 1.
        let p = paper_like_problem();
        let solver = WaterfillingSolver::new();
        let alloc = solver.solve(&p);
        let fbs_load = alloc.fbs_load(FbsId(0), &p.fbs_of());
        let mbs_load = alloc.mbs_load();
        assert!(
            (fbs_load - 1.0).abs() < 1e-6 || (mbs_load - 1.0).abs() < 1e-6,
            "at least one budget binds: fbs={fbs_load} mbs={mbs_load}"
        );
    }

    #[test]
    fn single_user_takes_the_whole_slot() {
        let p = SlotProblem::single_fbs(vec![user(30.0, 0.9, 0.8)], 3.0).unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        // One user, one budget each side: whichever mode wins gets ρ=1.
        assert!((alloc.user(0).rho() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beats_every_grid_allocation_two_users() {
        // Exhaustive grid over modes × shares for K=2 confirms global
        // optimality of the water-filling + flip solution.
        let p = SlotProblem::single_fbs(vec![user(30.2, 0.9, 0.7), user(27.6, 0.6, 0.95)], 2.5)
            .unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        let best = p.objective(&alloc);
        let grid = 40;
        for m1 in [Mode::Mbs, Mode::Fbs] {
            for m2 in [Mode::Mbs, Mode::Fbs] {
                for a in 0..=grid {
                    for b in 0..=grid {
                        let r1 = a as f64 / grid as f64;
                        let r2 = b as f64 / grid as f64;
                        // Respect each budget.
                        let mbs_sum = f64::from(u8::from(m1 == Mode::Mbs)) * r1
                            + f64::from(u8::from(m2 == Mode::Mbs)) * r2;
                        let fbs_sum = f64::from(u8::from(m1 == Mode::Fbs)) * r1
                            + f64::from(u8::from(m2 == Mode::Fbs)) * r2;
                        if mbs_sum > 1.0 || fbs_sum > 1.0 {
                            continue;
                        }
                        let mk = |m: Mode, r: f64| match m {
                            Mode::Mbs => UserAllocation::mbs(r),
                            Mode::Fbs => UserAllocation::fbs(r),
                        };
                        let candidate = Allocation::new(vec![mk(m1, r1), mk(m2, r2)]);
                        let v = p.objective(&candidate);
                        assert!(
                            v <= best + 1e-6,
                            "grid point ({m1},{r1})/({m2},{r2}) = {v} beats solver {best}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_g_sends_everyone_to_the_mbs() {
        let p =
            SlotProblem::single_fbs(vec![user(30.0, 0.9, 0.9), user(28.0, 0.9, 0.9)], 0.0).unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        for u in alloc.users() {
            assert_eq!(u.mode, Mode::Mbs, "G=0 makes the FBS worthless");
        }
        assert!((alloc.mbs_load() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn large_g_pulls_everyone_to_the_fbs() {
        let p = SlotProblem::single_fbs(vec![user(30.0, 0.9, 0.9), user(28.0, 0.9, 0.9)], 50.0)
            .unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        for u in alloc.users() {
            assert_eq!(u.mode, Mode::Fbs);
        }
    }

    #[test]
    fn multi_fbs_budgets_are_independent() {
        let users = vec![
            UserState::new(30.0, FbsId(0), 0.72, 0.72, 0.2, 0.9).unwrap(),
            UserState::new(29.0, FbsId(0), 0.72, 0.72, 0.2, 0.9).unwrap(),
            UserState::new(28.0, FbsId(1), 0.72, 0.72, 0.2, 0.9).unwrap(),
        ];
        let p = SlotProblem::new(users, vec![3.0, 3.0]).unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        assert!(p.is_feasible(&alloc, 1e-9));
        let fbs_of = p.fbs_of();
        // Low MBS success pushes all users to their FBSs; the lone user
        // of FBS 1 takes its whole budget.
        assert!((alloc.fbs_load(FbsId(1), &fbs_of) - 1.0).abs() < 1e-6);
        assert!((alloc.fbs_load(FbsId(0), &fbs_of) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn proportional_fairness_favors_low_w_users() {
        // Identical users except current quality: the lagging user gets
        // the larger share (log utility's diminishing returns). MBS
        // success is zero so both users compete for the same FBS budget.
        let p =
            SlotProblem::single_fbs(vec![user(36.0, 0.0, 0.9), user(28.0, 0.0, 0.9)], 3.0).unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        assert!(alloc.user(1).rho() > alloc.user(0).rho());
    }

    #[test]
    fn exact_mode_search_matches_the_heuristic_on_easy_instances() {
        // On the paper-like instance the heuristic already finds the
        // optimum; the exact path must agree and stay feasible.
        let p = paper_like_problem();
        let heuristic = WaterfillingSolver::new().solve(&p);
        let exact = WaterfillingSolver::exact_up_to(3).solve(&p);
        assert!(p.is_feasible(&exact, 1e-9));
        assert!((p.objective(&exact) - p.objective(&heuristic)).abs() < 1e-9);
    }

    #[test]
    fn exact_path_only_engages_below_its_limit() {
        // limit 2 < 3 users ⇒ the heuristic path runs; identical config
        // apart from the limit must reproduce the default solve.
        let p = paper_like_problem();
        let a = WaterfillingSolver::exact_up_to(2).solve(&p);
        let b = WaterfillingSolver::new().solve(&p);
        assert_eq!(p.objective(&a).to_bits(), p.objective(&b).to_bits());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
        // One scratch threaded across many fills (the solve/greedy hot
        // path) must leave no residue between constraints: every fill
        // matches a fill through a brand-new scratch bit for bit.
        let users = vec![
            UserState::new(30.0, FbsId(1), 0.72, 0.70, 0.3, 0.9).unwrap(),
            UserState::new(29.0, FbsId(0), 0.71, 0.69, 0.4, 0.8).unwrap(),
            UserState::new(28.0, FbsId(1), 0.70, 0.68, 0.5, 0.7).unwrap(),
            UserState::new(27.0, FbsId(0), 0.69, 0.67, 0.6, 0.6).unwrap(),
        ];
        let p = SlotProblem::new(users, vec![3.0, 2.0]).unwrap();
        let soa = SoaProblem::from_problem(&p);
        let solver = WaterfillingSolver::new();
        let mut reused = FillScratch::new();
        for bits in 0..16u32 {
            let modes: Vec<Mode> = (0..4)
                .map(|j| {
                    if bits >> j & 1 == 1 {
                        Mode::Fbs
                    } else {
                        Mode::Mbs
                    }
                })
                .collect();
            let a = solver.fill_soa(&soa, &modes, &mut reused);
            let b = solver.fill_soa(&soa, &modes, &mut FillScratch::new());
            assert_eq!(a, b, "residue at mode bits {bits:#06b}");
            let c = solver.fill_with_prices(&p, &modes);
            assert_eq!(a, c, "one-shot entry point diverged at {bits:#06b}");
        }
    }

    /// The solver before its repeated work went, kept only as the
    /// bit-identity oracle: it fills straight from the array-of-structs
    /// problem, every fill runs all `bisection_iters` halvings with
    /// `lagrangian::best_share` per member, round 0 of the mode loop
    /// refills the initial modes, the loop runs all `max_rounds` rounds
    /// unless a round repeats the one before, and the polish refills
    /// every budget per candidate.
    mod oracle {
        use super::*;

        /// One budget over `members = [(success, w, rate)]`: λ, the
        /// bisection's final bracket floor, and the shares.
        pub(super) fn fill_constraint(
            solver: &WaterfillingSolver,
            members: &[(f64, f64, f64)],
        ) -> (f64, f64, Vec<f64>) {
            let effective = |&(s, _, c): &(f64, f64, f64)| s > 0.0 && c > 0.0;
            let shares_at = |lambda: f64| -> Vec<f64> {
                members
                    .iter()
                    .map(|m| {
                        if effective(m) {
                            lagrangian::best_share(m.0, lambda, m.1, m.2)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            };
            let n_eff = members.iter().filter(|m| effective(m)).count();
            if n_eff == 0 {
                return (0.0, 0.0, vec![0.0; members.len()]);
            }
            if n_eff == 1 {
                return (0.0, 0.0, shares_at(0.0));
            }
            let mut lambda_hi = f64::MIN_POSITIVE;
            for m in members.iter().filter(|m| effective(m)) {
                lambda_hi = lambda_hi.max(m.0 * m.2 / m.1);
            }
            let lambda_hi = lambda_hi * (1.0 + 1e-9);
            let (mut lo, mut hi) = (0.0, lambda_hi);
            for _ in 0..solver.bisection_iters {
                let mid = 0.5 * (lo + hi);
                if shares_at(mid).iter().sum::<f64>() > 1.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            (hi, lo, shares_at(hi))
        }

        /// Every budget filled at `modes`, and the water levels.
        pub(super) fn fill(
            solver: &WaterfillingSolver,
            problem: &SlotProblem,
            modes: &[Mode],
        ) -> (Allocation, Vec<f64>) {
            let mut users = vec![UserAllocation::idle(); problem.num_users()];
            let mut lambdas = Vec::new();
            for b in 0..=problem.num_fbss() {
                let members: Vec<usize> = (0..problem.num_users())
                    .filter(|&j| match modes[j] {
                        Mode::Mbs => b == 0,
                        Mode::Fbs => b == 1 + problem.user(j).fbs().0,
                    })
                    .collect();
                let gathered: Vec<(f64, f64, f64)> = members
                    .iter()
                    .map(|&j| {
                        let u = problem.user(j);
                        if b == 0 {
                            (u.success_mbs(), u.w(), u.r_mbs())
                        } else {
                            (u.success_fbs(), u.w(), problem.fbs_rate(j))
                        }
                    })
                    .collect();
                let (lambda, _, shares) = fill_constraint(solver, &gathered);
                for (&j, &share) in members.iter().zip(&shares) {
                    users[j] = if b == 0 {
                        UserAllocation::mbs(share)
                    } else {
                        UserAllocation::fbs(share)
                    };
                }
                lambdas.push(lambda);
            }
            (Allocation::new(users), lambdas)
        }

        /// Flip and swap local search, every candidate refilled in
        /// full and scored with `SlotProblem::objective`.
        pub(super) fn polish(
            solver: &WaterfillingSolver,
            problem: &SlotProblem,
            allocation: Allocation,
        ) -> Allocation {
            let mut best_value = problem.objective(&allocation);
            let mut best = allocation;
            let mut modes: Vec<Mode> = best.users().iter().map(|u| u.mode).collect();
            let flip = |m: Mode| match m {
                Mode::Mbs => Mode::Fbs,
                Mode::Fbs => Mode::Mbs,
            };
            let mut improved = true;
            let mut passes = 0;
            while improved && passes < solver.max_rounds {
                improved = false;
                passes += 1;
                for j in 0..problem.num_users() {
                    let old = modes[j];
                    modes[j] = flip(old);
                    let candidate = fill(solver, problem, &modes).0;
                    let value = problem.objective(&candidate);
                    if value > best_value + 1e-12 {
                        best_value = value;
                        best = candidate;
                        improved = true;
                    } else {
                        modes[j] = old;
                    }
                }
                if !improved && problem.num_users() <= solver.swap_users_up_to {
                    'swaps: for j in 0..problem.num_users() {
                        for k in (j + 1)..problem.num_users() {
                            if modes[j] == modes[k] {
                                continue;
                            }
                            modes.swap(j, k);
                            let candidate = fill(solver, problem, &modes).0;
                            let value = problem.objective(&candidate);
                            if value > best_value + 1e-12 {
                                best_value = value;
                                best = candidate;
                                improved = true;
                                break 'swaps;
                            }
                            modes.swap(j, k);
                        }
                    }
                }
            }
            best
        }

        /// The solve, and the mode vectors its best-response loop
        /// filled in order (round 0's refill of the initial modes
        /// included; empty on the exact path).
        pub(super) fn solve(
            solver: &WaterfillingSolver,
            problem: &SlotProblem,
        ) -> (Allocation, Vec<Vec<Mode>>) {
            let n = problem.num_users();
            if n <= solver.exhaustive_modes_up_to.min(20) {
                let mut best: Option<(f64, Allocation)> = None;
                for bits in 0..(1u32 << n) {
                    let modes: Vec<Mode> = (0..n)
                        .map(|j| {
                            if bits >> j & 1 == 1 {
                                Mode::Fbs
                            } else {
                                Mode::Mbs
                            }
                        })
                        .collect();
                    let candidate = fill(solver, problem, &modes).0;
                    let value = problem.objective(&candidate);
                    if best.as_ref().is_none_or(|(b, _)| value > *b) {
                        best = Some((value, candidate));
                    }
                }
                return (best.expect("2^n ≥ 1 vectors").1, Vec::new());
            }
            let mut modes: Vec<Mode> = problem
                .users()
                .iter()
                .enumerate()
                .map(|(j, u)| {
                    let v_mbs =
                        lagrangian::branch_value(u.success_mbs(), 0.0, u.w(), u.r_mbs(), 1.0);
                    let v_fbs = lagrangian::branch_value(
                        u.success_fbs(),
                        0.0,
                        u.w(),
                        problem.fbs_rate(j),
                        1.0,
                    );
                    if v_mbs > v_fbs {
                        Mode::Mbs
                    } else {
                        Mode::Fbs
                    }
                })
                .collect();
            let mut best = fill(solver, problem, &modes).0;
            let mut best_value = problem.objective(&best);
            let mut filled = Vec::new();
            for _ in 0..solver.max_rounds {
                let (alloc, lambdas) = fill(solver, problem, &modes);
                filled.push(modes.clone());
                let value = problem.objective(&alloc);
                if value > best_value {
                    best_value = value;
                    best = alloc;
                }
                let new_modes: Vec<Mode> = problem
                    .users()
                    .iter()
                    .map(|u| {
                        lagrangian::solve_user(
                            u,
                            problem.g(u.fbs()),
                            lambdas[0],
                            lambdas[1 + u.fbs().0],
                        )
                        .allocation
                        .mode
                    })
                    .collect();
                if new_modes == modes {
                    break;
                }
                modes = new_modes;
            }
            // The polish used to refill its input's modes first; the
            // refill is `best` again, which is why `solve` skips it.
            let modes: Vec<Mode> = best.users().iter().map(|u| u.mode).collect();
            let refill = fill(solver, problem, &modes).0;
            assert!(same_bits(refill.users(), best.users()), "best is a fill");
            (polish(solver, problem, best), filled)
        }
    }

    /// A success probability or rate that is sometimes exactly zero (the
    /// fill's not-effective branch).
    fn zero_or(range: std::ops::RangeInclusive<f64>) -> impl Strategy<Value = f64> {
        (0..5u8, range).prop_map(|(k, v)| if k == 0 { 0.0 } else { v })
    }

    /// Per user: `w`, FBS (taken modulo the FBS count), MBS and FBS
    /// rates, MBS and FBS success, and whether it starts in FBS mode.
    type UserSpec = (f64, usize, f64, f64, f64, f64, bool);

    fn arb_users() -> impl Strategy<Value = Vec<UserSpec>> {
        proptest::collection::vec(
            (
                5.0..50.0f64,
                0..6usize,
                zero_or(0.1..=1.0),
                zero_or(0.1..=1.0),
                zero_or(0.05..=1.0),
                zero_or(0.05..=1.0),
                proptest::bool::ANY,
            ),
            1..=12,
        )
    }

    /// The instance `users` describe on the first `num_fbss` entries of
    /// `g`, and the users' starting modes.
    fn instance(users: &[UserSpec], g: &[f64], num_fbss: usize) -> (SlotProblem, Vec<Mode>) {
        let states: Vec<UserState> = users
            .iter()
            .map(|&(w, fbs, r0, r1, s0, s1, _)| {
                UserState::new(w, FbsId(fbs % num_fbss), r0, r1, s0, s1).unwrap()
            })
            .collect();
        let modes = users
            .iter()
            .map(|u| if u.6 { Mode::Fbs } else { Mode::Mbs })
            .collect();
        let problem = SlotProblem::new(states, g[..num_fbss].to_vec()).unwrap();
        (problem, modes)
    }

    fn same_bits(a: &[UserAllocation], b: &[UserAllocation]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.mode == y.mode
                    && x.rho_mbs.to_bits() == y.rho_mbs.to_bits()
                    && x.rho_fbs.to_bits() == y.rho_fbs.to_bits()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The incremental polish returns exactly what refilling every
        /// budget per candidate with the oracle's fills returns: the
        /// same mode and the same bits in every share, from a fill or
        /// from a non-fill start, with and without the swap
        /// neighborhood. From a fill, the dual's fill-once entry point
        /// returns the same bits.
        #[test]
        fn incremental_polish_is_bit_identical_to_full_refill(
            users in arb_users(),
            g in proptest::collection::vec(0.0..6.0f64, 6),
            num_fbss in 1..=6usize,
            idle_start in proptest::bool::ANY,
            swaps in proptest::bool::ANY,
        ) {
            let (p, modes) = instance(&users, &g, num_fbss);
            let default = WaterfillingSolver::default();
            let solver = WaterfillingSolver {
                swap_users_up_to: if swaps { default.swap_users_up_to } else { 0 },
                ..default
            };
            let start = if idle_start {
                Allocation::idle(p.num_users())
            } else {
                solver.fill_given_modes(&p, &modes)
            };
            let got = solver.polish(&p, start.clone());
            if !idle_start {
                let once = solver.fill_and_polish(&p, &modes);
                prop_assert!(same_bits(once.users(), got.users()), "{once:?} vs {got:?}");
            }
            let want = oracle::polish(&solver, &p, start);
            prop_assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
        }

        /// One candidate, checked directly: refilling the budgets two
        /// mode changes touch, or keeping those the zero-share rule
        /// proves unchanged, yields the full fill of the new modes, its
        /// levels with every recorded fact and the bits of
        /// `SlotProblem::objective` on it, and undo restores the old
        /// fill, levels and objective.
        #[test]
        fn refill_is_a_full_fill_and_undo_restores_it(
            users in arb_users(),
            g in proptest::collection::vec(0.0..6.0f64, 6),
            num_fbss in 1..=6usize,
            j in 0..12usize,
            k in 0..12usize,
        ) {
            let (p, modes) = instance(&users, &g, num_fbss);
            let solver = WaterfillingSolver::default();
            let soa = SoaProblem::from_problem(&p);
            let mut fill = incremental(&solver, &p, &soa, &modes, &mut FillScratch::new());
            let (j, k) = (j % p.num_users(), k % p.num_users());
            let changed = if j == k { vec![j] } else { vec![j, k] };
            refill_checked(&solver, &p, &soa, &modes, &mut fill, &changed);
        }
    }

    /// Channel counts that are sometimes exactly zero.
    fn arb_g() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(zero_or(0.05..=6.0), 6)
    }

    /// The default solver half the time; otherwise one with the mode
    /// loop or the bisection capped anywhere from 0, or with the exact
    /// path on (up to 3 users) and the swaps on or off.
    fn arb_solver() -> impl Strategy<Value = WaterfillingSolver> {
        (
            0..6u8,
            0..=20usize,
            0..=80usize,
            0..=3usize,
            proptest::bool::ANY,
        )
            .prop_map(|(k, max_rounds, bisection_iters, exact, swaps)| {
                let default = WaterfillingSolver::default();
                match k {
                    3 => WaterfillingSolver {
                        max_rounds,
                        ..default
                    },
                    4 => WaterfillingSolver {
                        bisection_iters,
                        ..default
                    },
                    5 => WaterfillingSolver {
                        exhaustive_modes_up_to: exact,
                        swap_users_up_to: if swaps { default.swap_users_up_to } else { 0 },
                        ..default
                    },
                    _ => default,
                }
            })
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Every recorded fact of every level, as bits.
    fn level_bits(levels: &[Level]) -> Vec<(u64, u64, usize, u64)> {
        levels
            .iter()
            .map(|l| {
                (
                    l.lambda.to_bits(),
                    l.floor.to_bits(),
                    l.effective,
                    l.largest.to_bits(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every fill — modes, shares and water levels — has the bits
        /// of the oracle's fill, whose bisection runs every step and
        /// calls `best_share` per member, at the default cap and at any
        /// cap from 0 to 80 steps.
        #[test]
        fn fills_are_bit_identical_to_the_unbroken_bisection(
            users in arb_users(),
            g in arb_g(),
            num_fbss in 1..=6usize,
            capped in proptest::bool::ANY,
            cap in 0..=80usize,
        ) {
            let (p, modes) = instance(&users, &g, num_fbss);
            let default = WaterfillingSolver::default();
            let solver = WaterfillingSolver {
                bisection_iters: if capped { cap } else { default.bisection_iters },
                ..default
            };
            let (got, got_lambdas) = solver.fill_with_prices(&p, &modes);
            let (want, want_lambdas) = oracle::fill(&solver, &p, &modes);
            prop_assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
            prop_assert_eq!(bits(&got_lambdas), bits(&want_lambdas));
        }

        /// `solve` returns the oracle's solve bit for bit — every mode
        /// and every share — under the default solver and under capped,
        /// exact-path and swap-free ones.
        #[test]
        fn solve_is_bit_identical_to_the_oracle_solve(
            users in arb_users(),
            g in arb_g(),
            num_fbss in 1..=6usize,
            solver in arb_solver(),
        ) {
            let (p, _) = instance(&users, &g, num_fbss);
            let got = solver.solve(&p);
            let (want, _) = oracle::solve(&solver, &p);
            prop_assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
        }
    }

    /// Member `(success, w, rate)` of a budget built for an edge of the
    /// certified fill's proof (DESIGN §15), by kind: the paper's range;
    /// `w` down to 1e-7 beside rates near 1, so that `λ_hi/λ_c` nears
    /// 1e7 and the plain loop overruns a 60-step cap; `w` far below the
    /// rate, a member that saturates early and leaves the sum at exactly
    /// 1 over a stretch; a quotient saturated at `f64::MAX`; a rate of
    /// 1e-300 beside a large `w`, a level in the subnormals; and no
    /// success, a member that cannot benefit.
    fn arb_edge_member() -> impl Strategy<Value = (f64, f64, f64)> {
        (
            0..6u8,
            0.05..=1.0f64,
            5.0..50.0f64,
            0.1..=6.0f64,
            0.0..=1.0f64,
        )
            .prop_map(|(kind, s, w, c, t)| match kind {
                0 => (s, w, c),
                1 => (s, 1e-7 + 9e-7 * t, 0.9 + 0.1 * t),
                2 => (0.5 + 0.5 * t, 0.01 + 0.09 * t, c),
                3 => (s, w, 1e-310),
                4 => (1e-3 + 9e-3 * t, 1e6 + 9.9e7 * t, 1e-300),
                _ => (0.0, w, c),
            })
    }

    /// A budget of edge members, plus up to three copies of one of them,
    /// whose breakpoints tie its own.
    fn arb_edge_budget() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
        (
            proptest::collection::vec(arb_edge_member(), 1..=6),
            0..=3usize,
            0..6usize,
        )
            .prop_map(|(mut members, copies, which)| {
                let copied = members[which % members.len()];
                members.extend(std::iter::repeat_n(copied, copies));
                members
            })
    }

    /// Bisection caps at the proof's edges: none, one step, 19, the
    /// caps around the 55-step bound, and 80.
    fn arb_bisection_cap() -> impl Strategy<Value = usize> {
        (0..5u8, 53..=61usize).prop_map(|(k, near)| match k {
            0 => 0,
            1 => 1,
            2 => 19,
            3 => 80,
            _ => near,
        })
    }

    /// The members' columns gathered into a fresh scratch.
    fn gathered(members: &[(f64, f64, f64)]) -> FillScratch {
        let mut scratch = FillScratch::new();
        scratch.idx.extend(0..members.len());
        scratch.gather_columns(|j| members[j]);
        scratch
    }

    /// The plain bisection's steps from `(0, lambda_hi)` until its
    /// bracket is adjacent, on a share sum that exceeds 1 exactly below
    /// `level`.
    fn steps_to_adjacency(lambda_hi: f64, level: f64) -> usize {
        let (mut lo, mut hi, mut steps) = (0.0f64, lambda_hi, 0);
        while lo.next_up() < hi {
            let mid = 0.5 * (lo + hi);
            if mid < level {
                lo = mid;
            } else {
                hi = mid;
            }
            steps += 1;
        }
        steps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every certified fill has the bits of the oracle's, whose
        /// bisection runs every step blind: its level, its bracket
        /// floor and every share, on budgets built for the edges of the
        /// certificates and of the jump's guard, under caps around the
        /// step bound.
        #[test]
        fn certified_fills_are_bit_identical_to_the_oracle_on_proof_edges(
            members in arb_edge_budget(),
            bisection_iters in arb_bisection_cap(),
        ) {
            let solver = WaterfillingSolver {
                bisection_iters,
                ..WaterfillingSolver::default()
            };
            let mut scratch = gathered(&members);
            let level = solver.fill_constraint(&mut scratch);
            let (lambda, floor, shares) = oracle::fill_constraint(&solver, &members);
            prop_assert_eq!(
                (level.lambda.to_bits(), level.floor.to_bits()),
                (lambda.to_bits(), floor.to_bits()),
                "{:?}: level {:e} floor {:e}, oracle {:e} {:e}",
                members, level.lambda, level.floor, lambda, floor
            );
            prop_assert_eq!(bits(&scratch.shares), bits(&shares));
        }

        /// The rounded share sum never rises as the level does, the
        /// lemma every certificate rests on: at random levels from the
        /// subnormals up, and within 1e-12 of the budget's own level.
        #[test]
        fn the_share_sum_never_rises_with_the_level(
            members in arb_edge_budget(),
            exponent in -1075.0..=8.0f64,
            near in -1e-12..=1e-12f64,
        ) {
            let mut scratch = gathered(&members);
            let level = WaterfillingSolver::default().fill_constraint(&mut scratch).lambda;
            for lambda in [exponent.exp2(), level * (1.0 + near)] {
                let (at, above) = (scratch.share_sum(lambda), scratch.share_sum(lambda.next_up()));
                prop_assert!(above <= at, "S({lambda:e}) = {at} < S(next) = {above}");
            }
        }

        /// The step bound behind the jump: wherever the guard admits a
        /// certified bracket, the plain bisection from `(0, λ_hi)` is
        /// adjacent within `55 + ⌈log2(λ_hi/above)⌉` steps, the least
        /// cap the guard accepts. Levels across the exponent range and
        /// near the top of their binade, where the bound is tightest.
        #[test]
        fn the_plain_bisection_is_adjacent_within_the_step_bound(
            exponent in -1000..=1000i32,
            mantissa in 1.0..2.0f64,
            top in proptest::bool::ANY,
            log_ratio in 0.0..=40.0f64,
            ulps_below in 1..=40u32,
            ulps_above in 0..=40u32,
        ) {
            let mantissa = if top { 2.0 - mantissa * 1e-14 } else { mantissa };
            let level = mantissa * f64::from(exponent).exp2();
            let lambda_hi = level * log_ratio.exp2();
            let (mut above, mut below) = (level, level);
            for _ in 0..ulps_below {
                above = above.next_down();
            }
            for _ in 0..ulps_above {
                below = below.next_up();
            }
            let known = Certificates { above, below };
            if let Some(cap) = (ADJACENCY_STEPS..=1200).find(|&cap| known.prove_adjacency(lambda_hi, cap)) {
                let steps = steps_to_adjacency(lambda_hi, level);
                prop_assert!(steps <= cap, "{steps} steps > cap {cap} at level {level:e}, λ_hi {lambda_hi:e}");
            }
        }
    }

    /// A budget whose sum stays at exactly 1 between one member's
    /// saturation and the next member's rise: the estimate lands at the
    /// far end of that stretch, both probes certify it, and the fill
    /// starts its bisection from them.
    #[test]
    fn a_flat_stretch_is_estimated_at_its_far_end() {
        // Member 0 saturates at λ = 1/(1 + 0.01) ≈ 0.99; member 1 rises
        // only below λ = 1/30.
        let members = [(1.0, 0.01, 1.0), (1.0, 30.0, 1.0)];
        let mut scratch = gathered(&members);
        let estimate = scratch.level_estimate().expect("a finite estimate");
        assert!((estimate * 30.0 - 1.0).abs() < 1e-15, "{estimate}");
        let solver = WaterfillingSolver::default();
        let level = solver.fill_constraint(&mut scratch);
        let (lambda, floor, shares) = oracle::fill_constraint(&solver, &members);
        assert_eq!(level.lambda.to_bits(), lambda.to_bits());
        assert_eq!(level.floor.to_bits(), floor.to_bits());
        assert_eq!(bits(&scratch.shares), bits(&shares));
        assert_eq!(scratch.shares, [1.0, 0.0]);
        // The estimate is the level: its probe and the one an ulp below
        // leave an adjacent pair, and no step evaluates a sum (~55 blind).
        assert_eq!(scratch.bisection_steps, 2);
    }

    /// `λ_hi/λ_c` near 1e7 needs about 78 plain steps, so under the
    /// default 60-step cap the guard refuses the jump and the loop runs
    /// from `(0, λ_hi)`, stopping at its cap short of adjacency; at a
    /// cap of 80 it jumps. Both match the oracle bit for bit.
    #[test]
    fn a_tiny_weight_overruns_the_cap_and_takes_the_plain_loop() {
        let members = [(0.9, 1e-7, 1.0), (0.8, 2e-7, 0.95)];
        for (bisection_iters, jumps) in [(60, false), (80, true)] {
            let solver = WaterfillingSolver {
                bisection_iters,
                ..WaterfillingSolver::default()
            };
            let mut scratch = gathered(&members);
            let estimate = scratch.level_estimate().expect("a finite estimate");
            let mut known = Certificates {
                above: 0.0,
                below: f64::INFINITY,
            };
            known.probe_around(&mut scratch, estimate);
            let lambda_hi = 0.9 / 1e-7 * (1.0 + 1e-9);
            assert!(known.above > 0.0 && known.below < lambda_hi, "{known:?}");
            assert_eq!(known.prove_adjacency(lambda_hi, bisection_iters), jumps);
            let level = solver.fill_constraint(&mut gathered(&members));
            let (lambda, floor, _) = oracle::fill_constraint(&solver, &members);
            assert_eq!(level.lambda.to_bits(), lambda.to_bits());
            assert_eq!(level.floor.to_bits(), floor.to_bits());
            assert_eq!(level.floor.next_up() < level.lambda, !jumps);
        }
    }

    /// An instance on which the oracle's best-response loop 2-cycles
    /// through all 16 rounds, and whose second mode vector fills better
    /// than the first: the loop must fill both before it stops, and
    /// keep the second.
    #[test]
    fn a_two_cycling_instance_solves_to_the_oracle_bits() {
        let users = vec![
            UserState::new(28.6, FbsId(0), 0.72, 0.72, 0.58, 0.87).unwrap(),
            UserState::new(31.1, FbsId(0), 0.72, 0.72, 0.5, 0.52).unwrap(),
            UserState::new(29.8, FbsId(0), 0.72, 0.72, 0.58, 0.47).unwrap(),
            UserState::new(31.8, FbsId(0), 0.72, 0.72, 0.51, 0.32).unwrap(),
        ];
        let p = SlotProblem::single_fbs(users, 2.53).unwrap();
        let solver = WaterfillingSolver::default();
        let (want, filled) = oracle::solve(&solver, &p);
        assert_eq!(filled.len(), solver.max_rounds);
        let (a, b) = (&filled[0], &filled[1]);
        assert_ne!(a, b);
        for (k, modes) in filled.iter().enumerate() {
            assert_eq!(modes, if k % 2 == 0 { a } else { b }, "round {k}");
        }
        let value = |modes: &[Mode]| p.objective(&solver.fill_given_modes(&p, modes));
        assert!(value(b) > value(a), "the second vector fills better");
        let got = solver.solve(&p);
        assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
    }

    /// A lone beneficiary takes the whole budget through the `λ ≤ 0`
    /// branch, even when its `w / rate` overflows: at λ = 0,
    /// `s/λ − w/rate` would be `∞ − ∞`, a NaN.
    #[test]
    fn a_lone_member_whose_quotient_overflows_takes_the_whole_budget() {
        let users = vec![
            UserState::new(30.0, FbsId(0), 0.72, 1e-310, 0.9, 0.8).unwrap(),
            UserState::new(29.0, FbsId(0), 0.72, 0.72, 0.9, 0.0).unwrap(),
        ];
        let p = SlotProblem::single_fbs(users, 1.0).unwrap();
        assert!((p.user(0).w() / p.fbs_rate(0)).is_infinite());
        let modes = [Mode::Fbs, Mode::Fbs];
        let solver = WaterfillingSolver::default();
        let (got, got_lambdas) = solver.fill_with_prices(&p, &modes);
        assert_eq!(got.user(0).rho_fbs, 1.0);
        let (want, want_lambdas) = oracle::fill(&solver, &p, &modes);
        assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
        assert_eq!(bits(&got_lambdas), bits(&want_lambdas));
    }

    /// Two members whose quotients `w / rate` overflow: the bisection
    /// drives λ into the subnormals, where `s/λ` overflows too and
    /// `s/λ − w/rate` was `∞ − ∞`, a NaN share. Neither member can gain
    /// anything (`w + rate == w`); every fill and solve stays finite and
    /// feasible at any bisection cap.
    #[test]
    fn members_whose_quotients_overflow_fill_finitely_and_feasibly() {
        let users = vec![
            UserState::new(30.0, FbsId(0), 0.72, 1e-310, 0.0, 0.8).unwrap(),
            UserState::new(29.0, FbsId(0), 0.72, 1e-310, 0.0, 0.9).unwrap(),
        ];
        let p = SlotProblem::single_fbs(users, 1.0).unwrap();
        assert!((p.user(0).w() / p.fbs_rate(0)).is_infinite());
        let modes = [Mode::Fbs, Mode::Fbs];
        for bisection_iters in [60, 80, 2000] {
            let solver = WaterfillingSolver {
                bisection_iters,
                ..WaterfillingSolver::default()
            };
            let (got, lambdas) = solver.fill_with_prices(&p, &modes);
            assert!(p.is_feasible(&got, 0.0), "{got:?}");
            assert!(lambdas.iter().all(|l| l.is_finite()), "{lambdas:?}");
            assert_eq!(got, solver.fill_given_modes(&p, &modes));
            let (want, _) = oracle::fill(&solver, &p, &modes);
            assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
            let solved = solver.solve(&p);
            assert!(p.is_feasible(&solved, 0.0), "{solved:?}");
        }
    }

    /// A distinct user of a near-tie instance: `w` in (0.05, 1), where
    /// `ln w < 0`; FBS (taken modulo the FBS count); MBS and FBS rates
    /// and successes, each sometimes zero.
    fn arb_near_tie_user() -> impl Strategy<Value = (f64, usize, f64, f64, f64, f64)> {
        (
            0.05..1.0f64,
            0..6usize,
            zero_or(0.1..=1.0),
            zero_or(0.1..=1.0),
            zero_or(0.05..=1.0),
            zero_or(0.05..=1.0),
        )
    }

    /// Users as copies of the distinct ones (index taken modulo their
    /// count), each starting in FBS mode or not.
    fn arb_copies(
        len: std::ops::RangeInclusive<usize>,
    ) -> impl Strategy<Value = Vec<(usize, bool)>> {
        proptest::collection::vec((0..6usize, proptest::bool::ANY), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pruned polish and solve return the oracle's bits on
        /// instances built to sit on the pruning rule's edges: copies
        /// of a few users (a swap of two copies ties exactly, with
        /// reduced costs that cancel), members with zero rates or
        /// successes and FBSs with `G = 0` (zero shares), FBSs with no
        /// member or a lone beneficiary (budgets at λ = 0), `w < 1`, and
        /// one instance in four with 9 to 64 users, whose rounding
        /// margin passes the 1e-12 acceptance step. Swaps on and off;
        /// the polish from a fill and from a non-fill start.
        #[test]
        fn pruning_is_bit_identical_to_the_oracle_on_near_ties(
            distinct in proptest::collection::vec(arb_near_tie_user(), 1..=6),
            few in arb_copies(1..=8),
            many in arb_copies(9..=64),
            pick_many in 0..4u8,
            g in arb_g(),
            num_fbss in 1..=6usize,
            idle_start in proptest::bool::ANY,
            swaps in proptest::bool::ANY,
        ) {
            let copies = if pick_many == 0 { &many } else { &few };
            let users: Vec<UserSpec> = copies
                .iter()
                .map(|&(k, fbs_mode)| {
                    let (w, fbs, r0, r1, s0, s1) = distinct[k % distinct.len()];
                    (w, fbs, r0, r1, s0, s1, fbs_mode)
                })
                .collect();
            let (p, modes) = instance(&users, &g, num_fbss);
            let default = WaterfillingSolver::default();
            let solver = WaterfillingSolver {
                swap_users_up_to: if swaps { default.swap_users_up_to } else { 0 },
                ..default
            };
            let start = if idle_start {
                Allocation::idle(p.num_users())
            } else {
                solver.fill_given_modes(&p, &modes)
            };
            let got = solver.polish(&p, start.clone());
            let want = oracle::polish(&solver, &p, start);
            prop_assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
            let got = solver.solve(&p);
            let (want, _) = oracle::solve(&solver, &p);
            prop_assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
        }
    }

    /// The fill of `modes` as the polish holds it, and its prices.
    fn priced(p: &SlotProblem, modes: &[Mode]) -> (IncrementalFill, Prices) {
        let soa = SoaProblem::from_problem(p);
        let solver = WaterfillingSolver::default();
        let fill = incremental(&solver, p, &soa, modes, &mut FillScratch::new());
        let mut prices = Prices::new(&soa);
        prices.update(&soa, &fill);
        (fill, prices)
    }

    /// The objective of the fill of `modes`: what a refill scores.
    fn filled_value(p: &SlotProblem, modes: &[Mode]) -> f64 {
        p.objective(&WaterfillingSolver::default().fill_given_modes(p, modes))
    }

    /// User 0 owns a strong FBS link; users 1 and 2 share the MBS and
    /// have weak FBS links. With user 0 alone in FBS mode, it takes the
    /// whole FBS budget at λ = 0.
    fn lone_beneficiary_problem() -> SlotProblem {
        SlotProblem::single_fbs(
            vec![
                UserState::new(30.0, FbsId(0), 0.72, 3.0, 0.9, 0.9).unwrap(),
                UserState::new(30.0, FbsId(0), 0.72, 0.1, 0.9, 0.9).unwrap(),
                UserState::new(28.0, FbsId(0), 0.72, 0.1, 0.9, 0.9).unwrap(),
            ],
            1.0,
        )
        .unwrap()
    }

    const LONE: [Mode; 3] = [Mode::Fbs, Mode::Mbs, Mode::Mbs];

    /// Flipping the lone beneficiary onto the shared MBS budget: its
    /// reduced cost at the plain levels rules the flip out (the MBS
    /// budget has interior members, so no level is raised), and the
    /// refill would indeed have rejected it.
    #[test]
    fn a_flip_its_reduced_cost_rules_out_is_pruned() {
        let p = lone_beneficiary_problem();
        let (fill, prices) = priced(&p, &LONE);
        let threshold = fill.value() + 1e-12;
        assert_eq!(prices.flip[0].to_bits(), prices.swap[0].to_bits());
        assert!(prices.flip[0] < 0.0, "{}", prices.flip[0]);
        assert!(!prices.admits(prices.flip[0], threshold));
        assert!(filled_value(&p, &[Mode::Mbs; 3]) <= threshold);
    }

    /// Flipping user 1 into the FBS budget user 0 fills alone at λ = 0:
    /// at λ = 0 the flip looks like a free full share and the plain
    /// levels admit it, but priced up to user 0's full-share marginal
    /// value it is ruled out, and the refill would have rejected it.
    #[test]
    fn a_flip_into_a_lone_beneficiarys_budget_is_pruned_at_the_raised_level() {
        let p = lone_beneficiary_problem();
        let (fill, prices) = priced(&p, &LONE);
        let threshold = fill.value() + 1e-12;
        assert_eq!(fill.levels[1].lambda, 0.0, "user 0 fills FBS 0 alone");
        assert_eq!(fill.users[0].rho_fbs, 1.0);
        assert!(prices.admits(prices.swap[1], threshold), "plain level");
        assert!(!prices.admits(prices.flip[1], threshold), "raised level");
        assert!(filled_value(&p, &[Mode::Fbs, Mode::Fbs, Mode::Mbs]) <= threshold);
    }

    /// Swapping the lone beneficiary with an MBS user: the two reduced
    /// costs rule the swap out, and the refill would have rejected it.
    #[test]
    fn a_swap_its_reduced_costs_rule_out_is_pruned() {
        let p = lone_beneficiary_problem();
        let (fill, prices) = priced(&p, &LONE);
        let threshold = fill.value() + 1e-12;
        assert!(!prices.admits(prices.swap[0] + prices.swap[1], threshold));
        assert!(filled_value(&p, &[Mode::Mbs, Mode::Fbs, Mode::Mbs]) <= threshold);
    }

    /// With everyone on the MBS, the empty FBS budget sits at λ = 0 with
    /// no saturated member, so no level is raised: the flip of user 0
    /// there is admitted, refilled and kept, as the oracle keeps it.
    #[test]
    fn a_flip_its_prices_cannot_rule_out_is_refilled_and_kept() {
        let p = lone_beneficiary_problem();
        let all_mbs = [Mode::Mbs; 3];
        let (fill, prices) = priced(&p, &all_mbs);
        let threshold = fill.value() + 1e-12;
        assert_eq!(prices.flip[0].to_bits(), prices.swap[0].to_bits());
        assert!(prices.admits(prices.flip[0], threshold));
        assert!(filled_value(&p, &LONE) > threshold);
        let solver = WaterfillingSolver::default();
        let start = solver.fill_given_modes(&p, &all_mbs);
        let got = solver.polish(&p, start.clone());
        assert_eq!(got.user(0).mode, Mode::Fbs);
        let want = oracle::polish(&solver, &p, start);
        assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
    }

    /// `n` copies of one paper-like user, alternating between the MBS
    /// and the FBS.
    fn copies(n: usize) -> (SlotProblem, Vec<Mode>) {
        let p = SlotProblem::single_fbs(vec![user(30.2, 0.9, 0.85); n], 3.0).unwrap();
        let modes = (0..n)
            .map(|j| if j % 2 == 0 { Mode::Mbs } else { Mode::Fbs })
            .collect();
        (p, modes)
    }

    /// Swapping two copies of one user leaves the fill's value as it
    /// is up to rounding, and their reduced costs cancel exactly. At
    /// the paper's 9 users the margin is below the 1e-12 acceptance
    /// step, so the swap is pruned; at the dual's 2 000 users the folds
    /// of 2 000 terms can round past the step and the swap is refilled.
    #[test]
    fn a_zero_reduced_cost_move_is_pruned_at_9_users_and_refilled_at_2000() {
        for (n, admitted) in [(9, false), (2000, true)] {
            let (p, modes) = copies(n);
            let (fill, prices) = priced(&p, &modes);
            assert_eq!(prices.swap[0] + prices.swap[1], 0.0);
            assert_eq!(
                prices.admits(prices.swap[0] + prices.swap[1], fill.value() + 1e-12),
                admitted,
                "n = {n}: margin {:e}",
                prices.margin
            );
        }
        let (p, modes) = copies(9);
        let mut swapped = modes.clone();
        swapped.swap(0, 1);
        assert!(filled_value(&p, &swapped) <= filled_value(&p, &modes) + 1e-12);
    }

    /// A bound that is NaN (an overflowed level, say) proves nothing, so
    /// it admits its candidate.
    #[test]
    fn a_nan_bound_admits_its_candidate() {
        let (fill, prices) = priced(&paper_like_problem(), &[Mode::Fbs; 3]);
        assert!(prices.admits(f64::NAN, fill.value()));
        assert!(!prices.admits(f64::NEG_INFINITY, fill.value()));
    }

    /// The fill of `modes` as the polish holds it, through `scratch`.
    fn incremental(
        solver: &WaterfillingSolver,
        p: &SlotProblem,
        soa: &SoaProblem,
        modes: &[Mode],
        scratch: &mut FillScratch,
    ) -> IncrementalFill {
        let (fill, levels) = solver.fill_levels(soa, modes, scratch);
        IncrementalFill::new(p, &fill, levels)
    }

    /// Refills `fill` (the fill of `modes`) with the `changed` users
    /// flipped and checks the result against a full fill of the new
    /// modes: every entry, the objective's bits and every recorded fact
    /// of every level. Then undoes it, checks that the old entries,
    /// objective and levels are back, and returns the budgets the
    /// refill kept.
    fn refill_checked(
        solver: &WaterfillingSolver,
        p: &SlotProblem,
        soa: &SoaProblem,
        modes: &[Mode],
        fill: &mut IncrementalFill,
        changed: &[usize],
    ) -> u64 {
        let before = (fill.users.clone(), fill.value(), level_bits(&fill.levels));
        let mut moved = modes.to_vec();
        for &j in changed {
            moved[j] = flip(moved[j]);
        }
        let mut scratch = FillScratch::new();
        let value = solver.refill(p, soa, &moved, &mut scratch, fill, changed);
        let (full, full_levels) = solver.fill_levels(soa, &moved, &mut FillScratch::new());
        assert!(same_bits(&fill.users, full.users()), "moving {changed:?}");
        assert_eq!(
            value.to_bits(),
            p.objective(&full).to_bits(),
            "moving {changed:?}"
        );
        assert_eq!(
            level_bits(&fill.levels),
            level_bits(&full_levels),
            "moving {changed:?}"
        );
        fill.undo();
        assert!(same_bits(&fill.users, &before.0), "undoing {changed:?}");
        assert_eq!(fill.value().to_bits(), before.1.to_bits());
        assert_eq!(level_bits(&fill.levels), before.2);
        scratch.budgets_kept
    }

    /// Users 0–2 hold the MBS budget; users 3 and 4 are priced out of it
    /// (their `s·c/w` is far below the level), and user 4 sits in FBS
    /// mode at an FBS with `G = 0`, where nobody can benefit.
    fn priced_out_problem() -> (SlotProblem, Vec<Mode>) {
        let p = SlotProblem::single_fbs(
            vec![
                UserState::new(10.0, FbsId(0), 1.0, 1.0, 0.9, 0.9).unwrap(),
                UserState::new(12.0, FbsId(0), 1.0, 1.0, 0.9, 0.9).unwrap(),
                UserState::new(11.0, FbsId(0), 1.0, 1.0, 0.8, 0.9).unwrap(),
                UserState::new(40.0, FbsId(0), 0.2, 1.0, 0.3, 0.9).unwrap(),
                UserState::new(40.0, FbsId(0), 0.2, 1.0, 0.3, 0.9).unwrap(),
            ],
            0.0,
        )
        .unwrap();
        let mut modes = vec![Mode::Mbs; 5];
        modes[4] = Mode::Fbs;
        (p, modes)
    }

    /// Moving a user that cannot benefit out of the `G = 0` FBS keeps
    /// that budget, and moving it into the MBS budget, where its share
    /// is 0 at the bracket floor, keeps the MBS budget too; the same
    /// holds for a priced-out user leaving the MBS budget. Each kept
    /// refill is the full fill.
    #[test]
    fn moves_that_change_no_share_keep_their_budgets() {
        let (p, modes) = priced_out_problem();
        let solver = WaterfillingSolver::default();
        let soa = SoaProblem::from_problem(&p);
        let mut fill = incremental(&solver, &p, &soa, &modes, &mut FillScratch::new());
        assert_eq!(fill.levels[1].effective, 0, "nobody benefits at G = 0");
        assert!(fill.levels[0].floor > 0.0);
        for j in [3, 4] {
            assert_eq!(fill.users[j].rho(), 0.0);
            assert_eq!(
                refill_checked(&solver, &p, &soa, &modes, &mut fill, &[j]),
                2
            );
        }
    }

    /// With 150 copies each of the two priced-out users, the rounding
    /// margin of 303 terms admits their zero-reduced-cost flips, as at
    /// the dual's 2 000 users. The polish keeps both budgets of every
    /// refill but one and returns the oracle's bits. The one is user
    /// 1's flip: its share is 0 at the MBS level, 0.075, but positive
    /// at the floor just below it, so the MBS budget is refilled.
    #[test]
    fn a_crowded_polish_keeps_budgets_and_returns_the_oracle_bits() {
        let (p, modes) = priced_out_problem();
        let mut users = p.users()[..3].to_vec();
        let mut crowd = modes[..3].to_vec();
        for _ in 0..150 {
            users.extend([*p.user(3), *p.user(4)]);
            crowd.extend([modes[3], modes[4]]);
        }
        let p = SlotProblem::single_fbs(users, 0.0).unwrap();
        let solver = WaterfillingSolver::default();
        let soa = SoaProblem::from_problem(&p);
        let mut scratch = FillScratch::new();
        let start = incremental(&solver, &p, &soa, &crowd, &mut scratch);
        let filled = Allocation::new(start.users.clone());
        let got = solver.polish_with(&p, &soa, &mut scratch, filled.clone(), start);
        assert_eq!((scratch.polish_refills, scratch.budgets_kept), (302, 603));
        let want = oracle::polish(&solver, &p, filled);
        assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
    }

    /// A capped bisection leaves a wide bracket: user 1 holds share 0
    /// at the level but a positive share at the floor, and without it
    /// the bisection takes another side at its last step. Its flip
    /// must refill the MBS budget, and does.
    #[test]
    fn a_mover_positive_at_the_floor_but_zero_at_the_level_is_refilled() {
        let (p, modes) = priced_out_problem();
        let solver = WaterfillingSolver {
            bisection_iters: 4,
            ..WaterfillingSolver::default()
        };
        let soa = SoaProblem::from_problem(&p);
        let mut fill = incremental(&solver, &p, &soa, &modes, &mut FillScratch::new());
        let level = fill.levels[0];
        assert_eq!(fill.users[1].rho(), 0.0, "zero at the level");
        let (s, c, w) = (soa.s_mbs(1), soa.r_mbs(1), soa.w(1));
        assert!(
            lagrangian::best_share(s, level.floor, w, c) > 0.0,
            "positive at the floor"
        );
        let mut moved = modes.clone();
        moved[1] = Mode::Fbs;
        assert_eq!(keeps(&level, &soa, &moved, &[1], 1, 0), None);
        let (_, full_levels) = solver.fill_levels(&soa, &moved, &mut FillScratch::new());
        assert_ne!(
            full_levels[0].lambda.to_bits(),
            level.lambda.to_bits(),
            "keeping it would be wrong"
        );
        // The FBS budget it joins cannot use it, so only that one is kept.
        assert_eq!(
            refill_checked(&solver, &p, &soa, &modes, &mut fill, &[1]),
            1
        );
    }

    /// A mover that holds a share before the move makes every budget it
    /// touches refill, even one it cannot benefit in: user 0 holds an
    /// MBS share, and its swap with user 4 would keep the `G = 0` FBS
    /// budget if it held none.
    #[test]
    fn a_mover_holding_a_share_refills_its_budgets() {
        let (p, modes) = priced_out_problem();
        let solver = WaterfillingSolver::default();
        let soa = SoaProblem::from_problem(&p);
        let mut fill = incremental(&solver, &p, &soa, &modes, &mut FillScratch::new());
        assert!(fill.users[0].rho() > 0.0);
        let mut moved = modes.clone();
        moved.swap(0, 4);
        let level = fill.levels[1];
        assert_eq!(keeps(&level, &soa, &moved, &[0, 4], 0b11, 1), Some(0));
        assert_eq!(keeps(&level, &soa, &moved, &[0, 4], 0b10, 1), None);
        assert_eq!(
            refill_checked(&solver, &p, &soa, &modes, &mut fill, &[0, 4]),
            0
        );
    }

    /// The ceiling guard: the bisection starts from the largest `s·c/w`,
    /// so a leaver may not hold it and a joiner may not exceed it (it
    /// may tie it). Users 3 and 4 are copies, so with the recorded
    /// largest set to their `s·c/w` the leaver ties it and the joiner
    /// ties it, and one float lower the joiner exceeds it.
    #[test]
    fn the_ceiling_guard_refuses_a_leaver_at_the_top_and_a_joiner_above_it() {
        let (p, modes) = priced_out_problem();
        let solver = WaterfillingSolver::default();
        let soa = SoaProblem::from_problem(&p);
        let fill = incremental(&solver, &p, &soa, &modes, &mut FillScratch::new());
        let level = fill.levels[0];
        let ratio = soa.s_mbs(3) * soa.r_mbs(3) / soa.w(3);
        let mut leave = modes.clone();
        leave[3] = Mode::Fbs;
        let mut join = modes.clone();
        join[4] = Mode::Mbs;
        assert_eq!(keeps(&level, &soa, &leave, &[3], 1, 0), Some(3));
        assert_eq!(keeps(&level, &soa, &join, &[4], 1, 0), Some(5));
        let at = Level {
            largest: ratio,
            ..level
        };
        assert_eq!(
            keeps(&at, &soa, &leave, &[3], 1, 0),
            None,
            "a leaver at the top"
        );
        assert_eq!(
            keeps(&at, &soa, &join, &[4], 1, 0),
            Some(5),
            "a joiner at the top"
        );
        let below = Level {
            largest: f64::from_bits(ratio.to_bits() - 1),
            ..level
        };
        assert_eq!(
            keeps(&below, &soa, &join, &[4], 1, 0),
            None,
            "a joiner above the top"
        );
    }

    /// The lone-beneficiary guard: a budget with fewer than two
    /// effective members fills at λ = 0 without a bisection, so no
    /// effective mover may take the count below two, nor join a budget
    /// below it. A mover that cannot benefit changes no count.
    #[test]
    fn the_lone_beneficiary_guard_refuses_a_count_below_two() {
        let (p, modes) = priced_out_problem();
        let solver = WaterfillingSolver::default();
        let soa = SoaProblem::from_problem(&p);
        let fill = incremental(&solver, &p, &soa, &modes, &mut FillScratch::new());
        let level = fill.levels[0];
        let mut leave = modes.clone();
        leave[3] = Mode::Fbs;
        let mut join = modes.clone();
        join[4] = Mode::Mbs;
        let two = Level {
            effective: 2,
            ..level
        };
        assert_eq!(keeps(&two, &soa, &leave, &[3], 1, 0), None, "two to one");
        let one = Level {
            effective: 1,
            ..level
        };
        assert_eq!(keeps(&one, &soa, &join, &[4], 1, 0), None, "one to two");
        let lone = fill.levels[1];
        assert_eq!(lone.effective, 0);
        assert_eq!(
            keeps(&lone, &soa, &join, &[4], 1, 1),
            Some(0),
            "nobody benefits"
        );
        // Two members, one of them saturated: the flip of the other
        // away from the FBS would leave a lone beneficiary. On a real
        // fill the floor test refuses it too, since the sum at the floor
        // exceeds 1 only with two positive shares; the FBS budget is
        // refilled, to the full fill.
        let p = SlotProblem::single_fbs(
            vec![
                UserState::new(30.0, FbsId(0), 0.72, 3.0, 0.9, 0.9).unwrap(),
                UserState::new(30.0, FbsId(0), 0.72, 0.1, 0.9, 0.2).unwrap(),
            ],
            1.0,
        )
        .unwrap();
        let modes = [Mode::Fbs, Mode::Fbs];
        let soa = SoaProblem::from_problem(&p);
        let mut fill = incremental(&solver, &p, &soa, &modes, &mut FillScratch::new());
        assert_eq!(fill.users[0].rho(), 1.0, "saturated");
        assert_eq!(fill.users[1].rho(), 0.0);
        let (level, s, c, w) = (fill.levels[1], soa.s_fbs(1), soa.fbs_rate(1), soa.w(1));
        assert_eq!(level.effective, 2);
        assert!(lagrangian::best_share(s, level.floor, w, c) > 0.0);
        assert_eq!(
            refill_checked(&solver, &p, &soa, &modes, &mut fill, &[1]),
            0
        );
    }

    /// A kind of user on a zero-share instance: `w` paper-like, or tiny
    /// so that its `s·c/w` sets a ceiling the 60-step bisection cannot
    /// come down from; MBS and FBS rates and successes, each sometimes
    /// zero.
    fn arb_zero_share_kind() -> impl Strategy<Value = (f64, f64, f64, f64, f64)> {
        (
            (0..6u8, 5.0..50.0f64, 1e-9..1e-6f64)
                .prop_map(|(k, w, tiny)| if k == 0 { tiny } else { w }),
            zero_or(0.01..=1.0),
            zero_or(0.1..=1.0),
            zero_or(0.05..=1.0),
            zero_or(0.05..=1.0),
        )
    }

    /// Users as copies of the kinds (index taken modulo their count),
    /// each with its own FBS (taken modulo the FBS count) and starting
    /// mode.
    fn arb_kind_copies(
        len: std::ops::RangeInclusive<usize>,
    ) -> impl Strategy<Value = Vec<(usize, usize, bool)>> {
        proptest::collection::vec((0..8usize, 0..6usize, proptest::bool::ANY), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The polish that keeps the budgets its zero-share moves leave
        /// as they are returns the oracle's bits, and so does the
        /// solve, on instances built to sit on the rule's edges: FBSs
        /// with `G = 0` and zero rates or successes (movers that cannot
        /// benefit), one instance in four with 65 to 300 users (crowded
        /// MBS budgets, most members priced out), small FBS budgets
        /// with a saturated member (the lone-beneficiary guard), copies
        /// of a few kinds of users (joiners whose `s·c/w` ties the
        /// largest) and tiny `w` (levels far below the ceiling, where
        /// the 60-step cap stops the bisection). Every flip of the
        /// start fill, and the swap of each user with the next, is also
        /// refilled alone and held to a full fill, levels included.
        /// Swaps on (up to 64 users) and off; the polish from a fill
        /// and from a non-fill start.
        #[test]
        fn kept_budgets_are_bit_identical_to_the_oracle_on_zero_shares(
            kinds in proptest::collection::vec(arb_zero_share_kind(), 1..=8),
            few in arb_kind_copies(1..=12),
            crowd in arb_kind_copies(65..=300),
            pick_crowd in 0..4u8,
            g in arb_g(),
            num_fbss in 1..=6usize,
            idle_start in proptest::bool::ANY,
            swaps in proptest::bool::ANY,
        ) {
            let copies = if pick_crowd == 0 { &crowd } else { &few };
            let users: Vec<UserSpec> = copies
                .iter()
                .map(|&(k, fbs, fbs_mode)| {
                    let (w, r0, r1, s0, s1) = kinds[k % kinds.len()];
                    (w, fbs, r0, r1, s0, s1, fbs_mode)
                })
                .collect();
            let (p, modes) = instance(&users, &g, num_fbss);
            let solver = WaterfillingSolver {
                swap_users_up_to: if swaps { 64 } else { 0 },
                ..WaterfillingSolver::default()
            };
            let soa = SoaProblem::from_problem(&p);
            let n = p.num_users();
            let mut fill = incremental(&solver, &p, &soa, &modes, &mut FillScratch::new());
            for j in 0..n {
                refill_checked(&solver, &p, &soa, &modes, &mut fill, &[j]);
                let k = (j + 1) % n;
                if modes[j] != modes[k] {
                    refill_checked(&solver, &p, &soa, &modes, &mut fill, &[j, k]);
                }
            }
            let start = if idle_start {
                Allocation::idle(n)
            } else {
                solver.fill_given_modes(&p, &modes)
            };
            let got = solver.polish(&p, start.clone());
            let want = oracle::polish(&solver, &p, start);
            prop_assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
            let got = solver.solve(&p);
            let (want, _) = oracle::solve(&solver, &p);
            prop_assert!(same_bits(got.users(), want.users()), "{got:?} vs {want:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The exact enumeration can never lose to the heuristic mode
        /// search — on any generated instance small enough to engage it.
        #[test]
        fn exact_mode_search_never_loses_to_the_heuristic(
            ws in proptest::collection::vec(5.0..50.0f64, 1..4),
            g in 0.0..6.0f64,
            s0 in 0.05..=1.0f64,
            s1 in 0.05..=1.0f64,
        ) {
            let users: Vec<UserState> = ws.iter().map(|w| user(*w, s0, s1)).collect();
            let p = SlotProblem::single_fbs(users, g).unwrap();
            let exact = WaterfillingSolver::exact_up_to(3).solve(&p);
            let heuristic = WaterfillingSolver::new().solve(&p);
            prop_assert!(p.is_feasible(&exact, 1e-9));
            prop_assert!(p.objective(&exact) >= p.objective(&heuristic) - 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn always_feasible_and_no_single_flip_improves(
            ws in proptest::collection::vec(5.0..50.0f64, 1..6),
            g in 0.0..6.0f64,
            s0 in 0.05..=1.0f64,
            s1 in 0.05..=1.0f64,
        ) {
            let users: Vec<UserState> = ws
                .iter()
                .map(|w| user(*w, s0, s1))
                .collect();
            let p = SlotProblem::single_fbs(users, g).unwrap();
            let solver = WaterfillingSolver::new();
            let alloc = solver.solve(&p);
            prop_assert!(p.is_feasible(&alloc, 1e-9));
            let value = p.objective(&alloc);
            // Local optimality in mode space: no single flip (with exact
            // refill) improves the objective.
            let modes: Vec<Mode> = alloc.users().iter().map(|u| u.mode).collect();
            for j in 0..modes.len() {
                let mut flipped = modes.clone();
                flipped[j] = match flipped[j] { Mode::Mbs => Mode::Fbs, Mode::Fbs => Mode::Mbs };
                let candidate = solver.fill_given_modes(&p, &flipped);
                prop_assert!(p.objective(&candidate) <= value + 1e-9);
            }
        }
    }
}
