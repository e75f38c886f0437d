//! The heuristic mode search against the exact one (ROADMAP item 7).
//!
//! `WaterfillingSolver::solve` finds the Theorem-1 modes by a
//! best-response loop and a flip/swap polish, which carry no optimality
//! guarantee; `WaterfillingSolver::exact_up_to(n)` fills all `2^n` mode
//! vectors. On a fixed seeded set of fig-5-shaped slot problems this
//! suite counts how often, and by how much, the heuristic falls short
//! of the exact optimum, and pins both, so that a change to the mode
//! search cannot move them unseen. Differences up to 1e-9 are rounding
//! and are counted apart from the real misses, so the pin reads as a
//! search-quality number. The set does not depend on `PROPTEST_SEED`.

use fcr_core::interfering::{ChannelAssignment, InterferingProblem};
use fcr_core::problem::{SlotProblem, UserState};
use fcr_core::WaterfillingSolver;
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;
use fcr_stats::rng::SeedSequence;
use rand::RngExt;

/// Slot problems in the set.
const CASES: u64 = 1200;

/// Slot problem `case` of the set: the fig-5 chain (three FBSs in a
/// path, two users each, four channels) at a random conflict-free
/// channel assignment, which is how the Table III greedy builds each
/// `Q(c)` problem. Users draw `W` from 25–35 dB and their link
/// successes from the offload regime of `fcr_testkit::generators`
/// (the FBS link 0.15–0.3 above the MBS one); channels draw their
/// availability from 0.4–0.95, and each goes to no FBS, one, or both
/// ends of the path.
fn fig5_slot(case: u64) -> SlotProblem {
    let mut rng = SeedSequence::new(20110611).stream("mode-search", case);
    let users: Vec<UserState> = (0..6)
        .map(|j| {
            let w = rng.random_range(25.0..35.0f64);
            let s_mbs = rng.random_range(0.2..0.65f64);
            let s_fbs = (s_mbs + rng.random_range(0.15..0.3f64)).min(0.95);
            UserState::new(w, FbsId(j / 2), 0.72, 0.72, s_mbs, s_fbs).expect("valid draw")
        })
        .collect();
    let weights: Vec<f64> = (0..4).map(|_| rng.random_range(0.4..0.95f64)).collect();
    let graph = InterferenceGraph::new(3, &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))]);
    let problem = InterferingProblem::new(users, graph, weights).expect("valid draw");
    let independent: [&[usize]; 5] = [&[], &[0], &[1], &[2], &[0, 2]];
    let mut assignment = ChannelAssignment::empty(3, 4);
    for channel in 0..4 {
        for &fbs in independent[rng.random_range(0..5usize)] {
            assignment.assign(FbsId(fbs), channel);
        }
    }
    problem.problem_for(&assignment)
}

/// Shortfalls up to this are rounding: the heuristic found the exact
/// search's modes (or modes worth the same) and its objective differs
/// only in the last bits of a fold.
const ROUNDING: f64 = 1e-9;

#[test]
fn the_heuristic_mode_search_misses_the_exact_optimum_as_pinned() {
    let heuristic = WaterfillingSolver::new();
    let exact = WaterfillingSolver::exact_up_to(6);
    let mut rounding = 0u32;
    let mut real: Vec<f64> = Vec::new();
    for case in 0..CASES {
        let p = fig5_slot(case);
        let shortfall = p.objective(&exact.solve(&p)) - p.objective(&heuristic.solve(&p));
        assert!(
            shortfall >= 0.0,
            "case {case}: the heuristic beat the exact search"
        );
        if shortfall > ROUNDING {
            real.push(shortfall);
        } else if shortfall > 0.0 {
            rounding += 1;
        }
    }
    // Of the 47 problems in this set where the objectives differ at
    // all, 38 differ by rounding and 9 are real misses of the mode
    // search, 0.8% of the set (the paper workload's own `Q(c)` problems
    // miss far less often: 8 of 18 243 in a probe, not split this way).
    let smallest = real.iter().copied().fold(f64::INFINITY, f64::min);
    let largest = real.iter().copied().fold(0.0, f64::max);
    assert_eq!(rounding, 38, "rounding-level differences in {CASES} cases");
    assert_eq!(real.len(), 9, "real misses in {CASES} cases");
    assert_eq!(
        smallest, 3.793_688_830_810_993e-5,
        "the smallest real shortfall"
    );
    assert_eq!(
        largest, 0.002_237_354_655_765_244_6,
        "the largest real shortfall"
    );
}
