//! Exact work counts of one cold greedy run on the fig-5 chain.
//!
//! The telemetry sink is process-global, so these counts live in their
//! own test binary: unit tests running in parallel in the library's
//! binary would add their own solves to them.

use fcr_core::greedy::GreedyAllocator;
use fcr_core::interfering::InterferingProblem;
use fcr_core::problem::UserState;
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;

/// The fig-5 chain: three FBSs in a path, two users each, four
/// channels with the given availability posteriors.
fn fig5(weights: Vec<f64>) -> InterferingProblem {
    let user = |w: f64, fbs: usize| UserState::new(w, FbsId(fbs), 0.72, 0.72, 0.5, 0.9).unwrap();
    InterferingProblem::new(
        vec![
            user(30.2, 0),
            user(27.6, 0),
            user(28.8, 1),
            user(30.2, 1),
            user(27.6, 2),
            user(28.8, 2),
        ],
        InterferenceGraph::new(3, &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))]),
        weights,
    )
    .unwrap()
}

const COUNTERS: [&str; 6] = [
    "greedy.inner_solves",
    "greedy.q_memo_hits",
    "waterfill.solves",
    "waterfill.mode_rounds",
    "waterfill.budget_fills",
    "waterfill.bisection_steps",
];

/// The counters one cold greedy run on `problem` adds, in the order of
/// [`COUNTERS`].
fn counts(problem: &InterferingProblem) -> [u64; 6] {
    fcr_telemetry::reset();
    GreedyAllocator::new().allocate(problem);
    let snapshot = fcr_telemetry::global().snapshot();
    COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0))
}

#[test]
fn fig5_greedy_work_counts_are_exact() {
    fcr_telemetry::enable();
    let distinct = counts(&fig5(vec![0.9, 0.8, 0.85, 0.7]));
    let repeated = counts(&fig5(vec![0.9, 0.8, 0.9, 0.7]));
    fcr_telemetry::disable();
    // Every run solves Q(∅) and evaluates 52 trials: 53 Q solves without
    // the memo. With channels 0 and 2 sharing a posterior, 4 of the
    // trials repeat a G vector already solved in their step.
    assert_eq!(distinct, [53, 0, 54, 183, 3178, 78496]);
    assert_eq!(repeated, [49, 4, 50, 171, 2972, 73984]);
    for [inner_solves, memo_hits, solves, ..] in [distinct, repeated] {
        assert_eq!(inner_solves + memo_hits, 53, "each Q is solved or recalled");
        assert_eq!(
            solves,
            inner_solves + 1,
            "plus the final allocation's solve"
        );
    }
}
