//! Exact work counts of the solvers on fixed inputs.
//!
//! The telemetry sink is process-global, so these counts live in their
//! own test binary: unit tests running in parallel in the library's
//! binary would add their own solves to them. The tests here take turns
//! on one lock for the same reason.

use fcr_core::dual::{DualConfig, DualSolver};
use fcr_core::greedy::GreedyAllocator;
use fcr_core::interfering::{ChannelAssignment, InterferingProblem};
use fcr_core::partition::Partition;
use fcr_core::problem::{SlotProblem, UserState};
use fcr_core::waterfill::WaterfillingSolver;
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;
use fcr_sim::massive::{generate_problem, MassiveConfig};
use fcr_telemetry::TelemetrySnapshot;
use std::sync::{Mutex, PoisonError};

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

const COUNTERS: [&str; 11] = [
    "greedy.inner_solves",
    "greedy.q_memo_hits",
    "greedy.bound_pruned",
    "waterfill.solves",
    "waterfill.mode_rounds",
    "waterfill.budget_fills",
    "waterfill.bisection_steps",
    "waterfill.fill_memo_hits",
    "waterfill.budgets_kept",
    "waterfill.polish_refills",
    "waterfill.polish_pruned",
];

/// What `work` counts, alone on a fresh, enabled sink.
fn counted(work: impl FnOnce()) -> TelemetrySnapshot {
    static SINK: Mutex<()> = Mutex::new(());
    let _turn = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    fcr_telemetry::enable();
    fcr_telemetry::reset();
    work();
    let snapshot = fcr_telemetry::global().snapshot();
    fcr_telemetry::disable();
    snapshot
}

/// The solver counters `work` adds, in the order of [`COUNTERS`].
fn counts(work: impl FnOnce()) -> [u64; 11] {
    let snapshot = counted(work);
    COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0))
}

#[test]
fn fig5_greedy_work_counts_are_exact() {
    let cold = |problem: InterferingProblem| {
        counts(|| {
            GreedyAllocator::new().allocate(&problem);
        })
    };
    let distinct = cold(fig5(vec![0.9, 0.8, 0.85, 0.7]));
    let repeated = cold(fig5(vec![0.9, 0.8, 0.9, 0.7]));
    // Every run solves Q(∅) and meets 52 trials: 53 Q solves without
    // the bounds and the memo. Each step solves its candidates in
    // decreasing order of their weak-duality bounds and skips the rest
    // once no bound can reach the best Δ: 37 and 33 trials are skipped.
    // With channels 0 and 2 sharing a posterior, 3 of the solved trials
    // repeat a G vector already solved in their step. The final
    // allocation is the last committed trial's solve, so no solve
    // follows the greedy's. Every budget fill is counted, but only a
    // fill the run has not made before bisects; the others are
    // replayed. The polishes refill only the candidates their fills'
    // prices cannot rule out: 48 of 287 and 44 of 301. Five of those
    // refills keep a budget their movers provably leave unchanged.
    assert_eq!(distinct, [16, 0, 37, 16, 59, 350, 1399, 283, 5, 48, 239]);
    assert_eq!(repeated, [17, 3, 33, 17, 62, 351, 1400, 285, 5, 44, 257]);
    for [inner_solves, memo_hits, pruned, solves, ..] in [distinct, repeated] {
        assert_eq!(
            inner_solves + memo_hits + pruned,
            53,
            "each Q is solved, recalled or ruled out"
        );
        assert_eq!(solves, inner_solves, "the final allocation is reused");
    }
}

/// The 64-FBS massive slot of seed 20110620: the counts of its 16
/// cluster greedies, the ones `MassiveDriver` runs, and the slot problem
/// at their merged assignment. The greedies run on the sink's turn, so
/// that they count into nobody else's snapshot.
fn massive_slot() -> ([u64; 11], SlotProblem) {
    let config = MassiveConfig {
        num_fbss: 64,
        ..MassiveConfig::default()
    };
    let problem = generate_problem(&config, 20110620);
    let partition = Partition::of(&problem);
    let mut merged = None;
    let greedies = counts(|| merged = Some(partition.allocate_serial(&GreedyAllocator::new()).0));
    let merged = merged.expect("the greedies ran");
    (greedies, problem.problem_for(&merged))
}

/// Each cluster's greedy bounds its candidates and solves only those
/// that can win: 286 `Q` solves and 779 candidates skipped over the 16
/// clusters (17.9 solves per cluster).
#[test]
fn massive_cluster_greedy_work_counts_are_exact() {
    let (greedies, _) = massive_slot();
    assert_eq!(
        greedies,
        [286, 0, 779, 286, 923, 6280, 28112, 5290, 384, 702, 5846]
    );
}

/// A standalone solve fills every budget it needs: nothing outside a
/// greedy run replays a fill. Its polish refills 10 of its 36
/// candidates.
#[test]
fn a_standalone_solve_replays_no_fill() {
    let mut assignment = ChannelAssignment::empty(3, 4);
    assignment.assign(FbsId(0), 0);
    assignment.assign(FbsId(2), 0);
    assignment.assign(FbsId(1), 1);
    let problem = fig5(vec![0.9, 0.8, 0.85, 0.7]).problem_for(&assignment);
    let got = counts(|| {
        WaterfillingSolver::new().solve(&problem);
    });
    assert_eq!(got, [0, 0, 0, 1, 2, 32, 967, 0, 0, 10, 26]);
}

/// The cold dual of a generated 64-FBS massive slot (128 users) at its
/// greedy's channel assignment: the subgradient iterations, then the
/// primal recovery's fill and polish. Most of the polish's refills move
/// a user that holds share 0 before and after, and keep both budgets.
#[test]
fn a_massive_dual_recovery_keeps_the_budgets_of_its_zero_share_moves() {
    let (_, slot) = massive_slot();
    let dual = DualSolver::new(MassiveConfig::default().dual_for(64));
    let snapshot = counted(|| {
        dual.solve(&slot);
    });
    let iterations = snapshot.counter("dual.iterations").unwrap_or(0);
    let recovery = COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0));
    assert_eq!(iterations, 5000, "the cold solve runs to the cap");
    // 5 627 fills and 147 608 bisection steps before the rule.
    assert_eq!(recovery, [0, 0, 0, 0, 0, 2346, 66288, 0, 3281, 1914, 838]);
}

/// One Table I solve: the subgradient iterations it ran, as the solve
/// reports them and as the counter adds them up, and the primal
/// recovery's work. The recovery fills the converged modes once (two
/// budgets) and polishes from that fill, whose prices rule out all five
/// of its candidates.
#[test]
fn a_table1_solve_counts_its_dual_iterations() {
    let user = |w: f64, s0: f64, s1: f64| UserState::new(w, FbsId(0), 0.72, 0.72, s0, s1).unwrap();
    let problem = SlotProblem::single_fbs(
        vec![
            user(30.2, 0.9, 0.85),
            user(27.6, 0.8, 0.9),
            user(28.8, 0.85, 0.8),
        ],
        3.0,
    )
    .unwrap();
    let mut iterations = 0;
    let snapshot = counted(|| {
        iterations = DualSolver::new(DualConfig::default())
            .solve(&problem)
            .iterations();
    });
    assert_eq!(iterations, 667);
    assert_eq!(snapshot.counter("dual.iterations"), Some(667));
    let recovery = COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0));
    assert_eq!(recovery, [0, 0, 0, 0, 0, 2, 54, 0, 0, 0, 5]);
}
