//! The interfering-FBS problem of Section IV-C: per-slot data plus the
//! channel-allocation layer (problem (21)).
//!
//! With overlapping femtocell coverages, the available channels `A(t)`
//! must first be divided among the FBSs subject to the interference
//! graph (adjacent FBSs never share a channel — Lemma 4). A
//! [`ChannelAssignment`] fixes the binary variables `c_{i,m}`; each FBS
//! then sees `G^t_i = Σ_m c_{i,m}·P^A_m` expected channels, and the
//! remaining time-share problem is exactly problem (17), solved by
//! [`crate::dual`] or [`crate::waterfill`].

use crate::allocation::Allocation;
use crate::error::{check_probability, CoreError};
use crate::problem::{SlotProblem, UserState};
use crate::soa::{FillScratch, SoaProblem};
use crate::waterfill::{SolveBuffers, WaterfillingSolver};
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;

/// The binary channel-allocation variables `c_{i,m}` of eq. (20).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelAssignment {
    // assigned[i][m] == true ⇔ channel m allocated to FBS i.
    assigned: Vec<Vec<bool>>,
}

impl ChannelAssignment {
    /// The empty assignment (`c = 0`) over `num_fbss × num_channels`.
    pub fn empty(num_fbss: usize, num_channels: usize) -> Self {
        Self {
            assigned: vec![vec![false; num_channels]; num_fbss],
        }
    }

    /// Number of FBSs.
    pub fn num_fbss(&self) -> usize {
        self.assigned.len()
    }

    /// Number of available channels.
    pub fn num_channels(&self) -> usize {
        self.assigned.first().map_or(0, Vec::len)
    }

    /// Sets `c_{i,m} = 1`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or the pair is already
    /// assigned.
    pub fn assign(&mut self, fbs: FbsId, channel: usize) {
        assert!(
            !self.assigned[fbs.0][channel],
            "channel {channel} already assigned to {fbs}"
        );
        self.assigned[fbs.0][channel] = true;
    }

    /// Returns `c_{i,m}`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn is_assigned(&self, fbs: FbsId, channel: usize) -> bool {
        self.assigned[fbs.0][channel]
    }

    /// The FBSs holding `channel`.
    pub fn holders(&self, channel: usize) -> Vec<FbsId> {
        (0..self.num_fbss())
            .filter(|i| self.assigned[*i][channel])
            .map(FbsId)
            .collect()
    }

    /// Total number of assigned `(FBS, channel)` pairs.
    pub fn len(&self) -> usize {
        self.assigned
            .iter()
            .map(|row| row.iter().filter(|b| **b).count())
            .sum()
    }

    /// Returns `true` if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks Lemma 4 against `graph`: no two adjacent FBSs share a
    /// channel.
    pub fn is_conflict_free(&self, graph: &InterferenceGraph) -> bool {
        let per_channel: Vec<Vec<FbsId>> =
            (0..self.num_channels()).map(|m| self.holders(m)).collect();
        graph.is_conflict_free(&per_channel)
    }
}

/// Deterministic round-robin channel split used by the heuristic
/// baselines in interfering scenarios: channel `m` is offered to FBSs
/// in cyclic order starting at `m mod N`, and each FBS takes it if no
/// already-holding neighbor conflicts. Spatial reuse without any
/// quality-awareness.
pub fn round_robin_assignment(graph: &InterferenceGraph, num_channels: usize) -> ChannelAssignment {
    let n = graph.num_vertices();
    let mut assignment = ChannelAssignment::empty(n, num_channels);
    for m in 0..num_channels {
        let mut holders: Vec<FbsId> = Vec::new();
        for k in 0..n {
            let candidate = FbsId((m + k) % n);
            if holders.iter().all(|h| !graph.are_adjacent(*h, candidate)) {
                assignment.assign(candidate, m);
                holders.push(candidate);
            }
        }
    }
    assignment
}

/// Coloring-based channel split: greedy-color the interference graph,
/// then hand channel `m` to every FBS of color class `m mod #colors`.
///
/// Color classes are independent sets, so the result is conflict-free
/// by construction; unlike [`round_robin_assignment`] it never *packs*
/// extra non-conflicting FBSs onto a channel, making it the most
/// conservative of the quality-blind baselines.
pub fn coloring_assignment(graph: &InterferenceGraph, num_channels: usize) -> ChannelAssignment {
    let n = graph.num_vertices();
    let mut assignment = ChannelAssignment::empty(n, num_channels);
    if n == 0 {
        return assignment;
    }
    let colors = graph.greedy_coloring();
    let num_colors = graph.greedy_chromatic_number().max(1);
    for m in 0..num_channels {
        let class = m % num_colors;
        for (i, c) in colors.iter().enumerate() {
            if *c == class {
                assignment.assign(FbsId(i), m);
            }
        }
    }
    assignment
}

/// Per-slot data of the interfering case: users, interference graph, and
/// the availability weights `P^A_m` of the channels in `A(t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferingProblem {
    users: Vec<UserState>,
    graph: InterferenceGraph,
    channel_weights: Vec<f64>,
}

impl InterferingProblem {
    /// Builds the problem.
    ///
    /// `channel_weights[m]` is the fused availability posterior `P^A_m`
    /// of the m-th channel in the slot's available set.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if there are no users, a user references
    /// an FBS outside the graph, or a weight is not a probability.
    pub fn new(
        users: Vec<UserState>,
        graph: InterferenceGraph,
        channel_weights: Vec<f64>,
    ) -> Result<Self, CoreError> {
        if users.is_empty() {
            return Err(CoreError::NoUsers);
        }
        for u in &users {
            if u.fbs().0 >= graph.num_vertices() {
                return Err(CoreError::UnknownFbs {
                    fbs: u.fbs().0,
                    num_fbss: graph.num_vertices(),
                });
            }
        }
        for w in &channel_weights {
            check_probability("channel_weight", *w)?;
        }
        Ok(Self {
            users,
            graph,
            channel_weights,
        })
    }

    /// The users.
    pub fn users(&self) -> &[UserState] {
        &self.users
    }

    /// The interference graph.
    pub fn graph(&self) -> &InterferenceGraph {
        &self.graph
    }

    /// Availability weights of the available channels.
    pub fn channel_weights(&self) -> &[f64] {
        &self.channel_weights
    }

    /// Number of FBSs `N`.
    pub fn num_fbss(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of available channels `|A(t)|`.
    pub fn num_channels(&self) -> usize {
        self.channel_weights.len()
    }

    /// `G^t_i = Σ_m c_{i,m}·P^A_m` for every FBS under `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's dimensions do not match the problem.
    pub fn g_for(&self, assignment: &ChannelAssignment) -> Vec<f64> {
        assert_eq!(assignment.num_fbss(), self.num_fbss(), "FBS count mismatch");
        assert_eq!(
            assignment.num_channels(),
            self.num_channels(),
            "channel count mismatch"
        );
        (0..self.num_fbss())
            .map(|i| self.g_granting(assignment, FbsId(i), None))
            .collect()
    }

    /// `G^t_i` of FBS `fbs` under `assignment` with `extra` also granted
    /// to it: the entry [`Self::g_for`] returns for that trial
    /// assignment, bit for bit, since it sums the same weights in the
    /// same (channel) order.
    pub(crate) fn g_granting(
        &self,
        assignment: &ChannelAssignment,
        fbs: FbsId,
        extra: Option<usize>,
    ) -> f64 {
        self.channel_weights
            .iter()
            .enumerate()
            .filter(|(m, _)| extra == Some(*m) || assignment.is_assigned(fbs, *m))
            .map(|(_, w)| *w)
            .sum()
    }

    /// The time-share problem (17) induced by `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's dimensions do not match.
    pub fn problem_for(&self, assignment: &ChannelAssignment) -> SlotProblem {
        SlotProblem::new(self.users.clone(), self.g_for(assignment))
            .expect("validated at construction")
    }

    /// `Q(c)`: the optimal objective of problem (17) under `assignment`,
    /// computed with the fast water-filling solver.
    pub fn q_value(&self, assignment: &ChannelAssignment, solver: &WaterfillingSolver) -> f64 {
        self.q_solution(assignment, solver).0
    }

    /// As [`Self::q_value`], also returning the solved time-share
    /// allocation.
    pub fn q_solution(
        &self,
        assignment: &ChannelAssignment,
        solver: &WaterfillingSolver,
    ) -> (f64, Allocation) {
        let g = self.g_for(assignment);
        self.workspace(&g, FillScratch::new()).q_at(&g, solver)
    }

    /// A workspace for `Q` solves of this problem, its view pointed at
    /// the channel counts `g`, its fills made through `scratch`.
    pub(crate) fn workspace(&self, g: &[f64], scratch: FillScratch) -> QWorkspace {
        QWorkspace {
            soa: SoaProblem::from_users(&self.users, g),
            buffers: SolveBuffers::default(),
            scratch,
        }
    }

    /// `Q(∅)`: the objective with no channels allocated (everyone can
    /// only be served by the MBS). The paper's bound algebra normalizes
    /// `Q(π_0) = 0`; in code the bounds operate on the *gain*
    /// `Q(c) − Q(∅)`, which is equivalent (DESIGN.md §7, deviation 5).
    pub fn q_empty(&self, solver: &WaterfillingSolver) -> f64 {
        self.q_value(
            &ChannelAssignment::empty(self.num_fbss(), self.num_channels()),
            solver,
        )
    }
}

/// What a sequence of `Q` solves of one problem shares: the SoA view of
/// its users, whose `G` column each solve re-points, one set of solve
/// buffers, and one fill scratch. A greedy run makes one for all its
/// solves, with a scratch that caches their fills.
#[derive(Debug)]
pub(crate) struct QWorkspace {
    soa: SoaProblem,
    buffers: SolveBuffers,
    scratch: FillScratch,
}

impl QWorkspace {
    /// `Q` and its allocation at the channel counts `g`: `Q(c)` depends
    /// on the assignment only through `G = g_for(c)`. `Q` is
    /// [`SlotProblem::objective`] of the allocation, bit for bit, and
    /// the solve allocates only the allocation it returns.
    pub(crate) fn q_at(&mut self, g: &[f64], solver: &WaterfillingSolver) -> (f64, Allocation) {
        // Each Q(c) evaluation is one inner time-share solve — the
        // O(N²M²) term of Table III. The counter makes the actual
        // inner-solve volume observable per run.
        fcr_telemetry::incr("greedy.inner_solves", 1);
        self.soa.set_g(g);
        solver.solve_soa(&self.soa, &mut self.buffers, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> InterferenceGraph {
        InterferenceGraph::new(3, &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))])
    }

    fn user(w: f64, fbs: usize) -> UserState {
        UserState::new(w, FbsId(fbs), 0.72, 0.72, 0.5, 0.9).unwrap()
    }

    fn problem() -> InterferingProblem {
        InterferingProblem::new(
            vec![user(30.0, 0), user(29.0, 1), user(28.0, 2)],
            path3(),
            vec![0.9, 0.8, 0.7, 0.85],
        )
        .unwrap()
    }

    #[test]
    fn assignment_bookkeeping() {
        let mut a = ChannelAssignment::empty(3, 4);
        assert!(a.is_empty());
        a.assign(FbsId(0), 2);
        a.assign(FbsId(2), 2);
        a.assign(FbsId(1), 0);
        assert_eq!(a.len(), 3);
        assert!(a.is_assigned(FbsId(0), 2));
        assert!(!a.is_assigned(FbsId(0), 0));
        assert_eq!(a.holders(2), vec![FbsId(0), FbsId(2)]);
        assert_eq!(a.num_fbss(), 3);
        assert_eq!(a.num_channels(), 4);
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assignment_panics() {
        let mut a = ChannelAssignment::empty(2, 2);
        a.assign(FbsId(0), 0);
        a.assign(FbsId(0), 0);
    }

    #[test]
    fn conflict_detection_matches_lemma4() {
        let g = path3();
        let mut ok = ChannelAssignment::empty(3, 1);
        ok.assign(FbsId(0), 0);
        ok.assign(FbsId(2), 0); // 0 and 2 are not adjacent
        assert!(ok.is_conflict_free(&g));
        let mut bad = ChannelAssignment::empty(3, 1);
        bad.assign(FbsId(0), 0);
        bad.assign(FbsId(1), 0); // adjacent
        assert!(!bad.is_conflict_free(&g));
    }

    #[test]
    fn round_robin_is_conflict_free_and_fair() {
        let g = path3();
        let a = round_robin_assignment(&g, 6);
        assert!(a.is_conflict_free(&g));
        // Every channel is held by at least one FBS.
        for m in 0..6 {
            assert!(!a.holders(m).is_empty(), "channel {m} unassigned");
        }
        // All FBSs get some channels over the cycle.
        let p = problem();
        let counts: Vec<usize> = (0..3)
            .map(|i| (0..6).filter(|m| a.is_assigned(FbsId(i), *m)).count())
            .collect();
        let _ = p;
        assert!(counts.iter().all(|c| *c >= 1), "counts {counts:?}");
    }

    #[test]
    fn coloring_assignment_is_conflict_free_and_cycles_classes() {
        let g = path3(); // colors (0, 1, 0): 2 classes.
        let a = coloring_assignment(&g, 4);
        assert!(a.is_conflict_free(&g));
        // Channel 0 → class 0 = {FBS 0, FBS 2}; channel 1 → class 1 = {FBS 1}.
        assert_eq!(a.holders(0), vec![FbsId(0), FbsId(2)]);
        assert_eq!(a.holders(1), vec![FbsId(1)]);
        assert_eq!(a.holders(2), vec![FbsId(0), FbsId(2)]);
        // Conservative: a coloring class never packs a channel beyond
        // its own members, so round-robin dominates it channel-wise.
        let rr = round_robin_assignment(&g, 4);
        assert!(rr.len() >= a.len());
    }

    #[test]
    fn coloring_assignment_on_edgeless_graph_shares_everything() {
        let g = InterferenceGraph::edgeless(3);
        let a = coloring_assignment(&g, 2);
        for i in 0..3 {
            for m in 0..2 {
                assert!(a.is_assigned(FbsId(i), m));
            }
        }
    }

    #[test]
    fn round_robin_on_edgeless_graph_gives_everything_to_everyone() {
        let g = InterferenceGraph::edgeless(3);
        let a = round_robin_assignment(&g, 2);
        for i in 0..3 {
            for m in 0..2 {
                assert!(a.is_assigned(FbsId(i), m));
            }
        }
    }

    #[test]
    fn g_for_sums_assigned_weights() {
        let p = problem();
        let mut a = ChannelAssignment::empty(3, 4);
        a.assign(FbsId(0), 0); // 0.9
        a.assign(FbsId(0), 3); // 0.85
        a.assign(FbsId(1), 1); // 0.8
        let g = p.g_for(&a);
        assert!((g[0] - 1.75).abs() < 1e-12);
        assert!((g[1] - 0.8).abs() < 1e-12);
        assert_eq!(g[2], 0.0);
    }

    #[test]
    fn q_is_monotone_in_assignment() {
        let p = problem();
        let solver = WaterfillingSolver::new();
        let empty = p.q_empty(&solver);
        let mut a = ChannelAssignment::empty(3, 4);
        a.assign(FbsId(0), 0);
        let q1 = p.q_value(&a, &solver);
        a.assign(FbsId(1), 1);
        let q2 = p.q_value(&a, &solver);
        assert!(
            q1 >= empty - 1e-9,
            "one channel can't hurt: {q1} vs {empty}"
        );
        assert!(q2 >= q1 - 1e-9);
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            InterferingProblem::new(vec![], path3(), vec![0.5]).unwrap_err(),
            CoreError::NoUsers
        );
        assert!(InterferingProblem::new(vec![user(30.0, 5)], path3(), vec![0.5]).is_err());
        assert!(InterferingProblem::new(vec![user(30.0, 0)], path3(), vec![1.5]).is_err());
    }

    #[test]
    fn accessors() {
        let p = problem();
        assert_eq!(p.num_fbss(), 3);
        assert_eq!(p.num_channels(), 4);
        assert_eq!(p.users().len(), 3);
        assert_eq!(p.channel_weights().len(), 4);
        assert_eq!(p.graph().max_degree(), 2);
    }
}
