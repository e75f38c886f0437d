//! Interference-graph partitioner: independent FBS clusters as
//! independent channel-allocation subproblems.
//!
//! At massive N the interference graph is sparse — a femtocell only
//! conflicts with its geometric neighbors — so it splits into many
//! connected components. Channels never couple FBSs across components
//! (Lemma 4 constrains *adjacent* FBSs only), so the Table III greedy
//! can run per component, on a subproblem a fraction of the size, and
//! the per-component assignments merge into one conflict-free global
//! assignment. The components are what `fcr-runtime` fans out as
//! parallel jobs (see `fcr_sim::massive`).
//!
//! One coupling survives the split: the shared MBS budget (DESIGN §7
//! deviation 6). A cluster subproblem sees only its own users, so its
//! `Q` evaluations price the common channel as if the cluster had the
//! MBS to itself — exact in the offload regime the paper studies
//! (femtocell rates dominate, the common channel is a fallback), and an
//! approximation of the *channel choice* otherwise. The *time-share*
//! allocation is never approximated: callers solve it globally at the
//! merged assignment (one [`crate::dual`] or [`crate::waterfill`] pass
//! over all users), so the final allocation is exactly the optimum for
//! the channels chosen. DESIGN §15 discusses when the split is sound.

use crate::greedy::{GreedyAllocator, GreedyOutcome};
use crate::interfering::{ChannelAssignment, InterferingProblem};
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;

/// One connected component of the interference graph, re-indexed as a
/// self-contained [`InterferingProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterProblem {
    fbs_ids: Vec<FbsId>,
    user_ids: Vec<usize>,
    problem: InterferingProblem,
}

impl ClusterProblem {
    /// The component's FBSs, ascending global ids. Local FBS `k` of
    /// [`Self::problem`] is global `fbs_ids()[k]`.
    pub fn fbs_ids(&self) -> &[FbsId] {
        &self.fbs_ids
    }

    /// The component's users as indices into the parent problem's user
    /// array, ascending. Local user `k` is global `user_ids()[k]`.
    pub fn user_ids(&self) -> &[usize] {
        &self.user_ids
    }

    /// The re-indexed subproblem (same channel weights as the parent).
    pub fn problem(&self) -> &InterferingProblem {
        &self.problem
    }

    /// Writes a local assignment's pairs into `global` at the global
    /// FBS ids.
    ///
    /// # Panics
    ///
    /// Panics if `local`'s dimensions do not match the cluster, or a
    /// targeted global pair is already assigned.
    fn fold_into(&self, local: &ChannelAssignment, global: &mut ChannelAssignment) {
        assert_eq!(local.num_fbss(), self.fbs_ids.len(), "cluster FBS count");
        for (k, fbs) in self.fbs_ids.iter().enumerate() {
            for ch in 0..local.num_channels() {
                if local.is_assigned(FbsId(k), ch) {
                    global.assign(*fbs, ch);
                }
            }
        }
    }
}

/// The connected components of an [`InterferingProblem`]'s graph, each
/// packaged as a [`ClusterProblem`].
///
/// FBSs whose component serves no users are recorded in
/// [`Partition::idle_fbss`] and excluded from the clusters: a channel
/// granted to a user-less FBS moves no traffic, and
/// [`InterferingProblem`] (correctly) refuses to model a user-less
/// cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    num_fbss: usize,
    num_channels: usize,
    clusters: Vec<ClusterProblem>,
    idle_fbss: Vec<FbsId>,
}

impl Partition {
    /// Splits `problem` into its interference components (BFS over the
    /// graph, components ordered by their smallest FBS id).
    pub fn of(problem: &InterferingProblem) -> Self {
        let graph = problem.graph();
        let n = graph.num_vertices();
        // Users per FBS, ascending user order.
        let mut users_of = vec![Vec::new(); n];
        for (j, u) in problem.users().iter().enumerate() {
            users_of[u.fbs().0].push(j);
        }

        let mut component = vec![usize::MAX; n];
        let mut num_components = 0;
        let mut queue = Vec::new();
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let id = num_components;
            num_components += 1;
            component[start] = id;
            queue.push(FbsId(start));
            while let Some(v) = queue.pop() {
                for w in graph.neighbors(v) {
                    if component[w.0] == usize::MAX {
                        component[w.0] = id;
                        queue.push(w);
                    }
                }
            }
        }

        let mut members = vec![Vec::new(); num_components];
        for (i, c) in component.iter().enumerate() {
            members[*c].push(FbsId(i));
        }

        // The edge list is an O(N²) adjacency scan: take it once, and let
        // each cluster filter its own edges from it, in order.
        let edges = graph.edges();
        let mut clusters = Vec::new();
        let mut idle_fbss = Vec::new();
        for fbs_ids in members {
            let user_ids: Vec<usize> = fbs_ids
                .iter()
                .flat_map(|f| users_of[f.0].iter().copied())
                .collect();
            if user_ids.is_empty() {
                idle_fbss.extend(fbs_ids);
                continue;
            }
            // Re-index: global FBS id → position within the cluster.
            let local_of = |f: FbsId| -> FbsId {
                FbsId(fbs_ids.binary_search(&f).expect("member of this cluster"))
            };
            let local_edges: Vec<(FbsId, FbsId)> = edges
                .iter()
                .filter(|(a, _)| component[a.0] == component[fbs_ids[0].0])
                .map(|&(a, b)| (local_of(a), local_of(b)))
                .collect();
            let local_graph = InterferenceGraph::new(fbs_ids.len(), &local_edges);
            let mut local_users = Vec::with_capacity(user_ids.len());
            for &j in &user_ids {
                let u = &problem.users()[j];
                local_users.push(u.with_fbs(local_of(u.fbs())));
            }
            let local_problem = InterferingProblem::new(
                local_users,
                local_graph,
                problem.channel_weights().to_vec(),
            )
            .expect("cluster of a valid problem is valid");
            clusters.push(ClusterProblem {
                fbs_ids,
                user_ids,
                problem: local_problem,
            });
        }

        Self {
            num_fbss: n,
            num_channels: problem.num_channels(),
            clusters,
            idle_fbss,
        }
    }

    /// The user-serving clusters, ordered by smallest global FBS id.
    pub fn clusters(&self) -> &[ClusterProblem] {
        &self.clusters
    }

    /// FBSs excluded because their whole component serves no users.
    pub fn idle_fbss(&self) -> &[FbsId] {
        &self.idle_fbss
    }

    /// Merges per-cluster assignments (one per [`Self::clusters`]
    /// entry, same order) into a global assignment. Conflict-free
    /// whenever each local assignment is: channels only conflict along
    /// graph edges, and every edge is internal to one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `locals.len()` differs from the cluster count or any
    /// local assignment's dimensions do not match its cluster.
    pub fn merge(&self, locals: &[ChannelAssignment]) -> ChannelAssignment {
        assert_eq!(
            locals.len(),
            self.clusters.len(),
            "one assignment per cluster"
        );
        let mut global = ChannelAssignment::empty(self.num_fbss, self.num_channels);
        for (cluster, local) in self.clusters.iter().zip(locals) {
            cluster.fold_into(local, &mut global);
        }
        global
    }

    /// Reference driver: runs `allocator` on every cluster serially and
    /// merges — the sequential semantics the parallel driver in
    /// `fcr_sim::massive` must reproduce exactly (cluster solves share
    /// no state, so execution order cannot change the result).
    pub fn allocate_serial(
        &self,
        allocator: &GreedyAllocator,
    ) -> (ChannelAssignment, Vec<GreedyOutcome>) {
        let outcomes: Vec<GreedyOutcome> = self
            .clusters
            .iter()
            .map(|c| allocator.allocate(c.problem()))
            .collect();
        let locals: Vec<ChannelAssignment> =
            outcomes.iter().map(|o| o.assignment().clone()).collect();
        (self.merge(&locals), outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::UserState;
    use crate::waterfill::WaterfillingSolver;

    fn user(w: f64, fbs: usize) -> UserState {
        // Offload regime: the common channel is a weak fallback, so the
        // MBS coupling across clusters is negligible.
        UserState::new(w, FbsId(fbs), 0.72, 0.72, 0.2, 0.9).unwrap()
    }

    /// Two path components (0–1, 2–3) and one isolated FBS 4.
    fn two_paths_problem() -> InterferingProblem {
        InterferingProblem::new(
            vec![
                user(30.0, 0),
                user(29.0, 1),
                user(28.0, 2),
                user(27.5, 3),
                user(31.0, 4),
            ],
            InterferenceGraph::new(5, &[(FbsId(0), FbsId(1)), (FbsId(2), FbsId(3))]),
            vec![0.9, 0.8],
        )
        .unwrap()
    }

    #[test]
    fn components_are_found_and_reindexed() {
        let p = two_paths_problem();
        let partition = Partition::of(&p);
        assert_eq!(partition.clusters().len(), 3);
        assert!(partition.idle_fbss().is_empty());
        let c0 = &partition.clusters()[0];
        assert_eq!(c0.fbs_ids(), &[FbsId(0), FbsId(1)]);
        assert_eq!(c0.user_ids(), &[0, 1]);
        assert_eq!(c0.problem().num_fbss(), 2);
        assert!(c0.problem().graph().are_adjacent(FbsId(0), FbsId(1)));
        let c2 = &partition.clusters()[2];
        assert_eq!(c2.fbs_ids(), &[FbsId(4)]);
        assert_eq!(c2.user_ids(), &[4]);
        assert_eq!(c2.problem().graph().max_degree(), 0);
        // Channel weights are shared unchanged.
        assert_eq!(c2.problem().channel_weights(), p.channel_weights());
    }

    #[test]
    fn user_less_components_are_set_aside() {
        let p = InterferingProblem::new(
            vec![user(30.0, 0)],
            InterferenceGraph::new(3, &[(FbsId(1), FbsId(2))]),
            vec![0.9],
        )
        .unwrap();
        let partition = Partition::of(&p);
        assert_eq!(partition.clusters().len(), 1);
        assert_eq!(partition.idle_fbss(), &[FbsId(1), FbsId(2)]);
    }

    #[test]
    fn merged_assignment_is_conflict_free_and_maximal() {
        let p = two_paths_problem();
        let partition = Partition::of(&p);
        let (merged, outcomes) = partition.allocate_serial(&GreedyAllocator::new());
        assert_eq!(outcomes.len(), 3);
        assert!(merged.is_conflict_free(p.graph()));
        // Each channel is maximally packed: an unassigned FBS always
        // has an assigned neighbor on that channel.
        for ch in 0..p.num_channels() {
            let holders = merged.holders(ch);
            for i in 0..p.num_fbss() {
                let f = FbsId(i);
                if holders.contains(&f) {
                    continue;
                }
                assert!(
                    holders.iter().any(|h| p.graph().are_adjacent(*h, f)),
                    "channel {ch}: {f} could still be added"
                );
            }
        }
    }

    #[test]
    fn partitioned_greedy_matches_whole_problem_greedy_in_the_offload_regime() {
        let p = two_paths_problem();
        let solver = WaterfillingSolver::new();
        let full = GreedyAllocator::new().allocate(&p);
        let partition = Partition::of(&p);
        let (merged, _) = partition.allocate_serial(&GreedyAllocator::new());
        // The channel choices need not be pairwise identical (clusters
        // price the common channel locally), but the objective at the
        // merged assignment — solved globally — must match the full
        // greedy's to solver tolerance in the offload regime.
        let q_merged = p.q_value(&merged, &solver);
        assert!(
            (q_merged - full.q_value()).abs() < 1e-6,
            "merged {q_merged} vs full {}",
            full.q_value()
        );
    }

    #[test]
    fn small_n_partitioned_solve_matches_the_exact_oracle() {
        // Two isolated FBSs with one user each: exhaustive-mode inner
        // solver makes every Q exact; the partitioned result must reach
        // the whole-problem optimum.
        let p = InterferingProblem::new(
            vec![user(30.0, 0), user(28.0, 1)],
            InterferenceGraph::edgeless(2),
            vec![0.9, 0.8],
        )
        .unwrap();
        let oracle = WaterfillingSolver::exact_up_to(2);
        let full = GreedyAllocator::with_solver(oracle).allocate(&p);
        let partition = Partition::of(&p);
        let (merged, _) = partition.allocate_serial(&GreedyAllocator::with_solver(oracle));
        let q_merged = p.q_value(&merged, &oracle);
        assert!(
            (q_merged - full.q_value()).abs() < 1e-9,
            "merged {q_merged} vs oracle {}",
            full.q_value()
        );
    }

    #[test]
    fn merge_panics_on_wrong_cluster_count() {
        let p = two_paths_problem();
        let partition = Partition::of(&p);
        let result = std::panic::catch_unwind(|| partition.merge(&[]));
        assert!(result.is_err());
    }

    #[test]
    fn single_component_partition_is_the_whole_problem() {
        let p = InterferingProblem::new(
            vec![user(30.0, 0), user(29.0, 1), user(28.0, 2)],
            InterferenceGraph::new(3, &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))]),
            vec![0.9, 0.8],
        )
        .unwrap();
        let partition = Partition::of(&p);
        assert_eq!(partition.clusters().len(), 1);
        assert_eq!(partition.clusters()[0].problem(), &p);
    }
}
