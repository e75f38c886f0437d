//! From pack to runnable objects: geometry, [`Scenario`], batch
//! [`SimSession`], and serve-side [`SessionSpec`]s.
//!
//! The three paper topologies (`single_fbs`, `paper_fig1`,
//! `paper_fig5`) build through [`Scenario::uniform`] — the same
//! constructor the Rust helpers delegate to — so a pack expressing a
//! paper figure is **bit-identical** to the hand-written constructor,
//! a fact the conformance suite asserts on both engines. `random` and
//! `geometric` packs derive per-user SINRs from the radio link budget
//! instead.

use crate::pack::{Pack, TopologySpec};
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::{CrUser, Fbs};
use fcr_net::{Point, Topology};
use fcr_serve::SessionSpec;
use fcr_sim::scenario::RadioParams;
use fcr_sim::{Scenario, SimSession};
use fcr_stats::rng::SeedSequence;
use std::sync::Arc;

/// The interference graphs behind the paper's uniform topologies.
fn paper_graph(spec: &TopologySpec) -> Option<InterferenceGraph> {
    use fcr_net::node::FbsId;
    match spec {
        TopologySpec::SingleFbs { .. } => Some(InterferenceGraph::new(1, &[])),
        TopologySpec::PaperFig1 { .. } => Some(InterferenceGraph::new(4, &[(FbsId(2), FbsId(3))])),
        TopologySpec::PaperFig5 { .. } => Some(InterferenceGraph::new(
            3,
            &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))],
        )),
        _ => None,
    }
}

impl Pack {
    /// The pack's geometric topology: cell positions, coverage disks,
    /// and user start positions. This is what the mobility model walks
    /// on. For the uniform paper kinds it is the matching
    /// `fcr_net::scenarios` geometry; for `random` it derives from the
    /// pack seed (stream `"topology"`).
    pub fn topology(&self) -> Topology {
        match &self.topology {
            TopologySpec::SingleFbs { users } => fcr_net::scenarios::single_fbs(*users as usize),
            TopologySpec::PaperFig1 { users_per_fbs } => {
                fcr_net::scenarios::paper_fig1(*users_per_fbs as usize)
            }
            TopologySpec::PaperFig5 { users_per_fbs } => {
                fcr_net::scenarios::paper_fig5_with_users(*users_per_fbs as usize)
            }
            TopologySpec::Random {
                fbss,
                users_per_fbs,
                side,
                coverage,
            } => {
                let mut rng = SeedSequence::new(self.seed).stream("topology", 0);
                fcr_net::scenarios::random_topology(
                    *fbss as usize,
                    *users_per_fbs as usize,
                    *side,
                    *coverage,
                    &mut rng,
                )
            }
            TopologySpec::Geometric { mbs, fbss, users } => Topology::new(
                Point::new(mbs.0, mbs.1),
                fbss.iter()
                    .map(|f| Fbs::new(Point::new(f.pos.0, f.pos.1), f.radius))
                    .collect(),
                users
                    .iter()
                    .map(|u| CrUser::new(Point::new(u.0, u.1)))
                    .collect(),
            ),
        }
    }

    /// The pack's [`Scenario`]. Paper kinds go through
    /// [`Scenario::uniform`] (bit-identical to the hand-written
    /// constructors); geometric kinds through
    /// [`Scenario::from_topology`] with the default radio link budget.
    pub fn scenario(&self) -> Scenario {
        let cfg = self.sim_config();
        if let Some(graph) = paper_graph(&self.topology) {
            let users_per_fbs = match &self.topology {
                TopologySpec::SingleFbs { users } => *users as usize,
                TopologySpec::PaperFig1 { users_per_fbs }
                | TopologySpec::PaperFig5 { users_per_fbs } => *users_per_fbs as usize,
                _ => unreachable!("paper_graph only matches uniform kinds"),
            };
            Scenario::uniform(graph, users_per_fbs, &self.traffic.sequences, &cfg)
        } else {
            Scenario::from_topology(
                &self.topology(),
                &self.traffic.sequences,
                &RadioParams::default(),
                &cfg,
            )
        }
    }

    /// The pack's batch session, fully configured: scenario, merged
    /// config, pack seed, and run count. Callers pick the scheme (and
    /// optionally a shard policy / trace mode) at `run` time.
    pub fn session(&self) -> SimSession {
        SimSession::new(self.scenario())
            .config(self.sim_config())
            .seed(self.seed)
            .runs(self.runs)
    }

    /// A serve-side session spec for ordinal `n` under this pack: the
    /// shared scenario, the merged config, the pack's traffic shape,
    /// and the seed stream `"session"`/`n` — so admission order never
    /// changes what any individual session computes.
    pub fn session_spec(&self, scenario: &Arc<Scenario>, n: u64) -> SessionSpec {
        SessionSpec::new(Arc::clone(scenario), self.sim_config())
            .seed(SeedSequence::new(self.seed).derive("session", n))
            .base_runs(self.traffic.base_runs)
            .enhancement_runs(self.traffic.enhancement_runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{ChannelSpec, TrafficSpec};
    use fcr_sim::config::SimConfig;
    use fcr_sim::Scheme;
    use fcr_video::sequences::Sequence;

    fn base(topology: TopologySpec, sequences: Vec<Sequence>) -> Pack {
        Pack {
            name: "t".into(),
            description: String::new(),
            seed: 11,
            runs: 1,
            schemes: vec![Scheme::Proposed],
            topology,
            channel: ChannelSpec::default(),
            traffic: TrafficSpec {
                sequences,
                base_runs: 1,
                enhancement_runs: 0,
            },
            mobility: None,
            churn: None,
        }
    }

    #[test]
    fn paper_packs_reproduce_the_rust_constructors_exactly() {
        let cfg = SimConfig::default();
        let trio = Sequence::PAPER_TRIO.to_vec();
        let single = base(TopologySpec::SingleFbs { users: 3 }, trio.clone());
        assert_eq!(single.scenario(), Scenario::single_fbs(&cfg));
        let fig1 = base(TopologySpec::PaperFig1 { users_per_fbs: 3 }, trio.clone());
        assert_eq!(fig1.scenario(), Scenario::fig1(&cfg));
        let fig5 = base(TopologySpec::PaperFig5 { users_per_fbs: 3 }, trio);
        assert_eq!(fig5.scenario(), Scenario::interfering_fig5(&cfg));
    }

    #[test]
    fn random_topology_is_deterministic_in_the_pack_seed() {
        let pack = base(
            TopologySpec::Random {
                fbss: 3,
                users_per_fbs: 2,
                side: 200.0,
                coverage: 30.0,
            },
            vec![Sequence::Bus],
        );
        let a = pack.scenario();
        let b = pack.scenario();
        assert_eq!(a, b, "same pack, same scenario");
        assert_eq!(a.users.len(), 6);
        let mut other = pack.clone();
        other.seed = 12;
        assert_ne!(other.scenario(), a, "different seed, different placement");
    }

    #[test]
    fn geometric_packs_build_explicit_topologies() {
        use crate::pack::GeoFbs;
        let pack = base(
            TopologySpec::Geometric {
                mbs: (0.0, 120.0),
                fbss: vec![
                    GeoFbs {
                        pos: (-45.0, 0.0),
                        radius: 28.0,
                    },
                    GeoFbs {
                        pos: (45.0, 0.0),
                        radius: 28.0,
                    },
                ],
                users: vec![(-40.0, 2.0), (48.0, -3.0), (0.0, 60.0)],
            },
            vec![Sequence::Bus, Sequence::Mobile],
        );
        let topo = pack.topology();
        assert_eq!(topo.num_fbss(), 2);
        assert_eq!(topo.num_users(), 3);
        let scen = pack.scenario();
        assert_eq!(scen.users.len(), 3);
        // Users cycle the traffic mix globally.
        assert_eq!(scen.users[0].sequence, Sequence::Bus);
        assert_eq!(scen.users[1].sequence, Sequence::Mobile);
        assert_eq!(scen.users[2].sequence, Sequence::Bus);
    }

    #[test]
    fn session_specs_derive_per_ordinal_seeds() {
        let pack = base(TopologySpec::SingleFbs { users: 2 }, vec![Sequence::Bus]);
        let scenario = Arc::new(pack.scenario());
        let a = pack.session_spec(&scenario, 0);
        let b = pack.session_spec(&scenario, 1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.seed, pack.session_spec(&scenario, 0).seed);
        assert_eq!(a.base_runs, 1);
        assert_eq!(a.enhancement_runs, 0);
    }
}
