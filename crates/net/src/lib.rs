//! Femtocell network-topology substrate.
//!
//! The paper's network (Fig. 1) has one macro base station (MBS) on the
//! common channel, `N` femto base stations (FBS) with finite coverage
//! disks, and `K` CR users each associated with the nearest FBS that
//! covers it. Overlapping FBS coverages induce an **interference graph**
//! (Definition 1): vertices are FBSs, edges connect FBSs that cannot
//! reuse the same licensed channel simultaneously.
//!
//! Modules:
//!
//! * [`geometry`] — planar points and distances;
//! * [`node`] — typed identifiers and node records for the MBS, FBSs,
//!   and CR users;
//! * [`topology`] — placement plus the nearest-FBS association rule;
//! * [`interference`] — the interference graph, its degrees (which set
//!   the Theorem-2 bound `1/(1+D_max)`), conflict checking (Lemma 4),
//!   and maximal-independent-set enumeration used by the exhaustive
//!   optimal channel allocator;
//! * [`scenarios`] — the canonical topologies of the paper's evaluation
//!   (single FBS; the Fig. 5 three-FBS path; the Fig. 1 four-FBS
//!   layout) and a random-topology generator.
//!
//! # Examples
//!
//! ```
//! use fcr_net::scenarios;
//!
//! let scenario = scenarios::paper_fig5();
//! let graph = scenario.interference_graph();
//! assert_eq!(graph.num_vertices(), 3);
//! assert_eq!(graph.max_degree(), 2); // FBS 2 interferes with both ends
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod geometry;
pub mod interference;
pub mod node;
pub mod scenarios;
pub mod topology;

pub use geometry::Point;
pub use interference::InterferenceGraph;
pub use node::{CrUser, Fbs, FbsId, UserId};
pub use topology::Topology;
