//! # fcr — MGS scalable video over femtocell cognitive radio networks
//!
//! A complete Rust implementation of **Hu & Mao, "Resource Allocation
//! for Medium Grain Scalable Videos over Femtocell Cognitive Radio
//! Networks" (ICDCS 2011)**: the stochastic-programming formulation,
//! the optimum-achieving distributed algorithm for non-interfering
//! femtocells (Tables I/II), the greedy channel allocation with proven
//! bounds for interfering femtocells (Table III, Theorem 2, eq. (23)),
//! both baseline heuristics, and the full slot-level simulator that
//! regenerates every figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`stats`] | RNG streams, summaries, confidence intervals, fairness |
//! | [`spectrum`] | Markov channels, sensing, Bayesian fusion, access, fading |
//! | [`video`] | MGS rate–PSNR model, sequences, GOPs, NAL packets, sessions |
//! | [`net`] | topology, association, interference graphs |
//! | [`core`] | the allocation algorithms and bounds (the paper's contribution) |
//! | [`runtime`] | the elastic worker-pool scheduling runtime with live metrics |
//! | [`telemetry`] | span tracing, solver convergence capture, JSONL export |
//! | [`sim`] | the slot-level simulator and sharded simulation sessions |
//! | [`serve`] | the always-on streaming service: admission control, churn, live metrics |
//! | [`scenario`] | declarative JSON scenario packs, mobility/handover walks, churn schedules |
//!
//! # Quick start
//!
//! Run the paper's Fig. 3 setup for a couple of GOPs — three runs,
//! sharded across the elastic worker pool, bit-identical to a serial
//! loop:
//!
//! ```
//! use fcr::prelude::*;
//!
//! let cfg = SimConfig { gops: 2, ..SimConfig::default() };
//! let summary = SimSession::new(Scenario::single_fbs(&cfg))
//!     .config(cfg)
//!     .runs(3)
//!     .seed(42)
//!     .shards(ShardPolicy::Auto)
//!     .run(Scheme::Proposed)
//!     .summary();
//! assert!(summary.overall.mean() > 25.0);
//! assert!(summary.collision.mean() <= cfg.gamma + 0.05);
//! ```
//!
//! See `examples/` for runnable end-to-end programs and the
//! `experiments` binary (`cargo run -p fcr-experiments -- all`) for the
//! figure reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fcr_core as core;
pub use fcr_net as net;
pub use fcr_runtime as runtime;
pub use fcr_scenario as scenario;
pub use fcr_serve as serve;
pub use fcr_sim as sim;
pub use fcr_spectrum as spectrum;
pub use fcr_stats as stats;
pub use fcr_telemetry as telemetry;
pub use fcr_video as video;

/// The most commonly used types, for glob import in examples and
/// applications.
pub mod prelude {
    pub use fcr_core::allocation::{Allocation, Mode, UserAllocation};
    pub use fcr_core::dual::{DualConfig, DualSolver, StepSchedule};
    pub use fcr_core::greedy::GreedyAllocator;
    pub use fcr_core::problem::{SlotProblem, UserState};
    pub use fcr_core::waterfill::WaterfillingSolver;
    pub use fcr_net::interference::InterferenceGraph;
    pub use fcr_net::node::{FbsId, UserId};
    pub use fcr_runtime::{
        AutoscaleConfig, JobError, JobOutcome, MetricsSnapshot, Priority, PriorityClass,
        ResizeEvent, ResizeTrigger, Runtime, RuntimeConfig, ShardPolicy,
    };
    pub use fcr_scenario::{
        ChurnDriver, ChurnSchedule, MobilityModel, Pack, PackError, PACK_SCHEMA_VERSION,
    };
    pub use fcr_serve::{
        AdmitOutcome, CompletedSession, HandoverKind, HandoverOutcome, HandoverReject,
        MetricsServer, RejectReason, ServeConfig, Service, ServiceSnapshot, SessionId, SessionSpec,
    };
    pub use fcr_sim::config::SimConfig;
    pub use fcr_sim::engine::{RunOutput, TraceMode};
    pub use fcr_sim::metrics::{RunResult, SchemeSummary};
    pub use fcr_sim::scenario::Scenario;
    pub use fcr_sim::scheme::Scheme;
    pub use fcr_sim::session::{PacketSessionResult, SessionResult, SimSession};
    pub use fcr_sim::trace::{SimTrace, SlotRecord};
    pub use fcr_spectrum::access::AccessPolicy;
    pub use fcr_spectrum::fusion::AvailabilityPosterior;
    pub use fcr_spectrum::markov::TwoStateMarkov;
    pub use fcr_spectrum::sensing::{Observation, SensorProfile};
    pub use fcr_stats::rng::SeedSequence;
    pub use fcr_telemetry::{Phase, Span, TelemetrySink, TelemetrySnapshot};
    pub use fcr_video::quality::{Mbps, Psnr};
    pub use fcr_video::sequences::Sequence;
    pub use fcr_video::session::VideoSession;
}
