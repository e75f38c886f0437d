//! Slot-level simulator for MGS video streaming over femtocell CR
//! networks — the machinery behind every figure of Section V.
//!
//! Each time slot executes the paper's phase structure end to end:
//!
//! 1. **primary evolution** — the licensed channels' Markov occupancy
//!    advances;
//! 2. **sensing** — every FBS senses all channels, every CR user senses
//!    one (round-robin), all with (ε, δ) errors;
//! 3. **fusion** — per-channel Bayesian availability posteriors
//!    (eqs. (2)–(4));
//! 4. **access** — the collision-bounded rule (eq. (7)) yields the
//!    available set `A(t)` and `G_t`;
//! 5. **allocation** — the scheme under test (proposed / heuristic 1 /
//!    heuristic 2 / upper bound) splits channels and slot time;
//! 6. **transmission** — packet losses ξ and *true* channel occupancy
//!    are realized; the per-user PSNR recursion advances, capped at
//!    each stream's full-quality ceiling;
//! 7. **accounting** — GOP deadlines record Y-PSNRs; collisions with
//!    primary users are tallied against γ.
//!
//! Modules: [`config`] (parameters, defaults = the paper's baseline,
//! plus the ablation switches: prior mode, access mode, sensing
//! strategy, scalability flavour), [`scenario`] (who is where, link
//! qualities hand-set or derived from geometry, interference graph),
//! [`scheme`] (the four allocation policies), [`engine`] (the fluid
//! slot loop, with optional per-slot [`trace`]s),
//! [`packet_engine`] (the NAL-unit-granular validation mode),
//! [`metrics`] (per-run results), [`report`] (table rendering),
//! [`pool`] (the process-wide [`fcr_runtime`] worker pool and its
//! domain counters), [`stream`] (one run cut into GOP-aligned slot
//! windows), and [`session`] (the builder-style
//! [`session::SimSession`] entry point that runs those windows on the
//! shared pool and can tag a whole session with a scheduling
//! [`fcr_runtime::Priority`]).
//!
//! # Examples
//!
//! ```
//! use fcr_sim::config::SimConfig;
//! use fcr_sim::scenario::Scenario;
//! use fcr_sim::scheme::Scheme;
//! use fcr_sim::engine;
//! use fcr_stats::rng::SeedSequence;
//!
//! let cfg = SimConfig { gops: 2, ..SimConfig::default() };
//! let scenario = Scenario::single_fbs(&cfg);
//! let out = engine::run(
//!     &scenario,
//!     &cfg,
//!     Scheme::Proposed,
//!     &SeedSequence::new(7),
//!     0,
//!     engine::TraceMode::Off,
//! );
//! assert_eq!(out.result.per_user_psnr.len(), 3);
//! assert!(out.result.collision_rate <= cfg.gamma + 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod massive;
pub mod metrics;
pub mod packet_engine;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod scheme;
pub mod session;
pub mod stream;
pub mod trace;

pub use config::SimConfig;
pub use engine::{run, RunOutput, TraceMode};
pub use metrics::RunResult;
pub use packet_engine::{run_packet_level, PacketRunResult};
pub use scenario::{Scenario, UserSpec};
pub use scheme::Scheme;
pub use session::{PacketSessionResult, SessionResult, SimSession};
pub use stream::{CompletedWindow, RunStream, ShardCounters, WindowTask};
pub use trace::{SimTrace, SlotRecord};
