//! Test harnesses for the fcr workspace: property-based scenario
//! generation, deterministic fault injection, and golden-trace
//! conformance.
//!
//! The workspace's unit tests pin down each crate in isolation; this
//! crate owns the *cross-crate* guarantees that only hold when the
//! whole pipeline — sensing → fusion → access → allocation →
//! transmission — runs together on the sharded worker pool:
//!
//! * [`generators`] — proptest strategies producing random **but
//!   valid** domain objects: simulation configs, (ε, δ) sensing
//!   points, interference graphs on ≤ 3 FBSs, MGS rate–distortion
//!   curves, and small interfering allocation problems. Every
//!   generated value satisfies its type's own validation, so property
//!   suites exercise invariants, not constructor errors.
//! * [`faults`] — seeded [`fcr_runtime::FaultPlan`] scenarios (worker
//!   panics, execution delays, or both) plus the harness that
//!   proves the paper's numbers are *fault-invariant*: a faulted pool
//!   must lose no jobs, duplicate no jobs, and reproduce the
//!   uninjected PSNRs bit for bit, on both the fluid and the
//!   packet-level engine.
//! * [`golden`] — canonical JSONL renderings of the fig-3/4/6
//!   scenarios with a check-or-regenerate workflow
//!   (`FCR_REGEN_GOLDENS=1`), so any drift in simulated numbers is a
//!   reviewed diff, not a silent change.
//! * [`seeds`] — the pinned CI seed and the splitmix64 stream used to
//!   derive per-case seeds, so every failure line can be replayed.
//! * [`serve_storm`] — the serve-path counterpart of [`faults`]:
//!   churn storms through [`fcr_serve::Service`] on a faulted pool,
//!   proving exact session accounting, panic containment, and
//!   bit-identity of served outputs with the batch path.
//!
//! The `soak` binary (`cargo run -p fcr-testkit --bin soak --
//! --seconds 30`) loops both chaos harnesses under fresh seeds for a
//! bounded wall-clock budget — the CI smoke version of an overnight
//! chaos run.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod faults;
pub mod generators;
pub mod golden;
pub mod seeds;
pub mod serve_storm;

pub use faults::{install_quiet_hook, standard_cases, FaultCase, FaultVerdict};
pub use golden::{check_or_regen, GoldenStatus};
pub use seeds::{splitmix64, CI_SEED};
pub use serve_storm::{verify_serve_under_faults, ServeStormVerdict};
