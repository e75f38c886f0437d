//! `fcr-serve` — the always-on streaming service for MGS video over
//! femtocell cognitive-radio networks.
//!
//! The paper's allocation loop (Hu & Mao, ICDCS 2011) runs one slot
//! clock forever in a deployment: sessions arrive and depart while
//! spectrum sensing and the dual/greedy solve keep running. This crate
//! is that daemonization of the batch simulator:
//!
//! - **Admission control** ([`Service::admit`]): each candidate
//!   session's MBS unit time-share demand — the eq.-(12) quantity
//!   `Σ_j ρ_{0,j}` — is estimated with one waterfilling solve and
//!   checked against a configurable budget plus a concurrency
//!   watermark. Rejections are explicit ([`RejectReason`]), never
//!   silent.
//! - **Slot clock + scheduling** ([`Service::step`]): active sessions
//!   are sharded window-by-window onto the priority/EDF worker pool —
//!   urgent near their playout deadline, bulk as prefetch — via
//!   [`fcr_sim::stream::RunStream`], which keeps served results
//!   **bit-identical** to batch [`fcr_sim::SimSession`] runs.
//! - **Graceful degradation**: under overload the ladder goes defer →
//!   shed enhancement-layer work → shed whole sessions, in that
//!   order, every stage counted. An admitted session is never dropped
//!   silently; lost pool jobs are resubmitted from their idempotent
//!   window tasks.
//! - **Exact accounting**: `admitted == active + completed + retired +
//!   shed`, asserted on every step.
//! - **Live metrics** ([`Service::metrics_text`],
//!   [`MetricsServer`]): a `serve` JSONL line plus the full telemetry
//!   export (phase timings, solver convergence, shard/span records,
//!   per-worker utilization), served over a std-only TCP
//!   endpoint and bounded in memory via the telemetry record caps and
//!   snapshot-and-reset counters.
//!
//! # Quick start
//!
//! ```
//! use fcr_serve::{ServeConfig, Service, SessionSpec};
//! use fcr_sim::config::SimConfig;
//! use fcr_sim::Scenario;
//! use std::sync::Arc;
//!
//! let cfg = SimConfig { gops: 2, deadline: 2, num_channels: 2, ..SimConfig::default() };
//! let scenario = Arc::new(Scenario::single_fbs(&cfg));
//! let service = Service::on_shared_pool(ServeConfig::default());
//! let id = match service.admit(SessionSpec::new(scenario, cfg).seed(7)) {
//!     fcr_serve::AdmitOutcome::Admitted(id) => id,
//!     fcr_serve::AdmitOutcome::Rejected(reason) => panic!("rejected: {reason}"),
//! };
//! service.quiesce(); // step the clock until the session completes
//! let done = service.take_completed();
//! assert_eq!(done[0].id, id);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod http;
mod service;
mod snapshot;

pub use config::{ServeConfig, ADMIT_EPS};
pub use http::MetricsServer;
pub use service::{
    AdmitOutcome, CompletedSession, HandoverKind, HandoverOutcome, HandoverReject, RejectReason,
    Service, SessionId, SessionSpec, StepReport,
};
pub use snapshot::ServiceSnapshot;

use fcr_runtime::Runtime;
use std::sync::{Arc, OnceLock};

/// The process-wide serve pool: sized by available parallelism and
/// shared by every [`Service::on_shared_pool`] in the process. Built on
/// first use.
pub fn shared_runtime() -> Arc<Runtime> {
    static POOL: OnceLock<Arc<Runtime>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| Arc::new(Runtime::new())))
}
