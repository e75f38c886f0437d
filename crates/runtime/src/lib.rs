//! `fcr-runtime` — the shared execution runtime underneath every
//! parallel workload in the workspace.
//!
//! The paper's evaluation (Section V of Hu & Mao, ICDCS 2011) is
//! embarrassingly parallel: every figure is a sweep of
//! `(parameter point × scheme × runs)` independent slot-loop
//! simulations. The seed implementation spawned one unbounded OS
//! thread per run; this crate replaces that with a fixed-size,
//! metrics-instrumented worker pool that the simulator, the
//! experiments binary, and future sharded/batched backends all share.
//!
//! # Architecture
//!
//! * **[`Runtime`]** — an **elastic** worker pool sized by
//!   [`std::thread::available_parallelism`] (overridable via
//!   [`RuntimeConfig`]). Workers never exceed the configured
//!   `max_workers` ceiling — a hard concurrency cap regardless of how
//!   many jobs are submitted — and the active count can grow/shrink
//!   ([`Runtime::resize`] / [`Runtime::autoscale`] / the always-on
//!   background loop started by [`Runtime::start_autoscaler`] or
//!   [`RuntimeConfig::autoscale`]) within `[min_workers,
//!   max_workers]`, driven by queue depth and per-worker utilization
//!   (in-flight jobs included, so long shards never read as idle).
//!   Loop steps respect an [`AutoscaleConfig`] cooldown so a grow is
//!   never immediately undone by a shrink; every applied step is a
//!   [`ResizeEvent`] tagged with its [`ResizeTrigger`] provenance.
//! * **[`Priority`]** — jobs carry a service class
//!   ([`PriorityClass::Urgent`] / `Normal` / `Bulk`) plus an optional
//!   absolute deadline; the run queue keeps one deque per class,
//!   EDF-ordered within the class, and every pop takes the
//!   highest-class earliest-deadline job first. Priorities change
//!   execution order only — results stay bit-identical.
//! * **[`ShardPolicy`]** — how shard-aware callers (`fcr-sim`) cut a
//!   long multi-GOP run into independently schedulable slot-window
//!   jobs; the policy only groups work, never changes RNG draws, so
//!   every choice is bit-identical to serial.
//! * **One bounded run queue** — every worker pops the same queue,
//!   under the lock it parks on, so a freed worker always takes the
//!   most urgent queued job. The queue holds at most
//!   `active workers × queue_capacity` jobs.
//! * **Backpressure** — [`Runtime::spawn`] blocks the submitter while
//!   the queue is full; [`Runtime::try_spawn_with`] instead drops the
//!   job and returns a [`RejectedJob`], leaving the policy (defer,
//!   shed, submit again later) to the caller.
//! * **Panic containment** — a panicking job is caught, recorded as a
//!   failed [`JobOutcome`], and counted in the metrics; the worker
//!   survives and the pool keeps draining.
//! * **Graceful shutdown** — [`Runtime::shutdown`] (also run on drop)
//!   finishes every queued job before joining the workers.
//! * **Deterministic fault injection** — a test pool built via
//!   [`Runtime::with_faults`] replays a seeded [`FaultPlan`] (chaos
//!   panic jobs, worker execution delays, forced resize storms) at
//!   exact submission/execution indices, so `fcr-testkit` can prove
//!   zero job loss/duplication and bit-identical results under
//!   adversarial schedules. Production pools carry no plan and pay
//!   one `Option` branch per seam.
//! * **Live metrics** — an atomic [`MetricsRegistry`]
//!   (jobs submitted / completed / failed / rejected, queue depth,
//!   in-flight gauge, wall-time histogram, plus named domain counters
//!   such as `slots_simulated`) snapshot-able mid-flight via
//!   [`Runtime::snapshot`].
//! * **Per-worker utilization** — each worker's busy time and
//!   executed job count are tracked individually and exposed as
//!   [`WorkerSnapshot`] rows (`busy_ns / lifetime_ns` = the worker's
//!   utilization), feeding `fcr-telemetry`'s JSONL export and the
//!   simulator's runtime report.
//!
//! # Determinism
//!
//! The runtime executes opaque closures and returns their results in
//! **submission order** ([`Runtime::run_batch`]); it injects no
//! randomness and no ordering dependence. Callers that derive each
//! job's seed from `(master seed, job index)` — as `fcr-sim`'s window
//! tasks do — therefore obtain results
//! bit-identical to a serial loop, preserving the common-random-numbers
//! property across allocation schemes.
//!
//! # Example
//!
//! ```
//! use fcr_runtime::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::with_config(RuntimeConfig {
//!     workers: 2,
//!     queue_capacity: 8,
//!     ..RuntimeConfig::default()
//! });
//! let outcomes = rt.run_batch((0u64..16).map(|i| move || i * i));
//! let squares: Vec<u64> = outcomes.into_iter().map(Result::unwrap).collect();
//! assert_eq!(squares[5], 25);
//! let snap = rt.snapshot();
//! assert_eq!(snap.jobs_completed, 16);
//! assert_eq!(snap.jobs_failed, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod fault;
pub mod histogram;
pub mod job;
pub mod metrics;
pub mod pool;
pub mod priority;
pub(crate) mod queue;
pub mod shard;

pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultReport, FaultSpec};
pub use histogram::HistogramSnapshot;
pub use job::{JobError, JobHandle, JobOutcome};
pub use metrics::{MetricsRegistry, MetricsSnapshot, WorkerSnapshot};
pub use pool::{AutoscaleConfig, RejectedJob, Runtime, RuntimeConfig};
pub use priority::{Priority, PriorityClass};
pub use shard::{ResizeEvent, ResizeTrigger, ShardPolicy};
