//! `fcr-telemetry` — structured span tracing, solver-convergence
//! telemetry, and export for the FCR pipeline.
//!
//! The crate is the observability layer of the reproduction: it gives
//! every pipeline phase (sensing → fusion → access → solver → greedy
//! allocation → video credit) an RAII timing span, captures the
//! convergence behaviour of the dual-decomposition solver (Tables I/II
//! of the paper) and the eq.-(23) optimality-gap bookkeeping of the
//! greedy channel allocator (Table III), and renders everything as
//! JSONL or human-readable tables.
//!
//! # Design
//!
//! - **Off by default, near-zero overhead.** Telemetry is gated by one
//!   process-wide `AtomicBool`; a disabled [`Span::enter`] is a single
//!   relaxed load and no clock read. Hot paths stay hot.
//! - **Thread-local subscriber, process-wide sink.** Span nesting depth
//!   is tracked per thread ([`current_depth`]); completed spans and
//!   records land in the shared [`TelemetrySink`] behind relaxed
//!   atomics and short mutexes, so the pooled runner can record from
//!   every worker concurrently.
//! - **Determinism-neutral.** Nothing here touches an RNG; enabling
//!   telemetry changes only wall-clock observations, never simulation
//!   results.
//! - **`std` only.** The container is offline: JSONL is hand-rolled,
//!   histograms are reused from `fcr-runtime`.
//!
//! # Quick start
//!
//! ```
//! use fcr_telemetry::{Phase, Span};
//!
//! fcr_telemetry::enable();
//! {
//!     let _span = Span::enter(Phase::Solver);
//!     // ... run the solver ...
//! }
//! fcr_telemetry::record_solve(fcr_telemetry::SolveRecord {
//!     iterations: 87,
//!     converged: true,
//!     residual: 3.2e-13,
//!     lambda: vec![0.0, 0.41],
//! });
//! let snapshot = fcr_telemetry::global().snapshot();
//! assert_eq!(snapshot.phase(Phase::Solver).count, 1);
//! assert_eq!(snapshot.solves.len(), 1);
//! let jsonl = fcr_telemetry::to_jsonl(&snapshot, None);
//! assert!(jsonl.contains("\"type\":\"solve\""));
//! fcr_telemetry::reset();
//! fcr_telemetry::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bench;
mod export;
pub mod json;
mod phase;
mod record;
mod sink;
mod span;

pub use bench::{peak_rss_kb, BenchEnvelope, BenchValue, Metric, MetricKind, BENCH_SCHEMA_VERSION};
pub use export::{
    metrics_to_json_line, metrics_to_prometheus, pool_metrics, to_jsonl, to_prometheus,
};
pub use phase::Phase;
pub use record::{GreedyRecord, ShardRecord, SolveRecord, SpanRecord};
pub use sink::{PhaseSnapshot, TelemetrySink, TelemetrySnapshot, MAX_RECORDS};
pub use span::{current_depth, Span};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide enable flag. Relaxed is sufficient: the flag only
/// gates *whether* observations are made, and the sink's own atomics
/// order the data.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Opt-in flag for per-event span records with parent/child edges
/// (beyond the always-on per-phase aggregates). Separate from
/// [`ENABLED`] because event capture allocates a record per span and
/// is priced for sampled always-on use, not hot batch loops.
static SPAN_EVENTS: AtomicBool = AtomicBool::new(false);

static GLOBAL: OnceLock<TelemetrySink> = OnceLock::new();

/// Turns telemetry collection on process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns telemetry collection off process-wide. Already-collected data
/// stays in the sink until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `true` when telemetry is collecting. This is the one relaxed load a
/// disabled [`Span::enter`] costs.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide sink (created lazily on first use).
pub fn global() -> &'static TelemetrySink {
    GLOBAL.get_or_init(TelemetrySink::new)
}

/// Clears the process-wide sink back to empty (enable state is
/// unchanged).
pub fn reset() {
    global().reset();
}

/// Turns per-event span records (with parent/child edges) on or off
/// process-wide. Requires [`enable`] as well: span events are a
/// refinement of span timing, not a replacement.
pub fn set_span_events(on: bool) {
    SPAN_EVENTS.store(on, Ordering::Relaxed);
}

/// `true` when individual span events (with parent edges) are being
/// captured.
#[inline]
pub fn span_events_enabled() -> bool {
    SPAN_EVENTS.load(Ordering::Relaxed)
}

/// Sets keep-1-in-`every` sampling on the global sink's per-record
/// channels (see [`TelemetrySink::set_sampling`]).
pub fn set_sampling(every: u64) {
    global().set_sampling(every);
}

/// Attaches a live JSONL stream to the global sink: every retained
/// record is rendered and flushed per line (see
/// [`TelemetrySink::attach_stream`]).
pub fn attach_stream(writer: Box<dyn std::io::Write + Send>) {
    global().attach_stream(writer);
}

/// Creates (truncating) `path` and attaches it as the global live
/// JSONL stream — the one-call setup for `tail -f`-able telemetry.
pub fn attach_stream_path(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    global().attach_stream(Box::new(file));
    Ok(())
}

/// Flushes the global sink's attached stream, if any (writes are
/// already flushed per record; this forces the handoff explicitly).
pub fn flush() {
    global().flush();
}

/// Flushes and drops the global sink's attached stream, if any.
pub fn detach_stream() {
    global().detach_stream();
}

/// Takes everything the global sink aggregated so far and resets it in
/// one step (see [`TelemetrySink::drain`]) — the periodic-delta
/// primitive for long-running services.
pub fn drain() -> TelemetrySnapshot {
    global().drain()
}

/// Records one dual-decomposition solve into the global sink; no-op
/// when telemetry is disabled.
pub fn record_solve(record: SolveRecord) {
    if is_enabled() {
        global().record_solve(record);
    }
}

/// Records one greedy-allocation run into the global sink; no-op when
/// telemetry is disabled.
pub fn record_greedy(record: GreedyRecord) {
    if is_enabled() {
        global().record_greedy(record);
    }
}

/// Records one executed intra-run shard into the global sink; no-op
/// when telemetry is disabled.
pub fn record_shard(record: ShardRecord) {
    if is_enabled() {
        global().record_shard(record);
    }
}

/// Adds `n` to the named global counter; no-op when telemetry is
/// disabled.
pub fn incr(name: &str, n: u64) {
    if is_enabled() {
        global().incr(name, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Serializes tests that flip the process-wide enable flag.
    static GUARD: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = serial();
        disable();
        reset();
        {
            let span = Span::enter(Phase::Sensing);
            assert!(!span.is_recording());
            assert_eq!(current_depth(), 0);
        }
        record_solve(SolveRecord {
            iterations: 1,
            converged: true,
            residual: 0.0,
            lambda: Vec::new(),
        });
        incr("x", 1);
        let snap = global().snapshot();
        assert_eq!(snap.phase(Phase::Sensing).count, 0);
        assert!(snap.solves.is_empty());
        assert_eq!(snap.counter("x"), None);
    }

    #[test]
    fn enabled_spans_nest_and_aggregate() {
        let _g = serial();
        enable();
        reset();
        {
            let outer = Span::enter(Phase::Solver);
            assert!(outer.is_recording());
            assert_eq!(outer.phase(), Phase::Solver);
            assert_eq!(current_depth(), 1);
            {
                let _inner = Span::enter(Phase::GreedyAlloc);
                assert_eq!(current_depth(), 2);
                std::thread::sleep(Duration::from_micros(50));
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
        let snap = global().snapshot();
        assert_eq!(snap.phase(Phase::Solver).count, 1);
        assert_eq!(snap.phase(Phase::GreedyAlloc).count, 1);
        // Inclusive timing: the parent contains the child.
        assert!(
            snap.phase(Phase::Solver).total_ns >= snap.phase(Phase::GreedyAlloc).total_ns,
            "parent {} < child {}",
            snap.phase(Phase::Solver).total_ns,
            snap.phase(Phase::GreedyAlloc).total_ns
        );
        reset();
        disable();
    }

    #[test]
    fn span_events_capture_parent_child_edges() {
        let _g = serial();
        enable();
        set_span_events(true);
        reset();
        {
            let _outer = Span::enter(Phase::Solver);
            {
                let _inner = Span::enter(Phase::GreedyAlloc);
            }
            let _sibling = Span::enter(Phase::GreedyAlloc);
        }
        set_span_events(false);
        // Events flag off: this span times but emits no event record.
        {
            let _untracked = Span::enter(Phase::Sensing);
        }
        let snap = global().snapshot();
        assert_eq!(snap.spans.len(), 3, "{:?}", snap.spans);
        assert_eq!(snap.phase(Phase::Sensing).count, 1);
        // Drop order: inner, sibling, outer.
        let (inner, sibling, outer) = (&snap.spans[0], &snap.spans[1], &snap.spans[2]);
        assert_eq!(inner.phase, Phase::GreedyAlloc);
        assert_eq!(sibling.phase, Phase::GreedyAlloc);
        assert_eq!(outer.phase, Phase::Solver);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_ne!(inner.id, sibling.id);
        reset();
        disable();
    }

    #[test]
    fn concurrent_spans_from_many_threads_all_land() {
        let _g = serial();
        enable();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        let _span = Span::enter(Phase::Fusion);
                    }
                    global().incr("threads.done", 1);
                });
            }
        });
        let snap = global().snapshot();
        assert_eq!(snap.phase(Phase::Fusion).count, 100);
        assert_eq!(snap.counter("threads.done"), Some(4));
        reset();
        disable();
    }
}
