//! The process-wide telemetry sink: per-phase timing aggregation, the
//! solver-convergence channel, and named counters.
//!
//! All hot-path updates are relaxed atomics (timings) or a short
//! mutex-guarded push (convergence records); snapshots can be taken
//! from any thread mid-flight.

use crate::export;
use crate::phase::Phase;
use crate::record::{GreedyRecord, ShardRecord, SolveRecord, SpanRecord};
use fcr_runtime::histogram::AtomicHistogram;
use fcr_runtime::HistogramSnapshot;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Cap on stored convergence records (per channel). Beyond it new
/// records are counted as dropped instead of growing memory without
/// bound during large sweeps.
pub const MAX_RECORDS: usize = 65_536;

/// Live per-phase timing statistics.
#[derive(Debug, Default)]
pub(crate) struct PhaseStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    wall: AtomicHistogram,
}

impl PhaseStats {
    fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.wall.record(elapsed);
    }

    fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            wall: self.wall.snapshot(),
        }
    }

    /// Snapshot-and-reset: scalar fields are swapped to zero (exact —
    /// a concurrent record lands in one delta or the next), the
    /// histogram is snapshot-then-reset (a record racing the reset may
    /// miss the bucket counts of one delta; the swapped scalars stay
    /// authoritative).
    fn drain(&self) -> PhaseSnapshot {
        let snap = PhaseSnapshot {
            count: self.count.swap(0, Ordering::Relaxed),
            total_ns: self.total_ns.swap(0, Ordering::Relaxed),
            max_ns: self.max_ns.swap(0, Ordering::Relaxed),
            wall: self.wall.snapshot(),
        };
        self.wall.reset();
        snap
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        self.wall.reset();
    }
}

/// A point-in-time copy of one phase's timing statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Completed spans of this phase.
    pub count: u64,
    /// Total wall time across spans (ns).
    pub total_ns: u64,
    /// Longest single span (ns).
    pub max_ns: u64,
    /// Wall-time distribution (µs buckets, reused from `fcr-runtime`).
    pub wall: HistogramSnapshot,
}

impl PhaseSnapshot {
    /// Mean span duration in nanoseconds (0 when no spans completed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// The live-stream half of the sink: a line-oriented writer that gets
/// every retained record as it lands, flushed per line so a tail never
/// sees a torn half-record.
struct StreamWriter(Box<dyn Write + Send>);

impl std::fmt::Debug for StreamWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StreamWriter(..)")
    }
}

/// The telemetry sink: one lives as the process-wide global (see
/// [`crate::global`]), but sinks are ordinary values and can be built
/// standalone in tests.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    phases: [PhaseStats; 6],
    solves: Mutex<Vec<SolveRecord>>,
    dropped_solves: AtomicU64,
    greedy: Mutex<Vec<GreedyRecord>>,
    dropped_greedy: AtomicU64,
    shards: Mutex<Vec<ShardRecord>>,
    dropped_shards: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    dropped_spans: AtomicU64,
    counters: Mutex<BTreeMap<String, u64>>,
    /// Keep-1-in-N sampling divisor for the per-record channels
    /// (0 and 1 both mean "keep everything").
    sample_every: AtomicU64,
    /// Per-channel arrival sequence counters driving the sampler.
    solve_seq: AtomicU64,
    greedy_seq: AtomicU64,
    shard_seq: AtomicU64,
    span_seq: AtomicU64,
    stream: Mutex<Option<StreamWriter>>,
    stream_lines: AtomicU64,
    stream_errors: AtomicU64,
}

impl TelemetrySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets keep-1-in-`every` sampling on the per-record channels
    /// (solves, greedy, shards, span events). `0` and `1` both keep
    /// everything. Sampling is what makes always-on capture affordable:
    /// skipped records cost one atomic increment and are *not* counted
    /// as dropped — only cap overflow is. Aggregate phase timings and
    /// counters are never sampled.
    pub fn set_sampling(&self, every: u64) {
        self.sample_every.store(every.max(1), Ordering::Relaxed);
    }

    /// The current sampling divisor (1 = keep everything).
    pub fn sampling(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed).max(1)
    }

    /// `true` when this arrival is retained under the sampling divisor
    /// (the first arrival on each channel is always retained).
    fn sampled(&self, seq: &AtomicU64) -> bool {
        let every = self.sampling();
        seq.fetch_add(1, Ordering::Relaxed).is_multiple_of(every)
    }

    /// Attaches a live stream: every retained record from here on is
    /// also rendered as its JSONL line and written + flushed
    /// immediately, so `tail -f` on the receiving file never sees a
    /// torn line. Replaces (and flushes out) any previous stream. A
    /// write/flush error detaches the stream and increments the
    /// `stream_errors` diagnostic instead of panicking.
    pub fn attach_stream(&self, writer: Box<dyn Write + Send>) {
        let mut slot = lock(&self.stream);
        if let Some(mut old) = slot.take() {
            let _ = old.0.flush();
        }
        *slot = Some(StreamWriter(writer));
    }

    /// Flushes and drops the attached stream writer, if any.
    pub fn detach_stream(&self) {
        if let Some(mut w) = lock(&self.stream).take() {
            let _ = w.0.flush();
        }
    }

    /// Flushes the attached stream writer, if any. Writes are already
    /// flushed per record; this exists so callers handing the file to a
    /// reader can force the OS-buffer handoff explicitly.
    pub fn flush(&self) {
        if let Some(w) = lock(&self.stream).as_mut() {
            if w.0.flush().is_err() {
                self.stream_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Writes one already-rendered JSONL line to the stream (newline
    /// appended, flushed). Errors detach the writer so a dead pipe
    /// costs one diagnostic increment, not an error storm.
    fn stream_line(&self, line: &str) {
        let mut slot = lock(&self.stream);
        let Some(w) = slot.as_mut() else {
            return;
        };
        let ok = w.0.write_all(line.as_bytes()).is_ok()
            && w.0.write_all(b"\n").is_ok()
            && w.0.flush().is_ok();
        if ok {
            self.stream_lines.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stream_errors.fetch_add(1, Ordering::Relaxed);
            *slot = None;
        }
    }

    /// Records one completed span of `phase`.
    pub fn record_span(&self, phase: Phase, elapsed: Duration) {
        self.phases[phase.index()].record(elapsed);
    }

    /// Appends one span *event* (an individual span occurrence with its
    /// parent edge), sampled and capped like
    /// [`TelemetrySink::record_solve`].
    pub fn record_span_event(&self, record: SpanRecord) {
        if !self.sampled(&self.span_seq) {
            return;
        }
        self.stream_line(&export::span_line(&record));
        let mut spans = lock(&self.spans);
        if spans.len() < MAX_RECORDS {
            spans.push(record);
        } else {
            drop(spans);
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends one dual-solver convergence record (capped at
    /// [`MAX_RECORDS`]; overflow increments the dropped counter). The
    /// record still reaches an attached stream when the in-memory cap
    /// is full — streaming is how capture outlives the cap.
    pub fn record_solve(&self, record: SolveRecord) {
        if !self.sampled(&self.solve_seq) {
            return;
        }
        self.stream_line(&export::solve_line(&record));
        let mut solves = lock(&self.solves);
        if solves.len() < MAX_RECORDS {
            solves.push(record);
        } else {
            drop(solves);
            self.dropped_solves.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends one greedy-allocation record (eq. (23) bookkeeping),
    /// sampled and capped like [`TelemetrySink::record_solve`].
    pub fn record_greedy(&self, record: GreedyRecord) {
        if !self.sampled(&self.greedy_seq) {
            return;
        }
        self.stream_line(&export::greedy_line(&record));
        let mut greedy = lock(&self.greedy);
        if greedy.len() < MAX_RECORDS {
            greedy.push(record);
        } else {
            drop(greedy);
            self.dropped_greedy.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends one executed-shard record (an intra-run slot window run
    /// as a pool job), sampled and capped like
    /// [`TelemetrySink::record_solve`].
    pub fn record_shard(&self, record: ShardRecord) {
        if !self.sampled(&self.shard_seq) {
            return;
        }
        self.stream_line(&export::shard_line(&record));
        let mut shards = lock(&self.shards);
        if shards.len() < MAX_RECORDS {
            shards.push(record);
        } else {
            drop(shards);
            self.dropped_shards.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` to the named counter (registered on first use).
    pub fn incr(&self, name: &str, n: u64) {
        let mut counters = lock(&self.counters);
        *counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// A point-in-time copy of everything the sink has aggregated.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            phases: Phase::ALL
                .iter()
                .map(|p| (*p, self.phases[p.index()].snapshot()))
                .collect(),
            solves: lock(&self.solves).clone(),
            dropped_solves: self.dropped_solves.load(Ordering::Relaxed),
            greedy: lock(&self.greedy).clone(),
            dropped_greedy: self.dropped_greedy.load(Ordering::Relaxed),
            shards: lock(&self.shards).clone(),
            dropped_shards: self.dropped_shards.load(Ordering::Relaxed),
            spans: lock(&self.spans).clone(),
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            stream_lines: self.stream_lines.load(Ordering::Relaxed),
            stream_errors: self.stream_errors.load(Ordering::Relaxed),
        }
    }

    /// Takes everything aggregated so far *and resets the sink* in one
    /// step — the snapshot-and-reset primitive a long-running service
    /// uses to publish periodic deltas with bounded memory. Vectors are
    /// moved out (not cloned) and dropped/stream counters are swapped
    /// to zero, so no record is counted twice across consecutive
    /// drains; records arriving concurrently land in either this delta
    /// or the next, never in both. The sampling divisor and any
    /// attached stream survive a drain.
    pub fn drain(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            phases: Phase::ALL
                .iter()
                .map(|p| (*p, self.phases[p.index()].drain()))
                .collect(),
            solves: std::mem::take(&mut *lock(&self.solves)),
            dropped_solves: self.dropped_solves.swap(0, Ordering::Relaxed),
            greedy: std::mem::take(&mut *lock(&self.greedy)),
            dropped_greedy: self.dropped_greedy.swap(0, Ordering::Relaxed),
            shards: std::mem::take(&mut *lock(&self.shards)),
            dropped_shards: self.dropped_shards.swap(0, Ordering::Relaxed),
            spans: std::mem::take(&mut *lock(&self.spans)),
            dropped_spans: self.dropped_spans.swap(0, Ordering::Relaxed),
            counters: std::mem::take(&mut *lock(&self.counters))
                .into_iter()
                .collect(),
            stream_lines: self.stream_lines.swap(0, Ordering::Relaxed),
            stream_errors: self.stream_errors.swap(0, Ordering::Relaxed),
        }
    }

    /// Clears every aggregate back to empty (used between experiment
    /// sections and in tests). The sampling divisor and attached stream
    /// are configuration, not data, and survive; the sampling sequence
    /// counters rewind so a fresh capture samples deterministically.
    pub fn reset(&self) {
        for p in &self.phases {
            p.reset();
        }
        lock(&self.solves).clear();
        self.dropped_solves.store(0, Ordering::Relaxed);
        lock(&self.greedy).clear();
        self.dropped_greedy.store(0, Ordering::Relaxed);
        lock(&self.shards).clear();
        self.dropped_shards.store(0, Ordering::Relaxed);
        lock(&self.spans).clear();
        self.dropped_spans.store(0, Ordering::Relaxed);
        lock(&self.counters).clear();
        self.solve_seq.store(0, Ordering::Relaxed);
        self.greedy_seq.store(0, Ordering::Relaxed);
        self.shard_seq.store(0, Ordering::Relaxed);
        self.span_seq.store(0, Ordering::Relaxed);
        self.stream_lines.store(0, Ordering::Relaxed);
        self.stream_errors.store(0, Ordering::Relaxed);
    }
}

/// Locks a sink mutex, surviving poisoning (a panicked recorder must
/// not take telemetry down with it — the data is diagnostic).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A point-in-time copy of a [`TelemetrySink`].
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Per-phase timing statistics, in pipeline order.
    pub phases: Vec<(Phase, PhaseSnapshot)>,
    /// Dual-solver convergence records, in completion order.
    pub solves: Vec<SolveRecord>,
    /// Solve records dropped past [`MAX_RECORDS`].
    pub dropped_solves: u64,
    /// Greedy-allocation records, in completion order.
    pub greedy: Vec<GreedyRecord>,
    /// Greedy records dropped past [`MAX_RECORDS`].
    pub dropped_greedy: u64,
    /// Executed-shard records, in completion order.
    pub shards: Vec<ShardRecord>,
    /// Shard records dropped past [`MAX_RECORDS`].
    pub dropped_shards: u64,
    /// Span events (opt-in, see [`crate::set_span_events`]), in
    /// completion order.
    pub spans: Vec<SpanRecord>,
    /// Span events dropped past [`MAX_RECORDS`].
    pub dropped_spans: u64,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// JSONL lines successfully written to an attached live stream.
    pub stream_lines: u64,
    /// Live-stream write/flush failures (a failure detaches the
    /// stream).
    pub stream_errors: u64,
}

impl TelemetrySnapshot {
    /// The timing snapshot of one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseSnapshot {
        &self.phases[phase.index()].1
    }

    /// Value of a named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Fraction of solves that converged before the iteration cap
    /// (`None` when no solves were recorded).
    pub fn convergence_rate(&self) -> Option<f64> {
        if self.solves.is_empty() {
            return None;
        }
        let converged = self.solves.iter().filter(|s| s.converged).count();
        Some(converged as f64 / self.solves.len() as f64)
    }

    /// Mean dual-solver iterations per solve (`None` when empty).
    pub fn mean_iterations(&self) -> Option<f64> {
        if self.solves.is_empty() {
            return None;
        }
        let total: usize = self.solves.iter().map(|s| s.iterations).sum();
        Some(total as f64 / self.solves.len() as f64)
    }

    /// Total records of **any** kind dropped past [`MAX_RECORDS`]
    /// (solves + greedy + shards + span events). Non-zero means the capture window
    /// outgrew the cap and the per-record channels are truncated; the
    /// aggregate phase/counter statistics remain complete. Surfaced in
    /// the JSONL `meta` line and in `telemetry_table`, so capped
    /// captures are never silent.
    pub fn records_dropped(&self) -> u64 {
        self.dropped_solves + self.dropped_greedy + self.dropped_shards + self.dropped_spans
    }

    /// Mean wall time per executed shard in nanoseconds (`None` when no
    /// shards were recorded).
    pub fn mean_shard_wall_ns(&self) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        let total: u64 = self.shards.iter().map(|s| s.wall_ns).sum();
        Some(total as f64 / self.shards.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_per_phase() {
        let sink = TelemetrySink::new();
        sink.record_span(Phase::Sensing, Duration::from_micros(10));
        sink.record_span(Phase::Sensing, Duration::from_micros(30));
        sink.record_span(Phase::Solver, Duration::from_micros(5));
        let snap = sink.snapshot();
        let sensing = snap.phase(Phase::Sensing);
        assert_eq!(sensing.count, 2);
        assert_eq!(sensing.total_ns, 40_000);
        assert_eq!(sensing.max_ns, 30_000);
        assert!((sensing.mean_ns() - 20_000.0).abs() < 1e-9);
        assert_eq!(sensing.wall.count, 2);
        assert_eq!(snap.phase(Phase::Solver).count, 1);
        assert_eq!(snap.phase(Phase::Fusion).count, 0);
        assert_eq!(snap.phase(Phase::Fusion).mean_ns(), 0.0);
    }

    #[test]
    fn solve_and_greedy_records_accumulate_and_reset() {
        let sink = TelemetrySink::new();
        sink.record_solve(SolveRecord {
            iterations: 120,
            converged: true,
            residual: 1e-15,
            lambda: vec![0.1, 0.2],
        });
        sink.record_solve(SolveRecord {
            iterations: 5_000,
            converged: false,
            residual: 1e-3,
            lambda: vec![0.3, 0.4],
        });
        sink.record_greedy(GreedyRecord {
            steps: 4,
            gain: 2.0,
            upper_bound_gain: 3.5,
            gap_terms: vec![1.0, 0.5],
        });
        sink.incr("greedy.inner_solves", 7);
        sink.incr("greedy.inner_solves", 3);
        let snap = sink.snapshot();
        assert_eq!(snap.solves.len(), 2);
        assert_eq!(snap.greedy.len(), 1);
        assert_eq!(snap.convergence_rate(), Some(0.5));
        assert_eq!(snap.mean_iterations(), Some(2_560.0));
        assert_eq!(snap.counter("greedy.inner_solves"), Some(10));
        assert_eq!(snap.counter("missing"), None);
        sink.reset();
        let empty = snap_is_empty(&sink.snapshot());
        assert!(empty);
    }

    fn snap_is_empty(s: &TelemetrySnapshot) -> bool {
        s.solves.is_empty()
            && s.greedy.is_empty()
            && s.shards.is_empty()
            && s.spans.is_empty()
            && s.counters.is_empty()
            && s.records_dropped() == 0
            && s.phases.iter().all(|(_, p)| p.count == 0)
            && s.convergence_rate().is_none()
            && s.mean_iterations().is_none()
            && s.mean_shard_wall_ns().is_none()
    }

    #[test]
    fn shard_records_accumulate_and_reset() {
        let sink = TelemetrySink::new();
        sink.record_shard(ShardRecord {
            run: 0,
            window: 0,
            gop_start: 0,
            gops: 5,
            wall_ns: 1_000,
        });
        sink.record_shard(ShardRecord {
            run: 0,
            window: 1,
            gop_start: 5,
            gops: 5,
            wall_ns: 3_000,
        });
        let snap = sink.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.mean_shard_wall_ns(), Some(2_000.0));
        sink.reset();
        assert!(snap_is_empty(&sink.snapshot()));
    }

    /// A `Write` handing bytes to a shared buffer, so tests can watch
    /// what the live stream emitted while the sink still owns the
    /// writer.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer that always fails, to exercise stream-error handling.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("broken"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("broken"))
        }
    }

    fn shard(window: u64) -> ShardRecord {
        ShardRecord {
            run: 0,
            window,
            gop_start: 0,
            gops: 1,
            wall_ns: 10,
        }
    }

    #[test]
    fn sampling_keeps_one_in_n_without_counting_drops() {
        let sink = TelemetrySink::new();
        sink.set_sampling(4);
        assert_eq!(sink.sampling(), 4);
        for w in 0..10 {
            sink.record_shard(shard(w));
        }
        let snap = sink.snapshot();
        // Arrivals 0, 4, 8 are retained; the skipped ones are neither
        // stored nor counted as dropped.
        assert_eq!(
            snap.shards.iter().map(|s| s.window).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
        assert_eq!(snap.records_dropped(), 0);
        // 0 resets to keep-everything.
        sink.set_sampling(0);
        assert_eq!(sink.sampling(), 1);
    }

    #[test]
    fn span_events_accumulate_cap_and_reset() {
        let sink = TelemetrySink::new();
        for i in 0..MAX_RECORDS as u64 + 2 {
            sink.record_span_event(SpanRecord {
                id: i + 1,
                parent: None,
                phase: Phase::Sensing,
                wall_ns: 5,
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.spans.len(), MAX_RECORDS);
        assert_eq!(snap.dropped_spans, 2);
        assert_eq!(snap.records_dropped(), 2);
        sink.reset();
        assert!(snap_is_empty(&sink.snapshot()));
    }

    #[test]
    fn attached_stream_gets_each_record_as_a_complete_line() {
        let sink = TelemetrySink::new();
        let buf = SharedBuf::default();
        sink.attach_stream(Box::new(buf.clone()));
        sink.record_shard(shard(3));
        sink.record_solve(SolveRecord {
            iterations: 7,
            converged: true,
            residual: 0.0,
            lambda: vec![0.5],
        });
        // Every line is already complete and flushed: no torn tails.
        let out = buf.contents();
        assert!(out.ends_with('\n'), "unterminated stream tail: {out:?}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"shard\""));
        assert!(lines[1].contains("\"type\":\"solve\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert_eq!(sink.snapshot().stream_lines, 2);
        sink.detach_stream();
        sink.record_shard(shard(4));
        assert_eq!(buf.contents().lines().count(), 2, "detached stream grew");
    }

    #[test]
    fn stream_errors_detach_loudly_instead_of_storming() {
        let sink = TelemetrySink::new();
        sink.attach_stream(Box::new(BrokenPipe));
        sink.record_shard(shard(0));
        sink.record_shard(shard(1));
        let snap = sink.snapshot();
        // First write fails and detaches; the second is a plain store.
        assert_eq!(snap.stream_errors, 1);
        assert_eq!(snap.stream_lines, 0);
        assert_eq!(snap.shards.len(), 2, "records still stored on error");
        sink.flush(); // no-op once detached
        assert_eq!(sink.snapshot().stream_errors, 1);
    }

    #[test]
    fn drain_moves_the_delta_out_exactly_once() {
        let sink = TelemetrySink::new();
        sink.record_span(Phase::Solver, Duration::from_micros(4));
        sink.record_shard(shard(0));
        sink.incr("serve.slots", 2);
        let first = sink.drain();
        assert_eq!(first.phase(Phase::Solver).count, 1);
        assert_eq!(first.shards.len(), 1);
        assert_eq!(first.counter("serve.slots"), Some(2));
        // The sink is now empty; a second drain sees only new data.
        sink.incr("serve.slots", 5);
        let second = sink.drain();
        assert_eq!(second.phase(Phase::Solver).count, 0);
        assert!(second.shards.is_empty());
        assert_eq!(second.counter("serve.slots"), Some(5));
        assert!(snap_is_empty(&sink.snapshot()));
    }

    #[test]
    fn record_cap_counts_drops() {
        let sink = TelemetrySink::new();
        for _ in 0..MAX_RECORDS + 3 {
            sink.record_solve(SolveRecord {
                iterations: 1,
                converged: true,
                residual: 0.0,
                lambda: Vec::new(),
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.solves.len(), MAX_RECORDS);
        assert_eq!(snap.dropped_solves, 3);
        assert_eq!(snap.records_dropped(), 3);
    }
}
