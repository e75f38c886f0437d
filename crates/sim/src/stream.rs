//! Incremental (streaming) execution of one simulation run — the
//! window pipeline both [`crate::session::SimSession`] and `fcr-serve`
//! run on.
//!
//! [`RunStream`] exposes the pipeline (`plan_spectrum` → `run_window`
//! → `stitch`) in pull shape. A batch session opens one stream per
//! run, submits every window of every stream as one pool batch, and
//! stitches each run when the batch drains. A long-running service
//! cannot block like that — it interleaves windows of *many* runs on
//! one slot clock, submits them as their playout deadlines approach,
//! and stitches each run when its windows come back:
//!
//! 1. [`RunStream::new`] runs the serial spectrum prologue and derives
//!    the per-run seeds (`child("run", r)`).
//! 2. [`RunStream::tasks`] yields one [`WindowTask`] per GOP-aligned
//!    window. Tasks are self-contained, cheaply cloneable, and
//!    idempotent: executing the same task twice yields the same
//!    [`CompletedWindow`], so a service can re-submit a window whose
//!    job was lost to a panic without corrupting the run.
//! 3. [`RunStream::stitch`] folds completed windows (any order) into
//!    the final [`RunOutput`].
//!
//! Windows are independent given the plan and stitching is
//! partition-independent, so a streamed run is **bit-identical** to
//! [`crate::engine::run`] for every window size and scheduling order —
//! the property the session and serve conformance tests pin.

use crate::config::SimConfig;
use crate::engine::{self, RunOutput, SpectrumPlan, TraceMode, WindowOutput};
use crate::scenario::Scenario;
use crate::scheme::Scheme;
use fcr_runtime::Runtime;
use fcr_stats::rng::SeedSequence;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Handles to the domain counters every executed window shard feeds,
/// pre-resolved so a pool job can update them without reaching back
/// into the runtime's metrics registry.
#[derive(Debug, Clone)]
pub struct ShardCounters {
    slots: Arc<AtomicU64>,
    solves: Arc<AtomicU64>,
    shards: Arc<AtomicU64>,
}

impl ShardCounters {
    /// Resolves the three domain counters on `runtime` (registering
    /// them on first use).
    pub fn from_runtime(runtime: &Runtime) -> Self {
        ShardCounters {
            slots: runtime.metrics().counter(crate::pool::SLOTS_COUNTER),
            solves: runtime.metrics().counter(crate::pool::SOLVER_COUNTER),
            shards: runtime.metrics().counter(crate::pool::SHARDS_COUNTER),
        }
    }

    /// Runs `execute` as the window `shard` describes: its wall time
    /// lands in telemetry as the shard's record, and the counters
    /// advance by the `slots` it simulates. The one bookkeeping path
    /// of fluid and packet windows alike.
    pub(crate) fn count<T>(
        &self,
        mut shard: fcr_telemetry::ShardRecord,
        slots: u64,
        execute: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let out = execute();
        // One channel-allocation solve happens per simulated slot.
        self.slots.fetch_add(slots, Ordering::Relaxed);
        self.solves.fetch_add(slots, Ordering::Relaxed);
        self.shards.fetch_add(1, Ordering::Relaxed);
        shard.wall_ns = started.elapsed().as_nanos() as u64;
        fcr_telemetry::record_shard(shard);
        out
    }
}

/// One simulation run opened for incremental window-by-window
/// execution. See the module docs for the pipeline shape.
#[derive(Debug)]
pub struct RunStream {
    scenario: Arc<Scenario>,
    config: SimConfig,
    scheme: Scheme,
    run_seeds: SeedSequence,
    plan: Arc<SpectrumPlan>,
    run_index: u64,
    window_gops: u64,
    mode: TraceMode,
}

impl RunStream {
    /// Opens run `run_index` of the `(scenario, config, scheme)`
    /// simulation under `master_seed`, executing the serial spectrum
    /// prologue now and cutting the run into GOP-aligned windows of
    /// `window_gops` GOPs (clamped to `[1, config.gops]`).
    ///
    /// Seeds derive from `SeedSequence::new(master).child("run",
    /// run_index)`, as in [`crate::engine::run`] and
    /// [`crate::session::SimSession::run`] (which opens its runs
    /// here), so streamed results are bit-identical to batch results
    /// for the same master seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, like
    /// [`crate::engine::run`].
    pub fn new(
        scenario: Arc<Scenario>,
        config: SimConfig,
        scheme: Scheme,
        master_seed: u64,
        run_index: u64,
        window_gops: u64,
        mode: TraceMode,
    ) -> Self {
        let run_seeds = SeedSequence::new(master_seed).child("run", run_index);
        let plan = Arc::new(engine::plan_spectrum(&scenario, &config, &run_seeds));
        let window_gops = window_gops.clamp(1, u64::from(config.gops).max(1));
        RunStream {
            scenario,
            config,
            scheme,
            run_seeds,
            plan,
            run_index,
            window_gops,
            mode,
        }
    }

    /// The run index this stream executes.
    pub fn run_index(&self) -> u64 {
        self.run_index
    }

    /// Number of GOP-aligned windows the run is cut into.
    pub fn window_count(&self) -> u64 {
        u64::from(self.config.gops)
            .max(1)
            .div_ceil(self.window_gops)
    }

    /// Total slots the run simulates (gops × deadline).
    pub fn total_slots(&self) -> u64 {
        self.config.total_slots()
    }

    /// The window tasks of this run, in GOP order. Each task is
    /// self-contained (`Send + 'static`) and idempotent; clone freely
    /// and execute in any order, on any thread.
    pub fn tasks(&self) -> Vec<WindowTask> {
        let total_gops = u64::from(self.config.gops);
        (0..self.window_count())
            .map(|w| {
                let gop_start = w * self.window_gops;
                WindowTask {
                    scenario: Arc::clone(&self.scenario),
                    config: self.config,
                    scheme: self.scheme,
                    run_seeds: self.run_seeds,
                    plan: Arc::clone(&self.plan),
                    run_index: self.run_index,
                    window: w,
                    gop_start: gop_start as u32,
                    gops: self.window_gops.min(total_gops - gop_start) as u32,
                    mode: self.mode,
                }
            })
            .collect()
    }

    /// Folds the completed windows of this run — in any order, each
    /// exactly once — into the final run output, exactly as the
    /// serial engine stitches its windows.
    ///
    /// # Panics
    ///
    /// Panics when the window set is incomplete or contains
    /// duplicates: stitching a partial run would silently fabricate a
    /// result, and the serve path's accounting forbids silent loss.
    pub fn stitch(&self, windows: Vec<CompletedWindow>) -> RunOutput {
        assert_eq!(
            windows.len() as u64,
            self.window_count(),
            "run {} stitched with {} of {} windows",
            self.run_index,
            windows.len(),
            self.window_count()
        );
        let mut starts: Vec<u32> = windows.iter().map(|w| w.output.gop_start).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(
            starts.len() as u64,
            self.window_count(),
            "run {} stitched with duplicate windows",
            self.run_index
        );
        engine::stitch(
            &self.config,
            &self.plan,
            windows.into_iter().map(|w| w.output).collect(),
            self.mode,
        )
    }
}

/// One GOP-aligned window of a [`RunStream`], ready to execute on any
/// thread. Executing is pure compute over shared read-only state —
/// repeatable, so lost jobs can be re-submitted.
#[derive(Debug, Clone)]
pub struct WindowTask {
    scenario: Arc<Scenario>,
    config: SimConfig,
    scheme: Scheme,
    run_seeds: SeedSequence,
    plan: Arc<SpectrumPlan>,
    run_index: u64,
    window: u64,
    gop_start: u32,
    gops: u32,
    mode: TraceMode,
}

impl WindowTask {
    /// The run this window belongs to.
    pub fn run_index(&self) -> u64 {
        self.run_index
    }

    /// Window index within the run (0-based, GOP order).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// First GOP (inclusive) this window covers.
    pub fn gop_start(&self) -> u32 {
        self.gop_start
    }

    /// Number of GOPs in this window.
    pub fn gops(&self) -> u32 {
        self.gops
    }

    /// Slots this window simulates.
    pub fn slots(&self) -> u64 {
        u64::from(self.gops) * u64::from(self.config.deadline)
    }

    /// Executes the window: pure compute, no telemetry.
    pub fn execute(&self) -> CompletedWindow {
        CompletedWindow {
            output: engine::run_window(
                &self.scenario,
                &self.config,
                self.scheme,
                &self.run_seeds,
                &self.plan,
                self.gop_start,
                self.gops,
                self.mode,
            ),
        }
    }

    /// Executes the window with full bookkeeping: the shard wall time
    /// lands in telemetry as a [`fcr_telemetry::ShardRecord`] and the
    /// slots/solver/shards domain counters advance. Both
    /// [`crate::session::SimSession`] and the serve path execute their
    /// windows this way.
    pub fn execute_counted(&self, counters: &ShardCounters) -> CompletedWindow {
        let shard = fcr_telemetry::ShardRecord {
            run: self.run_index,
            window: self.window,
            gop_start: u64::from(self.gop_start),
            gops: u64::from(self.gops),
            wall_ns: 0,
        };
        counters.count(shard, self.slots(), || self.execute())
    }
}

/// The opaque output of one executed [`WindowTask`], consumed by
/// [`RunStream::stitch`].
#[derive(Debug, Clone)]
pub struct CompletedWindow {
    output: WindowOutput,
}

impl CompletedWindow {
    /// First GOP (inclusive) the executed window covered.
    pub fn gop_start(&self) -> u32 {
        self.output.gop_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SimSession;

    fn cfg() -> SimConfig {
        SimConfig {
            gops: 6,
            deadline: 4,
            num_channels: 4,
            ..SimConfig::default()
        }
    }

    #[test]
    fn streamed_run_is_bit_identical_to_serial_and_session() {
        let config = cfg();
        let scenario = Arc::new(Scenario::single_fbs(&config));
        let seeds = SeedSequence::new(7);
        let serial = engine::run(
            &scenario,
            &config,
            Scheme::Proposed,
            &seeds,
            0,
            TraceMode::Off,
        );

        for window_gops in [1u64, 2, 5, 6, 100] {
            let stream = RunStream::new(
                Arc::clone(&scenario),
                config,
                Scheme::Proposed,
                7,
                0,
                window_gops,
                TraceMode::Off,
            );
            // Execute out of order to prove order independence.
            let mut tasks = stream.tasks();
            tasks.reverse();
            let windows: Vec<CompletedWindow> = tasks.iter().map(WindowTask::execute).collect();
            let streamed = stream.stitch(windows);
            assert_eq!(
                streamed.result, serial.result,
                "window_gops={window_gops} diverged from serial"
            );
        }

        let session = SimSession::new((*scenario).clone())
            .config(config)
            .seed(7)
            .runs(1);
        let batch = session.run(Scheme::Proposed);
        let batch_result = &batch.outcomes()[0].as_ref().expect("batch run ok").result;
        let stream = RunStream::new(scenario, config, Scheme::Proposed, 7, 0, 2, TraceMode::Off);
        let windows: Vec<CompletedWindow> =
            stream.tasks().iter().map(WindowTask::execute).collect();
        assert_eq!(&stream.stitch(windows).result, batch_result);
    }

    #[test]
    fn tasks_are_idempotent_and_cloneable() {
        let config = cfg();
        let scenario = Arc::new(Scenario::single_fbs(&config));
        let stream = RunStream::new(scenario, config, Scheme::Proposed, 11, 3, 3, TraceMode::Off);
        let tasks = stream.tasks();
        assert_eq!(tasks.len() as u64, stream.window_count());
        let first = tasks[0].execute();
        let again = tasks[0].clone().execute();
        assert_eq!(first.output, again.output, "re-execution diverged");
    }

    #[test]
    #[should_panic(expected = "windows")]
    fn stitch_refuses_partial_runs() {
        let config = cfg();
        let scenario = Arc::new(Scenario::single_fbs(&config));
        let stream = RunStream::new(scenario, config, Scheme::Proposed, 1, 0, 2, TraceMode::Off);
        let tasks = stream.tasks();
        let one = tasks[0].execute();
        stream.stitch(vec![one]);
    }

    #[test]
    fn counted_execution_feeds_shard_telemetry_and_counters() {
        let config = cfg();
        let scenario = Arc::new(Scenario::single_fbs(&config));
        let runtime = Runtime::with_config(fcr_runtime::RuntimeConfig {
            workers: 1,
            ..fcr_runtime::RuntimeConfig::default()
        });
        let counters = ShardCounters::from_runtime(&runtime);
        let stream = RunStream::new(
            scenario,
            config,
            Scheme::Proposed,
            5,
            0,
            100,
            TraceMode::Off,
        );
        let tasks = stream.tasks();
        assert_eq!(tasks.len(), 1);
        let _ = tasks[0].execute_counted(&counters);
        let metrics = runtime.snapshot();
        assert_eq!(
            metrics.counter(crate::pool::SLOTS_COUNTER),
            Some(config.total_slots())
        );
        assert_eq!(metrics.counter(crate::pool::SHARDS_COUNTER), Some(1));
    }
}
