//! `SimSession` — the unified builder-style entry point for running
//! simulations, serial or sharded, fluid or packet-level.
//!
//! One type replaces the old `Experiment::run_scheme` /
//! `try_run_scheme` / `summarize` / free-function `sweep` sprawl:
//!
//! ```
//! use fcr_sim::config::SimConfig;
//! use fcr_sim::scenario::Scenario;
//! use fcr_sim::scheme::Scheme;
//! use fcr_sim::session::SimSession;
//!
//! let cfg = SimConfig { gops: 2, ..SimConfig::default() };
//! let result = SimSession::new(Scenario::single_fbs(&cfg))
//!     .config(cfg)
//!     .seed(7)
//!     .runs(3)
//!     .run(Scheme::Proposed);
//! assert_eq!(result.results().len(), 3);
//! assert!(result.summary().overall.mean() > 20.0);
//! ```
//!
//! # Intra-run sharding
//!
//! A session opens one [`RunStream`] per run, cut into GOP-aligned
//! slot windows per its [`ShardPolicy`] ([`SimSession::shards`]), and
//! schedules each window as one job on the process-wide worker pool —
//! so even a *single* long run parallelizes across workers. The RNG
//! handoff is deterministic (run-level spectrum streams + per-`(run,
//! gop)` fading/loss substreams, see `fcr_spectrum::streams`), which
//! makes sharded output **bit-identical to serial** for every policy;
//! `tests/determinism.rs` pins this for both the fluid and the packet
//! engine.
//!
//! [`ShardPolicy::Auto`] resolves against the pool's fixed worker
//! count, and every executed window records one
//! [`fcr_telemetry::ShardRecord`] into the global telemetry sink.
//!
//! # Priorities
//!
//! [`SimSession::priority`] tags every window job of the session with
//! a [`Priority`] (service class Urgent/Normal/Bulk plus optional EDF
//! deadline). Priorities steer only *which queued job a worker takes
//! next* — an interactive trace run submitted Urgent overtakes a
//! queued Bulk sweep — while results stay bit-identical because every
//! RNG stream is derived from `(master seed, run, gop)`, never from
//! execution order (`tests/determinism.rs` pins this).

use crate::config::SimConfig;
use crate::engine::{RunOutput, SpectrumPlan, TraceMode};
use crate::metrics::{RunResult, SchemeSummary};
use crate::packet_engine::{self, PacketRunResult, PacketWindowOutput};
use crate::pool;
use crate::scenario::Scenario;
use crate::scheme::Scheme;
use crate::stream::{RunStream, ShardCounters};
use crate::trace::SimTrace;
use fcr_runtime::{JobOutcome, Priority, Runtime, ShardPolicy};
use fcr_stats::rng::SeedSequence;
use fcr_stats::series::Series;
use std::sync::Arc;

/// Builder-style handle for running one scenario several times.
///
/// Defaults: the paper's 10 runs, master seed 0,
/// [`ShardPolicy::Auto`], and [`TraceMode::Off`].
#[derive(Debug, Clone)]
pub struct SimSession {
    scenario: Arc<Scenario>,
    config: SimConfig,
    runs: u64,
    master_seed: u64,
    shards: ShardPolicy,
    trace: TraceMode,
    priority: Priority,
    runtime: Option<Arc<Runtime>>,
}

impl SimSession {
    /// Creates a session over `scenario` with the default
    /// [`SimConfig`], the paper's 10 runs, and master seed 0.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario: Arc::new(scenario),
            config: SimConfig::default(),
            runs: 10,
            master_seed: 0,
            shards: ShardPolicy::Auto,
            trace: TraceMode::Off,
            priority: Priority::default(),
            runtime: None,
        }
    }

    /// Sets the simulation parameters (builder style).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the master seed. Each run `r` derives its streams from
    /// `(seed, r)`, never from scheduling order.
    pub fn seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Overrides the number of runs.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    pub fn runs(mut self, runs: u64) -> Self {
        assert!(runs > 0, "need at least one run");
        self.runs = runs;
        self
    }

    /// Sets the shard policy ([`ShardPolicy::Auto`] by default).
    /// Sharding never changes results, only scheduling.
    pub fn shards(mut self, policy: ShardPolicy) -> Self {
        self.shards = policy;
        self
    }

    /// Sets how much per-slot state each run records
    /// ([`TraceMode::Off`] by default).
    pub fn trace(mut self, mode: TraceMode) -> Self {
        self.trace = mode;
        self
    }

    /// Sets the scheduling [`Priority`] every window job of this
    /// session is submitted under ([`Priority::normal`] by default).
    /// Changes execution order only — never results.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The scheduling priority in use.
    pub fn priority_ref(&self) -> Priority {
        self.priority
    }

    /// Runs this session's window jobs on a **dedicated** runtime
    /// instead of the process-wide shared pool. The seam `fcr-testkit`
    /// uses to drive sessions through fault-injected pools
    /// ([`fcr_runtime::Runtime::with_faults`]); results are
    /// bit-identical on any pool because every RNG stream derives from
    /// `(master seed, run, gop)`, never from the executing runtime.
    pub fn on_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// The runtime this session submits to: the [`Self::on_runtime`]
    /// override, or the process-wide shared pool.
    fn pool(&self) -> &Runtime {
        match &self.runtime {
            Some(rt) => rt,
            None => pool::shared(),
        }
    }

    /// The configuration in use.
    pub fn config_ref(&self) -> &SimConfig {
        &self.config
    }

    /// The scenario in use.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The shard policy the session will resolve against the pool.
    pub fn shard_policy(&self) -> ShardPolicy {
        self.shards
    }

    /// Executes all runs of `scheme` (fluid engine), sharded across
    /// the process-wide pool, returning per-run outcomes in run order.
    ///
    /// Seeds are derived per `(run, gop)`, so sample paths are
    /// identical across schemes (common random numbers) and results
    /// are bit-identical to the serial [`crate::engine::run`] path for
    /// every shard policy and worker count.
    pub fn run(&self, scheme: Scheme) -> SessionResult {
        let runtime = self.pool();
        let window_gops = self.window_gops(runtime);
        // Each stream runs its serial spectrum prologue here (cheap and
        // scheme-independent); every window of the run shares the plan.
        let streams: Vec<RunStream> = (0..self.runs)
            .map(|r| {
                RunStream::new(
                    Arc::clone(&self.scenario),
                    self.config,
                    scheme,
                    self.master_seed,
                    r,
                    window_gops,
                    self.trace,
                )
            })
            .collect();
        let counters = ShardCounters::from_runtime(runtime);
        // One flat batch, run-major then window order — regrouped below
        // in exactly this order.
        let tasks = streams.iter().flat_map(RunStream::tasks).map(|task| {
            let counters = counters.clone();
            move || task.execute_counted(&counters)
        });
        let mut windows = runtime.run_batch_with(self.priority, tasks).into_iter();
        let outcomes = streams
            .iter()
            .map(|stream| next_run(&mut windows, stream.window_count()).map(|w| stream.stitch(w)))
            .collect();
        SessionResult { scheme, outcomes }
    }

    /// Executes all runs of `scheme` through the packet-level engine
    /// (NAL-unit-granular delivery), sharded like [`SimSession::run`];
    /// bit-identical to the serial
    /// [`crate::packet_engine::run_packet_level`].
    pub fn run_packet(&self, scheme: Scheme) -> PacketSessionResult {
        let seeds = SeedSequence::new(self.master_seed);
        let runtime = self.pool();
        let total_gops = u64::from(self.config.gops);
        let window_gops = self.window_gops(runtime);
        let windows_per_run = total_gops.div_ceil(window_gops);

        let mut jobs = Vec::with_capacity((self.runs * windows_per_run) as usize);
        for r in 0..self.runs {
            let run_seeds = seeds.child("packet-run", r);
            let plan = Arc::new(packet_engine::plan_packet(
                &self.scenario,
                &self.config,
                &run_seeds,
            ));
            for w in 0..windows_per_run {
                let gop_start = w * window_gops;
                jobs.push(PacketWindowJob {
                    scenario: Arc::clone(&self.scenario),
                    config: self.config,
                    scheme,
                    run_seeds,
                    plan: Arc::clone(&plan),
                    run: r,
                    window: w,
                    gop_start: gop_start as u32,
                    gops: window_gops.min(total_gops - gop_start) as u32,
                });
            }
        }
        let counters = ShardCounters::from_runtime(runtime);
        let jobs = jobs.into_iter().map(|job| {
            let counters = counters.clone();
            move || job.execute(&counters)
        });
        let mut windows = runtime.run_batch_with(self.priority, jobs).into_iter();

        let num_users = self.scenario.num_users();
        let outcomes = (0..self.runs)
            .map(|_| {
                next_run(&mut windows, windows_per_run)
                    .map(|w| packet_engine::stitch_packet(w, num_users))
            })
            .collect();
        PacketSessionResult { scheme, outcomes }
    }

    /// GOPs per window for this session's runs on `runtime`.
    fn window_gops(&self, runtime: &Runtime) -> u64 {
        self.shards
            .window_gops(u64::from(self.config.gops), runtime.workers())
    }

    /// Sweeps a parameter: for each `(x, config, scenario)` point,
    /// runs all `schemes` with this session's seed / run count / shard
    /// policy and returns one [`Series`] per scheme with the mean
    /// Y-PSNR samples at every x (the layout of Figs. 4(b), 4(c),
    /// 6(a)–6(c)). The session's own scenario/config act only as the
    /// template; each point supplies its own.
    pub fn sweep(&self, points: &[(f64, SimConfig, Scenario)], schemes: &[Scheme]) -> Vec<Series> {
        let mut series: Vec<Series> = schemes.iter().map(|s| Series::new(s.name())).collect();
        for (x, cfg, scenario) in points {
            let session = SimSession {
                scenario: Arc::new(scenario.clone()),
                config: *cfg,
                runs: self.runs,
                master_seed: self.master_seed,
                shards: self.shards,
                trace: TraceMode::Off,
                priority: self.priority,
                runtime: self.runtime.clone(),
            };
            for (scheme, out) in schemes.iter().zip(series.iter_mut()) {
                let samples: Vec<f64> = session
                    .run(*scheme)
                    .outcomes()
                    .iter()
                    .enumerate()
                    .filter_map(|(run, outcome)| match outcome {
                        Ok(out) => Some(out.result.mean_psnr()),
                        Err(err) => {
                            eprintln!(
                                "sweep point x={x}: run {run} of {} failed: {err}",
                                scheme.name()
                            );
                            None
                        }
                    })
                    .collect();
                out.push(*x, samples);
            }
        }
        series
    }
}

/// Takes the next `count` window outcomes of a batch as one run's
/// windows: all of them, or the first failure when any window failed.
fn next_run<T>(
    outcomes: &mut impl Iterator<Item = JobOutcome<T>>,
    count: u64,
) -> JobOutcome<Vec<T>> {
    let run: Vec<_> = outcomes.by_ref().take(count as usize).collect();
    run.into_iter().collect()
}

/// One GOP-aligned packet-engine window of one run.
struct PacketWindowJob {
    scenario: Arc<Scenario>,
    config: SimConfig,
    scheme: Scheme,
    run_seeds: SeedSequence,
    plan: Arc<SpectrumPlan>,
    run: u64,
    window: u64,
    gop_start: u32,
    gops: u32,
}

impl PacketWindowJob {
    fn execute(&self, counters: &ShardCounters) -> PacketWindowOutput {
        let shard = fcr_telemetry::ShardRecord {
            run: self.run,
            window: self.window,
            gop_start: u64::from(self.gop_start),
            gops: u64::from(self.gops),
            wall_ns: 0,
        };
        let slots = u64::from(self.gops) * u64::from(self.config.deadline);
        counters.count(shard, slots, || {
            packet_engine::run_packet_window(
                &self.scenario,
                &self.config,
                self.scheme,
                &self.run_seeds,
                &self.plan,
                self.gop_start,
                self.gops,
            )
        })
    }
}

/// Per-run outcomes of one [`SimSession::run`] invocation.
#[derive(Debug, Clone)]
pub struct SessionResult {
    scheme: Scheme,
    outcomes: Vec<JobOutcome<RunOutput>>,
}

impl SessionResult {
    /// The scheme that produced these outcomes.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Per-run outcomes in run order; a run whose shard panicked
    /// yields `Err(JobError::Panicked(..))` in its slot.
    pub fn outcomes(&self) -> &[JobOutcome<RunOutput>] {
        &self.outcomes
    }

    /// Consumes the result into its per-run outcomes.
    pub fn into_outcomes(self) -> Vec<JobOutcome<RunOutput>> {
        self.outcomes
    }

    /// The successful per-run results, in run order; failed runs are
    /// reported on stderr and dropped.
    ///
    /// # Panics
    ///
    /// Panics if **every** run failed — there is nothing to average.
    /// Use [`SessionResult::outcomes`] to inspect individual failures.
    pub fn results(&self) -> Vec<RunResult> {
        let total = self.outcomes.len();
        let results: Vec<RunResult> = self
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(run, outcome)| match outcome {
                Ok(out) => Some(out.result.clone()),
                Err(err) => {
                    eprintln!("run {run} of {} failed: {err}", self.scheme.name());
                    None
                }
            })
            .collect();
        assert!(
            !results.is_empty(),
            "all {total} runs of {} failed",
            self.scheme.name()
        );
        results
    }

    /// The per-run traces, in run order (empty unless the session ran
    /// with a recording [`TraceMode`]).
    pub fn traces(&self) -> Vec<&SimTrace> {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok().and_then(|out| out.trace.as_ref()))
            .collect()
    }

    /// Aggregates the successful runs (mean ± 95% CI).
    ///
    /// # Panics
    ///
    /// Panics if every run failed (see [`SessionResult::results`]).
    pub fn summary(&self) -> SchemeSummary {
        SchemeSummary::from_runs(&self.results())
    }
}

/// Per-run outcomes of one [`SimSession::run_packet`] invocation.
#[derive(Debug, Clone)]
pub struct PacketSessionResult {
    scheme: Scheme,
    outcomes: Vec<JobOutcome<PacketRunResult>>,
}

impl PacketSessionResult {
    /// The scheme that produced these outcomes.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Per-run outcomes in run order.
    pub fn outcomes(&self) -> &[JobOutcome<PacketRunResult>] {
        &self.outcomes
    }

    /// Consumes the result into its per-run outcomes.
    pub fn into_outcomes(self) -> Vec<JobOutcome<PacketRunResult>> {
        self.outcomes
    }

    /// The successful per-run results, in run order; failed runs are
    /// reported on stderr and dropped.
    ///
    /// # Panics
    ///
    /// Panics if **every** run failed.
    pub fn results(&self) -> Vec<PacketRunResult> {
        let total = self.outcomes.len();
        let results: Vec<PacketRunResult> = self
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(run, outcome)| match outcome {
                Ok(r) => Some(r.clone()),
                Err(err) => {
                    eprintln!("packet run {run} of {} failed: {err}", self.scheme.name());
                    None
                }
            })
            .collect();
        assert!(
            !results.is_empty(),
            "all {total} packet runs of {} failed",
            self.scheme.name()
        );
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::packet_engine::run_packet_level;
    use crate::pool::SHARDS_COUNTER;

    fn quick() -> SimSession {
        let cfg = SimConfig {
            gops: 4,
            ..SimConfig::default()
        };
        SimSession::new(Scenario::single_fbs(&cfg))
            .config(cfg)
            .seed(77)
            .runs(3)
    }

    #[test]
    fn session_is_deterministic_and_bit_identical_to_serial() {
        let s = quick();
        let seeds = SeedSequence::new(77);
        for policy in [
            ShardPolicy::Auto,
            ShardPolicy::WholeRun,
            ShardPolicy::Windows(1),
            ShardPolicy::Windows(3),
        ] {
            let result = s.clone().shards(policy).run(Scheme::Proposed);
            let runs = result.results();
            assert_eq!(runs.len(), 3, "{policy:?}");
            for (r, got) in runs.iter().enumerate() {
                let want = run(
                    s.scenario(),
                    s.config_ref(),
                    Scheme::Proposed,
                    &seeds,
                    r as u64,
                    TraceMode::Off,
                )
                .result;
                assert_eq!(*got, want, "{policy:?} run {r}");
            }
        }
    }

    #[test]
    fn sharded_traces_stitch_identically() {
        let s = quick().trace(TraceMode::Slots);
        let serial = s
            .clone()
            .shards(ShardPolicy::WholeRun)
            .run(Scheme::Proposed);
        let sharded = s
            .clone()
            .shards(ShardPolicy::Windows(1))
            .run(Scheme::Proposed);
        assert_eq!(serial.traces().len(), 3);
        for (a, b) in serial.traces().iter().zip(sharded.traces()) {
            assert_eq!(*a, b, "stitched trace differs from serial");
        }
    }

    #[test]
    fn packet_session_matches_serial_packet_engine() {
        let s = quick();
        let seeds = SeedSequence::new(77);
        for policy in [ShardPolicy::WholeRun, ShardPolicy::Windows(1)] {
            let result = s.clone().shards(policy).run_packet(Scheme::Heuristic1);
            let runs = result.results();
            assert_eq!(runs.len(), 3);
            for (r, got) in runs.iter().enumerate() {
                let want = run_packet_level(
                    s.scenario(),
                    s.config_ref(),
                    Scheme::Heuristic1,
                    &seeds,
                    r as u64,
                );
                assert_eq!(*got, want, "{policy:?} run {r}");
            }
        }
    }

    #[test]
    fn session_feeds_shard_counter() {
        // A dedicated runtime: the shared pool's counter is also bumped
        // by every other session test running concurrently.
        let runtime = Arc::new(Runtime::new());
        let s = quick()
            .shards(ShardPolicy::Windows(2)) // 4 GOPs → 2 windows/run
            .on_runtime(Arc::clone(&runtime));
        let _ = s.run(Scheme::Heuristic2);
        assert_eq!(
            runtime.snapshot().counter(SHARDS_COUNTER),
            Some(3 * 2),
            "3 runs × 2 windows"
        );
    }

    #[test]
    fn auto_windows_follow_an_idle_pool_at_its_full_width() {
        // An idle pool keeps every worker, so `Auto` cuts each 4-GOP
        // run into 2 × 2 workers = 4 one-GOP windows.
        let runtime = Arc::new(Runtime::with_config(fcr_runtime::RuntimeConfig {
            workers: 2,
            ..fcr_runtime::RuntimeConfig::default()
        }));
        let s = quick()
            .shards(ShardPolicy::Auto)
            .on_runtime(Arc::clone(&runtime));
        let _ = s.run(Scheme::Proposed);
        let snap = runtime.snapshot();
        assert_eq!(snap.workers, 2);
        assert_eq!(
            snap.counter(SHARDS_COUNTER),
            Some(3 * 4),
            "3 runs × 4 windows"
        );
    }

    #[test]
    fn sweep_produces_aligned_series() {
        let base = SimConfig {
            gops: 2,
            ..SimConfig::default()
        };
        let points: Vec<(f64, SimConfig, Scenario)> = [4usize, 6]
            .iter()
            .map(|m| {
                let cfg = SimConfig {
                    num_channels: *m,
                    ..base
                };
                (*m as f64, cfg, Scenario::single_fbs(&cfg))
            })
            .collect();
        let series = SimSession::new(Scenario::single_fbs(&base))
            .config(base)
            .seed(5)
            .runs(2)
            .sweep(&points, &[Scheme::Proposed, Scheme::Heuristic1]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name(), "Proposed scheme");
        assert_eq!(series[0].len(), 2);
        assert_eq!(series[1].len(), 2);
    }

    #[test]
    fn priority_changes_order_never_results() {
        let s = quick();
        let normal = s.run(Scheme::Proposed).results();
        let urgent = s
            .clone()
            .priority(Priority::urgent())
            .run(Scheme::Proposed)
            .results();
        let bulk_deadline = s
            .clone()
            .priority(Priority::bulk().deadline_in(std::time::Duration::from_millis(5)))
            .run(Scheme::Proposed)
            .results();
        assert_eq!(normal, urgent, "urgent reordering changed results");
        assert_eq!(normal, bulk_deadline, "bulk+EDF reordering changed results");
        assert_eq!(
            s.clone().priority(Priority::urgent()).priority_ref(),
            Priority::urgent()
        );
    }

    #[test]
    fn a_failed_window_fails_only_its_own_run() {
        let lost = || Err(fcr_runtime::JobError::Panicked("lost".into()));
        let mut batch = vec![Ok(1), lost(), lost(), Ok(3), Ok(4)].into_iter();
        assert!(next_run(&mut batch, 2).is_err(), "run 0 lost window 1");
        assert!(next_run(&mut batch, 1).is_err(), "run 1 lost window 0");
        assert_eq!(next_run(&mut batch, 2), Ok(vec![3, 4]), "run 2 intact");
        assert!(batch.next().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        let _ = quick().runs(0);
    }
}
