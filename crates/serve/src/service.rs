//! The always-on service: slot clock, admission control, scheduling,
//! degradation ladder, churn, and exact accounting.

use crate::config::{ServeConfig, ADMIT_EPS};
use crate::snapshot::ServiceSnapshot;
use fcr_core::waterfill::WaterfillingSolver;
use fcr_runtime::histogram::AtomicHistogram;
use fcr_runtime::{JobHandle, Priority, Runtime};
use fcr_sim::config::SimConfig;
use fcr_sim::engine::{RunOutput, TraceMode};
use fcr_sim::stream::{CompletedWindow, RunStream, ShardCounters, WindowTask};
use fcr_sim::{Scenario, Scheme};
use fcr_stats::rng::SeedSequence;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Everything needed to open one video session: the cell it streams
/// in, the per-session simulation shape, and how much work it carries.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The cell topology and user population this session simulates.
    pub scenario: Arc<Scenario>,
    /// Per-session simulation shape (GOPs, deadline, channels, …).
    pub config: SimConfig,
    /// Allocation scheme the session runs under.
    pub scheme: Scheme,
    /// Master seed; run `r` of this session derives exactly the seeds
    /// the batch [`fcr_sim::SimSession`] path would (`child("run", r)`).
    pub seed: u64,
    /// Required simulation runs: the session's base layer. A session
    /// only completes when every base run finishes; base work is never
    /// shed while the session lives.
    pub base_runs: u64,
    /// Optional refinement runs: the session's enhancement layer,
    /// scheduled as bulk prefetch and the first thing the degradation
    /// ladder sheds under overload (the session then completes
    /// degraded, loudly counted).
    pub enhancement_runs: u64,
}

impl SessionSpec {
    /// A spec for `scenario`/`config` with one base run, no
    /// enhancement runs, seed 0, and the proposed scheme.
    pub fn new(scenario: Arc<Scenario>, config: SimConfig) -> Self {
        SessionSpec {
            scenario,
            config,
            scheme: Scheme::Proposed,
            seed: 0,
            base_runs: 1,
            enhancement_runs: 0,
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the allocation scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the number of required base runs (≥ 1).
    pub fn base_runs(mut self, runs: u64) -> Self {
        self.base_runs = runs;
        self
    }

    /// Sets the number of droppable enhancement runs.
    pub fn enhancement_runs(mut self, runs: u64) -> Self {
        self.enhancement_runs = runs;
        self
    }
}

/// Opaque id of an admitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// Why [`Service::admit`] turned a session away.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The concurrency watermark is reached.
    AtCapacity {
        /// Sessions currently active.
        active: usize,
        /// The configured watermark.
        max: usize,
    },
    /// Admitting would push the summed MBS demand over the eq.-(12)
    /// budget.
    OverBudget {
        /// The candidate session's estimated MBS demand.
        demand: f64,
        /// Budget currently uncommitted.
        available: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::AtCapacity { active, max } => {
                write!(f, "at capacity ({active}/{max} sessions)")
            }
            RejectReason::OverBudget { demand, available } => {
                write!(
                    f,
                    "over MBS budget (demand {demand:.6}, available {available:.6})"
                )
            }
        }
    }
}

/// The outcome of an admission attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitOutcome {
    /// The session was admitted and is now active.
    Admitted(SessionId),
    /// The session was turned away; nothing was reserved.
    Rejected(RejectReason),
}

impl AdmitOutcome {
    /// The admitted id, panicking on rejection (test convenience).
    pub fn expect_admitted(self) -> SessionId {
        match self {
            AdmitOutcome::Admitted(id) => id,
            AdmitOutcome::Rejected(reason) => panic!("expected admission, got: {reason}"),
        }
    }
}

/// Which cell boundary a session crosses in [`Service::handover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverKind {
    /// The user walked into another femtocell's coverage: the session
    /// stays on femto service, its MBS demand claim is re-estimated
    /// for the new cell.
    FbsToFbs,
    /// The user left femto coverage entirely: the session falls back
    /// to macro service, typically *raising* its MBS demand claim
    /// (the macro link is the weak one).
    FbsToMbs,
    /// The user walked back into femto coverage from macro service.
    MbsToFbs,
}

/// Why [`Service::handover`] refused to move a session.
#[derive(Debug, Clone, PartialEq)]
pub enum HandoverReject {
    /// The demand increase does not fit the remaining eq.-(12) budget;
    /// the session keeps its old claim and serving cell untouched.
    OverBudget {
        /// The re-estimated demand on the target cell.
        demand: f64,
        /// Budget currently uncommitted (excluding this session's own
        /// existing claim, which the swap would recycle).
        available: f64,
    },
    /// The requested kind does not match the session's current serving
    /// side (e.g. `MbsToFbs` for a session already on femto service).
    WrongCell {
        /// `true` when the session is currently macro-served.
        on_mbs: bool,
    },
}

impl std::fmt::Display for HandoverReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandoverReject::OverBudget { demand, available } => write!(
                f,
                "handover over MBS budget (demand {demand:.6}, available {available:.6})"
            ),
            HandoverReject::WrongCell { on_mbs } => {
                write!(f, "handover kind mismatch (session on_mbs={on_mbs})")
            }
        }
    }
}

/// The outcome of a [`Service::handover`] attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum HandoverOutcome {
    /// The session moved; its ledger claim was swapped atomically.
    Completed {
        /// The demand claim the session held before the handover.
        old_demand: f64,
        /// The claim it holds now (the quantized `new_demand`).
        new_demand: f64,
    },
    /// The session stayed where it was; nothing changed.
    Rejected(HandoverReject),
    /// `id` is not an active session (completed, shed, retired, or
    /// never admitted); nothing changed.
    NotActive,
}

impl HandoverOutcome {
    /// `true` when the session moved.
    pub fn completed(&self) -> bool {
        matches!(self, HandoverOutcome::Completed { .. })
    }
}

/// A finished session handed back by [`Service::take_completed`]: the
/// per-run outputs, bit-identical to what the batch path would have
/// produced for the same spec and seed.
#[derive(Debug)]
pub struct CompletedSession {
    /// The session's id.
    pub id: SessionId,
    /// One output per run in run-index order (base runs first). Shed
    /// enhancement runs yield `None`.
    pub outputs: Vec<Option<RunOutput>>,
    /// `true` when the degradation ladder shed any enhancement work.
    pub degraded: bool,
}

/// What one slot step did (see [`Service::step`]).
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Service slot after this step.
    pub slot: u64,
    /// Window jobs submitted this step.
    pub submitted: u64,
    /// Window submissions deferred by pool backpressure this step.
    pub deferred: u64,
    /// Sessions that completed this step.
    pub completed: Vec<SessionId>,
    /// Sessions the degradation ladder shed this step (loud, terminal).
    pub shed: Vec<SessionId>,
    /// Window jobs pending after this step (queued in sessions plus
    /// in flight on the pool).
    pub pending: u64,
    /// Active sessions after this step.
    pub active: usize,
}

/// One run of one session, with its scheduling state.
struct RunState {
    stream: RunStream,
    tasks: VecDeque<WindowTask>,
    inflight: Vec<(WindowTask, JobHandle<CompletedWindow>)>,
    done: Vec<CompletedWindow>,
    output: Option<RunOutput>,
    enhancement: bool,
    shed: bool,
}

impl RunState {
    fn resolved(&self) -> bool {
        self.shed || self.output.is_some()
    }

    fn pending(&self) -> u64 {
        self.tasks.len() as u64 + self.inflight.len() as u64
    }
}

/// One admitted session.
struct SessionState {
    id: u64,
    /// The session's MBS demand on the fixed-point admission ledger —
    /// quantized once at admission, so the retire/complete/shed free
    /// subtracts exactly what admission charged.
    demand_units: u64,
    admitted_slot: u64,
    deadline: u64,
    /// Slots after admission before the session may complete: its
    /// playout under [`ServeConfig::hold_for_playout`], else 0.
    hold_slots: u64,
    runs: Vec<RunState>,
    degraded: bool,
    /// `true` while the session is macro-served (after an FBS→MBS
    /// handover and before a return MBS→FBS one). Sessions are always
    /// admitted on femto service.
    on_mbs: bool,
}

impl SessionState {
    fn pending(&self) -> u64 {
        self.runs.iter().map(RunState::pending).sum()
    }
}

/// Monotonic service counters (all exact; the accounting identity
/// `admitted == active + completed + retired + shed` is asserted every
/// step).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counts {
    pub admitted: u64,
    pub completed: u64,
    pub retired: u64,
    pub shed: u64,
    pub rejected_capacity: u64,
    pub rejected_budget: u64,
    pub windows_completed: u64,
    pub windows_retried: u64,
    pub deferrals: u64,
    pub enhancement_runs_shed: u64,
    pub degraded_sessions: u64,
    pub completed_dropped: u64,
    pub steps: u64,
    pub handovers_fbs_fbs: u64,
    pub handovers_fbs_mbs: u64,
    pub handovers_mbs_fbs: u64,
    pub handovers_rejected: u64,
}

struct State {
    slot: u64,
    next_id: u64,
    /// Committed MBS demand in [`BUDGET_UNIT_SCALE`]-ths of a unit
    /// time share. Integer, so repeated admit/free cycles are exactly
    /// reversible — no float dust can accumulate against the eq.-(12)
    /// budget and flip a boundary session between `Admitted` and
    /// `Rejected` across churn.
    mbs_in_use_units: u64,
    active: Vec<SessionState>,
    /// Retired sessions whose in-flight jobs are still draining
    /// (already counted retired; outputs are discarded on arrival).
    draining: Vec<SessionState>,
    completed_buf: VecDeque<CompletedSession>,
    counts: Counts,
}

/// The always-on streaming service: owns a slot clock and a shared
/// worker pool, and admits/retires video sessions *while the clock
/// runs*.
///
/// # Lifecycle
///
/// - [`Service::admit`] estimates the candidate's MBS unit time-share
///   demand (the eq.-(12) quantity, via one waterfilling solve of a
///   sampled slot problem) and admits it only within the configured
///   budget and concurrency watermark.
/// - [`Service::step`] advances the slot clock one tick: finished
///   window jobs are collected (lost ones resubmitted — an admitted
///   session is never dropped silently), due windows are submitted to
///   the pool (urgent near their playout deadline, bulk as prefetch),
///   and the degradation ladder engages under overload: **defer →
///   shed enhancement → shed the session**, every stage counted.
/// - [`Service::retire`] ends a session early, freeing its budget
///   immediately (re-admission can proceed) while its in-flight work
///   drains in the background.
///
/// The accounting identity `admitted == active + completed + retired +
/// shed` holds after every step and is asserted there.
///
/// Sessions execute through [`fcr_sim::stream::RunStream`], so a
/// session's outputs are **bit-identical** to a batch
/// [`fcr_sim::SimSession`] run of the same spec and seed — serving is
/// a scheduling choice, not a numerical one.
pub struct Service {
    config: ServeConfig,
    runtime: Arc<Runtime>,
    counters: ShardCounters,
    step_wall: AtomicHistogram,
    state: Mutex<State>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Creates a service on `runtime`.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`ServeConfig::validate`].
    pub fn new(config: ServeConfig, runtime: Arc<Runtime>) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid ServeConfig: {e}");
        }
        let counters = ShardCounters::from_runtime(&runtime);
        Service {
            config,
            runtime,
            counters,
            step_wall: AtomicHistogram::new(),
            state: Mutex::new(State {
                slot: 0,
                next_id: 1,
                mbs_in_use_units: 0,
                active: Vec::new(),
                draining: Vec::new(),
                completed_buf: VecDeque::new(),
                counts: Counts::default(),
            }),
        }
    }

    /// A service on the process-wide serve pool
    /// ([`crate::shared_runtime`]), the usual daemon setup.
    pub fn on_shared_pool(config: ServeConfig) -> Self {
        Service::new(config, crate::shared_runtime())
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The pool this service schedules on.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Estimates the MBS unit time-share demand of `spec`: one
    /// waterfilling solve (Table I/II machinery) of a deterministic
    /// sampled slot problem, returning the eq.-(12) quantity
    /// `Σ_j ρ_{0,j}` the session would claim. Deterministic in
    /// `spec.seed`.
    pub fn estimate_demand(spec: &SessionSpec) -> f64 {
        let problem = fcr_sim::engine::sample_slot_problem(
            &spec.scenario,
            &spec.config,
            &SeedSequence::new(spec.seed),
        );
        WaterfillingSolver::new().solve(&problem).mbs_load()
    }

    /// Attempts to admit a session: checks the concurrency watermark
    /// and the eq.-(12) MBS budget, and on admission opens the
    /// session's run streams (spectrum prologue now, window work
    /// lazily as the clock reaches it).
    ///
    /// # Panics
    ///
    /// Panics when `spec.base_runs == 0` — a session with no required
    /// work is a caller bug, not an admission decision.
    pub fn admit(&self, spec: SessionSpec) -> AdmitOutcome {
        assert!(spec.base_runs >= 1, "a session needs at least one base run");
        let demand = Self::estimate_demand(&spec);

        // Build the streams before taking the lock: plan_spectrum is
        // the expensive part and must not serialize the service.
        let total_runs = spec.base_runs + spec.enhancement_runs;
        let runs: Vec<RunState> = (0..total_runs)
            .map(|r| {
                let stream = RunStream::new(
                    Arc::clone(&spec.scenario),
                    spec.config,
                    spec.scheme,
                    spec.seed,
                    r,
                    self.config.window_gops,
                    TraceMode::Off,
                );
                RunState {
                    tasks: stream.tasks().into(),
                    stream,
                    inflight: Vec::new(),
                    done: Vec::new(),
                    output: None,
                    enhancement: r >= spec.base_runs,
                    shed: false,
                }
            })
            .collect();

        let mut st = self.lock();
        if st.active.len() >= self.config.max_sessions {
            st.counts.rejected_capacity += 1;
            return AdmitOutcome::Rejected(RejectReason::AtCapacity {
                active: st.active.len(),
                max: self.config.max_sessions,
            });
        }
        // Decide on the integer ledger: both sides quantized to the
        // same grid, so the outcome for a session exactly at budget is
        // identical on a fresh service and after any number of
        // admit/retire cycles.
        let demand_units = to_budget_units(demand);
        let available_units =
            to_budget_units(self.config.mbs_budget).saturating_sub(st.mbs_in_use_units);
        if demand_units > available_units.saturating_add(to_budget_units(ADMIT_EPS)) {
            st.counts.rejected_budget += 1;
            return AdmitOutcome::Rejected(RejectReason::OverBudget {
                demand,
                available: from_budget_units(available_units),
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.mbs_in_use_units = st.mbs_in_use_units.saturating_add(demand_units);
        st.counts.admitted += 1;
        let session = SessionState {
            id,
            demand_units,
            admitted_slot: st.slot,
            deadline: u64::from(spec.config.deadline),
            hold_slots: if self.config.hold_for_playout {
                spec.config.total_slots()
            } else {
                0
            },
            runs,
            degraded: false,
            on_mbs: false,
        };
        st.active.push(session);
        assert_accounting(&st);
        AdmitOutcome::Admitted(SessionId(id))
    }

    /// Hands an active session over to another cell: its eq.-(12)
    /// ledger claim is swapped from the old demand to `new_demand`
    /// **atomically** (the old claim is recycled into the availability
    /// the new claim is checked against, so a demand decrease always
    /// fits), and the session's serving side is updated per `kind`.
    ///
    /// The session's committed simulation work is untouched — runs keep
    /// streaming from the seeds admission derived, so serve output
    /// stays bit-identical to the batch path. A handover moves the
    /// session's *budget claim*, which is exactly what the eq.-(12)
    /// admission controller governs: FBS→MBS fallback typically raises
    /// the claim (macro service carries the whole stream), the return
    /// MBS→FBS handover releases it again.
    ///
    /// `new_demand` is the re-estimate against the target cell —
    /// usually [`Service::estimate_demand`] of the session's spec
    /// rebuilt on the new serving cell's geometry.
    ///
    /// On `Rejected`/`NotActive` nothing changes: the session keeps its
    /// old claim and serving side (for an over-budget FBS→MBS fallback
    /// the caller decides between retrying later and retiring the
    /// session — a femto network that cannot absorb the macro fallback
    /// is *supposed* to drop the call, loudly).
    pub fn handover(&self, id: SessionId, new_demand: f64, kind: HandoverKind) -> HandoverOutcome {
        let mut st = self.lock();
        let Some(pos) = st.active.iter().position(|s| s.id == id.0) else {
            return HandoverOutcome::NotActive;
        };
        let on_mbs = st.active[pos].on_mbs;
        let kind_fits = match kind {
            HandoverKind::FbsToFbs | HandoverKind::FbsToMbs => !on_mbs,
            HandoverKind::MbsToFbs => on_mbs,
        };
        if !kind_fits {
            st.counts.handovers_rejected += 1;
            return HandoverOutcome::Rejected(HandoverReject::WrongCell { on_mbs });
        }
        let old_units = st.active[pos].demand_units;
        let new_units = to_budget_units(new_demand);
        // Check only the *increase* against the free budget: the swap
        // recycles the session's own claim, and both sides live on the
        // integer ledger so the decision is exact.
        let free_units = to_budget_units(self.config.mbs_budget)
            .saturating_sub(st.mbs_in_use_units)
            .saturating_add(old_units);
        if new_units > free_units.saturating_add(to_budget_units(ADMIT_EPS)) {
            st.counts.handovers_rejected += 1;
            return HandoverOutcome::Rejected(HandoverReject::OverBudget {
                demand: new_demand,
                available: from_budget_units(free_units.saturating_sub(old_units)),
            });
        }
        st.mbs_in_use_units = st
            .mbs_in_use_units
            .saturating_sub(old_units)
            .saturating_add(new_units);
        st.active[pos].demand_units = new_units;
        match kind {
            HandoverKind::FbsToFbs => st.counts.handovers_fbs_fbs += 1,
            HandoverKind::FbsToMbs => {
                st.active[pos].on_mbs = true;
                st.counts.handovers_fbs_mbs += 1;
            }
            HandoverKind::MbsToFbs => {
                st.active[pos].on_mbs = false;
                st.counts.handovers_mbs_fbs += 1;
            }
        }
        assert_accounting(&st);
        HandoverOutcome::Completed {
            old_demand: from_budget_units(old_units),
            new_demand: from_budget_units(new_units),
        }
    }

    /// The ledger claim an active session currently holds (in unit MBS
    /// time shares, quantized), or `None` when `id` is not active.
    pub fn session_demand(&self, id: SessionId) -> Option<f64> {
        let st = self.lock();
        st.active
            .iter()
            .find(|s| s.id == id.0)
            .map(|s| from_budget_units(s.demand_units))
    }

    /// `true` when `id` is active and currently macro-served, `false`
    /// when femto-served, `None` when not active.
    pub fn session_on_mbs(&self, id: SessionId) -> Option<bool> {
        let st = self.lock();
        st.active.iter().find(|s| s.id == id.0).map(|s| s.on_mbs)
    }

    /// Retires an active session: its budget is freed immediately (a
    /// following [`Service::admit`] can claim it), it is counted
    /// retired, queued-but-unsubmitted work is cancelled, and any
    /// in-flight pool jobs drain in the background with their results
    /// discarded. Returns `false` when `id` is not active (already
    /// completed, shed, retired, or never admitted).
    pub fn retire(&self, id: SessionId) -> bool {
        let mut st = self.lock();
        let Some(pos) = st.active.iter().position(|s| s.id == id.0) else {
            return false;
        };
        let mut session = st.active.swap_remove(pos);
        st.counts.retired += 1;
        release_budget(&mut st, session.demand_units);
        for run in &mut session.runs {
            run.tasks.clear();
        }
        if session.runs.iter().any(|r| !r.inflight.is_empty()) {
            st.draining.push(session);
        }
        assert_accounting(&st);
        true
    }

    /// Advances the slot clock one tick: collects finished windows
    /// (resubmitting lost ones), stitches finished runs, completes
    /// sessions, submits due windows under playout-aware priorities,
    /// and runs the degradation ladder under overload. Asserts the
    /// accounting identity before returning.
    pub fn step(&self) -> StepReport {
        let started = Instant::now();
        let mut st = self.lock();
        st.slot += 1;
        st.counts.steps += 1;
        let now = st.slot;
        let mut report = StepReport {
            slot: now,
            ..StepReport::default()
        };

        // --- Collect finished jobs on draining (retired) sessions,
        //     discarding results. ---
        for session in &mut st.draining {
            for run in &mut session.runs {
                let inflight = std::mem::take(&mut run.inflight);
                for (task, handle) in inflight {
                    if handle.is_finished() {
                        let _ = handle.join();
                    } else {
                        run.inflight.push((task, handle));
                    }
                }
            }
        }
        st.draining
            .retain(|s| s.runs.iter().any(|r| !r.inflight.is_empty()));

        // --- Collect, stitch, submit, and degrade active sessions. ---
        let mut shed_now: Vec<usize> = Vec::new();
        let prefetch = self.config.prefetch_horizon;
        let urgent = self.config.urgent_horizon;
        let shed_after = self.config.shed_after;
        let mut windows_completed = 0u64;
        let mut windows_retried = 0u64;
        let mut enh_shed = 0u64;
        let mut newly_degraded = 0u64;

        for (idx, session) in st.active.iter_mut().enumerate() {
            let playout = now - session.admitted_slot;
            let t = session.deadline;
            let mut want_session_shed = false;

            for run in &mut session.runs {
                if run.shed {
                    // Late arrivals of already-shed work: discard.
                    let inflight = std::mem::take(&mut run.inflight);
                    for (task, handle) in inflight {
                        if handle.is_finished() {
                            let _ = handle.join();
                        } else {
                            run.inflight.push((task, handle));
                        }
                    }
                    continue;
                }

                // Finished windows land; lost windows are re-created
                // from their (idempotent) task and resubmitted.
                let inflight = std::mem::take(&mut run.inflight);
                for (task, handle) in inflight {
                    if handle.is_finished() {
                        match handle.join() {
                            Ok(win) => {
                                windows_completed += 1;
                                run.done.push(win);
                            }
                            Err(_lost) => {
                                windows_retried += 1;
                                run.tasks.push_front(task);
                            }
                        }
                    } else {
                        run.inflight.push((task, handle));
                    }
                }

                // Stitch when every window of the run has landed.
                if run.output.is_none()
                    && run.tasks.is_empty()
                    && run.inflight.is_empty()
                    && run.done.len() as u64 == run.stream.window_count()
                {
                    let windows = std::mem::take(&mut run.done);
                    run.output = Some(run.stream.stitch(windows));
                }

                // Submit due windows, nearest deadline first.
                while let Some(task) = run.tasks.front() {
                    let start_slot = u64::from(task.gop_start()) * t;
                    let due_slot = (u64::from(task.gop_start()) + u64::from(task.gops())) * t;
                    if playout + prefetch < start_slot {
                        break; // beyond the prefetch horizon
                    }
                    let priority = if run.enhancement {
                        Priority::bulk()
                    } else if due_slot.saturating_sub(playout) <= urgent {
                        Priority::urgent()
                            .deadline_in(Duration::from_millis(due_slot.saturating_sub(playout)))
                    } else {
                        Priority::bulk()
                    };
                    let job_task = task.clone();
                    let job_counters = self.counters.clone();
                    match self
                        .runtime
                        .try_spawn_with(priority, move || job_task.execute_counted(&job_counters))
                    {
                        Ok(handle) => {
                            let task = run.tasks.pop_front().expect("front exists");
                            run.inflight.push((task, handle));
                            report.submitted += 1;
                        }
                        Err(_rejected) => {
                            // Backpressure: stage 1 of the ladder is
                            // deferral; stages 2/3 engage only once the
                            // window is genuinely overdue.
                            report.deferred += 1;
                            let overdue = playout.saturating_sub(due_slot);
                            if overdue > shed_after {
                                if run.enhancement {
                                    run.shed = true;
                                    run.tasks.clear();
                                    enh_shed += 1;
                                    if !session.degraded {
                                        session.degraded = true;
                                        newly_degraded += 1;
                                    }
                                } else {
                                    want_session_shed = true;
                                }
                            }
                            break;
                        }
                    }
                }
            }

            if want_session_shed {
                // Stage 2 first: a session with enhancement work left
                // sheds that before its base work condemns it.
                let mut downgraded = false;
                for run in session.runs.iter_mut().filter(|r| r.enhancement && !r.shed) {
                    run.shed = true;
                    run.tasks.clear();
                    enh_shed += 1;
                    downgraded = true;
                }
                if downgraded {
                    if !session.degraded {
                        session.degraded = true;
                        newly_degraded += 1;
                    }
                } else {
                    // Stage 3: shed the whole session — loudly.
                    shed_now.push(idx);
                }
            }
        }

        st.counts.windows_completed += windows_completed;
        st.counts.windows_retried += windows_retried;
        st.counts.deferrals += report.deferred;
        st.counts.enhancement_runs_shed += enh_shed;
        st.counts.degraded_sessions += newly_degraded;

        // --- Shed sessions (terminal, counted, never silent). ---
        shed_now.sort_unstable_by(|a, b| b.cmp(a));
        for idx in shed_now {
            let mut session = st.active.swap_remove(idx);
            st.counts.shed += 1;
            report.shed.push(SessionId(session.id));
            release_budget(&mut st, session.demand_units);
            for run in &mut session.runs {
                run.tasks.clear();
            }
            if session.runs.iter().any(|r| !r.inflight.is_empty()) {
                st.draining.push(session);
            }
        }

        // --- Complete sessions whose runs are all resolved (and whose
        //     playout has ended, when the service holds for it). ---
        let mut completed_idx: Vec<usize> = st
            .active
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.runs.iter().all(RunState::resolved) && now - s.admitted_slot >= s.hold_slots
            })
            .map(|(i, _)| i)
            .collect();
        completed_idx.sort_unstable_by(|a, b| b.cmp(a));
        for idx in completed_idx {
            let mut session = st.active.swap_remove(idx);
            st.counts.completed += 1;
            report.completed.push(SessionId(session.id));
            release_budget(&mut st, session.demand_units);
            let completed = CompletedSession {
                id: SessionId(session.id),
                outputs: session.runs.iter_mut().map(|r| r.output.take()).collect(),
                degraded: session.degraded,
            };
            st.completed_buf.push_back(completed);
            while st.completed_buf.len() > self.config.completed_buffer {
                st.completed_buf.pop_front();
                st.counts.completed_dropped += 1;
            }
        }

        report.pending = pending_jobs(&st);
        report.active = st.active.len();
        assert_accounting(&st);
        self.step_wall.record(started.elapsed());
        report
    }

    /// Takes every buffered completed session (oldest first). Outputs
    /// beyond [`ServeConfig::completed_buffer`] were dropped and
    /// counted (`completed_dropped`); the completion *accounting* is
    /// exact regardless.
    pub fn take_completed(&self) -> Vec<CompletedSession> {
        self.lock().completed_buf.drain(..).collect()
    }

    /// Blocks until every window job the service has submitted so far
    /// has finished, through the jobs' own handles. A replay that calls
    /// it after each [`Service::step`] runs in lockstep: the next step
    /// collects every window the steps before it dispatched, so what
    /// the replay counts does not depend on the pool's speed. It holds
    /// the service's lock while it waits; window jobs never take it.
    pub fn wait_for_windows(&self) {
        let st = self.lock();
        for session in st.active.iter().chain(&st.draining) {
            for run in &session.runs {
                for (_, handle) in &run.inflight {
                    handle.wait();
                }
            }
        }
    }

    /// Steps the clock until every admitted session has resolved and
    /// all pool work has drained: it keeps stepping while any window
    /// is queued in a session or running on the pool, however long
    /// the pool takes, and returns once nothing is pending.
    ///
    /// # Panics
    ///
    /// Panics when a step leaves sessions unresolved with no window
    /// queued, submitted or running — no further step could change
    /// anything, so a stuck service fails loudly instead of hanging.
    /// (A draining session always has a window running, so only
    /// active sessions can be stuck this way. A resolved session held
    /// for its playout is not stuck: a later step completes it.)
    pub fn quiesce(&self) {
        loop {
            let report = self.step();
            if report.pending == 0 {
                if report.active == 0 {
                    return;
                }
                assert!(
                    self.lock()
                        .active
                        .iter()
                        .all(|s| s.runs.iter().all(RunState::resolved)),
                    "service cannot quiesce: active sessions have no window queued or running"
                );
            }
            std::thread::yield_now();
        }
    }

    /// A point-in-time copy of the service's counters and gauges.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let st = self.lock();
        ServiceSnapshot::collect(
            &st.counts,
            st.slot,
            st.active.len(),
            st.active.iter().filter(|s| s.on_mbs).count(),
            st.draining.len(),
            from_budget_units(st.mbs_in_use_units),
            self.config.mbs_budget,
            pending_jobs(&st),
            st.completed_buf.len(),
            &self.step_wall.snapshot(),
        )
    }

    /// The live metrics surface: one `serve` JSONL line (the service
    /// snapshot) followed by the full telemetry export — phase
    /// timings, solver convergence, shard/span records,
    /// per-worker utilization, and the pool summary. Every line is a
    /// self-contained JSON object; the whole body is what the
    /// `/metrics` endpoint serves.
    pub fn metrics_text(&self) -> String {
        let mut out = self.snapshot().to_json_line();
        out.push('\n');
        out.push_str(&fcr_telemetry::to_jsonl(
            &fcr_telemetry::global().snapshot(),
            Some(&self.runtime.snapshot()),
        ));
        out
    }

    /// The same metrics surface as [`Service::metrics_text`] rendered
    /// as Prometheus text exposition (format 0.0.4): the service
    /// snapshot (`fcr_serve_*`), then the telemetry + pool export
    /// (`fcr_*`). Served by the endpoint for `/metrics?format=prom`;
    /// percentile samples come from the same histograms as the JSONL
    /// body, so the two formats always agree.
    pub fn metrics_prometheus(&self) -> String {
        let mut out = self.snapshot().to_prometheus();
        out.push_str(&fcr_telemetry::to_prometheus(
            &fcr_telemetry::global().snapshot(),
            Some(&self.runtime.snapshot()),
        ));
        out
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Fixed-point scale of the admission ledger: demands are tracked in
/// `2⁻⁴⁰`-ths of a unit MBS time share. Resolution (~9·10⁻¹³) sits
/// three orders of magnitude below [`ADMIT_EPS`], so quantization is
/// invisible to every admission decision, while the worst case —
/// `max_sessions = 16 384` sessions of a full unit each — tops out at
/// `2⁵⁴` units, comfortably inside `u64`.
const BUDGET_UNIT_SCALE: f64 = (1u64 << 40) as f64;

/// Quantizes a demand (or budget) onto the ledger grid. Saturates on
/// values too large for the grid (an effectively unbounded budget).
fn to_budget_units(x: f64) -> u64 {
    let scaled = x * BUDGET_UNIT_SCALE;
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled.round() as u64
    }
}

/// The ledger value back in unit time shares (for snapshots and
/// rejection reports).
fn from_budget_units(units: u64) -> f64 {
    units as f64 / BUDGET_UNIT_SCALE
}

/// Frees a session's charge. Exact by construction — the subtraction
/// reverses the admission's integer add — with the saturation and the
/// idle snap kept as defense in depth.
fn release_budget(st: &mut State, demand_units: u64) {
    st.mbs_in_use_units = st.mbs_in_use_units.saturating_sub(demand_units);
    if st.active.is_empty() {
        debug_assert_eq!(st.mbs_in_use_units, 0, "ledger must drain to zero");
        st.mbs_in_use_units = 0;
    }
}

fn pending_jobs(st: &State) -> u64 {
    st.active.iter().map(SessionState::pending).sum::<u64>()
        + st.draining.iter().map(SessionState::pending).sum::<u64>()
}

/// The accounting identity, asserted on every serve transition
/// (admit, retire, handover, and each step):
///
/// 1. Every admitted session is exactly one of active, completed,
///    retired, or shed (draining sessions were already counted retired
///    or shed when they left the active set).
/// 2. The MBS ledger equals the sum of active sessions' claims,
///    **exactly** — the handed-over term included, since a handover
///    swaps a session's claim on the same integer ledger its admission
///    charged and its departure will free.
/// 3. Serving sides partition the active set: every active session is
///    on exactly one of femto or macro service.
fn assert_accounting(st: &State) {
    let c = &st.counts;
    assert_eq!(
        c.admitted,
        st.active.len() as u64 + c.completed + c.retired + c.shed,
        "accounting identity violated: admitted {} != active {} + completed {} + retired {} + shed {}",
        c.admitted,
        st.active.len(),
        c.completed,
        c.retired,
        c.shed,
    );
    let claimed: u64 = st.active.iter().map(|s| s.demand_units).sum();
    assert_eq!(
        st.mbs_in_use_units, claimed,
        "ledger identity violated: in-use {} units != sum of active claims {} units",
        st.mbs_in_use_units, claimed,
    );
    let on_mbs = st.active.iter().filter(|s| s.on_mbs).count();
    let on_fbs = st.active.iter().filter(|s| !s.on_mbs).count();
    assert_eq!(
        on_fbs + on_mbs,
        st.active.len(),
        "serving-side partition violated",
    );
}
