//! `serve_churn`: the always-on service under session churn, replayed
//! in lockstep. The replay thread replays `ChurnSchedule::generate` of
//! `scenarios/pu_burst.json` (re-seeded, longer horizon) through
//! `Service::admit`, `handover`, `retire` and `step` against a
//! dedicated one-worker pool, and after every step waits for the pool
//! to drain before the next slot. Op = one arriving session, timed from
//! the start of its arrival slot to the end of the slot that completes
//! it. The only workload that runs admission, scheduling, stitching
//! and pool dispatch; its cells do not interfere, so greedy, the
//! partitioner and the dual never run.
//!
//! Lockstep, because a paced replay mostly measures sleep and an
//! unpaced one admits a timing-dependent set of sessions: here every
//! pass of the same schedule makes the same decisions.

use crate::host::HostClock;
use crate::measure::{closed_loop, repeated_setup, tail, Busy, LoopStats};
use crate::trace::Tracer;
use crate::{layer_metrics, objective, psnrs_capped, read_pack, Args, EndToEnd, Report};
use fcr_runtime::{Priority, Runtime, RuntimeConfig};
use fcr_scenario::pack::JSON_SAFE_MAX;
use fcr_scenario::{ChurnDriver, ChurnEventKind, ChurnSchedule, Pack};
use fcr_serve::{AdmitOutcome, ServeConfig, Service, ServiceSnapshot, SessionId};
use fcr_sim::engine::{self, RunOutput, TraceMode};
use fcr_sim::Scenario;
use fcr_stats::descriptive::median;
use fcr_stats::rng::SeedSequence;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Churn horizon in slots: ~3000 arrivals per pass, so one pass alone
/// carries a p99 with ten samples beyond it.
pub const HORIZON: u64 = 5000;
/// The reported tail: each pass's p99, median over the run's passes, so
/// a host stall inside one pass does not move the run's figure.
const TAIL_Q: f64 = 0.99;
/// Set-up is a few ms and jittery; more repetitions steady its median.
const SETUP_REPS: usize = 15;
/// One in this many completed sessions is re-run through
/// `engine::run` and must match bit for bit.
const SAMPLE_EVERY: u64 = 32;
/// Lockstep steps allowed after the horizon for the service to drain.
const DRAIN_STEPS: usize = 16;
/// Slots between host samples (~60 ms of replay per ~2.5 ms sample).
const SAMPLE_SLOTS: usize = 128;

/// The schedule and everything sessions are built from.
#[derive(Debug)]
pub struct Inputs {
    pub pack: Pack,
    pub scenario: Arc<Scenario>,
    pub schedule: ChurnSchedule,
}

/// Parses the pack and re-seeds it with the workload seed over
/// `horizon` slots. A pack seed must fit a JSON number exactly, so the
/// seed keeps its low 53 bits.
pub fn pack(pack_text: &str, seed: u64, horizon: u64) -> Pack {
    let mut pack = Pack::from_json(pack_text).expect("pu_burst.json is a valid pack");
    pack.seed = seed & JSON_SAFE_MAX;
    let mut churn = pack.churn.expect("pu_burst.json has a churn section");
    churn.slots = horizon;
    pack.churn = Some(churn);
    pack.validate().expect("re-seeded pack stays valid");
    pack
}

/// The schedule and scenario of `pack`.
pub fn inputs(pack: Pack) -> Inputs {
    Inputs {
        scenario: Arc::new(pack.scenario()),
        schedule: ChurnSchedule::generate(&pack),
        pack,
    }
}

/// A dedicated pool: one worker, no autoscaler.
fn pool() -> Arc<Runtime> {
    Arc::new(Runtime::with_config(RuntimeConfig {
        workers: 1,
        min_workers: 1,
        max_workers: 1,
        autoscale: None,
        ..RuntimeConfig::default()
    }))
}

fn service(inputs: &Inputs, pool: &Arc<Runtime>) -> Service {
    let churn = inputs.pack.churn.expect("churn section");
    Service::new(
        ServeConfig {
            mbs_budget: churn.mbs_budget,
            max_sessions: churn.max_sessions as usize,
            ..ServeConfig::default()
        },
        Arc::clone(pool),
    )
}

/// `true` once every job submitted to `pool` has finished and handed
/// its result to its handle. The pool counts a job completed before it
/// fulfils the handle, so this reads the per-worker executed count,
/// which a worker bumps only after the whole task returned.
fn drained(pool: &Runtime) -> bool {
    let s = pool.snapshot();
    s.per_worker.iter().map(|w| w.jobs_executed).sum::<u64>() == s.jobs_submitted
}

/// Blocks until the pool has drained; returns the barrier jobs it
/// submitted (0 or 1). A deadline-less bulk job queues behind every
/// window already submitted, so on a one-worker pool joining it blocks
/// until the batch is done without polling.
fn wait_idle(pool: &Runtime) -> u64 {
    if drained(pool) {
        return 0;
    }
    pool.spawn_with(Priority::bulk(), || ())
        .join()
        .expect("a no-op job cannot fail");
    // The barrier itself is counted just after its handle is fulfilled.
    while !drained(pool) {
        std::thread::yield_now();
    }
    1
}

/// Pins this process, and every thread it starts afterwards, to its
/// first allowed CPU. Lockstep hands each slot from the replay thread to the
/// worker and back; on one CPU those are local context switches, not
/// wake-ups of an idle virtual CPU, whose latency depends on the host.
fn pin_to_one_cpu() -> Result<(), String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let first = allowed
        .trim()
        .split([',', '-'])
        .next()
        .ok_or("empty Cpus_allowed_list")?;
    let out = std::process::Command::new("taskset")
        .args(["-p", "-c", first, &std::process::id().to_string()])
        .output()
        .map_err(|e| format!("running taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// What one lockstep pass did.
#[derive(Debug)]
pub struct Pass {
    pub arrivals: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub retired: u64,
    pub completed: u64,
    pub handover_calls: u64,
    pub steps: u64,
    pub windows_submitted: u64,
    /// Latency of each completed session, ms: the summed time of the
    /// slots from its arrival to its completion, calibrated when the
    /// pass had a clock.
    pub latencies_ms: Vec<f64>,
    /// Summed time of every slot.
    pub busy: Busy,
    /// Completed sessions by ordinal: base-run output and whether the
    /// ladder degraded the session.
    pub outputs: BTreeMap<u64, (Option<RunOutput>, bool)>,
    /// Arrival ordinals that arrived inside a primary-user burst.
    pub in_burst: HashMap<u64, bool>,
    pub snapshot: ServiceSnapshot,
    /// Pool jobs run and their summed wall time, µs.
    pub jobs: u64,
    pub job_us: u64,
    /// Barrier jobs the lockstep waits added to the pool's counts.
    pub barriers: u64,
}

/// Busy time the pool's workers have finished so far.
fn worker_busy_ns(pool: &Runtime) -> u64 {
    pool.snapshot().per_worker.iter().map(|w| w.busy_ns).sum()
}

/// Wraps `f` in a span when tracing. Pool work that ran meanwhile (the
/// worker shares the replay thread's CPU) is filed under it as `runtime.job`.
/// With `phases`, the library's telemetry recorded meanwhile is filed
/// under it too: only right for calls made while the pool is idle.
fn call<T>(
    tracer: &mut Option<&mut Tracer>,
    pool: &Runtime,
    name: &'static str,
    parent: Option<usize>,
    op: Option<u64>,
    phases: bool,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let busy = worker_busy_ns(pool);
            let (out, id) = t.time(name, parent, op, f);
            let job = worker_busy_ns(pool) - busy;
            if job > 0 {
                t.record("runtime.job", Some(id), op, job);
            }
            if phases {
                t.attach_phases(Some(id), op);
            }
            out
        }
        None => f(),
    }
}

/// Replays the whole schedule once on a fresh service, lockstep:
/// events, one step, then wait for the pool to drain. `stop_after_first`
/// ends the pass at the slot of the first completion (the warm-up ramp).
/// With a `clock`, the host is sampled between slots every
/// [`SAMPLE_SLOTS`] slots and after the last, outside every slot's
/// timer, and each slot's time is calibrated by the samples around it.
pub fn replay(
    inputs: &Inputs,
    pool: &Arc<Runtime>,
    mut tracer: Option<&mut Tracer>,
    stop_after_first: bool,
    mut clock: Option<&mut HostClock>,
) -> Pass {
    let service = service(inputs, pool);
    let jobs0 = pool.snapshot();
    let (pack, scenario) = (&inputs.pack, &inputs.scenario);
    let mut pass = Pass {
        arrivals: 0,
        admitted: 0,
        rejected: 0,
        retired: 0,
        completed: 0,
        handover_calls: 0,
        steps: 0,
        windows_submitted: 0,
        latencies_ms: Vec::new(),
        busy: Busy::default(),
        outputs: BTreeMap::new(),
        in_burst: HashMap::new(),
        snapshot: service.snapshot(),
        jobs: 0,
        job_us: 0,
        barriers: 0,
    };
    let mut ids: HashMap<u64, SessionId> = HashMap::new();
    // Session -> (ordinal, index of its arrival slot).
    let mut ordinal_of: HashMap<SessionId, (u64, usize)> = HashMap::new();
    // Per slot: its measured time, ms, and the host sample before it.
    let mut slot_ms: Vec<f64> = Vec::new();
    let mut slot_sample: Vec<usize> = Vec::new();
    // Per completed session: its arrival and completion slot indices.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let events = &inputs.schedule.events;
    let horizon = inputs.pack.churn.expect("churn section").slots;
    let mut cursor = 0;
    let mut slot = 0u64;
    let mut drain_steps = 0;
    loop {
        let index = slot_ms.len();
        if let Some(c) = clock.as_deref_mut() {
            if index.is_multiple_of(SAMPLE_SLOTS) {
                c.sample(1);
            }
            slot_sample.push(c.latest());
        }
        let slot_start = Instant::now();
        let root = tracer.as_deref_mut().map(|t| t.open("slot", None, None));
        while cursor < events.len() && events[cursor].slot == slot {
            let event = events[cursor];
            cursor += 1;
            let op = Some(event.ordinal);
            match event.kind {
                ChurnEventKind::Arrive { during_pu_burst } => {
                    pass.arrivals += 1;
                    pass.in_burst.insert(event.ordinal, during_pu_burst);
                    let spec = call(&mut tracer, pool, "scenario.spec", root, op, true, || {
                        ChurnDriver::spec_for(pack, scenario, event.ordinal, during_pu_burst)
                    });
                    match call(&mut tracer, pool, "serve.admit", root, op, true, || {
                        service.admit(spec)
                    }) {
                        AdmitOutcome::Admitted(id) => {
                            pass.admitted += 1;
                            ids.insert(event.ordinal, id);
                            ordinal_of.insert(id, (event.ordinal, index));
                        }
                        AdmitOutcome::Rejected(_) => pass.rejected += 1,
                    }
                }
                ChurnEventKind::Handover {
                    kind,
                    demand_factor,
                    ..
                } => {
                    let Some(&id) = ids.get(&event.ordinal) else {
                        continue;
                    };
                    let demand = call(&mut tracer, pool, "scenario.spec", root, op, true, || {
                        ChurnDriver::handover_demand(
                            pack,
                            scenario,
                            event.ordinal,
                            kind,
                            demand_factor,
                        )
                    });
                    pass.handover_calls += 1;
                    call(&mut tracer, pool, "serve.handover", root, op, true, || {
                        service.handover(id, demand, kind)
                    });
                }
                ChurnEventKind::Retire => {
                    if let Some(id) = ids.remove(&event.ordinal) {
                        if call(&mut tracer, pool, "serve.retire", root, op, true, || {
                            service.retire(id)
                        }) {
                            pass.retired += 1;
                        }
                    }
                }
            }
        }
        let report = call(&mut tracer, pool, "serve.step", root, None, false, || {
            service.step()
        });
        pass.steps += 1;
        pass.windows_submitted += report.submitted;
        pass.barriers += call(&mut tracer, pool, "runtime.wait", root, None, false, || {
            wait_idle(pool)
        });
        slot_ms.push(slot_start.elapsed().as_secs_f64() * 1e3);
        if let Some(t) = tracer.as_deref_mut() {
            t.close(root.expect("traced slots have a root"));
            // Pool-side telemetry (window execution) runs on the
            // worker: filed outside the replay thread's slot timeline.
            t.attach_phases(None, None);
        }
        for id in &report.completed {
            let (ordinal, arrived) = ordinal_of[id];
            pass.completed += 1;
            spans.push((arrived, index));
            pass.outputs.insert(ordinal, (None, false));
        }
        for done in service.take_completed() {
            let (ordinal, _) = ordinal_of[&done.id];
            let base = done.outputs.into_iter().next().flatten();
            pass.outputs.insert(ordinal, (base, done.degraded));
        }
        if stop_after_first && pass.completed > 0 {
            break;
        }
        slot += 1;
        if slot > horizon {
            let snap = service.snapshot();
            if snap.active == 0 && snap.pending == 0 && snap.draining == 0 {
                break;
            }
            drain_steps += 1;
            assert!(
                drain_steps <= DRAIN_STEPS,
                "service failed to drain {DRAIN_STEPS} lockstep steps after the horizon"
            );
        }
    }
    // Calibrated slot times, as running sums: `elapsed[i]` ms passed
    // before slot `i` started.
    let scales: Vec<f64> = match clock {
        Some(c) => {
            c.sample(1);
            slot_sample.iter().map(|&b| c.scale(b, b + 1)).collect()
        }
        None => vec![1.0; slot_ms.len()],
    };
    let mut elapsed = vec![0.0];
    for (ms, scale) in slot_ms.iter().zip(&scales) {
        pass.busy.add(ms / 1e3, *scale);
        elapsed.push(elapsed.last().expect("starts at 0") + ms * scale);
    }
    pass.latencies_ms = spans
        .iter()
        .map(|&(arrived, done)| elapsed[done + 1] - elapsed[arrived])
        .collect();
    let jobs1 = pool.snapshot();
    pass.jobs = jobs1.jobs_completed - jobs0.jobs_completed - pass.barriers;
    pass.job_us = jobs1.job_wall_time.sum_micros - jobs0.job_wall_time.sum_micros;
    pass.snapshot = service.snapshot();
    pass
}

/// The session's output check: its base run is present, not degraded,
/// and every per-user PSNR is finite and within its ceiling.
fn output_ok(inputs: &Inputs, out: &(Option<RunOutput>, bool)) -> bool {
    match out {
        (Some(run), false) => psnrs_capped(
            &run.result,
            &inputs.scenario,
            inputs.pack.sim_config().scalability,
        ),
        _ => false,
    }
}

/// Per-pass verdict: ok sessions, failed checks, objective mean and
/// whether the whole-pass invariants held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub ok: u64,
    pub failed: u64,
    pub objective_mean: f64,
    pub invariants_hold: bool,
}

/// Checks a pass: the accounting identity, no retried windows, no shed
/// sessions, every completed session's output, and a seeded sample
/// re-run through `engine::run` bit for bit.
pub fn verdict(inputs: &Inputs, pass: &Pass) -> Verdict {
    let sample = SeedSequence::new(inputs.pack.seed);
    let mut ok = 0;
    let mut failed = 0;
    let mut objective_sum = 0.0;
    for (ordinal, out) in &pass.outputs {
        let mut good = output_ok(inputs, out);
        if good
            && sample
                .derive("sample", *ordinal)
                .is_multiple_of(SAMPLE_EVERY)
        {
            let spec = ChurnDriver::spec_for(
                &inputs.pack,
                &inputs.scenario,
                *ordinal,
                pass.in_burst[ordinal],
            );
            let batch = engine::run(
                &spec.scenario,
                &spec.config,
                spec.scheme,
                &SeedSequence::new(spec.seed),
                0,
                TraceMode::Off,
            );
            good = format!("{batch:?}") == format!("{:?}", out.0.as_ref().expect("checked"));
        }
        if good {
            ok += 1;
            objective_sum += objective(&out.0.as_ref().expect("checked").result);
        } else if out.1 {
            // Degraded by the ladder: not ok, but not a wrong output.
        } else {
            failed += 1;
        }
    }
    let snap = &pass.snapshot;
    Verdict {
        ok,
        failed,
        objective_mean: objective_sum / ok.max(1) as f64,
        invariants_hold: snap.accounting_holds()
            && snap.windows_retried == 0
            && snap.shed == 0
            && pass.outputs.len() as u64 == pass.completed,
    }
}

/// Parses the pack, generates the schedule, starts the pool and ramps
/// a throwaway service to its first completion. Returns the inputs,
/// the pool, and the parse and schedule times.
fn setup(seed: u64) -> (Inputs, Arc<Runtime>, Duration, Duration) {
    let started = Instant::now();
    let pack = pack(&read_pack("pu_burst"), seed, HORIZON);
    let parse = started.elapsed();
    let started = Instant::now();
    let inputs = inputs(pack);
    let schedule = started.elapsed();
    let pool = pool();
    replay(&inputs, &pool, None, true, None);
    (inputs, pool, parse, schedule)
}

/// Compares two passes of the same schedule: every count, latency
/// count and output must agree.
fn same_decisions(a: &Pass, b: &Pass) -> bool {
    (
        a.arrivals,
        a.admitted,
        a.rejected,
        a.retired,
        a.completed,
        a.handover_calls,
    ) == (
        b.arrivals,
        b.admitted,
        b.rejected,
        b.retired,
        b.completed,
        b.handover_calls,
    ) && a.outputs == b.outputs
}

/// Replays passes for `budget`, keeping the first pass and checking
/// that every later one repeats it exactly (later passes are dropped,
/// so memory does not grow with the pass count).
fn passes(
    inputs: &Inputs,
    pool: &Arc<Runtime>,
    budget: Duration,
    mut clock: Option<&mut HostClock>,
) -> Passes {
    let mut first: Option<Pass> = None;
    let mut repeatable = true;
    let mut latencies_ms = Vec::new();
    let mut pass_tails_ms = Vec::new();
    let mut arrivals = 0;
    let mut busy = Busy::default();
    let stats = closed_loop(budget, 1, usize::MAX, |_| {
        let pass = replay(inputs, pool, None, false, clock.as_deref_mut());
        busy += pass.busy;
        latencies_ms.extend_from_slice(&pass.latencies_ms);
        pass_tails_ms.push(tail(&pass.latencies_ms, TAIL_Q));
        arrivals += pass.arrivals;
        match &first {
            None => first = Some(pass),
            Some(f) => repeatable &= same_decisions(f, &pass),
        }
    });
    Passes {
        first: first.expect("at least one pass"),
        repeatable,
        latencies_ms,
        pass_tails_ms,
        arrivals,
        busy,
        stats,
    }
}

/// Every pass of one measurement loop, folded.
struct Passes {
    first: Pass,
    repeatable: bool,
    latencies_ms: Vec<f64>,
    /// Each pass's p99 latency, or why it has none.
    pass_tails_ms: Vec<Result<f64, String>>,
    arrivals: u64,
    busy: Busy,
    stats: LoopStats,
}

pub fn run(args: &Args) -> Result<Report, String> {
    pin_to_one_cpu()?;
    let mut clock = HostClock::default();
    let (setup_time, (inputs, pool, parse, schedule)) =
        repeated_setup(SETUP_REPS, &mut clock, || setup(args.seed));
    if args.trace {
        return Ok(traced(args, &inputs, &pool, parse, schedule));
    }
    let spent = clock.spent();
    let p = passes(&inputs, &pool, args.budget, Some(&mut clock));
    let v = verdict(&inputs, &p.first);
    let count = p.stats.units as u64;
    let tails = p.pass_tails_ms.into_iter().collect::<Result<Vec<_>, _>>()?;
    eprintln!(
        "serve_churn: {count} passes of {} arrivals: {} admitted, {} rejected, {} completed, {} retired; per-pass p99 {:.3?} ms",
        p.first.arrivals, p.first.admitted, p.first.rejected, p.first.completed, p.first.retired, tails
    );
    Ok(EndToEnd {
        setup: setup_time,
        busy: p.busy,
        cpu: p.stats.cpu.saturating_sub(clock.spent() - spent),
        ops: p.arrivals,
        latencies_ms: p.latencies_ms,
        tail_ms: median(&tails).expect("the loop replays at least one pass"),
        ok: v.ok * count,
        failed: v.failed * count,
        objective_mean: v.objective_mean,
        checks_hold: v.invariants_hold && p.repeatable,
    }
    .report())
}

/// Half the budget untraced, then one traced pass that must reproduce
/// the untraced passes' decisions and outputs exactly.
fn traced(
    args: &Args,
    inputs: &Inputs,
    pool: &Arc<Runtime>,
    parse: Duration,
    schedule: Duration,
) -> Report {
    let plain = passes(inputs, pool, args.budget / 2, None);

    let mut tracer = Tracer::default();
    fcr_telemetry::enable();
    fcr_telemetry::drain();
    let started = Instant::now();
    let pass = replay(inputs, pool, Some(&mut tracer), false, None);
    let wall = started.elapsed();
    fcr_telemetry::disable();

    let v = verdict(inputs, &pass);
    let repeatable = plain.repeatable && same_decisions(&plain.first, &pass);
    let ops = pass.arrivals as f64;
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops;
    let mut metrics = layer_metrics(&tracer, "slot", ops);
    metrics.extend([
        ("serve.admit_ratio", pass.admitted as f64 / ops),
        (
            "serve.windows_per_step",
            pass.windows_submitted as f64 / pass.steps as f64,
        ),
        ("serve.handover_calls", pass.handover_calls as f64 / ops),
        (
            "serve.wasted_window_ratio",
            (pass.jobs - pass.snapshot.windows_completed) as f64 / pass.jobs as f64,
        ),
        ("runtime.job_ms", per_op_ms(pass.job_us * 1000)),
        ("runtime.jobs", pass.jobs as f64 / ops),
        // The lockstep wait minus the pool work that ran inside it.
        (
            "runtime.dispatch_ms",
            per_op_ms(tracer.self_ns()["runtime.wait"]),
        ),
        ("scenario.parse_ms", parse.as_secs_f64() * 1e3),
        ("scenario.schedule_ms", schedule.as_secs_f64() * 1e3),
        (
            "telemetry.overhead",
            (ops / wall.as_secs_f64()) / (plain.arrivals as f64 / plain.stats.wall.as_secs_f64()),
        ),
    ]);
    tracer
        .write_jsonl(&args.trace_path())
        .expect("writing the span file");
    Report {
        correct: v.failed == 0 && v.invariants_hold && repeatable,
        attempted: plain.arrivals + pass.arrivals,
        failed: v.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: u64 = 200;

    fn short_inputs(seed: u64) -> Inputs {
        inputs(pack(&read_pack("pu_burst"), seed, SHORT))
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        assert_eq!(short_inputs(3).schedule, short_inputs(3).schedule);
        assert_ne!(short_inputs(3).schedule, short_inputs(4).schedule);
        // Every u64 seed is accepted.
        assert!(!short_inputs(u64::MAX).schedule.events.is_empty());
    }

    #[test]
    fn lockstep_replays_repeat_exactly() {
        let inputs = short_inputs(9);
        let pool = pool();
        let a = replay(&inputs, &pool, None, false, None);
        // A calibrated pass makes the same decisions.
        let b = replay(&inputs, &pool, None, false, Some(&mut HostClock::default()));
        assert!(a.arrivals > 50, "{} arrivals", a.arrivals);
        assert!(same_decisions(&a, &b));
        let (va, vb) = (verdict(&inputs, &a), verdict(&inputs, &b));
        assert_eq!(va, vb);
        assert!(va.invariants_hold && va.failed == 0 && va.ok > 0, "{va:?}");
        // The traced replay makes the same decisions.
        let mut tracer = Tracer::default();
        let c = replay(&inputs, &pool, Some(&mut tracer), false, None);
        assert!(same_decisions(&a, &c));
        assert_eq!(verdict(&inputs, &c), va);
    }
}
