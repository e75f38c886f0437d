//! Serve-path chaos harness: churn storms through
//! [`fcr_serve::Service`] on a faulted pool.
//!
//! The batch harness ([`crate::faults`]) proves the *engine's* numbers
//! are fault-invariant. This module proves the same for the always-on
//! service: under seeded worker panics and execution delays, a
//! `Service` with live session churn (admissions,
//! mid-flight retirements, replacement admissions) must
//!
//! * keep the accounting identity exact — `admitted == completed +
//!   retired + shed`, with nothing lost and nothing double-counted;
//! * finish with `pending == 0` and an empty active set;
//! * contain every injected panic (failed pool jobs equal injected
//!   chaos panics, one for one — window jobs never fail);
//! * deliver every completed session's outputs **bit-identical** to
//!   the batch [`fcr_sim::SimSession`] path with the same seed.
//!
//! Every assertion message carries the case name and seed for replay.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use fcr_runtime::{FaultReport, Runtime};
use fcr_serve::{AdmitOutcome, ServeConfig, Service, SessionId, SessionSpec};
use fcr_sim::{config::SimConfig, Scenario, Scheme, SimSession};

use crate::faults::FaultCase;
use crate::seeds::splitmix64;

/// What the serve-path chaos run observed.
#[derive(Debug, Clone)]
pub struct ServeStormVerdict {
    /// The case that ran.
    pub case_name: &'static str,
    /// Its seed (replay key).
    pub seed: u64,
    /// The fault plan's own accounting after the run.
    pub report: FaultReport,
    /// Sessions admitted over the storm (initial population plus
    /// churn replacements).
    pub admitted: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions retired mid-flight by the churn schedule.
    pub retired: u64,
    /// Completed sessions whose outputs were verified bit-identical
    /// to the batch path.
    pub outputs_verified: u64,
}

macro_rules! storm_assert {
    ($case:expr, $cond:expr, $($msg:tt)+) => {
        assert!(
            $cond,
            "[serve storm {} seed {:#x}] {}",
            $case.name,
            $case.seed,
            format!($($msg)+),
        )
    };
}

/// Waits until the faulted pool has accounted for every accepted job
/// (chaos jobs submitted alongside the service's windows included).
fn drain_pool(case: &FaultCase, runtime: &Runtime) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let m = runtime.metrics().snapshot();
        if m.queue_depth == 0
            && m.jobs_in_flight == 0
            && m.jobs_submitted == m.jobs_completed + m.jobs_failed
        {
            return;
        }
        storm_assert!(
            case,
            std::time::Instant::now() < deadline,
            "faulted pool failed to drain: {m:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs a churn storm through a [`Service`] on `case`'s faulted pool
/// and asserts the serve-path invariance contract.
///
/// `sessions` is the initial population; roughly a third of it is
/// retired mid-flight and replaced, so total admissions exceed it.
/// Each session runs one base and one enhancement run of `cfg` under
/// `scheme`, seeded from `master_seed` so the whole storm replays.
pub fn verify_serve_under_faults(
    case: &FaultCase,
    cfg: &SimConfig,
    scenario: &Scenario,
    scheme: Scheme,
    master_seed: u64,
    sessions: u64,
) -> ServeStormVerdict {
    let runtime = Arc::new(case.runtime());
    let service = Service::new(
        ServeConfig {
            // Ample budget and no shedding horizon: the storm must be
            // deterministic in *what* completes (the ladder's timing-
            // dependent shedding is exercised by the serve crate's own
            // tests), chaotic only in *how* it executes.
            mbs_budget: sessions as f64 * 4.0 + 4.0,
            max_sessions: sessions as usize * 4 + 4,
            shed_after: u64::MAX / 2,
            completed_buffer: sessions as usize * 4 + 4,
            ..ServeConfig::default()
        },
        Arc::clone(&runtime),
    );
    let scenario = Arc::new(scenario.clone());
    let spec = |seed: u64| {
        SessionSpec::new(Arc::clone(&scenario), *cfg)
            .scheme(scheme)
            .seed(seed)
            .base_runs(1)
            .enhancement_runs(1)
    };

    // Initial population, one splitmix64-derived seed per session.
    let mut session_seed: BTreeMap<SessionId, u64> = BTreeMap::new();
    let mut admit = |service: &Service, i: u64| -> SessionId {
        let mut state = master_seed ^ (0xA5A5_0000 + i);
        let seed = splitmix64(&mut state);
        match service.admit(spec(seed)) {
            AdmitOutcome::Admitted(id) => {
                session_seed.insert(id, seed);
                id
            }
            AdmitOutcome::Rejected(reason) => {
                panic!(
                    "[serve storm {} seed {:#x}] admission rejected: {reason}",
                    case.name, case.seed
                )
            }
        }
    };
    let initial: Vec<SessionId> = (0..sessions).map(|i| admit(&service, i)).collect();

    // Let the first windows ship, then churn: retire every third
    // session mid-flight (those already completed return false and
    // stay completed) and admit one replacement per retirement.
    for _ in 0..3 {
        service.step();
    }
    let mut retired_now = 0u64;
    for (i, id) in initial.iter().enumerate() {
        if i % 3 == 0 && service.retire(*id) {
            retired_now += 1;
            admit(&service, sessions + retired_now);
        }
    }
    service.quiesce();
    let done = service.take_completed();
    drain_pool(case, &runtime);

    // --- Service-side accounting. ---
    let snap = service.snapshot();
    storm_assert!(case, snap.accounting_holds(), "accounting identity broken");
    storm_assert!(
        case,
        snap.active == 0 && snap.pending == 0 && snap.draining == 0,
        "service not quiescent: active {} pending {} draining {}",
        snap.active,
        snap.pending,
        snap.draining
    );
    storm_assert!(case, snap.shed == 0, "{} sessions shed", snap.shed);
    storm_assert!(
        case,
        snap.admitted == snap.completed + snap.retired,
        "session lost or double-counted: {} admitted vs {} completed + {} retired",
        snap.admitted,
        snap.completed,
        snap.retired
    );
    storm_assert!(
        case,
        done.len() as u64 == snap.completed && snap.completed_dropped == 0,
        "completed outputs lost: {} buffered vs {} counted ({} dropped)",
        done.len(),
        snap.completed,
        snap.completed_dropped
    );

    // --- Pool-side containment. ---
    let report = runtime
        .fault_report()
        .expect("faulted runtime reports its plan");
    let m = runtime.metrics().snapshot();
    storm_assert!(
        case,
        m.jobs_failed == report.panics_injected,
        "containment leak: {} failed jobs vs {} injected panics",
        m.jobs_failed,
        report.panics_injected
    );
    storm_assert!(
        case,
        snap.windows_retried == 0,
        "chaos panics must be contained, not charged to windows ({} retried)",
        snap.windows_retried
    );
    storm_assert!(
        case,
        report.pending == 0,
        "{} planned faults never fired (size the storm to the workload)",
        report.pending
    );

    // --- Bit-identity of every completed session vs. the batch path. ---
    let mut outputs_verified = 0u64;
    for session in &done {
        let seed = session_seed[&session.id];
        storm_assert!(
            case,
            !session.degraded,
            "session {:?} degraded under an ample config",
            session.id
        );
        let batch = SimSession::new((*scenario).clone())
            .config(*cfg)
            .seed(seed)
            .runs(2)
            .run(scheme);
        storm_assert!(
            case,
            session.outputs.len() == 2,
            "session {:?} returned {} runs, expected 2",
            session.id,
            session.outputs.len()
        );
        for (r, output) in session.outputs.iter().enumerate() {
            let served = output.as_ref().unwrap_or_else(|| {
                panic!(
                    "[serve storm {} seed {:#x}] session {:?} run {r} missing",
                    case.name, case.seed, session.id
                )
            });
            let direct = batch.outcomes()[r].as_ref().expect("batch run ok");
            storm_assert!(
                case,
                served.result == direct.result,
                "session {:?} run {r} diverged from the batch path",
                session.id
            );
        }
        outputs_verified += 1;
    }

    ServeStormVerdict {
        case_name: case.name,
        seed: case.seed,
        report,
        admitted: snap.admitted,
        completed: snap.completed,
        retired: snap.retired,
        outputs_verified,
    }
}
