//! Deterministic fault-injection suites: under seeded worker panics
//! and execution delays the sharded runtime must lose nothing, duplicate nothing, and reproduce the clean pool's PSNRs
//! bit for bit — on both engines.
//!
//! Seeds come from `PROPTEST_SEED` when set (CI's randomized pass) so
//! the chaos corpus itself re-randomizes per run, and every assertion
//! message carries the case seed for replay.

use fcr_runtime::{FaultEvent, FaultKind, FaultPlan, Runtime, RuntimeConfig};
use fcr_sim::{config::SimConfig, Scenario, Scheme, SimSession};
use fcr_testkit::faults::{standard_cases, verify_fluid_under_faults, verify_packet_under_faults};
use fcr_testkit::seeds::case_seed;
use fcr_testkit::CI_SEED;
use std::sync::Arc;
use std::time::Duration;

/// 3 runs × 4 GOPs = 12 window jobs per engine — exactly the span the
/// standard `FaultSpec` draws fault positions from, so every planned
/// fault fires (`pending == 0` is asserted by the harness).
fn workload() -> (SimConfig, Scenario, u64) {
    let cfg = SimConfig {
        gops: 4,
        deadline: 4,
        num_channels: 4,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    (cfg, scenario, 3)
}

fn base_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CI_SEED)
}

#[test]
fn fluid_results_are_invariant_under_every_standard_storm() {
    let (cfg, scenario, runs) = workload();
    let seed = case_seed("fault-fluid", base_seed());
    let mut names = Vec::new();
    for case in standard_cases(seed) {
        let verdict =
            verify_fluid_under_faults(&case, &cfg, &scenario, Scheme::Proposed, seed, runs);
        // The harness proved invariance; additionally require that the
        // storm actually did something.
        assert!(
            verdict.report.total_injected() > 0,
            "case {} fired no faults",
            case.name
        );
        names.push(verdict.case_name);
    }
    assert_eq!(names, vec!["panic-storm", "delay-storm", "mixed-chaos"]);
}

#[test]
fn packet_results_are_invariant_under_every_standard_storm() {
    let (cfg, scenario, runs) = workload();
    let seed = case_seed("fault-packet", base_seed());
    for case in standard_cases(seed) {
        let verdict =
            verify_packet_under_faults(&case, &cfg, &scenario, Scheme::Proposed, seed, runs);
        assert!(
            verdict.report.total_injected() > 0,
            "case {} fired no faults",
            case.name
        );
        assert_eq!(verdict.jobs_completed, verdict.user_jobs);
        assert_eq!(verdict.jobs_failed, verdict.report.panics_injected);
    }
}

#[test]
fn heuristic_schemes_share_the_invariance_contract() {
    // The contract is about the *runtime*, not the allocator: spot-check
    // a second scheme under the mixed storm on both engines.
    let (cfg, scenario, runs) = workload();
    let seed = case_seed("fault-heuristic", base_seed());
    let case = standard_cases(seed).pop().expect("mixed-chaos");
    verify_fluid_under_faults(&case, &cfg, &scenario, Scheme::Heuristic1, seed, runs);
    verify_packet_under_faults(&case, &cfg, &scenario, Scheme::Heuristic1, seed, runs);
}

#[test]
fn hand_built_plans_fire_at_exact_submission_indices() {
    // Panics before submissions 0 and 5 and a stall before execution
    // 2: the session must still complete every window.
    let (cfg, scenario, runs) = workload();
    let plan = FaultPlan::new(&[
        FaultEvent {
            at: 0,
            kind: FaultKind::WorkerPanic,
        },
        FaultEvent {
            at: 2,
            kind: FaultKind::Delay(Duration::from_millis(1)),
        },
        FaultEvent {
            at: 5,
            kind: FaultKind::WorkerPanic,
        },
    ]);
    let runtime = Arc::new(Runtime::with_faults(
        RuntimeConfig {
            workers: 2,
            queue_capacity: 64,
            ..RuntimeConfig::default()
        },
        plan,
    ));
    let baseline = SimSession::new(scenario.clone())
        .config(cfg)
        .seed(99)
        .runs(runs)
        .run(Scheme::Proposed)
        .results();
    let faulted = SimSession::new(scenario)
        .config(cfg)
        .seed(99)
        .runs(runs)
        .on_runtime(Arc::clone(&runtime))
        .run(Scheme::Proposed)
        .results();
    assert_eq!(baseline, faulted);
    let report = runtime.fault_report().expect("plan installed");
    assert_eq!(report.panics_injected, 2);
    assert_eq!(report.delays_injected, 1);
    assert_eq!(report.pending, 0);
}

#[test]
fn clean_runtimes_report_no_fault_plan() {
    let runtime = Runtime::with_config(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    assert!(runtime.fault_report().is_none());
}
