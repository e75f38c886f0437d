//! Admission-control edges: the eq.-(12) MBS budget must admit
//! exactly at the boundary, reject ε over it, free capacity on
//! retirement and completion, and enforce the concurrency watermark —
//! with every rejection explicit and typed.

use fcr_runtime::{Runtime, RuntimeConfig};
use fcr_serve::{AdmitOutcome, RejectReason, ServeConfig, Service, SessionSpec, ADMIT_EPS};
use fcr_sim::config::SimConfig;
use fcr_sim::Scenario;
use std::sync::Arc;

fn tiny_cfg() -> SimConfig {
    SimConfig {
        gops: 1,
        deadline: 2,
        num_channels: 2,
        ..SimConfig::default()
    }
}

fn spec(scenario: &Arc<Scenario>, cfg: SimConfig, seed: u64) -> SessionSpec {
    SessionSpec::new(Arc::clone(scenario), cfg).seed(seed)
}

fn service_with_budget(budget: f64) -> Service {
    let runtime = Arc::new(Runtime::with_config(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    }));
    Service::new(
        ServeConfig {
            mbs_budget: budget,
            ..ServeConfig::default()
        },
        runtime,
    )
}

#[test]
fn budget_admits_exactly_k_sessions_and_rejects_the_k_plus_first() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    assert!(demand > 0.0, "a session must cost MBS budget");

    // Identical specs cost identical demand, so k * demand admits
    // exactly k — the boundary admission is the k-th.
    let k = 3;
    let service = service_with_budget(demand * k as f64);
    for i in 0..k {
        match service.admit(spec(&scenario, cfg, 1)) {
            AdmitOutcome::Admitted(_) => {}
            AdmitOutcome::Rejected(reason) => panic!("session {i} rejected: {reason}"),
        }
    }
    match service.admit(spec(&scenario, cfg, 1)) {
        AdmitOutcome::Admitted(_) => panic!("k+1-th session must be over budget"),
        AdmitOutcome::Rejected(RejectReason::OverBudget {
            demand: d,
            available,
        }) => {
            assert!(
                d > available,
                "rejection must report demand {d} > available {available}"
            );
        }
        AdmitOutcome::Rejected(other) => panic!("wrong rejection: {other}"),
    }
    let snap = service.snapshot();
    assert_eq!(snap.admitted, k);
    assert_eq!(snap.rejected_budget, 1);
    assert_eq!(snap.rejected_capacity, 0);
    assert!((snap.mbs_in_use - demand * k as f64).abs() < 1e-9);
}

#[test]
fn epsilon_over_the_budget_is_rejected() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));

    // A budget of exactly one demand admits the boundary session...
    let service = service_with_budget(demand);
    assert!(matches!(
        service.admit(spec(&scenario, cfg, 1)),
        AdmitOutcome::Admitted(_)
    ));

    // ...but a budget even 1e-6 short of it rejects (well outside the
    // ADMIT_EPS float tolerance).
    let shy = service_with_budget(demand - 1e-6);
    const { assert!(1e-6 > ADMIT_EPS, "test epsilon must exceed the tolerance") };
    match shy.admit(spec(&scenario, cfg, 1)) {
        AdmitOutcome::Rejected(RejectReason::OverBudget { .. }) => {}
        other => panic!("ε-over admission must reject, got {other:?}"),
    }
}

#[test]
fn retirement_frees_budget_for_readmission() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    let service = service_with_budget(demand); // room for exactly one

    let first = match service.admit(spec(&scenario, cfg, 1)) {
        AdmitOutcome::Admitted(id) => id,
        AdmitOutcome::Rejected(reason) => panic!("first admission rejected: {reason}"),
    };
    assert!(matches!(
        service.admit(spec(&scenario, cfg, 2)),
        AdmitOutcome::Rejected(RejectReason::OverBudget { .. })
    ));

    // Retiring the incumbent frees its share immediately.
    assert!(service.retire(first));
    assert!(matches!(
        service.admit(spec(&scenario, cfg, 2)),
        AdmitOutcome::Admitted(_)
    ));

    // ...and natural completion frees it too.
    service.quiesce();
    assert_eq!(service.snapshot().mbs_in_use, 0.0);
    assert!(matches!(
        service.admit(spec(&scenario, cfg, 3)),
        AdmitOutcome::Admitted(_)
    ));
    service.quiesce();
    let snap = service.snapshot();
    assert!(snap.accounting_holds(), "{snap:?}");
    assert_eq!(snap.admitted, 3);
    assert_eq!(snap.completed, 2);
    assert_eq!(snap.retired, 1);
}

#[test]
fn boundary_admission_survives_many_admit_retire_cycles() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));

    // Budget for exactly two sessions; one stays pinned active so the
    // ledger never drains to zero (the idle snap can't mask drift).
    let service = service_with_budget(demand * 2.0);
    let pinned = match service.admit(spec(&scenario, cfg, 1)) {
        AdmitOutcome::Admitted(id) => id,
        AdmitOutcome::Rejected(reason) => panic!("pinned session rejected: {reason}"),
    };
    let in_use_after_pin = service.snapshot().mbs_in_use;

    // Churn the second, boundary-exact slot. Before the fixed-point
    // ledger, each free re-added float dust to `mbs_in_use`; after
    // enough cycles the drift crossed ADMIT_EPS and the boundary
    // session flipped to Rejected.
    for cycle in 0..200 {
        let churned = match service.admit(spec(&scenario, cfg, 2)) {
            AdmitOutcome::Admitted(id) => id,
            AdmitOutcome::Rejected(reason) => {
                panic!("boundary session rejected on cycle {cycle}: {reason}")
            }
        };
        assert!(service.retire(churned));
        let in_use = service.snapshot().mbs_in_use;
        assert!(
            in_use == in_use_after_pin,
            "ledger drifted by cycle {cycle}: {in_use} != {in_use_after_pin}"
        );
    }

    assert!(service.retire(pinned));
    assert_eq!(service.snapshot().mbs_in_use, 0.0);
}

#[test]
fn the_concurrency_watermark_rejects_independently_of_budget() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let runtime = Arc::new(Runtime::with_config(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    }));
    let service = Service::new(
        ServeConfig {
            mbs_budget: 1e12,
            max_sessions: 2,
            ..ServeConfig::default()
        },
        runtime,
    );
    for seed in [1, 2] {
        assert!(matches!(
            service.admit(spec(&scenario, cfg, seed)),
            AdmitOutcome::Admitted(_)
        ));
    }
    match service.admit(spec(&scenario, cfg, 3)) {
        AdmitOutcome::Rejected(RejectReason::AtCapacity { active, max }) => {
            assert_eq!((active, max), (2, 2));
        }
        other => panic!("watermark must reject, got {other:?}"),
    }
    assert_eq!(service.snapshot().rejected_capacity, 1);
}
