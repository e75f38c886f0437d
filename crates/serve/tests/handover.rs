//! Handover edges: the ledger swap must be atomic and exact, the
//! serving-side state machine must reject impossible transitions, an
//! over-budget macro fallback must leave everything untouched, and the
//! extended accounting identity must hold across every transition.

use fcr_runtime::{Runtime, RuntimeConfig};
use fcr_serve::{
    AdmitOutcome, HandoverKind, HandoverOutcome, HandoverReject, ServeConfig, Service, SessionId,
    SessionSpec,
};
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
fn fbs_to_mbs_swaps_the_claim_exactly_and_back() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    let service = service_with_budget(demand * 10.0);
    let id = service.admit(spec(&scenario, cfg, 1)).expect_admitted();
    let femto_claim = service.session_demand(id).expect("active");
    assert_eq!(service.session_on_mbs(id), Some(false));

    // Macro fallback at 3x the femto claim: the ledger must move by
    // exactly the difference and the serving side must flip.
    let macro_demand = demand * 3.0;
    let outcome = service.handover(id, macro_demand, HandoverKind::FbsToMbs);
    let HandoverOutcome::Completed {
        old_demand,
        new_demand,
    } = outcome
    else {
        panic!("macro fallback within budget must complete: {outcome:?}");
    };
    assert_eq!(old_demand, femto_claim, "old claim echoes the admission");
    assert_eq!(service.session_on_mbs(id), Some(true));
    assert_eq!(service.session_demand(id), Some(new_demand));
    assert_eq!(service.snapshot().mbs_in_use, new_demand);
    assert_eq!(service.snapshot().handovers_fbs_mbs, 1);
    assert_eq!(service.snapshot().active_on_mbs, 1);

    // Walking back into femto coverage frees the macro claim again —
    // the round trip restores the original ledger value exactly.
    service
        .handover(id, femto_claim, HandoverKind::MbsToFbs)
        .completed()
        .then_some(())
        .expect("return handover fits by construction");
    assert_eq!(service.session_on_mbs(id), Some(false));
    assert_eq!(service.session_demand(id), Some(femto_claim));
    assert_eq!(service.snapshot().mbs_in_use, femto_claim);
    assert_eq!(service.snapshot().active_on_mbs, 0);

    service.retire(id);
    service.quiesce();
    assert_eq!(service.snapshot().mbs_in_use, 0.0, "ledger drains to zero");
}

#[test]
fn over_budget_macro_fallback_rejects_and_changes_nothing() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    // Room for the session but not for a 5x macro fallback.
    let service = service_with_budget(demand * 2.0);
    let id = service.admit(spec(&scenario, cfg, 1)).expect_admitted();
    let before = service.snapshot();

    let outcome = service.handover(id, demand * 5.0, HandoverKind::FbsToMbs);
    match outcome {
        HandoverOutcome::Rejected(HandoverReject::OverBudget {
            demand: d,
            available,
        }) => {
            assert!(
                d > available + demand,
                "must not fit even recycling the old claim"
            );
        }
        other => panic!("expected over-budget rejection, got {other:?}"),
    }
    let after = service.snapshot();
    assert_eq!(after.mbs_in_use, before.mbs_in_use, "ledger untouched");
    assert_eq!(
        service.session_on_mbs(id),
        Some(false),
        "still femto-served"
    );
    assert_eq!(after.handovers_rejected, 1);
    assert_eq!(after.handovers_fbs_mbs, 0);
    service.retire(id);
    service.quiesce();
}

#[test]
fn a_demand_decrease_always_fits_even_at_full_budget() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    // Budget exactly one session: the ledger is full after admission.
    let service = service_with_budget(demand);
    let id = service.admit(spec(&scenario, cfg, 1)).expect_admitted();
    // An FBS→FBS move to a *better* cell shrinks the claim; the swap
    // recycles the old claim so this must succeed with zero headroom.
    let outcome = service.handover(id, demand * 0.5, HandoverKind::FbsToFbs);
    assert!(
        outcome.completed(),
        "decrease rejected at full budget: {outcome:?}"
    );
    assert_eq!(service.snapshot().handovers_fbs_fbs, 1);
    // And the freed half-claim is immediately admissible capacity.
    let second = service.admit(spec(&scenario, cfg, 2));
    assert!(
        matches!(second, AdmitOutcome::Rejected(_)),
        "a full-demand session still must not fit half a budget"
    );
    service.retire(id);
    service.quiesce();
}

#[test]
fn wrong_serving_side_is_rejected_without_state_change() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    let service = service_with_budget(demand * 10.0);
    let id = service.admit(spec(&scenario, cfg, 1)).expect_admitted();

    // Femto-served: a "return from macro" handover is impossible.
    match service.handover(id, demand, HandoverKind::MbsToFbs) {
        HandoverOutcome::Rejected(HandoverReject::WrongCell { on_mbs: false }) => {}
        other => panic!("expected WrongCell, got {other:?}"),
    }
    // Macro-served: femto-side kinds are impossible.
    assert!(service
        .handover(id, demand * 2.0, HandoverKind::FbsToMbs)
        .completed());
    for kind in [HandoverKind::FbsToFbs, HandoverKind::FbsToMbs] {
        match service.handover(id, demand, kind) {
            HandoverOutcome::Rejected(HandoverReject::WrongCell { on_mbs: true }) => {}
            other => panic!("expected WrongCell for {kind:?}, got {other:?}"),
        }
    }
    assert_eq!(service.snapshot().handovers_rejected, 3);
    service.retire(id);
    service.quiesce();
}

#[test]
fn handover_on_inactive_sessions_is_not_active() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    let service = service_with_budget(demand * 10.0);
    assert_eq!(
        service.handover(SessionId(999), demand, HandoverKind::FbsToFbs),
        HandoverOutcome::NotActive
    );
    let id = service.admit(spec(&scenario, cfg, 1)).expect_admitted();
    service.retire(id);
    assert_eq!(
        service.handover(id, demand, HandoverKind::FbsToFbs),
        HandoverOutcome::NotActive,
        "retired sessions cannot hand over"
    );
    service.quiesce();
}

#[test]
fn handed_over_sessions_complete_with_batch_identical_outputs() {
    // A handover moves the budget claim, never the simulation: the
    // session's outputs must stay bit-identical to the batch path.
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    let service = service_with_budget(demand * 10.0);
    let id = service.admit(spec(&scenario, cfg, 7)).expect_admitted();
    assert!(service
        .handover(id, demand * 2.0, HandoverKind::FbsToMbs)
        .completed());
    service.quiesce();
    let completed = service.take_completed();
    assert_eq!(completed.len(), 1);
    let served = completed[0].outputs[0].as_ref().expect("base run output");

    let batch = fcr_sim::SimSession::new(Scenario::single_fbs(&cfg))
        .config(cfg)
        .seed(7)
        .runs(1)
        .run(fcr_sim::Scheme::Proposed);
    assert_eq!(
        served.result.per_user_psnr,
        batch.results()[0].per_user_psnr,
        "handover must not perturb simulation output"
    );
}

/// In lockstep (each step's windows finish before the next), a session
/// completes in the step that collects its last window, two slots
/// after admission, long before its playout ends. Held for its
/// playout, it stays active, hands over and keeps its claim until
/// `gops × deadline` slots have passed, then completes.
#[test]
fn a_session_held_for_its_playout_stays_active_to_hand_over() {
    let cfg = SimConfig {
        gops: 3,
        ..tiny_cfg()
    };
    let playout = cfg.total_slots();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let demand = Service::estimate_demand(&spec(&scenario, cfg, 1));
    for hold_for_playout in [false, true] {
        let service = Service::new(
            ServeConfig {
                mbs_budget: demand * 10.0,
                hold_for_playout,
                ..ServeConfig::default()
            },
            Arc::new(Runtime::with_config(RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            })),
        );
        let id = service.admit(spec(&scenario, cfg, 1)).expect_admitted();
        let mut completed_at = None;
        for slot in 1..=playout + 1 {
            if slot == 3 {
                let handed = service.handover(id, demand, HandoverKind::FbsToFbs);
                assert_eq!(handed.completed(), hold_for_playout, "{handed:?}");
            }
            let report = service.step();
            service.wait_for_windows();
            if report.completed.contains(&id) {
                completed_at = Some(slot);
            }
        }
        let want = if hold_for_playout { playout } else { 2 };
        assert_eq!(completed_at, Some(want), "hold {hold_for_playout}");
        assert_eq!(service.snapshot().mbs_in_use, 0.0);
        service.quiesce();
    }
}
