//! Property suite for mobility/handover churn: sessions are conserved
//! across handovers, the serve accounting identity (with the
//! handed-over term) holds on every transition, and FBS→MBS handovers
//! free and acquire budget units *exactly*.
//!
//! Seeds come from `PROPTEST_SEED` when set (CI's randomized pass);
//! every assertion message carries the case seed for replay.

use fcr_runtime::{Runtime, RuntimeConfig};
use fcr_scenario::{
    ArrivalSpec, ChurnDriver, ChurnSchedule, ChurnSpec, MobilitySpec, Pack, PuBurstSpec,
    TopologySpec,
};
use fcr_serve::{HandoverKind, HandoverOutcome, ServeConfig, Service};
use fcr_testkit::seeds::{case_seed, CI_SEED};
use std::sync::Arc;

fn base_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CI_SEED)
}

/// A smoke-scale churn pack derived from `seed`, guaranteed to carry
/// mobility and churn sections.
fn churn_pack(seed: u64) -> Pack {
    let mut pack = Pack::generate(seed);
    pack.topology = TopologySpec::PaperFig5 { users_per_fbs: 2 };
    pack.channel.gops = Some(1);
    pack.channel.deadline = Some(2);
    pack.channel.num_channels = Some(2);
    pack.runs = 1;
    // Steps of 12 m against fig-5's 28 m cells make all three
    // handover kinds common within a 25-slot horizon.
    pack.mobility = Some(MobilitySpec {
        step_m: 12.0,
        hysteresis_m: 2.0,
    });
    pack.churn = Some(ChurnSpec {
        slots: 25,
        arrivals: ArrivalSpec::Poisson { rate_per_slot: 0.7 },
        mean_hold_slots: 10.0,
        mbs_budget: 6.0,
        max_sessions: 32,
        pu_bursts: Some(PuBurstSpec {
            bursts: 2,
            mean_duration_slots: 5.0,
            utilization_boost: 0.1,
        }),
    });
    pack.validate().expect("churn pack valid");
    pack
}

fn small_service(budget: f64) -> Service {
    Service::new(
        ServeConfig {
            mbs_budget: budget,
            ..ServeConfig::default()
        },
        Arc::new(Runtime::with_config(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        })),
    )
}

/// Sessions are conserved through arbitrary churn + handover replay:
/// everyone who arrives is admitted or rejected; everyone admitted is
/// eventually retired, completed, or shed; the ledger drains to zero.
/// The extended accounting identity is asserted *inside* the service
/// on every admit/handover/retire/step this replay performs.
#[test]
fn sessions_are_conserved_across_mobility_churn() {
    for case in 0..3u64 {
        let seed = case_seed("mobility-churn", base_seed() ^ case);
        let pack = churn_pack(seed);
        let handovers_scheduled = ChurnSchedule::generate(&pack)
            .events
            .iter()
            .filter(|e| matches!(e.kind, fcr_scenario::ChurnEventKind::Handover { .. }))
            .count();
        assert!(
            handovers_scheduled > 0,
            "seed {seed}: churn pack scheduled no handovers — weaken nothing, fix the pack"
        );
        let service = small_service(pack.churn.expect("churn").mbs_budget);
        let report = ChurnDriver::run(&pack, &service);
        let snap = service.snapshot();
        assert_eq!(
            report.arrivals,
            report.admitted + report.rejected_admissions,
            "seed {seed}: every arrival is admitted or rejected"
        );
        assert_eq!(
            snap.admitted,
            snap.completed + snap.retired + snap.shed,
            "seed {seed}: admitted sessions all reach a terminal state"
        );
        assert_eq!(snap.active, 0, "seed {seed}: no session leaks past quiesce");
        assert_eq!(
            snap.mbs_in_use, 0.0,
            "seed {seed}: the budget ledger drains to zero"
        );
        assert_eq!(
            report.handovers_attempted,
            report.handovers_completed + report.handovers_rejected,
            "seed {seed}: every attempted handover resolves"
        );
        assert_eq!(
            snap.handovers_fbs_fbs + snap.handovers_fbs_mbs + snap.handovers_mbs_fbs,
            report.handovers_completed,
            "seed {seed}: service counters agree with the driver"
        );
    }
}

/// The shipped mobility/churn pack on a one-worker pool: the replay
/// outpaces the lone worker, so the final quiesce must wait for the
/// pool to drain however many steps that takes — and every session is
/// conserved.
#[test]
fn shipped_mobility_churn_conserves_sessions_on_one_worker() {
    let pack = fcr_scenario::shipped::named("mobility_churn").expect("shipped pack");
    let churn = pack.churn.expect("churn");
    let service = Service::new(
        ServeConfig {
            mbs_budget: churn.mbs_budget,
            max_sessions: churn.max_sessions as usize,
            ..ServeConfig::default()
        },
        Arc::new(Runtime::with_config(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        })),
    );
    let report = ChurnDriver::run(&pack, &service);
    let snap = service.snapshot();
    assert_eq!(
        report.arrivals,
        report.admitted + report.rejected_admissions
    );
    assert_eq!(snap.admitted, report.admitted);
    assert_eq!(
        snap.admitted,
        snap.completed + snap.retired + snap.shed,
        "admitted sessions all reach a terminal state"
    );
    assert_eq!((snap.active, snap.pending, snap.draining), (0, 0, 0));
    assert_eq!(snap.mbs_in_use, 0.0, "the budget ledger drains to zero");
}

/// The report counts every completion during the replay, not just the
/// outputs the service still buffers: with a one-output buffer and
/// holds that outlive the horizon, every admitted session completes
/// and is counted.
#[test]
fn churn_report_counts_completions_beyond_the_output_buffer() {
    let mut pack = fcr_scenario::shipped::named("pu_burst").expect("shipped pack");
    pack.mobility = None;
    pack.churn = Some(ChurnSpec {
        // A long horizon after a two-slot crowd: the pool finishes
        // every session long before the horizon retires survivors.
        slots: 200_000,
        arrivals: ArrivalSpec::FlashCrowd {
            base_rate: 0.0,
            burst_rate: 4.0,
            burst_start: 0,
            burst_slots: 2,
        },
        mean_hold_slots: 1e9,
        mbs_budget: 1e6,
        max_sessions: 32,
        pu_bursts: None,
    });
    pack.validate().expect("churn pack valid");
    let service = Service::new(
        ServeConfig {
            mbs_budget: 1e6,
            completed_buffer: 1,
            ..ServeConfig::default()
        },
        Arc::new(Runtime::with_config(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        })),
    );
    let report = ChurnDriver::run(&pack, &service);
    assert!(report.admitted >= 2, "the crowd must outnumber the buffer");
    assert_eq!(report.completed, report.admitted);
    assert_eq!(report.completed, service.snapshot().completed);
    assert_eq!(
        service.take_completed().len(),
        1,
        "the buffer keeps the newest output"
    );
}

/// Schedule-level conservation: each ordinal arrives exactly once and
/// retires exactly once, strictly later — under every generated seed.
#[test]
fn schedules_conserve_sessions_for_every_seed() {
    use fcr_scenario::ChurnEventKind;
    use std::collections::HashMap;
    for case in 0..8u64 {
        let seed = case_seed("churn-schedule", base_seed() ^ case);
        let pack = churn_pack(seed);
        let schedule = ChurnSchedule::generate(&pack);
        assert_eq!(
            schedule,
            ChurnSchedule::generate(&pack),
            "seed {seed}: schedule not a pure function of the pack"
        );
        let mut arrive: HashMap<u64, u64> = HashMap::new();
        let mut retire: HashMap<u64, u64> = HashMap::new();
        for e in &schedule.events {
            match e.kind {
                ChurnEventKind::Arrive { .. } => {
                    assert!(
                        arrive.insert(e.ordinal, e.slot).is_none(),
                        "seed {seed}: ordinal {} arrives twice",
                        e.ordinal
                    );
                }
                ChurnEventKind::Retire => {
                    assert!(
                        retire.insert(e.ordinal, e.slot).is_none(),
                        "seed {seed}: ordinal {} retires twice",
                        e.ordinal
                    );
                }
                ChurnEventKind::Handover { .. } => {}
            }
        }
        assert_eq!(
            arrive.len() as u64,
            schedule.sessions,
            "seed {seed}: session count mismatch"
        );
        assert_eq!(
            retire.len(),
            arrive.len(),
            "seed {seed}: arrivals and retires must pair up"
        );
        for (ordinal, at) in &arrive {
            assert!(
                retire[ordinal] > *at,
                "seed {seed}: ordinal {ordinal} retires at or before arrival"
            );
        }
    }
}

/// The FBS→MBS ledger swap is *exact* in integer budget units: after
/// the handover the in-use ledger equals the macro claim to the unit,
/// and the return trip restores the femto claim to the unit.
#[test]
fn budget_units_swap_exactly_on_macro_handover() {
    let seed = case_seed("budget-swap", base_seed());
    let pack = churn_pack(seed);
    let scenario = Arc::new(pack.scenario());
    let spec = pack.session_spec(&scenario, 0);
    let femto_claim = Service::estimate_demand(&spec);
    let macro_demand =
        ChurnDriver::handover_demand(&pack, &scenario, 0, HandoverKind::FbsToMbs, 1.0);
    let service = small_service(femto_claim + macro_demand + 1.0);
    let id = spec_admit(&service, spec);

    let before = service.snapshot().mbs_in_use;
    let HandoverOutcome::Completed {
        old_demand,
        new_demand,
    } = service.handover(id, macro_demand, HandoverKind::FbsToMbs)
    else {
        panic!("seed {seed}: macro fallback must fit the constructed budget");
    };
    let after = service.snapshot().mbs_in_use;
    // Unit-exact: freed exactly the old claim, acquired exactly the
    // new one — both as the service quantized them.
    assert_eq!(
        before, old_demand,
        "seed {seed}: old claim echoes the ledger"
    );
    assert_eq!(
        after, new_demand,
        "seed {seed}: ledger holds exactly the new claim"
    );
    assert_eq!(service.session_demand(id), Some(new_demand), "seed {seed}");

    // The return trip restores the femto claim to the unit.
    assert!(service
        .handover(id, femto_claim, HandoverKind::MbsToFbs)
        .completed());
    assert_eq!(
        service.snapshot().mbs_in_use,
        before,
        "seed {seed}: round trip must restore the original ledger value"
    );
    service.retire(id);
    service.quiesce();
    assert_eq!(service.snapshot().mbs_in_use, 0.0, "seed {seed}");
}

fn spec_admit(service: &Service, spec: fcr_serve::SessionSpec) -> fcr_serve::SessionId {
    match service.admit(spec) {
        fcr_serve::AdmitOutcome::Admitted(id) => id,
        fcr_serve::AdmitOutcome::Rejected(r) => panic!("admission rejected: {r}"),
    }
}

/// Handovers on the live service never change what a session computes:
/// after a churn replay every completed session's outputs are
/// bit-identical to the batch path with the same spec.
///
/// Retire events are *skipped* in this replay — slot steps run far
/// faster than pool jobs, so honouring them would retire everything
/// before any window lands and leave nothing to compare. With sessions
/// living to completion, every scheduled handover still lands on a
/// live session.
#[test]
fn handed_over_outputs_stay_bit_identical_to_batch() {
    let seed = case_seed("churn-bit-identity", base_seed());
    let pack = churn_pack(seed);
    let service = small_service(pack.churn.expect("churn").mbs_budget);
    let schedule = ChurnSchedule::generate(&pack);
    let scenario = Arc::new(pack.scenario());
    // Replay manually so the retire events can be skipped.
    let mut ids = std::collections::HashMap::new();
    let mut specs = std::collections::HashMap::new();
    let mut cursor = 0usize;
    let mut handovers = 0u64;
    let slots = pack.churn.expect("churn").slots;
    for slot in 0..=slots {
        while cursor < schedule.events.len() && schedule.events[cursor].slot == slot {
            let e = schedule.events[cursor];
            cursor += 1;
            match e.kind {
                fcr_scenario::ChurnEventKind::Arrive { during_pu_burst } => {
                    let spec = ChurnDriver::spec_for(&pack, &scenario, e.ordinal, during_pu_burst);
                    if let fcr_serve::AdmitOutcome::Admitted(id) = service.admit(spec.clone()) {
                        ids.insert(e.ordinal, id);
                        specs.insert(id.0, spec);
                    }
                }
                fcr_scenario::ChurnEventKind::Handover {
                    kind,
                    demand_factor,
                    ..
                } => {
                    if let Some(&id) = ids.get(&e.ordinal) {
                        let demand = ChurnDriver::handover_demand(
                            &pack,
                            &scenario,
                            e.ordinal,
                            kind,
                            demand_factor,
                        );
                        if service.handover(id, demand, kind).completed() {
                            handovers += 1;
                        }
                    }
                }
                fcr_scenario::ChurnEventKind::Retire => {}
            }
        }
        service.step();
    }
    service.quiesce();
    let completed = service.take_completed();
    assert!(
        !completed.is_empty(),
        "seed {seed}: churn replay completed no sessions"
    );
    assert!(
        handovers > 0,
        "seed {seed}: no handover landed on a live session"
    );
    for done in completed {
        let spec = &specs[&done.id.0];
        let batch = fcr_sim::SimSession::new((*spec.scenario).clone())
            .config(spec.config)
            .seed(spec.seed)
            .runs(spec.base_runs)
            .run(spec.scheme);
        for (run, output) in done
            .outputs
            .iter()
            .take(spec.base_runs as usize)
            .enumerate()
        {
            let served = output
                .as_ref()
                .unwrap_or_else(|| panic!("seed {seed}: base run {run} missing"));
            assert_eq!(
                served.result.per_user_psnr,
                batch.results()[run].per_user_psnr,
                "seed {seed}: session {} run {run} diverged from batch",
                done.id.0
            );
        }
    }
}
