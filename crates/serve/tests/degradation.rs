//! The degradation ladder, stage by stage, on a deliberately starved
//! pool: defer first, shed enhancement-layer work second (the session
//! completes degraded), shed the whole session last — and only after
//! its enhancement is already gone. Nothing disappears silently:
//! every stage is counted and the accounting identity holds
//! throughout.

use fcr_runtime::{Priority, Runtime, RuntimeConfig};
use fcr_serve::{AdmitOutcome, ServeConfig, Service, SessionSpec};
use fcr_sim::config::SimConfig;
use fcr_sim::{Scenario, Scheme, SimSession};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tiny_cfg() -> SimConfig {
    SimConfig {
        gops: 1,
        deadline: 1,
        num_channels: 2,
        ..SimConfig::default()
    }
}

/// A 1-worker, 1-slot-queue pool whose single worker is parked on a
/// blocker job until `release` flips — submissions deterministically
/// hit backpressure.
fn starved_pool(release: &Arc<AtomicBool>) -> Arc<Runtime> {
    let runtime = Arc::new(Runtime::with_config(RuntimeConfig {
        workers: 1,
        queue_capacity: 1,
        ..RuntimeConfig::default()
    }));
    let started = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&started);
    let gate = Arc::clone(release);
    runtime
        .try_spawn_with(Priority::urgent(), move || {
            flag.store(true, Ordering::Release);
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
            }
        })
        .unwrap_or_else(|_| panic!("blocker must be accepted by an empty pool"));
    // Wait until the blocker is *running* (not queued) so the queue
    // slot is free and submission behaviour is deterministic.
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    runtime
}

fn ladder_config() -> ServeConfig {
    ServeConfig {
        mbs_budget: 1e12,
        shed_after: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn stage_two_sheds_enhancement_and_the_session_completes_degraded() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let release = Arc::new(AtomicBool::new(false));
    let runtime = starved_pool(&release);
    let service = Service::new(ladder_config(), Arc::clone(&runtime));

    let seed = 42;
    let id = match service.admit(
        SessionSpec::new(Arc::clone(&scenario), cfg)
            .seed(seed)
            .base_runs(1)
            .enhancement_runs(1),
    ) {
        AdmitOutcome::Admitted(id) => id,
        AdmitOutcome::Rejected(reason) => panic!("rejected: {reason}"),
    };

    // Step 1: the base window takes the only queue slot; the
    // enhancement window is deferred (ladder stage 1).
    let report = service.step();
    assert_eq!(report.submitted, 1, "base window must claim the queue slot");
    assert!(report.deferred >= 1, "enhancement must be deferred");
    assert_eq!(service.snapshot().enhancement_runs_shed, 0);

    // Steps 2–3: still within the shed horizon — defer, don't shed.
    for _ in 0..2 {
        service.step();
    }
    let snap = service.snapshot();
    assert_eq!(snap.enhancement_runs_shed, 0, "shed before the horizon");
    assert!(snap.deferrals >= 3);

    // Step 4: the enhancement window is now overdue past `shed_after`
    // — stage 2 sheds it. The session survives (base is in flight),
    // nothing else is shed.
    service.step();
    let snap = service.snapshot();
    assert_eq!(
        snap.enhancement_runs_shed, 1,
        "stage 2 engages at the horizon"
    );
    assert_eq!(snap.degraded_sessions, 1);
    assert_eq!(snap.shed, 0, "the session itself must survive stage 2");
    assert_eq!(snap.active, 1);

    // Un-starve the pool: the base window runs, the session completes
    // — degraded, loudly, with the base output intact and bit-identical
    // to the batch path.
    release.store(true, Ordering::Release);
    service.quiesce();
    let done = service.take_completed();
    assert_eq!(done.len(), 1);
    let session = &done[0];
    assert_eq!(session.id, id);
    assert!(session.degraded);
    assert_eq!(session.outputs.len(), 2);
    assert!(session.outputs[1].is_none(), "shed enhancement yields None");
    let batch = SimSession::new((*scenario).clone())
        .config(cfg)
        .seed(seed)
        .runs(1)
        .run(Scheme::Proposed);
    assert_eq!(
        session.outputs[0].as_ref().expect("base output").result,
        batch.outcomes()[0].as_ref().expect("batch run ok").result,
        "degraded completion must not corrupt the base layer"
    );

    let snap = service.snapshot();
    assert!(snap.accounting_holds(), "{snap:?}");
    assert_eq!((snap.completed, snap.shed, snap.pending), (1, 0, 0));
}

#[test]
fn stage_three_sheds_the_session_only_after_its_enhancement() {
    let cfg = tiny_cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let release = Arc::new(AtomicBool::new(false));
    let runtime = starved_pool(&release);
    // Fill the single queue slot too: *nothing* the service submits
    // can be accepted until release.
    let gate = Arc::clone(&release);
    let filler = runtime
        .try_spawn_with(Priority::urgent(), move || {
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
            }
        })
        .unwrap_or_else(|_| panic!("filler must fit the empty queue slot"));
    let service = Service::new(ladder_config(), Arc::clone(&runtime));

    let id = match service.admit(
        SessionSpec::new(Arc::clone(&scenario), cfg)
            .seed(9)
            .base_runs(1)
            .enhancement_runs(1),
    ) {
        AdmitOutcome::Admitted(id) => id,
        AdmitOutcome::Rejected(reason) => panic!("rejected: {reason}"),
    };

    // Steps 1–3: pure deferral, both windows rejected every step.
    for _ in 0..3 {
        let report = service.step();
        assert_eq!(report.submitted, 0);
        assert!(report.deferred >= 1);
        assert!(report.shed.is_empty());
    }
    let snap = service.snapshot();
    assert_eq!((snap.shed, snap.enhancement_runs_shed), (0, 0));

    // Step 4: past the horizon. The base window condemns the session,
    // but the ladder sheds its enhancement run first (stage 2) and
    // only then the session itself (stage 3) — both visible, both
    // counted, in the same overdue step.
    let report = service.step();
    assert_eq!(report.shed, vec![id], "the shed session is reported by id");
    let snap = service.snapshot();
    assert_eq!(
        snap.enhancement_runs_shed, 1,
        "enhancement shed before the session"
    );
    assert_eq!(snap.degraded_sessions, 1);
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.active, 0);
    assert_eq!(snap.completed, 0);
    assert!(snap.accounting_holds(), "{snap:?}");

    // Nothing was ever accepted by the pool, so nothing drains; the
    // shed session never reaches the completed buffer.
    release.store(true, Ordering::Release);
    let _ = filler.join();
    service.quiesce();
    assert!(service.take_completed().is_empty());
    let snap = service.snapshot();
    assert_eq!((snap.pending, snap.draining), (0, 0));
    assert!(snap.accounting_holds(), "{snap:?}");
}
