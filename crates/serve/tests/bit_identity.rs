//! The serve path is a scheduler, not a simulator: a session served
//! through admission, slot stepping, priority sharding, and stitching
//! must produce outputs bit-identical to the batch
//! [`fcr_sim::SimSession`] path with the same seed — base and
//! enhancement runs alike, regardless of window size.

use fcr_runtime::{Runtime, RuntimeConfig};
use fcr_serve::{AdmitOutcome, ServeConfig, Service, SessionSpec};
use fcr_sim::config::SimConfig;
use fcr_sim::{Scenario, Scheme, SimSession};
use std::sync::Arc;

fn cfg() -> SimConfig {
    SimConfig {
        gops: 6,
        deadline: 4,
        num_channels: 4,
        ..SimConfig::default()
    }
}

fn pool(workers: usize) -> Arc<Runtime> {
    Arc::new(Runtime::with_config(RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    }))
}

#[test]
fn served_sessions_match_the_batch_path_bit_for_bit() {
    let cfg = cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let seed = 20110611;
    let base_runs = 2u64;
    let enhancement_runs = 1u64;

    // Direct path: one batch session, 3 runs.
    let batch = SimSession::new((*scenario).clone())
        .config(cfg)
        .seed(seed)
        .runs(base_runs + enhancement_runs)
        .run(Scheme::Proposed);

    // Serve path: same seed through admission + stepping, for several
    // window granularities (partition independence must survive the
    // scheduler).
    for window_gops in [1u64, 2, 6] {
        let service = Service::new(
            ServeConfig {
                mbs_budget: 1e12,
                window_gops,
                ..ServeConfig::default()
            },
            pool(2),
        );
        let id = match service.admit(
            SessionSpec::new(Arc::clone(&scenario), cfg)
                .scheme(Scheme::Proposed)
                .seed(seed)
                .base_runs(base_runs)
                .enhancement_runs(enhancement_runs),
        ) {
            AdmitOutcome::Admitted(id) => id,
            AdmitOutcome::Rejected(reason) => panic!("rejected: {reason}"),
        };
        service.quiesce();
        let done = service.take_completed();
        assert_eq!(done.len(), 1);
        let session = &done[0];
        assert_eq!(session.id, id);
        assert!(!session.degraded);
        assert_eq!(
            session.outputs.len(),
            (base_runs + enhancement_runs) as usize
        );

        for (r, output) in session.outputs.iter().enumerate() {
            let served = output
                .as_ref()
                .unwrap_or_else(|| panic!("window_gops={window_gops}: run {r} missing"));
            let direct = batch.outcomes()[r].as_ref().expect("batch run ok");
            assert_eq!(
                served.result, direct.result,
                "window_gops={window_gops}: run {r} diverged from the batch path"
            );
        }

        let snap = service.snapshot();
        assert!(snap.accounting_holds(), "{snap:?}");
        assert_eq!(snap.pending, 0);
        assert_eq!(snap.shed, 0);
    }
}

#[test]
fn concurrent_sessions_on_one_pool_stay_independent() {
    let cfg = cfg();
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let service = Service::new(
        ServeConfig {
            mbs_budget: 1e12,
            ..ServeConfig::default()
        },
        pool(2),
    );

    let seeds = [3u64, 5, 7, 11];
    let ids: Vec<_> = seeds
        .iter()
        .map(
            |&seed| match service.admit(SessionSpec::new(Arc::clone(&scenario), cfg).seed(seed)) {
                AdmitOutcome::Admitted(id) => id,
                AdmitOutcome::Rejected(reason) => panic!("seed {seed} rejected: {reason}"),
            },
        )
        .collect();
    service.quiesce();
    let mut done = service.take_completed();
    done.sort_by_key(|s| s.id.0);
    assert_eq!(done.len(), seeds.len());

    for ((session, &seed), &id) in done.iter().zip(&seeds).zip(&ids) {
        assert_eq!(session.id, id);
        let batch = SimSession::new((*scenario).clone())
            .config(cfg)
            .seed(seed)
            .runs(1)
            .run(Scheme::Proposed);
        let direct = batch.outcomes()[0].as_ref().expect("batch run ok");
        let served = session.outputs[0].as_ref().expect("served run present");
        assert_eq!(
            served.result, direct.result,
            "seed {seed} diverged when sharing the pool with other sessions"
        );
    }
}
