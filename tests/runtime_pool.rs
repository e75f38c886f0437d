//! Integration tests for the simulation pool: panic containment on the
//! *shared* runtime, end-to-end metrics accounting, and the pool's
//! invisibility to experiment results at every pool size.

use fcr::prelude::*;
use fcr::sim::pool::{self, SLOTS_COUNTER, SOLVER_COUNTER};
use std::sync::{Arc, Mutex, MutexGuard};

fn quick_config() -> SimConfig {
    SimConfig {
        gops: 2,
        ..SimConfig::default()
    }
}

/// These tests assert on deltas of *process-global* pool counters, so
/// they must not interleave their batches. (The pool itself is fine
/// with concurrent batches — see `sweep` — but the arithmetic here is
/// not.)
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn injected_panic_is_contained_and_the_shared_pool_survives() {
    let _gate = exclusive();
    let runtime = pool::shared();
    let failed_before = runtime.snapshot().jobs_failed;

    // A batch with a poison pill in the middle: the bad job must fail
    // alone, in its submission slot, without taking down the pool.
    let outcomes = runtime.run_batch((0..5u64).map(|i| {
        move || {
            assert!(i != 2, "injected failure on job 2");
            i * 10
        }
    }));
    assert_eq!(outcomes.len(), 5);
    for (i, outcome) in outcomes.iter().enumerate() {
        if i == 2 {
            let err = outcome.as_ref().expect_err("job 2 panicked");
            assert!(
                err.to_string().contains("injected failure on job 2"),
                "panic message preserved: {err}"
            );
        } else {
            assert_eq!(outcome.as_ref().copied(), Ok(i as u64 * 10), "job {i}");
        }
    }
    assert_eq!(runtime.snapshot().jobs_failed, failed_before + 1);

    // The same pool still runs real experiments afterwards: no
    // poisoning, no lost workers.
    let cfg = quick_config();
    let results = SimSession::new(Scenario::single_fbs(&cfg))
        .config(cfg)
        .runs(3)
        .seed(31)
        .run(Scheme::Proposed)
        .results();
    assert_eq!(results.len(), 3);
    assert!(results.iter().all(|r| r.mean_psnr() > 20.0));
}

#[test]
fn shared_pool_accounts_every_simulated_slot() {
    let _gate = exclusive();
    let cfg = quick_config();
    let before = pool::snapshot();
    // Whole runs as pool jobs: one job per run.
    let outcomes = SimSession::new(Scenario::single_fbs(&cfg))
        .config(cfg)
        .runs(4)
        .seed(17)
        .shards(ShardPolicy::WholeRun)
        .run(Scheme::Heuristic1)
        .into_outcomes();
    assert!(outcomes.iter().all(Result::is_ok));
    let after = pool::snapshot();

    let slots = 4 * cfg.total_slots();
    assert_eq!(
        after.counter(SLOTS_COUNTER).unwrap_or(0) - before.counter(SLOTS_COUNTER).unwrap_or(0),
        slots
    );
    assert_eq!(
        after.counter(SOLVER_COUNTER).unwrap_or(0) - before.counter(SOLVER_COUNTER).unwrap_or(0),
        slots
    );
    assert!(after.jobs_completed >= before.jobs_completed + 4);
    assert!(after.job_wall_time.count >= before.job_wall_time.count + 4);
    assert!(after.workers >= 1);
}

#[test]
fn snapshot_exposes_the_advertised_counter_set() {
    let _gate = exclusive();
    // The acceptance bar: at least five counters/histograms visible in
    // one mid-flight snapshot, renderable as a table.
    let cfg = quick_config();
    let _ = SimSession::new(Scenario::single_fbs(&cfg))
        .config(cfg)
        .runs(2)
        .seed(5)
        .run(Scheme::UpperBound)
        .results();
    let snap = pool::snapshot();
    assert!(snap.jobs_submitted >= 2);
    assert!(snap.jobs_completed >= 2);
    assert_eq!(snap.queue_depth, 0, "drained batch leaves no queue");
    assert_eq!(snap.jobs_in_flight, 0, "drained batch leaves no stragglers");
    assert!(snap.job_wall_time.count >= 2);
    assert!(snap.counter(SLOTS_COUNTER).unwrap_or(0) >= 2 * cfg.total_slots());
    let table = fcr::sim::report::runtime_metrics_table(&snap);
    assert!(table.contains("jobs completed"));
    assert!(table.contains(SLOTS_COUNTER));
}

#[test]
fn sharded_sessions_are_bit_identical_on_every_pool_size() {
    // Dedicated pools of one to three workers: the width moves only
    // *where* windows execute, and `Auto` cuts runs by it, but never a
    // single bit of the results.
    let cfg = SimConfig {
        gops: 4,
        ..SimConfig::default()
    };
    let session = SimSession::new(Scenario::single_fbs(&cfg))
        .config(cfg)
        .runs(2)
        .seed(808);
    let baseline = session.run(Scheme::Proposed).results();
    for workers in 1..=3 {
        let runtime = Arc::new(Runtime::with_config(RuntimeConfig {
            workers,
            ..RuntimeConfig::default()
        }));
        for policy in [ShardPolicy::Auto, ShardPolicy::Windows(1)] {
            assert_eq!(
                session
                    .clone()
                    .shards(policy)
                    .on_runtime(Arc::clone(&runtime))
                    .run(Scheme::Proposed)
                    .results(),
                baseline,
                "results changed on {workers} workers under {policy:?}"
            );
        }
    }
}
