//! Reproducibility guarantees: every published number must be exactly
//! re-derivable from the master seed, independent of thread scheduling,
//! of which schemes ran before, and of how runs are sharded into slot
//! windows.

use fcr::prelude::*;
use fcr::sim::engine::run;
use fcr::sim::packet_engine::{run_packet_level, PacketRunResult};

/// Serial ground truth for one fluid run.
fn serial_run(
    scenario: &Scenario,
    cfg: &SimConfig,
    scheme: Scheme,
    seeds: &SeedSequence,
    run_index: u64,
) -> RunResult {
    run(scenario, cfg, scheme, seeds, run_index, TraceMode::Off).result
}

#[test]
fn whole_sessions_are_bit_for_bit_reproducible() {
    let cfg = SimConfig {
        gops: 3,
        ..SimConfig::default()
    };
    let make = || {
        SimSession::new(Scenario::single_fbs(&cfg))
            .config(cfg)
            .runs(4)
            .seed(123)
    };
    let a = make().run(Scheme::Proposed).results();
    let b = make().run(Scheme::Proposed).results();
    assert_eq!(a, b);
}

#[test]
fn runs_are_independent_of_execution_order() {
    // Run 2 alone must equal run 2 inside a batch: seeds are derived
    // per-run, not from a shared sequential stream.
    let cfg = SimConfig {
        gops: 3,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    let seeds = SeedSequence::new(55);
    let solo = serial_run(&scenario, &cfg, Scheme::Proposed, &seeds, 2);
    let batch = SimSession::new(scenario)
        .config(cfg)
        .runs(4)
        .seed(55)
        .run(Scheme::Proposed)
        .results();
    assert_eq!(solo, batch[2]);
}

#[test]
fn scheme_under_test_does_not_perturb_the_environment() {
    // The primary-user process, sensing noise, and access decisions are
    // drawn from streams independent of the allocation, so environment
    // statistics agree across schemes run-by-run (common random
    // numbers).
    let cfg = SimConfig {
        gops: 4,
        ..SimConfig::default()
    };
    let scenario = Scenario::interfering_fig5(&cfg);
    let seeds = SeedSequence::new(77);
    for run_index in 0..3 {
        let a = serial_run(&scenario, &cfg, Scheme::Proposed, &seeds, run_index);
        let b = serial_run(&scenario, &cfg, Scheme::Heuristic2, &seeds, run_index);
        assert_eq!(a.collision_rate, b.collision_rate, "run {run_index}");
        assert_eq!(
            a.mean_expected_available, b.mean_expected_available,
            "run {run_index}"
        );
    }
}

#[test]
fn different_master_seeds_give_different_sample_paths() {
    let cfg = SimConfig {
        gops: 3,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    let seeds1 = SeedSequence::new(1);
    let seeds2 = SeedSequence::new(2);
    let a = serial_run(&scenario, &cfg, Scheme::Proposed, &seeds1, 0);
    let b = serial_run(&scenario, &cfg, Scheme::Proposed, &seeds2, 0);
    assert_ne!(a, b);
}

#[test]
fn pooled_execution_matches_serial_for_all_schemes() {
    // The worker pool must be invisible in the numbers: for every
    // scheme, SimSession::run (pooled, sharded) is bit-identical to a
    // serial engine::run loop with the same seed derivation, regardless
    // of worker count or scheduling.
    let cfg = SimConfig {
        gops: 3,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    let session = SimSession::new(scenario.clone())
        .config(cfg)
        .runs(4)
        .seed(2011);
    let seeds = SeedSequence::new(2011);
    for scheme in Scheme::WITH_BOUND {
        let pooled = session.run(scheme).results();
        let serial: Vec<RunResult> = (0..4)
            .map(|r| serial_run(&scenario, &cfg, scheme, &seeds, r))
            .collect();
        assert_eq!(pooled, serial, "{} diverged under the pool", scheme.name());
    }
}

#[test]
fn shard_policies_are_bit_identical_for_fluid_and_packet_engines() {
    // The tentpole property: cutting a run into GOP-aligned slot
    // windows — any window size, including sizes that do not divide
    // the GOP count — must not change a single bit of either engine's
    // output. 7 GOPs exercises uneven windows (7 = 3 + 3 + 1).
    let cfg = SimConfig {
        gops: 7,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    let seeds = SeedSequence::new(4040);
    let runs = 2u64;
    let serial_fluid: Vec<RunResult> = (0..runs)
        .map(|r| serial_run(&scenario, &cfg, Scheme::Proposed, &seeds, r))
        .collect();
    let serial_packet: Vec<PacketRunResult> = (0..runs)
        .map(|r| run_packet_level(&scenario, &cfg, Scheme::Proposed, &seeds, r))
        .collect();

    let session = SimSession::new(scenario).config(cfg).runs(runs).seed(4040);
    for policy in [
        ShardPolicy::WholeRun,
        ShardPolicy::Auto,
        ShardPolicy::Windows(1),
        ShardPolicy::Windows(3),
        ShardPolicy::Windows(7),
    ] {
        let sharded = session.clone().shards(policy);
        assert_eq!(
            sharded.run(Scheme::Proposed).results(),
            serial_fluid,
            "fluid engine diverged under {policy:?}"
        );
        assert_eq!(
            sharded.run_packet(Scheme::Proposed).results(),
            serial_packet,
            "packet engine diverged under {policy:?}"
        );
    }
}

#[test]
fn interfering_topology_shards_bit_identically() {
    // Same property on the interfering Fig. 5 topology, where the
    // greedy channel allocator runs every slot.
    let cfg = SimConfig {
        gops: 4,
        ..SimConfig::default()
    };
    let scenario = Scenario::interfering_fig5(&cfg);
    let seeds = SeedSequence::new(616);
    let serial: Vec<RunResult> = (0..2)
        .map(|r| serial_run(&scenario, &cfg, Scheme::Proposed, &seeds, r))
        .collect();
    let sharded = SimSession::new(scenario)
        .config(cfg)
        .runs(2)
        .seed(616)
        .shards(ShardPolicy::Windows(1))
        .run(Scheme::Proposed)
        .results();
    assert_eq!(sharded, serial);
}

#[test]
fn sharded_traces_stitch_identically_to_serial() {
    // Slot traces recorded inside windows must stitch back into
    // exactly the serial trace (same records, same order).
    let cfg = SimConfig {
        gops: 4,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    let seeds = SeedSequence::new(321);
    let serial = run(
        &scenario,
        &cfg,
        Scheme::Proposed,
        &seeds,
        0,
        TraceMode::Slots,
    );
    let result = SimSession::new(scenario)
        .config(cfg)
        .runs(1)
        .seed(321)
        .shards(ShardPolicy::Windows(1))
        .trace(TraceMode::Slots)
        .run(Scheme::Proposed);
    let traces = result.traces();
    assert_eq!(traces.len(), 1);
    assert_eq!(
        traces[0],
        serial.trace.as_ref().expect("serial trace recorded"),
        "stitched trace diverged from serial"
    );
    assert_eq!(result.results()[0], serial.result);
}

#[test]
fn pooled_sweep_matches_serial_computation() {
    // The session sweep (all point × scheme × run × window jobs
    // submitted at once) must reproduce the fully serial nested-loop
    // numbers.
    let base = SimConfig {
        gops: 2,
        ..SimConfig::default()
    };
    let points: Vec<(f64, SimConfig, Scenario)> = [4usize, 8]
        .iter()
        .map(|m| {
            let cfg = SimConfig {
                num_channels: *m,
                ..base
            };
            (*m as f64, cfg, Scenario::single_fbs(&cfg))
        })
        .collect();
    let schemes = [Scheme::Proposed, Scheme::Heuristic1];
    let runs = 3u64;
    let master_seed = 9090u64;
    let swept = SimSession::new(points[0].2.clone())
        .config(points[0].1)
        .runs(runs)
        .seed(master_seed)
        .sweep(&points, &schemes);

    for (i, scheme) in schemes.iter().enumerate() {
        assert_eq!(swept[i].name(), scheme.name());
        for (j, (x, cfg, scenario)) in points.iter().enumerate() {
            let seeds = SeedSequence::new(master_seed);
            let serial: Vec<f64> = (0..runs)
                .map(|r| serial_run(scenario, cfg, *scheme, &seeds, r).mean_psnr())
                .collect();
            let point = swept[i].iter().nth(j).expect("one point per x");
            assert_eq!(point.x, *x);
            assert_eq!(point.samples, serial, "{} at x={x}", scheme.name());
        }
    }
}

#[test]
fn priority_orderings_never_change_results_in_either_engine() {
    // Priorities reorder queue service, nothing else: every class (and
    // deadline) must produce bit-identical fluid and packet results,
    // because each job derives its RNG streams from (seed, run, gop)
    // alone.
    let cfg = SimConfig {
        gops: 4,
        ..SimConfig::default()
    };
    let make = || {
        SimSession::new(Scenario::interfering_fig5(&cfg))
            .config(cfg)
            .runs(2)
            .seed(2323)
            .shards(ShardPolicy::Windows(1))
    };
    let base_fluid = make().run(Scheme::Proposed).results();
    let base_packet = make().run_packet(Scheme::Proposed).results();
    for (label, priority) in [
        ("urgent", Priority::urgent()),
        ("bulk", Priority::bulk()),
        (
            "deadlined",
            Priority::normal().deadline_in(std::time::Duration::from_millis(5)),
        ),
    ] {
        let session = make().priority(priority);
        assert_eq!(
            session.run(Scheme::Proposed).results(),
            base_fluid,
            "fluid engine diverged under {label} priority"
        );
        assert_eq!(
            session.run_packet(Scheme::Proposed).results(),
            base_packet,
            "packet engine diverged under {label} priority"
        );
    }
}

#[test]
fn solver_outputs_are_deterministic() {
    let users = vec![
        UserState::new(30.2, FbsId(0), 0.72, 0.72, 0.9, 0.85).unwrap(),
        UserState::new(27.6, FbsId(0), 0.63, 0.63, 0.8, 0.9).unwrap(),
    ];
    let p = SlotProblem::single_fbs(users, 2.5).unwrap();
    let a = WaterfillingSolver::new().solve(&p);
    let b = WaterfillingSolver::new().solve(&p);
    assert_eq!(a, b);
    let da = DualSolver::new(DualConfig::default()).solve(&p);
    let db = DualSolver::new(DualConfig::default()).solve(&p);
    assert_eq!(da, db);
}
