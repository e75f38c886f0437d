//! Saturate the shared simulation pool and print a live metrics
//! snapshot: how many slot simulations per second the process-wide
//! [`fcr::runtime`] worker pool sustains on this machine.
//!
//! ```text
//! cargo run --release --example runtime_throughput -- --jobs 64 --gops 4
//! cargo run --release --example runtime_throughput -- --shards --jobs 8 --gops 12
//! ```
//!
//! Two modes:
//!
//! - **default** — every job is one whole simulation run of the
//!   paper's baseline single-FBS scenario (a [`SimSession`] under
//!   [`ShardPolicy::WholeRun`]); the batch is large enough to keep
//!   every worker busy, and the snapshot printed at the end shows the
//!   pool-level counters (submitted/completed/failed), the wall-time
//!   histogram, and the domain counters (`slots_simulated`,
//!   `solver_invocations`).
//! - **`--shards`** — intra-run sharding benchmark: the same runs are
//!   executed first serially on one thread, then as a sharded
//!   [`SimSession`] (GOP-aligned slot windows on the shared pool).
//!   The PSNR sums must be **bit-identical**; on a multi-core box the
//!   sharded pass must also be faster. Shard stats land in the runtime
//!   metrics table and the telemetry JSONL printed at the end.

use fcr::prelude::*;
use fcr::sim::engine;
use fcr::sim::pool::{self, SHARDS_COUNTER, SLOTS_COUNTER};
use fcr::sim::report::runtime_metrics_table;
use std::time::Instant;

struct Args {
    jobs: u64,
    gops: u32,
    shards: bool,
}

fn parse_args() -> Args {
    let mut args_out = Args {
        jobs: 64,
        gops: 4,
        shards: false,
    };
    fn grab<T: std::str::FromStr>(name: &str, value: Option<String>) -> T {
        value
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} needs a positive integer"))
    }
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--jobs" => args_out.jobs = grab("--jobs", args.next()),
            "--gops" => args_out.gops = grab("--gops", args.next()),
            "--shards" => args_out.shards = true,
            other => panic!("unknown flag {other}; use [--shards] --jobs N --gops N"),
        }
    }
    assert!(
        args_out.jobs > 0 && args_out.gops > 0,
        "--jobs and --gops must be positive"
    );
    args_out
}

/// Default mode: whole runs as pool jobs, one job per run.
fn run_batch_mode(jobs: u64, gops: u32) {
    let config = SimConfig {
        gops,
        ..SimConfig::default()
    };
    let session = SimSession::new(Scenario::single_fbs(&config))
        .config(config)
        .runs(jobs)
        .seed(2011)
        .shards(ShardPolicy::WholeRun);

    let workers = pool::shared().workers();
    println!(
        "submitting {jobs} simulation runs ({gops} GOPs each, {} slots/run) to {workers} workers...",
        config.total_slots(),
    );
    let started = Instant::now();
    let outcomes = session.run(Scheme::Proposed).into_outcomes();
    let elapsed = started.elapsed();

    let ok = outcomes.iter().filter(|o| o.is_ok()).count();
    let failed = outcomes.len() - ok;
    let slots = jobs * config.total_slots();
    println!(
        "done in {:.2?}: {ok} ok, {failed} failed, {:.0} slots/sec, {:.1} runs/sec",
        elapsed,
        slots as f64 / elapsed.as_secs_f64(),
        jobs as f64 / elapsed.as_secs_f64(),
    );
    println!();

    let snapshot = pool::snapshot();
    print!("{}", runtime_metrics_table(&snapshot));
    assert_eq!(
        snapshot.counter(SLOTS_COUNTER),
        Some(slots),
        "every simulated slot is accounted for"
    );
}

/// `--shards` mode: serial baseline vs. sharded session, bit-identical
/// PSNR sums, speedup on multi-core machines.
fn run_shards_mode(runs: u64, gops: u32) {
    fcr::telemetry::enable();
    fcr::telemetry::reset();

    let config = SimConfig {
        gops,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&config);
    let seeds = SeedSequence::new(2011);

    // Serial baseline on the calling thread: the ground truth both for
    // wall time and for bit-level output.
    let started = Instant::now();
    let serial: Vec<RunResult> = (0..runs)
        .map(|r| {
            engine::run(
                &scenario,
                &config,
                Scheme::Proposed,
                &seeds,
                r,
                TraceMode::Off,
            )
            .result
        })
        .collect();
    let serial_elapsed = started.elapsed();
    let serial_psnr_sum: f64 = serial.iter().map(RunResult::mean_psnr).sum();

    // Sharded session: same runs cut into GOP-aligned slot windows on
    // the shared pool.
    let session = SimSession::new(scenario)
        .config(config)
        .runs(runs)
        .seed(2011)
        .shards(ShardPolicy::Auto);
    let started = Instant::now();
    let sharded = session.run(Scheme::Proposed).results();
    let sharded_elapsed = started.elapsed();
    let sharded_psnr_sum: f64 = sharded.iter().map(RunResult::mean_psnr).sum();

    let workers = pool::shared().workers();
    let speedup = serial_elapsed.as_secs_f64() / sharded_elapsed.as_secs_f64();
    println!(
        "{runs} runs x {gops} GOPs, policy {:?}, {workers} workers:",
        session.shard_policy(),
    );
    println!("  serial   {serial_elapsed:>10.2?}  PSNR sum {serial_psnr_sum:.12}");
    println!("  sharded  {sharded_elapsed:>10.2?}  PSNR sum {sharded_psnr_sum:.12}");
    println!("  speedup  {speedup:>9.2}x");

    assert_eq!(sharded, serial, "sharded output is bit-identical to serial");
    assert!(
        sharded_psnr_sum.to_bits() == serial_psnr_sum.to_bits(),
        "PSNR sums differ at the bit level: {serial_psnr_sum} vs {sharded_psnr_sum}"
    );
    if workers >= 2 {
        assert!(
            speedup > 1.0,
            "sharding must beat serial on {workers} workers (got {speedup:.2}x)"
        );
    }
    println!("  bit-identical: yes");
    println!();

    let snapshot = pool::snapshot();
    print!("{}", runtime_metrics_table(&snapshot));
    assert!(
        snapshot.counter(SHARDS_COUNTER).unwrap_or(0) > 0,
        "sharded session feeds the shard counter"
    );
    println!();

    // Telemetry JSONL: shard + pool lines for downstream tooling.
    let telemetry = fcr::telemetry::global().snapshot();
    let jsonl = fcr::telemetry::to_jsonl(&telemetry, Some(&snapshot));
    let shard_lines = jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"shard\""))
        .count();
    println!(
        "telemetry JSONL: {} lines, {shard_lines} shard records; first shard lines:",
        jsonl.lines().count()
    );
    for line in jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"shard\""))
        .take(4)
    {
        println!("  {line}");
    }
    assert!(shard_lines > 0, "shard records exported to JSONL");
    fcr::telemetry::disable();
}

fn main() {
    let args = parse_args();
    if args.shards {
        run_shards_mode(args.jobs, args.gops);
    } else {
        run_batch_mode(args.jobs, args.gops);
    }
}
