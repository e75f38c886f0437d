//! Steady-state serving demo: holds a target number of concurrent
//! sessions on the shared pool with continuous churn (completions,
//! forced retirements, replacement admissions) for a wall-clock
//! budget, then drains and verifies the service contract:
//!
//! - exact accounting: `admitted == completed + retired + shed`
//! - zero job loss: every window job resolved, `pending == 0` at drain
//! - bounded telemetry memory: record caps respected, counters
//!   published via snapshot-and-reset deltas
//! - a parseable live metrics body (optionally written to a file
//!   and/or served on a TCP endpoint)
//!
//! At exit it prints the drained service's final `serve` JSON line.
//!
//! ```text
//! cargo run --release -p fcr-serve --bin serve -- \
//!     --seconds 30 --sessions 10000 [--seed N] [--budget F] \
//!     [--metrics-addr 127.0.0.1:0] [--metrics-out PATH] \
//!     [--telemetry-stream PATH]
//! ```

use fcr_serve::{AdmitOutcome, MetricsServer, ServeConfig, Service, SessionSpec};
use fcr_sim::config::SimConfig;
use fcr_sim::Scenario;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    seconds: u64,
    sessions: usize,
    seed: u64,
    slot_ms: u64,
    budget: Option<f64>,
    metrics_addr: Option<String>,
    metrics_out: Option<String>,
    telemetry_stream: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seconds: 30,
        sessions: 10_000,
        seed: 0x5EED,
        slot_ms: 100,
        budget: None,
        metrics_addr: None,
        metrics_out: None,
        telemetry_stream: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--seconds" => args.seconds = parse(&val("--seconds"), "--seconds"),
            "--sessions" => args.sessions = parse(&val("--sessions"), "--sessions"),
            "--seed" => args.seed = parse(&val("--seed"), "--seed"),
            "--slot-ms" => args.slot_ms = parse(&val("--slot-ms"), "--slot-ms"),
            "--budget" => {
                args.budget = Some(
                    val("--budget")
                        .parse()
                        .unwrap_or_else(|_| die("--budget expects a float")),
                );
            }
            "--metrics-addr" => args.metrics_addr = Some(val("--metrics-addr")),
            "--metrics-out" => args.metrics_out = Some(val("--metrics-out")),
            "--telemetry-stream" => args.telemetry_stream = Some(val("--telemetry-stream")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: serve [--seconds N] [--sessions N] [--seed N] [--slot-ms N] \
                     [--budget F] [--metrics-addr ADDR] [--metrics-out PATH] \
                     [--telemetry-stream PATH]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn parse<T: std::str::FromStr>(v: &str, name: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| die(&format!("{name} expects a number")))
}

fn die(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(2)
}

/// Splitmix-style seed scrambler for per-session master seeds.
fn next_seed(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn main() {
    let args = parse_args();
    fcr_telemetry::enable();
    // Always-on capture pricing: keep 1-in-64 per-record samples (the
    // aggregate phase/counter statistics stay complete).
    fcr_telemetry::set_sampling(64);
    if let Some(path) = &args.telemetry_stream {
        fcr_telemetry::attach_stream_path(std::path::Path::new(path))
            .unwrap_or_else(|e| die(&format!("cannot open telemetry stream {path}: {e}")));
    }

    // Small per-session simulations: enough windows for the playout
    // pacing and priority ladder to matter, small enough that tens of
    // thousands of concurrent sessions stay cheap.
    let sim = SimConfig {
        gops: 8,
        deadline: 4,
        num_channels: 2,
        ..SimConfig::default()
    };
    let scenario = Arc::new(Scenario::single_fbs(&sim));
    let spec = |seed: u64| {
        SessionSpec::new(Arc::clone(&scenario), sim)
            .seed(seed)
            .base_runs(1)
            .enhancement_runs(1)
    };

    let config = ServeConfig {
        // The demo provisions the MBS budget for the target population
        // (one eq.-(12) unit per session is a safe upper bound);
        // admission control with a *tight* budget is exercised by the
        // test suite, the demo exercises sustained load.
        mbs_budget: args.budget.unwrap_or(args.sessions as f64),
        max_sessions: args.sessions.max(1),
        completed_buffer: 64,
        // The demo over-commits the pool by design (tens of thousands
        // of sessions on whatever cores CI has), so playout slots run
        // far behind wall-paced demand; keep backpressure at the
        // defer stage instead of shedding the backlog. The shed ladder
        // is exercised under a tight horizon by the test suite.
        shed_after: 1_000_000,
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::on_shared_pool(config));
    let endpoint = args.metrics_addr.as_ref().map(|addr| {
        let server = MetricsServer::spawn(Arc::clone(&service), addr)
            .unwrap_or_else(|e| die(&format!("cannot bind metrics endpoint {addr}: {e}")));
        println!(
            "serve: metrics endpoint on http://{}/metrics",
            server.local_addr()
        );
        server
    });

    let mut seed_state = args.seed;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();

    // Admission order, oldest first — the churn victims queue. Ids of
    // sessions that already completed are simply skipped on retire.
    let mut admitted_order = std::collections::VecDeque::new();

    // --- Ramp: admit the full target population. ---
    for _ in 0..args.sessions {
        match service.admit(spec(next_seed(&mut seed_state))) {
            AdmitOutcome::Admitted(id) => admitted_order.push_back(id),
            AdmitOutcome::Rejected(reason) => die(&format!("ramp admission rejected: {reason}")),
        }
    }
    let ramped = service.snapshot();
    println!(
        "serve: ramped to {} concurrent sessions in {:.2}s (mbs_in_use {:.3})",
        ramped.active,
        start.elapsed().as_secs_f64(),
        ramped.mbs_in_use,
    );

    // --- Steady state: step the clock, churn, replace. ---
    let steady_start = Instant::now();
    let mut peak_concurrent = ramped.active;
    let mut retired_by_churn = 0u64;
    let mut last_report = Instant::now();
    let slot = Duration::from_millis(args.slot_ms);
    while steady_start.elapsed() < budget {
        let slot_started = Instant::now();
        let report = service.step();
        peak_concurrent = peak_concurrent.max(report.active);

        // Forced churn: retire a trickle of the oldest sessions on
        // top of natural completions.
        let retire_now = (report.active / 2000).max(1);
        let mut retired = 0;
        while retired < retire_now {
            let Some(id) = admitted_order.pop_front() else {
                break;
            };
            // false = that session already completed (or was shed).
            if service.retire(id) {
                retired += 1;
                retired_by_churn += 1;
            }
        }

        // Replace churned-out sessions to hold the target population.
        let mut active = service.snapshot().active;
        while active < args.sessions {
            match service.admit(spec(next_seed(&mut seed_state))) {
                AdmitOutcome::Admitted(id) => {
                    admitted_order.push_back(id);
                    active += 1;
                }
                AdmitOutcome::Rejected(_) => break,
            }
        }

        if last_report.elapsed() > Duration::from_secs(5) {
            last_report = Instant::now();
            // Publish a bounded-memory delta: snapshot-and-reset.
            let delta = fcr_telemetry::drain();
            let snap = service.snapshot();
            println!(
                "serve: slot {} active {} completed {} retired {} shed {} \
                 (delta: {} solves, {} shards, {} dropped) {:.1}s",
                snap.slot,
                snap.active,
                snap.completed,
                snap.retired,
                snap.shed,
                delta.solves.len(),
                delta.shards.len(),
                delta.records_dropped(),
                steady_start.elapsed().as_secs_f64(),
            );
        }

        // Wall-clock slot pacing: the playout clock advances in real
        // time, and the sleep is where the worker pool gets the CPU
        // on small machines.
        if let Some(rest) = slot.checked_sub(slot_started.elapsed()) {
            std::thread::sleep(rest);
        }
    }

    // --- Capture the live metrics body before draining. ---
    let metrics_body = service.metrics_text();
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, &metrics_body)
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    }
    for phase in fcr_telemetry::Phase::ALL {
        assert!(
            metrics_body.contains(&format!("\"phase\":\"{}\"", phase.name())),
            "metrics body missing phase {}",
            phase.name()
        );
    }
    let telemetry = fcr_telemetry::global().snapshot();
    assert!(
        telemetry.solves.len() <= fcr_telemetry::MAX_RECORDS
            && telemetry.shards.len() <= fcr_telemetry::MAX_RECORDS,
        "telemetry record caps violated"
    );

    // --- Drain: retire the surviving population (freeing its queued
    // work), then quiesce — the pool finishes only what is already in
    // flight. Every admitted session must still be accounted for.
    println!("serve: draining...");
    let mut retired_at_drain = 0u64;
    while let Some(id) = admitted_order.pop_front() {
        if service.retire(id) {
            retired_at_drain += 1;
        }
    }
    service.quiesce();
    let elapsed = steady_start.elapsed().as_secs_f64();
    let snap = service.snapshot();
    assert!(
        snap.accounting_holds(),
        "accounting identity violated at drain"
    );
    assert_eq!(snap.active, 0, "sessions still active after drain");
    assert_eq!(snap.pending, 0, "window jobs still pending after drain");
    assert_eq!(
        snap.admitted,
        snap.completed + snap.retired + snap.shed,
        "session lost: admitted != completed + retired + shed"
    );

    println!("{}", snap.to_json_line());

    assert!(
        peak_concurrent >= args.sessions,
        "never held the target population: peak {} < {}",
        peak_concurrent,
        args.sessions
    );
    if let Some(server) = endpoint {
        server.shutdown();
    }
    fcr_telemetry::detach_stream();
    println!(
        "serve: PASS — held {} concurrent sessions for {:.1}s with churn \
         ({} admitted = {} completed + {} retired [{} churned, {} at drain] + {} shed), \
         zero loss",
        peak_concurrent,
        elapsed,
        snap.admitted,
        snap.completed,
        snap.retired,
        retired_by_churn,
        retired_at_drain,
        snap.shed,
    );
}
