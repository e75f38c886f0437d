//! Bounded chaos soak, rebased onto `fcr-serve`: loops churn storms
//! through the always-on service on faulted pools under fresh seeds
//! for a wall-clock budget, and fails loudly (with the replay seed)
//! on the first invariance violation.
//!
//! ```text
//! cargo run --release -p fcr-testkit --bin soak -- --seconds 30 [--seed N]
//! ```
//!
//! Each iteration derives a base seed from the iteration counter,
//! expands the standard chaos corpus (panic / delay / mixed storms),
//! and drives every case through
//! [`fcr_testkit::serve_storm::verify_serve_under_faults`] — session
//! churn, exact accounting, panic containment, and bit-identity of
//! served outputs with the batch path. The packet engine (which has
//! no serve path) keeps its batch fault-invariance check per
//! iteration. CI runs this for 30 s as a smoke test; longer budgets
//! are an overnight chaos run.

use fcr_sim::config::SimConfig;
use fcr_sim::{Scenario, Scheme};
use fcr_testkit::faults::{install_quiet_hook, standard_cases, verify_packet_under_faults};
use fcr_testkit::seeds::case_seed;
use fcr_testkit::serve_storm::verify_serve_under_faults;
use std::time::{Duration, Instant};

fn parse_args() -> (Duration, u64) {
    let mut seconds = 30u64;
    let mut seed = fcr_testkit::CI_SEED;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seconds" => {
                seconds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seconds expects an integer"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed expects an integer"));
            }
            "--help" | "-h" => {
                eprintln!("usage: soak [--seconds N] [--seed N]");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    (Duration::from_secs(seconds), seed)
}

fn die(msg: &str) -> ! {
    eprintln!("soak: {msg}");
    std::process::exit(2);
}

fn main() {
    install_quiet_hook();
    let (budget, base) = parse_args();
    let cfg = SimConfig {
        gops: 4,
        deadline: 4,
        num_channels: 4,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    let sessions = 6u64; // initial serve population per storm
    let packet_runs = 3u64; // 3 runs x 4 GOPs = 12 jobs, matching FaultSpec::jobs

    let start = Instant::now();
    let mut iterations = 0u64;
    let mut faults_fired = 0u64;
    let mut sessions_served = 0u64;
    let mut outputs_verified = 0u64;
    println!(
        "soak: base seed {base}, budget {}s, {} sessions/storm through fcr-serve",
        budget.as_secs(),
        sessions,
    );
    while start.elapsed() < budget {
        let iter_seed = case_seed("soak", base.wrapping_add(iterations));
        for case in standard_cases(iter_seed) {
            let v = verify_serve_under_faults(
                &case,
                &cfg,
                &scenario,
                Scheme::Proposed,
                iter_seed,
                sessions,
            );
            faults_fired += v.report.total_injected();
            sessions_served += v.admitted;
            outputs_verified += v.outputs_verified;
            let v = verify_packet_under_faults(
                &case,
                &cfg,
                &scenario,
                Scheme::Proposed,
                iter_seed,
                packet_runs,
            );
            faults_fired += v.report.total_injected();
        }
        iterations += 1;
        if iterations.is_multiple_of(5) {
            println!(
                "soak: {iterations} iterations, {faults_fired} faults fired, \
                 {sessions_served} sessions churned, {:.1}s elapsed",
                start.elapsed().as_secs_f64()
            );
        }
    }
    assert!(iterations > 0, "soak budget too small to run one iteration");
    println!(
        "soak: PASS — {iterations} iterations, {faults_fired} faults fired, \
         {sessions_served} sessions churned ({outputs_verified} outputs verified \
         bit-identical), all invariants held (replay any case with --seed {base})"
    );
}
