//! Schema round-trip and invariant tests for the benchmark artifacts.
//!
//! These are the checks CI used to run as inline python over
//! `bench_serve.json` (accounting identity, zero retries/sheds, peak
//! population), promoted into `cargo test` so they run on every tier-1
//! pass, plus the budget-gate contract: the in-tree
//! `bench/budgets.json` passes on a clean run and demonstrably fails
//! on an injected regression.

use fcr_bench::areas::{runtime, scenario, serve, solver, Scale};
use fcr_bench::{check, parse_envelope, BudgetFile};
use fcr_telemetry::{BenchEnvelope, BenchValue, BENCH_SCHEMA_VERSION};
use std::path::PathBuf;

fn in_tree_budgets() -> BudgetFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench/budgets.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    BudgetFile::parse(&text).expect("bench/budgets.json parses")
}

fn metric(envelope: &BenchEnvelope, name: &str) -> f64 {
    envelope
        .metric_value(name)
        .unwrap_or_else(|| panic!("metric {name} missing from {}", envelope.file_name()))
}

/// One full smoke pass through every area, asserting everything the
/// old CI python step asserted plus the schema and gate contracts.
/// A single test (not one per area) because the solver area drains the
/// process-global telemetry channel.
#[test]
fn smoke_run_satisfies_schema_invariants_and_budget_gate() {
    let mut solver_params = solver::SolverParams::at(Scale::Smoke, 2011);
    solver_params.kernel_reps = 5;
    solver_params.runs = 1;
    // Debug-build tests can't afford the preset's N=1000 slots; the
    // budgets are throughput floors, so a smaller N only passes more
    // easily while exercising the same code path.
    solver_params.massive_fbss = 32;
    solver_params.massive_slots = 2;
    let mut runtime_params = runtime::RuntimeParams::at(Scale::Smoke, 2011);
    runtime_params.batch_jobs = 50;
    runtime_params.batches = 2;
    let mut serve_params = serve::ServeParams::at(Scale::Smoke, 2011);
    serve_params.sessions = 10;

    let scenario_params = scenario::ScenarioParams::at(Scale::Smoke, 2011);

    let envelopes = [
        solver::run(&solver_params),
        runtime::run(&runtime_params),
        serve::run(&serve_params),
        scenario::run(&scenario_params),
    ];

    // --- One schema version across every artifact. ---
    for envelope in &envelopes {
        assert_eq!(envelope.schema_version, BENCH_SCHEMA_VERSION);
        assert!(envelope.wall_seconds > 0.0, "{}", envelope.file_name());
        assert!(metric(envelope, "peak_rss_kb") > 0.0);

        // Round-trip: render → parse → byte-identical re-render (an
        // integral F64 legitimately comes back as U64 — same JSON
        // number, so the bytes and every comparison still agree).
        let rendered = envelope.to_json();
        let parsed = parse_envelope(&rendered)
            .unwrap_or_else(|e| panic!("{} does not re-parse: {e}", envelope.file_name()));
        assert_eq!(parsed.to_json(), rendered, "{}", envelope.file_name());
        assert_eq!(parsed.area, envelope.area);
        assert_eq!(parsed.seed, envelope.seed);
        assert_eq!(parsed.schema_version, envelope.schema_version);
        for (name, _) in &envelope.metrics {
            assert_eq!(
                parsed.metric_value(name),
                envelope.metric_value(name),
                "{name} diverged through the round trip"
            );
        }
    }

    // --- The serve invariants that were inline python in ci.yml. ---
    let serve_env = &envelopes[2];
    assert_eq!(
        metric(serve_env, "peak_concurrent"),
        serve_params.sessions as f64,
        "never held the target population"
    );
    assert_eq!(metric(serve_env, "sessions_shed"), 0.0, "sessions shed");
    assert_eq!(metric(serve_env, "windows_retried"), 0.0, "windows retried");
    assert_eq!(
        metric(serve_env, "sessions_admitted"),
        metric(serve_env, "sessions_completed")
            + metric(serve_env, "sessions_retired")
            + metric(serve_env, "sessions_shed"),
        "accounting identity violated"
    );
    assert_eq!(metric(serve_env, "accounting_holds"), 1.0);
    assert_eq!(
        metric(serve_env, "completed_taken"),
        metric(serve_env, "sessions_completed"),
        "a completed session's outputs were not taken"
    );

    // --- The in-tree budgets pass on a clean run... ---
    let budgets = in_tree_budgets();
    assert_eq!(budgets.schema_version, BENCH_SCHEMA_VERSION);
    let violations = check(&budgets, &envelopes);
    assert!(
        violations.is_empty(),
        "clean smoke run breaches in-tree budgets:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // --- ...and an injected regression demonstrably fails. ---
    let mut regressed = envelopes.to_vec();
    for (name, value) in &mut regressed[2].metrics {
        if name == "windows_retried" {
            *value = BenchValue::U64(7);
        }
    }
    let violations = check(&budgets, &regressed);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let line = violations[0].to_string();
    // The diff-style message names the metric, the measured value, and
    // the budget it breached.
    assert_eq!(
        line,
        "FAIL serve/windows_retried: measured 7 > budget max 0"
    );

    // --- A service that drops completed outputs fails its gate. ---
    let mut dropping = envelopes.to_vec();
    for (name, value) in &mut dropping[2].metrics {
        if name == "completed_dropped" {
            *value = BenchValue::U64(3);
        }
    }
    let violations = check(&budgets, &dropping);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(
        violations[0].to_string(),
        "FAIL serve/completed_dropped: measured 3 > budget max 0"
    );

    // --- Doubling either greedy's exact work fails its count gate.
    // The fig-5 counts (`Q` solves and share sums) are measured here,
    // so their budgets must equal them. The massive row is doubled
    // from its budget: the smoke slot runs N = 32, far below the
    // budget's N = 1000, so the full-scale envelope in the tree must
    // equal that budget instead. ---
    let massive_max = budgets
        .budgets
        .iter()
        .find(|b| b.area == "solver" && b.metric == "massive_greedy_q_solves")
        .and_then(|b| b.max)
        .expect("massive_greedy_q_solves has a max budget");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_solver.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let committed = parse_envelope(&text).expect("BENCH_solver.json parses");
    assert_eq!(
        metric(&committed, "massive_greedy_q_solves"),
        massive_max,
        "BENCH_solver.json's massive count is its budget"
    );
    for (row, pinned) in [
        ("greedy_q_solves", metric(&envelopes[0], "greedy_q_solves")),
        (
            "greedy_bisection_steps",
            metric(&envelopes[0], "greedy_bisection_steps"),
        ),
        ("massive_greedy_q_solves", massive_max),
    ] {
        let mut doubled = envelopes.to_vec();
        for (name, value) in &mut doubled[0].metrics {
            if name == row {
                *value = BenchValue::U64(2 * pinned as u64);
            }
        }
        let violations = check(&budgets, &doubled);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(
            violations[0].to_string(),
            format!(
                "FAIL solver/{row}: measured {} > budget max {pinned}",
                2 * pinned as u64
            )
        );
    }

    // --- A NaN metric must breach, not sail through both bounds. ---
    let mut poisoned = envelopes.to_vec();
    for (name, value) in &mut poisoned[0].metrics {
        if name == "massive_slots_per_sec" {
            *value = BenchValue::F64(f64::NAN);
        }
    }
    let violations = check(&budgets, &poisoned);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(
        violations[0].to_string(),
        "FAIL solver/massive_slots_per_sec: measured NaN violates every bound"
    );

    // --- A stale artifact is named by file, with the fix spelled out. ---
    let mut stale = envelopes.to_vec();
    stale[2].schema_version = BENCH_SCHEMA_VERSION + 1;
    let violations = check(&budgets, &stale);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let line = violations[0].to_string();
    assert!(line.contains("BENCH_serve.json"), "{line}");
    assert!(line.contains("fcr-bench run --area serve"), "{line}");
}

/// The budget file itself stays well-formed: every budgeted area is
/// one the runner knows, so `check` can never wait on an artifact no
/// area produces.
#[test]
fn in_tree_budgets_cover_only_known_areas() {
    let budgets = in_tree_budgets();
    for area in budgets.areas() {
        assert!(
            fcr_bench::ALL_AREAS.contains(&area),
            "budgets.json names unknown area {area:?}"
        );
    }
    assert!(!budgets.budgets.is_empty());
}
