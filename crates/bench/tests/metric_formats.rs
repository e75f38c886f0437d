//! One metric list per snapshot, three formats. Every entry of the
//! service's and the pool's list must appear in the JSONL line, the
//! Prometheus exposition and the `BENCH_<area>.json` envelope under
//! one name and with one value; the JSONL line and the prefixed
//! Prometheus samples carry nothing else.

use fcr_bench::areas::{runtime, serve, Scale};
use fcr_bench::parse_envelope;
use fcr_runtime::{MetricsSnapshot, Runtime, RuntimeConfig};
use fcr_serve::ServiceSnapshot;
use fcr_telemetry::json::Json;
use fcr_telemetry::{BenchEnvelope, BenchValue, Metric, MetricKind, TelemetrySink};

/// A serve snapshot with a distinct value in every field.
fn serve_snapshot(step_p50_us: Option<u64>, step_p99_us: Option<u64>) -> ServiceSnapshot {
    ServiceSnapshot {
        slot: 101,
        steps: 100,
        admitted: 40,
        active: 9,
        draining: 2,
        completed: 21,
        retired: 7,
        shed: 3,
        rejected_capacity: 5,
        rejected_budget: 6,
        windows_completed: 380,
        windows_retried: 4,
        deferrals: 77,
        deferrals_per_step: 0.77,
        handovers_fbs_fbs: 11,
        handovers_fbs_mbs: 12,
        handovers_mbs_fbs: 8,
        handovers_rejected: 13,
        active_on_mbs: 4,
        enhancement_runs_shed: 14,
        degraded_sessions: 15,
        completed_dropped: 16,
        mbs_in_use: 0.375,
        mbs_budget: 2.5,
        pending: 17,
        completed_buffered: 18,
        step_p50_us,
        step_p99_us,
    }
}

/// The value every format must show: `None` for an absent value.
fn expected(m: &Metric) -> Option<f64> {
    m.value.as_f64().filter(|v| v.is_finite())
}

fn assert_formats_agree(
    list: &[Metric],
    line_type: &str,
    json_line: &str,
    prom: &str,
    prefix: &str,
    bench: &BenchEnvelope,
) {
    let mut names: Vec<&str> = list.iter().map(|m| m.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), list.len(), "a name is listed twice");

    let json = Json::parse(json_line).unwrap_or_else(|e| panic!("{e}: {json_line}"));
    let Json::Obj(fields) = &json else {
        panic!("not an object: {json_line}");
    };
    assert_eq!(json.get("type"), Some(&Json::Str(line_type.to_string())));
    assert_eq!(fields.len(), list.len() + 1, "extra JSON keys: {json_line}");

    let samples: Vec<(&str, f64)> = prom
        .lines()
        .filter(|l| l.starts_with(prefix))
        .map(|l| {
            let (name, value) = l.split_once(' ').expect("name value");
            (name, value.parse().expect("numeric sample"))
        })
        .collect();
    let present = list.iter().filter(|m| expected(m).is_some()).count();
    assert_eq!(samples.len(), present, "extra {prefix} samples:\n{prom}");

    let bench = parse_envelope(&bench.to_json()).expect("envelope re-parses");
    let mut bench_names: Vec<&str> = bench.metrics.iter().map(|(k, _)| k.as_str()).collect();
    bench_names.sort_unstable();
    bench_names.dedup();
    assert_eq!(
        bench_names.len(),
        bench.metrics.len(),
        "a BENCH row repeats"
    );

    for m in list {
        let want = expected(m);
        let got = match json.get(m.name) {
            Some(Json::Null) => None,
            Some(Json::Num(v)) => Some(*v),
            Some(Json::Bool(b)) => Some(if *b { 1.0 } else { 0.0 }),
            other => panic!("JSON {}: {other:?} in {json_line}", m.name),
        };
        assert_eq!(got, want, "JSON {}", m.name);

        let (suffix, kind) = match m.kind {
            MetricKind::Counter => ("_total", "counter"),
            MetricKind::Gauge => ("", "gauge"),
        };
        let prom_name = format!("{prefix}{}{suffix}", m.name);
        let sample = samples.iter().find(|(n, _)| *n == prom_name).map(|s| s.1);
        assert_eq!(sample, want, "Prometheus {prom_name}:\n{prom}");
        if want.is_some() {
            assert!(
                prom.contains(&format!("# TYPE {prom_name} {kind}\n")),
                "no TYPE for {prom_name}:\n{prom}"
            );
        }

        let row = bench.metrics.iter().find(|(k, _)| k == m.name);
        let row = row.unwrap_or_else(|| panic!("BENCH_{}.json lacks {}", bench.area, m.name));
        assert_eq!(
            row.1.as_f64().filter(|v| v.is_finite()),
            want,
            "BENCH {}",
            m.name
        );
    }
}

/// A two-worker pool's snapshot after 8 jobs, with a distinct value in
/// every other scalar.
fn pool_snapshot() -> MetricsSnapshot {
    let rt = Runtime::with_config(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    });
    assert!(rt
        .run_batch((0u64..8).map(|i| move || i))
        .iter()
        .all(Result::is_ok));
    let mut pool = rt.snapshot();
    pool.jobs_failed = 3;
    pool.jobs_rejected = 4;
    pool.queue_depth = 5;
    pool.jobs_in_flight = 6;
    pool
}

#[test]
fn serve_and_pool_lists_agree_across_jsonl_prometheus_and_bench() {
    let pool = pool_snapshot();
    for (p50, p99) in [(Some(12), Some(90)), (None, None)] {
        let snap = serve_snapshot(p50, p99);
        let bench = serve::envelope(
            &serve::ServeParams::at(Scale::Smoke, 1),
            &snap,
            &pool,
            2.0,
            9,
            50,
        );
        assert_formats_agree(
            &snap.metrics(),
            "serve",
            &snap.to_json_line(),
            &snap.to_prometheus(),
            "fcr_serve_",
            &bench,
        );
    }

    let telemetry = TelemetrySink::new().snapshot();
    let jsonl = fcr_telemetry::to_jsonl(&telemetry, Some(&pool));
    let pool_line = jsonl
        .lines()
        .find(|l| l.starts_with("{\"type\":\"pool\""))
        .expect("pool line");
    let bench = runtime::envelope(&runtime::RuntimeParams::at(Scale::Smoke, 1), &pool, 8, 0.5);
    assert_formats_agree(
        &fcr_telemetry::pool_metrics(&pool),
        "pool",
        pool_line,
        &fcr_telemetry::to_prometheus(&telemetry, Some(&pool)),
        "fcr_pool_",
        &bench,
    );
}

/// The rendered file's workload entry `key`.
fn workload(env: &BenchEnvelope, key: &str) -> Option<BenchValue> {
    let env = parse_envelope(&env.to_json()).expect("envelope re-parses");
    let entry = env.workload.into_iter().find(|(k, _)| k == key);
    entry.map(|(_, v)| v)
}

#[test]
fn area_envelopes_carry_the_run_rows() {
    let pool = pool_snapshot();
    let job_p50 = pool.job_wall_time.percentile_micros(0.50).map(|v| v as f64);
    assert!(job_p50.is_some());

    // 21 sessions completed and 50 slots simulated in 2 s, peak 9.
    let params = serve::ServeParams::at(Scale::Smoke, 7);
    let env = serve::envelope(
        &params,
        &serve_snapshot(Some(12), Some(90)),
        &pool,
        2.0,
        9,
        50,
    );
    assert_eq!(
        (env.area.as_str(), env.seed, env.wall_seconds),
        ("serve", 7, 2.0)
    );
    assert_eq!(env.metric_value("sessions_per_sec"), Some(10.5));
    assert_eq!(env.metric_value("slots_per_sec"), Some(25.0));
    assert_eq!(env.metric_value("peak_concurrent"), Some(9.0));
    assert_eq!(env.metric_value("job_p50_us"), job_p50);
    assert_eq!(
        workload(&env, "target_sessions"),
        Some(BenchValue::U64(params.sessions as u64))
    );
    assert_eq!(workload(&env, "slot_ms"), Some(BenchValue::U64(0)));
    assert_eq!(
        workload(&env, "scale"),
        Some(BenchValue::Str("smoke".into()))
    );

    // 8 jobs returned Ok in 0.5 s.
    let params = runtime::RuntimeParams::at(Scale::Smoke, 7);
    let env = runtime::envelope(&params, &pool, 8, 0.5);
    assert_eq!((env.area.as_str(), env.seed), ("runtime", 7));
    assert_eq!(env.metric_value("jobs_per_sec"), Some(16.0));
    assert_eq!(env.metric_value("jobs_ok"), Some(8.0));
    assert_eq!(
        env.metric_value("jobs_total"),
        Some((params.batch_jobs * params.batches) as f64)
    );
    assert_eq!(env.metric_value("job_p50_us"), job_p50);
    assert_eq!(workload(&env, "workers"), Some(BenchValue::U64(2)));
    assert_eq!(
        workload(&env, "batch_jobs"),
        Some(BenchValue::U64(params.batch_jobs))
    );
}
