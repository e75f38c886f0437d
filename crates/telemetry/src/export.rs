//! JSONL export of telemetry snapshots.
//!
//! One self-describing JSON object per line (`"type"` discriminates),
//! hand-rolled on `std` only — the container is offline, so no serde.
//! Line types:
//!
//! | `type` | one line per | fields |
//! |---|---|---|
//! | `meta` | export | `dropped_solves`, `dropped_greedy`, `dropped_shards`, `dropped_spans`, `records_dropped` |
//! | `phase` | pipeline phase | `phase`, `count`, `total_ns`, `mean_ns`, `max_ns`, `buckets_us` |
//! | `solve` | dual solve | `iterations`, `converged`, `residual`, `lambda` |
//! | `greedy` | greedy allocation | `steps`, `gain`, `upper_bound_gain`, `gap`, `optimality_ratio`, `gap_terms` |
//! | `counter` | named counter | `name`, `value` |
//! | `shard` | executed intra-run shard | `run`, `window`, `gop_start`, `gops`, `wall_ns` |
//! | `span` | span event (opt-in) | `id`, `parent` (`null` for roots), `phase`, `wall_ns` |
//! | `resize` | elastic-pool resize | `from`, `to`, `queue_depth`, `utilization`, `trigger` (`manual`/`loop`) |
//! | `worker` | pool worker | `index`, `busy_ns`, `lifetime_ns`, `jobs`, `utilization` |
//! | `pool` | runtime snapshot | `workers`, `jobs_submitted`, `jobs_completed`, `jobs_failed` |
//!
//! The per-record renderers below are shared between the batch
//! [`to_jsonl`] export and the sink's live stream writer
//! ([`crate::TelemetrySink::attach_stream`]), so a tailed stream and a
//! final export never disagree on the line format.

use crate::record::{GreedyRecord, ShardRecord, SolveRecord, SpanRecord};
use crate::sink::TelemetrySnapshot;
use fcr_runtime::{MetricsSnapshot, ResizeEvent};
use std::fmt::Write as _;

/// The JSONL line (no trailing newline) for one dual-solve record.
pub(crate) fn solve_line(s: &SolveRecord) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"type\":\"solve\",\"iterations\":{},\"converged\":{},\"residual\":{},\"lambda\":[",
        s.iterations,
        s.converged,
        num(s.residual)
    );
    push_f64_array(&mut out, &s.lambda);
    out.push_str("]}");
    out
}

/// The JSONL line (no trailing newline) for one greedy-allocation
/// record.
pub(crate) fn greedy_line(g: &GreedyRecord) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"type\":\"greedy\",\"steps\":{},\"gain\":{},\"upper_bound_gain\":{},\"gap\":{},\"optimality_ratio\":{},\"gap_terms\":[",
        g.steps,
        num(g.gain),
        num(g.upper_bound_gain),
        num(g.gap()),
        num(g.optimality_ratio()),
    );
    push_f64_array(&mut out, &g.gap_terms);
    out.push_str("]}");
    out
}

/// The JSONL line (no trailing newline) for one executed-shard record.
pub(crate) fn shard_line(s: &ShardRecord) -> String {
    format!(
        "{{\"type\":\"shard\",\"run\":{},\"window\":{},\"gop_start\":{},\"gops\":{},\"wall_ns\":{}}}",
        s.run, s.window, s.gop_start, s.gops, s.wall_ns,
    )
}

/// The JSONL line (no trailing newline) for one span event.
pub(crate) fn span_line(s: &SpanRecord) -> String {
    let mut out = format!("{{\"type\":\"span\",\"id\":{},\"parent\":", s.id);
    match s.parent {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"phase\":\"{}\",\"wall_ns\":{}}}",
        s.phase.name(),
        s.wall_ns
    );
    out
}

/// The JSONL line (no trailing newline) for one pool-resize event.
pub(crate) fn resize_line(r: &ResizeEvent) -> String {
    format!(
        "{{\"type\":\"resize\",\"from\":{},\"to\":{},\"queue_depth\":{},\"utilization\":{},\"trigger\":\"{}\"}}",
        r.from,
        r.to,
        r.queue_depth,
        num(r.utilization),
        r.trigger.name(),
    )
}

/// Renders `snapshot` as JSONL; when `runtime` is given, per-worker
/// utilization and a pool summary line are appended.
pub fn to_jsonl(snapshot: &TelemetrySnapshot, runtime: Option<&MetricsSnapshot>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"dropped_solves\":{},\"dropped_greedy\":{},\"dropped_shards\":{},\"dropped_spans\":{},\"records_dropped\":{}}}",
        snapshot.dropped_solves,
        snapshot.dropped_greedy,
        snapshot.dropped_shards,
        snapshot.dropped_spans,
        snapshot.records_dropped()
    );
    for (phase, p) in &snapshot.phases {
        let _ = write!(
            out,
            "{{\"type\":\"phase\",\"phase\":\"{}\",\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"max_ns\":{},\"buckets_us\":[",
            phase.name(),
            p.count,
            p.total_ns,
            num(p.mean_ns()),
            p.max_ns,
        );
        let mut first = true;
        for (upper, count) in p.wall.occupied_buckets() {
            if !first {
                out.push(',');
            }
            first = false;
            // The unbounded last bucket serializes its µs upper bound
            // as null.
            if upper == u64::MAX {
                let _ = write!(out, "[null,{count}]");
            } else {
                let _ = write!(out, "[{upper},{count}]");
            }
        }
        out.push_str("]}\n");
    }
    for s in &snapshot.solves {
        out.push_str(&solve_line(s));
        out.push('\n');
    }
    for g in &snapshot.greedy {
        out.push_str(&greedy_line(g));
        out.push('\n');
    }
    for s in &snapshot.shards {
        out.push_str(&shard_line(s));
        out.push('\n');
    }
    for s in &snapshot.spans {
        out.push_str(&span_line(s));
        out.push('\n');
    }
    for r in &snapshot.resizes {
        out.push_str(&resize_line(r));
        out.push('\n');
    }
    for (name, value) in &snapshot.counters {
        let _ = write!(out, "{{\"type\":\"counter\",\"name\":");
        push_json_string(&mut out, name);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    if let Some(rt) = runtime {
        for w in &rt.per_worker {
            let _ = writeln!(
                out,
                "{{\"type\":\"worker\",\"index\":{},\"busy_ns\":{},\"lifetime_ns\":{},\"jobs\":{},\"utilization\":{}}}",
                w.index,
                w.busy_ns,
                w.lifetime_ns,
                w.jobs_executed,
                num(w.utilization()),
            );
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"pool\",\"workers\":{},\"jobs_submitted\":{},\"jobs_completed\":{},\"jobs_failed\":{}}}",
            rt.workers, rt.jobs_submitted, rt.jobs_completed, rt.jobs_failed,
        );
    }
    out
}

/// Renders `snapshot` in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` headers, one sample per line, labels in
/// `{name="value"}` form. The same numbers as [`to_jsonl`], shaped for
/// a scraper instead of a log tail:
///
/// - per-phase span timing as a `summary` — `quantile="0.5"` /
///   `quantile="0.99"` samples (interpolated percentiles from the
///   wall-time histograms, in microseconds) plus `_sum`/`_count`;
/// - named domain counters under one metric with a `name` label;
/// - when `runtime` is given, pool job counters, the job wall-time
///   summary, and per-worker utilization gauges.
///
/// Non-finite values and empty-histogram quantiles are omitted (the
/// exposition format has no `null`).
pub fn to_prometheus(snapshot: &TelemetrySnapshot, runtime: Option<&MetricsSnapshot>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# TYPE fcr_telemetry_records_dropped_total counter\nfcr_telemetry_records_dropped_total {}",
        snapshot.records_dropped()
    );

    out.push_str("# TYPE fcr_phase_spans_total counter\n");
    for (phase, p) in &snapshot.phases {
        let _ = writeln!(
            out,
            "fcr_phase_spans_total{{phase=\"{}\"}} {}",
            phase.name(),
            p.count
        );
    }
    out.push_str("# TYPE fcr_phase_wall_us summary\n");
    for (phase, p) in &snapshot.phases {
        let label = format!("phase=\"{}\"", phase.name());
        prom_summary(&mut out, "fcr_phase_wall_us", &label, &p.wall);
    }

    if !snapshot.counters.is_empty() {
        out.push_str("# TYPE fcr_domain_counter_total counter\n");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(
                out,
                "fcr_domain_counter_total{{name=\"{}\"}} {value}",
                prom_label_escape(name)
            );
        }
    }

    let _ = writeln!(
        out,
        "# TYPE fcr_pool_resizes_total counter\nfcr_pool_resizes_total {}",
        snapshot.resizes.len()
    );

    if let Some(rt) = runtime {
        let _ = writeln!(
            out,
            "# TYPE fcr_pool_workers gauge\nfcr_pool_workers {}",
            rt.workers
        );
        for (name, value) in [
            ("submitted", rt.jobs_submitted),
            ("completed", rt.jobs_completed),
            ("failed", rt.jobs_failed),
            ("rejected", rt.jobs_rejected),
        ] {
            let _ = writeln!(
                out,
                "# TYPE fcr_pool_jobs_{name}_total counter\nfcr_pool_jobs_{name}_total {value}"
            );
        }
        let _ = writeln!(
            out,
            "# TYPE fcr_pool_queue_depth gauge\nfcr_pool_queue_depth {}",
            rt.queue_depth
        );
        let _ = writeln!(
            out,
            "# TYPE fcr_pool_jobs_in_flight gauge\nfcr_pool_jobs_in_flight {}",
            rt.jobs_in_flight
        );
        out.push_str("# TYPE fcr_job_wall_us summary\n");
        prom_summary(&mut out, "fcr_job_wall_us", "", &rt.job_wall_time);
        out.push_str("# TYPE fcr_worker_utilization gauge\n");
        for w in &rt.per_worker {
            if w.utilization().is_finite() {
                let _ = writeln!(
                    out,
                    "fcr_worker_utilization{{worker=\"{}\"}} {}",
                    w.index,
                    w.utilization()
                );
            }
        }
        out.push_str("# TYPE fcr_worker_jobs_total counter\n");
        for w in &rt.per_worker {
            let _ = writeln!(
                out,
                "fcr_worker_jobs_total{{worker=\"{}\"}} {}",
                w.index, w.jobs_executed
            );
        }
    }
    out
}

/// Appends the samples of one Prometheus `summary` metric: p50/p99
/// quantiles (interpolated, µs) when the histogram is non-empty, then
/// the mandatory `_sum`/`_count` pair. `labels` is either empty or a
/// ready `k="v"` list without braces.
pub(crate) fn prom_summary(
    out: &mut String,
    metric: &str,
    labels: &str,
    hist: &fcr_runtime::HistogramSnapshot,
) {
    for (q, qs) in [(0.50, "0.5"), (0.99, "0.99")] {
        if let Some(v) = hist.percentile_micros(q) {
            if labels.is_empty() {
                let _ = writeln!(out, "{metric}{{quantile=\"{qs}\"}} {v}");
            } else {
                let _ = writeln!(out, "{metric}{{{labels},quantile=\"{qs}\"}} {v}");
            }
        }
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{metric}_sum{braces} {}", hist.sum_micros);
    let _ = writeln!(out, "{metric}_count{braces} {}", hist.count);
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline must be escaped per the exposition format.
pub(crate) fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number for `v`: plain decimal for finite values, `null`
/// otherwise (JSON has no NaN/∞).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Crate-shared JSON number rendering (see [`num`]); the bench
/// envelope uses the same finite-or-`null` convention.
pub(crate) fn render_f64(v: f64) -> String {
    num(v)
}

fn push_f64_array(out: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&num(*v));
    }
}

/// Appends `s` as a JSON string literal with the mandatory escapes.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{GreedyRecord, SolveRecord};
    use crate::sink::TelemetrySink;
    use crate::Phase;
    use std::time::Duration;

    fn populated_snapshot() -> TelemetrySnapshot {
        let sink = TelemetrySink::new();
        for phase in Phase::ALL {
            sink.record_span(phase, Duration::from_micros(3));
        }
        sink.record_solve(SolveRecord {
            iterations: 42,
            converged: true,
            residual: 1e-15,
            lambda: vec![0.0, 0.25],
        });
        sink.record_greedy(GreedyRecord {
            steps: 2,
            gain: 1.5,
            upper_bound_gain: 2.0,
            gap_terms: vec![0.5],
        });
        sink.incr("greedy.inner_solves", 9);
        sink.record_shard(crate::ShardRecord {
            run: 1,
            window: 2,
            gop_start: 10,
            gops: 5,
            wall_ns: 1_234,
        });
        sink.record_resize(crate::ResizeEvent {
            from: 1,
            to: 2,
            queue_depth: 7,
            utilization: 0.5,
            trigger: crate::ResizeTrigger::Loop,
        });
        sink.snapshot()
    }

    #[test]
    fn jsonl_contains_every_phase_and_record_type() {
        let out = to_jsonl(&populated_snapshot(), None);
        for phase in Phase::ALL {
            assert!(
                out.contains(&format!("\"phase\":\"{}\"", phase.name())),
                "{} missing:\n{out}",
                phase.name()
            );
        }
        assert!(out.contains("\"type\":\"meta\""));
        assert!(out.contains("\"type\":\"solve\""));
        assert!(out.contains("\"iterations\":42"));
        assert!(out.contains("\"type\":\"greedy\""));
        assert!(out.contains("\"optimality_ratio\":0.75"));
        assert!(out.contains("\"type\":\"counter\""));
        assert!(out.contains("\"greedy.inner_solves\""));
        assert!(out.contains(
            "{\"type\":\"shard\",\"run\":1,\"window\":2,\"gop_start\":10,\"gops\":5,\"wall_ns\":1234}"
        ));
        assert!(out.contains(
            "{\"type\":\"resize\",\"from\":1,\"to\":2,\"queue_depth\":7,\"utilization\":0.5,\"trigger\":\"loop\"}"
        ));
        // No worker lines without a runtime snapshot.
        assert!(!out.contains("\"type\":\"worker\""));
    }

    #[test]
    fn every_line_is_balanced_json_object() {
        // Cheap structural check without a JSON parser: every line is a
        // single object with balanced braces/brackets and no raw
        // control characters.
        let out = to_jsonl(&populated_snapshot(), None);
        assert!(out.lines().count() >= 9, "meta + 6 phases + records");
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            let depth_ok = line
                .chars()
                .scan((0i32, 0i32), |(braces, brackets), c| {
                    match c {
                        '{' => *braces += 1,
                        '}' => *braces -= 1,
                        '[' => *brackets += 1,
                        ']' => *brackets -= 1,
                        _ => {}
                    }
                    Some((*braces, *brackets))
                })
                .last();
            assert_eq!(depth_ok, Some((0, 0)), "unbalanced: {line}");
        }
    }

    #[test]
    fn runtime_snapshot_adds_worker_and_pool_lines() {
        let rt = fcr_runtime::Runtime::with_config(fcr_runtime::RuntimeConfig {
            workers: 2,
            queue_capacity: 4,
            ..fcr_runtime::RuntimeConfig::default()
        });
        let outcomes = rt.run_batch((0u64..8).map(|i| move || i));
        assert!(outcomes.iter().all(Result::is_ok));
        let out = to_jsonl(&TelemetrySink::new().snapshot(), Some(&rt.snapshot()));
        assert_eq!(out.matches("\"type\":\"worker\"").count(), 2);
        assert!(out.contains("\"type\":\"pool\""));
        assert!(out.contains("\"utilization\":"));
    }

    #[test]
    fn overflowing_the_record_cap_is_loud_in_the_meta_line() {
        // Push past MAX_RECORDS on every channel and verify the drops
        // surface — individually and as the records_dropped total — in
        // the JSONL meta line instead of vanishing.
        let sink = TelemetrySink::new();
        for _ in 0..crate::MAX_RECORDS + 2 {
            sink.record_solve(SolveRecord {
                iterations: 1,
                converged: true,
                residual: 0.0,
                lambda: Vec::new(),
            });
        }
        for _ in 0..crate::MAX_RECORDS + 1 {
            sink.record_greedy(GreedyRecord {
                steps: 0,
                gain: 0.0,
                upper_bound_gain: 0.0,
                gap_terms: Vec::new(),
            });
        }
        for _ in 0..crate::MAX_RECORDS + 4 {
            sink.record_shard(crate::ShardRecord {
                run: 0,
                window: 0,
                gop_start: 0,
                gops: 1,
                wall_ns: 1,
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.records_dropped(), 7);
        let out = to_jsonl(&snap, None);
        let meta = out.lines().next().unwrap();
        assert_eq!(
            meta,
            "{\"type\":\"meta\",\"dropped_solves\":2,\"dropped_greedy\":1,\
             \"dropped_shards\":4,\"dropped_spans\":0,\"records_dropped\":7}"
        );
    }

    #[test]
    fn span_lines_render_parent_edges() {
        let root = crate::SpanRecord {
            id: 1,
            parent: None,
            phase: Phase::Solver,
            wall_ns: 500,
        };
        let child = crate::SpanRecord {
            id: 2,
            parent: Some(1),
            phase: Phase::GreedyAlloc,
            wall_ns: 120,
        };
        assert_eq!(
            span_line(&root),
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"phase\":\"solver\",\"wall_ns\":500}"
        );
        assert_eq!(
            span_line(&child),
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"phase\":\"greedy_alloc\",\"wall_ns\":120}"
        );
        let sink = TelemetrySink::new();
        sink.record_span_event(root);
        sink.record_span_event(child);
        let out = to_jsonl(&sink.snapshot(), None);
        assert!(out.contains("\"type\":\"span\""), "{out}");
        assert!(out.contains("\"parent\":null"), "{out}");
        assert!(out.contains("\"parent\":1"), "{out}");
    }

    #[test]
    fn prometheus_body_is_parseable_exposition_text() {
        let rt = fcr_runtime::Runtime::with_config(fcr_runtime::RuntimeConfig {
            workers: 2,
            queue_capacity: 4,
            ..fcr_runtime::RuntimeConfig::default()
        });
        let outcomes = rt.run_batch((0u64..8).map(|i| move || i));
        assert!(outcomes.iter().all(Result::is_ok));
        let out = to_prometheus(&populated_snapshot(), Some(&rt.snapshot()));

        // Every non-comment line is `name{labels} value` with a finite
        // number; every metric has a TYPE header.
        let mut samples = 0;
        for line in out.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE fcr_"), "{line}");
                continue;
            }
            samples += 1;
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(name.starts_with("fcr_"), "{line}");
            let v: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("bad value: {line}"));
            assert!(v.is_finite(), "{line}");
            if let Some(open) = name.find('{') {
                assert!(name.ends_with('}'), "{line}");
                let labels = &name[open + 1..name.len() - 1];
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').expect("k=v");
                    assert!(
                        !k.is_empty() && v.starts_with('"') && v.ends_with('"'),
                        "{line}"
                    );
                }
            }
        }
        assert!(samples > 20, "{out}");

        // The numbers match the JSONL export's sources.
        for phase in Phase::ALL {
            assert!(
                out.contains(&format!(
                    "fcr_phase_spans_total{{phase=\"{}\"}} 1",
                    phase.name()
                )),
                "{out}"
            );
        }
        assert!(out.contains("fcr_domain_counter_total{name=\"greedy.inner_solves\"} 9"));
        assert!(out.contains("fcr_pool_resizes_total 1"));
        assert!(out.contains("fcr_pool_jobs_completed_total 8"));
        assert!(out.contains("fcr_job_wall_us{quantile=\"0.5\"}"));
        assert!(out.contains("fcr_job_wall_us_count 8"));
        assert_eq!(out.matches("fcr_worker_jobs_total{worker=").count(), 2);
    }

    #[test]
    fn prometheus_quantiles_match_the_interpolated_percentiles() {
        let sink = TelemetrySink::new();
        for us in [10u64, 20, 30, 40, 5000] {
            sink.record_span(Phase::Solver, Duration::from_micros(us));
        }
        let snap = sink.snapshot();
        let wall = &snap.phase(Phase::Solver).wall;
        let p50 = wall.percentile_micros(0.50).unwrap();
        let p99 = wall.percentile_micros(0.99).unwrap();
        let out = to_prometheus(&snap, None);
        assert!(
            out.contains(&format!(
                "fcr_phase_wall_us{{phase=\"solver\",quantile=\"0.5\"}} {p50}"
            )),
            "{out}"
        );
        assert!(
            out.contains(&format!(
                "fcr_phase_wall_us{{phase=\"solver\",quantile=\"0.99\"}} {p99}"
            )),
            "{out}"
        );
        // Empty phases emit no quantile samples but keep _sum/_count.
        assert!(
            !out.contains("fcr_phase_wall_us{phase=\"sensing\",quantile"),
            "{out}"
        );
        assert!(
            out.contains("fcr_phase_wall_us_count{phase=\"sensing\"} 0"),
            "{out}"
        );
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(prom_label_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(prom_label_escape("x\ny"), "x\\ny");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(0.5), "0.5");
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
