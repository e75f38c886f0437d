//! Rendering helpers for experiment results: the Fig. 3-style
//! per-user/per-scheme tables and the live worker-pool telemetry
//! table, shared by the `experiments` binary and downstream users of
//! the library.

use crate::metrics::SchemeSummary;
use crate::scheme::Scheme;
use fcr_runtime::MetricsSnapshot;
use fcr_telemetry::TelemetrySnapshot;
use std::fmt::Write as _;

/// Renders a per-user comparison table (rows = users + mean + Jain,
/// columns = schemes), the layout of the paper's Fig. 3.
///
/// `user_labels` names the rows; every summary must cover the same
/// number of users.
///
/// # Panics
///
/// Panics if the inputs disagree on user counts or the scheme/summary
/// lists differ in length.
pub fn per_user_table(
    user_labels: &[String],
    schemes: &[Scheme],
    summaries: &[SchemeSummary],
) -> String {
    assert_eq!(schemes.len(), summaries.len(), "one summary per scheme");
    for s in summaries {
        assert_eq!(
            s.per_user.len(),
            user_labels.len(),
            "summary covers a different user count"
        );
    }
    let mut out = String::new();
    let _ = write!(out, "{:>12}", "User");
    for s in schemes {
        let _ = write!(out, " {:>24}", s.name());
    }
    let _ = writeln!(out);
    for (j, label) in user_labels.iter().enumerate() {
        let _ = write!(out, "{label:>12}");
        for s in summaries {
            let ci = &s.per_user[j];
            let _ = write!(out, " {:>15.2} ± {:>5.2}", ci.mean(), ci.half_width());
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:>12}", "mean");
    for s in summaries {
        let _ = write!(
            out,
            " {:>15.2} ± {:>5.2}",
            s.overall.mean(),
            s.overall.half_width()
        );
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:>12}", "Jain");
    for s in summaries {
        let _ = write!(out, " {:>23.4}", s.jain);
    }
    let _ = writeln!(out);
    out
}

/// Renders a compact scheme-summary list (mean ± CI, collision rate,
/// Jain) — the quickstart-style report.
pub fn scheme_list(schemes: &[Scheme], summaries: &[SchemeSummary]) -> String {
    assert_eq!(schemes.len(), summaries.len(), "one summary per scheme");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>12} {:>8}",
        "Scheme", "mean Y-PSNR", "collisions", "Jain"
    );
    for (scheme, s) in schemes.iter().zip(summaries) {
        let _ = writeln!(
            out,
            "{:<18} {:>7.2} ± {:<4.2} {:>12.4} {:>8.4}",
            scheme.name(),
            s.overall.mean(),
            s.overall.half_width(),
            s.collision.mean(),
            s.jain
        );
    }
    out
}

/// Renders a live snapshot of the shared simulation pool: worker
/// count, job counters, queue state, the job wall-time histogram
/// (occupied buckets only), and every registered domain counter
/// (`slots_simulated`, `solver_invocations`, ...).
pub fn runtime_metrics_table(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "runtime pool ({} workers)", snapshot.workers);
    let rows: [(&str, u64); 6] = [
        ("jobs submitted", snapshot.jobs_submitted),
        ("jobs completed", snapshot.jobs_completed),
        ("jobs failed", snapshot.jobs_failed),
        ("jobs rejected", snapshot.jobs_rejected),
        ("queue depth", snapshot.queue_depth),
        ("in flight", snapshot.jobs_in_flight),
    ];
    for (label, value) in rows {
        let _ = writeln!(out, "  {label:<20} {value:>12}");
    }
    let _ = writeln!(
        out,
        "  {:<20} {:>12.1}",
        "jobs/sec",
        snapshot.jobs_per_sec()
    );
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "  {name:<20} {value:>12}");
    }
    // Intra-run sharding: how the session cut runs into slot-window
    // jobs (the counters are registered on first sharded session).
    if let (Some(shards), Some(slots)) = (
        snapshot.counter(crate::pool::SHARDS_COUNTER),
        snapshot.counter(crate::pool::SLOTS_COUNTER),
    ) {
        if shards > 0 {
            let _ = writeln!(
                out,
                "  shard stats: {shards} shards executed, {:.1} slots/shard",
                slots as f64 / shards as f64,
            );
        }
    }
    let wall = &snapshot.job_wall_time;
    let _ = writeln!(
        out,
        "  job wall time: n={} mean={:.0}us min={}us max={}us",
        wall.count,
        wall.mean_micros(),
        wall.min_micros.unwrap_or(0),
        wall.max_micros,
    );
    for (upper, count) in wall.occupied_buckets() {
        if upper == u64::MAX {
            let _ = writeln!(out, "    {:>12} {count:>10}", "   overflow");
        } else {
            let _ = writeln!(out, "    < {upper:>8}us {count:>10}");
        }
    }
    if !snapshot.per_worker.is_empty() {
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>12} {:>10}",
            "worker", "jobs", "busy (ms)", "util"
        );
        for w in &snapshot.per_worker {
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>12.2} {:>9.1}%",
                w.index,
                w.jobs_executed,
                w.busy_ns as f64 / 1e6,
                100.0 * w.utilization(),
            );
        }
    }
    out
}

/// Renders a telemetry snapshot as human-readable tables: per-phase
/// span timings, the dual-solver convergence summary, the eq.-(23)
/// greedy optimality bookkeeping, and named counters.
pub fn telemetry_table(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>12} {:>12}",
        "phase", "spans", "total (ms)", "mean (us)", "max (us)"
    );
    for (phase, stats) in &snapshot.phases {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12.2} {:>12.1} {:>12.1}",
            phase.name(),
            stats.count,
            stats.total_ns as f64 / 1e6,
            stats.mean_ns() / 1e3,
            stats.max_ns as f64 / 1e3,
        );
    }
    if !snapshot.solves.is_empty() {
        let max_iter = snapshot
            .solves
            .iter()
            .map(|s| s.iterations)
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "dual solver: {} solves, {:.1} mean iterations, max {}, {:.1}% converged{}",
            snapshot.solves.len(),
            snapshot.mean_iterations().unwrap_or(0.0),
            max_iter,
            100.0 * snapshot.convergence_rate().unwrap_or(0.0),
            if snapshot.dropped_solves > 0 {
                format!(" ({} dropped)", snapshot.dropped_solves)
            } else {
                String::new()
            },
        );
    }
    if !snapshot.greedy.is_empty() {
        let n = snapshot.greedy.len() as f64;
        let mean_ratio: f64 = snapshot
            .greedy
            .iter()
            .map(fcr_telemetry::GreedyRecord::optimality_ratio)
            .sum::<f64>()
            / n;
        let mean_gap: f64 = snapshot
            .greedy
            .iter()
            .map(fcr_telemetry::GreedyRecord::gap)
            .sum::<f64>()
            / n;
        let _ = writeln!(
            out,
            "greedy (Table III): {} runs, mean eq.(23) gap {:.3} dB, \
             mean guaranteed ratio {:.3}{}",
            snapshot.greedy.len(),
            mean_gap,
            mean_ratio,
            if snapshot.dropped_greedy > 0 {
                format!(" ({} dropped)", snapshot.dropped_greedy)
            } else {
                String::new()
            },
        );
    }
    if !snapshot.shards.is_empty() {
        let _ = writeln!(
            out,
            "shards: {} executed, mean wall {:.2} ms{}",
            snapshot.shards.len(),
            snapshot.mean_shard_wall_ns().unwrap_or(0.0) / 1e6,
            if snapshot.dropped_shards > 0 {
                format!(" ({} dropped)", snapshot.dropped_shards)
            } else {
                String::new()
            },
        );
    }
    for r in &snapshot.resizes {
        let _ = writeln!(
            out,
            "  pool resize {} -> {} [{}] (queue {}, util {:.0}%)",
            r.from,
            r.to,
            r.trigger.name(),
            r.queue_depth,
            100.0 * r.utilization,
        );
    }
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "  {name:<24} {value:>12}");
    }
    if snapshot.records_dropped() > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} telemetry records dropped past the {}-record cap \
             (solves {}, greedy {}, shards {}); per-record channels are \
             truncated, aggregates remain complete",
            snapshot.records_dropped(),
            fcr_telemetry::MAX_RECORDS,
            snapshot.dropped_solves,
            snapshot.dropped_greedy,
            snapshot.dropped_shards,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunResult;

    fn summary() -> SchemeSummary {
        let runs = vec![
            RunResult {
                per_user_psnr: vec![34.0, 30.0],
                collision_rate: 0.18,
                mean_expected_available: 2.0,
                mean_greedy_objective: None,
                mean_eq23_bound: None,
            },
            RunResult {
                per_user_psnr: vec![35.0, 31.0],
                collision_rate: 0.19,
                mean_expected_available: 2.1,
                mean_greedy_objective: None,
                mean_eq23_bound: None,
            },
        ];
        SchemeSummary::from_runs(&runs)
    }

    #[test]
    fn per_user_table_has_all_rows_and_columns() {
        let labels = vec!["1 (Bus)".to_string(), "2 (Mobile)".to_string()];
        let out = per_user_table(&labels, &[Scheme::Proposed], &[summary()]);
        assert!(out.contains("Proposed scheme"));
        assert!(out.contains("1 (Bus)"));
        assert!(out.contains("2 (Mobile)"));
        assert!(out.contains("mean"));
        assert!(out.contains("Jain"));
        assert_eq!(out.lines().count(), 5);
        assert!(out.contains("34.50"), "per-user mean rendered:\n{out}");
    }

    #[test]
    fn scheme_list_has_one_row_per_scheme() {
        let out = scheme_list(
            &[Scheme::Proposed, Scheme::Heuristic1],
            &[summary(), summary()],
        );
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("Heuristic 1"));
        assert!(out.contains("0.185"), "collision mean rendered:\n{out}");
    }

    #[test]
    #[should_panic(expected = "one summary per scheme")]
    fn mismatched_lengths_panic() {
        let _ = scheme_list(&[Scheme::Proposed], &[]);
    }

    #[test]
    #[should_panic(expected = "different user count")]
    fn mismatched_user_counts_panic() {
        let labels = vec!["only one".to_string()];
        let _ = per_user_table(&labels, &[Scheme::Proposed], &[summary()]);
    }

    #[test]
    fn runtime_metrics_table_lists_counters_and_histogram() {
        use crate::config::SimConfig;
        use crate::pool::{self, SLOTS_COUNTER};
        use crate::scenario::Scenario;
        use crate::session::SimSession;
        use fcr_runtime::ShardPolicy;

        // Push at least one real sharded run through the shared pool so
        // every section of the table (including shard stats) has data.
        let config = SimConfig {
            gops: 2,
            ..SimConfig::default()
        };
        let result = SimSession::new(Scenario::single_fbs(&config))
            .config(config)
            .runs(1)
            .seed(7)
            .shards(ShardPolicy::Windows(1))
            .run(Scheme::Proposed);
        assert!(result.outcomes()[0].is_ok());
        let snap = pool::snapshot();
        let out = runtime_metrics_table(&snap);
        assert!(out.contains("runtime pool ("), "header rendered:\n{out}");
        for label in [
            "jobs submitted",
            "jobs completed",
            "jobs failed",
            "queue depth",
            "jobs/sec",
            SLOTS_COUNTER,
            "solver_invocations",
            "shard stats:",
            "slots/shard",
            "job wall time:",
        ] {
            assert!(out.contains(label), "{label} rendered:\n{out}");
        }
        assert!(
            out.lines().count() >= 13,
            "counter rows + histogram rows:\n{out}"
        );
        // Per-worker utilization rows (one header + one per worker).
        assert!(
            out.contains("worker"),
            "per-worker section rendered:\n{out}"
        );
        assert!(out.contains("util"), "utilization column rendered:\n{out}");
    }

    #[test]
    fn telemetry_table_renders_all_sections() {
        use fcr_telemetry::{GreedyRecord, Phase, SolveRecord, TelemetrySink};
        use std::time::Duration;

        let sink = TelemetrySink::new();
        sink.record_span(Phase::Sensing, Duration::from_micros(40));
        sink.record_span(Phase::Solver, Duration::from_micros(120));
        sink.record_solve(SolveRecord {
            iterations: 200,
            converged: true,
            residual: 1e-14,
            lambda: vec![0.0, 0.1],
        });
        sink.record_greedy(GreedyRecord {
            steps: 2,
            gain: 1.5,
            upper_bound_gain: 2.0,
            gap_terms: vec![0.3, 0.2],
        });
        sink.incr("greedy.inner_solves", 12);
        sink.record_shard(fcr_telemetry::ShardRecord {
            run: 0,
            window: 0,
            gop_start: 0,
            gops: 2,
            wall_ns: 2_000_000,
        });
        sink.record_resize(fcr_telemetry::ResizeEvent {
            from: 1,
            to: 2,
            queue_depth: 3,
            utilization: 0.9,
            trigger: fcr_telemetry::ResizeTrigger::Loop,
        });
        let out = telemetry_table(&sink.snapshot());
        for needle in [
            "phase",
            "sensing",
            "fusion",
            "access",
            "solver",
            "greedy_alloc",
            "video_credit",
            "dual solver: 1 solves",
            "greedy (Table III): 1 runs",
            "greedy.inner_solves",
            "shards: 1 executed, mean wall 2.00 ms",
            "pool resize 1 -> 2 [loop] (queue 3, util 90%)",
        ] {
            assert!(out.contains(needle), "{needle} rendered:\n{out}");
        }
        assert!(
            out.contains("100.0% converged"),
            "convergence rate rendered:\n{out}"
        );
        assert!(
            !out.contains("records dropped"),
            "no drop warning below the cap:\n{out}"
        );
    }

    #[test]
    fn telemetry_table_warns_when_records_were_dropped() {
        use fcr_telemetry::{GreedyRecord, TelemetrySink, MAX_RECORDS};

        let sink = TelemetrySink::new();
        for _ in 0..MAX_RECORDS + 5 {
            sink.record_greedy(GreedyRecord {
                steps: 1,
                gain: 0.5,
                upper_bound_gain: 1.0,
                gap_terms: vec![0.5],
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.records_dropped(), 5);
        let out = telemetry_table(&snap);
        assert!(
            out.contains("(5 dropped)"),
            "greedy line shows its drop count:\n{out}"
        );
        assert!(
            out.contains("WARNING: 5 telemetry records dropped"),
            "cap overflow is loud:\n{out}"
        );
    }
}
