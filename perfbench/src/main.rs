//! End-to-end and per-layer benchmark of the fcr workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_interfering|massive_n1000|serve_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process on at most two threads; its
//! inputs are a pure function of `--seed`. With `--trace 0` the last
//! stdout line is one JSON object carrying the end-to-end metrics of
//! `BENCHMARK.json`; with `--trace 1` it carries the per-layer metrics
//! of a separate traced run, and the spans go to
//! `perfbench/traces/<workload>-<seed>.jsonl`. Every end-to-end timing
//! is calibrated to a nominal host speed (`host.rs`). `NOTES.md`
//! explains the workloads and the measured spreads.

mod host;
mod massive;
mod measure;
mod paper;
mod serve;
mod trace;

use fcr_sim::{RunResult, Scenario};
use fcr_stats::descriptive::median;
use fcr_video::sequences::Scalability;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("objective_mean", "log-dB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (zero where the layer does not run on that workload). Times are
/// self times per op.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.greedy_ms", "ms/op"),
    ("core.greedy_steps", "count/op"),
    ("core.greedy_calls", "count/op"),
    ("core.solver_ms", "ms/op"),
    ("core.partition_ms", "ms/op"),
    ("core.merge_ms", "ms/op"),
    ("core.dual_ms", "ms/op"),
    ("core.dual_iterations", "count/op"),
    ("core.polish_ms", "ms/op"),
    ("sim.engine_ms", "ms/op"),
    ("spectrum.sensing_ms", "ms/op"),
    ("spectrum.fusion_ms", "ms/op"),
    ("spectrum.access_ms", "ms/op"),
    ("video.credit_ms", "ms/op"),
    ("serve.admit_ms", "ms/op"),
    ("serve.admit_ratio", "ratio"),
    ("serve.step_ms", "ms/op"),
    ("serve.windows_per_step", "count/step"),
    ("serve.handover_ms", "ms/op"),
    ("serve.handover_calls", "count/op"),
    ("serve.retire_ms", "ms/op"),
    ("serve.wasted_window_ratio", "ratio"),
    ("runtime.job_ms", "ms/op"),
    ("runtime.jobs", "count/op"),
    ("runtime.dispatch_ms", "ms/op"),
    ("scenario.parse_ms", "ms"),
    ("scenario.schedule_ms", "ms"),
    ("scenario.spec_ms", "ms/op"),
    ("telemetry.closure", "ratio"),
    ("telemetry.residual_ms", "ms/op"),
    ("telemetry.overhead", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measurement budget of one run.
    pub budget: Duration,
    /// `true` for the traced per-layer run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value:?}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                },
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            budget: Duration::from_secs(seconds),
            trace: trace.ok_or("missing --trace")?,
        })
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        perfbench_dir()
            .join("traces")
            .join(format!("{}-{}.jsonl", self.workload, self.seed))
    }
}

/// This package's directory in the checkout it was built from.
pub fn perfbench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Reads `scenarios/<name>.json` from the checkout.
pub fn read_pack(name: &str) -> String {
    let path = perfbench_dir()
        .join("../scenarios")
        .join(format!("{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every per-user PSNR of `r` is finite, positive and within its
/// stream's full-quality ceiling.
pub fn psnrs_capped(r: &RunResult, scenario: &Scenario, scalability: Scalability) -> bool {
    r.per_user_psnr.len() == scenario.users.len()
        && r.per_user_psnr.iter().zip(&scenario.users).all(|(p, u)| {
            let cap = u.sequence.max_psnr_for(scalability).db();
            p.is_finite() && *p > 0.0 && *p <= cap * (1.0 + 1e-12)
        })
}

/// The paper's proportional-fair objective `Σ_j ln PSNR_j`.
pub fn objective(r: &RunResult) -> f64 {
    r.per_user_psnr.iter().map(|p| p.ln()).sum()
}

/// A run's result line.
#[derive(Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// End-to-end observations of one untraced run. Every time in it is
/// calibrated to the nominal host speed, except `busy.measured` and
/// `cpu`.
#[derive(Debug)]
pub struct EndToEnd {
    /// Median set-up time, warm-up included.
    pub setup: Duration,
    /// Ops the loop attempted.
    pub ops: u64,
    /// Latency of every op that completed, ms.
    pub latencies_ms: Vec<f64>,
    /// Time the ops ran, the denominator of `ops_per_s`.
    pub busy: measure::Busy,
    /// Process CPU time of the measurement loop less the host samples
    /// taken in it, as measured; calibrated by `busy`'s factor.
    pub cpu: Duration,
    /// The tail latency this workload reports, ms (NOTES.md names the
    /// percentile of each workload).
    pub tail_ms: f64,
    /// Ops that passed their checks and were not refused, retired or
    /// shed.
    pub ok: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Mean per-op objective `Σ_j ln PSNR_j` over a fixed op prefix.
    pub objective_mean: f64,
    /// Every whole-run check held too.
    pub checks_hold: bool,
}

impl EndToEnd {
    /// The end-to-end report.
    pub fn report(self) -> Report {
        let ops = self.ops as f64;
        eprintln!(
            "host calibration: the ops ran {:.3} s, {:.3} s at nominal host speed (factor {:.3})",
            self.busy.measured,
            self.busy.calibrated,
            self.busy.scale()
        );
        let metrics = BTreeMap::from([
            ("setup_s", self.setup.as_secs_f64()),
            (
                "ops_per_s",
                self.latencies_ms.len() as f64 / self.busy.calibrated,
            ),
            (
                "op_p50_ms",
                median(&self.latencies_ms).expect("every run times at least one op"),
            ),
            ("op_tail_ms", self.tail_ms),
            (
                "cpu_ms_per_op",
                self.cpu.as_secs_f64() * self.busy.scale() * 1e3 / ops,
            ),
            ("peak_rss_mb", measure::peak_rss_mb()),
            ("ok_ratio", self.ok as f64 / ops),
            ("objective_mean", self.objective_mean),
        ]);
        Report {
            correct: self.failed == 0 && self.checks_hold,
            attempted: self.ops,
            failed: self.failed,
            metrics,
        }
    }
}

impl Report {
    /// Renders the result line; every metric of the mode's list is
    /// present (per-layer metrics default to zero).
    fn to_json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Per-op self time of each traced layer under its `<layer>_ms` metric,
/// plus the closure of those layers against the spans named `root`.
/// Spans without a matching metric (the roots) only bound the closure.
pub fn layer_metrics(tracer: &trace::Tracer, root: &str, ops: f64) -> BTreeMap<&'static str, f64> {
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops;
    let mut out = BTreeMap::new();
    for (span, ns) in tracer.self_ns() {
        if let Some((name, _)) = PER_LAYER
            .iter()
            .find(|(name, _)| name.strip_suffix("_ms") == Some(span))
        {
            out.insert(*name, per_op_ms(ns));
        }
    }
    let (covered, total) = tracer.closure(root);
    out.insert("telemetry.closure", covered as f64 / total as f64);
    out.insert("telemetry.residual_ms", per_op_ms(total - covered));
    out
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper_interfering" => paper::run(args),
        "massive_n1000" => massive::run(args),
        "serve_churn" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?} (expected paper_interfering, massive_n1000 or serve_churn)"
        )),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", report.to_json(names));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcr_telemetry::json::Json;

    fn list(doc: &Json, key: &str) -> Vec<(String, String)> {
        let items = doc
            .fields()
            .and_then(|f| f.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.items())
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
        items
            .iter()
            .map(|m| {
                let field = |name: &str| {
                    m.fields()
                        .and_then(|f| f.iter().find(|(k, _)| k == name))
                        .and_then(|(_, v)| v.as_str())
                        .expect("metric has name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(perfbench_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |names: &[(&str, &str)]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(list(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn args_parse_the_benchmark_flags_and_reject_others() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = Args::parse(argv(
            "--workload serve_churn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.budget.as_secs(), a.trace),
            ("serve_churn", 7, 10, true)
        );
        assert!(Args::parse(argv("--workload x --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(Args::parse(argv("--workload x --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(Args::parse(argv("--workload x --seed 7 --trace 0")).is_err());
        assert!(Args::parse(argv("--bogus 1")).is_err());
    }

    #[test]
    fn report_lists_every_metric_of_its_mode() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: BTreeMap::from([("core.greedy_ms", 1.5)]),
        };
        let line = report.to_json(&PER_LAYER);
        let doc = Json::parse(&line).expect("valid JSON");
        let metrics = doc
            .fields()
            .and_then(|f| f.iter().find(|(k, _)| k == "metrics"))
            .and_then(|(_, v)| v.fields())
            .expect("metrics object");
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(line.contains("\"core.greedy_ms\":{\"value\":1.5,\"unit\":\"ms/op\"}"));
    }
}
