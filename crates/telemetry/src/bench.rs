//! The machine-readable benchmark envelope: one shared schema for
//! every `BENCH_<area>.json` artifact the workspace emits, and the
//! metric list every format of a service or pool snapshot is rendered
//! from.
//!
//! The envelope (schema version, area, workload parameters, seed, wall
//! seconds, metrics) is what the `fcr-bench` runner writes and its
//! budget gate reads. The perf trajectory stays comparable across
//! changes because the shape is versioned here, in one place.
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "area": "serve",
//!   "seed": 24077,
//!   "wall_seconds": 30.012,
//!   "workload": { "target_sessions": 10000, "scale": "full" },
//!   "metrics": { "sessions_per_sec": 91.7, "step_p99_us": 41000, ... }
//! }
//! ```
//!
//! `workload` describes what was run (scale knobs, so two artifacts
//! are only compared like for like); `metrics` is the flat name →
//! number map the `fcr-bench check` budget gate diffs against
//! `bench/budgets.json`.
//!
//! A [`Metric`] list names each counter and gauge of a snapshot once.
//! The JSONL line ([`crate::metrics_to_json_line`]), the Prometheus
//! exposition ([`crate::metrics_to_prometheus`]) and the envelope
//! ([`BenchEnvelope::metric_list`]) all walk the same list, so a metric
//! carries one name and one value in every format.

use crate::export::{push_json_string, render_f64};
use std::fmt::Write as _;

/// Version of the `BENCH_<area>.json` envelope shape. Bump when a
/// field is renamed, removed, or changes meaning; adding new metric
/// keys is backward compatible and does not bump it.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// One value in the envelope's `workload` or `metrics` maps.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchValue {
    /// An exact integer (counts, microseconds, bytes).
    U64(u64),
    /// A measured rate or ratio; non-finite values render as `null`.
    F64(f64),
    /// A flag.
    Bool(bool),
    /// A label (scheme name, scale name, …).
    Str(String),
    /// Explicitly absent (e.g. a percentile of an empty histogram).
    Null,
}

impl BenchValue {
    /// Appends the value as a JSON value.
    pub(crate) fn render(&self, out: &mut String) {
        match self {
            BenchValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            BenchValue::F64(v) => out.push_str(&render_f64(*v)),
            BenchValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            BenchValue::Str(s) => push_json_string(out, s),
            BenchValue::Null => out.push_str("null"),
        }
    }

    /// The value as `f64`, if comparable: `U64` is widened and `Bool`
    /// maps to 1/0, so invariant flags like `accounting_holds` can be
    /// budget-gated and exported as Prometheus samples.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            BenchValue::U64(v) => Some(*v as f64),
            BenchValue::F64(v) => Some(*v),
            BenchValue::Bool(v) => Some(if *v { 1.0 } else { 0.0 }),
            BenchValue::Str(_) | BenchValue::Null => None,
        }
    }
}

/// How a metric moves: a counter only grows, a gauge moves both ways.
/// Prometheus types the sample by it and suffixes counters `_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically growing count.
    Counter,
    /// A level that can rise and fall.
    Gauge,
}

/// One entry of a snapshot's metric list: the name every format uses,
/// its kind, and its value. A `Null` value renders as JSON `null` and
/// has no Prometheus sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's one name (Prometheus prefixes it).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The measured value.
    pub value: BenchValue,
}

impl Metric {
    /// A counter entry.
    pub fn counter(name: &'static str, value: impl Into<BenchValue>) -> Self {
        Metric {
            name,
            kind: MetricKind::Counter,
            value: value.into(),
        }
    }

    /// A gauge entry.
    pub fn gauge(name: &'static str, value: impl Into<BenchValue>) -> Self {
        Metric {
            name,
            kind: MetricKind::Gauge,
            value: value.into(),
        }
    }
}

impl From<u64> for BenchValue {
    fn from(v: u64) -> Self {
        BenchValue::U64(v)
    }
}

impl From<usize> for BenchValue {
    fn from(v: usize) -> Self {
        BenchValue::U64(v as u64)
    }
}

impl From<u32> for BenchValue {
    fn from(v: u32) -> Self {
        BenchValue::U64(u64::from(v))
    }
}

impl From<f64> for BenchValue {
    fn from(v: f64) -> Self {
        BenchValue::F64(v)
    }
}

impl From<bool> for BenchValue {
    fn from(v: bool) -> Self {
        BenchValue::Bool(v)
    }
}

impl From<&str> for BenchValue {
    fn from(v: &str) -> Self {
        BenchValue::Str(v.to_string())
    }
}

impl<T: Into<BenchValue>> From<Option<T>> for BenchValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(BenchValue::Null, Into::into)
    }
}

/// One `BENCH_<area>.json` artifact under construction: the common
/// envelope plus the area's workload parameters and measured metrics.
/// Built with the fluent setters, rendered with
/// [`BenchEnvelope::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEnvelope {
    /// Envelope shape version ([`BENCH_SCHEMA_VERSION`] unless parsed
    /// from an older artifact).
    pub schema_version: u32,
    /// The benchmark area (`solver`, `runtime`, `serve`, …).
    pub area: String,
    /// Master seed the workload derived its randomness from.
    pub seed: u64,
    /// Measured wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Scale knobs describing *what* ran, in insertion order.
    pub workload: Vec<(String, BenchValue)>,
    /// Measured metric name → value map, in insertion order. These are
    /// the keys `bench/budgets.json` budgets refer to.
    pub metrics: Vec<(String, BenchValue)>,
}

impl BenchEnvelope {
    /// A fresh envelope for `area` at the current schema version.
    pub fn new(area: &str, seed: u64) -> Self {
        BenchEnvelope {
            schema_version: BENCH_SCHEMA_VERSION,
            area: area.to_string(),
            seed,
            wall_seconds: 0.0,
            workload: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Sets the measured wall-clock seconds.
    pub fn wall_seconds(mut self, seconds: f64) -> Self {
        self.wall_seconds = seconds;
        self
    }

    /// Appends one workload parameter.
    pub fn workload(mut self, name: &str, value: impl Into<BenchValue>) -> Self {
        self.workload.push((name.to_string(), value.into()));
        self
    }

    /// Appends one measured metric.
    pub fn metric(mut self, name: &str, value: impl Into<BenchValue>) -> Self {
        self.metrics.push((name.to_string(), value.into()));
        self
    }

    /// Appends every entry of a snapshot's metric list under its name.
    pub fn metric_list(mut self, metrics: Vec<Metric>) -> Self {
        self.metrics
            .extend(metrics.into_iter().map(|m| (m.name.to_string(), m.value)));
        self
    }

    /// The metric's value as `f64`, if present and comparable (see
    /// [`BenchValue::as_f64`]) — what the budget gate compares against.
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
    }

    /// The canonical artifact file name: `BENCH_<area>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.area)
    }

    /// Renders the artifact: a small pretty-printed JSON object (2-space
    /// indent, trailing newline) so committed artifacts diff cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        out.push_str("  \"area\": ");
        push_json_string(&mut out, &self.area);
        out.push_str(",\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            out,
            "  \"wall_seconds\": {},",
            render_f64(self.wall_seconds)
        );
        render_map(&mut out, "workload", &self.workload);
        out.push_str(",\n");
        render_map(&mut out, "metrics", &self.metrics);
        out.push_str("\n}\n");
        out
    }
}

fn render_map(out: &mut String, name: &str, entries: &[(String, BenchValue)]) {
    let _ = write!(out, "  \"{name}\": {{");
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(out, k);
        out.push_str(": ");
        v.render(out);
    }
    if entries.is_empty() {
        out.push('}');
    } else {
        out.push_str("\n  }");
    }
}

/// Peak resident set size (`VmHWM`) of this process in kB from
/// `/proc`, or 0 where unavailable (non-Linux hosts). Process-wide
/// high-water mark: in a multi-area `fcr-bench run` it is attributed
/// to every area run so far, which is the conservative reading.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchEnvelope {
        BenchEnvelope::new("solver", 7)
            .wall_seconds(1.25)
            .workload("runs", 10u64)
            .workload("scale", "smoke")
            .metric("slots_per_sec", 1234.5)
            .metric("p99_us", 890u64)
            .metric("p50_us", Option::<u64>::None)
            .metric("degraded", false)
    }

    #[test]
    fn envelope_renders_the_shared_shape() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n  \"schema_version\": 1,\n"), "{json}");
        assert!(json.contains("\"area\": \"solver\""), "{json}");
        assert!(json.contains("\"seed\": 7"), "{json}");
        assert!(json.contains("\"wall_seconds\": 1.25"), "{json}");
        assert!(json.contains("\"runs\": 10"), "{json}");
        assert!(json.contains("\"scale\": \"smoke\""), "{json}");
        assert!(json.contains("\"slots_per_sec\": 1234.5"), "{json}");
        assert!(json.contains("\"p50_us\": null"), "{json}");
        assert!(json.contains("\"degraded\": false"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
        // Balanced braces — a cheap structural check.
        let depth: i64 = json
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(depth, 0, "{json}");
    }

    #[test]
    fn metric_value_widens_integers_and_skips_non_numbers() {
        let e = sample();
        assert_eq!(e.metric_value("slots_per_sec"), Some(1234.5));
        assert_eq!(e.metric_value("p99_us"), Some(890.0));
        assert_eq!(e.metric_value("p50_us"), None);
        assert_eq!(e.metric_value("degraded"), Some(0.0));
        assert_eq!(e.metric_value("missing"), None);
    }

    #[test]
    fn file_name_follows_the_convention() {
        assert_eq!(sample().file_name(), "BENCH_solver.json");
        assert_eq!(
            BenchEnvelope::new("serve", 0).file_name(),
            "BENCH_serve.json"
        );
    }

    #[test]
    fn empty_maps_render_as_empty_objects() {
        let json = BenchEnvelope::new("x", 0).to_json();
        assert!(json.contains("\"workload\": {}"), "{json}");
        assert!(json.contains("\"metrics\": {}"), "{json}");
    }

    #[test]
    fn peak_rss_reports_something_on_linux() {
        // On the Linux CI/container this is the live VmHWM; elsewhere 0.
        let _ = peak_rss_kb();
    }
}
