//! The traced run's span recorder. Spans are taken by this benchmark
//! around calls into the library's public functions, plus the six
//! `fcr_telemetry` phase aggregates the library already keeps; nothing
//! is traced inside the program beyond what it records itself.

use fcr_telemetry::{Phase, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Phase aggregates and pool job totals have a
/// duration but no start of their own (`start_ns == None`).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.greedy` (the per-layer metric stem).
    pub name: &'static str,
    /// Start, in ns since the tracer was built.
    pub start_ns: Option<u64>,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (or session ordinal) the span belongs to.
    pub op: Option<u64>,
}

/// In-memory span store, written out once at the end of the run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// The telemetry phase each layer name stands for.
const PHASES: [(Phase, &str); 6] = [
    (Phase::Sensing, "spectrum.sensing"),
    (Phase::Fusion, "spectrum.fusion"),
    (Phase::Access, "spectrum.access"),
    (Phase::Solver, "core.solver"),
    (Phase::GreedyAlloc, "core.greedy"),
    (Phase::VideoCredit, "video.credit"),
];

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: Option<u64>) -> usize {
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: Some(start),
            dur_ns: 0,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, fixing its duration.
    pub fn close(&mut self, id: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns.expect("only opened spans close");
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Files a span whose duration was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: Option<u64>,
        dur_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: None,
            dur_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Drains the telemetry the library recorded since the last drain
    /// and files each non-empty phase total under `parent`. The slot
    /// decision opens its `GreedyAlloc` span inside its `Solver` span,
    /// so greedy time is filed under the solver's record. Returns the
    /// drained snapshot for its convergence records.
    pub fn attach_phases(&mut self, parent: Option<usize>, op: Option<u64>) -> TelemetrySnapshot {
        let snap = fcr_telemetry::drain();
        let mut solver = None;
        for (phase, name) in PHASES {
            let total = snap.phase(phase).total_ns;
            if total == 0 {
                continue;
            }
            let under = if phase == Phase::GreedyAlloc {
                solver.or(parent)
            } else {
                parent
            };
            let id = self.record(name, under, op, total);
            if phase == Phase::Solver {
                solver = Some(id);
            }
        }
        snap
    }

    /// Each span's duration minus what its children cover.
    fn own_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, covered)| span.dur_ns.saturating_sub(covered))
            .collect()
    }

    /// Self time per layer name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.own_ns()) {
            *out.entry(span.name).or_insert(0) += own;
        }
        out
    }

    /// `(covered, total)` ns: the self time of every span below a span
    /// named `root`, and the summed duration of those roots. Spans not
    /// under a root (work on other threads) count in neither.
    pub fn closure(&self, root: &str) -> (u64, u64) {
        let under_root = |mut at: Option<usize>| {
            while let Some(i) = at {
                if self.spans[i].name == root {
                    return true;
                }
                at = self.spans[i].parent;
            }
            false
        };
        let mut covered = 0;
        let mut total = 0;
        for (span, own) in self.spans.iter().zip(self.own_ns()) {
            if span.name == root {
                total += span.dur_ns;
            } else if under_root(span.parent) {
                covered += own;
            }
        }
        (covered, total)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"dur_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                opt(s.start_ns),
                opt(s.start_ns.map(|t| t + s.dur_ns)),
                s.dur_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_closure_stays_under_roots() {
        let mut t = Tracer::default();
        let root = t.record("op", None, Some(0), 100);
        let call = t.record("sim.engine", Some(root), Some(0), 90);
        let solver = t.record("core.solver", Some(call), Some(0), 60);
        t.record("core.greedy", Some(solver), Some(0), 50);
        t.record("video.credit", None, None, 7);
        let selves = t.self_ns();
        assert_eq!(selves["sim.engine"], 30);
        assert_eq!(selves["core.solver"], 10);
        assert_eq!(selves["core.greedy"], 50);
        assert_eq!(selves["op"], 10);
        // The detached span is outside every root: it counts in
        // neither side of the closure.
        assert_eq!(t.closure("op"), (90, 100));
    }
}
