//! The polled in-process service snapshot and its metric list.

use crate::service::Counts;
use fcr_runtime::HistogramSnapshot;
use fcr_telemetry::Metric;

/// A point-in-time copy of the service's counters and gauges — the
/// in-process twin of the `/metrics` endpoint's `serve` line.
///
/// The accounting identity `admitted == active + completed + retired +
/// shed` holds in every snapshot taken between steps (and is asserted
/// inside every step).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSnapshot {
    /// Service slot clock. Each step advances it with `steps`, so the
    /// metric list carries only `steps`.
    pub slot: u64,
    /// Slot steps executed.
    pub steps: u64,
    /// Sessions admitted since start.
    pub admitted: u64,
    /// Sessions currently active.
    pub active: usize,
    /// Retired/shed sessions whose in-flight jobs are still draining.
    pub draining: usize,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions retired by the caller.
    pub retired: u64,
    /// Sessions the degradation ladder shed (terminal, loud).
    pub shed: u64,
    /// Admissions rejected at the concurrency watermark.
    pub rejected_capacity: u64,
    /// Admissions rejected over the MBS budget.
    pub rejected_budget: u64,
    /// Window jobs completed.
    pub windows_completed: u64,
    /// Window jobs lost to worker panics and resubmitted.
    pub windows_retried: u64,
    /// Window submissions deferred by pool backpressure (ladder
    /// stage 1). **Raw counter semantics:** a deferral is counted every
    /// time a due window fails `try_spawn_with` in a step, and the same
    /// window is re-checked (and re-counted) every following step until
    /// it submits or is shed — so under sustained backpressure this
    /// grows as `backlogged windows × steps`, not per unique event. Use
    /// [`ServiceSnapshot::deferrals_per_step`] for an interpretable
    /// pressure gauge.
    pub deferrals: u64,
    /// `deferrals / steps`: mean window submissions deferred per slot
    /// step — the interpretable form of the raw [`deferrals`] counter
    /// (≈ how many windows were backlogged on an average step). 0.0
    /// before the first step.
    ///
    /// [`deferrals`]: ServiceSnapshot::deferrals
    pub deferrals_per_step: f64,
    /// FBS→FBS handovers completed (session stayed femto-served).
    pub handovers_fbs_fbs: u64,
    /// FBS→MBS handovers completed (session fell back to macro
    /// service, acquiring its macro-side budget claim).
    pub handovers_fbs_mbs: u64,
    /// MBS→FBS handovers completed (session returned to femto service,
    /// freeing its macro-side claim).
    pub handovers_mbs_fbs: u64,
    /// Handovers rejected (over budget or wrong serving side); the
    /// session kept its previous cell and claim.
    pub handovers_rejected: u64,
    /// Active sessions currently macro-served (after FBS→MBS, before a
    /// return handover). `active - active_on_mbs` are femto-served.
    pub active_on_mbs: usize,
    /// Enhancement runs shed under overload (ladder stage 2).
    pub enhancement_runs_shed: u64,
    /// Sessions that completed degraded (some enhancement shed).
    pub degraded_sessions: u64,
    /// Completed-session outputs dropped past the buffer cap (the
    /// completion *count* stays exact).
    pub completed_dropped: u64,
    /// MBS unit time-share currently committed (eq. (12) left side).
    pub mbs_in_use: f64,
    /// The configured admission budget.
    pub mbs_budget: f64,
    /// Window jobs pending (queued in sessions + in flight).
    pub pending: u64,
    /// Completed sessions currently buffered for collection.
    pub completed_buffered: usize,
    /// p50 of the per-step wall time (µs), if any steps ran.
    pub step_p50_us: Option<u64>,
    /// p99 of the per-step wall time (µs), if any steps ran.
    pub step_p99_us: Option<u64>,
}

impl ServiceSnapshot {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collect(
        counts: &Counts,
        slot: u64,
        active: usize,
        active_on_mbs: usize,
        draining: usize,
        mbs_in_use: f64,
        mbs_budget: f64,
        pending: u64,
        completed_buffered: usize,
        step_wall: &HistogramSnapshot,
    ) -> Self {
        ServiceSnapshot {
            slot,
            steps: counts.steps,
            admitted: counts.admitted,
            active,
            draining,
            completed: counts.completed,
            retired: counts.retired,
            shed: counts.shed,
            rejected_capacity: counts.rejected_capacity,
            rejected_budget: counts.rejected_budget,
            windows_completed: counts.windows_completed,
            windows_retried: counts.windows_retried,
            deferrals: counts.deferrals,
            deferrals_per_step: if counts.steps == 0 {
                0.0
            } else {
                counts.deferrals as f64 / counts.steps as f64
            },
            handovers_fbs_fbs: counts.handovers_fbs_fbs,
            handovers_fbs_mbs: counts.handovers_fbs_mbs,
            handovers_mbs_fbs: counts.handovers_mbs_fbs,
            handovers_rejected: counts.handovers_rejected,
            active_on_mbs,
            enhancement_runs_shed: counts.enhancement_runs_shed,
            degraded_sessions: counts.degraded_sessions,
            completed_dropped: counts.completed_dropped,
            mbs_in_use,
            mbs_budget,
            pending,
            completed_buffered,
            step_p50_us: step_wall.percentile_micros(0.50),
            step_p99_us: step_wall.percentile_micros(0.99),
        }
    }

    /// `true` when the accounting identity holds.
    pub fn accounting_holds(&self) -> bool {
        self.admitted == self.active as u64 + self.completed + self.retired + self.shed
    }

    /// The snapshot's metric list: each service counter and gauge under
    /// the one name the `serve` JSON line, the `fcr_serve_*` Prometheus
    /// exposition and `BENCH_serve.json` share.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::counter("steps", self.steps),
            Metric::counter("sessions_admitted", self.admitted),
            Metric::gauge("sessions_active", self.active),
            Metric::gauge("sessions_draining", self.draining),
            Metric::counter("sessions_completed", self.completed),
            Metric::counter("sessions_retired", self.retired),
            Metric::counter("sessions_shed", self.shed),
            Metric::counter("rejected_capacity", self.rejected_capacity),
            Metric::counter("rejected_budget", self.rejected_budget),
            Metric::counter("windows_completed", self.windows_completed),
            Metric::counter("windows_retried", self.windows_retried),
            Metric::counter("deferrals", self.deferrals),
            Metric::gauge("deferrals_per_step", self.deferrals_per_step),
            Metric::counter("handovers_fbs_fbs", self.handovers_fbs_fbs),
            Metric::counter("handovers_fbs_mbs", self.handovers_fbs_mbs),
            Metric::counter("handovers_mbs_fbs", self.handovers_mbs_fbs),
            Metric::counter("handovers_rejected", self.handovers_rejected),
            Metric::gauge("sessions_active_on_mbs", self.active_on_mbs),
            Metric::counter("enhancement_runs_shed", self.enhancement_runs_shed),
            Metric::counter("degraded_sessions", self.degraded_sessions),
            Metric::counter("completed_dropped", self.completed_dropped),
            Metric::gauge("mbs_in_use", self.mbs_in_use),
            Metric::gauge("mbs_budget", self.mbs_budget),
            Metric::gauge("jobs_pending", self.pending),
            Metric::gauge("completed_buffered", self.completed_buffered),
            Metric::gauge("step_p50_us", self.step_p50_us),
            Metric::gauge("step_p99_us", self.step_p99_us),
            Metric::gauge("accounting_holds", self.accounting_holds()),
        ]
    }

    /// Renders the snapshot as one self-contained JSONL line
    /// (`"type":"serve"`), the head of the `/metrics` body. A missing
    /// step-wall percentile (no steps yet) is `null`.
    pub fn to_json_line(&self) -> String {
        fcr_telemetry::metrics_to_json_line("serve", &self.metrics())
    }

    /// Renders the snapshot as Prometheus text exposition (format
    /// 0.0.4): the same list as [`ServiceSnapshot::to_json_line`] under
    /// `fcr_serve_*` names. A missing percentile has no sample.
    pub fn to_prometheus(&self) -> String {
        fcr_telemetry::metrics_to_prometheus("fcr_serve_", &self.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceSnapshot {
        ServiceSnapshot {
            slot: 10,
            steps: 10,
            admitted: 5,
            active: 1,
            draining: 0,
            completed: 2,
            retired: 1,
            shed: 1,
            rejected_capacity: 0,
            rejected_budget: 3,
            windows_completed: 40,
            windows_retried: 2,
            deferrals: 7,
            deferrals_per_step: 0.7,
            handovers_fbs_fbs: 4,
            handovers_fbs_mbs: 2,
            handovers_mbs_fbs: 1,
            handovers_rejected: 1,
            active_on_mbs: 1,
            enhancement_runs_shed: 1,
            degraded_sessions: 1,
            completed_dropped: 0,
            mbs_in_use: 0.25,
            mbs_budget: 1.0,
            pending: 4,
            completed_buffered: 2,
            step_p50_us: Some(12),
            step_p99_us: Some(90),
        }
    }

    #[test]
    fn formats_carry_the_wire_names() {
        let snap = sample();
        let line = snap.to_json_line();
        assert!(
            line.starts_with("{\"type\":\"serve\",\"steps\":10,"),
            "{line}"
        );
        assert!(line.contains("\"sessions_admitted\":5,"), "{line}");
        assert!(line.contains("\"sessions_active_on_mbs\":1,"), "{line}");
        assert!(line.contains("\"jobs_pending\":4,"), "{line}");
        assert!(line.ends_with(",\"step_p99_us\":90,\"accounting_holds\":true}"));
        let prom = snap.to_prometheus();
        for sample in [
            "# TYPE fcr_serve_steps_total counter\nfcr_serve_steps_total 10\n",
            "# TYPE fcr_serve_sessions_admitted_total counter\nfcr_serve_sessions_admitted_total 5\n",
            "# TYPE fcr_serve_mbs_in_use gauge\nfcr_serve_mbs_in_use 0.25\n",
            "# TYPE fcr_serve_step_p50_us gauge\nfcr_serve_step_p50_us 12\n",
            "fcr_serve_accounting_holds 1\n",
        ] {
            assert!(prom.contains(sample), "{sample} missing:\n{prom}");
        }
    }

    #[test]
    fn accounting_identity_is_checked() {
        let mut snap = sample();
        assert!(snap.accounting_holds());
        snap.shed = 0;
        assert!(!snap.accounting_holds());
        assert!(snap.to_json_line().contains("\"accounting_holds\":false"));
    }

    #[test]
    fn missing_percentiles_are_null_and_have_no_sample() {
        let mut snap = sample();
        snap.step_p50_us = None;
        snap.step_p99_us = None;
        let line = snap.to_json_line();
        assert!(line.contains("\"step_p50_us\":null,\"step_p99_us\":null"));
        assert!(!snap.to_prometheus().contains("step_p"));
    }
}
