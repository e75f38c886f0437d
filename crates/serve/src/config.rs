//! Service configuration: budgets, watermarks, and pacing horizons.

/// Tolerance on the admission budget comparison, so a session whose
/// demand lands *exactly* on the remaining budget is admitted instead
/// of bouncing off accumulated floating-point dust.
pub const ADMIT_EPS: f64 = 1e-9;

/// Configuration of a [`crate::Service`].
///
/// The defaults describe a single femtocell cell run at the paper's
/// eq.-(12) unit MBS time-share budget; deployments provision
/// [`ServeConfig::mbs_budget`] up (one unit per orthogonal macrocell
/// resource) to hold more concurrent sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Admission budget on the summed MBS unit time-share demand
    /// (eq. (12): `Σ_j ρ_{0,j} ≤ 1` per unit of macrocell resource).
    /// A session is admitted only while the sum of admitted demands
    /// stays within this budget (± [`ADMIT_EPS`]).
    pub mbs_budget: f64,
    /// Hard watermark on concurrently active sessions, independent of
    /// budget (protects service memory and step latency).
    pub max_sessions: usize,
    /// GOPs per scheduled window shard. Smaller windows interleave
    /// sessions more finely; results are bit-identical for any value.
    pub window_gops: u64,
    /// How many playout slots ahead of a window's start it may be
    /// submitted as prefetch.
    pub prefetch_horizon: u64,
    /// When a window is due within this many playout slots it is
    /// scheduled [`fcr_runtime::Priority::urgent`] (EDF within the
    /// class); otherwise it rides as bulk prefetch.
    pub urgent_horizon: u64,
    /// Degradation trigger: when a window is overdue by more than this
    /// many playout slots and the pool keeps rejecting it, the ladder
    /// engages (defer → shed enhancement → shed the session — loudly,
    /// never silently).
    pub shed_after: u64,
    /// Completed sessions whose full run outputs are buffered for
    /// [`crate::Service::take_completed`]. Beyond the cap the outputs
    /// are dropped (counted, never silently) while the completion
    /// accounting stays exact — a daemon whose caller never collects
    /// outputs must not grow without bound.
    pub completed_buffer: usize,
    /// Keep a session active until its playout ends — `gops × deadline`
    /// slots after admission — even when every window landed earlier.
    /// A pool that keeps up computes a session well ahead of its
    /// playout, and by default the session completes as soon as its
    /// last window lands. A replay whose users move while they watch
    /// needs the session, and its budget claim, held for the whole
    /// playout, so that a handover finds it.
    pub hold_for_playout: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mbs_budget: 1.0,
            max_sessions: 16_384,
            window_gops: 1,
            prefetch_horizon: 8,
            urgent_horizon: 2,
            shed_after: 16,
            completed_buffer: 1_024,
            hold_for_playout: false,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.mbs_budget.is_finite() || self.mbs_budget < 0.0 {
            return Err(format!(
                "mbs_budget must be finite and ≥ 0, got {}",
                self.mbs_budget
            ));
        }
        if self.max_sessions == 0 {
            return Err("max_sessions must be ≥ 1".to_string());
        }
        if self.window_gops == 0 {
            return Err("window_gops must be ≥ 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn invalid_configs_are_described() {
        let bad = ServeConfig {
            mbs_budget: f64::NAN,
            ..ServeConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("mbs_budget"));
        let bad = ServeConfig {
            max_sessions: 0,
            ..ServeConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("max_sessions"));
        let bad = ServeConfig {
            window_gops: 0,
            ..ServeConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("window_gops"));
    }
}
