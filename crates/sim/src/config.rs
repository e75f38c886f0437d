//! Simulation parameters. `Default` reproduces the paper's baseline
//! (Section V): `M = 8`, `P01 = 0.4`, `P10 = 0.3`, `γ = 0.2`,
//! `ε = δ = 0.3`, `B0 = B1 = 0.3` Mbps, `T = 10`.

use fcr_spectrum::access::{AccessPolicy, ThresholdPolicy};
use fcr_spectrum::markov::TwoStateMarkov;
use fcr_spectrum::sensing::SensorProfile;
use fcr_spectrum::SpectrumError;
use fcr_video::quality::Mbps;
use fcr_video::sequences::Scalability;

/// How the per-channel sensing prior is formed at the start of each
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorMode {
    /// The paper's choice: reset to the stationary utilization η every
    /// slot (eq. (2)'s prior).
    #[default]
    Stationary,
    /// Extension: carry yesterday's fused posterior forward through the
    /// Markov transition kernel (belief tracking) — strictly more
    /// informative when the chain is persistent.
    BeliefTracking,
}

/// How CR users pick which licensed channel to sense each slot (each
/// user has one transceiver and senses exactly one channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SensingStrategy {
    /// The default: user `j` senses channel `(j + t) mod M`, spreading
    /// observations uniformly over channels and time.
    #[default]
    RoundRobin,
    /// Extension (active sensing): users sense the channels whose
    /// current busy prior is most uncertain (closest to ½), where an
    /// extra observation moves the posterior the most. Ties rotate
    /// with the slot index. Most useful combined with
    /// [`PriorMode::BeliefTracking`], which gives priors something to
    /// disagree about.
    UncertaintyFirst,
}

/// How access decisions are drawn from the availability posterior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessMode {
    /// The paper's probabilistic rule, eq. (7): maximal access
    /// probability subject to the collision bound.
    #[default]
    Probabilistic,
    /// Deterministic alternative: access iff `1 − P^A ≤ γ` (same bound,
    /// fewer opportunities taken; ablated in the benches).
    Threshold,
}

/// All tunable parameters of a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of licensed channels `M`.
    pub num_channels: usize,
    /// Markov transition probability idle → busy (`P01`).
    pub p01: f64,
    /// Markov transition probability busy → idle (`P10`).
    pub p10: f64,
    /// Maximum allowable collision probability γ.
    pub gamma: f64,
    /// False-alarm probability ε (all sensors).
    pub epsilon: f64,
    /// Miss-detection probability δ (all sensors).
    pub delta: f64,
    /// Common (MBS) channel bandwidth `B0` in Mbps.
    pub b0: f64,
    /// Licensed channel bandwidth `B1` in Mbps.
    pub b1: f64,
    /// GOP delivery deadline `T` in slots.
    pub deadline: u32,
    /// GOPs simulated per run.
    pub gops: u32,
    /// Mean SINR (linear) of MBS → user links; the MBS is farther, so
    /// this is the weaker link.
    pub mean_sinr_mbs: f64,
    /// Mean SINR (linear) of FBS → user links.
    pub mean_sinr_fbs: f64,
    /// SINR decoding threshold `H` (linear).
    pub sinr_threshold: f64,
    /// Log-normal shadowing spread in dB (per-slot channel-condition
    /// variation; what multiuser diversity exploits).
    pub shadowing_sigma_db: f64,
    /// Compute `G_t` from the first observation only, as eq. printed in
    /// Section III-C (see DESIGN.md §7); default `false` = fused.
    pub first_observation_only: bool,
    /// Sensing-prior formation (stationary η vs. belief tracking).
    pub prior_mode: PriorMode,
    /// Access rule (probabilistic eq. (7) vs. hard threshold).
    pub access_mode: AccessMode,
    /// Which channels the users sense (round-robin vs. active).
    pub sensing_strategy: SensingStrategy,
    /// Scalable-coding flavour of every stream (MGS, the paper's
    /// choice, vs. FGS for the motivating comparison).
    pub scalability: Scalability,
    /// Nakagami fading shape `m` for every link: 1.0 (default) is the
    /// paper's Rayleigh model; larger values model channel hardening
    /// (near line-of-sight femtocell links), `0.5 ≤ m < 1` models
    /// worse-than-Rayleigh scattering.
    pub nakagami_m: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_channels: 8,
            p01: 0.4,
            p10: 0.3,
            gamma: 0.2,
            epsilon: 0.3,
            delta: 0.3,
            b0: 0.3,
            b1: 0.3,
            deadline: 10,
            gops: 20,
            mean_sinr_mbs: 8.0,
            mean_sinr_fbs: 25.0,
            sinr_threshold: 3.0,
            shadowing_sigma_db: 2.0,
            first_observation_only: false,
            prior_mode: PriorMode::Stationary,
            access_mode: AccessMode::Probabilistic,
            sensing_strategy: SensingStrategy::RoundRobin,
            scalability: Scalability::Mgs,
            nakagami_m: 1.0,
        }
    }
}

impl SimConfig {
    /// Returns a copy with channel utilization η, holding `p10` fixed
    /// (the paper's Figs. 4(c)/6(a) sweep).
    ///
    /// # Panics
    ///
    /// Panics if η is unreachable with the current `p10` (see
    /// [`TwoStateMarkov::with_utilization`]).
    pub fn with_utilization(mut self, eta: f64) -> Self {
        let chain = TwoStateMarkov::with_utilization(eta, self.p10)
            .expect("utilization reachable with configured p10");
        self.p01 = chain.p01();
        self
    }

    /// Returns a copy with sensing-error pair (ε, δ) (Fig. 6(b)).
    pub fn with_sensing_errors(mut self, epsilon: f64, delta: f64) -> Self {
        self.epsilon = epsilon;
        self.delta = delta;
        self
    }

    /// The per-channel Markov chain.
    ///
    /// # Errors
    ///
    /// Returns an error if `p01`/`p10` are invalid.
    pub fn markov(&self) -> Result<TwoStateMarkov, SpectrumError> {
        TwoStateMarkov::new(self.p01, self.p10)
    }

    /// The sensor profile.
    ///
    /// # Errors
    ///
    /// Returns an error if ε/δ are invalid.
    pub fn sensor(&self) -> Result<SensorProfile, SpectrumError> {
        SensorProfile::new(self.epsilon, self.delta)
    }

    /// The access policy.
    ///
    /// # Errors
    ///
    /// Returns an error if γ is invalid.
    pub fn access_policy(&self) -> Result<AccessPolicy, SpectrumError> {
        AccessPolicy::new(self.gamma)
    }

    /// The hard-threshold policy (used when
    /// [`SimConfig::access_mode`] is [`AccessMode::Threshold`]).
    ///
    /// # Errors
    ///
    /// Returns an error if γ is invalid.
    pub fn threshold_policy(&self) -> Result<ThresholdPolicy, SpectrumError> {
        ThresholdPolicy::new(self.gamma)
    }

    /// `B0` as a typed rate.
    ///
    /// # Panics
    ///
    /// Panics if `b0` is negative.
    pub fn b0_rate(&self) -> Mbps {
        Mbps::new(self.b0).expect("b0 must be nonnegative")
    }

    /// `B1` as a typed rate.
    ///
    /// # Panics
    ///
    /// Panics if `b1` is negative.
    pub fn b1_rate(&self) -> Mbps {
        Mbps::new(self.b1).expect("b1 must be nonnegative")
    }

    /// Total simulated slots per run.
    pub fn total_slots(&self) -> u64 {
        u64::from(self.gops) * u64::from(self.deadline)
    }

    /// Checks every field at once and returns all problems found —
    /// library users building configs by hand get a complete error
    /// report instead of the first panic the engine would hit.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.num_channels == 0 {
            problems.push("num_channels must be at least 1".to_string());
        }
        if let Err(e) = self.markov() {
            problems.push(format!("markov model: {e}"));
        }
        if let Err(e) = self.sensor() {
            problems.push(format!("sensor profile: {e}"));
        }
        if let Err(e) = self.access_policy() {
            problems.push(format!("access policy: {e}"));
        }
        for (name, value) in [("b0", self.b0), ("b1", self.b1)] {
            if !(value >= 0.0 && value.is_finite()) {
                problems.push(format!("{name} must be nonnegative, got {value}"));
            }
        }
        if self.deadline == 0 {
            problems.push("deadline must be at least 1 slot".to_string());
        }
        if self.gops == 0 {
            problems.push("gops must be at least 1".to_string());
        }
        for (name, value) in [
            ("mean_sinr_mbs", self.mean_sinr_mbs),
            ("mean_sinr_fbs", self.mean_sinr_fbs),
            ("sinr_threshold", self.sinr_threshold),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                problems.push(format!("{name} must be positive, got {value}"));
            }
        }
        if !(self.shadowing_sigma_db >= 0.0 && self.shadowing_sigma_db.is_finite()) {
            problems.push(format!(
                "shadowing_sigma_db must be nonnegative, got {}",
                self.shadowing_sigma_db
            ));
        }
        if !(self.nakagami_m >= 0.5 && self.nakagami_m.is_finite()) {
            problems.push(format!(
                "nakagami_m must be at least 0.5, got {}",
                self.nakagami_m
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.num_channels, 8);
        assert_eq!(cfg.p01, 0.4);
        assert_eq!(cfg.p10, 0.3);
        assert_eq!(cfg.gamma, 0.2);
        assert_eq!(cfg.epsilon, 0.3);
        assert_eq!(cfg.delta, 0.3);
        assert_eq!(cfg.b0, 0.3);
        assert_eq!(cfg.b1, 0.3);
        assert_eq!(cfg.deadline, 10);
        assert!(!cfg.first_observation_only);
        assert_eq!(cfg.prior_mode, PriorMode::Stationary);
        assert_eq!(cfg.access_mode, AccessMode::Probabilistic);
        assert_eq!(cfg.sensing_strategy, SensingStrategy::RoundRobin);
        assert_eq!(cfg.scalability, Scalability::Mgs);
        assert_eq!(cfg.nakagami_m, 1.0);
    }

    #[test]
    fn validate_accepts_the_baseline_and_collects_all_problems() {
        assert!(SimConfig::default().validate().is_ok());
        let broken = SimConfig {
            num_channels: 0,
            gamma: 1.5,
            deadline: 0,
            mean_sinr_fbs: -1.0,
            ..SimConfig::default()
        };
        let problems = broken.validate().unwrap_err();
        assert!(problems.len() >= 4, "all problems reported: {problems:?}");
        assert!(problems.iter().any(|p| p.contains("num_channels")));
        assert!(problems.iter().any(|p| p.contains("gamma")));
        assert!(problems.iter().any(|p| p.contains("deadline")));
        assert!(problems.iter().any(|p| p.contains("mean_sinr_fbs")));
    }

    #[test]
    fn threshold_policy_builds() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.threshold_policy().unwrap().gamma(), 0.2);
    }

    #[test]
    fn utilization_sweep_changes_p01_only() {
        let cfg = SimConfig::default().with_utilization(0.5);
        assert_eq!(cfg.p10, 0.3);
        assert!((cfg.markov().unwrap().utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "utilization reachable")]
    fn impossible_utilization_panics() {
        let _ = SimConfig::default().with_utilization(0.95);
    }

    #[test]
    fn sensing_sweep() {
        let cfg = SimConfig::default().with_sensing_errors(0.2, 0.48);
        assert_eq!(cfg.epsilon, 0.2);
        assert_eq!(cfg.delta, 0.48);
        assert!(cfg.sensor().is_ok());
    }

    #[test]
    fn derived_objects_build() {
        let cfg = SimConfig::default();
        assert!(cfg.markov().is_ok());
        assert!(cfg.sensor().is_ok());
        assert!(cfg.access_policy().is_ok());
        assert_eq!(cfg.b0_rate().value(), 0.3);
        assert_eq!(cfg.b1_rate().value(), 0.3);
        assert_eq!(cfg.total_slots(), 200);
    }
}
