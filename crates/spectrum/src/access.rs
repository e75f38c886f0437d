//! Collision-bounded opportunistic channel access
//! (Section III-C, eqs. (5)–(7)).
//!
//! After fusion, each licensed channel `m` has an availability posterior
//! `P^A_m`. The CR network decides to treat the channel as idle
//! (`D_m(t) = 0`) with probability `P^D_m`, chosen as large as possible
//! subject to the primary-user protection constraint
//!
//! ```text
//! [1 − P^A_m(Θ⃗)] · P^D_m(Θ⃗) ≤ γ_m                               (eq. 6)
//! P^D_m(Θ⃗) = min{ γ_m / [1 − P^A_m(Θ⃗)], 1 }                     (eq. 7)
//! ```
//!
//! The channels decided idle form the available set `A(t)`; the expected
//! number of available channels is `G_t = Σ_{m∈A(t)} P^A_m`.

use crate::error::{check_probability, SpectrumError};
use crate::primary::ChannelId;
use rand::{Rng, RngExt};

/// The probabilistic access rule of eq. (7), parameterized by the
/// maximum allowable collision probability γ.
///
/// # Examples
///
/// ```
/// use fcr_spectrum::access::AccessPolicy;
///
/// let policy = AccessPolicy::new(0.2)?;
/// // Nearly-surely-idle channel: always access.
/// assert_eq!(policy.access_probability(0.95), 1.0);
/// // Certainly busy channel: access with probability γ (the cap binds).
/// assert!((policy.access_probability(0.0) - 0.2).abs() < 1e-12);
/// # Ok::<(), fcr_spectrum::SpectrumError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPolicy {
    gamma: f64,
}

impl AccessPolicy {
    /// Creates a policy with collision bound `gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidProbability`] if `gamma` is outside
    /// `[0, 1]`.
    pub fn new(gamma: f64) -> Result<Self, SpectrumError> {
        Ok(Self {
            gamma: check_probability("gamma", gamma)?,
        })
    }

    /// The collision bound γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// `P^D_m` of eq. (7): the probability of declaring the channel idle
    /// given availability posterior `p_available`.
    ///
    /// # Panics
    ///
    /// Panics if `p_available` is not a probability — posteriors come from
    /// [`crate::fusion::AvailabilityPosterior`] and are guaranteed valid,
    /// so an out-of-range value is a caller bug.
    pub fn access_probability(&self, p_available: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p_available),
            "availability must be a probability, got {p_available}"
        );
        let p_busy = 1.0 - p_available;
        if p_busy <= self.gamma {
            // Even deterministic access keeps expected collisions ≤ γ.
            1.0
        } else {
            self.gamma / p_busy
        }
    }

    /// Expected collision probability with the primary user under this
    /// policy: the left side of eq. (6). Always ≤ γ by construction.
    pub fn expected_collision(&self, p_available: f64) -> f64 {
        (1.0 - p_available) * self.access_probability(p_available)
    }

    /// Draws the access decision `D_m(t)` for one channel: `true` means
    /// the channel joins the available set `A(t)`.
    pub fn decide<R: Rng + ?Sized>(&self, p_available: f64, rng: &mut R) -> bool {
        rng.random_bool(self.access_probability(p_available))
    }
}

/// Hard-threshold access: declare the channel idle iff
/// `P^A_m ≥ 1 − γ` — the deterministic alternative to eq. (7).
///
/// It satisfies the same collision bound (a channel is only accessed
/// when `1 − P^A ≤ γ`), but wastes every opportunity whose posterior
/// is merely *probably* idle, which is why the paper's probabilistic
/// rule recovers more throughput at the same protection level (the
/// `ablation` bench quantifies the gap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPolicy {
    gamma: f64,
}

impl ThresholdPolicy {
    /// Creates a threshold policy with collision bound `gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidProbability`] if `gamma` is
    /// outside `[0, 1]`.
    pub fn new(gamma: f64) -> Result<Self, SpectrumError> {
        Ok(Self {
            gamma: check_probability("gamma", gamma)?,
        })
    }

    /// The collision bound γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Deterministic access decision: `true` iff `1 − p_available ≤ γ`.
    ///
    /// # Panics
    ///
    /// Panics if `p_available` is not a probability.
    pub fn decide(&self, p_available: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p_available),
            "availability must be a probability, got {p_available}"
        );
        1.0 - p_available <= self.gamma
    }

    /// Expected collision under this policy — `1 − P^A` when accessed,
    /// zero otherwise. Always ≤ γ.
    pub fn expected_collision(&self, p_available: f64) -> f64 {
        if self.decide(p_available) {
            1.0 - p_available
        } else {
            0.0
        }
    }
}

/// Outcome of the access stage for one time slot.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessOutcome {
    available: Vec<(ChannelId, f64)>,
    expected_available: f64,
}

impl AccessOutcome {
    /// Runs the access stage over all channels.
    ///
    /// `posteriors[m]` is the fused availability `P^A_m`; when
    /// `first_obs_posteriors` is provided (paper-literal mode) it is used
    /// for the `G_t` sum instead, while decisions still use the fused
    /// values.
    pub fn decide_all<R: Rng + ?Sized>(
        policy: AccessPolicy,
        posteriors: &[f64],
        first_obs_posteriors: Option<&[f64]>,
        rng: &mut R,
    ) -> Self {
        let _span = fcr_telemetry::Span::enter(fcr_telemetry::Phase::Access);
        if let Some(first) = first_obs_posteriors {
            assert_eq!(
                first.len(),
                posteriors.len(),
                "first-observation posterior length mismatch"
            );
        }
        let mut available = Vec::new();
        let mut expected = 0.0;
        for (m, &p) in posteriors.iter().enumerate() {
            if policy.decide(p, rng) {
                let weight = first_obs_posteriors.map_or(p, |f| f[m]);
                available.push((ChannelId(m), weight));
                expected += weight;
            }
        }
        Self {
            available,
            expected_available: expected,
        }
    }

    /// Runs the access stage with the deterministic [`ThresholdPolicy`]
    /// instead of eq. (7); same outputs, no randomness.
    pub fn decide_all_threshold(
        policy: ThresholdPolicy,
        posteriors: &[f64],
        first_obs_posteriors: Option<&[f64]>,
    ) -> Self {
        let _span = fcr_telemetry::Span::enter(fcr_telemetry::Phase::Access);
        if let Some(first) = first_obs_posteriors {
            assert_eq!(
                first.len(),
                posteriors.len(),
                "first-observation posterior length mismatch"
            );
        }
        let mut available = Vec::new();
        let mut expected = 0.0;
        for (m, &p) in posteriors.iter().enumerate() {
            if policy.decide(p) {
                let weight = first_obs_posteriors.map_or(p, |f| f[m]);
                available.push((ChannelId(m), weight));
                expected += weight;
            }
        }
        Self {
            available,
            expected_available: expected,
        }
    }

    /// The available set `A(t)` with each channel's availability weight.
    pub fn available(&self) -> &[(ChannelId, f64)] {
        &self.available
    }

    /// Channel ids in `A(t)`.
    pub fn channel_ids(&self) -> Vec<ChannelId> {
        self.available.iter().map(|(id, _)| *id).collect()
    }

    /// `G_t`: the expected number of available channels.
    pub fn expected_available(&self) -> f64 {
        self.expected_available
    }

    /// Number of channels in `A(t)`.
    pub fn len(&self) -> usize {
        self.available.len()
    }

    /// Returns `true` when no channel was declared idle.
    pub fn is_empty(&self) -> bool {
        self.available.is_empty()
    }

    /// Returns `true` if channel `id` is in `A(t)`.
    pub fn contains(&self, id: ChannelId) -> bool {
        self.available.iter().any(|(c, _)| *c == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcr_stats::rng::SeedSequence;
    use proptest::prelude::*;

    #[test]
    fn access_probability_matches_eq7() {
        let policy = AccessPolicy::new(0.2).unwrap();
        // p_busy = 0.5 > γ: P^D = γ / p_busy = 0.4.
        assert!((policy.access_probability(0.5) - 0.4).abs() < 1e-12);
        // p_busy = 0.1 ≤ γ: P^D = 1.
        assert_eq!(policy.access_probability(0.9), 1.0);
        // boundary p_busy = γ exactly.
        assert_eq!(policy.access_probability(0.8), 1.0);
    }

    #[test]
    fn collision_constraint_eq6_holds_with_equality_when_binding() {
        let policy = AccessPolicy::new(0.2).unwrap();
        for p_avail in [0.0, 0.1, 0.3, 0.5, 0.7, 0.79] {
            let collision = policy.expected_collision(p_avail);
            assert!(
                (collision - 0.2).abs() < 1e-12,
                "binding region should hit γ exactly, got {collision} at {p_avail}"
            );
        }
        // Non-binding region: collision = 1 − P^A < γ.
        assert!((policy.expected_collision(0.9) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gamma_zero_blocks_uncertain_channels() {
        let policy = AccessPolicy::new(0.0).unwrap();
        assert_eq!(policy.access_probability(0.5), 0.0);
        // A certainly idle channel is still always accessible.
        assert_eq!(policy.access_probability(1.0), 1.0);
    }

    #[test]
    fn gamma_one_allows_everything() {
        let policy = AccessPolicy::new(1.0).unwrap();
        for p in [0.0, 0.3, 1.0] {
            assert_eq!(policy.access_probability(p), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn invalid_posterior_panics() {
        let _ = AccessPolicy::new(0.2).unwrap().access_probability(1.5);
    }

    #[test]
    fn empirical_collision_rate_respects_gamma() {
        // Simulate the decision on a channel whose true busy prob equals
        // the posterior's busy prob; count collisions (access ∧ busy).
        let policy = AccessPolicy::new(0.2).unwrap();
        let mut rng = SeedSequence::new(17).stream("access", 0);
        let p_avail = 0.55;
        let n = 200_000;
        let mut collisions = 0u64;
        for _ in 0..n {
            let busy = rng.random_bool(1.0 - p_avail);
            let access = policy.decide(p_avail, &mut rng);
            collisions += u64::from(busy && access);
        }
        let rate = collisions as f64 / n as f64;
        assert!(rate <= 0.2 + 0.01, "collision rate {rate} exceeds γ");
        assert!(
            rate >= 0.2 - 0.01,
            "binding constraint should be tight, got {rate}"
        );
    }

    #[test]
    fn decide_all_builds_available_set_and_gt() {
        let policy = AccessPolicy::new(1.0).unwrap(); // access everything
        let posteriors = [0.9, 0.2, 0.7];
        let mut rng = SeedSequence::new(2).stream("access", 1);
        let outcome = AccessOutcome::decide_all(policy, &posteriors, None, &mut rng);
        assert_eq!(outcome.len(), 3);
        assert!(!outcome.is_empty());
        assert!((outcome.expected_available() - 1.8).abs() < 1e-12);
        assert!(outcome.contains(ChannelId(0)));
        assert_eq!(
            outcome.channel_ids(),
            vec![ChannelId(0), ChannelId(1), ChannelId(2)]
        );
    }

    #[test]
    fn first_observation_mode_changes_weights_not_membership() {
        let policy = AccessPolicy::new(1.0).unwrap();
        let fused = [0.9, 0.8];
        let first = [0.6, 0.5];
        let mut rng = SeedSequence::new(2).stream("access", 2);
        let outcome = AccessOutcome::decide_all(policy, &fused, Some(&first), &mut rng);
        assert_eq!(outcome.len(), 2);
        assert!((outcome.expected_available() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn threshold_decide_all_selects_exactly_the_safe_channels() {
        let policy = ThresholdPolicy::new(0.2).unwrap();
        let posteriors = [0.9, 0.5, 0.81, 0.79];
        let outcome = AccessOutcome::decide_all_threshold(policy, &posteriors, None);
        assert_eq!(outcome.channel_ids(), vec![ChannelId(0), ChannelId(2)]);
        assert!((outcome.expected_available() - 1.71).abs() < 1e-12);
    }

    #[test]
    fn threshold_policy_is_deterministic_and_safe() {
        let policy = ThresholdPolicy::new(0.2).unwrap();
        assert_eq!(policy.gamma(), 0.2);
        assert!(policy.decide(0.85));
        assert!(policy.decide(0.8)); // boundary: 1 − 0.8 = γ exactly
        assert!(!policy.decide(0.79));
        assert_eq!(
            policy.expected_collision(0.5),
            0.0,
            "blocked channel cannot collide"
        );
        assert!((policy.expected_collision(0.9) - 0.1).abs() < 1e-12);
        assert!(ThresholdPolicy::new(1.5).is_err());
    }

    #[test]
    fn threshold_is_more_conservative_than_probabilistic() {
        // At the same γ the probabilistic rule accesses strictly more in
        // expectation whenever the posterior is below the threshold.
        let prob = AccessPolicy::new(0.2).unwrap();
        let hard = ThresholdPolicy::new(0.2).unwrap();
        for p_avail in [0.1, 0.3, 0.5, 0.7, 0.79] {
            assert!(!hard.decide(p_avail));
            assert!(prob.access_probability(p_avail) > 0.0);
        }
        // Above the threshold both access with certainty.
        assert!(hard.decide(0.9));
        assert_eq!(prob.access_probability(0.9), 1.0);
    }

    proptest! {
        #[test]
        fn threshold_never_violates_gamma(gamma in 0.0..=1.0f64, p_avail in 0.0..=1.0f64) {
            let policy = ThresholdPolicy::new(gamma).unwrap();
            prop_assert!(policy.expected_collision(p_avail) <= gamma + 1e-12);
        }

        #[test]
        fn eq6_never_violated(gamma in 0.0..=1.0f64, p_avail in 0.0..=1.0f64) {
            let policy = AccessPolicy::new(gamma).unwrap();
            prop_assert!(policy.expected_collision(p_avail) <= gamma + 1e-12);
        }

        #[test]
        fn access_probability_is_monotone_in_availability(
            gamma in 0.01..=1.0f64,
            p1 in 0.0..=1.0f64,
            p2 in 0.0..=1.0f64,
        ) {
            let policy = AccessPolicy::new(gamma).unwrap();
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(policy.access_probability(lo) <= policy.access_probability(hi) + 1e-12);
        }

        #[test]
        fn gt_is_bounded_by_set_size(
            posteriors in proptest::collection::vec(0.0..=1.0f64, 1..20),
            seed in 0u64..1000,
        ) {
            let policy = AccessPolicy::new(0.2).unwrap();
            let mut rng = SeedSequence::new(seed).stream("access-prop", 0);
            let outcome = AccessOutcome::decide_all(policy, &posteriors, None, &mut rng);
            prop_assert!(outcome.expected_available() <= outcome.len() as f64 + 1e-12);
            prop_assert!(outcome.expected_available() >= 0.0);
        }
    }
}
