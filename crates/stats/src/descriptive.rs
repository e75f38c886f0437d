//! Descriptive statistics: running summaries and order statistics.

use std::fmt;
use std::iter::FromIterator;

/// A running summary of a sample: count, mean, variance, min, max.
///
/// Uses Welford's online algorithm so it is numerically stable for long
/// simulation traces.
///
/// # Examples
///
/// ```
/// use fcr_stats::descriptive::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN; a NaN observation would silently poison every
    /// downstream statistic.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation pushed into Summary");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no observation has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean. Returns 0.0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n − 1` denominator).
    ///
    /// Returns 0.0 when fewer than two observations have been pushed.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Population variance (`n` denominator). Returns 0.0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Standard error of the mean (`s / √n`). Returns 0.0 when empty.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation. Returns `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation. Returns `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.sample_std_dev(),
            self.min,
            self.max
        )
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between order statistics (type-7 / the default of R and
/// NumPy).
///
/// Returns `None` when `values` is empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile level out of range: {q}");
    if values.is_empty() {
        return None;
    }
    // Only the two order statistics around `h` are needed, so select
    // them on one copy instead of sorting it: a sort's merge buffer
    // would be a second copy of the input.
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in quantile input");
    let mut order: Vec<f64> = values.to_vec();
    let h = (order.len() as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let (_, &mut at_lo, above) = order.select_nth_unstable_by(lo, cmp);
    if lo == hi {
        Some(at_lo)
    } else {
        // The next order statistic is the least value above `lo`.
        let at_hi = above.iter().copied().min_by(cmp).expect("hi < len");
        Some(at_lo + (h - lo as f64) * (at_hi - at_lo))
    }
}

/// Returns the median of `values`, or `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s: Summary = [3.5].into_iter().collect();
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        Summary::new().push(f64::NAN);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs = [1.0, 2.0, 3.0, 10.0, -4.0, 0.5];
        let (a, b) = xs.split_at(3);
        let mut left: Summary = a.iter().copied().collect();
        let right: Summary = b.iter().copied().collect();
        left.merge(&right);
        let all: Summary = xs.iter().copied().collect();
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-12);
        assert!((left.sample_variance() - all.sample_variance()).abs() < 1e-12);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_rejects_nan() {
        let _ = quantile(&[1.0, f64::NAN, 3.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_bad_level() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn display_is_nonempty() {
        let s: Summary = [1.0].into_iter().collect();
        assert!(!format!("{s}").is_empty());
    }

    proptest! {
        #[test]
        fn mean_lies_between_min_and_max(xs in proptest::collection::vec(-1e6..1e6f64, 1..200)) {
            let s: Summary = xs.iter().copied().collect();
            prop_assert!(s.min() <= s.mean() + 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }

        #[test]
        fn variance_is_nonnegative(xs in proptest::collection::vec(-1e6..1e6f64, 0..200)) {
            let s: Summary = xs.iter().copied().collect();
            prop_assert!(s.sample_variance() >= -1e-9);
        }

        #[test]
        fn merge_is_associative_enough(
            xs in proptest::collection::vec(-1e3..1e3f64, 1..50),
            ys in proptest::collection::vec(-1e3..1e3f64, 1..50),
        ) {
            let mut merged: Summary = xs.iter().copied().collect();
            merged.merge(&ys.iter().copied().collect());
            let all: Summary = xs.iter().chain(ys.iter()).copied().collect();
            prop_assert!((merged.mean() - all.mean()).abs() < 1e-6);
            prop_assert!((merged.sample_variance() - all.sample_variance()).abs() < 1e-6);
        }

        /// The selection returns what interpolating in a sorted copy
        /// returns, repeated values and signed zeros included.
        #[test]
        fn quantile_matches_the_sorted_form(
            xs in proptest::collection::vec(
                (0..4u8, -1e3..1e3f64).prop_map(|(k, x)| match k {
                    0 => 0.0,
                    1 => -0.0,
                    2 => (x / 100.0).round(),
                    _ => x,
                }),
                1..200,
            ),
            q in 0.0..=1.0f64,
        ) {
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let h = (sorted.len() as f64 - 1.0) * q;
            let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
            let want = sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]);
            let want = if lo == hi { sorted[lo] } else { want };
            prop_assert_eq!(quantile(&xs, q), Some(want));
            prop_assert_eq!(median(&xs), quantile(&xs, 0.5));
        }

        #[test]
        fn quantile_is_monotone(xs in proptest::collection::vec(-1e3..1e3f64, 1..50)) {
            let q1 = quantile(&xs, 0.25).unwrap();
            let q2 = quantile(&xs, 0.75).unwrap();
            prop_assert!(q1 <= q2 + 1e-12);
        }
    }
}
