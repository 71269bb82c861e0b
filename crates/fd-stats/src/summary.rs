//! Batch sample summaries for experiment reporting.
//!
//! The paper reports expected values of random-variable metrics estimated
//! over many recurrence intervals (§7: "a run with 500 mistake recurrence
//! intervals and computing the average length of these intervals").
//! [`Summary`] captures a batch of such observations with mean, variance,
//! higher moments (Theorem 1.3b needs `E(T_G^{k+1})`), quantiles and a
//! normal-approximation confidence interval.

use crate::StatsError;

/// Summary statistics of a batch of `f64` observations.
///
/// ```
/// # fn main() -> Result<(), fd_stats::StatsError> {
/// let s = fd_stats::Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0])?;
/// assert_eq!(s.count(), 5);
/// assert!((s.mean() - 3.0).abs() < 1e-12);
/// assert!((s.median() - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// Builds a summary of `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] if `samples` is empty and
    /// [`StatsError::InvalidParameter`] if any sample is non-finite.
    pub fn from_samples(samples: &[f64]) -> Result<Self, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::EmptySample);
        }
        for &s in samples {
            if !s.is_finite() {
                return Err(StatsError::InvalidParameter {
                    name: "sample",
                    constraint: "finite",
                    value: s,
                });
            }
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let m2 = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
        Ok(Self { sorted, mean, m2 })
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`).
    pub fn population_variance(&self) -> f64 {
        self.m2 / self.sorted.len() as f64
    }

    /// Sample variance (divides by `n − 1`); `0.0` for a single
    /// observation.
    pub fn sample_variance(&self) -> f64 {
        if self.sorted.len() < 2 {
            0.0
        } else {
            self.m2 / (self.sorted.len() - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Empirical quantile by linear interpolation on the sorted sample.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1], got {p}");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = p * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + frac * (self.sorted[hi] - self.sorted[lo])
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Iterates over the observations in ascending order.
    pub fn iter_sorted(&self) -> std::slice::Iter<'_, f64> {
        self.sorted.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_statistics() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.quantile(1.0) - 4.0).abs() < 1e-12);
        assert!((s.median() - 2.5).abs() < 1e-12);
        assert!((s.quantile(1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_summary() {
        let s = Summary::from_samples(&[7.5]).unwrap();
        assert_eq!(s.mean(), 7.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.median(), 7.5);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Summary::from_samples(&[]).is_err());
        assert!(Summary::from_samples(&[1.0, f64::INFINITY]).is_err());
        assert!(Summary::from_samples(&[f64::NAN]).is_err());
    }

    proptest! {
        #[test]
        fn prop_mean_between_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::from_samples(&xs).unwrap();
            prop_assert!(s.min() <= s.mean() + 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }

        #[test]
        fn prop_quantiles_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 2..100)) {
            let s = Summary::from_samples(&xs).unwrap();
            let mut prev = f64::NEG_INFINITY;
            for i in 0..=10 {
                let q = s.quantile(i as f64 / 10.0);
                prop_assert!(q + 1e-9 >= prev);
                prev = q;
            }
        }
    }
}
