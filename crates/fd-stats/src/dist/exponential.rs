use super::{uniform_open01, DelayDistribution};
use crate::StatsError;
use rand::RngCore;

/// Exponential delay law, `Pr(D ≤ x) = 1 − e^{−x/E(D)}`.
///
/// This is the distribution the paper uses in all of its §7 simulations,
/// chosen there because "a large portion of messages have fairly short
/// delays while a small portion of messages have long delays" and because
/// its closed form makes the analytic curve of Fig. 12 easy to plot.
///
/// ```
/// use fd_stats::dist::Exponential;
/// use fd_stats::DelayDistribution;
///
/// # fn main() -> Result<(), fd_stats::StatsError> {
/// let d = Exponential::with_mean(0.02)?; // the paper's E(D)
/// assert!((d.cdf(0.02) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// assert!((d.variance() - 0.02 * 0.02).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential law with the given mean `E(D)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `mean > 0` and
    /// finite.
    pub fn with_mean(mean: f64) -> Result<Self, StatsError> {
        if !(mean > 0.0 && mean.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                constraint: "> 0 and finite",
                value: mean,
            });
        }
        Ok(Self { mean })
    }

    /// Creates an exponential law with the given rate `λ = 1/E(D)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `rate > 0` and
    /// finite.
    pub fn with_rate(rate: f64) -> Result<Self, StatsError> {
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "rate",
                constraint: "> 0 and finite",
                value: rate,
            });
        }
        Ok(Self { mean: 1.0 / rate })
    }

    /// The rate parameter `λ = 1/E(D)`.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean
    }

    /// Draws one delay by inverting the CDF: `−E(D)·ln u`, `u ∈ (0, 1]`.
    ///
    /// [`DelayDistribution::sample`] is this on `&mut dyn RngCore`; on a
    /// concrete RNG the draw monomorphizes and inlines, with the same
    /// bits from the same RNG state.
    #[inline]
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        -self.mean * uniform_open01(rng).ln()
    }
}

impl DelayDistribution for Exponential {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-x / self.mean).exp_m1()
        }
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.mean * self.mean
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.draw(rng)
    }

    fn as_exponential(&self) -> Option<&Exponential> {
        Some(self)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1), got {p}");
        -self.mean * (-p).ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_support::battery;

    #[test]
    fn full_battery() {
        battery(&Exponential::with_mean(0.02).unwrap(), 11);
        battery(&Exponential::with_mean(3.5).unwrap(), 12);
    }

    #[test]
    fn cdf_closed_form() {
        let d = Exponential::with_mean(2.0).unwrap();
        for &x in &[0.1, 1.0, 2.0, 10.0] {
            assert!((d.cdf(x) - (1.0 - (-x / 2.0f64).exp())).abs() < 1e-14);
        }
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(-5.0), 0.0);
    }

    #[test]
    fn quantile_closed_form_median() {
        let d = Exponential::with_mean(1.0).unwrap();
        assert!((d.quantile(0.5) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn with_rate_is_reciprocal_mean() {
        let d = Exponential::with_rate(50.0).unwrap();
        assert!((d.mean() - 0.02).abs() < 1e-15);
        assert!((d.rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Exponential::with_mean(0.0).is_err());
        assert!(Exponential::with_mean(-1.0).is_err());
        assert!(Exponential::with_mean(f64::NAN).is_err());
        assert!(Exponential::with_mean(f64::INFINITY).is_err());
        assert!(Exponential::with_rate(0.0).is_err());
    }

    #[test]
    fn memoryless_tail_product() {
        // Pr(D > s + t) = Pr(D > s) Pr(D > t) — the memoryless property.
        let d = Exponential::with_mean(0.7).unwrap();
        let (s, t) = (0.3, 1.1);
        assert!((d.sf(s + t) - d.sf(s) * d.sf(t)).abs() < 1e-12);
    }
}
