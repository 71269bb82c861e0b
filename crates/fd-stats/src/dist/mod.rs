//! Message-delay distributions.
//!
//! §3.1 of the paper: message delay `D` is a random variable with range
//! `(0, ∞)`, finite `E(D)` and `V(D)`, but *no particular distribution* is
//! assumed. Every consumer in this workspace therefore sees `D` only
//! through the [`DelayDistribution`] trait.
//!
//! Provided laws:
//!
//! * [`Exponential`] — the law used in the paper's §7 simulations
//!   ("a large portion of messages have fairly short delays while a small
//!   portion have long delays").
//! * [`Uniform`], [`Constant`] — simple baselines and degenerate checks.
//! * [`Pareto`] — heavy-tailed WAN-like delays (finite variance requires
//!   shape > 2).
//! * [`LogNormal`], [`Weibull`], [`Erlang`], [`Gamma`] — common latency
//!   models ([`Gamma`] generalizes [`Erlang`] to non-integer shape).
//! * [`Shifted`] — adds a fixed propagation offset to any law.
//! * [`Mixture`] — weighted mixtures, e.g. bimodal "fast LAN + slow WAN".
//! * [`Empirical`] — resamples a recorded trace of delays.

mod constant;
mod empirical;
mod erlang;
mod gamma_dist;
mod exponential;
mod lognormal;
mod mixture;
mod pareto;
mod shifted;
mod uniform;
mod weibull;

pub use constant::Constant;
pub use empirical::Empirical;
pub use erlang::Erlang;
pub use exponential::Exponential;
pub use gamma_dist::Gamma;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use pareto::Pareto;
pub use shifted::Shifted;
pub use uniform::Uniform;
pub use weibull::Weibull;

use rand::RngCore;

/// A message-delay law `D`: the only view of the network's delay behavior
/// that the analysis, configuration and simulation layers are allowed.
///
/// Implementations must guarantee:
///
/// * `cdf` is non-decreasing, right-continuous, with values in `[0, 1]`;
/// * `mean()` and `variance()` are finite (§3.1 standing assumption);
/// * `sample` draws values in the distribution's support (`> 0` for all
///   laws shipped here, matching the paper's range `(0, ∞)`; [`Constant`]
///   and [`Shifted`] allow `0` only if constructed so).
///
/// The trait is object-safe: simulators and detectors hold
/// `Box<dyn DelayDistribution>` / `&dyn DelayDistribution`, so `sample`
/// takes `&mut dyn RngCore` and a draw through it pays two dynamic calls
/// (the law's and the RNG's). A hot loop that draws from one law many
/// times can resolve the law once through [`as_exponential`] and call
/// [`Exponential::draw`] on its concrete RNG instead: the same bits, with
/// neither call dynamic. `fd_sim::Link` does this for every fate it draws.
///
/// [`as_exponential`]: DelayDistribution::as_exponential
pub trait DelayDistribution: std::fmt::Debug + Send + Sync {
    /// `Pr(D ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Expected delay `E(D)`.
    fn mean(&self) -> f64;

    /// Delay variance `V(D)`.
    fn variance(&self) -> f64;

    /// Draw one delay sample.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Survival function `Pr(D > x) = 1 − cdf(x)`.
    fn sf(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }

    /// `Pr(D < x)`, i.e. the left limit of the CDF at `x`.
    ///
    /// For continuous laws this equals `cdf(x)`; distributions with atoms
    /// ([`Constant`], [`Empirical`], shifted/mixed variants thereof)
    /// override it. The distinction matters: the paper's `q_0` uses the
    /// *strict* probability `Pr(D < δ + η)` (Proposition 3.3).
    fn cdf_strict(&self, x: f64) -> f64 {
        self.cdf(x)
    }

    /// Standard deviation `√V(D)`.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// This law as an [`Exponential`], if it is one; `None` by default.
    ///
    /// Only [`Exponential`] overrides it (the references and boxes of one
    /// forward it). A law that wraps one, such as a [`Shifted`]
    /// exponential, answers `None`.
    fn as_exponential(&self) -> Option<&Exponential> {
        None
    }

    /// Quantile function: smallest `x` with `cdf(x) ≥ p`.
    ///
    /// Default implementation brackets the quantile by doubling and then
    /// bisects the CDF; implementations with a closed form override it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1), got {p}");
        if p == 0.0 {
            return 0.0;
        }
        // Bracket: delays are nonnegative in this crate.
        let mut lo = 0.0;
        let mut hi = self.mean().max(1e-12);
        let mut guard = 0;
        while self.cdf(hi) < p {
            hi *= 2.0;
            guard += 1;
            assert!(guard < 1100, "quantile bracket failed to find p={p}");
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) >= p {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

impl<T: DelayDistribution + ?Sized> DelayDistribution for &T {
    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn variance(&self) -> f64 {
        (**self).variance()
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (**self).sample(rng)
    }
    fn sf(&self, x: f64) -> f64 {
        (**self).sf(x)
    }
    fn cdf_strict(&self, x: f64) -> f64 {
        (**self).cdf_strict(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        (**self).quantile(p)
    }
    fn as_exponential(&self) -> Option<&Exponential> {
        (**self).as_exponential()
    }
}

impl<T: DelayDistribution + ?Sized> DelayDistribution for Box<T> {
    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn variance(&self) -> f64 {
        (**self).variance()
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (**self).sample(rng)
    }
    fn sf(&self, x: f64) -> f64 {
        (**self).sf(x)
    }
    fn cdf_strict(&self, x: f64) -> f64 {
        (**self).cdf_strict(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        (**self).quantile(p)
    }
    fn as_exponential(&self) -> Option<&Exponential> {
        (**self).as_exponential()
    }
}

/// Draws a uniform variate in the half-open interval `(0, 1]`.
///
/// Inverse-CDF samplers use this to avoid `ln(0)`.
#[inline]
pub(crate) fn uniform_open01<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    use rand::Rng as _;
    1.0 - rng.random::<f64>()
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared distribution test machinery: every law gets the same
    //! sanity battery (CDF monotone, sampler matches moments, quantile
    //! inverts CDF).

    use super::DelayDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Empirical-vs-analytic moment check over `n` samples.
    pub fn check_sampler_moments(d: &dyn DelayDistribution, n: usize, tol_rel: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x.is_finite(), "sample must be finite");
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        let want_mean = d.mean();
        let want_var = d.variance();
        assert!(
            (mean - want_mean).abs() <= tol_rel * want_mean.abs().max(1e-9),
            "sampler mean {mean} vs analytic {want_mean}"
        );
        assert!(
            (var - want_var).abs() <= 3.0 * tol_rel * want_var.abs().max(1e-9),
            "sampler variance {var} vs analytic {want_var}"
        );
    }

    /// CDF monotonicity + bounds over a coarse grid around the mean.
    pub fn check_cdf_shape(d: &dyn DelayDistribution) {
        let m = d.mean().max(1e-9);
        let mut prev = -1.0;
        for i in 0..200 {
            let x = m * 5.0 * i as f64 / 199.0;
            let c = d.cdf(x);
            assert!((0.0..=1.0).contains(&c), "cdf out of range at {x}: {c}");
            assert!(c + 1e-12 >= prev, "cdf not monotone at {x}");
            assert!((1.0 - c - d.sf(x)).abs() < 1e-12, "sf inconsistent at {x}");
            prev = c;
        }
        assert!(d.cdf(-1.0) == 0.0, "delays are positive: cdf(-1)=0");
    }

    /// Quantile must invert the CDF (up to CDF flatness).
    pub fn check_quantile_roundtrip(d: &dyn DelayDistribution) {
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = d.quantile(p);
            assert!(d.cdf(x) + 1e-9 >= p, "cdf(quantile({p})) >= p");
            if x > 1e-12 {
                let eps = (x * 1e-6).max(1e-12);
                assert!(
                    d.cdf(x - eps) <= p + 1e-6,
                    "quantile({p}) = {x} not minimal"
                );
            }
        }
    }

    /// Run the full battery.
    pub fn battery(d: &dyn DelayDistribution, seed: u64) {
        assert!(d.mean().is_finite() && d.mean() >= 0.0);
        assert!(d.variance().is_finite() && d.variance() >= 0.0);
        check_cdf_shape(d);
        check_quantile_roundtrip(d);
        check_sampler_moments(d, 200_000, 0.02, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trait_is_object_safe() {
        let d: Box<dyn DelayDistribution> = Box::new(Exponential::with_mean(0.02).unwrap());
        assert!((d.mean() - 0.02).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(d.sample(&mut rng) > 0.0);
    }

    #[test]
    fn blanket_impls_delegate() {
        let d = Exponential::with_mean(1.0).unwrap();
        let by_ref: &dyn DelayDistribution = &&d;
        assert_eq!(by_ref.mean(), d.mean());
        assert_eq!(by_ref.cdf(0.5), d.cdf(0.5));
        let boxed: Box<dyn DelayDistribution> = Box::new(d);
        assert_eq!(boxed.quantile(0.5), Exponential::with_mean(1.0).unwrap().quantile(0.5));
    }

    #[test]
    fn only_an_exponential_resolves_to_one() {
        let d = Exponential::with_mean(0.02).unwrap();
        assert_eq!(d.as_exponential(), Some(&d));
        assert_eq!(<&Exponential as DelayDistribution>::as_exponential(&&d), Some(&d));
        let boxed: Box<dyn DelayDistribution> = Box::new(d);
        assert_eq!(boxed.as_exponential(), Some(&d));
        assert_eq!(Box::new(&boxed).as_exponential(), Some(&d));
        assert_eq!(Shifted::new(d, 0.01).unwrap().as_exponential(), None);
        assert_eq!(Constant::new(0.02).unwrap().as_exponential(), None);
    }

    #[test]
    fn exponential_draw_is_its_sample() {
        let d = Exponential::with_mean(0.02).unwrap();
        let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for _ in 0..1_000 {
            let through_dyn = d.sample(&mut a);
            assert_eq!(d.draw(&mut b).to_bits(), through_dyn.to_bits());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_open01_never_zero() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let u = uniform_open01(&mut rng);
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
