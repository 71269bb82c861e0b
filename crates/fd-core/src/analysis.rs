//! Closed-form QoS analysis of NFD-S (Proposition 3 and Theorem 5).
//!
//! For a system with message-loss probability `p_L` and delay law `D`,
//! NFD-S with parameters `(η, δ)` has (Definition 1 / Proposition 3):
//!
//! ```text
//! k      = ⌈δ/η⌉
//! p_j(x) = p_L + (1 − p_L)·Pr(D > δ + x − jη)      (j ≥ 0, x ≥ 0)
//! q₀     = (1 − p_L)·Pr(D < δ + η)
//! u(x)   = Π_{j=0}^{k} p_j(x)                       (x ∈ [0, η))
//! p_s    = q₀ · u(0)
//! ```
//!
//! and (Theorem 5):
//!
//! ```text
//! T_D ≤ δ + η                      (tight)
//! E(T_MR) = η / p_s
//! E(T_M)  = ∫₀^η u(x) dx / p_s
//! P_A     = 1 − (1/η)·∫₀^η u(x) dx   (Lemma 15)
//! ```
//!
//! The integral is evaluated with adaptive Simpson quadrature so any
//! [`DelayDistribution`] works; for NFD-U substitute `δ = E(D) + α`
//! (§6.2) via [`NfdSAnalysis::for_nfd_u`].

use crate::detectors::{require, ParamError};
use fd_metrics::QosBundle;
use fd_stats::{integrate_adaptive_simpson, DelayDistribution};

/// Exact QoS analysis of NFD-S with parameters `(η, δ)` over a link
/// `(p_L, D)`.
///
/// ```
/// use fd_core::NfdSAnalysis;
/// use fd_stats::dist::Exponential;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The §7 simulation setting: η = 1, p_L = 0.01, D ~ Exp(0.02).
/// let delay = Exponential::with_mean(0.02)?;
/// let a = NfdSAnalysis::new(1.0, 1.5, 0.01, &delay)?;
/// assert!((a.detection_time_bound() - 2.5).abs() < 1e-12);
/// assert!(a.mean_recurrence() > 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NfdSAnalysis<'a> {
    eta: f64,
    delta: f64,
    p_l: f64,
    delay: &'a dyn DelayDistribution,
}

impl<'a> NfdSAnalysis<'a> {
    /// Creates the analysis for NFD-S parameters `eta` (`η`) and `delta`
    /// (`δ`) over a link with loss probability `p_l` and delay law
    /// `delay`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `eta > 0`, `delta ≥ 0` and
    /// `0 ≤ p_l ≤ 1`.
    pub fn new(
        eta: f64,
        delta: f64,
        p_l: f64,
        delay: &'a dyn DelayDistribution,
    ) -> Result<Self, ParamError> {
        require(eta > 0.0 && eta.is_finite(), "eta", "> 0 and finite", eta)?;
        require(
            delta >= 0.0 && delta.is_finite(),
            "delta",
            ">= 0 and finite",
            delta,
        )?;
        require((0.0..=1.0).contains(&p_l), "p_l", "in [0, 1]", p_l)?;
        Ok(Self {
            eta,
            delta,
            p_l,
            delay,
        })
    }

    /// Analysis of NFD-U with parameters `(η, α)`: identical to NFD-S with
    /// `δ` replaced by `E(D) + α` (§6.2).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] under the same conditions as
    /// [`NfdSAnalysis::new`].
    pub fn for_nfd_u(
        eta: f64,
        alpha: f64,
        p_l: f64,
        delay: &'a dyn DelayDistribution,
    ) -> Result<Self, ParamError> {
        require(
            alpha > 0.0 && alpha.is_finite(),
            "alpha",
            "> 0 and finite",
            alpha,
        )?;
        Self::new(eta, delay.mean() + alpha, p_l, delay)
    }

    /// `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// `k = ⌈δ/η⌉` (Proposition 3.1): messages `mᵢ … m_{i+k}` are the ones
    /// that can be fresh during `[τᵢ, τᵢ₊₁)`.
    pub fn k(&self) -> u64 {
        (self.delta / self.eta).ceil() as u64
    }

    /// `p_j(x) = p_L + (1 − p_L) Pr(D > δ + x − jη)` (Proposition 3.2):
    /// the probability that `q` has not received `m_{i+j}` by `τᵢ + x`.
    pub fn p_j(&self, j: u64, x: f64) -> f64 {
        self.p_l + (1.0 - self.p_l) * self.delay.sf(self.delta + x - j as f64 * self.eta)
    }

    /// `p₀ = p₀(0)`: probability that `mᵢ` has not arrived by its own
    /// freshness point.
    pub fn p0(&self) -> f64 {
        self.p_j(0, 0.0)
    }

    /// `q₀ = (1 − p_L) Pr(D < δ + η)` (Proposition 3.3): probability that
    /// `m_{i−1}` arrives before `τᵢ`.
    pub fn q0(&self) -> f64 {
        (1.0 - self.p_l) * self.delay.cdf_strict(self.delta + self.eta)
    }

    /// `u(x) = Π_{j=0}^{k} p_j(x)` (Proposition 3.4): probability that `q`
    /// suspects `p` at `τᵢ + x`, for `x ∈ [0, η)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, η)`.
    pub fn u(&self, x: f64) -> f64 {
        assert!(
            (0.0..self.eta).contains(&x),
            "u(x) is defined for x in [0, η); got {x}"
        );
        self.u_unchecked(x)
    }

    fn u_unchecked(&self, x: f64) -> f64 {
        let mut prod = 1.0;
        for j in 0..=self.k() {
            prod *= self.p_j(j, x);
            if prod == 0.0 {
                break;
            }
        }
        prod
    }

    /// `p_s = q₀·u(0)` (Proposition 3.5): probability that an S-transition
    /// occurs at a given freshness point.
    pub fn p_s(&self) -> f64 {
        self.q0() * self.u_unchecked(0.0)
    }

    /// `∫₀^η u(x) dx`, by adaptive Simpson quadrature to an absolute
    /// tolerance of `1e-12`.
    pub fn integral_u(&self) -> f64 {
        let f = |x: f64| self.u_unchecked(x.clamp(0.0, self.eta));
        integrate_adaptive_simpson(&f, 0.0, self.eta, 1e-12)
    }

    /// The tight detection-time bound `T_D ≤ δ + η` (Theorem 5.1).
    pub fn detection_time_bound(&self) -> f64 {
        self.delta + self.eta
    }

    /// `E(T_MR) = η / p_s` (Theorem 5.2); `∞` in the degenerate case
    /// `p_s = 0` (the detector never makes a mistake in steady state, or
    /// never trusts and hence never S-transitions).
    pub fn mean_recurrence(&self) -> f64 {
        let p_s = self.p_s();
        if p_s == 0.0 {
            f64::INFINITY
        } else {
            self.eta / p_s
        }
    }

    /// `E(T_M) = ∫₀^η u(x) dx / p_s` (Theorem 5.3).
    ///
    /// Degenerate cases (§3.3): if `p₀ = 0` the detector never suspects
    /// after steady state (`E(T_M) = 0`); if `q₀ = 0` it suspects forever
    /// (`E(T_M) = ∞`).
    pub fn mean_duration(&self) -> f64 {
        if self.p0() == 0.0 {
            return 0.0;
        }
        if self.q0() == 0.0 {
            return f64::INFINITY;
        }
        self.integral_u() / self.p_s()
    }

    /// `P_A = 1 − (1/η)·∫₀^η u(x) dx` (Lemma 15) — well-defined even in
    /// the degenerate cases.
    pub fn query_accuracy(&self) -> f64 {
        (1.0 - self.integral_u() / self.eta).clamp(0.0, 1.0)
    }

    /// The full predicted QoS bundle.
    pub fn qos(&self) -> QosBundle {
        QosBundle::new(
            self.detection_time_bound(),
            self.mean_recurrence(),
            self.mean_duration(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_stats::dist::{Constant, Exponential, Uniform};
    use proptest::prelude::*;

    fn exp_link() -> Exponential {
        Exponential::with_mean(0.02).unwrap()
    }

    #[test]
    fn k_is_ceil_delta_over_eta() {
        let d = exp_link();
        assert_eq!(NfdSAnalysis::new(1.0, 2.5, 0.01, &d).unwrap().k(), 3);
        assert_eq!(NfdSAnalysis::new(1.0, 2.0, 0.01, &d).unwrap().k(), 2);
        assert_eq!(NfdSAnalysis::new(1.0, 0.0, 0.01, &d).unwrap().k(), 0);
        assert_eq!(NfdSAnalysis::new(2.0, 5.0, 0.01, &d).unwrap().k(), 3);
    }

    #[test]
    fn p_j_closed_form_exponential() {
        let d = exp_link();
        let a = NfdSAnalysis::new(1.0, 1.5, 0.01, &d).unwrap();
        // j = 0, x = 0: p_L + (1−p_L)·e^{−δ/0.02} ≈ p_L (δ huge vs mean).
        assert!((a.p_j(0, 0.0) - 0.01).abs() < 1e-10);
        // j = 2: δ − 2η = −0.5 < 0 ⇒ Pr(D > −0.5) = 1 ⇒ p_j = 1.
        assert!((a.p_j(2, 0.0) - 1.0).abs() < 1e-15);
        // j = 1, x = 0.3: δ + 0.3 − 1 = 0.8 ⇒ tail e^{−40}.
        let want = 0.01 + 0.99 * (-0.8f64 / 0.02).exp();
        assert!((a.p_j(1, 0.3) - want).abs() < 1e-15);
    }

    #[test]
    fn u_is_product_of_p_j() {
        let d = exp_link();
        let a = NfdSAnalysis::new(1.0, 2.5, 0.01, &d).unwrap();
        for &x in &[0.0, 0.25, 0.5, 0.99] {
            let direct: f64 = (0..=a.k()).map(|j| a.p_j(j, x)).product();
            assert!((a.u(x) - direct).abs() < 1e-15, "x = {x}");
        }
    }

    #[test]
    fn proposition_14_u0_dominates() {
        // u(0) ≥ u(x) for all x in [0, η), and u(0) ≥ p₀^k.
        let d = exp_link();
        let a = NfdSAnalysis::new(1.0, 2.3, 0.05, &d).unwrap();
        let u0 = a.u(0.0);
        for i in 1..100 {
            let x = i as f64 / 100.0;
            assert!(u0 + 1e-15 >= a.u(x), "u(0) < u({x})");
        }
        assert!(u0 + 1e-12 >= a.p0().powi(a.k() as i32));
    }

    #[test]
    fn p_s_is_q0_times_u0() {
        let d = exp_link();
        let a = NfdSAnalysis::new(1.0, 1.5, 0.01, &d).unwrap();
        assert!((a.p_s() - a.q0() * a.u(0.0)).abs() < 1e-18);
    }

    #[test]
    fn fig12_magnitude_sanity() {
        // §7 setting at T_D^U = 2 (δ = 1): k = 1; u(0) = [p_L + ~0]·[1] ≈
        // p_L; q₀ ≈ 0.99 ⇒ E(T_MR) ≈ 1/(0.99·0.01) ≈ 101.
        let d = exp_link();
        let a = NfdSAnalysis::new(1.0, 1.0, 0.01, &d).unwrap();
        let e_tmr = a.mean_recurrence();
        assert!((e_tmr - 101.0).abs() < 2.0, "E(T_MR) = {e_tmr}");
        // At T_D^U = 3 (δ = 2): u(0) ≈ p_L² ⇒ E(T_MR) ≈ 10203.
        let a = NfdSAnalysis::new(1.0, 2.0, 0.01, &d).unwrap();
        let e_tmr = a.mean_recurrence();
        assert!((e_tmr / 10203.0 - 1.0).abs() < 0.02, "E(T_MR) = {e_tmr}");
    }

    #[test]
    fn mistake_duration_bounded_by_eta_over_q0() {
        // Proposition 21: E(T_M) ≤ η/q₀.
        let d = exp_link();
        for delta in [0.5, 1.0, 2.5] {
            for p_l in [0.0, 0.01, 0.3] {
                let a = NfdSAnalysis::new(1.0, delta, p_l, &d).unwrap();
                assert!(
                    a.mean_duration() <= a.eta() / a.q0() + 1e-9,
                    "δ={delta}, p_L={p_l}"
                );
            }
        }
    }

    #[test]
    fn query_accuracy_consistent_with_theorem1() {
        // P_A = 1 − E(T_M)/E(T_MR) must agree with Lemma 15's integral
        // form.
        let d = exp_link();
        let a = NfdSAnalysis::new(1.0, 1.5, 0.02, &d).unwrap();
        let via_primary = 1.0 - a.mean_duration() / a.mean_recurrence();
        assert!((a.query_accuracy() - via_primary).abs() < 1e-9);
    }

    #[test]
    fn degenerate_never_suspects() {
        // Constant delay 0.1 with δ = 1 ⇒ every mᵢ arrives well before τᵢ
        // ⇒ p₀ = 0: no mistakes ever.
        let d = Constant::new(0.1).unwrap();
        let a = NfdSAnalysis::new(1.0, 1.0, 0.0, &d).unwrap();
        assert_eq!(a.p0(), 0.0);
        assert_eq!(a.mean_recurrence(), f64::INFINITY);
        assert_eq!(a.mean_duration(), 0.0);
        assert_eq!(a.query_accuracy(), 1.0);
    }

    #[test]
    fn degenerate_never_trusts() {
        // p_L = 1: every message lost ⇒ q₀ = 0 ⇒ permanent suspicion.
        let d = exp_link();
        let a = NfdSAnalysis::new(1.0, 1.0, 1.0, &d).unwrap();
        assert_eq!(a.q0(), 0.0);
        assert_eq!(a.mean_recurrence(), f64::INFINITY);
        assert_eq!(a.mean_duration(), f64::INFINITY);
        assert!(a.query_accuracy() < 1e-12);
    }

    #[test]
    fn uniform_delay_piecewise_linear_integral() {
        // With D ~ U(0, 0.5), η = 1, δ = 0.25, k = 1:
        //   p₀(x) = Pr(D > 0.25 + x) = (0.25−x)/0.5 for x ≤ 0.25, 0 after
        //   p₁(x) = Pr(D > x − 0.75) = 1 for x ≤ 0.75
        //   (p_L = 0) ⇒ u(x) = 0.5 − 2x·… compute exactly:
        // u(x) = (0.5 − (0.25+x))/0.5 = 0.5 − 2x… for x ∈ [0, 0.25]:
        //   (0.25 − x)/0.5 = 0.5 − 2x. ∫₀^{0.25} (0.5−2x) dx = 0.0625.
        let d = Uniform::new(0.0, 0.5).unwrap();
        let a = NfdSAnalysis::new(1.0, 0.25, 0.0, &d).unwrap();
        assert!((a.integral_u() - 0.0625).abs() < 1e-9);
        // q₀ = Pr(D < 1.25) = 1 ⇒ p_s = u(0) = 0.5.
        assert!((a.p_s() - 0.5).abs() < 1e-12);
        assert!((a.mean_duration() - 0.125).abs() < 1e-8);
        assert!((a.mean_recurrence() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nfd_u_analysis_substitutes_delta() {
        let d = exp_link();
        let via_u = NfdSAnalysis::for_nfd_u(1.0, 1.48, 0.01, &d).unwrap();
        let direct = NfdSAnalysis::new(1.0, 1.5, 0.01, &d).unwrap();
        assert!((via_u.delta() - direct.delta()).abs() < 1e-12);
        assert!((via_u.mean_recurrence() - direct.mean_recurrence()).abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_parameters() {
        let d = exp_link();
        assert!(NfdSAnalysis::new(0.0, 1.0, 0.01, &d).is_err());
        assert!(NfdSAnalysis::new(1.0, -1.0, 0.01, &d).is_err());
        assert!(NfdSAnalysis::new(1.0, 1.0, -0.1, &d).is_err());
        assert!(NfdSAnalysis::new(1.0, 1.0, 1.1, &d).is_err());
        assert!(NfdSAnalysis::for_nfd_u(1.0, 0.0, 0.01, &d).is_err());
    }

    #[test]
    #[should_panic(expected = "u(x) is defined")]
    fn u_rejects_x_at_eta() {
        let d = exp_link();
        NfdSAnalysis::new(1.0, 1.0, 0.01, &d).unwrap().u(1.0);
    }

    proptest! {
        #[test]
        fn prop_probabilities_in_unit_interval(
            eta in 0.1f64..5.0,
            delta in 0.0f64..10.0,
            p_l in 0.0f64..1.0,
            mean in 0.001f64..1.0,
            x_frac in 0.0f64..0.999,
        ) {
            let d = Exponential::with_mean(mean).unwrap();
            let a = NfdSAnalysis::new(eta, delta, p_l, &d).unwrap();
            let x = x_frac * eta;
            prop_assert!((0.0..=1.0).contains(&a.u(x)));
            prop_assert!((0.0..=1.0).contains(&a.q0()));
            prop_assert!((0.0..=1.0).contains(&a.p_s()));
            prop_assert!((0.0..=1.0).contains(&a.query_accuracy()));
        }

        #[test]
        fn prop_larger_delta_improves_accuracy(
            delta in 0.1f64..3.0,
            bump in 0.1f64..2.0,
        ) {
            // More slack ⇒ fewer premature suspicions: E(T_MR) grows, P_A
            // grows.
            let d = Exponential::with_mean(0.05).unwrap();
            let a1 = NfdSAnalysis::new(1.0, delta, 0.05, &d).unwrap();
            let a2 = NfdSAnalysis::new(1.0, delta + bump, 0.05, &d).unwrap();
            prop_assert!(a2.mean_recurrence() + 1e-9 >= a1.mean_recurrence());
            prop_assert!(a2.query_accuracy() + 1e-12 >= a1.query_accuracy());
        }
    }
}
