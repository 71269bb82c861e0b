//! Theorem 1: exact relations between the accuracy metrics (§2.4).
//!
//! For any *ergodic* failure detector:
//!
//! 1. `T_G = T_MR − T_M`;
//! 2. if `0 < E(T_MR) < ∞`: `λ_M = 1 / E(T_MR)` and
//!    `P_A = E(T_G) / E(T_MR)`;
//! 3. if additionally `E(T_G) ≠ 0`:
//!    * 3a. `Pr(T_FG ≤ x) = ∫₀ˣ Pr(T_G > y) dy / E(T_G)`,
//!    * 3b. `E(T_FG^k) = E(T_G^{k+1}) / [(k+1) E(T_G)]`,
//!    * 3c. `E(T_FG) = [1 + V(T_G)/E(T_G)²] · E(T_G) / 2`
//!      (the waiting-time paradox: generally *larger* than `E(T_G)/2`).
//!
//! These relations justify selecting `T_MR` and `T_M` as the two primary
//! accuracy metrics: together they determine all four derived metrics.

use crate::{AccuracyAnalysis, TransitionTrace};
use fd_stats::Summary;

/// Average mistake rate from the mean recurrence time (Theorem 1.2).
///
/// # Panics
///
/// Panics unless `e_tmr > 0`.
pub fn mistake_rate_from_recurrence(e_tmr: f64) -> f64 {
    assert!(e_tmr > 0.0, "E(T_MR) must be positive, got {e_tmr}");
    1.0 / e_tmr
}

/// Query accuracy probability from the two primary accuracy means
/// (Theorem 1.1 + 1.2): `P_A = E(T_G)/E(T_MR) = 1 − E(T_M)/E(T_MR)`.
///
/// # Panics
///
/// Panics unless `0 ≤ e_tm ≤ e_tmr` and `e_tmr > 0`.
pub fn query_accuracy_from_primary(e_tmr: f64, e_tm: f64) -> f64 {
    assert!(e_tmr > 0.0, "E(T_MR) must be positive, got {e_tmr}");
    assert!(
        (0.0..=e_tmr).contains(&e_tm),
        "E(T_M) must lie in [0, E(T_MR)], got {e_tm}"
    );
    1.0 - e_tm / e_tmr
}

/// Mean good period from the primary means (Theorem 1.1):
/// `E(T_G) = E(T_MR) − E(T_M)`.
pub fn good_period_from_primary(e_tmr: f64, e_tm: f64) -> f64 {
    e_tmr - e_tm
}

/// Mean forward good period from the first two moments of `T_G`
/// (Theorem 1.3c): `E(T_FG) = [1 + V(T_G)/E(T_G)²] E(T_G)/2`.
///
/// # Panics
///
/// Panics unless `e_tg > 0` and `v_tg ≥ 0`.
pub fn forward_good_from_good_moments(e_tg: f64, v_tg: f64) -> f64 {
    assert!(e_tg > 0.0, "E(T_G) must be positive, got {e_tg}");
    assert!(v_tg >= 0.0, "V(T_G) must be nonnegative, got {v_tg}");
    (1.0 + v_tg / (e_tg * e_tg)) * e_tg / 2.0
}

/// `k`-th moment of `T_FG` from the `(k+1)`-th moment of `T_G`
/// (Theorem 1.3b): `E(T_FG^k) = E(T_G^{k+1}) / [(k+1) E(T_G)]`.
///
/// # Panics
///
/// Panics unless `e_tg > 0`.
pub fn forward_good_moment(k: u32, e_tg: f64, e_tg_k_plus_1: f64) -> f64 {
    assert!(e_tg > 0.0, "E(T_G) must be positive, got {e_tg}");
    e_tg_k_plus_1 / ((k + 1) as f64 * e_tg)
}

/// CDF of `T_FG` at `x` from the empirical distribution of `T_G`
/// (Theorem 1.3a): `Pr(T_FG ≤ x) = ∫₀ˣ Pr(T_G > y) dy / E(T_G)`.
///
/// The integral is evaluated exactly on the empirical (step-function)
/// survival function of the `T_G` samples.
///
/// # Panics
///
/// Panics if `x < 0`.
pub fn forward_good_cdf_from_good_samples(x: f64, tg: &Summary) -> f64 {
    assert!(x >= 0.0, "x must be nonnegative, got {x}");
    let e_tg = tg.mean();
    if e_tg <= 0.0 {
        // Degenerate: all good periods are zero-length ⇒ T_FG ≡ 0.
        return 1.0;
    }
    // ∫₀ˣ Pr(T_G > y) dy where Pr(T_G > y) is piecewise constant between
    // sorted sample points. Equivalently Σᵢ min(gᵢ, x) / n / E(T_G).
    let n = tg.count() as f64;
    let integral: f64 = tg.iter_sorted().map(|&g| g.min(x)).sum::<f64>() / n;
    (integral / e_tg).clamp(0.0, 1.0)
}

/// Discrepancy report from checking Theorem 1 on a recorded trace.
///
/// Each field is a *relative* residual `|measured − derived| / derived`
/// (or an absolute residual when the derived value is 0). Residuals of a
/// correct, ergodic detector shrink as the observation window grows;
/// experiment E2 uses this as a validation harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Theorem1Report {
    /// Residual of `E(T_G) = E(T_MR) − E(T_M)`.
    pub good_period_residual: f64,
    /// Residual of `λ_M = 1/E(T_MR)`.
    pub mistake_rate_residual: f64,
    /// Residual of `P_A = E(T_G)/E(T_MR)`.
    pub query_accuracy_residual: f64,
    /// Residual of `E(T_FG)` vs Theorem 1.3c from `T_G` moments.
    pub forward_good_residual: f64,
}

impl Theorem1Report {
    /// Largest residual in the report.
    pub fn max_residual(&self) -> f64 {
        self.good_period_residual
            .max(self.mistake_rate_residual)
            .max(self.query_accuracy_residual)
            .max(self.forward_good_residual)
    }
}

/// Checks Theorem 1 on a failure-free trace's [`AccuracyAnalysis`] and
/// its `T_G` samples; `None` if the trace lacks complete intervals for any
/// relation (e.g. no mistakes at all).
pub fn check_theorem1(trace: &TransitionTrace) -> Option<Theorem1Report> {
    let acc = AccuracyAnalysis::of_trace(trace);
    let e_tmr = acc.mean_mistake_recurrence()?;
    let e_tm = acc.mean_mistake_duration()?;
    let e_tg = acc.mean_good_period()?;
    if e_tmr <= 0.0 || e_tg <= 0.0 {
        return None;
    }
    let tg = Summary::from_samples(&trace.good_periods().collect::<Vec<_>>()).ok()?;

    let rel = |measured: f64, derived: f64| {
        if derived == 0.0 {
            measured.abs()
        } else {
            (measured - derived).abs() / derived.abs()
        }
    };

    let good_period_residual = rel(e_tg, good_period_from_primary(e_tmr, e_tm));
    let mistake_rate_residual = rel(acc.mistake_rate(), mistake_rate_from_recurrence(e_tmr));
    let query_accuracy_residual = rel(acc.query_accuracy_probability(), e_tg / e_tmr);
    let derived_fg = forward_good_from_good_moments(e_tg, tg.population_variance());
    let measured_fg = acc.expected_forward_good_period()?;
    let forward_good_residual = rel(measured_fg, derived_fg);

    Some(Theorem1Report {
        good_period_residual,
        mistake_rate_residual,
        query_accuracy_residual,
        forward_good_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FdOutput, TraceRecorder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn rate_is_reciprocal() {
        assert!((mistake_rate_from_recurrence(16.0) - 1.0 / 16.0).abs() < 1e-15);
    }

    #[test]
    fn pa_from_primary() {
        assert!((query_accuracy_from_primary(16.0, 4.0) - 0.75).abs() < 1e-15);
        assert_eq!(query_accuracy_from_primary(10.0, 0.0), 1.0);
        assert_eq!(query_accuracy_from_primary(10.0, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "E(T_M) must lie")]
    fn pa_rejects_tm_exceeding_tmr() {
        query_accuracy_from_primary(10.0, 11.0);
    }

    #[test]
    fn deterministic_good_periods_halve() {
        // V(T_G) = 0 ⇒ E(T_FG) = E(T_G)/2 — no paradox for constants.
        assert!((forward_good_from_good_moments(10.0, 0.0) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn paradox_increases_forward_good() {
        let e_tg = 10.0;
        for v in [1.0, 25.0, 100.0] {
            assert!(forward_good_from_good_moments(e_tg, v) > e_tg / 2.0);
        }
        // Exponential T_G: V = E² ⇒ E(T_FG) = E(T_G) exactly
        // (memorylessness).
        assert!((forward_good_from_good_moments(10.0, 100.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn moment_relation_k1_matches_3c() {
        // 3b with k=1: E(T_FG) = E(T_G²) / (2 E(T_G)); 3c restates this via
        // V(T_G) = E(T_G²) − E(T_G)².
        let (e_tg, e_tg2) = (4.0, 20.0);
        let via_3b = forward_good_moment(1, e_tg, e_tg2);
        let via_3c = forward_good_from_good_moments(e_tg, e_tg2 - e_tg * e_tg);
        assert!((via_3b - via_3c).abs() < 1e-12);
    }

    #[test]
    fn fg_cdf_from_samples_two_point() {
        // T_G samples {2, 8}: Pr(T_G > y) = 1 on [0,2), 0.5 on [2,8), 0 after.
        let tg = fd_stats::Summary::from_samples(&[2.0, 8.0]).unwrap();
        // E(T_G) = 5. CDF at x=2: ∫ = 2 ⇒ 0.4. At x=8: ∫ = 2 + 3 = 5 ⇒ 1.
        assert!((forward_good_cdf_from_good_samples(2.0, &tg) - 0.4).abs() < 1e-12);
        assert!((forward_good_cdf_from_good_samples(8.0, &tg) - 1.0).abs() < 1e-12);
        assert!((forward_good_cdf_from_good_samples(5.0, &tg) - 0.7).abs() < 1e-12);
        assert_eq!(forward_good_cdf_from_good_samples(100.0, &tg), 1.0);
        assert_eq!(forward_good_cdf_from_good_samples(0.0, &tg), 0.0);
    }

    /// Random alternating trace driven by exponential-ish interval draws.
    fn random_trace(seed: u64, cycles: usize) -> crate::TransitionTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        let mut t = 0.0;
        for _ in 0..cycles {
            t += -8.0 * rng.random::<f64>().max(1e-12).ln(); // good ~ Exp(8)
            rec.record(t, FdOutput::Suspect);
            t += -rng.random::<f64>().max(1e-12).ln(); // bad ~ Exp(1)
            rec.record(t, FdOutput::Trust);
        }
        rec.finish(t)
    }

    #[test]
    fn theorem1_holds_on_random_trace() {
        let trace = random_trace(7, 20_000);
        let report = check_theorem1(&trace).expect("trace has complete intervals");
        assert!(
            report.max_residual() < 0.05,
            "Theorem 1 residuals too large: {report:?}"
        );
    }

    #[test]
    fn check_returns_none_without_mistakes() {
        let rec = TraceRecorder::new(0.0, FdOutput::Trust);
        assert!(check_theorem1(&rec.finish(50.0)).is_none());
    }

    #[test]
    fn report_max_residual() {
        let r = Theorem1Report {
            good_period_residual: 0.1,
            mistake_rate_residual: 0.3,
            query_accuracy_residual: 0.2,
            forward_good_residual: 0.05,
        };
        assert_eq!(r.max_residual(), 0.3);
    }
}
