//! Sequential hypothesis testing for statistical model checking.
//!
//! The SMC harness (`fd-smc`) asks questions of the form "does QoS
//! property φ hold in at least a fraction θ of randomized runs?" and
//! wants to stop sampling as soon as the answer is statistically clear.
//! This module provides the two standard tools:
//!
//! * [`Sprt`] — Wald's Sequential Probability Ratio Test over Bernoulli
//!   observations, deciding between `H0: p ≤ p0` and `H1: p ≥ p1`
//!   (with an indifference region `(p0, p1)`) at configured error rates
//!   `α` (false accept of H1) and `β` (false accept of H0). The SPRT is
//!   optimal in expected sample size among all tests with these error
//!   rates, so a model-checking campaign over thousands of seeds stops
//!   after a few dozen runs when the property is clearly true (or
//!   clearly false).
//! * [`Sprt::confidence_interval`] — the exact (conservative)
//!   Clopper–Pearson binomial confidence interval, reported alongside
//!   every verdict so a report says not just "accepted" but
//!   "`P[φ] ∈ [0.984, 0.999]` at 99% confidence".

use crate::error::StatsError;
use crate::special::inverse_regularized_beta;

/// Configuration of one Wald SPRT: the hypotheses and error rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprtConfig {
    /// Null success probability: `H0: p ≤ p0` ("property violated too
    /// often").
    pub p0: f64,
    /// Alternative success probability: `H1: p ≥ p1` ("property holds
    /// often enough"). Must satisfy `p0 < p1`.
    pub p1: f64,
    /// Tolerated probability of accepting H1 when H0 is true.
    pub alpha: f64,
    /// Tolerated probability of accepting H0 when H1 is true.
    pub beta: f64,
}

impl SprtConfig {
    /// Validates and builds a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless
    /// `0 < p0 < p1 < 1`, `0 < alpha < 1`, and `0 < beta < 1`.
    pub fn new(p0: f64, p1: f64, alpha: f64, beta: f64) -> Result<Self, StatsError> {
        let check = |name: &'static str, v: f64| {
            if v > 0.0 && v < 1.0 {
                Ok(())
            } else {
                Err(StatsError::InvalidParameter {
                    name,
                    constraint: "in (0, 1)",
                    value: v,
                })
            }
        };
        check("p0", p0)?;
        check("p1", p1)?;
        check("alpha", alpha)?;
        check("beta", beta)?;
        if p0 >= p1 {
            return Err(StatsError::InvalidParameter {
                name: "p0",
                constraint: "< p1",
                value: p0,
            });
        }
        Ok(Self { p0, p1, alpha, beta })
    }

}

/// Decision state of a running [`Sprt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SprtDecision {
    /// Evidence favors `H1: p ≥ p1` — the property holds often enough.
    AcceptH1,
    /// Evidence favors `H0: p ≤ p0` — the property is violated too
    /// often.
    AcceptH0,
    /// Not enough evidence yet; keep sampling.
    Continue,
}

/// A running Wald Sequential Probability Ratio Test over Bernoulli
/// observations.
///
/// Feed per-run outcomes with [`observe`](Self::observe); the running
/// log-likelihood ratio is compared against Wald's thresholds
/// `ln((1−β)/α)` and `ln(β/(1−α))`. The test is *sticky*: once a
/// decision is reached, further observations no longer change it (the
/// decision was made at the stopping time, as the theory requires —
/// extra samples only refine the reported confidence interval).
///
/// ```
/// use fd_stats::{Sprt, SprtConfig, SprtDecision};
///
/// let cfg = SprtConfig::new(0.80, 0.95, 0.01, 0.01).unwrap();
/// let mut test = Sprt::new(cfg);
/// let mut n = 0;
/// while test.decision() == SprtDecision::Continue {
///     test.observe(true); // every run satisfies the property
///     n += 1;
/// }
/// assert_eq!(test.decision(), SprtDecision::AcceptH1);
/// assert!(n < 50, "a clearly-true property decides quickly, took {n}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sprt {
    config: SprtConfig,
    successes: u64,
    failures: u64,
    llr: f64,
    decided: Option<SprtDecision>,
}

impl Sprt {
    /// Starts a test with no observations.
    pub fn new(config: SprtConfig) -> Self {
        Self {
            config,
            successes: 0,
            failures: 0,
            llr: 0.0,
            decided: None,
        }
    }

    /// The configuration under test.
    pub fn config(&self) -> &SprtConfig {
        &self.config
    }

    /// Observations so far.
    pub fn trials(&self) -> u64 {
        self.successes + self.failures
    }

    /// Successful observations so far.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Failed observations so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Feeds one Bernoulli observation and returns the (possibly
    /// already frozen) decision state.
    pub fn observe(&mut self, success: bool) -> SprtDecision {
        let SprtConfig { p0, p1, .. } = self.config;
        if success {
            self.successes += 1;
        } else {
            self.failures += 1;
        }
        if self.decided.is_none() {
            // Incremental LLR update keeps observe O(1).
            self.llr += if success {
                (p1 / p0).ln()
            } else {
                ((1.0 - p1) / (1.0 - p0)).ln()
            };
            if self.llr >= self.accept_h1_threshold() {
                self.decided = Some(SprtDecision::AcceptH1);
            } else if self.llr <= self.accept_h0_threshold() {
                self.decided = Some(SprtDecision::AcceptH0);
            }
        }
        self.decision()
    }

    /// The current decision state.
    pub fn decision(&self) -> SprtDecision {
        self.decided.unwrap_or(SprtDecision::Continue)
    }

    /// Wald's upper threshold `ln((1−β)/α)`.
    fn accept_h1_threshold(&self) -> f64 {
        ((1.0 - self.config.beta) / self.config.alpha).ln()
    }

    /// Wald's lower threshold `ln(β/(1−α))`.
    fn accept_h0_threshold(&self) -> f64 {
        (self.config.beta / (1.0 - self.config.alpha)).ln()
    }

    /// The exact Clopper–Pearson interval for the success probability at
    /// the given confidence level.
    ///
    /// # Panics
    ///
    /// Panics if `confidence ∉ (0, 1)`.
    pub fn confidence_interval(&self, confidence: f64) -> (f64, f64) {
        clopper_pearson(self.successes, self.trials(), confidence)
    }
}

/// The exact (Clopper–Pearson) two-sided confidence interval for a
/// binomial proportion: `successes` out of `trials` at confidence level
/// `confidence` (e.g. `0.99`).
///
/// Conservative by construction — the interval's coverage is at least
/// the nominal level for every true `p`. The degenerate `trials == 0`
/// case returns `(0, 1)` (no information).
///
/// # Panics
///
/// Panics if `successes > trials` or `confidence ∉ (0, 1)`.
fn clopper_pearson(successes: u64, trials: u64, confidence: f64) -> (f64, f64) {
    assert!(
        successes <= trials,
        "successes ({successes}) cannot exceed trials ({trials})"
    );
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    if trials == 0 {
        return (0.0, 1.0);
    }
    let alpha = 1.0 - confidence;
    let (s, n) = (successes as f64, trials as f64);
    let lower = if successes == 0 {
        0.0
    } else {
        inverse_regularized_beta(s, n - s + 1.0, alpha / 2.0)
    };
    let upper = if successes == trials {
        1.0
    } else {
        inverse_regularized_beta(s + 1.0, n - s, 1.0 - alpha / 2.0)
    };
    (lower, upper)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SprtConfig {
        SprtConfig::new(0.9, 0.99, 0.01, 0.01).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(SprtConfig::new(0.5, 0.9, 0.05, 0.05).is_ok());
        assert!(SprtConfig::new(0.9, 0.5, 0.05, 0.05).is_err(), "p0 >= p1");
        assert!(SprtConfig::new(0.0, 0.5, 0.05, 0.05).is_err(), "p0 = 0");
        assert!(SprtConfig::new(0.5, 1.0, 0.05, 0.05).is_err(), "p1 = 1");
        assert!(SprtConfig::new(0.5, 0.9, 0.0, 0.05).is_err(), "alpha = 0");
    }

    #[test]
    fn decides_where_the_closed_form_llr_crosses_a_threshold() {
        // p0 = 0.5, p1 = 0.8, α = β = 0.1: a success adds ln 1.6 ≈ 0.470,
        // a failure ln 0.4 ≈ −0.916, and the thresholds are ±ln 9 ≈ ±2.197.
        let cfg = SprtConfig::new(0.5, 0.8, 0.1, 0.1).unwrap();
        // T T F T T T T: LLR 1.904, still inside; the next T makes 2.374.
        let mut t = Sprt::new(cfg);
        for s in [true, true, false, true, true, true, true] {
            assert_eq!(t.observe(s), SprtDecision::Continue);
        }
        assert_eq!(t.observe(true), SprtDecision::AcceptH1);
        // F F: LLR −1.833, still inside; the next F makes −2.749.
        let mut t = Sprt::new(cfg);
        for s in [false, false] {
            assert_eq!(t.observe(s), SprtDecision::Continue);
        }
        assert_eq!(t.observe(false), SprtDecision::AcceptH0);
    }

    #[test]
    fn all_successes_accepts_h1_quickly() {
        let mut t = Sprt::new(cfg());
        let mut n = 0u64;
        while t.observe(true) == SprtDecision::Continue {
            n += 1;
            assert!(n < 10_000);
        }
        assert_eq!(t.decision(), SprtDecision::AcceptH1);
        // ln((1−β)/α)/ln(p1/p0) ≈ 4.595/0.0953 ≈ 48.2 ⇒ 49 runs.
        assert!(t.trials() <= 60, "took {} runs", t.trials());
    }

    #[test]
    fn frequent_failures_accept_h0() {
        // Alternate success/failure: p̂ = 0.5, far below p0 = 0.9.
        let mut t = Sprt::new(cfg());
        let mut i = 0;
        while t.decision() == SprtDecision::Continue {
            t.observe(i % 2 == 0);
            i += 1;
            assert!(i < 10_000);
        }
        assert_eq!(t.decision(), SprtDecision::AcceptH0);
    }

    #[test]
    fn decision_is_sticky() {
        let mut t = Sprt::new(cfg());
        while t.observe(true) == SprtDecision::Continue {}
        assert_eq!(t.decision(), SprtDecision::AcceptH1);
        // A burst of failures after the stopping time cannot flip it.
        for _ in 0..1000 {
            t.observe(false);
        }
        assert_eq!(t.decision(), SprtDecision::AcceptH1);
        // …but the counters keep accumulating for the CI report.
        assert_eq!(t.failures(), 1000);
    }

    #[test]
    fn clopper_pearson_known_interval() {
        // Classic check: 0/10 successes at 95% ⇒ upper = 1 − 0.025^{1/10}.
        let (lo, hi) = clopper_pearson(0, 10, 0.95);
        assert_eq!(lo, 0.0);
        let want = 1.0 - 0.025f64.powf(0.1);
        assert!((hi - want).abs() < 1e-9, "upper {hi} vs {want}");
        // Symmetric case: 10/10 mirrors 0/10.
        let (lo, hi) = clopper_pearson(10, 10, 0.95);
        assert_eq!(hi, 1.0);
        assert!((lo - (1.0 - want) + 0.0).abs() < 1e-9 || (lo - 0.025f64.powf(0.1)).abs() < 1e-9);
    }

    #[test]
    fn clopper_pearson_brackets_point_estimate() {
        for &(s, n) in &[(1u64, 10u64), (5, 10), (50, 100), (99, 100), (500, 1000)] {
            let (lo, hi) = clopper_pearson(s, n, 0.99);
            let p_hat = s as f64 / n as f64;
            assert!(lo <= p_hat && p_hat <= hi, "({s},{n}): [{lo},{hi}] ∌ {p_hat}");
            assert!(lo >= 0.0 && hi <= 1.0);
            // Tighter at higher n (99% width at n=100, p̂=0.5 is ~0.26).
            if n >= 100 {
                assert!(hi - lo < 0.3);
            }
            if n >= 1000 {
                assert!(hi - lo < 0.1);
            }
        }
    }

    #[test]
    fn clopper_pearson_no_trials_is_vacuous() {
        assert_eq!(clopper_pearson(0, 0, 0.99), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "cannot exceed trials")]
    fn clopper_pearson_rejects_impossible_counts() {
        clopper_pearson(5, 4, 0.95);
    }
}
