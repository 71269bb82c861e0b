//! Special functions backing the distribution implementations.
//!
//! Only what the crate actually needs: the error function (log-normal CDF),
//! its inverse (normal quantiles for confidence intervals), and the
//! log-gamma function (Weibull/Erlang moments). All approximations have
//! absolute error well below `1e-6`, which is far tighter than the
//! statistical noise of any experiment in the paper (500 recurrence
//! intervals per plotted point, §7).

/// The error function `erf(x) = 2/√π ∫₀ˣ e^{-t²} dt`.
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation with maximum
/// absolute error `1.5e-7`, extended to negative arguments by oddness.
///
/// ```
/// let e = fd_stats::special::erf(1.0);
/// assert!((e - 0.8427007929).abs() < 1e-6);
/// ```
pub fn erf(x: f64) -> f64 {
    // A&S 7.1.26 constants.
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// CDF of the standard normal distribution.
///
/// ```
/// assert!((fd_stats::special::std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
/// ```
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Uses the Acklam rational approximation (relative error below `1.15e-9`),
/// suitable for the confidence intervals reported by the experiment
/// harness.
///
/// # Panics
///
/// Panics if `p` is not in the open interval `(0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0,1), got {p}");

    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step using the high-precision CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural logarithm of the gamma function, `ln Γ(x)` for `x > 0`.
///
/// Lanczos approximation (g = 7, n = 9), accurate to ~1e-13 over the
/// positive reals.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }

    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Regularized lower incomplete gamma function
/// `P(a, x) = γ(a, x)/Γ(a)` for `a > 0`, `x ≥ 0` — the CDF of the
/// Gamma(a, 1) distribution.
///
/// Series expansion for `x < a + 1`, Lentz continued fraction for the
/// complement otherwise (the classic numerically stable split).
///
/// # Panics
///
/// Panics if `a ≤ 0` or `x < 0`.
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && a.is_finite(), "regularized_gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "regularized_gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series: P(a,x) = x^a e^{-x} / Γ(a) · Σ x^n / (a(a+1)…(a+n)).
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut ap = a;
        for _ in 0..500 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum * (a * x.ln() - x - ln_gamma(a)).exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(a,x) = 1 − P(a,x) (modified Lentz).
        const TINY: f64 = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / TINY;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < TINY {
                d = TINY;
            }
            c = b + an / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (a * x.ln() - x - ln_gamma(a)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `x ∈ [0, 1]` — the CDF of the Beta(a, b) distribution, and the
/// backbone of the binomial tail probabilities behind Clopper–Pearson
/// confidence intervals (`P[X ≤ k] = I_{1−p}(n−k, k+1)`).
///
/// Modified-Lentz continued fraction (Numerical Recipes `betacf`),
/// applied to whichever of `I_x(a,b)` / `1 − I_{1−x}(b,a)` converges
/// fastest.
///
/// # Panics
///
/// Panics if `a ≤ 0`, `b ≤ 0`, or `x ∉ [0, 1]`.
fn regularized_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && a.is_finite(), "regularized_beta requires a > 0, got {a}");
    assert!(b > 0.0 && b.is_finite(), "regularized_beta requires b > 0, got {b}");
    assert!((0.0..=1.0).contains(&x), "regularized_beta requires x in [0, 1], got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    // Prefactor x^a (1−x)^b / (a B(a, b)), in logs for stability.
    let ln_front =
        ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() * beta_cf(a, b, x) / a).clamp(0.0, 1.0)
    } else {
        (1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b).clamp(0.0, 1.0)
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Inverse of `I_x(a, b)` in `x`: the `p`-quantile of the
/// Beta(a, b) distribution, via bisection (I_x is monotone in `x`).
///
/// # Panics
///
/// Panics if `a ≤ 0`, `b ≤ 0`, or `p ∉ [0, 1]`.
pub fn inverse_regularized_beta(a: f64, b: f64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "inverse_regularized_beta requires p in [0, 1], got {p}");
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    // 200 halvings take the bracket below f64 resolution everywhere.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if regularized_beta(a, b, mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= f64::EPSILON * mid.max(1e-12) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.520_499_877_8),
            (1.0, 0.842_700_792_9),
            (2.0, 0.995_322_265_0),
            (3.0, 0.999_977_909_5),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 2e-7, "erf({x})");
            assert!((erf(-x) + want).abs() < 2e-7, "erf(-{x})");
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.5] {
            let hi = std_normal_cdf(x);
            let lo = std_normal_cdf(-x);
            assert!((hi + lo - 1.0).abs() < 1e-9, "symmetry at {x}");
        }
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999] {
            let x = std_normal_quantile(p);
            assert!((std_normal_cdf(x) - p).abs() < 1e-7, "p={p}, x={x}");
        }
    }

    #[test]
    fn normal_quantile_known_values() {
        // Accuracy is limited by the A&S erf approximation (~1.5e-7 in the
        // CDF ⇒ ~2e-6 in the quantile near the 97.5th percentile).
        assert!((std_normal_quantile(0.975) - 1.959_963_985).abs() < 1e-5);
        assert!(std_normal_quantile(0.5).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "quantile probability")]
    fn normal_quantile_rejects_zero() {
        std_normal_quantile(0.0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts: [(f64, f64); 5] = [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (5.0, 24.0), (7.0, 720.0)];
        for (x, want) in facts {
            assert!((ln_gamma(x) - want.ln()).abs() < 1e-10, "lnΓ({x})");
        }
    }

    #[test]
    fn gamma_half() {
        // Γ(1/2) = √π
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn regularized_gamma_p_exponential_case() {
        // P(1, x) = 1 − e^{−x}.
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!(
                (regularized_gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12,
                "P(1, {x})"
            );
        }
    }

    #[test]
    fn regularized_gamma_p_erlang_case() {
        // P(k, x) for integer k matches 1 − e^{−x} Σ_{n<k} x^n/n!.
        let k = 3u32;
        for &x in &[0.5, 2.0, 5.0, 12.0] {
            let mut sum = 0.0;
            let mut term = 1.0;
            for n in 0..k {
                if n > 0 {
                    term *= x / n as f64;
                }
                sum += term;
            }
            let want = 1.0 - (-x).exp() * sum;
            assert!(
                (regularized_gamma_p(k as f64, x) - want).abs() < 1e-10,
                "P({k}, {x})"
            );
        }
    }

    #[test]
    fn regularized_gamma_p_monotone_and_bounded() {
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = regularized_gamma_p(2.5, x);
            assert!((0.0..=1.0).contains(&p));
            assert!(p + 1e-12 >= prev);
            prev = p;
        }
        assert_eq!(regularized_gamma_p(2.5, 0.0), 0.0);
        assert!(regularized_gamma_p(2.5, 100.0) > 0.999999);
    }

    #[test]
    #[should_panic(expected = "requires a > 0")]
    fn regularized_gamma_p_rejects_bad_a() {
        regularized_gamma_p(0.0, 1.0);
    }

    #[test]
    fn regularized_beta_known_values() {
        // I_x(1, 1) = x (uniform CDF).
        for &x in &[0.0, 0.2, 0.5, 0.9, 1.0] {
            assert!((regularized_beta(1.0, 1.0, x) - x).abs() < 1e-12, "I_{x}(1,1)");
        }
        // I_x(1, b) = 1 − (1−x)^b.
        for &(b, x) in &[(2.0, 0.3f64), (5.0, 0.7), (0.5, 0.4)] {
            let want = 1.0 - (1.0 - x).powf(b);
            assert!(
                (regularized_beta(1.0, b, x) - want).abs() < 1e-10,
                "I_{x}(1,{b})"
            );
        }
        // Symmetry: I_x(a, b) = 1 − I_{1−x}(b, a).
        for &(a, b, x) in &[(2.5, 3.5, 0.4), (0.7, 1.9, 0.8), (10.0, 2.0, 0.95)] {
            let lhs = regularized_beta(a, b, x);
            let rhs = 1.0 - regularized_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "symmetry at ({a},{b},{x})");
        }
        // Binomial tail identity: P[Bin(n,p) ≤ k] = I_{1−p}(n−k, k+1).
        let (n, k, p) = (10u32, 3u32, 0.3f64);
        let mut tail = 0.0;
        for j in 0..=k {
            let mut comb = 1.0;
            for i in 0..j {
                comb *= (n - i) as f64 / (i + 1) as f64;
            }
            tail += comb * p.powi(j as i32) * (1.0 - p).powi((n - j) as i32);
        }
        let via_beta = regularized_beta((n - k) as f64, (k + 1) as f64, 1.0 - p);
        assert!((tail - via_beta).abs() < 1e-10, "binomial tail {tail} vs {via_beta}");
    }

    #[test]
    fn inverse_regularized_beta_round_trips() {
        for &(a, b) in &[(1.0, 1.0), (2.5, 7.0), (30.0, 3.0), (0.5, 0.5)] {
            for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
                let x = inverse_regularized_beta(a, b, p);
                assert!(
                    (regularized_beta(a, b, x) - p).abs() < 1e-9,
                    "round trip at ({a},{b},{p})"
                );
            }
        }
        assert_eq!(inverse_regularized_beta(2.0, 2.0, 0.0), 0.0);
        assert_eq!(inverse_regularized_beta(2.0, 2.0, 1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "x in [0, 1]")]
    fn regularized_beta_rejects_bad_x() {
        regularized_beta(1.0, 1.0, 1.5);
    }
}
