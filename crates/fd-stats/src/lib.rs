//! Probability and statistics substrate for the failure-detector QoS study.
//!
//! The paper ("On the Quality of Service of Failure Detectors", Chen, Toueg,
//! Aguilera) models the link between the monitored process `p` and the
//! monitoring process `q` by two quantities:
//!
//! * a message-loss probability `p_L`, and
//! * a message-delay random variable `D` with finite mean `E(D)` and
//!   variance `V(D)`, but otherwise *arbitrary* distribution (§3.1).
//!
//! Everything downstream — the closed-form QoS analysis of `NFD-S`
//! (Theorem 5), the moment-only configuration procedures (Theorems 9–12,
//! built on the one-sided Chebyshev/Cantelli inequality), and the
//! simulation study of §7 — consumes `D` only through its CDF, moments and
//! a sampler. This crate provides that interface plus the supporting
//! numerics:
//!
//! * [`DelayDistribution`] — the trait through which analysis, configuration
//!   and simulation all see `D`; implementations in [`dist`].
//! * [`online`] — streaming mean/variance (Welford) and sliding-window
//!   estimators, used by the paper's §5.2/§6.2.2 estimators for
//!   `p_L`, `E(D)`, `V(D)`.
//! * [`summary`] — batch sample summaries (mean, variance, moments,
//!   quantiles, confidence intervals) used to report experiment results.
//! * [`histogram`] — fixed-bin histograms for delay/metric distributions.
//! * [`inequality`] — the one-sided (Cantelli) inequality, Eq. (5.1).
//! * [`seq`] — Wald's SPRT and Clopper–Pearson intervals, the sequential
//!   decision layer of the statistical model-checking harness (`fd-smc`).
//! * [`integrate`] — adaptive Simpson quadrature, used to evaluate
//!   `∫₀^η u(x) dx` in Theorem 5.3 for arbitrary delay distributions.
//! * [`special`] — `erf`, `ln_gamma` and friends backing the log-normal and
//!   Weibull distributions.
//!
//! # Example
//!
//! ```
//! use fd_stats::dist::Exponential;
//! use fd_stats::DelayDistribution;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), fd_stats::StatsError> {
//! // The delay law used throughout §7 of the paper: E(D) = 0.02 s.
//! let d = Exponential::with_mean(0.02)?;
//! assert!((d.mean() - 0.02).abs() < 1e-12);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let sample = d.sample(&mut rng);
//! assert!(sample > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod gof;
pub mod histogram;
pub mod inequality;
pub mod integrate;
pub mod online;
pub mod seq;
pub mod special;
pub mod summary;

mod error;

pub use dist::DelayDistribution;
pub use error::StatsError;
pub use gof::{ks_test, KsTest};
pub use histogram::Histogram;
pub use inequality::cantelli_upper_bound;
pub use integrate::integrate_adaptive_simpson;
pub use online::{OnlineStats, WindowedStats};
pub use seq::{Sprt, SprtConfig, SprtDecision};
pub use summary::Summary;
