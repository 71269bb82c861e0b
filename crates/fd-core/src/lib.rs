//! The failure-detector algorithms of Chen, Toueg & Aguilera, their
//! closed-form QoS analysis, and QoS-driven configuration.
//!
//! # The algorithms
//!
//! The monitored process `p` sends heartbeats `m₁, m₂, …` every `η` time
//! units; the monitoring process `q` decides at every instant whether to
//! trust or suspect `p`. This crate implements, as explicit event-driven
//! state machines behind the [`FailureDetector`] trait:
//!
//! * [`detectors::NfdS`] — the paper's new algorithm for synchronized
//!   clocks (Fig. 6): `q` precomputes *freshness points* `τᵢ = σᵢ + δ`
//!   and trusts at `t ∈ [τᵢ, τᵢ₊₁)` iff it has received some `m_j` with
//!   `j ≥ i`.
//! * [`detectors::NfdU`] — unsynchronized clocks, known expected arrival
//!   times (Fig. 9): `τᵢ = EAᵢ + α`.
//! * [`detectors::NfdE`] — unsynchronized clocks, expected arrival times
//!   *estimated* from the `n` most recent heartbeats (Eq. 6.3).
//! * [`detectors::SimpleFd`] — the common baseline (§1.2.1): trust on
//!   receipt, suspect when a fixed timeout `TO` expires without a newer
//!   heartbeat; optionally with the §7.2 *cutoff* modification that
//!   discards heartbeats delayed more than `c` (yielding the SFD-L /
//!   SFD-S configurations of Fig. 12).
//!
//! # Analysis and configuration
//!
//! * [`analysis`] — Proposition 3 and Theorem 5: exact `E(T_MR)`,
//!   `E(T_M)`, `P_A` and the tight detection-time bound `T_D ≤ δ + η` for
//!   NFD-S under any delay law.
//! * [`bounds`] — the moment-only bounds of Theorems 9 and 11 (via the
//!   one-sided inequality).
//! * [`config`] — the three configuration procedures (§4, §5, §6.2) that
//!   map application QoS requirements `(T_D^U, T_MR^L, T_M^U)` to
//!   algorithm parameters, plus Proposition 8's bound on the optimal `η`.
//! * [`estimate`] — the §5.2/§6.2.2 estimators for `p_L`, `E(D)`, `V(D)`
//!   and the Eq. (6.3) expected-arrival-time estimator, plus the
//!   windowed loss estimator behind §8.1.2's short-term component.
//! * [`hysteresis`] — the deadband and dwell that damp §8.1's
//!   reconfiguration loop. The loop itself — periodic re-estimation, the
//!   short/long "most conservative" estimator pair, the configurator and
//!   the retune — is `fd-cluster`'s control plane, which runs it for
//!   every peer that declares QoS requirements.
//!
//! # Example: configure NFD-S for an application
//!
//! ```
//! use fd_core::config::configure_known_distribution;
//! use fd_metrics::QosRequirements;
//! use fd_stats::dist::Exponential;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // §4 worked example: detect in 30 s, ≤ 1 mistake/month, fix in ≤ 60 s,
//! // over a link with 1% loss and exponential delays of mean 20 ms.
//! let req = QosRequirements::new(30.0, 2_592_000.0, 60.0)?;
//! let delay = Exponential::with_mean(0.02)?;
//! let params = configure_known_distribution(&req, 0.01, &delay)?
//!     .expect("achievable");
//! assert!((params.eta - 9.97).abs() < 0.02);   // paper: η ≈ 9.97 s
//! assert!((params.delta - 20.03).abs() < 0.02); // paper: δ ≈ 20.03 s
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bounds;
pub mod config;
pub mod detector;
pub mod detectors;
pub mod estimate;
pub mod hysteresis;
pub mod ping;

pub use analysis::NfdSAnalysis;
pub use config::{NfdSParams, NfdUParams};
pub use detector::{FailureDetector, Heartbeat};
pub use hysteresis::{HysteresisConfig, HysteresisGate};
