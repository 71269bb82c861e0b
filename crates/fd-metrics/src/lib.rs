//! The QoS metric suite of Chen, Toueg & Aguilera, "On the Quality of
//! Service of Failure Detectors" (§2).
//!
//! A failure detector at process `q` monitoring process `p` outputs, at
//! every instant, either `T` ("I trust that p is up") or `S` ("I suspect
//! that p has crashed"). Its quality of service is specified by seven
//! metrics, all defined on the detector's *output history* and therefore
//! applicable to **any** implementation — the paper is explicit that
//! implementation-specific measures such as "probability of premature
//! timeouts" are not valid QoS metrics (§2.3).
//!
//! **Primary metrics** (§2.2):
//!
//! * `T_D` — *detection time*: from `p`'s crash to the final S-transition.
//! * `T_MR` — *mistake recurrence time*: between consecutive S-transitions
//!   in failure-free runs.
//! * `T_M` — *mistake duration*: from an S-transition to the next
//!   T-transition.
//!
//! **Derived metrics** (§2.3), computable from the primary ones via
//! Theorem 1:
//!
//! * `λ_M` — average mistake rate;
//! * `P_A` — query accuracy probability;
//! * `T_G` — good period duration;
//! * `T_FG` — forward good period duration (the "waiting-time paradox"
//!   metric: `E(T_FG) ≠ E(T_G)/2` in general).
//!
//! This crate provides:
//!
//! * [`FdOutput`] and [`TransitionTrace`] — recorded output histories with
//!   the right-continuity convention of Appendix C (at the instant of an
//!   S-transition the output *is* `S`), and the `T_MR` / `T_M` / `T_G`
//!   samples of a trace as iterators;
//! * [`AccuracyAnalysis`] — estimation of all six accuracy metrics from a
//!   failure-free trace, as one fold of scalars;
//! * [`detection`] — measurement of `T_D` from a trace plus crash time;
//! * [`theorem1`] — the exact Theorem 1 relations and a numeric checker;
//! * [`QosRequirements`] — the `(T_D^U, T_MR^L, T_M^U)` requirement tuple
//!   consumed by the configuration procedures (§4–§6).
//!
//! # Example: Fig. 2 of the paper
//!
//! ```
//! use fd_metrics::{FdOutput, TraceRecorder};
//!
//! // FD₁ of Fig. 2: trusts for 12 time units, suspects for 4, repeating.
//! let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
//! for k in 0..4 {
//!     let base = 16.0 * k as f64;
//!     rec.record(base + 12.0, FdOutput::Suspect);
//!     rec.record(base + 16.0, FdOutput::Trust);
//! }
//! let trace = rec.finish(64.0);
//! let acc = fd_metrics::AccuracyAnalysis::of_trace(&trace);
//! assert!((acc.query_accuracy_probability() - 0.75).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod detection;
pub mod leader;
pub mod metrics;
pub mod online_qos;
pub mod output;
pub mod qos;
pub mod theorem1;
pub mod trace;

pub use compare::{compare_qos, QosOrdering};
pub use detection::{detection_time, DetectionOutcome};
pub use leader::{LeaderQos, LeaderQosReport, LeadershipState};
pub use metrics::AccuracyAnalysis;
pub use online_qos::{
    Conformance, ConformanceCheck, ConformanceReport, InvalidQosState, ObservedQos, OnlineQos,
    QosTrackerState,
};
pub use output::FdOutput;
pub use qos::{QosBundle, QosRequirements};
pub use trace::{Segment, TraceError, TraceRecorder, Transition, TransitionTrace, Transitions};
