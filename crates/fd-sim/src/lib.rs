//! Discrete-event simulation of the paper's two-process system.
//!
//! §3.1's model: processes `p` (monitored) and `q` (monitoring) are
//! connected by a link that may *drop* each message independently with
//! probability `p_L` and *delays* each delivered message by an i.i.d.
//! draw from a delay law `D`. `p` sends heartbeat `mᵢ` at `σᵢ = i·η`;
//! `p` may crash (after which it sends nothing, but messages already in
//! flight are unaffected — crashes are unpredictable and independent of
//! message behavior).
//!
//! This crate substitutes for the authors' (unavailable) simulator:
//!
//! * [`Link`] — the probabilistic channel;
//! * [`DelayPattern`] — Appendix C's *message delay patterns*: a frozen
//!   sequence of per-message fates, so different detectors can be
//!   compared on **identical** delay/loss realizations (the optimality
//!   proof of Theorem 6 quantifies over exactly these patterns, and
//!   experiment E9 exercises it empirically);
//! * [`run()`] — the event loop driving any
//!   [`FailureDetector`](fd_core::FailureDetector) and recording its
//!   output as a [`TransitionTrace`](fd_metrics::TransitionTrace);
//! * [`FaultPlan`] — the one fault model: §8.1's departures from message
//!   independence (epoch changes, bursty loss) and process faults as one
//!   scripted timeline, which [`run_with_plan`] lays over a [`Link`];
//! * [`harness`] — measurement helpers: steady-state accuracy over a
//!   target number of mistake-recurrence intervals (the paper's §7
//!   methodology: "a run with 500 mistake recurrence intervals"), and
//!   crash-injection detection-time sampling.
//!
//! # Example
//!
//! ```
//! use fd_core::detectors::NfdS;
//! use fd_sim::{Link, RunOptions, StopCondition};
//! use fd_stats::dist::Exponential;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // §7 setting: η = 1, p_L = 0.01, D ~ Exp(0.02).
//! let link = Link::new(0.01, Box::new(Exponential::with_mean(0.02)?))?;
//! let mut fd = NfdS::new(1.0, 1.0)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let out = fd_sim::run(
//!     &mut fd,
//!     &RunOptions::failure_free(1.0, StopCondition::Horizon(1000.0)),
//!     &link,
//!     &mut rng,
//! );
//! assert!(out.heartbeats_sent >= 999);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod harness;
pub mod link;
pub mod multi;
pub mod pattern;
pub mod run;

pub use fault::{FaultInjector, FaultPlan, LinkFault, ProcessEvent};
pub use link::{Link, LinkError};
pub use multi::MultiNodePlan;
pub use pattern::DelayPattern;
pub use run::{run, run_with_pattern, run_with_plan, RunOptions, RunOutcome, StopCondition};
