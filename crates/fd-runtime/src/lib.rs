//! Real-time, in-process runtime for the paper's failure detectors.
//!
//! Everything in `fd-core` is a pure state machine over local time; this
//! crate supplies the wall-clock plumbing that turns those state machines
//! into a running single-pair failure-detection *service*. It sits on top
//! of `fd-cluster`, which owns the vocabulary both share — the per-process
//! [`Clock`]s, [`RuntimeError`]/[`Health`], [`TrustView`] and the electors
//! — and the workspace's one datagram plane (`fd_cluster::net`, wire v4):
//! this crate opens no socket. The names its own signatures mention are
//! re-exported here.
//!
//! * [`transport`] — an in-process lossy/delaying channel that injects the
//!   paper's `(p_L, D)` link law with *real* wall-clock delays. This
//!   substitutes for an actual WAN (not available here): every code path
//!   — timers, threads, out-of-order delivery — is the one a UDP
//!   deployment would run, only the medium is simulated;
//! * [`heartbeater`] — the `p` side: a thread sending `mᵢ` every `η`,
//!   retunable at runtime (for §8.1 adaptivity) and crashable on demand;
//! * [`monitor`] — the `q` side: a thread driving any
//!   [`FailureDetector`](fd_core::FailureDetector) through arrivals and
//!   deadlines, publishing the live output and recording the trace;
//! * [`service`] — a multi-process façade in the spirit of the shared
//!   failure-detection service the paper reports implementing (\[15\],
//!   §8.1): one monitor per watched process, QoS-driven configuration,
//!   and a queryable suspicion list.
//!
//! Heartbeats over a real socket are `fd-cluster`'s
//! `ClusterSender` → `ClusterReceiver` → `ClusterMonitor` (one peer is
//! the single-pair case; `examples/udp_heartbeats.rs`).
//!
//! # Example
//!
//! ```
//! use fd_runtime::{LinkSpec, ProcessSpec, Service};
//! use fd_core::config::NfdUParams;
//! use fd_stats::dist::Exponential;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut service = Service::new();
//! service.watch(
//!     ProcessSpec::named("db-primary")
//!         .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
//!         .link(LinkSpec::new(0.0, Box::new(Exponential::with_mean(0.001)?))?),
//! )?;
//! std::thread::sleep(Duration::from_millis(100));
//! assert!(service.status()["db-primary"].is_trust());
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heartbeater;
pub mod monitor;
pub mod service;
pub mod transport;

pub use fd_cluster::{
    Clock, Health, JumpableClock, RuntimeError, SkewedClock, TrustView, WallClock,
};
pub use heartbeater::{Heartbeater, IncarnationStore};
pub use monitor::{DetectorFactory, Monitor};
pub use service::{ProcessSpec, Service, ServiceError};
pub use transport::{
    BadLossProbability, LinkSpec, LossyChannel, Receiver, Sender, DEFAULT_CHANNEL_CAPACITY,
};
