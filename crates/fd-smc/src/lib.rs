//! Statistical model checking of the failure-detector stack.
//!
//! The paper proves QoS bounds (Theorem 5's detection-time worst case,
//! Theorem 1's steady-state identities) analytically; this crate checks
//! that the *implementation* honors them under adversity the proofs
//! never mention — burst loss, partitions, delay spikes, crash–recover
//! cycles, restart storms, forward clock jumps, heavy-tailed delay
//! regimes — by statistical model checking (SMC):
//!
//! 1. **Sample** a randomized scenario from a declarative
//!    [`ScenarioSpec`] — deterministic per seed, so any counterexample
//!    replays from two integers ([`scenario`]).
//! 2. **Judge** each completed run with property [`Oracle`]s: the
//!    Theorem 1 identities and online/batch estimator agreement, the
//!    NFD-S detection bound, configured-requirement conformance, and
//!    cluster lifecycle invariants ([`oracle`], [`cluster`]).
//! 3. **Decide** sequentially with Wald's SPRT — "does each property
//!    hold with probability ≥ p₁?" — run by a work-stealing thread
//!    pool, with exact Clopper–Pearson intervals in the report
//!    ([`verifier`], numerics in [`fd_stats::seq`]).
//!
//! Every scenario-time drive of a cluster monitor runs on one driver,
//! [`drive`]: peers send heartbeat `i` at `i·η` over seeded `(p_L, D)`
//! links with `FaultPlan` faults into a `ClusterMonitor::manual` that
//! sweeps every tick. The cluster and election scenarios step it
//! ([`cluster`], [`election`]), and so do E23's churn sweep, the façade
//! tests and the examples.
//!
//! The `exp_smc` binary in `fd-bench` (experiment E20) packages all of
//! this behind a CLI with a full mode (≥ 1000 randomized scenarios
//! across the delay regimes) and a `--smoke` mode sized for CI.
//!
//! # Example
//!
//! ```
//! use fd_smc::{run_smc, DetectionOracle, Oracle, RunRecord, ScenarioSpec, SmcConfig};
//!
//! let spec = ScenarioSpec {
//!     crash_fraction: 1.0,
//!     benign_fraction: 0.0,
//!     ..ScenarioSpec::broad()
//! };
//! let oracles: Vec<Box<dyn Oracle<RunRecord>>> =
//!     vec![Box::new(DetectionOracle::default())];
//! let report = run_smc(
//!     &SmcConfig { max_runs: 20, min_runs: 0, threads: 2, ..SmcConfig::standard() },
//!     |seed| spec.sample(seed).run(),
//!     &oracles,
//! );
//! assert!(!report.any_reject());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod drive;
pub mod election;
pub mod federation;
pub mod oracle;
pub mod scenario;
pub mod verifier;

pub use cluster::{run_cluster_scenario, ClusterRecord, DegradePromoteOracle, GhostEventOracle};
pub use election::{
    run_election_scenario, ElectionLatencyOracle, ElectionRunRecord, ElectionStabilityOracle,
    SpuriousDemotionOracle,
};
pub use federation::{
    run_federation_scenario, run_relay_scenario, FedConvergenceOracle, FedCoverageOracle,
    FedRecord, FedRelayOracle, FedRelayRecord,
};
pub use oracle::{
    AgreementOracle, ConformanceOracle, DetectionOracle, Oracle, Theorem1Oracle, Verdict,
};
pub use scenario::{DelayRegime, FaultMix, RunRecord, Scenario, ScenarioSpec};
pub use verifier::{run_smc, PropertyResult, SmcConfig, SmcReport, SPRT};
