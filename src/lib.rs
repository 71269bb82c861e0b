//! # chen-fd-qos
//!
//! A full reproduction of **Chen, Toueg & Aguilera, "On the Quality of
//! Service of Failure Detectors"** (DSN 2000 / IEEE ToC 2002) as a Rust
//! workspace. This facade crate re-exports every member so examples and
//! downstream users can depend on one name.
//!
//! | crate | contents |
//! |---|---|
//! | [`fd_metrics`] | the seven QoS metrics, output traces, Theorem 1 |
//! | [`fd_core`] | NFD-S / NFD-U / NFD-E, the simple baseline, Theorem 5 analysis, §4–§6 configurators, §5.2/6.3 estimators, §8.1 hysteresis |
//! | [`fd_sim`] | discrete-event simulator and §7 measurement harnesses |
//! | [`fd_cluster`] | the failure-detection service: sharded registry, timer-wheel expiry, batched heartbeat transport, the §8.1 adaptive control plane, the sender's durable incarnation; clocks, `Health` and the crash-recovery leader elector |
//! | [`fd_federation`] | multi-node monitor tier: rendezvous partitions, digest gossip, cross-node failover |
//! | [`fd_stats`] | delay distributions, online statistics, quadrature, sequential tests |
//! | [`fd_smc`] | statistical model checking: randomized chaos scenarios, QoS oracles, SPRT verifier |
//!
//! ## Quickstart
//!
//! ```
//! use chen_fd_qos::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. State the application's QoS requirements (Eq. 4.1):
//! //    detect within 30 s, ≤ 1 mistake/month, mistakes fixed in ≤ 60 s.
//! let req = QosRequirements::new(30.0, 2_592_000.0, 60.0)?;
//!
//! // 2. Describe the network: 1% loss, exponential delays, E(D) = 20 ms.
//! let delay = Exponential::with_mean(0.02)?;
//!
//! // 3. Configure NFD-S (the §4 procedure).
//! let params = configure_known_distribution(&req, 0.01, &delay)?
//!     .expect("these requirements are achievable");
//!
//! // 4. Inspect the QoS the analysis (Theorem 5) predicts.
//! let analysis = NfdSAnalysis::new(params.eta, params.delta, 0.01, &delay)?;
//! assert!(analysis.mean_recurrence() >= 2_592_000.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use fd_cluster;
pub use fd_core;
pub use fd_federation;
pub use fd_metrics;
pub use fd_sim;
pub use fd_smc;
pub use fd_stats;

/// One-stop imports for the most common API surface.
pub mod prelude {
    pub use fd_core::config::{
        configure_from_moments, configure_known_distribution, configure_nfd_u, NfdSParams,
        NfdUParams,
    };
    pub use fd_core::detectors::{NfdE, NfdS, NfdU, PhiAccrual, SimpleFd};
    pub use fd_core::{
        FailureDetector, Heartbeat, HysteresisConfig, HysteresisGate, NfdSAnalysis,
    };
    pub use fd_metrics::{
        AccuracyAnalysis, Conformance, ConformanceReport, FdOutput, LeaderQos, LeaderQosReport,
        LeadershipState, ObservedQos, OnlineQos, QosBundle, QosRequirements, TransitionTrace,
    };
    pub use fd_sim::harness::{
        measure_accuracy, measure_detection_times, steady_state_trace, AccuracyRun, DetectionRun,
    };
    pub use fd_sim::{FaultPlan, Link, LinkFault, ProcessEvent, RunOptions, StopCondition};
    pub use fd_cluster::{
        Candidate, ClusterConfig, ClusterMonitor, ClusterReceiver, ClusterReceiverConfig,
        ClusterSender, ClusterSenderConfig, ClusterSnapshot, ClusterStats, ControlConfig,
        CrashRecoveryElector, DemotionReason, ElectionConfig, ElectionEvent, ElectionRecord,
        ElectionState, FrameSender, Health, IncarnationStore, LeaderMetrics, MembershipChange,
        MembershipEvent, MetricsExporter, PeerConfig, PeerId, PeerQos, PeerStatus,
        PeerStatusReader, QosState,
    };
    pub use fd_federation::{
        Coverage, FedChange, FedEvent, FedMetrics, Federation, FederationConfig,
        FederationNode, FederationView, GossipEndpoint, LinkState, NodeConfig, NodeId, Via,
    };
    pub use fd_smc::{
        run_smc, DelayRegime, Oracle, ScenarioSpec, SmcConfig, SmcReport, Verdict,
    };
    pub use fd_stats::dist::{Constant, Exponential, Gamma, LogNormal, Mixture, Pareto, Uniform};
    pub use fd_stats::{DelayDistribution, Sprt, SprtConfig, SprtDecision};
}
