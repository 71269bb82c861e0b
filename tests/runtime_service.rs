//! The QoS pipeline end to end, in scenario time: requirements, the §6.2
//! configurator, a monitored peer over a lossy link, and detection within
//! the paper's bound `crash + η + α + (largest delay in the estimation
//! window) + tick`.

use chen_fd_qos::fd_smc::drive::{assert_detected, replay, Peer, Scenario};
use chen_fd_qos::prelude::*;

const SEEDS: std::ops::Range<u64> = 0..4;

#[test]
fn qos_to_running_service_pipeline() {
    let req = QosRequirements::new(0.2, 120.0, 0.05).unwrap();
    let params = configure_nfd_u(&req, 0.01, 4e-6).unwrap().expect("achievable");
    // The configured budget is spent exactly: η + α = T_D^u.
    assert!((params.eta + params.alpha - 0.2).abs() < 1e-9);

    let crash = 0.3;
    for seed in SEEDS {
        let cfg = PeerConfig::new(params.eta, params.alpha);
        let plan = FaultPlan::new(seed).crash(crash);
        let peer = Peer::new(1, cfg, 0.01, 0.002, 101 + seed).plan(plan);
        let s = Scenario::new(crash + 0.5, vec![peer]);
        let out = replay(&s);
        assert!(out.output_at(1, crash).is_trust(), "seed {seed}: healthy process trusted");
        assert_detected(&s, &out, &s.peers[0], crash, s.horizon);
    }
}

#[test]
fn no_false_suspicions_on_clean_link_during_observation() {
    for seed in SEEDS {
        let cfg = PeerConfig::new(0.01, 0.05);
        let s = Scenario::new(0.65, vec![Peer::new(1, cfg, 0.0, 0.001, 7 + seed)]);
        let out = replay(&s);
        // Exactly one transition: the initial trust, at the first arrival.
        let transitions = &out.transitions[&1];
        assert_eq!(transitions.len(), 1, "seed {seed}: unexpected transitions: {transitions:?}");
        assert_eq!(transitions[0].change, MembershipChange::Trusted);
        assert_eq!(transitions[0].at, out.deliveries[&1][0].at);
        assert_eq!(out.monitor.status(1).expect("registered").counters.suspicions, 0);
    }
}

#[test]
fn lossy_link_still_detects_crash_not_before() {
    let crash = 0.401; // a millisecond after a send
    for seed in SEEDS {
        // 10% loss: α must absorb a lost heartbeat (α > η ⇒ the next one
        // still arrives in time).
        let cfg = PeerConfig::new(0.01, 0.12);
        let plan = FaultPlan::new(seed).crash(crash);
        let peer = Peer::new(1, cfg, 0.1, 0.002, 23 + seed).plan(plan);
        let s = Scenario::new(2.0 * crash, vec![peer]);
        let out = replay(&s);
        assert_eq!(out.between(1, 0.0, crash).len(), 1, "seed {seed}: suspected before the crash");
        assert!(out.output_at(1, crash).is_trust());
        assert_detected(&s, &out, &s.peers[0], crash, s.horizon);
    }
}
