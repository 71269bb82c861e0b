//! Cluster-layer scenarios: randomized drives of the
//! [`ClusterMonitor`](fd_cluster::ClusterMonitor) membership layer on
//! the scenario driver ([`crate::drive`]), judged by lifecycle oracles.
//!
//! The engine scenarios check the *detector*; these check the
//! *membership layer around it*. Peers send a heartbeat every second over
//! links with delays uniform on [20, 200) ms, and the monitor sweeps
//! every 10 ms. A run is a sequence of phases, each a delay regime in
//! every peer's plan — clean, or a [`LinkFault::DelaySpike`] of 3.5–6 s
//! that gets peers suspected and pushes the adaptive control plane into
//! degradation — with a control round at the end of each. After the
//! middle phase, one peer is removed while its freshness point is armed
//! on the wheel; its heartbeats keep arriving and the sweeps go on past
//! that point — exactly what a buggy registry or wheel would resurrect
//! it on. Everything the monitor publishes goes into an [`EventLog`],
//! and the oracles assert structural invariants that must hold whatever
//! the randomized load did:
//!
//! * [`GhostEventOracle`] — removed peers emit no further events;
//! * [`DegradePromoteOracle`] — per peer, `Degraded`/`Promoted`
//!   strictly alternate starting with `Degraded`.
//!
//! The monitor is a [`manual`](fd_cluster::ClusterMonitor::manual) one:
//! no thread, no wall clock, so every event — its time included — is a
//! function of the seed.

use crate::drive::{Drive, Peer, Scenario};
use crate::oracle::{Oracle, Verdict};
use fd_cluster::{ControlConfig, EventLog, MembershipChange, PeerConfig};
use fd_metrics::QosRequirements;
use fd_sim::{FaultPlan, Link, LinkFault, MultiNodePlan};
use fd_stats::dist::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One completed cluster drive.
#[derive(Debug)]
pub struct ClusterRecord {
    /// The seed it was generated from.
    pub seed: u64,
    /// Everything the monitor published.
    pub log: EventLog,
    /// Peers that were removed mid-run.
    pub removed: Vec<u64>,
    /// Whether the removed peers were trusted when removed. A trusted
    /// peer's freshness point is armed on the wheel, so its entry was
    /// still pending and came due after the removal.
    pub armed: bool,
    /// All peers that ever existed.
    pub peers: Vec<u64>,
}

/// Drives one randomized cluster scenario, deterministically per seed.
///
/// `n_peers` peers run through 4–7 phases of 8–20 heartbeats each. The
/// first phase is clean, the one before the middle phase spikes, the
/// middle one is clean, and the rest spike with probability 0.4; so
/// every run suspects a peer, and the peer removed after the middle
/// phase has been trusted again for a whole phase when it goes. The run
/// ends `η + α +` the largest spike after the last phase, past any
/// freshness point armed before it.
pub fn run_cluster_scenario(seed: u64, n_peers: u64) -> ClusterRecord {
    assert!(n_peers >= 2, "scenario removes one peer and keeps driving the rest");
    let mut rng = StdRng::seed_from_u64(seed);
    let removed = rng.random_range(1..=n_peers);
    let phases = rng.random_range(4..=7usize);
    let middle = phases / 2;
    // Phase k's regime starts half a period before its first heartbeat;
    // its control round runs half a period after its last.
    let (mut plan, mut ends, mut beats) = (FaultPlan::new(seed), Vec::new(), 0u64);
    for phase in 0..phases {
        let free = phase != 0 && phase != middle;
        let spike = phase + 1 == middle || (free && rng.random_bool(0.4));
        let extra = rng.random_range(3.5..6.0);
        let fault =
            if spike { LinkFault::DelaySpike { extra, jitter: 0.0 } } else { LinkFault::Nominal };
        plan = plan.link_fault(beats as f64 + 0.5, fault);
        beats += rng.random_range(8..=20u64);
        ends.push(beats as f64 + 0.5);
    }
    let (req, seeds) = (QosRequirements::new(4.0, 1e9, 2.0), MultiNodePlan::new(seed));
    let cfg = PeerConfig::new(1.0, 3.0).requirements(req.expect("valid requirements"));
    let peers = (1..=n_peers).map(|p| {
        let link = Link::new(0.0, Box::new(Uniform::new(0.02, 0.2).expect("a valid delay law")));
        Peer::with_link(p, cfg, link.expect("no loss"), seeds.node_seed(p)).plan(plan.clone())
    });
    let control = ControlConfig {
        short_delay_window: 8,
        long_delay_window: 24,
        min_delay_samples: 4,
        min_eta: 0.5,
        promote_after: 2,
        ..ControlConfig::default()
    };
    let horizon = ends[phases - 1] + 1.0 + 3.0 + 6.0;
    let scenario = Scenario { tick: 0.01, control, ..Scenario::new(horizon, peers.collect()) };

    let mut drive = Drive::new(&scenario);
    let mut armed = false;
    for (phase, &end) in ends.iter().enumerate() {
        drive.run_until(end);
        drive.monitor().run_control_round();
        if phase == middle {
            let monitor = drive.monitor();
            armed = monitor.status(removed).is_some_and(|s| s.output.is_trust());
            assert!(monitor.remove_peer(removed), "peer registered");
        }
    }
    let log = drive.finish().log;
    ClusterRecord { seed, log, removed: vec![removed], armed, peers: (1..=n_peers).collect() }
}

/// No events for a peer after its `Removed` event. Decisive only on runs
/// whose removed peer had a wheel entry pending — the entry a ghost
/// event would come from.
#[derive(Debug, Clone, Copy, Default)]
pub struct GhostEventOracle;

impl Oracle<ClusterRecord> for GhostEventOracle {
    fn name(&self) -> &'static str {
        "no-ghost-events"
    }

    fn judge(&self, rec: &ClusterRecord) -> Verdict {
        if rec.removed.is_empty() || !rec.armed {
            return Verdict::Undecided;
        }
        for &p in &rec.removed {
            let ghosts = rec.log.ghost_events_after_remove(p);
            if !ghosts.is_empty() {
                return Verdict::Reject(format!(
                    "peer {p} emitted {} events after removal (first: {:?}, seed {})",
                    ghosts.len(),
                    ghosts[0].change,
                    rec.seed
                ));
            }
        }
        Verdict::Accept
    }
}

/// `Degraded`/`Promoted` strictly alternate per peer, starting with
/// `Degraded`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradePromoteOracle;

impl Oracle<ClusterRecord> for DegradePromoteOracle {
    fn name(&self) -> &'static str {
        "degrade-promote-alternation"
    }

    fn judge(&self, rec: &ClusterRecord) -> Verdict {
        let mut saw_any = false;
        for &p in &rec.peers {
            if let Err(ev) = rec.log.validate_degrade_promote(p) {
                return Verdict::Reject(format!(
                    "peer {p}: out-of-order {:?} at {} (seed {})",
                    ev.change, ev.at, rec.seed
                ));
            }
            saw_any |= rec.log.for_peer(p).iter().any(|e| {
                matches!(e.change, MembershipChange::Degraded | MembershipChange::Promoted)
            });
        }
        if saw_any {
            Verdict::Accept
        } else {
            // No degradation ever triggered: alternation is vacuous.
            Verdict::Undecided
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_scenarios_satisfy_both_oracles() {
        let mut dp_decided = 0;
        for seed in 0..6 {
            let rec = run_cluster_scenario(seed, 3);
            let v = GhostEventOracle.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            let v = DegradePromoteOracle.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            if v == Verdict::Accept {
                dp_decided += 1;
            }
        }
        // The spiky phases must have exercised degradation at least once
        // across the seed sweep, or the oracle never bites.
        assert!(dp_decided > 0, "no scenario ever degraded a peer");
    }

    /// The ghost check judges the case it exists for: the removed peer's
    /// wheel entry is pending when it goes, and the sweeps run (only a
    /// sweep suspects a peer).
    #[test]
    fn ghost_check_is_decisive() {
        for seed in 0..6 {
            let rec = run_cluster_scenario(seed, 3);
            assert!(rec.armed, "seed {seed}: the removed peer had no freshness point armed");
            let suspected = rec.log.events().iter().any(|e| e.change == MembershipChange::Suspected);
            assert!(suspected, "seed {seed}: no sweep suspected a peer");
            assert_eq!(GhostEventOracle.judge(&rec), Verdict::Accept, "seed {seed}");
        }
    }
}
