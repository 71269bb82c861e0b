//! Cluster-layer scenarios: randomized, deterministic drives of the
//! [`ClusterMonitor`] control plane, judged by lifecycle oracles.
//!
//! The engine scenarios check the *detector*; these check the
//! *membership layer around it*. Each scenario drives a monitor
//! entirely through its deterministic entry points
//! ([`record_at`](ClusterMonitor::record_at) for heartbeats at explicit
//! cluster-clock times, [`run_control_round`](ClusterMonitor::run_control_round)
//! for the adaptive control plane), drains its
//! [`MembershipEvent`](fd_cluster::MembershipEvent) stream into an
//! [`EventLog`], and returns a [`ClusterRecord`]. The oracles assert
//! structural invariants that must hold whatever the randomized load
//! did:
//!
//! * [`GhostEventOracle`] — removed peers emit no further events;
//! * [`DegradePromoteOracle`] — per peer, `Degraded`/`Promoted`
//!   strictly alternate starting with `Degraded`.
//!
//! The monitor is a [`manual`](ClusterMonitor::manual) one: no thread,
//! no wall clock, so every event — its time included — is a function of
//! the seed.

use crate::oracle::{Oracle, Verdict};
use fd_cluster::{
    ClusterConfig, ClusterMonitor, ControlConfig, EventLog, PeerConfig,
};
use fd_core::Heartbeat;
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
    /// All peers that ever existed.
    pub peers: Vec<u64>,
}

/// Drives one randomized cluster scenario, deterministically per seed.
///
/// `n_peers` peers are registered; heartbeats arrive every second of
/// cluster-clock time with seeded per-phase delays (clean or spiking —
/// spikes push the adaptive control plane into degradation, recoveries
/// pull it back); control rounds run between phases; one randomly
/// chosen peer is removed partway through, after which its heartbeats
/// keep arriving (exactly the stale traffic a buggy registry would
/// resurrect it on).
pub fn run_cluster_scenario(seed: u64, n_peers: u64) -> ClusterRecord {
    assert!(n_peers >= 2, "scenario removes one peer and keeps driving the rest");
    let mut rng = StdRng::seed_from_u64(seed);

    let monitor = ClusterMonitor::manual(ClusterConfig {
        control: ControlConfig {
            short_delay_window: 8,
            long_delay_window: 24,
            min_delay_samples: 4,
            min_eta: 0.5,
            promote_after: 2,
            ..ControlConfig::default()
        },
        ..ClusterConfig::default()
    });
    let rx = monitor.subscribe();

    let req = fd_metrics::QosRequirements::new(4.0, 1e9, 2.0).expect("valid requirements");
    let peers: Vec<u64> = (1..=n_peers).collect();
    for &p in &peers {
        monitor
            .add_peer(p, PeerConfig::new(1.0, 3.0).requirements(req))
            .expect("register peer");
    }

    let removed_peer = peers[rng.random_range(0..peers.len())];
    let mut removed = Vec::new();
    let mut seq = 0u64;

    let phases = rng.random_range(3..=6usize);
    for phase in 0..phases {
        // Each phase: a delay regime (clean or spiking) held for a
        // batch of beats, then a control round.
        let spike = rng.random_bool(0.4);
        let delay = if spike {
            rng.random_range(3.5..6.0)
        } else {
            rng.random_range(0.02..0.2)
        };
        let beats = rng.random_range(8..=20usize);
        for _ in 0..beats {
            seq += 1;
            let now = seq as f64 + delay;
            for &p in &peers {
                // Once removed, a peer's traffic is stale: the monitor
                // must ignore it (record on an unknown peer is a no-op),
                // emitting nothing.
                monitor.record_at(p, now, Heartbeat::new(seq, seq as f64));
            }
        }
        monitor.run_control_round();

        // Halfway through, drop one peer; its traffic keeps flowing.
        if phase == phases / 2 {
            assert!(monitor.remove_peer(removed_peer), "peer registered");
            removed.push(removed_peer);
        }
    }

    let mut log = EventLog::new();
    monitor.shutdown();
    log.drain(&rx);
    ClusterRecord {
        seed,
        log,
        removed,
        peers,
    }
}

/// No events for a peer after its `Removed` event.
#[derive(Debug, Clone, Copy, Default)]
pub struct GhostEventOracle;

impl Oracle<ClusterRecord> for GhostEventOracle {
    fn name(&self) -> &'static str {
        "no-ghost-events"
    }

    fn judge(&self, rec: &ClusterRecord) -> Verdict {
        if rec.removed.is_empty() {
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
                matches!(
                    e.change,
                    fd_cluster::MembershipChange::Degraded | fd_cluster::MembershipChange::Promoted
                )
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
        let ghost = GhostEventOracle;
        let dp = DegradePromoteOracle;
        let mut dp_decided = 0;
        for seed in 0..6 {
            let rec = run_cluster_scenario(seed, 3);
            assert_ne!(
                ghost.judge(&rec),
                Verdict::Undecided,
                "every scenario removes a peer"
            );
            assert!(
                !ghost.judge(&rec).is_reject(),
                "seed {seed}: {:?}",
                ghost.judge(&rec)
            );
            let v = dp.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            if v == Verdict::Accept {
                dp_decided += 1;
            }
        }
        // The spiky phases must have exercised degradation at least once
        // across the seed sweep, or the oracle never bites.
        assert!(dp_decided > 0, "no scenario ever degraded a peer");
    }

    #[test]
    fn cluster_scenarios_are_deterministic() {
        let a = run_cluster_scenario(9, 3);
        let b = run_cluster_scenario(9, 3);
        // The event streams must agree change-for-change per peer
        // (absolute ordering across peers within an instant is not
        // guaranteed by the channel, but per-peer order is).
        for p in &a.peers {
            let ca: Vec<_> = a.log.for_peer(*p).iter().map(|e| e.change).collect();
            let cb: Vec<_> = b.log.for_peer(*p).iter().map(|e| e.change).collect();
            assert_eq!(ca, cb, "peer {p} event stream diverged");
        }
    }
}
